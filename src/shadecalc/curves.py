"""Rational curve models: validation, evaluation, tangents, conjugate
parameterizations, self-intersection detection and real-locus sampling.

A curve component is a tuple of 4 or 5 binary forms of one degree; the
model also records its ambient space (P3, or a quadric for sphere
curves).  The worked examples ship as built-in families: the degree-3
knot family K_a(eps), the unknot and trefoil on the sphere, the
real-point-free line, and a couple of linking fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError
from .poly import BinaryForm, form_gcd
from .projective import ProjPoint, QuadricSpec
from .scalars import GaussianRational, QQ

__all__ = [
    "CurveComponent",
    "CurveModel",
    "SelfIntersection",
    "ParamPoint",
    "real_locus_sample",
    "kae_curve",
    "unknot_curve",
    "trefoil_curve",
    "lp_line_curve",
    "hopf_pair_curve",
    "split_circles_curve",
]


class ParamPoint:
    """A point of the parameter line P1, kept as a normalized (s, t)
    pair: real pairs stay real, the larger coordinate is scaled to 1.
    `radius` is the certification radius in the chart of the smaller
    coordinate; `mult` the root multiplicity where one applies."""

    __slots__ = ("s", "t", "radius", "mult", "real")

    def __init__(self, s, t, radius=0.0, mult=1, real=None):
        s, t = complex(s), complex(t)
        if abs(s) >= abs(t):
            s, t = 1.0 + 0j, t / s
        else:
            s, t = s / t, 1.0 + 0j
        if real is None:
            real = abs(s.imag) < 1e-12 and abs(t.imag) < 1e-12
        self.s, self.t = s, t
        self.radius = float(radius)
        self.mult = int(mult)
        self.real = bool(real)

    @classmethod
    def infinity(cls, radius=0.0, mult=1):
        return cls(0.0, 1.0, radius, mult, real=True)

    def pair(self):
        return (self.s, self.t)

    def conjugate(self):
        return ParamPoint(
            self.s.conjugate(), self.t.conjugate(), self.radius, self.mult, self.real
        )

    def affine(self):
        """t/s, possibly inf."""
        if abs(self.s) < 1e-300:
            return complex(float("inf"), 0.0)
        return self.t / self.s

    def dist(self, other: "ParamPoint") -> float:
        """Projective chordal distance |s1 t2 - s2 t1| on normalized pairs."""
        return abs(self.s * other.t - other.s * self.t)

    def same(self, other: "ParamPoint", tol=1e-9) -> bool:
        return self.dist(other) <= max(tol, 4 * (self.radius + other.radius))

    def is_conjugate_of(self, other: "ParamPoint", tol=1e-9) -> bool:
        return self.dist(other.conjugate()) <= max(tol, 4 * (self.radius + other.radius))

    def __repr__(self):
        return f"ParamPoint({self.s:.6g}, {self.t:.6g}, r={self.radius:.1e})"


@dataclass(frozen=True)
class SelfIntersection:
    kind: str  # "real-real" | "complex-conjugate"
    params: tuple  # (ParamPoint, ParamPoint)
    image: ProjPoint
    components: tuple  # (i, j)


class CurveComponent:
    """One rational component: 4 or 5 coordinate forms of common degree,
    base-point free, plus the coefficient-conjugated parameterization."""

    __slots__ = ("coords", "conj_coords", "label", "degree")

    def __init__(self, coords, label=""):
        coords = tuple(coords)
        if len(coords) not in (4, 5):
            raise PreconditionError("components live in P3 (4 forms) or P4 (5 forms)")
        d = coords[0].degree
        if any(f.degree != d for f in coords):
            raise PreconditionError(f"component {label or '?'}: coordinate degrees differ")
        if d < 1:
            raise PreconditionError(f"component {label or '?'}: degree must be >= 1")
        if all(f.is_zero() for f in coords):
            raise PreconditionError(f"component {label or '?'}: zero parameterization")
        self.coords = coords
        self.conj_coords = tuple(f.conjugate() for f in coords)
        self.label = label
        self.degree = d

    @property
    def nvars(self):
        return len(self.coords)

    def is_real(self) -> bool:
        return all(f.is_real() for f in self.coords)

    def base_point_free(self) -> bool:
        return form_gcd(list(self.coords)).degree == 0

    def eval_point(self, param, conj=False) -> ProjPoint:
        """Image point at a parameter: a ParamPoint, an (s, t) pair, a
        chart value t (s = 1), or the string "inf" for (0, 1)."""
        s, t = _param_pair(param)
        forms = self.conj_coords if conj else self.coords
        vals = [f.eval(s, t) for f in forms]
        return ProjPoint(vals, "P3" if self.nvars == 4 else "P4")


def _param_pair(param):
    if isinstance(param, ParamPoint):
        return param.s, param.t
    if param == "inf":
        return GaussianRational(0), GaussianRational(1)
    if isinstance(param, tuple):
        return param
    return GaussianRational(1) if not isinstance(param, complex) else 1.0 + 0j, param


class CurveModel:
    """Ambient space plus components; immutable after validation."""

    def __init__(self, ambient, components, metadata=None):
        if ambient != "P3" and not isinstance(ambient, QuadricSpec):
            raise PreconditionError("ambient must be 'P3' or a QuadricSpec")
        self.ambient = ambient
        self.components = tuple(components)
        self.metadata = dict(metadata or {})
        if not self.components:
            raise PreconditionError("curve needs at least one component")
        nv = 5 if isinstance(ambient, QuadricSpec) else 4
        for c in self.components:
            if c.nvars != nv:
                raise PreconditionError(
                    f"component {c.label or '?'} has {c.nvars} coordinates, ambient wants {nv}"
                )
        self._sdp_cache = None

    def is_real(self):
        return all(c.is_real() for c in self.components)

    def quadric(self) -> QuadricSpec | None:
        return self.ambient if isinstance(self.ambient, QuadricSpec) else None

    def validate(self) -> dict:
        """Report-style validation: base-point-freeness, degrees, quadric
        identity, coefficient reality per component."""
        report = {"valid": True, "components": [], "ambient": describe_ambient(self.ambient)}
        q = self.quadric()
        for i, comp in enumerate(self.components):
            entry = {
                "label": comp.label or f"component-{i}",
                "degree": comp.degree,
                "real_coefficients": comp.is_real(),
                "base_point_free": comp.base_point_free(),
            }
            if not entry["base_point_free"]:
                entry["error"] = "coordinate forms share a nonconstant factor"
                report["valid"] = False
            if q is not None:
                res = quadric_identity_residual(comp, q)
                entry["on_quadric"] = res.is_zero()
                if not entry["on_quadric"]:
                    entry["error"] = "parameterization does not satisfy the quadric identity"
                    report["valid"] = False
            report["components"].append(entry)
        return report

    def require_valid(self):
        rep = self.validate()
        if not rep["valid"]:
            bad = [e for e in rep["components"] if "error" in e]
            raise PreconditionError(
                "; ".join(f"{e['label']}: {e['error']}" for e in bad) or "invalid curve"
            )
        return rep


def describe_ambient(ambient):
    if isinstance(ambient, QuadricSpec):
        return {"Q3": {"c": str(ambient.c)}}
    return "P3"


def quadric_identity_residual(comp: CurveComponent, q: QuadricSpec) -> BinaryForm:
    """-c x0(s,t)^2 + sum xi(s,t)^2 as a form: zero iff the component
    lies on the quadric identically."""
    c = GaussianRational(q.c)
    acc = (comp.coords[0] * comp.coords[0]) * (-c)
    for f in comp.coords[1:]:
        acc = acc + f * f
    return acc


def real_locus_sample(curve: CurveModel, n: int, component=0):
    """n points at equally spaced angles on the real parameter circle of a
    real-coefficient component ((s, t) = (cos a, sin a), a in [0, pi))."""
    comp = curve.components[component]
    if not comp.is_real():
        raise PreconditionError(
            f"component {comp.label or component} has no real locus (non-real coefficients)"
        )
    pts = []
    for k in range(n):
        a = math.pi * k / n
        pts.append(comp.eval_point((complex(math.cos(a)), complex(math.sin(a)))))
    return pts


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def kae_curve(a, eps) -> CurveModel:
    """The degree-3 knot family in P3:
    [s^3, s t^2 + eps s^3, t^3 + eps s^2 t, a t s^2]."""
    a = QQ(a)
    eps = int(eps)
    if eps not in (1, -1):
        raise PreconditionError("eps must be +1 or -1")
    coords = [
        BinaryForm(3, [1, 0, 0, 0]),
        BinaryForm(3, [eps, 0, 1, 0]),
        BinaryForm(3, [0, eps, 0, 1]),
        BinaryForm(3, [0, a, 0, 0]),
    ]
    return CurveModel(
        "P3",
        [CurveComponent(coords, label=f"kae(a={a},eps={eps:+d})")],
        {"family": "kae", "a": str(a), "eps": eps},
    )


def unknot_curve() -> CurveModel:
    """The plane section x3 = x4 = 0 of the unit quadric:
    [s^2+t^2, 2 s t, s^2-t^2, 0, 0]."""
    coords = [
        BinaryForm(2, [1, 0, 1]),
        BinaryForm(2, [0, 2, 0]),
        BinaryForm(2, [1, 0, -1]),
        BinaryForm(2, [0, 0, 0]),
        BinaryForm(2, [0, 0, 0]),
    ]
    return CurveModel(
        QuadricSpec(QQ(1)), [CurveComponent(coords, label="unknot")], {"family": "unknot"}
    )


def trefoil_curve() -> CurveModel:
    """The trefoil on the quadric -2 x0^2 + sum xi^2 = 0 (the link of
    z^2 = w^3 intersected with the sphere), degree 6."""
    coords = [
        # (s^2+t^2)^3
        BinaryForm(6, [1, 0, 3, 0, 3, 0, 1]),
        # -2 s t (3 (s^2+t^2)^2 - 16 s^2 t^2) = -6 s^5 t + 20 s^3 t^3 - 6 s t^5
        BinaryForm(6, [0, -6, 0, 20, 0, -6, 0]),
        # -(s^2-t^2)((s^2+t^2)^2 - 16 s^2 t^2) = -(s^2-t^2)(s^4 - 14 s^2 t^2 + t^4)
        BinaryForm(6, [-1, 0, 15, 0, -15, 0, 1]),
        # -(s^2+t^2)((s^2+t^2)^2 - 8 s^2 t^2) = -(s^2+t^2)(s^4 - 6 s^2 t^2 + t^4)
        BinaryForm(6, [-1, 0, 5, 0, 5, 0, -1]),
        # 4 s t (s^2+t^2)(s^2-t^2) = 4 s t (s^4 - t^4)
        BinaryForm(6, [0, 4, 0, 0, 0, -4, 0]),
    ]
    return CurveModel(
        QuadricSpec(QQ(2)), [CurveComponent(coords, label="trefoil")], {"family": "trefoil"}
    )


def lp_line_curve() -> CurveModel:
    """The real-point-free line [u, i u, v, i v] in P3."""
    i = GaussianRational(0, 1)
    coords = [
        BinaryForm(1, [1, 0]),
        BinaryForm(1, [i, GaussianRational(0)]),
        BinaryForm(1, [0, 1]),
        BinaryForm(1, [GaussianRational(0), i]),
    ]
    return CurveModel("P3", [CurveComponent(coords, label="lp-line")], {"family": "lp_line"})


def hopf_pair_curve() -> CurveModel:
    """Two Clifford-orthogonal great circles on the unit quadric; their
    real loci form a Hopf link."""
    c1 = [
        BinaryForm(2, [1, 0, 1]),
        BinaryForm(2, [0, 2, 0]),
        BinaryForm(2, [1, 0, -1]),
        BinaryForm(2, [0, 0, 0]),
        BinaryForm(2, [0, 0, 0]),
    ]
    c2 = [
        BinaryForm(2, [1, 0, 1]),
        BinaryForm(2, [0, 0, 0]),
        BinaryForm(2, [0, 0, 0]),
        BinaryForm(2, [0, 2, 0]),
        BinaryForm(2, [1, 0, -1]),
    ]
    return CurveModel(
        QuadricSpec(QQ(1)),
        [CurveComponent(c1, label="circle-12"), CurveComponent(c2, label="circle-34")],
        {"family": "hopf_pair"},
    )


def split_circles_curve() -> CurveModel:
    """Two parallel round circles x3 = +-3/5, far apart; unlinked."""
    rho = QQ(4, 5)
    h = QQ(3, 5)
    comps = []
    for sgn, name in ((1, "north"), (-1, "south")):
        coords = [
            BinaryForm(2, [1, 0, 1]),
            BinaryForm(2, [0, 2 * rho, 0]),
            BinaryForm(2, [rho, 0, -rho]),
            BinaryForm(2, [sgn * h, 0, sgn * h]),
            BinaryForm(2, [0, 0, 0]),
        ]
        comps.append(CurveComponent(coords, label=f"circle-{name}"))
    return CurveModel(QuadricSpec(QQ(1)), comps, {"family": "split_circles"})


BUILTIN_FAMILIES = {
    "unknot": lambda **kw: unknot_curve(),
    "trefoil": lambda **kw: trefoil_curve(),
    "lp_line": lambda **kw: lp_line_curve(),
    "hopf_pair": lambda **kw: hopf_pair_curve(),
    "split_circles": lambda **kw: split_circles_curve(),
    "kae": lambda **kw: kae_curve(kw["a"], kw["eps"]),
}
