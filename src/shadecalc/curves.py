"""Rational curve models: validation, float evaluation, conjugate
parameterizations and the built-in families.

A curve component is a tuple of 4 or 5 binary forms of one degree; the
model also records its ambient space (P3, or a quadric for sphere
curves).  Each component converts its forms once into one complex table,
one row per coordinate, and every float value of a curve point, and of
its derivative in the point's local chart, is a power vector times that
table.  The worked examples ship as built-in families: the degree-3
knot family K_a(eps), the unknot and trefoil on the sphere, the
real-point-free line, and a couple of linking fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import PreconditionError
from .poly import BinaryForm, complex_coeffs, form_gcd
from .projective import QuadricSpec
from .scalars import GaussianRational, QQ

__all__ = [
    "CurveComponent",
    "CurveModel",
    "SelfIntersection",
    "ParamPoint",
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
    coordinate.  A point found as a certified root carries that root's
    index in `root` and its certified realness in `real`; nothing
    re-derives either from the floats."""

    __slots__ = ("s", "t", "radius", "real", "root")

    def __init__(self, s, t, radius=0.0, real=False, root=None):
        s, t = complex(s), complex(t)
        if abs(s) >= abs(t):
            s, t = 1.0 + 0j, t / s
        else:
            s, t = s / t, 1.0 + 0j
        self.s, self.t = s, t
        self.radius = float(radius)
        self.real = bool(real)
        self.root = root

    def pair(self):
        return (self.s, self.t)

    def local(self):
        """The point's chart (True: t, where s = 1) and its local
        coordinate there, the smaller pair entry."""
        chart_t = abs(self.t) <= abs(self.s)
        return chart_t, self.t if chart_t else self.s

    def conjugate(self):
        return ParamPoint(self.s.conjugate(), self.t.conjugate(), self.radius, self.real, self.root)

    def affine(self):
        """t/s, possibly inf."""
        if abs(self.s) < 1e-300:
            return complex(float("inf"), 0.0)
        return self.t / self.s

    def dist(self, other: "ParamPoint") -> float:
        """Projective chordal distance |s1 t2 - s2 t1| on normalized pairs."""
        return abs(self.s * other.t - other.s * self.t)

    def __repr__(self):
        return f"ParamPoint({self.s:.6g}, {self.t:.6g}, r={self.radius:.1e})"


@dataclass(frozen=True)
class SelfIntersection:
    kind: str  # "real-real" | "complex-conjugate" | "complex"
    params: tuple  # (ParamPoint, ParamPoint)
    image: list  # complex vector of the image point
    components: tuple  # (i, j)


def _power_matrix(pairs, deg):
    """Row i holds s_i^(deg-j) t_i^j for j = 0..deg, (s_i, t_i) = pairs[i]."""
    st = np.array(pairs, dtype=complex).reshape(-1, 2)
    e = np.arange(deg + 1)
    return st[:, :1] ** (deg - e) * st[:, 1:] ** e


def _jet(x, deg, chart_t):
    """Row 0: the power vector (s^(deg-j) t^j)_j of the point with local
    coordinate x, (s, t) = (1, x) when chart_t and (x, 1) otherwise;
    row 1: its derivative in x."""
    e = np.arange(deg + 1)
    J = np.zeros((2, deg + 1), dtype=complex)
    J[0] = x**e
    J[1, 1:] = e[1:] * J[0, :-1]
    return J if chart_t else J[:, ::-1]


class CurveComponent:
    """One rational component: 4 or 5 coordinate forms of common degree,
    base-point free, plus the coefficient-conjugated parameterization and
    the forms' complex coefficient table, (nvars, degree + 1)."""

    __slots__ = ("coords", "conj_coords", "label", "degree", "table")

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
        self.table = np.array([complex_coeffs(f.den, f.num) for f in coords])

    @property
    def nvars(self):
        return len(self.coords)

    def is_real(self) -> bool:
        return all(f.is_real() for f in self.coords)

    def base_point_free(self) -> bool:
        return form_gcd(list(self.coords)).degree == 0

    def is_immersion(self) -> bool:
        """Exact: the parameterization is nowhere stationary, so the
        component has no cusp.  By Euler's identity s x_s + t x_t = d x,
        it is singular at p iff x_s(p) and x_t(p) are dependent, that is
        iff the 2x2 minors of [x_s | x_t], forms of degree 2d - 2, have a
        common root: a nonconstant form_gcd.  The minors are built one
        at a time, since the first two live ones are usually coprime."""
        ds, dt = zip(*(f.partials() for f in self.coords))
        g = None
        for a, b in combinations(range(self.nvars), 2):
            m = ds[a] * dt[b] - ds[b] * dt[a]
            if not m.is_zero():
                g = form_gcd([m] if g is None else [g, m])
                if g.degree == 0:
                    return True
        return False

    def values(self, pairs):
        """The coordinate vectors at the parameter pairs (s, t), which
        need not be normalized: one complex list per pair."""
        return (_power_matrix(pairs, self.degree) @ self.table.T).tolist()

    def jet(self, p: ParamPoint):
        """The coordinate vector at p and its derivative in the local
        coordinate of p's chart (ParamPoint.local), as two complex lists."""
        chart_t, x = p.local()
        return (_jet(x, self.degree, chart_t) @ self.table.T).tolist()


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
        self._secants = {}  # chords.secants records

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
    """The ambient as it appears in curve files and reports."""
    if isinstance(ambient, QuadricSpec):
        return {"Q3": {"c": str(ambient.c)}}
    return "P3"


def p3_forms(forms):
    """The P3 image forms of a component's coordinate forms: all four in
    P3, and x1..x4 (the double cover composed with the parameterization)
    for the five forms of a sphere curve."""
    return tuple(forms) if len(forms) == 4 else tuple(forms[1:])


def quadric_identity_residual(comp: CurveComponent, q: QuadricSpec) -> BinaryForm:
    """-c x0(s,t)^2 + sum xi(s,t)^2 as a form: zero iff the component
    lies on the quadric identically."""
    c = GaussianRational(q.c)
    acc = (comp.coords[0] * comp.coords[0]) * (-c)
    for f in comp.coords[1:]:
        acc = acc + f * f
    return acc


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


# name -> (the parameters the family takes, its constructor)
BUILTIN_FAMILIES = {
    "unknot": ((), unknot_curve),
    "trefoil": ((), trefoil_curve),
    "lp_line": ((), lp_line_curve),
    "hopf_pair": ((), hopf_pair_curve),
    "split_circles": ((), split_circles_curve),
    "kae": (("a", "eps"), kae_curve),
}
