"""Assembly of the invariants: encomplexed writhe, shade numbers of
real-point-free curves, the explicit range family, linking numbers, the
Gauss-integral oracle and parameter-family sweeps.

Conventions: wr_part sums the writhes of same-component real crossings,
sh_part the writhes of solitary crossings (one per conjugate pair for
real curves, one per shade point halved for curves without real points);
the encomplexed writhe is the sum.  Only that sum is projection
independent; the split may shift between the parts when the crossing
kind changes across centers, so cross-center agreement is enforced on
the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chords import coincidence_system, solve_minor_system
from .curves import CurveModel
from .diagram import ProjectionData, branch_frame_sign, select_center
from .errors import GenericityError, InstabilityError, PreconditionError
from .poly import UPoly, real_roots_sturm
from .scalars import QQ

__all__ = [
    "InvariantReport",
    "SweepReport",
    "self_double_points",
    "find_real_points",
    "encomplexed_writhe",
    "shade_number_empty_real",
    "range_family_shade",
    "linking_number",
    "gauss_linking_oracle",
    "family_sweep",
]

TOLERANCES = {
    "certification_margin": 1e-6,
    "realness": 1e-9,
    "root_residual": 1e-12,
    "system_residual": 1e-8,
}


@dataclass
class InvariantReport:
    Cw: int | None
    wr_part: Fraction
    sh_part: Fraction
    crossings: list
    center: dict
    certificate: dict
    seed: int
    centers_checked: int
    ambient: object
    mode: str
    complex_pairs: int = 0
    # the reported projection, kept for rendering; never serialized
    projection: ProjectionData | None = field(default=None, repr=False, compare=False)

    def describe(self):
        return {
            "Cw": self.Cw,
            "wr_part": _frac_str(self.wr_part),
            "sh_part": _frac_str(self.sh_part),
            "mode": self.mode,
            "ambient": self.ambient,
            "seed": self.seed,
            "centers_checked": self.centers_checked,
            "center": self.center,
            "certificate": self.certificate,
            "crossings": [c.describe() for c in self.crossings],
            "complex_chord_pairs": self.complex_pairs,
            "tolerances": TOLERANCES,
        }


def _frac_str(x) -> str:
    x = QQ(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass
class SweepReport:
    family: str
    parameters: dict
    grid: list
    values: list  # Fraction | None per sample
    singular: list  # bool per sample
    errors: list  # str | None per sample
    jumps: list  # (grid[i], grid[i+1], delta)

    def describe(self):
        return {
            "family": self.family,
            "parameters": self.parameters,
            "grid": [_frac_str(g) for g in self.grid],
            "values": [None if v is None else _frac_str(v) for v in self.values],
            "singular": self.singular,
            "errors": self.errors,
            "jumps": [
                {"from": _frac_str(a), "to": _frac_str(b), "delta": _frac_str(d)}
                for a, b, d in self.jumps
            ],
        }


# ---------------------------------------------------------------------------
# model-level solving: self-intersections and real points
# ---------------------------------------------------------------------------


def self_double_points(curve: CurveModel, seed=0):
    """All parameter pairs with projectively equal images, within and
    across components; empty output certifies a smooth embedding.

    Cached on the model (the answer does not depend on the seed beyond
    the random combinations used for elimination).
    """
    if curve._sdp_cache is not None:
        return curve._sdp_cache
    from .curves import SelfIntersection

    out = []
    comps = curve.components
    for i in range(len(comps)):
        for j in range(i, len(comps)):
            minors = coincidence_system(comps[i].coords, comps[j].coords)
            mode = "swap" if i == j else "solve"
            res = solve_minor_system(
                minors, seed=seed + 7 * i + j, w_mode=mode, context=f"selfint[{i},{j}]"
            )
            sols = res.solutions
            seen = set()
            for s in sols:
                if i == j:
                    key = tuple(
                        sorted([
                            (round(s.z.s.real, 8), round(s.z.s.imag, 8), round(s.z.t.real, 8), round(s.z.t.imag, 8)),
                            (round(s.w.s.real, 8), round(s.w.s.imag, 8), round(s.w.t.real, 8), round(s.w.t.imag, 8)),
                        ])
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                if s.z.real and s.w.real:
                    kind = "real-real"
                elif s.z.is_conjugate_of(s.w):
                    kind = "complex-conjugate"
                else:
                    kind = "complex"
                img = comps[i].eval_point(s.z)
                out.append(SelfIntersection(kind, (s.z, s.w), img, (i, j)))
    curve._sdp_cache = out
    return out


def find_real_points(curve: CurveModel, component: int, seed=0):
    """Parameters where a non-real-coefficient component meets RP3 (or
    the real quadric); the empty answer certifies an empty real locus."""
    comp = curve.components[component]
    if comp.is_real():
        raise PreconditionError(
            f"component {comp.label or component} has real coefficients; "
            "use the real locus instead"
        )
    minors = coincidence_system(comp.coords, comp.conj_coords)
    res = solve_minor_system(
        minors, seed=seed, w_mode="conj", context=f"realpts[{component}]"
    )
    return [s.z for s in res.solutions if s.z.is_conjugate_of(s.w)]


def _require_smooth(curve: CurveModel, seed=0):
    bad = self_double_points(curve, seed)
    if bad:
        kinds = sorted({b.kind for b in bad})
        raise PreconditionError(
            f"curve has {len(bad)} double point(s) ({', '.join(kinds)}); "
            "invariants need a smooth embedding"
        )


# ---------------------------------------------------------------------------
# encomplexed writhe and shade numbers
# ---------------------------------------------------------------------------


def _sum_parts(data: ProjectionData):
    wr = sum(c.writhe for c in data.crossings if c.kind == "real-real" and c.same_component)
    sh = sum(c.writhe for c in data.crossings if c.kind == "solitary")
    return QQ(wr), QQ(sh)


def encomplexed_writhe(curve: CurveModel, seed=0, centers=1, forced_center=None,
                       tol=1e-12) -> InvariantReport:
    """Cw of a smooth real curve as the signed crossing count of a
    certified generic projection, cross-checked over `centers` accepted
    centers (the total must agree; the wr/sh split is center-dependent
    whenever a crossing changes kind between centers)."""
    curve.require_valid()
    if not curve.is_real():
        raise PreconditionError("encomplexed writhe needs real coefficients; "
                                "use the shade number for curves without real points")
    _require_smooth(curve, seed)
    runs = []
    for k in range(max(1, centers)):
        data = select_center(
            curve,
            seed=seed + 1000003 * k,
            mode="diagram",
            forced_center=forced_center if k == 0 else None,
            tol=tol,
        )
        runs.append(data)
    totals = []
    for data in runs:
        wr, sh = _sum_parts(data)
        if (wr + sh).denominator != 1:
            raise InstabilityError("encomplexed writhe came out non-integral")
        totals.append(wr + sh)
    if len(set(totals)) > 1:
        raise InstabilityError(
            f"centers disagree on Cw: {sorted(set(int(t) for t in totals))}",
            reports=[d.center.describe() for d in runs],
        )
    data = runs[0]
    wr, sh = _sum_parts(data)
    return InvariantReport(
        Cw=int(wr + sh),
        wr_part=wr,
        sh_part=sh,
        crossings=data.crossings,
        center=data.center.describe(),
        certificate=data.certificate.describe(),
        seed=seed,
        centers_checked=len(runs),
        ambient=_ambient_tag(curve),
        mode="diagram",
        complex_pairs=data.complex_pairs,
        projection=data,
    )


def shade_number_empty_real(curve: CurveModel, seed=0, centers=1, forced_center=None,
                            tol=1e-12) -> InvariantReport:
    """sh(W) = half the signed count of shade points, for curves whose
    components all have empty real locus."""
    curve.require_valid()
    for i, comp in enumerate(curve.components):
        if comp.is_real():
            raise PreconditionError(
                f"component {comp.label or i} has real coefficients (real locus nonempty)"
            )
        pts = find_real_points(curve, i, seed)
        if pts:
            zs = ", ".join(f"{p.affine():.6g}" for p in pts)
            raise PreconditionError(
                f"component {comp.label or i} has real points at parameters {zs}"
            )
    runs = []
    for k in range(max(1, centers)):
        runs.append(select_center(curve, seed=seed + 1000003 * k, mode="shade",
                                  forced_center=forced_center if k == 0 else None, tol=tol))
    values = []
    for data in runs:
        sh = QQ(sum(c.writhe for c in data.crossings if c.kind == "solitary"), 2)
        values.append(sh)
    if len(set(values)) > 1:
        raise InstabilityError(
            f"centers disagree on sh: {sorted(set(str(v) for v in values))}",
            reports=[d.center.describe() for d in runs],
        )
    data = runs[0]
    sh = values[0]
    d_total = sum(c.degree for c in curve.components)
    if abs(sh) > QQ(d_total * d_total, 2):
        raise InstabilityError(f"|sh| = {sh} exceeds d^2/2")
    if (sh - QQ(d_total, 2)).denominator > 1:
        raise InstabilityError(f"sh = {sh} is not congruent to d/2 mod 1")
    return InvariantReport(
        Cw=None,
        wr_part=QQ(0),
        sh_part=sh,
        crossings=data.crossings,
        center=data.center.describe(),
        certificate=data.certificate.describe(),
        seed=seed,
        centers_checked=len(runs),
        ambient=_ambient_tag(curve),
        mode="shade",
        complex_pairs=data.complex_pairs,
        projection=data,
    )


def _ambient_tag(curve: CurveModel):
    q = curve.quadric()
    if q is None:
        return "P3"
    return {"Q3": {"c": str(q.c)}}


# ---------------------------------------------------------------------------
# the explicit range family W_t
# ---------------------------------------------------------------------------


def _range_polys(d: int, t, K):
    """(A, B) with A = P(u,1) - 1 and B = Q_t(u,1) - 1 as exact UPoly."""
    if d < 1:
        raise PreconditionError("range family needs degree >= 1")
    K = QQ(K)
    t = QQ(t)
    if K <= 0:
        raise PreconditionError("K must be positive")
    A = UPoly([K])
    for j in range(1, d + 1):
        A = A * UPoly([-j, 1])
    B = UPoly([K])
    for j in range(1, d + 1):
        B = B * UPoly([-(t + QQ(j, d * d + 1)), 1])
    one = UPoly([1])
    return A - one, B - one


def _upoly_mirror(p: UPoly) -> UPoly:
    """p(-u)."""
    num = [(-a, -b) if j % 2 else (a, b) for j, (a, b) in enumerate(p.num)]
    return UPoly._from_ints(p.den, num)


def _ures_is_zero(f: UPoly, g: UPoly) -> bool:
    """Exact vanishing test for the univariate resultant of f and g."""
    return f.gcd(g).degree >= 1


def range_family_is_singular(d, t, K) -> bool:
    """True iff some theta_j + phi_k(t) = 0 (the member W_t has a real
    point); exact via a gcd test on A(u), B(-u)."""
    A, B = _range_polys(d, t, K)
    return _ures_is_zero(A, _upoly_mirror(B))


def _certified_real_roots(p: UPoly, expect: int, what: str):
    ivs = real_roots_sturm(p, width=QQ(1, 2**90))
    if len(ivs) != expect:
        raise PreconditionError(
            f"{what}: found {len(ivs)} real roots, need {expect} (increase K)"
        )
    return ivs


@dataclass(frozen=True)
class _RangeIsolation:
    """The range family at fixed (d, K), isolated once.  B_t(u) = B_0(u - t),
    so phi_k(t) = phi_k(0) + t and Q_t'(phi_k(t)) = Q_0'(phi_k(0)): every
    member is read off the roots of A and B_0."""

    d: int
    K: Fraction
    theta: list  # (float theta_j, P'(theta_j)) per root of A
    phi0: list  # (exact midpoint of phi_k(0), Q_0'(phi_k(0))) per root of B_0
    walls: list  # sorted closed intervals holding the d^2 collision times


def _range_isolation(d, K, b_name) -> _RangeIsolation:
    A, B0 = _range_polys(d, 0, K)
    th_iv = _certified_real_roots(A, d, "P(u,1) = 1")
    ph_iv = _certified_real_roots(B0, d, f"{b_name}(u,1) = 1")
    dA = A.derivative()
    dB0 = B0.derivative()
    theta = [(x, complex(dA(complex(x)))) for x in (float((a0 + a1) / 2) for a0, a1 in th_iv)]
    phi0 = [(m, complex(dB0(complex(float(m))))) for m in ((b0 + b1) / 2 for b0, b1 in ph_iv)]
    walls = sorted((-a1 - b1, -a0 - b0) for a0, a1 in th_iv for b0, b1 in ph_iv)
    return _RangeIsolation(d, QQ(K), theta, phi0, walls)


def _range_shade_at(iso: _RangeIsolation, t):
    t = QQ(t)
    phis = [float(m + t) for m, _ in iso.phi0]
    cvec = [0j, 0j, 0j, 1 + 0j]
    signs = []
    for theta, dP in iso.theta:
        for phi, (_, dQ) in zip(phis, iso.phi0):
            if abs(theta + phi) < 1e-12:
                raise PreconditionError("shade point degenerated onto the real locus")
            x = [1 + 0j, complex(theta), complex(phi), -1j * (theta + phi)]
            dx = [0j, -1j * dQ, dP, -dQ - 1j * dP]
            signs.append(branch_frame_sign(x, dx, cvec, 3))
    return {
        "d": iso.d,
        "t": t,
        "K": iso.K,
        "sh": QQ(sum(signs), 2),
        "signs": signs,
        "theta": [x for x, _ in iso.theta],
        "phi": phis,
    }


def _in_wall(walls, t) -> bool:
    return any(lo <= t <= hi for lo, hi in walls)


def range_family_shade(d: int, t, K=None):
    """Shade number of the degree-d range-family member W_t through the
    shade centered at [0,0,0,1]: the d x d grid of shade points
    [1, theta_j, phi_k, -i(theta_j + phi_k)], each signed by the solitary
    branch recipe with the tangent taken from the defining gradient.

    Returns a dict with the value and the per-point ledger; raises
    PreconditionError when t is a singular sample (a real point exists).
    """
    if K is None:
        K = QQ(10) ** (2 + d)
    if range_family_is_singular(d, t, K):
        raise PreconditionError(f"t = {t} is singular: the member acquires a real point")
    return _range_shade_at(_range_isolation(d, K, "Q_t"), t)


def range_collision_times(d, K):
    """Certified intervals for the d^2 parameter values t where W_t
    acquires a real point: phi_k(t) = phi_k(0) + t, so the collisions sit
    at t = -theta_j - phi_k(0).  Sorted closed intervals
    [-a1 - b1, -a0 - b0] from the isolating intervals of theta_j and
    phi_k(0): the one isolation that range sweeps shift by t."""
    return _range_isolation(d, K, "Q_0").walls


def _check_wall_ledger(walls, a, b, delta):
    """Each wall moves sh by +-1 (shade numbers of real-point-free members
    are Vassiliev invariants of degree 1).  So between two samples outside
    every wall interval, with n walls between them, |delta| <= n and
    delta = n (mod 2)."""
    a, b = min(a, b), max(a, b)
    if _in_wall(walls, a) or _in_wall(walls, b):
        return
    n = sum(1 for lo, hi in walls if a < lo and hi < b)
    if abs(delta) > n or (delta - n) % 2:
        raise InstabilityError(
            f"sh moved by {_frac_str(delta)} between t = {_frac_str(a)} and "
            f"t = {_frac_str(b)} across {n} certified wall(s)"
        )


# ---------------------------------------------------------------------------
# linking numbers
# ---------------------------------------------------------------------------


def linking_number(curve: CurveModel, i: int, j: int, seed=0):
    """Half the signed count of real chords between components i and j of
    a generic projection; integer on the sphere, half-integer in P3."""
    if i == j:
        raise PreconditionError("linking number needs two distinct components")
    ci, cj = curve.components[i], curve.components[j]
    if not (ci.is_real() and cj.is_real()):
        raise PreconditionError("linking number needs real-coefficient components")
    sub = CurveModel(curve.ambient, [ci, cj], curve.metadata)
    meets = [
        s for s in self_double_points(sub, seed)
        if s.components == (0, 1) and s.kind == "real-real"
    ]
    if meets:
        raise PreconditionError("components intersect on the real locus")
    data = select_center(sub, seed=seed, mode="diagram")
    lk = QQ(
        sum(
            c.writhe
            for c in data.crossings
            if c.kind == "real-real" and not c.same_component
        ),
        2,
    )
    if curve.quadric() is not None and lk.denominator != 1:
        raise InstabilityError(f"sphere linking number came out non-integral: {lk}")
    return lk


def gauss_linking_oracle(poly_a, poly_b):
    """Discretized Gauss linking integral of two closed polylines (lists
    of 3-vectors, closure implied).  Returns (value, error_estimate,
    proximity_warning)."""
    A = np.asarray(poly_a, dtype=float)
    B = np.asarray(poly_b, dtype=float)
    if A.ndim != 2 or A.shape[1] != 3 or B.ndim != 2 or B.shape[1] != 3:
        raise ValueError("polylines must be (n, 3) arrays")

    def lk(As, Bs):
        a1 = As
        a2 = np.roll(As, -1, axis=0)
        b1 = Bs
        b2 = np.roll(Bs, -1, axis=0)
        total = 0.0
        for k in range(len(b1)):
            a = a1 - b1[k]
            b = a1 - b2[k]
            c = a2 - b2[k]
            d = a2 - b1[k]
            an = np.linalg.norm(a, axis=1)
            bn = np.linalg.norm(b, axis=1)
            cn = np.linalg.norm(c, axis=1)
            dn = np.linalg.norm(d, axis=1)
            p = np.einsum("ij,ij->i", a, np.cross(b, c))
            d1 = an * bn * cn + np.einsum("ij,ij->i", a, b) * cn \
                + np.einsum("ij,ij->i", b, c) * an + np.einsum("ij,ij->i", c, a) * bn
            d2 = an * dn * cn + np.einsum("ij,ij->i", a, d) * cn \
                + np.einsum("ij,ij->i", d, c) * an + np.einsum("ij,ij->i", c, a) * dn
            total += float(np.sum(np.arctan2(p, d1) + np.arctan2(p, d2)))
        return total / (2 * math.pi)

    val = lk(A, B)
    coarse = lk(A[::2], B[::2]) if len(A) > 8 and len(B) > 8 else val
    err = abs(val - coarse) + 1e-9
    dmin = min(
        float(np.min(np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2))), 1e9
    )
    scale = max(np.ptp(A), np.ptp(B)) or 1.0
    warning = dmin < 0.05 * scale
    return val, err, warning


# ---------------------------------------------------------------------------
# family sweeps
# ---------------------------------------------------------------------------


def family_sweep(family: str, grid, seed=0, eps=None, d=None, K=None) -> SweepReport:
    """Per-sample invariant over a parameter grid: Cw for the knot family,
    sh for the range family; singular samples flagged, never interpolated.

    A range sweep isolates A and B_0 once per (d, K) and shifts the B_0
    intervals by t.  The exact gcd test runs only inside a certified wall,
    since outside every wall W_t has no real point; the walls crossed
    between regular neighbours must account for the change of sh, else
    InstabilityError.  A failed isolation (K too small) is every sample's
    error."""
    grid = [QQ(g) for g in grid]
    params = {}
    walls = None
    if family == "kae":
        if eps not in (1, -1):
            raise PreconditionError("kae sweep needs eps = +1 or -1")
        params = {"eps": eps}

        def sample(idx_a):
            idx, a = idx_a
            from .curves import kae_curve

            curve = kae_curve(a, eps)
            if self_double_points(curve, seed + idx):
                return (None, True, "singular member (double point)")
            rep = encomplexed_writhe(curve, seed=seed + idx)
            return (QQ(rep.Cw), False, None)

    elif family == "range":
        if not d or d < 1:
            raise PreconditionError("range sweep needs d >= 1")
        if K is None:
            K = QQ(10) ** (2 + d)
        params = {"d": d, "K": _frac_str(QQ(K))}
        try:
            iso = _range_isolation(d, K, "Q_t")
            walls = iso.walls
        except PreconditionError as e:
            iso, failure = None, e

        def sample(idx_a):
            idx, t = idx_a
            if (iso is None or _in_wall(walls, t)) and range_family_is_singular(d, t, K):
                return (None, True, "singular member (real point)")
            if iso is None:
                raise failure
            return (_range_shade_at(iso, t)["sh"], False, None)

    else:
        raise PreconditionError(f"unknown family {family!r}")

    results = list(map(_guarded(sample), enumerate(grid)))
    values = [r[0] for r in results]
    singular = [r[1] for r in results]
    errors = [r[2] for r in results]
    jumps = []
    prev = None
    for g, v, s in zip(grid, values, singular):
        if s or v is None:
            continue
        if prev is not None and walls is not None:
            _check_wall_ledger(walls, prev[0], g, v - prev[1])
        if prev is not None and v != prev[1]:
            jumps.append((prev[0], g, v - prev[1]))
        prev = (g, v)
    return SweepReport(family, params, grid, values, singular, errors, jumps)


def _guarded(fn):
    def run(item):
        try:
            return fn(item)
        except (GenericityError, PreconditionError, InstabilityError) as e:
            return (None, False, f"{type(e).__name__}: {e}")

    return run
