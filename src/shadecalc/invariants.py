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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chords import ACCEPT_TOL, canonical_unordered, secants, solve_minor_system
from .curves import CurveModel, SelfIntersection, describe_ambient
from .diagram import SOLITARY_SIGN, ProjectionData, select_center
from .errors import DoublePointError, GenericityError, InstabilityError, PreconditionError
from .poly import BinaryForm, form_gcd, real_roots_sturm
from .projective import CERT_MARGIN, REALNESS_TOL
from .roots import DEFAULT_TARGET_RADIUS
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
    "certification_margin": CERT_MARGIN,
    "realness": REALNESS_TOL,
    "root_residual": DEFAULT_TARGET_RADIUS,
    "system_residual": ACCEPT_TOL,
}


@dataclass
class InvariantReport:
    Cw: int | None
    wr_part: Fraction
    sh_part: Fraction
    projection: ProjectionData  # the reported one: its center, certificate and crossings
    seed: int
    centers_checked: int
    ambient: object
    mode: str
    root_residual: float = DEFAULT_TARGET_RADIUS  # the root radius the engine was given

    def describe(self):
        data = self.projection
        return {
            "Cw": self.Cw,
            "wr_part": _frac_str(self.wr_part),
            "sh_part": _frac_str(self.sh_part),
            "mode": self.mode,
            "ambient": self.ambient,
            "seed": self.seed,
            "centers_checked": self.centers_checked,
            "center": data.center.describe(),
            "certificate": data.certificate.describe(),
            "crossings": [c.describe() for c in data.crossings],
            "complex_chord_pairs": data.complex_pairs,
            "tolerances": {**TOLERANCES, "root_residual": self.root_residual},
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
    across components; empty output certifies a smooth embedding.  The
    seed picks the random combinations used for elimination."""
    out = []
    comps = curve.components
    for i in range(len(comps)):
        for j in range(i, len(comps)):
            mode = "swap" if i == j else "solve"
            sols = solve_minor_system(
                secants(curve, i, j, p3=False), seed=seed + 7 * i + j, w_mode=mode,
                context=f"selfint[{i},{j}]",
            )
            if i == j:
                sols = canonical_unordered(sols)
            images = comps[i].values([s.z.pair() for s in sols])
            for s, img in zip(sols, images):
                out.append(SelfIntersection(s.double_point_kind, (s.z, s.w), img, (i, j)))
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
    sols = solve_minor_system(
        secants(curve, component, "conj", p3=False), seed=seed, w_mode="conj",
        context=f"realpts[{component}]",
    )
    return [s.z for s in sols if s.conjugate]


def _require_immersed(curve: CurveModel):
    """Exit 3 on a cusp, by an exact test (CurveComponent.is_immersion):
    at a cusp no chord solve succeeds, so it must come first."""
    for i, comp in enumerate(curve.components):
        if not comp.is_immersion():
            raise PreconditionError(
                f"curve has a cusp on component {comp.label or i} (its parameterization "
                "is stationary there); invariants need a smooth embedding"
            )


def _require_smooth(curve: CurveModel, seed=0):
    bad = self_double_points(curve, seed)
    if bad:
        raise DoublePointError([b.kind for b in bad])


# ---------------------------------------------------------------------------
# encomplexed writhe and shade numbers
# ---------------------------------------------------------------------------


def _sum_parts(data: ProjectionData):
    wr = sum(c.writhe for c in data.crossings if c.kind == "real-real" and c.same_component)
    sh = sum(c.writhe for c in data.crossings if c.kind == "solitary")
    return QQ(wr), QQ(sh)


def _check_p3_writhe(comps, data: ProjectionData):
    """The paper's identities for a P3 curve, with N_d = (d-1)(d-2)/2.
    Per component, Cw_i = N_d (mod 2): its N_d chords through the center
    are crossings (+-1 each) and conjugate pairs of non-contributing
    chords.  And |Cw| <= sum N_{d_i}, the genus-0 bound (Mikhalkin and
    Orevkov, "Maximally writhed real algebraic links", Invent. Math. 216
    (2019))."""
    genus_bounds = [(c.degree - 1) * (c.degree - 2) // 2 for c in comps]
    cw = [0] * len(comps)
    for c in data.crossings:
        if c.same_component:
            cw[c.comp_i] += c.writhe
    for i, (w, n) in enumerate(zip(cw, genus_bounds)):
        if (w - n) % 2:
            raise InstabilityError(f"component {i}: Cw = {w} is not congruent to "
                                   f"N_d = {n} mod 2")
    if abs(sum(cw)) > sum(genus_bounds):
        raise InstabilityError(f"|Cw| = {abs(sum(cw))} exceeds the genus bound "
                               f"{sum(genus_bounds)}")


def _cross_checked(curve, name, value, seed, centers, forced_center, tol, smoothness=False):
    """The projections from `centers` accepted centers, the k-th drawn at
    seed + 1000003 k and the first at `forced_center` when one is given
    (`smoothness` goes to the first only).  value(data) is read off each,
    in order, and InstabilityError is raised unless all agree."""
    runs = [select_center(curve, seed=seed + 1000003 * k,
                          forced_center=forced_center if k == 0 else None, tol=tol,
                          smoothness=smoothness and k == 0)
            for k in range(max(1, centers))]
    values = [value(data) for data in runs]
    if len(set(values)) > 1:
        shown = ", ".join(_frac_str(v) for v in sorted(set(values)))
        raise InstabilityError(f"centers disagree on {name}: [{shown}]",
                               reports=[d.center.describe() for d in runs])
    return runs


def _report(curve, runs, mode, Cw, wr, sh, seed, tol) -> InvariantReport:
    """The report of the first of the cross-checked projections."""
    return InvariantReport(
        Cw=Cw, wr_part=wr, sh_part=sh, projection=runs[0], seed=seed,
        centers_checked=len(runs), ambient=describe_ambient(curve.ambient), mode=mode,
        root_residual=tol,
    )


def encomplexed_writhe(curve: CurveModel, seed=0, centers=1, forced_center=None,
                       tol=DEFAULT_TARGET_RADIUS) -> InvariantReport:
    """Cw of a smooth real curve as the signed crossing count of a
    certified generic projection, cross-checked over `centers` accepted
    centers (the total must agree; the wr/sh split is center-dependent
    whenever a crossing changes kind between centers)."""
    curve.require_valid()
    if not curve.is_real():
        raise PreconditionError("encomplexed writhe needs real coefficients; "
                                "use the shade number for curves without real points")
    _require_immersed(curve)
    # the first center's chord solutions give the double points when every
    # P3-image record lost at most the diagonal (project_curve sets a
    # sphere curve's antipodal pairs apart).  A deck-symmetric sphere curve
    # (hopf_pair, unknot, split_circles) loses the deck graph too, which
    # hides its x0 = 0 double points, so it solves its 5-coordinate system
    n = len(curve.components)
    first_center = all(secants(curve, i, j, p3=True).diagonal_only
                       for i in range(n) for j in range(i, n))
    if not first_center:
        _require_smooth(curve, seed)

    def total(data):
        wr, sh = _sum_parts(data)
        if (wr + sh).denominator != 1:
            raise InstabilityError("encomplexed writhe came out non-integral")
        if curve.quadric() is None:
            _check_p3_writhe(curve.components, data)
        return wr + sh

    runs = _cross_checked(curve, "Cw", total, seed, centers, forced_center, tol, first_center)
    wr, sh = _sum_parts(runs[0])
    return _report(curve, runs, "diagram", int(wr + sh), wr, sh, seed, tol)


def _half_shade(data: ProjectionData):
    return _sum_parts(data)[1] / 2


def shade_number_empty_real(curve: CurveModel, seed=0, centers=1, forced_center=None,
                            tol=DEFAULT_TARGET_RADIUS) -> InvariantReport:
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
    runs = _cross_checked(curve, "sh", _half_shade, seed, centers, forced_center, tol)
    sh = _half_shade(runs[0])
    d_total = sum(c.degree for c in curve.components)
    if abs(sh) > QQ(d_total * d_total, 2):
        raise InstabilityError(f"|sh| = {sh} exceeds d^2/2")
    if (sh - QQ(d_total, 2)).denominator > 1:
        raise InstabilityError(f"sh = {sh} is not congruent to d/2 mod 1")
    return _report(curve, runs, "shade", None, QQ(0), sh, seed, tol)


# ---------------------------------------------------------------------------
# the explicit range family W_t
# ---------------------------------------------------------------------------


def _range_polys(d: int, t, K):
    """(A, B) with A = P(u,1) - 1 and B = Q_t(u,1) - 1 as exact degree-d
    binary forms in (s, u)."""
    if d < 1:
        raise PreconditionError("range family needs degree >= 1")
    K = QQ(K)
    t = QQ(t)
    if K <= 0:
        raise PreconditionError("K must be positive")
    A = BinaryForm(0, [K])
    for j in range(1, d + 1):
        A = A * BinaryForm(1, [-j, 1])
    B = BinaryForm(0, [K])
    for j in range(1, d + 1):
        B = B * BinaryForm(1, [-(t + QQ(j, d * d + 1)), 1])
    one = BinaryForm(d, [1] + [0] * d)  # s^d
    return A - one, B - one


def range_family_is_singular(d, t, K) -> bool:
    """True iff some theta_j + phi_k(t) = 0 (the member W_t has a real
    point); exact via a gcd test on A(u), B(-u)."""
    A, B = _range_polys(d, t, K)
    mirror = BinaryForm._from_ints(d, B.den, [(-a, -b) if k % 2 else (a, b)
                                              for k, (a, b) in enumerate(B.num)])
    return form_gcd([A, mirror]).degree >= 1


def _certified_real_roots(f: BinaryForm, expect: int, what: str):
    ivs = real_roots_sturm(f, width=QQ(1, 2**90))
    if len(ivs) != expect:
        raise PreconditionError(
            f"{what}: found {len(ivs)} real roots, need {expect} (increase K)"
        )
    return ivs


@dataclass(frozen=True)
class _RangeIsolation:
    """The range family at fixed (d, K), isolated once.  B_t(u) = B_0(u - t),
    so phi_k(t) = phi_k(0) + t and every member is read off the roots of
    A and B_0."""

    d: int
    K: Fraction
    theta: list  # float midpoint of theta_j per root of A, ascending
    phi0: list  # exact midpoint of phi_k(0) per root of B_0, ascending
    walls: list  # closed interval holding -theta_j - phi_k(0), in (j, k) order


def _range_isolation(d, K, b_name) -> _RangeIsolation:
    """The isolation at K; K = None takes the first of 10^(2+d),
    10^(3+d), ... at which both polynomials certify d real roots.  Every
    K > (2(d^2+1))^d does: |P(u,1)| and |Q_0(u,1)| are at least
    K (2(d^2+1))^-d > 1 halfway between consecutive roots of the products
    and half a root gap beyond the outer ones, so A and B_0 change sign d
    times."""
    if K is not None:
        return _isolate_range(d, K, b_name)
    K = QQ(10) ** (2 + d)
    while True:
        try:
            return _isolate_range(d, K, b_name)
        except PreconditionError:
            if K > (2 * (d * d + 1)) ** d:
                raise
            K *= 10


def _isolate_range(d, K, b_name) -> _RangeIsolation:
    A, B0 = _range_polys(d, 0, K)
    th_iv = _certified_real_roots(A, d, "P(u,1) = 1")
    ph_iv = _certified_real_roots(B0, d, f"{b_name}(u,1) = 1")
    theta = [float((a0 + a1) / 2) for a0, a1 in th_iv]
    phi0 = [(b0 + b1) / 2 for b0, b1 in ph_iv]
    walls = [(-a1 - b1, -a0 - b0) for a0, a1 in th_iv for b0, b1 in ph_iv]
    return _RangeIsolation(d, QQ(K), theta, phi0, walls)


def _range_shade_at(iso: _RangeIsolation, t):
    # walls[j d + k] is pair (j, k)'s.  A and B_0 have d simple real roots and
    # leading coefficient K > 0, so sign P'(theta_j) Q'(phi_k) = (-1)^(j + k);
    # theta_j + phi_k(0) + t is positive above the pair's wall, negative below
    t = QQ(t)
    signs = []
    for n, (lo, hi) in enumerate(iso.walls):
        if lo <= t <= hi:
            raise PreconditionError("shade point degenerated onto the real locus")
        side = 1 if t > hi else -1
        signs.append(-SOLITARY_SIGN * (-1) ** sum(divmod(n, iso.d)) * side)
    return {
        "d": iso.d,
        "t": t,
        "K": iso.K,
        "sh": QQ(sum(signs), 2),
        "signs": signs,
        "theta": list(iso.theta),
        "phi": [float(m + t) for m in iso.phi0],
    }


def _in_wall(walls, t) -> bool:
    return any(lo <= t <= hi for lo, hi in walls)


def range_family_shade(d: int, t, K=None):
    """Shade number of the degree-d range-family member W_t through the
    shade centered at [0,0,0,1]: the d x d grid of shade points
    x = [1, theta_j, phi_k, -i(theta_j + phi_k)] with tangents
    dx = [0, -i Q', P', -Q' - i P'], each signed exactly by the solitary
    recipe det[Re x, Im x, Re dx, Im dx] = -P'(theta_j) Q'(phi_k) (theta_j + phi_k).

    Returns a dict with the value and the per-point ledger; raises
    PreconditionError when t is a singular sample (a real point exists).
    """
    iso = _range_isolation(d, K, "Q_t")
    if range_family_is_singular(d, t, iso.K):
        raise PreconditionError(f"t = {t} is singular: the member acquires a real point")
    return _range_shade_at(iso, t)


def range_collision_times(d, K):
    """Certified intervals for the d^2 parameter values t where W_t
    acquires a real point: phi_k(t) = phi_k(0) + t, so the collisions sit
    at t = -theta_j - phi_k(0).  Sorted closed intervals
    [-a1 - b1, -a0 - b0] from the isolating intervals of theta_j and
    phi_k(0): the one isolation that range sweeps shift by t."""
    return sorted(_range_isolation(d, K, "Q_0").walls)


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
    data = select_center(sub, seed=seed)
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
    iso = None
    if family == "kae":
        if eps not in (1, -1):
            raise PreconditionError("kae sweep needs eps = +1 or -1")
        params = {"eps": eps}

        def sample(idx_a):
            idx, a = idx_a
            from .curves import kae_curve

            try:
                rep = encomplexed_writhe(kae_curve(a, eps), seed=seed + idx)
            except DoublePointError:
                return (None, True, "singular member (double point)")
            return (QQ(rep.Cw), False, None)

    elif family == "range":
        if not d or d < 1:
            raise PreconditionError("range sweep needs d >= 1")
        try:
            iso = _range_isolation(d, K, "Q_t")
            K = iso.K
        except PreconditionError as e:
            failure = e
        params = {"d": d, "K": _frac_str(QQ(K))}

        def sample(idx_a):
            idx, t = idx_a
            if (iso is None or _in_wall(iso.walls, t)) and range_family_is_singular(d, t, K):
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
        if prev is not None and iso is not None:
            _check_wall_ledger(iso.walls, prev[0], g, v - prev[1])
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
