"""Assembly of the invariants: encomplexed writhe, shade numbers of
real-point-free curves, the explicit range family, linking numbers and
parameter-family sweeps.

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

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
    "Grid",
    "SweepReport",
    "self_double_points",
    "find_real_points",
    "encomplexed_writhe",
    "shade_number_empty_real",
    "range_family_shade",
    "linking_number",
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
            "wr_part": str(self.wr_part),
            "sh_part": str(self.sh_part),
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


class Grid:
    """The samples of a sweep as integers over one positive denominator:
    sample k is nums[k] / den, not necessarily in lowest terms.  Indexing
    and iteration give Fractions, and a Grid equals the list of its
    samples, so it reads as that list; a sweep itself works on `nums` and
    `den` and builds a Fraction only where one leaves it (a jump, an
    error text, a kae member)."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den):
        self.nums, self.den = nums, den

    @classmethod
    def of(cls, samples):
        """The grid of any sequence of rationals; a Grid is its own."""
        if isinstance(samples, Grid):
            return samples
        qs = [g if isinstance(g, Fraction) else QQ(g) for g in samples]
        den = math.lcm(*(q.denominator for q in qs))
        return cls([q.numerator * (den // q.denominator) for q in qs], den)

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, k):
        return QQ(self.nums[k], self.den)

    def __iter__(self):
        return (QQ(n, self.den) for n in self.nums)

    def __eq__(self, other):
        if isinstance(other, (Grid, list)):
            return list(self) == list(other)
        return NotImplemented

    def strings(self):
        """str() of each sample's Fraction, written from the integers."""
        den, out = self.den, []
        for n in self.nums:
            g = math.gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return out


@dataclass
class SweepReport:
    """A sweep's samples and its per-sample answers.  `grid` carries the
    samples as integers over one denominator (Grid); only the jumps hold
    Fractions of them."""

    family: str
    parameters: dict
    grid: Grid
    values: list  # Fraction | None per sample
    singular: list  # bool per sample
    errors: list  # str | None per sample
    jumps: list  # (grid[j], grid[i], delta) between neighbouring regular samples j < i

    def describe(self):
        return {
            "family": self.family,
            "parameters": self.parameters,
            "grid": self.grid.strings(),
            "values": [None if v is None else str(v) for v in self.values],
            "singular": self.singular,
            "errors": self.errors,
            "jumps": [
                {"from": str(a), "to": str(b), "delta": str(d)}
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
            images = comps[i].values([s.z.pair() for s in sols]).tolist()
            for s, img in zip(sols, images):
                out.append(SelfIntersection(s.double_point_kind, (s.z, s.w), img, (i, j)))
    return out


def find_real_points(curve: CurveModel, component: int, seed=0):
    """Parameters where a non-real-coefficient component meets RP3 (or
    the real quadric); the empty answer certifies an empty real locus.

    A component that is its own conjugate up to a reparameterization psi
    (a real curve written in a non-real parameter: conj(x) = x o psi) is
    rejected: its record against its conjugate loses the graph of psi to
    saturation, and with it the solutions w = conj(z) on that graph, which
    are its real points.  So any factor saturation removed from that
    record is a PreconditionError."""
    comp = curve.components[component]
    if comp.is_real():
        raise PreconditionError(
            f"component {comp.label or component} has real coefficients; "
            "use the real locus instead"
        )
    record = secants(curve, component, "conj", p3=False)
    if record.removed != (0, 0):
        raise PreconditionError(
            f"component {comp.label or component} is its own conjugate up to a "
            "reparameterization (saturation removed a factor of bidegree "
            f"{record.removed} from its record against its conjugate), so its real "
            "locus cannot be certified empty"
        )
    sols = solve_minor_system(record, seed=seed, w_mode="conj", context=f"realpts[{component}]")
    return [s.z for s in sols if s.conjugate]


def _require_immersed(curve: CurveModel):
    """Exit 3 on a cusp: at a cusp no chord solve succeeds, so it must come
    first.  Each component's P3-image record is built first (`secants`,
    shared with every center); where its diagonals proved the image
    immersed, so is the component, since the image is a linear projection
    of it.  Only a record without that proof (a cusp, or a deck-symmetric
    sphere record) runs the exact test, CurveComponent.is_immersion."""
    for i, comp in enumerate(curve.components):
        if not secants(curve, i, i, p3=True).immersed and not comp.is_immersion():
            raise PreconditionError(
                f"curve has a cusp on component {comp.label or i} (its parameterization "
                "is stationary there); invariants need a smooth embedding"
            )


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


def _cross_checked(curve, name, value, seed, centers, forced_center, tol):
    """The projections from `centers` accepted centers, the k-th drawn at
    seed + 1000003 k and the first at `forced_center` when one is given
    (the first of a real curve checks smoothness).  value(data) is read
    off each, in order, and InstabilityError is raised unless all agree."""
    runs = [select_center(curve, seed=seed + 1000003 * k,
                          forced_center=forced_center if k == 0 else None, tol=tol,
                          smoothness=curve.is_real() and k == 0)
            for k in range(max(1, centers))]
    values = [value(data) for data in runs]
    if len(set(values)) > 1:
        shown = ", ".join(map(str, sorted(set(values))))
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

    def total(data):
        wr, sh = _sum_parts(data)
        if (wr + sh).denominator != 1:
            raise InstabilityError("encomplexed writhe came out non-integral")
        if curve.quadric() is None:
            _check_p3_writhe(curve.components, data)
        return wr + sh

    runs = _cross_checked(curve, "Cw", total, seed, centers, forced_center, tol)
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
    binary forms in (s, u), from integer tables: with the roots r_j = p_j / q
    over one denominator and K = k / m, K prod (u - r_j s) - s^d is
    (k prod (q u - p_j s) - m q^d s^d) / (m q^d)."""
    if d < 1:
        raise PreconditionError("range family needs degree >= 1")
    K = QQ(K)
    t = QQ(t)
    if K <= 0:
        raise PreconditionError("K must be positive")

    def form(q, ps):
        table = [K.numerator]  # table[k] multiplies s^(d-k) u^k
        for p in ps:
            table = [q * b - p * a for a, b in zip(table + [0], [0] + table)]
        table[0] -= K.denominator * q**d
        return BinaryForm._from_ints(d, K.denominator * q**d, [(c, 0) for c in table])

    q = t.denominator * (d * d + 1)  # t + j/(d^2+1) = (t.numerator (d^2+1) + j t.denominator) / q
    return (form(1, range(1, d + 1)),
            form(q, [t.numerator * (d * d + 1) + j * t.denominator for j in range(1, d + 1)]))


def range_family_is_singular(d, t, K) -> bool:
    """True iff some theta_j + phi_k(t) = 0 (the member W_t has a real
    point); exact via a gcd test on A(u), B(-u)."""
    A, B = _range_polys(d, t, K)
    mirror = BinaryForm._from_ints(d, B.den, [(-a, -b) if k % 2 else (a, b)
                                              for k, (a, b) in enumerate(B.num)])
    return form_gcd([A, mirror]).degree >= 1


_WIDTH = QQ(1, 2**90)  # the isolating width of theta_j and phi_k(0)


def _certified_real_roots(f: BinaryForm, expect: int, what: str, width=_WIDTH):
    ivs = real_roots_sturm(f, width=width)
    if len(ivs) != expect:
        raise PreconditionError(
            f"{what}: found {len(ivs)} real roots, need {expect} (increase K)"
        )
    return ivs


@dataclass(frozen=True)
class _RangeIsolation:
    """The range family at fixed (d, K), isolated once.  B_t(u) = B_0(u - t),
    so phi_k(t) = phi_k(0) + t and every member is read off the roots of
    A and B_0.  Their isolating interval ends are dyadic, so all of them
    are integers over one power-of-two `scale`, and so are the wall ends;
    those are sorted once, so a sample is placed among them by integer
    bisection.  `walls` and `phi0` give Fractions only to the callers that
    return them."""

    d: int
    K: Fraction
    theta: list  # float midpoint of theta_j per root of A, ascending
    th: list  # (lower, upper) end times scale of theta_j's interval, ascending
    ph: list  # (lower, upper) end times scale of phi_k(0)'s interval, ascending
    scale: int  # a power of two: the lcm of the interval ends' denominators
    los: list  # lower wall ends times scale, ascending
    his: list  # upper wall ends times scale, ascending
    rank: list  # rank[n]: the place of wall n's upper end in his
    pair_sign: list  # -SOLITARY_SIGN sign P'(theta_j) Q'(phi_k) of wall n = j d + k
    sh: list = field(init=False)  # sh[p], p = 0..d^2, made from rank and pair_sign

    def __post_init__(self):
        # theta_j + phi_k(0) + t is positive above pair (j, k)'s wall, where its
        # upper end is among the p lowest, and negative below it
        object.__setattr__(self, "sh", [
            QQ(sum(s if place < p else -s for s, place in zip(self.pair_sign, self.rank)), 2)
            for p in range(len(self.rank) + 1)])

    @property
    def walls(self):
        """The closed interval [-a1 - b1, -a0 - b0] holding
        -theta_j - phi_k(0), as Fractions, in (j, k) order."""
        return [(QQ(-a1 - b1, self.scale), QQ(-a0 - b0, self.scale))
                for a0, a1 in self.th for b0, b1 in self.ph]

    @property
    def phi0(self):
        """The exact midpoint of phi_k(0)'s interval, per root of B_0."""
        return [QQ(b0 + b1, 2 * self.scale) for b0, b1 in self.ph]


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


def _isolate_range(d, K, b_name, width=_WIDTH) -> _RangeIsolation:
    """A and B_0 isolated by real_roots_sturm at `width`, their interval
    ends taken to integers over one scale (a power of two at a dyadic
    width, as every width here is), and the wall ends n = j d + k formed
    from those integers: lower -a1 - b1, upper -a0 - b0."""
    A, B0 = _range_polys(d, 0, K)
    ivs = (_certified_real_roots(A, d, "P(u,1) = 1", width)
           + _certified_real_roots(B0, d, f"{b_name}(u,1) = 1", width))
    scale = math.lcm(*(end.denominator for iv in ivs for end in iv))
    ints = [tuple(end.numerator * (scale // end.denominator) for end in iv) for iv in ivs]
    th, ph = ints[:d], ints[d:]
    # int / int rounds correctly, so each is float() of the Fraction midpoint
    theta = [(a0 + a1) / (2 * scale) for a0, a1 in th]
    los = sorted(-a1 - b1 for _, a1 in th for _, b1 in ph)
    his = [-a0 - b0 for a0, _ in th for b0, _ in ph]
    order = sorted(range(len(his)), key=his.__getitem__)
    rank = sorted(range(len(his)), key=order.__getitem__)  # the inverse of order
    # A and B_0 have d simple real roots and leading coefficient K > 0, so
    # sign P'(theta_j) Q'(phi_k) = (-1)^(j + k)
    pair_sign = [-SOLITARY_SIGN * (-1) ** (j + k) for j in range(d) for k in range(d)]
    return _RangeIsolation(d, QQ(K), theta, th, ph, scale, los,
                           [his[n] for n in order], rank, pair_sign)


def _place(iso: _RangeIsolation, num: int, den: int):
    """(walls with lo <= t, walls with hi < t) for t = num / den.  With
    t scale = T + r / den, integer T and 0 <= r < den, an end e times scale
    is an integer E, so e <= t iff E <= T, and e < t iff E < T, or E <= T
    when r > 0.  t lies in a wall iff the first count exceeds the second."""
    T, r = divmod(num * iso.scale, den)
    return bisect_right(iso.los, T), (bisect_right if r else bisect_left)(iso.his, T)


def _range_shade_at(iso: _RangeIsolation, t: Fraction):
    reached, passed = _place(iso, t.numerator, t.denominator)
    if reached > passed:
        raise PreconditionError("shade point degenerated onto the real locus")
    signs = [s if place < passed else -s for s, place in zip(iso.pair_sign, iso.rank)]
    return {"d": iso.d, "t": t, "K": iso.K, "sh": iso.sh[passed], "signs": signs}


def _clear_isolation(iso: _RangeIsolation, t: Fraction):
    """An isolation with t in none of its walls, or None when W_t has a
    real point.  Outside every wall it has none.  Inside one the exact gcd
    test decides, and a regular t leaves every wall as A and B_0 are
    isolated again, each round narrower by twice as many bits as the last:
    the walls close in on the collision times -theta_j - phi_k(0), and t
    is none of them."""
    reached, passed = _place(iso, t.numerator, t.denominator)
    if reached == passed:
        return iso
    if range_family_is_singular(iso.d, t, iso.K):
        return None
    bits = 30
    while reached > passed:
        iso = _isolate_range(iso.d, iso.K, "Q_t", _WIDTH / 2**bits)
        reached, passed = _place(iso, t.numerator, t.denominator)
        bits *= 2
    return iso


def range_family_shade(d: int, t, K=None):
    """Shade number of the degree-d range-family member W_t through the
    shade centered at [0,0,0,1]: the d x d grid of shade points
    x = [1, theta_j, phi_k, -i(theta_j + phi_k)] with tangents
    dx = [0, -i Q', P', -Q' - i P'], each signed exactly by the solitary
    recipe det[Re x, Im x, Re dx, Im dx] = -P'(theta_j) Q'(phi_k) (theta_j + phi_k).

    Returns a dict with the value, the per-point ledger and the float
    roots; raises PreconditionError when t is a singular sample (a real
    point exists).
    """
    q = QQ(t)
    iso = _clear_isolation(_range_isolation(d, K, "Q_t"), q)
    if iso is None:
        raise PreconditionError(f"t = {t} is singular: the member acquires a real point")
    res = _range_shade_at(iso, q)
    res["theta"] = list(iso.theta)
    res["phi"] = [float(m + q) for m in iso.phi0]
    return res


def range_collision_times(d, K):
    """Certified intervals for the d^2 parameter values t where W_t
    acquires a real point: phi_k(t) = phi_k(0) + t, so the collisions sit
    at t = -theta_j - phi_k(0).  Sorted closed intervals
    [-a1 - b1, -a0 - b0] from the isolating intervals of theta_j and
    phi_k(0): the one isolation that range sweeps shift by t."""
    return sorted(_range_isolation(d, K, "Q_0").walls)


def _check_wall_ledger(grid, j, i, n, delta):
    """Each wall moves sh by +-1 (shade numbers of real-point-free members
    are Vassiliev invariants of degree 1), so from sample j to sample i
    across n walls, delta is an integer, |delta| <= n, delta = n (mod 2).
    The samples' Fractions are built only for the error text."""
    if delta.denominator != 1 or abs(delta.numerator) > n or (delta.numerator - n) % 2:
        a, b = sorted((grid[j], grid[i]))
        raise InstabilityError(
            f"sh moved by {delta} between t = {a} and t = {b} across {n} certified wall(s)"
        )


def _range_samples(iso: _RangeIsolation, grid: Grid):
    """(value, singular, error) per sample, and the lower wall ends below
    it (None inside a wall).  Each sample is placed once, straight from
    its integer over the grid's denominator.  Outside every wall W_t has
    no real point and sh is iso.sh[upper ends below t], the table's own
    object; inside one the exact gcd test and a narrower isolation decide
    (_clear_isolation), on the sample's Fraction."""
    den, sh = grid.den, iso.sh
    placed = [_place(iso, n, den) for n in grid.nums]
    results = [(sh[p], False, None) if r == p else _guarded(_wall_sample)(iso, grid[k])
               for k, (r, p) in enumerate(placed)]
    return results, [r if r == p else None for r, p in placed]


def _wall_sample(iso, t):
    clear = _clear_isolation(iso, t)
    if clear is None:
        return (None, True, "singular member (real point)")
    return (_range_shade_at(clear, t)["sh"], False, None)


def _unisolated_sample(d, t, K, failure):
    if range_family_is_singular(d, t, K):
        return (None, True, "singular member (real point)")
    raise failure


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


# ---------------------------------------------------------------------------
# family sweeps
# ---------------------------------------------------------------------------


def family_sweep(family: str, grid, seed=0, eps=None, d=None, K=None) -> SweepReport:
    """Per-sample invariant over a parameter grid: Cw for the knot family,
    sh for the range family; singular samples flagged, never interpolated.

    Any sequence of rationals is taken to a Grid once: the samples are
    integers over one denominator from there on, and a sample's Fraction
    is built only for a kae member, a sample inside a wall or an
    unisolated family, a jump and an error text.

    A range sweep isolates A and B_0 once per (d, K) (_range_samples).
    Between neighbours outside every wall, the walls crossed (counted from
    the lower ends, while the shade reads the upper ones) must account for
    the change of sh, else InstabilityError; neighbours that share an
    sh-table entry (by identity) and cross no wall need no check.  A
    failed isolation (K too small) is every regular sample's error."""
    grid = Grid.of(grid)
    reached = None  # per range sample: lower wall ends below it, None in a wall
    if family == "kae":
        if eps not in (1, -1):
            raise PreconditionError("kae sweep needs eps = +1 or -1")
        params = {"eps": eps}

        def sample(idx):
            from .curves import kae_curve

            try:
                rep = encomplexed_writhe(kae_curve(grid[idx], eps), seed=seed + idx)
            except DoublePointError:
                return (None, True, "singular member (double point)")
            return (QQ(rep.Cw), False, None)

        results = list(map(_guarded(sample), range(len(grid))))
    elif family == "range":
        if not d or d < 1:
            raise PreconditionError("range sweep needs d >= 1")
        try:
            iso = _range_isolation(d, K, "Q_t")
        except PreconditionError as failure:
            results = [_guarded(_unisolated_sample)(d, t, K, failure) for t in grid]
        else:
            results, reached = _range_samples(iso, grid)
            K = iso.K
        params = {"d": d, "K": str(QQ(K))}
    else:
        raise PreconditionError(f"unknown family {family!r}")

    values, singular, errors = ([r[k] for r in results] for k in range(3))
    jumps, j = [], None  # j: the last regular sample
    for i, v in enumerate(values):
        if v is None:
            continue
        if j is not None:
            moved = v is not values[j] and v != values[j]
            delta = v - values[j] if moved else 0
            if reached and reached[i] is not None and reached[j] is not None and (
                    moved or reached[i] != reached[j]):
                _check_wall_ledger(grid, j, i, abs(reached[i] - reached[j]), delta)
            if moved:
                jumps.append((grid[j], grid[i], delta))
        j = i
    return SweepReport(family, params, grid, values, singular, errors, jumps)


def _guarded(fn):
    def run(*args):
        try:
            return fn(*args)
        except (GenericityError, PreconditionError, InstabilityError) as e:
            return (None, False, f"{type(e).__name__}: {e}")

    return run
