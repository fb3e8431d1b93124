"""Bivariate rank systems behind chords, self-intersections and real
points: build the minor systems, saturate divisorial junk, eliminate by
resultants, extract certified parameter pairs, and polish them against
the full system.

All systems share one shape.  Two parameterizations x(z), y(w) (binary
form tuples) and a list of minor polynomials M_k(z, w) cut out the locus
we want plus divisorial junk (the diagonal for same-component systems,
deck-transform components for antipodally symmetric sphere curves).  The
pipeline is:

1. saturate, once per curve, component pair and coordinate set
   (`secants`): the Plücker forms P_ab = x_a(z) y_b(w) - x_b(z) y_a(w)
   of a component against itself are divided by the diagonal as they are
   built (their Bezoutians), and any other pair keeps its raw forms.
   One `bivar_gcd` of the forms follows; on most records its first
   specialization proves them coprime, and a nonconstant gcd (the deck
   graph of an antipodally symmetric sphere curve) is divided out.  A
   center's collinearity minors are linear combinations of the saturated
   forms, so no center runs a gcd, and a factor that only the center
   brings stays and ends in GenericityError;
2. eliminate: take two random small-integer combinations u, v of the
   saturated minors and compute the homogeneous resultants R_z (and R_w
   where the system has no usable symmetry).  For a projection, most of
   R_z is a known excess factor.  The minors are the 3x3 minors of
   [c | x(z) | y(w)] divided by the factor G saturation removed, so by
   Laplace expansion u = det[a | c | x | y] / G and
   v = det[b | c | x | y] / G, with a = (alpha3, -alpha2, alpha1, -alpha0)
   for u's coefficients alpha over the minors (and b likewise).  Where
   E(z) = det[a | b | c | x(z)] vanishes, some combination of a and b
   lies in the span of c and x(z0), so u(z0, .) and v(z0, .) are
   proportional and (z - z0) divides v - lambda u; hence
   R_z = Res_w(u, v) = E^n C with n = deg_w u, a polynomial identity in
   the coefficients that holds for every a, b.  C has degree
   n (2m - d): 2 N_d on a same-component record, d1 d2 across components
   and d^2 against the conjugate.  In solve mode R_w = E_y(w)^m C' the
   same way.  `bivar_resultant_w` divides each node's determinant
   exactly by E^n, E's node value (E primitive over Z[i]) raised to the
   n-th power, and interpolates C alone, so the sphere trefoil eliminates
   20 roots, not 50.  A chord end z0 that a draw of a, b puts at a root
   of E stays a root of C: there v - lambda u = (z - z0) v'' with
   v''(z0, .) a multiple of det[x(z0) | c | x'(z0) | y(.)], which
   vanishes at the chord's other end.  Only records that lost at most
   the diagonal are divided; a record that lost the deck graph too can
   have n (2m - d) < 0;
3. extract: certified roots of C (and C') give parameter points (all
   honest solutions appear since V(system) lies in V(u, v)).  In swap
   and conj mode, on a divided record, each root of C must be the z of
   exactly one solution: a root shared by two is a point on two chords
   through the center;
4. filter + polish + accept: u, v and the saturated minors are converted
   to floats once per combination, stacked into one table T of complex
   coefficient tables, and all four checks read T.  One matrix product,
   Z T[:2] W^T with Z, W the power matrices of the z and w roots,
   evaluates u and v on every root pair at once; pairs where both are
   below FILTER_TOL relative to their scale are candidates.  All are
   polished together by 2x2 Newton against (u, v), one stacked
   evaluation of T[:2] per step, each candidate stopping on its own.  A
   candidate is accepted only when every saturated minor is at relative
   residual below ACCEPT_TOL (junk from V(u, v) fails by many orders of
   magnitude) and the polished point stayed near its root disks; one
   evaluation of the minors at all candidates gives the residuals and
   the Jacobians, and one stacked SVD gives the Jacobian margins;
5. count check: when saturation removed nothing beyond the z = w
   diagonal, the number of solutions must match the Bezout-style count
   supplied by the caller, else the configuration is declared
   non-generic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .curves import ParamPoint, _power_matrix, p3_forms
from .errors import GenericityError
from .poly import (FORM_ONE, GZERO, BinaryForm, BivarPoly, bivar_divexact, bivar_gcd,
                   bivar_resultant_w, complex_coeffs, gdivexact, glist_gcd, gmul)
from .roots import (DEFAULT_TARGET_RADIUS, CertifiedRoot, UncertifiedRootsError, _meeting_pairs,
                    complex_roots)

__all__ = ["PairSolution", "SaturatedSystem", "solve_minor_system", "canonical_unordered",
           "collinearity_system", "coincidence_system", "secants", "double_points"]

ACCEPT_TOL = 1e-8
FILTER_TOL = 1e-5  # candidate filter: |u|, |v| relative to their scale bounds
JAC_MARGIN = 1e-6
COMBO_RETRIES = 6
POLISH_STEPS = 30  # Newton steps of the pair polish at most
DIAGONAL = BivarPoly(1, 1, [[0, 1], [-1, 0]])  # s v - t u, the z = w locus


@dataclass
class PairSolution:
    """A chord solution.  Its identity is the pair of certified root
    indices (zi, wi) it was polished from; `conjugate` says, from the same
    certificate, that w is the complex conjugate of z."""

    z: ParamPoint
    w: ParamPoint
    jac_margin: float  # scaled 2x2 Jacobian determinant at the solution
    conjugate: bool = False

    @property
    def zi(self) -> int:
        return self.z.root

    @property
    def wi(self) -> int:
        return self.w.root

    @property
    def double_point_kind(self) -> str:
        """The kind of the solution read as a double point: real-real,
        complex-conjugate or complex."""
        if self.z.real and self.w.real:
            return "real-real"
        return "complex-conjugate" if self.conjugate else "complex"


@dataclass(frozen=True)
class SaturatedSystem:
    minors: tuple  # in input order; a zero minor stays in place
    removed: tuple  # total bidegree removed by saturation
    diagonal_only: bool  # saturation removed exactly the diagonal (or nothing)
    forms: tuple  # (x, y): the coordinate forms of the record


def collinearity_system(center_coords, plucker):
    """The four 3x3 minors of [c | x(z) | y(w)] as BivarPoly values,
    expanded along the center column:
    det[c|x|y]_(a,b,d) = c_a P_bd - c_b P_ad + c_d P_ab with P the six
    Plücker forms of [x | y] over four coordinates (the coincidence
    system).  Raw forms give the determinants themselves; saturated forms
    give them divided by the forms' common factor.

    center_coords: four exact scalars.
    """
    c = center_coords
    P = dict(zip(combinations(range(4), 2), plucker, strict=True))
    return [
        BivarPoly.combination([(c[a], P[b, d]), (-c[b], P[a, d]), (c[d], P[a, b])])
        for a, b, d in combinations(range(4), 3)
    ]


def coincidence_system(xforms, yforms):
    """All 2x2 minors of [x(z) | y(w)]: vanish together iff the two image
    points coincide projectively."""
    if len(yforms) != len(xforms):
        raise ValueError("coordinate counts differ")
    product = BivarPoly.from_form_product
    return [product(xforms[a], yforms[b]) - product(xforms[b], yforms[a])
            for a, b in combinations(range(len(xforms)), 2)]


def _is_scalar_multiple(p: BivarPoly, q: BivarPoly) -> bool:
    """p = lambda q for a nonzero lambda, by cross-multiplying the integer
    tables against the first nonzero pair."""
    if (p.m, p.n) != (q.m, q.n):
        return False
    pairs = [(a, b) for rp, rq in zip(p.num, q.num) for a, b in zip(rp, rq)
             if a != GZERO or b != GZERO]
    if not pairs or GZERO in pairs[0]:
        return False
    a0, b0 = pairs[0]
    return all(gmul(a, b0) == gmul(b, a0) for a, b in pairs)


def _saturate(x, y, same) -> SaturatedSystem:
    """The record of coordinate forms x(z) and y(w), same when both are
    one component's.  Each Plücker form x_a(z) x_b(w) - x_b(z) x_a(w) of a
    component against itself is antisymmetric, so the diagonal
    D = s v - t u divides it and the record starts from its quotient, the
    Bezoutian; any other record starts from the raw forms.  One bivar_gcd
    of all of them follows, and only a nonconstant gcd (the deck graph of
    an antipodally symmetric sphere curve) is divided out."""
    if same:
        forms = [BivarPoly.bezoutian(x[a], x[b]) for a, b in combinations(range(len(x)), 2)]
    else:
        forms = coincidence_system(x, y)
    g = bivar_gcd(*forms)
    if g.m or g.n:
        forms = [bivar_divexact(f, g) for f in forms]
    diagonal_only = g.m == g.n == 0 or not same and _is_scalar_multiple(g, DIAGONAL)
    removed = (g.m + 1, g.n + 1) if same else (g.m, g.n)
    return SaturatedSystem(tuple(forms), removed, diagonal_only, (x, y))


def secants(curve, i, j, *, p3):
    """The saturated Plücker forms of components i and j of the curve
    (j = "conj": component i against its own conjugate), over all
    coordinates or, with p3, over the P3 image coordinates, built once
    per curve by `_saturate`.  The P3-image records serve every projection
    center and, when each lost at most the diagonal, the smoothness check
    through the first center's chord solutions.  The records over all
    five coordinates of a sphere curve serve the real-point search and
    the separate smoothness solve of a deck-symmetric curve, whose
    P3-image records lost the deck graph too."""
    comps = curve.components
    key = (i, j, p3 and comps[i].nvars == 5)  # a P3 curve is its own image
    if key not in curve._secants:
        x = comps[i].coords
        y = comps[i].conj_coords if j == "conj" else comps[j].coords
        if p3:
            x, y = p3_forms(x), p3_forms(y)
        curve._secants[key] = _saturate(x, y, j == i)
    return curve._secants[key]


def _binary_form_roots(form: BinaryForm, target_radius=DEFAULT_TARGET_RADIUS):
    """Certified parameter points of P1 where the form vanishes, each
    tagged with its index in complex_roots' order; the point (0, 1), where
    the form vanishes when its t^d coefficient does, comes last.

    Also returns the conjugation map on the indices for a real form (None
    otherwise).  A certified real root, and the point (0, 1), is its own
    conjugate.  The conjugate of a non-real root i is the one non-real
    root j whose disk meets the mirror image of disk i: the conjugate
    root lies in exactly one disk, and not in a real root's disk."""
    if form.is_zero():
        raise GenericityError("root extraction from the zero form")
    real = form.is_real()
    roots = complex_roots(form, target_radius)
    pts = []
    for k, r in enumerate(roots):
        scale = max(1.0, abs(r.center)) ** 2
        pts.append(ParamPoint(1.0, r.center, r.radius / scale, r.real, k))
    if form.num[-1] == GZERO:
        pts.append(ParamPoint(0.0, 1.0, 0.0, real, len(roots)))
    if not real:
        return pts, None
    conj = list(range(len(pts)))
    loose = [k for k, r in enumerate(roots) if not r.real]
    hits = {k: [] for k in loose}
    # the non-real disks, then their mirror images: disk a meets mirror b - m
    disks, m = [roots[k] for k in loose], len(loose)
    disks += [CertifiedRoot(r.re, -r.im, r.rad, r.prec, r.multiplicity) for r in disks]
    for a, b in _meeting_pairs(disks):
        if a < m <= b:
            hits[loose[b - m]].append(loose[a])
    for k, ks in hits.items():
        if len(ks) != 1:
            raise UncertifiedRootsError(
                f"mirrored root disk meets {len(ks)} disks", clusters=[roots[k]])
        conj[k] = ks[0]
    return pts, conj


def _random_combo(minors, rng):
    """A nonzero combination of the minors with random small integer
    coefficients, and those coefficients."""
    while True:
        cs = [rng.randint(-9, 9) for _ in minors]
        if not any(cs):
            continue
        acc = BivarPoly.combination([(c, m) for c, m in zip(cs, minors) if c])
        if not acc.is_zero():
            return cs, acc


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _excess_factor(system, center, alpha, beta, side, n):
    """(E, n), the divisor and its power that `bivar_resultant_w` divides
    out, for E = det[a | b | c | x(s, t)] made primitive over Z[i], with
    x the forms system.forms[side]; E = 1 without a center or when the
    record lost more than the diagonal.  The combinations alpha, beta of
    the nonconstant collinearity minors (in the order of
    `collinearity_system`) are det[a | c | x | y] / G and
    det[b | c | x | y] / G, G the factor saturation removed, by Laplace
    expansion along the first column: a = (alpha3, -alpha2, alpha1,
    -alpha0), with 0 in the slot of a minor left out."""
    if center is None or not system.diagonal_only:
        return FORM_ONE, n
    x = system.forms[side]
    slots = [k for k, m in enumerate(system.minors) if m.m + m.n > 0 and not m.is_zero()]
    a, b = ([0] * 4, [0] * 4)
    for k, p, q in zip(slots, alpha, beta):
        a[3 - k], b[3 - k] = (-1) ** (k + 1) * p, (-1) ** (k + 1) * q
    # E is made primitive below, so the center may be scaled to integers
    scale = math.lcm(*(c.denominator for c in center))
    rows = list(zip(a, b, [int(c * scale) for c in center]))
    terms = [x[r] * ((-1) ** (r + 1) * _det3(rows[:r] + rows[r + 1:])) for r in range(4)]
    E = sum(terms[1:], terms[0])
    g = glist_gcd(E.num)
    return BinaryForm._from_ints(E.degree, 1, [gdivexact(c, g) for c in E.num]), n


def solve_minor_system(
    system: SaturatedSystem,
    seed=0,
    w_mode="solve",
    expected=None,
    target_radius=DEFAULT_TARGET_RADIUS,
    context="",
    center=None,
):
    """The certified solution pairs (PairSolution) of a saturated minor
    system, each with its Jacobian margin at least JAC_MARGIN.  A common
    factor left in the minors ends in GenericityError (one nonconstant
    minor, resultants that vanish in every retry, or a zero margin).

    w_mode: "swap" reuses the z-roots for w (same-component systems,
    where the minors are antisymmetric), "conj" uses their conjugates
    (component-against-conjugate systems), "solve" eliminates again.
    A solution is flagged `conjugate` by root index: in conj mode when
    zi = wi, in swap mode on a real resultant when wi is the conjugate
    root of zi, and never in solve mode (two different components).

    `expected` is the Bezout-style solution count; it is enforced only
    when saturation removed nothing beyond the z = w diagonal.

    `center`: the exact coordinates of the projection center whose
    collinearity minors of a `secants` record make up the system.  Then,
    on a record that lost at most the diagonal, each resultant is divided
    by its excess factor, E^n for R_z and E_y^m for R_w (see the module
    docstring), and in swap and conj mode every root of the divided R_z
    must be the z of exactly one solution.
    """
    rng = random.Random(seed ^ 0x5EED)
    live = [m for m in system.minors if not m.is_zero()]
    if not live:
        raise GenericityError(f"{context}: every minor vanishes identically (degenerate center)")
    nonconst = [m for m in live if m.m + m.n > 0]
    if not nonconst:
        # constants only: a nonzero constant forbids all solutions
        return []
    if len(nonconst) == 1:
        raise GenericityError(f"{context}: solution set is positive-dimensional")

    last_err = None
    for attempt in range(COMBO_RETRIES):
        alpha, u = _random_combo(nonconst, rng)
        beta, v = _random_combo(nonconst, rng)
        if _is_scalar_multiple(u, v):
            continue
        try:
            # u(z0, w) and v(z0, w) are proportional at every root z0 of E
            E, n = _excess_factor(system, center, alpha, beta, 0, u.n)
            Rz = bivar_resultant_w(u, v, strip_content=True, divisor=E, power=n)
            if Rz.is_zero():
                continue
            if w_mode == "solve":
                E, m = _excess_factor(system, center, alpha, beta, 1, u.m)
                Rw = bivar_resultant_w(u.swap_vars(), v.swap_vars(), strip_content=True,
                                       divisor=E, power=m)
                if Rw.is_zero():
                    continue
            # conj[zi] is the index of z's conjugate among the w roots
            zroots, conj = _binary_form_roots(Rz, target_radius)
            if w_mode == "swap":
                wroots = zroots
            elif w_mode == "conj":
                wroots = [p.conjugate() for p in zroots]
                conj = range(len(zroots))
            else:
                wroots, _ = _binary_form_roots(Rw, target_radius)
                conj = None
            sols = _pair_and_polish(nonconst, u, v, zroots, wroots, target_radius)
            if conj is not None:
                for s in sols:
                    s.conjugate = conj[s.zi] == s.wi
            if expected is not None and system.diagonal_only and len(sols) != expected:
                raise GenericityError(
                    f"{context}: found {len(sols)} solutions, expected {expected} "
                    f"(non-generic configuration or uncertified pairing)"
                )
            jac = min((s.jac_margin for s in sols), default=float("inf"))
            if jac < JAC_MARGIN:
                raise GenericityError(
                    f"{context}: chord Jacobian margin {jac:.2e} "
                    f"below {JAC_MARGIN} (tangent or multiple chord)"
                )
            if center is not None and w_mode != "solve" and system.diagonal_only:
                _each_root_once(system, sols, len(zroots), context)
            return sols
        except UncertifiedRootsError as e:
            last_err = e
            continue
    raise GenericityError(
        f"{context}: elimination failed after {COMBO_RETRIES} combination retries"
        + (f" (last: {last_err})" if last_err else "")
    )


def _each_root_once(system, sols, nroots, context):
    """Raise GenericityError unless each of the nroots roots of the
    divided R_z is the z of exactly one solution: a root shared by two
    solutions is a point on two chords through the center.  Solutions at
    an image coincidence x(z) = y(w) of the record, and their roots, are
    left out: they solve every chord system, and the smoothness check of
    the caller reports them."""
    if sorted(s.zi for s in sols) == list(range(nroots)):
        return
    shared = {s.zi for s in double_points(coincidence_system(*system.forms), sols)}
    if sorted(s.zi for s in sols if s.zi not in shared) != sorted(set(range(nroots)) - shared):
        raise GenericityError(
            f"{context}: the {nroots} roots of the divided resultant are not each "
            f"the z of exactly one of {len(sols)} solutions"
        )


def canonical_unordered(solutions):
    """Collapse the swap symmetry (z, w) ~ (w, z) of a swap-mode system to
    the solutions with zi <= wi; every (zi, wi) must come with (wi, zi)."""
    ids = {(s.zi, s.wi) for s in solutions}
    singles = sum((s.wi, s.zi) not in ids for s in solutions)
    if singles:
        raise GenericityError(f"{singles} chord solutions missing their swapped partner")
    return [s for s in solutions if s.zi <= s.wi]


def double_points(forms, solutions):
    """The solutions at which every Plücker form in `forms` vanishes, by
    the relative ACCEPT_TOL test of _pair_and_polish.  On a record's
    saturated forms these are the image coincidences among a center's
    chord solutions, whose collinearity minors are combinations of
    those forms."""
    if not solutions:
        return []
    T, scales = _coeff_tables([m for m in forms if not m.is_zero()])
    G = _jets(T, *_local_arrays([p for s in solutions for p in (s.z, s.w)]))
    near = (np.abs(G[..., 0, 0]) / scales).max(axis=1) <= ACCEPT_TOL
    return [s for s, ok in zip(solutions, near.tolist()) if ok]


def _local_arrays(points):
    """The local coordinates and the charts (True: t) of the points z1,
    w1, z2, w2, ..., as (K, 2) arrays with the pair (z_k, w_k) in row k."""
    charts, xs = zip(*(p.local() for p in points))
    return np.array(xs, dtype=complex).reshape(-1, 2), np.array(charts).reshape(-1, 2)


def _jets(T, xy, chart_t):
    """G[k, i] = [[f, f_w], [f_z, f_zw]] for f = T[i] at point k, given as
    in `_local_arrays`: the power vectors (s^(deg-j) t^j)_j of all z and w
    coordinates and their derivatives in the local coordinate are one
    array, and one product with T gives every value."""
    m, n = T.shape[1] - 1, T.shape[2] - 1
    e = np.arange(max(m, n) + 1)
    J = np.zeros((xy.size, 2, len(e)), dtype=complex)
    J[:, 0] = xy.reshape(-1, 1) ** e
    J[:, 1, 1:] = e[1:] * J[:, 0, :-1]
    Jz, Jw = (np.where(c[:, None, None], j, j[..., ::-1])
              for c, j in zip(chart_t.T, (J[0::2, :, :m + 1], J[1::2, :, :n + 1])))
    return Jz[:, None] @ T @ Jw[:, None].swapaxes(2, 3)


def _coeff_tables(polys):
    """The complex coefficient tables of polynomials of one bidegree,
    stacked into one (len, m+1, n+1) array, each coefficient converted by
    complex_coeffs; and per table the bound sum |c| for its modulus on
    normalized parameter pairs (1 for a zero table)."""
    T = np.array([[complex_coeffs(p.den, r) for r in p.num] for p in polys], dtype=complex)
    scales = np.abs(T).sum(axis=(1, 2))
    return T, np.where(scales > 0, scales, 1.0)


def _candidates(T, scales, zroots, wroots):
    """Index pairs (zi, wi), in row order, of the root pairs on which u
    and v, the tables T[0] and T[1], are both within FILTER_TOL of zero
    relative to their scale."""
    Z = _power_matrix([p.pair() for p in zroots], T.shape[1] - 1)
    W = _power_matrix([p.pair() for p in wroots], T.shape[2] - 1).T
    near = np.abs(Z @ T[:2] @ W) <= FILTER_TOL * scales[:2, None, None]
    return [tuple(ij) for ij in np.argwhere(near[0] & near[1]).tolist()]


def _polish(T, xy, chart_t):
    """2x2 Newton against T = (u, v), in lockstep over the points given as
    in `_jets`, each in its start charts: the polished points and per
    point the moduli of its last step.  A point stops after a step with
    |dz| + |dw| below 1e-14 (or after POLISH_STEPS steps), and one whose
    Jacobian goes singular goes back to its start with step 0."""
    start, size, live = xy, np.zeros(xy.shape), np.ones(len(xy), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(POLISH_STEPS):
            G = _jets(T, xy, chart_t)
            (fa, fb), (za, zb), (wa, wb) = (G[:, :, i, j].T for i, j in ((0, 0), (1, 0), (0, 1)))
            det = za * wb - wa * zb
            d = np.stack([fa * wb - fb * wa, fb * za - fa * zb], axis=1) / det[:, None]
            xy = np.where(live[:, None], xy - d, xy)
            size = np.where(live[:, None], np.abs(d), size)
            singular = live & (np.abs(det) < 1e-300)
            if singular.any():
                xy[singular], size[singular] = start[singular], 0.0
            live &= ~singular & (size.sum(axis=1) >= 1e-14)
            if not live.any():
                break
    return xy, size


def _pair_and_polish(minors, u, v, zroots, wroots, target_radius):
    """Solutions from the root pairs on which u and v nearly vanish,
    polished against (u, v) and kept when every minor vanishes there.
    Each (zi, wi) yields at most one solution, so two candidates that
    polish onto one point show in the caller's count check.  A singular
    Jacobian of the random pair (u, v) says nothing about a candidate,
    which stays unpolished.  The margin is the smallest singular value of
    the minors' scale-normalized Jacobian in the local parameter charts.
    The benchmark ledger wraps this function by name with these six
    positional arguments; `target_radius` is unused."""
    T, scales = _coeff_tables([u, v, *minors])
    pairs = _candidates(T, scales, zroots, wroots)
    if not pairs:
        return []
    starts = [p for i, j in pairs for p in (zroots[i], wroots[j])]
    xy, chart_t = _local_arrays(starts)
    polished = (a.ravel().tolist() for a in (chart_t, *_polish(T[:2], xy, chart_t)))
    # each point moved in its start chart, its radius grown to the last step
    ends = [ParamPoint(*((1.0, x) if c else (x, 1.0)), max(p.radius, e), p.real, p.root)
            for p, c, x, e in zip(starts, *polished)]
    G = _jets(T[2:], *_local_arrays(ends))
    ok = (np.abs(G[..., 0, 0]) / scales[2:]).max(axis=1) <= ACCEPT_TOL
    # keep a point only if it stayed near the certified root disks
    near = [p.dist(q) <= 1e-5 for p, q in zip(ends, starts)]
    ok &= np.logical_and(near[0::2], near[1::2])
    keep = np.flatnonzero(ok)
    # (f_z, f_w) per minor: the diagonal of [[f_z, f_zw], [f, f_w]]
    jac = np.diagonal(G[keep, :, ::-1], axis1=2, axis2=3) / scales[2:, None]
    svals = np.linalg.svd(jac, compute_uv=False)
    margins = svals[:, -1].tolist() if svals.shape[1] >= 2 else [0.0] * len(keep)
    return [PairSolution(ends[2 * k], ends[2 * k + 1], m) for k, m in zip(keep.tolist(), margins)]
