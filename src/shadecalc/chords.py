"""Bivariate rank systems behind chords, self-intersections and real
points: build the minor systems, saturate divisorial junk, eliminate by
resultants, extract certified parameter pairs, and polish them against
the full system.

All systems share one shape.  Two parameterizations x(z), y(w) (binary
form tuples) and a list of minor polynomials M_k(z, w) cut out the locus
we want plus divisorial junk (the diagonal for same-component systems,
deck-transform components for antipodally symmetric sphere curves).  The
pipeline is:

1. saturate: divide the Plücker forms P_ab = x_a(z) y_b(w) - x_b(z) y_a(w)
   by their gcd, once per curve, component pair and coordinate set
   (`secants`).  A center's collinearity minors are linear
   combinations of the saturated forms, so no center runs a gcd, and a
   factor that only the center brings stays and ends in GenericityError;
2. eliminate: take two random small-integer combinations u, v of the
   saturated minors and compute the homogeneous resultants R_z (and R_w
   where the system has no usable symmetry);
3. extract: certified roots of R_z / R_w give parameter points
   (all honest solutions appear since V(system) lies in V(u, v));
4. filter + polish + accept: u, v and the saturated minors are converted
   to floats once per combination, stacked into one table T of complex
   coefficient tables, and all four checks read T.  One matrix product,
   Z T[:2] W^T with Z, W the power matrices of the z and w roots,
   evaluates u and v on every root pair at once; pairs where both are
   below FILTER_TOL relative to their scale are candidates.  Each is
   polished by 2x2 Newton against (u, v) and accepted only when every
   saturated minor is at relative residual below ACCEPT_TOL (junk from
   V(u, v) fails by many orders of magnitude) and the polished point
   stayed near its root disks; its Jacobian margin comes from the same
   evaluation of the minors;
5. count check: when saturation removed nothing beyond the z = w
   diagonal, the number of solutions must match the Bezout-style count
   supplied by the caller, else the configuration is declared
   non-generic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .curves import ParamPoint, _jet, _power_matrix, p3_forms
from .errors import GenericityError
from .poly import (GZERO, BinaryForm, BivarPoly, bivar_divexact, bivar_gcd, bivar_resultant_w,
                   complex_coeffs, gmul)
from .roots import DEFAULT_TARGET_RADIUS, UncertifiedRootsError, complex_roots

__all__ = ["PairSolution", "SaturatedSystem", "solve_minor_system", "canonical_unordered",
           "collinearity_system", "coincidence_system", "secants", "double_points"]

ACCEPT_TOL = 1e-8
FILTER_TOL = 1e-5  # candidate filter: |u|, |v| relative to their scale bounds
JAC_MARGIN = 1e-6
COMBO_RETRIES = 6
POLISH_STEPS = 30  # Newton steps of the pair polish at most


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


def _saturate_all(minors) -> SaturatedSystem:
    """Divide the gcd G of all minors out of them, once: the quotients
    F_i / G have constant gcd, since G is the greatest common factor."""
    minors = list(minors)
    live = [m for m in minors if not m.is_zero()]
    if not live:
        raise GenericityError("all minors vanish identically (degenerate configuration)")
    g = live[0]
    for m in live[1:]:
        if g.m == g.n == 0:
            break
        g = bivar_gcd(g, m)
    if g.m == g.n == 0:
        return SaturatedSystem(tuple(minors), (0, 0), True)
    diag = BivarPoly(1, 1, [[0, 1], [-1, 0]])  # s v - t u, the z = w locus
    return SaturatedSystem(tuple(bivar_divexact(m, g) for m in minors), (g.m, g.n),
                           _is_scalar_multiple(g, diag))


def secants(curve, i, j, *, p3):
    """The saturated Plücker forms of components i and j of the curve
    (j = "conj": component i against its own conjugate), over all
    coordinates or, with p3, over the P3 image coordinates.  Built once
    per curve.  The P3-image records serve every projection center and,
    when each lost at most the diagonal, the smoothness check through the
    first center's chord solutions.  The records over all five
    coordinates of a sphere curve serve the real-point search and the
    separate smoothness solve of a deck-symmetric curve, whose P3-image
    records lost the deck graph too."""
    comps = curve.components
    key = (i, j, p3 and comps[i].nvars == 5)  # a P3 curve is its own image
    if key not in curve._secants:
        x = comps[i].coords
        y = comps[i].conj_coords if j == "conj" else comps[j].coords
        if p3:
            x, y = p3_forms(x), p3_forms(y)
        curve._secants[key] = _saturate_all(coincidence_system(x, y))
    return curve._secants[key]


def _binary_form_roots(form: BinaryForm, target_radius=DEFAULT_TARGET_RADIUS):
    """Certified parameter points of P1 where the form vanishes, each
    tagged with its index in complex_roots' order; the point (0, 1), where
    the form vanishes when its t^d coefficient does, comes last.

    Also returns the conjugation map on the indices for a real form (None
    otherwise): root j is the conjugate of root i when disk j is the one
    disk that meets the mirror image of disk i."""
    if form.is_zero():
        raise GenericityError("root extraction from the zero form")
    real = form.is_real()
    roots = complex_roots(form, target_radius)
    pts = []
    for k, r in enumerate(roots):
        scale = max(1.0, abs(r.center)) ** 2
        pts.append(ParamPoint(1.0, r.center, r.radius / scale, r.real, k))
    at_inf = form.num[-1] == GZERO
    if at_inf:
        pts.append(ParamPoint(0.0, 1.0, 0.0, real, len(roots)))
    if not real:
        return pts, None
    conj = []
    for r in roots:
        mirror = replace(r, im=-r.im)
        hits = [j for j, o in enumerate(roots) if o.overlaps(mirror)]
        if len(hits) != 1:
            raise UncertifiedRootsError(
                f"mirrored root disk meets {len(hits)} disks", clusters=[r]
            )
        conj.append(hits[0])
    return pts, conj + [len(roots)] * at_inf


def _random_combo(minors, rng):
    while True:
        cs = [rng.randint(-9, 9) for _ in minors]
        if not any(cs):
            continue
        acc = BivarPoly.combination([(c, m) for c, m in zip(cs, minors) if c])
        if not acc.is_zero():
            return acc


def solve_minor_system(
    system: SaturatedSystem,
    seed=0,
    w_mode="solve",
    expected=None,
    target_radius=DEFAULT_TARGET_RADIUS,
    context="",
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
        u = _random_combo(nonconst, rng)
        v = _random_combo(nonconst, rng)
        if _is_scalar_multiple(u, v):
            continue
        try:
            Rz = bivar_resultant_w(u, v, strip_content=True)
            if Rz.is_zero():
                continue
            if w_mode == "solve":
                Rw = bivar_resultant_w(u.swap_vars(), v.swap_vars(), strip_content=True)
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
            return sols
        except UncertifiedRootsError as e:
            last_err = e
            continue
    raise GenericityError(
        f"{context}: elimination failed after {COMBO_RETRIES} combination retries"
        + (f" (last: {last_err})" if last_err else "")
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
    out = []
    for s in solutions:
        (z_chart_t, zx), (w_chart_t, wx) = s.z.local(), s.w.local()
        f, _, _ = _jets(T, zx, wx, z_chart_t, w_chart_t)
        if np.max(np.abs(f) / scales) <= ACCEPT_TOL:
            out.append(s)
    return out


def _jets(T, zx, wx, z_chart_t, w_chart_t):
    """Value, z-partial and w-partial of every table of T at the point
    with local coordinates zx, wx in the given charts."""
    G = _jet(zx, T.shape[1] - 1, z_chart_t) @ T @ _jet(wx, T.shape[2] - 1, w_chart_t).T
    return G[:, 0, 0], G[:, 1, 0], G[:, 0, 1]  # G[i] = [[f, f_w], [f_z, f_zw]]


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


def _polish(T, zp: ParamPoint, wp: ParamPoint):
    """2x2 Newton against the tables T = (u, v) in the local charts of the
    start point, kept through every step; None on a singular Jacobian."""
    (z_chart_t, zx), (w_chart_t, wx) = zp.local(), wp.local()
    dz = dw = 0.0
    for _ in range(POLISH_STEPS):
        (fa, fb), (da_dz, db_dz), (da_dw, db_dw) = (
            g.tolist() for g in _jets(T, zx, wx, z_chart_t, w_chart_t))
        det = da_dz * db_dw - da_dw * db_dz
        if abs(det) < 1e-300:
            return None
        dz = (fa * db_dw - fb * da_dw) / det
        dw = (fb * da_dz - fa * db_dz) / det
        zx, wx = zx - dz, wx - dw
        if abs(dz) + abs(dw) < 1e-14:
            break
    zp2 = ParamPoint(*((1.0, zx) if z_chart_t else (zx, 1.0)),
                     max(zp.radius, abs(dz)), zp.real, zp.root)
    wp2 = ParamPoint(*((1.0, wx) if w_chart_t else (wx, 1.0)),
                     max(wp.radius, abs(dw)), wp.real, wp.root)
    return zp2, wp2


def _pair_and_polish(minors, u, v, zroots, wroots, target_radius):
    """Solutions from the root pairs on which u and v nearly vanish,
    polished against (u, v) and kept when every minor vanishes there.
    Each (zi, wi) yields at most one solution, so two candidates that
    polish onto one point show in the caller's count check.  The
    solution's margin is the smallest singular value of the minors'
    scale-normalized Jacobian in the local parameter charts.  The
    benchmark ledger wraps this function by name with these six
    positional arguments; `target_radius` is unused."""
    T, scales = _coeff_tables([u, v, *minors])
    sols = []
    for zi, wi in _candidates(T, scales, zroots, wroots):
        zp, wp = zroots[zi], wroots[wi]
        # a singular Jacobian of the random pair (u, v) says nothing about
        # the candidate: keep it unpolished and let the checks below decide
        z2, w2 = _polish(T[:2], zp, wp) or (zp, wp)
        (z_chart_t, zx), (w_chart_t, wx) = z2.local(), w2.local()
        f, fz, fw = _jets(T[2:], zx, wx, z_chart_t, w_chart_t)
        if np.max(np.abs(f) / scales[2:]) > ACCEPT_TOL:
            continue
        # keep the point only if it stayed near the certified root disks
        if z2.dist(zp) > 1e-5 or w2.dist(wp) > 1e-5:
            continue
        svals = np.linalg.svd(np.stack([fz, fw], axis=1) / scales[2:, None], compute_uv=False)
        sols.append(PairSolution(z2, w2, float(svals[-1]) if len(svals) >= 2 else 0.0))
    return sols
