"""Bivariate rank systems behind chords, self-intersections and real
points: build the minor systems, saturate divisorial junk, eliminate by
resultants, extract certified parameter pairs, and polish them against
the full system.

All systems share one shape.  Two parameterizations x(z), y(w) (binary
form tuples) and a list of minor polynomials M_k(z, w) cut out the locus
we want plus divisorial junk (the diagonal for same-component systems,
deck-transform components for antipodally symmetric sphere curves).  The
pipeline is:

1. saturate: divide every minor by the gcd of all of them, repeatedly,
   so positive-dimensional components drop out;
2. eliminate: take two random small-integer combinations u, v of the
   saturated minors and compute the homogeneous resultants R_z (and R_w
   where the system has no usable symmetry);
3. extract: certified roots of R_z / R_w give candidate parameter pairs
   (all honest solutions appear since V(system) lies in V(u, v));
4. polish + filter: 2x2 Newton against the two best minors, then accept
   only pairs on which every saturated minor is at relative residual
   below ACCEPT_TOL; junk from V(u, v) fails by many orders of magnitude;
5. count check: when saturation removed nothing beyond the expected
   diagonal, the number of solutions must match the Bezout-style count
   supplied by the caller, else the configuration is declared
   non-generic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .curves import ParamPoint
from .errors import GenericityError
from .poly import GZERO, BinaryForm, BivarPoly, bivar_divexact, bivar_gcd, bivar_resultant_w, gmul
from .roots import UncertifiedRootsError, complex_roots

__all__ = ["PairSolution", "SystemResult", "solve_minor_system",
           "collinearity_system", "coincidence_system"]

ACCEPT_TOL = 1e-8
JAC_MARGIN = 1e-6
ROOT_RADIUS = 1e-12
COMBO_RETRIES = 6


@dataclass
class PairSolution:
    z: ParamPoint
    w: ParamPoint
    residual: float  # max relative residual over all saturated minors
    jac_margin: float  # scaled 2x2 Jacobian determinant at the solution

    def key(self):
        return (
            round(self.z.s.real, 9), round(self.z.s.imag, 9),
            round(self.z.t.real, 9), round(self.z.t.imag, 9),
            round(self.w.s.real, 9), round(self.w.s.imag, 9),
            round(self.w.t.real, 9), round(self.w.t.imag, 9),
        )


@dataclass
class SystemResult:
    solutions: list
    saturated_degree: tuple  # total bidegree removed by saturation
    diagonal_only: bool  # saturation removed exactly the diagonal (or nothing)
    count_checked: bool
    min_jac_margin: float


def _proj_forms(forms):
    """P3 image forms: identity on 4-tuples, drop x0 on 5-tuples (the
    double cover composed with the parameterization)."""
    if len(forms) == 4:
        return tuple(forms)
    return tuple(forms[1:])


def collinearity_system(center_coords, xforms, yforms):
    """The four 3x3 minors of [c | x(z) | y(w)] as BivarPoly values,
    expanded along the center column:
    det[c|x|y]_(a,b,d) = c_a P_bd - c_b P_ad + c_d P_ab with P the 2x2
    minors of [x | y] (the coincidence system).

    center_coords: four exact scalars; xforms/yforms: four BinaryForms.
    """
    c = center_coords
    P = dict(zip(combinations(range(4), 2),
                 coincidence_system(_proj_forms(xforms), _proj_forms(yforms))))
    return [
        BivarPoly.combination([(c[a], P[b, d]), (-c[b], P[a, d]), (c[d], P[a, b])])
        for a, b, d in combinations(range(4), 3)
    ]


def coincidence_system(xforms, yforms):
    """All 2x2 minors of [x(z) | y(w)]: vanish together iff the two image
    points coincide projectively."""
    n = len(xforms)
    if len(yforms) != n:
        raise ValueError("coordinate counts differ")
    minors = []
    for a in range(n):
        for b in range(a + 1, n):
            minors.append(
                BivarPoly.from_form_product(xforms[a], yforms[b])
                - BivarPoly.from_form_product(xforms[b], yforms[a])
            )
    return minors


def _diagonal_poly():
    """s v - t u, the z = w locus."""
    return BivarPoly(1, 1, [[0, 1], [-1, 0]])


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


def _scale_bound(p: BivarPoly) -> float:
    """Upper bound for |p| on normalized parameter pairs (max modulus 1)."""
    return sum(abs(complex(a / p.den, b / p.den)) for r in p.num for a, b in r) or 1.0


def _saturate_all(minors):
    """Divide the common gcd out of all minors until it is constant.
    Returns (saturated minors, removed bidegree, diagonal_only)."""
    live = [m for m in minors if not m.is_zero()]
    if not live:
        raise GenericityError("all minors vanish identically (degenerate configuration)")
    removed_m = removed_n = 0
    diagonal_only = True
    diag = _diagonal_poly()
    while True:
        g = live[0]
        for m in live[1:]:
            g = bivar_gcd(g, m)
            if g.m == 0 and g.n == 0:
                break
        if g.m == 0 and g.n == 0:
            break
        if not _is_scalar_multiple(g, diag):
            diagonal_only = False
        removed_m += g.m
        removed_n += g.n
        live = [bivar_divexact(m, g) for m in live]
    return live, (removed_m, removed_n), diagonal_only


def _binary_form_roots(form: BinaryForm, target_radius=ROOT_RADIUS):
    """Certified parameter points of P1 where the form vanishes; the
    degree deficit of the affine chart is the multiplicity at (0, 1)."""
    if form.is_zero():
        raise GenericityError("root extraction from the zero form")
    p = form.chart_t()
    pts = []
    if p.degree >= 1:
        for r in complex_roots(p, target_radius):
            scale = max(1.0, abs(r.center)) ** 2
            pts.append(ParamPoint(1.0, r.center, r.radius / scale, r.multiplicity, r.real))
    inf_mult = form.degree - p.degree if p else form.degree
    if inf_mult > 0:
        pts.append(ParamPoint.infinity(mult=inf_mult))
    return pts


def _partials(p: BivarPoly):
    """(d/ds, d/dt, d/du, d/dv) as BivarPoly values."""
    m, n, T = p.m, p.n, p.num

    def part(mm, nn, rows):
        return BivarPoly._from_ints(mm, nn, p.den, rows)

    zero_row = [[GZERO] * (n + 1)]
    zero_col = [[GZERO]] * (m + 1)
    ds = [[(a * (m - j), b * (m - j)) for a, b in T[j]] for j in range(m)]
    dt = [[(a * j, b * j) for a, b in T[j]] for j in range(1, m + 1)]
    du = [[(a * (n - k), b * (n - k)) for k, (a, b) in enumerate(r[:n])] for r in T]
    dv = [[(a * k, b * k) for k, (a, b) in enumerate(r) if k] for r in T]
    return (
        part(max(m - 1, 0), n, ds or zero_row),
        part(max(m - 1, 0), n, dt or zero_row),
        part(m, max(n - 1, 0), du if n else zero_col),
        part(m, max(n - 1, 0), dv if n else zero_col),
    )


class _NewtonSystem:
    """2x2 Newton polishing against the combo pair in local charts."""

    def __init__(self, A: BivarPoly, B: BivarPoly):
        self.A, self.B = A, B
        self.Agrad = _partials(A)
        self.Bgrad = _partials(B)

    def polish(self, zp: ParamPoint, wp: ParamPoint, steps=30):
        zs, zt = zp.s, zp.t
        ws, wt = wp.s, wp.t
        z_chart_t = abs(zt) <= abs(zs)  # local coordinate: t if s = 1
        w_chart_t = abs(wt) <= abs(ws)
        dz = dw = 0.0
        for _ in range(steps):
            zpair = (1.0, zt / zs) if z_chart_t else (zs / zt, 1.0)
            wpair = (1.0, wt / ws) if w_chart_t else (ws / wt, 1.0)
            fa = self.A.eval_pair(zpair, wpair)
            fb = self.B.eval_pair(zpair, wpair)
            da_dz = (self.Agrad[1] if z_chart_t else self.Agrad[0]).eval_pair(zpair, wpair)
            db_dz = (self.Bgrad[1] if z_chart_t else self.Bgrad[0]).eval_pair(zpair, wpair)
            da_dw = (self.Agrad[3] if w_chart_t else self.Agrad[2]).eval_pair(zpair, wpair)
            db_dw = (self.Bgrad[3] if w_chart_t else self.Bgrad[2]).eval_pair(zpair, wpair)
            det = da_dz * db_dw - da_dw * db_dz
            if abs(det) < 1e-300:
                return None
            dz = (fa * db_dw - fb * da_dw) / det
            dw = (fb * da_dz - fa * db_dz) / det
            if z_chart_t:
                zt = zt - dz * zs
            else:
                zs = zs - dz * zt
            if w_chart_t:
                wt = wt - dw * ws
            else:
                ws = ws - dw * wt
            if abs(dz) + abs(dw) < 1e-14:
                break
        zp2 = ParamPoint(zs, zt, max(zp.radius, abs(dz)), zp.mult, None)
        wp2 = ParamPoint(ws, wt, max(wp.radius, abs(dw)), wp.mult, None)
        return zp2, wp2


def _system_margin(minor_grads, scales, zp: ParamPoint, wp: ParamPoint):
    """Transversality margin of the full minor system at a solution: the
    smallest singular value of the stacked, scale-normalized Jacobian in
    the local parameter charts."""
    import numpy as np

    z_chart_t = abs(zp.t) <= abs(zp.s)
    w_chart_t = abs(wp.t) <= abs(wp.s)
    zpair, wpair = zp.pair(), wp.pair()
    rows = []
    for grads, sc in zip(minor_grads, scales):
        gz = (grads[1] if z_chart_t else grads[0]).eval_pair(zpair, wpair)
        gw = (grads[3] if w_chart_t else grads[2]).eval_pair(zpair, wpair)
        rows.append([gz / sc, gw / sc])
    J = np.array(rows, dtype=complex)
    svals = np.linalg.svd(J, compute_uv=False)
    return float(svals[-1]) if len(svals) >= 2 else 0.0


def _random_combo(minors, rng):
    while True:
        cs = [rng.randint(-9, 9) for _ in minors]
        if not any(cs):
            continue
        acc = BivarPoly.combination([(c, m) for c, m in zip(cs, minors) if c])
        if not acc.is_zero():
            return acc


def solve_minor_system(
    minors,
    seed=0,
    w_mode="solve",
    expected=None,
    target_radius=ROOT_RADIUS,
    context="",
):
    """Certified solution pairs of a minor system.

    w_mode: "swap" reuses the z-roots for w (same-component systems,
    where the minors are antisymmetric), "conj" uses their conjugates
    (component-against-conjugate systems), "solve" eliminates again.

    `expected` is the Bezout-style solution count; it is enforced only
    when saturation removed nothing beyond the z = w diagonal.
    """
    rng = random.Random(seed ^ 0x5EED)
    live, removed, diagonal_only = _saturate_all(minors)
    nonconst = [m for m in live if m.m + m.n > 0]
    if not nonconst:
        # constants only: a nonzero constant forbids all solutions
        if any(not m.is_zero() for m in live):
            return SystemResult([], removed, diagonal_only, True, float("inf"))
        raise GenericityError(f"{context}: saturated system vanished entirely")
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
            zroots = _binary_form_roots(Rz, target_radius)
            if w_mode == "swap":
                wroots = list(zroots)
            elif w_mode == "conj":
                wroots = [p.conjugate() for p in zroots]
            else:
                wroots = _binary_form_roots(Rw, target_radius)
            sols = _pair_and_polish(nonconst, u, v, zroots, wroots, target_radius)
            result = SystemResult(
                sols,
                removed,
                diagonal_only,
                False,
                min((s.jac_margin for s in sols), default=float("inf")),
            )
            if expected is not None and diagonal_only:
                result.count_checked = True
                if len(sols) != expected:
                    raise GenericityError(
                        f"{context}: found {len(sols)} solutions, expected {expected} "
                        f"(non-generic configuration or uncertified pairing)"
                    )
            if result.min_jac_margin < JAC_MARGIN:
                raise GenericityError(
                    f"{context}: chord Jacobian margin {result.min_jac_margin:.2e} "
                    f"below {JAC_MARGIN} (tangent or multiple chord)"
                )
            return result
        except UncertifiedRootsError as e:
            last_err = e
            continue
    raise GenericityError(
        f"{context}: elimination failed after {COMBO_RETRIES} combination retries"
        + (f" (last: {last_err})" if last_err else "")
    )


def _pair_and_polish(minors, u, v, zroots, wroots, target_radius):
    scales = [_scale_bound(m) for m in minors]
    uscale, vscale = _scale_bound(u), _scale_bound(v)
    pre = []
    for zp in zroots:
        for wp in wroots:
            zu = zp.pair()
            wu = wp.pair()
            if abs(u.eval_pair(zu, wu)) > 1e-5 * uscale:
                continue
            if abs(v.eval_pair(zu, wu)) > 1e-5 * vscale:
                continue
            pre.append((zp, wp))
    newton = _NewtonSystem(u, v)
    minor_grads = [_partials(m) for m in minors]
    found = {}
    for zp, wp in pre:
        # a singular Jacobian of the random pair (u, v) says nothing about
        # the candidate: keep it unpolished and let the checks below decide
        z2, w2 = newton.polish(zp, wp) or (zp, wp)
        resid = 0.0
        for m, sc in zip(minors, scales):
            resid = max(resid, abs(m.eval_pair(z2.pair(), w2.pair())) / sc)
        if resid > ACCEPT_TOL:
            continue
        # keep the point only if it stayed near the certified root disks
        if z2.dist(zp) > 1e-5 or w2.dist(wp) > 1e-5:
            continue
        margin = _system_margin(minor_grads, scales, z2, w2)
        sol = PairSolution(z2, w2, resid, margin)
        key = sol.key()
        if key not in found or found[key].residual > resid:
            found[key] = sol
    return list(found.values())
