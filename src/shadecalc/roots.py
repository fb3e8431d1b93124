"""Certified complex root finding for exact-coefficient polynomials.

Approximations come from numpy (fallback mpmath at higher precision).
Newton's method then runs in fixed point on the Z[i] coefficient table:
a point is a Gaussian integer X standing for X / 2^P, Horner runs on
Python integers with one shift per step, and every center is a dyadic
Gaussian rational.

The certificate is exact.  At the center c = X / 2^P of a squarefree f of
degree n, f(c) 2^(nP) and f'(c) 2^((n-1)P) are Gaussian integers, and the
disk around c of radius n|f(c)/f'(c)| contains a root of f (Henrici).  The
stored radius is an integer upper bound on that radius, on the same 2^-P
grid, times SLACK.  With one disk per approximate root and all disks
pairwise disjoint, decided in integers, each disk contains exactly one
root.  Multiplicities are exact, read off Yun's squarefree decomposition.

For a real f, realness follows from conjugate symmetry, not from a
tolerance.  A disk that meets the real axis is moved to its real center
and its radius recomputed there.  That disk, disjoint from all the
others, holds exactly one root, and the root's conjugate lies in the same
disk, so the root is real.  A disk that misses the axis holds a non-real
root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import GZERO, UPoly, gadd, gmul, gnorm, zx_sqf_list
from .scalars import QQ

__all__ = ["CertifiedRoot", "UncertifiedRootsError", "complex_roots"]

DEFAULT_TARGET_RADIUS = 1e-12
SLACK = 4
NEWTON_PASSES = 8


class UncertifiedRootsError(RuntimeError):
    """Raised when root disks cannot be certified; carries the best
    cluster information found."""

    def __init__(self, message, clusters=None):
        super().__init__(message)
        self.clusters = clusters or []


@dataclass(frozen=True)
class CertifiedRoot:
    """A disk certified to contain exactly `multiplicity` roots (counted
    with multiplicity) of the source polynomial, disjoint from the disks
    of all sibling roots.  `real` means a certified real root of a real
    source polynomial; every root of a non-real one has real = False.

    The disk is exact: center (re + im i) / 2^prec and radius rad / 2^prec.
    `center` and `radius` are float views; the float radius is rounded up
    so that the float disk covers the exact one."""

    re: int
    im: int
    rad: int
    prec: int
    multiplicity: int
    real: bool = False

    @property
    def center(self) -> complex:
        one = 1 << self.prec
        return complex(self.re / one, self.im / one)

    @property
    def radius(self) -> float:
        one = 1 << self.prec
        c = self.center
        q = (
            Fraction(self.rad, one)
            + abs(Fraction(c.real) - Fraction(self.re, one))
            + abs(Fraction(c.imag) - Fraction(self.im, one))
        )
        r = float(q)
        return r if r >= q else math.nextafter(r, math.inf)

    def overlaps(self, other: "CertifiedRoot") -> bool:
        a, b = (self, other) if self.prec >= other.prec else (other, self)
        k = a.prec - b.prec
        dx, dy = a.re - (b.re << k), a.im - (b.im << k)
        s = a.rad + (b.rad << k)
        return dx * dx + dy * dy <= s * s


def _coeff_prec(zx) -> int:
    bits = max(max(abs(a), abs(b)).bit_length() for a, b in zx)
    return max(80, bits + 120)


def _np_initial_roots(zx):
    scale = max(max(abs(a), abs(b)) for a, b in zx)
    cs = [complex(QQ(a, scale), QQ(b, scale)) for a, b in zx]
    arr = np.array(list(reversed(cs)), dtype=complex)
    if len(arr) <= 1:
        return []
    try:
        rts = np.roots(arr)
        if np.all(np.isfinite(rts)):
            return [complex(r) for r in rts]
    except Exception:
        pass
    return None


def _mp_initial_roots(zx, prec):
    import mpmath as mp  # only this fallback needs it; importing it slows every start

    with mp.workprec(prec):
        cs = [mp.mpc(a, b) for a, b in reversed(zx)]
        try:
            rts = mp.polyroots(cs, maxsteps=200, extraprec=prec)
        except mp.libmp.libhyper.NoConvergence:
            rts = mp.polyroots(cs, maxsteps=500, extraprec=2 * prec, error=False)
        return [complex(r) for r in rts]


def _fixed(v: float, prec) -> int:
    """floor(v 2^prec) for a float v."""
    num, den = v.as_integer_ratio()
    return (num << prec) // den


def _newton(shifted, x, y, prec, passes):
    """Newton iterates in fixed point from (x + y i) / 2^prec, until a step
    rounds to zero or after `passes` steps.

    `shifted` is the coefficient table times 2^prec; Horner keeps f and f'
    scaled by 2^prec and truncates each product back to the grid, and each
    step is rounded to the nearest grid point, so a root on the grid is a
    fixed point."""
    for _ in range(passes):
        pr, pi = shifted[-1]
        dr = di = 0
        for a, b in reversed(shifted[:-1]):
            dr, di = ((dr * x - di * y) >> prec) + pr, ((dr * y + di * x) >> prec) + pi
            pr, pi = ((pr * x - pi * y) >> prec) + a, ((pr * y + pi * x) >> prec) + b
        nd = dr * dr + di * di
        if nd == 0:
            break
        sx = (((pr * dr + pi * di) << (prec + 1)) + nd) // (2 * nd)
        sy = (((pi * dr - pr * di) << (prec + 1)) + nd) // (2 * nd)
        if sx == 0 and sy == 0:
            break
        x, y = x - sx, y - sy
    return x, y


def _radius(fac, x, y, prec):
    """Least integer R with R / 2^prec >= SLACK * n|f(c)/f'(c)| at the exact
    center c = (x + y i) / 2^prec, or None when f'(c) = 0.

    Exact Horner on X = x + y i: g ends as f(c) 2^(n prec) and q as
    f'(c) 2^((n-1) prec), so the radius in grid units is SLACK n |g| / |q|."""
    X = (x, y)
    g, q = fac[-1], GZERO
    shift = 0
    for a, b in reversed(fac[:-1]):
        shift += prec
        q = gadd(gmul(q, X), g)
        g = gadd(gmul(g, X), (a << shift, b << shift))
    nq = gnorm(q)
    if nq == 0:
        return None
    k = SLACK * (len(fac) - 1)
    t = -(-k * k * gnorm(g) // nq)
    r = math.isqrt(t)
    return r if r * r == t else r + 1


def complex_roots(p: UPoly, target_radius=DEFAULT_TARGET_RADIUS, max_rounds=8):
    """All complex roots of p with certified disks and exact multiplicities,
    sorted by (Re, Im) of the centers.

    Raises UncertifiedRootsError if pairwise-disjoint certified disks are
    not reached after refinement.
    """
    if not p:
        raise ValueError("cannot root-solve the zero polynomial")
    zx = p.to_zx()
    if len(zx) <= 1:
        return []
    real_poly = p.is_real()
    roots: list[CertifiedRoot] = []
    for fac, mult in zx_sqf_list(zx):
        if len(fac) <= 1:
            continue
        roots.extend(_certified_factor_roots(fac, mult, real_poly, target_radius, max_rounds))
    roots.sort(key=lambda r: (r.center.real, r.center.imag))
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            if a.overlaps(b):
                raise UncertifiedRootsError(
                    "root disks of coprime factors overlap", clusters=[a, b]
                )
    return roots


def _certified_factor_roots(fac, mult, real_poly, target_radius, max_rounds):
    n = len(fac) - 1
    prec = _coeff_prec(fac)
    approx = _np_initial_roots(fac)
    if approx is None or len(approx) != n:
        approx = _mp_initial_roots(fac, prec)
    is_real_poly = all(b == 0 for a, b in fac)
    disks = []
    for round_no in range(max_rounds):
        if round_no:
            prec = int(prec * 1.6) + 60
            approx = _mp_initial_roots(fac, prec)
        disks = _disks(fac, approx, prec, NEWTON_PASSES + 2 * round_no, is_real_poly)
        limit = Fraction(target_radius) * (1 << prec)
        if disks and all(r <= limit for _, _, r in disks) and _pairwise_disjoint(disks):
            return [CertifiedRoot(x, y, r, prec, mult, real_poly and y == 0) for x, y, r in disks]
    one = 1 << prec
    raise UncertifiedRootsError(
        f"could not certify {n} disjoint root disks at target radius {target_radius}",
        clusters=[complex(x / one, y / one) for x, y, _ in disks or ()],
    )


def _disks(fac, approx, prec, passes, is_real_poly):
    """(x, y, R) per approximate root: the Newton center (x + y i) / 2^prec
    and its certified radius R / 2^prec; for a real factor a disk that
    meets the real axis moves to its real center.  None when an
    approximation is not finite or f' vanishes at a center."""
    shifted = [(a << prec, b << prec) for a, b in fac]
    out = []
    for z in approx:
        if not cmath.isfinite(z):
            return None
        x, y = _newton(shifted, _fixed(z.real, prec), _fixed(z.imag, prec), prec, passes)
        r = _radius(fac, x, y, prec)
        if r is not None and is_real_poly and y and y * y <= r * r:
            y = 0
            r = _radius(fac, x, y, prec)
        if r is None:
            return None
        out.append((x, y, r))
    return out


def _pairwise_disjoint(disks):
    for i, (xi, yi, ri) in enumerate(disks):
        for xj, yj, rj in disks[i + 1 :]:
            dx, dy, s = xi - xj, yi - yj, ri + rj
            if dx * dx + dy * dy <= s * s:
                return False
    return True
