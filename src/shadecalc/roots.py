"""Certified complex root finding for exact-coefficient polynomials.

Approximations come from numpy (fallback mpmath at higher precision).
Newton's method then runs in fixed point on the Z[i] coefficient table:
a point is a Gaussian integer X standing for X / 2^P, Horner runs on
Python integers with one shift per step, and every center is a dyadic
Gaussian rational.

The certificate is a rigorous bound, not an exact evaluation.  At the
center c = X / 2^P of a squarefree f of degree n, the same truncated
Horner that drives Newton's method gives f(c) 2^P and f'(c) 2^P, each
product floored to the 2^-P grid, and a running error bound next to them
turns these into an upper bound on |f(c)| and a lower bound on |f'(c)|.
The disk around c of radius n|f(c)/f'(c)| contains a root of f
(Henrici), so it still does with |f| bounded up and |f'| bounded down.
The stored radius is an integer upper bound on that radius, on the same
2^-P grid, times SLACK.  With one disk per approximate root and all disks
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

from .poly import UPoly, complex_coeffs, zx_sqf_list

__all__ = ["CertifiedRoot", "UncertifiedRootsError", "complex_roots"]

DEFAULT_TARGET_RADIUS = 1e-12
SLACK = 4
NEWTON_PASSES = 8
MAX_ROUNDS = 8  # certification rounds per factor, and overlap refinements


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
        # a float part of the center lies on the 2^-prec grid too, so the
        # sum is an integer over 2^prec: one correctly rounded division,
        # rounded up by an integer comparison
        one = 1 << self.prec
        c = self.center
        num = self.rad
        for part, exact in ((c.real, self.re), (c.imag, self.im)):
            n, d = part.as_integer_ratio()
            num += abs(n * (one // d) - exact)
        r = num / one
        a, b = r.as_integer_ratio()
        return r if a * one >= num * b else math.nextafter(r, math.inf)

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
    arr = np.array(complex_coeffs(scale, zx[::-1]), dtype=complex)
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


def _horner(shifted, x, y, prec):
    """(pr, pi, dr, di): f(c) 2^prec = pr + pi i and f'(c) 2^prec = dr + di i
    at c = (x + y i) / 2^prec, up to truncation.

    `shifted` is the coefficient table times 2^prec; each product is floored
    to the 2^-prec grid, part by part."""
    pr, pi = shifted[-1]
    dr = di = 0
    for a, b in reversed(shifted[:-1]):
        dr, di = ((dr * x - di * y) >> prec) + pr, ((dr * y + di * x) >> prec) + pi
        pr, pi = ((pr * x - pi * y) >> prec) + a, ((pr * y + pi * x) >> prec) + b
    return pr, pi, dr, di


def _newton(shifted, x, y, prec, passes):
    """Newton iterates in fixed point from (x + y i) / 2^prec, until a step
    rounds to zero or after `passes` steps.  Returns (x, y, h): h is the
    _horner tuple at the returned point when the loop broke there on a
    zero step, else None.

    Each step is rounded to the nearest grid point, so a root on the grid
    is a fixed point."""
    for _ in range(passes):
        h = _horner(shifted, x, y, prec)
        pr, pi, dr, di = h
        nd = dr * dr + di * di
        if nd == 0:
            break
        sx = (((pr * dr + pi * di) << (prec + 1)) + nd) // (2 * nd)
        sy = (((pi * dr - pr * di) << (prec + 1)) + nd) // (2 * nd)
        if sx == 0 and sy == 0:
            return x, y, h
        x, y = x - sx, y - sy
    return x, y, None


def _radius(shifted, x, y, prec, h=None):
    """An integer R with R / 2^prec >= SLACK * n|f(c)/f'(c)| at the center
    c = (x + y i) / 2^prec, or None when the lower bound on |f'(c)| is not
    positive.

    A floored product is off by less than sqrt(2), and an error e in a
    Horner value grows to at most e|c| < e m / 2^prec in the next product,
    with m = isqrt(x^2 + y^2) + 1.  So e and e' below bound the errors of
    f(c) 2^prec and f'(c) 2^prec from _horner in grid units, and
    |f(c)| 2^prec <= hi and |f'(c)| 2^prec >= lo.  `h` is the _horner
    tuple at c when the caller has it already."""
    pr, pi, dr, di = h if h is not None else _horner(shifted, x, y, prec)
    n = len(shifted) - 1
    m = math.isqrt(x * x + y * y) + 1
    e = e1 = 0
    for _ in range(n):
        e, e1 = ((e * m) >> prec) + 3, ((e1 * m) >> prec) + 3 + e
    lo = math.isqrt(dr * dr + di * di) - e1
    if lo <= 0:
        return None
    hi = math.isqrt(pr * pr + pi * pi) + 1 + e
    return -(-(SLACK * n * hi << prec) // lo)


def complex_roots(p: UPoly, target_radius=DEFAULT_TARGET_RADIUS):
    """All complex roots of p with certified disks and exact multiplicities,
    sorted by (Re, Im) of the centers.

    Overlapping disks of two coprime factors are certified again at a quarter
    of the larger radius, up to MAX_ROUNDS times; then UncertifiedRootsError.
    """
    if not p:
        raise ValueError("cannot root-solve the zero polynomial")
    zx = p.to_zx()
    if len(zx) <= 1:
        return []
    real_poly = p.is_real()
    factors = [fm for fm in zx_sqf_list(zx) if len(fm[0]) > 1]
    found = [_certified_factor_roots(*fm, real_poly, target_radius) for fm in factors]
    for _ in range(MAX_ROUNDS + 1):
        clash = next(((i, j, a, b) for i in range(len(found)) for j in range(i + 1, len(found))
                      for a in found[i] for b in found[j] if a.overlaps(b)), None)
        if clash is None:
            return sorted(sum(found, []), key=lambda r: (r.center.real, r.center.imag))
        i, j, a, b = clash
        target = max(Fraction(a.rad, 1 << a.prec), Fraction(b.rad, 1 << b.prec)) / 4
        for k in (i, j):
            found[k] = _certified_factor_roots(*factors[k], real_poly, target)
    raise UncertifiedRootsError("root disks of coprime factors overlap", clusters=[a, b])


def _certified_factor_roots(fac, mult, real_poly, target_radius):
    n = len(fac) - 1
    prec = _coeff_prec(fac)
    approx = _np_initial_roots(fac)
    if approx is None or len(approx) != n:
        approx = _mp_initial_roots(fac, prec)
    is_real_poly = all(b == 0 for a, b in fac)
    disks = []
    for round_no in range(MAX_ROUNDS):
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
    approximation is not finite or the bound on |f'| at a center does not
    exclude 0."""
    shifted = [(a << prec, b << prec) for a, b in fac]
    out = []
    for z in approx:
        if not cmath.isfinite(z):
            return None
        x, y, h = _newton(shifted, _fixed(z.real, prec), _fixed(z.imag, prec), prec, passes)
        r = _radius(shifted, x, y, prec, h)
        if r is not None and is_real_poly and y and y * y <= r * r:
            y = 0
            r = _radius(shifted, x, y, prec)
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
