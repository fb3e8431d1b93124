"""Certified complex root finding for exact-coefficient polynomials.

Approximations come from numpy (fallback mpmath at higher precision);
certification is a Newton-residual disk bound: for a squarefree f of
degree n and any point z, the disk around z of radius n*|f(z)/f'(z)|
contains at least one root.  With one such disk per approximate root and
all disks pairwise disjoint, each disk contains exactly one root.
Multiplicities are exact, read off Yun's squarefree decomposition.

Residuals and Newton steps are evaluated in mpmath at enough working
precision for the coefficient sizes that come out of big resultants, with
a generous slack factor folded into every certified radius.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .poly import UPoly, cauchy_root_bound, sturm_chain, sturm_var_at, zx_sqf_list
from .scalars import QQ

__all__ = ["CertifiedRoot", "UncertifiedRootsError", "complex_roots"]

REAL_SNAP_TOL = 1e-9
DEFAULT_TARGET_RADIUS = 1e-12
SLACK = 4.0
MANDATORY_PASSES = 3


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
    of all sibling roots."""

    center: complex
    radius: float
    multiplicity: int
    real: bool = False

    def contains(self, z: complex, slack=1.0) -> bool:
        return abs(z - self.center) <= self.radius * slack

    def overlaps(self, other: "CertifiedRoot") -> bool:
        return abs(self.center - other.center) <= self.radius + other.radius


def _coeff_prec(zx) -> int:
    bits = max(max(abs(a), abs(b)).bit_length() for a, b in zx)
    return max(80, bits + 120)


def _mp_coeffs(zx, prec):
    with mp.workprec(prec):
        return [mp.mpc(a, b) for a, b in zx]


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
    with mp.workprec(prec):
        cs = _mp_coeffs(zx, prec)
        try:
            rts = mp.polyroots(list(reversed(cs)), maxsteps=200, extraprec=prec)
        except mp.libmp.libhyper.NoConvergence:
            rts = mp.polyroots(
                list(reversed(cs)), maxsteps=500, extraprec=2 * prec, error=False
            )
        return [complex(r) for r in rts]


def _newton_polish(zx, z0, prec, passes):
    """Newton iterations with exact coefficients at mpmath precision;
    returns (z, |f(z)/f'(z)| bound, |f(z)| residual)."""
    n = len(zx) - 1
    with mp.workprec(prec):
        cs = _mp_coeffs(zx, prec)
        dcs = [cs[j] * j for j in range(1, n + 1)]
        z = mp.mpc(z0)
        for _ in range(passes):
            f = cs[-1]
            for c in reversed(cs[:-1]):
                f = f * z + c
            fp = dcs[-1]
            for c in reversed(dcs[:-1]):
                fp = fp * z + c
            if fp == 0:
                break
            delta = f / fp
            z = z - delta
        f = cs[-1]
        for c in reversed(cs[:-1]):
            f = f * z + c
        fp = dcs[-1]
        for c in reversed(dcs[:-1]):
            fp = fp * z + c
        if fp == 0:
            return complex(z), float("inf"), abs(complex(f))
        bound = float(n * abs(f / fp))
        return complex(z), bound, float(abs(f))


def _real_root_count(zx):
    """Exact number of distinct real roots of a real squarefree zx."""
    coeffs = [a for a, b in zx]
    chain = sturm_chain(coeffs)
    b = cauchy_root_bound(coeffs)
    return sturm_var_at(chain, -b) - sturm_var_at(chain, b)


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
    factors = zx_sqf_list(zx)
    roots: list[CertifiedRoot] = []
    for fac, mult in factors:
        if len(fac) <= 1:
            continue
        roots.extend(_certified_factor_roots(fac, mult, target_radius, max_rounds))
    roots.sort(key=lambda r: (r.center.real, r.center.imag))
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            if a.overlaps(b):
                raise UncertifiedRootsError(
                    "root disks of coprime factors overlap", clusters=[a, b]
                )
    return roots


def _certified_factor_roots(fac, mult, target_radius, max_rounds):
    n = len(fac) - 1
    prec = _coeff_prec(fac)
    approx = _np_initial_roots(fac)
    if approx is None or len(approx) != n:
        approx = _mp_initial_roots(fac, prec)
    is_real_poly = all(b == 0 for a, b in fac)
    n_real = _real_root_count(fac) if is_real_poly else 0
    polished = []
    for round_no in range(max_rounds):
        passes = MANDATORY_PASSES + 2 * round_no
        polished = []
        ok = True
        for z0 in approx:
            z, bound, _resid = _newton_polish(fac, z0, prec, passes)
            if not (bound < float("inf")) or cmath.isnan(bound):
                ok = False
                break
            polished.append((z, bound * SLACK))
        if ok and _pairwise_disjoint(polished) and all(r <= target_radius for _, r in polished):
            out = _finalize(polished, fac, mult, is_real_poly, n_real)
            if out is not None:
                return out
        prec = int(prec * 1.6) + 60
        approx = _mp_initial_roots(fac, prec)
    raise UncertifiedRootsError(
        f"could not certify {n} disjoint root disks at target radius {target_radius}",
        clusters=[z for z, _ in polished],
    )


def _pairwise_disjoint(polished):
    for i, (zi, ri) in enumerate(polished):
        for zj, rj in polished[i + 1 :]:
            if abs(zi - zj) <= ri + rj:
                return False
    return True


def _finalize(polished, fac, mult, is_real_poly, n_real):
    out = []
    if is_real_poly:
        flagged = [(z, r, abs(z.imag) <= max(r, REAL_SNAP_TOL)) for z, r in polished]
        if sum(1 for _, _, f in flagged if f) != n_real:
            return None
        for z, r, f in flagged:
            c = complex(z.real, 0.0) if f else z
            out.append(CertifiedRoot(c, max(r, abs(z.imag) if f else r), mult, real=f))
    else:
        for z, r in polished:
            out.append(CertifiedRoot(z, r, mult, real=False))
    return out
