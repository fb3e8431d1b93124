"""Exact projective points, float point vectors, orientation signs and
the stereographic projection of the quadric.

`ProjPoint` holds exact real homogeneous coordinates only, since every
projection center is real: rationals, or also `Surd` values a + b*sqrt(n)
for a quadric lift such as the trefoil's sqrt(2) center.  A float point
(a curve value at a certified root, a crossing image, a center read in
floats) is a plain list of complex numbers; `normalize` and
`is_real_vector` act on those lists, and `pole_frame` reads a quadric
pole into floats once for `stereographic`.

Sign conventions (fixed once, used by every writhe recipe):

* RP3 is oriented so that the affine chart [1, x1, x2, x3] with frame
  (d1, d2, d3) is positive.  The P3 recipes never pick a chart: they
  take the sign of a 4x4 determinant of homogeneous vectors in R^4.
  With x = (1, a), y = (1, b) and velocities (0, v), (0, w),
  det[x, (0, v), y, (0, w)] = det[v, b - a, w] is the chart-0 frame
  sign.  Dehomogenizing at coordinate k instead moves row k to the
  front, a permutation of sign (-1)^k: the chart parity that an affine
  recipe has to track, and that the determinant carries by itself.
* The 3-sphere (the real quadric -c x0^2 + sum xi^2 = 0, normalized to
  x0 = 1) is oriented as the boundary of the ball in the x0 = 1 chart of
  R^4, outward normal first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import GenericityError
from .scalars import QQ, Surd, surd_parts

__all__ = [
    "ProjPoint",
    "QuadricSpec",
    "DegenerateFrameError",
    "orientation_sign",
    "PoleFrame",
    "pole_frame",
    "stereographic",
    "stereographic_inverse",
    "normalize",
    "is_real_vector",
]

CERT_MARGIN = 1e-6
REALNESS_TOL = 1e-9


class DegenerateFrameError(GenericityError):
    """Frame determinant below the certification threshold; triggers
    center reselection upstream."""


def _to_value(v):
    if isinstance(v, Surd):
        return v
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError(f"bad coordinate type {type(v).__name__}")


class ProjPoint:
    """Point of P3 or P4 with exact real homogeneous coordinates:
    rationals, or also Surd values for a quadric lift."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(_to_value(c) for c in coords)
        if len(coords) not in (4, 5):
            raise ValueError("projective points here live in P3 or P4")
        if not any(coords):
            raise ValueError("all homogeneous coordinates are zero")
        self.coords = coords

    def normalized(self):
        """Scale so the largest-modulus coordinate is 1 (rational
        coordinates only; idempotent)."""
        if any(isinstance(c, Surd) for c in self.coords):
            raise TypeError("normalized needs rational coordinates")
        k = max(range(len(self.coords)), key=lambda i: abs(self.coords[i]))
        d = self.coords[k]
        return ProjPoint([c / d for c in self.coords])

    def __repr__(self):
        return f"ProjPoint({[str(c) for c in self.coords]})"


@dataclass(frozen=True)
class QuadricSpec:
    """The quadric -c x0^2 + x1^2 + ... + x4^2 = 0 in P4; c > 0."""

    c: Fraction

    def __post_init__(self):
        if QQ(self.c) <= 0:
            raise ValueError("quadric scale must be positive")
        object.__setattr__(self, "c", QQ(self.c))

    @property
    def radius(self) -> float:
        return math.sqrt(float(self.c))


def orientation_sign(vectors):
    """Sign of det of the given real frame vectors (columns).  Raises
    DegenerateFrameError when the Hadamard-scaled determinant sits below
    CERT_MARGIN."""
    n = len(vectors)
    if any(len(v) != n for v in vectors):
        raise ValueError("frame must be square")
    cols = [[float(x) for x in v] for v in vectors]
    det = _det_n([[cols[j][i] for j in range(n)] for i in range(n)])
    scale = 1.0
    for v in cols:
        norm = math.sqrt(sum(x * x for x in v))
        scale *= norm if norm > 0 else 1.0
    if scale == 0 or abs(det) < CERT_MARGIN * scale:
        raise DegenerateFrameError(
            f"frame determinant margin {abs(det) / scale if scale else 0.0:.3e} below {CERT_MARGIN}"
        )
    return 1 if det > 0 else -1


def _det_n(m):
    n = len(m)
    a = [row[:] for row in m]
    det = 1.0
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        if abs(a[piv][k]) == 0.0:
            return 0.0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


# ---------------------------------------------------------------------------
# float points as complex vectors
# ---------------------------------------------------------------------------


def normalize(v):
    """Scale a complex vector so its largest-modulus entry is 1."""
    k = max(range(len(v)), key=lambda i: abs(v[i]))
    d = v[k]
    return [c / d for c in v]


def is_real_vector(v):
    """Pairwise-product realness test on a normalized vector: some scaling
    makes every entry real iff every v_i * conj(v_j) is real."""
    scale = max(abs(c) for c in v)
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if abs((v[i] * v[j].conjugate()).imag) > REALNESS_TOL * scale * scale:
                return False
    return True


# ---------------------------------------------------------------------------
# stereographic projection of the real quadric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleFrame:
    """A pole of the real quadric in floats, built once per pole: its R^4
    vector pv in the x0 = 1 chart, r = |pv|, the unit pole ph and the
    basis (b1, b2, b3) of ph^perp."""

    pv: list
    r: float
    ph: list
    basis: list


def pole_frame(pole: ProjPoint) -> PoleFrame:
    """The stereographic frame of a real quadric point given exactly.

    The basis is deterministic, with det[ph, b1, b2, b3] < 0.  This
    orientation makes the stereographic chart match the intrinsic sphere
    orientation fixed by the sign calibration: linking numbers of
    transferred curves then agree with the Gauss integral in the chart.
    """
    A, B, rad = surd_parts(pole.coords)
    # x0 = a0 + b0 sqrt(rad) with rad = 0 or not a square: den = 0 iff x0 = 0
    a0, b0 = A[0], B[0]
    den = a0 * a0 - rad * b0 * b0
    if not den:
        raise GenericityError("real quadric points have x0 != 0")
    pv = []
    for ai, bi in zip(A[1:], B[1:]):
        # xi / x0 = p + q sqrt(rad) exactly, then one rounding of each part
        p, q = (ai * a0 - rad * bi * b0) / den, (bi * a0 - ai * b0) / den
        pv.append(float(p) + float(q) * math.sqrt(rad) if q else float(p))
    r = math.sqrt(sum(c * c for c in pv))
    ph = [c / r for c in pv]
    idx = sorted(range(4), key=lambda i: abs(ph[i]))[:3]
    idx.sort()
    basis = []
    for i in idx:
        e = [0.0] * 4
        e[i] = 1.0
        for b in [ph] + basis:
            d = sum(e[j] * b[j] for j in range(4))
            e = [e[j] - d * b[j] for j in range(4)]
        n = math.sqrt(sum(c * c for c in e))
        basis.append([c / n for c in e])
    det = _det_n([[v[i] for v in [ph] + basis] for i in range(4)])
    if det > 0:
        basis[1], basis[2] = basis[2], basis[1]
    return PoleFrame(pv, r, ph, basis)


def stereographic(xv, frame: PoleFrame):
    """Stereographic image of the sphere point xv (an R^4 vector in the
    x0 = 1 chart) from the frame's pole, with the antipode of the pole at
    the origin and equatorial points on the unit sphere.  Returns (image
    vector in R^3, differential callback).

    The differential maps R^4 tangent vectors of the sphere at xv to R^3.
    """
    pv, r, ph, basis = frame.pv, frame.r, frame.ph, frame.basis
    if abs(sum(c * c for c in xv) - r * r) > 1e-6 * max(1.0, r * r):
        raise GenericityError("point is not on the quadric")
    dot = sum(xv[i] * ph[i] for i in range(4))
    denom = r - dot
    if abs(denom) < 1e-12 * r:
        raise GenericityError("cannot project the pole itself")
    g = 1.0 / denom
    w = [ph[i] + (xv[i] - pv[i]) * g for i in range(4)]
    img = [sum(w[i] * b[i] for i in range(4)) for b in basis]

    def differential(u):
        ud = sum(u[i] * ph[i] for i in range(4))
        dvec = [u[i] * g + (xv[i] - pv[i]) * g * g * ud for i in range(4)]
        return [sum(dvec[i] * b[i] for i in range(4)) for b in basis]

    return img, differential


def stereographic_inverse(y, frame: PoleFrame):
    """Inverse of `stereographic`: the R^4 sphere vector of the R^3 vector
    y in the pole basis.

    With w the image vector in pole-perp, the sphere point is
    x = p + lambda (w - p/r) with lambda = 2r / (|w|^2 + 1).
    """
    pv, r, ph, basis = frame.pv, frame.r, frame.ph, frame.basis
    w = [sum(y[a] * basis[a][i] for a in range(3)) for i in range(4)]
    lam = 2.0 * r / (sum(c * c for c in w) + 1.0)
    return [pv[i] + lam * (w[i] - ph[i]) for i in range(4)]
