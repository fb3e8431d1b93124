"""Exact projective points, float point vectors and orientation signs.

`ProjPoint` holds exact real homogeneous coordinates only, since every
projection center is real: rationals, or also `Surd` values a + b*sqrt(n)
for a quadric lift such as the trefoil's sqrt(2) center.  A float point
(a curve value at a certified root, a crossing image, a center read in
floats) is a plain list of complex numbers; `normalize` and
`is_real_vector` act on those lists.

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
  R^4, outward normal first.  Its real-pair sign is the 5x5 determinant
  det[q, x, (0, v), y, (0, w)] of sphere points x = (1, a), y = (1, b)
  with velocities v, w and q = (1, q') the antipode of the center's
  lift; subtracting the first column from the second and the fourth
  leaves det[a - q', v, b - q', w] in R^4, the frame of the two chords
  from q' and the two tangents (see diagram).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GenericityError
from .scalars import QQ, Surd

__all__ = [
    "ProjPoint",
    "QuadricSpec",
    "DegenerateFrameError",
    "orientation_sign",
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


def orientation_sign(vectors):
    """Sign of det of the given real frame vectors (columns).  Raises
    DegenerateFrameError when the Hadamard-scaled determinant sits below
    CERT_MARGIN."""
    n = len(vectors)
    if any(len(v) != n for v in vectors):
        raise ValueError("frame must be square")
    frame = np.array(vectors, dtype=float)  # one row per vector: the same det
    det = float(np.linalg.det(frame))
    norms = np.linalg.norm(frame, axis=1)
    scale = float(np.prod(norms[norms > 0]))
    if scale == 0 or abs(det) < CERT_MARGIN * scale:
        raise DegenerateFrameError(
            f"frame determinant margin {abs(det) / scale if scale else 0.0:.3e} below {CERT_MARGIN}"
        )
    return 1 if det > 0 else -1


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
