"""Projective points, collinearity minors, orientation signs, the quadric
double cover and stereographic projection.

Sign conventions (fixed once, used by every writhe recipe):

* RP3 is oriented so that the affine chart [1, x1, x2, x3] with frame
  (d1, d2, d3) is positive.  Dehomogenizing at coordinate k instead
  multiplies frame signs by the chart parity (-1)^k.
* Complex charts carry the orientation (Re1, Im1, Re2, Im2, ...); complex
  chart transitions are holomorphic, so no parity bookkeeping is needed
  on the complex side.
* The 3-sphere (the real quadric -c x0^2 + sum xi^2 = 0, normalized to
  x0 = 1) is oriented as the boundary of the ball in the x0 = 1 chart of
  R^4, outward normal first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import GenericityError
from .scalars import GaussianRational, QuadExt, QQ

__all__ = [
    "ProjPoint",
    "QuadricSpec",
    "DegenerateFrameError",
    "orientation_sign",
    "pi_project",
    "quadric_residual",
    "stereographic",
    "stereographic_inverse",
    "LineParam",
    "chart_parity",
    "best_chart",
]

CERT_MARGIN = 1e-6
REALNESS_TOL = 1e-9


class DegenerateFrameError(GenericityError):
    """Frame determinant below the certification threshold; triggers
    center reselection upstream."""


def _is_exact(v):
    return isinstance(v, (GaussianRational, int, Fraction))


def _to_value(v):
    if isinstance(v, (GaussianRational, QuadExt, complex, float)):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    raise TypeError(f"bad coordinate type {type(v).__name__}")


class ProjPoint:
    """Point of P3 or P4 with exact or approximate homogeneous coordinates."""

    __slots__ = ("coords", "ambient")

    def __init__(self, coords, ambient=None):
        coords = tuple(_to_value(c) for c in coords)
        if len(coords) not in (4, 5):
            raise ValueError("projective points here live in P3 or P4")
        if not any(self._nonzero(c) for c in coords):
            raise ValueError("all homogeneous coordinates are zero")
        self.coords = coords
        self.ambient = ambient or ("P3" if len(coords) == 4 else "P4")

    @staticmethod
    def _nonzero(c):
        if isinstance(c, (GaussianRational, QuadExt)):
            return bool(c)
        return abs(complex(c)) > 0

    @property
    def dim(self):
        return len(self.coords) - 1

    def is_exact(self):
        return all(isinstance(c, GaussianRational) for c in self.coords)

    def as_complex(self):
        return [complex(c) for c in self.coords]

    def normalized(self):
        """Scale so the largest-modulus coordinate is 1 (idempotent)."""
        if self.is_exact():
            k = max(range(len(self.coords)), key=lambda i: self.coords[i].abs2())
            d = self.coords[k]
            return ProjPoint([c / d for c in self.coords], self.ambient)
        cs = self.as_complex()
        k = max(range(len(cs)), key=lambda i: abs(cs[i]))
        d = cs[k]
        return ProjPoint([c / d for c in cs], self.ambient)

    def conjugate(self):
        if self.is_exact():
            return ProjPoint([c.conjugate() for c in self.coords], self.ambient)
        return ProjPoint([complex(c).conjugate() for c in self.coords], self.ambient)

    def is_real(self, tol=REALNESS_TOL):
        """Realness through the pairwise-product test: some scaling makes
        all coordinates real iff every x_i * conj(x_j) is real."""
        if self.is_exact():
            n = len(self.coords)
            for i in range(n):
                for j in range(i + 1, n):
                    if not (self.coords[i] * self.coords[j].conjugate()).is_real:
                        return False
            return True
        cs = self.normalized().as_complex()
        scale = max(abs(c) for c in cs)
        n = len(cs)
        for i in range(n):
            for j in range(i + 1, n):
                if abs((cs[i] * cs[j].conjugate()).imag) > tol * scale * scale:
                    return False
        return True

    def real_vector(self, tol=REALNESS_TOL):
        """Real coordinate list of a real point (phase removed)."""
        if self.is_exact():
            if not self.is_real():
                raise ValueError("point is not real")
            k = max(range(len(self.coords)), key=lambda i: self.coords[i].abs2())
            d = self.coords[k]
            return [(c / d).re for c in self.coords]
        cs = self.normalized().as_complex()
        if not self.is_real(tol):
            raise ValueError("point is not real within tolerance")
        return [c.real for c in cs]

    def same_point(self, other, tol=1e-9):
        """Projective equality within tolerance (exact when both exact)."""
        if self.is_exact() and other.is_exact():
            a, b = self.coords, other.coords
            for i in range(len(a)):
                for j in range(len(a)):
                    if a[i] * b[j] != a[j] * b[i]:
                        return False
            return True
        a = self.normalized().as_complex()
        b = other.normalized().as_complex()
        n = len(a)
        err = max(
            abs(a[i] * b[j] - a[j] * b[i]) for i in range(n) for j in range(n)
        )
        return err <= tol

    def __repr__(self):
        return f"ProjPoint({[str(c) if not isinstance(c, complex) else c for c in self.coords]})"


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


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def orientation_sign(vectors, chart_parity_sign=1, threshold=CERT_MARGIN):
    """Sign of det of the given real frame vectors (columns), times the
    chart parity.  Raises DegenerateFrameError when the Hadamard-scaled
    determinant sits below `threshold`."""
    n = len(vectors)
    if any(len(v) != n for v in vectors):
        raise ValueError("frame must be square")
    cols = [[float(x) for x in v] for v in vectors]
    det = _det_n([[cols[j][i] for j in range(n)] for i in range(n)])
    scale = 1.0
    for v in cols:
        norm = math.sqrt(sum(x * x for x in v))
        scale *= norm if norm > 0 else 1.0
    if scale == 0 or abs(det) < threshold * scale:
        raise DegenerateFrameError(
            f"frame determinant margin {abs(det) / scale if scale else 0.0:.3e} below {threshold}"
        )
    s = 1 if det > 0 else -1
    return s * (1 if chart_parity_sign >= 0 else -1)


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


def complex_frame_sign(real_vectors, complex_vectors, threshold=CERT_MARGIN):
    """Orientation of (real_vectors..., f, i f, ...) against the complex
    orientation (Re1, Im1, Re2, Im2, ...) of C^n.

    real_vectors: real n-vectors; complex_vectors: complex n-vectors,
    each contributing the ordered pair (f, i f).
    """
    n = len(real_vectors[0]) if real_vectors else len(complex_vectors[0])
    cols = []
    for v in real_vectors:
        col = []
        for x in v:
            col.extend([float(x), 0.0])
        cols.append(col)
    for f in complex_vectors:
        col_f, col_if = [], []
        for x in f:
            x = complex(x)
            col_f.extend([x.real, x.imag])
            col_if.extend([-x.imag, x.real])
        cols.append(col_f)
        cols.append(col_if)
    if len(cols) != 2 * n:
        raise ValueError("frame does not span the realified space")
    return orientation_sign([list(c) for c in cols], 1, threshold)


def chart_parity(k: int) -> int:
    """Orientation parity of the k-th affine chart of RP3 against the
    chart-0 convention: (-1)^k."""
    return -1 if k % 2 else 1


def best_chart(*points, exclude=()):
    """Chart index maximizing the smallest |coordinate| over the given
    (normalized) points; charts in `exclude` are skipped."""
    pts = [p.normalized().as_complex() for p in points]
    best, best_val = None, -1.0
    for k in range(len(pts[0])):
        if k in exclude:
            continue
        val = min(abs(p[k]) for p in pts)
        if val > best_val:
            best, best_val = k, val
    return best, best_val


def pi_project(x: ProjPoint) -> ProjPoint:
    """The double cover CQ3 -> CP3: project from [1,0,0,0,0] and drop x0.

    Antipodal real quadric points have the same image; the projection
    center itself is rejected.  Exact-quadratic coordinates are reduced
    to rationals when the projective point allows it.
    """
    if x.dim != 4:
        raise ValueError("pi_project expects a point of P4")
    rest = list(x.coords[1:])
    if not any(ProjPoint._nonzero(c) for c in rest):
        raise ValueError("cannot project the center [1,0,0,0,0]")
    if any(isinstance(c, QuadExt) for c in rest):
        reduced = rationalize_quadext(rest)
        if reduced is not None:
            rest = reduced
    return ProjPoint(rest, "P3")


def rationalize_quadext(coords):
    """Rational representative of a projective tuple with QuadExt entries,
    or None if the point is genuinely irrational."""
    qs = []
    for c in coords:
        if isinstance(c, QuadExt):
            qs.append(c)
        elif isinstance(c, GaussianRational) and c.is_real:
            qs.append(QuadExt(c.re))
        else:
            return None
    pivot = next((c for c in qs if c), None)
    if pivot is None:
        return None
    scaled = [c / pivot for c in qs]
    if all(c.is_rational() for c in scaled):
        return [GaussianRational(c.as_fraction()) for c in scaled]
    return None


def quadric_residual(x: ProjPoint, q: QuadricSpec):
    """-c x0^2 + x1^2 + ... + x4^2 at the normalized representative."""
    if x.dim != 4:
        raise ValueError("quadric residual expects a point of P4")
    xn = x.normalized()
    if xn.is_exact():
        c = GaussianRational(q.c)
        acc = -(c * xn.coords[0] * xn.coords[0])
        for v in xn.coords[1:]:
            acc = acc + v * v
        return acc
    if all(isinstance(v, QuadExt) for v in x.coords):
        c = QuadExt(q.c)
        acc = QuadExt(0) - c * x.coords[0] * x.coords[0]
        for v in x.coords[1:]:
            acc = acc + v * v
        # exact in the quadratic field, unnormalized scale is fine for
        # the zero test; mirror the normalized convention for nonzero
        return acc
    cs = xn.as_complex()
    return -float(q.c) * cs[0] * cs[0] + sum(v * v for v in cs[1:])


# ---------------------------------------------------------------------------
# stereographic projection of the real quadric
# ---------------------------------------------------------------------------


def _sphere_vector(x: ProjPoint, q: QuadricSpec):
    """The R^4 vector of a real quadric point in the x0 = 1 chart."""
    v = x.real_vector()
    if abs(v[0]) < 1e-13:
        raise ValueError("real quadric points have x0 != 0")
    vec = [v[i] / v[0] for i in range(1, 5)]
    r2 = sum(c * c for c in vec)
    if abs(r2 - float(q.c)) > 1e-6 * max(1.0, float(q.c)):
        raise ValueError("point is not on the quadric")
    return vec


def _pole_basis(pole_vec):
    """Deterministic basis (b1, b2, b3) of pole^perp in R^4 with
    det[pole, b1, b2, b3] < 0.

    This orientation makes the stereographic chart match the intrinsic
    sphere orientation fixed by the sign calibration: linking numbers of
    transferred curves then agree with the Gauss integral in the chart.
    """
    r = math.sqrt(sum(c * c for c in pole_vec))
    ph = [c / r for c in pole_vec]
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
    return ph, basis


def stereographic(x: ProjPoint, pole: ProjPoint, q: QuadricSpec):
    """Stereographic image of a real quadric point from `pole`, with the
    antipode of the pole at the origin and equatorial points on the unit
    sphere.  Returns (image vector in R^3, differential callback).

    The differential maps R^4 tangent vectors of the sphere at x to R^3.
    """
    pv = _sphere_vector(pole, q)
    xv = _sphere_vector(x, q)
    r = math.sqrt(sum(c * c for c in pv))
    ph, basis = _pole_basis(pv)
    dot = sum(xv[i] * ph[i] for i in range(4))
    denom = r - dot
    if abs(denom) < 1e-12 * r:
        raise ValueError("cannot project the pole itself")
    g = 1.0 / denom
    w = [ph[i] + (xv[i] - pv[i]) * g for i in range(4)]
    img = [sum(w[i] * b[i] for i in range(4)) for b in basis]

    def differential(u):
        ud = sum(u[i] * ph[i] for i in range(4))
        dvec = [u[i] * g + (xv[i] - pv[i]) * g * g * ud for i in range(4)]
        return [sum(dvec[i] * b[i] for i in range(4)) for b in basis]

    return img, differential


def stereographic_inverse(y, pole: ProjPoint, q: QuadricSpec) -> ProjPoint:
    """Inverse of `stereographic`; y is an R^3 vector in the pole basis.

    With w the image vector in pole-perp, the sphere point is
    x = p + lambda (w - p/r) with lambda = 2r / (|w|^2 + 1).
    """
    pv = _sphere_vector(pole, q)
    r = math.sqrt(sum(c * c for c in pv))
    ph, basis = _pole_basis(pv)
    w = [sum(y[a] * basis[a][i] for a in range(3)) for i in range(4)]
    lam = 2.0 * r / (sum(c * c for c in w) + 1.0)
    x = [pv[i] + lam * (w[i] - ph[i]) for i in range(4)]
    return ProjPoint([1.0 + 0j] + [complex(c) for c in x], "P4")


class LineParam:
    """The line through center c and base point s, parameterized as
    tau -> s + tau * c in a fixed chart; tau = 0 at s, tau = infinity at c.

    Real tau sweeps the real line (minus c); the two half planes of the
    complexified line are tagged by the sign of Im tau.
    """

    def __init__(self, c: ProjPoint, s: ProjPoint, chart=None):
        if c.same_point(s):
            raise ValueError("center and base point coincide")
        # keep the caller's representatives: tau values are tied to them
        # (the half-plane bookkeeping only ever pairs tau with the
        # direction d gamma / d tau, which makes v representative-free)
        self.c = c
        self.s = s
        if chart is None:
            chart, _ = best_chart(self.c, self.s)
        self.chart = chart
        self._cv = self.c.as_complex()
        self._sv = self.s.as_complex()

    def point_at(self, tau):
        cs = [self._sv[i] + tau * self._cv[i] for i in range(len(self._cv))]
        return ProjPoint(cs, self.c.ambient)

    def tau_of(self, x: ProjPoint):
        """Parameter of a point on the line (least squares on the
        homogeneous relation x ~ s + tau c)."""
        xv = x.normalized().as_complex()
        # solve for (alpha, beta): alpha*s + beta*c = lambda*x; fix scale by
        # the largest coordinate of x
        k = max(range(len(xv)), key=lambda i: abs(xv[i]))
        # alpha*s_k + beta*c_k = x_k (scale lambda = 1 at k); pick a second
        # row to solve the 2x2 system, the one maximizing the determinant
        best, rows = None, None
        for j in range(len(xv)):
            if j == k:
                continue
            det = self._sv[k] * self._cv[j] - self._sv[j] * self._cv[k]
            if best is None or abs(det) > best:
                best, rows = abs(det), j
        j = rows
        det = self._sv[k] * self._cv[j] - self._sv[j] * self._cv[k]
        if abs(det) < 1e-13:
            raise ValueError("point collinearity system is degenerate")
        alpha = (xv[k] * self._cv[j] - xv[j] * self._cv[k]) / det
        beta = (self._sv[k] * xv[j] - self._sv[j] * xv[k]) / det
        if abs(alpha) < 1e-13 * abs(beta):
            return complex(float("inf"), 0)
        return beta / alpha

    def half_plane(self, x: ProjPoint) -> str:
        t = self.tau_of(x)
        if t.imag > 0:
            return "upper"
        if t.imag < 0:
            return "lower"
        return "real"

    def real_direction(self):
        """Tangent of the real line at s in the chart, in the direction of
        increasing tau (chart coordinates with index `chart` removed)."""
        k = self.chart
        sv, cv = self._sv, self._cv
        d = sv[k]
        if abs(d) == 0:
            raise ZeroDivisionError("base point not in the line chart")
        # d/dtau [ (s_j + tau c_j) / (s_k + tau c_k) ] at tau = 0
        out = []
        for j in range(len(sv)):
            if j == k:
                continue
            out.append((cv[j] * sv[k] - sv[j] * cv[k]) / (sv[k] * sv[k]))
        return out
