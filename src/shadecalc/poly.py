"""Exact polynomial arithmetic over Q(i) on one number type.

UPoly, BinaryForm and BivarPoly store one positive denominator `den` over
a table `num` of Gaussian integers, plain ``(a, b)`` int tuples for
a + b*i, in lowest terms: gcd(den, every a and b) == 1 and the zero
polynomial has den = 1, so equal values are equal objects.  Arithmetic is
integer arithmetic plus one lcm and one reduction per operation, and the
exact kernels (gcds, exact division, resultants) read the integer
tables.  `coeffs` / `rows` are exact GaussianRational views.
Float evaluation converts one coefficient at a time, complex(a / den,
b / den), which rounds exactly like the GaussianRational value.

Pseudo-remainder sequences strip content to keep sizes near-primitive.
Content is a Gaussian gcd taken in C-level integer gcds: math.gcd of all
parts gives the rational-integer content, and a Gaussian Euclid runs only
modulo the gcd of the norms of what is left, on small numbers.
Exact division is integer long division: by Gauss's lemma over the UFD
Z[i][z], a quotient by a primitive divisor has Gaussian-integer
coefficients, so an inexact step means the division is inexact.
Resultants of polynomial-entry Sylvester matrices go through integer
evaluation, fraction-free (Bareiss) determinants over Z[i] and Newton
interpolation, all in integers; degrees here stay below ~80.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import GaussianRational, QQ

__all__ = [
    "UPoly",
    "BinaryForm",
    "BivarPoly",
    "resultant",
    "real_roots_sturm",
]


class PolynomialError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gaussian integer helpers: values are (a, b) = a + b*i with python ints
# ---------------------------------------------------------------------------

GZERO = (0, 0)
GONE = (1, 0)


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gneg(x):
    return (-x[0], -x[1])


def gmul(x, y):
    a, b = x
    c, d = y
    if b == 0 and d == 0:
        return (a * c, 0)
    return (a * c - b * d, a * d + b * c)


def gnorm(x):
    return x[0] * x[0] + x[1] * x[1]


def gdivexact(x, y):
    """x / y in Z[i], asserting exactness."""
    a, b = x
    c, d = y
    n = c * c + d * d
    if n == 0:
        raise ZeroDivisionError("gaussian integer division by zero")
    re = a * c + b * d
    im = b * c - a * d
    qr, rr = divmod(re, n)
    qi, ri = divmod(im, n)
    if rr or ri:
        raise ArithmeticError("inexact gaussian integer division")
    return (qr, qi)


def gdivround(x, y):
    """Nearest Gaussian integer to x / y."""
    a, b = x
    c, d = y
    n = c * c + d * d
    re = a * c + b * d
    im = b * c - a * d
    return ((2 * re + n) // (2 * n), (2 * im + n) // (2 * n))


def ggcd(x, y):
    """Euclidean gcd in Z[i], normalized only up to units."""
    while y != GZERO:
        q = gdivround(x, y)
        x, y = y, gsub(x, gmul(q, y))
    return x


def _int_content(values):
    """gcd of every real and imaginary part (0 when all values are 0)."""
    n = 0
    for a, b in values:
        n = math.gcd(n, a, b)
        if n == 1:
            break
    return n


def glist_gcd(values):
    """Gaussian gcd of a sequence of Gaussian integers, up to a unit.

    The rational-integer content n comes first.  The Gaussian part g of
    the values divided by n divides each w * conj(w), hence the gcd N of
    their norms: N == 1 means g is a unit, and otherwise the Euclid runs
    from (N, 0) on the values reduced modulo N, which is small unless the
    values share a large Gaussian factor.  Values are only read, never
    copied.
    """
    n = _int_content(values)
    if n == 0:
        return GZERO
    norms = 0
    for a, b in values:
        if norms:
            m = n * norms
            a, b = (a % m) // n, (b % m) // n
        elif n > 1:
            a, b = a // n, b // n
        norms = math.gcd(norms, a * a + b * b)
        if norms == 1:
            return (n, 0)
    g = (norms, 0)
    m = n * norms
    for a, b in values:
        g = ggcd(g, ((a % m) // n, (b % m) // n))
        if gnorm(g) == 1:
            break
    return (n * g[0], n * g[1])


# ---------------------------------------------------------------------------
# zx_* kernels: univariate polynomials as little-endian lists of gints
# ---------------------------------------------------------------------------


def zx_strip(f):
    n = len(f)
    while n and f[n - 1] == GZERO:
        n -= 1
    return f[:n]


def zx_neg(f):
    return [gneg(c) for c in f]


def zx_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = gadd(out[i], c)
    return zx_strip(out)


def zx_sub(f, g):
    return zx_add(f, zx_neg(g))


def zx_mul(f, g):
    if not f or not g:
        return []
    out = [GZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == GZERO:
            continue
        for j, b in enumerate(g):
            if b == GZERO:
                continue
            out[i + j] = gadd(out[i + j], gmul(a, b))
    return out


def zx_diff(f):
    return zx_strip([gmul(c, (j, 0)) for j, c in enumerate(f)][1:])


def zx_primitive(f):
    f = zx_strip(f)
    if not f:
        return f
    g = glist_gcd(f)
    if g == GONE or gnorm(g) == 1:
        return f
    return [gdivexact(c, g) for c in f]


def zx_prem(f, g):
    """Pseudo-remainder of f by g (one lc(g) multiplier per step)."""
    dg = len(g) - 1
    if dg < 0:
        raise ZeroDivisionError("pseudo-remainder by zero polynomial")
    lc = g[-1]
    f = list(f)
    while f and len(f) - 1 >= dg:
        df = len(f) - 1
        top = f[-1]
        f = [gmul(c, lc) for c in f]
        shift = df - dg
        for j in range(dg + 1):
            f[shift + j] = gsub(f[shift + j], gmul(top, g[j]))
        f = zx_strip(f[:df])
    return f


def zx_gcd(f, g):
    """Primitive-PRS gcd over Z[i]; result primitive, unique up to units."""
    f, g = zx_primitive(list(f)), zx_primitive(list(g))
    if not f:
        return g
    if not g:
        return f
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = zx_prem(f, g)
        f, g = g, zx_primitive(r)
    return zx_primitive(f)


def zx_divexact(f, g):
    """f / g in Z[i][z], asserting exactness.

    Long division with an exact Gaussian division at each step.  When the
    quotient lies in Z[i][z], every partial quotient is one of its
    coefficients, so an inexact step or a nonzero remainder raises
    ArithmeticError: g does not divide f with an integral quotient.
    """
    f = zx_strip(list(f))
    g = zx_strip(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    lc = g[-1]
    q = [GZERO] * max(0, len(f) - dg)
    while len(f) > dg:
        k = len(f) - 1 - dg
        c = gdivexact(f[-1], lc)
        q[k] = c
        for j in range(dg):
            f[k + j] = gsub(f[k + j], gmul(c, g[j]))
        f = zx_strip(f[:-1])
    if f:
        raise ArithmeticError("inexact polynomial division")
    return zx_strip(q)


def zx_sqf_list(f):
    """Yun's squarefree decomposition: [(g1, 1), (g2, 2), ...] with
    f ~ prod gi^i up to content."""
    f = zx_primitive(f)
    if len(f) <= 1:
        return []
    d = zx_diff(f)
    a = zx_gcd(f, d)
    if len(a) == 1:
        return [(f, 1)]
    b = zx_divexact(f, a)
    c = zx_divexact(d, a)
    out = []
    i = 1
    while len(b) > 1:
        dmb = zx_sub(c, zx_diff(b))
        if not dmb:
            out.append((b, i))
            break
        g = zx_gcd(b, dmb)
        if len(g) > 1:
            out.append((g, i))
        b = zx_divexact(b, g)
        c = zx_divexact(dmb, g)
        i += 1
    return out


def _strip_int_content(f):
    """f divided by the largest rational integer dividing every coefficient."""
    n = _int_content(f)
    if n > 1:
        f = [(a // n, b // n) for a, b in f]
    return f


# ---------------------------------------------------------------------------
# the one representation: Gaussian integers over a common denominator
# ---------------------------------------------------------------------------


def _scalar(c):
    """(den, gint) with c = gint / den for an exact scalar c."""
    re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (Fraction(c), Fraction(0))
    den = math.lcm(re.denominator, im.denominator)
    return den, (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))


def _ints_of(rows):
    """(den, gint rows) for rows of exact scalars: den is their least
    common denominator and each gint is den times its scalar."""
    rows = [[_scalar(c) for c in r] for r in rows]
    den = math.lcm(1, *(d for r in rows for d, _ in r))
    return den, [[(a * (den // d), b * (den // d)) for d, (a, b) in r] for r in rows]


def _lowest_terms(den, rows):
    """(den, rows) divided by gcd(den, every integer part), so den > 0 is
    minimal and the zero polynomial gets den = 1."""
    g = den
    for r in rows:
        for a, b in r:
            g = math.gcd(g, a, b)
            if g == 1:
                return den, rows
    return den // g, [[(a // g, b // g) for a, b in r] for r in rows]


def _lift(num, k):
    """Integer table `num` multiplied by the rational integer k."""
    return num if k == 1 else [(a * k, b * k) for a, b in num]


def _exact(den, c):
    return GaussianRational(Fraction(c[0], den), Fraction(c[1], den))


class _IntTable:
    """Base of the polynomial classes: their slots are a shape (none, the
    degree, or the bidegree), then `den` and the integer table `num`."""

    __slots__ = ()

    @classmethod
    def _from_ints(cls, *shape_den_num):
        """From the shape and an integer table over den, any terms."""
        p = cls.__new__(cls)
        p._init(*shape_den_num)
        return p

    def _key(self):
        return tuple(getattr(self, a) for a in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


# ---------------------------------------------------------------------------
# UPoly: public univariate polynomial over Q(i)
# ---------------------------------------------------------------------------


class UPoly(_IntTable):
    """Dense univariate polynomial over Q(i), little-endian: Gaussian
    integers `num` (trailing zeros stripped) over one denominator `den`,
    in lowest terms.  `coeffs` is the exact GaussianRational view."""

    __slots__ = ("den", "num")

    def __init__(self, coeffs):
        den, (num,) = _ints_of([coeffs])
        self._init(den, num)

    def _init(self, den, num):
        den, (num,) = _lowest_terms(den, [zx_strip(list(num))])
        self.den, self.num = den, tuple(num)

    @classmethod
    def from_zx(cls, f):
        return cls._from_ints(1, f)

    def to_zx(self):
        """Primitive Z[i] coefficient list (self up to a positive rational)."""
        return _strip_int_content(list(self.num))

    @property
    def coeffs(self):
        return tuple(_exact(self.den, c) for c in self.num)

    @property
    def degree(self):
        return len(self.num) - 1

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        den = math.lcm(self.den, other.den)
        return UPoly._from_ints(
            den, zx_add(_lift(self.num, den // self.den), _lift(other.num, den // other.den))
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UPoly._from_ints(self.den, zx_neg(self.num))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            d, g = _scalar(other)
            return UPoly._from_ints(self.den * d, [gmul(c, g) for c in self.num])
        return UPoly._from_ints(self.den * other.den, zx_mul(self.num, other.num))

    __rmul__ = __mul__

    def derivative(self):
        return UPoly._from_ints(self.den, zx_diff(self.num))

    def __call__(self, z):
        if isinstance(z, (GaussianRational, int, Fraction)):
            acc = GaussianRational(0)
            for c in reversed(self.coeffs):
                acc = acc * z + c
            return acc
        acc = 0j
        den = self.den
        for a, b in reversed(self.num):
            acc = acc * complex(z) + complex(a / den, b / den)
        return acc

    def is_real(self):
        return all(b == 0 for _, b in self.num)

    def conjugate(self):
        return UPoly._from_ints(self.den, [(a, -b) for a, b in self.num])

    def gcd(self, other):
        return UPoly.from_zx(zx_gcd(self.to_zx(), other.to_zx()))

    def __repr__(self):
        return f"UPoly({[str(c) for c in self.coeffs]})"


def real_roots_sturm(p: UPoly, width=QQ(1, 2**40)):
    """Sorted disjoint closed rational intervals, one per distinct real
    root of a real polynomial, each of width `width` around the exact
    center of a certified real disk from roots.complex_roots (the disk's
    own [c - r, c + r] when two roots lie closer than `width`).

    There is no Sturm chain behind it: the benchmark ledger wraps this
    function by name, which waits for the next benchmark change.
    """
    from .roots import complex_roots  # roots imports this module

    if not p:
        raise PolynomialError("zero polynomial has no isolated roots")
    if not p.is_real():
        raise PolynomialError("polynomial has non-real coefficients")
    h = width / 2
    disks = [
        (Fraction(r.re, 1 << r.prec), Fraction(r.rad, 1 << r.prec))
        for r in complex_roots(p, h)
        if r.real
    ]
    wide = [(c - h, c + h) for c, _ in disks]
    if all(a[1] < b[0] for a, b in zip(wide, wide[1:])):
        return wide
    return [(c - r, c + r) for c, r in disks]


# ---------------------------------------------------------------------------
# BinaryForm: homogeneous polynomial in (s, t)
# ---------------------------------------------------------------------------


class BinaryForm(_IntTable):
    """Homogeneous form of declared degree d over Q(i): Gaussian integers
    `num` over one denominator `den`, in lowest terms, where num[k] / den
    multiplies s^(d-k) t^k.  The zero form keeps its declared degree.
    `coeffs` is the exact GaussianRational view."""

    __slots__ = ("degree", "den", "num")

    def __init__(self, degree, coeffs):
        if degree < 0:
            raise PolynomialError("degree must be nonnegative")
        den, (num,) = _ints_of([coeffs])
        if len(num) != degree + 1:
            raise PolynomialError(
                f"form of degree {degree} needs {degree + 1} coefficients, got {len(num)}"
            )
        self._init(degree, den, num)

    def _init(self, degree, den, num):
        den, (num,) = _lowest_terms(den, [num])
        self.degree, self.den, self.num = degree, den, tuple(num)

    @classmethod
    def zero(cls, degree):
        return cls._from_ints(degree, 1, [GZERO] * (degree + 1))

    @property
    def coeffs(self):
        return tuple(_exact(self.den, c) for c in self.num)

    def is_zero(self):
        return all(c == GZERO for c in self.num)

    def is_real(self):
        return all(b == 0 for _, b in self.num)

    def conjugate(self):
        return BinaryForm._from_ints(self.degree, self.den, [(a, -b) for a, b in self.num])

    def __add__(self, other):
        if self.degree != other.degree:
            raise PolynomialError("degree mismatch in form addition")
        den = math.lcm(self.den, other.den)
        f, g = _lift(self.num, den // self.den), _lift(other.num, den // other.den)
        return BinaryForm._from_ints(self.degree, den, [gadd(a, b) for a, b in zip(f, g)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BinaryForm._from_ints(self.degree, self.den, zx_neg(self.num))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            d, g = _scalar(other)
            return BinaryForm._from_ints(self.degree, self.den * d, [gmul(c, g) for c in self.num])
        return BinaryForm._from_ints(
            self.degree + other.degree, self.den * other.den, zx_mul(self.num, other.num)
        )

    __rmul__ = __mul__

    def eval(self, s, t):
        """Evaluate at (s, t): exact for exact scalars, complex otherwise."""
        if isinstance(s, complex) or isinstance(t, complex):
            sv, tv = complex(s), complex(t)
            acc = 0j
            tp = 1.0 + 0j
            spows = [1.0 + 0j]
            for _ in range(self.degree):
                spows.append(spows[-1] * sv)
            den = self.den
            for k, (a, b) in enumerate(self.num):
                if a or b:
                    acc += complex(a / den, b / den) * spows[self.degree - k] * tp
                tp *= tv
            return acc
        sg = s if isinstance(s, GaussianRational) else GaussianRational(s)
        tg = t if isinstance(t, GaussianRational) else GaussianRational(t)
        if not sg and not tg:
            raise PolynomialError("(0, 0) is not a point of the parameter line")
        # homogeneous Horner: acc = sum over i <= k of c_i s^(k-i) t^i
        acc, tp = GaussianRational(0), GaussianRational(1)
        for c in self.coeffs:
            acc = acc * sg + c * tp
            tp = tp * tg
        return acc

    def d_ds(self):
        if self.degree == 0:
            return BinaryForm.zero(0)
        d = self.degree
        return BinaryForm._from_ints(
            d - 1, self.den, [(a * (d - k), b * (d - k)) for k, (a, b) in enumerate(self.num[:d])]
        )

    def d_dt(self):
        if self.degree == 0:
            return BinaryForm.zero(0)
        return BinaryForm._from_ints(
            self.degree - 1, self.den, [(a * k, b * k) for k, (a, b) in enumerate(self.num)][1:]
        )

    def chart_t(self) -> UPoly:
        """f(1, t) as a polynomial in t."""
        return UPoly._from_ints(self.den, self.num)

    def chart_s(self) -> UPoly:
        """f(s, 1) as a polynomial in s."""
        return UPoly._from_ints(self.den, self.num[::-1])

    def __repr__(self):
        return f"BinaryForm({self.degree}, {[str(c) for c in self.coeffs]})"


def form_gcd(forms):
    """Gcd of binary forms: the common s- and t-powers times the gcd of
    the dehomogenized cores."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        raise PolynomialError("gcd of zero forms")
    s_pow = None
    t_pow = None
    cores = []
    for f in forms:
        cs = f.num
        lead = 0
        while cs[lead] == GZERO:
            lead += 1
        trail = 0
        while cs[len(cs) - 1 - trail] == GZERO:
            trail += 1
        t_pow = lead if t_pow is None else min(t_pow, lead)
        s_pow = trail if s_pow is None else min(s_pow, trail)
        cores.append(_strip_int_content(list(cs[lead : len(cs) - trail])))
    g = cores[0]
    for c in cores[1:]:
        g = zx_gcd(g, c)
        if len(g) == 1:
            break
    d = len(g) - 1 + s_pow + t_pow
    return BinaryForm._from_ints(d, 1, [GZERO] * t_pow + list(g) + [GZERO] * s_pow)


# ---------------------------------------------------------------------------
# BivarPoly: bihomogeneous in (s,t) x (u,v); the coefficient matrix read
# affinely is the polynomial in the chart z = t/s, w = v/u
# ---------------------------------------------------------------------------


class BivarPoly(_IntTable):
    """Bihomogeneous polynomial of declared bidegree (m, n) over Q(i):
    Gaussian integers num[j][k] over one denominator `den`, in lowest
    terms, where num[j][k] / den multiplies s^(m-j) t^j u^(n-k) v^k.
    `rows` is the exact GaussianRational view."""

    __slots__ = ("m", "n", "den", "num")

    def __init__(self, m, n, rows):
        if len(rows) != m + 1 or any(len(r) != n + 1 for r in rows):
            raise PolynomialError("coefficient matrix shape mismatch")
        den, num = _ints_of(rows)
        self._init(m, n, den, num)

    def _init(self, m, n, den, num):
        den, num = _lowest_terms(den, num)
        self.m, self.n, self.den = m, n, den
        self.num = tuple(tuple(r) for r in num)

    @classmethod
    def zero(cls, m, n):
        return cls._from_ints(m, n, 1, [[GZERO] * (n + 1) for _ in range(m + 1)])

    @classmethod
    def from_form_product(cls, f: BinaryForm, g: BinaryForm):
        """f(s,t) * g(u,v)."""
        rows = [[gmul(a, b) for b in g.num] for a in f.num]
        return cls._from_ints(f.degree, g.degree, f.den * g.den, rows)

    @classmethod
    def combination(cls, terms):
        """Sum of c * p over (c, p) pairs of exact scalars c and
        polynomials p of one bidegree, on one common denominator."""
        terms = [(_scalar(c), p) for c, p in terms]
        m, n = terms[0][1].m, terms[0][1].n
        if any((p.m, p.n) != (m, n) for _, p in terms):
            raise PolynomialError("bidegree mismatch")
        den = math.lcm(*(d * p.den for (d, _), p in terms))
        rows = [[GZERO] * (n + 1) for _ in range(m + 1)]
        for (d, (a, b)), p in terms:
            k = den // (d * p.den)
            g = (a * k, b * k)
            for out, r in zip(rows, p.num):
                for i, c in enumerate(r):
                    if c != GZERO:
                        out[i] = gadd(out[i], gmul(g, c))
        return cls._from_ints(m, n, den, rows)

    @property
    def rows(self):
        return tuple(tuple(_exact(self.den, c) for c in r) for r in self.num)

    def is_zero(self):
        return all(c == GZERO for r in self.num for c in r)

    def is_real(self):
        return all(b == 0 for r in self.num for _, b in r)

    def __add__(self, other):
        return BivarPoly.combination([(1, self), (1, other)])

    def __sub__(self, other):
        return BivarPoly.combination([(1, self), (-1, other)])

    def eval_pair(self, st, uv):
        """Complex value at projective parameters st = (s, t), uv = (u, v)."""
        s, t = complex(st[0]), complex(st[1])
        u, v = complex(uv[0]), complex(uv[1])
        acc = 0j
        spow = [s**e for e in range(self.m + 1)]
        tpow = [t**e for e in range(self.m + 1)]
        upow = [u**e for e in range(self.n + 1)]
        vpow = [v**e for e in range(self.n + 1)]
        den = self.den
        for j in range(self.m + 1):
            stj = spow[self.m - j] * tpow[j]
            row = self.num[j]
            for k in range(self.n + 1):
                a, b = row[k]
                if a or b:
                    acc += complex(a / den, b / den) * stj * upow[self.n - k] * vpow[k]
        return acc

    def swap_vars(self):
        return BivarPoly._from_ints(self.n, self.m, self.den, list(zip(*self.num)))

    def __repr__(self):
        return f"BivarPoly(m={self.m}, n={self.n})"


# -- gcd / exact division / saturation --------------------------------------


def _to_columns(p: BivarPoly):
    """Affine view as w-columns: cols[k] is the zx poly in z of p.den
    times the w^k coefficient."""
    cols = [zx_strip([r[k] for r in p.num]) for k in range(p.n + 1)]
    while cols and not cols[-1]:
        cols.pop()
    return cols


def _from_columns(m, n, den, cols):
    """The BivarPoly of declared bidegree (m, n) whose w^k coefficient is
    cols[k] / den; the inverse of _to_columns."""
    if len(cols) > n + 1 or any(len(col) > m + 1 for col in cols):
        raise PolynomialError("affine table exceeds declared bidegree")
    rows = [[GZERO] * (n + 1) for _ in range(m + 1)]
    for k, col in enumerate(cols):
        for j, c in enumerate(col):
            rows[j][k] = c
    return BivarPoly._from_ints(m, n, den, rows)


def _cols_poly_content(cols):
    g = []
    for col in cols:
        if not col:
            continue
        g = zx_gcd(g, col) if g else list(col)
        if len(g) == 1:
            break
    return g


def _cols_scalar_primitive(cols):
    flat = [c for col in cols for c in col]
    g = glist_gcd(flat)
    if g == GZERO or gnorm(g) == 1:
        return cols
    return [[gdivexact(c, g) for c in col] for col in cols]


def _cols_prem(f, g):
    """Pseudo-remainder in w of column lists over Z[i][z]."""
    dg = len(g) - 1
    lc = g[-1]
    f = [list(col) for col in f]
    while f and len(f) - 1 >= dg:
        df = len(f) - 1
        top = f[-1]
        f = [zx_strip(zx_mul(col, lc)) if col else [] for col in f]
        shift = df - dg
        for j in range(dg + 1):
            f[shift + j] = zx_sub(f[shift + j], zx_mul(top, g[j]))
        f = f[:df]
        while f and not f[-1]:
            f.pop()
    return f


def bivar_gcd(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """Gcd of bihomogeneous polynomials (bihomogeneous again): primitive
    PRS in the affine chart plus bookkeeping for the pure s- and u-powers
    the chart cannot see."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    pc, qc = _to_columns(p), _to_columns(q)
    p_updef = p.n + 1 - len(pc)
    q_updef = q.n + 1 - len(qc)
    p_sdef = p.m - max(len(col) - 1 for col in pc if col)
    q_sdef = q.m - max(len(col) - 1 for col in qc if col)
    ca = _cols_poly_content(pc)
    cb = _cols_poly_content(qc)
    fa = [zx_divexact(col, ca) if col else [] for col in pc] if len(ca) > 1 else pc
    fb = [zx_divexact(col, cb) if col else [] for col in qc] if len(cb) > 1 else qc
    gcont = zx_gcd(ca, cb)
    f, g = (fa, fb) if len(fa) >= len(fb) else (fb, fa)
    while g:
        r = _cols_prem(f, g)
        r = _cols_scalar_primitive(r)
        if r:
            cr = _cols_poly_content(r)
            if len(cr) > 1:
                r = [zx_divexact(col, cr) if col else [] for col in r]
        f, g = g, r
    f = _cols_scalar_primitive(f)
    cf = _cols_poly_content(f)
    if len(cf) > 1:
        f = [zx_divexact(col, cf) if col else [] for col in f]
    if len(gcont) > 1:
        f = [zx_strip(zx_mul(col, gcont)) if col else [] for col in f]
    m_decl = max(len(col) - 1 for col in f if col) + min(p_sdef, q_sdef)
    n_decl = len(f) - 1 + min(p_updef, q_updef)
    return _from_columns(m_decl, n_decl, 1, f)


def bivar_divexact(p: BivarPoly, d: BivarPoly) -> BivarPoly:
    """p / d asserting exactness; declared bidegrees subtract.

    Works on the integer tables with the Gaussian content of d's divided
    out, so by Gauss's lemma an exact quotient has Z[i] coefficients.
    Long division in w then divides column by column with zx_divexact,
    and the quotient is rescaled once at the end.  An inexact step or a
    nonzero remainder raises ArithmeticError.
    """
    if d.is_zero():
        raise PolynomialError("division by the zero polynomial")
    m, n = p.m - d.m, p.n - d.n
    if m < 0 or n < 0:
        raise ArithmeticError("inexact bivariate division")
    fp, fd = _to_columns(p), _to_columns(d)
    if not fp:
        return BivarPoly.zero(m, n)
    nq = len(fp) - len(fd)
    if nq < 0:
        raise ArithmeticError("inexact bivariate division")
    cont = glist_gcd([c for col in fd for c in col])
    fd = [[gdivexact(c, cont) for c in col] for col in fd]
    lead = fd[-1]
    qcols = [None] * (nq + 1)
    rem = list(fp)
    for k in range(nq, -1, -1):
        qk = zx_divexact(rem[k + len(fd) - 1], lead)
        qcols[k] = qk
        for j in range(len(fd) - 1):
            rem[k + j] = zx_sub(rem[k + j], zx_mul(qk, fd[j]))
        rem[k + len(fd) - 1] = []
    if any(rem):
        raise ArithmeticError("inexact bivariate division")
    # p / d = q d.den / (p.den cont), and 1 / cont = conj(cont) / |cont|^2
    scale = (cont[0] * d.den, -cont[1] * d.den)
    qcols = [[gmul(c, scale) for c in col] for col in qcols]
    return _from_columns(m, n, p.den * gnorm(cont), qcols)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _bareiss_det(M):
    """Fraction-free determinant of a square gint matrix (destructive)."""
    n = len(M)
    if n == 0:
        return GONE
    sign = 1
    prev = GONE
    for k in range(n - 1):
        if M[k][k] == GZERO:
            for i in range(k + 1, n):
                if M[i][k] != GZERO:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return GZERO
        pk = M[k][k]
        for i in range(k + 1, n):
            Mi = M[i]
            Mk = M[k]
            mik = Mi[k]
            for j in range(k + 1, n):
                num = gsub(gmul(pk, Mi[j]), gmul(mik, Mk[j]))
                Mi[j] = gdivexact(num, prev)
        prev = pk
    d = M[n - 1][n - 1]
    return gneg(d) if sign < 0 else d


def _sylvester_det(acoeffs, bcoeffs, na, nb):
    """det of the Sylvester matrix for coefficient sequences listed by
    descending power of the eliminated variable's first coordinate."""
    size = na + nb
    M = []
    for sh in range(nb):
        row = [GZERO] * size
        for j, c in enumerate(acoeffs):
            row[sh + j] = c
        M.append(row)
    for sh in range(na):
        row = [GZERO] * size
        for j, c in enumerate(bcoeffs):
            row[sh + j] = c
        M.append(row)
    return _bareiss_det(M)


def _interp_newton(xs, ys):
    """Little-endian gint coefficients of the polynomial through integer
    nodes xs with gint values ys.

    The values come from a Z[i] polynomial, whose divided differences at
    integer nodes are Gaussian integers, so every division is exact; an
    inexact one raises ArithmeticError.
    """
    n = len(xs)
    dd = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = gdivexact(gsub(dd[i], dd[i - 1]), (xs[i] - xs[i - j], 0))
    coeffs = [GZERO] * n
    for i in range(n - 1, -1, -1):
        # coeffs <- coeffs * (x - xs[i]) + dd[i]
        new = [GZERO] * n
        new[0] = dd[i]
        for j in range(n - 1):
            cj = coeffs[j]
            if cj != GZERO:
                new[j + 1] = gadd(new[j + 1], cj)
                new[j] = gsub(new[j], gmul(cj, (xs[i], 0)))
        coeffs = new
    return coeffs


def bivar_resultant_w(p: BivarPoly, q: BivarPoly, strip_content=False) -> BinaryForm:
    """Homogeneous resultant eliminating the (u, v) pair.

    p, q are read as binary forms of their declared (u, v)-degrees with
    BinaryForm coefficients in (s, t); the result is a binary form in
    (s, t) of degree p.m*q.n + q.m*p.n.  Coefficient sequences enter the
    Sylvester matrix by ascending v-power, which matches the classical
    resultant up to the factor (-1)^(deg_f * deg_g).

    With strip_content=True the result is reduced to a primitive integer
    multiple (only root sets survive; used by the chord solver).
    """
    na, nb = p.n, q.n
    if na == 0 or nb == 0:
        raise PolynomialError("positive degree in the eliminated variable required")
    D = p.m * q.n + q.m * p.n
    den = math.lcm(p.den, q.den)
    pa = [_lift(r, den // p.den) for r in p.num]
    qa = [_lift(r, den // q.den) for r in q.num]

    def w_coeffs_at(rows, m, n, zeta):
        # u^(n-k) v^k coefficient forms evaluated at (s, t) = (1, zeta),
        # listed by descending u-power (k ascending)
        out = []
        for k in range(n + 1):
            acc = GZERO
            for j in range(m, -1, -1):
                acc = gadd(gmul(acc, (zeta, 0)), rows[j][k])
            out.append(acc)
        return out

    xs, ys = [], []
    zeta = 0
    while len(xs) < D + 1:
        acoeffs = w_coeffs_at(pa, p.m, p.n, zeta)
        bcoeffs = w_coeffs_at(qa, q.m, q.n, zeta)
        ys.append(_sylvester_det(acoeffs, bcoeffs, na, nb))
        xs.append(zeta)
        zeta = -zeta + (1 if zeta <= 0 else 0)
    coeffs = _interp_newton(xs, ys)
    if strip_content:
        return BinaryForm._from_ints(D, 1, _strip_int_content(coeffs))
    # the determinants are of the inputs scaled by den, one row each
    return BinaryForm._from_ints(D, den ** (na + nb), coeffs)


def resultant(f: BivarPoly, g: BivarPoly, eliminate: str = "w") -> UPoly:
    """Sylvester resultant of bivariate polynomials, eliminating the named
    variable ("w" = second pair, "z" = first); univariate in the survivor.

    Vanishes at z0 iff f(z0, .), g(z0, .) share a root or both leading
    coefficients vanish at z0.
    """
    if f.is_zero() or g.is_zero():
        raise PolynomialError("resultant of the zero polynomial")
    if eliminate == "z":
        f, g = f.swap_vars(), g.swap_vars()
    elif eliminate != "w":
        raise PolynomialError(f"unknown variable tag {eliminate!r}")
    if f.n == 0 or g.n == 0:
        raise PolynomialError("positive degree in the eliminated variable required")
    return bivar_resultant_w(f, g).chart_t()
