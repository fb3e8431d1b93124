"""Exact polynomial arithmetic over Q(i) on one number type.

BinaryForm and BivarPoly store one positive denominator `den` over a
table `num` of Gaussian integers, plain ``(a, b)`` int tuples for a + b*i,
in lowest terms: gcd(den, every a and b) == 1 and the zero
polynomial has den = 1, so equal values are equal objects.  Arithmetic is
integer arithmetic plus one lcm and one reduction per operation, and the
exact kernels (gcds, exact division, resultants) read the integer
tables.  `coeffs` / `rows` give each coefficient back as parsed data,
a GaussianRational pair (a / den, b / den), for formatting.  Floats
enter through one conversion rule, `complex_coeffs`: each coefficient on
its own as complex(a / den, b / den).  A curve component
converts its coordinate forms that way once into one complex table, and
the chord solver a whole BivarPoly table once per solve attempt; no float
copy is kept on a polynomial.  A univariate polynomial is a binary form
read in the chart s = 1: root finding and real-root intervals take the
form and work on f(1, t), its `to_zx` table.

Univariate gcds are modular (Brown 1971, zx_gcd), each proven by exact
division and normalized to a leading coefficient with re > 0, im >= 0.
The bivariate gcd is Brown's too, with integer evaluation nodes in place
of primes: specialized univariate gcds, interpolated and proven by exact
division (`bivar_gcd`).
Content is a Gaussian gcd taken in C-level integer gcds: math.gcd of all
parts gives the rational-integer content, and a Gaussian Euclid runs only
modulo the gcd of the norms of what is left, on small numbers.
Exact division is integer long division: by Gauss's lemma over the UFD
Z[i][z], a quotient by a primitive divisor has Gaussian-integer
coefficients, so an inexact step means the division is inexact.
Resultants go through integer evaluation, fraction-free (Bareiss)
determinants over Z[i] and Newton interpolation, all in integers; a known
factor of the resultant is divided out exactly at each node first, so
only the quotient is interpolated.  At each evaluation node the matrix is
the hybrid Sylvester-Bezout matrix of the two specialized polynomials,
max(na, nb) square where the Sylvester matrix is na + nb, with one row
negated where needed so that its determinant is the Sylvester
determinant exactly.  The matrices at all nodes form one stack that a
single batched elimination reduces, on numpy object arrays of Python
ints, so the interpreter runs one loop per elimination step, not per
entry.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational, QQ

__all__ = [
    "BinaryForm",
    "BivarPoly",
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
    if b == 0 and d == 0 and c:
        q, rem = divmod(a, c)
        if rem:
            raise ArithmeticError("inexact gaussian integer division")
        return (q, 0)
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


def _unit_normal(f):
    """f times the unit that makes its leading coefficient re > 0, im >= 0."""
    while f and not (f[-1][0] > 0 and f[-1][1] >= 0):
        f = [(-b, a) for a, b in f]  # times i
    return f


def _divides(h, f):
    try:
        zx_divexact(f, h)
    except ArithmeticError:
        return False
    return True


def _is_prime(n):
    """Strong probable-prime test of an odd n > 37 to the first twelve
    prime bases, which no composite below 3 * 10^23 passes."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << j, n) != n - 1 for j in range(s)):
            return False
    return True


# (p, r): primes p = 1 (mod 4) below 2^62, descending, with r * r = -1 (mod p);
# extended on first use by _modular_prime, so importing costs nothing
_PRIMES = []


def _modular_prime(k):
    """The k-th entry of the gcd's fixed prime list."""
    while len(_PRIMES) <= k:
        p = _PRIMES[-1][0] - 4 if _PRIMES else (1 << 62) - 3
        while not _is_prime(p):
            p -= 4
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        _PRIMES.append((p, pow(c, (p - 1) // 4, p)))
    return _PRIMES[k]


def _fp_monic_gcd(a, b, p):
    """Monic gcd over F_p of little-endian int lists, b nonzero."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        db = len(b) - 1
        a = list(a)
        while len(a) > db:
            q = a.pop()
            if q:
                k = len(a) - db
                a[k:] = [(x - q * y) % p for x, y in zip(a[k:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def zx_gcd(f, g):
    """Primitive gcd over Z[i] with lc re > 0, im >= 0 (a real input gives
    a real gcd with positive lc): Brown's modular algorithm (JACM 1971).

    Modulo a prime p = 1 (mod 4) with r * r = -1, Z[i] / (p) is F_p x F_p
    through i -> +-r (a real input needs one image).  The monic image
    gcds, times the image of gamma = gcd(lc f, lc g), give the real and
    imaginary parts mod p of gamma / lc(G) * G for the true gcd G.  Primes
    where a leading coefficient vanishes are skipped.  No image has lower
    degree than G: degree 0 proves f, g coprime, a higher degree marks an
    unlucky prime, and a lower one restarts the Chinese remaindering.
    After each prime the primitive part h of the symmetric lift is
    returned once h divides f and g exactly: then h divides G and is no
    smaller, a proof rather than a guess.
    """
    f, g = zx_primitive(list(f)), zx_primitive(list(g))
    if len(f) < len(g):
        f, g = g, f
    if not g or _divides(g, f):  # a constant g is a unit and divides f
        return _unit_normal(g or f)
    gamma = ggcd(f[-1], g[-1])  # divides both lcs, so vanishes only with them
    real = all(b == 0 for _, b in f) and all(b == 0 for _, b in g)
    best, modulus, residues = len(g), 1, None  # best starts above any degree
    for k in itertools.count():
        p, r = _modular_prime(k)
        images = []
        for s in (r,) if real else (r, p - r):
            fp, gp = [(a + b * s) % p for a, b in f], [(a + b * s) % p for a, b in g]
            if not (fp[-1] and gp[-1]):
                break
            c = (gamma[0] + gamma[1] * s) % p
            images.append([c * x % p for x in _fp_monic_gcd(fp, gp, p)])
        else:
            degrees = {len(h) - 1 for h in images}
            if 0 in degrees:
                return [GONE]
            e = max(degrees)
            if len(degrees) > 1 or e > best:
                continue  # an unlucky prime
            if e < best:
                best, modulus, residues = e, 1, [GZERO] * (e + 1)
            if real:
                mod_p = [(x, 0) for x in images[0]]
            else:
                i2, i2r = pow(2, -1, p), pow(2 * r, -1, p)
                mod_p = [((x + y) * i2 % p, (x - y) * i2r % p) for x, y in zip(*images)]
            w = pow(modulus, -1, p)  # Garner's step from modulus to modulus * p
            residues = [
                (a + modulus * ((x - a) * w % p), b + modulus * ((y - b) * w % p))
                for (a, b), (x, y) in zip(residues, mod_p, strict=True)
            ]
            modulus *= p
            lift = [tuple(x - modulus if 2 * x > modulus else x for x in c) for c in residues]
            h = zx_primitive(lift)  # of the symmetric lift
            if _divides(h, g) and _divides(h, f):
                return _unit_normal(h)


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
    """(den, gint) with c = gint / den for an exact scalar c: an int, a
    Fraction or a parsed GaussianRational, whose parts both have a
    numerator and a denominator."""
    re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
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


def complex_coeffs(den, num):
    """The Gaussian integers num over den as complex numbers, each
    converted on its own as complex(a / den, b / den)."""
    return [complex(a / den, b / den) for a, b in num]


class _IntTable:
    """Base of the polynomial classes: their slots are a shape (none, the
    degree, or the bidegree), then `den` and the integer table `num`;
    equality and hash read them all."""

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
# BinaryForm: homogeneous polynomial in (s, t)
# ---------------------------------------------------------------------------


class BinaryForm(_IntTable):
    """Homogeneous form of declared degree d over Q(i): Gaussian integers
    `num` over one denominator `den`, in lowest terms, where num[k] / den
    multiplies s^(d-k) t^k.  The zero form keeps its declared degree.
    `coeffs` gives the coefficients back as GaussianRational pairs."""

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

    def partials(self):
        """(df/ds, df/dt), forms of degree d - 1 (d >= 1)."""
        d, num = self.degree, self.num
        ds = [(a * (d - k), b * (d - k)) for k, (a, b) in enumerate(num[:-1])]
        dt = [(a * k, b * k) for k, (a, b) in enumerate(num) if k]
        return (BinaryForm._from_ints(d - 1, self.den, ds),
                BinaryForm._from_ints(d - 1, self.den, dt))

    def to_zx(self):
        """Primitive Z[i] coefficient list of f(1, t), little-endian in t
        (f(1, t) up to a positive rational)."""
        return _strip_int_content(zx_strip(list(self.num)))

    def __repr__(self):
        return f"BinaryForm({self.degree}, {[str(c) for c in self.coeffs]})"


FORM_ONE = BinaryForm(0, [1])


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


def real_roots_sturm(f: BinaryForm, width=QQ(1, 2**40)):
    """Sorted disjoint closed rational intervals, one per distinct real
    root t of f(1, t) for a real form f, each of width `width` around the
    exact center of a certified real disk from roots.complex_roots (the
    disk's own [c - r, c + r] when two roots lie closer than `width`).
    A root at (0, 1) has no interval.

    There is no Sturm chain behind it: the benchmark ledger wraps this
    function by name, which waits for the next benchmark change.
    """
    from .roots import complex_roots  # roots imports this module

    if f.is_zero():
        raise PolynomialError("zero polynomial has no isolated roots")
    if not f.is_real():
        raise PolynomialError("polynomial has non-real coefficients")
    h = width / 2
    disks = [
        (Fraction(r.re, 1 << r.prec), Fraction(r.rad, 1 << r.prec))
        for r in complex_roots(f, h)
        if r.real
    ]
    wide = [(c - h, c + h) for c, _ in disks]
    if all(a[1] < b[0] for a, b in zip(wide, wide[1:])):
        return wide
    return [(c - r, c + r) for c, r in disks]


# ---------------------------------------------------------------------------
# BivarPoly: bihomogeneous in (s,t) x (u,v); the coefficient matrix read
# affinely is the polynomial in the chart z = t/s, w = v/u
# ---------------------------------------------------------------------------


class BivarPoly(_IntTable):
    """Bihomogeneous polynomial of declared bidegree (m, n) over Q(i):
    Gaussian integers num[j][k] over one denominator `den`, in lowest
    terms, where num[j][k] / den multiplies s^(m-j) t^j u^(n-k) v^k.
    `rows` gives the coefficients back as GaussianRational pairs."""

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
    def bezoutian(cls, f: BinaryForm, g: BinaryForm):
        """(f(s,t) g(u,v) - g(s,t) f(u,v)) / (s v - t u), of bidegree
        (d-1, d-1) for forms of one degree d >= 1, without the product or
        the division.  With P[p][q] = f_p g_q - g_p f_q the coefficient
        table of the numerator, the quotient's table Q satisfies
        P[p][q] = Q[p][q-1] - Q[p-1][q], so row by row from the top
        Q[p-1][q] = Q[p][q-1] - P[p][q]."""
        d = f.degree
        rows = []
        above = [GZERO] * d  # row p of Q, zero for p = d
        for p in range(d, 0, -1):
            fp, gp = f.num[p], g.num[p]
            row = []
            for q in range(d):
                pq = gsub(gmul(fp, g.num[q]), gmul(gp, f.num[q]))
                row.append(gsub(above[q - 1], pq) if q else gneg(pq))
            rows.append(row)
            above = row
        return cls._from_ints(d - 1, d - 1, f.den * g.den, rows[::-1])

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


W0 = 7  # the first node w = v/u of bivar_gcd


def _zx_value(f, x):
    """f(x) for a little-endian Gaussian-integer list f and an integer x."""
    v = GZERO
    for c in reversed(f):
        v = (v[0] * x + c[0], v[1] * x + c[1])
    return v


def _specialize(p: BivarPoly, w):
    """p(s, t; 1, w) on p's integer table, a binary form of degree p.m."""
    return BinaryForm._from_ints(p.m, 1, [_zx_value(r, w) for r in p.num])


def _uv_content(polys):
    """The primitive gcd of every row of the polynomials read as a binary
    form in (u, v): their common factor in (u, v) alone, as a BivarPoly of
    bidegree (0, e)."""
    c = form_gcd([BinaryForm._from_ints(p.n, 1, r) for p in polys for r in p.num])
    return BivarPoly._from_ints(0, c.degree, 1, [c.num])


def _interpolated_gcd(polys, batch):
    """The gcd candidate through the images of one degree in `batch`, as
    (w, gamma(w), image table), divided into every input; an inexact step
    anywhere raises ArithmeticError."""
    xs, scaled = [w for w, _, _ in batch], []
    for _, gw, img in batch:
        lc = next(c for c in reversed(img) if c != GZERO)
        scaled.append([gdivexact(gmul(gw, c), lc) for c in img])
    rows = []
    for column in zip(*scaled):
        re, im = (np.array(part, dtype=object) for part in zip(*column))
        rows.append(_interp_stack(xs, [re, im] if im.any() else [re]))
    k = glist_gcd([c for r in rows for c in r])
    h = BivarPoly._from_ints(len(rows) - 1, len(xs) - 1, 1,
                             [[gdivexact(c, k) for c in r] for r in rows])
    h = bivar_divexact(h, _uv_content([h]))
    a = _uv_content(polys).num[0]
    g = BivarPoly._from_ints(h.m, h.n + len(a) - 1, h.den, [zx_mul(r, a) for r in h.num])
    for p in polys:
        bivar_divexact(p, g)
    return g


def bivar_gcd(*polys: BivarPoly) -> BivarPoly:
    """Gcd of bihomogeneous polynomials, bihomogeneous and primitive over
    Z[i] (one nonzero input is its own gcd): Brown's modular gcd (J. ACM
    18, 1971; Geddes, Czapor and Labahn 1992, ch. 7) with integer nodes
    w = v/u = W0, W0 + 1, ... in place of primes.

    At a node the inputs specialize to binary forms in (s, t), and the gcd
    G specializes to a divisor of their gcd g_w, nonzero wherever some
    input's specialization is; so deg g_w is at least G's (s, t)-degree.
    A constant g_w proves G = A, a form in (u, v) alone: the gcd of every
    row read as a (u, v)-form, constant when every input equals its
    swap_vars, since A(u, v) would bring A(s, t).  On most records the
    first node is the whole proof.

    Otherwise G = A H with H free of (u, v)-factors.  gamma, the Z[i] gcd
    of the inputs' top t-rows as polynomials in w (the gcd of their
    Gaussian contents times their primitive gcd), is a multiple of lc H.
    Where gamma(w) != 0 an image of the least degree seen, scaled to the
    leading coefficient gamma(w), is (gamma / lc H) H at w; an image of
    higher degree is unlucky and skipped, a lower one restarts the batch.
    deg gamma + min deg_w + 1 such images give (gamma / lc H) H row by row
    (`_interp_stack`), and its primitive part is H.  The candidate A H is
    certified when it divides every input exactly: its (s, t)-degree is
    deg g_w, so the quotients' images at w have a constant gcd (the
    one-node coprimality test), and H primitive leaves their (u, v)-rows
    coprime.  A failed candidate shows its degree unlucky at every node of
    the batch, and the next batch must go lower.  Unlucky nodes are roots
    of gamma or of a resultant of degree at most 2 m n in w, so a gcd not
    certified within that many further nodes raises ArithmeticError.
    """
    live = [p for p in polys if not p.is_zero()]
    if not live:
        raise PolynomialError("gcd of zero polynomials")
    if len(live) == 1:
        return live[0]
    need = None
    cap, batch = max(p.m for p in live), []
    for w in itertools.count(W0):
        images = [f for f in (_specialize(p, w) for p in live) if not f.is_zero()]
        g = form_gcd(images) if images else None
        if g is not None and g.degree == 0:
            if all(p.num == tuple(zip(*p.num)) for p in live):
                return BivarPoly._from_ints(0, 0, 1, [[GONE]])
            return _uv_content(live)
        if need is None:
            tops = [next(t for t in map(zx_strip, reversed(p.num)) if t) for p in live]
            k = glist_gcd([c for t in tops for c in t])
            gamma = [gmul(k, c) for c in functools.reduce(zx_gcd, tops)]
            need = len(gamma) + min(max(len(zx_strip(r)) for r in p.num) for p in live) - 1
            limit = w + need + len(gamma) + 2 * max(p.m for p in live) * max(p.n for p in live)
        elif w > limit:
            raise ArithmeticError("bivariate gcd not certified")
        gw = _zx_value(gamma, w)
        if gw == GZERO or g.degree > cap:
            continue
        if g.degree < cap:
            cap, batch = g.degree, []
        batch.append((w, gw, g.num))
        if len(batch) == need:
            try:
                return _interpolated_gcd(live, batch)
            except ArithmeticError:  # every image of degree cap was unlucky
                cap, batch = cap - 1, []


def bivar_divexact(p: BivarPoly, d: BivarPoly) -> BivarPoly:
    """p / d asserting exactness; declared bidegrees subtract.

    Works on the integer tables with the Gaussian content of d's divided
    out, so by Gauss's lemma an exact quotient has Z[i] coefficients.
    Long division in w then divides column by column with zx_divexact,
    and the quotient is rescaled once at the end.  An inexact step, a
    nonzero remainder or a quotient beyond the declared bidegree (p lacks
    a power of s or u that d has) raises ArithmeticError.
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
    if not 0 <= nq <= n:
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
    if any(rem) or any(len(col) > m + 1 for col in qcols):
        raise ArithmeticError("inexact bivariate division")
    # p / d = q d.den / (p.den cont), and 1 / cont = conj(cont) / |cont|^2
    scale = (cont[0] * d.den, -cont[1] * d.den)
    rows = [[GZERO] * (n + 1) for _ in range(m + 1)]
    for k, col in enumerate(qcols):
        for j, c in enumerate(col):
            rows[j][k] = gmul(c, scale)
    return BivarPoly._from_ints(m, n, p.den * gnorm(cont), rows)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _gmul_parts(x, y):
    """x * y entrywise for Gaussian arrays given as [re] or [re, im]."""
    if len(x) == 1:
        return [x[0] * y[0]]
    (xr, xi), (yr, yi) = x, y
    return [xr * yr - xi * yi, xr * yi + xi * yr]


def _bareiss_stack(parts):
    """Determinants of a stack of square Gaussian-integer matrices, by one
    fraction-free (Bareiss 1968) elimination run on all of them at once.

    parts is [re] for a real stack or [re, im] for a Gaussian one: (P, N, N)
    object arrays of Python ints, N >= 1, overwritten.  Returns the
    determinants the same way, as (P,) arrays.  Each step divides exactly
    by the previous pivot (a Gaussian one as num * conj(prev) / |prev|^2),
    so an inexact division raises ArithmeticError.  A zero pivot swaps rows
    in its own matrix; a matrix whose pivot column is zero from the pivot
    down has determinant 0 and leaves the stack.
    """
    P, N, _ = parts[0].shape
    live = np.arange(P)
    sign = np.ones(P, dtype=object)
    prev = [np.ones(P, dtype=object)] + [np.zeros(P, dtype=object)] * (len(parts) - 1)
    for k in range(N - 1):
        nonzero = parts[0][:, k:, k] != 0
        for A in parts[1:]:
            nonzero |= A[:, k:, k] != 0
        if not nonzero[:, 0].all():
            for i in np.flatnonzero(~nonzero[:, 0]):
                below = np.flatnonzero(nonzero[i])
                if below.size:
                    swap = [k, k + below[0]]
                    for A in parts:
                        A[i, swap] = A[i, swap[::-1]]
                    sign[i] = -sign[i]
            keep = nonzero.any(axis=1)
            if not keep.all():
                live, sign = live[keep], sign[keep]
                parts = [A[keep] for A in parts]
                prev = [x[keep] for x in prev]
        pk = [A[:, k, k, None, None] for A in parts]
        sub = [A[:, k + 1:, k + 1:] for A in parts]
        col = [A[:, k + 1:, k, None] for A in parts]
        row = [A[:, k, None, k + 1:] for A in parts]
        num = [x - y for x, y in zip(_gmul_parts(pk, sub), _gmul_parts(col, row))]
        div, *di = (x[:, None, None] for x in prev)
        if di:
            num, div = _gmul_parts(num, [div, -di[0]]), div * div + di[0] * di[0]
        for A, x in zip(parts, num):
            if k:  # the first step's previous pivot is 1
                q = x // div
                if (q * div != x).any():
                    raise ArithmeticError("inexact division in fraction-free elimination")
                x = q
            A[:, k + 1:, k + 1:] = x
        prev = [x[:, 0, 0] for x in pk]
    dets = [np.zeros(P, dtype=object) for _ in parts]
    for det, A in zip(dets, parts):
        det[live] = sign * A[:, -1, -1]
    return dets


def _interp_stack(xs, ys):
    """Little-endian Gaussian-integer coefficients, as (a, b) tuples of
    Python ints, of the polynomial through the integer nodes xs with the
    values ys, given as in `_bareiss_stack`'s result.

    The values come from a Z[i] polynomial, whose divided differences at
    integer nodes are Gaussian integers, so every division is exact; an
    inexact one raises ArithmeticError.
    """
    n = len(xs)
    x = np.array(xs, dtype=object)
    coeffs = []
    for dd in ys:
        dd = dd.copy()
        for j in range(1, n):
            step = x[j:] - x[:-j]
            diff = dd[j:] - dd[j - 1:-1]
            q = diff // step
            if (q * step != diff).any():
                raise ArithmeticError("inexact division in Newton interpolation")
            dd[j:] = q
        # Horner on the Newton form: c <- c * (x - xs[i]) + dd[i]
        c = np.zeros(n, dtype=object)
        for i in range(n - 1, -1, -1):
            c[1:], c[0] = c[:-1] - x[i] * c[1:], dd[i] - x[i] * c[0]
        coeffs.append(c.tolist())
    if len(coeffs) == 1:
        coeffs.append([0] * n)
    return list(zip(*coeffs))


def _divisor_nodes(divisor: BinaryForm, power, count):
    """The first `count` integers x of 0, 1, -1, 2, -2, ... at which the
    divisor's value e = divisor.num evaluated at (s, t) = (1, x) is not
    zero, with the values e^power as in `_bareiss_stack`'s result."""
    xs, values = [], []
    for i in itertools.count():
        x = (i + 1) // 2 * (-1) ** (i + 1)
        e = _zx_value(divisor.num, x)
        if e != GZERO:
            xs.append(x)
            values.append(e)
            if len(xs) == count:
                break
    re, im = (np.array(part, dtype=object) for part in zip(*values))
    return xs, functools.reduce(_gmul_parts, [[re, im] if im.any() else [re]] * power)


def _divide_values(dets, divisor):
    """dets / divisor entrywise in Z[i], both given as in `_bareiss_stack`'s
    result; an inexact division raises ArithmeticError."""
    if len(divisor) == 1:
        num, div = dets, divisor[0]
    else:
        (dr, di), (er, ei) = (dets if len(dets) == 2 else [dets[0], 0 * dets[0]]), divisor
        num, div = [dr * er + di * ei, di * er - dr * ei], er * er + ei * ei
    out = [x // div for x in num]
    if any((q * div != x).any() for q, x in zip(out, num)):
        raise ArithmeticError("the divisor does not divide the resultant at a node")
    return out


def _hybrid_bezout(a, b):
    """Hybrid Sylvester-Bezout matrices of the coefficient stacks a, b,
    given as in `_bareiss_stack`'s result but (P, na + 1) and (P, nb + 1):
    row i holds a polynomial's coefficients at node i by ascending power
    of x = v/u, in formal degrees na, nb >= 1.  Each matrix's determinant
    is the Sylvester determinant of a and b with ascending powers.

    With f the input of formal degree m = max(na, nb) and g the other,
    of degree n, the matrix is m x m and its rows are coefficients of
    x^0..x^(m-1): first x^i g for i < m - n, then, for k = 1..n, the
    Bezout row F_k x^(m-n) g - G_k f, where F_k and G_k are the top k
    coefficients of f and g read as polynomials of degree k - 1, so the
    top k coefficients cancel.  From F_k = x F_(k-1) + f_(m-k+1) (and G_k
    likewise) each Bezout row is x times the one before plus
    f_(m-k+1) x^(m-n) g - g_(n-k+1) f.  Its determinant is the classical
    resultant Res(f, g) as a polynomial identity in the coefficients,
    whatever they are: (-1)^(na nb) times the ascending Sylvester
    determinant when f is a, the ascending determinant itself when f is
    b; in the first case with na nb odd the last row is negated.
    """
    f, g = (a, b) if a[0].shape[1] >= b[0].shape[1] else (b, a)
    P, m, n = f[0].shape[0], f[0].shape[1] - 1, g[0].shape[1] - 1
    stack = [np.zeros((P, m, m), dtype=object) for _ in f]
    for M, c in zip(stack, g):
        for i in range(m - n):
            M[:, i, i:i + n + 1] = c
    for k in range(1, n + 1):
        r = m - n + k - 1
        fg = _gmul_parts([c[:, m - k + 1, None] for c in f], [c[:, :n] for c in g])
        gf = _gmul_parts([c[:, n - k + 1, None] for c in g], [c[:, :m] for c in f])
        for M, x, y in zip(stack, fg, gf):
            M[:, r] = -y
            M[:, r, m - n:] += x
            if k > 1:
                M[:, r, 1:] += M[:, r - 1, :-1]
    if f is a and m * n % 2:
        for M in stack:
            M[:, -1] = -M[:, -1]
    return stack


def bivar_resultant_w(p: BivarPoly, q: BivarPoly, strip_content=False,
                      divisor: BinaryForm = FORM_ONE, power=1) -> BinaryForm:
    """Homogeneous resultant eliminating the (u, v) pair, divided by a
    known factor of it.

    p, q are read as binary forms of their declared (u, v)-degrees with
    BinaryForm coefficients in (s, t); the resultant is a binary form in
    (s, t) of degree D = p.m*q.n + q.m*p.n.  The resultant is the
    determinant of the Sylvester matrix whose rows hold v^i p and v^i q
    by ascending v-power, in the declared degrees na = p.n and nb = q.n;
    it is the classical resultant times (-1)^(na nb).  The result is the
    resultant divided by `divisor` raised to `power` >= 1 (default 1), a
    binary form of degree D - power * divisor.degree.

    The nodes are the integers 0, 1, -1, 2, -2, ... at which the divisor
    does not vanish, one more than the quotient's degree needs.  At each
    node p and q specialize to polynomials in x = v/u, and the
    determinant is taken of their hybrid Sylvester-Bezout matrix
    (`_hybrid_bezout`): max(na, nb) square, where the Sylvester matrix
    is na + nb, and with its sign fixed so that the two determinants are
    equal.  The matrices at all nodes are eliminated together as one
    stack (`_bareiss_stack`); each determinant is divided exactly by the
    divisor's value at its node raised to `power` (the power is never
    built as a form), and the quotients are interpolated
    (`_interp_stack`); a real pair carries no imaginary parts through
    either.  The spare node's top coefficient must come out zero.  So a
    divisor that does not divide the resultant, as a form, raises
    ArithmeticError (an inexact node division or a nonzero top
    coefficient); a primitive Z[i] divisor of the resultant divides every
    node value, by Gauss's lemma.  The chord solver divides out the
    projection's excess factor E^n this way, as divisor E and power n
    (see `chords`).

    With strip_content=True the result is reduced to a primitive integer
    multiple (only root sets survive; used by the chord solver).
    """
    na, nb = p.n, q.n
    if na == 0 or nb == 0:
        raise PolynomialError("positive degree in the eliminated variable required")
    if divisor.is_zero():
        raise PolynomialError("division of a resultant by the zero form")
    D = p.m * q.n + q.m * p.n - power * divisor.degree
    if D < 0:
        raise PolynomialError(f"divisor of degree {power * divisor.degree} exceeds the resultant's")
    den = math.lcm(p.den, q.den)
    xs, evals = _divisor_nodes(divisor, power, D + 2)
    tables = [np.array([_lift(r, den // f.den) for r in f.num], dtype=object) for f in (p, q)]
    nparts = 2 if any(t[..., 1].any() for t in tables) else 1
    # u^(n-k) v^k coefficient forms at (s, t) = (1, x): the powers x^j
    # times the t^j rows, listed by descending u-power (k ascending)
    powers = np.vander(np.array(xs, dtype=object), max(p.m, q.m) + 1, increasing=True)
    values = [[powers[:, :len(t)] @ t[..., c] for c in range(nparts)] for t in tables]
    *coeffs, top = _interp_stack(xs, _divide_values(_bareiss_stack(_hybrid_bezout(*values)), evals))
    if top != GZERO:
        raise ArithmeticError("the divisor does not divide the resultant")
    if strip_content:
        return BinaryForm._from_ints(D, 1, _strip_int_content(coeffs))
    # the determinants are of the inputs scaled by den: a factor den per
    # Sylvester row, na + nb in all (a Bezout row is of degree 2 in them)
    return BinaryForm._from_ints(D, den ** (na + nb), _lift(coeffs, divisor.den ** power))
