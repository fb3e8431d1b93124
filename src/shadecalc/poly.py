"""Exact polynomial arithmetic over Q(i) on one number type.

BinaryForm and BivarPoly store one positive denominator `den` over a
table `num` of Gaussian integers, plain ``(a, b)`` int tuples for a + b*i,
in lowest terms: gcd(den, every a and b) == 1 and the zero
polynomial has den = 1, so equal values are equal objects.  Arithmetic is
integer arithmetic plus one lcm and one reduction per operation, and the
exact kernels (gcds, exact division, resultants) read the integer
tables.  `coeffs` / `rows` are exact GaussianRational views.
Evaluation here is exact.  Floats enter through one conversion rule,
`complex_coeffs`: each coefficient on its own as complex(a / den, b / den),
which rounds exactly like the GaussianRational value.  A curve component
converts its coordinate forms that way once into one complex table, and
the chord solver a whole BivarPoly table once per solve attempt; no float
copy is kept on a polynomial.  A univariate polynomial is a binary form
read in the chart s = 1: root finding and real-root intervals take the
form and work on f(1, t), its `to_zx` table.

Univariate gcds are modular (Brown 1971, zx_gcd), each proven by exact
division and normalized to a leading coefficient with re > 0, im >= 0.
The bivariate gcd's pseudo-remainder sequence in w strips content to
keep sizes near-primitive.
Content is a Gaussian gcd taken in C-level integer gcds: math.gcd of all
parts gives the rational-integer content, and a Gaussian Euclid runs only
modulo the gcd of the norms of what is left, on small numbers.
Exact division is integer long division: by Gauss's lemma over the UFD
Z[i][z], a quotient by a primitive divisor has Gaussian-integer
coefficients, so an inexact step means the division is inexact.
Resultants of polynomial-entry Sylvester matrices go through integer
evaluation, fraction-free (Bareiss) determinants over Z[i] and Newton
interpolation, all in integers; degrees here stay below ~80.  The
Sylvester matrices at all evaluation nodes form one stack that a single
batched elimination reduces, on numpy object arrays of Python ints, so
the interpreter runs one loop per elimination step, not per entry.
"""

from __future__ import annotations

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
        """The exact value at an exact point (s, t)."""
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
        if len(parts) == 1:
            num = [pk[0] * sub[0] - col[0] * row[0]]
            div = prev[0][:, None, None]
        else:
            (pr, pi), (sr, si), (cr, ci), (rr, ri) = pk, sub, col, row
            nr = pr * sr - pi * si - (cr * rr - ci * ri)
            ni = pr * si + pi * sr - (cr * ri + ci * rr)
            dr, di = (x[:, None, None] for x in prev)
            num = [nr * dr + ni * di, ni * dr - nr * di]
            div = dr * dr + di * di
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


def bivar_resultant_w(p: BivarPoly, q: BivarPoly, strip_content=False) -> BinaryForm:
    """Homogeneous resultant eliminating the (u, v) pair.

    p, q are read as binary forms of their declared (u, v)-degrees with
    BinaryForm coefficients in (s, t); the result is a binary form in
    (s, t) of degree p.m*q.n + q.m*p.n.  Coefficient sequences enter the
    Sylvester matrix by ascending v-power, which matches the classical
    resultant up to the factor (-1)^(deg_f * deg_g).

    The Sylvester matrices at the D + 1 integer nodes 0, 1, -1, 2, -2, ...
    are eliminated together as one stack (`_bareiss_stack`), and their
    determinants interpolated (`_interp_stack`); a real pair carries no
    imaginary parts through either.

    With strip_content=True the result is reduced to a primitive integer
    multiple (only root sets survive; used by the chord solver).
    """
    na, nb = p.n, q.n
    if na == 0 or nb == 0:
        raise PolynomialError("positive degree in the eliminated variable required")
    D = p.m * q.n + q.m * p.n
    den = math.lcm(p.den, q.den)
    xs = [(i + 1) // 2 * (-1) ** (i + 1) for i in range(D + 1)]
    x = np.array(xs, dtype=object)[:, None]
    tables = [np.array([_lift(r, den // f.den) for r in f.num], dtype=object) for f in (p, q)]
    nparts = 2 if any(t[..., 1].any() for t in tables) else 1
    # u^(n-k) v^k coefficient forms at (s, t) = (1, x), by Horner over the
    # t-power rows, listed by descending u-power (k ascending)
    values = []
    for t in tables:
        acc = [np.zeros((D + 1, t.shape[1]), dtype=object) for _ in range(nparts)]
        for r in t[::-1]:
            acc = [a * x + r[:, c] for c, a in enumerate(acc)]
        values.append(acc)
    size = na + nb
    stack = [np.zeros((D + 1, size, size), dtype=object) for _ in range(nparts)]
    for M, a, b in zip(stack, *values):
        for sh in range(nb):
            M[:, sh, sh:sh + na + 1] = a
        for sh in range(na):
            M[:, nb + sh, sh:sh + nb + 1] = b
    coeffs = _interp_stack(xs, _bareiss_stack(stack))
    if strip_content:
        return BinaryForm._from_ints(D, 1, _strip_int_content(coeffs))
    # the determinants are of the inputs scaled by den, one row each
    return BinaryForm._from_ints(D, den ** (na + nb), coeffs)
