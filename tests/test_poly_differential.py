"""Differential tests of the exact Z[i] kernels and of the polynomial
classes against sympy.

Hypothesis draws small polynomials; sympy over QQ_I is the oracle for
sums, products, divisibility, quotients, resultants, gcds and squarefree
decompositions, and sympy's ZZ_I gcd for Gaussian content.  Float
evaluation is checked bit for bit against the per-coefficient
GaussianRational formula, and the stored (den, num) pair against its
canonical form.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from shadecalc.poly import (
    BinaryForm,
    BivarPoly,
    UPoly,
    bivar_divexact,
    bivar_resultant_w,
    gdivexact,
    gmul,
    gnorm,
    glist_gcd,
    zx_divexact,
    zx_gcd,
    zx_mul,
    zx_sqf_list,
    zx_strip,
)
from shadecalc.scalars import GaussianRational as G

Z, W = sympy.symbols("z w")
QQ_I = sympy.QQ_I

gints = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
zx_polys = st.lists(gints, min_size=1, max_size=5)
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
gaussians = st.builds(G, small_fractions, small_fractions)
# wide values exercise the rounding of each coefficient's conversion
wide_fractions = st.builds(
    Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**40)
) | small_fractions
wide_gaussians = st.builds(G, wide_fractions, wide_fractions)
points = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


# 60- to 70-digit parts, times a planted content n (1+i)^a (2+i)^b: with
# a = b = 0 the norms are almost always coprime (the early exit), and
# a or b > 0 plants a Gaussian factor only the Euclid modulo their gcd finds
wide_ints = st.integers(10**60, 10**70) | st.integers(-(10**70), -(10**60))
wide_gints = st.tuples(wide_ints, wide_ints)


@st.composite
def planted_contents(draw):
    c = (draw(st.sampled_from([1, 1, 2, 3, 10**6 + 3])), 0)
    for factor in [(1, 1)] * draw(st.integers(0, 3)) + [(2, 1)] * draw(st.integers(0, 2)):
        c = gmul(c, factor)
    return c


def bivars_of(m, n, scalars=gaussians):
    row = st.lists(scalars, min_size=n + 1, max_size=n + 1)
    return st.lists(row, min_size=m + 1, max_size=m + 1).map(lambda rows: BivarPoly(m, n, rows))


@st.composite
def bivars(draw, max_m=2, max_n=2, scalars=gaussians):
    return draw(bivars_of(draw(st.integers(0, max_m)), draw(st.integers(0, max_n)), scalars))


@st.composite
def bivar_pairs(draw):
    """Two polynomials of one bidegree."""
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return draw(bivars_of(m, n)), draw(bivars_of(m, n))


def forms_of(d):
    return st.lists(gaussians, min_size=d + 1, max_size=d + 1).map(lambda cs: BinaryForm(d, cs))


upolys = st.lists(gaussians, max_size=5).map(UPoly)
forms = st.integers(0, 4).flatmap(forms_of)
form_pairs = st.integers(0, 4).flatmap(lambda d: st.tuples(forms_of(d), forms_of(d)))


def _sym(c):
    if isinstance(c, tuple):
        return sympy.Integer(c[0]) + sympy.I * c[1]
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


def _gr(c):
    re, im = c.as_real_imag()
    return G(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def upoly_to_poly(p):
    return sympy.Poly(sum((_sym(c) * Z**j for j, c in enumerate(p.coeffs)), sympy.Integer(0)),
                      Z, domain=QQ_I)


def zx_to_poly(f):
    return sympy.Poly(sum((_sym(c) * Z**j for j, c in enumerate(f)), sympy.Integer(0)), Z, domain=QQ_I)


def bivar_to_poly(p):
    expr = sum(
        (_sym(p.rows[j][k]) * Z**j * W**k for j in range(p.m + 1) for k in range(p.n + 1)),
        sympy.Integer(0),
    )
    return sympy.Poly(expr, Z, W, domain=QQ_I)


def poly_to_bivar(poly, m, n):
    rows = [[G(0)] * (n + 1) for _ in range(m + 1)]
    for (j, k), c in poly.terms():
        rows[j][k] = _gr(c)
    return BivarPoly(m, n, rows)


def poly_coeffs_zx(poly):
    """A Z[i] multiple of a univariate QQ_I Poly, as a little-endian list."""
    cs = poly_coeffs(poly)
    den = math.lcm(1, *(x.denominator for c in cs for x in (c.re, c.im)))
    return zx_strip([(int(c.re * den), int(c.im * den)) for c in cs])


def poly_coeffs(poly):
    """Little-endian GaussianRational coefficients of a univariate Poly."""
    return [_gr(c) for c in reversed(poly.all_coeffs())]


class TestZxDivexact:
    @settings(max_examples=80, deadline=None)
    @given(zx_polys, zx_polys)
    def test_product_round_trip(self, q, g):
        g = zx_strip(g)
        assume(g)
        assert zx_divexact(zx_mul(q, g), g) == zx_strip(q)

    @settings(max_examples=80, deadline=None)
    @given(zx_polys, zx_polys)
    def test_matches_sympy_division(self, f, g):
        g = zx_strip(g)
        assume(g)
        quo, rem = zx_to_poly(f).div(zx_to_poly(g))
        want = poly_coeffs(quo)
        if rem.is_zero and all(c.re.denominator == c.im.denominator == 1 for c in want):
            assert zx_divexact(f, g) == zx_strip([(int(c.re), int(c.im)) for c in want])
        else:
            with pytest.raises(ArithmeticError):
                zx_divexact(f, g)


class TestBivarDivexact:
    @settings(max_examples=60, deadline=None)
    @given(bivars(), bivars())
    def test_product_round_trip(self, q, d):
        assume(not d.is_zero())
        prod = poly_to_bivar(bivar_to_poly(q) * bivar_to_poly(d), q.m + d.m, q.n + d.n)
        got = bivar_divexact(prod, d)
        assert (got.m, got.n, got.rows) == (q.m, q.n, q.rows)

    @settings(max_examples=60, deadline=None)
    @given(bivars(max_m=3, max_n=3), bivars(max_m=1, max_n=1))
    def test_non_divisible_raises(self, p, d):
        assume(not d.is_zero() and d.m + d.n > 0 and not p.is_zero())
        P, D = bivar_to_poly(p), bivar_to_poly(d)
        assume(not D.is_ground)
        _, rem = P.div(D)
        assume(not rem.is_zero)
        with pytest.raises(ArithmeticError):
            bivar_divexact(p, d)


class TestResultant:
    @settings(max_examples=40, deadline=None)
    @given(bivars(), bivars())
    def test_matches_sympy_resultant(self, p, q):
        # the declared w-degree must be the actual one, as sympy uses
        assume(p.n > 0 and q.n > 0)
        assume(any(r[p.n] for r in p.rows) and any(r[q.n] for r in q.rows))
        full = bivar_resultant_w(p, q)
        want = sympy.Poly(
            sympy.resultant(bivar_to_poly(p).as_expr(), bivar_to_poly(q).as_expr(), W), Z
        )
        # documented sign: ascending v-powers in the Sylvester matrix
        sign = (-1) ** (p.n * q.n)
        coeffs = poly_coeffs(want)
        coeffs += [G(0)] * (full.degree + 1 - len(coeffs))
        assert list(full.coeffs) == [c * sign for c in coeffs]
        # stripped content: the same form up to a positive rational
        stripped = bivar_resultant_w(p, q, strip_content=True)
        ratios = {a / b for a, b in zip(stripped.coeffs, full.coeffs) if b}
        assert all(not a for a, b in zip(stripped.coeffs, full.coeffs) if not b)
        assert len(ratios) <= 1
        assert all(r.is_real and r.re > 0 for r in ratios)
        # ... with integer coefficients that share no rational integer factor
        parts = [x for c in stripped.coeffs for x in (c.re, c.im)]
        assert all(x.denominator == 1 for x in parts)
        assert stripped.is_zero() or math.gcd(*(x.numerator for x in parts)) == 1


def _zz_i_gcd(values):
    g = sympy.ZZ_I(0)
    for a, b in values:
        g = sympy.ZZ_I.gcd(g, sympy.ZZ_I(a, b))
    return (int(g.x), int(g.y))


def _is_unit(c):
    return gnorm(c) == 1


def _associates(x, y):
    return x == y == (0, 0) or (gnorm(x) == gnorm(y) != 0 and _is_unit(gdivexact(x, y)))


def _proportional(f, g):
    """f and g are Q(i) multiples of each other."""
    P, Q = zx_to_poly(f), zx_to_poly(g)
    return P.degree() == Q.degree() and P.monic() == Q.monic()


class TestGlistGcd:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(wide_gints | st.just((0, 0)), min_size=1, max_size=6), planted_contents())
    def test_matches_sympy_gaussian_gcd(self, values, c):
        values = [gmul(v, c) for v in values]
        g = glist_gcd(values)
        assert _associates(g, _zz_i_gcd(values))
        if any(v != (0, 0) for v in values):
            # the planted content divides g, and dividing by g leaves none
            gdivexact(g, c)
            assert _is_unit(_zz_i_gcd([gdivexact(v, g) for v in values]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(gints, min_size=1, max_size=6))
    def test_small_values(self, values):
        assert _associates(glist_gcd(values), _zz_i_gcd(values))


@st.composite
def planted_zx(draw, max_degree=2):
    """A Z[i] polynomial with 60-digit coefficients and a planted content."""
    f = draw(st.lists(wide_gints, min_size=1, max_size=max_degree + 1))
    c = draw(planted_contents())
    return [gmul(v, c) for v in f]


class TestZxGcd:
    @settings(max_examples=40, deadline=None)
    @given(planted_zx(), planted_zx(), st.lists(gints, min_size=1, max_size=3))
    def test_matches_sympy_gcd(self, a, b, h):
        h = zx_strip(h)
        assume(h)
        f, g = zx_mul(a, h), zx_mul(b, h)
        got = zx_gcd(f, g)
        assert _proportional(got, poly_coeffs_zx(sympy.gcd(zx_to_poly(f), zx_to_poly(g))))
        # primitive over Z[i], so it divides both with an integral quotient
        assert _is_unit(_zz_i_gcd(got))
        zx_divexact(f, got)
        zx_divexact(g, got)


class TestZxSqfList:
    @settings(max_examples=30, deadline=None)
    @given(
        planted_zx(max_degree=1),
        st.lists(gints, min_size=2, max_size=3),
        st.lists(gints, min_size=2, max_size=2),
        planted_contents(),
    )
    def test_matches_sympy_sqf_list(self, a, b, c, k):
        b, c = zx_strip(b), zx_strip(c)
        f = [gmul(v, k) for v in zx_mul(a, zx_mul(zx_mul(b, b), zx_mul(c, zx_mul(c, c))))]
        f = zx_strip(f)
        assume(len(f) > 1)
        got = zx_sqf_list(f)
        prod = [(1, 0)]
        for g, i in got:
            assert _is_unit(_zz_i_gcd(g))
            for _ in range(i):
                prod = zx_mul(prod, g)
        assert _proportional(prod, f)
        _, want = sympy.sqf_list(zx_to_poly(f))
        assert sorted(i for _, i in got) == sorted(i for _, i in want)
        want = {i: poly_coeffs_zx(w) for w, i in want}
        assert all(_proportional(g, want[i]) for g, i in got)


def _canonical(p):
    """den > 0 and minimal: no integer > 1 divides den and every part."""
    table = p.num if isinstance(p, (UPoly, BinaryForm)) else [c for r in p.num for c in r]
    parts = [x for c in table for x in c]
    return p.den > 0 and math.gcd(p.den, *parts) == 1


class TestFloatEvaluation:
    """Each coefficient is converted on its own, in the order and with the
    zero skips of the per-coefficient GaussianRational formula."""

    @settings(max_examples=150, deadline=None)
    @given(bivars(max_m=3, max_n=3, scalars=wide_gaussians), points, points, points, points)
    def test_eval_pair(self, p, s, t, u, v):
        spow = [s**e for e in range(p.m + 1)]
        tpow = [t**e for e in range(p.m + 1)]
        upow = [u**e for e in range(p.n + 1)]
        vpow = [v**e for e in range(p.n + 1)]
        want = 0j
        for j in range(p.m + 1):
            stj = spow[p.m - j] * tpow[j]
            for k in range(p.n + 1):
                c = p.rows[j][k]
                if c:
                    want += complex(c) * stj * upow[p.n - k] * vpow[k]
        assert p.eval_pair((s, t), (u, v)) == want

    @settings(max_examples=150, deadline=None)
    @given(st.lists(wide_gaussians, min_size=1, max_size=7), points, points)
    def test_binary_form_eval(self, cs, s, t):
        f = BinaryForm(len(cs) - 1, cs)
        want = 0j
        tp = 1.0 + 0j
        spows = [1.0 + 0j]
        for _ in range(f.degree):
            spows.append(spows[-1] * s)
        for k, c in enumerate(f.coeffs):
            if c:
                want += complex(c) * spows[f.degree - k] * tp
            tp *= t
        assert f.eval(s, t) == want

    @settings(max_examples=150, deadline=None)
    @given(st.lists(wide_gaussians, max_size=7), points)
    def test_upoly_call(self, cs, z):
        p = UPoly(cs)
        want = 0j
        for c in reversed(p.coeffs):
            want = want * z + complex(c)
        assert p(z) == want


class TestCanonicalForm:
    def test_scaled_input_gives_equal_objects(self):
        assert UPoly([Fraction(2, 4)]) == UPoly([Fraction(1, 2)])
        assert hash(UPoly([Fraction(2, 4)])) == hash(UPoly([Fraction(1, 2)]))
        assert UPoly([]).den == 1 and BivarPoly.zero(1, 2).den == 1

    @settings(max_examples=80, deadline=None)
    @given(st.lists(gaussians, max_size=5), st.integers(1, 10**6))
    def test_unreduced_tables(self, cs, k):
        p = UPoly(cs)
        q = UPoly._from_ints(p.den * k, [(a * k, b * k) for a, b in p.num])
        assert (q.den, q.num) == (p.den, p.num)
        assert q == p and hash(q) == hash(p)
        # the exact view gives back the input, trailing zeros stripped
        assert p.coeffs == tuple(cs[: len(p.coeffs)])

    @settings(max_examples=80, deadline=None)
    @given(bivars(), st.integers(1, 10**6))
    def test_unreduced_bivar_tables(self, p, k):
        q = BivarPoly._from_ints(p.m, p.n, p.den * k, [[(a * k, b * k) for a, b in r] for r in p.num])
        assert q == p and hash(q) == hash(p)
        assert q.rows == p.rows

    @settings(max_examples=80, deadline=None)
    @given(upolys, upolys, gaussians)
    def test_upoly_ops_stay_canonical(self, p, q, c):
        assert all(_canonical(r) for r in (p, p + q, p - q, p * q, p * c, p.derivative()))

    @settings(max_examples=80, deadline=None)
    @given(form_pairs, forms, gaussians)
    def test_form_ops_stay_canonical(self, fg, h, c):
        f, g = fg
        assert all(_canonical(r) for r in (f + g, f - g, f * h, f * c, f.d_ds(), f.d_dt()))

    @settings(max_examples=80, deadline=None)
    @given(bivar_pairs(), gaussians, gaussians)
    def test_bivar_ops_stay_canonical(self, pq, a, b):
        p, q = pq
        rs = (p + q, p - q, BivarPoly.combination([(a, p)]), BivarPoly.combination([(a, p), (b, q)]))
        assert all(_canonical(r) for r in rs)


class TestArithmeticMatchesSympy:
    @settings(max_examples=80, deadline=None)
    @given(upolys, upolys)
    def test_upoly_add_mul(self, p, q):
        P, Q = upoly_to_poly(p), upoly_to_poly(q)
        assert upoly_to_poly(p + q) == P + Q
        assert upoly_to_poly(p - q) == P - Q
        assert upoly_to_poly(p * q) == P * Q

    @settings(max_examples=60, deadline=None)
    @given(bivar_pairs(), gaussians, gaussians)
    def test_bivar_add_combination(self, pq, a, b):
        p, q = pq
        P, Q = bivar_to_poly(p), bivar_to_poly(q)
        assert bivar_to_poly(p + q) == P + Q
        assert bivar_to_poly(p - q) == P - Q
        assert bivar_to_poly(BivarPoly.combination([(a, p)])) == P * _sym(a)
        assert bivar_to_poly(BivarPoly.combination([(a, p), (b, q)])) == P * _sym(a) + Q * _sym(b)

    @settings(max_examples=60, deadline=None)
    @given(forms, forms)
    def test_form_product(self, f, g):
        prod = BivarPoly.from_form_product(f, g)
        F = sum((_sym(c) * Z**j for j, c in enumerate(f.coeffs)), sympy.Integer(0))
        Gw = sum((_sym(c) * W**k for k, c in enumerate(g.coeffs)), sympy.Integer(0))
        assert bivar_to_poly(prod) == sympy.Poly(F * Gw, Z, W, domain=QQ_I)
        assert upoly_to_poly((f * f).chart_t()) == upoly_to_poly(f.chart_t()) ** 2
