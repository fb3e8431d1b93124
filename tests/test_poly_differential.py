"""Differential tests of the exact Z[i] kernels and of the polynomial
classes against sympy, and of the word-prime coprimality proof and the
records' diagonal proof against exact gcds.

Hypothesis draws small polynomials; sympy over QQ_I is the oracle for
sums, products, divisibility, quotients, resultants, gcds and squarefree
decompositions, and sympy's ZZ_I gcd for Gaussian content.  The float
tables are checked bit for bit against the per-coefficient
conversion of the exact parts, float values and derivatives against exact
evaluation, and the stored (den, num) pair against its canonical form.
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from shadecalc import chords, poly
from shadecalc.chords import secants
from shadecalc.curves import (CurveComponent, CurveModel, ParamPoint, hopf_pair_curve,
                              p3_forms, split_circles_curve, unknot_curve)
from shadecalc.poly import (
    BinaryForm,
    FORM_ONE,
    GZERO,
    BivarPoly,
    bivar_divexact,
    bivar_gcd,
    bivar_resultant_w,
    coprime_image,
    form_gcd,
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

from helpers import (bivar_value, deck_sextic, exact, form_value, stereo_lift, sylvester_resultant,
                     sympy_bivar_gcd, to_complex)

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
# dyadic parts in [-4, 4]: chart coordinates whose powers never underflow
chart_parts = st.integers(-(2**12), 2**12).map(lambda k: k / 2**10)
chart_points = st.builds(complex, chart_parts, chart_parts)
# curve components of degree 1..6 with wide coefficients, not all zero
components = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.lists(wide_gaussians, min_size=d + 1, max_size=d + 1),
                       min_size=4, max_size=5)
).filter(lambda rows: any(c.re or c.im for r in rows for c in r)).map(
    lambda rows: CurveComponent([BinaryForm(len(r) - 1, r) for r in rows]))


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


forms = st.integers(0, 4).flatmap(forms_of)
form_pairs = st.integers(0, 4).flatmap(lambda d: st.tuples(forms_of(d), forms_of(d)))


def _sym(c):
    """A parsed GaussianRational or a Gaussian integer pair in sympy."""
    re, im = (c.re, c.im) if isinstance(c, G) else c
    return sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
        im.numerator, im.denominator
    )


def _gr(c):
    re, im = c.as_real_imag()
    return G(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def chart_poly(f):
    """f(1, z) of a binary form f as a sympy polynomial."""
    return sympy.Poly(sum((_sym(c) * Z**j for j, c in enumerate(f.coeffs)), sympy.Integer(0)),
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


def _product(a, b):
    return poly_to_bivar(bivar_to_poly(a) * bivar_to_poly(b), a.m + b.m, a.n + b.n)


def _power(var, a):
    """s^a, t^a, u^a or v^a."""
    m, n = (a, 0) if var in "st" else (0, a)
    rows = [[(0, 0)] * (n + 1) for _ in range(m + 1)]
    rows[a if var == "t" else 0][a if var == "v" else 0] = (1, 0)
    return BivarPoly._from_ints(m, n, 1, rows)


nonzero_bivars = bivars().filter(lambda p: not p.is_zero())


@st.composite
def common_factors(draw):
    """A product of one or two factors, each a pure s-, t-, u- or v-power,
    a form in (s, t) alone, a form in (u, v) alone, s (u + v) + c t u
    (the leading coefficient c in z has a Gaussian content) or a random
    polynomial."""
    def factor():
        kind = draw(st.sampled_from(["power", "st", "uv", "content", "random"]))
        if kind == "power":
            return _power(draw(st.sampled_from("stuv")), draw(st.integers(1, 2)))
        if kind == "content":
            c = draw(st.sampled_from([2, 3, G(1, 1), G(2, 1)]))
            return BivarPoly(1, 1, [[1, 1], [c, 0]])
        m, n = {"st": (draw(st.integers(1, 2)), 0), "uv": (0, draw(st.integers(1, 2))),
                "random": (draw(st.integers(1, 2)), draw(st.integers(0, 2)))}[kind]
        return draw(bivars_of(m, n).filter(lambda p: not p.is_zero()))

    c = factor()
    return _product(c, factor()) if draw(st.booleans()) else c


class TestBivarGcd:
    @settings(max_examples=60, deadline=None)
    @given(common_factors(), st.lists(nonzero_bivars, min_size=2, max_size=4))
    def test_matches_sympy_gcd(self, c, cofactors):
        products = [_product(a, c) for a in cofactors]
        got, want = bivar_gcd(*products), sympy_bivar_gcd(products)
        assert (got.m, got.n) == (want.m, want.n)
        assert chords._is_scalar_multiple(got, want)


@st.composite
def matrix_stacks(draw):
    """(P, N, N) stacks as [re] or [re, im] lists of nested int lists, N >= 2.

    Small entries make zero pivots and singular matrices common; on top of
    the drawn members, one has a zero first pivot over a nonzero entry
    below it (a row swap at step 0) and one repeats a row (singular)."""
    n = draw(st.integers(2, 4))
    nparts = draw(st.sampled_from([1, 2]))
    entries = st.integers(-3, 3)
    matrix = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    members = draw(st.lists(st.tuples(*[matrix] * nparts), min_size=0, max_size=3))
    swap, singular = draw(st.tuples(*[matrix] * nparts)), draw(st.tuples(*[matrix] * nparts))
    for A in swap:
        A[0][0] = 0
    swap[0][draw(st.integers(1, n - 1))][0] = draw(st.integers(1, 3))
    for A in singular:
        A[-1] = list(A[0])
    members += [swap, singular]
    draw(st.randoms()).shuffle(members)
    return [[list(m[c]) for m in members] for c in range(nparts)]


class TestBareissStack:
    @settings(max_examples=60, deadline=None)
    @given(matrix_stacks())
    def test_matches_sympy_det(self, parts):
        arrays = [np.array(p, dtype=object) for p in parts]
        dets = poly._bareiss_stack(arrays)
        want = []
        for i in range(len(parts[0])):
            M = sympy.Matrix(parts[0][i])
            if len(parts) == 2:
                M += sympy.I * sympy.Matrix(parts[1][i])
            re, im = sympy.expand(M.det()).as_real_imag()
            want.append((int(re), int(im)))
        got = list(zip(*dets)) if len(dets) == 2 else [(d, 0) for d in dets[0]]
        assert got == want
        assert len(dets) == len(parts)
        assert all(type(d) is int for col in dets for d in col)


@st.composite
def resultant_cases(draw):
    """(p, q, e, k) of bidegrees up to (4, 6) with w-degrees p.n < q.n,
    p.n = q.n or p.n > q.n, real or Gaussian: q = e q' for a form e monic
    in t, so Res(p, q) = e^(p.n) Res(p, q') and the divisor is e^k for
    some 1 <= k <= p.n; the top or bottom w-row of p or q' may be
    zeroed."""
    scalars = draw(st.sampled_from([small_fractions, gaussians]))
    order = draw(st.sampled_from(["<", "=", ">"]))
    n1 = draw(st.integers(1, 5 if order != "=" else 6))
    n2 = n1 if order == "=" else draw(st.integers(n1 + 1, 6))
    na, nb = (n2, n1) if order == ">" else (n1, n2)
    de = draw(st.integers(0, 2))
    e = BinaryForm(de, draw(st.lists(scalars, min_size=de, max_size=de)) + [1])
    p = draw(bivars_of(draw(st.integers(0, 4)), na, scalars))
    q1 = draw(bivars_of(draw(st.integers(0, 4 - de)), nb, scalars))
    rows = [[list(r) for r in f.rows] for f in (p, q1)]
    for r, n in zip(rows, (na, nb)):
        for k in draw(st.sets(st.sampled_from([0, n]))):
            for row in r:
                row[k] = 0
    p = BivarPoly(p.m, na, rows[0])
    e_poly = sympy.Poly(sum((_sym(c) * Z**j for j, c in enumerate(e.coeffs)), sympy.Integer(0)),
                        Z, W, domain=QQ_I)
    q = poly_to_bivar(bivar_to_poly(BivarPoly(q1.m, nb, rows[1])) * e_poly, q1.m + de, nb)
    return p, q, e, draw(st.integers(1, na))


class TestResultant:
    @settings(max_examples=40, deadline=None)
    @given(bivars(), bivars())
    def test_matches_sympy_resultant(self, p, q):
        self.check_resultant(p, q)

    @settings(max_examples=40, deadline=None)
    @given(bivars(3, 3, small_fractions), bivars(3, 3, small_fractions))
    def test_matches_sympy_resultant_real(self, p, q):
        # real inputs take the elimination branch without imaginary parts
        self.check_resultant(p, q)

    @settings(max_examples=30, deadline=None)
    @given(resultant_cases())
    def test_formal_degrees_and_divisor(self, case):
        # every (na, nb) order through the one hybrid matrix builder, with
        # vanishing top or bottom w-rows and a power of a divisor of the
        # resultant; dividing by e^k built as a form gives the same form
        p, q, e, k = case
        ek = FORM_ONE
        for _ in range(k):
            ek = ek * e
        assert self.check_resultant(p, q, e, k) == bivar_resultant_w(p, q, divisor=ek)

    @staticmethod
    def check_resultant(p, q, divisor=FORM_ONE, power=1):
        assume(p.n > 0 and q.n > 0)
        full = bivar_resultant_w(p, q, divisor=divisor, power=power)
        # the oracle's Sylvester determinant, divided exactly by the divisor
        # raised to the power
        want, rem = sympy.Poly(list(reversed(sylvester_resultant(p, q))), Z, domain=QQ_I).div(
            sympy.Poly(list(reversed([exact(c) for c in divisor.coeffs])), Z, domain=QQ_I)
            ** power)
        assert rem.is_zero
        coeffs = [exact(c) for c in poly_coeffs(want)]
        coeffs += [exact(0)] * (full.degree + 1 - len(coeffs))
        assert [exact(c) for c in full.coeffs] == coeffs
        # stripped content: the same form up to a positive rational
        stripped = bivar_resultant_w(p, q, strip_content=True, divisor=divisor, power=power)
        pairs = [(exact(a), exact(b)) for a, b in zip(stripped.coeffs, full.coeffs)]
        ratios = {a / b for a, b in pairs if b}
        assert all(not a for a, b in pairs if not b)
        assert len(ratios) <= 1
        assert all(not r.y and r.x > 0 for r in ratios)
        # ... with integer coefficients that share no rational integer factor
        parts = [x for c in stripped.coeffs for x in (c.re, c.im)]
        assert all(x.denominator == 1 for x in parts)
        assert stripped.is_zero() or math.gcd(*(x.numerator for x in parts)) == 1
        return full


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


class TestGdivexact:
    @settings(max_examples=60, deadline=None)
    @given(wide_gints | gints, wide_gints | gints, st.booleans())
    def test_round_trip_and_errors(self, x, y, real):
        if real:
            x, y = (x[0], 0), (y[0], 0)
        assume(y != (0, 0))
        xy = gmul(x, y)
        assert gdivexact(xy, y) == x
        if gnorm(y) > 1:
            # x y + 1 is a multiple of y only when y is a unit
            with pytest.raises(ArithmeticError):
                gdivexact((xy[0] + 1, xy[1]), y)

    @pytest.mark.parametrize("x", [(5, 0), (0, 0), (5, 1)])
    def test_zero_divisor(self, x):
        with pytest.raises(ZeroDivisionError):
            gdivexact(x, (0, 0))


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

    @pytest.mark.parametrize("k, c", [(0, 1), (1, 2**80 + 7)])
    def test_unlucky_prime(self, k, c):
        # modulo the k-th prime the gcd of (x - c)(x - 2) and (x - c)(x - 2 - p)
        # has degree 2; at k = 1 the first prime alone cannot lift c, so the
        # unlucky image arrives after a lucky one and must be skipped
        p, _ = poly._modular_prime(k)
        f = zx_mul([(-c, 0), (1, 0)], [(-2, 0), (1, 0)])
        g = zx_mul([(-c, 0), (1, 0)], [(-2 - p, 0), (1, 0)])
        assert len(poly._fp_monic_gcd([a % p for a, _ in f], [a % p for a, _ in g], p)) == 3
        assert zx_gcd(f, g) == [(-c, 0), (1, 0)]

    def test_leading_coefficient_vanishing_under_one_image(self):
        # lc h = r - i vanishes under i -> r modulo the first prime only; that
        # image of h is a constant, so not skipping the prime would prove
        # f and g coprime
        p, r = poly._modular_prime(0)
        h = [(1, 0), (r, -1)]
        f, g = zx_mul(h, [(-1, 0), (1, 0)]), zx_mul(h, [(0, 2), (1, 0)])
        (a, b) = h[-1]
        assert (a + b * r) % p == 0 != (a - b * r) % p
        assert zx_gcd(f, g) == [gmul(c, (0, 1)) for c in h]

    def test_real_input_gives_real_gcd_with_positive_lc(self):
        x1, x2 = [(-1, 0), (1, 0)], [(-2, 0), (1, 0)]
        f, g = zx_mul([(-3, 0)], zx_mul(x1, x2)), zx_mul([(-7, 0)], zx_mul(x1, [(5, 0), (1, 0)]))
        assert zx_gcd(f, g) == x1
        assert zx_gcd(zx_mul([(-1, 0)], x2), []) == x2

    @pytest.mark.parametrize("unit", [(1, 0), (0, 1), (-1, 0), (0, -1)])
    def test_unit_normalization(self, unit):
        # an lc with re > 0 and im >= 0, whichever unit the inputs carry
        h = [gmul(c, unit) for c in [(2, 1), (3, -4), (1, 2)]]
        for f, g in [
            (zx_mul(h, [(1, 1), (0, 1)]), zx_mul(h, [(3, 0), (1, 0)])),
            (zx_mul(h, [(1, 1), (0, 1)]), h),
            ([], h),
        ]:
            got = zx_gcd(f, g)
            assert _proportional(got, h) and got[-1][0] > 0 and got[-1][1] >= 0

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_degree_50_planted_factor(self, gaussian):
        # two degree-50 polynomials with ~150-bit coefficients sharing
        # a * b^2 of degree 24; sympy's Gaussian squarefree split of this
        # size takes tens of seconds, so it checks the real case only
        rng = random.Random(2024)

        def rand(d, bits):
            def part():
                return rng.getrandbits(bits) - (1 << bits - 1)
            return [(part(), part() if gaussian else 0) for _ in range(d)] + [(part() | 1, 0)]

        a, b = rand(8, 20), rand(8, 20)
        planted = zx_mul(a, zx_mul(b, b))
        u = rand(26, 90)
        f, g = zx_mul(planted, u), zx_mul(planted, rand(26, 90))
        assert max(abs(x).bit_length() for c in f for x in c) >= 145
        got = zx_gcd(f, g)
        assert len(got) == 25 and _proportional(got, planted)
        zx_divexact(planted, got)
        sqf = sorted(zx_sqf_list(f), key=lambda t: t[1])
        assert [(len(q) - 1, i) for q, i in sqf] == [(34, 1), (8, 2)]
        if gaussian:
            assert _proportional(sqf[0][0], zx_mul(a, u)) and _proportional(sqf[1][0], b)
        else:
            want = sympy.sqf_list(sympy.Poly([x for x, _ in reversed(f)], Z, domain=sympy.ZZ))[1]
            want = {i: [(int(x), 0) for x in reversed(w.all_coeffs())] for w, i in want}
            assert all(_proportional(q, want[i]) for q, i in sqf)


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
    table = p.num if isinstance(p, BinaryForm) else [c for r in p.num for c in r]
    parts = [x for c in table for x in c]
    return p.den > 0 and math.gcd(p.den, *parts) == 1


def _power_rule(p, var, chart_t):
    """The partial of p in the local coordinate of the z (var 0) or w
    (var 1) chart, t or v when chart_t and s or u otherwise, by the power
    rule on the integer table."""
    rows = p.num if var == 0 else list(zip(*p.num))
    deg = len(rows) - 1
    if deg == 0:
        return BivarPoly.zero(p.m, p.n)
    if chart_t:
        d = [[(j * a, j * b) for a, b in rows[j]] for j in range(1, deg + 1)]
    else:
        d = [[((deg - j) * a, (deg - j) * b) for a, b in rows[j]] for j in range(deg)]
    if var == 1:
        d = [list(r) for r in zip(*d)]
    return BivarPoly._from_ints(len(d) - 1, len(d[0]) - 1, p.den, d)


def _abs_chart(f, x):
    """Sum of the moduli of the terms of f(1, x): a scale for round-off."""
    return sum(abs(to_complex(c)) * abs(x) ** k for k, c in enumerate(f.coeffs))


def _abs_value(p, st, uv):
    """Sum of the moduli of p's terms at the pairs: a scale for round-off."""
    s, t = map(abs, st)
    u, v = map(abs, uv)
    return sum(abs(to_complex(c)) * s ** (p.m - j) * t**j * u ** (p.n - k) * v**k
               for j, r in enumerate(p.rows) for k, c in enumerate(r))


class TestFloatEvaluation:
    """Each coefficient is converted on its own, each exact part
    rounded; values and local-chart derivatives read off the complex
    tables agree with exact evaluation."""

    @settings(max_examples=150, deadline=None)
    @given(bivars(max_m=3, max_n=3, scalars=wide_gaussians), chart_points, chart_points,
           st.booleans(), st.booleans())
    def test_jet(self, p, zx, wx, z_chart_t, w_chart_t):
        # the table holds each coefficient rounded on its own, and the
        # power vectors with their local-chart derivatives give the value
        # and both partials of the exact rows at (1, x) or (x, 1)
        T, _ = chords._coeff_tables([p])
        assert T[0].tolist() == [[to_complex(c) for c in r] for r in p.rows]
        zpair = (1, zx) if z_chart_t else (zx, 1)
        wpair = (1, wx) if w_chart_t else (wx, 1)
        G = chords._jets(T, np.array([[zx, wx]], dtype=complex),
                         np.array([[z_chart_t, w_chart_t]]))
        got = G[0, 0, 0, 0], G[0, 0, 1, 0], G[0, 0, 0, 1]
        for g, q in zip(got, (p, _power_rule(p, 0, z_chart_t), _power_rule(p, 1, w_chart_t))):
            want = to_complex(bivar_value(q, zpair, wpair))
            assert abs(g - want) <= 1e-12 * _abs_value(q, zpair, wpair)

    @settings(max_examples=150, deadline=None)
    @given(components, chart_points, st.booleans())
    def test_component_jet(self, comp, x, chart_t):
        # value and local-chart derivative of every coordinate against the
        # exact form value and the exact derivative of its chart polynomial;
        # normalization may move a point with |x| > 1 to the other chart
        p = ParamPoint(*((1, x) if chart_t else (x, 1)))
        p_chart_t, px = p.local()
        vals, dvals = comp.jet(p)
        for f, v, dv in zip(comp.coords, vals, dvals):
            # u(1, x) is f(1, x) or f(x, 1)
            u = BinaryForm(f.degree, f.coeffs if p_chart_t else f.coeffs[::-1])
            du = u.partials()[1]
            assert abs(v - to_complex(form_value(f, p.s, p.t))) <= 1e-12 * _abs_chart(u, px)
            assert abs(dv - to_complex(form_value(du, 1, px))) <= 1e-12 * _abs_chart(du, px)

    @settings(max_examples=150, deadline=None)
    @given(components, st.lists(st.tuples(chart_parts, chart_parts), max_size=6))
    def test_component_values(self, comp, pairs):
        # unnormalized real pairs, as the renderer passes (cos a, sin a)
        pairs = [(s, t) for s, t in pairs if s or t]
        got = comp.values(pairs)
        assert len(got) == len(pairs)
        for (s, t), row in zip(pairs, got):
            for f, v in zip(comp.coords, row):
                scale = sum(abs(to_complex(c)) * abs(s) ** (f.degree - k) * abs(t) ** k
                            for k, c in enumerate(f.coeffs))
                assert abs(v - to_complex(form_value(f, s, t))) <= 1e-12 * scale


class TestCanonicalForm:
    def test_scaled_input_gives_equal_objects(self):
        assert BinaryForm(0, [Fraction(2, 4)]) == BinaryForm(0, [Fraction(1, 2)])
        assert hash(BinaryForm(0, [Fraction(2, 4)])) == hash(BinaryForm(0, [Fraction(1, 2)]))
        assert BinaryForm(1, [0, 0]).den == 1 and BivarPoly.zero(1, 2).den == 1

    @settings(max_examples=80, deadline=None)
    @given(st.lists(gaussians, min_size=1, max_size=5), st.integers(1, 10**6))
    def test_unreduced_tables(self, cs, k):
        p = BinaryForm(len(cs) - 1, cs)
        q = BinaryForm._from_ints(p.degree, p.den * k, [(a * k, b * k) for a, b in p.num])
        assert (q.den, q.num) == (p.den, p.num)
        assert q == p and hash(q) == hash(p)
        # the exact view gives back the input
        assert p.coeffs == tuple(cs)

    @settings(max_examples=80, deadline=None)
    @given(bivars(), st.integers(1, 10**6))
    def test_unreduced_bivar_tables(self, p, k):
        q = BivarPoly._from_ints(p.m, p.n, p.den * k, [[(a * k, b * k) for a, b in r] for r in p.num])
        assert q == p and hash(q) == hash(p)
        assert q.rows == p.rows

    @settings(max_examples=80, deadline=None)
    @given(form_pairs, forms, gaussians)
    def test_form_ops_stay_canonical(self, fg, h, c):
        f, g = fg
        rs = (f + g, f - g, f * h, f * c, *(f.partials() if f.degree else ()))
        assert all(_canonical(r) for r in rs)

    @settings(max_examples=80, deadline=None)
    @given(bivar_pairs(), gaussians, gaussians)
    def test_bivar_ops_stay_canonical(self, pq, a, b):
        p, q = pq
        rs = (p + q, p - q, BivarPoly.combination([(a, p)]), BivarPoly.combination([(a, p), (b, q)]))
        assert all(_canonical(r) for r in rs)


class TestArithmeticMatchesSympy:
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
        assert chart_poly(f * f) == chart_poly(f) ** 2


class TestInterpStack:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24).flatmap(lambda n: st.lists(wide_gints | gints, min_size=n,
                                                         max_size=n)),
           st.booleans())
    def test_round_trip(self, coeffs, real):
        # the values of a Z[i] polynomial at the nodes 0, 1, -1, 2, ...
        # give back its coefficients, as [re] for a real one
        if real:
            coeffs = [(a, 0) for a, _ in coeffs]
        xs = [(i + 1) // 2 * (-1) ** (i + 1) for i in range(len(coeffs))]
        values = [poly._zx_value(coeffs, x) for x in xs]
        re, im = (np.array(part, dtype=object) for part in zip(*values))
        assert poly._interp_stack(xs, [re] if real else [re, im]) == coeffs


# -- the word-prime coprimality proof and the records' diagonal proof --------

P0, R0 = poly._modular_prime(0)
S, T = sympy.symbols("s t")


def _form(cs):
    """The binary form with the Gaussian-integer pairs cs, cs[k] at
    s^(d-k) t^k."""
    return BinaryForm._from_ints(len(cs) - 1, 1, cs)


def _sympy_form_gcd_degree(forms):
    """The degree of sympy's gcd over QQ_I of nonzero binary forms, read
    as homogeneous polynomials in s and t."""
    polys = [sympy.Poly(sum((_sym(c) * S ** (f.degree - k) * T**k
                             for k, c in enumerate(f.coeffs)), sympy.Integer(0)),
                        S, T, domain=QQ_I) for f in forms]
    return functools.reduce(sympy.gcd, polys).total_degree()


@st.composite
def planted_form_lists(draw):
    """(h, forms): two to four forms of one degree <= 6 over Z[i], each a
    random cofactor times h, where h is 1, s^k, t^k, a real linear form, a
    Gaussian quadratic or s + p t (p the first prime, so the image of h
    is s); some forms are multiplied by p or by i - r, so that their image
    vanishes."""
    kind = draw(st.sampled_from(["one", "s^k", "t^k", "linear", "quadratic", "s+pt"]))
    if kind == "one":
        h = FORM_ONE
    elif kind in ("s^k", "t^k"):
        cs = [(1, 0)] + [GZERO] * draw(st.integers(1, 3))
        h = _form(cs if kind == "s^k" else cs[::-1])
    elif kind == "linear":
        h = _form(draw(st.lists(st.tuples(st.integers(-6, 6), st.just(0)), min_size=2,
                                max_size=2).filter(lambda cs: any(a for a, _ in cs))))
    elif kind == "quadratic":
        h = _form(draw(st.lists(gints, min_size=3, max_size=3).filter(
            lambda cs: any(c != GZERO for c in cs))))
    else:
        h = _form([(1, 0), (P0, 0)])
    d = draw(st.integers(0, 6 - h.degree))
    forms = []
    for _ in range(draw(st.integers(2, 4))):
        f = _form(draw(st.lists(gints, min_size=d + 1, max_size=d + 1))) * h
        vanish = draw(st.sampled_from(["no", "no", "no", "p", "i - r"]))
        forms.append(f * {"no": 1, "p": P0, "i - r": G(-R0, 1)}[vanish])
    return h, forms


class TestCoprimeImage:
    @settings(max_examples=150, deadline=None)
    @given(planted_form_lists())
    def test_never_coprime_where_the_exact_gcd_is_not(self, case):
        h, forms = case
        live = [f for f in forms if not f.is_zero()]
        assume(live)
        want = _sympy_form_gcd_degree(live)
        assert want >= h.degree
        if coprime_image(live):
            assert want == 0
        assert form_gcd(live).degree == want

    def test_a_lost_term_keeps_the_factor(self):
        # the image of s + p t is s, still of degree 1, so it divides both
        # images and nothing is proven; the exact gcd finds s + p t
        h = _form([(1, 0), (P0, 0)])
        f, g = h * _form([(1, 0), (-1, 0)]), h * _form([(1, 0), (2, 0)])
        assert not coprime_image([f, g])
        assert form_gcd([f, g]) == h

    @pytest.mark.parametrize("unit", [P0, G(-R0, 1)], ids=["p", "i - r"])
    def test_a_vanishing_image_proves_nothing_alone(self, unit):
        # f's image is zero; g's alone has a nonconstant core, so only the
        # exact path can show f, g coprime, and with a third form the
        # images of g and k prove it
        f, g, k = _form([(1, 0), (1, 0)]) * unit, _form([(1, 0), (-1, 0)]), _form([(1, 0), (2, 0)])
        assert not coprime_image([f, g])
        assert form_gcd([f, g]) == FORM_ONE
        assert coprime_image([f, g, k])

    def test_common_powers_of_s_and_t(self):
        # s t^2 and s^2 t (the images are the forms) share s t; s^2 and t^2
        # share nothing
        st2, s2t = _form([GZERO, (1, 0), GZERO, GZERO]), _form([GZERO, GZERO, (1, 0), GZERO])
        assert not coprime_image([st2, s2t])
        assert form_gcd([st2, s2t]).degree == 2
        s2, t2 = _form([(1, 0), GZERO, GZERO]), _form([GZERO, GZERO, (1, 0)])
        assert coprime_image([s2, t2]) and form_gcd([s2, t2]) == FORM_ONE


def p3_curve_forms(max_degree):
    """Four forms of one degree up to max_degree with small integer
    coefficients, not all zero."""
    return st.integers(1, max_degree).flatmap(lambda d: st.lists(
        st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1), min_size=4, max_size=4)
    ).filter(lambda rows: any(any(r) for r in rows)).map(
        lambda rows: [BinaryForm(len(r) - 1, r) for r in rows])


def _jacobian_minors(forms):
    """The nonzero 2x2 minors of [x_s | x_t]."""
    ds, dt = zip(*(f.partials() for f in forms))
    minors = [ds[a] * dt[b] - ds[b] * dt[a] for a in range(len(forms)) for b in range(a)]
    return [m for m in minors if not m.is_zero()]


class TestDiagonalProof:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(forms_of(d), forms_of(d))))
    def test_bezoutian_diagonal_is_the_jacobian_minor(self, fg):
        # at z = w the Bezoutian of f, g is (f_s g_t - f_t g_s) / d
        f, g = fg
        (fs, ft), (gs, gt) = f.partials(), g.partials()
        assert BivarPoly.bezoutian(f, g).diagonal() == (fs * gt - ft * gs) * Fraction(1, f.degree)

    # the sphere lift of the line [t, 0, 0, s]: its five-coordinate record
    # carries the proof, while its P3 image (0, 0, 2s^2 + 2st, -2st - t^2)
    # double covers a line, with one Jacobian minor of degree 2
    LINE_LIFT = (True, [BinaryForm(1, [0, 1]), BinaryForm(1, [0, 0]),
                        BinaryForm(1, [0, 0]), BinaryForm(1, [1, 0])])

    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(lambda lift: st.tuples(st.just(lift),
                                                        p3_curve_forms(2 if lift else 3))))
    @example(LINE_LIFT)
    def test_proof_means_immersed_and_coprime(self, case):
        # on P3 curves of degree up to 3 and the lifts of those up to 2 to
        # the sphere (degree 4), a record that carries the proof has
        # coprime Jacobian minors of its own coordinates (the P3 image's
        # for the p3 record, all five for the other), belongs to an
        # immersed component, and its forms have a constant gcd, all by
        # sympy.  An immersed sphere curve may have a P3 image that is not
        # immersed, so the five-coordinate record says nothing of it
        lift, forms = case
        curve = stereo_lift(forms) if lift else CurveModel("P3", [CurveComponent(forms)])
        comp = curve.components[0]
        assume(comp.base_point_free())  # the records of a curve that validates
        for p3 in sorted({True, comp.nvars == 4}):
            rec = secants(curve, 0, 0, p3=p3)
            if rec.immersed:
                assert rec.removed == (1, 1) and rec.diagonal_only
                coords = p3_forms(comp.coords) if p3 else comp.coords
                assert _sympy_form_gcd_degree(_jacobian_minors(coords)) == 0
                assert comp.is_immersion()
                g = sympy_bivar_gcd([m for m in rec.minors if not m.is_zero()])
                assert (g.m, g.n) == (0, 0)

    CUSP = [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]

    def test_absent_on_cusps_and_deck_records(self):
        cusp = CurveModel("P3", [CurveComponent([BinaryForm(4, r) for r in self.CUSP])])
        records = [(cusp, 0, 0), (deck_sextic(), 0, 0), (deck_sextic(rotate=True), 0, 0),
                   (unknot_curve(), 0, 0), (hopf_pair_curve(), 0, 0), (hopf_pair_curve(), 1, 1),
                   (split_circles_curve(), 0, 1)]
        for curve, i, j in records:
            assert not secants(curve, i, j, p3=True).immersed
        assert not cusp.components[0].is_immersion()
