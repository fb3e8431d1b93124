"""Differential tests of the exact Z[i] kernels against sympy.

Hypothesis draws small polynomials; sympy over QQ_I is the oracle for
products, divisibility, quotients and resultants.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from shadecalc.poly import (
    BivarPoly,
    bivar_divexact,
    bivar_resultant_w,
    zx_divexact,
    zx_mul,
    zx_strip,
)
from shadecalc.scalars import GaussianRational as G

Z, W = sympy.symbols("z w")
QQ_I = sympy.QQ_I

gints = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
zx_polys = st.lists(gints, min_size=1, max_size=5)
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
gaussians = st.builds(G, small_fractions, small_fractions)


@st.composite
def bivars(draw, max_m=2, max_n=2):
    m = draw(st.integers(0, max_m))
    n = draw(st.integers(0, max_n))
    rows = [[draw(gaussians) for _ in range(n + 1)] for _ in range(m + 1)]
    return BivarPoly(m, n, rows)


def _sym(c):
    if isinstance(c, tuple):
        return sympy.Integer(c[0]) + sympy.I * c[1]
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


def _gr(c):
    re, im = c.as_real_imag()
    return G(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


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
