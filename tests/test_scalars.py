from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shadecalc.scalars import GaussianRational as G, Surd, format_scalar, parse_scalar, surd_parts

rationals = st.fractions(max_denominator=50)
gaussians = st.builds(G, rationals, rationals)


class TestGaussianRational:
    def test_basic_arithmetic(self):
        i = G(0, 1)
        assert i * i == G(-1)
        assert (G(1, 2) * G(1, -2)) == G(5)
        assert G(3, 4) / G(3, 4) == G(1)

    def test_real_comparison(self):
        assert G(Fraction(2, 4)) == Fraction(1, 2)
        assert G(Fraction(1, 2), 0).is_real
        assert not G(0, Fraction(1, 3)).is_real

    @given(gaussians, gaussians, gaussians)
    def test_ring_laws(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c

    @given(gaussians)
    def test_conjugation(self, a):
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).is_real

    @given(gaussians, gaussians)
    def test_division(self, a, b):
        if b:
            assert (a / b) * b == a

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            G(1) / G(0)


class TestParsing:
    @pytest.mark.parametrize(
        "text,val",
        [
            ("3/4", G(Fraction(3, 4))),
            ("-2", G(-2)),
            ("1/2+1/3 i", G(Fraction(1, 2), Fraction(1, 3))),
            ("1/2-1/3 i", G(Fraction(1, 2), Fraction(-1, 3))),
            ("2 i", G(0, 2)),
            ("-5/7 i", G(0, Fraction(-5, 7))),
        ],
    )
    def test_scalar_roundtrip(self, text, val):
        assert parse_scalar(text) == val
        assert parse_scalar(format_scalar(val)) == val

    def test_sqrt_form(self):
        v = parse_scalar("1/2+3*sqrt(2)")
        assert v == Surd(Fraction(1, 2), 3, 2)
        assert format_scalar(v) == str(v) == "1/2+3*sqrt(2)"
        assert parse_scalar(format_scalar(v)) == v
        assert str(parse_scalar("1*sqrt(2)")) == "0+1*sqrt(2)"

    @pytest.mark.parametrize(
        "text,val",
        [("-2+1*sqrt(4)", G(0)), ("0+1*sqrt(1)", G(1)), ("3-2*sqrt(9)", G(-3)),
         ("5+0*sqrt(2)", G(5)), ("1/2+3*sqrt(0)", G(Fraction(1, 2)))],
    )
    def test_rational_sqrt_forms_are_rationals(self, text, val):
        # b * sqrt(k^2) reads as b * k, and b = 0 as a: a Surd is irrational
        v = parse_scalar(text)
        assert isinstance(v, G) and v == val

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1+2j", "sqrt(2)"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_scalar(bad)


class TestSurdParts:
    def test_split(self):
        A, B, n = surd_parts([Fraction(1), Surd(Fraction(1, 2), -3, 5), Fraction(0)])
        assert (A, B, n) == ([1, Fraction(1, 2), 0], [0, -3, 0], 5)
        assert surd_parts([1, Fraction(2, 3)]) == ([1, Fraction(2, 3)], [0, 0], 0)

    def test_mixed_radicands(self):
        with pytest.raises(ValueError, match="mixes the radicands 2 and 3"):
            surd_parts([Surd(0, 1, 3), Surd(0, 1, 2)])
        with pytest.raises(ValueError, match="mixes the radicands 2 and 3"):
            surd_parts([Surd(0, 1, 8), Surd(0, 1, 2), Surd(0, 1, 3)])

    def test_radicands_of_one_field(self):
        # sqrt(8) = 2 sqrt(2) and sqrt(18) = 3/2 sqrt(8): n m is a square
        A, B, n = surd_parts([1, Surd(0, 1, 2), Surd(1, 1, 8)])
        assert (A, B, n) == ([1, 0, 1], [0, 1, 2], 2)
        assert surd_parts([Surd(0, 1, 18), Surd(0, 1, 8)]) == ([0, 0], [Fraction(3, 2), 1], 8)

    def test_huge_radicands(self):
        # one isqrt per entry decides it; nothing is factored
        big = 2 * 3**400
        assert surd_parts([Surd(0, 1, 2), Surd(0, 1, big)])[1] == [1, 3**200]
        with pytest.raises(ValueError, match="mixes the radicands"):
            surd_parts([Surd(0, 1, 2), Surd(0, 1, big + 2)])
