import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shadecalc.errors import CurveFileError
from shadecalc.poly import BinaryForm
from shadecalc.reportio import parse_curve_json
from shadecalc.scalars import GaussianRational as G, Surd, format_scalar, parse_scalar, surd_parts

rationals = st.fractions(max_denominator=50)
gaussians = st.builds(G, rationals, rationals)
surds = st.builds(Surd, rationals, rationals.filter(bool),
                  st.integers(2, 99).filter(lambda n: math.isqrt(n) ** 2 != n))


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

    @given(gaussians)
    def test_scalar_roundtrip_drawn(self, x):
        # a parsed pair goes into a polynomial's integer table and comes
        # back from its coeffs view as the same pair, in lowest terms
        assert parse_scalar(format_scalar(x)) == x
        (back,) = BinaryForm(0, [x]).coeffs
        assert back == x and all(type(q) is Fraction for q in back)

    @given(surds)
    def test_surd_coefficient_refused(self, v):
        # a sqrt form parses, but only a center lift may hold one
        text = format_scalar(v)
        assert parse_scalar(text) == v
        obj = {"components": [{"coords": [[text, "1"], ["1", "0"], ["0", "1"], ["1", "1"]]}]}
        with pytest.raises(CurveFileError, match="is not an exact rational"):
            parse_curve_json(obj)

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
