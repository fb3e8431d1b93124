import random
from fractions import Fraction

import numpy as np
import pytest

from shadecalc import chords, poly
from shadecalc.curves import kae_curve
from shadecalc.chords import coincidence_system, collinearity_system, secants
from shadecalc.poly import (
    BinaryForm,
    BivarPoly,
    bivar_gcd,
    bivar_divexact,
    bivar_resultant_w,
)
from shadecalc.scalars import GaussianRational as G, QQ


def bp(m, n, entries):
    """BivarPoly from {(j, k): coeff} of z^j w^k."""
    rows = [[0] * (n + 1) for _ in range(m + 1)]
    for (j, k), c in entries.items():
        rows[j][k] = c
    return BivarPoly(m, n, rows)


DIAG = bp(1, 1, {(0, 1): 1, (1, 0): -1})  # w - z ... sv - tu homogeneously


class TestPartials:
    @pytest.mark.parametrize("coeffs", [[1, 2], [3, 0, G(1, 2), -7], [G(0, 1), 0, 0, 2, QQ(1, 3)]])
    def test_euler_identity(self, coeffs):
        # s f_s + t f_t = d f
        f = BinaryForm(len(coeffs) - 1, coeffs)
        d = f.degree
        fs, ft = f.partials()
        s, t = BinaryForm(1, [1, 0]), BinaryForm(1, [0, 1])
        assert (fs.degree, ft.degree) == (d - 1, d - 1)
        assert s * fs + t * ft == f * d

    def test_by_hand(self):
        # f = s^2 t + 3 t^3: f_s = 2 s t, f_t = s^2 + 9 t^2
        fs, ft = BinaryForm(3, [0, 1, 0, 3]).partials()
        assert fs == BinaryForm(2, [0, 2, 0]) and ft == BinaryForm(2, [1, 0, 9])


class TestResultant:
    def test_linear_system(self):
        # 2x2 Sylvester of a linear pair
        f = bp(1, 1, {(1, 0): 1, (0, 1): -1})  # z - w
        g = bp(1, 1, {(1, 0): 1, (0, 1): 1})  # z + w
        assert bivar_resultant_w(f, g) == BinaryForm(2, [0, 2, 0])

    def test_quartic_by_hand(self):
        # res(z^2 + w^2, z w - 1, w) expanded by hand: z^4 + 1
        f = bp(2, 2, {(2, 0): 1, (0, 2): 1})
        g = bp(1, 1, {(1, 1): 1, (0, 0): -1})
        assert bivar_resultant_w(f, g) == BinaryForm(4, [1, 0, 0, 0, 1])

    def test_shared_factor_vanishes(self):
        # (z - w)(z + w) against (z - w)
        f = bp(2, 2, {(2, 0): 1, (0, 2): -1})
        assert bivar_resultant_w(f, DIAG).is_zero()

    def test_eliminate_z(self):
        f = bp(1, 1, {(1, 0): 1, (0, 1): -1})
        g = bp(1, 1, {(1, 0): 1, (0, 1): 1})
        r = bivar_resultant_w(f.swap_vars(), g.swap_vars())
        assert r == BinaryForm(2, [0, -2, 0])

    def test_zero_input_gives_zero_resultant(self):
        # the chord solver retries a combination whose resultant is zero;
        # an input without w is rejected
        assert bivar_resultant_w(bp(1, 1, {}), DIAG).is_zero()
        with pytest.raises(ValueError):
            bivar_resultant_w(bp(1, 0, {(1, 0): 1}), DIAG)

    def test_zero_pivot_at_node_zero(self):
        # f(0, w) = w^2, so the Sylvester matrix at z = 0 has a zero pivot
        # and swaps rows; at z = 1 it does not
        f = bp(1, 2, {(0, 2): 1, (1, 1): 1, (1, 0): 1})  # w^2 + z w + z
        g = bp(1, 1, {(0, 1): 1, (1, 0): -1, (0, 0): 1})  # w - z + 1
        assert f.num[0][0] == (0, 0)
        assert bivar_resultant_w(f, g) == BinaryForm(3, [1, -2, 2, 0])

    def test_resultant_vanishing_at_nodes_one_and_minus_one(self):
        # at z = +-1 both inputs lose their w^0 term: the Sylvester column
        # is zero there, so those determinants are 0
        f = bp(2, 2, {(0, 2): 1, (0, 1): 1, (2, 0): 1, (0, 0): -1})  # w^2 + w + z^2 - 1
        g = bp(2, 2, {(0, 2): 1, (0, 1): -1, (2, 0): 2, (0, 0): -2})  # w^2 - w + 2 z^2 - 2
        r = bivar_resultant_w(f, g)
        assert r == BinaryForm(8, [-5, 0, 4, 0, 1, 0, 0, 0, 0])  # (z - 1)(z + 1)(z^2 + 5)
        assert not r.eval(1, 1) and not r.eval(1, -1)

    def test_form_holds_plain_ints(self):
        # hashing, equality and bit counts read the integer table
        f = bp(1, 2, {(0, 2): 1, (1, 1): G(2, 3), (1, 0): 5})
        for g in (DIAG, bp(1, 1, {(0, 1): G(0, 1), (1, 0): 3})):
            for strip in (False, True):
                form = bivar_resultant_w(f, g, strip_content=strip)
                assert all(type(x) is int for c in form.num for x in c)
                assert type(form.den) is int

    def test_inexact_division_raises(self):
        # 0, 1, 0 at the nodes 0, 1, -1 is no integer polynomial: the
        # divided difference (0 - 1) / (-1 - 1) is not an integer
        with pytest.raises(ArithmeticError):
            poly._interp_stack([0, 1, -1], [np.array([0, 1, 0], dtype=object)])
        # a non-integer pivot: the second step floors (3/4) / (3/2) to 0
        M = np.array([[[Fraction(3, 2), 1, 0], [1, 1, 0], [0, 1, 1]]], dtype=object)
        with pytest.raises(ArithmeticError):
            poly._bareiss_stack([M])

    def test_root_product_oracle(self):
        # resultant at z0 vs lc_f^(deg g) lc_g^(deg f) prod (beta - alpha)
        rng = random.Random(20240809)
        checked = 0
        while checked < 200:
            m1, n1 = rng.randint(1, 3), rng.randint(1, 3)
            m2, n2 = rng.randint(1, 3), rng.randint(1, 3)
            f = bp(m1, n1, {(j, k): rng.randint(-6, 6) for j in range(m1 + 1) for k in range(n1 + 1)})
            g = bp(m2, n2, {(j, k): rng.randint(-6, 6) for j in range(m2 + 1) for k in range(n2 + 1)})
            if f.is_zero() or g.is_zero():
                continue
            r = bivar_resultant_w(f, g)
            z0 = QQ(rng.randint(-4, 4), rng.randint(1, 3))
            fw = [complex(sum(complex(f.rows[j][k]) * complex(z0) ** j for j in range(m1 + 1))) for k in range(n1 + 1)]
            gw = [complex(sum(complex(g.rows[j][k]) * complex(z0) ** j for j in range(m2 + 1))) for k in range(n2 + 1)]
            if abs(fw[-1]) < 1e-9 or abs(gw[-1]) < 1e-9:
                continue
            alpha = np.roots(list(reversed(fw))) if n1 else []
            beta = np.roots(list(reversed(gw))) if n2 else []
            prod = fw[-1] ** n2 * gw[-1] ** n1
            for b in beta:
                for a in alpha:
                    prod *= b - a
            mine = complex(r.eval(1, z0))
            scale = max(abs(prod), abs(mine), 1e-30)
            assert abs(mine - prod) <= 1e-8 * scale, (fw, gw, mine, prod)
            checked += 1


class TestSaturate:
    """Saturation is repeated exact division by a common factor."""

    def test_square_factor(self):
        # (z - w)^2 (z + w) divides by (z - w) exactly twice
        zmw = bp(1, 1, {(1, 0): 1, (0, 1): -1})
        zpw = bp(1, 1, {(1, 0): 1, (0, 1): 1})
        once = bivar_divexact(_mul(_mul(zmw, zmw), zpw), zmw)
        twice = bivar_divexact(once, zmw)
        assert (twice.m, twice.n, twice.rows) == (zpw.m, zpw.n, zpw.rows)
        with pytest.raises(ArithmeticError):
            bivar_divexact(twice, zmw)

    def test_k_zero(self):
        zmw = bp(1, 1, {(1, 0): 1, (0, 1): -1})
        zpw = bp(1, 1, {(1, 0): 1, (0, 1): 1})
        with pytest.raises(ArithmeticError):
            bivar_divexact(zpw, zmw)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            bivar_divexact(DIAG, bp(1, 1, {}))

    def test_kae_chord_minors_share_one_diagonal(self):
        # the degree-3 knot at a = 1/2: each chord minor is divisible by
        # the diagonal exactly once, and the quotient survives at a
        # probe point off the diagonal; the minors over the saturated
        # Plücker forms are those quotients up to one scalar
        curve = kae_curve(QQ(1, 2), -1)
        comp = curve.components[0]
        center = [G(1), G(QQ(1, 3)), G(QQ(-2, 5)), G(2)]
        minors = collinearity_system(center, coincidence_system(comp.coords, comp.coords))
        saturated = collinearity_system(center, secants(curve, 0, 0, p3=True).minors)
        diag = bp(1, 1, {(0, 1): 1, (1, 0): -1})
        for mnr, sat in zip(minors, saturated):
            if mnr.is_zero():
                assert sat.is_zero()
                continue
            q = bivar_divexact(mnr, diag)
            assert _mul(q, diag).rows == mnr.rows
            with pytest.raises(ArithmeticError):
                bivar_divexact(q, diag)
            assert not q.is_zero()
            assert _same_up_to_scalar(q, sat)


def _mul(a, b):
    out = BivarPoly.zero(a.m + b.m, a.n + b.n)
    rows = [[G(0)] * (out.n + 1) for _ in range(out.m + 1)]
    for j1 in range(a.m + 1):
        for k1 in range(a.n + 1):
            if not a.rows[j1][k1]:
                continue
            for j2 in range(b.m + 1):
                for k2 in range(b.n + 1):
                    rows[j1 + j2][k1 + k2] = rows[j1 + j2][k1 + k2] + a.rows[j1][k1] * b.rows[j2][k2]
    return BivarPoly(out.m, out.n, rows)


def _same_up_to_scalar(p, q):
    ratio = None
    if (p.m, p.n) != (q.m, q.n):
        return False
    for rp, rq in zip(p.rows, q.rows):
        for x, y in zip(rp, rq):
            if not x and not y:
                continue
            if not x or not y:
                return False
            r = x / y
            ratio = ratio or r
            if r != ratio:
                return False
    return True


class TestGcd:
    def test_products(self):
        zmw = bp(1, 1, {(1, 0): 1, (0, 1): -1})
        zpw = bp(1, 1, {(1, 0): 1, (0, 1): 1})
        a = _mul(_mul(zmw, zmw), zpw)
        b = _mul(zmw, zmw)
        g = bivar_gcd(a, b)
        assert _same_up_to_scalar(g, b)
        assert _same_up_to_scalar(bivar_divexact(a, g), zpw)


class TestComplexTable:
    def test_equality_and_hash_read_the_table(self):
        a = bp(2, 1, {(0, 0): QQ(1, 3), (1, 1): G(2, -5), (2, 0): -7})
        b = bp(2, 1, {(0, 0): QQ(1, 3), (1, 1): G(2, -5), (2, 0): -7})
        assert a == b and hash(a) == hash(b) and b == a
        assert {a: 1}[b] == 1
        assert a != bp(2, 1, {(0, 0): QQ(1, 3), (2, 0): -7})

    def test_stacked_tables_and_scales(self):
        # the chord solver's float view: one complex table per polynomial
        # of one bidegree, and per table the sum of the moduli
        p = bp(1, 1, {(0, 0): QQ(1, 3), (1, 1): G(QQ(-2, 7), 1)})
        T, scales = chords._coeff_tables([p, BivarPoly.zero(1, 1)])
        assert T.tolist() == [[[1 / 3, 0], [0, complex(-2 / 7, 1)]], [[0, 0], [0, 0]]]
        assert scales.tolist() == [1 / 3 + abs(complex(-2 / 7, 1)), 1.0]


class TestBinaryForm:
    def test_eval_examples(self):
        f = BinaryForm(2, [1, 0, 1])  # s^2 + t^2
        assert f.eval(G(1), G(0, 1)) == G(0)
        x0 = BinaryForm(6, [1, 0, 3, 0, 3, 0, 1])  # (s^2+t^2)^3
        assert x0.eval(G(1), G(1)) == G(8)
        with pytest.raises(TypeError):
            f.eval(1 + 0j, 0j)  # evaluation is exact only

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            BinaryForm(2, [1, 0, 1]).eval(G(0), G(0))

    def test_charts(self):
        f = BinaryForm(3, [2, 0, -1, 5])
        assert f.to_zx() == [(2, 0), (0, 0), (-1, 0), (5, 0)]
        # f(1, t) loses the zero t^d coefficient and the integer content
        assert BinaryForm(4, [4, 0, G(-2, 2), 6, 0]).to_zx() == [(2, 0), (0, 0), (-1, 1), (3, 0)]
