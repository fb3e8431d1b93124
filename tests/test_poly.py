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
    gadd,
    gmul,
)
from shadecalc.scalars import GaussianRational as G, QQ

from helpers import exact, form_value, to_complex


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
        # a linear pair: a 1 x 1 hybrid matrix (the Sylvester matrix is 2 x 2)
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

    @staticmethod
    def _stacks(monkeypatch):
        """The matrix stacks that `_bareiss_stack` receives, copied before
        it overwrites them."""
        stacks, bareiss = [], poly._bareiss_stack

        def spy(parts):
            stacks.append([A.copy() for A in parts])
            return bareiss(parts)
        monkeypatch.setattr(poly, "_bareiss_stack", spy)
        return stacks

    def test_zero_pivot_at_node_zero(self, monkeypatch):
        # g(0, w) = w, so at z = 0 the hybrid matrix's first row, g, has a
        # zero pivot over the Bezout row's -f(0, 0) = -1 and the
        # elimination swaps rows; at the nodes 1, -1, 2, -2 it does not
        f = bp(1, 2, {(0, 2): 3, (0, 1): 1, (1, 1): 1, (0, 0): 1, (1, 0): -1})  # 3 w^2 + (1 + z) w + 1 - z
        g = bp(1, 1, {(0, 1): 1, (1, 0): 1})  # w + z
        stacks = self._stacks(monkeypatch)
        assert bivar_resultant_w(f, g) == BinaryForm(3, [1, -2, 2, 0])
        [[M]] = stacks
        assert [i for i, A in enumerate(M) if A[0, 0] == 0] == [0]
        assert M[0, 1, 0] != 0

    def test_resultant_vanishing_at_nodes_one_and_minus_one(self, monkeypatch):
        # at z = +-1 both inputs lose their w^0 term, so the hybrid
        # matrix's first column, (g0 - f0, f1 g0 - g1 f0), is zero there:
        # those two matrices leave the elimination with determinant 0
        f = bp(2, 2, {(0, 2): 1, (0, 1): 1, (2, 0): 1, (0, 0): -1})  # w^2 + w + z^2 - 1
        g = bp(2, 2, {(0, 2): 1, (0, 1): -1, (2, 0): 2, (0, 0): -2})  # w^2 - w + 2 z^2 - 2
        stacks = self._stacks(monkeypatch)
        r = bivar_resultant_w(f, g)
        assert r == BinaryForm(8, [-5, 0, 4, 0, 1, 0, 0, 0, 0])  # (z - 1)(z + 1)(z^2 + 5)
        assert not form_value(r, 1, 1) and not form_value(r, 1, -1)
        [[M]] = stacks
        assert [i for i, A in enumerate(M) if not A[:, 0].any()] == [1, 2]  # the nodes 1, -1

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
            fw = [complex(sum(to_complex(f.rows[j][k]) * complex(z0) ** j for j in range(m1 + 1))) for k in range(n1 + 1)]
            gw = [complex(sum(to_complex(g.rows[j][k]) * complex(z0) ** j for j in range(m2 + 1))) for k in range(n2 + 1)]
            if abs(fw[-1]) < 1e-9 or abs(gw[-1]) < 1e-9:
                continue
            alpha = np.roots(list(reversed(fw))) if n1 else []
            beta = np.roots(list(reversed(gw))) if n2 else []
            prod = fw[-1] ** n2 * gw[-1] ** n1
            for b in beta:
                for a in alpha:
                    prod *= b - a
            mine = to_complex(form_value(r, 1, z0))
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
        center = [1, QQ(1, 3), QQ(-2, 5), 2]
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
    """a * b, the schoolbook product of the integer tables."""
    rows = [[(0, 0)] * (a.n + b.n + 1) for _ in range(a.m + b.m + 1)]
    for j1, r1 in enumerate(a.num):
        for k1, c1 in enumerate(r1):
            for j2, r2 in enumerate(b.num):
                for k2, c2 in enumerate(r2):
                    rows[j1 + j2][k1 + k2] = gadd(rows[j1 + j2][k1 + k2], gmul(c1, c2))
    return BivarPoly._from_ints(a.m + b.m, a.n + b.n, a.den * b.den, rows)


def _same_up_to_scalar(p, q):
    ratio = None
    if (p.m, p.n) != (q.m, q.n):
        return False
    for rp, rq in zip(p.rows, q.rows):
        for x, y in zip(map(exact, rp), map(exact, rq)):
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

    @pytest.mark.parametrize("cofactors", [
        # C t and C (t u^2 + s (v - 7u)(v - 8u)) share the root t = 0 at the
        # first two nodes w = v/u = 7, 8
        ((1, 0, {(1, 0): 1}), (1, 2, {(0, 0): 56, (0, 1): -15, (0, 2): 1, (1, 0): 1})),
        # C s and C (s u^2 + t (v - 7u)(v - 8u)) share the root s = 0 there,
        # a power of s that the affine chart does not see
        ((1, 0, {(0, 0): 1}), (1, 2, {(0, 0): 1, (1, 0): 56, (1, 1): -15, (1, 2): 1})),
    ])
    def test_unlucky_first_nodes(self, cofactors):
        # the images at the first two nodes have the degree of C times the
        # shared root; that batch interpolates a multiple of C which exact
        # division rejects, and the next nodes give C
        c = bp(1, 1, {(0, 0): 1, (0, 1): 1, (1, 0): 1})  # z + w + 1
        f, g = (_mul(c, bp(*args)) for args in cofactors)
        assert _same_up_to_scalar(bivar_gcd(f, g), c)

    @pytest.mark.parametrize("p, d", [((1, 0, {(1, 0): 1}), (1, 0, {(0, 0): 1})),
                                      ((0, 1, {(0, 1): 1}), (0, 1, {(0, 0): 1}))])
    def test_division_by_a_missing_power(self, p, d):
        # t / s and v / u: the affine chart sees z / 1 and w / 1
        with pytest.raises(ArithmeticError):
            bivar_divexact(bp(*p), bp(*d))

    def test_factor_in_u_v_alone(self):
        # s (u^2 + v^2) and t (u^2 + v^2) are not symmetric: their images
        # at the first node are coprime, and the common factor is their
        # rows' gcd in (u, v)
        c = bp(0, 2, {(0, 0): 1, (0, 2): 1})
        f, g = _mul(c, bp(1, 0, {(0, 0): 1})), _mul(c, bp(1, 0, {(1, 0): 1}))
        assert _same_up_to_scalar(bivar_gcd(f, g), c)
        assert _same_up_to_scalar(bivar_gcd(f, g, bp(0, 0, {(0, 0): 3})), bp(0, 0, {(0, 0): 1}))

    def test_leading_coefficient_with_a_gaussian_content(self):
        # C = 2z + 1 + w has lc 2 in z: gamma carries the content 2, so each
        # image scaled to lc gamma(w) = 2 is C(z, w) exactly
        c = bp(1, 1, {(0, 0): 1, (0, 1): 1, (1, 0): 2})
        f, g = _mul(c, bp(1, 0, {(1, 0): 1})), _mul(c, bp(1, 0, {(0, 0): 1}))
        assert _same_up_to_scalar(bivar_gcd(f, g), c)


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
        # the suites' exact evaluation oracle, tests/helpers.form_value
        f = BinaryForm(2, [1, 0, 1])  # s^2 + t^2
        assert form_value(f, 1, G(0, 1)) == exact(0)
        x0 = BinaryForm(6, [1, 0, 3, 0, 3, 0, 1])  # (s^2+t^2)^3
        assert form_value(x0, 1, 1) == exact(8)
        # a float point counts at its exact binary value
        assert form_value(f, 1, 0.1) == exact(1 + Fraction(0.1) ** 2)

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            form_value(BinaryForm(2, [1, 0, 1]), G(0), 0)

    def test_charts(self):
        f = BinaryForm(3, [2, 0, -1, 5])
        assert f.to_zx() == [(2, 0), (0, 0), (-1, 0), (5, 0)]
        # f(1, t) loses the zero t^d coefficient and the integer content
        assert BinaryForm(4, [4, 0, G(-2, 2), 6, 0]).to_zx() == [(2, 0), (0, 0), (-1, 1), (3, 0)]
