import random

import numpy as np
import pytest

from shadecalc.curves import kae_curve
from shadecalc.chords import collinearity_system
from shadecalc.poly import (
    BinaryForm,
    BivarPoly,
    UPoly,
    bivar_gcd,
    bivar_divexact,
    resultant,
)
from shadecalc.scalars import GaussianRational as G, QQ


def bp(m, n, entries):
    """BivarPoly from {(j, k): coeff} of z^j w^k."""
    rows = [[0] * (n + 1) for _ in range(m + 1)]
    for (j, k), c in entries.items():
        rows[j][k] = c
    return BivarPoly(m, n, rows)


DIAG = bp(1, 1, {(0, 1): 1, (1, 0): -1})  # w - z ... sv - tu homogeneously


class TestResultant:
    def test_linear_system(self):
        # 2x2 Sylvester of a linear pair
        f = bp(1, 1, {(1, 0): 1, (0, 1): -1})  # z - w
        g = bp(1, 1, {(1, 0): 1, (0, 1): 1})  # z + w
        assert resultant(f, g, "w") == UPoly([0, 2])

    def test_quartic_by_hand(self):
        # res(z^2 + w^2, z w - 1, w) expanded by hand: z^4 + 1
        f = bp(2, 2, {(2, 0): 1, (0, 2): 1})
        g = bp(1, 1, {(1, 1): 1, (0, 0): -1})
        assert resultant(f, g, "w") == UPoly([1, 0, 0, 0, 1])

    def test_shared_factor_vanishes(self):
        # (z - w)(z + w) against (z - w)
        f = bp(2, 2, {(2, 0): 1, (0, 2): -1})
        assert not resultant(f, DIAG, "w")

    def test_eliminate_z(self):
        f = bp(1, 1, {(1, 0): 1, (0, 1): -1})
        g = bp(1, 1, {(1, 0): 1, (0, 1): 1})
        r = resultant(f, g, "z")
        assert r.degree == 1 and not r.coeffs[0]

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            resultant(bp(1, 1, {}), DIAG, "w")

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
            r = resultant(f, g, "w")
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
            mine = complex(r(complex(z0)))
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
        # probe point off the diagonal
        comp = kae_curve(QQ(1, 2), -1).components[0]
        center = [G(1), G(QQ(1, 3)), G(QQ(-2, 5)), G(2)]
        minors = collinearity_system(center, comp.coords, comp.coords)
        diag = bp(1, 1, {(0, 1): 1, (1, 0): -1})
        for mnr in minors:
            if mnr.is_zero():
                continue
            q = bivar_divexact(mnr, diag)
            assert _mul(q, diag).rows == mnr.rows
            with pytest.raises(ArithmeticError):
                bivar_divexact(q, diag)
            assert not q.is_zero()


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


class TestBinaryForm:
    def test_eval_examples(self):
        f = BinaryForm(2, [1, 0, 1])  # s^2 + t^2
        assert f.eval(G(1), G(0, 1)) == G(0)
        x0 = BinaryForm(6, [1, 0, 3, 0, 3, 0, 1])  # (s^2+t^2)^3
        assert x0.eval(G(1), G(1)) == G(8)
        s3 = BinaryForm(3, [1, 0, 0, 0])
        assert s3.d_dt().is_zero()

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            BinaryForm(2, [1, 0, 1]).eval(G(0), G(0))

    def test_charts(self):
        f = BinaryForm(3, [2, 0, -1, 5])
        assert f.chart_t() == UPoly([2, 0, -1, 5])
        assert f.chart_s() == UPoly([5, -1, 0, 2])
