import math
import random

import pytest

from shadecalc.poly import BinaryForm
from shadecalc.roots import complex_roots
from shadecalc.scalars import GaussianRational as G

from helpers import exact, form


def centers(roots):
    return sorted((round(r.center.real, 9), round(r.center.imag, 9)) for r in roots)


class TestExamples:
    def test_pm_i(self):
        roots = complex_roots(form([1, 0, 1]))
        assert centers(roots) == [(0.0, -1.0), (0.0, 1.0)]
        assert all(r.radius <= 1e-12 for r in roots)

    def test_trefoil_shade_quartic(self):
        # 3(1+t^2)^2 - 16 t^2 = rho (1 - t^4) at rho = 0:
        # (5 +- sqrt(16))/3 gives t^2 in {3, 1/3}, four real roots
        roots = complex_roots(form([3, 0, -10, 0, 3]))
        assert all(r.real for r in roots)
        vals = sorted(r.center.real for r in roots)
        s3 = math.sqrt(3)
        for got, want in zip(vals, (-s3, -1 / s3, 1 / s3, s3)):
            assert abs(got - want) < 1e-10

    def test_triple_root(self):
        roots = complex_roots(form([-1, 3, -3, 1]))
        assert len(roots) == 1
        assert roots[0].multiplicity == 3
        assert abs(roots[0].center - 1) < 1e-9

    def test_real_flag_follows_the_input_polynomial(self):
        # real means a certified real root of a real polynomial, whatever
        # squarefree factor the root falls in
        u1, ui = form([-1, 1]), form([G(0, -1), 1])
        cases = [
            (u1 * ui, [(1j, 1, False), (1, 1, False)]),
            (u1 * u1 * ui, [(1j, 1, False), (1, 2, False)]),
            (u1 * u1 * form([1, 0, 1]), [(-1j, 1, False), (1j, 1, False), (1, 2, True)]),
        ]
        for p, want in cases:
            roots = complex_roots(p)
            assert len(roots) == len(want)
            for r, (z, mult, real) in zip(roots, want):
                assert abs(r.center - z) < 1e-12
                assert (r.multiplicity, r.real) == (mult, real)

    @pytest.mark.parametrize("f", [BinaryForm(3, [2, -3, 1, 0]), BinaryForm(4, [2, -3, 1, 0, 0])],
                             ids=["deficit1", "deficit2"])
    def test_roots_at_infinity_are_not_chart_roots(self, f):
        # s (t - s)(t - 2 s) and s^2 (t - s)(t - 2 s): f(1, t) has the simple
        # roots 1 and 2, and nothing stands for (0, 1)
        roots = complex_roots(f)
        assert centers(roots) == [(1.0, 0.0), (2.0, 0.0)]
        assert [(r.multiplicity, r.real) for r in roots] == [(1, True), (1, True)]

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            complex_roots(form([0, 0]))


class TestProperties:
    def test_multiplicities_and_residuals(self):
        rng = random.Random(7)
        for _ in range(25):
            deg = rng.randint(1, 8)
            cs = [G(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(deg)] + [G(1)]
            p = form(cs)
            roots = complex_roots(p)
            assert sum(r.multiplicity for r in roots) == p.degree
            norm = sum(abs(complex(c)) for c in p.coeffs)
            for r in roots:
                if r.multiplicity > 1:
                    continue
                resid = abs(complex(p.eval(1, exact(r.center))))
                bound = 1e-10 * (1 + norm * max(1.0, abs(r.center)) ** p.degree)
                assert resid < bound

    def test_disks_disjoint(self):
        p = form([6, -11, 6, -1])  # roots 1, 2, 3
        roots = complex_roots(p)
        for i, a in enumerate(roots):
            for b in roots[i + 1 :]:
                assert not a.overlaps(b)

    def test_conjugation_equivariance(self):
        rng = random.Random(13)
        for _ in range(20):
            deg = rng.randint(1, 7)
            cs = [G(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(deg)] + [G(1)]
            p = form(cs)
            r1 = complex_roots(p)
            r2 = complex_roots(p.conjugate())
            got = sorted((round(r.center.real, 8), round(-r.center.imag, 8)) for r in r2)
            want = sorted((round(r.center.real, 8), round(r.center.imag, 8)) for r in r1)
            for (a, b), (c, d) in zip(got, want):
                assert abs(a - c) < 1e-7 and abs(b - d) < 1e-7
