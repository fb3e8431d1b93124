import math
import random

import pytest

from shadecalc import roots as roots_mod
from shadecalc.chords import _binary_form_roots
from shadecalc.curves import trefoil_curve
from shadecalc.invariants import encomplexed_writhe
from shadecalc.poly import BinaryForm
from shadecalc.roots import complex_roots
from shadecalc.scalars import GaussianRational as G

from helpers import form, form_value, mirror_scan_oracle, overlaps, to_complex


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
            norm = sum(abs(to_complex(c)) for c in p.coeffs)
            for r in roots:
                if r.multiplicity > 1:
                    continue
                resid = abs(to_complex(form_value(p, 1, r.center)))
                bound = 1e-10 * (1 + norm * max(1.0, abs(r.center)) ** p.degree)
                assert resid < bound

    def test_disks_disjoint(self):
        p = form([6, -11, 6, -1])  # roots 1, 2, 3
        roots = complex_roots(p)
        for i, a in enumerate(roots):
            for b in roots[i + 1 :]:
                assert not overlaps(a, b)

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


def _spy_calls(monkeypatch, *names):
    """A dict counting the calls of each named roots function."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _fn=getattr(roots_mod, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(roots_mod, name, spy)
    return counts


class TestWholeFirst:
    """A polynomial is certified whole first; n disjoint disks for its
    degree n prove it squarefree, and Yun's decomposition runs only when
    they fail."""

    def test_trefoil_job_certifies_without_yun(self, monkeypatch):
        # the zero-step stop rule made 261 _horner calls and 4 squarefree
        # decompositions here
        counts = _spy_calls(monkeypatch, "_horner", "zx_sqf_list")
        assert encomplexed_writhe(trefoil_curve(), seed=0, centers=4).Cw == 4
        assert counts["_horner"] <= 120
        assert counts["zx_sqf_list"] == 0

    @pytest.mark.parametrize("p, want", [
        # (x^2 - 2)^2 (x - 3)
        (form([-2, 0, 1]) * form([-2, 0, 1]) * form([-3, 1]),
         [(-math.sqrt(2), 2, True), (math.sqrt(2), 2, True), (3, 1, True)]),
        # (x - 1)^2 (x^2 + 1)
        (form([-1, 1]) * form([-1, 1]) * form([1, 0, 1]),
         [(-1j, 1, False), (1j, 1, False), (1, 2, True)]),
    ], ids=["sqrt2-squared", "one-squared"])
    def test_repeated_factors_keep_exact_multiplicities(self, p, want, monkeypatch):
        counts = _spy_calls(monkeypatch, "zx_sqf_list")
        roots = complex_roots(p)
        assert counts["zx_sqf_list"] == 1
        assert len(roots) == len(want)
        for r, (z, mult, real) in zip(roots, want):
            assert abs(r.center - z) < 1e-12
            assert r.radius <= 1e-12
            assert (r.multiplicity, r.real) == (mult, real)

    def test_perfect_square_bails_at_its_first_root(self, monkeypatch):
        # (x^2 - 2x - 1)^2: numpy splits each double root into a conjugate
        # pair, and Newton's method converges on it only linearly, so the
        # whole-first round ends after its first start's run, before any
        # move to the real axis
        counts = _spy_calls(monkeypatch, "_horner", "_newton")
        at_yun, sqf_list = {}, roots_mod.zx_sqf_list

        def spy_sqf_list(zx):
            at_yun.update(counts)
            return sqf_list(zx)

        monkeypatch.setattr(roots_mod, "zx_sqf_list", spy_sqf_list)
        roots = complex_roots(form([1, 4, 2, -4, 1]))
        assert at_yun == {"_horner": roots_mod.NEWTON_PASSES + 1, "_newton": 1}
        assert [(r.multiplicity, r.real) for r in roots] == [(2, True)] * 2
        for r, z in zip(roots, (1 - math.sqrt(2), 1 + math.sqrt(2))):
            assert abs(r.center - z) < 1e-12 and r.radius <= 1e-12

    def test_squarefree_input_skips_yun(self, monkeypatch):
        counts = _spy_calls(monkeypatch, "zx_sqf_list")
        roots = complex_roots(form([3, 0, -10, 0, 3]))
        assert counts["zx_sqf_list"] == 0
        assert [(r.multiplicity, r.real) for r in roots] == [(1, True)] * 4


def _real_form(rng, real_roots, pairs, repeated, at_inf):
    """A real binary form with the given numbers of rational real roots,
    conjugate pairs of roots, repeated (squared) real factors and roots at
    (0, 1)."""
    f = BinaryForm(0, [1])
    for _ in range(real_roots):
        f = f * BinaryForm(1, [-rng.randint(-9, 9), rng.randint(1, 4)])
    for _ in range(pairs):
        a, b = rng.randint(-5, 5), rng.randint(1, 5)
        f = f * BinaryForm(2, [a * a + b * b, -2 * a, 1])
    for _ in range(repeated):
        g = BinaryForm(1, [rng.randint(-9, 9), 1])
        f = f * g * g
    return BinaryForm(f.degree + at_inf, [c for c in f.coeffs] + [0] * at_inf)


class TestRealStarts:
    """A real factor's approximate roots come from its real coefficient
    array: exactly real or in exact conjugate pairs, so Newton's method
    keeps a real start on the real axis."""

    def test_initial_roots_are_real_or_conjugate_pairs(self):
        rng = random.Random(31)
        for _ in range(40):
            f = _real_form(rng, rng.randint(0, 4), rng.randint(0, 3), 0, 0)
            approx = roots_mod._np_initial_roots(f.to_zx())
            if f.degree < 1:
                continue
            assert len(approx) == f.degree
            assert sorted(approx, key=_key) == sorted((z.conjugate() for z in approx), key=_key)

    def test_trefoil_center_disks_need_no_recentring(self, monkeypatch):
        # every disk is the one Newton's method certified: no disk of the
        # trefoil's center eliminants meets the real axis off it, and every
        # disk on the axis started there
        disks, newton = roots_mod._disks, roots_mod._newton
        found, ends, start_ys = [], [], []

        def spy_disks(*args):
            out = disks(*args)
            found.extend(out)
            return out

        def spy_newton(shifted, x, y, *rest):
            start_ys.append(y)
            ends.append(newton(shifted, x, y, *rest))
            return ends[-1]

        monkeypatch.setattr(roots_mod, "_disks", spy_disks)
        monkeypatch.setattr(roots_mod, "_newton", spy_newton)
        report = encomplexed_writhe(trefoil_curve(), seed=0, centers=4)
        assert report.Cw == 4
        assert found == ends and len(found) == len(start_ys)
        assert start_ys.count(0) == [y for _, y, _ in found].count(0) > 0

    def test_conjugate_map_matches_the_mirror_scan(self):
        # real roots, conjugate pairs, repeated roots and roots at (0, 1)
        rng = random.Random(7)
        for _ in range(40):
            f = _real_form(rng, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 1),
                           rng.randint(0, 2))
            if not f.to_zx()[1:]:
                continue
            pts, conj = _binary_form_roots(f)
            want = mirror_scan_oracle(complex_roots(f))
            assert conj[:len(want)] == want
            assert conj[len(want):] == [len(want)] * (len(pts) - len(want))

    def test_close_conjugate_pair_in_one_round(self, monkeypatch):
        # (10^12 (x - 1)^2 + 1)(x^2 - 3): the pair 1 +- 10^-6 i starts as a
        # pair, not on the axis, and certifies without the mpmath fallback
        def refuse(*args):
            raise AssertionError("fell back to mpmath")

        monkeypatch.setattr(roots_mod, "_mp_initial_roots", refuse)
        e = 10**12
        roots = complex_roots(form([e + 1, -2 * e, e]) * form([-3, 0, 1]))
        assert [r.real for r in roots] == [True, False, False, True]
        assert abs(roots[1].center - (1 - 1e-6j)) < 1e-12
        assert abs(roots[2].center - (1 + 1e-6j)) < 1e-12


def _key(z):
    return (z.real, z.imag)
