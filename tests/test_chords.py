"""Chord-system resolution: completeness counts, classification
structure, conjugation closure, and the golden trefoil layout."""

import itertools
import math
import random

import numpy as np
import pytest

from shadecalc import chords
from shadecalc.chords import (
    _binary_form_roots,
    canonical_unordered,
    coincidence_system,
    collinearity_system,
    solve_minor_system,
)
from shadecalc.curves import kae_curve, lp_line_curve, trefoil_curve, unknot_curve
from shadecalc.errors import GenericityError
from shadecalc.poly import BinaryForm
from shadecalc.scalars import GaussianRational as G, QQ


def lp_minors(center):
    comp = lp_line_curve().components[0]
    return collinearity_system(center, comp.coords, comp.conj_coords)


class TestMinorSystems:
    def test_collinearity_minors_are_determinants(self):
        """Each exact minor, evaluated in floats, is the 3x3 determinant of
        [c | x(z) | y(w)] on its rows, for a real and a non-real pair."""
        rng = random.Random(4)
        c = [G(1), G(QQ(1, 3)), G(QQ(-2, 5)), G(2)]
        for comp, conj in ((kae_curve(QQ(1, 2), -1).components[0], False),
                           (lp_line_curve().components[0], True)):
            yforms = comp.conj_coords if conj else comp.coords
            minors = collinearity_system(c, comp.coords, yforms)
            for _ in range(5):
                z = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 1 + 0j)
                w = (1 + 0j, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                x = [f.eval(*z) for f in comp.coords]
                y = [f.eval(*w) for f in yforms]
                for rows, m in zip(itertools.combinations(range(4), 3), minors):
                    det = np.linalg.det([[complex(c[r]), x[r], y[r]] for r in rows])
                    assert abs(m.eval_pair(z, w) - det) < 1e-12 * (1 + abs(det))


class TestShadeSystems:
    def test_lp_line_one_shade_point_generic_center(self):
        c = [G(1), G(QQ(1, 3)), G(QQ(-2, 5)), G(2)]
        res = solve_minor_system(lp_minors(c), seed=2, w_mode="conj", expected=1, context="lp")
        assert len(res.solutions) == 1
        s = res.solutions[0]
        assert s.z.is_conjugate_of(s.w)
        # closed form: z = (p2 - i p3) / (p0 - i p1)
        want = (complex(QQ(-2, 5)) - 2j) / (1 - complex(QQ(1, 3)) * 1j)
        assert abs(s.z.affine() - want) < 1e-9

    def test_lp_line_shade_point_at_infinity(self):
        c = [G(0), G(0), G(0), G(1)]
        res = solve_minor_system(lp_minors(c), seed=1, w_mode="conj", expected=1, context="lp")
        (s,) = res.solutions
        assert abs(s.z.s) < 1e-12  # the parameter (0, 1)

    def test_count_check_failure_raises(self):
        c = [G(1), G(QQ(1, 3)), G(QQ(-2, 5)), G(2)]
        with pytest.raises(GenericityError):
            solve_minor_system(lp_minors(c), seed=2, w_mode="conj", expected=3, context="lp")


class TestSameComponentSystems:
    def test_unknot_no_chords_after_saturation(self):
        comp = unknot_curve().components[0]
        minors = collinearity_system([G(0), G(0), G(0), G(1)], comp.coords, comp.coords)
        res = solve_minor_system(minors, seed=3, w_mode="swap", expected=0, context="unknot")
        assert res.solutions == []
        assert not res.diagonal_only  # the deck transform came out too
        assert res.saturated_degree == (2, 2)

    def test_kae_node_count_genus_formula(self):
        # degree 3: (d-1)(d-2) = 2 ordered chord solutions through a
        # generic center; degree 2: none
        comp = kae_curve(QQ(1, 2), -1).components[0]
        c = [G(1), G(QQ(2, 7)), G(QQ(-3, 5)), G(QQ(1, 2))]
        res = solve_minor_system(
            collinearity_system(c, comp.coords, comp.coords),
            seed=6, w_mode="swap", expected=2, context="kae",
        )
        assert len(res.solutions) == 2
        assert res.diagonal_only

    def test_conjugation_closure(self):
        comp = kae_curve(QQ(1, 2), 1).components[0]
        c = [G(1), G(QQ(2, 7)), G(QQ(-3, 5)), G(QQ(1, 2))]
        res = solve_minor_system(
            collinearity_system(c, comp.coords, comp.coords),
            seed=6, w_mode="swap", expected=2, context="kae",
        )
        sols = res.solutions
        for s in sols:
            found = any(
                s.z.conjugate().same(t.z) and s.w.conjugate().same(t.w) for t in sols
            )
            assert found, "solution set not closed under conjugation"


class TestRootIdentity:
    def test_conjugate_map_of_a_real_form(self):
        # s (s^2 + t^2)(t - 2 s): -i, i and 2 in complex_roots' order, then
        # the point at infinity
        pts, conj = _binary_form_roots(BinaryForm(4, [-2, 1, -2, 1, 0]))
        assert [p.root for p in pts] == [0, 1, 2, 3]
        assert [p.real for p in pts] == [False, False, True, True]
        assert conj == [1, 0, 2, 3]
        assert pts[3].s == 0

    def test_non_real_form_has_no_conjugate_map(self):
        # (t - i s)(t - s): the root 1 of a non-real form is not flagged real
        pts, conj = _binary_form_roots(BinaryForm(2, [G(0, 1), G(-1, -1), G(1)]))
        assert conj is None
        assert [p.root for p in pts] == [0, 1]
        assert not any(p.real for p in pts)

    @pytest.mark.parametrize("eps,real", [(1, False), (-1, True)])
    def test_kae_chord_identity(self, eps, real, monkeypatch):
        # the one chord through the center, in both orders: a solitary
        # pair for eps = +1, a real-real pair for eps = -1
        calls = []
        pair_and_polish = chords._pair_and_polish

        def spy(*args):
            out = pair_and_polish(*args)
            calls.append((args[3], out))
            return out

        monkeypatch.setattr(chords, "_pair_and_polish", spy)
        comp = kae_curve(QQ(1, 2), eps).components[0]
        c = [G(1), G(QQ(2, 7)), G(QQ(-3, 5)), G(QQ(1, 2))]
        res = solve_minor_system(
            collinearity_system(c, comp.coords, comp.coords),
            seed=6, w_mode="swap", expected=2, context="kae",
        )
        zroots, sols = calls[-1]
        assert sols == res.solutions
        a, b = sols
        assert (a.zi, a.wi) == (b.wi, b.zi) and a.zi < a.wi
        for s in sols:
            assert (s.z.root, s.w.root) == (s.zi, s.wi)
            assert s.conjugate is not real
            # polished points keep their root's certified flag
            assert s.z.real is s.w.real is zroots[s.zi].real is real
            if s.conjugate:
                assert abs(zroots[s.zi].affine() - zroots[s.wi].affine().conjugate()) < 1e-9
        assert canonical_unordered(sols) == [a]
        with pytest.raises(GenericityError, match="missing their swapped partner"):
            canonical_unordered([b])


@pytest.fixture(scope="module")
def solutions():
    comp = trefoil_curve().components[0]
    minors = collinearity_system([G(0), G(1), G(0), G(0)], comp.coords, comp.coords)
    res = solve_minor_system(minors, seed=7, w_mode="swap", expected=20, context="trefoil")
    return res.solutions


class TestTrefoilGolden:

    def test_counts(self, solutions):
        assert len(solutions) == 20
        real = [s for s in solutions if s.z.real and s.w.real]
        conj = [s for s in solutions if not s.z.real]
        assert len(real) == 18 and len(conj) == 2

    def test_solitary_parameters_at_pm_i(self, solutions):
        conj = sorted(
            (s.z.affine() for s in solutions if not s.z.real), key=lambda v: v.imag
        )
        assert abs(conj[0] + 1j) < 1e-8
        assert abs(conj[1] - 1j) < 1e-8

    def test_real_parameters_at_expected_angles(self, solutions):
        # the trig parameterization angle is pi/2 - the rational one;
        # type-1 pairs (pi/4 + n pi/3 with its partner upstairs) land at
        # odd multiples of 15 degrees, type-2 pairs at multiples of 60
        angles = set()
        for s in solutions:
            if not (s.z.real and s.w.real):
                continue
            a = s.z.affine()
            th = 180.0 if abs(s.z.s) < 1e-12 else math.degrees(2 * math.atan(a.real)) % 360
            angles.add(round(th, 5))
        assert len(angles) == 18
        want = {k * 60.0 for k in range(6)} | {15.0 + 30.0 * k for k in range(12)}
        got_sorted = sorted(angles)
        for th in got_sorted:
            assert any(abs(th - w) < 1e-5 for w in want), th

    def test_pair_structure(self, solutions):
        # unordered: 6 type-1 pairs (angles 90 deg apart) and 3 type-2
        # pairs (180 deg apart)
        pairs = set()
        for s in solutions:
            if not (s.z.real and s.w.real):
                continue
            ta = _angle(s.z)
            tb = _angle(s.w)
            d = abs(ta - tb) % 360
            d = min(d, 360 - d)
            pairs.add((round(min(ta, tb), 4), round(d, 4)))
        diffs = sorted(d for _, d in pairs)
        assert diffs == [90.0] * 6 + [180.0] * 3


def _angle(p):
    if abs(p.s) < 1e-12:
        return 180.0
    return math.degrees(2 * math.atan(p.affine().real)) % 360


class TestSelfIntersectionSystems:
    def test_k0_nodes(self):
        for eps, want_real in ((-1, True), (1, False)):
            comp = kae_curve(0, eps).components[0]
            res = solve_minor_system(
                coincidence_system(comp.coords, comp.coords),
                seed=4, w_mode="swap", context="k0",
            )
            assert len(res.solutions) == 2  # ordered
            for s in res.solutions:
                assert (s.z.real and s.w.real) == want_real
