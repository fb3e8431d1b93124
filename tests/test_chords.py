"""Chord-system resolution: completeness counts, classification
structure, conjugation closure, and the golden trefoil layout."""

import itertools
import math
import random

import numpy as np
import pytest

from shadecalc.chords import coincidence_system, collinearity_system, solve_minor_system
from shadecalc.curves import kae_curve, lp_line_curve, trefoil_curve, unknot_curve
from shadecalc.errors import GenericityError
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
