"""Chord-system resolution: completeness counts, classification
structure, conjugation closure, and the golden trefoil layout."""

import functools
import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shadecalc import chords
from shadecalc.chords import (
    _binary_form_roots,
    canonical_unordered,
    coincidence_system,
    collinearity_system,
    secants,
    solve_minor_system,
)
from shadecalc.curves import kae_curve, lp_line_curve, p3_forms, trefoil_curve, unknot_curve
from shadecalc.diagram import _chord_systems
from shadecalc.errors import GenericityError
from shadecalc.invariants import encomplexed_writhe
from shadecalc.poly import BinaryForm, BivarPoly, bivar_divexact, bivar_gcd
from shadecalc.reportio import parse_curve_file
from shadecalc.scalars import GaussianRational as G, QQ

from helpers import bivar_value, conjugate_params, same_param


def center_system(curve, center, j=0):
    """The saturated chord system of component 0 against component j (or,
    for j = "conj", its conjugate) through the center, as a projection
    builds it."""
    sec = secants(curve, 0, j, p3=True)
    return replace(sec, minors=collinearity_system(center, sec.minors))


def lp_minors(center):
    return center_system(lp_line_curve(), center, "conj")


class TestMinorSystems:
    def test_collinearity_minors_are_determinants(self):
        """Each minor, evaluated exactly, is the 3x3 determinant of
        [c | x(z) | y(w)] on its rows, for a real and a non-real pair."""
        rng = random.Random(4)

        def rand():
            return G(QQ(rng.randint(-9, 9), rng.randint(1, 9)),
                     QQ(rng.randint(-9, 9), rng.randint(1, 9)))

        c = [G(1), G(QQ(1, 3)), G(QQ(-2, 5)), G(2)]
        for comp, conj in ((kae_curve(QQ(1, 2), -1).components[0], False),
                           (lp_line_curve().components[0], True)):
            yforms = comp.conj_coords if conj else comp.coords
            minors = collinearity_system(c, coincidence_system(comp.coords, yforms))
            for _ in range(5):
                z, w = (rand(), G(1)), (G(1), rand())
                x = [f.eval(*z) for f in comp.coords]
                y = [f.eval(*w) for f in yforms]
                for (a, b, d), m in zip(itertools.combinations(range(4), 3), minors):
                    det = (c[a] * (x[b] * y[d] - x[d] * y[b]) - c[b] * (x[a] * y[d] - x[d] * y[a])
                           + c[d] * (x[a] * y[b] - x[b] * y[a]))
                    assert bivar_value(m, z, w) == det


class TestShadeSystems:
    def test_lp_line_one_shade_point_generic_center(self):
        c = [G(1), G(QQ(1, 3)), G(QQ(-2, 5)), G(2)]
        (s,) = solve_minor_system(lp_minors(c), seed=2, w_mode="conj", expected=1, context="lp")
        assert conjugate_params(s.z, s.w)
        # closed form: z = (p2 - i p3) / (p0 - i p1)
        want = (complex(QQ(-2, 5)) - 2j) / (1 - complex(QQ(1, 3)) * 1j)
        assert abs(s.z.affine() - want) < 1e-9

    def test_lp_line_shade_point_at_infinity(self):
        c = [G(0), G(0), G(0), G(1)]
        (s,) = solve_minor_system(lp_minors(c), seed=1, w_mode="conj", expected=1, context="lp")
        assert abs(s.z.s) < 1e-12  # the parameter (0, 1)

    def test_count_check_failure_raises(self):
        c = [G(1), G(QQ(1, 3)), G(QQ(-2, 5)), G(2)]
        with pytest.raises(GenericityError):
            solve_minor_system(lp_minors(c), seed=2, w_mode="conj", expected=3, context="lp")


class TestSameComponentSystems:
    def test_unknot_no_chords_after_saturation(self):
        curve = unknot_curve()
        system = center_system(curve, [G(0), G(0), G(0), G(1)])
        assert solve_minor_system(system, seed=3, w_mode="swap", expected=0,
                                  context="unknot") == []
        sec = secants(curve, 0, 0, p3=True)
        assert not sec.diagonal_only  # the deck transform came out too
        assert sec.removed == (2, 2)

    def test_kae_node_count_genus_formula(self):
        # degree 3: (d-1)(d-2) = 2 ordered chord solutions through a
        # generic center; degree 2: none
        curve = kae_curve(QQ(1, 2), -1)
        c = [G(1), G(QQ(2, 7)), G(QQ(-3, 5)), G(QQ(1, 2))]
        sols = solve_minor_system(
            center_system(curve, c), seed=6, w_mode="swap", expected=2, context="kae",
        )
        assert len(sols) == 2
        assert secants(curve, 0, 0, p3=True).diagonal_only

    def test_conjugation_closure(self):
        c = [G(1), G(QQ(2, 7)), G(QQ(-3, 5)), G(QQ(1, 2))]
        sols = solve_minor_system(
            center_system(kae_curve(QQ(1, 2), 1), c),
            seed=6, w_mode="swap", expected=2, context="kae",
        )
        for s in sols:
            found = any(
                same_param(s.z.conjugate(), t.z) and same_param(s.w.conjugate(), t.w) for t in sols
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

    @pytest.mark.parametrize("deficit", [1, 2])
    def test_root_at_infinity_comes_last(self, deficit):
        # s^deficit (t - s)(t - 2 s): the chart roots 1 and 2, then (0, 1)
        # once, whatever its multiplicity
        f = BinaryForm(2 + deficit, [2, -3, 1] + [0] * deficit)
        pts, conj = _binary_form_roots(f)
        assert [p.root for p in pts] == [0, 1, 2]
        assert all(p.real for p in pts)
        assert conj == [0, 1, 2]
        assert [p.affine() for p in pts[:2]] == [1, 2]
        assert (pts[2].s, pts[2].t) == (0, 1)

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
        c = [G(1), G(QQ(2, 7)), G(QQ(-3, 5)), G(QQ(1, 2))]
        got = solve_minor_system(
            center_system(kae_curve(QQ(1, 2), eps), c),
            seed=6, w_mode="swap", expected=2, context="kae",
        )
        zroots, sols = calls[-1]
        assert sols == got
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


def _scalar_candidates(u, v, zroots, wroots):
    """The candidate filter one pair at a time, in exact arithmetic at
    the float root pairs."""
    bounds = [chords.FILTER_TOL * (sum(abs(complex(c)) for r in p.rows for c in r) or 1.0)
              for p in (u, v)]
    return [(zi, wi) for zi, zp in enumerate(zroots) for wi, wp in enumerate(wroots)
            if all(abs(complex(bivar_value(p, zp.pair(), wp.pair()))) <= b
                   for p, b in zip((u, v), bounds))]


class TestCandidateFilter:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("system", ["smoothness", "projection"])
    def test_matrix_filter_matches_scalar_loop(self, system, seed, monkeypatch):
        # the trefoil's self-intersection system and its chord system for
        # one center: the matrix products keep exactly the root pairs that
        # a scalar evaluation of u and v on each pair keeps
        calls = []
        pair_and_polish = chords._pair_and_polish

        def spy(*args):
            calls.append(args)
            return pair_and_polish(*args)

        monkeypatch.setattr(chords, "_pair_and_polish", spy)
        curve = trefoil_curve()
        if system == "smoothness":
            minors = secants(curve, 0, 0, p3=False)
        else:
            minors = center_system(curve, [G(1), G(QQ(2, 7)), G(QQ(-3, 5)), G(QQ(1, 2))])
        solve_minor_system(minors, seed=seed, w_mode="swap", context=system)
        assert calls
        for _, u, v, zroots, wroots, _ in calls:
            got = chords._candidates(*chords._coeff_tables([u, v]), zroots, wroots)
            assert got == _scalar_candidates(u, v, zroots, wroots)
            assert got


@pytest.fixture(scope="module")
def solutions():
    minors = center_system(trefoil_curve(), [G(0), G(1), G(0), G(0)])
    return solve_minor_system(minors, seed=7, w_mode="swap", expected=20, context="trefoil")


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
            sols = solve_minor_system(
                secants(kae_curve(0, eps), 0, 0, p3=False),
                seed=4, w_mode="swap", context="k0",
            )
            assert len(sols) == 2  # ordered
            for s in sols:
                assert (s.z.real and s.w.real) == want_real


DATA = Path(__file__).resolve().parents[1] / "src" / "shadecalc" / "data"
FIXTURES = sorted(DATA.glob("*.json"))


def _same_system(a, b):
    """Minor by minor: both zero or one a nonzero multiple of the other."""
    return len(a) == len(b) and all(
        p.is_zero() and q.is_zero() or chords._is_scalar_multiple(p, q) for p, q in zip(a, b)
    )


class TestSecants:
    """One saturation per curve, component pair and coordinate set."""

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_per_center_saturation_agrees(self, path):
        # the route it replaced: saturate the raw collinearity minors of
        # every center; it must remove the same factor as saturating the
        # Plücker forms once and leave the same minors up to a scalar
        curve, _ = parse_curve_file(path.read_bytes())
        comps = curve.components
        mode = "diagram" if curve.is_real() else "shade"
        rng = random.Random(path.stem)
        for _ in range(3):
            # no zero coordinate: x3 = 0 on the k0 cubics, and a center in
            # their plane is the degenerate case the routes must not share
            # (TestSelectCenter in test_diagram.py)
            c = [G(QQ(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
                 for _ in range(4)]
            for i, j, w_mode, *_ in _chord_systems(comps, mode):
                y = comps[i].conj_coords if w_mode == "conj" else comps[j].coords
                raw = coincidence_system(p3_forms(comps[i].coords), p3_forms(y))
                old = chords._saturate_all(collinearity_system(c, raw))
                sec = secants(curve, i, "conj" if w_mode == "conj" else j, p3=True)
                assert _same_system(old.minors, collinearity_system(c, sec.minors))
                assert (old.removed, old.diagonal_only) == (sec.removed, sec.diagonal_only)

    @staticmethod
    def _saturate_until_constant(minors):
        """The saturation loop that one gcd round replaced: divide the
        common gcd out until it is constant."""
        minors, removed, diagonal_only = list(minors), (0, 0), True
        diag = BivarPoly(1, 1, [[0, 1], [-1, 0]])
        while True:
            live = [m for m in minors if not m.is_zero()]
            g = functools.reduce(bivar_gcd, live)
            if g.m == g.n == 0:
                return minors, removed, diagonal_only
            diagonal_only &= chords._is_scalar_multiple(g, diag)
            removed = (removed[0] + g.m, removed[1] + g.n)
            minors = [bivar_divexact(m, g) for m in minors]

    def test_one_gcd_round_saturates(self):
        # every record of the 8 fixtures (P3 image and, on the sphere, all
        # five coordinates) and of the kae sweeps' members: after G = gcd(F_i)
        # is divided out, gcd(F_i / G) is constant
        curves = [parse_curve_file(path.read_bytes())[0] for path in FIXTURES]
        curves += [kae_curve(QQ(n, 8), eps) for n in range(-8, 9) for eps in (1, -1)]
        count = 0
        for curve in curves:
            comps = curve.components
            pairs = ([(i, "conj") for i in range(len(comps))] if not curve.is_real() else
                     [(i, j) for i in range(len(comps)) for j in range(i, len(comps))])
            for i, j in pairs:
                y = comps[i].conj_coords if j == "conj" else comps[j].coords
                for p3 in {True, comps[i].nvars == 4}:
                    forms = (p3_forms if p3 else tuple)
                    raw = coincidence_system(forms(comps[i].coords), forms(y))
                    sat = chords._saturate_all(raw)
                    minors, removed, diagonal_only = self._saturate_until_constant(raw)
                    assert [(p.m, p.n, p.den, p.num) for p in sat.minors] == [
                        (p.m, p.n, p.den, p.num) for p in minors]
                    assert (sat.removed, sat.diagonal_only) == (removed, diagonal_only)
                    count += 1
        assert count == 54

    @pytest.fixture
    def saturations(self, monkeypatch):
        """Runs encomplexed_writhe and returns the size of every system
        _saturate_all saw."""
        saturate_all = chords._saturate_all
        calls = []

        def spy(minors):
            calls.append(len(minors))
            return saturate_all(minors)

        def run(curve, centers):
            calls.clear()
            encomplexed_writhe(curve, seed=1, centers=centers)
            return list(calls)

        monkeypatch.setattr(chords, "_saturate_all", spy)
        return run

    def test_centers_share_the_saturation(self, saturations):
        # every center shares the saturation of the trefoil's six x1..x4
        # forms; its first center's chord solutions prove smoothness, so
        # the ten forms of all five coordinates are never saturated
        one = saturations(trefoil_curve(), 1)
        four = saturations(trefoil_curve(), 4)
        assert one == four == [6]

    def test_p3_smoothness_and_projection_share_one(self, saturations):
        assert saturations(kae_curve(QQ(1, 2), -1), 2) == [6]

    def test_cached_on_the_model(self):
        curve = kae_curve(QQ(1, 2), -1)
        assert secants(curve, 0, 0, p3=True) is secants(curve, 0, 0, p3=False)
        tr = trefoil_curve()
        assert secants(tr, 0, 0, p3=True) is not secants(tr, 0, 0, p3=False)
        assert len(secants(tr, 0, 0, p3=False).minors) == 10
