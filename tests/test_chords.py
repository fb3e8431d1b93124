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
from hypothesis import given, settings, strategies as st

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
from shadecalc import diagram
from shadecalc.diagram import _chord_systems
from shadecalc.errors import GenericityError, ShadecalcError
from shadecalc.invariants import encomplexed_writhe, shade_number_empty_real
from shadecalc.poly import (GZERO, BinaryForm, BivarPoly, bivar_divexact, bivar_gcd,
                            bivar_resultant_w, gmul)
from shadecalc.reportio import parse_curve_file
from shadecalc.scalars import GaussianRational as G, QQ

from helpers import (bivar_value, conjugate_params, exact, form_value, ladder_curve,
                     pair_and_polish_oracle, same_param, sympy_bivar_gcd, to_complex)


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
            return exact(G(QQ(rng.randint(-9, 9), rng.randint(1, 9)),
                           QQ(rng.randint(-9, 9), rng.randint(1, 9))))

        c = [1, QQ(1, 3), QQ(-2, 5), 2]
        for comp, conj in ((kae_curve(QQ(1, 2), -1).components[0], False),
                           (lp_line_curve().components[0], True)):
            yforms = comp.conj_coords if conj else comp.coords
            minors = collinearity_system(c, coincidence_system(comp.coords, yforms))
            for _ in range(5):
                z, w = (rand(), 1), (1, rand())
                x = [form_value(f, *z) for f in comp.coords]
                y = [form_value(f, *w) for f in yforms]
                for (a, b, d), m in zip(itertools.combinations(range(4), 3), minors):
                    det = (c[a] * (x[b] * y[d] - x[d] * y[b]) - c[b] * (x[a] * y[d] - x[d] * y[a])
                           + c[d] * (x[a] * y[b] - x[b] * y[a]))
                    assert bivar_value(m, z, w) == det


class TestShadeSystems:
    def test_lp_line_one_shade_point_generic_center(self):
        c = [1, QQ(1, 3), QQ(-2, 5), 2]
        (s,) = solve_minor_system(lp_minors(c), seed=2, w_mode="conj", expected=1, context="lp")
        assert conjugate_params(s.z, s.w)
        # closed form: z = (p2 - i p3) / (p0 - i p1)
        want = (complex(QQ(-2, 5)) - 2j) / (1 - complex(QQ(1, 3)) * 1j)
        assert abs(s.z.affine() - want) < 1e-9

    def test_lp_line_shade_point_at_infinity(self):
        c = [0, 0, 0, 1]
        (s,) = solve_minor_system(lp_minors(c), seed=1, w_mode="conj", expected=1, context="lp")
        assert abs(s.z.s) < 1e-12  # the parameter (0, 1)

    def test_count_check_failure_raises(self):
        c = [1, QQ(1, 3), QQ(-2, 5), 2]
        with pytest.raises(GenericityError):
            solve_minor_system(lp_minors(c), seed=2, w_mode="conj", expected=3, context="lp")


class TestSameComponentSystems:
    def test_unknot_no_chords_after_saturation(self):
        curve = unknot_curve()
        system = center_system(curve, [0, 0, 0, 1])
        assert solve_minor_system(system, seed=3, w_mode="swap", expected=0,
                                  context="unknot") == []
        sec = secants(curve, 0, 0, p3=True)
        assert not sec.diagonal_only  # the deck transform came out too
        assert sec.removed == (2, 2)

    def test_kae_node_count_genus_formula(self):
        # degree 3: (d-1)(d-2) = 2 ordered chord solutions through a
        # generic center; degree 2: none
        curve = kae_curve(QQ(1, 2), -1)
        c = [1, QQ(2, 7), QQ(-3, 5), QQ(1, 2)]
        sols = solve_minor_system(
            center_system(curve, c), seed=6, w_mode="swap", expected=2, context="kae",
        )
        assert len(sols) == 2
        assert secants(curve, 0, 0, p3=True).diagonal_only

    def test_conjugation_closure(self):
        c = [1, QQ(2, 7), QQ(-3, 5), QQ(1, 2)]
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
        c = [1, QQ(2, 7), QQ(-3, 5), QQ(1, 2)]
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
    bounds = [chords.FILTER_TOL * (sum(abs(to_complex(c)) for r in p.rows for c in r) or 1.0)
              for p in (u, v)]
    return [(zi, wi) for zi, zp in enumerate(zroots) for wi, wp in enumerate(wroots)
            if all(abs(to_complex(bivar_value(p, zp.pair(), wp.pair()))) <= b
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
            minors = center_system(curve, [1, QQ(2, 7), QQ(-3, 5), QQ(1, 2)])
        solve_minor_system(minors, seed=seed, w_mode="swap", context=system)
        assert calls
        for _, u, v, zroots, wroots, _ in calls:
            got = chords._candidates(*chords._coeff_tables([u, v]), zroots, wroots)
            assert got == _scalar_candidates(u, v, zroots, wroots)
            assert got


def _polish_calls(run):
    """The argument tuples of every _pair_and_polish call that run()
    makes."""
    calls, pair_and_polish = [], chords._pair_and_polish

    def spy(*args):
        calls.append(args)
        return pair_and_polish(*args)

    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(chords, "_pair_and_polish", spy)
        run()
    return calls


def _assert_matches_oracle(args):
    """_pair_and_polish on args gives the solutions of the one-candidate-
    at-a-time oracle: the same (zi, wi) in the same order, and s, t,
    radius and Jacobian margin within 1e-12 relative."""
    got, want = chords._pair_and_polish(*args), pair_and_polish_oracle(*args[:5])
    assert [(s.zi, s.wi) for s in got] == [(s.zi, s.wi) for s in want]
    for a, b in zip(got, want):
        pairs = [(x, y) for p, q in ((a.z, b.z), (a.w, b.w))
                 for x, y in ((p.s, q.s), (p.t, q.t), (p.radius, q.radius))]
        for x, y in pairs + [(a.jac_margin, b.jac_margin)]:
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y))
        assert (a.z.real, a.w.real, a.conjugate) == (b.z.real, b.w.real, b.conjugate)
    return got


def _roots_at(*ts, radius=1e-13):
    """Real parameter points (1, t) tagged as certified roots 0, 1, ..."""
    return [chords.ParamPoint(1.0, t, radius, True, k) for k, t in enumerate(ts)]


class TestBatchedPolish:
    """All candidates of a combination are polished in one lockstep
    Newton pass and accepted from one evaluation of the minors; the
    result is the per-candidate loop's, kept in tests/helpers.py as the
    oracle."""

    @pytest.mark.parametrize("case", ["trefoil", "kae+1", "kae-1", "lp_line", "ladder6"])
    def test_matches_the_per_candidate_loop(self, case):
        c = [1, QQ(2, 7), QQ(-3, 5), QQ(1, 2)]
        if case == "trefoil":  # swap mode over two centers
            run = functools.partial(encomplexed_writhe, trefoil_curve(), seed=0, centers=2)
        elif case.startswith("kae"):
            run = functools.partial(encomplexed_writhe, kae_curve(1, int(case[3:])), seed=0)
        elif case == "lp_line":
            run = functools.partial(solve_minor_system, lp_minors(c), seed=2, w_mode="conj",
                                    center=c)
        else:
            run = functools.partial(solve_minor_system, center_system(ladder_curve(6), c),
                                    seed=1, w_mode="solve", center=c)
        calls = _polish_calls(run)
        assert calls
        assert sum(len(_assert_matches_oracle(args)) for args in calls)

    def test_singular_jacobian_keeps_the_candidate_unpolished(self):
        # u = 8z^3 - 4z^2 and v = w: the Jacobian of (u, v) is singular
        # at z = 0 and regular at z = 1/2; the first candidate stays where
        # it started, the second is polished onto the root in one batch
        u = BivarPoly(3, 1, [[0, 0], [0, 0], [-4, 0], [8, 0]])
        v = BivarPoly(3, 1, [[0, 1], [0, 0], [0, 0], [0, 0]])
        zroots, wroots = _roots_at(0.0, 0.5 + 1e-10), _roots_at(1e-12)
        sols = _assert_matches_oracle(([u, v], u, v, zroots, wroots, None))
        assert [(s.zi, s.wi) for s in sols] == [(0, 0), (1, 0)]
        first, second = sols
        assert (first.z.t, first.w.t, first.z.radius) == (0.0, 1e-12, 1e-13)
        assert abs(second.z.t - 0.5) < 1e-15 and second.w.t == 0

    def test_a_candidate_runs_every_step(self, monkeypatch):
        # u = (10^8 z^2 + 1)(3z - 1): from z = 3e-4 Newton stays on the
        # real axis, away from the roots +-10^-4 i, for all POLISH_STEPS
        # steps, while the candidate near z = 1/3 stops after a few
        u = BivarPoly(3, 1, [[-1, 0], [3, 0], [-10**8, 0], [3 * 10**8, 0]])
        v = BivarPoly(3, 1, [[0, 1], [0, 0], [0, 0], [0, 0]])
        # radius 0: each polished radius is the point's own last step
        zroots, wroots = _roots_at(3e-4, 1 / 3 + 1e-10, radius=0.0), _roots_at(1e-12, radius=0.0)
        jets, evaluations = chords._jets, []

        def spy(T, xy, chart_t):
            evaluations.append(len(xy))
            return jets(T, xy, chart_t)

        monkeypatch.setattr(chords, "_jets", spy)
        sols = _assert_matches_oracle(([u, v], u, v, zroots, wroots, None))
        # the batch evaluates both candidates at every step, then the minors once
        assert evaluations[:chords.POLISH_STEPS + 1] == [2] * (chords.POLISH_STEPS + 1)
        assert [(s.zi, s.wi) for s in sols] == [(1, 0)]

    def test_no_candidates(self):
        u = BivarPoly(1, 1, [[1, 0], [0, 1]])  # s u + t v
        v = BivarPoly(1, 1, [[1, 1], [0, 0]])  # s (u + v)
        zroots, wroots = _roots_at(0.25, 0.75), _roots_at(0.5)
        assert _assert_matches_oracle(([u, v], u, v, zroots, wroots, None)) == []

    def test_disk_distance_rejects(self):
        # 2u = 2z^2 + 199z - 100 = (2z - 1)(z + 100): at z = 1/2 + 1.2e-5
        # u passes the filter, and the polished root lies 1.2e-5 from the
        # start, beyond the 1e-5 that the disks allow
        u = BivarPoly(2, 1, [[-100, 0], [199, 0], [2, 0]])
        v = BivarPoly(2, 1, [[0, 1], [0, 0], [0, 0]])
        zroots, wroots = _roots_at(0.5 + 1.2e-5), _roots_at(0.0)
        assert chords._candidates(*chords._coeff_tables([u, v]), zroots, wroots) == [(0, 0)]
        assert _assert_matches_oracle(([u, v], u, v, zroots, wroots, None)) == []


@pytest.fixture(scope="module")
def solutions():
    minors = center_system(trefoil_curve(), [0, 1, 0, 0])
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


DIAG = BivarPoly(1, 1, [[0, 1], [-1, 0]])  # s v - t u
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# the records whose gcd is nonconstant: the P3-image records of the
# deck-symmetric sphere curves, which lose the deck graph besides the
# diagonal
GCD_RECORDS = {("hopf_pair", 0, 0, True), ("hopf_pair", 1, 1, True), ("unknot", 0, 0, True),
               ("split_circles", 0, 1, True)}


def _records():
    """(name, curve, i, j, p3, x, y) for every record of the 8 fixtures
    (P3 image and, on the sphere, all five coordinates) and of the kae
    sweeps' members, on freshly built curves: the 54 records of
    TestSecants.test_one_gcd_round_saturates, with the coordinate forms
    x and y their Plücker forms are built from."""
    curves = [(path.stem, parse_curve_file(path.read_bytes())[0]) for path in FIXTURES]
    curves += [(f"kae({n}/8,{eps})", kae_curve(QQ(n, 8), eps))
               for n in range(-8, 9) for eps in (1, -1)]
    for name, curve in curves:
        comps = curve.components
        pairs = ([(i, "conj") for i in range(len(comps))] if not curve.is_real() else
                 [(i, j) for i in range(len(comps)) for j in range(i, len(comps))])
        for i, j in pairs:
            y = comps[i].conj_coords if j == "conj" else comps[j].coords
            for p3 in sorted({True, comps[i].nvars == 4}):
                forms = p3_forms if p3 else tuple
                yield name, curve, i, j, p3, forms(comps[i].coords), forms(y)


@functools.cache
def _saturate_until_constant(minors):
    """The saturation loop that one gcd round replaced, on sympy's gcd:
    divide the common gcd out until it is constant.  A single nonzero
    minor is its own gcd, as in the engine."""
    minors, removed, diagonal_only = list(minors), (0, 0), True
    while True:
        live = [m for m in minors if not m.is_zero()]
        g = live[0] if len(live) == 1 else sympy_bivar_gcd(live)
        if g.m == g.n == 0:
            return minors, removed, diagonal_only
        diagonal_only &= chords._is_scalar_multiple(g, DIAG)
        removed = (removed[0] + g.m, removed[1] + g.n)
        minors = [bivar_divexact(m, g) for m in minors]


def _times_unit(p, unit):
    return BivarPoly._from_ints(p.m, p.n, p.den, [[gmul(c, unit) for c in r] for r in p.num])


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
        rng = random.Random(path.stem)
        for _ in range(3):
            # no zero coordinate: x3 = 0 on the k0 cubics, and a center in
            # their plane is the degenerate case the routes must not share
            # (TestSelectCenter in test_diagram.py)
            c = [QQ(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(4)]
            for i, j, w_mode, *_ in _chord_systems(comps, not curve.is_real()):
                y = comps[i].conj_coords if w_mode == "conj" else comps[j].coords
                raw = collinearity_system(c, coincidence_system(p3_forms(comps[i].coords),
                                                                p3_forms(y)))
                g = bivar_gcd(*raw)
                diagonal_only = g.m == g.n == 0 or i == j and chords._is_scalar_multiple(g, DIAG)
                sec = secants(curve, i, "conj" if w_mode == "conj" else j, p3=True)
                assert _same_system([bivar_divexact(m, g) for m in raw],
                                    collinearity_system(c, sec.minors))
                assert ((g.m, g.n), diagonal_only) == (sec.removed, sec.diagonal_only)

    def test_one_gcd_round_saturates(self):
        # every record of the 8 fixtures (P3 image and, on the sphere, all
        # five coordinates) and of the kae sweeps' members: the gcd G of the
        # raw forms F_i is the oracle's up to a unit, and gcd(F_i / G) is
        # constant
        count = 0
        for _, _, _, _, _, x, y in _records():
            raw = coincidence_system(x, y)
            g = bivar_gcd(*raw)
            minors, removed, _ = _saturate_until_constant(tuple(raw))
            assert (g.m, g.n) == removed
            quotients = [bivar_divexact(f, g) for f in raw]
            assert any(all(_times_unit(a, unit) == b for a, b in zip(minors, quotients))
                       for unit in UNITS)
            h = bivar_gcd(*quotients)
            assert h.m == h.n == 0
            count += 1
        assert count == 54

    def test_bezoutian_is_the_exact_quotient(self):
        # on every same-component record the engine's quotient is the raw
        # Plücker form divided by the diagonal, table for table; where the
        # proof holds the record holds those quotients
        count = 0
        for name, curve, i, j, p3, x, _ in _records():
            if j != i:
                continue
            pairs = list(itertools.combinations(range(len(x)), 2))
            quotients = [BivarPoly.bezoutian(x[a], x[b]) for a, b in pairs]
            for q, f in zip(quotients, coincidence_system(x, x)):
                want = bivar_divexact(f, DIAG)
                assert (q.m, q.n, q.den, q.num) == (want.m, want.n, want.den, want.num)
            if (name, i, j, p3) not in GCD_RECORDS:
                assert secants(curve, i, j, p3=p3).minors == tuple(quotients)
            count += 1
        assert count == 49

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda d: st.lists(
        st.lists(st.integers(-20, 20), min_size=d + 1, max_size=d + 1), min_size=2, max_size=2)),
        st.integers(1, 6), st.integers(1, 6))
    def test_bezoutian_identity_on_random_forms(self, tables, den_f, den_g):
        f = BinaryForm(len(tables[0]) - 1, [QQ(c, den_f) for c in tables[0]])
        g = BinaryForm(len(tables[1]) - 1, [QQ(c, den_g) for c in tables[1]])
        raw = BivarPoly.from_form_product(f, g) - BivarPoly.from_form_product(g, f)
        q = BivarPoly.bezoutian(f, g)
        assert q == bivar_divexact(raw, DIAG)
        assert q.swap_vars() == q  # symmetric

    def test_records_match_the_saturation_loop(self):
        # the engine's records remove what dividing the gcd out until it is
        # constant removes, and keep its minors up to one common unit
        count = 0
        for _, curve, i, j, p3, x, y in _records():
            minors, removed, diagonal_only = _saturate_until_constant(
                tuple(coincidence_system(x, y)))
            rec = secants(curve, i, j, p3=p3)
            # a record of two components counts as diagonal_only only when
            # it lost nothing
            diagonal_only &= j == i or removed == (0, 0)
            assert (rec.removed, rec.diagonal_only) == (removed, diagonal_only)
            assert len(rec.minors) == len(minors)
            assert any(all(_times_unit(a, unit) == b for a, b in zip(minors, rec.minors))
                       for unit in UNITS)
            count += 1
        assert count == 54

    def test_gcd_runs_only_on_the_deck_records(self, monkeypatch):
        # every record of one component against itself carries the diagonal
        # proof and runs no bivar_gcd, except the pinned deck records; every
        # other record is built by one bivar_gcd call, whose factor is
        # nonconstant, of bidegree (1, 1), on the pinned records alone
        factors = []

        def spy(*forms):
            g = bivar_gcd(*forms)
            factors.append((g.m, g.n))
            return g
        monkeypatch.setattr(chords, "bivar_gcd", spy)
        nonconstant, proved, same = set(), set(), set()
        for name, curve, i, j, p3, _, _ in _records():
            factors.clear()
            rec = secants(curve, i, j, p3=p3)
            if j == i:
                same.add((name, i, j, p3))
            if rec.immersed:
                proved.add((name, i, j, p3))
                assert factors == []
                assert (rec.removed, rec.diagonal_only) == ((1, 1), True)
                continue
            assert len(factors) == 1
            if factors != [(0, 0)]:
                assert factors == [(1, 1)]
                nonconstant.add((name, i, j, p3))
        assert nonconstant == GCD_RECORDS
        assert proved == same - GCD_RECORDS

    @pytest.fixture
    def saturations(self, monkeypatch):
        """Runs encomplexed_writhe and returns, for every record it
        saturated, the builder's name and the record's size."""
        calls = []
        build = chords._saturate

        def spy(*args):
            out = build(*args)
            calls.append(("_saturate", len(out.minors)))
            return out
        monkeypatch.setattr(chords, "_saturate", spy)

        def run(curve, centers):
            calls.clear()
            encomplexed_writhe(curve, seed=1, centers=centers)
            return list(calls)

        return run

    def test_centers_share_the_saturation(self, saturations):
        # every center shares the record of the trefoil's six x1..x4
        # forms, built as Bezoutian quotients with a constant gcd; its first
        # center's chord solutions prove smoothness, so the ten forms of
        # all five coordinates are never saturated
        one = saturations(trefoil_curve(), 1)
        four = saturations(trefoil_curve(), 4)
        assert one == four == [("_saturate", 6)]

    def test_p3_smoothness_and_projection_share_one(self, saturations):
        assert saturations(kae_curve(QQ(1, 2), -1), 2) == [("_saturate", 6)]

    def test_cached_on_the_model(self):
        curve = kae_curve(QQ(1, 2), -1)
        assert secants(curve, 0, 0, p3=True) is secants(curve, 0, 0, p3=False)
        tr = trefoil_curve()
        assert secants(tr, 0, 0, p3=True) is not secants(tr, 0, 0, p3=False)
        assert len(secants(tr, 0, 0, p3=False).minors) == 10


def _unit_rational_multiple(p: BinaryForm, q: BinaryForm) -> bool:
    """p = lam q for lam a unit of Z[i] times a positive rational: the
    tables are proportional and lam = p_k / q_k is real or imaginary."""
    if p.degree != q.degree or p.is_zero() or q.is_zero():
        return False
    a0, b0 = next((a, b) for a, b in zip(p.num, q.num) if b != GZERO)
    lam = gmul(a0, (b0[0], -b0[1]))  # lam times |b0|^2
    return GZERO not in (a0, b0) and 0 in lam and all(
        gmul(a, b0) == gmul(b, a0) for a, b in zip(p.num, q.num))


EXCESS_CASES = (
    [pytest.param(lambda p=path: parse_curve_file(p.read_bytes()), id=path.stem)
     for path in FIXTURES]
    + [pytest.param(lambda a=a, eps=eps: (kae_curve(a, eps), None), id=f"kae({a},{eps:+d})")
       for a in (-1, QQ(-1, 2), QQ(1, 2), 1) for eps in (1, -1)]
    + [pytest.param(lambda d=d: (ladder_curve(d), None), id=f"ladder{d}") for d in (6, 8)]
)


def _form_power(E, n):
    """E^n, the divisor that `bivar_resultant_w` divides out for the pair
    (E, n) of `chords._excess_factor`, built as a form."""
    out = chords.FORM_ONE
    for _ in range(n):
        out = out * E
    return out


class TestExcessFactor:
    """A projection's u and v are det[a | c | x | y] / G and
    det[b | c | x | y] / G, so R_z = E^n C with E = det[a | b | c | x(z)]
    and n = deg_w u (R_w = E_y^m C' in solve mode), and each solve
    eliminates C alone."""

    @pytest.mark.parametrize("make", EXCESS_CASES)
    def test_divided_resultant_times_the_excess_is_the_resultant(self, make, monkeypatch):
        resultant, solve = chords.bivar_resultant_w, diagram.solve_minor_system
        mode, calls = [None], []

        def spy_solve(system, **kwargs):
            mode[0] = kwargs["w_mode"], system.diagonal_only
            try:
                return solve(system, **kwargs)
            finally:
                mode[0] = None

        def spy(p, q, strip_content=False, divisor=chords.FORM_ONE, power=1):
            out = resultant(p, q, strip_content, divisor, power)
            if mode[0] is not None:
                calls.append((*mode[0], p, q, _form_power(divisor, power), out))
            return out

        monkeypatch.setattr(diagram, "solve_minor_system", spy_solve)
        monkeypatch.setattr(chords, "bivar_resultant_w", spy)
        for seed in range(4):
            curve, center = make()
            invariant = encomplexed_writhe if curve.is_real() else shade_number_empty_real
            try:
                invariant(curve, seed=seed, forced_center=center)
            except ShadecalcError:
                pass  # the precondition fixtures fail after (or before) their solves
        (d,) = {comp.degree for comp in curve.components}
        for _, divided, p, q, divisor, out in calls:
            # E has the components' degree d; n is p's degree in the
            # eliminated pair.  A record that lost the deck graph too (the
            # deck record of split_circles) divides by 1
            assert divisor.degree == (p.n * d if divided else 0)
            full = resultant(p, q, strip_content=True)
            assert _unit_rational_multiple(full, divisor * out)
        if len(curve.components) > 1 and calls:
            assert "solve" in {m for m, *_ in calls}  # R_w divided too

    def test_golden_chords_survive_the_division(self, solutions):
        # the divided solve of the golden center finds the same 20 points
        c = [0, 1, 0, 0]
        divided = solve_minor_system(center_system(trefoil_curve(), c), seed=7, w_mode="swap",
                                     expected=20, context="trefoil", center=c)
        assert len(divided) == len(solutions) == 20
        for s in solutions:
            assert any(same_param(s.z, t.z) and same_param(s.w, t.w) for t in divided)

    def test_trefoil_degrees(self, monkeypatch):
        # R_z of degree 50 = 30 + 20: E^5 with E of degree 6, and the
        # 2 N_6 = 20 roots that are chord ends
        degrees = []
        resultant = chords.bivar_resultant_w

        def spy(p, q, strip_content=False, divisor=chords.FORM_ONE, power=1):
            out = resultant(p, q, strip_content, divisor, power)
            degrees.append((_form_power(divisor, power).degree, out.degree))
            return out

        monkeypatch.setattr(chords, "bivar_resultant_w", spy)
        encomplexed_writhe(trefoil_curve(), seed=0, centers=4)
        assert degrees == [(30, 20)] * 4

    @pytest.mark.parametrize("system,mode,count", [("trefoil", "swap", 20), ("lp_line", "conj", 1)])
    def test_every_root_is_used_once(self, system, mode, count, monkeypatch):
        c = [1, QQ(2, 7), QQ(-3, 5), QQ(1, 2)]
        minors = center_system(trefoil_curve(), c) if system == "trefoil" else lp_minors(c)
        calls = []
        pair_and_polish = chords._pair_and_polish

        def spy(*args):
            calls.append(args[3])
            return pair_and_polish(*args)

        monkeypatch.setattr(chords, "_pair_and_polish", spy)
        sols = solve_minor_system(minors, seed=2, w_mode=mode, context=system, center=c)
        assert sorted(s.zi for s in sols) == list(range(len(calls[-1]))) == list(range(count))

        def drop_one(*args):
            return pair_and_polish(*args)[1:]

        monkeypatch.setattr(chords, "_pair_and_polish", drop_one)
        with pytest.raises(GenericityError, match="not each the z of exactly one"):
            solve_minor_system(minors, seed=2, w_mode=mode, context=system, center=c)

    def test_chord_end_at_a_root_of_e_is_kept(self, monkeypatch):
        # at c = e1 the trefoil has the chord (0, infinity), x(1, 0) =
        # (0, -1, -1, 0); these draws make E vanish at both of its ends,
        # and C still does
        c = [0, 1, 0, 0]
        system = center_system(trefoil_curve(), c)
        alpha, beta = [1, 2, 1], [1, -3, 1]  # over the nonzero minors 0, 1, 3
        E, n = chords._excess_factor(system, c, alpha, beta, 0, 1)
        assert n == 1 and E.num[0] == E.num[-1] == GZERO
        draws = [alpha, beta]

        def drawn(minors, rng):
            cs = draws.pop(0)
            return cs, BivarPoly.combination([(k, m) for k, m in zip(cs, minors) if k])

        monkeypatch.setattr(chords, "_random_combo", drawn)
        sols = solve_minor_system(system, w_mode="swap", expected=20, center=c)
        assert {(round(abs(s.z.s)), round(abs(s.w.s))) for s in sols} >= {(1, 0), (0, 1)}

    def test_inexact_divisor_raises(self):
        # Res_w(z - w, z + w) = 2 s t up to sign: t divides it, s + t not
        p = BivarPoly(1, 1, [[0, -1], [1, 0]])
        q = BivarPoly(1, 1, [[0, 1], [1, 0]])
        assert bivar_resultant_w(p, q, divisor=BinaryForm(1, [0, 1])) in (
            BinaryForm(1, [2, 0]), BinaryForm(1, [-2, 0]))
        with pytest.raises(ArithmeticError):
            bivar_resultant_w(p, q, divisor=BinaryForm(1, [1, 1]))
