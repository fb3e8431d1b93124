"""Invariant-level values, sweeps, linking and the independent oracles."""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from shadecalc import diagram, invariants
from shadecalc.curves import (
    CurveComponent,
    CurveModel,
    hopf_pair_curve,
    kae_curve,
    lp_line_curve,
    split_circles_curve,
    trefoil_curve,
    unknot_curve,
)
from shadecalc.chords import secants
from shadecalc.diagram import SOLITARY_SIGN
from shadecalc.errors import DoublePointError, InstabilityError, PreconditionError
from shadecalc.invariants import (
    encomplexed_writhe,
    family_sweep,
    gauss_linking_oracle,
    linking_number,
    range_collision_times,
    range_family_is_singular,
    range_family_shade,
    self_double_points,
    shade_number_empty_real,
)
from shadecalc.poly import BinaryForm, real_roots_sturm, zx_mul
from shadecalc.projective import QuadricSpec
from shadecalc.reportio import parse_curve_file
from shadecalc.scalars import QQ

from helpers import exact, stereo_r3


class TestGoldenValues:
    def test_unknot_zero(self):
        rep = encomplexed_writhe(unknot_curve(), seed=3)
        assert rep.Cw == 0 and rep.wr_part == 0 and rep.sh_part == 0
        assert rep.projection.crossings == []

    def test_trefoil_four(self):
        rep = encomplexed_writhe(trefoil_curve(), seed=3)
        assert rep.Cw == 4
        assert (rep.wr_part, rep.sh_part) == (3, 1)

    def test_lp_line_half(self):
        rep = shade_number_empty_real(lp_line_curve(), seed=3)
        assert rep.sh_part == QQ(1, 2)  # frozen sign of the calibrated chain
        assert len(rep.projection.crossings) == 1

    def test_singular_member_rejected(self):
        with pytest.raises(PreconditionError) as ei:
            encomplexed_writhe(kae_curve(0, -1), seed=1)
        assert "double point" in str(ei.value)

    def test_real_curve_rejected_by_shade(self):
        with pytest.raises(PreconditionError):
            shade_number_empty_real(unknot_curve(), seed=1)


class TestKaeGoldens:
    """Individual Cw values of the knot family are regression constants
    frozen after the first build; the jump behavior fixes only their
    difference across a = 0."""

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("a,want", [(QQ(1, 2), 1), (QQ(-1, 2), -1)])
    def test_values(self, eps, a, want):
        assert encomplexed_writhe(kae_curve(a, eps), seed=2).Cw == want

    def test_multi_center_agreement(self):
        rep = encomplexed_writhe(kae_curve(QQ(1, 2), -1), seed=5, centers=3)
        assert rep.Cw == 1 and rep.centers_checked == 3


def _data_curve(name):
    path = Path(invariants.__file__).parent / "data" / f"{name}.json"
    return parse_curve_file(path.read_bytes())[0]


def _sphere_curve(forms):
    return CurveModel(QuadricSpec(QQ(1)), [CurveComponent(forms, "lift")])


def _stereo_lift(y):
    """The unit-sphere curve over the P3 curve y by inverse stereographic
    projection of the R^3 point (y1, y2, y3)/w, w = y0 + 2 y1 + y2 + y3:
    [w^2 + r2, 2 w y1, 2 w y2, 2 w y3, r2 - w^2], r2 = y1^2 + y2^2 + y3^2.
    Its points at infinity, w = 0, all go to the pole [1, 0, 0, 0, 1]."""
    w = y[0] + y[1] * 2 + y[2] + y[3]
    r2 = y[1] * y[1] + y[2] * y[2] + y[3] * y[3]
    return _sphere_curve([w * w + r2, w * y[1] * 2, w * y[2] * 2, w * y[3] * 2, r2 - w * w])


def _rotated(curve):
    """A sphere curve turned by x -> q x on x1..x4, read as a quaternion,
    with q = 1 + 2i + 2j + 4k; x0 scales by |q| = 5 to stay on the quadric."""
    a, b, c, d = 1, 2, 2, 4
    L = [[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]]
    comps = []
    for comp in curve.components:
        x0, *x = comp.coords
        comps.append(CurveComponent(
            [x0 * 5] + [x[0] * r[0] + x[1] * r[1] + x[2] * r[2] + x[3] * r[3] for r in L],
            comp.label))
    return CurveModel(curve.ambient, comps)


# [s^4, s^2 t^2, s t^3 - s^3 t, t^4]: its one node joins u = t/s = 1 and -1
NODAL_QUARTIC = [BinaryForm(4, r) for r in
                 ([1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, -1, 0, 1, 0], [0, 0, 0, 0, 1])]
# a smooth quartic on the unit sphere through an antipodal pair: the
# inverse stereographic lift of a cubic of R^3 through p = (1, 1, 1) at
# u = 1 and -p/|p|^2 at u = 2 (the antipode on the sphere), whose points
# at infinity are u = 0 and the circular points u = +-i; the lifted forms
# share the factor 1 + u^2, which is divided out
ANTIPODAL_QUARTIC = [BinaryForm(4, r) for r in (
    [140, -104, 87, -116, 53], [0, 46, -16, 16, -16], [0, 22, 8, 22, -22],
    [0, 40, -25, 40, -25], [140, -104, 72, -116, 38])]


class TestFirstCenterSmoothness:
    """A P3 curve's double points come from its first center's chord
    solutions; there is no separate smoothness solve.  So do a sphere
    curve's, unless saturation of a P3-image record removed more than the
    diagonal."""

    def test_one_chord_solve_per_p3_curve(self, monkeypatch):
        calls = {"solve": 0, "sdp": 0}

        def counted(fn, key):
            def run(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return run

        for module in (diagram, invariants):
            monkeypatch.setattr(module, "solve_minor_system",
                                counted(module.solve_minor_system, "solve"))
        monkeypatch.setattr(invariants, "self_double_points",
                            counted(invariants.self_double_points, "sdp"))
        # seed 1 accepts its first drawn center (seed 0 rejects one after
        # its solve); a separate smoothness solve would make it 2
        rep = encomplexed_writhe(kae_curve(QQ(1, 2), -1), seed=1, centers=1)
        assert (rep.Cw, rep.projection.center.attempt) == (1, 0)
        assert calls == {"solve": 1, "sdp": 0}

    P3_CURVES = (
        [pytest.param(lambda n=n: _data_curve(n), id=n)
         for n in ("k0_plus", "k0_minus", "kae_half_minus")]
        + [pytest.param(lambda a=a, eps=eps: kae_curve(a, eps), id=f"kae({a},{eps:+d})")
           for a in (-1, QQ(-1, 2), 0, QQ(1, 2), 1) for eps in (1, -1)]
    )

    @pytest.mark.parametrize("make", P3_CURVES)
    def test_first_center_agrees_with_self_double_points(self, make):
        for seed in range(10):
            curve = make()
            assert secants(curve, 0, 0, p3=True) is secants(curve, 0, 0, p3=False)
            try:
                encomplexed_writhe(curve, seed=seed)
                found = []
            except DoublePointError as e:
                found = e.kinds
            want = sorted(b.kind for b in self_double_points(make(), seed))
            assert found == want, f"seed {seed}"

    @pytest.mark.parametrize("eps,kind", [(1, "complex-conjugate"), (-1, "real-real")])
    def test_double_point_raised_before_any_sign(self, eps, kind, monkeypatch):
        def no_sign(*args):
            raise AssertionError("a sign recipe ran on a singular curve")

        monkeypatch.setattr(diagram, "real_crossing_writhe", no_sign)
        monkeypatch.setattr(diagram, "solitary_writhe", no_sign)
        with pytest.raises(DoublePointError) as ei:
            encomplexed_writhe(kae_curve(0, eps), seed=3)
        assert ei.value.kinds == [kind]

    def test_sweep_flags_the_singular_member_without_self_double_points(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("self_double_points ran in a P3 kae sweep")

        monkeypatch.setattr(invariants, "self_double_points", forbidden)
        rep = family_sweep("kae", [QQ(-1, 2), 0, QQ(1, 2)], seed=1, eps=1)
        assert rep.singular == [False, True, False]
        assert rep.errors[1] == "singular member (double point)"

    # sphere curves whose P3-image record lost only the diagonal take the
    # same route; project_curve sets their antipodal pairs apart

    @pytest.mark.parametrize("make", [
        pytest.param(trefoil_curve, id="trefoil"),
        pytest.param(lambda: _rotated(trefoil_curve()), id="trefoil_rotated"),
    ])
    def test_sphere_trefoil(self, make):
        for seed in range(10):
            curve = make()
            assert secants(curve, 0, 0, p3=True).diagonal_only
            assert encomplexed_writhe(curve, seed=seed).Cw == 4, f"seed {seed}"
            assert self_double_points(make(), seed) == []

    # the d points at infinity of a degree-d P3 curve lift to one d-fold
    # point at the pole: C(d, 2) double points, real-real for the real
    # kae(a, -1) and one real-real plus a conjugate pair for kae(a, +1)
    POLE_KINDS = {-1: ["real-real"] * 3, 1: ["complex", "complex", "complex-conjugate"]}
    NODE_KIND = {-1: "real-real", 1: "complex-conjugate"}  # kae(0, eps)'s node

    @pytest.mark.parametrize("a", [-1, QQ(-1, 2), 0, QQ(1, 2), 1])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_lifted_kae_double_points(self, a, eps):
        want = sorted(self.POLE_KINDS[eps] + [self.NODE_KIND[eps]] * (a == 0))
        y = kae_curve(a, eps).components[0].coords
        for seed in range(4):
            curve = _stereo_lift(y)
            assert secants(curve, 0, 0, p3=True).diagonal_only
            with pytest.raises(DoublePointError) as ei:
                encomplexed_writhe(curve, seed=seed)
            assert ei.value.kinds == want, f"seed {seed}"

    def test_lifted_nodal_quartic_double_points(self):
        # a 4-fold point at the pole (two conjugate pairs of points at
        # infinity: 2 complex-conjugate and 4 complex pairs) and the node
        want = ["complex"] * 4 + ["complex-conjugate"] * 2 + ["real-real"]
        assert sorted(b.kind for b in self_double_points(_stereo_lift(NODAL_QUARTIC))) == want
        for seed in range(4):
            with pytest.raises(DoublePointError) as ei:
                encomplexed_writhe(_stereo_lift(NODAL_QUARTIC), seed=seed)
            assert ei.value.kinds == want, f"seed {seed}"

    def test_antipodal_pair_is_not_a_double_point(self, monkeypatch):
        # the P3 image of ANTIPODAL_QUARTIC has one double point, an
        # antipodal pair; the five-coordinate forms set it apart
        double_points = diagram.double_points
        found = []

        def spy(forms, solutions):
            out = double_points(forms, solutions)
            found.append((len(forms), len(out)))
            return out

        monkeypatch.setattr(diagram, "double_points", spy)
        for seed in range(4):
            found.clear()
            curve = _sphere_curve(ANTIPODAL_QUARTIC)
            assert secants(curve, 0, 0, p3=True).diagonal_only
            assert encomplexed_writhe(curve, seed=seed).Cw == -1
            assert found == [(6, 1), (10, 0)]
            assert self_double_points(_sphere_curve(ANTIPODAL_QUARTIC), seed) == []

    @pytest.mark.parametrize("make,separate", [
        (trefoil_curve, False), (hopf_pair_curve, True), (unknot_curve, True),
        (split_circles_curve, True),
    ])
    def test_deck_symmetric_curves_solve_their_own_system(self, make, separate, monkeypatch):
        # their P3-image records lose the deck graph, which hides the
        # x0 = 0 double points, so only their own system can find them
        calls = []
        sdp = invariants.self_double_points

        def spy(*args):
            calls.append(args)
            return sdp(*args)

        monkeypatch.setattr(invariants, "self_double_points", spy)
        curve = make()
        try:
            encomplexed_writhe(curve, seed=0)
        except DoublePointError:
            assert make is split_circles_curve  # its 2 complex double points
        assert len(calls) == separate
        n = len(curve.components)
        records = [secants(curve, i, j, p3=True) for i in range(n) for j in range(i, n)]
        assert all(r.diagonal_only for r in records) != separate


class TestCuspAndParityGuards:
    CUSP = [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]

    def test_cusp_rejected_before_any_chord_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a chord system was solved for a cuspidal curve")

        monkeypatch.setattr(diagram, "solve_minor_system", forbidden)
        monkeypatch.setattr(invariants, "solve_minor_system", forbidden)
        curve = CurveModel("P3", [CurveComponent([BinaryForm(4, r) for r in self.CUSP], "q")])
        with pytest.raises(PreconditionError, match="cusp on component q"):
            encomplexed_writhe(curve, seed=0)

    @staticmethod
    def _mutate(monkeypatch, mutation):
        solve = diagram.solve_minor_system

        def mutated(*args, **kwargs):
            sols = solve(*args, **kwargs)
            for s in sols:
                mutation(s)
            return sols

        monkeypatch.setattr(diagram, "solve_minor_system", mutated)

    def test_solitary_filed_as_non_contributing_trips_the_guard(self, monkeypatch):
        # kae(1, +1) has one solitary crossing: dropping the conjugate flag
        # makes it the one non-contributing solution of its system
        rep = encomplexed_writhe(kae_curve(1, 1))
        assert [c.kind for c in rep.projection.crossings] == ["solitary"]

        def drop_conjugate(s):
            s.conjugate = False

        self._mutate(monkeypatch, drop_conjugate)
        with pytest.raises(InstabilityError, match="odd count"):
            encomplexed_writhe(kae_curve(1, 1))

    @staticmethod
    def _edit_crossings(monkeypatch, edit):
        select = invariants.select_center

        def edited(*args, **kwargs):
            data = select(*args, **kwargs)
            data.crossings = edit(data.crossings)
            return data

        monkeypatch.setattr(invariants, "select_center", edited)

    def test_dropped_crossing_trips_the_parity_guard(self, monkeypatch):
        # kae(1/2, -1) has N_3 = 1 chord through a center: one crossing,
        # Cw = 1; dropping it moves Cw by 1 (flipping its sign would move
        # it by 2 and keep the parity)
        assert len(encomplexed_writhe(kae_curve(QQ(1, 2), -1), seed=2).projection.crossings) == 1
        self._edit_crossings(monkeypatch, lambda crossings: crossings[1:])
        with pytest.raises(InstabilityError, match="Cw = 0 is not congruent to N_d = 1 mod 2"):
            encomplexed_writhe(kae_curve(QQ(1, 2), -1), seed=2)

    def test_extra_crossings_trip_the_genus_bound(self, monkeypatch):
        self._edit_crossings(monkeypatch, lambda crossings: crossings * 3)
        with pytest.raises(InstabilityError, match=r"\|Cw\| = 3 exceeds the genus bound 1"):
            encomplexed_writhe(kae_curve(QQ(1, 2), -1), seed=2)

    def test_real_crossing_filed_as_non_contributing_trips_the_guard(self, monkeypatch):
        def drop_realness(s):
            s.z.real = s.w.real = False

        self._mutate(monkeypatch, drop_realness)
        with pytest.raises(InstabilityError, match="odd count"):
            encomplexed_writhe(kae_curve(QQ(1, 2), -1))


class TestSweeps:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_kae_jump(self, eps):
        grid = [QQ(n, 4) for n in range(-4, 5)]
        rep = family_sweep("kae", grid, seed=4, eps=eps)
        assert rep.singular == [False] * 4 + [True] + [False] * 4
        left = {int(v) for v in rep.values[:4]}
        right = {int(v) for v in rep.values[5:]}
        assert len(left) == 1 and len(right) == 1
        assert len(rep.jumps) == 1
        assert abs(rep.jumps[0][2]) == 2

    def test_range_sweep_d2_structure(self):
        # step 1/10 isolates the four collision times (near -1.2, -1.4,
        # -2.2, -2.4); a coarser grid would cancel adjacent unit jumps
        grid = [QQ(n, 10) for n in range(-30, 1)]
        rep = family_sweep("range", grid, seed=4, d=2, K=QQ(1000))
        vals = [v for v, s in zip(rep.values, rep.singular) if not s]
        assert all(v is not None for v in vals)
        assert all(v.denominator == 1 for v in vals)  # sh = d/2 = 1 mod 1
        for _, _, delta in rep.jumps:
            assert abs(delta) == 1
        assert len(rep.jumps) == 4  # d^2 unit jumps


class TestRangeFamily:
    def test_d1_single_flip(self):
        lo = range_family_shade(1, QQ(-5), QQ(1000))
        hi = range_family_shade(1, QQ(5), QQ(1000))
        assert abs(lo["sh"]) == QQ(1, 2) and hi["sh"] == -lo["sh"]

    def test_sign_flip_at_collision(self):
        times = range_collision_times(1, QQ(1000))
        assert len(times) == 1
        t0, t1 = times[0]
        before = range_family_shade(1, t0 - 1, QQ(1000))["sh"]
        after = range_family_shade(1, t1 + 1, QQ(1000))["sh"]
        assert after == -before

    def test_singular_detection_exact(self):
        # K(u - 1) = 1 has theta = 1 + 1/K; phi = t + 1/2 + 1/K;
        # collision at t = -3/2 - 2/K exactly
        K = QQ(1000)
        t_sing = -QQ(3, 2) - 2 / K
        assert range_family_is_singular(1, t_sing, K)
        assert not range_family_is_singular(1, t_sing + QQ(1, 10**6), K)
        with pytest.raises(PreconditionError):
            range_family_shade(1, t_sing, K)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_range_polys_are_the_products(self, d):
        # K prod (u - r_j) - 1 from integer tables: with r_j = p_j / q and
        # K = k / m it is (k prod (q u - p_j) - m q^d) / (m q^d)
        def expected(roots, K):
            q = math.lcm(*(r.denominator for r in roots))
            table = [(1, 0)]
            for r in roots:
                table = zx_mul(table, [(-int(r * q), 0), (q, 0)])
            k, m = K.numerator, K.denominator
            num = [(k * a, 0) for a, _ in table]
            num[0] = (num[0][0] - m * q**d, 0)
            return BinaryForm._from_ints(d, m * q**d, num)

        for t, K in ((QQ(0), QQ(10) ** (2 + d)), (QQ(-7, 3), QQ(5, 4)), (QQ(11, 6), QQ(1))):
            A, B = invariants._range_polys(d, t, K)
            assert A == expected([QQ(j) for j in range(1, d + 1)], K)
            assert B == expected([t + QQ(j, d * d + 1) for j in range(1, d + 1)], K)

    @pytest.mark.parametrize("d,theta,phi", [
        (1, QQ(3, 2), QQ(1)),
        (2, QQ(11, 5), QQ(4, 5)),
        (3, QQ(5333, 2667), QQ(4001, 26670)),
    ])
    def test_singular_at_a_rational_collision_time(self, d, theta, phi):
        # K prod (theta - j) = 1 and K prod (phi - j/(d^2+1)) = 1 at the
        # same K: W_t has a real point at t = -theta - phi, which lies in
        # exactly one certified wall; 10^-30 away it has none
        K = 1 / math.prod(theta - j for j in range(1, d + 1))
        assert math.prod(phi - QQ(j, d * d + 1) for j in range(1, d + 1)) * K == 1
        t = -theta - phi
        assert sum(lo <= t <= hi for lo, hi in range_collision_times(d, K)) == 1
        assert range_family_is_singular(d, t, K)
        e = QQ(1, 10**30)
        assert not range_family_is_singular(d, t + e, K)
        assert not range_family_is_singular(d, t - e, K)

    def test_small_K_rejected(self):
        # for d = 3 and K = 1 the middle pair of roots of P = 1 vanishes
        with pytest.raises(PreconditionError):
            range_family_shade(3, QQ(10), QQ(1))

    def test_recipe_matches_direct_intersection_determinant(self):
        # dual route: the solitary-frame recipe against the raw 6x6
        # orientation determinant of (shade frame, curve tangent frame)
        for d, t in ((2, QQ(-50)), (2, QQ(-7, 4)), (3, QQ(-2)), (3, QQ(6))):
            res = range_family_shade(d, t, QQ(10) ** (2 + d))
            k = 0
            for i, theta in enumerate(res["theta"]):
                for phi in res["phi"]:
                    want = _direct_range_sign(theta, phi, res)
                    assert res["signs"][k] == SOLITARY_SIGN * want
                    k += 1

    def test_mod_and_bound_invariants(self):
        for d in (2, 3):
            for t in (QQ(-8), QQ(-3, 2), QQ(5)):
                if range_family_is_singular(d, t, QQ(10) ** (2 + d)):
                    continue
                sh = range_family_shade(d, t, QQ(10) ** (2 + d))["sh"]
                assert (sh - QQ(d, 2)).denominator == 1
                assert abs(sh) <= QQ(d * d, 2)


def _direct_range_sign(theta, phi, res):
    # tangent of the member at the shade point, from the defining system
    d = res["d"]
    K = float(res["K"])
    dP = _poly_prime(res["theta"], theta, K)
    dQ = _poly_prime(res["phi"], phi, K)
    T = np.array([-1j * dQ, dP, -dQ - 1j * dP])
    sigma = 1.0 if (theta + phi) < 0 else -1.0  # upper sheet iff Im tau > 0
    cols = []
    for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        cols.append(_realify(np.array(v, dtype=complex)))
    ie3 = [0.0] * 6
    ie3[5] = sigma
    cols.insert(3, ie3)
    cols.append(_realify(T))
    cols.append(_realify(1j * T))
    M = np.array(cols).T
    det = np.linalg.det(M)
    assert abs(det) > 1e-9
    return 1 if det > 0 else -1


def _poly_prime(roots, at, K):
    # derivative of K prod (u - r_i) - 1 at one of its roots
    val = K
    for r in roots:
        if abs(r - at) > 1e-9:
            val *= at - r
    return val


def _realify(vec):
    out = []
    for z in vec:
        out.extend([z.real, z.imag])
    return out


def _grid(lo, hi, step):
    out, t = [], QQ(lo)
    while t <= hi:
        out.append(t)
        t += QQ(step)
    return out


def _benchmark_grid(seed):
    # the benchmark's range_sweep grid: [-10, 10] step 1/10, offset by a
    # seeded delta in [0, 1/10)
    delta = QQ(random.Random(seed).randrange(1000), 10000)
    return _grid(-10 + delta, 10 + delta, QQ(1, 10))


def _per_sample_sweep(d, K, grid):
    """The range sweep sample by sample, with no wall list: the exact gcd
    test on every sample, then a full range_family_shade call."""
    values, singular, errors = [], [], []
    for t in grid:
        v, s, e = None, False, None
        try:
            if range_family_is_singular(d, t, K):
                s, e = True, "singular member (real point)"
            else:
                v = range_family_shade(d, t, K)["sh"]
        except PreconditionError as exc:
            e = f"PreconditionError: {exc}"
        values.append(v)
        singular.append(s)
        errors.append(e)
    regular = [(t, v) for t, v in zip(grid, values) if v is not None]
    jumps = [(a, b, w - v) for (a, v), (b, w) in zip(regular, regular[1:]) if w != v]
    return values, singular, errors, jumps


RANGE_SWEEPS = [
    pytest.param(1, QQ(1000), _grid(QQ(-1503, 1000), QQ(-1501, 1000), QQ(1, 1000)),
                 id="d1_exact_wall"),
    pytest.param(2, QQ(1000), _grid(-10, 10, QQ(1, 2)), id="d2"),
    pytest.param(3, QQ(10**4), _grid(-10, 10, QQ(1, 2)), id="d3_41"),
    pytest.param(3, QQ(1), _grid(-1, 1, 1), id="small_K_P"),
    pytest.param(3, QQ(10), _grid(-3, 3, QQ(1, 4)), id="small_K_Q"),
]


class TestRangeSweepOneIsolation:
    """Range sweeps isolate A and B_0 once per (d, K) and run the exact gcd
    test only inside a certified wall interval."""

    @pytest.mark.parametrize("d,K,grid", RANGE_SWEEPS)
    def test_matches_per_sample_sweep(self, d, K, grid):
        rep = family_sweep("range", grid, d=d, K=K)
        assert (rep.values, rep.singular, rep.errors, rep.jumps) == _per_sample_sweep(d, K, grid)

    def test_wall_interval_alone_is_not_singular(self):
        # the gcd test decides inside a wall: t = -751/500 +- 2^-100 lie in
        # the certified interval, yet W_t has no real point there
        (lo, hi), = range_collision_times(1, QQ(1000))
        grid = [QQ(-751, 500) + e * QQ(1, 2**100) for e in (-1, 0, 1)]
        assert all(lo <= t <= hi for t in grid)
        rep = family_sweep("range", grid, d=1, K=QQ(1000))
        assert rep.singular == [False, True, False]
        assert rep.values == [None, None, None]
        assert all("degenerated onto the real locus" in rep.errors[i] for i in (0, 2))

    @pytest.mark.parametrize("d,t", [(1, QQ(-5)), (2, QQ(-7, 4)), (3, QQ(-2)), (3, QQ(6))])
    def test_shifted_intervals_match_direct_isolation(self, d, t):
        # B_t(u) = B_0(u - t): the shifted B_0 midpoints give the same floats
        # as isolating B_t itself
        K = QQ(10) ** (2 + d)
        _, B = invariants._range_polys(d, t, K)
        direct = real_roots_sturm(B, width=QQ(1, 2**90))
        assert range_family_shade(d, t, K)["phi"] == [float((b0 + b1) / 2) for b0, b1 in direct]

    @pytest.mark.parametrize("d,K,grid", [
        pytest.param(3, QQ(10**4), _grid(-10, 10, QQ(1, 10)), id="d3_201"),
        pytest.param(3, QQ(10**4), _grid(-1, 1, 1), id="d3_3"),
        pytest.param(1, QQ(1000), _grid(QQ(-1503, 1000), QQ(-1501, 1000), QQ(1, 1000)),
                     id="d1_exact_wall"),
    ])
    def test_work_counts(self, d, K, grid, monkeypatch):
        walls = range_collision_times(d, K)
        in_wall = sum(any(lo <= t <= hi for lo, hi in walls) for t in grid)
        calls = {"real_roots_sturm": 0, "form_gcd": 0}

        def counted(name):
            fn = getattr(invariants, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(invariants, name, counted(name))
        family_sweep("range", grid, d=d, K=K)
        assert calls == {"real_roots_sturm": 2, "form_gcd": in_wall}

    @pytest.mark.parametrize("d,K,grid", [
        pytest.param(2, QQ(1000), _grid(-10, 10, QQ(1, 10)), id="criterion4_d2"),
        pytest.param(3, QQ(10**4), _grid(-10, 10, QQ(1, 10)), id="criterion4_d3"),
    ] + [
        pytest.param(3, QQ(10**4), _benchmark_grid(seed), id=f"range_sweep_seed{seed}")
        for seed in range(41, 51)
    ])
    def test_wall_ledger_silent(self, d, K, grid):
        rep = family_sweep("range", grid, d=d, K=K)
        assert rep.jumps and not any(rep.errors)

    @pytest.mark.parametrize("d,K,grid", [
        pytest.param(d, QQ(10) ** (2 + d), _grid(-10, 10, QQ(1, 10)), id=f"d{d}_default_K")
        for d in (1, 2, 3, 4)
    ] + [
        pytest.param(3, QQ(10**4), _benchmark_grid(seed), id=f"range_sweep_seed{seed}")
        for seed in range(41, 51)
    ])
    def test_exact_signs_match_float_frame(self, d, K, grid):
        # the float solitary recipe on the float shade point
        # [1, theta, phi, -i(theta + phi)] with its defining-gradient tangent
        # gives the exact sign at every point of every sample outside the walls
        iso = invariants._range_isolation(d, K, "Q_t")
        A, B0 = invariants._range_polys(d, 0, K)
        dA, dB0 = A.partials()[1], B0.partials()[1]
        dP = [complex(dA.eval(1, exact(theta))) for theta in iso.theta]
        dQ = [complex(dB0.eval(1, m)) for m in iso.phi0]
        outside = [t for t in grid if not invariants._in_wall(iso.walls, t)]
        assert len(outside) >= len(grid) - d * d
        for t in outside:
            res = invariants._range_shade_at(iso, t)
            want = [
                diagram.branch_frame_sign([1 + 0j, complex(th), complex(ph), -1j * (th + ph)],
                                          [0j, -1j * q, p, -q - 1j * p])
                for th, p in zip(res["theta"], dP) for ph, q in zip(res["phi"], dQ)
            ]
            assert res["signs"] == want, t

    def test_d5_default_K_sweep_has_no_errors(self):
        # at K = 10^7 the float frame of every d = 5 shade point has a
        # Hadamard margin below CERT_MARGIN; the exact signs need none
        grid = _grid(-10, 10, QQ(1, 10))
        rep = family_sweep("range", grid, d=5)
        assert not any(rep.errors) and not any(rep.singular)
        assert set(rep.values) == {QQ(1, 2), QQ(-1, 2)}
        assert len(rep.jumps) == 5

    @pytest.mark.parametrize("d,K", [(d, QQ(10) ** (2 + d)) for d in range(1, 6)]
                             + [(6, QQ(10) ** 9), (7, QQ(10) ** 11)])
    def test_default_K_is_the_first_power_that_isolates(self, d, K):
        # from d = 6 on, 10^(2+d) isolates too few roots of Q_0 = 1
        assert invariants._range_isolation(d, None, "Q_t").K == K
        if K > QQ(10) ** (2 + d):
            with pytest.raises(PreconditionError, match="increase K"):
                invariants._range_isolation(d, K / 10, "Q_t")

    def test_d6_default_K_sweep_has_no_errors(self):
        rep = family_sweep("range", _grid(-10, 10, QQ(1, 10)), d=6)
        assert rep.parameters == {"d": 6, "K": "1000000000"}
        assert not any(rep.errors) and not any(rep.singular)
        assert len(rep.jumps) == 12
        # an explicit K keeps its own isolation error
        rep = family_sweep("range", [QQ(0)], d=6, K=QQ(10) ** 8)
        assert rep.errors == ["PreconditionError: Q_t(u,1) = 1: found 2 real roots, "
                              "need 6 (increase K)"]

    @pytest.mark.parametrize("grid,flip", [
        pytest.param(_grid(-5, 5, 1), QQ(3), id="delta_without_wall"),
        pytest.param(_grid(-2, -1, 1), QQ(-1), id="parity_across_one_wall"),
    ])
    def test_one_sample_sign_flip_trips_wall_ledger(self, grid, flip, monkeypatch):
        # d = 1, K = 10^3 has its one wall at t = -751/500
        shade_at = invariants._range_shade_at

        def flipped(iso, t):
            res = shade_at(iso, t)
            if t == flip:
                res["sh"] = -res["sh"]
            return res

        monkeypatch.setattr(invariants, "_range_shade_at", flipped)
        with pytest.raises(InstabilityError, match="certified wall"):
            family_sweep("range", grid, d=1, K=QQ(1000))


class TestLinking:
    def test_hopf_great_circles(self):
        assert linking_number(hopf_pair_curve(), 0, 1, seed=2) == 1

    def test_split_circles(self):
        assert linking_number(split_circles_curve(), 0, 1, seed=2) == 0

    def test_intersecting_loci_rejected(self):
        # two distinct lines through the common real point [1,0,1,1]
        F = lambda cs: BinaryForm(1, cs)
        l1 = CurveComponent([F([1, 0]), F([0, 1]), F([1, 2]), F([1, -1])], "l1")
        l2 = CurveComponent([F([1, 0]), F([0, 1]), F([1, 1]), F([1, 1])], "l2")
        model = CurveModel("P3", [l1, l2])
        with pytest.raises(PreconditionError):
            linking_number(model, 0, 1, seed=1)

    def test_generic_p3_lines_half(self):
        lines = _generic_lines()
        lk = linking_number(lines, 0, 1, seed=1)
        assert abs(lk) == QQ(1, 2)

    def test_p3_lines_vs_gauss_after_lift(self):
        # lift both lines to great circles on the unit quadric with the
        # projection-compatible orientation and compare the transferred
        # Gauss integral with twice the P3 linking number
        lines = _generic_lines()
        lk = linking_number(lines, 0, 1, seed=1)
        polys = []
        for comp in lines.components:
            pts = []
            n = 256
            # odd-degree forms flip sign at alpha + pi, so v / |v|
            # itself traverses the great circle once over [0, 2 pi)
            angles = [math.pi * k / n for k in range(2 * n)]
            for x in comp.values([(math.cos(a), math.sin(a)) for a in angles]):
                v = [c.real for c in x]
                norm = math.sqrt(sum(c * c for c in v))
                pts.append(stereo_r3([c / norm for c in v]))
            polys.append(np.array(pts))
        val, err, _ = gauss_linking_oracle(polys[0], polys[1])
        assert abs(val - 2 * float(lk)) <= max(0.05, 2 * err)


def _generic_lines():
    F = lambda cs: BinaryForm(1, cs)
    A1, B1 = (1, 0, 1, 1), (0, 1, 2, -1)
    A2, B2 = (1, 1, 0, 2), (0, 1, 1, 1)
    assert abs(np.linalg.det(np.array([A1, B1, A2, B2], dtype=float))) > 1e-9
    l1 = CurveComponent([F([a, b]) for a, b in zip(A1, B1)], "l1")
    l2 = CurveComponent([F([a, b]) for a, b in zip(A2, B2)], "l2")
    return CurveModel("P3", [l1, l2])


class TestGaussOracle:
    def test_hopf_classical(self):
        # C1 the ccw unit circle in the xy plane, C2 through its middle:
        # the Seifert-disk count gives exactly -1 for these orientations
        n = 64
        th = np.linspace(0, 2 * np.pi, n, endpoint=False)
        C1 = np.stack([np.cos(th), np.sin(th), 0 * th], axis=1)
        C2 = np.stack([1 + np.cos(th), 0 * th, np.sin(th)], axis=1)
        val, err, warn = gauss_linking_oracle(C1, C2)
        assert abs(val + 1.0) <= 0.02 and err < 0.02

    def test_unlink(self):
        n = 64
        th = np.linspace(0, 2 * np.pi, n, endpoint=False)
        C1 = np.stack([np.cos(th), np.sin(th), 0 * th], axis=1)
        C3 = np.stack([5 + np.cos(th), np.sin(th), 0 * th + 3], axis=1)
        val, err, _ = gauss_linking_oracle(C1, C3)
        assert abs(val) <= 0.02

    def test_torus_style_pair(self):
        n = 256
        th = np.linspace(0, 2 * np.pi, n, endpoint=False)
        a, b = 2.0, 0.5
        T1 = np.stack(
            [(a + b * np.cos(2 * th)) * np.cos(th), (a + b * np.cos(2 * th)) * np.sin(th), b * np.sin(2 * th)],
            axis=1,
        )
        T2 = np.stack(
            [(a + b * np.cos(2 * th + np.pi)) * np.cos(th), (a + b * np.cos(2 * th + np.pi)) * np.sin(th), b * np.sin(2 * th + np.pi)],
            axis=1,
        )
        val, err, _ = gauss_linking_oracle(T1, T2)
        assert abs(abs(val) - 2.0) <= 0.05

    def test_proximity_warning(self):
        n = 64
        th = np.linspace(0, 2 * np.pi, n, endpoint=False)
        C1 = np.stack([np.cos(th), np.sin(th), 0 * th], axis=1)
        C2 = np.stack([np.cos(th), np.sin(th), 0 * th + 1e-3], axis=1)
        _, _, warn = gauss_linking_oracle(C1, C2)
        assert warn
