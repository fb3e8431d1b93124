"""Invariant-level values, sweeps, linking and the independent oracles."""

import math
import random

import numpy as np
import pytest

from shadecalc import invariants
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
from shadecalc.diagram import SOLITARY_SIGN
from shadecalc.errors import InstabilityError, PreconditionError
from shadecalc.invariants import (
    encomplexed_writhe,
    family_sweep,
    gauss_linking_oracle,
    linking_number,
    range_collision_times,
    range_family_is_singular,
    range_family_shade,
    shade_number_empty_real,
)
from shadecalc.poly import BinaryForm, real_roots_sturm
from shadecalc.projective import ProjPoint, QuadricSpec, stereographic
from shadecalc.scalars import QQ


class TestGoldenValues:
    def test_unknot_zero(self):
        rep = encomplexed_writhe(unknot_curve(), seed=3)
        assert rep.Cw == 0 and rep.wr_part == 0 and rep.sh_part == 0
        assert rep.crossings == []

    def test_trefoil_four(self):
        rep = encomplexed_writhe(trefoil_curve(), seed=3)
        assert rep.Cw == 4
        assert (rep.wr_part, rep.sh_part) == (3, 1)

    def test_lp_line_half(self):
        rep = shade_number_empty_real(lp_line_curve(), seed=3)
        assert rep.sh_part == QQ(1, 2)  # frozen sign of the calibrated chain
        assert len(rep.crossings) == 1

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
        calls = {"real_roots_sturm": 0, "_ures_is_zero": 0}

        def counted(name):
            fn = getattr(invariants, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(invariants, name, counted(name))
        family_sweep("range", grid, d=d, K=K)
        assert calls == {"real_roots_sturm": 2, "_ures_is_zero": in_wall}

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
        pole = ProjPoint([2, 1, 1, 1, 1])
        q = QuadricSpec(QQ(1))
        polys = []
        for comp in lines.components:
            pts = []
            n = 256
            for k in range(2 * n):
                alpha = math.pi * k / n
                # odd-degree forms flip sign at alpha + pi, so v / |v|
                # itself traverses the great circle once over [0, 2 pi)
                v = [
                    float(complex(f.eval(complex(math.cos(alpha)), complex(math.sin(alpha)))).real)
                    for f in comp.coords
                ]
                norm = math.sqrt(sum(c * c for c in v))
                lift = ProjPoint([1.0 + 0j] + [c / norm + 0j for c in v], "P4")
                img, _ = stereographic(lift, pole, q)
                pts.append(img)
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
