"""Acceptance criteria, one test per criterion, each printing its own
pass/fail line.  Tolerances and runtime budgets are pinned here, straight
from the statements they implement.

Three clauses are asserted exactly as stated although the geometry forces
them red (the analysis also lives in the reviewer notes and README):

* criterion 4's extreme magnitudes |sh| = d^2/2: the shade-point signs of
  the explicit range family carry a factor sign(P'(theta_j) Q'(phi_k))
  which alternates with j and k (derivative signs at consecutive simple
  solutions of P = 1 must alternate), so the extreme values are 0 (d
  even) or +-1/2 (d odd); the per-point signs are verified against an
  independent 6x6 orientation-determinant oracle in the unit suite;
* criterion 4's "exactly d^2 unit jumps": at d = 3, K = 10^4 the real
  root corrections are 0.005..0.01, so two of each group of three
  collision times share one step-1/10 grid cell and their alternating
  flips cancel invisibly - 3 of 9 jumps are visible;
* criterion 6's crossing-kind multiset: the real-real/solitary split of
  a crossing is a property of the projection region, not the curve (the
  knot family switches kinds between certified generic centers while Cw
  stays put), so only writhe multisets and invariants are stable.
"""

import io
import math
import sys
import time
from pathlib import Path

import pytest

from shadecalc.curves import kae_curve, lp_line_curve, trefoil_curve, unknot_curve
from shadecalc.invariants import (
    encomplexed_writhe,
    family_sweep,
    linking_number,
    range_collision_times,
    shade_number_empty_real,
)
from shadecalc.reportio import parse_curve_file
from shadecalc.scalars import QQ

import helpers

DATA = Path(__file__).resolve().parents[1] / "src" / "shadecalc" / "data"


def report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    return ok


class TestCriterion1:
    def test_unknot(self):
        times = []
        ok = True
        for seed in range(5):
            t0 = time.time()
            rep = encomplexed_writhe(unknot_curve(), seed=seed)
            times.append(time.time() - t0)
            ok &= rep.Cw == 0 and rep.wr_part == 0 and rep.sh_part == 0
            ok &= rep.projection.crossings == [] and isinstance(rep.Cw, int)
        ok &= max(times) < 1.0
        assert report(1, ok, f"unknot Cw=0 over 5 seeds, max {max(times):.2f}s")


class TestCriterion2:
    def test_trefoil(self):
        model, center = parse_curve_file((DATA / "trefoil.json").read_bytes())
        t0 = time.time()
        rep = encomplexed_writhe(model, seed=7, forced_center=center)
        dt = time.time() - t0
        ok = rep.Cw == 4 and rep.wr_part == 3 and rep.sh_part == 1
        rr = [c for c in rep.projection.crossings if c.kind == "real-real" and c.same_component]
        so = [c for c in rep.projection.crossings if c.kind == "solitary"]
        ok &= len(rr) == 9 and len(so) == 1
        z = so[0].z.affine()
        ok &= min(abs(z - 1j), abs(z + 1j)) < 1e-8
        ok &= helpers.conjugate_params(so[0].z, so[0].w)
        type1, type2 = [], []
        for c in rr:
            d = abs(_angle(c.z) - _angle(c.w)) % 360
            d = min(d, 360 - d)
            (type2 if abs(d - 180) < 1e-5 else type1).append(c.writhe)
        ok &= sum(type1) == 0 and len(type1) == 6
        ok &= type2 == [1, 1, 1]
        ok &= dt < 10.0
        assert report(2, ok, f"Cw=4=3+1, 9+1 crossings, solitary at +-i, {dt:.1f}s")


def _angle(p):
    if abs(p.s) < 1e-12:
        return 180.0
    return math.degrees(2 * math.atan(p.affine().real)) % 360


class TestCriterion3:
    def test_kae_jumps(self):
        t0 = time.time()
        ok = True
        for eps in (1, -1):
            grid = [QQ(n, 4) for n in range(-4, 5)]
            rep = family_sweep("kae", grid, seed=3, eps=eps)
            ok &= rep.singular[4] and not any(rep.singular[:4] + rep.singular[5:])
            left = [int(v) for v in rep.values[:4]]
            right = [int(v) for v in rep.values[5:]]
            ok &= len(set(left)) == 1 and len(set(right)) == 1
            for a_idx in range(4):
                a = grid[a_idx]
                cw_neg = rep.values[a_idx]
                cw_pos = rep.values[len(grid) - 1 - a_idx]
                ok &= abs(int(cw_pos - cw_neg)) == 2
        dt = time.time() - t0
        ok &= dt < 60.0
        assert report(3, ok, f"both eps: constant sides, |jump| = 2, {dt:.1f}s")


@pytest.fixture(scope="module")
def sweeps():
    t0 = time.time()
    grid = [QQ(n, 10) for n in range(-100, 101)]
    out = {
        2: family_sweep("range", grid, seed=4, d=2, K=QQ(1000)),
        3: family_sweep("range", grid, seed=4, d=3, K=QQ(10000)),
    }
    out["dt"] = time.time() - t0
    return out


class TestCriterion4:
    """Range sweeps at d = 2 (K = 10^3) and d = 3 (K = 10^4) over
    [-10, 10] step 1/10."""

    def test_unit_jumps_congruence_and_bracketing(self, sweeps):
        ok = sweeps["dt"] < 120.0
        detail = []
        for d in (2, 3):
            rep = sweeps[d]
            vals = [v for v, s in zip(rep.values, rep.singular) if not s]
            ok &= all(v is not None for v in vals)
            ok &= all((v - QQ(d, 2)).denominator == 1 for v in vals if v is not None)
            ok &= all(abs(delta) == 1 for _, _, delta in rep.jumps)
            collisions = range_collision_times(d, QQ(10) ** (2 + d))
            bracketed = 0
            for lo, hi, _ in rep.jumps:
                if any(lo <= a and b <= hi for a, b in collisions):
                    bracketed += 1
            ok &= bracketed == len(rep.jumps)
            detail.append(f"d={d}: {len(rep.jumps)} visible unit jumps, all bracketing real-point times")
        assert report("4 (unit jumps, mod-1, bracketing)", ok, "; ".join(detail) + f", {sweeps['dt']:.0f}s")

    def test_jump_count_as_stated(self, sweeps):
        # asserted verbatim: exactly d^2 unit jumps on the stated grid.
        # For d = 3 at K = 10^4 the root corrections are 0.005..0.01, so
        # two of each group of three collision times share one step-1/10
        # grid cell and their (sign-alternating) flips cancel invisibly:
        # only 3 of the 9 jumps are visible, under any sign convention
        ok = True
        detail = []
        for d in (2, 3):
            n = len(sweeps[d].jumps)
            detail.append(f"d={d}: {n} jumps vs d^2={d * d}")
            ok &= n == d * d
        report("4 (exactly d^2 jumps)", ok, "; ".join(detail))
        assert ok, (
            "collision times cluster below the stated grid step for d = 3; see notes"
        )

    def test_extreme_magnitudes_as_stated(self, sweeps):
        # asserted verbatim; the honest values are 0 (d = 2) and +-1/2
        # (d = 3), see the module docstring and the decisions ledger
        ok = True
        detail = []
        for d in (2, 3):
            rep = sweeps[d]
            vals = [v for v, s in zip(rep.values, rep.singular) if not s and v is not None]
            lo, hi = vals[0], vals[-1]
            detail.append(f"d={d}: sh({rep.grid[0]})={lo}, sh({rep.grid[-1]})={hi}")
            ok &= abs(lo) == QQ(d * d, 2) and abs(hi) == QQ(d * d, 2) and lo == -hi
        report("4 (extreme |sh| = d^2/2)", ok, "; ".join(detail))
        assert ok, (
            "extreme shade values are not +-d^2/2: the family's shade-point "
            "signs alternate with sign(P'(theta_j) Q'(phi_k)); see notes"
        )


class TestCriterion5:
    def test_lp_line_sign_stability(self):
        t0 = time.time()
        signs = []
        counts = []
        for seed in range(10):
            rep = shade_number_empty_real(lp_line_curve(), seed=seed)
            signs.append(rep.sh_part)
            counts.append(len(rep.projection.crossings))
        dt = time.time() - t0
        ok = len(set(signs)) == 1 and abs(signs[0]) == QQ(1, 2)
        ok &= all(c == 1 for c in counts)
        ok &= dt < 1.0 * 10  # one second per run
        assert report(5, ok, f"sh(L^P) = {signs[0]} across 10 centers, {dt:.2f}s")


CRITERION6_CURVES = [
    ("unknot", unknot_curve),
    ("trefoil", trefoil_curve),
    ("K_1/2(+1)", lambda: kae_curve(QQ(1, 2), 1)),
    ("K_-1/2(+1)", lambda: kae_curve(QQ(-1, 2), 1)),
    ("K_1/2(-1)", lambda: kae_curve(QQ(1, 2), -1)),
    ("K_-1/2(-1)", lambda: kae_curve(QQ(-1, 2), -1)),
]


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name, make in CRITERION6_CURVES:
        curve = make()
        reps = [encomplexed_writhe(curve, seed=seed) for seed in range(5)]
        out[name] = reps
    return out


class TestCriterion6:
    """Projection independence across 5 accepted centers per curve."""

    def test_invariants_agree(self, runs):
        ok = True
        detail = []
        for name, reps in runs.items():
            cws = {r.Cw for r in reps}
            ok &= len(cws) == 1
            detail.append(f"{name}: Cw={cws}")
        assert report("6 (invariants)", ok, "; ".join(detail))

    def test_writhe_multisets_agree(self, runs):
        ok = True
        for name, reps in runs.items():
            multis = {tuple(sorted(c.writhe for c in r.projection.crossings)) for r in reps}
            ok &= len(multis) == 1
        assert report("6 (writhe multisets)", ok)

    def test_kind_multisets_as_stated(self, runs):
        # asserted verbatim; the kind of the knot family's single
        # crossing genuinely depends on the projection region (both
        # classifications pass every certificate, Cw is unchanged)
        ok = True
        detail = []
        for name, reps in runs.items():
            multis = {
                tuple(sorted((c.kind, c.same_component, c.writhe) for c in r.projection.crossings))
                for r in reps
            }
            if len(multis) != 1:
                ok = False
                detail.append(f"{name}: {len(multis)} distinct kind multisets")
        report("6 (kind multisets)", ok, "; ".join(detail) or "all stable")
        assert ok, (
            "crossing kinds are center-dependent for the knot family; "
            "only the writhe multiset and the invariants are stable (see notes)"
        )


class TestCriterion7:
    def test_resultant_oracle(self):
        n = helpers.resultant_root_product_check(cases=200)
        assert report("7 (resultant oracle)", n == 200, f"{n} random cases at 1e-8")

    def test_root_certification(self):
        import random

        from shadecalc.poly import BinaryForm
        from shadecalc.roots import complex_roots
        from shadecalc.scalars import GaussianRational as G

        rng = random.Random(42)
        ok = True
        for _ in range(40):
            deg = rng.randint(1, 9)
            cs = [G(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(deg)] + [G(1)]
            p = BinaryForm(deg, cs)
            roots = complex_roots(p)
            ok &= sum(r.multiplicity for r in roots) == p.degree
            norm = sum(abs(helpers.to_complex(c)) for c in p.coeffs)
            for r in roots:
                if r.multiplicity == 1:
                    resid = abs(helpers.to_complex(helpers.form_value(p, 1, r.center)))
                    ok &= resid < 1e-10 * (1 + norm * max(1.0, abs(r.center)) ** p.degree)
        assert report("7 (root residuals)", ok)

    def test_conjugation_closure_of_chords(self):
        # crossings are unordered parameter pairs; conjugating both
        # preimages must land on a recorded crossing again
        ok = True
        for make in (lambda: kae_curve(QQ(1, 2), 1), trefoil_curve):
            rep = encomplexed_writhe(make(), seed=9)
            sols = rep.projection.crossings
            for c in sols:
                zc, wc = c.z.conjugate(), c.w.conjugate()
                mates = [
                    d for d in sols
                    if (helpers.same_param(d.z, zc) and helpers.same_param(d.w, wc))
                    or (helpers.same_param(d.z, wc) and helpers.same_param(d.w, zc))
                ]
                ok &= bool(mates)
        assert report("7 (conjugation closure)", ok)

    def test_orientation_reversal_invariance(self):
        from shadecalc.curves import CurveComponent, CurveModel

        ok = True
        for make in (lambda: kae_curve(QQ(1, 2), -1), trefoil_curve):
            curve = make()
            comps = []
            for comp in curve.components:
                coords = [helpers.flipped(f) for f in comp.coords]
                comps.append(CurveComponent(coords, comp.label + "-rev"))
            rcurve = CurveModel(curve.ambient, comps, curve.metadata)
            r1 = encomplexed_writhe(curve, seed=6)
            r2 = encomplexed_writhe(rcurve, seed=6)
            ok &= (r1.Cw, sorted(c.writhe for c in r1.projection.crossings)) == (
                r2.Cw, sorted(c.writhe for c in r2.projection.crossings)
            )
        assert report("7 (orientation reversal)", ok)

    def test_linking_against_gauss(self):
        import numpy as np

        from shadecalc.curves import hopf_pair_curve, split_circles_curve

        def transfer(comp, n=256):
            pts = []
            angles = [math.pi * k / n for k in range(n)]
            for x in comp.values([(math.cos(aa), math.sin(aa)) for aa in angles]):
                pts.append(helpers.stereo_r3([(v / x[0]).real for v in x[1:]]))
            return np.array(pts)

        ok = True
        for curve, want in ((hopf_pair_curve(), None), (split_circles_curve(), 0)):
            lk = linking_number(curve, 0, 1, seed=2)
            val, err, _ = helpers.gauss_linking_oracle(
                transfer(curve.components[0]), transfer(curve.components[1])
            )
            ok &= abs(val - float(lk)) <= max(0.05, 3 * err)
            if want is not None:
                ok &= lk == want
        # third fixture: a generic P3 line pair against the transferred
        # Gauss integral of its orientation-compatible great-circle lifts
        from shadecalc.curves import CurveComponent, CurveModel
        from shadecalc.poly import BinaryForm

        F = lambda cs: BinaryForm(1, cs)
        l1 = CurveComponent([F([a, b]) for a, b in zip((1, 0, 1, 1), (0, 1, 2, -1))], "l1")
        l2 = CurveComponent([F([a, b]) for a, b in zip((1, 1, 0, 2), (0, 1, 1, 1))], "l2")
        lines = CurveModel("P3", [l1, l2])
        lkp = linking_number(lines, 0, 1, seed=1)
        ok &= abs(lkp) == QQ(1, 2)
        polys = []
        for comp in lines.components:
            pts = []
            n = 256
            angles = [math.pi * k / n for k in range(2 * n)]
            for x in comp.values([(math.cos(aa), math.sin(aa)) for aa in angles]):
                v = [c.real for c in x]
                norm = math.sqrt(sum(c * c for c in v))
                pts.append(helpers.stereo_r3([c / norm for c in v]))

            polys.append(np.array(pts))
        val, err, _ = helpers.gauss_linking_oracle(polys[0], polys[1])
        ok &= abs(val - 2 * float(lkp)) <= max(0.05, 3 * err)
        assert report("7 (linking vs Gauss)", ok)

    def test_byte_determinism(self):
        from shadecalc.cli import main

        def run(argv):
            buf = io.BytesIO()

            class Out:
                buffer = buf

            old = sys.stdout
            sys.stdout = Out()
            try:
                main(argv)
            finally:
                sys.stdout = old
            return buf.getvalue()

        argv = ["invariants", "--curve", str(DATA / "unknot.json"), "--seed", "5"]
        ok = run(argv) == run(argv)
        argv2 = ["invariants", "--curve", str(DATA / "lp_line.json"), "--seed", "5"]
        ok &= run(argv2) == run(argv2)
        assert report("7 (byte determinism)", ok)


class TestCriterion8:
    def test_exclusions_documented(self):
        # nothing to compute: homology machinery, even-dimensional
        # results, higher dimensions and rigid-isotopy classification
        # are out of scope by design; criteria 1-7 exercise their k = 1
        # shadows only
        import shadecalc

        excluded = ["homology", "euler", "rp2", "higher_dimension"]
        present = [e for e in excluded if hasattr(shadecalc, e)]
        assert report(8, not present, "excluded machinery is absent by design")
