"""Exit-code contract and byte determinism of the command line."""

import hashlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

from shadecalc import cli, invariants, roots
from shadecalc.cli import main
from shadecalc.errors import CurveFileError
from shadecalc.scalars import QQ

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "shadecalc" / "data"


def run(argv, capsys):
    buf = io.BytesIO()

    class Out:
        buffer = buf

    old = sys.stdout
    sys.stdout = Out()
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


class TestExitCodes:
    def test_unknot_ok(self, capsys):
        code, out = run(
            ["invariants", "--curve", str(DATA / "unknot.json"), "--seed", "7", "--json"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["result"]["Cw"] == 0

    def test_singular_curve_exit_3(self, capsys):
        code, _ = run(["invariants", "--curve", str(DATA / "k0_minus.json")], capsys)
        assert code == 3

    def test_singular_curve_exit_3_at_singular_combo_seed(self, capsys):
        code, _ = run(
            ["invariants", "--curve", str(DATA / "k0_plus.json"), "--seed", "21"], capsys
        )
        assert code == 3

    def test_missing_file_exit_1(self, capsys):
        code, _ = run(["invariants", "--curve", "/nonexistent.json"], capsys)
        assert code == 1

    def test_malformed_flags_exit_1(self, capsys):
        code, _ = run(["sweep", "--family", "range", "--d", "0", "--grid=0:1:1"], capsys)
        assert code == 1

    def test_bad_grid_exit_1(self, capsys):
        code, _ = run(["sweep", "--family", "kae", "--epsilon", "1", "--grid=1:0:1"], capsys)
        assert code == 1

    def test_oversized_grid_exit_1_at_once(self, capsys):
        # 10^9 + 1 samples: the count is checked before any sample is built
        start = time.perf_counter()
        code, out = run(["sweep", "--family", "range", "--d", "1", "--grid=0:1e9:1"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, b"")
        assert capsys.readouterr().err == "error: grid has 1000000001 samples, more than 100000\n"

    def test_grid_sample_count_bound(self):
        assert cli._parse_grid("-1:1:1/3") == [QQ(k, 3) for k in range(-3, 4)]
        assert cli._parse_grid("0:1:3") == [0]
        assert len(cli._parse_grid(f"0:{cli.MAX_GRID_SAMPLES - 1}:1")) == cli.MAX_GRID_SAMPLES
        with pytest.raises(CurveFileError, match="more than"):
            cli._parse_grid(f"0:{cli.MAX_GRID_SAMPLES}:1")

    @pytest.mark.parametrize("centers", ["0", "-2"])
    def test_centers_below_one_exit_1(self, centers, capsys):
        code, out = run(
            ["invariants", "--curve", str(DATA / "unknot.json"), "--centers", centers], capsys
        )
        assert code == 1
        assert out == b""
        assert "error: --centers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol_exit_1(self, tol, capsys):
        # a NaN or infinite tol would make the report invalid JSON, and a
        # clamped one would make it misstate the tolerance used
        code, out = run(
            ["invariants", "--curve", str(DATA / "unknot.json"), f"--tol={tol}"], capsys
        )
        assert code == 1
        assert out == b""
        assert "error: --tol must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("K", ["abc", "1/0", "0", "-5"])
    def test_bad_K_exit_1(self, K, capsys):
        code, out = run(
            ["sweep", "--family", "range", "--d", "2", "--K", K, "--grid=0:1:1/2"], capsys
        )
        assert code == 1
        assert out == b""
        assert "error: bad --K value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--family", "kae", "--epsilon", "1", "--d", "3", "--K", "7"],
         "kae sweep does not take --d, --K"),
        (["--family", "range", "--d", "2", "--epsilon", "-1"],
         "range sweep does not take --epsilon"),
    ], ids=["kae_with_d_K", "range_with_epsilon"])
    def test_flag_of_the_other_family_exit_1(self, argv, message, capsys):
        # the report would not echo a flag the family drops
        code, out = run(["sweep", *argv, "--grid=0:1:1/2"], capsys)
        assert code == 1
        assert out == b""
        assert f"error: {message}" in capsys.readouterr().err

    def test_wall_ledger_violation_exit_3(self, capsys, monkeypatch):
        # a sign flip at t = 3 moves sh with no certified wall in (2, 4)
        shade_at = invariants._range_shade_at

        def flipped(iso, t):
            res = shade_at(iso, t)
            if t == 3:
                res["sh"] = -res["sh"]
            return res

        monkeypatch.setattr(invariants, "_range_shade_at", flipped)
        code, out = run(
            ["sweep", "--family", "range", "--d", "1", "--K", "1000", "--grid=-5:5:1"], capsys
        )
        assert code == 3
        assert out == b""
        assert "certified wall" in capsys.readouterr().err

    # [s^4, s^2 t^2, s t^3, t^4] in P3, and on the unit sphere the lift of
    # the cuspidal cubic (t^2, t^3, 0) of R^3: both stationary at t = 0
    CUSPS = {
        "p3": {"ambient": "P3", "components": [{"degree": 4, "label": "quartic", "coords": [
            ["1", "0", "0", "0", "0"], ["0", "0", "1", "0", "0"],
            ["0", "0", "0", "1", "0"], ["0", "0", "0", "0", "1"]]}]},
        "sphere": {"ambient": {"Q3": {"c": "1"}}, "components": [
            {"degree": 6, "label": "sextic", "coords": [
                ["1", "0", "0", "0", "1", "0", "1"], ["0", "0", "2", "0", "0", "0", "0"],
                ["0", "0", "0", "2", "0", "0", "0"], ["0", "0", "0", "0", "0", "0", "0"],
                ["-1", "0", "0", "0", "1", "0", "1"]]}]},
    }

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    @pytest.mark.parametrize("ambient,label", [("p3", "quartic"), ("sphere", "sextic")])
    def test_cusp_exit_3(self, ambient, label, seed, tmp_path, capsys):
        # the chord solve used to end in a zero Jacobian margin (exit 2)
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps(self.CUSPS[ambient]))
        code, out = run(["invariants", "--curve", str(path), "--seed", str(seed)], capsys)
        assert code == 3
        assert out == b""
        assert capsys.readouterr().err == (
            f"precondition violation: curve has a cusp on component {label} (its "
            "parameterization is stationary there); invariants need a smooth embedding\n"
        )

    @pytest.mark.parametrize("eps,kind", [(1, "complex-conjugate"), (-1, "real-real")])
    def test_singular_curve_forced_center_exit_3(self, eps, kind, tmp_path, capsys):
        # a generic forced center off the plane of the nodal cubic: its
        # chord solutions hold the node
        path = tmp_path / "k0.json"
        path.write_text(json.dumps({"family": {"name": "kae", "a": 0, "eps": eps},
                                    "center": {"point": ["1", "1/2", "1/3", "2"]}}))
        code, out = run(["invariants", "--curve", str(path)], capsys)
        assert code == 3
        assert out == b""
        assert capsys.readouterr().err == (
            f"precondition violation: curve has 1 double point(s) ({kind}); "
            "invariants need a smooth embedding\n"
        )

    @pytest.mark.parametrize("point, message", [
        # kae(1/2, -1) passes through [1, 0, 0, 1/2] at parameter infinity
        (["1", "0", "0", "1/2"], "center lies on the projected component 0"),
        # [1, 2, 2, 1] is on a tangent line: one of the two chords is tangent
        (["1", "2", "2", "1"], "chords[0,0]: found 1 solutions, expected 2 "
                               "(non-generic configuration or uncertified pairing)"),
    ], ids=["on-curve", "tangent-line"])
    def test_adversarial_file_center_exit_2(self, point, message, tmp_path, capsys):
        path = tmp_path / "kae.json"
        curve = json.loads((DATA / "kae_half_minus.json").read_text())
        path.write_text(json.dumps({**curve, "center": {"point": point}}))
        code, out = run(["invariants", "--curve", str(path)], capsys)
        assert code == 2
        assert out == b""
        assert capsys.readouterr().err == f"genericity failure: {message}\n"

    @pytest.mark.parametrize("name, value, message", [
        ("kae_half_minus", "Cw", "centers disagree on Cw: [-1, 1]"),
        ("lp_line", "sh", "centers disagree on sh: [-1/2, 1/2]"),
    ])
    def test_centers_that_disagree_exit_3(self, name, value, message, capsys, monkeypatch):
        # every writhe of the second center flipped: the first center's
        # value and its negative, both within the value's own checks
        select_center = invariants.select_center
        runs = []

        def flipped(*args, **kwargs):
            data = select_center(*args, **kwargs)
            runs.append(data)
            if len(runs) == 2:
                for c in data.crossings:
                    c.writhe = -c.writhe
            return data

        monkeypatch.setattr(invariants, "select_center", flipped)
        code, out = run(["invariants", "--curve", str(DATA / f"{name}.json"), "--centers", "2"],
                        capsys)
        assert len(runs) == 2
        assert code == 3
        assert out == b""
        assert capsys.readouterr().err == f"precondition violation: {message}\n"

    def test_lp_line_shade_branch(self, capsys):
        code, out = run(
            ["invariants", "--curve", str(DATA / "lp_line.json"), "--seed", "3"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["result"]["Cw"] is None
        assert obj["result"]["sh_part"] in ("1/2", "-1/2")
        assert obj["result"]["mode"] == "shade"

    KAE = {"name": "kae", "a": "1/2", "eps": -1}

    @pytest.mark.parametrize("curve, message", [
        # a P3 point with five entries was accepted and cut to four
        ({"family": KAE, "center": {"point": ["1", "1/3", "2/5", "1/7", "9"]}},
         "point needs exactly 4 coordinates"),
        ({"family": KAE, "center": {"point": ["1", "1/3", "2/5"]}},
         "point needs exactly 4 coordinates"),
        ({"family": KAE, "center": {"point": ["0", "0", "0", "0"]}},
         "point coordinates are all zero"),
        ({"family": KAE, "center": {"point": "1 0 0 0"}},
         "point needs exactly 4 coordinates"),
        ({"family": {"name": "unknot"}, "center": {"lift": ["1", "1", "0", "0"]}},
         "lift needs exactly 5 coordinates"),
        ({"family": {"name": "unknot"}, "center": {"lift": ["0", "0", "0", "0", "0"]}},
         "lift coordinates are all zero"),
        ({"family": {**KAE, "a": [1]}}, "bad parameter a"),
        ({"family": {**KAE, "a": "1/0"}}, "bad parameter a"),
        ({"family": {**KAE, "eps": "x"}}, "eps must be the integer 1 or -1"),
        # a float eps was truncated toward zero
        ({"family": {**KAE, "eps": -1.7}}, "eps must be the integer 1 or -1"),
        ({"family": {**KAE, "eps": -1.0}}, "eps must be the integer 1 or -1"),
        ({"family": {**KAE, "eps": True}}, "eps must be the integer 1 or -1"),
        ({"family": {**KAE, "eps": 2}}, "eps must be the integer 1 or -1"),
        # a float entered at its binary value and a bool as 0 or 1
        ({"family": {**KAE, "a": 0.1}}, "bad parameter a"),
        ({"family": {**KAE, "a": True}}, "bad parameter a"),
        # a parameter the family does not take was silently ignored
        ({"family": {"name": "trefoil", "a": "1/2", "eps": 1}},
         "family trefoil: unknown parameter 'a'"),
        ({"family": {**KAE, "c": "2"}}, "family kae: unknown parameter 'c'"),
        ({"family": {"name": "kae", "a": "1/2"}}, "family kae: missing parameter 'eps'"),
    ])
    def test_malformed_curve_file_exit_1(self, curve, message, tmp_path, capsys):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(curve))
        code, out = run(["invariants", "--curve", str(path)], capsys)
        assert code == 1
        assert out == b""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


    @pytest.mark.parametrize("command", ["validate", "invariants"])
    def test_lift_mixing_radicands_exit_1(self, command, tmp_path, capsys):
        # on the c = 5 quadric, but sqrt(2) and sqrt(3) do not share one
        # Q(sqrt n): a file error, not a traceback
        circle = [["1", "0", "1"], ["1", "0", "-1"], ["0", "2", "0"], ["2", "0", "2"],
                  ["0", "0", "0"]]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({
            "ambient": {"Q3": {"c": "5"}}, "components": [{"coords": circle}],
            "center": {"lift": ["1", "1*sqrt(2)", "1*sqrt(3)", "0", "0"]}}))
        code, out = run([command, "--curve", str(path)], capsys)
        assert (code, out) == (1, b"")
        assert capsys.readouterr().err == "error: center: lift mixes the radicands 2 and 3\n"

    def test_lift_with_radicands_of_one_field(self, tmp_path, capsys):
        # sqrt(8) = 2 sqrt(2): both spellings of the c = 10 quadric point
        # [1, sqrt(2), 2 sqrt(2), 0, 0] give the same center, and lift0
        # echoes each as written
        circle = [["1", "0", "1"], ["0", "0", "0"], ["1", "0", "-1"], ["0", "2", "0"],
                  ["3", "0", "3"]]
        results = []
        for i, x2 in enumerate(["1*sqrt(8)", "2*sqrt(2)"]):
            path = tmp_path / f"curve{i}.json"
            path.write_text(json.dumps({
                "ambient": {"Q3": {"c": "10"}}, "components": [{"coords": circle}],
                "center": {"lift": ["1", "1*sqrt(2)", x2, "0", "0"]}}))
            assert run(["validate", "--curve", str(path)], capsys)[0] == 0
            code, out = run(["invariants", "--curve", str(path)], capsys)
            assert code == 0
            results.append(json.loads(out)["result"])
        lifts = [r["center"].pop("lift0") for r in results]
        assert lifts == [["1", "0+1*sqrt(2)", "0+1*sqrt(8)", "0", "0"],
                         ["1", "0+1*sqrt(2)", "0+2*sqrt(2)", "0", "0"]]
        assert results[0] == results[1]
        assert results[0]["center"]["point"] == ["1", "2", "0", "0"]

    def test_square_radicand_lift_is_rational(self, tmp_path, capsys):
        # -2 + sqrt(4) = 0: the lift is the rational quadric point
        # [1, 0, 0, 1, 0], and is echoed as such
        results = []
        for i, x1 in enumerate(["-2+1*sqrt(4)", "0"]):
            path = tmp_path / f"curve{i}.json"
            path.write_text(json.dumps({"family": {"name": "unknot"},
                                        "center": {"lift": ["1", x1, "0", "1", "0"]}}))
            code, out = run(["invariants", "--curve", str(path)], capsys)
            assert code == 0
            results.append(json.loads(out)["result"])
        assert results[0] == results[1]
        assert results[0]["Cw"] == 0
        assert results[0]["center"]["lift0"] == ["1", "0", "0", "1", "0"]


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = ["invariants", "--curve", str(DATA / "unknot.json"), "--seed", "11", "--json"]
        _, out1 = run(argv, capsys)
        _, out2 = run(argv, capsys)
        assert out1 == out2

    def test_sweep_deterministic(self, capsys):
        argv = ["sweep", "--family", "kae", "--epsilon", "-1", "--grid=-1:1:1/2", "--seed", "2"]
        c1, out1 = run(argv, capsys)
        c2, out2 = run(argv, capsys)
        assert c1 == c2 == 0 and out1 == out2


class TestRootRounds:
    @pytest.mark.parametrize("name, flags", [
        *(pytest.param(name, ["--seed", seed], id=f"{name}-{seed}")
          for name in ("unknot", "lp_line", "hopf_pair", "kae_half_minus") for seed in "01"),
        pytest.param("trefoil", ["--seed", "0", "--centers", "1"], id="trefoil-0"),
    ])
    def test_fixtures_certify_in_the_first_round(self, name, flags, capsys, monkeypatch):
        # every squarefree factor is certified from numpy's roots in the
        # first precision round; a radius bound too loose for that would
        # move the work into the slow mpmath rounds
        def escalated(zx, prec):
            raise AssertionError(f"precision round escalated on a degree-{len(zx) - 1} factor")

        monkeypatch.setattr(roots, "_mp_initial_roots", escalated)
        code, _ = run(["invariants", "--curve", str(DATA / f"{name}.json"), *flags], capsys)
        assert code == 0


class TestGoldenBytes:
    """Canonical report bytes pinned by sha256, so a kernel rewrite that
    changes any number, ordering or formatting is caught.  Curve paths
    are relative to the repository root because the report echoes them."""

    CASES = [
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/unknot.json", "--seed", "0"],
            "7adf8903b4b59ab8996a546ab30af5c3ed2df638c1f07d054cfbf59dbd1e6f4d",
            id="unknot",
        ),
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/lp_line.json", "--seed", "0"],
            "6784942842cc83990aa826ab08064d24aed48641b5c9163dc4b07592ef9be774",
            id="lp_line",
        ),
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/hopf_pair.json", "--seed", "0"],
            "8356f71bcac5dafe7d7ed35e40dd953bfe9f7c23248aa8c482a3f2f84fb8bc5f",
            id="hopf_pair",
        ),
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/kae_half_minus.json", "--seed", "0"],
            "e8b537421b14450e0ae34f1be46eddf08b074a6b6779b63016976bf51f64aa58",
            id="kae_half_minus",
        ),
        # the longest crossing sort, over four centers
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/trefoil.json", "--seed", "1",
             "--centers", "4"],
            "2479601cefd98e3dda39fa429a1f91b4e583bb94e27a0fba3bd70c32cbe96620",
            id="trefoil_centers4",
        ),
        # solitary pairs of a swap-mode system
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/kae_half_minus.json", "--seed", "1"],
            "8b4b989e1c61acd933b6775b489582cf500d314e2e9291daf2b9e9a7f9b5c754",
            id="kae_half_minus_seed1",
        ),
        # shade points of a conj-mode system
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/lp_line.json", "--seed", "1"],
            "8849f2e43faa3569e29f09593e56c405d7e9191bed30143b68a492eb40eb60af",
            id="lp_line_seed1",
        ),
        # a crossing at z = -1 whose imaginary part is a signed round-off
        # zero: it prints as 0.0 whatever the sign
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/hopf_pair.json", "--seed", "8"],
            "cb9602d88075fe61f54010eb7b6441ff0d7801eea8ee971aefa63716ff350f91",
            id="hopf_pair_seed8",
        ),
        # crossings over the lines' parameters 0 and infinity, which the
        # polish leaves at round-off distance: they print as 0.0 and inf
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/hopf_pair.json", "--seed", "16"],
            "1d69b477c9abc6017d0b89e21b14337f726f7309dd07a7e9f4d6b2f0819238ef",
            id="hopf_pair_seed16",
        ),
        pytest.param(
            ["sweep", "--family", "kae", "--epsilon", "-1", "--grid=-1:1:1/4", "--seed", "0"],
            "afbf89a8deb69403821f30d9f7e671af528cae2f01bb6b13b0585e15ed57d5f7",
            id="sweep_kae",
        ),
        pytest.param(
            ["sweep", "--family", "range", "--d", "3", "--K", "10000", "--grid=-1:1:1/2",
             "--seed", "0"],
            "6e30c454ba625cef1d6993b70f8377c1bd9077b10cfaaa50fd820f2aaa9b172c",
            id="sweep_range",
        ),
        # K too small: every sample reports the failed isolation of P or
        # of Q_t, and the sweep still exits 0
        pytest.param(
            ["sweep", "--family", "range", "--d", "3", "--K", "1", "--grid=-1:1:1"],
            "97ad94a2b561f1fdd4b7d278409b6f7b8cee71aca5c2dcb5f52f58d32e0869c2",
            id="sweep_range_small_K_P",
        ),
        pytest.param(
            ["sweep", "--family", "range", "--d", "3", "--K", "10", "--grid=-1:1:1"],
            "95f10d383c346b6820afb318aa77ff9595e2ece282b6134a04e71d5800bd3b47",
            id="sweep_range_small_K_Q",
        ),
        # the middle sample -751/500 is exactly the d = 1 wall
        pytest.param(
            ["sweep", "--family", "range", "--d", "1", "--K", "1000",
             "--grid=-1503/1000:-1501/1000:1/1000"],
            "3457df731065fc4a65a56aceef6c293dde669a823defac8d90b5e21a81fd1787",
            id="sweep_range_exact_wall",
        ),
        # d = 5 at the default K = 10^7: exact signs at every sample, where
        # a float frame of the same shade points falls below CERT_MARGIN
        pytest.param(
            ["sweep", "--family", "range", "--d", "5", "--grid=-10:10:1/10"],
            "a407b6335fb2c4c1769eba186f1c2b67b5212f5f6a7f37b140ea938d0f598e41",
            id="sweep_range_d5",
        ),
        # d = 6 with no --K: 10^8 isolates too few roots of Q_0 = 1, so
        # the sweep runs at K = 10^9
        pytest.param(
            ["sweep", "--family", "range", "--d", "6", "--grid=-10:10:1/10"],
            "f75d36e932253387f23fa8dd2b9087ab81d4306538f882c77e1f6b735142100e",
            id="sweep_range_d6",
        ),
    ]

    @pytest.mark.parametrize("argv,digest", CASES)
    def test_report_digest(self, argv, digest, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        code, out = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == digest

    def test_trefoil_render_digest(self, tmp_path, capsys, monkeypatch):
        # the sphere trefoil drawn through its file's center
        monkeypatch.chdir(tmp_path)
        code, out = run(["render", "--curve", str(DATA / "trefoil.json"), "--out", "d.svg"],
                        capsys)
        assert (code, out) == (0, b"wrote d.svg\n")
        assert hashlib.sha256((tmp_path / "d.svg").read_bytes()).hexdigest() == (
            "51227be91049e923c904d44f6f3adb18262dca234a019e0d61bff75bb9299bf6")

    @pytest.mark.parametrize("name,kind", [("k0_plus", "complex-conjugate"),
                                           ("k0_minus", "real-real")])
    def test_double_point_kind(self, name, kind, capsys):
        # the kind comes from the certified conjugate map and realness flags
        code, out = run(["invariants", "--curve", str(DATA / f"{name}.json")], capsys)
        assert code == 3
        assert out == b""
        assert capsys.readouterr().err == (
            f"precondition violation: curve has 1 double point(s) ({kind}); "
            "invariants need a smooth embedding\n"
        )

    SVG_CASES = [
        pytest.param(
            "unknot",
            "f57ab84bbaeb3022d323add9768d0577a60d8a272565dd38fb129c5d89fd91b2",
            "307a0ed02059fbfc522ffcaeffddce5592b779b591da41fd803042f2532150e9",
            id="unknot",
        ),
        pytest.param(
            "hopf_pair",
            "e1e1ae4c9d19bd6adf61b1970c6e41c276a7cfd6b91571d85c63035d002d61dc",
            "d56a2ff7bc18f0fa71a02b9bc03b9f9191e12eea2a3917f6eadcb67bde5678e4",
            id="hopf_pair",
        ),
        pytest.param(
            "lp_line",
            "748d8b0cf19dc00974df33164fd9e1f588147955b18fb2428f5bbec938999c7b",
            "a1f1c1782d0e7ce04558652eef343a6fb54397ce77a0d0ab2d08a446e1c94c18",
            id="lp_line",
        ),
    ]

    @pytest.mark.parametrize("name,report_digest,svg_digest", SVG_CASES)
    def test_svg_digest(self, name, report_digest, svg_digest, tmp_path, capsys, monkeypatch):
        # the report echoes both paths, so run from a directory that mirrors
        # the repository layout and write the SVG next to it
        data = tmp_path / "src" / "shadecalc" / "data"
        data.mkdir(parents=True)
        shutil.copy(DATA / f"{name}.json", data)
        monkeypatch.chdir(tmp_path)
        code, out = run(
            ["invariants", "--curve", f"src/shadecalc/data/{name}.json", "--seed", "0",
             "--svg", "diagram.svg"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == report_digest
        svg = (tmp_path / "diagram.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == svg_digest


class TestCommands:
    def test_chord_between_parameter_one_and_infinity(self, capsys):
        # the first kae(1/2, -1) center at seed 0 sees the one real crossing
        # on the chord from parameter 1 to infinity, whose endpoints share
        # no affine chart; the chart-free sign accepts that center
        reports = []
        for centers in ("1", "3"):
            code, out = run(["invariants", "--curve", str(DATA / "kae_half_minus.json"),
                             "--seed", "0", "--centers", centers], capsys)
            assert code == 0
            reports.append(json.loads(out)["result"])
        for r in reports:
            assert r["Cw"] == 1
            assert r["center"]["attempt"] == 0
            assert r["center"]["point"] == ["1", "0", "-2", "1/2"]
            (c,) = r["crossings"]
            assert (c["kind"], c["z"], c["w"], c["writhe"]) == ("real-real", [1.0, 0.0], "inf", 1)
        assert reports[1]["centers_checked"] == 3

    def test_complex_chord_pairs_count_pairs_across_components(self, tmp_path, capsys):
        # the cross system of these two real conics has one conjugate pair
        # of non-real chords at seed 0; it counted as 2 when a cross system
        # added chords and a same-component system added pairs
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"components": [
            {"coords": [["1", "0", "1"], ["0", "2", "0"], ["1", "0", "-1"], ["0", "0", "0"]]},
            {"coords": [["3", "0", "3"], ["0", "-3", "-1"], ["1", "0", "0"], ["3", "3", "-1"]]},
        ]}))
        code, out = run(["invariants", "--curve", str(path), "--seed", "0"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["complex_chord_pairs"] == 1

    def test_reported_lift_parses_back(self, capsys):
        # the center lift of a file is reported in the file's own scalar
        # syntax, so it reads back to the same exact lift
        from shadecalc.scalars import parse_scalar

        code, out = run(["invariants", "--curve", str(DATA / "trefoil.json"), "--seed", "1"],
                        capsys)
        assert code == 0
        lift = json.loads(out)["result"]["center"]["lift0"]
        want = json.loads((DATA / "trefoil.json").read_text())["center"]["lift"]
        assert [parse_scalar(c) for c in lift] == [parse_scalar(c) for c in want]

    def test_reported_tolerances_are_the_engine_constants(self, capsys):
        from shadecalc.chords import ACCEPT_TOL
        from shadecalc.projective import CERT_MARGIN, REALNESS_TOL
        from shadecalc.roots import DEFAULT_TARGET_RADIUS

        code, out = run(["invariants", "--curve", str(DATA / "unknot.json")], capsys)
        assert code == 0
        assert json.loads(out)["result"]["tolerances"] == {
            "certification_margin": CERT_MARGIN,
            "realness": REALNESS_TOL,
            "root_residual": DEFAULT_TARGET_RADIUS,
            "system_residual": ACCEPT_TOL,
        }
        assert cli.build_parser().parse_args(["invariants", "--curve", "c"]).tol == DEFAULT_TARGET_RADIUS

    @pytest.mark.parametrize("tol, shown", [("1e-8", b"1e-08"), ("1e-30", b"1e-14"),
                                            ("1e-3", b"1e-06")])
    def test_reported_root_residual_is_the_radius_used(self, tol, shown, capsys):
        # --tol is clamped to [1e-14, 1e-6] before it reaches the engine
        code, out = run(["invariants", "--curve", str(DATA / "unknot.json"), "--tol", tol],
                        capsys)
        assert code == 0
        assert b'"root_residual":' + shown + b"," in out

    @pytest.mark.parametrize("curve, hyperplane", [
        # the first index of largest |c_m|: 2 at index 3
        ({**json.loads((DATA / "lp_line.json").read_text()),
          "center": {"point": ["1", "1/3", "-2/5", "2"]}}, 3),
        # the lift [1, 0, sqrt(2), 0, 0] projects to [0, 1, 0, 0]
        (json.loads((DATA / "trefoil.json").read_text()), 1),
    ], ids=["p3-point", "trefoil-lift"])
    def test_reported_hyperplane_is_the_largest_center_coordinate(self, curve, hyperplane,
                                                                  tmp_path, capsys):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(curve))
        code, out = run(["invariants", "--curve", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["result"]["center"]["hyperplane"] == hyperplane

    def test_sweep_kae_payload(self, capsys):
        code, out = run(
            ["sweep", "--family", "kae", "--epsilon", "-1", "--grid=-1:1:1/4", "--seed", "2"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        jumps = obj["result"]["jumps"]
        assert len(jumps) == 1 and abs(int(jumps[0]["delta"])) == 2
        assert obj["result"]["singular"][4] is True

    def test_render(self, tmp_path, capsys):
        out_file = tmp_path / "unknot.svg"
        code, _ = run(
            ["render", "--curve", str(DATA / "unknot.json"), "--seed", "1", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        svg = out_file.read_text()
        assert svg.startswith("<?xml") and "</svg>" in svg

    def test_render_refuses_what_invariants_refuses(self, tmp_path, capsys):
        # render draws the projection of the invariant call, so a curve
        # with a double point exits 3 with the same message, not 2 after
        # trying every center
        curve = str(DATA / "k0_plus.json")
        outcomes = []
        for argv in (["invariants", "--curve", curve],
                     ["render", "--curve", curve, "--out", str(tmp_path / "d.svg")]):
            code, out = run(argv, capsys)
            outcomes.append((code, out, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 3 and "double point" in outcomes[0][2]
        assert not (tmp_path / "d.svg").exists()

    def test_validate(self, capsys):
        code, out = run(["validate", "--curve", str(DATA / "trefoil.json")], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["result"]["valid"] is True

    def test_invariants_with_svg(self, tmp_path, capsys):
        svg = tmp_path / "d.svg"
        code, out = run(
            [
                "invariants", "--curve", str(DATA / "kae_half_minus.json"),
                "--seed", "4", "--svg", str(svg),
            ],
            capsys,
        )
        assert code == 0
        assert svg.exists()


class TestInvariantsSvg:
    """--svg draws the projection that the report describes."""

    @staticmethod
    def spy(monkeypatch):
        projections, rendered = [], []
        select_center, render = invariants.select_center, cli.render_diagram_svg

        def select_spy(*args, **kwargs):
            data = select_center(*args, **kwargs)
            projections.append((kwargs, data))
            return data

        def render_spy(model, data):
            rendered.append(data)
            return render(model, data)

        monkeypatch.setattr(invariants, "select_center", select_spy)
        monkeypatch.setattr(cli, "render_diagram_svg", render_spy)
        return projections, rendered

    def test_one_projection_per_center(self, tmp_path, capsys, monkeypatch):
        projections, rendered = self.spy(monkeypatch)
        code, _ = run(
            ["invariants", "--curve", str(DATA / "hopf_pair.json"), "--seed", "0",
             "--centers", "2", "--svg", str(tmp_path / "d.svg")],
            capsys,
        )
        assert code == 0
        assert len(projections) == 2
        assert len(rendered) == 1 and rendered[0] is projections[0][1]

    def test_tol_reaches_svg_projection(self, tmp_path, capsys, monkeypatch):
        projections, rendered = self.spy(monkeypatch)
        code, _ = run(
            ["invariants", "--curve", str(DATA / "unknot.json"), "--tol", "1e-9",
             "--svg", str(tmp_path / "d.svg")],
            capsys,
        )
        assert code == 0
        assert [kwargs["tol"] for kwargs, _ in projections] == [1e-9]
        assert rendered[0] is projections[0][1]

    def test_render_draws_the_invariant_projection(self, tmp_path, capsys, monkeypatch):
        projections, rendered = self.spy(monkeypatch)
        code, _ = run(
            ["render", "--curve", str(DATA / "hopf_pair.json"), "--out", str(tmp_path / "d.svg")],
            capsys,
        )
        assert code == 0
        assert len(projections) == 1
        assert len(rendered) == 1 and rendered[0] is projections[0][1]

    def test_shade_mode_uses_file_center(self, tmp_path, capsys):
        point = ["1", "1/3", "-2/5", "2"]
        obj = json.loads((DATA / "lp_line.json").read_text())
        obj["center"] = {"point": point}
        curve = tmp_path / "lp_line_center.json"
        curve.write_text(json.dumps(obj))
        code, out = run(
            ["invariants", "--curve", str(curve), "--svg", str(tmp_path / "d.svg")], capsys
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["mode"] == "shade"
        assert result["center"]["point"] == point
