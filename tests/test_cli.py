"""Exit-code contract and byte determinism of the command line."""

import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

from shadecalc import cli, invariants
from shadecalc.cli import main

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

    @pytest.mark.parametrize("centers", ["0", "-2"])
    def test_centers_below_one_exit_1(self, centers, capsys):
        code, out = run(
            ["invariants", "--curve", str(DATA / "unknot.json"), "--centers", centers], capsys
        )
        assert code == 1
        assert out == b""
        assert "error: --centers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("K", ["abc", "1/0"])
    def test_bad_K_exit_1(self, K, capsys):
        code, out = run(
            ["sweep", "--family", "range", "--d", "2", "--K", K, "--grid=0:1:1/2"], capsys
        )
        assert code == 1
        assert out == b""
        assert "error: bad --K value" in capsys.readouterr().err

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

    def test_lp_line_shade_branch(self, capsys):
        code, out = run(
            ["invariants", "--curve", str(DATA / "lp_line.json"), "--seed", "3"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["result"]["Cw"] is None
        assert obj["result"]["sh_part"] in ("1/2", "-1/2")
        assert obj["result"]["mode"] == "shade"


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
            "0f6498a9a95695b65ff6188df3c1d71df9ca831735217caeb360f2c528b60322",
            id="lp_line",
        ),
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/hopf_pair.json", "--seed", "0"],
            "6a7695833532b51550b6f3539279bbd765fdfe65c03e5d8e8711f74000edf5af",
            id="hopf_pair",
        ),
        pytest.param(
            ["invariants", "--curve", "src/shadecalc/data/kae_half_minus.json", "--seed", "0"],
            "cd2baa1397b60f64c67d51acef792073cf85ad9d10aeede7e0360e7ad87138da",
            id="kae_half_minus",
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
    ]

    @pytest.mark.parametrize("argv,digest", CASES)
    def test_report_digest(self, argv, digest, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        code, out = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == digest

    SVG_CASES = [
        pytest.param(
            "unknot",
            "f57ab84bbaeb3022d323add9768d0577a60d8a272565dd38fb129c5d89fd91b2",
            "307a0ed02059fbfc522ffcaeffddce5592b779b591da41fd803042f2532150e9",
            id="unknot",
        ),
        pytest.param(
            "hopf_pair",
            "4853962345d6d01af6a016f17aa6601fcde8dc1f2e1c96424f152f24e549d280",
            "d56a2ff7bc18f0fa71a02b9bc03b9f9191e12eea2a3917f6eadcb67bde5678e4",
            id="hopf_pair",
        ),
        pytest.param(
            "lp_line",
            "d1527d431d8289211d6a4809ccfd250ad68c8600208d6536c3cc1b61627aea23",
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
        monkeypatch.setattr(cli, "select_center", select_spy)
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
