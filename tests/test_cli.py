"""Exit-code contract and byte determinism of the command line."""

import argparse
import copy
import hashlib
import io
import json
import shutil
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shadecalc import cli, diagram, invariants, roots
from shadecalc.cli import main
from shadecalc.curves import kae_curve, trefoil_curve, unknot_curve
from shadecalc.errors import CurveFileError
from shadecalc.reportio import model_to_json
from shadecalc.scalars import QQ, GaussianRational, parse_scalar

from helpers import image_twin, reparameterized

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "shadecalc" / "data"


KAE = {"name": "kae", "a": "1/2", "eps": -1}

# curve files that `invariants` must reject with exit code 1, each with
# its message; tests/cli_panel.py runs them too
MALFORMED_CURVES = [
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
    # a non-real center coordinate or family parameter, and zeros
    # written as Gaussian or sqrt forms
    ({"family": KAE, "center": {"point": ["1", "1 i", "0", "0"]}},
     "P3 centers must have rational coordinates"),
    ({"family": {"name": "unknot"}, "center": {"lift": ["1", "1 i", "0", "0", "0"]}},
     "center coordinates must be real"),
    ({"family": {**KAE, "a": "1/2+1 i"}}, "bad parameter a"),
    ({"family": KAE, "center": {"point": ["0", "0 i", "-2+1*sqrt(4)", "0"]}},
     "point coordinates are all zero"),
]


# argv that `cli.parse_args` must parse exactly as the whole parser
# does: help, flag errors and namespaces; tests/cli_panel.py runs them too
PARSER_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["bogus"],
    ["bogus", "--curve", "c"],
    ["--curve", "c", "invariants"],
    *([name, flag] for name in ("invariants", "sweep", "render", "validate")
      for flag in ("-h", "--help", "--he")),
    ["invariants"],
    ["validate", "--json"],
    ["render", "--curve", "c"],
    ["sweep", "--family", "kae"],
    ["invariants", "--curve", "c", "--seed", "x"],
    ["invariants", "--curve", "c", "--seed", "-3"],
    ["invariants", "--curve", "c", "--centers", "2.5"],
    ["sweep", "--family", "foo", "--grid", "0:1:1"],
    ["sweep", "--family", "kae", "--epsilon", "2", "--grid", "0:1:1"],
    ["sweep", "--family", "kae", "--epsilon=-1", "--grid", "-1:1:1/8"],
    ["sweep", "--family", "kae", "--epsilon", "-1", "--grid=-1:1:1/8", "--text"],
    ["sweep", "--family", "range", "--d", "3", "--K", "10000", "--grid=-10:10:1/10"],
    ["validate", "--curve", "c", "--json", "--text"],
    ["invariants", "--curve", "c", "--bogus"],
    ["invariants", "--curve", "c", "extra"],
    ["render", "--curve", "c", "--out", "o.svg", "extra", "--seed", "1"],
    ["invariants", "--curve", "c", "--"],
    ["invariants", "--", "--curve", "c"],
    ["invariants", "--cur", "c"],
    ["invariants", "--c", "c"],
    ["validate", "--cur=c", "--te"],
    ["invariants", "--curve", "c", "--tol", "1e-9"],
    ["invariants", "--curve", "c", "--tol", "nan"],
    ["invariants", "--curve", "c", "--tol", "abc"],
    ["invariants", "--curve", "c", "--svg", "d.svg", "--centers", "3", "--text"],
    ["render", "--out", "o.svg", "--curve", "c", "--seed", "2"],
]


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

    @pytest.mark.parametrize("name,seed", [("k0_plus", 27), ("k0_minus", 21), ("k0_minus", 27)])
    def test_singular_fixture_exit_3_at_seeds_that_once_missed(self, name, seed, capsys):
        # these seeds, with k0_plus at 21 above, once passed the smoothness
        # check and printed a number
        code, out = run(["invariants", "--curve", str(DATA / f"{name}.json"), "--seed",
                         str(seed)], capsys)
        assert (code, out) == (3, b"")

    def test_missing_file_exit_1(self, capsys):
        code, _ = run(["invariants", "--curve", "/nonexistent.json"], capsys)
        assert code == 1

    @pytest.mark.parametrize("command", ["invariants", "render"])
    def test_unwritable_output_exit_1(self, command, tmp_path, capsys):
        # no report and no traceback: the message names the path, as
        # "cannot read" does for the curve file
        path = tmp_path / "missing" / "d.svg"
        flag = "--svg" if command == "invariants" else "--out"
        code, out = run([command, "--curve", str(DATA / "unknot.json"), flag, str(path)], capsys)
        assert (code, out) == (1, b"")
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert not path.exists()

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

    @settings(max_examples=200, deadline=None)
    @given(st.builds(QQ, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
           st.builds(QQ, st.integers(1, 10**5), st.integers(1, 10**4)),
           st.integers(0, 300), st.booleans())
    def test_parsed_grid_is_the_fraction_list(self, a, step, n, decimals):
        # a:b:step with b anywhere in [a + n step, a + (n + 1) step), written
        # as fractions or, where exact, as decimals
        def written(x):
            text = str(Decimal(x.numerator) / x.denominator)
            return text if decimals and QQ(text) == x else str(x)

        b = a + n * step + step * QQ(n % 3, 3)
        spec = ":".join(map(written, (a, b, step)))
        grid = cli._parse_grid(spec)
        want = [a + k * step for k in range(n + 1)]
        assert grid == want
        assert [grid[k] for k in range(len(grid))] == want
        assert grid.strings() == [str(t) for t in want]

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
        samples = invariants._range_samples

        def flipped(iso, grid):
            results, reached = samples(iso, grid)
            return [(-v, s, e) if t == 3 else (v, s, e)
                    for t, (v, s, e) in zip(grid, results)], reached

        monkeypatch.setattr(invariants, "_range_samples", flipped)
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

    @pytest.mark.parametrize("name", ["unknot", "trefoil", "kae"])
    @pytest.mark.parametrize("swap", [False, True], ids=["exact", "swapped"])
    def test_shared_image_exit_3(self, name, swap, tmp_path, capsys, monkeypatch):
        # a curve plus a copy of its component: saturation divides their
        # shared image out of the cross record, so no chord solution could
        # show it, and the lost factor rejects the curve before any solve
        def forbidden(*args, **kwargs):
            raise AssertionError("a chord system was solved for a shared image")

        monkeypatch.setattr(diagram, "solve_minor_system", forbidden)
        make = {"unknot": unknot_curve, "trefoil": trefoil_curve,
                "kae": lambda: kae_curve(QQ(1, 2), -1)}[name]
        path = tmp_path / "twin.json"
        path.write_text(json.dumps(model_to_json(image_twin(make(), swap))))
        code, out = run(["invariants", "--curve", str(path)], capsys)
        assert (code, out) == (3, b"")
        assert capsys.readouterr().err == (
            "precondition violation: components 0 and 1 share a curve of double points; "
            "invariants need a smooth embedding\n"
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

    @pytest.mark.parametrize("lift", [
        ["1", "0", "4/5", "3/5", "0"],  # on the north circle: exit 2 at the center check
        ["1", "0", "0", "0", "1"],
        ["1", "1", "0", "0", "0"],  # exit 2 at a positive-dimensional chord system
    ])
    def test_deck_double_points_forced_center_exit_3(self, lift, tmp_path, capsys, monkeypatch):
        # the deck graph's double points are known before the center is used
        def forbidden(*args, **kwargs):
            raise AssertionError("a center was projected")

        monkeypatch.setattr(diagram, "project_curve", forbidden)
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"family": {"name": "split_circles"},
                                    "center": {"lift": lift}}))
        code, out = run(["invariants", "--curve", str(path)], capsys)
        assert (code, out) == (3, b"")
        assert capsys.readouterr().err == (
            "precondition violation: curve has 2 double point(s) on its deck graph (complex); "
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

    # (a, b, c, e): the parameter map (s, t) -> (a s + b t, c s + e t)
    NON_REAL_MAPS = [
        pytest.param(1, GaussianRational(0, 1), GaussianRational(0, 1), 1, id="s+it,is+t"),
        pytest.param(2, GaussianRational(1, 1), 1, 3, id="2s+(1+i)t,s+3t"),
    ]

    @pytest.mark.parametrize("a, b, c, e", NON_REAL_MAPS)
    @pytest.mark.parametrize("name", ["unknot", "trefoil", "kae_half_minus", "lp_line"])
    def test_curve_in_a_non_real_parameter(self, name, a, b, c, e, tmp_path, capsys):
        # a real curve written in a non-real parameter is its own conjugate
        # up to a reparameterization; its record against its conjugate lost
        # that map's graph, and with it the real points, so the shade path
        # once reported sh_part 0 with exit 0.  lp_line has no real point
        # and keeps its shade number
        model, _ = cli._load(DATA / f"{name}.json")
        curve = reparameterized(model, a, b, c, e)
        assert not curve.components[0].is_real()
        path = tmp_path / "reparameterized.json"
        path.write_text(json.dumps(model_to_json(curve)))
        code, out = run(["invariants", "--curve", str(path)], capsys)
        if name == "lp_line":
            assert code == 0
            result = json.loads(out)["result"]
            assert (result["mode"], result["sh_part"]) == ("shade", "1/2")
            return
        assert (code, out) == (3, b"")
        label = curve.components[0].label or 0
        assert capsys.readouterr().err == (
            f"precondition violation: component {label} is its own conjugate up to a "
            "reparameterization (saturation removed a factor of bidegree (1, 1) from its "
            "record against its conjugate), so its real locus cannot be certified empty\n"
        )

    @pytest.mark.parametrize("a, b", [(0, 1), (1, 2)], ids=["i", "1+2i"])
    @pytest.mark.parametrize("name", ["unknot", "kae_half_minus", "trefoil", "lp_line"])
    def test_curve_file_times_a_gaussian_scalar(self, name, a, b, tmp_path, capsys):
        # every coefficient times a + b i: the same curve, so a real curve
        # keeps its Cw and lp_line its shade number
        obj = json.loads((DATA / f"{name}.json").read_text())
        for comp in obj["components"]:
            comp["coords"] = [
                [str(GaussianRational(a * v.re - b * v.im, a * v.im + b * v.re))
                 for v in map(parse_scalar, row)]
                for row in comp["coords"]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(obj))
        results = []
        for curve in (DATA / f"{name}.json", path):
            code, out = run(["invariants", "--curve", str(curve)], capsys)
            assert code == 0
            results.append(json.loads(out)["result"])
        want, got = ({k: r[k] for k in ("mode", "Cw", "sh_part")} for r in results)
        assert got == want
        assert (want["Cw"] is None) == (name == "lp_line")

    @pytest.mark.parametrize("curve, message", MALFORMED_CURVES)
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


class TestParser:
    @staticmethod
    def _parsed(parse, argv, capsys):
        try:
            # values by repr, so that --tol nan compares equal
            result = {k: repr(v) for k, v in vars(parse(argv)).items()}
        except SystemExit as e:
            result = ("exit", e.code)
        return result, capsys.readouterr()

    @pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
    def test_parses_as_the_whole_parser(self, argv, capsys):
        # the same namespace, or the same exit code, stdout and stderr
        assert (self._parsed(cli.parse_args, argv, capsys)
                == self._parsed(cli.build_parser().parse_args, argv, capsys))

    def test_a_subcommand_call_builds_only_its_parser(self, monkeypatch):
        def whole():
            raise AssertionError("the whole parser was built")

        cli._subparser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", whole)
        args = cli.parse_args(["validate", "--curve", "c", "--text"])
        assert vars(args) == {"curve": "c", "fmt": "text", "command": "validate"}

    def test_each_subcommand_parser_built_once(self, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        cli._subparser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        argvs = [["invariants", "--curve", "c", "--seed", "2"],
                 ["sweep", "--family", "kae", "--epsilon", "1", "--grid", "0:1:1"],
                 ["render", "--curve", "c", "--out", "o"],
                 ["validate", "--curve", "c", "--text"]]
        for k in range(20):
            assert cli.parse_args(argvs[k % 4]).command == argvs[k % 4][0]
        assert sorted(built) == [f"shadecalc {name}" for name in sorted(cli.SUBCOMMANDS)]

    def test_a_flag_error_leaves_the_parser_clean(self, capsys):
        # the cached parser keeps nothing from a call that exits on a bad value
        code, _ = run(["invariants", "--curve", "c", "--seed", "x"], capsys)
        assert code == 1
        assert "invalid int value: 'x'" in capsys.readouterr().err
        args = cli.parse_args(["invariants", "--curve", "d", "--centers", "2"])
        assert vars(args) == {"curve": "d", "seed": 0, "centers": 2, "svg": None, "fmt": "json",
                              "tol": roots.DEFAULT_TARGET_RADIUS, "command": "invariants"}

    def test_each_call_gets_its_own_namespace(self):
        argv = ["render", "--curve", "c", "--out", "o.svg"]
        first, second = cli.parse_args(argv), cli.parse_args(argv)
        assert first is not second and vars(first) == vars(second)


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
        # the benchmark's range_sweep grid (workload seed 0: offset 39/10000)
        pytest.param(
            ["sweep", "--family", "range", "--d", "3", "--K", "10000",
             "--grid=-99961/10000:100039/10000:1/10"],
            "34ed3d09c7dbdaef7af54121b5b15d35f2b6d94837dd676430d6d963ea245ddb",
            id="sweep_range_benchmark_grid",
        ),
        # through the one d = 1 wall [lo, hi] in steps of half its width,
        # from two steps below lo to two above hi: three samples inside it
        pytest.param(
            ["sweep", "--family", "range", "--d", "1", "--K", "1000",
             "--grid=-511104115115249572121988661187149574439/340282366920938463463374607431768211456"
             ":-511104115115249572121988659537882132775/340282366920938463463374607431768211456"
             ":1/1237940039285380274899124224"],
            "fe2414ee24ff6bfbf44550964c1663440a9bd2e620a32747f37d2c8707c15e16",
            id="sweep_range_d1_through_the_wall",
        ),
        # K = 1 isolates no walls: the exact singular test on every sample
        pytest.param(
            ["sweep", "--family", "range", "--d", "3", "--K", "1", "--grid=-2:2:1"],
            "3f0a9c25cad29023327fbe70fad541c3fe715806a8b0aae2666b550d14b44e73",
            id="sweep_range_unisolated",
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

    # `render` at seeds 1 and 2: the trefoil file names its center, so
    # its seeds draw the same bytes
    RENDER_CASES = [
        ("hopf_pair", 1, "fe94bfd99b03e0f79430dc90ba576e3546408526090eab6eaa2d42fe9a1c7530"),
        ("hopf_pair", 2, "3cbbb042209a5db40c3a511e5a485675ae62a70ba3f4bd2b6e041396d50c5e7a"),
        ("unknot", 1, "c8112d1f994e729e4ef2b08d44c3d5d634be69764c4335be80317aa6bd467b41"),
        ("unknot", 2, "863f3bffc47b85b973abcf9bfc0bce765049dc657c3906eb9f0278662a2d15a9"),
        ("kae_half_minus", 1, "da49fe3a1f84847cb271c5b0c2c83447cfe5964319458ad23ccd6ed415fd1ece"),
        ("kae_half_minus", 2, "0815700c7a0648f037d9e28420b5cf7b9789de1c6db46199074609777fb1d45e"),
        ("trefoil", 1, "51227be91049e923c904d44f6f3adb18262dca234a019e0d61bff75bb9299bf6"),
        ("trefoil", 2, "51227be91049e923c904d44f6f3adb18262dca234a019e0d61bff75bb9299bf6"),
    ]

    @pytest.mark.parametrize("name,seed,digest", RENDER_CASES)
    def test_render_digest(self, name, seed, digest, tmp_path, capsys):
        out = tmp_path / "d.svg"
        code, _ = run(["render", "--curve", str(DATA / f"{name}.json"), "--seed", str(seed),
                       "--out", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
        pytest.param(
            "kae_half_minus",
            "c6eb6d199e0343257875b2bb11ed226ea95e9f97e0f91f8e5d47e58dfe65ddbb",
            "2285eb025edabf143e4b44e5c88406d6e4ad2812b8eac4b5ccc2c401f90ff849",
            id="kae_half_minus",
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

    @pytest.mark.parametrize("eps", ["-1", "1"])
    @pytest.mark.parametrize("seed", ["13", "19", "40"])
    def test_sweep_kae_flags_a0_at_seeds_that_once_missed(self, seed, eps, capsys):
        # at these seeds the smoothness check once missed the double point
        # of the a = 0 member and reported a value there
        code, out = run(["sweep", "--family", "kae", "--epsilon", eps, "--grid=-1:1:1/8",
                         "--seed", seed], capsys)
        assert code == 0
        r = json.loads(out)["result"]
        assert r["values"] == ["-1"] * 8 + [None] + ["1"] * 8
        assert r["singular"] == [False] * 8 + [True] + [False] * 8
        assert [e is not None for e in r["errors"]] == r["singular"]
        assert r["jumps"] == [{"from": "-1/8", "to": "1/8", "delta": "2"}]

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

    def test_validate_leaves_the_cached_report_alone(self, tmp_path, capsys, monkeypatch):
        loaded, load = [], cli._load
        monkeypatch.setattr(cli, "_load", lambda path: loaded.append(load(path)) or loaded[-1])
        path = tmp_path / "centered.json"
        path.write_text(json.dumps({"family": {"name": "unknot"},
                                    "center": {"lift": ["1", "0", "0", "1", "0"]}}))
        code, out = run(["validate", "--curve", str(path)], capsys)
        assert code == 0 and json.loads(out)["result"]["forced_center"] is True
        model, _ = loaded[0]
        assert "forced_center" not in model._validation_report()
        assert model.validate() == unknot_curve().validate()

    def test_fixture_mix_job_copies_no_report(self, tmp_path, capsys, monkeypatch):
        # the 15 calls of one perfbench fixture_mix job
        fixtures = ["hopf_pair", "k0_minus", "k0_plus", "kae_half_minus", "lp_line",
                    "split_circles", "trefoil", "unknot"]
        argvs = [["validate", "--curve", str(DATA / f"{f}.json")] for f in fixtures]
        argvs += [["invariants", "--curve", str(DATA / f"{f}.json"), "--seed", "1",
                   "--svg", str(tmp_path / "d.svg")]
                  for f in ("unknot", "lp_line", "hopf_pair", "kae_half_minus")]
        argvs += [["invariants", "--curve", str(DATA / f"{f}.json")]
                  for f in ("split_circles", "k0_plus", "k0_minus")]
        copies, deepcopy = [], copy.deepcopy
        monkeypatch.setattr(copy, "deepcopy", lambda *args: copies.append(1) or deepcopy(*args))
        codes = [run(argv, capsys)[0] for argv in argvs]
        assert codes == [0] * 12 + [3] * 3
        assert copies == []

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
