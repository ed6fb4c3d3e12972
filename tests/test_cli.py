import json
import os
from fractions import Fraction

import pytest

import hlab.cli as cli
import hlab.continuity as continuity
import hlab.sceneio as sceneio
from hlab._scalar import rat
from hlab.cli import main
from hlab.continuity import f_eval
from hlab.sceneio import SceneFormatError, load_scene, polygon_to_json, save_scene

SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")
WORKED = os.path.join(SCENES, "worked.json")
FIGURE1 = os.path.join(SCENES, "figure1.json")
FIGURE2 = os.path.join(SCENES, "figure2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scene(tmp_path, **changes):
    """worked.json with some keys replaced."""
    with open(WORKED, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(changes)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestEval:
    def test_worked_scene(self, capsys):
        code, out, _ = run(capsys, "eval", WORKED, "--r", "3/2")
        assert code == 0
        doc = json.loads(out)
        assert doc["components"] == [[["2", "0"], ["5/2", "0"], ["5/2", "1"], ["2", "1"]]]

    def test_domain_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", WORKED, "--r", "1/2")
        assert code == 2
        assert "radius below set distance" in err

    def test_float_rejected_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "norm": {"kind": "linf"},
            "A": [["0.5", "0"], ["1", "0"], ["1", "1"]],
            "B": [[["2", "0"], ["3", "0"], ["3", "1"]]],
            "r": "1",
        }))
        code, _, err = run(capsys, "eval", str(bad))
        assert code == 1
        assert "A" in err

    def test_nonconvex_part_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "norm": {"kind": "linf"},
            "A": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"], ["1", "1"]],
            "B": [[["3", "0"], ["4", "0"], ["4", "1"]]],
            "r": "1",
        }))
        code, _, err = run(capsys, "eval", str(bad))
        assert code == 1
        assert "not strictly convex" in err

    def test_boolean_radius_rejected(self, tmp_path, capsys):
        code, out, err = run(capsys, "eval", write_scene(tmp_path, r=True))
        assert (code, out) == (1, "")
        assert err == "hlab: r: expected a rational string 'p/q', got True\n"

    def test_boolean_k_rejected(self, tmp_path, capsys):
        scene = write_scene(tmp_path, norm={"kind": "euclidean_approx", "k": True})
        code, out, err = run(capsys, "eval", scene)
        assert (code, out) == (1, "")
        assert err == "hlab: norm.k: expected an integer\n"

    @pytest.mark.parametrize("norm", [
        {"kind": "ball", "ball": [["2", "0"], ["1", "1"], ["-1", "1"],
                                  ["-2", "0"], ["-1", "-1"], ["1", "-1"]]},
        {"kind": "euclidean_approx", "k": 6},
    ])
    def test_ball_and_euclidean_scenes_match_library(self, tmp_path, capsys, norm):
        path = write_scene(tmp_path, norm=norm, r="7/4")
        scene = load_scene(path)
        code, out, _ = run(capsys, "eval", path)
        assert code == 0
        M = f_eval(scene.A, scene.B, rat(7, 4), scene.norm)
        assert json.loads(out) == {"r": "7/4", "components": [polygon_to_json(M)]}

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "eval", WORKED, "--r", "3/2")
        _, out2, _ = run(capsys, "eval", WORKED, "--r", "3/2")
        assert out1 == out2


class TestWitness:
    def test_right_side(self, capsys):
        code, out, _ = run(capsys, "witness", WORKED, "--side", "right",
                           "--r", "1", "--epsilon", "1/4")
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == "1/4"
        assert doc["verification"]["all_passed"] is True

    def test_left_side(self, capsys):
        code, out, _ = run(capsys, "witness", WORKED, "--side", "left")
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == "1/8"
        assert doc["lambda"] == "1/4"

    def test_left_at_endpoint_exit_2(self, capsys):
        code, _, err = run(capsys, "witness", WORKED, "--side", "left", "--r", "1")
        assert code == 2
        assert "strictly above set distance" in err

    def test_huge_epsilon_infinite_delta(self, capsys):
        code, out, _ = run(capsys, "witness", WORKED, "--side", "right",
                           "--epsilon", "1000000")
        assert code == 0
        doc = json.loads(out)
        assert doc["K"] == [] and doc["delta"] == "inf"


class TestScan:
    def test_figure1_max_ratio_column(self, capsys, tmp_path):
        svg = tmp_path / "scan.svg"
        code, out, _ = run(capsys, "scan", FIGURE1, "--steps", "16",
                           "--svg", str(svg))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,r_next,d_H,ratio"
        ratios = [line.split(",")[3] for line in lines[1:]]
        assert max(ratios, key=Fraction) == "8"
        assert svg.read_text().startswith("<?xml")

    def test_zero_steps_exit_1(self, capsys):
        code, _, err = run(capsys, "scan", FIGURE1, "--steps", "0")
        assert code == 1
        assert "steps must be >= 1" in err

    def test_empty_radius_range_rejected_at_load(self, tmp_path, capsys):
        code, out, err = run(capsys, "scan", write_scene(tmp_path, r_range=["2", "2"]),
                             "--steps", "4")
        assert (code, out) == (1, "")
        assert err == "hlab: r_range: empty radius range\n"

    def test_constant_scene_all_zero(self, capsys, tmp_path):
        doc = {
            "norm": {"kind": "linf"},
            "A": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
            "B": [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]],
            "r_range": ["0", "2"],
        }
        scene = tmp_path / "same.json"
        scene.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "scan", str(scene), "--steps", "8")
        assert code == 0
        assert all(line.split(",")[2] == "0" for line in out.strip().splitlines()[1:])


class TestScenario:
    def test_figure1_report(self, capsys, tmp_path):
        svg = tmp_path / "fig1.svg"
        code, out, _ = run(capsys, "scenario", "figure1", "--svg", str(svg))
        assert code == 0
        doc = json.loads(out)
        assert doc["max_ratio"] == "8"
        assert doc["certified_strictly_greater_than_one"] is True
        assert svg.read_text().endswith("</svg>\n")

    def test_figure2_report(self, capsys):
        code, out, _ = run(capsys, "scenario", "figure2")
        assert code == 0
        doc = json.loads(out)
        assert doc["jump_lower_bound"] == "4"
        assert all(g == "4" for g in doc["gaps"])

    def test_unknown_scenario_exit_1(self, capsys):
        code, _, err = run(capsys, "scenario", "figure9")
        assert code == 1
        assert "figure1" in err and "figure2" in err


class TestOracle:
    def test_bracket_contains_exact(self, capsys):
        code, out, _ = run(capsys, "oracle", WORKED, "--step", "1/16")
        assert code == 0
        doc = json.loads(out)
        assert doc["contains_exact"] is True

    @pytest.mark.parametrize("step, message", [
        ("0", "step must be positive"),
        ("-1/4", "step must be positive"),
        ("100", "grid too coarse"),
    ])
    def test_bad_step_exit_1(self, capsys, step, message):
        code, out, err = run(capsys, "oracle", WORKED, f"--step={step}")
        assert (code, out) == (1, "")
        assert err == f"hlab: --step: {message}\n"

    def test_lattice_cap_exit_1_before_sampling(self, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled a lattice over the cap")
        monkeypatch.setattr(continuity, "_grid_samples", no_sampling)
        code, out, err = run(capsys, "oracle", WORKED, "--step", "1/100000")
        assert (code, out, err) == (1, "", "hlab: --step: grid too fine\n")

    def test_uncertified_union_distance_exit_2(self, tmp_path, capsys):
        # the midpoint of A lies between the two parts of B: d_H = 1, while the
        # vertices of A sit on B
        path = write_scene(tmp_path, A=[["-1", "0"], ["1", "0"]],
                           B=[[["-1", "0"]], [["1", "0"]]])
        code, out, err = run(capsys, "oracle", path, "--step", "1/8")
        assert (code, out) == (2, "")
        assert err == ("hlab: union Hausdorff distance not certified: "
                       "vertex bounds 0 and 2 differ\n")


class TestSizeCaps:
    def test_k_at_cap(self, tmp_path, capsys):
        path = write_scene(tmp_path, norm={"kind": "euclidean_approx", "k": 1024})
        code, out, err = run(capsys, "eval", path, "--r", "3/2")
        assert (code, err) == (0, "")
        assert json.loads(out)["r"] == "3/2"

    def test_k_above_cap_exit_1_before_building_the_norm(self, tmp_path, capsys, monkeypatch):
        def no_norm(k):
            raise AssertionError("built a norm over the cap")
        monkeypatch.setattr(sceneio, "euclidean_approx", no_norm)
        path = write_scene(tmp_path, norm={"kind": "euclidean_approx", "k": 1025})
        code, out, err = run(capsys, "eval", path)
        assert (code, out, err) == (1, "", "hlab: norm.k: k must be <= 1024\n")

    def test_steps_at_cap(self, tmp_path, capsys):
        path = write_scene(tmp_path, A=[["0", "0"]], B=[[["1", "0"]]], r_range=["1", "2"])
        code, out, err = run(capsys, "scan", path, "--steps", "4096")
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 4096 and rows[-1] == "8191/4096,2,0,0"

    def test_steps_above_cap_exit_1_before_loading(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("worked on a scan over the cap")
        monkeypatch.setattr(cli, "load_scene", no_work)
        monkeypatch.setattr(cli, "modulus_scan", no_work)
        code, out, err = run(capsys, "scan", WORKED, "--steps", "4097")
        assert (code, out, err) == (1, "", "hlab: steps must be <= 4096\n")


class TestSceneRoundTrip:
    @pytest.mark.parametrize("path", [WORKED, FIGURE1, FIGURE2])
    def test_load_save_fixed_point(self, path, tmp_path):
        first = open(path, "r", encoding="utf-8").read()
        out = tmp_path / "copy.json"
        save_scene(load_scene(path), str(out))
        assert out.read_text() == first
        save_scene(load_scene(str(out)), str(out))
        assert out.read_text() == first

    def test_missing_file(self):
        with pytest.raises(SceneFormatError):
            load_scene("/nonexistent/scene.json")
