"""The command-line surface: reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steklov
from steklov.cli import run

from oracles import random_boundary_graph


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err
    return invoke


@pytest.fixture
def p3_file(tmp_path, capture):
    path = tmp_path / "p3.json"
    code, out, _ = capture("generate", "--family", "unit_path3", "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def c4_file(tmp_path, capture):
    path = tmp_path / "c4.json"
    assert capture("generate", "--family", "unit_square", "--out", str(path))[0] == 0
    return str(path)


def test_spectrum_command(capture, p3_file):
    code, out, err = capture("spectrum", "--graph", p3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "spectrum"
    values = doc["results"]["values"]
    assert values[0] == pytest.approx(0.0, abs=1e-10)
    assert values[1] == pytest.approx(1.0, abs=1e-10)
    assert values[2] == pytest.approx(3.0, abs=1e-10)
    assert "laplacian spectrum" in err


def test_steklov_command(capture, p3_file):
    code, out, _ = capture("steklov", "--graph", p3_file)
    assert code == 0
    values = json.loads(out)["results"]["values"]
    assert values == pytest.approx([0.0, 1.0], abs=1e-10)


def test_curvature_command(capture, p3_file):
    code, out, _ = capture("curvature", "--graph", p3_file, "--n", "2,3,inf")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["global_min"]["2"]["kappa"] == pytest.approx(0.5, abs=1e-9)
    assert set(results["kappa"]) == {"2", "3", "inf"}


def test_cd_check_command(capture, p3_file):
    code, out, _ = capture("cd-check", "--graph", p3_file, "--K", "0.5", "--n", "2")
    assert code == 0
    assert json.loads(out)["results"]["holds"] is True

    code, out, err = capture("cd-check", "--graph", p3_file, "--K", "0.51", "--n", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["results"]["holds"] is False
    failing = [v for v in doc["results"]["vertices"] if not v["holds"]]
    assert failing and "witness" in failing[0]
    assert "FAILS" in err


def test_rigidity_command(capture, c4_file):
    code, out, _ = capture("rigidity", "--graph", c4_file, "--K", "2", "--n", "inf")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["bound_equality"] is True
    assert results["is_rigid"] is True
    assert results["classification"]["label"] == "unit_square"

    code, out, _ = capture("rigidity", "--graph", c4_file, "--K", "1.5", "--n", "inf")
    assert code == 1
    assert json.loads(out)["results"]["bound_equality"] is False


def test_classify_command(capture, tmp_path, p3_file):
    code, out, _ = capture("classify", "--graph", p3_file, "--class", "unit")
    assert code == 0
    assert json.loads(out)["results"]["label"] == "unit_path3"

    path = tmp_path / "wp.json"
    assert capture("generate", "--family", "weighted_path3", "--out", str(path),
                   "--n", "5", "--K", "1", "--m", "2")[0] == 0
    code, out, _ = capture("classify", "--graph", str(path), "--class", "partial",
                           "--K", "1", "--n", "5")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["label"] == "weighted_path3"
    assert results["params"]["m"] == pytest.approx(2.0)

    code, _, _ = capture("classify", "--graph", str(path), "--class", "partial")
    assert code == 2  # missing --K/--n


def test_green_check_command(capture, c4_file):
    code, out, _ = capture("green-check", "--graph", c4_file, "--trials", "20", "--seed", "3")
    assert code == 0
    assert json.loads(out)["results"]["holds"] is True


@pytest.mark.parametrize("c", [1e-12, 1e12])
def test_green_check_keeps_its_power_under_weight_scaling(capture, tmp_path, c):
    # Green's identity is linear in w, so its residual relative to its terms
    # is a rounding-level figure at every weight scale; an absolute floor in
    # the scale would shrink it by c at small c and blind the check
    def residual(scale):
        doc = json.loads(steklov.serialize_graph(steklov.make_example("weighted_square", K=1.0, m=1.0)))
        for edge in doc["edges"]:
            edge["w"] *= scale
        path = tmp_path / f"ws{scale:g}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = capture("green-check", "--graph", str(path), "--trials", "100", "--seed", "0")
        assert code == 0
        return json.loads(out)["results"]["max_scaled_residual"]

    base = residual(1.0)
    assert 0.0 < base <= 1e-13
    assert 0.1 * base <= residual(c) <= 10.0 * base


def test_ball_scan_command(capture, c4_file):
    code, out, _ = capture("ball-scan", "--graph", c4_file)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["pair"] == ["2", "4"]
    assert results["connected"] is False


def test_generate_then_rigidity_round_trip(capture, tmp_path):
    path = tmp_path / "wp.json"
    code, _, _ = capture("generate", "--family", "weighted_path3", "--out", str(path),
                         "--n", "2.5", "--K", "0.5", "--m", "1")
    assert code == 0
    code, out, _ = capture("rigidity", "--graph", str(path), "--K", "0.5", "--n", "2.5")
    assert code == 0
    assert json.loads(out)["results"]["bound_equality"] is True


def test_determinism(capture, c4_file):
    outputs = set()
    for _ in range(3):
        code, out, _ = capture("rigidity", "--graph", c4_file, "--K", "2", "--n", "inf")
        outputs.add(out)
    assert len(outputs) == 1
    for _ in range(2):
        code, out, _ = capture("green-check", "--graph", c4_file)
        outputs.add(out)
    assert len(outputs) == 2  # the one rigidity report plus one green report


def test_usage_and_module_errors(capture, tmp_path, p3_file):
    code, out, _ = capture("spectrum", "--graph", str(tmp_path / "missing.json"))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "usage"

    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [], "edges": [], "frontier": []}')
    code, out, _ = capture("spectrum", "--graph", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"

    code, out, _ = capture("cd-check", "--graph", p3_file, "--K", "1", "--n", "0.5")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidDimensionParam"

    code, out, _ = capture("cd-check", "--graph", p3_file, "--K", "x", "--n", "2")
    assert code == 2

    code, out, _ = capture("no-such-command")
    assert code == 2

    code, out, _ = capture("generate", "--family", "weighted_path3", "--out",
                           str(tmp_path / "x.json"), "--n", "1", "--K", "1", "--m", "1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidFamilyParams"


def test_reports_have_sorted_keys(capture, p3_file):
    _, out, _ = capture("steklov", "--graph", p3_file)
    doc = json.loads(out)
    assert list(doc) == sorted(doc)
    assert list(doc["results"]) == sorted(doc["results"])


def test_cli_import_does_not_load_scipy():
    src = str(Path(steklov.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, steklov.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.strip() == "False"


def _fresh_process(*argv):
    src = str(Path(steklov.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "steklov.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reuse_after_errors_matches_a_fresh_process(capture, p3_file):
    assert steklov.cli._build_parser() is steklov.cli._build_parser()
    assert capture("bogus")[0] == 2
    assert capture("cd-check", "--graph", p3_file, "--K", "1", "--n", "x")[0] == 2
    for argv in (
        ("curvature", "--graph", p3_file, "--n", "2,inf"),
        ("cd-check", "--graph", p3_file, "--K", "0.51", "--n", "2"),
        ("classify", "--graph", p3_file, "--class", "partial"),
        ("spectrum", "--graph", p3_file),
    ):
        assert capture(*argv) == _fresh_process(*argv)


def test_spectrum_reports_are_pinned_bytes(capture, tmp_path, monkeypatch):
    """sha256 of the stdout of spectrum and steklov on a seeded 40-vertex weighted graph.

    The report echoes the graph path, so the file is read by a relative name.
    """
    bg = random_boundary_graph(np.random.default_rng(11), 40, 40, extra_edge_prob=0.1)
    monkeypatch.chdir(tmp_path)
    Path("random40.json").write_text(steklov.serialize_graph(bg))
    digests = {}
    for command in ("spectrum", "steklov"):
        code, out, _ = capture(command, "--graph", "random40.json")
        assert code == 0
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    assert (bg.graph.num_vertices, len(bg.boundary)) == (40, 10)
    assert digests == {
        "spectrum": "36bc7a2b9fa93284bcf3f642edde49d30c225f8b18799c1365639f72218bbac5",
        "steklov": "8b23d07b8a4552216efbcb5574a9082051fa2ee4189680aceb9a093af246be1b",
    }
