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


def test_curvature_command_reports_a_repeated_n_once(capture, p3_file):
    code, out, err = capture("curvature", "--graph", p3_file, "--n", "2,2,inf,2.0")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["n_grid"] == [2.0, "inf"]
    assert list(results["kappa"]) == list(results["global_min"]) == ["2", "inf"]
    assert err.count("global curvature") == 2


def test_curvature_command_refuses_an_empty_grid(capture, p3_file):
    # an empty --n (a dropped shell variable) is a usage error naming the flag;
    # empty items between values are still skipped
    for grid in ("", ",", " , "):
        code, out, _ = capture("curvature", "--graph", p3_file, "--n", grid)
        assert code == 2, grid
        error = json.loads(out)["error"]
        assert error["type"] == "usage" and "--n" in error["message"]
    code, out, _ = capture("curvature", "--graph", p3_file, "--n", "2,,inf")
    assert code == 0 and json.loads(out)["results"]["n_grid"] == [2.0, "inf"]


@pytest.mark.parametrize("weight", [1e-155, 1e-162])
def test_curvature_command_warns_where_kernel_ok_is_false(capture, tmp_path, weight):
    # on the unit-measure 6-cycle each S2 pivot w^2 / 4 leaves the float range
    # (its reciprocal overflows at 1e-155, it underflows to 0 at 1e-162), so
    # the kappas come out NaN or -0.0; the report names every (vertex, n)
    g = steklov.build_graph([(str(v), 1.0) for v in range(6)],
                            [(str(v), str((v + 1) % 6), weight) for v in range(6)])
    path = tmp_path / "c6.json"
    path.write_text(steklov.serialize_graph(steklov.attach_boundary(g, {"0", "2", "4"})))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = capture("curvature", "--graph", str(path), "--n", "2,inf")
    assert code == 0
    warnings = json.loads(out)["warnings"]
    assert len(warnings) == 12
    for (n, v), text in zip([(n, v) for n in ("2", "inf") for v in range(6)], warnings):
        assert text.startswith(f"kernel_ok is false at vertex {v}, n = {n}: an S2 pivot underflowed")


@pytest.mark.parametrize("weight", [1e-155, 1e-162])
def test_curvature_command_prints_no_numpy_warnings_where_kernel_ok_is_false(tmp_path, weight):
    # in a fresh process with numpy's default error handling, the report's
    # warnings alone say what went wrong: stderr carries no RuntimeWarning
    g = steklov.build_graph([(str(v), 1.0) for v in range(6)],
                            [(str(v), str((v + 1) % 6), weight) for v in range(6)])
    path = tmp_path / "c6.json"
    path.write_text(steklov.serialize_graph(steklov.attach_boundary(g, {"0", "2", "4"})))
    code, out, err = _fresh_process("curvature", "--graph", str(path), "--n", "2,inf")
    assert code == 0
    assert "RuntimeWarning" not in err
    assert len(json.loads(out)["warnings"]) == 12


def test_cd_check_command_warns_where_lambda_min_is_nan(tmp_path):
    # an S2 pivot out of the float range makes every pencil NaN; the report
    # names each vertex, and stderr carries no RuntimeWarning
    g = steklov.build_graph([(str(v), 1.0) for v in range(6)],
                            [(str(v), str((v + 1) % 6), 1e-155) for v in range(6)])
    path = tmp_path / "c6.json"
    path.write_text(steklov.serialize_graph(steklov.attach_boundary(g, {"0", "2", "4"})))
    code, out, err = _fresh_process("cd-check", "--graph", str(path), "--K", "-1", "--n", "2")
    assert code == 1
    assert "RuntimeWarning" not in err
    warnings = json.loads(out)["warnings"]
    assert len(warnings) == 6
    for v, text in enumerate(warnings):
        assert text.startswith(f"lambda_min is NaN at vertex {v}: an S2 pivot underflowed")


def test_unit_weight_reports_are_unchanged_and_carry_no_warnings(capture, tmp_path, monkeypatch):
    # the kernel_ok warnings leave a healthy curvature report byte for byte as
    # it was, and every other command's warnings list stays empty
    monkeypatch.chdir(tmp_path)
    assert capture("generate", "--family", "unit_square", "--out", "c4.json")[0] == 0
    code, out, _ = capture("curvature", "--graph", "c4.json", "--n", "2,3,inf")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "15263ed36bb907cad937da4ff63deaa548303d937a3e262311b93e96ae87f029")
    for argv in (("spectrum",), ("steklov",), ("cd-check", "--K", "1", "--n", "2"),
                 ("rigidity", "--K", "1", "--n", "2"), ("classify", "--class", "unit"),
                 ("green-check", "--trials", "3"), ("ball-scan",)):
        _, out, _ = capture(argv[0], "--graph", "c4.json", *argv[1:])
        assert json.loads(out)["warnings"] == [], argv


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


@pytest.mark.parametrize("lam", [1e160, 1e300])
def test_a_degree_whose_square_overflows_is_an_input_error(capture, tmp_path, lam):
    # generate refuses the family; a graph file with those interior weights,
    # or with one weight of 1e300, is refused by every command with a JSON
    # error naming the vertex (it used to crash with LinAlgError, exit 1)
    code, out, _ = capture("generate", "--family", "complete_interior", "--out", str(tmp_path / "g.json"),
                           "--interior-size", "3", "--n", "10", "--K", "1", "--m", "1", "--lam", str(lam))
    assert code == 2 and json.loads(out)["error"]["type"] == "DegreeOverflow"
    doc = json.loads(steklov.serialize_graph(steklov.make_example(
        "complete_interior", interior_size=3, n=10, K=1, m=1)))
    for edge in doc["edges"]:
        if edge["u"].startswith("x") and edge["v"].startswith("x"):
            edge["w"] = lam
    single = json.loads(steklov.serialize_graph(steklov.make_example("unit_path3")))
    single["edges"][0]["w"] = 1e300
    for name, graph, vertex in (("scaled", doc, "x1"), ("single", single, "1")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph))
        for command in (["curvature", "--n", "2,inf"], ["cd-check", "--K", "1", "--n", "10"],
                        ["rigidity", "--K", "1", "--n", "10"], ["steklov"], ["spectrum"]):
            code, out, _ = capture(*command, "--graph", str(path))
            assert code == 2, command
            error = json.loads(out)["error"]
            assert error["type"] == "DegreeOverflow" and f"Deg({vertex!r})" in error["message"]


HOSTILE_P3 = ('{"vertices": [{"id": "1", "m": %s}, {"id": "2", "m": 1}, {"id": "3", "m": 1}], '
              '"edges": [{"u": "1", "v": "2", "w": 1}, {"u": "2", "v": "3", "w": 1}], "boundary": ["1", "3"]}')


@pytest.mark.parametrize("content, error", [
    (HOSTILE_P3 % ("9" * 400), "NonPositiveValue"),  # an int too large for a float
    (HOSTILE_P3 % ("9" * 5000), "ParseError"),  # an int over Python's digit limit for int(str)
    ("[" * 100_000, "ParseError"),  # nesting deeper than the decoder recurses
    (b"\xff\xfe" + (HOSTILE_P3 % 1).encode("utf-16-le"), "ParseError"),  # not UTF-8
], ids=["int-400-digits", "int-5000-digits", "deep-nesting", "utf-16"])
def test_a_hostile_graph_file_is_an_input_error(capture, tmp_path, content, error):
    # each of these used to crash with a traceback and exit 1, the code for a
    # negative verification, instead of a JSON error and exit 2
    path = tmp_path / "hostile.json"
    (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    for command in (["spectrum"], ["curvature", "--n", "2"]):
        code, out, _ = capture(*command, "--graph", str(path))
        assert code == 2 and json.loads(out)["error"]["type"] == error


def test_cd_check_with_a_non_finite_k_is_an_input_error(capture, c4_file):
    for K in ("--K=-inf", "--K=inf"):
        code, out, _ = capture("cd-check", "--graph", c4_file, K, "--n", "2")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidParams"


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
