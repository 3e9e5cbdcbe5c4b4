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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rigidity_command_reads_the_two_ball_identity_where_its_coefficients_underflow(capture, tmp_path):
    # with every weight 1e-162 each product w_xy w_yz underflows to 0; the
    # identity is scale-free, so the check takes its average on scaled
    # coefficients and no raw numpy warning escapes
    g = steklov.build_graph([(str(v), 1.0) for v in range(6)],
                            [(str(v), str((v + 1) % 6), 1e-162) for v in range(6)])
    path = tmp_path / "c6.json"
    path.write_text(steklov.serialize_graph(steklov.attach_boundary(g, {"0", "2", "4"})))
    code, out, _ = capture("rigidity", "--graph", str(path), "--K", "1", "--n", "2")
    assert code == 1
    residual = json.loads(out)["results"]["diagnostics"]["two_ball_max_residual"]
    assert isinstance(residual, float) and 0.0 <= residual < 1.0


def _unit_path_with_heavy_end(tmp_path, m_a):
    g = steklov.build_graph([("a", m_a), ("b", 1.0), ("c", 1.0)], [("a", "b", 1.0), ("b", "c", 1.0)])
    path = tmp_path / "p3_heavy.json"
    path.write_text(steklov.serialize_graph(steklov.attach_boundary(g, {"a", "c"})))
    return str(path)


def test_cd_check_command_warns_where_lambda_min_is_minus_inf(tmp_path, capture):
    # with m_a = 8e307 the S2 pivot at a is subnormal and its reciprocal
    # overflows: cd-check reads the curvature function's stacks, so its
    # lambda_min at a is the NaN kappa that the curvature command prints
    path = _unit_path_with_heavy_end(tmp_path, 8e307)
    code, out, err = _fresh_process("cd-check", "--graph", path, "--K", "0", "--n", "2")
    assert code == 1
    assert "RuntimeWarning" not in err
    doc = json.loads(out)
    assert doc["results"]["vertices"][0]["lambda_min"] == "nan"
    assert json.loads(capture("curvature", "--graph", path, "--n", "2")[1])["results"]["kappa"]["2"]["a"] == "nan"
    assert doc["warnings"] == ["lambda_min is NaN at vertex a: an S2 pivot underflowed to 0 or its reciprocal "
                               "overflowed, so this verdict is not reliable"]


def test_curvature_command_keeps_healthy_vertices_beside_a_ball_out_of_range(capture, tmp_path):
    # a's pencil is not finite; c shares its padded stack, and a pad taken
    # over the whole stack made kappa(c) read 0.0
    path = _unit_path_with_heavy_end(tmp_path, 8e307)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = capture("curvature", "--graph", path, "--n", "2")
        lambda_c = steklov.cd_check(steklov.parse_graph_file(Path(path).read_text()).graph, 0.0, 2.0, "c")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["kappa"]["2"]["c"] == lambda_c.checks[0].lambda_min == pytest.approx(0.5)
    assert [text.split(",")[0] for text in doc["warnings"]] == ["kernel_ok is false at vertex a"]


def test_the_curvature_command_finishes_no_stack(capture, tmp_path, monkeypatch):
    # the report prints kappa and kernel_ok alone: both come from the eager
    # part of the profile, so no eigh, witness or CurvatureResult is built;
    # the bytes are those a report read off profile.results gives
    for family, params in (("unit_square_diag", {}), ("weighted_path3", {"n": 3, "K": 1, "m": 1}),
                           ("complete_interior", {"interior_size": 4, "n": 10, "K": 1, "m": 1})):
        path = tmp_path / f"{family}.json"
        path.write_text(steklov.serialize_graph(steklov.make_example(family, **params)))
        want = {}
        profile = steklov.curvature_profile(steklov.parse_graph_file(path.read_text()).graph, (2.0, 3.0, np.inf))
        for n, key in zip(profile.n_values, ("2", "3", "inf")):
            want[key] = {str(v): res.kappa for v, res in profile.results[n].items()}
        with monkeypatch.context() as patch:
            patch.setattr(steklov.curvature, "_finish_stack", lambda *args: pytest.fail("a stack was finished"))
            code, out, _ = capture("curvature", "--graph", str(path), "--n", "2,3,inf")
        assert code == 0
        assert json.dumps(json.loads(out)["results"]["kappa"]) == json.dumps(want)


def test_the_global_curvature_passes_over_a_nan_kappa(capture, tmp_path):
    # a's ball leaves the float range (kernel_ok false, kappa NaN); the
    # global minimum is taken over b and c, and the summary line follows
    path = _unit_path_with_heavy_end(tmp_path, 8e307)
    code, out, err = capture("curvature", "--graph", path, "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["kappa"]["2"]["a"] == "nan"
    assert doc["results"]["global_min"] == {"2": {"kappa": -0.9999999999999998, "vertex": "b"}}
    assert "n = 2: global curvature -1 at vertex b" in err.splitlines()
    g = steklov.parse_graph_file(Path(path).read_text()).graph
    assert steklov.curvature_profile(g, [2]).global_min[2.0] == (-0.9999999999999998, "b")
    # NaN only where every kappa at that n is NaN, at the first vertex
    c6 = steklov.build_graph([(str(v), 1.0) for v in range(6)], [(str(v), str((v + 1) % 6), 1e-155) for v in range(6)])
    value, vertex = steklov.curvature_profile(c6, [2]).global_min[2.0]
    assert np.isnan(value) and vertex == "0"


def test_the_rigidity_command_warns_where_its_cd_verdict_reads_minus_inf(tmp_path, capture):
    path = _unit_path_with_heavy_end(tmp_path, 8e307)
    code, out, err = _fresh_process("rigidity", "--graph", path, "--K", "1", "--n", "2")
    assert code == 1
    assert "RuntimeWarning" not in err
    assert json.loads(out)["warnings"] == [
        "lambda_min is NaN at vertex a: an S2 pivot underflowed to 0 or its reciprocal overflowed, "
        "so this verdict is not reliable"]
    for family in ("unit_path3", "unit_square", "unit_square_diag"):
        unit = tmp_path / f"{family}.json"
        unit.write_text(steklov.serialize_graph(steklov.make_example(family)))
        assert json.loads(capture("rigidity", "--graph", str(unit), "--K", "0.5", "--n", "2")[1])["warnings"] == []


@pytest.mark.parametrize("argv", [("curvature", "--n", "2"), ("cd-check", "--K", "0", "--n", "2"),
                                  ("rigidity", "--K", "1", "--n", "2")])
def test_a_measure_above_half_the_float_range_prints_no_numpy_warnings(tmp_path, argv):
    # 2 m overflows for m = 1e308, which build_graph accepts; the Gamma forms
    # halve the weights before dividing by m instead
    path = _unit_path_with_heavy_end(tmp_path, 1e308)
    code, out, err = _fresh_process(argv[0], "--graph", path, *argv[1:])
    assert code in (0, 1)
    assert "RuntimeWarning" not in err
    assert json.loads(out)["command"] == argv[0]


@pytest.mark.parametrize("w, m, k", [(1e-310, 1e-300, 20), (5e-324, 1e-300, 60), (1e-12, 1e-160, -100)])
def test_the_gamma_forms_divide_by_m_exactly_at_the_ends_of_the_float_range(w, m, k):
    # Gamma is linear and Gamma2 quadratic in W, so scaling W by 2^k scales
    # them exactly wherever every quotient stays a normal double: halving a
    # subnormal w before dividing lost its digits (5e-324 halved to 0), and
    # Delta / mu overflowed for c = Delta / (2 mu) = 5e307 (the third case)
    from steklov.operators import _gamma2_matrix, _gamma_matrix
    g, h = (steklov.build_graph([(v, m) for v in "abcd"], [(u, v, x) for u, v in ("ab", "bc", "cd")])
            for x in (w, w * 2.0 ** k))
    for i in range(4):
        assert (_gamma_matrix(g, i)[1] * 2.0 ** k).tolist() == _gamma_matrix(h, i)[1].tolist()
        assert (_gamma2_matrix(g, i)[1] * 4.0 ** k).tolist() == _gamma2_matrix(h, i)[1].tolist()


def test_large_reports_are_byte_identical_across_runs_under_one_blas_thread(tmp_path):
    # the README's contract: identical invocations give identical bytes on one
    # BLAS build and thread count
    bg = random_boundary_graph(np.random.default_rng(25), 300, 300, extra_edge_prob=0.02)
    assert bg.graph.num_vertices >= 300
    path = tmp_path / "random300.json"
    path.write_text(steklov.serialize_graph(bg))
    for command in ("spectrum", "steklov"):
        first, second = (_fresh_process(command, "--graph", str(path), OPENBLAS_NUM_THREADS="1") for _ in range(2))
        assert first[0] == 0 and len(first[1]) > 10 ** 5
        assert first == second


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


def test_a_join_weight_out_of_range_is_named_as_a_graph_file_names_it(capture, tmp_path):
    # the join's error carried a numpy scalar and read "got np.float64(inf)"
    path = tmp_path / "inf.json"
    path.write_text('{"vertices": [{"id": "1", "m": 1}, {"id": "x1", "m": 1}], '
                    '"edges": [{"u": "1", "v": "x1", "w": 1e400}], "boundary": ["1"]}')
    want = {"type": "NonPositiveValue", "message": "weight of ('1', 'x1') must be a finite positive number, got inf"}
    code, out, _ = capture("spectrum", "--graph", str(path))
    assert code == 2 and json.loads(out)["error"] == want
    code, out, _ = capture("generate", "--family", "complete_interior", "--interior-size", "2", "--n", "10",
                           "--K", "1e308", "--m", "1e10", "--out", str(tmp_path / "x.json"))
    assert code == 2 and json.loads(out)["error"] == want
    assert not (tmp_path / "x.json").exists()


def test_a_k_whose_degree_target_overflows_is_an_input_error(capture, tmp_path):
    # it used to report weighted_path3 matched at K = 1e308, and rigidity
    # crashed with LinAlgError and exit 1 after passing conditions (3)-(4)
    for family, params, command in (
        ("weighted_path3", ("--n", "3", "--K", "1", "--m", "1"), ("classify", "--class", "partial")),
        ("complete_interior", ("--interior-size", "3", "--n", "10", "--K", "1", "--m", "1"), ("rigidity",)),
    ):
        path = str(tmp_path / f"{family}.json")
        assert capture("generate", "--family", family, "--out", path, *params)[0] == 0
        code, out, err = capture(*command, "--graph", path, "--K", "1e308", "--n", params[params.index("--n") + 1])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidParams" and "degree target" in err


def test_a_negative_seed_is_a_usage_error(capture, c4_file):
    code, out, _ = capture("green-check", "--graph", c4_file, "--seed", "-5")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "usage", "message": "--seed must be non-negative"}


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


LOADED_AT_EXIT = """import atexit, json, sys
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("steklov"))),
                              file=sys.stderr))
"""
RUN_CLI = 'import runpy; runpy.run_module("steklov.cli", run_name="__main__")'
CLI_BASE = ["steklov", "steklov.errors"]  # the CLI runs as __main__
GRAPHS = ["numpy", "steklov", "steklov._lapack", "steklov.errors", "steklov.graphs"]  # graphs factors L_OO
SPECTRA = [*GRAPHS, "steklov.jsonio", "steklov.operators", "steklov.spectra"]


@pytest.mark.parametrize("code, argv, loaded", [
    ("import steklov", [], ["steklov"]),
    (RUN_CLI, ["--version"], CLI_BASE),
    (RUN_CLI, ["--help"], CLI_BASE),
    (RUN_CLI, ["spectrum"], ["numpy", *CLI_BASE, "steklov.jsonio"]),  # --graph missing: the report needs jsonio
    (RUN_CLI, ["spectrum", "--graph", "{graph}"], SPECTRA),
    (RUN_CLI, ["steklov", "--graph", "{graph}"], SPECTRA),
    (RUN_CLI, ["generate", "--family", "unit_square", "--out", "{out}"],
     [*GRAPHS, "steklov.jsonio"]),
], ids=["import", "version", "help", "usage-error", "spectrum", "steklov", "generate"])
def test_a_process_loads_only_the_layers_its_command_runs(tmp_path, p3_file, code, argv, loaded):
    # `import steklov` and the parser load no library module; a command loads
    # the layers whose names it reads, and neither curvature nor rigidity here
    src = str(Path(steklov.__file__).resolve().parents[1])
    argv = [a.format(graph=p3_file, out=tmp_path / "c4.json") for a in argv]
    proc = subprocess.run([sys.executable, "-c", LOADED_AT_EXIT + code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == loaded


def _fresh_process(*argv, **env):
    src = str(Path(steklov.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "steklov.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src, **env),
    )
    return proc.returncode, proc.stdout, proc.stderr


SURROGATE_P3 = ('{"vertices": [{"id": "1", "m": 1}, {"id": %s, "m": 1}, {"id": "3", "m": 1}], '
                '"edges": [{"u": "1", "v": "2", "w": 1}, {"u": %s, "v": "3", "w": 1}], "boundary": ["1", %s]}')


@pytest.mark.parametrize("where, fields", [
    ("vertices[1].id", ('"\\ud800"', '"2"', '"3"')),
    ("edges[1].u", ('"2"', '"x\\udfff"', '"3"')),
    ("boundary[1]", ('"2"', '"2"', '"\\ud800"')),
])
def test_an_id_utf8_cannot_encode_is_an_input_error(tmp_path, where, fields):
    # a fresh process: an in-process StringIO accepts lone surrogates and hides
    # the UnicodeEncodeError that crashed every command at output with exit 1
    path = tmp_path / "surrogate.json"
    path.write_text(SURROGATE_P3 % fields)
    code, out, err = _fresh_process("spectrum", "--graph", str(path))
    assert code == 2 and "Traceback" not in err
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError" and f"{where} " in error["message"]


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
