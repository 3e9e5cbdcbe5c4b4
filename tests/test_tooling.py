"""The benchmark's tracer wraps library functions by the names modules bind them to; public names need callers."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import re
import types
from pathlib import Path

import pytest

import steklov
import steklov.cli

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
TRACED_IMPORT = re.compile(r"^from \.\w+ import (.+?)\s+# noqa: F401 -- unused; perfbench traces", re.MULTILINE)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_binding_site_resolves():
    # a library change that unbinds a wrapped name (a dropped import, a
    # renamed method) makes a traced benchmark run fail with AttributeError
    spans = load_spans()
    assert spans.BOUNDARIES
    for site in spans.BOUNDARIES:
        module, _, attribute = site.partition(":")
        target = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(target, part), f"{site} does not resolve"
            target = getattr(target, part)
        assert callable(target), f"{site} is not callable"


@pytest.fixture
def unbound_cli(monkeypatch):
    """steklov.cli as a fresh process has it: no library name bound yet."""
    for module, names in steklov.cli._LIBRARY.items():
        steklov.cli._bind(module)  # so that every name is restored afterwards
        for name in names:
            monkeypatch.delitem(vars(steklov.cli), name)
    steklov.cli._bind.cache_clear()


def test_the_cli_binds_a_library_name_only_where_none_is_bound(unbound_cli, tmp_path, capsys, monkeypatch):
    path = tmp_path / "c4.json"
    path.write_text(steklov.serialize_graph(steklov.make_example("unit_square")))
    calls = []
    monkeypatch.setitem(vars(steklov.cli), "format_json", lambda obj, sort_keys: calls.append(obj) or "{}")
    assert steklov.cli.run(["spectrum", "--graph", str(path)]) == 0
    assert capsys.readouterr().out == "{}\n" and calls[0]["command"] == "spectrum"


def test_a_traced_cli_call_records_spans_at_the_cli_binding_sites(unbound_cli, tmp_path, capsys):
    # the CLI binds its library names on first use and never over a bound
    # one, so the tracer's wrappers (installed here before any binding) are
    # what its handlers call
    path = tmp_path / "c4.json"
    path.write_text(steklov.serialize_graph(steklov.make_example("unit_square")))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert steklov.cli.run(["rigidity", "--graph", str(path), "--K", "2", "--n", "inf"]) == 0
        assert steklov.cli.run(["spectrum", "--graph", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    under_run = {span[0] for span in tracer.spans if span[3] is not None and tracer.spans[span[3]][0] == "cli.run"}
    assert {"rigidity.check_rigidity", "spectra.laplacian_spectrum", "graphs.parse_graph_file",
            "jsonio.format_json"} <= under_run
    assert tracer.counts["cli.run"] == 2


def test_imports_kept_for_the_tracer_are_still_traced():
    # an import kept only so the tracer can wrap it is dead once the
    # benchmark stops wrapping that binding site; this names it for deletion
    boundaries = set(load_spans().BOUNDARIES)
    kept = [f"steklov.{path.stem}:{name.strip()}"
            for path in sorted((ROOT / "src" / "steklov").glob("*.py"))
            for names in TRACED_IMPORT.findall(path.read_text()) for name in names.split(",")]
    assert kept
    assert [site for site in kept if site not in boundaries] == []


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from steklov import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(steklov.__all__) == dir(steklov)
    assert len(set(steklov.__all__)) == len(steklov.__all__)
    assert "__version__" not in namespace
    for name, value in namespace.items():
        assert not isinstance(value, types.ModuleType), f"{name} is a module"
        assert value is getattr(steklov, name)


def _loaded_names(node):
    """Every name a syntax tree reads, bare or as an attribute; import statements bind but do not read."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_public_function_has_a_caller():
    # a public function earns its name through a caller: library code outside
    # its own definition (the CLI included), the acceptance suite, the README,
    # or a binding site the benchmark's tracer wraps
    callers = {}  # name -> {(module, top-level definition or None)}
    for path in sorted((ROOT / "src" / "steklov").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            for name in _loaded_names(stmt):
                callers.setdefault(name, set()).add((path.stem, owner))
    acceptance = _loaded_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    readme = (ROOT / "README.md").read_text()
    traced = {site.rpartition(":")[2].rpartition(".")[2] for site in load_spans().BOUNDARIES}
    uncalled = []
    for name in steklov.__all__:
        fn = getattr(steklov, name)
        if not inspect.isfunction(fn):
            continue  # classes are exempt
        own = (fn.__module__.rpartition(".")[2], name)
        if (callers.get(name, set()) - {own} or name in acceptance
                or re.search(rf"\b{name}\b", readme) or name in traced):
            continue
        uncalled.append(name)
    assert uncalled == []


def _enclosing_functions(match):
    """(module, innermost enclosing function or None) for each node of src/steklov that match(node) accepts."""
    sites = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                sites.append((module, owner))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, module, inner)

    for path in sorted((ROOT / "src" / "steklov").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def _calls_of(name):
    """(module, enclosing function) for each call of name in src/steklov, bare or as a method."""
    return sorted(_enclosing_functions(lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)))


def test_one_parameter_check_and_one_per_vertex_verdict():
    # a parameter is judged finite (and positive) by graphs.finite_number, and a
    # graph file's measures and weights by graphs._check_positive, both on one
    # coercion to float; per-vertex PSD verdicts, for CD(K, n) and condition (5)
    # alike, come from one builder
    isfinite = _enclosing_functions(lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "isfinite"
        and isinstance(node.value, ast.Name) and node.value.id == "math")
        or (isinstance(node, ast.Name) and node.id == "isfinite"))
    assert sorted(set(isfinite)) == [("graphs", "_check_positive"), ("graphs", "finite_number")]
    assert _calls_of("_as_float") == [("graphs", "_check_positive"), ("graphs", "finite_number")]
    assert _calls_of("_psd_verdict") == [("curvature", "_vertex_checks")]


def test_one_breadth_first_search_and_one_two_sphere_walk():
    # the unbounded search serves distances and components; every 2-ball (S1
    # and S2) comes from one helper, and only the two grow a sphere by union
    assert _calls_of("hop_spheres") == [("graphs", "components"), ("graphs", "hop_distances")]
    assert _calls_of("_two_spheres") == [
        ("graphs", "_shape_groups"), ("graphs", "ball_indices"), ("rigidity", "two_ball_identity_check")]
    assert _calls_of("union") == [("graphs", "_two_spheres"), ("graphs", "hop_spheres")]


def test_the_graph_alone_groups_its_two_balls_by_shape():
    # one walk groups centres by 2-ball shape, a WeightedGraph method that
    # walks the given centres on every call; the curvature function pads the
    # groups into stacks, which the graph keeps for all centres alone;
    # curvature and condition (5) read the walk and neither walks a 2-sphere
    # itself (the two-ball identity check reads S2 pair by pair and builds no
    # shape groups)
    defined = _enclosing_functions(lambda node: isinstance(node, ast.FunctionDef) and "shape_groups" in node.name)
    assert [module for module, _ in defined] == ["graphs"]
    assert _calls_of("_shape_groups") == [
        ("curvature", "_laid_stacks"), ("curvature", "cd_check"), ("rigidity", "_interior_blocks")]
    assert _calls_of("_laid_stacks") == [("curvature", "_curvature_stacks"), ("graphs", "_two_ball_stacks")]
    assert [site for site in _calls_of("_two_spheres") if site[0] in ("curvature", "rigidity")] == [
        ("rigidity", "two_ball_identity_check")]
    imported = _enclosing_functions(lambda node: isinstance(node, ast.ImportFrom)
                                    and any("shape_groups" in alias.name for alias in node.names))
    assert imported == []


def test_the_graph_keeps_one_two_ball_structure():
    # the curvature function's padded stacks of all centres, each built whole
    # with its n-free forms, are a graph's one kept 2-ball structure, a tuple
    # never written to after: graphs lays out no pads of its own, no other
    # cached property walks, groups or pads 2-balls or holds forms, no
    # read-only mapping of shape groups is kept beside it, and no statement
    # of the library assigns into a subscript of a stack's or its forms' field
    curvature = steklov.curvature
    assert [name for name in ("PAD_ENTRIES", "_PaddedStack", "_BallLayout", "_padded_stacks", "_ball_layout")
            if hasattr(steklov.graphs, name)] == []
    cached = [name for name, attr in vars(steklov.graphs.WeightedGraph).items()
              if isinstance(attr, functools.cached_property)]
    two_ball = {name for helper in ("_two_spheres", "_shape_groups", "_laid_stacks")
                for module, name in _calls_of(helper) if module == "graphs"}
    assert [name for name in cached if name in two_ball or "ball" in name or "group" in name
            or "form" in name or "stack" in name] == ["_two_ball_stacks"]
    assert "MappingProxyType" not in (ROOT / "src" / "steklov" / "graphs.py").read_text()
    laid = steklov.make_example("unit_square").graph._two_ball_stacks
    assert type(laid) is tuple and all(type(stack) is curvature._Stack for stack in laid)
    fields = {*curvature._Stack._fields, *curvature._Forms._fields}
    written = _enclosing_functions(lambda node: isinstance(node, (ast.Assign, ast.AugAssign)) and any(
        isinstance(target, ast.Subscript) and getattr(target.value, "attr", None) in fields
        for target in getattr(node, "targets", [getattr(node, "target", None)])))
    assert written == []


def test_one_gamma2_assembly_for_every_local_form():
    # one stacked function assembles Gamma2 by blocks, which the curvature
    # function's n-free forms (made once per stack, for the padded stacks and
    # cd_check's shape groups alike) and the condition-(5) forms read as they
    # are, with no (B, s, s) stack; only the one-centre form places them into
    # a full form, and no second placement is left in the library.
    # Condition (5) takes its blocks from one helper, which the construction's
    # probes call and its returned report does not
    assert _calls_of("_gamma2_blocks") == [
        ("curvature", "_forms"), ("operators", "_gamma2_matrix"), ("rigidity", "_interior_blocks")]
    assert _calls_of("_forms") == [("curvature", "_laid_stacks"), ("curvature", "cd_check")]
    assert [path.name for path in sorted((ROOT / "src" / "steklov").glob("*.py"))
            if "_gamma2_forms" in path.read_text()] == []
    assert _calls_of("_interior_blocks") == [
        ("rigidity", "_interior_inequality"), ("rigidity", "assemble_interior_form"), ("rigidity", "probe")]
    assert _calls_of("_gamma_forms") == [("operators", "_gamma2_blocks"), ("operators", "_gamma_matrix")]
    assert _calls_of("_pinned_forms") == []


def test_the_gamma2_assembly_reads_the_weights_at_one_site():
    # W is exactly symmetric, so the 2-ball kernel gathers the rows W[B1, ball]
    # once and takes the columns W[ball, B1] as their transpose
    reads = _enclosing_functions(lambda node: isinstance(node, ast.Attribute) and node.attr == "weights")
    assert reads.count(("operators", "_gamma2_blocks")) == 1


def test_pads_are_known_to_the_curvature_function_alone():
    # a pad repeats the centre, so the assembly takes no mask; the curvature
    # function alone knows the pads: it lays the 2-balls out in padded stacks
    # within its pad budget (the pad mask and the S1 pad slots, built at one
    # site), zeroes the pad rows and columns, fills the S1 pad diagonals,
    # lets S2 pads pass kernel_ok and cuts the pads from the witnesses
    assert list(inspect.signature(steklov.operators._gamma2_blocks).parameters) == ["g", "balls", "k"]
    pads = ("pad", "fill", "PAD_ENTRIES")
    named = _enclosing_functions(lambda node: (isinstance(node, ast.Name) and node.id in pads)
                                 or (isinstance(node, ast.arg) and node.arg in pads)
                                 or (isinstance(node, ast.Attribute) and node.attr in pads))
    assert sorted(set(named), key=lambda site: (site[0], site[1] or "")) == [
        ("curvature", None), ("curvature", "_curvature_stacks"), ("curvature", "_finish_stack"),
        ("curvature", "_forms"), ("curvature", "_laid_stacks"), ("curvature", "_pencils")]
    built = _enclosing_functions(lambda node: isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id in pads for target in node.targets))
    assert built == [("curvature", None)] + [("curvature", "_laid_stacks")] * 2


def test_one_degree_array():
    # Deg(x) = sum_y w_xy / m_x is one cached array of the graph, and the
    # weight sums one cached row sum of W: no other site divides the weight
    # sums by the measures or sums the rows of W again (the Laplacian divides
    # W u - (sum_y w_xy) u by the measures, which is not a degree)
    divisions = _enclosing_functions(lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                                     and "weight_sums" in _loaded_names(node.left)
                                     and "weights" not in _loaded_names(node.left)
                                     and "measures" in _loaded_names(node.right))
    assert divisions == [("graphs", "_degrees")]
    row_sums = _enclosing_functions(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                                    and node.func.attr == "sum" and isinstance(node.func.value, ast.Attribute)
                                    and node.func.value.attr == "weights")
    assert row_sums == [("graphs", "weight_sums")]


def test_eigenvector_sign_fix_and_ball_ids_run_only_where_they_are_read():
    # a caller that reads eigenvalues or global minima alone pays for neither:
    # Spectrum.vectors and the curvature finishing step fix the signs, and
    # ball ids are gathered for cd_check's records and that finishing step
    assert _calls_of("_sign_fix") == [("curvature", "_finish_stack"), ("spectra", "vectors")]
    assert _calls_of("_ball_ids") == [("curvature", "_finish_stack"), ("curvature", "cd_check")]


def test_one_cd_route():
    # CD(K, n) is decided from the curvature function's pencils alone:
    # cd_check and the curvature stacks share the one pencil step and the
    # one lift of a pencil vector to the 2-ball; cd_check places no full
    # pinned form and solves its pencils through the per-vertex verdict
    assert _calls_of("_pencils") == [("curvature", "_curvature_stacks"), ("curvature", "cd_check")]
    assert _calls_of("_lift") == [("curvature", "_finish_stack"), ("curvature", "_lift_rows")]
    assert ("curvature", "cd_check") not in _calls_of("_gamma2_matrix")
    assert sorted(set(_calls_of("_vertex_checks"))) == [("curvature", "cd_check"), ("rigidity", "_interior_inequality")]
    # kappa is one eigvalsh value wherever it is read; eigh runs only for witnesses
    assert [site for site in _calls_of("eigvalsh") if site[0] == "curvature"] == [
        ("curvature", "_curvature_stacks"), ("curvature", "_psd_verdict")]
    assert [site for site in _calls_of("eigh") if site[0] == "curvature"] == [
        ("curvature", "_finish_stack"), ("curvature", "_psd_verdict")]


def test_structural_diagnostics_run_on_read_and_conditions_share_one_tolerance_rule():
    # check_rigidity's verdict reads no diagnostic: only the report's
    # diagnostics (and the CLI's ball-scan command) run them; conditions (1)-(4)
    # and the classifiers judge agreement through one rule
    assert _calls_of("steklov_eigenfunction_diagnostics") == [("rigidity", "diagnostics")]
    assert _calls_of("two_ball_identity_check") == [("rigidity", "diagnostics")]
    assert _calls_of("disjoint_ball_scan") == [("cli", "_cmd_ball_scan"), ("rigidity", "diagnostics")]
    uses = _enclosing_functions(lambda node: isinstance(node, ast.Name) and node.id == "CONDITION_TOL")
    assert [site for site in uses if site[0] == "rigidity"] == [("rigidity", "_close")]


def test_the_s2_block_is_inverted_exactly_and_carries_no_verdict_field():
    # every real S2 pivot is positive by construction, so curvature needs no
    # zero threshold; the relative zero tolerance serves the sign fix alone
    readers = _enclosing_functions(lambda node: isinstance(node, ast.Name) and node.id == "ZERO_TOL"
                                   and isinstance(node.ctx, ast.Load))
    assert readers == [("spectra", "_sign_fix")]
    assert "s2_lambda_min" not in {f.name for f in dataclasses.fields(steklov.CurvatureResult)}


def test_one_route_to_lapack():
    # every factorization, solve and symmetric eigensolve goes through
    # steklov._lapack, the one module that names numpy's private linalg
    # gufuncs: a numpy release that renames them fails tests/test_lapack.py
    # by name, and no second route through np.linalg hides the break
    wrapped = {"cholesky", "solve", "eigh", "eigvalsh"}
    np_linalg_calls = _enclosing_functions(lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in wrapped
        and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"))
    assert np_linalg_calls == []
    imported = _enclosing_functions(lambda node: isinstance(node, ast.ImportFrom) and node.module
                                    and node.module.startswith("numpy.linalg")
                                    and wrapped.intersection(alias.name for alias in node.names))
    assert imported == []
    naming = _enclosing_functions(lambda node: (isinstance(node, ast.Name) and node.id == "_umath_linalg")
                                  or (isinstance(node, ast.Attribute) and node.attr == "_umath_linalg")
                                  or (isinstance(node, ast.alias) and "_umath_linalg" in node.name))
    assert {module for module, _ in naming} == {"_lapack"}
    routed = {site for name in wrapped for site in _calls_of(name) if site[0] != "_lapack"}
    assert routed == {("graphs", "interior_cholesky"), ("spectra", "_schur"), ("spectra", "harmonic_extension"),
                      ("spectra", "_generalized_spectrum"), ("spectra", "steklov_eigenfunction_diagnostics"),
                      ("curvature", "_psd_verdict"), ("curvature", "_curvature_stacks"),
                      ("curvature", "_finish_stack")}
