"""Equality conditions, classification, structural scans, and construction."""

import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import steklov._lapack
import steklov.curvature
import steklov.operators
import steklov.rigidity
import steklov.spectra
from steklov import (
    VertexFunction,
    assemble_interior_form,
    attach_boundary,
    build_graph,
    cd_check,
    check_interior_inequality,
    check_necessary_conditions,
    check_rigidity,
    classify_normalized,
    classify_partial,
    classify_unit_weight,
    construct_rigid_family,
    curvature_profile,
    disjoint_ball_scan,
    induced_interior_graph,
    join_equality_boundary,
    laplacian_spectrum,
    make_example,
    steklov_spectrum,
    two_ball_identity_check,
)
from steklov.errors import (
    FeasibilitySearchFailed,
    InteriorCurvatureNotPositive,
    InteriorNotComplete,
    InvalidParams,
    NotInteriorVertex,
    PreconditionViolated,
    WrongHypothesis,
    WrongWeightClass,
)
from steklov.curvature import _psd_rule, _psd_verdict
from steklov.graphs import INF, PSD_TOL, BoundaryGraph, WeightedGraph
from steklov.rigidity import RigidityClass

from oracles import (
    assert_close,
    gamma,
    gamma2,
    interior_form_by_scatter,
    interior_form_termwise,
    lemma_delta_boundary,
    lemma_delta_interior,
    lemma_gamma2_boundary,
    lemma_gamma2_interior,
    lemma_gamma_boundary,
    lemma_gamma_interior,
    necessary_conditions_by_loop,
    random_a1a4_graph,
    random_boundary_graph,
    random_connected_graph,
    random_function,
    random_join_boundary_graph,
    rigidity_diagnostics_eagerly,
    unit_grid,
)
from steklov.operators import laplacian


def unit_path(n, boundary):
    g = build_graph(
        [(str(i), 1) for i in range(1, n + 1)],
        [(str(i), str(i + 1), 1) for i in range(1, n)],
    )
    return attach_boundary(g, boundary)


def complete_interior_graph(size, weight=1.0):
    ids = [f"x{i}" for i in range(1, size + 1)]
    return build_graph(
        [(v, 1.0) for v in ids],
        [(ids[i], ids[j], weight) for i in range(size) for j in range(i + 1, size)],
        relaxed=(size == 1),
    )


# ---------------------------------------------------------------------------
# conditions (1)-(4)
# ---------------------------------------------------------------------------

def test_necessary_conditions_weighted_path():
    bg = make_example("weighted_path3", n=3, K=2 / 3, m=1)
    nec = check_necessary_conditions(bg, 2 / 3, 3)
    assert nec.passed
    assert nec.boundary_measure == pytest.approx(1.0)


def test_necessary_conditions_c4_infinite():
    nec = check_necessary_conditions(make_example("unit_square"), 2, INF)
    assert nec.passed


def test_necessary_conditions_p5_fails():
    nec = check_necessary_conditions(unit_path(5, {"1", "5"}), 1, 3)
    cond1 = nec.checks[0]
    assert not cond1.passed
    # an interior vertex not adjacent to both boundary vertices is named
    assert any(f"'{v}'" in cond1.detail for v in ("2", "3", "4"))


def test_necessary_conditions_witnesses():
    bg = make_example("weighted_path3", n=3, K=2 / 3, m=1)
    g = bg.graph
    # break condition 2 by perturbing one boundary weight
    tweaked = build_graph(
        [(v, g.measures[i]) for i, v in enumerate(g.vertices)],
        [("1", "x", 1.01), ("2", "x", 1.0)],
    )
    nec = check_necessary_conditions(attach_boundary(tweaked, {"1", "2"}), 2 / 3, 3)
    assert not nec.checks[1].passed
    assert not nec.passed


def with_data(bg, measures=None, weights=None):
    """bg with the given measures and weights in place of its own."""
    g = bg.graph
    return attach_boundary(WeightedGraph(g.vertices, g.measures if measures is None else measures,
                                         g.weights if weights is None else weights), set(bg.boundary))


def test_array_conditions_equal_the_per_vertex_loop():
    # conditions (1)-(4) read W[B, Omega] and the degrees as arrays; each
    # verdict, witness and the boundary measure must equal the scalar loop's,
    # on graphs where all hold and where each one fails first
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(12):
        bg, K, n, _ = random_a1a4_graph(rng, interior_size=int(rng.integers(2, 6)))
        g = bg.graph
        (b1, b2), oi = bg.boundary_indices, bg.interior_indices
        x, y = rng.choice(oi, 2, replace=False)
        unjoined = g.weights.copy()
        unjoined[b1, x] = unjoined[x, b1] = 0.0  # (1) first: x loses its edge to b1
        lopsided = g.weights.copy()
        lopsided[b2, y] = lopsided[y, b2] = 1.5 * g.weights[b2, y]  # (2) first, by the weights at y
        heavier = g.measures.copy()
        heavier[[b1, b2]] *= 2.0  # (3) alone: both boundary degrees halve
        heavy_x = g.measures.copy()
        heavy_x[y] *= 1.5  # (4) alone
        unequal = g.measures.copy()
        unequal[b2] *= 1.5  # (2) first, by the measures
        cases += [(bg, K, n), (with_data(bg, weights=unjoined), K, n), (with_data(bg, weights=lopsided), K, n),
                  (with_data(bg, measures=heavier), K, n), (with_data(bg, measures=heavy_x), K, n),
                  (with_data(bg, measures=unequal), K, n)]
    for size in (2, 2, 3):
        bg = random_join_boundary_graph(rng, boundary_size=size)
        cases.append((bg, 1.0, 3.0))
    failing = Counter()
    for bg, K, n in cases:
        got, want = check_necessary_conditions(bg, K, n), necessary_conditions_by_loop(bg, K, n)
        assert got == want
        assert type(got.boundary_measure) is type(want.boundary_measure)
        failing[tuple(not c.passed for c in got.checks)] += 1
    assert (False,) * 4 in failing
    for index in range(4):
        assert any(key[index] and not any(key[:index]) for key in failing), f"({index + 1}) never fails first"


# ---------------------------------------------------------------------------
# the interior form (condition 5)
# ---------------------------------------------------------------------------

def test_interior_form_c4_is_zero():
    c4 = make_example("unit_square")
    for x in c4.interior:
        form = assemble_interior_form(c4, 2, INF, x)
        assert form.matrix.shape == (1, 1)
        assert abs(form.matrix[0, 0]) <= 1e-12


def test_interior_form_single_interior_vertex_is_empty():
    bg = make_example("weighted_path3", n=3, K=2 / 3, m=1)
    form = assemble_interior_form(bg, 2 / 3, 3, "x")
    assert form.matrix.shape == (0, 0)


def test_interior_form_characteristic_function_value():
    # edgeless interior: on f = 1 off the pinned vertex only the <f,f> and
    # <f,1>^2 terms survive
    rng = np.random.default_rng(0)
    bg, K, n, m = random_a1a4_graph(rng, n=5.0, interior_size=4, edge_prob=0.0)
    x = bg.interior[0]
    form = assemble_interior_form(bg, K, n, x)
    rest = [v for v in bg.interior if v != x]
    value = form.evaluate(VertexFunction(form.index_map, np.ones(len(rest))))
    v_rest = float(sum(bg.graph.measure(v) for v in rest))
    a3 = (n + 2) ** 2 * K**2 / (8 * m * (n - 1) ** 2)
    a5 = n * (n + 2) ** 2 * K**2 / (8 * (n - 2) * (n - 1) ** 2 * m**2)
    assert value == pytest.approx(a3 * v_rest - a5 * v_rest**2, rel=1e-10)


def test_interior_form_matches_termwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        bg, K, n, m = random_a1a4_graph(rng)
        if n <= 2.0 and not math.isinf(n):
            n = 4.0
            bg, K, n, m = random_a1a4_graph(rng, n=n)
        x = bg.interior[int(rng.integers(0, len(bg.interior)))]
        form = assemble_interior_form(bg, K, n, x)
        values = rng.standard_normal(len(bg.interior))
        values[list(bg.interior).index(x)] = 0.0
        f = VertexFunction(bg.interior, values)
        direct = form.evaluate(VertexFunction(form.index_map, f.on(form.index_map)))
        oracle = interior_form_termwise(bg, K, n, x, f)
        assert_close(direct, oracle, rel=1e-10, context="interior form")


def test_interior_form_preconditions():
    p5 = unit_path(5, {"1", "5"})
    with pytest.raises(PreconditionViolated):
        assemble_interior_form(p5, 1, 3, "3")
    bg = make_example("weighted_path3", n=3, K=2 / 3, m=1)
    with pytest.raises(PreconditionViolated):
        assemble_interior_form(bg, 2 / 3, 2, "x")  # n = 2 has no form
    with pytest.raises(NotInteriorVertex):
        assemble_interior_form(bg, 2 / 3, 3, "1")


def test_check_interior_inequality_branches():
    c4 = make_example("unit_square")
    assert check_interior_inequality(c4, 2, INF).passed

    p3 = make_example("unit_path3")
    rep = check_interior_inequality(p3, 0.5, 2)
    assert rep.passed and rep.branch == "n=2"

    wp = make_example("weighted_path3", n=1.5, K=1, m=1)
    rep = check_interior_inequality(wp, 1, 1.5)
    assert not rep.passed and rep.branch == "1<n<2"

    # the interior inequality is exactly the curvature condition at interior
    # vertices (boundary vertices always satisfy it)
    rng = np.random.default_rng(2)
    agree = 0
    for _ in range(20):
        bg, K, n, m = random_a1a4_graph(rng)
        if n == 2.0:
            continue
        rep = check_interior_inequality(bg, K, n)
        cd = cd_check(bg.graph, K, n)
        cd_interior = all(
            c.holds for c in cd.checks if c.vertex in set(bg.interior)
        )
        assert rep.passed == cd_interior
        agree += 1
    assert agree >= 12


def test_interior_inequality_lambda_threshold():
    # K2 interior at n = 4: feasible at lam = 1, infeasible at lam = 0.05
    small = make_example("complete_interior", interior_size=2, n=4, K=1, m=1, lam=0.05)
    rep = check_interior_inequality(small, 1, 4)
    assert not rep.passed
    bad = [c for c in rep.vertex_checks if not c.holds]
    assert bad
    for check in bad:  # each witness is pinned at its vertex and makes the form negative
        form = assemble_interior_form(small, 1, 4, check.vertex)
        assert check.witness[check.vertex] == 0.0
        assert form.evaluate(check.witness) < 0.0
    large = make_example("complete_interior", interior_size=2, n=4, K=1, m=1, lam=1.0)
    assert check_interior_inequality(large, 1, 4).passed


def random_interiors(seed, count):
    """(bg, K, n, m) over random 1-12 vertex interiors, cycling through edgeless,
    complete, sparse (disconnected, isolated vertices) and half-dense ones."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        size = 1 if t % 7 == 0 else int(rng.integers(2, 13))
        yield random_a1a4_graph(rng, n=(3.0, 10.0, INF)[t % 3], interior_size=size,
                                edge_prob=(0.0, 1.0, 0.15, 0.5)[t % 4])


def vertex_check_summary(rep):
    """Every field of each vertex check down to its bytes."""
    return tuple((c.vertex, c.holds, np.float64(c.lambda_min).tobytes(), np.float64(c.form_norm).tobytes())
                 + (() if c.witness is None else (c.witness.domain, c.witness.values.tobytes()))
                 for c in rep.vertex_checks)


def test_stacked_interior_forms_match_the_one_centre_form_bitwise():
    verdicts = Counter()
    for bg, K, n, m in random_interiors(7, 28):
        ig = induced_interior_graph(bg)
        m = check_necessary_conditions(bg, K, n).boundary_measure
        centres = range(ig.num_vertices)
        forms, scales = steklov.rigidity._interior_forms(
            ig, K, n, m, centres, steklov.rigidity._interior_blocks(ig, centres))
        rep = check_interior_inequality(bg, K, n)
        assert len(rep.vertex_checks) == ig.num_vertices
        for x, form, scale, check in zip(ig.vertices, forms, scales, rep.vertex_checks):
            one = assemble_interior_form(bg, K, n, x)
            assert form.tobytes() == one.matrix.tobytes() and scale == one.scale
            assert form.tobytes() == interior_form_by_scatter(ig, K, n, m, x).tobytes()
            assert check.vertex == x
            if ig.num_vertices == 1:  # the 0 x 0 form never reaches eigh
                assert (check.holds, check.lambda_min, check.form_norm, check.witness) == (True, INF, 0.0, None)
                verdicts["empty"] += 1
                continue
            (lam,), _, (ok,), vecs = _psd_verdict(one.matrix[None], lambda norm: PSD_TOL * np.maximum(norm, one.scale))
            assert (check.holds, check.lambda_min) == (bool(ok), float(lam))
            verdicts[check.holds] += 1
            if ok:
                assert check.witness is None
            else:
                assert check.witness.domain == (x,) + one.index_map
                assert check.witness.values.tobytes() == np.concatenate([[0.0], vecs[0]]).tobytes()
    assert min(verdicts[True], verdicts[False], verdicts["empty"]) > 0


def test_complete_interior_forms_match_the_scatter_bitwise(monkeypatch):
    # the flat-index stack equals the one-vertex np.ix_ scatter on the rigid
    # complete interiors, whole, as sub-ranges of centres and in the chunks a
    # lowered FORM_STACK_ENTRIES makes check_interior_inequality build
    for size, n in ((10, 10.0), (20, 10.0), (10, 6.0), (20, 6.0)):
        bg = construct_rigid_family(complete_interior_graph(size), n, 1.0, 1.0).graph
        ig = induced_interior_graph(bg)
        m = check_necessary_conditions(bg, 1.0, n).boundary_measure
        reference = [interior_form_by_scatter(ig, 1.0, n, m, x).tobytes() for x in ig.vertices]
        for centres in (range(size), range(3, 7), range(size - 1, size)):
            forms, _ = steklov.rigidity._interior_forms(
                ig, 1.0, n, m, centres, steklov.rigidity._interior_blocks(ig, centres))
            assert [form.tobytes() for form in forms] == reference[centres.start:centres.stop]
        seen = recorded_vertex_checks(monkeypatch, steklov.rigidity)
        calls = chunked(monkeypatch, size, 3)
        assert check_interior_inequality(bg, 1.0, n).passed
        assert calls["_interior_forms"] == -(-size // 3)
        assert [form.tobytes() for forms, _, _ in seen for form in forms] == reference
        monkeypatch.undo()


def recorded_vertex_checks(monkeypatch, module):
    """Every (forms, (tol, domain, lift, shift), checks) that module's calls of _vertex_checks see, appended to the returned list."""
    seen, build = [], module._vertex_checks

    def spy(forms, tol, vertices, domain, lift=None, shift=0.0):
        checks = build(forms, tol, vertices, domain, lift, shift)
        seen.append((forms.copy(), (tol, domain, lift, shift), checks))
        return checks

    monkeypatch.setattr(module, "_vertex_checks", spy)
    return seen


def assert_verdicts_match_full_eigh(seen, verdicts):
    # the reference decides every form from the full eigh of its stack, and
    # lifts the failing forms' vectors from that stack to their witnesses
    for forms, (tol, domain, lift, shift), checks in seen:
        if not forms.shape[-1]:
            continue
        evals, evecs = np.linalg.eigh(forms)
        lam, _, holds = _psd_rule(evals - shift, tol)
        failing = np.flatnonzero(~holds)
        lifted = iter(evecs[failing, :, 0] if lift is None or not len(failing) else lift(failing, evecs[failing, :, 0]))
        for j, (form, low, ok, vec, check) in enumerate(zip(forms, lam.tolist(), holds.tolist(), evecs[..., 0], checks)):
            assert check.holds == ok
            assert abs(check.lambda_min - low) <= 1e-12 * check.form_norm
            verdicts[ok] += 1
            if not ok:
                assert check.witness.domain == domain(j)
                assert check.witness.values.tobytes() == np.concatenate([[0.0], next(lifted)]).tobytes()
                assert vec @ form @ vec < shift


def test_values_first_psd_verdicts_match_the_full_eigh(monkeypatch):
    # eigvalsh decides, and eigh runs on the failing forms alone: same verdicts,
    # lambda_min at rounding level, and witnesses bitwise the full-stack ones
    seen, verdicts = recorded_vertex_checks(monkeypatch, steklov.rigidity), Counter()
    for bg, K, n, m in random_interiors(7, 28):
        check_interior_inequality(bg, K, n)
    assert_verdicts_match_full_eigh(seen, verdicts)
    assert min(verdicts[True], verdicts[False]) > 0
    seen, verdicts = recorded_vertex_checks(monkeypatch, steklov.curvature), Counter()
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_connected_graph(rng, n_min=3, n_max=20)
        kappas = [r.kappa for r in curvature_profile(g, (3.0,)).results[3.0].values()]
        cd_check(g, float(np.median(kappas)), 3.0)  # about half the vertices fail
    assert_verdicts_match_full_eigh(seen, verdicts)
    assert min(verdicts[True], verdicts[False]) > 0


def test_no_eigenvectors_when_every_form_passes(monkeypatch):
    # a rigid complete interior passes condition (5) at every vertex, and a K
    # below every kappa passes CD(K, n) everywhere: no witness, so no eigh
    bg = construct_rigid_family(complete_interior_graph(12), 10.0, 1.0, 1.0).graph
    calls = Counter()
    count_calls(monkeypatch, calls, steklov._lapack, "eigh")
    count_calls(monkeypatch, calls, steklov._lapack, "eigvalsh")
    report = check_interior_inequality(bg, 1.0, 10.0)
    assert report.passed and len(report.vertex_checks) == 12
    assert calls == {"eigvalsh": 1}
    assert cd_check(bg.graph, -1.0, 10.0).holds  # two 2-ball shapes: boundary and interior vertices
    assert calls == {"eigvalsh": 1 + 2}
    assert not cd_check(bg.graph, 10.0, 10.0).holds
    assert calls == {"eigvalsh": 1 + 2 + 2, "eigh": 2}


def count_calls(monkeypatch, calls, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def chunked(monkeypatch, size, step):
    """Cap the form stack at step centres of a size-vertex interior; count the stacks built."""
    monkeypatch.setattr(steklov.rigidity, "FORM_STACK_ENTRIES", step * size**2)
    calls = Counter()
    count_calls(monkeypatch, calls, steklov.rigidity, "_interior_forms")
    return calls


def test_interior_inequality_chunks_give_the_same_report(monkeypatch):
    rng = np.random.default_rng(11)
    bg, K, n, _ = random_a1a4_graph(rng, n=10.0, interior_size=12, edge_prob=0.5)
    whole = check_interior_inequality(bg, K, n)
    calls = chunked(monkeypatch, 12, 4)
    split = check_interior_inequality(bg, K, n)
    assert calls["_interior_forms"] == 3
    assert (split.passed, split.detail) == (whole.passed, whole.detail)
    assert vertex_check_summary(split) == vertex_check_summary(whole)


def test_interior_inequality_assembles_once_per_shape_group_and_chunk(monkeypatch):
    rng = np.random.default_rng(3)
    bg, K, n, _ = random_a1a4_graph(rng, n=3.0, interior_size=12, edge_prob=0.3)
    calls = chunked(monkeypatch, 12, 4)
    for module in (steklov.operators, steklov.curvature, steklov.rigidity):
        count_calls(monkeypatch, calls, module, "_gamma2_matrix")
    count_calls(monkeypatch, calls, steklov.rigidity, "_gamma2_blocks")
    check_interior_inequality(bg, K, n)
    ig = induced_interior_graph(bg)
    groups = sum(len(ig._shape_groups(range(start, start + 4))) for start in (0, 4, 8))
    assert groups > 3  # some chunk holds several 2-ball shapes
    assert calls == Counter(_interior_forms=3, _gamma2_blocks=groups)


# ---------------------------------------------------------------------------
# full rigidity decision
# ---------------------------------------------------------------------------

def test_grid_join_is_not_rigid_at_any_interior_weight_scale():
    # the 8 x 8 unit grid joined to the equality boundary attains the bound
    # but has kappa < 1 at some vertex (min kappa -0.0428 at lam = 1, -0.0442
    # at lam = 50), so CD(1, 10) fails; judged on the full form by PSD_TOL
    # times its largest entry, which grows like lam^2, CD held at lam = 50
    for lam in (1.0, 50.0):
        bg = join_equality_boundary(unit_grid(8).rescaled_weights(lam), n=10, K=1, m=1)
        assert curvature_profile(bg.graph, (10.0,)).global_min[10.0][0] < 1.0 - 1e-3
        report = check_rigidity(bg, 1, 10)
        assert not report.cd_holds
        assert report.classification.label is RigidityClass.NOT_RIGID


def test_check_rigidity_equality_graphs():
    cases = [
        (make_example("unit_path3"), 0.5, 2, RigidityClass.UNIT_PATH3),
        (make_example("unit_square"), 2, INF, RigidityClass.UNIT_SQUARE),
        (make_example("unit_square_diag"), 2, INF, RigidityClass.UNIT_SQUARE_DIAG),
        (make_example("weighted_path3", n=3, K=2 / 3, m=1), 2 / 3, 3, RigidityClass.WEIGHTED_PATH3),
        (make_example("weighted_square", K=3, m=2), 3, INF, RigidityClass.WEIGHTED_SQUARE),
    ]
    for bg, K, n, label in cases:
        rep = check_rigidity(bg, K, n)
        assert rep.is_rigid, label
        assert rep.classification.label is label
        assert rep.consistent
        # equality graphs: interior eigenfunction norm and the distance-2
        # identity residual both vanish
        assert rep.diagnostics["sigma2_interior_norm"] <= 1e-9
        assert rep.diagnostics["mu2_residual"] <= 1e-9
        assert rep.diagnostics["two_ball_max_residual"] <= 1e-9


def test_check_rigidity_p5_not_rigid():
    # The middle vertex of P5 sees Z locally, so the global curvature is 0 at
    # every n: CD(K, n) fails for every K > 0 and the graph is not rigid.
    p5 = unit_path(5, {"1", "5"})
    profile = curvature_profile(p5.graph, [2.0, 3.0, 5.0, 10.0, INF])
    for n in profile.n_values:
        assert abs(profile.global_min[n][0]) <= PSD_TOL
    for n in (3.0, INF):
        rep = check_rigidity(p5, 0.1, n)
        assert not rep.cd_holds
        assert not rep.bound_equality
        assert not rep.all_conditions_hold
        assert rep.consistent
        assert rep.classification.label is RigidityClass.NOT_RIGID


def test_check_rigidity_single_boundary_vertex():
    bg = unit_path(3, {"1"})
    rep = check_rigidity(bg, 0.5, 2)
    assert rep.sigma2 is None
    assert not rep.bound_equality
    assert not rep.conditions[0].passed
    assert rep.consistent


def test_check_rigidity_validates_params():
    p3 = make_example("unit_path3")
    with pytest.raises(InvalidParams):
        check_rigidity(p3, 0, 2)
    with pytest.raises(InvalidParams):
        check_rigidity(p3, -1, 2)


def test_a_degree_target_that_overflows_is_an_input_error():
    # nK/(n-1) = inf took every finite degree as within tolerance of it:
    # classify_partial matched weighted_path3 at K = 1e308, and check_rigidity
    # passed conditions (3)-(4) and then crashed in condition (5)'s eigvalsh
    path3 = make_example("weighted_path3", n=3, K=1, m=1)
    interior = make_example("complete_interior", interior_size=3, n=10, K=1, m=1)
    for call, args in ((classify_partial, (path3, 1e308, 3)), (check_rigidity, (interior, 1e308, 10)),
                       (check_necessary_conditions, (interior, 1e308, 10)),
                       (check_interior_inequality, (interior, 1e308, 10))):
        with pytest.raises(InvalidParams, match="degree target"):
            call(*args)


def test_the_construction_needs_an_interior_vertex():
    # an interior with no vertex reached the join's division by its measure sum, 0.0
    empty = WeightedGraph((), [], np.zeros((0, 0)))
    for lam in (None, 2.0):
        with pytest.raises(InvalidParams, match="a graph needs at least one vertex"):
            construct_rigid_family(empty, 3.0, 1.0, 1.0, lam)


def test_a_weight_target_that_overflows_matches_no_weight():
    # the degree targets are finite, but m nK/(n-1) overflows: no finite
    # boundary weight is close to it
    heavy = make_example("weighted_path3", n=3, K=1, m=1e10)
    assert classify_partial(heavy, 1, 3).matched
    assert not classify_partial(heavy, 1e300, 3).matched
    assert not steklov.rigidity._close(5.0, math.inf) and not steklov.rigidity._close(-math.inf, 1.0)


def test_check_rigidity_rejects_a_bool_k():
    with pytest.raises(InvalidParams):
        check_rigidity(make_example("unit_square"), True, INF)


def test_check_rigidity_decides_conditions_once(monkeypatch):
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(steklov.rigidity, "check_necessary_conditions")
    count(steklov.spectra, "laplacian_spectrum")
    bg = make_example("complete_interior", interior_size=5, n=10, K=1, m=1)
    rep = check_rigidity(bg, 1, 10)
    assert rep.interior_report is not None  # conditions (1)-(4) hold, so (5) ran
    assert calls.get("check_necessary_conditions") == 1
    assert calls.get("laplacian_spectrum", 0) == 0


def test_structural_diagnostics_are_built_on_first_read(monkeypatch):
    # the verdict never reads the sigma_2 eigenfunction checks (the
    # residual-checked harmonic solve), the two-ball residuals or the ball
    # scan: each runs once, on the first read of diagnostics
    calls = Counter()
    for name in ("steklov_eigenfunction_diagnostics", "two_ball_identity_check", "disjoint_ball_scan"):
        count_calls(monkeypatch, calls, steklov.rigidity, name)
    rigid = make_example("complete_interior", interior_size=5, n=10, K=1, m=1)
    for bg, K, n, solves in ((rigid, 1, 10, 1), (unit_path(3, {"1"}), 0.5, 2, 0)):
        calls.clear()
        rep = check_rigidity(bg, K, n)
        _ = (rep.cd_holds, rep.sigma2, rep.slack, rep.bound_equality, rep.conditions, rep.interior_report,
             rep.classification, rep.is_rigid, rep.consistent, rep.all_conditions_hold)
        assert +calls == Counter()
        first = rep.diagnostics
        read = Counter(steklov_eigenfunction_diagnostics=solves, two_ball_identity_check=solves, disjoint_ball_scan=1)
        assert +calls == read
        assert rep.diagnostics is first
        assert +calls == read


def exact(diagnostics):
    """The dict's items with floats as their round-trip reprs, so equal means bitwise equal."""
    return [(k, repr(float(v)) if isinstance(v, float) else v) for k, v in diagnostics.items()]


def test_diagnostics_read_later_equal_the_eager_dict():
    rng = np.random.default_rng(8)
    cases = [(make_example("unit_path3"), 0.5, 2), (make_example("unit_square"), 2, INF),
             (make_example("unit_square_diag"), 2, INF), (make_example("weighted_path3", n=3, K=2 / 3, m=1), 2 / 3, 3),
             (make_example("weighted_square", K=3, m=2), 3, INF), (unit_path(3, {"1"}), 0.5, 2)]
    cases += [(make_example("complete_interior", interior_size=size, n=10, K=1, m=1), 1, 10) for size in range(3, 7)]
    cases += [(random_boundary_graph(rng), 0.5, float(rng.choice([3.0, INF]))) for _ in range(12)]
    for bg, K, n in cases:
        got = check_rigidity(bg, K, n).diagnostics
        assert exact(got) == exact(rigidity_diagnostics_eagerly(bg))
        assert not any(isinstance(v, np.generic) for v in got.values())


def test_repeated_rigidity_calls_walk_the_interior_two_balls_once(monkeypatch):
    # the interior-induced graph is kept on the boundary graph, and each call
    # walks its 2-balls once, for condition (5); the reports are those of
    # fresh graphs
    walked, walk = [], WeightedGraph._shape_groups
    monkeypatch.setattr(WeightedGraph, "_shape_groups",
                        lambda self, centres: walked.append(self) or walk(self, centres))

    def rigid():
        return make_example("complete_interior", interior_size=6, n=10, K=1, m=1)

    bg = rigid()
    reports = []
    for calls in range(1, 4):
        reports.append(check_rigidity(bg, 1, 10))
        interior = induced_interior_graph(bg)
        assert [graph for graph in walked if graph is interior] == [interior] * calls
    assert interior is bg.interior_graph and interior.num_vertices == 6
    fresh = check_rigidity(rigid(), 1, 10)
    for rep in reports:
        assert rep.is_rigid and repr(rep) == repr(fresh)
        assert exact(rep.diagnostics) == exact(fresh.diagnostics)


def test_condition_5_on_a_seen_boundary_graph_matches_a_fresh_one_bitwise():
    # nothing of an earlier call's 2-ball walk is kept for condition (5): a
    # second call, or one after check_rigidity, gives a fresh graph's vertex
    # checks byte for byte, witnesses included
    cases = [(bg, K, n) for bg, K, n, _ in random_interiors(9, 28)]
    cases += [(make_example("complete_interior", interior_size=size, n=10, K=1, m=1), 1.0, 10.0) for size in (3, 6)]
    failed = 0
    for bg, K, n in cases:
        g = bg.graph
        fresh = BoundaryGraph(WeightedGraph(g.vertices, g.measures, g.weights), bg.boundary, bg.interior)
        want = check_interior_inequality(fresh, K, n)
        check_rigidity(bg, K, n)
        for _ in range(2):
            got = check_interior_inequality(bg, K, n)
            assert (got.passed, got.detail) == (want.passed, want.detail)
            assert vertex_check_summary(got) == vertex_check_summary(want)
        failed += not want.passed
    assert 0 < failed < len(cases)


def test_rigidity_report_slack_exposed():
    p3 = make_example("unit_path3")
    rep = check_rigidity(p3, 0.5, 2)
    assert rep.slack == pytest.approx(0.0, abs=1e-10)
    rep = check_rigidity(p3, 0.4, 2)
    assert rep.slack == pytest.approx(1.0 - 0.8, rel=1e-9)
    assert not rep.bound_equality


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

def test_classify_unit_weight():
    assert classify_unit_weight(make_example("unit_path3")).label is RigidityClass.UNIT_PATH3
    got = classify_unit_weight(make_example("unit_path3"))
    assert got.params == {"K": 0.5, "n": 2.0}
    assert classify_unit_weight(make_example("unit_square")).label is RigidityClass.UNIT_SQUARE
    assert (classify_unit_weight(make_example("unit_square_diag")).label
            is RigidityClass.UNIT_SQUARE_DIAG)

    # boundary placement matters: the square's adjacent pair is invalid, and a
    # path with one endpoint and the center is not the rigid placement
    p3_wrong = unit_path(3, {"1"})
    assert classify_unit_weight(p3_wrong).label is RigidityClass.NOT_RIGID

    star = build_graph(
        [("c", 1), ("l1", 1), ("l2", 1), ("l3", 1)],
        [("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)],
    )
    bg = attach_boundary(star, {"l1", "l2", "l3"})
    assert classify_unit_weight(bg).label is RigidityClass.NOT_RIGID

    with pytest.raises(WrongWeightClass):
        classify_unit_weight(make_example("weighted_path3", n=3, K=2 / 3, m=1))


def test_classify_partial():
    got = classify_partial(make_example("weighted_path3", n=5, K=1, m=2), 1, 5)
    assert got.label is RigidityClass.WEIGHTED_PATH3
    assert got.params["m"] == pytest.approx(2.0)
    assert got.params["n"] == pytest.approx(5.0)

    got = classify_partial(make_example("weighted_square", K=3, m=1), 3, INF)
    assert got.label is RigidityClass.WEIGHTED_SQUARE

    # 1% perturbation of the interior measure is rejected
    bg = make_example("weighted_path3", n=5, K=1, m=2)
    g = bg.graph
    tweaked = build_graph(
        [(v, g.measures[i] * (1.01 if v == "x" else 1.0)) for i, v in enumerate(g.vertices)],
        g.edge_list(),
    )
    got = classify_partial(attach_boundary(tweaked, {"1", "2"}), 1, 5)
    assert got.label is RigidityClass.NOT_RIGID

    with pytest.raises(WrongHypothesis):
        classify_partial(make_example("unit_square_diag"), 2, INF)

    # the square shape needs n = inf
    got = classify_partial(make_example("weighted_square", K=1, m=1), 1, 5)
    assert got.label is RigidityClass.NOT_RIGID


def test_classify_normalized():
    got = classify_normalized(make_example("weighted_path3", n=INF, K=1, m=1.7))
    assert got.label is RigidityClass.WEIGHTED_PATH3
    assert got.params["K"] == pytest.approx(1.0)
    assert got.params["n"] == INF

    # weighted square with K = 1 is exactly the normalized square analogue
    got = classify_normalized(make_example("weighted_square", K=1, m=2.3))
    assert got.label is RigidityClass.WEIGHTED_SQUARE

    with pytest.raises(WrongWeightClass):
        classify_normalized(make_example("unit_square"))  # Deg = 2 everywhere


def test_classify_normalized_rejects_interior_edges():
    # normalized graph whose interior has an edge: Deg = 1 everywhere but the
    # equality shapes are edgeless inside, so it cannot be rigid
    g = build_graph(
        [("1", 2.0), ("2", 2.0), ("x", 3.0), ("y", 3.0)],
        [("1", "x", 1.0), ("2", "x", 1.0), ("1", "y", 1.0), ("2", "y", 1.0), ("x", "y", 1.0)],
    )
    bg = attach_boundary(g, {"1", "2"})
    got = classify_normalized(bg)
    assert got.label is RigidityClass.NOT_RIGID


# ---------------------------------------------------------------------------
# structural diagnostics
# ---------------------------------------------------------------------------

def test_disjoint_ball_scan():
    c4 = make_example("unit_square")
    scan = disjoint_ball_scan(induced_interior_graph(c4))
    assert scan.pair == ("2", "4")  # singleton balls in an edgeless interior
    assert not scan.connected

    complete = complete_interior_graph(4)
    scan = disjoint_ball_scan(complete)
    assert scan.pair is None
    assert scan.connected and scan.diameter == 1.0

    path9 = build_graph(
        [(str(i), 1) for i in range(1, 10)],
        [(str(i), str(i + 1), 1) for i in range(1, 9)],
    )
    scan = disjoint_ball_scan(path9)
    assert scan.pair == ("1", "6") or scan.pair is not None
    assert scan.diameter == 8.0


def test_two_ball_identity():
    p3 = make_example("unit_path3")
    u = VertexFunction(p3.graph.vertices, [1.0, 0.0, -1.0])
    res = two_ball_identity_check(p3, u)
    assert set(res.residuals) == {("1", "3")}
    assert res.max_abs <= 1e-14

    c = VertexFunction(p3.graph.vertices, [3.0, 3.0, 3.0])
    assert two_ball_identity_check(p3, c).max_abs <= 1e-14

    c4 = make_example("unit_square")
    u = VertexFunction(c4.graph.vertices, [1.0, 0.0, -1.0, 0.0])
    res = two_ball_identity_check(c4, u)
    assert ("2", "4") in res.residuals
    assert res.max_abs <= 1e-14

    from steklov.errors import DomainMismatch
    with pytest.raises(DomainMismatch):
        two_ball_identity_check(c4, VertexFunction(("1", "2"), [1.0, 2.0]))


# ---------------------------------------------------------------------------
# specialized operator formulas on (A1)-(A4) graphs
# ---------------------------------------------------------------------------

def test_lemma_formulas_match_generic_operators():
    rng = np.random.default_rng(3)
    for _ in range(30):
        bg, K, n, m = random_a1a4_graph(rng)
        g = bg.graph
        f = random_function(rng, g.vertices)
        h = random_function(rng, g.vertices)
        x = bg.interior[int(rng.integers(0, len(bg.interior)))]

        assert_close(gamma(g, f, h)[x], lemma_gamma_interior(bg, f, h, x),
                     rel=1e-10, context="gamma interior")
        assert_close(laplacian(g, f)[x], lemma_delta_interior(bg, f, x),
                     rel=1e-10, context="delta interior")
        for which in (0, 1):
            b = bg.boundary[which]
            assert_close(gamma(g, f, h)[b], lemma_gamma_boundary(bg, f, h, which),
                         rel=1e-10, context="gamma boundary")
            assert_close(laplacian(g, f)[b], lemma_delta_boundary(bg, f, which),
                         rel=1e-10, context="delta boundary")

        pinned = f.values.copy()
        pinned[g.index(x)] = 0.0
        fx = VertexFunction(g.vertices, pinned)
        assert_close(gamma2(g, fx, fx)[x], lemma_gamma2_interior(bg, fx, x),
                     rel=1e-10, context="gamma2 interior")
        for which in (0, 1):
            b = bg.boundary[which]
            pinned = f.values.copy()
            pinned[g.index(b)] = 0.0
            fb = VertexFunction(g.vertices, pinned)
            assert_close(gamma2(g, fb, fb)[b], lemma_gamma2_boundary(bg, fb, which),
                         rel=1e-10, context="gamma2 boundary")


def test_boundary_vertices_always_satisfy_cd():
    # under (A1)-(A4) the curvature condition holds at both boundary vertices
    rng = np.random.default_rng(4)
    for _ in range(25):
        bg, K, n, m = random_a1a4_graph(rng)
        report = cd_check(bg.graph, K, n)
        for c in report.checks:
            if c.vertex in set(bg.boundary):
                assert c.holds


# ---------------------------------------------------------------------------
# construction over complete interiors
# ---------------------------------------------------------------------------

def test_construct_single_vertex_reduces_to_weighted_path():
    res = construct_rigid_family(complete_interior_graph(1), 3, 1.0, 1.0)
    assert math.isfinite(res.lam)
    got = classify_partial(res.graph, 1.0, 3)
    assert got.label is RigidityClass.WEIGHTED_PATH3
    rep = check_rigidity(res.graph, 1.0, 3)
    assert rep.is_rigid


def test_construct_k2_and_k3():
    for size, n in ((2, 4.0), (3, 5.0)):
        res = construct_rigid_family(complete_interior_graph(size), n, 1.0, 1.0)
        assert math.isfinite(res.lam)
        assert res.interior_report.passed
        rep = check_rigidity(res.graph, 1.0, n)
        assert rep.is_rigid
        assert rep.classification.label is RigidityClass.GENERAL_EQUALITY


def test_check_rigidity_at_large_weights():
    # the residual of the harmonic extension grows with w/m; judged on an
    # absolute scale it made the interior look singular at weights 1e12
    bg = construct_rigid_family(complete_interior_graph(3), 10.0, 1.0, 1.0).graph
    for scale in (1e-12, 1e6, 1e12):
        scaled = attach_boundary(bg.graph.rescaled_weights(scale), set(bg.boundary))
        rep = check_rigidity(scaled, scale, 10.0)
        assert rep.is_rigid and rep.consistent


def test_construct_explicit_lambda():
    res = construct_rigid_family(complete_interior_graph(2), 4.0, 1.0, 1.0, lam=7.0)
    assert res.lam == 7.0
    assert res.lam_threshold is None
    assert check_rigidity(res.graph, 1.0, 4.0).is_rigid


def test_construction_reports_condition_5_on_the_interior_it_probed(monkeypatch):
    # the returned report comes from the last probe's interior, with no second
    # run of (1)-(4) on the built graph; it equals the check on that graph
    calls = Counter()
    count_calls(monkeypatch, calls, steklov.rigidity, "check_necessary_conditions")
    for size, n, K in ((2, 4.0, 1.0), (3, 5.0, 1.0), (5, 10.0, 1.0), (4, 6.0, 20.0)):
        calls.clear()
        res = construct_rigid_family(complete_interior_graph(size), n, K, 1.0)
        assert calls["check_necessary_conditions"] == 1
        assert res.interior_report == check_interior_inequality(res.graph, K, n)


def test_construct_threshold_bisection():
    # K3 at n = 6 and K = 1e4 fails at lam = 1, so the search doubles to 2048
    # and bisects to a threshold of about 2000.001: the interior fails just
    # below it and passes at it. The returned report, read from the threshold
    # probe's blocks scaled by 4, 2 and 2, is the check on the returned graph
    # bit for bit
    K, n = 1e4, 6.0
    res = construct_rigid_family(complete_interior_graph(3), n, K, 1.0)
    assert res.lam_threshold == pytest.approx(2000.001, rel=1e-6)
    assert res.lam == 2.0 * res.lam_threshold
    assert res.interior_report.passed
    checked = check_interior_inequality(res.graph, K, n)
    assert (res.interior_report.passed, res.interior_report.detail) == (checked.passed, checked.detail)
    assert vertex_check_summary(res.interior_report) == vertex_check_summary(checked)
    for scale, passed in ((res.lam_threshold, True), (res.lam_threshold * (1.0 - 1e-5), False)):
        probe = construct_rigid_family(complete_interior_graph(3), n, K, 1.0, lam=scale)
        assert probe.interior_report.passed is passed


def test_construction_probes_match_probes_on_fresh_graphs(monkeypatch):
    # the first probe rescales the interior-induced graph by 1, which gives
    # that graph itself; a construction whose every rescale builds a fresh
    # graph gives the same lam, threshold and condition-(5) checks bit for bit
    K, n = 1e4, 6.0  # doubles to 2048, then bisects
    got = construct_rigid_family(complete_interior_graph(3), n, K, 1.0)
    monkeypatch.setattr(WeightedGraph, "rescaled_weights",
                        lambda self, lam: WeightedGraph(self.vertices, self.measures, lam * self.weights))
    want = construct_rigid_family(complete_interior_graph(3), n, K, 1.0)
    assert got.lam_threshold != 2048.0
    assert (got.lam, got.lam_threshold) == (want.lam, want.lam_threshold)
    assert vertex_check_summary(got.interior_report) == vertex_check_summary(want.interior_report)


def test_construct_gives_up_above_lambda_max():
    # at K = 1e9 no interior weight scale up to LAMBDA_MAX makes K3 at n = 6 rigid
    with pytest.raises(FeasibilitySearchFailed):
        construct_rigid_family(complete_interior_graph(3), 6.0, 1e9, 1.0)


def test_construction_assembles_gamma2_once_per_probe(monkeypatch):
    # each probe assembles its interior's blocks once (a complete interior is
    # one 2-ball shape in one chunk), and the returned report reads the
    # threshold probe's blocks scaled, with no assembly of its own
    calls = Counter()
    count_calls(monkeypatch, calls, steklov.rigidity, "_gamma2_blocks")
    count_calls(monkeypatch, calls, steklov.rigidity, "_interior_inequality")
    probes = []
    for size, n, K in ((30, 10.0, 1.0), (3, 6.0, 1e4)):
        calls.clear()
        construct_rigid_family(complete_interior_graph(size), n, K, 1.0)
        assert calls["_gamma2_blocks"] == calls["_interior_inequality"] - 1
        probes.append(calls["_gamma2_blocks"])
    assert probes[0] == 1 and probes[1] > 20  # lam = 1 passes at once; K = 1e4 doubles, then bisects


def test_construct_errors():
    incomplete = build_graph(
        [("a", 1), ("b", 1), ("c", 1)], [("a", "b", 1), ("b", "c", 1)]
    )
    with pytest.raises(InteriorNotComplete):
        construct_rigid_family(incomplete, 4, 1, 1)
    with pytest.raises(InteriorCurvatureNotPositive):
        construct_rigid_family(complete_interior_graph(2), 3.0, 1, 1)
    with pytest.raises(InvalidParams):
        construct_rigid_family(complete_interior_graph(2), INF, 1, 1)
    with pytest.raises(InvalidParams):
        construct_rigid_family(complete_interior_graph(2), 2.0, 1, 1)


def test_construct_rejects_a_bool_lambda():
    with pytest.raises(InvalidParams):
        construct_rigid_family(complete_interior_graph(2), 4.0, 1.0, 1.0, lam=True)


def scaled_graph(bg, c, d):
    """w -> c w and m -> d m."""
    g = bg.graph
    return attach_boundary(WeightedGraph(g.vertices, d * g.measures, c * g.weights), set(bg.boundary))


@functools.cache
def rigid_and_twin():
    """An equality graph over a complete K3 interior and its twin with one boundary weight times 1.01."""
    bg = construct_rigid_family(complete_interior_graph(3), 10.0, 1.0, 1.0).graph
    g = bg.graph
    w = g.weights.copy()
    b, x = g.index(bg.boundary[0]), g.index(bg.interior[0])
    w[b, x] = w[x, b] = 1.01 * w[b, x]
    return bg, attach_boundary(WeightedGraph(g.vertices, g.measures, w), set(bg.boundary))


def rigidity_verdict(rep):
    return (rep.bound_equality, tuple(c.passed for c in rep.conditions), rep.is_rigid, rep.consistent,
            rep.classification.label)


@given(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))
def test_rigidity_verdicts_under_weight_and_measure_scaling(log_c, log_d):
    # w -> c w and m -> d m scale sigma_2, the curvature and so K by c/d;
    # equality, conditions (1)-(5) and the label must not move
    c, d = 10.0 ** log_c, 10.0 ** log_d
    rigid, twin = rigid_and_twin()
    for bg, rigid_expected in ((rigid, True), (twin, False)):
        want = check_rigidity(bg, 1.0, 10.0)
        assert want.is_rigid is rigid_expected
        assert rigidity_verdict(check_rigidity(scaled_graph(bg, c, d), c / d, 10.0)) == rigidity_verdict(want)


@functools.cache
def rigid_family(size, n, lam=None):
    return construct_rigid_family(complete_interior_graph(size), n, 1.0, 1.0, lam).graph


def twin_of(bg, rng):
    """bg with one random boundary edge weight times 1.01."""
    g = bg.graph
    b, x = bg.boundary[int(rng.integers(2))], bg.interior[int(rng.integers(len(bg.interior)))]
    edges = [(u, v, w * 1.01 if {u, v} == {b, x} else w) for u, v, w in g.edge_list()]
    return attach_boundary(build_graph(zip(g.vertices, g.measures), edges), set(bg.boundary))


def relabelled(bg, rng):
    """bg with its vertices declared in a random order and its edges in another, endpoints swapped at random."""
    g = bg.graph
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in g.edge_list()]
    moved = build_graph([(g.vertices[k], g.measures[k]) for k in rng.permutation(g.num_vertices)],
                        [edges[k] for k in rng.permutation(len(edges))])
    return attach_boundary(moved, set(bg.boundary))


def assert_same_spectrum(a, b, scale):
    assert np.abs(a.values - b.values).max() <= 1e-12 * scale
    assert [len(grp) for grp in a.multiplicity_groups()] == [len(grp) for grp in b.multiplicity_groups()]


def relabelling_verdict(rep):
    """The rigidity verdicts, with condition (5) at each interior vertex keyed by vertex id."""
    c5 = None if rep.interior_report is None else {c.vertex: c.holds for c in rep.interior_report.vertex_checks}
    return rigidity_verdict(rep), c5


@given(st.integers(0, 2**32 - 1))
def test_spectra_and_rigidity_verdicts_are_invariant_under_relabelling(seed):
    # an equality graph, its twin, the same family below its lam threshold (condition
    # (5) fails at every vertex), a graph meeting (1)-(4) whose condition-(5)
    # verdicts differ between vertices, and a random boundary graph
    rng = np.random.default_rng(seed)
    size, n = int(rng.integers(3, 7)), float(rng.choice([6.0, 10.0]))
    rigid = rigid_family(size, n)
    a1a4, K_a1a4, n_a1a4, _ = random_a1a4_graph(rng, n=float(rng.choice([3.0, INF])), interior_size=size)
    other = random_boundary_graph(rng)
    n_other = float(rng.choice([3.0, INF]))
    K_other = curvature_profile(other.graph, [n_other]).global_min[n_other][0]
    cases = ((rigid, 1.0, n), (twin_of(rigid, rng), 1.0, n), (rigid_family(size, n, 0.05), 1.0, n),
             (a1a4, K_a1a4, n_a1a4), (other, K_other if K_other > 1e-9 else 1.0, n_other))
    for bg, K, n in cases:
        moved = relabelled(bg, rng)
        mu = laplacian_spectrum(bg.graph)
        # the largest Laplacian eigenvalue bounds every Steklov eigenvalue too; with
        # |B| = 1 the one Steklov value is a rounding residue of 0 and sets no scale
        scale = mu.values[-1]
        assert_same_spectrum(laplacian_spectrum(moved.graph), mu, scale)
        assert_same_spectrum(steklov_spectrum(moved), steklov_spectrum(bg), scale)
        assert relabelling_verdict(check_rigidity(moved, K, n)) == relabelling_verdict(check_rigidity(bg, K, n))


# ---------------------------------------------------------------------------
# the biconditional on random graphs
# ---------------------------------------------------------------------------

def test_biconditional_on_random_graphs():
    from oracles import random_join_boundary_graph

    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(30):
        bg = random_join_boundary_graph(rng)
        n = float(rng.choice([3.0, 5.0, INF]))
        K = curvature_profile(bg.graph, [n]).global_min[n][0]
        if K <= 1e-9:
            continue
        rep = check_rigidity(bg, K, n)
        assert rep.cd_holds
        assert rep.consistent
        checked += 1
    assert checked >= 10


def test_the_two_ball_identity_is_free_of_the_scale_of_its_coefficients():
    # the raw average sum_y u(y) c_y / sum_y c_y, c_y = w_xy w_yz / m_y, keeps
    # its bits wherever the c_y stay normal, and scaling w and m by powers of
    # two far out of that range (every c_y = 0 or inf raw) changes no residual
    rng = np.random.default_rng(33)
    pairs = 0
    for case in range(30):
        bg = random_boundary_graph(rng, n_min=4, n_max=12, extra_edge_prob=0.3)
        g = bg.graph
        u = VertexFunction(g.vertices, rng.normal(size=g.num_vertices))
        got = two_ball_identity_check(bg, u).residuals
        vals = u.values
        raw = {}
        for i in range(g.num_vertices):
            dist = g.hop_distances(i)
            for j in range(i + 1, g.num_vertices):
                if dist[j] == 2:
                    coeff = g.weights[i] * g.weights[j] / g.measures
                    raw[g.vertices[i], g.vertices[j]] = (vals[i] + vals[j]) / 2.0 - float(coeff @ vals) / coeff.sum()
        assert got == raw
        pairs += len(got)
        for wexp, mexp in ((-540, 0), (520, 0), (0, 1000), (-300, -1000)):
            # through _adopt: the public constructor rejects the graphs whose Deg(x)^2 overflows
            scaled = attach_boundary(
                WeightedGraph._adopt(g.vertices, np.ldexp(g.measures, mexp), np.ldexp(g.weights, wexp)), bg.boundary)
            assert two_ball_identity_check(scaled, u).residuals == got, (case, wexp, mexp)
    assert pairs > 100
