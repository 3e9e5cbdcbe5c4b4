"""Curvature-dimension checks, the curvature function, and the spectral bound."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from steklov import (
    VertexFunction,
    WeightedGraph,
    attach_boundary,
    build_graph,
    cd_check,
    curvature_at,
    curvature_profile,
    gamma,
    gamma2,
    laplacian,
    make_example,
    verify_lichnerowicz,
)
from steklov.errors import InvalidDimensionParam, InvalidParams, IsolatedVertex
import steklov.curvature
from steklov.graphs import INF
from steklov.operators import _gamma2_matrix

from oracles import (
    cd_matrix_by_polarization,
    cd_scalar_value,
    kappa_by_bisection,
    random_connected_graph,
    random_function,
    random_join_boundary_graph,
)


def embed_on_vertices(g, f):
    """Zero-extend a local witness onto all of V."""
    values = np.zeros(g.num_vertices)
    for v in f.domain:
        values[g.index(v)] = f[v]
    return VertexFunction(g.vertices, values)


def test_cd_check_p3_transition():
    g = make_example("unit_path3").graph
    assert cd_check(g, 0.5, 2).holds
    report = cd_check(g, 0.51, 2, x="2")
    assert not report.holds
    witness = report.first_violation.witness
    full = embed_on_vertices(g, witness)
    assert cd_scalar_value(g, "2", 0.51, 2, full) < 0.0


def test_cd_check_zero_k_allowed():
    g = make_example("unit_path3").graph
    report = cd_check(g, 0.0, 2)
    assert report.holds
    # with K = 0 the verdict is exactly Gamma2 >= (Delta f)^2 / n
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = random_function(rng, g.vertices)
        for x in g.vertices:
            assert gamma2(g, f, f)[x] + 1e-12 >= laplacian(g, f)[x] ** 2 / 2.0


def test_cd_check_single_vertex():
    g = build_graph([("a", 1.0)], [])
    assert cd_check(g, 123.0, 2).holds


def test_cd_check_dimension_validation():
    g = make_example("unit_path3").graph
    for bad in (1.0, 0.5, 0.0, -3.0):
        with pytest.raises(InvalidDimensionParam):
            cd_check(g, 1.0, bad)
    with pytest.raises(IsolatedVertex):
        curvature_at(build_graph([("a", 1.0)], []), "a", 2)


def test_curvature_p3():
    g = make_example("unit_path3").graph
    res = curvature_at(g, "2", 2)
    assert res.kappa == pytest.approx(0.5, abs=1e-10)
    assert res.kappa == pytest.approx(kappa_by_bisection(g, "2", 2), abs=1e-8)
    assert res.kernel_ok


def test_curvature_c4_infinite():
    g = make_example("unit_square").graph
    for v in g.vertices:
        res = curvature_at(g, v, INF)
        assert res.kappa == pytest.approx(2.0, abs=1e-9)
        assert res.kappa == pytest.approx(kappa_by_bisection(g, v, INF), abs=1e-8)


def test_curvature_matches_bisection_random():
    rng = np.random.default_rng(1)
    for _ in range(12):
        g = random_connected_graph(rng, n_max=6)
        x = g.vertices[int(rng.integers(0, g.num_vertices))]
        n = float(rng.choice([2.0, 3.0, 5.0, INF]))
        res = curvature_at(g, x, n)
        oracle = kappa_by_bisection(g, x, n)
        assert res.kappa == pytest.approx(oracle, abs=1e-7, rel=1e-7)
        assert res.kernel_ok


def test_curvature_matches_oracles_on_sparse_graphs():
    # 20-40 vertices, non-unit measures and few extra edges, so the 2-balls
    # are proper subsets of V, which the small random graphs above almost
    # never give: the kernel must match the oracles, which work on all of V
    rng = np.random.default_rng(11)
    for _ in range(2):
        g = random_connected_graph(rng, n_min=20, n_max=40, extra_edge_prob=0.05)
        for j in rng.choice(g.num_vertices, size=2, replace=False):
            x = g.vertices[int(j)]
            assert len(g.ball_indices(int(j), 2)) < g.num_vertices
            n = float(rng.choice([2.0, 3.0, INF]))
            res = curvature_at(g, x, n)
            assert res.kernel_ok
            assert res.kappa == pytest.approx(kappa_by_bisection(g, x, n), abs=1e-7, rel=1e-7)

            # the pinned CD form at a violated K: the polarized form over
            # V minus {x} vanishes off the 2-ball and has cd_check's lambda_min on it
            K = res.kappa + 0.5
            rest = [v for v in g.vertices if v != x]
            local = [rest.index(v) for v in res.witness.domain[1:]]
            outside = sorted(set(range(len(rest))) - set(local))
            polarized = cd_matrix_by_polarization(g, x, K, n)
            scale = 1.0 + np.abs(polarized).max()
            assert np.abs(polarized[outside]).max() <= 1e-10 * scale
            lam = np.linalg.eigvalsh(polarized[np.ix_(local, local)])[0]
            check = cd_check(g, K, n, x=x).checks[0]
            assert not check.holds
            assert check.lambda_min == pytest.approx(lam, abs=1e-10 * scale)


def unit_grid(k):
    ids = {(i, j): f"{i}_{j}" for i in range(k) for j in range(k)}
    edges = [(v, ids[i + 1, j], 1.0) for (i, j), v in ids.items() if i + 1 < k]
    edges += [(v, ids[i, j + 1], 1.0) for (i, j), v in ids.items() if j + 1 < k]
    return build_graph([(v, 1.0) for v in ids.values()], edges)


def test_curvature_at_reads_only_the_two_ball(monkeypatch):
    # the centre of a 40 x 40 grid: its 2-ball has 1 + 4 + 8 = 13 vertices,
    # no N x N Laplacian is built, and a 5 x 5 grid gives the same curvature
    g = unit_grid(40)
    calls = []
    delta_operator = WeightedGraph.delta_operator

    def spy(self):
        calls.append(self)
        return delta_operator(self)

    monkeypatch.setattr(WeightedGraph, "delta_operator", spy)
    for n in (2.0, INF):
        kappa = curvature_at(g, "20_20", n).kappa
        assert kappa == pytest.approx(curvature_at(unit_grid(5), "2_2", n).kappa, rel=1e-12, abs=1e-12)
    assert calls == []
    ball, q = _gamma2_matrix(g, g.index("20_20"))
    assert len(ball) == 13 and q.shape == (13, 13)


def _rebuilt(g, order, measure_scale=1.0):
    """g with its vertices declared in the given order and its measures scaled."""
    return build_graph(
        [(g.vertices[k], measure_scale * g.measures[k]) for k in order],
        [(u, v, w) for u, v, w in reversed(g.edge_list())],
    )


@given(st.integers(0, 2**32 - 1))
def test_relabelling_invariance(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=10, extra_edge_prob=float(rng.uniform(0.1, 0.5)))
    relabelled = _rebuilt(g, rng.permutation(g.num_vertices))
    for n in (2.0, 3.5, INF):
        for x in g.vertices:
            assert curvature_at(relabelled, x, n).kappa == pytest.approx(
                curvature_at(g, x, n).kappa, rel=1e-12, abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_measure_scaling(seed, c):
    # m -> c m divides Delta and Gamma by c and Gamma2 by c^2, so kappa by c
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=8)
    scaled = _rebuilt(g, range(g.num_vertices), measure_scale=c)
    for n in (2.0, 3.5, INF):
        for x in g.vertices:
            assert curvature_at(scaled, x, n).kappa == pytest.approx(
                curvature_at(g, x, n).kappa / c, rel=1e-10, abs=1e-12)


def test_curvature_result_invariants():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=6)
        x = g.vertices[int(rng.integers(0, g.num_vertices))]
        n = float(rng.choice([2.0, 4.0, INF]))
        res = curvature_at(g, x, n)
        eps = 1e-6 * max(1.0, abs(res.kappa))
        assert cd_check(g, res.kappa - eps, n, x=x).holds
        assert not cd_check(g, res.kappa + eps, n, x=x).holds
        # witness achieves the optimum and is Gamma-normalized
        assert res.witness_quotient == pytest.approx(res.kappa, abs=1e-8)
        full = embed_on_vertices(g, res.witness)
        assert gamma(g, full, full)[x] == pytest.approx(1.0, rel=1e-9)
        assert cd_scalar_value(g, x, 0.0, n, full) == pytest.approx(res.kappa, abs=1e-8)


def test_gamma_kernel_positivity():
    # f vanishing on the closed neighborhood of x: Delta f(x) = 0 and
    # Gamma2(f,f)(x) equals the neighbor average of Gamma(f,f), hence >= 0
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_connected_graph(rng, n_min=4, n_max=8)
        x = g.vertices[int(rng.integers(0, g.num_vertices))]
        i = g.index(x)
        closed = set(g.ball_indices(i, 1).tolist())
        values = rng.standard_normal(g.num_vertices)
        values[list(closed)] = 0.0
        f = VertexFunction(g.vertices, values)
        assert laplacian(g, f)[x] == 0.0
        lhs = gamma2(g, f, f)[x]
        avg = sum(
            gamma(g, f, f)[g.vertices[j]] * g.weights[i, j] for j in g.neighbor_indices(i)
        ) / (2.0 * g.measures[i])
        assert lhs == pytest.approx(avg, rel=1e-10, abs=1e-12)
        assert lhs >= -1e-12


def test_dimension_monotonicity():
    rng = np.random.default_rng(4)
    grid = [2.0, 3.0, 5.0, 10.0, INF]
    for _ in range(8):
        g = random_connected_graph(rng, n_max=6)
        for x in g.vertices:
            kappas = [curvature_at(g, x, n).kappa for n in grid]
            for a, b in zip(kappas, kappas[1:]):
                assert a <= b + 1e-9


def test_weight_scaling():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = random_connected_graph(rng, n_max=6)
        lam = float(rng.uniform(0.3, 5.0))
        scaled = g.rescaled_weights(lam)
        x = g.vertices[int(rng.integers(0, g.num_vertices))]
        n = float(rng.choice([2.5, 4.0, INF]))
        base = curvature_at(g, x, n).kappa
        assert curvature_at(scaled, x, n).kappa == pytest.approx(lam * base, rel=1e-9, abs=1e-12)


def test_curvature_profile():
    g = make_example("unit_path3").graph
    profile = curvature_profile(g, [2, INF])
    assert profile.global_min[2.0][0] == pytest.approx(0.5, abs=1e-9)
    assert set(profile.results[2.0]) == {"1", "2", "3"}

    c4 = make_example("unit_square").graph
    profile = curvature_profile(c4, [INF])
    for v in c4.vertices:
        assert profile.results[INF][v].kappa == pytest.approx(2.0, abs=1e-9)

    empty = curvature_profile(g, [])
    assert empty.n_values == ()
    assert empty.results == {} and empty.global_min == {}


def test_curvature_profile_matches_curvature_at():
    # the profile solves a whole 2-ball shape group and every n in one
    # stacked eigh; it must agree with the one-vertex, one-n call, and list
    # its results in vertex order
    rng = np.random.default_rng(12)
    grid = (1.5, 2.0, 3.0, 10.0, INF)
    shapes = set()
    for _ in range(8):
        g = random_connected_graph(rng, n_min=2, n_max=40, extra_edge_prob=float(rng.choice([0.05, 0.3])))
        shapes |= {(len(g.neighbor_indices(i)), len(g.ball_indices(i, 2))) for i in range(g.num_vertices)}
        profile = curvature_profile(g, grid)
        for n in grid:
            assert tuple(profile.results[n]) == g.vertices
            for x in g.vertices:
                got, want = profile.results[n][x], curvature_at(g, x, n)
                assert got.vertex == want.vertex == x and got.n == n
                assert got.kappa == pytest.approx(want.kappa, rel=1e-12, abs=1e-300)
                assert got.kernel_ok == want.kernel_ok
                assert got.s2_lambda_min == want.s2_lambda_min
                assert got.witness.domain == want.witness.domain
                np.testing.assert_allclose(got.witness.values, want.witness.values, rtol=0, atol=1e-9)
                assert got.witness_quotient == pytest.approx(want.witness_quotient, rel=1e-9, abs=1e-9)
        K = profile.global_min[2.0][0] + 0.05
        report = cd_check(g, K, 2.0)
        for check, x in zip(report.checks, g.vertices):
            one = cd_check(g, K, 2.0, x=x).checks[0]
            assert check.vertex == one.vertex == x and check.holds == one.holds
            assert check.lambda_min == pytest.approx(one.lambda_min, rel=1e-12, abs=1e-12)
            assert (check.witness is None) == (one.witness is None)
    assert len(shapes) >= 20


def test_curvature_profile_builds_each_form_once(monkeypatch):
    # one stacked Gamma2 assembly per 2-ball shape, and every vertex in
    # exactly one of them
    calls = []
    gamma2_forms = steklov.curvature._gamma2_forms

    def spy(g, balls, k):
        calls.append(balls[:, 0].tolist())
        return gamma2_forms(g, balls, k)

    monkeypatch.setattr(steklov.curvature, "_gamma2_forms", spy)
    g = unit_grid(6)
    curvature_profile(g, (2.0, 3.0, 5.0, 10.0, INF))

    def shape(i):
        return len(g.neighbor_indices(i)), len(g.ball_indices(i, 2))

    assert sorted(sum(calls, [])) == list(range(36))
    assert all(len({shape(i) for i in centres}) == 1 for centres in calls)
    assert len(calls) == len({shape(i) for i in range(36)}) == 6


def test_curvature_profile_names_the_first_isolated_vertex():
    g = build_graph([("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)], [("a", "b", 1.0)], relaxed=True)
    with pytest.raises(IsolatedVertex) as err:
        curvature_profile(g, (2.0, INF))
    assert err.value.vertex == "c"


def test_s2_block_of_gamma2_is_a_positive_diagonal():
    # the curvature kernel inverts the S2 x S2 block of the pinned form
    # elementwise; it is diagonal because a distance-2 vertex z enters
    # Gamma2(x) only through the terms w_xy w_yz (f(z) - f(y))^2
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = random_connected_graph(rng, n_min=3, n_max=25, extra_edge_prob=float(rng.choice([0.05, 0.2, 0.5])))
        for i in range(g.num_vertices):
            _, q = _gamma2_matrix(g, i)
            k = len(g.neighbor_indices(i)) + 1
            block = q[k:, k:]
            assert np.all(block[~np.eye(len(block), dtype=bool)] == 0.0)
            assert np.all(np.diagonal(block) > 0.0)


def test_global_min_reports_the_first_tied_vertex():
    # the five interior vertices are symmetric, so their kappas tie; rounding
    # must not choose among them
    g = make_example("complete_interior", interior_size=5, n=10, K=1, m=1).graph
    grid = (2.0, 3.0, INF)
    profile = curvature_profile(g, grid)
    assert [profile.global_min[n][1] for n in grid] == ["x1"] * 3
    order = [g.index(v) for v in ("x3", "1", "x5", "x1", "x4", "2", "x2")]
    relabelled = curvature_profile(_rebuilt(g, order), grid)
    assert [relabelled.global_min[n][1] for n in grid] == ["x3"] * 3
    for n in grid:
        assert relabelled.global_min[n][0] == pytest.approx(profile.global_min[n][0], rel=1e-12)


def test_global_min_tie_rule_is_scale_covariant():
    # c is the unique minimiser at every weight scale; a tolerance with an
    # absolute floor tied a with it at scale 1e-9 and reported a
    edges = [("a", "b", 1.0), ("c", "b", 3.0), ("c", "d", 1.0), ("d", "e", 1.0), ("e", "a", 1.0), ("a", "c", 1.0)]
    g = build_graph([(v, 1.0) for v in "abcde"], edges)
    for scale in (1.0, 1e-6, 1e-9, 1e-12):
        profile = curvature_profile(g.rescaled_weights(scale), (INF,))
        assert profile.global_min[INF][1] == "c"
        assert profile.global_min[INF][0] == pytest.approx(0.040564175899912215 * scale, rel=1e-12)
    # on the paw every kappa at n = 2 is 0 up to rounding, so the tie goes
    # to the first vertex whatever the rounding and the scale
    paw = build_graph([(v, 1.0) for v in "pqrs"], [("p", "s", 1.0), ("q", "r", 1.0), ("q", "s", 1.0), ("r", "s", 1.0)])
    for scale in (1.0, 1e-9, 1e9):
        profile = curvature_profile(paw.rescaled_weights(scale), (2.0,))
        assert abs(profile.global_min[2.0][0]) <= 1e-12 * scale
        assert profile.global_min[2.0][1] == "p"


def test_cd_check_rejects_k_above_kappa_at_small_weights():
    # the pinned CD form scales like (w/m)^2, so an absolute PSD floor
    # accepted CD(100 kappa) on the 4-cycle once the weights were small
    c4 = make_example("unit_square").graph
    for scale in (1.0, 1e-6, 1e-9, 1e-12):
        g = c4.rescaled_weights(scale)
        kappa = curvature_profile(g, (INF,)).global_min[INF][0]
        assert kappa == pytest.approx(2.0 * scale, rel=1e-12)
        assert cd_check(g, kappa, INF).holds
        assert cd_check(g, kappa * (1.0 - 1e-6), INF).holds
        assert not cd_check(g, kappa * (1.0 + 1e-6), INF).holds
        assert not cd_check(g, 100.0 * kappa, INF).holds
        assert not verify_lichnerowicz(attach_boundary(g, {"1", "3"}), 100.0 * kappa, INF).cd_holds


@given(st.integers(0, 2**32 - 1), st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))
def test_weight_and_measure_scaling_metamorphic(seed, log_c, log_d):
    # w -> c w and m -> d m scale Delta and Gamma by c/d and Gamma2 by
    # (c/d)^2, so kappa scales by c/d and no verdict may move
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=12, extra_edge_prob=float(rng.uniform(0.05, 0.5)))
    c, d = 10.0 ** log_c, 10.0 ** log_d
    scaled = WeightedGraph(g.vertices, d * g.measures, c * g.weights)
    grid = (2.0, 3.5, INF)
    base, prof = curvature_profile(g, grid), curvature_profile(scaled, grid)
    unit = float((g.weight_sums / g.measures).max())
    for n in grid:
        want = np.array([res.kappa for res in base.results[n].values()]) * (c / d)
        got = np.array([res.kappa for res in prof.results[n].values()])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * unit * c / d)
        assert prof.global_min[n][1] == base.global_min[n][1]
        low = base.global_min[n][0]
        for K, holds in ((low - 1e-6 * unit, True), (low + 1e-6 * unit, False)):
            assert cd_check(g, K, n).holds is holds
            assert cd_check(scaled, K * c / d, n).holds is holds


def test_verify_lichnerowicz_examples():
    p3 = make_example("unit_path3")
    rep = verify_lichnerowicz(p3, 0.5, 2)
    assert rep.kind == "steklov"
    assert rep.cd_holds and rep.equality
    assert rep.bound == pytest.approx(1.0)
    assert rep.spectral_value == pytest.approx(1.0, abs=1e-10)

    c4 = make_example("unit_square")
    rep = verify_lichnerowicz(c4, 2, INF)
    assert rep.cd_holds and rep.equality and rep.bound == pytest.approx(2.0)

    rep = verify_lichnerowicz(p3.graph, 0.5, 2)  # closed-graph variant
    assert rep.kind == "laplacian"
    assert rep.spectral_value == pytest.approx(1.0, abs=1e-10)
    assert rep.equality


def test_verify_lichnerowicz_validation():
    p3 = make_example("unit_path3")
    with pytest.raises(InvalidParams):
        verify_lichnerowicz(p3, 0.0, 2)
    with pytest.raises(InvalidParams):
        verify_lichnerowicz(p3, -1.0, 2)
    with pytest.raises(InvalidDimensionParam):
        verify_lichnerowicz(p3, 1.0, 1.0)
    single = build_graph([("a", 1.0)], [])
    with pytest.raises(InvalidParams):
        verify_lichnerowicz(single, 1.0, 2)


def test_lichnerowicz_holds_on_random_graphs():
    # whenever the computed global curvature is positive, both spectral bounds hold
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(40):
        bg = random_join_boundary_graph(rng)
        n = float(rng.choice([3.0, 5.0, 10.0, INF]))
        profile = curvature_profile(bg.graph, [n])
        K = profile.global_min[n][0]
        if K <= 1e-9:
            continue
        rep = verify_lichnerowicz(bg, K, n)
        assert rep.cd_holds
        assert rep.slack >= -1e-8 * rep.bound
        rep2 = verify_lichnerowicz(bg.graph, K, n)
        assert rep2.slack >= -1e-8 * rep2.bound
        checked += 1
    assert checked >= 10


def test_witnesses_are_read_only_rows_of_one_stack_built_once():
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = random_connected_graph(rng)
        profile = curvature_profile(g, (2.0, 5.0, INF))
        for v in g.vertices:
            per_n = [profile.results[n][v] for n in profile.n_values]
            for res in per_n:
                assert "witness" not in res.__dict__
                with pytest.raises(ValueError):
                    res.witness_values[0] = 1.0
                witness = res.witness
                assert res.witness is witness
                assert witness.domain == res.ball and res.ball[0] == v
                assert witness.values.tobytes() == res.witness_values.tobytes()
                assert np.shares_memory(witness.values, res.witness_values)
                with pytest.raises(ValueError):
                    witness.values[0] = 1.0
            # the rows for every n come from the one stacked output of the kernel
            assert all(np.shares_memory(res.witness_values, per_n[0].witness_values.base) for res in per_n)
