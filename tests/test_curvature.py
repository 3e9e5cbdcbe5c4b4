"""Curvature-dimension checks, the curvature function, and the spectral bound."""

import functools
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from steklov import (
    VertexFunction,
    WeightedGraph,
    assemble_interior_form,
    attach_boundary,
    build_graph,
    cd_check,
    check_interior_inequality,
    curvature_at,
    curvature_profile,
    join_equality_boundary,
    laplacian,
    make_example,
    verify_lichnerowicz,
)
from steklov.errors import InvalidDimensionParam, InvalidParams, IsolatedVertex
import steklov._lapack
import steklov.curvature
from steklov.curvature import PAD_ENTRIES, _ball_ids, _laid_stacks
from steklov.graphs import INF, MULTIPLICITY_TOL
from steklov.operators import _gamma2_blocks, _gamma2_matrix

from oracles import (
    cd_form_exact,
    cd_matrix_by_polarization,
    cd_scalar_value,
    gamma,
    gamma2,
    gamma2_forms_dense,
    is_psd_exact,
    kappa_by_bisection,
    random_connected_graph,
    random_function,
    random_join_boundary_graph,
    unit_grid,
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


@pytest.mark.parametrize("K", [float("nan"), float("inf"), float("-inf")])
def test_cd_check_rejects_a_non_finite_k(K):
    # a non-finite K makes the shifted form non-finite: -inf gave NaN lambda_min
    # and a FAILS verdict for the trivially true CD(-inf, n), and nan escaped eigh
    with pytest.raises(InvalidParams):
        cd_check(make_example("unit_square").graph, K, 2)


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
            # V minus {x} vanishes off the 2-ball, and cd_check's witness is negative on it
            K = res.kappa + 0.5
            rest = [v for v in g.vertices if v != x]
            local = [rest.index(v) for v in res.witness.domain[1:]]
            outside = sorted(set(range(len(rest))) - set(local))
            polarized = cd_matrix_by_polarization(g, x, K, n)
            scale = 1.0 + np.abs(polarized).max()
            assert np.abs(polarized[outside]).max() <= 1e-10 * scale
            check = cd_check(g, K, n, x=x).checks[0]
            assert not check.holds
            assert check.lambda_min == pytest.approx(res.kappa - K, abs=1e-10 * scale)
            on = [rest.index(v) for v in check.witness.domain[1:]]
            f = check.witness.values[1:]
            assert f @ polarized[np.ix_(on, on)] @ f < 0.0


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


def spheres_by_hop_distances(g, i):
    """S1 and S2 of i, read off the unbounded breadth-first search's distances."""
    dist = g.hop_distances(i)
    return np.flatnonzero(dist == 1).tolist(), np.flatnonzero(dist == 2).tolist()


def shape_groups_by_hop_distances(g, centres):
    """The 2-ball shape groups as the breadth-first search gives them, ids one ball at a time."""
    groups = {}
    for i in centres:
        s1, s2 = spheres_by_hop_distances(g, i)
        groups.setdefault((len(s1), len(s2)), []).append([i, *s1, *s2])
    return {shape: (np.array(balls), [tuple(g.vertices[j] for j in ball) for ball in balls])
            for shape, balls in groups.items()}


def walk_pin_graphs():
    """Atlas graphs up to 6 vertices, random weighted graphs, relabelled grids, K8, and tuple vertex ids."""
    rng = np.random.default_rng(23)
    for G in nx.graph_atlas_g()[1:]:
        if G.number_of_nodes() <= 6 and nx.is_connected(G):
            yield build_graph([(v, 1.0) for v in G], [(u, v, 1.0) for u, v in G.edges()])
    for _ in range(12):
        yield random_connected_graph(rng, n_min=2, n_max=40, extra_edge_prob=float(rng.choice([0.05, 0.3])))
    for k in (12, 30):
        yield _rebuilt(unit_grid(k), rng.permutation(k * k))
    yield build_graph([(v, 1.0) for v in range(8)], [(u, v, 1.0) for u in range(8) for v in range(u + 1, 8)])
    yield build_graph([((0, 1), 1.0), ((1, 0), 2.0)], [((0, 1), (1, 0), 1.0)])
    grid = {(i, j): ((i, j), f"{i}") for i in range(4) for j in range(3)}
    yield build_graph([(v, 1.0) for v in grid.values()],
                      [(v, grid[i + di, j + dj], 1.0) for (i, j), v in grid.items()
                       for di, dj in ((1, 0), (0, 1)) if (i + di, j + dj) in grid])


def test_two_sphere_walk_matches_the_radius_two_search_bitwise():
    # the 2-ball layer reads S1 off the cached neighbour list and S2 off one
    # union; balls, their order, their grouping and their ids must be those of
    # the breadth-first search, with a tuple id kept whole as one vertex
    count = 0
    for g in walk_pin_graphs():
        for i in range(g.num_vertices):
            s1, s2 = spheres_by_hop_distances(g, i)
            assert g._two_spheres(i) == (s1, s2)
            for radius, ball in ((1, [i, *s1]), (2, [i, *s1, *s2])):
                assert g.ball_indices(i, radius).tobytes() == np.array(ball).tobytes()
        got, want = g._shape_groups(range(g.num_vertices)), shape_groups_by_hop_distances(g, range(g.num_vertices))
        assert list(got) == list(want)
        for balls, (want_balls, want_domains) in zip(got.values(), want.values()):
            domains = _ball_ids(g, balls)
            assert balls.dtype == want_balls.dtype and balls.tobytes() == want_balls.tobytes()
            assert domains == want_domains
            assert all(a is b for ids, want_ids in zip(domains, want_domains) for a, b in zip(ids, want_ids))
        count += 1
    assert count == 143 + 12 + 2 + 1 + 2  # 143 connected atlas graphs with 1 to 6 vertices


def spy_on_walks(monkeypatch):
    """The number of centres of every 2-ball walk, in call order."""
    walks, walk = [], WeightedGraph._shape_groups
    monkeypatch.setattr(WeightedGraph, "_shape_groups",
                        lambda self, centres: walks.append(len(centres)) or walk(self, centres))
    return walks


def test_the_whole_graph_shape_groups_are_one_fresh_walk_kept_read_only(monkeypatch):
    # the padded stacks of every centre are the one 2-ball structure kept on
    # the graph: their parts come from one walk on first use, with the keys,
    # order and bytes of a fresh walk, read-only, and later reads walk nothing
    rng = np.random.default_rng(29)
    graphs = [*atlas_graphs(6), *(unit_grid(k) for k in (3, 6, 12, 16, 30)), star_and_hub_grid()[0]]
    graphs += [random_connected_graph(rng, n_min=2, n_max=40, extra_edge_prob=float(rng.choice([0.05, 0.3])))
               for _ in range(10)]
    isolated = build_graph([("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)], [("a", "b", 1.0)], relaxed=True)
    walks = spy_on_walks(monkeypatch)
    for g in graphs:
        everyone = range(g.num_vertices)
        assert "_two_ball_stacks" not in g.__dict__
        walks.clear()
        laid = g._two_ball_stacks
        assert laid is g._two_ball_stacks and walks == [g.num_vertices]
        want = g._shape_groups(everyone)
        parts = [part for stack in laid for part in stack.parts]
        assert len(parts) == len(want)
        for part, shape in zip(parts, sorted(want, key=lambda shape: (sum(shape), shape))):
            assert part.dtype == want[shape].dtype and part.shape == want[shape].shape
            assert part.tobytes() == want[shape].tobytes()
            with pytest.raises(ValueError):
                part[0, 0] = 0
            assert want[shape].flags.writeable  # a fresh walk is the caller's own
    assert len(graphs) == 142 + 5 + 1 + 10
    assert (0, 0) in isolated._shape_groups(range(4))
    walks.clear()
    for _ in range(2):  # every call walks afresh and names the first isolated vertex: nothing is kept
        with pytest.raises(IsolatedVertex) as err:
            curvature_profile(isolated, (2.0, INF))
        assert err.value.vertex == "c"
    with pytest.raises(IsolatedVertex) as err:
        isolated._two_ball_stacks
    assert err.value.vertex == "c" and walks == [4] * 3 and "_two_ball_stacks" not in isolated.__dict__
    with pytest.raises(IsolatedVertex) as err:
        curvature_at(isolated, "d", 2.0)
    assert err.value.vertex == "d"


def test_repeated_calls_on_one_graph_walk_its_two_balls_once(monkeypatch):
    # two curvature profiles read the one set of stacks kept on the graph,
    # walked once; cd_check on all centres walks its own 2-balls once per
    # call; the reports are those of a graph walked afresh
    walks = spy_on_walks(monkeypatch)
    g = unit_grid(12)
    profiles = [curvature_profile(g, (2.0, INF)) for _ in range(2)]
    assert walks == [144]
    for profile in profiles:
        assert all(stack is kept for (stack, *_), kept in zip(profile._stacks, g._two_ball_stacks, strict=True))
    reports = []
    for K in (-1.0, 0.0):
        reports.append(cd_check(g, K, 2.0))
        assert walks[1:] == [144] * len(reports)
    fresh = unit_grid(12)
    want = curvature_profile(fresh, (2.0, INF))
    for profile in profiles:
        assert profile.global_min == want.global_min
        for n in want.n_values:
            for x, res in profile.results[n].items():
                assert res.kappa == want.results[n][x].kappa
                assert res.witness_values.tobytes() == want.results[n][x].witness_values.tobytes()
    for report, K in zip(reports, (-1.0, 0.0)):
        for got, want in zip(report.checks, cd_check(fresh, K, 2.0).checks, strict=True):
            assert (got.vertex, got.lambda_min, got.form_norm, got.holds) == (
                want.vertex, want.lambda_min, want.form_norm, want.holds)
            assert (got.witness is None) == (want.witness is None)
            if got.witness is not None:
                assert got.witness.domain == want.witness.domain
                assert got.witness.values.tobytes() == want.witness.values.tobytes()


def test_one_centre_leaves_the_whole_graph_partition_unbuilt(monkeypatch):
    # curvature_at, cd_check at one vertex and the one-centre interior form
    # walk their own 2-ball alone, so their cost does not grow with N; nor
    # does curvature_at build the whole graph's padded stacks
    walks = spy_on_walks(monkeypatch)

    def unbuilt(self):
        raise AssertionError("the whole-graph 2-ball stacks were built")

    monkeypatch.setattr(WeightedGraph, "_two_ball_stacks", property(unbuilt))
    g = unit_grid(30)
    assert curvature_at(g, "15_15", 2.0).kappa == pytest.approx(-2.0, rel=1e-12)
    assert [c.vertex for c in cd_check(g, -2.0, 2.0, "0_0").checks] == ["0_0"]
    bg = join_equality_boundary(g, 3.0, 1.0, 1.0)
    form = assemble_interior_form(bg, 1.0, 3.0, "15_15")
    assert form.matrix.shape == (899, 899)
    assert walks == [1, 1, 1]


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


def atlas_graphs(max_vertices):
    """The connected unit-weight atlas graphs with 2 to max_vertices vertices."""
    for G in nx.graph_atlas_g()[1:]:
        if 2 <= G.number_of_nodes() <= max_vertices and nx.is_connected(G):
            yield build_graph([(v, 1.0) for v in G], [(u, v, 1.0) for u, v in G.edges()])


def test_curvature_profile_builds_each_form_once(monkeypatch):
    # the 2-ball shapes of a small graph or a grid (the benchmark's 12 x 12 and
    # 16 x 16 among them) merge into one padded stack: one Gamma2 assembly and
    # one stacked eigvalsh for every vertex and every n; the eigenvectors are
    # solved, by one stacked eigh of the same pencils, only when results is read
    calls, solves = [], []
    gamma2_blocks, eigh, eigvalsh = steklov.curvature._gamma2_blocks, steklov._lapack.eigh, steklov._lapack.eigvalsh

    def spy(g, balls, k):
        calls.append(balls[:, 0].tolist())
        return gamma2_blocks(g, balls, k)

    def eigh_spy(a):
        solves.append(("eigh", a.shape[:2]))
        return eigh(a)

    def eigvalsh_spy(a):
        solves.append(("eigvalsh", a.shape[:2]))
        return eigvalsh(a)

    monkeypatch.setattr(steklov.curvature, "_gamma2_blocks", spy)
    monkeypatch.setattr(steklov._lapack, "eigh", eigh_spy)
    monkeypatch.setattr(steklov._lapack, "eigvalsh", eigvalsh_spy)
    grids = [unit_grid(k) for k in (6, 12, 16)]
    assert [len(g._shape_groups(range(g.num_vertices))) for g in grids] == [6, 6, 6]
    count = 0
    for g in (*grids, *atlas_graphs(6)):
        calls.clear()
        solves.clear()
        profile = curvature_profile(g, (2.0, 3.0, 5.0, 10.0, INF))
        assert len(calls) == 1 and sorted(calls[0]) == list(range(g.num_vertices))
        assert solves == [("eigvalsh", (g.num_vertices, 5))]
        profile.results  # the witnesses are finished from the same stack, with no second assembly
        assert len(calls) == 1 and solves == [("eigvalsh", (g.num_vertices, 5)), ("eigh", (g.num_vertices, 5))]
        count += 1
    assert count == 3 + 142


def star_and_hub_grid():
    """K_{1,50}, and an 8 x 8 grid with a hub joined to every other vertex."""
    star = build_graph([(v, 1.0) for v in range(51)], [(0, v, 1.0) for v in range(1, 51)])
    grid = unit_grid(8)
    hub = build_graph([(v, 1.0) for v in grid.vertices] + [("hub", 2.0)],
                      [*grid.edge_list(), *(("hub", v, 0.5) for v in grid.vertices[::2])])
    return star, hub


def cd_check_bytes(report):
    """Every field of each cd_check vertex check down to its bytes."""
    return [(c.vertex, c.holds, np.float64(c.lambda_min).tobytes(), np.float64(c.form_norm).tobytes())
            + (() if c.witness is None else (c.witness.domain, c.witness.values.tobytes())) for c in report.checks]


def test_a_seen_graph_reads_its_padded_layout_and_profiles_as_a_fresh_one(monkeypatch):
    # the padded stacks of all centres' 2-balls, each with its n-free forms,
    # depend on the graph alone: the first profile builds them whole and
    # keeps them, read-only; a later one over another n grid (a repeated n,
    # an n the first did not see) merges and assembles nothing and gives a
    # fresh graph's kappas, global minima, kernel_ok, witnesses and quotients
    # bit for bit; cd_check over all centres walks its 2-balls afresh on
    # every call and gives a fresh graph's checks bit for bit
    merges, assemblies = [], []
    laid_stacks, gamma2_blocks = steklov.curvature._laid_stacks, steklov.curvature._gamma2_blocks
    monkeypatch.setattr(steklov.curvature, "_laid_stacks",
                        lambda g, centres: merges.append(1) or laid_stacks(g, centres))
    monkeypatch.setattr(steklov.curvature, "_gamma2_blocks",
                        lambda g, balls, k: assemblies.append(len(balls)) or gamma2_blocks(g, balls, k))
    rng = np.random.default_rng(32)
    star, hub = star_and_hub_grid()
    cycle = build_graph([(v, 1.0) for v in range(6)], [(v, (v + 1) % 6, 1.0) for v in range(6)])
    graphs = [cycle, *atlas_graphs(5), star, hub, unit_grid(12), shuffled_grid(rng, 16), unit_grid(30)]
    graphs += [widely_weighted_graph(rng) for _ in range(8)]
    first_grid, grid = (3.0, INF), (2.0, 5.0, 2.0, INF)
    padded = filled = failed = 0
    for g in graphs:
        def fresh(n_grid):
            return curvature_profile(WeightedGraph(g.vertices, g.measures, g.weights), n_grid)

        merges.clear()
        assemblies.clear()
        first = curvature_profile(g, first_grid)
        laid = g._two_ball_stacks
        kept = [stack.forms for stack in laid]
        assert merges == [1] and sum(assemblies) == g.num_vertices
        seen = curvature_profile(g, grid)
        assert merges == [1] and sum(assemblies) == g.num_vertices and g._two_ball_stacks is laid
        for profile in (first, seen):
            assert all(stack is was for (stack, *_), was in zip(profile._stacks, laid, strict=True))
        assert all(stack.forms is was for stack, was in zip(laid, kept, strict=True))
        assert seen.n_values == (2.0, 5.0, INF)
        for profile, want in ((first, fresh(first_grid)), (seen, fresh(grid))):
            assert profile.kappas.tobytes() == want.kappas.tobytes() and profile.global_min == want.global_min
            assert profile.kernel_ok.tobytes() == want.kernel_ok.tobytes()
            assert result_bytes(profile) == result_bytes(want)
        low = seen.global_min[2.0][0]
        for K in (low, low + 0.5):
            want = cd_check_bytes(cd_check(WeightedGraph(g.vertices, g.measures, g.weights), K, 2.0))
            assert [cd_check_bytes(cd_check(g, K, 2.0)) for _ in range(2)] == [want, want]
            failed += sum(not check[1] for check in want)
        for stack in laid:
            padded += stack.pad is not None
            filled += stack.fill is not None
            for array in (stack.centres, stack.kernel_ok, *stack.parts,
                          *((stack.pad,) if stack.pad is not None else ()), *(stack.fill or ())):
                with pytest.raises(ValueError):
                    array[...] = 0
        for forms in kept:
            for array in forms:
                if array is not None:
                    with pytest.raises(ValueError):
                        array[...] = 0.0
    assert [stack.pad for stack in cycle._two_ball_stacks] == [None]
    assert len(star._two_ball_stacks) == 2
    assert padded > 30 and filled > 20 and failed > 100


def test_only_a_whole_graph_profile_keeps_forms_on_the_graph():
    # each stack's n-free forms sit in the kept whole-graph stacks, every
    # array read-only, with no A12 diag(d+) A12^T on the stack with no S2;
    # cd_check, curvature_at and condition (5) read exact shape groups or
    # fresh balls and add nothing to a graph, seen or not
    star = star_and_hub_grid()[0]
    curvature_profile(star, (2.0, INF))
    laid = star._two_ball_stacks
    kept = [stack.forms for stack in laid]
    assert len(kept) == 2 and [forms.ad is None for forms in kept] == [False, True]
    for forms in kept:
        for array in forms:
            if array is not None:
                with pytest.raises(ValueError):
                    array[...] = 0.0
    bg = join_equality_boundary(unit_grid(6), 3.0, 1.0, 1.0)
    graphs = (star, unit_grid(6), bg.graph, bg.interior_graph)
    for g in graphs:  # build the caches that do not hold 2-balls
        for name, attr in vars(WeightedGraph).items():
            if isinstance(attr, functools.cached_property) and name != "_two_ball_stacks":
                getattr(g, name)
    before = [sorted(vars(g)) for g in graphs]
    for g in graphs[:2]:
        for x in (None, g.vertices[1]):
            cd_check(g, 0.0, 2.0, x)
        curvature_at(g, g.vertices[1], 2.0)
    assert len(check_interior_inequality(bg, 1.0, 3.0).vertex_checks) == 36
    assemble_interior_form(bg, 1.0, 3.0, "2_2")
    assert [sorted(vars(g)) for g in graphs] == before
    assert "_two_ball_stacks" not in before[1]
    assert star._two_ball_stacks is laid and all(stack.forms is was for stack, was in zip(laid, kept, strict=True))


def laid_balls(monkeypatch, g):
    """_laid_stacks of every centre of g: each _Stack with its k, t and the (B, 1 + k + t) rows of its assembly."""
    balls, gamma2_blocks = [], steklov.curvature._gamma2_blocks
    with monkeypatch.context() as patch:
        patch.setattr(steklov.curvature, "_gamma2_blocks",
                      lambda g, rows, k: balls.append(rows) or gamma2_blocks(g, rows, k))
        stacks = _laid_stacks(g, range(g.num_vertices))
    return [(stack, stack.forms.r.shape[1], stack.forms.d.shape[1], rows)
            for stack, rows in zip(stacks, balls, strict=True)]


def test_padded_stacks_keep_each_merge_within_the_pad_budget(monkeypatch):
    # one large 2-ball must not pad a stack of small ones: K_{1,50} in one
    # stack would take 51 * 100^2 entries against 133k exact, so it stays on
    # two; the hub grid's 11 shapes go on three stacks, small, medium, hub
    star, hub = star_and_hub_grid()
    for g, want_stacks in ((star, [(1, 49, 50), (50, 0, 1)]), (hub, [(4, 9, 32), (5, 33, 32), (32, 32, 1)])):
        stacks = laid_balls(monkeypatch, g)
        assert [(k, t, len(stack.centres)) for stack, k, t, _ in stacks] == want_stacks
        assert sorted(i for stack, *_ in stacks for i in stack.centres.tolist()) == list(range(g.num_vertices))
        for (_, parts, pad, *_), k, t, balls in stacks:
            # a stack of one shape has no pads and no mask, and is assembled on its one group
            assert (pad is None) == (len(parts) == 1)
            real = np.ones(balls.shape, dtype=bool) if pad is None else ~pad
            if pad is None:
                assert balls is parts[0]
            ids = [ball for part in parts for ball in _ball_ids(g, part)]
            shapes = list(zip(real[:, 1:k + 1].sum(axis=1).tolist(), real[:, k + 1:].sum(axis=1).tolist()))
            assert [len(ball) for ball in ids] == [1 + a + b for a, b in shapes]
            exact = sum((1 + a + b) ** 2 for a, b in shapes)
            # each merge into the stack added at most PAD_ENTRIES pad entries
            assert len(balls) * (1 + k + t) ** 2 - exact <= PAD_ENTRIES * (len(set(shapes)) - 1)
        profile = curvature_profile(g, (2.0, 10.0, INF))
        for n in profile.n_values:
            for x in g.vertices:
                got, want = profile.results[n][x], curvature_at(g, x, n)
                assert got.kappa == pytest.approx(want.kappa, rel=1e-12, abs=1e-300)
                assert got.kernel_ok == want.kernel_ok and got.ball == want.ball


def test_a_padded_stack_needs_no_mask_in_the_assembly(monkeypatch):
    # a pad repeats the centre, which has no self-weight, so the assembly of a
    # padded row gives the ball's own Gamma2 blocks, Gamma diagonal and Delta
    # row on its real entries; the curvature function only zeroes the pad
    # rows and columns afterwards
    padded = 0
    for g in (*atlas_graphs(6), unit_grid(6), unit_grid(12)):
        for (_, parts, pad, *_), k, _, balls in laid_balls(monkeypatch, g):
            if pad is None:
                continue
            real = ~pad
            q1, d, gam, row = _gamma2_blocks(g, balls, k + 1)
            at = 0
            for part in parts:
                k1 = int(real[at, 1:k + 1].sum())
                eq, egam, erow = gamma2_forms_dense(g, part, k1 + 1)
                for j in range(len(part)):
                    own = np.flatnonzero(real[at + j])
                    ball1, s2 = own[:k1 + 1], own[k1 + 1:]
                    assert q1[at + j][np.ix_(ball1, own)].tobytes() == eq[j][:k1 + 1].tobytes()
                    assert d[at + j][s2 - (k + 1)].tobytes() == np.diagonal(eq[j])[k1 + 1:].tobytes()
                    assert gam[at + j][ball1].tobytes() == egam[j].tobytes()
                    assert row[at + j][ball1].tobytes() == erow[j].tobytes()
                at += len(part)
            padded += 1
    assert padded > 100


def widely_weighted_graph(rng):
    """A random connected graph with log-uniform weights in [1e-3, 1e3] and measures in [0.1, 10]."""
    g = random_connected_graph(rng, n_max=25, extra_edge_prob=float(rng.choice([0.1, 0.3, 0.6])))
    n = g.num_vertices
    w = np.triu(10.0 ** rng.uniform(-3.0, 3.0, (n, n)) * (g.weights > 0.0), 1)
    return WeightedGraph(g.vertices, 10.0 ** rng.uniform(-1.0, 1.0, n), w + w.T)


def shuffled_grid(rng, k):
    """The k x k unit grid with its vertex order and edge order shuffled, as the benchmark builds its grids."""
    g = unit_grid(k)
    edges = g.edge_list()
    return build_graph([(g.vertices[i], 1.0) for i in rng.permutation(k * k)],
                       [edges[i] for i in rng.permutation(len(edges))])


def guard_graphs():
    """Unit grids 6, 12 and 16, the <= 6-vertex atlas, K_{1,50}, the hub grid, 40 widely weighted graphs
    and shuffled grids 12, 16 and 30."""
    rng = np.random.default_rng(20)
    return [*(unit_grid(k) for k in (6, 12, 16)), *atlas_graphs(6), *star_and_hub_grid(),
            *(widely_weighted_graph(rng) for _ in range(40)),
            *(shuffled_grid(np.random.default_rng(k), k) for k in (12, 16, 30))]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_blocks_are_dense_bitwise(g, balls, k):
    """Check _gamma2_blocks over balls byte for byte against the dense assembly; return the dense forms."""
    q1, d, gam, row = _gamma2_blocks(g, balls, k)
    q, want_gam, want_row = gamma2_forms_dense(g, balls, k)
    assert same_bits(q1, q[:, :k]) and same_bits(d, np.diagonal(q, axis1=1, axis2=2)[:, k:])
    assert same_bits(gam, want_gam) and same_bits(row, want_row)
    return q


def test_the_block_assembly_is_the_dense_assembly_bitwise(monkeypatch):
    # the blocks are, byte for byte, the dense (B, s, s) assembly's B1 rows,
    # S2 diagonal, Gamma diagonals and Delta rows, in every exact shape group
    # and in every padded stack the curvature function reads; the one-centre
    # form places them into the dense form itself, the S2 entries off the
    # diagonal -0.0 included. The widely weighted graphs are where another
    # gather of W[ball, B1] moves the last bit
    groups = stacks = 0
    for g in guard_graphs():
        for (k, _), balls in g._shape_groups(range(g.num_vertices)).items():
            q = assert_blocks_are_dense_bitwise(g, balls, k + 1)
            ball, form = _gamma2_matrix(g, balls[0, 0])
            assert same_bits(ball, balls[0]) and same_bits(form, q[0])
            groups += 1
        for _, k, _, balls in laid_balls(monkeypatch, g):
            assert_blocks_are_dense_bitwise(g, balls, k + 1)
            stacks += 1
    assert groups > 700 and stacks >= 190


def test_witness_quotients_from_the_blocks_agree_with_kappa():
    # the quotient reads the pinned form as f1^T A11 f1 + 2 f1^T A12 f2 + sum d f2^2
    count = 0
    for g in guard_graphs():
        profile = curvature_profile(g, (2.0, 3.0, 5.0, 10.0, INF))
        for per_n in profile.results.values():
            for res in per_n.values():
                assert abs(res.witness_quotient - res.kappa) <= 1e-8 * (1.0 + abs(res.kappa))
                count += 1
    assert count > 9000


def test_a_merged_stack_mixes_centres_with_and_without_s2(monkeypatch):
    # in the path 0 - 1 - 2 the middle vertex sees every vertex at distance 1,
    # the ends see the other end at distance 2; one stack holds all three
    g = build_graph([(v, 1.0) for v in range(3)], [(0, 1, 1.0), (1, 2, 2.0)])
    groups = g._shape_groups(range(3))
    assert sorted(groups) == [(1, 1), (2, 0)]
    ((stack, k, t, _),) = laid_balls(monkeypatch, g)
    assert (k, t) == (2, 1) and (~stack.pad).sum(axis=1).tolist() == [3, 3, 3]
    profile = curvature_profile(g, (2.0, INF))
    for n in profile.n_values:
        results = profile.results[n]
        assert results[1].kernel_ok
        assert all(results[x].kernel_ok for x in (0, 2))
        for x in g.vertices:
            want = curvature_at(g, x, n)
            assert results[x].kappa == pytest.approx(want.kappa, rel=1e-12, abs=1e-300)


def test_witnesses_live_on_the_ball_without_pad_coordinates():
    # a padded row carries pad coordinates between S1 and S2; the witness keeps
    # the ball's own coordinates only, in the order x, S1, S2
    rng = np.random.default_rng(21)
    graphs = [*star_and_hub_grid(), unit_grid(5)]
    graphs += [random_connected_graph(rng, n_min=3, n_max=25, extra_edge_prob=0.2) for _ in range(5)]
    for g in graphs:
        profile = curvature_profile(g, (3.0, INF))
        for x in g.vertices:
            i = g.index(x)
            s1, s2 = g._two_spheres(i)
            ball = tuple(g.vertices[j] for j in (i, *s1, *s2))
            for n in profile.n_values:
                res = profile.results[n][x]
                assert res.ball == res.witness.domain == ball
                assert res.witness_values.shape == (len(ball),) and res.witness_values[0] == 0.0
                assert res.witness_quotient == pytest.approx(res.kappa, rel=1e-8, abs=1e-8)


def test_curvature_profile_solves_a_repeated_n_once():
    g = unit_grid(3)
    profile = curvature_profile(g, (2, 2.0, INF, 3, INF, 2))
    assert profile.n_values == (2.0, INF, 3.0)
    assert list(profile.results) == list(profile.global_min) == [2.0, INF, 3.0]
    once = curvature_profile(g, (2.0, INF, 3.0))
    assert profile.global_min == once.global_min


def test_curvature_profile_names_the_first_isolated_vertex():
    g = build_graph([("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)], [("a", "b", 1.0)], relaxed=True)
    with pytest.raises(IsolatedVertex) as err:
        curvature_profile(g, (2.0, INF))
    assert err.value.vertex == "c"


def test_curvature_profile_needs_a_vertex():
    # a graph with no vertex reached numpy's empty fmin reduction, and
    # cd_check on it held with no checks
    empty = WeightedGraph((), [], np.zeros((0, 0)))
    with pytest.raises(InvalidParams, match="a graph needs at least one vertex"):
        curvature_profile(empty, (2.0, INF))
    with pytest.raises(InvalidParams, match="a graph needs at least one vertex"):
        cd_check(empty, 0.0, 2.0)


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


def seven_vertex_graph_with_a_small_s2_pivot():
    """Measures and weights spanning 10^-10 to 10^9.6: at v4 one S2 pivot is below 1e-12 of the largest."""
    measures = {"v0": 48940.84187595382, "v1": 16705.4261872439, "v2": 437717320.7583776,
                "v3": 1.9890819006772516e-08, "v4": 38045.41638172163, "v5": 353572575.87209255,
                "v6": 2283094030.3637404}
    edges = [("v0", "v1", 1.96845775708109e-10), ("v0", "v3", 18741390.288118154),
             ("v0", "v6", 4206305397.650742), ("v1", "v2", 1393810051.8124251),
             ("v1", "v4", 9.446702632350444e-08), ("v1", "v5", 2835151536.040835),
             ("v3", "v4", 62908758.487312704)]
    return build_graph(list(measures.items()), edges)


def test_kappa_passes_the_exact_cd_test_with_a_tiny_s2_pivot():
    # a relative pseudo-inverse threshold dropped the small pivot and
    # reported kappa = +378896.7; every real pivot is positive, and the exact
    # inverse gives a kappa at which CD holds in exact rational arithmetic
    g = seven_vertex_graph_with_a_small_s2_pivot()
    res = curvature_at(g, "v4", 2.0)
    assert res.kernel_ok
    assert res.kappa == pytest.approx(-127401.24835014563, rel=1e-12)
    assert is_psd_exact(cd_form_exact(g, "v4", res.kappa, 2.0))
    assert not is_psd_exact(cd_form_exact(g, "v4", res.kappa + 1e-10 * abs(res.kappa), 2.0))
    assert res.witness_quotient == pytest.approx(res.kappa, rel=1e-9)
    # cd_check reads the same kernel; judged on the full form by PSD_TOL
    # times its largest entry, it held at K = 378,897 and 3,788,970
    assert cd_check(g, res.kappa, 2.0, "v4").holds
    rest = [v for v in g.vertices if v != "v4"]
    for K in (378897.0, 3788970.0):
        check = cd_check(g, K, 2.0, "v4").checks[0]
        assert not check.holds and check.lambda_min == res.kappa - K
        f = [Fraction(float(check.witness[v])) if v in check.witness.domain else 0 for v in rest]
        exact = cd_form_exact(g, "v4", K, 2.0)  # the witness is negative on it in exact arithmetic
        assert sum(a * b * f[j] for row, a in zip(exact, f) for j, b in enumerate(row)) < 0


@pytest.mark.parametrize("weight", [1e-155, 1e-162])
def test_kernel_ok_is_false_where_an_s2_pivot_leaves_the_float_range(weight):
    # on the unit-measure 6-cycle each S2 pivot is w^2 / 4: at 1e-155 it is
    # subnormal and its reciprocal overflows, at 1e-162 it underflows to 0;
    # kernel_ok does not depend on n, so an empty n grid reports it too
    for grid in ((), (2.0, INF)):
        c6 = build_graph([(v, 1.0) for v in range(6)], [(v, (v + 1) % 6, weight) for v in range(6)])
        with np.errstate(over="ignore", invalid="ignore"):  # the kappas at 1e-155 are NaN
            profile = curvature_profile(c6, grid)
            assert not profile.kernel_ok.any()
            assert not any(res.kernel_ok for per_n in profile.results.values() for res in per_n.values())
            assert not curvature_at(c6, 0, 2.0).kernel_ok
        healthy = curvature_profile(c6.rescaled_weights(1e100), grid[:1])
        assert healthy.kernel_ok.all() and all(res.kernel_ok for per_n in healthy.results.values()
                                               for res in per_n.values())


def test_a_ball_out_of_the_float_range_leaves_the_other_balls_of_its_stack_exact():
    # a's and b's S2 pivots underflow, so their pencils are not finite; c, d
    # and e share one padded stack with them, and a pad diagonal taken over
    # the whole stack was NaN at e, where kappa then read 0.0 with kernel_ok
    g = build_graph([(v, 1.0) for v in "abcde"],
                    [("a", "b", 1e-160), ("b", "c", 1e-160), ("c", "d", 1.0), ("d", "e", 1.0)])
    with np.errstate(over="ignore", invalid="ignore"):
        res = curvature_profile(g, (2.0,)).results[2.0]["e"]
        assert res.kernel_ok
        assert res.kappa == curvature_at(g, "e", 2.0).kappa == pytest.approx(0.5)
        assert cd_check(g, 0.4, 2.0, "e").holds


def test_kernel_ok_holds_on_unit_graphs():
    count = 0
    for g in (*atlas_graphs(6), *(unit_grid(k) for k in (3, 6, 12, 16))):
        for grid in ((), (1.5, 2.0, INF)):  # an empty n grid reads kernel_ok from the same stacks
            profile = curvature_profile(g, grid)
            assert profile.kernel_ok.all()
            assert all(res.kernel_ok for per_n in profile.results.values() for res in per_n.values())
        count += 1
    assert count == 142 + 4


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


def test_cd_check_agrees_with_the_exact_form_off_the_tolerance():
    # weights and measures spread by log-uniform factors over 1e2, 1e6 and
    # 1e10; K a relative 1e-6 either side of kappa. The exact pinned form
    # in Fractions decides CD(K, n); cd_check must agree wherever K and
    # kappa are further apart than its tolerance MULTIPLICITY_TOL Deg(x)
    rng = np.random.default_rng(18)
    decided = Counter()
    for t in range(12):
        spread = (1e2, 1e6, 1e10)[t % 3]
        base = random_connected_graph(rng, n_min=3, n_max=7)
        factors = np.triu(spread ** rng.uniform(size=base.weights.shape))
        g = WeightedGraph(base.vertices, base.measures * spread ** rng.uniform(size=base.num_vertices),
                          base.weights * (factors + factors.T))
        i = int(rng.integers(g.num_vertices))
        x, tau = g.vertices[i], MULTIPLICITY_TOL * g.weight_sums[i] / g.measures[i]
        for n in (2.0, INF):
            kappa = curvature_at(g, x, n).kappa
            for K in (kappa - 1e-6 * max(1.0, abs(kappa)), kappa + 1e-6 * max(1.0, abs(kappa))):
                if abs(K - kappa) <= tau:
                    continue
                holds = is_psd_exact(cd_form_exact(g, x, K, n))
                assert cd_check(g, K, n, x).holds is holds, (t, x, n, K, kappa)
                decided[holds] += 1
    assert min(decided[True], decided[False]) >= 10


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


def spy_on(monkeypatch, module, names):
    """{name: calls} for module's helpers, each wrapped to count its calls."""
    counts = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def spy(*args):
            counts[name] += 1
            return fn(*args)
        return spy

    for name in names:
        monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return counts


def result_bytes(profile):
    return [(res.vertex, res.n, res.kappa, res.kernel_ok, res.witness_quotient, res.ball,
             res.witness_values.tobytes()) for per_n in profile.results.values() for res in per_n.values()]


def test_curvature_profile_finishes_its_results_on_first_read(monkeypatch):
    # the unit scan reads global_min alone: ball ids, witnesses, their sign fix,
    # the quotients and kernel_ok are built on the first read of results,
    # one sign fix per padded stack and one id gather per 2-ball shape
    counts = spy_on(monkeypatch, steklov.curvature, ("_sign_fix", "_ball_ids"))
    rng = np.random.default_rng(31)
    graphs = [*star_and_hub_grid(), unit_grid(6), make_example("unit_square").graph]
    graphs += [random_connected_graph(rng, n_min=3, n_max=12) for _ in range(4)]
    for g in graphs:
        groups = g._shape_groups(range(g.num_vertices))
        stacks = len(_laid_stacks(g, range(g.num_vertices)))
        counts.update(dict.fromkeys(counts, 0))
        profile = curvature_profile(g, (2.0, 5.0, INF))
        assert profile.global_min and "results" not in profile.__dict__
        assert counts == {"_sign_fix": 0, "_ball_ids": 0}
        results = profile.results
        assert counts == {"_sign_fix": stacks, "_ball_ids": len(groups)}
        assert profile.results is results
        assert counts == {"_sign_fix": stacks, "_ball_ids": len(groups)}
        for per_n in results.values():
            for res in per_n.values():
                with pytest.raises(ValueError):
                    res.witness_values[0] = 1.0
        # the same bytes whether results is read before or after global_min
        later = curvature_profile(g, (2.0, 5.0, INF))
        first = later.results
        assert result_bytes(later) == result_bytes(profile) and later.global_min == profile.global_min
        assert later.results is first


def test_curvature_at_finishes_its_one_result_at_once(monkeypatch):
    counts = spy_on(monkeypatch, steklov.curvature, ("_sign_fix", "_ball_ids"))
    g = make_example("weighted_square", K=1.0, m=1.0).graph
    res = curvature_at(g, g.vertices[0], 3.0)
    assert counts == {"_sign_fix": 1, "_ball_ids": 1}
    assert res.ball[0] == g.vertices[0] and res.witness_quotient == pytest.approx(res.kappa)


def one_shape_graphs(rng):
    """Cycles and complete graphs on 3 to 8 vertices, with unit and with random weights and measures."""
    for N in range(3, 9):
        for G in (nx.cycle_graph(N), nx.complete_graph(N)):
            yield build_graph([(str(v), 1.0) for v in G], [(str(a), str(b), 1.0) for a, b in G.edges])
            yield build_graph([(str(v), float(rng.uniform(0.2, 3.0))) for v in G],
                              [(str(a), str(b), float(rng.uniform(0.2, 3.0))) for a, b in G.edges])


def test_cd_check_reads_the_curvature_functions_kappa():
    # kappa has one definition: on a graph of one 2-ball shape the profile's
    # stack and cd_check's shape group hold the same pencils, solved by the
    # same eigvalsh, so CD(kappa(x, n), n) at x has lambda_min exactly 0
    rng = np.random.default_rng(24)
    ns = (2.0, 3.0, 10.0, INF)
    cases = 0
    for g in one_shape_graphs(rng):
        profile = curvature_profile(g, ns)
        for n in ns:
            for v, res in profile.results[n].items():
                check = cd_check(g, res.kappa, n, v).checks[0]
                assert check.lambda_min == 0.0 and check.holds, (g.vertices, n, v)
                cases += 1
    assert cases == 528


def test_cd_check_holds_at_the_global_minimum_on_small_graphs():
    # padded stacks round the kappas a little differently from cd_check's
    # exact shape groups, always within cd_check's tolerance
    ns = (1.5, 2.0, 3.0, 10.0, INF)
    count = 0
    for g in atlas_graphs(6):
        profile = curvature_profile(g, ns)
        for n in ns:
            assert cd_check(g, profile.global_min[n][0], n).holds, (g.edge_list(), n)
        count += 1
    assert count == 142


def test_a_stack_of_one_shape_has_no_pad_mask(monkeypatch):
    # vertex-transitive graphs have one 2-ball shape: the stack has no pads,
    # skips the pad bookkeeping and gives the one-centre kernel's kappas and
    # witnesses bitwise (the quotients' stacked matmul may round differently)
    masks = []
    laid_stacks = steklov.curvature._laid_stacks

    def spy(g, centres):
        stacks = laid_stacks(g, centres)
        masks.extend(stack.pad for stack in stacks)
        return stacks

    monkeypatch.setattr(steklov.curvature, "_laid_stacks", spy)
    for G in (nx.cycle_graph(6), nx.complete_graph(5), nx.petersen_graph(), nx.hypercube_graph(3)):
        ids = {v: str(v) for v in G.nodes}
        g = build_graph([(v, 1.0) for v in ids.values()], [(ids[a], ids[b], 1.0) for a, b in G.edges])
        masks.clear()
        profile = curvature_profile(g, (2.0, INF))
        assert masks == [None]
        for n in profile.n_values:
            for x in g.vertices:
                got, want = profile.results[n][x], curvature_at(g, x, n)
                assert (got.kappa, got.ball) == (want.kappa, want.ball)
                assert got.witness_quotient == pytest.approx(want.witness_quotient, rel=1e-14)
                assert got.witness_values.tobytes() == want.witness_values.tobytes()
