"""Graph data model: construction, validation, boundary, files, families."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from steklov import (
    attach_boundary,
    boundary_degree,
    build_graph,
    cd_check,
    induced_interior_graph,
    join_equality_boundary,
    make_example,
    parse_graph_file,
    serialize_graph,
    weighted_degree,
)
from steklov.errors import (
    BoundaryNotIndependent,
    DegreeOverflow,
    Disconnected,
    DuplicateEdge,
    DuplicateVertex,
    EmptyBoundary,
    EmptyInterior,
    InvalidDimensionParam,
    InvalidFamilyParams,
    InvalidParams,
    NonPositiveValue,
    NotInteriorVertex,
    ParseError,
    SelfLoop,
    UnknownVertex,
)
from steklov.graphs import INF, WeightedGraph, validate_dimension

from oracles import join_by_edge_list, random_boundary_graph, random_connected_graph

INF_ = INF


def unit_path(n, boundary=None):
    g = build_graph(
        [(str(i), 1) for i in range(1, n + 1)],
        [(str(i), str(i + 1), 1) for i in range(1, n)],
    )
    return g if boundary is None else attach_boundary(g, boundary)


def test_build_p3():
    g = unit_path(3)
    assert g.vertices == ("1", "2", "3")
    assert g.weight("1", "2") == 1.0
    assert g.weight("1", "3") == 0.0
    assert g.edge_list() == (("1", "2", 1.0), ("2", "3", 1.0))


def test_a_graph_copies_the_arrays_it_is_given():
    # the caller's float64 arrays stay writable, and a later write to them
    # does not reach the graph, whose own arrays are read-only
    m, w = np.ones(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    g = WeightedGraph(("a", "b"), m, w)
    assert m.flags.writeable and w.flags.writeable
    m[0], w[0, 1], w[1, 0] = 3.0, 5.0, 5.0
    assert (g.measure("a"), g.weight("a", "b"), g.weight("b", "a")) == (1.0, 1.0, 1.0)
    assert not (g.measures.flags.writeable or g.weights.flags.writeable)


def test_single_vertex_is_connected():
    g = build_graph([("a", 2.0)], [])
    assert g.num_vertices == 1
    assert g.edge_list() == ()


def test_build_validation_errors():
    with pytest.raises(DuplicateVertex) as e:
        build_graph([("1", 1), ("1", 1)], [])
    assert e.value.vertex == "1"
    with pytest.raises(SelfLoop):
        build_graph([("1", 1), ("2", 1)], [("1", "1", 1)])
    with pytest.raises(DuplicateEdge):
        build_graph([("1", 1), ("2", 1)], [("1", "2", 1), ("1", "2", 2)])
    with pytest.raises(DuplicateEdge):
        build_graph([("1", 1), ("2", 1)], [("1", "2", 1), ("2", "1", 2)])
    with pytest.raises(NonPositiveValue):
        build_graph([("1", -1)], [])
    with pytest.raises(NonPositiveValue):
        build_graph([("1", 1), ("2", 1)], [("1", "2", 0.0)])
    with pytest.raises(NonPositiveValue):
        build_graph([("1", math.inf)], [])
    with pytest.raises(UnknownVertex):
        build_graph([("1", 1), ("2", 1)], [("1", "9", 1)])
    with pytest.raises(Disconnected) as e:
        build_graph([("1", 1), ("2", 1), ("3", 1)], [("1", "2", 1)])
    assert e.value.unreachable == ("3",)


@pytest.mark.parametrize("lam", [1e160, 1e300])
def test_build_graph_rejects_a_degree_whose_square_overflows(lam):
    # the Gamma2 forms scale as Deg^2: once that overflows a float, eigh fails
    # to converge and the Steklov solve returns nonsense, so the graph is
    # rejected where its measures and weights are checked, naming the vertex
    with pytest.raises(DegreeOverflow) as e:
        make_example("complete_interior", interior_size=3, n=10, K=1, m=1, lam=lam)
    assert (e.value.vertex, e.value.degree) == ("x1", 2.0 * lam)
    assert "x1" in str(e.value)
    with pytest.raises(DegreeOverflow) as e:
        build_graph([("a", 1.0), ("b", 1.0), ("c", 1.0)], [("a", "b", 1.0), ("b", "c", 1e300)])
    assert e.value.vertex == "b"
    with pytest.raises(DegreeOverflow) as e:
        build_graph([("a", 1.0), ("b", 1e-300)], [("a", "b", 1.0)])
    assert e.value.vertex == "b"
    with pytest.raises(DegreeOverflow) as e:  # the weight sum itself overflows
        build_graph([("a", 1e300), ("b", 1e300), ("c", 1e300)], [("a", "b", 1e308), ("b", "c", 1e308)])
    assert (e.value.vertex, e.value.degree) == ("b", math.inf)
    # a square just inside the range passes
    bg = make_example("complete_interior", interior_size=3, n=10, K=1, m=1, lam=1e150)
    assert np.isfinite(bg.graph.weight_sums).all()


@pytest.mark.parametrize("flag", [True, np.True_])
def test_build_graph_rejects_bools_as_measures_and_weights(flag):
    # a bool is not a number, as in the graph-file format and finite_number;
    # float(True) would pass it as 1.0
    with pytest.raises(NonPositiveValue) as e:
        build_graph([("a", flag), ("b", 1.0)], [("a", "b", 1.0)])
    assert (e.value.kind, e.value.element, e.value.value) == ("measure", "a", flag)
    with pytest.raises(NonPositiveValue) as e:
        build_graph([("a", 1.0), ("b", 1.0)], [("a", "b", flag)])
    assert (e.value.kind, e.value.element, e.value.value) == ("weight", ("a", "b"), flag)


def test_a_number_too_large_for_a_float_is_an_input_error():
    # float(10**400) raises OverflowError; each gate names it as its own input error
    big = 10 ** 400
    with pytest.raises(NonPositiveValue) as e:
        build_graph([("a", big), ("b", 1.0)], [("a", "b", 1.0)])
    assert (e.value.kind, e.value.element) == ("measure", "a")
    with pytest.raises(NonPositiveValue) as e:
        build_graph([("a", 1.0), ("b", 1.0)], [("a", "b", big)])
    assert (e.value.kind, e.value.element) == ("weight", ("a", "b"))
    with pytest.raises(InvalidDimensionParam):
        validate_dimension(big)
    with pytest.raises(InvalidDimensionParam):
        cd_check(unit_path(3), 1, big)
    for params in ({"n": big, "K": 1, "m": 1}, {"n": 2, "K": big, "m": 1}, {"n": 2, "K": 1, "m": big}):
        with pytest.raises(InvalidFamilyParams):
            make_example("weighted_path3", **params)


def test_attach_boundary_p3():
    bg = unit_path(3, {"1", "3"})
    assert bg.boundary == ("1", "3")
    assert bg.interior == ("2",)


def test_attach_boundary_c4():
    c4 = make_example("unit_square")
    assert c4.interior == ("2", "4")
    g = c4.graph
    with pytest.raises(BoundaryNotIndependent) as e:
        attach_boundary(g, {"1", "2"})
    assert set(e.value.pair) == {"1", "2"}


def test_attach_boundary_errors():
    g = unit_path(3)
    with pytest.raises(EmptyBoundary):
        attach_boundary(g, set())
    with pytest.raises(EmptyInterior):
        attach_boundary(g, {"1", "3", "2"})
    with pytest.raises(UnknownVertex):
        attach_boundary(g, {"7"})


def test_weighted_degree():
    g = unit_path(3)
    assert weighted_degree(g, "2") == pytest.approx(2.0)
    assert weighted_degree(g, "1") == pytest.approx(1.0)
    with pytest.raises(UnknownVertex):
        weighted_degree(g, "9")


def test_weighted_degree_weighted_path():
    # direct-summation cross-check of Deg at the interior vertex
    bg = make_example("weighted_path3", n=3, K=2 / 3, m=1)
    g = bg.graph
    by_hand = (g.weight("1", "x") + g.weight("2", "x")) / g.measure("x")
    assert by_hand == pytest.approx(5 / 3, rel=1e-12)
    assert weighted_degree(g, "x") == pytest.approx(5 / 3, rel=1e-12)


def test_boundary_degree():
    assert boundary_degree(unit_path(3, {"1", "3"}), "2") == pytest.approx(2.0)
    assert boundary_degree(make_example("unit_square"), "2") == pytest.approx(2.0)
    p5 = unit_path(5, {"1", "5"})
    assert boundary_degree(p5, "3") == 0.0
    with pytest.raises(NotInteriorVertex):
        boundary_degree(p5, "1")


def test_induced_interior_graph():
    c4 = make_example("unit_square")
    ig = induced_interior_graph(c4)
    assert ig.vertices == ("2", "4")
    assert ig.edge_list() == ()

    diag = make_example("unit_square_diag")
    ig = induced_interior_graph(diag)
    assert ig.edge_list() == (("2", "4", 1.0),)

    p3 = unit_path(3, {"1", "3"})
    assert induced_interior_graph(p3).vertices == ("2",)


def test_make_example_weighted_path3():
    bg = make_example("weighted_path3", n=3, K=2 / 3, m=1)
    g = bg.graph
    assert g.weight("1", "x") == pytest.approx(1.0, rel=1e-12)
    assert g.weight("2", "x") == pytest.approx(1.0, rel=1e-12)
    assert g.measure("x") == pytest.approx(6 / 5, rel=1e-12)


def test_make_example_weighted_square():
    bg = make_example("weighted_square", K=2, m=1)
    g = bg.graph
    for b in ("1", "2"):
        for x in ("x", "y"):
            assert g.weight(b, x) == pytest.approx(1.0)
    assert np.all(g.measures == 1.0)


def test_make_example_weighted_path3_infinite_dimension():
    bg = make_example("weighted_path3", n=INF_, K=1, m=1)
    assert bg.graph.weight("1", "x") == pytest.approx(1.0)
    assert bg.graph.measure("x") == pytest.approx(2.0)


def test_make_example_rejects_bad_params():
    with pytest.raises(InvalidFamilyParams):
        make_example("no_such_family")
    with pytest.raises(InvalidFamilyParams):
        make_example("weighted_path3", n=1.0, K=1, m=1)
    with pytest.raises(InvalidFamilyParams):
        make_example("weighted_path3", n=3, K=-1, m=1)
    with pytest.raises(InvalidFamilyParams):
        make_example("weighted_path3", n=3, K=1, m=1, extra=2)
    with pytest.raises(InvalidFamilyParams):
        make_example("weighted_square", K=1)
    with pytest.raises(InvalidFamilyParams):
        make_example("complete_interior", interior_size=0, n=4, K=1, m=1)


def test_make_example_rejects_bools_as_numbers():
    with pytest.raises(InvalidFamilyParams):
        make_example("complete_interior", interior_size=True, n=10, K=1, m=1)
    with pytest.raises(InvalidFamilyParams):
        make_example("weighted_path3", n=3, K=True, m=1)


def test_make_example_complete_interior_degrees():
    bg = make_example("complete_interior", interior_size=3, n=4, K=1, m=1, lam=2)
    g = bg.graph
    deg_target = 4 * 1 / 3
    degb_target = 6 * 1 / 3
    for b in bg.boundary:
        assert weighted_degree(g, b) == pytest.approx(deg_target, rel=1e-12)
    for x in bg.interior:
        assert boundary_degree(bg, x) == pytest.approx(degb_target, rel=1e-12)
    assert induced_interior_graph(bg).weights.max() == pytest.approx(2.0)


def complete_graph(size, weight=1.0, measure=1.0):
    ids = [f"x{i}" for i in range(1, size + 1)]
    return build_graph([(v, measure) for v in ids],
                       [(ids[i], ids[j], weight) for i in range(size) for j in range(i + 1, size)],
                       relaxed=(size == 1))


def test_the_array_join_equals_the_edge_list_join():
    # join_equality_boundary builds one block matrix from the interior's arrays;
    # build_graph over an edge list must give the same graph, bit for bit
    rng = np.random.default_rng(21)
    interiors = [complete_graph(1), complete_graph(4, 2.5)]
    interiors += [random_connected_graph(rng, 2, 9).rescaled_weights(10.0 ** rng.uniform(-6, 6)) for _ in range(12)]
    interiors += [build_graph([(v, float(rng.uniform(0.2, 3.0))) for v in ids], [], relaxed=True)
                  for ids in (["a"], ["a", "b", "c"], ["1", "2", "b1", "x"])]
    for interior in interiors:
        for n, K, m in ((3.0, 1.0, 1.0), (10.0, 0.3, 2.5), (INF, 2.0, 0.5)):
            got, want = join_equality_boundary(interior, n, K, m), join_by_edge_list(interior, n, K, m)
            assert (got.graph.vertices, got.boundary, got.interior) == (want.graph.vertices, want.boundary, want.interior)
            assert got.graph.measures.tobytes() == want.graph.measures.tobytes()
            assert got.graph.weights.tobytes() == want.graph.weights.tobytes()


@pytest.mark.parametrize("weight, measure, lam, n, K, m", [
    (1.0, 1.0, 1.0, 10.0, 1e300, 1.0),  # Deg(boundary) squared overflows
    (1.0, 1.0, 1.0, 10.0, 1.0, 1e-320),  # interior measures nearly vanish: Deg(x) overflows
    (1.0, 1.0, 1.0, 10.0, 1e-300, 1e-300),  # boundary weights underflow to 0
    (1.0, 1.0, 1e300, 10.0, 1.0, 1.0),  # interior degrees overflow
    (1e10, 1.0, 1e300, 10.0, 1.0, 1.0),  # an interior weight is inf
    (1.0, 1.0, 1.0, 1.0001, 1e305, 1.0),  # boundary weights are inf
    (1.0, 1.0, 1.0, 3.0, 1.0, 1e308),  # interior measures are inf
    (1.0, 1e300, 1.0, 10.0, 1.0, 1e-300),  # interior measures underflow to 0
])
def test_a_hostile_join_raises_what_the_edge_list_join_raises(weight, measure, lam, n, K, m):
    with np.errstate(over="ignore", under="ignore"):
        interior = complete_graph(3, weight, measure).rescaled_weights(lam)
        with pytest.raises((NonPositiveValue, DegreeOverflow)) as got:
            join_equality_boundary(interior, n, K, m)
        with pytest.raises((NonPositiveValue, DegreeOverflow)) as want:
            join_by_edge_list(interior, n, K, m)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert repr(vars(got.value)) == repr(vars(want.value))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

P3_FILE = """
{"vertices": [{"id": "1", "m": 1.0}, {"id": "2", "m": 1.0}, {"id": "3", "m": 1.0}],
 "edges": [{"u": "1", "v": "2", "w": 1.0}, {"u": "2", "v": "3", "w": 1.0}],
 "boundary": ["1", "3"]}
"""


def test_parse_graph_file():
    bg = parse_graph_file(P3_FILE)
    assert bg == unit_path(3, {"1", "3"})


def test_parse_round_trip():
    bg = unit_path(3, {"1", "3"})
    assert parse_graph_file(serialize_graph(bg)) == bg


def test_parse_errors():
    with pytest.raises(NonPositiveValue):
        parse_graph_file(P3_FILE.replace('"m": 1.0}, {"id": "2"', '"m": -1}, {"id": "2"'))
    with pytest.raises(ParseError):
        parse_graph_file('{"vertices": [], "edges": []}')  # boundary missing
    with pytest.raises(ParseError):
        parse_graph_file(P3_FILE.replace('"boundary"', '"frontier"'))
    with pytest.raises(ParseError):
        parse_graph_file(P3_FILE[:-3])  # truncated json
    with pytest.raises(ParseError):
        parse_graph_file(P3_FILE.replace('"w": 1.0', '"w": true'))
    with pytest.raises(ParseError):
        parse_graph_file(P3_FILE.replace('"id": "1"', '"id": 1'))
    with pytest.raises(ParseError):
        parse_graph_file(P3_FILE.replace('["1", "3"]', '["1", "1"]'))
    with pytest.raises(ParseError):
        parse_graph_file('[1, 2]')


# hypothesis strategy for small valid boundary graphs with string ids

finite_weights = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def boundary_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    ids = [f"v{i}" for i in range(n)]
    measures = [draw(finite_weights) for _ in range(n)]
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    edges = {(parents[i - 1], i): draw(finite_weights) for i in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and draw(st.booleans()):
                edges[(i, j)] = draw(finite_weights)
    g = build_graph(
        [(ids[i], measures[i]) for i in range(n)],
        [(ids[i], ids[j], w) for (i, j), w in edges.items()],
    )
    start = draw(st.integers(min_value=0, max_value=n - 1))
    boundary = [start]
    for i in range(n):
        if i == start or len(boundary) >= n - 1:
            continue
        if all(g.weights[i, j] == 0.0 for j in boundary) and draw(st.booleans()):
            boundary.append(i)
    return attach_boundary(g, {ids[i] for i in boundary})


@given(boundary_graphs())
def test_round_trip_property(bg):
    assert parse_graph_file(serialize_graph(bg)) == bg


def test_boundary_edge_mass_identity():
    # sum over interior of Deg_b * m equals sum over boundary of Deg * m,
    # and both equal twice ... the direct boundary-edge weight sum.
    rng = np.random.default_rng(7)
    for _ in range(25):
        bg = random_boundary_graph(rng)
        g = bg.graph
        interior_side = sum(boundary_degree(bg, x) * g.measure(x) for x in bg.interior)
        boundary_side = sum(weighted_degree(g, b) * g.measure(b) for b in bg.boundary)
        direct = sum(
            w for u, v, w in g.edge_list()
            if (u in set(bg.boundary)) != (v in set(bg.boundary))
        )
        assert interior_side == pytest.approx(direct, rel=1e-12)
        assert boundary_side == pytest.approx(direct, rel=1e-12)


def test_graphs_are_immutable():
    g = unit_path(3)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0
    with pytest.raises(ValueError):
        g.measures[0] = 5.0


def test_a_ball_radius_other_than_one_or_two_is_an_input_error():
    g = make_example("unit_square").graph
    assert g.ball_indices(0, 1).tolist() == [0, 1, 3]
    assert g.ball_indices(0, 2).tolist() == [0, 1, 3, 2]
    for radius in (0, 3, 2.5, "2"):
        with pytest.raises(InvalidParams, match=f"radius 1 or 2, got {radius!r}"):
            g.ball_indices(0, radius)


def test_neighbour_lists_from_one_scan_equal_the_per_row_lists():
    # one nonzero scan split by row counts gives each vertex's sorted
    # neighbour list, an isolated vertex (first, middle or last) its empty one
    rng = np.random.default_rng(17)
    graphs = [random_connected_graph(rng, n_min=2, n_max=30, extra_edge_prob=p) for p in (0.05, 0.3, 0.9) * 5]
    ids = ["a", "b", "c", "d", "e"]
    graphs += [build_graph([(v, 1.0) for v in ids], edges, relaxed=True)
               for edges in ([("b", "c", 1.0), ("c", "d", 2.0)], [("a", "b", 1.0), ("d", "e", 1.0)], [])]
    for g in graphs:
        adjacency = g._adjacency
        assert adjacency == tuple(np.flatnonzero(row).tolist() for row in g.weights > 0.0)
        assert all(type(i) is int for row in adjacency for i in row)
    assert [len(row) for row in graphs[-3]._adjacency] == [0, 1, 2, 1, 0]
