"""Graph data model: construction, validation, boundary, files, families."""

import collections
import copy
import json
import math
from fractions import Fraction

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
from steklov.graphs import INF, BoundaryGraph, WeightedGraph, _spec_columns, validate_dimension

from oracles import (
    build_graph_by_specs,
    join_by_edge_list,
    parse_graph_file_by_entries,
    random_boundary_graph,
    random_connected_graph,
)

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


@pytest.mark.parametrize("kind", ["float64-F", "int64", "lists", "another-graph's"])
def test_mutating_the_callers_arrays_leaves_the_graph_unchanged(kind):
    # beyond the float64 C arrays above, the public constructor copies
    # whatever it is given; only the builders in steklov.graphs hand over
    # arrays of their own without the copy
    source = make_example("unit_square_diag").graph
    m, w = np.arange(1.0, 5.0), source.weights * np.arange(1.0, 17.0).reshape(4, 4)
    w = w + w.T
    m, w = {"float64-F": (m, np.asfortranarray(w)), "int64": (m.astype(int), w.astype(int)),
            "lists": (m.tolist(), w.tolist()), "another-graph's": (source.measures, source.weights)}[kind]
    g = WeightedGraph(source.vertices, m, w)
    before = g.measures.copy(), g.weights.copy()
    if kind == "another-graph's":
        assert not (np.shares_memory(g.measures, m) or np.shares_memory(g.weights, w))
    elif kind == "lists":
        m[0], w[0][1], w[1][0] = 9.0, 9.0, 9.0
    else:
        m[0], w[0, 1], w[1, 0] = 9, 9, 9
    assert np.array_equal(g.measures, before[0]) and np.array_equal(g.weights, before[1])
    assert g.weights.flags.c_contiguous and g.weights.dtype == np.float64


@pytest.mark.parametrize("ids, measures, weights, error, named", [
    (("a", "b", "c"), [1, 1, 1], [[0, 1, 1], [1, 0, 1], [1, 2, 0]], InvalidParams,
     "w('b', 'c') = 1.0 but w('c', 'b') = 2.0"),
    (("a", "b"), [1, 1], [[0, 1], [1 + 2.0 ** -52, 0]], InvalidParams, "w('a', 'b')"),
    (("a", "b"), [1, 1], [[0, -1], [-1, 0]], NonPositiveValue, "weight of ('a', 'b')"),
    (("a", "b"), [1, 1], [[0, 1], [math.nan, 0]], NonPositiveValue, "weight of ('b', 'a')"),
    (("a", "b"), [1, 1], [[0, math.inf], [math.inf, 0]], NonPositiveValue, "weight of ('a', 'b')"),
    (("a", "b"), [1, 1], [[0, 1], [1, 0.5]], SelfLoop, "'b'"),
    (("a", "b"), [1, 0], [[0, 1], [1, 0]], NonPositiveValue, "measure of 'b'"),
    (("a", "b"), [-1, 1], [[0, 1], [1, 0]], NonPositiveValue, "measure of 'a'"),
    (("a", "b"), [1, math.nan], [[0, 1], [1, 0]], NonPositiveValue, "measure of 'b'"),
    (("a", "b"), [math.inf, 1], [[0, 1], [1, 0]], NonPositiveValue, "measure of 'a'"),
    (("a", "b"), [1, 1, 1], [[0, 1], [1, 0]], InvalidParams, "shapes (3,) and (2, 2)"),
    (("a", "b"), [1, 1], [[0, 1, 0], [1, 0, 0]], InvalidParams, "shapes (2,) and (2, 3)"),
    (("a", "b", "a"), [1, 1, 1], np.zeros((3, 3)), DuplicateVertex, "'a'"),
    (("a", "b", "c"), [1, 1, 1], [[0, 1e200, 0], [1e200, 0, 1], [0, 1, 0]], DegreeOverflow, "Deg('a') = 1e+200"),
])
def test_the_public_constructor_rejects_what_no_builder_gives(ids, measures, weights, error, named):
    # the curvature, the Laplacian and the spectra assume what the builders
    # guarantee; an asymmetric W gave a curvature_profile minimum of -0.0292
    # at 'c' for the first case, and a negative weight Laplacian eigenvalue -2;
    # the last case gave kappa -5.0e199 with kernel_ok true under raw warnings
    with pytest.raises(error) as e:
        WeightedGraph(ids, measures, weights)
    assert named in str(e.value)


def test_the_public_constructor_accepts_zero_weights_and_an_isolated_vertex():
    # a zero weight is a missing edge; connectivity is build_graph's check, not the constructor's
    g = WeightedGraph(("a", "b", "c"), np.ones(3), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert g.components() == (("a", "b"), ("c",))
    assert WeightedGraph((), [], np.zeros((0, 0))).num_vertices == 0  # no vertex, so no degree to check


def path_graph(*weights):
    """The path a - b - c - ... with unit measures and the given edge weights in order."""
    ids = "abcdefgh"[:len(weights) + 1]
    return build_graph([(v, 1.0) for v in ids], [(ids[i], ids[i + 1], w) for i, w in enumerate(weights)])


@pytest.mark.parametrize("g, lam, error", [
    (make_example("unit_square").graph, 1e200, DegreeOverflow),  # Deg^2 overflows
    (make_example("unit_square").graph.rescaled_weights(1e150), 1e150, DegreeOverflow),  # a second scaling
    (path_graph(1.0, 1e10), 1e300, NonPositiveValue),  # (b, c) becomes inf
    (path_graph(1e-10, 1.0), 1e-320, NonPositiveValue),  # (a, b) underflows to 0
    (build_graph([(v, 1.0) for v in "abc"], [("a", "b", 1.0), ("a", "c", 1e-10), ("b", "c", 1e-10)]), 1e-320,
     NonPositiveValue),  # the first of two edges that underflow, in edge_list order
    (path_graph(1.0, 1e-300), 1e-20, None),  # subnormal, still positive
], ids=["degree", "degree-twice", "inf", "zero", "first-zero", "subnormal"])
def test_rescaled_weights_raise_what_build_graph_raises_on_the_scaled_edges(g, lam, error):
    # scaling to inf gave inf weights under an overflow warning and a LinAlgError
    # later, scaling into Deg^2 overflow raised nothing, and a weight scaled to 0
    # dropped its edge without a word
    vertex_specs = [(v, g.measure(v)) for v in g.vertices]
    edge_specs = [(u, v, lam * w) for u, v, w in g.edge_list()]  # Python floats: no warning
    if error is None:
        assert g.rescaled_weights(lam).weights.tobytes() == build_graph(vertex_specs, edge_specs).weights.tobytes()
        return
    with pytest.raises(error) as got:
        g.rescaled_weights(lam)
    with pytest.raises(error) as want:
        build_graph(vertex_specs, edge_specs)
    assert str(got.value) == str(want.value) and repr(vars(got.value)) == repr(vars(want.value))


@pytest.mark.parametrize("boundary, interior, error, named", [
    (("1",), ("1", "2", "3"), InvalidParams, "'1' is listed twice: in the boundary and in the interior"),
    (("1", "1"), ("2", "3"), InvalidParams, "'1' is listed twice: in the boundary and in the boundary"),
    (("1",), ("2",), InvalidParams, "'3' is in neither"),
    (("1", "3"), ("2", "4"), UnknownVertex, "'4'"),
])
def test_a_boundary_graph_needs_a_partition_of_the_vertices(boundary, interior, error, named):
    # the boundary listed again as interior made steklov_spectrum return [-4.4e-16] without a word
    g = unit_path(3)
    with pytest.raises(error) as e:
        BoundaryGraph(g, boundary, interior)
    assert named in str(e.value)


def test_a_boundary_graph_indexes_its_partition_in_the_order_given():
    # the public constructor keeps the order of its lists; attach_boundary hands over its sorted indices
    g = unit_path(3)
    bg = BoundaryGraph(g, ["3", "1"], ["2"])
    assert (bg.boundary, bg.interior) == (("3", "1"), ("2",))
    assert bg.boundary_indices.tolist() == [2, 0] and bg.interior_indices.tolist() == [1]
    attached = attach_boundary(g, {"3", "1"})
    assert attached.boundary_indices.tolist() == [0, 2] and attached.interior_indices.tolist() == [1]
    assert BoundaryGraph(g, attached.boundary, attached.interior) == attached
    for b in (bg, attached, make_example("complete_interior", interior_size=3, n=10, K=1, m=1)):
        assert not (b.boundary_indices.flags.writeable or b.interior_indices.flags.writeable)
        assert [b.graph.vertices[i] for i in b.boundary_indices] == list(b.boundary)
        assert [b.graph.vertices[i] for i in b.interior_indices] == list(b.interior)


def test_every_builder_gives_an_exactly_symmetric_weight_matrix():
    # the Gamma2 assembly reads W[ball, B1] as the transpose of W[B1, ball],
    # so every construction path must give W == W.T bit for bit; the builders'
    # graphs own arrays that are read-only and leave their sources unchanged
    rng = np.random.default_rng(31)
    Edge = collections.namedtuple("Edge", "u v w")
    graphs = [make_example(family, **params).graph for family, params in [
        ("unit_path3", {}), ("unit_square", {}), ("unit_square_diag", {}),
        ("weighted_path3", {"n": 3, "K": 0.7, "m": 1.3}), ("weighted_path3", {"n": INF, "K": 2.0, "m": 0.3}),
        ("weighted_square", {"K": 1.7, "m": 0.9}),
        ("complete_interior", {"interior_size": 7, "n": 10, "K": 1.1, "m": 0.6, "lam": 2.3})]]
    for _ in range(25):
        bg = random_boundary_graph(rng, n_min=3, n_max=14, weight_range=(1e-3, 1e3), measure_range=(0.1, 10.0))
        g = bg.graph
        vertex_specs, edge_specs = [(v, g.measure(v)) for v in g.vertices], [Edge(*e) for e in g.edge_list()]
        assert _spec_columns(edge_specs, 3) is None  # not tuples or lists: build_graph walks the specs
        weights = g.weights.copy()
        graphs += [build_graph(vertex_specs, map(tuple, edge_specs)), build_graph(vertex_specs, edge_specs),
                   parse_graph_file(serialize_graph(bg)).graph, g.rescaled_weights(float(rng.uniform(0.1, 10.0))),
                   bg.interior_graph, join_equality_boundary(g, 10, float(rng.uniform(0.5, 2.0)), 1.0).graph]
        assert np.array_equal(g.weights, weights)
    for g in graphs:
        assert np.array_equal(g.weights, g.weights.T)
        assert not (g.weights.flags.writeable or g.measures.flags.writeable)


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
    # the interior is scaled past what rescaled_weights accepts through _adopt,
    # so that the join meets inf weights and overflowing degrees itself
    base = complete_graph(3, weight, measure)
    with np.errstate(over="ignore", under="ignore"):
        interior = WeightedGraph._adopt(base.vertices, base.measures, lam * base.weights)
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


@pytest.mark.parametrize("fields, message", [
    (('"\\ud800"', '"2"', '"3"'), "vertices[1].id '\\ud800' is not encodable as UTF-8"),
    (('"2"', '"x\\udfff"', '"3"'), "edges[1].u 'x\\udfff' is not encodable as UTF-8"),
    (('"2"', '"3"', '"\\ud800"'), "boundary[1] '\\ud800' is not encodable as UTF-8"),
], ids=["vertex", "unknown-edge-endpoint", "boundary"])
def test_an_id_utf8_cannot_encode_is_named_in_file_order(fields, message):
    # all ids are encoded as one text; the error still names the first
    # offender in file order, before build_graph would call the unknown
    # endpoint x\udfff an UnknownVertex
    text = ('{"vertices": [{"id": "1", "m": 1}, {"id": %s, "m": 1}, {"id": "3", "m": 1}], '
            '"edges": [{"u": "1", "v": "2", "w": 1}, {"u": %s, "v": "3", "w": 1}], "boundary": ["1", %s]}' % fields)
    for parse in (parse_graph_file, parse_graph_file_by_entries):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == f"parse error at document: {message}"


def _outcome(build, *args):
    """What build gives on args: the error's type and message, or the graph's ids, arrays and boundary."""
    try:
        result = build(*args)
    except Exception as e:  # the comparison is of whatever is raised
        return type(e).__name__, str(e)
    g = getattr(result, "graph", result)
    return (g.vertices, g.measures.tolist(), g.weights.tolist(),
            getattr(result, "boundary", None), getattr(result, "interior", None))


_ODD_VALUES = [True, False, None, "1", "one", [], [1.0], {}, -1, 0, 0.0, -0.0, math.nan, math.inf, -math.inf,
               10 ** 400, 5e-324, 1e-300, 1e300, 1e308, 2, 3.5]
_ODD_IDS = [1, None, True, [], "", "x\ud800", "\udfff", "zz"]


def _mutated_file(rng, doc):
    """doc with one or two random changes an input file could carry, as JSON text."""
    doc = copy.deepcopy(doc)
    vertices, edges, boundary = doc["vertices"], doc["edges"], doc["boundary"]
    ids = [v["id"] for v in vertices]
    pick = lambda seq: seq[rng.integers(len(seq))]  # noqa: E731
    for _ in range(rng.integers(1, 3)):
        kind = rng.integers(14)
        if kind in (1, 2, 4, 5, 6, 12) and not all(isinstance(e, dict) for e in vertices + edges):
            continue  # the entry changed first is no object
        if kind == 0:
            vertices[rng.integers(len(vertices))] = pick([1, "x", [], None, {"id": "q"}, {"id": "q", "m": 1, "z": 0}])
        elif kind == 1 and vertices:
            pick(vertices)["id"] = pick(_ODD_IDS + ids)
        elif kind == 2 and vertices:
            pick(vertices)["m"] = pick(_ODD_VALUES)
        elif kind == 3 and edges:
            edges[rng.integers(len(edges))] = pick(
                [1, "e", None, {"u": "a", "v": "b"}, {"u": 1, "v": 2, "w": 3, "x": 4}])
        elif kind == 4 and edges:
            pick(edges)[pick(["u", "v"])] = pick(_ODD_IDS + ids)
        elif kind == 5 and edges:
            pick(edges)["w"] = pick(_ODD_VALUES)
        elif kind == 6 and edges:
            e = pick(edges)
            edges.append({"u": e[pick(["u", "v"])], "v": e[pick(["u", "v"])], "w": pick([1.0, 2.5, -1.0])})
        elif kind == 7 and edges:
            del edges[rng.integers(len(edges))]
        elif kind == 8 and boundary:
            boundary[rng.integers(len(boundary))] = pick(_ODD_IDS + ids)
        elif kind == 9:
            boundary.append(pick(ids + boundary))
        elif kind == 10:
            doc["boundary"] = pick([[], list(ids), ids[:1]])
        elif kind == 11 and vertices:
            vertices.append(copy.deepcopy(pick(vertices)))
        elif kind == 12 and vertices:
            pick(vertices)["m"] = pick([1e-300, 1e-160])
        elif kind == 13:
            doc[pick(["vertices", "edges", "boundary"])] = pick([{}, "x", None])
    return json.dumps(doc)


def test_the_column_checks_raise_what_the_entry_by_entry_parser_raises():
    # every error, its message and which comes first are those of the
    # parser that checked one entry at a time; valid files give equal graphs
    rng = np.random.default_rng(28)
    seen = set()
    for case in range(1500):
        bg = random_boundary_graph(rng, n_min=3, n_max=7)
        doc = json.loads(serialize_graph(bg))
        text = _mutated_file(rng, doc) if case % 10 else json.dumps(doc)
        got = _outcome(parse_graph_file, text)
        assert got == _outcome(parse_graph_file_by_entries, text), text
        seen.add(got[0] if isinstance(got[0], str) else "graph")
    assert {"graph", "ParseError", "NonPositiveValue", "UnknownVertex", "SelfLoop", "DuplicateEdge",
            "DuplicateVertex", "Disconnected", "DegreeOverflow", "EmptyBoundary", "EmptyInterior",
            "BoundaryNotIndependent"} <= seen


def test_build_graph_raises_what_the_spec_by_spec_build_raises():
    # specs of any shape and values of any type: the column checks decide
    # only what they can decide in bulk, and the spec walk names the rest
    odd = _ODD_VALUES + [np.float64(2.0), np.float32(0.5), np.int64(3), np.True_, Fraction(1, 3), "2.5",
                         np.array(1.5), np.array([1.5])]
    rng = np.random.default_rng(29)
    pick = lambda seq: seq[rng.integers(len(seq))]  # noqa: E731
    seen = set()
    for case in range(1500):
        n = int(rng.integers(1, 6))
        ids = [f"v{i}" for i in range(n)]
        vertex_specs = [(v, float(rng.uniform(0.5, 2.0))) for v in ids]
        edge_specs = [(ids[i - 1], ids[i], float(rng.uniform(0.5, 2.0))) for i in range(1, n)]
        for _ in range(rng.integers(0, 3) if case % 5 else 0):
            kind = rng.integers(7)
            specs = vertex_specs if kind < 3 or not edge_specs else edge_specs
            k = rng.integers(len(specs))
            if not isinstance(specs[k], (tuple, list)):
                continue
            spec = list(specs[k])
            if kind in (0, 3):
                spec[-1] = pick(odd)
            elif kind in (1, 4):
                spec[rng.integers(len(spec) - 1)] = pick([1, 1.0, "v0", "zz", ("t",), ["l"], None])
            elif kind == 5:
                spec = pick([spec[:-1], spec + [1], "ab", 7, None])
            elif kind == 6:
                specs.append(tuple(spec[:-1][::-1] + [1.0]) if specs is edge_specs else tuple(spec))
            if not isinstance(spec, list):
                specs[k] = spec
            else:
                specs[k] = pick([tuple, list])(spec)
        relaxed = bool(rng.integers(2))
        got = _outcome(build_graph, vertex_specs, edge_specs, relaxed)
        assert got == _outcome(build_graph_by_specs, vertex_specs, edge_specs, relaxed), (vertex_specs, edge_specs)
        seen.add(got[0] if isinstance(got[0], str) else "graph")
    assert {"graph", "TypeError", "ValueError", "NonPositiveValue", "UnknownVertex", "SelfLoop", "DuplicateEdge",
            "DuplicateVertex"} <= seen


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


def test_the_edge_list_is_the_upper_triangles_two_dimensional_scan():
    # edges come from one flat scan of the upper triangle, in the order, and
    # with the ids and weights, of np.nonzero(np.triu(W)); so the graph file
    # that serialize_graph writes keeps its bytes
    rng = np.random.default_rng(32)
    graphs = [random_connected_graph(rng, n_min=1, n_max=40, extra_edge_prob=p, weight_range=(1e-3, 1e3))
              for p in (0.05, 0.3, 0.9) * 8]
    graphs.append(build_graph([(v, 1.0) for v in "abcde"], [("b", "c", 1.0), ("a", "e", 2.5)], relaxed=True))
    for g in graphs:
        iu, iv = np.nonzero(np.triu(g.weights))
        want = tuple((g.vertices[i], g.vertices[j], float(g.weights[i, j])) for i, j in zip(iu.tolist(), iv.tolist()))
        got = g.edge_list()
        assert got == want and [tuple(map(type, e)) for e in got] == [tuple(map(type, e)) for e in want]
