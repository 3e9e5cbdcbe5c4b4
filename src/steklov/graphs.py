"""Weighted graphs with boundary: data model, validation, files, example families.

It also holds what all modules share: the tolerance table, the bound nK/(n-1)
and the one check of numeric parameters, finite_number.

A weighted graph is a finite simple connected graph together with a positive
vertex measure m and positive symmetric edge weights w. A boundary graph adds
an independent boundary set B whose every vertex touches the interior
Omega = V \\ B. Both types are immutable after construction and safe to share.

Vertex ids are opaque (any hashable; strings in the file format) and are
mapped to dense indices in declaration order, so spectra and reports are
deterministic.
"""

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from enum import Enum

import numpy as np

from . import _lapack
from .errors import (
    BoundaryNotIndependent,
    BoundaryVertexIsolatedFromInterior,
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

INF = math.inf

# Numerical tolerances, the single table every module reads.
PSD_TOL = 1e-9  # condition (5) PSD: lambda_min >= -PSD_TOL * max(max |lambda|, largest summand of the form)
CONDITION_TOL = 1e-9  # (1)-(4): measures, weights, degrees agree to |a - b| <= tol max(|a|, |b|) (rigidity._close)
EQUALITY_TOL = 1e-8  # |spectral value - bound| <= EQUALITY_TOL * bound
HARMONIC_TOL = 1e-8  # interior residual of a harmonic extension, relative to max(deg/m) max |f|
MULTIPLICITY_TOL = 1e-8  # relative to max |eigenvalue| (ties), max(deg/m) (global_min ties), deg(x)/m(x) (CD: kappa - K)
GREEN_TOL = 1e-10  # Green's identity residual relative to the sum of its three terms' magnitudes
ZERO_TOL = 1e-12  # the sign fix's leading entry: the first above this fraction of the row's largest
SEARCH_TOL = 1e-6  # relative width at which the construction's lambda bisection stops


def is_infinite(n):
    return n == INF


def lichnerowicz_bound(K, n):
    """nK/(n-1), which is K at n = inf."""
    return K if is_infinite(n) else n * K / (n - 1.0)


def attains_bound(value, bound):
    """The equality verdict on a spectral value: |value - bound| <= EQUALITY_TOL * bound."""
    return abs(value - bound) <= EQUALITY_TOL * bound


def validate_dimension(n):
    """Accept the dimension parameter n from (1, inf]; reject everything else."""
    if n == INF:
        return INF
    try:
        n = float(n)
    except (TypeError, ValueError, OverflowError):
        raise InvalidDimensionParam(n) from None
    if math.isnan(n) or n <= 1.0:
        raise InvalidDimensionParam(n)
    return n


def _as_float(value):
    """value as a float, or NaN when it is a bool or not a real number: a bool is not a number here."""
    try:
        return math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def finite_number(value, name, positive=True):
    """value as a float when it is a finite real number, positive unless positive=False; InvalidParams otherwise.

    A bool is not a number here, as in the graph-file format.
    """
    x = _as_float(value)
    if not math.isfinite(x) or (positive and x <= 0.0):
        raise InvalidParams(f"{name} must be finite{' positive' if positive else ''}, got {value!r}")
    return x


def _check_positive(kind, element, value):
    """value as a float when it is a finite positive real; NonPositiveValue otherwise, for a bool too."""
    x = _as_float(value)
    if not math.isfinite(x) or x <= 0.0:
        raise NonPositiveValue(kind, element, value)
    return x


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted graph.

    vertices : tuple of vertex ids, declaration order
    measures : m, aligned with `vertices`
    weights  : exactly symmetric matrix (W == W.T bit for bit), zero
               diagonal, zero for non-adjacent pairs

    Exact symmetry is a precondition that the Gamma2 assembly relies on: it
    reads W[ball, B1] as the transpose of W[B1, ball]. Every builder in this
    module writes both orientations of an edge from one value.

    The public constructor checks what the builders guarantee (distinct ids,
    an N x N exactly symmetric W with a zero diagonal and finite non-negative
    entries, finite positive measures, Deg(x)^2 within the float range),
    raising an error that names the offender, and keeps read-only copies of
    the arrays it is given; the builders in this module hand over fresh
    arrays without the checks or the copy.

    What depends on the graph alone is built on first use and kept, read-only:
    the neighbour lists, the weight sums and degrees, the Laplacian, and the
    one kept 2-ball structure, the curvature function's record of all
    vertices' 2-balls (curvature._laid_stacks), a tuple of padded stacks,
    each built whole with its n-free float forms (per stack, the
    (B, 1 + k, 1 + k + t) S1 rows of the Gamma2 assembly, r r^T, on a stack
    with S2 also A12 diag(d+) A12^T, and O(B s) vectors) and never written
    to after. cd_check and curvature_at lay out, and condition (5) groups, the
    2-balls of their centres afresh on each call and keep nothing. This module
    walks 2-balls and groups them by shape; the curvature module pads them.
    """

    vertices: tuple
    measures: np.ndarray
    weights: np.ndarray
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(self.vertices)
        measures, weights = np.array(self.measures, dtype=float), np.array(self.weights, dtype=float, order="C")
        _check_arrays(vertices, measures, weights)
        self._keep(vertices, measures, weights)
        _check_degrees(self)

    @classmethod
    def _adopt(cls, vertices, measures, weights):
        """The graph on arrays that nothing else writes to, kept as they are: the builders' constructor.

        vertices is a tuple, measures a float64 vector and weights a float64
        C-contiguous (N, N) matrix; the N x N copy of the public constructor
        is skipped.
        """
        g = object.__new__(cls)
        g._keep(vertices, measures, weights)
        return g

    def _keep(self, vertices, measures, weights):
        """Set the fields, index the vertices and make both arrays read-only."""
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_index", dict(zip(vertices, range(len(vertices)))))
        measures.setflags(write=False)
        weights.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and np.array_equal(self.measures, other.measures)
            and np.array_equal(self.weights, other.weights)
        )

    __hash__ = None

    @property
    def num_vertices(self):
        return len(self.vertices)

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def has_vertex(self, v):
        return v in self._index

    def measure(self, v):
        return float(self.measures[self.index(v)])

    def weight(self, u, v):
        return float(self.weights[self.index(u), self.index(v)])

    @cached_property
    def _adjacency(self):
        """Neighbour index lists, one per vertex, built once per graph from one nonzero scan."""
        n = self.num_vertices
        flat = np.flatnonzero(self.weights > 0.0)  # the 2-D np.nonzero takes several times as long
        ends = np.searchsorted(flat, np.arange(n, n * n + 1, n)).tolist()
        cols = (flat % n).tolist()
        return tuple(cols[start:end] for start, end in zip([0] + ends, ends))

    @cached_property
    def weight_sums(self):
        """sum_y w_xy for every vertex x, built once per graph."""
        sums = self.weights.sum(axis=1)
        sums.setflags(write=False)
        return sums

    @cached_property
    def _degrees(self):
        """Deg(x) = sum_y w_xy / m_x for every vertex x, built once per graph, read-only.

        A degree past the float range is inf, with no numpy warning: the
        constructor's check reads it to name the vertex.
        """
        with np.errstate(over="ignore"):
            degrees = self.weight_sums / self.measures
        degrees.setflags(write=False)
        return degrees

    def neighbor_indices(self, i):
        return self._adjacency[i]

    @cached_property
    def _id_array(self):
        """The vertex ids as a 1-D object array, filled one by one so that a tuple id stays one element."""
        return np.fromiter(self.vertices, dtype=object, count=self.num_vertices)

    def _two_spheres(self, i):
        """The spheres S1 and S2 around i as sorted index lists; S1 is the cached neighbour list itself."""
        s1 = self._adjacency[i]
        if len(s1) == self.num_vertices - 1:
            return s1, []
        return s1, sorted(set().union(*map(self._adjacency.__getitem__, s1)).difference(s1, (i,)))

    def _shape_groups(self, centres):
        """{(|S1|, |S2|): (B, s) array of the 2-balls of that shape}, each row the centre, S1, then S2.

        The given centres are walked to radius 2 from each in turn, on every
        call, so a few centres cost what their own 2-balls cost.
        """
        groups = {}
        for i in centres:
            s1, s2 = self._two_spheres(i)
            groups.setdefault((len(s1), len(s2)), []).append([i, *s1, *s2])
        return {shape: np.array(balls) for shape, balls in groups.items()}

    @cached_property
    def _two_ball_stacks(self):
        """The curvature function's padded stacks of every centre's 2-ball with their n-free forms, built once."""
        from .curvature import _laid_stacks

        return _laid_stacks(self, range(self.num_vertices))

    def edge_list(self):
        """Edges as (u, v, w) with u before v in vertex order."""
        n, ids = self.num_vertices, self.vertices
        flat = np.flatnonzero(np.triu(self.weights) != 0.0)  # the 2-D np.nonzero takes several times as long
        return tuple(zip(map(ids.__getitem__, (flat // n).tolist()), map(ids.__getitem__, (flat % n).tolist()),
                         self.weights.reshape(-1)[flat].tolist()))

    @cached_property
    def _laplacian(self):
        lap = np.diag(self.weight_sums) - self.weights
        lap.setflags(write=False)
        return lap

    def laplacian_matrix(self):
        """Symmetric form matrix L = D - W (so the operator is -M^{-1} L), built once per graph, read-only."""
        return self._laplacian

    @cached_property
    def unit_weight(self):
        """True when every measure is 1 and every weight 0 or 1, decided once per graph."""
        return bool(np.all(self.measures == 1.0) and np.all((self.weights == 0.0) | (self.weights == 1.0)))

    def delta_operator(self):
        """Matrix of the Laplacian operator: (Delta u) = A u with A = M^{-1}(W - D)."""
        return -self.laplacian_matrix() / self.measures[:, None]

    def hop_spheres(self, i):
        """Sorted index lists of the vertices at hop distance 0, 1, ... from i, to the last nonempty sphere.

        The search walks the cached neighbour lists, so it touches i's component
        alone; a 2-ball comes from _two_spheres.
        """
        adj = self._adjacency
        seen = {i}
        spheres = [[i]]
        while nxt := set().union(*map(adj.__getitem__, spheres[-1])) - seen:
            seen |= nxt
            spheres.append(sorted(nxt))
        return spheres

    def hop_distances(self, i):
        """Combinatorial (hop) distances from vertex index i; inf if unreachable."""
        dist = np.full(self.num_vertices, INF)
        for d, sphere in enumerate(self.hop_spheres(i)):
            dist[sphere] = d
        return dist

    def ball_indices(self, i, radius):
        """Indices of the closed ball of hop radius 1 or 2 around i: i, S1, then S2 at radius 2."""
        if radius not in (1, 2):
            raise InvalidParams(f"a ball has hop radius 1 or 2, got {radius!r}")
        s1, s2 = self._two_spheres(i)
        return np.array([i, *s1, *{1: (), 2: s2}[radius]])

    def components(self):
        """Connected components as tuples of vertex ids, in vertex order."""
        seen, comps = set(), []
        for i in range(self.num_vertices):
            if i not in seen:
                reach = sorted(itertools.chain.from_iterable(self.hop_spheres(i)))
                seen.update(reach)
                comps.append(tuple(map(self.vertices.__getitem__, reach)))
        return tuple(comps)

    def rescaled_weights(self, lam):
        """Same graph with every edge weight multiplied by lam > 0; raises what build_graph raises on the scaled edges.

        That is NonPositiveValue for the first edge, in edge_list order, whose
        weight became inf or 0, and DegreeOverflow otherwise. Scaling is
        monotone: a scale above 1 can only take the largest weight to inf, one
        below 1 only the least positive weight to 0, and the offender is looked
        for only then. The products are Python floats, which overflow without
        a warning. A scale of 1 gives the graph itself.
        """
        lam, w = finite_number(lam, "weight scale"), self.weights
        if lam == 1.0:
            return self
        if (lam > 1.0 and lam * float(w.max(initial=0.0)) == INF
                or lam < 1.0 and lam * float(w.min(where=w > 0.0, initial=INF)) == 0.0):
            u, v, x = next((u, v, lam * x) for u, v, x in self.edge_list() if not 0.0 < lam * x < INF)
            raise NonPositiveValue("weight", (u, v), x)
        g = WeightedGraph._adopt(self.vertices, self.measures, lam * w)
        _check_degrees(g)
        return g


@dataclass(frozen=True, eq=False)
class BoundaryGraph:
    """A weighted graph together with a validated boundary/interior partition.

    The public constructor checks that boundary and interior partition V,
    both nonempty, and indexes both in the order given; attach_boundary and
    join_equality_boundary hand over the sorted index arrays they already
    hold, through _adopt. boundary_indices and interior_indices are read-only.
    """

    graph: WeightedGraph
    boundary: tuple
    interior: tuple
    boundary_indices: np.ndarray = field(init=False, repr=False)
    interior_indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        boundary, interior = tuple(self.boundary), tuple(self.interior)
        self._keep(self.graph, boundary, interior, *_partition_indices(self.graph, boundary, interior))

    @classmethod
    def _adopt(cls, graph, boundary, interior, boundary_indices, interior_indices):
        """The boundary graph on a partition its builder has validated and indexed: the builders' constructor."""
        bg = object.__new__(cls)
        bg._keep(graph, boundary, interior, boundary_indices, interior_indices)
        return bg

    def _keep(self, graph, boundary, interior, boundary_indices, interior_indices):
        """Set the fields, past the frozen __setattr__ as cached_property does, and make both index arrays read-only."""
        vars(self).update(graph=graph, boundary=boundary, interior=interior, boundary_indices=boundary_indices,
                          interior_indices=interior_indices)
        boundary_indices.setflags(write=False)
        interior_indices.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, BoundaryGraph):
            return NotImplemented
        return self.graph == other.graph and self.boundary == other.boundary

    __hash__ = None

    @cached_property
    def interior_cholesky(self):
        """The lower Cholesky factor C of L_OO = C C^T, built once per boundary graph, read-only.

        Raises LinAlgError when L_OO is not SPD or the factor overflows; a failure is not kept.
        """
        oi = self.interior_indices
        chol = _lapack.cholesky(self.graph.laplacian_matrix()[oi[:, None], oi])
        if not np.isfinite(chol).all():
            raise np.linalg.LinAlgError("the Cholesky factor of L_OO is not finite")
        chol.setflags(write=False)
        return chol

    @cached_property
    def interior_graph(self):
        """The interior-induced graph, built once per boundary graph, read-only.

        It inherits m and the interior edge weights, so its own cached
        neighbour lists carry over between calls. It may be disconnected or
        edgeless, which is fine for the structural checks that consume it.
        """
        idx = self.interior_indices
        return WeightedGraph._adopt(self.interior, self.graph.measures[idx], self.graph.weights[np.ix_(idx, idx)])

    @cached_property
    def _boundary_set(self):
        return frozenset(self.boundary)

    def is_boundary(self, v):
        return v in self._boundary_set


def _check_arrays(vertices, measures, weights):
    """The public WeightedGraph constructor's checks, each raising an error that names the first offender."""
    n = len(vertices)
    if len(set(vertices)) < n:
        raise DuplicateVertex(next(v for i, v in enumerate(vertices) if v in vertices[:i]))
    if measures.shape != (n,) or weights.shape != (n, n):
        raise InvalidParams(f"{n} vertices need {n} measures and an {n} x {n} weight matrix, "
                            f"got shapes {measures.shape} and {weights.shape}")
    bad = np.flatnonzero(_not_positive(measures))
    if bad.size:
        raise NonPositiveValue("measure", vertices[bad[0]], float(measures[bad[0]]))
    loops = np.flatnonzero(weights.diagonal())
    if loops.size:
        raise SelfLoop(vertices[loops[0]])
    bad = np.argwhere(_not_positive(weights) & (weights != 0.0))
    if len(bad):
        i, j = bad[0]
        raise NonPositiveValue("weight", (vertices[i], vertices[j]), float(weights[i, j]))
    bad = np.argwhere(weights != weights.T)
    if len(bad):
        i, j = bad[0]
        u, v = vertices[i], vertices[j]
        raise InvalidParams(f"weights must be exactly symmetric: w({u!r}, {v!r}) = {float(weights[i, j])!r} "
                            f"but w({v!r}, {u!r}) = {float(weights[j, i])!r}")


def _partition_indices(g, boundary, interior):
    """The index arrays of boundary and interior, in the order given, when together they list each vertex once.

    UnknownVertex names an id not in g; InvalidParams a vertex listed twice or
    not at all; then EmptyBoundary or EmptyInterior an empty side.
    """
    listed = {}
    for side, part in (("boundary", boundary), ("interior", interior)):
        for v in part:
            i = g.index(v)
            if i in listed:
                raise InvalidParams(f"vertex {v!r} is listed twice: in the {listed[i]} and in the {side}")
            listed[i] = side
    if len(listed) < g.num_vertices:
        missing = next(v for i, v in enumerate(g.vertices) if i not in listed)
        raise InvalidParams(f"vertex {missing!r} is in neither the boundary nor the interior")
    if not boundary or not interior:
        raise EmptyInterior() if boundary else EmptyBoundary()
    indices = list(listed)
    return np.array(indices[:len(boundary)], dtype=int), np.array(indices[len(boundary):], dtype=int)


def build_graph(vertex_specs, edge_specs, relaxed=False):
    """Build a validated WeightedGraph.

    vertex_specs : iterable of (id, measure)
    edge_specs   : iterable of (id, id, weight)

    Raises DuplicateVertex, SelfLoop, DuplicateEdge, NonPositiveValue,
    UnknownVertex, DegreeOverflow (Deg(x)^2, the Gamma2 scale, overflows),
    or Disconnected, each naming the offending element. Connectivity is not
    enforced when relaxed=True.
    """
    vertex_specs, edge_specs = list(vertex_specs), list(edge_specs)
    vertex_columns, edge_columns = _spec_columns(vertex_specs, 2), _spec_columns(edge_specs, 3)
    g = None
    if vertex_columns is not None and edge_columns is not None:
        g = _bulk_graph(*vertex_columns, *edge_columns)
    return _checked_graph(g or _walked_graph(vertex_specs, edge_specs), relaxed)


def _spec_columns(specs, width):
    """The columns of specs when every spec is a tuple or list of width items; None otherwise."""
    if not set(map(type, specs)) <= {tuple, list} or not set(map(len, specs)) <= {width}:
        return None
    return tuple(map(list, zip(*specs))) if specs else ([],) * width


def _bulk_graph(ids, measures, us, vs, ws):
    """The graph when every check of build_graph passes, decided over whole columns; None otherwise.

    Where it gives None, _walked_graph walks the specs in order and raises on the first offender.
    """
    n, m = len(ids), len(ws)
    try:
        index = dict(zip(ids, range(n)))
        ij = np.fromiter(map(index.__getitem__, itertools.chain(us, vs)), np.intp, 2 * m).reshape(2, m)
    except (KeyError, TypeError):  # an unknown or unhashable id
        return None
    if len(index) < n or not n:
        return None
    values = _positive_values([*measures, *ws])
    if values is None:
        return None
    weights = np.zeros(n * n)
    weights[ij * n + ij[::-1]] = values[n:]  # both orientations of each edge
    if np.count_nonzero(weights) < 2 * m:  # a self-loop or a repeated pair wrote a cell twice
        return None
    return WeightedGraph._adopt(tuple(ids), values[:n], weights.reshape(n, n))


def _positive_values(values):
    """values, not empty, as a float array when each is a finite positive real and not a bool; None otherwise.

    The rule is _not_positive's, read off the least and the largest value (a NaN fails both).
    """
    if not {bool, np.bool_}.isdisjoint(map(type, values)):
        return None
    try:
        x = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return x if x.shape == (len(values),) and 0.0 < x.min() and x.max() < INF else None


def _walked_graph(vertex_specs, edge_specs):
    """build_graph's checks spec by spec, in order: the first offender raises."""
    vertices = []
    measures = []
    index = {}
    for vid, m in vertex_specs:
        if vid in index:
            raise DuplicateVertex(vid)
        index[vid] = len(vertices)
        vertices.append(vid)
        measures.append(_check_positive("measure", vid, m))
    if not vertices:
        raise InvalidParams("a graph needs at least one vertex")

    n = len(vertices)
    edges = {}  # flat index i n + j into W to the weight, both orientations of each edge
    for u, v, w in edge_specs:
        if u not in index:
            raise UnknownVertex(u)
        if v not in index:
            raise UnknownVertex(v)
        if u == v:
            raise SelfLoop(u)
        i, j = index[u], index[v]
        key = i * n + j
        if key in edges:
            raise DuplicateEdge(u, v)
        edges[key] = edges[j * n + i] = _check_positive("weight", (u, v), w)
    weights = np.zeros(n * n)
    weights[np.fromiter(edges, np.intp, len(edges))] = np.fromiter(edges.values(), float, len(edges))
    return WeightedGraph._adopt(tuple(vertices), np.array(measures), weights.reshape(n, n))


def _checked_graph(g, relaxed):
    """g once its degrees pass and, unless relaxed, it is connected."""
    _check_degrees(g)
    if not relaxed:
        first, *others = g.components()
        if others:
            reached = set(first)
            raise Disconnected(v for v in g.vertices if v not in reached)
    return g


def _check_degrees(g):
    """DegreeOverflow naming the first vertex whose Deg(x)^2, the Gamma2 scale, overflows a float."""
    degrees = g._degrees
    top = float(degrees.max(initial=0.0))
    if not top * top < INF:  # squares rise with the degree, so the largest decides
        with np.errstate(over="ignore"):
            huge = np.flatnonzero(~np.isfinite(degrees * degrees))
        raise DegreeOverflow(g.vertices[huge[0]], float(degrees[huge[0]]))


def attach_boundary(g, boundary):
    """Partition g into boundary B and interior Omega = V \\ B, validating both.

    B must be a nonempty independent set with a nonempty complement, and every
    boundary vertex must have at least one interior neighbor.
    """
    b_idx = sorted(map(g.index, set(boundary)))  # raises UnknownVertex
    if not b_idx:
        raise EmptyBoundary()
    if len(b_idx) == g.num_vertices:
        raise EmptyInterior()
    members = set(b_idx)
    for i in b_idx:
        if not members.isdisjoint(g.neighbor_indices(i)):
            clash = next(j for j in g.neighbor_indices(i) if j in members)
            raise BoundaryNotIndependent(g.vertices[i], g.vertices[clash])
    for i in b_idx:
        if members.issuperset(g.neighbor_indices(i)):
            raise BoundaryVertexIsolatedFromInterior(g.vertices[i])
    o_idx = [i for i in range(g.num_vertices) if i not in members]
    ids = g.vertices.__getitem__
    return BoundaryGraph._adopt(g, tuple(map(ids, b_idx)), tuple(map(ids, o_idx)), np.array(b_idx), np.array(o_idx))


def weighted_degree(g, x):
    """Deg(x) = (1/m_x) * sum_y w_xy."""
    return float(g._degrees[g.index(x)])


def boundary_degree(bg, x):
    """Deg_b(x) = (1/m_x) * sum over boundary neighbors y of w_xy; x interior."""
    if bg.is_boundary(x) or not bg.graph.has_vertex(x):
        raise NotInteriorVertex(x)
    g = bg.graph
    i = g.index(x)
    return float(g.weights[i, bg.boundary_indices].sum() / g.measures[i])


def induced_interior_graph(bg):
    """The interior-induced graph, inheriting m and the interior edge weights: bg.interior_graph, one per boundary graph."""
    return bg.interior_graph


# ---------------------------------------------------------------------------
# example families
# ---------------------------------------------------------------------------

class ExampleFamily(str, Enum):
    UNIT_PATH3 = "unit_path3"
    UNIT_SQUARE = "unit_square"
    UNIT_SQUARE_DIAG = "unit_square_diag"
    WEIGHTED_PATH3 = "weighted_path3"
    WEIGHTED_SQUARE = "weighted_square"
    COMPLETE_INTERIOR = "complete_interior"


def join_equality_boundary(interior, n, K, m):
    """Join a two-vertex boundary to an interior graph in the equality pattern.

    The interior measures are rescaled so the interior volume is 2mn/(n+2),
    boundary vertices "1" and "2" get measure m and are joined to every
    interior vertex x with weight w_x = m_x (n+2) K / (2(n-1)), which makes
    the two boundary degrees nK/(n-1) and every interior boundary-degree
    (n+2)K/(n-1). Boundary ids are chosen fresh if the interior already uses
    "1" or "2". The join is one block matrix over the interior's arrays; it
    raises what build_graph raises on the same vertices and edges, and
    InvalidParams on an interior with no vertex.
    """
    n = validate_dimension(n)
    K = finite_number(K, "K")
    m = finite_number(m, "m")

    if is_infinite(n):
        target_volume = 2.0 * m
        w_factor = K / 2.0  # (n+2)K / (2(n-1)) as n -> inf
    else:
        target_volume = 2.0 * m * n / (n + 2.0)
        w_factor = (n + 2.0) * K / (2.0 * (n - 1.0))

    if not interior.num_vertices:
        raise InvalidParams("a graph needs at least one vertex")
    scale = target_volume / float(interior.measures.sum())
    interior_measures = scale * interior.measures
    boundary_weights = w_factor * interior_measures

    taken = set(interior.vertices)
    b1, b2 = "1", "2"
    while b1 in taken or b2 in taken:
        b1, b2 = "b" + b1, "b" + b2

    # build_graph's checks in its order: measures, the edges (b1, x) in vertex
    # order (each (b2, x) carries the same weight), then the interior edges
    ids, w = interior.vertices, interior.weights
    bad = np.flatnonzero(_not_positive(interior_measures))
    if bad.size:
        raise NonPositiveValue("measure", ids[bad[0]], float(interior_measures[bad[0]]))
    bad = np.flatnonzero(_not_positive(boundary_weights))
    if bad.size:
        raise NonPositiveValue("weight", (b1, ids[bad[0]]), float(boundary_weights[bad[0]]))
    bad = np.argwhere(np.triu(_not_positive(w) & (w != 0.0)))
    if len(bad):
        i, j = bad[0]
        raise NonPositiveValue("weight", (ids[i], ids[j]), float(w[i, j]))

    nv = interior.num_vertices
    weights = np.zeros((nv + 2, nv + 2))
    weights[:2, 2:] = boundary_weights
    weights[2:, :2] = boundary_weights[:, None]
    weights[2:, 2:] = w
    g = WeightedGraph._adopt((b1, b2) + ids, np.concatenate(([m, m], interior_measures)), weights)
    _check_degrees(g)
    return BoundaryGraph._adopt(g, (b1, b2), ids, np.arange(2), np.arange(2, nv + 2))


def _not_positive(values):
    """Where values are not finite positive numbers, NaN included: _check_positive's rule on arrays."""
    return ~((values > 0.0) & (values < INF))


def make_example(family, **params):
    """Construct one of the named example families as a BoundaryGraph.

    Families: unit_path3; unit_square; unit_square_diag;
    weighted_path3(n, K, m); weighted_square(K, m);
    complete_interior(interior_size, n, K, m, lam). The weighted families
    are join_equality_boundary over an edgeless interior of one vertex, or of
    two vertices at n = inf.
    """
    try:
        family = ExampleFamily(family)
    except ValueError:
        raise InvalidFamilyParams(family, "unknown family") from None

    def take(required, optional=()):
        """The required parameters in order, once none is missing or unknown."""
        extra = set(params) - set(required) - set(optional)
        if extra:
            raise InvalidFamilyParams(family.value, f"unexpected parameters {sorted(extra)}")
        for name in required:
            if name not in params:
                raise InvalidFamilyParams(family.value, f"missing parameter {name}")
        return [params[name] for name in required]

    if family is ExampleFamily.UNIT_PATH3:
        take(())
        g = build_graph([("1", 1), ("2", 1), ("3", 1)], [("1", "2", 1), ("2", "3", 1)])
        return attach_boundary(g, {"1", "3"})

    if family is ExampleFamily.UNIT_SQUARE or family is ExampleFamily.UNIT_SQUARE_DIAG:
        take(())
        edges = [("1", "2", 1), ("2", "3", 1), ("3", "4", 1), ("4", "1", 1)]
        if family is ExampleFamily.UNIT_SQUARE_DIAG:
            edges.append(("2", "4", 1))
        g = build_graph([(str(i), 1) for i in range(1, 5)], edges)
        return attach_boundary(g, {"1", "3"})

    if family is ExampleFamily.WEIGHTED_PATH3:
        n, K, m = take(("n", "K", "m"))
        ids, pairs = ["x"], []
    elif family is ExampleFamily.WEIGHTED_SQUARE:
        K, m = take(("K", "m"))
        n, ids, pairs = INF, ["x", "y"], []
    else:
        size, n, K, m = take(("interior_size", "n", "K", "m"), ("lam",))
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise InvalidFamilyParams(family.value, f"interior_size must be a positive int, got {size!r}")
        ids = [f"x{i}" for i in range(1, size + 1)]
        pairs = [(ids[i], ids[j]) for i in range(size) for j in range(i + 1, size)]
    try:
        lam = finite_number(params.get("lam", 1.0), "lam")
        interior = build_graph([(v, 1.0) for v in ids], [(u, v, lam) for u, v in pairs], relaxed=not pairs)
        return join_equality_boundary(interior, n, K, m)
    except (InvalidParams, InvalidDimensionParam) as e:
        raise InvalidFamilyParams(family.value, str(e)) from None


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_TOP_KEYS = ("vertices", "edges", "boundary")
_VERTEX_KEYS, _EDGE_KEYS = ("id", "m"), ("u", "v", "w")


def _number(value, where, k):
    """value when it is a JSON number; build_graph judges it (an int too large for a float is not finite)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(None, f"{where.format(k)} must be a number, got {value!r}")
    return value


def parse_graph_file(text):
    """Parse the toolkit's graph file format into a BoundaryGraph.

    Format (JSON):
      {"vertices": [{"id": "1", "m": 1.0}, ...],
       "edges":    [{"u": "1", "v": "2", "w": 1.0}, ...],
       "boundary": ["1", "3"]}
    Unknown keys are rejected. Build and boundary validation errors propagate.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.msg) from None
    except (ValueError, RecursionError) as e:  # an int over Python's digit limit, or nesting too deep
        raise ParseError(None, str(e)) from None

    if not isinstance(doc, dict):
        raise ParseError(None, "top level must be an object")
    extra = set(doc) - set(_TOP_KEYS)
    if extra:
        raise ParseError(None, f"unknown keys {sorted(extra)}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise ParseError(None, f"missing key {key!r}")
        if not isinstance(doc[key], list):
            raise ParseError(None, f"{key!r} must be an array")

    vertices, edges, boundary = doc["vertices"], doc["edges"], doc["boundary"]
    columns = _entry_columns(vertices, _VERTEX_KEYS) + _entry_columns(edges, _EDGE_KEYS)
    if None in columns or not (_types_within(columns[0], columns[2], columns[3], boundary, types={str})
                               and _types_within(columns[1], columns[4], types={int, float})
                               and len(set(boundary)) == len(boundary)):
        columns = _walked_entries(vertices, edges, boundary)  # raises on the first offender
    ids, measures, us, vs, ws = columns
    _check_utf8(ids, us, vs, boundary)
    g = _bulk_graph(ids, measures, us, vs, ws)
    if g is None:
        g = _walked_graph(zip(ids, measures), zip(us, vs, ws))
    return attach_boundary(_checked_graph(g, False), boundary)


def _entry_columns(entries, keys):
    """The value lists of keys over entries when every entry is an object with exactly these keys; (None,) otherwise."""
    if not set(map(type, entries)) <= {dict} or not set(map(len, entries)) <= {len(keys)}:
        return (None,)
    try:
        return tuple([list(map(itemgetter(key), entries)) for key in keys])
    except KeyError:
        return (None,)


def _types_within(*columns, types):
    """Whether the type of every item of the columns is one of types (exact types: a bool is not an int)."""
    return set(map(type, itertools.chain(*columns))) <= types


def _walked_entries(vertices, edges, boundary):
    """The file's checks entry by entry, in order: the first offender raises ParseError."""
    ids, measures = [], []
    for k, entry in enumerate(vertices):
        if not isinstance(entry, dict) or entry.keys() != set(_VERTEX_KEYS):
            raise ParseError(None, f"vertices[{k}] must be an object with keys id, m")
        if not isinstance(entry["id"], str):
            raise ParseError(None, f"vertices[{k}].id must be a string")
        ids.append(entry["id"])
        measures.append(_number(entry["m"], "vertices[{}].m", k))

    us, vs, ws = [], [], []
    for k, entry in enumerate(edges):
        if not isinstance(entry, dict) or entry.keys() != set(_EDGE_KEYS):
            raise ParseError(None, f"edges[{k}] must be an object with keys u, v, w")
        if not isinstance(entry["u"], str) or not isinstance(entry["v"], str):
            raise ParseError(None, f"edges[{k}] endpoints must be strings")
        us.append(entry["u"])
        vs.append(entry["v"])
        ws.append(_number(entry["w"], "edges[{}].w", k))

    for k, v in enumerate(boundary):
        if not isinstance(v, str):
            raise ParseError(None, f"boundary[{k}] must be a string")
    if len(set(boundary)) != len(boundary):
        raise ParseError(None, "boundary has duplicate entries")
    return ids, measures, us, vs, ws


def _check_utf8(ids, us, vs, boundary):
    """ParseError naming an id that UTF-8 cannot encode, so no report carries it.

    JSON escapes such as "\\ud800" decode to lone surrogates, which no output
    stream can write. All ids are encoded as one text; only when that fails
    are they encoded one by one, in file order, to name the first.
    """
    try:
        "".join(itertools.chain(ids, us, vs, boundary)).encode("utf-8")
    except UnicodeEncodeError:
        for name, texts in (("vertices[{}].id", ids), ("edges[{}].u", us), ("edges[{}].v", vs),
                            ("boundary[{}]", boundary)):
            for k, text in enumerate(texts):
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(None, f"{name.format(k)} {text!r} is not encodable as UTF-8") from None


def serialize_graph(bg):
    """Serialize a BoundaryGraph to the graph file format (inverse of parse)."""
    from .jsonio import format_json

    g = bg.graph
    doc = {
        "vertices": [{"id": str(v), "m": g.measures[i]} for i, v in enumerate(g.vertices)],
        "edges": [{"u": str(u), "v": str(v), "w": w} for u, v, w in g.edge_list()],
        "boundary": [str(v) for v in bg.boundary],
    }
    return format_json(doc) + "\n"
