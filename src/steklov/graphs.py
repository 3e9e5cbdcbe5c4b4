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

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from types import MappingProxyType

import numpy as np

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


def finite_number(value, name, positive=True):
    """value as a float when it is a finite real number, positive unless positive=False; InvalidParams otherwise.

    A bool is not a number here, as in the graph-file format.
    """
    try:
        x = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (positive and x <= 0.0):
        raise InvalidParams(f"{name} must be finite{' positive' if positive else ''}, got {value!r}")
    return x


def _check_positive(kind, element, value):
    """value as a float when it is a finite positive real; NonPositiveValue otherwise, for a bool too."""
    try:
        x = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or x <= 0.0:
        raise NonPositiveValue(kind, element, value)
    return x


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted graph.

    vertices : tuple of vertex ids, declaration order
    measures : m, aligned with `vertices`
    weights  : symmetric matrix, zero diagonal, zero for non-adjacent pairs

    The graph keeps read-only copies of the measures and weights it is given.

    What depends on the graph alone is built on first use and kept, read-only:
    the neighbour lists, the weight sums, the Laplacian, and the grouping of
    all vertices by 2-ball shape that the curvature function, cd_check and
    condition (5) read. This module is the one that walks 2-balls.
    """

    vertices: tuple
    measures: np.ndarray
    weights: np.ndarray
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.measures, dtype=float)
        w = np.array(self.weights, dtype=float, order="C")
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "measures", m)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.vertices)})
        m.setflags(write=False)
        w.setflags(write=False)

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
        rows, cols = np.nonzero(self.weights > 0.0)
        ends = np.bincount(rows, minlength=self.num_vertices).cumsum().tolist()
        cols = cols.tolist()
        return tuple(cols[start:end] for start, end in zip([0] + ends, ends))

    @cached_property
    def weight_sums(self):
        """sum_y w_xy for every vertex x, built once per graph."""
        sums = self.weights.sum(axis=1)
        sums.setflags(write=False)
        return sums

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

        All centres (centres == range(N)) read the groups walked once per graph;
        any other centres are walked on each call and leave those untouched, so
        a few centres cost what their own 2-balls cost.
        """
        if centres == range(self.num_vertices):
            return self._two_ball_groups
        return self._walk_shape_groups(centres)

    def _walk_shape_groups(self, centres):
        """The shape groups of the given centres, walked to radius 2 from each in turn."""
        groups = {}
        for i in centres:
            s1, s2 = self._two_spheres(i)
            groups.setdefault((len(s1), len(s2)), []).append([i, *s1, *s2])
        return {shape: np.array(balls) for shape, balls in groups.items()}

    @cached_property
    def _two_ball_groups(self):
        """The shape groups of every centre, built once per graph: a read-only mapping of read-only arrays."""
        groups = self._walk_shape_groups(range(self.num_vertices))
        for balls in groups.values():
            balls.setflags(write=False)
        return MappingProxyType(groups)

    def edge_list(self):
        """Edges as (u, v, w) with u before v in vertex order."""
        iu, iv = np.nonzero(np.triu(self.weights))
        return tuple(
            (self.vertices[i], self.vertices[j], float(self.weights[i, j]))
            for i, j in zip(iu.tolist(), iv.tolist())
        )

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
        while nxt := set().union(*(adj[j] for j in spheres[-1])) - seen:
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
                reach = sorted(j for sphere in self.hop_spheres(i) for j in sphere)
                seen.update(reach)
                comps.append(tuple(self.vertices[j] for j in reach))
        return tuple(comps)

    def rescaled_weights(self, lam):
        """Same graph with every edge weight multiplied by lam > 0."""
        return WeightedGraph(self.vertices, self.measures, finite_number(lam, "weight scale") * self.weights)


@dataclass(frozen=True, eq=False)
class BoundaryGraph:
    """A weighted graph together with a validated boundary/interior partition."""

    graph: WeightedGraph
    boundary: tuple
    interior: tuple

    def __post_init__(self):
        object.__setattr__(self, "boundary", tuple(self.boundary))
        object.__setattr__(self, "interior", tuple(self.interior))

    def __eq__(self, other):
        if not isinstance(other, BoundaryGraph):
            return NotImplemented
        return self.graph == other.graph and self.boundary == other.boundary

    __hash__ = None

    def _indices(self, vertices):
        idx = np.array([self.graph.index(v) for v in vertices], dtype=int)
        idx.setflags(write=False)
        return idx

    @cached_property
    def boundary_indices(self):
        """Graph indices of B in vertex order, built once per boundary graph, read-only."""
        return self._indices(self.boundary)

    @cached_property
    def interior_indices(self):
        """Graph indices of Omega in vertex order, built once per boundary graph, read-only."""
        return self._indices(self.interior)

    @cached_property
    def interior_cholesky(self):
        """The lower Cholesky factor C of L_OO = C C^T, built once per boundary graph, read-only.

        Raises LinAlgError when L_OO is not SPD or the factor overflows; a failure is not kept.
        """
        oi = self.interior_indices
        chol = np.linalg.cholesky(self.graph.laplacian_matrix()[oi[:, None], oi])
        if not np.isfinite(chol).all():
            raise np.linalg.LinAlgError("the Cholesky factor of L_OO is not finite")
        chol.setflags(write=False)
        return chol

    @cached_property
    def interior_graph(self):
        """The interior-induced graph, built once per boundary graph, read-only.

        It inherits m and the interior edge weights, so its own cached
        neighbour lists and 2-ball groups carry over between calls. It may be
        disconnected or edgeless, which is fine for the structural checks
        that consume it.
        """
        idx = self.interior_indices
        return WeightedGraph(self.interior, self.graph.measures[idx], self.graph.weights[np.ix_(idx, idx)])

    @cached_property
    def _boundary_set(self):
        return frozenset(self.boundary)

    def is_boundary(self, v):
        return v in self._boundary_set


def build_graph(vertex_specs, edge_specs, relaxed=False):
    """Build a validated WeightedGraph.

    vertex_specs : iterable of (id, measure)
    edge_specs   : iterable of (id, id, weight)

    Raises DuplicateVertex, SelfLoop, DuplicateEdge, NonPositiveValue,
    UnknownVertex, DegreeOverflow (Deg(x)^2, the Gamma2 scale, overflows),
    or Disconnected, each naming the offending element. Connectivity is not
    enforced when relaxed=True.
    """
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
    weights = np.zeros((n, n))
    for u, v, w in edge_specs:
        if u not in index:
            raise UnknownVertex(u)
        if v not in index:
            raise UnknownVertex(v)
        if u == v:
            raise SelfLoop(u)
        i, j = index[u], index[v]
        if weights[i, j] != 0.0:
            raise DuplicateEdge(u, v)
        w = _check_positive("weight", (u, v), w)
        weights[i, j] = w
        weights[j, i] = w

    g = WeightedGraph(tuple(vertices), np.array(measures), weights)
    _check_degrees(g)
    if not relaxed:
        reachable = np.isfinite(g.hop_distances(0))
        if not reachable.all():
            raise Disconnected(g.vertices[i] for i in np.flatnonzero(~reachable))
    return g


def _check_degrees(g):
    """DegreeOverflow naming the first vertex whose Deg(x)^2, the Gamma2 scale, overflows a float."""
    with np.errstate(over="ignore"):
        degrees = g.weight_sums / g.measures
        huge = np.flatnonzero(~np.isfinite(degrees * degrees))
    if huge.size:
        raise DegreeOverflow(g.vertices[huge[0]], float(degrees[huge[0]]))


def attach_boundary(g, boundary):
    """Partition g into boundary B and interior Omega = V \\ B, validating both.

    B must be a nonempty independent set with a nonempty complement, and every
    boundary vertex must have at least one interior neighbor.
    """
    b_set = set(boundary)
    b_idx = sorted(map(g.index, b_set))  # raises UnknownVertex
    if not b_idx:
        raise EmptyBoundary()
    if len(b_idx) == g.num_vertices:
        raise EmptyInterior()
    members = set(b_idx)
    for i in b_idx:
        clash = [j for j in g.neighbor_indices(i) if j in members]
        if clash:
            raise BoundaryNotIndependent(g.vertices[i], g.vertices[clash[0]])
    for i in b_idx:
        if members.issuperset(g.neighbor_indices(i)):
            raise BoundaryVertexIsolatedFromInterior(g.vertices[i])
    return BoundaryGraph(g, tuple(map(g.vertices.__getitem__, b_idx)),
                         tuple(v for i, v in enumerate(g.vertices) if i not in members))


def weighted_degree(g, x):
    """Deg(x) = (1/m_x) * sum_y w_xy."""
    i = g.index(x)
    return float(g.weights[i].sum() / g.measures[i])


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
    raises what build_graph raises on the same vertices and edges.
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
        raise NonPositiveValue("measure", ids[bad[0]], interior_measures[bad[0]])
    bad = np.flatnonzero(_not_positive(boundary_weights))
    if bad.size:
        raise NonPositiveValue("weight", (b1, ids[bad[0]]), boundary_weights[bad[0]])
    bad = np.argwhere(np.triu(_not_positive(w) & (w != 0.0)))
    if len(bad):
        i, j = bad[0]
        raise NonPositiveValue("weight", (ids[i], ids[j]), float(w[i, j]))

    nv = interior.num_vertices
    weights = np.zeros((nv + 2, nv + 2))
    weights[:2, 2:] = boundary_weights
    weights[2:, :2] = boundary_weights[:, None]
    weights[2:, 2:] = w
    g = WeightedGraph((b1, b2) + ids, np.concatenate(([m, m], interior_measures)), weights)
    _check_degrees(g)
    return BoundaryGraph(g, (b1, b2), ids)


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


def _number(value, where):
    """value when it is a JSON number; build_graph judges it (an int too large for a float is not finite)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(None, f"{where} must be a number, got {value!r}")
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

    vertex_specs = []
    for k, entry in enumerate(doc["vertices"]):
        if not isinstance(entry, dict) or set(entry) != {"id", "m"}:
            raise ParseError(None, f"vertices[{k}] must be an object with keys id, m")
        if not isinstance(entry["id"], str):
            raise ParseError(None, f"vertices[{k}].id must be a string")
        vertex_specs.append((entry["id"], _number(entry["m"], f"vertices[{k}].m")))

    edge_specs = []
    for k, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict) or set(entry) != {"u", "v", "w"}:
            raise ParseError(None, f"edges[{k}] must be an object with keys u, v, w")
        if not isinstance(entry["u"], str) or not isinstance(entry["v"], str):
            raise ParseError(None, f"edges[{k}] endpoints must be strings")
        edge_specs.append((entry["u"], entry["v"], _number(entry["w"], f"edges[{k}].w")))

    boundary = doc["boundary"]
    for k, v in enumerate(boundary):
        if not isinstance(v, str):
            raise ParseError(None, f"boundary[{k}] must be a string")
    if len(set(boundary)) != len(boundary):
        raise ParseError(None, "boundary has duplicate entries")

    return attach_boundary(build_graph(vertex_specs, edge_specs), set(boundary))


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
