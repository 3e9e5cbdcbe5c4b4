"""Independent oracles and random generators shared by the test modules.

Everything here recomputes quantities through a route different from the one
the library uses, so agreement is evidence rather than tautology:

  * dense matrix application for the Laplacian,
  * the explicit per-vertex sums for Gamma and Gamma2, against the library's
    stacked 2-ball forms,
  * the product-rule identity for Gamma,
  * polarization of the scalar operators for local quadratic forms,
  * the dense 2-ball Gamma2 assembly, with the whole (B, s, s) weight stack
    and P stack, for bitwise comparison with the library's block assembly,
  * bisection on a directly assembled pencil for the curvature function,
  * exact rational arithmetic (fractions.Fraction) on the float weights and
    measures for the pinned CD form, decided PSD by exact LDL^T pivots with
    no tolerance,
  * extension-plus-normal-derivative composition for the DtN map,
  * the specialized interior/boundary formulas valid under the degree
    assumptions (A1)-(A4) for Gamma, Delta and Gamma2,
  * a one-vertex-at-a-time ball scatter of the condition-(5) form, in the
    library's per-entry order of operations, for bitwise comparison with the
    stacked assembly,
  * the boundary join through an edge list and build_graph, conditions
    (1)-(4) one vertex at a time, and the structural diagnostics built
    eagerly, each for bitwise comparison with the library's array-built or
    on-read route,
  * the JSON writer as it was before the bulk float kernel (one recursive
    walk, one `%` pass or `_format_float` call per entry), for byte
    comparison with `steklov.jsonio.format_json`,
  * the graph-file parser, build_graph and attach_boundary as they were
    before the checks ran over whole columns: every entry, spec and
    boundary vertex checked one at a time, in file order, for comparison
    of the error raised (type and message) or the graph built.
"""

import json
import math
from fractions import Fraction

import numpy as np

from steklov import (
    VertexFunction,
    boundary_degree,
    attach_boundary,
    build_graph,
    differential,
    disjoint_ball_scan,
    harmonic_extension,
    induced_interior_graph,
    inner_product_forms,
    inner_product_functions,
    interior_edges,
    laplacian,
    normal_derivative,
    steklov_eigenfunction_diagnostics,
    steklov_spectrum,
    two_ball_identity_check,
    weighted_degree,
)
from steklov.errors import (
    BoundaryNotIndependent,
    BoundaryVertexIsolatedFromInterior,
    DegreeOverflow,
    Disconnected,
    DuplicateEdge,
    DuplicateVertex,
    EmptyBoundary,
    EmptyInterior,
    InvalidParams,
    ParseError,
    SelfLoop,
    UnknownVertex,
)
from steklov.graphs import (
    CONDITION_TOL,
    INF,
    BoundaryGraph,
    WeightedGraph,
    _check_positive,
    finite_number,
    is_infinite,
    validate_dimension,
)
from steklov.rigidity import ConditionCheck, NecessaryConditions, _validate_params, degree_targets
from steklov.operators import _aligned, _gamma2_matrix, _gamma_forms, _gamma_matrix

# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_connected_graph(rng, n_min=2, n_max=8, unit=False, extra_edge_prob=0.45,
                           weight_range=(0.2, 3.0), measure_range=(0.2, 3.0)):
    """Random connected weighted graph: random tree plus extra edges."""
    n = int(rng.integers(n_min, n_max + 1))
    ids = [str(i) for i in range(1, n + 1)]

    def w():
        return 1.0 if unit else float(rng.uniform(*weight_range))

    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = w()
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges[(i, j)] = w()
    measures = [1.0 if unit else float(rng.uniform(*measure_range)) for _ in range(n)]
    return build_graph(
        [(ids[i], measures[i]) for i in range(n)],
        [(ids[i], ids[j], wt) for (i, j), wt in edges.items()],
    )


def unit_grid(k):
    """The k x k grid with unit weights and measures, vertices "i_j"."""
    ids = {(i, j): f"{i}_{j}" for i in range(k) for j in range(k)}
    edges = [(v, ids[i + 1, j], 1.0) for (i, j), v in ids.items() if i + 1 < k]
    edges += [(v, ids[i, j + 1], 1.0) for (i, j), v in ids.items() if j + 1 < k]
    return build_graph([(v, 1.0) for v in ids.values()], edges)


def random_boundary_graph(rng, n_min=3, n_max=8, unit=False, extra_edge_prob=0.45,
                          weight_range=(0.2, 3.0), measure_range=(0.2, 3.0)):
    """Random boundary graph: random graph plus a random independent boundary."""
    g = random_connected_graph(rng, n_min, n_max, unit, extra_edge_prob,
                               weight_range, measure_range)
    n = g.num_vertices
    order = rng.permutation(n)
    boundary_idx = []
    for i in order:
        if len(boundary_idx) >= n - 1:
            break
        independent = all(g.weights[i, j] == 0.0 for j in boundary_idx)
        if independent and rng.random() < 0.6:
            boundary_idx.append(int(i))
    if not boundary_idx:
        boundary_idx = [int(order[0])]
    return attach_boundary(g, {g.vertices[i] for i in boundary_idx})


def random_join_boundary_graph(rng, boundary_size=None, interior_size=None,
                               weight_range=(0.5, 1.5), measure_range=(0.5, 1.5)):
    """Random boundary graph built boundary-first and densely joined.

    Every boundary vertex is joined to most interior vertices and the interior
    carries random extra edges; this is the regime where small graphs tend to
    have positive curvature, which the spectral-bound tests need.
    """
    nb = boundary_size or int(rng.integers(2, 4))
    ni = interior_size or int(rng.integers(1, 6))
    b_ids = [f"b{i}" for i in range(1, nb + 1)]
    o_ids = [f"x{i}" for i in range(1, ni + 1)]

    def w():
        return float(rng.uniform(*weight_range))

    edges = {}
    for x in o_ids:
        edges[(b_ids[int(rng.integers(0, nb))], x)] = w()
    for b in b_ids:
        if not any(u == b for u, _ in edges):
            edges[(b, o_ids[int(rng.integers(0, ni))])] = w()
        for x in o_ids:
            if (b, x) not in edges and rng.random() < 0.85:
                edges[(b, x)] = w()
    for i in range(ni):
        for j in range(i + 1, ni):
            if rng.random() < 0.5:
                edges[(o_ids[i], o_ids[j])] = w()
    specs = [(v, float(rng.uniform(*measure_range))) for v in b_ids + o_ids]
    g = build_graph(specs, [(u, v, wt) for (u, v), wt in edges.items()])
    return attach_boundary(g, set(b_ids))


def random_function(rng, domain, scale=1.0):
    return VertexFunction(tuple(domain), scale * rng.standard_normal(len(tuple(domain))))


def random_a1a4_graph(rng, n=None, K=None, m=None, interior_size=None, edge_prob=0.5):
    """Random graph satisfying the four degree assumptions (A1)-(A4).

    A random interior graph (any topology, possibly edgeless or disconnected)
    is joined to a two-vertex boundary with the measures and weights that the
    assumptions force.
    """
    from steklov import join_equality_boundary

    if n is None:
        n = float(rng.choice([2.5, 3.0, 4.0, 7.0, INF]))
    if K is None:
        K = float(rng.uniform(0.3, 2.0))
    if m is None:
        m = float(rng.uniform(0.5, 2.0))
    size = interior_size or int(rng.integers(1, 5))
    ids = [f"x{i}" for i in range(1, size + 1)]
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < edge_prob:
                edges.append((ids[i], ids[j], float(rng.uniform(0.2, 2.0))))
    interior = build_graph(
        [(v, float(rng.uniform(0.4, 2.0))) for v in ids], edges, relaxed=True
    )
    return join_equality_boundary(interior, n, K, m), K, n, m


# ---------------------------------------------------------------------------
# operator oracles
# ---------------------------------------------------------------------------


def laplacian_by_matrix(g, u):
    """Dense-matrix route: Delta u = M^{-1} (W - D) u."""
    w = g.weights
    mat = np.linalg.solve(np.diag(g.measures), w - np.diag(w.sum(axis=1)))
    return mat @ u.on(g.vertices)


def gamma(g, u, v):
    """Gamma(u, v) via the explicit sum."""
    uv_ = _aligned(u, g.vertices)
    vv_ = _aligned(v, g.vertices)
    du = uv_[:, None] - uv_[None, :]
    dv = vv_[:, None] - vv_[None, :]
    out = np.sum(du * dv * g.weights, axis=1) / (2.0 * g.measures)
    return VertexFunction(g.vertices, out)


def gamma2(g, u, v):
    """Gamma2(u, v) = (Delta Gamma(u,v) - Gamma(Delta u, v) - Gamma(u, Delta v)) / 2."""
    guv = gamma(g, u, v)
    lu = laplacian(g, u)
    lv = laplacian(g, v)
    out = 0.5 * (laplacian(g, guv).values - gamma(g, lu, v).values - gamma(g, u, lv).values)
    return VertexFunction(g.vertices, out)


def ball_form_value(ball, q, f):
    """f^T Q f for a ball form Q from _gamma_matrix or _gamma2_matrix, f a function on V."""
    vec = f.values[ball]
    return float(vec @ q @ vec)


def gamma2_forms_dense(g, balls, k):
    """The full Gamma2 forms as one dense assembly: W on the whole 2-ball, P and Q as (B, s, s) stacks.

    Each row of balls lists a centre, its k - 1 neighbours, then S2. With c =
    Delta[i, :] / (2m), 2Q = diag(c deg + W c) - P - P^T, P = diag(c) W + G Delta,
    P zero off the 1-ball rows. Returns Q, the diagonal of the Gamma stack G and the rows Delta[i, B1]:
    the reference for _gamma2_blocks and the one-centre form _gamma2_matrix.
    """
    w = g.weights[balls[:, :, None], balls[:, None, :]]
    deg, mu = g.weight_sums[balls[:, :k]], g.measures[balls[:, :k]]
    diag = np.arange(k)
    delta = w[:, :k] / mu[:, :, None]
    delta[:, diag, diag] -= deg / mu
    row, gam = delta[:, 0, :k], _gamma_forms(w[:, 0, :k], deg[:, 0], mu[:, 0])
    c = row / (2.0 * mu)
    p = np.zeros_like(w)
    p[:, :k] = gam @ delta + c[:, :, None] * w[:, :k]
    q = p + p.transpose(0, 2, 1)
    d = (w[:, :, :k] @ c[:, :, None])[:, :, 0]
    d[:, :k] += c * deg
    diag = np.arange(balls.shape[1])
    q[:, diag, diag] -= d
    q *= -0.5
    return q, np.diagonal(gam, axis1=1, axis2=2).copy(), row


def gamma_by_identity(g, u, v):
    """Product-rule route: Gamma(u, v) = (Delta(uv) - v Delta u - u Delta v) / 2."""
    uv = VertexFunction(g.vertices, u.on(g.vertices) * v.on(g.vertices))
    return 0.5 * (
        laplacian(g, uv).values
        - v.on(g.vertices) * laplacian(g, u).values
        - u.on(g.vertices) * laplacian(g, v).values
    )


def cd_scalar_value(g, x, K, n, f):
    """Gamma2 - (1/n)(Delta f)^2 - K Gamma at x, straight from the operators."""
    value = gamma2(g, f, f)[x] - K * gamma(g, f, f)[x]
    if not is_infinite(n):
        value -= laplacian(g, f)[x] ** 2 / n
    return value


def cd_matrix_by_polarization(g, x, K, n):
    """The pinned CD form over V minus {x}, built by polarizing the scalar."""
    rest = [v for v in g.vertices if v != x]
    k = len(rest)

    def scalar(vec):
        values = np.zeros(g.num_vertices)
        for pos, v in enumerate(rest):
            values[g.index(v)] = vec[pos]
        return cd_scalar_value(g, x, K, n, VertexFunction(g.vertices, values))

    diag = [scalar(np.eye(k)[i]) for i in range(k)]
    q = np.diag(diag)
    for i in range(k):
        for j in range(i + 1, k):
            both = scalar(np.eye(k)[i] + np.eye(k)[j])
            q[i, j] = q[j, i] = (both - diag[i] - diag[j]) / 2.0
    return q


def kappa_by_bisection(g, x, n, iterations=80):
    """Curvature via bisection on PSD-ness of the polarized CD form.

    The form is affine in K, so it is polarized at K = 0 and K = 1 only.
    """
    at_zero = cd_matrix_by_polarization(g, x, 0.0, n)
    slope = cd_matrix_by_polarization(g, x, 1.0, n) - at_zero

    def psd(K):
        evals = np.linalg.eigvalsh(at_zero + K * slope)
        return evals[0] >= -1e-11 * (1.0 + abs(evals).max())

    lo, hi = 0.0, 1.0
    if psd(lo):
        while psd(hi):
            lo, hi = hi, hi * 2.0
            if hi > 1e9:  # pragma: no cover
                raise AssertionError("runaway curvature bracket")
    else:
        lo, hi = -1.0, 0.0
        while not psd(lo):
            lo, hi = lo * 2.0, lo
            if lo < -1e9:  # pragma: no cover
                raise AssertionError("runaway curvature bracket")
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if psd(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def dtn_by_composition(bg):
    """The DtN matrix, column by column: extend a basis vector, differentiate."""
    k = len(bg.boundary)
    out = np.zeros((k, k))
    for j in range(k):
        f = VertexFunction(bg.boundary, np.eye(k)[j])
        out[:, j] = normal_derivative(bg, harmonic_extension(bg, f)).on(bg.boundary)
    return out


def cd_form_exact(g, x, K, n):
    """The pinned CD(K, n) form at x over V minus {x}, as Fractions: every float input is read exactly.

    Entry (u, v) is Gamma2(e_u, e_v)(x) - (Delta e_u)(x) (Delta e_v)(x) / n
    - K Gamma(e_u, e_v)(x), each operator from its defining sum.
    """
    size, at = g.num_vertices, g.index(x)
    m = [Fraction(float(v)) for v in g.measures]
    w = [[Fraction(float(v)) for v in row] for row in g.weights]

    def delta(f):
        return [sum(w[y][z] * (f[z] - f[y]) for z in range(size)) / m[y] for y in range(size)]

    def gamma_at(f, h, y):
        return sum(w[y][z] * (f[z] - f[y]) * (h[z] - h[y]) for z in range(size)) / (2 * m[y])

    def gamma2_at_x(f, h):
        gam = [gamma_at(f, h, y) for y in range(size)]
        return (delta(gam)[at] - gamma_at(delta(f), h, at) - gamma_at(f, delta(h), at)) / 2

    basis = [[Fraction(int(y == u)) for y in range(size)] for u in range(size) if u != at]
    lap = [delta(e)[at] for e in basis]
    K = Fraction(float(K))
    inv_n = 0 if is_infinite(n) else 1 / Fraction(float(n))
    return [[gamma2_at_x(e, h) - inv_n * lap[i] * lap[j] - K * gamma_at(e, h, at)
             for j, h in enumerate(basis)] for i, e in enumerate(basis)]


def is_psd_exact(a):
    """PSD by exact symmetric elimination: no negative pivot, and a zero pivot only on a zero row."""
    a = [row[:] for row in a]
    for k, row in enumerate(a):
        if row[k] < 0 or (row[k] == 0 and any(row[k + 1:])):
            return False
        if row[k] == 0:
            continue
        for other in a[k + 1:]:
            ratio = other[k] / row[k]
            for j in range(k + 1, len(a)):
                other[j] -= ratio * row[j]
    return True


# ---------------------------------------------------------------------------
# specialized formulas under the degree assumptions (A1)-(A4)
# ---------------------------------------------------------------------------


def a1a4_constants(bg):
    deg = weighted_degree(bg.graph, bg.boundary[0])
    degb = boundary_degree(bg, bg.interior[0])
    m = bg.graph.measure(bg.boundary[0])
    return deg, degb, m


def _interior_restriction(bg, f):
    return VertexFunction(bg.interior, f.on(bg.interior))


def lemma_gamma_interior(bg, f, g_, x):
    deg, degb, _ = a1a4_constants(bg)
    ig = induced_interior_graph(bg)
    fo, go = _interior_restriction(bg, f), _interior_restriction(bg, g_)
    b1, b2 = bg.boundary
    return (
        gamma(ig, fo, go)[x]
        + degb / 2.0 * f[x] * g_[x]
        - degb / 4.0 * (f[b1] + f[b2]) * g_[x]
        - degb / 4.0 * (g_[b1] + g_[b2]) * f[x]
        + degb / 4.0 * (f[b1] * g_[b1] + f[b2] * g_[b2])
    )


def lemma_gamma_boundary(bg, f, g_, which):
    deg, degb, m = a1a4_constants(bg)
    ig = induced_interior_graph(bg)
    fo, go = _interior_restriction(bg, f), _interior_restriction(bg, g_)
    ones = VertexFunction(bg.interior, np.ones(len(bg.interior)))
    b = bg.boundary[which]
    return (
        degb / (4.0 * m) * inner_product_functions(ig, fo, go)
        - degb / (4.0 * m) * f[b] * inner_product_functions(ig, go, ones)
        - degb / (4.0 * m) * g_[b] * inner_product_functions(ig, fo, ones)
        + deg / 2.0 * f[b] * g_[b]
    )


def lemma_delta_interior(bg, f, x):
    _, degb, _ = a1a4_constants(bg)
    ig = induced_interior_graph(bg)
    fo = _interior_restriction(bg, f)
    b1, b2 = bg.boundary
    return laplacian(ig, fo)[x] - degb * f[x] + degb / 2.0 * (f[b1] + f[b2])


def lemma_delta_boundary(bg, f, which):
    deg, degb, m = a1a4_constants(bg)
    ig = induced_interior_graph(bg)
    fo = _interior_restriction(bg, f)
    ones = VertexFunction(bg.interior, np.ones(len(bg.interior)))
    b = bg.boundary[which]
    return degb / (2.0 * m) * inner_product_functions(ig, fo, ones) - deg * f[b]


def lemma_gamma2_interior(bg, f, x):
    """Gamma2(f, f)(x) for interior x, assuming f(x) = 0."""
    deg, degb, m = a1a4_constants(bg)
    ig = induced_interior_graph(bg)
    fo = _interior_restriction(bg, f)
    ones = VertexFunction(bg.interior, np.ones(len(bg.interior)))
    b1, b2 = bg.boundary
    f1, f2 = f[b1], f[b2]
    ip_ff = inner_product_functions(ig, fo, fo)
    ip_f1 = inner_product_functions(ig, fo, ones)
    return (
        gamma2(ig, fo, fo)[x]
        + degb * gamma(ig, fo, fo)[x]
        + degb**2 / (8.0 * m) * ip_ff
        + degb / 8.0 * (3.0 * deg * f1**2 + 2.0 * degb * f1 * f2 + 3.0 * deg * f2**2)
        - degb**2 / (4.0 * m) * ip_f1 * (f1 + f2)
    )


def lemma_gamma2_boundary(bg, f, which):
    """Gamma2(f, f) at boundary vertex `which`, assuming f vanishes there."""
    deg, degb, m = a1a4_constants(bg)
    ig = induced_interior_graph(bg)
    fo = _interior_restriction(bg, f)
    ones = VertexFunction(bg.interior, np.ones(len(bg.interior)))
    other = f[bg.boundary[1 - which]]
    df = differential(bg.graph, f)
    energy_interior = inner_product_forms(bg.graph, df, df, s=interior_edges(bg))
    ip_ff = inner_product_functions(ig, fo, fo)
    ip_f1 = inner_product_functions(ig, fo, ones)
    return (
        degb / (2.0 * m) * energy_interior
        + degb * (3.0 * degb - deg) / (8.0 * m) * ip_ff
        + degb**2 / (8.0 * m * m) * ip_f1**2
        + degb * deg / 8.0 * other**2
        - degb**2 / (4.0 * m) * ip_f1 * other
    )


def interior_form_termwise(bg, K, n, x, f_interior):
    """The condition-(5) expression, term by term via the interior operators."""
    ig = induced_interior_graph(bg)
    m = bg.graph.measure(bg.boundary[0])
    ones = VertexFunction(bg.interior, np.ones(len(bg.interior)))
    ip_ff = inner_product_functions(ig, f_interior, f_interior)
    ip_f1 = inner_product_functions(ig, f_interior, ones)
    g2 = gamma2(ig, f_interior, f_interior)[x]
    if is_infinite(n):
        return g2 + K**2 / (8.0 * m) * ip_ff - K**2 / (8.0 * m * m) * ip_f1**2
    lap = laplacian(ig, f_interior)[x]
    gam = gamma(ig, f_interior, f_interior)[x]
    return (
        g2
        - lap**2 / (n - 2.0)
        + 3.0 * K / (n - 1.0) * gam
        + (n + 2.0) ** 2 * K**2 / (8.0 * m * (n - 1.0) ** 2) * ip_ff
        - (n + 2.0) * K / ((n - 1.0) * (n - 2.0) * m) * ip_f1 * lap
        - n * (n + 2.0) ** 2 * K**2 / (8.0 * (n - 2.0) * (n - 1.0) ** 2 * m * m) * ip_f1**2
    )


def interior_form_by_scatter(ig, K, n, m, x):
    """The pinned condition-(5) matrix at x: the base a3 diag(mu) - a5 mu mu^T plus the
    ball terms at x, scattered with np.ix_ one vertex at a time, then symmetrised."""
    i = ig.index(x)
    ball2, g2 = _gamma2_matrix(ig, i)
    ball1, gx = _gamma_matrix(ig, i)
    ell = ig.weights[i, ball1] / ig.measures[i]
    ell[0] -= ig.weight_sums[i] / ig.measures[i]
    mu = ig.measures
    if is_infinite(n):
        a1 = a2 = a4 = 0.0
        a3, a5 = K * K / (8.0 * m), K * K / (8.0 * m * m)
    else:
        a1, a2 = 1.0 / (n - 2.0), 3.0 * K / (n - 1.0)
        a3 = (n + 2.0) ** 2 * K * K / (8.0 * m * (n - 1.0) ** 2)
        a4 = (n + 2.0) * K / ((n - 1.0) * (n - 2.0) * m)
        a5 = n * (n + 2.0) ** 2 * K * K / (8.0 * (n - 2.0) * (n - 1.0) ** 2 * m * m)
    q = a3 * np.diag(mu) - a5 * np.outer(mu, mu)
    q[np.ix_(ball2, ball2)] += g2
    q[np.ix_(ball1, ball1)] += a2 * gx - a1 * np.outer(ell, ell)
    cross = 0.5 * a4 * np.outer(ell, mu)
    q[ball1] -= cross
    q[:, ball1] -= cross.T
    keep = [j for j in range(ig.num_vertices) if j != i]
    q = q[np.ix_(keep, keep)]
    return (q + q.T) / 2.0


def assert_close(a, b, rel=1e-10, context=""):
    scale = max(abs(a), abs(b), 1.0)
    assert abs(a - b) <= rel * scale, f"{context}: {a!r} vs {b!r} (scale {scale:g})"


# ---------------------------------------------------------------------------
# rigidity routes the library replaced, kept as references
# ---------------------------------------------------------------------------


def join_by_edge_list(interior, n, K, m):
    """join_equality_boundary through vertex and edge lists, build_graph and attach_boundary."""
    n = validate_dimension(n)
    K = finite_number(K, "K")
    m = finite_number(m, "m")
    if is_infinite(n):
        target_volume, w_factor = 2.0 * m, K / 2.0
    else:
        target_volume, w_factor = 2.0 * m * n / (n + 2.0), (n + 2.0) * K / (2.0 * (n - 1.0))
    interior_measures = target_volume / float(interior.measures.sum()) * interior.measures
    boundary_weights = w_factor * interior_measures
    taken = set(interior.vertices)
    b1, b2 = "1", "2"
    while b1 in taken or b2 in taken:
        b1, b2 = "b" + b1, "b" + b2
    vertex_specs = [(b1, m), (b2, m)]
    vertex_specs += [(v, float(interior_measures[i])) for i, v in enumerate(interior.vertices)]
    edge_specs = []
    for i, v in enumerate(interior.vertices):
        edge_specs.append((b1, v, float(boundary_weights[i])))
        edge_specs.append((b2, v, float(boundary_weights[i])))
    edge_specs += interior.edge_list()
    return attach_boundary(build_graph(vertex_specs, edge_specs), {b1, b2})


def _close(a, b):
    return abs(a - b) <= CONDITION_TOL * max(abs(a), abs(b), 1e-300)


def necessary_conditions_by_loop(bg, K, n):
    """Conditions (1)-(4) with one scalar test per vertex, witnesses as the library words them."""
    K, n = _validate_params(K, n)
    g = bg.graph
    deg_target, degb_target = degree_targets(K, n)
    if len(bg.boundary) != 2:
        return NecessaryConditions(
            (ConditionCheck(1, False, f"|B| = {len(bg.boundary)}, need 2"),)
            + tuple(ConditionCheck(i, False, "requires |B| = 2") for i in (2, 3, 4)), None)
    b1, b2 = bg.boundary
    checks = []
    missing = [x for x in bg.interior if g.weight(b1, x) == 0.0 or g.weight(b2, x) == 0.0]
    checks.append(ConditionCheck(1, False, f"interior vertex {missing[0]!r} not adjacent to both boundary vertices")
                  if missing else ConditionCheck(1, True, "|B| = 2, interior fully joined"))
    m1, m2 = g.measure(b1), g.measure(b2)
    bad = [x for x in bg.interior if not _close(g.weight(b1, x), g.weight(b2, x))]
    if not _close(m1, m2):
        checks.append(ConditionCheck(2, False, f"m({b1!r}) = {m1:g} != m({b2!r}) = {m2:g}"))
    elif bad:
        x = bad[0]
        checks.append(ConditionCheck(
            2, False, f"w({b1!r},{x!r}) = {g.weight(b1, x):g} != w({b2!r},{x!r}) = {g.weight(b2, x):g}"))
    else:
        checks.append(ConditionCheck(2, True, "boundary measures and edge weights symmetric"))
    degs = (weighted_degree(g, b1), weighted_degree(g, b2))
    checks.append(ConditionCheck(3, True, f"Deg(boundary) = {deg_target:g}")
                  if all(_close(d, deg_target) for d in degs) else ConditionCheck(
                      3, False, f"Deg({b1!r}) = {degs[0]:g}, Deg({b2!r}) = {degs[1]:g}, target {deg_target:g}"))
    bad = [x for x in bg.interior if not _close(boundary_degree(bg, x), degb_target)]
    checks.append(ConditionCheck(4, False, f"Deg_b({bad[0]!r}) = {boundary_degree(bg, bad[0]):g}, target {degb_target:g}")
                  if bad else ConditionCheck(4, True, f"Deg_b(interior) = {degb_target:g}"))
    return NecessaryConditions(tuple(checks), (m1 + m2) / 2.0)


def rigidity_diagnostics_eagerly(bg):
    """check_rigidity's diagnostics dict, every part computed at once, in the library's key order."""
    diagnostics = {}
    if len(bg.boundary) >= 2:
        eig = steklov_eigenfunction_diagnostics(bg, steklov_spectrum(bg))
        diagnostics.update(
            sigma2_interior_norm=eig.interior_norm,
            sigma2_rayleigh_quotient=eig.rayleigh_quotient,
            mu2=eig.mu2,
            mu2_residual=eig.mu2_residual,
            two_ball_max_residual=two_ball_identity_check(bg, eig.extension).max_abs,
        )
    else:
        diagnostics["sigma2_missing"] = "boundary has fewer than 2 vertices"
    scan = disjoint_ball_scan(induced_interior_graph(bg))
    diagnostics.update(
        interior_connected=scan.connected,
        interior_diameter=scan.diameter,
        disjoint_ball_pair=scan.pair,
    )
    return diagnostics


# ---------------------------------------------------------------------------
# the reference JSON writer: one recursive walk, CPython's own float formatting
# ---------------------------------------------------------------------------

_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {ord('"'): '\\"', ord("\\"): "\\\\"}


def _reference_format_float(x):
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _reference_format_floats(a):
    """A 1-D float64 array: one `%.17g` pass when every entry is finite and not integer-valued."""
    if np.isfinite(a).all() and (a != np.trunc(a)).all():
        return "[" + ", ".join(["%.17g"] * a.size) % tuple(a.tolist()) + "]"
    return "[" + ", ".join(map(_reference_format_float, a.tolist())) + "]"


def reference_format_json(obj, sort_keys=False):
    """Serialize nested dicts/lists/scalars to deterministic JSON text."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return f'"{obj.translate(_ESCAPES)}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_format_float(float(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64:
            return _reference_format_floats(obj)
        return reference_format_json(obj.tolist(), sort_keys=sort_keys)
    if isinstance(obj, dict):
        keys = sorted(obj, key=str) if sort_keys else list(obj)
        items = (f'"{str(k).translate(_ESCAPES)}": {reference_format_json(obj[k], sort_keys=sort_keys)}'
                 for k in keys)
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        try:
            joined = "".join(obj)  # a TypeError unless every item is a string
        except TypeError:
            return "[" + ", ".join(reference_format_json(v, sort_keys=sort_keys) for v in obj) + "]"
        if joined.translate(_ESCAPES) != joined:  # escape item by item only when needed
            obj = [s.translate(_ESCAPES) for s in obj]
        return '["' + '", "'.join(obj) + '"]' if obj else "[]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# the graph file, one entry at a time
# ---------------------------------------------------------------------------

def build_graph_by_specs(vertex_specs, edge_specs, relaxed=False):
    """build_graph with every check made spec by spec, in order, and connectivity from hop distances."""
    vertices, measures, index = [], [], {}
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
        weights[i, j] = weights[j, i] = _check_positive("weight", (u, v), w)
    g = WeightedGraph(tuple(vertices), np.array(measures), weights)
    with np.errstate(over="ignore"):
        degrees = g.weights.sum(axis=1) / g.measures
        huge = np.flatnonzero(~np.isfinite(degrees * degrees))
    if huge.size:
        raise DegreeOverflow(g.vertices[huge[0]], float(degrees[huge[0]]))
    if not relaxed:
        reachable = np.isfinite(g.hop_distances(0))
        if not reachable.all():
            raise Disconnected(g.vertices[i] for i in np.flatnonzero(~reachable))
    return g


def attach_boundary_by_loop(g, boundary):
    """attach_boundary with each boundary vertex's neighbours scanned one by one."""
    b_idx = sorted(map(g.index, set(boundary)))
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
        if all(j in members for j in g.neighbor_indices(i)):
            raise BoundaryVertexIsolatedFromInterior(g.vertices[i])
    return BoundaryGraph(g, tuple(g.vertices[i] for i in b_idx),
                         tuple(v for i, v in enumerate(g.vertices) if i not in members))


def parse_graph_file_by_entries(text):
    """parse_graph_file with every entry checked one at a time, in file order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.msg) from None
    except (ValueError, RecursionError) as e:
        raise ParseError(None, str(e)) from None
    keys = ("vertices", "edges", "boundary")
    if not isinstance(doc, dict):
        raise ParseError(None, "top level must be an object")
    if set(doc) - set(keys):
        raise ParseError(None, f"unknown keys {sorted(set(doc) - set(keys))}")
    for key in keys:
        if key not in doc:
            raise ParseError(None, f"missing key {key!r}")
        if not isinstance(doc[key], list):
            raise ParseError(None, f"{key!r} must be an array")

    def number(value, where):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(None, f"{where} must be a number, got {value!r}")
        return value

    vertex_specs, edge_specs, boundary = [], [], doc["boundary"]
    for k, entry in enumerate(doc["vertices"]):
        if not isinstance(entry, dict) or set(entry) != {"id", "m"}:
            raise ParseError(None, f"vertices[{k}] must be an object with keys id, m")
        if not isinstance(entry["id"], str):
            raise ParseError(None, f"vertices[{k}].id must be a string")
        vertex_specs.append((entry["id"], number(entry["m"], f"vertices[{k}].m")))
    for k, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict) or set(entry) != {"u", "v", "w"}:
            raise ParseError(None, f"edges[{k}] must be an object with keys u, v, w")
        if not isinstance(entry["u"], str) or not isinstance(entry["v"], str):
            raise ParseError(None, f"edges[{k}] endpoints must be strings")
        edge_specs.append((entry["u"], entry["v"], number(entry["w"], f"edges[{k}].w")))
    for k, v in enumerate(boundary):
        if not isinstance(v, str):
            raise ParseError(None, f"boundary[{k}] must be a string")
    if len(set(boundary)) != len(boundary):
        raise ParseError(None, "boundary has duplicate entries")
    for name, texts in (("vertices[{}].id", [v for v, _ in vertex_specs]),
                        ("edges[{}].u", [u for u, _, _ in edge_specs]),
                        ("edges[{}].v", [v for _, v, _ in edge_specs]),
                        ("boundary[{}]", boundary)):
        for k, text in enumerate(texts):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(None, f"{name.format(k)} {text!r} is not encodable as UTF-8") from None
    return attach_boundary_by_loop(build_graph_by_specs(vertex_specs, edge_specs), boundary)
