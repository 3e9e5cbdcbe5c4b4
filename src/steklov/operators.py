"""Discrete differential operators: Laplacian, differential, Gamma calculus.

The carre du champ Gamma and its iterate Gamma2 are the basic objects of the
curvature-dimension machinery:

    Delta u (x) = (1/m_x) sum_y (u(y) - u(x)) w_xy
    Gamma(u, v)(x) = (1/2 m_x) sum_y (u(x) - u(y)) (v(x) - v(y)) w_xy
    Gamma2(u, v) = (Delta Gamma(u, v) - Gamma(Delta u, v) - Gamma(u, Delta v)) / 2

Local quadratic-form assemblies express Gamma and Gamma2 at a vertex as
symmetric matrices in the values of f on the ball around it, stacked over
the balls of one shape; Gamma comes from the explicit sum, not from the
product-rule identity, which cancels catastrophically. Gamma2 is assembled
by blocks (_gamma2_blocks): the B1 x B1 block, the B1 x S2 block and the
diagonal of the S2 block, which is all of the S2 x S2 block that is not
zero, so only the 1-ball rows of the weights are gathered. The curvature
function, cd_check and condition (5) read the blocks as they are and never
build the S2 x S2 block; only the one-centre form (_gamma2_matrix), which
the tests and the benchmark's tracer read, places them into a full form.
The curvature function also reads stacks of smaller balls, padded with
copies of the centre (the graph lays them out), and zeroes the pad rows and
columns after assembly. The explicit-sum gamma and gamma2, the identity and
the dense (B, s, s) assembly are test oracles (tests/oracles.py).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainMismatch


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """A real-valued function on an explicit vertex set."""

    domain: tuple
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        dom = tuple(self.domain)
        if vals.shape != (len(dom),):
            raise DomainMismatch(dom, range(vals.size))
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    @cached_property
    def _index(self):
        """{vertex: position}, built on the first lookup."""
        return {v: i for i, v in enumerate(self.domain)}

    def __getitem__(self, v):
        try:
            return float(self.values[self._index[v]])
        except KeyError:
            raise DomainMismatch(self.domain, (v,)) from None

    def on(self, domain):
        """Values reindexed onto `domain`, which must be a subset of ours."""
        try:
            idx = [self._index[v] for v in domain]
        except KeyError:
            raise DomainMismatch(domain, self.domain) from None
        return self.values[idx]


def _aligned(u, domain):
    """Values of u on exactly `domain` (any order); strict domain check."""
    if set(u.domain) != set(domain):
        raise DomainMismatch(domain, u.domain)
    return u.on(domain)


@dataclass(frozen=True, eq=False)
class OneForm:
    """A skew-symmetric function on ordered adjacent pairs, stored densely."""

    domain: tuple
    values: np.ndarray  # (N, N), skew-symmetric, zero off-edges

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)


def laplacian(g, u):
    """Delta u, from the defining per-vertex sum."""
    vals = _aligned(u, g.vertices)
    out = (g.weights @ vals - g.weight_sums * vals) / g.measures
    return VertexFunction(g.vertices, out)


def normal_derivative(bg, u):
    """du/dn = -(Delta u) at boundary vertices."""
    lu = laplacian(bg.graph, u)
    return VertexFunction(bg.boundary, -lu.on(bg.boundary))


def differential(g, u):
    """du(x, y) = u(y) - u(x) on edges, zero elsewhere; skew-symmetric."""
    vals = _aligned(u, g.vertices)
    diff = vals[None, :] - vals[:, None]
    diff[g.weights == 0.0] = 0.0
    return OneForm(g.vertices, diff)


def inner_product_functions(g, u, v, s=None):
    """<u, v>_S = sum over x in S of u(x) v(x) m_x.

    u and v must share a domain inside V(g); S defaults to that domain.
    """
    if set(u.domain) != set(v.domain):
        raise DomainMismatch(u.domain, v.domain)
    if s is None:
        s = u.domain
    s = tuple(s)
    uv = u.on(s)
    vv = v.on(s)
    mv = np.array([g.measures[g.index(x)] for x in s])
    return float(np.sum(uv * vv * mv))


def inner_product_forms(g, alpha, beta, s=None):
    """<alpha, beta>_S = sum over edges {x,y} in S of alpha(x,y) beta(x,y) w_xy.

    S is an iterable of vertex pairs and defaults to all edges of g.
    """
    if tuple(alpha.domain) != tuple(g.vertices) or tuple(beta.domain) != tuple(g.vertices):
        raise DomainMismatch(g.vertices, alpha.domain)
    if s is None:
        return float(np.sum(alpha.values * beta.values * g.weights) / 2.0)
    total = 0.0
    for x, y in s:
        i, j = g.index(x), g.index(y)
        total += alpha.values[i, j] * beta.values[i, j] * g.weights[i, j]
    return float(total)


def interior_edges(bg):
    """Edge set E(Omega, Omega) as vertex pairs, for restricted form products."""
    inside = set(bg.interior)
    return tuple((u, v) for u, v, _ in bg.graph.edge_list() if u in inside and v in inside)


# ---------------------------------------------------------------------------
# local quadratic forms
# ---------------------------------------------------------------------------

def _diagonal(a):
    """A writable view of the diagonal of each square matrix in a stack."""
    return np.einsum("...ii->...i", a)


def _gamma_forms(w, deg, m):
    """The (B, k, k) stack of Q with f^T Q f = Gamma(f, f)(x) over closed 1-balls B1 = (x, S1).

    w holds each centre's row W[x, B1], centre first, deg its degree
    sum_y w_xy and m its measure, as the caller gathered them.
    """
    w = w / m[:, None] * 0.5  # 2m overflows for m > 8.99e307, 0.5 w rounds a subnormal w; w / m <= Deg(x) < 2^512
    q = np.zeros(w.shape + w.shape[1:])
    _diagonal(q)[:] = w
    q[:, 0, 0] = deg / m * 0.5
    q[:, 0, 1:] = q[:, 1:, 0] = -w[:, 1:]
    return q


def _gamma_matrix(g, i):
    """The closed 1-ball around i (i first) and its Gamma form, the one-centre _gamma_forms."""
    ball = g.ball_indices(i, 1)
    return ball, _gamma_forms(g.weights[i, ball][None], g.weight_sums[i:i + 1], g.measures[i:i + 1])[0]


def _gamma2_blocks(g, balls, k):
    """The Gamma2 forms Q, f^T Q f = Gamma2(f, f)(i), over B closed 2-balls of one shape, by blocks.

    Each row of balls lists a centre i, its k - 1 neighbours S1, then S2;
    B1 is (i, S1). Returns the (B, k, s) rows of Q on B1, whose first k
    columns are the B1 x B1 block and the rest the B1 x S2 block, the (B, t)
    diagonal of the S2 block, and two by-products: the (B, k) diagonal of the
    Gamma stack G on the closed 1-balls and the (B, k) rows Delta[i, B1].
    The diagonal is all of G: off it G is zero but for its first row and
    column, which are the diagonal negated past the corner. The rest of the
    S2 block is zero: a vertex z of S2 enters Gamma2(i) only through
    w_iy w_yz (f(z) - f(y))^2. Every neighbour of a 1-ball vertex lies in
    the 2-ball, so with the true degrees deg = sum_y w_xy the forms are
    exact. With c = Delta[i, :] / (2m) and sum_k Delta[i, k] Gamma_k in
    closed form,
        2Q = diag(c deg + W c) - P - P^T,  P = diag(c) W + G Delta,
    and P is zero off the 1-ball rows, so only the rows W[B1, ball] are
    gathered, by one flat take into a contiguous array. W is exactly
    symmetric (WeightedGraph's precondition), so the columns W[ball, B1]
    that give d are a contiguous copy of that gather's transpose, the same
    values in the same layout as a second gather. Every entry is the full
    form's -(P + P^T - diag(d)) / 2 in the same order of operations, the
    zero P entries included.

    Four arrays of the stack's size are live at most, and one is left when
    it returns: the rows W[B1, ball], which then take c W; G; Delta on B1,
    whose buffer takes P + P^T once P is formed and is returned as the B1
    rows; and P. The columns W[ball, B1] are dropped once they give d,
    before Delta and P are made.
    """
    b1 = balls[:, :k]
    w = g.weights.reshape(-1).take((b1 * g.num_vertices)[:, :, None] + balls[:, None, :])
    deg, mu = g.weight_sums[b1], g.measures[b1]
    gam = _gamma_forms(w[:, 0, :k], deg[:, 0], mu[:, 0])
    row = w[:, 0, :k] / mu[:, :1]  # Delta's first row, as the whole Delta below gives it
    row[:, 0] -= deg[:, 0] / mu[:, 0]
    # c = row / (2 mu) as (row / f) 2^(-1-e), mu = f 2^e, exact wherever c is normal: 2 mu overflows for
    # mu > 8.99e307, row / mu for c > 8.99e307, and 0.5 row rounds a subnormal row; |row / f| < 2^513
    f, e = np.frexp(mu)
    c = np.ldexp(row / f, -1 - e)
    d = (w.transpose(0, 2, 1).copy() @ c[:, :, None])[:, :, 0]
    d[:, :k] += c * deg
    delta = w / mu[:, :, None]
    diagonal = _diagonal(delta[:, :, :k])
    diagonal -= deg / mu
    p = gam @ delta
    p += np.multiply(c[:, :, None], w, out=w)
    q = delta  # Delta is spent: its buffer, diagonal view included, takes the form
    np.add(p[:, :, :k], p[:, :, :k].transpose(0, 2, 1), out=q[:, :, :k])
    np.add(p[:, :, k:], 0.0, out=q[:, :, k:])
    diagonal -= d[:, :k]
    q *= -0.5
    return q, (0.0 - d[:, k:]) * -0.5, _diagonal(gam).copy(), row


def _gamma2_matrix(g, i):
    """The closed 2-ball around i (i, S1, S2) and its Gamma2 form: the one-centre _gamma2_blocks, placed.

    The S2 entries off the diagonal are -0.0, as -(0 + 0) / 2 gives them.
    """
    ball, k = g.ball_indices(i, 2), len(g.neighbor_indices(i)) + 1
    q1, d, _, _ = _gamma2_blocks(g, ball[None], k)
    q = np.full((len(ball), len(ball)), -0.0)
    q[:k] = q1[0]
    q[k:, :k] = q1[0, :, k:].T
    _diagonal(q)[k:] = d[0]
    return ball, q


def _green_terms(bg, u, v):
    """<Delta u, v>_Omega, <du, dv> and <du/dn, v>_B; Green's formula makes the first two sum to the third."""
    g = bg.graph
    lhs = inner_product_functions(g, laplacian(g, u), v, s=bg.interior)
    energy = inner_product_forms(g, differential(g, u), differential(g, v))
    boundary_term = inner_product_functions(
        g, normal_derivative(bg, u), VertexFunction(bg.boundary, v.on(bg.boundary))
    )
    return lhs, energy, boundary_term


def scaled_green_residual(bg, u, v):
    """|<Delta u, v>_Omega + <du, dv> - <du/dn, v>_B| relative to the sum of the three terms' magnitudes; 0/0 is 0.

    Green's formula makes the residual zero in exact arithmetic for every u, v.
    Each term is linear in w and free of m, so the ratio is invariant under
    w -> c w and m -> d m up to rounding; there is no absolute floor.
    """
    terms = _green_terms(bg, u, v)
    scale = sum(map(abs, terms))
    residual = abs(terms[0] + terms[1] - terms[2])
    return residual / scale if scale else 0.0
