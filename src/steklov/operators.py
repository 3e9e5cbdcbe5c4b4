"""Discrete differential operators: Laplacian, differential, Gamma calculus.

The carre du champ Gamma and its iterate Gamma2 are the basic objects of the
curvature-dimension machinery:

    Delta u (x) = (1/m_x) sum_y (u(y) - u(x)) w_xy
    Gamma(u, v)(x) = (1/2 m_x) sum_y (u(x) - u(y)) (v(x) - v(y)) w_xy
    Gamma2(u, v) = (Delta Gamma(u, v) - Gamma(Delta u, v) - Gamma(u, Delta v)) / 2

Gamma is computed from the explicit sum (not from the product-rule identity,
which cancels catastrophically); the identity is kept as a test oracle.
Local quadratic-form assemblies express Gamma, Gamma2 and (Delta f)^2 at a
vertex as symmetric matrices in the values of f on the ball around it.
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


def constant_function(domain, c=0.0):
    domain = tuple(domain)
    return VertexFunction(domain, np.full(len(domain), float(c)))


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

    def value(self, x, y):
        dom = {v: i for i, v in enumerate(self.domain)}
        try:
            return float(self.values[dom[x], dom[y]])
        except KeyError:
            raise DomainMismatch(self.domain, (x, y)) from None


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """A symmetric form over an ordered local vertex index set."""

    index_map: tuple
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "index_map", tuple(self.index_map))
        object.__setattr__(self, "matrix", mat)
        mat.setflags(write=False)

    def evaluate(self, f):
        """f^T Q f for f a VertexFunction covering index_map (extra vertices ignored)."""
        vec = f.on(self.index_map) if isinstance(f, VertexFunction) else np.asarray(f, dtype=float)
        return float(vec @ self.matrix @ vec)


def laplacian(g, u):
    """Delta u, from the defining per-vertex sum."""
    vals = _aligned(u, g.vertices)
    out = (g.weights @ vals - g.weights.sum(axis=1) * vals) / g.measures
    return VertexFunction(g.vertices, out)


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


# ---------------------------------------------------------------------------
# local quadratic forms
# ---------------------------------------------------------------------------

def _gamma_forms(g, balls):
    """The (B, k, k) stack of Q with f^T Q f = Gamma(f, f)(i) over closed 1-balls, each row centre first."""
    w = g.weights[balls[:, :1], balls]
    q = np.zeros(w.shape + w.shape[1:])
    diag = np.arange(w.shape[1])
    q[:, diag, diag] = w
    q[:, 0, 0] = g.weight_sums[balls[:, 0]]
    q[:, 0, 1:] = q[:, 1:, 0] = -w[:, 1:]
    q /= (2.0 * g.measures[balls[:, :1]])[:, :, None]
    return q


def _gamma_matrix(g, i):
    """The closed 1-ball around i (i first) and its Gamma form, the one-centre _gamma_forms."""
    ball = g.ball_indices(i, 1)
    return ball, _gamma_forms(g, ball[None])[0]


def _gamma2_forms(g, balls, k):
    """The (B, s, s) stack of Q with f^T Q f = Gamma2(f, f)(i) over B closed 2-balls of one shape.

    Each row of balls lists a centre i, its k - 1 neighbours S1, then S2.
    Every neighbour of a 1-ball vertex lies in the 2-ball, so with the true
    degrees deg = sum_y w_xy the forms are exact. With G the Gamma form at i,
    c = Delta[i, :] / (2m) and sum_k Delta[i, k] Gamma_k in closed form,
        2Q = diag(c deg + W c) - P - P^T,  P = diag(c) W + G Delta.
    """
    w = g.weights[balls[:, :, None], balls[:, None, :]]
    deg, mu = g.weight_sums[balls[:, :k]], g.measures[balls[:, :k]]
    diag = np.arange(k)
    delta = w[:, :k] / mu[:, :, None]
    delta[:, diag, diag] -= deg / mu
    c = delta[:, 0, :k] / (2.0 * mu)
    p = np.zeros_like(w)
    p[:, :k] = _gamma_forms(g, balls[:, :k]) @ delta + c[:, :, None] * w[:, :k]
    q = p + p.transpose(0, 2, 1)
    d = (w[:, :, :k] @ c[:, :, None])[:, :, 0]
    d[:, :k] += c * deg
    diag = np.arange(balls.shape[1])
    q[:, diag, diag] -= d
    q *= -0.5
    return q


def _gamma2_matrix(g, i):
    """The closed 2-ball around i (i, S1, S2) and its Gamma2 form, the one-centre _gamma2_forms."""
    ball = g.ball_indices(i, 2)
    return ball, _gamma2_forms(g, ball[None], len(g.neighbor_indices(i)) + 1)[0]


def _vertex_order_form(g, ball, q):
    """A ball form as a QuadraticForm with the ball in vertex order."""
    order = np.argsort(ball)
    return QuadraticForm(tuple(g.vertices[j] for j in ball[order]), q[np.ix_(order, order)])


def gamma_form(g, x):
    """Gamma(f, f)(x) as a QuadraticForm over the closed 1-ball around x."""
    return _vertex_order_form(g, *_gamma_matrix(g, g.index(x)))


def gamma2_form(g, x):
    """Gamma2(f, f)(x) as a QuadraticForm over the closed 2-ball around x.

    Values of f outside the 2-ball cannot affect Gamma2(f, f)(x), so the
    restriction is lossless.
    """
    return _vertex_order_form(g, *_gamma2_matrix(g, g.index(x)))


def laplacian_square_form(g, x):
    """(Delta f)(x)^2 as a rank-one QuadraticForm over the closed 1-ball."""
    i = g.index(x)
    ball = g.ball_indices(i, 1)
    row = g.weights[i, ball] / g.measures[i]  # Delta[i, ball], the centre first
    row[0] -= g.weight_sums[i] / g.measures[i]
    return _vertex_order_form(g, ball, np.outer(row, row))


def _green_terms(bg, u, v):
    """<Delta u, v>_Omega, <du, dv> and <du/dn, v>_B; Green's formula makes the first two sum to the third."""
    g = bg.graph
    lu = laplacian(g, u)
    lhs = inner_product_functions(g, lu, v, s=bg.interior)
    energy = inner_product_forms(g, differential(g, u), differential(g, v))
    normal = VertexFunction(bg.boundary, -lu.on(bg.boundary))
    boundary_term = inner_product_functions(
        g, normal, VertexFunction(bg.boundary, v.on(bg.boundary))
    )
    return lhs, energy, boundary_term


def check_green_identity(bg, u, v):
    """Residual |<Delta u, v>_Omega + <du, dv> - <du/dn, v>_B|.

    Green's formula makes this zero in exact arithmetic for every u, v.
    """
    lhs, energy, boundary_term = _green_terms(bg, u, v)
    return abs(lhs + energy - boundary_term)


def scaled_green_residual(bg, u, v):
    """check_green_identity relative to |<Delta u, v>_Omega| + |<du, dv>| + |<du/dn, v>_B|; 0/0 counts as 0.

    Each term is linear in w and free of m, so the ratio is invariant under
    w -> c w and m -> d m up to rounding; there is no absolute floor.
    """
    terms = _green_terms(bg, u, v)
    scale = sum(map(abs, terms))
    residual = abs(terms[0] + terms[1] - terms[2])
    return residual / scale if scale else 0.0
