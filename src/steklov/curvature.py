"""Curvature-dimension verification and the per-vertex curvature function.

The condition CD(K, n) at a vertex x asks that

    Gamma2(f, f)(x) >= (1/n) (Delta f)^2(x) + K Gamma(f, f)(x)

for every f (n = inf drops the middle term). All three sides are quadratic
forms in the values of f on the closed 2-ball around x, and are invariant
under adding constants, so we pin f(x) = 0. With that gauge the Gamma form
is diagonal and positive exactly on the neighbor coordinates S1, and
vanishes on the distance-2 coordinates S2. Writing

    A(K) = Q(Gamma2) - (1/n) Q(Delta^2) - K Q(Gamma)

the S2 block of A is K-independent and positive semidefinite (that is what
keeps the curvature finite), so CD(K, n) at x reduces via a Schur complement
to K <= lambda_min(D^{-1/2} S0 D^{-1/2}) with D the Gamma diagonal and

    S0 = A11(0) - A12 A22^+ A21.

That lambda_min is the curvature function kappa(x, n) returned here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, IsolatedVertex
from .graphs import (
    EQUALITY_TOL,
    PSD_TOL,
    ZERO_TOL,
    BoundaryGraph,
    WeightedGraph,
    is_infinite,
    lichnerowicz_bound,
    validate_dimension,
)
from .operators import VertexFunction, _gamma2_matrix, _laplacian_row
from .spectra import _sign_fix, laplacian_spectrum, steklov_spectrum


@dataclass(frozen=True)
class LocalForms:
    """Pinned local data at a vertex: K-free form matrix and Gamma diagonal."""

    coords: tuple       # S1 then S2, each in vertex order
    n_neighbors: int
    matrix: np.ndarray  # Q(Gamma2) - (1/n) Q(Delta^2) with f(x) = 0 pinned
    gamma_diag: np.ndarray  # w_xy / (2 m_x) over S1


def _local_forms(g, x, n):
    n = validate_dimension(n)
    i = g.index(x)
    ball, q2 = _gamma2_matrix(g, i)
    k = len(g.neighbor_indices(i))
    mat = q2[1:, 1:]
    if not is_infinite(n):
        row = _laplacian_row(g, i, ball)[1:]
        mat -= np.outer(row, row) / n
    return LocalForms(
        coords=tuple(g.vertices[j] for j in ball[1:]),
        n_neighbors=k,
        matrix=mat,
        gamma_diag=g.weights[i, ball[1:k + 1]] / (2.0 * g.measures[i]),
    )


def _psd_verdict(matrix):
    """lambda_min, max |lambda|, the PSD verdict and a lambda_min eigenvector.

    The verdict is lambda_min >= -PSD_TOL (1 + max |lambda|).
    """
    evals, evecs = np.linalg.eigh(matrix)
    lam = float(evals[0])
    norm = float(np.abs(evals).max())
    return lam, norm, lam >= -PSD_TOL * (1.0 + norm), evecs[:, 0]


def _embed_witness(vertex, coords, vec):
    """Package a vector over coords, pinned to 0 at vertex, as a function on {vertex} + coords."""
    return VertexFunction((vertex,) + tuple(coords), np.concatenate([[0.0], vec]))


@dataclass(frozen=True)
class CDVertexCheck:
    vertex: object
    lambda_min: float
    form_norm: float
    holds: bool
    witness: VertexFunction | None


@dataclass(frozen=True)
class CDReport:
    K: float
    n: float
    holds: bool
    checks: tuple

    @property
    def first_violation(self):
        return next((c for c in self.checks if not c.holds), None)


def cd_check(g, K, n, x=None):
    """Decide CD(K, n) at one vertex (or everywhere when x is omitted).

    The verdict is lambda_min(A(K)) >= -PSD_TOL (1 + ||A||) over the pinned
    2-ball space; on failure the check carries a violating function f with
    f^T A f < 0. K may be any real (non-positive K is useful diagnostically);
    n must lie in (1, inf].
    """
    n = validate_dimension(n)
    K = float(K)
    targets = g.vertices if x is None else (g.vertices[g.index(x)],)
    checks = []
    for v in targets:
        local = _local_forms(g, v, n)
        dim = len(local.coords)
        if dim == 0:
            checks.append(CDVertexCheck(v, math.inf, 0.0, True, None))
            continue
        a = local.matrix.copy()
        k_idx = np.arange(local.n_neighbors)
        a[k_idx, k_idx] -= K * local.gamma_diag
        lam, norm, holds, vec = _psd_verdict(a)
        witness = None if holds else _embed_witness(v, local.coords, vec)
        checks.append(CDVertexCheck(v, lam, norm, holds, witness))
    return CDReport(K, n, all(c.holds for c in checks), tuple(checks))


@dataclass(frozen=True)
class CurvatureResult:
    """The largest K with CD(K, n) at a vertex, with the minimizing witness.

    The witness lives on the closed 2-ball, has witness(x) = 0, is normalized
    so Gamma(witness, witness)(x) = 1, and achieves the Rayleigh quotient
    `witness_quotient` (equal to kappa up to roundoff). kernel_ok records
    that the S2 block of the local form was PSD, which must always hold.
    """

    vertex: object
    n: float
    kappa: float
    witness: VertexFunction
    kernel_ok: bool
    s2_lambda_min: float | None
    witness_quotient: float


def curvature_at(g, x, n):
    """kappa(x, n) = sup { K : CD(K, n) holds at x }, by Schur reduction."""
    n = validate_dimension(n)
    local = _local_forms(g, x, n)
    k = local.n_neighbors
    if k == 0:
        raise IsolatedVertex(x)
    m11 = local.matrix[:k, :k]
    m12 = local.matrix[:k, k:]
    m22 = local.matrix[k:, k:]
    if m22.size:
        s2_lambda_min, _, kernel_ok, _ = _psd_verdict(m22)
        m22_pinv = np.linalg.pinv(m22, rcond=ZERO_TOL, hermitian=True)
        schur = m11 - m12 @ m22_pinv @ m12.T
    else:
        s2_lambda_min, kernel_ok, m22_pinv, schur = None, True, None, m11
    d_isqrt = 1.0 / np.sqrt(local.gamma_diag)
    pencil = schur * d_isqrt[:, None] * d_isqrt[None, :]
    pencil = (pencil + pencil.T) / 2.0
    evals, evecs = np.linalg.eigh(pencil)
    kappa = float(evals[0])

    f1 = d_isqrt * evecs[:, 0]
    f2 = -(m22_pinv @ (m12.T @ f1)) if m22_pinv is not None else np.zeros(0)
    vec = _sign_fix(np.concatenate([f1, f2]))
    quotient = float(vec @ local.matrix @ vec) / float(f1 @ (local.gamma_diag * f1))
    return CurvatureResult(
        vertex=x,
        n=n,
        kappa=kappa,
        witness=_embed_witness(x, local.coords, vec),
        kernel_ok=kernel_ok,
        s2_lambda_min=s2_lambda_min,
        witness_quotient=quotient,
    )


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-vertex curvature over a grid of dimension parameters."""

    n_values: tuple
    results: dict   # n -> {vertex: CurvatureResult}
    global_min: dict  # n -> (kappa, vertex attaining it)


def curvature_profile(g, n_grid):
    """curvature_at for every vertex and every n in the grid, plus global minima."""
    n_values = tuple(validate_dimension(n) for n in n_grid)
    results = {}
    global_min = {}
    for n in n_values:
        per_vertex = {v: curvature_at(g, v, n) for v in g.vertices}
        results[n] = per_vertex
        best_vertex = min(per_vertex, key=lambda v: per_vertex[v].kappa)
        global_min[n] = (per_vertex[best_vertex].kappa, best_vertex)
    return CurvatureProfile(n_values, results, global_min)


@dataclass(frozen=True)
class LichnerowiczReport:
    kind: str           # "laplacian" or "steklov"
    K: float
    n: float
    cd_holds: bool
    bound: float
    spectral_value: float
    slack: float
    equality: bool
    cd_report: CDReport


def verify_lichnerowicz(subject, K, n):
    """Check mu_2 (closed graph) or sigma_2 (boundary graph) against nK/(n-1).

    Verifies CD(K, n) first and reports it; the spectral bound only follows
    from the theorem when cd_holds is true and K > 0.
    """
    n = validate_dimension(n)
    K = float(K)
    if not (math.isfinite(K) and K > 0):
        raise InvalidParams(f"the Lichnerowicz bound needs K > 0, got {K!r}")
    if isinstance(subject, BoundaryGraph):
        if len(subject.boundary) < 2:
            raise InvalidParams("sigma_2 needs at least 2 boundary vertices")
        kind = "steklov"
        spectral = float(steklov_spectrum(subject).values[1])
        graph = subject.graph
    elif isinstance(subject, WeightedGraph):
        if subject.num_vertices < 2:
            raise InvalidParams("mu_2 needs at least 2 vertices")
        kind = "laplacian"
        spectral = float(laplacian_spectrum(subject).values[1])
        graph = subject
    else:
        raise InvalidParams(f"subject must be a graph, got {type(subject).__name__}")

    cd_report = cd_check(graph, K, n)
    bound = lichnerowicz_bound(K, n)
    slack = spectral - bound
    return LichnerowiczReport(
        kind=kind,
        K=K,
        n=n,
        cd_holds=cd_report.holds,
        bound=bound,
        spectral_value=spectral,
        slack=slack,
        equality=abs(slack) <= EQUALITY_TOL * bound,
        cd_report=cd_report,
    )
