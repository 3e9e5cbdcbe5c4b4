"""Curvature-dimension verification and the per-vertex curvature function.

The condition CD(K, n) at a vertex x asks that

    Gamma2(f, f)(x) >= (1/n) (Delta f)^2(x) + K Gamma(f, f)(x)

for every f (n = inf drops the middle term). All three sides are quadratic
forms in the values of f on the closed 2-ball around x, and are invariant
under adding constants, so we pin f(x) = 0. With that gauge the Gamma form
is diagonal (D) and positive on the neighbor coordinates S1, and the row of
Delta at x, r = Delta[x, S1] on S1, vanishes on the distance-2 coordinates S2.
A vertex z in S2 enters Gamma2(x) only through w_xy w_yz (f(z) - f(y))^2,
so the S2 block of the pinned Gamma2 form A is a positive diagonal d, free
of K and n (that is what keeps the curvature finite). With A11 and A12 the
S1 x S1 and S1 x S2 blocks of A, a Schur complement reduces CD(K, n) at x
to K <= lambda_min(D^{-1/2} S(n) D^{-1/2}), with

    S(n) = A11 - A12 diag(1/d) A12^T - r r^T / n,

a rank-one update in n of one form per vertex. That lambda_min is the
curvature function kappa(x, n) returned here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, IsolatedVertex
from .graphs import (
    EQUALITY_TOL,
    MULTIPLICITY_TOL,
    PSD_TOL,
    ZERO_TOL,
    BoundaryGraph,
    WeightedGraph,
    lichnerowicz_bound,
    validate_dimension,
)
from .operators import VertexFunction, _gamma2_matrix, _laplacian_row
from .spectra import _sign_fix, laplacian_spectrum, steklov_spectrum


@dataclass(frozen=True)
class LocalForms:
    """Pinned local data at a vertex, free of K and n."""

    coords: tuple       # S1 then S2, each in vertex order
    n_neighbors: int
    matrix: np.ndarray  # Q(Gamma2) with f(x) = 0 pinned
    laplacian_row: np.ndarray  # Delta[x, S1]; it vanishes on S2
    gamma_diag: np.ndarray  # w_xy / (2 m_x) over S1


def _local_forms(g, x):
    i = g.index(x)
    ball, q2 = _gamma2_matrix(g, i)
    k = len(g.neighbor_indices(i))
    return LocalForms(
        coords=tuple(g.vertices[j] for j in ball[1:]),
        n_neighbors=k,
        matrix=q2[1:, 1:],
        laplacian_row=_laplacian_row(g, i, ball[:k + 1])[1:],
        gamma_diag=g.weights[i, ball[1:k + 1]] / (2.0 * g.measures[i]),
    )


def _psd_rule(evals):
    """lambda_min, max |lambda| and the PSD verdict lambda_min >= -PSD_TOL (1 + max |lambda|)."""
    lam, norm = float(evals.min()), float(np.abs(evals).max())
    return lam, norm, lam >= -PSD_TOL * (1.0 + norm)


def _psd_verdict(matrix):
    """_psd_rule on the spectrum of matrix, plus a lambda_min eigenvector."""
    evals, evecs = np.linalg.eigh(matrix)
    return (*_psd_rule(evals), evecs[:, 0])


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
        local = _local_forms(g, v)
        if not local.coords:
            checks.append(CDVertexCheck(v, math.inf, 0.0, True, None))
            continue
        k = local.n_neighbors
        a = local.matrix.copy()
        a[:k, :k] -= np.outer(local.laplacian_row, local.laplacian_row) / n
        a[range(k), range(k)] -= K * local.gamma_diag
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


def _curvature_results(g, x, n_values):
    """The CurvatureResult at x for each n in n_values, from one pinned form.

    The Schur complements over S1 differ only by the rank-one term r r^T / n,
    so one stacked eigh solves every pencil. Each witness is checked against
    the full pinned form for its own n.
    """
    local = _local_forms(g, x)
    k = local.n_neighbors
    if k == 0:
        raise IsolatedVertex(x)
    q, r, gamma_diag = local.matrix, local.laplacian_row, local.gamma_diag
    a12, d = q[:k, k:], np.diagonal(q)[k:]
    # pinv(diag(d), rcond=ZERO_TOL), elementwise
    keep = np.abs(d) > ZERO_TOL * np.abs(d).max(initial=0.0)
    d_plus = np.divide(1.0, d, out=np.zeros_like(d), where=keep)
    s2_lambda_min, _, kernel_ok = _psd_rule(d) if d.size else (None, None, True)
    d_isqrt = 1.0 / np.sqrt(gamma_diag)
    schur = q[:k, :k] - np.outer(r, r) / np.array(n_values)[:, None, None] - (a12 * d_plus) @ a12.T
    pencils = schur * d_isqrt[:, None] * d_isqrt[None, :]
    evals, evecs = np.linalg.eigh((pencils + pencils.transpose(0, 2, 1)) / 2.0)

    results = []
    for n, kappa, v1 in zip(n_values, evals[:, 0], evecs[:, :, 0]):
        f1 = d_isqrt * v1
        vec = _sign_fix(np.concatenate([f1, -d_plus * (a12.T @ f1)]))
        quotient = (vec @ q @ vec - (r @ vec[:k]) ** 2 / n) / (f1 @ (gamma_diag * f1))
        results.append(CurvatureResult(x, n, float(kappa), _embed_witness(x, local.coords, vec),
                                       kernel_ok, s2_lambda_min, float(quotient)))
    return results


def curvature_at(g, x, n):
    """kappa(x, n) = sup { K : CD(K, n) holds at x }, by Schur reduction."""
    return _curvature_results(g, x, (validate_dimension(n),))[0]


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-vertex curvature over a grid of dimension parameters."""

    n_values: tuple
    results: dict   # n -> {vertex: CurvatureResult}
    global_min: dict  # n -> (kappa, first vertex in vertex order within MULTIPLICITY_TOL of it)


def curvature_profile(g, n_grid):
    """kappa(x, n) for every vertex and n in the grid, plus global minima (ties to the first vertex)."""
    n_values = tuple(validate_dimension(n) for n in n_grid)
    results = {n: {} for n in n_values}
    for v in g.vertices if n_values else ():
        for res in _curvature_results(g, v, n_values):
            results[res.n][v] = res
    global_min = {}
    for n, per_vertex in results.items():
        low = min(res.kappa for res in per_vertex.values())
        tol = MULTIPLICITY_TOL * (1.0 + abs(low))
        global_min[n] = (low, next(v for v, res in per_vertex.items() if res.kappa <= low + tol))
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
