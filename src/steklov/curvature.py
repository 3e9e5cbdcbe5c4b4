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

kappa(x, .) depends on the 2-ball around x alone, so centres are grouped by
2-ball shape (|S1|, |S2|), read off the cached adjacency lists, and each
group's pinned forms are assembled as one (B, s, s) stack. One stacked eigh
per group solves every n (curvature) or decides every vertex (cd_check); the
S2 inverse, sign fix, witnesses and Rayleigh quotients are array operations
over the group. A single vertex is the one-centre case of the same kernel.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

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
from .operators import VertexFunction, _gamma2_forms
from .operators import _gamma2_matrix  # noqa: F401 -- unused; perfbench traces calls via this name
from .spectra import _sign_fix, laplacian_spectrum, steklov_spectrum


def _shape_groups(g, centres):
    """{(|S1|, |S2|): (balls, domains)}, each 2-ball listed as centre, S1, S2 in a (B, s) array and as ids."""
    groups = {}
    for i in centres:
        _, s1, s2 = g.hop_spheres(i, 2)
        groups.setdefault((len(s1), len(s2)), []).append([i, *s1, *s2])
    return {shape: (np.array(balls), [tuple(map(g.vertices.__getitem__, ball)) for ball in balls])
            for shape, balls in groups.items()}


def _pinned_forms(g, balls, k):
    """For one shape group: the Gamma2 forms with f(x) = 0 pinned, Delta[x, S1] and w_xy / (2 m_x) on S1."""
    centre = balls[:, :1]
    w, m = g.weights[centre, balls[:, 1:k + 1]], g.measures[centre]
    return _gamma2_forms(g, balls, k + 1)[:, 1:, 1:], w / m, w / (2.0 * m)


def _psd_rule(evals, scale):
    """lambda_min, max |lambda| and lambda_min >= -PSD_TOL max(max |lambda|, scale) along the trailing axis.

    scale, the size of the summands (for cd_check the largest entry of the
    form before the shift by K), judges a form that cancels to rounding noise;
    no absolute floor breaks covariance under w -> c w, m -> d m.
    """
    lam, norm = evals.min(axis=-1), np.abs(evals).max(axis=-1)
    return lam, norm, lam >= -PSD_TOL * np.maximum(norm, scale)


def _psd_verdict(matrices, scale):
    """_psd_rule on the spectra of a stack of forms, plus a lambda_min eigenvector of each."""
    evals, evecs = np.linalg.eigh(matrices)
    return (*_psd_rule(evals, scale), evecs[..., 0])


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

    The verdict is lambda_min(A(K)) >= -PSD_TOL max(||A(K)||, q) over the
    pinned 2-ball space, q the largest entry of the pinned Gamma2 form; on
    failure the check carries a violating function f with f^T A f < 0. K may
    be any real (non-positive K is useful diagnostically); n must lie in (1, inf].
    """
    n = validate_dimension(n)
    K = float(K)
    centres = range(g.num_vertices) if x is None else (g.index(x),)
    checks = {}
    for (k, _), (balls, domains) in _shape_groups(g, centres).items():
        if k == 0:
            checks.update((i, CDVertexCheck(g.vertices[i], math.inf, 0.0, True, None)) for i in balls[:, 0])
            continue
        a, r, gamma_diag = _pinned_forms(g, balls, k)
        scale = np.abs(a).max(axis=(1, 2))
        a[:, :k, :k] -= r[:, :, None] * r[:, None, :] / n
        a[:, range(k), range(k)] -= K * gamma_diag
        lam, norm, holds, vecs = _psd_verdict(a, scale)
        for i, domain, low, top, ok, vec in zip(balls[:, 0].tolist(), domains, lam.tolist(), norm.tolist(),
                                                holds.tolist(), vecs):
            witness = None if ok else _embed_witness(domain[0], domain[1:], vec)
            checks[i] = CDVertexCheck(domain[0], low, top, ok, witness)
    checks = tuple(checks[i] for i in centres)
    return CDReport(K, n, all(c.holds for c in checks), checks)


@dataclass(frozen=True)
class CurvatureResult:
    """The largest K with CD(K, n) at a vertex, with the minimizing witness.

    The witness lives on the closed 2-ball, has witness(x) = 0, is normalized
    so Gamma(witness, witness)(x) = 1, and achieves the Rayleigh quotient
    `witness_quotient` (equal to kappa up to roundoff). kernel_ok records
    that the S2 block of the local form was PSD, which must always hold.
    The witness is built on first access from `ball` (x, S1, S2) and its
    values there, a read-only row of the kernel's stacked output.
    """

    vertex: object
    n: float
    kappa: float
    kernel_ok: bool
    s2_lambda_min: float | None
    witness_quotient: float
    ball: tuple = field(repr=False)
    witness_values: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def witness(self):
        return VertexFunction(self.ball, self.witness_values)


def _curvature_stacks(g, centres, n_values):
    """Per 2-ball shape, (centres, ball ids, kappas, kernel_ok, s2_lambda_min, quotients, witnesses).

    kappas and quotients are (B, |n|) arrays over the group's B centres and
    witnesses a read-only (B, |n|, |ball|) stack. The Schur complements over
    S1 differ only by the rank-one term r r^T / n, so one stacked eigh of
    shape (B, |n|, |S1|, |S1|) solves every pencil of a group. Each witness
    is checked against the full pinned form for its n.
    """
    n_arr = np.array(n_values)
    stacks = []
    for (k, t), (balls, domains) in _shape_groups(g, centres).items():
        if k == 0:
            raise IsolatedVertex(g.vertices[balls[0, 0]])
        q, r, gamma_diag = _pinned_forms(g, balls, k)
        a12, d = q[:, :k, k:], np.diagonal(q, axis1=1, axis2=2)[:, k:]
        # pinv(diag(d), rcond=ZERO_TOL), elementwise
        keep = np.abs(d) > ZERO_TOL * np.abs(d).max(axis=1, keepdims=True, initial=0.0)
        d_plus = np.divide(1.0, d, out=np.zeros_like(d), where=keep)
        s2_min, _, kernel_ok = _psd_rule(d, 0.0) if t else (np.full(len(d), None), 0, np.full(len(d), True))
        d_isqrt = 1.0 / np.sqrt(gamma_diag)
        schur = (q[:, None, :k, :k] - (r[:, :, None] * r[:, None, :])[:, None] / n_arr[:, None, None]
                 - ((a12 * d_plus[:, None]) @ a12.transpose(0, 2, 1))[:, None])
        pencils = schur * d_isqrt[:, None, :, None] * d_isqrt[:, None, None, :]
        evals, evecs = np.linalg.eigh((pencils + pencils.swapaxes(2, 3)) / 2.0)
        f1 = d_isqrt[:, None] * evecs[..., 0]
        vecs = _sign_fix(np.concatenate([f1, -d_plus[:, None] * (f1 @ a12)], axis=2))
        quotients = ((np.sum((vecs @ q) * vecs, axis=2) - (vecs[..., :k] @ r[:, :, None])[..., 0] ** 2 / n_arr)
                     / np.sum(f1 * gamma_diag[:, None] * f1, axis=2))
        witnesses = np.concatenate([np.zeros(f1.shape[:2] + (1,)), vecs], axis=2)
        witnesses.setflags(write=False)
        stacks.append((balls[:, 0], domains, evals[..., 0], kernel_ok, s2_min, quotients, witnesses))
    return stacks


def _curvature_results(stacks, n_values):
    """{centre: [CurvatureResult for each n in n_values]}, wrapping the output of _curvature_stacks."""
    out = {}
    for centres, domains, kappas, kernel_ok, s2_min, quotients, witnesses in stacks:
        for i, domain, kaps, ok, s2, quots, rows in zip(centres.tolist(), domains, kappas.tolist(), kernel_ok.tolist(),
                                                        s2_min.tolist(), quotients.tolist(), witnesses):
            out[i] = [CurvatureResult(domain[0], n, kappa, ok, s2, quot, domain, row)
                      for n, kappa, quot, row in zip(n_values, kaps, quots, rows)]
    return out


def curvature_at(g, x, n):
    """kappa(x, n) = sup { K : CD(K, n) holds at x }, by Schur reduction."""
    i = g.index(x)
    n_values = (validate_dimension(n),)
    return _curvature_results(_curvature_stacks(g, (i,), n_values), n_values)[i][0]


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-vertex curvature over a grid of dimension parameters.

    `results` wraps the kernel's stacked output as CurvatureResults on first
    access; `global_min` is read off the stacked kappas directly.
    """

    n_values: tuple
    global_min: dict  # n -> (kappa, first vertex in vertex order within MULTIPLICITY_TOL max(deg/m) of it)
    vertices: tuple = field(repr=False)
    _stacks: list = field(repr=False, compare=False)  # the _curvature_stacks output

    @cached_property
    def results(self):
        """n -> {vertex: CurvatureResult}, vertices in vertex order."""
        rows = _curvature_results(self._stacks, self.n_values)
        return {n: {v: rows[i][j] for i, v in enumerate(self.vertices)} for j, n in enumerate(self.n_values)}


def curvature_profile(g, n_grid):
    """kappa(x, n) for every vertex and n in the grid, plus global minima.

    Ties go to the first vertex; kappas tie within MULTIPLICITY_TOL max(deg/m),
    the scale of the rounding in every kappa, so rescaling w and m keeps the
    reported vertex.
    """
    n_values = tuple(validate_dimension(n) for n in n_grid)
    stacks = _curvature_stacks(g, range(g.num_vertices), n_values) if n_values else []
    kappas = np.empty((g.num_vertices, len(n_values)))
    for centres, _, low, *_ in stacks:
        kappas[centres] = low
    low = kappas.min(axis=0)
    first = np.argmax(kappas <= low + MULTIPLICITY_TOL * (g.weight_sums / g.measures).max(), axis=0)
    global_min = {n: (kappa, g.vertices[i]) for n, kappa, i in zip(n_values, low.tolist(), first.tolist())}
    return CurvatureProfile(n_values, global_min, g.vertices, stacks)


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
