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
2-ball shape (|S1|, |S2|). The graph owns that grouping
(WeightedGraph._shape_groups): the groups of all its vertices are walked once
per graph and kept, a single vertex walks its own 2-ball, and a group's ids
are taken in one gather. On a small graph most shape
groups hold one or two centres, and each stack pays a fixed numpy cost far
above its arithmetic, so the curvature function merges the groups into
padded stacks of one shape (1 + k + t), k and t the largest |S1| and |S2|:
a pad repeats the centre, so the assembly needs no mask, and the pad rows
and columns are zeroed after it and shifted out of the eigenvalue problem;
a merge is kept only while the padding it adds is at most PAD_ENTRIES
entries. One assembly and one stacked eigh per stack solve every n,
which gives the kappas. The assembly gives the pinned form as its blocks
A11, A12 and d (operators._gamma2_blocks); no (B, s, s) stack and no
S2 x S2 block is built, and the witness quotients read the same blocks.
The ball ids, the sign-fixed witnesses and their Rayleigh quotients are
array operations over the stack too, run only when a caller reads the
results. cd_check keeps exact shape
groups, one eigvalsh deciding each: it reports every form's lambda_min and
norm, which pad eigenvalues would change. A single vertex is the one-centre
case of the same kernels.

cd_check and condition (5) of the rigidity module both ask whether a form
pinned at each vertex is PSD. One builder, _vertex_checks, decides a stack of
such forms from its eigenvalues (eigvalsh) and returns one VertexCheck per
vertex; eigenvectors are computed, and a witness built, only where the form
fails. A 0 x 0 form (an isolated vertex, or |Omega| = 1) holds with
lambda_min inf.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import InvalidParams, IsolatedVertex
from .graphs import (
    MULTIPLICITY_TOL,
    PSD_TOL,
    BoundaryGraph,
    WeightedGraph,
    attains_bound,
    finite_number,
    lichnerowicz_bound,
    validate_dimension,
)
from .operators import VertexFunction, _gamma2_blocks, _gamma2_forms
from .operators import _gamma2_matrix  # noqa: F401 -- unused; perfbench traces calls via this name
from .spectra import _sign_fix, laplacian_spectrum, steklov_spectrum


PAD_ENTRIES = 2 ** 12  # most pad entries one merge may add to a curvature stack, about one stack's fixed cost


def _ball_ids(g, balls):
    """The rows of a (B, s) ball array as tuples of vertex ids, in one gather."""
    return list(map(tuple, g._id_array[balls].tolist()))


def _padded_stacks(groups):
    """The shape groups merged, by ball size, into stacks of one padded shape.

    Yields (k, t, balls, real, parts): k and t the largest |S1| and |S2| in
    the stack, balls its (B, 1 + k + t) rows, each the centre, S1, pad, S2,
    pad with every pad entry repeating the centre, real the mask of the
    entries that are not pads (None for a stack of one shape, which has no
    pads), and parts the merged groups' own arrays, in the order of the rows.
    A group joins the open stack while the padding this adds, to the stack's
    rows and to its own, is at most PAD_ENTRIES: a merge then costs no more
    arithmetic than about the fixed numpy cost of the stack it saves, and one
    large 2-ball cannot blow up a stack of many small ones.
    """
    stacks = []  # [k, t, rows, shapes]
    for k, t in sorted(groups, key=lambda shape: (sum(shape), shape)):
        b = len(groups[k, t])
        if stacks:
            k0, t0, rows, shapes = stacks[-1]
            old, new = 1 + k0 + t0, 1 + max(k0, k) + max(t0, t)
            if rows * (new ** 2 - old ** 2) + b * (new ** 2 - (1 + k + t) ** 2) <= PAD_ENTRIES:
                stacks[-1] = [max(k0, k), max(t0, t), rows + b, shapes + [(k, t)]]
                continue
        stacks.append([k, t, b, [(k, t)]])
    for k, t, _, shapes in stacks:
        parts = [groups[shape] for shape in shapes]
        if len(parts) == 1:
            yield k, t, parts[0], None, parts
            continue
        balls = np.repeat(np.concatenate([part[:, :1] for part in parts]), 1 + k + t, axis=1)
        at = 0
        for (k1, t1), part in zip(shapes, parts):
            rows = slice(at, at + len(part))
            balls[rows, :1 + k1], balls[rows, 1 + k:1 + k + t1] = part[:, :1 + k1], part[:, 1 + k1:]
            at += len(part)
        real = balls != balls[:, :1]  # a ball lists distinct vertices, so only the pads repeat the centre
        real[:, 0] = True
        yield k, t, balls, real, parts


def _psd_rule(evals, scale):
    """lambda_min, max |lambda| and lambda_min >= -PSD_TOL max(max |lambda|, scale) along the trailing axis.

    scale, the size of the summands (for cd_check the largest entry of the
    form before the shift by K), judges a form that cancels to rounding noise;
    no absolute floor breaks covariance under w -> c w, m -> d m.
    """
    lam, norm = evals.min(axis=-1), np.abs(evals).max(axis=-1)
    return lam, norm, lam >= -PSD_TOL * np.maximum(norm, scale)


def _psd_verdict(matrices, scale):
    """_psd_rule on the eigvalsh spectra of a stack of forms, plus a lambda_min eigenvector of each failing form.

    eigh runs on the failing forms alone; LAPACK solves each matrix on its own,
    so these are the vectors eigh gives on the whole stack.
    """
    lam, norm, holds = _psd_rule(np.linalg.eigvalsh(matrices), scale)
    failing = matrices[~holds]
    return lam, norm, holds, (np.linalg.eigh(failing)[1][:, :, 0] if len(failing) else failing[:, 0])


@dataclass(frozen=True)
class VertexCheck:
    """The PSD verdict on one vertex's form, pinned at f(vertex) = 0; on failure, a witness with f^T A f < 0."""

    vertex: object
    lambda_min: float
    form_norm: float
    holds: bool
    witness: VertexFunction | None


def _vertex_checks(forms, scale, vertices, domain):
    """A VertexCheck per form of a (B, s, s) stack, form j pinned at vertices[j].

    One stacked eigh decides every form by the PSD rule. domain(j) lists
    vertices[j], then form j's coordinates; it is called, and a witness built,
    only where form j fails. A 0 x 0 form holds with lambda_min inf.
    """
    if not forms.shape[-1]:
        return [VertexCheck(x, math.inf, 0.0, True, None) for x in vertices]
    lam, norm, holds, vecs = _psd_verdict(forms, scale)
    vecs, checks = iter(vecs), []
    for j, (x, low, top, ok) in enumerate(zip(vertices, lam.tolist(), norm.tolist(), holds.tolist())):
        witness = None if ok else VertexFunction(domain(j), np.concatenate([[0.0], next(vecs)]))
        checks.append(VertexCheck(x, low, top, ok, witness))
    return checks


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
    be any finite real (non-positive K is useful diagnostically); n must lie in (1, inf].
    """
    n = validate_dimension(n)
    K = finite_number(K, "K", positive=False)
    centres = range(g.num_vertices) if x is None else (g.index(x),)
    checks = {}
    for (k, _), balls in g._shape_groups(centres).items():
        q, gamma_diag, row = _gamma2_forms(g, balls, k + 1)
        a, r, gamma_diag = q[:, 1:, 1:], row[:, 1:], gamma_diag[:, 1:]
        scale = np.abs(a).max(axis=(1, 2), initial=0.0)
        rr = r[:, :, None] * r[:, None, :]
        rr /= n
        a[:, :k, :k] -= rr
        a[:, range(k), range(k)] -= K * gamma_diag
        at = balls[:, 0].tolist()
        checks.update(zip(at, _vertex_checks(a, scale, [g.vertices[i] for i in at],
                                             lambda j, balls=balls: _ball_ids(g, balls[j:j + 1])[0])))
    checks = tuple(checks[i] for i in centres)
    return CDReport(K, n, all(c.holds for c in checks), checks)


@dataclass(frozen=True)
class CurvatureResult:
    """The largest K with CD(K, n) at a vertex, with the minimizing witness.

    The witness lives on the closed 2-ball, has witness(x) = 0, is normalized
    so Gamma(witness, witness)(x) = 1, and achieves the Rayleigh quotient
    `witness_quotient` (equal to kappa up to roundoff). kernel_ok records
    that every S2 pivot d_z was inverted to a finite positive number; it is
    false only when a pivot underflowed to 0 or its reciprocal overflowed.
    The witness is built on first access from `ball` (x, S1, S2) and its
    values there, a read-only row of the kernel's stacked output.
    """

    vertex: object
    n: float
    kappa: float
    kernel_ok: bool
    witness_quotient: float
    ball: tuple = field(repr=False)
    witness_values: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def witness(self):
        return VertexFunction(self.ball, self.witness_values)


def _curvature_stacks(g, centres, n_values):
    """Per padded stack of 2-balls, (centres, kappas, finish): the curvature function's eager part.

    kappas is a (B, |n|) array over the stack's B centres; finish() is
    _finish_stack on what the stack keeps. The pinned form is read as its
    blocks A11, A12 and the S2 diagonal d. The Schur complements over S1
    differ only by the rank-one term r r^T / n, so one stacked eigh of shape
    (B, |n|, k, k) solves every pencil of a stack. Pad coordinates drop out:
    a pad repeats the centre (no self-weight, so it adds only zero terms to
    the real entries), and its rows and columns are zeroed, block by block,
    after assembly; a pad in S2 has d = 0, so d+ = 0; a pad in S1 has
    d^{-1/2} = 0 and a pencil diagonal of 2 k max|pencil entry| + 1, above
    every real block's Gershgorin bound, so lambda_min and its vector come
    from the real block.
    A real pivot d_z = sum_y w_xy w_yz / (4 m_x m_y) and a real Gamma
    diagonal w_xy / (2 m_x) are positive, so d > 0 and Gamma > 0 tell them
    from pads; a stack of one shape has no pads to zero or shift. A pivot
    out of the float range makes NaN or infinite kappas without a numpy
    warning: kernel_ok reports it.
    """
    groups = g._shape_groups(centres)
    if (0, 0) in groups:
        raise IsolatedVertex(g.vertices[groups[0, 0][0, 0]])
    n_arr = np.array(n_values)
    stacks = []
    for k, t, balls, real, parts in _padded_stacks(groups):
        q1, d, gamma_diag, row = _gamma2_blocks(g, balls, k + 1)
        a, r, gamma_diag = q1[:, 1:, 1:], row[:, 1:], gamma_diag[:, 1:]
        if real is not None:
            pads = ~real[:, 1:]
            a[pads[:, :k]] = a.transpose(0, 2, 1)[pads] = d[pads[:, k:]] = 0.0
        a11, a12 = a[:, :, :k], a[:, :, k:]
        with np.errstate(over="ignore", invalid="ignore"):
            d_plus = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)
            d_isqrt = np.divide(1.0, np.sqrt(gamma_diag), out=np.zeros_like(gamma_diag), where=gamma_diag > 0.0)
            schur = a11[:, None] - (r[:, :, None] * r[:, None, :])[:, None] / n_arr[:, None, None]
            schur -= ((a12 * d_plus[:, None]) @ a12.transpose(0, 2, 1))[:, None]
            schur *= d_isqrt[:, None, :, None]
            schur *= d_isqrt[:, None, None, :]
            pencils = schur + schur.swapaxes(2, 3)
            pencils /= 2.0
        if real is not None and pads[:, :k].any():
            at, s1 = np.nonzero(pads[:, :k])
            pencils[at, :, s1, s1] = 2.0 * k * np.abs(pencils).max() + 1.0
        evals, evecs = np.linalg.eigh(pencils)
        low = evals[..., 0]
        finish = partial(_finish_stack, g, n_values, balls[:, 0], low, real, parts,
                         a11, a12, d, r, gamma_diag, d_plus, d_isqrt, evecs[..., 0])
        stacks.append((balls[:, 0], low, finish))
    return stacks


def _finish_stack(g, n_values, centres, kappas, real, parts, a11, a12, d, r, gamma_diag, d_plus, d_isqrt, low_vecs):
    """{centre: [CurvatureResult for each n in n_values]} for a stack, from its eager part.

    low_vecs holds the pencils' lambda_min eigenvectors. The witnesses are
    read-only rows of one (B, |n|, 1 + k + t) stack, a padded ball's row
    reordered to start with the ball's own coordinates (x, S1, S2) and cut
    to them. kernel_ok reads each row's real S2 pivots alone. Each witness
    f = (f1, f2) is checked against the pinned form for its n, read from
    the blocks as f1^T A11 f1 + 2 f1^T A12 f2 + sum d f2^2.
    """
    ids = [ball for part in parts for ball in _ball_ids(g, part)]
    n_arr = np.array(n_values)
    k = r.shape[1]
    inverted = (d_plus > 0.0) & (d_plus < np.inf)
    kernel_ok = (inverted if real is None else inverted | ~real[:, k + 1:]).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        f1 = d_isqrt[:, None] * low_vecs
        g12 = f1 @ a12
        f2 = -d_plus[:, None] * g12
        quotients = ((np.sum((f1 @ a11) * f1, axis=2) + 2.0 * np.sum(g12 * f2, axis=2)
                      + np.sum(d[:, None] * f2 * f2, axis=2) - (f1 @ r[:, :, None])[..., 0] ** 2 / n_arr)
                     / np.sum(f1 * gamma_diag[:, None] * f1, axis=2))
    vecs = _sign_fix(np.concatenate([f1, f2], axis=2))
    witnesses = np.concatenate([np.zeros(f1.shape[:2] + (1,)), vecs], axis=2)
    if real is not None:  # each ball's own coordinates first (no row moves without an S1 pad)
        moved = np.flatnonzero(~real[:, k])
        order = np.argsort(~real[moved], axis=1, kind="stable")
        witnesses[moved] = witnesses[moved[:, None, None], np.arange(len(n_arr))[:, None], order[:, None]]
    witnesses.setflags(write=False)
    if real is not None:
        witnesses = [rows[:, :len(ball)] for rows, ball in zip(witnesses, ids)]
    return {i: [CurvatureResult(ball[0], n, kappa, ok, quot, ball, row)
                for n, kappa, quot, row in zip(n_values, kaps, quots, rows)]
            for i, ball, kaps, ok, quots, rows in zip(centres.tolist(), ids, kappas.tolist(), kernel_ok.tolist(),
                                                      quotients.tolist(), witnesses)}


def curvature_at(g, x, n):
    """kappa(x, n) = sup { K : CD(K, n) holds at x }, by Schur reduction."""
    i = g.index(x)
    ((_, _, finish),) = _curvature_stacks(g, (i,), (validate_dimension(n),))
    return finish()[i][0]


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-vertex curvature over a grid of dimension parameters.

    `global_min` is read off the stacked kappas when the profile is built.
    The ball ids, witnesses and quotients are not built until `results` is
    first read, which finishes each stack and wraps its output as
    CurvatureResults; a caller that reads `global_min` alone never pays for
    them.
    """

    n_values: tuple
    global_min: dict  # n -> (kappa, first vertex in vertex order within MULTIPLICITY_TOL max(deg/m) of it)
    vertices: tuple = field(repr=False)
    _stacks: list = field(repr=False, compare=False)  # the _curvature_stacks output, finished on first read

    @cached_property
    def results(self):
        """n -> {vertex: CurvatureResult}, vertices in vertex order."""
        rows = {i: results for _, _, finish in self._stacks for i, results in finish().items()}
        return {n: {v: rows[i][j] for i, v in enumerate(self.vertices)} for j, n in enumerate(self.n_values)}


def curvature_profile(g, n_grid):
    """kappa(x, n) for every vertex and n in the grid, plus global minima.

    Ties go to the first vertex; kappas tie within MULTIPLICITY_TOL max(deg/m),
    the scale of the rounding in every kappa, so rescaling w and m keeps the
    reported vertex. A repeated n is solved and reported once, at its first place.
    """
    n_values = tuple(dict.fromkeys(validate_dimension(n) for n in n_grid))
    stacks = _curvature_stacks(g, range(g.num_vertices), n_values) if n_values else []
    kappas = np.empty((g.num_vertices, len(n_values)))
    for centres, low, _ in stacks:
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
    K = finite_number(K, "K")
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
        equality=attains_bound(spectral, bound),
        cd_report=cd_report,
    )
