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

kappa(x, .) depends on the 2-ball around x alone. The graph groups centres
by 2-ball shape (WeightedGraph._shape_groups); this module alone pads them:
_laid_stacks merges the groups into padded stacks and builds each one whole,
with its n-free forms, as a read-only _Stack. Each stack's pinned forms are
assembled as blocks A11, A12 and d (operators._gamma2_blocks, read by
_forms), never as a (B, s, s) stack, with d+, D^{-1/2}, r r^T and, where
the stack has S2, A12 diag(d+) A12^T. The graph keeps the stacks of all its
centres (WeightedGraph._two_ball_stacks), so a profile pays only the
(B, |n|, k, k) pencils (_pencils: the rank-one update in 1/n and the scaling)
and one stacked eigvalsh per stack, whose lowest eigenvalues are the kappas.
The pencils are kept with the profile, and one stacked eigh of them gives the
witnesses, with ball ids and quotients, only when the results are read.

By the Schur step, CD(K, n) holds at x exactly when kappa(x, n) >= K, so
cd_check reads the same pencils over exact shape groups (pads would change
the kappa - K and norm it reports), through the same eigvalsh: on a graph of
one 2-ball shape, lambda_min at K = kappa(x, n) is exactly 0. It shares one
per-vertex verdict with condition (5) of the rigidity module
(_vertex_checks): one eigvalsh per stack against the caller's tolerance;
eigh and a witness only on failure.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import _lapack
from .errors import InvalidParams, IsolatedVertex
from .graphs import (
    MULTIPLICITY_TOL,
    BoundaryGraph,
    WeightedGraph,
    attains_bound,
    finite_number,
    lichnerowicz_bound,
    validate_dimension,
)
from .operators import VertexFunction, _gamma2_blocks
from .operators import _gamma2_matrix  # noqa: F401 -- unused; perfbench traces calls via this name
from .spectra import _sign_fix, laplacian_spectrum, steklov_spectrum


def _ball_ids(g, balls):
    """The rows of a (B, s) ball array as tuples of vertex ids, in one gather."""
    return list(map(tuple, g._id_array[balls].tolist()))


def _psd_rule(evals, tol):
    """lambda_min, max |lambda| and lambda_min >= -tol(max |lambda|) along the trailing axis.

    tol(norm), each form's rounding scale, is built by the caller from the sizes
    the form is made of, with no absolute floor (covariance under w -> c w, m -> d m).
    """
    lam, norm = evals.min(axis=-1), np.abs(evals).max(axis=-1)
    return lam, norm, lam >= -tol(norm)


def _psd_verdict(matrices, tol, shift=0.0):
    """_psd_rule on the eigvalsh spectra of a stack of forms less shift, and a lambda_min vector of each failing form.

    eigh runs on the failing forms alone, unshifted: the vectors it gives on the whole stack.
    """
    lam, norm, holds = _psd_rule(_lapack.eigvalsh(matrices) - shift, tol)
    failing = matrices[~holds]
    return lam, norm, holds, (_lapack.eigh(failing)[1][:, :, 0] if len(failing) else failing[:, 0])


@dataclass(frozen=True)
class VertexCheck:
    """The PSD verdict on one vertex's form, pinned at f(vertex) = 0; on failure, a witness with f^T A f < 0."""

    vertex: object
    lambda_min: float
    form_norm: float
    holds: bool
    witness: VertexFunction | None


def _vertex_checks(forms, tol, vertices, domain, lift=None, shift=0.0):
    """A VertexCheck per form of a (B, s, s) stack less shift, form j pinned at vertices[j].

    One stacked eigvalsh decides every form by _psd_rule. Where form j fails,
    its witness is 0 at vertices[j], then form j's lambda_min vector, or its
    row of lift(failing, vectors), on domain(j), which lists vertices[j]
    first. A 0 x 0 form holds with lambda_min inf.
    """
    if not forms.shape[-1]:
        return [VertexCheck(x, math.inf, 0.0, True, None) for x in vertices]
    lam, norm, holds, vecs = _psd_verdict(forms, tol, shift)
    if lift is not None and len(vecs):
        vecs = lift(np.flatnonzero(~holds), vecs)
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

    It holds at x exactly when kappa(x, n) >= K, read from the curvature
    function's pencils: lambda_min is kappa - K, form_norm the largest
    |eigenvalue| of the pencil less K, and the check holds where
    kappa - K >= -MULTIPLICITY_TOL Deg(x), Deg(x) = (1/m_x) sum_y w_xy, the
    curvature unit at x: covariant under w -> c w, m -> d m, and not widened
    by a large degree elsewhere or a large pencil entry. A failing check
    carries the pencil's lambda_min vector lifted to the 2-ball (_lift), with
    f^T A(K) f = kappa - K < 0. K may be any finite real; n must lie in (1, inf].
    """
    if not g.num_vertices:
        raise InvalidParams("a graph needs at least one vertex")
    n = validate_dimension(n)
    K = finite_number(K, "K", positive=False)
    centres = range(g.num_vertices) if x is None else (g.index(x),)
    checks = {}
    for (k, _), balls in g._shape_groups(centres).items():
        forms = _forms(g, balls, k, None)
        pencils = _pencils(forms, None, np.array([n]))
        at = balls[:, 0]
        tau = MULTIPLICITY_TOL * g._degrees[at]
        checks.update(zip(at.tolist(), _vertex_checks(
            pencils[:, 0], lambda norm, tau=tau: tau, [g.vertices[i] for i in at.tolist()],
            lambda j, balls=balls: _ball_ids(g, balls[j:j + 1])[0], partial(_lift_rows, forms), K)))
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


PAD_ENTRIES = 2 ** 12  # most pad entries one merge may add to a stack, about one stack's fixed cost


class _Forms(namedtuple("_Forms", "a11 a12 d r gamma_diag d_plus d_isqrt rr ad")):
    """A stack's n-free forms, read-only: A11, A12 and d with pads zeroed, r and the Gamma diagonal on S1,
    d+ and D^{-1/2} (zero at pads), r r^T, and A12 diag(d+) A12^T (None on a stack with no S2)."""

    __slots__ = ()


class _Stack(namedtuple("_Stack", "centres parts pad fill forms kernel_ok")):
    """One padded stack of 2-balls, built whole by _laid_stacks; each array in it is read-only.

    Its B rows are the balls of the merged shape groups parts, in order, each
    laid out as the centre, S1, pad, S2, pad with every pad entry repeating
    the centre, and centres are the rows' centres. pad is the (B, 1 + k + t)
    mask of the pad entries, None for a stack of one shape, which has no
    pads; fill holds the (rows, S1 slots) of the S1 pads, None when there are
    none. forms is the stack's _Forms; kernel_ok, a (B,) array, says that
    every real S2 pivot was inverted to a finite positive number (0 < d+ < inf).
    """

    __slots__ = ()


def _laid_stacks(g, centres):
    """The given centres' 2-balls as a tuple of _Stacks: their shape groups merged, by ball size, into padded stacks.

    A group joins the open stack while the padding this adds, to the stack's
    rows and to its own, is at most PAD_ENTRIES: a merge then costs no more
    arithmetic than about the fixed numpy cost of the stack it saves, and one
    large 2-ball cannot blow up a stack of many small ones. A centre whose
    2-ball is the centre alone raises IsolatedVertex, the first such centre named.
    """
    groups = g._shape_groups(centres)
    if (0, 0) in groups:
        raise IsolatedVertex(g.vertices[groups[0, 0][0, 0]])
    merged = []  # [k, t, rows, shapes]
    for k, t in sorted(groups, key=lambda shape: (sum(shape), shape)):
        b = len(groups[k, t])
        if merged:
            k0, t0, rows, shapes = merged[-1]
            old, new = 1 + k0 + t0, 1 + max(k0, k) + max(t0, t)
            if rows * (new ** 2 - old ** 2) + b * (new ** 2 - (1 + k + t) ** 2) <= PAD_ENTRIES:
                merged[-1] = [max(k0, k), max(t0, t), rows + b, shapes + [(k, t)]]
                continue
        merged.append([k, t, b, [(k, t)]])
    stacks = []
    for k, t, _, shapes in merged:
        parts = tuple(groups[shape] for shape in shapes)
        balls, pad, fill = parts[0], None, None
        if len(parts) > 1:
            balls = np.repeat(np.concatenate([part[:, :1] for part in parts]), 1 + k + t, axis=1)
            at = 0
            for (k1, t1), part in zip(shapes, parts):
                rows = slice(at, at + len(part))
                balls[rows, :1 + k1], balls[rows, 1 + k:1 + k + t1] = part[:, :1 + k1], part[:, 1 + k1:]
                at += len(part)
            pad = balls == balls[:, :1]  # a ball lists distinct vertices, so only the pads repeat the centre
            pad[:, 0] = False
            fill = np.nonzero(pad[:, 1:k + 1]) if pad[:, k].any() else None  # S1 pads sit at the end of S1
        forms = _forms(g, balls, k, pad)
        inverted = (forms.d_plus > 0.0) & (forms.d_plus < np.inf)
        kernel_ok = (inverted if pad is None else inverted | pad[:, k + 1:]).all(axis=1)
        stack = _Stack(balls[:, 0].copy(), parts, pad, fill, forms, kernel_ok)
        for array in (stack.centres, *parts, pad, *(fill or ()), kernel_ok):
            if array is not None:
                array.setflags(write=False)
        stacks.append(stack)
    return tuple(stacks)


def _forms(g, balls, k, pad):
    """The read-only _Forms of a (B, 1 + k + t) stack of 2-balls; pad is its pad mask, or None.

    A pad repeats the centre, adding only zero terms to real entries, and its
    rows and columns are zeroed after assembly, so a pad in S2 has d+ = 0 and
    a pad in S1 has d^{-1/2} = 0. Real pivots and Gamma diagonals are
    positive, unlike pads; a pivot out of the float range makes NaN or
    infinite entries with no numpy warning (kernel_ok reports it).
    """
    q1, d, gamma_diag, row = _gamma2_blocks(g, balls, k + 1)
    a, r, gamma_diag = q1[:, 1:, 1:], row[:, 1:], gamma_diag[:, 1:]
    if pad is not None:
        a[pad[:, 1:k + 1]] = a.transpose(0, 2, 1)[pad[:, 1:]] = d[pad[:, k + 1:]] = 0.0
    a11, a12 = a[:, :, :k], a[:, :, k:]
    with np.errstate(over="ignore", invalid="ignore"):
        d_plus = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)
        d_isqrt = np.divide(1.0, np.sqrt(gamma_diag), out=np.zeros_like(gamma_diag), where=gamma_diag > 0.0)
        forms = _Forms(a11, a12, d, r, gamma_diag, d_plus, d_isqrt, r[:, :, None] * r[:, None, :],
                       (a12 * d_plus[:, None]) @ a12.transpose(0, 2, 1) if d.shape[1] else None)
    for array in forms:
        if array is not None:
            array.setflags(write=False)
    return forms


def _pencils(forms, fill, n_arr):
    """The (B, |n|, k, k) pencils D^{-1/2} S(n) D^{-1/2} of a stack's _Forms, one per n.

    They cost the rank-one update in 1/n and the scaling alone. fill is the
    stack's (rows, S1 slots) of its S1 pads, or None; a pad in S1 gets a
    pencil diagonal above its own ball's Gershgorin bound.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        schur = forms.a11[:, None] - forms.rr[:, None] / n_arr[:, None, None]
        if forms.ad is not None:
            schur -= forms.ad[:, None]
        schur *= forms.d_isqrt[:, None, :, None]
        schur *= forms.d_isqrt[:, None, None, :]
        pencils = schur + schur.swapaxes(2, 3)
        pencils /= 2.0
    if fill is not None:
        at, s1 = fill
        top = np.abs(pencils[at]).max(axis=(1, 2, 3), initial=0.0)  # initial: an empty n grid has no entry
        pencils[at, :, s1, s1] = 2.0 * pencils.shape[-1] * top[:, None] + 1.0
    return pencils


def _lift(vecs, a12, d_plus, d_isqrt):
    """Pencil vectors v, (B, |n|, k), as f1 = D^{-1/2} v on S1 and the minimizing f2 = -d+ A12^T f1; also f1 A12."""
    f1 = d_isqrt[:, None] * vecs
    g12 = f1 @ a12
    return f1, g12, -d_plus[:, None] * g12


def _lift_rows(forms, rows, vecs):
    """The (F, k + t) values (f1, f2) that _lift gives pencil vectors (F, k) at some rows of a stack's _Forms."""
    f1, _, f2 = _lift(vecs[:, None], forms.a12[rows], forms.d_plus[rows], forms.d_isqrt[rows])
    return np.concatenate([f1, f2], axis=2)[:, 0]


def _curvature_stacks(g, centres, n_values):
    """Per _Stack of the centres' 2-balls, (stack, kappas, finish): the curvature function's eager part.

    kappas, a (B, |n|) array over the stack's B centres, comes from one stacked
    eigvalsh of its _pencils (no eigenvectors); finish() is _finish_stack on
    the stack and its pencils. All centres read the stacks the graph keeps
    (WeightedGraph._two_ball_stacks), so their forms are assembled once per graph.
    """
    stacks = g._two_ball_stacks if centres == range(g.num_vertices) else _laid_stacks(g, centres)
    n_arr = np.array(n_values)
    eager = []
    for stack in stacks:
        pencils = _pencils(stack.forms, stack.fill, n_arr)
        low = _lapack.eigvalsh(pencils)[..., 0]
        eager.append((stack, low, partial(_finish_stack, g, n_values, stack, low, pencils)))
    return eager


def _finish_stack(g, n_values, stack, kappas, pencils):
    """{centre: [CurvatureResult for each n in n_values]} for a _Stack, from its eager part.

    One stacked eigh of the stack's pencils gives their lambda_min eigenvectors;
    each result's kappa stays the eigvalsh value of the eager part, which
    cd_check shares, so the quotients match it up to roundoff. The witnesses are
    read-only rows of one (B, |n|, 1 + k + t) stack, a padded ball's row
    reordered to start with the ball's own coordinates (x, S1, S2) and cut
    to them. Each witness
    f = (f1, f2) is checked against the pinned form for its n, read from
    the stack's _Forms as f1^T A11 f1 + 2 f1^T A12 f2 + sum d f2^2.
    """
    a11, a12, d, r, gamma_diag, d_plus, d_isqrt, _, _ = stack.forms
    ids = [ball for part in stack.parts for ball in _ball_ids(g, part)]
    n_arr = np.array(n_values)
    k = r.shape[1]
    low_vecs = _lapack.eigh(pencils)[1][..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        f1, g12, f2 = _lift(low_vecs, a12, d_plus, d_isqrt)
        quotients = ((np.sum((f1 @ a11) * f1, axis=2) + 2.0 * np.sum(g12 * f2, axis=2)
                      + np.sum(d[:, None] * f2 * f2, axis=2) - (f1 @ r[:, :, None])[..., 0] ** 2 / n_arr)
                     / np.sum(f1 * gamma_diag[:, None] * f1, axis=2))
    vecs = _sign_fix(np.concatenate([f1, f2], axis=2))
    witnesses = np.concatenate([np.zeros(f1.shape[:2] + (1,)), vecs], axis=2)
    if stack.pad is not None:  # each ball's own coordinates first (no row moves without an S1 pad)
        moved = np.flatnonzero(stack.pad[:, k])
        order = np.argsort(stack.pad[moved], axis=1, kind="stable")
        witnesses[moved] = witnesses[moved[:, None, None], np.arange(len(n_arr))[:, None], order[:, None]]
    witnesses.setflags(write=False)
    if stack.pad is not None:
        witnesses = [rows[:, :len(ball)] for rows, ball in zip(witnesses, ids)]
    return {i: [CurvatureResult(ball[0], n, kappa, ok, quot, ball, row)
                for n, kappa, quot, row in zip(n_values, kaps, quots, rows)]
            for i, ball, kaps, ok, quots, rows in zip(stack.centres.tolist(), ids, kappas.tolist(),
                                                      stack.kernel_ok.tolist(), quotients.tolist(), witnesses)}


def curvature_at(g, x, n):
    """kappa(x, n) = sup { K : CD(K, n) holds at x }, by Schur reduction."""
    i = g.index(x)
    ((_, _, finish),) = _curvature_stacks(g, (i,), (validate_dimension(n),))
    return finish()[i][0]


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-vertex curvature over a grid of dimension parameters.

    `kappas` and `global_min` are read off the stacked kappas, one eigvalsh
    per stack, when the profile is built, and `kernel_ok`, free of n, off the
    graph's stacks.
    The eigenvectors, ball ids, witnesses and quotients are not built until
    `results` is first read, which finishes each stack (one eigh of its kept
    pencils) and wraps its output as CurvatureResults; a caller that reads
    the kappas, `global_min` or `kernel_ok` alone never pays for them.
    """

    n_values: tuple
    # n -> (the least kappa that is not NaN, the first vertex within MULTIPLICITY_TOL max(deg/m) of it);
    # (NaN, the first vertex) when every kappa at n is NaN
    global_min: dict
    vertices: tuple = field(repr=False)
    kappas: np.ndarray = field(repr=False, compare=False)  # read-only (N, |n|): kappa per vertex and n
    _stacks: list = field(repr=False, compare=False)  # the _curvature_stacks output, finished on first read

    @cached_property
    def kernel_ok(self):
        """Read-only (N,) bools, in vertex order: every CurvatureResult's kernel_ok at that vertex."""
        ok = np.empty(len(self.vertices), bool)
        for stack, *_ in self._stacks:
            ok[stack.centres] = stack.kernel_ok
        ok.setflags(write=False)
        return ok

    @cached_property
    def results(self):
        """n -> {vertex: CurvatureResult}, vertices in vertex order."""
        rows = {i: results for *_, finish in self._stacks for i, results in finish().items()}
        return {n: {v: rows[i][j] for i, v in enumerate(self.vertices)} for j, n in enumerate(self.n_values)}


def curvature_profile(g, n_grid):
    """kappa(x, n) for every vertex and n in the grid, plus global minima.

    Ties go to the first vertex; kappas tie within MULTIPLICITY_TOL max(deg/m),
    the scale of the rounding in every kappa, so rescaling w and m keeps the
    reported vertex. A NaN kappa (a ball out of the float range, where
    kernel_ok is false) takes no part in the minimum unless every kappa at
    that n is NaN. A repeated n is solved and reported once, at its first place.
    """
    if not g.num_vertices:
        raise InvalidParams("a graph needs at least one vertex")
    n_values = tuple(dict.fromkeys(validate_dimension(n) for n in n_grid))
    stacks = _curvature_stacks(g, range(g.num_vertices), n_values)
    kappas = np.empty((g.num_vertices, len(n_values)))
    for stack, low, _ in stacks:
        kappas[stack.centres] = low
    kappas.setflags(write=False)
    low = np.fmin.reduce(kappas, axis=0)
    first = np.argmax(kappas <= low + MULTIPLICITY_TOL * g._degrees.max(), axis=0)
    global_min = {n: (kappa, g.vertices[i]) for n, kappa, i in zip(n_values, low.tolist(), first.tolist())}
    return CurvatureProfile(n_values, global_min, g.vertices, kappas, stacks)


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
