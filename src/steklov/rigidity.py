"""Equality analysis for the Steklov Lichnerowicz bound sigma_2 >= nK/(n-1).

On a boundary graph satisfying CD(K, n) with K > 0 and n > 1, equality holds
exactly when five structural conditions do:

  (1) |B| = 2 and every interior vertex is adjacent to both boundary vertices;
  (2) the two boundary measures agree (= m) and the two boundary edge weights
      at each interior vertex agree (= w_x);
  (3) both boundary degrees equal nK/(n-1);
  (4) every interior boundary-degree equals (n+2)K/(n-1);
  (5) either n = 2 and |Omega| = 1, or n > 2 and a quadratic form built from
      the interior-induced operators is PSD at every interior vertex on
      {f : f(x) = 0}.

This module decides the conditions, assembles the condition-(5) form,
classifies the rigid graphs (unit weight, edgeless interior, normalized
weight), runs the diagnostics on a report's first read of them, and
constructs equality graphs over complete interiors by searching for a large
enough interior weight scale. Condition (5) builds the forms at all
interior vertices as one stack, in chunks of at most FORM_STACK_ENTRIES, and
decides each chunk by curvature._vertex_checks on the PSD rule cd_check
uses (_psd_rule), so both report VertexCheck records.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .curvature import CDReport, VertexCheck, _vertex_checks, cd_check, curvature_profile
from .curvature import curvature_at  # noqa: F401 -- unused; perfbench traces calls via this name
from .errors import (
    DomainMismatch,
    InteriorCurvatureNotPositive,
    InteriorNotComplete,
    InvalidParams,
    FeasibilitySearchFailed,
    NotInteriorVertex,
    PreconditionViolated,
    WrongHypothesis,
    WrongWeightClass,
)
from .graphs import (
    CONDITION_TOL,
    INF,
    PSD_TOL,
    SEARCH_TOL,
    attains_bound,
    finite_number,
    induced_interior_graph,
    is_infinite,
    join_equality_boundary,
    lichnerowicz_bound,
    validate_dimension,
    weighted_degree,
)
from .operators import VertexFunction, _diagonal, _gamma2_blocks, interior_edges
from .operators import _gamma2_matrix, _gamma_matrix  # noqa: F401 -- unused; perfbench traces calls via these names
from .spectra import steklov_eigenfunction_diagnostics, steklov_spectrum

LAMBDA_MAX = 1e8
FORM_STACK_ENTRIES = 2 ** 22  # B |Omega|^2 in one stack of condition-(5) forms; more centres go in chunks


def _close(a, b):
    """|a - b| <= CONDITION_TOL max(|a|, |b|), elementwise on arrays; the one tolerance rule of (1)-(4) and the classifiers.

    An infinite difference is never close: against an overflowed target every
    finite value would be within tolerance of it.
    """
    diff = np.abs(a - b)
    return (diff <= CONDITION_TOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)) & (diff < np.inf)


class RigidityClass(Enum):
    UNIT_PATH3 = "unit_path3"
    UNIT_SQUARE = "unit_square"
    UNIT_SQUARE_DIAG = "unit_square_diag"
    WEIGHTED_PATH3 = "weighted_path3"
    WEIGHTED_SQUARE = "weighted_square"
    GENERAL_EQUALITY = "general_equality"
    NOT_RIGID = "not_rigid"


@dataclass(frozen=True)
class Classification:
    label: RigidityClass
    params: dict

    @property
    def matched(self):
        return self.label is not RigidityClass.NOT_RIGID


NOT_RIGID = Classification(RigidityClass.NOT_RIGID, {})


@dataclass(frozen=True)
class ConditionCheck:
    index: int
    passed: bool
    detail: str


def _validate_params(K, n):
    """(K, n) when K is finite positive, n in (1, inf] and the degree targets do not overflow; InvalidParams otherwise."""
    n = validate_dimension(n)
    K = finite_number(K, "K")
    for target, name in zip(degree_targets(K, n), ("nK/(n-1)", "(n+2)K/(n-1)")):
        finite_number(target, f"the degree target {name} with K = {K!r} and n = {n!r}")
    return K, n


def degree_targets(K, n):
    """The boundary degree nK/(n-1) and interior boundary-degree (n+2)K/(n-1)."""
    return lichnerowicz_bound(K, n), (K if is_infinite(n) else (n + 2.0) * K / (n - 1.0))


def _boundary_weights(bg):
    """W[B, Omega] as a (|B|, |Omega|) array."""
    return bg.graph.weights[bg.boundary_indices[:, None], bg.interior_indices]


def _unjoined(w_bo):
    """Interior positions not adjacent to every boundary vertex, given W[B, Omega]."""
    return np.flatnonzero((w_bo == 0.0).any(axis=0))


@dataclass(frozen=True)
class NecessaryConditions:
    checks: tuple  # four ConditionCheck entries
    boundary_measure: float | None

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def check_necessary_conditions(bg, K, n):
    """Conditions (1)-(4) read from W[B, Omega] and the degrees as arrays, each with a witness on failure."""
    K, n = _validate_params(K, n)
    g = bg.graph
    deg_target, degb_target = degree_targets(K, n)

    if len(bg.boundary) != 2:
        skipped = "requires |B| = 2"
        return NecessaryConditions(
            (ConditionCheck(1, False, f"|B| = {len(bg.boundary)}, need 2"),)
            + tuple(ConditionCheck(i, False, skipped) for i in (2, 3, 4)), None)

    b1, b2 = bg.boundary
    bi, oi, ids = bg.boundary_indices, bg.interior_indices, bg.interior
    w_bo = _boundary_weights(bg)
    checks = []
    missing = _unjoined(w_bo)
    if missing.size:
        checks.append(ConditionCheck(
            1, False, f"interior vertex {ids[missing[0]]!r} not adjacent to both boundary vertices"))
    else:
        checks.append(ConditionCheck(1, True, "|B| = 2, interior fully joined"))

    m1, m2 = g.measures[bi].tolist()
    if not _close(m1, m2):
        checks.append(ConditionCheck(2, False, f"m({b1!r}) = {m1:g} != m({b2!r}) = {m2:g}"))
    else:
        bad = np.flatnonzero(~_close(w_bo[0], w_bo[1]))
        if bad.size:
            j, x = bad[0], ids[bad[0]]
            checks.append(ConditionCheck(
                2, False, f"w({b1!r},{x!r}) = {w_bo[0, j]:g} != w({b2!r},{x!r}) = {w_bo[1, j]:g}"))
        else:
            checks.append(ConditionCheck(2, True, "boundary measures and edge weights symmetric"))

    degs = g._degrees[bi]
    if _close(degs, deg_target).all():
        checks.append(ConditionCheck(3, True, f"Deg(boundary) = {deg_target:g}"))
    else:
        checks.append(ConditionCheck(
            3, False,
            f"Deg({b1!r}) = {degs[0]:g}, Deg({b2!r}) = {degs[1]:g}, target {deg_target:g}"))

    degb = w_bo.sum(axis=0) / g.measures[oi]
    bad = np.flatnonzero(~_close(degb, degb_target))
    if bad.size:
        checks.append(ConditionCheck(
            4, False, f"Deg_b({ids[bad[0]]!r}) = {degb[bad[0]]:g}, target {degb_target:g}"))
    else:
        checks.append(ConditionCheck(4, True, f"Deg_b(interior) = {degb_target:g}"))

    return NecessaryConditions(tuple(checks), (m1 + m2) / 2.0)


def _necessary_measure(bg, K, n):
    """The boundary measure m once conditions (1)-(4) hold; PreconditionViolated otherwise."""
    nec = check_necessary_conditions(bg, K, n)
    if not nec.passed:
        failed = [c for c in nec.checks if not c.passed][0]
        raise PreconditionViolated(f"condition ({failed.index}) fails: {failed.detail}")
    return nec.boundary_measure


@dataclass(frozen=True, eq=False)
class InteriorFormAssembly:
    """The condition-(5) quadratic form at an interior vertex, f(x) = 0 pinned."""

    vertex: object
    index_map: tuple  # Omega minus the pinned vertex, in vertex order
    matrix: np.ndarray
    n: float
    K: float
    m: float
    scale: float  # the largest entry of its largest summands, the PSD rule's scale

    def evaluate(self, f):
        vec = f.on(self.index_map) if isinstance(f, VertexFunction) else np.asarray(f, float)
        return float(vec @ self.matrix @ vec)


def assemble_interior_form(bg, K, n, x):
    """Assemble the interior rigidity form at x over R^Omega with f(x) = 0.

    For finite n > 2 the form is

        Gamma2_O(f,f)(x) - (Delta_O f)^2(x)/(n-2) + 3K/(n-1) Gamma_O(f,f)(x)
        + (n+2)^2 K^2 / (8 m (n-1)^2) <f,f>_O
        - (n+2) K / ((n-1)(n-2) m) <f,1>_O Delta_O f(x)
        - n (n+2)^2 K^2 / (8 (n-2)(n-1)^2 m^2) <f,1>_O^2

    and for n = inf it degenerates to
    Gamma2_O + K^2/(8m) <f,f>_O - K^2/(8m^2) <f,1>_O^2. All interior
    operators act on the interior-induced graph. Requires conditions (1)-(4).
    """
    K, n = _validate_params(K, n)
    if not is_infinite(n) and n <= 2.0:
        raise PreconditionViolated(f"the interior form is defined for n > 2 or n = inf, got n = {n:g}")
    m = _necessary_measure(bg, K, n)
    if x not in set(bg.interior):
        raise NotInteriorVertex(x)
    ig = induced_interior_graph(bg)
    i = ig.index(x)
    centres = range(i, i + 1)
    forms, scales = _interior_forms(ig, K, n, m, centres, _interior_blocks(ig, centres))
    return InteriorFormAssembly(x, tuple(v for v in ig.vertices if v != x), forms[0], n, K, m, float(scales[0]))


def _interior_blocks(ig, centres):
    """Per 2-ball shape group of a range of centres, (balls, q1, d, Gamma's diagonal on B1, Delta[x, B1]).

    These are the summands of the condition-(5) forms that read the interior
    weights, one _gamma2_blocks call per group (q1 the B1 rows of Gamma2, d
    its S2 diagonal); _interior_forms reads them and does not write to them.
    """
    return [(balls,) + _gamma2_blocks(ig, balls, k + 1) for (k, _), balls in ig._shape_groups(centres).items()]


def _interior_forms(ig, K, n, m, centres, blocks):
    """The condition-(5) forms, f(x) = 0, at a range of centres x as a (B, |Omega|-1, |Omega|-1) stack; PSD scales.

    blocks are _interior_blocks(ig, centres), or the same arrays for ig with
    its weights scaled: only ig's vertices and measures are read here. The
    stack starts as copies of A0 = a3 diag(mu) - a5 mu mu^T. Per shape group,
    one take of A0 on the balls gets Gamma2's blocks added (q1 on the B1 rows,
    q1's S2 columns transposed on S2 x B1, d on the S2 diagonal; the rest of
    the S2 block is -0.0 and would add nothing), then the 1-ball terms
    a2 Gamma - a1 ell ell^T, and one scatter puts it into the stack (a ball
    lists each vertex once and the groups' centres differ, so the take reads
    A0 alone). A form's scale is the largest of |q1|, |d| and a3 max mu.
    a2 Gamma is +0.0 off its diagonal, first row and first column, which its
    diagonal gives. Delta[x, B1] is spread into dense rows e, zero off the
    1-ball, and the a4 cross terms are one broadcast over the stack (a row
    off the 1-ball subtracts an exact +0.0). The stack is symmetrized as
    (q + q^T) / 2 and then pinned by a mask gather. Every entry keeps the
    one-centre order of operations. Two arrays of the stack's size are kept,
    the accumulator q and a work buffer for |q1|, the 1-ball terms, the
    cross terms and the symmetrized stack; the group's take and the pinned
    result, made once q is dropped, are the only others.
    Callers keep B |Omega|^2 within FORM_STACK_ENTRIES.
    """
    mu, nv, b = ig.measures, ig.num_vertices, len(centres)
    if is_infinite(n):
        a1 = a2 = a4 = 0.0
        a3 = K * K / (8.0 * m)
        a5 = K * K / (8.0 * m * m)
    else:
        a1 = 1.0 / (n - 2.0)
        a2 = 3.0 * K / (n - 1.0)
        a3 = (n + 2.0) ** 2 * K * K / (8.0 * m * (n - 1.0) ** 2)
        a4 = (n + 2.0) * K / ((n - 1.0) * (n - 2.0) * m)
        a5 = n * (n + 2.0) ** 2 * K * K / (8.0 * (n - 2.0) * (n - 1.0) ** 2 * m * m)

    base = a3 * np.diag(mu) - a5 * np.outer(mu, mu)
    q = np.repeat(base[None], b, axis=0)
    work, e, scales = np.empty_like(q), np.zeros((b, nv)), np.empty(b)
    for balls, q1, d, gamma_diag, ell in blocks:
        at, (size, k1, s) = balls[:, 0] - centres[0], q1.shape
        scales[at] = np.maximum(np.abs(q1, out=work[:size, :k1, :s]).max(axis=(1, 2)), a3 * mu.max())
        acc = base[balls[:, :, None], balls[:, None, :]]
        acc[:, :k1] += q1
        if d.shape[1]:
            scales[at] = np.maximum(scales[at], np.abs(d).max(axis=1))
            acc[:, k1:, :k1] += q1[:, :, k1:].transpose(0, 2, 1)
            _diagonal(acc)[:, k1:] += d
        term = np.multiply(ell[:, :, None], ell[:, None, :], out=work[:size, :k1, :k1])
        term *= a1
        rim = a2 * np.concatenate([gamma_diag[:, :1], -gamma_diag[:, 1:]], axis=1) - term[:, 0]
        diagonal = a2 * gamma_diag - _diagonal(term)
        np.subtract(0.0, term, out=term)
        term[:, 0] = term[:, :, 0] = rim
        _diagonal(term)[:] = diagonal
        acc[:, :k1, :k1] += term
        q[at[:, None, None], balls[:, :, None], balls[:, None, :]] = acc
        e[at[:, None], balls[:, :k1]] = ell
    cross = np.multiply(e[:, :, None], mu, out=work)
    cross *= 0.5 * a4
    q -= cross
    q -= cross.transpose(0, 2, 1)
    sym = np.add(q, q.transpose(0, 2, 1), out=work)
    sym /= 2.0
    del q
    keep = np.ones((b, nv), dtype=bool)
    keep[np.arange(b), centres] = False
    return sym[keep[:, :, None] & keep[:, None, :]].reshape(b, nv - 1, nv - 1), scales


@dataclass(frozen=True)
class InteriorInequalityReport:
    passed: bool
    branch: str
    detail: str
    vertex_checks: tuple


def check_interior_inequality(bg, K, n):
    """Condition (5) of the equality characterization.

    n = 2 asks |Omega| = 1; 1 < n < 2 is reported false outright (no equality
    graphs exist there, the curvature condition already fails at interior
    vertices); for n > 2 and n = inf the assembled interior form must be PSD
    at every interior vertex.
    """
    K, n = _validate_params(K, n)
    m = _necessary_measure(bg, K, n)
    return _interior_inequality(induced_interior_graph(bg), K, n, m)


def _form_chunks(nv):
    """The ranges of centres whose condition-(5) forms are built as one stack: B nv^2 within FORM_STACK_ENTRIES."""
    step = max(1, FORM_STACK_ENTRIES // nv ** 2)
    return [range(start, min(start + step, nv)) for start in range(0, nv, step)]


def _interior_inequality(ig, K, n, m, blocks=None):
    """Condition (5) on the interior-induced graph ig, given (1)-(4) with boundary measure m.

    blocks, when given, holds the _interior_blocks of each of _form_chunks'
    ranges, for ig or for ig with its weights scaled; otherwise each chunk's
    blocks are assembled from ig in turn.
    """
    if n == 2.0:
        ok = ig.num_vertices == 1
        return InteriorInequalityReport(
            ok, "n=2", f"|Omega| = {ig.num_vertices}, need 1 when n = 2", ())
    if n < 2.0:
        return InteriorInequalityReport(
            False, "1<n<2",
            "no equality graphs exist for 1 < n < 2 (the curvature condition "
            "fails at interior vertices)", ())

    ids = ig.vertices
    if len(ids) == 1:  # a 0 x 0 form, which needs no assembly, holds with lambda_min inf
        checks = [VertexCheck(ids[0], math.inf, 0.0, True, None)]
    else:
        checks, chunks = [], _form_chunks(len(ids))
        if blocks is None:
            blocks = (_interior_blocks(ig, centres) for centres in chunks)  # one chunk's blocks live at a time
        for centres, chunk in zip(chunks, blocks):
            forms, scales = _interior_forms(ig, K, n, m, centres, chunk)
            checks += _vertex_checks(forms, lambda norm, scales=scales: PSD_TOL * np.maximum(norm, scales),
                                     ids[centres.start:centres.stop],
                                     lambda j, i0=centres.start: (ids[i0 + j],) + ids[:i0 + j] + ids[i0 + j + 1:])
    passed = all(c.holds for c in checks)
    return InteriorInequalityReport(
        passed, "psd", "interior form PSD at every interior vertex" if passed
        else "interior form not PSD", tuple(checks))


# ---------------------------------------------------------------------------
# structural diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallScanReport:
    pair: tuple | None
    connected: bool
    diameter: float  # inf when disconnected

    @property
    def found(self):
        return self.pair is not None


def disjoint_ball_scan(interior):
    """Look for two interior vertices whose radius-2 balls are disjoint.

    Works on the interior-induced graph; two balls are disjoint exactly when
    the hop distance of their centers exceeds 4 (infinite for different
    components). Also reports connectivity and diameter, which the structure
    theorem constrains for equality graphs.
    """
    nv = interior.num_vertices
    dist = np.array([interior.hop_distances(i) for i in range(nv)]).reshape(nv, nv)
    far = np.argwhere(np.triu(dist > 4))
    pair = tuple(interior.vertices[j] for j in far[0]) if len(far) else None
    return BallScanReport(pair, bool(np.isfinite(dist).all()), float(dist.max()) if nv else 0.0)


@dataclass(frozen=True)
class TwoBallResiduals:
    residuals: dict  # (x, z) with hop distance 2 -> residual
    max_abs: float


def two_ball_identity_check(bg, u):
    """Residuals of the distance-2 averaging identity for u.

    For every pair x, z at hop distance 2 the identity

        (u(x) + u(z)) / 2 = sum_y u(y) w_xy w_yz / m_y  /  sum_y w_xy w_yz / m_y

    holds for the second Steklov eigenfunction's harmonic extension on
    equality graphs; the residual table quantifies how far u is from that.
    The average is free of the scale of the coefficients, so each is taken
    as its frexp mantissas' quotient times 2 to the power of its exponents'
    sum less the largest such sum: the largest is about 1, a product such as
    w_xy w_yz = 1e-324 does not underflow, and wherever the raw coefficients
    stay normal they are scaled by one power of two and the average keeps
    its bits.
    """
    g = bg.graph
    if set(u.domain) != set(g.vertices):
        raise DomainMismatch(g.vertices, u.domain)
    vals = u.on(g.vertices)
    fm, em = np.frexp(g.measures)
    residuals = {}
    for i in range(g.num_vertices):
        fi, ei = np.frexp(g.weights[i])
        for j in [j for j in g._two_spheres(i)[1] if j > i]:
            fj, ej = np.frexp(g.weights[j])
            mantissa, exponent = fi * fj / fm, ei + ej - em
            coeff = np.ldexp(mantissa, exponent - exponent[mantissa > 0.0].max())
            residuals[(g.vertices[i], g.vertices[j])] = (
                (vals[i] + vals[j]) / 2.0 - float(coeff @ vals) / coeff.sum())
    return TwoBallResiduals(residuals, float(max(map(abs, residuals.values()), default=0.0)))


# ---------------------------------------------------------------------------
# the full rigidity decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
    """The verdict of check_rigidity; every diagnostic runs on the first read of `diagnostics`.

    No verdict field reads `diagnostics`, and == does not compare it. A report
    keeps its boundary graph, interior graph and Steklov spectrum alive for
    that read.
    """

    K: float
    n: float
    cd_holds: bool
    sigma2: float | None
    bound: float
    slack: float | None
    bound_equality: bool
    conditions: tuple  # five ConditionCheck entries
    interior_report: InteriorInequalityReport | None
    classification: Classification
    cd_report: CDReport = field(repr=False, compare=False)  # the CD(K, n) verdict behind cd_holds
    _graph: object = field(repr=False, compare=False)  # BoundaryGraph
    _interior: object = field(repr=False, compare=False)  # its interior-induced WeightedGraph
    _eigenfunction: object = field(repr=False, compare=False)  # the Steklov Spectrum, None when |B| < 2

    @property
    def all_conditions_hold(self):
        return all(c.passed for c in self.conditions)

    @property
    def is_rigid(self):
        return self.cd_holds and self.bound_equality and self.all_conditions_hold

    @property
    def consistent(self):
        """The equality characterization, which must hold whenever CD does."""
        if not self.cd_holds:
            return True
        return self.bound_equality == self.all_conditions_hold

    @cached_property
    def diagnostics(self):
        """The sigma_2 eigenfunction checks, the two-ball residual and the interior ball scan, as one dict.

        The first read runs the residual-checked harmonic solve, so an
        interior system it finds singular raises here, not in check_rigidity.
        """
        if self._eigenfunction is None:
            diagnostics = {"sigma2_missing": "boundary has fewer than 2 vertices"}
        else:
            eig = steklov_eigenfunction_diagnostics(self._graph, self._eigenfunction)
            diagnostics = dict(
                sigma2_interior_norm=eig.interior_norm,
                sigma2_rayleigh_quotient=eig.rayleigh_quotient,
                mu2=eig.mu2,
                mu2_residual=eig.mu2_residual,
                two_ball_max_residual=two_ball_identity_check(self._graph, eig.extension).max_abs,
            )
        scan = disjoint_ball_scan(self._interior)
        diagnostics.update(
            interior_connected=scan.connected,
            interior_diameter=scan.diameter,
            disjoint_ball_pair=scan.pair,
        )
        return diagnostics


def check_rigidity(bg, K, n):
    """Decide equality in sigma_2 >= nK/(n-1) and classify the graph.

    Runs the global curvature check, the Steklov spectrum, conditions
    (1)-(5), and attaches a classification label when equality holds. Every
    diagnostic (the sigma_2 eigenfunction checks with their residual-checked
    harmonic extension, the two-ball identity and the disjoint-ball scan) is
    built on the first read of the report's `diagnostics`, so the report
    keeps bg and its spectrum alive. An isolated vertex raises IsolatedVertex.
    """
    K, n = _validate_params(K, n)
    g = bg.graph
    cd_report = cd_check(g, K, n)
    bound = lichnerowicz_bound(K, n)

    sigma2 = slack = spectrum = None
    if len(bg.boundary) >= 2:
        spectrum = steklov_spectrum(bg)
        sigma2 = float(spectrum.values[1])
        slack = sigma2 - bound
    bound_equality = sigma2 is not None and attains_bound(sigma2, bound)

    ig = induced_interior_graph(bg)
    nec = check_necessary_conditions(bg, K, n)
    interior_report = None
    if nec.passed:
        interior_report = _interior_inequality(ig, K, n, nec.boundary_measure)
        cond5 = ConditionCheck(5, interior_report.passed, interior_report.detail)
    else:
        cond5 = ConditionCheck(5, False, "not evaluated: a condition among (1)-(4) failed")
    conditions = nec.checks + (cond5,)

    all_hold = all(c.passed for c in conditions)
    if bound_equality and all_hold and cd_report.holds:
        if g.unit_weight:
            classification = classify_unit_weight(bg)
        elif not ig.weights.any():
            classification = classify_partial(bg, K, n)
        else:
            classification = Classification(RigidityClass.GENERAL_EQUALITY, {"K": K, "n": n})
        if not classification.matched:
            classification = Classification(RigidityClass.GENERAL_EQUALITY, {"K": K, "n": n})
    else:
        classification = NOT_RIGID

    return RigidityReport(
        K=K,
        n=n,
        cd_holds=cd_report.holds,
        sigma2=sigma2,
        bound=bound,
        slack=slack,
        bound_equality=bound_equality,
        conditions=conditions,
        interior_report=interior_report,
        classification=classification,
        cd_report=cd_report,
        _graph=bg,
        _interior=ig,
        _eigenfunction=spectrum,
    )


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

def classify_unit_weight(bg):
    """Match a unit-weight boundary graph against the three rigid shapes.

    The shapes are the 3-path with its endpoints as boundary (K = 1/2, n = 2)
    and the square with or without one diagonal, boundary at two opposite
    corners (K = 2, n = inf). Everything else is not rigid. They are exactly
    the graphs with |B| = 2 and one or two interior vertices, each adjacent
    to both boundary vertices; an interior edge is the square's diagonal.
    """
    g = bg.graph
    if not g.unit_weight:
        raise WrongWeightClass("graph is not unit-weighted (need m = 1 and w = 1 everywhere)")
    if len(bg.boundary) != 2 or len(bg.interior) > 2 or _unjoined(_boundary_weights(bg)).size:
        return NOT_RIGID
    if len(bg.interior) == 1:
        return Classification(RigidityClass.UNIT_PATH3, {"K": 0.5, "n": 2.0})
    diagonal = g.weight(*bg.interior) > 0.0
    label = RigidityClass.UNIT_SQUARE_DIAG if diagonal else RigidityClass.UNIT_SQUARE
    return Classification(label, {"K": 2.0, "n": INF})


def classify_partial(bg, K, n):
    """Classify equality graphs whose interior carries no edges.

    Matches the weighted 3-path (any n > 1: boundary edge weights mnK/(n-1),
    interior measure 2nm/(n+2)) or the weighted square (n = inf only: all
    measures m, boundary edge weights mK/2), extracting m from the boundary
    measures.
    """
    K, n = _validate_params(K, n)
    if interior_edges(bg):
        raise WrongHypothesis("interior-induced graph has edges")
    g = bg.graph
    if len(bg.boundary) != 2:
        return NOT_RIGID
    b1, b2 = bg.boundary
    m1, m2 = g.measure(b1), g.measure(b2)
    if not _close(m1, m2):
        return NOT_RIGID
    m = (m1 + m2) / 2.0

    if len(bg.interior) == 1:
        x = bg.interior[0]
        w_target = m * lichnerowicz_bound(K, n)
        mx_target = 2.0 * m if is_infinite(n) else 2.0 * n * m / (n + 2.0)
        w1, w2 = g.weight(b1, x), g.weight(b2, x)
        if all(_close(w, w_target) for w in (w1, w2)) and _close(g.measure(x), mx_target):
            return Classification(RigidityClass.WEIGHTED_PATH3, {"n": n, "K": K, "m": m})
        return NOT_RIGID

    if len(bg.interior) == 2 and is_infinite(n):
        w_target = m * K / 2.0
        ok = all(_close(g.measure(x), m) for x in bg.interior) and all(
            _close(g.weight(b, x), w_target)
            for b in bg.boundary for x in bg.interior
        )
        if ok:
            return Classification(RigidityClass.WEIGHTED_SQUARE, {"n": INF, "K": K, "m": m})
    return NOT_RIGID


def classify_normalized(bg):
    """Classify equality graphs carrying the normalized weight Deg = 1.

    Normalized equality forces n = inf and K = 1, and the graph must then be
    one of the two edgeless-interior shapes with those parameters.
    """
    g = bg.graph
    off = [v for v in g.vertices if not _close(weighted_degree(g, v), 1.0)]
    if off:
        raise WrongWeightClass(
            f"graph is not normalized: Deg({off[0]!r}) = {weighted_degree(g, off[0]):g}")
    if interior_edges(bg):
        return NOT_RIGID
    return classify_partial(bg, 1.0, INF)


# ---------------------------------------------------------------------------
# construction of equality graphs over complete interiors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionResult:
    graph: object  # BoundaryGraph
    lam: float
    lam_threshold: float | None
    interior_report: InteriorInequalityReport


def construct_rigid_family(interior, n, K, m, lam=None):
    """Build an equality graph by joining B = {1, 2} to a complete interior.

    The interior must be complete and carry positive curvature at dimension
    n - 2 (so the boundary join can absorb the remaining terms). Interior
    measures are rescaled to the required interior volume 2mn/(n+2), boundary
    data is chosen to satisfy the four degree conditions, and the interior
    weights are scaled by lam. When lam is not given, the least feasible
    lam >= 1 is located by doubling plus bisection (to relative 1e-6) and the
    returned graph uses twice that threshold, safely inside the region; its
    condition-(5) report reads the threshold probe's Gamma2 blocks, which the
    search keeps for all interior vertices at once.
    """
    n = validate_dimension(n)
    if is_infinite(n) or n <= 2.0:
        raise InvalidParams(f"the construction needs a finite dimension n > 2, got {n!r}")
    K = finite_number(K, "K")
    m = finite_number(m, "m")

    nv = interior.num_vertices
    missing = np.argwhere(np.triu(interior.weights == 0.0, 1))
    if len(missing):
        raise InteriorNotComplete(*(interior.vertices[j] for j in missing[0]))

    if nv >= 2:
        if n - 2.0 <= 1.0:
            raise InteriorCurvatureNotPositive(
                f"cannot certify interior curvature at dimension n - 2 = {n - 2:g}; "
                "the curvature solver needs a dimension above 1")
        low = curvature_profile(interior, (n - 2.0,)).global_min[n - 2.0][0]
        if low <= 0.0:
            raise InteriorCurvatureNotPositive(
                f"interior curvature at dimension n - 2 = {n - 2:g} is "
                f"{low:g}, need a positive value")

    def build(scale):
        return join_equality_boundary(interior.rescaled_weights(scale), n, K, m)

    if lam is not None:
        lam = finite_number(lam, "lam")
        bg = build(lam)
        return ConstructionResult(bg, lam, None, check_interior_inequality(bg, K, n))

    # scales change only the interior weights, and (1)-(4) do not read them: each
    # probe rescales the interior of one join
    base = build(1.0)
    ig, boundary_measure = induced_interior_graph(base), _necessary_measure(base, K, n)

    def probe(scale):
        """Whether condition (5) holds at this weight scale, and the interior blocks it read."""
        scaled = ig.rescaled_weights(scale)
        blocks = [_interior_blocks(scaled, centres) for centres in _form_chunks(nv)]
        return _interior_inequality(scaled, K, n, boundary_measure, blocks).passed, blocks

    lo, hi = None, 1.0
    passed, blocks = probe(hi)
    while not passed:
        lo, hi = hi, hi * 2.0
        if hi > LAMBDA_MAX:
            raise FeasibilitySearchFailed(LAMBDA_MAX)
        passed, blocks = probe(hi)
    while lo is not None and hi / lo > 1.0 + SEARCH_TOL:
        mid = math.sqrt(lo * hi)
        passed, mid_blocks = probe(mid)
        if passed:
            hi, blocks = mid, mid_blocks
        else:
            lo = mid
    # the returned graph doubles the threshold's weights, which scales its Gamma2,
    # Gamma and Delta blocks by exactly 4, 2 and 2 (powers of two round alike,
    # short of overflow and subnormals): its report reads the probe's blocks scaled
    for _, q1, d, gamma_diag, ell in (group for chunk in blocks for group in chunk):
        q1 *= 4.0
        d *= 4.0
        gamma_diag *= 2.0
        ell *= 2.0
    chosen = 2.0 * hi
    return ConstructionResult(build(chosen), chosen, hi, _interior_inequality(ig, K, n, boundary_measure, blocks))
