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
weight), runs the structural ball-scan diagnostics, and constructs equality
graphs over complete interiors by searching for a large enough interior
weight scale. Condition (5) builds the forms at all interior vertices as one
stack, decided by one stacked eigh, in chunks of at most FORM_STACK_ENTRIES.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curvature import _embed_witness, _psd_verdict, _shape_groups, cd_check, curvature_profile
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
    EQUALITY_TOL,
    INF,
    SEARCH_TOL,
    CurvatureParams,
    boundary_degree,
    induced_interior_graph,
    is_infinite,
    join_equality_boundary,
    lichnerowicz_bound,
    validate_dimension,
    weighted_degree,
)
from .operators import VertexFunction, _gamma2_forms, _gamma_forms, interior_edges
from .operators import _gamma2_matrix, _gamma_matrix  # noqa: F401 -- unused; perfbench traces calls via these names
from .spectra import steklov_eigenfunction_diagnostics, steklov_spectrum

LAMBDA_MAX = 1e8
FORM_STACK_ENTRIES = 2 ** 22  # B |Omega|^2 in one stack of condition-(5) forms; more centres go in chunks


def _close(a, b, tol=CONDITION_TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


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
    n = validate_dimension(n)
    K = float(K)
    if not (math.isfinite(K) and K > 0):
        raise InvalidParams(f"rigidity analysis needs K > 0, got {K!r}")
    return K, n


def degree_targets(K, n):
    """The boundary degree nK/(n-1) and interior boundary-degree (n+2)K/(n-1)."""
    return lichnerowicz_bound(K, n), (K if is_infinite(n) else (n + 2.0) * K / (n - 1.0))


def infer_equality_params(bg):
    """Back out (K, n) from the degree pattern of a candidate equality graph.

    Uses Deg(boundary) = nK/(n-1) and Deg_b = (n+2)K/(n-1); returns None when
    the two degrees do not correspond to any K > 0, n > 1.
    """
    deg = weighted_degree(bg.graph, bg.boundary[0])
    degb = boundary_degree(bg, bg.interior[0])
    if _close(deg, degb):
        return CurvatureParams(K=deg, n=INF)
    ratio = degb / deg
    if not 1.0 < ratio < 3.0:
        return None
    n = 2.0 / (ratio - 1.0)
    return CurvatureParams(K=deg * (n - 1.0) / n, n=n)


def _unjoined(bg):
    """Interior vertices not adjacent to both boundary vertices; needs |B| = 2."""
    g = bg.graph
    b1, b2 = bg.boundary
    return [x for x in bg.interior if g.weight(b1, x) == 0.0 or g.weight(b2, x) == 0.0]


@dataclass(frozen=True)
class NecessaryConditions:
    checks: tuple  # four ConditionCheck entries
    boundary_measure: float | None

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def check_necessary_conditions(bg, K, n):
    """Conditions (1)-(4), each with an explanatory witness on failure."""
    K, n = _validate_params(K, n)
    g = bg.graph
    deg_target, degb_target = degree_targets(K, n)
    checks = []

    if len(bg.boundary) != 2:
        checks.append(ConditionCheck(1, False, f"|B| = {len(bg.boundary)}, need 2"))
    else:
        missing = _unjoined(bg)
        if missing:
            checks.append(ConditionCheck(
                1, False, f"interior vertex {missing[0]!r} not adjacent to both boundary vertices"))
        else:
            checks.append(ConditionCheck(1, True, "|B| = 2, interior fully joined"))

    if len(bg.boundary) != 2:
        skipped = "requires |B| = 2"
        checks += [ConditionCheck(i, False, skipped) for i in (2, 3, 4)]
        return NecessaryConditions(tuple(checks), None)

    b1, b2 = bg.boundary
    m1, m2 = g.measure(b1), g.measure(b2)
    if not _close(m1, m2):
        checks.append(ConditionCheck(2, False, f"m({b1!r}) = {m1:g} != m({b2!r}) = {m2:g}"))
    else:
        bad = [x for x in bg.interior if not _close(g.weight(b1, x), g.weight(b2, x))]
        if bad:
            x = bad[0]
            checks.append(ConditionCheck(
                2, False,
                f"w({b1!r},{x!r}) = {g.weight(b1, x):g} != w({b2!r},{x!r}) = {g.weight(b2, x):g}"))
        else:
            checks.append(ConditionCheck(2, True, "boundary measures and edge weights symmetric"))

    degs = (weighted_degree(g, b1), weighted_degree(g, b2))
    if all(_close(d, deg_target) for d in degs):
        checks.append(ConditionCheck(3, True, f"Deg(boundary) = {deg_target:g}"))
    else:
        checks.append(ConditionCheck(
            3, False,
            f"Deg({b1!r}) = {degs[0]:g}, Deg({b2!r}) = {degs[1]:g}, target {deg_target:g}"))

    bad = [x for x in bg.interior if not _close(boundary_degree(bg, x), degb_target)]
    if bad:
        x = bad[0]
        checks.append(ConditionCheck(
            4, False, f"Deg_b({x!r}) = {boundary_degree(bg, x):g}, target {degb_target:g}"))
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


@dataclass(frozen=True)
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
    forms, scales = _interior_forms(ig, K, n, m, range(i, i + 1))
    return InteriorFormAssembly(x, tuple(v for v in ig.vertices if v != x), forms[0], n, K, m, float(scales[0]))


def _interior_forms(ig, K, n, m, centres):
    """The condition-(5) forms, f(x) = 0, at a range of centres x as a (B, |Omega|-1, |Omega|-1) stack; PSD scales.

    Per 2-ball shape, one stacked Gamma2, one stacked Gamma on S1 and one
    gather of Delta[x, B1] are scattered by fancy-index += (a ball lists each
    vertex once) onto copies of a3 diag(mu) - a5 mu mu^T in the one-centre
    order of operations. Callers keep B |Omega|^2 within FORM_STACK_ENTRIES.
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

    q = np.repeat((a3 * np.diag(mu) - a5 * np.outer(mu, mu))[None], b, axis=0)
    scales = np.empty(b)
    every = np.arange(nv)
    for (k, _), (balls, _) in _shape_groups(ig, centres).items():
        at = balls[:, 0] - centres[0]
        ball1, pos = balls[:, :k + 1], at[:, None, None]
        g2 = _gamma2_forms(ig, balls, k + 1)
        q[pos, balls[:, :, None], balls[:, None, :]] += g2
        ell = ig.weights[balls[:, :1], ball1] / mu[balls[:, :1]]
        ell[:, 0] -= ig.weight_sums[balls[:, 0]] / mu[balls[:, 0]]
        q[pos, ball1[:, :, None], ball1[:, None, :]] += (
            a2 * _gamma_forms(ig, ball1) - a1 * (ell[:, :, None] * ell[:, None, :]))
        cross = 0.5 * a4 * (ell[:, :, None] * mu)
        q[pos, ball1[:, :, None], every] -= cross
        q[pos, every[:, None], ball1[:, None, :]] -= cross.transpose(0, 2, 1)
        scales[at] = np.maximum(np.abs(g2).max(axis=(1, 2)), a3 * mu.max())
    keep = np.ones((b, nv), dtype=bool)
    keep[np.arange(b), centres] = False
    q = q[keep[:, :, None] & keep[:, None, :]].reshape(b, nv - 1, nv - 1)
    return (q + q.transpose(0, 2, 1)) / 2.0, scales


@dataclass(frozen=True)
class InteriorFormCheck:
    vertex: object
    passed: bool
    lambda_min: float | None
    witness: VertexFunction | None


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


def _interior_inequality(ig, K, n, m):
    """Condition (5) on the interior-induced graph ig, given (1)-(4) with boundary measure m."""
    if n == 2.0:
        ok = ig.num_vertices == 1
        return InteriorInequalityReport(
            ok, "n=2", f"|Omega| = {ig.num_vertices}, need 1 when n = 2", ())
    if n < 2.0:
        return InteriorInequalityReport(
            False, "1<n<2",
            "no equality graphs exist for 1 < n < 2 (the curvature condition "
            "fails at interior vertices)", ())

    nv = ig.num_vertices
    checks = [InteriorFormCheck(ig.vertices[0], True, None, None)] if nv == 1 else []  # a 0 x 0 form
    step = max(1, FORM_STACK_ENTRIES // nv ** 2)
    for start in range(0, nv, step) if nv > 1 else ():
        centres = range(start, min(start + step, nv))
        lam, _, ok, vecs = _psd_verdict(*_interior_forms(ig, K, n, m, centres))
        for i, low, good, vec in zip(centres, lam.tolist(), ok.tolist(), vecs):
            x = ig.vertices[i]
            witness = None if good else _embed_witness(x, ig.vertices[:i] + ig.vertices[i + 1:], vec)
            checks.append(InteriorFormCheck(x, good, low, witness))
    passed = all(c.passed for c in checks)
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
    """
    g = bg.graph
    if set(u.domain) != set(g.vertices):
        raise DomainMismatch(g.vertices, u.domain)
    vals = u.on(g.vertices)
    residuals = {}
    for i in range(g.num_vertices):
        for j in [j for j in g.hop_spheres(i, 2)[2] if j > i]:
            coeff = g.weights[i] * g.weights[j] / g.measures
            residuals[(g.vertices[i], g.vertices[j])] = (
                (vals[i] + vals[j]) / 2.0 - float(coeff @ vals) / coeff.sum())
    return TwoBallResiduals(residuals, max(map(abs, residuals.values()), default=0.0))


# ---------------------------------------------------------------------------
# the full rigidity decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
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
    diagnostics: dict

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


def check_rigidity(bg, K, n):
    """Decide equality in sigma_2 >= nK/(n-1) and classify the graph.

    Runs the global curvature check, the Steklov spectrum, conditions (1)-(5),
    eigenfunction and ball-scan diagnostics, and attaches a classification
    label when equality holds.
    """
    K, n = _validate_params(K, n)
    g = bg.graph
    cd_report = cd_check(g, K, n)
    bound = lichnerowicz_bound(K, n)

    sigma2 = None
    slack = None
    diagnostics = {}
    if len(bg.boundary) >= 2:
        spectrum = steklov_spectrum(bg)
        sigma2 = float(spectrum.values[1])
        slack = sigma2 - bound
        eig = steklov_eigenfunction_diagnostics(bg, spectrum)
        two_ball = two_ball_identity_check(bg, eig.extension)
        diagnostics.update(
            sigma2_interior_norm=eig.interior_norm,
            sigma2_rayleigh_quotient=eig.rayleigh_quotient,
            mu2=eig.mu2,
            mu2_residual=eig.mu2_residual,
            two_ball_max_residual=two_ball.max_abs,
        )
    else:
        diagnostics["sigma2_missing"] = "boundary has fewer than 2 vertices"
    bound_equality = sigma2 is not None and abs(sigma2 - bound) <= EQUALITY_TOL * bound

    ig = induced_interior_graph(bg)
    scan = disjoint_ball_scan(ig)
    diagnostics.update(
        interior_connected=scan.connected,
        interior_diameter=scan.diameter,
        disjoint_ball_pair=scan.pair,
    )

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
        elif not interior_edges(bg):
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
        diagnostics=diagnostics,
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
    if len(bg.boundary) != 2 or len(bg.interior) > 2 or _unjoined(bg):
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
    returned graph uses twice that threshold, safely inside the region.
    """
    n = validate_dimension(n)
    if is_infinite(n) or n <= 2.0:
        raise InvalidParams(f"the construction needs a finite dimension n > 2, got {n!r}")
    if not (math.isfinite(K) and K > 0):
        raise InvalidParams(f"K must be finite positive, got {K!r}")
    if not (math.isfinite(m) and m > 0):
        raise InvalidParams(f"m must be finite positive, got {m!r}")

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

    def feasible(scale):
        return check_interior_inequality(build(scale), K, n).passed

    if lam is not None:
        if not (math.isfinite(lam) and lam > 0):
            raise InvalidParams(f"lam must be finite positive, got {lam!r}")
        bg = build(lam)
        return ConstructionResult(bg, float(lam), None, check_interior_inequality(bg, K, n))

    if feasible(1.0):
        threshold = 1.0
    else:
        lo, hi = 1.0, 2.0
        while not feasible(hi):
            lo, hi = hi, hi * 2.0
            if hi > LAMBDA_MAX:
                raise FeasibilitySearchFailed(LAMBDA_MAX)
        while hi / lo > 1.0 + SEARCH_TOL:
            mid = math.sqrt(lo * hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        threshold = hi
    chosen = 2.0 * threshold
    bg = build(chosen)
    return ConstructionResult(bg, chosen, threshold, check_interior_inequality(bg, K, n))
