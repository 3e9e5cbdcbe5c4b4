"""Harmonic extension, Dirichlet-to-Neumann map, Laplacian and Steklov spectra.

Both spectra are posed as generalized symmetric-definite eigenproblems and
solved densely (graphs here are desk-scale):

    Laplacian: L u = mu M u        with L = D - W, M = diag(m)
    Steklov:   S f = sigma M_B f   with S = L_BB - L_BO L_OO^{-1} L_OB

S is the boundary Schur complement of L; the Dirichlet-to-Neumann map is
Lambda = M_B^{-1} S, which agrees with composing harmonic extension and the
normal derivative du/dn = -(Delta u)|_B. M is diagonal, so A u = lambda M u
is the standard problem for M^{-1/2} A M^{-1/2} with u = M^{-1/2} y. With the
Cholesky factor L_OO = C C^T and Y = C^{-1} L_OB, S = L_BB - Y^T Y.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import _lapack
from .errors import DomainMismatch, InvalidParams, NumericallySingularInterior, SingularInteriorSystem
from .graphs import HARMONIC_TOL, MULTIPLICITY_TOL, ZERO_TOL, induced_interior_graph
from .operators import VertexFunction, differential, inner_product_forms, inner_product_functions, laplacian


class SpectrumKind(Enum):
    LAPLACIAN = "laplacian"
    STEKLOV = "steklov"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in ascending order with matching eigenfunctions.

    Eigenfunctions are orthonormal in the measure-weighted inner product of
    their domain (V for the Laplacian, B for Steklov) and sign-fixed so the
    first significant coordinate in vertex order is positive. `values` is
    computed at once. Row j of the read-only `vectors` holds the values on
    `domain` of the eigenfunction of values[j]; it is unscaled and sign-fixed
    from the kept eigh output on first access, and `functions` wraps its rows
    as VertexFunctions on first access.
    """

    kind: SpectrumKind
    values: np.ndarray
    domain: tuple
    _eigh_vectors: np.ndarray = field(repr=False)  # columns: eigh's vectors of M^{-1/2} A M^{-1/2}
    _inv_root: np.ndarray = field(repr=False)  # 1 / sqrt(m) on domain

    def __post_init__(self):
        self.values.setflags(write=False)

    @cached_property
    def vectors(self):
        vectors = _sign_fix((self._eigh_vectors * self._inv_root[:, None]).T)
        vectors.setflags(write=False)
        return vectors

    @cached_property
    def functions(self):
        return tuple(VertexFunction(self.domain, vec) for vec in self.vectors)

    def multiplicity_groups(self):
        """Group indices of eigenvalues within MULTIPLICITY_TOL max |value| of their group's first (scale-free)."""
        tol = MULTIPLICITY_TOL * np.abs(self.values).max(initial=0.0)
        groups = []
        for i, v in enumerate(self.values):
            if groups and abs(v - self.values[groups[-1][0]]) <= tol:
                groups[-1].append(i)
            else:
                groups.append([i])
        return tuple(tuple(grp) for grp in groups)


@dataclass(frozen=True, eq=False)
class DtNOperator:
    """The Dirichlet-to-Neumann map, materialized as the pair (S, M_B) by dtn_operator."""

    boundary_order: tuple
    schur_matrix: np.ndarray
    measures: np.ndarray

    def apply(self, f):
        vec = f.on(self.boundary_order)
        return VertexFunction(self.boundary_order, (self.schur_matrix @ vec) / self.measures)


def _sign_fix(vecs):
    """vecs, each vector along the trailing axis negated unless its first significant coordinate is positive.

    The leading coordinates are read in one gather from the flattened stack;
    an all-zero vector leads at its first coordinate and keeps its sign.
    """
    mags = np.abs(vecs)
    lead = (mags > ZERO_TOL * np.maximum.reduce(mags, -1, keepdims=True)).argmax(-1)
    first = vecs.reshape(-1)[lead.ravel() + np.arange(0, vecs.size, vecs.shape[-1])]
    return np.where((first < 0).reshape(lead.shape + (1,)), -vecs, vecs)


def _singular_interior(bg):
    """SingularInteriorSystem naming an interior component with no boundary edge, else NumericallySingularInterior."""
    g = bg.graph
    bi = set(bg.boundary_indices.tolist())
    for comp in induced_interior_graph(bg).components():
        if not any(bi.intersection(g.neighbor_indices(g.index(v))) for v in comp):
            return SingularInteriorSystem(comp)
    return NumericallySingularInterior(bg.interior)


def _interior_factor(bg):
    """L_BB, L_OB and the lower Cholesky factor C of L_OO = C C^T, factored once per boundary graph."""
    L = bg.graph.laplacian_matrix()
    bi = bg.boundary_indices
    try:
        chol = bg.interior_cholesky
    except np.linalg.LinAlgError:  # not SPD, or the weights overflowed
        raise _singular_interior(bg) from None
    return L[bi[:, None], bi], L[bg.interior_indices[:, None], bi], chol


def harmonic_extension(bg, f):
    """Solve Delta u = 0 on the interior with u = f on the boundary."""
    if set(f.domain) != set(bg.boundary):
        raise DomainMismatch(bg.boundary, f.domain)
    g = bg.graph
    _, L_ob, chol = _interior_factor(bg)
    fb = f.on(bg.boundary)
    out = np.empty(g.num_vertices)
    out[bg.boundary_indices] = fb
    out[bg.interior_indices] = -_lapack.solve(chol.T, _lapack.solve(chol, L_ob @ fb))
    u = VertexFunction(g.vertices, out)
    residual = np.abs(laplacian(g, u).on(bg.interior)).max() if bg.interior else 0.0
    scale = float((g.weight_sums / g.measures).max() * np.abs(fb).max())
    if residual > HARMONIC_TOL * scale:
        raise _singular_interior(bg)
    return u


def _schur(bg):
    """The boundary Schur complement S = L_BB - Y^T Y and the boundary measures M_B."""
    L_bb, L_ob, chol = _interior_factor(bg)
    y = _lapack.solve(chol, L_ob)
    return L_bb - y.T @ y, bg.graph.measures[bg.boundary_indices]


def dtn_operator(bg):
    """Materialize the Dirichlet-to-Neumann map as DtNOperator."""
    return DtNOperator(bg.boundary, *_schur(bg))


def _scaled(a, m_diag):
    """M^{-1/2} A M^{-1/2} for M = diag(m_diag), read by eigh from its lower triangle, and 1 / sqrt(m_diag).

    With r = sqrt(m_diag) the entries are (a_ik (1/r_k)) / r_i and a_kk / r_k^2,
    rounded as LAPACK's sygvd reduction rounds them below 64 vertices, so the
    basis chosen within a repeated eigenvalue is sygvd's too. The diagonal is
    written with one strided step through c.flat, in place.
    """
    root = np.sqrt(m_diag)
    inv_root = 1.0 / root
    c = a * inv_root / root[:, None]
    c.flat[::len(root) + 1] = a.diagonal() / (root * root)
    return c, inv_root


def _generalized_spectrum(a, m_diag, domain, kind):
    c, inv_root = _scaled(a, m_diag)
    values, vectors = _lapack.eigh(c)
    return Spectrum(kind, values, domain, vectors, inv_root)


def laplacian_spectrum(g):
    """Eigenvalues 0 = mu_1 < mu_2 <= ... of -Delta, with eigenfunctions on V."""
    return _generalized_spectrum(
        g.laplacian_matrix(), g.measures, g.vertices, SpectrumKind.LAPLACIAN
    )


def steklov_spectrum(bg):
    """Steklov eigenvalues 0 = sigma_1 < sigma_2 <= ... with eigenfunctions on B."""
    return _generalized_spectrum(*_schur(bg), bg.boundary, SpectrumKind.STEKLOV)


@dataclass(frozen=True)
class SteklovDiagnostics:
    """How the second Steklov eigenfunction's harmonic extension behaves on V."""

    sigma2: float
    extension: VertexFunction
    interior_norm: float
    rayleigh_quotient: float
    mu2: float
    mu2_residual: float


def steklov_eigenfunction_diagnostics(bg, spectrum):
    """Check the sigma_2 eigenfunction against the second Laplacian eigenvalue.

    On graphs attaining the Lichnerowicz bound the harmonic extension of the
    sigma_2 eigenfunction vanishes on the interior and is a mu_2
    eigenfunction; this reports the quantities that certify (or refute) that.
    """
    if spectrum.kind is not SpectrumKind.STEKLOV:
        raise InvalidParams("diagnostics need a Steklov spectrum")
    if spectrum.values.size < 2:
        raise InvalidParams("no second Steklov eigenvalue: boundary has fewer than 2 vertices")
    g = bg.graph
    sigma2 = float(spectrum.values[1])
    u = harmonic_extension(bg, spectrum.functions[1])
    interior_norm = inner_product_functions(g, u, u, s=bg.interior) ** 0.5
    du = differential(g, u)
    rayleigh = inner_product_forms(g, du, du) / inner_product_functions(g, u, u)
    L = g.laplacian_matrix()
    mu2 = float(_lapack.eigvalsh(_scaled(L, g.measures)[0])[1])
    residual_vec = L @ u.values - mu2 * g.measures * u.values
    return SteklovDiagnostics(
        sigma2=sigma2,
        extension=u,
        interior_norm=float(interior_norm),
        rayleigh_quotient=float(rayleigh),
        mu2=mu2,
        mu2_residual=float(np.linalg.norm(residual_vec)),
    )
