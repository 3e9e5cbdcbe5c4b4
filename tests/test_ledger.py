"""The ledger of known silent wrong answers: each case asserts the exact answer and fails today.

Every case is a strict xfail that names the ROADMAP item meant to fix it: a
change that fixes one makes its case pass, which fails the suite until the
marker is dropped, and a case that stops reproducing is noticed the same way.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from steklov import (
    build_graph,
    check_interior_inequality,
    check_rigidity,
    curvature_profile,
    join_equality_boundary,
    laplacian_spectrum,
    make_example,
    steklov_spectrum,
    verify_lichnerowicz,
)
from steklov.rigidity import RigidityClass

from oracles import cd_form_exact, is_psd_exact, unit_grid

# the boundary graph of a complete interior of 3 vertices at n = 10, K = m = 1:
# rigid at every interior weight scale lam it is built with, sigma_1 = 0 and
# sigma_2 = nK/(n-1) = 10/9, and the Laplacian's lowest eigenvalue is 0
N, K, M = 10.0, 1.0, 1.0


def silently_wrong(reason):
    """A ledger case's marker: it must fail on an assertion until the item its reason names is done."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def complete_interior(lam):
    return make_example("complete_interior", interior_size=3, n=N, K=K, m=M, lam=lam)


@silently_wrong("item 14: S = L_BB - Y^T Y cancels; sigma_1 reads -3.1e-8 and 1.111")
@pytest.mark.parametrize("lam", [1e8, 1e140])
def test_steklov_spectrum_of_a_heavy_interior_starts_at_zero(lam):
    sigma = steklov_spectrum(complete_interior(lam)).values
    assert abs(sigma[0]) <= 1e-12 * sigma[1]
    assert sigma[1] == pytest.approx(N * K / (N - 1.0), rel=1e-12)


@silently_wrong("item 24: the Laplacian eigvalsh is accurate to u max |L| alone; mu_0 reads -4.6e123")
def test_laplacian_spectrum_of_a_heavy_interior_starts_at_zero():
    mu = laplacian_spectrum(complete_interior(1e140).graph).values
    assert abs(mu[0]) <= 1e-12 * mu[1]


def wide_weight_graph(rng):
    """A 12-vertex path plus random chords to 24 edges, measures in [0.5, 2] and weights 10^U(0, 30)."""
    edges = [(i, i + 1) for i in range(11)]
    while len(edges) < 24:
        edge = tuple(sorted(rng.choice(12, 2, replace=False).tolist()))
        if edge not in edges:
            edges.append(edge)
    measures, weights = rng.uniform(0.5, 2.0, 12), 10.0 ** rng.uniform(0.0, 30.0, 24)
    return build_graph(zip(range(12), measures.tolist()), [(u, v, w) for (u, v), w in zip(edges, weights.tolist())])


@silently_wrong("item 24: mu_0 of a connected graph with weights spread to 1e30 reads -3.8e12, -9.3e12 and -2.1e13")
def test_laplacian_spectrum_of_widely_weighted_graphs_starts_at_zero():
    rng = np.random.default_rng(0)
    spectra = [laplacian_spectrum(wide_weight_graph(rng)).values for _ in range(3)]
    assert [abs(mu[0]) <= 1e-12 * mu[1] for mu in spectra] == [True] * 3


@silently_wrong("item 20: the boundary kappas at n = 10 read 1.0029296875 at lam = 1e12")
def test_the_boundary_kappas_of_a_heavy_complete_interior_are_one():
    bg = complete_interior(1e12)
    kappas = curvature_profile(bg.graph, (N,)).kappas[bg.boundary_indices, 0]
    assert kappas.tolist() == pytest.approx([1.0, 1.0], rel=1e-12)


@silently_wrong("item 20: the boundary kappa errs by about 2.5e-15 lam; NOT_RIGID at lam = 1e8")
def test_a_heavy_complete_interior_is_rigid():
    labels = [check_rigidity(complete_interior(lam), K, N).classification.label for lam in (1.0, 1e8)]
    assert labels == [RigidityClass.GENERAL_EQUALITY] * 2


@silently_wrong("item 17: lambda_min -0.00627 passes PSD_TOL times a form norm of about 1e7")
def test_condition_5_fails_on_the_heavy_grid_join():
    # at v0 the form is -0.298063 on the indicator of the vertices off v0's
    # closed 2-ball, whatever the interior weight scale
    bg = join_equality_boundary(unit_grid(8).rescaled_weights(50.0), N, K, M)
    report = check_interior_inequality(bg, K, N)
    assert min(check.lambda_min for check in report.vertex_checks) < -0.006
    assert not report.passed


@silently_wrong("items 1 and 4: kappa - K = -1e-9 passes MULTIPLICITY_TOL Deg(x) = 2e-8")
def test_cd_fails_on_the_unit_square_just_above_its_curvature():
    # the exact pinned CD(2 + 1e-9, inf) form on the unit 4-cycle is not PSD
    bg, K_above = make_example("unit_square"), 2.0 + 1e-9
    g = bg.graph
    assert not any(is_psd_exact(cd_form_exact(g, x, Fraction(K_above), math.inf)) for x in g.vertices)
    assert not verify_lichnerowicz(bg, K_above, math.inf).cd_holds
