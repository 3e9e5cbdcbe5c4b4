"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
plain `pytest -v` shows the same information through the test names.
"""

import math
import time

import networkx as nx
import numpy as np
import pytest

from steklov import (
    VertexFunction,
    attach_boundary,
    build_graph,
    check_rigidity,
    classify_unit_weight,
    construct_rigid_family,
    curvature_at,
    curvature_profile,
    disjoint_ball_scan,
    dtn_operator,
    gamma,
    gamma2,
    gamma2_form,
    harmonic_extension,
    induced_interior_graph,
    laplacian,
    laplacian_spectrum,
    make_example,
    normal_derivative,
    steklov_spectrum,
    verify_lichnerowicz,
)
from steklov.errors import InteriorCurvatureNotPositive
from steklov.graphs import INF, is_infinite
from steklov.rigidity import RigidityClass

from oracles import (
    gamma_by_identity,
    lemma_delta_boundary,
    lemma_delta_interior,
    lemma_gamma2_boundary,
    lemma_gamma2_interior,
    lemma_gamma_boundary,
    lemma_gamma_interior,
    random_a1a4_graph,
    random_boundary_graph,
    random_function,
    random_join_boundary_graph,
)

N_GRID = (2.0, 3.0, 5.0, 10.0, INF)


def _bound(K, n):
    return K if is_infinite(n) else n * K / (n - 1.0)


def _passline(idx, message):
    print(f"\nACCEPTANCE CRITERION {idx}: PASS ({message})")


def complete_unit_graph(size):
    ids = [f"x{i}" for i in range(1, size + 1)]
    return build_graph(
        [(v, 1.0) for v in ids],
        [(ids[i], ids[j], 1.0) for i in range(size) for j in range(i + 1, size)],
        relaxed=(size == 1),
    )


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

def scan_unit_graphs(max_vertices):
    """Every connected unit graph with <= max_vertices vertices and every valid
    boundary placement, with (K, n) from the curvature profile."""
    start = time.monotonic()
    graphs = [
        G for G in nx.graph_atlas_g()
        if 1 <= G.number_of_nodes() <= max_vertices and nx.is_connected(G)
    ]
    equality = []
    checked_placements = 0
    for gi, G in enumerate(graphs):
        nv = G.number_of_nodes()
        if nv == 1:
            continue  # no valid boundary placement exists
        ids = [str(i) for i in range(nv)]
        g = build_graph(
            [(v, 1.0) for v in ids],
            [(str(u), str(v), 1.0) for u, v in G.edges()],
        )
        profile = curvature_profile(g, N_GRID)
        adj = g.weights > 0.0
        for mask in range(1, 2**nv - 1):
            chosen = [i for i in range(nv) if (mask >> i) & 1]
            if any(adj[i, j] for i in chosen for j in chosen if i < j):
                continue
            checked_placements += 1
            bg = attach_boundary(g, {ids[i] for i in chosen})
            label = classify_unit_weight(bg).label
            hits = []
            if len(chosen) >= 2:
                sigma2 = float(steklov_spectrum(bg).values[1])
                for n in N_GRID:
                    K = profile.global_min[n][0]
                    if K <= 1e-9:
                        continue
                    if abs(sigma2 - _bound(K, n)) <= 1e-8 * _bound(K, n):
                        hits.append((K, n))
            # the classifier and the spectral test must agree everywhere
            assert bool(hits) == (label is not RigidityClass.NOT_RIGID), (gi, chosen)
            if hits:
                K, n = hits[0]
                report = check_rigidity(bg, K, n)
                assert report.is_rigid and report.consistent
                assert len(hits) == 1
                equality.append({
                    "graph_index": gi,
                    "boundary": tuple(chosen),
                    "label": label,
                    "K": K,
                    "n": n,
                    "bg": bg,
                    "report": report,
                })
    return {
        "graphs": len(graphs),
        "equality": equality,
        "placements": checked_placements,
        "elapsed": time.monotonic() - start,
    }


@pytest.fixture(scope="module")
def unit_scan():
    """Criterion 3 scan: every connected unit graph with <= 6 vertices."""
    scan = scan_unit_graphs(6)
    assert scan["graphs"] == 143
    return scan


WEIGHTED_PATH_PARAMS = [
    (n, K, m)
    for n in (2.5, 3.0, 10.0, INF)
    for K in (0.5, 1.0)
    for m in (1.0, 2.0)
]
WEIGHTED_SQUARE_PARAMS = [(K, m) for K in (1.0, 3.0) for m in (1.0, 2.0)]


@pytest.fixture(scope="module")
def weighted_families():
    graphs = []
    for n, K, m in WEIGHTED_PATH_PARAMS:
        graphs.append(("weighted_path3", make_example("weighted_path3", n=n, K=K, m=m), K, n))
    for K, m in WEIGHTED_SQUARE_PARAMS:
        graphs.append(("weighted_square", make_example("weighted_square", K=K, m=m), K, INF))
    return graphs


@pytest.fixture(scope="module")
def constructions():
    results = []
    for size, n in ((1, 3.0), (1, 4.0), (1, 5.0), (2, 4.0), (2, 5.0), (3, 4.0), (3, 5.0)):
        res = construct_rigid_family(complete_unit_graph(size), n, 1.0, 1.0)
        results.append((size, n, res))
    return results


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_unit_path():
    start = time.monotonic()
    bg = make_example("unit_path3")
    sigma = steklov_spectrum(bg).values
    mu = laplacian_spectrum(bg.graph).values
    assert np.abs(sigma - np.array([0.0, 1.0])).max() <= 1e-10
    assert np.abs(mu - np.array([0.0, 1.0, 3.0])).max() <= 1e-10
    report = verify_lichnerowicz(bg, 0.5, 2)
    assert report.cd_holds and report.equality
    assert report.bound == pytest.approx(1.0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passline(1, f"sigma = (0, 1), mu = (0, 1, 3), equality at bound 1; {elapsed:.3f}s")


def test_criterion_2_unit_squares():
    start = time.monotonic()
    for family in ("unit_square", "unit_square_diag"):
        bg = make_example(family)
        sigma = steklov_spectrum(bg).values
        assert np.abs(sigma - np.array([0.0, 2.0])).max() <= 1e-10
        for v in bg.graph.vertices:
            assert curvature_at(bg.graph, v, INF).kappa == pytest.approx(2.0, abs=1e-8)
        report = verify_lichnerowicz(bg, 2.0, INF)
        assert report.cd_holds and report.equality
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passline(2, f"both squares: sigma = (0, 2), curvature 2 at n = inf; {elapsed:.3f}s")


def test_criterion_3_exhaustive_unit_classification(unit_scan):
    assert unit_scan["elapsed"] < 300.0
    equality = unit_scan["equality"]
    labels = sorted(e["label"].value for e in equality)
    assert labels == ["unit_path3", "unit_square", "unit_square", "unit_square_diag"]
    for e in equality:
        if e["label"] is RigidityClass.UNIT_PATH3:
            assert e["n"] == 2.0 and e["K"] == pytest.approx(0.5, abs=1e-9)
        else:
            assert is_infinite(e["n"]) and e["K"] == pytest.approx(2.0, abs=1e-9)
    _passline(
        3,
        f"{unit_scan['placements']} placements over 143 graphs; equality exactly on "
        f"the three rigid shapes; {unit_scan['elapsed']:.1f}s",
    )


def _equality_placements(scan):
    return [(e["graph_index"], e["boundary"], e["label"], e["K"], e["n"]) for e in scan["equality"]]


@pytest.mark.slow
def test_criterion_3_extends_to_seven_vertices(unit_scan):
    # opt-in (pytest -m slow): the 853 connected 7-vertex graphs add no
    # equality placement to the four found with <= 6 vertices
    scan = scan_unit_graphs(7)
    assert scan["graphs"] == 996 and scan["placements"] == 19841
    assert len(scan["equality"]) == 4
    assert _equality_placements(scan) == _equality_placements(unit_scan)
    _passline(3, f"{scan['placements']} placements over 996 graphs with <= 7 vertices; "
                 f"the same four equality placements; {scan['elapsed']:.1f}s")


def _perturbations(bg):
    """All graphs obtained by scaling one measure or one weight by 1.01."""
    g = bg.graph
    vertex_specs = [(v, float(g.measures[i])) for i, v in enumerate(g.vertices)]
    edges = list(g.edge_list())
    for k in range(len(vertex_specs)):
        specs = list(vertex_specs)
        specs[k] = (specs[k][0], specs[k][1] * 1.01)
        yield build_graph(specs, edges)
    for k in range(len(edges)):
        tweaked = list(edges)
        u, v, w = tweaked[k]
        tweaked[k] = (u, v, w * 1.01)
        yield build_graph(vertex_specs, tweaked)


def test_criterion_4_weighted_families(weighted_families):
    start = time.monotonic()
    for family, bg, K, n in weighted_families:
        report = check_rigidity(bg, K, n)
        assert report.is_rigid, (family, K, n)
        for perturbed in _perturbations(bg):
            tweaked = attach_boundary(perturbed, set(bg.boundary))
            assert not check_rigidity(tweaked, K, n).is_rigid, (family, K, n)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    count = len(weighted_families)
    _passline(4, f"{count} family graphs rigid; every 1% perturbation breaks it; {elapsed:.1f}s")


def test_criterion_5_randomized_biconditional():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    confirmed = 0
    attempts = 0
    while confirmed < 200:
        attempts += 1
        assert attempts < 2000, "positive-curvature yield collapsed"
        if attempts % 3 == 0:
            bg = random_boundary_graph(rng, n_max=8)
            if len(bg.boundary) < 2:
                continue
        else:
            bg = random_join_boundary_graph(rng)
        n = float(rng.choice([2.5, 3.0, 5.0, 10.0, INF]))
        mu = laplacian_spectrum(bg.graph).values
        sigma = steklov_spectrum(bg).values
        for i in range(len(sigma)):
            assert sigma[i] >= mu[i] - 1e-8
        K = curvature_profile(bg.graph, [n]).global_min[n][0]
        if K <= 1e-9:
            continue
        bound = _bound(K, n)
        assert sigma[1] >= bound - 1e-8
        assert mu[1] >= bound - 1e-8
        report = check_rigidity(bg, K, n)
        assert report.cd_holds
        assert report.consistent  # equality <=> conditions (1)-(5), under CD
        confirmed += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _passline(
        5,
        f"{confirmed} positive-curvature graphs of {attempts} sampled; both bounds, "
        f"sigma_i >= mu_i, and the biconditional hold; {elapsed:.1f}s",
    )


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(99)

    def close(a, b, context):
        scale = max(abs(a), abs(b), 1.0)
        assert abs(a - b) <= 1e-10 * scale, context

    for _ in range(100):
        g = random_boundary_graph(rng, n_max=7).graph
        u = random_function(rng, g.vertices)
        v = random_function(rng, g.vertices)
        explicit = gamma(g, u, v).values
        identity = gamma_by_identity(g, u, v)
        scale = np.abs(explicit).max() + 1.0
        assert np.abs(explicit - identity).max() <= 1e-10 * scale

        x = g.vertices[int(rng.integers(0, g.num_vertices))]
        close(gamma2_form(g, x).evaluate(u), gamma2(g, u, u)[x], "gamma2 form")

    for _ in range(100):
        bg = random_boundary_graph(rng, n_max=7)
        f = random_function(rng, bg.boundary)
        dtn = dtn_operator(bg)
        via_schur = dtn.apply(f).values
        via_composition = normal_derivative(bg, harmonic_extension(bg, f)).on(bg.boundary)
        scale = np.abs(via_schur).max() + 1.0
        assert np.abs(via_schur - via_composition).max() <= 1e-10 * scale

    for _ in range(100):
        bg, K, n, m = random_a1a4_graph(rng)
        g = bg.graph
        f = random_function(rng, g.vertices)
        h = random_function(rng, g.vertices)
        x = bg.interior[int(rng.integers(0, len(bg.interior)))]
        close(gamma(g, f, h)[x], lemma_gamma_interior(bg, f, h, x), "lemma gamma interior")
        close(laplacian(g, f)[x], lemma_delta_interior(bg, f, x), "lemma delta interior")
        close(gamma(g, f, h)[g.vertices[0]], lemma_gamma_boundary(bg, f, h, 0), "lemma gamma bdry")
        close(laplacian(g, f)[g.vertices[0]], lemma_delta_boundary(bg, f, 0), "lemma delta bdry")
        pinned = f.values.copy()
        pinned[g.index(x)] = 0.0
        fx = VertexFunction(g.vertices, pinned)
        close(gamma2(g, fx, fx)[x], lemma_gamma2_interior(bg, fx, x), "lemma gamma2 interior")
        pinned = f.values.copy()
        pinned[bg.graph.index(bg.boundary[0])] = 0.0
        fb = VertexFunction(g.vertices, pinned)
        close(gamma2(g, fb, fb)[bg.boundary[0]], lemma_gamma2_boundary(bg, fb, 0), "lemma gamma2 bdry")

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passline(6, f"four oracle pairs agree to 1e-10 on 100 random functions each; {elapsed:.1f}s")


def test_criterion_7_construction_existence(constructions):
    start = time.monotonic()
    seen = set()
    for size, n, res in constructions:
        assert math.isfinite(res.lam) and res.lam > 0
        report = check_rigidity(res.graph, 1.0, n)
        assert report.is_rigid, (size, n)
        seen.add((size, n))
    # the diagonal pairings of interior size and dimension all succeed
    assert {(1, 3.0), (2, 4.0), (3, 5.0)} <= seen
    # at n = 3 an interior with edges sits at dimension n - 2 = 1, where a
    # positive curvature certificate is impossible
    for size in (2, 3):
        with pytest.raises(InteriorCurvatureNotPositive):
            construct_rigid_family(complete_unit_graph(size), 3.0, 1.0, 1.0)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passline(
        7,
        f"{len(constructions)} constructions over K1, K2, K3 return finite scales "
        f"and verify rigid; {elapsed:.1f}s",
    )


def test_criterion_8_structure_theorem(unit_scan, weighted_families, constructions):
    start = time.monotonic()
    inventory = []
    for e in unit_scan["equality"]:
        inventory.append((e["bg"], e["K"], e["n"], e["label"]))
    for family, bg, K, n in weighted_families:
        label = (RigidityClass.WEIGHTED_SQUARE if family == "weighted_square"
                 else RigidityClass.WEIGHTED_PATH3)
        inventory.append((bg, K, n, label))
    for size, n, res in constructions:
        inventory.append((res.graph, 1.0, n, RigidityClass.GENERAL_EQUALITY))

    square_labels = {RigidityClass.UNIT_SQUARE, RigidityClass.WEIGHTED_SQUARE}
    finite_checked = infinite_checked = 0
    for bg, K, n, label in inventory:
        scan = disjoint_ball_scan(induced_interior_graph(bg))
        if not is_infinite(n) and n > 2.0:
            assert scan.pair is None, label
            assert scan.connected and scan.diameter <= 4.0
            finite_checked += 1
        elif is_infinite(n):
            if scan.pair is not None:
                assert label in square_labels, label
            infinite_checked += 1
    assert finite_checked >= 10 and infinite_checked >= 7
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passline(
        8,
        f"{finite_checked} finite-dimension equality graphs ball-free with diameter <= 4; "
        f"square family is the only infinite-dimension scan hit; {elapsed:.1f}s",
    )
