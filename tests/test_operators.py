"""Discrete operators: Laplacian, differential, Gamma calculus, local forms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from steklov import (
    VertexFunction,
    build_graph,
    differential,
    inner_product_forms,
    inner_product_functions,
    laplacian,
    make_example,
)
from steklov.errors import DomainMismatch
from steklov.graphs import GREEN_TOL, WeightedGraph, attach_boundary
from steklov.operators import (
    _gamma2_forms,
    _gamma2_matrix,
    _gamma_matrix,
    _green_terms,
    scaled_green_residual,
)

from oracles import (
    assert_close,
    ball_form_value,
    gamma,
    gamma2,
    gamma_by_identity,
    laplacian_by_matrix,
    random_boundary_graph,
    random_connected_graph,
    random_function,
)


@pytest.fixture
def p3():
    return make_example("unit_path3").graph


def vf(g, *values):
    return VertexFunction(g.vertices, np.array(values, dtype=float))


def const(domain, c):
    return VertexFunction(tuple(domain), np.full(len(domain), float(c)))


def test_laplacian_constants_are_harmonic(p3):
    assert np.allclose(laplacian(p3, const(p3.vertices, 3.7)).values, 0.0)


def test_laplacian_p3_values(p3):
    u = vf(p3, 1, 0, 0)
    expected = laplacian_by_matrix(p3, u)  # dense-matrix oracle
    assert np.allclose(expected, [-1, 1, 0], atol=1e-15)
    assert np.allclose(laplacian(p3, u).values, expected, atol=1e-14)

    u = vf(p3, 0, 1, 0)
    expected = laplacian_by_matrix(p3, u)
    assert np.allclose(expected, [1, -2, 1], atol=1e-15)
    assert np.allclose(laplacian(p3, u).values, expected, atol=1e-14)


def test_laplacian_matches_matrix_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = random_connected_graph(rng)
        u = random_function(rng, g.vertices)
        assert np.allclose(laplacian(g, u).values, laplacian_by_matrix(g, u), atol=1e-12)


def test_laplacian_domain_strict(p3):
    with pytest.raises(DomainMismatch):
        laplacian(p3, VertexFunction(("1", "2"), [1.0, 2.0]))


def test_differential(p3):
    du = differential(p3, vf(p3, 1, 0, 0))
    assert du.domain == p3.vertices
    assert du.values[0, 1] == -1.0
    assert du.values[1, 0] == 1.0  # skew
    assert du.values[1, 2] == 0.0
    assert du.values[0, 2] == 0.0  # non-adjacent
    zero = differential(p3, const(p3.vertices, 5.0))
    assert np.all(zero.values == 0.0)


def test_inner_product_functions(p3):
    u = vf(p3, 1, 0, 0)
    assert inner_product_functions(p3, u, u) == pytest.approx(1.0)
    c4 = make_example("unit_square")
    ub = VertexFunction(c4.boundary, [1.0, -1.0])
    ones = const(c4.boundary, 1.0)
    assert inner_product_functions(c4.graph, ub, ones) == 0.0

    wp = make_example("weighted_path3", n=3, K=2 / 3, m=1)
    ind = VertexFunction(wp.graph.vertices, [0.0, 0.0, 1.0])
    value = inner_product_functions(wp.graph, ind, ind, s=wp.interior)
    assert value == pytest.approx(6 / 5, rel=1e-12)  # equals volume(interior)


def test_inner_product_forms(p3):
    u = vf(p3, 1, 0, 0)
    du = differential(p3, u)
    assert inner_product_forms(p3, du, du) == pytest.approx(1.0)
    zero = differential(p3, const(p3.vertices, 2.0))
    assert inner_product_forms(p3, zero, du) == 0.0
    only_one_edge = inner_product_forms(p3, du, du, s=[("1", "2")])
    assert only_one_edge == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=10_000))
def test_integration_by_parts(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng)
    u = random_function(rng, g.vertices)
    v = random_function(rng, g.vertices)
    lhs = inner_product_functions(g, laplacian(g, u), v)
    rhs = -inner_product_forms(g, differential(g, u), differential(g, v))
    assert_close(lhs, rhs, rel=1e-10, context="integration by parts")


def test_gamma_examples(p3):
    assert np.allclose(gamma(p3, vf(p3, 1, 0, 0), vf(p3, 1, 0, 0)).values, [0.5, 0.5, 0.0])
    assert np.allclose(gamma(p3, vf(p3, 0, 1, 0), vf(p3, 0, 1, 0)).values, [0.5, 1.0, 0.5])


@given(st.integers(min_value=0, max_value=10_000))
def test_gamma_product_rule_identity(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng)
    u = random_function(rng, g.vertices)
    v = random_function(rng, g.vertices)
    explicit = gamma(g, u, v).values
    identity = gamma_by_identity(g, u, v)
    scale = np.abs(explicit).max() + 1.0
    assert np.abs(explicit - identity).max() <= 1e-12 * scale


def test_gamma_nonnegative_and_locally_constant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_connected_graph(rng)
        u = random_function(rng, g.vertices)
        assert gamma(g, u, u).values.min() >= 0.0
    g = build_graph(
        [(str(i), 1) for i in range(1, 5)],
        [("1", "2", 1), ("2", "3", 1), ("3", "4", 1)],
    )
    # constant on the closed neighborhood of vertex 1 but not globally
    u = VertexFunction(g.vertices, [2.0, 2.0, 5.0, 7.0])
    values = gamma(g, u, u)
    assert values["1"] == 0.0
    assert values["2"] > 0.0


def test_gamma2_p3(p3):
    u = vf(p3, 1, 0, 0)
    assert gamma2(p3, u, u)["2"] == pytest.approx(0.75, rel=1e-12)
    # equality split of the CD(1/2, 2) bound at the center
    lap_term = laplacian(p3, u)["2"] ** 2 / 2.0
    gamma_term = 0.5 * gamma(p3, u, u)["2"]
    assert lap_term == pytest.approx(0.5)
    assert gamma_term == pytest.approx(0.25)
    assert gamma2(p3, u, u)["2"] == pytest.approx(lap_term + gamma_term, rel=1e-12)
    assert np.allclose(gamma2(p3, const(p3.vertices, 4.0), const(p3.vertices, 4.0)).values, 0.0)


def test_gamma_form(p3):
    ball, q = _gamma_matrix(p3, p3.index("2"))
    assert ball.tolist() == [1, 0, 2]  # the centre, then S1 in vertex order
    assert ball_form_value(ball, q, vf(p3, 1, 0, 0)) == pytest.approx(0.5, rel=1e-12)
    # pinned to f(x) = 0 the form is diagonal with entries w/(2m)
    assert np.allclose(q[1:, 1:], np.diag([0.5, 0.5]))


def test_gamma_form_matches_gamma_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = random_connected_graph(rng, n_max=7)
        x = g.vertices[rng.integers(0, g.num_vertices)]
        f = random_function(rng, g.vertices)
        assert_close(
            ball_form_value(*_gamma_matrix(g, g.index(x)), f), gamma(g, f, f)[x], rel=1e-12, context="gamma form"
        )


def test_gamma2_form_matches_gamma2_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_connected_graph(rng, n_max=7)
        x = g.vertices[rng.integers(0, g.num_vertices)]
        f = random_function(rng, g.vertices)
        assert_close(
            ball_form_value(*_gamma2_matrix(g, g.index(x)), f), gamma2(g, f, f)[x], rel=1e-10, context="gamma2 form"
        )


def test_gamma2_form_p3_and_symmetry(p3):
    ball, q = _gamma2_matrix(p3, p3.index("2"))
    assert ball_form_value(ball, q, vf(p3, 1, 0, 0)) == pytest.approx(0.75, rel=1e-12)
    assert np.array_equal(q, q.T)


def test_gamma2_form_locality():
    # a 6-path: vertex "2" has 2-ball {1,..,4}; perturbing f at 5, 6 changes nothing
    g = build_graph(
        [(str(i), 1) for i in range(1, 7)],
        [(str(i), str(i + 1), 1) for i in range(1, 6)],
    )
    rng = np.random.default_rng(4)
    ball, q = _gamma2_matrix(g, g.index("2"))
    assert {g.vertices[j] for j in ball} == {"1", "2", "3", "4"}
    base = rng.standard_normal(6)
    perturbed = base.copy()
    perturbed[4:] += rng.standard_normal(2) * 10
    f0 = VertexFunction(g.vertices, base)
    f1 = VertexFunction(g.vertices, perturbed)
    assert ball_form_value(ball, q, f0) == ball_form_value(ball, q, f1)
    assert gamma2(g, f0, f0)["2"] == pytest.approx(gamma2(g, f1, f1)["2"], rel=1e-12)


def test_laplacian_square_form(p3):
    # (Delta f)(x)^2 is r r^T for the row r = Delta[x, B1] the Gamma2 assembly returns
    ball = p3.ball_indices(1, 2)
    _, _, rows = _gamma2_forms(p3, ball[None], 3)
    ball1, form = ball[:3], np.outer(rows[0], rows[0])
    assert ball_form_value(ball1, form, const(p3.vertices, 3.0)) == pytest.approx(0.0, abs=1e-18)
    assert ball_form_value(ball1, form, vf(p3, 0, 1, 0)) == pytest.approx(4.0, rel=1e-12)
    assert np.linalg.matrix_rank(form, tol=1e-10) == 1


def test_gamma2_forms_return_their_gamma_diagonal_and_delta_rows():
    # the by-products of one stacked assembly are the diagonals of the Gamma
    # forms on B1, bitwise, which give the whole form (zero off the diagonal
    # but for the first row and column, the diagonal negated past the
    # corner), and the rows Delta[x, B1] of the Laplacian
    rng = np.random.default_rng(6)
    for _ in range(30):
        g = random_connected_graph(rng, n_max=7)
        f = random_function(rng, g.vertices)
        lap = laplacian(g, f)
        for (k, _), balls in g._shape_groups(range(g.num_vertices)).items():
            _, gam, rows = _gamma2_forms(g, balls, k + 1)
            for ball, diagonal in zip(balls, gam):
                form = np.diag(diagonal)
                form[0, 1:] = form[1:, 0] = -diagonal[1:]
                assert form.tobytes() == _gamma_matrix(g, ball[0])[1].tobytes()
            assert rows.shape == (len(balls), k + 1)
            for ball, row in zip(balls, rows):
                x = g.vertices[ball[0]]
                assert_close(float(row @ f.values[ball[:k + 1]]), lap[x], rel=1e-12, context="Delta row")


def test_green_identity_examples():
    p3 = make_example("unit_path3")
    u = VertexFunction(p3.graph.vertices, [1.0, 0.0, -1.0])
    lhs, energy, boundary_term = _green_terms(p3, u, u)
    assert abs(lhs + energy - boundary_term) <= 1e-12
    # the three ingredients, by hand
    du = differential(p3.graph, u)
    assert inner_product_forms(p3.graph, du, du) == pytest.approx(2.0)
    lu = laplacian(p3.graph, u)
    assert inner_product_functions(p3.graph, lu, u, s=p3.interior) == pytest.approx(0.0)
    normal = VertexFunction(p3.boundary, -lu.on(p3.boundary))
    restricted = VertexFunction(p3.boundary, u.on(p3.boundary))
    assert inner_product_functions(p3.graph, normal, restricted) == pytest.approx(2.0)


@given(st.integers(min_value=0, max_value=10_000))
def test_green_identity_random(seed):
    rng = np.random.default_rng(seed)
    bg = random_boundary_graph(rng)
    u = random_function(rng, bg.graph.vertices)
    v = random_function(rng, bg.graph.vertices)
    assert scaled_green_residual(bg, u, v) <= GREEN_TOL


def test_scaled_green_residual_is_scale_free():
    # every term is linear in w and free of m, so power-of-two scalings of
    # either leave the scaled residual bitwise unchanged at any magnitude
    rng = np.random.default_rng(11)
    for _ in range(10):
        bg = random_boundary_graph(rng)
        g = bg.graph
        u = random_function(rng, g.vertices)
        v = random_function(rng, g.vertices)
        base = scaled_green_residual(bg, u, v)
        for cw, cm in ((2.0 ** -40, 1.0), (2.0 ** 40, 1.0), (1.0, 2.0 ** -30), (2.0 ** 40, 2.0 ** 30)):
            twin = attach_boundary(WeightedGraph(g.vertices, cm * g.measures, cw * g.weights), bg.boundary)
            assert scaled_green_residual(twin, u, v) == base
    c = const(bg.graph.vertices, 2.0)
    assert scaled_green_residual(bg, c, c) == 0.0  # 0/0


def test_green_identity_constant():
    bg = make_example("unit_square")
    c = const(bg.graph.vertices, 2.0)
    lhs, energy, boundary_term = _green_terms(bg, c, c)
    assert abs(lhs + energy - boundary_term) == 0.0


def test_operator_scaling_laws():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_connected_graph(rng)
        lam = float(rng.uniform(0.3, 4.0))
        scaled = g.rescaled_weights(lam)
        u = random_function(rng, g.vertices)
        v = random_function(rng, g.vertices)

        lap, lap_s = laplacian(g, u).values, laplacian(scaled, u).values
        gam, gam_s = gamma(g, u, v).values, gamma(scaled, u, v).values
        g2, g2_s = gamma2(g, u, v).values, gamma2(scaled, u, v).values
        for a, b, power in ((lap, lap_s, 1), (gam, gam_s, 1), (g2, g2_s, 2)):
            scale = np.abs(a).max() + 1.0
            assert np.abs(lam**power * a - b).max() <= 1e-12 * lam**power * scale


def test_strict_domains_everywhere(p3):
    wrong = VertexFunction(("1", "2", "4"), [1.0, 2.0, 3.0])
    for op in (lambda: gamma(p3, wrong, wrong),
               lambda: gamma2(p3, wrong, wrong),
               lambda: differential(p3, wrong)):
        with pytest.raises(DomainMismatch):
            op()
    u = vf(p3, 1, 0, 0)
    with pytest.raises(DomainMismatch):
        inner_product_functions(p3, u, VertexFunction(("1", "2"), [1.0, 2.0]))
