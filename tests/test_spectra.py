"""Harmonic extension, DtN map, Laplacian and Steklov spectra."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from steklov import (
    BoundaryGraph,
    VertexFunction,
    attach_boundary,
    assemble_interior_form,
    build_graph,
    check_rigidity,
    differential,
    dtn_operator,
    harmonic_extension,
    inner_product_forms,
    inner_product_functions,
    laplacian_spectrum,
    make_example,
    normal_derivative,
    steklov_eigenfunction_diagnostics,
    steklov_spectrum,
)
from steklov.errors import DomainMismatch, InvalidParams, NumericallySingularInterior, SingularInteriorSystem
from steklov.graphs import ZERO_TOL, WeightedGraph
import steklov.spectra
from steklov.spectra import SpectrumKind, _generalized_spectrum, _sign_fix

from oracles import dtn_by_composition, random_boundary_graph, random_function


def boundary_function(bg, *values):
    return VertexFunction(bg.boundary, np.array(values, dtype=float))


def test_harmonic_extension_constant():
    c4 = make_example("unit_square")
    u = harmonic_extension(c4, VertexFunction(c4.boundary, np.full(2, 3.5)))
    assert np.allclose(u.values, 3.5)


def test_harmonic_extension_c4():
    c4 = make_example("unit_square")
    u = harmonic_extension(c4, boundary_function(c4, 1.0, 0.0))
    # each interior vertex averages its two boundary neighbors
    assert u["2"] == pytest.approx(0.5, rel=1e-12)
    assert u["4"] == pytest.approx(0.5, rel=1e-12)
    assert u["1"] == 1.0 and u["3"] == 0.0


def test_harmonic_extension_square_diag():
    bg = make_example("unit_square_diag")
    u = harmonic_extension(bg, boundary_function(bg, 1.0, 0.0))
    # dense solve of the 2x2 system u2 = (1 + 0 + u4)/3, u4 = (1 + 0 + u2)/3
    expected = np.linalg.solve(np.array([[3.0, -1.0], [-1.0, 3.0]]), np.array([1.0, 1.0]))
    assert u["2"] == pytest.approx(expected[0], rel=1e-12)
    assert u["4"] == pytest.approx(expected[1], rel=1e-12)
    assert expected[0] == pytest.approx(0.5)


def test_harmonic_extension_domain_and_maximum_principle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        bg = random_boundary_graph(rng)
        f = random_function(rng, bg.boundary)
        u = harmonic_extension(bg, f)
        lo, hi = f.values.min(), f.values.max()
        assert u.values.min() >= lo - 1e-10
        assert u.values.max() <= hi + 1e-10
    with pytest.raises(DomainMismatch):
        harmonic_extension(bg, VertexFunction(("zz",), [1.0]))


def test_singular_interior_system():
    # bypass attach_boundary validation: interior component {"c"} never touches
    # the declared boundary, so the interior block is singular
    g = WeightedGraph(("a", "b", "c"), np.ones(3), np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]))
    bad = BoundaryGraph(g, ("a",), ("b", "c"))
    with pytest.raises(SingularInteriorSystem) as e:
        harmonic_extension(bad, VertexFunction(("a",), [1.0]))
    assert "c" in e.value.component
    with pytest.raises(SingularInteriorSystem):
        dtn_operator(bad)


def test_a_singular_interior_is_named_by_its_cause():
    # a component without a boundary edge is named as such; an interior whose
    # every component reaches the boundary but whose L_OO is not positive
    # definite in floating point (boundary weights of about 1 lost beside
    # interior weights of 1e100) gets its own message
    g = WeightedGraph(("a", "b", "c"), np.ones(3), np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(SingularInteriorSystem) as e:
        steklov_spectrum(BoundaryGraph(g, ("a",), ("b", "c")))
    assert type(e.value) is SingularInteriorSystem and e.value.component == ("c",)
    assert "has no boundary edge" in str(e.value)

    bg = make_example("complete_interior", interior_size=3, n=10, K=1, m=1, lam=1e100)
    for solve in (steklov_spectrum, dtn_operator):
        with pytest.raises(NumericallySingularInterior) as e:
            solve(bg)
        assert isinstance(e.value, SingularInteriorSystem) and e.value.component == bg.interior
        assert "no boundary edge" not in str(e.value) and "numerically singular" in str(e.value)


def test_one_interior_factorization_per_boundary_graph(monkeypatch):
    # check_rigidity's Steklov spectrum and its sigma_2 harmonic extension
    # share one Cholesky factor of L_OO; a failed factorization is not kept,
    # so a singular interior is factored, and raises, on every call
    calls = []
    cholesky = np.linalg.cholesky

    def spy(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    bg = make_example("complete_interior", interior_size=5, n=10, K=1, m=1)
    check_rigidity(bg, 1.0, 10.0)
    assert calls == [(5, 5)]
    assert not bg.interior_cholesky.flags.writeable

    g = WeightedGraph(("a", "b", "c"), np.ones(3), np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    bad = BoundaryGraph(g, ("a",), ("b", "c"))
    calls.clear()
    for _ in range(2):
        with pytest.raises(SingularInteriorSystem):
            dtn_operator(bad)
    assert calls == [(2, 2), (2, 2)]


def test_array_holding_results_compare_by_identity():
    # the generated __eq__ compared ndarray fields inside a tuple and raised
    bg = make_example("unit_square")
    spectrum = steklov_spectrum(bg)
    assert spectrum == spectrum
    assert (steklov_spectrum(bg) == steklov_spectrum(bg)) is False
    assert (dtn_operator(bg) == dtn_operator(bg)) is False
    rigid = make_example("complete_interior", interior_size=3, n=4, K=1, m=1)
    form = assemble_interior_form(rigid, 1.0, 4.0, "x1")
    assert form == form
    assert (form == assemble_interior_form(rigid, 1.0, 4.0, "x1")) is False


def test_normal_derivative():
    p3 = make_example("unit_path3")
    u = VertexFunction(p3.graph.vertices, [1.0, 0.0, -1.0])
    nd = normal_derivative(p3, u)
    assert nd["1"] == pytest.approx(1.0)
    assert nd["3"] == pytest.approx(-1.0)
    zero = normal_derivative(p3, VertexFunction(p3.graph.vertices, np.full(3, 9.0)))
    assert np.allclose(zero.values, 0.0)


def test_dtn_operator_p3():
    p3 = make_example("unit_path3")
    dtn = dtn_operator(p3)
    assert np.allclose(dtn.schur_matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
    assert np.allclose(dtn.schur_matrix @ np.ones(2), 0.0, atol=1e-12)


def test_dtn_operator_c4():
    c4 = make_example("unit_square")
    dtn = dtn_operator(c4)
    out = dtn.apply(boundary_function(c4, 1.0, -1.0))
    assert np.allclose(out.values, [2.0, -2.0], atol=1e-12)


def test_dtn_matches_composition():
    rng = np.random.default_rng(1)
    for _ in range(25):
        bg = random_boundary_graph(rng)
        dtn = dtn_operator(bg)
        composed = dtn_by_composition(bg)  # matrix of M_B^{-1} S, column by column
        direct = dtn.schur_matrix / dtn.measures[:, None]
        scale = np.abs(direct).max() + 1.0
        assert np.abs(direct - composed).max() <= 1e-10 * scale
        # S is PSD with the constants in its kernel
        evals = np.linalg.eigvalsh(dtn.schur_matrix)
        assert evals.min() >= -1e-10 * (1.0 + evals.max())
        assert np.abs(dtn.schur_matrix @ np.ones(len(bg.boundary))).max() <= 1e-10 * scale


def test_dtn_weighted_path3():
    bg = make_example("weighted_path3", n=3, K=2 / 3, m=1)
    dtn = dtn_operator(bg)
    out = dtn.apply(boundary_function(bg, 1.0, -1.0))
    assert np.allclose(out.values, [1.0, -1.0], atol=1e-12)
    spec = steklov_spectrum(bg)
    assert spec.values[1] == pytest.approx(1.0, abs=1e-12)  # = nK/(n-1)


def test_steklov_spectrum_examples():
    assert np.allclose(steklov_spectrum(make_example("unit_path3")).values, [0, 1], atol=1e-10)
    assert np.allclose(steklov_spectrum(make_example("unit_square")).values, [0, 2], atol=1e-10)
    assert np.allclose(
        steklov_spectrum(make_example("unit_square_diag")).values, [0, 2], atol=1e-10
    )


def test_laplacian_spectrum_examples():
    p3 = make_example("unit_path3").graph
    assert np.allclose(laplacian_spectrum(p3).values, [0, 1, 3], atol=1e-10)
    c4 = make_example("unit_square").graph
    spec = laplacian_spectrum(c4)
    assert np.allclose(spec.values, [0, 2, 2, 4], atol=1e-10)
    assert spec.multiplicity_groups() == ((0,), (1, 2), (3,))
    single = build_graph([("a", 2.0)], [])
    assert np.allclose(laplacian_spectrum(single).values, [0.0], atol=1e-15)


def test_multiplicity_groups_are_scale_free():
    # a tie tolerance with an absolute floor put all of C4's Laplacian
    # eigenvalues (0, 2e-9, 2e-9, 4e-9) in one group at weight scale 1e-9
    c4 = make_example("unit_square").graph
    for scale in (1.0, 1e-9, 1e-12, 1e9):
        spec = laplacian_spectrum(c4.rescaled_weights(scale))
        assert spec.multiplicity_groups() == ((0,), (1, 2), (3,))
    sigma = steklov_spectrum(attach_boundary(c4.rescaled_weights(1e-9), {"1", "3"}))
    assert sigma.multiplicity_groups() == ((0,), (1,))
    single = laplacian_spectrum(build_graph([("a", 2.0), ("b", 1.0)], [], relaxed=True))
    assert single.multiplicity_groups() == ((0, 1),)  # all zero: exact ties


@given(st.integers(0, 2**32 - 1), st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))
def test_spectra_weight_and_measure_scaling_metamorphic(seed, log_c, log_d):
    # w -> c w and m -> d m scale Delta, hence every mu_k and sigma_k, by c/d;
    # a zero eigenvalue is judged on the operator's scale max(deg/m)
    rng = np.random.default_rng(seed)
    bg = random_boundary_graph(rng)
    c, d = 10.0 ** log_c, 10.0 ** log_d
    g = bg.graph
    scaled = attach_boundary(WeightedGraph(g.vertices, d * g.measures, c * g.weights), set(bg.boundary))
    unit = float((g.weight_sums / g.measures).max()) * c / d
    for base, got in ((laplacian_spectrum(g), laplacian_spectrum(scaled.graph)),
                      (steklov_spectrum(bg), steklov_spectrum(scaled))):
        np.testing.assert_allclose(got.values, base.values * (c / d), rtol=1e-10, atol=1e-10 * unit)
        assert got.multiplicity_groups() == base.multiplicity_groups()


def test_spectrum_invariants():
    rng = np.random.default_rng(2)
    for _ in range(20):
        bg = random_boundary_graph(rng)
        g = bg.graph
        lap = laplacian_spectrum(g)
        stek = steklov_spectrum(bg)
        for spec, graph_domain, weight_domain in (
            (lap, g.vertices, g.vertices),
            (stek, bg.boundary, bg.boundary),
        ):
            scale = max(1.0, float(np.abs(spec.values).max()))
            assert abs(spec.values[0]) <= 1e-10 * scale
            assert np.all(np.diff(spec.values) >= -1e-12 * scale)
            if len(spec.values) > 1:
                assert spec.values[1] > 0
            # orthonormality in the measure-weighted inner product
            for i, fi in enumerate(spec.functions):
                for j, fj in enumerate(spec.functions):
                    ip = inner_product_functions(g, fi, fj)
                    assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)
            # deterministic sign convention
            for f in spec.functions:
                mags = np.abs(f.values)
                lead = np.flatnonzero(mags > 1e-12 * mags.max())[0]
                assert f.values[lead] > 0
        assert lap.kind is SpectrumKind.LAPLACIAN
        assert stek.kind is SpectrumKind.STEKLOV


def test_dtn_self_adjoint_and_energy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        bg = random_boundary_graph(rng)
        g = bg.graph
        f = random_function(rng, bg.boundary)
        h = random_function(rng, bg.boundary)
        dtn = dtn_operator(bg)
        lf, lh = dtn.apply(f), dtn.apply(h)
        uf = harmonic_extension(bg, f)
        uh = harmonic_extension(bg, h)
        lhs = inner_product_functions(g, lf, h)
        energy = inner_product_forms(g, differential(g, uf), differential(g, uh))
        rhs = inner_product_functions(g, f, lh)
        scale = abs(energy) + 1.0
        assert abs(lhs - energy) <= 1e-10 * scale
        assert abs(rhs - energy) <= 1e-10 * scale
        self_energy = inner_product_functions(g, dtn.apply(f), f)
        assert self_energy >= -1e-10


def test_steklov_dominates_laplacian():
    rng = np.random.default_rng(4)
    for _ in range(40):
        bg = random_boundary_graph(rng)
        mu = laplacian_spectrum(bg.graph).values
        sigma = steklov_spectrum(bg).values
        for i in range(len(sigma)):
            assert sigma[i] >= mu[i] - 1e-8


def test_spectrum_scaling():
    rng = np.random.default_rng(5)
    for _ in range(10):
        bg = random_boundary_graph(rng)
        lam = float(rng.uniform(0.3, 4.0))
        scaled = attach_boundary(bg.graph.rescaled_weights(lam), set(bg.boundary))
        mu = laplacian_spectrum(bg.graph).values
        mu_s = laplacian_spectrum(scaled.graph).values
        sigma = steklov_spectrum(bg).values
        sigma_s = steklov_spectrum(scaled).values
        assert np.allclose(mu_s, lam * mu, rtol=1e-9, atol=1e-10)
        assert np.allclose(sigma_s, lam * sigma, rtol=1e-9, atol=1e-10)


def test_steklov_diagnostics_equality_graphs():
    p3 = make_example("unit_path3")
    diag = steklov_eigenfunction_diagnostics(p3, steklov_spectrum(p3))
    assert diag.sigma2 == pytest.approx(1.0, abs=1e-10)
    assert diag.interior_norm <= 1e-10
    assert diag.mu2 == pytest.approx(1.0, abs=1e-10)
    assert diag.mu2_residual <= 1e-10
    # the extension is proportional to (1, 0, -1)
    vals = diag.extension.values
    assert vals[0] == pytest.approx(-vals[2], rel=1e-9)
    assert abs(vals[1]) <= 1e-12

    c4 = make_example("unit_square")
    diag = steklov_eigenfunction_diagnostics(c4, steklov_spectrum(c4))
    assert diag.interior_norm <= 1e-10


def test_steklov_diagnostics_non_equality():
    g = build_graph(
        [(str(i), 1) for i in range(1, 6)],
        [(str(i), str(i + 1), 1) for i in range(1, 5)],
    )
    p5 = attach_boundary(g, {"1", "5"})
    diag = steklov_eigenfunction_diagnostics(p5, steklov_spectrum(p5))
    assert diag.interior_norm > 1e-3
    assert diag.rayleigh_quotient > 0

    with pytest.raises(InvalidParams):
        single_b = attach_boundary(g, {"1"})
        steklov_eigenfunction_diagnostics(single_b, steklov_spectrum(single_b))


def test_eigenfunctions_build_their_index_on_first_lookup():
    bg = make_example("weighted_square", K=1.0, m=1.0)
    f = laplacian_spectrum(bg.graph).functions[1]
    assert all("_index" not in h.__dict__ for h in steklov_spectrum(bg).functions)
    assert "_index" not in f.__dict__
    v = bg.graph.vertices[2]
    assert f[v] == f.values[2]
    assert "_index" in f.__dict__
    assert np.array_equal(f.on(bg.boundary), f.values[bg.boundary_indices])
    with pytest.raises(DomainMismatch):
        f["no-such-vertex"]
    with pytest.raises(DomainMismatch):
        f.on(("no-such-vertex",))


def _old_sign_fix(vecs):
    """The take_along_axis sign rule the flat gather replaced, kept as an oracle."""
    mags = np.abs(vecs)
    lead = np.argmax(mags > ZERO_TOL * mags.max(axis=-1, keepdims=True), axis=-1)
    return np.where(np.take_along_axis(vecs, lead[..., None], axis=-1) < 0, -vecs, vecs)


def test_sign_fix_matches_the_take_along_axis_rule():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((4, 3, 6))
    stack[0, 0] = 0.0  # an all-zero vector keeps its sign
    stack[1, 2, :2] = (1e-14, -1e-15)  # leads below ZERO_TOL of the row's largest entry are skipped
    stack[2, 1, 0] = -0.0
    for vecs in (stack, stack[:, 1], stack[2].T, stack[0, 0]):
        assert _sign_fix(vecs).tobytes() == _old_sign_fix(vecs).tobytes()
    assert np.array_equal(_sign_fix(stack)[0, 0], np.zeros(6))


def test_eigenfunctions_are_read_only_rows_of_one_stack_built_once():
    rng = np.random.default_rng(4)
    for _ in range(5):
        bg = random_boundary_graph(rng)
        for spec in (laplacian_spectrum(bg.graph), steklov_spectrum(bg)):
            assert spec.vectors.shape == (len(spec.values), len(spec.domain))
            with pytest.raises(ValueError):
                spec.vectors[0, 0] = 1.0
            assert "functions" not in spec.__dict__
            functions = spec.functions
            assert spec.functions is functions
            for row, f in zip(spec.vectors, functions):
                assert f.domain == spec.domain
                assert f.values.tobytes() == row.tobytes()
                assert np.shares_memory(f.values, spec.vectors)
                with pytest.raises(ValueError):
                    f.values[0] = 1.0


def test_graph_facts_are_computed_once_and_read_only():
    bg = make_example("weighted_path3", n=3.0, K=1.0, m=2.0)
    g = bg.graph
    for name in ("boundary_indices", "interior_indices"):
        first = getattr(bg, name)
        assert getattr(bg, name) is first
        with pytest.raises(ValueError):
            first[0] = 0
    assert bg.boundary_indices.tolist() == [g.index(v) for v in bg.boundary]
    assert bg.interior_indices.tolist() == [g.index(v) for v in bg.interior]
    lap = g.laplacian_matrix()
    assert g.laplacian_matrix() is lap
    assert np.array_equal(lap, np.diag(g.weights.sum(axis=1)) - g.weights)
    with pytest.raises(ValueError):
        lap[0, 0] = 0.0
    assert g.unit_weight is False and make_example("unit_square").graph.unit_weight is True


def test_eigenvectors_are_finished_on_first_read(monkeypatch):
    # sigma_2 alone needs no eigenvectors: they are unscaled and sign-fixed
    # from the kept eigh output on the first read of vectors, once
    fixes = []
    sign_fix = steklov.spectra._sign_fix

    def spy(vecs):
        fixes.append(vecs.shape)
        return sign_fix(vecs)

    monkeypatch.setattr(steklov.spectra, "_sign_fix", spy)
    rng = np.random.default_rng(9)
    for _ in range(5):
        bg = random_boundary_graph(rng)
        for spec in (laplacian_spectrum(bg.graph), steklov_spectrum(bg)):
            fixes.clear()
            assert spec.values[0] <= spec.values[-1] and spec.multiplicity_groups()
            with pytest.raises(ValueError):
                spec.values[0] = 1.0
            assert fixes == [] and "vectors" not in spec.__dict__
            vectors = spec.vectors
            assert fixes == [(len(spec.values), len(spec.domain))]
            assert spec.vectors is vectors and spec.functions[0].values.base is vectors
            assert fixes == [(len(spec.values), len(spec.domain))]
            with pytest.raises(ValueError):
                vectors[0, 0] = 1.0


def test_steklov_spectrum_reads_the_schur_complement_without_a_dtn_operator(monkeypatch):
    rng = np.random.default_rng(10)
    pairs = []
    for _ in range(5):
        bg = random_boundary_graph(rng)
        dtn = dtn_operator(bg)
        pairs.append((bg, _generalized_spectrum(dtn.schur_matrix, dtn.measures, bg.boundary, SpectrumKind.STEKLOV)))
    monkeypatch.setattr(steklov.spectra, "DtNOperator", None)
    for bg, want in pairs:
        got = steklov_spectrum(bg)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()
