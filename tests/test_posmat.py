import numpy as np
import pytest

from conewalk.posmat import (AllowableMatrix, SpectralRadiusError, act,
                             classify_G_C_gamma, classify_G_delta, cocycle,
                             g_delta_level, gauges, perron_vector,
                             spectral_radius)
from conewalk.simplex import barycenter, contraction_coefficient, hilbert_distance

from conftest import random_allowable, sample_simplex_batch


class TestAllowableMatrix:
    def test_validation_names_offender(self):
        with pytest.raises(ValueError, match="column 1"):
            AllowableMatrix([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="row 0"):
            AllowableMatrix([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match=r"negative entry at \(0, 1\)"):
            AllowableMatrix([[1.0, -1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="square"):
            AllowableMatrix([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="exceeds"):
            AllowableMatrix(np.ones((65, 65)))
        with pytest.raises(ValueError, match="at least 2"):
            AllowableMatrix([[1.0]])

    def test_column_sums_cached(self):
        g = AllowableMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(g.column_sums, [3.0, 3.0])

    def test_transpose_and_matmul(self):
        g = AllowableMatrix([[2.0, 1.0], [0.5, 2.0]])
        assert np.array_equal(g.transpose().entries, g.entries.T)
        assert np.array_equal((g @ g).entries, g.entries @ g.entries)

    def test_equality_and_hash_follow_entries(self):
        g = AllowableMatrix([[2.0, 0.0], [0.5, 2.0]])
        same = AllowableMatrix([[2.0, -0.0], [0.5, 2.0]])
        assert g == same and hash(g) == hash(same)
        assert g != g.transpose()
        assert g != AllowableMatrix(np.eye(3))
        assert len({g, same, g.transpose()}) == 2


class TestGauges:
    def test_equal_column_sums(self):
        mg = gauges([[1.0, 1.0], [1.0, 1.0]])
        assert (mg.op_norm, mg.v, mg.L) == (2.0, 2.0, 1.0)
        assert mg.N == 2.0

    def test_column_sums_three_three(self):
        mg = gauges([[2.0, 1.0], [1.0, 2.0]])
        assert (mg.op_norm, mg.v, mg.L) == (3.0, 3.0, 1.0)

    def test_diagonal_example(self):
        mg = gauges([[1.0, 0.0], [0.0, 0.25]])
        assert (mg.op_norm, mg.v, mg.N, mg.L) == (1.0, 0.25, 4.0, 4.0)

    def test_gauge_inequalities(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            mg = gauges(random_allowable(rng, int(rng.integers(2, 7)),
                                         strictly_positive=False))
            assert mg.op_norm >= mg.v > 0
            assert mg.L >= 1.0
            assert mg.N ** 2 >= mg.L

    def test_norm_is_vertex_attained_sup(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            g = random_allowable(rng, d, strictly_positive=False)
            xs = sample_simplex_batch(rng, 500, d, boundary_frac=0.2)
            norms = (xs @ g.entries.T).sum(axis=1)
            mg = gauges(g)
            assert np.all(norms <= mg.op_norm + 1e-12)
            assert np.all(norms >= mg.v - 1e-12)
            vertex_norms = g.entries.sum(axis=0)
            assert vertex_norms.max() == mg.op_norm
            assert vertex_norms.min() == mg.v


class TestActionAndCocycle:
    def test_identity_action(self):
        x = barycenter(3)
        assert np.allclose(act(np.eye(3), x).coords, x.coords)

    def test_flat_matrix_action(self):
        assert np.allclose(act([[1.0, 1.0], [1.0, 1.0]], (1.0, 0.0)).coords, [0.5, 0.5])

    def test_column_action(self):
        assert np.allclose(act([[2.0, 1.0], [1.0, 2.0]], (1.0, 0.0)).coords,
                           [2.0 / 3.0, 1.0 / 3.0])

    def test_strictly_positive_image_is_interior(self):
        rng = np.random.default_rng(7)
        g = random_allowable(rng, 4)
        assert act(g, (1.0, 0.0, 0.0, 0.0)).interior

    def test_cocycle_identity_zero(self):
        assert cocycle(np.eye(2), barycenter(2)) == 0.0

    def test_cocycle_flat(self):
        assert cocycle([[1.0, 1.0], [1.0, 1.0]], barycenter(2)) == pytest.approx(
            np.log(2.0), abs=1e-15)

    def test_cocycle_additive_along_products(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(2, 6))
            g = random_allowable(rng, d, strictly_positive=False)
            h = random_allowable(rng, d, strictly_positive=False)
            x = sample_simplex_batch(rng, 1, d)[0]
            lhs = cocycle(h @ g, x)
            rhs = cocycle(h, act(g, x)) + cocycle(g, x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_cocycle_bounded_by_log_N(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            g = random_allowable(rng, d, strictly_positive=False)
            x = sample_simplex_batch(rng, 1, d, boundary_frac=0.5)[0]
            assert abs(cocycle(g, x)) <= np.log(gauges(g).N) + 1e-12


class TestLipschitzBounds:
    def test_increment_spread_inequalities(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            d = int(rng.integers(2, 6))
            g = random_allowable(rng, d, strictly_positive=False)
            x, y = sample_simplex_batch(rng, 2, d, boundary_frac=0.3)
            gap = abs(cocycle(g, x) - cocycle(g, y))
            log_l = np.log(gauges(g).L)
            dxy = hilbert_distance(x, y)
            assert gap <= log_l + 1e-12
            assert gap <= 2.0 * (2.0 + log_l) * dxy + 1e-12
            if dxy < 1.0:
                assert gap <= 2.0 * np.log(1.0 / (1.0 - dxy)) + 1e-12

    def test_norm_versus_barycenter_image(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            g = random_allowable(rng, d, strictly_positive=False)
            e = barycenter(d).coords
            ge = float((g.entries @ e).sum())
            mg = gauges(g)
            assert ge <= mg.op_norm + 1e-12
            assert mg.op_norm <= d * ge + 1e-12
            gt = gauges(g.transpose())
            assert mg.op_norm <= d * gt.op_norm + 1e-12


class TestSpectralRadius:
    def test_symmetric_example(self):
        assert spectral_radius([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0, abs=1e-10)

    def test_identity(self):
        assert spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_radius([[1.0, 0.0], [0.0, 0.25]]) == pytest.approx(1.0, abs=1e-10)

    def test_bracketed_by_gauges(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            g = random_allowable(rng, int(rng.integers(2, 6)), strictly_positive=False)
            mg = gauges(g)
            kap = spectral_radius(g)
            assert mg.v - 1e-9 <= kap <= mg.op_norm + 1e-9

    def test_periodic_matrix_raises_with_certificate(self):
        g = [[0.0, 2.0], [1.0, 0.0]]
        with pytest.raises(SpectralRadiusError) as err:
            spectral_radius(g, max_iter=500, fallback=False)
        assert err.value.period == 2

    def test_periodic_matrix_dense_fallback(self):
        assert spectral_radius([[0.0, 2.0], [1.0, 0.0]], max_iter=500) == pytest.approx(
            np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_tol(self, tol):
        # a negative tol used to run the whole cap and then take the dense fallback
        with pytest.raises(ValueError, match="tol must be > 0"):
            spectral_radius([[2.0, 1.0], [1.0, 2.0]], tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            spectral_radius([[2.0, 1.0], [1.0, 2.0]], max_iter=max_iter)


class TestPerronVector:
    def test_symmetric_examples(self):
        assert np.allclose(perron_vector([[2.0, 1.0], [1.0, 2.0]]).coords, [0.5, 0.5])
        assert np.allclose(perron_vector([[1.0, 1.0], [1.0, 1.0]]).coords, [0.5, 0.5])

    def test_characteristic_polynomial_oracle(self):
        # [[3,1],[1,1]]: top root of x^2 - 4x + 2, eigenvector (1, kappa - 3)
        kappa = 2.0 + np.sqrt(2.0)
        vec = np.array([1.0, kappa - 3.0])
        vec /= vec.sum()
        got = perron_vector([[3.0, 1.0], [1.0, 1.0]])
        assert np.allclose(got.coords, vec, atol=1e-12)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            g = random_allowable(rng, int(rng.integers(2, 7)))
            v = perron_vector(g, residual_tol=1e-12)
            img = g.entries @ v.coords
            assert np.abs(img - img.sum() * v.coords).sum() <= 1e-10
            assert v.interior

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError, match="strictly positive"):
            perron_vector([[1.0, 0.0], [1.0, 1.0]])

    def test_residual_at_the_returned_point_up_to_norm_100(self):
        # the stopping rule scales with |g|_1, so the contract holds at the
        # point returned, not only at the iterate before it
        rng = np.random.default_rng(30)
        norms = []
        for _ in range(60):
            d = int(rng.integers(2, 7))
            g = rng.uniform(0.05, 1.0, (d, d)) * 10.0 ** rng.uniform(-1.0, 2.0 - np.log10(d))
            v = perron_vector(g, residual_tol=1e-12)
            img = g @ v.coords
            assert np.abs(img - img.sum() * v.coords).sum() <= 1e-12
            norms.append(g.sum(axis=0).max())
        assert max(norms) > 50.0

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        # max_iter=0 used to raise UnboundLocalError
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            perron_vector([[2.0, 1.0], [1.0, 2.0]], max_iter=max_iter)

    @pytest.mark.parametrize("residual_tol", [0.0, -1e-12, float("nan")])
    def test_rejects_nonpositive_residual_tol(self, residual_tol):
        with pytest.raises(ValueError, match="residual_tol must be > 0"):
            perron_vector([[2.0, 1.0], [1.0, 2.0]], residual_tol=residual_tol)


class TestClassifiers:
    def test_flat_matrix_in_half_level(self):
        assert classify_G_delta([[1.0, 1.0], [1.0, 1.0]], 0.5)

    def test_identity_never_qualifies(self):
        for delta in (1e-6, 0.1, 1.0):
            assert not classify_G_delta(np.eye(2), delta)

    def test_level_is_exact_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = random_allowable(rng, int(rng.integers(2, 6)))
            level = g_delta_level(g)
            assert classify_G_delta(g, level)
            assert not classify_G_delta(g, min(level * (1 + 1e-9) + 1e-12, 1.0)) or level >= 1.0

    def test_inclusion_forward(self):
        # membership at level delta forces the contraction/transpose-gauge class
        rng = np.random.default_rng(37)
        for _ in range(200):
            g = random_allowable(rng, int(rng.integers(2, 6)))
            delta = g_delta_level(g)
            assert delta > 0
            gamma = (1.0 - delta ** 2) / (1.0 + delta ** 2)
            assert classify_G_C_gamma(g, 1.0 / delta, gamma)

    def test_inclusion_reverse(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            g = random_allowable(rng, d)
            gamma = contraction_coefficient(g)
            # headroom keeps the boundary constant from rounding below |g|
            c_const = (1.0 + 1e-12) * gauges(g).op_norm / float(g.entries.sum(axis=1).min())
            assert classify_G_C_gamma(g, c_const, gamma)
            delta = (1.0 - gamma) / (c_const * d * (1.0 + gamma))
            assert classify_G_delta(g, delta)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            classify_G_delta(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            classify_G_C_gamma(np.eye(2), -1.0, 0.5)
        with pytest.raises(ValueError):
            classify_G_C_gamma(np.eye(2), 1.0, 1.0)
