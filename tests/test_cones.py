import numpy as np
import pytest

from conewalk.cones import (CertificationError, lorentz_cone, orthant_cone,
                            psd_cone, psd_map_congruence, psd_map_rank_one,
                            coords_to_sym, sym_to_coords)
from conewalk.simplex import hilbert_distance, m_ratio

from conftest import sample_simplex_batch


class TestOrthant:
    def test_norm_on_cone_is_base_functional(self):
        cone = orthant_cone(3)
        assert cone.monotone_norm([1.0, 2.0, 3.0]) == 6.0
        assert cone.monotone_norm([0.0, 0.0, 0.0]) == 0.0

    def test_norm_off_cone_clips_coordinates(self):
        cone = orthant_cone(3)
        # dual cap is the coordinate box [0, 1]^3: support = positive part
        assert cone.monotone_norm([1.0, -2.0, 3.0]) == 4.0

    def test_m_matches_simplex_ratio(self):
        cone = orthant_cone(2)
        x, y = np.array([0.5, 0.5]), np.array([0.75, 0.25])
        assert cone.m(x, y) == pytest.approx(m_ratio(x, y), abs=1e-15)

    def test_distance_matches_simplex_metric(self):
        cone = orthant_cone(4)
        rng = np.random.default_rng(1)
        xs = sample_simplex_batch(rng, 200, 4, boundary_frac=0.2)
        ys = sample_simplex_batch(rng, 200, 4, boundary_frac=0.2)
        for x, y in zip(xs, ys):
            assert cone.distance(x, y) == pytest.approx(hilbert_distance(x, y), abs=1e-12)

    def test_bisection_agrees_with_closed_form(self):
        cone = orthant_cone(3)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = sample_simplex_batch(rng, 1, 3)[0]
            y = sample_simplex_batch(rng, 1, 3)[0]
            assert cone.m(x, y, method="bisection") == pytest.approx(
                cone.m(x, y, method="closed"), abs=1e-8)

    def test_contraction_estimate_reaches_exact_value(self):
        from conewalk.simplex import contraction_coefficient

        cone = orthant_cone(3)
        rng = np.random.default_rng(3)
        g = rng.uniform(0.2, 3.0, (3, 3))
        exact = contraction_coefficient(g)
        est = cone.contraction_estimate(g, 2000, seed=5)
        assert est <= exact + 1e-12
        assert est >= 0.99 * exact

    def test_identity_contraction_is_one_via_boundary_pairs(self):
        cone = orthant_cone(3)
        assert cone.contraction_estimate(np.eye(3), 100, seed=7) == 1.0

    def test_weighted_base_functional(self):
        cone = orthant_cone(2, x0_star=[2.0, 1.0])
        assert cone.monotone_norm([1.0, 1.0]) == 3.0
        gauges = cone.gauges(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert gauges.op_norm == 1.0 and gauges.v == 1.0


class TestLorentz:
    def test_base_point_norm_one(self):
        cone = lorentz_cone(3)
        z = np.zeros(4)
        z[-1] = 1.0
        assert cone.monotone_norm(z) == 1.0

    def test_membership(self):
        cone = lorentz_cone(2)
        assert cone.contains([0.3, 0.4, 0.5])
        assert not cone.contains([1.0, 0.0, 0.5])
        assert cone.contains_interior([0.1, 0.1, 1.0])
        assert not cone.contains_interior([1.0, 0.0, 1.0])

    def test_m_self_is_one_by_bisection(self):
        cone = lorentz_cone(3)
        x = cone.sample_slice(np.random.default_rng(4))
        assert cone.m(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_boundary_interior_distance_is_one(self):
        cone = lorentz_cone(2)
        rng = np.random.default_rng(5)
        boundary = cone.sample_slice(rng, boundary=True)
        interior = cone.sample_slice(rng, boundary=False)
        assert cone.distance(boundary, interior) == 1.0

    def test_identity_acts_trivially(self):
        cone = lorentz_cone(2)
        x = cone.sample_slice(np.random.default_rng(6))
        assert np.allclose(cone.act(np.eye(3), x), x)
        assert cone.cocycle(np.eye(3), x) == 0.0

    def test_rotation_scaling_certifies(self):
        cone = lorentz_cone(2)
        theta = 0.7
        g = np.array([[0.5 * np.cos(theta), -0.5 * np.sin(theta), 0.0],
                      [0.5 * np.sin(theta), 0.5 * np.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        cone.certify_map(g, seed=8)
        x = cone.sample_slice(np.random.default_rng(9))
        assert abs(cone.x0_star @ cone.act(g, x) - 1.0) <= 1e-12

    def test_non_preserving_map_reports_witness(self):
        cone = lorentz_cone(2)
        bad = np.diag([2.0, 2.0, 1.0])  # stretches space, shrinks nothing
        with pytest.raises(CertificationError) as err:
            cone.certify_map(bad, seed=10)
        assert not cone.contains(bad @ err.value.witness)

    def test_act_on_escaping_point_reports_witness(self):
        cone = lorentz_cone(2)
        bad = np.diag([2.0, 2.0, 1.0])
        boundary = np.array([1.0, 0.0, 1.0])
        with pytest.raises(CertificationError) as err:
            cone.act(bad, boundary)
        assert np.array_equal(err.value.witness, boundary)

    def test_norm_off_cone_is_exact_dual_cap_support(self):
        cone = lorentz_cone(2)
        v = np.array([3.0, 0.0, 1.0])  # outside: |u| > z
        # the dual cap's equator point (u/|u|, 1)/2 gives (|u| + z)/2 = 2.0
        assert cone.monotone_norm(v) == 2.0
        assert cone.monotone_norm(np.array([0.0, 0.0, -1.0])) == 0.0  # apex 0
        assert cone.monotone_norm(np.array([0.5, 0.0, -1.0])) == 0.0  # apex 0

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_sampled_dual_cap_never_exceeds_exact(self, n):
        cone = lorentz_cone(n)
        rng = np.random.default_rng(40 + n)
        pts = rng.standard_normal((300, n + 1))
        # off the cone: |z| < |u|
        pts[:, -1] = rng.uniform(-1.0, 1.0, 300) * np.linalg.norm(pts[:, :-1], axis=1)
        for x in pts:
            exact = cone.monotone_norm(x)
            sampled = sampled_dual_cap_support(x, rng)
            assert sampled <= exact + 1e-12
            assert exact >= max(0.0, x[-1])  # no worse than either apex
            if n == 1:  # the equator is two points, and sampling finds both
                assert sampled == exact


def sampled_dual_cap_support(x, rng, samples=10**4):
    """The Lorentz dual-cap support as a maximum over sampled extreme points.

    The cap's extreme points are the apexes 0 and e_z and the equator
    {(v/2, 1/2) : |v| = 1}; the equator is sampled by normalized normal
    draws, so the value can only fall short of the exact support.
    """
    dirs = rng.standard_normal((samples, len(x) - 1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return max(0.0, float(x[-1]), float(np.max(0.5 * (dirs @ x[:-1]) + 0.5 * x[-1])))


class TestPsd:
    def test_coordinates_preserve_frobenius_inner_product(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        a, b = a + a.T, b + b.T
        assert np.dot(sym_to_coords(a), sym_to_coords(b)) == pytest.approx(
            np.sum(a * b), abs=1e-12)
        assert np.allclose(coords_to_sym(sym_to_coords(a), 3), a)

    def test_norm_on_cone_is_trace(self):
        cone = psd_cone(3)
        m = np.diag([1.0, 2.0, 3.0])
        assert cone.monotone_norm(sym_to_coords(m)) == pytest.approx(6.0, abs=1e-12)

    def test_norm_off_cone_is_positive_eigenvalue_mass(self):
        cone = psd_cone(2)
        m = np.diag([2.0, -1.0])
        assert cone.monotone_norm(sym_to_coords(m)) == pytest.approx(2.0, abs=1e-12)

    def test_m_against_identity_is_lambda_min(self):
        cone = psd_cone(2)
        x = np.diag([2.0, 1.0])
        assert cone.m(sym_to_coords(x), sym_to_coords(np.eye(2))) == pytest.approx(
            1.0, abs=1e-12)

    def test_m_closed_matches_generalized_eigenvalue_oracle(self):
        cone = psd_cone(3)
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            x = a @ a.T + 0.1 * np.eye(3)
            b = rng.standard_normal((3, 3))
            y = b @ b.T + 0.5 * np.eye(3)
            inv_sqrt = np.linalg.inv(_sqrtm(y))
            oracle = np.linalg.eigvalsh(inv_sqrt @ x @ inv_sqrt)[0]
            assert cone.m(sym_to_coords(x), sym_to_coords(y)) == pytest.approx(
                oracle, abs=1e-10)

    def test_bisection_agrees_with_closed_form(self):
        cone = psd_cone(2)
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.standard_normal((2, 2))
            x = a @ a.T + 0.2 * np.eye(2)
            b = rng.standard_normal((2, 2))
            y = b @ b.T + 0.2 * np.eye(2)
            xc, yc = sym_to_coords(x), sym_to_coords(y)
            assert cone.m(xc, yc, method="bisection") == pytest.approx(
                cone.m(xc, yc, method="closed"), abs=1e-8)

    def test_congruence_map_preserves_interior(self):
        cone = psd_cone(3)
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        cone.certify_map(psd_map_congruence(a), seed=15)

    def test_congruence_matches_matrix_action(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((3, 3))
        m = rng.standard_normal((3, 3))
        m = m + m.T
        via_coords = coords_to_sym(psd_map_congruence(a) @ sym_to_coords(m), 3)
        assert np.allclose(via_coords, a.T @ m @ a, atol=1e-12)

    def test_rank_one_map_contracts_to_a_point(self):
        cone = psd_cone(2)
        g = psd_map_rank_one(np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]]))
        cone.certify_map(g, seed=17)
        assert cone.contraction_estimate(g, 500, seed=18) <= 1e-9


class TestSharedConeProperties:
    @pytest.fixture(params=["orthant", "lorentz", "psd"])
    def cone(self, request):
        return {"orthant": orthant_cone(3), "lorentz": lorentz_cone(2),
                "psd": psd_cone(2)}[request.param]

    def test_m_product_at_most_one_and_finite(self, cone):
        rng = np.random.default_rng(19)
        for _ in range(50):
            x = cone.sample_slice(rng)
            y = cone.sample_slice(rng)
            mxy, myx = cone.m(x, y), cone.m(y, x)
            assert np.isfinite(mxy) and np.isfinite(myx)
            assert mxy * myx <= 1.0 + 1e-9

    def test_rejects_zero_vector(self, cone):
        with pytest.raises(ValueError, match="nonzero"):
            cone.m(np.zeros(cone.ambient_dim), cone.x0)

    def test_base_functional_positive_on_samples(self, cone):
        rng = np.random.default_rng(20)
        for _ in range(100):
            x = cone.sample_slice(rng, boundary=True)
            assert cone.x0_star @ x > 0

    def test_contains_origin_and_proper(self, cone):
        assert cone.contains(np.zeros(cone.ambient_dim))
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = cone.sample_slice(rng)
            assert not cone.contains(-x, tol=0.0)  # K meets -K only at 0

    def test_vector_certification_tags(self, cone):
        v = cone.vector(cone.x0, require="interior")
        assert v.tag == "interior"
        assert cone.vector(cone.x0).tag == "member"
        with pytest.raises(ValueError):
            cone.vector(-cone.x0)
        assert cone.vector(-cone.x0, require="unrestricted").tag == "unrestricted"
        with pytest.raises(ValueError, match="certification"):
            cone.vector(cone.x0, require="banana")
        with pytest.raises(ValueError):
            v.coords[0] = 5.0  # certified coordinates are frozen

    def test_duality_bound_on_dual_cap_samples(self, cone):
        rng = np.random.default_rng(21)
        for _ in range(100):
            xs = cone.sample_dual_cap(rng)
            x = cone.sample_slice(rng)
            val = float(xs @ x)
            assert -1e-10 <= val <= cone.monotone_norm(x) + 1e-9

    def test_monotone_on_ordered_pairs(self, cone):
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = cone.sample_slice(rng)
            y = x + 0.5 * cone.sample_slice(rng)  # x <= y in the cone order
            assert cone.monotone_norm(x) <= cone.monotone_norm(y) + 1e-12

    def test_interior_scaling_floor(self, cone):
        # every unit-ball cone member sits below x / eps for interior x
        rng = np.random.default_rng(23)
        x = cone.x0
        eps = np.inf
        for _ in range(50):
            y = cone.sample_slice(rng)
            y = y / max(np.linalg.norm(y), 1e-300)
            eps = min(eps, cone.m(x, y))
        assert eps > 0

    def test_action_contracts_distances(self, cone):
        rng = np.random.default_rng(24)
        if cone.kind == "orthant":
            g = rng.uniform(0.3, 2.0, (3, 3))
        elif cone.kind == "lorentz":
            g = np.diag([0.4, 0.4, 1.0])
        else:
            a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            g = psd_map_congruence(a)
        for _ in range(50):
            x = cone.sample_slice(rng)
            y = cone.sample_slice(rng)
            gx, gy = cone.act(g, x), cone.act(g, y)
            assert cone.distance(gx, gy) <= cone.distance(x, y) + 1e-10

    def test_cocycle_additive_and_bounded(self, cone):
        rng = np.random.default_rng(25)
        if cone.kind == "orthant":
            g = rng.uniform(0.3, 2.0, (3, 3))
            h = rng.uniform(0.3, 2.0, (3, 3))
        elif cone.kind == "lorentz":
            g = np.diag([0.4, 0.4, 1.0])
            h = np.diag([0.2, 0.1, 0.8])
        else:
            g = psd_map_congruence(rng.standard_normal((2, 2)) + 2 * np.eye(2))
            h = psd_map_congruence(rng.standard_normal((2, 2)) + 3 * np.eye(2))
        gauges = cone.gauges(g)
        for _ in range(30):
            x = cone.sample_slice(rng)
            lhs = cone.cocycle(h @ g, x)
            rhs = cone.cocycle(h, cone.act(g, x)) + cone.cocycle(g, x)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert abs(cone.cocycle(g, x)) <= np.log(gauges.N) + 1e-12

    def test_cocycle_log_bound_near_pairs(self, cone):
        rng = np.random.default_rng(26)
        if cone.kind == "orthant":
            g = rng.uniform(0.3, 2.0, (3, 3))
        elif cone.kind == "lorentz":
            g = np.diag([0.3, 0.3, 1.0])
        else:
            g = psd_map_congruence(rng.standard_normal((2, 2)) + 2 * np.eye(2))
        c_norm = cone.norm_metric_constant()
        l_gauge = cone.gauges(g).L
        for _ in range(50):
            x = cone.sample_slice(rng)
            y = cone.sample_slice(rng)
            dxy = cone.distance(x, y)
            gap = abs(cone.cocycle(g, x) - cone.cocycle(g, y))
            if dxy < 1.0:
                assert gap <= 2.0 * np.log(1.0 / (1.0 - dxy)) + 1e-9
            if dxy <= 0.5:
                assert gap <= 2.0 * c_norm * l_gauge * dxy + 1e-9

    def test_norm_metric_comparison_with_fitted_constant(self, cone):
        c_norm = cone.norm_metric_constant()
        rng = np.random.default_rng(27)
        for _ in range(200):
            x = cone.sample_slice(rng)
            y = cone.sample_slice(rng)
            dxy = cone.distance(x, y)
            if dxy < 1.0 - 1e-9:
                assert cone.monotone_norm(x - y) <= c_norm * dxy / (1.0 - dxy) + 1e-9

    def test_gauges_match_sampled_slice_range(self, cone):
        rng = np.random.default_rng(28)
        if cone.kind == "orthant":
            g = rng.uniform(0.3, 2.0, (3, 3))
        elif cone.kind == "lorentz":
            g = np.diag([0.5, 0.2, 1.0])
        else:
            g = psd_map_congruence(rng.standard_normal((2, 2)) + 2 * np.eye(2))
        gg = cone.gauges(g)
        vals = []
        for _ in range(2000):
            x = cone.sample_slice(rng, boundary=rng.random() < 0.5)
            vals.append(float(cone.x0_star @ (np.asarray(g) @ x)))
        vals = np.asarray(vals)
        assert np.all(vals <= gg.op_norm + 1e-9)
        assert np.all(vals >= gg.v - 1e-9)
        assert vals.max() >= gg.v  # the range is actually explored


def _sqrtm(y):
    w, q = np.linalg.eigh(y)
    return (q * np.sqrt(w)) @ q.T
