import numpy as np
import pytest

from conewalk.cones import (BISECTION_TOL, CertificationError, ConeModel, lorentz_cone,
                            orthant_cone, psd_cone, psd_map_congruence,
                            psd_map_rank_one, coords_to_sym, sym_to_coords)
from conewalk.simplex import hilbert_distance, m_ratio

from conftest import sample_simplex_batch


class TestOrthant:
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


class TestLorentz:
    def test_membership(self):
        cone = lorentz_cone(2)
        assert cone.contains([0.3, 0.4, 0.5])
        assert not cone.contains([1.0, 0.0, 0.5])
        assert cone.contains_interior([0.1, 0.1, 1.0])
        assert not cone.contains_interior([1.0, 0.0, 1.0])

    def test_m_self_is_one_by_bisection(self):
        cone = lorentz_cone(3)
        x = cone.sample_slice(np.random.default_rng(4))
        assert cone.m(x, x, method="bisection") == pytest.approx(1.0, abs=1e-9)
        assert cone.m(x, x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_closed_form_matches_bisection(self, n):
        cone = lorentz_cone(n)
        rng = np.random.default_rng(40 + n)
        for i in range(60):
            x = cone.sample_slice(rng, boundary=i % 3 == 0) * rng.uniform(0.05, 20.0)
            y = cone.sample_slice(rng, boundary=i % 3 == 1) * rng.uniform(0.05, 20.0)
            if i % 5 == 4:
                y = x * rng.uniform(0.1, 10.0)  # parallel: the double root
            for p, q in ((x, y), (y, x)):
                assert cone.m(p, q, method="closed") == pytest.approx(
                    cone.m(p, q, method="bisection"), rel=1e-9, abs=BISECTION_TOL)

    def test_closed_form_on_parallel_boundary_points(self):
        cone = lorentz_cone(2)
        rng = np.random.default_rng(47)
        for _ in range(20):
            ray = cone.sample_slice(rng, boundary=True)
            sx, sy = rng.uniform(0.1, 10.0, 2)
            assert cone.m(sx * ray, sy * ray, method="closed") == sx / sy
            other = cone.sample_slice(rng, boundary=True)
            assert cone.m(sx * ray, sy * other, method="closed") == pytest.approx(
                0.0, abs=BISECTION_TOL)

    def test_boundary_interior_distance_is_one(self):
        cone = lorentz_cone(2)
        rng = np.random.default_rng(5)
        boundary = cone.sample_slice(rng, boundary=True)
        interior = cone.sample_slice(rng, boundary=False)
        assert cone.distance(boundary, interior) == 1.0

    def test_rotation_scaling_certifies(self):
        cone = lorentz_cone(2)
        theta = 0.7
        g = np.array([[0.5 * np.cos(theta), -0.5 * np.sin(theta), 0.0],
                      [0.5 * np.sin(theta), 0.5 * np.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        cone.certify_map(g, seed=8)

    def test_non_preserving_map_reports_witness(self):
        cone = lorentz_cone(2)
        bad = np.diag([2.0, 2.0, 1.0])  # stretches space, shrinks nothing
        with pytest.raises(CertificationError) as err:
            cone.certify_map(bad, seed=10)
        assert not cone.contains(bad @ err.value.witness)

    @pytest.mark.parametrize("n_pairs, message", [(0, "n_pairs must be >= 1, got 0"),
                                                  (2.5, "n_pairs must be an integer, got 2.5")])
    def test_contraction_estimate_rejects_a_malformed_pair_count(self, n_pairs, message):
        # no pairs used to report a perfect contraction 0.0, and 2.5 pairs ran 3
        with pytest.raises(ValueError, match=f"^{message}$"):
            lorentz_cone(3).contraction_estimate(np.eye(4), n_pairs)


class TestPsd:
    def test_coordinates_preserve_frobenius_inner_product(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        a, b = a + a.T, b + b.T
        assert np.dot(sym_to_coords(a), sym_to_coords(b)) == pytest.approx(
            np.sum(a * b), abs=1e-12)
        assert np.allclose(coords_to_sym(sym_to_coords(a), 3), a)

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
            # the distance is projective, so the images need no rescaling
            assert cone.distance(g @ x, g @ y) <= cone.distance(x, y) + 1e-10

    def test_samples_lie_on_the_slice(self, cone):
        rng = np.random.default_rng(30)
        for i in range(60):
            boundary = i % 2 == 0
            x = cone.sample_slice(rng, boundary=boundary)
            assert x.shape == (cone.ambient_dim,)
            assert cone.x0_star @ x == pytest.approx(1.0, abs=1e-12)
            assert cone.contains(x)
            assert cone.contains_interior(x) is not boundary

    def test_base_point_is_interior_on_the_slice(self, cone):
        assert cone.x0_star @ cone.x0 == pytest.approx(1.0, abs=1e-12)
        assert cone.contains_interior(cone.x0)
        assert cone.m(cone.x0, cone.x0) == pytest.approx(1.0, abs=1e-12)

    def test_distance_symmetric_and_zero_along_a_ray(self, cone):
        rng = np.random.default_rng(31)
        for _ in range(40):
            x = cone.sample_slice(rng)
            y = cone.sample_slice(rng)
            assert cone.distance(x, y) == cone.distance(y, x)
            assert 0.0 <= cone.distance(x, y) <= 1.0
            assert cone.distance(x, rng.uniform(0.05, 20.0) * x) == pytest.approx(
                0.0, abs=1e-9)

    def test_distance_triangle_inequality(self, cone):
        # (1 - t) / (1 + t) at t = exp(-theta) is tanh(theta / 2), a concave
        # increasing function of Hilbert's metric theta, so a metric itself
        rng = np.random.default_rng(32)
        for _ in range(40):
            x, y, z = (cone.sample_slice(rng) for _ in range(3))
            assert cone.distance(x, z) <= cone.distance(x, y) + cone.distance(y, z) + 1e-10

    def test_m_homogeneous_and_distance_projective(self, cone):
        rng = np.random.default_rng(33)
        for _ in range(40):
            x = cone.sample_slice(rng)
            y = cone.sample_slice(rng)
            a, b = rng.uniform(0.05, 20.0, 2)
            assert cone.m(a * x, b * y) == pytest.approx(a / b * cone.m(x, y), rel=1e-9)
            assert cone.distance(a * x, b * y) == pytest.approx(cone.distance(x, y),
                                                                abs=1e-10)

    def test_m_is_the_largest_feasible_ratio(self, cone):
        # x - m y sits on the boundary, so any larger multiple of an
        # interior y leaves the cone
        rng = np.random.default_rng(34)
        for _ in range(40):
            x = cone.sample_slice(rng)
            y = cone.sample_slice(rng)
            lam = cone.m(x, y)
            assert lam > 0
            assert cone.contains(x - lam * y, tol=1e-10)
            assert not cone.contains(x - lam * (1.0 + 1e-5) * y, tol=0.0)

    def test_m_names_the_offending_argument(self, cone):
        with pytest.raises(ValueError, match="^x is not in the cone$"):
            cone.m(-cone.x0, cone.x0)
        with pytest.raises(ValueError, match="^y is not in the cone$"):
            cone.m(cone.x0, -cone.x0)
        with pytest.raises(ValueError, match="^y must be nonzero$"):
            cone.m(cone.x0, np.zeros(cone.ambient_dim))
        with pytest.raises(ValueError, match="^unknown method 'newton'$"):
            cone.m(cone.x0, cone.x0, method="newton")

    def test_automorphism_preserves_distances(self, cone):
        rng = np.random.default_rng(35)
        if cone.kind == "orthant":
            g = np.diag(rng.uniform(0.2, 5.0, 3))[[2, 0, 1]]  # scaling, then a cycle
        elif cone.kind == "lorentz":
            t, s = 0.9, 0.6  # a spatial rotation times a boost along u_1
            rot = np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0],
                            [0.0, 0.0, 1.0]])
            boost = np.array([[np.cosh(s), 0.0, np.sinh(s)], [0.0, 1.0, 0.0],
                              [np.sinh(s), 0.0, np.cosh(s)]])
            g = 2.5 * boost @ rot
        else:
            g = psd_map_congruence(rng.standard_normal((2, 2)) + 2 * np.eye(2))
        for _ in range(40):
            x = cone.sample_slice(rng)
            y = cone.sample_slice(rng)
            assert cone.distance(g @ x, g @ y) == pytest.approx(cone.distance(x, y),
                                                                abs=1e-9)

    def test_identity_certifies_and_does_not_contract(self, cone):
        eye = np.eye(cone.ambient_dim)
        cone.certify_map(eye, seed=36)
        # a boundary and an interior point stay in different parts
        assert cone.contraction_estimate(eye, 50, seed=37) == pytest.approx(1.0, abs=1e-12)

    def test_negation_fails_certification_with_a_witness(self, cone):
        with pytest.raises(CertificationError, match="^map sent a cone member outside$") \
                as err:
            cone.certify_map(-np.eye(cone.ambient_dim), seed=38)
        assert cone.contains(err.value.witness)
        assert not cone.contains(-err.value.witness)

    def test_map_onto_a_boundary_ray_is_caught(self, cone):
        # each map sends the whole cone onto one extreme ray
        if cone.kind == "orthant":
            g = np.outer([1.0, 0.0, 0.0], np.ones(3))
        elif cone.kind == "lorentz":
            g = np.outer([1.0, 0.0, 1.0], cone.x0_star)
        else:
            g = psd_map_rank_one(np.eye(2), np.diag([1.0, 0.0]))
        with pytest.raises(CertificationError,
                           match="^map sent an interior point to the boundary$") as err:
            cone.certify_map(g, seed=39)
        image = g @ err.value.witness
        assert cone.contains_interior(err.value.witness)
        assert cone.contains(image) and not cone.contains_interior(image)

    def test_contraction_estimate_is_a_seeded_running_maximum(self, cone):
        # one seed draws one pair sequence, so more pairs never lower the max;
        # each map sends the cone into its interior, so the max stays below 1
        rng = np.random.default_rng(40)
        if cone.kind == "orthant":
            g = rng.uniform(0.3, 2.0, (3, 3))
        elif cone.kind == "lorentz":
            g = np.diag([0.4, 0.4, 1.0])
        else:  # M -> A^t M A + tr(M) I sends every nonzero member inside
            g = psd_map_congruence(rng.standard_normal((2, 2))) \
                + psd_map_rank_one(np.eye(2), np.eye(2))
        ests = [cone.contraction_estimate(g, n, seed=41) for n in (5, 20, 80, 320)]
        assert ests == sorted(ests)
        assert 0.0 < ests[0] and ests[-1] < 1.0
        assert cone.contraction_estimate(g, 80, seed=41) == ests[2]


@pytest.mark.parametrize("build, message", [
    (lambda: orthant_cone(3, [1.0, 0.0, 2.0]), "strictly positive"),
    (lambda: orthant_cone(3, [1.0, 2.0]), "strictly positive"),
    (lambda: lorentz_cone(0), "at least one spatial dimension"),
    (lambda: psd_cone(1), "n >= 2"),
    (lambda: ConeModel(2, [1.0, 1.0], [1.0, 1.0]), r"<x0\*, x0> must equal 1"),
], ids=["orthant-zero-weight", "orthant-wrong-shape", "lorentz-n0", "psd-n1", "base-pairing"])
def test_constructors_reject_malformed_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_weighted_orthant_vertices_span_the_slice():
    cone = orthant_cone(3, [1.0, 2.0, 4.0])
    verts = cone.vertices()
    assert np.allclose(verts @ cone.x0_star, 1.0, atol=1e-15)
    assert cone.x0_star @ cone.x0 == pytest.approx(1.0, abs=1e-15)
    for i in range(3):
        for j in range(3):
            # distinct vertices sit in different parts of the cone
            assert cone.distance(verts[i], verts[j]) == (0.0 if i == j else 1.0)


def test_psd_singular_y_falls_back_to_bisection():
    cone = psd_cone(2)
    x, y = sym_to_coords(np.eye(2)), sym_to_coords(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="^no closed form for the psd cone here$"):
        cone.m(x, y, method="closed")
    # I - lam diag(1, 0) is semidefinite exactly for lam <= 1
    assert cone.m(x, y) == pytest.approx(1.0, abs=BISECTION_TOL)
    assert cone.m(x, y) == cone.m(x, y, method="bisection")


def test_psd_rank_one_map_is_trace_times_s0():
    rng = np.random.default_rng(42)
    r0, s0, mat = (rng.standard_normal((3, 3)) for _ in range(3))
    r0, s0, mat = r0 + r0.T, s0 + s0.T, mat + mat.T
    image = coords_to_sym(psd_map_rank_one(r0, s0) @ sym_to_coords(mat), 3)
    assert np.allclose(image, np.trace(mat @ r0) * s0, atol=1e-12)


def _sqrtm(y):
    w, q = np.linalg.eigh(y)
    return (q * np.sqrt(w)) @ q.T


def _loop_basis(n):
    """The symmetric basis built by loops: (i, i) pairs, then i < j row by row."""
    return [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestSymmetricBasisAgainstLoops:
    """The symmetric maps, pinned bit for bit to the loop construction."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_maps_match_the_loop_construction(self, n):
        rng = np.random.default_rng(40 + n)
        pairs = _loop_basis(n)
        m = rng.standard_normal((n, n))
        m = m + m.T
        coords = np.array([m[i, j] if i == j else np.sqrt(2.0) * m[i, j] for i, j in pairs])
        assert np.array_equal(sym_to_coords(m), coords)
        c = rng.standard_normal(len(pairs))
        back = np.zeros((n, n))
        for k, (i, j) in enumerate(pairs):
            back[i, j] = back[j, i] = c[k] if i == j else c[k] / np.sqrt(2.0)
        assert np.array_equal(coords_to_sym(c, n), back)
        a = rng.standard_normal((n, n))
        cols = np.empty((len(pairs), len(pairs)))
        for k, (i, j) in enumerate(pairs):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
            cols[:, k] = sym_to_coords(a.T @ e @ a)
        assert np.array_equal(psd_map_congruence(a), cols)

