import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewalk.simplex import (SimplexPoint, as_count, as_grid, barycenter,
                              contraction_coefficient, hilbert_distance, m_ratio,
                              sample_point)

from conftest import (batched_distance, quadruple_coefficient, random_allowable,
                      sample_simplex_batch)


def coords_strategy(min_d=2, max_d=6):
    return st.integers(min_d, max_d).flatmap(
        lambda d: st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=d, max_size=d)
        .filter(lambda c: sum(c) > 1e-6))


points = coords_strategy().map(SimplexPoint)


def paired_points(d):
    return st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d).filter(lambda c: sum(c) > 1e-6),
        st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d).filter(lambda c: sum(c) > 1e-6),
    )


class TestSimplexPoint:
    def test_renormalizes_once(self):
        p = SimplexPoint([2.0, 2.0])
        assert p.coords.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p.coords, [0.5, 0.5])

    def test_interior_flag_matches_strict_positivity(self):
        assert SimplexPoint([0.3, 0.7]).interior
        assert not SimplexPoint([1.0, 0.0]).interior

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SimplexPoint([1.0, -0.1])
        with pytest.raises(ValueError):
            SimplexPoint([0.0, 0.0])
        with pytest.raises(ValueError):
            SimplexPoint([1.0])
        with pytest.raises(ValueError):
            SimplexPoint([np.nan, 1.0])

    def test_coords_immutable(self):
        p = barycenter(3)
        with pytest.raises(ValueError):
            p.coords[0] = 1.0


class TestMRatio:
    def test_identical_points(self):
        e = barycenter(4)
        assert m_ratio(e, e) == 1.0

    def test_disjoint_supports(self):
        assert m_ratio((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_direct_evaluation(self):
        # min(0.5/0.75, 0.5/0.25) = 2/3
        assert m_ratio((0.5, 0.5), (0.75, 0.25)) == pytest.approx(2.0 / 3.0, abs=1e-15)

    @given(points, points)
    @settings(max_examples=200, deadline=None)
    def test_product_at_most_one_and_range(self, u, v):
        if u.d != v.d:
            return
        m_uv, m_vu = m_ratio(u, v), m_ratio(v, u)
        assert 0.0 <= m_uv <= u.d + 1e-12
        assert m_uv * m_vu <= 1.0 + 1e-12


class TestHilbertDistance:
    def test_zero_at_equal_points(self):
        e = barycenter(3)
        assert hilbert_distance(e, e) == 0.0

    def test_one_iff_supports_differ(self):
        assert hilbert_distance((1.0, 0.0), (0.0, 1.0)) == 1.0
        assert hilbert_distance((1.0, 0.0), (0.5, 0.5)) == 1.0

    def test_derived_example_against_cross_ratio_oracle(self):
        # oracle: d = tanh(log(cross ratio)/2) computed from the raw ratios
        x, y = (0.5, 0.5), (0.75, 0.25)
        ratios = np.array(x) / np.array(y)
        oracle = np.tanh(np.log(ratios.max() / ratios.min()) / 2.0)
        assert oracle == pytest.approx(0.5, abs=1e-15)
        assert hilbert_distance(x, y) == pytest.approx(oracle, abs=1e-15)

    @given(st.integers(2, 5).flatmap(lambda d: st.tuples(*[
        st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d) for _ in range(3)])))
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, triple):
        x, y, z = (SimplexPoint(c) for c in triple)
        dxy = hilbert_distance(x, y)
        assert dxy == hilbert_distance(y, x)
        assert dxy <= hilbert_distance(x, z) + hilbert_distance(z, y) + 1e-10
        assert hilbert_distance(x, x) == 0.0
        assert 0.0 <= dxy <= 1.0

    def test_l1_bounded_by_twice_distance(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            u = sample_simplex_batch(rng, 500, d, boundary_frac=0.2)
            v = sample_simplex_batch(rng, 500, d, boundary_frac=0.2)
            l1 = np.abs(u - v).sum(axis=1)
            assert np.all(l1 <= 2.0 * batched_distance(u, v) + 1e-12)


class TestContractionCoefficient:
    def test_rank_one_vanishes(self):
        assert contraction_coefficient([[1.0, 1.0], [1.0, 1.0]]) == 0.0

    def test_identity_is_one(self):
        assert contraction_coefficient([[1.0, 0.0], [0.0, 1.0]]) == 1.0

    def test_quadruple_enumeration_oracle(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        best = 0.0
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        den = g[i, j] * g[k, l] + g[i, l] * g[k, j]
                        if den > 0:
                            best = max(best, abs(g[i, j] * g[k, l] - g[i, l] * g[k, j]) / den)
        assert best == pytest.approx(0.6, abs=1e-15)
        assert contraction_coefficient(g) == pytest.approx(best, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_stack_matches_quadruple_reference(self, d):
        rng = np.random.default_rng(100 + d)
        stack = np.stack([random_allowable(rng, d, strictly_positive=bool(n % 2)).entries
                          for n in range(200)])
        stack[0] = np.outer(rng.uniform(0.1, 5.0, d), rng.uniform(0.1, 5.0, d))
        stack[2] = np.eye(d)
        stack[4] = np.roll(np.eye(d), 1, axis=1) + np.eye(d)  # cyclic band, zeros for d > 2
        got = contraction_coefficient(stack)
        assert got.shape == (200,)
        for g, c in zip(stack, got):
            assert c == contraction_coefficient(g)
            assert c == pytest.approx(quadruple_coefficient(g), abs=1e-15)
        assert got[0] <= 1e-15 and got[2] == 1.0

    def test_stack_of_wrong_shape_is_named(self):
        for shape in ((3, 2, 4), (3, 1, 1), (2, 2, 2, 2)):
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                contraction_coefficient(np.ones(shape))

    def test_matrix_is_validated_as_allowable(self):
        with pytest.raises(ValueError, match="column 1 has no positive entry"):
            contraction_coefficient([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="square"):
            contraction_coefficient([1.0, 2.0])

    def test_scale_invariance_exact_for_dyadic_scalars(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_allowable(rng, int(rng.integers(2, 6)))
            c = contraction_coefficient(g)
            for k in (-20, -3, 5, 30):
                assert contraction_coefficient(g.entries * 2.0 ** k) == c

    def test_below_one_iff_strictly_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = random_allowable(rng, 4, strictly_positive=False)
            c = contraction_coefficient(g)
            if g.is_strictly_positive:
                assert c < 1.0
            else:
                assert c == 1.0

    def test_submultiplicative(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            g, h = random_allowable(rng, d), random_allowable(rng, d)
            assert contraction_coefficient(g @ h) <= (
                contraction_coefficient(g) * contraction_coefficient(h) + 1e-12)

    def test_matches_sampled_sup_of_image_distances(self):
        from conewalk.posmat import act

        rng = np.random.default_rng(17)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            g = random_allowable(rng, d)
            c = contraction_coefficient(g)
            imgs_x, imgs_y = [], []
            xs = sample_simplex_batch(rng, 1000, d, boundary_frac=0.3)
            ys = sample_simplex_batch(rng, 1000, d, boundary_frac=0.3)
            gx = xs @ g.entries.T
            gy = ys @ g.entries.T
            gx /= gx.sum(axis=1, keepdims=True)
            gy /= gy.sum(axis=1, keepdims=True)
            dist_pre = batched_distance(xs, ys)
            dist_post = batched_distance(gx, gy)
            assert np.all(dist_post <= c * dist_pre + 1e-12)
            # vertex pairs realize the supremum exactly
            verts = np.eye(d)
            gv = verts @ g.entries.T
            gv /= gv.sum(axis=1, keepdims=True)
            best = max(batched_distance(gv[i:i + 1], gv[j:j + 1])[0]
                       for i in range(d) for j in range(i + 1, d))
            assert best == pytest.approx(c, abs=1e-12)


def test_sample_point_boundary_control():
    rng = np.random.default_rng(23)
    p = sample_point(5, rng, zeros=2)
    assert np.sum(p.coords == 0.0) == 2
    with pytest.raises(ValueError):
        sample_point(3, rng, zeros=3)


class TestCounts:
    @pytest.mark.parametrize("value", [3, np.int64(3), 3.0, np.float64(3.0), 10**20])
    def test_integral_values_become_ints(self, value):
        got = as_count(value, "k", 3)
        assert got == value and type(got) is int

    @pytest.mark.parametrize("value, message", [
        (2, "k must be >= 3, got 2"), (float("nan"), "k must be >= 3, got nan"),
        (3.5, "k must be an integer, got 3.5"), (np.float64(4.25), "k must be an integer, got 4.25"),
        (float("inf"), "k must be an integer, got inf"),
    ])
    def test_rejects_with_the_name(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_count(value, "k", 3)

    def test_grid_is_sorted_counts(self):
        assert as_grid([8, 2.0, np.int64(4)]) == [2, 4, 8]
        for grid, message in (([], "n_grid must hold at least one step"),
                              ([4, 0], "n_grid must be >= 1, got 0"),
                              ([4, 2.5], "n_grid must be an integer, got 2.5"),
                              ([8, 4, 8.0], "n_grid repeats step 8")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                as_grid(grid)
