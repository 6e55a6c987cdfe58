import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from conewalk import harness as hz
from conewalk import rng as rngmod
from conewalk.estimators import BatchedProducts
from conewalk.measures import MeasureSpec, sample_matrix
from conewalk.posmat import AllowableMatrix, g_delta_level, perron_vector, spectral_radius
from conewalk.rng import Purpose

SINGLE = MeasureSpec.single_atom(AllowableMatrix([[2.0, 1.0], [1.0, 1.0]]))


class TestKsMachinery:
    def test_two_sample_against_itself_is_zero(self):
        z = np.random.default_rng(0).normal(size=500)
        assert hz.ks_two_sample(z, z) == 0.0

    def test_exact_scale_invariance_for_dyadic_factor(self):
        z = np.random.default_rng(1).normal(size=500)
        assert hz.ks_to_gaussian(z, 1.0) == hz.ks_to_gaussian(2.0 * z, 2.0)

    def test_shift_invariance(self):
        z = np.random.default_rng(2).normal(size=500)
        mu = 3.5
        shifted = hz.ks_statistic(z + mu, lambda t: ndtr(t - mu))
        assert shifted == pytest.approx(hz.ks_to_gaussian(z, 1.0), abs=1e-12)

    def test_corner_exactness_on_tiny_sample(self):
        # F(0.0) = 0.5: empirical CDF jumps 0 -> 1, sup gap is 0.5 exactly
        assert hz.ks_statistic([0.0], ndtr) == 0.5

    def test_minus_inf_mass_floors_the_distance(self):
        z = np.random.default_rng(3).normal(size=100)
        assert hz.ks_to_gaussian(z, 1.0, minus_inf=100) >= 0.5

    def test_two_sample_detects_shift(self):
        # for unit Gaussians two apart the population gap is 2*Phi(1) - 1 = 0.68
        rng = np.random.default_rng(4)
        assert hz.ks_two_sample(rng.normal(size=400), rng.normal(size=400) + 2.0) > 0.6


class TestKendallBanded:
    def test_clear_trend_fails_bands(self):
        ns = [1, 2, 3, 4]
        ys = [1.0, 2.0, 3.0, 4.0]
        raw, banded = hz.kendall_tau_banded(ns, ys, [0.1] * 4)
        assert raw == 1.0 and banded == 1.0

    def test_noise_within_bands_is_tied(self):
        ns = [1, 2, 3, 4]
        ys = [1.0, 1.01, 0.99, 1.02]
        raw, banded = hz.kendall_tau_banded(ns, ys, [0.1] * 4)
        assert banded == 0.0
        assert raw != 0.0

    def test_decreasing_passes(self):
        raw, banded = hz.kendall_tau_banded([1, 2, 3], [3.0, 2.0, 1.0], [0.0] * 3)
        assert raw == -1.0 and banded == -1.0


class TestFunctionalSweep:
    def test_thread_count_does_not_change_results(self, reference_spec):
        kw = dict(n_grid=[16, 64], replicas=3000, seed=5,
                  functionals=("sigma", "norm", "v"), chunk=1024)
        seq = hz.functional_sweep(reference_spec, threads=1, **kw)
        par = hz.functional_sweep(reference_spec, threads=4, **kw)
        for key, vals in seq.samples.items():
            assert np.array_equal(vals, par.samples[key])
        assert seq.lambda_hat == par.lambda_hat

    @settings(max_examples=12, deadline=None)
    @given(replicas=st.integers(1, 40), chunk=st.integers(1, 16),
           seed=st.integers(0, 2**63))
    def test_threads_never_matter_and_chunk_k_is_batch_key_k(self, replicas, chunk, seed):
        spec = hz.reference_spec()
        kw = dict(n_grid=[3, 6], replicas=replicas, seed=seed, chunk=chunk,
                  functionals=("sigma", "norm", "kappa"))
        one = hz.functional_sweep(spec, threads=1, **kw)
        two = hz.functional_sweep(spec, threads=2, **kw)
        for key, vals in one.samples.items():
            assert np.array_equal(vals, two.samples[key])
        # documented layout: chunk k of the replicas runs BatchedProducts key k
        norms = []
        for k, start in enumerate(range(0, replicas, chunk)):
            batch = BatchedProducts(spec, seed, min(chunk, replicas - start), key=k)
            batch.run(6)
            norms.append(batch.log_norm())
        assert np.array_equal(one.samples[("norm", 6)], np.concatenate(norms))

    def test_rejects_empty_replica_set(self, reference_spec):
        with pytest.raises(ValueError, match="replicas"):
            hz.functional_sweep(reference_spec, [4], 0, 0)

    def test_rejects_empty_grid(self, reference_spec):
        with pytest.raises(ValueError, match="n_grid"):
            hz.functional_sweep(reference_spec, [], 10, 0)

    def test_ordering_invariants_hold_pathwise(self, reference_spec):
        sweep = hz.functional_sweep(reference_spec, [8, 64], 2000, seed=6,
                                    functionals=("norm", "v", "kappa", "inf_coeff"))
        assert sweep.ordering_violation <= 1e-9

    def test_minus_inf_counting_on_zero_pattern_fixture(self):
        _, fixture_b = hz.pathology_fixtures()
        sweep = hz.functional_sweep(fixture_b, [3], 2000, seed=7,
                                    functionals=("inf_coeff",))
        assert sweep.minus_inf[("inf_coeff", 3)] > 0


class TestNormality:
    def test_rejects_nonpositive_scale(self, reference_spec):
        with pytest.raises(ValueError, match="s must be positive"):
            hz.empirical_normality(reference_spec, "sigma", 16, 100, 0.0)

    def test_reference_ks_is_small_at_moderate_size(self, reference_spec):
        sweep = hz.functional_sweep(reference_spec, [256], 20000, seed=8,
                                    functionals=("sigma", "norm"))
        s = float(sweep.samples[("norm", 256)].std(ddof=1) / np.sqrt(256))
        rep = hz.empirical_normality(reference_spec, "sigma", 256, 20000, s,
                                     sweep=sweep)
        assert rep.ks_distance <= 0.03
        assert rep.minus_inf_count == 0


class TestBerryEsseen:
    def test_degenerate_spec_is_flagged(self):
        fit = hz.berry_esseen_fit(SINGLE, "sigma", 3.0, [16, 64], 200, seed=9,
                                  check_moments=False)
        assert fit.verdict == "degenerate"

    def test_rejects_empty_grid(self, reference_spec):
        with pytest.raises(ValueError, match="n_grid"):
            hz.berry_esseen_fit(reference_spec, "sigma", 3.0, [], 200)

    def test_reference_small_grid_passes(self, reference_spec):
        fit = hz.berry_esseen_fit(reference_spec, "sigma", 3.0, [32, 128, 512],
                                  8000, seed=10)
        assert fit.verdict == "pass"
        assert fit.target == 0.5
        assert all(k > 0 for k in fit.ks_values)


class TestAsipProxy:
    def test_single_atom_from_perron_start_stays_at_zero(self):
        v = perron_vector(AllowableMatrix([[2.0, 1.0], [1.0, 1.0]]))
        lam = float(np.log(spectral_radius([[2.0, 1.0], [1.0, 1.0]])))
        rep = hz.asip_proxy(SINGLE, 256, 8, seed=11, s=1.0, lambda_hat=lam, x=v)
        assert rep.envelope_fraction == 1.0
        assert rep.envelope_quantile_99 <= 1e-9
        assert rep.tag == "property proxy"

    def test_reference_envelope_mostly_holds_small_scale(self, reference_spec):
        rep = hz.asip_proxy(reference_spec, 4096, 200, seed=12)
        assert rep.envelope_fraction >= 0.9

    def test_coefficient_variant_runs(self, reference_spec):
        rep = hz.asip_proxy(reference_spec, 1024, 100, seed=13, variant="coeff")
        assert 0.0 <= rep.envelope_fraction <= 1.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_n_without_iterated_log(self, reference_spec, n):
        with pytest.raises(ValueError, match="n must"):
            hz.asip_proxy(reference_spec, n, 10, s=1.0, lambda_hat=0.5)


def test_start_points_are_validated_once_per_call(reference_spec, monkeypatch):
    # the per-step functionals read the validated point, so the count does
    # not grow with the number of steps or grid points
    from conewalk.simplex import SimplexPoint

    made = []
    init = SimplexPoint.__init__

    def counting_init(self, coords):
        made.append(1)
        init(self, coords)

    monkeypatch.setattr(SimplexPoint, "__init__", counting_init)
    x, y = (0.3, 0.7), (0.6, 0.4)
    calls = [
        lambda: hz.asip_proxy(reference_spec, 128, 8, seed=3, s=0.9, lambda_hat=0.7, x=x),
        lambda: hz.asip_proxy(reference_spec, 128, 8, seed=3, s=0.9, lambda_hat=0.7,
                              x=x, y=y, variant="coeff"),
        lambda: hz.deviation_tail_sums(reference_spec, 1.0, 2.0, 0.5, 128, 8, seed=3,
                                       lambda_hat=0.7, x=x),
        lambda: hz.functional_sweep(reference_spec, range(1, 65), 8, 3,
                                    functionals=("sigma", "coeff"), x=x, y=y, chunk=2),
    ]
    for call in calls:
        made.clear()
        call()
        assert len(made) <= 2


def test_point_of_wrong_dimension_is_named(reference_spec):
    from conewalk.estimators import estimate_lyapunov

    bad = (0.2, 0.3, 0.5)
    with pytest.raises(ValueError, match="x has dimension 3, expected 2"):
        hz.asip_proxy(reference_spec, 16, 4, s=1.0, lambda_hat=0.5, x=bad)
    with pytest.raises(ValueError, match="y has dimension 3, expected 2"):
        hz.functional_sweep(reference_spec, [4], 4, 1, functionals=("coeff",), y=bad)
    with pytest.raises(ValueError, match="x has dimension 3, expected 2"):
        hz.deviation_tail_sums(reference_spec, 1.0, 2.0, 0.5, 8, 4, lambda_hat=0.5, x=bad)
    with pytest.raises(ValueError, match="start has dimension 3, expected 2"):
        estimate_lyapunov(reference_spec, 4, 4, start=bad)


class TestDeviation:
    def test_deterministic_spec_probabilities_vanish(self):
        lam = float(np.log(spectral_radius([[2.0, 1.0], [1.0, 1.0]])))
        rep = hz.deviation_tail_sums(SINGLE, 1.0, 2.0, 0.5, 128, 50, seed=14,
                                     lambda_hat=lam)
        assert rep.probabilities[-1] == 0.0
        assert rep.verdict == "pass"

    def test_reference_partial_sums_stabilize_small(self, reference_spec):
        rep = hz.deviation_tail_sums(reference_spec, 1.0, 2.0, 0.75, 256, 2000,
                                     seed=15, record_every=16)
        assert rep.verdict == "pass"
        increments = np.diff(rep.partial_sums)
        assert increments[-1] <= rep.floor

    def test_coefficient_variant(self, reference_spec):
        rep = hz.deviation_tail_sums(reference_spec, 1.0, 2.0, 1.0, 256, 2000,
                                     seed=16, variant="coefficient")
        assert rep.verdict == "pass"

    def test_coefficient_stat_uses_extreme_entries(self, reference_spec):
        # oracle: the bilinear form over simplex pairs spans exactly the
        # range between the smallest and largest matrix entry
        from conewalk.estimators import BatchedProducts

        batch = BatchedProducts(reference_spec, 99, 200)
        batch.run(16)
        rng = np.random.default_rng(0)
        xs = rng.dirichlet(np.ones(2), size=200)
        ys = rng.dirichlet(np.ones(2), size=200)
        vals = np.einsum("ki,rij,kj->rk", ys, batch.P, xs)
        lo = np.exp(batch.log_min_entry() - batch.log_scale)
        hi = np.exp(batch.log_max_entry() - batch.log_scale)
        assert np.all(vals <= hi[:, None] + 1e-12)
        assert np.all(vals >= lo[:, None] - 1e-12)
        verts = np.eye(2)
        vvals = np.einsum("ki,rij,lj->rkl", verts, batch.P, verts).reshape(200, -1)
        assert np.allclose(vvals.max(axis=1), hi, atol=1e-12)
        assert np.allclose(vvals.min(axis=1), lo, atol=1e-12)

    def test_alpha_validation(self, reference_spec):
        with pytest.raises(ValueError):
            hz.deviation_tail_sums(reference_spec, 0.4, 2.0, 0.5, 16, 10)
        with pytest.raises(ValueError):
            hz.deviation_tail_sums(reference_spec, 0.6, 1.0, 0.5, 16, 10)

    def test_rejects_empty_step_range(self, reference_spec):
        with pytest.raises(ValueError, match="n_max"):
            hz.deviation_tail_sums(reference_spec, 1.0, 2.0, 0.5, 0, 10, lambda_hat=0.5)


class TestFixtures:
    def test_fixture_a_weights_and_atoms(self):
        fixture_a, _ = hz.pathology_fixtures()
        assert fixture_a.weights[0] == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert len(fixture_a.atoms) == 1 + hz.FIXTURE_A_TRUNCATION
        assert sum(fixture_a.weights) == pytest.approx(1.0, abs=1e-12)
        # diagonal family really is diag(1, 2^-k)
        assert fixture_a.atoms[3].entries[1, 1] == 2.0 ** -3

    def test_fixture_b_exact_probability_matches_enumeration(self):
        # independent oracle: all 2^n index words, zero pattern of the word
        _, fixture_b = hz.pathology_fixtures()
        atoms = [a.entries for a in fixture_b.atoms]
        for n in (1, 2, 3, 4):
            total = 0.0
            for code in range(2 ** n):
                prod = np.eye(2)
                for bit in range(n):
                    prod = atoms[(code >> bit) & 1] @ prod
                if prod[0, 1] == 0.0:
                    total += 0.5 ** n
            assert hz.fixture_b_exact_zero_probability(n) == pytest.approx(total, abs=1e-15)
        assert hz.fixture_b_exact_zero_probability(3) == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_fixture_b_exact_probability_matches_word_loop(self):
        # the one-matmul-per-word loop, kept as the reference
        _, fixture_b = hz.pathology_fixtures()
        atoms = fixture_b.atom_array()
        weights = np.asarray(fixture_b.weights)
        for n in range(1, 9):
            total = 0.0
            for code in range(len(weights) ** n):
                prod, w, c = np.eye(2), 1.0, code
                for _ in range(n):
                    idx = c % len(weights)
                    c //= len(weights)
                    prod = atoms[idx] @ prod
                    w *= weights[idx]
                if prod[0, 1] == 0.0:
                    total += w
            assert abs(hz.fixture_b_exact_zero_probability(n) - total) <= 1e-15

    def test_fixture_b_monte_carlo_matches_oracle(self):
        frac, se = hz.fixture_b_zero_fraction(3, 20000, seed=17)
        assert abs(frac - 1.0 / 8.0) <= 3.0 * se

    def test_fixture_a_heavy_tail_flagged_while_norm_stable(self):
        rep = hz.fixture_a_report(n_values=(2, 3, 4), replicas=20000, seed=18)
        assert rep.heavy_tail_flag
        assert rep.lambda_stable
        assert max(rep.v_excess_kurtosis) > 10.0
        # the lower-gauge mean sits well below its median: outliers drag it
        assert any(m < med for m, med in zip(rep.v_mean, rep.v_median))


def reference_gap_check(spec, n_max, paths, seed=0):
    """The one-path dense loop of ``coefficient_gap_check``, kept as its
    reference; draws and classifier level follow the spec's transpose view."""
    level = min(g_delta_level(a) for a in spec.atom_array())
    n0 = int(np.ceil(1.0 / level))
    worst = -np.inf
    for path in range(paths):
        stream = rngmod.derived_stream(seed, Purpose.GAP_PATH, path)
        draws = [sample_matrix(spec, stream).entries for _ in range(n_max)]
        prod = np.eye(spec.d)
        for n in range(1, n_max + 1):
            prod = draws[n - 1] @ prod
            if n < 2:
                continue
            lhs = float(np.log(np.min(prod / prod.sum(axis=0))))
            suffix = np.eye(spec.d)
            worst_suffix = np.inf
            for ell in range(n - 1, 0, -1):
                suffix = draws[ell].T @ suffix
                scs = suffix.sum(axis=0)
                worst_suffix = min(worst_suffix,
                                   float(np.log(scs.min()) - np.log(scs.max())))
            worst = max(worst, -np.log(n0) + worst_suffix - lhs)
    return worst


class TestCoefficientGap:
    def test_pinned_against_dense_reference(self, reference_spec):
        worst = hz.coefficient_gap_check(reference_spec, 48, 100, seed=19)
        assert abs(worst - reference_gap_check(reference_spec, 48, 100, seed=19)) <= 1e-12

    def test_transpose_view_draws_and_level(self, reference_spec):
        view = reference_spec.transposed()  # its third atom is not symmetric
        worst = hz.coefficient_gap_check(view, 20, 10, seed=1)
        assert abs(worst - reference_gap_check(view, 20, 10, seed=1)) <= 1e-12
        assert worst != hz.coefficient_gap_check(reference_spec, 20, 10, seed=1)

    def test_reference_bound_holds_pathwise(self, reference_spec):
        worst = hz.coefficient_gap_check(reference_spec, 48, 100, seed=19)
        assert worst <= 1e-9

    def test_dense_recomputation_cap(self, reference_spec):
        with pytest.raises(ValueError):
            hz.coefficient_gap_check(reference_spec, 65, 1)

    def test_rejects_empty_path_set(self, reference_spec):
        with pytest.raises(ValueError, match="paths"):
            hz.coefficient_gap_check(reference_spec, 8, 0)


def test_reference_spec_sanity(reference_spec):
    from conewalk.walk import detect_contraction

    assert all(a.is_strictly_positive for a in reference_spec.atoms)
    assert detect_contraction(reference_spec, 2, 64, seed=20).r == 1
