import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from conewalk import estimators
from conewalk import harness as hz
from conewalk import rng as rngmod
from conewalk.estimators import BatchedProducts, coupling_decay
from conewalk.measures import MeasureSpec
from conewalk.posmat import AllowableMatrix, _step, perron_vector, spectral_radius
from conewalk.rng import Purpose
from conewalk.simplex import as_point

SINGLE = MeasureSpec.single_atom(AllowableMatrix([[2.0, 1.0], [1.0, 1.0]]))


_real_chunk = hz._sweep_chunk


def _failing_chunk(spec, seed, size, key, *rest):
    # patched over hz._sweep_chunk, which forked workers inherit
    if key == 1:
        raise RuntimeError(f"chunk {key} failed")
    return _real_chunk(spec, seed, size, key, *rest)


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

    def test_statistic_equals_the_absolute_gap_formula(self):
        # the statistic used to take max |hi - f| and max |lo - f| over two
        # step arrays; its one-sided maxima must give the same floats
        def absolute_gaps(sample, cdf, minus_inf):
            z = np.sort(np.asarray(sample, dtype=float))
            n = z.size + minus_inf
            f = cdf(z)
            hi = (minus_inf + np.arange(1, z.size + 1)) / n
            lo = (minus_inf + np.arange(0, z.size)) / n
            d = max(float(np.max(np.abs(hi - f))), float(np.max(np.abs(lo - f))))
            return max(d, minus_inf / n) if minus_inf else d

        rng = np.random.default_rng(5)
        for size in [1] * 30 + rng.integers(2, 2000, 600).tolist():
            z = rng.normal(size=size) * rng.uniform(0.3, 3.0)
            if rng.random() < 0.3:
                z = np.round(z, 1)  # ties
            minus_inf = int(rng.integers(0, 3))
            assert hz.ks_statistic(z, ndtr, minus_inf) == absolute_gaps(z, ndtr, minus_inf)


class TestPhi:
    """The harness's own Phi against scipy.special.ndtr, which runs Cephes'
    C code for the same branches."""

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0, 10.0, 30.0])
    def test_matches_scipy_on_sorted_points(self, scale):
        t = np.sort(np.random.default_rng(int(10 * scale)).normal(size=10**6) * scale)
        ours, ref = hz._ndtr(t), ndtr(t)
        assert np.max(np.abs(ours - ref)) <= 2.3e-16
        tail = (t < 0) & (ref >= 1e-300)
        assert np.max(np.abs(ours[tail] - ref[tail]) / ref[tail]) <= 1e-15

    def test_lower_tail_is_relatively_close(self):
        t = -np.logspace(np.log10(38.0), -3, 10**5)  # Phi(-38) is about 3e-317
        ours, ref = hz._ndtr(t), ndtr(t)
        tail = ref >= 1e-300
        assert tail.sum() > 9 * 10**4
        assert np.max(np.abs(ours[tail] - ref[tail]) / ref[tail]) <= 1e-15

    def test_branch_edges_and_their_neighbours(self):
        # the branches switch at |t / sqrt 2| = 1/sqrt 2 (Cephes' older cut), 1 and 8
        edges = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0)])
        points = [np.concatenate([edges, -edges])]
        for toward in (np.inf, -np.inf):
            near = points[0]
            for _ in range(3):
                near = np.nextafter(near, toward)
                points.append(near)
        t = np.sort(np.concatenate(points))
        assert np.max(np.abs(hz._ndtr(t) - ndtr(t))) <= 2.3e-16

    def test_signed_zeros_infinities_and_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hz._ndtr(np.array([-np.inf, -0.0, 0.0, np.inf, np.nan]))
        assert out[:4].tolist() == [0.0, 0.5, 0.5, 1.0]
        assert np.isnan(out[4])

    def test_ks_to_gaussian_agrees_with_scipy_phi(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            z = rng.normal(size=int(rng.integers(1, 5000))) * rng.uniform(0.3, 3.0)
            s, minus_inf = rng.uniform(0.2, 3.0), int(rng.integers(0, 3))
            ref = hz.ks_statistic(z, lambda t: ndtr(t / s), minus_inf=minus_inf)
            assert abs(hz.ks_to_gaussian(z, s, minus_inf) - ref) <= 4.5e-16


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

    def test_matches_the_pair_loop(self):
        rng = np.random.default_rng(31)
        for case in range(600):
            m = case % 9  # 0 and 1 hold no pair
            xs = rng.permutation(m) + rng.uniform(0.0, 0.5, m)
            ys = rng.integers(0, 4, m).astype(float)  # ties
            if m and case % 3 == 0:
                ys[rng.integers(m)] = np.nan
            bands = rng.uniform(0.0, 1.5, m)
            assert hz.kendall_tau_banded(xs, ys, bands) == kendall_tau_loop(xs, ys, bands)

    def test_bands_only_turn_pairs_into_ties(self):
        rng = np.random.default_rng(32)
        xs = rng.permutation(12).astype(float)
        ys = rng.integers(0, 5, 12).astype(float)
        raw, banded = hz.kendall_tau_banded(xs, ys, np.zeros(12))
        assert banded == raw  # a tie fails |dy| > 0 and counts for neither sign
        assert hz.kendall_tau_banded(xs, ys, np.full(12, np.inf)) == (raw, 0.0)

    def test_nan_difference_counts_as_a_tie(self):
        # 3 pairs hold the nan, the other 3 rise: tau is 3 / 6 either way
        assert hz.kendall_tau_banded([1, 2, 3, 4], [1.0, np.nan, 2.0, 3.0],
                                     [0.0] * 4) == (0.5, 0.5)
        assert hz.kendall_tau_banded([5.0], [1.0], [0.0]) == (0.0, 0.0)


def kendall_tau_loop(xs, ys, bands):
    """The pair loop that ``kendall_tau_banded`` replaced, kept as its
    reference: a nan difference counts for neither sign."""
    order = np.argsort(np.asarray(xs, dtype=float))
    ys, bands = np.asarray(ys, dtype=float)[order], np.asarray(bands, dtype=float)[order]
    raw = banded = pairs = 0
    for i in range(ys.size - 1):
        for j in range(i + 1, ys.size):
            pairs += 1
            dy = float(ys[j] - ys[i])
            raw += int(dy > 0) - int(dy < 0)
            if abs(dy) > bands[i] + bands[j]:
                banded += int(dy > 0) - int(dy < 0)
    if pairs == 0:
        return 0.0, 0.0
    return raw / pairs, banded / pairs


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
        # documented layout: chunk k of the replicas runs on stream (seed, FORWARD, k)
        norms = []
        for k, start in enumerate(range(0, replicas, chunk)):
            stream = rngmod.derived_stream(seed, Purpose.FORWARD, k)
            batch = BatchedProducts(spec, stream, min(chunk, replicas - start))
            batch.run(6)
            norms.append(batch.log_norm())
        assert np.array_equal(one.samples[("norm", 6)], np.concatenate(norms))

    def test_no_worker_outlives_the_sweep(self, reference_spec):
        hz.functional_sweep(reference_spec, [4], 40, seed=3, chunk=10, threads=2)
        assert multiprocessing.active_children() == []

    def test_caller_receives_the_chunks_without_helper_threads(self, reference_spec,
                                                                monkeypatch):
        def no_threads(self):
            raise AssertionError("the sweep started a thread in the caller")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        kw = dict(n_grid=[4], replicas=40, seed=3, chunk=10, functionals=("norm",))
        par = hz.functional_sweep(reference_spec, threads=3, **kw)
        monkeypatch.undo()
        seq = hz.functional_sweep(reference_spec, threads=1, **kw)
        assert np.array_equal(seq.samples[("norm", 4)], par.samples[("norm", 4)])
        assert multiprocessing.active_children() == []

    def test_chunk_error_reaches_caller_and_workers_exit(self, reference_spec, monkeypatch):
        monkeypatch.setattr(hz, "_sweep_chunk", _failing_chunk)
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            hz.functional_sweep(reference_spec, [4], 40, seed=3, chunk=10, threads=2)
        assert multiprocessing.active_children() == []

    def test_spawned_workers_match_in_process_run(self, reference_spec, monkeypatch):
        used = []

        def get_context(method=None):
            used.append(method)
            return ctx(method)

        ctx = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        kw = dict(n_grid=[2, 5], replicas=7, seed=11, chunk=3,
                  functionals=("sigma", "norm", "kappa"))
        spawned = hz.functional_sweep(reference_spec, threads=2, **kw)
        assert used == ["spawn"]
        inline = hz.functional_sweep(reference_spec, threads=1, **kw)
        for key, vals in inline.samples.items():
            assert np.array_equal(vals, spawned.samples[key])
        assert inline.lambda_hat == spawned.lambda_hat
        assert inline.ordering_violation == spawned.ordering_violation
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [0, -5])
    def test_rejects_threads_below_one_before_drawing(self, reference_spec,
                                                      monkeypatch, threads):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking threads")

        monkeypatch.setattr(hz, "BatchedProducts", no_draws)
        monkeypatch.setattr(hz, "moment_sanity", no_draws)
        with pytest.raises(ValueError, match="threads"):
            hz.functional_sweep(reference_spec, [4], 10, 0, threads=threads)
        with pytest.raises(ValueError, match="threads"):
            hz.berry_esseen_fit(reference_spec, "sigma", 3.0, [4, 8], 10,
                                threads=threads)

    def test_rejects_empty_replica_set(self, reference_spec):
        with pytest.raises(ValueError, match="replicas"):
            hz.functional_sweep(reference_spec, [4], 0, 0)
        for chunk in (0, -3):
            with pytest.raises(ValueError, match="chunk"):
                hz.functional_sweep(reference_spec, [4], 10, 0, chunk=chunk)

    def test_rejects_empty_grid(self, reference_spec):
        with pytest.raises(ValueError, match="n_grid"):
            hz.functional_sweep(reference_spec, [], 10, 0)

    def test_rejects_a_repeated_step(self, reference_spec):
        # a repeated step used to count twice in the fits: coupling decay on
        # [4, 4] read r_squared = 1 from one distinct step
        for call in (lambda: hz.functional_sweep(reference_spec, [8, 8, 16], 10, 0),
                     lambda: hz.berry_esseen_fit(reference_spec, "sigma", 3.0, [8, 8, 16], 10),
                     lambda: coupling_decay(reference_spec, 1.0, [4, 4], 64)):
            with pytest.raises(ValueError, match="^n_grid repeats step "):
                call()

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

    @pytest.mark.parametrize("call", [
        lambda spec: hz.empirical_normality(spec, "sigma", 4, 1, 1.0),
        lambda spec: hz.berry_esseen_fit(spec, "sigma", 3.0, [2, 4], 1, check_moments=False),
    ], ids=["normality", "fit"])
    def test_one_replica_is_rejected_before_any_draw(self, reference_spec, monkeypatch,
                                                      call):
        # the plug-in scale of one replica is nan: the fit used to read it as
        # a degenerate law and pass, after two RuntimeWarnings
        monkeypatch.setattr(hz, "functional_sweep", None)
        with pytest.raises(ValueError, match=r"^replicas must be >= 2, got 1$"):
            call(reference_spec)

    def test_one_step_has_no_slope(self, reference_spec, monkeypatch):
        # one step has no rate: Kendall's tau over one point is 0, so the
        # fit used to pass any law on it; it is rejected before any draw
        monkeypatch.setattr(hz, "functional_sweep", None)
        with pytest.raises(ValueError, match=r"^n_grid must hold at least two steps "
                                             r"for a rate, got \[1\]$"):
            hz.berry_esseen_fit(reference_spec, "sigma", 3.0, [1], 3, check_moments=False)


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

    @pytest.mark.parametrize("eps", [0.0, -3.0, float("nan")])
    def test_rejects_nonpositive_eps(self, reference_spec, eps):
        with pytest.raises(ValueError, match="eps must be > 0"):
            hz.asip_proxy(reference_spec, 64, 10, eps=eps)


TWO_ATOMS_D3 = MeasureSpec.atomic([[[2.0, 1.0, 0.0], [0.5, 1.0, 1.0], [1.0, 0.0, 3.0]],
                                   [[1.0, 2.0, 1.0], [0.0, 1.0, 0.5], [4.0, 1.0, 1.0]]],
                                  [0.25, 0.75])

# (spec, L): atomic specs that walk by words
WORD_SPECS = [
    (hz.reference_spec(), 8),
    (hz.reference_spec().transposed(), 8),
    (TWO_ATOMS_D3, 11),
    # beyond the counted atoms: L = 2, with searchsorted's intp indices
    (MeasureSpec.atomic(np.random.default_rng(5).lognormal(size=(80, 2, 2)),
                        np.arange(1, 81) / 3240.0), 2),
    (SINGLE, 13),
]
WORD_SPEC_IDS = ["reference", "reference-transposed", "two-atoms-d3", "eighty-atoms",
                 "single-atom"]


def word_walk_reference(spec, seed, n, replicas, x, y=None):
    """The cocycle walk of ``_cocycle_blocks`` written out atom by atom: per
    replica ceil(n / L) words from the stream (seed, FORWARD, 0), R uniforms
    per word, located by ``searchsorted`` in a word cdf built here from the
    weights; each word's L digits (digit k, base K, is draw k) stepped in turn
    by ``_step`` on one column from x.  Returns per step (n, R) the values
    sigma(A_k, x), or log <y, A_k x> when y is given."""
    length, k = spec._words[0], len(spec.atoms)
    digits = np.arange(k ** length) // k ** np.arange(length)[:, None] % k  # (L, K**L)
    weights = np.ones(k ** length)
    for row in digits:  # the newer draw's weight is the left factor
        weights = np.asarray(spec.weights)[row] * weights
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    atoms = spec.atom_array().transpose(1, 2, 0)
    stream = rngmod.derived_stream(seed, Purpose.FORWARD, 0)
    state = np.broadcast_to(np.asarray(x, dtype=float)[:, None, None], (spec.d, 1, replicas))
    total, vals = np.zeros(replicas), []
    for _ in range(-(-n // length)):
        word = cdf.searchsorted(stream.random(replicas), side="right")
        for i in digits[:, word]:
            state, scale = _step(atoms[:, :, i], state)
            total = total + np.log(scale)
            vals.append(total if y is None else total + np.log(np.asarray(y) @ state[:, 0]))
    return np.array(vals[:n])


def running_maxima(vals, lam):
    """max over j <= k of |vals[j - 1] - j lam| for each step k, as (n, R)."""
    steps = np.arange(1, len(vals) + 1)[:, None]
    return np.maximum.accumulate(np.abs(vals - steps * lam), axis=0)


def step_walk_values(spec, seed, n, replicas, x, y=None):
    """(word_len, values) of the walk of ``_cocycle_blocks``, as one (n, R) array."""
    yp = None if y is None else as_point(y, spec.d, "y")
    word_len, blocks = hz._cocycle_blocks(spec, seed, as_point(x, spec.d, "x"), n,
                                          replicas, yp)
    return word_len, np.concatenate([vals for _, vals in blocks])


class TestVectorWalkAgainstBatchedProducts:
    """The cocycle walk of ``asip_proxy`` and the deviation sums against
    written-out references.  Atomic specs with words walk by words: against
    their contract written out with ``searchsorted`` and L single ``_step``s
    per word (``word_walk_reference``) on the same uniforms, where a word's
    product is taken once, so the floats move by rounding only.  Specs
    without words walk step by step, bit for bit."""

    N, R, LAM, S, EPS = 4096, 64, 0.5, 0.9, 0.2
    X, Y = (0.3, 0.7), (0.6, 0.4)

    @pytest.mark.parametrize("variant", ["sigma", "coeff"])
    def test_asip_proxy(self, reference_spec, variant):
        rep = hz.asip_proxy(reference_spec, self.N, self.R, seed=21, eps=self.EPS,
                            s=self.S, lambda_hat=self.LAM, variant=variant,
                            x=self.X, y=self.Y)
        vals = word_walk_reference(reference_spec, 21, self.N, self.R, self.X,
                                   self.Y if variant == "coeff" else None)
        maxima = running_maxima(vals, self.LAM)
        scale = np.sqrt(2.0 * self.S ** 2 * self.N * np.log(np.log(self.N)))
        assert rep.word_len == 8
        assert rep.envelope_quantile_99 == pytest.approx(
            np.quantile(maxima[-1] / scale, 0.99), rel=1e-12, abs=0)
        assert rep.envelope_fraction == np.mean(maxima[-1] <= (1.0 + self.EPS) * scale)
        marks = [2 ** j for j in range(6, 13)]
        assert [k for k, _ in rep.block_ks] == marks[1:]
        for (k, ks), prev in zip(rep.block_ks, marks):
            z = (vals[k - 1] - vals[prev - 1] - (k - prev) * self.LAM) / np.sqrt(k - prev)
            assert ks == pytest.approx(hz.ks_to_gaussian(z, self.S), rel=1e-9)

    def test_cocycle_deviations(self, reference_spec):
        rep = hz.deviation_tail_sums(reference_spec, 1.0, 2.0, 0.05, self.N, self.R,
                                     seed=22, lambda_hat=self.LAM, x=self.X)
        maxima = running_maxima(word_walk_reference(reference_spec, 22, self.N, self.R,
                                                    self.X), self.LAM)
        ns = np.arange(1, self.N + 1)
        probs = [float(np.mean(m >= 0.05 * n)) for n, m in zip(ns, maxima)]
        assert rep.word_len == 8
        assert rep.probabilities == tuple(probs)
        assert 0 < probs[-1] < 1
        assert np.allclose(rep.partial_sums, np.cumsum(probs), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec, length", WORD_SPECS, ids=WORD_SPEC_IDS)
    @pytest.mark.parametrize("n", [1, 5, 37, 1001])
    @pytest.mark.parametrize("variant", ["sigma", "coeff"])
    def test_every_step_matches_the_reference(self, spec, length, n, variant):
        # n = 1, 5 and 37 end inside a word for every spec here; 1001 = 7 * 11 * 13
        # takes several blocks of words at R = 64, whole words for L = 11 and 13
        x = np.linspace(1.0, 2.0, spec.d) / np.linspace(1.0, 2.0, spec.d).sum()
        y = np.linspace(2.0, 1.0, spec.d) / np.linspace(2.0, 1.0, spec.d).sum()
        y = y if variant == "coeff" else None
        word_len, vals = step_walk_values(spec, 23, n, 64, x, y)
        assert word_len == length
        assert vals.shape == (n, 64)
        np.testing.assert_allclose(vals, word_walk_reference(spec, 23, n, 64, x, y),
                                   rtol=1e-12, atol=0)

    def test_word_walk_has_the_law_of_the_step_walk(self, reference_spec):
        # sigma(A_n, x) and max_{k <= n} |sigma(A_k, x) - k lam| at n = 67, which
        # ends inside the ninth word, from the word walk and the step walk on
        # separate streams
        n, R, lam, x = 67, 2 ** 14, 0.54, as_point(self.X, 2, "x")
        word_len, words = step_walk_values(reference_spec, 24, n, R, self.X)
        stepped = np.concatenate([vals for _, vals in hz._step_blocks(
            reference_spec, rngmod.derived_stream(25, Purpose.FORWARD, 0), x, n, R, None)])
        assert word_len == 8
        for a, b in [(words[-1], stepped[-1]),
                     (running_maxima(words, lam)[-1], running_maxima(stepped, lam)[-1])]:
            se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(R)
            assert abs(a.mean() - b.mean()) <= 3 * se
            assert stats.ks_2samp(a, b).pvalue > 0.01

    @pytest.mark.parametrize("spec", [MeasureSpec.parametric("lognormal", 2, mu=0.0, sigma=0.8),
                                      MeasureSpec.parametric("uniform", 3, lo=0.0, hi=1.0),
                                      hz.pathology_fixtures()[0]],
                             ids=["lognormal-d2", "uniform-d3", "fixture-a"])
    @pytest.mark.parametrize("variant", ["sigma", "coeff"])
    def test_specs_without_words_walk_step_by_step(self, spec, variant):
        # bit for bit the step walk written out on ``_forward_blocks``, with
        # the running sums of np.cumsum and one dot product per step
        n, R, lam, eps, s = 700, 40, 0.6, 0.2, 0.9
        x = np.full(spec.d, 1.0 / spec.d)
        y = np.zeros(spec.d)
        y[1:] = 1.0 / (spec.d - 1)  # a zero weight: log <y, v> may be -inf
        rep = hz.asip_proxy(spec, n, R, seed=26, eps=eps, s=s, lambda_hat=lam,
                            variant=variant, x=x, y=y)
        stream = rngmod.derived_stream(26, Purpose.FORWARD, 0)
        start = np.broadcast_to(x[:, None, None], (spec.d, 1, R))
        vals, total = [], np.zeros(R)
        for incs, dirs, _ in estimators._forward_blocks(spec, stream, start, n):
            incs[0] += total
            total = np.cumsum(incs, axis=0, out=incs)[-1]
            if variant == "coeff":
                with np.errstate(divide="ignore"):
                    incs = incs + np.log([y @ v[:, 0] for v in dirs])
            vals.append(incs)
        vals = np.concatenate(vals)
        maxima = running_maxima(vals, lam)
        scale = np.sqrt(2.0 * s * s * n * np.log(np.log(n)))
        assert rep.word_len == 1 and rep.exact_fraction == 1.0
        assert rep.envelope_quantile_99 == np.quantile(maxima[-1] / scale, 0.99)
        assert rep.envelope_fraction == np.mean(maxima[-1] <= (1.0 + eps) * scale)
        marks = [64, 128, 256, 512]
        assert [k for k, _ in rep.block_ks] == marks[1:]
        for (k, ks), prev in zip(rep.block_ks, marks):
            z = (vals[k - 1] - vals[prev - 1] - (k - prev) * lam) / np.sqrt(k - prev)
            assert ks == hz.ks_to_gaussian(z, s)
        if variant == "sigma":
            dev = hz.deviation_tail_sums(spec, 1.0, 2.0, 0.3, n, R, seed=26,
                                         lambda_hat=lam, x=x)
            probs = [float(np.mean(m >= 0.3 * k)) for k, m in enumerate(maxima, 1)]
            assert dev.word_len == 1
            assert dev.probabilities == tuple(probs)


def check_pruned_read(spec, seed, n, replicas, x, y=None, lam=None):
    """The record-pruned read of ``asip_proxy`` against every value of the
    walk of ``_cocycle_blocks``, bit for bit: the running maxima at n and the
    values at the marks, here every power of two up to n.  The drift is by
    default the walk's own mean sigma(A_n, x) / n, so that most words can be
    skipped.  Returns the share of (word, replica) pairs computed."""
    if lam is None:
        lam = float(step_walk_values(spec, seed, n, replicas, x)[1][-1].mean() / n)
    _, vals = step_walk_values(spec, seed, n, replicas, x, y)
    marks = [2 ** j for j in range(n.bit_length())]
    yp = None if y is None else as_point(y, spec.d, "y")
    _, maxima, at_marks, exact = hz._asip_read(spec, seed, as_point(x, spec.d, "x"), n,
                                               replicas, yp, lam, marks)
    assert np.array_equal(maxima, running_maxima(vals, lam)[-1])
    assert sorted(at_marks) == marks
    for m in marks:
        assert np.array_equal(at_marks[m], vals[m - 1])
    return exact


@st.composite
def word_walk_cases(draw):
    """An atomic spec of 1 to 3 atoms in dimension 2 to 4 with exact zeros
    (entries 0 or in [1/4, 4], plus 1 on a permutation pattern so that every
    atom is allowable), a start x and a weight row y on the simplex that may
    sit on its boundary, and a step count n."""
    d, k = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    entries = st.lists(st.one_of(st.just(0.0), st.floats(0.25, 4.0)),
                       min_size=d * d, max_size=d * d)
    atoms = []
    for _ in range(k):
        atom = np.reshape(draw(entries), (d, d))
        atom[np.arange(d), draw(st.permutations(range(d)))] += 1.0
        atoms.append(atom)
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    spec = MeasureSpec.atomic(atoms, weights / weights.sum())
    point = st.lists(st.one_of(st.just(0.0), st.floats(0.1, 1.0)), min_size=d, max_size=d)
    x, y = (np.array(draw(point.filter(any))) for _ in range(2))
    return spec, x / x.sum(), y / y.sum(), draw(st.integers(3, 400))


class TestRecordPrunedRead:
    """``asip_proxy`` on the word walk computes a (word, replica) pair's steps
    only when its bound max(c + hi_w, -(c + lo_w)) can pass the running
    maximum; the maxima and the marks must still equal those of every step
    of the walk bit for bit."""

    @pytest.mark.parametrize("spec, length", WORD_SPECS, ids=WORD_SPEC_IDS)
    @pytest.mark.parametrize("n", [3, 5, 37, 1001])
    @pytest.mark.parametrize("variant", ["sigma", "coeff"])
    def test_maxima_and_marks_match_the_full_walk(self, spec, length, n, variant):
        assert spec._words[0] == length
        x = np.linspace(1.0, 2.0, spec.d) / np.linspace(1.0, 2.0, spec.d).sum()
        y = np.linspace(2.0, 1.0, spec.d) / np.linspace(2.0, 1.0, spec.d).sum()
        check_pruned_read(spec, 23, n, 64, x, y if variant == "coeff" else None)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("variant", ["sigma", "coeff"])
    def test_far_scaled_atoms(self, reference_spec, scale, variant):
        # the logs run near +-460 per step, sigma near +-4.6e5 at n = 1001
        spec = MeasureSpec.atomic(reference_spec.atom_array() * scale, reference_spec.weights)
        assert check_pruned_read(spec, 28, 1001, 64, (0.3, 0.7),
                                 (0.6, 0.4) if variant == "coeff" else None) < 1.0

    def test_zero_weight_gives_minus_inf(self):
        # from the vertex e_1, <e_2, A_k x> vanishes on 44 of the 64 replicas
        # at some step: their running maximum is +inf
        x, y = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        _, vals = step_walk_values(TWO_ATOMS_D3, 23, 1001, 64, x, y)
        assert np.isneginf(vals).any(axis=0).sum() == 44
        check_pruned_read(TWO_ATOMS_D3, 23, 1001, 64, x, y)

    def test_attained_bounds(self):
        # both columns of the atom sum to 2, so <1, P_l v> is the same at every
        # v and lo_w <= value - sigma(A_{k0}, x) - l lam <= hi_w is tight on
        # either side: at lam a hair below log 2 the deviation k (log 2 - lam)
        # grows by 1e-6 a step, so every word passes the running maximum by
        # less than 2e-5, and the last, unfinished word's steps past n would
        # pass it too
        spec = MeasureSpec.single_atom([[1.2, 0.5], [0.8, 1.5]])
        n = 4001  # 307 words of 13 steps and 10 steps of the next
        assert check_pruned_read(spec, 32, n, 8, (0.3, 0.7), lam=np.log(2.0) - 1e-6) == 1.0

    def test_most_pairs_are_skipped_near_the_drift(self, reference_spec):
        # at the walk's own drift the running maxima soon outgrow most words'
        # bounds
        exact = check_pruned_read(reference_spec, 29, 4096, 64, (0.3, 0.7))
        assert 0.0 < exact < 0.5

    @settings(max_examples=40, deadline=None)
    @given(case=word_walk_cases(), variant=st.sampled_from(["sigma", "coeff"]))
    def test_random_atomic_specs(self, case, variant):
        spec, x, y, n = case
        check_pruned_read(spec, 30, n, 8, x, y if variant == "coeff" else None)

    @pytest.mark.parametrize("spec, length", [WORD_SPECS[0], WORD_SPECS[2]],
                             ids=["reference", "two-atoms-d3"])
    @pytest.mark.parametrize("variant", ["sigma", "coeff"])
    def test_every_step_lies_inside_its_words_bounds(self, spec, length, variant):
        # the paper's log v(g) <= sigma(g, x) <= log N(g), on each prefix of a
        # word: step l of word w, from sigma(A_{k0}, x), deviates by value -
        # sigma(A_{k0}, x) - l lam in [lo_w, hi_w]; the values are the
        # reference's, written out step by step
        n, R, lam = 40 * length, 32, 0.5
        x = np.linspace(1.0, 2.0, spec.d) / np.linspace(1.0, 2.0, spec.d).sum()
        y = np.linspace(2.0, 1.0, spec.d) / np.linspace(2.0, 1.0, spec.d).sum()
        y = y if variant == "coeff" else None
        walk = hz._cocycle_blocks(spec, 31, as_point(x, spec.d, "x"), n, R,
                                  None if y is None else as_point(y, spec.d, "y"))[1]
        hi, lo = walk.bounds(lam)
        words = np.concatenate([w for _, w, _, _ in walk._blocks()])  # (n / L, R)
        sigma = word_walk_reference(spec, 31, n, R, x)
        starts = np.concatenate([np.zeros((1, R)), sigma[length - 1:-1:length]])
        steps = np.arange(1, length + 1)[:, None]
        dev = word_walk_reference(spec, 31, n, R, x, y).reshape(-1, length, R)
        dev -= starts[:, None] + steps * lam
        assert np.isfinite(dev).all()
        assert (dev <= hi[words][:, None] + 1e-9).all()
        assert (dev >= lo[words][:, None] - 1e-9).all()


@pytest.mark.parametrize("spec, length", WORD_SPECS, ids=WORD_SPEC_IDS)
def test_word_block_schedule_moves_no_value(spec, length, monkeypatch):
    # _forward_blocks in word mode draws word t of replica i as uniform t * R + i
    # and keeps every log sum in order, so one word per block must give leap
    # and the cocycle walk bit for bit what block_steps' schedule gives
    n, R, lam = 1001, 64, 0.5
    x = np.linspace(1.0, 2.0, spec.d) / np.linspace(1.0, 2.0, spec.d).sum()
    xp, yp = as_point(x, spec.d, "x"), as_point(x[::-1], spec.d, "y")
    marks = [2 ** j for j in range(n.bit_length())]

    def reads():
        batch = BatchedProducts(spec, rngmod.derived_stream(33, Purpose.FORWARD, 0), R)
        batch.leap(n)
        batch.leap(37)
        out = [batch.P.copy(), batch.log_scale.copy()]
        for y in (None, yp):
            walk = hz._cocycle_blocks(spec, 34, xp, n, R, y)[1]
            out.append(np.concatenate([vals for _, vals in walk]))
            _, maxima, at_marks, _ = hz._asip_read(spec, 34, xp, n, R, y, lam, marks)
            out += [maxima, *(at_marks[m] for m in marks)]
        return out, repr(batch.rng.bit_generator.state)

    def one_step(done, step_entries, remaining):
        blocks.append(remaining)
        return 1

    default, default_state = reads()
    blocks = []
    monkeypatch.setattr(estimators, "block_steps", one_step)
    one, one_state = reads()
    # every word of leap and of the four walks, and run's steps after leap's words
    assert len(blocks) == sum(divmod(n, length)) + sum(divmod(37, length)) + 4 * -(-n // length)
    assert one_state == default_state
    assert len(one) == len(default)
    for a, b in zip(one, default):
        assert np.array_equal(a, b)


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


def test_import_and_spec_construction_do_no_setup_work(tmp_path):
    # importing the package and its CLI loads no scipy, and the harness
    # imports its process pool only when a sweep forks one; a spec builds its
    # word tables only when a walk reads them
    code = """
import sys
import conewalk, conewalk.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m in ("multiprocessing", "concurrent.futures")))
"""
    src = str(Path(hz.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"
    path = tmp_path / "spec.json"
    hz.reference_spec().save(path)
    specs = [hz.reference_spec(), MeasureSpec.load(path)]
    assert all("_words" not in spec.__dict__ for spec in specs)
    hz.asip_proxy(specs[1], 16, 4, s=1.0, lambda_hat=0.5)
    assert "_words" in specs[1].__dict__ and "_words" not in specs[0].__dict__


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

    def test_coefficient_stat_uses_extreme_entries(self, reference_spec):
        # oracle: the bilinear form over simplex pairs is bounded below by the
        # smallest matrix entry, which a vertex pair attains (inf_coeff)
        from conewalk.estimators import BatchedProducts

        batch = BatchedProducts(reference_spec, rngmod.derived_stream(99, Purpose.FORWARD, 0), 200)
        batch.run(16)
        rng = np.random.default_rng(0)
        xs = rng.dirichlet(np.ones(2), size=200)
        ys = rng.dirichlet(np.ones(2), size=200)
        vals = np.einsum("ki,rij,kj->rk", ys, batch.P, xs)
        lo = np.exp(batch.log_min_entry() - batch.log_scale)
        assert np.all(vals >= lo[:, None] - 1e-12)
        verts = np.eye(2)
        vvals = np.einsum("ki,rij,lj->rkl", verts, batch.P, verts).reshape(200, -1)
        assert np.allclose(vvals.min(axis=1), lo, atol=1e-12)

    def test_alpha_validation(self, reference_spec):
        with pytest.raises(ValueError):
            hz.deviation_tail_sums(reference_spec, 0.4, 2.0, 0.5, 16, 10)
        with pytest.raises(ValueError):
            hz.deviation_tail_sums(reference_spec, 0.6, 1.0, 0.5, 16, 10)

    def test_rejects_empty_step_range(self, reference_spec):
        with pytest.raises(ValueError, match="n_max"):
            hz.deviation_tail_sums(reference_spec, 1.0, 2.0, 0.5, 0, 10, lambda_hat=0.5)
        for every in (0, -3):
            with pytest.raises(ValueError, match="record_every"):
                hz.deviation_tail_sums(reference_spec, 1.0, 2.0, 0.5, 8, 10,
                                       lambda_hat=0.5, record_every=every)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_eps(self, reference_spec, eps):
        with pytest.raises(ValueError, match="eps must be > 0"):
            hz.deviation_tail_sums(reference_spec, 1.0, 2.0, eps, 8, 10)


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

    def test_fixture_a_rejects_empty_products(self):
        for n_values in ((0, 2), (2, -1)):
            with pytest.raises(ValueError, match="n_values"):
                hz.fixture_a_report(n_values=n_values, replicas=10)


def test_reference_spec_sanity(reference_spec):
    from conewalk.walk import detect_contraction

    assert all(a.is_strictly_positive for a in reference_spec.atoms)
    assert detect_contraction(reference_spec, 2, 64, seed=20).r == 1


class TestInputChecksNameTheField:
    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan")])
    def test_deviation_rejects_nonpositive_p_before_the_presweep(self, reference_spec,
                                                                 monkeypatch, p):
        def no_sweep(*args, **kwargs):
            raise AssertionError("pre-sweep ran")

        monkeypatch.setattr(hz, "functional_sweep", no_sweep)
        with pytest.raises(ValueError, match="p must be > 0"):
            hz.deviation_tail_sums(reference_spec, 1.0, p, 0.5, 8, 10)

    @pytest.mark.parametrize("replicas", [1, 0])
    def test_fixture_a_rejects_fewer_than_two_replicas(self, replicas):
        with pytest.raises(ValueError, match=f"replicas must be >= 2, got {replicas}"):
            hz.fixture_a_report(replicas=replicas)

    # each call passes a non-integral count, which used to be truncated or
    # to fail inside range() or numpy
    NON_INTEGRAL = [
        ("functional_sweep", ([4.7], 10, 1), {}, "n_grid"),
        ("functional_sweep", ([4], 2.5, 1), {}, "replicas"),
        ("functional_sweep", ([4], 10, 1), {"threads": 1.5}, "threads"),
        ("functional_sweep", ([4], 10, 1), {"chunk": 2.5}, "chunk"),
        ("berry_esseen_fit", ("norm", 3.0, [4, 8.5], 10), {}, "n_grid"),
        ("berry_esseen_fit", ("norm", 3.0, [4], 10), {"threads": 2.5}, "threads"),
        ("asip_proxy", (100.5, 16), {"s": 1.0, "lambda_hat": 0.5}, "n"),
        ("asip_proxy", (100, 16.5), {"s": 1.0, "lambda_hat": 0.5}, "replicas"),
        ("deviation_tail_sums", (1.0, 2.0, 0.5, 8.5, 16), {"lambda_hat": 0.5}, "n_max"),
        ("deviation_tail_sums", (1.0, 2.0, 0.5, 8, 16.5), {"lambda_hat": 0.5}, "replicas"),
        ("deviation_tail_sums", (1.0, 2.0, 0.5, 8, 16),
         {"lambda_hat": 0.5, "record_every": 1.5}, "record_every"),
    ]
    @pytest.mark.parametrize("name, args, kwargs, field", NON_INTEGRAL,
                             ids=[f"{case[0]}-{case[3]}" for case in NON_INTEGRAL])
    def test_rejects_a_non_integral_count(self, reference_spec, name, args, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            getattr(hz, name)(reference_spec, *args, **kwargs)

    # each call names one field; every other argument is valid, s and
    # lambda_hat given so that nothing is estimated
    NON_FINITE = [
        ("asip_proxy", (64, 8), {"s": 1.0, "lambda_hat": 0.5}, "s"),
        ("asip_proxy", (64, 8), {"s": 1.0, "lambda_hat": 0.5}, "lambda_hat"),
        ("asip_proxy", (64, 8), {"s": 1.0, "lambda_hat": 0.5}, "eps"),
        ("deviation_tail_sums", (1.0, 2.0, 0.5, 8, 16), {"lambda_hat": 0.5}, "lambda_hat"),
        ("deviation_tail_sums", (1.0, 2.0), {"eps": 0.5, "n_max": 8, "replicas": 16,
                                             "lambda_hat": 0.5}, "eps"),
        ("empirical_normality", ("sigma", 4, 16), {"s": 1.0, "lambda_hat": 0.5}, "s"),
        ("empirical_normality", ("sigma", 4, 16), {"s": 1.0, "lambda_hat": 0.5},
         "lambda_hat"),
        ("berry_esseen_fit", ("sigma", 3.0, [2, 4], 16), {"s": 1.0, "lambda_hat": 0.5}, "s"),
        ("berry_esseen_fit", ("sigma", 3.0, [2, 4], 16), {"s": 1.0, "lambda_hat": 0.5},
         "lambda_hat"),
    ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name, args, kwargs, field", NON_FINITE,
                             ids=[f"{case[0]}-{case[3]}" for case in NON_FINITE])
    def test_rejects_a_non_finite_value_before_any_draw(self, reference_spec, monkeypatch,
                                                        name, args, kwargs, field, value):
        # deviation_tail_sums(lambda_hat=nan) and berry_esseen_fit(lambda_hat=nan)
        # used to pass, and asip_proxy(s=inf) or (eps=inf) to hold every replica
        for drawing in ("functional_sweep", "moment_sanity", "_cocycle_blocks",
                        "BatchedProducts"):
            monkeypatch.setattr(hz, drawing, None)
        with pytest.raises(ValueError, match=f"^{field} must be "):
            getattr(hz, name)(reference_spec, *args, **{**kwargs, field: value})

    @pytest.mark.parametrize("call, field", [
        (lambda: hz.fixture_a_report(n_values=(2, 2.5), replicas=10), "n_values"),
        (lambda: hz.fixture_a_report(replicas=10.5), "replicas"),
        (lambda: hz.fixture_b_zero_fraction(2.5, 10), "n"),
        (lambda: hz.fixture_b_exact_zero_probability(2.5), "n"),
    ], ids=["fixture_a-n_values", "fixture_a-replicas", "fixture_b-n", "fixture_b_exact-n"])
    def test_fixtures_reject_a_non_integral_count(self, call, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            call()

    @pytest.mark.parametrize("fixture_b_call", [hz.fixture_b_exact_zero_probability,
                                                lambda n: hz.fixture_b_zero_fraction(n, 10)],
                             ids=["exact", "sampled"])
    def test_fixture_b_rejects_an_empty_product(self, fixture_b_call):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0"):
            fixture_b_call(0)


class TestSweepLookupNamesTheField:
    """A given sweep that lacks a step or a functional is rejected with the
    argument's name and what the sweep did sample, not a KeyError."""

    @pytest.mark.parametrize("call, field", [
        (lambda spec, sweep: hz.empirical_normality(spec, "norm", 5, 100, 1.0, sweep=sweep), "n"),
        (lambda spec, sweep: hz.empirical_normality(spec, "sigma", 4, 100, 1.0, sweep=sweep),
         "functional"),
        (lambda spec, sweep: hz.berry_esseen_fit(spec, "norm", 3.0, [4, 16], 100, sweep=sweep),
         "n_grid"),
        (lambda spec, sweep: hz.berry_esseen_fit(spec, "v", 3.0, [4, 8], 100, sweep=sweep),
         "functional"),
    ], ids=["normality-n", "normality-functional", "fit-n_grid", "fit-functional"])
    def test_missing_lookup(self, reference_spec, call, field):
        sweep = hz.functional_sweep(reference_spec, [4, 8], 100, 1, functionals=("norm",))
        with pytest.raises(ValueError,
                           match=rf"^{field}: .* sampled steps \[4, 8\] of \['norm'\]$"):
            call(reference_spec, sweep)

    # a 2,000-replica sweep fitted with replicas=20 used to run, and a report
    # given replicas=7 read 7
    @pytest.mark.parametrize("call", [
        lambda spec, sweep: hz.empirical_normality(spec, "norm", 4, 7, 1.0, sweep=sweep),
        lambda spec, sweep: hz.berry_esseen_fit(spec, "norm", 3.0, [4, 8], 20, sweep=sweep),
    ], ids=["normality", "fit"])
    def test_replicas_are_the_sweeps(self, reference_spec, monkeypatch, call):
        def no_moments(*args, **kwargs):
            raise AssertionError("moment check ran")

        monkeypatch.setattr(hz, "moment_sanity", no_moments)
        sweep = hz.functional_sweep(reference_spec, [4, 8], 100, 1, functionals=("norm",))
        with pytest.raises(ValueError, match=r"^replicas: (7|20) is not the sweep's 100$"):
            call(reference_spec, sweep)

    def test_plug_in_scale_is_the_top_step_log_norm(self, reference_spec):
        sweep = hz.functional_sweep(reference_spec, [8, 32], 500, 2, functionals=("v",))
        top = sweep.samples[("norm", 32)]
        assert sweep.s_hat == float(top.std(ddof=1) / np.sqrt(32))
