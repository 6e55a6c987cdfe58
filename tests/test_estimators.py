import numpy as np
import pytest
from scipy import stats

from conewalk import estimators, harness
from conewalk import rng as rngmod
from conewalk.estimators import (BatchedProducts, aperiodicity_report,
                                 coupling_decay, estimate_lyapunov,
                                 estimate_psi, estimate_variance_direct,
                                 estimate_variance_series,
                                 fit_geometric_envelope, envelope_tail,
                                 invariant_regularity, moment_sanity,
                                 variance_triangulation, variance_via_martingale)
from conewalk.measures import MeasureSpec, sample_batch
from conewalk.posmat import (AllowableMatrix, _step, act, cocycle, gauges, perron_vector,
                             spectral_radius)
from conewalk.rng import Purpose
from conewalk.simplex import barycenter, contraction_coefficient, m_ratio
from conewalk.walk import backward_invariant_batch

G1 = AllowableMatrix([[2.0, 1.0], [1.0, 1.0]])
SINGLE = MeasureSpec.single_atom(G1)
STOCHASTIC = MeasureSpec.atomic([[[0.5, 0.3], [0.5, 0.7]],
                                 [[0.9, 0.2], [0.1, 0.8]]], [0.5, 0.5])


class TestLyapunov:
    def test_single_atom_with_perron_start_is_exact(self):
        # from the fixed direction the deterministic path is exactly linear
        res = estimate_lyapunov(SINGLE, 200, 2, start=perron_vector(G1), seed=0)
        assert res.estimate.value == pytest.approx(np.log(spectral_radius(G1)), abs=1e-8)
        assert res.estimate.std_error == 0.0

    @pytest.mark.parametrize("n, replicas, field", [(4, 1, "replicas"), (4, 0, "replicas"),
                                                    (0, 8, "n"), (-2, 8, "n")])
    def test_rejects_sizes_without_a_standard_error(self, n, replicas, field):
        # one replica used to report std_error 0.0
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            estimate_lyapunov(SINGLE, n, replicas)

    def test_column_stochastic_atoms_give_zero(self):
        res = estimate_lyapunov(STOCHASTIC, 300, 20, seed=1)
        assert abs(res.estimate.value) <= 1e-12
        assert res.spread <= 1e-12 + 0.2  # spread stays tiny but not exactly 0

    def test_start_independence_within_pathwise_spread(self, reference_spec):
        a = estimate_lyapunov(reference_spec, 256, 500, start=(1.0, 0.0), seed=2)
        b = estimate_lyapunov(reference_spec, 256, 500, start=(0.0, 1.0), seed=2)
        # same seed, same paths: estimates differ by at most the mean spread
        assert abs(a.estimate.value - b.estimate.value) <= a.spread + 1e-12

    def test_parameter_validation(self, reference_spec):
        with pytest.raises(ValueError):
            estimate_lyapunov(reference_spec, 0, 10)


class TestCouplingDecay:
    def test_single_atom_matches_deterministic_path(self):
        curve = coupling_decay(SINGLE, 2.0, [1, 2, 3, 4], 5, seed=3)
        power = np.eye(2)
        prev_cs = np.ones(2)
        for n, expected_holder in zip(range(1, 5), curve.values):
            power = G1.entries @ power
            cs = power.sum(axis=0)
            ratios = np.log(cs / prev_cs)
            spread = (ratios.max() - ratios.min()) ** 2.0
            assert expected_holder == pytest.approx(spread, abs=1e-12)
            prev_cs = cs

    def test_rank_one_atom_gives_zero_at_step_one(self):
        flat = MeasureSpec.single_atom([[1.0, 1.0], [1.0, 1.0]])
        curve = coupling_decay(flat, 1.0, [1], 10, seed=4)
        assert curve.values[0] == 0.0

    def test_reference_fit_quality(self, reference_spec):
        curve = coupling_decay(reference_spec, 1.0, range(1, 31), 1000, seed=5)
        assert curve.a_hat is not None and curve.a_hat < 1.0
        assert curve.r_squared > 0.9
        assert curve.max_violation <= 1e-12

    def test_block_product_is_renormalized(self, reference_spec):
        # blocks of three draws at 1e150 overflow unless renormalized every
        # step; the pathwise check must not depend on the scale of the atoms
        violation = {}
        for scale in (1.0, 1e150):
            spec = MeasureSpec.atomic([a.entries * scale for a in reference_spec.atoms],
                                      reference_spec.weights)
            curve = coupling_decay(spec, 1.0, range(1, 31), 256, seed=3, block_len=3)
            violation[scale] = curve.max_violation
        assert violation[1.0] < 0.0 and violation[1e150] < 0.0
        assert violation[1e150] == pytest.approx(violation[1.0], abs=1e-9)

    def test_block_len_must_be_positive(self, reference_spec):
        with pytest.raises(ValueError, match="block_len"):
            coupling_decay(reference_spec, 1.0, [1, 2], 4, block_len=0)

    def test_replicas_must_be_positive(self, reference_spec):
        with pytest.raises(ValueError, match="replicas"):
            coupling_decay(reference_spec, 1.0, [1, 2], 0)

    def test_grid_must_be_nonempty(self, reference_spec):
        with pytest.raises(ValueError, match="n_grid"):
            coupling_decay(reference_spec, 1.0, [], 4)

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_moment_order_must_be_positive(self, reference_spec, p):
        with pytest.raises(ValueError, match="p must"):
            coupling_decay(reference_spec, p, [1, 2, 3], 16)

    def test_envelope_majorizes(self):
        ns = np.arange(1, 21)
        vals = 0.7 * 0.5 ** ns
        vals[3] *= 3.0  # a bump the fit must still cover
        amp, rate = fit_geometric_envelope(ns, vals)
        assert np.all(amp * rate ** ns >= vals - 1e-15)
        assert envelope_tail(amp, rate, 20) < envelope_tail(amp, rate, 10)


class TestVarianceRoutes:
    def test_direct_rejects_degenerate_sizes(self, reference_spec):
        with pytest.raises(ValueError, match="n must"):
            estimate_variance_direct(reference_spec, 0, 10)
        with pytest.raises(ValueError, match="replicas"):
            estimate_variance_direct(reference_spec, 8, 1)

    def test_direct_rejects_unknown_functional_before_drawing(self, reference_spec,
                                                              monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before checking the functionals")

        monkeypatch.setattr(estimators, "sample_batch", no_draws)
        with pytest.raises(ValueError, match="functionals"):
            estimate_variance_direct(reference_spec, 8, 4, functionals=("sigma", "bogus"))

    def test_single_atom_direct_variance_vanishes(self):
        out = estimate_variance_direct(SINGLE, 64, 50, seed=6)
        for est in out.values():
            assert abs(est.value) <= 1e-20

    def test_column_stochastic_sigma_variance_zero(self):
        out = estimate_variance_direct(STOCHASTIC, 64, 50, seed=7,
                                       functionals=("sigma",))
        assert abs(out["sigma"].value) <= 1e-24

    def test_direct_variants_agree(self, reference_spec):
        out = estimate_variance_direct(reference_spec, 256, 4000, seed=8)
        sigma = out["sigma"]
        for name in ("norm", "v", "kappa"):
            assert sigma.agrees_with(out[name]), name

    def test_series_route_agrees_with_direct(self, reference_spec):
        lam = estimate_lyapunov(reference_spec, 512, 2000, seed=9).estimate.value
        direct = estimate_variance_direct(reference_spec, 256, 4000, seed=10,
                                          functionals=("sigma",))["sigma"]
        curve = coupling_decay(reference_spec, 1.0, range(1, 25), 2000, seed=11)
        env = fit_geometric_envelope(curve.n_grid, curve.values)
        series = estimate_variance_series(reference_spec, 16, 4000, lam,
                                          seed=12, envelope=env)
        assert np.isfinite(series.tail_bound)
        assert direct.agrees_with(series.estimate)

    def test_single_atom_series_vanishes_with_exact_drift(self):
        lam = float(np.log(spectral_radius(G1)))
        series = estimate_variance_series(SINGLE, 8, 20, lam, seed=13, w0_tol=1e-10)
        assert abs(series.estimate.value) <= 1e-12

    def test_series_rejects_empty_lag_window(self):
        with pytest.raises(ValueError, match="n_lag_max"):
            estimate_variance_series(SINGLE, 0, 20, 0.0, envelope=(1.0, 0.5))
        for replicas in (0, 1):
            with pytest.raises(ValueError, match="replicas"):
                estimate_variance_series(SINGLE, 4, replicas, 0.0)


def _einsum_inner_paths(spec, rng, pts, m, levels):
    """The per-level (m, b) log increments, as the einsum loop computed them."""
    x = np.broadcast_to(pts, (m, pts.shape[0], pts.shape[1])).copy()
    out = []
    for _ in range(levels):
        mats = sample_batch(spec, rng, m)
        img = np.einsum("mij,mbj->mbi", mats, x)
        norms = img.sum(axis=2)
        out.append(np.log(norms))
        x = img / norms[:, :, None]
    return out


def _state(gen):
    return repr(gen.bit_generator.state)


class TestPsiKernel:
    LAM, LEVELS, INNER = 0.4, 6, 16

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("b", [1, 8])
    def test_evaluate_matches_einsum_reference(self, d, b):
        spec = MeasureSpec.parametric("lognormal", d, mu=0.0, sigma=1.0)
        psi = estimate_psi(spec, self.LEVELS, self.INNER, self.LAM, seed=40)
        pts = np.random.default_rng(41).dirichlet(np.ones(d), size=b)
        rng, ref_rng = rngmod.derived_stream(42, d, b), rngmod.derived_stream(42, d, b)
        values, mc_var = psi.evaluate(pts, rng)
        total = sum(_einsum_inner_paths(spec, ref_rng, pts, self.INNER, self.LEVELS))
        assert np.allclose(values, total.mean(axis=0) - self.LEVELS * self.LAM,
                           rtol=0, atol=1e-13)
        assert np.allclose(mc_var, total.var(axis=0, ddof=1) / self.INNER,
                           rtol=0, atol=1e-13)
        assert _state(rng) == _state(ref_rng)

    @pytest.mark.parametrize("m, b", [(512, 64), (2048, 256)])
    def test_evaluate_pinned_against_whole_matrix_formula(self, reference_spec, m, b):
        # evaluate works in one (m, b) buffer; the whole-matrix formula it
        # replaced is the reference, bit for bit
        levels = 9
        psi = estimate_psi(reference_spec, levels, m, self.LAM, seed=44)
        pts = np.random.default_rng(45).dirichlet(np.ones(2), size=b)
        rng, ref_rng = rngmod.derived_stream(46, m), rngmod.derived_stream(46, m)
        values, mc_var = psi.evaluate(pts, rng)
        batch = BatchedProducts(reference_spec, ref_rng, m)
        batch.run(levels)
        total = batch.log_scale[:, None] + np.log(batch.column_sums() @ pts.T)
        assert np.array_equal(values, total.mean(axis=0) - levels * self.LAM)
        assert np.array_equal(mc_var, total.var(axis=0, ddof=1) / m)
        assert _state(rng) == _state(ref_rng)

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("b", [1, 8])
    def test_fit_matches_einsum_reference(self, d, b, monkeypatch):
        spec = MeasureSpec.parametric("lognormal", d, mu=0.0, sigma=1.0)
        streams = []
        derive = rngmod.derived_stream

        def recording_derive(*key):
            streams.append(derive(*key))
            return streams[-1]

        monkeypatch.setattr(rngmod, "derived_stream", recording_derive)
        psi = estimate_psi(spec, self.LEVELS, self.INNER, self.LAM, seed=43,
                           fit_points=b)
        ref_rng = derive(43, Purpose.PSI_FIT)
        probes = [np.full(d, 1.0 / d)]
        probes += [ref_rng.dirichlet(np.ones(d)) for _ in range(b - 1)]
        incs = _einsum_inner_paths(spec, ref_rng, np.stack(probes), self.INNER,
                                   self.LEVELS)
        ref = [np.max(np.abs(inc.mean(axis=0) - self.LAM)) for inc in incs]
        assert np.allclose(psi.level_contributions, ref, rtol=0, atol=1e-13)
        assert [_state(s) for s in streams] == [_state(ref_rng)]

    def test_psi_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError, match="inner_size"):
            estimate_psi(SINGLE, 4, 1, 0.0)
        with pytest.raises(ValueError, match="truncation"):
            estimate_psi(SINGLE, 0, 16, 0.0)
        for fit_points in (0, -2):
            with pytest.raises(ValueError, match="fit_points"):
                estimate_psi(SINGLE, 4, 16, 0.0, fit_points=fit_points)
        psi = estimate_psi(SINGLE, 2, 4, 0.0)
        bad_points = ([0.2, 0.3, 0.5], np.ones((2, 2, 2)), [[0.5, 0.5], [1.5, -0.5]],
                      [np.nan, 1.0], [np.inf, 1.0], [[0.5, 0.5], [0.0, 0.0]])
        for points in bad_points:
            with pytest.raises(ValueError, match="points"):
                psi.evaluate(points, rngmod.derived_stream(0, Purpose.PSI_FIT))


def _einsum_outer_steps(spec, rng, x, n):
    """Per-step (R,) log norms and (R, d) directions of the single-path outer
    loops, as the einsum loop computed them."""
    for _ in range(n):
        img = np.einsum("rij,rj->ri", sample_batch(spec, rng, len(x)), x)
        norms = img.sum(axis=1)
        x = img / norms[:, None]
        yield np.log(norms), x


def _recording_streams(monkeypatch):
    """The first stream derived from now on under each key (seed, purpose,
    *index): the routine's own, not the reference's replay."""
    streams = {}
    derive = rngmod.derived_stream

    def recording_derive(*key):
        stream = derive(*key)
        streams.setdefault(key, stream)
        return stream

    monkeypatch.setattr(rngmod, "derived_stream", recording_derive)
    return streams


def reference_series(spec, n_lag_max, replicas, lam, seed):
    """The einsum outer loop of ``estimate_variance_series``; returns the
    per-replica statistics and the stream."""
    w0, _, _ = backward_invariant_batch(spec, seed, 1e-8, replicas)
    stream = rngmod.derived_stream(seed, Purpose.SERIES_PATHS)
    acc = np.zeros(replicas)
    for k, (log_norms, _) in enumerate(_einsum_outer_steps(spec, stream, w0, n_lag_max), 1):
        inc = log_norms - lam
        if k == 1:
            first = inc
            acc += inc * inc
        else:
            acc += 2.0 * first * inc
    return acc, stream


def reference_martingale(spec, psi, n, replicas, lam, seed):
    """The einsum outer loop of ``variance_via_martingale``; returns the
    (R,) sums of D_k^2, of D_k and of D_k D_{k-1}, and the stream."""
    w0, _, _ = backward_invariant_batch(spec, seed, 1e-8, replicas)
    stream = rngmod.derived_stream(seed, Purpose.MARTINGALE_PATHS)
    psi_prev, _ = psi.evaluate(w0, stream)
    sum_d2, sum_d, lag1, prev_d = 0.0, 0.0, 0.0, 0.0
    for log_norms, x in _einsum_outer_steps(spec, stream, w0, n):
        psi_cur, _ = psi.evaluate(x, stream)
        d = log_norms - lam + psi_cur - psi_prev
        sum_d2, sum_d, lag1 = sum_d2 + d * d, sum_d + d, lag1 + d * prev_d
        prev_d, psi_prev = d, psi_cur
    return sum_d2, sum_d, lag1, stream


def _one_column_walk(spec, rng, x, steps, block=None):
    """The forward blocks from the (R, d) directions ``x`` as a one-column
    state; yields per block the (T, R) log increments and (T, d, R) directions."""
    for log_norms, states, _ in estimators._forward_blocks(spec, rng, x.T[:, None], steps, block):
        yield log_norms, np.stack(states)[:, :, 0]


class TestOuterVectorSteps:
    LAM = 0.4

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_steps_match_einsum_reference(self, d):
        spec = MeasureSpec.parametric("lognormal", d, mu=0.0, sigma=1.0)
        x0 = np.random.default_rng(50).dirichlet(np.ones(d), size=64)
        rng, ref_rng = rngmod.derived_stream(51, d), rngmod.derived_stream(51, d)
        steps = _one_column_walk(spec, rng, x0, 12, block=1)
        for (log_norms, x), (ref_log_norms, ref_x) in zip(
                steps, _einsum_outer_steps(spec, ref_rng, x0, 12), strict=True):
            assert np.max(np.abs(log_norms[0] - ref_log_norms)) <= 1e-15
            assert np.max(np.abs(x[0].T - ref_x)) <= 1e-15
            # draws between steps keep their place: the generator draws lazily
            assert rng.random() == ref_rng.random()
        assert _state(rng) == _state(ref_rng)
        # blocks of steps per draw call meet the same draws at the same steps
        rng, ref_rng = rngmod.derived_stream(52, d), rngmod.derived_stream(52, d)
        blocks = list(_one_column_walk(spec, rng, x0, 40))
        assert len(blocks) > 1
        log_norms = np.concatenate([b[0] for b in blocks])
        x = np.concatenate([b[1] for b in blocks]).transpose(0, 2, 1)
        ref = list(_einsum_outer_steps(spec, ref_rng, x0, 40))
        assert np.max(np.abs(log_norms - [r[0] for r in ref])) <= 1e-15
        assert np.max(np.abs(x - [r[1] for r in ref])) <= 1e-15
        assert _state(rng) == _state(ref_rng)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_series_matches_einsum_reference(self, d, monkeypatch):
        spec = MeasureSpec.parametric("lognormal", d, mu=0.0, sigma=0.5)
        streams = _recording_streams(monkeypatch)
        series = estimate_variance_series(spec, 10, 128, self.LAM, seed=52)
        acc, ref_stream = reference_series(spec, 10, 128, self.LAM, 52)
        assert series.estimate.value == pytest.approx(acc.mean(), rel=1e-13, abs=0)
        assert _state(streams[52, Purpose.SERIES_PATHS]) == _state(ref_stream)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_martingale_matches_einsum_reference(self, d, monkeypatch):
        spec = MeasureSpec.parametric("lognormal", d, mu=0.0, sigma=0.5)
        psi = estimate_psi(spec, 4, 8, self.LAM, seed=53)
        streams = _recording_streams(monkeypatch)
        out = variance_via_martingale(spec, psi, 6, 32, self.LAM, seed=54)
        sum_d2, sum_d, lag1, ref_stream = reference_martingale(spec, psi, 6, 32,
                                                               self.LAM, 54)
        assert out.raw_value == pytest.approx(np.mean(sum_d2 / 6), rel=1e-13, abs=0)
        assert out.mean_diff == pytest.approx(sum_d.sum() / (6 * 32), rel=1e-12, abs=1e-15)
        raw_cov = lag1.sum() / (32 * 5) - out.mean_diff ** 2
        assert out.lag1_autocorr == pytest.approx(
            (raw_cov + out.mc_noise_var) / max(out.estimate.value, 1e-300), rel=1e-12)
        assert _state(streams[54, Purpose.MARTINGALE_PATHS]) == _state(ref_stream)


class TestMartingaleRoute:
    def test_rejects_too_short_or_too_few_paths(self):
        psi = estimate_psi(SINGLE, 2, 4, 0.0, seed=44)
        with pytest.raises(ValueError, match="n must"):
            variance_via_martingale(SINGLE, psi, 1, 8, 0.0)
        with pytest.raises(ValueError, match="replicas"):
            variance_via_martingale(SINGLE, psi, 16, 1, 0.0)

    def test_single_atom_differences_vanish(self):
        lam = float(np.log(spectral_radius(G1)))
        psi = estimate_psi(SINGLE, 6, 16, lam, seed=14)
        out = variance_via_martingale(SINGLE, psi, 16, 8, lam, seed=15,
                                      w0_tol=1e-10)
        assert abs(out.estimate.value) <= 1e-10
        assert abs(out.raw_value) <= 1e-10

    def test_psi_envelope_dominates_contributions(self, reference_spec):
        lam = estimate_lyapunov(reference_spec, 512, 1000, seed=16).estimate.value
        psi = estimate_psi(reference_spec, 10, 128, lam, seed=17)
        amp, rate = psi.envelope
        levels = np.arange(1, psi.truncation + 1)
        assert np.all(np.asarray(psi.level_contributions)
                      <= amp * rate ** levels + 1e-12)
        assert psi.tail_bound >= 0

    def test_martingale_diagnostics(self, reference_spec):
        lam = estimate_lyapunov(reference_spec, 512, 2000, seed=18).estimate.value
        psi = estimate_psi(reference_spec, 10, 512, lam, seed=19)
        out = variance_via_martingale(reference_spec, psi, 64, 64, lam, seed=20)
        # martingale averages: both the mean difference and its lag-1
        # autocorrelation sit at zero within noise
        assert abs(out.mean_diff) <= 3.0 * out.mean_diff_se + 0.01
        assert abs(out.lag1_autocorr) <= 3.0 * out.lag1_se + 0.05
        direct = estimate_variance_direct(reference_spec, 256, 4000, seed=21,
                                          functionals=("sigma",))["sigma"]
        assert direct.agrees_with(out.estimate)


def reference_triangulation(spec, n, replicas, lam, seed):
    """The lag-window rule written out stage by stage, as criterion 6 writes it,
    with the routine's sizes, target floor and literal child seeds; returns the
    routine's fields and whether the window widened."""
    direct = estimate_variance_direct(spec, n, replicas, seed=seed)
    curve = coupling_decay(spec, 1.0, range(1, 31), min(replicas, 4096),
                           seed=rngmod.child_seed(seed, Purpose.COUPLING_STAGE))
    amp, rate = fit_geometric_envelope(curve.n_grid, curve.values)
    target = 0.01 * max(direct["sigma"].value, 1e-12)
    lag = 2
    while envelope_tail(amp, rate, lag) > target and lag < 64:
        lag += 1
    series = estimate_variance_series(spec, lag + 1, replicas, lam,
                                      seed=rngmod.child_seed(seed, Purpose.SERIES_STAGE),
                                      envelope=(amp, rate))
    widened = series.tail_bound > target
    if widened:
        extra = int(np.ceil(np.log(target / series.tail_bound) / np.log(rate)))
        lag += max(extra, 1)
        series = estimate_variance_series(
            spec, lag + 1, replicas, lam, envelope=(amp, rate),
            seed=rngmod.child_seed(seed, Purpose.SERIES_WIDENED_STAGE))
    psi = estimate_psi(spec, lag, 1024, lam, seed=rngmod.child_seed(seed, Purpose.PSI_STAGE))
    mart = variance_via_martingale(spec, psi, min(n, 256), max(32, min(256, replicas // 16)),
                                   lam, seed=rngmod.child_seed(seed, Purpose.MARTINGALE_STAGE))
    routes = [direct["sigma"], series.estimate, mart.estimate]
    agree = all(a.agrees_with(b) for a in routes for b in routes)
    return direct, series, mart, (amp, rate), target, lag, agree, widened


LOGNORMAL = MeasureSpec.parametric("lognormal", 2, mu=0.0, sigma=1.0)


class TestVarianceTriangulation:
    @pytest.mark.parametrize("spec, lam, n, replicas, widens", [
        (None, 0.5424, 16, 256, True), (LOGNORMAL, 1.008, 32, 512, False),
    ], ids=["reference-widens", "lognormal-keeps"])
    def test_matches_the_stages_run_inline(self, reference_spec, spec, lam, n, replicas,
                                           widens):
        spec = spec or reference_spec
        tri = variance_triangulation(spec, n, replicas, lam, seed=0)
        direct, series, mart, envelope, target, lag, agree, widened = \
            reference_triangulation(spec, n, replicas, lam, 0)
        assert widened == widens
        assert tri.direct == direct and tri.series == series and tri.envelope == envelope
        assert tri.martingale == mart and tri.martingale.steps == min(n, 256)
        assert (tri.target, tri.lag, tri.routes_agree) == (target, lag, agree)
        assert tri.series.lag_max == lag + 1

    def test_stages_draw_from_distinct_streams(self, reference_spec, monkeypatch):
        keys = []
        derive = rngmod.derived_stream

        def recording_derive(*key):
            keys.append(key)
            return derive(*key)

        monkeypatch.setattr(rngmod, "derived_stream", recording_derive)
        variance_triangulation(reference_spec, 16, 256, 0.5424, seed=5)  # widens
        assert len(keys) == len(set(keys)) == 9
        stages = (Purpose.COUPLING_STAGE, Purpose.SERIES_STAGE, Purpose.SERIES_WIDENED_STAGE,
                  Purpose.PSI_STAGE, Purpose.MARTINGALE_STAGE)
        assert {key[0] for key in keys} == {5} | {rngmod.child_seed(5, p) for p in stages}
        presweep = rngmod.child_seed(5, Purpose.DRIFT_PRESWEEP)
        assert all(Purpose.DRIFT_PRESWEEP not in key[1:] and key[0] != presweep for key in keys)


def _convergents(x, max_denominator):
    a = x
    h_prev, h = 1, int(np.floor(a))
    k_prev, k = 0, 1
    yield h, k
    for _ in range(64):
        frac = a - np.floor(a)
        if frac < 1e-15:
            return
        a = 1.0 / frac
        ai = int(np.floor(a))
        h, h_prev = ai * h + h_prev, h
        k, k_prev = ai * k + k_prev, k
        if k > max_denominator:
            return
        yield h, k


def reference_commensurate(ratio, tol, max_denominator):
    """The per-pair convergent loop, kept as the reference for the array
    recurrence of ``aperiodicity_report``."""
    r = abs(ratio)
    return any(abs(r - p / q) <= tol for p, q in _convergents(r, max_denominator))


def reference_incommensurate_pairs(radii, tol=1e-9, max_denominator=1000):
    return [(i, j) for i in range(len(radii)) for j in range(i + 1, len(radii))
            if abs(radii[j]) >= 1e-9
            and not reference_commensurate(radii[i] / radii[j], tol, max_denominator)]


def reference_aperiodicity_radii(spec, max_word_len):
    """The one-matmul-per-word enumeration with power-iteration radii, kept
    as the reference for ``aperiodicity_report``; returns (words, log radii)."""
    atoms = spec.atom_array()
    words, radii = [], []
    frontier = [((), np.eye(spec.d), 0.0)]
    for _ in range(max_word_len):
        nxt = []
        for word, mat, ls in frontier:
            for i in range(len(atoms)):
                prod = atoms[i] @ mat
                peak = prod.max()
                nxt.append((word + (i,), prod / peak, ls + float(np.log(peak))))
        frontier = nxt
        for word, mat, ls in frontier:
            if np.all(mat > 0):
                words.append(word)
                radii.append(ls + float(np.log(spectral_radius(AllowableMatrix(mat)))))
    return words, radii


class TestAperiodicity:
    @pytest.mark.parametrize("name", ["reference", "reference-transposed", "sparse",
                                      "atom-and-square", "lognormal-d3"])
    def test_pinned_against_word_loop(self, name, reference_spec):
        draws = sample_batch(MeasureSpec.parametric("lognormal", 3, mu=0.0, sigma=1.0),
                             rngmod.derived_stream(55), 3)
        spec = {"reference": reference_spec,
                "reference-transposed": reference_spec.transposed(),
                "sparse": MeasureSpec.atomic([[[1.0, 1.0], [0.0, 1.0]],
                                              [[1.0, 0.0], [1.0, 1.0]]], [0.5, 0.5]),
                "atom-and-square": MeasureSpec.atomic([G1.entries, (G1 @ G1).entries],
                                                      [0.5, 0.5]),
                "lognormal-d3": MeasureSpec.atomic(draws, [0.2, 0.3, 0.5])}[name]
        rep = aperiodicity_report(spec, 4)
        words, radii = reference_aperiodicity_radii(spec, 4)
        assert list(rep.words) == words
        assert np.max(np.abs(np.asarray(rep.log_radii) - radii)) <= 1e-12
        pairs = reference_incommensurate_pairs(radii)
        assert list(rep.incommensurate_pairs) == pairs
        assert reference_incommensurate_pairs(rep.log_radii) == pairs
        assert rep.verdict == ("aperiodic evidence" if pairs else "possibly arithmetic")

    @pytest.mark.parametrize("tol, max_denominator", [(1e-9, 1000), (1e-6, 50), (1e-3, 10)])
    def test_convergent_recurrence_matches_loop(self, tol, max_denominator):
        rng = np.random.default_rng(60)
        x = np.concatenate([rng.uniform(0, 10, 3000),
                            rng.integers(1, 50, 1000) / rng.integers(1, 2000, 1000),
                            rng.uniform(0, 1e10, 300), 1 + rng.uniform(-1e-8, 1e-8, 300),
                            [0.0, 1.0, 2.5, 1e-16, 1 / 3, 2 / 3, 355 / 113]])
        ref = [reference_commensurate(v, tol, max_denominator) for v in x]
        assert estimators._has_close_convergent(x, tol, max_denominator).tolist() == ref

    def test_single_atom_is_arithmetic(self):
        rep = aperiodicity_report(SINGLE, 4)
        assert rep.verdict == "possibly arithmetic"
        assert len(rep.words) == 4

    def test_atom_with_its_square_is_arithmetic(self):
        spec = MeasureSpec.atomic([G1.entries, (G1 @ G1).entries], [0.5, 0.5])
        rep = aperiodicity_report(spec, 3)
        assert rep.verdict == "possibly arithmetic"

    def test_golden_ratio_radii_flag_aperiodic(self):
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        kappa2 = 2.0 ** phi
        g = [[1.5, 0.5], [0.5, 1.5]]                      # radius 2
        h = [[kappa2 / 2 + 0.25, kappa2 / 2 - 0.25],      # radius 2**phi
             [kappa2 / 2 - 0.25, kappa2 / 2 + 0.25]]
        spec = MeasureSpec.atomic([g, h], [0.5, 0.5])
        rep = aperiodicity_report(spec, 2)
        assert rep.verdict == "aperiodic evidence"
        assert rep.incommensurate_pairs

    def test_reference_spec_shows_evidence(self, reference_spec):
        rep = aperiodicity_report(reference_spec, 3)
        assert rep.verdict == "aperiodic evidence"

    def test_requires_atomic(self):
        with pytest.raises(ValueError):
            aperiodicity_report(MeasureSpec.parametric("lognormal", 2, mu=0.0, sigma=1.0), 2)

    @pytest.mark.parametrize("name, max_word_len", [
        ("reference", 7), ("reference", 10**9),
        ("single", estimators.APERIODICITY_MAX_WORDS + 1), ("single", 10**12)])
    def test_refuses_too_many_words_before_enumerating(self, name, max_word_len,
                                                       reference_spec, monkeypatch):
        def no_enumeration(spec):
            raise AssertionError("words enumerated")

        monkeypatch.setattr(estimators, "word_levels", no_enumeration)
        spec = {"reference": reference_spec, "single": SINGLE}[name]
        with pytest.raises(ValueError, match=f"^max_word_len = {max_word_len} enumerates"):
            aperiodicity_report(spec, max_word_len)

    def test_word_cap_counts_every_length(self, reference_spec, monkeypatch):
        # 3 + 9 words at length 2, 3 + 9 + 27 at length 3
        monkeypatch.setattr(estimators, "APERIODICITY_MAX_WORDS", 12)
        assert len(aperiodicity_report(reference_spec, 2).words) == 12
        with pytest.raises(ValueError, match="max_word_len"):
            aperiodicity_report(reference_spec, 3)


class TestRegularity:
    def test_flat_atom_gives_log_two(self):
        flat = MeasureSpec.single_atom([[1.0, 1.0], [1.0, 1.0]])
        for p in (1.0, 2.0):
            est = invariant_regularity(flat, p, 50, 1e-9, seed=22)
            assert est.value == pytest.approx(np.log(2.0) ** p, abs=1e-6)

    def test_single_positive_atom_matches_perron_oracle(self):
        est = invariant_regularity(SINGLE, 2.0, 50, 1e-10, seed=23)
        oracle = abs(np.log(perron_vector(G1).coords.min())) ** 2.0
        assert est.value == pytest.approx(oracle, abs=1e-7)

    def test_doubling_stability(self, reference_spec):
        a = invariant_regularity(reference_spec, 2.0, 1000, 1e-6, seed=24)
        b = invariant_regularity(reference_spec, 2.0, 2000, 1e-6, seed=25)
        assert a.agrees_with(b)

    def test_rejects_non_contracting_measure(self):
        perm = MeasureSpec.atomic([[[0.0, 1.0], [1.0, 0.0]],
                                   [[1.0, 0.0], [0.0, 1.0]]], [0.5, 0.5])
        with pytest.raises(ValueError, match="strictly positive"):
            invariant_regularity(perm, 2.0, 10, 0.5, seed=26)

    @pytest.mark.parametrize("samples", [1, 0])
    def test_rejects_too_few_samples_for_an_error(self, samples):
        # one sample has no standard error
        with pytest.raises(ValueError, match="samples must be >= 2"):
            invariant_regularity(SINGLE, 2.0, samples, 1e-10, seed=23)


class TestMomentSanity:
    def test_bounded_support_is_stable(self, reference_spec):
        rep = moment_sanity(reference_spec, 3.0, 4096, seed=27)
        assert rep.stable
        assert np.isfinite(rep.moment.value)

    def test_gauge_values_feed_the_moment(self):
        rep = moment_sanity(SINGLE, 2.0, 100, seed=28)
        expected = np.log(gauges(G1).N) ** 2.0
        assert rep.moment.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("samples", [1, 3])
    def test_rejects_too_few_samples_for_the_halves(self, samples):
        # the stability check needs a standard error for each half
        with pytest.raises(ValueError, match="samples must be >= 4"):
            moment_sanity(SINGLE, 2.0, samples)

    def test_four_samples_give_two_errors(self, reference_spec):
        rep = moment_sanity(reference_spec, 2.0, 4, seed=29)
        assert np.isfinite(rep.half_moment)
        assert rep.moment.std_error > 0


class TestBatchedProducts:
    def test_matches_scalar_walk_functionals(self, reference_spec):
        batch = BatchedProducts(reference_spec, rngmod.derived_stream(31, Purpose.FORWARD, 0), 4)
        batch.run(50)
        assert np.all(batch.log_v() <= batch.log_kappa() + 1e-9)
        assert np.all(batch.log_kappa() <= batch.log_norm() + 1e-9)
        assert np.all(batch.log_min_entry() <= batch.log_norm() + 1e-9)
        e = barycenter(2).coords
        sig = batch.sigma(e)
        assert np.all(sig <= batch.log_norm() + 1e-12)
        assert np.all(sig >= batch.log_v() - 1e-12)

    def test_determinism(self, reference_spec):
        a = BatchedProducts(reference_spec, rngmod.derived_stream(33, Purpose.FORWARD, 0), 8)
        b = BatchedProducts(reference_spec, rngmod.derived_stream(33, Purpose.FORWARD, 0), 8)
        a.run(20)
        b.run(20)
        assert np.array_equal(a.P, b.P)
        assert np.array_equal(a.log_scale, b.log_scale)

    @pytest.mark.parametrize("spec", ["reference", "period-two"])
    def test_log_kappa_is_the_one_path_spectral_radius(self, reference_spec, spec):
        # one power iteration serves both; the period-two atom keeps its
        # paths from settling, so they take the dense fallback in both
        if spec == "reference":
            batch = BatchedProducts(reference_spec,
                                    rngmod.derived_stream(34, Purpose.FORWARD, 0), 64)
            batch.run(40)
        else:
            flip = MeasureSpec.atomic([[[0.0, 2.0], [1.0, 0.0]], np.eye(2)], [0.5, 0.5])
            batch = BatchedProducts(flip, rngmod.derived_stream(34, Purpose.FORWARD, 0), 32)
            batch.run(7)
            odd = batch.P[:, 0, 0] == 0.0
            assert odd.any() and not odd.all()
        expected = [ls + np.log(spectral_radius(p, max_iter=200))
                    for ls, p in zip(batch.log_scale, batch.P)]
        np.testing.assert_allclose(batch.log_kappa(), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kwargs, field", [({"tol": 0.0}, "tol must be > 0"),
                                               ({"tol": -1.0}, "tol must be > 0"),
                                               ({"max_iter": 0}, "max_iter must be >= 1"),
                                               ({"max_iter": 2.5}, "max_iter must be an integer")])
    def test_log_kappa_rejects_malformed_iteration(self, reference_spec, kwargs, field):
        batch = BatchedProducts(reference_spec, rngmod.derived_stream(34, Purpose.FORWARD, 0), 4)
        batch.run(3)
        with pytest.raises(ValueError, match=field):
            batch.log_kappa(**kwargs)

    def test_rejects_a_seed_in_place_of_a_stream(self, reference_spec):
        with pytest.raises(TypeError, match="rng must be a numpy Generator, got int"):
            BatchedProducts(reference_spec, 33, 8)


def reference_forward_step(P, log_scale, mats):
    """The forward step as one np.matmul on (R, d, d) stacks."""
    P = np.matmul(mats, P)
    scale = P.sum(axis=1).max(axis=1)
    P /= scale[:, None, None]
    return P, log_scale + np.log(scale)


def _kernel_specs():
    ref = harness.reference_spec()
    specs = [("reference", ref), ("reference-transposed", ref.transposed())]
    for d in (2, 3, 4, 8):
        specs.append((f"lognormal-d{d}",
                      MeasureSpec.parametric("lognormal", d, mu=0.0, sigma=1.0)))
        specs.append((f"uniform-d{d}",
                      MeasureSpec.parametric("uniform", d, lo=0.0, hi=2.0)))
    return specs


KERNEL_SPECS = _kernel_specs()
# spec, and whether leap must equal run bit for bit (no word table)
LEAP_SPECS = {
    "reference": (harness.reference_spec(), False),
    "reference-transposed": (harness.reference_spec().transposed(), False),
    "two-atoms": (MeasureSpec.atomic([[[2.0, 1.0], [1.0, 1.0]], [[1.0, 3.0], [0.5, 1.0]]],
                                     [0.3, 0.7]), False),
    "single-atom": (SINGLE, False),
    # beyond _COUNTED_ATOMS, so the draws are searchsorted's intp, and L = 2
    "eighty-atoms": (MeasureSpec.atomic(np.random.default_rng(5).lognormal(size=(80, 2, 2)),
                                        np.arange(1, 81) / 3240.0), False),
    "fixture-a": (harness.pathology_fixtures()[0], True),
    "lognormal-d3": (MeasureSpec.parametric("lognormal", 3, mu=0.0, sigma=1.0), True),
}


def _leap_reference(batch, n):
    """``leap(n)`` written out on ``batch``: R uniforms per word, located by
    ``searchsorted`` in a word cdf built here from the weights, the word's L
    atoms multiplied in turn by ``_step`` (digit k, base K, is draw k), then
    ``run`` for the last n mod L steps."""
    spec, length, k = batch.spec, batch.spec._words[0], len(batch.spec.atoms)
    digits = np.arange(k ** length) // k ** np.arange(length)[:, None] % k  # (L, K**L)
    weights = np.ones(k ** length)
    for row in digits:  # the newer draw's weight is the left factor
        weights = np.asarray(spec.weights)[row] * weights
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    atoms = spec.atom_array().transpose(1, 2, 0)
    for _ in range(n // length):
        word = cdf.searchsorted(batch.rng.random(batch.replicas), side="right")
        for i in digits[:, word]:
            batch._entries, scale = _step(atoms[:, :, i], batch._entries)
            batch.log_scale += np.log(scale)
    batch.n += n - n % length
    batch.run(n % length)


class TestForwardKernel:
    """BatchedProducts (written out for d <= 4, matmul above) against the
    matmul step on replayed draws."""

    @pytest.mark.parametrize("spec", [s for _, s in KERNEL_SPECS],
                             ids=[name for name, _ in KERNEL_SPECS])
    def test_pinned_against_matmul_step(self, spec):
        R, d = 64, spec.d
        batch = BatchedProducts(spec, rngmod.derived_stream(35, Purpose.FORWARD, 2), R)
        replay = rngmod.derived_stream(35, Purpose.FORWARD, 2)
        P, log_scale = np.broadcast_to(np.eye(d), (R, d, d)).copy(), np.zeros(R)
        for n in range(500):
            mats = next(batch.steps(1)).transpose(2, 0, 1)
            expected = sample_batch(spec, replay, R)
            assert mats.shape == (R, d, d)
            assert np.array_equal(mats, expected)
            P, log_scale = reference_forward_step(P, log_scale, expected)
            if n == 0:
                # from the identity both kernels round identically: the
                # products are the draws, renormalized the same way
                assert np.array_equal(batch.P, P)
                assert np.array_equal(batch.log_scale, log_scale)
        assert batch.rng.random() == replay.random()  # same stream position
        assert batch.P.shape == (R, d, d)
        assert not batch.P.flags.owndata  # a view of the kernel's layout
        np.testing.assert_allclose(batch.P, P, rtol=1e-13, atol=0)
        np.testing.assert_allclose(batch.log_scale, log_scale, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("spec", [s for _, s in KERNEL_SPECS if s.d <= 4],
                             ids=[name for name, s in KERNEL_SPECS if s.d <= 4])
    @pytest.mark.parametrize("R, n", [(64, 150), (4096, 20)])
    def test_run_matches_single_steps(self, spec, R, n):
        # blocks of up to 64 steps at R = 64, and one step per block at
        # R = 4096, where a step alone fills the block cap
        ran = BatchedProducts(spec, rngmod.derived_stream(38, Purpose.FORWARD, 0), R)
        stepped = BatchedProducts(spec, rngmod.derived_stream(38, Purpose.FORWARD, 0), R)
        ran.run(n)
        ran.run(7)
        for _ in range(n + 7):
            stepped.run(1)
        assert ran.n == stepped.n == n + 7
        assert np.array_equal(ran.P, stepped.P)
        assert np.array_equal(ran.log_scale, stepped.log_scale)
        assert _state(ran.rng) == _state(stepped.rng)

    @pytest.mark.parametrize("name", LEAP_SPECS)
    @pytest.mark.parametrize("calls", [(5,), (100, 37), (1024,)])
    def test_leap_matches_run(self, name, calls):
        # leap against its contract written out on run's kernel, on twin
        # streams: (5,) is shorter than any word here, 100 and 37 leave a
        # remainder, and 1024 steps at R = 64 take several blocks of words
        spec, exact = LEAP_SPECS[name]
        ref = BatchedProducts(spec, rngmod.derived_stream(40, Purpose.FORWARD, 0), 64)
        leapt = BatchedProducts(spec, rngmod.derived_stream(40, Purpose.FORWARD, 0), 64)
        for n in calls:
            ref.run(n) if exact else _leap_reference(ref, n)
            leapt.leap(n)
        assert ref.n == leapt.n == sum(calls)
        assert _state(ref.rng) == _state(leapt.rng)
        if exact:  # no words: leap is run
            assert np.array_equal(leapt.P, ref.P)
            assert np.array_equal(leapt.log_scale, ref.log_scale)
        else:  # a word is multiplied once, so the floats move by rounding
            np.testing.assert_allclose(leapt.P, ref.P, rtol=1e-13, atol=0)
            np.testing.assert_allclose(leapt.log_scale, ref.log_scale, rtol=1e-13, atol=0)

    def test_leap_has_the_law_of_run(self):
        # log|A_64| over 4 x 8192 replicas, from leap and from run on separate streams
        spec, leapt, ran = harness.reference_spec(), [], []
        for k in range(4):
            a = BatchedProducts(spec, rngmod.derived_stream(41, Purpose.FORWARD, k), 8192)
            b = BatchedProducts(spec, rngmod.derived_stream(42, Purpose.FORWARD, k), 8192)
            a.leap(64)
            b.run(64)
            leapt.append(a.log_norm())
            ran.append(b.log_norm())
        x, y = np.concatenate(leapt), np.concatenate(ran)
        se = np.hypot(x.std(ddof=1), y.std(ddof=1)) / np.sqrt(x.size)
        assert abs(x.mean() - y.mean()) <= 3 * se
        assert stats.ks_2samp(x, y).pvalue > 0.01

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_one_column_walk_is_the_cocycle(self, d):
        # sigma(A_n, x) = sum of the walk's log increments from x, and its
        # direction is A_n x / |A_n x|_1, on equal streams
        spec = MeasureSpec.parametric("lognormal", d, mu=0.0, sigma=1.0)
        R, x = 64, np.random.default_rng(39).dirichlet(np.ones(d))
        batch = BatchedProducts(spec, rngmod.derived_stream(39, Purpose.FORWARD, 0), R)
        walk_rng = rngmod.derived_stream(39, Purpose.FORWARD, 0)
        start = np.broadcast_to(x[:, None, None], (d, 1, R))
        total = np.zeros(R)
        for incs, states, _ in estimators._forward_blocks(spec, walk_rng, start, 60):
            for inc, state in zip(incs, states):
                batch.run(1)
                total += inc
                np.testing.assert_allclose(total, batch.sigma(x), rtol=0, atol=1e-12)
                image = np.matmul(batch.P, x)
                np.testing.assert_allclose(state[:, 0], (image / image.sum(axis=1)[:, None]).T,
                                           rtol=0, atol=1e-12)
        assert batch.n == 60
        assert _state(walk_rng) == _state(batch.rng)

    @pytest.mark.parametrize("spec", [s for _, s in KERNEL_SPECS],
                             ids=[name for name, _ in KERNEL_SPECS])
    def test_functionals_match_matmul_formulas(self, spec):
        R, d = 64, spec.d
        batch = BatchedProducts(spec, rngmod.derived_stream(36, Purpose.FORWARD, 0), R)
        batch.run(40)
        P, ls = batch.P, batch.log_scale
        rng = np.random.default_rng(36)
        x, y = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        cs = P.sum(axis=1)
        assert np.array_equal(batch.column_sums(), cs)
        assert np.array_equal(batch.log_norm(), ls + np.log(cs.max(axis=1)))
        assert np.array_equal(batch.log_v(), ls + np.log(cs.min(axis=1)))
        flat = P.reshape(R, -1)
        assert np.array_equal(batch.log_min_entry(), ls + np.log(flat.min(axis=1)))
        np.testing.assert_allclose(batch.sigma(x),
                                   ls + np.log(np.matmul(P, x).sum(axis=1)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.log_coeff(x, y),
                                   ls + np.log(np.einsum("i,rij,j->r", y, P, x)),
                                   rtol=0, atol=1e-12)
        radii = np.abs(np.linalg.eigvals(P)).max(axis=1)
        np.testing.assert_allclose(batch.log_kappa(), ls + np.log(radii),
                                   rtol=0, atol=1e-9)

    def test_fixture_b_exact_zero_survives(self):
        _, fixture_b = harness.pathology_fixtures()
        R = 256
        batch = BatchedProducts(fixture_b, rngmod.derived_stream(37, Purpose.FORWARD, 0), R)
        replay = rngmod.derived_stream(37, Purpose.FORWARD, 0)
        P, log_scale = np.broadcast_to(np.eye(2), (R, 2, 2)).copy(), np.zeros(R)
        for _ in range(4):
            batch.run(1)
            P, log_scale = reference_forward_step(P, log_scale,
                                                  sample_batch(fixture_b, replay, R))
        zeros = batch.P[:, 0, 1] == 0.0
        assert zeros.any()  # 2^-4 of the paths drew only the identity
        assert np.array_equal(zeros, P[:, 0, 1] == 0.0)
        coeff = batch.log_coeff((0.0, 1.0), (1.0, 0.0))  # log of entry (0, 1)
        assert np.array_equal(coeff == -np.inf, zeros)


class TestFunctionalByName:
    @pytest.mark.parametrize("name", estimators.FUNCTIONALS)
    def test_matches_the_named_method(self, reference_spec, name):
        batch = BatchedProducts(reference_spec, rngmod.derived_stream(35, Purpose.FORWARD, 0), 16)
        batch.run(12)
        x, y = np.array([0.25, 0.75]), np.array([0.5, 0.5])
        named = {"sigma": lambda: batch.sigma(x), "norm": batch.log_norm,
                 "v": batch.log_v, "kappa": batch.log_kappa,
                 "coeff": lambda: batch.log_coeff(x, y), "inf_coeff": batch.log_min_entry}
        assert np.array_equal(batch.functional(name, x, y), named[name]())

    def test_harness_reads_the_same_names(self):
        assert harness.FUNCTIONALS is estimators.FUNCTIONALS


@pytest.mark.parametrize("replicas", [0, -2])
def test_batched_products_rejects_an_empty_batch(reference_spec, replicas):
    with pytest.raises(ValueError, match=f"replicas must be >= 1, got {replicas}"):
        BatchedProducts(reference_spec, rngmod.derived_stream(36, Purpose.FORWARD, 0), replicas)
    with pytest.raises(ValueError, match="replicas must be >= 1"):
        harness.fixture_b_zero_fraction(3, replicas)


@pytest.mark.parametrize("max_word_len", [0, -1])
def test_aperiodicity_rejects_empty_word_set(reference_spec, max_word_len):
    with pytest.raises(ValueError, match=f"max_word_len must be >= 1, got {max_word_len}"):
        aperiodicity_report(reference_spec, max_word_len)


def _forward(replicas):
    return BatchedProducts(SINGLE, rngmod.derived_stream(37, Purpose.FORWARD, 0), replicas)


# non-integral counts used to be truncated (2.5 replicas ran 2) or to fail
# inside range() or numpy; run(-1) used to do nothing
@pytest.mark.parametrize("call, message", [
    (lambda: _forward(2.5), "replicas must be an integer"),
    (lambda: _forward(4).run(2.5), "n must be an integer"),
    (lambda: _forward(4).run(-1), "n must be >= 0"),
    (lambda: estimate_lyapunov(SINGLE, 4.5, 16), "n must be an integer"),
    (lambda: estimate_lyapunov(SINGLE, 4, 16.5), "replicas must be an integer"),
    (lambda: coupling_decay(SINGLE, 1.0, [2.5, 3], 10), "n_grid must be an integer"),
    (lambda: coupling_decay(SINGLE, 1.0, [2, 3], 10.5), "replicas must be an integer"),
    (lambda: coupling_decay(SINGLE, 1.0, [2, 3], 10, block_len=1.5),
     "block_len must be an integer"),
    (lambda: estimate_variance_direct(SINGLE, 4.5, 16), "n must be an integer"),
    (lambda: estimate_variance_series(SINGLE, 2.5, 16, 0.0), "n_lag_max must be an integer"),
    (lambda: estimate_psi(SINGLE, 2.5, 16, 0.0), "truncation must be an integer"),
    (lambda: estimate_psi(SINGLE, 4, 16.5, 0.0), "inner_size must be an integer"),
    (lambda: estimate_psi(SINGLE, 4, 16, 0.0, fit_points=2.5), "fit_points must be an integer"),
    (lambda: variance_via_martingale(SINGLE, None, 4.5, 16, 0.0), "n must be an integer"),
    (lambda: aperiodicity_report(SINGLE, 1.5), "max_word_len must be an integer"),
    (lambda: invariant_regularity(SINGLE, 1.0, 8.5, 1e-6), "samples must be an integer"),
    (lambda: moment_sanity(SINGLE, 1.0, 8.5), "samples must be an integer"),
], ids=["products-replicas", "run-n", "run-negative", "lyapunov-n", "lyapunov-replicas",
        "coupling-n_grid", "coupling-replicas", "coupling-block_len", "direct-n",
        "series-n_lag_max", "psi-truncation", "psi-inner_size", "psi-fit_points",
        "martingale-n", "aperiodicity-max_word_len", "regularity-samples", "moment-samples"])
def test_rejects_a_malformed_count(call, message):
    with pytest.raises(ValueError, match=f"^{message}, got "):
        call()


# sigma, log_coeff, act and cocycle used to fail inside numpy's matmul, and
# m_ratio with "dimension mismatch", none of them naming the point
@pytest.mark.parametrize("read, name", [
    (lambda bad: _forward(3).sigma(bad), "x"),
    (lambda bad: _forward(3).log_coeff(bad, None), "x"),
    (lambda bad: _forward(3).log_coeff(None, bad), "y"),
    (lambda bad: act(G1, bad), "x"),
    (lambda bad: cocycle(G1, bad), "x"),
    (lambda bad: m_ratio((0.5, 0.5), bad), "v"),
], ids=["sigma", "log_coeff-x", "log_coeff-y", "act", "cocycle", "m_ratio"])
def test_point_of_wrong_dimension_is_named(read, name):
    with pytest.raises(ValueError, match=f"^{name} has dimension 3, expected 2$"):
        read((0.2, 0.3, 0.5))
