import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewalk import rng as rngmod
from conewalk import measures, walk
from conewalk.estimators import BatchedProducts
from conewalk.harness import reference_spec
from conewalk.measures import MeasureSpec, sample_batch, sample_matrix
from conewalk.posmat import (_WRITTEN_OUT_MAX_D, AllowableMatrix, gauges,
                             perron_vector, spectral_radius)
from conewalk.rng import Purpose
from conewalk.simplex import (SimplexPoint, barycenter, contraction_coefficient,
                              hilbert_distance)
from conewalk.walk import (ContractionFailure, backward_invariant_batch,
                           backward_invariant_sample, detect_contraction)

from conftest import quadruple_coefficient, random_allowable


G1 = AllowableMatrix([[2.0, 1.0], [1.0, 1.0]])
SINGLE = MeasureSpec.single_atom(G1)
TWO = MeasureSpec.atomic([[[2.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 2.0]]],
                         [0.5, 0.5])


def replayed_draws(spec, seed, replicas, n, key=0):
    """The draws of a ``BatchedProducts`` run of ``replicas`` replicas on the
    stream (seed, FORWARD, key), replayed from that stream."""
    stream = rngmod.derived_stream(seed, Purpose.FORWARD, key)
    return [sample_batch(spec, stream, replicas) for _ in range(n)]


class TestForwardStream:
    """Forward products A_n = Y_n ... Y_1, batched in ``BatchedProducts``."""

    def test_first_step_is_single_cocycle(self):
        batch = BatchedProducts(SINGLE, rngmod.derived_stream(0, Purpose.FORWARD, 0), 3)
        assert np.array_equal(next(batch.steps(1)).transpose(2, 0, 1),
                              replayed_draws(SINGLE, 0, 3, 1)[0])
        expected = np.log((G1.entries @ barycenter(2).coords).sum())
        assert batch.n == 1
        assert np.allclose(batch.sigma(barycenter(2)), expected, rtol=0, atol=1e-14)

    def test_scale_bookkeeping_against_dense_powers(self):
        batch = BatchedProducts(SINGLE, rngmod.derived_stream(0, Purpose.FORWARD, 0), 2)
        power = np.eye(2)
        for _ in range(30):
            batch.run(1)
            power = G1.entries @ power
            cs = power.sum(axis=0)
            assert np.allclose(batch.log_norm(), np.log(cs.max()), rtol=0, atol=1e-9)
            assert np.allclose(batch.log_v(), np.log(cs.min()), rtol=0, atol=1e-9)

    def test_deterministic_product_converges_to_log_kappa(self):
        batch = BatchedProducts(SINGLE, rngmod.derived_stream(0, Purpose.FORWARD, 0), 2)
        batch.run(400)
        assert np.allclose(batch.sigma(barycenter(2)) / 400,
                           np.log(spectral_radius(G1)), rtol=0, atol=1e-2)

    def test_telescoping_of_increments(self):
        seed, replicas, n = 3, 4, 2000
        batch = BatchedProducts(TWO, rngmod.derived_stream(seed, Purpose.FORWARD, 0), replicas)
        starts = np.eye(2)
        dirs = np.broadcast_to(starts, (replicas, 2, 2)).copy()  # dirs[r, start]
        total = np.zeros((replicas, 2))
        for draws in replayed_draws(TWO, seed, replicas, n):
            batch.run(1)
            img = np.einsum("rij,rsj->rsi", draws, dirs)
            norm = img.sum(axis=2)
            total += np.log(norm)
            dirs = img / norm[:, :, None]
            for s, x in enumerate(starts):
                assert np.all(np.abs(total[:, s] - batch.sigma(x)) <= 1e-9)

    def test_sigma_between_v_and_norm(self):
        batch = BatchedProducts(TWO, rngmod.derived_stream(5, Purpose.FORWARD, 0), 4)
        for _ in range(500):
            batch.run(1)
            sig = batch.sigma((1.0, 0.0))
            assert np.all(batch.log_v() - 1e-12 <= sig)
            assert np.all(sig <= batch.log_norm() + 1e-12)

    def test_kappa_tracking_brackets(self):
        batch = BatchedProducts(TWO, rngmod.derived_stream(7, Purpose.FORWARD, 0), 4)
        for _ in range(50):
            batch.run(1)
            log_kappa = batch.log_kappa()
            assert np.all(batch.log_v() - 1e-9 <= log_kappa)
            assert np.all(log_kappa <= batch.log_norm() + 1e-9)

    def test_replica_determinism_independent_of_order(self):
        runs = {}
        for order in ((0, 1, 2), (2, 0, 1)):
            for key in order:
                batch = BatchedProducts(TWO, rngmod.derived_stream(11, Purpose.FORWARD, key), 3)
                batch.run(50)
                runs.setdefault(key, []).append(batch.sigma(barycenter(2)))
        for pair in runs.values():
            assert np.array_equal(pair[0], pair[1])
        assert not np.array_equal(runs[0][0], runs[1][0])

    def test_contraction_log_monotone(self):
        rcl = np.zeros(4)
        for draws in replayed_draws(TWO, 13, 4, 100):
            step = np.log(contraction_coefficient(draws))
            assert np.all(step <= 0.0)
            rcl += step
        assert np.all(rcl < 0.0)

    def test_spread_bounded_by_contraction_accumulation(self):
        # bound the norm/v spread of A_n by the increment-coupling chain of
        # the replayed draws
        seed, replicas, n = 17, 4, 300
        batch = BatchedProducts(TWO, rngmod.derived_stream(seed, Purpose.FORWARD, 0), replicas)
        bound = np.zeros(replicas)
        cert = np.ones(replicas)
        for draws in replayed_draws(TWO, seed, replicas, n):
            log_l = np.array([np.log(gauges(AllowableMatrix(y)).L) for y in draws])
            bound += (4.0 + 2.0 * log_l) * cert
            cert *= contraction_coefficient(draws)
            batch.run(1)
            assert np.all(batch.log_norm() - batch.log_v() <= bound + 1e-9)

    def test_product_state_reconstruction(self):
        batch = BatchedProducts(SINGLE, rngmod.derived_stream(0, Purpose.FORWARD, 0), 2)
        batch.run(40)
        assert batch.n == 40
        assert np.allclose(batch.log_norm(), batch.log_scale, rtol=0, atol=1e-12)
        assert np.all(batch.log_norm() - batch.log_v() >= -1e-15)

    def test_renormalization_prevents_overflow_at_extreme_scales(self):
        huge = MeasureSpec.atomic([[[2e150, 1e150], [1e150, 1e150]],
                                   [[1e-150, 0.5e-150], [0.5e-150, 1e-150]]],
                                  [0.5, 0.5])
        batch = BatchedProducts(huge, rngmod.derived_stream(0, Purpose.FORWARD, 0), 4)
        with np.errstate(over="raise", under="raise", invalid="raise"):
            for _ in range(200):
                batch.run(1)
                assert np.all(np.isfinite(batch.log_norm()))
                assert np.all(np.isfinite(batch.sigma(barycenter(2))))
        assert np.all(np.abs(batch.log_norm()) > 1000)  # scales accumulate only in the log


def reference_backward_sample(spec, seed, tol, start=None, block_len=1, replica=0):
    """The one-path backward loop with the quadruple coefficient, kept as
    the reference for ``backward_invariant_sample``."""
    stream = rngmod.derived_stream(seed, Purpose.BACKWARD_PATH, replica)
    d = spec.d
    x0 = barycenter(d).coords if start is None else SimplexPoint(start).coords
    P = np.eye(d)
    cert = 1.0
    blk = np.eye(d)
    blk_len = 0
    for n in range(1, 10**5):
        y = sample_matrix(spec, stream).entries
        P = P @ y
        P /= P.sum(axis=0).max()
        blk = blk @ y
        blk /= blk.max()
        blk_len += 1
        if blk_len == block_len:
            cert *= quadruple_coefficient(blk)
            blk = np.eye(d)
            blk_len = 0
            if cert <= tol:
                return SimplexPoint(P @ x0), cert, n
    raise AssertionError("reference loop did not certify")


def kernel_product(a, b):
    """a @ b for (R, d, d) stacks ``a`` and (R, d, c) stacks ``b``, divided by
    its max column sum, on the terms of ``posmat._step``: sums over k in
    order up to ``_WRITTEN_OUT_MAX_D`` and np.matmul above it; the column
    sums add the rows in order."""
    d = a.shape[1]
    if d <= _WRITTEN_OUT_MAX_D:
        out = a[:, :, 0, None] * b[:, None, 0]
        for k in range(1, d):
            out = out + a[:, :, k, None] * b[:, None, k]
    else:
        out = np.matmul(a, b)
    sums = out[:, 0]
    for i in range(1, d):
        sums = sums + out[:, i]
    return out / sums.max(axis=1)[:, None, None]


def reference_backward_batch(spec, seed, tol, n_paths, start, block_len):
    """A loop that draws one step of all paths per ``sample_batch`` call, kept
    as the reference for ``backward_invariant_batch``: each block's product is
    renormalized every step, its first factor by a power of two, and is
    multiplied into the running product once, at the block's end."""
    stream = rngmod.derived_stream(seed, Purpose.BACKWARD_BATCH)
    d = spec.d
    x0 = barycenter(d).coords if start is None else SimplexPoint(start).coords
    pts = np.empty((n_paths, d))
    steps = np.empty(n_paths, dtype=int)
    live = np.arange(n_paths)
    P = np.broadcast_to(np.eye(d), (n_paths, d, d)).copy()
    cert = np.ones(n_paths)
    n = 0
    while live.size:
        y = sample_batch(spec, stream, n_paths)[live]
        blk = np.ldexp(y, -np.frexp(y.sum(axis=1).max(axis=1))[1][:, None, None])
        n += 1
        for _ in range(1, block_len):
            n += 1
            blk = kernel_product(blk, sample_batch(spec, stream, n_paths)[live])
        cert[live] *= contraction_coefficient(blk)
        P = kernel_product(P, blk)
        done = cert[live] <= tol
        x = np.broadcast_to(x0[:, None], (np.count_nonzero(done), d, 1))
        pts[live[done]] = kernel_product(P[done], x)[:, :, 0]
        steps[live[done]] = n
        live, P = live[~done], P[~done]
    return pts, cert, steps


@st.composite
def positive_specs(draw):
    """Atomic specs of 2 to 4 strictly positive atoms in dimension 2 to 5.

    Entries lie in [1/4, 4], so one draw's coefficient is at most 255/257
    and a path of one-draw blocks certifies 1e-8 within about 2,400 steps.
    """
    d, k = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    entries = st.lists(st.floats(0.25, 4.0), min_size=d * d, max_size=d * d)
    atoms = [np.reshape(draw(entries), (d, d)) for _ in range(k)]
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    return MeasureSpec.atomic(atoms, weights / weights.sum())


PINNED_SPECS = {
    "reference": (reference_spec(), 1e-10, None, 1),
    "reference-start": (reference_spec(), 1e-10, (0.0, 1.0), 1),
    "two-transposed-blocks": (TWO.transposed(), 1e-12, None, 3),
    "lognormal-d3": (MeasureSpec.parametric("lognormal", 3, mu=0.0, sigma=0.7),
                     1e-9, None, 1),
    "uniform-d2": (MeasureSpec.parametric("uniform", 2, lo=0.0, hi=1.0), 1e-9, None, 2),
}


class TestBackwardSampler:
    def test_tolerance_one_returns_immediately(self):
        res = backward_invariant_sample(TWO, 0, 1.0)
        assert res.steps == 0
        assert res.certificate == 1.0

    def test_single_atom_converges_to_perron_vector(self):
        res = backward_invariant_sample(SINGLE, 3, 1e-10)
        assert res.certificate <= 1e-10
        assert hilbert_distance(res.point, perron_vector(G1)) <= 1e-10

    def test_two_starts_same_seed_within_certificate(self):
        a = backward_invariant_sample(TWO, 11, 1e-10, start=(1.0, 0.0))
        b = backward_invariant_sample(TWO, 11, 1e-10, start=(0.0, 1.0))
        assert a.steps == b.steps
        assert hilbert_distance(a.point, b.point) <= a.certificate

    def test_non_contracting_spec_fails_with_diagnostics(self):
        perm = MeasureSpec.atomic([[[0.0, 1.0], [1.0, 0.0]],
                                   [[1.0, 0.0], [0.0, 1.0]]], [0.5, 0.5])
        # the block search fails, before any path runs to the step cap
        with pytest.raises(ContractionFailure, match="no strictly positive products"):
            backward_invariant_sample(perm, 0, 0.5)

    def test_step_cap_reported(self):
        with pytest.raises(ContractionFailure, match="certificate"):
            backward_invariant_sample(TWO, 0, 1e-10, step_cap=3, block_len=1)

    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_pinned_against_reference_loop(self, name):
        spec, tol, start, block_len = PINNED_SPECS[name]
        for replica in range(4):
            res = backward_invariant_sample(spec, 40 + replica, tol, start=start,
                                            block_len=block_len, replica=replica)
            point, cert, steps = reference_backward_sample(
                spec, 40 + replica, tol, start=start, block_len=block_len,
                replica=replica)
            assert res.steps == steps
            assert np.max(np.abs(res.point.coords - point.coords)) <= 1e-15
            assert res.certificate == pytest.approx(cert, rel=1e-12, abs=0)

    def test_batch_block_product_is_renormalized(self):
        # blocks of three draws at 1e150 or 1e200 overflow, and at 1e-200
        # underflow, unless renormalized every step from the first factor on;
        # the steps must not depend on the scale of the atoms
        ref = reference_spec()
        steps, one_path = {}, {}
        for scale in (1.0, 1e150, 1e200, 1e-200):
            spec = MeasureSpec.atomic([a.entries * scale for a in ref.atoms], ref.weights)
            pts, certs, steps[scale] = backward_invariant_batch(spec, 5, 1e-8, 32,
                                                                block_len=3)
            assert np.all(certs > 0) and np.all(certs <= 1e-8)
            assert np.all(np.isfinite(pts)) and np.all(pts > 0)
            one_path[scale] = [backward_invariant_sample(spec, 5, 1e-8, block_len=3,
                                                         replica=i).steps
                               for i in range(4)]
        for scale in (1e150, 1e200, 1e-200):
            assert np.array_equal(steps[1.0], steps[scale])
            assert one_path[1.0] == one_path[scale]
        assert steps[1.0].min() > 3

    @pytest.mark.parametrize("block_len", [1, 3])
    @pytest.mark.parametrize("name", ["reference", "transposed", "scaled-1e150",
                                      "lognormal-d8", "lognormal-d4", "lognormal-d5"])
    def test_batch_pinned_against_per_step_loop(self, name, block_len):
        # d = 4 and 5 sit on either side of posmat._WRITTEN_OUT_MAX_D, where
        # the kernel switches from in-order sums to np.matmul
        ref = reference_spec()
        spec = {"reference": ref, "transposed": ref.transposed(),
                "scaled-1e150": MeasureSpec.atomic([a.entries * 1e150 for a in ref.atoms],
                                                   ref.weights),
                "lognormal-d8": MeasureSpec.parametric("lognormal", 8, mu=0.0, sigma=1.0),
                "lognormal-d4": MeasureSpec.parametric("lognormal", 4, mu=0.0, sigma=1.0),
                "lognormal-d5": MeasureSpec.parametric("lognormal", 5, mu=0.0, sigma=1.0),
                }[name]
        got = backward_invariant_batch(spec, 6, 1e-10, 40, block_len=block_len)
        want = reference_backward_batch(spec, 6, 1e-10, 40, None, block_len)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("R", [1, 2, 8, 16, 17, 64])
    def test_reductions_pinned_either_side_of_the_cut(self, d, R):
        # the block products' renormalizations agree bit for bit with the
        # per-path reference, whether every path is live or the draws are
        # cut down to the live ones, at any scale of the draws
        rng = np.random.default_rng(7)
        for n_paths in (R, R + 3):
            live = np.sort(rng.choice(n_paths, R, replace=False))
            for size in (1, 4):
                for block_len in (1, 3):
                    for scale in (1.0, 1e200, 1e-200):
                        draws = scale * rng.lognormal(size=(size, block_len, n_paths, d, d))
                        got = walk._certificate_blocks(draws, live)
                        assert got.shape == (d, d, size * R)
                        # (size * R, L, d, d), block b of path live[i] at b * R + i
                        y = draws[:, :, live].transpose(0, 2, 1, 3, 4).reshape(
                            size * R, block_len, d, d)
                        want = np.ldexp(y[:, 0], -np.frexp(
                            y[:, 0].sum(axis=1).max(axis=1))[1][:, None, None])
                        for j in range(1, block_len):
                            want = kernel_product(want, y[:, j])
                        assert np.array_equal(got.transpose(2, 0, 1), want)
                        sums = got.sum(axis=0).max(axis=0)
                        if block_len == 1:
                            assert np.all((sums >= 0.5) & (sums < 1.0))
                        else:
                            assert np.allclose(sums, 1.0, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n_samples", [-3, 0, 2.5, np.inf, np.nan])
    def test_batch_rejects_bad_n_samples(self, n_samples):
        # -3 failed inside numpy and 2.5 silently ran 2 paths
        with pytest.raises(ValueError, match="n_samples"):
            backward_invariant_batch(TWO, 0, 1e-8, n_samples)

    def test_block_len_must_be_positive(self):
        with pytest.raises(ValueError, match="block_len"):
            backward_invariant_batch(TWO, 0, 1e-8, 4, block_len=0)

    def test_step_cap_must_be_nonnegative(self):
        # a negative cap used to mean no cap at all
        with pytest.raises(ValueError, match="step_cap"):
            backward_invariant_sample(TWO, 0, 1e-8, step_cap=-1)

    def test_batch_certificates_and_determinism(self):
        pts, certs, steps = backward_invariant_batch(TWO, 5, 1e-8, 50)
        pts2, certs2, steps2 = backward_invariant_batch(TWO, 5, 1e-8, 50)
        assert np.array_equal(pts, pts2)
        assert np.all(certs <= 1e-8)
        assert np.all(steps >= 1)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)

    @given(positive_specs(), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_random_specs_stop_with_the_reference_loop(self, spec, block_len, seed):
        res = backward_invariant_sample(spec, seed, 1e-8, block_len=block_len)
        _, _, steps = reference_backward_sample(spec, seed, 1e-8, block_len=block_len)
        assert res.steps == steps


LOGNORMAL_D3 = MeasureSpec.parametric("lognormal", 3, mu=0.0, sigma=0.7)


def lognormal_d8():
    # a fresh instance: the block length is cached on the spec
    return MeasureSpec.parametric("lognormal", 8, mu=0.0, sigma=0.5)


def reference_block_quantiles(spec):
    """The np.matmul loop with max-entry renormalisation, kept as the
    reference for ``MeasureSpec._contracting_block``: the 90th-percentile
    coefficient of the sampled L-step products (new draws on the right) at
    each L up to the first at or below 1/16, or up to 16."""
    stream = rngmod.derived_stream(0, Purpose.BLOCK_SEARCH)
    blk, quantiles = np.eye(spec.d), []
    for _ in range(16):
        blk = np.matmul(blk, sample_batch(spec, stream, 256))
        blk /= blk.max(axis=(1, 2), keepdims=True)
        quantiles.append(np.quantile(contraction_coefficient(blk), 0.9))
        if quantiles[-1] <= 1 / 16:
            break
    return quantiles


def _random_atomic(seed):
    rng = np.random.default_rng(seed)
    d, k = 2 + seed % 4, 1 + seed % 4
    atoms = [random_allowable(rng, d, strictly_positive=False) for _ in range(k)]
    weights = rng.uniform(0.1, 1.0, k)
    return MeasureSpec.atomic(atoms, weights / weights.sum())


class TestDefaultBlockLen:
    """The certificate block length, measured from the spec's contraction."""

    @pytest.mark.parametrize("name", ["reference", "lognormal-d3", "lognormal-d8", "perm",
                                      *(f"atomic-{seed}" for seed in range(6))])
    def test_search_pinned_against_matmul_loop(self, name, monkeypatch):
        # fresh instances: the search is cached on the spec
        makers = {"reference": reference_spec, "lognormal-d8": lognormal_d8,
                  "lognormal-d3": lambda: MeasureSpec.parametric("lognormal", 3, mu=0.0,
                                                                 sigma=0.7),
                  "perm": lambda: MeasureSpec.atomic(PERM.atoms, PERM.weights)}
        spec = makers[name]() if name in makers else _random_atomic(int(name[7:]))
        quantiles, coefficient = [], measures.contraction_coefficient

        def recording_coefficient(stack):
            values = coefficient(stack)
            quantiles.append(np.quantile(values, 0.9))
            return values

        monkeypatch.setattr(measures, "contraction_coefficient", recording_coefficient)
        found = spec._contracting_block
        want = reference_block_quantiles(spec)
        assert len(quantiles) == len(want)
        assert np.allclose(quantiles, want, rtol=1e-12, atol=0)
        assert found == (len(want) if want[-1] <= 1 / 16 else None)

    @pytest.mark.parametrize("name, want", [("reference", 8), ("lognormal-d3", 4),
                                            ("lognormal-d8", 4)])
    def test_pinned(self, name, want):
        spec = {"reference": reference_spec(), "lognormal-d3": LOGNORMAL_D3,
                "lognormal-d8": lognormal_d8()}[name]
        assert walk.default_block_len(spec) == want

    def test_one_search_per_spec_whatever_the_seed(self, monkeypatch):
        keys = []
        derive = rngmod.derived_stream

        def recording_derive(*key):
            keys.append(key)
            return derive(*key)

        monkeypatch.setattr(rngmod, "derived_stream", recording_derive)
        spec = lognormal_d8()
        for seed in (1, 2, 3):
            _, _, steps = backward_invariant_batch(spec, seed, 1e-6, 8)
            assert np.all(steps % 4 == 0)
            res = backward_invariant_sample(spec, seed, 1e-6)
            assert res.steps % 4 == 0
        assert keys.count((0, Purpose.BLOCK_SEARCH)) == 1
        assert walk.default_block_len(spec) == 4
        assert keys.count((0, Purpose.BLOCK_SEARCH)) == 1

    def test_strongly_contracting_atom_keeps_blocks_of_one(self):
        # one draw has coefficient 0.005, far below the target
        spec = MeasureSpec.single_atom([[1.0, 1.01], [1.0, 1.0]])
        assert contraction_coefficient(spec.atoms[0]) < 1 / 16
        assert walk.default_block_len(spec) == 1

    def test_certificates_positive_at_tiny_tolerance(self):
        pts, certs, steps = backward_invariant_batch(lognormal_d8(), 9, 1e-100, 64)
        assert np.all(certs > 0) and np.all(certs <= 1e-100)
        assert np.all(steps % 4 == 0)
        assert np.all(np.isfinite(pts)) and np.all(pts > 0)

    @pytest.mark.parametrize("name", ["reference", "lognormal-d3"])
    def test_two_starts_within_certificate(self, name):
        spec = {"reference": reference_spec(), "lognormal-d3": LOGNORMAL_D3}[name]
        d = spec.d
        for seed in range(4):
            a = backward_invariant_sample(spec, seed, 1e-10, start=np.eye(d)[0])
            b = backward_invariant_sample(spec, seed, 1e-10, start=np.eye(d)[-1])
            assert a.steps == b.steps and a.steps % walk.default_block_len(spec) == 0
            assert hilbert_distance(a.point, b.point) <= a.certificate


def reference_detect_contraction(spec, r_max, samples, seed=0):
    """The one-draw-at-a-time search, kept as the reference for
    ``detect_contraction``; returns (r, frequency) or None."""
    for r in range(1, r_max + 1):
        stream = rngmod.derived_stream(seed, Purpose.CONTRACTION_SEARCH, r)
        hits = 0
        for _ in range(samples):
            prod = sample_matrix(spec, stream).entries.copy()
            for _ in range(r - 1):
                prod = sample_matrix(spec, stream).entries @ prod
                prod /= prod.max()
            if np.all(prod > 0):
                hits += 1
        if hits:
            return r, hits / samples
    return None


PERM = MeasureSpec.atomic([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]], [0.5, 0.5])


class TestDetectContraction:
    @pytest.mark.parametrize("name", ["two", "perm", "fixture-a", "reference", "sparse"])
    def test_pinned_against_reference_loop(self, name):
        from conewalk.harness import pathology_fixtures

        spec = {"two": TWO, "perm": PERM, "fixture-a": pathology_fixtures()[0],
                "reference": reference_spec(),
                "sparse": MeasureSpec.atomic([[[1.0, 1.0], [0.0, 1.0]],
                                              [[1.0, 0.0], [1.0, 1.0]]], [0.5, 0.5])}[name]
        for seed in range(3):
            found = detect_contraction(spec, 5, 150, seed=seed)
            expected = reference_detect_contraction(spec, 5, 150, seed=seed)
            assert (None if found is None else (found.r, found.frequency)) == expected

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="samples"):
            detect_contraction(TWO, 4, 0)

    def test_strictly_positive_atom_found_at_one(self):
        found = detect_contraction(TWO, 4, 200, seed=1)
        assert found.r == 1
        assert found.frequency == 1.0

    def test_monomial_atoms_never_found(self):
        perm = MeasureSpec.atomic([[[0.0, 1.0], [1.0, 0.0]],
                                   [[1.0, 0.0], [0.0, 1.0]]], [0.5, 0.5])
        assert detect_contraction(perm, 6, 100, seed=2) is None

    def test_diagonal_family_with_flat_atom(self):
        from conewalk.harness import pathology_fixtures

        fixture_a, _ = pathology_fixtures()
        found = detect_contraction(fixture_a, 3, 200, seed=3)
        assert found.r == 1
        assert 0.5 < found.frequency <= 1.0  # flat atom carries weight 5/6


# non-integral counts used to be truncated or to fail inside numpy
@pytest.mark.parametrize("call, field", [
    (lambda: backward_invariant_batch(TWO, 0, 1e-8, 4, block_len=1.5), "block_len"),
    (lambda: backward_invariant_sample(TWO, 0, 1e-8, step_cap=100.5), "step_cap"),
    (lambda: detect_contraction(TWO, 1.5, 10), "r_max"),
    (lambda: detect_contraction(TWO, 4, 10.5), "samples"),
], ids=["backward-block_len", "backward-step_cap", "contraction-r_max", "contraction-samples"])
def test_rejects_a_non_integral_count(call, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        call()
