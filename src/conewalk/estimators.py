"""Estimators for the top Lyapunov exponent, coupling decay, the
asymptotic variance (three independent routes), aperiodicity evidence,
and moment regularity of the invariant measure.

All estimators are replica-parallel; vectorized batches draw from one
stream per estimator, keyed by its purpose in ``rng.Purpose``, so a
fixed (spec, seed, sizes) triple always reproduces the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .measures import MeasureSpec, block_steps, sample_batch, sample_words, word_levels
from .posmat import _check_iteration, _dense_spectral_radius, _power_iteration, _step
from .rng import Purpose
from .simplex import as_count, as_grid, as_point, barycenter, contraction_coefficient
from .walk import backward_invariant_batch, detect_contraction

__all__ = [
    "FUNCTIONALS",
    "EstimateWithError",
    "LyapunovResult",
    "estimate_lyapunov",
    "CouplingCurve",
    "coupling_decay",
    "fit_geometric_envelope",
    "estimate_variance_direct",
    "SeriesVariance",
    "estimate_variance_series",
    "PsiEstimate",
    "estimate_psi",
    "MartingaleVariance",
    "variance_via_martingale",
    "VarianceTriangulation",
    "variance_triangulation",
    "AperiodicityReport",
    "aperiodicity_report",
    "invariant_regularity",
    "MomentSanity",
    "moment_sanity",
    "BatchedProducts",
]

# the functionals of A_n that ``BatchedProducts.functional`` reads by name
FUNCTIONALS = ("sigma", "norm", "v", "kappa", "coeff", "inf_coeff")
RATIO_TOL = 1e-9  # for aperiodicity_report, see AperiodicityReport
# aperiodicity_report's cap on the words of all lengths: its pairwise check
# grows with their square.  Reference spec (2-vCPU Xeon): 1,092 words (length
# 6) take 0.6 s at 137 MiB peak RSS, 3,279 (length 7) 5.9 s at 908 MiB.
APERIODICITY_MAX_WORDS = 1100
MAX_DENOMINATOR = 1000


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo estimate with its standard error over replicas."""

    value: float
    std_error: float
    replicas: int
    method: str

    def agrees_with(self, other: "EstimateWithError", k: float = 3.0) -> bool:
        """Whether the two estimates differ by at most k combined errors."""
        band = k * float(np.hypot(self.std_error, other.std_error))
        return abs(self.value - other.value) <= band


def _mean_with_error(samples: np.ndarray, method: str) -> EstimateWithError:
    samples = np.asarray(samples, dtype=float)
    r = samples.size
    se = float(samples.std(ddof=1) / np.sqrt(r))
    return EstimateWithError(float(samples.mean()), se, r, method)


def _variance_with_error(samples: np.ndarray, scale: float, method: str) -> EstimateWithError:
    """Sample variance (scaled) with a moment-based standard error."""
    x = np.asarray(samples, dtype=float)
    r = x.size
    m = x.mean()
    dev2 = (x - m) ** 2
    var = dev2.sum() / (r - 1)
    se = float(np.sqrt(max(np.mean((dev2 - dev2.mean()) ** 2), 0.0) / r))
    return EstimateWithError(var * scale, se * scale, r, method)


# ---------------------------------------------------------------------
# Vectorized forward products
# ---------------------------------------------------------------------


def _forward_blocks(spec: MeasureSpec, rng: np.random.Generator,
                    state: np.ndarray, steps: int, block: int | None = None, words=False):
    """Run the (d, c, R) ``state`` forward ``steps`` steps; yield per block
    of T steps the (T, R) log increments, the list of T (d, c, R) states
    after each step and the (T, d, d, R) view of the block's draws.

    A block is one ``sample_batch(spec, rng, T * R)`` call, draw t * R + i
    acting on replica i at the block's step t: the draws of T calls of size
    R, so the block sizes do not change which draw meets which step.  T
    follows ``block_steps``, or is ``block`` when given.  Nothing is drawn
    until the generator is advanced: a caller that draws from ``rng`` between
    steps (the martingale route draws psi's inner paths) passes ``block=1``.
    With ``words`` (atomic specs with a word table) a step is a word of L draws:
    a block is one ``sample_words`` call, the draws are the words' products in
    the top level of ``MeasureSpec._words``, and the (T, R) words are yielded
    in place of the draws; the caller adds the words' logs to the increments.
    """
    d, c, R = state.shape
    done = 0
    while done < steps:
        size = block or block_steps(done, R * d * d, steps - done)
        if words:
            w = sample_words(spec, rng, size * R).reshape(size, R)
            y = spec._words[1][-1][0].take(w, axis=2).transpose(2, 0, 1, 3)
        else:
            y = sample_batch(spec, rng, size * R).reshape(size, R, d, d).transpose(0, 2, 3, 1)
        states, incs = [], np.empty((size, R))
        for t in range(size):
            state, scale = _step(y[t], state)
            np.log(scale, out=incs[t])  # a block-wide log took 48x the page faults at R = 8192
            states.append(state)
        done += size
        yield incs, states, w if words else y
        del y  # the draws are freed before the next block is drawn


class BatchedProducts:
    """Forward products A_n = Y_n ... Y_1 for a whole batch of replicas.

    State is the op-norm-normalized product per replica plus the log
    scale; every spectator functional of A_n is read off the pair.  The
    products are held as (d, d, R) entries, so each functional reads
    length-R arrays; ``P`` is the (R, d, d) view of the same memory.
    """

    def __init__(self, spec: MeasureSpec, rng: np.random.Generator, replicas: int):
        if not isinstance(rng, np.random.Generator):
            raise TypeError(f"rng must be a numpy Generator, got {type(rng).__name__}")
        self.spec = spec
        self.rng = rng
        self.replicas = as_count(replicas, "replicas")
        d = spec.d
        self._entries = np.broadcast_to(np.eye(d)[:, :, None], (d, d, self.replicas)).copy()
        self.log_scale = np.zeros(self.replicas)
        self.n = 0

    @property
    def P(self) -> np.ndarray:
        """The normalized products, an (R, d, d) view."""
        return self._entries.transpose(2, 0, 1)

    def steps(self, n: int):
        """Advance ``n`` steps, drawn in blocks by ``_forward_blocks``; after
        each step the products, ``log_scale`` and ``n`` are current, and that
        step's (d, d, R) draws are yielded."""
        n = as_count(n, "n", 0)
        for incs, states, y in _forward_blocks(self.spec, self.rng, self._entries, n):
            for inc, state, draws in zip(incs, states, y):
                self.log_scale += inc
                self._entries = state
                self.n += 1
                yield draws

    def run(self, n: int) -> None:
        """``n`` steps: the draws, products and stream state of ``n`` calls of ``run(1)``."""
        for _ in self.steps(n):
            pass

    def leap(self, n: int) -> None:
        """``n`` steps with the law of ``run(n)``, one uniform, ``_step`` and log
        per word of L steps: each word is drawn whole from the word law of
        ``MeasureSpec._words``, the atomic law on the K**L words with product
        weights, by ``_forward_blocks`` in word mode (draw t * R + i of a block
        is word t of replica i).  The last n mod L steps, and specs without
        words (parametric laws, and laws whose L would be 1), go through
        ``run`` on its draws."""
        n = as_count(n, "n", 0)
        words = self.spec._words if self.spec.kind == "atomic" else None
        if words is None:
            return self.run(n)
        length, logs = words[0], words[1][-1][1]
        for incs, states, w in _forward_blocks(self.spec, self.rng, self._entries,
                                               n // length, words=True):
            for inc, wt in zip(incs, logs.take(w)):
                self.log_scale += inc + wt
            self._entries = states[-1]
        self.n += n - n % length
        self.run(n % length)

    # -- functionals of A_n ------------------------------------------------

    def column_sums(self) -> np.ndarray:
        return self._entries.sum(axis=0).T

    def log_norm(self) -> np.ndarray:
        return self.log_scale + np.log(self.column_sums().max(axis=1))

    def log_v(self) -> np.ndarray:
        cs = self.column_sums()
        return self.log_scale + np.log(np.maximum(cs.min(axis=1), 5e-324))

    def sigma(self, x) -> np.ndarray:
        # |A x|_1 is the column sums weighted by x
        xc = as_point(x, self.spec.d, "x").coords
        return self.log_scale + np.log(xc @ self._entries.sum(axis=0))

    def log_min_entry(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return self.log_scale + np.log(self._entries.min(axis=(0, 1)))

    def log_coeff(self, x, y) -> np.ndarray:
        xc, yc = as_point(x, self.spec.d, "x").coords, as_point(y, self.spec.d, "y").coords
        vals = np.einsum("i,ijr,j->r", yc, self._entries, xc)
        with np.errstate(divide="ignore"):
            return self.log_scale + np.log(vals)

    def log_kappa(self, tol: float = 1e-12, max_iter: int = 200) -> np.ndarray:
        """Batched power iteration on the normalized products.

        Paths that fail to settle (possible for non-primitive products)
        fall back to a dense eigensolver, in one call.
        """
        max_iter = _check_iteration("tol", tol, max_iter)
        _, lam, settled = _power_iteration(self._entries, tol, max_iter)
        if not settled.all():
            lam[~settled] = _dense_spectral_radius(self.P[~settled])
        return self.log_scale + np.log(lam)

    def functional(self, name: str, x, y) -> np.ndarray:
        """The functional ``name`` of FUNCTIONALS: sigma and coeff start from
        the point ``x``, and coeff pairs the product with the point ``y``."""
        reads = {"sigma": lambda: self.sigma(x), "norm": self.log_norm,
                 "v": self.log_v, "kappa": self.log_kappa,
                 "coeff": lambda: self.log_coeff(x, y), "inf_coeff": self.log_min_entry}
        return reads[name]()


# ---------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovResult:
    """Lyapunov estimate plus the norm/v spread convergence diagnostic.

    ``spread`` is the mean over replicas of (log|A_n| - log v(A_n)) / n;
    cocycles from any two starts differ pathwise by at most that gap, so
    a small spread certifies start-independence of the estimate.
    """

    estimate: EstimateWithError
    spread: float
    n: int


def estimate_lyapunov(spec: MeasureSpec, n: int, replicas: int,
                      start=None, seed: int = 0) -> LyapunovResult:
    """Mean of sigma(A_n, x)/n over replicas."""
    n, replicas = as_count(n, "n"), as_count(replicas, "replicas", 2)
    x = as_point(start, spec.d, "start")
    batch = BatchedProducts(spec, rngmod.derived_stream(seed, Purpose.FORWARD, 0), replicas)
    batch.leap(n)
    est = _mean_with_error(batch.sigma(x) / n, "lyapunov")
    spread = float(np.mean(batch.log_norm() - batch.log_v()) / n)
    return LyapunovResult(estimate=est, spread=spread, n=n)


# ---------------------------------------------------------------------
# Coupling decay
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingCurve:
    """Decay of the start-point sensitivity of cocycle increments.

    values[i] is the p-th moment, over replicas, of the exact sup over
    start pairs of the step-n_grid[i] increment discrepancy.  The sup is
    exact because the increment is the log of a ratio of two linear
    functionals of the start, so its extrema over the simplex sit at
    vertices.  ``a_hat`` is the fitted geometric rate with its R^2;
    ``max_violation`` is the worst pathwise excess over the contraction
    bound (4 + 2 log L(Y_n)) * prod c(blocks), None when not checked.
    """

    p: float
    n_grid: tuple[int, ...]
    values: tuple[float, ...]
    a_hat: float | None
    r_squared: float | None
    max_violation: float | None


def coupling_decay(spec: MeasureSpec, p: float, n_grid, replicas: int,
                   seed: int = 0, pathwise_check: bool = True,
                   block_len: int = 1) -> CouplingCurve:
    """Estimate the increment-coupling moments over a grid of steps."""
    grid = as_grid(n_grid)
    block_len, replicas = as_count(block_len, "block_len"), as_count(replicas, "replicas")
    if not p > 0:
        raise ValueError(f"p must be > 0, got {p}")
    n_max = grid[-1]
    batch = BatchedProducts(spec, rngmod.derived_stream(seed, Purpose.FORWARD, 0), replicas)
    d = spec.d
    values = {}
    max_violation = None
    cert = np.ones(replicas)
    blk = eye = np.broadcast_to(np.eye(d)[:, :, None], (d, d, replicas))
    prev_log_cs = batch.log_scale[:, None] + np.log(batch.column_sums())
    for y in batch.steps(n_max):
        n = batch.n
        log_cs = batch.log_scale[:, None] + np.log(np.maximum(
            batch.column_sums(), 5e-324))
        ratios = log_cs - prev_log_cs
        spread = ratios.max(axis=1) - ratios.min(axis=1)
        prev_log_cs = log_cs
        if n in grid:
            values[n] = float(np.mean(spread ** p))
        if pathwise_check:
            cs = y.sum(axis=0)
            log_l = np.log(cs.max(axis=0)) - np.log(cs.min(axis=0))
            bound = (4.0 + 2.0 * log_l) * cert
            excess = float(np.max(spread - bound))
            max_violation = excess if max_violation is None else max(max_violation, excess)
            blk, _ = _step(y, blk)
            if n % block_len == 0:
                cert *= contraction_coefficient(blk.transpose(2, 0, 1))
                blk = eye
    vals = tuple(values[n] for n in grid)
    a_hat, r2 = _fit_rate(grid, vals)
    return CouplingCurve(p=float(p), n_grid=tuple(grid), values=vals,
                         a_hat=a_hat, r_squared=r2,
                         max_violation=max_violation if pathwise_check else None)


def _fit_rate(grid, values):
    ns = np.asarray(grid, dtype=float)
    vals = np.asarray(values, dtype=float)
    keep = vals > 0
    if keep.sum() < 2:
        return None, None
    x, y = ns[keep], np.log(vals[keep])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(slope)), r2


def fit_geometric_envelope(ns, values) -> tuple[float, float]:
    """Geometric majorant amp * rate**n of nonnegative values on ns.

    The rate comes from a log-linear fit over positive values (clipped
    below 1), and the amplitude is raised until every value is covered.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    if not np.any(vals > 0):
        return 0.0, 0.5
    rate, _ = _fit_rate(ns, vals)  # None below two positive values
    rate = 0.5 if rate is None else float(np.clip(rate, 1e-6, 1.0 - 1e-9))
    amp = float(np.max(vals / rate ** ns))
    return amp, rate


def envelope_tail(amp: float, rate: float, n: int) -> float:
    """Sum of the envelope beyond level n."""
    if amp == 0.0:
        return 0.0
    return amp * rate ** (n + 1) / (1.0 - rate)


# ---------------------------------------------------------------------
# Asymptotic variance, route 1: direct scaling
# ---------------------------------------------------------------------


_DIRECT_FUNCTIONALS = FUNCTIONALS[:4]  # sigma, norm, v and kappa


def estimate_variance_direct(spec: MeasureSpec, n: int, replicas: int,
                             start=None, seed: int = 0,
                             functionals=_DIRECT_FUNCTIONALS,
                             ) -> dict[str, EstimateWithError]:
    """Sample variance of the centered functionals of A_n, divided by n.

    All four identifications (cocycle from a fixed start, log norm,
    log v, log spectral radius) converge to the same limit; they are
    reported together so their agreement can be checked.
    """
    n, replicas = as_count(n, "n"), as_count(replicas, "replicas", 2)
    unknown = sorted(set(functionals) - set(_DIRECT_FUNCTIONALS))
    if unknown:
        raise ValueError(f"functionals must be among {_DIRECT_FUNCTIONALS}, got {unknown}")
    x = as_point(start, spec.d, "start")
    batch = BatchedProducts(spec, rngmod.derived_stream(seed, Purpose.FORWARD, 0), replicas)
    batch.leap(n)
    return {name: _variance_with_error(batch.functional(name, x, None), 1.0 / n,
                                       f"direct-{name}")
            for name in functionals}


# ---------------------------------------------------------------------
# Asymptotic variance, route 2: autocovariance series
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesVariance:
    """Truncated stationary autocovariance series for the variance.

    The per-replica statistic is (X_1 - lam)^2 + 2 sum_k (X_1 - lam)(X_k - lam)
    over a path of centered increments started from an invariant-measure
    sample; the truncation tail is bounded by the coupling envelope.
    """

    estimate: EstimateWithError
    tail_bound: float
    lag_max: int


def estimate_variance_series(spec: MeasureSpec, n_lag_max: int, replicas: int,
                             lambda_hat: float, seed: int = 0,
                             w0_tol: float = 1e-8,
                             envelope: tuple[float, float] | None = None,
                             ) -> SeriesVariance:
    """Monte Carlo for the stationary-increment autocovariance series."""
    n_lag_max, replicas = as_count(n_lag_max, "n_lag_max"), as_count(replicas, "replicas", 2)
    w0, _, _ = backward_invariant_batch(spec, seed, w0_tol, replicas)
    stream = rngmod.derived_stream(seed, Purpose.SERIES_PATHS)
    incs = np.concatenate([log_norms for log_norms, _, _ in
                           _forward_blocks(spec, stream, w0.T[:, None], n_lag_max)]) - lambda_hat
    first = incs[0]
    acc = first * first
    for inc in incs[1:]:
        acc += 2.0 * first * inc
    est = _mean_with_error(acc, "series")
    if envelope is None:
        tail = float("nan")
    else:
        tail = 2.0 * float(np.mean(np.abs(first))) * envelope_tail(*envelope, n_lag_max - 1)
    return SeriesVariance(estimate=est, tail_bound=tail, lag_max=n_lag_max)


# ---------------------------------------------------------------------
# Asymptotic variance, route 3: martingale differences
# ---------------------------------------------------------------------


@dataclass
class PsiEstimate:
    """Truncated corrector sum psi_hat(x) = sum_{level<=N} (mean increment - lam).

    ``evaluate`` runs ``inner_size`` fresh ``BatchedProducts`` paths shared
    by all query points: by the cocycle identity a path's increments from x
    sum to log |Pi x|_1, Pi the product of its draws.  Level contributions
    are dominated by the fitted envelope, whose tail beyond N is ``tail_bound``.
    """

    spec: MeasureSpec
    truncation: int
    inner_size: int
    lambda_hat: float
    envelope: tuple[float, float]
    tail_bound: float
    level_contributions: tuple[float, ...]

    def evaluate(self, points, rng: np.random.Generator):
        """psi_hat at each row of ``points``; returns (values, mc_variance)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.spec.d
        if pts.ndim != 2 or pts.shape[1] != d:
            raise ValueError(f"points must be rows of dimension {d}, got shape {pts.shape}")
        if not (np.isfinite(pts).all() and (pts >= 0).all() and (pts.sum(axis=1) > 0).all()):
            raise ValueError("points must be finite, nonnegative rows with positive sums")
        batch = BatchedProducts(self.spec, rng, self.inner_size)
        batch.run(self.truncation)
        # total = log_scale + log(cs x), centred, all in the (m, b) buffer the
        # matmul returns: mean() and var(ddof=1)'s operations in their order,
        # bit for bit, without their whole-matrix temporaries
        m = self.inner_size
        total = batch.column_sums() @ pts.T
        np.log(total, out=total)
        total += batch.log_scale[:, None]
        mean = total.mean(axis=0)
        total -= mean
        values = mean - self.truncation * self.lambda_hat
        mc_var = np.einsum("ij,ij->j", total, total) / (m - 1) / m
        return values, mc_var


def estimate_psi(spec: MeasureSpec, truncation: int, inner_size: int,
                 lambda_hat: float, seed: int = 0,
                 fit_points: int = 8) -> PsiEstimate:
    """Build the corrector evaluator and fit its level envelope.

    The envelope is fitted on the observed per-level deviations of the
    mean increment from lambda_hat, maximized over a few probe points so
    it dominates the contributions uniformly; level k's increment is
    log |Pi_k x|_1 - log |Pi_{k-1} x|_1 on the inner paths' products.
    """
    truncation = as_count(truncation, "truncation")
    inner_size = as_count(inner_size, "inner_size", 2)
    fit_points = as_count(fit_points, "fit_points")
    stream = rngmod.derived_stream(seed, Purpose.PSI_FIT)
    d = spec.d
    probes = [barycenter(d).coords]
    for _ in range(fit_points - 1):
        probes.append(stream.dirichlet(np.ones(d)))
    pts = np.stack(probes)
    batch = BatchedProducts(spec, stream, inner_size)
    means = [np.zeros(len(pts))]  # log |x|_1 = 0 on the simplex
    for _ in batch.steps(truncation):
        means.append(batch.log_scale.mean() + np.log(batch.column_sums() @ pts.T).mean(axis=0))
    contributions = np.abs(np.diff(means, axis=0) - lambda_hat).max(axis=1).tolist()
    levels = np.arange(1, truncation + 1)
    amp, rate = fit_geometric_envelope(levels, contributions)
    return PsiEstimate(spec=spec, truncation=truncation, inner_size=inner_size,
                       lambda_hat=lambda_hat, envelope=(amp, rate),
                       tail_bound=envelope_tail(amp, rate, truncation),
                       level_contributions=tuple(contributions))


@dataclass(frozen=True)
class MartingaleVariance:
    """Mean squared martingale difference with its diagnostics.

    The raw mean of D_k^2 is inflated by twice the inner Monte Carlo
    variance of the corrector evaluations (independent noise enters the
    consecutive difference); that measured term is subtracted from the
    value and reported.  The raw lag-1 autocovariance is deflated by the
    same noise term and corrected before the whiteness check.
    ``mean_diff`` should sit within a few of its standard errors of zero
    when the differences really are a martingale.
    """

    estimate: EstimateWithError
    lag1_autocorr: float
    lag1_se: float
    mc_noise_var: float
    raw_value: float
    mean_diff: float
    mean_diff_se: float
    steps: int


def variance_via_martingale(spec: MeasureSpec, psi: PsiEstimate, n: int,
                            replicas: int, lambda_hat: float, seed: int = 0,
                            w0_tol: float = 1e-8) -> MartingaleVariance:
    """Variance via the corrected increments D_k along stationary paths."""
    n, replicas = as_count(n, "n", 2), as_count(replicas, "replicas", 2)
    w0, _, _ = backward_invariant_batch(spec, seed, w0_tol, replicas)
    stream = rngmod.derived_stream(seed, Purpose.MARTINGALE_PATHS)
    psi_prev, var_prev = psi.evaluate(w0, stream)
    sum_d2 = np.zeros(replicas)
    sum_d = np.zeros(replicas)
    lag1 = np.zeros(replicas)
    prev_d = None
    noise_acc = float(np.mean(var_prev))
    for log_norms, dirs, _ in _forward_blocks(spec, stream, w0.T[:, None], n, block=1):
        psi_cur, var_cur = psi.evaluate(dirs[0][:, 0].T, stream)
        d = log_norms[0] - lambda_hat + psi_cur - psi_prev
        sum_d2 += d * d
        sum_d += d
        if prev_d is not None:
            lag1 += d * prev_d
        prev_d = d
        psi_prev = psi_cur
        noise_acc += float(np.mean(var_cur))
    noise_var = noise_acc / (n + 1)  # one evaluation at the start, one per step
    per_replica = sum_d2 / n - 2.0 * noise_var
    est = _mean_with_error(per_replica, "martingale")
    total = replicas * n
    mean_d = float(sum_d.sum() / total)
    var_d = max(float(sum_d2.sum() / total) - mean_d ** 2, 0.0)
    raw_cov = float(lag1.sum() / (replicas * (n - 1))) - mean_d ** 2
    cov = raw_cov + noise_var
    s2 = max(est.value, 1e-300)
    lag1_corr = cov / s2
    lag1_se = 1.0 / np.sqrt(replicas * (n - 1))
    return MartingaleVariance(estimate=est, lag1_autocorr=lag1_corr,
                              lag1_se=float(lag1_se), mc_noise_var=noise_var,
                              raw_value=float(np.mean(sum_d2 / n)),
                              mean_diff=mean_d,
                              mean_diff_se=float(np.sqrt(var_d / total)), steps=n)


@dataclass(frozen=True)
class VarianceTriangulation:
    """The three variance routes at the series window the coupling envelope
    chose; ``envelope`` is its (amp, rate) majorant, ``target`` the tail's bound."""

    direct: dict[str, EstimateWithError]
    series: SeriesVariance
    martingale: MartingaleVariance
    envelope: tuple[float, float]
    target: float
    lag: int
    routes_agree: bool


def variance_triangulation(spec: MeasureSpec, n: int, replicas: int,
                           lambda_hat: float, seed: int = 0) -> VarianceTriangulation:
    """Direct, series and martingale variance.  The series window is the
    smallest lag in [2, 64] whose envelope tail is within 1% of the direct sigma
    value, widened once when the series bound, which carries an increment-moment
    factor, exceeds that; each stage after the direct route has its own child seed."""
    direct = estimate_variance_direct(spec, n, replicas, seed=seed)
    curve = coupling_decay(spec, 1.0, range(1, 31), min(replicas, 4096),
                           seed=rngmod.child_seed(seed, Purpose.COUPLING_STAGE))
    envelope = amp, rate = fit_geometric_envelope(curve.n_grid, curve.values)
    target = 0.01 * max(direct["sigma"].value, 1e-12)
    lag = 2
    while envelope_tail(amp, rate, lag) > target and lag < 64:
        lag += 1
    series = estimate_variance_series(spec, lag + 1, replicas, lambda_hat, envelope=envelope,
                                      seed=rngmod.child_seed(seed, Purpose.SERIES_STAGE))
    if series.tail_bound > target:
        lag += max(int(np.ceil(np.log(target / series.tail_bound) / np.log(rate))), 1)
        series = estimate_variance_series(
            spec, lag + 1, replicas, lambda_hat, envelope=envelope,
            seed=rngmod.child_seed(seed, Purpose.SERIES_WIDENED_STAGE))
    psi = estimate_psi(spec, lag, 1024, lambda_hat,
                       seed=rngmod.child_seed(seed, Purpose.PSI_STAGE))
    mart = variance_via_martingale(
        spec, psi, min(n, 256), max(32, min(256, replicas // 16)), lambda_hat,
        seed=rngmod.child_seed(seed, Purpose.MARTINGALE_STAGE))
    trio = [direct["sigma"], series.estimate, mart.estimate]
    return VarianceTriangulation(direct, series, mart, envelope, target, lag,
                                 all(a.agrees_with(b) for a in trio for b in trio))


# ---------------------------------------------------------------------
# Aperiodicity evidence
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class AperiodicityReport:
    """Commensurability verdict for log spectral radii of support words.

    The verdict is heuristic, never a proof: a ratio counts as rationally
    explained when a continued-fraction convergent with denominator at
    most ``max_denominator`` matches it within ``ratio_tol``.
    """

    words: tuple[tuple[int, ...], ...]
    log_radii: tuple[float, ...]
    incommensurate_pairs: tuple[tuple[int, int], ...]
    verdict: str  # "aperiodic evidence" | "possibly arithmetic"
    ratio_tol: float
    max_denominator: int


def _has_close_convergent(x: np.ndarray, tol: float, max_denominator: int) -> np.ndarray:
    """Whether some continued-fraction convergent p/q of each x >= 0, with
    q <= max_denominator, lies within tol of it.

    One recurrence runs over the whole array.  An entry leaves it at its
    first close convergent, at a fractional part below 1e-15, or when
    the next denominator exceeds the cap.  Numerators and denominators
    are floats, exact while the denominators stay under the cap.
    """
    found = np.abs(x - np.floor(x)) <= tol
    live = np.flatnonzero(~found)
    a = x[live]
    # rows: a, h_prev, h, k_prev, k of the entries still searching
    cf = np.stack([a, np.ones_like(a), np.floor(a), np.zeros_like(a), np.ones_like(a)])
    for _ in range(64):
        frac = cf[0] - np.floor(cf[0])
        keep = frac >= 1e-15
        live, cf, a = live[keep], cf[:, keep], 1.0 / frac[keep]
        ai = np.floor(a)
        cf = np.stack([a, cf[2], ai * cf[2] + cf[1], cf[4], ai * cf[4] + cf[3]])
        capped = cf[4] > max_denominator
        hit = ~capped & (np.abs(x[live] - cf[2] / cf[4]) <= tol)
        found[live[hit]] = True
        keep = ~(capped | hit)
        live, cf = live[keep], cf[:, keep]
        if not live.size:
            break
    return found


def aperiodicity_report(spec: MeasureSpec, max_word_len: int) -> AperiodicityReport:
    """Enumerate support words, compare their log spectral radii pairwise.

    The words of each length up to ``max_word_len`` come from
    ``measures.word_levels``, renormalised by the max column sum; ``words``
    lists the strictly positive ones in lexicographic order, oldest draw
    first, with ``log_radii`` in the same order.  The pairwise comparison
    grows with the square of the word count, so a length at which the
    K + K**2 + ... words would pass ``APERIODICITY_MAX_WORDS`` is refused
    before anything is enumerated.
    """
    if spec.kind != "atomic":
        raise ValueError("aperiodicity enumeration needs an atomic spec")
    max_word_len = as_count(max_word_len, "max_word_len")
    k = len(spec.atoms)
    # each level adds at least one word, so CAP + 1 levels always pass the cap
    levels = range(1, min(max_word_len, APERIODICITY_MAX_WORDS + 1) + 1)
    if sum(k ** length for length in levels) > APERIODICITY_MAX_WORDS:
        raise ValueError(f"max_word_len = {max_word_len} enumerates more than "
                         f"{APERIODICITY_MAX_WORDS} words of {k} atoms")
    words: list[tuple[int, ...]] = []
    radii: list[float] = []
    for length, (mats, log_scale, _) in zip(range(1, max_word_len + 1), word_levels(spec)):
        # the lexicographic words' digits, oldest first, and their columns in
        # word_levels' layout, which puts the oldest draw in the lowest digit
        digits = np.arange(k ** length)[:, None] // k ** np.arange(length - 1, -1, -1) % k
        at = digits @ k ** np.arange(length)
        positive = np.flatnonzero((mats > 0).all(axis=(0, 1))[at])
        at = at[positive]
        kap = _dense_spectral_radius(mats[..., at].transpose(2, 0, 1))
        words.extend(map(tuple, digits[positive].tolist()))
        radii.extend((log_scale[at] + np.log(kap)).tolist())
    r = np.asarray(radii)
    i, j = np.triu_indices(len(r), k=1)
    keep = np.abs(r[j]) >= 1e-9
    i, j = i[keep], j[keep]
    bad = ~_has_close_convergent(np.abs(r[i] / r[j]), RATIO_TOL, MAX_DENOMINATOR)
    bad_pairs = list(zip(i[bad].tolist(), j[bad].tolist()))
    verdict = "aperiodic evidence" if bad_pairs else "possibly arithmetic"
    return AperiodicityReport(words=tuple(words), log_radii=tuple(radii),
                              incommensurate_pairs=tuple(bad_pairs),
                              verdict=verdict, ratio_tol=RATIO_TOL,
                              max_denominator=MAX_DENOMINATOR)


# ---------------------------------------------------------------------
# Invariant-measure regularity
# ---------------------------------------------------------------------


def invariant_regularity(spec: MeasureSpec, p: float, samples: int,
                         tol: float, seed: int = 0) -> EstimateWithError:
    """Monte Carlo p-th moment of sup_y |log <y, W>| under the invariant law.

    The inner sup is exact: <y, w> is linear in y, extremized at the
    vertices, and |log| of a value in (0, 1] peaks at the smallest, so
    the integrand is |log min_i w_i|^p.  The transpose measure must also
    be strictly contracting, with a stable order-p moment, for the
    integral to be finite; both are checked first.
    """
    samples = as_count(samples, "samples", 2)  # two for a standard error
    views = ((spec, "measure", seed),
             (spec.transposed(), "transpose view",
              rngmod.child_seed(seed, Purpose.TRANSPOSE_SEARCH)))
    for view, name, view_seed in views:
        if detect_contraction(view, 4, 256, view_seed) is None:
            raise ValueError(f"the {name} shows no strictly positive products; "
                             "regularity moment may be infinite")
    sanity = moment_sanity(spec.transposed(), p, max(2048, samples), seed)
    if not sanity.stable:
        raise ValueError(f"order-{p} moment of log N under the transpose "
                         "view failed the stability check")
    pts, _, _ = backward_invariant_batch(spec, seed, tol, samples)
    vals = np.abs(np.log(np.maximum(pts.min(axis=1), 5e-324))) ** p
    return _mean_with_error(vals, f"regularity-p{p:g}")


# ---------------------------------------------------------------------
# Moment sanity
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class MomentSanity:
    """Empirical p-th moment of log N(Y) with a doubling-stability flag."""

    moment: EstimateWithError
    half_moment: float
    stable: bool


def moment_sanity(spec: MeasureSpec, p: float, samples: int,
                  seed: int = 0) -> MomentSanity:
    """Check that the p-th moment of log N(Y_1) looks finite and stable.

    The stability check compares the mean over all ``samples`` with the
    mean over the first half, each with its standard error, so it needs
    at least two samples in each half.
    """
    samples = as_count(samples, "samples", 4)
    stream = rngmod.derived_stream(seed, Purpose.MOMENT_DRAWS)
    draws = sample_batch(spec, stream, samples)
    cs = draws.sum(axis=1)
    op = cs.max(axis=1)
    v = cs.min(axis=1)
    log_n = np.log(np.maximum(op, 1.0 / v))
    vals = log_n ** p
    full = _mean_with_error(vals, f"moment-p{p:g}")
    half = _mean_with_error(vals[: samples // 2], "half")
    band = 3.0 * float(np.hypot(full.std_error, half.std_error))
    stable = abs(full.value - half.value) <= max(band, 1e-12)
    return MomentSanity(moment=full, half_moment=half.value, stable=stable)
