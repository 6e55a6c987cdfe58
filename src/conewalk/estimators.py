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
from .measures import MeasureSpec, sample_batch
from .rng import Purpose
from .simplex import as_point, barycenter, contraction_coefficient, point_coords
from .walk import backward_invariant_batch, detect_contraction

__all__ = [
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
    "AperiodicityReport",
    "aperiodicity_report",
    "invariant_regularity",
    "MomentSanity",
    "moment_sanity",
    "BatchedProducts",
]


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
    se = float(samples.std(ddof=1) / np.sqrt(r)) if r > 1 else 0.0
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


# Up to this dimension the forward step is written out on length-R
# arrays of a (d, d, R) layout; above it one np.matmul on (R, d, d) is
# faster.  Kernel alone, ns per matrix-step, matmul against written out
# (2-vCPU Xeon): d=2 271 vs 25, d=4 354 vs 214 (R=8192); d=8 763 vs
# 4038 (R=4096).
_WRITTEN_OUT_MAX_D = 4


def _matmul_step(mats: np.ndarray, entries: np.ndarray):
    """Y A for (R, d, d) draws Y and the (d, d, R) view of A, by np.matmul.

    Returns the (d, d, R) view of the product and its max column sums.
    """
    prod = np.matmul(mats, entries.transpose(2, 0, 1))
    return prod.transpose(1, 2, 0), prod.sum(axis=1).max(axis=1)


def _written_out_step(mats: np.ndarray, entries: np.ndarray):
    """:func:`_matmul_step` written out on length-R arrays of (d, d, R) entries.

    Row i of the product is the sum over k, in order, of Y[i, k] times
    row k of A; the column sums add the rows in order and the scale is
    their running maximum.  Only the multiply-adds can round differently
    from the matmul step, whose BLAS kernel fuses them.
    """
    d = len(entries)
    y = mats.transpose(1, 2, 0)
    new = np.empty_like(entries)
    term = np.empty(entries.shape[1:])
    for i in range(d):
        np.multiply(y[i, 0], entries[0], out=new[i])
        for k in range(1, d):
            new[i] += np.multiply(y[i, k], entries[k], out=term)
    col_sums = new[0].copy()
    for i in range(1, d):
        col_sums += new[i]
    scale = col_sums[0]
    for j in range(1, d):
        scale = np.maximum(scale, col_sums[j])
    return new, scale


def _forward_kernel(d: int):
    """The step for dimension d: written out up to ``_WRITTEN_OUT_MAX_D``,
    np.matmul above (its products are then views of (R, d, d) arrays)."""
    return _written_out_step if d <= _WRITTEN_OUT_MAX_D else _matmul_step


class BatchedProducts:
    """Forward products A_n = Y_n ... Y_1 for a whole batch of replicas.

    State is the op-norm-normalized product per replica plus the log
    scale; every spectator functional of A_n is read off the pair.  The
    products are held as (d, d, R) entries, so each functional reads
    length-R arrays; ``P`` is the (R, d, d) view of the same memory.
    """

    def __init__(self, spec: MeasureSpec, seed: int, replicas: int, key: int = 0):
        self.spec = spec
        self.rng = rngmod.derived_stream(seed, Purpose.FORWARD, key)
        self.replicas = int(replicas)
        d = spec.d
        self._kernel = _forward_kernel(d)
        self._entries = np.broadcast_to(np.eye(d)[:, :, None], (d, d, self.replicas)).copy()
        self.log_scale = np.zeros(self.replicas)
        self.n = 0

    @property
    def P(self) -> np.ndarray:
        """The normalized products, an (R, d, d) view."""
        return self._entries.transpose(2, 0, 1)

    def step(self) -> np.ndarray:
        """Advance all replicas one draw; returns the (R, d, d) draws."""
        mats = sample_batch(self.spec, self.rng, self.replicas)
        entries, scale = self._kernel(mats, self._entries)
        entries /= scale
        self._entries = entries
        self.log_scale += np.log(scale)
        self.n += 1
        return mats

    def run(self, n: int) -> None:
        for _ in range(n):
            self.step()

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
        return self.log_scale + np.log(point_coords(x) @ self._entries.sum(axis=0))

    def log_min_entry(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return self.log_scale + np.log(self._entries.min(axis=(0, 1)))

    def log_max_entry(self) -> np.ndarray:
        return self.log_scale + np.log(self._entries.max(axis=(0, 1)))

    def log_coeff(self, x, y) -> np.ndarray:
        xc, yc = point_coords(x), point_coords(y)
        vals = np.einsum("i,ijr,j->r", yc, self._entries, xc)
        with np.errstate(divide="ignore"):
            return self.log_scale + np.log(vals)

    def log_kappa(self, tol: float = 1e-12, max_iter: int = 200) -> np.ndarray:
        """Batched power iteration on the normalized products.

        Paths that fail to settle (possible for non-primitive products)
        fall back to a dense eigensolver individually.
        """
        R, d = self.replicas, self.spec.d
        x = np.full((d, R), 1.0 / d)
        lam = np.ones(R)
        settled = np.zeros(R, dtype=bool)
        for _ in range(max_iter):
            y = np.einsum("ijr,jr->ir", self._entries, x)
            new = y.sum(axis=0)
            y /= new
            settled = (np.abs(y - x).sum(axis=0) <= tol) \
                & (np.abs(new - lam) <= tol * np.maximum(1.0, new))
            x, lam = y, new
            if settled.all():
                break
        if not settled.all():
            for i in np.flatnonzero(~settled):
                lam[i] = np.max(np.abs(np.linalg.eigvals(self.P[i])))
        return self.log_scale + np.log(lam)


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
    if n < 1 or replicas < 1:
        raise ValueError("n and replicas must be positive")
    x = as_point(start, spec.d, "start")
    batch = BatchedProducts(spec, seed, replicas)
    batch.run(n)
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
    grid = sorted(int(n) for n in n_grid)
    if not grid or grid[0] < 1:
        raise ValueError("n_grid must hold at least one step, all >= 1")
    if block_len < 1:
        raise ValueError("block_len must be at least 1")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    n_max = grid[-1]
    batch = BatchedProducts(spec, seed, replicas)
    d = spec.d
    values = {}
    max_violation = None
    cert = np.ones(replicas)
    blk = np.broadcast_to(np.eye(d), (replicas, d, d)).copy()
    prev_log_cs = batch.log_scale[:, None] + np.log(batch.column_sums())
    for n in range(1, n_max + 1):
        cert_before = cert.copy()
        mats = batch.step()
        log_cs = batch.log_scale[:, None] + np.log(np.maximum(
            batch.column_sums(), 5e-324))
        ratios = log_cs - prev_log_cs
        spread = ratios.max(axis=1) - ratios.min(axis=1)
        prev_log_cs = log_cs
        if n in grid:
            values[n] = float(np.mean(spread ** p))
        if pathwise_check:
            cs = mats.sum(axis=1)
            log_l = np.log(cs.max(axis=1)) - np.log(cs.min(axis=1))
            bound = (4.0 + 2.0 * log_l) * cert_before
            excess = float(np.max(spread - bound))
            max_violation = excess if max_violation is None else max(max_violation, excess)
            blk = np.matmul(mats, blk)
            blk /= blk.reshape(replicas, -1).max(axis=1)[:, None, None]
            if n % block_len == 0:
                cert *= contraction_coefficient(blk)
                blk[:] = np.eye(d)
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
    keep = vals > 0
    if keep.sum() == 0:
        return 0.0, 0.5
    if keep.sum() == 1:
        rate = 0.5
    else:
        slope, _ = np.polyfit(ns[keep], np.log(vals[keep]), 1)
        rate = float(np.clip(np.exp(slope), 1e-6, 1.0 - 1e-9))
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


def estimate_variance_direct(spec: MeasureSpec, n: int, replicas: int,
                             start=None, seed: int = 0,
                             functionals=("sigma", "norm", "v", "kappa"),
                             ) -> dict[str, EstimateWithError]:
    """Sample variance of the centered functionals of A_n, divided by n.

    All four identifications (cocycle from a fixed start, log norm,
    log v, log spectral radius) converge to the same limit; they are
    reported together so their agreement can be checked.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if replicas < 2:
        raise ValueError(f"replicas must be >= 2, got {replicas}")
    x = as_point(start, spec.d, "start")
    batch = BatchedProducts(spec, seed, replicas)
    batch.run(n)
    out = {}
    pulls = {
        "sigma": lambda: batch.sigma(x),
        "norm": batch.log_norm,
        "v": batch.log_v,
        "kappa": batch.log_kappa,
    }
    for name in functionals:
        out[name] = _variance_with_error(pulls[name](), 1.0 / n, f"direct-{name}")
    return out


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
    if n_lag_max < 1:
        raise ValueError(f"n_lag_max must be >= 1, got {n_lag_max}")
    w0, _, _ = backward_invariant_batch(spec, seed, w0_tol, replicas)
    stream = rngmod.derived_stream(seed, Purpose.SERIES_PATHS)
    incs = (log_norms[:, 0] - lambda_hat
            for log_norms, _ in _vector_steps(spec, stream, w0[:, None], n_lag_max))
    first = next(incs)
    acc = first * first
    for inc in incs:
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


def _vector_steps(spec: MeasureSpec, rng: np.random.Generator,
                  x: np.ndarray, levels: int):
    """Yield (log norms (m, b), directions (m, b, d)) for ``levels``
    vector-steps of the (m, b, d) directions ``x``.

    Each level is one ``sample_batch(spec, rng, m)`` call, and draw i acts
    on the b directions of row i.  Nothing is drawn until the generator is
    advanced, so callers may draw from ``rng`` between levels.
    """
    for _ in range(levels):
        x = np.matmul(x, sample_batch(spec, rng, len(x)).swapaxes(1, 2))
        norms = sum((x[..., j] for j in range(1, spec.d)), x[..., 0])
        x /= norms[..., None]
        yield np.log(norms), x


@dataclass
class PsiEstimate:
    """Truncated corrector sum psi_hat(x) = sum_{level<=N} (mean increment - lam).

    ``evaluate`` runs ``inner_size`` fresh paths from each query point
    (paths shared across a batch of points) and returns the estimate with
    its inner Monte Carlo variance.  Level contributions are dominated by
    the fitted geometric envelope, whose tail beyond N is ``tail_bound``.
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
        m = self.inner_size
        x = np.broadcast_to(pts, (m,) + pts.shape)
        total = sum((inc for inc, _ in _vector_steps(self.spec, rng, x, self.truncation)),
                    np.zeros((m, len(pts))))
        values = total.mean(axis=0) - self.truncation * self.lambda_hat
        mc_var = total.var(axis=0, ddof=1) / m
        return values, mc_var


def estimate_psi(spec: MeasureSpec, truncation: int, inner_size: int,
                 lambda_hat: float, seed: int = 0,
                 fit_points: int = 8) -> PsiEstimate:
    """Build the corrector evaluator and fit its level envelope.

    The envelope is fitted on the observed per-level deviations of the
    mean increment from lambda_hat, maximized over a few probe points so
    it dominates the contributions uniformly.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    if inner_size < 2:
        raise ValueError(f"inner_size must be >= 2, got {inner_size}")
    stream = rngmod.derived_stream(seed, Purpose.PSI_FIT)
    d = spec.d
    probes = [barycenter(d).coords]
    for _ in range(fit_points - 1):
        probes.append(stream.dirichlet(np.ones(d)))
    pts = np.stack(probes)
    x = np.broadcast_to(pts, (inner_size,) + pts.shape)
    contributions = [float(np.max(np.abs(inc.mean(axis=0) - lambda_hat)))
                     for inc, _ in _vector_steps(spec, stream, x, truncation)]
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


def variance_via_martingale(spec: MeasureSpec, psi: PsiEstimate, n: int,
                            replicas: int, lambda_hat: float, seed: int = 0,
                            w0_tol: float = 1e-8) -> MartingaleVariance:
    """Variance via the corrected increments D_k along stationary paths."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if replicas < 2:
        raise ValueError(f"replicas must be >= 2, got {replicas}")
    w0, _, _ = backward_invariant_batch(spec, seed, w0_tol, replicas)
    stream = rngmod.derived_stream(seed, Purpose.MARTINGALE_PATHS)
    psi_prev, var_prev = psi.evaluate(w0, stream)
    sum_d2 = np.zeros(replicas)
    sum_d = np.zeros(replicas)
    lag1 = np.zeros(replicas)
    prev_d = None
    noise_acc = float(np.mean(var_prev))
    for log_norms, x in _vector_steps(spec, stream, w0[:, None], n):
        psi_cur, var_cur = psi.evaluate(x[:, 0], stream)
        d = log_norms[:, 0] - lambda_hat + psi_cur - psi_prev
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
                              mean_diff_se=float(np.sqrt(var_d / total)))


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


def aperiodicity_report(spec: MeasureSpec, max_word_len: int,
                        ratio_tol: float = 1e-9,
                        max_denominator: int = 1000) -> AperiodicityReport:
    """Enumerate support words, compare their log spectral radii pairwise."""
    if spec.kind != "atomic":
        raise ValueError("aperiodicity enumeration needs an atomic spec")
    atoms = spec.atom_array()
    k, d = atoms.shape[0], spec.d
    words: list[tuple[int, ...]] = []
    radii: list[float] = []
    # every word of the current length in lexicographic order, as
    # max-entry-normalized products (later letters on the left) and log scales
    mats, log_scale = np.eye(d)[None], np.zeros(1)
    for length in range(1, max_word_len + 1):
        mats = np.matmul(atoms[None], mats[:, None]).reshape(-1, d, d)
        peak = mats.reshape(len(mats), -1).max(axis=1)
        mats /= peak[:, None, None]
        log_scale = np.repeat(log_scale, k) + np.log(peak)
        positive = np.flatnonzero((mats > 0).all(axis=(1, 2)))
        # the Perron root is the eigenvalue of largest modulus
        kap = np.abs(np.linalg.eigvals(mats[positive])).max(axis=1)
        digits = positive[:, None] // k ** np.arange(length - 1, -1, -1) % k
        words.extend(map(tuple, digits.tolist()))
        radii.extend((log_scale[positive] + np.log(kap)).tolist())
    r = np.asarray(radii)
    i, j = np.triu_indices(len(r), k=1)
    keep = np.abs(r[j]) >= 1e-9
    i, j = i[keep], j[keep]
    bad = ~_has_close_convergent(np.abs(r[i] / r[j]), ratio_tol, max_denominator)
    bad_pairs = list(zip(i[bad].tolist(), j[bad].tolist()))
    verdict = "aperiodic evidence" if bad_pairs else "possibly arithmetic"
    return AperiodicityReport(words=tuple(words), log_radii=tuple(radii),
                              incommensurate_pairs=tuple(bad_pairs),
                              verdict=verdict, ratio_tol=ratio_tol,
                              max_denominator=max_denominator)


# ---------------------------------------------------------------------
# Invariant-measure regularity
# ---------------------------------------------------------------------


def invariant_regularity(spec: MeasureSpec, p: float, samples: int,
                         tol: float, seed: int = 0,
                         check_moments: bool = True) -> EstimateWithError:
    """Monte Carlo p-th moment of sup_y |log <y, W>| under the invariant law.

    The inner sup is exact: <y, w> is linear in y, extremized at the
    vertices, and |log| of a value in (0, 1] peaks at the smallest, so
    the integrand is |log min_i w_i|^p.  The transpose measure must also
    be strictly contracting, with a stable order-p moment, for the
    integral to be finite.
    """
    views = ((spec, "measure", seed),
             (spec.transposed(), "transpose view",
              rngmod.child_seed(seed, Purpose.TRANSPOSE_SEARCH)))
    for view, name, view_seed in views:
        if detect_contraction(view, 4, 256, view_seed) is None:
            raise ValueError(f"the {name} shows no strictly positive products; "
                             "regularity moment may be infinite")
    if check_moments:
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
    """Check that the p-th moment of log N(Y_1) looks finite and stable."""
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
