"""Empirical verification harness for the limit theorems of random
positive-matrix products: normality and Berry-Esseen rate fits for the
cocycle, norm, lower gauge, spectral radius and matrix coefficients,
an almost-sure invariance proxy, deviation tail sums, and the two
pathological fixtures that exhibit the a.s.-versus-L1 gap and the
vanishing-coefficient hazard.

Verdicts are Monte Carlo verdicts: every pass/fail decision is taken
relative to the distribution-free noise floor 1.36/sqrt(replicas), and
differences within the floor count as ties.

Normalized laws are always compared against Phi(t / s) where s^2 is
the asymptotic variance estimate; the alternative normalization
Phi(t / s^2) sometimes seen for these laws is deliberately not used
(see README).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import rng as rngmod
from .estimators import BatchedProducts, moment_sanity
from .measures import MeasureSpec, sample_batch
from .posmat import g_delta_level
from .rng import Purpose
from .simplex import as_point

__all__ = [
    "reference_spec",
    "noise_floor",
    "gaussian_cdf",
    "ks_statistic",
    "ks_to_gaussian",
    "ks_two_sample",
    "kendall_tau_banded",
    "SweepResult",
    "functional_sweep",
    "NormalityReport",
    "empirical_normality",
    "RateFit",
    "berry_esseen_fit",
    "AsipReport",
    "asip_proxy",
    "DeviationReport",
    "deviation_tail_sums",
    "pathology_fixtures",
    "FixtureAReport",
    "fixture_a_report",
    "fixture_b_zero_fraction",
    "coefficient_gap_check",
    "FUNCTIONALS",
]

FUNCTIONALS = ("sigma", "norm", "v", "kappa", "coeff", "inf_coeff")

_CHUNK = 8192


def reference_spec() -> MeasureSpec:
    """The measure used by the acceptance targets.

    Three strictly positive 2x2 atoms with bounded support (all moments
    finite), well separated column-sum scales whose log ratios are not
    rationally related (a healthy asymptotic variance and no lattice
    artifacts in the normalized laws), and word spectral radii showing
    incommensurate log ratios (aperiodicity evidence).
    """
    return MeasureSpec.atomic(
        [[[5.0, 1.0], [1.0, 4.0]],
         [[1.4, 0.35], [0.35, 1.1]],
         [[0.5, 0.08], [0.1, 0.4]]],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    )


def noise_floor(replicas: int) -> float:
    """Two-sided 95% DKW-style band for an empirical CDF of given size."""
    return 1.36 / np.sqrt(replicas)


def gaussian_cdf(t):
    """Standard normal CDF via the complementary error function."""
    return ndtr(t)


# ---------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------


def ks_statistic(sample, cdf, minus_inf: int = 0) -> float:
    """Exact sup distance between the empirical CDF and a continuous CDF.

    The supremum over a step CDF against a continuous reference is
    attained at the step corners, so both one-sided gaps are evaluated
    at every sample point.  ``minus_inf`` extra observations at -inf
    contribute mass below every finite point.
    """
    z = np.sort(np.asarray(sample, dtype=float))
    n = z.size + minus_inf
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(z), dtype=float)
    hi = (minus_inf + np.arange(1, z.size + 1)) / n
    lo = (minus_inf + np.arange(0, z.size)) / n
    d = max(float(np.max(np.abs(hi - f))), float(np.max(np.abs(lo - f))))
    if minus_inf:
        d = max(d, minus_inf / n)
    return d


def ks_to_gaussian(sample, s: float, minus_inf: int = 0) -> float:
    """KS distance of a sample to the centered Gaussian with scale s."""
    if not s > 0:
        raise ValueError("scale s must be positive")
    return ks_statistic(sample, lambda t: ndtr(t / s), minus_inf=minus_inf)


def ks_two_sample(a, b) -> float:
    """Exact two-sample KS distance."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def kendall_tau_banded(xs, ys, bands) -> tuple[float, float]:
    """Kendall tau of ys against ascending xs, raw and noise-banded.

    In the banded variant a pair whose difference is within the sum of
    its two noise bands counts as a tie; the raw variant uses no bands.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    bands = np.asarray(bands, dtype=float)
    order = np.argsort(xs)
    ys, bands = ys[order], bands[order]
    m = ys.size
    raw = 0
    banded = 0
    pairs = 0
    for i in range(m - 1):
        for j in range(i + 1, m):
            pairs += 1
            dy = float(ys[j] - ys[i])
            raw += int(dy > 0) - int(dy < 0)
            if abs(dy) > bands[i] + bands[j]:
                banded += int(dy > 0) - int(dy < 0)
    if pairs == 0:
        return 0.0, 0.0
    return raw / pairs, banded / pairs


# ---------------------------------------------------------------------
# Functional sweeps
# ---------------------------------------------------------------------


@dataclass
class SweepResult:
    """Samples of product functionals at the grid steps.

    samples[(functional, n)] holds the finite values;
    minus_inf[(functional, n)] counts coefficient samples that were
    exactly -inf (vanishing matrix entry).  ``lambda_hat`` is the
    plug-in drift: the mean of the log norm at the largest grid step,
    divided by that step.  ``ordering_violation`` is the largest
    pathwise excess over the exact orderings
    log v <= log kappa <= log norm and inf coefficient <= log norm.
    """

    n_grid: tuple[int, ...]
    functionals: tuple[str, ...]
    replicas: int
    seed: int
    samples: dict
    minus_inf: dict
    lambda_hat: float
    ordering_violation: float


def _chunk_sizes(replicas: int, chunk: int):
    sizes = []
    left = replicas
    while left > 0:
        sizes.append(min(chunk, left))
        left -= sizes[-1]
    return sizes


def _sweep_chunk(spec, seed, size, key, grid, functionals, x, y):
    batch = BatchedProducts(spec, seed, size, key=key)
    out = {}
    violation = 0.0
    for n in grid:
        batch.run(n - batch.n)
        norm = batch.log_norm()
        v = batch.log_v()
        pulls = {"norm": norm, "v": v}
        if "sigma" in functionals:
            pulls["sigma"] = batch.sigma(x)
        if "kappa" in functionals:
            pulls["kappa"] = batch.log_kappa()
            violation = max(violation,
                            float(np.max(v - pulls["kappa"])),
                            float(np.max(pulls["kappa"] - norm)))
        if "coeff" in functionals:
            pulls["coeff"] = batch.log_coeff(x, y)
        if "inf_coeff" in functionals:
            pulls["inf_coeff"] = batch.log_min_entry()
            violation = max(violation, float(np.max(pulls["inf_coeff"] - norm)))
        violation = max(violation, float(np.max(v - norm)))
        for name in functionals:
            out[(name, n)] = pulls[name]
        out[("norm", n)] = norm
    return out, violation


def functional_sweep(spec: MeasureSpec, n_grid, replicas: int, seed: int,
                     functionals=("sigma", "norm", "v", "kappa", "inf_coeff"),
                     x=None, y=None, threads: int = 1,
                     chunk: int = _CHUNK) -> SweepResult:
    """Simulate all requested functionals on one set of shared paths.

    Replicas are split into fixed-size chunks; chunk k is
    ``BatchedProducts(spec, seed, size, key=k)`` on the stream
    (seed, FORWARD, k), so the result depends only on (spec, seed,
    replicas, chunk) and never on the worker-pool width.
    """
    grid = sorted(int(n) for n in n_grid)
    if not grid or grid[0] < 1:
        raise ValueError("n_grid must hold at least one step, all >= 1")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    for name in functionals:
        if name not in FUNCTIONALS:
            raise ValueError(f"unknown functional {name!r}")
    xp, yp = as_point(x, spec.d, "x"), as_point(y, spec.d, "y")
    sizes = _chunk_sizes(replicas, chunk)
    jobs = [(spec, seed, size, idx, grid, tuple(functionals), xp, yp)
            for idx, size in enumerate(sizes)]
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda args: _sweep_chunk(*args), jobs))
    else:
        parts = [_sweep_chunk(*args) for args in jobs]
    samples: dict = {}
    minus_inf: dict = {}
    violation = 0.0
    keys = {(name, n) for name in set(functionals) | {"norm"} for n in grid}
    for key in keys:
        vals = np.concatenate([part[0][key] for part in parts])
        bad = ~np.isfinite(vals)
        minus_inf[key] = int(bad.sum())
        samples[key] = vals[~bad]
    for _, vio in parts:
        violation = max(violation, vio)
    n_top = grid[-1]
    lam = float(np.mean(samples[("norm", n_top)])) / n_top
    return SweepResult(n_grid=tuple(grid), functionals=tuple(functionals),
                       replicas=replicas, seed=seed, samples=samples,
                       minus_inf=minus_inf, lambda_hat=lam,
                       ordering_violation=violation)


# ---------------------------------------------------------------------
# Normality and Berry-Esseen
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class NormalityReport:
    """KS distance of the normalized functional law to Phi(t/s)."""

    functional: str
    n: int
    ks_distance: float
    replicas: int
    s_used: float
    minus_inf_count: int


def empirical_normality(spec: MeasureSpec, functional: str, n: int,
                        replicas: int, s: float, seed: int = 0,
                        lambda_hat: float | None = None,
                        x=None, y=None,
                        sweep: SweepResult | None = None) -> NormalityReport:
    """Sample Z = (functional(A_n) - n lambda) / sqrt(n) and compare to the Gaussian."""
    if not s > 0:
        raise ValueError("s must be positive (degenerate laws are skipped upstream)")
    if sweep is None:
        sweep = functional_sweep(spec, [n], replicas, seed,
                                 functionals=(functional,), x=x, y=y)
    lam = lambda_hat if lambda_hat is not None else sweep.lambda_hat
    vals = sweep.samples[(functional, n)]
    miss = sweep.minus_inf[(functional, n)]
    z = (vals - n * lam) / np.sqrt(n)
    ks = ks_to_gaussian(z, s, minus_inf=miss)
    return NormalityReport(functional=functional, n=n, ks_distance=ks,
                           replicas=replicas, s_used=s, minus_inf_count=miss)


@dataclass(frozen=True)
class RateFit:
    """Scaled KS distances over a step grid with a trend verdict.

    ``scaled`` is ks * n**target with target = p/2 - 1.  The verdict is
    "pass" when the noise-banded Kendall tau of the scaled values is
    <= 0 (differences within the per-point KS noise floor count as
    ties), "fail" otherwise, and "degenerate" when the law collapses.
    """

    functional: str
    p: float
    n_grid: tuple[int, ...]
    ks_values: tuple[float, ...]
    scaled: tuple[float, ...]
    target: float
    slope: float | None
    tau_raw: float
    tau_banded: float
    s_used: float
    verdict: str


def berry_esseen_fit(spec: MeasureSpec, functional: str, p: float, n_grid,
                     replicas: int, seed: int = 0,
                     s: float | None = None,
                     lambda_hat: float | None = None,
                     x=None, y=None,
                     sweep: SweepResult | None = None,
                     threads: int = 1,
                     check_moments: bool = True) -> RateFit:
    """Fit the Berry-Esseen scaling ks * n**(p/2-1) over the grid."""
    grid = sorted(int(v) for v in n_grid)
    if not grid:
        raise ValueError("n_grid must not be empty")
    if check_moments:
        sanity = moment_sanity(spec, p, max(4096, replicas // 8), seed)
        if not sanity.stable:
            raise ValueError(f"order-{p} moment of log N(Y) failed the stability check")
    if sweep is None:
        sweep = functional_sweep(spec, grid, replicas, seed,
                                 functionals=(functional,), x=x, y=y,
                                 threads=threads)
    lam = lambda_hat if lambda_hat is not None else sweep.lambda_hat
    n_top = grid[-1]
    if s is None:
        top = sweep.samples[("norm", n_top)]
        s = float(top.std(ddof=1) / np.sqrt(n_top))
    target = p / 2.0 - 1.0
    if not s > 1e-12:
        return RateFit(functional=functional, p=p, n_grid=tuple(grid),
                       ks_values=(), scaled=(), target=target, slope=None,
                       tau_raw=0.0, tau_banded=0.0, s_used=s,
                       verdict="degenerate")
    ks_values = []
    for n in grid:
        vals = sweep.samples[(functional, n)]
        miss = sweep.minus_inf[(functional, n)]
        z = (vals - n * lam) / np.sqrt(n)
        ks_values.append(ks_to_gaussian(z, s, minus_inf=miss))
    ns = np.asarray(grid, dtype=float)
    ks_arr = np.asarray(ks_values)
    scaled = ks_arr * ns ** target
    bands = noise_floor(replicas) * ns ** target
    tau_raw, tau_banded = kendall_tau_banded(ns, scaled, bands)
    slope = None
    if np.all(ks_arr > 0):
        slope = float(np.polyfit(np.log(ns), np.log(scaled), 1)[0])
    verdict = "pass" if tau_banded <= 0 else "fail"
    return RateFit(functional=functional, p=p, n_grid=tuple(grid),
                   ks_values=tuple(float(v) for v in ks_arr),
                   scaled=tuple(float(v) for v in scaled), target=target,
                   slope=slope, tau_raw=tau_raw, tau_banded=tau_banded,
                   s_used=s, verdict=verdict)


# ---------------------------------------------------------------------
# Almost-sure invariance proxy
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class AsipReport:
    """Property proxies for the almost-sure Gaussian approximation.

    Not a coupling construction: reports (a) the KS distance of
    normalized dyadic block sums to the Gaussian and (b) the fraction of
    replicas whose running maximum deviation stays inside the iterated
    logarithm envelope (1 + eps) sqrt(2 s^2 n log log n).
    """

    n: int
    replicas: int
    eps: float
    envelope_fraction: float
    envelope_quantile_99: float
    block_ks: tuple[tuple[int, float], ...]
    s_used: float
    lambda_used: float
    tag: str = "property proxy"


def asip_proxy(spec: MeasureSpec, n: int, replicas: int, seed: int = 0,
               eps: float = 0.2, s: float | None = None,
               lambda_hat: float | None = None, variant: str = "sigma",
               x=None, y=None, min_block_exp: int = 6) -> AsipReport:
    """Track running deviations of one replica batch up to step n."""
    if variant not in ("sigma", "coeff"):
        raise ValueError("variant must be 'sigma' or 'coeff'")
    if n < 3:
        raise ValueError(f"n must be >= 3 so that log log n > 0, got {n}")
    xp, yp = as_point(x, spec.d, "x"), as_point(y, spec.d, "y")
    if lambda_hat is None or s is None:
        pre = functional_sweep(spec, [min(n, 4096)], max(2048, replicas),
                               rngmod.child_seed(seed, Purpose.DRIFT_PRESWEEP),
                               functionals=("norm",))
        top = pre.samples[("norm", min(n, 4096))]
        if lambda_hat is None:
            lambda_hat = pre.lambda_hat
        if s is None:
            s = float(top.std(ddof=1) / np.sqrt(min(n, 4096)))
    if not s > 0:
        raise ValueError("s must be positive")
    batch = BatchedProducts(spec, seed, replicas)
    running_max = np.zeros(replicas)
    k_levels = int(np.floor(np.log2(n)))
    marks = {2 ** j for j in range(min_block_exp, k_levels + 1)}
    level_vals = {}
    pull = (lambda: batch.sigma(xp)) if variant == "sigma" \
        else (lambda: batch.log_coeff(xp, yp))
    for k in range(1, n + 1):
        batch.step()
        sk = pull()
        np.maximum(running_max, np.abs(sk - k * lambda_hat), out=running_max)
        if k in marks:
            level_vals[k] = sk.copy()
    envelope = (1.0 + eps) * np.sqrt(2.0 * s * s * n * np.log(np.log(n)))
    stat = running_max / np.sqrt(2.0 * s * s * n * np.log(np.log(n)))
    frac = float(np.mean(running_max <= envelope))
    q99 = float(np.quantile(stat, 0.99))
    blocks = []
    prev = None
    for k in sorted(level_vals):
        if prev is not None:
            inc = level_vals[k] - level_vals[prev]
            z = (inc - (k - prev) * lambda_hat) / np.sqrt(k - prev)
            blocks.append((k, ks_to_gaussian(z, s)))
        prev = k
    return AsipReport(n=n, replicas=replicas, eps=eps, envelope_fraction=frac,
                      envelope_quantile_99=q99, block_ks=tuple(blocks),
                      s_used=s, lambda_used=lambda_hat)


# ---------------------------------------------------------------------
# Deviation tail sums
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationReport:
    """Weighted tail sums of maximal-deviation probabilities.

    partial_sums[i] = sum over n <= ns[i] of n**(alpha p - 2) * P_hat(n);
    the verdict is "pass" when the final probability sits at or below
    the Monte Carlo floor, so later increments are indistinguishable
    from zero.
    """

    alpha: float
    p: float
    eps: float
    variant: str
    ns: tuple[int, ...]
    probabilities: tuple[float, ...]
    partial_sums: tuple[float, ...]
    floor: float
    verdict: str


def deviation_tail_sums(spec: MeasureSpec, alpha: float, p: float, eps: float,
                        n_max: int, replicas: int, seed: int = 0,
                        variant: str = "cocycle",
                        lambda_hat: float | None = None,
                        x=None, record_every: int = 1) -> DeviationReport:
    """Monte Carlo partial sums of the maximal-deviation series."""
    if not 0.5 < alpha <= 1.0:
        raise ValueError("alpha must lie in (1/2, 1]")
    if alpha < 1.0 / p:
        raise ValueError("alpha must be >= 1/p")
    if variant not in ("cocycle", "coefficient"):
        raise ValueError("variant must be 'cocycle' or 'coefficient'")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    xp = as_point(x, spec.d, "x")
    if lambda_hat is None:
        lambda_hat = functional_sweep(spec, [n_max], max(replicas // 4, 1024),
                                      rngmod.child_seed(seed, Purpose.DRIFT_PRESWEEP),
                                      functionals=("norm",)).lambda_hat
    batch = BatchedProducts(spec, seed, replicas)
    running_max = np.zeros(replicas)
    ns, probs, partials = [], [], []
    acc = 0.0
    for n in range(1, n_max + 1):
        batch.step()
        if variant == "cocycle":
            dev = np.abs(batch.sigma(xp) - n * lambda_hat)
            np.maximum(running_max, dev, out=running_max)
            stat = running_max
        else:
            # coefficient deviations carry no inner maximum: a single
            # vanishing coefficient would freeze the maximum at +inf.
            # The bilinear form over simplex pairs ranges between the
            # extreme matrix entries, so the sup sits at one of the two.
            top = batch.log_max_entry()
            bot = batch.log_min_entry()
            stat = np.maximum(np.abs(top - n * lambda_hat),
                              np.abs(bot - n * lambda_hat))
        prob = float(np.mean(stat >= eps * n ** alpha))
        acc += n ** (alpha * p - 2.0) * prob
        if n % record_every == 0 or n == n_max:
            ns.append(n)
            probs.append(prob)
            partials.append(acc)
    floor = noise_floor(replicas)
    verdict = "pass" if probs[-1] <= floor else "fail"
    return DeviationReport(alpha=alpha, p=p, eps=eps, variant=variant,
                           ns=tuple(ns), probabilities=tuple(probs),
                           partial_sums=tuple(partials), floor=floor,
                           verdict=verdict)


# ---------------------------------------------------------------------
# Pathology fixtures
# ---------------------------------------------------------------------

FIXTURE_A_TRUNCATION = 1000


def pathology_fixtures() -> tuple[MeasureSpec, MeasureSpec]:
    """Two fixture measures with known misbehavior.

    Fixture A mixes the flat all-ones matrix (weight 5/6) with the
    diagonal family diag(1, 2^-k), k = 1..1000, at weights
    proportional to 1/k^2 renormalized to total mass 1/6. Its log norm
    drift is stable while the log lower gauge has a heavy lower tail
    (all-diagonal words pile up unbounded negative values): the
    almost-sure and L1 behaviors split.

    Fixture B mixes the identity (weight 1/2) with the all-ones matrix:
    with probability at least 2^-n a matrix coefficient of the product
    is exactly zero, so log coefficients can be -inf at every n.
    """
    ks = np.arange(1, FIXTURE_A_TRUNCATION + 1)
    raw = 1.0 / ks.astype(float) ** 2
    weights_g = raw / raw.sum() / 6.0
    atoms = [[[1.0, 1.0], [1.0, 1.0]]]
    weights = [5.0 / 6.0]
    for k, w in zip(ks, weights_g):
        atoms.append([[1.0, 0.0], [0.0, float(2.0 ** -int(k))]])
        weights.append(float(w))
    total = sum(weights)
    weights = [w / total for w in weights]
    fixture_a = MeasureSpec.atomic(atoms, weights)
    fixture_b = MeasureSpec.atomic([[[1.0, 0.0], [0.0, 1.0]],
                                    [[1.0, 1.0], [1.0, 1.0]]], [0.5, 0.5])
    return fixture_a, fixture_b


@dataclass(frozen=True)
class FixtureAReport:
    """Heavy-tail diagnostics for the lower gauge under fixture A."""

    n_values: tuple[int, ...]
    lambda_norm: tuple[tuple[float, float], ...]   # (value, se) per n
    v_mean: tuple[float, ...]
    v_median: tuple[float, ...]
    v_excess_kurtosis: tuple[float, ...]
    v_tail_share: tuple[float, ...]
    heavy_tail_flag: bool
    lambda_stable: bool


def _excess_kurtosis(x: np.ndarray) -> float:
    c = x - x.mean()
    m2 = float(np.mean(c ** 2))
    if m2 == 0:
        return 0.0
    return float(np.mean(c ** 4) / m2 ** 2 - 3.0)


def fixture_a_report(n_values=(2, 3, 4), replicas: int = 20000,
                     seed: int = 0, kurtosis_threshold: float = 10.0,
                     ) -> FixtureAReport:
    """Contrast the stable norm drift with the heavy-tailed lower gauge."""
    fixture_a, _ = pathology_fixtures()
    lam, v_mean, v_med, v_kurt, v_share = [], [], [], [], []
    for idx, n in enumerate(n_values):
        batch = BatchedProducts(fixture_a, seed, replicas, key=idx)
        batch.run(int(n))
        norm = batch.log_norm() / n
        lam.append((float(norm.mean()), float(norm.std(ddof=1) / np.sqrt(replicas))))
        v = batch.log_v()
        v = np.maximum(v, -750.0)  # floor: entries below this underflowed
        v_mean.append(float(v.mean()))
        v_med.append(float(np.median(v)))
        v_kurt.append(_excess_kurtosis(v))
        dev = np.abs(v - np.median(v))
        v_share.append(float(dev.max() / max(dev.sum(), 1e-300)))
    heavy = any(k > kurtosis_threshold for k in v_kurt)
    stable = True
    for i in range(len(n_values) - 1):
        a, sa = lam[i]
        b, sb = lam[i + 1]
        drift_allowance = 2.0 / min(n_values[i], n_values[i + 1])
        if abs(a - b) > 3.0 * float(np.hypot(sa, sb)) + drift_allowance:
            stable = False
    return FixtureAReport(n_values=tuple(int(n) for n in n_values),
                          lambda_norm=tuple(lam), v_mean=tuple(v_mean),
                          v_median=tuple(v_med), v_excess_kurtosis=tuple(v_kurt),
                          v_tail_share=tuple(v_share), heavy_tail_flag=heavy,
                          lambda_stable=stable)


def fixture_b_zero_fraction(n: int, replicas: int, seed: int = 0) -> tuple[float, float]:
    """Empirical probability that the (1,2) coefficient of A_n is exactly zero.

    The zero pattern survives the positive renormalizations, so exact
    float comparison against zero is sound here.
    """
    _, fixture_b = pathology_fixtures()
    batch = BatchedProducts(fixture_b, seed, replicas)
    batch.run(int(n))
    hits = batch.P[:, 0, 1] == 0.0
    frac = float(hits.mean())
    se = float(np.sqrt(max(frac * (1.0 - frac), 1e-300) / replicas))
    return frac, se


def fixture_b_exact_zero_probability(n: int) -> float:
    """Probability of a zero (1,2) coefficient by exhaustive word enumeration."""
    if n > 16:
        raise ValueError("exhaustive enumeration is restricted to n <= 16")
    _, fixture_b = pathology_fixtures()
    atoms = fixture_b.atom_array()
    weights = np.asarray(fixture_b.weights)
    d = fixture_b.d
    prods, probs = np.eye(d)[None], np.ones(1)  # every word of the current length
    for _ in range(n):
        prods = np.matmul(atoms[:, None], prods[None]).reshape(-1, d, d)
        probs = (probs[None] * weights[:, None]).reshape(-1)
    return float(probs[prods[:, 0, 1] == 0.0].sum())


# ---------------------------------------------------------------------
# Coefficient-versus-norm gap
# ---------------------------------------------------------------------


def coefficient_gap_check(spec: MeasureSpec, n_max: int, paths: int,
                          seed: int = 0) -> float:
    """Pathwise check of the coefficient lower bound via suffix products.

    For measures whose every draw passes the positivity classifier at
    level 1/n0, the normalized coefficient infimum at step n dominates
    -log n0 plus the worst log(v/norm) gap over transposed suffix
    products.  Recomputed densely (n_max <= 64), returns the largest
    violation (negative means the bound held everywhere).
    """
    if n_max > 64:
        raise ValueError("dense suffix recomputation is restricted to n <= 64")
    if spec.kind != "atomic":
        raise ValueError("classifier levels need an atomic spec")
    if paths < 1:
        raise ValueError("paths must be at least 1")
    level = min(g_delta_level(a) for a in spec.atom_array())
    if not level > 0:
        raise ValueError("every atom must be strictly positive for this check")
    n0 = int(np.ceil(1.0 / level))
    draws = np.stack([  # raw draws, kept dense (n_max <= 64 stays in range)
        sample_batch(spec, rngmod.derived_stream(seed, Purpose.GAP_PATH, path), n_max)
        for path in range(paths)])
    prod = draws[:, 0]
    suffix = draws[:, :0]  # suffix[:, ell - 1] = Y_{n-1} ... Y_ell, ell < n
    worst = -np.inf
    for n in range(2, n_max + 1):
        y = draws[:, n - 1]
        prod = np.matmul(y, prod)
        suffix = np.concatenate([np.matmul(y[:, None], suffix), y[:, None]], axis=1)
        lhs = np.log((prod / prod.sum(axis=1, keepdims=True)).min(axis=(1, 2)))
        rs = suffix.sum(axis=3)  # column sums of the transposed suffixes
        worst_suffix = (np.log(rs.min(axis=2)) - np.log(rs.max(axis=2))).min(axis=1)
        worst = max(worst, float(np.max(-np.log(n0) + worst_suffix - lhs)))
    return worst
