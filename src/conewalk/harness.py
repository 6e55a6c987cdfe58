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

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import rng as rngmod
from .estimators import FUNCTIONALS, BatchedProducts, _forward_blocks, moment_sanity
from .measures import MeasureSpec, sample_batch, sample_words, word_levels
from .posmat import _step, g_delta_level
from .rng import Purpose
from .simplex import as_count, as_grid, as_point

__all__ = [
    "reference_spec",
    "noise_floor",
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
    "SWEEP_FUNCTIONALS",
]

_CHUNK = 8192
# what a sweep reads unless told otherwise: every functional but the coefficient
SWEEP_FUNCTIONALS = ("sigma", "norm", "v", "kappa", "inf_coeff")
# exact orderings (lower, upper), checked whenever both are read (v and norm always are)
_ORDERINGS = (("v", "kappa"), ("kappa", "norm"), ("inf_coeff", "norm"), ("v", "norm"))
ASIP_MIN_BLOCK_EXP = 6  # the ASIP proxy's dyadic block sums start at step 2**6


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
    steps = np.arange(minus_inf, n + 1) / n  # the empirical CDF below and at each point
    # steps[1:] >= steps[:-1], so these one-sided maxima are the absolute gaps
    d = max(float(np.max(steps[1:] - f)), float(np.max(f - steps[:-1])))
    if minus_inf:
        d = max(d, minus_inf / n)
    return d


# Cephes' ndtr: Cody's (1969) rational fits, as tabulated by Moshier (1989), of
# erf on |x| < 1 (T/U) and erfc on [1, 8) (P/Q) and beyond (R/S), highest power first
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # erfc(a) is taken as 0 once a * a exceeds it
# the branch edges on x = t / sqrt(2) for searchsorted(side="right"): x <= -8, <= -1, < 1, < 8
_PHI_CUTS = (-8.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(8.0, 0.0))


def _horner(x, coefs):
    """The polynomial with coefficients ``coefs``, highest power first, at x,
    in Cephes' polevl order (a leading 1.0 gives p1evl's floats)."""
    y = x * coefs[0] + coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def _half_erfc(a, far: bool):
    """erfc(a) / 2 for a >= 1: exp(-a^2) P(a)/Q(a) below 8, R(a)/S(a) from 8 on."""
    if not a.size:
        return a
    num, den = (_ERFC_R, _ERFC_S) if far else (_ERFC_P, _ERFC_Q)
    with np.errstate(over="ignore", invalid="ignore"):  # a = inf gives 0 inf / inf
        y = np.exp(-(a * a)) * _horner(a, num) / _horner(a, den)
    if far:
        y[a * a > _MAXLOG] = 0.0
    return 0.5 * y


def _ndtr(t) -> np.ndarray:
    """Phi(t), the standard normal CDF, for ascending ``t`` (nan last, where
    ``np.sort`` puts it).

    Cephes' ndtr on x = t / sqrt(2): 1/2 + erf(x)/2 by the fit x T(x^2)/U(x^2)
    for |x| < 1, else erfc(|x|)/2, reflected for x > 0.  Each branch is one
    contiguous slice of the sorted input, so one searchsorted finds them all.
    """
    x = np.asarray(t, dtype=float) * np.sqrt(0.5)
    out = np.empty_like(x)
    i, j, k, m = np.searchsorted(x, _PHI_CUTS, side="right")
    out[:i], out[i:j] = _half_erfc(-x[:i], True), _half_erfc(-x[i:j], False)
    mid = x[j:k]
    z = mid * mid
    out[j:k] = 0.5 + 0.5 * (mid * _horner(z, _ERF_T) / _horner(z, _ERF_U))
    out[k:m], out[m:] = 1.0 - _half_erfc(x[k:m], False), 1.0 - _half_erfc(x[m:], True)
    return out


def ks_to_gaussian(sample, s: float, minus_inf: int = 0) -> float:
    """KS distance of a sample to the centered Gaussian with scale s."""
    if not s > 0:
        raise ValueError("scale s must be positive")
    # ks_statistic hands the cdf its sorted sample, and t / s keeps the order
    return ks_statistic(sample, lambda t: _ndtr(t / s), minus_inf=minus_inf)


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
    divided by that step; ``s_hat`` is the plug-in scale, the standard
    deviation of that log norm divided by the step's square root.
    ``ordering_violation`` is the largest
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

    @property
    def s_hat(self) -> float:
        n_top = self.n_grid[-1]
        return float(self.samples[("norm", n_top)].std(ddof=1) / np.sqrt(n_top))

    def _require(self, functional: str, steps, field: str, replicas: int) -> None:
        """Reject a lookup of ``functional`` at ``steps`` (the argument
        ``field``) that the sweep did not sample, naming what it did, and a
        ``replicas`` other than the sweep's own sample size."""
        names = sorted({name for name, _ in self.samples})
        sampled = f"by the sweep, which sampled steps {list(self.n_grid)} of {names}"
        missing = [n for n in steps if n not in self.n_grid]
        if missing:
            raise ValueError(f"{field}: steps {missing} were not sampled {sampled}")
        if functional not in names:
            raise ValueError(f"functional: {functional!r} was not sampled {sampled}")
        if replicas != self.replicas:
            raise ValueError(f"replicas: {replicas} is not the sweep's {self.replicas}")


def _sweep_chunk(spec, seed, size, key, grid, functionals, x, y):
    batch = BatchedProducts(spec, rngmod.derived_stream(seed, Purpose.FORWARD, key), size)
    out = {}
    violation = 0.0
    kept = {*functionals, "norm"}
    for n in grid:
        batch.leap(n - batch.n)
        pulls = {name: batch.functional(name, x, y) for name in kept | {"v"}}
        for lo, hi in _ORDERINGS:
            if lo in pulls and hi in pulls:
                violation = max(violation, float(np.max(pulls[lo] - pulls[hi])))
        out.update({(name, n): pulls[name] for name in kept})
    return out, violation


def _chunk_worker(conn, jobs) -> None:
    """Send ``(True, _sweep_chunk(*job))`` for each job in turn, or
    ``(False, error)`` at the first that raises, down ``conn``."""
    try:
        for args in jobs:
            conn.send((True, _sweep_chunk(*args)))
    except BaseException as exc:  # the caller re-raises it
        conn.send((False, exc))
    finally:
        conn.close()


def _map_chunks(context, jobs, workers: int) -> list:
    """``_sweep_chunk`` over ``jobs`` in ``workers`` processes of ``context``,
    worker w taking jobs w, w + workers, ...; the results in job order.

    The calling thread receives every result itself: a pool's helper threads
    would unpickle them into their own malloc arenas, so the process's peak
    memory would hang on how their work interleaves with the caller's.
    """
    procs, conns = [], []
    failed = True
    try:
        for w in range(workers):
            recv, send = context.Pipe(duplex=False)
            conns.append(recv)
            procs.append(context.Process(target=_chunk_worker, daemon=True,
                                         args=(send, jobs[w::workers])))
            procs[-1].start()
            send.close()
        parts = []
        for k in range(len(jobs)):
            ok, value = conns[k % workers].recv()
            if not ok:
                raise value
            parts.append(value)
        failed = False
        return parts
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if failed:
                proc.terminate()
            proc.join()


def functional_sweep(spec: MeasureSpec, n_grid, replicas: int, seed: int,
                     functionals=SWEEP_FUNCTIONALS,
                     x=None, y=None, threads: int = 1,
                     chunk: int = _CHUNK) -> SweepResult:
    """Simulate all requested functionals on one set of shared paths.

    Replicas are split into chunks of ``chunk`` (the last one shorter);
    chunk k is one ``BatchedProducts`` run on the stream (seed, FORWARD, k).
    With ``threads`` > 1 and more than one chunk, the chunks run in up to
    ``threads`` worker processes (forked where the platform can fork, else
    its default start method) and come back in chunk order. The result
    depends only on (spec, seed, replicas, chunk), never on the worker
    count or the start method.
    """
    threads, grid = as_count(threads, "threads"), as_grid(n_grid)
    replicas, chunk = as_count(replicas, "replicas"), as_count(chunk, "chunk")
    for name in functionals:
        if name not in FUNCTIONALS:
            raise ValueError(f"unknown functional {name!r}")
    xp, yp = as_point(x, spec.d, "x"), as_point(y, spec.d, "y")
    sizes = [min(chunk, replicas - start) for start in range(0, replicas, chunk)]
    jobs = [(spec, seed, size, idx, grid, tuple(functionals), xp, yp)
            for idx, size in enumerate(sizes)]
    if threads > 1 and len(jobs) > 1:
        # imported here: multiprocessing adds about 14 ms and 0.3 MiB to
        # every process that imports the harness, and only the workers need it
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()  # the default first
        context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
        parts = _map_chunks(context, jobs, min(threads, len(jobs)))
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


def _check_finite(**values) -> None:
    """Reject a nan or an infinity, naming its argument; None passes, for
    the estimates a routine makes itself."""
    for name, value in values.items():
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _ks_replicas(replicas) -> int:
    """``replicas`` checked for a KS sweep: two at least, since the plug-in
    scale of one replica is nan."""
    return as_count(replicas, "replicas", 2)


def _rate_grid(n_grid) -> list[int]:
    """``n_grid`` checked for a rate fit: two steps at least, since Kendall's
    tau over one step is 0, which any law would pass."""
    grid = as_grid(n_grid)
    if len(grid) < 2:
        raise ValueError(f"n_grid must hold at least two steps for a rate, got {grid}")
    return grid


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
    replicas = _ks_replicas(replicas)
    _check_finite(s=s, lambda_hat=lambda_hat)
    if not s > 0:
        raise ValueError("s must be positive (degenerate laws are skipped upstream)")
    if sweep is None:
        sweep = functional_sweep(spec, [n], replicas, seed,
                                 functionals=(functional,), x=x, y=y)
    else:
        sweep._require(functional, [n], "n", replicas)
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
    """Fit the Berry-Esseen scaling ks * n**(p/2-1) over a grid of two
    steps or more."""
    threads, grid = as_count(threads, "threads"), _rate_grid(n_grid)
    replicas = _ks_replicas(replicas)
    _check_finite(s=s, lambda_hat=lambda_hat)
    if sweep is not None:
        sweep._require(functional, grid, "n_grid", replicas)
    if check_moments:
        sanity = moment_sanity(spec, p, max(4096, replicas // 8), seed)
        if not sanity.stable:
            raise ValueError(f"order-{p} moment of log N(Y) failed the stability check")
    if sweep is None:
        sweep = functional_sweep(spec, grid, replicas, seed,
                                 functionals=(functional,), x=x, y=y,
                                 threads=threads)
    s = sweep.s_hat if s is None else s
    target = p / 2.0 - 1.0
    if not s > 1e-12:
        return RateFit(functional=functional, p=p, n_grid=tuple(grid),
                       ks_values=(), scaled=(), target=target, slope=None,
                       tau_raw=0.0, tau_banded=0.0, s_used=s,
                       verdict="degenerate")
    ks_arr = np.array([empirical_normality(spec, functional, n, replicas, s,
                                           lambda_hat=lambda_hat, sweep=sweep).ks_distance
                       for n in grid])
    ns = np.asarray(grid, dtype=float)
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
    logarithm envelope (1 + eps) sqrt(2 s^2 n log log n).  ``word_len`` is
    the steps per draw of the walk that ran: L for the word walk, 1 for the
    step-by-step walk.  ``exact_fraction`` is the share of (word, replica)
    pairs whose step values were computed: the word walk skips the words
    whose bounds cannot reach the running maximum (1.0 on the step walk).
    """

    n: int
    replicas: int
    eps: float
    envelope_fraction: float
    envelope_quantile_99: float
    block_ks: tuple[tuple[int, float], ...]
    s_used: float
    lambda_used: float
    word_len: int
    exact_fraction: float
    tag: str = "property proxy"


def _cocycle_blocks(spec, seed, x, n, replicas, y=None):
    """The word length L of the walk of one column from x on the stream (seed,
    FORWARD, 0), and an iterable, walked once, that yields per block the steps
    k (T,) and the (T, R) values sigma(A_k, x), or log <y, A_k x> when y is
    given.

    Atomic specs with a word table walk by words (a ``_WordWalk``), L steps
    per draw; parametric specs and laws without one walk step by step on
    ``_forward_blocks`` (L = 1), where sigma is the running sum of the log
    increments and log <y, A_k x> = sigma(A_k, x) + log <y, v_k>.
    """
    stream = rngmod.derived_stream(seed, Purpose.FORWARD, 0)
    words = spec._words if spec.kind == "atomic" else None
    if words is not None:
        return words[0], _WordWalk(spec, stream, x, n, replicas, y)
    return 1, _step_blocks(spec, stream, x, n, replicas, y)


def _step_blocks(spec, stream, x, n, replicas, y):
    start = np.broadcast_to(x.coords[:, None, None], (spec.d, 1, replicas))
    total, k = np.zeros(replicas), 0
    for incs, dirs, _ in _forward_blocks(spec, stream, start, n):
        incs[0] += total
        for t in range(1, len(incs)):  # the running sums, in cumsum's order
            incs[t] += incs[t - 1]
        total = incs[-1]
        if y is not None:
            with np.errstate(divide="ignore"):
                incs = incs + np.log(y.coords @ np.stack(dirs)[:, :, 0])
        yield np.arange(k + 1, k + len(incs) + 1), incs
        k += len(incs)


class _WordWalk:
    """The cocycle walk by words of L draws, each drawn whole by
    ``sample_words`` (a block draws T * R uniforms, draw t * R + i being word
    t of replica i).  By the cocycle identity, step l of a word w that starts
    at step k0 from the direction v reads

        sigma(A_{k0 + l}, x) = sigma(A_{k0}, x) + logs_l[j] + log <1, P_l[j] v>

    with (P_l, logs_l) level l of ``MeasureSpec._words`` and j = w mod K**l
    the word's oldest l draws; the weight row y in place of 1 gives
    log <y, A_{k0 + l} x>.  The direction moves once per word, through the
    top level.  The last word, when L does not divide n, is read only to its
    first n mod L steps: those draws are iid under the product law.

    Iterating yields every step's value, block by block; ``record_read``
    computes only the words that can raise a running maximum.  Both read
    the words of one pass over the stream, so a walk is read once.
    """

    def __init__(self, spec, stream, x, n, replicas, y):
        self.length, levels, _, _ = spec._words
        self.spec, self.stream, self.x, self.n, self.replicas = spec, stream, x, n, replicas
        self.sizes = len(spec.atoms) ** np.arange(1, self.length + 1)[:, None]
        r = np.ones(spec.d) if y is None else y.coords
        # every level's weighted rows r^T P_l side by side, level l from offset[l - 1]
        self.rows = np.concatenate([np.tensordot(r, words, 1) for words, _ in levels], axis=1)
        self.logs = np.concatenate([lg for _, lg in levels])
        self.offset = np.cumsum(self.sizes, axis=0) - self.sizes

    def _blocks(self):
        """Per block: its first step k, the (T, R) top words w drawn, and the
        direction (d, T, 1, R) and sigma (T, 1, R) at the start of each word."""
        spec, replicas, length, d = self.spec, self.replicas, self.length, self.spec.d
        table, top_logs = spec._words[1][-1]
        state = np.broadcast_to(self.x.coords[:, None, None], (d, 1, replicas))
        total, k = np.zeros(replicas), 0
        while k < self.n:
            # T words gather d * L * T * R entries: near 2**15, as 2**14 ran 5% slower
            # and 2**16 grew the temporaries (R = 512, d = 2, L = 8)
            size = min(max(1, 2**15 // (d * length * replicas)), -(-(self.n - k) // length))
            w = sample_words(spec, self.stream, size * replicas).reshape(size, replicas)
            mats, incs = table.take(w, axis=2), top_logs.take(w)
            starts, sigmas = np.empty((d, size, 1, replicas)), np.empty((size, 1, replicas))
            for t in range(size):
                starts[:, t, 0], sigmas[t, 0] = state[:, 0], total
                state, scale = _step(mats[:, :, t], state)
                total = total + np.log(scale) + incs[t]
            yield k, w, starts, sigmas
            k += size * length

    def values(self, w, starts, sigmas):
        """The (T, L, P) values of the L steps of the (T, P) words w, from the
        directions starts (d, T, 1, P) and sigmas (T, 1, P) at their starts:
        the one computation of the step values, for every read of the walk."""
        idx = np.remainder(w[:, None], self.sizes)  # (T, L, P): each step's prefix in ``rows``
        idx += self.offset
        vals, term = self.rows[0].take(idx), np.empty(idx.shape)
        vals *= starts[0]
        for i in range(1, len(starts)):
            vals += np.multiply(self.rows[i].take(idx, out=term), starts[i], out=term)
        with np.errstate(divide="ignore"):
            np.log(vals, out=vals)
        vals += self.logs.take(idx, out=term)
        vals += sigmas
        return vals

    def __iter__(self):
        for k, w, starts, sigmas in self._blocks():
            vals = self.values(w, starts, sigmas).reshape(-1, self.replicas)[:self.n - k]
            yield np.arange(k + 1, k + len(vals) + 1), vals

    def bounds(self, lam):
        """Per top word w, (hi_w, lo_w) with every step l of w deviating from
        its start by  lo_w <= value - sigma(A_{k0}, x) - l lam <= hi_w.

        <r, P_l v> is linear in v, so over the simplex it lies between the
        least and the largest entry of the row r^T P_l: the paper's
        log v <= sigma <= log N on each prefix.  Built one level at a time on
        (K**L,) arrays."""
        words = self.sizes[-1, 0]
        hi, lo = np.full(words, -np.inf), np.full(words, np.inf)
        for l, (start, size) in enumerate(zip(self.offset[:, 0], self.sizes[:, 0]), 1):
            rows, logs = self.rows[:, start:start + size], self.logs[start:start + size]
            with np.errstate(divide="ignore"):
                top, low = np.log(rows.max(axis=0)), np.log(rows.min(axis=0))
            top += logs
            top -= l * lam
            low += logs
            low -= l * lam
            # word w's oldest l draws are its prefix w mod K**l
            np.maximum(hi, np.tile(top, words // size), out=hi)
            np.minimum(lo, np.tile(low, words // size), out=lo)
        return hi, lo

    def record_read(self, lam, marks):
        """The running maxima max_{k <= n} |value_k - k lam| (R,), the values at
        each step of ``marks`` and the share of (word, replica) pairs whose
        steps were computed.

        A pair whose bound max(c + hi_w, -(c + lo_w)), c = sigma(A_{k0}, x) -
        k0 lam, cannot pass the running maximum at the start of its block is
        skipped: its values are at most that maximum, so the maxima equal
        those of every value, bit for bit.  The bound's slack, 2**-32 times
        the magnitudes of its terms, lies far above the few roundings of a
        value and of its bound.  The words that hold a mark are computed for
        every replica."""
        hi, lo = self.bounds(lam)
        length, replicas = self.length, self.replicas
        # a magnitude above every term of a value and of its bound but sigma's
        ends = np.abs(np.concatenate([hi, lo]))
        scale = (1.0 + 2.0 * ends[np.isfinite(ends)].max(initial=0.0)
                 + 2.0 * np.abs(self.logs).max() + 3.0 * length * abs(lam))
        steps = np.arange(1, length + 1)[:, None]
        running_max, level_vals, exact, pairs = np.zeros(replicas), {}, 0, 0
        for k, w, starts, sigmas in self._blocks():
            size = len(w)
            k0 = k + length * np.arange(size)
            c = sigmas[:, 0] - (k0 * lam)[:, None]
            bound = np.maximum(c + hi.take(w), -(c + lo.take(w)))
            bound += 2.0**-32 * (scale + np.abs(sigmas).max() + (k0[-1] + length) * abs(lam))
            keep = bound > running_max
            inside = [m for m in marks if k < m <= k + size * length]
            for m in inside:
                keep[(m - k - 1) // length] = True
            flat = np.flatnonzero(keep)
            exact, pairs = exact + flat.size, pairs + keep.size
            vals = self.values(w.take(flat)[None],
                               starts.reshape(len(starts), -1).take(flat, axis=1)[:, None, None],
                               sigmas.take(flat)[None, None])[0]
            ks = k0.take(flat // replicas) + steps
            dev = np.abs(vals - ks * lam)
            if k + size * length > self.n:
                dev[ks > self.n] = 0.0
            np.maximum.at(running_max, flat % replicas, dev.max(axis=0))
            for m in inside:
                t, l = divmod(m - k - 1, length)
                at = flat.searchsorted(t * replicas)
                level_vals[m] = vals[l, at:at + replicas].copy()
        return running_max, level_vals, exact / pairs


def _asip_read(spec, seed, x, n, replicas, y, lam, marks):
    """(word_len, running maxima, values at marks, exact share) of the walk of
    ``_cocycle_blocks``: max_{k <= n} |value_k - k lam| per replica, the
    (R,) values at each step of ``marks``, and the share of (word, replica)
    pairs whose steps were computed (every one on the step walk)."""
    word_len, blocks = _cocycle_blocks(spec, seed, x, n, replicas, y)
    if isinstance(blocks, _WordWalk):
        return (word_len, *blocks.record_read(lam, marks))
    running_max, level_vals = np.zeros(replicas), {}
    for ks, vals in blocks:
        dev = np.abs(vals - ks[:, None] * lam)
        np.maximum(running_max, dev.max(axis=0), out=running_max)
        for k in marks:
            if ks[0] <= k <= ks[-1]:
                level_vals[k] = vals[k - ks[0]].copy()
    return word_len, running_max, level_vals, 1.0


def asip_proxy(spec: MeasureSpec, n: int, replicas: int, seed: int = 0,
               eps: float = 0.2, s: float | None = None,
               lambda_hat: float | None = None, variant: str = "sigma",
               x=None, y=None) -> AsipReport:
    """Track running deviations of one replica batch up to step n.

    Both variants follow the walk of one column from x alone, since
    log <y, A_k x> = sigma(A_k, x) + log <y, v_k>.
    """
    if variant not in ("sigma", "coeff"):
        raise ValueError("variant must be 'sigma' or 'coeff'")
    n = as_count(n, "n", 3)  # so that log log n > 0
    replicas = as_count(replicas, "replicas")
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    _check_finite(eps=eps, s=s, lambda_hat=lambda_hat)
    xp, yp = as_point(x, spec.d, "x"), as_point(y, spec.d, "y")
    if lambda_hat is None or s is None:
        pre = functional_sweep(spec, [min(n, 4096)], max(2048, replicas),
                               rngmod.child_seed(seed, Purpose.DRIFT_PRESWEEP),
                               functionals=("norm",))
        lambda_hat = pre.lambda_hat if lambda_hat is None else lambda_hat
        s = pre.s_hat if s is None else s
    if not s > 0:
        raise ValueError("s must be positive")
    k_levels = int(np.floor(np.log2(n)))
    marks = [2 ** j for j in range(ASIP_MIN_BLOCK_EXP, k_levels + 1)]
    word_len, running_max, level_vals, exact = _asip_read(
        spec, seed, xp, n, replicas, yp if variant == "coeff" else None, lambda_hat, marks)
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
                      s_used=s, lambda_used=lambda_hat, word_len=word_len,
                      exact_fraction=exact)


# ---------------------------------------------------------------------
# Deviation tail sums
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationReport:
    """Weighted tail sums of maximal-deviation probabilities.

    partial_sums[i] = sum over n <= ns[i] of n**(alpha p - 2) * P_hat(n);
    the verdict is "pass" when the final probability sits at or below
    the Monte Carlo floor, so later increments are indistinguishable
    from zero.  ``word_len`` is the steps per draw of the walk that ran: L
    for the cocycle variant's word walk, else 1.
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
    word_len: int


def _cocycle_deviations(blocks, replicas, lambda_hat):
    """Yield max over j <= n of |sigma(A_j, x) - j lambda| for n = 1..n_max,
    from the ``blocks`` of ``_cocycle_blocks``."""
    running_max = np.zeros(replicas)
    for ks, vals in blocks:
        dev = np.abs(vals - ks[:, None] * lambda_hat)
        np.maximum(dev[0], running_max, out=dev[0])
        running_max = np.maximum.accumulate(dev, axis=0, out=dev)[-1]
        yield from dev


def _coefficient_deviations(spec, seed, n_max, replicas, lambda_hat):
    """Yield the larger deviation of the extreme log entries of A_n from n lambda.

    Coefficient deviations carry no inner maximum: a single vanishing
    coefficient would freeze the maximum at +inf.  The bilinear form over
    simplex pairs ranges between the extreme matrix entries, so the sup
    sits at one of the two.
    """
    batch = BatchedProducts(spec, rngmod.derived_stream(seed, Purpose.FORWARD, 0), replicas)
    for _ in batch.steps(n_max):
        yield np.maximum(np.abs(batch.log_max_entry() - batch.n * lambda_hat),
                         np.abs(batch.log_min_entry() - batch.n * lambda_hat))


def deviation_tail_sums(spec: MeasureSpec, alpha: float, p: float, eps: float,
                        n_max: int, replicas: int, seed: int = 0,
                        variant: str = "cocycle",
                        lambda_hat: float | None = None,
                        x=None, record_every: int = 1) -> DeviationReport:
    """Monte Carlo partial sums of the maximal-deviation series."""
    if not 0.5 < alpha <= 1.0:
        raise ValueError("alpha must lie in (1/2, 1]")
    if not p > 0:
        raise ValueError(f"p must be > 0, got {p}")
    if alpha < 1.0 / p:
        raise ValueError("alpha must be >= 1/p")
    if variant not in ("cocycle", "coefficient"):
        raise ValueError("variant must be 'cocycle' or 'coefficient'")
    n_max, record_every = as_count(n_max, "n_max"), as_count(record_every, "record_every")
    replicas = as_count(replicas, "replicas")
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    _check_finite(eps=eps, lambda_hat=lambda_hat)
    xp = as_point(x, spec.d, "x")
    if lambda_hat is None:
        lambda_hat = functional_sweep(spec, [n_max], max(replicas // 4, 1024),
                                      rngmod.child_seed(seed, Purpose.DRIFT_PRESWEEP),
                                      functionals=("norm",)).lambda_hat
    if variant == "cocycle":
        word_len, blocks = _cocycle_blocks(spec, seed, xp, n_max, replicas)
        stats = _cocycle_deviations(blocks, replicas, lambda_hat)
    else:
        word_len, stats = 1, _coefficient_deviations(spec, seed, n_max, replicas, lambda_hat)
    ns, probs, partials = [], [], []
    acc = 0.0
    for n, stat in enumerate(stats, 1):
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
                           verdict=verdict, word_len=word_len)


# ---------------------------------------------------------------------
# Pathology fixtures
# ---------------------------------------------------------------------

FIXTURE_A_TRUNCATION = 1000
FIXTURE_A_KURTOSIS = 10.0  # excess kurtosis of log v that flags a heavy tail


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
                     seed: int = 0) -> FixtureAReport:
    """Contrast the stable norm drift with the heavy-tailed lower gauge."""
    n_values = tuple(as_count(n, "n_values") for n in n_values)
    replicas = as_count(replicas, "replicas", 2)
    fixture_a, _ = pathology_fixtures()
    lam, v_mean, v_med, v_kurt, v_share = [], [], [], [], []
    for idx, n in enumerate(n_values):
        stream = rngmod.derived_stream(seed, Purpose.FORWARD, idx)
        batch = BatchedProducts(fixture_a, stream, replicas)
        batch.run(n)
        norm = batch.log_norm() / n
        lam.append((float(norm.mean()), float(norm.std(ddof=1) / np.sqrt(replicas))))
        v = batch.log_v()
        v = np.maximum(v, -750.0)  # floor: entries below this underflowed
        v_mean.append(float(v.mean()))
        v_med.append(float(np.median(v)))
        v_kurt.append(_excess_kurtosis(v))
        dev = np.abs(v - np.median(v))
        v_share.append(float(dev.max() / max(dev.sum(), 1e-300)))
    heavy = any(k > FIXTURE_A_KURTOSIS for k in v_kurt)
    stable = True
    for i in range(len(n_values) - 1):
        a, sa = lam[i]
        b, sb = lam[i + 1]
        drift_allowance = 2.0 / min(n_values[i], n_values[i + 1])
        if abs(a - b) > 3.0 * float(np.hypot(sa, sb)) + drift_allowance:
            stable = False
    return FixtureAReport(n_values=n_values,
                          lambda_norm=tuple(lam), v_mean=tuple(v_mean),
                          v_median=tuple(v_med), v_excess_kurtosis=tuple(v_kurt),
                          v_tail_share=tuple(v_share), heavy_tail_flag=heavy,
                          lambda_stable=stable)


def fixture_b_zero_fraction(n: int, replicas: int, seed: int = 0) -> tuple[float, float]:
    """Empirical probability that the (1,2) coefficient of A_n is exactly zero.

    The zero pattern survives the positive renormalizations, so exact
    float comparison against zero is sound here.
    """
    n = as_count(n, "n")
    _, fixture_b = pathology_fixtures()
    batch = BatchedProducts(fixture_b, rngmod.derived_stream(seed, Purpose.FORWARD, 0), replicas)
    batch.run(n)
    hits = batch.P[:, 0, 1] == 0.0
    frac = float(hits.mean())
    se = float(np.sqrt(max(frac * (1.0 - frac), 1e-300) / replicas))
    return frac, se


def fixture_b_exact_zero_probability(n: int) -> float:
    """Probability of a zero (1,2) coefficient by exhaustive word enumeration:
    the weights of the words of level n of ``measures.word_levels`` whose
    (1,2) entry is zero, which the positive renormalisations keep exact."""
    n = as_count(n, "n")
    if n > 16:
        raise ValueError("exhaustive enumeration is restricted to n <= 16")
    _, fixture_b = pathology_fixtures()
    words, _, weights = next(islice(word_levels(fixture_b), n - 1, None))
    return float(weights[words[0, 1] == 0.0].sum())


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
    if not 2 <= n_max <= 64:
        raise ValueError(f"n_max must lie in [2, 64] for dense suffix products, got {n_max}")
    n_max, paths = as_count(n_max, "n_max", 2), as_count(paths, "paths")
    if spec.kind != "atomic":
        raise ValueError("classifier levels need an atomic spec")
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
