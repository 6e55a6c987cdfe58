"""The four benchmark workloads: reduced copies of acceptance criteria 6 to 9.

Each workload calls the library's public entry points in the order the
acceptance criteria call them, at sizes that fit a benchmark pass of a
few seconds, and records

- correctness checks: the library's own verdicts, plus the headline
  estimates against pinned reference values (``reference.json``);
- headline estimates with their standard errors, which give the
  precision term of ``mc_inefficiency``;
- every estimate as a plain float, so reruns at one seed can be compared
  bit for bit.

Stage seeds are ``8 * seed + k`` so that no two stages of any two
workload seeds share a stream.
"""

from __future__ import annotations

import math
import os

import conewalk.estimators as est
import conewalk.harness as hz
import conewalk.walk as walk

# Statistical checks use a 5-sigma band: the benchmark repeats every seed
# in several processes and runs, so a 3-sigma band (as the acceptance
# suite uses once) would raise false alarms on a correct program, while a
# broken kernel moves the estimates by far more than five errors.
Z = 5.0

# log v <= log kappa <= log norm holds exactly; only rounding may break it.
ORDERING_TOL = 1e-9
PATHWISE_TOL = 1e-12
ENVELOPE_MIN = 0.95

FUNCTIONALS = ("sigma", "norm", "v", "kappa", "inf_coeff")

SIZES = {
    "clt-sweep": {
        "full": {"replicas": 16384, "grid": (16, 64, 256, 1024)},
        "tiny": {"replicas": 16384, "grid": (2, 4, 8)},
    },
    "variance-triangulation": {
        "full": {"n": 128, "replicas": 4096, "coupling_replicas": 1024,
                 "series_replicas": 2048, "inner": 512, "paths": 64,
                 "path_steps": 32},
        "tiny": {"n": 16, "replicas": 256, "coupling_replicas": 128,
                 "series_replicas": 128, "inner": 32, "paths": 8,
                 "path_steps": 4},
    },
    "invariant-d8": {
        "full": {"samples": 384, "tol": 1e-8, "coupling_replicas": 512,
                 "coupling_steps": 10},
        "tiny": {"samples": 16, "tol": 1e-8, "coupling_replicas": 32,
                 "coupling_steps": 4},
    },
    "narrow-long": {
        "full": {"steps": 2 ** 13, "replicas": 512, "paths": 24, "tol": 1e-12},
        "tiny": {"steps": 256, "replicas": 32, "paths": 2, "tol": 1e-12},
    },
}


class Outcome:
    """Checks, estimates and headline precision of one workload pass.

    ``threads`` is how many threads the pass keeps busy.
    """

    def __init__(self, refs: dict | None):
        self.refs = refs
        self.stage = "start"
        self.checks: list[tuple[str, bool, str]] = []
        self.estimates: dict[str, float] = {}
        self.rel_var_terms: dict[str, float] = {}
        self.threads = 1

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def headline(self, name: str, value: float, se: float) -> None:
        """Record a headline estimate and check it against its reference.

        The precision term is (se / |reference|)^2: the pinned reference
        scales the error, so the term does not inherit the seed-to-seed
        noise of the estimate itself.  Without references (tiny sizes)
        the estimate scales its own error.
        """
        value, se = float(value), float(se)
        self.estimates[name] = value
        self.estimates[name + ".se"] = se
        ref = (self.refs or {}).get(name)
        scale = abs(ref["value"]) if ref else abs(value)
        self.rel_var_terms[name] = (se / scale) ** 2 if scale > 0 else math.inf
        if ref:
            band = Z * math.hypot(se, ref["se"])
            self.check(f"reference.{name}", abs(value - ref["value"]) <= band,
                       f"{value:.6g} vs {ref['value']:.6g} (band {band:.3g})")

    def rel_var(self) -> float:
        return max(self.rel_var_terms.values())


def clt_sweep(out: Outcome, specs, seed: int, size: dict, pins: dict) -> None:
    """Criterion 7: functional sweep on wide forward batches, then rate fits."""
    spec, grid, replicas = specs["reference"], size["grid"], size["replicas"]
    out.stage = "functional_sweep"
    out.threads = min(2, len(os.sched_getaffinity(0)))
    sweep = hz.functional_sweep(spec, grid, replicas, 8 * seed,
                                functionals=FUNCTIONALS, threads=out.threads)
    for f in FUNCTIONALS:
        out.stage = f"berry_esseen_fit[{f}]"
        fit = hz.berry_esseen_fit(spec, f, 3.0, grid, replicas, seed=8 * seed + 1,
                                  sweep=sweep, check_moments=(f == "sigma"))
        out.check(f"berry_esseen.{f}", fit.verdict == "pass",
                  f"verdict {fit.verdict}, tau_banded {fit.tau_banded:+.3f}")
        out.estimates[f"ks_top.{f}"] = fit.ks_values[-1]
    out.check("sweep.ordering_violation",
              sweep.ordering_violation <= ORDERING_TOL,
              f"{sweep.ordering_violation:.3g} <= {ORDERING_TOL}")
    top = sweep.samples[("norm", grid[-1])]
    se = float(top.std(ddof=1)) / math.sqrt(top.size) / grid[-1]
    out.headline("lambda_hat", sweep.lambda_hat, se)


def variance_triangulation(out: Outcome, specs, seed: int, size: dict,
                           pins: dict) -> None:
    """Criterion 6 with the reference drift pinned: three variance routes."""
    spec, lam = specs["reference"], pins["lambda"]
    out.stage = "estimate_variance_direct"
    direct = est.estimate_variance_direct(spec, size["n"], size["replicas"],
                                          seed=8 * seed, functionals=("sigma",))["sigma"]
    out.stage = "coupling_decay"
    curve = est.coupling_decay(spec, 1.0, range(1, 31), size["coupling_replicas"],
                               seed=8 * seed + 1, pathwise_check=True)
    out.check("coupling.pathwise_excess", curve.max_violation <= PATHWISE_TOL,
              f"{curve.max_violation:.3g} <= {PATHWISE_TOL}")
    out.stage = "lag selection"
    amp, rate = est.fit_geometric_envelope(curve.n_grid, curve.values)
    target = 0.01 * direct.value
    lag = 2
    while est.envelope_tail(amp, rate, lag) > target and lag < 64:
        lag += 1
    out.stage = "estimate_variance_series"
    series = est.estimate_variance_series(spec, lag + 1, size["series_replicas"], lam,
                                          seed=8 * seed + 2, envelope=(amp, rate))
    if series.tail_bound > target:
        # as in criterion 6: widen the window by the geometric amount the
        # increment-moment factor of the reported bound requires, and rerun
        extra = int(math.ceil(math.log(target / series.tail_bound) / math.log(rate)))
        lag += max(extra, 1)
        series = est.estimate_variance_series(spec, lag + 1, size["series_replicas"],
                                              lam, seed=8 * seed + 2,
                                              envelope=(amp, rate))
    out.check("series.tail_bound", series.tail_bound <= target + 1e-12,
              f"{series.tail_bound:.3g} <= {target:.3g}")
    out.estimates["lag"] = float(lag)
    out.stage = "estimate_psi"
    psi = est.estimate_psi(spec, lag, size["inner"], lam, seed=8 * seed + 3)
    out.stage = "variance_via_martingale"
    mart = est.variance_via_martingale(spec, psi, size["path_steps"], size["paths"],
                                       lam, seed=8 * seed + 4)
    routes = {"direct": direct, "series": series.estimate,
              "martingale": mart.estimate}
    names = list(routes)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            out.check(f"routes.{a}-vs-{b}", routes[a].agrees_with(routes[b], k=Z),
                      f"{routes[a].value:.4f}±{routes[a].std_error:.4f} vs "
                      f"{routes[b].value:.4f}±{routes[b].std_error:.4f}")
    out.check("martingale.lag1_whiteness",
              abs(mart.lag1_autocorr) <= Z * mart.lag1_se,
              f"{mart.lag1_autocorr:+.4f} within {Z}×{mart.lag1_se:.4f}")
    for name, route in routes.items():
        out.headline(f"s2.{name}", route.value, route.std_error)


def invariant_d8(out: Outcome, specs, seed: int, size: dict, pins: dict) -> None:
    """Criterion 9's regularity moment plus coupling decay, parametric d=8."""
    spec = specs["lognormal-d8"]
    out.stage = "invariant_regularity"
    reg = est.invariant_regularity(spec, 2.0, size["samples"], size["tol"],
                                   seed=8 * seed)
    out.stage = "coupling_decay"
    curve = est.coupling_decay(spec, 1.0, range(1, size["coupling_steps"] + 1),
                               size["coupling_replicas"], seed=8 * seed + 1,
                               pathwise_check=True)
    out.check("coupling.pathwise_excess", curve.max_violation <= PATHWISE_TOL,
              f"{curve.max_violation:.3g} <= {PATHWISE_TOL}")
    out.estimates["coupling.a_hat"] = curve.a_hat
    out.headline("regularity", reg.value, reg.std_error)


def narrow_long(out: Outcome, specs, seed: int, size: dict, pins: dict) -> None:
    """Criterion 8's ASIP proxy on a narrow batch, then scalar backward paths."""
    spec, replicas = specs["reference"], size["replicas"]
    out.stage = "asip_proxy"
    rep = hz.asip_proxy(spec, size["steps"], replicas, seed=8 * seed, eps=0.2,
                        s=pins["s"], lambda_hat=pins["lambda"])
    out.check("asip.envelope_fraction", rep.envelope_fraction >= ENVELOPE_MIN,
              f"{rep.envelope_fraction:.4f} >= {ENVELOPE_MIN}")
    out.stage = "backward_invariant_sample"
    worst = 0.0
    for i in range(size["paths"]):
        res = walk.backward_invariant_sample(spec, 8 * seed + 1, size["tol"],
                                             replica=i)
        worst = max(worst, res.certificate)
        out.estimates[f"scalar.{i}.x0"] = float(res.point.coords[0])
    out.check("scalar.certificates", worst <= size["tol"],
              f"worst {worst:.3g} <= {size['tol']}")
    # binomial error of the fraction, at the pinned reference fraction when
    # there is one (a plug-in p(1-p) from 256 replicas is itself too noisy
    # to compare runs), else Agresti-Coull so it never reads zero
    ref = (out.refs or {}).get("envelope_fraction")
    if ref:
        p, r = ref["value"], replicas
    else:
        r = replicas + 4
        p = (rep.envelope_fraction * replicas + 2) / r
    out.headline("envelope_fraction", rep.envelope_fraction, math.sqrt(p * (1 - p) / r))


WORKLOADS = {
    "clt-sweep": clt_sweep,
    "variance-triangulation": variance_triangulation,
    "invariant-d8": invariant_d8,
    "narrow-long": narrow_long,
}
