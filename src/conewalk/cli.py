"""Batch command-line front-end.

Each command reads a measure spec (JSON; the built-in reference measure
when --spec is omitted), runs one named experiment, and writes a CSV
table plus a summary document echoing the fully resolved configuration
and seed.  Reruns with the same configuration and seed produce
byte-identical CSV files.

Exit status: 0 on pass/complete, 2 when a verdict fails, 1 on input
errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import estimators as est
from . import harness as hz
from . import rng as rngmod
from .cones import (lorentz_cone, orthant_cone, psd_cone, psd_map_congruence,
                    psd_map_rank_one, sym_to_coords)
from .measures import MeasureSpec
from .rng import Purpose
from .simplex import contraction_coefficient, hilbert_distance, sample_point
from .walk import backward_invariant_sample, detect_contraction


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_summary(out: Path, command: str, config: dict, results: dict,
                   verdict: str) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "config": config,
        "seed": config.get("seed"),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
        "verdict": verdict,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _load_spec(args) -> MeasureSpec:
    if args.spec is None:
        return hz.reference_spec()
    try:
        return MeasureSpec.load(args.spec)
    except FileNotFoundError as exc:
        raise ValueError(f"spec file not found: {args.spec}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"spec file {args.spec} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    except ValueError as exc:
        raise ValueError(f"spec file {args.spec}: {exc}") from exc


def _parse_grid(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}: comma-separated integers expected") from exc


def _parse_cone(text: str):
    try:
        kind, _, size = text.partition(":")
        size = int(size)
        if kind == "orthant":
            return orthant_cone(size)
        if kind == "lorentz":
            return lorentz_cone(size)
        if kind == "psd":
            return psd_cone(size)
    except ValueError:
        pass
    raise ValueError(f"bad cone {text!r}: expected orthant:d, lorentz:n, or psd:n")


def _positive(config):
    for name in ("replicas", "n", "threads", "tol", "p", "eps"):
        value = config.get(name)
        if value is not None and not 0 < value < np.inf:
            raise ValueError(f"--{name} must be positive and finite, got {value}")


# ---------------------------------------------------------------------
# Command implementations: each takes the loaded spec (None for a command
# without --spec) and the parsed flags, and returns (rows_header, rows,
# results, verdict)
# ---------------------------------------------------------------------


def _cmd_validate_spec(spec, args):
    results = {"kind": spec.kind, "d": spec.d,
               "atoms": len(spec.atoms) if spec.atoms else 0,
               "transpose_view": spec.transpose_view}
    header = ["field", "value"]
    rows = [[k, v] for k, v in results.items()]
    return header, rows, results, "complete"


def _cmd_detect_contraction(spec, args):
    found = detect_contraction(spec, r_max=args.n, samples=args.replicas, seed=args.seed)
    if found is None:
        results = {"found": False, "r_max": args.n}
        rows = [["not-found", args.n, 0.0]]
    else:
        results = {"found": True, "r": found.r, "frequency": found.frequency}
        rows = [["found", found.r, found.frequency]]
    return ["status", "r", "frequency"], rows, results, "complete"


def _cmd_lyapunov(spec, args):
    n = args.n
    res = est.estimate_lyapunov(spec, n, args.replicas, seed=args.seed)
    e = res.estimate
    rows = [["lyapunov", e.value, e.std_error, e.replicas, f"n={n}"],
            ["norm-v-spread", res.spread, 0.0, e.replicas, f"n={n}"]]
    results = {"value": e.value, "std_error": e.std_error, "spread": res.spread}
    return ["method", "value", "std_error", "replicas", "params"], rows, results, "complete"


def _cmd_invariant_sample(spec, args):
    res = backward_invariant_sample(spec, args.seed, args.tol)
    rows = [[json.dumps(res.point.coords.tolist()), res.certificate, res.steps]]
    results = {"certificate": res.certificate, "steps": res.steps,
               "point": res.point.coords.tolist()}
    return ["point", "certificate", "steps"], rows, results, "complete"


def _cmd_coupling_decay(spec, args):
    curve = est.coupling_decay(spec, args.p, args.n_grid, args.replicas, seed=args.seed)
    rows = [[n, v] for n, v in zip(curve.n_grid, curve.values)]
    results = {"a_hat": curve.a_hat, "r_squared": curve.r_squared,
               "max_violation": curve.max_violation}
    ok = curve.a_hat is not None and curve.a_hat < 1 \
        and (curve.max_violation is None or curve.max_violation <= 1e-9)
    return ["n", "delta_hat"], rows, results, "pass" if ok else "fail"


def _cmd_variance(spec, args):
    n, replicas, seed = args.n, args.replicas, args.seed
    lam = hz.functional_sweep(spec, [n], replicas,
                              rngmod.child_seed(seed, Purpose.DRIFT_PRESWEEP),
                              functionals=("norm",)).lambda_hat
    tri = est.variance_triangulation(spec, n, replicas, lam, seed=seed)
    series, mart = tri.series, tri.martingale
    rows = [[e.method, e.value, e.std_error, e.replicas, f"n={n}"] for e in tri.direct.values()]
    rows.append(["series", series.estimate.value, series.estimate.std_error,
                 series.estimate.replicas, f"lag={tri.lag};tail<{series.tail_bound:.3g}"])
    rows.append(["martingale", mart.estimate.value, mart.estimate.std_error,
                 mart.estimate.replicas, f"len={mart.steps};lag1={mart.lag1_autocorr:.3g}"])
    results = {"lambda_hat": lam,
               "direct": {k: v.value for k, v in tri.direct.items()},
               "series": series.estimate.value, "martingale": mart.estimate.value,
               "lag": tri.lag, "tail_bound": series.tail_bound, "target": tri.target,
               "routes_agree": tri.routes_agree, "lag1_autocorr": mart.lag1_autocorr}
    return (["method", "value", "std_error", "replicas", "params"], rows,
            results, "pass" if tri.routes_agree else "fail")


def _cmd_normality(spec, args):
    n, replicas = args.n, hz._ks_replicas(args.replicas)
    sweep = hz.functional_sweep(spec, [n], replicas, args.seed, threads=args.threads)
    s = sweep.s_hat
    rows, results = [], {"s_used": s, "lambda_hat": sweep.lambda_hat,
                         "noise_floor": hz.noise_floor(replicas)}
    if s <= 1e-12:
        return (["functional", "n", "ks", "minus_inf"], [],
                {**results, "degenerate": True}, "complete")
    for f in hz.SWEEP_FUNCTIONALS:
        rep = hz.empirical_normality(spec, f, n, replicas, s, seed=args.seed,
                                     sweep=sweep)
        rows.append([f, n, rep.ks_distance, rep.minus_inf_count])
        results[f] = rep.ks_distance
    return ["functional", "n", "ks", "minus_inf"], rows, results, "complete"


def _cmd_berry_esseen(spec, args):
    grid, replicas = hz._rate_grid(args.n_grid), hz._ks_replicas(args.replicas)
    sweep = hz.functional_sweep(spec, grid, replicas, args.seed, threads=args.threads)
    rows, results = [], {}
    worst = "pass"
    for f in hz.SWEEP_FUNCTIONALS:
        fit = hz.berry_esseen_fit(spec, f, args.p, grid, replicas, seed=args.seed,
                                  sweep=sweep, check_moments=(f == hz.SWEEP_FUNCTIONALS[0]))
        results[f] = {"verdict": fit.verdict, "tau_banded": fit.tau_banded,
                      "ks": list(fit.ks_values)}
        for n, ks, sc in zip(fit.n_grid, fit.ks_values, fit.scaled):
            rows.append([f, n, ks, sc, fit.verdict])
        if fit.verdict == "fail":
            worst = "fail"
    return ["functional", "n", "ks", "scaled", "verdict"], rows, results, worst


def _cmd_asip_proxy(spec, args):
    rep = hz.asip_proxy(spec, args.n, args.replicas, seed=args.seed, eps=args.eps)
    rows = [["envelope", rep.envelope_fraction, rep.eps, rep.n]]
    for k, ks in rep.block_ks:
        rows.append([f"block@{k}", ks, rep.eps, rep.n])
    ok = rep.envelope_fraction >= 0.95
    results = {"envelope_fraction": rep.envelope_fraction,
               "quantile_99": rep.envelope_quantile_99,
               "s_used": rep.s_used, "word_len": rep.word_len,
               "exact_fraction": rep.exact_fraction, "tag": rep.tag}
    return ["statistic", "value", "eps", "n"], rows, results, "pass" if ok else "fail"


def _cmd_deviation(spec, args):
    rep = hz.deviation_tail_sums(spec, args.alpha, args.p, args.eps, args.n,
                                 args.replicas, seed=args.seed,
                                 record_every=max(args.n // 64, 1))
    rows = [[n, pr, ps] for n, pr, ps in zip(rep.ns, rep.probabilities, rep.partial_sums)]
    results = {"final_probability": rep.probabilities[-1],
               "final_partial_sum": rep.partial_sums[-1],
               "floor": rep.floor, "word_len": rep.word_len, "verdict": rep.verdict}
    return ["n", "probability", "partial_sum"], rows, results, rep.verdict


def _cmd_regularity(spec, args):
    p, samples, tol = args.p, args.replicas, args.tol
    small = est.invariant_regularity(spec, p, samples, tol, seed=args.seed)
    big = est.invariant_regularity(spec, p, 2 * samples, tol,
                                   seed=rngmod.child_seed(args.seed, Purpose.DOUBLED_STAGE))
    ok = small.agrees_with(big)
    rows = [[small.method, small.value, small.std_error, small.replicas, f"tol={tol}"],
            [big.method, big.value, big.std_error, big.replicas, f"tol={tol}"]]
    results = {"value": small.value, "doubled": big.value, "stable": ok}
    return (["method", "value", "std_error", "replicas", "params"], rows,
            results, "pass" if ok else "fail")


def _cmd_aperiodicity(spec, args):
    rep = est.aperiodicity_report(spec, max_word_len=args.n)
    rows = [["".join(map(str, w)) or "-", lk]
            for w, lk in zip(rep.words, rep.log_radii)]
    results = {"verdict": rep.verdict, "words": len(rep.words),
               "incommensurate_pairs": len(rep.incommensurate_pairs)}
    return ["word", "log_kappa"], rows, results, "complete"


def _cmd_cone_demo(spec, args):
    cone = _parse_cone(args.cone)
    rng = rngmod.derived_stream(args.seed, Purpose.CONE_DEMO)
    rows, results = [], {}
    checks_ok = True
    if cone.kind == "orthant":
        d = cone.ambient_dim
        worst_dist = 0.0
        worst_m = 0.0
        for _ in range(200):
            x = sample_point(d, rng).coords
            y = sample_point(d, rng).coords
            worst_dist = max(worst_dist, abs(cone.distance(x, y) - hilbert_distance(x, y)))
            worst_m = max(worst_m, abs(cone.m(x, y, method="bisection")
                                       - cone.m(x, y, method="closed")))
        g = rng.uniform(0.2, 2.0, (d, d))
        ratio = cone.contraction_estimate(g, 2000, seed=args.seed) / contraction_coefficient(g)
        rows += [["distance-vs-simplex", worst_dist], ["m-bisect-vs-closed", worst_m],
                 ["contraction-ratio", ratio]]
        checks_ok = worst_dist <= 1e-12 and worst_m <= 1e-8 and ratio >= 0.99
        results = {"distance_gap": worst_dist, "m_gap": worst_m, "contraction_ratio": ratio}
    elif cone.kind == "lorentz":
        q, _ = np.linalg.qr(rng.standard_normal((cone.n, cone.n)))
        g = np.zeros((cone.ambient_dim, cone.ambient_dim))
        g[:-1, :-1] = 0.5 * q
        g[-1, -1] = 1.0
        cone.certify_map(g, seed=args.seed)
        x = cone.sample_slice(rng, boundary=True)
        y = cone.sample_slice(rng, boundary=False)
        boundary_dist = cone.distance(x, y)
        c_est = cone.contraction_estimate(g, 1000, seed=args.seed)
        m_self = cone.m(cone.x0, cone.x0)
        rows += [["boundary-interior-distance", boundary_dist],
                 ["contraction-estimate", c_est], ["m-self", m_self]]
        checks_ok = abs(boundary_dist - 1.0) <= 1e-12 and c_est < 1 \
            and abs(m_self - 1.0) <= 1e-8
        results = {"boundary_distance": boundary_dist, "contraction": c_est}
    else:
        n = cone.n
        a = rng.standard_normal((n, n)) + 2 * np.eye(n)
        g = psd_map_congruence(a)
        cone.certify_map(g, seed=args.seed)
        x = rng.standard_normal((n, n))
        x = x @ x.T + 0.5 * np.eye(n)
        m_val = cone.m(sym_to_coords(x), sym_to_coords(np.eye(n)))
        lam_min = float(np.linalg.eigvalsh(x)[0])
        r0 = np.eye(n)
        s0 = np.eye(n) + 0.1 * np.ones((n, n))
        rank_one = psd_map_rank_one(r0, s0)
        c_r1 = cone.contraction_estimate(rank_one, 500, seed=args.seed)
        rows += [["m-vs-lambda-min", abs(m_val - lam_min)],
                 ["rank-one-contraction", c_r1]]
        checks_ok = abs(m_val - lam_min) <= 1e-10 and c_r1 <= 1e-9
        results = {"m_gap": abs(m_val - lam_min), "rank_one_contraction": c_r1}
    return ["check", "value"], rows, results, "pass" if checks_ok else "fail"


def _cmd_fixtures(spec, args):
    replicas = args.replicas
    rep_a = hz.fixture_a_report(replicas=replicas, seed=args.seed)
    n_b = 3
    frac, se = hz.fixture_b_zero_fraction(
        n_b, replicas, seed=rngmod.child_seed(args.seed, Purpose.FIXTURE_B_STAGE))
    exact = hz.fixture_b_exact_zero_probability(n_b)
    rows = []
    for i, n in enumerate(rep_a.n_values):
        rows.append(["A", n, "lambda_norm", rep_a.lambda_norm[i][0], rep_a.lambda_norm[i][1]])
        rows.append(["A", n, "v_mean", rep_a.v_mean[i], 0.0])
        rows.append(["A", n, "v_kurtosis", rep_a.v_excess_kurtosis[i], 0.0])
    rows.append(["B", n_b, "zero_fraction", frac, se])
    rows.append(["B", n_b, "zero_exact", exact, 0.0])
    ok = rep_a.heavy_tail_flag and rep_a.lambda_stable and abs(frac - exact) <= 3 * se
    results = {"fixture_a_heavy": rep_a.heavy_tail_flag,
               "fixture_a_lambda_stable": rep_a.lambda_stable,
               "fixture_b_fraction": frac, "fixture_b_exact": exact}
    return (["fixture", "n", "statistic", "value", "std_error"], rows,
            results, "pass" if ok else "fail")


# flag -> (argparse type, help)
_FLAGS = {
    "spec": (str, "measure spec JSON (built-in reference measure when omitted)"),
    "seed": (int, None),
    "n": (int, None),
    "n-grid": (_parse_grid, "comma-separated steps"),
    "replicas": (int, None),
    "p": (float, None),
    "cone": (str, "orthant:d | lorentz:n | psd:n"),
    "tol": (float, None),
    "threads": (int, "worker processes for the replica sweep; results do not depend on it"),
    "alpha": (float, None),
    "eps": (float, None),
    "out": (str, "output directory"),
}

# command -> (handler, the flags it reads with their defaults); every
# command also takes --out
COMMANDS = {
    "validate-spec": (_cmd_validate_spec, {"spec": None}),
    "detect-contraction": (_cmd_detect_contraction,
                           {"spec": None, "seed": 0, "n": 8, "replicas": 512}),
    "lyapunov": (_cmd_lyapunov, {"spec": None, "seed": 0, "n": 512, "replicas": 4096}),
    "invariant-sample": (_cmd_invariant_sample, {"spec": None, "seed": 0, "tol": 1e-8}),
    "coupling-decay": (_cmd_coupling_decay,
                       {"spec": None, "seed": 0, "n-grid": tuple(range(1, 41)),
                        "replicas": 4096, "p": 1.0}),
    "variance": (_cmd_variance, {"spec": None, "seed": 0, "n": 256, "replicas": 4096}),
    "normality": (_cmd_normality, {"spec": None, "seed": 0, "n": 1024,
                                   "replicas": 20000, "threads": 1}),
    "berry-esseen": (_cmd_berry_esseen,
                     {"spec": None, "seed": 0, "n-grid": (64, 256, 1024, 4096),
                      "replicas": 20000, "p": 3.0, "threads": 1}),
    "asip-proxy": (_cmd_asip_proxy, {"spec": None, "seed": 0, "n": 2 ** 16,
                                     "replicas": 1000, "eps": 0.2}),
    "deviation": (_cmd_deviation, {"spec": None, "seed": 0, "n": 512, "replicas": 4096,
                                   "alpha": 1.0, "p": 2.0, "eps": 0.5}),
    "regularity": (_cmd_regularity, {"spec": None, "seed": 0, "replicas": 4096,
                                     "p": 2.0, "tol": 1e-8}),
    "aperiodicity": (_cmd_aperiodicity, {"spec": None, "n": 4}),
    "cone-demo": (_cmd_cone_demo, {"seed": 0, "cone": "orthant:3"}),
    "fixtures": (_cmd_fixtures, {"seed": 0, "replicas": 20000}),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="conewalk",
                     description="Random products of positive matrices: "
                                 "estimators and limit-theorem verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in COMMANDS.items():
        # no prefix matching: --n must not silently become --n-grid
        p = sub.add_parser(name, allow_abbrev=False)
        for flag, default in {**defaults, "out": "out"}.items():
            kind, help_text = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, default=default, help=help_text)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = {k: v for k, v in vars(args).items() if k != "command"}
        _positive(config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler, flags = COMMANDS[args.command]
        spec = _load_spec(args) if "spec" in flags else None
        header, rows, results, verdict = handler(spec, args)
        _write_csv(out / f"{args.command}.csv", header, rows)
        _write_summary(out, args.command, config, results, verdict)
        print(f"{args.command}: {verdict}  ({out / (args.command + '.csv')})")
        return 2 if verdict == "fail" else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
