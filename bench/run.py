"""conewalk benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload clt-sweep --seed 1 --seconds 24 --trace 0

The run starts ``WORKERS`` fresh workload processes one after another
(``worker.py``), each with BLAS and OpenMP pinned to one thread, and
shares ``--seconds`` of measuring out between them.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of the traced passes.  The line
before it records the machine, the environment and the details behind
the numbers; the same report is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import steal_s

HERE = Path(__file__).resolve().parent
WORKERS = 3
DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("clt-sweep", "variance-triangulation", "invariant-d8", "narrow-long")

# (metric, layer, count): the layer's inclusive time per unit of work
PER_STEP = (
    ("measures.ns_per_draw", "measures", "measures.draws"),
    ("estimators.forward.ns_per_matrix_step", "estimators.forward",
     "estimators.forward.matrix_steps"),
    ("estimators.psi.ns_per_vector_step", "estimators.psi",
     "estimators.psi.vector_steps"),
    ("walk.backward.ns_per_matrix_step", "walk.backward",
     "walk.backward.matrix_steps"),
    ("walk.scalar.ns_per_matrix_step", "walk.scalar", "walk.scalar.matrix_steps"),
)
SELF_TIMES = ("measures", "rng", "estimators.forward", "estimators.log_kappa",
              "estimators.psi", "estimators.route.direct", "estimators.route.series",
              "estimators.route.martingale", "walk.backward", "walk.contraction",
              "walk.scalar", "simplex.contraction_coefficient", "harness.sweep",
              "harness.fit", "harness.ks", "harness.asip", "root")
COUNTS = ("measures.draws", "rng.streams", "estimators.forward.matrix_steps",
          "estimators.psi.vector_steps", "walk.backward.matrix_steps",
          "walk.backward.steps_max", "walk.scalar.matrix_steps",
          "simplex.contraction_coefficient.calls", "simplex.point_validations")
ROUTES = ("direct", "series", "martingale")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the benchmark's own smoke check")
    return ap.parse_args(argv)


def _machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def _src_lines(root: Path) -> dict:
    return {p.stem: sum(1 for _ in p.open(encoding="utf-8"))
            for p in sorted((root / "src" / "conewalk").glob("*.py"))}


def _run_workers(args, root: Path, out_dir: Path) -> list[dict]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    deadline = time.monotonic() + DEADLINE_S
    reports = []
    left = args.seconds
    for k in range(WORKERS):
        # a worker stops before a pass that would overrun its share, so the
        # unused part of each share carries over to the next worker
        budget = left / (WORKERS - k)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--budget", repr(budget),
               "--trace", str(args.trace), "--size", args.size]
        if args.trace:
            cmd += ["--spans-out",
                    str(out_dir / f"spans-{args.workload}-seed{args.seed}-w{k}.json")]
        cmd += ["--spawned-at", repr(time.time()), "--spawned-steal", repr(steal_s())]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {k} exited with {proc.returncode}:\n"
                               + proc.stderr[-4000:])
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        left -= reports[-1]["measured_s"]
    return reports


def _checks(passes: list[dict]) -> list[tuple[str, bool, str]]:
    """Every pass's own checks, plus exact repetition across passes.

    All passes of a run use one seed, so every estimate must repeat bit
    for bit and every work count exactly, in every process.
    """
    checks = [tuple(c) for p in passes for c in p["checks"]]
    first = passes[0]["estimates"]
    for i, p in enumerate(passes[1:], 1):
        checks.append((f"rerun.{i}.estimates_identical", p["estimates"] == first,
                       "" if p["estimates"] == first else "estimates differ"))
    traced = [p for p in passes if p["traced"]]
    for i, p in enumerate(traced[1:], 1):
        same = p["counts"] == traced[0]["counts"]
        checks.append((f"rerun.{i}.counts_identical", same,
                       "" if same else "work counts differ"))
    return checks


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _end_to_end(reports, passes) -> dict:
    plain = [p for p in passes if not p["traced"]]
    return {
        "wall_s": (_median([p["wall_s"] for p in plain]), "s"),
        "setup_s": (_median([r["setup_s"] for r in reports]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in reports]), "MiB"),
        "mc_inefficiency": (_median([p["wall_s"] * p["rel_var"] for p in plain
                                     if p["rel_var"] is not None]), "s"),
    }


def _per_layer(passes, fail_frac: float) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    counts = traced[0]["counts"]
    estimates = traced[0]["estimates"]

    def layer_median(key, layer):
        return _median([p[key].get(layer, 0.0) for p in traced])

    m = {}
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "count")
    for layer in SELF_TIMES:
        m[f"{layer}.self_s"] = (layer_median("self_s", layer), "s")
    for name, layer, unit_count in PER_STEP:
        n = counts.get(unit_count, 0)
        m[name] = (layer_median("incl_s", layer) * 1e9 / n if n else 0.0, "ns")
    for route in ROUTES:
        m[f"estimators.route.{route}.s"] = (layer_median("incl_s", f"estimators.route.{route}"), "s")
        m[f"estimators.route.{route}.se"] = (estimates.get(f"s2.{route}.se", 0.0), "1")
    m["estimators.lag"] = (estimates.get("lag", 0.0), "steps")
    # spans see elapsed time, steal included: the base their self times add to
    m["tracing.traced_wall_s"] = (_median([p["elapsed_s"] for p in traced]), "s")
    m["tracing.overhead_s"] = (_median([p["wall_s"] for p in traced])
                               - _median([p["wall_s"] for p in plain]), "s")
    m["check_fail_frac"] = (fail_frac, "ratio")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "conewalk" / "__init__.py").is_file():
        print("error: src/conewalk not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        reports = _run_workers(args, root, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = [p for r in reports for p in r["passes"]]
    checks = _checks(passes)
    failed = [c for c in checks if not c[1]]
    fail_frac = len(failed) / len(checks)
    metrics = (_per_layer(passes, fail_frac) if args.trace
               else _end_to_end(reports, passes))
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "workers": WORKERS,
        "passes": {"untraced": sum(not p["traced"] for p in passes),
                   "traced": sum(p["traced"] for p in passes)},
        "machine": _machine(),
        "python": sys.version.split()[0],
        "numpy": reports[0]["numpy"], "scipy": reports[0]["scipy"],
        "thread_env": {name: "1" for name in THREAD_ENV},
        "src_lines": _src_lines(root),
        "counts": next((p["counts"] for p in passes if p["traced"]), None),
        "absent_targets": next((p["absent"] for p in passes if p["traced"]), []),
        "uncounted_targets": next((p["uncounted"] for p in passes if p["traced"]), []),
        "failed_checks": [list(c) for c in failed],
        "walls_s": [p["wall_s"] for p in passes if not p["traced"]],
        "elapsed_s": [p["elapsed_s"] for p in passes if not p["traced"]],
        "steal_s": [p["steal_s"] for p in passes if not p["traced"]],
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result, "passes": passes}, indent=1),
        encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
