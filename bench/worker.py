"""One fresh workload process of the benchmark (started by ``run.py``).

Imports the library, builds or loads the specs (that is the set-up time,
measured from the parent's spawn timestamp), then runs passes of one
workload at one seed until its time budget is spent.  Times are net of
hypervisor steal: on a shared virtual machine the host can take the
CPUs away for a large share of a pass, which says nothing about the
code, so the steal accrued meanwhile is subtracted, divided by the
number of threads the workload keeps busy.  With ``--trace 1``
it alternates untraced and traced passes, so the tracing overhead is
measured inside one process.  The report is one JSON object on the last
line of standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_specs() -> dict:
    """The measures the workloads run on, built or loaded from JSON."""
    import conewalk.harness as hz
    from conewalk.measures import MeasureSpec

    return {"reference": hz.reference_spec(),
            "lognormal-d8": MeasureSpec.load(HERE / "lognormal_d8.json")}


def steal_s() -> float:
    """Seconds the hypervisor ran something else on this machine's CPUs.

    Summed over all CPUs since boot, from the ``steal`` column of
    ``/proc/stat``; 0 where the kernel does not report it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spawned-steal", type=float, required=True)
    ap.add_argument("--spans-out", default=None)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)

    import numpy as np
    import scipy

    from spans import Recorder
    from workloads import SIZES, WORKLOADS, Outcome

    specs = load_specs()
    pinned = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    setup_s = time.time() - args.spawned_at - (steal_s() - args.spawned_steal)

    fn = WORKLOADS[args.workload]
    size = SIZES[args.workload][args.size]
    refs = pinned["references"][args.workload] if args.size == "full" else None
    pins = pinned["pins"]
    recorder = Recorder() if args.trace else None

    def one_pass(traced: bool) -> dict:
        out = Outcome(refs)
        if traced:
            recorder.reset()
            recorder.install()
        steal0 = steal_s()
        t0 = time.perf_counter()
        try:
            if traced:
                recorder.run(fn, out, specs, args.seed, size, pins)
            else:
                fn(out, specs, args.seed, size, pins)
        except Exception as exc:  # a call that raises is a failed check
            out.check(f"raised.{out.stage}", False, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        steal = steal_s() - steal0
        rel_var = out.rel_var() if out.rel_var_terms else None
        rec = {"traced": traced, "wall_s": elapsed - steal / out.threads,
               "elapsed_s": elapsed, "steal_s": steal, "checks": out.checks,
               "estimates": out.estimates,
               "rel_var": rel_var if rel_var is None or math.isfinite(rel_var) else None}
        if traced:
            recorder.uninstall()
            self_s, incl_s = recorder.layer_times()
            rec.update(self_s=self_s, incl_s=incl_s, counts=dict(recorder.counts),
                       absent=list(recorder.absent),
                       uncounted=sorted(recorder.uncounted))
        return rec

    kinds = (False, True) if args.trace else (False,)
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in kinds:
            passes.append(one_pass(traced))
        rounds += 1
        measured = time.perf_counter() - start
        if measured + measured / rounds > args.budget:
            break

    if recorder is not None and args.spans_out:
        recorder.dump(args.spans_out)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "measured_s": measured,
                      "peak_rss_mb": peak_kib / 1024.0,
                      "numpy": np.__version__, "scipy": scipy.__version__,
                      "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
