"""Recompute ``reference.json``: the pinned inputs and reference values.

Run from the repository root (takes several minutes on two cores):

    PYTHONPATH=src python3 bench/calibrate.py [workload ...]

Naming workloads recomputes only their references and keeps the pins.

Pins (inputs the workloads take instead of estimating them):
  lambda, s   top Lyapunov exponent and asymptotic scale of the reference
              measure, from 32768 forward paths: over steps 1024 to 4096
              the log-norm increment has mean 3072*lambda and variance
              3072*s^2, with the start-up term cancelled.

References (what each headline estimate should read): every workload
runs at its full size on ``SEEDS`` calibration seeds that no benchmark
run uses, and the reference is the mean estimate with its standard error
over those seeds.  It is the expectation of the estimator at the
workload's own sizes, finite-step and truncation bias included, so the
benchmark's checks need no bias allowance.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import conewalk.harness as hz

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import load_specs  # noqa: E402
from workloads import SIZES, WORKLOADS, Outcome  # noqa: E402

NOTE = ("Written by bench/calibrate.py. pins: lambda and s of the reference measure "
        "from 32768 forward paths over steps 1024..4096. references: mean and "
        "standard error of each headline estimate over the calibration seeds [start, stop), "
        "at the workload's full size.")
SEEDS = range(10**6, 10**6 + 32)
PIN_SEED = 2**40
PIN_REPLICAS = 32768
PIN_STEPS = (1024, 4096)


def pins() -> dict:
    lo, hi = PIN_STEPS
    sweep = hz.functional_sweep(hz.reference_spec(), PIN_STEPS, PIN_REPLICAS, PIN_SEED,
                                functionals=("norm",), threads=2)
    inc = sweep.samples[("norm", hi)] - sweep.samples[("norm", lo)]
    span = hi - lo
    return {"lambda": float(inc.mean()) / span,
            "s": math.sqrt(float(inc.var(ddof=1)) / span)}


def references(specs, pinned: dict, names) -> dict:
    out = {}
    for name in names:
        fn = WORKLOADS[name]
        runs: dict[str, list[float]] = {}
        for seed in SEEDS:
            outcome = Outcome(None)
            fn(outcome, specs, seed, SIZES[name]["full"], pinned)
            failed = [c for c in outcome.checks if not c[1]]
            if failed:
                print(f"{name} seed {seed}: failed checks {failed}", flush=True)
            for key in outcome.rel_var_terms:
                runs.setdefault(key, []).append(outcome.estimates[key])
        out[name] = {key: {"value": statistics.fmean(vals),
                           "se": statistics.stdev(vals) / math.sqrt(len(vals))}
                     for key, vals in runs.items()}
        print(name, out[name], flush=True)
    return out


def main(names) -> int:
    path = HERE / "reference.json"
    if names:
        doc = json.loads(path.read_text(encoding="utf-8"))
    else:
        names = list(WORKLOADS)
        doc = {"note": NOTE,
               "seeds": [SEEDS.start, SEEDS.stop], "pins": pins(), "references": {}}
        print("pins", doc["pins"], flush=True)
    doc["references"].update(references(load_specs(), doc["pins"], names))
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
