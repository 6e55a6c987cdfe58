"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest bench/test_smoke.py -q

Runs from the repository root; it checks the benchmark's output contract,
the span accounting and that the reference checks can fail, not the
library's verdicts (tiny sizes are too small for some of those).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from spans import Recorder, Target  # noqa: E402
from worker import load_specs  # noqa: E402
from workloads import SIZES, WORKLOADS, Outcome  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINS = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["pins"]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_emitted_with_unit_and_spans_fit_wall(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        got = result["metrics"]
        assert set(got) == set(expected)
        for name, unit in expected.items():
            assert got[name]["unit"] == unit, name
            value = got[name]["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), name

    report = json.loads((HERE / "out" / f"{workload}-seed3-trace1.json").read_text())
    traced = [p for p in report["passes"] if p["traced"]]
    assert traced
    for p in traced:
        # spans see elapsed time; wall_s is that net of hypervisor steal
        assert sum(p["self_s"].values()) <= p["elapsed_s"]
        assert p["counts"] == traced[0]["counts"]


def test_wrong_reference_is_a_failed_check():
    specs = load_specs()
    size = SIZES["narrow-long"]["tiny"]
    right = Outcome(None)
    WORKLOADS["narrow-long"](right, specs, 3, size, PINS)
    value = right.estimates["envelope_fraction"]

    good = Outcome({"envelope_fraction": {"value": value, "se": 0.0}})
    WORKLOADS["narrow-long"](good, specs, 3, size, PINS)
    assert ("reference.envelope_fraction", True) in [c[:2] for c in good.checks]

    wrong = Outcome({"envelope_fraction": {"value": value - 0.5, "se": 0.0}})
    WORKLOADS["narrow-long"](wrong, specs, 3, size, PINS)
    assert ("reference.envelope_fraction", False) in [c[:2] for c in wrong.checks]


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("narrow-long", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_counts_exact_under_threads():
    recorder = Recorder(targets=())
    wrapped = recorder._wrap(Target("t", "m", "f", lambda f, a, k, r: {"calls": 1}),
                             lambda: None)
    threads = [threading.Thread(target=lambda: [wrapped() for _ in range(20000)])
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert recorder.counts["calls"] == 80000
    assert len(recorder.spans) == 80000
