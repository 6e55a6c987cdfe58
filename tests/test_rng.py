"""The stream table in ``conewalk.rng``: the only place that derives streams
and seeds, with keys that never collide inside one run."""

import ast
from pathlib import Path

import pytest

import conewalk
from conewalk import rng as rngmod
from conewalk.cli import COMMANDS, run
from conewalk.rng import Purpose

SRC = Path(conewalk.__file__).parent


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _stream_policy_breaches(path: Path) -> list[str]:
    """Calls and expressions in ``path`` that choose streams outside the table."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if path.name != "rng.py":
            if _name(node) in ("SeedSequence", "default_rng"):
                out.append(f"{where}: {_name(node)} outside rng.py")
            if isinstance(node, ast.Call) and _name(node.func) == "Generator":
                out.append(f"{where}: Generator( outside rng.py")
        if isinstance(node, ast.Call) and _name(node.func) in ("derived_stream", "child_seed"):
            purpose = node.args[1] if len(node.args) > 1 else None
            if not (isinstance(purpose, ast.Attribute) and _name(purpose.value) == "Purpose"
                    and purpose.attr in Purpose.__members__):
                out.append(f"{where}: {_name(node.func)} without a Purpose member")
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            for side in (node.left, node.right):
                if any((_name(n) or "").endswith("seed") for n in ast.walk(side)):
                    out.append(f"{where}: seed arithmetic")
    return out


def test_src_derives_streams_only_through_the_table():
    files = sorted(SRC.glob("*.py"))
    assert {"rng.py", "cli.py", "walk.py"} <= {f.name for f in files}
    breaches = [b for f in files for b in _stream_policy_breaches(f)]
    assert breaches == []


def test_harness_steps_no_draws_itself():
    # every forward draw of the harness goes through estimators._forward_blocks
    tree = ast.parse((SRC / "harness.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"_step", "sample_words"}


def test_matmul_runs_only_in_the_step():
    # posmat._step is the one batched multiply; every other product goes through it
    outside, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        step = {id(node) for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and path.name == "posmat.py"
                and func.name == "_step" for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) == "matmul":
                if id(node) in step:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert inside == 1


def test_purpose_values_are_pinned():
    # each value is part of its streams' keys: renumbering a member moves
    # every stream it keys, and a retired value (5, 10, 13, 14) stays retired
    assert {p.name: int(p) for p in Purpose} == {
        "FORWARD": 1, "BACKWARD_BATCH": 2, "BACKWARD_PATH": 3, "CONTRACTION_SEARCH": 4,
        "SERIES_PATHS": 6, "PSI_FIT": 7, "MARTINGALE_PATHS": 8, "MOMENT_DRAWS": 9,
        "CERTIFY_MAP": 11, "CONTRACTION_PAIRS": 12, "CONE_DEMO": 15,
        "DRIFT_PRESWEEP": 16, "COUPLING_STAGE": 17, "SERIES_STAGE": 18, "PSI_STAGE": 19,
        "MARTINGALE_STAGE": 20, "DOUBLED_STAGE": 21, "FIXTURE_B_STAGE": 22,
        "TRANSPOSE_SEARCH": 23, "BLOCK_SEARCH": 24, "SERIES_WIDENED_STAGE": 25,
    }


@pytest.mark.parametrize("source", [
    "rngmod.derived_stream(seed, 0x5E)",
    "rngmod.derived_stream(seed)",
    "rngmod.derived_stream(seed, Purpose.NOT_A_MEMBER)",
    "rngmod.child_seed(seed, 3)",
    "np.random.default_rng(seed)",
    "np.random.Generator(np.random.Philox(1))",
    "f(spec, seed=args.seed + 1)",
    "f(spec, 8 * seed - 2)",
])
def test_guard_catches(source, tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(source + "\n")
    assert _stream_policy_breaches(path)


def test_derived_stream_keys_and_child_seeds():
    draw = [rngmod.derived_stream(7, Purpose.FORWARD, i).random() for i in range(3)]
    assert len(set(draw)) == 3
    assert rngmod.derived_stream(7, Purpose.FORWARD, 0).random() == draw[0]
    # the purpose has its own slot: no replica index aliases another purpose
    replica = int(Purpose.SERIES_PATHS)
    assert rngmod.derived_stream(7, Purpose.BACKWARD_PATH, replica).random() != \
        rngmod.derived_stream(7, Purpose.SERIES_PATHS).random()
    seeds = {rngmod.child_seed(s, p) for s in range(3) for p in Purpose}
    assert len(seeds) == 3 * len(Purpose)
    assert rngmod.child_seed(5, Purpose.SERIES_STAGE) == rngmod.child_seed(5, Purpose.SERIES_STAGE)


# small sizes for one run of every command
CLI_RUNS = [
    ["validate-spec"],
    ["detect-contraction", "--n", "3", "--replicas", "64"],
    ["lyapunov", "--n", "16", "--replicas", "64"],
    ["invariant-sample", "--tol", "1e-6"],
    ["coupling-decay", "--n-grid", "1,2,4", "--replicas", "64"],
    ["variance", "--n", "16", "--replicas", "256"],
    ["normality", "--n", "16", "--replicas", "200"],
    ["berry-esseen", "--n-grid", "4,8", "--replicas", "200"],
    ["asip-proxy", "--n", "64", "--replicas", "100"],
    ["deviation", "--n", "16", "--replicas", "200"],
    ["regularity", "--replicas", "64", "--tol", "1e-4"],
    ["aperiodicity", "--n", "2"],
    ["cone-demo", "--cone", "orthant:3"],
    ["cone-demo", "--cone", "lorentz:2"],
    ["cone-demo", "--cone", "psd:2"],
    ["fixtures", "--replicas", "500"],
]


def test_cli_runs_cover_every_command():
    assert {argv[0] for argv in CLI_RUNS} == set(COMMANDS)


def _run_id(argv):
    return f"{argv[0]}-{argv[2].split(':')[0]}" if argv[0] == "cone-demo" else argv[0]


@pytest.mark.parametrize("argv", CLI_RUNS, ids=_run_id)
def test_one_run_derives_distinct_keys(argv, tmp_path, monkeypatch):
    keys = []
    derive = rngmod.derived_stream

    def recording_derive(seed, *key):
        keys.append((seed, *key))
        return derive(seed, *key)

    monkeypatch.setattr(rngmod, "derived_stream", recording_derive)
    assert run([*argv, "--out", str(tmp_path)]) in (0, 2)
    assert len(set(keys)) == len(keys), sorted(k for k in keys if keys.count(k) > 1)
    assert all(isinstance(k[1], Purpose) for k in keys)
