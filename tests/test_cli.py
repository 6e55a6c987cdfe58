import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewalk import harness as hz
from conewalk.cli import run
from conewalk.measures import MeasureSpec
from conewalk.posmat import spectral_radius


@pytest.fixture
def single_atom_path(tmp_path):
    spec = MeasureSpec.single_atom([[2.0, 1.0], [1.0, 1.0]])
    path = tmp_path / "single.json"
    spec.save(path)
    return path


@pytest.fixture
def bad_spec_path(tmp_path):
    doc = {"kind": "atomic", "d": 2, "weights": [1.0],
           "atoms": [[1.0, 0.0, 1.0, 0.0]], "transpose_view": False}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def _no_sweep(*args, **kwargs):
    raise AssertionError("swept before checking the flags")


def _summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


class TestValidateSpec:
    def test_valid_spec_exits_zero(self, single_atom_path, tmp_path):
        assert run(["validate-spec", "--spec", str(single_atom_path),
                    "--out", str(tmp_path / "o")]) == 0

    def test_zero_column_names_offending_atom(self, bad_spec_path, tmp_path, capsys):
        code = run(["validate-spec", "--spec", str(bad_spec_path),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "atom 0" in err and "column" in err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["validate-spec", "--spec", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "atomic",')
        assert run(["validate-spec", "--spec", str(path),
                    "--out", str(tmp_path / "o")]) == 1
        assert "line" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"kind": "atomic", "d": 2, "weights": [1.0],
                                    "atoms": [[1.0, 1.0, 1.0, 1.0]],
                                    "transpose_view": False, "comment": "hi"}))
        assert run(["validate-spec", "--spec", str(path),
                    "--out", str(tmp_path / "o")]) == 1
        assert "unknown spec fields" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"kind": "atomic", "d": 2, "weights": [float("nan"), 1.0],
          "atoms": [[1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0]]}, "weights"),
        ({"kind": "parametric", "d": 2, "family": "lognormal",
          "params": {"mu": "0", "sigma": 1.0}}, "param 'mu'"),
        ({"kind": "parametric", "d": 2, "family": "lognormal",
          "params": {"mu": float("inf"), "sigma": 1.0}}, "param 'mu'"),
        ({"kind": "atomic", "d": 2, "weights": [None], "atoms": [[1.0] * 4]},
         "weights entry 0"),
    ], ids=["nan-weight", "string-mu", "inf-mu", "null-weight"])
    def test_malformed_value_names_the_field(self, tmp_path, capsys, doc, field):
        # json writes and reads NaN and Infinity
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run(["validate-spec", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: spec file {path}: {field}")


class TestArgumentHandling:
    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["lyapunov", "--bogus", "1"])
        assert exc.value.code == 1

    def test_flags_a_command_does_not_read_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["lyapunov", "--cone", "psd:3", "--tol", "5", "--threads", "7"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--cone" in err and "--tol" in err and "--threads" in err

    def test_no_prefix_matching(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["coupling-decay", "--n", "5"])  # not --n-grid
        assert exc.value.code == 1

    def test_summary_records_the_values_used(self, tmp_path):
        out = tmp_path / "o"
        assert run(["lyapunov", "--n", "8", "--out", str(out)]) == 0
        assert _summary(out)["config"] == {"spec": None, "seed": 0, "n": 8,
                                           "replicas": 4096, "out": str(out)}
        assert run(["coupling-decay", "--replicas", "64", "--out", str(out)]) == 0
        config = _summary(out)["config"]
        assert config["n_grid"] == list(range(1, 41)) and config["p"] == 1.0

    def test_empty_grid_exits_one(self, tmp_path, capsys):
        assert run(["coupling-decay", "--n-grid", ",", "--out", str(tmp_path)]) == 1
        assert "n_grid" in capsys.readouterr().err

    def test_repeated_grid_step_exits_one(self, tmp_path, capsys):
        assert run(["coupling-decay", "--n-grid", "4,4", "--out", str(tmp_path)]) == 1
        assert "error: n_grid repeats step 4" in capsys.readouterr().err

    def test_asip_proxy_rejects_tiny_n(self, tmp_path, capsys):
        assert run(["asip-proxy", "--n", "2", "--out", str(tmp_path)]) == 1
        assert "n must" in capsys.readouterr().err

    def test_nonpositive_replicas_rejected(self, tmp_path, capsys):
        assert run(["lyapunov", "--replicas", "-5", "--out", str(tmp_path)]) == 1
        assert "--replicas" in capsys.readouterr().err

    def test_single_replica_rejected(self, tmp_path, capsys):
        # one replica has no standard error
        assert run(["lyapunov", "--replicas", "1", "--out", str(tmp_path)]) == 1
        assert "replicas must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["asip-proxy", "deviation"])
    def test_nonpositive_eps_rejected(self, tmp_path, capsys, command):
        assert run([command, "--eps", "-1", "--out", str(tmp_path / "o")]) == 1
        assert "--eps must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["asip-proxy", "deviation"])
    def test_non_finite_eps_rejected(self, tmp_path, capsys, monkeypatch, command, value):
        # an infinite eps used to hold every replica inside the envelope
        monkeypatch.setattr(hz, "functional_sweep", _no_sweep)
        assert run([command, "--eps", value, "--out", str(tmp_path / "o")]) == 1
        assert "--eps must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_cone_string(self, tmp_path, capsys):
        assert run(["cone-demo", "--cone", "torus:7", "--out", str(tmp_path)]) == 1


def _run_quietly(argv):
    """``run(argv)``'s exit status, a usage error's included, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _paths(node, prefix=()):
    """The path of ``node`` and of everything inside it, as key tuples."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_VALID_DOCS = [
    {"kind": "atomic", "d": 2, "weights": [0.3, 0.7], "transpose_view": False,
     "atoms": [[2.0, 1.0, 1.0, 1.0], [1.0, 3.0, 0.5, 1.0]]},
    {"kind": "parametric", "d": 2, "family": "lognormal", "transpose_view": False,
     "params": {"mu": 0.0, "sigma": 1.0}},
]
# one value of each JSON type, and numbers at the edges; "1e400" is written
# as the bare literal, which reads as inf
_ODD_VALUES = [None, "x", True, [], [1.0], {}, {"a": 1.0}, float("nan"), float("inf"),
               -float("inf"), "1e400", -1, 2.5, 0]


@st.composite
def _mutated_docs(draw):
    """A valid spec document with one value replaced, one key or entry
    dropped, or one key added, as JSON text."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_DOCS)))
    paths = list(_paths(doc))
    how = draw(st.sampled_from(["replace", "drop", "add"]))
    value = draw(st.sampled_from(_ODD_VALUES))
    if how == "replace":
        path = draw(st.sampled_from(paths))
        if path:
            _at(doc, path[:-1])[path[-1]] = value
        else:
            doc = value
    elif how == "drop":
        path = draw(st.sampled_from(paths[1:]))
        del _at(doc, path[:-1])[path[-1]]
    else:
        node = _at(doc, draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p), dict)])))
        node[draw(st.sampled_from(["extra", "family", "weights"]))] = value
    return json.dumps(doc).replace('"1e400"', "1e400")


# mostly valid values, so that most runs get past the flags
_small_counts = st.one_of(st.integers(2, 6), st.integers(-1, 6),
                          st.sampled_from(["", "2.5", "x", "1e3"])).map(str)
_small_grids = st.one_of(st.lists(st.integers(1, 6), min_size=1, max_size=4),
                         st.lists(st.integers(-1, 6), max_size=4),
                         st.sampled_from([",", "4,,8", "2.5", "x,4"])).map(
    lambda g: g if isinstance(g, str) else ",".join(map(str, g)))
# commands with the count flags they read; each is given every one of its flags
_COUNT_COMMANDS = {"lyapunov": ("n", "replicas"), "coupling-decay": ("n-grid", "replicas"),
                   "normality": ("n", "replicas", "threads"),
                   "berry-esseen": ("n-grid", "replicas", "threads")}


class TestInputEdgeFuzz:
    """Malformed input ends in exit 1 with one ``error:`` line, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(text=_mutated_docs())
    def test_validate_spec(self, tmp_path_factory, text):
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "spec.json").write_text(text)
        code, err = _run_quietly(["validate-spec", "--spec", str(tmp / "spec.json"),
                                  "--out", str(tmp / "o")])
        assert code in (0, 1)
        assert err.count("error:") == (code == 1)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), command=st.sampled_from(sorted(_COUNT_COMMANDS)))
    def test_count_flags(self, tmp_path_factory, data, command):
        argv = [command, "--out", str(tmp_path_factory.mktemp("fuzz"))]
        for flag in _COUNT_COMMANDS[command]:
            argv += [f"--{flag}", data.draw(_small_grids if flag == "n-grid" else _small_counts)]
        code, err = _run_quietly(argv)
        assert code in (0, 1, 2)  # 2: a verdict that fails at these sizes
        assert err.count("error:") == (code == 1)


class TestLyapunovCommand:
    def test_single_atom_value_in_summary(self, single_atom_path, tmp_path):
        out = tmp_path / "o"
        assert run(["lyapunov", "--spec", str(single_atom_path), "--n", "300",
                    "--replicas", "4", "--out", str(out), "--seed", "3"]) == 0
        doc = _summary(out)
        expected = float(np.log(spectral_radius([[2.0, 1.0], [1.0, 1.0]])))
        assert abs(doc["results"]["value"] - expected) <= 1e-2
        assert doc["config"]["seed"] == 3

    def test_csv_has_header_and_17_digit_floats(self, single_atom_path, tmp_path):
        out = tmp_path / "o"
        run(["lyapunov", "--spec", str(single_atom_path), "--n", "50",
             "--replicas", "4", "--out", str(out)])
        lines = (out / "lyapunov.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "method,value,std_error,replicas,params"
        value = lines[1].split(",")[1]
        assert float(value) == float(f"{float(value):.17g}")


class TestIdempotence:
    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["coupling-decay", "--n-grid", "1,2,4,8",
                        "--replicas", "500", "--seed", "9",
                        "--out", str(out)]) == 0
        assert (a / "coupling-decay.csv").read_bytes() == \
            (b / "coupling-decay.csv").read_bytes()
        da, db = _summary(a), _summary(b)
        for doc in (da, db):
            doc.pop("timestamp")
            doc["config"].pop("out")  # the only legitimately differing field
        assert da == db


class TestVerdictCommands:
    def test_deviation_passes_on_reference(self, tmp_path):
        out = tmp_path / "o"
        assert run(["deviation", "--n", "128", "--replicas", "1000",
                    "--eps", "0.75", "--out", str(out)]) == 0
        assert _summary(out)["verdict"] == "pass"

    @pytest.mark.parametrize("spec_doc, word_len", [
        (None, 8),
        ({"kind": "parametric", "d": 2, "family": "lognormal", "transpose_view": False,
          "params": {"mu": 0.0, "sigma": 0.5}}, 1),
    ], ids=["reference-words", "parametric-steps"])
    @pytest.mark.parametrize("command", ["asip-proxy", "deviation"])
    def test_summary_says_which_walk_ran(self, tmp_path, command, spec_doc, word_len):
        # L steps per draw for the word walk of an atomic spec with words, 1 for
        # the step-by-step walk
        out, spec_flag = tmp_path / "o", []
        if spec_doc is not None:
            (tmp_path / "spec.json").write_text(json.dumps(spec_doc))
            spec_flag = ["--spec", str(tmp_path / "spec.json")]
        assert run([command, "--n", "100", "--replicas", "64", "--eps", "5",
                    "--out", str(out), *spec_flag]) in (0, 2)
        assert _summary(out)["results"]["word_len"] == word_len

    def test_asip_summary_reports_the_exact_share(self, tmp_path):
        # the share of (word, replica) pairs whose steps were computed goes to
        # summary.json only; the CSV keeps its columns
        out = tmp_path / "o"
        assert run(["asip-proxy", "--n", "4096", "--replicas", "64", "--eps", "5",
                    "--out", str(out)]) in (0, 2)
        assert 0.0 < _summary(out)["results"]["exact_fraction"] < 1.0
        assert (out / "asip-proxy.csv").read_text().splitlines()[0] == "statistic,value,eps,n"

    @pytest.mark.parametrize("grid", ["16", "1"])
    def test_berry_esseen_one_step_exits_one(self, tmp_path, capsys, monkeypatch, grid):
        # Kendall's tau over one step is 0, so a one-step grid used to pass;
        # it is rejected before the sweep, which used to run first
        monkeypatch.setattr(hz, "functional_sweep", _no_sweep)
        assert run(["berry-esseen", "--n-grid", grid, "--replicas", "300",
                    "--out", str(tmp_path / "o")]) == 1
        assert (f"error: n_grid must hold at least two steps for a rate, got [{grid}]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [["normality"], ["berry-esseen", "--n-grid", "2,4"]],
                             ids=["normality", "berry-esseen"])
    def test_one_replica_exits_one_before_the_sweep(self, tmp_path, capsys, monkeypatch,
                                                    argv):
        # berry-esseen used to pass on one replica, and normality to blame s
        monkeypatch.setattr(hz, "functional_sweep", _no_sweep)
        assert run([*argv, "--replicas", "1", "--out", str(tmp_path / "o")]) == 1
        assert "error: replicas must be >= 2, got 1" in capsys.readouterr().err

    def test_berry_esseen_small_run(self, tmp_path):
        out = tmp_path / "o"
        assert run(["berry-esseen", "--n-grid", "16,64,256", "--replicas", "3000",
                    "--out", str(out), "--threads", "2"]) == 0
        doc = _summary(out)
        assert set(doc["results"]) == {"sigma", "norm", "v", "kappa", "inf_coeff"}

    def test_normality_reports_all_functionals(self, tmp_path):
        out = tmp_path / "o"
        assert run(["normality", "--n", "64", "--replicas", "2000",
                    "--out", str(out)]) == 0
        rows = (out / "normality.csv").read_bytes().decode().strip().split("\r\n")
        assert len(rows) == 6  # header + five functionals

    def test_variance_routes_agree(self, tmp_path):
        out = tmp_path / "o"
        assert run(["variance", "--n", "128", "--replicas", "2000",
                    "--out", str(out)]) == 0
        assert _summary(out)["results"]["routes_agree"] is True

    def test_variance_widens_the_lag_window_once(self, tmp_path, monkeypatch):
        # criterion 6's rule: a reported tail bound above the 1% target widens
        # the window by the geometric amount it needs, and the series reruns
        from conewalk import estimators as est

        windows = []
        series = est.estimate_variance_series

        def recording_series(spec, n_lag_max, *args, **kwargs):
            windows.append(n_lag_max)
            return series(spec, n_lag_max, *args, **kwargs)

        monkeypatch.setattr(est, "estimate_variance_series", recording_series)
        out = tmp_path / "o"
        assert run(["variance", "--n", "16", "--replicas", "256", "--out", str(out)]) == 0
        results = _summary(out)["results"]
        assert len(windows) == 2 and windows[0] < windows[1] == results["lag"] + 1
        assert results["tail_bound"] <= results["target"]
        rows = (out / "variance.csv").read_text().splitlines()
        assert any(row.startswith("series,") and f"lag={results['lag']};" in row
                   for row in rows)

    def test_invariant_sample(self, single_atom_path, tmp_path):
        out = tmp_path / "o"
        assert run(["invariant-sample", "--spec", str(single_atom_path),
                    "--tol", "1e-9", "--out", str(out)]) == 0
        doc = _summary(out)
        assert doc["results"]["certificate"] <= 1e-9

    def test_detect_contraction_not_found_is_complete(self, tmp_path):
        spec = MeasureSpec.atomic([[[0.0, 1.0], [1.0, 0.0]],
                                   [[1.0, 0.0], [0.0, 1.0]]], [0.5, 0.5])
        path = tmp_path / "perm.json"
        spec.save(path)
        out = tmp_path / "o"
        assert run(["detect-contraction", "--spec", str(path), "--n", "3",
                    "--replicas", "64", "--out", str(out)]) == 0
        assert _summary(out)["results"]["found"] is False

    def test_aperiodicity_single_atom(self, single_atom_path, tmp_path):
        out = tmp_path / "o"
        assert run(["aperiodicity", "--spec", str(single_atom_path), "--n", "3",
                    "--out", str(out)]) == 0
        assert _summary(out)["results"]["verdict"] == "possibly arithmetic"

    def test_aperiodicity_refuses_too_many_words(self, tmp_path, capsys):
        # 3**1 + ... + 3**8 words of the reference spec, refused before enumeration
        assert run(["aperiodicity", "--n", "8", "--out", str(tmp_path / "o")]) == 1
        assert "max_word_len = 8 enumerates more than" in capsys.readouterr().err

    def test_regularity(self, tmp_path):
        out = tmp_path / "o"
        assert run(["regularity", "--replicas", "500", "--tol", "1e-6",
                    "--out", str(out)]) == 0

    def test_fixtures_command(self, tmp_path):
        out = tmp_path / "o"
        assert run(["fixtures", "--replicas", "4000", "--out", str(out)]) == 0
        doc = _summary(out)
        assert doc["results"]["fixture_a_heavy"] is True
        assert doc["verdict"] == "pass"

    @pytest.mark.parametrize("cone", ["orthant:3", "lorentz:2", "psd:2"])
    def test_cone_demo_passes(self, cone, tmp_path):
        out = tmp_path / cone.replace(":", "_")
        assert run(["cone-demo", "--cone", cone, "--out", str(out)]) == 0
