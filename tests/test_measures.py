import json
import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewalk import measures
from conewalk import rng as rngmod
from conewalk.harness import reference_spec
from conewalk.measures import (MeasureSpec, RejectionCapError, block_steps, sample_batch,
                               sample_indices, sample_matrix)
from conewalk.posmat import AllowableMatrix
from conewalk.rng import Purpose


@pytest.fixture
def two_atom_spec():
    return MeasureSpec.atomic([[[2.0, 1.0], [1.0, 1.0]],
                               [[1.0, 1.0], [1.0, 2.0]]], [0.5, 0.5])


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MeasureSpec.atomic([[[1.0, 1.0], [1.0, 1.0]]], [0.5])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            MeasureSpec.atomic([[[1.0, 1.0], [1.0, 1.0]],
                                [[2.0, 1.0], [1.0, 1.0]]], [1.0, 0.0])

    def test_atom_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            MeasureSpec(kind="atomic", d=3, weights=(1.0,),
                        atoms=(AllowableMatrix([[1.0, 1.0], [1.0, 1.0]]),))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            MeasureSpec.parametric("cauchy", 2, a=1.0)

    def test_uniform_params_checked(self):
        with pytest.raises(ValueError):
            MeasureSpec.parametric("uniform", 2, lo=-1.0, hi=2.0)
        with pytest.raises(ValueError):
            MeasureSpec.parametric("uniform", 2, lo=0.0, hi=0.0)


_ATOMS = [[[1.0, 1.0], [1.0, 1.0]], [[2.0, 1.0], [1.0, 1.0]]]
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, message", [
    (lambda: MeasureSpec.atomic(_ATOMS, [NAN, 1.0]), "weights must be strictly positive"),
    (lambda: MeasureSpec.atomic(_ATOMS, [0.5, NAN]), "weights must be strictly positive"),
    (lambda: MeasureSpec.parametric("lognormal", 2, mu=NAN, sigma=1.0),
     "param 'mu' must be a finite number, got nan"),
    (lambda: MeasureSpec.parametric("lognormal", 2, mu=INF, sigma=1.0),
     "param 'mu' must be a finite number, got inf"),
    (lambda: MeasureSpec.parametric("lognormal", 2, mu=0.0, sigma=-INF),
     "param 'sigma' must be a finite number, got -inf"),
    (lambda: MeasureSpec.parametric("lognormal", 2, mu="0", sigma=1.0),
     "param 'mu' must be a finite number, got '0'"),
    (lambda: MeasureSpec.parametric("lognormal", 2, mu=True, sigma=1.0),
     "param 'mu' must be a finite number, got True"),
    (lambda: MeasureSpec.parametric("uniform", 2, lo=0.0, hi=INF),
     "param 'hi' must be a finite number, got inf"),
    (lambda: MeasureSpec.parametric("lognormal", 2.5, mu=0.0, sigma=1.0),
     "d must be an integer, got 2.5"),
    (lambda: MeasureSpec.parametric("lognormal", 65, mu=0.0, sigma=1.0), "d must be <= 64, got 65"),
    (lambda: MeasureSpec.atomic(_ATOMS, [0.5, 0.5], transpose_view="yes"),
     "transpose_view must be a boolean, got 'yes'"),
    (lambda: MeasureSpec.from_json_dict({"kind": "parametric", "d": 2, "family": "lognormal",
                                         "params": {"mu": "0", "sigma": 1.0}}),
     "param 'mu' must be a finite number, got '0'"),
    (lambda: MeasureSpec.from_json_dict({"kind": "atomic", "d": 2, "weights": [0.5, 0.5],
                                         "atoms": [[1.0] * 4, [2.0, 1.0, 1.0, 1.0]],
                                         "transpose_view": 1}),
     "transpose_view must be a boolean, got 1"),
    (lambda: MeasureSpec.from_json_dict({"kind": "atomic", "d": 2, "weights": [None],
                                         "atoms": [[1.0] * 4]}),
     "weights entry 0 must be a number, got None"),
    (lambda: MeasureSpec.from_json_dict({"kind": "atomic", "d": 2, "weights": [1.0],
                                         "atoms": [5]}),
     "atom 0 must be a list, got 5"),
    (lambda: MeasureSpec.from_json_dict({"kind": "atomic", "d": 2, "weights": {"a": 1},
                                         "atoms": [[1.0] * 4]}),
     "weights must be a list, got {'a': 1}"),
    (lambda: MeasureSpec.from_json_dict({"kind": "atomic", "d": 2, "weights": [1.0],
                                         "atoms": [[1.0, None, 1.0, 1.0]]}),
     "atom 0 entry 1 must be a number, got None"),
    (lambda: MeasureSpec.atomic([], []), "atomic spec needs atoms and weights"),
    (lambda: MeasureSpec(kind="atomic", d="3"), "atomic spec needs atoms and weights"),
    (lambda: MeasureSpec.parametric("lognormal", "3", mu=0.0, sigma=1.0),
     "d must be an integer, got '3'"),
    (lambda: MeasureSpec.atomic(_ATOMS, [None, 0.5]), "weights entry 0 must be a number, got None"),
    (lambda: MeasureSpec.atomic(_ATOMS, ["a", 0.5]), "weights entry 0 must be a number, got 'a'"),
], ids=["nan-weight", "nan-sum", "nan-param", "inf-param", "minus-inf-param", "string-param",
        "bool-param", "uniform-inf-hi", "fractional-d", "d-above-max", "transpose-string",
        "json-string-param", "json-transpose-int", "json-null-weight", "json-number-atom",
        "json-object-weights", "json-null-atom-entry", "no-atoms", "atomic-string-d",
        "string-d", "null-weight", "string-weight"])
def test_malformed_spec_names_the_field(make, message):
    # nan compares false both ways, so every check is written to fail on it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        make()


def test_integral_float_dimension_is_stored_as_int():
    spec = MeasureSpec.parametric("lognormal", 2.0, mu=0, sigma=1)
    assert spec.d == 2 and type(spec.d) is int
    assert spec.params == {"mu": 0.0, "sigma": 1.0}
    assert all(type(v) is float for v in spec.params.values())
    assert sample_batch(spec, rngmod.derived_stream(3, Purpose.FORWARD), 2).shape == (2, 2, 2)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, two_atom_spec):
        text = two_atom_spec.to_json()
        back = MeasureSpec.from_json(text)
        assert back.to_json() == text
        for a, b in zip(two_atom_spec.atoms, back.atoms):
            assert np.array_equal(a.entries, b.entries)

    def test_round_trip_equality_and_hash(self, two_atom_spec):
        from conewalk.harness import pathology_fixtures, reference_spec

        fixture_a, fixture_b = pathology_fixtures()
        specs = [two_atom_spec, reference_spec(), reference_spec().transposed(),
                 fixture_a, fixture_b]
        for spec, again in zip(specs, [two_atom_spec, reference_spec(),
                                       reference_spec().transposed(),
                                       *pathology_fixtures()]):
            back = MeasureSpec.from_json(spec.to_json())
            assert back == spec and again == spec
            assert hash(back) == hash(spec) == hash(again)
        assert len(set(specs)) == len(specs)
        assert reference_spec() != reference_spec().transposed()

    def test_round_trip_awkward_floats(self):
        spec = MeasureSpec.atomic(
            [[[np.pi, 1e-300], [1.0 / 3.0, 2.0]],
             [[1.0, 1.0], [1.0, 1.0]]], [1.0 / 3.0, 2.0 / 3.0])
        back = MeasureSpec.from_json(spec.to_json())
        for a, b in zip(spec.atoms, back.atoms):
            assert np.array_equal(a.entries, b.entries)
        assert back.weights == spec.weights

    def test_unknown_keys_rejected(self, two_atom_spec):
        doc = two_atom_spec.to_json_dict()
        doc["extra"] = 1
        with pytest.raises(ValueError, match="unknown spec fields"):
            MeasureSpec.from_json_dict(doc)

    def test_bad_atom_named_in_error(self):
        doc = {"kind": "atomic", "d": 2, "weights": [1.0],
               "atoms": [[1.0, 0.0, 1.0, 0.0]], "transpose_view": False}
        with pytest.raises(ValueError, match="atom 0"):
            MeasureSpec.from_json_dict(doc)

    def test_parametric_specs_hash_by_params(self):
        a = MeasureSpec.parametric("lognormal", 3, mu=0.0, sigma=1.0)
        b = MeasureSpec.from_json(MeasureSpec.parametric("lognormal", 3, sigma=1.0,
                                                         mu=0.0).to_json())
        assert a == b and hash(a) == hash(b)
        table = {a: "first"}
        table[b] = "second"
        assert table == {a: "second"}
        assert hash(a) != hash(a.transposed())
        assert len({a, MeasureSpec.parametric("lognormal", 3, mu=0.0, sigma=2.0)}) == 2

    def test_parametric_round_trip(self):
        spec = MeasureSpec.parametric("lognormal", 3, mu=0.25, sigma=0.5)
        assert MeasureSpec.from_json(spec.to_json()).to_json() == spec.to_json()

    def test_file_round_trip(self, two_atom_spec, tmp_path):
        path = tmp_path / "spec.json"
        two_atom_spec.save(path)
        assert MeasureSpec.load(path).to_json() == two_atom_spec.to_json()


class TestSampling:
    def test_single_atom_always_that_atom(self):
        atom = AllowableMatrix([[2.0, 1.0], [1.0, 1.0]])
        spec = MeasureSpec.single_atom(atom)
        stream = rngmod.derived_stream(0)
        for _ in range(20):
            assert np.array_equal(sample_matrix(spec, stream).entries, atom.entries)

    def test_empirical_frequency_matches_weights(self, two_atom_spec):
        stream = rngmod.derived_stream(1)
        draws = sample_batch(two_atom_spec, stream, 100_000)
        first = np.mean(draws[:, 0, 0] == 2.0)
        assert abs(first - 0.5) <= 0.01  # binomial band at this size

    def test_transpose_view(self):
        atom = AllowableMatrix([[2.0, 1.0], [0.5, 1.0]])
        spec = MeasureSpec.single_atom(atom).transposed()
        stream = rngmod.derived_stream(2)
        assert np.array_equal(sample_matrix(spec, stream).entries, atom.entries.T)
        assert spec.transposed().transpose_view is False

    def test_deterministic_given_stream(self, two_atom_spec):
        a = sample_batch(two_atom_spec, rngmod.derived_stream(7, 1), 64)
        b = sample_batch(two_atom_spec, rngmod.derived_stream(7, 1), 64)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", [
        MeasureSpec.atomic([[[2.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [0.5, 2.0]]], [0.3, 0.7]),
        MeasureSpec.atomic([[[2.0, 1.0], [0.0, 1.0]], [[1.0, 1.0], [0.5, 2.0]]], [0.3, 0.7],
                           transpose_view=True),
        MeasureSpec.parametric("lognormal", 3, mu=0.0, sigma=1.0),
        MeasureSpec.parametric("uniform", 2, lo=0.0, hi=2.0),
    ], ids=["atomic", "transposed", "lognormal", "uniform"])
    def test_batch_of_one_is_sample_matrix(self, spec):
        # a batch of n is n successive draws, so batched loops keep the
        # draw-to-stream mapping of one-draw loops
        for size in (1, 7):
            a, b = rngmod.derived_stream(8, 1), rngmod.derived_stream(8, 1)
            for _ in range(50):
                batch = sample_batch(spec, a, size)
                assert np.array_equal(batch, [sample_matrix(spec, b).entries
                                              for _ in range(size)])
            assert a.random() == b.random()

    @pytest.mark.parametrize("spec", [
        reference_spec(),
        reference_spec().transposed(),
        MeasureSpec.parametric("lognormal", 8, mu=0.0, sigma=1.0),
        MeasureSpec.parametric("uniform", 2, lo=0.0, hi=1.0),
    ], ids=["reference", "transposed", "lognormal-d8", "uniform-d2"])
    def test_one_block_call_is_successive_calls(self, spec):
        # loops that draw a block of T steps per call keep the mapping of
        # one call per step, stream state included
        a, b = rngmod.derived_stream(10, 3), rngmod.derived_stream(10, 3)
        for steps, size in ((16, 5), (3, 64), (1, 7)):
            block = sample_batch(spec, a, steps * size).reshape(steps, size, spec.d, spec.d)
            assert np.array_equal(block, [sample_batch(spec, b, size) for _ in range(steps)])
            assert repr(a.bit_generator.state) == repr(b.bit_generator.state)

    def test_block_steps_double_from_16_up_to_the_entry_cap(self):
        sizes = []
        while sum(sizes) < 1000:
            sizes.append(block_steps(sum(sizes), 128 * 4, 1000 - sum(sizes)))
        assert sizes == [16, 16] + [32] * 30 + [8]
        assert block_steps(10**6, 1, 10**9) == 2**14
        assert block_steps(0, 2**20, 10) == 1

    def test_atom_stack_built_once_and_read_only(self, two_atom_spec):
        stack = two_atom_spec.atom_array()
        assert stack is two_atom_spec.atom_array()
        assert not stack.flags.writeable
        view = two_atom_spec.transposed()
        assert np.array_equal(view.atom_array(), stack.transpose(0, 2, 1))
        idx = rngmod.derived_stream(9, 2).choice(2, size=64, p=[0.5, 0.5])
        draws = sample_batch(two_atom_spec, rngmod.derived_stream(9, 2), 64)
        rebuilt = np.stack([a.entries for a in two_atom_spec.atoms])[idx]
        assert np.array_equal(draws, rebuilt)
        assert draws.flags.writeable

    def test_lognormal_draws_allowable(self):
        spec = MeasureSpec.parametric("lognormal", 3, mu=0.0, sigma=1.0)
        stream = rngmod.derived_stream(3)
        draws = sample_batch(spec, stream, 500)
        assert np.all(draws > 0)

    def test_uniform_draws_allowable_even_at_zero_floor(self):
        spec = MeasureSpec.parametric("uniform", 3, lo=0.0, hi=2.0)
        stream = rngmod.derived_stream(4)
        for _ in range(300):
            m = sample_matrix(spec, stream)
            assert np.all(m.column_sums > 0)

    def test_uniform_transpose_view(self):
        spec = MeasureSpec.parametric("uniform", 2, lo=1.0, hi=2.0, transpose_view=True)
        m = sample_matrix(spec, rngmod.derived_stream(5))
        assert m.d == 2


def _law(weights):
    atoms = [[[float(i + 1), 1.0], [0.5, 2.0]] for i in range(len(weights))]
    return MeasureSpec.atomic(atoms, weights)


DRAW_LAWS = {
    "one-atom": [1.0],
    "three-equal": [1.0 / 3.0] * 3,
    "skewed": [1e-9, 0.25, 0.75 - 1e-9],
    "twenty": list(np.arange(1, 21) / 210.0),
    "sixty-four": [1.0 / 64.0] * 64,
    # beyond the counted range: located by binary search
    "eighty": [1.0 / 80.0] * 80,
    "heavy-1001": list(np.arange(1, 1002) ** -2.5 / np.sum(np.arange(1, 1002) ** -2.5)),
}


class _FixedUniforms:
    """A generator whose ``random`` returns fixed uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("weights", DRAW_LAWS.values(), ids=DRAW_LAWS.keys())
def test_draws_pinned_to_generator_choice(weights):
    """sample_indices and sample_batch against rng.choice + fancy indexing:
    the same indices, values and stream position, so a change inside
    numpy's Generator.choice fails here."""
    for spec in (_law(weights), _law(weights).transposed()):
        k = len(spec.atoms)
        stack = np.stack([a.entries.T if spec.transpose_view else a.entries
                          for a in spec.atoms])
        for size in (1, 7, 5000):
            a = rngmod.derived_stream(12, Purpose.FORWARD, size)
            b = rngmod.derived_stream(12, Purpose.FORWARD, size)
            idx = sample_indices(spec, a, size)
            expected = b.choice(k, size=size, p=np.asarray(weights))
            assert np.array_equal(idx, expected)
            assert np.array_equal(sample_batch(spec, a, size),
                                  stack[b.choice(k, size=size, p=np.asarray(weights))])
            assert a.random() == b.random()
    # the uniforms where a located index changes, and their neighbours
    cdf = np.asarray(weights).cumsum()
    cdf /= cdf[-1]
    edges = np.concatenate([[0.0], cdf, np.arange(k) / k])
    u = np.unique(np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1)]))
    u = u[(u >= 0) & (u < 1)]
    idx = sample_indices(_law(weights), _FixedUniforms(u), u.size)
    assert np.array_equal(idx, cdf.searchsorted(u, side="right"))


WORD_LAWS = {
    "reference": reference_spec(),
    "two-atoms": MeasureSpec.atomic([[[2.0, 1.0], [1.0, 1.0]], [[1.0, 3.0], [0.5, 1.0]]],
                                    [0.3, 0.7]),
    "eighty-atoms": MeasureSpec.atomic(np.random.default_rng(5).lognormal(size=(80, 2, 2)),
                                       np.arange(1, 81) / 3240.0),  # L = 2
    "single-atom": MeasureSpec.single_atom([[2.0, 1.0], [1.0, 1.0]]),
}


@pytest.mark.parametrize("spec", WORD_LAWS.values(), ids=WORD_LAWS.keys())
def test_word_draws_are_searchsorted(spec):
    """sample_words locates each uniform through the guide table exactly as
    ``cdf.searchsorted(u, "right")`` on the word cdf: at every cdf entry and
    every j/m, at 0, at their neighbours, and at random uniforms."""
    _, _, cdf, guide = spec._words
    m = cdf.size
    assert guide.size == m + 1
    edges = np.concatenate([[0.0], cdf, np.arange(m + 1) / m])
    u = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1),
                        np.random.default_rng(13).random(10**5)])
    u = u[(u >= 0) & (u < 1)]
    idx = measures.sample_words(spec, _FixedUniforms(u), u.size)
    assert np.array_equal(idx, cdf.searchsorted(u, side="right"))


@st.composite
def sparse_atomic_specs(draw):
    """Atomic specs of 1 to 4 atoms in dimension 2 to 5 with exact zeros:
    entries 0 or in [1/4, 4], plus 1 on a permutation pattern so that every
    atom is allowable, in either view."""
    d, k = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    entries = st.lists(st.one_of(st.just(0.0), st.floats(0.25, 4.0)),
                       min_size=d * d, max_size=d * d)
    atoms = []
    for _ in range(k):
        atom = np.reshape(draw(entries), (d, d))
        atom[np.arange(d), draw(st.permutations(range(d)))] += 1.0
        atoms.append(atom)
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    return MeasureSpec.atomic(atoms, weights / weights.sum(),
                              transpose_view=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(spec=sparse_atomic_specs())
def test_word_levels_are_matmul_products(spec):
    """Level l of ``word_levels`` holds, times exp(logs), the K**l plain
    left-multiplied products A[i_{l-1}] ... A[i_0] with the same zeros, at
    their product weights."""
    atoms, p, d = spec.atom_array(), np.asarray(spec.weights), spec.d
    prods, weights = np.eye(d)[None], np.ones(1)  # digit i_{l-1} is the top one
    for words, logs, got in islice(measures.word_levels(spec), 4):
        prods = np.matmul(atoms[:, None], prods[None]).reshape(-1, d, d)
        weights = (p[:, None] * weights[None]).reshape(-1)
        assert np.allclose((words * np.exp(logs)).transpose(2, 0, 1), prods,
                           rtol=1e-12, atol=0)
        assert np.array_equal(words.transpose(2, 0, 1) == 0, prods == 0)
        assert np.allclose(got, weights, rtol=1e-14, atol=0)


def test_replica_streams_are_independent_and_stable():
    a0 = rngmod.derived_stream(99, Purpose.BACKWARD_PATH, 0).random(4)
    a1 = rngmod.derived_stream(99, Purpose.BACKWARD_PATH, 1).random(4)
    again = rngmod.derived_stream(99, Purpose.BACKWARD_PATH, 0).random(4)
    assert np.array_equal(a0, again)
    assert not np.array_equal(a0, a1)


class _UniformStub:
    """A generator whose ``uniform`` returns the given stacks in turn."""

    def __init__(self, *stacks):
        self.stacks = list(stacks)

    def uniform(self, lo, hi, size):
        stack = self.stacks.pop(0)
        assert size == stack.shape
        return stack.copy()


def test_uniform_zero_diagonal_with_positive_lines_is_kept():
    # allowable draws with a zero on the diagonal are not repaired; sample_batch
    # redraws only draws with an empty row or column
    spec = MeasureSpec.parametric("uniform", 2, lo=0.0, hi=2.0)
    stack = np.array([[[0.0, 1.5], [0.25, 1.0]], [[1.0, 0.5], [0.75, 0.0]]])
    assert np.array_equal(sample_batch(spec, _UniformStub(stack), 2), stack)


def test_zeroed_row_and_column_are_redrawn():
    # a stack with a zero entry skips the positive-stack shortcut of the check
    spec = MeasureSpec.parametric("uniform", 2, lo=0.0, hi=2.0)
    first = np.array([[[0.0, 0.0], [0.5, 1.0]],     # zero row
                      [[0.0, 1.5], [0.0, 1.0]],     # zero column
                      [[1.0, 0.5], [0.75, 0.25]]])
    row_fix, col_fix = np.full((1, 2, 2), 0.5), np.full((1, 2, 2), 1.5)
    stub = _UniformStub(first, row_fix, col_fix)
    out = sample_batch(spec, stub, 3)
    assert np.array_equal(out, [row_fix[0], col_fix[0], first[2]])
    assert stub.stacks == []


@pytest.mark.parametrize("stack", [
    np.random.default_rng(3).uniform(0.5, 1.0, size=(64, 3, 3)),
    np.random.default_rng(4).integers(0, 2, size=(64, 3, 3)).astype(float),
    np.zeros((0, 3, 3)),
], ids=["positive", "binary", "empty"])
def test_empty_line_check_matches_line_sums(stack):
    want = (stack.sum(axis=1) == 0).any(axis=1) | (stack.sum(axis=2) == 0).any(axis=1)
    assert np.array_equal(measures._has_empty_line(stack), want)


class _EmptyStub:
    """A generator whose ``uniform`` only ever returns all-zero draws."""

    def __init__(self):
        self.calls = 0

    def uniform(self, lo, hi, size):
        self.calls += 1
        return np.zeros(size)


@pytest.mark.parametrize("draw", [lambda spec, rng: sample_batch(spec, rng, 3), sample_matrix],
                         ids=["batch", "matrix"])
def test_rejection_cap_stops_the_repair(monkeypatch, draw):
    # the first draw and `cap` redraws fail, then the repair gives up
    monkeypatch.setattr(measures, "REJECTION_CAP", 4)
    spec = MeasureSpec.parametric("uniform", 2, lo=0.0, hi=1.0)
    stub = _EmptyStub()
    with pytest.raises(RejectionCapError, match="^5 consecutive draws failed allowability$"):
        draw(spec, stub)
    assert stub.calls == 5
