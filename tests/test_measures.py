import json

import numpy as np
import pytest

from conewalk import rng as rngmod
from conewalk.measures import MeasureSpec, sample_batch, sample_indices, sample_matrix
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
    # beyond the counted range: located by binary search
    "sixty-four": [1.0 / 64.0] * 64,
}


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


def test_replica_streams_are_independent_and_stable():
    a0 = rngmod.derived_stream(99, Purpose.BACKWARD_PATH, 0).random(4)
    a1 = rngmod.derived_stream(99, Purpose.BACKWARD_PATH, 1).random(4)
    again = rngmod.derived_stream(99, Purpose.BACKWARD_PATH, 0).random(4)
    assert np.array_equal(a0, again)
    assert not np.array_equal(a0, a1)
