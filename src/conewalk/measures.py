"""Measure specifications for iid matrix draws, with JSON serialization.

A spec is either atomic (weights over a finite list of allowable
matrices) or parametric (iid entries from a named family).  The
transpose view describes the pushforward of the measure under matrix
transposition.  Serialization round-trips bit-exactly: floats are
written with shortest-repr JSON encoding.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np

from . import rng as rngmod
from .posmat import MAX_DIM, AllowableMatrix, _step
from .rng import Purpose
from .simplex import as_count, contraction_coefficient

__all__ = ["MeasureSpec", "RejectionCapError", "sample_matrix", "REJECTION_CAP"]

WEIGHT_TOL = 1e-12
REJECTION_CAP = 10**6
# Laws with at most this many atoms locate a uniform by counting cdf
# entries below it into uint8, one comparison per atom; longer laws
# binary-search.  Counting against searchsorted, ns per draw (8192 draws,
# weights rising as k, 2-vCPU Xeon): 12-19 vs 35-43 at 32 atoms, 34-38 vs
# 53-56 at 64, and the two meet between 80 and 128 atoms.
_COUNTED_ATOMS = 64
_WORD_ENTRIES = 2**15  # 256 KiB of words: 6561 words of 8 draws for 3 atoms at d = 2
# walk.default_block_len's rule: the smallest L <= _BLOCK_MAX whose 90th
# percentile coefficient over _BLOCK_PRODUCTS sampled L-step products is
# <= _BLOCK_TARGET.  A moderate target at the smallest such L keeps each
# factor far above rounding (median 0.008-0.035 on the bench specs), where a
# factor whose theta rounds to 1 would read 0.
_BLOCK_MAX = 16
_BLOCK_PRODUCTS = 256
_BLOCK_TARGET = 1 / 16

_FAMILIES = ("lognormal", "uniform")
_FAMILY_PARAMS = {"lognormal": ("mu", "sigma"), "uniform": ("lo", "hi")}


class RejectionCapError(RuntimeError):
    """A parametric family failed allowability too many times in a row."""


@dataclass(frozen=True)
class MeasureSpec:
    """Description of an iid matrix law.

    kind       "atomic" or "parametric"
    d          matrix dimension
    weights    atomic only: positive weights summing to 1
    atoms      atomic only: tuple of AllowableMatrix
    family     parametric only: "lognormal" (params mu, sigma) or
               "uniform" (params lo, hi)
    params     parametric only: family parameters
    transpose_view   draw transposes instead
    """

    kind: str
    d: int
    weights: tuple[float, ...] | None = None
    atoms: tuple[AllowableMatrix, ...] | None = None
    family: str | None = None
    params: dict | None = None
    transpose_view: bool = False

    def __post_init__(self):
        # the one validator: the constructors, the JSON reader and replace() all end here
        if self.kind == "atomic" and (not self.atoms or self.weights is None):
            raise ValueError("atomic spec needs atoms and weights")
        d = as_count(self.d, "d", 2)
        if d > MAX_DIM:
            raise ValueError(f"d must be <= {MAX_DIM}, got {d}")
        object.__setattr__(self, "d", d)
        if not isinstance(self.transpose_view, bool):
            raise ValueError(f"transpose_view must be a boolean, got {self.transpose_view!r}")
        if self.kind == "atomic":
            if self.family is not None or self.params is not None:
                raise ValueError("atomic spec cannot carry family parameters")
            if len(self.weights) != len(self.atoms):
                raise ValueError("weights and atoms must have equal length")
            w = np.asarray(self.weights, dtype=float)
            if not np.all(w > 0):  # written so that nan fails too
                raise ValueError("weights must be strictly positive")
            if not abs(w.sum() - 1.0) <= WEIGHT_TOL:
                raise ValueError(f"weights sum to {w.sum()!r}, not 1")
            for i, atom in enumerate(self.atoms):
                if not isinstance(atom, AllowableMatrix):
                    raise ValueError(f"atom {i} is not an AllowableMatrix")
                if atom.d != d:
                    raise ValueError(f"atom {i} has dimension {atom.d}, expected {d}")
        elif self.kind == "parametric":
            if self.atoms is not None or self.weights is not None:
                raise ValueError("parametric spec cannot carry atoms")
            if self.family not in _FAMILIES:
                raise ValueError(f"unknown family {self.family!r}")
            names = _FAMILY_PARAMS[self.family]
            if not isinstance(self.params, dict) or set(self.params) != set(names):
                raise ValueError(f"family {self.family!r} needs params {sorted(names)}")
            for name in names:
                value = self.params[name]
                if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                        or not math.isfinite(value):
                    raise ValueError(f"param {name!r} must be a finite number, got {value!r}")
            p = {name: float(value) for name, value in self.params.items()}
            object.__setattr__(self, "params", p)
            if self.family == "lognormal" and not p["sigma"] >= 0:
                raise ValueError("sigma must be nonnegative")
            if self.family == "uniform":
                if not (0 <= p["lo"] <= p["hi"]) or not p["hi"] > 0:
                    raise ValueError("uniform family needs 0 <= lo <= hi with hi > 0")
        else:
            raise ValueError(f"unknown spec kind {self.kind!r}")

    def __hash__(self):
        # params is a dict: hash its sorted items, which equal dicts share
        params = None if self.params is None else tuple(sorted(self.params.items()))
        return hash((self.kind, self.d, self.weights, self.atoms, self.family, params,
                     self.transpose_view))

    # -- constructors -------------------------------------------------

    @staticmethod
    def atomic(atoms, weights, transpose_view: bool = False) -> "MeasureSpec":
        mats = tuple(a if isinstance(a, AllowableMatrix) else AllowableMatrix(a)
                     for a in atoms)
        return MeasureSpec(kind="atomic", d=mats[0].d if mats else None, atoms=mats,
                           weights=tuple(map(float, _json_list(list(weights), "weights"))),
                           transpose_view=transpose_view)

    @staticmethod
    def single_atom(atom) -> "MeasureSpec":
        return MeasureSpec.atomic([atom], [1.0])

    @staticmethod
    def parametric(family: str, d: int, transpose_view: bool = False, **params) -> "MeasureSpec":
        return MeasureSpec(kind="parametric", d=d, family=family, params=params,
                           transpose_view=transpose_view)

    # -- views ---------------------------------------------------------

    def transposed(self) -> "MeasureSpec":
        """The pushforward of this measure under transposition."""
        return replace(self, transpose_view=not self.transpose_view)

    def atom_array(self) -> np.ndarray:
        """Stacked (k, d, d) atom entries, transposed when the view says so.

        Built once per spec and read-only.
        """
        if self.kind != "atomic":
            raise ValueError("atom_array is only defined for atomic specs")
        return self._atom_stack

    @cached_property
    def _atom_stack(self) -> np.ndarray:
        stack = np.stack([a.entries.T if self.transpose_view else a.entries
                          for a in self.atoms])
        stack.flags.writeable = False
        return stack

    @cached_property
    def _atom_cdf(self) -> np.ndarray:
        # the cumulative weights exactly as Generator.choice forms them
        cdf = np.asarray(self.weights).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def _words(self):
        """(L, levels, cdf, guide) for ``BatchedProducts.leap`` and the harness's
        cocycle walk, or None when L = 1: L is the largest with K**L * d * d <=
        _WORD_ENTRIES (one atom counts as two).  levels are the pairs (words,
        logs) of the first L levels of ``word_levels``, so the oldest l draws of
        word w of the top level, levels[-1], are entry w mod K**l of level l.
        cdf is the cumulative word law of the top level (its product weights,
        normalised as in ``_atom_cdf``) and guide its guide table for
        ``sample_words``."""
        k, d = len(self.atoms), self.d
        length = 1
        while max(k, 2) ** (length + 1) * d * d <= _WORD_ENTRIES:
            length += 1
        if length == 1:
            return None
        levels = list(islice(word_levels(self), length))
        cdf = levels[-1][2].cumsum()
        cdf /= cdf[-1]
        # guide[j] counts the entries c with fl(c * m) < j: each is <= every u
        # with floor(fl(u * m)) = j, and fl(u * m) = m can occur, hence m + 1
        guide = (cdf * cdf.size).searchsorted(np.arange(cdf.size + 1), side="left")
        cdf.flags.writeable = guide.flags.writeable = False
        return length, tuple((words, logs) for words, logs, _ in levels), cdf, guide

    @cached_property
    def _contracting_block(self) -> int | None:
        """The measured L of ``walk.default_block_len``, or None when no
        L <= _BLOCK_MAX qualifies.  The L-step products are the prefixes of
        _BLOCK_PRODUCTS sequences of draws on the one stream (0,
        BLOCK_SEARCH), each new draw the right factor, renormalised by
        ``_step`` as the sampler's blocks are, so L depends on the spec alone."""
        stream = rngmod.derived_stream(0, Purpose.BLOCK_SEARCH)
        blk = np.eye(self.d)[:, :, None]
        for length in range(1, _BLOCK_MAX + 1):
            blk, _ = _step(blk, sample_batch(self, stream, _BLOCK_PRODUCTS).transpose(1, 2, 0))
            coefficients = contraction_coefficient(blk.transpose(2, 0, 1))
            if np.quantile(coefficients, 0.9) <= _BLOCK_TARGET:
                return length
        return None

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "d": self.d, "transpose_view": self.transpose_view}
        if self.kind == "atomic":
            doc["weights"] = list(self.weights)
            doc["atoms"] = [a.entries.reshape(-1).tolist() for a in self.atoms]
        else:
            doc["family"] = self.family
            doc["params"] = dict(self.params)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "MeasureSpec":
        if not isinstance(doc, dict):
            raise ValueError("spec document must be a JSON object")
        known = {"kind", "d", "weights", "atoms", "family", "params", "transpose_view"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        kind, d = doc.get("kind"), doc.get("d")
        if not isinstance(d, int) or d < 2:
            raise ValueError("field 'd' must be an integer >= 2")
        fields = {"family": doc.get("family"), "params": doc.get("params")}
        if kind == "atomic":
            atoms = []
            for i, flat in enumerate(_json_list(doc.get("atoms") or [], "atoms", False)):
                if len(_json_list(flat, f"atom {i}")) != d * d:
                    raise ValueError(f"atom {i} has {len(flat)} entries, expected {d * d}")
                try:
                    atoms.append(AllowableMatrix(np.asarray(flat, dtype=float).reshape(d, d)))
                except ValueError as exc:
                    raise ValueError(f"atom {i}: {exc}") from exc
            weights = _json_list(doc.get("weights") or [], "weights")
            fields = {"atoms": tuple(atoms), "weights": tuple(float(w) for w in weights)}
        return MeasureSpec(kind=kind, d=d, transpose_view=doc.get("transpose_view", False),
                           **fields)

    @staticmethod
    def from_json(text: str) -> "MeasureSpec":
        return MeasureSpec.from_json_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @staticmethod
    def load(path) -> "MeasureSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return MeasureSpec.from_json(fh.read())


def _json_list(value, what: str, of_numbers: bool = True) -> list:
    """``value`` if it is a JSON array, of numbers when ``of_numbers``; errors name the index."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    for i, v in enumerate(value if of_numbers else ()):
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{what} entry {i} must be a number, got {v!r}")
    return value


def _draw_parametric_entries(spec: MeasureSpec, rng: np.random.Generator,
                             size: int) -> np.ndarray:
    d, p = spec.d, spec.params
    if spec.family == "lognormal":
        out = rng.lognormal(p["mu"], p["sigma"], size=(size, d, d))
    else:
        out = rng.uniform(p["lo"], p["hi"], size=(size, d, d))
    return out.transpose(0, 2, 1) if spec.transpose_view else out


def _has_empty_line(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix of the (size, d, d) ``stack`` has a zero row or column sum."""
    if stack.min(initial=1.0) > 0:  # no line of a positive stack sums to 0
        return np.zeros(len(stack), dtype=bool)
    return (stack.sum(axis=1) == 0).any(axis=1) | (stack.sum(axis=2) == 0).any(axis=1)


def sample_matrix(spec: MeasureSpec, rng: np.random.Generator) -> AllowableMatrix:
    """One draw from the spec (or its transpose view), deterministic in rng
    state: the batch of one of ``sample_batch``."""
    return AllowableMatrix(sample_batch(spec, rng, 1)[0])


def sample_indices(spec: MeasureSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Atom indices for a batch of atomic draws.

    Bit-identical to ``rng.choice(k, size, p=weights)``, stream state
    included: one uniform per draw, located in the cached cumulative
    weights.  The index is the number of cdf entries at or below the
    uniform, which is what ``cdf.searchsorted(u, side="right")`` returns;
    short laws count them into uint8 instead, one comparison per atom.
    """
    if spec.kind != "atomic":
        raise ValueError("sample_indices is only defined for atomic specs")
    cdf = spec._atom_cdf
    u = rng.random(size)
    if len(cdf) > _COUNTED_ATOMS:
        return cdf.searchsorted(u, side="right")
    idx = np.zeros(size, dtype=np.uint8)
    for c in cdf[:-1]:  # u < 1 = cdf[-1], so the last entry never counts
        idx += u >= c
    return idx


def sample_words(spec: MeasureSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Indices into the top level of ``spec._words`` for ``size`` draws from
    the word law, one uniform each.

    The index is ``cdf.searchsorted(u, side="right")`` on the word cdf, found
    through its guide table (Chen and Asau 1974): ``guide[floor(u * m)]`` is a
    lower bound, two passes of ``idx += cdf[idx] <= u`` settle almost every
    draw, since a guide cell holds about one cdf entry, and the draws still
    short are binary-searched.  The index never passes the last entry, 1 > u.
    """
    _, _, cdf, guide = spec._words
    u = rng.random(size)
    idx = guide.take((u * (guide.size - 1)).astype(np.intp))
    for _ in range(2):
        idx += cdf.take(idx) <= u
    short = np.flatnonzero(cdf.take(idx) <= u)
    if short.size:
        idx[short] = cdf.searchsorted(u[short], side="right")
    return idx


def word_levels(spec: MeasureSpec):
    """The words of an atomic spec, one level per draw: for l = 1, 2, ...
    yields the read-only (words, logs, weights) of the K**l words of l draws
    in ``posmat._step``'s (d, d, K**l) layout.  words[..., sum(i_k K**k)] is
    A[i_{l-1}] ... A[i_0] renormalised by ``_step`` (the new draw is the left
    factor and the top digit), logs holds the logs of the scales taken out
    and weights the product weights p[i_{l-1}] ... p[i_0].  The one word
    enumerator: the word table, the aperiodicity report and fixture B's
    exact probability all read it."""
    atoms, p = spec.atom_array().transpose(1, 2, 0), np.asarray(spec.weights)
    words, logs, weights = np.eye(spec.d)[:, :, None], np.zeros(1), np.ones(1)
    while True:
        words, scale = _step(atoms.repeat(words.shape[2], axis=2), np.tile(words, p.size))
        logs = np.log(scale) + np.tile(logs, p.size)
        weights = np.outer(p, weights).ravel()
        words.flags.writeable = logs.flags.writeable = weights.flags.writeable = False
        yield words, logs, weights


def block_steps(done: int, step_entries: int, remaining: int) -> int:
    """Steps for the next ``sample_batch`` call of a loop that draws in blocks.

    Blocks start at 16 steps and double with the steps already ``done``,
    capped near 2**14 drawn entries (``step_entries`` per step) and at the
    ``remaining`` steps.  At 2**16 the loops' temporaries raised peak RSS
    by 3 MiB and ran slower (512 replicas, d = 2).
    """
    return min(max(16, done), max(1, 2**14 // step_entries), remaining)


def sample_batch(spec: MeasureSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """A (size, d, d) stack of draws, for vectorized path evolution.

    One call of size T * R gives the draws, and leaves the stream state,
    of T calls of size R in turn; only the probability-zero repair of a
    non-allowable parametric draw breaks that.
    """
    if spec.kind == "atomic":
        return spec.atom_array().take(sample_indices(spec, rng, size), axis=0)
    out = _draw_parametric_entries(spec, rng, size)
    # redraw each (probability-zero) draw with an empty row or column until
    # it has none; more than REJECTION_CAP failed draws in a row abort
    for i in np.flatnonzero(_has_empty_line(out)):
        rejections = 0
        while _has_empty_line(out[i:i + 1])[0]:
            rejections += 1
            if rejections > REJECTION_CAP:
                raise RejectionCapError(f"{rejections} consecutive draws failed allowability")
            out[i] = _draw_parametric_entries(spec, rng, 1)[0]
    return out
