"""Measure specifications for iid matrix draws, with JSON serialization.

A spec is either atomic (weights over a finite list of allowable
matrices) or parametric (iid entries from a named family).  The
transpose view describes the pushforward of the measure under matrix
transposition.  Serialization round-trips bit-exactly: floats are
written with shortest-repr JSON encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .posmat import AllowableMatrix

__all__ = ["MeasureSpec", "RejectionCapError", "sample_matrix", "REJECTION_CAP"]

WEIGHT_TOL = 1e-12
REJECTION_CAP = 10**6
# Laws with at most this many atoms locate a uniform by counting cdf
# entries below it, one comparison per atom; longer laws binary-search.
# Counting costs 3.4 ns per draw at 3 atoms against 12 ns for
# searchsorted, and the two meet between 32 and 48 atoms (8192 draws,
# 2-vCPU Xeon).
_COUNTED_ATOMS = 32

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
               "uniform" (params lo, hi; a zero diagonal entry is
               repaired to the interval midpoint so every draw is
               allowable -- a desk-scale convenience, the repair fires
               with probability 0 for continuous draws)
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
        if self.kind == "atomic":
            if not self.atoms or self.weights is None:
                raise ValueError("atomic spec needs atoms and weights")
            if self.family is not None or self.params is not None:
                raise ValueError("atomic spec cannot carry family parameters")
            if len(self.weights) != len(self.atoms):
                raise ValueError("weights and atoms must have equal length")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0):
                raise ValueError("weights must be strictly positive")
            if abs(w.sum() - 1.0) > WEIGHT_TOL:
                raise ValueError(f"weights sum to {w.sum()!r}, not 1")
            for i, atom in enumerate(self.atoms):
                if not isinstance(atom, AllowableMatrix):
                    raise ValueError(f"atom {i} is not an AllowableMatrix")
                if atom.d != self.d:
                    raise ValueError(f"atom {i} has dimension {atom.d}, expected {self.d}")
        elif self.kind == "parametric":
            if self.atoms is not None or self.weights is not None:
                raise ValueError("parametric spec cannot carry atoms")
            if self.family not in _FAMILIES:
                raise ValueError(f"unknown family {self.family!r}")
            expected = set(_FAMILY_PARAMS[self.family])
            got = set(self.params or ())
            if got != expected:
                raise ValueError(f"family {self.family!r} needs params {sorted(expected)}")
            p = self.params
            if self.family == "lognormal" and not p["sigma"] >= 0:
                raise ValueError("sigma must be nonnegative")
            if self.family == "uniform":
                if not (0 <= p["lo"] <= p["hi"]) or not p["hi"] > 0:
                    raise ValueError("uniform family needs 0 <= lo <= hi with hi > 0")
            if not 2 <= self.d <= 64:
                raise ValueError("parametric spec dimension must be in [2, 64]")
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
        return MeasureSpec(kind="atomic", d=mats[0].d, weights=tuple(float(w) for w in weights),
                           atoms=mats, transpose_view=transpose_view)

    @staticmethod
    def single_atom(atom) -> "MeasureSpec":
        return MeasureSpec.atomic([atom], [1.0])

    @staticmethod
    def parametric(family: str, d: int, transpose_view: bool = False, **params) -> "MeasureSpec":
        return MeasureSpec(kind="parametric", d=d, family=family,
                           params={k: float(v) for k, v in params.items()},
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
        kind = doc.get("kind")
        d = doc.get("d")
        if not isinstance(d, int) or d < 2:
            raise ValueError("field 'd' must be an integer >= 2")
        tv = doc.get("transpose_view", False)
        if not isinstance(tv, bool):
            raise ValueError("field 'transpose_view' must be a boolean")
        if kind == "atomic":
            atoms = []
            for i, flat in enumerate(doc.get("atoms") or []):
                if len(flat) != d * d:
                    raise ValueError(f"atom {i} has {len(flat)} entries, expected {d * d}")
                try:
                    atoms.append(AllowableMatrix(np.asarray(flat, dtype=float).reshape(d, d)))
                except ValueError as exc:
                    raise ValueError(f"atom {i}: {exc}") from exc
            return MeasureSpec(kind="atomic", d=d,
                               weights=tuple(float(w) for w in doc.get("weights") or ()),
                               atoms=tuple(atoms), transpose_view=tv)
        if kind == "parametric":
            return MeasureSpec(kind="parametric", d=d, family=doc.get("family"),
                               params=doc.get("params"), transpose_view=tv)
        raise ValueError(f"unknown spec kind {kind!r}")

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


def _draw_parametric_entries(spec: MeasureSpec, rng: np.random.Generator,
                             size: int) -> np.ndarray:
    d, p = spec.d, spec.params
    if spec.family == "lognormal":
        return rng.lognormal(p["mu"], p["sigma"], size=(size, d, d))
    ent = rng.uniform(p["lo"], p["hi"], size=(size, d, d))
    idx = np.arange(d)
    diag = ent[:, idx, idx]
    ent[:, idx, idx] = np.where(diag == 0, 0.5 * (p["lo"] + p["hi"]), diag)
    return ent


def sample_matrix(spec: MeasureSpec, rng: np.random.Generator) -> AllowableMatrix:
    """One draw from the spec (or its transpose view), deterministic in rng state.

    Parametric draws failing allowability are rejected and redrawn; more
    than REJECTION_CAP consecutive rejections aborts.
    """
    if spec.kind == "atomic":
        atom = spec.atoms[int(sample_indices(spec, rng, 1)[0])]
        return atom.transpose() if spec.transpose_view else atom
    rejections = 0
    while True:
        ent = _draw_parametric_entries(spec, rng, 1)[0]
        if spec.transpose_view:
            ent = ent.T
        try:
            return AllowableMatrix(ent)
        except ValueError:
            rejections += 1
            if rejections > REJECTION_CAP:
                raise RejectionCapError(
                    f"{rejections} consecutive draws failed allowability")


def sample_indices(spec: MeasureSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Atom indices for a batch of atomic draws.

    Bit-identical to ``rng.choice(k, size, p=weights)``, stream state
    included: one uniform per draw, located in the cached cumulative
    weights.  The index is the number of cdf entries at or below the
    uniform, which is what ``cdf.searchsorted(u, side="right")`` returns;
    short laws count them with one comparison per atom instead.
    """
    if spec.kind != "atomic":
        raise ValueError("sample_indices is only defined for atomic specs")
    cdf = spec._atom_cdf
    u = rng.random(size)
    if len(cdf) > _COUNTED_ATOMS:
        return cdf.searchsorted(u, side="right")
    idx = np.zeros(size, dtype=np.intp)
    for c in cdf[:-1]:  # u < 1 = cdf[-1], so the last entry never counts
        idx += u >= c
    return idx


def sample_batch(spec: MeasureSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """A (size, d, d) stack of draws, for vectorized path evolution."""
    if spec.kind == "atomic":
        return spec.atom_array().take(sample_indices(spec, rng, size), axis=0)
    out = _draw_parametric_entries(spec, rng, size)
    if spec.transpose_view:
        out = out.transpose(0, 2, 1)
    # repair the (probability-zero) non-allowable draws one by one
    bad = np.flatnonzero((out.sum(axis=1) == 0).any(axis=1)
                         | (out.sum(axis=2) == 0).any(axis=1))
    for i in bad:
        out[i] = sample_matrix(spec, rng).entries
    return out
