"""Backward matrix products, the invariant measure and contraction search.

Backward products multiply new draws on the right (B_n = Y_1 ... Y_n)
and converge projectively, which is how the invariant measure is
sampled; forward products, which drive the limit theorems, are batched
in ``estimators.BatchedProducts``.  After every multiplication the
running product is renormalized by its operator norm, so products of
any length stay inside floating-point range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .measures import MeasureSpec, block_steps, sample_batch
from .posmat import _WRITTEN_OUT_MAX_D, _step
from .rng import Purpose
from .simplex import SimplexPoint, as_count, as_point, contraction_coefficient

__all__ = [
    "InvariantSample",
    "backward_invariant_sample",
    "backward_invariant_batch",
    "ContractionDetection",
    "detect_contraction",
    "hitting_time",
    "ContractionFailure",
]

STEP_CAP = 10**6


class ContractionFailure(RuntimeError):
    """The running contraction bound refused to reach the target."""


# ---------------------------------------------------------------------
# Backward products and the invariant measure
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantSample:
    """A backward-product sample with its contraction certificate.

    The certificate bounds d(B_n . x, B_n . y) for every pair of starts,
    so the sampled point is within ``certificate`` (in the projective
    metric) of a sample whose law is the invariant measure.  ``steps`` is
    n, a multiple of the block length: the path stops at the first block
    whose certificate reaches the tolerance.
    """

    point: SimplexPoint
    certificate: float
    steps: int


def default_block_len(spec: MeasureSpec) -> int:
    """The backward sampler's certificate block length L for a spec.

    One draw contracts weakly (median coefficient 0.90 for the reference
    spec) and L-step products far harder, so L is measured: the smallest
    L <= 16 at which the 90th percentile of ``contraction_coefficient``
    over 256 sampled L-step products is <= 1/16 (``MeasureSpec.
    _contracting_block``, one search per spec on the stream (0,
    BLOCK_SEARCH), cached on the spec).  That gives 8 for the reference
    spec and 4 for lognormal at d = 3 and 8.  When no L qualifies,
    parametric specs and specs with a strictly positive atom use blocks of
    one; otherwise a bounded search over convolution powers is run.
    """
    measured = spec._contracting_block
    if measured is not None:
        return measured
    if spec.kind == "parametric":
        return 1
    if any(a.is_strictly_positive for a in spec.atoms):
        return 1
    found = detect_contraction(spec, r_max=8, samples=512,
                               seed=rngmod.child_seed(0, Purpose.BLOCK_SEARCH))
    if found is None:
        raise ContractionFailure(
            "no strictly positive products found up to length 8; "
            "the measure may not be strictly contracting")
    return found.r


def _max_column_sum(P: np.ndarray) -> np.ndarray:
    """(R,) max column sums of the (R, d, d) products ``P``.  For R > 1 up to
    ``_WRITTEN_OUT_MAX_D`` each column adds its rows in order on (R,) slices,
    which is numpy's sum over axis 1 bit for bit, then a chain of maxima; at
    R = 2048, d = 2 (2-vCPU Xeon) that took 6 against 188 us.  One path keeps
    the reductions, whose call overhead is lower."""
    R, d, _ = P.shape
    if d > _WRITTEN_OUT_MAX_D or R == 1:
        return P.sum(axis=1).max(axis=1)
    for j in range(d):
        col = P[:, 0, j] + P[:, 1, j]
        for i in range(2, d):
            col += P[:, i, j]
        scale = col if j == 0 else np.maximum(scale, col, out=scale)
    return scale


def _max_entry(blk: np.ndarray) -> np.ndarray:
    """(size, R) max entries of the (size, R, d, d) blocks ``blk``: a chain
    of maxima over the entries, on the same terms as ``_max_column_sum``."""
    size, R, d, _ = blk.shape
    flat = blk.reshape(size, R, d * d)
    if d > _WRITTEN_OUT_MAX_D or R == 1:
        return flat.max(axis=2)
    out = flat[..., 0].copy()
    for k in range(1, d * d):
        np.maximum(out, flat[..., k], out=out)
    return out


def _backward_products(spec: MeasureSpec, stream: np.random.Generator, tol: float,
                       n_paths: int, start, block_len: int | None, step_cap: int):
    """Run n_paths backward products until each certificate reaches tol.

    Path i's draw at step n is draw i of the n-th ``sample_batch(spec,
    stream, n_paths)``; blocks of steps come from one call each, which
    gives the same draws, so a path's draws do not depend on when the
    others finish.  Finished paths leave the working arrays, and draws
    past the last stop are discarded.  Returns (points (R, d),
    certificates (R,), steps (R,)).
    """
    if not 0 < tol <= 1:
        raise ValueError("tol must lie in (0, 1]")
    step_cap = as_count(step_cap, "step_cap", 0)
    x0 = as_point(start, spec.d, "start").coords
    if tol >= 1.0:
        return np.tile(x0, (n_paths, 1)), np.ones(n_paths), np.zeros(n_paths, dtype=int)
    if block_len is None:
        block_len = default_block_len(spec)
    block_len = as_count(block_len, "block_len")
    d = spec.d
    pts = np.empty((n_paths, d))
    steps = np.empty(n_paths, dtype=int)
    live = np.arange(n_paths)
    P = np.broadcast_to(np.eye(d), (n_paths, d, d)).copy()
    cert = np.ones(n_paths)
    done, cap = 0, step_cap // block_len  # in blocks
    while live.size:
        if done >= cap:
            raise ContractionFailure(
                f"{live.size} of {n_paths} paths missed the certificate target "
                f"{tol:.3e} within {step_cap} steps (best certificate "
                f"{cert[live].min():.3e}); the measure may not be strictly contracting")
        size = block_steps(done, block_len * n_paths * d * d, cap - done)
        draws = sample_batch(spec, stream, size * block_len * n_paths).reshape(
            size * block_len, n_paths, d, d)
        if live.size < n_paths:
            draws = draws[:, live]
        # each block's product, right-multiplied and renormalized every step
        blk = draws[::block_len]
        blk = blk / _max_entry(blk)[..., None, None]
        for j in range(1, block_len):
            blk = np.matmul(blk, draws[j::block_len])
            blk /= _max_entry(blk)[..., None, None]
        certs = contraction_coefficient(blk.reshape(-1, d, d)).reshape(size, live.size)
        certs[0] *= cert[live]
        # cumprod multiplies in the order of one cert *= c per block, bit for bit
        np.cumprod(certs, axis=0, out=certs)
        hit = certs <= tol
        stop = np.where(hit.any(axis=0), hit.argmax(axis=0), size)
        cert[live] = certs[np.minimum(stop, size - 1), np.arange(live.size)]
        stopping = set(stop.tolist())
        for b in range(min(size, max(stopping) + 1)):
            for t in range(b * block_len, (b + 1) * block_len):
                P = np.matmul(P, draws[t])
                P /= _max_column_sum(P)[:, None, None]
            if b in stopping:
                ends = stop == b
                pts[live[ends]] = np.matmul(P[ends], x0)
                steps[live[ends]] = (done + b + 1) * block_len
        keep = stop == size
        if not keep.all():
            live, P = live[keep], P[keep]
        done += size
    pts /= pts.sum(axis=1, keepdims=True)
    return pts, cert, steps


def backward_invariant_sample(spec: MeasureSpec, seed: int, tol: float,
                              start=None, block_len: int | None = None,
                              step_cap: int = STEP_CAP,
                              replica: int = 0) -> InvariantSample:
    """Iterate B_n . x until the contraction certificate drops below tol.

    Draws come from the stream keyed (seed, BACKWARD_PATH, replica).  The
    certificate is the product of the contraction coefficients of
    consecutive blocks of ``block_len`` draws, which dominates c(B_n); the
    default is ``default_block_len(spec)``, measured once per spec, so the
    path stops at a multiple of it.  A step cap framed as a failure
    suggests the measure is not strictly contracting.
    """
    stream = rngmod.derived_stream(seed, Purpose.BACKWARD_PATH, replica)
    pts, certs, steps = _backward_products(spec, stream, tol, 1, start, block_len,
                                           step_cap)
    return InvariantSample(SimplexPoint(pts[0]), float(certs[0]), int(steps[0]))


def backward_invariant_batch(spec: MeasureSpec, seed: int, tol: float,
                             n_samples: int, start=None,
                             block_len: int | None = None,
                             step_cap: int = STEP_CAP):
    """Vectorized backward sampler: n_samples points with certificates.

    Draws come from the stream keyed (seed, BACKWARD_BATCH): sample i takes
    draw i of every n_samples draws, one per step, so its draws depend on
    the seed and on n_samples.  The certificate and the stopping rule are
    those of ``backward_invariant_sample``, on blocks of ``block_len``
    draws (default ``default_block_len(spec)``).
    Returns (points (R, d), certificates (R,), steps (R,)).
    """
    n_samples = as_count(n_samples, "n_samples")
    stream = rngmod.derived_stream(seed, Purpose.BACKWARD_BATCH)
    return _backward_products(spec, stream, tol, n_samples, start, block_len, step_cap)


# ---------------------------------------------------------------------
# Contraction detection and hitting times
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionDetection:
    """Smallest product length at which strict positivity was observed."""

    r: int
    frequency: float


def _block_products(spec: MeasureSpec, stream: np.random.Generator, blocks: int,
                    block_len: int) -> np.ndarray:
    """(d, d, blocks) forward products (later draws on the left) of consecutive
    blocks of ``block_len`` draws from one ``sample_batch`` call, on
    ``posmat._step``, which renormalizes each step to max column sum 1."""
    y = sample_batch(spec, stream, blocks * block_len).reshape(
        blocks, block_len, spec.d, spec.d).transpose(1, 2, 3, 0)
    prod = y[0]
    for k in range(1, block_len):
        prod, _ = _step(y[k], prod)
    return prod


def detect_contraction(spec: MeasureSpec, r_max: int, samples: int,
                       seed: int = 0) -> ContractionDetection | None:
    """Bounded search for strictly positive products of the measure.

    Returns the smallest r <= r_max at which sampled products of length
    r were strictly positive, with the empirical frequency, or None if
    none were seen (inconclusive, not a disproof).
    """
    r_max, samples = as_count(r_max, "r_max"), as_count(samples, "samples")
    for r in range(1, r_max + 1):
        stream = rngmod.derived_stream(seed, Purpose.CONTRACTION_SEARCH, r)
        prod = _block_products(spec, stream, samples, r)
        hits = int(np.count_nonzero((prod > 0).all(axis=(0, 1))))
        if hits:
            return ContractionDetection(r=r, frequency=hits / samples)
    return None


def hitting_time(spec: MeasureSpec, seed: int, delta: float,
                 block_len: int = 1, cap: int = STEP_CAP,
                 replica: int = 0) -> int | None:
    """First block index whose forward block product passes the delta test.

    Blocks are consecutive groups of ``block_len`` draws, multiplied in
    forward order (later draws on the left); a block passes when every
    column-normalized entry is >= delta (``posmat.classify_G_delta``).
    Returns None when ``cap`` blocks pass without a hit.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    block_len, cap = as_count(block_len, "block_len"), as_count(cap, "cap")
    stream = rngmod.derived_stream(seed, Purpose.HITTING_TIME, replica)
    d = spec.d
    done = 0
    while done < cap:
        # draws past the first hit come from this call's own stream and are discarded
        size = block_steps(done, block_len * d * d, cap - done)
        blk = _block_products(spec, stream, size, block_len)
        with np.errstate(invalid="ignore"):  # an underflowed column: nan level, no hit
            level = (blk / blk.sum(axis=0, keepdims=True)).min(axis=(0, 1))
        hits = np.flatnonzero(level >= delta)
        if hits.size:
            return done + int(hits[0]) + 1
        done += size
    return None
