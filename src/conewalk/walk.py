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
from .measures import MeasureSpec, sample_batch
from .rng import Purpose
from .simplex import SimplexPoint, as_point, contraction_coefficient

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
    metric) of a sample whose law is the invariant measure.
    """

    point: SimplexPoint
    certificate: float
    steps: int


def default_block_len(spec: MeasureSpec, seed: int = 0) -> int:
    """Smallest usable contraction block length for a spec.

    Atomic specs with a strictly positive atom (and continuous parametric
    families, which are strictly positive almost surely) use blocks of
    one; otherwise a bounded search over convolution powers is run.
    """
    if spec.kind == "parametric":
        return 1
    if any(a.is_strictly_positive for a in spec.atoms):
        return 1
    found = detect_contraction(spec, r_max=8, samples=512,
                               seed=rngmod.child_seed(seed, Purpose.BLOCK_SEARCH))
    if found is None:
        raise ContractionFailure(
            "no strictly positive products found up to length 8; "
            "the measure may not be strictly contracting")
    return found.r


def _backward_products(spec: MeasureSpec, seed: int, stream: np.random.Generator,
                       tol: float, n_paths: int, start, block_len: int | None,
                       step_cap: int):
    """Run n_paths backward products until each certificate reaches tol.

    Each step draws all n_paths matrices in one ``sample_batch`` call, so
    a path's draws do not depend on when the others finish; finished paths
    leave the working arrays.  Returns (points (R, d), certificates (R,),
    steps (R,)).
    """
    if not 0 < tol <= 1:
        raise ValueError("tol must lie in (0, 1]")
    x0 = as_point(start, spec.d, "start").coords
    if tol >= 1.0:
        return np.tile(x0, (n_paths, 1)), np.ones(n_paths), np.zeros(n_paths, dtype=int)
    if block_len is None:
        block_len = default_block_len(spec, seed)
    elif block_len < 1:
        raise ValueError("block_len must be at least 1")
    d = spec.d
    eye = np.eye(d)
    pts = np.empty((n_paths, d))
    steps = np.empty(n_paths, dtype=int)
    live = np.arange(n_paths)
    P = np.broadcast_to(eye, (n_paths, d, d)).copy()
    blk = P.copy()
    cert = np.ones(n_paths)
    n = 0
    while live.size:
        if n == step_cap:
            raise ContractionFailure(
                f"{live.size} of {n_paths} paths missed the certificate target "
                f"{tol:.3e} within {step_cap} steps (best certificate "
                f"{cert[live].min():.3e}); the measure may not be strictly contracting")
        n += 1
        draws = sample_batch(spec, stream, n_paths)
        if live.size < n_paths:
            draws = draws[live]
        P = np.matmul(P, draws)
        P /= P.sum(axis=1).max(axis=1)[:, None, None]
        blk = np.matmul(blk, draws)
        blk /= blk.reshape(live.size, -1).max(axis=1)[:, None, None]
        if n % block_len:
            continue
        cert[live] *= contraction_coefficient(blk)
        blk[:] = eye
        done = cert[live] <= tol
        if done.any():
            pts[live[done]] = np.matmul(P[done], x0)
            steps[live[done]] = n
            keep = ~done
            live, P, blk = live[keep], P[keep], blk[keep]
    pts /= pts.sum(axis=1, keepdims=True)
    return pts, cert, steps


def backward_invariant_sample(spec: MeasureSpec, seed: int, tol: float,
                              start=None, block_len: int | None = None,
                              step_cap: int = STEP_CAP,
                              replica: int = 0) -> InvariantSample:
    """Iterate B_n . x until the contraction certificate drops below tol.

    Draws come from the stream keyed (seed, BACKWARD_PATH, replica).  The
    certificate is the product of the contraction coefficients of
    consecutive draw blocks, which dominates c(B_n).  A step cap framed as
    a failure suggests the measure is not strictly contracting.
    """
    stream = rngmod.derived_stream(seed, Purpose.BACKWARD_PATH, replica)
    pts, certs, steps = _backward_products(spec, seed, stream, tol, 1, start,
                                           block_len, step_cap)
    return InvariantSample(SimplexPoint(pts[0]), float(certs[0]), int(steps[0]))


def backward_invariant_batch(spec: MeasureSpec, seed: int, tol: float,
                             n_samples: int, start=None,
                             block_len: int | None = None,
                             step_cap: int = STEP_CAP):
    """Vectorized backward sampler: n_samples points with certificates.

    Uses a single derived stream with chunked draws (layout differs from
    the one-path API; determinism holds for fixed seed and n_samples).
    Returns (points (R, d), certificates (R,), steps (R,)).
    """
    stream = rngmod.derived_stream(seed, Purpose.BACKWARD_BATCH)
    return _backward_products(spec, seed, stream, tol, int(n_samples), start,
                              block_len, step_cap)


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
    """(blocks, d, d) forward products (later draws on the left) of consecutive
    blocks of ``block_len`` draws from one ``sample_batch`` call, each
    renormalized to max entry 1 after every multiplication."""
    d = spec.d
    draws = sample_batch(spec, stream, blocks * block_len).reshape(blocks, block_len, d, d)
    prod = draws[:, 0]
    for k in range(1, block_len):
        prod = np.matmul(draws[:, k], prod)
        prod /= prod.reshape(blocks, -1).max(axis=1)[:, None, None]
    return prod


def detect_contraction(spec: MeasureSpec, r_max: int, samples: int,
                       seed: int = 0) -> ContractionDetection | None:
    """Bounded search for strictly positive products of the measure.

    Returns the smallest r <= r_max at which sampled products of length
    r were strictly positive, with the empirical frequency, or None if
    none were seen (inconclusive, not a disproof).
    """
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    for r in range(1, r_max + 1):
        stream = rngmod.derived_stream(seed, Purpose.CONTRACTION_SEARCH, r)
        prod = _block_products(spec, stream, samples, r)
        hits = int(np.count_nonzero((prod > 0).all(axis=(1, 2))))
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
    if block_len < 1:
        raise ValueError("block_len must be at least 1")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    stream = rngmod.derived_stream(seed, Purpose.HITTING_TIME, replica)
    d = spec.d
    done = 0
    while done < cap:
        # chunks double from 16 blocks, capped near 2**16 entries; draws past
        # the first hit come from this call's own stream and are discarded
        size = min(max(16, done), max(1, 2**16 // (block_len * d * d)), cap - done)
        blk = _block_products(spec, stream, size, block_len)
        with np.errstate(invalid="ignore"):  # an underflowed column: nan level, no hit
            level = (blk / blk.sum(axis=1, keepdims=True)).min(axis=(1, 2))
        hits = np.flatnonzero(level >= delta)
        if hits.size:
            return done + int(hits[0]) + 1
        done += size
    return None
