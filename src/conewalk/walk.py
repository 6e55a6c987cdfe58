"""Backward matrix products, the invariant measure and contraction search.

Backward products multiply new draws on the right (B_n = Y_1 ... Y_n)
and converge projectively, which is how the invariant measure is
sampled; forward products, which drive the limit theorems, are batched
in ``estimators.BatchedProducts``.  Both run on the one batched step
``posmat._step``, which renormalizes every product by its operator norm,
so products of any length stay inside floating-point range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .measures import MeasureSpec, block_steps, sample_batch
from .posmat import _step
from .rng import Purpose
from .simplex import SimplexPoint, as_count, as_point, contraction_coefficient

__all__ = [
    "InvariantSample",
    "backward_invariant_sample",
    "backward_invariant_batch",
    "ContractionDetection",
    "detect_contraction",
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


def _certificate_blocks(draws: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Products Y_1 ... Y_L of the (size, L, n_paths, d, d) ``draws``' blocks
    for the paths ``live``, in ``posmat._step``'s (d, d, size * R) layout:
    block b of path live[i] is column b * R + i.  Step j of every block is
    copied one step at a time into that layout; the first factor is scaled
    exactly, by a power of two, to max column sum in [1/2, 1), and ``_step``
    renormalizes the later ones to max column sum 1: products of draws at
    1e200 or 1e-200 stay in range, and a block of one draw adds no rounding."""
    size, block_len, n_paths, d, _ = draws.shape
    R = live.size
    for j in range(block_len):
        y = draws[:, j] if R == n_paths else draws[:, j].take(live, axis=1)
        y = np.ascontiguousarray(y.transpose(2, 3, 0, 1)).reshape(d, d, size * R)
        if j:
            blk, _ = _step(blk, y)
        else:
            blk = np.ldexp(y, -np.frexp(y.sum(axis=0).max(axis=0))[1])
    return blk


def _backward_products(spec: MeasureSpec, stream: np.random.Generator, tol: float,
                       n_paths: int, start, block_len: int | None, step_cap: int):
    """Run n_paths backward products until each certificate reaches tol.

    Path i's draw at step n is draw i of the n-th ``sample_batch(spec,
    stream, n_paths)``; blocks of steps come from one call each, which
    gives the same draws, so a path's draws do not depend on when the
    others finish.  Both products run on ``posmat._step`` in its (d, d, R)
    layout: the certificate blocks' products Y_1 ... Y_L of one call's draws
    are built together, renormalized to max column sum 1 at every step, and
    each is multiplied into the running product once.
    Finished paths leave the working arrays, and draws past the last stop
    are discarded.  Returns (points (R, d), certificates (R,), steps (R,)).
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
    P = np.broadcast_to(np.eye(d)[..., None], (d, d, n_paths)).copy()
    cert = np.ones(n_paths)
    done, cap = 0, step_cap // block_len  # in blocks
    while live.size:
        if done >= cap:
            raise ContractionFailure(
                f"{live.size} of {n_paths} paths missed the certificate target "
                f"{tol:.3e} within {step_cap} steps (best certificate "
                f"{cert[live].min():.3e}); the measure may not be strictly contracting")
        size, R = block_steps(done, block_len * n_paths * d * d, cap - done), live.size
        draws = sample_batch(spec, stream, size * block_len * n_paths).reshape(
            size, block_len, n_paths, d, d)
        blk = _certificate_blocks(draws, live)
        del draws
        certs = contraction_coefficient(blk.transpose(2, 0, 1)).reshape(size, R)
        certs[0] *= cert[live]
        # cumprod multiplies in the order of one cert *= c per block, bit for bit
        np.cumprod(certs, axis=0, out=certs)
        hit = certs <= tol
        stop = np.where(hit.any(axis=0), hit.argmax(axis=0), size)
        cert[live] = certs[np.minimum(stop, size - 1), np.arange(R)]
        stopping = set(stop.tolist())
        for b in range(min(size, max(stopping) + 1)):
            P, _ = _step(P, blk[..., b * R:(b + 1) * R])
            if b in stopping:
                ends = stop == b
                # P x0 on the kernel's one-column walk, normalized to the simplex
                x, _ = _step(P[..., ends], np.broadcast_to(x0[:, None, None],
                                                           (d, 1, np.count_nonzero(ends))))
                pts[live[ends]] = x[:, 0].T
                steps[live[ends]] = (done + b + 1) * block_len
        keep = stop == size
        if not keep.all():
            live, P = live[keep], P[..., keep]
        done += size
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
# Contraction detection
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
