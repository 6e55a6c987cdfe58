"""The draw-to-stream policy: one table of purposes, one stream constructor.

Every routine that takes an integer seed draws from Philox streams
keyed ``(seed, purpose, *index)``: the purpose, a member of
:class:`Purpose`, sits in its own key slot, and indices (replica,
chunk, path, product length) follow it.  Distinct keys give independent streams, so no
purpose can alias a replica index or another purpose.  A stage that
hands its own seed to a public routine derives it with
:func:`child_seed` instead of offsetting the seed, so the stages of one
run never meet the stages of a run at a neighbouring seed.

Results therefore depend on the spec, the seed and the sizes (for the
functional sweep also on its chunk length), never on the worker-pool
width.  Batched routines draw a whole batch from one stream; only
``backward_invariant_sample``, ``hitting_time`` and
``coefficient_gap_check`` key a stream per replica or path.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

__all__ = ["Purpose", "derived_stream", "child_seed"]


class Purpose(IntEnum):
    """What a stream or a stage seed is for.

    The values are part of every stream key: renumbering one changes
    the numbers of every run that draws for it.
    """

    # streams: derived_stream(seed, purpose, *index)
    FORWARD = 1              # estimators.BatchedProducts; index: batch key (sweep chunk)
    BACKWARD_BATCH = 2       # walk.backward_invariant_batch
    BACKWARD_PATH = 3        # walk.backward_invariant_sample; index: replica
    CONTRACTION_SEARCH = 4   # walk.detect_contraction; index: product length r
    HITTING_TIME = 5         # walk.hitting_time; index: replica
    SERIES_PATHS = 6         # estimators.estimate_variance_series, stationary paths
    PSI_FIT = 7              # estimators.estimate_psi, probes and inner paths
    MARTINGALE_PATHS = 8     # estimators.variance_via_martingale, paths and psi evaluations
    MOMENT_DRAWS = 9         # estimators.moment_sanity
    GAP_PATH = 10            # harness.coefficient_gap_check; index: path
    CERTIFY_MAP = 11         # cones.ConeModel.certify_map
    CONTRACTION_PAIRS = 12   # cones.ConeModel.contraction_estimate
    NORM_METRIC_FIT = 13     # cones.ConeModel.norm_metric_constant; seed 0, index: ambient dim
    # 14 is retired (the sampled Lorentz dual cap); do not reuse it
    CONE_DEMO = 15           # cli cone-demo test vectors and maps
    # stage seeds: child_seed(seed, purpose)
    DRIFT_PRESWEEP = 16      # lambda pre-sweeps (cli variance, asip_proxy, deviation_tail_sums)
    COUPLING_STAGE = 17      # cli variance: coupling curve for the lag choice
    SERIES_STAGE = 18        # cli variance: autocovariance-series route
    PSI_STAGE = 19           # cli variance: corrector fit
    MARTINGALE_STAGE = 20    # cli variance: martingale route
    DOUBLED_STAGE = 21       # cli regularity: the doubled-sample rerun
    FIXTURE_B_STAGE = 22     # cli fixtures: fixture B
    TRANSPOSE_SEARCH = 23    # invariant_regularity: contraction search on the transpose view
    BLOCK_SEARCH = 24        # walk.default_block_len: contraction search for the block length


def derived_stream(seed: int, *key: int) -> np.random.Generator:
    """The stream keyed ``(seed, *key)``; distinct keys give independent streams.

    The library's keys are ``(purpose, *index)`` with a :class:`Purpose`
    member first.  With no key this is the top-level stream of ``seed``.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, purpose: Purpose) -> int:
    """A 64-bit seed for the stage ``purpose`` of a run at ``seed``."""
    ss = np.random.SeedSequence(seed, spawn_key=(int(purpose),))
    return int(ss.generate_state(1, np.uint64)[0])
