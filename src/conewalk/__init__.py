"""Random products of positive matrices and cone-preserving maps.

Projective geometry of the nonnegative simplex, the semigroup of
allowable matrices and its norm cocycle, general closed solid cones,
seeded streaming of iid matrix products, invariant-measure sampling,
Lyapunov and variance estimators, and an empirical harness for the
associated limit theorems.
"""

from .simplex import (SimplexPoint, barycenter, m_ratio, hilbert_distance,
                      contraction_coefficient, sample_point)
from .posmat import (AllowableMatrix, MatrixGauges, gauges, act, cocycle,
                     spectral_radius, perron_vector, classify_G_delta,
                     classify_G_C_gamma, g_delta_level)
from .measures import MeasureSpec, sample_matrix
from .walk import (InvariantSample, backward_invariant_sample,
                   backward_invariant_batch, detect_contraction)
from .cones import (ConeModel, ConeVector, OrthantCone, LorentzCone, PsdCone,
                    orthant_cone, lorentz_cone, psd_cone)

__version__ = "0.1.0"

__all__ = [
    "SimplexPoint", "barycenter", "m_ratio", "hilbert_distance",
    "contraction_coefficient", "sample_point",
    "AllowableMatrix", "MatrixGauges", "gauges", "act", "cocycle",
    "spectral_radius", "perron_vector", "classify_G_delta",
    "classify_G_C_gamma", "g_delta_level",
    "MeasureSpec", "sample_matrix",
    "InvariantSample", "backward_invariant_sample", "backward_invariant_batch",
    "detect_contraction",
    "ConeModel", "ConeVector", "OrthantCone", "LorentzCone", "PsdCone",
    "orthant_cone", "lorentz_cone", "psd_cone",
    "__version__",
]
