"""The semigroup of allowable nonnegative matrices.

An allowable matrix is a square nonnegative matrix in which every row
and every column carries a strictly positive entry.  This module gives
the l1 operator norm / lower gauge pair, the projective action on the
simplex with its additive log-norm cocycle, the one batched forward step
``_step``, Perron data from one power iteration, and two positivity
classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import SimplexPoint, as_count, as_point

__all__ = [
    "MAX_DIM",
    "AllowableMatrix",
    "MatrixGauges",
    "SpectralRadiusError",
    "gauges",
    "act",
    "cocycle",
    "spectral_radius",
    "perron_vector",
    "classify_G_delta",
    "classify_G_C_gamma",
    "g_delta_level",
]

MAX_DIM = 64


class AllowableMatrix:
    """Dense d x d nonnegative matrix, certified allowable on construction.

    Column sums are cached: the max column sum is the l1 operator norm and
    the min column sum is the lower gauge v, both attained at vertices of
    the simplex.
    """

    __slots__ = ("_entries", "_column_sums")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        d = a.shape[0]
        if d < 2:
            raise ValueError("dimension must be at least 2")
        if d > MAX_DIM:
            raise ValueError(f"dimension {d} exceeds the supported maximum {MAX_DIM}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if np.any(a < 0):
            i, j = np.argwhere(a < 0)[0]
            raise ValueError(f"negative entry at ({i}, {j})")
        col = a.sum(axis=0)
        row = a.sum(axis=1)
        if np.any(col == 0):
            j = int(np.argmin(col))
            raise ValueError(f"column {j} has no positive entry")
        if np.any(row == 0):
            i = int(np.argmin(row))
            raise ValueError(f"row {i} has no positive entry")
        a.flags.writeable = False
        col.flags.writeable = False
        self._entries = a
        self._column_sums = col

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def d(self) -> int:
        return self._entries.shape[0]

    @property
    def column_sums(self) -> np.ndarray:
        return self._column_sums

    @property
    def is_strictly_positive(self) -> bool:
        return bool(np.all(self._entries > 0))

    def transpose(self) -> "AllowableMatrix":
        return AllowableMatrix(self._entries.T)

    def __matmul__(self, other: "AllowableMatrix") -> "AllowableMatrix":
        return AllowableMatrix(self._entries @ other._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AllowableMatrix):
            return NotImplemented
        return bool(np.array_equal(self._entries, other._entries))

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which compares equal to it
        return hash((self.d, (self._entries + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"AllowableMatrix({self._entries.tolist()})"


@dataclass(frozen=True)
class MatrixGauges:
    """sup and inf of |gx|_1 over the simplex (the l1 operator norm and the
    lower gauge v), with the derived N and L."""

    op_norm: float
    v: float
    N: float
    L: float


def _as_matrix(g) -> AllowableMatrix:
    return g if isinstance(g, AllowableMatrix) else AllowableMatrix(g)


def gauges(g) -> MatrixGauges:
    """Compute (op_norm, v, N, L) from the cached column sums.

    op_norm = max column sum = sup of |gx|_1 over the simplex,
    v = min column sum = inf of |gx|_1 over the simplex,
    N = max(op_norm, 1/v), L = op_norm / v >= 1; N^2 >= L always.
    """
    cs = _as_matrix(g).column_sums
    op_norm, v = float(cs.max()), float(cs.min())
    return MatrixGauges(op_norm=op_norm, v=v, N=max(op_norm, 1.0 / v), L=op_norm / v)


def act(g, x) -> SimplexPoint:
    """Projective action: gx renormalized back to the simplex."""
    m = _as_matrix(g)
    return SimplexPoint(m.entries @ as_point(x, m.d, "x").coords)


def cocycle(g, x) -> float:
    """sigma(g, x) = log |gx|_1.

    Additive along products through the projective action:
    sigma(gg', x) = sigma(g, g'.x) + sigma(g', x), and bounded in modulus
    by log N(g).
    """
    m = _as_matrix(g)
    return float(np.log((m.entries @ as_point(x, m.d, "x").coords).sum()))


# Up to this dimension the forward step is written out on length-R
# arrays of a (d, c, R) layout; above it one np.matmul on (R, d, c) is
# faster.  Kernel alone, ns per step and replica, matmul against written
# out (2-vCPU Xeon, R=8192): products d=2 94 vs 16, d=4 149 vs 209;
# directions (c=1) d=2 82 vs 8, d=4 110 vs 36.  At d=8 (R=4096):
# products 296 vs 2905, directions 139 vs 420.
_WRITTEN_OUT_MAX_D = 4


def _step(y: np.ndarray, state: np.ndarray):
    """One forward step Y A of the (d, c, R) ``state`` A, for ``y`` the
    (d, d, R) view of the draws Y, renormalised by its max column sums;
    returns the new (d, c, R) state and those sums.

    c = d for products started from the identity, c = 1 for a walk of
    directions.  Up to ``_WRITTEN_OUT_MAX_D`` row i of Y A is the sum over
    k, in order, of Y[i, k] times row k of A, on length-R arrays; above it,
    one np.matmul, whose BLAS kernel may fuse the multiply-adds.  The column
    sums add the rows in order and the scale is their running maximum.
    """
    d, c, R = state.shape
    if d <= _WRITTEN_OUT_MAX_D:
        # given outputs keep the (d, c, R) layout; left to itself numpy
        # would follow the strides of y and put R outermost
        out, term = np.empty((d, c, R)), np.empty((d, c, R))
        np.multiply(y[:, 0, None], state[0], out=out)
        for k in range(1, d):
            out += np.multiply(y[:, k, None], state[k], out=term)
    else:
        out = np.matmul(y.transpose(2, 0, 1), state.transpose(2, 0, 1)).transpose(1, 2, 0)
    sums = out[0] + out[1]
    for i in range(2, d):
        sums += out[i]
    scale = sums[0]
    # in place: one more (R,) temporary per step took 28 against 16 ns per
    # step and replica at d=2, R=8192
    for j in range(1, c):
        np.maximum(scale, sums[j], out=scale)
    out /= scale
    return out, scale


class SpectralRadiusError(RuntimeError):
    """The Perron iteration hit its cap."""


def _check_iteration(tol_name: str, tol: float, max_iter: int) -> int:
    """Validate a Perron iteration's arguments; returns ``max_iter`` as an int."""
    if not tol > 0:
        raise ValueError(f"{tol_name} must be > 0, got {tol}")
    return as_count(max_iter, "max_iter")


def _power_iteration(a: np.ndarray, tol: float, max_iter: int):
    """Power iteration from the barycenter on each (d, d) slice of the
    (d, d, R) ``a`` until every path's direction and norm move by at most
    ``tol`` (relative) in a step, or for ``max_iter`` steps; returns the
    (d, R) directions, the (R,) norms |a x|_1 and the (R,) settled flags."""
    d, _, R = a.shape
    x = np.full((d, R), 1.0 / d)
    lam = np.ones(R)
    settled = np.zeros(R, dtype=bool)
    for _ in range(max_iter):
        y = np.einsum("ijr,jr->ir", a, x)
        new = y.sum(axis=0)
        y /= new
        settled = (np.abs(y - x).sum(axis=0) <= tol) \
            & (np.abs(new - lam) <= tol * np.maximum(1.0, new))
        x, lam = y, new
        if settled.all():
            break
    return x, lam, settled


def _dense_spectral_radius(a: np.ndarray) -> np.ndarray:
    """The dense Perron root: largest eigenvalue modulus over ``a``'s last two axes."""
    return np.abs(np.linalg.eigvals(a)).max(axis=-1)


def spectral_radius(g, tol: float = 1e-12, max_iter: int = 10**5) -> float:
    """Perron root of an allowable matrix by power iteration on the simplex.

    The one-path ``_power_iteration``, to relative tolerance ``tol``.
    Non-primitive matrices can cycle instead of converging; they take the
    dense eigensolver once the cap is hit.  The returned value satisfies
    v(g) <= kappa(g) <= |g|.
    """
    a = _as_matrix(g).entries
    max_iter = _check_iteration("tol", tol, max_iter)
    _, lam, settled = _power_iteration(a[:, :, None], tol, max_iter)
    if settled[0]:
        return float(lam[0])
    return float(_dense_spectral_radius(a))


def perron_vector(g, residual_tol: float = 1e-12, max_iter: int = 10**5) -> SimplexPoint:
    """The interior fixed direction of a strictly positive matrix.

    Returns v with |g v - kappa v|_1 <= residual_tol, where kappa = |g v|_1:
    the one-path ``_power_iteration`` at tol = residual_tol / max(1, |g|_1)
    bounds the residual |g x|_1 |v - x|_1 at its last iterate x, and g
    contracts it further.  Rejects matrices with a zero entry (the
    projective contraction that guarantees a unique interior fixed point
    needs strict positivity).
    """
    m = _as_matrix(g)
    if not m.is_strictly_positive:
        raise ValueError("perron_vector requires a strictly positive matrix")
    max_iter = _check_iteration("residual_tol", residual_tol, max_iter)
    tol = residual_tol / max(1.0, float(m.column_sums.max()))
    x, _, settled = _power_iteration(m.entries[:, :, None], tol, max_iter)
    if settled[0]:
        return SimplexPoint(x[:, 0])
    raise SpectralRadiusError(
        f"perron iteration did not reach residual {residual_tol} in {max_iter} steps")


def g_delta_level(g) -> float:
    """Largest delta such that every column-normalized entry is >= delta.

    Equals the min over vertices e_j of the min coordinate of the
    projective image g.e_j; inner products of simplex pairs against the
    normalized image are extremized at vertex pairs, so this level makes
    membership below exact.  Zero when the matrix has a zero entry.
    """
    m = _as_matrix(g)
    return float(np.min(m.entries / m.column_sums))


def classify_G_delta(g, delta: float) -> bool:
    """Whether every normalized inner product <x, g.y> is >= delta."""
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    return g_delta_level(g) >= delta


def classify_G_C_gamma(g, C: float, gamma: float) -> bool:
    """Whether c(g) <= gamma and |g| <= C v(g^t)."""
    if not C > 0:
        raise ValueError("C must be positive")
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    from .simplex import contraction_coefficient

    m = _as_matrix(g)
    if contraction_coefficient(m) > gamma:
        return False
    v_t = float(m.entries.sum(axis=1).min())  # min row sum = v(g^t)
    return float(m.column_sums.max()) <= C * v_t
