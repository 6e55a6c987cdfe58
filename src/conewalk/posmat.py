"""The semigroup of allowable nonnegative matrices.

An allowable matrix is a square nonnegative matrix in which every row
and every column carries a strictly positive entry.  This module gives
the operator norm / lower gauge pair induced by the l1 norm, the
projective action on the simplex with its additive log-norm cocycle,
Perron data, and two positivity classifiers used by the coefficient
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import SimplexPoint, barycenter, point_coords

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
    """l1 operator norm, lower gauge v, and the derived gauges N and L."""

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
    op = float(cs.max())
    v = float(cs.min())
    return MatrixGauges(op_norm=op, v=v, N=max(op, 1.0 / v), L=op / v)


def act(g, x) -> SimplexPoint:
    """Projective action: gx renormalized back to the simplex."""
    y = _as_matrix(g).entries @ point_coords(x)
    return SimplexPoint(y)


def cocycle(g, x) -> float:
    """sigma(g, x) = log |gx|_1.

    Additive along products through the projective action:
    sigma(gg', x) = sigma(g, g'.x) + sigma(g', x), and bounded in modulus
    by log N(g).
    """
    y = _as_matrix(g).entries @ point_coords(x)
    return float(np.log(y.sum()))


class SpectralRadiusError(RuntimeError):
    """Power iteration hit its cap; carries a cycle-detection certificate."""

    def __init__(self, message: str, period: int | None, estimates: list[float]):
        super().__init__(message)
        self.period = period
        self.estimates = estimates


def _detect_period(g: np.ndarray, x: np.ndarray, max_period: int, tol: float):
    """Look for a projective cycle of the iteration starting at x."""
    history = [x]
    for _ in range(max_period):
        y = g @ history[-1]
        history.append(y / y.sum())
    last = history[-1]
    for p in range(1, max_period + 1):
        if np.abs(last - history[-1 - p]).sum() <= tol:
            return p
    return None


def spectral_radius(g, tol: float = 1e-12, max_iter: int = 10**5,
                    fallback: bool = True) -> float:
    """Perron root of an allowable matrix by power iteration on the simplex.

    Iterates the projective action from the barycenter until both the
    direction and the norm estimate stabilize to relative tolerance
    ``tol``.  Non-primitive matrices can cycle instead of converging; the
    cap is then reported with a periodicity certificate, or a dense
    eigensolver is used when ``fallback`` is true.  The returned value
    satisfies v(g) <= kappa(g) <= |g|.
    """
    m = _as_matrix(g)
    a = m.entries
    x = barycenter(m.d).coords.copy()
    lam = 1.0
    for _ in range(max_iter):
        y = a @ x
        new_lam = y.sum()           # |g x|_1 with |x|_1 = 1
        y /= new_lam
        if (np.abs(y - x).sum() <= tol
                and abs(new_lam - lam) <= tol * max(1.0, new_lam)):
            return float(new_lam)
        x, lam = y, new_lam
    if fallback:
        return _dense_spectral_radius(a)
    period = _detect_period(a, x, min(m.d + 1, 16), np.sqrt(tol))
    raise SpectralRadiusError(
        f"power iteration did not converge in {max_iter} steps"
        + (f" (cycle of period {period} detected)" if period else ""),
        period,
        [float(lam)],
    )


def _dense_spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def perron_vector(g, residual_tol: float = 1e-12, max_iter: int = 10**5) -> SimplexPoint:
    """The interior fixed direction of a strictly positive matrix.

    Returns v with |g v - kappa v|_1 <= residual_tol, where
    kappa = |g v|_1.  Rejects matrices with a zero entry (the projective
    contraction that guarantees a unique interior fixed point needs
    strict positivity).
    """
    m = _as_matrix(g)
    if not m.is_strictly_positive:
        raise ValueError("perron_vector requires a strictly positive matrix")
    a = m.entries
    x = barycenter(m.d).coords.copy()
    for _ in range(max_iter):
        y = a @ x
        lam = y.sum()
        x_new = y / lam
        if np.abs(y - lam * x).sum() <= residual_tol:
            return SimplexPoint(x_new)
        x = x_new
    raise SpectralRadiusError(
        f"perron iteration did not reach residual {residual_tol} in {max_iter} steps",
        None,
        [float(lam)],
    )


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
