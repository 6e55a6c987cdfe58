"""Projective geometry of the nonnegative part of the l1 unit sphere.

Provides the ratio functional ``m``, the bounded projective metric
``d(x, y) = (1 - m(x,y)m(y,x)) / (1 + m(x,y)m(y,x))`` (diameter 1), and
the closed-form contraction coefficient of a nonnegative matrix, or of a
stack of them, acting projectively on the simplex.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "SimplexPoint",
    "barycenter",
    "m_ratio",
    "hilbert_distance",
    "contraction_coefficient",
    "sample_point",
]

NORMALIZATION_TOL = 1e-12


class SimplexPoint:
    """A nonnegative vector with unit l1 norm.

    Inputs are renormalized once on construction; afterwards the sum of
    coordinates is 1 to within :data:`NORMALIZATION_TOL` and the vector
    is immutable.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords):
        c = np.array(coords, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("a simplex point needs a 1-d vector with d >= 2")
        if not np.all(np.isfinite(c)):
            raise ValueError("simplex point coordinates must be finite")
        if np.any(c < 0):
            raise ValueError("simplex point coordinates must be nonnegative")
        total = c.sum()
        if not total > 0:
            raise ValueError("simplex point must have positive l1 norm")
        c /= total
        c.flags.writeable = False
        self._coords = c

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def d(self) -> int:
        return self._coords.size

    @property
    def interior(self) -> bool:
        """True exactly when every coordinate is strictly positive."""
        return bool(np.all(self._coords > 0))

    def __iter__(self):
        return iter(self._coords)

    def __repr__(self) -> str:
        return f"SimplexPoint({self._coords.tolist()})"


def barycenter(d: int) -> SimplexPoint:
    """The point (1/d, ..., 1/d)."""
    return SimplexPoint(np.full(d, 1.0 / d))


def as_point(x, d: int, name: str) -> SimplexPoint:
    """``x`` itself if it is a SimplexPoint, else the validated point of the
    array-like ``x``; the barycenter of dimension ``d`` when ``x`` is None.

    The one coercion for a point: routines that read a point on every
    step validate it once here; ``name`` is the argument's name for the
    error message.
    """
    if x is None:
        return barycenter(d)
    point = x if isinstance(x, SimplexPoint) else SimplexPoint(x)
    if point.d != d:
        raise ValueError(f"{name} has dimension {point.d}, expected {d}")
    return point


def as_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int, checked once at the edge: a Python or numpy
    integer, or an integral float, of at least ``minimum``; ``name`` is
    the argument's name for the error message."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not value >= minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if not (isinstance(value, (int, np.integer)) or float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def as_grid(n_grid) -> list[int]:
    """The steps of ``n_grid`` in ascending order, each a count >= 1 and
    none repeated (a repeated step would count twice in a fit)."""
    grid = sorted(as_count(n, "n_grid") for n in n_grid)
    if not grid:
        raise ValueError("n_grid must hold at least one step")
    for lo, hi in zip(grid, grid[1:]):
        if lo == hi:
            raise ValueError(f"n_grid repeats step {lo}")
    return grid


def m_ratio(u, v) -> float:
    """Infimum of u_i / v_i over the support of v.

    Lies in [0, d]; vanishes exactly when u has a zero on the support of
    v, and m(u, v) * m(v, u) <= 1.
    """
    u = u if isinstance(u, SimplexPoint) else SimplexPoint(u)
    uc, vc = u.coords, as_point(v, u.d, "v").coords
    mask = vc > 0
    with np.errstate(over="ignore"):  # subnormal v_i: that ratio never attains the min
        return float(np.min(uc[mask] / vc[mask]))


def _phi(s: float) -> float:
    """The projective distance (1 - s) / (1 + s) of the ratio product
    s = m(x, y) m(y, x), with s clamped to [0, 1] against rounding."""
    s = min(max(s, 0.0), 1.0)
    return (1.0 - s) / (1.0 + s)


def hilbert_distance(x, y) -> float:
    """Projective distance on the simplex, with values in [0, 1].

    Equals 0 iff x == y, and 1 iff the supports differ.
    """
    return _phi(m_ratio(x, y) * m_ratio(y, x))


def contraction_coefficient(g):
    """Birkhoff contraction coefficient of the action of ``g`` on the simplex.

    With r_j = g_ij / g_kj for rows i < k, theta is the least over row
    pairs of min_j r_j / max_j r_j and the coefficient (1 - theta) /
    (1 + theta) (Birkhoff 1957; Seneta, *Non-negative Matrices and Markov
    Chains*, 3.4).  Columns where both rows vanish are skipped, and a row
    pair whose ratios are all 0 or all infinite imposes no distortion.  The
    value lies in [0, 1], is 0 for rank-one matrices, is < 1 exactly when
    all entries are strictly positive, and is unchanged bit for bit by
    dyadic scalars.

    ``g`` is a (d, d) matrix, validated as allowable (returns a float), or
    an (R, d, d) stack, not validated (returns an (R,) array).
    """
    from .posmat import AllowableMatrix

    a = g.entries if isinstance(g, AllowableMatrix) else np.asarray(g, dtype=float)
    if a.ndim <= 2:
        return float(_stack_coefficient(AllowableMatrix(a).entries[None])[0])
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 2:
        raise ValueError(f"expected a (d, d) matrix or an (R, d, d) stack "
                         f"with d >= 2, got shape {a.shape}")
    return _stack_coefficient(a)


@functools.lru_cache(maxsize=64)
def _row_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs i < k, shared read-only between calls."""
    pairs = np.triu_indices(d, 1)
    for p in pairs:
        p.flags.writeable = False
    return pairs


def _stack_coefficient(a: np.ndarray) -> np.ndarray:
    # min_j and max_j are written out: a ufunc reduction over an axis of
    # length d costs several times the elementwise calls at small d
    i, k = _row_pairs(a.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = a[:, i, 0] / a[:, k, 0]
        hi = lo.copy()
        for j in range(1, a.shape[1]):
            r = a[:, i, j] / a[:, k, j]
            np.fmin(lo, r, out=lo)  # fmin/fmax skip the nan of 0/0 columns
            np.fmax(hi, r, out=hi)
        lo /= hi
        theta = np.fmin(lo, 1.0, out=lo).min(axis=1)  # nan pair: no distortion
    return (1.0 - theta) / (1.0 + theta)


def sample_point(d: int, rng: np.random.Generator, zeros: int = 0) -> SimplexPoint:
    """Dirichlet(1, ..., 1) sample; ``zeros`` coordinates forced to 0."""
    if not 0 <= zeros < d:
        raise ValueError("zeros must leave at least one positive coordinate")
    c = rng.dirichlet(np.ones(d - zeros))
    if zeros:
        out = np.zeros(d)
        idx = rng.permutation(d)[: d - zeros]
        out[np.sort(idx)] = c
        return SimplexPoint(out)
    return SimplexPoint(c)
