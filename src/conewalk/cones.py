"""Closed solid cones with a chosen base functional.

A cone model fixes a closed convex cone K with K meet -K = {0} and
nonempty interior, an interior dual functional x0* and an interior base
point x0 with <x0*, x0> = 1.  It supplies the order ratio
m(x, y) = sup{lam >= 0 : lam y <= x}, the bounded projective metric on
the slice <x0*, .> = 1, a sampled check that a linear map preserves the
cone, and a sampled lower bound for the projective contraction of a map.

Three instantiations are provided: the nonnegative orthant (closed
forms throughout, consistent with the simplex module when x0* is the
all-ones vector), the second-order cone {(u, z) : |u|_2 <= z}, and the
positive semidefinite cone over symmetric matrices with the Frobenius
pairing (coordinates in a fixed orthonormal symmetric basis).
"""

from __future__ import annotations

import numpy as np

from . import rng as rngmod
from .rng import Purpose
from .simplex import _phi, _row_pairs, as_count

__all__ = [
    "ConeModel",
    "CertificationError",
    "OrthantCone",
    "LorentzCone",
    "PsdCone",
    "orthant_cone",
    "lorentz_cone",
    "psd_cone",
    "sym_to_coords",
    "coords_to_sym",
    "psd_map_congruence",
    "psd_map_rank_one",
]

MEMBERSHIP_TOL = 1e-12
BISECTION_TOL = 1e-10
CERTIFY_SAMPLES = 1000


class CertificationError(RuntimeError):
    """A map failed the sampled cone-preservation check."""

    def __init__(self, message: str, witness: np.ndarray):
        super().__init__(message)
        self.witness = witness


class ConeModel:
    """Base class; subclasses fill in membership, sampling, and closed forms."""

    kind: str = "generic"

    def __init__(self, ambient_dim: int, x0_star: np.ndarray, x0: np.ndarray):
        self.ambient_dim = int(ambient_dim)
        self.x0_star = np.asarray(x0_star, dtype=float)
        self.x0 = np.asarray(x0, dtype=float)
        if abs(float(self.x0_star @ self.x0) - 1.0) > 1e-12:
            raise ValueError("<x0*, x0> must equal 1")

    # -- membership (subclasses) ----------------------------------------

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

    def contains_interior(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

    def sample_slice(self, rng: np.random.Generator, boundary: bool = False) -> np.ndarray:
        raise NotImplementedError

    # -- order ratio and distance ------------------------------------------

    def m(self, x, y, method: str = "auto") -> float:
        """Order ratio m(x, y) = sup{lam >= 0 : lam y <= x} for x, y in K\\{0}.

        Finite, with m(x, y) m(y, x) <= 1.  Closed forms are used where
        the subclass has them; otherwise bisection on lam -> x - lam y
        to absolute tolerance 1e-10.
        """
        xc, yc = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        for name, vec in (("x", xc), ("y", yc)):
            if not np.any(vec):
                raise ValueError(f"{name} must be nonzero")
            if not self.contains(vec):
                raise ValueError(f"{name} is not in the cone")
        if method == "auto":
            closed = self._m_closed(xc, yc)
            return closed if closed is not None else self._m_bisect(xc, yc)
        if method == "closed":
            closed = self._m_closed(xc, yc)
            if closed is None:
                raise ValueError(f"no closed form for the {self.kind} cone here")
            return closed
        if method == "bisection":
            return self._m_bisect(xc, yc)
        raise ValueError(f"unknown method {method!r}")

    def _m_closed(self, x: np.ndarray, y: np.ndarray) -> float | None:
        return None

    def _m_bisect(self, x: np.ndarray, y: np.ndarray) -> float:
        # lam y <= x forces lam <x0*, y> <= <x0*, x>, so the ratio of
        # base-functional values bounds m from above; doubled for safety.
        hi = 2.0 * float(self.x0_star @ x) / float(self.x0_star @ y)
        guard = 0
        while self.contains(x - hi * y) and guard < 200:
            hi *= 2.0
            guard += 1
        lo = 0.0
        while hi - lo > BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if self.contains(x - mid * y):
                lo = mid
            else:
                hi = mid
        return lo

    def distance(self, x, y) -> float:
        """Projective distance (1 - m m') / (1 + m m'), in [0, 1].

        Equals 1 exactly when x and y sit in different parts of the cone.
        """
        return _phi(self.m(x, y) * self.m(y, x))

    # -- maps --------------------------------------------------------------

    def certify_map(self, g, seed: int = 0) -> None:
        """Check on CERTIFY_SAMPLES sampled points that g maps K into K and
        int(K) into int(K).

        Probabilistic, not a proof: every failure raises with the witness
        vector that escaped.
        """
        gm = np.asarray(g, dtype=float)
        stream = rngmod.derived_stream(seed, Purpose.CERTIFY_MAP)
        for i in range(CERTIFY_SAMPLES):
            boundary = i % 2 == 0
            x = self.sample_slice(stream, boundary=boundary)
            gx = gm @ x
            if not self.contains(gx) or not np.any(np.abs(gx) > 0):
                raise CertificationError("map sent a cone member outside", x)
            if not boundary and self.contains_interior(x) \
                    and not self.contains_interior(gx):
                raise CertificationError("map sent an interior point to the boundary", x)

    def contraction_estimate(self, g, n_pairs: int, seed: int = 0) -> float:
        """Max projective distance of image pairs over sampled slice pairs.

        A lower bound for the true contraction coefficient (the paperless
        sup over all of K has no closed form beyond the orthant); orthant
        sampling includes every vertex pair, which makes the bound tight
        there.
        """
        n_pairs = as_count(n_pairs, "n_pairs")
        stream = rngmod.derived_stream(seed, Purpose.CONTRACTION_PAIRS)
        gm = np.asarray(g, dtype=float)
        best = 0.0
        for x, y in self._contraction_pairs(stream, n_pairs):
            gx, gy = gm @ x, gm @ y
            best = max(best, self.distance(gx / (self.x0_star @ gx),
                                           gy / (self.x0_star @ gy)))
            if best >= 1.0:
                break
        return min(best, 1.0)

    def _contraction_pairs(self, rng: np.random.Generator, n_pairs: int):
        for done in range(n_pairs):
            yield (self.sample_slice(rng, boundary=done % 3 == 0),
                   self.sample_slice(rng, boundary=done % 3 == 1))


# ---------------------------------------------------------------------
# Orthant
# ---------------------------------------------------------------------


class OrthantCone(ConeModel):
    """The nonnegative orthant; all evaluations in closed form."""

    kind = "orthant"

    def __init__(self, d: int, x0_star=None):
        w = np.ones(d) if x0_star is None else np.asarray(x0_star, dtype=float)
        if w.shape != (d,) or np.any(w <= 0):
            raise ValueError("orthant base functional must be strictly positive")
        x0 = np.ones(d) / (w.sum())
        super().__init__(d, w, x0)

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return bool(np.all(np.asarray(x, dtype=float) >= -tol))

    def contains_interior(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return bool(np.all(np.asarray(x, dtype=float) > tol))

    def _m_closed(self, x, y):
        mask = y > 0
        if not np.any(mask):
            return 0.0
        if np.any((y > 0) & (x < 0)):
            return 0.0
        return float(np.min(x[mask] / y[mask]))

    def sample_slice(self, rng, boundary: bool = False):
        d = self.ambient_dim
        zeros = int(rng.integers(1, d)) if boundary else 0
        c = np.zeros(d)
        keep = np.sort(rng.permutation(d)[: d - zeros])
        c[keep] = rng.dirichlet(np.ones(d - zeros))
        return c / (self.x0_star @ c)

    def vertices(self) -> np.ndarray:
        """Extreme points of the slice: scaled coordinate vectors."""
        return np.diag(1.0 / self.x0_star)

    def _contraction_pairs(self, rng, n_pairs):
        verts = self.vertices()
        d = self.ambient_dim
        for i in range(d):
            for j in range(i + 1, d):
                yield verts[i], verts[j]
        yield from super()._contraction_pairs(rng, n_pairs - d * (d - 1) // 2)


# ---------------------------------------------------------------------
# Second-order (Lorentz) cone
# ---------------------------------------------------------------------


class LorentzCone(ConeModel):
    """{(u, z) in R^{n+1} : |u|_2 <= z}, base functional and point both e_z."""

    kind = "lorentz"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("lorentz cone needs at least one spatial dimension")
        dim = n + 1
        e_z = np.zeros(dim)
        e_z[-1] = 1.0
        super().__init__(dim, e_z, e_z.copy())
        self.n = n

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        c = np.asarray(x, dtype=float)
        return bool(c[-1] >= -tol and np.linalg.norm(c[:-1]) <= c[-1] + tol)

    def contains_interior(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        c = np.asarray(x, dtype=float)
        return bool(c[-1] > tol and np.linalg.norm(c[:-1]) < c[-1] - tol)

    def _m_closed(self, x, y):
        # lam y <= x iff lam <= z_x / z_y and q(lam) = (z_x - lam z_y)^2 -
        # |u_x - lam u_y|^2 = a lam^2 - 2 b lam + c >= 0.  m is the smaller
        # root of q, c / (b + sqrt(b^2 - ac)), finite when y is on the
        # boundary (a = 0).  b^2 - ac is summed from 2x2 minors of (x, y),
        # which keeps the near-double root of near-parallel x, y accurate.
        ux, zx, uy, zy = x[:-1], float(x[-1]), y[:-1], float(y[-1])
        b = zx * zy - float(ux @ uy)
        c = zx * zx - float(ux @ ux)
        w = np.outer(ux, uy)
        disc = float(np.sum((zy * ux - zx * uy) ** 2) - 0.5 * np.sum((w - w.T) ** 2))
        den = b + max(disc, 0.0) ** 0.5
        if den <= 1e-14 * zx * zy:
            return zx / zy  # 0/0: both on the boundary and parallel
        return max(c / den, 0.0)

    def sample_slice(self, rng, boundary: bool = False):
        u = rng.standard_normal(self.n)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            u[0] = 1.0
            nrm = 1.0
        u /= nrm
        radius = 1.0 if boundary else rng.uniform(0, 1) ** (1.0 / self.n)
        out = np.empty(self.ambient_dim)
        out[:-1] = radius * u
        out[-1] = 1.0
        return out


# ---------------------------------------------------------------------
# Positive semidefinite cone
# ---------------------------------------------------------------------


def sym_to_coords(mat: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric matrix in the orthonormal symmetric basis.

    Diagonal entries map to themselves and each off-diagonal pair to
    sqrt(2) * entry, so the Euclidean inner product of coordinates equals
    the Frobenius inner product of matrices.
    """
    m = np.asarray(mat, dtype=float)
    # the off-diagonal pairs row by row, cached per size
    return np.concatenate([m.diagonal(), np.sqrt(2.0) * m[_row_pairs(m.shape[0])]])


def coords_to_sym(coords: np.ndarray, n: int) -> np.ndarray:
    c = np.asarray(coords, dtype=float)
    i, j = _row_pairs(n)
    m = np.diag(c[: n])
    m[i, j] = m[j, i] = c[n:] / np.sqrt(2.0)
    return m


class PsdCone(ConeModel):
    """Positive semidefinite n x n matrices in symmetric-basis coordinates.

    Base functional is the identity (the norm of a member is its trace)
    and the base point is identity / n.
    """

    kind = "psd"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("psd cone needs n >= 2")
        self.n = n
        super().__init__(n * (n + 1) // 2,
                         sym_to_coords(np.eye(n)),
                         sym_to_coords(np.eye(n) / n))

    def matrix(self, x) -> np.ndarray:
        return coords_to_sym(np.asarray(x, dtype=float), self.n)

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        w = np.linalg.eigvalsh(self.matrix(x))
        return bool(w[0] >= -max(tol, 1e-12) * max(1.0, abs(w[-1])))

    def contains_interior(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        w = np.linalg.eigvalsh(self.matrix(x))
        return bool(w[0] > max(tol, 1e-12) * max(1.0, abs(w[-1])))

    def _m_closed(self, x, y):
        ym = self.matrix(y)
        wy = np.linalg.eigvalsh(ym)
        if wy[0] <= 1e-12 * max(1.0, wy[-1]):
            return None  # y not definite: fall back to bisection
        xm = self.matrix(x)
        ell = np.linalg.cholesky(ym)
        inner = np.linalg.solve(ell, np.linalg.solve(ell, xm).T).T
        return float(max(np.linalg.eigvalsh(inner)[0], 0.0))

    def sample_slice(self, rng, boundary: bool = False):
        k = int(rng.integers(1, self.n)) if boundary else self.n
        v = rng.standard_normal((self.n, k))
        m = v @ v.T
        m /= np.trace(m)
        return sym_to_coords(m)


def psd_map_congruence(a: np.ndarray) -> np.ndarray:
    """Coordinate matrix of M -> A^t M A on the symmetric basis."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    # column k is the image of the basis matrix with unit coordinate k
    return np.stack([sym_to_coords(a.T @ coords_to_sym(e, n) @ a)
                     for e in np.eye(n * (n + 1) // 2)], axis=1)


def psd_map_rank_one(r0: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """Coordinate matrix of M -> tr(M R0) S0; image is the ray through S0."""
    return np.outer(sym_to_coords(s0), sym_to_coords(r0))


def orthant_cone(d: int, x0_star=None) -> OrthantCone:
    return OrthantCone(d, x0_star)


def lorentz_cone(n: int) -> LorentzCone:
    return LorentzCone(n)


def psd_cone(n: int) -> PsdCone:
    return PsdCone(n)
