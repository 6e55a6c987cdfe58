import numpy as np
import pytest

from conewalk.measures import MeasureSpec


@pytest.fixture(scope="session")
def reference_spec():
    from conewalk.harness import reference_spec

    return reference_spec()


def random_allowable(rng, d, strictly_positive=True, lo=0.1, hi=5.0):
    """Random allowable matrix; strictly positive entries by default."""
    from conewalk.posmat import AllowableMatrix

    a = rng.uniform(lo, hi, (d, d))
    if not strictly_positive:
        mask = rng.random((d, d)) < 0.3
        a = np.where(mask, 0.0, a)
        a[np.arange(d), np.arange(d)] = rng.uniform(lo, hi, d)  # keep allowable
    return AllowableMatrix(a)


def batched_m(u, v):
    """Row-wise ratio functional for (N, d) stacks of simplex points."""
    ratios = np.where(v > 0, u / np.where(v > 0, v, 1.0), np.inf)
    return ratios.min(axis=1)


def batched_distance(u, v):
    s = np.clip(batched_m(u, v) * batched_m(v, u), 0.0, 1.0)
    return (1.0 - s) / (1.0 + s)


def sample_simplex_batch(rng, n, d, boundary_frac=0.0):
    pts = rng.dirichlet(np.ones(d), size=n)
    if boundary_frac > 0:
        k = int(n * boundary_frac)
        for i in range(k):
            j = rng.integers(0, d)
            pts[i, j] = 0.0
            pts[i] /= pts[i].sum()
    return pts


def single_atom_spec(matrix):
    return MeasureSpec.single_atom(matrix)


def quadruple_coefficient(g):
    """Reference contraction coefficient by enumeration of index quadruples.

    The maximum over (i, j, k, l) of |g_ij g_kl - g_il g_kj| /
    (g_ij g_kl + g_il g_kj), 0/0 quadruples contributing 0; O(d^4).
    """
    a = np.asarray(g, dtype=float)
    a = a / a.max()  # guards the entry products against overflow
    d = a.shape[0]
    best = 0.0
    for i in range(d - 1):
        for k in range(i + 1, d):
            p = np.outer(a[i], a[k])  # p[j, l] = a_ij * a_kl
            q = p.T                   # q[j, l] = a_il * a_kj
            den = p + q
            num = np.abs(p - q)
            nz = den > 0
            if np.any(nz):
                best = max(best, float(np.max(num[nz] / den[nz])))
    return min(best, 1.0)
