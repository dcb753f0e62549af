"""Reference computations the checks compare singscan's outputs against.

Nothing here imports singscan.  The MMD is evaluated by Gauss quadrature over
the uniform d-disk, not by the power-series identities ``kernels.py`` uses,
and the local dimension by ``numpy.linalg.eigvalsh`` rather than an SVD.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import roots_jacobi
from scipy.stats import rankdata

# |MMD^2(singscan) - MMD^2(quadrature)| allowed.  The quadrature below agrees
# with singscan's closed form to ~2e-14 on uniform disk samples for
# expdot(2) and geometric(0.3 .. 0.7) in d = 1 .. 6; singscan truncates its
# disk series at order 32, whose tail is far below this for those kernels.
MMD_TOLERANCE = 1e-10

# An eigenvalue share this close to eta leaves d_hat decided by rounding.
ETA_MARGIN = 1e-9

_NODES = 48


def auc(scores, positives) -> float:
    """Mann-Whitney AUC of ``scores`` for the boolean ``positives``, ties
    counting one half."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(positives, dtype=bool)
    n1, n0 = int(y.sum()), int((~y).sum())
    if n1 == 0 or n0 == 0 or not np.all(np.isfinite(s)):
        raise ValueError("AUC needs finite scores and both classes")
    ranks = rankdata(s)
    return float((ranks[y].sum() - n1 * (n1 + 1) / 2.0) / (n0 * n1))


def radius_members(coords: np.ndarray, i: int, r: float) -> np.ndarray:
    """Indices j != i with ||x_j - x_i|| < r, by brute force."""
    dist = np.sqrt(((coords - coords[i]) ** 2).sum(axis=1))
    members = np.flatnonzero(dist < r)
    return members[members != i]


def radius_counts(coords: np.ndarray, r: float) -> np.ndarray:
    """#{j != i : ||x_j - x_i|| < r} for every i.  SciPy's KD-tree counts
    ||x_j - x_i|| <= r; rows where that differs from a strict count are
    recounted by brute force, so a distance of exactly r is handled."""
    counts = cKDTree(coords).query_ball_point(coords, r, return_length=True) - 1
    ties = cKDTree(coords).query_ball_point(coords, r * (1 - 1e-12), return_length=True) - 1
    for i in np.flatnonzero(counts != ties):
        counts[i] = radius_members(coords, i, r).size
    return counts


def pca_dim(rescaled: np.ndarray, eta: float) -> tuple[int, np.ndarray, bool]:
    """(d, top-d eigenvectors, clear) of the uncentered second moment: d is the
    fewest leading eigenvalues holding at least eta of their sum, and clear is
    False when a share sits within ETA_MARGIN of eta or the d-th and
    (d+1)-th eigenvalues nearly coincide, so that d or the subspace is
    decided by rounding."""
    moment = rescaled.T @ rescaled / len(rescaled)
    values, vectors = np.linalg.eigh(moment)
    values, vectors = values[::-1], vectors[:, ::-1]
    shares = np.cumsum(values) / values.sum()
    d = int(np.argmax(shares >= eta)) + 1
    clear = bool(np.all(np.abs(shares - eta) > ETA_MARGIN))
    if d < len(values):
        clear &= values[d - 1] - values[d] > 1e-9 * values[0]
    return d, vectors[:, :d], clear


def _disk_rules(d: int):
    """Radial nodes/weights for density d rho^(d-1) on [0, 1], and nodes/weights
    for t = cosine of the angle to a fixed axis of a uniform direction."""
    x, w = roots_jacobi(_NODES, 0.0, d - 1.0)  # weight (1 + x)^(d-1)
    rho, w_rho = (x + 1.0) / 2.0, w / w.sum()
    if d == 1:
        t, w_t = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    else:
        a = (d - 3.0) / 2.0  # density of t is proportional to (1 - t^2)^a
        t, w_t = roots_jacobi(_NODES, a, a)
        w_t = w_t / w_t.sum()
    return rho, w_rho, t, w_t


def _mean_vs_disk(kernel, norms: np.ndarray, d: int) -> np.ndarray:
    """E kernel(<y, U>) for U uniform on the unit d-disk, for each |y| in norms."""
    rho, w_rho, t, w_t = _disk_rules(d)
    inner = norms[:, None, None] * rho[None, :, None] * t[None, None, :]
    return np.einsum("nij,i,j->n", kernel(inner), w_rho, w_t)


def mmd_sq_vs_disk(points: np.ndarray, kernel) -> float:
    """Squared MMD between the empirical measure of ``points`` (k, d) and the
    uniform unit d-disk for the kernel kernel(<x, y>), by quadrature."""
    k, d = points.shape
    gram = float(kernel(np.clip(points @ points.T, -1.0, 1.0)).mean())
    cross = float(_mean_vs_disk(kernel, np.linalg.norm(points, axis=1), d).mean())
    rho, w_rho, _, _ = _disk_rules(d)
    disk = float(w_rho @ _mean_vs_disk(kernel, rho, d))
    return gram - 2.0 * cross + disk


def expdot(param: float):
    return lambda t: np.exp(param * t)


def geometric(param: float):
    return lambda t: 1.0 / (1.0 - param * t)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C, so that C @ x transforms a length-n x."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    c = np.sqrt(2.0 / n) * np.cos(math.pi * (2 * j + 1) * k / (2 * n))
    c[0] /= math.sqrt(2.0)
    return c


def two_disks_distance(coords: np.ndarray) -> np.ndarray:
    """Distance to the singular set of two noiseless unit 2-disks in R^3, one
    in the plane x2 = 0 and one in x0 = 0: the shared segment on the x1 axis
    and the two boundary circles."""
    on_first = coords[:, 2] == 0.0
    off_shared = np.where(on_first, np.abs(coords[:, 0]), np.abs(coords[:, 2]))
    return np.minimum(off_shared, 1.0 - np.linalg.norm(coords, axis=1))


# Where the unit circles about the origin and about (1, 0) cross.
TWO_CIRCLES_CROSSINGS = np.array([[0.5, math.sqrt(3.0) / 2.0], [0.5, -math.sqrt(3.0) / 2.0]])


def distance_to_points(coords: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each row of coords to the nearest of ``points``."""
    return np.linalg.norm(coords[:, None, :] - points[None], axis=2).min(axis=1)


def supc(p: np.ndarray, thresholds=(0.005, 0.01, 0.02, 0.05)) -> float:
    """Small-p-value concentration max_q #{p <= q} / (n q), as the paper defines it."""
    return max(float((p <= q).sum()) / (p.size * q) for q in thresholds)
