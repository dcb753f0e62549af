"""Null distributions of the scaled statistic n * MMD^2, from the kernel's spectrum.

Under the null, n * MMD^2 of an n-sample from the uniform d-disk tends to
sum_i lambda_i z_i^2 with z_i standard normal, where the lambda_i are the
eigenvalues of the kernel centred under the uniform disk (Gretton et al.,
"A Fast, Consistent Kernel Two-Sample Test", NeurIPS 2009).  For a
power-series dot-product kernel the operator splits by spherical-harmonic
degree into small matrices of kernel coefficients and radial moments
(``null_spectrum``).  A null table holds sorted seeded draws of that limit,
plus an exponential tail fitted to the top 5% so that p-values far outside
the drawn range decay smoothly instead of saturating at 1 / n_sims.
"""

from __future__ import annotations

import math
import struct
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .io import atomic_write_bytes
from .kernels import EXP_DOT, GEOMETRIC, PowerSeriesKernel

TAIL_MASS = 0.05
P_FLOOR = 1e-300

# A table is the statistic's large-n limit, the same for every n.  n_ref is
# still accepted by NullCache and checked on --null-nref, because the
# benchmark passes it, and has no effect.
DEFAULT_N_REF = 500
DEFAULT_N_SIMS = 100_000
MIN_N_REF = 50
MIN_N_SIMS = 200

# A table's draws leave out the chi-square terms of least variance, as long
# as their summed variance stays below this share of the total (a standard
# deviation below 1e-6 of the statistic's); each left-out term adds its mean.
_DROPPED_VARIANCE = 1e-12

# The file header: the magic, then the table's identity (d, kind code,
# param, order, n_sims, seed).
_MAGIC = b"SSNULL03"
_HEADER = struct.Struct("<8sIIdIIQ")
_KIND_CODES = {GEOMETRIC: 0, EXP_DOT: 1}


@dataclass(frozen=True)
class NullTable:
    """Sorted draws of the null limit of n * MMD^2 for one disk dimension.

    The fields before ``stats`` are the table's identity, everything it
    depends on (``kind``, ``param`` and ``order`` as in the kernel's
    fingerprint).  ``stats`` holds n_sims draws of sum_i lambda_i z_i^2
    over the kernel's centred spectrum on the uniform d-disk, sorted; they
    stand for k * MMD^2 at every neighborhood size k.  The exponential tail
    is fitted on construction: MLE to the exceedances above the
    (1 - TAIL_MASS) quantile.
    """

    d: int
    kind: str
    param: float
    order: int
    n_sims: int
    seed: int
    stats: np.ndarray
    tail_rate: float = field(init=False)
    tail_anchor: float = field(init=False)

    def __post_init__(self) -> None:
        stats = self.stats
        if stats.size != self.n_sims:
            raise ValueError("stats length does not match n_sims")
        if not np.all(np.isfinite(stats)) or np.any(np.diff(stats) < 0) or np.any(stats < 0):
            raise ValueError("stats not a sorted nonnegative array")
        anchor = float(np.quantile(stats, 1.0 - TAIL_MASS))
        excess = stats[stats > anchor] - anchor
        if excess.size == 0 or excess.mean() <= 0.0:
            raise ValueError("null degenerate: no positive tail exceedances")
        object.__setattr__(self, "tail_rate", 1.0 / float(excess.mean()))
        object.__setattr__(self, "tail_anchor", anchor)


def _harmonic_dimension(d: int, degree: int) -> int:
    """Number of independent spherical harmonics of the degree on the
    sphere of R^d; at d = 1, the two points {-1, 1}, one each of degree 0
    and 1."""
    if d == 1:
        return 1
    lower = math.comb(degree + d - 3, d - 1) if degree >= 2 else 0
    return math.comb(degree + d - 1, d - 1) - lower


def null_spectrum(kernel: PowerSeriesKernel, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the kernel, truncated at power 2 * order, centred under
    the uniform d-disk, and the multiplicity of each.

    With x = r u and y = s v, the power t^k of t = <u, v> expands in the
    Gegenbauer polynomials P_l (P_l(1) = 1, l <= k of k's parity), and each
    degree l contributes N(d, l) copies of the radial kernel
    sum_k C_k r^k s^k with C_k = a_k E_t[t^k P_l(t)] over independent
    uniform directions.  On the radial monomials its operator is C^(1/2) G
    C^(1/2), with G_kk' = d / (d + k + k') the disk's radial moments.  The
    mean embedding is radial, so centring replaces G by G - g g^T, with
    g_k = d / (d + k), in degree 0 alone.  The multiplicity-weighted sum of
    the eigenvalues is n * ``expected_mmd_sq``.  Rounding leaves some
    eigenvalues just below zero, about 1e-20 or less in magnitude for the
    workload kernels; they are returned as 0.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    top = 2 * kernel.order
    values, counts = [], []
    for degree in range(min(top, 1) + 1 if d == 1 else top + 1):
        k = np.arange(degree, top + 1, 2)
        j = (k - degree) // 2
        # E_t[t^k P_l(t)] = 2^-l k! / (k - l)! Gamma(j + 1/2) Gamma(d/2)
        #                  / (sqrt(pi) Gamma(j + l + d/2)),  k = l + 2j.
        log_moment = (
            gammaln(k + 1.0) - gammaln(k - degree + 1.0) + gammaln(j + 0.5)
            + gammaln(d / 2.0) - gammaln(j + degree + d / 2.0)
            - degree * math.log(2.0) - 0.5 * math.log(math.pi)
        )
        root = np.sqrt(kernel.coefficients(k) * np.exp(log_moment))
        gram = d / (d + k[:, None] + k[None, :])
        if degree == 0:
            mean = d / (d + k)
            gram -= np.outer(mean, mean)
        values.append(np.maximum(np.linalg.eigvalsh(root[:, None] * gram * root[None, :]), 0.0))
        counts.append(np.full(k.size, float(_harmonic_dimension(d, degree))))
    return np.concatenate(values), np.concatenate(counts)


def build_null(d: int, kernel: PowerSeriesKernel, n_sims: int, seed: int = 0) -> NullTable:
    """n_sims draws of sum lambda * chi^2_N over ``null_spectrum(kernel, d)``,
    sorted.

    The random stream is seeded by the table's identity, so the table is
    bit for bit the one a ``NullCache`` of that seed holds.  The terms are
    drawn one at a time, in descending order of variance 2 N lambda^2, each
    as n_sims chi-square values.  The terms of least variance whose summed
    variance stays below _DROPPED_VARIANCE of the total are not drawn; their
    mean sum N lambda is added instead.  A table costs milliseconds and
    starts no thread.
    """
    if n_sims < MIN_N_SIMS:
        raise ValueError(f"n_sims must be >= {MIN_N_SIMS}")
    identity = (d, *kernel.fingerprint(), n_sims, seed)
    rng = np.random.default_rng(np.random.SeedSequence(_seed_entropy(identity)))
    values, counts = null_spectrum(kernel, d)
    variance = 2.0 * counts * values**2
    order = np.argsort(variance, kind="stable")
    left_out = np.cumsum(variance[order]) <= _DROPPED_VARIANCE * variance.sum()
    dropped, kept = order[left_out], order[~left_out][::-1]
    stats = np.full(n_sims, float(np.sum(counts[dropped] * values[dropped])))
    for i in kept:
        stats += values[i] * rng.chisquare(counts[i], n_sims)
    stats.sort()
    return NullTable(*identity, stats)


def p_value(table: NullTable, k_obs, mmd_sq_obs):
    """Survival probability of the scaled statistic k_obs * mmd_sq_obs.

    Inside the drawn range the smoothed empirical survival fraction is
    used; beyond the tail anchor the fitted exponential takes over, floored
    at 1e-300 so downstream logs stay finite.  Scalars give a float; arrays
    (broadcast together) give an array of p-values.
    """
    k = np.asarray(k_obs)
    if np.any(k < 1):
        raise ValueError("k_obs must be >= 1")
    s = k * np.asarray(mmd_sq_obs, dtype=float)
    n_ge = table.n_sims - np.searchsorted(table.stats, s, side="left")
    p = (n_ge + 1) / (table.n_sims + 1)
    tail = s > table.tail_anchor
    if np.any(tail):
        p = np.asarray(p, dtype=float)
        p[tail] = np.maximum(
            TAIL_MASS * np.exp(-table.tail_rate * (s[tail] - table.tail_anchor)),
            P_FLOOR,
        )
    return float(p) if np.ndim(p) == 0 else p


def _table_filename(identity: tuple) -> str:
    return "null_d{}_{}{:.15g}_o{}_{}_s{}.bin".format(*identity)


def _header(identity: tuple) -> bytes:
    d, kind, *rest = identity
    return _HEADER.pack(_MAGIC, d, _KIND_CODES[kind], *rest)


def _seed_entropy(identity: tuple) -> list[int]:
    """Entropy of a table's build: its identity with the parameter in
    millionths."""
    d, kind, param, order, n_sims, seed = identity
    return [seed, d, _KIND_CODES[kind], int(round(param * 1e6)), order, n_sims]


def _write_table(path: Path, identity: tuple, stats: np.ndarray) -> None:
    atomic_write_bytes(path, [_header(identity), stats.astype("<f8").tobytes()])


def _read_table(path: Path, identity: tuple) -> NullTable:
    """The table stored at ``path``; ValueError unless its header is
    ``identity``'s and its statistics are whole."""
    raw = path.read_bytes()
    if raw[: _HEADER.size] != _header(identity):
        raise ValueError("header does not match the table's identity")
    return NullTable(*identity, np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy())


class NullCache:
    """Lazily built, optionally disk-backed store of null tables.

    A table is keyed by its identity: d, the kernel's fingerprint, n_sims
    and the configured seed.  The identity names the table's file, fills
    its header and seeds its build, so the table for a given identity is
    the same no matter in which order dimensions are encountered, and
    caches of several seeds share a directory.  A file that fails to parse,
    or whose header is not its identity's, is rebuilt and overwritten.
    ``n_ref`` is accepted and has no effect: a table is the large-n limit.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        seed: int = 0,
        n_ref: int = DEFAULT_N_REF,
        n_sims: int = DEFAULT_N_SIMS,
    ):
        self.directory = Path(directory) if directory is not None else None
        self.seed = int(seed)
        self.n_sims = int(n_sims)
        self._tables: dict[tuple, NullTable] = {}
        self._lock = threading.RLock()

    def get(self, d: int, kernel: PowerSeriesKernel) -> NullTable:
        identity = (d, *kernel.fingerprint(), self.n_sims, self.seed)
        with self._lock:
            if identity not in self._tables:
                self._tables[identity] = self._load(identity, kernel)
            return self._tables[identity]

    def _load(self, identity: tuple, kernel: PowerSeriesKernel) -> NullTable:
        """Read the table's file; else build the table, with a warning if the
        file was there, and write it."""
        path = None if self.directory is None else self.directory / _table_filename(identity)
        if path is not None and path.exists():
            try:
                return _read_table(path, identity)
            except ValueError as exc:
                warnings.warn(f"rebuilding null table {path.name}: {exc}", stacklevel=3)
        table = build_null(identity[0], kernel, self.n_sims, self.seed)
        if path is not None:
            _write_table(path, identity, table.stats)
        return table
