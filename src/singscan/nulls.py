"""Monte-Carlo null distributions of the scaled statistic n * MMD^2.

A null table holds the sorted simulated values of n_ref * MMD^2 for samples
drawn from the uniform d-disk, plus an exponential tail fitted to the top 5%
so that p-values far outside the simulated range decay smoothly instead of
saturating at 1 / n_sims.
"""

from __future__ import annotations

import struct
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import BLOCK_BYTES
from .io import atomic_write_bytes
from .kernels import EXP_DOT, GEOMETRIC, PowerSeriesKernel, mmd_sq_stack

TAIL_MASS = 0.05
P_FLOOR = 1e-300

DEFAULT_N_REF = 500
DEFAULT_N_SIMS = 1000
MIN_N_REF = 50
MIN_N_SIMS = 200

_MAGIC = b"SSNULL01"
_HEADER = struct.Struct("<8sIIdIIQ")
_KIND_CODES = {GEOMETRIC: 0, EXP_DOT: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass(frozen=True)
class NullTable:
    """Simulated null distribution of n_ref * MMD^2 for one disk dimension."""

    d: int
    kind: str
    param: float
    n_ref: int
    n_sims: int
    seed: int
    stats: np.ndarray
    tail_rate: float
    tail_anchor: float
    tail_mass: float = TAIL_MASS


def sample_uniform_ball(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the uniform distribution on the unit d-ball.

    Direction from normalized standard normals, radius U^(1/d).
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    radii = rng.random(n) ** (1.0 / d)
    return g * (radii / norms)[:, None]


def _fit_tail(stats: np.ndarray) -> tuple[float, float]:
    """MLE exponential fit to exceedances above the (1 - TAIL_MASS) quantile."""
    anchor = float(np.quantile(stats, 1.0 - TAIL_MASS))
    excess = stats[stats > anchor] - anchor
    if excess.size == 0 or excess.mean() <= 0.0:
        raise ValueError("null degenerate: no positive tail exceedances")
    return 1.0 / float(excess.mean()), anchor


def build_null(
    d: int,
    kernel: PowerSeriesKernel,
    n_ref: int,
    n_sims: int,
    rng: np.random.Generator,
    seed: int = 0,
) -> NullTable:
    """Simulate n_sims independent values of n_ref * MMD^2 under the null.

    Sample i is drawn from the i-th child spawned from ``rng``; the samples
    are stacked in chunks of about BLOCK_BYTES, one ``mmd_sq_stack`` call per
    chunk, and each value does not depend on the chunking.  At d = 1 a
    sample's Gram comes from power sums when n_ref >= 4T; otherwise, and at
    every d >= 2, from the closed form of its upper block-triangle in row
    blocks of about CACHE_BYTES, which is most of the cost of a build.
    """
    if n_ref < MIN_N_REF:
        raise ValueError(f"n_ref must be >= {MIN_N_REF}")
    if n_sims < MIN_N_SIMS:
        raise ValueError(f"n_sims must be >= {MIN_N_SIMS}")
    stats = np.empty(n_sims)
    children = rng.spawn(n_sims)
    per_chunk = max(1, BLOCK_BYTES // (8 * n_ref * d))
    for a in range(0, n_sims, per_chunk):
        stack = np.stack([sample_uniform_ball(d, n_ref, c) for c in children[a : a + per_chunk]])
        stats[a : a + len(stack)] = n_ref * mmd_sq_stack(stack, kernel)
    stats.sort()
    rate, anchor = _fit_tail(stats)
    kind, param = kernel.fingerprint()
    return NullTable(d, kind, param, n_ref, n_sims, seed, stats, rate, anchor)


def p_value(table: NullTable, k_obs, mmd_sq_obs):
    """Survival probability of the scaled statistic k_obs * mmd_sq_obs.

    Inside the simulated range the smoothed empirical survival fraction is
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
            table.tail_mass * np.exp(-table.tail_rate * (s[tail] - table.tail_anchor)),
            P_FLOOR,
        )
    return float(p) if np.ndim(p) == 0 else p


def _table_filename(d: int, kind: str, param: float, n_ref: int, n_sims: int, seed: int) -> str:
    return f"null_d{d}_{kind}{round(param, 6):g}_{n_ref}_{n_sims}_s{seed}.bin"


def _write_table(path: Path, table: NullTable) -> None:
    header = _HEADER.pack(
        _MAGIC,
        table.d,
        _KIND_CODES[table.kind],
        table.param,
        table.n_ref,
        table.n_sims,
        table.seed,
    )
    atomic_write_bytes(path, header + table.stats.astype("<f8").tobytes())


def _read_table(path: Path) -> NullTable:
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError("truncated header")
    magic, d, kind_code, param, n_ref, n_sims, seed = _HEADER.unpack_from(raw)
    if magic != _MAGIC or kind_code not in _KIND_NAMES:
        raise ValueError("bad magic or kind")
    stats = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy()
    if stats.size != n_sims:
        raise ValueError("stats length does not match header")
    if not np.all(np.isfinite(stats)) or np.any(np.diff(stats) < 0) or np.any(stats < 0):
        raise ValueError("stats not a sorted nonnegative array")
    rate, anchor = _fit_tail(stats)
    return NullTable(d, _KIND_NAMES[kind_code], param, n_ref, n_sims, seed, stats, rate, anchor)


class NullCache:
    """Lazily built, optionally disk-backed store of null tables.

    Tables are keyed by (d, kernel fingerprint, n_ref, n_sims); the build seed
    is derived from the configured seed and the key, so the table for a given
    key is the same no matter in which order dimensions are encountered.  On
    disk the file name holds the key and the seed, so caches of several seeds
    share a directory.  A persisted table whose header does not match the key
    and seed (or that fails to parse) is rebuilt and overwritten.
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
        self.n_ref = int(n_ref)
        self.n_sims = int(n_sims)
        self._tables: dict[tuple, NullTable] = {}
        self._lock = threading.RLock()

    def _derived_seed_entropy(self, d: int, kernel: PowerSeriesKernel) -> list[int]:
        kind, param = kernel.fingerprint()
        return [
            self.seed,
            d,
            _KIND_CODES[kind],
            int(round(param * 1e6)),
            self.n_ref,
            self.n_sims,
        ]

    def _build(self, d: int, kernel: PowerSeriesKernel) -> NullTable:
        rng = np.random.default_rng(
            np.random.SeedSequence(self._derived_seed_entropy(d, kernel))
        )
        return build_null(d, kernel, self.n_ref, self.n_sims, rng, seed=self.seed)

    def get(self, d: int, kernel: PowerSeriesKernel) -> NullTable:
        kind, param = kernel.fingerprint()
        key = (d, kind, param, self.n_ref, self.n_sims)
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                return table
            if self.directory is not None:
                self.directory.mkdir(parents=True, exist_ok=True)
                path = self.directory / _table_filename(*key, self.seed)
                if path.exists():
                    try:
                        table = _read_table(path)
                        if (
                            (table.d, table.kind, table.param, table.n_ref, table.n_sims)
                            != key
                            or table.seed != self.seed
                        ):
                            raise ValueError("header does not match key or seed")
                    except ValueError as exc:
                        warnings.warn(
                            f"rebuilding null table {path.name}: {exc}", stacklevel=2
                        )
                        table = None
                if table is None:
                    table = self._build(d, kernel)
                    _write_table(path, table)
            else:
                table = self._build(d, kernel)
            self._tables[key] = table
            return table
