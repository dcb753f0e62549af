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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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

# The file header: the magic, then the table's identity (d, kind code,
# param, order, n_ref, n_sims, seed).
_MAGIC = b"SSNULL02"
_HEADER = struct.Struct("<8sIIdIIIQ")
_KIND_CODES = {GEOMETRIC: 0, EXP_DOT: 1}


@dataclass(frozen=True)
class NullTable:
    """Simulated null distribution of n_ref * MMD^2 for one disk dimension.

    The fields before ``stats`` are the table's identity, everything it
    depends on (``kind``, ``param`` and ``order`` as in the kernel's
    fingerprint).  The exponential tail is fitted on construction: MLE to
    the exceedances above the (1 - TAIL_MASS) quantile.
    """

    d: int
    kind: str
    param: float
    order: int
    n_ref: int
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


def sample_uniform_ball(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the uniform distribution on the unit d-ball.

    Direction from normalized standard normals, radius U^(1/d).
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    return _ball_samples(d, n, [rng])[0]


def _ball_samples(d: int, n: int, rngs) -> np.ndarray:
    """(len(rngs), n, d) stack of samples of ``sample_uniform_ball``, sample
    i drawn from ``rngs[i]``: its (n, d) standard normals, then its n
    uniforms.  The norms, radii and scaling are taken over the whole stack."""
    normals = np.empty((len(rngs), n, d))
    uniforms = np.empty((len(rngs), n))
    for rng, g, u in zip(rngs, normals, uniforms):
        rng.standard_normal(out=g)
        rng.random(out=u)
    norms = np.linalg.norm(normals, axis=2)
    norms[norms == 0.0] = 1.0
    radii = uniforms ** (1.0 / d)
    normals *= (radii / norms)[:, :, None]
    return normals


def build_null(
    d: int,
    kernel: PowerSeriesKernel,
    n_ref: int,
    n_sims: int,
    rng: np.random.Generator,
    seed: int = 0,
) -> NullTable:
    """Simulate n_sims independent values of n_ref * MMD^2 under the null.

    Sample i is drawn from the i-th child spawned from ``rng``.  The samples
    are split into two halves: this thread scores the first and one worker
    thread the second, each in parts drawn as one array and scored by one
    ``mmd_sq_stack`` call.  Two parts are alive at once, so each is planned
    against BLOCK_BYTES / 2.  A value does not depend on its part or thread,
    so the table is the same as on one thread.  At d = 1 a sample's Gram
    comes from power sums when n_ref >= 4T; otherwise, and at every d >= 2,
    from the closed form of its upper block-triangle in row blocks of about
    CACHE_BYTES, which is most of the cost of a build and runs with the GIL
    released.  The worker lives only for the call.
    """
    if n_ref < MIN_N_REF:
        raise ValueError(f"n_ref must be >= {MIN_N_REF}")
    if n_sims < MIN_N_SIMS:
        raise ValueError(f"n_sims must be >= {MIN_N_SIMS}")
    stats = np.empty(n_sims)
    children = rng.spawn(n_sims)
    # A part holds its normals and its uniforms: d + 1 floats per point.
    per_part = max(1, BLOCK_BYTES // 2 // (8 * n_ref * (d + 1)))

    def score(lo: int, hi: int) -> None:
        for a in range(lo, hi, per_part):
            b = min(a + per_part, hi)
            stack = _ball_samples(d, n_ref, children[a:b])
            stats[a:b] = n_ref * mmd_sq_stack(stack, kernel)

    half = n_sims // 2
    with ThreadPoolExecutor(max_workers=1) as worker:
        second = worker.submit(score, half, n_sims)
        score(0, half)
        second.result()
    stats.sort()
    return NullTable(d, *kernel.fingerprint(), n_ref, n_sims, seed, stats)


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
            TAIL_MASS * np.exp(-table.tail_rate * (s[tail] - table.tail_anchor)),
            P_FLOOR,
        )
    return float(p) if np.ndim(p) == 0 else p


def _table_filename(identity: tuple) -> str:
    return "null_d{}_{}{:.15g}_o{}_{}_{}_s{}.bin".format(*identity)


def _header(identity: tuple) -> bytes:
    d, kind, *rest = identity
    return _HEADER.pack(_MAGIC, d, _KIND_CODES[kind], *rest)


def _seed_entropy(identity: tuple) -> list[int]:
    """Entropy of a table's build: its identity with the parameter in
    millionths and without ``order``, which keeps every table as earlier
    versions built it."""
    d, kind, param, _, n_ref, n_sims, seed = identity
    return [seed, d, _KIND_CODES[kind], int(round(param * 1e6)), n_ref, n_sims]


def _write_table(path: Path, identity: tuple, stats: np.ndarray) -> None:
    atomic_write_bytes(path, _header(identity) + stats.astype("<f8").tobytes())


def _read_table(path: Path, identity: tuple) -> NullTable:
    """The table stored at ``path``; ValueError unless its header is
    ``identity``'s and its statistics are whole."""
    raw = path.read_bytes()
    if raw[: _HEADER.size] != _header(identity):
        raise ValueError("header does not match the table's identity")
    return NullTable(*identity, np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy())


class NullCache:
    """Lazily built, optionally disk-backed store of null tables.

    A table is keyed by its identity: d, the kernel's fingerprint, n_ref,
    n_sims and the configured seed.  The identity names the table's file,
    fills its header and seeds its build, so the table for a given identity
    is the same no matter in which order dimensions are encountered, and
    caches of several seeds share a directory.  A file that fails to parse,
    or whose header is not its identity's, is rebuilt and overwritten.
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

    def get(self, d: int, kernel: PowerSeriesKernel) -> NullTable:
        identity = (d, *kernel.fingerprint(), self.n_ref, self.n_sims, self.seed)
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
        rng = np.random.default_rng(np.random.SeedSequence(_seed_entropy(identity)))
        table = build_null(identity[0], kernel, self.n_ref, self.n_sims, rng, seed=self.seed)
        if path is not None:
            _write_table(path, identity, table.stats)
        return table
