import numpy as np
import pytest

from singscan import NullCache
from singscan.scoring import KDE_GRID_SIZE


@pytest.fixture(scope="session")
def null_cache(tmp_path_factory):
    """Disk-backed cache shared across the whole run so tables amortize."""
    return NullCache(tmp_path_factory.mktemp("nulls"), seed=0)


def _kde_per_value(values):
    """The per-value Gaussian sum that ``scoring.kde_density`` weights by
    count: same bandwidth and grid, one column per value, in order."""
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    bw = 1.06 * float(v.std(ddof=1)) * v.size ** (-0.2)
    grid = np.linspace(v.min() - bw, v.max() + bw, KDE_GRID_SIZE)
    density = np.zeros(KDE_GRID_SIZE)
    for start in range(0, v.size, 4096):
        z = (grid[:, None] - v[None, start : start + 4096]) / bw
        density += np.exp(-0.5 * z * z).sum(axis=1)
    density /= v.size * bw * np.sqrt(2.0 * np.pi)
    return grid, density


@pytest.fixture(scope="session")
def kde_oracle():
    """Reference for ``scoring.kde_density`` (tests of scoring and tuning)."""
    return _kde_per_value
