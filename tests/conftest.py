import pytest

from singscan import NullCache


@pytest.fixture(scope="session")
def null_cache(tmp_path_factory):
    """Disk-backed cache shared across the whole run so tables amortize."""
    return NullCache(tmp_path_factory.mktemp("nulls"), seed=0)
