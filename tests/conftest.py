import pytest

from derhed.linalg import PrimeField
from derhed.paths import PathEngine


@pytest.fixture(scope="session")
def fld():
    return PrimeField()


@pytest.fixture
def solves(monkeypatch) -> list[str]:
    """The source of each single-source solve from here on: each call of
    PathEngine.row that adds a row to its engine's cache."""
    sources = []
    real = PathEngine.row

    def counting(self, x):
        fresh = x not in self._dist_cache
        row = real(self, x)
        if fresh:
            sources.append(x)
        return row

    monkeypatch.setattr(PathEngine, "row", counting)
    return sources
