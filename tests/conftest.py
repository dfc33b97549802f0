import pytest

from derhed.linalg import PrimeField
from derhed.paths import PathEngine


@pytest.fixture(scope="session")
def fld():
    return PrimeField()


@pytest.fixture
def solves(monkeypatch) -> list[str]:
    """The source of each single-source solve from here on: each call of
    PathEngine._run_source that adds a row to its engine's cache."""
    sources = []
    real = PathEngine._run_source

    def counting(self, s):
        fresh = s not in self._dist_cache
        real(self, s)
        if fresh:
            sources.append(s)

    monkeypatch.setattr(PathEngine, "_run_source", counting)
    return sources
