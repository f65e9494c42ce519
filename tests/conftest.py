import os
from contextlib import contextmanager

import pytest

from e6cs import characters, hamiltonian


@pytest.fixture(scope="session", autouse=True)
def session_cache(tmp_path_factory):
    """Keep the character cache inside the test session's tmp directory."""
    path = tmp_path_factory.mktemp("character-cache")
    old = os.environ.get(characters.CACHE_ENV)
    os.environ[characters.CACHE_ENV] = str(path)
    characters.clear_memory_cache()
    yield path
    characters.clear_memory_cache()
    if old is None:
        os.environ.pop(characters.CACHE_ENV, None)
    else:
        os.environ[characters.CACHE_ENV] = old


@pytest.fixture
def term_index():
    """Position of an exponent among a cache entry's terms, read from its
    `exps` hex string, six exponents per term, one byte each."""
    def find(payload, exp):
        raw = bytes.fromhex(payload["exps"])
        return [tuple(raw[i:i + 6]) for i in range(0, len(raw), 6)].index(exp)
    return find


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """An empty character cache in tmp_path for this test alone, with the
    memory tier cleared before and after it."""
    monkeypatch.setenv(characters.CACHE_ENV, str(tmp_path))
    characters.clear_memory_cache()
    yield tmp_path
    characters.clear_memory_cache()


@pytest.fixture(scope="session")
def fresh_index():
    """A context manager that runs the operator on an empty exponent index,
    then restores the old one.  Faults are planted in the index it yields."""
    @contextmanager
    def fresh():
        saved = hamiltonian._INDEX
        hamiltonian._INDEX = hamiltonian.ExponentIndex()
        try:
            yield hamiltonian._INDEX
        finally:
            hamiltonian._INDEX = saved
    return fresh
