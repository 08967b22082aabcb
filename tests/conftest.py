"""Shared fixtures: small, fast configurations used across the suite."""

from __future__ import annotations

import pytest

from repro.config import CmpConfig, NetworkConfig


@pytest.fixture
def mesh4() -> NetworkConfig:
    """4x4 mesh baseline — small enough for fast cycle-level tests."""
    return NetworkConfig(k=4, n=2)


@pytest.fixture
def mesh8() -> NetworkConfig:
    """The paper's 8x8 baseline."""
    return NetworkConfig(k=8, n=2)


@pytest.fixture
def torus4() -> NetworkConfig:
    return NetworkConfig(topology="torus", k=4, n=2)


@pytest.fixture
def ring16() -> NetworkConfig:
    return NetworkConfig(topology="ring", k=4, n=2)


@pytest.fixture
def cmp_small() -> CmpConfig:
    """16-core CMP with small caches so miss behaviour shows up quickly."""
    return CmpConfig(l1_lines=64, l1_assoc=4, l2_lines_per_tile=256, l2_assoc=8)


@pytest.fixture
def executors_made(monkeypatch) -> list:
    """Every ``ProcessPoolExecutor`` the sweep layer constructs, in order.

    Counts forks of a whole worker set: a caller that shares one
    :class:`~repro.core.parallel.WorkerPool` across sweeps makes one
    executor, plus one per rebuild.
    """
    import repro.core.parallel as parallel

    made: list = []

    class CountingExecutor(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingExecutor)
    return made
