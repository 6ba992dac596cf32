import tracemalloc

import numpy as np
import pytest

from nsmild import cli, grid, io, make_grid, operators, solver, verification


@pytest.fixture(scope="session")
def traced_peak():
    """peak(call, *args, **kwargs) -> (result, peak bytes tracemalloc saw during the call)."""

    def peak(call, *args, **kwargs):
        tracemalloc.start()
        try:
            result = call(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def full_spectrum_calls(monkeypatch):
    """A list that grows by one at each call of grid._full_spectrum, from any module."""
    calls = []
    original = grid._full_spectrum

    def counted(*args):
        calls.append(1)
        return original(*args)

    for module in (grid, operators, solver, io, cli, verification):
        if hasattr(module, "_full_spectrum"):
            monkeypatch.setattr(module, "_full_spectrum", counted)
    return calls


@pytest.fixture(scope="session")
def grid3():
    return make_grid(3, 16)


@pytest.fixture(scope="session")
def grid2():
    return make_grid(2, 32)


@pytest.fixture(scope="session")
def grid3_32():
    return make_grid(3, 32)


def pytest_configure(config):
    # keep runs reproducible regardless of ambient state
    np.random.seed(0)
