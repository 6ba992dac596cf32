import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nsmild import cli, grid, io, make_grid, operators, solver, verification


def full_lattice(torus) -> SimpleNamespace:
    """The symbols of a TorusGrid on the full lattice, by the per-wavenumber formulas of
    `TorusGrid.__post_init__`: `k_int`, `k`, `k_sq`, `inv_k_sq` (0 at k = 0),
    `dealias_mask` and `nyquist_mask`. The grid's `*_half` symbols are their first n/2+1
    last-axis columns."""
    k_int = np.stack(np.meshgrid(*[torus.modes] * torus.dim, indexing="ij"))
    k = k_int * (grid.TWO_PI / torus.period)
    k_sq = np.sum(k * k, axis=0)
    inv_k_sq = np.zeros_like(k_sq)
    nonzero = k_sq > 0
    inv_k_sq[nonzero] = 1.0 / k_sq[nonzero]
    abs_int = np.abs(k_int)
    return SimpleNamespace(k_int=k_int, k=k, k_sq=k_sq, inv_k_sq=inv_k_sq,
                           dealias_mask=np.all(abs_int <= torus.dealias_cutoff, axis=0),
                           nyquist_mask=np.any(abs_int == torus.n_modes // 2, axis=0))


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
