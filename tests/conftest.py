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


def half_columns(coeffs, torus):
    """The first n/2+1 last-axis columns of a full lattice (wavenumbers 0..n/2): the half
    spectrum that `SpectralVectorField` takes and that fixes a Hermitian lattice."""
    return coeffs[..., : torus.n_modes // 2 + 1]


def same_bytes(a, b) -> bool:
    """Equal shape, dtype and bytes: -0.0 and 0.0 differ, and NaNs compare by their bits."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def with_specials(a: np.ndarray) -> np.ndarray:
    """A copy of a with +-0, +-inf, NaN, a subnormal and a huge value in its first and
    last entries (in the real and the imaginary part of a complex array)."""
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e300])
    out = a.copy()
    flat = out.reshape(-1)
    flat[: special.size] = special
    flat[-special.size:] = [complex(0.0, x) for x in special] if np.iscomplexobj(a) else special
    return out


# the sizes at which the rewritten operators are compared with the expressions they replaced
LEAN_SIZES = [(2, 32), (2, 256), (3, 16), (3, 32)]


def reference_leray(torus, coeffs):
    """`grid.leray_symbol_apply` as one expression with its temporaries."""
    xyz = "xyz"[: torus.dim]
    k_dot = np.einsum(f"i{xyz},...i{xyz}->...{xyz}", torus.k_half, coeffs)
    return coeffs - torus.k_half * np.expand_dims(k_dot * torus.inv_k_sq_half, -torus.dim - 1)


def lean_batch(torus):
    """A batch of two drawn halves, and its copy with special values."""
    batch = np.stack([grid.random_divfree_field(torus, seed).half for seed in (1, 2)])
    return batch, with_specials(batch)


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
