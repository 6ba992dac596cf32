"""Fourier-diagonal operator calculus on the torus.

Projection onto the divergence-free subspace, Laplacian, resolvents, the heat
semigroup, fractional Laplacian powers, the exponential-integrator weight,
the advection nonlinearity, and the L_p / fractional-power norms. Every
linear operator here is a modewise multiplier, so algebraic identities
(idempotence, resolvent identity, semigroup law, power composition) hold to
roundoff and the tests assert them at 1e-12.

Fields and symbols are half spectra, so every multiplier is the
product of two halves and every result is a half; nothing here forms the full lattice.

The projected nonlinearity F(u) = -P (u . grad) u has one kernel,
`projected_nonlinearity`, on arrays with any leading batch axes. With
dealiasing on it evaluates -P div(u (x) u) with real transforms of the half
spectrum; the grid's cutoff satisfies 3 * cutoff < n, so this is exact for
divergence-free u on the retained modes. Without dealiasing it uses the
advective form of `advect` (`_half_advect`), the reference, on the whole batch at
once. Physical-space values come from the grid's real inverse transform `_irfft`
and return through its exactly Hermitian forward transform `_rfft`. Energy,
enstrophy and the L_2 inner product are weighted half sums (`_half_sum`).

The operators reuse their temporaries through in-place ufuncs and `out=`, in the
operand order of the plain expression, so that a result has that expression's bits,
signed zeros and NaNs included. An inverse transform of a temporary runs in it
(`overwrite=True`); the dealiased kernel's products and weighted transforms share one
complex scratch array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .grid import (
    DIV_TOL,
    SpectralVectorField,
    _half_sum,
    _irfft,
    _require_mean_zero,
    _require_same_grid,
    _rfft,
    inverse_transform,
    leray_symbol_apply,
)


@dataclass(frozen=True)
class FracNormParams:
    """Exponent pair for the fractional norm |(-Lap)^alpha u|_{L_p}."""

    alpha: float
    p: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.p < 2.0:
            raise ValueError(f"p must be >= 2, got {self.p}")


def leray_project(u: SpectralVectorField) -> SpectralVectorField:
    """Orthogonal projection onto divergence-free fields: uhat -> uhat - k (k.uhat)/|k|^2.

    Mode 0 is left unchanged; gradient fields are annihilated.
    """
    return SpectralVectorField(u.grid, leray_symbol_apply(u.grid, u.half))


def laplacian(u: SpectralVectorField) -> SpectralVectorField:
    return SpectralVectorField(u.grid, u.half * -u.grid.k_sq_half)


def resolvent(lam: float, u: SpectralVectorField) -> SpectralVectorField:
    """(lam I - Lap)^{-1}, modewise 1/(lam + |k|^2); requires lam > 0."""
    if not lam > 0:
        raise ValueError(f"resolvent requires lambda > 0, got {lam}")
    return SpectralVectorField(u.grid, u.half * (1.0 / (lam + u.grid.k_sq_half)))


def apply_shifted_laplacian(lam: float, u: SpectralVectorField) -> SpectralVectorField:
    """(lam I - Lap), the inverse of the resolvent at lam."""
    return SpectralVectorField(u.grid, u.half * (lam + u.grid.k_sq_half))


def heat_semigroup(t: float, nu: float, u: SpectralVectorField) -> SpectralVectorField:
    """exp(t nu Lap), modewise exp(-nu t |k|^2); identity at t = 0."""
    if t < 0:
        raise ValueError(f"heat semigroup requires t >= 0, got {t}")
    if not nu > 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    return SpectralVectorField(u.grid, u.half * np.exp(-nu * t * u.grid.k_sq_half))


def frac_power(alpha: float, u: SpectralVectorField) -> SpectralVectorField:
    """(-Lap)^alpha on the mean-zero subspace, modewise |k|^(2 alpha).

    Negative alpha gives the bounded inverse; the zero mode must vanish and
    is pinned to zero in the output.
    """
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha}")
    _require_mean_zero(u, "fractional power")
    grid = u.grid
    k_sq = grid.k_sq_half
    symbol = np.zeros_like(k_sq)
    nonzero = k_sq > 0
    symbol[nonzero] = k_sq[nonzero] ** alpha
    return SpectralVectorField(grid, u.half * symbol)


def _phi1_of(z: np.ndarray) -> np.ndarray:
    """phi1(z) = expm1(z)/z, and 1 at z = 0; expm1 keeps full precision for small |z|."""
    z = np.asarray(z, dtype=np.float64)
    out = np.ones_like(z)  # before expm1's array: the reverse order ran 1 MiB higher peak RSS
    return np.divide(np.expm1(z), z, out=out, where=z != 0)


def phi1(h: float, nu: float, u: SpectralVectorField) -> SpectralVectorField:
    """Exponential-integrator weight phi1(-nu h |k|^2); mode 0 gets factor 1."""
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    return SpectralVectorField(u.grid, u.half * _phi1_of(-nu * h * u.grid.k_sq_half))


def advect(
    u: SpectralVectorField, v: SpectralVectorField, apply_dealias: bool = True
) -> SpectralVectorField:
    """(u . grad) v, computed pseudospectrally.

    Differentiates in Fourier space, multiplies on the collocation lattice,
    transforms back. With dealiasing on (the default), inputs and output are
    truncated by the two-thirds rule so the retained product modes are exact.
    The result is generally not divergence-free.
    """
    _require_same_grid(u.grid, v.grid)
    return SpectralVectorField(u.grid, _half_advect(u.grid, u.half, v.half, apply_dealias))


def _half_advect(grid, u: np.ndarray, v: np.ndarray, apply_dealias: bool) -> np.ndarray:
    """The half spectrum of `advect` of half spectra (..., dim) + grid.half_shape."""
    half = _rfft(_advect_samples(grid, u, v, apply_dealias), grid)
    if apply_dealias:
        half *= grid.dealias_mask_half
    return half


def _advect_samples(grid, u: np.ndarray, v: np.ndarray, apply_dealias: bool) -> np.ndarray:
    """Samples of (u . grad) v, in a frame of its own so that its temporaries are freed
    before `_half_advect`'s `_rfft` allocates."""
    d = grid.dim
    k, mask = grid.k_half, grid.dealias_mask_half
    u_phys = _irfft(u * mask, grid, overwrite=True) if apply_dealias else _irfft(u, grid)
    if apply_dealias:
        v = v * mask
    out = np.zeros_like(u_phys)
    v_rows, out_rows = (np.moveaxis(a, -d - 1, 0) for a in (v, out))
    dv = np.empty_like(v_rows[0])
    for j, u_j in enumerate(np.moveaxis(u_phys, -d - 1, 0)):
        ik_j = 1j * k[j]
        for v_i, out_i in zip(v_rows, out_rows):
            product = _irfft(np.multiply(ik_j, v_i, out=dv), grid, overwrite=True)
            out_i += np.multiply(u_j, product, out=product)
            del product  # before the next transform
    return out


def projected_nonlinearity(grid, coeffs: np.ndarray, dealias: bool = True) -> np.ndarray:
    """The half spectrum of F(u) = -P (u . grad) u of half spectra (..., dim) +
    grid.half_shape, without input checks.

    Dealiased: -P div(u (x) u) on the two-thirds modes, every batch axis in one
    pass of d real inverse and d(d+1)/2 real forward half-spectrum transforms, each
    product transformed and added into the divergence before the next is formed;
    for divergence-free u it equals the advective form to roundoff. Otherwise: the
    advective form of `advect`, every batch axis in one pass of its body, with the
    Nyquist planes of the image zeroed so that states keep them empty. The zero
    mode is pinned to 0. The caller vouches that u is divergence-free and
    mean-zero; `nonlinear_F` checks both.
    """
    d = grid.dim
    if not dealias:
        out = -leray_symbol_apply(grid, _half_advect(grid, coeffs, coeffs, False)
                                  * ~grid.nyquist_mask_half)
        out[(...,) + (0,) * d] = 0.0
        return out
    mask = grid.dealias_mask_half
    k = grid.k_half
    u_phys = np.moveaxis(_irfft(coeffs * mask, grid, overwrite=True), -d - 1, 0)
    div = np.zeros((d,) + u_phys.shape[1:-1] + mask.shape[-1:], dtype=np.complex128)
    scratch = np.empty_like(div[0])  # holds a product, then a weighted transform
    product = scratch.view(np.float64)[..., : grid.n_modes]
    for i, j in combinations_with_replacement(range(d), 2):  # i <= j, row by row
        transform = _rfft(np.multiply(u_phys[i], u_phys[j], out=product), grid)
        if i != j:
            div[j] += np.multiply(k[i], transform, out=scratch)
        div[i] += np.multiply(k[j], transform, out=transform)  # its last use
        del transform
    del u_phys, product, scratch
    half = leray_symbol_apply(grid, np.moveaxis(np.multiply(div, mask, out=div), 0, -d - 1))
    half *= -1j
    half[(...,) + (0,) * d] = 0.0
    return half


def nonlinear_F(u: SpectralVectorField, apply_dealias: bool = True) -> SpectralVectorField:
    """Projected advection nonlinearity -P (u . grad) u for div-free mean-zero u.

    Checks that u is mean-zero and divergence-free, then evaluates
    `projected_nonlinearity`.
    """
    _require_mean_zero(u, "nonlinear term")
    if u.divergence_defect() > DIV_TOL:
        raise ValueError("nonlinear term requires a divergence-free field")
    return SpectralVectorField(u.grid, projected_nonlinearity(u.grid, u.half, apply_dealias))


def lp_norm(u, p: float) -> float:
    """Vector L_p norm by collocation quadrature.

    Component powers are summed inside the quadrature, matching the norm
    (sum_i |u_i|_p^p)^(1/p). Accepts spectral or physical fields.
    """
    if isinstance(u, SpectralVectorField):
        u = inverse_transform(u)
    return float(_lp(u.values, u.grid, p))


_libm_pow = np.vectorize(pow, otypes=[float])  # x ** y, bit for bit as Python floats


def _lp(values: np.ndarray, grid, p: float) -> np.ndarray:
    """L_p norm of each sample in values shaped (..., components) + grid.shape.

    The root is `_libm_pow`, as numpy's vectorized power can differ in the last bit.
    """
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    powers = np.abs(values)
    powers **= p  # the ufunc and fast path (a square at p = 2) of `** p`
    total = np.sum(powers, axis=tuple(range(-grid.dim - 1, 0)))
    return _libm_pow(grid.cell_volume * total, 1.0 / p)


def _pairwise_sum(start: int, n: int, row_size: int, block) -> np.ndarray:
    """numpy's pairwise summation of the n elements from `start` of a stack of rows of
    row_size elements, given block(start, stop), numpy's sum of a range it adds whole: one
    inside a row, or of at most 128 elements (its unrolled loop). numpy splits a longer
    range at n/2 rounded down to a multiple of 8."""
    if n <= 128 or start // row_size == (start + n - 1) // row_size:
        return block(start, start + n)
    left = n // 2 - n // 2 % 8
    return (_pairwise_sum(start, left, row_size, block)
            + _pairwise_sum(start + left, n - left, row_size, block))


def _lp_stream(rows, count: int, grid, p_values) -> list:
    """`_lp` at each p in p_values of the stack of the count sample rows (each grid.shape)
    that rows yields, bit for bit, from one pass in order: `_pairwise_sum` replays numpy's
    sum of the stack while only the powers of the rows that one of its blocks spans are
    held, two from 2D N = 12 up."""
    if min(p_values) < 2.0:
        raise ValueError(f"p must be >= 2, got {min(p_values)}")
    size = grid.n_points
    held = []  # (first element, its powers at each p) of each row a later block may read

    def block(start: int, stop: int) -> np.ndarray:
        while held and held[0][0] + size <= start:
            del held[0]
        while not held or held[-1][0] + size < stop:  # a row that starts where the last ends
            values = np.abs(next(rows)).reshape(-1)
            held.append((held[-1][0] + size if held else start, [values ** p for p in p_values]))
        pieces = zip(*([w[max(start - first, 0):stop - first] for w in powers]
                       for first, powers in held))  # the block's pieces at each p
        return np.array([np.sum(w[0] if len(w) == 1 else np.concatenate(w)) for w in pieces])

    total = _pairwise_sum(0, count * size, size, block)
    return [float(_libm_pow(grid.cell_volume * t, 1.0 / p)) for t, p in zip(total, p_values)]


def frac_norm(u: SpectralVectorField, params: FracNormParams) -> float:
    """|(-Lap)^alpha u|_{L_p}; requires mean-zero u when alpha > 0."""
    if params.alpha == 0.0:
        return lp_norm(u, params.p)
    return lp_norm(frac_power(params.alpha, u), params.p)


def spectral_l2_norm(u: SpectralVectorField) -> float:
    """L_2 norm evaluated from the coefficients (discrete Parseval identity)."""
    return float(np.sqrt(energy(u)))


def l2_inner(u: SpectralVectorField, v: SpectralVectorField) -> float:
    """L_2 inner product from coefficients, a weighted half sum; exact for band-limited
    fields."""
    _require_same_grid(u.grid, v.grid)
    return float(u.grid.volume * _half_sum(np.real(u.half * np.conj(v.half)), u.grid))


def gradient_norm(u: SpectralVectorField, p: float, variant: str = "full") -> float:
    """L_p norm of the velocity gradient.

    ``full`` uses all dim^2 Jacobian entries, summed inside the pointwise
    power; at p = 2 this equals the fractional norm with alpha = 1/2.
    ``diagonal`` uses only the entries du_i/dx_i, the componentwise reading
    of grad u as a vector, which can vanish for nonzero fields.
    """
    if variant not in ("full", "diagonal"):
        raise ValueError(f"variant must be full or diagonal, got {variant!r}")
    _require_mean_zero(u, "gradient norm")
    dim = u.grid.dim
    pairs = [(i, j) for i in range(dim) for j in range(dim) if variant == "full" or i == j]
    return _lp_stream(_jacobian_entries(u, pairs), len(pairs), u.grid, (p,))[0]


def _jacobian_entries(u: SpectralVectorField, pairs):
    """Samples of du_i/dx_j for each (i, j) in pairs, one entry at a time: each is
    transformed once, in its own temporary, and yielded."""
    for i, j in pairs:
        yield _irfft(1j * u.grid.k_half[j] * u.half[i], u.grid, overwrite=True)


def energy(u: SpectralVectorField) -> float:
    """Squared L_2 norm, volume-weighted sum of squared coefficient magnitudes."""
    return float(u.grid.volume * _half_sum(np.abs(u.half) ** 2, u.grid))


def enstrophy(u: SpectralVectorField) -> float:
    """Squared gradient L_2 norm, |k|^2-weighted coefficient sum."""
    return float(u.grid.volume * _half_sum(u.grid.k_sq_half * np.abs(u.half) ** 2, u.grid))


def max_pointwise_divergence(u: SpectralVectorField) -> float:
    """max_x |div u(x)| on the collocation lattice, from the half-spectrum divergence."""
    return float(np.max(np.abs(_irfft(u.divergence_coeffs(), u.grid, overwrite=True))))
