"""Periodic torus grids, spectral and physical field containers, and field generators.

Fields live on a uniform collocation lattice over [0, period)^dim. Spectral
coefficients follow the convention

    u(x) = sum_k uhat(k) exp(i k . x),

so the coefficient of the zero mode equals the spatial mean. The integer
wavenumber lattice per axis is {-n/2+1, ..., n/2}; the Nyquist slot carries
the label +n/2. Generators never populate Nyquist planes, which keeps odd
Fourier symbols (derivatives, the off-diagonal projection entries) compatible
with Hermitian symmetry. The two-thirds dealiasing cutoff is floor((n-1)/3),
so 3 * cutoff < n and quadratic products are exact on the retained modes.

A real field's spectrum is fixed by its half: the n/2+1 last-axis columns with wavenumber
0..n/2, shaped (n,)*(dim-1) + (n/2+1,) per component. Fields (built from halves only), grid
symbols and draws are stored there, and transforms and kernels take them there. The full
lattice, uhat(-k) = conj(uhat(k)), is built (`_full_spectrum`) only when a reader asks for
it through `SpectralVectorField.coeffs`, which nothing in the package reads.
`_irfft` runs the passes of `irfftn` in one complex array, the caller's temporary with
`overwrite=True`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# relative tolerances for the field invariants; a divergence defect takes k in units of
# the wavenumber 2 pi / period (`divergence_defect`), so each gate is the same at any period
DIVFREE_TOL = 1e-12
MEAN_MODE_TOL = 1e-12
DIV_TOL = 1e-10  # largest divergence defect of a solver input or a stored state


class SettingError(ValueError):
    """A setting the library rejects, or one that leaves a measurement unreadable; args are
    (key, message), the key named as its caller sets it."""

    def __str__(self) -> str:
        return f"{self.args[0]}: {self.args[1]}"


def _integer_modes(n: int) -> np.ndarray:
    """fft-layout integer wavenumbers with the Nyquist slot labeled +n/2."""
    k = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    k[n // 2] = n // 2
    return k


@dataclass(frozen=True)
class TorusGrid:
    """Discretization descriptor for the periodic box [0, period)^dim.

    The wavenumbers, symbols and masks are precomputed once on the half spectrum and
    shared by every operator application on this grid: `k_half`, `k_sq_half`,
    `inv_k_sq_half` (0 at k = 0), `dealias_mask_half` and `nyquist_mask_half`. Every
    entry is a function of its own wavenumber only.
    """

    dim: int
    n_modes: int
    period: float = TWO_PI

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise SettingError("dim", f"must be 2 or 3, got {self.dim}")
        if self.n_modes % 2 != 0 or self.n_modes < 8:
            raise SettingError("n_modes", f"must be even and >= 8, got {self.n_modes}")
        if not self.period > 0:
            raise SettingError("period", f"must be positive, got {self.period}")

        n = self.n_modes
        object.__setattr__(self, "modes", _integer_modes(n))
        object.__setattr__(self, "dealias_cutoff", (n - 1) // 3)
        k_int = self._lattice()
        # a period out of range (inf or 0 * inf here) raises below
        with np.errstate(over="ignore", invalid="ignore"):
            k = k_int * (TWO_PI / self.period)
            k_sq = np.sum(k * k, axis=0)
            inv_k_sq = np.zeros_like(k_sq)
            nonzero = k_sq > 0
            inv_k_sq[nonzero] = 1.0 / k_sq[nonzero]
            extents = np.float64(self.period) ** self.dim, np.float64(self.period / n) ** self.dim
            largest = np.max(k_sq)  # at wavenumber n/2 on every axis
        if not all(0 < x < np.inf for x in extents + (largest,)):
            raise SettingError("period", f"{self.period} makes the box volume, cell volume or "
                                         "largest |k|^2 zero or infinite")
        abs_int = np.abs(k_int)
        symbols = {"k_half": k, "k_sq_half": k_sq, "inv_k_sq_half": inv_k_sq,
                   "dealias_mask_half": np.all(abs_int <= self.dealias_cutoff, axis=0),
                   "nyquist_mask_half": np.any(abs_int == n // 2, axis=0)}
        for name, value in symbols.items():
            object.__setattr__(self, name, value)

    def _lattice(self) -> np.ndarray:
        """Integer wavenumbers of the half spectrum, shape (dim,) + half_shape."""
        axes = [self.modes] * (self.dim - 1) + [self.modes[: self.n_modes // 2 + 1]]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    @property
    def shape(self) -> tuple:
        return (self.n_modes,) * self.dim

    @property
    def half_shape(self) -> tuple:
        """The shape of the half spectrum of one component."""
        return self.shape[:-1] + (self.n_modes // 2 + 1,)

    @property
    def n_points(self) -> int:
        return self.n_modes**self.dim

    @property
    def volume(self) -> float:
        return self.period**self.dim

    @property
    def cell_volume(self) -> float:
        return (self.period / self.n_modes) ** self.dim

    def coords(self) -> np.ndarray:
        """Collocation coordinates, shape (dim,) + grid.shape."""
        x = self.period * np.arange(self.n_modes) / self.n_modes
        return np.stack(np.meshgrid(*([x] * self.dim), indexing="ij"))

    @property
    def spatial_axes(self) -> tuple:
        """The last dim axes, so arrays may carry leading batch axes."""
        return tuple(range(-self.dim, 0))


def make_grid(dim: int, n_modes: int, period: float = TWO_PI) -> TorusGrid:
    """Build a torus grid; rejects odd or too-small n_modes and bad periods."""
    return TorusGrid(dim=dim, n_modes=int(n_modes), period=float(period))


def _rfft(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Real samples -> exactly Hermitian half spectrum (zero mode = spatial mean).

    The last-axis 0 and n/2 planes are the stored columns that hold both k and -k;
    each becomes 0.5 (x + conj(x(-k))), which leaves an exactly Hermitian plane unchanged.
    """
    half = np.empty(values.shape[:-1] + (grid.n_modes // 2 + 1,), dtype=np.complex128)
    np.fft.rfftn(values, axes=grid.spatial_axes, norm="forward", out=half)  # each pass in place
    for column in (0, grid.n_modes // 2):  # one plane at a time: half the time of both at once
        plane = half[..., column]
        plane += _conj_reflect(plane, grid.spatial_axes[1:])
        plane *= 0.5
    return half


def _irfft(coeffs: np.ndarray, grid: TorusGrid, overwrite: bool = False) -> np.ndarray:
    """Half spectrum -> real samples of the real field it determines.

    `irfftn`'s passes, bit for bit, in one complex array: a copy of coeffs, or with
    `overwrite` coeffs itself (a complex128 temporary the caller drops, as scipy's
    `overwrite_x`), where `irfftn` allocates one per leading axis."""
    work = coeffs if overwrite else coeffs.astype(np.complex128)
    for axis in grid.spatial_axes[:-1]:
        np.fft.ifft(work, axis=axis, norm="forward", out=work)
    return np.fft.irfft(work, grid.n_modes, axis=-1, norm="forward")


def _conj_reflect(coeffs: np.ndarray, axes: tuple) -> np.ndarray:
    """conj(uhat(-k)) laid out on the same lattice as uhat(k), over the nonempty `axes`:
    one gather per axis (slot i takes slot -i mod n), then a conjugate in place."""
    for ax in axes:
        n = coeffs.shape[ax]
        coeffs = np.take(coeffs, -np.arange(n) % n, axis=ax)
    return np.conjugate(coeffs, out=coeffs)


def _full_spectrum(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Rebuild the full lattice from a half spectrum: uhat(-k) = conj(uhat(k))."""
    n = grid.n_modes
    full = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    # last-axis wavenumbers n/2+1..n-1 are the conjugates of n/2-1..1 at -k
    full[..., n // 2 + 1 :] = _conj_reflect(half[..., n // 2 - 1 : 0 : -1], grid.spatial_axes[:-1])
    return full


def _half_sum(values: np.ndarray, grid: TorusGrid) -> float:
    """Full-lattice sum of an even quantity, q(-k) = q(k), from its values on the half
    spectrum: weight 1 on the last-axis 0 and n/2 planes (they hold k and -k), 2 elsewhere."""
    columns = np.arange(grid.n_modes // 2 + 1)
    return float(np.sum(values * np.where(columns % (grid.n_modes // 2) == 0, 1.0, 2.0)))


@dataclass(frozen=True)
class SpectralVectorField:
    """Velocity field of a real flow as per-component complex Fourier coefficients.

    Stored as `half`, the modes with last-axis wavenumber 0..n/2, shaped (dim,) +
    grid.half_shape; the constructor takes that half only (a full lattice raises
    ValueError). The 0 and n/2 columns hold both k and -k and keep any defect of their
    own (`hermitian_defect`). `coeffs` is the full lattice, uhat(-k) = conj(uhat(k)),
    built read-only by `_full_spectrum` on each read.

    Invariants (mean-zero, divergence-free) are not recorded; consumers that need
    them measure the defects.
    """

    grid: TorusGrid
    half: np.ndarray

    def __post_init__(self) -> None:
        half_shape = (self.grid.dim,) + self.grid.half_shape
        if self.half.shape != half_shape:
            raise ValueError(f"coefficient array has shape {self.half.shape}, "
                             f"expected the half spectrum {half_shape}")
        object.__setattr__(self, "half", self.half.astype(np.complex128, copy=False))

    @property
    def coeffs(self) -> np.ndarray:
        """The full lattice, rebuilt from the half on each read; read-only."""
        full = _full_spectrum(self.half, self.grid)
        full.flags.writeable = False
        return full

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.half))) if self.half.size else 0.0

    def mean_mode(self) -> np.ndarray:
        return self.half[(slice(None),) + (0,) * self.grid.dim]

    def hermitian_defect(self) -> float:
        """max |uhat(k) - conj(uhat(-k))| relative to max |uhat|. Only the last-axis 0 and
        n/2 columns hold both k and -k; every other column's mirror is exact."""
        planes = self.half[..., :: self.grid.n_modes // 2]
        mirror = _conj_reflect(planes, self.grid.spatial_axes[:-1])
        return _relative_max(planes - mirror, self.max_abs())

    def divergence_coeffs(self) -> np.ndarray:
        """i k . uhat(k) on the half spectrum, with the factor i applied to the sum: no
        complex copy of k."""
        div = np.einsum("i...,i...->...", self.grid.k_half, self.half)
        div *= 1j
        return div

    def divergence_defect(self) -> float:
        """max_k |k . uhat(k)| over the half spectrum relative to max |uhat|, k in units of
        the wavenumber 2 pi / period: alike at every period, and the physical value at 2 pi."""
        unit = self.grid.period / TWO_PI  # 1.0 at 2 pi
        return _relative_max(self.divergence_coeffs(), self.max_abs()) * unit

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.half.view(np.float64))))

    def __add__(self, other: "SpectralVectorField") -> "SpectralVectorField":
        _require_same_grid(self.grid, other.grid)
        return SpectralVectorField(self.grid, self.half + other.half)

    def __sub__(self, other: "SpectralVectorField") -> "SpectralVectorField":
        _require_same_grid(self.grid, other.grid)
        return SpectralVectorField(self.grid, self.half - other.half)

    def __mul__(self, scalar: float) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.half * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralVectorField":
        return self * (-1.0)


@dataclass(frozen=True)
class PhysicalVectorField:
    """Velocity samples on the collocation lattice, one real array per component."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.dim,) + self.grid.shape
        if self.values.shape != expected:
            raise ValueError(
                f"value array has shape {self.values.shape}, expected {expected}"
            )
        if self.values.dtype != np.float64:
            object.__setattr__(self, "values", self.values.astype(np.float64))


def _relative_max(defect: np.ndarray, scale: float) -> float:
    """max |defect| relative to scale; 0 when scale is 0."""
    return 0.0 if scale == 0.0 else float(np.max(np.abs(defect))) / scale


def _require_same_grid(a: TorusGrid, b: TorusGrid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


def _require_mean_zero(u: SpectralVectorField, what: str) -> None:
    """Raise unless the zero mode is within MEAN_MODE_TOL of max |uhat|."""
    if _relative_max(u.mean_mode(), u.max_abs()) > MEAN_MODE_TOL:
        raise ValueError(f"{what} requires a mean-zero field")


def forward_transform(u: PhysicalVectorField) -> SpectralVectorField:
    """Collocation samples -> Fourier coefficients (zero mode = spatial mean)."""
    return SpectralVectorField(u.grid, _rfft(u.values, u.grid))


def inverse_transform(u: SpectralVectorField) -> PhysicalVectorField:
    """Fourier coefficients -> collocation samples of the real field their half fixes."""
    return PhysicalVectorField(u.grid, _irfft(u.half, u.grid))


def field_from_function(grid: TorusGrid, component_funcs) -> SpectralVectorField:
    """Sample callables f_i(x0, x1, [x2]) on the lattice and transform.

    Convenience constructor for analytic test data; each entry may also be a
    scalar constant.
    """
    x = grid.coords()
    values = np.zeros((grid.dim,) + grid.shape)
    for i, f in enumerate(component_funcs):
        values[i] = f(*x) if callable(f) else float(f)
    return forward_transform(PhysicalVectorField(grid, values))


def zero_field(grid: TorusGrid) -> SpectralVectorField:
    return SpectralVectorField(grid, np.zeros((grid.dim,) + grid.half_shape, dtype=np.complex128))


def dealias(u: SpectralVectorField) -> SpectralVectorField:
    """Two-thirds rule: zero every mode with any |k_i| > floor((n-1)/3).

    The cutoff K satisfies 3K < n, so the product of two dealiased fields
    has no alias on a retained mode.
    """
    return SpectralVectorField(u.grid, u.half * u.grid.dealias_mask_half)


def truncate(u: SpectralVectorField, m: int) -> SpectralVectorField:
    """Zero every mode with any |k_i| > m."""
    if not 0 <= m <= u.grid.n_modes // 2:
        raise ValueError(f"truncation order {m} outside [0, {u.grid.n_modes // 2}]")
    mask = np.all(np.abs(u.grid._lattice()) <= m, axis=0)
    return SpectralVectorField(u.grid, u.half * mask)


def lattice_part(u: PhysicalVectorField, which: str) -> PhysicalVectorField:
    """Pointwise lattice operations: positive part, negative part, absolute value.

    Identities u = pos - neg and |u| = pos + neg hold exactly at every point.
    """
    if which == "pos":
        values = np.maximum(u.values, 0.0)
    elif which == "neg":
        values = np.maximum(-u.values, 0.0)
    elif which == "abs":
        values = np.abs(u.values)
    else:
        raise ValueError(f"which must be pos, neg or abs, got {which!r}")
    return PhysicalVectorField(u.grid, values)


def leray_symbol_apply(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Apply the Fourier projection symbol I - k k^T / |k|^2; mode 0 unchanged.

    Takes half spectra, with leading batch axes before the component axis.
    """
    k = grid.k_half
    xyz = "xyz"[: grid.dim]
    k_dot = np.einsum(f"i{xyz},...i{xyz}->...{xyz}", k, coeffs)
    k_dot *= grid.inv_k_sq_half
    out = k * np.expand_dims(k_dot, -grid.dim - 1)
    return np.subtract(coeffs, out, out=out)


def _unit_phase_coeffs(grid: TorusGrid, rng: np.random.Generator) -> np.ndarray:
    """Unit-modulus half-spectrum coefficients with random phases and exact Hermitian
    symmetry: the half spectrum of real white noise (`_rfft`), normalized."""
    what = _rfft(rng.standard_normal(grid.shape), grid)
    mag = np.abs(what)
    zero = ~(mag > 0)  # a NaN modulus too
    mag[zero] = 1.0
    what /= mag
    what[zero] = 1.0
    return what


def envelope_problem(spectrum_decay: float, period: float = TWO_PI) -> str | None:
    """Why (1+|k|^2)^(-decay/2) cannot shape a draw on the box of period, or None: a decay
    not > 0, or one that makes it 0 at |k| = 2 pi / period, where it is largest off k = 0."""
    if not spectrum_decay > 0:
        return f"must be positive, got {spectrum_decay}"
    k = TWO_PI / period
    if (1.0 + k * k) ** (-spectrum_decay / 2.0) == 0.0:
        return (f"{spectrum_decay} on the box of period {period} makes (1+|k|^2)^(-decay/2) "
                "zero on every mode")
    return None


def _spectral_envelope(grid: TorusGrid, spectrum_decay: float, amplitude: float) -> np.ndarray:
    if (problem := envelope_problem(spectrum_decay, grid.period)) is not None:
        raise SettingError("decay", problem)  # the key in the forcing and initial blocks
    shape = (1.0 + grid.k_sq_half) ** (-spectrum_decay / 2.0)
    env = amplitude * shape * ~grid.nyquist_mask_half  # keep derivative symbols Hermitian-safe
    env[(0,) * grid.dim] = 0.0
    return env


def random_divfree_field(
    grid: TorusGrid,
    seed: int,
    spectrum_decay: float = 4.0,
    amplitude: float = 1.0,
) -> SpectralVectorField:
    """Random mean-zero divergence-free field with |uhat| ~ (1+|k|^2)^(-decay/2).

    The envelope and the projection symbol are applied on the half spectrum to exactly
    Hermitian random-phase coefficients, so the result is divergence-free and
    `hermitian_defect` is 0. Identical seeds give bitwise-identical coefficients.
    """
    rng = np.random.default_rng(seed)
    env = _spectral_envelope(grid, spectrum_decay, amplitude)
    coeffs = np.empty((grid.dim,) + grid.half_shape, dtype=np.complex128)
    for row in coeffs:
        np.multiply(env, _unit_phase_coeffs(grid, rng), out=row)
    return SpectralVectorField(grid, leray_symbol_apply(grid, coeffs))


def random_gradient_field(
    grid: TorusGrid,
    seed: int,
    spectrum_decay: float = 4.0,
    amplitude: float = 1.0,
) -> SpectralVectorField:
    """grad(h) for a random scalar h drawn from the same spectral-decay ensemble.

    Gradient fields span the orthogonal complement of the divergence-free
    subspace, which makes them the natural probes for projection tests.
    """
    rng = np.random.default_rng(seed)
    h_hat = _spectral_envelope(grid, spectrum_decay, amplitude) * _unit_phase_coeffs(grid, rng)
    half = np.empty((grid.dim,) + grid.half_shape, dtype=np.complex128)
    for k_i, row in zip(grid.k_half, half):  # one component at a time, no (dim,) temporary
        np.multiply(1j * k_i, h_hat, out=row)
    return SpectralVectorField(grid, half)


def embed(u: SpectralVectorField, fine: TorusGrid) -> SpectralVectorField:
    """Zero-pad a field onto a finer grid with the same period and dimension.

    Modes are matched by integer wavenumber on the half spectrum, so the embedded field
    is the same trigonometric polynomial evaluated with more resolution. A coarse
    Nyquist plane (wavenumber +n/2) is the one exception: on the fine grid its mirror
    also holds its conjugate at -n/2. Generated fields never populate those planes.
    """
    coarse = u.grid
    if fine.dim != coarse.dim or fine.period != coarse.period:
        raise ValueError("embedding requires matching dimension and period")
    if fine.n_modes < coarse.n_modes:
        raise ValueError("target grid must be at least as fine")
    if fine.n_modes == coarse.n_modes:
        return u
    half = np.zeros((fine.dim,) + fine.half_shape, dtype=np.complex128)
    rows = [coarse.modes % fine.n_modes] * (coarse.dim - 1)
    half[(slice(None),) + np.ix_(*rows, coarse.modes[: coarse.n_modes // 2 + 1])] = u.half
    return SpectralVectorField(fine, half)


@dataclass(frozen=True)
class ForcingSpec:
    """Time-dependent forcing: zero, steady, or t^exponent times a base field.

    The base field must be divergence-free and mean-zero. `projected` is the half
    spectrum of P f0 with its mean mode set to 0, as `prepare_initial` sets u0's, so
    the solvers stay exactly on the mean-zero divergence-free subspace; None for zero.
    """

    kind: str = "zero"
    base_field: SpectralVectorField | None = None
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "steady", "hoelder_modulated"):
            raise SettingError("kind", f"unknown kind {self.kind!r}")
        if not 0.0 < self.exponent <= 1.0:
            raise SettingError("exponent", f"must lie in (0, 1], got {self.exponent}")
        projected = None
        if self.kind != "zero":
            if self.base_field is None:
                raise ValueError(f"forcing kind {self.kind!r} requires a base field")
            if self.base_field.divergence_defect() > DIVFREE_TOL:
                raise ValueError("forcing base field must be divergence-free")
            _require_mean_zero(self.base_field, "forcing base")
            grid = self.base_field.grid
            projected = leray_symbol_apply(grid, self.base_field.half)
            projected[(slice(None),) + (0,) * grid.dim] = 0.0
        object.__setattr__(self, "projected", projected)

    def amplitude(self, t: float) -> float | None:
        """Factor of the base field at time t; None means identically zero."""
        if self.kind == "zero":
            return None
        if self.kind == "steady":
            return 1.0
        return float(max(t, 0.0)) ** self.exponent

    def evaluate(self, t: float) -> SpectralVectorField | None:
        """Forcing at time t; None means identically zero."""
        amplitude = self.amplitude(t)
        return None if amplitude is None else amplitude * self.base_field
