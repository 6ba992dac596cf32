"""Grids, transforms, dealiasing, lattice operations, and field generators."""

import numpy as np
import pytest

from nsmild import (
    PhysicalVectorField,
    field_from_function,
    forward_transform,
    inverse_transform,
    lattice_part,
    make_grid,
    random_divfree_field,
    random_gradient_field,
    truncate,
    dealias,
    embed,
)
from nsmild.grid import (
    DIVFREE_TOL,
    TWO_PI,
    ForcingSpec,
    SpectralVectorField,
    _conj_reflect,
    _irfft,
    _rfft,
    _spectral_envelope,
    _unit_phase_coeffs,
    leray_symbol_apply,
)

from conftest import (
    LEAN_SIZES,
    full_lattice,
    half_columns,
    lean_batch,
    reference_leray,
    same_bytes,
    with_specials,
)


class TestMakeGrid:
    def test_3d_lattice_range(self):
        grid = make_grid(3, 16)
        assert grid.shape == (16, 16, 16)
        assert grid.modes.min() == -7 and grid.modes.max() == 8

    def test_2d_lattice(self):
        grid = make_grid(2, 8)
        assert grid.shape == (8, 8)
        assert sorted(grid.modes.tolist()) == [-3, -2, -1, 0, 1, 2, 3, 4]

    def test_zero_mode_unique(self):
        grid = make_grid(2, 16)
        assert np.count_nonzero(np.all(full_lattice(grid).k_int == 0, axis=0)) == 1

    @pytest.mark.parametrize("dim,n,period", [(3, 7, 2 * np.pi), (3, 6, 2 * np.pi),
                                              (2, 16, 0.0), (4, 16, 2 * np.pi),
                                              (2, 16, 1e300), (2, 16, 1e-300)])
    def test_rejects_bad_parameters(self, dim, n, period):
        with pytest.raises(ValueError):
            make_grid(dim, n, period)


class TestTransforms:
    def test_single_mode(self, grid3):
        # sin(x2) = -i/2 e^{i x2} + i/2 e^{-i x2}
        u = field_from_function(grid3, (lambda x, y, z: np.sin(y), 0.0, 0.0))
        np.testing.assert_allclose(u.coeffs[0, 0, 1, 0], -0.5j, atol=1e-14)
        np.testing.assert_allclose(u.coeffs[0, 0, -1, 0], 0.5j, atol=1e-14)
        others = u.coeffs.copy()
        others[0, 0, 1, 0] = 0
        others[0, 0, -1, 0] = 0
        assert np.max(np.abs(others)) < 1e-14

    def test_constant_field_mean_mode(self, grid3):
        u = field_from_function(grid3, (1.0, 0.0, 0.0))
        np.testing.assert_allclose(u.coeffs[0, 0, 0, 0], 1.0, atol=1e-14)
        assert abs(u.coeffs[1, 0, 0, 0]) < 1e-14
        rest = u.coeffs.copy()
        rest[0, 0, 0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-14

    def test_round_trip_random(self, grid3):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((3,) + grid3.shape)
        u = PhysicalVectorField(grid3, values)
        back = inverse_transform(forward_transform(u))
        np.testing.assert_allclose(back.values, values, rtol=0, atol=1e-12 * np.max(np.abs(values)))

    def test_shape_mismatch_rejected(self, grid3):
        with pytest.raises(ValueError):
            PhysicalVectorField(grid3, np.zeros((3, 8, 8, 8)))
        with pytest.raises(ValueError):
            SpectralVectorField(grid3, np.zeros((2,) + grid3.shape, dtype=complex))

    def test_parseval(self, grid3):
        # cell_volume * sum |u|^2 == volume * sum |uhat|^2 (discrete identity)
        u = random_divfree_field(grid3, seed=2, spectrum_decay=2.0)
        phys = inverse_transform(u)
        quad = grid3.cell_volume * np.sum(phys.values**2)
        spec = grid3.volume * np.sum(np.abs(u.coeffs) ** 2)
        np.testing.assert_allclose(quad, spec, rtol=1e-10)

    def test_hermitian_symmetry_of_generated_fields(self):
        # exact: the half spectrum of real noise is mirrored once
        for dim, n in [(2, 16), (2, 256), (3, 16), (3, 32)]:
            grid = make_grid(dim, n)
            for seed in range(10):
                assert random_divfree_field(grid, seed).hermitian_defect() == 0.0
                assert random_gradient_field(grid, seed).hermitian_defect() == 0.0

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 16)])
    def test_forward_transform_is_exactly_hermitian(self, dim, n):
        grid = make_grid(dim, n)
        rng = np.random.default_rng(dim)
        for _ in range(3):
            u = PhysicalVectorField(grid, rng.standard_normal((dim,) + grid.shape))
            assert forward_transform(u).hermitian_defect() == 0.0

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 16)])
    def test_rfft_planes_are_exactly_hermitian_under_batch_axes(self, dim, n):
        # last-axis columns 0 and n/2 hold both k and -k; each must be its own mirror
        grid = make_grid(dim, n)
        values = np.random.default_rng(5).standard_normal((4, dim) + grid.shape)
        half = _rfft(values, grid)
        expected = np.fft.rfftn(values, axes=grid.spatial_axes, norm="forward")
        assert np.max(np.abs(half - expected)) <= 1e-15 * np.max(np.abs(expected))
        for col in (0, n // 2):
            plane = half[..., col]
            assert np.array_equal(plane, _conj_reflect(plane, grid.spatial_axes[1:]))


    @staticmethod
    def rolled_reflection(coeffs, axes):
        """The reflection as it was written: conjugate, then flip and roll by one per axis."""
        out = np.conj(coeffs)
        for ax in axes:
            out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
        return out

    @pytest.mark.parametrize("dim", [2, 3])
    def test_conj_reflect_is_the_rolled_reflection_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        shape = (3, dim) + (8,) * dim  # two batch axes
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        original = data.copy()
        views = {
            "contiguous": data,
            "strided": data[..., ::2],
            "negative-stride": data[:, :, ::-1],
            "half": data[..., :5],
            "reversed-half-columns": data[..., 3:0:-1],
        }
        for name, view in views.items():
            for axes in (tuple(range(-dim, 0)), tuple(range(-dim, -1)), (-1,)):
                got = _conj_reflect(view, axes)
                expected = self.rolled_reflection(view, axes)
                assert got.tobytes() == expected.tobytes(), (name, axes)
        assert np.array_equal(data, original)  # the input is not written

    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 256), (3, 16), (3, 32)])
    def test_real_inverse_matches_complex_inverse(self, dim, n):
        # the inverse transform reads only the half spectrum (irfftn)
        grid = make_grid(dim, n)
        for seed in range(3):
            for u in (random_divfree_field(grid, seed), random_gradient_field(grid, seed)):
                expected = np.real(np.fft.ifftn(u.coeffs, axes=grid.spatial_axes)) * grid.n_points
                got = inverse_transform(u).values
                assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestDealias:
    def test_cutoff_rule(self):
        grid = make_grid(3, 16)  # cutoff floor(16/3) = 5
        coeffs = np.zeros((3,) + grid.half_shape, dtype=complex)
        coeffs[0, 6, 0, 0] = 1.0  # k = (6,0,0), dropped
        coeffs[1, 5, 0, 0] = 1.0  # k = (5,0,0), kept
        u = SpectralVectorField(grid, coeffs)
        d = dealias(u)
        assert d.coeffs[0, 6, 0, 0] == 0.0
        assert d.coeffs[1, 5, 0, 0] == 1.0

    def test_cutoff_is_alias_free(self):
        # 3K < n keeps every product alias off the retained band |k_i| <= K
        for n in range(8, 257, 2):
            cutoff = make_grid(2, n).dealias_cutoff
            assert 3 * cutoff < n
            if n % 3 != 0:
                assert cutoff == n // 3

    def test_idempotent(self, grid3):
        u = random_divfree_field(grid3, seed=3)
        once = dealias(u)
        twice = dealias(once)
        np.testing.assert_array_equal(once.coeffs, twice.coeffs)

    def test_preserves_divergence(self, grid3):
        u = random_divfree_field(grid3, seed=4)
        assert dealias(u).divergence_defect() <= 1e-12


class TestTruncate:
    def test_preserves_divfree(self, grid3):
        u = random_divfree_field(grid3, seed=6)
        for m in (2, 4, 8):
            assert truncate(u, m).divergence_defect() <= 1e-12

    def test_full_order_is_identity(self, grid3):
        u = random_divfree_field(grid3, seed=7)
        np.testing.assert_array_equal(truncate(u, grid3.n_modes // 2).coeffs, u.coeffs)

    def test_order_zero_keeps_only_mean(self, grid3):
        u = field_from_function(grid3, (lambda x, y, z: 2.0 + np.sin(y), 0.0, 0.0))
        t = truncate(u, 0)
        np.testing.assert_allclose(t.coeffs[0, 0, 0, 0], 2.0, atol=1e-14)
        rest = t.coeffs.copy()
        rest[0, 0, 0, 0] = 0
        assert np.max(np.abs(rest)) == 0.0

    def test_rejects_out_of_range(self, grid3):
        u = random_divfree_field(grid3, seed=8)
        with pytest.raises(ValueError):
            truncate(u, grid3.n_modes // 2 + 1)
        with pytest.raises(ValueError):
            truncate(u, -1)


class TestLatticePart:
    def test_constant_components(self, grid3):
        u = field_from_function(grid3, (-1.0, 2.0, 0.0))
        phys = inverse_transform(u)
        pos = lattice_part(phys, "pos")
        neg = lattice_part(phys, "neg")
        np.testing.assert_allclose(pos.values[0], 0.0, atol=1e-14)
        np.testing.assert_allclose(pos.values[1], 2.0, atol=1e-14)
        np.testing.assert_allclose(neg.values[0], 1.0, atol=1e-14)
        np.testing.assert_allclose(neg.values[2], 0.0, atol=1e-14)

    def test_nonnegative_field(self, grid3):
        u = field_from_function(grid3, (lambda x, y, z: 1.5 + np.sin(x), 0.0, 0.0))
        phys = inverse_transform(u)
        pos = lattice_part(phys, "pos")
        neg = lattice_part(phys, "neg")
        np.testing.assert_array_equal(pos.values, phys.values)
        assert np.max(np.abs(neg.values)) <= 1e-13  # roundoff from the transform

    def test_lattice_identities_exact(self, grid3):
        rng = np.random.default_rng(9)
        phys = PhysicalVectorField(grid3, rng.standard_normal((3,) + grid3.shape))
        pos = lattice_part(phys, "pos").values
        neg = lattice_part(phys, "neg").values
        absv = lattice_part(phys, "abs").values
        np.testing.assert_array_equal(pos - neg, phys.values)
        np.testing.assert_array_equal(pos + neg, absv)

    def test_unknown_part_rejected(self, grid3):
        phys = inverse_transform(field_from_function(grid3, (1.0, 0.0, 0.0)))
        with pytest.raises(ValueError):
            lattice_part(phys, "top")


class TestRandomFields:
    def test_divergence_free(self, grid3):
        for seed in (0, 1, 2):
            assert random_divfree_field(grid3, seed).divergence_defect() <= 1e-12

    def test_mean_zero(self, grid3):
        u = random_divfree_field(grid3, seed=3)
        assert np.max(np.abs(u.mean_mode())) == 0.0

    def test_deterministic(self, grid3):
        a = random_divfree_field(grid3, seed=11)
        b = random_divfree_field(grid3, seed=11)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_zero_amplitude(self, grid3):
        u = random_divfree_field(grid3, seed=1, amplitude=0.0)
        assert u.max_abs() == 0.0

    def test_spectrum_envelope(self, grid3):
        # the projection contracts the per-mode coefficient vector, whose
        # components start exactly on the envelope
        decay = 3.0
        u = random_divfree_field(grid3, seed=5, spectrum_decay=decay)
        envelope = (1.0 + full_lattice(grid3).k_sq) ** (-decay / 2.0)
        vec_mag = np.sqrt(np.sum(np.abs(u.coeffs) ** 2, axis=0))
        assert np.all(vec_mag <= np.sqrt(3.0) * envelope + 1e-13)

    def test_amplitude_scales_linearly(self, grid3):
        a = random_divfree_field(grid3, seed=5, amplitude=1.0)
        b = random_divfree_field(grid3, seed=5, amplitude=2.0)
        np.testing.assert_allclose(b.coeffs, 2.0 * a.coeffs, rtol=1e-15)

    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 256), (3, 16), (3, 32)])
    def test_divergence_coeffs_equal_complex_symbol_formula(self, dim, n):
        # (k . uhat) times i on the half, without a complex copy of k, equals the half of
        # (i k) . uhat on the full lattice
        grid = make_grid(dim, n)
        for seed in range(3):
            for u in (random_divfree_field(grid, seed), random_gradient_field(grid, seed)):
                expected = np.einsum("i...,i...->...", 1j * full_lattice(grid).k, u.coeffs)
                assert np.array_equal(u.divergence_coeffs(), expected[..., : n // 2 + 1])


class TestDivergenceDefect:
    """max |k . uhat| / max |uhat| with k in units of the wavenumber 2 pi / period."""

    @pytest.mark.parametrize("period", [2 * np.pi, 1e-60, 1e-6, 3.0, 1e12, 1e100])
    def test_is_the_physical_defect_times_period_over_2pi(self, period):
        grid = make_grid(2, 16, period)
        for u in (random_gradient_field(grid, 3), random_divfree_field(grid, 3)):
            physical = float(np.max(np.abs(u.divergence_coeffs()))) / u.max_abs()
            expected = physical if period == 2 * np.pi else physical * (period / TWO_PI)
            assert same_bytes(np.float64(u.divergence_defect()), np.float64(expected))

    def test_a_half_reads_alike_at_every_period(self):
        u = random_gradient_field(make_grid(2, 16), 3)
        assert u.divergence_defect() > 0.5  # a gradient field: far from divergence-free
        for period in (1e-60, 1e-6, 1e12, 1e100):
            v = SpectralVectorField(make_grid(2, 16, period), u.half)
            assert v.divergence_defect() == pytest.approx(u.divergence_defect(), rel=1e-14)

    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 64), (3, 16)])
    def test_a_generated_field_passes_at_every_period(self, dim, n):
        for period in (1e-60, 1e-6, 2 * np.pi, 1e6, 1e100):
            for decay in (1.0, 4.0):
                u = random_divfree_field(make_grid(dim, n, period), 1, decay)
                assert u.divergence_defect() <= DIVFREE_TOL, (period, decay)


class TestEmbed:
    def test_same_polynomial(self):
        coarse = make_grid(2, 16)
        fine = make_grid(2, 32)
        u = random_divfree_field(coarse, seed=13)
        ue = embed(u, fine)
        # compare collocation values on the coarse lattice (every other point)
        vals_c = inverse_transform(u).values
        vals_f = inverse_transform(ue).values
        np.testing.assert_allclose(vals_f[:, ::2, ::2], vals_c, atol=1e-13)
        assert ue.divergence_defect() <= 1e-12

    def test_rejects_mismatch(self):
        u = random_divfree_field(make_grid(2, 16), seed=1)
        with pytest.raises(ValueError):
            embed(u, make_grid(3, 32))
        with pytest.raises(ValueError):
            embed(embed(u, make_grid(2, 32)), make_grid(2, 16))


    def test_coarse_nyquist_plane_is_mirrored_on_the_fine_grid(self):
        # the half holds wavenumber +n/2 only; on the fine grid -n/2 is a regular mode,
        # which the mirror of the embedded half fills with its conjugate
        coarse, fine = make_grid(2, 8), make_grid(2, 16)
        half = np.zeros((2,) + coarse.half_shape, dtype=np.complex128)
        half[0, 1, 4] = 1.0 + 2.0j  # wavenumber (1, +4)
        full = embed(SpectralVectorField(coarse, half), fine).coeffs
        assert full[0, 1, 4] == 1.0 + 2.0j and full[0, 15, 12] == 1.0 - 2.0j
        assert np.count_nonzero(full) == 2


class TestHalfStorage:
    """Fields and grid symbols are stored as the half spectrum; the full lattice is built
    when read."""

    def test_half_input_fixes_the_full_lattice(self, grid2):
        n = grid2.n_modes
        rng = np.random.default_rng(0)
        shape = (2,) + grid2.shape
        full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = SpectralVectorField(grid2, half_columns(full, grid2))
        assert np.array_equal(u.half, full[..., : n // 2 + 1])
        assert np.array_equal(u.coeffs[..., : n // 2 + 1], full[..., : n // 2 + 1])
        mirror = _conj_reflect(u.coeffs, grid2.spatial_axes)
        assert np.array_equal(u.coeffs[..., n // 2 + 1 :], mirror[..., n // 2 + 1 :])
        assert not np.array_equal(u.coeffs, full)
        # only the 0 and n/2 columns, which hold k and -k, keep a defect
        defect = np.max(np.abs(u.coeffs - mirror)) / np.max(np.abs(u.coeffs))
        assert u.hermitian_defect() == defect > 0.1

    def test_coeffs_is_built_read_only_on_each_read(self, grid3):
        u = random_divfree_field(grid3, seed=3)
        first, second = u.coeffs, u.coeffs
        assert first is not second and np.array_equal(first, second)
        assert not first.flags.writeable
        assert np.array_equal(SpectralVectorField(grid3, half_columns(first, grid3)).half, u.half)

    def test_rejects_other_shapes(self, grid2):
        # a full lattice too: a field is built from its half only
        for shape in ((2, 32, 16), (2,) + grid2.shape):
            with pytest.raises(ValueError, match=r"expected the half spectrum \(2, 32, 17\)"):
                SpectralVectorField(grid2, np.zeros(shape, dtype=np.complex128))

    @pytest.mark.parametrize("dim,n,period", [(2, 16, 2 * np.pi), (3, 8, 3.0), (2, 10, 1.0)])
    def test_half_symbols_are_the_full_ones_first_columns(self, dim, n, period):
        grid = make_grid(dim, n, period)
        full = full_lattice(grid)
        width = n // 2 + 1
        halves = sorted(name for name in vars(grid) if name.endswith("_half"))
        assert halves == ["dealias_mask_half", "inv_k_sq_half", "k_half", "k_sq_half",
                          "nyquist_mask_half"]
        for name in halves:
            symbol = getattr(full, name[: -len("_half")])
            assert symbol.shape[-dim:] == grid.shape, name
            assert np.array_equal(symbol[..., :width], getattr(grid, name)), name
        assert np.array_equal(full.k_int * (2 * np.pi / period), full.k)
        assert np.array_equal(full.k_int[..., :width], grid._lattice())

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_grid_holds_no_full_lattice_symbol(self, dim, n):
        grid = make_grid(dim, n)
        for name in ("k_int", "k", "k_sq", "inv_k_sq", "dealias_mask", "nyquist_mask"):
            assert not hasattr(grid, name), name


class TestForcingSpec:
    def test_zero_kind(self):
        f = ForcingSpec()
        assert f.evaluate(0.3) is None

    def test_hoelder_modulation(self, grid2):
        base = random_divfree_field(grid2, seed=2)
        f = ForcingSpec(kind="hoelder_modulated", base_field=base, exponent=0.5)
        ft = f.evaluate(0.25)
        np.testing.assert_allclose(ft.coeffs, 0.5 * base.coeffs)

    def test_rejects_divergent_base(self, grid2):
        grad = random_gradient_field(grid2, seed=3)
        with pytest.raises(ValueError):
            ForcingSpec(kind="steady", base_field=grad)

    def test_rejects_nonzero_mean_base(self, grid2):
        base = random_divfree_field(grid2, seed=2)
        coeffs = base.half.copy()
        coeffs[0, 0, 0] = 1e-6 * base.max_abs()
        with pytest.raises(ValueError, match="mean-zero"):
            ForcingSpec(kind="steady", base_field=SpectralVectorField(grid2, coeffs))

    def test_rejects_bad_exponent(self, grid2):
        base = random_divfree_field(grid2, seed=2)
        with pytest.raises(ValueError):
            ForcingSpec(kind="hoelder_modulated", base_field=base, exponent=1.5)


# -- each rewritten operator against the expression it replaced --------------------------

def reference_rfft(values, grid):
    """`_rfft` with numpy's out-of-place rfftn."""
    half = np.fft.rfftn(values, axes=grid.spatial_axes, norm="forward")
    for column in (0, grid.n_modes // 2):
        plane = half[..., column]
        plane += _conj_reflect(plane, grid.spatial_axes[1:])
        plane *= 0.5
    return half


def reference_unit_phase(grid, rng):
    """`_unit_phase_coeffs` with np.where in place of the in-place normalization."""
    what = reference_rfft(rng.standard_normal(grid.shape), grid)
    mag = np.abs(what)
    safe = np.where(mag > 0, mag, 1.0)
    return np.where(mag > 0, what / safe, 1.0 + 0.0j)


def reference_divfree(grid, seed, decay, amplitude):
    """`random_divfree_field`'s half with np.stack of the three phase draws."""
    rng = np.random.default_rng(seed)
    env = _spectral_envelope(grid, decay, amplitude)
    return reference_leray(grid, np.stack([env * reference_unit_phase(grid, rng)
                                           for _ in range(grid.dim)]))


class _Samples:
    """A generator whose standard_normal returns the given samples."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, shape):
        assert shape == self.values.shape
        return self.values.copy()


class TestLeanOperatorBits:
    """`_rfft`, `_irfft`, `leray_symbol_apply` and the draws give the bytes of the
    expressions they replaced, and write no input (`_irfft` with `overwrite` writes the
    temporary it is given, and with `out` the array it is given)."""

    @pytest.mark.parametrize("dim,n", LEAN_SIZES)
    def test_rfft(self, dim, n):
        # and `_irfft`, on both paths, against numpy's irfftn of the same batch
        grid = make_grid(dim, n)
        batch, special = lean_batch(grid)
        samples = np.fft.irfftn(batch, s=grid.shape, axes=grid.spatial_axes)
        with np.errstate(invalid="ignore"):
            for values in (samples, samples[0, 1], with_specials(samples)):
                before = values.copy()
                assert same_bytes(_rfft(values, grid), reference_rfft(values, grid))
                assert same_bytes(values, before)
            for coeffs in (batch[0], batch, special):
                before = coeffs.copy()
                expected = np.fft.irfftn(coeffs, s=grid.shape, axes=grid.spatial_axes,
                                         norm="forward")
                assert same_bytes(_irfft(coeffs, grid), expected)
                assert same_bytes(coeffs, before)
                assert same_bytes(_irfft(coeffs.copy(), grid, overwrite=True), expected)

    @pytest.mark.parametrize("dim,n", LEAN_SIZES)
    def test_leray_symbol_apply(self, dim, n):
        grid = make_grid(dim, n)
        batch, special = lean_batch(grid)
        moved = np.moveaxis(np.moveaxis(batch, 1, 0).copy(), 0, 1)  # the kernel's layout
        with np.errstate(invalid="ignore"):
            for coeffs in (batch[0], batch, special, moved):
                before = coeffs.copy()
                got, expected = leray_symbol_apply(grid, coeffs), reference_leray(grid, coeffs)
                assert same_bytes(got, expected) and got.strides == expected.strides
                assert same_bytes(coeffs, before)

    @pytest.mark.parametrize("dim,n", LEAN_SIZES)
    def test_draws(self, dim, n):
        grid = make_grid(dim, n)
        for seed, decay, amplitude in ((0, 4.0, 1.0), (7, 2.5, 0.3), (11, 5.0, 0.0)):
            u = random_divfree_field(grid, seed, decay, amplitude)
            assert same_bytes(u.half, reference_divfree(grid, seed, decay, amplitude))
            g = random_gradient_field(grid, seed, decay, amplitude)
            h_hat = (_spectral_envelope(grid, decay, amplitude)
                     * reference_unit_phase(grid, np.random.default_rng(seed)))
            assert same_bytes(g.half, 1j * grid.k_half * h_hat)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_unit_phase_of_zero_and_non_finite_samples(self, dim, n):
        # a zero or NaN modulus takes the phase 1, exactly as where(mag > 0, ...) did
        grid = make_grid(dim, n)
        noise = np.random.default_rng(3).standard_normal(grid.shape)
        constant = np.full(grid.shape, 2.0)  # every mode but 0 is exactly 0
        with np.errstate(invalid="ignore"):
            for values in (noise, np.zeros(grid.shape), constant, with_specials(noise)):
                got = _unit_phase_coeffs(grid, _Samples(values))
                assert same_bytes(got, reference_unit_phase(grid, _Samples(values)))


class TestLeanOperatorMemory:
    """The transient of each rewritten operator at 3D N=32, in half fields of (3,) +
    half_shape complex128 (835,584 bytes). Measured: `_rfft` 1.12, `_irfft` 1.94 (0.94 with
    `overwrite`, its samples alone), `leray_symbol_apply` 1.49, `_unit_phase_coeffs` 0.69,
    `random_divfree_field` 2.66; the expressions they replaced peaked at 2.00, 2.00 (numpy's
    irfftn), 2.33, 1.36 and 3.50. Each bound is the measured value plus about 0.1."""

    @staticmethod
    def half_fields(grid, peak):
        return peak / (grid.dim * int(np.prod(grid.half_shape)) * 16)

    def test_rfft(self, grid3_32, traced_peak):
        values = np.fft.irfftn(random_divfree_field(grid3_32, 1).half, s=grid3_32.shape,
                               axes=grid3_32.spatial_axes)
        _, peak = traced_peak(_rfft, values, grid3_32)
        assert self.half_fields(grid3_32, peak) <= 1.25

    @pytest.mark.parametrize("overwrite,bound", [(False, 2.05), (True, 1.05)])
    def test_irfft(self, grid3_32, traced_peak, overwrite, bound):
        coeffs = random_divfree_field(grid3_32, 1).half
        _, peak = traced_peak(_irfft, coeffs, grid3_32, overwrite)
        assert self.half_fields(grid3_32, peak) <= bound

    def test_leray_symbol_apply(self, grid3_32, traced_peak):
        coeffs = random_divfree_field(grid3_32, 1).half
        _, peak = traced_peak(leray_symbol_apply, grid3_32, coeffs)
        assert self.half_fields(grid3_32, peak) <= 1.6

    def test_unit_phase_coeffs(self, grid3_32, traced_peak):
        _, peak = traced_peak(_unit_phase_coeffs, grid3_32, np.random.default_rng(1))
        assert self.half_fields(grid3_32, peak) <= 0.8

    def test_random_divfree_field(self, grid3_32, traced_peak):
        _, peak = traced_peak(random_divfree_field, grid3_32, 3)
        assert self.half_fields(grid3_32, peak) <= 2.8
