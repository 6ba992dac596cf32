"""Operator calculus: projection, resolvents, semigroup, fractional powers,
advection, and norms. Algebraic identities are asserted at 1e-12; quadrature
closed forms are frozen from hand integration."""

import numpy as np
import pytest

from nsmild import (
    FracNormParams,
    SpectralVectorField,
    advect,
    dealias,
    field_from_function,
    frac_norm,
    frac_power,
    gradient_norm,
    heat_semigroup,
    inverse_transform,
    l2_inner,
    laplacian,
    leray_project,
    lp_norm,
    make_grid,
    nonlinear_F,
    phi1,
    random_divfree_field,
    random_gradient_field,
    resolvent,
    spectral_l2_norm,
    zero_field,
)
from nsmild.grid import _full_spectrum, _irfft, _rfft, leray_symbol_apply
from nsmild.operators import (
    _half_advect,
    _jacobian_entries,
    _libm_pow,
    _lp,
    _phi1_of,
    apply_shifted_laplacian,
    max_pointwise_divergence,
    projected_nonlinearity,
)
from nsmild.verification import check_diagonal_dependence, taylor_green

from conftest import (
    LEAN_SIZES,
    full_lattice,
    half_columns,
    lean_batch,
    reference_leray,
    same_bytes,
    with_specials,
)


def single_mode_u(grid):
    """(sin x2, 0, 0): unit |k| eigenfield of the Laplacian."""
    return field_from_function(grid, (lambda x, y, z: np.sin(y), 0.0, 0.0))


class TestLerayProjection:
    def test_annihilates_gradients(self, grid3):
        # u = grad(cos x1) = (-sin x1, 0, 0)
        u = field_from_function(grid3, (lambda x, y, z: -np.sin(x), 0.0, 0.0))
        pu = leray_project(u)
        assert pu.max_abs() <= 1e-12 * u.max_abs()

    def test_fixes_divfree(self, grid3):
        u = single_mode_u(grid3)
        pu = leray_project(u)
        np.testing.assert_allclose(pu.coeffs, u.coeffs, atol=1e-14)

    def test_idempotent_on_random(self, grid3):
        for seed in range(10):
            w = random_gradient_field(grid3, seed) + random_divfree_field(grid3, seed + 50)
            pw = leray_project(w)
            ppw = leray_project(pw)
            assert np.max(np.abs(ppw.coeffs - pw.coeffs)) <= 1e-12 * pw.max_abs()
            assert pw.divergence_defect() <= 1e-12


class TestLaplacianResolvent:
    def test_laplacian_eigenmode(self, grid3):
        u = single_mode_u(grid3)
        np.testing.assert_allclose(laplacian(u).coeffs, -u.coeffs, atol=1e-14)

    def test_resolvent_eigenmode(self, grid3):
        u = single_mode_u(grid3)
        np.testing.assert_allclose(resolvent(3.0, u).coeffs, 0.25 * u.coeffs, atol=1e-14)

    def test_resolvent_identity(self, grid3):
        u = random_divfree_field(grid3, seed=1)
        for lam in (1.0, 10.0, 100.0):
            back = apply_shifted_laplacian(lam, resolvent(lam, u))
            assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-12 * u.max_abs()

    def test_resolvent_preserves_divfree(self, grid3):
        u = random_divfree_field(grid3, seed=2)
        for lam in (1.0, 10.0, 100.0):
            assert resolvent(lam, u).divergence_defect() <= 1e-12

    def test_resolvent_rejects_nonpositive_lambda(self, grid3):
        u = single_mode_u(grid3)
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                resolvent(lam, u)


class TestHeatSemigroup:
    def test_eigenmode_decay(self, grid3):
        u = single_mode_u(grid3)
        ut = heat_semigroup(1.0, 1.0, u)
        np.testing.assert_allclose(ut.coeffs, np.exp(-1.0) * u.coeffs, atol=1e-14)

    def test_identity_at_zero(self, grid3):
        u = random_divfree_field(grid3, seed=3)
        np.testing.assert_array_equal(heat_semigroup(0.0, 1.0, u).coeffs, u.coeffs)

    def test_semigroup_law(self, grid3):
        u = random_divfree_field(grid3, seed=4)
        for s in (0.1, 0.3):
            for t in (0.1, 0.3):
                two = heat_semigroup(s, 1.0, heat_semigroup(t, 1.0, u))
                one = heat_semigroup(s + t, 1.0, u)
                assert np.max(np.abs(two.coeffs - one.coeffs)) <= 1e-12 * u.max_abs()

    def test_lp_contraction(self, grid3):
        for seed in range(5):
            u = random_divfree_field(grid3, seed)
            for p in (2.0, 4.0):
                n0 = lp_norm(u, p)
                for t in (0.01, 0.1, 1.0):
                    assert lp_norm(heat_semigroup(t, 1.0, u), p) <= n0 * (1 + 1e-12)

    def test_divfree_invariance(self, grid3):
        u = random_divfree_field(grid3, seed=6)
        for t in (0.01, 0.1, 1.0):
            assert heat_semigroup(t, 1.0, u).divergence_defect() <= 1e-12

    def test_rejects_negative_time(self, grid3):
        with pytest.raises(ValueError):
            heat_semigroup(-0.1, 1.0, single_mode_u(grid3))


class TestFracPower:
    def test_mode_two_factor(self, grid3):
        u = field_from_function(grid3, (lambda x, y, z: np.sin(2 * y), 0.0, 0.0))
        half = frac_power(0.5, u)  # |k| = 2
        np.testing.assert_allclose(half.coeffs, 2.0 * u.coeffs, atol=1e-14)

    def test_alpha_one_is_minus_laplacian(self, grid3):
        u = random_divfree_field(grid3, seed=7)
        np.testing.assert_allclose(
            frac_power(1.0, u).coeffs, -laplacian(u).coeffs, atol=1e-12 * u.max_abs()
        )

    def test_alpha_zero_identity(self, grid3):
        u = random_divfree_field(grid3, seed=8)
        np.testing.assert_allclose(frac_power(0.0, u).coeffs, u.coeffs, atol=1e-14)

    def test_inverse_composition(self, grid3):
        u = random_divfree_field(grid3, seed=9)
        for alpha in (0.25, 0.5, 1.0):
            back = frac_power(-alpha, frac_power(alpha, u))
            assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-12 * u.max_abs()

    def test_additive_composition(self, grid3):
        u = random_divfree_field(grid3, seed=10)
        for a, b in ((0.5, 0.5), (0.25, 0.5), (-0.5, 0.75)):
            left = frac_power(a, frac_power(b, u))
            right = frac_power(a + b, u)
            assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * u.max_abs()

    def test_rejects_nonzero_mean(self, grid3):
        u = field_from_function(grid3, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            frac_power(0.5, u)


class TestPhi1:
    def test_mode_zero_factor_one(self, grid3):
        u = field_from_function(grid3, (2.0, 0.0, 0.0))
        out = phi1(1.0, 1.0, u)
        np.testing.assert_allclose(out.coeffs[0, 0, 0, 0], 2.0, atol=1e-14)

    def test_unit_mode_value(self, grid3):
        # phi1(-1) = 1 - e^{-1}
        u = single_mode_u(grid3)
        out = phi1(1.0, 1.0, u)
        np.testing.assert_allclose(out.coeffs[0, 0, 1, 0],
                                   (1 - np.exp(-1)) * u.coeffs[0, 0, 1, 0], rtol=1e-13)

    def test_branch_agreement(self):
        # the Taylor series vs the stable direct formula at z = -1e-4
        z = np.array([-1e-4])
        direct = np.expm1(z) / z
        series = 1 + z / 2 + z**2 / 6 + z**3 / 24
        assert abs(direct[0] - series[0]) < 1e-12
        # _phi1_of is the direct formula there, and keeps full precision at |z| = 1e-8
        np.testing.assert_allclose(_phi1_of(z), direct, rtol=1e-13)
        np.testing.assert_allclose(_phi1_of(np.array([-1e-8])), [1 - 0.5e-8], rtol=1e-12)


class TestAdvect:
    def test_single_mode_product(self, grid3):
        u = single_mode_u(grid3)
        v = field_from_function(grid3, (0.0, lambda x, y, z: np.sin(x), 0.0))
        w = advect(u, v)
        x = grid3.coords()
        expected = np.zeros((3,) + grid3.shape)
        expected[1] = np.sin(x[1]) * np.cos(x[0])
        np.testing.assert_allclose(inverse_transform(w).values, expected, atol=1e-13)

    def test_constant_v_gives_zero(self, grid3):
        u = random_divfree_field(grid3, seed=12)
        v = field_from_function(grid3, (1.0, 2.0, -0.5))
        assert advect(u, v).max_abs() <= 1e-14

    def test_taylor_green_convective_term(self, grid2):
        # (u . grad)u = (sin x cos x, sin y cos y) = 1/2 (sin 2x, sin 2y)
        tg = taylor_green(grid2, 1.0, 0.0)
        w = advect(tg, tg)
        x = grid2.coords()
        expected = np.stack([0.5 * np.sin(2 * x[0]), 0.5 * np.sin(2 * x[1])])
        np.testing.assert_allclose(inverse_transform(w).values, expected, atol=1e-13)

    def test_grid_mismatch(self, grid2):
        u = random_divfree_field(grid2, seed=1)
        v = random_divfree_field(make_grid(2, 16), seed=1)
        with pytest.raises(ValueError):
            advect(u, v)


class TestMultipliersBitForBit:
    """Each wrapper is u.coeffs times its symbol, and `_half_advect` serves any batch shape."""

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_wrappers_multiply_by_their_symbols(self, dim, n):
        grid = make_grid(dim, n)
        u = random_divfree_field(grid, seed=5)
        k_sq = full_lattice(grid).k_sq
        frac = np.zeros_like(k_sq)
        frac[k_sq > 0] = k_sq[k_sq > 0] ** 0.25
        cases = [
            (laplacian(u), -k_sq),
            (resolvent(3.0, u), 1.0 / (3.0 + k_sq)),
            (apply_shifted_laplacian(3.0, u), 3.0 + k_sq),
            (heat_semigroup(0.2, 0.7, u), np.exp(-0.7 * 0.2 * k_sq)),
            (frac_power(0.25, u), frac),
            (phi1(0.2, 0.7, u), _phi1_of(-0.7 * 0.2 * k_sq)),
        ]
        for got, symbol in cases:
            assert np.array_equal(got.coeffs, u.coeffs * symbol)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("apply_dealias", [True, False])
    def test_batched_advect_is_per_field_advect(self, dim, n, apply_dealias):
        grid = make_grid(dim, n)
        us = [random_divfree_field(grid, seed) for seed in range(4)]
        vs = [random_divfree_field(grid, seed) for seed in range(10, 14)]
        batch = lambda fields: np.stack([f.coeffs for f in fields]).reshape(
            (2, 2, dim) + grid.shape)
        got = _half_advect(grid, half_columns(batch(us), grid), half_columns(batch(vs), grid),
                           apply_dealias)
        got = _full_spectrum(got, grid)
        expected = batch([advect(u, v, apply_dealias) for u, v in zip(us, vs)])
        assert np.array_equal(got, expected)


class TestHalfAdvect:
    """`advect` masks and differentiates only the half; the same bits as the full lattice."""

    @staticmethod
    def full_lattice_advect(grid, u, v, apply_dealias):
        """The advective body with masks and derivatives on the full lattice."""
        d, full = grid.dim, full_lattice(grid)
        if apply_dealias:
            u = u * full.dealias_mask
            v = v * full.dealias_mask
        u_phys = _irfft(half_columns(u, grid), grid)
        out = np.zeros_like(u_phys)
        for j, u_j in enumerate(np.moveaxis(u_phys, -d - 1, 0)):
            out += np.expand_dims(u_j, -d - 1) * _irfft(
                half_columns(1j * full.k[j] * v, grid), grid)
        half = _rfft(out, grid)
        if apply_dealias:
            half *= half_columns(full.dealias_mask, grid)
        return _full_spectrum(half, grid)

    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (3, 16)])
    @pytest.mark.parametrize("apply_dealias", [True, False])
    def test_equals_the_full_lattice_formula(self, dim, n, apply_dealias):
        grid = make_grid(dim, n)
        for seed in range(3):
            u = random_divfree_field(grid, seed)
            v = random_gradient_field(grid, seed + 10)
            expected = self.full_lattice_advect(grid, u.coeffs, v.coeffs, apply_dealias)
            assert np.array_equal(advect(u, v, apply_dealias).coeffs, expected)


class TestNonlinearF:
    def test_taylor_green_annihilated(self, grid2):
        # convective term is grad(-1/4 (cos 2x + cos 2y)), killed by projection
        tg = taylor_green(grid2, 1.0, 0.0)
        assert nonlinear_F(tg).max_abs() <= 1e-12 * tg.max_abs()

    def test_zero_input(self, grid2):
        assert nonlinear_F(zero_field(grid2)).max_abs() == 0.0

    def test_output_divfree(self, grid3):
        for seed in range(5):
            u = random_divfree_field(grid3, seed)
            assert nonlinear_F(u).divergence_defect() <= 1e-12

    def test_rejects_nondivfree(self, grid3):
        g = random_gradient_field(grid3, seed=3)
        with pytest.raises(ValueError):
            nonlinear_F(g)


def advective_F(u, apply_dealias=True):
    """The reference form -P (u . grad) u with the zero mode pinned.

    Without dealiasing the Nyquist planes of the advection image are zeroed.
    """
    image = advect(u, u, apply_dealias=apply_dealias)
    if not apply_dealias:
        image = SpectralVectorField(u.grid, half_columns(
            image.coeffs * ~full_lattice(u.grid).nyquist_mask, u.grid))
    coeffs = -leray_project(image).coeffs
    coeffs[(slice(None),) + (0,) * u.grid.dim] = 0.0
    return coeffs


class TestDivergenceFormF:
    @pytest.mark.parametrize("dim,n", [(2, 64), (2, 256), (3, 32), (2, 48), (3, 24)])
    def test_agrees_with_advective_form(self, dim, n):
        grid = make_grid(dim, n)
        for seed in range(3):
            u = random_divfree_field(grid, seed)
            expected = advective_F(u)
            got = _full_spectrum(projected_nonlinearity(grid, u.half), grid)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_nonlinear_F_uses_it(self, grid3_32):
        u = random_divfree_field(grid3_32, seed=4)
        np.testing.assert_array_equal(
            nonlinear_F(u).half, projected_nonlinearity(grid3_32, u.half)
        )

    @pytest.mark.parametrize(
        "dim,n,dealias",
        [(2, 32, True), (2, 256, True), (3, 16, True), (2, 32, False)],
        ids=["2-32", "2-256", "3-16", "2-32-undealiased"],
    )
    def test_batched_kernel_is_per_field_kernel(self, dim, n, dealias):
        grid = make_grid(dim, n)
        fields = [random_divfree_field(grid, seed) for seed in range(4)]
        stacked = projected_nonlinearity(grid, np.stack([u.half for u in fields]), dealias)
        for u, got in zip(fields, stacked):
            np.testing.assert_array_equal(got, projected_nonlinearity(grid, u.half, dealias))
        two_axes = stacked.reshape((2, 2) + stacked.shape[1:])
        inputs = np.stack([u.half for u in fields]).reshape(two_axes.shape)
        np.testing.assert_array_equal(projected_nonlinearity(grid, inputs, dealias), two_axes)

    @staticmethod
    def reference_kernel(grid, coeffs):
        """The dealiased kernel written with a fresh array per operation."""
        d = grid.dim
        mask = half_columns(full_lattice(grid).dealias_mask, grid)
        k = half_columns(full_lattice(grid).k, grid)
        u_phys = np.moveaxis(_irfft(half_columns(coeffs, grid) * mask, grid), -d - 1, 0)
        rows, cols = np.triu_indices(d)
        products = _rfft(u_phys[rows] * u_phys[cols], grid)
        div = np.zeros((d,) + products.shape[1:], dtype=np.complex128)
        for pair, (i, j) in enumerate(zip(rows, cols)):
            div[i] += k[j] * products[pair]
            if i != j:
                div[j] += k[i] * products[pair]
        half = leray_symbol_apply(grid, np.moveaxis(div, 0, -d - 1) * mask) * -1j
        half[(...,) + (0,) * d] = 0.0
        return half

    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 256), (3, 16)])
    def test_in_place_kernel_is_the_reference_bit_for_bit(self, dim, n):
        grid = make_grid(dim, n)
        fields = np.stack([random_divfree_field(grid, seed).half for seed in range(6)])
        for coeffs in (fields[0], fields.reshape((2, 3) + fields.shape[1:])):
            np.testing.assert_array_equal(
                projected_nonlinearity(grid, coeffs), self.reference_kernel(grid, coeffs)
            )

    def test_without_dealiasing_is_advective_form(self, grid2):
        u = random_divfree_field(grid2, seed=5)
        np.testing.assert_array_equal(
            nonlinear_F(u, apply_dealias=False).coeffs, advective_F(u, apply_dealias=False)
        )


class TestNorms:
    def test_lp_closed_form(self, grid3):
        # int sin^2(x2) over [0,2pi]^3 = 4 pi^3, so |u|_2 = 2 pi^{3/2}
        u = single_mode_u(grid3)
        np.testing.assert_allclose(lp_norm(u, 2.0), 2 * np.pi**1.5, rtol=1e-12)

    def test_frac_norm_unit_eigenvalue(self, grid3):
        u = single_mode_u(grid3)
        np.testing.assert_allclose(
            frac_norm(u, FracNormParams(0.5, 2.0)), 2 * np.pi**1.5, rtol=1e-12
        )

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_frac_norm_at_alpha_0_is_lp_norm_with_a_mean(self, grid2, p):
        # alpha = 0 takes no fractional power, so a nonzero mean mode is accepted
        u = field_from_function(grid2, (lambda x, y: 1.0 + np.sin(y), 0.0))
        assert u.mean_mode()[0] != 0
        assert frac_norm(u, FracNormParams(0.0, p)) == lp_norm(u, p)

    def test_zero_field(self, grid3):
        z = zero_field(grid3)
        for p in (2.0, 3.0, 4.0):
            assert lp_norm(z, p) == 0.0
        assert frac_norm(z, FracNormParams(0.5, 2.0)) == 0.0

    def test_rejects_small_p(self, grid3):
        with pytest.raises(ValueError):
            lp_norm(single_mode_u(grid3), 1.5)
        with pytest.raises(ValueError):
            FracNormParams(0.5, 1.0)

    def test_parseval_agreement(self, grid3):
        u = random_divfree_field(grid3, seed=14, spectrum_decay=2.0)
        np.testing.assert_allclose(lp_norm(u, 2.0), spectral_l2_norm(u), rtol=1e-10)

    def test_gradient_norm_full_matches_half_power(self, grid3):
        u = single_mode_u(grid3)
        np.testing.assert_allclose(gradient_norm(u, 2.0, "full"), 2 * np.pi**1.5, rtol=1e-12)
        for seed in range(5):
            w = random_divfree_field(grid3, seed)
            g = gradient_norm(w, 2.0, "full")
            f = frac_norm(w, FracNormParams(0.5, 2.0))
            np.testing.assert_allclose(g, f, rtol=1e-10)

    def test_gradient_norm_diagonal_variant(self, grid3):
        # (sin x2, 0, 0) has only the du1/dx2 entry; the diagonal is empty
        u = single_mode_u(grid3)
        assert gradient_norm(u, 2.0, "diagonal") <= 1e-13
        z = zero_field(grid3)
        assert gradient_norm(z, 2.0, "full") == 0.0
        assert gradient_norm(z, 2.0, "diagonal") == 0.0


class TestBatchedLp:
    """`_lp` of a batch is `lp_norm` of each row, bit for bit."""

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_rows_equal_lp_norm(self, dim, n, p):
        grid = make_grid(dim, n)
        fields = [random_divfree_field(grid, seed) for seed in range(20)]
        rows = [inverse_transform(u).values for u in fields]
        # the quadrature in Python floats (numpy's vectorized power can differ in the last bit)
        cell = grid.cell_volume
        quadrature = [(cell * float(np.sum(np.abs(x) ** p))) ** (1.0 / p) for x in rows]
        assert [lp_norm(u, p) for u in fields] == quadrature
        batch = _lp(np.stack(rows).reshape((4, 5, dim) + grid.shape), grid, p)
        np.testing.assert_array_equal(batch, np.reshape(quadrature, (4, 5)))


class TestRealInverseTransform:
    """Jacobian norms and pointwise divergence against the complex reference."""

    @staticmethod
    def reference_jacobian(u):
        grid, k = u.grid, full_lattice(u.grid).k
        return np.stack([
            np.stack([
                np.real(np.fft.ifftn(1j * k[j] * u.coeffs[i])) * grid.n_points
                for j in range(grid.dim)
            ])
            for i in range(grid.dim)
        ])

    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 256), (3, 16), (3, 32)])
    def test_agrees_with_complex_inverse(self, dim, n):
        grid = make_grid(dim, n)
        offdiag = ~np.eye(dim, dtype=bool)
        for seed in range(3):
            for u in (random_divfree_field(grid, seed), random_gradient_field(grid, seed)):
                jac = self.reference_jacobian(u)
                tol = 1e-14 * np.max(np.abs(jac))
                for p in (2.0, 4.0):
                    for variant, entries in (("full", jac), ("diagonal", jac[~offdiag])):
                        expected = (grid.cell_volume * np.sum(np.abs(entries) ** p)) ** (1 / p)
                        got = gradient_norm(u, p, variant)
                        assert abs(got - expected) <= 1e-14 * expected
                _, max_off = check_diagonal_dependence(u)
                assert abs(max_off - np.max(np.abs(jac[offdiag]))) <= tol
                div = np.trace(jac)
                assert abs(max_pointwise_divergence(u) - np.max(np.abs(div))) <= tol


class TestMaxPointwiseDivergence:
    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 256), (3, 16)])
    def test_half_spectrum_equals_full_lattice_bit_for_bit(self, dim, n):
        grid = make_grid(dim, n)
        for seed in range(3):
            for u in (random_divfree_field(grid, seed), random_gradient_field(grid, seed)):
                expected = float(np.max(np.abs(_irfft(u.divergence_coeffs(), grid))))
                assert max_pointwise_divergence(u) == expected


class TestEnergyOrthogonality:
    def test_advection_energy_neutral(self, grid3_32):
        # <(u.grad)u, u> = -1/2 <div u, |u|^2> = 0 for dealiased div-free u
        for seed in range(10):
            u = dealias(random_divfree_field(grid3_32, seed))
            w = advect(u, u)
            denom = spectral_l2_norm(u) ** 3
            assert abs(l2_inner(w, u)) <= 1e-8 * denom


# -- each rewritten operator against the expression it replaced --------------------------


def reference_half_advect(grid, u, v, apply_dealias):
    """`_half_advect` with one inverse transform of 1j k_j v per j and a fresh product."""
    d = grid.dim
    k, mask = grid.k_half, grid.dealias_mask_half
    if apply_dealias:
        u, v = u * mask, v * mask
    u_phys = _irfft(u, grid)
    out = np.zeros_like(u_phys)
    for j, u_j in enumerate(np.moveaxis(u_phys, -d - 1, 0)):
        out += np.expand_dims(u_j, -d - 1) * _irfft(1j * k[j] * v, grid)
    half = _rfft(out, grid)
    if apply_dealias:
        half *= mask
    return half


def reference_lp(values, grid, p):
    """`_lp` with an out-of-place power."""
    total = np.sum(np.abs(values) ** p, axis=tuple(range(-grid.dim - 1, 0)))
    return _libm_pow(grid.cell_volume * total, 1.0 / p)


def reference_jacobian_entries(u, pairs):
    """`_jacobian_entries` with each entry's samples copied into its row."""
    out = np.empty((len(pairs),) + u.grid.shape)
    for row, (i, j) in zip(out, pairs):
        row[...] = _irfft(1j * u.grid.k_half[j] * u.half[i], u.grid, overwrite=True)
    return out


class TestLeanOperatorBits:
    """`_half_advect` (so `advect`), the kernel without dealiasing and `_lp` give the bytes
    of the expressions they replaced, and write no input."""

    @pytest.mark.parametrize("dim,n", LEAN_SIZES)
    @pytest.mark.parametrize("apply_dealias", [True, False])
    def test_half_advect(self, dim, n, apply_dealias):
        grid = make_grid(dim, n)
        batch, special = lean_batch(grid)
        with np.errstate(invalid="ignore", over="ignore"):
            # u = 0 makes products of -0.0 where a derivative of v is negative
            for u, v in ((batch[0], batch[1]), (batch[0], batch[0]), (batch, batch[::-1]),
                         (special, batch), (np.zeros_like(batch[0]), batch[1])):
                before = u.copy(), v.copy()
                got = _half_advect(grid, u, v, apply_dealias)
                assert same_bytes(got, reference_half_advect(grid, u, v, apply_dealias))
                assert same_bytes(u, before[0]) and same_bytes(v, before[1])
        fields = [SpectralVectorField(grid, h) for h in batch]
        assert same_bytes(advect(*fields, apply_dealias).half,
                          reference_half_advect(grid, *batch, apply_dealias))

    @pytest.mark.parametrize("dim,n", LEAN_SIZES)
    def test_kernel_without_dealiasing(self, dim, n):
        grid = make_grid(dim, n)
        batch, _ = lean_batch(grid)
        for coeffs in (batch[0], batch):
            before = coeffs.copy()
            image = reference_half_advect(grid, coeffs, coeffs, False) * ~grid.nyquist_mask_half
            expected = -reference_leray(grid, image)
            expected[(...,) + (0,) * dim] = 0.0
            assert same_bytes(projected_nonlinearity(grid, coeffs, False), expected)
            assert same_bytes(coeffs, before)

    @pytest.mark.parametrize("dim,n", LEAN_SIZES)
    @pytest.mark.parametrize("p", [2, 2.0, 2.5, 3.0, 4.0, 7.3, 1000.0])
    def test_lp(self, dim, n, p):
        # the in-place power is the ufunc and fast path of `** p`, with +-0, +-inf and NaN too
        grid = make_grid(dim, n)
        batch, _ = lean_batch(grid)
        samples = _irfft(batch, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            for values in (samples, samples[1], with_specials(samples)):
                before = values.copy()
                assert same_bytes(_lp(values, grid, p), reference_lp(values, grid, p))
                assert same_bytes(values, before)

    @pytest.mark.parametrize("dim,n", LEAN_SIZES)
    def test_jacobian_entries(self, dim, n):
        grid = make_grid(dim, n)
        batch, special = lean_batch(grid)
        pairs = list(np.ndindex(dim, dim))
        with np.errstate(invalid="ignore"):
            for half in (batch[0], special[1]):
                u = SpectralVectorField(grid, half)
                before = u.half.copy()
                for entries in (pairs, pairs[::-1][:dim]):
                    assert same_bytes(_jacobian_entries(u, entries),
                                      reference_jacobian_entries(u, entries))
                assert same_bytes(u.half, before)


class TestLeanOperatorMemory:
    """The transient of each rewritten operator at 3D N=32, in half fields of (3,) +
    half_shape complex128 (835,584 bytes). Measured: `advect` 4.04, the kernel without
    dealiasing 3.04, the dealiased kernel 2.77 (3.12 at 2D N=256, in half fields of that
    grid), `_lp` of one field's samples 0.94, the 9 `_jacobian_entries` 3.32; the
    expressions they replaced peaked at 6.89, 4.89, 3.08 (3.61), 1.88 and 3.47 (each
    entry's samples copied into its row), and `advect` and the kernels peaked at 4.22,
    3.22, 3.08 (3.61) before their inverse transforms ran in their own temporaries. Each
    bound is the measured value plus about 0.1-0.2."""

    @staticmethod
    def half_fields(grid, peak):
        return peak / (grid.dim * int(np.prod(grid.half_shape)) * 16)

    def test_advect(self, grid3_32, traced_peak):
        u, v = (random_divfree_field(grid3_32, seed) for seed in (1, 2))
        _, peak = traced_peak(advect, u, v)
        assert self.half_fields(grid3_32, peak) <= 4.2

    def test_kernel_without_dealiasing(self, grid3_32, traced_peak):
        coeffs = random_divfree_field(grid3_32, 1).half
        _, peak = traced_peak(projected_nonlinearity, grid3_32, coeffs, False)
        assert self.half_fields(grid3_32, peak) <= 3.2

    @pytest.mark.parametrize("dim,n,bound", [(3, 32, 2.9), (2, 256, 3.25)])
    def test_dealiased_kernel(self, traced_peak, dim, n, bound):
        grid = make_grid(dim, n)
        coeffs = random_divfree_field(grid, 1).half
        _, peak = traced_peak(projected_nonlinearity, grid, coeffs)
        assert self.half_fields(grid, peak) <= bound

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_lp(self, grid3_32, traced_peak, p):
        values = _irfft(random_divfree_field(grid3_32, 1).half, grid3_32)
        _, peak = traced_peak(_lp, values, grid3_32, p)
        assert self.half_fields(grid3_32, peak) <= 1.0

    def test_jacobian_entries(self, grid3_32, traced_peak):
        u = random_divfree_field(grid3_32, 1)
        _, peak = traced_peak(_jacobian_entries, u, list(np.ndindex(3, 3)))
        assert self.half_fields(grid3_32, peak) <= 3.4
