"""Mild-form solvers: exponential Euler stepping, Picard windows, adaptive
window search, and trajectory invariants."""

import numpy as np
import pytest

from nsmild import (
    FieldBlowup,
    FracNormParams,
    MaxIters,
    NotContracting,
    SolverConfig,
    Trajectory,
    adaptive_window,
    exp_euler_step,
    frac_norm,
    field_from_function,
    heat_semigroup,
    lp_norm,
    march,
    nonlinear_F,
    picard_solve,
    random_divfree_field,
    random_gradient_field,
    spectral_l2_norm,
    zero_field,
)
from nsmild import grid as grid_module
from nsmild import operators, solver
from nsmild.grid import (
    ForcingSpec,
    SpectralVectorField,
    _full_spectrum,
    _irfft,
    leray_symbol_apply,
    make_grid,
)
from nsmild.operators import _lp, _phi1_of
from nsmild.solver import (
    SolverError,
    compute_diagnostics,
    march_schedule,
    prepare_initial,
)
from nsmild.verification import taylor_green

from conftest import full_lattice, half_columns


def normalized_x_half(u, target=0.1, p=2.0):
    return (target / frac_norm(u, FracNormParams(0.5, p))) * u


def full_lattice_symbols(grid, config):
    """(heat, h_phi1) of one step on the full lattice: exp(-nu h |k|^2), h phi1(-nu h |k|^2)."""
    z = -config.nu * config.dt * full_lattice(grid).k_sq
    return np.exp(z), config.dt * _phi1_of(z)


def full_lattice_F(grid, coeffs, dealias):
    """The projected nonlinearity of full-lattice coefficients, mirrored to the full lattice."""
    half = operators.projected_nonlinearity(grid, half_columns(coeffs, grid), dealias)
    return _full_spectrum(half, grid)


def full_lattice_projected(forcing):
    """P f0 on the full lattice with its mean mode zeroed, or None for zero forcing;
    `ForcingSpec.projected` holds its half."""
    if forcing.projected is None:
        return None
    grid = forcing.base_field.grid
    projected = _full_spectrum(leray_symbol_apply(grid, forcing.base_field.half), grid)
    projected[(slice(None),) + (0,) * grid.dim] = 0.0
    return projected


class TestExpEulerStep:
    def test_taylor_green_step_is_heat_decay(self, grid2):
        # F vanishes on the vortex, so one step is exact modewise decay
        tg = taylor_green(grid2, 1.0, 0.0)
        config = SolverConfig(nu=1.0, dt=1e-2)
        u1 = exp_euler_step(prepare_initial(tg), 0.0, config)
        expected = np.exp(-2.0 * 1e-2) * tg.coeffs
        assert np.max(np.abs(u1.coeffs - expected)) <= 1e-12 * tg.max_abs()

    def test_rest_state(self, grid2):
        config = SolverConfig(dt=1e-2)
        u1 = exp_euler_step(zero_field(grid2), 0.0, config)
        assert u1.max_abs() == 0.0

    def test_single_mode_decay_factor(self, grid3):
        # self-advection of one mode along its null direction vanishes
        u = field_from_function(grid3, (lambda x, y, z: np.sin(y), 0.0, 0.0))
        config = SolverConfig(nu=2.0, dt=5e-3)
        u1 = exp_euler_step(prepare_initial(u), 0.0, config)
        expected = np.exp(-2.0 * 5e-3) * u.coeffs  # |k|^2 = 1
        assert np.max(np.abs(u1.coeffs - expected)) <= 1e-12 * u.max_abs()

    def test_output_divfree(self, grid2):
        u = random_divfree_field(grid2, seed=1)
        config = SolverConfig(dt=1e-3)
        u1 = exp_euler_step(prepare_initial(u), 0.0, config)
        assert u1.divergence_defect() <= 1e-12

    def test_non_finite_step_raises_field_blowup(self, grid2):
        # F of an amplitude-1e200 field overflows to inf
        u = prepare_initial(random_divfree_field(grid2, seed=1, amplitude=1e200))
        with pytest.raises(FieldBlowup, match="non-finite field after step at t=0.25"):
            exp_euler_step(u, 0.25, SolverConfig(dt=1e-2))


class TestStepBitIdentity:
    """The in-place step computes the textbook expression in its order, bit for bit."""

    @pytest.mark.parametrize("kind", ["zero", "steady", "hoelder_modulated"])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_equals_the_plain_expression(self, dim, n, kind):
        grid = make_grid(dim, n)
        base = None if kind == "zero" else prepare_initial(random_divfree_field(grid, seed=21))
        config = SolverConfig(dt=1e-2, forcing=ForcingSpec(kind=kind, base_field=base,
                                                           exponent=0.5))
        heat, h_phi1 = full_lattice_symbols(grid, config)
        projected = full_lattice_projected(config.forcing)
        for seed, t in ((1, 0.0), (2, 0.37)):
            u = prepare_initial(random_divfree_field(grid, seed))
            F = nonlinear_F(u)
            a = config.forcing.amplitude(t)
            rhs = F.coeffs if a is None else F.coeffs + a * projected
            expected = u.coeffs * heat + rhs * h_phi1
            np.testing.assert_array_equal(exp_euler_step(u, t, config).coeffs, expected)

    @pytest.mark.parametrize("dealias", [True, False], ids=["dealiased", "undealiased"])
    @pytest.mark.parametrize("kind", ["zero", "steady", "hoelder_modulated"])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16), (2, 48)])
    def test_is_the_first_step_of_march(self, dim, n, kind, dealias):
        grid = make_grid(dim, n)
        base = None if kind == "zero" else prepare_initial(random_divfree_field(grid, seed=22))
        config = SolverConfig(dt=1e-2, dealias=dealias,
                              forcing=ForcingSpec(kind=kind, base_field=base, exponent=0.5))
        u0 = random_divfree_field(grid, seed=23)
        final = march(u0, config, config.dt).final_field
        step = exp_euler_step(prepare_initial(u0), 0.0, config)
        assert step.grid == final.grid and np.array_equal(step.coeffs, final.coeffs)


class TestParsevalDiagnostics:
    """At p = 2 the diagnostics norms are coefficient sums; other p stay collocation."""

    @pytest.mark.parametrize("dealias", [True, False], ids=["dealiased", "undealiased"])
    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 16)])
    def test_p2_norms_agree_with_collocation(self, dim, n, dealias):
        grid = make_grid(dim, n)
        config = SolverConfig(p=2.0, dealias=dealias)
        for seed in range(5):
            u = prepare_initial(random_divfree_field(grid, seed, amplitude=10.0 ** (seed - 2)))
            row = compute_diagnostics(u, 0.0, config)
            x_half = frac_norm(u, FracNormParams(0.5, config.p))
            norm_f = lp_norm(nonlinear_F(u, apply_dealias=dealias), 2.0)
            assert abs(row.norm_x_half - x_half) <= 1e-14 * x_half
            assert abs(row.norm_f - norm_f) <= 1e-14 * norm_f

    def test_p2_takes_no_collocation_norm(self, grid2, monkeypatch):
        for name in ("_irfft", "_lp"):
            monkeypatch.setattr(solver, name, lambda *args, _n=name: pytest.fail(f"{_n} called"))
        u = prepare_initial(random_divfree_field(grid2, seed=3))
        row = compute_diagnostics(u, 0.0, SolverConfig(p=2.0))
        assert row.norm_x_half ** 2 == pytest.approx(row.enstrophy, rel=1e-15)

    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 16)])
    def test_other_p_is_collocation_exactly(self, dim, n):
        grid = make_grid(dim, n)
        config = SolverConfig(p=3.0)
        for seed in range(3):
            u = prepare_initial(random_divfree_field(grid, seed))
            row = compute_diagnostics(u, 0.0, config)
            assert row.norm_x_half == frac_norm(u, FracNormParams(0.5, config.p))
            assert row.norm_f == lp_norm(nonlinear_F(u), 3.0)


class TestMarch:
    def test_taylor_green_decay(self, grid2):
        tg = taylor_green(grid2, 1.0, 0.0)
        config = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=100)
        traj = march(tg, config, 1.0)
        final = traj.final_field
        expected = np.exp(-2.0) * tg.coeffs
        rel = np.max(np.abs(final.coeffs - expected)) / tg.max_abs()
        assert rel <= 1e-10
        assert not traj.blowup

    def test_zero_everything(self, grid2):
        config = SolverConfig(dt=1e-2)
        traj = march(zero_field(grid2), config, 0.1)
        for u in traj.fields:
            assert u.max_abs() == 0.0
        for row in traj.diagnostics:
            assert row.energy == 0.0 and row.norm_f == 0.0

    def test_first_order_self_convergence(self, grid2):
        # error(h) measured against the h/4 run of the same scheme halves with h
        u0 = random_divfree_field(grid2, seed=5, spectrum_decay=4.0)
        finals = {}
        for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            config = SolverConfig(nu=1.0, dt=dt, snapshot_every=10**6)
            finals[dt] = march(u0, config, 0.2).final_field
        e1 = spectral_l2_norm(finals[1e-2] - finals[2.5e-3])
        e2 = spectral_l2_norm(finals[5e-3] - finals[1.25e-3])
        assert 1.7 <= e1 / e2 <= 2.3

    def test_trajectory_invariants(self, grid2):
        u0 = random_divfree_field(grid2, seed=6)
        config = SolverConfig(nu=1.0, dt=1e-2, snapshot_every=2)
        traj = march(u0, config, 0.1)
        traj.validate()
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.diagnostics) == len(traj.times)

    @pytest.mark.parametrize("every", [1, 3, 4, 10, 11])
    def test_schedule_counts_the_kept_states(self, grid2, every):
        config = SolverConfig(nu=1.0, dt=1e-2, snapshot_every=every)
        traj = march(random_divfree_field(grid2, seed=6), config, 0.1)
        assert march_schedule(0.1, 1e-2, every) == (10, len(traj.times))

    def test_schedule_counts_any_number_of_steps(self):
        # len(range(...)) overflowed a C ssize_t here
        steps, kept = march_schedule(1e300, 1e-3, 3)
        assert steps == int(round(1e300 / 1e-3))
        assert kept == (steps + 2) // 3 + 1

    def test_energy_dissipation(self, grid2):
        # f = 0, dt <= 0.1/nu: discrete energy is nonincreasing
        config = SolverConfig(nu=1.0, dt=0.1, snapshot_every=1)
        for seed in range(20):
            u0 = random_divfree_field(grid2, 300 + seed)
            traj = march(u0, config, 1.0)
            energies = [row.energy for row in traj.diagnostics]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))

    def test_blowup_sentinel_recorded(self, grid2):
        u0 = 1e7 * random_divfree_field(grid2, seed=8)
        config = SolverConfig(nu=1e-6, dt=0.1, snapshot_every=1)
        traj = march(u0, config, 1.0)
        assert traj.blowup
        assert traj.times[-1] < 1.0

    @pytest.mark.parametrize("period", [1e12, 1e100])
    def test_blowup_norm_is_that_of_the_2pi_box(self, period):
        # sqrt(energy) grows as period ** (dim / 2); the march compares it on the 2 pi box
        grid = make_grid(2, 16, period)
        u0 = random_divfree_field(grid, seed=8)
        config = SolverConfig(dt=1e-3, snapshot_every=1)
        assert not march(u0, config, 3e-3).blowup
        blown = march(1e9 * u0, config, 3e-3)
        assert blown.blowup and len(blown.times) == 2

    def test_unscheduled_blowup_state_is_the_last_row(self, grid2):
        # kept every 3rd step, the runaway state of step 4 is kept too, and ends the march
        u0 = 100.0 * random_divfree_field(grid2, seed=8)
        traj = march(u0, SolverConfig(nu=1e-6, dt=0.1, snapshot_every=3), 1.0)
        assert traj.blowup
        assert [round(t / 0.1) for t in traj.times] == [0, 3, 4]
        assert np.sqrt(traj.diagnostics[-1].energy) > solver.BLOWUP_NORM
        assert np.sqrt(traj.diagnostics[-2].energy) <= solver.BLOWUP_NORM
        assert len(traj.fields) == 3 and traj.fields[-1].is_finite()

    def test_validate_rejects_divergent_and_mean_fields(self, grid2):
        row = solver.DiagnosticsRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        good = random_divfree_field(grid2, seed=2)
        Trajectory(np.array([0.0]), (good,), (row,)).validate()
        divergent = random_gradient_field(grid2, seed=3)
        with pytest.raises(AssertionError, match="t=0.0 violates divergence tolerance"):
            Trajectory(np.array([0.0]), (divergent,), (row,)).validate()
        mean = good.half.copy()
        mean[(0,) + (0,) * grid2.dim] = 1.0
        with pytest.raises(AssertionError, match="t=0.0 has a nonzero mean mode"):
            Trajectory(np.array([0.0]), (SpectralVectorField(grid2, mean),), (row,)).validate()

    def test_rejects_nondivfree_initial(self, grid2):
        g = random_gradient_field(grid2, seed=9)
        with pytest.raises(ValueError):
            march(g, SolverConfig(), 0.1)

    def test_steady_forcing_reaches_balance(self, grid2):
        # single-mode forcing with zero initial data approaches nu^{-1} f / |k|^2
        base = field_from_function(grid2, (lambda x, y: np.sin(y), 0.0))
        base = prepare_initial(base)
        config = SolverConfig(
            nu=1.0, dt=1e-2, forcing=ForcingSpec(kind="steady", base_field=base),
            snapshot_every=100,
        )
        traj = march(zero_field(grid2), config, 8.0)
        # F stays zero along single-mode states, so u(t) -> R(0+)f = f for |k|=1
        final = traj.final_field
        assert spectral_l2_norm(final - base) <= 1e-3 * spectral_l2_norm(base)

    def test_nonlinearity_evaluated_once_per_state(self, grid2, monkeypatch):
        calls = []
        # every path to F goes through the kernel: the march's own call, and
        # nonlinear_F (compute_diagnostics, exp_euler_step) through the operators module
        patched = ((solver, "projected_nonlinearity"), (operators, "projected_nonlinearity"))
        for module, name in patched:
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        base = random_divfree_field(grid2, seed=11)
        config = SolverConfig(
            nu=1.0, dt=1e-2, forcing=ForcingSpec(kind="steady", base_field=base),
            snapshot_every=1,
        )
        n_steps = 7
        traj = march(random_divfree_field(grid2, seed=10), config, n_steps * config.dt)
        assert len(calls) == n_steps + 1
        assert len(traj.diagnostics) == n_steps + 1
        for u, t, row in zip(traj.fields, traj.times, traj.diagnostics):
            assert row == compute_diagnostics(u, t, config)

    def test_energy_measured_once_per_state(self, grid2, monkeypatch):
        # one |u|^2 half sum per state, shared by its blow-up check and its row's energy,
        # plus energy(F) of every row's norm_F: 17 + 17 for 16 steps, every step kept
        calls = {"state": [], "F": []}

        def counting(key, original):
            def counted(*args):
                calls[key].append(1)
                return original(*args)
            return counted

        monkeypatch.setattr(solver, "_half_sum", counting("state", solver._half_sum))
        monkeypatch.setattr(operators, "energy", counting("F", operators.energy))
        monkeypatch.setattr(solver, "energy", counting("F", solver.energy))
        base = random_divfree_field(grid2, seed=11)
        config = SolverConfig(
            nu=1.0, dt=1e-2, forcing=ForcingSpec(kind="steady", base_field=base),
            snapshot_every=1,
        )
        traj = march(random_divfree_field(grid2, seed=10), config, 16 * config.dt)
        assert (len(calls["state"]), len(calls["F"])) == (17, 17)
        monkeypatch.undo()
        for u, t, row in zip(traj.fields, traj.times, traj.diagnostics):
            assert row == compute_diagnostics(u, t, config)

    def test_without_dealiasing_states_stay_hermitian(self):
        # the Nyquist planes of the advection image are zeroed, so they stay empty
        grid = make_grid(2, 32)
        config = SolverConfig(nu=1.0, dt=1e-2, dealias=False)
        traj = march(random_divfree_field(grid, seed=3), config, 0.1)
        assert len(traj.fields) == 11
        for u in traj.fields:
            assert u.hermitian_defect() == 0.0
            assert not np.any(u.coeffs[:, full_lattice(grid).nyquist_mask])

    def test_forced_3d_states_are_exactly_hermitian(self):
        grid = make_grid(3, 16)
        base = prepare_initial(random_divfree_field(grid, seed=6))
        config = SolverConfig(nu=0.5, dt=1e-2, snapshot_every=1,
                              forcing=ForcingSpec("hoelder_modulated", base, 0.5))
        traj = march(random_divfree_field(grid, seed=7), config, 0.05)
        assert len(traj.fields) == 6 and not traj.blowup
        for u in traj.fields:
            assert u.hermitian_defect() == 0.0

    @pytest.mark.parametrize(
        "snapshot_every,amplitude,nu,dt",
        [(1, 1.0, 1.0, 1e-2), (3, 1.0, 1.0, 1e-2), (1, 1e7, 1e-6, 0.1)],  # the last blows up
    )
    def test_sink_receives_the_kept_states(self, grid2, snapshot_every, amplitude, nu, dt):
        u0 = amplitude * random_divfree_field(grid2, seed=12)
        config = SolverConfig(nu=nu, dt=dt, snapshot_every=snapshot_every)
        kept = march(u0, config, 1.0)
        received = []
        # the sink receives the march's half state buffer, which the next step overwrites
        streamed = march(u0, config, 1.0,
                         sink=lambda i, t, half: received.append((i, t, half.copy())))
        assert streamed.fields == ()
        assert np.array_equal(streamed.times, kept.times)
        assert streamed.diagnostics == kept.diagnostics
        assert streamed.blowup == kept.blowup == (amplitude > 1)
        assert [(i, t) for i, t, _ in received] == list(enumerate(kept.times))
        for (_, _, half), field in zip(received, kept.fields):
            assert np.array_equal(half, half_columns(field.coeffs, grid2))


class TestPicard:
    def test_zero_converges_first_iteration(self, grid2):
        config = SolverConfig(window_T=0.2, n_nodes=11)
        traj, iterations, history = picard_solve(zero_field(grid2), config)
        assert iterations == 1
        assert history[0] == 0.0
        for u in traj.fields:
            assert u.max_abs() == 0.0

    def test_taylor_green_two_iterations(self, grid2):
        tg = taylor_green(grid2, 1.0, 0.0)
        config = SolverConfig(nu=1.0, window_T=0.2, n_nodes=11)
        traj, iterations, _ = picard_solve(tg, config)
        assert iterations <= 2
        # the fixed point is plain heat decay
        expected = heat_semigroup(0.2, 1.0, tg)
        assert spectral_l2_norm(traj.final_field - expected) <= 1e-10

    def test_geometric_residual_decay(self, grid2):
        u0 = normalized_x_half(random_divfree_field(grid2, seed=10), 0.1)
        config = SolverConfig(nu=1.0, window_T=0.1, n_nodes=51)
        _, _, history = picard_solve(u0, config)
        ratios = [b / a for a, b in zip(history, history[1:])]
        assert ratios and all(r < 1.0 for r in ratios)

    def test_agreement_with_march(self, grid2):
        u0 = normalized_x_half(random_divfree_field(grid2, seed=11), 0.1)
        pconfig = SolverConfig(nu=1.0, window_T=0.1, n_nodes=101)
        ptraj, _, _ = picard_solve(u0, pconfig)
        mconfig = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=100)
        mtraj = march(u0, mconfig, 0.1)
        diff = spectral_l2_norm(ptraj.final_field - mtraj.final_field)
        assert diff <= 1e-4 * spectral_l2_norm(mtraj.final_field)

    def test_nodes_are_exactly_hermitian(self, grid2):
        u0 = normalized_x_half(random_divfree_field(grid2, seed=13), 0.1)
        base = prepare_initial(random_divfree_field(grid2, seed=14))
        config = SolverConfig(nu=1.0, window_T=0.1, n_nodes=17,
                              forcing=ForcingSpec("hoelder_modulated", base, 0.5))
        traj, iterations, _ = picard_solve(u0, config)
        assert iterations > 1 and len(traj.fields) == 17
        for u in traj.fields:
            assert u.hermitian_defect() == 0.0

    def test_not_contracting_for_large_data(self, grid2):
        u0 = 50.0 * random_divfree_field(grid2, seed=12)
        config = SolverConfig(nu=1.0, window_T=1.0, n_nodes=17, picard_max_iters=30)
        with pytest.raises((NotContracting, MaxIters)):
            picard_solve(u0, config)

    def test_forcing_enters_fixed_point(self, grid2):
        base = prepare_initial(field_from_function(grid2, (lambda x, y: np.sin(y), 0.0)))
        config = SolverConfig(
            nu=1.0, window_T=0.1, n_nodes=41,
            forcing=ForcingSpec(kind="steady", base_field=base),
        )
        traj, _, _ = picard_solve(zero_field(grid2), config)
        # linear single-mode problem: u(T) = (1 - e^{-T}) f for |k|^2 = 1
        expected = (1 - np.exp(-0.1)) * base.coeffs
        got = traj.final_field.coeffs
        assert np.max(np.abs(got - expected)) <= 1e-6 * np.max(np.abs(expected))


def forcing_with_tiny_mean(grid):
    """A steady forcing whose base has a mean mode of 0.9e-12 max |f^|, which
    ForcingSpec accepts (MEAN_MODE_TOL is 1e-12)."""
    base = random_divfree_field(grid, seed=21)
    coeffs = base.half.copy()
    coeffs[(0,) + (0,) * grid.dim] = 0.9e-12 * base.max_abs()
    return ForcingSpec(kind="steady", base_field=SpectralVectorField(grid, coeffs))


class TestForcingMeanMode:
    """The forcing's mean mode is dropped where it enters, like u0's."""

    def test_march_keeps_states_mean_free(self):
        grid = make_grid(2, 16)
        config = SolverConfig(nu=1.0, dt=0.01, forcing=forcing_with_tiny_mean(grid))
        traj = march(zero_field(grid), config, 1.0)
        assert not traj.blowup and traj.times[-1] == pytest.approx(1.0)
        assert all(np.all(u.mean_mode() == 0) for u in traj.fields)

    def test_picard_keeps_nodes_mean_free(self):
        grid = make_grid(2, 16)
        config = SolverConfig(nu=1.0, window_T=1.0, n_nodes=17,
                              forcing=forcing_with_tiny_mean(grid))
        traj, _, _ = picard_solve(zero_field(grid), config)
        assert len(traj.fields) == 17
        assert all(np.all(u.mean_mode() == 0) for u in traj.fields)

    def test_projected_base_is_the_mean_free_projection(self, grid2):
        spec = forcing_with_tiny_mean(grid2)
        expected = half_columns(operators.leray_project(spec.base_field).coeffs, grid2).copy()
        expected[:, 0, 0] = 0.0
        assert spec.projected.shape == expected.shape == (2, 32, 17)
        assert np.array_equal(spec.projected, expected)
        assert ForcingSpec().projected is None


def reference_picard(u0, config):
    """Picard iteration with the direct double-loop trapezoid.

    The heat factor exp(-nu (j - j') h |k|^2) is evaluated per node pair and
    F node by node. Returns (node coefficients, iterations, residual history)
    and raises like `picard_solve`.
    """
    u0 = prepare_initial(u0)
    grid = u0.grid
    n = config.n_nodes
    h = config.window_T / (n - 1)
    k_sq = full_lattice(grid).k_sq
    E = [np.exp(-config.nu * h * d * k_sq) for d in range(n)]
    heat_flow = [u0.coeffs * E[j] for j in range(n)]
    forcing, projected = config.forcing, full_lattice_projected(config.forcing)
    forcing_hat = [None if projected is None else forcing.amplitude(t) * projected
                   for t in h * np.arange(n)]
    current = list(heat_flow)
    history = []
    bad_streak = 0
    for iteration in range(1, config.picard_max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g = []
            for j in range(n):
                g_j = full_lattice_F(grid, current[j], config.dealias)
                g.append(g_j if forcing_hat[j] is None else g_j + forcing_hat[j])
            new = [heat_flow[0]]
            for j in range(1, n):
                acc = heat_flow[j].copy()
                for jp in range(j + 1):
                    w = h if 0 < jp < j else 0.5 * h
                    acc += w * (E[j - jp] * g[jp])
                new.append(acc)
            residual = 0.0
            for j in range(n):
                diff = SpectralVectorField(grid, half_columns(new[j] - current[j], grid))
                if not diff.is_finite():
                    residual = float("inf")
                    break
                residual = max(residual, frac_norm(diff, FracNormParams(0.5, config.p)))
        history.append(residual)
        current = new
        if not np.isfinite(residual):
            raise NotContracting(history)
        if residual < config.picard_tol:
            return current, iteration, history
        bad_streak = bad_streak + 1 if len(history) >= 2 and residual >= history[-2] else 0
        if bad_streak >= 3:
            raise NotContracting(history)
    raise MaxIters(history)


def picard_case(dim, n_modes, n_nodes, forcing="zero", amplitude=1.0, **settings):
    grid = make_grid(dim, n_modes)
    u0 = normalized_x_half(random_divfree_field(grid, seed=31), amplitude)
    base = random_divfree_field(grid, seed=32, amplitude=0.5)
    spec = ForcingSpec() if forcing == "zero" else ForcingSpec(forcing, base, exponent=0.5)
    settings = {"nu": 1.0, "window_T": 0.1, **settings}
    return u0, SolverConfig(n_nodes=n_nodes, forcing=spec, **settings)


def outcome(solve, u0, config):
    try:
        return solve(u0, config)
    except SolverError as exc:
        return exc


class TestPicardRecurrence:
    """The E^d recurrence against the direct double-loop trapezoid."""

    @pytest.mark.parametrize(
        "case,expected",
        [
            (dict(dim=2, n_modes=32, n_nodes=17), None),
            (dict(dim=2, n_modes=32, n_nodes=101), None),
            (dict(dim=3, n_modes=16, n_nodes=9), None),
            (dict(dim=2, n_modes=32, n_nodes=17, forcing="steady"), None),
            (dict(dim=2, n_modes=32, n_nodes=17, forcing="hoelder_modulated"), None),
            (dict(dim=3, n_modes=16, n_nodes=9, forcing="hoelder_modulated"), None),
            (dict(dim=2, n_modes=32, n_nodes=17, dealias=False), None),
            (dict(dim=2, n_modes=32, n_nodes=17, amplitude=5.0, window_T=0.5,
                  picard_max_iters=8), MaxIters),
            (dict(dim=2, n_modes=32, n_nodes=17, amplitude=50.0, window_T=1.0,
                  picard_max_iters=30), NotContracting),
        ],
    )
    def test_matches_double_loop(self, case, expected):
        u0, config = picard_case(**case)
        reference = outcome(reference_picard, u0, config)
        got = outcome(picard_solve, u0, config)
        if expected is not None:
            assert type(reference) is expected and type(got) is expected
            assert len(got.residual_history) == len(reference.residual_history)
            return
        ref_nodes, ref_iterations, _ = reference
        traj, iterations, _ = got
        assert iterations == ref_iterations
        for u, ref in zip(traj.fields, ref_nodes):
            assert np.max(np.abs(u.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


def full_lattice_row(grid, u, F, t, config):
    """A diagnostics row from full-lattice sums, as rows were formed before the half."""
    full = full_lattice(grid)
    energy = grid.volume * float(np.sum(np.abs(u) ** 2))
    enstrophy = grid.volume * float(np.sum(full.k_sq * np.abs(u) ** 2))
    div = np.einsum("i...,i...->...", 1j * full.k, u)
    max_div = float(np.max(np.abs(_irfft(half_columns(div, grid), grid))))
    if config.p == 2.0:
        norms = np.sqrt(enstrophy), np.sqrt(grid.volume * float(np.sum(np.abs(F) ** 2)))
    else:
        u, F = (SpectralVectorField(grid, half_columns(x, grid)) for x in (u, F))
        norms = frac_norm(u, FracNormParams(0.5, config.p)), lp_norm(F, config.p)
    return (t, energy, enstrophy, max_div) + norms


def full_lattice_march(u0, config, t_end):
    """The exponential-Euler loop with every state, F and symbol on the full lattice.
    Returns (times, kept coefficients, rows as tuples); for runs that do not blow up."""
    grid = u0.grid
    u = prepare_initial(u0).coeffs
    heat, h_phi1 = full_lattice_symbols(grid, config)
    projected = full_lattice_projected(config.forcing)
    n_steps, _ = march_schedule(t_end, config.dt, config.snapshot_every)
    times, fields, rows = [], [], []
    for m in range(n_steps + 1):
        F = full_lattice_F(grid, u, config.dealias)
        t = m * config.dt
        if m % config.snapshot_every == 0 or m == n_steps:
            times.append(t)
            fields.append(u)
            rows.append(full_lattice_row(grid, u, F, t, config))
        if m == n_steps:
            break
        a = config.forcing.amplitude(t)
        rhs = F if a is None else a * projected + F
        u = u * heat + rhs * h_phi1
    return times, fields, rows


def full_lattice_picard(u0, config):
    """The Picard loop with full-lattice nodes and the forcing stacked per node.
    Returns (nodes, iterations, residual history); for windows that converge."""
    u0 = prepare_initial(u0)
    grid = u0.grid
    n = config.n_nodes
    h = config.window_T / (n - 1)
    times = h * np.arange(n)
    lags = np.arange(n).reshape((n,) + (1,) * grid.dim)
    k_sq = full_lattice(grid).k_sq
    E = np.exp(-config.nu * h * lags * k_sq)
    heat_flow = u0.coeffs * E[:, np.newaxis]
    forcing, projected = config.forcing, full_lattice_projected(config.forcing)
    forcing_hat = None
    if projected is not None:
        forcing_hat = np.stack([forcing.amplitude(t) * projected for t in times])
    symbol = np.sqrt(k_sq)
    current, history = heat_flow, []
    for iteration in range(1, config.picard_max_iters + 1):
        g = full_lattice_F(grid, current, config.dealias)
        if forcing_hat is not None:
            g += forcing_hat
        half_hg = 0.5 * h * g
        new = heat_flow.copy()
        S = np.zeros_like(g[0])
        for j in range(1, n):
            S = E[1] * (S + half_hg[j - 1]) + half_hg[j]
            new[j] += S
        diff = half_columns((new - current) * symbol, grid)
        residual = float(np.max(_lp(_irfft(diff, grid), grid, config.p)))
        history.append(residual)
        current = new
        if residual < config.picard_tol:
            return current, iteration, history
    raise AssertionError(f"reference window did not converge: {history}")


def assert_rows_match(rows, reference, p):
    """time and max_div equal; the half sums within 1e-14 relative; collocation equal."""
    for row, ref in zip(rows, reference):
        got = (row.time, row.energy, row.enstrophy, row.max_div, row.norm_x_half, row.norm_f)
        assert got[0] == ref[0] and got[3] == ref[3]
        summed = (1, 2, 4, 5) if p == 2.0 else (1, 2)
        for column in summed:
            assert abs(got[column] - ref[column]) <= 1e-14 * abs(ref[column]), column
        if p != 2.0:
            assert got[4:] == ref[4:]


HALF_CASES = {
    "forced-2d-64": dict(dim=2, n=64, kind="steady"),
    "hoelder-3d-16": dict(dim=3, n=16, kind="hoelder_modulated"),
    "undealiased-2d-32": dict(dim=2, n=32, kind="steady", dealias=False),
    "p3-2d-32": dict(dim=2, n=32, kind="hoelder_modulated", p=3.0),
}


def half_case(dim, n, kind, **settings):
    grid = make_grid(dim, n)
    u0 = normalized_x_half(random_divfree_field(grid, seed=41), 0.1)
    base = prepare_initial(random_divfree_field(grid, seed=42, amplitude=0.5))
    return u0, dict(nu=0.5, forcing=ForcingSpec(kind, base, exponent=0.5), **settings)


class TestHalfSpectrumSolvers:
    """Both solvers carry the half spectrum and agree with the full-lattice loops:
    kept fields, times, max_div and Picard residuals exactly, the energies at 1e-14."""

    @pytest.mark.parametrize("case", HALF_CASES.values(), ids=HALF_CASES.keys())
    def test_march_is_the_full_lattice_march(self, case):
        u0, settings = half_case(**case)
        config = SolverConfig(dt=1e-2, snapshot_every=2, **settings)
        traj = march(u0, config, 0.09)
        times, fields, rows = full_lattice_march(u0, config, 0.09)
        assert not traj.blowup and list(traj.times) == times and len(times) == 6
        for u, ref in zip(traj.fields, fields):
            assert np.array_equal(u.coeffs, ref)
        assert_rows_match(traj.diagnostics, rows, config.p)

    @pytest.mark.parametrize("case", HALF_CASES.values(), ids=HALF_CASES.keys())
    def test_picard_is_the_full_lattice_picard(self, case):
        u0, settings = half_case(**case)
        config = SolverConfig(window_T=0.1, n_nodes=9, snapshot_every=3, **settings)
        traj, iterations, history = picard_solve(u0, config)
        nodes, ref_iterations, ref_history = full_lattice_picard(u0, config)
        assert iterations == ref_iterations > 1 and history == ref_history
        kept = [0, 3, 6, 8]
        assert list(traj.times) == [config.window_T / 8 * j for j in kept]
        F = full_lattice_F(u0.grid, nodes, config.dealias)
        rows = [full_lattice_row(u0.grid, nodes[j], F[j], traj.times[i], config)
                for i, j in enumerate(kept)]
        for u, j in zip(traj.fields, kept):
            assert np.array_equal(u.coeffs, nodes[j])
        assert_rows_match(traj.diagnostics, rows, config.p)

    def test_sink_march_memory_in_half_states(self, traced_peak):
        # the march holds its state, F and the kernel's temporaries as half spectra and
        # transforms one product at a time; the full-lattice march peaked at 10.9, this one
        # at 5.5 before the operators built their results in place, at 5.12 before inverse
        # transforms ran in their own temporaries and at 4.62 since; the bound is 4.62
        # plus 0.18
        grid = make_grid(2, 256)
        base = prepare_initial(random_divfree_field(grid, seed=2))
        u0 = random_divfree_field(grid, seed=1)
        config = SolverConfig(dt=1e-3, forcing=ForcingSpec("steady", base))
        half_state = grid.dim * grid.n_modes * (grid.n_modes // 2 + 1) * 16
        _, peak = traced_peak(march, u0, config, 4e-3, sink=lambda i, t, half: None)
        assert peak <= 4.8 * half_state, peak / half_state

    def test_rows_at_other_p_do_not_mirror(self, monkeypatch):
        # a sink march at p = 3 reads its collocation norms from the halves
        calls = []
        original = grid_module._full_spectrum

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(grid_module, "_full_spectrum", counted)
        u0, settings = half_case(**HALF_CASES["p3-2d-32"])
        traj = march(u0, SolverConfig(dt=1e-2, **settings), 0.05, sink=lambda i, t, half: None)
        assert len(traj.diagnostics) == 6 and calls == []

    def test_picard_forcing_is_not_stacked(self, traced_peak):
        # P f enters node by node: the forced solve peaks at most a few fields above
        # the unforced one, where a stack of 33 copies would add 33 full fields
        grid = make_grid(2, 64)
        u0 = normalized_x_half(random_divfree_field(grid, seed=43), 0.01)
        base = prepare_initial(random_divfree_field(grid, seed=44, amplitude=0.01))
        peaks = {}
        for kind in ("zero", "steady"):
            spec = ForcingSpec() if kind == "zero" else ForcingSpec(kind, base)
            config = SolverConfig(window_T=0.05, n_nodes=33, forcing=spec)
            (_, iterations, history), peaks[kind] = traced_peak(picard_solve, u0, config)
            assert (iterations, history) == full_lattice_picard(u0, config)[1:]
        field_bytes = grid.dim * grid.n_points * 16
        assert peaks["steady"] - peaks["zero"] <= 4 * field_bytes, peaks


class TestNoMirrorInSolvers:
    """The solvers read and write halves: a step, a row, a march that keeps its fields and
    a Picard window form no full lattice (grid._full_spectrum runs only for `.coeffs`)."""

    @pytest.mark.parametrize("case", HALF_CASES.values(), ids=HALF_CASES.keys())
    def test_exp_euler_step_and_compute_diagnostics(self, case, full_spectrum_calls):
        u0, settings = half_case(**case)
        config = SolverConfig(dt=1e-2, **settings)
        u1 = exp_euler_step(prepare_initial(u0), 0.0, config)
        compute_diagnostics(u1, config.dt, config)
        assert full_spectrum_calls == []

    @pytest.mark.parametrize("case", HALF_CASES.values(), ids=HALF_CASES.keys())
    def test_march_and_picard_solve(self, case, full_spectrum_calls):
        u0, settings = half_case(**case)
        traj = march(u0, SolverConfig(dt=1e-2, snapshot_every=2, **settings), 0.05)
        window, _, _ = picard_solve(u0, SolverConfig(window_T=0.05, n_nodes=9, **settings))
        assert len(traj.fields) == 4 and len(window.fields) == 9
        assert full_spectrum_calls == []


class TestAdaptiveWindow:
    def test_zero_initial_keeps_window(self, grid2):
        config = SolverConfig(window_T=0.4, n_nodes=9)
        t_star, attempts = adaptive_window(zero_field(grid2), config)
        assert t_star == 0.4
        assert attempts[0].converged

    def test_taylor_green_keeps_window(self, grid2):
        tg = taylor_green(grid2, 1.0, 0.0)
        config = SolverConfig(nu=1.0, window_T=0.4, n_nodes=9)
        t_star, _ = adaptive_window(tg, config)
        assert t_star == 0.4

    def test_exhausted_halvings_give_zero(self):
        # the first Picard iterate of this field is not finite, so every window fails
        grid = make_grid(2, 16)
        u0 = random_divfree_field(grid, seed=1, amplitude=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            t_star, attempts = adaptive_window(u0, SolverConfig(window_T=0.5, n_nodes=5))
        assert t_star == 0.0
        assert len(attempts) == 21
        assert [a.window for a in attempts] == [0.5 / 2**i for i in range(21)]
        assert all(not a.converged and a.reason == "NotContracting" for a in attempts)

    def test_amplitude_trend(self, grid2):
        base = random_divfree_field(grid2, seed=13)
        config = SolverConfig(nu=1.0, window_T=0.5, n_nodes=17)
        stars = []
        for amp in (0.1, 1.0, 10.0):
            t_star, _ = adaptive_window(amp * base, config)
            stars.append(t_star)
        assert all(b <= a for a, b in zip(stars, stars[1:]))
        assert stars[-1] > 0.0


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nu": 0.0},
            {"p": 1.0},
            {"scheme": "leapfrog"},
            {"dt": 0.0},
            {"window_T": -1.0},
            {"n_nodes": 2},
            {"snapshot_every": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
