"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line including its wall time and asserts the
stated runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from nsmild import (
    EnsembleSpec,
    FracNormParams,
    SolverConfig,
    adaptive_window,
    check_resolvent_divfree,
    check_semigroup,
    estimate_bilinear_constant,
    field_from_function,
    frac_norm,
    gradient_norm,
    make_grid,
    march,
    picard_solve,
    random_divfree_field,
    random_gradient_field,
    spectral_l2_norm,
    taylor_green,
)
from nsmild.cli import main
from nsmild.io import read_snapshot
from nsmild.verification import advection_ratio, check_operator_identities

from conftest import half_columns

SEED = 20240811


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:02d} FAIL: {description} [{elapsed:.1f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS: {description} [{elapsed:.1f}s]")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def ensemble_3d(n_modes, count, seed=SEED, decay=4.0, amplitude=1.0):
    grid = make_grid(3, n_modes)
    return grid, [random_divfree_field(grid, seed + i, decay, amplitude) for i in range(count)]


def test_criterion_01_operator_identities():
    with criterion(1, "projection/resolvent/semigroup identities at 1e-12", 10.0):
        grid, fields = ensemble_3d(32, 100)
        grads = [random_gradient_field(grid, SEED + 500 + i) for i in range(20)]
        report = check_operator_identities(
            fields, grads, lambdas=(1.0, 10.0, 100.0), times=(0.1, 0.3), tol=1e-12
        )
        assert report.passed, report.measurements
        for key in (
            "projection_idempotence",
            "projection_divergence",
            "projection_kills_gradients",
            "resolvent_identity",
            "semigroup_law",
        ):
            assert report.measurements[key] <= 1e-12


def test_criterion_02_resolvent_divfree_both_directions():
    with criterion(2, "divergence-free invariance of the resolvent, both directions", 5.0):
        _, fields = ensemble_3d(32, 100)
        report = check_resolvent_divfree((1.0, 10.0, 100.0), fields, tol=1e-12)
        assert report.passed, report.measurements
        assert report.measurements["max_divergence_forward"] <= 1e-12
        assert report.measurements["max_divergence_reverse"] <= 1e-12


def test_criterion_03_semigroup_invariance_and_contraction():
    with criterion(3, "heat semigroup: div-free invariance and L_p contraction", 10.0):
        _, fields = ensemble_3d(32, 100)
        report = check_semigroup(
            fields, times=(0.01, 0.1, 1.0), nu=1.0, p_values=(2.0, 4.0), tol=1e-12
        )
        assert report.passed, report.measurements
        assert report.measurements["divfree_invariance"] <= 1e-12
        assert report.measurements["contraction_violation"] <= 1e-12


def test_criterion_04_gradient_identity_p2():
    with criterion(4, "full-Jacobian gradient norm equals half-power norm at p=2", 5.0):
        _, fields = ensemble_3d(32, 100)
        params = FracNormParams(0.5, 2.0)
        for u in fields:
            g = gradient_norm(u, 2.0, "full")
            f = frac_norm(u, params)
            assert abs(g - f) <= 1e-10 * f


def test_criterion_05_advection_bound():
    with criterion(5, "advection ratio bounded across resolutions + closed form", 60.0):
        grid = make_grid(3, 16)
        u = field_from_function(grid, (lambda x, y, z: np.sin(y), 0.0, 0.0))
        v = field_from_function(grid, (0.0, lambda x, y, z: np.sin(x), 0.0))
        ratio = advection_ratio(u, v, (0.0, 0.75, 0.75), 2.0)
        expected = np.sqrt(2) * np.pi**1.5 / (4 * np.pi**3)
        assert abs(ratio - expected) <= 1e-6

        ens = EnsembleSpec(size=100, seed=SEED, dim=3, spectrum_decay=4.0)
        report = estimate_bilinear_constant(ens, (0.0, 0.75, 0.75), 2.0, (16, 32))
        assert report.verdict == "bounded", report.per_resolution
        first = report.per_resolution[0][1]
        last = report.per_resolution[-1][1]
        assert last < 1.10 * first


def test_criterion_06_taylor_green_march():
    with criterion(6, "vortex march matches analytic decay at 1e-10", 60.0):
        grid = make_grid(2, 64)
        tg = taylor_green(grid, 1.0, 0.0)
        config = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=100)
        traj = march(tg, config, 1.0)
        for t, u, row in zip(traj.times, traj.fields, traj.diagnostics):
            exact = taylor_green(grid, 1.0, float(t))
            rel = spectral_l2_norm(u - exact) / spectral_l2_norm(exact)
            assert rel <= 1e-10
            energy_expected = 2 * np.pi**2 * np.exp(-4.0 * float(t))
            assert abs(row.energy - energy_expected) <= 1e-8 * energy_expected


def test_criterion_07_picard_march_cross_validation():
    with criterion(7, "Picard window agrees with marching; geometric residuals", 300.0):
        grid = make_grid(2, 32)
        params = FracNormParams(0.5, 2.0)
        for i in range(10):
            u0 = random_divfree_field(grid, SEED + 900 + i, 4.0, 1.0)
            u0 = (0.1 / frac_norm(u0, params)) * u0
            pconfig = SolverConfig(nu=1.0, window_T=0.1, n_nodes=101)
            ptraj, _, history = picard_solve(u0, pconfig)
            ratios = [b / a for a, b in zip(history, history[1:])]
            assert all(r < 0.9 for r in ratios), history
            mconfig = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=1000)
            mtraj = march(u0, mconfig, 0.1)
            diff = spectral_l2_norm(ptraj.final_field - mtraj.final_field)
            assert diff <= 1e-4 * spectral_l2_norm(mtraj.final_field)


def test_criterion_08_self_convergence():
    with criterion(8, "halving dt halves the error against each dt/4 reference", 120.0):
        grid = make_grid(3, 32)
        u0 = random_divfree_field(grid, SEED + 2000, 4.0, 1.0)
        finals = {}
        for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            config = SolverConfig(nu=1.0, dt=dt, snapshot_every=10**6)
            finals[dt] = march(u0, config, 0.2).final_field
        e_dt = spectral_l2_norm(finals[1e-2] - finals[2.5e-3])
        e_half = spectral_l2_norm(finals[5e-3] - finals[1.25e-3])
        ratio = e_dt / e_half
        assert 1.8 <= ratio <= 2.2, ratio


def test_criterion_09_existence_window_trend():
    with criterion(9, "convergent window nonincreasing in amplitude", 300.0):
        grid = make_grid(2, 32)
        base = random_divfree_field(grid, SEED + 3000, 4.0, 1.0)
        config = SolverConfig(nu=1.0, window_T=0.5, n_nodes=17)
        stars = []
        for amp in (0.1, 1.0, 10.0):
            t_star, _ = adaptive_window(amp * base, config)
            stars.append(t_star)
        assert all(b <= a for a, b in zip(stars, stars[1:])), stars
        assert stars[-1] > 0.0


def test_criterion_10_determinism_and_persistence(tmp_path):
    with criterion(10, "byte-identical reruns and bit-exact snapshot round trip", 60.0):
        import json

        config_doc = {
            "grid": {"dim": 3, "n_modes": 16},
            "solver": {"nu": 1.0, "dt": 1e-2},
            "initial": {"kind": "random", "amplitude": 0.5},
            "run": {"t_end": 0.1, "snapshot_every": 2, "seed": 77},
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_doc))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b), "--quiet"]) == 0

        assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()
        snaps = sorted(p.name for p in out_a.glob("*.nsms"))
        assert snaps
        from nsmild.io import _HEADER

        for name in snaps:
            bytes_a = (out_a / name).read_bytes()
            assert bytes_a == (out_b / name).read_bytes()
            field, _ = read_snapshot(out_a / name)
            reread, _ = read_snapshot(out_a / name)
            assert np.array_equal(field.coeffs, reread.coeffs)
            assert half_columns(field.coeffs, field.grid).tobytes() == bytes_a[_HEADER.size:]
