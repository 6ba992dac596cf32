"""Verification harness: operator-claim checks, estimate reports, oracle."""

import dataclasses
import os
import signal
import time
from dataclasses import asdict

import numpy as np
import pytest

from nsmild import (
    EnsembleSpec,
    SolverConfig,
    advect,
    check_assumption_F,
    check_diagonal_dependence,
    check_gradient_orthogonality,
    check_resolvent_divfree,
    check_semigroup,
    compare_oracle,
    embed,
    estimate_bilinear_constant,
    estimate_hoelder,
    estimate_norm_equivalence,
    existence_time_trend,
    field_from_function,
    heat_semigroup,
    leray_project,
    march,
    random_divfree_field,
    random_gradient_field,
    taylor_green,
    spectral_l2_norm,
    zero_field,
)
from nsmild.grid import PhysicalVectorField, make_grid
from nsmild.operators import FracNormParams, frac_norm, gradient_norm, lp_norm, nonlinear_F
from nsmild.solver import Trajectory, compute_diagnostics
from nsmild import solver, verification
from nsmild.verification import (
    CheckReport,
    EstimateReport,
    HoelderFit,
    SettingError,
    VerifySettings,
    _hoelder_fit,
    _suite_trajectory,
    advection_ratio,
    ensemble_estimates,
    check_energy_orthogonality,
    check_frac_power_composition,
    check_gradient_identity,
    _frac_samples,
    check_operator_identities,
    diagonal_dependence_scan,
    run_verification_suite,
    taylor_green_residual,
)


def make_trajectory(fields, times, config=None):
    config = config or SolverConfig()
    diags = tuple(compute_diagnostics(f, t, config) for f, t in zip(fields, times))
    return Trajectory(np.asarray(times, dtype=float), tuple(fields), diags)


def reference_hoelder_fit(times, samples, grid, p):
    """`_hoelder_fit` as a double loop over pairs, one `lp_norm` per pair."""
    times = np.asarray(times, dtype=float)
    min_sep = 2.0 * float(np.min(np.diff(times)))
    log_dt, log_du = [], []
    n = len(times)
    for i in range(n):
        for j in range(i + 1, n):
            sep = times[j] - times[i]
            if sep < min_sep:
                continue
            d = lp_norm(PhysicalVectorField(grid, samples[j] - samples[i]), p)
            if d > 0.0:
                log_dt.append(np.log(sep))
                log_du.append(np.log(d))
    log_dt = np.asarray(log_dt)
    log_du = np.asarray(log_du)
    beta, intercept = np.polyfit(log_dt, log_du, 1)
    predicted = beta * log_dt + intercept
    ss_res = float(np.sum((log_du - predicted) ** 2))
    ss_tot = float(np.sum((log_du - np.mean(log_du)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return HoelderFit(
        C=float(np.exp(intercept)),
        beta=float(beta),
        r_squared=max(0.0, min(1.0, r_squared)),
        sample_pairs=len(log_du),
    )


def reference_assumption_F(traj1, traj2, p, beta=None):
    """`check_assumption_F` measurements (alpha = 1/2) as a double loop over pairs."""
    grid = traj1.fields[0].grid
    x1, x2 = (_frac_samples(t.fields, 0.5) for t in (traj1, traj2))
    if beta is None:
        beta = min(reference_hoelder_fit(traj1.times, x, grid, p).beta for x in (x1, x2))
    f1, f2 = (_frac_samples([nonlinear_F(u) for u in t.fields], 0.0) for t in (traj1, traj2))
    max_r, pairs, skipped = 0.0, 0, 0
    n = len(traj1.times)
    for i in range(n):
        for j in range(n):
            dt = abs(float(traj1.times[i]) - float(traj2.times[j]))
            du = lp_norm(PhysicalVectorField(grid, x1[i] - x2[j]), p)
            denom = dt**beta + du
            if denom == 0.0:
                skipped += 1
                continue
            df = lp_norm(PhysicalVectorField(grid, f1[i] - f2[j]), p)
            max_r = max(max_r, df / denom)
            pairs += 1
    return {"max_ratio": max_r, "beta": float(beta), "pairs": pairs,
            "skipped_degenerate": skipped, "finite": bool(np.isfinite(max_r))}


def reference_bilinear_constant(ensemble, exponents, p, resolutions):
    """`estimate_bilinear_constant`'s per_resolution as a loop over resolutions, then pairs,
    all 2 size fields drawn first and each ratio taken by `advection_ratio`."""
    resolutions = tuple(sorted(resolutions))
    fields = ensemble.fields(make_grid(ensemble.dim, resolutions[0]), 2 * ensemble.size)
    pairs = list(zip(fields[0::2], fields[1::2]))
    per_resolution = []
    for n in resolutions:
        grid = make_grid(ensemble.dim, n)
        worst = 0.0
        for u, v in pairs:
            worst = max(worst, advection_ratio(embed(u, grid), embed(v, grid), exponents, p))
        per_resolution.append((n, worst))
    return tuple(per_resolution)


def reference_norm_equivalence(ensemble, gamma, p, resolutions):
    """`estimate_norm_equivalence`'s two per_resolution tuples as a loop over resolutions,
    then fields, each norm taken by `frac_norm`."""
    resolutions = tuple(sorted(resolutions))
    fields = ensemble.fields(make_grid(ensemble.dim, resolutions[0]))
    upper_rows, lower_rows = [], []
    for n in resolutions:
        grid = make_grid(ensemble.dim, n)
        up = 0.0
        down = 0.0
        for u in fields:
            ue = embed(u, grid)
            ng = frac_norm(ue, FracNormParams(gamma, p))
            nh = frac_norm(ue, FracNormParams(0.5, p))
            if ng == 0 or nh == 0:
                continue
            up = max(up, ng / nh)
            down = max(down, nh / ng)
        upper_rows.append((n, up))
        lower_rows.append((n, down))
    return tuple(upper_rows), tuple(lower_rows)


def count_draws(monkeypatch):
    """Count the suite's and the estimates' draws of divergence-free fields by (dim, n_modes)."""
    counts = {}
    draw = verification.random_divfree_field

    def counted(grid, *args, **kwargs):
        counts[grid.dim, grid.n_modes] = counts.get((grid.dim, grid.n_modes), 0) + 1
        return draw(grid, *args, **kwargs)

    monkeypatch.setattr(verification, "random_divfree_field", counted)
    return counts


def count_inverse_transforms(monkeypatch):
    """Count the inverse transforms from here on: the calls of numpy's last-axis real
    inverse `irfft`, which grid._irfft makes once per transform."""
    calls = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        calls.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    return calls


class TestResolventDivfree:
    def test_single_mode_exact(self, grid3):
        u = field_from_function(grid3, (lambda x, y, z: np.sin(y), 0.0, 0.0))
        report = check_resolvent_divfree((1.0,), [u])
        assert report.measurements["max_divergence_forward"] <= 1e-15

    def test_gradient_stays_in_complement(self, grid3):
        report = check_resolvent_divfree((1.0,), [random_divfree_field(grid3, 0)])
        # the probe gradient keeps order-one divergence under the resolvent
        assert report.measurements["gradient_probe_divergence"] > 1e-3

    def test_ensemble_passes(self, grid3):
        fields = [random_divfree_field(grid3, seed) for seed in range(20)]
        report = check_resolvent_divfree((1.0, 10.0, 100.0), fields)
        assert report.passed


class TestSemigroupCheck:
    def test_identity_cases(self, grid3):
        u = random_divfree_field(grid3, 1)
        report = check_semigroup([u], times=(0.0, 0.5))
        assert report.measurements["identity_at_zero"] == 0.0

    def test_single_mode_norm_strictly_decreases(self, grid3):
        from nsmild import lp_norm

        u = field_from_function(grid3, (lambda x, y, z: np.sin(y), 0.0, 0.0))
        assert lp_norm(heat_semigroup(0.5, 1.0, u), 2.0) < lp_norm(u, 2.0)

    def test_ensemble_summary(self, grid3):
        fields = [random_divfree_field(grid3, seed) for seed in range(20)]
        report = check_semigroup(fields)
        assert report.passed
        assert report.measurements["contraction_violation"] <= 1e-12

    def test_each_field_and_image_transformed_once(self, grid3, monkeypatch):
        fields = [random_divfree_field(grid3, seed) for seed in range(3)]
        times = (0.01, 0.1, 1.0)
        calls = count_inverse_transforms(monkeypatch)
        check_semigroup(fields, times, p_values=(2.0, 4.0))
        assert len(calls) == len(fields) * (1 + len(times))


class TestOperatorIdentities:
    def test_defects_at_roundoff(self, grid3):
        fields = [random_divfree_field(grid3, s) for s in range(10)]
        grads = [random_gradient_field(grid3, s) for s in range(5)]
        report = check_operator_identities(fields, grads)
        assert report.passed
        for key in ("projection_idempotence", "resolvent_identity", "semigroup_law"):
            assert report.measurements[key] <= 1e-12

    def test_other_checks(self, grid3):
        fields = [random_divfree_field(grid3, s) for s in range(5)]
        assert check_frac_power_composition(fields).passed
        assert check_energy_orthogonality(fields).passed
        assert check_gradient_identity(fields).passed

    def test_gradient_identity_transforms_once(self, grid3, monkeypatch):
        fields = [random_divfree_field(grid3, s) for s in range(3)]
        ratios = [gradient_norm(u, 4.0) / frac_norm(u, FracNormParams(0.5, 4.0)) for u in fields]
        calls = count_inverse_transforms(monkeypatch)
        report = check_gradient_identity(fields)
        assert len(calls) == len(fields) * (grid3.dim**2 + 1)
        assert report.measurements["report_p"] == 4.0
        assert report.measurements["ratio_p_min"] == min(ratios)
        assert report.measurements["ratio_p_max"] == max(ratios)


class TestBilinearEstimate:
    def test_closed_form_pair(self, grid3):
        # |(u.grad)v|_2 = sqrt(2 pi^3), each denominator 2 pi^{3/2} at |k| = 1
        u = field_from_function(grid3, (lambda x, y, z: np.sin(y), 0.0, 0.0))
        v = field_from_function(grid3, (0.0, lambda x, y, z: np.sin(x), 0.0))
        ratio = advection_ratio(u, v, (0.0, 0.75, 0.75), 2.0)
        expected = np.sqrt(2) * np.pi**1.5 / (4 * np.pi**3)
        np.testing.assert_allclose(ratio, expected, atol=1e-6)

    def test_self_advection_single_mode_zero(self, grid3):
        u = field_from_function(grid3, (lambda x, y, z: np.sin(y), 0.0, 0.0))
        assert advect(u, u).max_abs() <= 1e-15

    def test_zero_norm_rejected(self, grid3):
        from nsmild import zero_field

        u = random_divfree_field(grid3, 1)
        with pytest.raises(ValueError):
            advection_ratio(zero_field(grid3), u)

    def test_small_ensemble_bounded(self):
        ens = EnsembleSpec(size=20, seed=3)
        report = estimate_bilinear_constant(ens, (0.0, 0.75, 0.75), 2.0, (16, 32))
        assert report.verdict == "bounded"
        assert len(report.per_resolution) == 2
        assert report.max_ratio > 0

    def test_rejects_nonzero_delta(self):
        ens = EnsembleSpec(size=2, seed=1)
        with pytest.raises(ValueError):
            estimate_bilinear_constant(ens, (0.25, 0.75, 0.75))

    def test_single_resolution_inconclusive(self):
        ens = EnsembleSpec(size=2, seed=5)
        bilinear = estimate_bilinear_constant(ens, (0.0, 0.75, 0.75), 2.0, (16,))
        reports = (bilinear, *estimate_norm_equivalence(ens, 0.75, 2.0, (16,)))
        for report in reports:
            assert report.verdict == "inconclusive"
            assert len(report.per_resolution) == 1
            assert report.fitted_constant == report.max_ratio > 0

    def test_norm_equivalence_reports(self):
        ens = EnsembleSpec(size=10, seed=4)
        upper, lower = estimate_norm_equivalence(ens, 0.75, 2.0, (16, 32))
        assert isinstance(upper, EstimateReport) and isinstance(lower, EstimateReport)
        assert upper.max_ratio > 0 and lower.max_ratio > 0


class TestEnsembleEstimatesOnePass:
    @pytest.mark.parametrize("size", [3, 5])
    @pytest.mark.parametrize("triple,p", [((0.0, 0.75, 0.75), 2.0), ((0.0, 0.5, 1.0), 2.0),
                                          ((0.0, 0.75, 0.75), 3.0)])
    def test_equal_to_reference_loops(self, size, triple, p):
        ens = EnsembleSpec(size=size, seed=11)
        resolutions = (16, 32)
        bilinear = estimate_bilinear_constant(ens, triple, p, resolutions)
        upper, lower = estimate_norm_equivalence(ens, 0.75, p, resolutions)
        assert bilinear.per_resolution == reference_bilinear_constant(ens, triple, p, resolutions)
        assert (upper.per_resolution, lower.per_resolution) == reference_norm_equivalence(
            ens, 0.75, p, resolutions)
        assert ensemble_estimates(ens, [triple], 0.75, p, resolutions) == [bilinear, upper, lower]

    def test_each_field_drawn_once(self, monkeypatch):
        counts = count_draws(monkeypatch)
        ens = EnsembleSpec(size=3, seed=2)
        ensemble_estimates(ens, [(0.0, 0.75, 0.75), (0.0, 0.5, 0.5)], 0.75, 2.0, (8, 16))
        assert counts == {(3, 8): 2 * ens.size}

    def test_zero_norm_member(self):
        class WithZeroMember(EnsembleSpec):
            def field(self, grid, i):
                return zero_field(grid) if i == 1 else super().field(grid, i)

        ens = WithZeroMember(size=2, seed=3)
        with pytest.raises(ValueError, match="zero-norm field in advection ratio"):
            estimate_bilinear_constant(ens, resolutions=(8, 16))
        # the norm ratios skip it
        upper, _ = estimate_norm_equivalence(ens, 0.75, 2.0, (8, 16))
        assert upper.per_resolution == reference_norm_equivalence(ens, 0.75, 2.0, (8, 16))[0]


class TestSuiteOnePass:
    def test_equal_to_list_checks_with_one_draw_per_field(self, monkeypatch):
        # 52 fields reach past the suite's subsets of 20 and 50; the estimates draw on N=8
        s = VerifySettings(dim=3, n_modes=10, ensemble_size=52, resolutions=(8, 16),
                           trajectory_n_modes=16)
        counts = count_draws(monkeypatch)
        reports = {r.name: r for r in run_verification_suite(s)}
        assert counts[3, 10] == s.ensemble_size
        # the estimates draw in the suite's child process: count them on its half in-process
        ens = s.ensemble
        verification._child_half(s)
        assert counts[3, 8] == 2 * s.ensemble_size
        monkeypatch.undo()
        grid = make_grid(3, 10)
        fields = ens.fields(grid)
        grads = [random_gradient_field(grid, s.seed + 5000 + i, s.spectrum_decay)
                 for i in range(20)]
        tol = s.tolerance_identity
        expected = [
            check_operator_identities(fields, grads, s.lambdas, (0.1, 0.3), s.nu, tol),
            check_resolvent_divfree(s.lambdas, fields, tol),
            check_semigroup(fields, s.times, s.nu, (2.0, 4.0), tol),
            check_frac_power_composition(fields[:20], tol),
            check_energy_orthogonality(fields[:20], s.tolerance_energy_orth),
            check_gradient_identity(fields, s.tolerance_gradient),
            diagonal_dependence_scan(fields[:50]),
        ]
        for report in expected:
            assert reports[report.name] == report, report.name
        for name, exponents in (("advection_bound_estimate", (0.0, 0.75, 0.75)),
                                ("advection_bound_half_half", (0.0, 0.5, 0.5))):
            report = estimate_bilinear_constant(ens, exponents, s.p, s.resolutions)
            assert reports[name].measurements == asdict(report), name
        upper, lower = estimate_norm_equivalence(ens, 0.75, s.p, s.resolutions)
        assert reports["norm_equivalence_upper"].measurements == asdict(upper)
        assert reports["norm_equivalence_lower"].measurements == asdict(lower)
        ortho = check_gradient_orthogonality(advect(fields[0], fields[1]), 20, s.seed + 9000)
        measured = reports["gradient_orthogonality_advect"].measurements
        assert measured == {"max_normalized_inner_product": ortho}

    def test_pass_transforms_each_jacobian_entry_once(self, monkeypatch):
        """The pass makes the inverse transforms of the public checks it folds, less the
        dim**2 - dim off-diagonal Jacobian entries of each of the first 50 members, which
        the diagonal scan takes from the gradient identity's stream: each entry of a member
        is transformed once."""
        s = VerifySettings(dim=3, n_modes=10, ensemble_size=52, resolutions=(8, 16),
                           trajectory_n_modes=16)
        grid = make_grid(3, 10)
        fields = s.ensemble.fields(grid)
        grads = [random_gradient_field(grid, s.seed + 5000 + i, s.spectrum_decay)
                 for i in range(20)]
        calls = count_inverse_transforms(monkeypatch)
        verification._ensemble_pass(s)
        in_pass = len(calls)
        calls.clear()
        check_operator_identities(fields, grads, s.lambdas, (0.1, 0.3), s.nu)
        check_resolvent_divfree(s.lambdas, fields)
        check_semigroup(fields, s.times, s.nu, (2.0, 4.0))
        check_frac_power_composition(fields[:20])
        check_energy_orthogonality(fields[:20])
        check_gradient_orthogonality(advect(fields[0], fields[1]), 20, s.seed + 9000)
        check_gradient_identity(fields)
        diagonal_dependence_scan(fields[:50])
        assert in_pass == len(calls) - (3 * 3 - 3) * 50

    def test_memory_does_not_grow_with_ensemble_size(self, traced_peak, monkeypatch):
        """The suite's traced peak at 16 fields is within one field of its peak at 4.

        Without os.fork the child's half runs inline, so both halves are traced here."""
        monkeypatch.delattr(os, "fork")
        field_bytes = random_divfree_field(make_grid(3, 16), 0).coeffs.nbytes
        peaks = {}
        for size in (4, 16):
            s = VerifySettings(n_modes=16, resolutions=(8, 16), trajectory_n_modes=16,
                               ensemble_size=size)
            _, peaks[size] = traced_peak(run_verification_suite, s)
        assert peaks[16] - peaks[4] < field_bytes, (peaks, field_bytes)

    def test_pass_holds_one_member_beside_a_body(self, traced_peak):
        """The traced peak of the per-field pass at 3D N=32 and 4 members, in half fields
        of (3,) + half_shape complex128: 6.93, of which `_orthogonality_defect` is 5.04.
        It was 8.53 while field 0 was held through field 1's bodies and the advective image
        of the two through every later field's, and 7.53 while `_gradient_identity_row` held
        the stack of the 9 Jacobian entries and its power (5.65); the bound is the measured
        value plus about 0.15. At 3D N=16 it reads 7.19 (8.32 with the stack)."""

        def ensemble_pass(**kwargs):
            s = VerifySettings(**kwargs)
            return verification._ensemble_pass(s)

        ensemble_pass(dim=2, n_modes=8, ensemble_size=2)  # first-call imports and caches
        grid = make_grid(3, 32)
        _, peak = traced_peak(ensemble_pass, dim=3, n_modes=32, ensemble_size=4)
        assert peak / (3 * int(np.prod(grid.half_shape)) * 16) <= 7.1

    def test_twenty_projection_leak_probes_at_every_size(self):
        """`projection_kills_gradients` is the worst leak of the same 20 gradient probes at
        every ensemble size, the bench's 4 members included (at seed 6 the first 4 probes'
        worst leak is 3.10e-17, the 20 probes' 3.93e-17)."""
        s = VerifySettings(dim=3, n_modes=10, ensemble_size=4, seed=6, resolutions=(8, 16),
                           trajectory_n_modes=16)
        reports, _, _ = verification._ensemble_pass(s)
        grid = make_grid(3, 10)
        grads = [random_gradient_field(grid, s.seed + 5000 + i, s.spectrum_decay)
                 for i in range(20)]
        assert reports[0] == check_operator_identities(
            s.ensemble.fields(grid), grads, s.lambdas, (0.1, 0.3), s.nu, s.tolerance_identity)


TINY_SUITE = VerifySettings(dim=2, n_modes=8, ensemble_size=2, resolutions=(8, 16),
                            trajectory_n_modes=16)


class TestSuiteSettingRules:
    """The rules that make the suite's comparisons readable hold for every caller of the
    library: each raises SettingError(key, message) with the message `nsmild verify`
    prints after `verify.<key>: `."""

    @pytest.mark.parametrize("resolutions,message", [
        ((16, 16), "must not repeat an entry, got [16, 16]"),
        ((8, 16, 8), "must not repeat an entry, got [8, 16, 8]"),
        ((16,), "must hold at least 2 entries, got [16]"),
    ])
    def test_resolutions(self, resolutions, message):
        with pytest.raises(SettingError) as info:
            VerifySettings(resolutions=resolutions)
        assert info.value.args == ("resolutions", message)

    def test_suite_given_a_repeated_resolution(self):
        # comparing N=16 with itself would pass both resolution checks as bounded
        with pytest.raises(SettingError, match=r"^resolutions: must not repeat an entry"):
            run_verification_suite(dataclasses.replace(TINY_SUITE, resolutions=(16, 16)))

    @pytest.mark.parametrize("settings,message", [
        ({"trajectory_t_end": 0.02},
         "20 steps of trajectory_dt, kept every 5, give 5 snapshots; the suite needs at least 10"),
        ({"trajectory_t_end": 0.1, "trajectory_snapshot_every": 13},
         "100 steps of trajectory_dt, kept every 13, give 9 snapshots; the suite needs at least 10"),
        ({"trajectory_t_end": 0.0004}, "must cover at least one step of dt = 0.001, got 0.0004"),
        ({"trajectory_t_end": 1e300},
         "must cover at most 2**53 steps of dt = 0.001, got 1e+300"),
    ])
    def test_trajectory_span(self, settings, message):
        with pytest.raises(SettingError) as info:
            VerifySettings(**settings)
        assert info.value.args == ("trajectory_t_end", message)

    @pytest.mark.parametrize("key", ["spectrum_decay", "trajectory_decay"])
    @pytest.mark.parametrize("value,message", [
        (-1.0, "must be positive, got -1.0"),
        (1e6, "1000000.0 on the box of period 6.283185307179586 makes (1+|k|^2)^(-decay/2) "
              "zero on every mode"),
    ])
    def test_envelopes(self, key, value, message, monkeypatch):
        # raised on the key the caller set, before the suite forks or draws
        draws = count_draws(monkeypatch)
        with pytest.raises(SettingError) as info:
            run_verification_suite(dataclasses.replace(TINY_SUITE, **{key: value}))
        assert info.value.args == (key, message)
        assert draws == {}

    def test_ten_snapshots_are_enough(self):
        VerifySettings(trajectory_t_end=0.045)  # 45 steps kept every 5
        VerifySettings(trajectory_t_end=0.1, trajectory_snapshot_every=12)  # 100 every 12

    @pytest.mark.parametrize("estimate", [estimate_bilinear_constant, estimate_norm_equivalence])
    def test_estimates_reject_a_repeated_resolution(self, estimate):
        # comparing N=8 with itself, each would read `bounded`
        with pytest.raises(SettingError) as info:
            estimate(EnsembleSpec(size=2, seed=3), resolutions=(8, 8))
        assert info.value.args == ("resolutions", "must not repeat an entry, got [8, 8]")

    @pytest.mark.parametrize("estimate", [estimate_bilinear_constant, estimate_norm_equivalence])
    def test_estimates_reject_no_resolution(self, estimate, monkeypatch):
        # with no grid to compare on, the rule raises before any member is drawn
        draws = count_draws(monkeypatch)
        with pytest.raises(SettingError) as info:
            estimate(EnsembleSpec(size=2, seed=3), resolutions=())
        assert info.value.args == ("resolutions", "must hold at least 1 entry, got []")
        assert draws == {}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSuiteOnTwoProcesses:
    """The suite's child half runs in a forked process and is reaped on every path."""

    def test_forked_half_equals_in_process_half(self):
        with verification._forked(verification._child_half, TINY_SUITE) as collect:
            forked = collect()
        assert_no_child_left()
        assert forked == verification._child_half(TINY_SUITE)
        assert [r.name for r in forked] == [
            "advection_bound_estimate", "advection_bound_half_half", "norm_equivalence_upper",
            "norm_equivalence_lower", "hoelder_fit_trajectory",
            "nonlinearity_lipschitz_stability", "existence_window_trend"]

    def test_child_half_marches_with_the_trajectory_config(self, monkeypatch):
        """Every suite trajectory marches with the one SolverConfig the settings built."""
        configs = []

        def recording_march(u0, config, t_end, *args, **kwargs):
            configs.append(config)
            return march(u0, config, t_end, *args, **kwargs)

        monkeypatch.setattr(verification, "march", recording_march)
        verification._child_half(TINY_SUITE)
        assert len(configs) == 1 + 2 * len(TINY_SUITE.resolutions)
        assert all(config is TINY_SUITE.trajectory_config for config in configs)

    def test_report_order_and_values_without_fork(self, monkeypatch):
        forked = run_verification_suite(TINY_SUITE)
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        assert run_verification_suite(TINY_SUITE) == forked
        assert len(forked) == 16

    def test_child_exception_reaches_the_caller(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(verification, "existence_time_trend", boom)
        with pytest.raises(ValueError, match="^boom$"):
            run_verification_suite(TINY_SUITE)
        assert_no_child_left()

    def test_child_memory_error_keeps_its_type(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(verification, "ensemble_estimates", exhausted)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            run_verification_suite(TINY_SUITE)
        assert_no_child_left()

    def test_parent_exception_kills_and_reaps_the_child(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("parent half failed")

        monkeypatch.setattr(verification, "_ensemble_pass", fail)
        with pytest.raises(RuntimeError, match="parent half failed"):
            run_verification_suite(TINY_SUITE)
        assert_no_child_left()

    def test_child_that_dies_raises_its_status(self):
        def killed():
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(verification.SuiteChildDied, match=r"\(killed by signal 9\)$"):
            with verification._forked(killed) as collect:
                collect()
        assert_no_child_left()

    def test_child_outlives_a_closed_pipe(self):
        """A child whose parent stopped reading (a killed parent) exits, not hangs."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            verification._run_child(write_fd, lambda: "x" * 2**20, ())
        os.close(write_fd)
        os.close(read_fd)  # as a killed parent's exit would
        for _ in range(3000):  # 30 s
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the child did not exit within 30 s of its pipe closing")
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class TestGradientOrthogonality:
    def test_projected_field_orthogonal(self, grid3):
        w = leray_project(random_gradient_field(grid3, 5) + random_divfree_field(grid3, 6))
        assert check_gradient_orthogonality(w, n_test=10) <= 1e-12

    def test_gradient_field_scores_high(self, grid3):
        # max over probes includes the same-spectrum alignment; order one
        w = random_gradient_field(grid3, 7)
        assert check_gradient_orthogonality(w, n_test=10, seed=7) > 0.5

    def test_advect_image_measured(self, grid3):
        u = random_divfree_field(grid3, 8)
        v = random_divfree_field(grid3, 9)
        w = advect(u, v)
        value = check_gradient_orthogonality(w, n_test=10)
        assert value > 1e-10  # generic advection leaves the subspace

    def test_zero_field_scores_zero(self, grid3):
        assert check_gradient_orthogonality(zero_field(grid3), n_test=3) == 0.0


class TestDiagonalDependence:
    def test_constant_field(self, grid3):
        u = field_from_function(grid3, (1.0, -2.0, 0.5))
        is_diag, max_off = check_diagonal_dependence(u)
        assert is_diag and max_off == 0.0

    def test_shear_mode_not_diagonal(self, grid3):
        u = field_from_function(grid3, (lambda x, y, z: np.sin(y), 0.0, 0.0))
        is_diag, max_off = check_diagonal_dependence(u)
        assert not is_diag and max_off > 0.1

    def test_no_nonzero_divfree_member(self, grid3):
        # periodicity + divergence-free + diagonal dependence forces zero
        fields = [random_divfree_field(grid3, s) for s in range(30)]
        report = diagonal_dependence_scan(fields)
        assert report.passed
        assert report.measurements["nonzero_fields_passing"] == 0


class TestHoelderFit:
    def test_heat_decay_is_lipschitz(self, grid2):
        u0 = field_from_function(grid2, (lambda x, y: np.sin(y), 0.0))
        times = np.linspace(0.0, 1.0, 21)
        fields = [heat_semigroup(t, 1.0, u0) for t in times]
        fit = estimate_hoelder(make_trajectory(fields, times))
        assert abs(fit.beta - 1.0) <= 0.05

    def test_constant_trajectory_degenerate(self, grid2):
        u = random_divfree_field(grid2, 1)
        times = np.linspace(0.0, 1.0, 12)
        with pytest.raises(ValueError):
            estimate_hoelder(make_trajectory([u] * len(times), times))

    def test_coincident_times_rejected(self, grid2):
        u = random_divfree_field(grid2, 1)
        times = [0.0] + [0.1] * 11
        with pytest.raises(ValueError):
            make_trajectory([u] * 12, times)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_equals_pairwise_reference(self, grid2, p):
        config = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=5)
        traj = march(random_divfree_field(grid2, 21, 5.0, 0.5), config, 0.1)
        expected = reference_hoelder_fit(traj.times, _frac_samples(traj.fields, 0.5), grid2, p)
        assert estimate_hoelder(traj, 0.5, p) == expected

    def test_skipped_pairs_equal_reference(self, grid2):
        # uneven spacing skips pairs closer than twice the finest gap, and a
        # repeated state gives one zero increment
        u = random_divfree_field(grid2, 22, 5.0, 0.5)
        times = [0.0, 0.005, 0.02, 0.03, 0.05, 0.07, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3]
        fields = [heat_semigroup(t, 1.0, u) for t in times]
        fields[5] = fields[4]
        samples = _frac_samples(fields, 0.5)
        expected = reference_hoelder_fit(times, samples, grid2, 2.0)
        assert expected.sample_pairs < len(times) * (len(times) - 1) // 2 - 1
        assert _hoelder_fit(times, samples, grid2, 2.0) == expected

    def test_solver_trajectory_regularity(self, grid2):
        u0 = random_divfree_field(grid2, 21, spectrum_decay=5.0, amplitude=0.5)
        config = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=5)
        traj = march(u0, config, 0.1)
        fit = estimate_hoelder(traj)
        assert 0.0 < fit.beta <= 1.05
        assert fit.r_squared >= 0.9


class TestSuiteHoelderReport:
    def test_fit_takes_the_suite_p(self):
        s = VerifySettings(dim=2, n_modes=8, p=3.0, ensemble_size=2, resolutions=(8, 16),
                           trajectory_n_modes=16)
        report = next(r for r in run_verification_suite(s) if r.name == "hoelder_fit_trajectory")
        traj = _suite_trajectory(s, s.seed + 11000, s.trajectory_n_modes, s.trajectory_n_modes)
        fit = estimate_hoelder(traj, p=3.0)
        assert report.measurements == {"beta": fit.beta, "C": fit.C,
                                       "r_squared": fit.r_squared,
                                       "sample_pairs": fit.sample_pairs}
        assert fit.beta != estimate_hoelder(traj, p=2.0).beta


class TestPairDistances:
    """Differences of once-transformed samples against the spectral differences."""

    @pytest.mark.parametrize("alpha,p", [(0.5, 2.0), (0.5, 4.0), (0.25, 3.0)])
    def test_frac_norm_of_difference(self, grid2, alpha, p):
        config = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=5)
        fields = march(random_divfree_field(grid2, 41, 5.0, 0.5), config, 0.05).fields
        samples = _frac_samples(fields, alpha)
        for i, u in enumerate(fields):
            for j in range(i + 1, len(fields)):
                expected = frac_norm(u - fields[j], FracNormParams(alpha, p))
                got = lp_norm(PhysicalVectorField(grid2, samples[i] - samples[j]), p)
                assert abs(got - expected) <= 1e-13 * expected

    def test_lp_norm_of_F_difference(self, grid2):
        fields = [random_divfree_field(grid2, seed, 5.0, 0.5) for seed in range(4)]
        F = [nonlinear_F(u) for u in fields]
        samples = _frac_samples(F, 0.0)
        for i in range(len(F)):
            for j in range(i + 1, len(F)):
                expected = lp_norm(F[i] - F[j], 2.0)
                got = lp_norm(PhysicalVectorField(grid2, samples[i] - samples[j]), 2.0)
                assert abs(got - expected) <= 1e-13 * expected


class TestAssumptionF:
    def test_constant_pair_distinct_times(self, grid2):
        # steady identical states: denominators reduce to the time term
        u = random_divfree_field(grid2, 2, amplitude=0.3)
        times = np.linspace(0.0, 0.5, 11)
        traj = make_trajectory([u] * len(times), times)
        report = check_assumption_F(traj, traj, beta=1.0)
        assert report.measurements["finite"]
        assert report.measurements["max_ratio"] == 0.0
        assert report.measurements["skipped_degenerate"] == len(times)

    def test_scaled_pair_direct_evaluation(self, grid2):
        from nsmild import FracNormParams, frac_norm, lp_norm, nonlinear_F

        u0 = random_divfree_field(grid2, 3, amplitude=0.3)
        config = SolverConfig(nu=1.0, dt=1e-2, snapshot_every=2)
        traj1 = march(u0, config, 0.2)
        traj2 = make_trajectory([2.0 * f for f in traj1.fields], traj1.times, config)
        beta = 0.9
        report = check_assumption_F(traj1, traj2, beta=beta)
        # independent direct evaluation of the same functional
        params = FracNormParams(0.5, 2.0)
        expected = 0.0
        for i, t1 in enumerate(traj1.times):
            for j, t2 in enumerate(traj2.times):
                num = lp_norm(nonlinear_F(traj1.fields[i]) - nonlinear_F(traj2.fields[j]), 2.0)
                den = abs(t1 - t2) ** beta + frac_norm(traj1.fields[i] - traj2.fields[j], params)
                expected = max(expected, num / den)
        np.testing.assert_allclose(report.measurements["max_ratio"], expected, rtol=1e-12)
        assert np.isfinite(report.measurements["max_ratio"])

    def test_random_pair_report(self, grid2):
        config = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=10)
        t1 = march(random_divfree_field(grid2, 4, 5.0, 0.5), config, 0.1)
        t2 = march(random_divfree_field(grid2, 5, 5.0, 0.5), config, 0.1)
        report = check_assumption_F(t1, t2)
        assert report.measurements["max_ratio"] > 0
        assert report.measurements["finite"]

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_equals_pairwise_reference(self, grid2, p):
        config = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=10)
        t1 = march(random_divfree_field(grid2, 4, 5.0, 0.5), config, 0.1)
        t2 = march(random_divfree_field(grid2, 5, 5.0, 0.5), config, 0.1)
        report = check_assumption_F(t1, t2, p=p)
        assert report.measurements == reference_assumption_F(t1, t2, p)

    def test_constant_pair_equals_reference(self, grid2):
        u = random_divfree_field(grid2, 2, amplitude=0.3)
        times = np.linspace(0.0, 0.5, 11)
        traj = make_trajectory([u] * len(times), times)
        report = check_assumption_F(traj, traj, beta=1.0)
        expected = reference_assumption_F(traj, traj, 2.0, beta=1.0)
        assert expected["skipped_degenerate"] == len(times)
        assert report.measurements == expected

    def test_mismatched_grids_rejected(self, grid2):
        u = random_divfree_field(grid2, 6, amplitude=0.2)
        times_a = np.linspace(0.0, 0.5, 11)
        times_b = np.linspace(0.0, 0.6, 11)
        ta = make_trajectory([u] * 11, times_a)
        tb = make_trajectory([u] * 11, times_b)
        with pytest.raises(ValueError):
            check_assumption_F(ta, tb, beta=1.0)


class TestTaylorGreenOracle:
    def test_initial_norm(self, grid2):
        # int |u|^2 = 2 pi^2 over [0, 2pi]^2, so |u|_2 = pi sqrt(2)
        tg = taylor_green(grid2, 1.0, 0.0)
        np.testing.assert_allclose(spectral_l2_norm(tg), np.pi * np.sqrt(2), rtol=1e-12)

    def test_divergence_free_at_all_times(self, grid2):
        for t in (0.0, 0.3, 1.0):
            assert taylor_green(grid2, 1.0, t).divergence_defect() <= 1e-13

    def test_equation_residual(self, grid2):
        for t in (0.0, 0.2, 0.7):
            assert taylor_green_residual(grid2, 1.0, t) <= 1e-10

    def test_compare_oracle_on_march(self, grid2):
        tg = taylor_green(grid2, 1.0, 0.0)
        config = SolverConfig(nu=1.0, dt=1e-3, snapshot_every=50)
        traj = march(tg, config, 0.2)
        errors = compare_oracle(traj, 1.0)
        assert np.max(errors) <= 1e-10

    def test_rejects_3d(self, grid3):
        with pytest.raises(ValueError):
            taylor_green(grid3, 1.0, 0.0)


class TestExistenceTimeTrend:
    def test_zero_amplitude_keeps_window(self, grid2):
        base = random_divfree_field(grid2, 7)
        config = SolverConfig(nu=1.0, window_T=0.4, n_nodes=9)
        trend = existence_time_trend([1e-8], base, config)
        assert trend.pairs[0][1] == 0.4

    def test_taylor_green_any_amplitude(self, grid2):
        tg = taylor_green(grid2, 1.0, 0.0)
        config = SolverConfig(nu=1.0, window_T=0.4, n_nodes=9)
        trend = existence_time_trend((0.1, 1.0, 10.0), tg, config)
        assert all(t == 0.4 for _, t in trend.pairs)

    def test_suite_window_search_golden(self):
        # the suite's trend field and window settings; values of the direct trapezoid
        base = random_divfree_field(make_grid(2, 32), 7 + 14000, 4.0, 1.0)
        config = SolverConfig(nu=1.0, p=2.0, window_T=0.5, n_nodes=17)
        trend = existence_time_trend((0.1, 1.0, 10.0), base, config)
        assert trend.pairs == ((0.1, 0.5), (1.0, 0.5), (10.0, 0.125))
        assert trend.nonincreasing
        attempts = [
            [(a.window, a.iterations, a.reason) for a in attempts]
            for attempts in trend.window_reports
        ]
        assert attempts == [
            [(0.5, 5, "converged")],
            [(0.5, 10, "converged")],
            [(0.5, 20, "NotContracting"), (0.25, 50, "MaxIters"), (0.125, 40, "converged")],
        ]

    def test_suite_window_search_forms_two_rows_per_amplitude(self, monkeypatch):
        """The search reads no trajectory: each converged solve forms the diagnostics of
        its window's two end nodes only, 6 rows for the suite's three amplitudes."""
        rows = []

        def counting_row(*args, **kwargs):
            rows.append(args[2])
            return row(*args, **kwargs)

        row = solver._row
        monkeypatch.setattr(solver, "_row", counting_row)
        base = random_divfree_field(make_grid(2, 32), 7 + 14000, 4.0, 1.0)
        config = SolverConfig(nu=1.0, p=2.0, window_T=0.5, n_nodes=17)
        trend = existence_time_trend((0.1, 1.0, 10.0), base, config)
        assert trend.pairs == ((0.1, 0.5), (1.0, 0.5), (10.0, 0.125))
        assert rows == [0.0, 0.5, 0.0, 0.5, 0.0, 0.125]

    def test_rejects_nonincreasing_amplitudes(self, grid2):
        base = random_divfree_field(grid2, 8)
        config = SolverConfig(window_T=0.1, n_nodes=9)
        with pytest.raises(ValueError):
            existence_time_trend((1.0, 0.5, 2.0), base, config)


class TestReportTypes:
    def test_check_report_serializes(self):
        report = CheckReport("demo", True, {"value": 1.0})
        d = asdict(report)
        assert d["name"] == "demo" and d["passed"] is True

    def test_estimate_report_validation(self):
        with pytest.raises(ValueError):
            EstimateReport("x", 10, (0, 0.5, 0.5), 1.0, 1.0, (), "bounded")
        with pytest.raises(ValueError):
            EstimateReport("x", 10, (0, 0.5, 0.5), 1.0, 1.0, ((16, 1.0),), "maybe")

    def test_hoelder_fit_validation(self):
        with pytest.raises(ValueError):
            HoelderFit(C=1.0, beta=1.5, r_squared=0.5, sample_pairs=10)
        with pytest.raises(ValueError):
            HoelderFit(C=1.0, beta=0.5, r_squared=1.5, sample_pairs=10)
