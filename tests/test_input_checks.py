"""Input checks of the library: each bad input raises ValueError with a message that names it."""

import numpy as np
import pytest

from nsmild import (
    FracNormParams,
    SolverConfig,
    frac_power,
    gradient_norm,
    heat_semigroup,
    make_grid,
    march,
    phi1,
    random_divfree_field,
    random_gradient_field,
)
from nsmild.grid import ForcingSpec
from nsmild.io import _HEADER, SNAPSHOT_MAGIC, read_snapshot, write_snapshot
from nsmild.solver import Trajectory, compute_diagnostics
from nsmild.verification import EnsembleSpec, VerifySettings, _hoelder_fit, advection_ratio

GRID = make_grid(2, 8)
U = random_divfree_field(GRID, 1)
V = random_divfree_field(GRID, 2)


def snapshot_file(tmp_path, mutate):
    """A snapshot of U written to disk, then its bytes passed through mutate."""
    path = tmp_path / "u.nsms"
    write_snapshot(path, U, 0.5)
    path.write_bytes(mutate(path.read_bytes()))
    return path


def with_header(raw, version=2, dim=2, n_modes=8, period=2 * np.pi):
    return _HEADER.pack(SNAPSHOT_MAGIC, version, dim, n_modes, period, 0.5) + raw[_HEADER.size:]


def trajectory_of_unequal_lengths():
    row = compute_diagnostics(U, 0.0, SolverConfig())
    return Trajectory(np.array([0.0, 0.1]), (), (row,))


def hoelder_fit(times):
    samples = np.zeros((len(times), 2) + GRID.shape)
    return _hoelder_fit(times, samples, GRID, 2.0)


CASES = {
    "snapshot-truncated-header": (
        lambda tmp: read_snapshot(snapshot_file(tmp, lambda raw: raw[:10])),
        "truncated snapshot header"),
    "snapshot-wrong-version": (
        lambda tmp: read_snapshot(snapshot_file(tmp, lambda raw: with_header(raw, version=3))),
        "unsupported snapshot version 3"),
    "snapshot-wrong-count": (
        lambda tmp: read_snapshot(snapshot_file(tmp, lambda raw: raw[:-16])),
        "expected 80 coefficients, got 79"),
    # the header is checked against the 80-coefficient body before a grid is built
    "snapshot-huge-n_modes": (
        lambda tmp: read_snapshot(snapshot_file(tmp, lambda raw: with_header(raw, n_modes=2**20))),
        "u.nsms: expected 1099513724928 coefficients, got 80"),
    "snapshot-dim-7": (
        lambda tmp: read_snapshot(snapshot_file(tmp, lambda raw: with_header(raw, dim=7))),
        "u.nsms: dim must be 2 or 3, got 7"),
    "snapshot-period-nan": (
        lambda tmp: read_snapshot(snapshot_file(tmp, lambda raw: with_header(raw, period=np.nan))),
        "u.nsms: period must be positive, got nan"),
    "ensemble-size-0": (lambda tmp: EnsembleSpec(size=0, seed=1),
                        "ensemble size must be >= 1, got 0"),
    "ensemble-size-negative": (lambda tmp: EnsembleSpec(size=-3),
                               "ensemble size must be >= 1, got -3"),
    # the suite advects field 0 by field 1
    "verify-ensemble-size-0": (lambda tmp: VerifySettings(ensemble_size=0),
                               "ensemble_size: must be >= 2, got 0"),
    "verify-ensemble-size-1": (lambda tmp: VerifySettings(ensemble_size=1),
                               "ensemble_size: must be >= 2, got 1"),
    # the suite's trajectory config, which the settings build, marches with nu and p
    "verify-nu-0": (lambda tmp: VerifySettings(nu=0.0), "nu must be positive, got 0.0"),
    "verify-p-1": (lambda tmp: VerifySettings(p=1.0), "p must be >= 2, got 1.0"),
    # the suite trajectory's rules divide by dt and by snapshot_every
    "verify-trajectory-dt-0": (lambda tmp: VerifySettings(trajectory_dt=0.0),
                               "dt must be positive and finite, got 0.0"),
    "verify-trajectory-snapshot-every-0": (
        lambda tmp: VerifySettings(trajectory_snapshot_every=0),
        "snapshot_every must be >= 1, got 0"),
    # a gate or a scale the suite would misread as a failing check
    "verify-tolerance-identity-negative": (lambda tmp: VerifySettings(tolerance_identity=-1.0),
                                           "tolerance_identity: must be finite and > 0, got -1.0"),
    "verify-tolerance-identity-nan": (lambda tmp: VerifySettings(tolerance_identity=np.nan),
                                      "tolerance_identity: must be finite and > 0, got nan"),
    "verify-tolerance-gradient-0": (lambda tmp: VerifySettings(tolerance_gradient=0.0),
                                    "tolerance_gradient: must be finite and > 0, got 0.0"),
    "verify-tolerance-energy-orth-inf": (
        lambda tmp: VerifySettings(tolerance_energy_orth=np.inf),
        "tolerance_energy_orth: must be finite and > 0, got inf"),
    "verify-tolerance-oracle-negative": (lambda tmp: VerifySettings(tolerance_oracle=-1e-10),
                                         "tolerance_oracle: must be finite and > 0, got -1e-10"),
    "verify-trajectory-amplitude-0": (lambda tmp: VerifySettings(trajectory_amplitude=0.0),
                                      "trajectory_amplitude: must be finite and > 0, got 0.0"),
    "frac-norm-alpha-above-1": (lambda tmp: FracNormParams(1.5), "alpha must lie in [0, 1]"),
    "frac-norm-alpha-below-0": (lambda tmp: FracNormParams(-0.1), "alpha must lie in [0, 1]"),
    "heat-nu-0": (lambda tmp: heat_semigroup(0.1, 0.0, U), "viscosity must be positive"),
    "heat-nu-negative": (lambda tmp: heat_semigroup(0.1, -1.0, U), "viscosity must be positive"),
    "frac-power-above-1": (lambda tmp: frac_power(1.5, U), "alpha must lie in [-1, 1]"),
    "frac-power-below-minus-1": (lambda tmp: frac_power(-1.5, U), "alpha must lie in [-1, 1]"),
    "phi1-h-0": (lambda tmp: phi1(0.0, 1.0, U), "step size must be positive"),
    "phi1-h-negative": (lambda tmp: phi1(-1e-3, 1.0, U), "step size must be positive"),
    "gradient-norm-variant": (lambda tmp: gradient_norm(U, 2.0, "trace"),
                              "variant must be full or diagonal"),
    "forcing-steady-without-base": (lambda tmp: ForcingSpec("steady"),
                                    "forcing kind 'steady' requires a base field"),
    "forcing-hoelder-without-base": (lambda tmp: ForcingSpec("hoelder_modulated"),
                                     "forcing kind 'hoelder_modulated' requires a base field"),
    "trajectory-lengths": (lambda tmp: trajectory_of_unequal_lengths(),
                           "times, diagnostics and any kept fields must have equal length"),
    "advection-theta-0": (lambda tmp: advection_ratio(U, V, (0.0, 0.0, 0.75)),
                          "theta and omega must lie in (0, 1]"),
    "advection-omega-above-1": (lambda tmp: advection_ratio(U, V, (0.0, 0.75, 1.5)),
                                "theta and omega must lie in (0, 1]"),
    "hoelder-fit-9-snapshots": (lambda tmp: hoelder_fit(np.linspace(0.0, 1.0, 9)),
                                "need at least 10 snapshots"),
    "hoelder-fit-coincident-times": (lambda tmp: hoelder_fit([0.0] + [0.1] * 11),
                                     "trajectory has coincident or unordered times"),
    "march-t_end-0": (lambda tmp: march(U, SolverConfig(dt=1e-3), 0.0),
                      "t_end must cover at least one step of dt = 0.001"),
    "march-t_end-negative": (lambda tmp: march(U, SolverConfig(dt=1e-3), -1.0),
                             "t_end must cover at least one step of dt = 0.001"),
    "march-t_end-below-half-step": (lambda tmp: march(U, SolverConfig(dt=1e-3), 4e-4),
                                    "t_end must cover at least one step of dt = 0.001"),
    "march-t_end-half-step": (lambda tmp: march(U, SolverConfig(dt=1e-3), 5e-4),
                              "t_end must cover at least one step of dt = 0.001"),
    "march-t_end-nan": (lambda tmp: march(U, SolverConfig(dt=1e-3), float("nan")),
                        "t_end must cover at least one step of dt = 0.001"),
    "march-t_end-inf": (lambda tmp: march(U, SolverConfig(dt=1e-3), float("inf")),
                        "t_end must cover at most 2**53 steps of dt = 0.001, got inf"),
    "march-t_end-1e300": (lambda tmp: march(U, SolverConfig(dt=1e-3), 1e300),
                          "t_end must cover at most 2**53 steps of dt = 0.001, got 1e+300"),
    "envelope-underflow-decay": (lambda tmp: random_divfree_field(GRID, 1, 1e6),
                                 "spectrum_decay 1000000.0 on the box of period"),
    "envelope-underflow-period": (
        lambda tmp: random_gradient_field(make_grid(2, 8, 1e-100), 1, 4.0),
        "on the box of period 1e-100 makes (1+|k|^2)^(-decay/2) zero on every mode"),
}


@pytest.mark.parametrize("call,fragment", CASES.values(), ids=CASES.keys())
def test_raises_value_error_naming_the_input(tmp_path, call, fragment):
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert fragment in str(info.value)


def test_envelope_check_ignores_amplitude():
    """A zero amplitude gives the zero field; only the decay and the period can underflow."""
    assert random_divfree_field(GRID, 1, 4.0, amplitude=0.0).max_abs() == 0.0
    assert random_divfree_field(GRID, 1, 4.0, amplitude=1e-300).max_abs() > 0.0
