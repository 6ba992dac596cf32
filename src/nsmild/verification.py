"""Numerical verification of the operator-calculus claims behind the solver.

Each check either asserts an identity that is exactly true in the Fourier
discretization (projection algebra, resolvent and semigroup laws, subspace
invariance) or measures an estimate empirically over seeded random ensembles
(the advection bound, norm equivalences, Hoelder and Lipschitz constants of
the nonlinearity). Measured quantities are reported, never asserted, unless
the claim is literally true at the discrete level.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import (
    TWO_PI,
    SpectralVectorField,
    TorusGrid,
    _irfft,
    _relative_max,
    _require_same_grid,
    dealias,
    embed,
    field_from_function,
    make_grid,
    random_divfree_field,
    random_gradient_field,
)
from .operators import (
    FracNormParams,
    _jacobian_entries,
    _libm_pow,
    _lp,
    advect,
    apply_shifted_laplacian,
    frac_norm,
    frac_power,
    heat_semigroup,
    l2_inner,
    laplacian,
    leray_project,
    lp_norm,
    nonlinear_F,
    resolvent,
    spectral_l2_norm,
)
from .solver import SolverConfig, Trajectory, adaptive_window, march

IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    ``passed`` is None for measurement-only checks that never gate a run.
    Measurements are plain floats/lists so reports serialize to JSON as-is.
    """

    name: str
    passed: bool | None
    measurements: dict
    notes: str = ""


@dataclass(frozen=True)
class EstimateReport:
    """Fitted constant for a bilinear or norm-equivalence estimate."""

    name: str
    ensemble_size: int
    exponent_triple: tuple
    fitted_constant: float
    max_ratio: float
    per_resolution: tuple
    verdict: str

    def __post_init__(self) -> None:
        if self.verdict not in ("bounded", "growing", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if not self.per_resolution:
            raise ValueError("per_resolution must be nonempty")


@dataclass(frozen=True)
class HoelderFit:
    """Least-squares fit of log-increments against log time separations."""

    C: float
    beta: float
    r_squared: float
    sample_pairs: int

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.05:
            raise ValueError(f"fitted exponent {self.beta} outside (0, 1.05]")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared {self.r_squared} outside [0, 1]")


@dataclass(frozen=True)
class EnsembleSpec:
    """Seeded description of a random divergence-free field ensemble."""

    size: int = 100
    seed: int = 7
    dim: int = 3
    spectrum_decay: float = 4.0

    def __post_init__(self) -> None:
        if self.size < 1:  # an empty ensemble would pass every estimate vacuously
            raise ValueError(f"ensemble size must be >= 1, got {self.size}")

    def fields(self, grid: TorusGrid, count: int | None = None) -> list:
        count = self.size if count is None else count
        return [
            random_divfree_field(grid, self.seed + i, self.spectrum_decay)
            for i in range(count)
        ]


def _frac_samples(fields, alpha: float) -> np.ndarray:
    """Samples of (-Lap)^alpha u for each field, from one inverse transform.

    By linearity, the L_p norm of a difference of rows is the frac_norm of the difference.
    """
    coeffs = [u.coeffs if alpha == 0.0 else frac_power(alpha, u).coeffs for u in fields]
    return _irfft(np.stack(coeffs), fields[0].grid)


def check_operator_identities(
    fields: list,
    gradient_fields: list,
    lambdas=(1.0, 10.0, 100.0),
    times=(0.1, 0.3),
    nu: float = 1.0,
    tol: float = IDENTITY_TOL,
) -> CheckReport:
    """Projection algebra, resolvent identity, and the semigroup law.

    All five are modewise-exact in this discretization, so the observed
    defects are pure roundoff.
    """
    proj_idem = 0.0
    proj_div = 0.0
    proj_grad = 0.0
    res_identity = 0.0
    sg_law = 0.0
    for u in fields:
        pu = leray_project(u)
        scale = max(pu.max_abs(), u.max_abs())
        ppu = leray_project(pu)
        proj_idem = max(proj_idem, _relative_max(ppu.coeffs - pu.coeffs, scale))
        proj_div = max(proj_div, pu.divergence_defect())
        for lam in lambdas:
            ru = resolvent(lam, u)
            back = apply_shifted_laplacian(lam, ru)
            res_identity = max(res_identity, _relative_max(back.coeffs - u.coeffs, u.max_abs()))
        for s in times:
            for t in times:
                two = heat_semigroup(s, nu, heat_semigroup(t, nu, u))
                one = heat_semigroup(s + t, nu, u)
                sg_law = max(sg_law, _relative_max(two.coeffs - one.coeffs, u.max_abs()))
    for g in gradient_fields:
        pg = leray_project(g)
        proj_grad = max(proj_grad, _relative_max(pg.max_abs(), g.max_abs()))
    measurements = {
        "projection_idempotence": proj_idem,
        "projection_divergence": proj_div,
        "projection_kills_gradients": proj_grad,
        "resolvent_identity": res_identity,
        "semigroup_law": sg_law,
        "tolerance": tol,
    }
    passed = all(v <= tol for k, v in measurements.items() if k != "tolerance")
    return CheckReport("operator_identities", passed, measurements)


def check_resolvent_divfree(
    lambdas, fields: list, tol: float = IDENTITY_TOL
) -> CheckReport:
    """Divergence-free fields stay divergence-free under the resolvent, both ways.

    Forward: image of a div-free field under (lam I - Lap)^{-1} is div-free.
    Reverse: a div-free image forces a div-free preimage, tested by applying
    (lam I - Lap) to div-free fields. A gradient probe is also pushed through
    to confirm the complementary subspace is preserved, not annihilated.
    """
    forward = 0.0
    reverse = 0.0
    for u in fields:
        for lam in lambdas:
            forward = max(forward, resolvent(lam, u).divergence_defect())
            reverse = max(reverse, apply_shifted_laplacian(lam, u).divergence_defect())
    grid = fields[0].grid
    probe = random_gradient_field(grid, seed=1)
    probe_div = resolvent(lambdas[0], probe).divergence_defect()
    measurements = {
        "max_divergence_forward": forward,
        "max_divergence_reverse": reverse,
        "gradient_probe_divergence": probe_div,
        "tolerance": tol,
    }
    passed = forward <= tol and reverse <= tol and probe_div > 1e-3
    return CheckReport("resolvent_divfree", passed, measurements)


def check_semigroup(
    fields: list,
    times=(0.01, 0.1, 1.0),
    nu: float = 1.0,
    p_values=(2.0, 4.0),
    tol: float = IDENTITY_TOL,
) -> CheckReport:
    """Identity at t = 0, L_p contraction, and divergence-free invariance.

    The semigroup law is measured by `check_operator_identities`.
    """
    ident = 0.0
    contraction_violation = 0.0
    invariance = 0.0
    for u in fields:
        ident = max(ident, _relative_max(heat_semigroup(0.0, nu, u).coeffs - u.coeffs,
                                         u.max_abs()))
        x = _irfft(u.coeffs, u.grid)
        before = {p: float(_lp(x, u.grid, p)) for p in p_values}
        for t in times:
            ut = heat_semigroup(t, nu, u)
            invariance = max(invariance, ut.divergence_defect())
            xt = _irfft(ut.coeffs, u.grid)
            for p in p_values:
                rise = max(float(_lp(xt, u.grid, p)) - before[p], 0.0)
                contraction_violation = max(contraction_violation, _relative_max(rise, before[p]))
    measurements = {
        "identity_at_zero": ident,
        "contraction_violation": contraction_violation,
        "divfree_invariance": invariance,
        "tolerance": tol,
    }
    passed = ident <= tol and invariance <= tol and contraction_violation <= tol
    return CheckReport("semigroup_contraction", passed, measurements)


def check_frac_power_composition(fields: list, tol: float = IDENTITY_TOL) -> CheckReport:
    """Fractional powers compose additively while the sum stays in [-1, 1]."""
    worst = 0.0
    exponent_pairs = [(0.5, 0.5), (0.25, 0.5), (0.5, -0.5), (-0.25, 0.75), (1.0, -1.0)]
    for u in fields:
        for a, b in exponent_pairs:
            left = frac_power(a, frac_power(b, u))
            right = frac_power(a + b, u)
            worst = max(worst, _relative_max(left.coeffs - right.coeffs, u.max_abs()))
    measurements = {"max_composition_defect": worst, "tolerance": tol}
    return CheckReport("frac_power_composition", worst <= tol, measurements)


def check_energy_orthogonality(fields: list, tol: float = 1e-8) -> CheckReport:
    """<(u.grad)u, u> vanishes for dealiased divergence-free fields.

    With the two-thirds rule the retained product modes are exact, so the
    skew-symmetry argument applies verbatim to the trigonometric polynomial.
    """
    worst = 0.0
    for u in fields:
        ud = dealias(u)
        w = advect(ud, ud, apply_dealias=True)
        denom = spectral_l2_norm(ud) ** 3
        if denom == 0:
            continue
        worst = max(worst, abs(l2_inner(w, ud)) / denom)
    measurements = {"max_relative_inner_product": worst, "tolerance": tol}
    return CheckReport("energy_orthogonality", worst <= tol, measurements)


def check_gradient_identity(fields: list, tol: float = 1e-10) -> CheckReport:
    """Full-Jacobian gradient norm equals the alpha = 1/2 fractional norm at p = 2.

    The identity is Parseval-exact only at p = 2; at report_p = 4 the ratio
    is measured and reported without assertion. Both exponents are taken
    from one transform of each Jacobian entry and of (-Lap)^(1/2) u.
    """
    report_p = 4.0
    worst = 0.0
    ratios = []
    for u in fields:
        jacobian = _jacobian_entries(u, list(np.ndindex(u.grid.dim, u.grid.dim)))
        half = _irfft(frac_power(0.5, u).coeffs, u.grid)
        g2, gp = (float(_lp(jacobian, u.grid, p)) for p in (2.0, report_p))
        f2, fp = (float(_lp(half, u.grid, p)) for p in (2.0, report_p))
        worst = max(worst, _relative_max(g2 - f2, f2))
        if fp > 0:
            ratios.append(gp / fp)
    measurements = {
        "max_p2_defect": worst,
        "tolerance": tol,
        "report_p": report_p,
        "ratio_p_min": float(np.min(ratios)) if ratios else 0.0,
        "ratio_p_max": float(np.max(ratios)) if ratios else 0.0,
    }
    return CheckReport("gradient_identity_p2", worst <= tol, measurements)


def advection_ratio(
    u: SpectralVectorField,
    v: SpectralVectorField,
    exponents=(0.0, 0.75, 0.75),
    p: float = 2.0,
) -> float:
    """|(u.grad)v|_p / (|(-Lap)^theta u|_p |(-Lap)^omega v|_p)."""
    delta, theta, omega = exponents
    if delta != 0.0:
        raise ValueError("only delta = 0 is supported")
    if not (0.0 < theta <= 1.0 and 0.0 < omega <= 1.0):
        raise ValueError("theta and omega must lie in (0, 1]")
    du = frac_norm(u, FracNormParams(theta, p))
    dv = frac_norm(v, FracNormParams(omega, p))
    if du == 0.0 or dv == 0.0:
        raise ValueError("zero-norm field in advection ratio")
    return lp_norm(advect(u, v), p) / (du * dv)


def _bounded(rows) -> bool:
    """Of (resolution, maximum) rows: the last maximum is finite and within 10% of the first."""
    return bool(np.isfinite(rows[-1][1]) and rows[-1][1] <= 1.10 * rows[0][1])


def _estimate_report(name: str, size: int, triple, rows) -> EstimateReport:
    """Per-resolution maxima with a verdict: `_bounded`, growing, or inconclusive at one."""
    if len(rows) == 1:
        verdict = "inconclusive"
    else:
        verdict = "bounded" if _bounded(rows) else "growing"
    return EstimateReport(
        name=name,
        ensemble_size=size,
        exponent_triple=tuple(triple),
        fitted_constant=rows[-1][1],
        max_ratio=max(r for _, r in rows),
        per_resolution=tuple(rows),
        verdict=verdict,
    )


def estimate_bilinear_constant(
    ensemble: EnsembleSpec,
    exponents=(0.0, 0.75, 0.75),
    p: float = 2.0,
    resolutions=(16, 32),
) -> EstimateReport:
    """Empirical constant for the advection bound over a pair ensemble.

    Pairs are generated at the coarsest resolution and spectrally embedded
    into the finer grids, so the per-resolution maxima compare the same
    trigonometric polynomials and isolate truncation effects from sampling
    noise. Verdict is bounded when the max ratio grows by less than 10%
    from the smallest to the largest resolution.
    """
    resolutions = tuple(sorted(resolutions))
    base_grid = make_grid(ensemble.dim, resolutions[0])
    fields = ensemble.fields(base_grid, 2 * ensemble.size)
    pairs = list(zip(fields[0::2], fields[1::2]))
    per_resolution = []
    for n in resolutions:
        grid = make_grid(ensemble.dim, n)
        worst = 0.0
        for u, v in pairs:
            worst = max(worst, advection_ratio(embed(u, grid), embed(v, grid), exponents, p))
        per_resolution.append((n, worst))
    name = f"advection_bound_theta{exponents[1]}_omega{exponents[2]}"
    return _estimate_report(name, ensemble.size, exponents, per_resolution)


def estimate_norm_equivalence(
    ensemble: EnsembleSpec,
    gamma: float = 0.75,
    p: float = 2.0,
    resolutions=(16, 32),
) -> tuple:
    """Measured ratios between the gamma and 1/2 fractional norms, both directions.

    The continuous embedding gives only a one-sided inequality, so both
    directions are reported and neither is asserted.
    """
    resolutions = tuple(sorted(resolutions))
    base_grid = make_grid(ensemble.dim, resolutions[0])
    fields = ensemble.fields(base_grid)
    upper_rows = []
    lower_rows = []
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
    triple = (0.0, gamma, 0.5)
    return (
        _estimate_report(f"norm_gamma{gamma}_over_half", ensemble.size, triple, upper_rows),
        _estimate_report(f"norm_half_over_gamma{gamma}", ensemble.size, triple, lower_rows),
    )


def check_gradient_orthogonality(
    w: SpectralVectorField,
    n_test: int,
    seed: int = 101,
) -> float:
    """max over random scalars h of |<w, grad h>| / (|w| |grad h|).

    Small values mean w lies in the divergence-free subspace (equivalently
    P w = w); gradient fields score near 1.
    """
    norm_w = spectral_l2_norm(w)
    if norm_w == 0.0:
        return 0.0
    worst = 0.0
    for i in range(n_test):
        g = random_gradient_field(w.grid, seed + i)
        norm_g = spectral_l2_norm(g)
        if norm_g == 0.0:
            continue
        worst = max(worst, abs(l2_inner(w, g)) / (norm_w * norm_g))
    return worst


def check_diagonal_dependence(u: SpectralVectorField) -> tuple:
    """Do all off-diagonal Jacobian entries vanish?

    Returns (is_diagonal, max_offdiag) where the flag uses the threshold
    1e-10 |u|_{L_2}. For periodic mean-zero divergence-free fields the only
    member of the diagonal class is the zero field, which the ensemble scan
    below confirms empirically.
    """
    return _diagonal_test(u)[:2]


def _diagonal_test(u: SpectralVectorField) -> tuple:
    """(is_diagonal, max_offdiag, |u|_{L_2}) of `check_diagonal_dependence`."""
    pairs = [(i, j) for i, j in np.ndindex(u.grid.dim, u.grid.dim) if i != j]
    worst = float(np.max(np.abs(_jacobian_entries(u, pairs))))
    norm = lp_norm(u, 2.0)
    return worst <= 1e-10 * norm, worst, norm


def diagonal_dependence_scan(fields: list) -> CheckReport:
    """Count nonzero ensemble members passing the diagonal-dependence test."""
    n_diagonal = 0
    worst_margin = np.inf
    for u in fields:
        if u.max_abs() == 0.0:
            continue
        is_diag, max_off, norm = _diagonal_test(u)
        if is_diag:
            n_diagonal += 1
        if norm > 0:
            worst_margin = min(worst_margin, max_off / norm)
    measurements = {
        "nonzero_fields_passing": n_diagonal,
        "min_offdiag_over_norm": float(worst_margin),
    }
    return CheckReport("diagonal_dependence_scan", n_diagonal == 0, measurements)


def estimate_hoelder(
    traj: Trajectory,
    alpha: float = 0.5,
    p: float = 2.0,
) -> HoelderFit:
    """Fit |u(t1) - u(t2)|_{X_alpha} ~ C |t1 - t2|^beta over snapshot pairs (`_hoelder_fit`)."""
    FracNormParams(alpha, p)  # rejects alpha outside [0, 1] and p < 2
    samples = _frac_samples(traj.fields, alpha)
    return _hoelder_fit(traj.times, samples, traj.fields[0].grid, p)


def _hoelder_fit(times, samples: np.ndarray, grid: TorusGrid, p: float) -> HoelderFit:
    """Fit |x(t1) - x(t2)|_{L_p} ~ C |t1 - t2|^beta over pairs of the sample rows x.

    Pairs closer than twice the finest snapshot spacing are excluded to keep
    step-scale noise out of the fit. Degenerate trajectories (coincident
    times, or all increments zero) are rejected.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 10:
        raise ValueError("need at least 10 snapshots for a Hoelder fit")
    gaps = np.diff(times)
    if np.any(gaps <= 0):
        raise ValueError("trajectory has coincident or unordered times")
    min_sep = 2.0 * float(np.min(gaps))
    rows = [(times[i + 1 :] - times[i], _lp(samples[i + 1 :] - samples[i], grid, p))
            for i in range(len(times))]  # the pairs (i, j > i) in order
    sep, d = (np.concatenate(column) for column in zip(*rows))
    kept = (sep >= min_sep) & (d > 0.0)
    log_dt, log_du = np.log(sep[kept]), np.log(d[kept])
    if len(log_du) < 3:
        raise ValueError("degenerate trajectory: not enough nonzero increments")
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


def check_assumption_F(
    traj1: Trajectory,
    traj2: Trajectory,
    alpha: float = 0.5,
    p: float = 2.0,
    beta: float | None = None,
) -> CheckReport:
    """Empirical Lipschitz/Hoelder constant of the projected nonlinearity.

    Over sampled pairs (t1, u1(t1)), (t2, u2(t2)) the ratio

        |F(u1(t1)) - F(u2(t2))|_p / (|t1 - t2|^beta + |u1(t1) - u2(t2)|_{X_alpha})

    is maximized; beta defaults to the smaller fitted Hoelder exponent of
    the two trajectories. Pairs with identical time and state are skipped.
    The max is reported as a measurement; stability across resolutions is
    judged by the caller.
    """
    if not np.array_equal(traj1.times, traj2.times):
        raise ValueError("trajectories must share the same time grid")
    FracNormParams(alpha, p)  # rejects alpha outside [0, 1] and p < 2
    grid = traj1.fields[0].grid
    _require_same_grid(grid, traj2.fields[0].grid)
    x1, x2 = (_frac_samples(t.fields, alpha) for t in (traj1, traj2))
    if beta is None:
        beta = min(_hoelder_fit(traj1.times, x, grid, p).beta for x in (x1, x2))
    f1, f2 = (_frac_samples([nonlinear_F(u) for u in t.fields], 0.0) for t in (traj1, traj2))
    max_r, pairs = 0.0, 0
    for i, t1 in enumerate(traj1.times):
        denom = _libm_pow(np.abs(t1 - traj2.times), beta) + _lp(x1[i] - x2, grid, p)
        ok = denom != 0.0
        pairs += int(np.count_nonzero(ok))
        # Python's max, not np.max: a NaN ratio does not replace max_r
        max_r = max([max_r, *(_lp(f1[i] - f2[ok], grid, p) / denom[ok])])
    measurements = {
        "max_ratio": float(max_r),
        "beta": float(beta),
        "pairs": pairs,
        "skipped_degenerate": len(traj1.times) ** 2 - pairs,
        "finite": bool(np.isfinite(max_r)),
    }
    return CheckReport("nonlinearity_lipschitz", None, measurements)


def taylor_green(grid: TorusGrid, nu: float, t: float) -> SpectralVectorField:
    """Closed-form decaying vortex: exp(-2 nu t) (sin x cos y, -cos x sin y).

    Its convective term is a pure gradient, so the projected dynamics reduce
    to heat decay; only defined on 2D grids of period 2 pi.
    """
    if grid.dim != 2 or grid.period != TWO_PI:
        raise ValueError("the closed-form vortex is defined on the 2D grid of period 2 pi")
    u = field_from_function(
        grid,
        (
            lambda x, y: np.sin(x) * np.cos(y),
            lambda x, y: -np.cos(x) * np.sin(y),
        ),
    )
    return u * np.exp(-2.0 * nu * t)


def taylor_green_residual(grid: TorusGrid, nu: float, t: float) -> float:
    """Relative residual of the projected equation on the closed-form vortex.

    Evaluates du/dt - nu Lap u + P (u . grad) u spectrally; du/dt is known
    analytically to be -2 nu u.
    """
    u = taylor_green(grid, nu, t)
    du_dt = (-2.0 * nu) * u
    nl = leray_project(advect(u, u))
    return _relative_max((du_dt - nu * laplacian(u) + nl).coeffs, u.max_abs())


def compare_oracle(traj: Trajectory, nu: float) -> np.ndarray:
    """Relative L_2 error of each snapshot against the closed-form vortex."""
    errors = []
    for t, u in zip(traj.times, traj.fields):
        exact = taylor_green(u.grid, nu, float(t))
        errors.append(spectral_l2_norm(u - exact) / spectral_l2_norm(exact))
    return np.asarray(errors)


def closed_form_vortex(
    n_modes: int, nu: float, dt: float, t_end: float, snapshot_every: int, p: float = 2.0
) -> tuple:
    """March the closed-form vortex on the 2D grid of n_modes and compare it with its decay.

    Returns (residual, max_error, errors, times): the largest equation residual
    at t = 0, t_end/2 and t_end, the largest relative L_2 error of the kept
    snapshots, and that error and time for each snapshot.
    """
    grid = make_grid(2, n_modes)
    residual = max(taylor_green_residual(grid, nu, t) for t in (0.0, t_end / 2, t_end))
    config = SolverConfig(nu=nu, p=p, dt=dt, snapshot_every=snapshot_every)
    traj = march(taylor_green(grid, nu, 0.0), config, t_end)
    errors = compare_oracle(traj, nu)
    return residual, float(np.max(errors)), errors, traj.times


@dataclass(frozen=True)
class TrendReport:
    pairs: tuple
    nonincreasing: bool
    window_reports: tuple


def existence_time_trend(
    amplitudes, base_field: SpectralVectorField, config: SolverConfig
) -> TrendReport:
    """Convergent Picard window versus initial-data amplitude.

    Runs the adaptive window search for each scaled initial field and
    reports whether the found window is nonincreasing in amplitude.
    """
    amplitudes = list(amplitudes)
    if any(b <= a for a, b in zip(amplitudes, amplitudes[1:])):
        raise ValueError("amplitudes must be strictly increasing")
    pairs = []
    reports = []
    for amp in amplitudes:
        t_star, report = adaptive_window(float(amp) * base_field, config)
        pairs.append((float(amp), t_star))
        reports.append(report)
    t_values = [t for _, t in pairs]
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(t_values, t_values[1:]))
    return TrendReport(tuple(pairs), nonincreasing, tuple(reports))


# -- suite ------------------------------------------------------------------


@dataclass(frozen=True)
class VerifySettings:
    """Knobs for the full verification suite; defaults match the shipped gate."""

    dim: int = 3
    n_modes: int = 32
    nu: float = 1.0
    p: float = 2.0
    ensemble_size: int = 100
    seed: int = 7
    spectrum_decay: float = 4.0
    lambdas: tuple = (1.0, 10.0, 100.0)
    times: tuple = (0.01, 0.1, 1.0)
    resolutions: tuple = (16, 32)
    tolerance_identity: float = IDENTITY_TOL
    tolerance_gradient: float = 1e-10
    tolerance_energy_orth: float = 1e-8
    tolerance_oracle: float = 1e-10
    trajectory_n_modes: int = 32
    trajectory_dt: float = 1e-3
    trajectory_t_end: float = 0.1
    trajectory_snapshot_every: int = 5
    trajectory_amplitude: float = 0.5
    trajectory_decay: float = 5.0


def _suite_trajectory(
    settings: VerifySettings, seed: int, draw_n_modes: int, n_modes: int
) -> Trajectory:
    """March a field drawn on the 2D grid of draw_n_modes, embedded into that of n_modes."""
    grid = make_grid(2, draw_n_modes)
    u0 = random_divfree_field(grid, seed, settings.trajectory_decay, settings.trajectory_amplitude)
    config = SolverConfig(
        nu=settings.nu,
        p=settings.p,
        dt=settings.trajectory_dt,
        snapshot_every=settings.trajectory_snapshot_every,
    )
    return march(embed(u0, make_grid(2, n_modes)), config, settings.trajectory_t_end)


def _hoelder_report(traj: Trajectory, p: float) -> CheckReport:
    """`hoelder_fit_trajectory`: the Hoelder fit of traj in L_p, or a failure that names why not.

    A trajectory that blew up is not fitted; a fit that cannot be made (too few
    nonzero increments, or HoelderFit rejecting beta outside (0, 1.05]) fails.
    """
    if traj.blowup:
        return CheckReport("hoelder_fit_trajectory", False, {"blowup": True})
    try:
        fit = estimate_hoelder(traj, p=p)
    except ValueError as exc:
        return CheckReport("hoelder_fit_trajectory", False, {"fit_error": str(exc)})
    measurements = {"beta": fit.beta, "C": fit.C, "r_squared": fit.r_squared,
                    "sample_pairs": fit.sample_pairs}
    return CheckReport("hoelder_fit_trajectory", fit.r_squared >= 0.9, measurements)


def run_verification_suite(settings: VerifySettings | None = None) -> list:
    """Run every check with the given settings; returns a list of CheckReports."""
    s = settings or VerifySettings()
    grid = make_grid(s.dim, s.n_modes)
    ens = EnsembleSpec(s.ensemble_size, s.seed, s.dim, s.spectrum_decay)
    fields = ens.fields(grid)
    grads = [
        random_gradient_field(grid, s.seed + 5000 + i, s.spectrum_decay)
        for i in range(min(s.ensemble_size, 20))
    ]
    reports = [
        check_operator_identities(
            fields, grads, s.lambdas, (0.1, 0.3), s.nu, s.tolerance_identity
        ),
        check_resolvent_divfree(s.lambdas, fields, s.tolerance_identity),
        check_semigroup(fields, s.times, s.nu, (2.0, 4.0), s.tolerance_identity),
        check_frac_power_composition(fields[:20], s.tolerance_identity),
        check_energy_orthogonality(fields[:20], s.tolerance_energy_orth),
        check_gradient_identity(fields, s.tolerance_gradient),
    ]

    bilinear = estimate_bilinear_constant(
        ens, (0.0, 0.75, 0.75), s.p, s.resolutions
    )
    reports.append(
        CheckReport(
            "advection_bound_estimate",
            bilinear.verdict == "bounded",
            asdict(bilinear),
        )
    )
    half_half = estimate_bilinear_constant(ens, (0.0, 0.5, 0.5), s.p, s.resolutions)
    reports.append(
        CheckReport("advection_bound_half_half", None, asdict(half_half),
                    notes="measured only; boundedness not asserted")
    )
    upper, lower = estimate_norm_equivalence(ens, 0.75, s.p, s.resolutions)
    reports.append(CheckReport("norm_equivalence_upper", None, asdict(upper)))
    reports.append(CheckReport("norm_equivalence_lower", None, asdict(lower)))

    residual, tg_err, _, _ = closed_form_vortex(32, s.nu, 1e-3, 0.25, 50, s.p)
    reports.append(
        CheckReport(
            "closed_form_vortex_oracle",
            residual <= s.tolerance_oracle and tg_err <= s.tolerance_oracle,
            {"equation_residual": residual, "march_error": tg_err,
             "tolerance": s.tolerance_oracle},
        )
    )

    # membership of advection images in the divergence-free subspace (measured)
    w = advect(fields[0], fields[1])
    ortho = check_gradient_orthogonality(w, n_test=20, seed=s.seed + 9000)
    reports.append(
        CheckReport("gradient_orthogonality_advect", None,
                    {"max_normalized_inner_product": ortho},
                    notes="membership probe for advection images; measured only")
    )

    reports.append(diagonal_dependence_scan(fields[:50]))

    # time regularity of a solver trajectory
    traj = _suite_trajectory(s, s.seed + 11000, s.trajectory_n_modes, s.trajectory_n_modes)
    reports.append(_hoelder_report(traj, s.p))

    # Lipschitz stability of the nonlinearity across resolutions: as in
    # estimate_bilinear_constant, the data are drawn on the coarsest grid and
    # embedded, so every resolution marches the same initial fields. A
    # resolution whose trajectories blew up or cannot be fitted fails the
    # check, names the reason, and has no row.
    resolutions = sorted(s.resolutions)
    max_ratios, failure = [], {}
    for n in resolutions:
        t1, t2 = (_suite_trajectory(s, s.seed + offset, resolutions[0], n)
                  for offset in (12000, 13000))
        if t1.blowup or t2.blowup:
            failure["blowup"] = True
            continue
        try:
            rep = check_assumption_F(t1, t2, p=s.p)
        except ValueError as exc:  # beta defaults to the two trajectories' fitted exponents
            failure["fit_error"] = str(exc)
            continue
        max_ratios.append((n, rep.measurements["max_ratio"]))
    reports.append(
        CheckReport(
            "nonlinearity_lipschitz_stability",
            not failure and _bounded(max_ratios),
            {"per_resolution": [list(r) for r in max_ratios], **failure},
        )
    )

    # existence window shrinks with amplitude
    base = random_divfree_field(make_grid(2, 32), s.seed + 14000, s.spectrum_decay, 1.0)
    window_config = SolverConfig(nu=s.nu, p=s.p, window_T=0.5, n_nodes=17)
    trend = existence_time_trend((0.1, 1.0, 10.0), base, window_config)
    reports.append(
        CheckReport(
            "existence_window_trend",
            trend.nonincreasing,
            {"pairs": [list(p_) for p_ in trend.pairs]},
        )
    )
    return reports
