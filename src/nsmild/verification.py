"""Numerical verification of the operator-calculus claims behind the solver.

Each check either asserts an identity that is exactly true in the Fourier discretization
(projection algebra, resolvent and semigroup laws, subspace invariance) or measures an
estimate empirically over seeded random ensembles (the advection bound, norm equivalences,
Hoelder and Lipschitz constants of the nonlinearity). Measured quantities are reported, never
asserted, unless the claim is literally true at the discrete level. A setting that would make
a comparison vacuous, such as a repeated resolution, raises SettingError(key, message) where
the library takes it (`VerifySettings`, `ensemble_estimates`), for every caller alike.

The suite holds O(1) fields whatever its ensemble size: each member is drawn
when it is needed, handed to every check that takes it, and dropped. The calling
process of `nsmild verify` peaks at about 45.5 MiB RSS (VmHWM), and the child below at
about 38 MiB (getrusage(RUSAGE_CHILDREN)), at ensemble sizes 4, 100 and 200 alike (one
thread, 2-core x86-64 VM).

The suite runs as two halves that share no state, on two processes: the calling
process makes the per-field pass over the ensemble and the closed-form vortex oracle,
and a child forked before that work starts makes the ensemble estimates, the suite
trajectories' Hoelder and Lipschitz checks and the existence-window trend, and sends
its reports back pickled over a pipe (`_forked`). Where os.fork does not exist, the
child's half runs inline.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import reduce

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
from .solver import SolverConfig, Trajectory, adaptive_window, march, march_schedule, span_problem

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

    def field(self, grid: TorusGrid, i: int) -> SpectralVectorField:
        """Member i, drawn from seed + i."""
        return random_divfree_field(grid, self.seed + i, self.spectrum_decay)

    def fields(self, grid: TorusGrid, count: int | None = None) -> list:
        count = self.size if count is None else count
        return [self.field(grid, i) for i in range(count)]


def _frac_samples(fields, alpha: float) -> np.ndarray:
    """Samples of (-Lap)^alpha u for each field, from one inverse transform.

    By linearity, the L_p norm of a difference of rows is the frac_norm of the difference.
    """
    halves = [u.half if alpha == 0.0 else frac_power(alpha, u).half for u in fields]
    return _irfft(np.stack(halves), fields[0].grid, overwrite=True)


# A per-field check is a body (one field -> its row of measurements) and a fold of the
# rows, in field order, into its CheckReport. The list-taking check folds its body mapped
# over the list; the suite hands each field it draws to every body and folds at the end.


def _running_max(values) -> float:
    """max(m, x) from m = 0.0 over values in order, the fold of every per-field maximum."""
    return reduce(max, values, 0.0)


def _column_max(rows: list, width: int) -> list:
    return [_running_max(row[c] for row in rows) for c in range(width)]


def _max_report(name: str, keys, maxima: list, tol: float) -> CheckReport:
    """The named maxima and the tolerance; the check passes when every maximum is within tol."""
    return CheckReport(name, all(m <= tol for m in maxima),
                       {**dict(zip(keys, maxima)), "tolerance": tol})


def _defect(a: SpectralVectorField, b: SpectralVectorField, scale: float) -> float:
    """_relative_max(a.half - b.half, scale), formed in the buffer of the fresh field a."""
    return _relative_max(np.subtract(a.half, b.half, out=a.half), scale)


def _identity_row(u: SpectralVectorField, lambdas, times, nu: float) -> tuple:
    pu = leray_project(u)
    scale = max(pu.max_abs(), u.max_abs())
    idem, div = _defect(leray_project(pu), pu, scale), pu.divergence_defect()
    del pu
    res = _running_max(_defect(apply_shifted_laplacian(lam, resolvent(lam, u)), u, u.max_abs())
                       for lam in lambdas)
    law = _running_max(_defect(heat_semigroup(s, nu, heat_semigroup(t, nu, u)),
                               heat_semigroup(s + t, nu, u), u.max_abs())
                       for s in times for t in times)
    return idem, div, res, law


def _projection_leak(g: SpectralVectorField) -> float:
    return _relative_max(leray_project(g).max_abs(), g.max_abs())


def _identities_report(rows: list, leaks: list, tol: float) -> CheckReport:
    idem, div, res, law = _column_max(rows, 4)
    keys = ("projection_idempotence", "projection_divergence", "projection_kills_gradients",
            "resolvent_identity", "semigroup_law")
    return _max_report("operator_identities", keys, [idem, div, _running_max(leaks), res, law],
                       tol)


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
    rows = [_identity_row(u, lambdas, times, nu) for u in fields]
    return _identities_report(rows, [_projection_leak(g) for g in gradient_fields], tol)


def _resolvent_row(u: SpectralVectorField, lambdas) -> tuple:
    return (_running_max(resolvent(lam, u).divergence_defect() for lam in lambdas),
            _running_max(apply_shifted_laplacian(lam, u).divergence_defect() for lam in lambdas))


def _resolvent_report(rows: list, grid: TorusGrid, lambdas, tol: float) -> CheckReport:
    forward, reverse = _column_max(rows, 2)
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


def check_resolvent_divfree(
    lambdas, fields: list, tol: float = IDENTITY_TOL
) -> CheckReport:
    """Divergence-free fields stay divergence-free under the resolvent, both ways.

    Forward: image of a div-free field under (lam I - Lap)^{-1} is div-free.
    Reverse: a div-free image forces a div-free preimage, tested by applying
    (lam I - Lap) to div-free fields. A gradient probe is also pushed through
    to confirm the complementary subspace is preserved, not annihilated.
    """
    rows = [_resolvent_row(u, lambdas) for u in fields]
    return _resolvent_report(rows, fields[0].grid, lambdas, tol)


def _semigroup_row(u: SpectralVectorField, times, nu: float, p_values) -> tuple:
    ident = _defect(heat_semigroup(0.0, nu, u), u, u.max_abs())
    x = _irfft(u.half, u.grid)
    before = {p: float(_lp(x, u.grid, p)) for p in p_values}
    del x
    contraction_violation = 0.0
    invariance = 0.0
    for t in times:
        ut = heat_semigroup(t, nu, u)
        invariance = max(invariance, ut.divergence_defect())
        xt = _irfft(ut.half, u.grid, overwrite=True)
        del ut
        for p in p_values:
            rise = max(float(_lp(xt, u.grid, p)) - before[p], 0.0)
            contraction_violation = max(contraction_violation, _relative_max(rise, before[p]))
    return ident, contraction_violation, invariance


def _semigroup_report(rows: list, tol: float) -> CheckReport:
    keys = ("identity_at_zero", "contraction_violation", "divfree_invariance")
    return _max_report("semigroup_contraction", keys, _column_max(rows, 3), tol)


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
    return _semigroup_report([_semigroup_row(u, times, nu, p_values) for u in fields], tol)


def _composition_defect(u: SpectralVectorField) -> float:
    exponent_pairs = [(0.5, 0.5), (0.25, 0.5), (0.5, -0.5), (-0.25, 0.75), (1.0, -1.0)]
    return _running_max(_defect(frac_power(a, frac_power(b, u)), frac_power(a + b, u),
                                u.max_abs()) for a, b in exponent_pairs)


def _composition_report(defects: list, tol: float) -> CheckReport:
    return _max_report("frac_power_composition", ["max_composition_defect"],
                       [_running_max(defects)], tol)


def check_frac_power_composition(fields: list, tol: float = IDENTITY_TOL) -> CheckReport:
    """Fractional powers compose additively while the sum stays in [-1, 1]."""
    return _composition_report([_composition_defect(u) for u in fields], tol)


def _orthogonality_defect(u: SpectralVectorField) -> float:
    """|<(u.grad)u, u>| / |u|^3 of the dealiased u, and 0 for the zero field."""
    ud = dealias(u)
    denom = spectral_l2_norm(ud) ** 3
    return 0.0 if denom == 0 else abs(l2_inner(advect(ud, ud, apply_dealias=True), ud)) / denom


def _orthogonality_report(defects: list, tol: float) -> CheckReport:
    return _max_report("energy_orthogonality", ["max_relative_inner_product"],
                       [_running_max(defects)], tol)


def check_energy_orthogonality(fields: list, tol: float = 1e-8) -> CheckReport:
    """<(u.grad)u, u> vanishes for dealiased divergence-free fields.

    With the two-thirds rule the retained product modes are exact, so the
    skew-symmetry argument applies verbatim to the trigonometric polynomial.
    """
    return _orthogonality_report([_orthogonality_defect(u) for u in fields], tol)


_REPORT_P = 4.0  # the exponent at which `check_gradient_identity` reports its ratio


def _gradient_identity_row(u: SpectralVectorField) -> tuple:
    """(p = 2 defect, ratio at _REPORT_P or None where the fractional norm is 0)."""
    jacobian = _jacobian_entries(u, list(np.ndindex(u.grid.dim, u.grid.dim)))
    g2, gp = (float(_lp(jacobian, u.grid, p)) for p in (2.0, _REPORT_P))
    del jacobian
    half = _irfft(frac_power(0.5, u).half, u.grid, overwrite=True)
    f2, fp = (float(_lp(half, u.grid, p)) for p in (2.0, _REPORT_P))
    return _relative_max(g2 - f2, f2), gp / fp if fp > 0 else None


def _gradient_identity_report(rows: list, tol: float) -> CheckReport:
    worst = _running_max(defect for defect, _ in rows)
    ratios = [ratio for _, ratio in rows if ratio is not None]
    measurements = {
        "max_p2_defect": worst,
        "tolerance": tol,
        "report_p": _REPORT_P,
        "ratio_p_min": float(np.min(ratios)) if ratios else 0.0,
        "ratio_p_max": float(np.max(ratios)) if ratios else 0.0,
    }
    return CheckReport("gradient_identity_p2", worst <= tol, measurements)


def check_gradient_identity(fields: list, tol: float = 1e-10) -> CheckReport:
    """Full-Jacobian gradient norm equals the alpha = 1/2 fractional norm at p = 2.

    The identity is Parseval-exact only at p = 2; at report_p = 4 the ratio
    is measured and reported without assertion. Both exponents are taken
    from one transform of each Jacobian entry and of (-Lap)^(1/2) u.
    """
    return _gradient_identity_report([_gradient_identity_row(u) for u in fields], tol)


def _advection_exponents(exponents) -> tuple:
    """(theta, omega) of a triple (delta, theta, omega); only delta = 0 is supported."""
    delta, theta, omega = exponents
    if delta != 0.0:
        raise ValueError("only delta = 0 is supported")
    if not (0.0 < theta <= 1.0 and 0.0 < omega <= 1.0):
        raise ValueError("theta and omega must lie in (0, 1]")
    return theta, omega


def advection_ratio(
    u: SpectralVectorField,
    v: SpectralVectorField,
    exponents=(0.0, 0.75, 0.75),
    p: float = 2.0,
) -> float:
    """|(u.grad)v|_p / (|(-Lap)^theta u|_p |(-Lap)^omega v|_p)."""
    theta, omega = _advection_exponents(exponents)
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


class SettingError(ValueError):
    """A setting whose value leaves a measurement unreadable; args are (key, message)."""

    def __str__(self) -> str:
        return f"{self.args[0]}: {self.args[1]}"


def require_distinct_resolutions(resolutions) -> None:
    """A repeated resolution compares a grid with itself: SettingError on `resolutions`."""
    if len(set(resolutions)) < len(resolutions):
        raise SettingError("resolutions", f"must not repeat an entry, got {list(resolutions)}")


@np.errstate(over="ignore")  # an overflowing norm raises SettingError instead
def ensemble_estimates(
    ensemble: EnsembleSpec, triples, gamma: float | None, p: float = 2.0, resolutions=(16, 32)
) -> list:
    """Every ensemble estimate from one pass: the advection-bound report of each triple
    (0, theta, omega) over the pairs (2j, 2j + 1) of 2 size fields, then, unless gamma is
    None, the two of `estimate_norm_equivalence` over the first size fields.

    Fields are drawn on the coarsest grid and spectrally embedded into the finer ones, so
    the per-resolution maxima compare the same trigonometric polynomials and isolate
    truncation effects from sampling noise. One pair is held at a time; at each resolution
    it is embedded once, and each fractional norm and its advective image are taken once.
    Without triples only the first size fields are drawn. A norm of a nonzero member that
    overflows to inf or underflows to 0 at p (a huge p) raises SettingError on p, where it
    would read as a bounded constant or a zero-norm member, and a repeated resolution, or
    none, raises SettingError on resolutions."""
    require_distinct_resolutions(resolutions)
    if not resolutions:
        raise SettingError("resolutions", "must hold at least 1 entry, got []")
    exponents = [_advection_exponents(triple) for triple in triples]
    resolutions = sorted(resolutions)
    grids = [make_grid(ensemble.dim, n) for n in resolutions]
    size, count = ensemble.size, 2 * ensemble.size if triples else ensemble.size
    # per resolution: the maximum of each triple, then of the two norm ratios
    worst = [[0.0] * (len(triples) + 2) for _ in grids]
    for first in range(0, count, 2):
        pair = [ensemble.field(grids[0], i) for i in range(first, min(first + 2, count))]
        in_norms = [gamma is not None and first + j < size for j in range(len(pair))]
        for row, grid in zip(worst, grids):
            embedded = [embed(u, grid) for u in pair]
            # each exponent a member needs, once: its triples' theta (first) or omega
            # (second), and gamma and 1/2 when it enters the norm ratios
            norms = [{a: frac_norm(u, FracNormParams(a, p))
                      for a in {e[j] for e in exponents} | ({gamma, 0.5} if n else set())}
                     for j, (u, n) in enumerate(zip(embedded, in_norms))]
            image = lp_norm(advect(*embedded), p) if triples else 0.0
            # a nonzero member's norms lie in (0, inf) unless |x|^p over- or underflows
            bad = [x for u, norm in zip(pair, norms) if u.max_abs() > 0.0
                   for x in norm.values() if not 0.0 < x < np.inf]
            if bad or not np.isfinite(image):
                raise SettingError("p", f"{p!r} takes an L_p norm of the ensemble at "
                                        f"N = {grid.n_modes} to {(bad or [image])[0]}")
            for t, (theta, omega) in enumerate(exponents):
                du, dv = norms[0][theta], norms[1][omega]
                if du == 0.0 or dv == 0.0:
                    raise ValueError("zero-norm field in advection ratio")
                row[t] = max(row[t], image / (du * dv))
            for norm, n in zip(norms, in_norms):
                if n and norm[gamma] != 0 and norm[0.5] != 0:
                    row[-2] = max(row[-2], norm[gamma] / norm[0.5])
                    row[-1] = max(row[-1], norm[0.5] / norm[gamma])
    columns = [list(zip(resolutions, column)) for column in zip(*worst)]
    reports = [_estimate_report(f"advection_bound_theta{triple[1]}_omega{triple[2]}", size,
                                triple, rows) for triple, rows in zip(triples, columns)]
    if gamma is not None:
        triple = (0.0, gamma, 0.5)
        reports += [_estimate_report(f"norm_gamma{gamma}_over_half", size, triple, columns[-2]),
                    _estimate_report(f"norm_half_over_gamma{gamma}", size, triple, columns[-1])]
    return reports


def estimate_bilinear_constant(
    ensemble: EnsembleSpec,
    exponents=(0.0, 0.75, 0.75),
    p: float = 2.0,
    resolutions=(16, 32),
) -> EstimateReport:
    """Empirical constant for the advection bound over a pair ensemble (`ensemble_estimates`).

    Verdict is bounded when the max ratio grows by less than 10%
    from the smallest to the largest resolution.
    """
    return ensemble_estimates(ensemble, [exponents], None, p, resolutions)[0]


def estimate_norm_equivalence(
    ensemble: EnsembleSpec,
    gamma: float = 0.75,
    p: float = 2.0,
    resolutions=(16, 32),
) -> tuple:
    """Measured ratios between the gamma and 1/2 fractional norms, both directions
    (`ensemble_estimates`).

    The continuous embedding gives only a one-sided inequality, so both
    directions are reported and neither is asserted.
    """
    return tuple(ensemble_estimates(ensemble, [], gamma, p, resolutions))


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


def _diagonal_row(u: SpectralVectorField):
    """`_diagonal_test` of u, or None for the zero field, which the scan skips."""
    return None if u.max_abs() == 0.0 else _diagonal_test(u)


def _diagonal_report(rows: list) -> CheckReport:
    n_diagonal = 0
    worst_margin = np.inf
    for is_diag, max_off, norm in filter(None, rows):
        if is_diag:
            n_diagonal += 1
        if norm > 0:
            worst_margin = min(worst_margin, max_off / norm)
    measurements = {
        "nonzero_fields_passing": n_diagonal,
        "min_offdiag_over_norm": float(worst_margin),
    }
    return CheckReport("diagonal_dependence_scan", n_diagonal == 0, measurements)


def diagonal_dependence_scan(fields: list) -> CheckReport:
    """Count nonzero ensemble members passing the diagonal-dependence test."""
    return _diagonal_report([_diagonal_row(u) for u in fields])


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
    return _relative_max((du_dt - nu * laplacian(u) + nl).half, u.max_abs())


def compare_oracle(traj: Trajectory, nu: float) -> np.ndarray:
    """Relative L_2 error of each snapshot against the closed-form vortex.

    A vortex that has decayed to a zero norm (a huge nu t) raises SettingError on nu.
    """
    errors = []
    for t, u in zip(traj.times, traj.fields):
        exact = taylor_green(u.grid, nu, float(t))
        norm = spectral_l2_norm(exact)
        if norm == 0.0:
            raise SettingError("nu", f"{nu!r} decays the closed-form vortex to a zero L_2 norm "
                                     f"by t = {float(t)!r}, so no relative error can be read")
        errors.append(spectral_l2_norm(u - exact) / norm)
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
    window_reports: tuple  # adaptive_window attempts per amplitude


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
    searches = [adaptive_window(float(amp) * base_field, config) for amp in amplitudes]
    t_values = [t for t, _ in searches]
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(t_values, t_values[1:]))
    return TrendReport(tuple(zip(map(float, amplitudes), t_values)), nonincreasing,
                       tuple(attempts for _, attempts in searches))


# -- suite ------------------------------------------------------------------


@dataclass(frozen=True)
class VerifySettings:
    """Knobs for the full verification suite; defaults match the shipped gate. Its rules
    raise SettingError(key, message): finite tolerances and trajectory_amplitude > 0,
    ensemble_size >= 2, two or more distinct resolutions, and a suite trajectory of 1 to
    2**53 steps that keeps the 10 snapshots its Hoelder fits need. It builds what the suite
    runs, as attributes that are not fields: `ensemble`, its EnsembleSpec, and
    `trajectory_config`, the SolverConfig of every suite trajectory (ValueError on nu, p,
    trajectory_dt or trajectory_snapshot_every)."""

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

    def __post_init__(self) -> None:
        for key in ("tolerance_identity", "tolerance_gradient", "tolerance_energy_orth",
                    "tolerance_oracle", "trajectory_amplitude"):
            if not 0 < (value := getattr(self, key)) < np.inf:
                raise SettingError(key, f"must be finite and > 0, got {value!r}")
        if self.ensemble_size < 2:  # the suite advects field 0 by field 1
            raise SettingError("ensemble_size", f"must be >= 2, got {self.ensemble_size}")
        require_distinct_resolutions(self.resolutions)
        if len(self.resolutions) < 2:  # the advection-bound and Lipschitz checks compare two
            raise SettingError("resolutions",
                               f"must hold at least 2 entries, got {list(self.resolutions)}")
        span, dt, every = self.trajectory_t_end, self.trajectory_dt, self.trajectory_snapshot_every
        object.__setattr__(self, "trajectory_config",
                           SolverConfig(nu=self.nu, p=self.p, dt=dt, snapshot_every=every))
        object.__setattr__(self, "ensemble", EnsembleSpec(self.ensemble_size, self.seed,
                                                          self.dim, self.spectrum_decay))
        if (problem := span_problem(span, dt)) is not None:
            raise SettingError("trajectory_t_end", problem)
        steps, kept = march_schedule(span, dt, every)
        if kept < 10:
            raise SettingError("trajectory_t_end", f"{steps} steps of trajectory_dt, kept every "
                               f"{every}, give {kept} snapshots; the suite needs at least 10")


def _suite_trajectory(s: VerifySettings, seed: int, draw_n_modes: int, n_modes: int) -> Trajectory:
    """March a field drawn on the 2D grid of draw_n_modes, embedded into that of n_modes,
    with the suite's trajectory config."""
    u0 = random_divfree_field(make_grid(2, draw_n_modes), seed, s.trajectory_decay,
                              s.trajectory_amplitude)
    return march(embed(u0, make_grid(2, n_modes)), s.trajectory_config, s.trajectory_t_end)


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


def _ensemble_pass(s: VerifySettings) -> tuple:
    """The reports of the per-field checks, of the gradient-orthogonality probe of the
    advective image of fields 0 and 1, and of the diagonal scan, from one pass: field i is
    drawn from seed + i, handed to the body of each (members, body, fold) entry whose range
    holds it, and dropped; the entries' rows are folded in report order. Field 0 is held
    until the probe, which runs at field 1's turn before its bodies, so that no body runs
    beside a second field. The min(size, 20) projection-leak probes are drawn first."""
    grid = make_grid(s.dim, s.n_modes)
    size, tol = s.ensemble_size, s.tolerance_identity
    leaks = [_projection_leak(random_gradient_field(grid, s.seed + 5000 + i, s.spectrum_decay))
             for i in range(min(size, 20))]
    checks = [  # (members it takes, per-field body, fold of its rows), in report order
        (size, lambda u: _identity_row(u, s.lambdas, (0.1, 0.3), s.nu),
         lambda r: _identities_report(r, leaks, tol)),
        (size, lambda u: _resolvent_row(u, s.lambdas),
         lambda r: _resolvent_report(r, grid, s.lambdas, tol)),
        (size, lambda u: _semigroup_row(u, s.times, s.nu, (2.0, 4.0)),
         lambda r: _semigroup_report(r, tol)),
        (20, _composition_defect, lambda r: _composition_report(r, tol)),
        (20, _orthogonality_defect, lambda r: _orthogonality_report(r, s.tolerance_energy_orth)),
        (size, _gradient_identity_row,
         lambda r: _gradient_identity_report(r, s.tolerance_gradient)),
        (50, _diagonal_row, _diagonal_report),
    ]
    rows = [[] for _ in checks]
    for i in range(size):
        u = s.ensemble.field(grid, i)
        if i == 0:
            first = u
        elif i == 1:  # the probe, before field 1's bodies, which then run beside no field
            ortho = check_gradient_orthogonality(advect(first, u), n_test=20, seed=s.seed + 9000)
            del first
        for (count, body, _), out in zip(checks, rows):
            if i < count:
                out.append(body(u))
    *reports, diagonal = [fold(out) for (_, _, fold), out in zip(checks, rows)]
    # membership of advection images in the divergence-free subspace (measured)
    probe = CheckReport("gradient_orthogonality_advect", None,
                        {"max_normalized_inner_product": ortho},
                        notes="membership probe for advection images; measured only")
    return reports, probe, diagonal


class SuiteChildDied(RuntimeError):
    """The suite's child process ended without sending its reports (a signal, say the OOM
    killer's, or an exit), named by its wait status."""


def _run_child(write_fd: int, work, args) -> None:
    """The forked child: send (True, work(*args)) or (False, its exception) pickled, then
    leave by os._exit, running no atexit handler and flushing no inherited stdio buffer.

    A parent that is gone closed the pipe's read end: the write then fails at once (EPIPE)
    and the child still exits.
    """
    code = 1
    try:
        try:
            outcome = (True, work(*args))
            code = 0
        except BaseException as exc:  # an interrupt too: the parent raises it again
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:  # an exception that pickle cannot carry keeps its text
            data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(code)


@contextmanager
def _forked(work, *args):
    """Run work(*args) in a child process forked here, while the with-block runs in this one.

    The block gets `collect`: it waits for the child and returns work's result, or re-raises
    its exception, type and message, here. A child that ends without sending either raises
    SuiteChildDied. The child is reaped on every path: a block that leaves without
    collecting (its own exception) kills it first. Where os.fork does not exist, work runs
    inline before the block.
    """
    if not hasattr(os, "fork"):
        result = work(*args)
        yield lambda: result
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _run_child(write_fd, work, args)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    reaped = False

    def collect():
        nonlocal reaped
        data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if not data:
            status = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise SuiteChildDied(f"the suite's child process {pid} ended without its reports "
                                 f"({status})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield collect
    finally:
        pipe.close()
        if not reaped:
            from signal import SIGKILL  # imported on this failure path only

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _child_half(s: VerifySettings) -> list:
    """The reports that `run_verification_suite` takes from its child process, in report
    order: the four ensemble estimates, the Hoelder fit of a suite trajectory, the Lipschitz
    stability of the nonlinearity and the existence-window trend."""
    bilinear, half_half, upper, lower = ensemble_estimates(
        s.ensemble, [(0.0, 0.75, 0.75), (0.0, 0.5, 0.5)], 0.75, s.p, s.resolutions
    )
    reports = [
        CheckReport("advection_bound_estimate", bilinear.verdict == "bounded", asdict(bilinear)),
        CheckReport("advection_bound_half_half", None, asdict(half_half),
                    notes="measured only; boundedness not asserted"),
        CheckReport("norm_equivalence_upper", None, asdict(upper)),
        CheckReport("norm_equivalence_lower", None, asdict(lower)),
    ]

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


def run_verification_suite(settings: VerifySettings | None = None) -> list:
    """Run every check with the given settings; returns a list of CheckReports.

    The suite holds O(1) fields whatever the ensemble size: the per-field checks share one
    pass over the ensemble (`_ensemble_pass`), and the three ensemble estimates one pass
    over pairs (`ensemble_estimates`).

    The two halves share nothing and run on two processes (`_forked`): this process makes
    `_ensemble_pass` and the closed-form vortex oracle, while a child forked first makes
    `_child_half`. An exception in the child is re-raised here with its type and message;
    a child that dies without its reports raises SuiteChildDied; if this half raises, the
    child is killed. Either way the child is reaped before this returns or raises. A
    resident-memory peak read in this process (VmHWM, ru_maxrss) counts this half only.
    """
    s = settings or VerifySettings()
    with _forked(_child_half, s) as collect:
        reports, probe, diagonal = _ensemble_pass(s)
        residual, tg_err, _, _ = closed_form_vortex(32, s.nu, 1e-3, 0.25, 50, s.p)
        child = collect()
    oracle = CheckReport(
        "closed_form_vortex_oracle",
        residual <= s.tolerance_oracle and tg_err <= s.tolerance_oracle,
        {"equation_residual": residual, "march_error": tg_err, "tolerance": s.tolerance_oracle},
    )
    return reports + child[:4] + [oracle, probe, diagonal] + child[4:]
