"""Time integration of the projected equations in mild (integral) form.

Two realizations of the same integral equation

    u(t) = exp(nu t Lap) u0 + int_0^t exp(nu (t - s) Lap) (F(u(s)) + P f(s)) ds

are provided: a Picard fixed-point iteration on a window [0, window_T] that
mirrors the local-existence construction, and exponential-Euler marching,
the one-node collapse of the integral. Heat factors are exact Fourier
multipliers, so stiffness never limits the step; the Picard trapezoid sum
applies the factor of lag d as the d-th power of the one-node factor.

Both solvers carry only the half spectrum that fixes the real field u: states, F,
the symbols and the forcing. Every operation of a step is modewise, so the half
evolves exactly as the first n/2+1 last-axis columns of a full-lattice state would.
Fields enter and leave as `SpectralVectorField`, which stores the same half, so no
full lattice is formed.

`march` evaluates F(u) = -P (u . grad) u once per state: the same array
feeds the diagnostics of a snapshot and the step that leaves it, which forms
its right-hand side in F's buffer and the new state in the old state's; its
|u|^2 half sum, taken once, feeds the blow-up check (on the 2 pi box) and a
kept row's energy. The step symbols are built once per march; `exp_euler_step`
is one `_step` of a field.
Energies are weighted half sums; at p = 2 the diagnostics norms are Parseval sums.
Inside the solvers F is evaluated by `projected_nonlinearity`, without the
input checks of `nonlinear_F`. The mean-zero divergence-free invariant is
owned where it enters: `prepare_initial` validates u0 and zeroes its mean
mode, the kernel pins F's, and `ForcingSpec.projected` is the half of P f0 with
its mean mode zeroed, so every later state is divergence-free with a mean mode
of exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .grid import (
    DIV_TOL,
    TWO_PI,
    ForcingSpec,
    SpectralVectorField,
    TorusGrid,
    _half_sum,
    _irfft,
    _require_mean_zero,
    _require_same_grid,
)
from .operators import (
    _lp,
    _phi1_of,
    energy,
    enstrophy,
    max_pointwise_divergence,
    nonlinear_F,
    projected_nonlinearity,
)

BLOWUP_NORM = 1e8  # of the L_2 norm on the 2 pi box


class SolverError(Exception):
    """Base class for solver failures."""


class FieldBlowup(SolverError):
    """A step produced non-finite coefficients."""


class NotContracting(SolverError):
    """Picard residuals failed to decrease for three consecutive iterations."""

    def __init__(self, residual_history):
        super().__init__(f"fixed-point iteration not contracting: {residual_history}")
        self.residual_history = list(residual_history)


class MaxIters(SolverError):
    """Picard iteration hit the iteration cap before reaching tolerance."""

    def __init__(self, residual_history):
        super().__init__(f"fixed-point iteration did not converge: {residual_history}")
        self.residual_history = list(residual_history)


@dataclass(frozen=True)
class SolverConfig:
    """Scheme selection and numerical parameters shared by both solvers."""

    nu: float = 1.0
    p: float = 2.0
    scheme: str = "exp_euler"
    dt: float = 1e-3
    window_T: float = 0.1
    n_nodes: int = 33
    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    dealias: bool = True
    snapshot_every: int = 1

    def __post_init__(self) -> None:
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not self.p >= 2.0:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.scheme not in ("exp_euler", "picard_window"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.window_T > 0:
            raise ValueError(f"window_T must be positive, got {self.window_T}")
        if self.n_nodes < 3:
            raise ValueError(f"n_nodes must be >= 3, got {self.n_nodes}")
        if not self.picard_tol > 0:
            raise ValueError(f"picard_tol must be positive, got {self.picard_tol}")
        if self.picard_max_iters < 1:
            raise ValueError(f"picard_max_iters must be >= 1, got {self.picard_max_iters}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")


@dataclass(frozen=True)
class DiagnosticsRow:
    time: float
    energy: float
    enstrophy: float
    max_div: float
    norm_x_half: float
    norm_f: float


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of the evolving field plus per-snapshot diagnostics.

    `fields` is empty when the snapshots went to a sink instead (`march`).
    """

    times: np.ndarray
    fields: tuple
    diagnostics: tuple
    blowup: bool = False

    def __post_init__(self) -> None:
        n = len(self.times)
        if len(self.diagnostics) != n or len(self.fields) not in (0, n):
            raise ValueError("times, diagnostics and any kept fields must have equal length")
        if len(self.times) >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def final_field(self) -> SpectralVectorField:
        return self.fields[-1]

    def validate(self) -> None:
        """Assert the stored-field invariants: divergence-free, mean-zero."""
        for t, u in zip(self.times, self.fields):
            if u.divergence_defect() > DIV_TOL:
                raise AssertionError(f"field at t={t} violates divergence tolerance")
            if np.any(u.mean_mode() != 0):
                raise AssertionError(f"field at t={t} has a nonzero mean mode")


def compute_diagnostics(u: SpectralVectorField, t: float, config: SolverConfig) -> DiagnosticsRow:
    """One diagnostics row of u, with F(u) evaluated by `nonlinear_F`.

    At p = 2 the norms are Parseval sums, sqrt(enstrophy) and sqrt(energy(F)),
    within 1e-14 relative of collocation; other p take the quadrature."""
    F = nonlinear_F(u, apply_dealias=config.dealias)
    return _row(u.grid, u.half, t, config, F.half)


def _row(grid: TorusGrid, u: np.ndarray, t: float, config: SolverConfig,
         F: np.ndarray, u_sum: float | None = None) -> DiagnosticsRow:
    """`compute_diagnostics` of the halves of u and F = F(u), u_sum (taken if None) u's
    |u|^2 half sum; at p != 2 the norms are those of `frac_norm` and `lp_norm`, bit for bit."""
    if u_sum is None:
        u_sum = _half_sum(np.abs(u) ** 2, grid)
    field = SpectralVectorField(grid, u)  # a view: the constructor does not copy a half
    enstrophy_u = enstrophy(field)
    if config.p == 2.0:
        norms = float(np.sqrt(enstrophy_u)), float(np.sqrt(energy(SpectralVectorField(grid, F))))
    else:
        x_half = _irfft(u * np.sqrt(grid.k_sq_half), grid, overwrite=True)
        norms = float(_lp(x_half, grid, config.p)), float(_lp(_irfft(F, grid), grid, config.p))
    return DiagnosticsRow(float(t), grid.volume * u_sum, enstrophy_u,
                          max_pointwise_divergence(field), *norms)


def prepare_initial(u0: SpectralVectorField) -> SpectralVectorField:
    """Validate and normalize solver input: divergence-free, exactly mean-zero."""
    if u0.divergence_defect() > DIV_TOL:
        raise ValueError("initial field must be divergence-free")
    _require_mean_zero(u0, "the solver")
    half = u0.half.copy()
    half[(slice(None),) + (0,) * u0.grid.dim] = 0.0
    return SpectralVectorField(u0.grid, half)


def _step_symbols(grid: TorusGrid, config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """(heat, h_phi1) = (exp(-nu h |k|^2), h phi1(-nu h |k|^2)) on the half spectrum,
    after checking that config's forcing lives on `grid`."""
    if config.forcing.projected is not None:
        _require_same_grid(config.forcing.base_field.grid, grid)
    z = -config.nu * config.dt * grid.k_sq_half
    return np.exp(z), config.dt * _phi1_of(z)


def _step(u: np.ndarray, F: np.ndarray, t_m: float, config: SolverConfig,
          heat: np.ndarray, h_phi1: np.ndarray) -> None:
    """u <- heat u + h_phi1 (F + a(t_m) P f) in place, on the half spectrum;
    bit-equal to the plain expression, as IEEE addition commutes."""
    amplitude = config.forcing.amplitude(t_m)
    if amplitude is not None:
        F += np.multiply(amplitude, config.forcing.projected)
    F *= h_phi1
    u *= heat
    u += F


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite step raises
def exp_euler_step(u_m: SpectralVectorField, t_m: float, config: SolverConfig
                   ) -> SpectralVectorField:
    """One exponential-Euler step of size config.dt, as `march` takes it.

    u_{m+1} = exp(h nu Lap) u_m + h phi1(h nu Lap) [F(u_m) + P f(t_m)].
    u_m is checked and F evaluated by `nonlinear_F`. Raises FieldBlowup when
    the result is not finite.
    """
    symbols = _step_symbols(u_m.grid, config)
    F = nonlinear_F(u_m, apply_dealias=config.dealias).half
    u_next = SpectralVectorField(u_m.grid, u_m.half.copy())
    _step(u_next.half, F, t_m, config, *symbols)
    if not u_next.is_finite():
        raise FieldBlowup(f"non-finite field after step at t={t_m}")
    return u_next


def march_schedule(span: float, dt: float, every: int) -> tuple[int, int]:
    """(steps, kept) of a `march` over span: span/dt steps of dt, rounded, keeping
    the state of every `every`-th step and of the last."""
    steps = int(round(span / dt))
    return steps, -(-steps // every) + 1


def span_problem(t_end: float, dt: float) -> str | None:
    """Why a march from t = 0 cannot end at t_end, or None. It needs t_end to round
    to 1 to 2**53 steps of dt: past 2**53 steps, t = m * dt can repeat a time."""
    if not t_end / dt > 0.5:  # exactly when round(t_end / dt) < 1, or t_end is NaN
        return f"must cover at least one step of dt = {dt}, got {t_end}"
    if t_end / dt > 2**53:  # exactly when round(t_end / dt) > 2**53, or t_end is inf
        return f"must cover at most 2**53 steps of dt = {dt}, got {t_end}"
    return None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a runaway state sets blowup
def march(
    u0: SpectralVectorField,
    config: SolverConfig,
    t_end: float,
    sink: Callable[[int, float, np.ndarray], None] | None = None,
) -> Trajectory:
    """Repeated exponential-Euler stepping from 0 to t_end.

    t_end is rounded to the nearest multiple of dt, which must be 1 to 2**53
    steps (`span_problem`; else ValueError). Snapshots are kept every
    config.snapshot_every steps plus the final state. A stepped state whose L_2 norm on the
    2 pi box tops BLOWUP_NORM is kept; it or a non-finite one stops the march early and sets
    the blowup flag, not raising.

    Without a sink the kept states are copied into `Trajectory.fields`. With
    one, each kept state goes to sink(index, t, half) as soon as it is kept, `half`
    its contiguous half spectrum, and the trajectory has `fields=()`, so memory
    holds O(1) fields however long the march is. `half` is the state buffer that
    the next step overwrites: a sink that keeps it must copy it.
    """
    problem = span_problem(t_end, config.dt)
    if problem is not None:
        raise ValueError(f"t_end {problem}")
    n_steps, _ = march_schedule(t_end, config.dt, config.snapshot_every)
    grid = u0.grid
    u = prepare_initial(u0).half  # a fresh copy, stepped in place

    symbols = _step_symbols(grid, config)
    times, fields, diags = [], [], []
    blowup = False
    for m in range(n_steps + 1):
        # F(u) of every state: the step that leaves it needs it, or the final snapshot
        F = projected_nonlinearity(grid, u, config.dealias)
        t_m = m * config.dt
        u_sum = _half_sum(np.abs(u) ** 2, grid)
        blowup = m > 0 and bool(np.sqrt(TWO_PI**grid.dim * u_sum) > BLOWUP_NORM)
        if blowup or m % config.snapshot_every == 0 or m == n_steps:  # as march_schedule counts
            diags.append(_row(grid, u, t_m, config, F, u_sum))
            if sink is None:
                fields.append(SpectralVectorField(grid, u.copy()))
            else:
                sink(len(times), t_m, u)
            times.append(t_m)
        if blowup or m == n_steps:
            break
        _step(u, F, t_m, config, *symbols)
        del F  # dead once stepped: the next state's F is formed without it
        if not np.isfinite(u.view(np.float64)).all():
            blowup = True
            break
    return Trajectory(np.asarray(times), tuple(fields), tuple(diags), blowup=blowup)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a runaway iterate: NotContracting
def picard_solve(
    u0: SpectralVectorField, config: SolverConfig
) -> tuple[Trajectory, int, list]:
    """Fixed-point iteration for the integral equation on [0, window_T].

    The window has config.n_nodes uniform nodes; an iterate is one array of
    the nodes' half spectra, and F of nodes 1.. is one kernel call, as is F of the
    converged window's kept nodes for their diagnostics. Node 0 stays u0, so the
    iterations evaluate its F once. P f is added node by node, and the kept nodes are
    copied out.
    The time integral uses the trapezoidal rule in s, applied by the recurrence
    S_j = E (S_{j-1} + (h/2) g_{j-1}) + (h/2) g_j with E = exp(-nu h |k|^2), so
    the heat factor of lag d is E^d.
    The first iterate is the heat flow of u0, and the update is repeated
    until the maximum nodewise change, measured in the alpha = 1/2
    fractional norm, drops below picard_tol.

    Raises NotContracting after three consecutive non-decreasing residuals
    (a non-finite residual fails immediately) and MaxIters when the cap is
    reached. Returns (trajectory, iterations, residual history); like `march`,
    the trajectory keeps every config.snapshot_every-th node and the last.
    """
    u0 = prepare_initial(u0)
    grid = u0.grid
    n = config.n_nodes
    h = config.window_T / (n - 1)
    times = h * np.arange(n)
    k_sq = grid.k_sq_half
    lags = np.arange(n).reshape((n,) + (1,) * grid.dim)
    E = np.exp(-config.nu * h * lags * k_sq)  # E[d] = exp(-nu d h |k|^2), lag d's factor
    heat_flow = u0.half * E[:, np.newaxis]
    forcing = config.forcing
    if forcing.projected is not None:
        _require_same_grid(forcing.base_field.grid, grid)
    symbol = np.sqrt(k_sq)  # (-Lap)^(1/2), the residual's alpha = 1/2

    current = heat_flow
    residual_history: list = []
    bad_streak = 0
    F0 = projected_nonlinearity(grid, u0.half, config.dealias)
    for iteration in range(1, config.picard_max_iters + 1):
        g = np.concatenate([F0[np.newaxis],  # node 0 is u0 in every iterate, so its F is F0
                            projected_nonlinearity(grid, current[1:], config.dealias)])
        if forcing.projected is not None:  # node by node: no stack of n copies of P f
            for g_j, t in zip(g, times):
                g_j += forcing.amplitude(t) * forcing.projected
        half_hg = np.multiply(0.5 * h, g, out=g)
        new = heat_flow.copy()
        S = np.zeros_like(F0)
        for j in range(1, n):  # S = E[1] * (S + half_hg[j - 1]) + half_hg[j], in place
            S += half_hg[j - 1]
            np.multiply(E[1], S, out=S)
            S += half_hg[j]
            new[j] += S
        diff = new - current
        if np.isfinite(diff).all():  # its mean mode is 0, as u0's, F's and P f's are
            diff *= symbol
            residual = float(np.max(_lp(_irfft(diff, grid, overwrite=True), grid, config.p)))
        else:
            residual = float("inf")
        residual_history.append(residual)
        current = new
        if not np.isfinite(residual):
            raise NotContracting(residual_history)
        if residual < config.picard_tol:
            kept = [j for j in range(n) if j % config.snapshot_every == 0 or j == n - 1]
            nodes = current[kept]
            F = projected_nonlinearity(grid, nodes, config.dealias)  # of the kept nodes only
            diags = tuple(_row(grid, u, t, config, g) for u, t, g in zip(nodes, times[kept], F))
            fields = tuple(SpectralVectorField(grid, u) for u in nodes)
            return Trajectory(times[kept], fields, diags), iteration, residual_history
        worse = len(residual_history) >= 2 and residual >= residual_history[-2]
        bad_streak = bad_streak + 1 if worse else 0
        if bad_streak >= 3:
            raise NotContracting(residual_history)
    raise MaxIters(residual_history)


@dataclass(frozen=True)
class WindowAttempt:
    window: float
    converged: bool
    iterations: int
    reason: str


def adaptive_window(
    u0: SpectralVectorField, config: SolverConfig
) -> tuple[float, tuple]:
    """Shrink the Picard window by halving until the iteration converges.

    Starts from config.window_T; 20 halvings without convergence yield
    t_star = 0.0. Failure is encoded in the attempts, never raised.
    """
    attempts = []
    T = config.window_T
    for _ in range(21):
        # the search reads no trajectory, so each solve keeps the window's two end nodes only
        cfg = replace(config, window_T=T, snapshot_every=config.n_nodes - 1)
        try:
            _, iterations, _ = picard_solve(u0, cfg)
            attempts.append(WindowAttempt(T, True, iterations, "converged"))
            return T, tuple(attempts)
        except (NotContracting, MaxIters) as exc:
            attempts.append(
                WindowAttempt(T, False, len(exc.residual_history), type(exc).__name__)
            )
            T /= 2.0
    return 0.0, tuple(attempts)
