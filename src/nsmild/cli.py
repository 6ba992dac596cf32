"""Command-line front end: run simulations, verify operator claims, estimate
constants, and compare against the closed-form vortex.

Configuration is one JSON document with blocks grid{}, solver{}, forcing{},
run{}, plus optional initial{}, verify{}, estimate{} and oracle{} blocks;
a key a block does not know is a config error.
Exit codes: 0 success, 1 usage/config error, 2 blow-up sentinel,
3 verification failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .grid import ForcingSpec, make_grid, random_divfree_field, zero_field
from .solver import SolverConfig, SolverError, march, picard_solve
from .verification import (
    VerifySettings,
    compare_oracle,
    estimate_bilinear_constant,
    estimate_norm_equivalence,
    EnsembleSpec,
    run_verification_suite,
    taylor_green,
    taylor_green_residual,
)
from .io import (
    RunManifest,
    write_diagnostics_csv,
    write_manifest,
    write_report_json,
    write_snapshot,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_VERIFY = 3
EXIT_SOLVER = 4


class ConfigError(Exception):
    """Raised with a field-path message when the config document is invalid."""


def _get(cfg: dict, path: str, default=None, required: bool = False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"{path}: missing required field")
            return default
        node = node[part]
    return node


def _convert(value, kind, path: str):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}") from exc


def _typed(cfg: dict, path: str, kind, default=None, required: bool = False):
    return _convert(_get(cfg, path, default=default, required=required), kind, path)


# The settings each block accepts; any other key is a config error, so a typo
# never runs silently with a default.
KNOWN_KEYS = {
    "grid": ("dim", "n_modes", "period"),
    "solver": ("nu", "p", "scheme", "dt", "window_T", "n_nodes", "picard_tol",
               "picard_max_iters", "dealias"),
    "forcing": ("kind", "seed", "amplitude", "decay", "exponent"),
    "initial": ("kind", "amplitude", "decay", "seed"),
    "run": ("t_end", "snapshot_every", "seed"),
    "verify": tuple(VerifySettings.__dataclass_fields__),
    "estimate": ("ensemble_size", "seed", "dim", "decay", "resolutions", "theta", "omega", "p"),
    "oracle": ("n_modes", "nu", "dt", "t_end", "snapshot_every", "tolerance"),
}


def _block(cfg: dict, name: str) -> dict:
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name}: must be an object")
    for key in block:
        if key not in KNOWN_KEYS[name]:
            raise ConfigError(f"{name}.{key}: unknown setting")
    return block


def _config_failure(message) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _check_t_end(path: str, t_end: float, dt: float) -> None:
    """The march from t = 0 needs a finite t_end that rounds to at least one step."""
    if not (np.isfinite(t_end) and t_end / dt > 0.5):
        raise ConfigError(
            f"{path}: must be finite and cover at least one step of dt = {dt}, got {t_end!r}"
        )


def _list_of(value, path: str, valid, what: str) -> tuple:
    if not (isinstance(value, (list, tuple)) and value and all(valid(x) for x in value)):
        raise ConfigError(f"{path}: expected a non-empty list of {what}, got {value!r}")
    return tuple(value)


def _resolutions(value, path: str) -> tuple:
    return _list_of(value, path, lambda n: type(n) is int and n >= 8 and n % 2 == 0,
                    "even integers >= 8")


def _random_field(grid, block: str, seed: int, decay: float, amplitude: float):
    try:
        return random_divfree_field(grid, seed, decay, amplitude)
    except ValueError as exc:  # the generator checks only the spectral decay
        raise ConfigError(f"{block}.decay: {exc}") from exc


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def build_grid(cfg: dict):
    dim = _typed(cfg, "grid.dim", int, required=True)
    n_modes = _typed(cfg, "grid.n_modes", int, required=True)
    period = _typed(cfg, "grid.period", float, default=2.0 * np.pi)
    try:
        return make_grid(dim, n_modes, period)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_forcing(cfg: dict, grid) -> ForcingSpec:
    kind = _get(cfg, "forcing.kind", default="zero")
    if kind == "zero":
        return ForcingSpec()
    seed = _typed(cfg, "forcing.seed", int, default=0)
    amplitude = _typed(cfg, "forcing.amplitude", float, default=1.0)
    decay = _typed(cfg, "forcing.decay", float, default=4.0)
    exponent = _typed(cfg, "forcing.exponent", float, default=1.0)
    base = _random_field(grid, "forcing", seed, decay, amplitude)
    try:
        return ForcingSpec(kind=kind, base_field=base, exponent=exponent)
    except ValueError as exc:
        raise ConfigError(f"forcing: {exc}") from exc


def build_solver_config(cfg: dict, grid, seed_override=None) -> SolverConfig:
    dealias = _get(cfg, "solver.dealias", default=True)
    if not isinstance(dealias, bool):
        raise ConfigError(f"solver.dealias: expected a boolean, got {dealias!r}")
    try:
        return SolverConfig(
            nu=_typed(cfg, "solver.nu", float, default=1.0),
            p=_typed(cfg, "solver.p", float, default=2.0),
            scheme=_get(cfg, "solver.scheme", default="exp_euler"),
            dt=_typed(cfg, "solver.dt", float, default=1e-3),
            window_T=_typed(cfg, "solver.window_T", float, default=0.1),
            n_nodes=_typed(cfg, "solver.n_nodes", int, default=33),
            picard_tol=_typed(cfg, "solver.picard_tol", float, default=1e-10),
            picard_max_iters=_typed(cfg, "solver.picard_max_iters", int, default=50),
            forcing=build_forcing(cfg, grid),
            dealias=dealias,
            snapshot_every=_typed(cfg, "run.snapshot_every", int, default=1),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def effective_seed(cfg: dict, seed_override=None) -> int:
    if seed_override is not None:
        return int(seed_override)
    return _typed(cfg, "run.seed", int, default=0)


def build_initial(cfg: dict, grid, seed: int):
    kind = _get(cfg, "initial.kind", default="random")
    if kind == "taylor_green":
        if grid.dim != 2:
            raise ConfigError("initial.kind: taylor_green requires grid.dim = 2")
        nu = _typed(cfg, "solver.nu", float, default=1.0)
        return taylor_green(grid, nu, 0.0)
    if kind == "zero":
        return zero_field(grid)
    if kind != "random":
        raise ConfigError(f"initial.kind: unknown kind {kind!r}")
    amplitude = _typed(cfg, "initial.amplitude", float, default=1.0)
    decay = _typed(cfg, "initial.decay", float, default=4.0)
    init_seed = _typed(cfg, "initial.seed", int, default=seed)
    return _random_field(grid, "initial", init_seed, decay, amplitude)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_run(config_path, out_dir, seed=None, quiet=False) -> int:
    """Run a simulation and write diagnostics.csv, snapshots, and manifest.json."""
    try:
        cfg = load_config(config_path)
        for name in ("grid", "solver", "forcing", "initial", "run"):
            _block(cfg, name)
        grid = build_grid(cfg)
        run_seed = effective_seed(cfg, seed)
        solver_cfg = build_solver_config(cfg, grid)
        u0 = build_initial(cfg, grid, run_seed)
        t_end = _typed(cfg, "run.t_end", float, required=True)
        _check_t_end("run.t_end", t_end, solver_cfg.dt)
    except ConfigError as exc:
        return _config_failure(exc)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = _utc_now()
    snapshots, outputs, solver_error = [], [], None

    def write(index: int, t: float, field) -> None:
        path = out / f"snapshot_{index:06d}.nsms"
        write_snapshot(path, field, float(t))
        snapshots.append(str(path))

    try:
        if solver_cfg.scheme == "picard_window":
            traj, _, _ = picard_solve(u0, solver_cfg)
            for index, (t, field) in enumerate(zip(traj.times, traj.fields)):
                write(index, t, field)
        else:
            # each snapshot is written as the march keeps it, so no field is held
            traj = march(u0, solver_cfg, t_end, sink=write)
    except SolverError as exc:
        iterations = len(getattr(exc, "residual_history", ()))
        solver_error = f"solver error: {type(exc).__name__} after {iterations} iterations"
        print(solver_error, file=sys.stderr)
    else:
        diag_path = out / "diagnostics.csv"
        write_diagnostics_csv(diag_path, traj)
        outputs = [str(diag_path)] + snapshots
    manifest = RunManifest(
        artifact_version=__version__,
        config=cfg,
        seed=run_seed,
        blowup=solver_error is None and traj.blowup,
        started_utc=started,
        finished_utc=_utc_now(),
        outputs=outputs,
        solver_error=solver_error,
    )
    write_manifest(out / "manifest.json", manifest)
    if solver_error is not None:
        return EXIT_SOLVER
    if not quiet:
        status = "blow-up" if traj.blowup else "ok"
        print(f"run {status}: {len(traj.times)} snapshots -> {out}")
    return EXIT_BLOWUP if traj.blowup else EXIT_OK


def _verify_settings(cfg: dict) -> VerifySettings:
    base = VerifySettings()
    overrides = {}
    for key, value in _block(cfg, "verify").items():
        path = f"verify.{key}"
        current = getattr(base, key)
        if key == "resolutions":
            overrides[key] = _resolutions(value, path)
        elif isinstance(current, tuple):
            overrides[key] = _list_of(value, path, lambda x: type(x) in (int, float), "numbers")
        else:
            overrides[key] = _convert(value, type(current), path)
    return replace(base, **overrides)


def cmd_verify(config_path, out_dir, seed=None, quiet=False) -> int:
    """Run the verification suite; exit 0 iff every asserted check passes."""
    try:
        cfg = load_config(config_path) if config_path else {}
        settings = _verify_settings(cfg)
        if seed is not None:
            settings = replace(settings, seed=int(seed))
    except ConfigError as exc:
        return _config_failure(exc)

    reports = run_verification_suite(settings)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(out / "report.json", reports)
    failed = []
    for r in reports:
        if r.passed is None:
            tag = "INFO"
        elif r.passed:
            tag = "PASS"
        else:
            tag = "FAIL"
            failed.append(r.name)
        if not quiet:
            print(f"{tag:4s} {r.name}")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    if not quiet:
        print(f"all asserted checks passed ({len(reports)} reports)")
    return EXIT_OK


def cmd_estimate(config_path, out_dir, seed=None, quiet=False) -> int:
    """Estimate the advection-bound and norm-equivalence constants."""
    try:
        cfg = load_config(config_path) if config_path else {}
        block = _block(cfg, "estimate")
        ens = EnsembleSpec(
            size=_typed(cfg, "estimate.ensemble_size", int, default=100),
            seed=seed if seed is not None else _typed(cfg, "estimate.seed", int, default=7),
            dim=_typed(cfg, "estimate.dim", int, default=3),
            spectrum_decay=_typed(cfg, "estimate.decay", float, default=4.0),
        )
        resolutions = _resolutions(block.get("resolutions", (16, 32)), "estimate.resolutions")
        theta = _typed(cfg, "estimate.theta", float, default=0.75)
        omega = _typed(cfg, "estimate.omega", float, default=0.75)
        p = _typed(cfg, "estimate.p", float, default=2.0)
    except ConfigError as exc:
        return _config_failure(exc)

    bilinear = estimate_bilinear_constant(ens, (0.0, theta, omega), p, resolutions)
    upper, lower = estimate_norm_equivalence(ens, p=p, resolutions=resolutions)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(out / "report.json", [bilinear, upper, lower])
    if not quiet:
        for rep in (bilinear, upper, lower):
            rows = ", ".join(f"N={n}: {r:.6g}" for n, r in rep.per_resolution)
            print(f"{rep.name}: {rep.verdict} ({rows})")
    return EXIT_OK


def cmd_oracle(config_path, out_dir, seed=None, quiet=False) -> int:
    """March the closed-form vortex and compare against its analytic decay."""
    try:
        cfg = load_config(config_path) if config_path else {}
        _block(cfg, "oracle")
        n_modes = _typed(cfg, "oracle.n_modes", int, default=64)
        nu = _typed(cfg, "oracle.nu", float, default=1.0)
        dt = _typed(cfg, "oracle.dt", float, default=1e-3)
        t_end = _typed(cfg, "oracle.t_end", float, default=1.0)
        snapshot_every = _typed(cfg, "oracle.snapshot_every", int, default=100)
        tolerance = _typed(cfg, "oracle.tolerance", float, default=1e-10)
        grid = make_grid(2, n_modes)
        config = SolverConfig(nu=nu, dt=dt, snapshot_every=snapshot_every)
        _check_t_end("oracle.t_end", t_end, dt)
    except ConfigError as exc:
        return _config_failure(exc)
    except (TypeError, ValueError) as exc:
        return _config_failure(f"oracle: {exc}")

    traj = march(taylor_green(grid, nu, 0.0), config, t_end)
    errors = compare_oracle(traj, nu)
    residual = max(taylor_green_residual(grid, nu, t) for t in (0.0, t_end / 2, t_end))
    max_err = float(np.max(errors))
    report = {
        "name": "closed_form_vortex",
        "passed": bool(max_err <= tolerance and residual <= tolerance),
        "measurements": {
            "max_relative_l2_error": max_err,
            "equation_residual": residual,
            "tolerance": tolerance,
            "errors": [float(e) for e in errors],
            "times": [float(t) for t in traj.times],
        },
        "notes": "",
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(out / "report.json", [report])
    if not quiet:
        print(f"oracle max relative error {max_err:.3e} (tolerance {tolerance:.1e})")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsmild",
        description="Spectral solver and verification harness for the "
        "divergence-free heat/advection system on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate an initial value problem"),
        ("verify", "run the verification suite"),
        ("estimate", "estimate bilinear and norm-equivalence constants"),
        ("oracle", "compare the solver against the closed-form vortex"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=(name == "run"), help="path to JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "verify": cmd_verify,
        "estimate": cmd_estimate,
        "oracle": cmd_oracle,
    }
    return handlers[args.command](args.config, args.out, args.seed, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
