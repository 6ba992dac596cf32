"""Command-line front end: run simulations, verify operator claims, estimate
constants, and compare against the closed-form vortex.

Configuration is one JSON document with blocks grid{}, solver{}, forcing{},
run{}, plus optional initial{}, verify{}, estimate{} and oracle{} blocks;
SCHEMA lists every key of every block, and anything else is a config error.
Exit codes: 0 success, 1 usage/config error, 2 blow-up sentinel,
3 verification failure, 4 solver failure, 5 the verification suite's child
process ended without its reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .grid import ForcingSpec, SpectralVectorField, make_grid, random_divfree_field, zero_field
from .solver import SolverConfig, SolverError, march, picard_solve, span_problem
from .verification import (
    CheckReport,
    EnsembleSpec,
    SettingError,
    SuiteChildDied,
    VerifySettings,
    closed_form_vortex,
    ensemble_estimates,
    require_distinct_resolutions,
    run_verification_suite,
    taylor_green,
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
EXIT_SUITE_CHILD = 5


class ConfigError(Exception):
    """Raised with a field-path message when the config document is invalid."""


REQUIRED = object()  # the default of a key that its block must give


def _number(v) -> bool:
    """A JSON number that converts to a finite float: not NaN, Infinity or 10**400."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


# kind -> (accepts the JSON value, what a message says was expected, converter);
# `int` takes JSON integers only, so 16.0, 16.7 and true are not an int
_KINDS = {
    "int": (lambda v: type(v) is int, "int", int),
    "float": (_number, "a finite float", float),
    "bool": (lambda v: type(v) is bool, "a boolean", bool),
    "str": (lambda v: type(v) is str, "str", str),
    "ints": (lambda v: type(v) is list and v and all(type(x) is int for x in v),
             "a non-empty list of integers", tuple),
    "floats": (lambda v: type(v) is list and v and all(_number(x) for x in v),
               "a non-empty list of finite numbers", tuple),
}


def _at_least(low):
    return (lambda x: x >= low, f">= {low}")


# range checks: (accepts a value or each entry of a list, what it must be)
_POSITIVE = (lambda x: 0 < x < np.inf, "finite and > 0")
_NONNEGATIVE = (lambda x: 0 <= x < np.inf, "finite and >= 0")
_DIM = (lambda d: d in (2, 3), "2 or 3")
_EVEN_N = (lambda n: n >= 8 and n % 2 == 0, "even and >= 8")
_UNIT = (lambda x: 0 < x <= 1, "in (0, 1]")
# a decay of the 2 pi box, where the envelope's largest value is 2 ** (-decay/2)
_DECAY = (lambda x: 0 < x < np.inf and 2.0 ** (-x / 2) > 0, "> 0 with 2 ** (-decay/2) > 0")


def _rows(cls, kinds: dict) -> dict:
    """Rows for the fields of dataclass `cls` named in `kinds`, with its defaults."""
    defaults = {f.name: f.default for f in fields(cls)}
    return {key: (kind, defaults[key], check) for key, (kind, check) in kinds.items()}


# SCHEMA[block][key] = (kind, default, range check or None). A range that the
# library checks when the command builds its objects (make_grid, SolverConfig,
# ForcingSpec, VerifySettings, the generators' decay) is left to the library.
SCHEMA = {
    "grid": {"dim": ("int", REQUIRED, None), "n_modes": ("int", REQUIRED, None),
             "period": ("float", 2.0 * np.pi, None)},
    "solver": _rows(SolverConfig, {
        "nu": ("float", None), "p": ("float", None), "scheme": ("str", None),
        "dt": ("float", None), "window_T": ("float", None), "n_nodes": ("int", None),
        "picard_tol": ("float", None), "picard_max_iters": ("int", None),
        "dealias": ("bool", None),
    }),
    "forcing": {"kind": ("str", "zero", None), "seed": ("int", 0, _at_least(0)),
                "amplitude": ("float", 1.0, None), "decay": ("float", 4.0, None),
                "exponent": ("float", 1.0, None)},
    "initial": {"kind": ("str", "random", None), "amplitude": ("float", 1.0, None),
                "decay": ("float", 4.0, None), "seed": ("int", None, _at_least(0))},
    "run": {"t_end": ("float", REQUIRED, None), "snapshot_every": ("int", 1, _at_least(1)),
            "seed": ("int", 0, _at_least(0))},
    "verify": _rows(VerifySettings, {
        "dim": ("int", _DIM), "n_modes": ("int", _EVEN_N), "nu": ("float", _POSITIVE),
        "p": ("float", _at_least(2)),
        "ensemble_size": ("int", None),
        "seed": ("int", _at_least(0)), "spectrum_decay": ("float", _DECAY),
        "lambdas": ("floats", _POSITIVE), "times": ("floats", _NONNEGATIVE),
        "resolutions": ("ints", _EVEN_N),
        "tolerance_identity": ("float", None), "tolerance_gradient": ("float", None),
        "tolerance_energy_orth": ("float", None), "tolerance_oracle": ("float", None),
        "trajectory_n_modes": ("int", _EVEN_N), "trajectory_dt": ("float", _POSITIVE),
        "trajectory_t_end": ("float", _POSITIVE),
        "trajectory_snapshot_every": ("int", _at_least(1)),
        "trajectory_amplitude": ("float", None), "trajectory_decay": ("float", _DECAY),
    }),
    "estimate": {"ensemble_size": ("int", 100, _at_least(1)), "seed": ("int", 7, _at_least(0)),
                 "dim": ("int", 3, _DIM), "decay": ("float", 4.0, _DECAY),
                 "resolutions": ("ints", (16, 32), _EVEN_N), "theta": ("float", 0.75, _UNIT),
                 "omega": ("float", 0.75, _UNIT), "p": ("float", 2.0, _at_least(2))},
    "oracle": {"n_modes": ("int", 64, _EVEN_N), "nu": ("float", 1.0, _POSITIVE),
               "dt": ("float", 1e-3, _POSITIVE), "t_end": ("float", 1.0, None),
               "snapshot_every": ("int", 100, _at_least(1)),
               "tolerance": ("float", 1e-10, _POSITIVE)},
}

# the keys that a kind reads, where it reads fewer than its block holds (`settings`)
_KIND_READS = {("initial", "taylor_green"): {"kind"}, ("initial", "zero"): {"kind"},
               ("forcing", "zero"): {"kind"},
               ("forcing", "steady"): {"kind", "seed", "amplitude", "decay"}}


def settings(cfg: dict, block: str) -> dict:
    """Every key of `block`: its value in `cfg`, checked against SCHEMA, or its default."""
    given = cfg.get(block, {})
    if not isinstance(given, dict):
        raise ConfigError(f"{block}: must be an object")
    values = {key: default for key, (_, default, _) in SCHEMA[block].items()}
    for key, value in given.items():
        path = f"{block}.{key}"
        if key not in values:
            raise ConfigError(f"{path}: unknown setting")
        kind, _, check = SCHEMA[block][key]
        accepts, expected, convert = _KINDS[kind]
        if not accepts(value):
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        entries = value if type(value) is list else [value]
        if check is not None and not all(check[0](x) for x in entries):
            raise ConfigError(f"{path}: must be {check[1]}, got {value!r}")
        values[key] = convert(value)
    for key, value in values.items():
        if value is REQUIRED:
            raise ConfigError(f"{block}.{key}: missing required field")
    reads = _KIND_READS.get((block, values.get("kind")), given)
    unread = [key for key in given if key not in reads]
    if unread:
        raise ConfigError(f"{block}.{unread[0]}: not read with {block}.kind {values['kind']!r}")
    return values


def _check_t_end(path: str, t_end: float, dt: float) -> None:
    problem = span_problem(t_end, dt)
    if problem is not None:
        raise ConfigError(f"{path}: {problem}")


def _random_field(grid, block: str, seed: int, decay: float, amplitude: float):
    try:
        return random_divfree_field(grid, seed, decay, amplitude)
    except ValueError as exc:  # the generator checks only the spectral decay
        raise ConfigError(f"{block}.decay: {exc}") from exc


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def build_grid(cfg: dict):
    try:
        return make_grid(**settings(cfg, "grid"))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_forcing(cfg: dict, grid) -> ForcingSpec:
    forcing = settings(cfg, "forcing")
    if forcing["kind"] == "zero":
        return ForcingSpec()
    base = _random_field(grid, "forcing", forcing["seed"], forcing["decay"], forcing["amplitude"])
    try:
        return ForcingSpec(kind=forcing["kind"], base_field=base, exponent=forcing["exponent"])
    except ValueError as exc:
        raise ConfigError(f"forcing: {exc}") from exc


def build_solver_config(cfg: dict, grid, snapshot_every: int) -> SolverConfig:
    solver = dict(settings(cfg, "solver"), forcing=build_forcing(cfg, grid),
                  snapshot_every=snapshot_every)
    try:
        return SolverConfig(**solver)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def build_initial(cfg: dict, grid, seed: int, nu: float):
    initial = settings(cfg, "initial")
    kind = initial["kind"]
    if kind == "taylor_green":
        try:
            return taylor_green(grid, nu, 0.0)
        except ValueError as exc:  # it is defined on the 2D 2 pi box only
            raise ConfigError(f"initial.kind: taylor_green: {exc}") from exc
    if kind == "zero":
        return zero_field(grid)
    if kind != "random":
        raise ConfigError(f"initial.kind: unknown kind {kind!r}")
    init_seed = seed if initial["seed"] is None else initial["seed"]
    return _random_field(grid, "initial", init_seed, initial["decay"], initial["amplitude"])


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _out_dir(out) -> Path:
    """Make the --out directory: each command's first step after its config checks."""
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at out or above it, or no permission
        raise ConfigError(f"--out: {exc}") from exc
    return out


def cmd_run(config, out, seed=None, quiet=False) -> int:
    """Run a simulation and write diagnostics.csv, snapshots, and manifest.json."""
    cfg = load_config(config)
    grid = build_grid(cfg)
    run = settings(cfg, "run")
    run_seed = run["seed"] if seed is None else seed
    solver_cfg = build_solver_config(cfg, grid, run["snapshot_every"])
    u0 = build_initial(cfg, grid, run_seed, solver_cfg.nu)
    t_end = run["t_end"]
    if solver_cfg.scheme == "exp_euler":
        _check_t_end("run.t_end", t_end, solver_cfg.dt)
    elif t_end != solver_cfg.window_T:  # the Picard window never uses solver.dt
        raise ConfigError(f"run.t_end: must equal solver.window_T = {solver_cfg.window_T} "
                          f"with scheme picard_window, got {t_end!r}")

    out = _out_dir(out)
    started = _utc_now()
    snapshots, outputs, solver_error = [], [], None

    def write(index: int, t: float, half) -> None:
        path = out / f"snapshot_{index:06d}.nsms"
        write_snapshot(path, SpectralVectorField(grid, half), float(t))  # a view of half
        snapshots.append(str(path))

    try:
        if solver_cfg.scheme == "picard_window":
            traj, _, _ = picard_solve(u0, solver_cfg)
            for index, (t, field) in enumerate(zip(traj.times, traj.fields)):
                write(index, t, field.half)
        else:
            # each snapshot is written from the half state as the march keeps it,
            # so no field is held or mirrored
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


_TAGS = {None: "INFO", True: "PASS", False: "FAIL"}


def cmd_verify(config, out, seed=None, quiet=False) -> int:
    """Run the verification suite; exit 0 iff every asserted check passes."""
    values = settings(load_config(config) if config else {}, "verify")
    if seed is not None:
        values["seed"] = seed
    suite = VerifySettings(**values)  # its cross-field rules raise SettingError before --out
    out = _out_dir(out)
    reports = run_verification_suite(suite)
    write_report_json(out / "report.json", reports)
    if not quiet:
        for r in reports:
            print(f"{_TAGS[r.passed]:4s} {r.name}")
    failed = [r.name for r in reports if r.passed is not None and not r.passed]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    if not quiet:
        print(f"all asserted checks passed ({len(reports)} reports)")
    return EXIT_OK


def cmd_estimate(config, out, seed=None, quiet=False) -> int:
    """Estimate the advection-bound and norm-equivalence constants."""
    est = settings(load_config(config) if config else {}, "estimate")
    require_distinct_resolutions(est["resolutions"])  # ensemble_estimates' rule, before --out
    ens_seed = est["seed"] if seed is None else seed
    ens = EnsembleSpec(est["ensemble_size"], ens_seed, est["dim"], est["decay"])
    p, resolutions = est["p"], est["resolutions"]
    triple = (0.0, est["theta"], est["omega"])
    out = _out_dir(out)
    bilinear, upper, lower = ensemble_estimates(ens, [triple], 0.75, p, resolutions)
    write_report_json(out / "report.json", [bilinear, upper, lower])
    if not quiet:
        for rep in (bilinear, upper, lower):
            rows = ", ".join(f"N={n}: {r:.6g}" for n, r in rep.per_resolution)
            print(f"{rep.name}: {rep.verdict} ({rows})")
    return EXIT_OK


def cmd_oracle(config, out, quiet=False) -> int:
    """March the closed-form vortex and compare against its analytic decay."""
    o = settings(load_config(config) if config else {}, "oracle")
    _check_t_end("oracle.t_end", o["t_end"], o["dt"])
    out = _out_dir(out)
    residual, max_err, errors, times = closed_form_vortex(
        o["n_modes"], o["nu"], o["dt"], o["t_end"], o["snapshot_every"]
    )
    tolerance = o["tolerance"]
    report = CheckReport(
        "closed_form_vortex",
        bool(max_err <= tolerance and residual <= tolerance),
        {
            "max_relative_l2_error": max_err,
            "equation_residual": residual,
            "tolerance": tolerance,
            "errors": [float(e) for e in errors],
            "times": [float(t) for t in times],
        },
    )
    write_report_json(out / "report.json", [report])
    if not quiet:
        print(f"oracle max relative error {max_err:.3e} (tolerance {tolerance:.1e})")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _seed(text: str) -> int:
    """--seed: decimal digits only, so a negative or non-integer seed is a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsmild",
        description="Spectral solver and verification harness for the "
        "divergence-free heat/advection system on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {}
    for name, handler, help_text in (
        ("run", cmd_run, "integrate an initial value problem"),
        ("verify", cmd_verify, "run the verification suite"),
        ("estimate", cmd_estimate, "estimate bilinear and norm-equivalence constants"),
        ("oracle", cmd_oracle, "compare the solver against the closed-form vortex"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=(name == "run"), help="path to JSON config")
        p.add_argument("--out", required=True, help="output directory")
        if name != "oracle":  # the closed-form vortex has no random input
            p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")
        handlers[name] = handler
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    command = args.pop("command")
    try:
        return handlers[command](**args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SettingError as exc:  # a key of the command's block (verify{}, ...) the library rejects
        print(f"config error: {command}.{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid or Picard window too large for this machine
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SuiteChildDied as exc:
        print(f"suite error: {exc}", file=sys.stderr)
        return EXIT_SUITE_CHILD


if __name__ == "__main__":
    sys.exit(main())
