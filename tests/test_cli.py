"""Command-line interface: configs, persistence formats, exit codes."""

import csv
import dataclasses
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nsmild import cli, make_grid, random_divfree_field, verification
from nsmild.cli import (
    SCHEMA,
    build_grid,
    build_initial,
    build_solver_config,
    load_config,
    main,
)
from nsmild.grid import inverse_transform
from nsmild.io import (
    _HEADER,
    SNAPSHOT_MAGIC,
    read_snapshot,
    write_diagnostics_csv,
    write_snapshot,
)
from nsmild.solver import march, picard_solve
from nsmild.verification import VerifySettings


def write_config(path, doc):
    Path(path).write_text(json.dumps(doc))
    return str(path)


def taylor_green_config(tmp_path, t_end=0.1, n_modes=32, snapshot_every=10):
    return write_config(
        tmp_path / "config.json",
        {
            "grid": {"dim": 2, "n_modes": n_modes, "period": 2 * np.pi},
            "solver": {"nu": 1.0, "p": 2.0, "scheme": "exp_euler", "dt": 1e-3},
            "forcing": {"kind": "zero"},
            "initial": {"kind": "taylor_green"},
            "run": {"t_end": t_end, "snapshot_every": snapshot_every, "seed": 0},
        },
    )


def read_diagnostics(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_taylor_green_energy_column(self, tmp_path):
        config = taylor_green_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
        rows = read_diagnostics(out / "diagnostics.csv")
        assert len(rows) >= 10
        for row in rows:
            t = float(row["time"])
            expected = 2 * np.pi**2 * np.exp(-4.0 * t)
            assert abs(float(row["energy"]) - expected) <= 1e-8 * expected
        manifest = json.loads((out / "manifest.json").read_text())
        for path in manifest["outputs"]:
            assert Path(path).exists()

    def test_zero_initial_all_zero_diagnostics(self, tmp_path):
        config = write_config(
            tmp_path / "zero.json",
            {
                "grid": {"dim": 2, "n_modes": 16},
                "solver": {"dt": 1e-2},
                "initial": {"kind": "zero"},
                "run": {"t_end": 0.05, "snapshot_every": 1, "seed": 0},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
        for row in read_diagnostics(out / "diagnostics.csv"):
            assert float(row["energy"]) == 0.0
            assert float(row["norm_F"]) == 0.0

    def test_malformed_config_exits_1_no_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out), "--quiet"]) == 1
        assert not out.exists()

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {bad}: 'utf-8' codec can't")
        assert err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        out = tmp_path / "out"
        assert main(["run", "--config", str(missing), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {missing}: ")
        assert "Traceback" not in err and not out.exists()

    def test_non_object_config_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path / "list.json", [1, 2])
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {config}: top level must be a JSON object\n"
        assert not out.exists()

    def test_missing_field_named_in_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "incomplete.json",
            {"grid": {"dim": 2, "n_modes": 16}, "run": {"seed": 0}},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "run.t_end" in err
        assert not out.exists()

    def test_invalid_solver_value_named(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "badnu.json",
            {
                "grid": {"dim": 2, "n_modes": 16},
                "solver": {"nu": -1.0},
                "run": {"t_end": 0.1, "seed": 0},
            },
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert "solver" in capsys.readouterr().err

    def test_blowup_exit_code(self, tmp_path):
        config = write_config(
            tmp_path / "blow.json",
            {
                "grid": {"dim": 2, "n_modes": 16},
                "solver": {"nu": 1e-6, "dt": 0.1},
                "initial": {"kind": "random", "amplitude": 1e7},
                "run": {"t_end": 1.0, "snapshot_every": 1, "seed": 3},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blowup"] is True

    def test_large_3d_period_is_no_blowup(self, tmp_path):
        # the physical energy overflows to inf at period 1e100; the sentinel reads the
        # coefficients' norm on the 2 pi box, about 1e4, so all three states are kept
        config = write_config(
            tmp_path / "big.json",
            {
                "grid": {"dim": 3, "n_modes": 16, "period": 1e100},
                "initial": {"amplitude": 1e4},
                "run": {"t_end": 0.002},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "manifest.json").read_text())["blowup"] is False
        with open(out / "diagnostics.csv") as f:
            assert len(list(csv.DictReader(f))) == 3

    def test_picard_scheme_runs(self, tmp_path):
        config = write_config(
            tmp_path / "picard.json",
            {
                "grid": {"dim": 2, "n_modes": 16},
                "solver": {"scheme": "picard_window", "window_T": 0.1, "n_nodes": 11},
                "initial": {"kind": "random", "amplitude": 0.1},
                "run": {"t_end": 0.1, "seed": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
        assert (out / "diagnostics.csv").exists()


    def test_picard_window_shorter_than_dt(self, tmp_path):
        """The window is checked against solver.window_T, never against solver.dt."""
        config = write_config(
            tmp_path / "short.json",
            {
                "grid": {"dim": 2, "n_modes": 16},
                "solver": {"scheme": "picard_window", "window_T": 4e-4, "n_nodes": 9},
                "run": {"t_end": 4e-4, "seed": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
        assert len(read_diagnostics(out / "diagnostics.csv")) == 9

    def test_picard_honours_snapshot_every(self, tmp_path):
        """snapshot_every 4 on 9 nodes keeps nodes 0, 4 and 8, as march keeps steps."""
        outputs = {}
        for every in (1, 4):
            config = write_config(
                tmp_path / f"every{every}.json",
                {
                    "grid": {"dim": 2, "n_modes": 16},
                    "solver": {"scheme": "picard_window", "window_T": 0.1, "n_nodes": 9},
                    "forcing": {"kind": "steady", "seed": 2},
                    "run": {"t_end": 0.1, "snapshot_every": every, "seed": 5},
                },
            )
            out = outputs[every] = tmp_path / f"out{every}"
            assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
        all_nodes = (outputs[1] / "diagnostics.csv").read_text().splitlines()
        kept = (outputs[4] / "diagnostics.csv").read_text().splitlines()
        assert kept == [all_nodes[0]] + [all_nodes[1 + j] for j in (0, 4, 8)]
        for index, node in enumerate((0, 4, 8)):
            name = f"snapshot_{index:06d}.nsms"
            assert (outputs[4] / name).read_bytes() == (
                outputs[1] / f"snapshot_{node:06d}.nsms").read_bytes()
        assert not (outputs[4] / "snapshot_000003.nsms").exists()

    def test_nonfinite_step_keeps_one_state_and_exits_2(self, tmp_path):
        config = write_config(
            tmp_path / "huge.json",
            {"grid": {"dim": 2, "n_modes": 16}, "initial": {"amplitude": 1e200},
             "run": {"t_end": 0.01, "seed": 1}},
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 2
        assert len(read_diagnostics(out / "diagnostics.csv")) == 1
        assert json.loads((out / "manifest.json").read_text())["blowup"] is True

    def test_overflowing_march_exits_2_without_numpy_warnings(self, tmp_path):
        config = write_config(
            tmp_path / "huge.json",
            {"grid": {"dim": 2, "n_modes": 16}, "initial": {"amplitude": 1e200},
             "run": {"t_end": 0.01}},
        )
        out = tmp_path / "out"
        done = run_module(["run", "--config", config, "--out", str(out), "--quiet"])
        assert done.returncode == 2
        assert "RuntimeWarning" not in done.stderr
        assert (out / "diagnostics.csv").read_text().splitlines()[1:] == [
            "0,inf,inf,4.5489064423857885e+183,inf,nan"
        ]

    def test_nonfinite_picard_residual_exits_4(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "huge.json",
            {"grid": {"dim": 2, "n_modes": 16},
             "solver": {"scheme": "picard_window", "window_T": 0.1, "n_nodes": 9},
             "initial": {"amplitude": 1e200}, "run": {"t_end": 0.1, "seed": 1}},
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 4
        assert capsys.readouterr().err == "solver error: NotContracting after 1 iterations\n"

    def test_picard_failure_exits_4_with_manifest(self, tmp_path, capsys):
        config = picard_failure_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 4
        line = capsys.readouterr().err.strip()
        assert line.startswith("solver error: NotContracting after ")
        assert line.endswith(" iterations") and "Traceback" not in line
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver_error"] == line
        assert manifest["outputs"] == [] and manifest["blowup"] is False
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("value", ["false", 0])
    def test_dealias_must_be_boolean(self, tmp_path, capsys, value):
        config = write_config(
            tmp_path / "dealias.json",
            {
                "grid": {"dim": 2, "n_modes": 16},
                "solver": {"dealias": value},
                "run": {"t_end": 0.01, "seed": 0},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 1
        assert f"solver.dealias: expected a boolean, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_dealias_false_turns_dealiasing_off(self, tmp_path):
        norm_f = {}
        for value in (True, False):
            config = write_config(
                tmp_path / f"dealias_{value}.json",
                {
                    "grid": {"dim": 2, "n_modes": 16},
                    "solver": {"dealias": value},
                    "run": {"t_end": 0.01, "seed": 0},
                },
            )
            out = tmp_path / f"out_{value}"
            assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
            norm_f[value] = read_diagnostics(out / "diagnostics.csv")[0]["norm_F"]
        assert norm_f[True] != norm_f[False]


STREAMED_RUNS = {
    "every_step": {"solver": {"dt": 1e-2}, "forcing": {"kind": "steady", "seed": 4},
                   "run": {"t_end": 0.05, "snapshot_every": 1, "seed": 1}},
    "every_third": {"solver": {"dt": 1e-2},
                    "run": {"t_end": 0.1, "snapshot_every": 3, "seed": 2}},
    "blowup": {"solver": {"nu": 1e-6, "dt": 0.1},
               "initial": {"kind": "random", "amplitude": 1e7},
               "run": {"t_end": 1.0, "snapshot_every": 1, "seed": 3}},
    "no_dealias": {"solver": {"dt": 1e-2, "dealias": False},
                   "run": {"t_end": 0.05, "snapshot_every": 2, "seed": 4}},
    "picard": {"solver": {"scheme": "picard_window", "window_T": 0.1, "n_nodes": 11},
               "initial": {"kind": "random", "amplitude": 0.1},
               "run": {"t_end": 0.1, "seed": 5}},
}


def write_in_memory_outputs(config, out):
    """diagnostics.csv and snapshots of the trajectory a library caller gets."""
    cfg = load_config(config)
    grid = build_grid(cfg)
    run = cli.settings(cfg, "run")
    solver_cfg = build_solver_config(cfg, grid, run["snapshot_every"])
    u0 = build_initial(cfg, grid, run["seed"], solver_cfg.nu)
    if solver_cfg.scheme == "picard_window":
        traj, _, _ = picard_solve(u0, solver_cfg)
    else:
        traj = march(u0, solver_cfg, cfg["run"]["t_end"])
    out.mkdir()
    write_diagnostics_csv(out / "diagnostics.csv", traj)
    for idx, (t, field) in enumerate(zip(traj.times, traj.fields)):
        write_snapshot(out / f"snapshot_{idx:06d}.nsms", field, float(t))
    return traj


class TestStreamedRun:
    @pytest.mark.parametrize("name", sorted(STREAMED_RUNS))
    def test_outputs_match_in_memory_trajectory(self, tmp_path, name):
        doc = dict(STREAMED_RUNS[name], grid={"dim": 2, "n_modes": 16})
        config = write_config(tmp_path / "c.json", doc)
        out, ref = tmp_path / "out", tmp_path / "ref"
        code = main(["run", "--config", config, "--out", str(out), "--quiet"])
        traj = write_in_memory_outputs(config, ref)
        assert code == (2 if name == "blowup" else 0) and traj.blowup == (name == "blowup")
        names = sorted(p.name for p in ref.iterdir())
        assert len(names) == len(traj.times) + 1
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])
        for fname in names:
            assert (out / fname).read_bytes() == (ref / fname).read_bytes(), fname
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / fname) for fname in names]

    def test_memory_does_not_grow_with_steps(self, tmp_path, traced_peak):
        """Peak traced memory of a 32-step run is within one field of a 4-step run."""
        grid = make_grid(2, 64)
        field_bytes = random_divfree_field(grid, seed=0).coeffs.nbytes
        peaks = {}
        for run, steps in enumerate((4, 4, 32)):  # the first run warms caches
            doc = {"grid": {"dim": 2, "n_modes": 64}, "solver": {"dt": 1e-3},
                   "forcing": {"kind": "steady"},
                   "run": {"t_end": steps * 1e-3, "snapshot_every": 1}}
            config = write_config(tmp_path / f"m{run}.json", doc)
            out = tmp_path / f"out{run}"
            code, peaks[steps] = traced_peak(
                main, ["run", "--config", config, "--out", str(out), "--quiet"])
            assert code == 0
        assert peaks[32] - peaks[4] < field_bytes, (peaks, field_bytes)

    def test_forced_run_memory_in_half_states(self, tmp_path, traced_peak):
        """A forced 2D N=128 run with a snapshot every step, from the config to the last
        snapshot, peaks at 9.2 half-states; it peaked at 13.7 when fields, the grid and
        the forcing base were held on the full lattice, and at 9.7 before inverse
        transforms ran in their own temporaries. The bound is 9.2 plus 0.2."""
        doc = {"grid": {"dim": 2, "n_modes": 128}, "solver": {"dt": 1e-3},
               "forcing": {"kind": "steady", "seed": 1},
               "run": {"t_end": 4e-3, "snapshot_every": 1}}
        config = write_config(tmp_path / "c.json", doc)
        half_state = 2 * 128 * (128 // 2 + 1) * 16
        for run in range(2):  # the first run warms caches
            code, peak = traced_peak(
                main, ["run", "--config", config, "--out", str(tmp_path / f"o{run}"), "--quiet"])
            assert code == 0
        assert peak <= 9.4 * half_state, peak / half_state


def test_picard_window_run_writes_halves_as_stored(tmp_path, full_spectrum_calls):
    """`nsmild run` with scheme picard_window writes each kept node's half as the solve
    keeps it: no full lattice is formed, and the files read back to the solve's nodes."""
    doc = {"grid": {"dim": 2, "n_modes": 32},
           "solver": {"scheme": "picard_window", "window_T": 0.05, "n_nodes": 9},
           "forcing": {"kind": "steady", "seed": 3}, "initial": {"amplitude": 0.5},
           "run": {"t_end": 0.05, "snapshot_every": 2}}
    config = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", config, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert full_spectrum_calls == []
    cfg = load_config(config)
    grid = build_grid(cfg)
    traj, _, _ = picard_solve(build_initial(cfg, grid, 0, 1.0),
                              build_solver_config(cfg, grid, doc["run"]["snapshot_every"]))
    snapshots = sorted((tmp_path / "out").glob("snapshot_*.nsms"))
    assert len(snapshots) == len(traj.fields) == 5
    for path, u in zip(snapshots, traj.fields):
        assert np.array_equal(read_snapshot(path)[0].half, u.half)


@pytest.mark.parametrize("name", ["every_third", "picard"])
def test_run_writes_every_snapshot_through_write_snapshot(tmp_path, monkeypatch, name):
    """`io.write_snapshot` is the one snapshot writer: `nsmild run` calls it once for each
    kept state of either scheme, with the field and time it writes."""
    calls = []

    def counted(path, field, time):
        calls.append((Path(path).name, field.grid.n_modes, time))
        write_snapshot(path, field, time)

    monkeypatch.setattr(cli, "write_snapshot", counted)
    doc = dict(STREAMED_RUNS[name], grid={"dim": 2, "n_modes": 16})
    config = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
    rows = read_diagnostics(out / "diagnostics.csv")
    assert len(calls) == len(rows) == len(list(out.glob("snapshot_*.nsms")))
    assert calls == [(f"snapshot_{i:06d}.nsms", 16, float(row["time"]))
                     for i, row in enumerate(rows)]


def picard_failure_config(tmp_path):
    """Large data on a long window: the Picard iteration does not contract."""
    return write_config(
        tmp_path / "picard_fail.json",
        {
            "grid": {"dim": 2, "n_modes": 16},
            "solver": {"scheme": "picard_window", "window_T": 1.0, "n_nodes": 17,
                       "picard_max_iters": 30},
            "initial": {"kind": "random", "amplitude": 50.0},
            "run": {"t_end": 1.0, "seed": 12},
        },
    )


def run_module(argv):
    """`python -m nsmild argv` in a fresh process, importing this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "nsmild"] + argv,
                          env=env, capture_output=True, text=True, timeout=120)


class TestModuleEntryPoint:
    def test_python_m_nsmild_returns_cli_exit_code(self, tmp_path):
        config = picard_failure_config(tmp_path)
        done = run_module(["run", "--config", config, "--out", str(tmp_path / "out"), "--quiet"])
        assert done.returncode == 4
        assert done.stderr.startswith("solver error: NotContracting")


class TestDeterminismAndSnapshots:
    def test_identical_config_identical_bytes(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {
                "grid": {"dim": 2, "n_modes": 16},
                "solver": {"dt": 1e-2},
                "initial": {"kind": "random", "amplitude": 0.5},
                "run": {"t_end": 0.1, "snapshot_every": 2, "seed": 42},
            },
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", "--config", config, "--out", str(out_b), "--quiet"]) == 0
        assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()
        snaps_a = sorted(p.name for p in out_a.glob("*.nsms"))
        snaps_b = sorted(p.name for p in out_b.glob("*.nsms"))
        assert snaps_a == snaps_b and snaps_a
        for name in snaps_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {
                "grid": {"dim": 2, "n_modes": 16},
                "solver": {"dt": 1e-2},
                "run": {"t_end": 0.05, "snapshot_every": 1, "seed": 1},
            },
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config, "--out", str(out_a), "--quiet"])
        main(["run", "--config", config, "--out", str(out_b), "--seed", "2", "--quiet"])
        assert (out_a / "diagnostics.csv").read_bytes() != (out_b / "diagnostics.csv").read_bytes()

    def test_snapshot_round_trip_bit_exact(self, tmp_path):
        grid = make_grid(3, 16)
        field = random_divfree_field(grid, seed=9)
        path = tmp_path / "field.nsms"
        write_snapshot(path, field, time=0.375)
        back, t = read_snapshot(path)
        assert t == 0.375
        assert back.grid == grid
        # a generated field is exactly Hermitian, so its mirror of the half is itself
        assert np.array_equal(back.coeffs, field.coeffs)
        # bytes written twice are identical
        path2 = tmp_path / "field2.nsms"
        write_snapshot(path2, back, time=0.375)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_snapshot_stores_the_half_spectrum(self, tmp_path, dim, n):
        path = tmp_path / "field.nsms"
        write_snapshot(path, random_divfree_field(make_grid(dim, n), seed=3), time=0.0)
        assert path.stat().st_size == _HEADER.size + 16 * dim * n ** (dim - 1) * (n // 2 + 1)

    def test_layout_v1_stays_readable(self, tmp_path):
        grid = make_grid(3, 16)
        field = random_divfree_field(grid, seed=4)
        path = tmp_path / "v1.nsms"
        header = _HEADER.pack(SNAPSHOT_MAGIC, 1, 3, 16, grid.period, 0.25)
        path.write_bytes(header + field.coeffs.astype("<c16").tobytes())
        back, t = read_snapshot(path)
        assert t == 0.25 and back.grid == grid
        assert np.array_equal(back.coeffs, field.coeffs)

    def test_read_back_samples_are_bit_equal(self, tmp_path):
        grid = make_grid(2, 32)
        field = random_divfree_field(grid, seed=5)
        write_snapshot(tmp_path / "u.nsms", field, time=0.0)
        back, _ = read_snapshot(tmp_path / "u.nsms")
        assert np.array_equal(inverse_transform(back).values, inverse_transform(field).values)
        doc = dict(STREAMED_RUNS["picard"], grid={"dim": 2, "n_modes": 16})
        out = tmp_path / "picard"
        traj = write_in_memory_outputs(write_config(tmp_path / "c.json", doc), out)
        assert len(traj.fields) == 11
        for idx, field in enumerate(traj.fields):
            back, t = read_snapshot(out / f"snapshot_{idx:06d}.nsms")
            assert t == traj.times[idx]
            assert np.array_equal(inverse_transform(back).values, inverse_transform(field).values)

    def test_snapshot_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.nsms"
        path.write_bytes(b"XXXX" + bytes(60))
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_manifest_requires_existing_outputs(self, tmp_path):
        from nsmild.io import RunManifest

        manifest = RunManifest(
            artifact_version="0.1.0",
            config={},
            seed=0,
            blowup=False,
            started_utc="",
            finished_utc="",
            outputs=[str(tmp_path / "missing.csv")],
        )
        with pytest.raises(FileNotFoundError):
            manifest.validate()


class TestVerifyCommand:
    def small_verify_config(self, tmp_path, **overrides):
        verify = {
            "dim": 2,
            "n_modes": 16,
            "ensemble_size": 5,
            "resolutions": [16, 32],
            "trajectory_n_modes": 16,
            "trajectory_t_end": 0.1,
        }
        verify.update(overrides)
        return write_config(tmp_path / "verify.json", {"verify": verify})

    def test_default_small_suite_passes(self, tmp_path):
        config = self.small_verify_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", config, "--out", str(out), "--quiet"]) == 0
        reports = json.loads((out / "report.json").read_text())
        assert any(r["name"] == "operator_identities" for r in reports)

    def test_broken_tolerance_fails_named(self, tmp_path, capsys):
        config = self.small_verify_config(tmp_path, tolerance_identity=1e-20)
        out = tmp_path / "out"
        assert main(["verify", "--config", config, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "operator_identities" in err

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_small_suite_passes_at_seed(self, tmp_path, seed):
        """Seeds at which the Lipschitz trajectories once came from unrelated data."""
        config = self.small_verify_config(tmp_path)
        out = tmp_path / "out"
        code = main(["verify", "--config", config, "--out", str(out), "--seed", str(seed),
                     "--quiet"])
        assert code == 0

    @pytest.mark.parametrize("amplitude", [1e7, 300.0])
    def test_blown_up_trajectory_is_a_failed_check(self, tmp_path, capsys, amplitude):
        """1e7 keeps fewer than 10 snapshots; 300 keeps 10, then blows up."""
        verify = {"trajectory_amplitude": amplitude, "ensemble_size": 2, "n_modes": 8,
                  "resolutions": [8, 16], "trajectory_n_modes": 16}
        config = write_config(tmp_path / "verify.json", {"verify": verify})
        out = tmp_path / "out"
        assert main(["verify", "--config", config, "--out", str(out), "--quiet"]) == 3
        assert "Traceback" not in capsys.readouterr().err
        text = (out / "report.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        reports = {r["name"]: r for r in json.loads(text)}
        assert len(reports) == 16
        for name in ("hoelder_fit_trajectory", "nonlinearity_lipschitz_stability"):
            assert reports[name]["passed"] is False
            assert reports[name]["measurements"]["blowup"] is True

    @pytest.mark.parametrize(
        "verify,reason",
        [
            ({"trajectory_decay": 1.0, "ensemble_size": 2}, "fitted exponent "),
            ({"trajectory_amplitude": 1e-300, "ensemble_size": 2, "n_modes": 8,
              "resolutions": [8, 16], "trajectory_n_modes": 16},
             "degenerate trajectory: not enough nonzero increments"),
        ],
        ids=["beta-above-1.05", "zero-increments"],
    )
    def test_unfittable_trajectory_is_a_failed_check(self, tmp_path, capsys, verify, reason):
        config = write_config(tmp_path / "verify.json", {"verify": verify})
        out = tmp_path / "out"
        assert main(["verify", "--config", config, "--out", str(out), "--quiet"]) == 3
        assert "Traceback" not in capsys.readouterr().err
        text = (out / "report.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        reports = {r["name"]: r for r in json.loads(text)}
        assert len(reports) == 16
        for name in ("hoelder_fit_trajectory", "nonlinearity_lipschitz_stability"):
            assert reports[name]["passed"] is False
            assert reports[name]["measurements"]["fit_error"].startswith(reason)

    def test_verify_rows_follow_verify_settings(self):
        fields = dataclasses.fields(VerifySettings)
        assert list(SCHEMA["verify"]) == [f.name for f in fields]
        assert [row[1] for row in SCHEMA["verify"].values()] == [f.default for f in fields]

    def test_unknown_setting_rejected(self, tmp_path):
        config = write_config(tmp_path / "v.json", {"verify": {"bogus": 1}})
        assert main(["verify", "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 1


class TestEstimateCommand:
    def test_report_contains_per_resolution(self, tmp_path):
        config = write_config(
            tmp_path / "est.json",
            {"estimate": {"ensemble_size": 5, "resolutions": [16, 32], "seed": 2}},
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", config, "--out", str(out), "--quiet"]) == 0
        reports = json.loads((out / "report.json").read_text())
        bilinear = next(r for r in reports if r["name"].startswith("advection_bound"))
        assert [n for n, _ in bilinear["per_resolution"]] == [16, 32]


class TestOracleCommand:
    def test_oracle_passes(self, tmp_path):
        config = write_config(
            tmp_path / "oracle.json",
            {"oracle": {"n_modes": 32, "t_end": 0.2, "dt": 1e-3, "snapshot_every": 50}},
        )
        out = tmp_path / "out"
        assert main(["oracle", "--config", config, "--out", str(out), "--quiet"]) == 0
        reports = json.loads((out / "report.json").read_text())
        assert reports[0]["passed"] is True
        assert reports[0]["measurements"]["max_relative_l2_error"] <= 1e-10


RUN_BASE = {"grid": {"dim": 2, "n_modes": 16}, "run": {"t_end": 0.01, "seed": 0}}


def with_block(block, **fields):
    doc = json.loads(json.dumps(RUN_BASE))
    doc[block].update(fields)
    return doc


class TestConfigErrorTable:
    """Malformed configs end in exit 1 with a field-path message, no traceback."""

    @pytest.mark.parametrize(
        "command,doc,path",
        [
            ("estimate", {"estimate": [1, 2]}, "estimate"),
            ("oracle", {"oracle": [1, 2]}, "oracle"),
            ("oracle", {"oracle": "fast"}, "oracle"),
            ("oracle", {"oracle": {"t_end": -1.0}}, "oracle.t_end"),
            ("run", with_block("run", t_end=-1.0), "run.t_end"),
            ("run", with_block("run", t_end=0.0), "run.t_end"),
            ("run", with_block("run", t_end=1e-5), "run.t_end"),
            ("run", with_block("run", t_end=float("inf")), "run.t_end"),
            ("run", dict(with_block("run"), solver={"dt": float("inf")}), "solver.dt"),
            ("estimate", {"estimate": {"resolutions": []}}, "estimate.resolutions"),
            ("estimate", {"estimate": {"resolutions": [15]}}, "estimate.resolutions"),
            ("estimate", {"estimate": {"resolutions": 16}}, "estimate.resolutions"),
            ("verify", {"verify": {"resolutions": []}}, "verify.resolutions"),
            ("verify", {"verify": {"resolutions": [15]}}, "verify.resolutions"),
            ("verify", {"verify": {"resolutions": [6, 16]}}, "verify.resolutions"),
            ("verify", {"verify": {"resolutions": [16.0, 32]}}, "verify.resolutions"),
            ("verify", {"verify": {"ensemble_size": "x"}}, "verify.ensemble_size"),
            ("verify", {"verify": {"lambdas": 5}}, "verify.lambdas"),
            ("verify", {"verify": {"times": []}}, "verify.times"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16, "nmodes": 8}),
             "grid.nmodes"),
            ("run", dict(with_block("run"), solver={"ddt": 0.5}), "solver.ddt"),
            ("run", dict(with_block("run"), forcing={"kind": "steady", "amp": 2.0}),
             "forcing.amp"),
            ("run", dict(with_block("run"), initial={"kind": "zero", "sead": 1}), "initial.sead"),
            ("run", with_block("run", out_dir="out"), "run.out_dir"),
            ("estimate", {"estimate": {"ensemble": 5}}, "estimate.ensemble"),
            ("oracle", {"oracle": {"tol": 1e-3}}, "oracle.tol"),
            ("run", dict(with_block("run"), forcing={"kind": "steady", "decay": -1}),
             "forcing.decay"),
            ("run", dict(with_block("run"), initial={"decay": 0}), "initial.decay"),
            ("run", with_block("run", t_end=None), "run.t_end"),
            ("run", dict(with_block("run"), solver={"dt": None}), "solver.dt"),
            ("estimate", {"estimate": {"theta": "x"}}, "estimate.theta"),
            ("verify", {"verify": {"lambdas": [-1]}}, "verify.lambdas"),
            ("verify", {"verify": {"ensemble_size": 0}}, "verify.ensemble_size"),
            ("verify", {"verify": {"ensemble_size": 1}}, "verify.ensemble_size"),
            ("verify", {"verify": {"nu": 0}}, "verify.nu"),
            ("verify", {"verify": {"times": [-1]}}, "verify.times"),
            ("verify", {"verify": {"n_modes": 7}}, "verify.n_modes"),
            ("verify", {"verify": {"trajectory_snapshot_every": 0}},
             "verify.trajectory_snapshot_every"),
            ("verify", {"verify": {"n_modes": 16.5}}, "verify.n_modes"),
            ("estimate", {"estimate": {"ensemble_size": 0}}, "estimate.ensemble_size"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16.7}), "grid.n_modes"),
            ("run", with_block("run", snapshot_every=2.9), "run.snapshot_every"),
            ("run", dict(with_block("run", t_end=5.0), solver={"scheme": "picard_window"}),
             "run.t_end"),
            ("run", dict(with_block("run"), grid={"dim": True, "n_modes": 16}), "grid.dim"),
            ("run", with_block("run", seed=-1), "run.seed"),
            ("oracle", {"oracle": {"n_modes": 32.0}}, "oracle.n_modes"),
            ("oracle", {"oracle": {"n_modes": 31}}, "oracle.n_modes"),
            ("estimate", {"estimate": {"theta": 1.5}}, "estimate.theta"),
            ("run", dict(with_block("run"), solver={"p": float("nan")}), "solver.p"),
            ("verify", {"verify": {"trajectory_t_end": 0.02}}, "verify.trajectory_t_end"),
            ("verify", {"verify": {"trajectory_snapshot_every": 1000}},
             "verify.trajectory_t_end"),
            ("verify", {"verify": {"trajectory_t_end": 0.0001}}, "verify.trajectory_t_end"),
            ("run", dict(with_block("run"), initial={"amplitude": float("nan")}),
             "initial.amplitude"),
            ("run", dict(with_block("run"), forcing={"kind": "steady", "amplitude": float("inf")}),
             "forcing.amplitude"),
            ("run", dict(with_block("run"), solver={"nu": float("inf")}), "solver.nu"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16,
                                                  "period": float("inf")}), "grid.period"),
            ("run", dict(with_block("run"), solver={"picard_tol": float("nan")}),
             "solver.picard_tol"),
            ("run", with_block("run", snapshot_every=0), "run.snapshot_every"),
            ("verify", {"verify": {"p": float("inf")}}, "verify.p"),
            ("run", dict(with_block("run"), solver={"nu": 10**400}), "solver.nu"),
            ("run", with_block("run", t_end=1e300), "run.t_end"),
            ("verify", {"verify": {"trajectory_t_end": 1e300}}, "verify.trajectory_t_end"),
            ("oracle", {"oracle": {"t_end": 1e300}}, "oracle.t_end"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16, "period": 5.0},
                         initial={"kind": "taylor_green"}), "initial.kind"),
            ("run", dict(with_block("run"), grid={"dim": 3, "n_modes": 16},
                         initial={"kind": "taylor_green"}), "initial.kind"),
            ("run", dict(with_block("run"), initial={"kind": "vortex"}), "initial.kind"),
            ("run", dict(with_block("run"), grid={"dim": 4, "n_modes": 16}), "grid"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16, "period": -1.0}),
             "grid"),
            ("run", dict(with_block("run"), forcing={"kind": "bogus"}), "forcing"),
            ("run", dict(with_block("run"), forcing={"kind": "hoelder_modulated",
                                                     "exponent": 1.5}), "forcing"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16, "period": 1e300}),
             "grid"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16, "period": 1e-300}),
             "grid"),
            ("run", dict(with_block("run"), solver={"picard_max_iters": 0}), "solver"),
            ("run", dict(with_block("run"), solver={"picard_max_iters": -3}), "solver"),
            ("run", dict(with_block("run"), solver={"picard_tol": 0}), "solver"),
            ("run", dict(with_block("run"), solver={"picard_tol": -1.0}), "solver"),
            ("run", {"grid": {"dim": 2, "n_modes": 16, "period": 1e-100},
                     "run": {"t_end": 0.003}}, "initial.decay"),
            ("run", {"grid": {"dim": 2, "n_modes": 16}, "initial": {"decay": 1e6},
                     "run": {"t_end": 0.003}}, "initial.decay"),
            ("run", dict(with_block("run"), forcing={"kind": "steady", "decay": 1e6}),
             "forcing.decay"),
            ("estimate", {"estimate": {"decay": 1e6, "ensemble_size": 2}}, "estimate.decay"),
            ("verify", {"verify": {"spectrum_decay": 1e6, "ensemble_size": 2, "n_modes": 8,
                                   "resolutions": [8, 16], "trajectory_n_modes": 16}},
             "verify.spectrum_decay"),
            ("verify", {"verify": {"trajectory_decay": 1e6}}, "verify.trajectory_decay"),
            # a period that is not a finite number; every period a grid accepts runs
            # (TestPeriodFreeGates), so no period is a divergence config error
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16, "period": "6.28"}),
             "grid.period"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16, "period": True}),
             "grid.period"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16, "period": 5e-324}),
             "grid"),
            ("run", dict(with_block("run"), grid={"dim": 2, "n_modes": 16,
                                                  "period": float("nan")}), "grid.period"),
            # a repeated or lone resolution compares a grid with itself or with nothing
            ("verify", {"verify": {"ensemble_size": 2, "n_modes": 8, "resolutions": [16, 16],
                                   "trajectory_n_modes": 16}}, "verify.resolutions"),
            ("verify", {"verify": {"dim": 2, "ensemble_size": 2, "n_modes": 8,
                                   "resolutions": [8], "trajectory_n_modes": 8}},
             "verify.resolutions"),
            ("estimate", {"estimate": {"dim": 2, "ensemble_size": 2, "resolutions": [16, 16]}},
             "estimate.resolutions"),
            ("estimate", {"estimate": {"ensemble_size": 2, "resolutions": [8, 16, 8]}},
             "estimate.resolutions"),
            # a key that its block's kind does not read
            ("run", dict(with_block("run"), initial={"kind": "taylor_green", "amplitude": 3.0}),
             "initial.amplitude"),
            ("run", dict(with_block("run"), initial={"kind": "zero", "seed": 1}), "initial.seed"),
            ("run", dict(with_block("run"), forcing={"kind": "zero", "seed": 1}), "forcing.seed"),
            ("run", dict(with_block("run"), forcing={"seed": 1}), "forcing.seed"),
            ("run", dict(with_block("run"), forcing={"kind": "steady", "exponent": 0.5}),
             "forcing.exponent"),
        ],
    )
    def test_exits_1_with_field_path(self, tmp_path, capsys, command, doc, path):
        config = write_config(tmp_path / "bad.json", doc)
        out = tmp_path / "out"
        with warnings.catch_warnings():  # a numpy warning before the message fails
            warnings.simplefilter("error")
            assert main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestPeriodFreeGates:
    """The divergence gates measure k in units of 2 pi / period and the blow-up norm is
    that of the 2 pi box, so a generated field runs at any period a grid accepts, as it
    does at 2 pi: no config error, and no blow-up from the box's size alone."""

    @pytest.mark.parametrize("period", [1e-60, 1e-6, 1e-4, 1e3, 1e6, 1e12, 1e100])
    @pytest.mark.parametrize("forcing", ["zero", "steady"])
    @pytest.mark.parametrize("scheme", ["exp_euler", "picard_window"])
    def test_runs_at_every_period(self, tmp_path, capsys, scheme, forcing, period):
        solver = {"scheme": scheme, "dt": 1e-4, "window_T": 3e-4}
        config = write_config(tmp_path / "period.json", {
            "grid": {"dim": 2, "n_modes": 16, "period": period}, "solver": solver,
            "forcing": {"kind": forcing}, "run": {"t_end": 3e-4}})
        out = tmp_path / "out"
        with warnings.catch_warnings():  # a numpy warning fails the run
            warnings.simplefilter("error")
            assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "manifest.json").read_text())["blowup"] is False


class TestOutOfMemory:
    """An allocation larger than the machine exits 1 with one line, not a traceback.

    Each first large request is 7.28 TiB, so it fails before any page is touched.
    """

    @pytest.mark.parametrize(
        "doc",
        [
            dict(RUN_BASE, grid={"dim": 2, "n_modes": 1000000}),
            dict(with_block("run", t_end=0.1),
                 solver={"scheme": "picard_window", "n_nodes": 10**12}),
        ],
        ids=["grid-n_modes", "solver-n_nodes"],
    )
    def test_exits_1_with_one_line(self, tmp_path, capsys, doc):
        config = write_config(tmp_path / "big.json", doc)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestUsageErrors:
    """Command-line misuse exits 1 (exit 2 is the blow-up sentinel) before any output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "c.json"],
            ["run", "--config", "c.json", "--out", "OUT", "--seed", "x"],
            ["simulate", "--out", "OUT"],
            ["oracle", "--out", "OUT", "--seed", "5"],
        ],
        ids=["missing-out", "non-integer-seed", "unknown-command", "oracle-seed"],
    )
    def test_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([str(out) if a == "OUT" else a for a in argv]) == 1
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "--seed" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "verify", "estimate"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        config = write_config(tmp_path / "c.json", RUN_BASE if command == "run" else {})
        out = tmp_path / "out"
        argv = [command, "--config", config, "--out", str(out), "--seed", "-1", "--quiet"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "argument --seed: expected an integer >= 0, got '-1'" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestUnusableOut:
    """An --out that cannot be a directory exits 1 with one line, before any work."""

    @pytest.mark.parametrize("under_a_file", [False, True], ids=["is-a-file", "under-a-file"])
    @pytest.mark.parametrize("command", ["run", "verify", "estimate", "oracle"])
    def test_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch, command,
                                     under_a_file):
        for work in ("march", "picard_solve", "run_verification_suite",
                     "ensemble_estimates", "closed_form_vortex"):
            monkeypatch.setattr(cli, work, lambda *args, _w=work, **kw: pytest.fail(_w))
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "out" if under_a_file else blocker
        argv = [command, "--out", str(out), "--quiet"]
        if command == "run":
            argv += ["--config", taylor_green_config(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and err.count("\n") == 1
        assert "Traceback" not in err and blocker.read_text() == ""


SMALL_VERIFY = {"ensemble_size": 2, "n_modes": 8, "resolutions": [8, 16],
                "trajectory_n_modes": 16}


class TestPrintedLines:
    """Without --quiet each command prints its summary lines on stdout."""

    def test_run_ok(self, tmp_path, capsys):
        config = taylor_green_config(tmp_path, t_end=0.1, snapshot_every=10)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"run ok: 11 snapshots -> {out}\n"

    def test_run_blow_up(self, tmp_path, capsys):
        config = write_config(tmp_path / "blow.json", dict(
            RUN_BASE, initial={"amplitude": 1e200}, run={"t_end": 0.01}))
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        rows = read_diagnostics(out / "diagnostics.csv")
        assert capsys.readouterr().out == f"run blow-up: {len(rows)} snapshots -> {out}\n"

    def test_verify(self, tmp_path, capsys):
        config = write_config(tmp_path / "verify.json", {"verify": SMALL_VERIFY})
        out = tmp_path / "out"
        assert main(["verify", "--config", config, "--out", str(out)]) == 0
        reports = json.loads((out / "report.json").read_text())
        tags = {None: "INFO", True: "PASS", False: "FAIL"}
        lines = [f"{tags[r['passed']]:4s} {r['name']}" for r in reports]
        lines.append("all asserted checks passed (16 reports)")
        assert capsys.readouterr().out.splitlines() == lines

    def test_estimate(self, tmp_path, capsys):
        config = write_config(tmp_path / "est.json",
                              {"estimate": {"ensemble_size": 2, "resolutions": [8, 16]}})
        out = tmp_path / "out"
        assert main(["estimate", "--config", config, "--out", str(out)]) == 0
        reports = json.loads((out / "report.json").read_text())
        lines = [f"{r['name']}: {r['verdict']} ("
                 + ", ".join(f"N={n}: {v:.6g}" for n, v in r["per_resolution"]) + ")"
                 for r in reports]
        assert len(lines) == 3
        assert capsys.readouterr().out.splitlines() == lines

    def test_oracle(self, tmp_path, capsys):
        config = write_config(tmp_path / "oracle.json",
                              {"oracle": {"n_modes": 32, "t_end": 0.2, "snapshot_every": 50}})
        out = tmp_path / "out"
        assert main(["oracle", "--config", config, "--out", str(out)]) == 0
        error = json.loads((out / "report.json").read_text())[0]["measurements"][
            "max_relative_l2_error"]
        assert capsys.readouterr().out == (
            f"oracle max relative error {error:.3e} (tolerance 1.0e-10)\n")


class TestUnreadableMeasurement:
    """A setting that leaves a measurement unreadable (an L_p norm out of (0, inf), a vortex
    decayed to a zero norm) exits 1 with one line naming it, and writes no report."""

    @pytest.mark.parametrize(
        "command,doc,message",
        [
            ("estimate", {"estimate": {"p": 1e300, "ensemble_size": 2}},
             "estimate.p: 1e+300 takes an L_p norm of the ensemble at N = 16 to inf"),
            # every sample of a member below 1 in magnitude: |x|^1000 underflows to 0
            ("estimate", {"estimate": {"p": 1000, "ensemble_size": 2, "decay": 30,
                                       "resolutions": [8, 16]}},
             "estimate.p: 1000.0 takes an L_p norm of the ensemble at N = 8 to 0.0"),
            ("verify", {"verify": dict(SMALL_VERIFY, p=1e300)},
             "verify.p: 1e+300 takes an L_p norm of the ensemble at N = 8 to inf"),
            ("verify", {"verify": dict(SMALL_VERIFY, nu=1e300)},
             "verify.nu: 1e+300 decays the closed-form vortex to a zero L_2 norm by t = 0.05"),
            ("oracle", {"oracle": {"n_modes": 8, "dt": 1.0, "t_end": 1000.0}},
             "oracle.nu: 1.0 decays the closed-form vortex to a zero L_2 norm by t = 200.0"),
        ],
        ids=["estimate-p", "estimate-p-underflow", "verify-p", "verify-nu", "oracle-t_end"],
    )
    def test_exits_1_with_one_line(self, tmp_path, capsys, command, doc, message):
        config = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        with warnings.catch_warnings():  # a numpy warning before the message fails
            warnings.simplefilter("error")
            assert main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert err.count("\n") == 1
        assert not (out / "report.json").exists()


class TestSuiteChild:
    def test_run_starts_no_child_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("nsmild run forked"))
        config = write_config(tmp_path / "c.json", RUN_BASE)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_that_dies_exits_5_with_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verification, "_child_half",
                            lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        config = write_config(tmp_path / "v.json", {"verify": SMALL_VERIFY})
        out = tmp_path / "out"
        assert main(["verify", "--config", config, "--out", str(out), "--quiet"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("suite error: the suite's child process ")
        assert err.endswith(" ended without its reports (killed by signal 9)\n")
        assert err.count("\n") == 1
        assert not (out / "report.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# -- seeded config fuzz ---------------------------------------------------------------------

# a small config of each command that runs; each draw changes one to three of its keys
FUZZ_BASES = {
    "run": {"grid": {"dim": 2, "n_modes": 8}, "solver": {"dt": 0.01}, "run": {"t_end": 0.1}},
    "verify": {"verify": {"dim": 2, "n_modes": 8, "ensemble_size": 2, "resolutions": [8, 16],
                          "trajectory_n_modes": 8, "trajectory_dt": 0.01,
                          "trajectory_t_end": 0.1, "trajectory_snapshot_every": 1}},
    "estimate": {"estimate": {"ensemble_size": 2, "resolutions": [8, 16]}},
    "oracle": {"oracle": {"n_modes": 8, "dt": 0.01, "t_end": 0.1, "snapshot_every": 1}},
}
FUZZ_BLOCKS = {"run": ("grid", "solver", "forcing", "initial", "run"), "verify": ("verify",),
               "estimate": ("estimate",), "oracle": ("oracle",)}
BAD = ["x", None, True, float("nan"), float("inf")]  # every kind rejects these
FUZZ_KINDS = {
    "int": [0, 1, 2, 3, -1, 7, 2**63, 3.0] + BAD,
    "float": [0, 0.0, -1.0, 0.3, 1.0, 2.0, 7.5, 1e-300, 1e300, 1e-9, 5e-324] + BAD,
    "bool": [True, False, 0, "true", None],
    "str": ["", "x", 3, None],
    "ints": [[8], [8, 16], [16, 8], [], [7], [16.0], 16, None],
    "floats": [[1.0], [0.0], [-1.0], [], [1e300], [0.1, 1e-300], "x", None],
}
# keys that set a grid size, a step count or an ensemble size: N <= 16, at most 20 steps
# (a dt of at least 0.01 against a t_end of at most 0.2), at most 4 members
SIZES = [8, 12, 16, 7, 0, -8, 16.0, "16", None]
STEPS = [0.01, 0.02, 0.05, 0.1, 0.2, 0, -0.01, 1e300, 1e-300, 1e-9] + BAD
FUZZ_KEYS = {
    ("grid", "n_modes"): SIZES, ("verify", "n_modes"): SIZES,
    ("verify", "trajectory_n_modes"): SIZES, ("oracle", "n_modes"): SIZES,
    ("verify", "resolutions"): [[8], [8, 16], [16, 8], [7], [], [8, 16.0], 8],
    ("estimate", "resolutions"): [[8], [8, 16], [16, 8], [7], [], [8, 16.0], 8],
    ("verify", "ensemble_size"): [0, 1, 2, 3, 4, -1, 2.0, None],
    ("estimate", "ensemble_size"): [0, 1, 2, 3, 4, -1, 2.0, None],
    ("grid", "dim"): [2, 3, 1, 4, 2.0, None], ("verify", "dim"): [2, 3, 1, 4, "3"],
    ("estimate", "dim"): [2, 3, 1, 4, "3"],
    ("solver", "dt"): [0.01, 0.02, 0.05, 0, -0.01, 1e300] + BAD,
    ("run", "t_end"): STEPS, ("verify", "trajectory_dt"): [0.01, 0.02, 0, 1e300] + BAD,
    ("verify", "trajectory_t_end"): STEPS, ("oracle", "dt"): [0.01, 0.02, 0, 1e300] + BAD,
    ("oracle", "t_end"): STEPS,
    ("solver", "window_T"): [0.1, 0.05, 0.0, -1.0, 1e300] + BAD,
    ("solver", "n_nodes"): [3, 5, 9, 2, 0, -3, 5.0],
    ("solver", "picard_max_iters"): [1, 3, 5, 0, -1],
    ("solver", "scheme"): ["exp_euler", "picard_window", "rk4", 0],
    ("forcing", "kind"): ["zero", "steady", "hoelder_modulated", "bogus", None],
    ("initial", "kind"): ["random", "taylor_green", "zero", "vortex", None],
}


def fuzz_configs(count: int, seed: int) -> list:
    """(command, config) pairs drawn from SCHEMA: a base config of a random command with one
    to three of its keys set to values drawn by key (FUZZ_KEYS) or by kind (FUZZ_KINDS)."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        command = list(FUZZ_BASES)[rng.integers(len(FUZZ_BASES))]
        doc = json.loads(json.dumps(FUZZ_BASES[command]))
        keys = [(block, key) for block in FUZZ_BLOCKS[command] for key in SCHEMA[block]]
        for i in rng.choice(len(keys), size=rng.integers(1, 4), replace=False):
            block, key = keys[i]
            values = FUZZ_KEYS.get((block, key), FUZZ_KINDS[SCHEMA[block][key][0]])
            doc.setdefault(block, {})[key] = values[rng.integers(len(values))]
        draws.append((command, doc))
    return draws


class TestConfigFuzz:
    def test_documented_exit_and_one_line_errors(self, tmp_path, capsys, monkeypatch):
        """Every drawn config ends in a documented exit code, without a traceback or a
        warning, and a config error in one `config error: ` line.

        Without os.fork the suite's child half runs inline, so that its warnings are
        recorded here too; a forked child's would go to the child's own recorder.
        """
        monkeypatch.delattr(os, "fork")
        faults = []
        for i, (command, doc) in enumerate(fuzz_configs(50, seed=2026)):
            config = write_config(tmp_path / f"fuzz{i}.json", doc)
            argv = [command, "--config", config, "--out", str(tmp_path / f"out{i}"), "--quiet"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except Exception as exc:  # what main lets escape would print a traceback
                    faults.append((command, doc, f"{type(exc).__name__}: {exc}"))
                    continue
            err = capsys.readouterr().err
            if caught:
                faults.append((command, doc, f"warning: {caught[0].message}"))
            if code not in (0, 1, 2, 3, 4) or "Traceback" in err or "Warning" in err:
                faults.append((command, doc, f"exit {code}: {err}"))
            if code == 1 and not (err.startswith("config error: ") and err.count("\n") == 1):
                faults.append((command, doc, f"exit 1: {err}"))
        assert faults == []
