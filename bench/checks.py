"""Output checks for each operation, against references computed here.

The references are written from the formulas in the README and the module
docstrings, with numpy only: the random field generator, the Leray
projection, the dealiased pseudospectral nonlinearity, the heat and phi1
multipliers. The layer under test is never
called to produce a reference; snapshots are read back with
`nsmild.io.read_snapshot`, which is itself checked against the CSV energies.

Each check returns a list of problems; an empty list means the operation
is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from nsmild.io import read_snapshot

STEP_TOL = 1e-10  # relative, exponential-Euler step and norm_F
ENERGY_TOL = 1e-12  # relative, snapshot energy against the CSV column
DIV_TOL = 1e-10  # absolute pointwise divergence
ORACLE_TOL = 1e-10
SNAPSHOT_PAIRS = 3  # consecutive snapshot pairs recomputed per snap2d operation
# the one suite verdict that fails with correct code at some seeds (it compares
# Lipschitz ratios of different random trajectories); counted, not gated, see
# README.md. Every other failed verdict fails the operation.
UNSTABLE_CHECK = "nonlinearity_lipschitz_stability"
SUITE_REPORTS = 16


class Lattice:
    """Wavenumbers of the periodic box in numpy's FFT layout, Nyquist = +n/2."""

    def __init__(self, dim: int, n: int):
        modes = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
        modes[n // 2] = n // 2
        k_int = np.stack(np.meshgrid(*([modes] * dim), indexing="ij"))
        self.dim, self.n = dim, n
        self.axes = tuple(range(1, dim + 1))
        self.points = n**dim
        self.volume = (2.0 * math.pi) ** dim
        self.k = k_int.astype(np.float64)
        self.k_sq = np.sum(self.k**2, axis=0)
        self.inv_k_sq = np.divide(1.0, self.k_sq, out=np.zeros_like(self.k_sq),
                                  where=self.k_sq > 0)
        self.dealias = np.all(np.abs(k_int) <= n // 3, axis=0)
        self.nyquist = np.any(np.abs(k_int) == n // 2, axis=0)
        self.zero = (slice(None),) + (0,) * dim

    def project(self, c):
        return c - self.k * (np.sum(self.k * c, axis=0) * self.inv_k_sq)

    def to_physical(self, c):
        return np.real(np.fft.ifftn(c, axes=self.axes)) * self.points

    def nonlinear(self, c):
        """-P[(u.grad)u] with two-thirds dealiasing of inputs and output."""
        c = c * self.dealias
        u = self.to_physical(c)
        adv = sum(u[j] * self.to_physical(1j * self.k[j] * c) for j in range(self.dim))
        w = np.fft.fftn(adv, axes=self.axes) / self.points * self.dealias
        f = -self.project(w)
        f[self.zero] = 0.0
        return f

    def heat(self, nu, t):
        return np.exp(-nu * t * self.k_sq)

    def phi1(self, nu, h):
        z = -nu * h * self.k_sq
        return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0)

    def energy(self, c):
        return float(self.volume * np.sum(np.abs(c) ** 2))

    def max_divergence(self, c):
        div = np.sum(1j * self.k * c, axis=0)
        return float(np.max(np.abs(np.real(np.fft.ifftn(div)) * self.points)))

    def random_divfree(self, seed, decay, amplitude):
        """The seeded generator: random phases under (1+|k|^2)^(-decay/2), projected."""
        rng = np.random.default_rng(seed)
        env = amplitude * (1.0 + self.k_sq) ** (-decay / 2.0)
        env = env * ~self.nyquist
        env[(0,) * self.dim] = 0.0
        comps = []
        for _ in range(self.dim):
            what = np.fft.fftn(rng.standard_normal((self.n,) * self.dim)) / self.points
            mag = np.abs(what)
            comps.append(env * np.where(mag > 0, what / np.where(mag > 0, mag, 1.0), 1.0))
        return self.project(np.stack(comps))


def _rel(a, b) -> float:
    scale = float(np.max(np.abs(b)))
    return float(np.max(np.abs(a - b))) / scale if scale > 0 else float(np.max(np.abs(a)))


def _read_run(out: Path, lat: Lattice):
    """CSV rows and snapshots (time, coefficients), plus read-back problems."""
    problems = []
    with open(out / "diagnostics.csv", newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    manifest = json.loads((out / "manifest.json").read_text())
    snaps = sorted(out.glob("snapshot_*.nsms"))
    if len(snaps) != len(rows):
        problems.append(f"{len(snaps)} snapshots for {len(rows)} CSV rows")
    if len(manifest["outputs"]) != len(snaps) + 1 or manifest["blowup"]:
        problems.append("manifest does not list every output, or records a blow-up")
    fields = []
    for path, row in zip(snaps, rows):
        field, t = read_snapshot(path)
        if t != row["time"]:
            problems.append(f"{path.name}: time {t} but CSV says {row['time']}")
        if abs(lat.energy(field.coeffs) - row["energy"]) > ENERGY_TOL * row["energy"]:
            problems.append(f"{path.name}: energy differs from the CSV")
        fields.append((t, field.coeffs))
    return rows, fields, problems


def _initial_problems(lat, fields, config, seed):
    init = config["initial"]
    ref = lat.random_divfree(seed, init["decay"], init["amplitude"])
    ref[lat.zero] = 0.0
    err = _rel(fields[0][1], ref)
    return [] if err <= ENERGY_TOL else [f"initial field differs from the seeded generator by {err:.2e}"]


def check_snapshots(out: Path, config: dict, seed: int) -> list:
    """Forced march with every step stored: norm_F of the final state,
    divergence, and sampled steps recomputed."""
    lat = Lattice(config["grid"]["dim"], config["grid"]["n_modes"])
    rows, fields, problems = _read_run(out, lat)
    problems += _initial_problems(lat, fields, config, seed)
    norm_f = math.sqrt(lat.energy(lat.nonlinear(fields[-1][1])))
    if abs(norm_f - rows[-1]["norm_F"]) > STEP_TOL * norm_f:
        problems.append(f"final norm_F {rows[-1]['norm_F']!r}, reference {norm_f!r}")
    if max(r["max_div"] for r in rows) > DIV_TOL or lat.max_divergence(fields[-1][1]) > DIV_TOL:
        problems.append("divergence above tolerance")
    nu, h = config["solver"]["nu"], config["solver"]["dt"]
    forcing = config["forcing"]
    f = lat.project(lat.random_divfree(forcing["seed"], forcing["decay"], forcing["amplitude"]))
    heat, weight = lat.heat(nu, h), h * lat.phi1(nu, h)
    rng = np.random.default_rng(seed)
    steps = len(fields) - 1
    for i in sorted(rng.choice(steps, size=min(SNAPSHOT_PAIRS, steps), replace=False)):
        (t0, u0), (t1, u1) = fields[i], fields[i + 1]
        expected = heat * u0 + weight * (lat.nonlinear(u0) + f)
        err = _rel(u1, expected)
        if err > STEP_TOL or not math.isclose(t1 - t0, h, rel_tol=1e-9):
            problems.append(f"step {i}->{i + 1}: relative error {err:.2e}")
    return problems


def check_verify(out: Path, exit_code: int) -> tuple:
    """Report complete, every verdict but UNSTABLE_CHECK and the oracle pass,
    exit code consistent.

    Returns (problems, number of checks whose verdict is a failure).
    """
    reports = json.loads((out / "report.json").read_text())
    verdicts = {r["name"]: r["passed"] for r in reports}
    failed = sorted(name for name, passed in verdicts.items() if passed is False)
    problems = []
    if len(reports) != SUITE_REPORTS:
        problems.append(f"{len(reports)} reports, expected {SUITE_REPORTS}")
    problems += [f"{name} failed" for name in failed if name != UNSTABLE_CHECK]
    if verdicts.get("closed_form_vortex_oracle") is not True:
        problems.append("closed_form_vortex_oracle did not pass")
    oracle = next((r for r in reports if r["name"] == "closed_form_vortex_oracle"), None)
    if oracle is not None:
        m = oracle["measurements"]
        if not (m["equation_residual"] <= ORACLE_TOL and m["march_error"] <= ORACLE_TOL):
            problems.append("closed-form oracle above 1e-10")
    if exit_code != (3 if failed else 0):
        problems.append(f"exit code {exit_code} with failed checks {failed}")
    return problems, len(failed)
