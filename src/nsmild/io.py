"""Persistence: binary field snapshots, diagnostics CSV, and run manifests.

Snapshot layout (little-endian): magic "NSMS", u32 version = 1, u32 dim,
u32 n_modes, f64 period, f64 time; then for each component in order, all
coefficients in row-major lattice order as (f64 real, f64 imag) pairs.
Writing and reading round-trip bit-exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from .grid import SpectralVectorField, make_grid
from .solver import Trajectory

SNAPSHOT_MAGIC = b"NSMS"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIIdd")

CSV_COLUMNS = ("time", "energy", "enstrophy", "max_div", "norm_x_half", "norm_F")


def write_snapshot(path, field: SpectralVectorField, time: float) -> None:
    grid = field.grid
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.dim, grid.n_modes, grid.period, float(time)
    )
    # written from the array's own buffer: no bytes copy of the field
    body = np.ascontiguousarray(field.coeffs, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(body).cast("B"))


def read_snapshot(path) -> tuple:
    """Read a snapshot; returns (field, time). The grid is rebuilt from the header."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header")
    magic, version, dim, n_modes, period, time = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    grid = make_grid(dim, n_modes, period)
    expected = dim * n_modes**dim
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    if data.size != expected:
        raise ValueError(f"{path}: expected {expected} coefficients, got {data.size}")
    coeffs = data.reshape((dim,) + grid.shape).copy()
    return SpectralVectorField(grid, coeffs), time


def _fmt(x: float) -> str:
    # 17 significant digits round-trip any float64
    return format(float(x), ".17g")


def write_diagnostics_csv(path, traj: Trajectory) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in traj.diagnostics:
        lines.append(",".join(_fmt(v) for v in astuple(row)))
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce or audit a run.

    Runs list only files that exist (validate() asserts it); a failed solve lists none.
    """

    artifact_version: str
    config: dict
    seed: int
    blowup: bool
    started_utc: str
    finished_utc: str
    outputs: list = field(default_factory=list)
    solver_error: str | None = None

    def validate(self) -> None:
        missing = [p for p in self.outputs if not Path(p).exists()]
        if missing:
            raise FileNotFoundError(f"manifest references missing outputs: {missing}")


def write_manifest(path, manifest: RunManifest) -> None:
    manifest.validate()
    Path(path).write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")


def write_report_json(path, reports: list) -> None:
    """Reports are dataclasses (CheckReport, EstimateReport); tuples become JSON lists."""
    Path(path).write_text(json.dumps([asdict(r) for r in reports], indent=2) + "\n")
