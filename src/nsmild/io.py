"""Persistence: binary field snapshots, diagnostics CSV, and run manifests.

Snapshot layout v2 (little-endian): magic "NSMS", u32 version = 2, u32 dim,
u32 n_modes, f64 period, f64 time; then the half spectrum of a real field
(last-axis wavenumbers 0..n/2), shaped (dim,) + (n,)*(dim-1) + (n/2+1,), in
row-major order as (f64 real, f64 imag) pairs. Layout v1 stored the full
(dim,) + (n,)*dim lattice and stays readable: the reader keeps its half.

Fields store the half spectrum (`SpectralVectorField.half`), so a snapshot is
written from the half as stored, and read into a field's half without forming the
full lattice. `write_snapshot`, the one writer, writes a contiguous half without a copy,
such as a kept node of `picard_solve` or the state `march` hands its sink, wrapped in a
`SpectralVectorField` (a view). A field reads back bit for bit, on the half, on the full
lattice `.coeffs` builds from it, and in every physical sample.
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
SNAPSHOT_VERSION = 2
_HEADER = struct.Struct("<4sIIIdd")

CSV_COLUMNS = ("time", "energy", "enstrophy", "max_div", "norm_x_half", "norm_F")


def write_snapshot(path, field: SpectralVectorField, time: float) -> None:
    """Write layout v2 from the field's half spectrum (dim,) + grid.half_shape."""
    grid = field.grid
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.dim, grid.n_modes, grid.period, float(time)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.half, dtype="<c16"))


def read_snapshot(path) -> tuple:
    """Read a snapshot of layout v1 or v2; returns (field, time), the field on the grid
    of the header. A v1 file's full lattice gives the field its first n/2+1 last-axis columns."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header")
    magic, version, dim, n_modes, period, time = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version not in (1, 2):
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    width = n_modes if version == 1 else n_modes // 2 + 1  # stored last-axis columns
    got = (len(raw) - _HEADER.size) / 16
    # make_grid allocates what the header claims, so the body must fit it first; the count
    # is a Python int, and make_grid rejects any other dim before it allocates
    if dim in (2, 3) and got != (expected := dim * n_modes ** (dim - 1) * width):
        raise ValueError(f"{path}: expected {expected} coefficients, got {got:.17g}")
    try:
        grid = make_grid(dim, n_modes, period)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    stored = data.reshape((dim,) + grid.shape[:-1] + (width,))
    # the half (all of a v2 body) is copied out of the bytes
    return SpectralVectorField(grid, stored[..., : n_modes // 2 + 1].copy()), time


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
