"""The two workloads: which nsmild command each runs and the config it gets.

Every config is generated from the run seed; the seed of each operation
(run.py) goes to the CLI's --seed, which seeds the initial field (`run`)
or the ensembles (`verify`). Smoke sizes use the smallest grids and exist
only to keep the harness from rotting.

Why these two (the per-layer metric each one exercises is in README.md):

- snap2d: 2D N=256 forced exponential-Euler march with a snapshot every
  step. The nonlinearity, diagnostics, snapshot writes, the per-step
  forcing projection and the in-memory trajectory are all a large share.
- verify: the verification suite with a reduced ensemble; many small 3D
  ensembles, embeds, L_p norms and the Picard existence-window search (five
  Picard window solves, the only Picard solves in the benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

NAMES = ("snap2d", "verify")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # nsmild subcommand
    config: dict


def _random_initial(amplitude=1.0, decay=4.0):
    return {"kind": "random", "amplitude": amplitude, "decay": decay}


def snap2d(seed: int, smoke: bool) -> Workload:
    n_modes, steps = (16, 3) if smoke else (256, 16)
    dt = 1e-3
    return Workload("snap2d", "run", {
        "grid": {"dim": 2, "n_modes": n_modes},
        "solver": {"nu": 1.0, "p": 2.0, "scheme": "exp_euler", "dt": dt},
        "forcing": {"kind": "steady", "seed": seed + 1, "amplitude": 1.0, "decay": 4.0},
        "initial": _random_initial(),
        "run": {"t_end": steps * dt, "snapshot_every": 1},
    })


def verify(seed: int, smoke: bool) -> Workload:
    if smoke:
        block = {"ensemble_size": 2, "n_modes": 8, "resolutions": [8, 16],
                 "trajectory_n_modes": 16}
    else:
        block = {"ensemble_size": 4}
    return Workload("verify", "verify", {"verify": block})


MAKERS = {"snap2d": snap2d, "verify": verify}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    return MAKERS[name](seed, smoke)
