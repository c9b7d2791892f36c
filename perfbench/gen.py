"""Seeded inputs for the benchmark workloads.

The workload seed is the only source of variation: the same seed gives
byte-identical files.  The program under test sees only these files, never
the seed (its own ``--seed`` flag does not change the fixed-``x0`` two-disk
case, so it cannot serve as the workload seed).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import List

import numpy as np

S2 = math.sqrt(2.0)

# crowd scenario: 4x4 lattice of unit disks, horizon 4, 1000 steps
CROWD_SIDE = 4
CROWD_SPACING = 12.0
CROWD_R = 1.0
CROWD_T = 4.0
CROWD_K = 1000
CROWD_PIECES = 8
# Disk speeds and control norms stay below 0.9; with the drift terms below
# the catch-up correction rate stays under 3 < M, and the relative motion of
# two disks (at most 2 * 0.9 * T = 7.2) never closes the lattice gap of 10.
CROWD_CONTROL_NORM = 0.9
CROWD_CAP = 4.0
CROWD_ROTATION = 0.02
CROWD_OFFSET_NORM = 0.2


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def twodisk_scenario(seed: int) -> str:
    """The two-disk reference scenario rotated by a seed-drawn angle."""
    theta = 2.0 * math.pi * random.Random(f"twodisk:{seed}").random()
    c, s = math.cos(theta), math.sin(theta)
    vhat = [c * (-S2 / 2) - s * (S2 / 2), s * (-S2 / 2) + c * (S2 / 2)]
    near = [48 * S2 * vhat[0], 48 * S2 * vhat[1]]
    far = [near[0] + 6 * vhat[0], near[1] + 6 * vhat[1]]
    participants = [
        {
            "y0": y0,
            "x0": y0,
            "drift": {"family": "scaled_linear", "c": -8.0},
            "U": {"shape": "interval", "lo": [0.0], "hi": [1.0]},
            "V": {"shape": "segment", "direction": vhat, "halflength": 10 * S2},
            "M": 6.0,
            "rho": 1.0,
        }
        for y0 in (far, near)
    ]
    return _dump({
        "meta": {"name": f"twodisk-rot-{seed}"},
        "problem": {"N": 2, "R": 3.0, "T": 6.0},
        "participants": participants,
        "solver": {"grid_K": 8, "h": 0.0025, "seed": 0, "tol": 0.001,
                   "penalty_k": 10000.0},
    })


@dataclass
class Crowd:
    """The crowd scenario and its controls, as files and as arrays."""

    scenario_text: str
    controls_text: str
    grid: np.ndarray        # (K+1,)
    y0: np.ndarray          # (N, 2)
    v: np.ndarray           # (K, N, 2) disk velocities
    R: float


def _disk_point(rng: random.Random, radius: float) -> List[float]:
    r = radius * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return [round(r * math.cos(phi), 4), round(r * math.sin(phi), 4)]


def crowd(seed: int) -> Crowd:
    """N=16 disks on a lattice, affine drift, ball U and V, seeded
    piecewise-constant controls; feasible by construction."""
    rng = random.Random(f"crowd:{seed}")
    n = CROWD_SIDE * CROWD_SIDE
    half = (CROWD_SIDE - 1) / 2
    y0 = [[(a - half) * CROWD_SPACING, (b - half) * CROWD_SPACING]
          for b in range(CROWD_SIDE) for a in range(CROWD_SIDE)]
    participants = []
    for i in range(n):
        offset = _disk_point(rng, CROWD_OFFSET_NORM * CROWD_R)
        participants.append({
            "y0": y0[i],
            "x0": [y0[i][0] + offset[0], y0[i][1] + offset[1]],
            "drift": {"family": "affine",
                      "A": [[0.0, -CROWD_ROTATION], [CROWD_ROTATION, 0.0]],
                      "B": [[1.0, 0.0], [0.0, 1.0]],
                      "b": _disk_point(rng, 0.2)},
            "U": {"shape": "ball", "radius": 1.0},
            "V": {"shape": "ball", "radius": 1.0},
            "M": CROWD_CAP,
            "rho": 1.0,
        })
    scenario_text = _dump({
        "meta": {"name": f"crowd-{seed}"},
        "problem": {"N": n, "R": CROWD_R, "T": CROWD_T},
        "participants": participants,
        "solver": {"h": CROWD_T / CROWD_K},
    })

    # per piece and participant: v then u, four decimals so the CSV text
    # parses back to exactly these doubles
    pieces = np.array([[_disk_point(rng, CROWD_CONTROL_NORM) + _disk_point(rng, CROWD_CONTROL_NORM)
                        for _ in range(n)] for _ in range(CROWD_PIECES)])
    grid = np.linspace(0.0, CROWD_T, CROWD_K + 1)
    header = ["t"]
    for i in range(n):
        header += [f"v{i+1}_1", f"v{i+1}_2", f"u{i+1}_1", f"u{i+1}_2"]
    piece_rows = [",".join(repr(float(x)) for x in pieces[p].ravel())
                  for p in range(CROWD_PIECES)]
    lines = [",".join(header)]
    for k in range(CROWD_K + 1):
        p = min(k, CROWD_K - 1) // (CROWD_K // CROWD_PIECES)
        lines.append(f"{float(grid[k])!r},{piece_rows[p]}")
    return Crowd(
        scenario_text=scenario_text,
        controls_text="\n".join(lines) + "\n",
        grid=grid,
        y0=np.array(y0, float),
        v=np.repeat(pieces[:, :, :2], CROWD_K // CROWD_PIECES, axis=0),
        R=CROWD_R,
    )
