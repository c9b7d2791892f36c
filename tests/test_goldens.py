"""Byte-level goldens of the CLI artifacts.

The hashes pin ``trajectory.csv``, ``controls.csv`` and the result section
of ``summary.txt`` of two fixed runs, so any change to the arithmetic order
of the integrators, the feasibility audit or the CSV emitters shows up
here.  They were recorded before the dynamics core was vectorized and must
not move under a pure performance change.  They were recorded on x86-64
with NumPy 2.4 and its bundled OpenBLAS; a BLAS that rounds its dot
products differently gives other hashes.
"""

import hashlib
import json
import os

import numpy as np

from crowdsweep.cli import EXIT_OK, run

TWODISK = os.path.join(os.path.dirname(__file__), "..", "scenarios", "twodisk.scn")

CASESTUDY_SHA256 = {
    "trajectory.csv": "1e0bffe0eda668d4546a340a206d513bd08938feafcfab50db3f69befeeb2055",
    "controls.csv": "53a4b2637285274247152548c67d7213b1994b8224b03ba1fea828aee196a70e",
    "summary.txt": "b1b47ecb57bc373309cc3dc50ff6eaaa1a9cf88951c045089787cb246e9dd3e4",
}
CROWD_SHA256 = {
    "trajectory.csv": "bd0895fc424ff13c19b1182e46f4bed8ccf93c2e13efa225bcf442d18bdb23bd",
    "summary.txt": "efbaf0949d3f2ddda27dd625d8c3e0a06d0cb822024a73ec14b65bc61124a654",
}


def _sha256(path) -> str:
    """Hash of an artifact; for ``summary.txt`` only its ``result`` section,
    because the ``run`` section echoes the (temporary) output paths."""
    data = path.read_bytes()
    if path.name == "summary.txt":
        data = data[data.index(b"result:"):]
    return hashlib.sha256(data).hexdigest()


def _crowd_files(tmp_path):
    """N=4 disks on a 2x2 lattice, affine drift, ball U and V, seeded
    piecewise-constant controls with full-precision values.  The population
    states reach their disk boundaries, so the projection branch runs."""
    rng = np.random.default_rng(20240611)
    N, R, T, K, pieces = 4, 0.5, 2.0, 200, 5
    y0 = [[-3.0, -3.0], [3.0, -3.0], [-3.0, 3.0], [3.0, 3.0]]
    participants = []
    for i in range(N):
        theta = 0.1 * (i + 1)
        participants.append({
            "y0": y0[i],
            "x0": [y0[i][0] + 0.1 * (i - 1.5), y0[i][1] - 0.05 * i],
            "drift": {"family": "affine",
                      "A": [[-0.05 * i, -theta], [theta, 0.02]],
                      "B": [[1.0, 0.1 * i], [0.0, 0.9]],
                      "b": rng.uniform(-0.3, 0.3, 2).tolist()},
            "U": {"shape": "ball", "radius": 1.0},
            "V": {"shape": "ball", "radius": 0.8},
            "M": 5.0,
            "rho": 1.0,
        })
    scenario = {"meta": {"name": "crowd4"},
                "problem": {"N": N, "R": R, "T": T},
                "participants": participants,
                "solver": {"h": T / K}}
    scn = tmp_path / "crowd4.scn"
    scn.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")

    # per piece and participant v then u, inside their balls (0.55 * sqrt(2)
    # < 0.8 and 0.7 * sqrt(2) < 1)
    values = [[rng.uniform(-0.55, 0.55, 2).tolist() + rng.uniform(-0.7, 0.7, 2).tolist()
               for _ in range(N)] for _ in range(pieces)]
    grid = np.linspace(0.0, T, K + 1)
    header = ["t"] + [f"{c}{i+1}_{j}" for i in range(N) for c in "vu" for j in (1, 2)]
    lines = [",".join(header)]
    for k in range(K + 1):
        piece = min(k, K - 1) * pieces // K
        row = [repr(float(grid[k]))]
        row += [repr(val) for part in values[piece] for val in part]
        lines.append(",".join(row))
    controls = tmp_path / "crowd4_controls.csv"
    controls.write_text("\n".join(lines) + "\n")
    return str(scn), str(controls)


def test_casestudy_artifacts_unchanged(tmp_path):
    out = tmp_path / "casestudy"
    assert run("casestudy", TWODISK, out=str(out)) == EXIT_OK
    assert {name: _sha256(out / name) for name in CASESTUDY_SHA256} == CASESTUDY_SHA256


def test_crowd_simulate_trajectory_unchanged(tmp_path):
    scn, controls = _crowd_files(tmp_path)
    out = tmp_path / "simulate"
    assert run("simulate", scn, out=str(out), controls=controls) == EXIT_OK
    text = (out / "trajectory.csv").read_text()
    contact_columns = text.splitlines()[0].split(",")[-4:]
    assert contact_columns == ["contact1", "contact2", "contact3", "contact4"]
    # the run must exercise the projection branch for the golden to mean much
    assert any(line.rsplit(",", 4)[1:].count("1") for line in text.splitlines()[1:])
    assert {name: _sha256(out / name) for name in CROWD_SHA256} == CROWD_SHA256
