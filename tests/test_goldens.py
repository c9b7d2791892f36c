"""Byte-level goldens of the CLI artifacts.

The hashes pin ``trajectory.csv``, ``controls.csv`` and the result section
of ``summary.txt`` of two fixed runs, so any change to the arithmetic order
of the integrators, the feasibility audit or the CSV emitters shows up
here.  The ``verify`` and ``h5check`` summaries of the two-disk case pin the
witness fit, the verifier and the truncation bounds the same way, and the
``scenario_hash`` of each committed scenario is pinned on its own, since the
artifact hashes above skip the ``run`` section that carries it.  None of the
hashes may move under a pure performance change.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from crowdsweep.cli import EXIT_OK, parse_scenario, run, scenario_hash, serialize_scenario

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCENARIOS = os.path.join(ROOT, "scenarios")
TWODISK = os.path.join(SCENARIOS, "twodisk.scn")

CASESTUDY_SHA256 = {
    "trajectory.csv": "1e0bffe0eda668d4546a340a206d513bd08938feafcfab50db3f69befeeb2055",
    "controls.csv": "53a4b2637285274247152548c67d7213b1994b8224b03ba1fea828aee196a70e",
    "summary.txt": "b1b47ecb57bc373309cc3dc50ff6eaaa1a9cf88951c045089787cb246e9dd3e4",
}
CROWD_SHA256 = {
    "trajectory.csv": "bd0895fc424ff13c19b1182e46f4bed8ccf93c2e13efa225bcf442d18bdb23bd",
    "summary.txt": "efbaf0949d3f2ddda27dd625d8c3e0a06d0cb822024a73ec14b65bc61124a654",
}

# summary.txt of verify and h5check on twodisk.scn, at --h 0.02 and at the
# scenario's own h (0.0025)
CERTIFY_SHA256 = {
    ("verify", 0.02): "a1f6da5b82ded5bfca1f2d51fd19d21ff4a9c79927727c74f75271f97ec77388",
    ("verify", None): "c1e2053cea23b2f653979fe6f83b08db22305259605b7694c8b6ffbcec602fdc",
    ("h5check", 0.02): "543c8cce032bd22572c8a5e9e09ea10ba8796c3a00ae1a7980a0a120721902f6",
    ("h5check", None): "dd4076b951885763e15f66ec039a689286c172ff79ba23f7778ea53268b8ff2e",
}


# scenario_hash of each committed scenario: the SHA-256 of its serialization
SCENARIO_SHA256 = {
    "twodisk": "c46e66034fcb87f14ae456598ad6b5772231c29caadaddc9a4896abb874962be",
    "chain3": "bbdb04721a539ad878e50673ed8b5c47713cac31c06163ef6170e23e32b8c37b",
    "mixed4": "80355ae7d580abaaa6d87ce17eddbd3f458e23bd4090b48f79116ef63b3ac56b",
    "freestart": "f4a302e9d700c81dcb1de8b5722102e38b850fa9c88d3b10b061900c041036e4",
}

# scenario_hash with the interpreter's built-in SHA-256 modules hidden, so
# that crowdsweep.cli falls back to hashlib
_FALLBACK_HASHES = r"""
import json, sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
from crowdsweep.cli import parse_scenario, scenario_hash
hashes = [scenario_hash(parse_scenario(path)[0]) for path in sys.argv[1:]]
print(json.dumps({"_hashlib": "_hashlib" in sys.modules, "hashes": hashes}))
"""


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


@pytest.mark.parametrize("command, h", sorted(CERTIFY_SHA256, key=str))
def test_certify_summaries_unchanged(tmp_path, command, h):
    flags = {} if h is None else {"h": h}
    assert run(command, TWODISK, out=str(tmp_path), **flags) == EXIT_OK
    assert _sha256(tmp_path / "summary.txt") == CERTIFY_SHA256[command, h]


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


@pytest.mark.parametrize("name", sorted(SCENARIO_SHA256))
def test_scenario_hash_unchanged(name):
    scenario, _ = parse_scenario(os.path.join(SCENARIOS, name + ".scn"))
    text = serialize_scenario(scenario).encode()
    assert scenario_hash(scenario) == hashlib.sha256(text).hexdigest() == SCENARIO_SHA256[name]


def test_scenario_hash_falls_back_to_hashlib():
    names = sorted(SCENARIO_SHA256)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _FALLBACK_HASHES,
                           *(os.path.join(SCENARIOS, name + ".scn") for name in names)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"_hashlib": True,
                                       "hashes": [SCENARIO_SHA256[name] for name in names]}
