"""Output checks, one per CLI command.

Each check takes the exit code and the output directory of one invocation
and returns ``(problems, values)``: a list of human-readable problems (empty
when the invocation is correct) and the quality numbers it read.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

Result = Tuple[List[str], Dict[str, float]]

# criterion-1 ranges of the case-study parameters
CASESTUDY_RANGES = {"t_a": (0.252, 0.254), "t_b": (5.910, 5.920), "v_bar": (11.85, 11.87)}
CASESTUDY_J = 9.0
CASESTUDY_J_TOL = 0.01
SIM_Y_TOL = 1e-9
SIM_X_SLACK = 1e-9


def read_summary(outdir: str) -> Dict[str, str]:
    """Flatten ``summary.txt`` into ``{"result.feasibility.max_violation": "..."}``."""
    flat: Dict[str, str] = {}
    stack: List[Tuple[int, str]] = []
    with open(os.path.join(outdir, "summary.txt"), encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            indent = len(line) - len(line.lstrip(" "))
            key, _, value = line.strip().partition(":")
            while stack and stack[-1][0] >= indent:
                stack.pop()
            path = ".".join([k for _i, k in stack] + [key])
            if value.strip():
                flat[path] = value.strip()
            else:
                stack.append((indent, key))
    return flat


def _guard(rc: int, outdir: str):
    if rc != 0:
        return None, [f"exit code {rc}, expected 0"]
    try:
        return read_summary(outdir), []
    except OSError as exc:
        return None, [f"summary unreadable: {exc}"]


def _number(summary: Dict[str, str], key: str, problems: List[str]) -> float:
    try:
        return float(summary[key])
    except (KeyError, ValueError):
        problems.append(f"{key} missing or not a number")
        return float("nan")


def check_casestudy(rc: int, outdir: str) -> Result:
    summary, problems = _guard(rc, outdir)
    if summary is None:
        return problems, {}
    for key, (lo, hi) in CASESTUDY_RANGES.items():
        value = _number(summary, f"result.{key}", problems)
        if not lo <= value <= hi:
            problems.append(f"{key} {value} outside [{lo}, {hi}]")
    j_h = _number(summary, "result.J_H", problems)
    if not abs(j_h - CASESTUDY_J) <= CASESTUDY_J_TOL:
        problems.append(f"J_H {j_h} not within {CASESTUDY_J_TOL} of {CASESTUDY_J}")
    return problems, {}


def check_verify(rc: int, outdir: str) -> Result:
    summary, problems = _guard(rc, outdir)
    if summary is None:
        return problems, {}
    if summary.get("result.verified") != "true":
        problems.append(f"verified: {summary.get('result.verified')}")
    achieved = _number(summary, "result.achieved_relative_residual", problems)
    tol = _number(summary, "result.tolerance", problems)
    if not achieved <= tol:
        problems.append(f"achieved residual {achieved} > tolerance {tol}")
    return problems, {"achieved_residual": achieved}


def check_h5check(rc: int, outdir: str) -> Result:
    summary, problems = _guard(rc, outdir)
    if summary is None:
        return problems, {}
    if summary.get("result.bracket_holds") != "true":
        problems.append(f"bracket_holds: {summary.get('result.bracket_holds')}")
    return problems, {}


def check_simulate(rc: int, outdir: str, grid: np.ndarray, y0: np.ndarray,
                   v: np.ndarray, R: float) -> Result:
    """Trajectory rows against the supplied controls.

    ``v`` holds the generated disk velocities, shape (K, N, 2); the expected
    disk centers are ``y0 + cumsum(h * v)``.
    """
    if rc != 0:
        return [f"exit code {rc}, expected 0"], {}
    path = os.path.join(outdir, "trajectory.csv")
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"trajectory unreadable: {exc}"], {}
    K, N = v.shape[0], v.shape[1]
    if data.shape[0] != K + 1:
        return [f"{data.shape[0]} trajectory rows, expected {K + 1}"], {}
    cols = {name: j for j, name in enumerate(header)}
    try:
        y = np.stack([data[:, [cols[f"y{i+1}_1"], cols[f"y{i+1}_2"]]] for i in range(N)], axis=1)
        x = np.stack([data[:, [cols[f"x{i+1}_1"], cols[f"x{i+1}_2"]]] for i in range(N)], axis=1)
    except KeyError as exc:
        return [f"trajectory column {exc} missing"], {}
    expected = np.empty_like(y)
    expected[0] = y0
    expected[1:] = y0 + np.cumsum(np.diff(grid)[:, None, None] * v, axis=0)
    problems = []
    y_err = float(np.max(np.abs(y - expected)))
    if not y_err <= SIM_Y_TOL:
        problems.append(f"disk centers off y0 + sum(h*v) by {y_err:.3g}")
    reach = float(np.max(np.linalg.norm(x - y, axis=2)))
    if not reach <= R * (1 + SIM_X_SLACK):
        problems.append(f"population state {reach!r} from its disk center, R = {R}")
    return problems, {}
