"""Command-line front end: scenario files, dispatch, and artifact emission.

Scenario files are JSON documents with ``meta``, ``problem``,
``participants``, and ``solver`` sections; unknown keys are rejected so a
typo cannot silently change a run.  Outputs are plot-ready delimited text
plus a key/value summary tree carrying the scenario hash and the full flag
set, and identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 1 usage error, 2 infeasibility, 3 verification
failed.  Diagnostics are ``error: <kind>: <detail>`` lines on stderr; a
rejected scenario file, controls file or flag value is ``error: input:``,
and a command line the argument parser rejects is ``error: usage:``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bilevel import (
    InnerInfeasibleError,
    UnsupportedFamilyError,
    solve_bilevel_direct,
    solve_twodisk_parametric,
    BilevelSolution,
)
from .dynamics import (
    AffineDrift,
    BallSet,
    ControlProfile,
    DEFAULT_GRID_K,
    IntervalSet,
    InfeasibleControlError,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    StabilityError,
    TruncationViolationError,
    check_feasibility,
    constant_profile,
    cost_lower,
    cost_upper,
    h5_bounds,
    integrate_lower_catchup,
    integrate_upper,
    uniform_grid,
)
from .nco import fit_multipliers

__all__ = ["parse_scenario", "serialize_scenario", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_VERIFIED = 3


class ScenarioFormatError(ValueError):
    """Input rejected (a scenario or controls file, or a flag value); the
    message names the offending field."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# scenario files


def _require(mapping, path: str, required: Sequence[str],
             optional: Sequence[str] = ()) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioFormatError(f"{path}: expected a JSON object")
    for key in required:
        if key not in mapping:
            raise ScenarioFormatError(f"{path}: missing required key {key!r}")
    for key in mapping:
        if key not in required and key not in optional:
            raise ScenarioFormatError(f"{path}: unknown key {key!r}")


def _finite(node: dict, key: str, path: str, shape: Tuple[Optional[int], ...] = ()):
    """node[key] as a float, or as a float array of the given shape (None
    matches any nonzero length) read from nested lists; every entry must be
    a finite JSON number."""
    value = node[key]

    def numbers(v, depth: int) -> bool:
        if depth == len(shape):
            return isinstance(v, (int, float)) and not isinstance(v, bool)
        return isinstance(v, list) and all(numbers(item, depth + 1) for item in v)

    try:
        arr = np.array(value, float) if numbers(value, 0) else None
    except (ValueError, OverflowError):     # ragged lists, integers beyond float range
        arr = None
    if arr is None or arr.ndim != len(shape) or not np.isfinite(arr).all() or any(
            m == 0 if n is None else m != n for n, m in zip(shape, arr.shape)):
        dims = "x".join("n" if n is None else str(n) for n in shape)
        kind = f"a {dims} array of finite numbers" if shape else "a finite number"
        raise ScenarioFormatError(f"{path}: {key} must be {kind}")
    return arr if shape else float(arr)


def _integer(node: dict, key: str, path: str) -> int:
    if not isinstance(node[key], int) or isinstance(node[key], bool):
        raise ScenarioFormatError(f"{path}: {key} must be an integer, got {node[key]!r}")
    return node[key]


def _parse_drift(node: dict, path: str):
    _require(node, path, ["family"], ["c", "A", "B", "b"])
    family = node["family"]
    if family == "scaled_linear":
        _require(node, path, ["family", "c"])
        return ScaledLinearDrift(_finite(node, "c", path))
    if family == "affine":
        _require(node, path, ["family", "A", "B", "b"])
        return AffineDrift(_finite(node, "A", path, (2, 2)), _finite(node, "B", path, (2, None)),
                           _finite(node, "b", path, (2,)))
    raise ScenarioFormatError(f"{path}: unknown drift family {family!r}")


def _parse_control_set(node: dict, path: str):
    _require(node, path, ["shape"], ["lo", "hi", "direction", "halflength", "radius"])
    shape = node["shape"]
    if shape == "interval":
        _require(node, path, ["shape", "lo", "hi"])
        return IntervalSet(_finite(node, "lo", path, (None,)), _finite(node, "hi", path, (None,)))
    if shape == "segment":
        _require(node, path, ["shape", "direction", "halflength"])
        return SegmentSet(_finite(node, "direction", path, (2,)), _finite(node, "halflength", path))
    if shape == "ball":
        _require(node, path, ["shape", "radius"])
        return BallSet(_finite(node, "radius", path))
    raise ScenarioFormatError(f"{path}: unknown control-set shape {shape!r}")


def parse_scenario(path: str) -> Tuple[Scenario, dict]:
    """Load and validate a scenario file; returns (scenario, solver defaults)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    _require(doc, path, ["problem", "participants"], ["meta", "solver"])
    meta = doc.get("meta", {})
    _require(meta, f"{path}:meta", [], ["name"])
    if not isinstance(meta.get("name", ""), str):
        raise ScenarioFormatError(f"{path}:meta: name must be a string")
    problem = doc["problem"]
    _require(problem, f"{path}:problem", ["N", "R", "T"])
    N = _integer(problem, "N", f"{path}:problem")
    R, T = _finite(problem, "R", f"{path}:problem"), _finite(problem, "T", f"{path}:problem")
    participants = doc["participants"]
    if not isinstance(participants, list) or len(participants) != N:
        raise ScenarioFormatError(f"{path}:participants: expected {N} entries")
    y0, x0, drifts, U, V, M, rho = [], [], [], [], [], [], []
    x0_free = False
    for idx, node in enumerate(participants):
        ppath = f"{path}:participants[{idx}]"
        _require(node, ppath, ["y0", "x0", "drift", "U", "V", "M", "rho"])
        y0.append(_finite(node, "y0", ppath, (2,)))
        if node["x0"] == "free":
            x0_free = True
        else:
            x0.append(_finite(node, "x0", ppath, (2,)))
        drifts.append(_parse_drift(node["drift"], f"{ppath}.drift"))
        U.append(_parse_control_set(node["U"], f"{ppath}.U"))
        V.append(_parse_control_set(node["V"], f"{ppath}.V"))
        M.append(_finite(node, "M", ppath))
        rho.append(_finite(node, "rho", ppath))
    if x0_free and x0:
        raise ScenarioFormatError(
            f"{path}:participants: x0 must be 'free' for all participants or none"
        )
    solver = doc.get("solver", {})
    spath = f"{path}:solver"
    _require(solver, spath, [], ["grid_K", "h", "seed", "tol", "penalty_k"])
    for key in solver:
        if key in ("grid_K", "seed"):
            _integer(solver, key, spath)
        else:
            _finite(solver, key, spath)
    try:
        scenario = Scenario(
            N=N,
            R=R,
            T=T,
            y0=np.vstack(y0),
            drift=drifts,
            U=U,
            V=V,
            M=np.array(M),
            rho=np.array(rho),
            x0=None if x0_free else np.vstack(x0),
            name=str(meta.get("name", "scenario")),
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: invariant violation: {exc}") from exc
    return scenario, dict(solver)


def _drift_node(drift) -> dict:
    if isinstance(drift, ScaledLinearDrift):
        return {"family": "scaled_linear", "c": drift.coeff}
    return {
        "family": "affine",
        "A": drift.A.tolist(),
        "B": drift.B.tolist(),
        "b": drift.b.tolist(),
    }


def _set_node(cset) -> dict:
    if isinstance(cset, IntervalSet):
        return {"shape": "interval", "lo": cset.lo.tolist(), "hi": cset.hi.tolist()}
    if isinstance(cset, SegmentSet):
        return {
            "shape": "segment",
            "direction": cset.direction.tolist(),
            "halflength": cset.halflength,
        }
    return {"shape": "ball", "radius": cset.radius}


def serialize_scenario(scenario: Scenario, solver: Optional[dict] = None) -> str:
    doc = {
        "meta": {"name": scenario.name},
        "problem": {"N": scenario.N, "R": scenario.R, "T": scenario.T},
        "participants": [
            {
                "y0": scenario.y0[i].tolist(),
                "x0": "free" if scenario.x0_free else scenario.x0[i].tolist(),
                "drift": _drift_node(scenario.drift[i]),
                "U": _set_node(scenario.U[i]),
                "V": _set_node(scenario.V[i]),
                "M": float(scenario.M[i]),
                "rho": float(scenario.rho[i]),
            }
            for i in range(scenario.N)
        ],
        "solver": dict(solver or {}),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(scenario).encode()).hexdigest()


# ---------------------------------------------------------------------------
# artifact emission


def _atomic_write(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write the text, or a stream of text chunks, to path atomically."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_CSV_BLOCK_ROWS = 256


def _trajectory_csv(scenario, y, x, u, v) -> Iterator[str]:
    """trajectory.csv in blocks of rows, each row through one ``%.12g``
    format (the text of ``_fmt``; contact flags print as 0/1)."""
    header = ["t"]
    for i in range(scenario.N):
        header += [f"y{i+1}_1", f"y{i+1}_2", f"x{i+1}_1", f"x{i+1}_2"]
    for i in range(scenario.N):
        header += [f"u{i+1}_{c+1}" for c in range(u[i].dim)]
        header += [f"v{i+1}_1", f"v{i+1}_2"]
    for i in range(scenario.N):
        header += [f"contact{i+1}"]
    yield ",".join(header) + "\n"
    row_format = ",".join(["%.12g"] * len(header)) + "\n"
    K = y.grid.size - 1
    for start in range(0, K + 1, _CSV_BLOCK_ROWS):
        k = np.arange(start, min(start + _CSV_BLOCK_ROWS, K + 1))
        kk = np.minimum(k, K - 1)        # controls: last row repeats the final interval
        block = np.hstack(
            [y.grid[k, None], np.concatenate([y.states[k], x.states[k]], axis=2).reshape(k.size, -1)]
            + [np.hstack([u[i].values[kk], v[i].values[kk]]) for i in range(scenario.N)]
            + [x.contact[k]]
        )
        yield "".join([row_format % tuple(row) for row in block.tolist()])


def _tree_lines(node, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines = []
    for key, value in node:
        if isinstance(value, list):
            lines.append(f"{pad}{key}:")
            lines.extend(_tree_lines(value, indent + 1))
        elif isinstance(value, float):
            lines.append(f"{pad}{key}: {_fmt(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _summary_text(sections) -> str:
    return "\n".join(_tree_lines(sections)) + "\n"


def _run_node(command: str, scenario: Scenario, flags: dict) -> tuple:
    """The summary's ``run`` section: command, scenario and every flag."""
    return ("run", [("command", command), ("scenario", scenario.name),
                    ("scenario_hash", scenario_hash(scenario)),
                    ("flags", [(key, flags[key]) for key in sorted(flags)])])


def _feasibility_node(report) -> list:
    return [
        ("overlap_violation", report.overlap_violation),
        ("confinement_violation", report.confinement_violation),
        ("control_violation", report.control_violation),
        ("max_violation", report.max_violation),
    ]


# ---------------------------------------------------------------------------
# controls files


def _controls_csv(scenario, grid, u, v) -> str:
    header = ["t"]
    for i in range(scenario.N):
        header += [f"v{i+1}_1", f"v{i+1}_2"]
        header += [f"u{i+1}_{c+1}" for c in range(u[i].dim)]
    lines = [",".join(header)]
    K = grid.size - 1
    for k in range(K + 1):
        kk = min(k, K - 1)
        row = [_fmt(grid[k])]
        for i in range(scenario.N):
            row += [_fmt(v[i].values[kk, 0]), _fmt(v[i].values[kk, 1])]
            row += [_fmt(val) for val in u[i].values[kk]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _read_controls(path: str, scenario: Scenario):
    """Parse a controls file (a header and two or more rows of finite
    numbers, one per column) back into per-participant profiles."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.strip() for line in fh if line.strip()]
        data = np.array([[float(val) for val in line.split(",")] for line in rows[1:]])
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    header = rows[0].split(",") if rows else []
    if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] != len(header):
        raise ScenarioFormatError(f"{path}: need a header and two or more full rows")
    bad = ~np.isfinite(data).all(axis=0)
    if bad.any():
        raise ScenarioFormatError(f"{path}: non-finite value in column {header[np.argmax(bad)]!r}")
    cols = {name: j for j, name in enumerate(header)}
    if "t" not in cols:
        raise ScenarioFormatError(f"{path}: missing 't' column")
    grid = data[:, cols["t"]]
    if np.any(np.diff(grid) <= 0):
        raise ScenarioFormatError(f"{path}: times in column 't' must increase strictly")
    # a grid that ends before T is accepted: it simulates the first part of the run
    slack = 1e-9 * scenario.T
    if abs(grid[0]) > slack or grid[-1] > scenario.T + slack:
        raise ScenarioFormatError(
            f"{path}: times run from {grid[0]:.12g} to {grid[-1]:.12g}, "
            f"not from 0 to at most the horizon T={scenario.T:.12g}"
        )
    v, u = [], []
    for i in range(scenario.N):
        try:
            vcols = [cols[f"v{i+1}_1"], cols[f"v{i+1}_2"]]
            m = scenario.drift[i].control_dim
            ucols = [cols[f"u{i+1}_{c+1}"] for c in range(m)]
        except KeyError as exc:
            raise ScenarioFormatError(f"{path}: missing column {exc}") from exc
        v.append(ControlProfile(grid=grid, values=data[:-1, vcols]))
        u.append(ControlProfile(grid=grid, values=data[:-1, ucols]))
    return v, u


# ---------------------------------------------------------------------------
# commands


def _setting(flags, solver_cfg, key):
    """A flag, else the scenario's solver default for it, else None."""
    return flags[key] if flags.get(key) is not None else solver_cfg.get(key)


def _positive(value, what: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ScenarioFormatError(f"{what} must be a positive number, got {value!r}")
    return value


def _default_grid(scenario, solver_cfg, flags) -> np.ndarray:
    h = _setting(flags, solver_cfg, "h")
    if h is None:
        return uniform_grid(scenario.T, DEFAULT_GRID_K)
    h = _positive(h, "time step h")
    return uniform_grid(scenario.T, max(1, int(round(scenario.T / h))))


def _emit(outdir: str, name: str, text: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    _atomic_write(os.path.join(outdir, name), text)


def _forward(scenario, v, u) -> BilevelSolution:
    """Run supplied controls from x0 (the disk centers when x0 is free):
    both integrators, then the feasibility audit."""
    y = integrate_upper(scenario, v)
    x0 = scenario.x0 if scenario.x0 is not None else scenario.y0
    x = integrate_lower_catchup(scenario, y, u, x0)
    return BilevelSolution(
        scenario=scenario, v=v, u=u, x0=x0, y=y, x=x,
        J_H=cost_upper(y.terminal()),
        J_L=np.array([cost_lower(p) for p in u]),
        method="supplied", feasibility=check_feasibility(scenario, y, x, u, v),
    )


def _simulate(scenario, solver_cfg, flags, out) -> int:
    grid = _default_grid(scenario, solver_cfg, flags)
    if flags.get("controls"):
        v, u = _read_controls(flags["controls"], scenario)
    else:
        v = [constant_profile(grid, np.zeros(2)) for _ in range(scenario.N)]
        u = [
            constant_profile(grid, np.zeros(scenario.drift[i].control_dim))
            for i in range(scenario.N)
        ]
    sol = _forward(scenario, v, u)
    _emit(out, "trajectory.csv", _trajectory_csv(scenario, sol.y, sol.x, sol.u, sol.v))
    summary = [
        _run_node("simulate", scenario, flags),
        ("result", [("feasibility", _feasibility_node(sol.feasibility)),
                    ("cost_upper", sol.J_H),
                    ("cost_lower", [(f"participant_{i+1}", float(sol.J_L[i]))
                                    for i in range(scenario.N)])]),
    ]
    _emit(out, "summary.txt", _summary_text(summary))
    return EXIT_OK if sol.feasibility.ok() else _infeasible(sol.feasibility)


def _solution_artifacts(out, command, scenario, flags, sol: BilevelSolution,
                        extra: Optional[list] = None) -> None:
    _emit(out, "trajectory.csv", _trajectory_csv(scenario, sol.y, sol.x, sol.u, sol.v))
    _emit(out, "controls.csv", _controls_csv(scenario, sol.y.grid, sol.u, sol.v))
    result = [
        ("method", sol.method),
        ("J_H", sol.J_H),
        ("J_L", [(f"participant_{i+1}", float(sol.J_L[i])) for i in range(scenario.N)]),
        ("feasibility", _feasibility_node(sol.feasibility)),
    ]
    if extra:
        result = extra + result
    _emit(out, "summary.txt", _summary_text([_run_node(command, scenario, flags),
                                             ("result", result)]))


def _solve(scenario, solver_cfg, flags, out) -> int:
    grid_K = _setting(flags, solver_cfg, "grid_K")
    grid_K = 8 if grid_K is None else int(grid_K)
    if grid_K < 2:
        raise ScenarioFormatError(f"grid-K must be at least 2 coarse intervals, got {grid_K}")
    seed = _setting(flags, solver_cfg, "seed")
    seed = 0 if seed is None else int(seed)
    sol = solve_bilevel_direct(scenario, coarse_grid_K=grid_K, seed=seed)
    _solution_artifacts(out, "solve", scenario, flags, sol)
    return EXIT_OK


def _casestudy(scenario, solver_cfg, flags, out) -> int:
    grid = _default_grid(scenario, solver_cfg, flags)
    params, sol = solve_twodisk_parametric(scenario, grid_K=grid.size - 1)
    extra = [
        ("t_a", params.t_a),
        ("t_b", params.t_b),
        ("v_bar", params.v_bar),
        ("gamma2_T", float(params.gamma2(scenario.T))),
    ]
    _solution_artifacts(out, "casestudy", scenario, flags, sol, extra)
    return EXIT_OK


def _verification_solution(scenario, solver_cfg, flags) -> BilevelSolution:
    if flags.get("controls"):
        return _forward(scenario, *_read_controls(flags["controls"], scenario))
    _params, sol = solve_twodisk_parametric(
        scenario, grid_K=_default_grid(scenario, solver_cfg, flags).size - 1
    )
    return sol


def _infeasible(report) -> int:
    """Report the largest violation of a failed feasibility audit, and where
    it sits; returns the infeasibility exit code."""
    worst = report.max_violation
    if report.overlap_violation == worst:
        i, j = report.overlap_pair
        where = f"disks {i + 1} and {j + 1} overlap by {worst:.6g} at t={report.overlap_time:.6g}"
    elif report.confinement_violation == worst:
        where = (f"participant {report.confinement_participant + 1} leaves its disk "
                 f"by {worst:.6g} at t={report.confinement_time:.6g}")
    else:
        where = (f"participant {report.control_participant + 1}: control outside its set "
                 f"by {worst:.6g} at t={report.control_time:.6g}")
    print(f"error: infeasible: {where}", file=sys.stderr)
    return EXIT_INFEASIBLE


def _verify(scenario, solver_cfg, flags, out) -> int:
    tol = _setting(flags, solver_cfg, "tol")
    tol = 1e-3 if tol is None else _positive(tol, "verification tolerance tol")
    sol = _verification_solution(scenario, solver_cfg, flags)
    if not sol.feasibility.ok():
        return _infeasible(sol.feasibility)
    fit = fit_multipliers(sol, tol=tol)
    upper, _lowers, achieved = fit
    report = fit.report
    conditions = [(name, f"{_fmt(report.residuals[name])} "
                         f"{'pass' if report.verdicts[name] else 'FAIL'}")
                  for name in sorted(report.residuals)]
    worst_at = [(name, f"t={_fmt(t)} participant={i + 1}")
                for name, (t, i) in sorted(report.worst_at.items())]
    summary = [
        _run_node("verify", scenario, flags),
        ("result", [
            ("verified", str(report.all_pass).lower()),
            ("achieved_relative_residual", achieved),
            ("tolerance", report.tol),
            ("scale", report.scale),
            ("max_lower_gap", report.residuals["max_lower"]),
            ("objective_weight", upper.objective_weight),
            ("conditions", conditions),
            ("worst_at", worst_at),
            ("notes", [(f"note_{j+1}", note) for j, note in enumerate(report.notes)]),
        ]),
    ]
    _emit(out, "summary.txt", _summary_text(summary))
    return EXIT_OK if report.all_pass else EXIT_NOT_VERIFIED


def _h5check(scenario, solver_cfg, flags, out) -> int:
    sol = _verification_solution(scenario, solver_cfg, flags)
    stride = max(1, (sol.x.grid.size - 1) // 200)
    samples = []
    for i in range(scenario.N):
        rows = []
        for k in range(0, sol.x.grid.size, stride):
            if sol.x.contact[k, i]:
                rows.append((sol.x.states[k, i], sol.y.states[k, i]))
        samples.append(rows)
    if any(not rows for rows in samples):
        print("error: infeasible: no contact samples found on the supplied path",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    bounds = h5_bounds(scenario, samples)
    ok = all(lower < scenario.M[i] < upper for i, (upper, lower) in enumerate(bounds))
    summary = [
        _run_node("h5check", scenario, flags),
        ("result", [
            ("bracket_holds", str(ok).lower()),
            ("participants", [
                (f"participant_{i+1}", [
                    ("upper_bound", bounds[i][0]),
                    ("lower_bound", bounds[i][1]),
                    ("cap", float(scenario.M[i])),
                ])
                for i in range(scenario.N)
            ]),
        ]),
    ]
    _emit(out, "summary.txt", _summary_text(summary))
    return EXIT_OK if ok else EXIT_NOT_VERIFIED


_COMMANDS = {
    "simulate": _simulate,
    "solve": _solve,
    "casestudy": _casestudy,
    "verify": _verify,
    "h5check": _h5check,
}


def run(command: str, scenario_path: str, **flags) -> int:
    """Dispatch one command; returns the process exit code."""
    if command not in _COMMANDS:
        print(f"error: usage: unknown command {command!r}", file=sys.stderr)
        return EXIT_USAGE
    out = flags.get("out") or "."
    try:
        scenario, solver_cfg = parse_scenario(scenario_path)
        return _COMMANDS[command](scenario, solver_cfg, flags, out)
    except (TruncationViolationError, InfeasibleControlError, StabilityError,
            InnerInfeasibleError) as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except UnsupportedFamilyError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # rejected input files and flag values, and any other bad value
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_USAGE


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a rejected command line, where argparse prints its usage text
    and exits 2, the infeasibility code."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _ArgumentParser(
        prog="crowdsweep",
        description="Simulate and solve disk-ensemble sweeping control problems "
                    "and verify first-order optimality of candidate solutions.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("scenario", help="scenario file (.scn)")
    parser.add_argument("--h", type=float, default=None, help="time step")
    parser.add_argument("--grid-K", type=int, default=None, dest="grid_K",
                        help="coarse control intervals for solve")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None,
                        help="verification tolerance")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--controls", default=None,
                        help="controls file for simulate/verify")
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    flags = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "scenario") and value is not None
    }
    return run(args.command, args.scenario, **flags)


if __name__ == "__main__":
    sys.exit(main())
