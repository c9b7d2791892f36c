"""Command-line front end: scenario files, dispatch, and artifact emission.

Scenario files are JSON documents with ``meta``, ``problem``,
``participants``, and ``solver`` sections; unknown keys are rejected so a
typo cannot silently change a run.  Outputs are plot-ready delimited text
plus a key/value summary tree carrying the scenario hash and the full flag
set, and identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 1 usage error, 2 infeasibility, 3 verification
failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
from .nco import fit_multipliers, max_condition_lower, verify

__all__ = ["parse_scenario", "serialize_scenario", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_VERIFIED = 3


class ScenarioFormatError(ValueError):
    """Scenario file rejected; the message names the offending field."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# scenario files


def _require(mapping: dict, path: str, required: Sequence[str],
             optional: Sequence[str] = ()) -> None:
    for key in required:
        if key not in mapping:
            raise ScenarioFormatError(f"{path}: missing required key {key!r}")
    for key in mapping:
        if key not in required and key not in optional:
            raise ScenarioFormatError(f"{path}: unknown key {key!r}")


def _parse_drift(node: dict, path: str):
    _require(node, path, ["family"], ["c", "A", "B", "b"])
    family = node["family"]
    if family == "scaled_linear":
        _require(node, path, ["family", "c"])
        return ScaledLinearDrift(float(node["c"]))
    if family == "affine":
        _require(node, path, ["family", "A", "B", "b"])
        return AffineDrift(np.array(node["A"], float), np.array(node["B"], float),
                           np.array(node["b"], float))
    raise ScenarioFormatError(f"{path}: unknown drift family {family!r}")


def _parse_control_set(node: dict, path: str):
    _require(node, path, ["shape"], ["lo", "hi", "direction", "halflength", "radius"])
    shape = node["shape"]
    if shape == "interval":
        _require(node, path, ["shape", "lo", "hi"])
        return IntervalSet(np.atleast_1d(np.array(node["lo"], float)),
                           np.atleast_1d(np.array(node["hi"], float)))
    if shape == "segment":
        _require(node, path, ["shape", "direction", "halflength"])
        return SegmentSet(np.array(node["direction"], float), float(node["halflength"]))
    if shape == "ball":
        _require(node, path, ["shape", "radius"])
        return BallSet(float(node["radius"]))
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
    problem = doc["problem"]
    _require(problem, f"{path}:problem", ["N", "R", "T"])
    participants = doc["participants"]
    if not isinstance(participants, list) or len(participants) != int(problem["N"]):
        raise ScenarioFormatError(
            f"{path}:participants: expected {problem['N']} entries"
        )
    y0, x0, drifts, U, V, M, rho = [], [], [], [], [], [], []
    x0_free = False
    for idx, node in enumerate(participants):
        ppath = f"{path}:participants[{idx}]"
        _require(node, ppath, ["y0", "x0", "drift", "U", "V", "M", "rho"])
        y0.append(np.array(node["y0"], float))
        if node["x0"] == "free":
            x0_free = True
        else:
            x0.append(np.array(node["x0"], float))
        drifts.append(_parse_drift(node["drift"], f"{ppath}.drift"))
        U.append(_parse_control_set(node["U"], f"{ppath}.U"))
        V.append(_parse_control_set(node["V"], f"{ppath}.V"))
        M.append(float(node["M"]))
        rho.append(float(node["rho"]))
    if x0_free and x0:
        raise ScenarioFormatError(
            f"{path}:participants: x0 must be 'free' for all participants or none"
        )
    solver = doc.get("solver", {})
    _require(solver, f"{path}:solver", [], ["grid_K", "h", "seed", "tol", "penalty_k"])
    try:
        scenario = Scenario(
            N=int(problem["N"]),
            R=float(problem["R"]),
            T=float(problem["T"]),
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


def _flags_node(flags: dict) -> list:
    return [(key, flags[key]) for key in sorted(flags)]


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


def _default_grid(scenario, solver_cfg, flags) -> np.ndarray:
    h = flags.get("h") or solver_cfg.get("h")
    if h:
        K = max(1, int(round(scenario.T / float(h))))
    else:
        K = DEFAULT_GRID_K
    return uniform_grid(scenario.T, K)


def _emit(outdir: str, name: str, text: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    _atomic_write(os.path.join(outdir, name), text)


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
    y = integrate_upper(scenario, v)
    x0 = scenario.x0 if scenario.x0 is not None else scenario.y0
    x = integrate_lower_catchup(scenario, y, u, x0)
    audit = check_feasibility(scenario, y, x, u, v)
    _emit(out, "trajectory.csv", _trajectory_csv(scenario, y, x, u, v))
    summary = [
        ("run", [("command", "simulate"), ("scenario", scenario.name),
                 ("scenario_hash", scenario_hash(scenario)),
                 ("flags", _flags_node(flags))]),
        ("result", [("feasibility", _feasibility_node(audit)),
                    ("cost_upper", cost_upper(y.terminal())),
                    ("cost_lower", [(f"participant_{i+1}", cost_lower(u[i]))
                                    for i in range(scenario.N)])]),
    ]
    _emit(out, "summary.txt", _summary_text(summary))
    return EXIT_OK if audit.ok() else EXIT_INFEASIBLE


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
    summary = [
        ("run", [("command", command), ("scenario", scenario.name),
                 ("scenario_hash", scenario_hash(scenario)),
                 ("flags", _flags_node(flags))]),
        ("result", result),
    ]
    _emit(out, "summary.txt", _summary_text(summary))


def _solve(scenario, solver_cfg, flags, out) -> int:
    grid_K = int(flags.get("grid_K") or solver_cfg.get("grid_K") or 8)
    seed = int(flags.get("seed") if flags.get("seed") is not None
               else solver_cfg.get("seed", 0))
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
        v, u = _read_controls(flags["controls"], scenario)
        y = integrate_upper(scenario, v)
        x0 = scenario.x0 if scenario.x0 is not None else scenario.y0
        x = integrate_lower_catchup(scenario, y, u, x0)
        audit = check_feasibility(scenario, y, x, u, v)
        return BilevelSolution(
            scenario=scenario, v=v, u=u, x0=x0, y=y, x=x,
            J_H=cost_upper(y.terminal()),
            J_L=np.array([cost_lower(p) for p in u]),
            method="supplied", feasibility=audit,
        )
    _params, sol = solve_twodisk_parametric(
        scenario, grid_K=_default_grid(scenario, solver_cfg, flags).size - 1
    )
    return sol


def _verify(scenario, solver_cfg, flags, out) -> int:
    sol = _verification_solution(scenario, solver_cfg, flags)
    tol = float(flags.get("tol") or solver_cfg.get("tol") or 1e-3)
    upper, lowers, achieved = fit_multipliers(sol, tol=tol)
    report = verify(sol, upper, lowers, tol=tol)
    gap = float(np.max(max_condition_lower(sol, upper)))
    conditions = [(name, f"{_fmt(report.residuals[name])} "
                         f"{'pass' if report.verdicts[name] else 'FAIL'}")
                  for name in sorted(report.residuals)]
    summary = [
        ("run", [("command", "verify"), ("scenario", scenario.name),
                 ("scenario_hash", scenario_hash(scenario)),
                 ("flags", _flags_node(flags))]),
        ("result", [
            ("verified", str(report.all_pass).lower()),
            ("achieved_relative_residual", achieved),
            ("tolerance", report.tol),
            ("scale", report.scale),
            ("max_lower_gap", gap),
            ("objective_weight", upper.objective_weight),
            ("conditions", conditions),
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
        print("error: no contact samples found on the supplied path", file=sys.stderr)
        return EXIT_INFEASIBLE
    bounds = h5_bounds(scenario, samples)
    ok = all(lower < scenario.M[i] < upper for i, (upper, lower) in enumerate(bounds))
    summary = [
        ("run", [("command", "h5check"), ("scenario", scenario.name),
                 ("scenario_hash", scenario_hash(scenario)),
                 ("flags", _flags_node(flags))]),
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
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return EXIT_USAGE
    out = flags.get("out") or "."
    try:
        scenario, solver_cfg = parse_scenario(scenario_path)
    except ScenarioFormatError as exc:
        print(f"error: scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[command](scenario, solver_cfg, flags, out)
    except (TruncationViolationError, InfeasibleControlError, StabilityError,
            InnerInfeasibleError) as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except UnsupportedFamilyError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioFormatError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
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
    parser.add_argument("--penalty-k", type=float, default=None, dest="penalty_k",
                        help="stiffness of the penalty integrator")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--controls", default=None,
                        help="controls file for simulate/verify")
    args = parser.parse_args(argv)
    flags = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "scenario") and value is not None
    }
    return run(args.command, args.scenario, **flags)


if __name__ == "__main__":
    sys.exit(main())
