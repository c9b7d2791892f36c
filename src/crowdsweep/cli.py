"""Command-line front end: scenario files, dispatch, and artifact emission.

Scenario files are JSON documents with ``meta``, ``problem``,
``participants``, and ``solver`` sections; unknown keys are rejected so a
typo cannot silently change a run.  Outputs are plot-ready delimited text
plus a key/value summary tree carrying the scenario hash and the full flag
set, and identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 1 usage error, 2 infeasibility, 3 verification
failed.  Diagnostics are ``error: <kind>: <detail>`` lines on stderr; a
rejected scenario file, controls file or flag value is ``error: input:``,
and a command line the argument parser rejects, or a flag the command does
not read, is ``error: usage:``.
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
    BilevelSolution,
    InnerInfeasibleError,
    UnsupportedFamilyError,
    _solution,
    solve_bilevel_direct,
    solve_twodisk_parametric,
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
    TruncationViolationError,
    constant_profile,
    h5_bounds,
    integrate_upper,  # unused here; perfbench's tracer test reads this binding
    uniform_grid,
)
from .nco import fit_multipliers

__all__ = ["parse_scenario", "serialize_scenario", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_VERIFIED = 3

# the largest grid a time step may ask for: T/h above it is rejected before
# anything is allocated
MAX_GRID_K = 10**6

# the largest magnitude of a scenario number (NaN and infinities fail too): the
# witness arithmetic squares products of caps, drift coefficients and bounds
MAX_MAGNITUDE = 1e100


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
    a finite JSON number of magnitude at most ``MAX_MAGNITUDE``."""
    value = node[key]

    def numbers(v, depth: int) -> bool:
        if depth == len(shape):
            return isinstance(v, (int, float)) and not isinstance(v, bool)
        return isinstance(v, list) and all(numbers(item, depth + 1) for item in v)

    try:
        arr = np.array(value, float) if numbers(value, 0) else None
    except (ValueError, OverflowError):     # ragged lists, integers beyond float range
        arr = None
    if arr is None or arr.ndim != len(shape) or not np.all(np.abs(arr) <= MAX_MAGNITUDE) \
            or any(m == 0 if n is None else m != n for n, m in zip(shape, arr.shape)):
        dims = "x".join("n" if n is None else str(n) for n in shape)
        kind = f"a {dims} array of finite numbers" if shape else "a finite number"
        raise ScenarioFormatError(f"{path}: {key} must be {kind} of magnitude <= {MAX_MAGNITUDE:g}")
    return arr if shape else float(arr)


def _integer(node: dict, key: str, path: str) -> int:
    if not isinstance(node[key], int) or isinstance(node[key], bool):
        raise ScenarioFormatError(f"{path}: {key} must be an integer, got {node[key]!r}")
    return node[key]


# the file form of each drift family and control-set shape: its class and,
# per field, (file key, attribute, shape as for ``_finite``); parsing and
# serializing both read these tables
_DRIFTS = {
    "scaled_linear": (ScaledLinearDrift, [("c", "coeff", ())]),
    "affine": (AffineDrift, [("A", "A", (2, 2)), ("B", "B", (2, None)), ("b", "b", (2,))]),
}
_SETS = {
    "interval": (IntervalSet, [("lo", "lo", (None,)), ("hi", "hi", (None,))]),
    "segment": (SegmentSet, [("direction", "direction", (2,)), ("halflength", "halflength", ())]),
    "ball": (BallSet, [("radius", "radius", ())]),
}


def _parse_kind(node, path: str, tag: str, table: dict):
    """The drift or control set that ``node`` describes: ``node[tag]`` names
    its kind in the table, and the node holds that kind's keys."""
    _require(node, path, [tag], [key for _cls, fields in table.values() for key, _a, _s in fields])
    kind = node[tag]
    if not isinstance(kind, str) or kind not in table:
        raise ScenarioFormatError(f"{path}: unknown {tag} {kind!r}")
    cls, fields = table[kind]
    _require(node, path, [tag] + [key for key, _a, _s in fields])
    return cls(**{attr: _finite(node, key, path, shape) for key, attr, shape in fields})


def _kind_node(obj, tag: str, table: dict) -> dict:
    """The file form of a drift or control set (see ``_parse_kind``)."""
    for kind, (cls, fields) in table.items():
        if isinstance(obj, cls):
            return {tag: kind, **{key: np.asarray(getattr(obj, attr)).tolist()
                                  for key, attr, _s in fields}}


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
        drifts.append(_parse_kind(node["drift"], f"{ppath}.drift", "family", _DRIFTS))
        U.append(_parse_kind(node["U"], f"{ppath}.U", "shape", _SETS))
        V.append(_parse_kind(node["V"], f"{ppath}.V", "shape", _SETS))
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


def serialize_scenario(scenario: Scenario, solver: Optional[dict] = None) -> str:
    doc = {
        "meta": {"name": scenario.name},
        "problem": {"N": scenario.N, "R": scenario.R, "T": scenario.T},
        "participants": [
            {
                "y0": scenario.y0[i].tolist(),
                "x0": "free" if scenario.x0_free else scenario.x0[i].tolist(),
                "drift": _kind_node(scenario.drift[i], "family", _DRIFTS),
                "U": _kind_node(scenario.U[i], "shape", _SETS),
                "V": _kind_node(scenario.V[i], "shape", _SETS),
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


def _run_texts(values: np.ndarray) -> List[str]:
    """The ``%.12g`` text of each row of values, formatted once per run of
    bitwise-equal rows (bits, not ``==``, so that ``-0.0`` still prints
    ``-0``)."""
    bits = values.view(np.int64)
    new = np.ones(len(values), bool)
    new[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    row_format = ",".join(["%.12g"] * values.shape[1])
    texts = [row_format % tuple(row) for row in values[new].tolist()]
    return [texts[r] for r in (np.cumsum(new) - 1).tolist()]


def _csv(header: List[str], K: int, nodes, groups: Sequence[np.ndarray]) -> Iterator[str]:
    """A CSV file in blocks of rows: the header, then the rows of nodes 0..K
    in the text of ``_fmt``.  ``nodes(s)`` gives the leading columns of the
    nodes in the slice ``s``.  Each of the trailing ``groups`` is a (K+1, m)
    array whose rows repeat in runs; a block formats each run it holds once.
    Only one block of text is held at a time."""
    yield ",".join(header) + "\n"
    node_columns = len(header) - sum(group.shape[1] for group in groups)
    row_format = ",".join(["%.12g"] * node_columns + ["%s"] * len(groups)) + "\n"
    for start in range(0, K + 1, _CSV_BLOCK_ROWS):
        s = slice(start, min(start + _CSV_BLOCK_ROWS, K + 1))
        cells = zip(*[_run_texts(group[s]) for group in groups])
        yield "".join([row_format % (*row, *texts)
                       for row, texts in zip(nodes(s).tolist(), cells)])


def _node_rows(values: np.ndarray) -> np.ndarray:
    """Per-interval values (K, m) as rows of nodes 0..K: the last node
    repeats the final interval."""
    return np.vstack([values, values[-1:]])


def _trajectory_csv(scenario, y, x, u, v) -> Iterator[str]:
    """trajectory.csv (contact flags print as 0/1)."""
    header = ["t"]
    for i in range(scenario.N):
        header += [f"y{i+1}_1", f"y{i+1}_2", f"x{i+1}_1", f"x{i+1}_2"]
    for i in range(scenario.N):
        header += [f"u{i+1}_{c+1}" for c in range(u[i].dim)]
        header += [f"v{i+1}_1", f"v{i+1}_2"]
    for i in range(scenario.N):
        header += [f"contact{i+1}"]
    controls = np.hstack([p.values for i in range(scenario.N) for p in (u[i], v[i])])
    return _csv(header, y.grid.size - 1, lambda s: np.hstack(
        [y.grid[s, None],
         np.concatenate([y.states[s], x.states[s]], axis=2).reshape(-1, 4 * scenario.N)]
    ), [_node_rows(controls), x.contact.astype(float)])


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


def _controls_csv(scenario, grid, u, v) -> Iterator[str]:
    header = ["t"]
    for i in range(scenario.N):
        header += [f"v{i+1}_1", f"v{i+1}_2"]
        header += [f"u{i+1}_{c+1}" for c in range(u[i].dim)]
    controls = np.hstack([p.values for i in range(scenario.N) for p in (v[i], u[i])])
    return _csv(header, grid.size - 1, lambda s: grid[s, None], [_node_rows(controls)])


def _row_fault(lines: List[Tuple[int, str]], header: List[str]) -> str:
    """Why a controls file was rejected: its first data line whose cell count
    is not the header's or that holds a cell that is not a finite number, by
    file line (from 1) and column; else too few rows.  Scans a rejected file."""
    for n, line in lines[1:]:
        cells = line.rstrip("\n").split(",")
        if len(cells) != len(header):
            where = (f"no value in column {header[len(cells)]!r}" if len(cells) < len(header)
                     else f"a cell after the last column {header[-1]!r}")
            return f"line {n}: {len(cells)} cells where the header has {len(header)}: {where}"
        for cell, name in zip(cells, header):
            # numpy's reader takes what float() takes, less "_" and non-ASCII digits
            try:
                good = math.isfinite(float(cell)) and "_" not in cell and cell.strip().isascii()
            except ValueError:
                good = False
            if not good:
                return f"line {n}, column {name!r}: {cell.strip()!r} is not a finite number"
    return "need a header and two or more full rows"


def _read_controls(path: str, scenario: Scenario):
    """Parse a controls file (a header and two or more rows of finite
    decimal numbers, one per column; blank lines are skipped) back into
    per-participant profiles."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, line) for n, line in enumerate(fh, 1) if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    header = lines[0][1].strip().split(",") if lines else []
    try:
        # numpy's C reader rounds correctly, as float() does, but takes no "_"
        # separators; a file with fewer than two data rows is rejected below
        # without it, so its warning on empty input never shows
        data = (np.loadtxt([line for _n, line in lines[1:]], delimiter=",", comments=None,
                           ndmin=2) if len(lines) > 2 else None)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        raise ScenarioFormatError(f"{path}: {_row_fault(lines, header)}")
    twice = next((name for j, name in enumerate(header) if name in header[:j]), None)
    if twice is not None:
        raise ScenarioFormatError(f"{path}: line {lines[0][0]}: column {twice!r} appears twice")
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
    K = scenario.T / h
    if not K <= MAX_GRID_K:
        raise ScenarioFormatError(
            f"time step h={h!r} asks for {K:.3g} grid intervals on T={scenario.T:.12g}, "
            f"more than {MAX_GRID_K}")
    return uniform_grid(scenario.T, max(1, int(round(K))))


def _emit(outdir: str, name: str, text: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    _atomic_write(os.path.join(outdir, name), text)


def _supplied(scenario, v, u) -> BilevelSolution:
    """Supplied controls run from x0, or from the disk centers when x0 is free."""
    return _solution(scenario, v, u, scenario.y0 if scenario.x0_free else scenario.x0, "supplied")


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
    sol = _supplied(scenario, v, u)
    _emit(out, "trajectory.csv", _trajectory_csv(scenario, sol.y, sol.x, sol.u, sol.v))
    summary = [
        _run_node("simulate", scenario, flags),
        ("result", [("feasibility", _feasibility_node(sol.feasibility)),
                    ("cost_upper", sol.J_H),
                    ("cost_lower", [(f"participant_{i+1}", float(sol.J_L[i]))
                                    for i in range(scenario.N)])]),
    ]
    _emit(out, "summary.txt", _summary_text(summary))
    _audit(sol)
    return EXIT_OK


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


class _InfeasiblePath(Exception):
    """A solution failed its feasibility audit."""


def _audit(sol: BilevelSolution) -> BilevelSolution:
    """The solution, once its feasibility audit passes; else raises the
    largest violation, and where it sits."""
    report = sol.feasibility
    if report.ok():
        return sol
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
    raise _InfeasiblePath(where)


def _verification_solution(scenario, solver_cfg, flags) -> BilevelSolution:
    """The supplied or case-study solution of verify and h5check, audited."""
    if flags.get("controls"):
        sol = _supplied(scenario, *_read_controls(flags["controls"], scenario))
    else:
        grid_K = _default_grid(scenario, solver_cfg, flags).size - 1
        sol = solve_twodisk_parametric(scenario, grid_K=grid_K)[1]
    return _audit(sol)


def _verify(scenario, solver_cfg, flags, out) -> int:
    tol = _setting(flags, solver_cfg, "tol")
    tol = 1e-3 if tol is None else _positive(tol, "verification tolerance tol")
    sol = _verification_solution(scenario, solver_cfg, flags)
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
    contact = sol.x.contact[::stride]
    pairs = np.stack([sol.x.states[::stride], sol.y.states[::stride]], axis=2)
    samples = [pairs[contact[:, i], i] for i in range(scenario.N)]
    if not contact.any(axis=0).all():
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


# each command and the flags it reads; every command also takes ``out``
_COMMANDS = {
    "simulate": (_simulate, ("h", "controls")),
    "solve": (_solve, ("grid_K", "seed")),
    "casestudy": (_casestudy, ("h",)),
    "verify": (_verify, ("h", "tol", "controls")),
    "h5check": (_h5check, ("h", "controls")),
}


def run(command: str, scenario_path: str, **flags) -> int:
    """Dispatch one command; returns the process exit code."""
    if command not in _COMMANDS:
        print(f"error: usage: unknown command {command!r}", file=sys.stderr)
        return EXIT_USAGE
    handler, takes = _COMMANDS[command]
    unread = sorted(set(flags) - set(takes) - {"out"})
    if unread:
        print(f"error: usage: {command} does not take --{unread[0].replace('_', '-')}",
              file=sys.stderr)
        return EXIT_USAGE
    out = flags.get("out") or "."
    try:
        scenario, solver_cfg = parse_scenario(scenario_path)
        return handler(scenario, solver_cfg, flags, out)
    except (TruncationViolationError, InfeasibleControlError, InnerInfeasibleError,
            _InfeasiblePath) as exc:
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
    parser.add_argument("--h", type=float, default=None,
                        help="time step for simulate, casestudy, verify and h5check")
    parser.add_argument("--grid-K", type=int, default=None, dest="grid_K",
                        help="coarse control intervals for solve")
    parser.add_argument("--seed", type=int, default=None, help="search seed for solve")
    parser.add_argument("--tol", type=float, default=None,
                        help="verification tolerance for verify")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--controls", default=None,
                        help="controls file for simulate, verify and h5check")
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
