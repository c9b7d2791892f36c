"""Benchmark of the crowdsweep command line, driven in-process.

    python3 perfbench/run.py --workload certify-twodisk --seed 1 --seconds 45 --trace 0

Generates the workload's inputs from ``--seed``, then runs its command
sequence through ``crowdsweep.cli.run`` again and again until ``--seconds``
have passed (at least once), checking every output.  The load is a closed
loop with one client: one process, one thread, each command starting after
the previous one returned.  The last line of standard output is one JSON
object; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
Metric names and units come from ``BENCHMARK.json``.

Times are taken relative to the host's speed at that moment: on a shared
host whose speed swings by up to 2x for seconds to minutes at a time, raw
times do not repeat from run to run.  Between repetitions the run times one
fixed unit of calibration work that does not touch crowdsweep.  Each
repetition's time is divided by the mean of the units just before and just
after it, and a metric is the median of those ratios times ``CAL_REF_S``:
seconds on the reference host at its typical speed.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # every array the package touches is tiny: keep BLAS/OpenMP
    # single-threaded (set before numpy is first imported)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import checks
import gen
from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 15                # fresh interpreters per run, spread over the run
CAL_STEPS, CAL_PASSES = 250, 16   # size of one calibration unit
CAL_REF_S = 0.3                # its typical time on the reference host
SETUP_CODE = "import sys; from crowdsweep.cli import parse_scenario; parse_scenario(sys.argv[1])"
CERTIFY_H = 0.02               # K = 300 steps on T = 6
COMMANDS = ("simulate", "casestudy", "verify", "h5check")


@dataclass
class Step:
    command: str
    flags: dict
    check: Callable[[int, str], checks.Result]


@dataclass
class Workload:
    scenario: str
    main: str                      # command timed as command_s
    steps: List[Step]
    probe_plan: str = ""           # time the greedy inner solve on this command's plan


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def certify_twodisk(work: Path, seed: int) -> Workload:
    # verify builds the case-study solution itself: fed the controls.csv that
    # casestudy writes, it rejects about one rotation angle in seven (see
    # test_casestudy_controls_round_trip in test_perfbench.py)
    scn = _write(work / "twodisk.scn", gen.twodisk_scenario(seed))
    return Workload(scn, "verify", [
        Step("casestudy", {"h": CERTIFY_H}, checks.check_casestudy),
        Step("verify", {"h": CERTIFY_H}, checks.check_verify),
        Step("h5check", {"h": CERTIFY_H}, checks.check_h5check),
    ], probe_plan="casestudy")


def sim_crowd(work: Path, seed: int) -> Workload:
    c = gen.crowd(seed)
    scn = _write(work / "crowd.scn", c.scenario_text)
    controls = _write(work / "controls.csv", c.controls_text)
    grid, y0, v, R = c.grid, c.y0, c.v, c.R     # the file texts need not stay alive
    return Workload(scn, "simulate", [
        Step("simulate", {"controls": controls},
             lambda rc, out: checks.check_simulate(rc, out, grid, y0, v, R)),
    ])


WORKLOADS = {
    "certify-twodisk": certify_twodisk,
    "sim-crowd": sim_crowd,
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    values: Dict[str, List[float]] = field(default_factory=dict)


@dataclass
class Sequence:
    wall: float
    times: Dict[str, float]
    artifact_bytes: int


def run_sequence(wl: Workload, work: Path, tally: Tally) -> Sequence:
    """One pass over the workload's commands; only the commands are timed."""
    from crowdsweep import cli

    out_root = work / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    times = {}
    for step in wl.steps:
        out = str(out_root / step.command)
        tally.attempted += 1
        start = time.perf_counter()
        try:
            rc = cli.run(step.command, wl.scenario, out=out, **step.flags)
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            times[step.command] = time.perf_counter() - start
            tally.failed += 1
            print(f"perfbench: {step.command} raised {exc!r}", file=sys.stderr)
            continue
        times[step.command] = time.perf_counter() - start
        problems, values = step.check(rc, out)
        if problems:
            tally.failed += 1
            print(f"perfbench: {step.command}: {'; '.join(problems)}", file=sys.stderr)
        for key, value in values.items():
            tally.values.setdefault(key, []).append(value)
    size = sum(f.stat().st_size for f in out_root.rglob("*") if f.is_file())
    print("perfbench: " + " ".join(f"{k} {v:.3f}s" for k, v in times.items()), file=sys.stderr)
    return Sequence(sum(times.values()), times, size)


def measure_setup(scenario: str) -> float:
    """Wall time of a fresh interpreter importing the CLI and parsing."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, scenario], env=env, check=True)
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds of one fixed unit of calibration work: the kinds of work the
    package does (stepwise small-array arithmetic, whole-array reductions,
    float formatting), written here without any of its code."""
    import numpy as np

    pts = np.sin(0.7 * np.arange(CAL_STEPS * 32.0)).reshape(CAL_STEPS, 16, 2)
    start = time.perf_counter()
    x = np.zeros(2)
    gap = 0.0
    for _ in range(CAL_PASSES):
        for k in range(CAL_STEPS):
            for i in range(0, 16, 2):
                d = pts[k, i] - x
                x = x + 0.01 * d / (1.0 + float(np.linalg.norm(d)))
        for block in np.split(pts, CAL_STEPS // 50):
            gap += float(np.linalg.norm(block[:, :, None] - block[:, None], axis=-1).sum())
        text = "\n".join(",".join(f"{v:.12g}" for v in row) for row in pts.reshape(CAL_STEPS, -1))
    elapsed = time.perf_counter() - start
    assert np.isfinite(x).all() and gap > 0.0 and text
    return elapsed


class HostClock:
    """Calibration units timed between repetitions.  Call ``bracket()`` right
    after a repetition: it times the next unit and returns the mean of the
    units just before and just after the repetition."""

    def __init__(self) -> None:
        self.units = [calibrate()]

    def bracket(self) -> float:
        self.units.append(calibrate())
        return 0.5 * (self.units[-2] + self.units[-1])


def probe_inner_greedy(wl: Workload, work: Path) -> List[float]:
    """Milliseconds of one greedy inner solve per participant on the solved plan."""
    import numpy as np
    from crowdsweep.bilevel import InnerOptions, value_function
    from crowdsweep.cli import parse_scenario
    from crowdsweep.dynamics import ControlProfile

    path = work / "out" / wl.probe_plan / "controls.csv"
    if not path.is_file():      # the command failed, and that is counted already
        return []
    scenario = parse_scenario(wl.scenario)[0]
    with open(path, encoding="utf-8") as fh:
        cols = {name: j for j, name in enumerate(fh.readline().strip().split(","))}
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    samples = []
    for i in range(scenario.N):
        v_i = ControlProfile(grid=data[:, cols["t"]],
                             values=data[:-1, [cols[f"v{i+1}_1"], cols[f"v{i+1}_2"]]])
        start = time.perf_counter()
        value_function(scenario, i, v_i, InnerOptions(refine=False, multistart=1))
        samples.append(1e3 * (time.perf_counter() - start))
    return samples


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(rel: Dict[str, List[float]]) -> Dict[str, float]:
    """``rel`` holds times in calibration units, per metric."""
    return {
        "setup_s": CAL_REF_S * _median(rel["setup_s"]),
        "wall_s": CAL_REF_S * _median(rel["wall_s"]),
        "command_s": CAL_REF_S * _median(rel["command_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spans, traced: List[Sequence], untraced: List[Sequence],
              tally: Tally, probe_ms: List[float]) -> Dict[str, float]:
    """Per traced sequence: calls, seconds and self seconds of each span name."""
    n = len(traced)
    selfs = self_times(spans)
    calls: Dict[str, int] = {}
    secs: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    work: Dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        secs[s.name] = secs.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
        work[s.name] = work.get(s.name, 0) + s.work

    def per_unit(name, scale):
        return scale * secs.get(name, 0.0) / work[name] if work.get(name) else 0.0

    m: Dict[str, float] = {}
    for name in ("dynamics.integrate_upper", "dynamics.integrate_lower_catchup",
                 "dynamics.check_feasibility", "bilevel.solve_twodisk_parametric",
                 "nco.verify", "nco.adjoint_residual", "nco.boundary_residual",
                 "nco.max_condition_lower", "nco.max_condition_upper"):
        m[f"{name}.calls"] = calls.get(name, 0) / n
        m[f"{name}.s"] = secs.get(name, 0.0) / n
    m["dynamics.integrate_upper.us_per_step"] = per_unit("dynamics.integrate_upper", 1e6)
    m["dynamics.integrate_lower_catchup.us_per_step"] = per_unit(
        "dynamics.integrate_lower_catchup", 1e6)
    m["dynamics.check_feasibility.us_per_row"] = per_unit("dynamics.check_feasibility", 1e6)
    for name in ("nco.fit_multipliers", "nco.verify"):
        m[f"{name}.s"] = secs.get(name, 0.0) / n
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    m["bilevel.inner_greedy.ms_per_solve"] = _median(probe_ms)
    m["nco.achieved_residual"] = _median(tally.values.get("achieved_residual", []))
    m["cli.parse_scenario.s"] = secs.get("cli.parse_scenario", 0.0) / n
    for command in COMMANDS:
        m[f"cli.run.{command}.s"] = secs.get(f"cli.run.{command}", 0.0) / n
    m["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli.run.")) / n
    m["cli.artifact_bytes"] = _median([s.artifact_bytes for s in traced])
    m["trace.overhead_s"] = _median([s.wall for s in traced]) - _median([s.wall for s in untraced])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crowdsweep" / "cli.py").is_file():
        print(f"perfbench: no crowdsweep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        tally = Tally()
        tracer = Tracer()
        rel: Dict[str, List[float]] = {"setup_s": [], "wall_s": [], "command_s": []}
        clock = None if args.trace else HostClock()
        plain: List[Sequence] = []
        traced: List[Sequence] = []
        probe_ms: List[float] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if (traced if args.trace else plain) and elapsed >= args.seconds:
                break
            if clock and len(rel["setup_s"]) <= SETUP_REPS * elapsed / args.seconds:
                setup = measure_setup(wl.scenario)
                rel["setup_s"].append(setup / clock.bracket())
            elif args.trace and len(traced) < len(plain):
                with tracer.installed():
                    traced.append(run_sequence(wl, work, tally))
                if wl.probe_plan:
                    probe_ms += probe_inner_greedy(wl, work)
            else:
                plain.append(run_sequence(wl, work, tally))
                if clock:
                    unit = clock.bracket()
                    rel["wall_s"].append(plain[-1].wall / unit)
                    rel["command_s"].append(plain[-1].times[wl.main] / unit)
        if args.trace:
            tracer.dump(str(scratch / f"trace-{args.workload}-{args.seed}.json"))
            values = per_layer(tracer.spans, traced, plain, tally, probe_ms)
        else:
            values = end_to_end(rel)
            print(f"perfbench: raw medians: wall {_median([s.wall for s in plain]):.4f}s, "
                  f"calibration {_median(clock.units):.4f}s over {len(clock.units)} units",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = {m["name"] for m in declared}
    if names != set(values):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ names)} "
                         "are not both computed and declared in BENCHMARK.json")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
