"""Self-tests of the benchmark: inputs, output checks, span arithmetic."""

import json
from pathlib import Path

import pytest

import checks
import gen
import run
from crowdsweep.cli import parse_scenario
from tracing import Span, Tracer, self_times

TRUNCATED_STEPS = 160


def test_generator_is_deterministic_and_seeded(tmp_path):
    assert gen.twodisk_scenario(7) == gen.twodisk_scenario(7)
    assert gen.twodisk_scenario(7) != gen.twodisk_scenario(8)
    a, b, c = gen.crowd(7), gen.crowd(7), gen.crowd(8)
    assert (a.scenario_text, a.controls_text) == (b.scenario_text, b.controls_text)
    assert a.scenario_text != c.scenario_text and a.controls_text != c.controls_text
    for name, text in (("twodisk.scn", gen.twodisk_scenario(7)), ("crowd.scn", a.scenario_text)):
        path = tmp_path / name
        path.write_text(text)
        parse_scenario(str(path))


def _small_crowd(work: Path) -> run.Workload:
    """The sim-crowd workload cut to its first steps, which the CLI accepts
    because a controls file carries its own time grid."""
    c = gen.crowd(3)
    scn = work / "crowd.scn"
    scn.write_text(c.scenario_text)
    controls = work / "controls.csv"
    controls.write_text("".join(c.controls_text.splitlines(keepends=True)[: TRUNCATED_STEPS + 2]))
    grid, v = c.grid[: TRUNCATED_STEPS + 1], c.v[:TRUNCATED_STEPS]

    def check(rc, out):
        return checks.check_simulate(rc, out, grid, c.y0, v, c.R)

    return run.Workload(str(scn), "simulate",
                        [run.Step("simulate", {"controls": str(controls)}, check)])


def _edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines))


def _bump_column(column: int, delta: float):
    def edit(line):
        cells = line.rstrip("\n").split(",")
        cells[column] = repr(float(cells[column]) + delta)
        return ",".join(cells) + "\n"
    return edit


@pytest.mark.parametrize("damage", [
    None,
    lambda p: _edit_line(p, 50, _bump_column(1, 1e-6)),          # y1_1 moved
    lambda p: _edit_line(p, 50, _bump_column(3, 5.0)),           # x1_1 leaves its disk
    lambda p: p.write_text("".join(p.read_text().splitlines(keepends=True)[:-1])),
])
def test_simulate_check_counts_damaged_trajectory(tmp_path, damage):
    wl = _small_crowd(tmp_path)
    if damage is not None:
        inner = wl.steps[0].check

        def check(rc, out):
            damage(Path(out) / "trajectory.csv")
            return inner(rc, out)

        wl.steps[0].check = check
    tally = run.Tally()
    run.run_sequence(wl, tmp_path, tally)
    assert tally.attempted == 1
    assert tally.failed == (0 if damage is None else 1)


def test_verify_check_counts_flipped_verdict(tmp_path):
    out = tmp_path / "verify"
    out.mkdir()
    summary = ("run:\n  command: verify\nresult:\n  verified: true\n"
               "  achieved_relative_residual: 1.8e-10\n  tolerance: 0.001\n")
    (out / "summary.txt").write_text(summary)
    assert checks.check_verify(0, str(out)) == ([], {"achieved_residual": 1.8e-10})
    (out / "summary.txt").write_text(summary.replace("verified: true", "verified: false"))
    assert checks.check_verify(0, str(out))[0]
    (out / "summary.txt").write_text(summary)
    assert checks.check_verify(3, str(out))[0]


def test_self_time_subtracts_child_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 4.0, 8.0, 0),
        Span(3, "c", 5.0, 6.0, 2),
        Span(4, "leaf", 9.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 0.5})


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    import crowdsweep
    from crowdsweep import bilevel, cli, dynamics

    originals = (dynamics.integrate_upper, bilevel.integrate_upper, cli.integrate_upper,
                 crowdsweep.integrate_upper)
    tracer = Tracer()
    wl = _small_crowd(tmp_path)
    with tracer.installed():
        assert cli.integrate_upper is not originals[0]
        run.run_sequence(wl, tmp_path, run.Tally())
    assert (dynamics.integrate_upper, bilevel.integrate_upper, cli.integrate_upper,
            crowdsweep.integrate_upper) == originals
    names = {s.name for s in tracer.spans}
    assert {"cli.run.simulate", "cli.parse_scenario", "dynamics.integrate_upper",
            "dynamics.integrate_lower_catchup", "dynamics.check_feasibility"} <= names
    by_name = {s.name: s for s in tracer.spans}
    root = by_name["cli.run.simulate"]
    assert by_name["dynamics.integrate_upper"].parent == root.id
    assert by_name["dynamics.integrate_upper"].work == TRUNCATED_STEPS * 16


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seq = run.Sequence(1.0, {"simulate": 1.0}, 10)
    rel = {"setup_s": [0.5], "wall_s": [2.0], "command_s": [2.0]}
    assert set(run.end_to_end(rel)) == {m["name"] for m in spec["end_to_end"]}
    layer = run.per_layer([], [seq], [seq], run.Tally(), [])
    assert set(layer) == {m["name"] for m in spec["per_layer"]}


@pytest.mark.xfail(strict=True, reason="verify rejects casestudy's 12-digit controls.csv "
                                       "for about one rotation angle in seven at h=0.00125")
def test_casestudy_controls_round_trip(tmp_path):
    """The controls that casestudy writes verify as the casestudy solution does."""
    from crowdsweep import cli

    scn = tmp_path / "twodisk.scn"
    scn.write_text(gen.twodisk_scenario(597911062))
    flags = {"h": 0.00125}
    assert cli.run("casestudy", str(scn), out=str(tmp_path / "casestudy"), **flags) == 0
    controls = str(tmp_path / "casestudy" / "controls.csv")
    rc = cli.run("verify", str(scn), out=str(tmp_path / "verify"), controls=controls, **flags)
    assert checks.check_verify(rc, str(tmp_path / "verify"))[0] == []
