import copy
import json
import math
import os
import re

import numpy as np
import pytest

from crowdsweep.cli import (
    EXIT_INFEASIBLE,
    EXIT_NOT_VERIFIED,
    EXIT_OK,
    EXIT_USAGE,
    ScenarioFormatError,
    main,
    parse_scenario,
    run,
    serialize_scenario,
)

S2 = math.sqrt(2)

TWODISK = os.path.join(os.path.dirname(__file__), "..", "scenarios", "twodisk.scn")
VHAT = np.array([-S2 / 2, S2 / 2])   # from the exit toward the disks


def write_controls(tmp_path, velocities, times=np.linspace(0.0, 6.0, 61)):
    """A two-disk controls file with constant disk velocities and zero
    population controls."""
    lines = ["t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1"]
    for t in times:
        row = [f"{t:.12g}"]
        for v in velocities:
            row += [f"{v[0]:.12g}", f"{v[1]:.12g}", "0"]
        lines.append(",".join(row))
    path = tmp_path / "controls.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_scenario(tmp_path, mutate=None, name="case.scn"):
    with open(TWODISK) as fh:
        doc = json.load(fh)
    if mutate:
        mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


class TestParseScenario:
    def test_twodisk_touching_disks(self):
        scenario, solver = parse_scenario(TWODISK)
        gap = np.linalg.norm(scenario.y0[0] - scenario.y0[1])
        assert gap == pytest.approx(2 * scenario.R, abs=1e-9)
        assert solver["grid_K"] == 8

    def test_overlapping_centers_rejected(self, tmp_path):
        def overlap(doc):
            doc["participants"][0]["y0"] = doc["participants"][1]["y0"]
            doc["participants"][0]["x0"] = doc["participants"][1]["x0"]

        path = write_scenario(tmp_path, overlap)
        with pytest.raises(ScenarioFormatError, match="non-overlap"):
            parse_scenario(path)

    def test_zero_cap_rejected(self, tmp_path):
        def zero_cap(doc):
            doc["participants"][0]["M"] = 0.0

        path = write_scenario(tmp_path, zero_cap)
        with pytest.raises(ScenarioFormatError, match="M must be positive"):
            parse_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        def unknown(doc):
            doc["problem"]["weird"] = 1

        path = write_scenario(tmp_path, unknown)
        with pytest.raises(ScenarioFormatError, match="unknown key"):
            parse_scenario(path)

    def test_round_trip(self, tmp_path):
        scenario, solver = parse_scenario(TWODISK)
        echoed = tmp_path / "echo.scn"
        echoed.write_text(serialize_scenario(scenario, solver))
        scenario2, solver2 = parse_scenario(str(echoed))
        assert serialize_scenario(scenario2, solver2) == serialize_scenario(
            scenario, solver
        )


class TestCommands:
    def test_simulate_resting_scenario_constant_columns(self, tmp_path):
        def freeze(doc):
            for node in doc["participants"]:
                node["V"] = {"shape": "segment",
                             "direction": [-S2 / 2, S2 / 2], "halflength": 0.0}
            doc["solver"]["h"] = 0.01

        path = write_scenario(tmp_path, freeze)
        out = tmp_path / "out"
        assert run("simulate", path, out=str(out)) == EXIT_OK
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        first = rows[1].split(",")[1:]
        last = rows[-1].split(",")[1:]
        assert first == last

    def test_casestudy_summary_numbers(self, tmp_path):
        out = tmp_path / "cs"
        assert run("casestudy", TWODISK, out=str(out)) == EXIT_OK
        summary = (out / "summary.txt").read_text()
        values = {}
        for line in summary.splitlines():
            line = line.strip()
            for key in ("t_a:", "t_b:", "v_bar:", "J_H:"):
                if line.startswith(key):
                    values[key[:-1]] = float(line.split()[-1])
        assert 0.252 <= values["t_a"] <= 0.254
        assert 5.910 <= values["t_b"] <= 5.920
        assert 11.85 <= values["v_bar"] <= 11.87
        assert values["J_H"] == pytest.approx(9.0, abs=0.01)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("casestudy", TWODISK, out=str(out1), h=0.01) == EXIT_OK
        assert run("casestudy", TWODISK, out=str(out2), h=0.01) == EXIT_OK
        for name in ("summary.txt", "trajectory.csv", "controls.csv"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1.replace(str(out1).encode(), b"") == b2.replace(
                str(out2).encode(), b""
            )

    def test_h5check_reports_bracket(self, tmp_path):
        out = tmp_path / "h5"
        assert run("h5check", TWODISK, out=str(out), h=0.01) == EXIT_OK
        text = (out / "summary.txt").read_text()
        assert "bracket_holds: true" in text
        upper = [float(l.split()[-1]) for l in text.splitlines()
                 if l.strip().startswith("upper_bound:")]
        assert all(abs(v - 10 * S2) <= 1e-6 for v in upper)

    def test_h5check_flags_oversized_cap(self, tmp_path):
        def big_cap(doc):
            for node in doc["participants"]:
                node["M"] = 20.0

        path = write_scenario(tmp_path, big_cap)
        out = tmp_path / "h5bad"
        assert run("h5check", path, out=str(out), h=0.01) == EXIT_NOT_VERIFIED
        assert "bracket_holds: false" in (out / "summary.txt").read_text()

    def test_verify_reference_solution(self, tmp_path):
        out = tmp_path / "vf"
        assert run("verify", TWODISK, out=str(out)) == EXIT_OK
        text = (out / "summary.txt").read_text()
        assert "verified: true" in text
        assert "scenario_hash:" in text

    def test_verify_with_supplied_controls(self, tmp_path):
        solved = tmp_path / "solved"
        assert run("casestudy", TWODISK, out=str(solved), h=0.005) == EXIT_OK
        out = tmp_path / "vf2"
        code = run("verify", TWODISK, out=str(out), h=0.005,
                   controls=str(solved / "controls.csv"))
        assert code == EXIT_OK
        assert "verified: true" in (out / "summary.txt").read_text()

    def test_simulate_with_infeasible_controls(self, tmp_path, capsys):
        controls = write_controls(tmp_path, [-12.0 * VHAT] * 2)
        out = tmp_path / "sim"
        code = run("simulate", TWODISK, out=str(out), controls=controls)
        assert code == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("error: infeasible: participant 1 at t=")

    def test_verify_with_overlapping_controls_is_infeasible(self, tmp_path, capsys):
        # disk 1 drives along the exit ray into disk 2, which stays at rest
        controls = write_controls(tmp_path, [-3.0 * VHAT, np.zeros(2)])
        sim = tmp_path / "sim"
        assert run("simulate", TWODISK, out=str(sim), controls=controls) == EXIT_INFEASIBLE
        simulate_err = capsys.readouterr().err
        assert (sim / "trajectory.csv").exists() and (sim / "summary.txt").exists()
        assert run("verify", TWODISK, out=str(tmp_path / "vf"),
                   controls=controls) == EXIT_INFEASIBLE
        verify_err = capsys.readouterr().err
        for err in (simulate_err, verify_err):
            assert err.startswith("error: infeasible: disks 1 and 2 overlap by ")
            assert err.count("\n") == 1
        assert simulate_err == verify_err

    def test_h5check_without_contact_samples_is_infeasible(self, tmp_path, capsys):
        controls = write_controls(tmp_path, [np.zeros(2)] * 2)
        code = run("h5check", TWODISK, out=str(tmp_path / "h5"), controls=controls)
        assert code == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("error: infeasible: no contact samples ")

    @pytest.mark.parametrize("text", [
        "",
        "t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n",
        "t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,0,nan,0,0,0\n",
        "t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,inf,0,0,0,0\n",
        "t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,0,0,0,0\n",
        "t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,zero,0,0,0,0\n",
    ], ids=["empty", "header-only", "nan", "inf", "short-row", "not-a-number"])
    def test_malformed_controls_file_is_an_input_error(self, tmp_path, capsys, text):
        controls = tmp_path / "controls.csv"
        controls.write_text(text)
        code = run("simulate", TWODISK, out=str(tmp_path / "sim"), controls=str(controls))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: input: ") and "Traceback" not in err

    @pytest.mark.parametrize("case", [
        "N-not-an-integer", "controls-times-repeat", "grid-K-1", "negative-h",
        "controls-start-after-0", "controls-run-past-T", "tol-0", "tol-negative",
        "M-null", "R-null", "rho-object", "drift-number", "meta-list",
        "U-nested-lists-casestudy", "U-nested-lists-simulate", "N-not-whole", "R-infinite",
        "c-NaN", "halflength-NaN", "A-one-row",
    ])
    def test_rejected_input_is_an_input_error(self, tmp_path, capsys, case):
        def controls(times):
            return write_controls(tmp_path, [np.zeros(2)] * 2, times)

        def scenario(mutate, command="simulate"):
            return [command, write_scenario(tmp_path, mutate)]

        def first(section, **values):
            return lambda d: d["participants"][0][section].update(values)

        argv = {
            "N-not-an-integer": lambda: scenario(lambda d: d["problem"].update(N="two")),
            "M-null": lambda: scenario(lambda d: d["participants"][0].update(M=None)),
            "R-null": lambda: scenario(lambda d: d["problem"].update(R=None)),
            "rho-object": lambda: scenario(lambda d: d["participants"][0].update(rho={})),
            "drift-number": lambda: scenario(lambda d: d["participants"][0].update(drift=5)),
            "meta-list": lambda: scenario(lambda d: d.update(meta=[])),
            "U-nested-lists-casestudy": lambda: scenario(
                first("U", lo=[[0.0]], hi=[[1.0]]), "casestudy") + ["--h", "0.05"],
            "U-nested-lists-simulate": lambda: scenario(first("U", lo=[[0.0]], hi=[[1.0]])),
            "N-not-whole": lambda: scenario(lambda d: d["problem"].update(N=2.7)),
            "R-infinite": lambda: scenario(lambda d: d["problem"].update(R=math.inf)),
            "c-NaN": lambda: scenario(first("drift", c=math.nan), "casestudy") + ["--h", "0.05"],
            "halflength-NaN": lambda: scenario(first("V", halflength=math.nan)),
            "A-one-row": lambda: scenario(lambda d: d["participants"][0].update(drift={
                "family": "affine", "A": [[0.0, 0.0, 0.0, 0.0]], "B": [[0.0], [0.0]],
                "b": [0.0, 0.0]})),
            "controls-times-repeat": lambda: [
                "simulate", TWODISK, "--controls", controls([0.0, 3.0, 3.0, 6.0])],
            "grid-K-1": lambda: ["solve", TWODISK, "--grid-K", "1"],
            "negative-h": lambda: ["casestudy", TWODISK, "--h", "-1"],
            "controls-start-after-0": lambda: [
                "simulate", TWODISK, "--controls", controls([0.5, 3.0, 6.0])],
            "controls-run-past-T": lambda: [
                "simulate", TWODISK, "--controls", controls([0.0, 3.0, 6.5])],
            "tol-0": lambda: ["verify", TWODISK, "--tol", "0"],
            "tol-negative": lambda: ["verify", TWODISK, "--tol", "-1"],
        }[case]()
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: input: ") and "Traceback" not in err

    def test_verify_without_controls_on_non_family_scenario(self, tmp_path, capsys):
        def shrink(doc):
            doc["problem"]["N"] = 1
            doc["participants"] = doc["participants"][:1]

        path = write_scenario(tmp_path, shrink)
        assert run("verify", path, out=str(tmp_path / "x")) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: usage: family requires ")

    def test_unknown_command_and_bad_file(self, tmp_path, capsys):
        assert run("dance", TWODISK) == EXIT_USAGE
        assert capsys.readouterr().err == "error: usage: unknown command 'dance'\n"
        bad = tmp_path / "bad.scn"
        bad.write_text("{not json")
        assert run("simulate", str(bad), out=str(tmp_path)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: input: ")

    def test_main_entrypoint(self, tmp_path):
        code = main(["h5check", TWODISK, "--out", str(tmp_path / "m"), "--h", "0.01"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["verify", TWODISK, "--penalty-k", "5"],
        ["verify"],
    ], ids=["unknown-flag", "missing-scenario"])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: usage: ") and err.count("\n") == 1


# a scenario value, a controls cell and a command line are each mutated in
# turn; the replacements cover wrong types, non-finite numbers, wrong shapes
# and out-of-range values
SCENARIO_VALUES = [None, True, "x", math.nan, math.inf, -math.inf, -1, 0, 0.5, 2.7, 1e6,
                   [], {}, [[0.0]], [1.0, 2.0, 3.0], "free"]
CONTROLS_CELLS = ["", "nan", "inf", "-inf", "x", "1e6", "-1", "0.5", "3", "7"]
COMMANDS = ["simulate", "simulate", "verify", "casestudy", "h5check"]


def _nodes(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate_scenario(doc, rng):
    paths = [p for p in _nodes(doc) if p]
    path = paths[rng.integers(len(paths))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    op = rng.integers(4)
    if op == 0 and isinstance(parent, dict):
        del parent[path[-1]]
    elif op == 1 and isinstance(parent[path[-1]], (int, float)) \
            and not isinstance(parent[path[-1]], bool):
        parent[path[-1]] *= float(rng.choice([-1.0, 0.0, 0.5, 2.0, 10.0]))
    elif op == 2 and isinstance(parent, dict):
        parent["unknown"] = 1
    else:
        parent[path[-1]] = copy.deepcopy(SCENARIO_VALUES[rng.integers(len(SCENARIO_VALUES))])


def _mutate_controls(rows, rng):
    k = int(rng.integers(len(rows)))
    op = rng.integers(5)
    if op == 0:
        cells = rows[k].split(",")
        cells[rng.integers(len(cells))] = CONTROLS_CELLS[rng.integers(len(CONTROLS_CELLS))]
        rows[k] = ",".join(cells)
    elif op == 1:
        del rows[k]
    elif op == 2:
        rows.insert(k, rows[k])
    elif op == 3:
        rows[k] = rows[k].rsplit(",", 1)[0]
    else:
        rows[k] += ",0"


def test_fuzzed_inputs_keep_the_cli_contract(tmp_path, capsys):
    rng = np.random.default_rng(5)
    with open(TWODISK) as fh:
        base = json.load(fh)
    times = np.linspace(0.0, 6.0, 13)
    base_rows = open(write_controls(tmp_path, [-0.5 * VHAT] * 2, times)).read().splitlines()
    for trial in range(600):
        doc, rows = copy.deepcopy(base), list(base_rows)
        command = COMMANDS[rng.integers(len(COMMANDS))]
        argv = [command, str(tmp_path / "case.scn"), "--out", str(tmp_path / "out"), "--h", "0.1"]
        target = rng.integers(3)
        if target == 0:
            _mutate_scenario(doc, rng)
        elif target == 1:
            _mutate_controls(rows, rng)
        else:
            argv.insert(int(rng.integers(len(argv) + 1)), str(rng.choice(["--bogus", "-1", "x"])))
        if command in ("simulate", "verify") and rng.random() < 0.7:
            argv += ["--controls", str(tmp_path / "controls.csv")]
        (tmp_path / "case.scn").write_text(json.dumps(doc))
        (tmp_path / "controls.csv").write_text("\n".join(rows) + "\n")
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (trial, argv)
        assert "Traceback" not in out + err, (trial, argv)
        for line in err.splitlines():
            assert re.match(r"^error: (input|usage|infeasible): ", line), (trial, argv, line)
