import copy
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from crowdsweep.cli import (
    EXIT_INFEASIBLE,
    EXIT_NOT_VERIFIED,
    EXIT_OK,
    EXIT_USAGE,
    ScenarioFormatError,
    _csv,
    _run_texts,
    main,
    parse_scenario,
    run,
    serialize_scenario,
)

S2 = math.sqrt(2)

TWODISK = os.path.join(os.path.dirname(__file__), "..", "scenarios", "twodisk.scn")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
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


def _place(doc, near, far):
    """Start the near disk (participant 2) and the far one at the given
    centers, each population at its center."""
    for p, y in zip(doc["participants"], (far, near)):
        p["y0"] = p["x0"] = [float(c) for c in y]


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

    def test_simulate_free_initial_point_starts_at_the_disk_centers(self, tmp_path, capsys):
        def free(doc):
            for node in doc["participants"]:
                node["x0"] = "free"

        path = write_scenario(tmp_path, free)
        out = tmp_path / "out"
        assert run("simulate", path, out=str(out), h=0.05) == EXIT_OK
        assert capsys.readouterr().err == ""
        header, first = (out / "trajectory.csv").read_text().splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        for i in (1, 2):
            for c in (1, 2):
                assert row[f"x{i}_{c}"] == row[f"y{i}_{c}"]

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
        # disk 1 drives along the exit ray into disk 2, which rests (and is
        # covered at t=2) or moves at a third of its speed (covered at t=3);
        # simulate writes its artifacts first, verify and h5check audit the
        # path before they examine it
        for second, t in ((np.zeros(2), 2), (-VHAT, 3)):
            controls = write_controls(tmp_path, [-3.0 * VHAT, second])
            for command in ("simulate", "verify", "h5check"):
                out = tmp_path / f"{command}-{t}"
                assert run(command, TWODISK, out=str(out), controls=controls) == EXIT_INFEASIBLE
                assert capsys.readouterr().err == \
                    f"error: infeasible: disks 1 and 2 overlap by 6 at t={t}\n"
                assert out.exists() == (command == "simulate")
            assert (tmp_path / f"simulate-{t}" / "trajectory.csv").exists()
            assert (tmp_path / f"simulate-{t}" / "summary.txt").exists()

    def test_h5check_without_contact_samples_is_infeasible(self, tmp_path, capsys):
        controls = write_controls(tmp_path, [np.zeros(2)] * 2)
        code = run("h5check", TWODISK, out=str(tmp_path / "h5"), controls=controls)
        assert code == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("error: infeasible: no contact samples ")

    @pytest.mark.parametrize("text, names", [
        ("", "need a header and two or more full rows"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n", "need a header and two or more full rows"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,0,nan,0,0,0\n",
         "line 3, column 'u1_1': 'nan' is not a finite number"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,inf,0,0,0,0\n",
         "line 3, column 'v1_2': 'inf' is not a finite number"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,0,0,0,0\n",
         "line 3: 6 cells where the header has 7: no value in column 'u2_1'"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,zero,0,0,0,0\n",
         "line 3, column 'v1_2': 'zero' is not a finite number"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,1_0,0,0,0,0\n",
         "line 3, column 'v1_2': '1_0' is not a finite number"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n  \n\t\n\n", "need a header and two or more full rows"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n", "need a header and two or more full rows"),
        # file lines count the header and the blank lines
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n\n0,0,0,0,0,0,0\n3,0,0,0,0,0,0\n6,0,zero,0,0,0,0\n",
         "line 5, column 'v1_2': 'zero' is not a finite number"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n\n0,0,0,0,0,0,0\n6,0,0,0,0,0\n3,0,0,0,0,0,0\n",
         "line 4: 6 cells where the header has 7: no value in column 'u2_1'"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1,v1_1\n0,0,0,0,0,0,0,0\n6,0,0,0,0,0,0,0\n",
         "line 1: column 'v1_1' appears twice"),
    ], ids=["empty", "header-only", "nan", "inf", "short-row", "not-a-number",
            "underscore-separator", "header-and-blank-lines", "one-row",
            "blank-line-then-bad-cell", "blank-line-then-short-row", "column-twice"])
    def test_malformed_controls_file_is_an_input_error(self, tmp_path, capsys, text, names):
        controls = tmp_path / "controls.csv"
        controls.write_text(text)
        code = run("simulate", TWODISK, out=str(tmp_path / "sim"), controls=str(controls))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: input: ") and err.count("\n") == 1
        assert names in err, err

    @pytest.mark.parametrize("text, names", [
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n", "two or more full rows"),
        ("t,v1_1,v1_2,u1_1,v2_1,v2_2,u2_1\n0,0,0,0,0,0,0\n6,0,1_0,0,0,0,0\n", "'1_0'"),
    ], ids=["header-only", "underscore-separator"])
    def test_rejected_controls_file_writes_one_stderr_line(self, tmp_path, text, names):
        # a separate process: pytest records warnings, a real run prints them
        controls = tmp_path / "controls.csv"
        controls.write_text(text)
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "crowdsweep.cli", "simulate", TWODISK,
             "--controls", str(controls), "--out", str(tmp_path / "sim")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert re.fullmatch(r"error: input: [^\n]*\n", proc.stderr), proc.stderr
        assert names in proc.stderr

    def test_whitespace_only_controls_lines_are_skipped(self, tmp_path):
        clean = write_controls(tmp_path, [-0.5 * VHAT] * 2, np.linspace(0.0, 6.0, 13))
        lines = open(clean).read().splitlines(keepends=True)
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("".join(["  \n", lines[0], "\t\n"] + [
            line + ("   \n" if k % 3 == 0 else "") for k, line in enumerate(lines[1:])] + [" \n"]))
        for name, path in (("clean", clean), ("spaced", str(spaced))):
            assert run("simulate", TWODISK, out=str(tmp_path / name), controls=path) == EXIT_OK
        assert (tmp_path / "spaced" / "trajectory.csv").read_bytes() == \
            (tmp_path / "clean" / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("case", [
        "N-not-an-integer", "controls-times-repeat", "grid-K-1", "negative-h",
        "controls-start-after-0", "controls-run-past-T", "tol-0", "tol-negative",
        "M-null", "R-null", "rho-object", "drift-number", "drift-family-list", "U-shape-number",
        "meta-list",
        "U-nested-lists-casestudy", "U-nested-lists-simulate", "N-not-whole", "R-infinite",
        "c-NaN", "halflength-NaN", "A-one-row", "h-subnormal", "h-1e-9", "positions-1e300",
        "M-1e200-verify", "U-hi-1e200-verify", "grid-K-601", "solver-grid-K-601",
        "V-one-coordinate",
    ])
    def test_rejected_input_is_an_input_error(self, tmp_path, capsys, case):
        def controls(times):
            return write_controls(tmp_path, [np.zeros(2)] * 2, times)

        def scenario(mutate, command="simulate"):
            return [command, write_scenario(tmp_path, mutate)]

        def first(section, **values):
            return lambda d: d["participants"][0][section].update(values)

        def verify_solved(mutate):
            # verify --controls on the case study's own controls
            assert run("casestudy", TWODISK, out=str(tmp_path / "cs"), h=0.1) == EXIT_OK
            return scenario(mutate, "verify") + ["--controls", str(tmp_path / "cs" / "controls.csv")]

        argv = {
            "N-not-an-integer": lambda: scenario(lambda d: d["problem"].update(N="two")),
            "M-null": lambda: scenario(lambda d: d["participants"][0].update(M=None)),
            "R-null": lambda: scenario(lambda d: d["problem"].update(R=None)),
            "rho-object": lambda: scenario(lambda d: d["participants"][0].update(rho={})),
            "drift-number": lambda: scenario(lambda d: d["participants"][0].update(drift=5)),
            # kinds the drift and set tables cannot look up
            "drift-family-list": lambda: scenario(first("drift", family=["scaled_linear"])),
            "U-shape-number": lambda: scenario(first("U", shape=1)),
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
            # T/h is infinite or far above the grid bound: rejected before allocation
            "h-subnormal": lambda: ["simulate", TWODISK, "--h", "5e-324"],
            "h-1e-9": lambda: ["casestudy", TWODISK, "--h", "1e-9"],
            # finite centers whose squares overflow
            "positions-1e300": lambda: scenario(lambda d: [
                node.update(y0=[1e300 * c for c in node["y0"]], x0=[1e300 * c for c in node["x0"]])
                for node in d["participants"]]) + ["--h", "0.1"],
            # magnitudes whose products overflow in the witness arithmetic
            "M-1e200-verify": lambda: verify_solved(
                lambda d: d["participants"][0].update(M=6e200)),
            "U-hi-1e200-verify": lambda: verify_solved(first("U", hi=[1e200])),
            # more coarse intervals than the fine grid has steps
            "grid-K-601": lambda: ["solve", TWODISK, "--grid-K", "601"],
            "solver-grid-K-601": lambda: scenario(
                lambda d: d["solver"].update(grid_K=601), "solve"),
            "controls-start-after-0": lambda: [
                "simulate", TWODISK, "--controls", controls([0.5, 3.0, 6.0])],
            "controls-run-past-T": lambda: [
                "simulate", TWODISK, "--controls", controls([0.0, 3.0, 6.5])],
            "tol-0": lambda: ["verify", TWODISK, "--tol", "0"],
            "tol-negative": lambda: ["verify", TWODISK, "--tol", "-1"],
            # the disk velocity has two coordinates; a 1-D interval would
            # stand for the square of its bounds
            "V-one-coordinate": lambda: scenario(lambda d: d["participants"][0].update(
                V={"shape": "interval", "lo": [-1.0], "hi": [1.0]})),
        }[case]()
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: input: ") and "Traceback" not in err

    @pytest.mark.parametrize("mutate", [
        lambda p: (p.update(M=1e100), p["drift"].update(c=-1e100)),
        lambda p: (p.update(M=7e98 * p["M"], rho=7e98 * p["rho"]),
                   p["drift"].update(c=7e98 * p["drift"]["c"]),
                   p["U"].update(hi=[7e98 * hi for hi in p["U"]["hi"]]),
                   p["V"].update(halflength=7e98 * p["V"]["halflength"])),
    ], ids=["M-c-1e100", "M-c-U-rho-V-times-7e98"])
    def test_overflowing_witness_fit_is_not_verified(self, tmp_path, capsys, mutate):
        # numbers inside the read bound whose products overflow in the
        # witness arithmetic; RuntimeWarnings are errors in this suite
        assert run("casestudy", TWODISK, out=str(tmp_path / "cs"), h=0.1) == EXIT_OK
        path = write_scenario(tmp_path, lambda d: mutate(d["participants"][0]))
        code = main(["verify", path, "--controls", str(tmp_path / "cs" / "controls.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_NOT_VERIFIED
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: (d["problem"].update(N=1), d.update(participants=d["participants"][:1])),
         "family requires exactly two participants"),
        (lambda d: d["participants"][0].update(drift={
            "family": "affine", "A": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [0.0]],
            "b": [0.0, 0.0]}), "family requires scaled-linear drifts"),
        (lambda d: d["participants"][0].update(V={"shape": "ball", "radius": 10 * S2}),
         "family requires segment upper control sets"),
        (lambda d: d["participants"][0]["V"].update(halflength=12.0),
         "family requires equal upper control sets"),
        (lambda d: d["participants"][0].update(M=5.0), "family requires equal truncation caps"),
        (lambda d: [p.update(x0="free") for p in d["participants"]],
         "family requires x0 fixed at the disk centers"),
        (lambda d: d["participants"][0].update(x0=[-51.0, 52.0]),
         "family requires x0 fixed at the disk centers"),
        (lambda d: _place(d, 5 * VHAT, 11 * VHAT), "near disk must start beyond the contact gap"),
        (lambda d: _place(d, 48 * S2 * VHAT, 48 * S2 * VHAT + [3 * S2, 3 * S2]),
         "family requires touching disks aligned with the exit ray"),
        (lambda d: [p["V"].update(halflength=5.0) for p in d["participants"]],
         "required ride speed exceeds the upper control set"),
        (lambda d: d["problem"].update(T=0.5), "family geometry places the arcs outside (0, T)"),
    ], ids=["N-1", "affine-drift", "ball-V", "unequal-V", "unequal-M", "free-x0",
            "x0-off-center", "near-disk-within-2R", "misaligned-disks", "V-halflength-5",
            "T-0.5"])
    def test_verify_without_controls_on_non_family_scenario(self, tmp_path, capsys, edit,
                                                            message):
        path = write_scenario(tmp_path, edit)
        assert run("verify", path, out=str(tmp_path / "x")) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: usage: {message}\n"

    @pytest.mark.parametrize("edit", [
        lambda d: [p["drift"].update(c=-150.0) for p in d["participants"]],
        lambda d: [p["drift"].update(c=-1e4) for p in d["participants"]],
        lambda d: d["problem"].update(T=100.0),
    ], ids=["c-150", "c-1e4", "T-100"])
    def test_stiff_drifts_and_long_horizons_run_cleanly(self, tmp_path, capsys, edit):
        # the deceleration arc's exponential is taken only where it is kept;
        # RuntimeWarnings are errors in this suite
        path = write_scenario(tmp_path, edit)
        for command, line in (("casestudy", "t_b: "), ("verify", "verified: true"),
                              ("h5check", "bracket_holds: true")):
            assert run(command, path, out=str(tmp_path / command), h=0.05) == EXIT_OK
            assert capsys.readouterr().err == ""
            assert line in (tmp_path / command / "summary.txt").read_text()

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

    @pytest.mark.parametrize("argv, message", [
        (["verify", TWODISK, "--penalty-k", "5"], None),
        (["verify"], None),
        (["solve", TWODISK, "--h", "0.1"], "solve does not take --h"),
        (["solve", TWODISK, "--controls", "c.csv"], "solve does not take --controls"),
        (["casestudy", TWODISK, "--controls", "c.csv"], "casestudy does not take --controls"),
        (["casestudy", TWODISK, "--grid-K", "4"], "casestudy does not take --grid-K"),
        (["simulate", TWODISK, "--tol", "0.1"], "simulate does not take --tol"),
        (["verify", TWODISK, "--seed", "1"], "verify does not take --seed"),
        (["h5check", TWODISK, "--tol", "0.1"], "h5check does not take --tol"),
    ], ids=["unknown-flag", "missing-scenario", "solve-h", "solve-controls",
            "casestudy-controls", "casestudy-grid-K", "simulate-tol", "verify-seed",
            "h5check-tol"])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: usage: ") and err.count("\n") == 1
        if message:
            assert err == f"error: usage: {message}\n"
        assert not (tmp_path / "out").exists()


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
        parent[path[-1]] *= float(rng.choice([-1.0, 0.0, 0.5, 2.0, 10.0, 1e300]))
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


def _reference_csv(header, table):
    """The CSV text of a whole table, one ``%.12g`` format per row."""
    row_format = ",".join(["%.12g"] * table.shape[1]) + "\n"
    return ",".join(header) + "\n" + "".join(row_format % tuple(row) for row in table)


@pytest.mark.parametrize("case", ["runs-cross-blocks", "signed-zeros", "K-1", "all-distinct",
                                  "coarse-plan"])
def test_csv_matches_per_row_format(case):
    rng = np.random.default_rng(11)
    K = {"K-1": 1, "coarse-plan": 600}.get(case, 700)
    nodes = np.column_stack([np.linspace(0.0, 4.0, K + 1), rng.normal(size=(K + 1, 3))])
    if case == "runs-cross-blocks":
        # run boundaries at 0, 200, 300, 555 and 690: the second and third
        # runs cross the block ends at 256 and 512
        starts = [0, 200, 300, 555, 690]
        pieces = rng.normal(size=(len(starts), 2))
        groups = [np.repeat(pieces, np.diff(starts + [K + 1]), axis=0),
                  (np.arange(K + 1)[:, None] >= [250, 513]).astype(float)]
    elif case == "signed-zeros":
        zeros = np.array([[0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
        groups = [zeros[np.arange(K + 1) % 4], -zeros[np.arange(K + 1) // 3 % 4]]
    elif case == "coarse-plan":
        # the shape of solve's controls: 8 coarse intervals over 600 steps
        plan = np.repeat(rng.normal(size=(8, 5)), 75, axis=0)
        groups = [np.vstack([plan, plan[-1:]])]
        assert len({id(text) for text in _run_texts(groups[0])}) == 8
    else:
        groups = [rng.normal(size=(K + 1, 2)) * 10.0 ** rng.integers(-20, 20, size=(K + 1, 1)),
                  rng.normal(size=(K + 1, 1))]
    header = [f"c{j}" for j in range(nodes.shape[1] + sum(g.shape[1] for g in groups))]
    text = "".join(_csv(header, K, lambda s: nodes[s], groups))
    assert text == _reference_csv(header, np.hstack([nodes] + groups))
