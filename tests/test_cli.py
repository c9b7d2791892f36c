import json
import math
import os

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

    def test_simulate_with_infeasible_controls(self, tmp_path):
        scenario, _solver = parse_scenario(TWODISK)
        grid = np.linspace(0.0, 6.0, 61)
        header = ["t"]
        for i in range(2):
            header += [f"v{i+1}_1", f"v{i+1}_2", f"u{i+1}_1"]
        lines = [",".join(header)]
        v = -12.0 * np.array([-S2 / 2, S2 / 2])
        for t in grid:
            row = [f"{t:.12g}"]
            for _ in range(2):
                row += [f"{v[0]:.12g}", f"{v[1]:.12g}", "0"]
            lines.append(",".join(row))
        controls = tmp_path / "controls.csv"
        controls.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sim"
        code = run("simulate", TWODISK, out=str(out), controls=str(controls))
        assert code == EXIT_INFEASIBLE

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

    def test_verify_without_controls_on_non_family_scenario(self, tmp_path):
        def shrink(doc):
            doc["problem"]["N"] = 1
            doc["participants"] = doc["participants"][:1]

        path = write_scenario(tmp_path, shrink)
        assert run("verify", path, out=str(tmp_path / "x")) == EXIT_USAGE

    def test_unknown_command_and_bad_file(self, tmp_path):
        assert run("dance", TWODISK) == EXIT_USAGE
        bad = tmp_path / "bad.scn"
        bad.write_text("{not json")
        assert run("simulate", str(bad), out=str(tmp_path)) == EXIT_USAGE

    def test_main_entrypoint(self, tmp_path):
        code = main(["h5check", TWODISK, "--out", str(tmp_path / "m"), "--h", "0.01"])
        assert code == EXIT_OK
