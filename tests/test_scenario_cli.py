import hashlib
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from admrelay import cli, nodal, trajectory
from admrelay.errors import ModelError, ScenarioError
from admrelay.network import (
    CurrentLimitedInverter,
    FaultKind,
    FaultSpec,
    LoadModel,
    MicrogridModel,
    SequenceImpedancePair,
    cable_impedance,
    load_impedance_from_power,
)
from admrelay.phasors import PhaseTriple, phasor
from admrelay.relaying import directional_neg_seq
from admrelay.trajectory import TrajectoryPoint, simulate_trajectory
from admrelay.scenario import (
    FIELDS,
    SEGMENT_IMPEDANCE_FLOOR,
    build_model,
    default_scenario,
    parse_scenario,
    scenario_digest,
    scenario_to_text,
    sweep_points,
)

from emission_reference import digest_every_field, emit_every_field
from support import close


def default_text():
    return scenario_to_text(default_scenario())


def test_parse_emit_round_trip_is_idempotent():
    text = default_text()
    once = scenario_to_text(parse_scenario(text))
    twice = scenario_to_text(parse_scenario(once))
    assert once == text
    assert twice == once


def test_digest_is_stable():
    d1 = scenario_digest(default_scenario())
    d2 = scenario_digest(parse_scenario(default_text()))
    assert d1 == d2
    assert len(d1) == 64


def test_default_scenario_carries_nameplate_ratings_verbatim():
    text = default_text()
    for token in (
        "frequency = 60 Hz",
        "line_line_voltage = 480 V",
        "rated_power = 50 kW",
        "dc_bus_voltage = 1800 V",
        "filter_inductance = 18 uF",
        "filter_capacitance = 250 nF",
        "i_max = 70 A",
        "cable_resistance = 39 mohm",
        "cable_inductance = 70.8 uH",
        "load_real_power = 25 kW",
        "load_reactive_power = 12.5 kvar",
        "kpv = 0.35",
        "krv = 400",
        "kvh5 = 4",
        "kvh7 = 20",
        "kvh11 = 11",
        "kpi = 0.7",
        "kri = 400",
        "kih5 = 30",
    ):
        assert token in text, token


def test_minimal_file_gets_documented_defaults():
    s = parse_scenario("[system]\nsource = ideal\n")
    assert s.si("system", "frequency") == 60.0
    assert s.si("system", "i_max") == 70.0
    assert str(s.get("fault", "kind")) == "lg"
    assert not s.has("dcb")  # optional sections stay absent
    assert not s.has("transient")


def test_unknown_section_key_and_unit_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[sistem]\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[system]\nmystery = 1\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[system]\nfrequency = 60 kHz\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[system]\nfrequency = sixty Hz\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[system]\nfault_position = 1.5\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[fault]\nrf_min = 10 ohm\nrf_max = 1 ohm\n")


def test_unit_scaling_applies():
    s = parse_scenario("[system]\ncable_resistance = 39 mohm\n")
    assert close(s.si("system", "cable_resistance"), 0.039, 1e-12)
    s = parse_scenario("[transient]\ndt = 1 ms\n")
    assert close(s.si("transient", "dt"), 1e-3, 1e-12)


def test_build_model_matches_reference_values():
    m = build_model(default_scenario())
    assert close(m.source.v1, phasor(480.0 / math.sqrt(3.0)), 1e-12)
    assert close(m.line_1m.z1 + m.line_m2.z1,
                 complex(0.039, 2 * math.pi * 60 * 70.8e-6), 1e-12)
    assert close(m.line_1m.z0, 3.0 * m.line_1m.z1, 1e-12)
    assert close(m.load.z_load, 7.3728 + 3.6864j, 1e-9)
    assert m.fault.kind is FaultKind.LINE_GROUND_A
    assert m.fault.rf == 3.68
    assert m.source.i_max_rms == 70.0


def test_default_scenario_builds_the_nameplate_model_exactly():
    cable = cable_impedance(0.039, 70.8e-6, 60.0)
    pair = SequenceImpedancePair(z1=cable, z0=cable * 3.0)
    nameplate = MicrogridModel(
        source=CurrentLimitedInverter(
            v1=phasor(480.0 / math.sqrt(3.0)),
            v2_fraction=0.6,
            v0_fraction=0.6,
            v2_angle=0.0,
            v0_angle=0.0,
            i_max_rms=70.0,
        ),
        line_1m=pair.scaled(0.5),
        line_m2=pair.scaled(0.5),
        load=LoadModel(
            z_load=load_impedance_from_power(25e3, 12.5e3, 480.0), z_ground=1.0 + 0j
        ),
        fault=FaultSpec(FaultKind.LINE_GROUND_A, 3.68),
        frequency=60.0,
    )
    assert build_model(default_scenario()) == nameplate

    # the defaults the simulators and the directional element fall back on
    floors = inspect.signature(directional_neg_seq).parameters
    assert floors["voltage_floor"].default == 5.542562584220408
    assert floors["current_floor"].default == 1.2028130608117205
    window = inspect.signature(simulate_trajectory).parameters
    assert window["dt"].default == 0.001
    assert window["duration"].default == 0.2
    assert window["fault_time"].default == 0.05


def test_sweep_points_default_and_degenerate():
    pts = sweep_points(default_scenario())
    assert len(pts) == 40
    assert close(pts[0], 3.68, 1e-12)
    assert close(pts[-1], 1000.0, 1e-12)
    ratios = [b / a for a, b in zip(pts, pts[1:])]
    assert all(abs(r - ratios[0]) < 1e-9 for r in ratios)

    s = parse_scenario("[fault]\nrf_min = 5 ohm\nrf_max = 5 ohm\n")
    assert sweep_points(s) == [5.0]

    s = parse_scenario("[fault]\nrf_min = 1 ohm\nrf_max = 3 ohm\nrf_points = 3\nrf_spacing = linear\n")
    assert sweep_points(s) == pytest.approx([1.0, 2.0, 3.0])


def _write_default(tmp_path, extra=""):
    path = tmp_path / "scenario.scn"
    path.write_text(default_text() + extra, encoding="utf-8")
    return str(path)


def test_explicit_k_policy_parses_and_reaches_the_case_output(tmp_path, capsys):
    text = default_text().replace("k_policy = auto", "k_policy = 0.5-0.2j")
    s = parse_scenario(text)
    assert s.get("relay", "k_policy") == 0.5 - 0.2j
    assert "k_policy = 0.5-0.2j" in scenario_to_text(s)
    path = tmp_path / "kexp.scn"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["case", str(path), "--case", "2"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert fields["k_policy"] == "explicit"
    assert close(complex(fields["k"]), 0.5 - 0.2j, 1e-12)


def test_nonzero_sequence_angles_rotate_the_source(tmp_path):
    text = default_text().replace("v2_angle = 0 deg", "v2_angle = 90 deg")
    m = build_model(parse_scenario(text))
    seq = m.source.sequence_voltages()
    assert close(seq.neg, 0.6j * m.source.v1, 1e-12)


def test_cli_validate_round_trips(tmp_path, capsys):
    path = _write_default(tmp_path)
    assert cli.main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert out == default_text()


def test_cli_case_runs_and_reports_oracle_error(tmp_path, capsys):
    path = _write_default(tmp_path)
    assert cli.main(["case", path, "--case", "2"]) == 0
    out = capsys.readouterr().out
    fields = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )
    assert float(fields["relative_error"]) <= 0.02
    assert fields["case"] == "2"
    assert "z_measured" in fields and "z_oracle" in fields
    assert any(k.startswith("int.") for k in fields)


def test_cli_case_3_reads_the_load_path(tmp_path, capsys):
    path = _write_default(tmp_path)
    assert cli.main(["case", path, "--case", "3"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert fields["z_measured"] == fields["z_d1"]


def test_cli_downstream_ground_error_compares_compensated_readings(tmp_path, capsys):
    # the closed form reads the compensated load path, so the oracle's reading
    # is compensated the same way; the printed z_oracle stays the plain ratio
    path = tmp_path / "downstream.scn"
    path.write_text(default_text().replace("location = upstream", "location = downstream"),
                    encoding="utf-8")
    assert cli.main(["case", str(path), "--case", "3"]) == 0
    fields = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                  if " = " in line)
    assert float(fields["relative_error"]) < 1e-12
    assert abs(complex(fields["z_oracle"]) - complex(fields["z_d1"])) > 0.1
    assert cli.main(["sweep", str(path)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]
            if not line.startswith("#")]
    assert len(rows) == 40
    assert all(float(row[5]) < 1e-12 for row in rows)


def test_cli_case_source_mismatch_fails_validation(tmp_path, capsys):
    path = _write_default(tmp_path)  # default source is the inverter
    assert cli.main(["case", path, "--case", "1"]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err


def test_cli_case_kind_mismatch_fails_validation(tmp_path, capsys):
    path = _write_default(tmp_path)
    assert cli.main(["case", path, "--case", "5"]) == 1


def test_cli_missing_file_fails(tmp_path, capsys):
    assert cli.main(["case", str(tmp_path / "nope.scn"), "--case", "2"]) == 1


@pytest.mark.parametrize("argv", [
    ["case", "{path}"],
    ["case", "{path}", "--case", "x"],
    ["dcb", "{path}", "--seed", "x"],
    ["bogus", "{path}"],
    ["validate", "{path}", "--bogus"],
    ["validate"],
    [],
    ["case", "{path}", "{path}", "--case", "2"],
    ["validate", "{path}", "--out"],
    ["case", "{path}", "--case", "2", "--seed", "3"],
], ids=["case-without-case", "case-not-a-number", "seed-not-a-number", "unknown-command",
        "unknown-option", "no-scenario", "no-command", "two-scenarios", "out-without-value",
        "seed-on-case"])
def test_cli_usage_errors_exit_1(tmp_path, capsys, argv):
    path = _write_default(tmp_path)
    assert cli.main([arg.format(path=path) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


TOP_USAGE = "usage: admrelay [-h] [--version] {case,sweep,dcb,trajectory,validate} ...\n"
CHOICES = "(choose from 'case', 'sweep', 'dcb', 'trajectory', 'validate')"
AMBIGUOUS = "admrelay: error: ambiguous option: --=x could match --help, --version"


@pytest.mark.parametrize("argv, err", [
    (["validate", "{path}", "X"], TOP_USAGE + "admrelay: error: unrecognized arguments: X"),
    (["validate", "{path}", "-", "--bogus"],
     TOP_USAGE + "admrelay: error: unrecognized arguments: - --bogus"),
    (["validate", "{path}", "--help=x"], "usage: admrelay validate [-h] [--out OUT] scenario\n"
     "admrelay validate: error: argument -h/--help: ignored explicit argument 'x'"),
    (["--help=x"], TOP_USAGE + "admrelay: error: argument -h/--help: ignored explicit argument 'x'"),
    (["--version=1"], TOP_USAGE + "admrelay: error: argument --version: ignored explicit "
     "argument '1'"),
    (["--"], TOP_USAGE + "admrelay: error: the following arguments are required: command"),
    (["--bogus", "--"], TOP_USAGE + "admrelay: error: the following arguments are required: "
     "command"),
    (["--", "validate", "{path}"],
     TOP_USAGE + f"admrelay: error: argument command: invalid choice: '--' {CHOICES}"),
    (["validate", "{path}", "--", "X"],
     TOP_USAGE + "admrelay: error: unrecognized arguments: X"),
    (["dcb", "{path}", "--", "--"], TOP_USAGE + "admrelay: error: unrecognized arguments: --"),
    (["case", "{path}", "--case", "2", "--"],
     TOP_USAGE + "admrelay: error: unrecognized arguments: --"),
    (["case", "{path}", "--", "--case", "2"], "usage: admrelay case [-h] [--out OUT] --case CASE "
     "scenario\nadmrelay case: error: the following arguments are required: --case"),
    (["case", "{path}", "--case", "7"], "validation error: case must be one of [1, 2, 3, 4, 5, 6]"),
    (["validate", "-hx", "{path}"], "usage: admrelay validate [-h] [--out OUT] scenario\n"
     "admrelay validate: error: argument -h/--help: ignored explicit argument 'x'"),
    (["--=x"], TOP_USAGE + AMBIGUOUS),
    (["validate", "{path}", "--=x"], TOP_USAGE + AMBIGUOUS),
    (["--v", "--=x"], TOP_USAGE + AMBIGUOUS),
], ids=["extra-positional", "extra-dash-and-option", "help-with-value", "top-help-with-value",
        "version-with-value", "lone-double-dash", "option-then-double-dash",
        "double-dash-before-command", "positional-after-double-dash", "second-double-dash",
        "double-dash-after-an-option-value", "option-after-double-dash", "case-out-of-range",
        "short-help-with-value", "empty-long-option", "empty-long-option-after-scenario",
        "empty-long-option-after-version"])
def test_cli_usage_errors_print_argparse_text(tmp_path, capsys, argv, err):
    # the texts of the argparse front end this parser replaced
    path = _write_default(tmp_path)
    assert cli.main([arg.format(path=path) for arg in argv]) == 1
    assert capsys.readouterr() == ("", err + "\n")


@pytest.mark.parametrize("flag", ["-h", "--version"])
def test_cli_help_and_version_exit_0(capsys, flag):
    assert cli.main([flag]) == 0
    assert "admrelay" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["case", "validate"])
def test_cli_subcommand_help_prints_its_usage(capsys, command):
    assert cli.main([command, "-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: admrelay {command} ")
    assert err == ""


CASE_2 = ["case", "{path}", "--case", "2"]


@pytest.mark.parametrize("argv, canonical", [
    (["case", "{path}", "--case=2"], CASE_2),
    (["case", "{path}", "--ca", "2"], CASE_2),
    (["case", "--case", "2", "{path}"], CASE_2),
    (["case", "--out", "{out}", "{path}", "--case", "2"], CASE_2),
    (["dcb", "{path}", "--seed", "-5"], ["dcb", "{path}", "--seed=-5"]),
    (["case", "--case", "2", "--", "{path}"], CASE_2),
    (["validate", "--", "{path}"], ["validate", "{path}"]),
    (["validate", "{path}", "--"], ["validate", "{path}"]),
], ids=["joined-value", "abbreviated", "option-first", "out-first", "negative-seed",
        "double-dash-after-options", "double-dash-first", "double-dash-last"])
def test_cli_option_forms_give_the_same_document(tmp_path, capsys, argv, canonical):
    path, out = _write_default(tmp_path), tmp_path / "out.txt"
    assert cli.main([arg.format(path=path) for arg in canonical]) == 0
    expected = capsys.readouterr().out
    assert cli.main([arg.format(path=path, out=out) for arg in argv]) == 0
    document = capsys.readouterr().out
    if "--out" in argv:
        assert document == ""
        document = out.read_text(encoding="utf-8")
    assert document == expected != ""


def test_cli_out_into_a_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    assert cli.main(["validate", _write_default(tmp_path), "--out", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


def test_cli_non_utf8_scenario_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "utf16.scn"
    path.write_bytes(b"\xff\xfe[\x00s\x00")
    assert cli.main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1


def test_cli_bad_scenario_fails(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("[system]\nfrequency = 60 kHz\n", encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1


def test_cli_sweep_is_reproducible_and_monotone(tmp_path):
    path = _write_default(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["sweep", path, "--out", str(out1)]) == 0
    assert cli.main(["sweep", path, "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "rf_ohm,Re_Z,Im_Z,mag_Z,oracle_mag_Z,rel_err"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 40
    mags = [float(r[3]) for r in rows]
    assert all(b > a for a, b in zip(mags, mags[1:]))
    assert all(float(r[5]) <= 0.02 for r in rows)


def test_cli_single_point_sweep_matches_case(tmp_path, capsys):
    text = default_text().replace("rf_min = 3.68 ohm", "rf_min = 3.68 ohm") \
        .replace("rf_max = 1000 ohm", "rf_max = 3.68 ohm")
    path = tmp_path / "single.scn"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["sweep", str(path)]) == 0
    sweep_out = capsys.readouterr().out
    row = sweep_out.strip().split("\n")[1].split(",")
    assert cli.main(["case", str(path), "--case", "2"]) == 0
    case_out = capsys.readouterr().out
    fields = dict(line.split(" = ", 1) for line in case_out.splitlines() if " = " in line)
    z = complex(fields["z_measured"])
    assert close(complex(float(row[1]), float(row[2])), z, 1e-9)


def test_cli_dcb_trace_and_summary(tmp_path, capsys):
    path = _write_default(tmp_path)
    assert cli.main(["dcb", path]) == 0
    out = capsys.readouterr().out
    assert "PickupFwd" in out
    assert "# summary A: tripped=yes blocked=no" in out
    assert "# summary B: tripped=yes blocked=no" in out


def test_cli_dcb_external_script_blocks_the_forward_relay(tmp_path, capsys):
    text = default_text().replace("script = network", "script = external")
    path = tmp_path / "ext.scn"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["dcb", str(path)]) == 0
    out = capsys.readouterr().out
    assert "# summary A: tripped=no blocked=yes" in out
    assert "# summary B: tripped=no blocked=no" in out
    assert "CarrierStart" in out


def test_cli_dcb_dead_channel_still_trips(tmp_path, capsys):
    text = default_text().replace("script = network", "script = internal")
    text = text.replace("operational = true", "operational = false")
    path = tmp_path / "dead.scn"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["dcb", str(path)]) == 0
    out = capsys.readouterr().out
    assert "# summary A: tripped=yes blocked=no" in out
    assert "# summary B: tripped=yes blocked=no" in out


def test_cli_dcb_seed_override_is_deterministic(tmp_path):
    path = _write_default(tmp_path)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert cli.main(["dcb", path, "--seed", "9", "--out", str(a)]) == 0
    assert cli.main(["dcb", path, "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_dcb_seed_is_the_scenarios_seed(tmp_path):
    # --seed sets [dcb] seed, so the channel and the printed scenario_digest
    # read one value, and a file that names the seed gives the same document
    text = _set_field("dcb", "script", "external", _set_field("dcb", "loss", "0.5"))
    path = tmp_path / "lossy.scn"
    path.write_text(text, encoding="utf-8")
    seeded = tmp_path / "seeded.scn"
    seeded.write_text(_set_field("dcb", "seed", "2", text), encoding="utf-8")
    docs = {}
    for name, argv in (("seed 1", [path, "--seed", "1"]), ("seed 2", [path, "--seed", "2"]),
                       ("file", [seeded])):
        out = tmp_path / "out.txt"
        assert cli.main(["dcb", str(argv[0]), *argv[1:], "--out", str(out)]) == 0
        docs[name] = out.read_bytes()
    assert docs["seed 2"] == docs["file"]
    assert b"\n26.7,A,Trip\n" in docs["seed 1"] and b"\n12.1,A,BlockReceived\n" in docs["seed 2"]
    digests = [doc.split(b"# scenario_digest = ")[1] for doc in docs.values()]
    assert digests[0] != digests[1]


def test_cli_dcb_requires_section(tmp_path, capsys):
    path = tmp_path / "nodcb.scn"
    path.write_text("[system]\nsource = inverter\n", encoding="utf-8")
    assert cli.main(["dcb", str(path)]) == 1


# sha256 of run_dcb's document on the default scenario with each fixed script
SCRIPTED_DCB_SHA256 = {
    "internal": "d86f1a1694a0289fcecb918c5ac806ba555db7b32bffd0305b7ed100864e3204",
    "external": "f2ca6c7c79387c18544fd3c7b4b6cfedd48c402ab4918b28c8ce6e02ccdd8776",
}


def _no_model(s):
    raise AssertionError("a scripted dcb run reads no model")


@pytest.mark.parametrize("script", sorted(SCRIPTED_DCB_SHA256))
def test_cli_dcb_scripted_documents_keep_their_bytes_and_build_no_model(script, monkeypatch):
    monkeypatch.setattr(cli, "build_model", _no_model)
    doc = cli.run_dcb(parse_scenario(_set_field("dcb", "script", script)))
    assert hashlib.sha256(doc.encode()).hexdigest() == SCRIPTED_DCB_SHA256[script]


def test_cli_dcb_network_script_builds_its_model_once(monkeypatch):
    s = default_scenario()
    assert s.get("dcb", "script") == "network"
    want = cli.run_dcb(s)
    calls = []
    monkeypatch.setattr(cli, "build_model", lambda s: calls.append(s) or build_model(s))
    assert cli.run_dcb(s) == want
    assert calls == [s]


def test_cli_trajectory_output(tmp_path, capsys):
    path = _write_default(tmp_path)
    assert cli.main(["trajectory", path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "t_s,Re_Zlg_ohm,Im_Zlg_ohm,Re_Zll_ohm,Im_Zll_ohm,I_a_rms_A,limited"
    assert "# post_fault_first_quadrant_z_lg = yes" in out
    assert "# final_z_lg = " in out


def test_cli_trajectory_requires_section(tmp_path):
    path = tmp_path / "notrans.scn"
    path.write_text("[system]\nsource = inverter\n", encoding="utf-8")
    assert cli.main(["trajectory", str(path)]) == 1


@pytest.mark.parametrize("argv", [["validate"], ["case", "--case", "2"], ["sweep"], ["dcb"],
                                  ["trajectory"]], ids=lambda argv: argv[0])
def test_cli_main_calls_the_run_function_patched_on_the_module(tmp_path, capsys, monkeypatch,
                                                               argv):
    # main looks up cli.run_<command> when it runs, as the benchmark tracer
    # and these tests patch it there; a table of functions made at import
    # would call the unpatched one
    argv = [argv[0], _write_default(tmp_path), *argv[1:]]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    name, calls = f"run_{argv[0]}", []
    run = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: calls.append(a) or run(*a))
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == want


def test_cli_results_carry_version_and_digest(tmp_path, capsys):
    path = _write_default(tmp_path)
    digest = scenario_digest(default_scenario())
    for argv in (["case", path, "--case", "2"], ["sweep", path],
                 ["dcb", path], ["trajectory", path]):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert digest in out
        assert "0.1.0" in out


def _set_field(section, key, value, text=None):
    """Scenario text, the default unless given, with one field's value replaced."""
    lines = (text or default_text()).splitlines()
    current = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            current = line[1:-1]
        elif current == section and line.startswith(f"{key} = "):
            lines[i] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def _run(tmp_path, text, *argv):
    path = tmp_path / "scenario.scn"
    path.write_text(text, encoding="utf-8")
    return cli.main([argv[0], str(path), *argv[1:]])


INF_MEANS_SOMETHING = {
    ("fault", "rf"),
    ("system", "i_max"),
    ("system", "load_grounding_resistance"),
}


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_cli_validate_rejects_non_finite_numbers_by_field(tmp_path, capsys, token):
    for section, fields in FIELDS.items():
        for key, spec in fields.items():
            if spec.kind not in ("quantity", "number", "integer", "kpolicy"):
                continue
            value = f"{token} {spec.units[0]}" if spec.kind == "quantity" else token
            code = _run(tmp_path, _set_field(section, key, value), "validate")
            out, err = capsys.readouterr()
            if token == "inf" and (section, key) in INF_MEANS_SOMETHING:
                assert code == 0, (section, key)
                assert f"{key} = inf" in out
            else:
                assert code == 1, (section, key)
                assert f"[{section}] {key}" in err


def test_cli_sweep_to_infinite_rf_is_a_validation_error(tmp_path, capsys):
    assert _run(tmp_path, _set_field("fault", "rf_max", "inf ohm"), "sweep") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "[fault] rf_max" in err


def test_cli_infinite_cable_zero_sequence_scale_is_a_validation_error(tmp_path, capsys):
    # with no zero-sequence path along the cable the healthy network's nodal
    # matrix is singular, so no subcommand may start on it
    text = _set_field("system", "cable_zero_seq_scale", "inf")
    for argv in (["validate"], ["case", "--case", "2"], ["sweep"], ["dcb"], ["trajectory"]):
        assert _run(tmp_path, text, *argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert "[system] cable_zero_seq_scale" in err


@pytest.mark.parametrize("fields", [
    [("cable_zero_seq_scale", "0")],
    [("cable_zero_seq_scale", "-2")],
    [("cable_resistance", "-1 mohm")],
    [("cable_inductance", "-1 uH")],
    [("cable_resistance", "0 ohm"), ("cable_inductance", "0 H")],
], ids=["zero-z0-scale", "negative-z0-scale", "negative-resistance", "negative-inductance",
        "zero-impedance"])
def test_cli_cable_that_leaves_the_network_singular_or_active_is_a_validation_error(
    tmp_path, capsys, fields
):
    # every subcommand relies on a nonsingular, passive healthy network
    text = None
    for key, value in fields:
        text = _set_field("system", key, value, text)
    for argv in (["validate"], ["case", "--case", "2"], ["sweep"], ["dcb"], ["trajectory"]):
        assert _run(tmp_path, text, *argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert f"[system] {fields[0][0]}: must be" in err


@pytest.mark.parametrize("fields", [
    [("fault_position", "1e-300")],
    [("fault_position", "0.9999999999999999")],
    [("cable_resistance", "1e-300 ohm"), ("cable_inductance", "0 H")],
], ids=["source-side-segment", "load-side-segment", "whole-cable"])
def test_cli_negligible_segment_is_a_validation_error(tmp_path, capsys, fields):
    # a segment whose impedance is round-off against the load's drops less
    # of the bus voltage than the nodal solve resolves, so every reading
    # through it would be noise printed at exit 0
    text = None
    for key, value in fields:
        text = _set_field("system", key, value, text)
    for argv in (["validate"], ["case", "--case", "2"], ["sweep"], ["dcb"], ["trajectory"]):
        assert _run(tmp_path, text, *argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"validation error: [system] {fields[0][0]}: "), argv


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_segment_floor_is_a_ratio_of_impedances(k):
    # every impedance scaled by 2**k (the cable's R and L up, the load's P
    # and Q down) keeps the verdict on either side of the floor
    def scenario(position):
        text = _set_field("system", "fault_position", repr(position))
        for key, value, unit in (("cable_resistance", 39e-3 * 2.0**k, "ohm"),
                                 ("cable_inductance", 70.8e-6 * 2.0**k, "H"),
                                 ("load_real_power", 25e3 * 2.0**-k, "W"),
                                 ("load_reactive_power", 12.5e3 * 2.0**-k, "var")):
            text = _set_field("system", key, f"{value!r} {unit}", text)
        return text

    m = build_model(default_scenario())
    ratio = abs(m.line_1m.z1 + m.line_m2.z1) / abs(m.load.z_load)
    parse_scenario(scenario(1.001 * SEGMENT_IMPEDANCE_FLOOR / ratio))
    with pytest.raises(ScenarioError, match=r"^\[system\] fault_position: "):
        parse_scenario(scenario(0.999 * SEGMENT_IMPEDANCE_FLOOR / ratio))


@pytest.mark.parametrize("section, key, value, message, command", [
    ("dcb", "latency", "-1 ms", "must be >= 0", "dcb"),
    ("dcb", "coordination_time", "0 ms", "must be positive", "dcb"),
    ("dcb", "coordination_time", "-16.7 ms", "must be positive", "dcb"),
    ("fault", "rf_min", "-1 ohm", "must be >= 0", "sweep"),
    ("fault", "rf_min", "0 ohm", "log spacing needs rf_min > 0", "sweep"),
    # one row for each range rule declared in FIELDS
    ("system", "frequency", "0 Hz", "must be positive", "sweep"),
    ("system", "line_line_voltage", "-480 V", "must be positive", "sweep"),
    ("system", "i_max", "0 A", "must be positive", "sweep"),
    ("system", "cable_resistance", "-1 mohm", "must be >= 0", "sweep"),
    ("system", "cable_inductance", "-1 uH", "must be >= 0", "sweep"),
    ("system", "cable_zero_seq_scale", "0", "must be positive", "sweep"),
    ("system", "fault_position", "1", "must lie strictly inside (0, 1)", "sweep"),
    ("system", "load_real_power", "-25 kW", "must be positive", "sweep"),
    ("system", "load_grounding_resistance", "-1 ohm", "must be >= 0", "sweep"),
    ("system", "v2_fraction", "1.5", "must lie in [0, 1]", "sweep"),
    ("system", "v0_fraction", "-0.1", "must lie in [0, 1]", "sweep"),
    ("fault", "rf", "-1 ohm", "must be >= 0", "sweep"),
    ("fault", "rf_points", "0", "must be >= 1", "sweep"),
    ("dcb", "loss", "1.5", "must lie in [0, 1]", "dcb"),
    ("dcb", "coordination_time", "5e-324 ms", "must be positive", "dcb"),
    ("dcb", "step", "0 ms", "must be positive", "dcb"),
    ("transient", "dt", "-1 ms", "must be positive", "trajectory"),
    ("transient", "duration", "-5 ms", "must be >= 0", "trajectory"),
], ids=["negative-latency", "zero-coordination", "negative-coordination", "negative-rf_min",
        "zero-rf_min-log", "zero-frequency", "negative-voltage", "zero-i_max",
        "negative-cable-resistance", "negative-cable-inductance", "zero-z0-scale",
        "fault-position-at-load", "negative-load-power", "negative-grounding",
        "v2-fraction-above-1", "negative-v0-fraction", "negative-rf", "zero-rf_points",
        "loss-above-1", "coordination-underflows-in-seconds", "zero-dcb-step",
        "negative-dt", "negative-transient-duration"])
def test_validation_names_the_field(tmp_path, capsys, section, key, value, message, command):
    for argv in (["validate"], [command]):
        assert _run(tmp_path, _set_field(section, key, value), *argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert f"[{section}] {key}: {message}" in err


@pytest.mark.parametrize("case, kind, source", [
    (1, "lg", "ideal"), (2, "lg", "inverter"), (3, "lg", "inverter"),
    (4, "ll", "ideal"), (5, "ll", "inverter"), (6, "ll", "ideal"),
])
def test_cli_case_without_a_fault_is_a_validation_error(tmp_path, capsys, case, kind, source):
    text = _set_field("fault", "rf", "inf ohm")
    text = text.replace("kind = lg", f"kind = {kind}").replace(
        "source = inverter", f"source = {source}"
    )
    assert _run(tmp_path, text, "case", "--case", str(case)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "[fault] rf" in err


def test_trajectory_and_dcb_accept_an_open_fault(tmp_path, capsys):
    text = _set_field("fault", "rf", "inf ohm")
    for argv in (["trajectory"], ["dcb"]):
        assert _run(tmp_path, text, *argv) == 0, argv
        assert "scenario_digest" in capsys.readouterr().out


def test_cli_trajectory_with_undefined_ground_reading_is_a_numerical_failure(tmp_path, capsys):
    # a downstream ground element compensated for an ungrounded load path
    # reads nan at every step
    text = _set_field("system", "load_grounding_resistance", "inf ohm")
    text = text.replace("location = upstream", "location = downstream")
    assert _run(tmp_path, text, "trajectory") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure: z_lg is not finite" in err


@pytest.mark.parametrize("z_lg, z_ll, i_a, name", [
    (complex("nan"), complex("nan"), complex("inf"), "z_lg"),
    (1 + 1j, complex("nan"), complex("inf"), "z_ll"),
    (1 + 1j, 1 + 1j, complex("inf"), "i_a"),
])
def test_cli_trajectory_reports_the_first_non_finite_reading(
    tmp_path, capsys, monkeypatch, z_lg, z_ll, i_a, name
):
    # two steps share their readings as a reused step does; the third is new
    first = TrajectoryPoint(0.0, PhaseTriple(1j, 1j, 1j), PhaseTriple(1j, 1j, 1j), 1 + 1j,
                            1 + 1j, False)
    bad = TrajectoryPoint(2e-3, first.relay_v, PhaseTriple(i_a, 1j, 1j), z_lg, z_ll, True)
    points = [first, first._replace(t=1e-3), bad, bad._replace(t=3e-3)]
    monkeypatch.setattr(trajectory, "simulate_trajectory", lambda *args, **kw: points)
    assert _run(tmp_path, default_text(), "trajectory") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"numerical failure: {name} is not finite: {getattr(bad, name, i_a)}\n"


def test_cli_bolted_fault_oracle_reading_is_a_numerical_failure(tmp_path, capsys):
    bolted_case = _set_field("fault", "rf", "0 ohm")
    bolted_sweep = _set_field("fault", "rf_min", "0 ohm").replace(
        "rf_spacing = log", "rf_spacing = linear"
    )
    for text, argv in ((bolted_case, ["case", "--case", "2"]), (bolted_sweep, ["sweep"])):
        assert _run(tmp_path, text, *argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "z_oracle = 0" in err


@pytest.mark.parametrize("section, key, ok, over", [
    ("fault", "rf_points", "10000", "10001"),
    ("transient", "dt", "0.002 ms", "0.0019 ms"),  # 200 ms window: 100,000 steps
    ("dcb", "step", "0.0001 ms", "0.00009 ms"),  # 100 ms window: 1,000,000 scans
])
def test_scenario_work_is_bounded_by_validation(tmp_path, capsys, section, key, ok, over):
    # validation alone: the capped loops themselves are never run
    assert _run(tmp_path, _set_field(section, key, ok), "validate") == 0
    capsys.readouterr()
    assert _run(tmp_path, _set_field(section, key, over), "validate") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"[{section}] {key}" in err


def test_dcb_step_must_be_positive(tmp_path, capsys):
    assert _run(tmp_path, _set_field("dcb", "step", "0 ms"), "validate") == 1
    assert "[dcb] step: must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "dcb"])
def test_dcb_duration_must_cover_one_step(tmp_path, capsys, command):
    assert _run(tmp_path, _set_field("dcb", "duration", "0.05 ms"), command) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "[dcb] duration: must cover at least one step" in err
    assert _run(tmp_path, _set_field("dcb", "duration", "0.1 ms"), command) == 0


def test_sweep_streams_all_points_through_one_network(tmp_path, monkeypatch):
    networks, points = [], []
    network, injections = nodal.Network, nodal.Network.injections

    def counted(nw, kind, rfs):
        for point in injections(nw, kind, rfs):
            points.append(point)
            yield point

    monkeypatch.setattr(nodal, "Network", lambda m: networks.append(m) or network(m))
    monkeypatch.setattr(network, "injections", counted)
    monkeypatch.setattr(network, "transfer", None)
    monkeypatch.setattr(nodal, "solve_network", None)
    assert cli.main(["sweep", _write_default(tmp_path)]) == 0
    assert len(networks) == 1 and len(points) == 40


@pytest.mark.parametrize("rf_min, rf_max, rf_points, rf_spacing", [
    ("1e-10 ohm", "1.7e308 ohm", 4, "log"),
    ("5e-324 ohm", "1 ohm", 40, "log"),
    ("1 ohm", "1.7976931348623157e308 ohm", 5, "log"),
    ("1 ohm", "1.7976931348623157e308 ohm", 4, "linear"),
], ids=["ratio-overflows", "subnormal-rf_min", "top-point-overflows", "linear-top-point-overflows"])
def test_rf_grid_that_overflows_is_a_validation_error(tmp_path, capsys, rf_min, rf_max,
                                                       rf_points, rf_spacing):
    # rf_max / rf_min overflows, so the log grid reaches rf = inf after its
    # first point, the log grid's top power raises OverflowError, or the
    # linear grid's rf_min + 3 * step rounds up past the largest float; each
    # was found only when a sweep ran
    text = _set_field("fault", "rf_min", rf_min)
    text = _set_field("fault", "rf_max", rf_max, text)
    text = _set_field("fault", "rf_points", str(rf_points), text)
    text = _set_field("fault", "rf_spacing", rf_spacing, text)
    with pytest.raises(ScenarioError, match=r"^\[fault\] rf_max: "):
        parse_scenario(text)
    for argv in (["validate"], ["sweep"], ["dcb"]):
        assert _run(tmp_path, text, *argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("validation error: [fault] rf_max: "), argv


def test_sweep_rejects_an_open_neutral_before_factoring_its_network(monkeypatch):
    # the network is singular too, but the closed forms' open neutral is a
    # scenario error, reported before any network is built
    s = parse_scenario("[system]\ncable_zero_seq_scale = 1e-300\n"
                       "load_grounding_resistance = inf ohm\n")
    monkeypatch.setattr(nodal, "Network", None)
    with pytest.raises(ModelError, match=r"^\[system\] load_grounding_resistance: "):
        cli.run_sweep(s)


@pytest.mark.parametrize("key, value, field, commands", [
    ("line_line_voltage", "1e-300 V", "line_line_voltage",
     ["validate", "case --case 2", "sweep", "dcb", "trajectory"]),
    ("load_reactive_power", "1e300 kvar", "line_line_voltage",
     ["validate", "case --case 2", "sweep", "dcb", "trajectory"]),
    ("load_grounding_resistance", "inf ohm", "load_grounding_resistance",
     ["case --case 2", "case --case 3", "sweep"]),
], ids=["load-impedance-underflow", "load-impedance-overflow", "open-neutral"])
def test_a_scenario_that_validates_fails_late_naming_its_field(
    tmp_path, capsys, key, value, field, commands
):
    # the load impedance v_ll^2 / conj(S) has no positive resistance left, a
    # scenario rule that validate names too, or the closed forms of case and
    # sweep meet an ungrounded load neutral, which validate accepts
    text = _set_field("system", key, value)
    if "validate" not in commands:
        assert _run(tmp_path, text, "validate") == 0
        capsys.readouterr()
    for argv in commands:
        assert _run(tmp_path, text, *argv.split()) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"validation error: [system] {field}: "), argv


def test_a_load_impedance_whose_magnitude_overflows_is_named_by_validation(tmp_path, capsys):
    # z_load is about 1.5e308 + 1.5e308j: both parts are finite, |z_load| is
    # not, and abs() raised OverflowError in sweep and case
    text = _set_field("system", "line_line_voltage", "1.2247e154 V")
    text = _set_field("system", "load_real_power", "0.5 W", text)
    text = _set_field("system", "load_reactive_power", "0.5 var", text)
    z_load = load_impedance_from_power(0.5, 0.5, 1.2247e154)
    assert math.isfinite(z_load.real) and math.isfinite(z_load.imag)
    assert math.hypot(z_load.real, z_load.imag) == math.inf
    message = ("[system] line_line_voltage: with load_real_power and load_reactive_power, "
               "the load impedance under- or overflows to no positive resistance")
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)
    for argv in (["validate"], ["case", "--case", "2"], ["sweep"], ["dcb"], ["trajectory"]):
        assert _run(tmp_path, text, *argv) == 1, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"validation error: {message}\n"), argv


def test_a_timer_running_across_a_million_scans_keeps_its_document():
    # 1e-4 ms of 1e-10 ms scans is MAX_DCB_SCANS scans, and neither timer
    # reaches 1e300 ms: both run to the window's end, and the catch-up must
    # neither overflow its scan count nor hold a float per skipped scan
    text = default_text()
    for key, value in (("coordination_time", "1e300 ms"), ("step", "1e-10 ms"),
                       ("duration", "1e-4 ms"), ("fault_time", "0 ms"), ("script", "internal")):
        text = _set_field("dcb", key, value, text)
    out = cli.run_dcb(parse_scenario(text))
    assert out.startswith("0,A,PickupFwd\n0,B,PickupFwd\n# summary A: tripped=no blocked=no\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "47155f2c7fd10106313e9e30789dfdc9692adddb471d81b6b283402a9dd9b462"
    )


def test_no_subcommand_imports_numpy_dataclasses_or_hashlib():
    # the child blocks numpy, dataclasses, hashlib and argparse (with the
    # gettext and locale it loads), so any import of them fails; every golden
    # document must still come out byte for byte, and -h, --version and a
    # usage error must still exit as they do
    from test_golden import DOCUMENTS, GOLDEN, SCENARIO, VARIANT_DOCUMENTS

    runs = {name: (str(SCENARIO), argv) for name, argv in DOCUMENTS.items()}
    runs.update({name: (str(GOLDEN / f"{variant}.scn"), argv)
                 for name, (variant, argv) in VARIANT_DOCUMENTS.items()})
    code = (
        "import contextlib, io, json, sys\n"
        "for name in ('numpy', 'dataclasses', 'hashlib', 'argparse', 'gettext', 'locale'):\n"
        "    sys.modules[name] = None\n"
        "import admrelay.cli, admrelay.dcb, admrelay.nodal, admrelay.trajectory\n"
        f"runs = {runs!r}\n"
        "out = {}\n"
        "for name, (path, (command, *extra)) in runs.items():\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = admrelay.cli.main([command, path, *extra])\n"
        "    out[name] = (code, buf.getvalue())\n"
        "for argv in (['-h'], ['--version'], ['case', runs['case2'][0]]):\n"
        "    buf, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):\n"
        "        code = admrelay.cli.main(argv)\n"
        "    out[argv[0]] = (code, buf.getvalue(), err.getvalue())\n"
        "print(json.dumps(out))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    code, out, _ = results.pop("-h")
    assert code == 0 and out.startswith("usage: admrelay [-h]")
    assert results.pop("--version")[:2] == [0, "admrelay 0.1.0\n"]
    code, out, err = results.pop("case")
    assert code == 1 and out == "" and "error: the following arguments are required: --case" in err
    assert sorted(results) == sorted(runs)
    for name, (code, out) in results.items():
        assert code == 0, name
        assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name


@pytest.mark.parametrize("text, message", [
    ("[fault]\nrf =\n", "[fault] rf: empty value"),
    ("[fault]\nrf = 3.68\n", "[fault] rf: expected '<number> <unit>', got '3.68'"),
    ("[fault]\nkind = lg ll\n", "[fault] kind: expected a single token, got 'lg ll'"),
    ("[fault]\nrf = x ohm\n", "[fault] rf: bad number 'x'"),
    ("[system]\nfault_position = x\n", "[system] fault_position: bad number 'x'"),
    ("[dcb]\noperational = yes\n", "[dcb] operational: expected true or false, got 'yes'"),
    ("[fault]\nkind = lll\n", "[fault] kind: 'lll' not one of ['lg', 'll']"),
    ("[relay]\nk_policy = x\n",
     "[relay] k_policy: expected auto, line, downstream-path or a complex literal"),
    ("[fault]\n[relay]\n[fault]\n", "line 3: duplicate section [fault]"),
    ("# comment\nrf = 1 ohm\n", "line 2: key/value outside any section"),
    ("[fault]\nrf 1 ohm\n", "line 2: expected 'key = value'"),
    ("[fault]\nrf = 1 ohm\n\nrf = 2 ohm\n", "line 4: duplicate key 'rf' in [fault]"),
    ("[system]\nfrequency = 0 Hz\n", "[system] frequency: must be positive"),
    ("[system]\nv0_fraction = 1.5\n", "[system] v0_fraction: must lie in [0, 1]"),
    ("[fault]\nrf_points = 0\n", "[fault] rf_points: must be >= 1"),
    ("[dcb]\nloss = -0.1\n", "[dcb] loss: must lie in [0, 1]"),
    ("[transient]\ndt = 0 ms\n", "[transient] dt: must be positive"),
    ("[transient]\nfault_time = 200 ms\n", "[transient] fault_time: must fall before duration"),
    # two invalid fields: the first in declared order is named, not the first
    # in the file, and an out-of-range value counts as much as a malformed one
    ("[system]\nv0_fraction = x\nfrequency = 0 Hz\n", "[system] frequency: must be positive"),
], ids=["empty", "quantity-tokens", "single-token", "bad-quantity-number", "bad-number",
        "boolean", "choice", "k_policy", "duplicate-section", "outside-section",
        "no-equals", "duplicate-key", "system-positive", "fraction-range", "rf_points",
        "dcb-loss", "transient-dt", "transient-fault_time", "first-invalid-in-declared-order"])
def test_validate_reports_each_scenario_error(tmp_path, capsys, text, message):
    assert _run(tmp_path, text, "validate") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"validation error: {message}\n"


# values that stress the emission's number formats: signed zero, subnormals,
# extremes, integers and booleans where floats are declared, long mantissas
_NUMBERS = [0, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308,
            math.inf, -math.inf, 1, 40, 10**20, True, False, 0.1, 1 / 3, -2.5, 123456789.123456789]


def _random_value(rng, spec):
    """A value of the spec's kind: its default object, an equal but distinct
    copy of it, or a seeded draw, in the forms a parse or a caller gives."""
    draw = rng.random()
    if draw < 0.3:
        return spec.default
    kind = spec.kind
    if draw < 0.45:  # equal to the default, not the same object
        if kind == "quantity":
            return (float(spec.default[0]), "".join(spec.default[1]))
        return {"number": float, "integer": lambda v: int(str(v)), "boolean": bool}.get(
            kind, lambda v: "".join(v))(spec.default)
    number = rng.choice(_NUMBERS + [rng.uniform(-1e6, 1e6), rng.lognormvariate(0.0, 30.0)])
    if kind == "quantity":
        return (number, rng.choice(spec.units))
    if kind == "number":
        return number
    if kind == "integer":
        return rng.choice([0, -1, 7, 123456, 10**30, True])
    if kind == "boolean":
        return rng.choice([True, False, 1, 0])
    if kind == "kpolicy":
        return rng.choice(["auto", "line", "downstream-path",
                           complex(number if math.isfinite(number) else 0.5, rng.choice(_NUMBERS[:9])),
                           complex(-0.0, -0.0), 0.5 - 0.2j])
    return rng.choice(spec.choices)


def test_emission_matches_the_field_by_field_reference():
    rng = random.Random(18)
    for _ in range(400):
        s = default_scenario() if rng.random() < 0.5 else parse_scenario(default_text())
        for section in ("dcb", "transient"):
            if rng.random() < 0.2:
                del s.sections[section]
        for section, values in s.sections.items():
            for key, spec in FIELDS[section].items():
                if rng.random() < 0.6:
                    values[key] = _random_value(rng, spec)
        assert scenario_to_text(s) == emit_every_field(s)
        assert scenario_digest(s) == digest_every_field(s)
