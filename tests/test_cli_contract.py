"""The CLI's exit contract on seeded random scenarios, stdlib only.

Every command either succeeds (exit 0) with a document free of nan and inf,
or fails with exit 1 (invalid input) or 2 (numerical failure), an empty
stdout and one error line without a traceback.  A scenario that validate
rejects is rejected by every command with the same message.  Conversely, a
scenario that validate accepts is not refused by both dcb and trajectory
with one identical message: a refusal that two commands with no common step
but the parse and the model build share is a scenario rule, which belongs in
validation.

The generator starts from the default scenario and changes a few fields,
mostly to in-range values and sometimes to extreme ones (0, subnormal,
1e+-300, inf, negative), so that most scenarios validate and the commands
get to run.  Run more seeds than the suite does with

    PYTHONPATH=src python tests/test_cli_contract.py FIRST STOP

and the fixed degenerate scenarios in fresh CLI processes with

    PYTHONPATH=src python tests/test_cli_contract.py fixed
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
import traceback

import pytest

from admrelay import cli
from admrelay.scenario import FIELDS, default_scenario, scenario_to_text

COMMANDS = [["validate"], ["sweep"], ["dcb"], ["trajectory"],
            *(["case", "--case", str(case)] for case in range(1, 7))]
ERROR_PREFIXES = ("validation error: ", "numerical failure: ", "error: ")
# nan or inf as Python prints a float or a complex part, not inside a word
NON_FINITE = re.compile(r"(?<![A-Za-z])(?:nan|inf)(?![A-Za-ik-z])")
EXTREMES = ["0", "5e-324", "1e-300", "1e300", "inf", "-1"]
# fields the generator keeps small, so that one scenario runs in a few ms
WORK = {("fault", "rf_points"): (1, 8), ("dcb", "duration"): (20, 100),
        ("transient", "duration"): (60, 200)}
TIER1_SEEDS = range(150)  # about 1.3 s with Python 3.11 on a 2-core host


def _value(rng: random.Random, section: str, key: str) -> str:
    spec = FIELDS[section][key]
    if (section, key) in WORK:
        lo, hi = WORK[section, key]
        n = rng.randint(lo, hi)
        return f"{n} ms" if spec.kind == "quantity" else str(n)
    if spec.kind in ("choice", "boolean", "kpolicy", "integer"):
        return rng.choice({"choice": list(spec.choices), "boolean": ["true", "false"],
                           "kpolicy": ["auto", "line", "downstream-path", "0.5+0.2j"],
                           "integer": ["0", "1", "7", "123456"]}[spec.kind])
    default = spec.default[0] if spec.kind == "quantity" else spec.default
    if rng.random() < 0.3:
        number = rng.choice(EXTREMES)
    elif key.endswith(("fraction", "position")) or section == "dcb" and key == "loss":
        number = repr(rng.uniform(0.0, 1.0))
    else:
        number = repr((default or 1.0) * rng.uniform(0.5, 1.5))
    return f"{number} {spec.default[1]}" if spec.kind == "quantity" else number


def scenario_text(seed: int) -> str:
    """The default scenario with a seeded handful of fields changed, and
    sometimes without its [dcb] or [transient] section."""
    rng = random.Random(seed)
    s = default_scenario()
    for section in ("dcb", "transient"):
        if rng.random() < 0.1:
            del s.sections[section]
    lines = scenario_to_text(s).splitlines()
    keys = [(section, key) for section, fields in FIELDS.items() if section in s.sections
            for key in fields]
    changes = set(rng.sample(keys, rng.randint(1, 4))) | set(WORK)
    current = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            current = line[1:-1]
        elif line:
            key = line.split(" = ")[0]
            if (current, key) in changes:
                lines[i] = f"{key} = {_value(rng, current, key)}"
    return "\n".join(lines) + "\n"


def run(path: str, argv: list[str]) -> tuple[object, str, str]:
    """cli.main's exit status, or the exception it raised, and its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([argv[0], path, *argv[1:]])
        except Exception:
            code = traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def violations(text: str, directory: str) -> tuple[list[str], dict[str, object]]:
    """Every broken promise for one scenario, and each command's exit status."""
    path = os.path.join(directory, "scenario.scn")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    found, exits, errors, rejected = [], {}, {}, None
    for argv in COMMANDS:
        name = " ".join(argv)
        code, out, err = run(path, argv)
        exits[name], errors[name] = code, err
        if code not in (0, 1, 2):
            found.append(f"{name}: raised or returned {code!r}")
            continue
        if code == 0 and argv[0] != "validate" and NON_FINITE.search(out):
            found.append(f"{name}: exit 0 prints {NON_FINITE.search(out).group()!r}")
        if code != 0 and (out or "Traceback" in err or err.count("\n") != 1
                          or not err.startswith(ERROR_PREFIXES)):
            found.append(f"{name}: exit {code} with stdout {out[:60]!r}, stderr {err!r}")
        if argv[0] == "validate" and code == 1:
            rejected = err
        elif rejected is not None and (code, err) != (1, rejected):
            found.append(f"{name}: exit {code} with {err!r} for a scenario validate rejects")
    if exits["validate"] == 0 and exits["dcb"] == exits["trajectory"] == 1 and (
            errors["dcb"] == errors["trajectory"]):
        found.append(f"dcb and trajectory: exit 1 with {errors['dcb']!r} for a scenario "
                     "validate accepts")
    return found, exits


def _edit(**fields: str) -> str:
    """The default scenario with whole `key = value` lines replaced."""
    lines = scenario_to_text(default_scenario()).splitlines()
    for i, line in enumerate(lines):
        key = line.split(" = ")[0]
        if key in fields:
            lines[i] = f"{key} = {fields[key]}"
    return "\n".join(lines) + "\n"


EVERY_COMMAND_REJECTS = {"validate": 1, "case --case 2": 1, "sweep": 1, "dcb": 1, "trajectory": 1}


# (id, scenario text, the exit status expected of some commands): degenerate
# inputs, each kept to the contract in process by the suite and in a fresh
# `python -m admrelay.cli` process by `python tests/test_cli_contract.py fixed`
FIXED = [
    # the relay currents underflow to 0: the oracle's reading is undefined,
    # and the DCB coupling, which reads no impedance, still runs
    ("huge-inductance-ll-downstream",
     _edit(cable_inductance="1e300 uH", kind="ll", location="downstream"),
     {"sweep": 2, "case --case 6": 2, "dcb": 0}),
    ("huge-resistance", _edit(cable_resistance="1e300 ohm", cable_zero_seq_scale="1"),
     {"dcb": 0}),
    # a subnormal oracle reading: the relative error overflows
    ("subnormal-sweep", _edit(rf_min="5e-324 ohm", rf_points="1"), {"sweep": 2}),
    ("subnormal-case", _edit(rf="5e-324 ohm"), {"case --case 2": 2}),
    # the load impedance under- or overflows to no positive resistance, and an
    # ungrounded load neutral that only the closed forms reject
    ("load-underflow", _edit(line_line_voltage="1e-300 V"), EVERY_COMMAND_REJECTS),
    ("load-overflow", _edit(load_reactive_power="1e300 kvar"), EVERY_COMMAND_REJECTS),
    ("open-neutral", _edit(load_grounding_resistance="inf ohm"),
     {"case --case 2": 1, "sweep": 1, "dcb": 0, "trajectory": 0}),
    # v_ll^2 overflows, so the load impedance is not finite
    ("voltage-overflow", _edit(line_line_voltage="1e200 V"), EVERY_COMMAND_REJECTS),
    # both parts of the load impedance (about 1.5e308 each) are finite, but its
    # magnitude is not: abs() raised OverflowError in sweep and case
    ("load-magnitude-overflow", _edit(line_line_voltage="1.2247e154 V",
                                      load_real_power="0.5 W", load_reactive_power="0.5 var"),
     EVERY_COMMAND_REJECTS),
    # [dcb] times that overflow when the simulator counts them in ms
    ("dcb-ms-overflow",
     _edit(step="1e308 s").replace("\nduration = 100 ms\n", "\nduration = 1e308 s\n"),
     EVERY_COMMAND_REJECTS),
    # a segment, or the whole cable, whose impedance is round-off against the
    # load's: every reading through it would be noise
    ("negligible-source-side-segment", _edit(fault_position="1e-300"), EVERY_COMMAND_REJECTS),
    ("negligible-load-side-segment", _edit(fault_position="0.9999999999999999"),
     EVERY_COMMAND_REJECTS),
    ("negligible-cable", _edit(cable_resistance="1e-300 ohm", cable_inductance="0 H"),
     EVERY_COMMAND_REJECTS),
    # a log grid whose top point overflows: float ** raised OverflowError in sweep
    ("log-grid-overflow", _edit(rf_min="1 ohm", rf_max="1.7976931348623157e308 ohm",
                                rf_points="5"), EVERY_COMMAND_REJECTS),
    # a linear grid whose top point rounds up to inf: the closed form refused it late
    ("linear-grid-overflow", _edit(rf_min="1 ohm", rf_max="1.7976931348623157e308 ohm",
                                   rf_points="4", rf_spacing="linear"), EVERY_COMMAND_REJECTS),
    # a [transient] window that ends before t = 0: the simulator made no step
    # and the document raised on its empty list of points
    ("negative-transient-window",
     _edit().replace("\nduration = 200 ms\n", "\nduration = -5 ms\n")
     .replace("\nfault_time = 50 ms\n", "\nfault_time = -10 ms\n"), EVERY_COMMAND_REJECTS),
    # a linear sweep from rf = 0 reaches the bolted point, where z_oracle = 0
    ("bolted-linear-sweep", _edit(rf_min="0 ohm", rf_spacing="linear"), {"sweep": 2}),
    # a downstream line-line sweep from rf = 0 fails its closed form's rf > 0 check
    ("bolted-ll-downstream-sweep",
     _edit(kind="ll", location="downstream", rf_min="0 ohm", rf_spacing="linear"), {"sweep": 1}),
    # both timers run across 1,000,000 scans to the end of the window
    ("million-scan-dcb",
     _edit(coordination_time="1e300 ms", step="1e-10 ms", script="internal")
     .replace("\nduration = 100 ms\n", "\nduration = 1e-4 ms\n")
     .replace("\nfault_time = 10 ms\n", "\nfault_time = 0 ms\n"), {"dcb": 0}),
]


@pytest.mark.parametrize("text, expected", [row[1:] for row in FIXED],
                         ids=[row[0] for row in FIXED])
def test_fixed_scenarios_keep_the_contract(tmp_path, text, expected):
    found, exits = violations(text, str(tmp_path))
    assert found == []
    assert {name: exits[name] for name in expected} == expected


def test_random_scenarios_keep_the_contract(tmp_path):
    found, valid = [], 0
    for seed in TIER1_SEEDS:
        text = scenario_text(seed)
        broken, exits = violations(text, str(tmp_path))
        found += [f"seed {seed}: {v}" for v in broken]
        valid += exits["validate"] == 0
    assert found == []
    assert valid >= len(TIER1_SEEDS) / 2  # the commands get to run


def fresh_process_violations(text: str, expected: dict[str, int], directory: str) -> list[str]:
    """Each command of one fixed row run by a fresh ``python -m admrelay.cli``:
    its expected exit status, no traceback, and no stdout when it fails."""
    path = os.path.join(directory, "scenario.scn")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    # the processes import the package this module tests
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    found = []
    for name, want in expected.items():
        command, *options = name.split()
        done = subprocess.run([sys.executable, "-m", "admrelay.cli", command, path, *options],
                              capture_output=True, text=True, env=env, timeout=60)
        if done.returncode != want or "Traceback" in done.stderr or (want and done.stdout):
            found.append(f"{name}: exit {done.returncode}, not {want}, with stdout "
                         f"{done.stdout[:60]!r}, stderr {done.stderr!r}")
    return found


def test_fresh_process_runner_reports_a_broken_promise(tmp_path):
    # validate accepts the default scenario, so expecting exit 1 is a violation
    assert fresh_process_violations(_edit(), {"validate": 0}, str(tmp_path)) == []
    assert len(fresh_process_violations(_edit(), {"validate": 1}, str(tmp_path))) == 1


def main(argv: list[str]) -> int:
    """``fixed``: the fixed rows in fresh processes; ``FIRST STOP``: those seeds."""
    if argv == ["fixed"]:
        with tempfile.TemporaryDirectory() as directory:
            found = [f"{name}: {v}" for name, text, expected in FIXED
                     for v in fresh_process_violations(text, expected, directory)]
        print(*found, f"{len(FIXED)} fixed scenarios: {len(found)} violations", sep="\n")
        return 1 if found else 0
    first, stop = map(int, argv)
    tally: dict[object, int] = {}
    valid, failures = 0, 0
    with tempfile.TemporaryDirectory() as directory:
        for seed in range(first, stop):
            found, exits = violations(scenario_text(seed), directory)
            valid += exits["validate"] == 0
            for code in exits.values():
                code = code if code in (0, 1, 2) else "raised"
                tally[code] = tally.get(code, 0) + 1
            for v in found:
                failures += 1
                print(f"seed {seed}: {v}")
    print(f"seeds {first}..{stop - 1}: {valid} validate, exits {tally}, "
          f"{failures} violations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
