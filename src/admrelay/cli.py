"""Command-line front end: scenario-driven case runs, sweeps, pilot-scheme
and trajectory simulations, all emitting flat greppable text.

Exit status: 0 on success, 1 on usage and validation problems (bad arguments,
bad scenario, case and scenario disagreeing, unwritable output), 2 on
numerical failure (singular system, undefined measurement, non-finite result).
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable

from . import __version__, faults, nodal
from .errors import MeasurementError, ModelError, NumericalError, require_finite
from .faults import (
    FaultSolution,
    solve_lg_downstream,
    solve_lg_upstream_ideal,
    solve_lg_upstream_inverter,
    solve_ll_downstream,
    solve_ll_upstream_ideal,
    solve_ll_upstream_inverter,
)
from .network import FaultKind, FaultSpec, MicrogridModel, RelayLocation, downstream_path
from .phasors import PhaseTriple, fmt_complex, sequence_to_phase
from .relaying import measure_zlg, measure_zll, path_compensation
from .scenario import (
    Scenario,
    build_model,
    parse_scenario,
    relay_location,
    scenario_digest,
    scenario_to_text,
    sweep_points,
)

# case number -> (fault kind, required source or None, relay location, solver)
CASES: dict[int, tuple[str, str | None, RelayLocation, object]] = {
    1: ("lg", "ideal", RelayLocation.UPSTREAM_OF_FAULT, solve_lg_upstream_ideal),
    2: ("lg", "inverter", RelayLocation.UPSTREAM_OF_FAULT, solve_lg_upstream_inverter),
    3: ("lg", None, RelayLocation.DOWNSTREAM_OF_FAULT, solve_lg_downstream),
    4: ("ll", "ideal", RelayLocation.UPSTREAM_OF_FAULT, solve_ll_upstream_ideal),
    5: ("ll", "inverter", RelayLocation.UPSTREAM_OF_FAULT, solve_ll_upstream_inverter),
    6: ("ll", None, RelayLocation.DOWNSTREAM_OF_FAULT, solve_ll_downstream),
}


def _oracle_judge(m: MicrogridModel, location: RelayLocation) -> Callable[..., tuple[complex, float]]:
    """The judge of a closed-form reading z_measured at a relay at location in
    m's network: judge(z_measured, v, i) is the nodal oracle's reading from its
    relay voltages v and currents i (nodal.reading) and z_measured's relative
    error against it, both read the same way: a downstream ground element
    compensated for its load path (as solve_lg_downstream reads it), any other
    the plain ratio.  That choice and the compensation are made here, once."""
    kind, k = m.fault.kind, None
    if location is RelayLocation.DOWNSTREAM_OF_FAULT and kind is FaultKind.LINE_GROUND_A:
        z_d1, z_d0 = downstream_path(m)
        k = path_compensation(z_d0, z_d1)

    def judge(z_measured: complex, v: PhaseTriple | list[complex],
              i: PhaseTriple | list[complex]) -> tuple[complex, float]:
        z_oracle = nodal.reading(kind, v, i)
        if not (cmath.isfinite(z_measured) and cmath.isfinite(z_oracle)):
            require_finite(z_measured=z_measured, z_oracle=z_oracle)
        if z_oracle == 0:
            raise MeasurementError("z_oracle = 0 (bolted fault): the relative error is undefined")
        z_ref = z_oracle
        if k is not None:
            # i0 as phase_to_sequence computes it
            z_ref = measure_zlg(v[0], i[0], (i[0] + i[1] + i[2]) / 3.0, k)
            require_finite(z_oracle_compensated=z_ref)
        rel_err = abs(z_measured - z_ref) / abs(z_ref)
        if not math.isfinite(rel_err):  # |z_ref| subnormal: the quotient overflows
            raise NumericalError(f"relative error is not finite: {rel_err}")
        return z_oracle, rel_err

    return judge


def _policy_k(s: Scenario, m: MicrogridModel, location: RelayLocation) -> tuple[str, complex]:
    policy = s.get("relay", "k_policy")
    if isinstance(policy, complex):
        return "explicit", policy
    if policy == "auto":
        policy = (
            "downstream-path" if location is RelayLocation.DOWNSTREAM_OF_FAULT else "line"
        )
    if policy == "line":
        z1 = m.line_1m.z1 + m.line_m2.z1
        z0 = m.line_1m.z0 + m.line_m2.z0
        return "line", path_compensation(z0, z1)
    z_d1, z_d0 = downstream_path(m)
    return "downstream-path", path_compensation(z_d0, z_d1)


def _compensated(sol: FaultSolution, m: MicrogridModel, k: complex) -> complex:
    if m.fault.kind.value == "lg":
        return measure_zlg(sol.relay_v.a, sol.relay_i.a, sol.relay_seq_i.zero, k)
    return measure_zll(sol.relay_v.b, sol.relay_v.c, sol.relay_i.b, sol.relay_i.c)


def _require_grounded(s: Scenario) -> None:  # the closed forms of case and sweep
    if not math.isfinite(s.si("system", "load_grounding_resistance")):
        raise ModelError("[system] load_grounding_resistance: the closed-form solvers of case "
                         "and sweep need a finite grounding resistance")


def run_case(s: Scenario, case: int) -> str:
    if case not in CASES:
        raise ModelError(f"case must be one of {sorted(CASES)}")
    kind, source_req, location, solver = CASES[case]
    if str(s.get("fault", "kind")) != kind:
        raise ModelError(f"case {case} needs a {kind} fault, scenario has "
                         f"{s.get('fault', 'kind')}")
    source_kind = str(s.get("system", "source"))
    if source_req is not None and source_kind != source_req:
        raise ModelError(f"case {case} needs source = {source_req}, scenario has {source_kind}")
    if not math.isfinite(s.si("fault", "rf")):
        raise ModelError("[fault] rf: a case is a fault study and needs a finite fault resistance")
    _require_grounded(s)

    m = build_model(s)
    sol: FaultSolution = solver(m)
    oracle = nodal.solve_network(m, location)
    _, rel_err = _oracle_judge(m, location)(sol.z_measured, oracle.relay_v, oracle.relay_i)
    policy_name, k = _policy_k(s, m, location)
    z_d1, _ = downstream_path(m)
    z_comp = _compensated(sol, m, k)
    require_finite(k=k, z_compensated=z_comp, z_d1=z_d1,
                   **{f"int.{key}": v for key, v in sol.intermediates.items()})

    lines = [
        "# admrelay case result",
        f"version = {__version__}",
        f"scenario_digest = {scenario_digest(s)}",
        f"case = {case}",
        f"kind = {kind}",
        f"source = {source_kind}",
        f"relay_location = {location.value}",
        f"rf_ohm = {m.fault.rf:.12g}",
        f"z_measured = {fmt_complex(sol.z_measured)}",
        f"z_oracle = {fmt_complex(oracle.z_measured)}",
        f"relative_error = {rel_err:.6e}",
        f"k_policy = {policy_name}",
        f"k = {fmt_complex(k)}",
        f"z_compensated = {fmt_complex(z_comp)}",
        f"z_d1 = {fmt_complex(z_d1)}",
    ]
    for key in sorted(sol.intermediates):
        lines.append(f"int.{key} = {fmt_complex(sol.intermediates[key])}")
    return "\n".join(lines) + "\n"


def run_sweep(s: Scenario) -> str:
    _require_grounded(s)
    location = relay_location(s)
    grid = sweep_points(s)
    base = build_model(s)
    kind = base.fault.kind
    network = nodal.Network(base)
    # every point has the base's network and source and reads only the
    # fault-node voltage and its relay's current
    v = sequence_to_phase(base.source.sequence_voltages())
    points = network.readings(kind, grid, v, nodal.RELAY_ROW[location])
    judge = _oracle_judge(base, location)
    rows = ["rf_ohm,Re_Z,Im_Z,mag_Z,oracle_mag_Z,rel_err"]
    closed_form = None
    for rf, (v_m, relay_i) in zip(grid, points):
        # reduced once, at the first point's model, where its solve would check it
        closed_form = closed_form or faults.reduce(base.with_fault(FaultSpec(kind, rf)), location)
        z, _ = closed_form(rf)
        z_oracle, rel_err = judge(z, v_m, relay_i)
        rows.append("%.10g,%.10g,%.10g,%.10g,%.10g,%.6e"
                    % (rf, z.real, z.imag, abs(z), abs(z_oracle), rel_err))
    rows.append(f"# version = {__version__}")
    rows.append(f"# scenario_digest = {scenario_digest(s)}")
    return "\n".join(rows) + "\n"


def run_dcb(s: Scenario) -> str:
    from . import dcb  # imported here: validate, case and sweep runs never load it

    if not s.has("dcb"):
        raise ModelError("scenario has no [dcb] section")
    script_kind = str(s.get("dcb", "script"))
    fault_time = s.si("dcb", "fault_time") * 1e3  # ms
    if script_kind == "network":  # the only script that reads the model
        script = dcb.couple_from_network(build_model(s), fault_time=fault_time)
    else:  # internal, or external: beyond relay B, which then looks reverse
        external = script_kind == "external"
        script = {dcb.RELAY_A: [dcb.PickupChange(fault_time, True, False)],
                  dcb.RELAY_B: [dcb.PickupChange(fault_time, not external, external)]}
    channel = dcb.ChannelModel(
        latency=s.si("dcb", "latency") * 1e3,
        operational=bool(s.get("dcb", "operational")),
        loss_probability=float(s.get("dcb", "loss")),  # type: ignore[arg-type]
        seed=int(s.get("dcb", "seed")),  # type: ignore[arg-type]
    )
    scenario = dcb.DcbScenario(
        coordination_time=s.si("dcb", "coordination_time") * 1e3,
        channel=channel,
        fault_script=script,
        duration=s.si("dcb", "duration") * 1e3,
        step=s.si("dcb", "step") * 1e3,
    )
    events = dcb.simulate(scenario)
    out = dcb.format_trace(events)
    summary = dcb.trip_summary(events)
    for relay in (dcb.RELAY_A, dcb.RELAY_B):
        flags = summary[relay]
        out += (f"# summary {relay}: tripped=" + ("yes" if flags["tripped"] else "no")
                + " blocked=" + ("yes" if flags["blocked"] else "no") + "\n")
    out += f"# version = {__version__}\n# scenario_digest = {scenario_digest(s)}\n"
    return out


def run_trajectory(s: Scenario) -> str:
    from . import trajectory  # imported here, as dcb is in run_dcb

    if not s.has("transient"):
        raise ModelError("scenario has no [transient] section")
    m = build_model(s)
    limiter_name = str(s.get("transient", "limiter"))
    limiter = None if limiter_name == "none" else trajectory.LimiterKind(limiter_name)
    fault_time = s.si("transient", "fault_time")
    points = trajectory.simulate_trajectory(
        m,
        fault_time=fault_time,
        duration=s.si("transient", "duration"),
        dt=s.si("transient", "dt"),
        limiter=limiter,
        relay_location=relay_location(s),
    )
    return (trajectory.format_trajectory(points, fault_time)
            + f"# version = {__version__}\n# scenario_digest = {scenario_digest(s)}\n")


def run_validate(s: Scenario) -> str:
    return scenario_to_text(s)


COMMANDS = {
    "case": "run one analytic fault case with its oracle cross-check",
    "sweep": "sweep fault resistance and tabulate measured impedance",
    "dcb": "simulate the directional comparison blocking scheme",
    "trajectory": "run the quasi-static R-X trajectory simulation",
    "validate": "validate a scenario file and print its canonical form",
}
# option -> (value type, None for a flag; the subcommands that take it, "" being
# the top level; help text). --case is required.
OPTIONS: dict[str, tuple[type | None, tuple[str, ...], str]] = {
    "--help": (None, ("", *COMMANDS), "show this help and exit"),
    "--version": (None, ("",), "show the version and exit"),
    "--out": (str, tuple(COMMANDS), "write output here instead of stdout"),
    "--case": (int, ("case",), "case number 1..6"),
    "--seed": (int, ("dcb",), "override the channel seed"),
}


def _is_option(arg: str) -> bool:
    """argparse's test: a leading "-", unless the argument is "-" or a negative number."""
    head, dot, tail = arg[1:].partition(".")
    number = (head.isdecimal() or (dot and not head)) and (not dot or tail.isdecimal())
    return arg[:1] == "-" and arg != "-" and not number


def _help(command: str) -> str:
    """The usage line, the description and a line for each argument."""
    usage = [f"admrelay {command}".rstrip()]
    rows = [("scenario", "scenario file path")] if command else list(COMMANDS.items())
    for name, (kind, commands, text) in OPTIONS.items():
        if command in commands:
            word = "-h" if name == "--help" else f"{name} {name[2:].upper()}" if kind else name
            usage.append(word if name == "--case" else f"[{word}]")
            rows.append(("-h, --help" if name == "--help" else word, text))
    usage.append("scenario" if command else "{" + ",".join(COMMANDS) + "} ...")
    about = COMMANDS.get(command, "Admittance-relaying study tool for a two-bus microgrid")
    return (f"usage: {' '.join(usage)}\n\n{about}\n\narguments:\n"
            + "".join(f"  {word:<13}{text}\n" for word, text in rows))


def parse_args(argv: list[str]) -> tuple[str, str | None, dict[str, object]]:
    """Split ``admrelay`` arguments into (command, scenario path, options by long name).

    As with argparse, options may come before or after the scenario, as
    ``--opt value``, ``--opt=value`` or a unique prefix of ``--opt``, and the
    first ``--`` ends them. -h/--help and --version end the parse. A usage
    error raises ModelError with a usage line and an ``error:`` line.
    """
    command, scenario, opts, unknown, options_end = "", None, {}, [], False

    def fail(message: str) -> None:
        usage = _help(command).split("\n", 1)[0]
        raise ModelError(f"{usage}\n{f'admrelay {command}'.rstrip()}: error: {message}")

    # argparse first classifies every argument before the first "--", and "--" is
    # a prefix of both top-level long options
    ambiguous = [arg for arg in (argv[:argv.index("--")] if "--" in argv else argv)
                 if arg.startswith("--=")]
    if ambiguous:
        fail(f"ambiguous option: {ambiguous[0]} could match --help, --version")
    args = iter(argv)
    for step, arg in enumerate(args):
        # before the command, argparse drops a last "--" and takes any other for a bad one
        if arg == "--" and not options_end and (command or step == len(argv) - 1):
            options_end = True
            if scenario is not None and step != scenario_step + 1:  # argparse drops it only here
                unknown.append(arg)
        elif not options_end and arg != "--" and _is_option(arg):
            name, eq, value = arg.partition("=")
            if arg[:2] == "-h" and arg[2:3] not in ("", "="):
                # argparse reads -hx as -h, then -x: a further h is -h again, and
                # whatever is left over is an explicit argument -h ignores
                name, eq = "-h", arg[2:].lstrip("h")
                value = eq
            name = "--help" if name == "-h" else name
            found = [o for o, (_, commands, _) in OPTIONS.items() if command in commands
                     and (o == name or (len(name) > 2 and o.startswith(name)))]
            if len(found) != 1:  # reported after the parse, as argparse does
                unknown.append(arg)
                continue
            name, (kind, _, _) = found[0], OPTIONS[found[0]]
            if kind is None and eq:
                fail(f"argument {'-h/' if name == '--help' else ''}{name}: ignored explicit "
                     f"argument {value!r}")
            elif kind is None:  # --help or --version
                opts[name] = True
                return command, scenario, opts
            elif not eq:
                value = next(args, "--")
                if value == "--" or _is_option(value):
                    fail(f"argument {name}: expected one argument")
            try:
                opts[name] = kind(value)
            except ValueError:
                fail(f"argument {name}: invalid {kind.__name__} value: {value!r}")
        elif not command:
            if arg not in COMMANDS:
                fail(f"argument command: invalid choice: {arg!r} "
                     f"(choose from {', '.join(map(repr, COMMANDS))})")
            command = arg
        elif scenario is None:
            scenario, scenario_step = arg, step
        else:
            unknown.append(arg)
    missing = [] if scenario is not None else ["scenario"]
    missing += ["--case"] if command == "case" and "--case" not in opts else []
    if not command or missing:
        fail(f"the following arguments are required: {', '.join(missing) if command else 'command'}")
    if unknown:  # argparse reports these with the top-level usage
        command = ""
        fail(f"unrecognized arguments: {' '.join(unknown)}")
    return command, scenario, opts


def main(argv: list[str] | None = None) -> int:
    try:
        command, path, opts = parse_args(sys.argv[1:] if argv is None else argv)
    except ModelError as exc:
        print(exc, file=sys.stderr)
        return 1
    if "--help" in opts or "--version" in opts:
        sys.stdout.write(_help(command) if "--help" in opts else f"admrelay {__version__}\n")
        return 0
    try:
        with open(path, encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
        if "--seed" in opts and scenario.has("dcb"):  # the run's seed, which the digest covers
            scenario.sections["dcb"]["seed"] = opts["--seed"]
        run = globals()[f"run_{command}"]  # looked up now: the bench tracer and tests patch run_*
        out = run(scenario, opts["--case"]) if command == "case" else run(scenario)
        if opts.get("--out"):
            with open(opts["--out"], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc})", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
