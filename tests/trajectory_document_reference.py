"""Reference for the trajectory document, and the differential check against it.

:func:`document_every_walk` is :func:`admrelay.cli.run_trajectory` as it was
while the CLI read the simulator's points itself: after
``simulate_trajectory`` it walked the distinct readings once for the finite
check, formatted the rows with the old one-argument ``format_trajectory``,
built the post-fault list and judged each quadrant flag with its own
``all()``, then appended the summary, version and digest lines.  It keeps
its own copies of those steps, so a rewrite of the document path cannot
change both sides at once.  The tests compare the two documents byte for
byte, or the class and message of what both raise.  Run more seeds than the
suite does with

    PYTHONPATH=src python tests/trajectory_document_reference.py FIRST STOP
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from collections import Counter

from admrelay import __version__, cli, trajectory
from admrelay.errors import ModelError, NumericalError
from admrelay.scenario import Scenario, build_model, parse_scenario, relay_location, scenario_digest

HEADER = "t_s,Re_Zlg_ohm,Im_Zlg_ohm,Re_Zll_ohm,Im_Zll_ohm,I_a_rms_A,limited"
VERDICT_LINES = ("# post_fault_first_quadrant_z_lg = ", "# post_fault_first_quadrant_z_ll = ")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _require_finite(**values: complex) -> None:
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise NumericalError(f"{name} is not finite: {value}")


def _rows(points: list) -> str:
    lines = [HEADER]
    q = None
    for p in points:
        if not (q and p.z_lg is q.z_lg and p.z_ll is q.z_ll and p.relay_i is q.relay_i
                and p.limited is q.limited):
            q, rest = p, (f"{p.z_lg.real:.10g},{p.z_lg.imag:.10g},"
                          f"{p.z_ll.real:.10g},{p.z_ll.imag:.10g},"
                          f"{abs(p.relay_i.a):.10g},{1 if p.limited else 0}")
        lines.append(f"{p.t:.6g},{rest}")
    return "\n".join(lines) + "\n"


def document_every_walk(s: Scenario) -> str:
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
    q = None
    for p in points:
        if not (q and p.z_lg is q.z_lg and p.z_ll is q.z_ll and p.relay_i is q.relay_i):
            q = p
            _require_finite(z_lg=p.z_lg, z_ll=p.z_ll, i_a=p.relay_i.a)
    out = _rows(points)
    final = points[-1]
    post = [p for p in points if p.t >= fault_time]
    quad_lg = all(p.z_lg.real > 0 and p.z_lg.imag > 0 for p in post)
    quad_ll = all(p.z_ll.real > 0 and p.z_ll.imag > 0 for p in post)
    out += f"# final_z_lg = {_fmt_complex(final.z_lg)}\n"
    out += f"# final_z_ll = {_fmt_complex(final.z_ll)}\n"
    out += f"# post_fault_first_quadrant_z_lg = {'yes' if quad_lg else 'no'}\n"
    out += f"# post_fault_first_quadrant_z_ll = {'yes' if quad_ll else 'no'}\n"
    out += f"# version = {__version__}\n# scenario_digest = {scenario_digest(s)}\n"
    return out


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def scenario_text(seed: int) -> str:
    """One seeded trajectory scenario: limiter, relay side, fault kind and
    source; step and window; a fault time at 0 in one draw of five and in the
    last step in one of ten; rf 0 or open in one draw of ten each; i_max
    unlimited in one draw of ten; unbalance fractions and angles; a load of
    either power factor sign, ungrounded in one draw of ten."""
    rng = random.Random(seed)
    r = rng.random()
    rf = "0" if r < 0.1 else "inf" if r < 0.2 else repr(_log_uniform(rng, 0.1, 1000.0))
    grounding = "inf" if rng.random() < 0.1 else repr(_log_uniform(rng, 1e-2, 1e2))
    dt = _log_uniform(rng, 0.25, 4.0)  # ms
    duration = rng.uniform(10.0, 150.0)  # ms
    r = rng.random()
    fault_time = (0.0 if r < 0.2 else max(0.0, duration - rng.uniform(0.0, dt)) if r < 0.3
                  else rng.uniform(0.0, duration))
    system = {
        "source": rng.choice(("ideal", "inverter")),
        "i_max": "inf A" if rng.random() < 0.1 else f"{_log_uniform(rng, 5.0, 300.0)!r} A",
        "fault_position": rng.uniform(0.02, 0.98),
        "load_real_power": f"{rng.uniform(5.0, 50.0)!r} kW",
        "load_reactive_power": f"{rng.uniform(-30.0, 30.0)!r} kvar",
        "load_grounding_resistance": f"{grounding} ohm",
        "v2_fraction": rng.uniform(0.0, 1.0),
        "v0_fraction": rng.uniform(0.0, 1.0),
        "v2_angle": f"{rng.uniform(-180.0, 180.0)!r} deg",
        "v0_angle": f"{rng.uniform(-180.0, 180.0)!r} deg",
    }
    sections = {
        "system": system,
        "fault": {"kind": rng.choice(("lg", "ll")), "rf": f"{rf} ohm"},
        "relay": {"location": rng.choice(("upstream", "downstream"))},
        "transient": {"dt": f"{dt!r} ms", "duration": f"{duration!r} ms",
                      "fault_time": f"{fault_time!r} ms",
                      "limiter": rng.choice(("instantaneous", "latching", "none"))},
    }
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
                   for name, fields in sections.items())


def outcome(run, s: Scenario) -> object:
    """The document, or the class and message of what the run raised."""
    try:
        return run(s)
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return type(exc), str(exc)


def compare(first: int, stop: int) -> tuple[Counter, list[int]]:
    """Tallies of the seeds' outcomes and verdicts, and the mismatching seeds."""
    tally, mismatches = Counter(), []
    for seed in range(first, stop):
        try:
            s = parse_scenario(scenario_text(seed))
        except ModelError:
            tally["invalid"] += 1
            continue
        got = outcome(cli.run_trajectory, s)
        if got != outcome(document_every_walk, s):
            mismatches.append(seed)
        if isinstance(got, str):
            tally["documents"] += 1
            for line in got.splitlines():
                if line.startswith(VERDICT_LINES):
                    name, _, verdict = line.rpartition(" = ")
                    tally[f"{name[-4:]} {verdict}"] += 1
        else:
            tally[got[0].__name__] += 1
    return tally, mismatches


def main(argv: list[str]) -> int:
    first, stop = map(int, argv)
    tally, mismatches = compare(first, stop)
    counts = ", ".join(f"{key} {n}" for key, n in sorted(tally.items()))
    print(f"seeds {first}..{stop - 1}: {counts}; {len(mismatches)} mismatches {mismatches[:10]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
