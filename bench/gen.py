"""Seeded scenario generator for the admrelay benchmark.

Every workload draws its scenarios from ``random.Random("<workload>:<seed>")``,
so the same seed always yields the same scenario texts.  The seed moves
values only (fault resistances, rf grid ends, nameplate deviations, channel
latency and loss, DCB channel seeds); the structure of each workload (the
variants, rf point counts, ``dt``, durations and DCB scan steps) is fixed,
so the work a round asks for, and every count the traced run reports, is
the same for every seed.

Each generated item is a dict:

* ``name``: a short label, unique within the workload;
* ``cmd``: the subcommand and its extra arguments (``["case", "--case", "2"]``);
* ``text``: the scenario text the program receives;
* ``p``: the parameter values written into ``text``, in SI units, which the
  independent checks use.

Run ``python3 bench/gen.py --workload sweep-study --seed 1`` to print the
scenario texts of one round.
"""

from __future__ import annotations

import argparse
import random

WORKLOADS = ("cli-cold", "sweep-study", "trajectory-study", "dcb-study")

# Nameplate of the reference system (SI units, angles in degrees).
REFERENCE = {
    "frequency": 60.0,
    "vll": 480.0,
    "i_max": 70.0,
    "r_cable": 0.039,
    "l_cable": 70.8e-6,
    "z0_scale": 3.0,
    "pos": 0.5,
    "p_load": 25e3,
    "q_load": 12.5e3,
    "rg": 1.0,
    "v2f": 0.6,
    "v0f": 0.6,
    "v2a": 0.0,
    "v0a": 0.0,
}

# rf points of the 16 sweep variants: a ladder from 40 to 160, so that the
# operation times spread evenly and no percentile sits on a gap between them.
SWEEP_POINTS = (40, 136, 72, 104, 56, 152, 88, 120, 48, 144, 80, 112, 64, 160, 96, 128)
CLI_SWEEP_POINTS = 40
# dt of the trajectory variants cycles through these; a finer step gets a
# shorter window, so every run has 201 to 401 steps.
TRAJECTORY_DT_MS = (1.0, 0.5, 0.25)
# Window of the 15 DCB runs: a ladder from 70 to 210 ms (1,401 to 4,201
# scans), for the same reason as the sweep ladder; 70 ms leaves room for the
# latest block (10 ms fault time + one scan + 50 ms latency).
DCB_DURATION_MS = (70.0, 190.0, 110.0, 150.0, 90.0, 210.0, 130.0, 170.0,
                   80.0, 200.0, 120.0, 160.0, 100.0, 180.0, 140.0)
DCB_STEP_MS = 0.05
DCB_FAULT_TIME_MS = 10.0


def _r6(x: float) -> float:
    """Round to six significant digits, so text and parameters agree exactly."""
    return float(f"{x:.6g}")


def _num(x: float) -> str:
    return f"{x:.10g}"


def scenario_text(p: dict) -> str:
    """Scenario text carrying every value of ``p`` in SI units."""
    lines = [
        "[system]",
        f"frequency = {_num(p['frequency'])} Hz",
        f"line_line_voltage = {_num(p['vll'])} V",
        f"source = {p['source']}",
        f"i_max = {_num(p['i_max'])} A",
        f"cable_resistance = {_num(p['r_cable'])} ohm",
        f"cable_inductance = {_num(p['l_cable'])} H",
        f"cable_zero_seq_scale = {_num(p['z0_scale'])}",
        f"fault_position = {_num(p['pos'])}",
        f"load_real_power = {_num(p['p_load'])} W",
        f"load_reactive_power = {_num(p['q_load'])} var",
        f"load_grounding_resistance = {_num(p['rg'])} ohm",
        f"v2_fraction = {_num(p['v2f'])}",
        f"v0_fraction = {_num(p['v0f'])}",
        f"v2_angle = {_num(p['v2a'])} deg",
        f"v0_angle = {_num(p['v0a'])} deg",
        "",
        "[fault]",
        f"kind = {p['kind']}",
        f"rf = {_num(p['rf'])} ohm",
        f"rf_min = {_num(p['rf_min'])} ohm",
        f"rf_max = {_num(p['rf_max'])} ohm",
        f"rf_points = {p['rf_points']}",
        f"rf_spacing = {p['rf_spacing']}",
        "",
        "[relay]",
        f"location = {p['location']}",
        "k_policy = auto",
        "",
    ]
    if "dcb" in p:
        d = p["dcb"]
        lines += [
            "[dcb]",
            f"latency = {_num(d['latency'])} ms",
            f"loss = {_num(d['loss'])}",
            f"seed = {d['seed']}",
            f"coordination_time = {_num(d['coordination_time'])} ms",
            f"operational = {'true' if d['operational'] else 'false'}",
            f"script = {d['script']}",
            f"duration = {_num(d['duration'])} ms",
            f"step = {_num(d['step'])} ms",
            f"fault_time = {_num(d['fault_time'])} ms",
            "",
        ]
    if "transient" in p:
        t = p["transient"]
        lines += [
            "[transient]",
            f"dt = {_num(t['dt'])} ms",
            f"duration = {_num(t['duration'])} ms",
            f"fault_time = {_num(t['fault_time'])} ms",
            f"limiter = {t['limiter']}",
            "",
        ]
    return "\n".join(lines)


def _base(kind: str, location: str, source: str, rf: float) -> dict:
    p = dict(REFERENCE)
    p.update(kind=kind, location=location, source=source, rf=_r6(rf),
             rf_min=3.68, rf_max=1000.0, rf_points=40, rf_spacing="log",
             reference=True)
    return p


def _deviate(p: dict, rng: random.Random) -> None:
    """Move the nameplate off the reference values (exact downstream cases)."""
    p.update(
        r_cable=_r6(rng.uniform(0.02, 0.08)),
        l_cable=_r6(rng.uniform(40e-6, 120e-6)),
        z0_scale=_r6(rng.uniform(2.0, 4.0)),
        pos=_r6(rng.uniform(0.2, 0.8)),
        p_load=_r6(rng.uniform(10e3, 40e3)),
        q_load=_r6(rng.uniform(0.0, 20e3)),
        rg=_r6(rng.uniform(0.5, 5.0)),
        v2f=_r6(rng.uniform(0.2, 0.8)),
        v0f=_r6(rng.uniform(0.2, 0.8)),
        v2a=_r6(rng.uniform(-30.0, 30.0)),
        v0a=_r6(rng.uniform(-30.0, 30.0)),
        reference=False,
    )


def _item(name: str, cmd: list[str], p: dict) -> dict:
    return {"name": name, "cmd": cmd, "text": scenario_text(p), "p": p}


def _sweep_items(rng: random.Random) -> list[dict]:
    items = []
    points = iter(SWEEP_POINTS)
    for kind in ("lg", "ll"):
        for location in ("upstream", "downstream"):
            for source in ("ideal", "inverter"):
                for spacing in ("log", "linear"):
                    p = _base(kind, location, source, 3.68)
                    if location == "downstream":
                        _deviate(p, rng)
                        lo, hi = rng.uniform(0.05, 1.0), rng.uniform(100.0, 2000.0)
                    elif spacing == "log":
                        lo, hi = rng.uniform(3.68, 12.0), rng.uniform(400.0, 1000.0)
                    else:
                        lo, hi = rng.uniform(3.68, 20.0), rng.uniform(200.0, 1000.0)
                    p.update(rf_min=_r6(lo), rf_max=_r6(hi), rf_spacing=spacing,
                             rf_points=next(points))
                    name = f"sweep-{kind}-{location}-{source}-{spacing}"
                    items.append(_item(name, ["sweep"], p))
    return items


def _trajectory_params(p: dict, limiter: str, dt: float) -> None:
    duration = {0.25: 100.0, 0.5: 150.0, 1.0: 200.0}[dt]
    fault_time = {0.25: 40.0, 0.5: 50.0, 1.0: 50.0}[dt]
    p["transient"] = {"dt": dt, "duration": duration, "fault_time": fault_time,
                      "limiter": limiter}


def _trajectory_items(rng: random.Random) -> list[dict]:
    """Twelve variants crossing limiter, relay side and fault kind, plus the
    reference system's default run: an odd count, so the median operation
    is one variant rather than the gap between two."""
    items = []
    i = 0
    for limiter in ("none", "latching", "instantaneous"):
        for location in ("upstream", "downstream"):
            for kind in ("lg", "ll"):
                # rf stays low enough that the fault current exceeds the cap
                # by a margin, so the limiter's solve count is the same for
                # every seed.
                p = _base(kind, location, "inverter", rng.uniform(1.0, 3.0))
                _trajectory_params(p, limiter, TRAJECTORY_DT_MS[i % 3])
                i += 1
                name = f"trajectory-{limiter}-{location}-{kind}"
                items.append(_item(name, ["trajectory"], p))
    p = _base("lg", "upstream", "inverter", rng.uniform(1.0, 3.0))
    _trajectory_params(p, "instantaneous", 1.0)
    items.append(_item("trajectory-default", ["trajectory"], p))
    return items


def _dcb_latency(rng: random.Random, coordination: float, early: bool) -> float:
    """A latency at least 1 ms (20 scans) from the coordination time."""
    if early:
        return _r6(rng.uniform(0.5, coordination - 1.0))
    return _r6(rng.uniform(coordination + 1.0, 2.0 * coordination))


def _dcb_items(rng: random.Random) -> list[dict]:
    items = []
    channels = (  # (name, loss, operational, latency below the coordination time)
        ("loss0-early", 0.0, True, True),
        ("loss0-late", 0.0, True, False),
        ("loss1", 1.0, True, None),
        ("lossmid", None, True, None),
        ("dead", 0.0, False, None),
    )
    durations = iter(DCB_DURATION_MS)
    for script in ("internal", "external", "network"):
        for j, (channel, loss, operational, early) in enumerate(channels):
            kind = ("lg", "ll")[j % 2]
            source = "ideal" if script == "network" and j in (1, 4) else "inverter"
            p = _base(kind, "upstream", source, rng.uniform(1.0, 10.0))
            coordination = _r6(rng.uniform(10.0, 25.0))
            if early is None:
                early = rng.random() < 0.5
            p["dcb"] = {
                "latency": _dcb_latency(rng, coordination, early),
                "loss": _r6(rng.uniform(0.2, 0.8)) if loss is None else loss,
                "seed": rng.randrange(1, 2**31),
                "coordination_time": coordination,
                "operational": operational,
                "script": script,
                "duration": next(durations),
                "step": DCB_STEP_MS,
                "fault_time": DCB_FAULT_TIME_MS,
            }
            items.append(_item(f"dcb-{script}-{channel}", ["dcb"], p))
    return items


def _full(rf: float) -> dict:
    """A scenario with every section, [dcb] and [transient] at their defaults."""
    p = _base("lg", "upstream", "inverter", rf)
    p["dcb"] = {"latency": 2.0, "loss": 0.0, "seed": 1, "coordination_time": 16.7,
                "operational": True, "script": "network", "duration": 100.0,
                "step": 0.1, "fault_time": 10.0}
    p["transient"] = {"dt": 1.0, "duration": 200.0, "fault_time": 50.0,
                      "limiter": "instantaneous"}
    return p


def reference_pass() -> list[dict]:
    """The five subcommands on the reference scenario; the same for every seed."""
    p = _full(3.68)
    return [_item(f"reference-{cmd[0]}", cmd, p)
            for cmd in (["validate"], ["case", "--case", "2"], ["sweep"], ["dcb"],
                        ["trajectory"])]


def _cli_items(rng: random.Random) -> list[dict]:
    items = []
    cases = {1: ("lg", "upstream", "ideal"), 2: ("lg", "upstream", "inverter"),
             3: ("lg", "downstream", "inverter"), 4: ("ll", "upstream", "ideal"),
             5: ("ll", "upstream", "inverter"), 6: ("ll", "downstream", "ideal")}
    full = _full(rng.uniform(2.0, 3.68))
    items.append(_item("validate", ["validate"], full))
    for case, (kind, location, source) in cases.items():
        p = _base(kind, location, source, rng.uniform(0.5, 50.0))
        if location == "downstream":
            _deviate(p, rng)
        items.append(_item(f"case{case}", ["case", "--case", str(case)], p))
    sweep = _base("lg", "upstream", "inverter", 3.68)
    sweep.update(rf_min=_r6(rng.uniform(3.68, 12.0)), rf_max=_r6(rng.uniform(400.0, 1000.0)),
                 rf_points=CLI_SWEEP_POINTS)
    items.append(_item("sweep", ["sweep"], sweep))
    items.append(_item("dcb", ["dcb"], full))
    items.append(_item("trajectory", ["trajectory"], full))
    return items


_BUILDERS = {
    "cli-cold": _cli_items,
    "sweep-study": _sweep_items,
    "trajectory-study": _trajectory_items,
    "dcb-study": _dcb_items,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The scenarios of one round of ``workload``; deterministic in ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for item in generate(args.workload, args.seed):
        print(f"# {item['name']}: admrelay {' '.join(item['cmd'])}")
        print(item["text"])


if __name__ == "__main__":
    main()
