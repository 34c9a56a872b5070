"""The benchmark's own tests.

Run from the root of a checkout: ``python3 bench/selftest.py``.  It checks
that the generator is deterministic and keeps each workload's structure for
every seed, that the reference solve reproduces the downstream identities,
and that every check accepts a real admrelay output and rejects a
deliberately perturbed copy of it.  Prints one line per test and exits with
status 1 if any fails.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from admrelay import cli, scenario  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def structure(items: list[dict]) -> list:
    return [(i["name"], i["cmd"], i["p"]["rf_points"], i["p"].get("transient"),
             {k: v for k, v in i["p"].get("dcb", {}).items()
              if k in ("duration", "step", "fault_time", "script", "operational")})
            for i in items]


def test_generator() -> None:
    for workload in gen.WORKLOADS:
        a, b, c = gen.generate(workload, 7), gen.generate(workload, 7), gen.generate(workload, 8)
        expect(a == b, f"{workload}: same seed, same scenarios")
        expect([i["text"] for i in a] != [i["text"] for i in c],
               f"{workload}: another seed, other values")
        expect(structure(a) == structure(c), f"{workload}: structure independent of the seed")


def test_reference_identities() -> None:
    for item in gen.generate("sweep-study", 3):
        p = item["p"]
        if p["location"] != "downstream":
            continue
        z_d1 = checks.load_path(p)
        zc = checks.cable(p)
        z_load = p["vll"] ** 2 / complex(p["p_load"], -p["q_load"])
        z_d0 = (1.0 - p["pos"]) * zc * p["z0_scale"] + z_load + 3.0 * p["rg"]
        for rf in (p["rf_min"], p["rf_max"]):
            sol = checks.reference_solve(p, rf, "downstream")
            v, i = sol["v"], sol["i"]
            if p["kind"] == "lg":
                i0 = sum(i) / 3.0
                z = v[0] / (i[0] + (z_d0 / z_d1 - 1.0) * i0)
            else:
                z = sol["z"]
            expect(checks.close(z, z_d1, 1e-9),
                   f"reference solve: {item['name']} rf={rf:.4g} reads the load path")


def run(item: dict) -> str:
    s = scenario.parse_scenario(item["text"])
    cmd = item["cmd"]
    return cli.run_case(s, int(cmd[2])) if cmd[0] == "case" else getattr(cli, f"run_{cmd[0]}")(s)


def replace_line(out: str, k: int, new: str) -> str:
    lines = out.split("\n")
    lines[k] = new
    return "\n".join(lines)


def edit_field(out: str, key: str, new: str) -> str:
    return "\n".join(f"{key} = {new}" if line.startswith(f"{key} = ") else line
                     for line in out.split("\n"))


def edit_csv(out: str, row: int, col: int, fn) -> str:
    lines = out.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def scale(factor: float):
    return lambda cell: repr(float(cell) * factor)


def rejects(item: dict, out: str, perturbations: dict[str, str], sample: list[int]) -> None:
    expect(checks.check_output(item, out, sample) == [], f"{item['name']}: real output passes")
    for what, bad in perturbations.items():
        expect(checks.check_output(item, bad, sample) != [], f"{item['name']}: rejects {what}")


def test_checks_reject_perturbations() -> None:
    cold = {i["name"]: i for i in gen.generate("cli-cold", 5)}
    item = cold["validate"]
    out = run(item)
    rejects(item, out, {"another source": edit_field(out, "source", "ideal")}, [])
    canonical = cli.run_validate(scenario.parse_scenario(cold["case2"]["text"]))
    doc = run(cold["case2"])
    expect(checks.check_digest(doc, canonical) == [], "digest: real output passes")
    digest = doc.split("scenario_digest = ")[1][:64]
    bad = doc.replace(digest, ("0" if digest[0] != "0" else "1") + digest[1:])
    expect(checks.check_digest(bad, canonical) != [], "digest: rejects a changed digest")

    for name in ("case3", "case6"):
        item = cold[name]
        out = run(item)
        z = checks._complex(checks._footer(out)["z_measured"])
        rejects(item, out, {
            "a reading off the load path": edit_field(out, "z_measured", cli.fmt_complex(z * (1 + 1e-7))),
            "a changed z_d1": edit_field(out, "z_d1", cli.fmt_complex(z * 1.01)),
            "a changed oracle": edit_field(out, "z_oracle", cli.fmt_complex(z * 1.3)),
        }, [])

    sweeps = {i["name"]: i for i in gen.generate("sweep-study", 5)}
    item = sweeps["sweep-lg-upstream-inverter-log"]
    out = run(item)
    rejects(item, out, {
        "an oracle column off the reference solve": edit_csv(out, 2, 4, scale(1 + 1e-6)),
        "a |Z| that does not increase": edit_csv(out, 10, 3, scale(0.5)),
        "an upstream reading 3 % off": edit_csv(edit_csv(out, 20, 1, scale(1.03)), 20, 2, scale(1.03)),
        "a missing row": "\n".join(line for k, line in enumerate(out.split("\n")) if k != 5),
    }, [2])
    item = sweeps["sweep-ll-downstream-ideal-linear"]
    out = run(item)
    rejects(item, out, {"a downstream reading off the load path": edit_csv(out, 7, 2, scale(1 + 1e-6))}, [])

    trajectories = {i["name"]: i for i in gen.generate("trajectory-study", 5)}
    item = trajectories["trajectory-instantaneous-upstream-lg"]
    out = run(item)
    rows = out.split("\n")
    last = len([r for r in rows if r and not r.startswith("#")]) - 2
    rejects(item, out, {
        "a pre-fault reading off the load path": edit_csv(out, 3, 1, scale(1 + 1e-7)),
        "a post-fault reading outside the first quadrant": edit_csv(out, last, 2, lambda c: "-" + c),
        "an unlimited late row": edit_csv(out, last, 6, lambda c: "0"),
        "a late current above the cap": edit_csv(out, last, 5, lambda c: "70.5"),
    }, [])

    dcbs = {i["name"]: i for i in gen.generate("dcb-study", 5)}
    for name in ("dcb-external-loss0-early", "dcb-internal-dead", "dcb-external-lossmid"):
        item = dcbs[name]
        out = run(item)
        lines = out.split("\n")
        trips = [k for k, line in enumerate(lines) if line.endswith(",Trip")]
        events = [k for k, line in enumerate(lines) if line and not line.startswith("#")]
        bad = {
            "a reordered trace": replace_line(replace_line(out, events[0], lines[events[-1]]),
                                              events[-1], lines[events[0]]),
            "a changed summary": out.replace("# summary A: tripped=", "# summary A: tripped=x"),
        }
        if trips:
            bad["a trip removed"] = "\n".join(x for k, x in enumerate(lines) if k != trips[0])
            t, relay, kind = lines[trips[0]].split(",")
            bad["an early trip"] = replace_line(out, trips[0], f"{float(t) - 5:g},{relay},{kind}")
        else:
            bad["an extra trip"] = replace_line(out, events[-1], lines[events[-1]] + "\n99,B,Trip")
        rejects(item, out, bad, [])
    expect(checks.dcb_pickups(dcbs["dcb-network-loss0-early"]["p"])["A"][0],
           "dcb: the reference solve reads forward at relay A on an inverter-fed fault")


def main() -> None:
    test_generator()
    test_reference_identities()
    test_checks_reject_perturbations()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
