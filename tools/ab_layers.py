"""A/B timing of admrelay's layers on two commits.

Usage, from the root of a checkout:

    python3 tools/ab_layers.py PARENT CHANGE

Each commit's tree is taken with ``git archive`` into a temporary directory,
so uncommitted edits are not measured.  The inputs are the scenario files of
seeds 1-3 of the in-process workloads (sweep-study, trajectory-study,
dcb-study) and the ``case`` files of cli-cold, made by ``bench/gen.py``, which
is imported and never changed.  What a layer receives is recorded from one
run of the ``cli.run_*`` entry points of that tree, so each layer sees the
arguments its tree passes it.  An ``op.<workload>`` row times what the
benchmark times per operation of that in-process workload: ``parse_scenario``
of the item's text, then its ``cli.run_*`` entry point.

Each side runs in PROCESSES (6) fresh processes, the sides alternating
(the parent first in odd rounds).  A process times each layer in whole
passes over its inputs, with the garbage collector off, for at least three
passes and BUDGET (0.25) seconds, and keeps its fastest pass.  The report
gives, per layer and side, the minimum, median and interquartile range over
the processes of that fastest pass, in microseconds per input, and the
relative change of the minimums and of the medians; on a host whose speed
drifts between processes, the minimums are the steadier figure.  A layer a
tree does not have reads n/a.
One more process per side counts the Python opcodes that one pass of each
layer executes (``sys.settrace`` with ``frame.f_trace_opcodes``) and the C
functions it calls (``sys.setprofile`` ``c_call`` events), after an untraced
pass has warmed imports, and the report prints both per input, with their
relative change, next to the minimums.  The counts repeat exactly from run to
run, so the host's drift does not move them; but they miss the work done
inside C (allocation, complex arithmetic, string formatting), a C call
counts one whatever it costs, and a call of a built-in type (``complex()``,
``range()``) is no ``c_call`` event, so a count supports a timing and does
not replace it.
It also prints each tree's digest of the 132 in-process documents: the
sha256 of their sha256 hex digests joined by newlines, workload by workload
and seed by seed, in generation order.  The last line of stdout is one JSON
object, the ``attribution`` block of a ``BENCH_<n>.json`` record.

    python3 tools/ab_layers.py --counts tools/layer_counts.json [--write]

counts the checkout that holds this script in one fresh process, as the
count process above does, and prints each opcode count, C-call count and
documents digest that differs from the file, with the Python release each was
counted under.  It exits 1 on a differing digest, and on a differing count
when the release is the file's; under another release, whose bytecode may
differ, the counts are reported, not checked.  ``--write`` records the counts
in the file instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
IN_PROCESS = ("sweep-study", "trajectory-study", "dcb-study")
PROCESSES = 6  # fresh processes per side
BUDGET = 0.25  # seconds of passes per layer and process


def _items(workload: str) -> list[dict]:
    import gen

    return [item for seed in SEEDS for item in gen.generate(workload, seed)]


def _run(cli, s, cmd: list[str]) -> str:
    """One document, as the benchmark's in-process worker makes it."""
    if cmd[0] == "case":
        return cli.run_case(s, int(cmd[2]))
    return getattr(cli, f"run_{cmd[0]}")(s)


def _recorded(module, name: str, run) -> tuple[object, list]:
    """module.name and the (args, kwargs) of every call run() makes to it."""
    real, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    setattr(module, name, spy)
    try:
        run()
    finally:
        setattr(module, name, real)
    return real, calls


def _replay(fn, calls: list) -> tuple[int, None, object]:
    return len(calls), None, lambda _: [fn(*args, **kwargs) for args, kwargs in calls]


def _sweep_points(nodal, FaultSpec, sweeps: list) -> tuple[int, object, object]:
    """The sweep's nodal readings at every grid point, on networks made before
    the pass, as cli.run_sweep reads them: through Network.readings where the
    tree has it, else through one Transfer per point."""

    def fresh():
        return [(nodal.Network(m), m.fault.kind, grid, v, first) for m, grid, v, first in sweeps]

    def stream(networks):
        for network, kind, grid, v, first in networks:
            for _ in network.readings(kind, grid, v, first):
                pass

    def transfers(networks):
        for network, kind, grid, v, first in networks:
            for rf in grid:
                tf = network.transfer(FaultSpec(kind, rf))
                tf.rows(0, v), tf.rows(first, v)

    return len(sweeps), fresh, stream if hasattr(nodal.Network, "readings") else transfers


def _layers() -> dict:
    """Each layer's builder of (inputs, setup or None, one pass), recorded from
    this tree; a builder raises AttributeError for a name the tree lacks."""
    from admrelay import cli, faults, nodal, scenario
    from admrelay.network import FaultSpec
    from admrelay.phasors import sequence_to_phase

    items = {w: _items(w) for w in IN_PROCESS}
    cases = [item for item in _items("cli-cold") if item["cmd"][0] == "case"]
    texts = [item["text"] for w in IN_PROCESS for item in items[w]]
    parsed = {w: [scenario.parse_scenario(item["text"]) for item in items[w]] for w in items}
    every = [s for w in IN_PROCESS for s in parsed[w]]
    case_runs = [(scenario.parse_scenario(item["text"]), int(item["cmd"][2])) for item in cases]

    def sweeps() -> list:
        """Each sweep's model, grid, relay location, source phases and relay row."""
        found = []
        for s in parsed["sweep-study"]:
            m, location = scenario.build_model(s), scenario.relay_location(s)
            found.append((m, scenario.sweep_points(s), location,
                          sequence_to_phase(m.source.sequence_voltages()),
                          nodal.RELAY_ROW[location]))
        return found

    def closed_forms():
        """Each sweep's closed form, reduced at its first point and evaluated at every one."""
        reduce, found = faults.reduce, sweeps()

        def run(_):
            for m, grid, location, _, _ in found:
                closed = reduce(m.with_fault(FaultSpec(m.fault.kind, grid[0])), location)
                [closed(rf) for rf in grid]

        return len(found), None, run

    def replay_all(workload: str, cmd: str):
        run = getattr(cli, f"run_{cmd}")
        return lambda: [run(s) for s in parsed[workload]]

    def recorded(module_name: str, name: str, workload: str, cmd: str):
        module = importlib.import_module(f"admrelay.{module_name}")
        return lambda: _replay(*_recorded(module, name, replay_all(workload, cmd)))

    layers = {
        "scenario.parse_scenario": lambda: (
            len(texts), None, lambda _: [scenario.parse_scenario(t) for t in texts]),
        "scenario.scenario_digest": lambda: (
            len(every), None, lambda _: [scenario.scenario_digest(s) for s in every]),
        "scenario.build_model": lambda: (
            len(every), None, lambda _: [scenario.build_model(s) for s in every]),
        "nodal.Network": lambda: (
            len(parsed["sweep-study"]), None, lambda _, models=[
                scenario.build_model(s) for s in parsed["sweep-study"]]: [
                nodal.Network(m) for m in models]),
        "nodal.sweep_points": lambda: _sweep_points(
            nodal, FaultSpec, [(m, grid, v, first) for m, grid, _, v, first in sweeps()]),
        "faults.reduce+evaluations": closed_forms,
    }
    for module_name, name, workload, cmd in (
        ("nodal", "fault_phases", "dcb-study", "dcb"),
        ("dcb", "couple_from_network", "dcb-study", "dcb"),
        ("dcb", "simulate", "dcb-study", "dcb"),
        ("dcb", "format_trace", "dcb-study", "dcb"),
        ("trajectory", "simulate_trajectory", "trajectory-study", "trajectory"),
        ("trajectory", "format_trajectory", "trajectory-study", "trajectory"),
    ):
        layers[f"{module_name}.{name}"] = recorded(module_name, name, workload, cmd)
    for workload, cmd in zip(IN_PROCESS, ("sweep", "trajectory", "dcb")):
        layers[f"cli.run_{cmd}"] = lambda workload=workload, cmd=cmd: (
            len(parsed[workload]), None, lambda _, run=replay_all(workload, cmd): run())
    layers["cli.run_case"] = lambda: (
        len(case_runs), None, lambda _: [cli.run_case(s, case) for s, case in case_runs])
    layers["cli.run_validate"] = lambda: (
        len(every), None, lambda _: [cli.run_validate(s) for s in every])
    for workload in IN_PROCESS:
        layers[f"op.{workload}"] = lambda found=items[workload]: (
            len(found), None, lambda _: [
                _run(cli, scenario.parse_scenario(item["text"]), item["cmd"]) for item in found])
    return layers


def _fastest(setup, run) -> float:
    """The fastest of at least three passes and BUDGET seconds, in seconds."""
    best, spent, passes = float("inf"), 0.0, 0
    while passes < 3 or spent < BUDGET:
        state = setup() if setup else None
        gc.disable()
        try:
            t0 = time.perf_counter()
            run(state)
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        best, spent, passes = min(best, elapsed), spent + elapsed, passes + 1
    return best


def _counts(setup, run) -> tuple[int, int]:
    """The Python opcodes one pass executes and the C functions it calls,
    after one untraced pass; work done inside C calls is not counted."""
    run(setup() if setup else None)
    state = setup() if setup else None
    opcodes = c_calls = 0

    def step(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return step

    def call(frame, event, arg):
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return step

    def profile(frame, event, arg, off=sys.setprofile):
        nonlocal c_calls
        if event == "c_call" and arg is not off:  # not the call that ends the count
            c_calls += 1

    previous = sys.gettrace()
    sys.settrace(call)
    sys.setprofile(profile)
    try:
        run(state)
    finally:
        sys.setprofile(None)
        sys.settrace(previous)
    return opcodes, c_calls


def _documents_digest() -> str:
    from admrelay import cli, scenario

    hexes = [hashlib.sha256(_run(cli, scenario.parse_scenario(item["text"]),
                                 item["cmd"]).encode()).hexdigest()
             for w in IN_PROCESS for item in _items(w)]
    return hashlib.sha256("\n".join(hexes).encode()).hexdigest()


def child(count: bool) -> None:
    """Time, or count the opcodes and C calls of, every layer of the tree on
    PYTHONPATH; print one JSON line."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    keys = ("opcodes_per_input", "c_calls_per_input") if count else ("us_per_input",)
    result = {"digest": _documents_digest(), **{key: {} for key in keys}}
    for name, build in _layers().items():
        try:
            inputs, setup, run = build()
            values = [v / inputs for v in (_counts(setup, run) if count
                                           else (_fastest(setup, run) * 1e6,))]
        except AttributeError as exc:  # the layer, or a name it needs, is not in this tree
            print(f"{name}: n/a: {exc}", file=sys.stderr)
            values = [None] * len(keys)
        for key, value in zip(keys, values):
            result[key][name] = value
    print(json.dumps(result))


def _archive(rev: str, dest: str) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def _side(tree: str, mode: str = "--child") -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), mode], cwd=tree,
                         env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _check_counts(path: str, write: bool) -> int:
    """Count this checkout and print each difference from the counts in path;
    with write, record them there instead."""
    found = dict(_side(ROOT, "--count-child"), python=platform.python_version())
    if write:
        with open(path, "w") as f:
            json.dump(found, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"counts of Python {found['python']} written to {path}")
        return 0
    with open(path) as f:
        recorded = json.load(f)
    checked = recorded["python"] == found["python"]
    failed = recorded["digest"] != found["digest"]
    if failed:
        print(f"documents digest: {recorded['digest']} -> {found['digest']}")
    differences = 0
    for kind in ("opcodes_per_input", "c_calls_per_input"):
        old, new = recorded[kind], found[kind]
        for name in dict.fromkeys([*old, *new]):
            a, b = old.get(name), new.get(name)
            if a != b:
                differences += 1
                change = f" ({b / a - 1:+.3%})" if a and b else ""
                print(f"{name} {kind}: {a} -> {b}{change}")
    print(f"{differences} count differences, Python {recorded['python']} -> {found['python']}"
          + ("" if checked else ": another release, so reported, not checked"))
    return 1 if failed or (checked and differences) else 0


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"min": round(min(values), 2), "median": round(med, 2), "iqr": round(q3 - q1, 2)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--count-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counts", metavar="FILE",
                        help="print each difference of this checkout's counts from FILE")
    parser.add_argument("--write", action="store_true", help="with --counts: write FILE")
    args = parser.parse_args(argv)
    if args.child or args.count_child:
        child(args.count_child)
        return 0
    if args.counts:
        return _check_counts(args.counts, args.write)
    if not (args.parent and args.change):
        parser.error("give PARENT and CHANGE")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_layers-") as tmp:
        trees = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            trees[side] = os.path.join(tmp, side)
            os.mkdir(trees[side])
            _archive(rev, trees[side])
        for k in range(PROCESSES):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                runs[side].append(_side(trees[side]))
                print(f"round {k + 1}, {side}: done", file=sys.stderr)
        counts = {side: _side(trees[side], "--count-child") for side in runs}
        print("opcode and C-call counts: done", file=sys.stderr)
    names = list(dict.fromkeys(n for side in runs.values() for r in side for n in r["us_per_input"]))
    layers = {}
    print(f"{'layer (us per input)':<30}{'parent min/median/IQR':>26}{'change min/median/IQR':>26}"
          f"{'min':>8}{'median':>8}{'opcodes per input':>24}{'':>8}{'C calls per input':>22}")
    for name in names:
        row = {}
        for side in runs:
            values = [r["us_per_input"].get(name) for r in runs[side]]
            row[side] = _stats(values) if None not in values else None
        p, c = row["parent"], row["change"]
        for stat in ("min", "median"):
            row[f"{stat}_change"] = round(c[stat] / p[stat] - 1, 4) if p and c else None
        cells = [f"{s['min']:.1f}/{s['median']:.1f}/{s['iqr']:.1f}" if s else "n/a" for s in (p, c)]
        for kind in ("opcodes", "c_calls"):
            n_p, n_c = (counts[side][f"{kind}_per_input"].get(name) for side in runs)
            row[kind] = {"parent": n_p and round(n_p, 1), "change": n_c and round(n_c, 1)}
            row[f"{kind}_change"] = round(n_c / n_p - 1, 4) if n_p and n_c else None
            cells.append(f"{n_p:.0f} -> {n_c:.0f}" if n_p and n_c else "n/a")
        layers[name] = row
        changes = [f" {row[k]:>+7.1%}" if row[k] is not None else f"{'':>8}"
                   for k in ("min_change", "median_change", "opcodes_change", "c_calls_change")]
        print(f"{name:<30}{cells[0]:>26}{cells[1]:>26}{changes[0]}{changes[1]}{cells[2]:>24}"
              f"{changes[2]}{cells[3]:>22}{changes[3]}")
    print("opcode and C-call counts repeat exactly but miss work done inside C (allocation, "
          "complex arithmetic, formatting), and a C call counts one whatever it costs: they "
          "support the timings and do not replace them")
    digests = {side: sorted({r["digest"] for r in runs[side] + [counts[side]]}) for side in runs}
    for side, found in digests.items():
        print(f"documents digest, {side}: {', '.join(found)}")
    print(json.dumps({
        "method": f"tools/ab_layers.py {args.parent} {args.change}: each tree a git archive, "
                  f"{PROCESSES} alternating processes per side, each layer's fastest pass "
                  f"(gc off, at least 3 passes and {BUDGET} s) over the inputs of seeds "
                  "1-3, in us per input; min, median and IQR over the processes; opcodes: "
                  "the Python opcodes one pass executes per input after an untraced pass "
                  "(sys.settrace with f_trace_opcodes, one more process per side); c_calls: "
                  "the C functions that pass calls per input (sys.setprofile c_call events, "
                  "same process); both exact but blind to work done inside C",
        "parent": args.parent, "change": args.change, "layers": layers,
        "documents_digest": {side: found[0] if len(found) == 1 else found
                             for side, found in digests.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
