"""Spans and counts around admrelay's public functions, from outside.

:class:`Tracer` wraps the public functions of each admrelay module and
patches every name callers look them up by: the defining module, every
admrelay module that imported the name (``cli.build_model`` as well as
``scenario.build_model``) and the solver table ``cli.CASES``.  Each call
records a span ``[group, start, end, parent]``; spans stay in memory until
:meth:`Tracer.dump`.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time

# module -> {function: metric group}
LAYERS: dict[str, dict[str, str]] = {
    "scenario": {name: f"scenario.{name}"
                 for name in ("parse_scenario", "build_model", "scenario_digest")},
    "faults": {f"solve_{kind}_{where}": "faults.solve"
               for kind in ("lg", "ll")
               for where in ("upstream_ideal", "upstream_inverter", "downstream")},
    "nodal": {"build_system": "nodal.build_system", "solve_network": "nodal.solve_network"},
    "trajectory": {"simulate_trajectory": "trajectory.simulate_trajectory",
                   "format_trajectory": "trajectory.format_trajectory"},
    "relaying": {name: "relaying.measure"
                 for name in ("measure_zlg", "measure_zll", "path_compensation", "k_factor",
                              "directional_neg_seq", "mho_trip")},
    "dcb": {name: f"dcb.{name}"
            for name in ("simulate", "relay_step", "couple_from_network", "format_trace")},
    "cli": {f"run_{name}": "cli.run"
            for name in ("case", "sweep", "dcb", "trajectory", "validate")},
}
OP = "bench.op"
CALL_GROUPS = ("scenario.parse_scenario", "scenario.build_model", "scenario.scenario_digest",
               "faults.solve", "nodal.build_system", "nodal.solve_network",
               "relaying.measure", "dcb.relay_step")
SELF_GROUPS = CALL_GROUPS + ("trajectory.simulate_trajectory", "trajectory.format_trajectory",
                             "dcb.simulate", "dcb.couple_from_network", "dcb.format_trace",
                             "cli.run")


class Tracer:
    """Installs wrappers on admrelay and records spans of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.systems: dict[int, set] = {}  # op span -> distinct nodal systems
        self.steps: dict[int, int] = {}  # simulate_trajectory span -> points
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([group, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid][1], spans[sid][2] = start, end
            if on_result is not None:
                on_result(sid, result)
            return result

        return traced

    def _system_seen(self, sid: int, system) -> None:
        op = self.stack[0] if self.stack else -1
        key = (tuple(system.node_names), system.y.tobytes())
        self.systems.setdefault(op, set()).add(key)

    def _steps_seen(self, sid: int, points) -> None:
        self.steps[sid] = len(points)

    def install(self) -> None:
        hooks = {"nodal.build_system": self._system_seen,
                 "trajectory.simulate_trajectory": self._steps_seen}
        wrappers = {}
        for modname, funcs in LAYERS.items():
            mod = importlib.import_module(f"admrelay.{modname}")
            for name, group in funcs.items():
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(group, fn, hooks.get(group)))
        for modname, mod in list(sys.modules.items()):
            if modname != "admrelay" and not modname.startswith("admrelay."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        cases = importlib.import_module("admrelay.cli").CASES
        for number, entry in list(cases.items()):
            fn = entry[3]
            if id(fn) in wrappers:
                self._undo.append((cases, number, entry))
                cases[number] = entry[:3] + (wrappers[id(fn)][1],)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    def op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        return self._wrap(OP, fn)(*args)

    def dump(self) -> dict:
        return {"spans": self.spans,
                "distinct_systems": sum(len(s) for s in self.systems.values()),
                "steps": sum(self.steps.values())}


RATIOS = ("nodal.distinct_systems", "nodal.solves_per_system", "trajectory.solves_per_step")


def layer_totals(dumps: list[dict]) -> dict[str, float]:
    """Calls, self time [ms] and reuse ratios summed over traced processes."""
    calls = dict.fromkeys(SELF_GROUPS, 0)
    self_ms = dict.fromkeys(SELF_GROUPS, 0.0)
    distinct = steps = traj_solves = 0
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for group, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (group, start, end, parent) in enumerate(spans):
            if group in calls:
                calls[group] += 1
                self_ms[group] += (end - start - child[sid]) * 1e3
            if group == "nodal.solve_network":
                while parent >= 0 and spans[parent][0] != "trajectory.simulate_trajectory":
                    parent = spans[parent][3]
                traj_solves += parent >= 0
        distinct += dump["distinct_systems"]
        steps += dump["steps"]
    out: dict[str, float] = {}
    for group in CALL_GROUPS:
        out[f"{group}.calls"] = calls[group]
    for group in SELF_GROUPS:
        out[f"{group}.self_ms"] = self_ms[group]
    out["nodal.distinct_systems"] = distinct
    out["nodal.solves_per_system"] = calls["nodal.solve_network"] / distinct if distinct else 0.0
    out["trajectory.solves_per_step"] = traj_solves / steps if steps else 0.0
    return out
