"""One workload process: set-up, warm-up, a timed closed loop, then checks.

Started by ``run.py`` with ``PYTHONPATH`` naming the checkout's ``src``.  It
prints ``READY`` once its warm-up operation has returned and, unless the mode
is ``setup``, one JSON line with its results when done.  Modes:

* ``setup``: exit right after the warm-up (set-up time samples);
* ``run``: whole rounds of the workload's operations, each one timed between
  two reference runs (``timing.py``), for at least ``--seconds`` and
  ``MIN_OPS`` operations;
* ``trace``: a traced reference pass of the five subcommands on the
  reference scenario, then every operation of one round run untraced and
  traced in turn; the spans go to a JSON file under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import subprocess
import sys
import time

import gen
import timing

HERE = os.path.dirname(os.path.abspath(__file__))
# Tail percentile of each workload, and the fewest operations a run makes so
# that at least ten lie beyond it.  At 25 s on a 2-core host the runs make
# about 80, 1,000-1,400, 250-300 and 850-1,150 operations.
TAIL_Q = {"cli-cold": 0.85, "sweep-study": 0.99, "trajectory-study": 0.95, "dcb-study": 0.98}
MIN_OPS = {name: math.ceil(10 / (1 - q)) for name, q in TAIL_Q.items()}
SAMPLE_ROWS = 5
TRACE_REPEATS = 3


class InProcess:
    """Operations through ``parse_scenario`` and the ``cli.run_*`` entry points."""

    reference = staticmethod(timing.ref_loop)
    nominal = timing.REF_NOMINAL_S

    def __init__(self, root: str, out_dir: str) -> None:
        from admrelay import cli, scenario

        src = os.path.join(root, "src")
        if not os.path.abspath(cli.__file__).startswith(src + os.sep):
            raise SystemExit(f"admrelay imported from {cli.__file__}, not from {src}")
        self.cli, self.scenario = cli, scenario

    def run(self, item: dict) -> tuple[int, str]:
        s = self.scenario.parse_scenario(item["text"])
        cmd = item["cmd"]
        if cmd[0] == "case":
            return 0, self.cli.run_case(s, int(cmd[2]))
        return 0, getattr(self.cli, f"run_{cmd[0]}")(s)


class ColdCli:
    """Operations as fresh ``python -m admrelay.cli`` processes."""

    reference = staticmethod(timing.ref_process)
    nominal = timing.REF_PROCESS_NOMINAL_S

    def __init__(self, root: str, out_dir: str) -> None:
        self.root = root
        self.dir = os.path.join(out_dir, f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.paths: dict[str, str] = {}
        self.prefix = [sys.executable, "-m", "admrelay.cli"]
        self.stderr_path = os.path.join(self.dir, "stderr.txt")
        self.peak_kb = 0

    def files(self, items: list[dict]) -> None:
        for item in items:
            path = os.path.join(self.dir, f"{item['name']}.scn")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(item["text"])
            self.paths[item["name"]] = path

    def run(self, item: dict) -> tuple[int, str]:
        """Run one CLI process; its peak RSS (wait4) updates ``peak_kb``.

        Only admrelay processes count towards the peak, not the reference
        processes, so RUSAGE_CHILDREN cannot be used.
        """
        cmd = item["cmd"]
        argv = self.prefix + [cmd[0], self.paths[item["name"]]] + cmd[1:]
        with open(self.stderr_path, "w+b") as err:
            proc = subprocess.Popen(argv, cwd=self.root, stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            if proc.returncode != 0:
                err.seek(0)
                sys.stderr.write(err.read().decode(errors="replace"))
        return proc.returncode, out.decode()

    def close(self) -> None:
        for path in list(self.paths.values()) + [self.stderr_path]:
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(self.dir)


def _check(items: list[dict], outputs: dict[int, str], seed: int) -> list[str]:
    """Independent checks on the first output of every operation."""
    import checks
    from admrelay import cli, scenario

    problems = []
    for idx, out in outputs.items():
        item = items[idx]
        n = item["p"]["rf_points"]
        rng = random.Random(f"sample:{seed}:{item['name']}")
        sample = rng.sample(range(n), min(SAMPLE_ROWS, n))
        found = checks.check_output(item, out, sample)
        if item["cmd"][0] != "validate":
            canonical = cli.run_validate(scenario.parse_scenario(item["text"]))
            found += checks.check_digest(out, canonical)
        problems += [f"{item['name']}: {msg}" for msg in found]
    return problems


def timed_loop(runner, items: list[dict], seconds: float, min_ops: int) -> dict:
    """Whole rounds until both the time and the operation floor are reached."""
    raw: list[float] = []
    refs: list[float] = []
    first: dict[int, str] = {}
    failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while len(raw) < min_ops or time.perf_counter() < deadline:
        for idx, item in enumerate(items):
            refs.append(runner.reference())
            start = time.perf_counter()
            code, out = runner.run(item)
            raw.append(time.perf_counter() - start)
            if code != 0:
                failed += 1
            elif idx not in first:
                first[idx] = out
            elif out != first[idx]:
                problems.append(f"{item['name']}: output differs between identical runs")
    refs.append(runner.reference())
    return {"raw": raw, "refs": refs, "nominal": runner.nominal, "failed": failed,
            "problems": problems, "first": first}


def trace_round(runner, items: list[dict], out_dir: str, workload: str, seed: int) -> dict:
    """Per-layer metrics of one traced round, and the tracing overhead.

    Each operation runs TRACE_REPEATS times untraced and traced, alternately;
    the overhead is the ratio of the sums of the per-operation minimum times.
    Spans come from the first traced run of each operation only, so counts
    are those of exactly one round.  Traced outputs must equal untraced ones.
    """
    from tracing import RATIOS, Tracer, layer_totals

    if isinstance(runner, ColdCli):
        spans = os.path.join(runner.dir, "spans.json")
        traced_prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"), "--spans", spans]
        plain_prefix = runner.prefix

        def traced_call(item: dict) -> tuple[str, dict, float]:
            runner.prefix = traced_prefix
            start = time.perf_counter()
            try:
                _, out = runner.run(item)
            finally:
                elapsed = time.perf_counter() - start
                runner.prefix = plain_prefix
            with open(spans, encoding="utf-8") as fh:
                dump = json.load(fh)
            os.remove(spans)
            return out, dump, elapsed
    else:
        def traced_call(item: dict) -> tuple[str, dict, float]:
            tracer = Tracer()
            tracer.install()
            start = time.perf_counter()
            try:
                _, out = tracer.op(runner.run, item)
            finally:
                elapsed = time.perf_counter() - start
                tracer.uninstall()
            return out, tracer.dump(), elapsed

    reference_dumps = [traced_call(item)[1] for item in gen.reference_pass()]
    dumps, plain, traced, problems = [], [], [], []
    for item in items:
        plain_times, traced_times = [], []
        for repeat in range(TRACE_REPEATS):
            start = time.perf_counter()
            _, out = runner.run(item)
            plain_times.append(time.perf_counter() - start)
            traced_out, dump, elapsed = traced_call(item)
            traced_times.append(elapsed)
            if repeat == 0:
                dumps.append(dump)
            if traced_out != out:
                problems.append(f"{item['name']}: traced output differs from untraced output")
        plain.append(min(plain_times))
        traced.append(min(traced_times))
    # Calls and self times include the reference pass, so that every layer
    # has a time on every workload; the reuse ratios are the workload's own.
    metrics = layer_totals(reference_dumps + dumps)
    own = layer_totals(dumps)
    metrics.update({name: own[name] for name in RATIOS})
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   "untraced_min_s": plain, "traced_min_s": traced,
                   "reference_processes": reference_dumps, "processes": dumps}, fh)
    return {"metrics": metrics, "problems": sorted(set(problems))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    items = gen.generate(args.workload, args.seed)
    cold = args.workload == "cli-cold"
    runner = (ColdCli if cold else InProcess)(args.root, args.out)
    if cold:
        runner.files(items + (gen.reference_pass() if args.mode == "trace" else []))
    code, _ = runner.run(items[0])
    print("READY", flush=True)
    if code != 0:
        raise SystemExit(f"warm-up operation {items[0]['name']} exited with {code}")
    try:
        if args.mode == "setup":
            return
        if args.mode == "trace":
            print(json.dumps(trace_round(runner, items, args.out, args.workload, args.seed)))
            return
        result = timed_loop(runner, items, args.seconds, MIN_OPS[args.workload])
        result["tail_q"] = TAIL_Q[args.workload]
        result["peak_rss_kb"] = (runner.peak_kb if cold
                                 else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        result["problems"] += _check(items, result.pop("first"), args.seed)
        print(json.dumps(result))
    finally:
        if cold:
            runner.close()


if __name__ == "__main__":
    main()
