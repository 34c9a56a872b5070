"""admrelay benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-study --seed 1 --seconds 25 --trace 0

It compiles ``src`` (the build step), starts the workload's process several
times to sample set-up time, then runs the timed closed loop in one more
fresh process and checks every output.  With ``--trace 1`` it instead runs
the start-up probes and the traced round and reports the per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; diagnostics go to stderr.  Without ``src`` in the
current directory it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import gen
import timing

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
STARTUP_PROBES = 5
WORKER_TIMEOUT_S = 150
UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
         "peak_rss_mb": "MB"}


def _fail(message: str, code: int = 1) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _worker(root: str, out: str, args, mode: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
            "--root", root, "--out", out]
    return subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen) -> dict:
    """Wait for a worker; return its JSON result line."""
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        _fail("workload process timed out")
    if proc.returncode != 0:
        _fail(f"workload process exited with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]) if stdout.strip() else {}


def _ready(proc: subprocess.Popen) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        _fail("workload process ended before its warm-up operation returned")
    return time.perf_counter()


def setup_times(root: str, out: str, args) -> tuple[list[float], list[float]]:
    """Raw and reference-scaled set-up times of fresh workload processes."""
    raw, refs = [], [timing.ref_process()]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = _worker(root, out, args, "setup")
        raw.append(_ready(proc) - start)
        _finish(proc)
        refs.append(timing.ref_process())
    return raw, timing.scaled(raw, refs, timing.REF_PROCESS_NOMINAL_S)


def end_to_end(root: str, out: str, args) -> dict:
    setup_raw, setup_scaled = setup_times(root, out, args)
    proc = _worker(root, out, args, "run")
    _ready(proc)
    result = _finish(proc)
    raw, refs = result["raw"], result["refs"]
    scaled = timing.scaled(raw, refs, result["nominal"])
    q = result["tail_q"]

    def figures(setup: list[float], ops: list[float]) -> dict[str, float]:
        return {
            "setup_s": statistics.median(setup),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_tail_ms": timing.percentile(ops, q) * 1e3,
            "ops_per_s": len(ops) / sum(ops),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }

    raw_figures = figures(setup_raw, raw)
    print(f"raw wall clock ({len(raw)} ops, tail = p{round(q * 100)}, "
          f"reference median {statistics.median(refs) * 1e3:.4f} ms): "
          + ", ".join(f"{k}={v:.6g}" for k, v in raw_figures.items())
          + "; set-up samples raw " + " ".join(f"{t:.4f}" for t in setup_raw)
          + " scaled " + " ".join(f"{t:.4f}" for t in setup_scaled))
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not result["problems"],
        "attempted": len(raw),
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in figures(setup_scaled, scaled).items()},
    }


def startup_breakdown(root: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    samples: dict[str, list[float]] = {"startup.interpreter_ms": [],
                                       "startup.import_numpy_ms": [],
                                       "startup.import_admrelay_ms": []}
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "startup_probe.py")],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            _fail(f"start-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout)
        samples["startup.interpreter_ms"].append((probe["t_main"] - start) * 1e3)
        samples["startup.import_numpy_ms"].append(probe["import_numpy_ms"])
        samples["startup.import_admrelay_ms"].append(probe["import_admrelay_ms"])
    return {k: statistics.median(v) for k, v in samples.items()}


def traced(root: str, out: str, args) -> dict:
    metrics = startup_breakdown(root)
    proc = _worker(root, out, args, "trace")
    _ready(proc)
    result = _finish(proc)
    metrics.update(result["metrics"])
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = {}
    for name in metrics:
        units[name] = ("ms" if name.endswith("_ms") else "ratio"
                       if name.endswith(("_ratio", "_per_system", "_per_step")) else "count")
    attempted = len(gen.generate(args.workload, args.seed)) + len(gen.reference_pass())
    return {"correct": not result["problems"], "attempted": attempted, "failed": 0,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "admrelay", "cli.py")):
        _fail(f"no admrelay sources under {os.path.join(root, 'src')}", code=2)
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                           cwd=root, capture_output=True, text=True, check=False)
    if build.returncode != 0:
        _fail(f"compiling the sources failed:\n{build.stdout}{build.stderr}", code=2)
    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    result = traced(root, out, args) if args.trace else end_to_end(root, out, args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
