"""taumt benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload tau-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Ops run in one worker process, one at a
time, each worker started only after the previous one ended:

* --trace 0: set-up-only workers, half before and half after the measuring
  worker, time set-up (interpreter start, `import taumt`, the Delta and
  phi9 symbols, the fixture tables); the measuring worker runs the
  workload's rounds for a run of --seconds (a fixed number, sized to about
  --seconds of op time at the seed commit), and the end-to-end metrics are
  printed.
* --trace 1: one untraced worker runs the rounds of a quarter of --seconds,
  then a traced worker replays exactly the same ops, and the per-layer
  metrics are printed, with the tracing overhead measured between the two.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json, each with its unit.  A line before it
gives the tail percentile, the op count and the environment of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKER = HERE / "worker.py"
SETUP_PROBES = 31  # set-up-only workers per run; setup_s is the median with the main worker's
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}  # the same hashing in every worker
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with at least this many ops above it
SELF_SUM_TOLERANCE_S = 1e-6  # the sum holds by construction; a larger error means a frame leaked


class RunError(Exception):
    pass


def _read(proc, buf: bytearray, deadline: float, until_newline: bool) -> None:
    """Append the worker's stdout to buf until a newline (or EOF) arrives."""
    fd = proc.stdout.fileno()
    while not (until_newline and b"\n" in buf):
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - monotonic()))
        if not ready:
            raise RunError("worker overran the run's time limit")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk


def start_worker(args: list[str], deadline: float):
    """Start a worker; returns (process, its stdout so far, seconds until "ready")."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, env=WORKER_ENV)
    buf = bytearray()
    try:
        _read(proc, buf, deadline, until_newline=True)
        elapsed = perf_counter() - t0
        if not buf.startswith(b"ready\n"):
            raise RunError(f"worker {' '.join(args)} did not get ready")
    except BaseException:
        stop(proc)
        raise
    return proc, buf[len(b"ready\n"):], elapsed


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish_worker(proc, buf: bytearray, deadline: float) -> dict:
    """Read the worker's stdout to its end and return its result line."""
    try:
        _read(proc, buf, deadline, until_newline=False)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = buf.decode().strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1])


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    proc, buf, ready_s = start_worker(args, deadline)
    return ready_s, finish_worker(proc, buf, deadline)


def time_setup(deadline: float) -> float:
    proc, buf, ready_s = start_worker(["--setup-only"], deadline)
    _read(proc, buf, deadline, until_newline=False)
    stop(proc)
    if proc.returncode != 0:
        raise RunError(f"set-up worker exited with code {proc.returncode}")
    return ready_s


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def failures(doc: dict) -> list:
    return [op for op in doc["ops"] if op[3] is not None]


def workload_args(workload: str, seed: int, seconds: float) -> list[str]:
    rounds = workloads.run_rounds(workload, seconds)
    return ["--workload", workload, "--seed", str(seed), "--rounds", str(rounds)]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, dict]:
    # Half the probes run before the workload and half after, so a short burst
    # of load from elsewhere on the machine reaches at most half of them.
    probes = [time_setup(deadline) for _ in range(SETUP_PROBES // 2)]
    ready_s, doc = run_worker(workload_args(workload, seed, seconds), deadline)
    probes += [time_setup(deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    latencies = [op[2] for op in doc["ops"]]
    completed = len(latencies) - len(failures(doc))
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "ops_per_s": completed / doc["busy_s"],
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(probes + [ready_s]),
        "peak_rss_mb": doc["rss_kb"] / 1024,
    }
    info = {
        "op_tail_percentile": round(tail_pct, 1),
        "ops": len(latencies),
        "fail_ratio": len(failures(doc)) / len(latencies),
        "busy_s": doc["busy_s"],
        "run.cpu_ratio": doc["cpu_s"] / doc["busy_s"],
    }
    return metrics, info, doc


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list]:
    args = workload_args(workload, seed, seconds / 4)
    _, plain = run_worker(args, deadline)
    _, traced = run_worker(args + ["--trace"], deadline)
    if [op[0] for op in plain["ops"]] != [op[0] for op in traced["ops"]]:
        raise RunError("the traced worker did not replay the untraced ops")
    metrics = dict(traced["layers"])
    for command in workloads.COMMANDS:
        latencies = [op[2] for op in plain["ops"] if op[1] == command]
        metrics[command + ".p50_ms"] = 1000 * statistics.median(latencies) if latencies else 0.0
    metrics["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"] - 1
    metrics["run.cpu_ratio"] = plain["cpu_s"] / plain["busy_s"]
    info = {
        "ops": len(plain["ops"]),
        "self_sum_error_s": traced["self_sum_error_s"],
        "repeated_mazur_tate_inputs": traced["repeated_mazur_tate_inputs"],
        "trace_file": traced["trace_file"],
    }
    return metrics, info, [plain, traced]


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + RUN_LIMIT_S
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "loadavg": os.getloadavg()}
    try:
        if args.trace:
            metrics, info, docs = per_layer(args.workload, args.seed, args.seconds, deadline)
            declared = spec["per_layer"]
            correct_trace = (info["self_sum_error_s"] <= SELF_SUM_TOLERANCE_S
                             and info["repeated_mazur_tate_inputs"] == 0)
        else:
            metrics, info, doc = end_to_end(args.workload, args.seed, args.seconds, deadline)
            docs = [doc]
            declared = spec["end_to_end"]
            correct_trace = True
    except RunError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"run.py: metrics not measured: {missing}\n")
        return 1
    failed = [op for doc in docs for op in failures(doc)]
    for key, _, _, reason, _ in failed:
        sys.stderr.write(f"FAILED {key}: {reason}\n")
    attempted = sum(len(doc["ops"]) for doc in docs)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info, "env": env}))
    print(json.dumps({
        "correct": not failed and correct_trace,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
