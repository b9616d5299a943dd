"""Run every workload on several seeds and print each metric by name and unit.

    python3 perfbench/record.py                      # seeds 1-3, print only
    python3 perfbench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/RUN_RECORD.json

For each workload and end-to-end metric it prints the median over the seeds
and the spread, (q3 - q1) / median with the quartiles of
statistics.quantiles(n=4), next to the metric's bound from BENCHMARK.json.
One traced run per workload adds the per-layer metrics.  With --out it also
writes the run record: the commit, the environment (Python version, nproc,
load average at start, run.cpu_ratio), why each workload was chosen, the
units, and every value measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(info line, result line) of one run.py run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed with code {out.returncode}:\n{out.stderr}")
    info, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} was not correct:\n{out.stderr}")
    return info, result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out", type=Path, default=None, help="write the run record here")
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    record = {
        "commit": commit(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "loadavg_at_start": os.getloadavg(), "machine": platform.machine()},
        "run_seconds": SPEC["run_seconds"],
        "seeds": args.seeds,
        "units": {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]},
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, 0) for seed in args.seeds]
        entry = {"why": why[workload], "end_to_end": {}, "runs": [info for info, _ in runs]}
        print(f"== {workload}: {len(runs)} seeds, {runs[0][0]['ops']} ops "
              f"(tail = p{runs[0][0]['op_tail_percentile']}), "
              f"fail_ratio {max(info['fail_ratio'] for info, _ in runs)}, "
              f"cpu_ratio {statistics.median(info['run.cpu_ratio'] for info, _ in runs):.3f}")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result in runs]
            unit = runs[0][1]["metrics"][name]["unit"]
            median = statistics.median(values)
            share = spread(values) if len(values) > 1 else 0.0
            entry["end_to_end"][name] = {"unit": unit, "median": median, "spread": share, "values": values}
            print(f"   {name:<12} {median:>12.4f} {unit:<4} spread {share:6.3f} (bound {bound})")
        info, result = run(workload, args.seeds[0], 1)
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["trace_run"] = info
        print(f"   traced: {info['ops']} ops, overhead {entry['per_layer']['trace.overhead_ratio']:.3f}, "
              f"self-time sum error {info['self_sum_error_s']:.2e} s, "
              f"repeated mazur_tate inputs {info['repeated_mazur_tate_inputs']}")
        for name, value in entry["per_layer"].items():
            print(f"     {name:<48} {value:>16.6g} {record['units'][name]}")
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
