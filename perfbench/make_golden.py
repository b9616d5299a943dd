"""Record the stdout digest of every op any workload can draw.

Run it at the commit whose outputs are the reference; it rewrites
golden.json next to it and refuses to record an output that fails its
oracle.

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections import defaultdict

import oracles
import worker
import workloads

SPOT_CHECK_EVERY = 20


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(taumt, op, checker) -> str:
    rc, result = worker.execute(taumt, op, worker.prepare(taumt, op))
    text = worker.render(op, result)
    reason = f"exit code {rc}" if rc else checker.check_output(op, text)
    if reason:
        sys.exit(f"{op.key}: {reason}")
    return text


def main() -> None:
    taumt = worker.import_taumt()
    worker.setup(taumt)
    checker = oracles.Oracles({}, taumt.cusp_count)
    digests = {}
    prefix_families = defaultdict(list)
    for op in workloads.pool():
        if op.kind in ("tau", "tau_mod"):
            # `tau --n N` prints a prefix of the longest run of its family
            prefix_families[op.kind].append(op)
            continue
        digests[op.key] = digest(record(taumt, op, checker))
        if op.kind == "eval":
            taumt.mansym.action_matrix.cache_clear()  # keeps this run's memory bounded
    for ops in prefix_families.values():
        ops.sort(key=lambda op: int(op.args[2]))
        wanted = {int(op.args[2]): op for op in ops}
        lines = record(taumt, ops[-1], checker).splitlines(keepends=True)
        running = hashlib.sha256()
        for n, line in enumerate(lines, 1):
            running.update(line.encode())
            if n in wanted:
                digests[wanted[n].key] = running.hexdigest()
        for op in ops[::SPOT_CHECK_EVERY]:
            if digest(record(taumt, op, checker)) != digests[op.key]:
                sys.exit(f"{op.key}: output is not a prefix of the longest run")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=worker.HERE, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    doc = {"commit": commit, "digests": dict(sorted(digests.items()))}
    worker.GOLDEN.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"recorded {len(digests)} digests at {commit}")


if __name__ == "__main__":
    main()
