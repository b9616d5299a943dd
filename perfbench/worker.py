"""One benchmark worker: set up taumt, run a workload's ops, check them.

Started by run.py, one at a time.  It prints "ready" once set-up is done,
then runs the ops in a closed loop (the next op starts only after the
previous one finished and was checked) and prints one JSON line with each
op's latency and verdict.  Checks run outside the timed region.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload tau-exact --seed 1 --rounds 4
    python3 perfbench/worker.py --workload tau-exact --seed 1 --rounds 1 --trace
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter, process_time

import oracles
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
RESULTS = HERE / "results"
DEADLINE_S = 30.0  # the slowest op takes about 4 s untraced


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op that overran DEADLINE_S."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def with_deadline(fn, seconds: float):
    """fn() under a SIGALRM deadline; raises OpDeadline when it overruns."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_taumt():
    """Import taumt from the checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import taumt
    import taumt.cli

    if not Path(taumt.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"taumt was imported from {taumt.__file__}, not from {SRC}")
    return taumt


def setup(taumt) -> None:
    """What every CLI user pays before the first result: symbols and tables."""
    taumt.delta_symbol()
    taumt.phi9_symbol()
    taumt.fixtures.load_serre_congruences()
    taumt.fixtures.load_table1()
    taumt.fixtures.load_divisor_values("s5_values.csv")
    taumt.fixtures.load_divisor_values("s7_values.csv")


def prepare(taumt, op):
    """The op's library-call input, built before its clock starts."""
    if op.kind != "eval":
        return None
    make = taumt.Cusp.make
    return [taumt.Divisor.path(make(*r), make(*s)) for r, s in workloads.eval_batch_pairs(op.args[0])]


def execute(taumt, op, prepared):
    """Run the op; returns (exit code, raw result)."""
    if op.kind == "cusp":
        return 0, taumt.cusp_representatives(op.args[0])
    if op.kind == "eval":
        sym = taumt.delta_symbol()
        return 0, [taumt.eval_symbol(sym, D) for D in prepared]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = taumt.cli.main(list(op.args))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def render(op, result) -> str:
    """The op's stdout: the CLI's own, or one line per item of a library result."""
    if op.kind == "cusp":
        return "".join(f"{c}\n" for c in result)
    if op.kind == "eval":
        return "".join(" ".join(map(str, value)) + "\n" for value in result)
    return result


def run_op(taumt, op, checker, tr, op_id):
    """Time one op, then check it untimed: (latency, CPU time, failure or None, stdout)."""
    prepared = prepare(taumt, op)
    reason = None
    rc, result = 0, None
    cpu0 = process_time()
    handle = tr.begin_op(op_id, "op." + op.kind) if tr else None
    t0 = perf_counter()
    try:
        rc, result = with_deadline(lambda: execute(taumt, op, prepared), DEADLINE_S)
    except OpDeadline:
        reason = f"overran the {DEADLINE_S:g} s deadline"
    except Exception as exc:  # the op failed; record it and go on
        reason = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if tr:
        latency = tr.end_op(handle)
    cpu = process_time() - cpu0
    text = ""
    if reason is None:
        text = render(op, result)
        try:
            reason = checker.check(op, rc, text)
        except Exception as exc:  # unparsable output is a wrong output
            reason = f"check raised {type(exc).__name__}: {exc}"
    return latency, cpu, reason, text


def run(args) -> dict:
    try:
        taumt = import_taumt()
    except ImportError as exc:
        sys.stderr.write(f"worker: cannot import taumt: {exc}\n")
        sys.exit(3)
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        handle = tr.begin_op(0, "op.setup")
        setup(taumt)
        tr.end_op(handle)
    else:
        setup(taumt)
    print("ready", flush=True)
    if args.setup_only:
        return {}

    golden = json.loads(GOLDEN.read_text())["digests"]
    checker = oracles.Oracles(golden, taumt.cusp_count)
    cache_info = taumt.mansym.action_matrix.cache_info
    cache_before = cache_info()
    ops = [op for ops in workloads.rounds(args.workload, args.seed)[:args.rounds] for op in ops]
    records = []
    busy = cpu = 0.0
    for op in ops:
        latency, op_cpu, reason, text = run_op(taumt, op, checker, tr, len(records) + 1)
        busy += latency
        cpu += op_cpu
        records.append([op.key, op.command, latency, reason, len(text)])

    doc = {
        "ops": records,
        "busy_s": busy,
        "cpu_s": cpu,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tr:
        cache_after = cache_info()
        hits = cache_after.hits - cache_before.hits
        lookups = hits + cache_after.misses - cache_before.misses
        sums = tr.self_sums()
        roots = {r[2]: r[5] - r[4] for r in tr.spans if r[1] is None}
        doc["self_sum_error_s"] = max(abs(sums[op_id] - wall) for op_id, wall in roots.items())
        doc["repeated_mazur_tate_inputs"] = tr.counts["iwasawa.mazur_tate.repeated_inputs"]
        doc["layers"] = tr.metrics(
            action_matrix_hit_ratio=hits / lookups if lookups else 0.0,
            action_matrix_entries=cache_after.currsize,
            output_bytes=sum(r[4] for r in records if r[1].startswith("cli.")),
        )
        RESULTS.mkdir(exist_ok=True)
        trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        tr.dump(trace_file, [r[:4] for r in records])
        doc["trace_file"] = str(trace_file.relative_to(HERE.parent))
    return doc


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true", help="set up, print ready, exit")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1, help="run the workload's first ROUNDS rounds")
    parser.add_argument("--trace", action="store_true", help="record spans and counters")
    args = parser.parse_args(argv)
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required")
    doc = run(args)
    if doc:
        sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
