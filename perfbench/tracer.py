"""Spans and counters around taumt's public functions, installed from outside.

The tracer replaces each listed function in its defining module and in
every taumt module that imported it by name (methods on their class), so
src/ stays untouched.  Three kinds of wrapper:

* span: one record (id, parent id, op id, name, start, end, self time) per
  call, kept in memory and written out at the end of the run;
* hot: calls and self time summed per (op, name), for functions called
  thousands of times per op, where a record per call would cost more memory
  than it tells;
* counter: call counts only, with no clock read.

A function's self time is its duration minus the time of the timed calls
beneath it, so the self times of one op sum to that op's wall time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MARKED = ("boundary.BoundarySymbol.value", "cusps.cusp_representatives")


def _poly_mul_stats(tr, args, result):
    a, b, n = args[:3]
    tr.counts["qseries.poly_mul_trunc.coeffs"] += min(len(a), n + 1) + min(len(b), n + 1)


def _tau_stats(tr, args, result):
    bits = max(max(result), -min(result)).bit_length()
    tr.counts["qseries.tau_expansion.max_coeff_bits"] = max(tr.counts["qseries.tau_expansion.max_coeff_bits"], bits)
    tr.op_calls[tr.op, "qseries.tau_expansion"] += 1


def _source_key(source):
    """A key equal for equal sources: boundary symbols by their level, ring,
    support and values; Manin symbols compare by value, weight-0 symbols by
    identity."""
    if type(source).__name__ == "BoundarySymbol":
        return ("BoundarySymbol", source.level, source.ring.n, tuple(map(str, source.reps)), tuple(source.values))
    return source


def _mazur_tate_stats(tr, args, result):
    source, p, n, m = args[:4]
    tr.counts["iwasawa.mazur_tate.units"] += (p - 1) * p**n
    key = (_source_key(source), p, n, m)
    if key in tr.mazur_tate_inputs:
        tr.counts["iwasawa.mazur_tate.repeated_inputs"] += 1
    tr.mazur_tate_inputs[key] = source  # keeps the source alive, so no id is reused


def _t_basis_stats(tr, args, result):
    length = len(args[0].coeffs)
    tr.counts["iwasawa.to_T_basis.length"] += length
    tr.counts["iwasawa.to_T_basis.pascal_steps"] += length * length // 2


def _reps_stats(tr, args, result):
    tr.counts["cusps.cusp_representatives.reps"] += len(result)


def _path_stats(tr, args, result):
    tr.counts["mansym.unimodular_path.steps"] += len(result)


# (module, attribute path, wrapper kind, metric name, stats hook)
TARGETS = (
    ("taumt.cli", "main", "span", "cli.main", None),
    ("taumt.qseries", "poly_mul_trunc", "span", "qseries.poly_mul_trunc", _poly_mul_stats),
    ("taumt.qseries", "tau_expansion", "span", "qseries.tau_expansion", _tau_stats),
    ("taumt.qseries", "verify_tau_congruence", "span", "qseries.verify_tau_congruence", None),
    ("taumt.qseries", "admissible_sweep", "span", "qseries.admissible_sweep", None),
    ("taumt.qseries", "verify_serre_congruences", "span", "qseries.verify_serre_congruences", None),
    ("taumt.iwasawa", "mazur_tate", "span", "iwasawa.mazur_tate", _mazur_tate_stats),
    ("taumt.iwasawa", "to_T_basis", "span", "iwasawa.to_T_basis", _t_basis_stats),
    ("taumt.iwasawa", "invariants", "span", "iwasawa.invariants", None),
    ("taumt.iwasawa", "fit_global_unit", "span", "iwasawa.fit_global_unit", None),
    ("taumt.arith", "discrete_log", "hot", "arith.discrete_log", None),
    ("taumt.arith", "primitive_root", "span", "arith.primitive_root", None),
    ("taumt.mansym", "eval_at_zero_one", "hot", "mansym.eval_at_zero_one", None),
    ("taumt.mansym", "WeightZeroSymbol.pair", "hot", "mansym.WeightZeroSymbol.pair", None),
    ("taumt.mansym", "eval_symbol", "hot", "mansym.eval_symbol", None),
    ("taumt.mansym", "unimodular_path", "counter", "mansym.unimodular_path", _path_stats),
    ("taumt.mansym", "delta_symbol", "span", "mansym.delta_symbol", None),
    ("taumt.mansym", "evaluation_content", "span", "mansym.evaluation_content", None),
    ("taumt.linalg", "nullspace", "span", "linalg.nullspace", None),
    ("taumt.fixtures", "load_orbit_table", "span", "fixtures.load", None),
    ("taumt.fixtures", "load_divisor_values", "span", "fixtures.load", None),
    ("taumt.fixtures", "load_table1", "span", "fixtures.load", None),
    ("taumt.fixtures", "load_serre_congruences", "span", "fixtures.load", None),
    ("taumt.cusps", "cusp_representatives", "span", "cusps.cusp_representatives", _reps_stats),
    ("taumt.cusps", "classify_cusp", "counter", "cusps.classify_cusp", None),
    ("taumt.cusps", "cusp_equivalent", "counter", "cusps.cusp_equivalent", None),
    ("taumt.boundary", "BoundarySymbol.value", "counter", "boundary.BoundarySymbol.value", None),
    ("taumt.boundary", "BoundarySymbol.__init__", "span", "boundary.BoundarySymbol.__init__", None),
    ("taumt.boundary", "eisenstein_boundary_symbol", "span", "boundary.eisenstein_boundary_symbol", None),
)


class Tracer:
    """Collects spans and counters while `active`; idle wrappers pass through."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []  # (id, parent id, op id, name, start, end, self)
        self.hot = defaultdict(lambda: [0, 0.0])  # (op id, name) -> [calls, self]
        self.counts = Counter()
        self.op_calls = Counter()  # (op id, name) -> calls, for per-op ratios
        self.mazur_tate_inputs = {}  # (source key, p, n, m) -> source, to find repeated elements
        self.depth = Counter({name: 0 for name in MARKED})
        self._stack = []  # open timed frames: [span id or None, start, child time]
        self._next_id = 0

    # -- frames -----------------------------------------------------------

    def _enter(self, span_id):
        frame = [span_id, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        if self._stack:
            self._stack[-1][2] += duration
        return end, duration - frame[2]

    def begin_op(self, op_id, name):
        """Open the root span of an op; returns the handle for end_op."""
        self.op = op_id
        self.active = True
        return self._open_span(name)

    def end_op(self, handle) -> float:
        """Close the op's root span and return its traced wall time."""
        self._close_span(handle)
        self.active = False
        record = self.spans[-1]
        return record[5] - record[4]

    def _open_span(self, name):
        parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
        self._next_id += 1
        return name, parent, self._enter(self._next_id)

    def _close_span(self, handle):
        name, parent, frame = handle
        end, self_time = self._exit(frame)
        self.spans.append((frame[0], parent, self.op, name, frame[1], end, self_time))

    # -- wrappers ---------------------------------------------------------

    def wrap(self, kind, name, fn, stats):
        tr = self
        marked = name in MARKED

        if kind == "span":
            def wrapper(*args, **kwargs):
                if not tr.active:
                    return fn(*args, **kwargs)
                handle = tr._open_span(name)
                if marked:
                    tr.depth[name] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if marked:
                        tr.depth[name] -= 1
                    tr._close_span(handle)
                if stats:
                    stats(tr, args, result)
                return result
        elif kind == "hot":
            def wrapper(*args, **kwargs):
                if not tr.active:
                    return fn(*args, **kwargs)
                frame = tr._enter(None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    _, self_time = tr._exit(frame)
                    agg = tr.hot[tr.op, name]
                    agg[0] += 1
                    agg[1] += self_time
        else:
            calls = name + ".calls"
            attributed = name == "cusps.classify_cusp"  # counted beneath each MARKED caller too

            def wrapper(*args, **kwargs):
                if not tr.active:
                    return fn(*args, **kwargs)
                tr.counts[calls] += 1
                if attributed:
                    for parent, depth in tr.depth.items():
                        if depth:
                            tr.counts[parent + ".classify_beneath"] += 1
                if marked:
                    tr.depth[name] += 1
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        tr.depth[name] -= 1
                else:
                    result = fn(*args, **kwargs)
                if stats:
                    stats(tr, args, result)
                return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every target where it is defined and wherever it was imported."""
        modules = [m for n, m in list(sys.modules.items()) if n == "taumt" or n.startswith("taumt.")]
        for module_name, path, kind, name, stats in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(kind, name, original, stats)
            setattr(owner, attr, wrapped)
            if not cls_path:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    # -- results ----------------------------------------------------------

    def self_sums(self) -> dict:
        """Per op: the sum of the self times of its spans and hot calls."""
        sums = defaultdict(float)
        for record in self.spans:
            sums[record[2]] += record[6]
        for (op_id, _), (_, self_time) in self.hot.items():
            sums[op_id] += self_time
        return sums

    def totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per name over spans and hot calls."""
        calls, self_s = Counter(), Counter()
        for record in self.spans:
            calls[record[3]] += 1
            self_s[record[3]] += record[6]
        for (_, name), (n, t) in self.hot.items():
            calls[name] += n
            self_s[name] += t
        return calls, self_s

    def dump(self, path, ops):
        """Write the spans, hot aggregates and counters as one JSON document."""
        doc = {
            "ops": ops,
            "spans": [list(r) for r in self.spans],
            "span_fields": ["id", "parent", "op", "name", "start", "end", "self"],
            "hot": [[op_id, name, n, t] for (op_id, name), (n, t) in self.hot.items()],
            "hot_fields": ["op", "name", "calls", "self"],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def metrics(self, action_matrix_hit_ratio, action_matrix_entries, output_bytes) -> dict:
        """The per-layer metrics this run can derive from its spans and counters."""
        calls, self_s = self.totals()
        counts = self.counts
        out = {}
        for name, stats in (
            ("qseries.poly_mul_trunc", ("calls", "self_s")),
            ("qseries.tau_expansion", ("self_s",)),
            ("qseries.verify_tau_congruence", ("self_s",)),
            ("qseries.admissible_sweep", ("self_s",)),
            ("qseries.verify_serre_congruences", ("self_s",)),
            ("iwasawa.mazur_tate", ("calls", "self_s")),
            ("iwasawa.to_T_basis", ("self_s",)),
            ("iwasawa.invariants", ("self_s",)),
            ("iwasawa.fit_global_unit", ("self_s",)),
            ("arith.discrete_log", ("calls", "self_s")),
            ("arith.primitive_root", ("self_s",)),
            ("mansym.eval_at_zero_one", ("calls", "self_s")),
            ("mansym.WeightZeroSymbol.pair", ("calls", "self_s")),
            ("mansym.eval_symbol", ("calls", "self_s")),
            ("mansym.delta_symbol", ("self_s",)),
            ("mansym.evaluation_content", ("self_s",)),
            ("linalg.nullspace", ("calls", "self_s")),
            ("fixtures.load", ("self_s",)),
            ("cusps.cusp_representatives", ("calls", "self_s")),
            ("boundary.BoundarySymbol.__init__", ("self_s",)),
            ("boundary.eisenstein_boundary_symbol", ("self_s",)),
            ("cli.main", ("self_s",)),
        ):
            for stat in stats:
                out[f"{name}.{stat}"] = calls[name] if stat == "calls" else self_s[name]
        for name in (
            "qseries.poly_mul_trunc.coeffs",
            "qseries.tau_expansion.max_coeff_bits",
            "iwasawa.mazur_tate.units",
            "iwasawa.to_T_basis.length",
            "iwasawa.to_T_basis.pascal_steps",
            "mansym.unimodular_path.steps",
            "cusps.classify_cusp.calls",
            "cusps.cusp_equivalent.calls",
            "boundary.BoundarySymbol.value.calls",
        ):
            out[name] = counts[name]
        tau_ops = [n for (op_id, name), n in self.op_calls.items() if name == "qseries.tau_expansion"]
        out["qseries.tau_expansion.calls_per_op"] = sum(tau_ops) / len(tau_ops) if tau_ops else 0.0
        out["cusps.cusp_representatives.kept_ratio"] = _ratio(
            counts["cusps.cusp_representatives.reps"], counts["cusps.cusp_representatives.classify_beneath"])
        out["boundary.BoundarySymbol.value.miss_ratio"] = _ratio(
            counts["boundary.BoundarySymbol.value.classify_beneath"], counts["boundary.BoundarySymbol.value.calls"])
        out["mansym.action_matrix.hit_ratio"] = action_matrix_hit_ratio
        out["mansym.action_matrix.entries"] = action_matrix_entries
        out["cli.output_bytes"] = output_bytes
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
