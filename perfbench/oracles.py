"""Per-op correctness checks, run outside the timed region.

Each check returns None when the op's output is right, else a one-line
reason.  Besides the kind-specific oracle, every op's stdout must match the
sha256 digest recorded in golden.json at the seed commit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from math import gcd

import workloads

RAMANUJAN_MODULUS = 691


class Oracles:
    def __init__(self, golden: dict, cusp_count):
        self.golden = golden
        self.cusp_count = cusp_count
        # Built before the first op: a table allocated between two ops would
        # make the ops' peak RSS depend on where it lands among their arrays.
        self._sigma11 = []
        self._sigma11_mod(workloads.TAU_RANGE[1])

    def check(self, op, rc: int, text: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        expected = self.golden.get(op.key)
        if expected is None:
            return "no digest recorded for this op"
        if hashlib.sha256(text.encode()).hexdigest() != expected:
            return "stdout digest differs from the recorded one"
        return self.check_output(op, text)

    def check_output(self, op, text: str) -> str | None:
        """The kind-specific oracle alone, without the digest."""
        return getattr(self, "_" + op.kind)(op, text)

    # -- tau: every line satisfies tau(n) = sigma_11(n) mod 691 -------------

    def _sigma11_mod(self, n_max: int) -> list[int]:
        if len(self._sigma11) <= n_max:
            n_max = max(n_max, workloads.TAU_RANGE[1])
            sig = [0] * (n_max + 1)
            for d in range(1, n_max + 1):
                dk = pow(d, 11, RAMANUJAN_MODULUS)
                for k in range(d, n_max + 1, d):
                    sig[k] += dk
            self._sigma11 = [s % RAMANUJAN_MODULUS for s in sig]
        return self._sigma11

    def _tau_lines(self, op, text: str) -> list[int] | str:
        n = int(op.args[2])
        values = [int(line) for line in text.splitlines()]
        if len(values) != n:
            return f"{len(values)} lines for --n {n}"
        return values

    def _tau(self, op, text):
        values = self._tau_lines(op, text)
        if isinstance(values, str):
            return values
        sig = self._sigma11_mod(len(values))
        for n, t in enumerate(values, 1):
            if (t - sig[n]) % RAMANUJAN_MODULUS:
                return f"tau({n}) is not sigma_11({n}) mod 691"
        return None

    def _tau_mod(self, op, text):
        # tau = sigma_11 mod 691, so the residues must be exactly sigma_11 mod 691:
        # that is the reduction of the exact output.
        values = self._tau_lines(op, text)
        if isinstance(values, str):
            return values
        sig = self._sigma11_mod(len(values))
        for n, t in enumerate(values, 1):
            if t != sig[n]:
                return f"line {n} is not tau({n}) mod 691"
        return None

    # -- verify: every record passes ----------------------------------------

    def _verify(self, op, text):
        fmt = op.args[op.args.index("--format") + 1] if "--format" in op.args else "json"
        if fmt == "json":
            passes = [record["pass"] for record in json.loads(text)]
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
            if op.args[1] == "appendix":
                # the appendix CSV is the table itself; its records are in the JSON form
                return None if len(rows) == 55 else f"{len(rows)} appendix rows"
            passes = [row["pass"] == "True" for row in rows]
        if not passes:
            return "no records"
        if not all(passes):
            return f"{passes.count(False)} records fail"
        return None

    # -- mt: (mu, lambda) = (0, p^n - 1), or (1, 3^n - 2) at p = 3 -----------

    def _mt(self, op, text):
        args = dict(zip(op.args[1::2], op.args[2::2]))
        p, n = int(args["--p"]), int(args["--n"])
        expected = (1, 3**n - 2) if p == 3 else (0, p**n - 1)
        if args["--format"] == "json":
            doc = json.loads(text)
            got = (doc["mu"], doc["lambda"])
        else:
            rows = {row[0]: row[1] for row in csv.reader(io.StringIO(text))}
            got = (int(rows["mu"]), int(rows["lambda"]))
        return None if got == expected else f"(mu, lambda) = {got}, expected {expected}"

    # -- cusp_representatives: cusp_count(N) pairwise-inequivalent cusps ----

    def _cusp(self, op, text):
        level = op.args[0]
        reps = [line.split("/") if "/" in line else (line, "1") for line in text.splitlines()]
        reps = [(1, 0) if a == "oo" else (int(a), int(c)) for a, c in reps]
        if len(reps) != self.cusp_count(level):
            return f"{len(reps)} representatives, cusp_count gives {self.cusp_count(level)}"
        if len({cusp_key(level, a, c) for a, c in reps}) != len(reps):
            return "two representatives are Gamma_1(N)-equivalent"
        return None

    def _eval(self, op, text):
        return None  # the digest is the check


def cusp_key(level: int, a: int, c: int) -> tuple[int, int]:
    """A Gamma_1(N) class invariant of a/c, independent of taumt.cusps.

    a/c ~ a'/c' exactly when c' = s c (mod N) and a' = s a (mod gcd(c, N))
    for one sign s (Diamond-Shurman, Prop. 3.8.3); the key is the smaller
    of the two signed pairs.
    """
    g = gcd(c, level)
    return min(((s * c) % level, (s * a) % g) for s in (1, -1))
