"""The benchmark's own tests: seeded op lists, uniqueness, deadline, oracles.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 7, 2024)


class OpListTest(unittest.TestCase):
    def test_same_seed_gives_same_ops(self):
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                self.assertEqual(workloads.rounds(workload, seed), workloads.rounds(workload, seed))

    def test_seed_changes_ops(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual(workloads.rounds(workload, 1), workloads.rounds(workload, 2))

    def test_no_two_ops_share_argv_or_input(self):
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                ops = [op for ops in workloads.rounds(workload, seed) for op in ops]
                self.assertLessEqual({op.command for op in ops}, set(workloads.COMMANDS))
                for values in ([op.key for op in ops], [item for op in ops for item in set(op.inputs)]):
                    repeated = [v for v, n in Counter(values).items() if n > 1]
                    self.assertEqual(repeated, [], f"{workload} seed {seed}: repeated")

    def test_verify_ops_declare_the_elements_they_build(self):
        op = workloads.tower_verify_op("D", None, 2, "json")
        self.assertEqual(op.inputs, (("mazur_tate", "delta", 3, 1, 2), ("mazur_tate", "phi9", 3, 1, 2),
                                     ("mazur_tate", "delta", 3, 2, 2), ("mazur_tate", "phi9", 3, 2, 2)))

    def test_a_run_is_a_fixed_number_of_rounds(self):
        for workload in workloads.WORKLOADS:
            full = workloads.run_rounds(workload, workloads.REFERENCE_SECONDS)
            self.assertEqual(full, workloads.RUN_ROUNDS[workload])
            self.assertLessEqual(full, len(workloads.rounds(workload, 0)))
            self.assertEqual(workloads.run_rounds(workload, workloads.REFERENCE_SECONDS / 4), 1)

    def test_rounds_of_a_tau_workload_have_one_op_per_stratum(self):
        windows = workloads.tau_windows(workloads.TAU_EXACT_STRATA, 0)
        stratum = {n: i for i, window in enumerate(windows) for n in window}
        for ops in workloads.rounds("tau-exact", 3):
            self.assertEqual(sorted(stratum[int(op.args[2])] for op in ops), list(range(len(windows))))

    def test_every_drawable_op_has_a_recorded_digest(self):
        golden = json.loads(worker.GOLDEN.read_text())["digests"]
        pool = {op.key for op in workloads.pool()}
        self.assertEqual(pool, set(golden))
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                keys = {op.key for ops in workloads.rounds(workload, seed) for op in ops}
                self.assertLessEqual(keys, pool)


class DeadlineTest(unittest.TestCase):
    def test_hung_call_is_stopped_and_the_next_runs(self):
        def hang():
            while True:
                pass

        with self.assertRaises(worker.OpDeadline):
            worker.with_deadline(hang, 0.2)
        self.assertEqual(worker.with_deadline(lambda: 42, 0.2), 42)


class TracerTest(unittest.TestCase):
    def test_repeated_mazur_tate_inputs_are_counted(self):
        taumt = worker.import_taumt()
        tr = tracer.Tracer()
        tr.install()
        psi = taumt.DirichletCharacter.teichmuller_power(5, 2, 1)

        def eis():  # a new, equal boundary symbol on every call
            return taumt.eisenstein_boundary_symbol(psi, taumt.DirichletCharacter.trivial())

        handle = tr.begin_op(1, "op.test")
        for source, m in ((eis(), 1), (eis(), 1), (taumt.delta_symbol(), 1), (taumt.delta_symbol(), 2)):
            taumt.iwasawa.mazur_tate(source, 5, 1, m)
        tr.end_op(handle)
        self.assertEqual(tr.counts["iwasawa.mazur_tate.repeated_inputs"], 1)
        self.assertEqual(tr.totals()[0]["iwasawa.mazur_tate"], 4)


class CuspKeyTest(unittest.TestCase):
    def test_key_agrees_with_cusp_equivalent(self):
        taumt = worker.import_taumt()
        rng = random.Random(5)

        def cusp():
            a, c = rng.randrange(-90, 91), rng.randrange(0, 90)
            return taumt.Cusp.make(a, c) if a or c else taumt.INFINITY_CUSP

        for _ in range(3000):
            level = rng.randrange(1, 60)
            x, y = cusp(), cusp()
            same = oracles.cusp_key(level, x.a, x.c) == oracles.cusp_key(level, y.a, y.c)
            self.assertEqual(same, taumt.cusp_equivalent(level, x, y), (level, x, y))


if __name__ == "__main__":
    unittest.main()
