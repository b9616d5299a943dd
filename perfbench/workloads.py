"""Seeded op lists for the four benchmark workloads.

A workload is a list of rounds; a round is a list of ops.  The make-up of
each round is fixed (one op per size stratum and kind for the tau workloads,
a fixed set of levels for mt-tower and symbols), and a run is a fixed number
of rounds (`run_rounds`), so every run measures the same mix whatever the
seed and whatever the speed of the program.  The seed picks the ops inside
each stratum, their order (mt-tower keeps a fixed order) and the output
format.

Ops are drawn without replacement from finite pools, so no two ops of a run
share argv or a computational input (`Op.inputs`), and every op of every
pool has a stdout digest recorded in golden.json.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("tau-exact", "tau-scan", "mt-tower", "symbols")

# tau ops: N from about 5e3 to 3e4, cut into equal strata.  A stratum's ops
# take N from a narrow window (13 values, 50 apart) around its centre, so every
# round costs about the same and the median and tail ops are the same classes
# whatever the seed.  Each kind keeps its own residue mod 50, so an N never
# feeds two ops of one tau-scan run.
TAU_RANGE = (5000, 30000)
TAU_STEP = 50
TAU_HALF_WINDOW = 6
# 11 strata make a round of about 6 s; with 4 rounds a run has 4 ops per
# stratum, so the median and tail ranks fall inside a stratum, not between two.
TAU_EXACT_STRATA = 11
# tau-scan strata per kind: a round of 11 ops takes about 8 s.
TAU_SCAN_STRATA = {"tau_mod": 5, "verify_a": 4, "serre": 2}
TAU_RESIDUES = {"tau": 0, "tau_mod": 25, "verify_a": 10, "serre": 40}

# mt-tower: the verify families, each once at the top of its tower, and
# `mt` at every (source, p, n, m <= 4) whose closed form is known and that
# no verify op builds (mu = 0 at p = 5, 7 makes lambda the same at every m).  `verify T --nmax k` builds its elements at every level
# 1..k, so no family runs twice, and the mt ops leave out what they build:
# B --p 5 builds eis at 5^n mod 5, C --p 7 builds delta and eis at 7^n mod 7,
# D builds delta and phi9 at 3^n mod 9 (so phi9 is reached through D only).
# --source eis at p = 3 is left out: its element vanishes mod 3 and mod 9.
VERIFY_TOWER = (("C", 7, 4), ("B", 5, 5), ("D", None, 8))  # (theorem, --p, --nmax); family i in round i
MT_TOWER = (  # (source, p, top level n, precisions m)
    ("delta", 3, 8, (3, 4)),
    ("delta", 5, 5, (1, 2, 3, 4)),
    ("eis", 5, 5, (2, 3, 4)),
    ("delta", 7, 4, (2, 3, 4)),
    ("eis", 7, 4, (2, 3, 4)),
)
MT_ROUNDS = len(VERIFY_TOWER)
FORMATS = ("json", "csv")
COMMANDS = ("cli.tau", "cli.verify", "cli.mt", "api.cusp_representatives", "api.eval_symbol")

# symbols: round r takes the levels N = 60 + r + 8 k, k = 0..22, so each
# round spans [60, 243] and the 8 rounds use each level once.
CUSP_LEVELS = range(60, 244)
CUSP_ROUNDS = 8
EVAL_BATCHES = 600
EVAL_BATCH_SIZE = 12
EVAL_PER_ROUND = 32
EVAL_MAX_DEN = 10**6

# Rounds in a run of REFERENCE_SECONDS, about that much op time at the seed
# commit.  A run is a fixed number of rounds, not "until the time is up", so a
# faster program runs the same ops (and grows the same caches) as a slower one.
REFERENCE_SECONDS = 20
RUN_ROUNDS = {"tau-exact": 4, "tau-scan": 3, "mt-tower": MT_ROUNDS, "symbols": 3}
CONGMODSYMB_SEEDS = range(100)
CONGMODSYMB_SAMPLES = (200, 400)


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    kind is "tau", "tau_mod", "verify", "mt" (CLI argv in args) or
    "cusp", "eval" (library calls: the level, or the eval batch index).
    inputs names every computation the op does, for example each
    ("mazur_tate", source, p, n, m) element a verify op builds.
    """

    kind: str
    args: tuple
    inputs: tuple

    @property
    def key(self) -> str:
        if self.kind == "cusp":
            return f"cusp_representatives({self.args[0]})"
        if self.kind == "eval":
            return f"eval_symbol(delta_symbol(), batch {self.args[0]})"
        return "taumt " + " ".join(self.args)

    @property
    def command(self) -> str:
        """The command kind whose median latency the traced run reports."""
        if self.kind == "cusp":
            return "api.cusp_representatives"
        if self.kind == "eval":
            return "api.eval_symbol"
        return "cli." + self.args[0]


def tau_op(n: int) -> Op:
    return Op("tau", ("tau", "--n", str(n)), (("tau_expansion", n),))


def tau_mod_op(n: int) -> Op:
    return Op("tau_mod", ("tau", "--n", str(n), "--mod", "691"), (("tau_expansion", n),))


def verify_a_op(bound: int) -> Op:
    return Op("verify", ("verify", "A", "--bound", str(bound)), (("tau_expansion", bound),))


def serre_op(bound: int) -> Op:
    return Op("verify", ("verify", "serre", "--bound", str(bound)), (("tau_expansion", bound),))


def mt_op(source: str, p: int, n: int, m: int, fmt: str) -> Op:
    argv = ("mt", "--source", source, "--p", str(p), "--n", str(n), "--m", str(m), "--format", fmt)
    return Op("mt", argv, (("mazur_tate", source, p, n, m),))


# The elements `verify T --nmax k` builds at each level n = 1..k.
VERIFY_ELEMENTS = {"B": (("eis", 1),), "C": (("delta", 1), ("eis", 1)), "D": (("delta", 2), ("phi9", 2))}


def tower_verify_op(theorem: str, p: int | None, nmax: int, fmt: str) -> Op:
    argv = ("verify", theorem) + (("--p", str(p)) if p else ()) + ("--nmax", str(nmax), "--format", fmt)
    inputs = tuple(("mazur_tate", source, p or 3, n, m)
                   for n in range(1, nmax + 1) for source, m in VERIFY_ELEMENTS[theorem])
    return Op("verify", argv, inputs)


def congmodsymb_op(samples: int, seed: int) -> Op:
    argv = ("verify", "congmodsymb", "--samples", str(samples), "--seed", str(seed))
    return Op("verify", argv, (("congmodsymb", seed),))


def appendix_op(fmt: str) -> Op:
    return Op("verify", ("verify", "appendix", "--format", fmt), (("appendix",),))


def cusp_op(n: int) -> Op:
    return Op("cusp", (n,), (("cusp", n),))


def eval_op(batch: int) -> Op:
    return Op("eval", (batch,), (("eval", batch),))


def eval_batch_pairs(batch: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (numerator, denominator) pairs of the batch's divisors {r} - {s}.

    Fixed per batch index, so the pool's digests can be recorded once.
    """
    rng = random.Random(f"eval-batch-{batch}")

    def point():
        return rng.randrange(-EVAL_MAX_DEN, EVAL_MAX_DEN + 1), rng.randrange(1, EVAL_MAX_DEN + 1)

    return [(point(), point()) for _ in range(EVAL_BATCH_SIZE)]


def tau_windows(count: int, residue: int) -> list[list[int]]:
    """The N values of each of `count` strata of TAU_RANGE."""
    lo, hi = TAU_RANGE
    windows = []
    for k in range(count):
        centre = lo + (hi - lo) * (2 * k + 1) // (2 * count)
        centre += (residue - centre) % TAU_STEP
        windows.append([centre + TAU_STEP * j for j in range(-TAU_HALF_WINDOW, TAU_HALF_WINDOW + 1)])
    return windows


def _tau_makers(workload: str):
    if workload == "tau-exact":
        return [(tau_op, "tau", TAU_EXACT_STRATA)]
    return [(make, kind, TAU_SCAN_STRATA[kind])
            for make, kind in ((tau_mod_op, "tau_mod"), (verify_a_op, "verify_a"), (serre_op, "serre"))]


def _drawn_strata(rng: random.Random, workload: str) -> list[list[Op]]:
    """Rounds of one op per (kind, stratum), drawn without replacement."""
    decks = []
    for make, kind, count in _tau_makers(workload):
        for window in tau_windows(count, TAU_RESIDUES[kind]):
            decks.append((make, rng.sample(window, len(window))))
    rounds = []
    for i in range(min(len(deck) for _, deck in decks)):
        ops = [make(deck[i]) for make, deck in decks]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def _mt_rounds(rng: random.Random) -> list[list[Op]]:
    """The mt ops dealt to the rounds in turn, then one verify family per round.

    The seed draws only the output formats.  Ops keep the order in which a
    user climbs each tower: the first op at a level pays for that level's
    discrete-log table, and with a fixed order it is the same op whatever the
    seed.
    """
    rounds = [[] for _ in range(MT_ROUNDS)]
    tower = [(source, p, n, m) for source, p, top, precisions in MT_TOWER
             for n in range(1, top + 1) for m in precisions]
    for i, (source, p, n, m) in enumerate(tower):
        rounds[i % MT_ROUNDS].append(mt_op(source, p, n, m, rng.choice(FORMATS)))
    for ops, (theorem, p, nmax) in zip(rounds, VERIFY_TOWER):
        ops.append(tower_verify_op(theorem, p, nmax, rng.choice(FORMATS)))
    return rounds


def _symbol_rounds(rng: random.Random) -> list[list[Op]]:
    batches = rng.sample(range(EVAL_BATCHES), EVAL_PER_ROUND * CUSP_ROUNDS)
    seeds = rng.sample(CONGMODSYMB_SEEDS, CUSP_ROUNDS)
    rounds = []
    for r in range(CUSP_ROUNDS):
        ops = [cusp_op(n) for n in CUSP_LEVELS[r::CUSP_ROUNDS]]
        ops += [eval_op(b) for b in batches[r * EVAL_PER_ROUND:(r + 1) * EVAL_PER_ROUND]]
        ops.append(congmodsymb_op(rng.choice(CONGMODSYMB_SAMPLES), seeds[r]))
        if r == 0:
            ops.append(appendix_op(rng.choice(FORMATS)))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def run_rounds(workload: str, seconds: float) -> int:
    """How many rounds a run of `seconds` makes: RUN_ROUNDS scaled, at least 1."""
    return max(1, math.ceil(RUN_ROUNDS[workload] * seconds / REFERENCE_SECONDS))


def rounds(workload: str, seed: int) -> list[list[Op]]:
    """The seeded rounds of a workload; the same seed gives the same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("tau-exact", "tau-scan"):
        return _drawn_strata(rng, workload)
    if workload == "mt-tower":
        return _mt_rounds(rng)
    if workload == "symbols":
        return _symbol_rounds(rng)
    raise ValueError(f"unknown workload {workload!r}")


def pool() -> list[Op]:
    """Every op any seed of any workload can draw."""
    ops = []
    for workload in ("tau-exact", "tau-scan"):
        for make, kind, count in _tau_makers(workload):
            ops += [make(n) for window in tau_windows(count, TAU_RESIDUES[kind]) for n in window]
    for fmt in FORMATS:
        for source, p, top, precisions in MT_TOWER:
            ops += [mt_op(source, p, n, m, fmt) for n in range(1, top + 1) for m in precisions]
        ops += [tower_verify_op(theorem, p, nmax, fmt) for theorem, p, nmax in VERIFY_TOWER]
        ops.append(appendix_op(fmt))
    ops += [congmodsymb_op(s, seed) for s in CONGMODSYMB_SAMPLES for seed in CONGMODSYMB_SEEDS]
    ops += [cusp_op(n) for n in CUSP_LEVELS]
    ops += [eval_op(b) for b in range(EVAL_BATCHES)]
    return ops
