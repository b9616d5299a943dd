"""Weight-0 boundary symbols: functions on cusps constant on Gamma_1(N) classes.

Two sources: the Eisenstein construction, which assembles the symbol
attached to a character pair (psi, chi) from indicator symbols of the
cusps x/(Qy), and the explicit mod-9 symbol of level 27 shipped as a
fixture table.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import DirichletCharacter, ResidueRing
from .cusps import Cusp, Divisor, cusp_count, cusp_key, cusp_representatives
from . import fixtures


class BoundarySymbol:
    """A Z/p^m-valued function on P^1(Q), constant on each Gamma_1(N) cusp.

    Stored as an orbit-value table over pairwise-inequivalent representatives;
    cusps not listed take the value 0.  Evaluation looks up the cusp's
    cusp_key, memoized by (a mod N, c mod N), which the key depends on.
    """

    def __init__(self, level: int, ring: ResidueRing, reps: list[Cusp], values: list[int], label: str = ""):
        if len(reps) != len(values):
            raise ValueError("representative and value lists differ in length")
        self.level = level
        self.ring = ring
        self.reps = list(reps)
        self.values = [ring.reduce(v) for v in values]
        self.label = label
        self._table = {cusp_key(level, r): v for r, v in zip(self.reps, self.values)}
        if len(self._table) != len(self.reps):
            raise ValueError("representatives are not pairwise inequivalent")
        self._memo: dict[tuple[int, int], int] = {}

    def value(self, cusp: Cusp) -> int:
        """The symbol's value at the cusp, 0 off the listed support."""
        # the memo saves the key's gcd on the Mazur-Tate hot path
        residues = (cusp.a % self.level, cusp.c % self.level)
        v = self._memo.get(residues)
        if v is None:
            v = self._memo[residues] = self._table.get(cusp_key(self.level, cusp), 0)
        return v

    def difference(self, r: Cusp, s: Cusp) -> int:
        """value(r) - value(s) in the symbol's ring."""
        return (self.value(r) - self.value(s)) % self.ring.n

    def on_divisor(self, D: Divisor) -> int:
        """The induced homomorphism on divisors (all divisors, not just degree 0)."""
        return sum(m * self.value(c) for c, m in D.items()) % self.ring.n

    def __repr__(self):
        tag = self.label or "boundary symbol"
        return f"<{tag}: level {self.level}, ring Z/{self.ring.n}, {len(self.reps)} classes>"


def _support_cusp(x: int, Q: int, y: int) -> Cusp:
    # y is a unit mod R, so the Gamma_1(QR) class of a/(Qy) depends only on
    # a mod Q: lift x mod Q to a numerator coprime to Q*y
    t = 0
    while gcd(x + t * Q, Q * y) != 1:
        t += 1
    return Cusp.make(x + t * Q, Q * y)


def eisenstein_boundary_symbol(
    psi: DirichletCharacter,
    chi: DirichletCharacter,
    ring: ResidueRing | None = None,
) -> BoundarySymbol:
    """The weight-0 boundary symbol attached to the character pair (psi, chi).

    With Q, R the moduli of psi and chi and M = QR, the value at a cusp r is

        sum over units x mod Q, y mod R of psi^(-1)(x) chi(y) [r ~ x/(Qy)],

    the weight-0 specialization of the Eisenstein family: each indicator
    symbol is supported on one Gamma_1(M) cusp with constant value 1.
    """
    if psi.parity() * chi.parity() != 1:
        raise ValueError("parity violation: psi*chi(-1) must be 1 at weight 0")
    if ring is None:
        ring = psi.ring or chi.ring
        if ring is None:
            raise ValueError("a target ring is required for trivial characters")
    Q, R = psi.modulus, chi.modulus
    M = Q * R
    psi_inv = psi.inverse()
    reps = cusp_representatives(M)
    index = {cusp_key(M, r): i for i, r in enumerate(reps)}
    values = [0] * len(reps)
    for x in range(1, Q + 1):
        if gcd(x, Q) != 1:
            continue
        for y in range(1, R + 1):
            if gcd(y, R) != 1:
                continue
            weight = ring.reduce(psi_inv(x) * chi(y))
            if weight == 0:
                continue
            i = index[cusp_key(M, _support_cusp(x, Q, y))]
            values[i] = (values[i] + weight) % ring.n
    label = f"phi(0, psi mod {Q}, chi mod {R})"
    return BoundarySymbol(M, ring, reps, values, label)


@lru_cache(maxsize=None)
def phi9_symbol() -> BoundarySymbol:
    """The explicit Z/9-valued boundary symbol of level 27, from its orbit table."""
    rows = fixtures.load_orbit_table("phi9_orbits.csv")
    reps = [Cusp.parse(r) for r, _ in rows]
    if len(reps) != cusp_count(27):
        raise ValueError(f"phi9 orbit table lists {len(reps)} of the {cusp_count(27)} classes")
    values = [v for _, v in rows]
    return BoundarySymbol(27, ResidueRing(3, 2), reps, values, "phi9")


def phi9(r: Cusp) -> int:
    """Value of the level-27 mod-9 symbol at a cusp."""
    return phi9_symbol().value(r)
