"""Points of P^1(Q), divisors on them, and Gamma_1(N) cusp classification.

A cusp is a coprime pair (a, c) with c >= 0, written a/c, and (1, 0) for
infinity.  Two cusps a/c and a'/c' are Gamma_1(N)-equivalent exactly when
(a', c') = +-(a + j c, c) mod N for some integer j; see Diamond-Shurman,
Prop. 3.8.3.  As j runs, a + j c covers the class of a mod gcd(c, N), so
the class of a/c is named by the closed-form key of cusp_key, and every
classification below is a comparison or lookup of keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True, order=True)
class Cusp:
    a: int
    c: int

    def __post_init__(self):
        if gcd(self.a, self.c) != 1:
            raise ValueError(f"cusp ({self.a}, {self.c}) is not coprime")
        if self.c < 0 or (self.c == 0 and self.a != 1):
            raise ValueError(f"cusp ({self.a}, {self.c}) is not canonical")

    @staticmethod
    def make(a: int, c: int) -> "Cusp":
        """Cusp a/c from any integer pair, reduced to canonical form."""
        if a == 0 and c == 0:
            raise ValueError("0/0 is not a point of P^1(Q)")
        g = gcd(a, c)
        a, c = a // g, c // g
        if c < 0:
            a, c = -a, -c
        if c == 0:
            a = 1
        return Cusp(a, c)

    @staticmethod
    def parse(text: str) -> "Cusp":
        """Parse "a/c", an integer, or "oo"."""
        text = text.strip()
        if text in ("oo", "inf", "infinity"):
            return Cusp(1, 0)
        if "/" in text:
            num, den = text.split("/")
            return Cusp.make(int(num), int(den))
        return Cusp.make(int(text), 1)

    def is_infinity(self) -> bool:
        return self.c == 0

    def apply(self, mat: tuple[int, int, int, int]) -> "Cusp":
        """Left action of a GL_2 matrix by fractional linear transformation."""
        a, b, c, d = mat
        return Cusp.make(a * self.a + b * self.c, c * self.a + d * self.c)

    def __str__(self):
        if self.c == 0:
            return "oo"
        return f"{self.a}/{self.c}" if self.c != 1 else str(self.a)


INFINITY_CUSP = Cusp(1, 0)
ZERO_CUSP = Cusp(0, 1)


class Divisor:
    """Finite formal Z-linear combination of cusps."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict[Cusp, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for cusp, mult in items:
            if mult:
                acc[cusp] = acc.get(cusp, 0) + mult
        self._terms = {c: m for c, m in acc.items() if m}

    @staticmethod
    def path(r: Cusp, s: Cusp) -> "Divisor":
        """The degree-0 divisor {r} - {s}."""
        return Divisor([(r, 1), (s, -1)])

    def items(self):
        return self._terms.items()

    def degree(self) -> int:
        return sum(self._terms.values())

    def is_degree_zero(self) -> bool:
        return self.degree() == 0

    def apply(self, mat) -> "Divisor":
        return Divisor([(c.apply(mat), m) for c, m in self._terms.items()])

    def __add__(self, other):
        return Divisor(list(self._terms.items()) + list(other._terms.items()))

    def __sub__(self, other):
        return Divisor(list(self._terms.items()) + [(c, -m) for c, m in other._terms.items()])

    def __neg__(self):
        return Divisor([(c, -m) for c, m in self._terms.items()])

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        if not self._terms:
            return "Divisor(0)"
        return "Divisor(" + " + ".join(f"{m}*({c})" for c, m in sorted(self._terms.items())) + ")"


def cusp_key(N: int, x: Cusp) -> tuple[int, int]:
    """Canonical name of the Gamma_1(N) cusp of x = a/c.

    The pair (c mod N, a mod gcd(c, N)), taken with whichever sign of
    (a, c) gives the smaller pair; equal keys mean equivalent cusps.
    """
    g = gcd(x.c, N)
    return min((x.c % N, x.a % g), (-x.c % N, -x.a % g))


def cusp_equivalent(N: int, x: Cusp, y: Cusp) -> bool:
    """Whether x and y lie in the same Gamma_1(N) cusp."""
    return cusp_key(N, x) == cusp_key(N, y)


def classify_cusp(N: int, x: Cusp, reps: list[Cusp]) -> int | None:
    """Index of the representative equivalent to x, or None."""
    key = cusp_key(N, x)
    for i, r in enumerate(reps):
        if cusp_key(N, r) == key:
            return i
    return None


def cusp_count(N: int) -> int:
    """Number of Gamma_1(N) cusps."""
    if N < 1:
        raise ValueError("level must be positive")
    if N < 5:
        return {1: 1, 2: 2, 3: 2, 4: 3}[N]
    return sum(_totient(d) * _totient(N // d) for d in range(1, N + 1) if N % d == 0) // 2


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def cusp_representatives(N: int) -> list[Cusp]:
    """One canonical representative per Gamma_1(N) cusp.

    Candidate coprime pairs are scanned in order of denominator, then
    numerator, and kept when inequivalent to everything found so far; the
    scan widens until the class count matches cusp_count(N).
    """
    target = cusp_count(N)
    reps: list[Cusp] = [INFINITY_CUSP]
    seen = {cusp_key(N, INFINITY_CUSP)}
    bound = N + 1
    while len(reps) < target:
        for c in range(1, bound):
            for a in range(bound):
                if gcd(a, c) != 1:
                    continue
                x = Cusp(a, c)
                key = cusp_key(N, x)
                if key not in seen:
                    seen.add(key)
                    reps.append(x)
                    if len(reps) == target:
                        return reps
        bound *= 2
    return reps
