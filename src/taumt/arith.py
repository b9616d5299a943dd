"""Residue-ring arithmetic: valuations, Teichmuller lifts, discrete logs,
Bernoulli numbers, and Dirichlet characters on prime-power moduli.

Everything here is exact.  Residue classes are plain ints reduced into
[0, p^m); the ring they live in is carried separately as a ResidueRing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

INFINITY = float("inf")


def ord_p(x: int, p: int) -> int | float:
    """p-adic valuation of the integer x, with ord_p(0) = INFINITY."""
    if p < 2:
        raise ValueError(f"not a prime: {p}")
    if x == 0:
        return INFINITY
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def ord_p_truncated(x: int, p: int, m: int) -> int:
    """Valuation of x seen inside Z/p^m: min(ord_p(x), m).

    A return value of m means the residue is 0 mod p^m, so the true
    valuation is unobservable at this precision (saturated).
    """
    x %= p**m
    if x == 0:
        return m
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def primitive_root(p: int, n: int = 0) -> int:
    """Smallest positive generator of (Z/p^(n+1)Z)^x for an odd prime p."""
    if p == 2 or _prime_factors(p) != [p]:
        raise ValueError(f"p must be an odd prime, got {p}")
    modulus = p ** (n + 1)
    order = (p - 1) * p**n
    factors = _prime_factors(order)
    g = 2
    while True:
        if g % p and all(pow(g, order // q, modulus) != 1 for q in factors):
            return g
        g += 1


@lru_cache(maxsize=None)
def _dlog_table(g: int, modulus: int) -> dict[int, int]:
    table = {}
    cur = 1 % modulus
    e = 0
    while cur not in table:
        table[cur] = e
        cur = cur * g % modulus
        e += 1
    return table


def discrete_log(a: int, g: int, modulus: int) -> int:
    """The exponent e in [0, ord(g)) with g^e = a mod modulus.

    The full power table of g is built once per (g, modulus) and cached;
    the moduli in this package are at most a few thousand.
    """
    if gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    table = _dlog_table(g, modulus)
    try:
        return table[a % modulus]
    except KeyError:
        raise ValueError(f"{g} does not generate {a} mod {modulus}") from None


def teichmuller(a: int, p: int, m: int = 1) -> int:
    """The unique (p-1)-th root of unity in Z/p^m congruent to a mod p.

    Computed by the closed form a^(p^(m-1)) mod p^m.
    """
    if a % p == 0:
        raise ValueError(f"{a} is divisible by {p}")
    return pow(a, p ** (m - 1), p**m)


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """Classical Bernoulli number B_k (B_1 = -1/2 convention)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    while len(_BERNOULLI) <= k:
        j = len(_BERNOULLI)
        acc = sum(comb(j + 1, i) * _BERNOULLI[i] for i in range(j))
        _BERNOULLI.append(Fraction(-acc, j + 1))
    return _BERNOULLI[k]


class ResidueRing:
    """The ring Z/p^m with p prime, elements represented as canonical ints."""

    __slots__ = ("p", "m", "n")

    def __init__(self, p: int, m: int = 1):
        if _prime_factors(p) != [p] or m < 1:
            raise ValueError(f"bad residue ring parameters ({p}, {m}): need a prime p and m >= 1")
        self.p = p
        self.m = m
        self.n = p**m

    def reduce(self, x: int) -> int:
        return x % self.n

    def inverse(self, x: int) -> int:
        return pow(x, -1, self.n)

    def units(self) -> list[int]:
        return [x for x in range(1, self.n) if x % self.p]

    def ord(self, x: int) -> int:
        """Truncated valuation of x inside the ring (m when x = 0)."""
        return ord_p_truncated(x, self.p, self.m)

    def teichmuller(self, a: int) -> int:
        return teichmuller(a, self.p, self.m)

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((ResidueRing, self.p, self.m))

    def __repr__(self):
        return f"ResidueRing({self.p}, {self.m})"


@dataclass(frozen=True)
class DirichletCharacter:
    """Dirichlet character stored as an explicit value table on Z/modulus.

    values[a % modulus] is the value at a, an int in the target ring (or an
    exact integer for the modulus-1 trivial character).  The value is 0
    exactly at the non-units.  The conductor records the smallest modulus
    the character factors through.
    """

    modulus: int
    conductor: int
    values: tuple[int, ...]
    ring: ResidueRing | None = None

    def __post_init__(self):
        if len(self.values) != self.modulus:
            raise ValueError("value table length must equal the modulus")

    def __call__(self, a: int) -> int:
        return self.values[a % self.modulus]

    def parity(self) -> int:
        """chi(-1), as +1 or -1."""
        v = self(-1)
        if v == 1:
            return 1
        if self.ring is not None and v == self.ring.n - 1:
            return -1
        if v == -1:
            return -1
        raise ValueError("character value at -1 is not +-1")

    def inverse(self) -> "DirichletCharacter":
        """The character a -> chi(a)^(-1) on units."""
        if self.ring is None:
            return self
        inv = tuple(self.ring.inverse(v) if v else 0 for v in self.values)
        return DirichletCharacter(self.modulus, self.conductor, inv, self.ring)

    @staticmethod
    def trivial() -> "DirichletCharacter":
        """The conductor-1 character, identically 1."""
        return DirichletCharacter(1, 1, (1,), None)

    @staticmethod
    def teichmuller_power(p: int, a: int, m: int = 1) -> "DirichletCharacter":
        """omega_p^a as a character of modulus p with values in Z/p^m.

        For a = 0 mod p-1 this is the trivial character realized mod p, so
        it still vanishes on multiples of p.
        """
        ring = ResidueRing(p, m)
        values = [0] * p
        for x in range(1, p):
            values[x] = pow(ring.teichmuller(x), a, ring.n)
        conductor = 1 if a % (p - 1) == 0 else p
        return DirichletCharacter(p, conductor, tuple(values), ring)
