"""Mazur-Tate elements in (Z/p^m)[G_n] and their mu/lambda invariants.

G_n here is the Galois group of the degree-p^n subfield of the p^(n+1)
cyclotomic field, cyclic of order p^n.  A symbol's element of level n sums
its values on {oo} - {a/p^(n+1)} against the image of sigma_a, with a
running over the units mod p^(n+1); the projection sends sigma_a to
gamma^(dlog(a) mod p^n) for a fixed primitive root gamma, which is the
restriction map of Galois automorphisms in coordinates.

Writing gamma = 1 + T identifies the group ring with Z/p^m[T]/((1+T)^(p^n)-1);
mu is the minimal valuation among T-coefficients and lambda the first index
attaining it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import INFINITY, discrete_log, ord_p_truncated, primitive_root
from .boundary import BoundarySymbol
from .cusps import Cusp, INFINITY_CUSP
from .mansym import ManinSymbol, WeightZeroSymbol, alpha_N


@dataclass(frozen=True)
class GroupRingElt:
    """Element of (Z/p^m)[G_n]: coeffs[i] multiplies gamma^i."""

    p: int
    n: int
    m: int
    coeffs: tuple[int, ...]
    generator: int

    def __post_init__(self):
        if len(self.coeffs) != self.p**self.n:
            raise ValueError("coefficient vector must have length p^n")

    def scaled(self, u: int) -> "GroupRingElt":
        pm = self.p**self.m
        return GroupRingElt(self.p, self.n, self.m, tuple(u * c % pm for c in self.coeffs), self.generator)


@dataclass(frozen=True)
class TPoly:
    """The same element written in the T = gamma - 1 basis."""

    p: int
    n: int
    m: int
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class IwasawaInvariants:
    mu: int | float
    lam: int | float
    precision_ok: bool


def _values_at_level(source, p: int, n: int, m: int):
    """Map a -> source value on {oo} - {a/p^(n+1)}, reduced mod p^m."""
    pm = p**m
    modulus = p ** (n + 1)
    if isinstance(source, BoundarySymbol):
        if source.ring.p != p or source.ring.m < m:
            raise ValueError(
                f"boundary symbol lives in Z/{source.ring.n}, cannot reduce to Z/{pm}"
            )
        vinf = source.value(INFINITY_CUSP)
        return lambda a: (vinf - source.value(Cusp(a, modulus))) % pm
    if isinstance(source, ManinSymbol):
        source = alpha_N(source, pm, normalize=True)
    if isinstance(source, WeightZeroSymbol):
        if source.modulus % pm:
            raise ValueError(f"weight-0 symbol mod {source.modulus} cannot reduce to Z/{pm}")
        return lambda a: source.pair(INFINITY_CUSP, Cusp(a, modulus)) % pm
    raise TypeError(f"cannot build Mazur-Tate elements from {type(source).__name__}")


def mazur_tate(source, p: int, n: int, m: int, generator: int | None = None) -> GroupRingElt:
    """Level-n Mazur-Tate element of a boundary symbol or a Manin symbol.

    coeffs[i] collects the values over the units a mod p^(n+1) whose
    discrete log falls in the class i mod p^n.
    """
    if n < 1 or m < 1:
        raise ValueError("level and precision must be at least 1")
    value_at = _values_at_level(source, p, n, m)
    modulus = p ** (n + 1)
    g = primitive_root(p, n) if generator is None else generator
    pn = p**n
    pm = p**m
    coeffs = [0] * pn
    for a in range(1, modulus):
        if a % p == 0:
            continue
        i = discrete_log(a, g, modulus) % pn
        coeffs[i] = (coeffs[i] + value_at(a)) % pm
    return GroupRingElt(p, n, m, tuple(coeffs), g)


def to_T_basis(F: GroupRingElt) -> TPoly:
    """Expand sum c_j gamma^j as a polynomial in T = gamma - 1.

    gamma^j = (1 + T)^j gives a_i = sum_j c_j C(j, i), accumulated through
    one pass of Pascal's triangle mod p^m.
    """
    pm = F.p**F.m
    length = len(F.coeffs)
    out = [0] * length
    row = [1]
    for j, cj in enumerate(F.coeffs):
        if cj:
            for i, binom in enumerate(row):
                out[i] = (out[i] + cj * binom) % pm
        if j + 1 < length:
            row = [1] + [(row[t] + row[t + 1]) % pm for t in range(j)] + [1]
    return TPoly(F.p, F.n, F.m, tuple(out))


def from_T_basis(F: TPoly, generator: int | None = None) -> GroupRingElt:
    """Inverse transform: T^i = (gamma - 1)^i expanded in the group basis."""
    pm = F.p**F.m
    length = len(F.coeffs)
    out = [0] * length
    row = [1]  # signed binomials of (gamma - 1)^i: C(i, j) (-1)^(i - j)
    for i, ai in enumerate(F.coeffs):
        if ai:
            for j, binom in enumerate(row):
                out[j] = (out[j] + ai * binom * (-1) ** (i - j)) % pm
        if i + 1 < length:
            row = [1] + [(row[t] + row[t + 1]) % pm for t in range(i)] + [1]
    g = primitive_root(F.p, F.n) if generator is None else generator
    return GroupRingElt(F.p, F.n, F.m, tuple(out), g)


def invariants(F: TPoly | GroupRingElt) -> IwasawaInvariants:
    """mu and lambda of an element at precision p^m.

    mu is exact when it comes out below m (precision_ok); the zero element
    reports (inf, inf, False) since nothing is visible at this precision.
    """
    if isinstance(F, GroupRingElt):
        F = to_T_basis(F)
    p, m = F.p, F.m
    ords = [ord_p_truncated(a, p, m) for a in F.coeffs]
    mu = min(ords)
    if mu >= m:
        return IwasawaInvariants(INFINITY, INFINITY, False)
    lam = ords.index(mu)
    return IwasawaInvariants(mu, lam, True)


def fit_global_unit(ours: list[int], reference: list[int], p: int, m: int) -> int | None:
    """A unit u with ours = u * reference mod p^m entrywise, or None."""
    pm = p**m
    for u in range(1, pm):
        if u % p == 0:
            continue
        if all((x - u * y) % pm == 0 for x, y in zip(ours, reference)):
            return u
    return None
