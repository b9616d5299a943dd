"""Mazur-Tate elements in (Z/p^m)[G_n] and their mu/lambda invariants.

G_n here is the Galois group of the degree-p^n subfield of the p^(n+1)
cyclotomic field, cyclic of order p^n.  A symbol's element of level n sums
its values on {oo} - {a/p^(n+1)} against the image of sigma_a, with a
running over the units mod p^(n+1); the projection sends sigma_a to
gamma^(e mod p^n), where a = g^e for a fixed primitive root g, which is
the restriction map of Galois automorphisms in coordinates.

Writing gamma = 1 + T identifies the group ring with Z/p^m[T]/((1+T)^(p^n)-1);
mu is the minimal valuation among T-coefficients and lambda the first index
attaining it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import INFINITY, is_primitive_root, ord_p_truncated, primitive_root
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

    Walks the units a = g^e mod p^(n+1) in the order of their exponent e,
    so coeffs[e mod p^n] collects the value at g^e.
    """
    if n < 1 or m < 1:
        raise ValueError("level and precision must be at least 1")
    g = primitive_root(p, n) if generator is None else generator
    if not is_primitive_root(g, p, n):
        raise ValueError(f"{g} does not generate the units mod {p}^{n + 1}")
    value_at = _values_at_level(source, p, n, m)
    modulus = p ** (n + 1)
    pn = p**n
    pm = p**m
    coeffs = [0] * pn
    a = 1
    for e in range((p - 1) * pn):
        i = e % pn
        coeffs[i] = (coeffs[i] + value_at(a)) % pm
        a = a * g % modulus
    return GroupRingElt(p, n, m, tuple(coeffs), g)


def _taylor_shift(coeffs: tuple[int, ...], s: int, pm: int) -> tuple[int, ...]:
    """Coefficients of sum c_j (X + s)^j mod pm, by Horner's rule."""
    out: list[int] = []
    for c in reversed(coeffs):
        out = [(s * hi + lo) % pm for hi, lo in zip(out + [0], [c] + out)]
    return tuple(out)


def to_T_basis(F: GroupRingElt) -> TPoly:
    """Expand sum c_j gamma^j as a polynomial in T: gamma = T + 1."""
    return TPoly(F.p, F.n, F.m, _taylor_shift(F.coeffs, 1, F.p**F.m))


def from_T_basis(F: TPoly, generator: int | None = None) -> GroupRingElt:
    """Inverse transform: T = gamma - 1, expanded in the group basis."""
    g = primitive_root(F.p, F.n) if generator is None else generator
    return GroupRingElt(F.p, F.n, F.m, _taylor_shift(F.coeffs, -1, F.p**F.m), g)


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
