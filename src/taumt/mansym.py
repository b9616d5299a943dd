"""Level-1 modular symbols of even weight, computed algebraically.

A symbol is determined by its value x on the path {0} - {oo}, a degree
k-2 homogeneous polynomial in X, Y subject to the two Manin relations

    x + x|S = 0,      x + x|U + x|U^2 = 0,

with S = [[0,-1],[1,0]], U = [[0,-1],[1,-1]] and the right action
(P|g)(X, Y) = P(dX - cY, -bX + aY), computed by `act` through direct
substitution.  Values on arbitrary degree-0 divisors follow by
decomposing paths into unimodular steps through continued-fraction
convergents.  Polynomials are coefficient tuples, coeffs[i] multiplying
X^i Y^(deg-i), over exact ints or Fractions.

Hecke operators act through Merel's matrices {det = l, a > b >= 0,
d > c >= 0}: T_l x = sum over the set of x|adj(h), the adjugate standing
in for the inverse that transports values.  For l = 2 the set is
[[1,0],[0,2]], [[2,0],[0,1]], [[2,1],[0,1]], [[1,0],[1,2]].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import _prime_factors
from .cusps import Cusp, Divisor
from . import linalg

S = (0, -1, 1, 0)
U = (0, -1, 1, -1)
IOTA = (-1, 0, 0, 1)


def mat_mul(g, h):
    a, b, c, d = g
    e, f, g2, h2 = h
    return (a * e + b * g2, a * f + b * h2, c * e + d * g2, c * f + d * h2)


def sl2_inverse(g):
    a, b, c, d = g
    if a * d - b * c != 1:
        raise ValueError(f"matrix {g} is not in SL_2(Z)")
    return (d, -b, -c, a)


def adjugate(g):
    a, b, c, d = g
    return (d, -b, -c, a)


def act(coeffs: tuple, g) -> tuple:
    """P|g = P(dX - cY, -bX + aY) for P given by its coefficient tuple.

    Homogeneous Horner: after j steps `out` is sum_i coeffs[deg-j+i]
    L1^i L2^(j-i) with L1 = dX - cY, L2 = -bX + aY, and `power` is L2^j.
    Any integer matrix works, not only those of determinant 1.
    """
    a, b, c, d = g
    out, power = [coeffs[-1]], [1]
    for x in reversed(coeffs[:-1]):
        power = [a * t - b * s for s, t in zip([0, *power], [*power, 0])]
        out = [d * s - c * t + x * q for s, t, q in zip([0, *out], [*out, 0], power)]
    return tuple(out)


@lru_cache(maxsize=None)
def action_matrix(g: tuple[int, int, int, int], degree: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of P -> P|g on the monomial basis X^i Y^(degree-i).

    Column j is act(e_j, g).  Only manin_space needs the matrix, for the
    rows of its nullspace, so the cache holds S, U and U^2 per weight.
    """
    basis = [tuple(int(i == j) for i in range(degree + 1)) for j in range(degree + 1)]
    return tuple(zip(*(act(e, g) for e in basis)))


@dataclass(frozen=True)
class ManinSymbol:
    """A level-1 symbol of the given weight: the value on {0} - {oo}."""

    weight: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.weight - 1:
            raise ValueError("coefficient tuple must have length weight - 1")

    @property
    def degree(self) -> int:
        return self.weight - 2

    def act(self, g) -> tuple:
        return act(self.coeffs, g)

    def relations_hold(self) -> bool:
        s_img = self.act(S)
        u_img = self.act(U)
        uu_img = self.act(mat_mul(U, U))
        two = all(x + y == 0 for x, y in zip(self.coeffs, s_img))
        three = all(x + y + z == 0 for x, y, z in zip(self.coeffs, u_img, uu_img))
        return two and three

    def scaled(self, factor) -> "ManinSymbol":
        return ManinSymbol(self.weight, tuple(factor * x for x in self.coeffs))

    def content(self) -> int:
        ints = []
        for x in self.coeffs:
            if x != int(x):
                raise ValueError("content is only defined for integral symbols")
            ints.append(int(x))
        return linalg.content(ints)


def manin_space(k: int) -> list[ManinSymbol]:
    """A primitive integral basis of the weight-k, level-1 symbol space.

    The dimension is 2 dim S_k + dim E_k: both copies of each cusp form
    and one class per Eisenstein series.
    """
    if k < 4 or k % 2:
        raise ValueError("weight must be even and at least 4")
    deg = k - 2
    dim = deg + 1
    ms = action_matrix(S, deg)
    mu = action_matrix(U, deg)
    muu = action_matrix(mat_mul(U, U), deg)
    rows = []
    for i in range(dim):
        rows.append([(1 if i == j else 0) + ms[i][j] for j in range(dim)])
    for i in range(dim):
        rows.append([(1 if i == j else 0) + mu[i][j] + muu[i][j] for j in range(dim)])
    basis = linalg.nullspace(rows)
    out = []
    for vec in basis:
        sym = ManinSymbol(k, tuple(linalg.primitive_integer_vector(vec)))
        assert sym.relations_hold()
        out.append(sym)
    return out


def _combo_basis(symbols: list[ManinSymbol], operator, shift=0) -> list[ManinSymbol]:
    """Kernel of (operator + shift) restricted to the span of symbols.

    The operator maps a coefficient tuple to the tuple of its image.
    """
    if not symbols:
        return []
    deg = symbols[0].degree
    images = [operator(sym.coeffs) for sym in symbols]
    rows = [[img[i] + shift * sym.coeffs[i] for sym, img in zip(symbols, images)] for i in range(deg + 1)]
    combos = linalg.nullspace(rows)
    out = []
    for combo in combos:
        vec = [sum(Fraction(combo[j]) * symbols[j].coeffs[i] for j in range(len(symbols)))
               for i in range(deg + 1)]
        out.append(ManinSymbol(symbols[0].weight, tuple(linalg.primitive_integer_vector(vec))))
    return out


def plus_subspace(symbols: list[ManinSymbol]) -> list[ManinSymbol]:
    """The +1 eigenspace of the involution x -> x|iota, iota = diag(-1, 1)."""
    return _combo_basis(symbols, lambda v: act(v, IOTA), shift=-1)


@lru_cache(maxsize=None)
def merel_matrices(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Merel's set for T_n: integer matrices with det n, a > b >= 0, d > c >= 0."""
    out = []
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    out.append((a, b, 0, d))
                for c in range(1, d):
                    out.append((a, 0, c, d))
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        out.append((a, b, bc // b, d))
    return tuple(out)


def _hecke(ell: int, coeffs: tuple) -> tuple:
    """T_ell on a coefficient tuple: the sum of P|adj(h) over Merel's set."""
    return tuple(map(sum, zip(*(act(coeffs, adjugate(h)) for h in merel_matrices(ell)))))


def hecke_T(ell: int, sym: ManinSymbol) -> ManinSymbol:
    """Image of the symbol under the Hecke operator T_ell."""
    image = ManinSymbol(sym.weight, _hecke(ell, sym.coeffs))
    if not image.relations_hold():
        raise RuntimeError(f"T_{ell} image broke the Manin relations; Merel set is corrupt")
    return image


@lru_cache(maxsize=None)
def delta_symbol() -> ManinSymbol:
    """The plus symbol of the weight-12 discriminant form, primitive integral.

    Cut out of the plus subspace as the T_2 = -24 eigenline and scaled to
    coprime integer coefficients; any prime-power reduction is then correct
    up to a unit of that ring.
    """
    plus = plus_subspace(manin_space(12))
    eigen = _combo_basis(plus, lambda v: _hecke(2, v), shift=24)
    if len(eigen) != 1:
        raise RuntimeError(f"T_2 = -24 eigenspace has dimension {len(eigen)}, expected 1")
    sym = eigen[0]
    assert sym.content() == 1
    return sym


# ---------------------------------------------------------------------------
# Path decomposition and evaluation


def convergents(a: int, c: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents of a/c, prefixed by (1, 0) for oo."""
    if c <= 0:
        raise ValueError("denominator must be positive")
    out = [(1, 0)]
    p0, q0 = 1, 0
    p1, q1 = None, None
    x, y = a, c
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        if p1 is None:
            p1, q1 = q, 1
        else:
            p0, q0, p1, q1 = p1, q1, q * p1 + p0, q * q1 + q0
        out.append((p1, q1))
    return out


def unimodular_path(r: Cusp) -> list[tuple[int, int, int, int]]:
    """SL_2(Z) matrices g_j with the path {oo} -> {r} equal to the chain of
    steps {g_j 0} -> {g_j oo} over j."""
    if r.is_infinity():
        return []
    conv = convergents(r.a, r.c)
    mats = []
    for j in range(1, len(conv)):
        pj, qj = conv[j]
        pj1, qj1 = conv[j - 1]
        eps = -1 if j % 2 else 1  # sign fixing det = +1
        g = (pj, eps * pj1, qj, eps * qj1)
        mats.append(g)
    return mats


def eval_symbol(sym: ManinSymbol, D: Divisor) -> tuple:
    """Value of the symbol on a degree-0 divisor, as a polynomial.

    Each {r} - {oo} is decomposed into unimodular steps; a step given by
    g contributes -x|g^(-1).
    """
    if not D.is_degree_zero():
        raise ValueError("symbol evaluation needs a degree-0 divisor")
    deg = sym.degree
    total = [0] * (deg + 1)
    for cusp, mult in D.items():
        for g in unimodular_path(cusp):
            img = act(sym.coeffs, sl2_inverse(g))
            for i in range(deg + 1):
                total[i] -= mult * img[i]
    return tuple(total)


def _eval_at_pair(coeffs, c: int, d: int) -> int:
    deg = len(coeffs) - 1
    return sum(coeffs[i] * c**i * d ** (deg - i) for i in range(deg + 1))


def eval_at_zero_one(sym: ManinSymbol, D: Divisor) -> int:
    """eval_symbol(sym, D) at (X, Y) = (0, 1), computed without transport.

    For a step matrix g with bottom row (c, d), (x|g^(-1))(0, 1) = x(c, d),
    so only point evaluations of x are needed.
    """
    if not D.is_degree_zero():
        raise ValueError("symbol evaluation needs a degree-0 divisor")
    total = 0
    for cusp, mult in D.items():
        for g in unimodular_path(cusp):
            total -= mult * _eval_at_pair(sym.coeffs, g[2], g[3])
    return total


@lru_cache(maxsize=None)
def evaluation_content(sym: ManinSymbol, p: int) -> int:
    """Exponent of p in the content of {x(c, d) : (c, d) coprime}.

    The minimum of ord_p over one full set of pairs mod p^e is exact as
    soon as it comes out below e; e grows until that happens.
    """
    e = 1
    while True:
        pe = p**e
        best = e
        for c in range(pe):
            for d in range(pe):
                if c % p == 0 and d % p == 0:
                    continue
                v = _eval_at_pair(sym.coeffs, c, d) % pe
                if v:
                    t = 0
                    while v % p == 0:
                        t += 1
                        v //= p
                    best = min(best, t)
                    if best == 0:
                        return 0
        if best < e:
            return best
        e += 1


class WeightZeroSymbol:
    """alpha_N of a symbol: the map D -> value(D)(0, 1) mod N.

    The plain map (default) is Gamma_1(N)-invariant for every N.  With
    normalize=True the exact values are first divided by the evaluation
    content at each prime of N, making the reduced map primitive; that is
    the cohomological normalization up to a unit, the right input for
    Mazur-Tate elements.  Dividing by p^t costs invariance one level of p:
    the normalized map mod p^m is invariant under Gamma_1(p^(m+t)) paths
    only (for the weight-12 symbol at p = 3 that is level 27, where its
    boundary comparison lives anyway).
    """

    def __init__(self, sym: ManinSymbol, modulus: int, normalize: bool = False):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.symbol = sym
        self.modulus = modulus
        self.scale = 1
        if normalize:
            for p in _prime_factors(modulus):
                self.scale *= p ** evaluation_content(sym, p)

    def on_divisor(self, D: Divisor) -> int:
        value = eval_at_zero_one(self.symbol, D)
        if value % self.scale:
            raise RuntimeError("evaluation content was not a uniform divisor")
        return (value // self.scale) % self.modulus

    def pair(self, r: Cusp, s: Cusp) -> int:
        """Value on {r} - {s}."""
        return self.on_divisor(Divisor.path(r, s))


def alpha_N(sym: ManinSymbol, modulus: int, normalize: bool = False) -> WeightZeroSymbol:
    """The weight-0 specialization of a symbol mod N."""
    return WeightZeroSymbol(sym, modulus, normalize)
