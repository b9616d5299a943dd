"""q-expansions and congruence scanners.

The tau function is expanded exactly by cubing Jacobi's sparse series for
the eta-cube and squaring; polynomial products run through Kronecker
substitution in base 10^w on exact Decimals, which the C decimal module
multiplies by a number-theoretic transform: one product per squaring.

Eisenstein coefficients are divisor sums c_n = sum_{d|n} psi(n/d) chi(d)
d^(k-1); the scanners compare them against tau residues.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_FLOOR, Context, Decimal
from math import gcd, isqrt

from .arith import DirichletCharacter, ResidueRing, bernoulli

# every operation below is exact in this context
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _kronecker(coeffs: list[int], width: int) -> Decimal:
    """sum c_i 10^(width i) as an exact Decimal, given 2 max|c_i| < 10^width.

    Packs the digit runs c_i + max|c|, most significant first and 512 at a
    time, then takes max|c| (1 + 10^width + 10^(2 width) + ...) off again.
    """
    bias = max(map(abs, coeffs))
    fmt = f"%0{width}d"
    top = coeffs[::-1]
    chunks = (top[i:i + 512] for i in range(0, len(top), 512))
    packed = Decimal("".join((fmt * len(chunk)) % tuple(c + bias for c in chunk) for chunk in chunks))
    return _EXACT.subtract(packed, _EXACT.multiply(bias, Decimal("1".zfill(width) * len(coeffs))))


def poly_mul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of integer polynomials, truncated to degree n.

    Exact at any size; only a slot wider than the int/str digit limit
    (sys.get_int_max_str_digits) raises OverflowError, before any work.
    """
    la = min(len(a), n + 1)
    lb = min(len(b), n + 1)
    length = min(la + lb - 1, n + 1)
    bound = min(la, lb) * max(map(abs, a[:la]), default=0) * max(map(abs, b[:lb]), default=0)
    if bound <= 0:  # an empty or all-zero operand, or n < 0
        return [0] * length
    # width digits hold 2 * bound (30103 / 10^5 > log10 2), so |c_k| < half
    width = (2 * bound).bit_length() * 30103 // 100000 + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and width > limit:
        raise OverflowError(f"a {width}-digit coefficient slot exceeds the int/str digit limit of {limit}")
    x = _kronecker(a[:la], width)
    half = 5 * 10 ** (width - 1)
    # half in every slot makes the low `length` slots of the product plain
    # digit runs c_k + half; ROUND_FLOOR keeps that residue non-negative
    prod = _EXACT.fma(x, x if a is b else _kronecker(b[:lb], width), Decimal(str(half) * length))
    low = _EXACT.subtract(prod, prod.quantize(Decimal(f"1E{length * width}"), ROUND_FLOOR, _EXACT))
    digits = format(low, "f").zfill(length * width)
    return [int(digits[i - width:i]) - half for i in range(length * width, 0, -width)]


def tau_expansion(n_max: int) -> list[int]:
    """tau(0..n_max) as exact integers (tau(0) = 0, tau(1) = 1).

    Expands q prod (1-q^n)^24 as ((eta-cube)^2)^2)^2 where the eta-cube
    series sum (-1)^k (2k+1) q^(k(k+1)/2) is sparse.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    f = [0] * n_max
    k = 0
    while k * (k + 1) // 2 < n_max:
        f[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    g = poly_mul_trunc(f, f, n_max - 1)
    g = poly_mul_trunc(g, g, n_max - 1)
    g = poly_mul_trunc(g, g, n_max - 1)
    return [0] + g[:n_max]


def eisenstein_coeffs(
    k: int,
    psi: DirichletCharacter,
    chi: DirichletCharacter,
    n_max: int,
    ring: ResidueRing,
) -> list[int]:
    """Coefficients c_0..c_n_max of the Eisenstein series attached to (k, psi, chi).

    c_n = sum_{d|n} psi(n/d) chi(d) d^(k-1) for n >= 1, reduced into the
    ring.  The constant term is 0 when psi lives on a modulus > 1, and
    -B_k/2k for the modulus-1 pair with trivial chi.
    """
    if k < 1:
        raise ValueError("weight must be positive")
    if psi.parity() * chi.parity() != (-1) ** k:
        raise ValueError("parity violation: psi*chi(-1) must equal (-1)^k")
    if psi.modulus == 1 and chi.modulus == 1 and k == 2:
        raise ValueError("weight 2 with both characters trivial is not a modular form")
    if psi.modulus == 1 and chi.modulus > 1:
        # the constant term would be a generalized Bernoulli number (or a
        # p-stabilized variant for the imprimitive trivial character)
        raise NotImplementedError("constant terms for modulus-1 psi with nontrivial-modulus chi are not supported")
    coeffs = _divisor_sums(k, psi, chi, n_max, ring)
    if psi.modulus == 1:
        c0 = -bernoulli(k) / (2 * k)
        num, den = c0.numerator, c0.denominator
        if gcd(den, ring.n) != 1:
            raise NotImplementedError(
                f"constant term {c0} is not integral in Z/{ring.n}"
            )
        coeffs[0] = num * ring.inverse(den % ring.n) % ring.n
    return coeffs


def _divisor_sums(k, psi, chi, n_max, ring) -> list[int]:
    """Raw divisor sums in the ring, constant term 0, no admissibility checks."""
    n = ring.n
    psi_vals = [psi(x) % n for x in range(psi.modulus)]
    chi_vals = [chi(x) % n for x in range(chi.modulus)]
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        cd = chi_vals[d % chi.modulus] * pow(d, k - 1, n) % n
        if cd == 0:
            continue
        for nn in range(d, n_max + 1, d):
            pv = psi_vals[(nn // d) % psi.modulus]
            if pv:
                out[nn] = (out[nn] + pv * cd) % n
    return out


def coeffs_from_prime_data(
    prime_coeffs: dict[int, int],
    k: int,
    chi: DirichletCharacter,
    n_max: int,
) -> list[int]:
    """Rebuild an eigenform expansion from prime coefficients.

    Uses multiplicativity on coprime indices and the recursion
    c(p^(r+1)) = c(p) c(p^r) - chi(p) p^(k-1) c(p^(r-1)) at prime powers.
    Exact integers throughout.
    """
    out = [0] * (n_max + 1)
    if n_max >= 1:
        out[1] = 1
    smallest = _smallest_prime_factors(n_max)
    for n in range(2, n_max + 1):
        p = smallest[n]
        pe = p
        while (n // pe) % p == 0:
            pe *= p
        if pe == n:
            e = 0
            t = n
            while t > 1:
                t //= p
                e += 1
            if p not in prime_coeffs:
                raise ValueError(f"missing coefficient for prime {p}")
            cp = prime_coeffs[p]
            if e == 1:
                out[n] = cp
            else:
                out[n] = cp * out[n // p] - chi(p) * p ** (k - 1) * out[n // (p * p)]
        else:
            out[n] = out[pe] * out[n // pe]
    return out


def _smallest_prime_factors(n_max: int) -> list[int]:
    spf = list(range(n_max + 1))
    for i in range(2, isqrt(n_max) + 1):
        if spf[i] == i:
            for j in range(i * i, n_max + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = b"\x00" * len(range(i * i, n + 1, i))
    return [i for i in range(n + 1) if sieve[i]]


# Admissible (a, b+k) classes for the tau congruence mod p: pairs
# (a, residue of b+k mod p-1).
ADMISSIBLE_CLASSES = {
    3: ((1, 3), (2, 2)),
    5: ((1, 3), (2, 2)),
    7: ((1, 5), (4, 2)),
}


def is_admissible(p: int, k: int, a: int, b: int) -> bool:
    if p not in ADMISSIBLE_CLASSES:
        return False
    return any(
        a % (p - 1) == aa % (p - 1) and (b + k) % (p - 1) == r % (p - 1)
        for aa, r in ADMISSIBLE_CLASSES[p]
    )


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of a tau-vs-Eisenstein coefficient scan."""

    p: int
    k: int
    a: int
    b: int
    bound: int
    admissible: bool
    ok: bool
    first_failure: tuple[int, int, int] | None  # (n, tau mod p, c_n)

    def __str__(self):
        head = f"tau(n) = c(k={self.k}, a={self.a}, b={self.b}; n) mod {self.p}, n <= {self.bound}"
        if self.ok:
            return f"{head}: holds"
        n, t, c = self.first_failure
        return f"{head}: fails at n={n} ({t} != {c})"


def verify_tau_congruence(
    p: int,
    k: int,
    a: int,
    b: int,
    n_max: int,
    tau: list[int] | None = None,
) -> CongruenceReport:
    """Scan tau(n) = c_{k,a,b,n} mod p for n <= n_max.

    Inadmissible (a, b, k) are scanned all the same and flagged; the first
    counterexample, if any, is reported.
    """
    if tau is None or len(tau) <= n_max:
        tau = tau_expansion(n_max)
    ring = ResidueRing(p, 1)
    psi = DirichletCharacter.teichmuller_power(p, a, 1)
    chi = DirichletCharacter.teichmuller_power(p, b, 1)
    coeffs = _divisor_sums(k, psi, chi, n_max, ring)
    failure = None
    for n in range(1, n_max + 1):
        if (tau[n] - coeffs[n]) % p:
            failure = (n, tau[n] % p, coeffs[n])
            break
    return CongruenceReport(p, k, a, b, n_max, is_admissible(p, k, a, b), failure is None, failure)


def admissible_sweep(p: int, k_max: int, n_max: int, tau: list[int] | None = None) -> list[CongruenceReport]:
    """Scan every admissible (a, b, k) with 2 <= k <= k_max, 0 <= b < p-1."""
    if tau is None or len(tau) <= n_max:
        tau = tau_expansion(n_max)
    reports = []
    for a, r in ADMISSIBLE_CLASSES[p]:
        for k in range(2, k_max + 1):
            b = (r - k) % (p - 1)
            reports.append(verify_tau_congruence(p, k, a, b, n_max, tau))
    return reports


# The three prime-indexed tau congruences: tau(l) = l^e1 + l^e2 mod q.
SERRE_CONGRUENCES = ((27, 2, 9), (25, 1, 10), (7, 1, 4))


@dataclass(frozen=True)
class SerreReport:
    modulus: int
    e1: int
    e2: int
    bound: int
    ok: bool
    first_failure: int | None


def verify_serre_congruences(
    bound: int,
    tau: list[int] | None = None,
    congruences=SERRE_CONGRUENCES,
) -> list[SerreReport]:
    """Check tau(l) = l^e1 + l^e2 mod q at every prime l <= bound."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if tau is None or len(tau) <= bound:
        tau = tau_expansion(bound)
    primes = primes_up_to(bound)
    out = []
    for q, e1, e2 in congruences:
        bad = next((l for l in primes if (tau[l] - pow(l, e1, q) - pow(l, e2, q)) % q), None)
        out.append(SerreReport(q, e1, e2, bound, bad is None, bad))
    return out
