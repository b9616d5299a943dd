import random
import sys

import pytest

from taumt.arith import DirichletCharacter, ResidueRing
from taumt.qseries import (
    _divisor_sums,
    admissible_sweep,
    coeffs_from_prime_data,
    eisenstein_coeffs,
    is_admissible,
    poly_mul_trunc,
    primes_up_to,
    tau_expansion,
    verify_serre_congruences,
    verify_tau_congruence,
)


def naive_tau(n_max):
    """Direct expansion of q prod (1-q^n)^24, no Kronecker shortcut."""
    series = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        # multiply by (1 - q^n)^24 one factor at a time
        for _ in range(24):
            for i in range(n_max, n - 1, -1):
                series[i] -= series[i - n]
    return [0] + series[: n_max]


def test_tau_matches_naive_expansion():
    assert tau_expansion(40) == naive_tau(40)


def test_tau_small_values():
    tau = tau_expansion(10)
    assert tau[0] == 0 and tau[1] == 1
    assert tau[2] == -24 and tau[3] == 252 and tau[5] == 4830
    assert tau[4] == tau[2] ** 2 - 2 ** 11  # -1472 by the Hecke recursion


def test_tau_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        tau_expansion(0)


# The kernel before the decimal one: Kronecker substitution on Python ints
# with a fixed 128-bit slot, kept verbatim as a reference.
_SHIFT = 128  # bits per coefficient slot; |coeff| must stay below 2^127
_BPER = _SHIFT // 8


def _encode(coeffs: list[int]) -> int:
    half = 1 << (_SHIFT - 1)
    pos = bytearray(len(coeffs) * _BPER)
    neg = bytearray(len(coeffs) * _BPER)
    for i, c in enumerate(coeffs):
        if not -half < c < half:
            raise OverflowError(f"coefficient {c} exceeds the {_SHIFT}-bit digit slot")
        if c > 0:
            pos[i * _BPER:(i + 1) * _BPER] = c.to_bytes(_BPER, "little")
        elif c < 0:
            neg[i * _BPER:(i + 1) * _BPER] = (-c).to_bytes(_BPER, "little")
    return int.from_bytes(bytes(pos), "little") - int.from_bytes(bytes(neg), "little")


def _decode(n: int, length: int) -> list[int]:
    half = 1 << (_SHIFT - 1)
    base = 1 << _SHIFT
    total = length * _BPER
    raw = (n & ((1 << (8 * total)) - 1)).to_bytes(total, "little")
    out = []
    carry = 0
    for i in range(length):
        d = int.from_bytes(raw[i * _BPER:(i + 1) * _BPER], "little") + carry
        if d >= half:
            d -= base
            carry = 1
        else:
            carry = 0
        out.append(d)
    return out


def reference_poly_mul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of integer polynomials, truncated to degree n."""
    la = min(len(a), n + 1)
    lb = min(len(b), n + 1)
    bound = min(la, lb) * max(map(abs, a[:la]), default=0) * max(map(abs, b[:lb]), default=0)
    if bound >= 1 << (_SHIFT - 1):
        raise OverflowError("product coefficients may not fit the digit slots; reduce the bound")
    prod = _encode(a[:la]) * _encode(b[:lb])
    return _decode(prod, min(la + lb - 1, n + 1))


def schoolbook(a, b, n):
    a, b = a[: n + 1], b[: n + 1]
    out = [0] * max(min(len(a) + len(b) - 1, n + 1), 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] += x * y
    return out


def test_poly_mul_overflow_guard():
    # the old 128-bit slot refused this pair; any slot width is exact now
    assert poly_mul_trunc([1 << 120, 1], [1 << 120, 1], 2) == [1 << 240, 1 << 121, 1]
    limit = sys.get_int_max_str_digits()
    if limit:
        huge = [10 ** limit, 1]
        with pytest.raises(OverflowError):
            poly_mul_trunc(huge, huge, 2)
        just_below = [10 ** (limit // 2 - 4), -1]
        assert poly_mul_trunc(just_below, just_below, 2) == schoolbook(just_below, just_below, 2)


def test_kernel_matches_the_128_bit_reference():
    rng = random.Random(26)
    for _ in range(200):
        la, lb = rng.randrange(1, 40), rng.randrange(1, 40)
        # min(la, lb) * 2^60 * 2^60 stays inside the reference's 127 bits
        a = [rng.randrange(-2**60, 2**60) for _ in range(la)]
        b = [rng.randrange(-2**60, 2**60) for _ in range(lb)]
        n = rng.randrange(0, la + lb + 5)
        assert poly_mul_trunc(a, b, n) == reference_poly_mul_trunc(a, b, n)


def test_tau_expansion_matches_the_128_bit_reference():
    n_max = 5000
    f = [0] * n_max
    k = 0
    while k * (k + 1) // 2 < n_max:
        f[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    g = f
    for _ in range(3):
        g = reference_poly_mul_trunc(g, g, n_max - 1)
    assert tau_expansion(n_max) == [0] + g


def test_poly_mul_trunc_against_schoolbook():
    rng = random.Random(3)
    for bits in (0, 1, 60, 200, 1000):
        for la in range(0, 61, 4):
            lb = rng.randrange(0, 61)
            a = [rng.randrange(-(1 << bits), (1 << bits) + 1) for _ in range(la)]
            b = [rng.randrange(-(1 << bits), (1 << bits) + 1) for _ in range(lb)]
            # n below, at and above la + lb - 1
            for n in {0, rng.randrange(0, max(la + lb - 1, 1)), la + lb - 2, la + lb - 1, la + lb + 7}:
                if n >= 0:
                    assert poly_mul_trunc(a, b, n) == schoolbook(a, b, n), (bits, la, lb, n)
    # a product whose top slots are zero must not shift the digits it keeps
    a = [1, 1, 0, 1, -1, -1, 1, 1, -2, -2, 1, -1, -2, 1]
    b = [-2, 0, 0, 0, 0, -2]
    for n in range(0, 25):
        assert poly_mul_trunc(a, b, n) == schoolbook(a, b, n)
    # here the slot is 4 digits and the top slot reads -4032 + 5000 = 968,
    # one digit short, which must not shift the slots below it
    assert poly_mul_trunc([0, 64], [-63], 1) == [0, -4032]
    assert poly_mul_trunc([], [1, 2, 3], 5) == [0, 0]
    assert poly_mul_trunc([0, 0], [1, 2, 3], 5) == [0, 0, 0, 0]


def test_square_of_one_list_equals_product_with_a_copy():
    rng = random.Random(5)
    for bits in (1, 60, 300):
        for length in (1, 2, 17, 600):
            a = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(length)]
            for n in (0, length // 2, 2 * length):
                assert poly_mul_trunc(a, a, n) == poly_mul_trunc(a, list(a), n)


def test_long_product_holds_at_seeded_points_mod_two_primes():
    rng = random.Random(7)
    size = 20_000
    a = [rng.randrange(-2**80, 2**80) for _ in range(size)]
    b = [rng.randrange(-2**80, 2**80) for _ in range(size)]
    r = poly_mul_trunc(a, b, 2 * size)
    assert len(r) == 2 * size - 1
    for q in (2**61 - 1, 2**31 - 1):
        for _ in range(3):
            x = rng.randrange(q)
            value = [0, 0, 0]
            for k, poly in enumerate((a, b, r)):
                for c in reversed(poly):
                    value[k] = (value[k] * x + c) % q
            assert value[0] * value[1] % q == value[2]


def test_tau_is_sigma_11_mod_691(tau10k):
    ring = ResidueRing(691, 1)
    one = DirichletCharacter.trivial()
    sigma11 = _divisor_sums(12, one, one, 10_000, ring)
    assert all((t - s) % 691 == 0 for t, s in zip(tau10k[1:], sigma11[1:]))


def test_tau_multiplicativity_via_prime_data(tau10k):
    tau = tau10k
    primes = {p: tau[p] for p in primes_up_to(10_000)}
    rebuilt = coeffs_from_prime_data(primes, 12, DirichletCharacter.trivial(), 10_000)
    assert rebuilt == tau


def test_coeffs_from_prime_data_basics():
    chi = DirichletCharacter.trivial()
    out = coeffs_from_prime_data({2: -24, 3: 252, 5: 4830}, 12, chi, 6)
    assert out[1] == 1
    assert out[6] == out[2] * out[3]
    with pytest.raises(ValueError):
        coeffs_from_prime_data({2: -24}, 12, chi, 9)


def test_eisenstein_examples_mod5():
    ring = ResidueRing(5, 1)
    psi = DirichletCharacter.teichmuller_power(5, 2, 1)
    one = DirichletCharacter.trivial()
    coeffs = eisenstein_coeffs(2, psi, one, 10, ring)
    assert coeffs[0] == 0  # modulus of psi is 5 > 1
    assert coeffs[2] == 1  # omega^2(2) + 2 = 6
    assert coeffs[6] == 2


def test_eisenstein_example_mod7():
    ring = ResidueRing(7, 1)
    psi = DirichletCharacter.teichmuller_power(7, 4, 1)
    coeffs = eisenstein_coeffs(2, psi, DirichletCharacter.trivial(), 5, ring)
    assert coeffs[3] == 0  # 3^4 + 3 = 84


def test_eisenstein_classical_constant_term():
    # E_4 with both characters trivial: constant term -B_4/8 = 1/240
    ring = ResidueRing(7, 1)
    one = DirichletCharacter.trivial()
    coeffs = eisenstein_coeffs(4, one, one, 8, ring)
    assert coeffs[0] == pow(240, -1, 7)
    assert coeffs[1] == 1
    assert coeffs[6] == (1 + 8 + 27 + 216) % 7  # sigma_3(6)


def test_eisenstein_rejects_bad_input():
    ring = ResidueRing(5, 1)
    one = DirichletCharacter.trivial()
    psi = DirichletCharacter.teichmuller_power(5, 1, 1)  # odd character
    with pytest.raises(ValueError):
        eisenstein_coeffs(2, psi, one, 5, ring)  # parity violation
    with pytest.raises(ValueError):
        eisenstein_coeffs(2, one, one, 5, ring)  # the excluded weight-2 case
    chi5 = DirichletCharacter.teichmuller_power(5, 2, 1)
    with pytest.raises(NotImplementedError):
        eisenstein_coeffs(2, one, chi5, 5, ring)  # would need a generalized Bernoulli number
    triv5 = DirichletCharacter.teichmuller_power(5, 0, 1)
    with pytest.raises(NotImplementedError):
        eisenstein_coeffs(4, one, triv5, 5, ring)  # imprimitive chi shifts the constant term


def test_eisenstein_multiplicative_on_coprime_indices():
    rng = random.Random(4)
    cases = [(5, 2, 0, 2), (7, 4, 0, 2), (3, 1, 1, 2), (5, 1, 2, 4), (7, 1, 4, 12)]
    for p, a, b, k in cases:
        ring = ResidueRing(p, 1)
        psi = DirichletCharacter.teichmuller_power(p, a, 1)
        chi = DirichletCharacter.teichmuller_power(p, b, 1)
        if psi.parity() * chi.parity() != (-1) ** k:
            continue
        coeffs = eisenstein_coeffs(k, psi, chi, 1000, ring)
        for _ in range(200):
            m = rng.randrange(1, 40)
            n = rng.randrange(1, 25)
            if m * n > 1000:
                continue
            from math import gcd
            if gcd(m, n) == 1:
                assert coeffs[m * n] == coeffs[m] * coeffs[n] % p


def test_theorem_A_examples(tau10k):
    assert verify_tau_congruence(5, 2, 2, 0, 10_000, tau10k).ok
    assert verify_tau_congruence(7, 2, 4, 0, 10_000, tau10k).ok
    assert verify_tau_congruence(3, 2, 2, 0, 10_000, tau10k).ok


def test_inadmissible_class_fails_fast(tau10k):
    rep = verify_tau_congruence(5, 2, 1, 0, 100, tau10k)
    assert not rep.admissible
    assert not rep.ok
    assert rep.first_failure is not None
    n, t, c = rep.first_failure
    assert (tau10k[n] - c) % 5 != 0


def test_admissibility_table():
    assert is_admissible(5, 2, 2, 0)
    assert is_admissible(7, 2, 4, 0)
    assert is_admissible(3, 2, 2, 0)
    assert not is_admissible(5, 2, 1, 0)
    assert is_admissible(5, 3, 1, 0)  # b + k = 3


def test_admissible_sweep_small(tau10k):
    for p in (3, 5, 7):
        reports = admissible_sweep(p, 20, 1000, tau10k)
        assert reports, "sweep must be nonempty"
        assert all(r.admissible for r in reports)
        assert all(r.ok for r in reports)


def test_serre_congruence_values(tau10k):
    # spot values: tau(2) = -24 = 2^2 + 2^9 mod 27, tau(3) = 3 + 3^10 mod 25,
    # tau(7) = 0 = 7 + 7^4 mod 7
    assert (tau10k[2] - (2 ** 2 + 2 ** 9)) % 27 == 0
    assert (tau10k[3] - (3 + 3 ** 10)) % 25 == 0
    assert (tau10k[7] - (7 + 7 ** 4)) % 7 == 0
    for rep in verify_serre_congruences(500, tau10k):
        assert rep.ok
