import random
from fractions import Fraction
from math import gcd

import pytest

from taumt.arith import (
    INFINITY,
    DirichletCharacter,
    ResidueRing,
    bernoulli,
    discrete_log,
    ord_p,
    ord_p_truncated,
    primitive_root,
    teichmuller,
)


def test_ord_p_examples():
    assert ord_p(45, 3) == 2
    assert ord_p(0, 5) == INFINITY
    assert ord_p(-24, 5) == 0


def test_ord_p_truncated_saturates():
    assert ord_p_truncated(18, 3, 2) == 2
    assert ord_p_truncated(27, 3, 2) == 2  # 0 mod 9: saturated at m
    assert ord_p_truncated(6, 3, 2) == 1


def test_teichmuller_examples():
    assert teichmuller(2, 5, 1) == 2
    assert teichmuller(2, 5, 2) == 7
    assert teichmuller(2, 3, 2) == 8
    with pytest.raises(ValueError):
        teichmuller(10, 5, 2)


def test_teichmuller_is_root_of_unity_lifting_identity():
    rng = random.Random(1)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13])
        m = rng.randrange(1, 5)
        a = rng.randrange(1, p ** m)
        if a % p == 0:
            continue
        w = teichmuller(a, p, m)
        assert pow(w, p - 1, p ** m) == 1
        assert (w - a) % p == 0


def test_teichmuller_multiplicative():
    for p, m in ((3, 3), (5, 2), (7, 2)):
        n = p ** m
        for a in range(1, p ** m):
            if a % p == 0:
                continue
            for b in (2, 3, p - 1, p + 1):
                if b % p == 0:
                    continue
                assert teichmuller(a * b, p, m) == teichmuller(a, p, m) * teichmuller(b, p, m) % n


def test_primitive_root_examples():
    for n in range(5):
        assert primitive_root(3, n) == 2
    assert primitive_root(5, 1) == 2
    assert primitive_root(7, 1) == 3


@pytest.mark.parametrize("build", [
    lambda: primitive_root(9),
    lambda: primitive_root(15),
    lambda: ResidueRing(4, 1),
    lambda: ResidueRing(9, 2),
], ids=["primitive_root(9)", "primitive_root(15)", "ResidueRing(4, 1)", "ResidueRing(9, 2)"])
def test_composite_p_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_primitive_root_generates():
    for p, n in ((3, 2), (5, 1), (7, 1), (11, 0)):
        g = primitive_root(p, n)
        modulus = p ** (n + 1)
        order = (p - 1) * p ** n
        seen = set()
        cur = 1
        for _ in range(order):
            seen.add(cur)
            cur = cur * g % modulus
        assert len(seen) == order


def test_discrete_log_examples():
    assert discrete_log(1, 2, 25) == 0
    assert discrete_log(7, 2, 25) == 5
    assert discrete_log(26, 2, 27) == 9
    with pytest.raises(ValueError):
        discrete_log(5, 2, 25)


def test_discrete_log_round_trip():
    rng = random.Random(2)
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        n = rng.randrange(0, 3)
        modulus = p ** (n + 1)
        g = primitive_root(p, n)
        a = rng.randrange(1, modulus)
        if a % p == 0:
            continue
        assert pow(g, discrete_log(a, g, modulus), modulus) == a % modulus


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_vanishes_at_odd_k():
    for k in range(3, 30, 2):
        assert bernoulli(k) == 0


def test_residue_ring_basics():
    ring = ResidueRing(3, 2)
    assert ring.n == 9
    assert ring.reduce(-1) == 8
    assert ring.inverse(2) == 5
    assert ring.ord(6) == 1 and ring.ord(0) == 2
    assert ring.units() == [1, 2, 4, 5, 7, 8]


def _all_characters_up_to(bound):
    chars = [DirichletCharacter.trivial()]
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        if p > bound:
            break
        for m in (1, 2):
            if p ** m > bound:
                continue
            for a in range(p - 1):
                chars.append(DirichletCharacter.teichmuller_power(p, a, m))
    return chars


def test_character_multiplicativity_and_parity_exhaustive():
    for chi in _all_characters_up_to(100):
        M = chi.modulus
        ring_n = chi.ring.n if chi.ring else 0
        for a in range(M if M > 1 else 2):
            for b in range(M if M > 1 else 2):
                lhs = chi(a * b)
                rhs = chi(a) * chi(b)
                if ring_n:
                    rhs %= ring_n
                assert lhs == rhs
        assert chi(-1) == chi(M - 1) if M > 1 else True
        assert chi.parity() in (1, -1)


def test_character_vanishes_off_units():
    chi = DirichletCharacter.teichmuller_power(7, 2, 1)
    for a in range(30):
        assert (chi(a) == 0) == (gcd(a, 7) > 1)


def test_character_inverse():
    chi = DirichletCharacter.teichmuller_power(7, 1, 2)
    inv = chi.inverse()
    for a in range(1, 7):
        assert chi(a) * inv(a) % 49 == 1


def test_teichmuller_power_conductor():
    assert DirichletCharacter.teichmuller_power(3, 2, 1).conductor == 1
    assert DirichletCharacter.teichmuller_power(3, 2, 1).modulus == 3
    assert DirichletCharacter.teichmuller_power(5, 2, 1).conductor == 5
    assert DirichletCharacter.trivial().modulus == 1
