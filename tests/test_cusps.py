from math import gcd

import pytest

from conftest import random_cusp, random_gamma1

from taumt.cusps import (
    Cusp,
    Divisor,
    INFINITY_CUSP,
    classify_cusp,
    cusp_count,
    cusp_equivalent,
    cusp_key,
    cusp_representatives,
)


def scan_equivalent(N: int, x: Cusp, y: Cusp) -> bool:
    """Reference: the sign-and-shift scan of Diamond-Shurman, Prop. 3.8.3."""
    a1, c1 = x.a % N, x.c % N
    a2, c2 = y.a % N, y.c % N
    for sign in (1, -1):
        if (sign * c1 - c2) % N:
            continue
        for j in range(N):
            if (sign * (a1 + j * c1) - a2) % N == 0:
                return True
    return False


def test_cusp_canonical_form():
    assert Cusp.make(2, -4) == Cusp(-1, 2)
    assert Cusp.make(-3, 0) == INFINITY_CUSP
    assert str(Cusp.make(10, 4)) == "5/2"
    with pytest.raises(ValueError):
        Cusp(2, 4)
    with pytest.raises(ValueError):
        Cusp.make(0, 0)


def test_cusp_parse_round_trip():
    for text in ("oo", "0", "1/2", "-2/27", "151/357"):
        assert str(Cusp.parse(text)) == text


def test_divisor_degree_and_arithmetic():
    r, s = Cusp.parse("1/5"), Cusp.parse("oo")
    D = Divisor.path(r, s)
    assert D.degree() == 0 and D.is_degree_zero()
    assert (D + D).degree() == 0
    assert not (D - D)
    assert Divisor([(r, 2)]).degree() == 2


def test_equivalence_examples_level5():
    assert cusp_equivalent(5, Cusp.parse("1/5"), Cusp.parse("4/5"))
    assert cusp_equivalent(5, INFINITY_CUSP, Cusp.parse("1/5"))
    assert not cusp_equivalent(5, Cusp.parse("0"), Cusp.parse("1/2"))


def test_equivalence_is_reflexive(rng):
    for N in (5, 7, 9, 27):
        for _ in range(50):
            x = random_cusp(rng)
            assert cusp_equivalent(N, x, x)


def test_equivalence_relation_laws(rng):
    # symmetry on random pairs; transitivity on triples built to be related
    for N in (5, 7, 9, 27):
        for _ in range(500):
            x = random_cusp(rng)
            y = random_cusp(rng)
            assert cusp_equivalent(N, x, y) == cusp_equivalent(N, y, x)
            gx = x.apply(random_gamma1(rng, N))
            ggx = gx.apply(random_gamma1(rng, N))
            assert cusp_equivalent(N, x, gx) and cusp_equivalent(N, gx, ggx)
            assert cusp_equivalent(N, x, ggx)


def test_orbit_invariance(rng):
    for N in (5, 7, 9, 27):
        for _ in range(250):
            x = random_cusp(rng)
            assert cusp_equivalent(N, x, x.apply(random_gamma1(rng, N)))


def test_cusp_counts():
    assert cusp_count(5) == 4
    assert cusp_count(7) == 6
    assert cusp_count(9) == 8
    assert cusp_count(27) == 30
    assert [cusp_count(N) for N in (1, 2, 3, 4)] == [1, 2, 2, 3]


def test_representatives_complete_and_inequivalent():
    for N in (1, 2, 3, 4, 5, 7, 9, 11, 12, 27):
        reps = cusp_representatives(N)
        assert len(reps) == cusp_count(N)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not cusp_equivalent(N, reps[i], reps[j])


def test_classify_examples():
    reps27 = cusp_representatives(27)
    idx = classify_cusp(27, Cusp.parse("17/27"), reps27)
    assert reps27[idx] == Cusp.parse("10/27")  # -17 = 10 mod 27

    reps5 = [Cusp.parse(t) for t in ("oo", "2/5", "0", "1/2")]
    assert classify_cusp(5, INFINITY_CUSP, reps5) == 0

    # a/81 with a = 2 mod 27 lands in the class of 2/27
    two27 = classify_cusp(27, Cusp.parse("2/27"), reps27)
    for a in (2, 29, 83):
        assert classify_cusp(27, Cusp.make(a, 81), reps27) == two27

    assert classify_cusp(5, Cusp.parse("1/3"), [INFINITY_CUSP]) is None


def test_classify_total_over_representatives(rng):
    for N in (5, 7, 27):
        reps = cusp_representatives(N)
        for _ in range(1000 if N == 27 else 300):
            x = random_cusp(rng, max_den=10_000)
            assert classify_cusp(N, x, reps) is not None


def test_key_agrees_with_sign_and_shift_scan(rng):
    # unrelated pairs, Gamma_1(N) images, and pairs sharing c mod N but not
    # necessarily a mod gcd(c, N), so both outcomes occur at every level
    for N in range(1, 61):
        for _ in range(120):
            x = random_cusp(rng)
            kind = rng.randrange(3)
            if kind == 0:
                y = random_cusp(rng)
            elif kind == 1:
                y = x.apply(random_gamma1(rng, N))
            else:
                c = x.c + N * rng.randrange(0, 3)
                a = rng.randrange(-60, 61)
                if gcd(a, c) != 1:
                    continue
                y = Cusp.make(a, c)
            assert (cusp_key(N, x) == cusp_key(N, y)) == scan_equivalent(N, x, y), (N, x, y)
