from importlib import resources
from math import gcd

import pytest

from conftest import random_cusp, random_gamma1

from taumt import fixtures
from taumt.arith import DirichletCharacter, ResidueRing, teichmuller
from taumt.boundary import BoundarySymbol, eisenstein_boundary_symbol, phi9, phi9_symbol
from taumt.cusps import Cusp, Divisor, INFINITY_CUSP, cusp_count, cusp_equivalent, cusp_representatives


def eis_symbol(p, a):
    psi = DirichletCharacter.teichmuller_power(p, a, 1)
    return eisenstein_boundary_symbol(psi, DirichletCharacter.trivial())


def table_of(sym):
    return {str(r): v for r, v in zip(sym.reps, sym.values)}


def test_phi5_matches_fixture_table():
    got = table_of(eis_symbol(5, 2))
    expected = dict(fixtures.load_orbit_table("phi5_orbits.csv"))
    assert got == expected  # oo -> 2, 2/5 -> 3, rest 0


def test_phi7_matches_fixture_table():
    got = table_of(eis_symbol(7, 4))
    expected = dict(fixtures.load_orbit_table("phi7_orbits.csv"))
    assert got == expected  # oo -> 2, 2/7 -> 1, 3/7 -> 4, rest 0


def test_eisenstein_rederived_from_character_sums():
    # the level-5 values are omega^-2(1) + omega^-2(4) = 2 on the class of oo
    # and omega^-2(2) + omega^-2(3) = 8 = 3 on the class of 2/5
    w = lambda x: pow(teichmuller(x, 5), -2, 5)
    assert (w(1) + w(4)) % 5 == 2
    assert (w(2) + w(3)) % 5 == 3


def test_value_off_support_is_zero():
    sym = eis_symbol(5, 2)
    assert sym.value(Cusp.parse("0")) == 0
    assert sym.value(Cusp.parse("1/2")) == 0


def test_eisenstein_parity_guard():
    psi = DirichletCharacter.teichmuller_power(5, 1, 1)  # odd
    with pytest.raises(ValueError):
        eisenstein_boundary_symbol(psi, DirichletCharacter.trivial())


def test_hypothesis_sums():
    phi5 = eis_symbol(5, 2)
    s5 = sum(phi5.value(INFINITY_CUSP) - phi5.value(Cusp(a, 5)) for a in range(1, 5)) % 5
    assert s5 == 3
    phi7 = eis_symbol(7, 4)
    s7 = sum(phi7.value(INFINITY_CUSP) - phi7.value(Cusp(a, 7)) for a in range(1, 7)) % 7
    assert s7 == 5


def test_phi9_examples():
    assert phi9(INFINITY_CUSP) == 0
    assert phi9(Cusp.parse("2/9")) == 3
    assert phi9(Cusp.parse("1/4")) == 7


def test_phi9_covers_all_30_classes():
    sym = phi9_symbol()
    assert len(sym.reps) == 30
    assert sorted(set(sym.values)) == [0, 1, 3, 4, 6, 7]
    assert len(cusp_representatives(27)) == 30


def test_boundary_difference_examples():
    sym = phi9_symbol()
    assert sym.difference(Cusp.parse("-2/27"), Cusp.parse("-1/14")) == 5
    assert sym.difference(Cusp.parse("1/27"), INFINITY_CUSP) == 0
    r = Cusp.parse("5/12")
    assert sym.difference(r, r) == 0


def test_on_divisor_is_linear():
    sym = phi9_symbol()
    r, s, t = (Cusp.parse(x) for x in ("2/9", "1/4", "oo"))
    D = Divisor([(r, 2), (s, -1), (t, -1)])
    assert sym.on_divisor(D) == (2 * sym.value(r) - sym.value(s) - sym.value(t)) % 9


def test_gamma1_invariance(rng):
    symbols = [(5, eis_symbol(5, 2)), (7, eis_symbol(7, 4)), (27, phi9_symbol())]
    for N, sym in symbols:
        for _ in range(340):
            x = random_cusp(rng)
            g = random_gamma1(rng, N)
            assert sym.value(x) == sym.value(x.apply(g))


def test_value_constant_in_towers():
    # phi({a/p^n}) = phi({omega(a)/p}) for the level-p symbols
    for p, a_exp in ((5, 2), (7, 4)):
        sym = eis_symbol(p, a_exp)
        for n in range(1, 5):
            q = p ** n
            for a in range(1, q):
                if a % p == 0:
                    continue
                w = teichmuller(a, p) % p
                assert sym.value(Cusp.make(a, q)) == sym.value(Cusp.make(w, p))


def test_phi9_tower_values_depend_on_a_mod_9():
    sym = phi9_symbol()
    for n in range(1, 5):
        q = 3 ** (n + 1)
        for a in range(1, q):
            if a % 3 == 0:
                continue
            assert sym.value(Cusp.make(a, q)) == sym.value(Cusp.make(a % 9, 9))


def test_appendix_phi9_column_exact():
    sym = phi9_symbol()
    rows = fixtures.load_table1()
    assert len(rows) == 55
    for r, s, _, expected in rows:
        assert sym.difference(Cusp.parse(r), Cusp.parse(s)) == expected


def test_duplicate_representative_rejected():
    ring = ResidueRing(5, 1)
    with pytest.raises(ValueError):
        BoundarySymbol(5, ring, [Cusp.parse("1/5"), INFINITY_CUSP], [1, 2])


def test_phi9_table_missing_a_class_rejected(tmp_path, monkeypatch):
    text = resources.files("taumt").joinpath("fixtures", "phi9_orbits.csv").read_text(encoding="utf-8")
    (tmp_path / "phi9_orbits.csv").write_text("\n".join(text.splitlines()[:-1]) + "\n", encoding="utf-8")
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    phi9_symbol.cache_clear()
    try:
        with pytest.raises(ValueError):
            phi9_symbol()
    finally:
        phi9_symbol.cache_clear()


@pytest.mark.parametrize("psi, chi", [
    (DirichletCharacter.teichmuller_power(5, 2), DirichletCharacter(3, 1, (0, 1, 1), ResidueRing(5, 1))),
    (DirichletCharacter.teichmuller_power(5, 1), DirichletCharacter(3, 3, (0, 1, 4), ResidueRing(5, 1))),
    (DirichletCharacter.teichmuller_power(7, 4), DirichletCharacter(3, 1, (0, 1, 1), ResidueRing(7, 1))),
], ids=["level15-trivial-chi", "level15-quadratic-chi", "level21-trivial-chi"])
def test_composite_level_eisenstein_symbol(rng, psi, chi):
    sym = eisenstein_boundary_symbol(psi, chi)
    M = psi.modulus * chi.modulus
    assert sym.level == M
    assert len(sym.reps) == cusp_count(M)
    # by definition, the value at any lift of x/(Qy) is the total weight
    # psi^-1(x') chi(y') over the pairs whose cusps are equivalent to it
    Q, R, n = psi.modulus, chi.modulus, sym.ring.n
    lifts = {
        (x, y): [Cusp.make(x + t * Q, Q * y) for t in range(2 * R) if gcd(x + t * Q, Q * y) == 1]
        for x in range(1, Q) if gcd(x, Q) == 1
        for y in range(1, R) if gcd(y, R) == 1
    }
    for cusps in lifts.values():
        assert cusps
        expected = sum(psi.inverse()(x2) * chi(y2) for (x2, y2), other in lifts.items()
                       if cusp_equivalent(M, cusps[0], other[-1])) % n
        assert all(sym.value(c) == expected for c in cusps)
    for _ in range(300):
        x = random_cusp(rng)
        assert sym.value(x) == sym.value(x.apply(random_gamma1(rng, M)))
