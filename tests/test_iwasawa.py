import random

import pytest

from taumt.arith import INFINITY, DirichletCharacter, ResidueRing, primitive_root
from taumt.boundary import eisenstein_boundary_symbol, phi9_symbol, BoundarySymbol
from taumt.cusps import Cusp, cusp_representatives, INFINITY_CUSP
from taumt.iwasawa import (
    GroupRingElt,
    TPoly,
    _taylor_shift,
    fit_global_unit,
    from_T_basis,
    invariants,
    mazur_tate,
    to_T_basis,
)
from taumt.mansym import delta_symbol


def eis_symbol(p, a):
    psi = DirichletCharacter.teichmuller_power(p, a, 1)
    return eisenstein_boundary_symbol(psi, DirichletCharacter.trivial())


def test_mazur_tate_phi5_level1():
    theta = mazur_tate(eis_symbol(5, 2), 5, 1, 1)
    assert theta.coeffs == (3, 3, 3, 3, 3)


def test_mazur_tate_phi9_coefficients_divisible_by_3():
    theta = mazur_tate(phi9_symbol(), 3, 1, 2)
    assert all(c % 3 == 0 for c in theta.coeffs)
    assert any(c % 9 for c in theta.coeffs)


def test_mazur_tate_zero_symbol():
    ring = ResidueRing(5, 1)
    zero = BoundarySymbol(5, ring, cusp_representatives(5), [0, 0, 0, 0])
    theta = mazur_tate(zero, 5, 1, 1)
    assert theta.coeffs == (0, 0, 0, 0, 0)
    inv = invariants(theta)
    assert inv.mu == INFINITY and inv.lam == INFINITY and not inv.precision_ok


def test_to_T_basis_example():
    # 1 + gamma + gamma^2 = 3 + 3T + T^2 = T^2 mod 3
    F = GroupRingElt(3, 1, 1, (1, 1, 1), 2)
    assert to_T_basis(F).coeffs == (0, 0, 1)


def test_to_T_basis_delta_at_zero():
    F = GroupRingElt(3, 1, 1, (1, 0, 0), 2)
    assert to_T_basis(F).coeffs == (1, 0, 0)


def test_T_basis_round_trip():
    rng = random.Random(6)
    for _ in range(1000):
        p = rng.choice([3, 5])
        n = rng.choice([1, 2])
        m = rng.choice([1, 2])
        pm, pn = p ** m, p ** n
        coeffs = tuple(rng.randrange(pm) for _ in range(pn))
        F = GroupRingElt(p, n, m, coeffs, primitive_root(p, n))
        assert from_T_basis(to_T_basis(F)).coeffs == coeffs


def test_T_basis_round_trip_at_3_to_the_10():
    rng = random.Random(310)
    coeffs = tuple(rng.randrange(9) for _ in range(3**10))
    F = GroupRingElt(3, 10, 2, coeffs, primitive_root(3, 10))
    assert from_T_basis(to_T_basis(F)).coeffs == coeffs


@pytest.mark.parametrize("g", [4, 10])
def test_from_T_basis_rejects_a_non_generator(g):
    with pytest.raises(ValueError):
        from_T_basis(TPoly(3, 2, 2, (1,) * 9), generator=g)


def reference_to_T_basis(F: GroupRingElt) -> TPoly:
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


def reference_from_T_basis(F: TPoly, generator: int | None = None) -> GroupRingElt:
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


def reference_taylor_shift(coeffs: tuple[int, ...], s: int, pm: int) -> tuple[int, ...]:
    """Coefficients of sum c_j (X + s)^j mod pm, by Horner's rule."""
    out: list[int] = []
    for c in reversed(coeffs):
        out = [(s * hi + lo) % pm for hi, lo in zip(out + [0], [c] + out)]
    return tuple(out)


# lengths on both sides of the Horner block size 64 and of powers of two
@pytest.mark.parametrize("length, pm", [(1, 9), (2, 9), (63, 9), (64, 25), (65, 25), (128, 49), (129, 27), (200, 81)])
@pytest.mark.parametrize("s", [1, -1])
def test_taylor_shift_matches_horner(length, pm, s):
    rng = random.Random(length * 1000 + pm)
    coeffs = tuple(rng.randrange(pm) for _ in range(length))
    assert _taylor_shift(coeffs, s, pm) == reference_taylor_shift(coeffs, s, pm)


@pytest.mark.parametrize("p, n, m", [(3, 8, 4), (5, 5, 4), (7, 4, 4)])
def test_T_basis_matches_horner_on_a_dense_residue(p, n, m):
    rng = random.Random(p * 100 + n * 10 + m)
    pm, pn = p**m, p**n
    F = GroupRingElt(p, n, m, tuple(rng.randrange(pm) for _ in range(pn)), primitive_root(p, n))
    assert to_T_basis(F).coeffs == reference_taylor_shift(F.coeffs, 1, pm)
    T = TPoly(p, n, m, tuple(rng.randrange(pm) for _ in range(pn)))
    assert from_T_basis(T).coeffs == reference_taylor_shift(T.coeffs, -1, pm)


@pytest.mark.parametrize("p, n, m", [(3, 7, 1), (5, 4, 3), (7, 3, 2)])
def test_taylor_shift_matches_the_pascal_reference(p, n, m):
    rng = random.Random(p * 100 + n * 10 + m)
    pm, pn = p**m, p**n
    F = GroupRingElt(p, n, m, tuple(rng.randrange(pm) for _ in range(pn)), primitive_root(p, n))
    assert to_T_basis(F) == reference_to_T_basis(F)
    T = TPoly(p, n, m, tuple(rng.randrange(pm) for _ in range(pn)))
    assert from_T_basis(T) == reference_from_T_basis(T)


@pytest.mark.parametrize("p, n, m", [(3, 5, 2), (5, 3, 2), (7, 2, 3), (3, 7, 1), (3, 9, 2), (5, 6, 1)])
def test_norm_element_has_binomial_T_coefficients(p, n, m):
    # N = sum gamma^i = ((1 + T)^(p^n) - 1) / T, so its T^i coefficient is C(p^n, i + 1)
    pn = p**n
    N = GroupRingElt(p, n, m, (1,) * pn, primitive_root(p, n))
    binomials, c = [], 1
    for i in range(pn):
        c = c * (pn - i) // (i + 1)  # C(pn, i + 1), exactly
        binomials.append(c % p**m)
    assert to_T_basis(N).coeffs == tuple(binomials)


@pytest.mark.parametrize("g", [3, 4, 10])
def test_mazur_tate_rejects_a_non_generator(monkeypatch, g):
    with pytest.raises(ValueError):
        mazur_tate(phi9_symbol(), 3, 2, 2, generator=g)

    # and before any symbol value is computed
    def must_not_evaluate(*args):
        raise AssertionError("evaluated the symbol")

    monkeypatch.setattr("taumt.iwasawa._values_at_level", must_not_evaluate)
    with pytest.raises(ValueError):
        mazur_tate(phi9_symbol(), 3, 2, 2, generator=g)


def test_invariants_examples():
    inv = invariants(TPoly(5, 1, 1, (0, 0, 0, 0, 1)))
    assert (inv.mu, inv.lam, inv.precision_ok) == (0, 4, True)
    inv = invariants(TPoly(3, 1, 2, (3, 3, 0)))
    assert (inv.mu, inv.lam, inv.precision_ok) == (1, 0, True)
    inv = invariants(TPoly(5, 1, 1, (0, 0, 0, 0, 0)))
    assert (inv.mu, inv.lam, inv.precision_ok) == (INFINITY, INFINITY, False)


def test_invariants_unit_scaling(rng):
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        m = rng.choice([1, 2])
        pm = p ** m
        coeffs = tuple(rng.randrange(pm) for _ in range(p))
        F = GroupRingElt(p, 1, m, coeffs, primitive_root(p, 1))
        u = rng.choice([x for x in range(1, pm) if x % p])
        assert invariants(F) == invariants(F.scaled(u))


def test_mu_shifts_under_multiplication_by_p():
    psi = DirichletCharacter.teichmuller_power(5, 2, 2)
    phi = eisenstein_boundary_symbol(psi, DirichletCharacter.trivial())
    theta = mazur_tate(phi, 5, 2, 2)
    scaled = theta.scaled(5)
    inv, sinv = invariants(theta), invariants(scaled)
    assert sinv.mu == inv.mu + 1
    assert sinv.lam == inv.lam


def test_generator_independence():
    # invariants agree when the group ring is indexed by any primitive root
    for p, n, m, source in ((5, 1, 1, eis_symbol(5, 2)), (3, 2, 2, phi9_symbol())):
        modulus = p ** (n + 1)
        order = (p - 1) * p ** n
        gens = [g for g in range(2, modulus)
                if g % p and _mult_order(g, modulus) == order]
        base = invariants(mazur_tate(source, p, n, m))
        for g in gens:
            assert invariants(mazur_tate(source, p, n, m, generator=g)) == base


def _mult_order(g, modulus):
    e, cur = 1, g % modulus
    while cur != 1:
        cur = cur * g % modulus
        e += 1
        if e > modulus:
            return 0
    return e


def test_lambda_formula_on_synthetic_boundary_tables(rng):
    # random level-p tables with unit hypothesis sum must give lambda = p^n - 1
    for _ in range(12):
        p = rng.choice([5, 7])
        ring = ResidueRing(p, 1)
        reps = cusp_representatives(p)
        while True:
            values = [rng.randrange(p) for _ in reps]
            sym = BoundarySymbol(p, ring, reps, values)
            total = sum(sym.value(INFINITY_CUSP) - sym.value(Cusp(a, p))
                        for a in range(1, p)) % p
            if total:
                break
        for n in (1, 2):
            inv = invariants(mazur_tate(sym, p, n, 1))
            assert (inv.mu, inv.lam) == (0, p ** n - 1)


def test_congruence_transfer_unit_is_stable_across_levels():
    # one unit c_p works for every level: compare n = 1 and n = 2 fits
    for p in (5, 7):
        units = []
        for n in (1, 2):
            theta_d = mazur_tate(delta_symbol(), p, n, 1)
            theta_e = mazur_tate(eis_symbol(p, {5: 2, 7: 4}[p]), p, n, 1)
            units.append(fit_global_unit(list(theta_d.coeffs), list(theta_e.coeffs), p, 1))
        assert units[0] is not None and units[0] == units[1]


def test_fit_global_unit():
    assert fit_global_unit([2, 4], [1, 2], 5, 1) == 2
    assert fit_global_unit([0, 0], [0, 0], 5, 1) == 1
    assert fit_global_unit([1, 1], [1, 2], 5, 1) is None


def test_mazur_tate_rejects_mismatched_ring():
    with pytest.raises(ValueError):
        mazur_tate(eis_symbol(5, 2), 7, 1, 1)
    with pytest.raises(ValueError):
        mazur_tate(eis_symbol(5, 2), 5, 1, 2)  # symbol only carries precision 1


def _theta_by_evaluating_every_unit(sym, p, n, m):
    """The level-n coefficients, each unit a/p^(n+1) evaluated on its own."""
    modulus, pn, pm = p ** (n + 1), p ** n, p ** m
    g, a = primitive_root(p, n), 1
    coeffs = [0] * pn
    for e in range((p - 1) * pn):
        coeffs[e % pn] = (coeffs[e % pn] + sym.value(INFINITY_CUSP) - sym.value(Cusp(a, modulus))) % pm
        a = a * g % modulus
    return tuple(coeffs)


def _synthetic_symbol(level, p):
    reps = cusp_representatives(level)
    return BoundarySymbol(level, ResidueRing(p, 1), reps, [(i * i + 1) % p for i in range(len(reps))])


@pytest.mark.parametrize("make, p, n, m", [
    # level 5 is prime to p = 3, so gcd(3^(n+1), 5) = 1 and one value serves every unit
    (lambda: eisenstein_boundary_symbol(DirichletCharacter.trivial(),
                                        DirichletCharacter(5, 5, (0, 1, 2, 2, 1), ResidueRing(3, 1)),
                                        ResidueRing(3, 1)),
     3, 2, 1),
    # level 27 is above the modulus 3^2 at n = 1
    (phi9_symbol, 3, 1, 2),
    (phi9_symbol, 3, 3, 2),
    (lambda: eis_symbol(5, 2), 5, 2, 1),
    # levels 45 and 75 carry a second prime: the value at a/p^(n+1) reads a mod 9, mod 25
    (lambda: _synthetic_symbol(45, 3), 3, 2, 1),
    (lambda: _synthetic_symbol(75, 5), 5, 1, 1),
], ids=["level-prime-to-p", "level-above-modulus", "phi9-n3", "eis5", "level45", "level75"])
def test_boundary_walk_reads_one_value_per_residue(make, p, n, m):
    sym = make()
    theta = mazur_tate(sym, p, n, m)
    assert theta.coeffs == _theta_by_evaluating_every_unit(sym, p, n, m)
    assert any(theta.coeffs)
