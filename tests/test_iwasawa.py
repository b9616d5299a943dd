import random

import pytest

from taumt.arith import INFINITY, DirichletCharacter, ResidueRing, primitive_root
from taumt.boundary import eisenstein_boundary_symbol, phi9_symbol, BoundarySymbol
from taumt.cusps import Cusp, cusp_representatives, INFINITY_CUSP
from taumt.iwasawa import (
    GroupRingElt,
    TPoly,
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
