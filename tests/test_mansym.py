from fractions import Fraction
from math import comb, gcd

import pytest

from conftest import random_divisor0, random_gamma1, random_sl2

from taumt import fixtures
from taumt.arith import bernoulli
from taumt.cusps import Cusp, Divisor, INFINITY_CUSP, ZERO_CUSP
from taumt.iwasawa import fit_global_unit
from taumt.mansym import (
    IOTA,
    ManinSymbol,
    S,
    _combo_basis,
    _hecke,
    act,
    action_matrix,
    adjugate,
    alpha_N,
    convergents,
    delta_symbol,
    eval_at_zero_one,
    eval_symbol,
    evaluation_content,
    hecke_T,
    manin_space,
    mat_mul,
    merel_matrices,
    plus_subspace,
    sl2_inverse,
    unimodular_path,
)


def reference_action_matrix(g, degree):
    """The binomial expansion of P -> P|g, the former action_matrix body,
    kept as the independent side that act is compared against."""
    a, b, c, d = g
    cols = []
    for i in range(degree + 1):
        p1 = [comb(i, u) * d**u * (-c) ** (i - u) for u in range(i + 1)]
        p2 = [comb(degree - i, v) * (-b) ** v * a ** (degree - i - v) for v in range(degree - i + 1)]
        col = [0] * (degree + 1)
        for u, x in enumerate(p1):
            for v, y in enumerate(p2):
                col[u + v] += x * y
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(degree + 1)) for i in range(degree + 1))


def apply_matrix(matrix, vec):
    return tuple(sum(m * x for m, x in zip(row, vec)) for row in matrix)


def test_space_dimensions():
    assert len(manin_space(12)) == 3  # two Delta classes and one Eisenstein class
    assert len(manin_space(4)) == 1
    assert len(manin_space(16)) == 3
    assert len(plus_subspace(manin_space(12))) == 2


def test_relations_hold_for_basis():
    for sym in manin_space(12):
        assert sym.relations_hold()
        s_img = sym.act(S)
        assert all(x + y == 0 for x, y in zip(sym.coeffs, s_img))


def test_involution_squares_to_identity():
    for sym in manin_space(12):
        assert act(act(sym.coeffs, IOTA), IOTA) == sym.coeffs


def test_plus_projection_fixes_plus_vectors():
    for sym in plus_subspace(manin_space(12)):
        assert act(sym.coeffs, IOTA) == sym.coeffs


def test_merel_t2_set_is_the_classical_one():
    assert merel_matrices(2) == ((1, 0, 0, 2), (1, 0, 1, 2), (2, 0, 0, 1), (2, 1, 0, 1))
    for ell in (2, 3, 5, 7):
        assert all(a * d - b * c == ell for a, b, c, d in merel_matrices(ell))


def test_hecke_eigenvalues_on_delta():
    d = delta_symbol()
    for ell, tau_ell in ((2, -24), (3, 252), (5, 4830)):
        assert hecke_T(ell, d).coeffs == tuple(tau_ell * x for x in d.coeffs)


def test_hecke_eisenstein_eigenvalue():
    # T_2 = 1 + 2^11 = 2049 cuts out a line in the plus space: the
    # boundary (Eisenstein) class
    from taumt.linalg import nullspace

    plus = plus_subspace(manin_space(12))
    rows = []
    for i in range(11):
        rows.append([hecke_T(2, p).coeffs[i] - 2049 * p.coeffs[i] for p in plus])
    assert len(nullspace(rows)) == 1


def test_delta_symbol_normalization():
    d = delta_symbol()
    assert d.content() == 1
    assert d.weight == 12 and d.degree == 10
    for p in (3, 5, 7):
        assert any(x % p for x in d.coeffs)
    assert d.relations_hold()


def test_convergents_example():
    # 3/7 = [0; 2, 3] with convergents 0/1, 1/2, 3/7
    assert convergents(3, 7) == [(1, 0), (0, 1), (1, 2), (3, 7)]
    # raw consecutive convergents have determinant +-1
    conv = convergents(3, 7)
    for j in range(1, len(conv)):
        (p1, q1), (p0, q0) = conv[j], conv[j - 1]
        assert abs(p1 * q0 - p0 * q1) == 1


def test_unimodular_path_properties():
    for text in ("3/7", "-2/5", "151/357", "0", "5"):
        r = Cusp.parse(text)
        mats = unimodular_path(r)
        assert all(a * d - b * c == 1 for a, b, c, d in mats)
        # the chain of steps {g 0} -> {g oo} telescopes from oo to r
        assert mats[0].__class__ is tuple
        assert Cusp.make(mats[0][1], mats[0][3]) == INFINITY_CUSP
        assert Cusp.make(mats[-1][0], mats[-1][2]) == r
        for left, right in zip(mats, mats[1:]):
            assert Cusp.make(left[0], left[2]) == Cusp.make(right[1], right[3])
    assert unimodular_path(INFINITY_CUSP) == []


def test_eval_symbol_zero_on_trivial_divisor():
    d = delta_symbol()
    r = Cusp.parse("4/25")
    D = Divisor.path(r, r)
    assert eval_symbol(d, D) == (0,) * 11


def test_eval_requires_degree_zero():
    d = delta_symbol()
    with pytest.raises(ValueError):
        eval_symbol(d, Divisor([(ZERO_CUSP, 1)]))


def test_eval_base_path_recovers_symbol():
    d = delta_symbol()
    assert eval_symbol(d, Divisor.path(ZERO_CUSP, INFINITY_CUSP)) == d.coeffs


def test_eval_additive_and_route_independent(rng):
    d = delta_symbol()
    for _ in range(60):
        D1 = random_divisor0(rng, max_den=30)
        D2 = random_divisor0(rng, max_den=30)
        lhs = eval_symbol(d, D1 + D2)
        rhs = tuple(x + y for x, y in zip(eval_symbol(d, D1), eval_symbol(d, D2)))
        assert lhs == rhs


def test_telescoped_route_through_zero(rng):
    # {r} - {s} = ({r} - {0}) + ({0} - {s}): the two evaluation routes agree
    d = delta_symbol()
    for _ in range(200):
        D = random_divisor0(rng, max_den=40)
        cusps = list(D.items())
        direct = eval_at_zero_one(d, D)
        via_zero = sum(
            mult * eval_at_zero_one(d, Divisor.path(c, ZERO_CUSP)) for c, mult in cusps
        )
        assert direct == via_zero


def test_sl2_invariance(rng):
    d = delta_symbol()
    for _ in range(150):
        D = random_divisor0(rng, max_den=25)
        g = random_sl2(rng, size=12)
        assert act(eval_symbol(d, D.apply(g)), g) == eval_symbol(d, D)


def test_eval_at_zero_one_matches_full_transport(rng):
    d = delta_symbol()
    for _ in range(100):
        D = random_divisor0(rng, max_den=40)
        assert eval_at_zero_one(d, D) == eval_symbol(d, D)[0]


def test_gamma1_invariance_of_alpha(rng):
    d = delta_symbol()
    for N in (5, 7, 9, 27):
        alpha = alpha_N(d, N)
        for _ in range(250):
            D = random_divisor0(rng, max_den=25)
            g = random_gamma1(rng, N)
            assert alpha.on_divisor(D) == alpha.on_divisor(D.apply(g))


def test_alpha9_matches_level27_boundary_symbol_on_random_pairs(rng):
    # mod 9 the normalized specialization equals a fixed unit times the
    # level-27 boundary symbol difference, on arbitrary divisors
    from taumt.boundary import phi9_symbol

    alpha = alpha_N(delta_symbol(), 9, normalize=True)
    phi = phi9_symbol()
    rows = fixtures.load_table1()
    ours = [alpha.pair(Cusp.parse(r), Cusp.parse(s)) for r, s, _, _ in rows[:4]]
    unit = fit_global_unit(ours, [a for _, _, a, _ in rows[:4]], 3, 2)
    assert unit is not None
    for _ in range(1000):
        D = random_divisor0(rng, max_den=40)
        assert alpha.on_divisor(D) == unit * phi.on_divisor(D) % 9


def test_normalized_alpha9_invariant_at_level_27(rng):
    # dividing by the 3-content costs Gamma_1(9)-invariance; the primitive
    # mod-9 map is still constant along Gamma_1(27) orbits, which is the
    # level where it is compared with a boundary symbol
    alpha = alpha_N(delta_symbol(), 9, normalize=True)
    for _ in range(150):
        D = random_divisor0(rng, max_den=25)
        g = random_gamma1(rng, 27)
        assert alpha.on_divisor(D) == alpha.on_divisor(D.apply(g))


def test_evaluation_content():
    d = delta_symbol()
    assert evaluation_content(d, 3) == 2
    assert evaluation_content(d, 2) == 2
    assert evaluation_content(d, 5) == 0
    assert evaluation_content(d, 7) == 0


def test_alpha_values_on_level5_generators():
    alpha = alpha_N(delta_symbol(), 5, normalize=True)
    table = fixtures.load_divisor_values("s5_values.csv")
    ours = [alpha.pair(Cusp.parse(r), Cusp.parse(s)) for r, s, _ in table]
    unit = fit_global_unit(ours, [v for _, _, v in table], 5, 1)
    assert unit is not None


def test_alpha_values_on_level7_generators():
    alpha = alpha_N(delta_symbol(), 7, normalize=True)
    table = fixtures.load_divisor_values("s7_values.csv")
    ours = [alpha.pair(Cusp.parse(r), Cusp.parse(s)) for r, s, _ in table]
    unit = fit_global_unit(ours, [v for _, _, v in table], 7, 1)
    assert unit is not None
    # zero rows must be exactly zero, independent of the unit
    assert ours[3] == 0 and ours[4] == 0


def test_alpha9_appendix_spot_rows():
    alpha = alpha_N(delta_symbol(), 9, normalize=True)
    assert alpha.pair(Cusp.parse("5/27"), Cusp.parse("3/16")) in {2 * u % 9 for u in (1, 2, 4, 5, 7, 8)}
    rows = fixtures.load_table1()[:6]
    ours = [alpha.pair(Cusp.parse(r), Cusp.parse(s)) for r, s, _, _ in rows]
    unit = fit_global_unit(ours, [a for _, _, a, _ in rows], 3, 2)
    assert unit is not None


def test_content_rejects_fractional_symbols():
    s = ManinSymbol(4, (Fraction(1, 2), 0, 1))
    with pytest.raises(ValueError):
        s.content()


def test_hecke_consistency_guard():
    # a vector violating the relations is rejected by the constructor path
    bad = ManinSymbol(12, (1,) + (0,) * 10)
    assert not bad.relations_hold()


def test_action_is_right_action(rng):
    for degree in (10, 24):
        for _ in range(50):
            g = random_sl2(rng, size=6)
            h = random_sl2(rng, size=6)
            vec = tuple(rng.randrange(-50, 51) for _ in range(degree + 1))
            assert act(act(vec, g), h) == act(vec, mat_mul(g, h))


def test_act_matches_reference_at_every_degree(rng):
    for degree in range(25):
        for _ in range(4):
            g = random_sl2(rng, size=10**6)
            vec = tuple(rng.randrange(-10**6, 10**6 + 1) for _ in range(degree + 1))
            assert act(vec, g) == apply_matrix(reference_action_matrix(g, degree), vec)
        g = random_sl2(rng, size=30)
        assert action_matrix.__wrapped__(g, degree) == reference_action_matrix(g, degree)


def test_act_matches_reference_on_merel_adjugates(rng):
    for ell in range(2, 14):
        for h in merel_matrices(ell):
            g = adjugate(h)
            for degree in (0, 1, 10, 24):
                vec = tuple(rng.randrange(-100, 101) for _ in range(degree + 1))
                assert act(vec, g) == apply_matrix(reference_action_matrix(g, degree), vec)


def test_act_matches_reference_on_fractions(rng):
    for degree in (0, 3, 10, 24):
        for _ in range(5):
            g = random_sl2(rng, size=1000)
            vec = tuple(Fraction(rng.randrange(-99, 100), rng.randrange(1, 100)) for _ in range(degree + 1))
            assert act(vec, g) == apply_matrix(reference_action_matrix(g, degree), vec)


def test_action_matrix_cache_holds_only_the_manin_matrices(rng):
    action_matrix.cache_clear()
    d = delta_symbol.__wrapped__()
    for _ in range(50):
        eval_symbol(d, random_divisor0(rng, max_den=10**6))
    assert action_matrix.cache_info().currsize <= 3


def test_delta_symbol_is_minus_691_times_the_even_period_polynomial():
    # -691 r+_Delta, r+_Delta = (36/691)(X^10 - Y^10) - X^2 Y^2 (X^2 - Y^2)^3
    # (Kohnen-Zagier); coefficient i multiplies X^i Y^(10-i)
    assert delta_symbol().coeffs == (36, 0, -691, 0, 2073, 0, -2073, 0, 691, 0, -36)


# (k, a_2, c) for the weights with dim S_k = 1: the T_2 eigenvalue of the
# cusp form and the end coefficient of its primitive plus symbol
PLUS_EIGENSYMBOLS = [
    (12, -24, 36), (16, 216, 360), (18, -528, 18000),
    (20, 456, 26460), (22, -288, 126000), (26, -48, 34398000),
]


@pytest.mark.parametrize("k, a2, c", PLUS_EIGENSYMBOLS)
def test_plus_eigensymbol_inner_gcd_is_the_bernoulli_numerator(k, a2, c):
    # mod num(B_k/2k) the cusp symbol is c (X^(k-2) - Y^(k-2)) up to sign,
    # the period polynomial of E_k: Ramanujan's 691 and its siblings
    plus = plus_subspace(manin_space(k))
    eigen = _combo_basis(plus, lambda v: _hecke(2, v), shift=-a2)
    assert len(eigen) == 1
    coeffs = eigen[0].coeffs
    assert coeffs[0] == -coeffs[-1] == c
    inner = 0
    for x in coeffs[1:-1]:
        inner = gcd(inner, x)
    assert inner == abs((bernoulli(k) / (2 * k)).numerator)
    assert _combo_basis(plus, lambda v: _hecke(2, v), shift=-a2 - 2) == []


def test_sl2_inverse():
    g = (2, 3, 1, 2)
    assert mat_mul(g, sl2_inverse(g)) == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        sl2_inverse((2, 0, 0, 1))
