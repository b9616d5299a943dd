import random
from fractions import Fraction

import pytest

from taumt.linalg import content, nullspace, primitive_integer_vector


def test_nullspace_of_simple_matrix():
    basis = nullspace([[1, 2, 3], [4, 5, 6]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + 2 * v[1] + 3 * v[2] == 0
    assert 4 * v[0] + 5 * v[1] + 6 * v[2] == 0


def test_nullspace_full_rank_is_empty():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_dimension_random():
    rng = random.Random(5)
    for _ in range(40):
        rows = [[rng.randrange(-5, 6) for _ in range(6)] for _ in range(3)]
        basis = nullspace(rows)
        for v in basis:
            for row in rows:
                assert sum(Fraction(r) * x for r, x in zip(row, v)) == 0
        # rank-nullity
        rank = 6 - len(basis)
        assert 0 <= rank <= 3


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert primitive_integer_vector([-2, 4, -6]) == [1, -2, 3]
    with pytest.raises(ValueError):
        primitive_integer_vector([0, 0])


def test_content():
    assert content([6, 10, 15]) == 1
    assert content([12, -18]) == 6
    assert content([]) == 0
