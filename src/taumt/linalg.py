"""Small exact linear algebra over the rationals.

Row reduction is done with Fraction pivots; results that span integer
lattices are returned as primitive integer vectors.  Matrices here are
tiny (the largest is 22 x 11), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows: list[list[int]] | list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix given by rows."""
    if not rows:
        return []
    frac = [[Fraction(x) for x in row] for row in rows]
    m, pivots = _rref(frac)
    ncols = len(frac[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def primitive_integer_vector(vec) -> list[int]:
    """Scale a rational vector to a primitive integer vector.

    Denominators are cleared, the content divided out, and the sign fixed
    so the first nonzero entry is positive.
    """
    fracs = [Fraction(x) for x in vec]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive form")
    den = 1
    for x in fracs:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fracs]
    content = 0
    for x in ints:
        content = gcd(content, x)
    ints = [x // content for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def content(vec: list[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g
