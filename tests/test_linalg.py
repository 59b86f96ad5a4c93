"""`linalg.det` against independent determinants: sympy over Q and F_7, the
Leibniz expansion over F_9, and LAPACK over float and complex."""

import itertools
import math
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conics92.fields import PrimeField, QuadExtField
from conics92.linalg import det


@st.composite
def int_matrices(draw, n_max=8, bound=6):
    """Square integer matrices of size 1..n_max with a zero row, a zero
    leading entry, a zero first column or none of these, so that both the
    pivot swap and the early zero return run."""
    n = draw(st.integers(1, n_max))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n))
    zeroed = draw(st.sampled_from(["pivot", "row", "column", "none"]))
    if zeroed == "row":
        rows[draw(st.integers(0, n - 1))] = [0] * n
    for r in range(n if zeroed == "column" else 1 if zeroed == "pivot" else 0):
        rows[r][0] = 0
    return rows


def _leibniz(rows, zero):
    n = len(rows)
    total = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = math.prod((rows[r][perm[r]] for r in range(n)), start=zero + 1)
        total = total - term if inversions % 2 else total + term
    return total


@settings(max_examples=80)
@given(int_matrices(), st.data())
def test_det_over_q_matches_sympy(m, data):
    dens = data.draw(st.lists(st.integers(1, 4), min_size=len(m) ** 2, max_size=len(m) ** 2))
    q = [[Fraction(v, dens[r * len(m) + c]) for c, v in enumerate(row)] for r, row in enumerate(m)]
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in q]).det()
    got = det(q)
    assert isinstance(got, Fraction)
    assert got == Fraction(int(want.p), int(want.q))


@settings(max_examples=80)
@given(int_matrices())
def test_det_over_f7_matches_sympy_mod_7(m):
    fp = PrimeField(7)
    assert det([[fp(v) for v in row] for row in m]) == fp(int(sympy.Matrix(m).det()))


@settings(max_examples=80)
@given(int_matrices(n_max=4, bound=2), int_matrices(n_max=4, bound=2))
def test_det_over_f9_matches_leibniz(c0, c1):
    ext = QuadExtField(3)
    n = min(len(c0), len(c1))
    rows = [[ext(c0[r][c], c1[r][c]) for c in range(n)] for r in range(n)]
    assert det(rows) == _leibniz(rows, ext.zero())


@settings(max_examples=40)
@given(int_matrices(), st.data())
def test_det_over_float_and_complex_matches_numpy(m, data):
    n = len(m)
    x = np.array(m, dtype=float) + 0.25
    assert det(x.tolist()) == np.linalg.det(x)
    y = x + 1j * np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))).reshape(n, n)
    assert det(y.tolist()) == np.linalg.det(y)
