"""Exact determinants for small dense matrices over any supported scalar.

Rational matrices are scaled to integers and run through fraction-free
Bareiss elimination with exact integer division; finite-field matrices run
the same elimination with field division; float/complex matrices go to
LAPACK.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np


def _bareiss(m: list, div) -> object:
    """Fraction-free elimination on the rows m, in place; `div` divides by
    the previous pivot, which divides exactly."""
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return m[k][k]  # a zero of the right type
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                v = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = v if prev is None else div(v, prev)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def det(rows) -> object:
    """Determinant of a square matrix given as a sequence of row sequences."""
    n = len(rows)
    if n == 0:
        return 1
    flat = [x for row in rows for x in row]
    if any(isinstance(x, complex) for x in flat):
        return complex(np.linalg.det(np.asarray(rows, dtype=complex)))
    if any(isinstance(x, float) for x in flat):
        return float(np.linalg.det(np.asarray(rows, dtype=float)))
    if not all(isinstance(x, (int, Fraction)) for x in flat):
        return _bareiss([list(r) for r in rows], operator.truediv)
    # each row scaled to integers by the lcm of its denominators
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    m = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(rows, scales)]
    return Fraction(_bareiss(m, operator.floordiv), math.prod(scales))


def adjugate3(c):
    """Adjugate of a 3x3 matrix given as rows of exact scalars."""
    (a, b, d), (e, f, g), (h, i, j) = c
    return [
        [f * j - g * i, -(b * j - d * i), b * g - d * f],
        [-(e * j - g * h), a * j - d * h, -(a * g - d * e)],
        [e * i - f * h, -(a * i - b * h), a * f - b * e],
    ]
