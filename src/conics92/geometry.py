"""Projective 3-space primitives and the 24 affine charts of the space of
plane conics.

A point of the moduli space is a pair (H, q): a plane H in P^3 and a conic
q on it, given by 6 coefficients against the monomials

    (z0^2, z1^2, z2^2, z1*z2, z0*z2, z0*z1)

in the plane coordinates z obtained by dropping one ambient coordinate.
Chart (i, j) normalizes the i-th plane coefficient and the j-th conic
coefficient to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LineInPlane, NotInChart
from .linalg import det


def coerce_scalars(values) -> tuple:
    """Promote bare ints to the scalar type of their companions.

    Int-only input becomes exact rationals, so later divisions stay exact.
    """
    vals = tuple(values)
    zero = next((v for v in vals if not isinstance(v, int)), Fraction(0)) * 0
    return tuple(zero + v if isinstance(v, int) else v for v in vals)


# ambient indices kept by the plane-coordinate projection of chart i
PLANE_COORD_INDICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def plucker(line) -> tuple:
    """The six 2x2 minors of the two points spanning the line; they all
    vanish exactly when the points are projectively equal."""
    p, s = line.p, line.s
    return tuple(p[u] * s[v] - p[v] * s[u] for u in range(4) for v in range(u + 1, 4))


@dataclass(frozen=True)
class Line3:
    """A line in P^3 spanned by two projectively distinct points."""

    p: tuple
    s: tuple

    def __post_init__(self):
        if len(self.p) != 4 or len(self.s) != 4:
            raise ValueError("line points need 4 homogeneous coordinates")
        object.__setattr__(self, "p", coerce_scalars(self.p))
        object.__setattr__(self, "s", coerce_scalars(self.s))
        if not any(m != 0 for m in plucker(self)):
            raise ValueError("line points are projectively equal")


@dataclass(frozen=True)
class Plane3:
    """A plane V(sum a_i y_i) in P^3, stored by its coefficient vector."""

    a: tuple

    def __post_init__(self):
        if len(self.a) != 4:
            raise ValueError("plane needs 4 coefficients")
        object.__setattr__(self, "a", coerce_scalars(self.a))
        if all(x == 0 for x in self.a):
            raise ValueError("zero plane")


@dataclass(frozen=True)
class Chart:
    """Affine patch (i, j): plane coefficient i and conic coefficient j set to 1."""

    i: int
    j: int

    def __post_init__(self):
        if not (0 <= self.i <= 3 and 0 <= self.j <= 5):
            raise ValueError(f"chart out of range: ({self.i},{self.j})")


@dataclass(frozen=True)
class ChartPoint:
    """Affine coordinates (a1,a2,a3,b1,...,b5) in a chart."""

    chart: Chart
    a: tuple
    b: tuple

    def __post_init__(self):
        if len(self.a) != 3 or len(self.b) != 5:
            raise ValueError("chart point needs 3 + 5 coordinates")
        object.__setattr__(self, "a", coerce_scalars(self.a))
        object.__setattr__(self, "b", coerce_scalars(self.b))


def all_charts():
    return [Chart(i, j) for i in range(4) for j in range(6)]


def insert_one(values, slot: int, one=1) -> tuple:
    """Insert a 1 at position `slot`, shifting the remaining values right."""
    out = list(values[:slot]) + [one] + list(values[slot:])
    return tuple(out)


def proj_equal(x, y) -> bool:
    """Projective equality: all 2x2 minors of the stacked pair vanish."""
    n = len(x)
    if n != len(y):
        return False
    return all(
        x[u] * y[v] - x[v] * y[u] == 0 for u in range(n) for v in range(u + 1, n)
    )


# ---------------------------------------------------------------------------
# incidence
# ---------------------------------------------------------------------------

def meet_plane_oracle(line: Line3, plane: Plane3) -> tuple:
    """Intersection point of a line with a plane not containing it, by
    eliminating on x = alpha*p + beta*s."""
    a, p, s = plane.a, line.p, line.s
    ap = sum((a[l] * p[l] for l in range(4)), start=a[0] * 0)
    asx = sum((a[l] * s[l] for l in range(4)), start=a[0] * 0)
    if ap == 0 and asx == 0:
        raise LineInPlane("line lies in the plane")
    if ap == 0:
        return tuple(p)
    # alpha*ap + beta*as = 0 with beta = 1
    alpha = -asx / ap
    return tuple(alpha * p[r] + s[r] for r in range(4))


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def plane_coords(i: int, x) -> tuple:
    """Drop the i-th homogeneous coordinate."""
    keep = PLANE_COORD_INDICES[i]
    return (x[keep[0]], x[keep[1]], x[keep[2]])


def chart_embed(point: ChartPoint):
    """Map chart coordinates to the pair (plane, conic coefficient 6-vector)."""
    ch = point.chart
    plane = Plane3(insert_one(point.a, ch.i))
    coeffs = insert_one(point.b, ch.j)
    return plane, coeffs


def chart_coords(plane: Plane3, coeffs, chart: Chart) -> ChartPoint:
    """Inverse of chart_embed on the chart's domain."""
    coeffs = coerce_scalars(coeffs)
    ai = plane.a[chart.i]
    bj = coeffs[chart.j]
    if ai == 0 or bj == 0:
        raise NotInChart(f"point not in chart ({chart.i},{chart.j})")
    a = tuple(plane.a[k] / ai for k in range(4) if k != chart.i)
    b = tuple(coeffs[k] / bj for k in range(6) if k != chart.j)
    return ChartPoint(chart, a, b)


def conic_value(coeffs, z):
    """Evaluate the quadratic with the given 6 coefficients at z=(z0,z1,z2)."""
    z0, z1, z2 = z
    return (
        coeffs[0] * z0 * z0
        + coeffs[1] * z1 * z1
        + coeffs[2] * z2 * z2
        + coeffs[3] * z1 * z2
        + coeffs[4] * z0 * z2
        + coeffs[5] * z0 * z1
    )


def conic_matrix(coeffs):
    """The symmetric matrices M (..., 3, 3) of the conics q with
    coefficients (..., 6), scaled so that z^T M z = 2 q(z): row by row, the
    coefficient in each entry and its scale.  No division, so any scalar
    serves."""
    c = np.asarray(coeffs)
    m = c[..., [0, 5, 4, 5, 1, 3, 4, 3, 2]] * [2, 1, 1, 1, 2, 1, 1, 1, 2]
    return m.reshape(c.shape[:-1] + (3, 3))


def conic_substitution(coeffs, s):
    """The coefficients (..., 6) of the conics z -> q(s z), for conics q with
    coefficients (..., 6) and matrices s (..., 3, 3): the form S^T M S, read
    back from `conic_matrix`'s scaling."""
    # einsum rounds each complex product as scalar arithmetic does, where
    # numpy's vectorized complex multiply fuses multiply-adds: the tracker's
    # chart switches, and so its paths, keep the bits of one point at a time
    ms = np.einsum("...rc,...cv->...rv", conic_matrix(coeffs), s)
    sms = np.einsum("...ru,...rv->...uv", s, ms)
    return sms.reshape(sms.shape[:-2] + (9,))[..., [0, 4, 8, 5, 2, 1]] / [2, 2, 2, 1, 1, 1]


def conic_coeffs_transition(a, coeffs, i_from, i_to):
    """Rewrite conic coefficients (..., 6) on the planes a (..., 4) from
    chart-i_from to chart-i_to plane coordinates; i_from and i_to are
    plane charts, one for all points or one per point.

    On the plane, the dropped coordinate is an affine-linear function of the
    kept ones; substituting it into the quadratic gives the rewritten form.
    Object arrays of Fraction or finite-field elements stay exact and raise
    NotInChart where a[i_to] vanishes; other arrays, integers included,
    divide as floats and give inf or nan there.
    """
    shape = np.broadcast_shapes(np.shape(a)[:-1], np.shape(coeffs)[:-1], np.shape(i_from), np.shape(i_to))
    a = np.broadcast_to(a, shape + (4,))
    i_from, i_to = np.broadcast_to(i_from, shape), np.broadcast_to(i_to, shape)
    pivot = np.take_along_axis(a, i_to[..., None], -1)
    if a.dtype == object and (pivot == 0).any():
        raise NotInChart("plane coefficient i_to vanishes")
    keep = np.array(PLANE_COORD_INDICES)
    idx_from, idx_to = keep[i_from], keep[i_to]
    # z_from = s z_to: each kept coordinate is a chart-i_to coordinate, or
    # the dropped one solved from the plane's equation
    solved = -np.take_along_axis(a, idx_to, -1) / pivot
    unit = (idx_from[..., :, None] == idx_to[..., None, :]).astype(int)
    s = np.where((idx_from == i_to[..., None])[..., None], solved[..., None, :], unit)
    return conic_substitution(coeffs, s)


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenericityReport:
    pairwise_skew: bool
    distinct_points: bool
    skew_failures: tuple
    point_failures: tuple

    @property
    def passed(self) -> bool:
        return self.pairwise_skew and self.distinct_points

    def to_json(self) -> dict:
        return {
            "pairwise_skew": self.pairwise_skew,
            "distinct_points": self.distinct_points,
            "skew_failures": [list(f) for f in self.skew_failures],
            "point_failures": [list(f) for f in self.point_failures],
            "pass": self.passed,
        }


def genericity_check(lines) -> GenericityReport:
    """Cheap syntactic genericity: pairwise skewness and distinct representatives.

    Full genericity is certified downstream by the solver finding 92 simple
    zeros.
    """
    n = len(lines)
    skew_failures = []
    point_failures = []
    for m in range(n):
        for k in range(m + 1, n):
            rows = [lines[m].p, lines[m].s, lines[k].p, lines[k].s]
            if det(rows) == 0:
                skew_failures.append((m, k))
            for u, x in (("p", lines[m].p), ("s", lines[m].s)):
                for v, y in (("p", lines[k].p), ("s", lines[k].s)):
                    if proj_equal(x, y):
                        point_failures.append((m, u, k, v))
    return GenericityReport(
        pairwise_skew=not skew_failures,
        distinct_points=not point_failures,
        skew_failures=tuple(skew_failures),
        point_failures=tuple(point_failures),
    )
