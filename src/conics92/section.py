"""The incidence section and its Jacobian in a fixed chart, for every scalar.

Component n of the section is the chart-normalized conic evaluated at a
fixed affine representative of the intersection of line n with the moving
plane.  That representative is affine-linear in the plane coordinates, so
each component is a polynomial of total degree 3 in (a1,a2,a3,b1,...,b5).

This module holds the one section kernel: `chart_tensor`, `_plane_and_conic`,
`_chart_points`, `_section` (with `monomials`), `_gradient`, `_plane_columns`
and `_jacobian`.  They are plain numpy array code, so the same functions
serve every scalar: float and complex arrays in the tracker
(`solver.NumericChartSystem`, `solver.ParameterHomotopy`), object arrays of
Fraction, PrimeFieldElement or QuadExtElement in the exact `SectionSystem`,
and, by `MONOMIAL_SLOTS`, F_p matrices of F_q elements in the brute force.
`_gradient` takes each conic's symmetric matrix from `geometry.conic_matrix`,
which the chart transition uses too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularZero
from .fields import QuadExtElement
from .geometry import PLANE_COORD_INDICES, Chart, ChartPoint, conic_matrix
from .gw import GwForm, trace_form
from .linalg import det


def chart_tensor(i: int, p, s) -> np.ndarray:
    """The (8, 3, 4) tensor of the lines spanned by the rows of p and s
    (8, 4) in plane chart i: up to sign, z[n] @ (1, a) is the point where
    line n meets the plane a, in the chart-i plane coordinates.  Bilinear
    in (p, s)."""
    keep = PLANE_COORD_INDICES[i]
    m = p[:, None, :] * s[:, :, None] - p[:, :, None] * s[:, None, :]
    return np.ascontiguousarray(m[:, keep][:, :, (i,) + keep])


def _plane_and_conic(x, j):
    """The plane vectors (1, a) (N, 4), the conic coefficients (N, 6) and
    the mask of their free slots (N, 6) of chart points x (N, 8), whose
    conic chart j is one for all points or one per point (N,)."""
    n = x.shape[0]
    free = np.broadcast_to(np.arange(6) != np.reshape(j, (-1, 1)), (n, 6))
    c = np.ones((n, 6), dtype=x.dtype)
    c[free] = x[:, 3:].ravel()
    return np.concatenate([np.ones((n, 1), dtype=x.dtype), x[:, :3]], axis=1), c, free


def _jacobian(ja, mon, free):
    """The chart Jacobian (N, 8, 8): the plane columns ja, then the conic
    monomials of the free slots."""
    jb = mon[np.broadcast_to(free[:, None, :], mon.shape)].reshape(mon.shape[0], 8, 5)
    return np.concatenate([ja, jb], axis=2)


# the factors' slots of the conic monomials z0^2, z1^2, z2^2, z1 z2, z0 z2, z0 z1
MONOMIAL_SLOTS = ([0, 1, 2, 1, 0, 0], [0, 1, 2, 2, 2, 1])


def monomials(z):
    """The conic monomials (..., 6) of the points z (..., 3)."""
    return z[..., MONOMIAL_SLOTS[0]] * z[..., MONOMIAL_SLOTS[1]]


def _section(z, c):
    """The monomial kernel of every section evaluation: for the points z
    (N, 8, 3) where the lines meet the plane and conic coefficients c
    (N, 6), the values sum_k c_k mon_k(z) (N, 8) and the monomials
    (N, 8, 6)."""
    mon = monomials(z)
    return np.einsum("Nnk,Nk->Nn", mon, c), mon


def _gradient(z, c):
    """The gradient in z (N, 8, 3) of the conics c (N, 6) at the points z."""
    return z @ conic_matrix(c)


def _chart_points(zm, x, j):
    """The points z (N, 8, 3) where the lines of the chart tensor zm
    (8, 3, 4) meet the planes of the chart points x (N, 8) of conic chart
    j, with the conic coefficients and free slots of `_plane_and_conic`."""
    abar, c, free = _plane_and_conic(x, j)
    return np.einsum("nrc,Nc->Nnr", zm, abar), c, free


def _plane_columns(zm, z, c):
    """The plane columns (N, 8, 3) of the Jacobian, by the chain rule: the
    gradient at z times dz/da, the last three columns of zm (8, 3, 4)."""
    return np.einsum("Nnr,nrl->Nnl", _gradient(z, c), zm[:, :, 1:4])


def monomial_vector(z) -> tuple:
    """The conic monomials of one point z = (z0, z1, z2)."""
    return tuple(monomials(np.asarray(z, dtype=object)))


def orientation_sign(chart: Chart) -> int:
    """Orientation of chart (i,j) relative to chart (0,0).

    Dropping different homogeneous slots flips the chart-transition
    Jacobians by (-1)^(i+m) on the plane factor and (-1)^(j+n) on the conic
    factor while every other transition factor is an even power, so this
    sign is exactly what makes determinants of different charts agree up to
    nonzero squares.
    """
    return -1 if (chart.i + chart.j) % 2 else 1


class SectionSystem:
    """Eight lines viewed through one chart, in the lines' own scalars.

    For line n the affine representative of its intersection with the
    moving plane is z^n = zmaps[n] @ (1, a1, a2, a3); `zmaps` is the
    chart's (8, 3, 4) tensor as an object array, computed once at
    construction.
    """

    def __init__(self, chart: Chart, lines):
        if len(lines) != 8:
            raise ValueError("need exactly 8 lines")
        self.chart = chart
        self.lines = tuple(lines)
        rows = np.array([[ln.p for ln in self.lines], [ln.s for ln in self.lines]], dtype=object)
        self.zmaps = chart_tensor(chart.i, *rows)

    def _points(self, point: ChartPoint):
        """The kernel's points z (1, 8, 3), conic coefficients and free
        slots at one chart point."""
        return _chart_points(self.zmaps, np.array([point.a + point.b], dtype=object), self.chart.j)

    def point_reps(self, point: ChartPoint) -> np.ndarray:
        """Affine representatives z^n (8, 3) of the 8 intersection points."""
        return self._points(point)[0][0]

    def coefficients(self, point: ChartPoint) -> tuple:
        return tuple(self._points(point)[1][0])


@dataclass(frozen=True)
class JacobianRecord:
    """8x8 Jacobian with rows (a1,a2,a3,b1..b5) and columns indexed by line."""

    matrix: tuple
    determinant: object


def eval_section(system: SectionSystem, point: ChartPoint) -> tuple:
    z, c, _ = system._points(point)
    return tuple(_section(z, c)[0][0])


def jacobian(system: SectionSystem, point: ChartPoint) -> JacobianRecord:
    """Exact chart Jacobian: b-rows are monomials of the intersection
    representatives, a-rows come from the chain rule with constant dz/da.

    The determinant carries the chart's orientation sign, so values taken
    in different charts at a common zero differ by nonzero squares.
    """
    z, c, free = system._points(point)
    jmat = _jacobian(_plane_columns(system.zmaps, z, c), monomials(z), free)
    matrix = tuple(map(tuple, jmat[0].T))
    d = orientation_sign(system.chart) * det(matrix)
    return JacobianRecord(matrix=matrix, determinant=d)


def local_index(system: SectionSystem, point: ChartPoint, reality: str = "rational") -> GwForm:
    """The weight of a zero: `trace_form` of its Jacobian determinant,
    rank 1 for points over the base field and rank 2 for conjugate pairs
    or quadratic-extension points."""
    rec = jacobian(system, point)
    d = rec.determinant
    if d == 0:
        raise SingularZero("Jacobian determinant vanishes at this zero")
    if reality == "pair":
        if not isinstance(d, (complex, QuadExtElement)):
            raise ValueError("conjugate-pair index needs a non-real determinant type")
    elif isinstance(d, complex):
        # a zero over C, not one of a pair: <d> over R when d is real
        return GwForm.unit(d.real if d.imag == 0 else d)
    return trace_form(d)
