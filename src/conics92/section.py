"""The incidence section and its Jacobian in a fixed chart, for every scalar.

Component n of the section is the chart-normalized conic evaluated at a
fixed affine representative of the intersection of line n with the moving
plane.  That representative is affine-linear in the plane coordinates, so
each component is a polynomial of total degree 3 in (a1,a2,a3,b1,...,b5).

This module holds the one section kernel: `chart_tensor` builds a chart's
lines as an (8, 3, 4) tensor, and `evaluate` is the one place its steps are
chained: the points where the lines meet the plane (`_chart_points`), the
values sum_k c_k mon_k (`monomials`), the gradient z M(c) with M from
`geometry.conic_matrix`, which the chart transition uses too, and by the
chain rule the Jacobian and the t-derivative.  It is plain numpy array code,
so it serves every scalar: float and complex arrays in the tracker
(`solver.NumericChartSystem` and `solver._track_block`), object arrays of
Fraction, PrimeFieldElement or QuadExtElement in the exact `SectionSystem`,
and, by `MONOMIAL_SLOTS`, F_p matrices of F_q elements in the brute force.
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


# the factors' slots of the conic monomials z0^2, z1^2, z2^2, z1 z2, z0 z2, z0 z1
MONOMIAL_SLOTS = ([0, 1, 2, 1, 0, 0], [0, 1, 2, 2, 2, 1])


def monomials(z):
    """The conic monomials (..., 6) of the points z (..., 3)."""
    return z[..., MONOMIAL_SLOTS[0]] * z[..., MONOMIAL_SLOTS[1]]


def _chart_points(z, abar):
    """The points (N, 8, 3) where the lines of the chart tensor z, one
    (8, 3, 4) for every plane or one per plane (N, 8, 3, 4), meet the planes
    (1, a) abar (N, 4)."""
    return np.einsum("...nrc,...c->...nr", z, abar)


def evaluate(z, x, j, jac=False, dz=None):
    """The section H (N, 8) at the chart points x (N, 8) of conic chart j
    (one for all points or one per point) on the chart tensor z, shared
    (8, 3, 4) or per point (N, 8, 3, 4); with jac also its Jacobian H_x
    (N, 8 eq, 8 var), the plane columns by the chain rule through
    dz/da = z[..., 1:4] and then the monomials of the free conic slots;
    given the tensor's t-derivative dz, also H_t (N, 8)."""
    abar, c, free = _plane_and_conic(x, j)
    pts = _chart_points(z, abar)
    mon = monomials(pts)
    h = np.einsum("Nnk,Nk->Nn", mon, c)
    grad = pts @ conic_matrix(c) if jac or dz is not None else None
    hx = ht = None
    if jac:
        ja = np.einsum("...nr,...nrl->...nl", grad, z[..., 1:4])
        jb = mon[np.broadcast_to(free[:, None, :], mon.shape)].reshape(len(mon), 8, 5)
        hx = np.concatenate([ja, jb], axis=2)
    if dz is not None:
        ht = np.einsum("Nnr,Nnr->Nn", grad, _chart_points(dz, abar))
    return h, hx, ht


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

    def _args(self, point: ChartPoint) -> tuple:
        """The kernel's arguments at one chart point: the chart tensor, the
        point as a one-row object array and the conic chart."""
        return self.zmaps, np.array([point.a + point.b], dtype=object), self.chart.j

    def point_reps(self, point: ChartPoint) -> np.ndarray:
        """Affine representatives z^n (8, 3) of the 8 intersection points."""
        z, x, j = self._args(point)
        return _chart_points(z, _plane_and_conic(x, j)[0])[0]

    def coefficients(self, point: ChartPoint) -> tuple:
        return tuple(_plane_and_conic(*self._args(point)[1:])[1][0])


@dataclass(frozen=True)
class JacobianRecord:
    """8x8 Jacobian with rows (a1,a2,a3,b1..b5) and columns indexed by line."""

    matrix: tuple
    determinant: object


def eval_section(system: SectionSystem, point: ChartPoint) -> tuple:
    return tuple(evaluate(*system._args(point))[0][0])


def jacobian(system: SectionSystem, point: ChartPoint) -> JacobianRecord:
    """Exact chart Jacobian: b-rows are monomials of the intersection
    representatives, a-rows come from the chain rule with constant dz/da.

    The determinant carries the chart's orientation sign, so values taken
    in different charts at a common zero differ by nonzero squares.
    """
    matrix = tuple(map(tuple, evaluate(*system._args(point), jac=True)[1][0].T))
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
