"""Shared test utilities: an expanded-polynomial oracle, the exact test
oracles of the section, of the line-plane intersection and of the
trivializing points, set matching, an exact relative residual and the
reference tracker."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from conics92.errors import Conics92Error, LineInPlane
from conics92.geometry import (
    PLANE_COORD_INDICES,
    Chart,
    ChartPoint,
    Line3,
    Plane3,
    conic_value,
    insert_one,
    plane_coords,
)
from conics92.linalg import det
from conics92.section import (
    SectionSystem,
    eval_section,
    evaluate,
    jacobian,
    monomial_vector,
    orientation_sign,
)
from conics92 import solver
from conics92.solver import ConicSolution, _pair_dists


# errors raised only by the oracles below

class DegeneratePoint(Conics92Error):
    """A trivialization point degenerated to the zero vector."""


class DegenerateConfiguration(Conics92Error):
    """The five points do not impose independent conditions on conics."""


class ConePoint(Conics92Error):
    """Tangent data was requested at the cone point (0,0,0)."""


class Poly:
    """Sparse multivariate polynomial over Q, used as a differentiation
    oracle: exponent-tuple -> coefficient."""

    def __init__(self, terms=None, nvars=8):
        self.nvars = nvars
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, c, nvars=8):
        c = Fraction(c)
        return cls({(0,) * nvars: c} if c else {}, nvars)

    @classmethod
    def var(cls, k, nvars=8):
        e = [0] * nvars
        e[k] = 1
        return cls({tuple(e): Fraction(1)}, nvars)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.nvars)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
            if out[e] == 0:
                del out[e]
        return Poly(out, self.nvars)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.nvars)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
                if out[e] == 0:
                    del out[e]
        return Poly(out, self.nvars)

    __rmul__ = __mul__

    def diff(self, k):
        out = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            e2 = list(e)
            e2[k] -= 1
            out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[k]
        return Poly(out, self.nvars)

    def eval(self, xs):
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, p in zip(xs, e):
                for _ in range(p):
                    v = v * x
            total += v
        return total


def expanded_section_polys(system):
    """Fully expanded components of the chart section as Poly objects in
    the 8 chart variables (a1,a2,a3,b1..b5)."""
    j = system.chart.j
    avars = [Poly.var(k) for k in range(3)]
    bvars = [Poly.var(3 + k) for k in range(5)]
    coeffs = insert_one(bvars, j, Poly.const(1))
    out = []
    for zm in system.zmaps:
        z = []
        for r in range(3):
            acc = Poly.const(zm[r][0])
            for c in range(3):
                acc = acc + Poly.const(zm[r][c + 1]) * avars[c]
            z.append(acc)
        phi = (
            coeffs[0] * z[0] * z[0]
            + coeffs[1] * z[1] * z[1]
            + coeffs[2] * z[2] * z[2]
            + coeffs[3] * z[1] * z[2]
            + coeffs[4] * z[0] * z[2]
            + coeffs[5] * z[0] * z[1]
        )
        out.append(phi)
    return out


def meet_plane(line: Line3, plane: Plane3) -> tuple:
    """Intersection point of a line with a plane not containing it.

    Coordinate r of the result is sum_l a_l (p_l s_r - p_r s_l); the output
    is bilinear in (a, p, s) and lies on both the line and the plane.
    """
    a, p, s = plane.a, line.p, line.s
    x = tuple(
        sum((a[l] * (p[l] * s[r] - p[r] * s[l]) for l in range(4)), start=a[0] * 0)
        for r in range(4)
    )
    if all(v == 0 for v in x):
        raise LineInPlane("line lies in the plane")
    return x


def conic_gradient(coeffs, z) -> tuple:
    """Gradient in z of the conic with the given 6 coefficients."""
    z0, z1, z2 = z
    return (
        2 * coeffs[0] * z0 + coeffs[4] * z2 + coeffs[5] * z1,
        2 * coeffs[1] * z1 + coeffs[3] * z2 + coeffs[5] * z0,
        2 * coeffs[2] * z2 + coeffs[3] * z1 + coeffs[4] * z0,
    )


def conic_through_5(points) -> tuple:
    """Coefficients of the unique conic through 5 points in general position.

    Coefficient k is the signed 5x5 minor obtained by deleting column k of
    the 5x6 monomial matrix, with sign (-1)^k; this matches expanding the
    bordered 6x6 monomial determinant along its first row.
    """
    if len(points) != 5:
        raise ValueError("need exactly 5 points")
    m = [monomial_vector(z) for z in points]
    coeffs = []
    for k in range(6):
        minor = [[row[c] for c in range(6) if c != k] for row in m]
        d = det(minor)
        coeffs.append(d if k % 2 == 0 else -d)
    if all(c == 0 for c in coeffs):
        raise DegenerateConfiguration("5 points do not determine a conic")
    return tuple(coeffs)


def jacobian_via_laplace(system: SectionSystem, point: ChartPoint):
    """Jacobian determinant by Laplace expansion along the three a-rows.

    The complementary 5x5 minors are packaged as coefficients of the conic
    through the complementary five intersection points, with sign
    (-1)^(u+v+w+j) for 1-based column triples (u,v,w).
    """
    rec = jacobian(system, point)
    a_rows = rec.matrix[:3]
    zs = system.point_reps(point)
    j = system.chart.j
    total = rec.determinant * 0
    for u, v, w in combinations(range(1, 9), 3):
        a3 = det([[a_rows[r][n - 1] for n in (u, v, w)] for r in range(3)])
        if a3 == 0:
            continue
        comp = [zs[n - 1] for n in range(1, 9) if n not in (u, v, w)]
        try:
            f = conic_through_5(comp)
        except DegenerateConfiguration:
            continue  # the coefficient vector is zero; minor contributes nothing
        sign = -1 if (u + v + w + j) % 2 else 1
        total = total + sign * a3 * f[j]
    return orientation_sign(system.chart) * total


def tangent_diagnostics(system: SectionSystem, point: ChartPoint, n: int, ell: int) -> dict:
    """Gradient of the conic at the n-th intersection representative and the
    deviation of its a_ell-perturbation from the tangent plane.

    The deviation equals the Jacobian entry (a_ell, n); internally checks
    grad(p).(p + dp/da_ell) = deviation + 2*section_n since grad(p).p is
    twice the section value.
    """
    coeffs = system.coefficients(point)
    z = system.point_reps(point)[n]
    if all(c == 0 for c in z):
        raise ConePoint("intersection representative degenerated to the cone point")
    grad = conic_gradient(coeffs, z)
    dz = tuple(system.zmaps[n][r][ell] for r in range(3))
    deviation = sum(grad[r] * dz[r] for r in range(3))
    shifted = sum(grad[r] * (z[r] + dz[r]) for r in range(3))
    phi_n = conic_value(coeffs, z)
    check = shifted - (deviation + 2 * phi_n)
    if isinstance(check, (float, complex)):
        scale = max(1.0, abs(complex(shifted)))
        if abs(complex(check)) > 1e-9 * scale:
            raise AssertionError("tangent-plane identity failed beyond roundoff")
    elif check != 0:
        raise AssertionError("tangent-plane identity failed")
    return {"gradient": grad, "deviation": deviation}


def trivialization_point(chart: Chart, plane: Plane3) -> tuple:
    """Distinguished point of the chart's reference locus on the plane.

    For j <= 2 the locus is the coordinate line where both other plane
    coordinates vanish; for j >= 3 it is the line where coordinate j-3
    vanishes and the remaining two are equal.
    """
    i, j = chart.i, chart.j
    a = plane.a
    keep = PLANE_COORD_INDICES[i]
    zero = a[0] * 0
    pt = [zero, zero, zero, zero]
    if j <= 2:
        u = keep[j]
        pt[u] = a[i] + zero
        pt[i] = -a[u]
    else:
        u = keep[j - 3]
        v, w = (amb for amb in keep if amb != u)
        pt[v] = a[i] + zero
        pt[w] = a[i] + zero
        pt[i] = -(a[v] + a[w])
    if all(x == 0 for x in pt):
        raise DegeneratePoint(f"trivialization point degenerates in chart ({i},{j})")
    return tuple(pt)


def trivialization_value(chart: Chart, a, coeffs):
    """Value of the trivializing section at (H_a, q_coeffs).

    Evaluating the conic at the chart's reference point isolates a_i^2*b_j
    for the square-monomial charts; the cross-term charts subtract the two
    square contributions picked up at their reference point.  The result is
    identically a_i^2 * b_j.
    """
    i, j = chart.i, chart.j
    plane = Plane3(tuple(a))
    val = conic_value(coeffs, plane_coords(i, trivialization_point(chart, plane)))
    if j >= 3:
        for jj in range(3):
            if jj != j - 3:
                sq = conic_value(
                    coeffs, plane_coords(i, trivialization_point(Chart(i, jj), plane))
                )
                val = val - sq
    return val


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a matrix of integers, by Gauss-Jordan elimination."""
    m = [[int(v) % p for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] * inv % p
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_jacobian_mod_p(lines, point, p: int) -> list:
    """The chart Jacobian, rows (a1,a2,a3,b1..b5) and columns by line, at an
    F_p-point of the section of 8 lines over F_p, from the expanded
    polynomials, as integers mod p.

    Lines and point are lifted to integers; the expanded polynomials then
    have integer coefficients, so differentiating over Q and reducing the
    values mod p gives the Jacobian over F_p.
    """
    lifted = [
        Line3(tuple(v.value for v in ln.p), tuple(v.value for v in ln.s))
        for ln in lines
    ]
    polys = expanded_section_polys(SectionSystem(point.chart, lifted))
    xs = [v.value for v in point.a] + [v.value for v in point.b]
    return [[int(polys[n].diff(v).eval(xs)) % p for n in range(8)] for v in range(8)]


def oracle_jacobian_rank_mod_p(lines, point, p: int) -> int:
    """Rank of `oracle_jacobian_mod_p` over F_p."""
    return rank_mod_p(oracle_jacobian_mod_p(lines, point, p), p)


def conj_solution(s: ConicSolution) -> ConicSolution:
    return ConicSolution(
        chart=s.chart,
        a=tuple(np.conj(s.a)),
        b=tuple(np.conj(s.b)),
        det_jac=np.conj(s.det_jac),
        reality=s.reality,
        sign=s.sign,
        residual=s.residual,
    )


def match_solution_sets(sa, sb, tol=1e-6) -> bool:
    """True when the two sets are in bijection as moduli points (either
    member of a conjugate pair may be the stored representative)."""
    if sa.count != sb.count:
        return False
    a, b = sa.solutions, sb.solutions
    pair = np.array([v.reality == "pair" for v in b], dtype=bool)
    d = _pair_dists(a, b)
    conj = _pair_dists(a, [conj_solution(v) for v in b if v.reality == "pair"])
    d[:, pair] = np.minimum(d[:, pair], conj)
    close = (d < tol) & np.equal.outer([u.reality for u in a], [v.reality for v in b])
    used = np.zeros(len(b), dtype=bool)
    for row in close:
        hit = np.flatnonzero(row & ~used)
        if not hit.size:
            return False
        used[hit[0]] = True
    return True


def same_real_zeros(sa, sb, tol=1e-9) -> bool:
    """True when the two sets have the same real zeros, each within tol of
    a real zero of the other set with the same sign."""
    ra, rb = sa.real_solutions, sb.real_solutions
    if len(ra) != len(rb):
        return False
    close = (_pair_dists(ra, rb) < tol) & np.equal.outer([u.sign for u in ra], [v.sign for v in rb])
    return bool(close.any(axis=1).all())


def relative_section_residual(lines, sol: ConicSolution) -> float:
    """The largest |component| of the exact section at a solution, each
    relative to the sum of the magnitudes of its terms: the measure of the
    benchmark's output check, small only where every line's own equation
    holds to its digits."""
    chart = Chart(*sol.chart)
    point = ChartPoint(chart, tuple(map(complex, sol.a)), tuple(map(complex, sol.b)))
    system = SectionSystem(chart, lines)
    coeffs = system.coefficients(point)
    worst = 0.0
    for value, z in zip(eval_section(system, point), system.point_reps(point)):
        terms = sum(abs(c) * abs(m) for c, m in zip(coeffs, monomial_vector(z)))
        worst = max(worst, abs(value) / terms if terms else abs(value))
    return worst


def reference_track_block(hom, starts, charts):
    """The tracker as it was before each step shared z(t) and stopped its
    corrector early: RK4 with four fresh tangent solves, then three Newton
    corrections that always run; returns the status, endpoint, chart and
    step count of each path."""
    n = starts.shape[0]
    x = starts.astype(complex)
    charts = charts.copy()
    t = np.ones(n)
    dt = np.full(n, solver._DT_INIT)
    nsucc = np.zeros(n, dtype=int)
    steps = np.zeros(n, dtype=int)
    status = np.full(n, solver._ACTIVE, dtype=int)

    def h_eval(xs, ts, cs):
        z, dz = hom.at(ts, cs[:, 0])
        return evaluate(z, xs, cs[:, 1], True, dz)

    def h_tangent(xs, ts, cs):
        _, hx, ht = h_eval(xs, ts, cs)
        return solver._batch_solve(hx, ht)

    def h_newton(xs, ts, cs):
        h, hx, _ = h_eval(xs, ts, cs)
        return solver._batch_solve(hx, h)

    while True:
        idx = np.flatnonzero(status == solver._ACTIVE)
        if idx.size == 0:
            break
        far = idx[np.max(np.abs(x[idx]), axis=1) > solver._CHART_NORM]
        if far.size:
            charts[far], x[far] = solver._to_chart(x[far], charts[far])
        xs, ts, cs, hs = x[idx], t[idx], charts[idx], np.minimum(dt[idx], t[idx])

        k1 = h_tangent(xs, ts, cs)
        k2 = h_tangent(xs + (hs / 2)[:, None] * k1, ts - hs / 2, cs)
        k3 = h_tangent(xs + (hs / 2)[:, None] * k2, ts - hs / 2, cs)
        k4 = h_tangent(xs + hs[:, None] * k3, ts - hs, cs)
        xp = xs + (hs / 6)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
        tn = ts - hs

        delta = None
        for _ in range(solver._CORRECTOR_ITERS):
            delta = h_newton(xp, tn, cs)
            xp = xp - delta
        ok = np.isfinite(xp).all(axis=1)
        move = np.max(np.abs(delta), axis=1)
        ok &= move <= 1e-8 * (1 + np.max(np.abs(xp), axis=1))

        acc = idx[ok]
        x[acc] = xp[ok]
        t[acc] = tn[ok]
        nsucc[acc] += 1
        grow = acc[nsucc[acc] >= solver._GROW_AFTER]
        dt[grow] = np.minimum(dt[grow] * 1.5, solver._DT_MAX)
        nsucc[grow] = 0
        rej = idx[~ok]
        dt[rej] *= 0.5
        nsucc[rej] = 0
        status[rej[dt[rej] < solver._DT_MIN]] = solver._FAILED

        steps[idx] += 1
        status[idx[steps[idx] >= solver._MAX_STEPS]] = solver._FAILED
        done = idx[t[idx] <= 0]
        status[done[status[done] == solver._ACTIVE]] = solver._REACHED

    return status, x, charts, steps
