import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from conics92.errors import LineInPlane, NotInChart
from conics92.fields import PrimeField, QuadExtField
from conics92.geometry import (
    Chart,
    ChartPoint,
    Line3,
    Plane3,
    all_charts,
    chart_coords,
    chart_embed,
    conic_coeffs_transition,
    conic_value,
    genericity_check,
    meet_plane_oracle,
    plane_coords,
    proj_equal,
)

from helpers import DegeneratePoint, meet_plane, trivialization_point, trivialization_value


def rnd_line(rng, bound=9):
    while True:
        try:
            return Line3(
                tuple(rng.randint(-bound, bound) for _ in range(4)),
                tuple(rng.randint(-bound, bound) for _ in range(4)),
            )
        except ValueError:
            continue


def rnd_plane(rng, bound=9):
    while True:
        a = tuple(rng.randint(-bound, bound) for _ in range(4))
        if any(v != 0 for v in a):
            return Plane3(a)


def test_meet_plane_examples():
    line = Line3((1, 0, 0, 0), (0, 1, 0, 0))
    assert proj_equal(meet_plane(line, Plane3((1, 1, 0, 0))), (-1, 1, 0, 0))
    assert proj_equal(meet_plane(line, Plane3((1, 2, 0, 0))), (-2, 1, 0, 0))
    with pytest.raises(LineInPlane):
        meet_plane(line, Plane3((0, 0, 1, 0)))


def test_meet_plane_oracle_agreement():
    rng = random.Random(0)
    hits = 0
    while hits < 100:
        line, plane = rnd_line(rng), rnd_plane(rng)
        try:
            x = meet_plane(line, plane)
        except LineInPlane:
            with pytest.raises(LineInPlane):
                meet_plane_oracle(line, plane)
            continue
        y = meet_plane_oracle(line, plane)
        assert proj_equal(x, y)
        # the point lies on the plane and on the line
        assert sum(plane.a[k] * x[k] for k in range(4)) == 0
        hits += 1


def test_meet_plane_oracle_line_in_plane():
    line = Line3((1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(LineInPlane):
        meet_plane_oracle(line, Plane3((0, 0, 1, 0)))


def test_meet_plane_multilinear_scaling():
    rng = random.Random(1)
    for _ in range(30):
        line, plane = rnd_line(rng), rnd_plane(rng)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        try:
            x = meet_plane(line, plane)
        except LineInPlane:
            continue
        scaled_p = Line3(tuple(lam * v for v in line.p), line.s)
        assert meet_plane(scaled_p, plane) == tuple(lam * v for v in x)
        scaled_s = Line3(line.p, tuple(lam * v for v in line.s))
        assert meet_plane(scaled_s, plane) == tuple(lam * v for v in x)
        scaled_a = Plane3(tuple(lam * v for v in plane.a))
        assert meet_plane(line, scaled_a) == tuple(lam * v for v in x)


def test_chart_embed_examples():
    plane, coeffs = chart_embed(ChartPoint(Chart(0, 0), (0, 0, 0), (0, 0, 0, 0, 0)))
    assert plane.a == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    plane, coeffs = chart_embed(ChartPoint(Chart(1, 3), (2, 3, 4), (5, 6, 7, 8, 9)))
    assert plane.a == (2, 1, 3, 4)
    assert coeffs == (5, 6, 7, 1, 8, 9)


def test_chart_coords_examples():
    pt = chart_coords(Plane3((2, 1, 0, 0)), (1, 0, 0, 0, 0, 0), Chart(0, 0))
    assert pt.a == (Fraction(1, 2), Fraction(0), Fraction(0))
    with pytest.raises(NotInChart):
        chart_coords(Plane3((2, 1, 0, 0)), (0, 1, 0, 0, 0, 0), Chart(0, 0))
    with pytest.raises(NotInChart):
        chart_coords(Plane3((0, 1, 0, 0)), (1, 0, 0, 0, 0, 0), Chart(0, 0))


def test_chart_round_trip():
    rng = random.Random(2)
    for _ in range(50):
        chart = Chart(rng.randrange(4), rng.randrange(6))
        pt = ChartPoint(
            chart,
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)),
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)),
        )
        plane, coeffs = chart_embed(pt)
        assert chart_coords(plane, coeffs, chart) == pt


def test_plane_coords_rows():
    assert plane_coords(0, (7, 1, 2, 3)) == (1, 2, 3)
    assert plane_coords(2, (1, 2, 7, 3)) == (1, 2, 3)
    assert plane_coords(3, (0, 0, 0, 5)) == (0, 0, 0)


def test_trivialization_tabulated_rows():
    a = sp.symbols("a0:4")
    plane = Plane3(tuple(a))
    rows = {
        (0, 0): (-a[1], a[0], 0, 0),
        (0, 1): (-a[2], 0, a[0], 0),
        (0, 2): (-a[3], 0, 0, a[0]),
        (3, 0): (a[3], 0, 0, -a[0]),
        (3, 1): (0, a[3], 0, -a[1]),
        (3, 2): (0, 0, a[3], -a[2]),
        (0, 3): (-a[2] - a[3], 0, a[0], a[0]),
        (0, 4): (-a[1] - a[3], a[0], 0, a[0]),
        (0, 5): (-a[1] - a[2], a[0], a[0], 0),
        (3, 4): (a[3], 0, a[3], -a[0] - a[2]),
    }
    for (i, j), expected in rows.items():
        got = trivialization_point(Chart(i, j), plane)
        assert all(sp.simplify(g - e) == 0 for g, e in zip(got, expected))


def test_trivialization_point_on_reference_loci():
    # the point lies on the plane and on the chart's defining equations
    a = sp.symbols("a0:4")
    plane = Plane3(tuple(a))
    for chart in all_charts():
        pt = trivialization_point(chart, plane)
        assert sp.expand(sum(a[k] * pt[k] for k in range(4))) == 0
        z = plane_coords(chart.i, pt)
        if chart.j <= 2:
            others = [z[k] for k in range(3) if k != chart.j]
            assert all(sp.simplify(v) == 0 for v in others)
        else:
            m, n = [k for k in range(3) if k != chart.j - 3]
            assert sp.simplify(z[chart.j - 3]) == 0
            assert sp.simplify(z[m] - z[n]) == 0


def test_trivialization_value_closed_form():
    a = sp.symbols("a0:4")
    b = sp.symbols("b0:6")
    for chart in all_charts():
        val = trivialization_value(chart, a, b)
        assert sp.expand(val - a[chart.i] ** 2 * b[chart.j]) == 0


def test_trivialization_square_charts_direct():
    # for the square-monomial charts the conic value at the point is the
    # trivializing value itself
    a = sp.symbols("a0:4")
    b = sp.symbols("b0:6")
    plane = Plane3(tuple(a))
    for i in range(4):
        for j in range(3):
            pt = trivialization_point(Chart(i, j), plane)
            val = conic_value(b, plane_coords(i, pt))
            assert sp.expand(val - a[i] ** 2 * b[j]) == 0


def test_trivialization_degenerate_point():
    with pytest.raises(DegeneratePoint):
        trivialization_point(Chart(0, 0), Plane3((0, 0, 1, 0)))


def test_conic_transition_preserves_values():
    rng = random.Random(3)
    for _ in range(40):
        plane = rnd_plane(rng)
        nz = [k for k in range(4) if plane.a[k] != 0]
        if len(nz) < 2:
            continue
        i_from, i_to = rng.sample(nz, 2)
        coeffs = tuple(Fraction(rng.randint(-5, 5)) for _ in range(6))
        if all(v == 0 for v in coeffs):
            continue
        out = conic_coeffs_transition(plane.a, coeffs, i_from, i_to)
        # evaluate both forms at a point of the plane
        line = rnd_line(rng)
        try:
            y = meet_plane(line, plane)
        except LineInPlane:
            continue
        v1 = conic_value(coeffs, plane_coords(i_from, y))
        v2 = conic_value(out, plane_coords(i_to, y))
        assert v1 == v2
        # round trip is the identity
        back = conic_coeffs_transition(plane.a, out, i_to, i_from)
        assert tuple(back) == tuple(Fraction(v) for v in coeffs)
    # one call maps a batch of planes and conics, each between its own
    # charts, as one call per row does, in value and in scalar type
    f7, f9 = PrimeField(7), QuadExtField(3)
    for scalar in (
        lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        lambda: f7(rng.randint(0, 6)),
        lambda: f9(rng.randint(0, 2), rng.randint(0, 2)),
    ):
        rows = []
        while len(rows) < 12:
            a, c = [scalar() for _ in range(4)], [scalar() for _ in range(6)]
            i_from, i_to = rng.randrange(4), rng.randrange(4)
            if a[i_to] != 0:
                rows.append((a, c, i_from, i_to))
        a, c, i_from, i_to = (np.array(col, dtype=object) for col in zip(*rows))
        batch = conic_coeffs_transition(a, c, i_from.astype(int), i_to.astype(int))
        for out, (a, c, i_from, i_to) in zip(batch, rows):
            single = conic_coeffs_transition(tuple(a), tuple(c), i_from, i_to)
            assert list(out) == list(single)
            assert [type(v) for v in out] == [type(v) for v in single] == [type(a[0])] * 6
    with pytest.raises(NotInChart):
        conic_coeffs_transition((f7(1), f7(0), f7(2), f7(3)), [f7(1)] * 6, 0, 1)


def test_genericity_examples():
    l1 = Line3((1, 0, 0, 0), (0, 1, 0, 0))
    l2 = Line3((0, 0, 1, 0), (0, 0, 0, 1))
    rep = genericity_check([l1, l2])
    assert rep.passed
    shared = Line3((1, 0, 0, 0), (0, 0, 1, 0))
    rep = genericity_check([l1, shared])
    assert not rep.pairwise_skew and not rep.distinct_points
    assert (0, 1) in rep.skew_failures


def test_genericity_random_instance():
    from conics92.harness import gen_random_instance

    inst = gen_random_instance(42, 10)
    rep = genericity_check(inst.lines)
    assert rep.passed and rep.to_json()["pass"]


def test_line_validation():
    with pytest.raises(ValueError):
        Line3((1, 0, 0, 0), (2, 0, 0, 0))
    with pytest.raises(ValueError):
        Line3((0, 0, 0, 0), (1, 0, 0, 0))
