import random
from fractions import Fraction

import pytest

from conics92.errors import SingularZero
from conics92.fields import PrimeField, is_square
from conics92.geometry import (
    Chart,
    ChartPoint,
    Line3,
    Plane3,
    chart_coords,
    chart_embed,
    conic_coeffs_transition,
    insert_one,
    meet_plane_oracle,
    plane_coords,
    proj_equal,
)
from conics92.gw import GwForm, gw_equal, EQUAL
from conics92.section import (
    SectionSystem,
    eval_section,
    jacobian,
    local_index,
    monomial_vector,
    orientation_sign,
)

from helpers import (
    ConePoint,
    DegenerateConfiguration,
    Poly,
    conic_through_5,
    expanded_section_polys,
    jacobian_via_laplace,
    meet_plane,
    tangent_diagnostics,
)

from conics92.harness import gen_random_instance

# a genericity-checked configuration; ad-hoc line sets tend to be so special
# that the chart Jacobian vanishes identically
BASE_LINES = list(gen_random_instance(7, 6).lines)

# special lines for worked examples (line 0 is the hand-computed one)
EXAMPLE_LINES = [Line3((1, 1, 0, 0), (1, 0, 1, 0))] + BASE_LINES[:7]


def rnd_point(rng, chart=Chart(0, 0)):
    return ChartPoint(
        chart,
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)),
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)),
    )


def test_eval_section_worked_example():
    system = SectionSystem(Chart(0, 0), EXAMPLE_LINES)
    pt = ChartPoint(Chart(0, 0), (0, 0, 0), (0, 0, 0, 0, 0))
    vals = eval_section(system, pt)
    # plane V(y0), line 0 meets it at z = (-1, 1, 0); the conic is z0^2
    assert vals[0] == 1


def test_cached_maps_match_incidence_formula():
    rng = random.Random(0)
    for chart in (Chart(0, 0), Chart(2, 4), Chart(3, 1)):
        system = SectionSystem(chart, BASE_LINES)
        for _ in range(10):
            pt = rnd_point(rng, chart)
            plane, _ = chart_embed(pt)
            reps = system.point_reps(pt)
            for n, line in enumerate(BASE_LINES):
                assert tuple(reps[n]) == plane_coords(chart.i, meet_plane(line, plane))


def test_vanishing_iff_incidence(planted_instance):
    pt = planted_instance.planted_point
    system = SectionSystem(pt.chart, planted_instance.lines)
    assert all(v == 0 for v in eval_section(system, pt))
    plane, coeffs = chart_embed(pt)
    from conics92.geometry import conic_value

    for line in planted_instance.lines:
        x = meet_plane_oracle(line, plane)
        assert conic_value(coeffs, plane_coords(pt.chart.i, x)) == 0
    # perturbing the conic breaks incidence and the section is nonzero
    bumped = ChartPoint(pt.chart, pt.a, tuple(v + 1 for v in pt.b))
    assert any(v != 0 for v in eval_section(system, bumped))


def test_jacobian_b_row_worked_example():
    system = SectionSystem(Chart(0, 0), EXAMPLE_LINES)
    pt = ChartPoint(Chart(0, 0), (0, 0, 0), (0, 0, 0, 0, 0))
    rec = jacobian(system, pt)
    # row of b_1 in chart j=0 is z1^2; line 0 has z = (-1, 1, 0)
    assert rec.matrix[3][0] == 1
    # row of b_2 is z2^2 = 0
    assert rec.matrix[4][0] == 0


def test_jacobian_matches_finite_differences():
    lines_f = [
        Line3(tuple(float(v) for v in l.p), tuple(float(v) for v in l.s))
        for l in BASE_LINES
    ]
    system = SectionSystem(Chart(0, 0), lines_f)
    rng = random.Random(1)
    h = 1e-6
    for _ in range(20):
        x = [rng.uniform(-1, 1) for _ in range(8)]
        pt = ChartPoint(Chart(0, 0), tuple(x[:3]), tuple(x[3:]))
        rec = jacobian(system, pt)
        for v in range(8):
            xp, xm = list(x), list(x)
            xp[v] += h
            xm[v] -= h
            fp = eval_section(system, ChartPoint(Chart(0, 0), tuple(xp[:3]), tuple(xp[3:])))
            fm = eval_section(system, ChartPoint(Chart(0, 0), tuple(xm[:3]), tuple(xm[3:])))
            for n in range(8):
                fd = (fp[n] - fm[n]) / (2 * h)
                an = rec.matrix[v][n]
                assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_jacobian_matches_symbolic_expansion():
    rng = random.Random(2)
    for chart in (Chart(0, 0), Chart(1, 4)):
        system = SectionSystem(chart, BASE_LINES)
        polys = expanded_section_polys(system)
        for _ in range(5):
            pt = rnd_point(rng, chart)
            xs = list(pt.a) + list(pt.b)
            vals = eval_section(system, pt)
            assert [p.eval(xs) for p in polys] == list(vals)
            rec = jacobian(system, pt)
            for v in range(8):
                for n in range(8):
                    assert polys[n].diff(v).eval(xs) == rec.matrix[v][n]


def test_local_index_cases(planted_instance):
    pt = planted_instance.planted_point
    system = SectionSystem(pt.chart, planted_instance.lines)
    idx = local_index(system, pt)
    d = jacobian(system, pt).determinant
    assert idx == GwForm.unit(d)
    # real sign semantics
    lines_f = [
        Line3(tuple(float(v) for v in l.p), tuple(float(v) for v in l.s))
        for l in planted_instance.lines
    ]
    sysf = SectionSystem(pt.chart, lines_f)
    ptf = ChartPoint(pt.chart, tuple(map(float, pt.a)), tuple(map(float, pt.b)))
    idxf = local_index(sysf, ptf)
    assert idxf.terms[0][0].rep == (1 if float(d) > 0 else -1)
    # conjugate pair gives the hyperbolic form
    zc = ChartPoint(
        pt.chart,
        tuple(complex(v, 0.1) for v in ptf.a),
        tuple(complex(v, -0.2) for v in ptf.b),
    )
    sysc = SectionSystem(pt.chart, lines_f)
    pair = local_index(sysc, zc, reality="pair")
    assert gw_equal(pair, GwForm.hyperbolic("R")) == EQUAL


def test_local_index_finite_field():
    f7 = PrimeField(7)
    lines7 = [
        Line3(tuple(f7(int(v)) for v in l.p), tuple(f7(int(v)) for v in l.s))
        for l in BASE_LINES
    ]
    system = SectionSystem(Chart(0, 0), lines7)
    rng = random.Random(3)
    for _ in range(300):
        pt = ChartPoint(
            Chart(0, 0),
            tuple(f7(rng.randrange(7)) for _ in range(3)),
            tuple(f7(rng.randrange(7)) for _ in range(5)),
        )
        d = jacobian(system, pt).determinant
        if d != 0:
            idx = local_index(system, pt)
            assert idx == GwForm.unit(d)
            assert idx.terms[0][0].rep in (1, 3)  # canonical F_7 reps
            break
    else:
        pytest.fail("no nonsingular F_7 point found")


def test_local_index_singular_zero():
    # duplicated line makes two columns equal, so the determinant vanishes
    lines = [BASE_LINES[0]] + BASE_LINES[:7]
    system = SectionSystem(Chart(0, 0), lines)
    pt = ChartPoint(Chart(0, 0), (0, 0, 0), (0, 0, 0, 0, 0))
    with pytest.raises(SingularZero):
        local_index(system, pt)


def test_conic_through_5_parameterized():
    # points (t, t^2, 1) lie on z1 - z0^2 = 0 read as z0^2 - z1*z2 projectively
    pts = [(Fraction(t), Fraction(t * t), Fraction(1)) for t in (-2, -1, 0, 1, 2)]
    coeffs = conic_through_5(pts)
    assert proj_equal(coeffs, (1, 0, 0, 0, 0, 0)) is False  # not a double line
    target = (1, 0, 0, -1, 0, 0)  # z0^2 - z1*z2
    assert proj_equal(coeffs, target)
    # vanishes at the five inputs and at a sixth point of the conic
    from conics92.geometry import conic_value

    for p in pts + [(Fraction(3), Fraction(9), Fraction(1))]:
        assert conic_value(coeffs, p) == 0


def test_conic_through_5_degenerate():
    pts = [(Fraction(1), Fraction(1), Fraction(1))] * 2 + [
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(3)),
    ]
    with pytest.raises(DegenerateConfiguration):
        conic_through_5(pts)


def test_laplace_equals_determinant():
    rng = random.Random(4)
    nonzero = 0
    for chart in (Chart(0, 0), Chart(2, 3)):
        system = SectionSystem(chart, BASE_LINES)
        for _ in range(10):
            pt = rnd_point(rng, chart)
            d = jacobian(system, pt).determinant
            assert jacobian_via_laplace(system, pt) == d
            nonzero += d != 0
    assert nonzero >= 15  # the check must not be vacuous


def test_laplace_on_dependent_a_columns():
    # a = 0 pins the plane; three concurrent lines => dependent a-columns
    lines = [
        Line3((0, 1, 0, 0), (1, 0, 0, 0)),
        Line3((0, 1, 0, 0), (1, 1, 1, 1)),
        Line3((0, 1, 0, 0), (1, 2, 1, 0)),
        Line3((0, 1, 0, 0), (1, 0, 2, 1)),
    ] + BASE_LINES[:4]
    system = SectionSystem(Chart(0, 0), lines)
    pt = ChartPoint(Chart(0, 0), (0, 0, 0), (1, 1, 1, 1, 1))
    rec = jacobian(system, pt)
    lap = jacobian_via_laplace(system, pt)
    assert rec.determinant == 0 and lap == 0


def test_conic_coefficient_cross_check(planted_instance):
    # the conic through intersection points 4..8 is proportional to the
    # solution conic, with ratio (-1)^j times the complementary b-minor
    from conics92.linalg import det

    pt = planted_instance.planted_point
    system = SectionSystem(pt.chart, planted_instance.lines)
    zs = system.point_reps(pt)
    f = conic_through_5(zs[3:])
    coeffs = system.coefficients(pt)
    rec = jacobian(system, pt)
    minor = det([[rec.matrix[3 + l][n] for n in range(3, 8)] for l in range(5)])
    c = (-1 if pt.chart.j % 2 else 1) * minor
    assert all(f[k] == c * coeffs[k] for k in range(6))


def test_tangent_diagnostics(planted_instance):
    pt = planted_instance.planted_point
    system = SectionSystem(pt.chart, planted_instance.lines)
    rec = jacobian(system, pt)
    for n in (0, 3, 7):
        for ell in (1, 2, 3):
            out = tangent_diagnostics(system, pt, n, ell)
            assert out["deviation"] == rec.matrix[ell - 1][n]
            # at a zero, the shifted point lies on the deviation level set
            z = system.point_reps(pt)[n]
            dz = tuple(system.zmaps[n][r][ell] for r in range(3))
            grad = out["gradient"]
            assert sum(grad[r] * (z[r] + dz[r]) for r in range(3)) == out["deviation"]


def test_tangent_cone_point():
    # a line inside the plane degenerates its cached representative to 0
    lines = [Line3((0, 1, 0, 0), (0, 0, 1, 0))] + BASE_LINES[:7]
    system = SectionSystem(Chart(0, 0), lines)
    pt = ChartPoint(Chart(0, 0), (0, 0, 0), (0, 0, 0, 0, 0))
    with pytest.raises(ConePoint):
        tangent_diagnostics(system, pt, 0, 1)


def test_scaling_invariance_exact(planted_instance):
    pt = planted_instance.planted_point
    base = jacobian(SectionSystem(pt.chart, planted_instance.lines), pt).determinant
    rng = random.Random(5)
    lams = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(8)]
    lines = [
        Line3(tuple(l * v for v in line.p), line.s)
        for l, line in zip(lams, planted_instance.lines)
    ]
    d = jacobian(SectionSystem(pt.chart, lines), pt).determinant
    expect = base
    for l in lams:
        expect = expect * l * l
    assert d == expect
    from conics92.fields import square_class

    assert square_class(d) == square_class(base)


def test_permutation_parity_exact(planted_instance):
    pt = planted_instance.planted_point
    lines = list(planted_instance.lines)
    base = jacobian(SectionSystem(pt.chart, lines), pt).determinant
    swapped = [lines[1], lines[0]] + lines[2:]
    d = jacobian(SectionSystem(pt.chart, swapped), pt).determinant
    assert d == -base
    cycled = [lines[2], lines[0], lines[1]] + lines[3:]  # even permutation
    d = jacobian(SectionSystem(pt.chart, cycled), pt).determinant
    assert d == base


def test_chart_compatibility_exact(planted_instance):
    pt = planted_instance.planted_point
    plane, coeffs = chart_embed(pt)
    dets = {}
    for i in range(4):
        if plane.a[i] == 0:
            continue
        ci = conic_coeffs_transition(plane.a, coeffs, pt.chart.i, i)
        for j in range(6):
            if ci[j] == 0:
                continue
            chart = Chart(i, j)
            cp = chart_coords(plane, ci, chart)
            system = SectionSystem(chart, planted_instance.lines)
            assert all(v == 0 for v in eval_section(system, cp))
            dets[(i, j)] = jacobian(system, cp).determinant
    assert len(dets) >= 4
    base = dets[(pt.chart.i, pt.chart.j)]
    for d in dets.values():
        assert d != 0 and is_square(d / base)


def test_orientation_sign_checkerboard():
    assert orientation_sign(Chart(0, 0)) == 1
    assert orientation_sign(Chart(0, 1)) == -1
    assert orientation_sign(Chart(1, 0)) == -1
    assert orientation_sign(Chart(2, 4)) == 1
