"""Property tests of the one section kernel over every scalar."""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from conics92.fields import PrimeField
from conics92.geometry import Chart, ChartPoint, Line3
from conics92.section import SectionSystem, chart_tensor, eval_section, evaluate, jacobian
from conics92.solver import NumericChartSystem

from helpers import oracle_jacobian_mod_p

charts = st.builds(Chart, st.integers(0, 3), st.integers(0, 5))


def _lines(vectors, scalar):
    """Eight lines from eight pairs of integer 4-vectors, or None when a
    pair does not span a line."""
    try:
        return [Line3(tuple(map(scalar, p)), tuple(map(scalar, s))) for p, s in vectors]
    except ValueError:
        return None


def _line_vectors(lo, hi):
    vec = st.tuples(*[st.integers(lo, hi)] * 4)
    return st.lists(st.tuples(vec, vec), min_size=8, max_size=8)


@settings(max_examples=30)
@given(
    _line_vectors(-5, 5),
    charts,
    st.lists(st.fractions(-3, 3, max_denominator=7), min_size=8, max_size=8),
)
def test_exact_kernel_matches_float_kernel(vectors, chart, coords):
    lines = _lines(vectors, int)
    assume(lines is not None)
    point = ChartPoint(chart, tuple(coords[:3]), tuple(coords[3:]))
    system = SectionSystem(chart, lines)
    values = np.array(eval_section(system, point), dtype=float)
    jac = np.array(jacobian(system, point).matrix, dtype=float).T
    phi, jphi = NumericChartSystem(chart, lines).eval(
        np.array([coords], dtype=float), jac=True, raw=True
    )
    for exact, approx in ((values, phi[0]), (jac, jphi[0])):
        assert np.max(np.abs(exact - approx)) <= 1e-9 * max(1.0, np.max(np.abs(exact)))


@settings(max_examples=12)
@given(
    st.sampled_from((5, 7, 11)),
    _line_vectors(0, 10),
    charts,
    st.lists(st.integers(0, 10), min_size=8, max_size=8),
)
def test_prime_field_jacobian_matches_expanded_polynomials(p, vectors, chart, coords):
    fp = PrimeField(p)
    lines = _lines(vectors, fp)
    assume(lines is not None)
    point = ChartPoint(chart, tuple(map(fp, coords[:3])), tuple(map(fp, coords[3:])))
    matrix = jacobian(SectionSystem(chart, lines), point).matrix
    assert [[v.value for v in row] for row in matrix] == oracle_jacobian_mod_p(lines, point, p)


def test_a_shared_tensor_evaluates_as_one_tensor_per_point():
    # one (8, 3, 4) chart tensor for every point gives the bits of that
    # tensor repeated per point, with a conic chart per point
    rng = np.random.default_rng(3)
    p, s = rng.standard_normal((2, 8, 4))
    x = rng.standard_normal((6, 8))
    exact = np.vectorize(lambda v: Fraction(v).limit_denominator(50), otypes=[object])
    cases = [(p, s, x), (p + 1j * s, s - 1j * p, x + 1j * x[::-1]), (exact(p), exact(s), exact(x))]
    j = np.array([0, 5, 2, 3, 1, 4])
    for p, s, x in cases:
        z = chart_tensor(2, p, s)
        shared = evaluate(z, x, j, jac=True)
        per_point = evaluate(np.repeat(z[None], len(x), axis=0), x, j, jac=True)
        for a, b in zip(shared[:2], per_point[:2]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()
