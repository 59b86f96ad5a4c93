import json
from fractions import Fraction

import numpy as np
import pytest

from conics92.errors import BadReduction, ExhaustedRetries, LineInPlane, TooLarge
from conics92.fields import PrimeField, QuadExtField, is_square
from conics92.geometry import (
    Chart,
    ChartPoint,
    Line3,
    Plane3,
    conic_value,
    genericity_check,
    meet_plane_oracle,
    plane_coords,
    plucker,
    proj_equal,
)
from conics92.harness import (
    Instance,
    _line_rows,
    _meet_points,
    _plane_matrices,
    _projective_reps,
    _regular,
    brute_force_fq,
    gen_planted_instance,
    gen_random_instance,
    reduce_instance,
)
from conics92.linalg import det
from conics92.section import SectionSystem, eval_section, jacobian

from conftest import PLANTED_PRIME
from helpers import match_solution_sets, oracle_jacobian_rank_mod_p, same_real_zeros


def test_gen_random_deterministic():
    a = gen_random_instance(42, 10)
    b = gen_random_instance(42, 10)
    assert a.to_json() == b.to_json()
    assert genericity_check(a.lines).passed
    c = gen_random_instance(43, 10)
    assert c.to_json() != a.to_json()


def test_gen_random_exhausted():
    with pytest.raises(ExhaustedRetries):
        gen_random_instance(0, 10, retries=0)
    with pytest.raises(ValueError):
        gen_random_instance(0, 0)


def test_planted_exactness(planted_instance):
    pt = planted_instance.planted_point
    system = SectionSystem(pt.chart, planted_instance.lines)
    assert all(v == 0 for v in eval_section(system, pt))
    assert jacobian(system, pt).determinant != 0
    assert genericity_check(planted_instance.lines).passed


def test_planted_deterministic():
    a = gen_planted_instance(11)
    b = gen_planted_instance(11)
    assert a.to_json() == b.to_json()


def test_instance_serialization_round_trip(planted_instance):
    data = planted_instance.to_json()
    back = Instance.from_json(data)
    assert back.to_json() == data
    assert back.planted_point == planted_instance.planted_point
    # exact coordinates serialize as rational strings
    as_text = json.dumps(data)
    assert Instance.from_json(json.loads(as_text)).to_json() == data


def test_instance_rejects_mixed_coordinates():
    data = {
        "lines": [
            {"p": [1.5, "1", 0, 0], "s": [0, 1, 0, 0]},
        ]
        * 8
    }
    with pytest.raises(ValueError):
        Instance.from_json(data)


def test_instance_file_round_trip(tmp_path, planted_instance):
    path = tmp_path / "inst.json"
    planted_instance.save(path)
    assert Instance.load(path).to_json() == planted_instance.to_json()


def test_reduced_instance_file_round_trip(tmp_path):
    # prime-field coordinates are saved as their integer values and loaded
    # into the field of the file's tag
    red = reduce_instance(gen_planted_instance(42, ensure_prime=5), 5)
    path = tmp_path / "f5.json"
    red.save(path)
    back = Instance.load(path)
    assert (back.field, back.lines, back.meta) == (red.field, red.lines, red.meta)
    assert brute_force_fq(back, 5) == brute_force_fq(red, 5)


def test_reduce_instance_good_prime(planted_instance):
    red = reduce_instance(planted_instance, PLANTED_PRIME)
    assert red.field == f"F{PLANTED_PRIME}"
    pm = red.meta["planted_mod_p"]
    fp = PrimeField(PLANTED_PRIME)
    pt = ChartPoint(
        Chart(*pm["chart"]),
        tuple(fp(v) for v in pm["a"]),
        tuple(fp(v) for v in pm["b"]),
    )
    system = SectionSystem(pt.chart, red.lines)
    assert all(v == 0 for v in eval_section(system, pt))


def test_reduce_instance_rejects_lines_that_coincide_mod_p(planted_instance):
    p = PLANTED_PRIME
    lines = planted_instance.lines
    # line 1 becomes another spanning pair of line 0 mod p, distinct over Q:
    # (2 p0 + s0, p0 - s0) has determinant -3 against (p0, s0)
    pairs = zip(lines[0].p, lines[0].s, (p, 0, 0, 0), (0, p, 0, 0))
    u, v = zip(*((2 * a + b + e, a - b + f) for a, b, e, f in pairs))
    same = (lines[0], Line3(u, v)) + lines[2:]
    assert not proj_equal(plucker(same[0]), plucker(same[1]))
    with pytest.raises(BadReduction, match=f"lines 0 and 1 coincide mod {p}"):
        reduce_instance(Instance(lines=same), p)
    # lines 0 and 1 of the planted instance are skew mod p and reduce
    fp = PrimeField(p)
    assert det([[fp(x) for x in ln.p] for ln in lines[:2]] + [[fp(x) for x in ln.s] for ln in lines[:2]]) != 0
    assert reduce_instance(planted_instance, p).field == f"F{p}"


def test_reduction_jacobian_compatibility(planted_instance):
    # the exact F_p Jacobian equals the rational Jacobian reduced mod p
    pt = planted_instance.planted_point
    rec_q = jacobian(SectionSystem(pt.chart, planted_instance.lines), pt)
    red = reduce_instance(planted_instance, PLANTED_PRIME)
    fp = PrimeField(PLANTED_PRIME)
    pm = red.meta["planted_mod_p"]
    pt_p = ChartPoint(
        pt.chart, tuple(fp(v) for v in pm["a"]), tuple(fp(v) for v in pm["b"])
    )
    rec_p = jacobian(SectionSystem(pt.chart, red.lines), pt_p)
    assert fp(rec_q.determinant) == rec_p.determinant


def test_reduce_instance_bad_denominator():
    lines = gen_random_instance(5, 4).lines
    from fractions import Fraction

    bad = Instance(
        lines=(Line3((Fraction(1, 3), 1, 0, 0), lines[0].s),) + lines[1:],
        field="Q",
    )
    with pytest.raises(BadReduction):
        reduce_instance(bad, 3)


def test_reduce_instance_degenerate_line():
    lines = gen_random_instance(5, 4).lines
    bad = Instance(lines=(Line3((3, 3, 3, 3), (1, 1, 1, 4)),) + lines[1:], field="Q")
    # mod 3: (0,0,0,0) is not a valid point
    with pytest.raises(BadReduction):
        reduce_instance(bad, 3)


def test_brute_force_guard():
    inst = gen_random_instance(0, 10)
    with pytest.raises(TooLarge):
        brute_force_fq(inst, 11)
    with pytest.raises(TooLarge):
        brute_force_fq(inst, 5, degree=2)
    with pytest.raises(TooLarge):
        brute_force_fq(inst, 3, degree=3)


def test_brute_force_f3_candidate_counts():
    # |P^3(F_3)| * |P^5(F_3)| = 40 * 364 = 14560
    assert _projective_reps(3, 4).shape[0] == 40
    assert _projective_reps(3, 6).shape[0] == 364
    assert 40 * 364 == 14560


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("width", [4, 6])
def test_projective_reps_are_normalized_and_ordered(q, width):
    # brute_force_fq lists its zeros in this order
    reps = _projective_reps(q, width)
    n = reps.shape[0]
    assert n == (q**width - 1) // (q - 1)
    assert len(np.unique(reps, axis=0)) == n
    assert ((reps >= 0) & (reps < q)).all()
    lead = np.argmax(reps != 0, axis=1)
    assert (reps[np.arange(n), lead] == 1).all()
    # lead slot by lead slot, and lexicographic inside one lead slot
    assert (np.diff(lead) >= 0).all()
    codes = reps @ q ** np.arange(width - 1, -1, -1)
    assert (np.diff(codes)[np.diff(lead) == 0] > 0).all()


def test_brute_force_finds_planted(planted_instance):
    red = reduce_instance(planted_instance, PLANTED_PRIME)
    sols = brute_force_fq(red, PLANTED_PRIME)
    pm = red.meta["planted_mod_p"]
    key = tuple(pm["chart"])
    hit = False
    for s in sols:
        cp = s.chart_points.get(key)
        if cp and [v.value for v in cp.a] == pm["a"] and [v.value for v in cp.b] == pm["b"]:
            hit = True
    assert hit


def _check_chart_compatibility(red: Instance, p: int):
    """Every F_p-zero of a reduced instance is simple in all of its charts or
    singular in all of them.  On a simple zero the determinants differ by
    nonzero squares; a singular zero is confirmed by the expanded-polynomial
    oracle.  Returns the zeros and the number of ratios compared."""
    sols = brute_force_fq(red, p)
    assert sols, f"expected solutions over F_{p}"
    compared = 0
    for s in sols:
        where = f"F_{p}: zero on plane {[v.value for v in s.plane]}"
        zero_charts = sorted(ch for ch, d in s.chart_dets.items() if d == 0)
        if zero_charts:
            assert len(zero_charts) == len(s.chart_dets), (
                f"{where} has det 0 in charts {zero_charts} only, "
                f"of {sorted(s.chart_dets)}"
            )
            ch = zero_charts[0]
            rank = oracle_jacobian_rank_mod_p(red.lines, s.chart_points[ch], p)
            assert rank < 8, f"{where} has det 0 in chart {ch}, but oracle rank 8"
            continue
        (ch0, d0), *rest = sorted(s.chart_dets.items())
        for ch, d in rest:
            assert is_square(d / d0), (
                f"{where}: det in chart {ch} / det in chart {ch0} is not a square"
            )
            compared += 1
    return sols, compared


def test_brute_force_chart_compatibility_squares(planted_instance):
    # The reduced lines are far from general for such small p (they meet and
    # share points, see meta["genericity_mod_p"]), so singular zeros occur:
    # all 3 zeros mod 3 and 8 of the 14 mod 5.
    _check_chart_compatibility(reduce_instance(gen_random_instance(0, 10), 3), 3)

    red = reduce_instance(planted_instance, PLANTED_PRIME)
    sols, compared = _check_chart_compatibility(red, PLANTED_PRIME)
    assert compared > 0, f"F_{PLANTED_PRIME}: no determinant ratio compared"
    planted = red.meta["planted_mod_p"]
    chart = tuple(planted["chart"])
    hits = [
        s
        for s in sols
        if chart in s.chart_points
        and list(s.chart_points[chart].a) == planted["a"]
        and list(s.chart_points[chart].b) == planted["b"]
    ]
    assert hits, f"F_{PLANTED_PRIME}: planted zero {planted} not found"
    assert all(d != 0 for d in hits[0].chart_dets.values()), (
        f"F_{PLANTED_PRIME}: planted zero {planted} is singular"
    )


def test_brute_force_solutions_satisfy_incidence(planted_instance):
    from conics92.geometry import (
        Plane3,
        conic_value,
        meet_plane_oracle,
        plane_coords,
    )

    red = reduce_instance(planted_instance, PLANTED_PRIME)
    sols = brute_force_fq(red, PLANTED_PRIME)
    for s in sols:
        plane = Plane3(s.plane)
        for line in red.lines:
            x = meet_plane_oracle(line, plane)
            assert conic_value(s.conic, plane_coords(s.istar, x)) == 0


@pytest.mark.parametrize("p", [3, 5])
def test_regular_matrices_multiply_like_the_quadratic_extension(p):
    # the kernel's F_p matrix of x, applied to y, is x * y on all of
    # F_{p^2} x F_{p^2}; codes 0..p^2-1 list the field in elements() order
    fq = QuadExtField(p)
    elems = list(fq.elements())
    coords = np.arange(p * p)[:, None] // [1, p] % p
    assert coords.tolist() == [[x.c0, x.c1] for x in elems]
    prods = np.einsum("xst,yt->xys", _regular(coords, fq.gamma), coords) % p
    assert prods.tolist() == [[[(x * y).c0, (x * y).c1] for y in elems] for x in elems]


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_meet_points_agree_with_the_incidence_oracle(q):
    # the brute-force kernel against the elimination formula: its meet
    # points, and which lines its product puts on a conic, for the conics
    # with codes < 3 that it accepts and 3 random conics per plane.  Every
    # plane of P^3(F_p); over F_9 the 40 F_3-rational planes and 20 others.
    p, d = (3, 2) if q == 9 else (q, 1)
    fq = PrimeField(p) if d == 1 else QuadExtField(p)
    gamma = 0 if d == 1 else fq.gamma
    digits = p ** np.arange(d)

    def elements(codes):
        return tuple(fq(*x) for x in np.asarray(codes)[..., None] // digits % p)

    red = reduce_instance(gen_random_instance(0, 10), p)
    lines = [Line3(tuple(map(fq, ln.p)), tuple(map(fq, ln.s))) for ln in red.lines]
    rng = np.random.default_rng(q)
    planes = _projective_reps(q, 4)
    rational = (planes < p).all(axis=1)
    planes = np.concatenate([planes[rational], rng.permutation(planes[~rational])[:20]])
    codes = _projective_reps(q, 6)
    codes = np.concatenate([codes[(codes < 3).all(axis=1)], rng.permutation(codes)[:3 * len(planes)]])
    conics = (codes[..., None] // digits % p).reshape(len(codes), 6 * d).astype(np.float64)
    lead = np.argmax(planes != 0, axis=1)
    in_plane = accepted = 0
    for i in range(4):
        block = planes[lead == i]
        z = _meet_points(_line_rows(red), i, block[..., None] // digits % p, p)
        for plane, zp, mat in zip(block, z, _plane_matrices(z, p, gamma)):
            pl = Plane3(elements(plane))
            points = {}
            for n, (line, zn) in enumerate(zip(lines, zp)):
                try:
                    points[n] = plane_coords(i, meet_plane_oracle(line, pl))
                except LineInPlane:
                    assert not zn.any(), f"line in plane {plane}, point {zn}"
                    in_plane += 1
                    continue
                assert zn.any() and proj_equal(elements(zn @ digits), points[n])
            on_line = (conics @ mat.T % p == 0).reshape(len(codes), 8, d).all(axis=2)
            hits = np.flatnonzero(on_line.all(axis=1)) if len(points) == 8 else []
            accepted += len(hits)
            for h in [*hits, *rng.integers(len(codes), size=3)]:
                conic = elements(codes[h])
                for n, x in points.items():
                    assert on_line[h, n] == (conic_value(conic, x) == 0), (plane, codes[h], n)
    assert in_plane > 0
    # the 3 zeros of this instance over F_3 are sampled over F_3 and F_9
    assert accepted >= 3 or p > 3


def test_verify_report(instances, solutions):
    # run the pipeline on a pre-solved seed; solve_all inside verify re-runs,
    # so use the smallest acceptable scope: seed 42 only
    from conics92.harness import verify
    from conics92.solver import SolverOptions

    report = verify(instances[42], SolverOptions(seed=42))
    assert report.count == 92
    assert report.verdict == "equal"
    assert report.positive == report.negative
    assert report.passed
    data = report.to_json()
    assert data["rank"] == 92 and data["signature"] == 0
    assert {c["name"] for c in data["checks"]} >= {
        "residuals",
        "jacobians_nonzero",
        "real_balance",
        "signature_zero",
        "rank_92",
        "scaling_square",
        "odd_permutation_sign",
    }


def test_report_to_json_computes_the_invariants_once(monkeypatch):
    from conics92 import harness
    from conics92.gw import GwForm, invariants

    calls = []

    def counted(form):
        calls.append(form)
        return invariants(form)

    monkeypatch.setattr(harness, "invariants", counted)
    form = 45 * GwForm.hyperbolic("R") + GwForm.unit(1.0) + GwForm.unit(1.0)
    report = harness.VerificationReport(92, 2, 2, 0, form, "not_equal", [], {})
    data = report.to_json()
    assert len(calls) == 1
    assert (data["rank"], data["signature"]) == (92, 2)


def test_verify_seed46(instances):
    # its two closest zeros are real, 5.1e-5 apart, of opposite signs
    from conics92.harness import verify
    from conics92.solver import SolverOptions

    report = verify(instances[46], SolverOptions(seed=46))
    assert report.passed
    assert (report.count, report.real, report.positive) == (92, 38, 19)


def test_acceptance_does_not_depend_on_the_scale_of_the_lines(instances, monkeypatch):
    # every decision of the solve is scale-free: each line scaled as a
    # whole, by one factor or one per line, gives the same zeros, reality
    # and signs (a line's det J factor is a square), and verify passes
    from conics92 import harness
    from conics92.solver import SolverOptions, solve_all

    solved = []

    def capture(*args):
        solved.append(solve_all(*args))
        return solved[-1]

    monkeypatch.setattr(harness, "solve_all", capture)
    lines = instances[42].lines
    per_line = [Fraction(10) ** k for k in (-3, 2, 0, -1, 3, -2, 1, 0)]
    for scales in ([Fraction(1, 1000)] * 8, [Fraction(1, 100)] * 8, [1] * 8, [1000] * 8, per_line):
        scaled = [
            Line3(tuple(c * v for v in ln.p), tuple(c * v for v in ln.s))
            for c, ln in zip(scales, lines)
        ]
        assert harness.verify(Instance(tuple(scaled)), SolverOptions(seed=42)).passed
    for sset in solved:
        assert match_solution_sets(sset, solved[2], tol=1e-9)
        assert same_real_zeros(sset, solved[2])
