import dataclasses
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from conics92 import solver
from conics92.errors import CountMismatch, IncompleteSet
from conics92.geometry import Chart, Line3, conic_coeffs_transition
from conics92.gw import EQUAL, GwForm, gw_equal, invariants
from conics92.section import evaluate
from conics92.solver import (
    ConicSolution,
    ParameterHomotopy,
    SolverOptions,
    _classify,
    _distinct_zeros,
    _pair_dists,
    assemble_enriched_count,
    solve_all,
)

from helpers import match_solution_sets, reference_track_block, relative_section_residual


def test_solve_seed42_contract(solutions):
    sset = solutions(42)
    assert sset.count == 92
    # the 92 base paths and every monodromy loop leg
    assert sset.stats["paths_tracked"] == len(sset.paths) == 92 + sset.stats["retracked"]
    assert all(s.residual < 1e-12 for s in sset.solutions)
    assert all(abs(s.det_jac) > 1e-8 for s in sset.solutions)
    r = len(sset.real_solutions)
    assert r % 2 == 0  # conjugation forces an even real count... of non-reals
    assert r + 2 * len(sset.pair_solutions) == 92


def test_stats_count_steps_and_evaluated_rows(solutions):
    sset = solutions(42)
    stats = sset.stats
    assert stats["path_steps"] == sum(p.steps for p in sset.paths)
    assert stats["eval_rows"] == sum(p.eval_rows for p in sset.paths)
    # each step evaluates its predictor's k2, k3 and k4 and one to three
    # corrector iterates; k1 comes from the last step's corrector, and is
    # evaluated afresh only at a path's first step and after a chart switch
    assert 4 * stats["path_steps"] < stats["eval_rows"] < 6 * stats["path_steps"]


def test_conjugation_closure(solutions):
    # stored pair representatives have distinct conjugates inside the set,
    # i.e. the non-real endpoint multiset is conjugation-invariant
    sset = solutions(42)
    for s in sset.pair_solutions:
        assert max(abs(complex(v).imag) for v in list(s.a) + list(s.b)) > 1e-8


def test_real_classification(solutions):
    sset = solutions(42)
    for s in sset.real_solutions:
        assert s.sign in (-1, 1)
        assert complex(s.det_jac).imag == 0
        assert (s.sign > 0) == (complex(s.det_jac).real > 0)
    for s in sset.pair_solutions:
        assert s.sign is None


def test_determinism_same_seed(instances, solutions):
    ref = solutions(42).to_json()
    again = solve_all(instances[42].lines, SolverOptions(seed=42)).to_json()
    ref["stats"].pop("wall_time")
    again["stats"].pop("wall_time")
    assert json.dumps(ref, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_threads_bit_identical(instances, solutions):
    ref = solutions(42).to_json()
    threaded = solve_all(instances[42].lines, SolverOptions(seed=42, threads=3)).to_json()
    ref["stats"].pop("wall_time")
    threaded["stats"].pop("wall_time")
    assert json.dumps(ref, sort_keys=True) == json.dumps(threaded, sort_keys=True)


def test_gamma_independence(instances, solutions):
    base = solutions(42)
    other = solve_all(instances[42].lines, SolverOptions(seed=1042))
    assert match_solution_sets(base, other, tol=1e-8)


def test_assemble_enriched_count(solutions):
    form = assemble_enriched_count(solutions(42))
    inv = invariants(form)
    assert inv["rank"] == 92
    assert inv["signature"] == 0
    assert gw_equal(form, 46 * GwForm.hyperbolic("R")) == EQUAL


def test_assemble_requires_complete_set(solutions):
    sset = solutions(42)
    partial = type(sset)(
        solutions=sset.solutions[:10], paths=sset.paths, stats=sset.stats
    )
    with pytest.raises(IncompleteSet):
        assemble_enriched_count(partial)


def test_solutions_json_schema(solutions):
    data = solutions(42).to_json()
    assert data["count"] == 92
    entry = data["solutions"][0]
    assert set(entry) == {"chart", "a", "b", "jacobian", "reality", "sign", "residual"}
    assert len(entry["a"]) == 3 and len(entry["b"]) == 5
    assert all(len(v) == 2 for v in entry["a"])  # [re, im] pairs
    assert entry["reality"] in ("real", "pair")


def _candidate(abar, cbar, i, j, reality):
    """A canonical candidate in chart (i, j) from a plane and its conic's
    coefficients in the chart-i plane coordinates."""
    abar = np.asarray(abar, dtype=complex) / abar[i]
    cbar = np.asarray(cbar, dtype=complex) / cbar[j]
    coords = np.concatenate([np.delete(abar, i), np.delete(cbar, j)])
    return ConicSolution(
        chart=(i, j),
        a=tuple(coords[:3]),
        b=tuple(coords[3:]),
        det_jac=1.0 + 0j,
        reality=reality,
        sign=1 if reality == "real" else None,
        residual=0.0,
    )


def _conj(c: ConicSolution) -> ConicSolution:
    return _candidate(np.conj(c.abar), np.conj(c.cbar), *c.chart, c.reality)


def test_same_zero_in_two_canonical_charts_merges():
    # |a0| = |a1| is a tie for the largest plane coordinate, so two endpoints
    # of one zero can canonicalize into chart 0 and chart 1
    abar = np.array([1.0, -1.0, 0.5, 0.25])
    cbar0 = np.array([1.0, 0.7, -0.4, 0.3, 0.2, -0.9])
    cbar1 = np.array(conic_coeffs_transition(tuple(abar), tuple(cbar0), 0, 1))
    u = _candidate(abar, cbar0, 0, 0, "real")
    v = _candidate(abar * (1 + 1e-13), cbar1, 1, int(np.argmax(np.abs(cbar1))), "real")
    assert v.chart[0] == 1
    assert np.max(np.abs(np.subtract(u.cbar, v.cbar))) > 1e-3  # only the transition matches them
    assert _pair_dists([u], [v])[0, 0] < 1e-9
    assert _distinct_zeros([u, v]) == [u]
    assert _distinct_zeros([v, u]) == [v]


def test_close_real_zeros_stay_distinct():
    # 5.1e-5 is the gap between the two closest zeros of seed 46
    gap = 5.1e-5
    abar = np.array([1.0, 0.3, -0.2, 0.6])
    cbar = np.array([1.0, 0.7, -0.4, 0.3, 0.2, -0.9])
    u = _candidate(abar, cbar, 0, 0, "real")
    moved_plane = _candidate(abar + [0, gap, 0, 0], cbar, 0, 0, "real")
    moved_conic = _candidate(abar, cbar + [0, 0, gap, 0, 0, 0], 0, 0, "real")
    assert _distinct_zeros([u, moved_plane, moved_conic]) == [
        u,
        moved_plane,
        moved_conic,
    ]


def test_classify_pairs_every_candidate_after_an_unpaired_one():
    real = _candidate([1.0, 0.3, -0.2, 0.6], [1.0, 0.7, -0.4, 0.3, 0.2, -0.9], 0, 0, "real")
    lonely = _candidate(
        [1.0, 0.2 + 0.5j, 0.1, -0.3], [1.0, 0.4, 0.2j, 0.1, -0.2, 0.3], 0, 0, "pair"
    )
    z = _candidate(
        [1.0, -0.4 - 0.3j, 0.6, 0.2], [1.0, 0.5, -0.3, 0.1j, 0.2, 0.4], 0, 0, "pair"
    )
    reals, pairs, leftovers = _classify([real, lonely, z, _conj(z)])
    assert reals == [real]
    assert leftovers == [lonely]
    assert len(pairs) == 1
    assert pairs[0].abar == _conj(z).abar  # leading imaginary part positive


def test_classify_pairs_conjugates_in_two_canonical_charts():
    # |a0| = |a1|, so a non-real zero can canonicalize into plane chart 0
    # and its conjugate into plane chart 1; pairing must compare them as
    # moduli points, as the dedup does
    abar = np.array([1.0, 1j, 0.5 + 0.2j, 0.25])
    cbar0 = np.array([1.0, 0.7j, -0.4, 0.3 + 0.1j, 0.2, -0.9])
    u = _candidate(abar, cbar0, 0, 0, "pair")
    cbar1 = np.array(conic_coeffs_transition(tuple(np.conj(abar)), tuple(np.conj(cbar0)), 0, 1))
    v = _candidate(np.conj(abar), cbar1, 1, int(np.argmax(np.abs(cbar1))), "pair")
    assert np.max(np.abs(np.subtract(_conj(u).cbar, v.cbar))) > 1e-3  # only the transition matches them
    assert _pair_dists([_conj(u)], [v])[0, 0] < 1e-9
    reals, pairs, leftovers = _classify([u, v])
    assert (reals, leftovers) == ([], [])
    assert pairs == [u]  # leading imaginary part positive


def test_replaced_coordinates_move_the_plane_and_the_conic(solutions):
    # a zero is stored only as (chart, a, b): the benchmark's output check
    # moves one with dataclasses.replace, and its conic moves with it
    sol = solutions(42).solutions[0]
    moved = dataclasses.replace(sol, b=(sol.b[0] * (1 + 1e-6),) + tuple(sol.b[1:]))
    i, j = sol.chart
    assert moved.abar == sol.abar and moved.abar[i] == 1
    assert moved.cbar != sol.cbar and moved.cbar[j] == 1
    assert moved.cbar[:j] + moved.cbar[j + 1 :] == moved.b
    assert type(moved.cbar[j]) is type(moved.b[0])
    assert _pair_dists([sol], [moved])[0, 0] == pytest.approx(abs(sol.b[0]) * 1e-6)


def _real_zero(chart, a, b):
    return ConicSolution(chart, a, b, det_jac=1.0 + 0j, reality="real", sign=1, residual=0.0)


@pytest.mark.parametrize(
    "chart, a, b, back",
    [
        # the plane coefficient 0 vanishes: no point in plane chart 0
        ((1, 0), (0.0, 0.2, 0.1), (0.3, 0.2, 0.1, 0.1, 0.1), 2.0),
        # the conic coefficient 0 vanishes: no point in conic chart 0
        ((0, 1), (0.5, 0.2, 0.1), (0.0, 0.2, 0.1, 0.1, 0.1), 10 / 3),
    ],
)
def test_distance_to_a_zero_outside_the_best_chart_is_inf(chart, a, b, back):
    u = _real_zero((0, 0), (0.5, 0.2, 0.1), (0.3, 0.2, 0.1, 0.1, 0.1))
    v = _real_zero(chart, a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _pair_dists([u], [v])[0, 0] == np.inf
        assert _pair_dists([v], [u])[0, 0] == pytest.approx(back)


def _distinct_zeros_pairwise(pool):
    """The reference dedup: each candidate against every kept one, in one
    distance row."""
    out = []
    for c in pool:
        if not (_pair_dists(out, [c]) < solver.TOL_DEDUP).any():
            out.append(c)
    return out


def _classify_pairwise(cands):
    """The reference classification: each conjugate against every later
    non-real candidate."""
    reals = [c for c in cands if c.reality == "real"]
    nonreal = [c for c in cands if c.reality != "real"]
    used = [False] * len(nonreal)
    pairs, leftovers = [], []
    for idx, cand in enumerate(nonreal):
        if used[idx]:
            continue
        same = _pair_dists([_conj(cand)], nonreal)[0] < solver.TOL_DEDUP
        partner = next(
            (k for k in range(idx + 1, len(nonreal)) if not used[k] and same[k]),
            None,
        )
        if partner is None:
            leftovers.append(cand)
            continue
        used[idx] = used[partner] = True
        lead = next((v for v in np.imag(cand.a + cand.b) if abs(v) > solver.REAL_TOL), 0.0)
        pairs.append(cand if lead >= 0 else nonreal[partner])
    return reals, pairs, leftovers


def _in_chart(abar, cbar, i, reality):
    """The zero (abar, cbar in the chart-0 plane coordinates) as a candidate
    in plane chart i, canonical in the conic chart."""
    cbar_i = np.array(conic_coeffs_transition(tuple(abar), tuple(cbar), 0, i))
    return _candidate(abar, cbar_i, i, int(np.argmax(np.abs(cbar_i))), reality)


def test_matrix_dedup_matches_the_pairwise_reference():
    rng = np.random.default_rng(11)
    pool = []
    for k in range(20):
        real = k % 3 == 0
        abar = rng.standard_normal(4) + (0 if real else 1j * rng.standard_normal(4))
        cbar = rng.standard_normal(6) + (0 if real else 1j * rng.standard_normal(6))
        abar, cbar = abar / abar[0], cbar / cbar[0]
        reality = "real" if real else "pair"
        i, i2 = np.argsort(-np.abs(abar))[:2]
        # steps off the largest plane coefficient, relative to it, and
        # relative to the largest conic coefficient
        da = abar[i] * np.delete(np.eye(4), i, axis=0)
        dc = np.max(np.abs(cbar)) * np.eye(6)[3]
        zero = [_in_chart(abar, cbar, i, reality)]
        # the same zero in a second plane chart, moved by 1e-9 and 1e-7, and
        # its plane alone moved by 8e-7
        zero.append(_in_chart(abar, cbar, i2, reality))
        zero.append(_in_chart(abar * (1 + 1e-9 * rng.standard_normal(4)), cbar, i, reality))
        zero.append(_in_chart(abar + 1e-7 * da[0], cbar, i2, reality))
        zero.append(_candidate(abar + 8e-7 * da[0], zero[0].cbar, *zero[0].chart, reality))
        # near misses: plane or conic 5e-5 away, and a plane 1.5e-6 away,
        # just past TOL_DEDUP
        zero.append(_in_chart(abar + 5e-5 * da[1], cbar, i, reality))
        zero.append(_in_chart(abar, cbar + 5e-5 * dc, i2, reality))
        zero.append(_in_chart(abar + 1.5e-6 * da[2], cbar, i, reality))
        if not real:
            zero += [_conj(c) for c in zero]
        pool += zero
    for order in range(3):
        if order:
            pool = [pool[k] for k in rng.permutation(len(pool))]
        distinct = _distinct_zeros(pool)
        assert distinct == _distinct_zeros_pairwise(pool)
        assert _classify(distinct) == _classify_pairwise(distinct)
    # every zero keeps one candidate and its three near misses, non-real
    # zeros twice over with their conjugates; every conjugate is paired
    n_real = len(range(0, 20, 3))
    assert len(distinct) == 4 * n_real + 8 * (20 - n_real)
    reals, pairs, leftovers = _classify(distinct)
    assert (len(reals), len(pairs), leftovers) == (4 * n_real, 4 * (20 - n_real), [])


def test_unpaired_zero_raises(instances, monkeypatch):
    chart_candidates = solver._chart_candidates
    dropped = []

    def drop_first_nonreal(*args):
        cands = chart_candidates(*args)
        for k, cand in enumerate(cands):
            if cand is not None and cand.reality == "pair" and not dropped:
                dropped.append(cand)
                cands[k] = None
        return cands

    monkeypatch.setattr(solver, "_chart_candidates", drop_first_nonreal)
    # with no loop to find the dropped zero again, its conjugate is left
    # unpaired, and that is reported before the count
    monkeypatch.setattr(solver, "_LOOP_BUDGET", 0)
    with pytest.raises(CountMismatch, match="1 non-real zeros without a conjugate"):
        solve_all(instances[42].lines, SolverOptions(seed=42))
    assert dropped


def test_loop_endpoints_merge_one_for_one(instances, solutions, monkeypatch):
    # one real zero of seed 42 is dropped from the base leg only: one
    # monodromy loop finds it again, and the loop's endpoints merge into the
    # zeros already found one for one
    candidates = solver._candidates
    calls = []

    def drop_a_real_zero_once(*args):
        cands = candidates(*args)
        if not calls:
            cands.remove(next(c for c in cands if c.reality == "real"))
        calls.append(len(cands))
        return cands

    monkeypatch.setattr(solver, "_candidates", drop_a_real_zero_once)
    sset = solve_all(instances[42].lines, SolverOptions(seed=42))
    assert calls[0] == 91
    assert sset.stats["loops"] == 1
    assert match_solution_sets(solutions(42), sset, tol=1e-8)


def test_best_chart_moves_a_far_point():
    # a point with coordinates near 1e4 in chart (0, 0), as tracking meets
    # close to that chart's boundary, is the same zero with coordinates at
    # most 1 in its best chart
    far = np.array([1e4, 0.3, -2.0, 5e3 + 1j, 0.2, -0.4j, 7.0, 1.5])
    charts, x = solver._to_chart([far], [(0, 0)])
    assert tuple(charts[0]) != (0, 0)
    assert np.max(np.abs(x)) <= 1.0
    assert np.allclose(solver._to_chart(x, charts, np.array([(0, 0)]))[1], [far])


def test_batched_chart_map_equals_row_by_row():
    # the tracker maps every far point of a block in one call, so a row's
    # chart and coordinates must not depend on the batch it is in, or the
    # thread partition could change a chart switch
    rng = np.random.default_rng(5)
    scale = 10 ** rng.uniform(-1, 2, (500, 1))
    x = scale * rng.standard_normal((500, 8)) + 1j * rng.standard_normal((500, 8))
    charts = np.stack([rng.integers(0, 4, 500), rng.integers(0, 6, 500)], axis=1)
    for to in (None, np.roll(charts, 1, axis=0)):
        with np.errstate(divide="ignore", invalid="ignore"):
            best, y = solver._to_chart(x, charts, to)
            rows = [
                solver._to_chart(x[k : k + 1], charts[k : k + 1], None if to is None else to[k : k + 1])
                for k in range(500)
            ]
        assert (best == np.concatenate([r[0] for r in rows])).all()
        assert y.tobytes() == np.concatenate([r[1] for r in rows]).tobytes()


def test_homotopy_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((3, 2, 8, 4))
    start = solver._unit_rows(z[0] + 1j * z[1])
    end = solver._unit_rows(z[2])
    hom = ParameterHomotopy(start, end, np.exp(2j * np.pi * rng.random()))
    x = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    t = rng.random(6)
    charts = np.array([(0, 0), (2, 4), (3, 5), (1, 2), (0, 3), (2, 1)])
    planes, conics = charts.T

    def h(x, t):
        z, dz = hom.at(t, planes)
        return evaluate(z, x, conics, True, dz)

    _, hx, ht = h(x, t)
    assert evaluate(hom.at(t, planes)[0], x, conics, True)[2] is None  # H_t only on request
    eps = 1e-6
    dt = (h(x, t + eps)[0] - h(x, t - eps)[0]) / (2 * eps)
    assert np.allclose(ht, dt, rtol=1e-7, atol=1e-8)
    for v in range(8):
        e = np.zeros(8)
        e[v] = eps
        dx = (h(x + e, t)[0] - h(x - e, t)[0]) / (2 * eps)
        assert np.allclose(hx[:, :, v], dx, rtol=1e-7, atol=1e-8)
    # at t=0 each point sees the chart system of the end lines
    h0, hx0, _ = h(x, np.zeros(6))
    lines = [Line3(tuple(p), tuple(s)) for p, s in zip(*end)]
    for k, (i, j) in enumerate(charts):
        phi, jphi = solver.NumericChartSystem(Chart(i, j), lines).eval(x[k : k + 1], jac=True, raw=True)
        assert np.allclose(h0[k], phi[0]) and np.allclose(hx0[k], jphi[0])


@pytest.mark.parametrize("seed", [42, 46])
def test_tracker_takes_the_reference_steps(instances, seed):
    # sharing z(t) within a step, stopping the corrector once its move
    # passes and taking k1 from the corrector's last solve change what a
    # step costs, not which steps a path takes
    rng = np.random.default_rng([seed, 0x5EED])
    gamma = complex(np.exp(2j * np.pi * rng.random()))
    target = solver._unit_rows(solver._line_arrays(instances[seed].lines))
    hom = ParameterHomotopy(solver.base_instance()[0], target, gamma)
    starts = solver.start_solutions()
    charts = np.tile((0, 0), (len(starts), 1))
    status, x, ends, steps, rows = solver._track_block(hom, starts, charts)
    ref_status, ref_x, ref_ends, ref_steps = reference_track_block(hom, starts, charts)
    assert (status == ref_status).all() and (status == solver._REACHED).all()
    assert (steps == ref_steps).all()
    assert (ends == ref_ends).all()
    assert np.max(np.abs(x - ref_x)) <= 1e-8
    assert rows.sum() < 6 * steps.sum()


def test_endpoint_stage_settles_zeros_near_a_line(instances, solutions):
    # seed 46 has two real zeros on a plane that nearly contains line 5;
    # the scaled residual passes there long before each line's relative
    # residual does, so refinement takes one more step after it passes
    lines = instances[46].lines
    sols = solutions(46).solutions
    x = np.array([s.a + s.b for s in sols], dtype=complex)
    noise = np.random.default_rng(46).standard_normal(x.shape + (2,)) @ [1, 1j]
    cands = solver._candidates(x * (1 + 1e-9 * noise), [s.chart for s in sols], lines)
    assert len(cands) == len(sols)
    assert max(relative_section_residual(lines, c) for c in cands) <= 1e-10


def test_base_fixture_is_complete():
    data = json.loads(resources.files("conics92").joinpath("base92.json").read_text())
    rows, zeros = solver.base_instance()
    # the lines are the recorded draw of scripts/make_base92.py
    z = np.random.default_rng(data["draw"]).standard_normal((2, 2, 8, 4))
    assert np.allclose(rows, solver._unit_rows(z[0] + 1j * z[1]), rtol=0, atol=1e-15)
    assert zeros.shape == (92, 8)
    lines = [Line3(tuple(p), tuple(s)) for p, s in zip(*rows)]
    system = solver.NumericChartSystem(Chart(0, 0), lines)
    sigma = np.linalg.svd(system.eval(zeros, jac=True)[1], compute_uv=False)[:, -1]
    assert all(sigma > solver.SIGMA_FLOOR)
    # in its best chart each zero has an absolute residual below TOL_RESIDUAL
    cands = solver._candidates(zeros, np.tile((0, 0), (92, 1)), lines)
    assert len(cands) == 92
    assert all(c.residual <= solver.TOL_RESIDUAL for c in cands)
    assert all(c.sigma_min > solver.SIGMA_FLOOR for c in cands)
    moved = solver._to_chart(zeros, np.zeros((92, 2), dtype=int), np.array([c.chart for c in cands]))[1]
    assert np.allclose(moved, [c.a + c.b for c in cands], rtol=0, atol=1e-12)
    assert _distinct_zeros(cands) == cands
    # H_x at every base zero in its best chart is no worse conditioned than
    # the recorded draw's largest condition number
    cond = [
        np.linalg.cond(
            solver.NumericChartSystem(Chart(*c.chart), lines).eval(
                np.array([c.a + c.b]), jac=True, raw=True
            )[1][0]
        )
        for c in cands
    ]
    assert max(cond) <= data["cond"]


def test_path_stats_compares_a_saved_run(tmp_path):
    root = Path(__file__).resolve().parent.parent
    src = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    saved = tmp_path / "seed42.json"
    for flag in ("--save", "--compare"):
        run = subprocess.run(
            [sys.executable, str(root / "scripts" / "path_stats.py"), "42", "42", flag, str(saved)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[1].endswith("  ok")
