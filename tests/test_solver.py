import json

import numpy as np
import pytest

from conics92 import solver
from conics92.errors import CountMismatch, IncompleteSet
from conics92.geometry import conic_coeffs_transition
from conics92.gw import EQUAL, GwForm, gw_equal, invariants
from conics92.solver import (
    ConicSolution,
    SolverOptions,
    _classify,
    _distinct_zeros,
    assemble_enriched_count,
    make_homotopy,
    solve_all,
    projective_pair_dist,
    start_solutions,
    track,
)

from helpers import match_solution_sets


def test_start_solutions_count_and_residual(instances):
    opts = SolverOptions(seed=42)
    hsys = make_homotopy(instances[42].lines, opts)
    starts = start_solutions(hsys)
    assert starts.shape == (448, 8)
    g, _ = hsys.start.eval(starts)
    assert float(np.max(np.abs(g))) < 1e-12


def test_start_solutions_pairwise_distinct(instances):
    hsys = make_homotopy(instances[42].lines, SolverOptions(seed=42))
    starts = start_solutions(hsys)
    dmin = np.inf
    for i in range(0, 448, 64):
        blk = starts[i : i + 64]
        dd = np.abs(blk[:, None, :] - starts[None, :, :]).max(axis=2)
        for r in range(blk.shape[0]):
            dd[r, i + r] = np.inf
        dmin = min(dmin, float(dd.min()))
    assert dmin > 1e-6


def test_total_degree_start(instances):
    opts = SolverOptions(seed=42, total_degree=True)
    hsys = make_homotopy(instances[42].lines, opts)
    starts = start_solutions(hsys)
    assert starts.shape == (6561, 8)
    g, _ = hsys.start.eval(starts)
    assert float(np.max(np.abs(g))) < 1e-12


def test_track_single_path(instances):
    opts = SolverOptions(seed=42)
    hsys = make_homotopy(instances[42].lines, opts)
    starts = start_solutions(hsys)
    # no motion at t=1: the start point satisfies the homotopy exactly
    g, _ = hsys.start.eval(starts[:1])
    h_at_start = hsys.gamma * 1.0 * g
    assert float(np.max(np.abs(h_at_start))) < 1e-12
    path = track(starts[0], hsys, opts)
    assert path.status in ("converged", "diverged", "failed")
    assert path.steps > 0
    if path.status == "converged":
        assert path.residual < 1e-10


def test_solve_seed42_contract(solutions):
    sset = solutions(42)
    assert sset.count == 92
    assert sset.stats["paths_tracked"] == 448
    assert all(s.residual < 1e-12 for s in sset.solutions)
    assert all(abs(s.det_jac) > 1e-8 for s in sset.solutions)
    r = len(sset.real_solutions)
    assert r % 2 == 0  # conjugation forces an even real count... of non-reals
    assert r + 2 * len(sset.pair_solutions) == 92


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


def test_chart_stability(instances, solutions):
    base = solutions(42)
    other = solve_all(instances[42].lines, SolverOptions(seed=42, chart=(1, 2)))
    assert other.count == 92
    assert match_solution_sets(base, other, tol=1e-6)


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
        abar=tuple(abar),
        cbar=tuple(cbar),
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
    assert solver._proj_dist(u.cbar, v.cbar) > 1e-3  # only the transition matches them
    assert projective_pair_dist(u, v) < 1e-9
    assert _distinct_zeros([u, v], 1e-6) == [u]
    assert _distinct_zeros([v, u], 1e-6) == [v]


def test_close_real_zeros_stay_distinct():
    # 5.1e-5 is the gap between the two closest zeros of seed 46
    gap = 5.1e-5
    abar = np.array([1.0, 0.3, -0.2, 0.6])
    cbar = np.array([1.0, 0.7, -0.4, 0.3, 0.2, -0.9])
    u = _candidate(abar, cbar, 0, 0, "real")
    moved_plane = _candidate(abar + [0, gap, 0, 0], cbar, 0, 0, "real")
    moved_conic = _candidate(abar, cbar + [0, 0, gap, 0, 0, 0], 0, 0, "real")
    assert _distinct_zeros([u, moved_plane, moved_conic], 1e-6) == [
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
    reals, pairs, leftovers = _classify([real, lonely, z, _conj(z)], SolverOptions())
    assert reals == [real]
    assert leftovers == [lonely]
    assert len(pairs) == 1
    assert pairs[0].abar == _conj(z).abar  # leading imaginary part positive


def test_unpaired_zero_raises(instances, monkeypatch):
    canonical = solver._canonical_chart_data
    dropped = []

    def drop_first_nonreal(*args):
        cand = canonical(*args)
        if cand is not None and cand.reality == "pair" and not dropped:
            dropped.append(cand)
            return None
        return cand

    monkeypatch.setattr(solver, "_canonical_chart_data", drop_first_nonreal)
    opts = SolverOptions(seed=42, expected_count=None)
    with pytest.raises(CountMismatch, match="1 non-real zeros without a conjugate"):
        solve_all(instances[42].lines, opts)
    assert dropped


def test_fallback_chart_merges_without_double_counting(instances):
    # seed 42 has 92 zeros; asking for 93 forces fallback chart (1, 2), whose
    # own 92 zeros must merge into the pool of chart (0, 0) one for one
    opts = SolverOptions(
        seed=42, expected_count=93, gamma_retries=0, fallback_charts=((1, 2),)
    )
    with pytest.raises(CountMismatch, match="found 92 zeros") as err:
        solve_all(instances[42].lines, opts)
    assert "'fallback_charts': [(1, 2)]" in str(err.value)
