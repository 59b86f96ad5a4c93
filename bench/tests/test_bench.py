"""The benchmark's own tests: metric names, output checks and a smoke run.

    python -m pytest -q bench/tests

They sit outside the tier-1 test paths, so the tier-1 run never starts them.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from conics92.fields import QuadExtField  # noqa: E402
from conics92.harness import (  # noqa: E402
    BruteForceSolution,
    brute_force_fq,
    gen_planted_instance,
    gen_random_instance,
    reduce_instance,
    verify,
)
from conics92.solver import SolverOptions  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_metrics_match_the_runner():
    spec = _spec()
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == run.per_layer_units()
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


# ---------------------------------------------------------------------------
# output checks reject corrupted results
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved():
    inst = gen_random_instance(1, 10)
    with workloads.SolveCapture() as capture:
        report = verify(inst, SolverOptions(seed=1))
    return inst, report, capture.last


def _with_solutions(sset, solutions):
    return dataclasses.replace(sset, solutions=solutions)


def test_verify_check_accepts_a_correct_result(solved):
    inst, report, sset = solved
    assert checks.check_verify(inst.lines, report, sset) == []


def test_verify_check_rejects_a_dropped_pair(solved):
    inst, report, sset = solved
    k = next(n for n, s in enumerate(sset.solutions) if s.reality == "pair")
    dropped = _with_solutions(sset, sset.solutions[:k] + sset.solutions[k + 1 :])
    assert checks.check_verify(inst.lines, report, dropped)


def test_verify_check_rejects_a_moved_zero(solved):
    inst, report, sset = solved
    sol = sset.solutions[0]
    moved = dataclasses.replace(sol, b=(sol.b[0] * (1 + 1e-6),) + tuple(sol.b[1:]))
    bad = _with_solutions(sset, [moved] + sset.solutions[1:])
    assert any("residual" in p for p in checks.check_verify(inst.lines, report, bad))


def test_verify_check_rejects_a_repeated_zero(solved):
    inst, report, sset = solved
    pairs = [s for s in sset.solutions if s.reality == "pair"]
    others = [s for s in sset.solutions if s is not pairs[1]]
    bad = _with_solutions(sset, others + [pairs[0]])
    assert any("coincide" in p for p in checks.check_verify(inst.lines, report, bad))


@pytest.fixture(scope="module")
def planted():
    inst = gen_planted_instance(0, ensure_prime=5)
    reduced = reduce_instance(inst, 5)
    return reduced, brute_force_fq(inst, 5, 1)


def _bump_conic(sol, k=0):
    conic = list(sol.conic)
    conic[k] = conic[k] + 1
    return dataclasses.replace(sol, conic=tuple(conic))


def test_fp_check_accepts_a_correct_result(planted):
    reduced, sols = planted
    assert checks.check_bruteforce_fp(reduced, sols) == []


def test_fp_check_rejects_a_changed_coefficient(planted):
    reduced, sols = planted
    bad = [_bump_conic(sols[0], len(sols[0].conic) - 1)] + sols[1:]
    assert any("misses" in p for p in checks.check_bruteforce_fp(reduced, bad))


def test_fp_check_rejects_a_missing_planted_zero(planted):
    reduced, sols = planted
    plant = reduced.meta["planted_mod_p"]
    chart = tuple(plant["chart"])
    kept = [
        s
        for s in sols
        if chart not in s.chart_points
        or [v.value for v in s.chart_points[chart].a] != plant["a"]
    ]
    assert len(kept) == len(sols) - 1
    assert any("planted" in p for p in checks.check_bruteforce_fp(reduced, kept))


@pytest.fixture(scope="module")
def f3_lifted():
    """The F_3 zeros of an instance written as F_9 zeros: a cheap stand-in
    for the 30-second F_9 solve, with exactly the F_3 zeros as its
    rational part."""
    inst = gen_random_instance(42, 10)
    reduced = reduce_instance(inst, 3)
    base = brute_force_fq(inst, 3, 1)
    ext = QuadExtField(3)
    lifted = [
        BruteForceSolution(
            plane=tuple(ext(v.value) for v in s.plane),
            conic=tuple(ext(v.value) for v in s.conic),
            istar=s.istar,
            chart_points={},
            chart_dets={},
        )
        for s in base
    ]
    return reduced, lifted, base


def test_fp2_check_accepts_consistent_zeros(f3_lifted):
    reduced, lifted, base = f3_lifted
    assert checks.check_bruteforce_fp2(reduced, lifted, base) == []


def test_fp2_check_rejects_a_changed_coefficient(f3_lifted):
    reduced, lifted, base = f3_lifted
    bad = [_bump_conic(lifted[0], 5)] + lifted[1:]
    assert any("misses" in p for p in checks.check_bruteforce_fp2(reduced, bad, base))


def test_fp2_check_rejects_a_lost_rational_zero(f3_lifted):
    reduced, lifted, base = f3_lifted
    assert checks.check_bruteforce_fp2(reduced, lifted[1:], base)


# ---------------------------------------------------------------------------
# the runner itself
# ---------------------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(trace):
    proc = _run(ROOT, "--workload", "bruteforce-fp", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "bruteforce-fp", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
