"""The benchmark's three workloads: their instances, ops and output checks.

``setup(seed)`` generates a workload's instances from the benchmark seed and
returns its op list, one pass of the closed loop.  An op runs one public
call of the program on one generated instance and returns its output; the
op's ``check`` judges that output afterwards, outside the timed region.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from conics92 import harness
from conics92.errors import BadReduction
from conics92.solver import SolverOptions

import checks

# ROADMAP's instance seeds.  Seed 44 re-tracks 350 paths after a gamma retry
# and seed 46 raises SingularStartSystem in a fallback chart: both stay in.
ROADMAP_SEEDS = tuple(range(42, 50))

# Planted seeds of bruteforce-fp.  One F_5 solve takes from 0.25 s to 0.74 s
# depending on the instance, so a fixed set, not one drawn per benchmark
# seed, keeps op_p50_s comparable between runs.
PLANTED_SEEDS = tuple(range(42, 46))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # exact counts read from the public return values, for the traced run
    counts: Callable[[object], dict]


class SolveCapture:
    """Keeps the SolutionSet that verify() builds and does not return.

    Installed as ``harness.solve_all`` for the whole run, traced or not;
    it adds one Python call per op.
    """

    def __init__(self):
        self.last = None
        self._orig = None

    def __enter__(self):
        self._orig = harness.solve_all

        @functools.wraps(self._orig)
        def capture(*args, **kwargs):
            self.last = self._orig(*args, **kwargs)
            return self.last

        harness.solve_all = capture
        return self

    def __exit__(self, *exc):
        harness.solve_all = self._orig


def _verify_op(s: int, capture: SolveCapture) -> Op:
    inst = harness.gen_random_instance(s, 10)

    def run():
        capture.last = None
        report = harness.verify(inst, SolverOptions(seed=s))
        return report, capture.last

    def counts(out):
        sset = capture.last  # also set when verify raised after solving
        if sset is None:
            return {}
        stats = sset.stats
        return {
            "solver.path_steps": sum(p.steps for p in sset.paths),
            "solver.steps_converged": sum(
                p.steps for p in sset.paths if p.status == "converged"
            ),
            "solver.paths_tracked": stats["paths_tracked"],
            "solver.paths_converged": stats["converged_paths"],
            "solver.paths_diverged": stats["diverged_paths"],
            "solver.paths_failed": stats["failed_paths"],
            "solver.retracked_paths": stats["retracked"],
            "solver.fallback_charts": len(stats["fallback_charts"]),
        }

    return Op(
        f"verify seed={s}",
        run,
        lambda out: checks.check_verify(inst.lines, *out),
        counts,
    )


def _rotated(seeds: tuple, seed: int) -> tuple:
    """``seeds`` in order, starting at the one congruent to ``seed``."""
    k = (seed - seeds[0]) % len(seeds)
    return seeds[k:] + seeds[:k]


def setup_verify_random(seed: int, capture: SolveCapture) -> list:
    """All eight ROADMAP instances every pass, starting at seed 42 + seed mod 8."""
    return [_verify_op(s, capture) for s in _rotated(ROADMAP_SEEDS, seed)]


def candidates(q: int) -> int:
    """(plane, conic) pairs a brute force over F_q tests: |P^3(F_q)| |P^5(F_q)|."""
    return (q**4 - 1) // (q - 1) * ((q**6 - 1) // (q - 1))


def _planted_pair_op(s: int) -> Op:
    insts = {p: harness.gen_planted_instance(s, ensure_prime=p) for p in (5, 7)}
    reduced = {p: harness.reduce_instance(insts[p], p) for p in (5, 7)}

    def run():
        return {p: harness.brute_force_fq(insts[p], p, 1) for p in (5, 7)}

    def check(out):
        return [
            f"F{p}: {msg}"
            for p in (5, 7)
            for msg in checks.check_bruteforce_fp(reduced[p], out[p])
        ]

    def counts(out):
        if out is None:
            return {}
        return {
            "harness.bruteforce.candidates": sum(candidates(p) for p in out),
            "harness.bruteforce.zeros": sum(len(sols) for sols in out.values()),
        }

    return Op(f"planted seed={s} F5+F7", run, check, counts)


def setup_bruteforce_fp(seed: int, capture=None) -> list:
    """The four planted instances every pass, each solved over F_5 and over
    F_7 in one op, starting at planted seed 42 + seed mod 4."""
    return [_planted_pair_op(s) for s in _rotated(PLANTED_SEEDS, seed)]


def setup_bruteforce_fp2(seed: int, capture=None) -> list:
    """One random instance with good reduction mod 3, solved over F_9."""
    s = seed
    while True:
        inst = harness.gen_random_instance(s, 10)
        try:
            reduced = harness.reduce_instance(inst, 3)
            break
        except BadReduction:
            s += 1

    def check(sols):
        return checks.check_bruteforce_fp2(reduced, sols, harness.brute_force_fq(inst, 3, 1))

    def counts(sols):
        if sols is None:
            return {}
        return {
            "harness.bruteforce.candidates": candidates(9),
            "harness.bruteforce.zeros": len(sols),
        }

    return [
        Op(f"random seed={s} F9", lambda: harness.brute_force_fq(inst, 3, 2), check, counts)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    # ops in the traced run; a fixed count keeps its counts exactly repeatable
    traced_ops: int


# BENCHMARK.json and bench/README.md give the reason for each workload
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-random", setup_verify_random, 3),
        Workload("bruteforce-fp", setup_bruteforce_fp, 2),
        Workload("bruteforce-fp2", setup_bruteforce_fp2, 1),
    )
}
