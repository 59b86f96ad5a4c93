"""Output checks made from outside the program.

Each check takes an op's inputs and its public return value and returns a
list of problems; an empty list means the output is correct.  The checks
recompute what they can with other code paths than the op used: the exact
section evaluator for the float solver, the incidence oracle for the
brute-force kernels, and the prime-field kernel for the quadratic-extension
one.
"""

from __future__ import annotations

from conics92.fields import QuadExtField
from conics92.geometry import (
    Chart,
    ChartPoint,
    Line3,
    Plane3,
    conic_coeffs_transition,
    conic_value,
    meet_plane_oracle,
    plane_coords,
)
from conics92.errors import LineInPlane
from conics92.section import SectionSystem, eval_section, monomial_vector

# The solver stops once the section's residual on unit-normalized lines is
# below tol_residual = 1e-12 (times max(1, term size)).  Re-evaluated exactly
# on the caller's integer lines, that is a backward error of about 1e-12 of
# the size of the terms summed; float roundoff in a 6-term cubic adds about
# 1e-15.  Seed 42's worst reported zero sits at 2.9e-10 in absolute terms and
# below 1e-13 relative to its terms.  1e-9 relative keeps three orders of
# magnitude of margin, and a zero moved by 1e-6 of its size still fails.
REL_TOL = 1e-9
# Distinct solutions of a generic instance are far apart; the solver's own
# dedup tolerance is 1e-6.
DISTINCT_TOL = 1e-6


def _normalize(vec):
    k = max(range(len(vec)), key=lambda i: abs(vec[i]))
    return [v / vec[k] for v in vec], k


def _section_residual(lines, sol) -> float:
    """Largest |component| of the exact section at a reported zero, relative
    to the sum of the magnitudes of the terms that make it up."""
    chart = Chart(*sol.chart)
    point = ChartPoint(
        chart, tuple(complex(v) for v in sol.a), tuple(complex(v) for v in sol.b)
    )
    system = SectionSystem(chart, lines)
    values = eval_section(system, point)
    coeffs = system.coefficients(point)
    worst = 0.0
    for value, z in zip(values, system.point_reps(point)):
        terms = sum(abs(c) * abs(m) for c, m in zip(coeffs, monomial_vector(z)))
        worst = max(worst, abs(value) / terms if terms else abs(value))
    return worst


def _same_conic(s, t) -> bool:
    pa, i = _normalize(list(s.abar))
    if t.abar[i] == 0:
        return False
    pb = [v / t.abar[i] for v in t.abar]
    if max(abs(u - v) for u, v in zip(pa, pb)) >= DISTINCT_TOL:
        return False
    ca = conic_coeffs_transition(tuple(s.abar), tuple(s.cbar), s.chart[0], i)
    cb = conic_coeffs_transition(tuple(t.abar), tuple(t.cbar), t.chart[0], i)
    ca, k = _normalize(list(ca))
    cb = [v / cb[k] for v in cb] if cb[k] != 0 else None
    return cb is not None and max(abs(u - v) for u, v in zip(ca, cb)) < DISTINCT_TOL


def check_verify(lines, report, sset) -> list:
    """verify(): the report's verdict and the solution set behind it."""
    problems = []
    if not report.passed:
        failed = [c["name"] for c in report.checks if not c["pass"]]
        problems.append(f"report not passed: verdict={report.verdict} checks={failed}")
    summary = report.to_json()
    if report.count != 92 or summary["rank"] != 92 or summary["signature"] != 0:
        problems.append(
            f"report count={report.count} rank={summary['rank']} "
            f"signature={summary['signature']}"
        )
    # recount from the solutions: a real zero adds <+-1>, a pair adds H
    reals = [s for s in sset.solutions if s.reality == "real"]
    pairs = [s for s in sset.solutions if s.reality == "pair"]
    rank = len(reals) + 2 * len(pairs)
    signature = sum(s.sign for s in reals)
    if rank != 92 or signature != 0 or len(reals) + len(pairs) != len(sset.solutions):
        problems.append(
            f"solution set has {len(reals)} real + {len(pairs)} pairs, "
            f"signature {signature}"
        )
    worst = max((_section_residual(lines, s) for s in sset.solutions), default=0.0)
    if not worst <= REL_TOL:
        problems.append(f"exact section residual {worst:.2e} > {REL_TOL:.0e}")
    sols = sset.solutions
    for m in range(len(sols)):
        for k in range(m + 1, len(sols)):
            if _same_conic(sols[m], sols[k]):
                problems.append(f"solutions {m} and {k} coincide")
    return problems


def _incidence_problems(lines, sols) -> list:
    problems = []
    keys = set()
    for n, sol in enumerate(sols):
        plane = Plane3(sol.plane)
        for line in lines:
            try:
                x = meet_plane_oracle(line, plane)
            except LineInPlane:
                problems.append(f"zero {n}: a line lies in its plane")
                break
            if conic_value(sol.conic, plane_coords(sol.istar, x)) != 0:
                problems.append(f"zero {n}: conic misses a line")
                break
        keys.add((tuple(sol.plane), tuple(sol.conic)))
    if len(keys) != len(sols):
        problems.append("brute force returned a zero twice")
    return problems


def check_bruteforce_fp(reduced, sols) -> list:
    """brute_force_fq over F_p on a planted instance reduced mod p."""
    problems = _incidence_problems(reduced.lines, sols)
    plant = reduced.meta["planted_mod_p"]
    chart = tuple(plant["chart"])
    found = False
    for sol in sols:
        pt = sol.chart_points.get(chart)
        if pt is not None and [v.value for v in pt.a] == plant["a"] and [
            v.value for v in pt.b
        ] == plant["b"]:
            found = True
    if not found:
        problems.append(f"planted zero mod {reduced.meta['p']} missing")
    return problems


def check_bruteforce_fp2(reduced, sols, sols_base) -> list:
    """brute_force_fq over F_{p^2}; sols_base is the F_p solve of the same
    instance, whose zeros are exactly the F_{p^2} zeros with every c1 = 0."""
    ext = QuadExtField(reduced.meta["p"])
    lift = lambda pt: tuple(ext(v.value) for v in pt)
    lines = [Line3(lift(ln.p), lift(ln.s)) for ln in reduced.lines]
    problems = _incidence_problems(lines, sols)
    rational = {
        (tuple(v.c0 for v in s.plane), tuple(v.c0 for v in s.conic))
        for s in sols
        if all(v.c1 == 0 for v in s.plane + s.conic)
    }
    base = {
        (tuple(v.value for v in s.plane), tuple(v.value for v in s.conic))
        for s in sols_base
    }
    if rational != base:
        problems.append(
            f"{len(rational)} F_{ext.p}-rational zeros over F_{ext.p}^2, "
            f"{len(base)} over F_{ext.p}"
        )
    return problems
