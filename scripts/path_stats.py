"""Per-seed tracking statistics of `solve_all`, and a check across two trees.

For each seed from FIRST to LAST it solves gen_random_instance(seed, 10)
with SolverOptions(seed=seed) and prints the path-steps (summed over every
tracked path), the homotopy rows evaluated per path-step, the block
iterations (iterations of the batched tracker, summed over its calls), the
monodromy loops and the wall time, then the totals.  A seed whose solve raises is reported and counted as failed.

--save FILE writes the solutions of every seed as JSON.  --compare FILE
checks them against a file saved under another tree: every seed must match
under `match_solution_sets` at 1e-9, with the same real zeros (each matched
within 1e-9 to a real zero of the same sign).  The exit status is 1 when a
seed failed or a comparison did not hold.

Run from the repository root, for example before and after a change:

    PYTHONPATH=/path/to/other/tree/src python3 scripts/path_stats.py 42 49 --save before.json
    PYTHONPATH=src python3 scripts/path_stats.py 42 49 --compare before.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conics92 import solver  # noqa: E402
from conics92.fields import complex_from_json  # noqa: E402
from conics92.harness import gen_random_instance  # noqa: E402
from helpers import match_solution_sets, same_real_zeros  # noqa: E402

TOL = 1e-9


def _from_json(data: dict) -> solver.SolutionSet:
    sols = []
    for d in data["solutions"]:
        sols.append(
            solver.ConicSolution(
                chart=tuple(d["chart"]),
                a=tuple(complex_from_json(v) for v in d["a"]),
                b=tuple(complex_from_json(v) for v in d["b"]),
                det_jac=complex_from_json(d["jacobian"]),
                reality=d["reality"],
                sign=d["sign"],
                residual=d["residual"],
            )
        )
    return solver.SolutionSet(solutions=sols, paths=[], stats=data["stats"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    ap.add_argument("--save", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args(argv)
    reference = json.loads(args.compare.read_text()) if args.compare else {}

    iterations = []
    track_block = solver._track_block

    def counted(hom, starts, charts):
        out = track_block(hom, starts, charts)
        iterations.append(int(out[3].max(initial=0)))  # the slowest path ends the block
        return out

    solver._track_block = counted
    saved, bad = {}, 0
    totals = dict(steps=0, rows=0, iterations=0, loops=0, seconds=0.0)
    header = f"{'seed':>5} {'steps':>8} {'rows/st':>7} {'iters':>6} {'loops':>5} {'wall_s':>7}"
    print(header + ("  match" if args.compare else ""))
    for seed in range(args.first, args.last + 1):
        inst = gen_random_instance(seed, 10)
        iterations.clear()
        t0 = time.perf_counter()
        try:
            sset = solver.solve_all(inst.lines, solver.SolverOptions(seed=seed))
        except Exception as exc:  # report the seed and go on to the next
            print(f"{seed:>5} failed: {type(exc).__name__}: {str(exc)[:120]}")
            bad += 1
            continue
        row = dict(
            steps=sset.stats["path_steps"],
            rows=sset.stats["eval_rows"],
            iterations=sum(iterations),
            loops=sset.stats["loops"],
            seconds=time.perf_counter() - t0,
        )
        for key, value in row.items():
            totals[key] += value
        per_step = row["rows"] / max(row["steps"], 1)
        line = f"{seed:>5} {row['steps']:>8} {per_step:>7.2f} {row['iterations']:>6} {row['loops']:>5} {row['seconds']:>7.2f}"
        saved[str(seed)] = sset.to_json()
        if args.compare:
            other = reference.get(str(seed))
            ok = other is not None and (
                match_solution_sets(sset, _from_json(other), tol=TOL)
                and same_real_zeros(sset, _from_json(other), tol=TOL)
            )
            bad += not ok
            line += "  ok" if ok else "  MISMATCH"
        print(line)
    n = len(saved)
    print(
        f"total {totals['steps']:>8} {totals['rows'] / max(totals['steps'], 1):>7.2f}"
        f" {totals['iterations']:>6} {totals['loops']:>5}"
        f" {totals['seconds']:>7.2f}  ({n} seeds solved, mean {totals['steps'] / max(n, 1):.0f} steps per seed)"
    )
    if args.save:
        args.save.write_text(json.dumps(saved))
    if bad:
        print(f"{bad} seeds failed or did not match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
