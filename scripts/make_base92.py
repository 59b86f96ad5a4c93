"""Build src/conics92/base92.json, the base instance of `solve_all`.

Every path of `solve_all` starts at a zero of the base, so the base should be
generic and its zeros well conditioned (Morgan & Sommese 1989).  It is a draw
of random complex lines with its 92 zeros, reached by monodromy from one
planted real zero (Duff et al. 2019):

1. Monodromy loops grow the exact planted zero of gen_planted_instance(SEED)
   to all 92 zeros of that real instance, with the solver's own loop
   function.  Finding 92 distinct nonsingular zeros meets the count of the
   problem, which caps them, so the set is complete.  SEED is the first
   planted seed whose rational planted zero has no vanishing coordinate in
   any chart (seed 0 has a_3 = 0).
2. For each k in DRAWS, np.random.default_rng(k) draws complex lines with
   standard normal real and imaginary parts, as unit rows.  One leg tracks
   the 92 real zeros there; `_candidates` refines the endpoints and
   `_distinct_zeros` merges them; monodromy loops at the drawn lines find
   any zero the leg missed.
3. The selection rule looks only at the base: of the draws with all 92
   zeros, the one whose largest condition number of H_x, taken at each zero
   in its best chart, is smallest is written out.  The file holds the draw,
   that condition number rounded up to two decimals, the lines as [re, im]
   rows and the 92 zeros in chart (0, 0).

Run from the repository root:  PYTHONPATH=src python3 scripts/make_base92.py [OUT]
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from conics92 import solver
from conics92.geometry import Chart, Line3
from conics92.harness import gen_planted_instance

SEED = 1
DRAWS = range(8)
LOOP_BUDGET = 40
OUT = Path(__file__).resolve().parent.parent / "src" / "conics92" / "base92.json"


def max_cond(zeros, lines) -> float:
    """The largest condition number of H_x over the zeros, each in its chart
    (the best chart, as `_candidates` returns them)."""
    return max(
        np.linalg.cond(
            solver.NumericChartSystem(Chart(*z.chart), lines).eval(
                np.array([z.a + z.b]), jac=True, raw=True
            )[1][0]
        )
        for z in zeros
    )


def planted_zeros():
    """The 92 zeros of gen_planted_instance(SEED) and its unit rows."""
    inst = gen_planted_instance(SEED)
    point = inst.planted_point
    planted = np.array([complex(v) for v in point.a + point.b])
    zeros = solver._candidates([planted], [(point.chart.i, point.chart.j)], inst.lines)
    rng = np.random.default_rng([SEED, 0xBA5E])
    zeros, loops = solver.monodromy(inst.lines, zeros, 1, rng, [])
    if len(zeros) != 92:
        raise SystemExit(f"found {len(zeros)} zeros after {loops} loops")
    rows = solver._unit_rows(solver._line_arrays(inst.lines))
    cond = max_cond(zeros, [Line3(tuple(p), tuple(s)) for p, s in zip(*rows)])
    print(f"planted seed {SEED}: 92 zeros after {loops} loops, max cond {cond:.4g}")
    return zeros, rows


def draw_zeros(k: int, start, real_zeros):
    """Draw k: its unit rows, its lines and the distinct zeros found there."""
    rng = np.random.default_rng(k)
    z = rng.standard_normal((2, 2, 8, 4))
    rows = solver._unit_rows(z[0] + 1j * z[1])
    lines = [Line3(tuple(p), tuple(s)) for p, s in zip(*rows)]
    x = np.array([c.a + c.b for c in real_zeros])
    charts = np.array([c.chart for c in real_zeros])
    ends = solver._leg(start, rows, x, charts, 1, rng, [])
    zeros = solver._distinct_zeros(solver._candidates(*ends, lines))
    found = len(zeros)
    zeros, loops = solver.monodromy(lines, zeros, 1, rng, [])
    print(f"draw {k}: {found} zeros from the leg, {len(zeros)} after {loops} loops")
    return rows, lines, zeros


def main(out: Path) -> None:
    real_zeros, start = planted_zeros()
    best = None
    for k in DRAWS:
        rows, lines, zeros = draw_zeros(k, start, real_zeros)
        if len(zeros) != 92:
            continue
        cond = max_cond(zeros, lines)
        print(f"  max cond {cond:.4g}")
        if best is None or cond < best[0]:
            best = (cond, k, rows, zeros)
    if best is None:
        raise SystemExit("no draw reached 92 zeros")
    cond, k, rows, zeros = best
    charts = np.array([z.chart for z in zeros])
    x = solver._to_chart([z.a + z.b for z in zeros], charts, np.zeros_like(charts))[1]
    coords = sorted(x, key=solver._round_key)

    def pairs(x):
        return json.dumps([[v.real, v.imag] for v in x])

    lines = ",\n".join(f' {{"p": {pairs(p)}, "s": {pairs(s)}}}' for p, s in zip(*rows))
    zeros_json = ",\n".join(" " + pairs(x) for x in coords)
    out.write_text(
        f'{{"draw": {k},\n"cond": {math.ceil(cond * 100) / 100},\n'
        f'"lines": [\n{lines}\n],\n"zeros": [\n{zeros_json}\n]}}\n'
    )
    print(f"draw {k}, max cond {cond:.4g} -> {out}")


if __name__ == "__main__":
    solver._LOOP_BUDGET = LOOP_BUDGET  # growing one zero to 92 takes more loops than a solve
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
