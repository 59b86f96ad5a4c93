"""Build src/conics92/base92.json, the base instance of `solve_all`.

The base is gen_planted_instance(SEED).  Monodromy loops grow its exact
planted zero to all 92 zeros with the solver's own loop function, and the
integer lines and the 92 zeros in chart (0, 0) are written out.  Finding 92
distinct nonsingular zeros meets the count of the problem, which caps them,
so the base is complete.  Tracking may start in any chart, so no base zero
may lie outside one: SEED is the first planted seed whose rational planted
zero has no vanishing coordinate in any chart (seed 0 has a_3 = 0).

Run from the repository root:  PYTHONPATH=src python3 scripts/make_base92.py [OUT]
"""

import json
import sys
from pathlib import Path

import numpy as np

from conics92 import solver
from conics92.harness import gen_planted_instance

SEED = 1
LOOP_BUDGET = 40
OUT = Path(__file__).resolve().parent.parent / "src" / "conics92" / "base92.json"


def main(out: Path) -> None:
    inst = gen_planted_instance(SEED)
    point = inst.planted_point
    planted = np.array([complex(v) for v in point.a + point.b])
    zeros = solver._candidates([planted], [(point.chart.i, point.chart.j)], inst.lines)
    rng = np.random.default_rng([SEED, 0xBA5E])
    zeros, loops = solver.monodromy(inst.lines, zeros, 92, LOOP_BUDGET, 1, rng, [])
    if len(zeros) != 92:
        raise SystemExit(f"found {len(zeros)} zeros after {loops} loops")
    coords = sorted(
        (solver._to_chart(z.a + z.b, z.chart, (0, 0))[1] for z in zeros),
        key=solver._round_key,
    )
    lines = [{k: [int(v) for v in getattr(ln, k)] for k in "ps"} for ln in inst.lines]
    rows = ",\n".join(" " + json.dumps([[v.real, v.imag] for v in x]) for x in coords)
    out.write_text(
        f'{{"seed": {SEED},\n"lines": {json.dumps(lines)},\n"zeros": [\n{rows}\n]}}\n'
    )
    print(f"{len(zeros)} zeros after {loops} loops -> {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
