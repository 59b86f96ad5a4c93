#!/usr/bin/env python3
"""Interleaved benchmark pairs of two trees, with medians, quartiles and wins.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds 1-10 --out BENCH.json

For each seed S it runs `python3 bench/run.py --workload W --seed S --trace 0`
in both trees, one after the other, parent first on odd seeds and change
first on even ones, and reads the last JSON line of each run.  It then
writes the workload's entry of FILE's "workloads": every pair, and per
end-to-end metric of CHANGE_DIR/BENCHMARK.json each side's median and
quartiles, the parent's interquartile range, the change/parent ratio of the
medians and the number of pairs the change wins.  `attempted`, the ops one
run completes, is summarized the same way.  Other keys of an existing FILE
are kept, so one FILE collects every workload.  Uses the stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    row = {key: last[key] for key in ("attempted", "failed", "correct")}
    row.update((name, round(m["value"], 4)) for name, m in last["metrics"].items())
    return row


def summarize(pairs: list, name: str, lower_is_better: bool) -> dict:
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]

    def quartiles(values):
        q = statistics.quantiles(values, n=4, method="inclusive")
        return [round(q[0], 4), round(q[2], 4)]

    pq = quartiles(parent)
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    return {
        "parent_median": round(statistics.median(parent), 4),
        "change_median": round(statistics.median(change), 4),
        "ratio": round(statistics.median(change) / statistics.median(parent), 3),
        "parent_quartiles": pq,
        "change_quartiles": quartiles(change),
        "parent_iqr": round(pq[1] - pq[0], 4),
        "change_wins": f"{wins}/{len(pairs)}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="an inclusive range A-B")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    spec = json.loads((args.change / "BENCHMARK.json").read_text())

    pairs = []
    for seed in range(first, last + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(getattr(args, side), args.workload, seed)
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    summary = {
        m["name"]: summarize(pairs, m["name"], m["better"] == "lower")
        for m in spec["end_to_end"]
    }
    summary["attempted"] = summarize(pairs, "attempted", lower_is_better=False)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("workloads", {})[args.workload] = {"pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    for name, s in summary.items():
        print(f"{name:12s} parent {s['parent_median']:<10g} change {s['change_median']:<10g} "
              f"ratio {s['ratio']:<6g} parent IQR {s['parent_iqr']:<8g} change wins {s['change_wins']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
