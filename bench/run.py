#!/usr/bin/env python3
"""conics92 benchmark: named workloads run as a closed loop with one caller.

    python3 bench/run.py --workload verify-random --seed 42 --seconds 20 --trace 0

With --trace 0 the loop runs whole passes over the workload's ops until
--seconds have elapsed, then checks every op's output and reports the
end-to-end metrics.  With --trace 1 it runs a fixed number of ops, each once
plain and once under the span tracer, and reports the per-layer metrics.
Without --workload it runs every workload in turn, each in its own child
process, and prints a summary.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A JSON record with provenance and every
sample goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

NAMES = ("verify-random", "bruteforce-fp", "bruteforce-fp2")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span name -> the aggregates reported for it
LAYER_SPANS = {
    "solver.NumericChartSystem.eval.jac": ("calls", "rows", "s"),
    "solver.NumericChartSystem.eval.nojac": ("calls", "s"),
    "solver.solve_all": ("s", "self_s"),
    "solver.start_solutions": ("s",),
    "numpy.linalg.solve": ("calls", "s"),
    "solver.assemble_enriched_count": ("s",),
    "geometry.conic_coeffs_transition": ("calls", "s"),
    "geometry.meet_plane_oracle": ("calls", "s"),
    "geometry.genericity_check": ("calls", "s"),
    "section.jacobian": ("calls", "s"),
    "section.eval_section": ("calls", "s"),
    "linalg.det": ("calls", "s"),
    "harness.brute_force_fq": ("s", "self_s"),
    "harness.verify": ("self_s",),
    "harness.reduce_instance": ("s",),
    "harness.gen_random_instance": ("s",),
    "harness.gen_planted_instance": ("s",),
    "gw.gw_equal": ("s",),
    "gw.invariants": ("calls", "s"),
}
AGG_UNITS = {"calls": "count", "rows": "count", "s": "s", "self_s": "s"}

# exact counts read from the ops' return values
COUNTS = {
    "solver.path_steps": "count",
    "solver.useful_step_ratio": "ratio",
    "solver.paths_tracked": "count",
    "solver.paths_converged": "count",
    "solver.paths_diverged": "count",
    "solver.paths_failed": "count",
    "solver.retracked_paths": "count",
    "solver.fallback_charts": "count",
    "harness.bruteforce.candidates": "count",
    "harness.bruteforce.zeros": "count",
}


def per_layer_units() -> dict:
    units = {
        f"{span}.{agg}": AGG_UNITS[agg]
        for span, aggs in LAYER_SPANS.items()
        for agg in aggs
    }
    units.update(COUNTS)
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def cpu_reference(rounds: int = 3) -> float:
    """Median seconds of a fixed mix of interpreter arithmetic and small
    batched LAPACK solves, like the program's own mix.  The runner times it
    at the start and the end of a run and once after every op, so the record
    shows how fast the CPU ran."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((448, 8, 8)) + 1j * rng.standard_normal((448, 8, 8))
    b = rng.standard_normal((448, 8, 1)) + 0j
    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc = (acc * 31 + i) % 1_000_003
        for _ in range(40):
            np.linalg.solve(a, b)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _openblas_threads():
    import ctypes
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    """HEAD of the repository rooted here; None in a plain checkout, even
    one that sits inside another repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance() -> dict:
    import platform

    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "conics92").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def import_program() -> None:
    """Import conics92 from this checkout's src/, never from elsewhere."""
    if not (SRC / "conics92" / "__init__.py").is_file():
        raise SystemExit(f"error: no conics92 package under {SRC}")
    sys.path.insert(0, str(SRC))
    import conics92

    if Path(conics92.__file__).resolve().parent != SRC / "conics92":
        raise SystemExit(f"error: imported conics92 from {conics92.__file__}")


def import_seconds() -> float:
    """Median seconds to import conics92 in a fresh interpreter, over
    SETUP_REPEATS child processes; an import happens once per process."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import conics92; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def run_op(op):
    """Run one op; returns (seconds, output, error, crashed)."""
    from conics92.errors import Conics92Error

    t = time.perf_counter()
    try:
        out = op.run()
    except Conics92Error as exc:
        return time.perf_counter() - t, None, f"{type(exc).__name__}: {exc}", False
    except Exception:  # a crash is a failed op and an incorrect output
        return time.perf_counter() - t, None, traceback.format_exc(limit=3), True
    return time.perf_counter() - t, out, None, False


def judge(op, sample: dict, out) -> None:
    """Check an op's output outside the timed region; fills sample."""
    if sample["error"] is None:
        try:
            problems = op.check(out)
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3)]
        sample["problems"] = problems
    sample["ok"] = sample["error"] is None and not sample["problems"]


def _sample(op, seconds, error, crashed, traced=None) -> dict:
    rec = {"op": op.label, "seconds": seconds, "error": error, "crashed": crashed, "problems": []}
    if traced is not None:
        rec["traced"] = traced
    return rec


def measure(workload, seed: int, seconds: float, capture) -> dict:
    import_s = import_seconds()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops = workload.setup(seed, capture)
        setup_times.append(time.perf_counter() - t)

    # whole passes until the ops have taken --seconds; the reference round
    # after each op is outside the ops' wall time
    samples = []
    outputs = []
    loop_s = 0.0
    while loop_s < seconds:
        for op in ops:
            took, out, error, crashed = run_op(op)
            loop_s += took
            samples.append(_sample(op, took, error, crashed))
            samples[-1]["cpu_ref_s"] = cpu_reference(rounds=1)
            outputs.append((op, out))
    for sample, (op, out) in zip(samples, outputs):
        judge(op, sample, out)
    del outputs

    good = [s["seconds"] for s in samples if s["ok"]]
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_p50_s": statistics.median(good or [s["seconds"] for s in samples]),
        "ops_per_s": len(samples) / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "metrics": metrics,
        "samples": samples,
        "import_s": import_s,
        "setup_times": setup_times,
        "loop_s": loop_s,
        "n_ok": len(good),
    }


def measure_traced(workload, seed: int, capture) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed("setup"):
        ops = workload.setup(seed, capture)

    samples = []
    counts = defaultdict(int, dict.fromkeys(COUNTS, 0))
    for k in range(workload.traced_ops):
        op = ops[k % len(ops)]
        # alternate which side runs first so warm-up favours neither
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                with tracer.installed(k):
                    took, out, error, crashed = run_op(op)
                for name, value in op.counts(out).items():
                    counts[name] += value
            else:
                took, out, error, crashed = run_op(op)
            sample = _sample(op, took, error, crashed, traced)
            judge(op, sample, out)
            samples.append(sample)

    steps_converged = counts.pop("solver.steps_converged", 0)
    metrics = {}
    totals = tracer.totals()
    for span, aggs in LAYER_SPANS.items():
        agg = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
        for key in aggs:
            metrics[f"{span}.{key}"] = agg[key]
    metrics.update((name, counts[name]) for name in COUNTS)
    steps = counts["solver.path_steps"]
    metrics["solver.useful_step_ratio"] = steps_converged / steps if steps else 0.0

    def p50(flag):
        return statistics.median(s["seconds"] for s in samples if s["traced"] is flag)

    metrics["trace.overhead_ratio"] = p50(True) / p50(False) - 1
    return {"metrics": metrics, "samples": samples, "tracer": tracer}


def run_workload(args) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    load_start = os.getloadavg()
    import_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    prov = provenance()
    prov["load_start"] = load_start
    prov["cpu_reference_start_s"] = cpu_reference()

    with workloads.SolveCapture() as capture:
        if args.trace:
            result = measure_traced(workload, args.seed, capture)
            units = per_layer_units()
        else:
            result = measure(workload, args.seed, args.seconds, capture)
            units = END_TO_END

    prov["cpu_reference_end_s"] = cpu_reference()
    prov["load_end"] = os.getloadavg()

    samples = result["samples"]
    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    correct = not any(s["problems"] or s["crashed"] for s in samples)
    metrics = result["metrics"]

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{int(args.trace)}_{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}_{os.getpid()}"
    record = {
        "workload": args.workload,
        "args": {"seed": args.seed, "seconds": args.seconds, "trace": int(args.trace)},
        "load": "closed loop, one caller, one process; SolverOptions defaults (threads=1)",
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": samples,
    }
    for key in ("import_s", "setup_times", "loop_s", "n_ok"):
        if key in result:
            record[key] = result[key]
    if args.trace:
        spans_path = RESULTS / f"{stem}_spans.jsonl"
        result["tracer"].write(spans_path)
        record["spans"] = spans_path.name
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print_report(record, result)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def print_report(record: dict, result: dict) -> None:
    prov = record["provenance"]
    print(
        f"# {record['workload']}  seed={record['args']['seed']}  "
        f"trace={record['args']['trace']}  commit={prov['commit']}  "
        f"src={prov['src_sha256'][:12]}"
    )
    print(
        f"# python {prov['python']}  numpy {prov['numpy']}  "
        f"openblas threads={prov['openblas']['threads']}  nproc={prov['nproc']}  "
        f"load {prov['load_start'][0]:.2f} -> {prov['load_end'][0]:.2f}  "
        f"cpu_reference {prov['cpu_reference_start_s']:.4f} -> {prov['cpu_reference_end_s']:.4f} s"
    )
    samples = record["samples"]
    n = record["attempted"]
    if not record["args"]["trace"]:
        notes = {
            "setup_s": f"median import {result['import_s']:.3f} s + median generation, {SETUP_REPEATS} each",
            "op_p50_s": f"n={result['n_ok']} ops that passed",
            "ops_per_s": f"n={n} ops in {result['loop_s']:.2f} s",
            "peak_rss_mb": "process peak resident set",
        }
    else:
        notes = {}
    for name, m in record["metrics"].items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}")
    print(f"{'fail_ratio':44s} {record['fail_ratio']:14.6g} {'ratio':6s} {record['failed']} of {n} ops failed")
    for s in samples:
        if not s["ok"]:
            why = s["error"] or "; ".join(s["problems"])
            print(f"# failed: {s['op']} after {s['seconds']:.2f} s: {why.strip().splitlines()[-1]}")


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    code = 0
    summary = []
    for name in NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            summary.append((name, json.loads(lines[-1])))
    print("# summary")
    for name, res in summary:
        vals = "  ".join(
            f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()
        )
        print(f"# {name:15s} correct={res['correct']} failed={res['failed']}/{res['attempted']}  {vals}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
