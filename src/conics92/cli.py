"""Command-line interface: solve, verify, planted, bruteforce, gw."""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import Conics92Error
from .fields import (
    COMPLEX,
    RATIONAL,
    REAL,
    PrimeFieldElement,
    QuadExtElement,
    field_one,
    square_class,
)
from .gw import GwForm, gw_add, invariants
from .harness import (
    Instance,
    brute_force_fq,
    gen_planted_instance,
    gen_random_instance,
    verify,
)
from .solver import SolverOptions, solve_all

# one signed term: the sign is optional on the first term only
_TERM_RE = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*\*\s*)?(?:(H)|<\s*(-?\d+(?:/\d+)?)\s*>)\s*")


def parse_gw_expression(text: str, field: str) -> GwForm:
    """Parse expressions like "<1>+<-1>", "46*H", "2*<5>+H" over the field
    tagged "Q", "R", "C", "F<p>" or "F<p>^2"."""
    one = field_one(field)
    form = GwForm.zero(square_class(one).field)
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or (pos and not m.group(1)):
            raise ValueError(f"cannot parse {text[pos:]!r}")
        mult = (-1 if m.group(1) == "-" else 1) * int(m.group(2) or 1)
        if m.group(3):
            atom = GwForm.hyperbolic(form.field)
        else:
            q = Fraction(m.group(4))
            atom = GwForm.unit(one * q.numerator / q.denominator)
        form = gw_add(form, mult * atom)
        pos = m.end()
    return form


def _load_instance(args) -> Instance:
    """The instance to solve: the homotopy tracks over C, so its lines
    must be over Q, R or C."""
    if not args.lines:
        return gen_random_instance(args.seed, args.bound)
    instance = Instance.load(args.lines)
    if instance.field not in (RATIONAL, REAL, COMPLEX):
        raise ValueError(f"solve and verify need an instance over Q, R or C, not {instance.field}")
    return instance


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=1)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _ff_json(v):
    if isinstance(v, PrimeFieldElement):
        return v.value
    if isinstance(v, QuadExtElement):
        return [v.c0, v.c1]
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conics92",
        description="Find the 92 plane conics meeting 8 general lines in P^3 "
        "and verify the quadratic-form identity behind the count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--lines", help="instance JSON file")
        p.add_argument("--seed", type=int, default=0, help="instance/solver seed")
        p.add_argument("--bound", type=int, default=10)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out")

    p_solve = sub.add_parser("solve", help="track all paths and list solutions")
    add_solver_flags(p_solve)

    p_verify = sub.add_parser("verify", help="solve and check the 46*H identity")
    add_solver_flags(p_verify)

    p_planted = sub.add_parser("planted", help="generate a planted instance")
    p_planted.add_argument("--seed", type=int, default=0)
    p_planted.add_argument("--ensure-prime", type=int, default=None,
                           help="resample until reduction mod p is good")
    p_planted.add_argument("--out")

    p_brute = sub.add_parser("bruteforce", help="exhaustive finite-field solve")
    p_brute.add_argument("--p", type=int, required=True)
    p_brute.add_argument("--degree", type=int, default=1, choices=(1, 2))
    p_brute.add_argument("--lines", required=True)
    p_brute.add_argument("--out")

    p_gw = sub.add_parser("gw", help="evaluate a form expression")
    p_gw.add_argument("expression")
    p_gw.add_argument("--field", default="R")
    p_gw.add_argument("--out")

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "solve":
            instance = _load_instance(args)
            sset = solve_all(instance.lines, SolverOptions(args.seed, args.threads))
            _emit(sset.to_json(), args.out)
            return 0

        if args.command == "verify":
            instance = _load_instance(args)
            report = verify(instance, SolverOptions(args.seed, args.threads))
            _emit(report.to_json(), args.out)
            return 0 if report.passed else 1

        if args.command == "planted":
            instance = gen_planted_instance(args.seed, ensure_prime=args.ensure_prime)
            instance.meta["planted"]["seed"] = args.seed
            _emit(instance.to_json(), args.out)
            return 0

        if args.command == "bruteforce":
            instance = Instance.load(args.lines)
            sols = brute_force_fq(instance, args.p, args.degree)
            data = {
                "p": args.p,
                "degree": args.degree,
                "count": len(sols),
                "solutions": [
                    {
                        "plane": [_ff_json(v) for v in s.plane],
                        "conic": [_ff_json(v) for v in s.conic],
                        "istar": s.istar,
                        "charts": {
                            f"{i},{j}": _ff_json(d)
                            for (i, j), d in sorted(s.chart_dets.items())
                        },
                    }
                    for s in sols
                ],
            }
            _emit(data, args.out)
            return 0

        if args.command == "gw":
            form = parse_gw_expression(args.expression, args.field)
            inv = invariants(form)
            _emit(
                {
                    "form": form.to_json(),
                    "rank": inv["rank"],
                    "signature": inv["signature"],
                    "discriminant": str(inv["discriminant"].rep),
                    "effective": inv["effective"],
                },
                args.out,
            )
            return 0
    except (Conics92Error, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
