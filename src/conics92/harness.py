"""Instance generation, finite-field brute force, and end-to-end verification.

Instances carry 8 lines with exact integer/rational coordinates.  Planted
instances are built around a known conic: 8 points are sampled on it and
one line is drawn through each, so the conic is an exact zero of every
chart system and serves as a ground-truth oracle for the solver and for
reductions mod p.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache
from math import gcd

import numpy as np

from .errors import (
    BadReduction,
    DegenerateDraw,
    ExhaustedRetries,
    TooLarge,
)
from .fields import PrimeField, PrimeFieldElement, QuadExtField, field_one
from .geometry import (
    PLANE_COORD_INDICES,
    Chart,
    ChartPoint,
    Line3,
    Plane3,
    chart_coords,
    conic_coeffs_transition,
    conic_matrix,
    conic_substitution,
    genericity_check,
    insert_one,
    meet_plane_oracle,  # unused; bench/tracing.py patches it until ROADMAP item 8
    plucker,
    proj_equal,
)
from .gw import EQUAL, GwForm, gw_equal, invariants
from .linalg import adjugate3, det
from .section import (
    MONOMIAL_SLOTS,
    SectionSystem,
    chart_tensor,
    eval_section,
    jacobian,
)
from .solver import (
    SIGMA_FLOOR,
    TOL_RESIDUAL,
    NumericChartSystem,
    SolverOptions,
    assemble_enriched_count,
    solve_all,
)


# ---------------------------------------------------------------------------
# instances and serialization
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    lines: tuple
    field: str = "Q"
    meta: dict = dc_field(default_factory=dict)

    @property
    def planted_point(self) -> ChartPoint | None:
        data = self.meta.get("planted")
        if not data:
            return None
        return ChartPoint(
            Chart(*data["chart"]),
            tuple(Fraction(v) for v in data["a"]),
            tuple(Fraction(v) for v in data["b"]),
        )

    def to_json(self) -> dict:
        def coord(v):
            if isinstance(v, PrimeFieldElement):
                return v.value
            return v if isinstance(v, float) else str(Fraction(v))

        return {
            "field": self.field,
            "lines": [
                {"p": [coord(v) for v in ln.p], "s": [coord(v) for v in ln.s]}
                for ln in self.lines
            ],
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        if not isinstance(data, dict) or not isinstance(data.get("lines"), list):
            raise ValueError('an instance is a JSON object with a list of "lines"')
        if len(data["lines"]) != 8:
            raise ValueError(f"an instance has 8 lines, not {len(data['lines'])}")
        kinds = set()
        for ln in data["lines"]:
            for key in ("p", "s"):
                if not isinstance(ln, dict) or not isinstance(ln.get(key), list):
                    raise ValueError(f'each line has a list of coordinates "{key}"')
                for v in ln[key]:
                    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                        raise ValueError(f"a coordinate is a number or a fraction string, not {v!r}")
                    kinds.add("float" if isinstance(v, float) else "exact")
        if kinds == {"float", "exact"}:
            raise ValueError("mixed float and exact coordinates are not allowed")

        field = data.get("field", "Q")
        one = field_one(field)
        if "float" in kinds and field.startswith("F"):
            raise ValueError(f"float coordinates in an instance over {field}")

        def coord(v):
            if isinstance(v, float):
                return v
            q = Fraction(v)
            return one * q.numerator / q.denominator

        lines = tuple(
            Line3(tuple(coord(v) for v in ln["p"]), tuple(coord(v) for v in ln["s"]))
            for ln in data["lines"]
        )
        return cls(lines=lines, field=field, meta=data.get("meta", {}))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "Instance":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _random_point(rng: random.Random, bound: int) -> tuple:
    while True:
        pt = tuple(rng.randint(-bound, bound) for _ in range(4))
        if any(v != 0 for v in pt):
            return pt


def gen_random_instance(seed: int, bound: int = 10, retries: int = 200) -> Instance:
    """8 random integer lines passing the syntactic genericity check."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rng = random.Random(seed)
    for _ in range(retries):
        try:
            lines = []
            for _ in range(8):
                p = _random_point(rng, bound)
                s = _random_point(rng, bound)
                lines.append(Line3(p, s))
        except ValueError:
            continue
        if genericity_check(lines).passed:
            return Instance(
                lines=tuple(lines),
                field="Q",
                meta={"kind": "random", "seed": seed, "bound": bound},
            )
    raise ExhaustedRetries(f"no generic instance for seed={seed}, bound={bound}")


def _primitive(vec) -> tuple:
    """Clear denominators and common factors of a rational vector."""
    fr = [Fraction(v) for v in vec]
    lcm = 1
    for v in fr:
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in fr]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def gen_planted_instance(
    seed: int, retries: int = 500, ensure_prime: int | None = None
) -> Instance:
    """An instance with a known exact rational solution conic.

    A plane and a smooth conic on it are drawn; 8 points are sampled on the
    conic via a quadratic parameterization and one line is drawn through
    each.  Draws with a vanishing chart Jacobian at the planted point are
    rejected so the plant is always a simple zero.

    With ensure_prime=p, draws are additionally rejected until the instance
    has good reduction mod p (p >= 5: a conic over F_3 has only 4 rational
    points, so 8 rational intersection points always collide mod 3 and the
    reduced Jacobian is structurally singular).
    """
    rng = random.Random(seed)
    for _ in range(retries):
        try:
            inst = _try_plant(rng)
        except DegenerateDraw:
            continue
        if ensure_prime is not None:
            try:
                reduce_instance(inst, ensure_prime)
            except BadReduction:
                continue
        return inst
    raise ExhaustedRetries(f"no planted instance for seed={seed}")


def _try_plant(rng: random.Random) -> Instance:
    a = tuple(rng.randint(-4, 4) for _ in range(4))
    if all(v == 0 for v in a):
        raise DegenerateDraw("zero plane")
    istar = next(k for k in range(4) if a[k] != 0)

    cmat = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    if det(cmat) == 0:
        raise DegenerateDraw("parameterization not invertible")

    # image of the standard parameterization t -> (t^2, t, 1) under cmat;
    # the image satisfies the standard conic z1^2 - z0 z2 at adj(C) w
    std = np.array([Fraction(v) for v in (0, 1, 0, 0, -1, 0)], dtype=object)
    coeffs = _primitive(conic_substitution(std, np.array(adjugate3(cmat), dtype=object)))
    if all(v == 0 for v in coeffs):
        raise DegenerateDraw("degenerate conic")
    jstar = next(k for k in range(6) if coeffs[k] != 0)

    # parameter values spread over P^1 mod 7 (all 8 classes, one at infinity)
    # and mod 5 (all 6 classes), so reductions keep intersection points apart
    ts = [
        Fraction(0),
        Fraction(1),
        Fraction(2),
        Fraction(3),
        Fraction(4),
        Fraction(5),
        Fraction(1, 7),
        Fraction(2, 5),
    ]
    rng.shuffle(ts)
    keep = PLANE_COORD_INDICES[istar]
    lines = []
    for t in ts:
        w = [sum(cmat[r][c] * v for c, v in enumerate((t * t, t, 1))) for r in range(3)]
        y = [Fraction(0)] * 4
        for r, amb in enumerate(keep):
            y[amb] = Fraction(w[r])
        y[istar] = -sum(a[amb] * y[amb] for amb in keep) / Fraction(a[istar])
        point = _primitive(y)
        if all(v == 0 for v in point):
            raise DegenerateDraw("conic point degenerated")
        for _ in range(30):
            s = tuple(rng.randint(-6, 6) for _ in range(4))
            if all(v == 0 for v in s):
                continue
            if sum(a[k] * s[k] for k in range(4)) == 0:
                continue  # the second point must leave the plane
            try:
                line = Line3(point, s)
            except ValueError:
                continue
            lines.append(line)
            break
        else:
            raise DegenerateDraw("no line through a conic point")

    if not genericity_check(lines).passed:
        raise DegenerateDraw("planted lines not generic")

    chart = Chart(istar, jstar)
    planted = chart_coords(Plane3(a), coeffs, chart)
    system = SectionSystem(chart, lines)
    if any(v != 0 for v in eval_section(system, planted)):
        raise AssertionError("planted point is not an exact zero")
    if jacobian(system, planted).determinant == 0:
        raise DegenerateDraw("planted zero is not simple")

    meta = {
        "kind": "planted",
        "seed": None,
        "chart": [istar, jstar],
        "a": [str(v) for v in planted.a],
        "b": [str(v) for v in planted.b],
    }
    return Instance(lines=tuple(lines), field="Q", meta={"planted": meta, "kind": "planted"})


# ---------------------------------------------------------------------------
# reduction mod p
# ---------------------------------------------------------------------------

def reduce_instance(instance: Instance, p: int) -> Instance:
    """Reduce an exact instance mod p; raises BadReduction for bad primes.

    Lines must stay valid and pairwise distinct, and a planted zero must
    survive as a simple zero of a smooth conic.  Pairwise skewness mod p is
    recorded but not required (it is unattainable for tiny p and the
    exhaustive solve does not rely on it).
    """
    fp = PrimeField(p)

    def red(v):
        q = Fraction(v)
        if q.denominator % p == 0:
            raise BadReduction(f"denominator divisible by {p}")
        return fp(q)

    lines = []
    for ln in instance.lines:
        try:
            lines.append(Line3(tuple(red(v) for v in ln.p), tuple(red(v) for v in ln.s)))
        except ValueError as exc:
            raise BadReduction(f"line degenerates mod {p}: {exc}") from exc
    minors = [plucker(ln) for ln in lines]
    for m in range(8):
        for k in range(m + 1, 8):
            if proj_equal(minors[m], minors[k]):
                raise BadReduction(f"lines {m} and {k} coincide mod {p}")
    report = genericity_check(lines)

    meta = {
        "kind": instance.meta.get("kind"),
        "reduced_from": instance.field,
        "p": p,
        "genericity_mod_p": report.to_json(),
    }
    out = Instance(lines=tuple(lines), field=f"F{p}", meta=meta)

    planted = instance.planted_point
    if planted is not None:
        chart = planted.chart
        a_red = tuple(red(v) for v in planted.a)
        b_red = tuple(red(v) for v in planted.b)
        pt = ChartPoint(chart, a_red, b_red)
        system = SectionSystem(chart, lines)
        coeffs = insert_one(b_red, chart.j, fp.one())
        if det(conic_matrix(coeffs)) == 0:
            raise BadReduction(f"planted conic singular mod {p}")
        if any(v != 0 for v in eval_section(system, pt)):
            raise BadReduction(f"planted zero lost mod {p}")
        if jacobian(system, pt).determinant == 0:
            raise BadReduction(f"planted zero not simple mod {p}")
        out.meta["planted_mod_p"] = {
            "chart": [chart.i, chart.j],
            "a": [v.value for v in a_red],
            "b": [v.value for v in b_red],
        }
    return out


# ---------------------------------------------------------------------------
# finite-field brute force
# ---------------------------------------------------------------------------

@dataclass
class BruteForceSolution:
    plane: tuple
    conic: tuple  # coefficients in the plane coordinates of chart `istar`
    istar: int
    chart_points: dict  # (i,j) -> ChartPoint
    chart_dets: dict  # (i,j) -> field element


def _projective_reps(q: int, width: int) -> np.ndarray:
    """The normalized representatives of P^(width-1)(F_q) as integer codes
    (N, width): lead slot by lead slot, zeros, then a 1, then every tail in
    lexicographic order.  Over F_{p^2} the code c is (c % p) + (c // p) t."""
    blocks = []
    for lead in range(width):
        tail = width - 1 - lead
        block = np.zeros((q**tail, width), dtype=np.int64)
        block[:, lead] = 1
        block[:, lead + 1 :] = np.indices((q,) * tail).reshape(tail, q**tail).T
        blocks.append(block)
    return np.concatenate(blocks)


def brute_force_fq(instance: Instance, p: int, degree: int = 1) -> list:
    """Exhaustive solve over F_q, q = p^degree, by enumerating all (plane,
    conic) candidates and testing incidence at the 8 points where the lines
    meet the plane.

    One kernel over F_p, `_zeros_fq`, serves both degrees: it writes an
    element of F_q as its F_p coordinates and multiplication by it as an
    F_p matrix, so only the field and its gamma (t^2 = -gamma) depend on
    the degree.

    Returns every F_q-rational zero of the reduced system, simple or
    singular, as BruteForceSolution records with exact chart Jacobians in
    every chart containing the zero.  For such small q a reduced instance is
    usually not general (its lines meet, or share points), so singular zeros
    are common; a singular zero has determinant 0 in every chart that
    contains it.  Guarded to p^degree <= 9.
    """
    if degree not in (1, 2):
        raise TooLarge("only degrees 1 and 2 are supported")
    if p**degree > 9:
        raise TooLarge(f"p^degree = {p**degree} exceeds the enumeration guard")
    if instance.field == "Q":
        instance = reduce_instance(instance, p)
    elif instance.field != f"F{p}":
        raise ValueError(f"instance is over {instance.field}, not F{p} or Q")

    fq = PrimeField(p) if degree == 1 else QuadExtField(p)
    gamma = 0 if degree == 1 else fq.gamma
    lines = [Line3(tuple(map(fq, ln.p)), tuple(map(fq, ln.s))) for ln in instance.lines]
    # each chart's system is built once, for every zero in that chart
    system = cache(lambda i, j: SectionSystem(Chart(i, j), lines))
    out = []
    for plane_xs, conic_xs, istar in _zeros_fq(instance, p, degree, gamma):
        plane_v, conic_v = (tuple(fq(*x) for x in xs) for xs in (plane_xs, conic_xs))
        chart_points = {}
        chart_dets = {}
        planes = [i for i in range(4) if plane_v[i] != 0]
        for i, coeffs_i in zip(planes, conic_coeffs_transition(plane_v, conic_v, istar, planes)):
            for j in range(6):
                if coeffs_i[j] == 0:
                    continue
                pt = chart_coords(Plane3(plane_v), coeffs_i, Chart(i, j))
                chart_points[(i, j)] = pt
                chart_dets[(i, j)] = jacobian(system(i, j), pt).determinant
        out.append(
            BruteForceSolution(
                plane=plane_v,
                conic=conic_v,
                istar=istar,
                chart_points=chart_points,
                chart_dets=chart_dets,
            )
        )
    return out


def _line_rows(instance: Instance) -> np.ndarray:
    """The reduced lines as integer rows (2, 8, 4): the points p, then s."""
    return np.array([[[v.value for v in getattr(ln, k)] for ln in instance.lines] for k in "ps"])


def _meet_points(lines, i: int, planes, p: int) -> np.ndarray:
    """The F_p coordinates (P, 8, 3, d) of the chart-i points where the
    lines, integer rows (2, 8, 4), meet the planes with F_p coordinates
    (P, 4, d).  A line lies in its plane exactly when its point is 0."""
    cols = (i,) + PLANE_COORD_INDICES[i]
    return np.einsum("nrc,Pcs->Pnrs", chart_tensor(i, *lines), planes[:, cols]) % p


def _regular(x, gamma: int) -> np.ndarray:
    """The F_p matrices (..., d, d) of multiplication by the elements of
    F_{p^d}, d = 1 or 2, with F_p coordinates x (..., d): x0 + x1 t, with
    t^2 = -gamma, multiplies by [[x0, -gamma x1], [x1, x0]], and x0 by [[x0]]."""
    d = x.shape[-1]
    units = np.array([[[1, 0], [0, 1]], [[0, -gamma], [1, 0]]])[:d, :d, :d]
    return np.einsum("...r,rst->...st", x, units)


def _plane_matrices(z, p: int, gamma: int) -> np.ndarray:
    """The F_p matrices (P, 8d, 6d), as floats, of the planes whose meet
    points have F_p coordinates z (P, 8, 3, d): block (n, k) multiplies by
    the k-th monomial of point n, so a matrix maps a conic's F_p
    coordinates (6d,) to its values at the 8 points."""
    n, d = len(z), z.shape[-1]
    zmat = _regular(z, gamma)
    left, right = MONOMIAL_SLOTS
    mats = zmat[:, :, left] @ zmat[:, :, right] % p
    return mats.transpose(0, 1, 3, 2, 4).reshape(n, 8 * d, 6 * d).astype(np.float64)


def _zeros_fq(instance: Instance, p: int, d: int, gamma: int) -> list:
    """The F_p coordinates (4, d) and (6, d) of the plane and the conic of
    every zero over F_q, q = p^d, with its istar: for each plane that no
    line lies in, one F_p product tests every conic of P^5(F_q) at the 8
    meet points."""
    digits = p ** np.arange(d)  # code c is the element with F_p coordinates c // p^k % p
    planes = _projective_reps(p**d, 4)[..., None] // digits % p
    conics = (_projective_reps(p**d, 6)[..., None] // digits % p).reshape(-1, 6 * d).astype(np.float64)
    lines = _line_rows(instance)
    lead = np.argmax(planes.any(axis=2), axis=1)
    results = []
    for istar in range(4):
        block = planes[lead == istar]
        z = _meet_points(lines, istar, block, p)
        meets = z.reshape(len(z), 8, -1).any(axis=2).all(axis=1)  # no line lies in the plane
        for plane, mat in zip(block[meets], _plane_matrices(z, p, gamma)[meets]):
            hits = np.flatnonzero(np.all(conics @ mat.T % p == 0, axis=1))
            results.extend((plane.tolist(), conics[h].reshape(6, d).astype(int).tolist(), istar) for h in hits)
    return results


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    count: int
    real: int
    positive: int
    negative: int
    gw: GwForm
    verdict: str
    checks: list
    stats: dict

    @property
    def passed(self) -> bool:
        return self.verdict == EQUAL and all(c["pass"] for c in self.checks)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "real": self.real,
            "positive": self.positive,
            "negative": self.negative,
            "gw": self.gw.to_json(),
            "verdict": self.verdict,
            "signature": invariants(self.gw)["signature"],
            "rank": invariants(self.gw)["rank"],
            "checks": self.checks,
            "stats": self.stats,
        }


def verify(instance: Instance, opts: SolverOptions | None = None) -> VerificationReport:
    """Solve, assemble the quadratic-form count, and run spot checks."""
    opts = opts or SolverOptions()
    sset = solve_all(instance.lines, opts)
    form = assemble_enriched_count(sset)
    target = 46 * GwForm.hyperbolic("R")
    verdict = gw_equal(form, target)

    reals = sset.real_solutions
    pos = sum(1 for s in reals if s.sign == 1)
    neg = sum(1 for s in reals if s.sign == -1)

    checks = []

    def check(name, ok, tol, detail=""):
        checks.append({"name": name, "pass": bool(ok), "tolerance": tol, "detail": detail})

    res_max = max((s.residual for s in sset.solutions), default=0.0)
    check("residuals", res_max < TOL_RESIDUAL, TOL_RESIDUAL, f"max={res_max:.2e}")
    sigma = min((s.sigma_min for s in sset.solutions), default=np.inf)
    check("jacobians_nonzero", sigma > SIGMA_FLOOR, SIGMA_FLOOR, f"min sigma={sigma:.2e}")
    check("real_balance", pos == neg, 0, f"pos={pos} neg={neg}")
    inv = invariants(form)
    check("signature_zero", inv["signature"] == 0, 0, str(inv["signature"]))
    check("rank_92", inv["rank"] == 92, 0, str(inv["rank"]))

    # spot checks at one solution: scaling covariance and odd-permutation parity
    if sset.solutions:
        sol = sset.solutions[0]
        chart = Chart(*sol.chart)
        x = np.array(list(sol.a) + list(sol.b))
        base = NumericChartSystem(chart, instance.lines)
        d0 = base.det_jacobian(x)

        lam = 1.5
        scaled = [
            Line3(tuple(v * lam for v in instance.lines[0].p), instance.lines[0].s)
        ] + list(instance.lines[1:])
        d1 = NumericChartSystem(chart, scaled).det_jacobian(x)
        ok = abs(d1 - lam**2 * d0) <= 1e-8 * abs(d1)
        check("scaling_square", ok, 1e-8, f"ratio={abs(d1 / d0):.6f}")

        swapped = [instance.lines[1], instance.lines[0]] + list(instance.lines[2:])
        d2 = NumericChartSystem(chart, swapped).det_jacobian(x)
        ok = abs(d2 + d0) <= 1e-8 * abs(d0)
        check("odd_permutation_sign", ok, 1e-8, f"d2/d0={complex(d2 / d0):.6f}")

    return VerificationReport(
        count=sset.count,
        real=len(reals),
        positive=pos,
        negative=neg,
        gw=form,
        verdict=verdict,
        checks=checks,
        stats=sset.stats,
    )
