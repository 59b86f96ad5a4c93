"""Homotopy continuation over C for the chart systems.

`solve_all` tracks the 92 zeros of one fixed base instance to the caller's
lines along a single parameter homotopy (Morgan & Sommese 1989): every line
moves as p(t) = (1-t) p1 + t gamma p0 and s(t) = (1-t) s1 + t s0, from the
base lines (p0, s0) at t=1 to the target lines (p1, s1) at t=0, each row at
unit norm; the random complex gamma keeps the path off the discriminant.
The base is generic: random complex lines, whose 92 zeros are well
conditioned, so the paths leave them with long steps.  Lines and zeros are
the committed fixture `base92.json`; `scripts/make_base92.py` reaches them
by monodromy from one planted real zero (Duff et al. 2019) and keeps the
draw whose worst zero is best conditioned.  While fewer zeros than expected
are found, monodromy loops at the target (target -> random complex lines ->
target, a fresh gamma per leg) recover the lost paths.

Every evaluation of the section and its Jacobian here, H and H_x along a
path as well as the endpoint systems, runs the one section kernel of
`section` (`chart_tensor`, `_section`, `_gradient`, `_jacobian`), the same
code that evaluates the exact systems over Q and finite fields.

Tracking is a 4th-order predictor with a Newton corrector and an adaptive
step, batched across paths with numpy.  A step forms each point's z(t) and
z'(t) once per time (t-h/2 for k2 and k3, t-h for k4 and the corrector),
stops each path's corrector once its move passes, and solves [H, H_t] at
once: the last tangent column is the next step's k1, evaluated afresh only
at a path's start and after a chart switch.  That is about 5.7 homotopy
evaluations per step (`stats["eval_rows"]`), where RK4 and three
corrections took 7.  Paths start in chart (0, 0), and a point whose
coordinates pass _CHART_NORM moves to its best chart, so no path runs off
to a chart's infinity.  A path ends "converged" at t=0 or
"failed" on step underflow or after _MAX_STEPS steps.  The endpoint stage
(`_candidates`) then moves each endpoint to its best chart, refines the
endpoints of one chart together, keeps the zeros and classifies them real
or non-real; `_distinct_zeros` and `_classify` merge the same zero and pair
conjugates by one distance matrix, `_pair_dists`, which measures every pair
in the first zero's best chart.  One batched chart map, `_to_chart`, moves
points between charts for the tracker, the endpoint stage and the dedup.

Conventions: a zero's residual is the max-norm of the section in its best
chart, where its largest plane and conic coefficients are 1, with each
line's chart tensor scaled to unit max-norm (`NumericChartSystem.eval`), so
it does not depend on how the caller scales the lines, and neither does the
simplicity test, which takes the smallest singular value of the Jacobian
of that scaled system (`ConicSolution.sigma_min`); the reported
Jacobian determinant is evaluated against the caller's own line
representatives, so its square class and sign are the ones the input data
defines.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .errors import CountMismatch, IncompleteSet
from .fields import REAL, complex_to_json
from .geometry import PLANE_COORD_INDICES, Chart, conic_coeffs_transition, insert_one
from .gw import GwForm, trace_form
from .section import (
    _chart_points,
    _gradient,
    _jacobian,
    _plane_and_conic,
    _plane_columns,
    _section,
    chart_tensor,
    orientation_sign,
)

_ACTIVE, _REACHED, _FAILED = 0, 1, 2
_STATUS_NAMES = {_REACHED: "converged", _FAILED: "failed"}

_DT_INIT = 0.05
_DT_MAX = 0.1
_DT_MIN = 1e-7
_GROW_AFTER = 3
_CHART_NORM = 10.0
_CORRECTOR_ITERS = 3
_REFINE_ITERS = 30
# The endpoint stage's fixed tolerances.  An endpoint is a zero when Newton
# brings its residual (see Conventions) to TOL_RESIDUAL; it is real when its
# coordinates there are within REAL_TOL of real and its real part refines to
# TOL_RESIDUAL too.  Two candidates closer than TOL_DEDUP as moduli points, in
# the first one's best chart (`_pair_dists`), are the same zero, and a
# non-real candidate is paired with the candidate that is the same zero as its
# conjugate.  A zero is simple when the smallest singular value of its
# Jacobian, on the scaled lines in its best chart, passes SIGMA_FLOOR;
# otherwise it fails the solve.  Like the residual, that does not depend on
# how the caller scales the lines.  Over gen_random_instance seeds 0-99 the
# smallest such value is 6.6e-6 (seed 12), 660 times the floor.  A path fails
# after _MAX_STEPS steps.
TOL_RESIDUAL = 1e-12
TOL_DEDUP = 1e-6
REAL_TOL = 1e-8
SIGMA_FLOOR = 1e-8
_MAX_STEPS = 5000
# the paper's count of conics meeting 8 general lines
EXPECTED_COUNT = 92
# monodromy loops solve_all runs before it reports a count mismatch; with 4
# of the 92 zeros dropped, one or two loops found them again (seeds 42, 44
# and 46, three draws each)
_LOOP_BUDGET = 8


@dataclass(frozen=True)
class SolverOptions:
    seed: int = 0
    threads: int = 1


def _line_arrays(lines) -> np.ndarray:
    """The two points spanning each line as rows (2, 8, 4), complex when
    the lines are and float otherwise."""
    rows = np.array([[ln.p for ln in lines], [ln.s for ln in lines]])
    return rows if rows.dtype.kind == "c" else rows.astype(float)


def _unit_rows(lines: np.ndarray) -> np.ndarray:
    return lines / np.linalg.norm(lines, axis=-1, keepdims=True)


class NumericChartSystem:
    """Float/complex evaluation of one chart's section and Jacobian."""

    def __init__(self, chart: Chart, lines):
        self.chart = chart
        self.z_raw = chart_tensor(chart.i, *_line_arrays(lines))

    @cached_property
    def z_norm(self) -> np.ndarray:
        """The chart tensor with each line's block scaled to unit max-norm."""
        return self.z_raw / np.max(np.abs(self.z_raw), axis=(1, 2))[:, None, None]

    def eval(self, x, jac: bool = False, raw: bool = False):
        """Section values (N,8) and optionally the Jacobian (N,8 eq,8 var)."""
        zm = self.z_raw if raw else self.z_norm
        z, c, free = _chart_points(zm, np.asarray(x), self.chart.j)
        phi, mon = _section(z, c)
        return phi, _jacobian(_plane_columns(zm, z, c), mon, free) if jac else None

    def residual(self, x) -> np.ndarray:
        """The max-norm of the scaled section at the points x (N, 8)."""
        phi, _ = self.eval(np.atleast_2d(x))
        return np.max(np.abs(phi), axis=1)

    def det_jacobian(self, x):
        """Jacobian determinant on the caller's lines, with the chart
        orientation sign (matching the exact backend's convention); one per
        point for points x (N, 8), a scalar for one point (8,)."""
        x = np.asarray(x)
        _, jmat = self.eval(x.reshape(-1, 8), jac=True, raw=True)
        return orientation_sign(self.chart) * np.linalg.det(jmat).reshape(x.shape[:-1])[()]


class ParameterHomotopy:
    """The section of lines moving from `start` at t=1 to `end` at t=0.

    `start` = (p0, s0) and `end` = (p1, s1) are unit-norm rows (2, 8, 4);
    p(t) = (1-t) p1 + t gamma p0 and s(t) = (1-t) s1 + t s0.  The chart
    tensor is then quadratic in t, z(t) = Z0 + t Z1 + t^2 Z2, which gives
    H_t exactly.  The tensors are kept for every plane chart, so each point
    is evaluated in its own chart (i, j): `at` forms a point's z(t) and
    z'(t) once per time, and `eval` evaluates at any x against them.
    """

    def __init__(self, start, end, gamma: complex):
        (p0, s0), (p1, s1) = start, end

        def tensor(p, s):
            return np.stack([chart_tensor(i, p, s) for i in range(4)])

        z0 = tensor(p1, s1)
        mixed = gamma * tensor(p0, s1) + tensor(p1, s0)
        self.coef = (z0, mixed - 2 * z0, z0 - mixed + gamma * tensor(p0, s0))

    def at(self, t, planes):
        """The chart tensors z(t) and z'(t) (N, 8, 3, 4) at times t (N,),
        each in its plane chart planes[k]."""
        z0, z1, z2 = (z[planes] for z in self.coef)
        tt = t[:, None, None, None]
        return z0 + tt * (z1 + tt * z2), z1 + 2 * tt * z2

    @staticmethod
    def eval(x, conics, z, dz=None):
        """H (N,8), H_x (N,8,8) and, given z'(t) as dz, H_t (N,8) at points
        x (N,8) in conic charts conics (N,), against their z(t) from `at`."""
        abar, c, free = _plane_and_conic(x, conics)
        zx = np.einsum("Nnrc,Nc->Nnr", z, abar)
        h, mon = _section(zx, c)
        grad = _gradient(zx, c)
        ja = np.einsum("Nnr,Nnrl->Nnl", grad, z[..., 1:4])
        ht = None if dz is None else np.einsum("Nnr,Nnr->Nn", grad, np.einsum("Nnrc,Nc->Nnr", dz, abar))
        return h, _jacobian(ja, mon, free), ht


@dataclass
class TrackedPath:
    status: str
    steps: int
    eval_rows: int  # homotopy evaluations at one point, over every step


@dataclass
class ConicSolution:
    chart: tuple
    a: tuple
    b: tuple
    det_jac: complex
    reality: str
    sign: int | None
    residual: float
    # the smallest singular value of the Jacobian on the scaled lines in
    # this chart (see Conventions); nan when not measured
    sigma_min: float = float("nan")

    @property
    def abar(self) -> tuple:
        """The plane's representative (4,) with a 1 at slot chart[0]."""
        return insert_one(self.a, self.chart[0], type(self.a[0])(1))

    @property
    def cbar(self) -> tuple:
        """The conic's coefficients (6,) in the chart-i plane coordinates,
        with a 1 at slot chart[1]."""
        return insert_one(self.b, self.chart[1], type(self.b[0])(1))

    def to_json(self) -> dict:
        return {
            "chart": list(self.chart),
            "a": [complex_to_json(v) for v in self.a],
            "b": [complex_to_json(v) for v in self.b],
            "jacobian": complex_to_json(self.det_jac),
            "reality": self.reality,
            "sign": self.sign,
            "residual": self.residual,
        }


@dataclass
class SolutionSet:
    solutions: list
    paths: list
    stats: dict

    @property
    def count(self) -> int:
        return sum(1 if s.reality == "real" else 2 for s in self.solutions)

    @property
    def real_solutions(self) -> list:
        return [s for s in self.solutions if s.reality == "real"]

    @property
    def pair_solutions(self) -> list:
        return [s for s in self.solutions if s.reality == "pair"]

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "solutions": [s.to_json() for s in self.solutions],
            "stats": dict(self.stats),
        }


@cache
def base_instance():
    """The base lines, complex unit-norm rows (2, 8, 4), and their 92 zeros
    in chart (0, 0), read from `base92.json` once per process."""
    with open(os.path.join(os.path.dirname(__file__), "base92.json")) as fh:
        data = json.load(fh)
    # both are stored as [re, im] pairs
    lines = _unit_rows(np.array([[ln[k] for ln in data["lines"]] for k in "ps"]) @ [1, 1j])
    zeros = np.array(data["zeros"]) @ [1, 1j]
    for arr in (lines, zeros):
        arr.setflags(write=False)
    return lines, zeros


def _to_chart(x, charts, to=None) -> tuple:
    """The points x (N, 8), each in its chart of charts (N, 2), in the
    charts `to` (N, 2): the charts and the coordinates (N, 8) there.  By
    default `to` is each point's best chart, where its largest plane and
    conic coefficients are 1.  Every row is mapped on its own, so a row's
    result does not depend on the batch it is in."""
    x, charts = np.asarray(x, dtype=complex), np.asarray(charts)
    rows = np.arange(len(x))

    def drop(v, slot):
        rest = v[np.arange(v.shape[1]) != slot[:, None]].reshape(len(v), v.shape[1] - 1)
        return rest / v[rows, slot][:, None]

    # in plane chart i the coordinates a sit at the slots it keeps
    abar = np.ones((len(x), 4), dtype=complex)
    abar[rows[:, None], np.array(PLANE_COORD_INDICES)[charts[:, 0]]] = x[:, :3]
    i = np.argmax(np.abs(abar), axis=1) if to is None else to[:, 0]
    c = conic_coeffs_transition(abar, _plane_and_conic(x, charts[:, 1])[1], charts[:, 0], i)
    j = np.argmax(np.abs(c), axis=1) if to is None else to[:, 1]
    return np.stack([i, j], axis=1), np.concatenate([drop(abar, i), drop(c, j)], axis=1)


def start_solutions() -> np.ndarray:
    """The base instance's 92 zeros, where tracking starts, in chart
    (0, 0), (92, 8)."""
    return base_instance()[1]


def _batch_solve(a, b):
    """Solve a (N, 8, 8) for b (N, 8) or b (N, 8, m); nan where a is singular."""
    if b.ndim == 2:
        return _batch_solve(a, b[..., None])[..., 0]
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for i in range(b.shape[0]):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                out[i] = np.nan
        return out


def _track_block(hom: ParameterHomotopy, starts, charts):
    """Track a block of paths from t=1 to t=0, each point in its own chart;
    returns each path's status, endpoint, chart, steps and evaluated rows."""
    n = starts.shape[0]
    x = starts.astype(complex)
    charts = charts.copy()
    t = np.ones(n)
    dt = np.full(n, _DT_INIT)
    nsucc = np.zeros(n, dtype=int)
    steps = np.zeros(n, dtype=int)
    rows = np.zeros(n, dtype=int)
    status = np.full(n, _ACTIVE, dtype=int)
    k1 = np.full((n, 8), np.nan, dtype=complex)  # the tangent at (x, t), nan until evaluated

    def tangent(idx, xs, z, dz):
        rows[idx] += 1
        _, hx, ht = hom.eval(xs, charts[idx, 1], z, dz)
        return _batch_solve(hx, ht)

    while True:
        idx = np.flatnonzero(status == _ACTIVE)
        if idx.size == 0:
            break
        # far out in its chart a point nears the chart's boundary, where the
        # tracking degrades; in its best chart it is well scaled again
        far = idx[np.max(np.abs(x[idx]), axis=1) > _CHART_NORM]
        if far.size:
            charts[far], x[far] = _to_chart(x[far], charts[far])
            k1[far] = np.nan
        new = idx[np.isnan(k1[idx]).any(axis=1)]
        if new.size:
            k1[new] = tangent(new, x[new], *hom.at(t[new], charts[new, 0]))
        xs, ts, cs, hs = x[idx], t[idx], charts[idx], np.minimum(dt[idx], t[idx])

        # 4th-order predictor on x'(t) = -Hx^{-1} Ht, stepping t -> t-h
        k1s = k1[idx]
        half = hom.at(ts - hs / 2, cs[:, 0])
        k2 = tangent(idx, xs + (hs / 2)[:, None] * k1s, *half)
        k3 = tangent(idx, xs + (hs / 2)[:, None] * k2, *half)
        tn = ts - hs
        z, dz = hom.at(tn, cs[:, 0])
        k4 = tangent(idx, xs + hs[:, None] * k3, z, dz)
        xp = xs + (hs / 6)[:, None] * (k1s + 2 * k2 + 2 * k3 + k4)

        # Newton corrector, each path until its move passes; the tangent
        # column of its last solve is the next step's k1
        ok = np.zeros(idx.size, dtype=bool)
        live = np.arange(idx.size)
        for _ in range(_CORRECTOR_ITERS):
            rows[idx[live]] += 1
            h, hx, ht = hom.eval(xp[live], cs[live, 1], z, dz)
            step = _batch_solve(hx, np.stack([h, ht], axis=-1))
            xp[live] -= step[..., 0]
            move = np.max(np.abs(step[..., 0]), axis=1)
            conv = move <= 1e-8 * (1 + np.max(np.abs(xp[live]), axis=1))
            ok[live[conv]] = True
            k1[idx[live[conv]]] = step[conv, :, 1]
            more = ~conv & np.isfinite(move)
            live, z, dz = live[more], z[more], dz[more]
            if not live.size:
                break

        # accept / reject
        acc = idx[ok]
        x[acc] = xp[ok]
        t[acc] = tn[ok]
        nsucc[acc] += 1
        grow = acc[nsucc[acc] >= _GROW_AFTER]
        dt[grow] = np.minimum(dt[grow] * 1.5, _DT_MAX)
        nsucc[grow] = 0
        rej = idx[~ok]
        dt[rej] *= 0.5
        nsucc[rej] = 0
        status[rej[dt[rej] < _DT_MIN]] = _FAILED

        steps[idx] += 1
        status[idx[steps[idx] >= _MAX_STEPS]] = _FAILED
        done = idx[t[idx] <= 0]
        status[done[status[done] == _ACTIVE]] = _REACHED

    return status, x, charts, steps, rows


def _points(zeros) -> tuple:
    """The coordinates (N, 8) and charts (N, 2) of the zeros."""
    x = np.array([z.a + z.b for z in zeros], dtype=complex).reshape(-1, 8)
    return x, np.array([z.chart for z in zeros], dtype=int).reshape(-1, 2)


def _pair_dists(us, vs) -> np.ndarray:
    """Distances (m, n) between the zeros us and vs as points of the moduli
    space: the max-norm gap of their coordinates in each u's best chart,
    inf where v has no point in that chart."""
    (xu, cu), (xv, cv) = _points(us), _points(vs)
    best, xu = _to_chart(xu, cu)
    charts = np.array(list(dict.fromkeys(map(tuple, best.tolist()))), dtype=int).reshape(-1, 2)
    k, n = len(charts), len(xv)
    dist = np.full((len(xu), n), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        # every v in every best chart present, in one batch
        _, xk = _to_chart(np.tile(xv, (k, 1)), np.tile(cv, (k, 1)), np.repeat(charts, n, axis=0))
        for chart, xc in zip(charts, xk.reshape(k, n, 8)):
            near = (best == chart).all(axis=1)
            gap = np.max(np.abs(xu[near, None] - xc), axis=2)
            dist[near] = np.where(np.isfinite(xc).all(axis=1), gap, np.inf)
    return dist


def _refine(system: NumericChartSystem, x):
    """Newton on one chart's system from the points x (N, 8), each until one
    step past a residual of TOL_RESIDUAL / 4, where a line near the point's
    plane may still miss relative digits: the points and their residuals,
    inf for a point whose Newton step is not finite before then."""
    x = x.copy()
    res = np.zeros(len(x))
    live = np.arange(len(x))
    for _ in range(_REFINE_ITERS):
        phi, jphi = system.eval(x[live], jac=True)
        far = np.max(np.abs(phi), axis=1) > TOL_RESIDUAL / 4
        step = _batch_solve(jphi, phi)
        finite = np.isfinite(step).all(axis=1)
        res[live[far & ~finite]] = np.inf
        x[live[finite]] -= step[finite]
        live = live[far & finite]
        if not live.size:
            break
    return x, np.maximum(system.residual(x), res)


def _chart_candidates(system: NumericChartSystem, x) -> list:
    """Refine the endpoints x (N, 8) of one chart together; per endpoint a
    candidate ConicSolution ("real", or "pair" until `_classify` finds its
    conjugate), or None where Newton does not reach TOL_RESIDUAL."""
    x, res = _refine(system, x)
    real = (res <= TOL_RESIDUAL) & (np.max(np.abs(x.imag), axis=1) < REAL_TOL)
    rows = np.flatnonzero(real)
    if rows.size:
        xr, res_r = _refine(system, x[rows].real)
        ok = res_r <= TOL_RESIDUAL
        x[rows[ok]], res[rows[ok]] = xr[ok], res_r[ok]
        real[rows[~ok]] = False
    det = np.empty(len(x), dtype=complex)
    det[real] = system.det_jacobian(x[real].real)
    det[~real] = system.det_jacobian(x[~real])
    zero = res <= TOL_RESIDUAL
    sigma = np.full(len(x), np.nan)
    if zero.any():
        sigma[zero] = np.linalg.svd(system.eval(x[zero], jac=True)[1], compute_uv=False)[:, -1]
    out = []
    for coords, r, d, sig, is_real in zip(x, res, det, sigma, real):
        if not r <= TOL_RESIDUAL:
            out.append(None)
            continue
        if is_real:
            coords = coords.real
        out.append(
            ConicSolution(
                chart=(system.chart.i, system.chart.j),
                a=tuple(coords[:3]),
                b=tuple(coords[3:]),
                det_jac=complex(d),
                reality="real" if is_real else "pair",
                sign=(1 if d.real > 0 else -1) if is_real else None,
                residual=float(r),
                sigma_min=float(sig),
            )
        )
    return out


def _candidates(endpoints, charts, lines) -> list:
    """The candidates of the endpoints that refine to zeros of `lines`, in
    endpoint order.  Each endpoint moves to its best chart, and the
    endpoints of one chart are refined together."""
    charts, x = _to_chart(np.reshape(endpoints, (-1, 8)), np.reshape(charts, (-1, 2)))
    out = [None] * len(x)
    for key in dict.fromkeys(map(tuple, charts.tolist())):
        rows = np.flatnonzero((charts == key).all(axis=1))
        cands = _chart_candidates(NumericChartSystem(Chart(*key), lines), x[rows])
        for k, cand in zip(rows, cands):
            out[k] = cand
    return [c for c in out if c is not None]


def _distinct_zeros(pool) -> list:
    """The first candidate of each zero, in pool order, whatever chart or
    loop it came from."""
    same = _pair_dists(pool, pool) < TOL_DEDUP
    keep = np.zeros(len(pool), dtype=bool)
    for k in range(len(pool)):
        keep[k] = not same[keep, k].any()
    return [c for c, kp in zip(pool, keep) if kp]


def _classify(cands):
    """Split distinct candidates into real zeros, one representative per
    conjugate pair, and the non-real candidates left without a conjugate."""
    reals = [c for c in cands if c.reality == "real"]
    nonreal = [c for c in cands if c.reality != "real"]
    conjs = [replace(c, a=tuple(np.conj(c.a)), b=tuple(np.conj(c.b))) for c in nonreal]
    same = _pair_dists(conjs, nonreal) < TOL_DEDUP
    used = np.zeros(len(nonreal), dtype=bool)
    pairs, leftovers = [], []
    for idx, cand in enumerate(nonreal):
        if used[idx]:
            continue
        later = np.flatnonzero(same[idx, idx + 1 :] & ~used[idx + 1 :]) + idx + 1
        if not later.size:
            leftovers.append(cand)
            continue
        partner = later[0]
        used[idx] = used[partner] = True
        # deterministic representative: leading imaginary part positive
        lead = next((v for v in np.imag(cand.a + cand.b) if abs(v) > REAL_TOL), 0.0)
        pairs.append(cand if lead >= 0 else nonreal[partner])
    return reals, pairs, leftovers


def _round_key(values, digits=9):
    out = []
    for v in values:
        out.append(round(float(np.real(v)), digits))
        out.append(round(float(np.imag(v)), digits))
    return tuple(out)


def _leg(start, end, x, charts, threads: int, rng, paths: list):
    """Track the zeros x (N, 8) of the `start` lines, each in its chart
    (N, 2), to the `end` lines under a fresh gamma.  Appends every path to
    `paths` and returns the converged endpoints and their charts."""
    gamma = complex(np.exp(2j * np.pi * rng.random()))
    hom = ParameterHomotopy(start, end, gamma)
    status, xe, ce, steps, rows = _track_parallel(hom, x, charts, threads)
    for st, n, r in zip(status, steps, rows):
        paths.append(TrackedPath(_STATUS_NAMES[int(st)], int(n), int(r)))
    done = status == _REACHED
    return xe[done], ce[done]


def monodromy(lines, zeros: list, threads: int, rng, paths: list):
    """Monodromy loops at `lines` from the distinct zeros found so far.

    Each loop tracks them to random complex lines and back, a fresh gamma
    per leg, and adds the endpoints to the distinct zeros.  Stops once
    EXPECTED_COUNT zeros are found or `_LOOP_BUDGET` loops have run;
    returns the distinct zeros and the number of loops run.
    """
    target = _unit_rows(_line_arrays(lines))
    loops = 0
    while len(zeros) < EXPECTED_COUNT and loops < _LOOP_BUDGET:
        loops += 1
        draw = rng.standard_normal((2, 2, 8, 4))
        mid = _unit_rows(draw[0] + 1j * draw[1])
        there = _leg(target, mid, *_points(zeros), threads, rng, paths)
        back = _leg(mid, target, *there, threads, rng, paths)
        zeros = _distinct_zeros(zeros + _candidates(*back, lines))
    return zeros, loops


def solve_all(lines, opts: SolverOptions | None = None) -> SolutionSet:
    """Track the base zeros to `lines`, refine, deduplicate and classify.

    `_candidates` turns the converged endpoints into zeros, and
    `_distinct_zeros` deduplicates them before `_classify`.  While fewer
    than EXPECTED_COUNT zeros are found, monodromy loops at the target look
    for the rest.  Raises CountMismatch if, after at most `_LOOP_BUDGET`
    loops, a non-real zero is left without its conjugate, if the number of
    zeros (counted with conjugates) differs from EXPECTED_COUNT, or if a
    zero is not simple (`sigma_min` at most SIGMA_FLOOR).
    """
    opts = opts or SolverOptions()
    t0 = time.time()
    rng = np.random.default_rng([opts.seed, 0x5EED])
    paths: list = []
    starts = start_solutions()
    charts = np.zeros((len(starts), 2), dtype=int)
    target = _unit_rows(_line_arrays(lines))
    ends = _leg(base_instance()[0], target, starts, charts, opts.threads, rng, paths)
    zeros = _distinct_zeros(_candidates(*ends, lines))
    n_base = len(paths)
    zeros, loops = monodromy(lines, zeros, opts.threads, rng, paths)

    reals, pairs, leftovers = _classify(zeros)
    solutions = sorted(
        reals + pairs, key=lambda s: (s.chart, _round_key(list(s.a) + list(s.b)))
    )
    status = [p.status for p in paths]
    stats = {
        "paths_tracked": len(paths),
        "converged_paths": status.count("converged"),
        "diverged_paths": 0,  # paths end converged or failed; kept for the schema
        "failed_paths": status.count("failed"),
        "retracked": len(paths) - n_base,
        "loops": loops,
        "path_steps": sum(p.steps for p in paths),
        "eval_rows": sum(p.eval_rows for p in paths),
        "unpaired": len(leftovers),
        "fallback_charts": [],
        "seed": opts.seed,
        "wall_time": time.time() - t0,
    }
    sset = SolutionSet(solutions=solutions, paths=paths, stats=stats)

    if leftovers:
        raise CountMismatch(
            f"{len(leftovers)} non-real zeros without a conjugate; stats={stats}"
        )
    if sset.count != EXPECTED_COUNT:
        raise CountMismatch(f"found {sset.count} zeros (expected {EXPECTED_COUNT}); stats={stats}")
    if any(s.sigma_min <= SIGMA_FLOOR for s in solutions):
        raise CountMismatch("a zero with a singular Jacobian was found")
    return sset


def _track_parallel(hom: ParameterHomotopy, starts, charts, threads: int):
    """Partition paths into contiguous blocks per thread; results are
    bitwise independent of the partition, so any thread count gives the
    single-threaded output."""
    n = starts.shape[0]
    workers = max(1, int(threads))
    if workers == 1 or n < 2 * workers:
        return _track_block(hom, starts, charts)
    bounds = np.linspace(0, n, workers + 1, dtype=int)

    def run(lo, hi):
        return _track_block(hom, starts[lo:hi], charts[lo:hi])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(run, bounds[:-1], bounds[1:]))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def assemble_enriched_count(sset: SolutionSet) -> GwForm:
    """Sum of local contributions: <sign> per real conic, the trace form of
    the Jacobian determinant per conjugate pair; a complete set of 92 zeros
    is required."""
    if sset.count != EXPECTED_COUNT:
        raise IncompleteSet(f"need 92 zeros counted with conjugates, got {sset.count}")
    form = GwForm.zero(REAL)
    for s in sset.solutions:
        form = form + (GwForm.unit(float(s.sign)) if s.reality == "real" else trace_form(s.det_jac))
    return form
