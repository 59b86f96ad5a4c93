"""Homotopy continuation over C for the chart systems.

The start system multiplies two affine-linear forms in the plane block by
one affine-linear form in the conic block per equation, matching the
(2,1) block degrees, so C(8,3)*2^3 = 448 start paths cover all isolated
zeros.  Tracking is a 4th-order predictor with a Newton corrector and an
adaptive step, batched across paths with numpy; endpoints are refined,
deduplicated projectively, classified real / conjugate-pair, and reported
in the best-conditioned chart per solution.

Conventions: the tracked residual is measured with line representatives
rescaled to unit max-norm (scale-free); the reported Jacobian determinant
is evaluated against the caller's own line representatives, so its square
class and sign are the ones the input data defines.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations, product

import numpy as np

from .errors import CountMismatch, IncompleteSet, SingularStartSystem
from .fields import REAL, SquareClass, complex_to_json
from .geometry import PLANE_COORD_INDICES, Chart, conic_coeffs_transition, insert_one
from .gw import GwForm

_ACTIVE, _REACHED, _DIVERGED, _FAILED = 0, 1, 2, 3
_STATUS_NAMES = {_REACHED: "converged", _DIVERGED: "diverged", _FAILED: "failed"}

_DT_INIT = 0.05
_DT_MAX = 0.1
_DT_MIN = 1e-7
_GROW_AFTER = 3
_DIVERGE_NORM = 1e8
_CORRECTOR_ITERS = 3
_REFINE_ITERS = 50


@dataclass(frozen=True)
class SolverOptions:
    seed: int = 0
    chart: tuple = (0, 0)
    tol_residual: float = 1e-12
    tol_dedup: float = 1e-6
    real_tol: float = 1e-8
    max_steps: int = 5000
    total_degree: bool = False
    threads: int = 1
    det_floor: float = 1e-8
    expected_count: int | None = 92
    gamma_retries: int = 3
    fallback_charts: tuple = ((1, 1), (2, 2), (3, 3))


class NumericChartSystem:
    """Float/complex evaluation of one chart's section and Jacobian."""

    def __init__(self, chart: Chart, lines):
        self.chart = chart
        keep = PLANE_COORD_INDICES[chart.i]
        cols = (chart.i,) + keep
        z = np.empty((8, 3, 4))
        for n, line in enumerate(lines):
            p = [float(v) for v in line.p]
            s = [float(v) for v in line.s]
            m = [[p[l] * s[r] - p[r] * s[l] for l in range(4)] for r in range(4)]
            z[n] = [[m[r][c] for c in cols] for r in keep]
        self.z_raw = z
        self.scales = np.max(np.abs(z), axis=(1, 2))
        self.z_norm = z / self.scales[:, None, None]
        j = chart.j
        sel = np.zeros((6, 5))
        for k in range(6):
            if k != j:
                sel[k, k if k < j else k - 1] = 1.0
        self.coeff_sel = sel
        self.coeff_base = np.eye(6)[j]

    def eval(self, x, jac: bool = False, raw: bool = False):
        """Section values (N,8) and optionally the Jacobian (N,8 eq,8 var)."""
        x = np.asarray(x)
        zm = self.z_raw if raw else self.z_norm
        ones = np.ones(x.shape[:-1] + (1,), dtype=x.dtype)
        abar = np.concatenate([ones, x[..., :3]], axis=-1)
        c = x[..., 3:] @ self.coeff_sel.T + self.coeff_base
        z = np.einsum("nrc,Nc->Nnr", zm, abar)
        z0, z1, z2 = z[..., 0], z[..., 1], z[..., 2]
        mon = np.stack([z0 * z0, z1 * z1, z2 * z2, z1 * z2, z0 * z2, z0 * z1], axis=-1)
        phi = np.einsum("Nnk,Nk->Nn", mon, c)
        if not jac:
            return phi, None
        g0 = 2 * c[:, None, 0] * z0 + c[:, None, 4] * z2 + c[:, None, 5] * z1
        g1 = 2 * c[:, None, 1] * z1 + c[:, None, 3] * z2 + c[:, None, 5] * z0
        g2 = 2 * c[:, None, 2] * z2 + c[:, None, 3] * z1 + c[:, None, 4] * z0
        grad = np.stack([g0, g1, g2], axis=-1)
        ja = np.einsum("Nnr,nrl->Nnl", grad, zm[:, :, 1:4])
        jb = np.einsum("Nnk,kl->Nnl", mon, self.coeff_sel)
        return phi, np.concatenate([ja, jb], axis=2)

    def residual(self, x, raw: bool = False) -> np.ndarray:
        phi, _ = self.eval(np.atleast_2d(x), raw=raw)
        return np.max(np.abs(phi), axis=1)

    def scale_bound(self, x) -> np.ndarray:
        """L1 bound on the section's components; backward-error yardstick."""
        x = np.atleast_2d(x)
        zm = self.z_norm
        ones = np.ones((x.shape[0], 1), dtype=x.dtype)
        abar = np.concatenate([ones, x[:, :3]], axis=1)
        c = x[:, 3:] @ self.coeff_sel.T + self.coeff_base
        z = np.einsum("nrc,Nc->Nnr", zm, abar)
        z0, z1, z2 = np.abs(z[..., 0]), np.abs(z[..., 1]), np.abs(z[..., 2])
        mon = np.stack([z0 * z0, z1 * z1, z2 * z2, z1 * z2, z0 * z2, z0 * z1], axis=-1)
        return np.max(np.einsum("Nnk,Nk->Nn", mon, np.abs(c)), axis=1)

    def det_jacobian(self, x, raw: bool = True):
        """Jacobian determinant with the chart orientation sign (matching
        the exact backend's convention)."""
        _, jmat = self.eval(np.atleast_2d(np.asarray(x)), jac=True, raw=raw)
        sign = -1.0 if (self.chart.i + self.chart.j) % 2 else 1.0
        return sign * np.linalg.det(jmat)[0]


class ProductStart:
    """(u.a)(v.a)(w.b) per equation, with unit random complex covectors."""

    paths = 448

    def __init__(self, rng: np.random.Generator):
        def draw(shape):
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return m / np.linalg.norm(m, axis=1, keepdims=True)

        self.u = draw((8, 4))
        self.v = draw((8, 4))
        self.w = draw((8, 6))

    def solutions(self) -> np.ndarray:
        sols = np.empty((448, 8), dtype=complex)
        k = 0
        for subset in combinations(range(8), 3):
            comp = [n for n in range(8) if n not in subset]
            try:
                b = np.linalg.solve(self.w[comp][:, 1:], -self.w[comp][:, 0])
            except np.linalg.LinAlgError as exc:
                raise SingularStartSystem("conic block degenerated") from exc
            for choice in product((0, 1), repeat=3):
                rows = np.array(
                    [(self.u, self.v)[c][n] for n, c in zip(subset, choice)]
                )
                try:
                    a = np.linalg.solve(rows[:, 1:], -rows[:, 0])
                except np.linalg.LinAlgError as exc:
                    raise SingularStartSystem("plane block degenerated") from exc
                sols[k, :3] = a
                sols[k, 3:] = b
                k += 1
        return sols

    def eval(self, x):
        n = x.shape[0]
        ones = np.ones((n, 1), dtype=x.dtype)
        abar = np.concatenate([ones, x[:, :3]], axis=1)
        bbar = np.concatenate([ones, x[:, 3:]], axis=1)
        lu = abar @ self.u.T
        lv = abar @ self.v.T
        lw = bbar @ self.w.T
        g = lu * lv * lw
        da = self.u[None, :, 1:4] * (lv * lw)[:, :, None] + self.v[None, :, 1:4] * (
            lu * lw
        )[:, :, None]
        db = self.w[None, :, 1:6] * (lu * lv)[:, :, None]
        return g, np.concatenate([da, db], axis=2)


class TotalDegreeStart:
    """x_n^3 - c_n fallback; 3^8 = 6561 paths."""

    paths = 6561

    def __init__(self, rng: np.random.Generator):
        self.c = np.exp(2j * np.pi * rng.random(8))

    def solutions(self) -> np.ndarray:
        roots = [
            self.c[n] ** (1 / 3) * np.exp(2j * np.pi * np.arange(3) / 3)
            for n in range(8)
        ]
        grids = np.meshgrid(*roots, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def eval(self, x):
        g = x**3 - self.c[None, :]
        jac = np.zeros(x.shape[:1] + (8, 8), dtype=x.dtype)
        idx = np.arange(8)
        jac[:, idx, idx] = 3 * x**2
        return g, jac


@dataclass
class HomotopySystem:
    """gamma*t*start + (1-t)*target, with the start system's own solutions."""

    chartsys: NumericChartSystem
    start: object
    gamma: complex
    seed: int


@dataclass
class TrackedPath:
    start: np.ndarray
    status: str
    endpoint: np.ndarray | None
    residual: float
    steps: int


@dataclass
class ConicSolution:
    chart: tuple
    a: tuple
    b: tuple
    det_jac: complex
    reality: str
    sign: int | None
    residual: float
    abar: tuple  # projective plane representative (4,)
    cbar: tuple  # conic coefficients in the chart-i interpretation (6,)

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


def make_homotopy(lines, opts: SolverOptions, seed_offset: int = 0) -> HomotopySystem:
    rng = np.random.default_rng([opts.seed, 0x5EED, seed_offset])
    chart = Chart(*opts.chart)
    chartsys = NumericChartSystem(chart, lines)
    start = TotalDegreeStart(rng) if opts.total_degree else ProductStart(rng)
    gamma = complex(np.exp(2j * np.pi * rng.random()))
    return HomotopySystem(chartsys, start, gamma, opts.seed)


def start_solutions(hsys: HomotopySystem) -> np.ndarray:
    """All start-system zeros, verified to satisfy it to 1e-12."""
    sols = hsys.start.solutions()
    g, _ = hsys.start.eval(sols)
    res = np.max(np.abs(g), axis=1)
    if not np.all(res < 1e-12):
        raise SingularStartSystem(f"start residual {res.max():.2e}")
    return sols


def _batch_solve(a, b):
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for i in range(b.shape[0]):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                out[i] = np.nan
        return out


def _track_block(chartsys, start, starts, gamma, opts: SolverOptions):
    """Track a block of paths from t=1 to t=0; returns per-path state arrays."""
    n = starts.shape[0]
    x = starts.astype(complex).copy()
    t = np.ones(n)
    dt = np.full(n, _DT_INIT)
    nsucc = np.zeros(n, dtype=int)
    steps = np.zeros(n, dtype=int)
    status = np.full(n, _ACTIVE, dtype=int)

    def h_tangent(xs, ts):
        phi, jphi = chartsys.eval(xs, jac=True)
        g, jg = start.eval(xs)
        hx = gamma * ts[:, None, None] * jg + (1 - ts)[:, None, None] * jphi
        ht = gamma * g - phi
        return _batch_solve(hx, ht)

    def h_newton(xs, ts):
        phi, jphi = chartsys.eval(xs, jac=True)
        g, jg = start.eval(xs)
        h = gamma * ts[:, None] * g + (1 - ts)[:, None] * phi
        hx = gamma * ts[:, None, None] * jg + (1 - ts)[:, None, None] * jphi
        return _batch_solve(hx, h)

    while True:
        idx = np.flatnonzero(status == _ACTIVE)
        if idx.size == 0:
            break
        xs, ts, hs = x[idx], t[idx], np.minimum(dt[idx], t[idx])

        # 4th-order predictor on x'(t) = -Hx^{-1} Ht, stepping t -> t-h
        k1 = h_tangent(xs, ts)
        k2 = h_tangent(xs + (hs / 2)[:, None] * k1, ts - hs / 2)
        k3 = h_tangent(xs + (hs / 2)[:, None] * k2, ts - hs / 2)
        k4 = h_tangent(xs + hs[:, None] * k3, ts - hs)
        xp = xs + (hs / 6)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
        tn = ts - hs

        # Newton corrector
        delta = None
        for _ in range(_CORRECTOR_ITERS):
            delta = h_newton(xp, tn)
            xp = xp - delta
        ok = np.isfinite(xp).all(axis=1)
        move = np.max(np.abs(delta), axis=1)
        ok &= move <= 1e-8 * (1 + np.max(np.abs(xp), axis=1))

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
        big = idx[np.max(np.abs(x[idx]), axis=1) > _DIVERGE_NORM]
        status[big] = _DIVERGED
        status[idx[steps[idx] >= opts.max_steps]] = _FAILED
        done = idx[t[idx] <= 0]
        status[done[status[done] == _ACTIVE]] = _REACHED

    # final Newton refinement on the target system alone
    reached = np.flatnonzero(status == _REACHED)
    res = np.full(n, np.inf)
    if reached.size:
        xr = x[reached]
        for _ in range(_REFINE_ITERS):
            phi, jphi = chartsys.eval(xr, jac=True)
            r = np.max(np.abs(phi), axis=1)
            live = r > 0.5 * opts.tol_residual
            if not live.any():
                break
            step = _batch_solve(jphi[live], phi[live])
            bad = ~np.isfinite(step).all(axis=1)
            step[bad] = 0
            xr[live] = xr[live] - step
        x[reached] = xr
        phi, _ = chartsys.eval(xr)
        res[reached] = np.max(np.abs(phi), axis=1)
        scale = np.maximum(1.0, chartsys.scale_bound(xr))
        good = res[reached] <= opts.tol_residual * scale
        diverging = np.max(np.abs(xr), axis=1) > _DIVERGE_NORM
        status[reached[diverging]] = _DIVERGED
        status[reached[~good & ~diverging]] = _FAILED

    return status, x, res, steps


def _proj_dist(x, y) -> float:
    """Projective max-norm distance, normalizing both by x's largest slot."""
    x = np.asarray(x)
    y = np.asarray(y)
    s = int(np.argmax(np.abs(x)))
    if y[s] == 0:
        return np.inf
    return float(np.max(np.abs(x / x[s] - y / y[s])))


def projective_pair_dist(
    sol_a: ConicSolution, sol_b: ConicSolution, cutoff: float = 10.0
) -> float:
    """Distance between two solutions as points of the moduli space.

    Planes farther apart than `cutoff` give the plane distance alone; only
    closer pairs pay for bringing the conics into one chart.
    """
    da = _proj_dist(sol_a.abar, sol_b.abar)
    if not da <= cutoff:
        return da
    ia = int(np.argmax(np.abs(np.asarray(sol_a.abar))))
    return max(da, _proj_dist(_conic_in_chart(sol_a, ia), _conic_in_chart(sol_b, ia)))


def _conic_in_chart(sol: ConicSolution, i: int) -> np.ndarray:
    if sol.chart[0] == i:
        return np.asarray(sol.cbar)
    return np.asarray(conic_coeffs_transition(sol.abar, sol.cbar, sol.chart[0], i))


def _tracked_path(start, status, x, res, steps) -> TrackedPath:
    st = _STATUS_NAMES.get(int(status), "failed")
    return TrackedPath(
        start=start,
        status=st,
        endpoint=x if st == "converged" else None,
        residual=float(res),
        steps=int(steps),
    )


def track(start_point, hsys: HomotopySystem, opts: SolverOptions) -> TrackedPath:
    """Track a single path; thin wrapper over the batched tracker."""
    starts = np.asarray(start_point, dtype=complex).reshape(1, 8)
    status, x, res, steps = _track_block(
        hsys.chartsys, hsys.start, starts, hsys.gamma, opts
    )
    return _tracked_path(starts[0], status[0], x[0], res[0], steps[0])


def _canonical_chart_data(endpoint, chart: tuple, systems: dict, lines, opts):
    """Re-express an endpoint in its best-conditioned chart, refine there and
    return it as a candidate ConicSolution ("real", or "pair" until
    `_classify` finds its conjugate).

    Returns None when the refinement cannot certify the point.
    """
    i, j = chart
    abar = np.array(insert_one(endpoint[:3], i, 1.0 + 0j))
    cbar = np.array(insert_one(endpoint[3:], j, 1.0 + 0j))
    istar = int(np.argmax(np.abs(abar)))
    cstar = np.array(
        conic_coeffs_transition(tuple(abar), tuple(cbar), i, istar)
    )
    jstar = int(np.argmax(np.abs(cstar)))
    a_new = np.array([abar[k] / abar[istar] for k in range(4) if k != istar])
    b_new = np.array([cstar[k] / cstar[jstar] for k in range(6) if k != jstar])
    key = (istar, jstar)
    if key not in systems:
        systems[key] = NumericChartSystem(Chart(*key), lines)
    sysrc = systems[key]
    x = np.concatenate([a_new, b_new]).reshape(1, 8)
    for _ in range(30):
        phi, jphi = sysrc.eval(x, jac=True)
        if np.max(np.abs(phi)) <= 0.25 * opts.tol_residual:
            break
        step = _batch_solve(jphi, phi)
        if not np.isfinite(step).all():
            return None
        x = x - step
    res = float(sysrc.residual(x[0:1])[0])
    if not np.isfinite(res) or res > opts.tol_residual:
        return None

    coords = x[0]
    is_real = float(np.max(np.abs(coords.imag))) < opts.real_tol
    if is_real:
        xr = coords.real.copy().reshape(1, 8)
        for _ in range(20):
            phi, jphi = sysrc.eval(xr, jac=True)
            if np.max(np.abs(phi)) <= 0.25 * opts.tol_residual:
                break
            step = _batch_solve(jphi, phi)
            if not np.isfinite(step).all():
                is_real = False
                break
            xr = xr - step
        if is_real:
            res_r = float(sysrc.residual(xr[0:1])[0])
            if res_r <= opts.tol_residual:
                coords = xr[0].astype(complex)
                res = res_r
            else:
                is_real = False

    det = complex(sysrc.det_jacobian(coords.real if is_real else coords, raw=True))
    abar = np.array(insert_one(coords[:3], istar, 1.0 + 0j))
    cbar = np.array(insert_one(coords[3:], jstar, 1.0 + 0j))
    if is_real:
        coords, abar, cbar, det = coords.real, abar.real, cbar.real, complex(det.real)
    return ConicSolution(
        chart=key,
        a=tuple(coords[:3]),
        b=tuple(coords[3:]),
        det_jac=det,
        reality="real" if is_real else "pair",
        sign=(1 if det.real > 0 else -1) if is_real else None,
        residual=res,
        abar=tuple(abar),
        cbar=tuple(cbar),
    )


def _distinct_zeros(pool, tol: float) -> list:
    """The first candidate of each zero, in pool order: the one same-zero
    test for every endpoint, whatever chart or retry it came from."""
    out = []
    for c in pool:
        if not any(projective_pair_dist(u, c, cutoff=tol) < tol for u in out):
            out.append(c)
    return out


def _classify(cands, opts):
    """Split distinct candidates into real zeros, one representative per
    conjugate pair, and the non-real candidates left without a conjugate."""
    reals = [c for c in cands if c.reality == "real"]
    nonreal = [c for c in cands if c.reality != "real"]
    tol = opts.real_tol * 10
    used = [False] * len(nonreal)
    pairs, leftovers = [], []
    for idx, cand in enumerate(nonreal):
        if used[idx]:
            continue
        partner = next(
            (
                k
                for k in range(idx + 1, len(nonreal))
                if not used[k]
                and _proj_dist(np.conj(cand.abar), nonreal[k].abar) < tol
                and _proj_dist(np.conj(cand.cbar), nonreal[k].cbar) < tol
            ),
            None,
        )
        if partner is None:
            leftovers.append(cand)
            continue
        used[idx] = used[partner] = True
        # deterministic representative: leading imaginary part positive
        lead = next((v for v in np.imag(cand.a + cand.b) if abs(v) > opts.real_tol), 0.0)
        pairs.append(cand if lead >= 0 else nonreal[partner])
    return reals, pairs, leftovers


def _round_key(values, digits=9):
    out = []
    for v in values:
        out.append(round(float(np.real(v)), digits))
        out.append(round(float(np.imag(v)), digits))
    return tuple(out)


def solve_all(lines, opts: SolverOptions | None = None) -> SolutionSet:
    """Track all start paths, refine, deduplicate and classify endpoints.

    Every converged endpoint, from chart (0,0), a gamma retry or a fallback
    chart, is canonicalized once into one pool, which `_distinct_zeros`
    deduplicates in one pass before `_classify`.  Raises CountMismatch if,
    after gamma retries and fallback charts, the number of zeros (counted
    with conjugates) differs from the expected count, or if a non-real
    zero is left without its conjugate.
    """
    opts = opts or SolverOptions()
    t0 = time.time()
    hsys = starts = None
    for draw in range(8):  # re-randomize covectors on a degenerate draw
        try:
            hsys = make_homotopy(lines, opts, seed_offset=draw)
            starts = start_solutions(hsys)
            break
        except SingularStartSystem:
            continue
    if starts is None:
        raise SingularStartSystem("could not draw a nondegenerate start system")
    n_paths = starts.shape[0]

    status, x, res, steps = _track_parallel(
        hsys.chartsys, hsys.start, starts, hsys.gamma, opts
    )

    systems: dict = {}
    found: dict = {}  # path index -> canonical candidate, made once per endpoint
    fallback_pool: list = []

    def classify_pool():
        for k in np.flatnonzero(status == _REACHED):
            if int(k) not in found:
                found[int(k)] = _canonical_chart_data(
                    x[k], tuple(opts.chart), systems, lines, opts
                )
        pool = [c for _, c in sorted(found.items()) if c is not None]
        reals, pairs, leftovers = _classify(
            _distinct_zeros(pool + fallback_pool, opts.tol_dedup), opts
        )
        return reals + pairs, leftovers, len(reals) + 2 * len(pairs)

    solutions, leftovers, count = classify_pool()

    # paths lost to step underflow are retried with a perturbed gamma, but
    # only while solutions are actually missing (excess paths stall too)
    retracked = 0
    for attempt in range(1, opts.gamma_retries + 1):
        if opts.expected_count is None or count >= opts.expected_count:
            break
        failed = np.flatnonzero(status == _FAILED)
        if failed.size == 0:
            break
        rng = np.random.default_rng([opts.seed, 0xFA17, attempt])
        gamma = complex(np.exp(2j * np.pi * rng.random()))
        st2, x2, res2, steps2 = _track_parallel(
            hsys.chartsys, hsys.start, starts[failed], gamma, opts
        )
        status[failed] = st2
        x[failed] = x2
        res[failed] = res2
        steps[failed] += steps2
        retracked += failed.size
        solutions, leftovers, count = classify_pool()

    paths = [
        _tracked_path(starts[k], status[k], x[k], res[k], steps[k])
        for k in range(n_paths)
    ]

    # fallback charts if the count is off (solutions at chart infinity)
    used_fallbacks = []
    if opts.expected_count is not None and count != opts.expected_count:
        for fb in opts.fallback_charts:
            used_fallbacks.append(fb)
            fb_opts = replace(opts, chart=tuple(fb))
            hsys2 = make_homotopy(lines, fb_opts, seed_offset=100 + len(used_fallbacks))
            starts2 = start_solutions(hsys2)
            st2, x2, _, _ = _track_parallel(
                hsys2.chartsys, hsys2.start, starts2, hsys2.gamma, fb_opts
            )
            for k in np.flatnonzero(st2 == _REACHED):
                cand = _canonical_chart_data(x2[k], tuple(fb), systems, lines, opts)
                if cand is not None:
                    fallback_pool.append(cand)
            solutions, leftovers, count = classify_pool()
            if count == opts.expected_count:
                break

    solutions.sort(key=lambda s: (s.chart, _round_key(list(s.a) + list(s.b))))

    stats = {
        "paths_tracked": int(n_paths),
        "converged_paths": int(np.sum(status == _REACHED)),
        "diverged_paths": int(np.sum(status == _DIVERGED)),
        "failed_paths": int(np.sum(status == _FAILED)),
        "retracked": int(retracked),
        "unpaired": len(leftovers),
        "fallback_charts": used_fallbacks,
        "seed": opts.seed,
        "chart": list(opts.chart),
        "wall_time": time.time() - t0,
    }
    sset = SolutionSet(solutions=solutions, paths=paths, stats=stats)

    if opts.expected_count is not None and sset.count != opts.expected_count:
        raise CountMismatch(
            f"found {sset.count} zeros (expected {opts.expected_count}); stats={stats}"
        )
    if leftovers:
        raise CountMismatch(
            f"{len(leftovers)} non-real zeros without a conjugate; stats={stats}"
        )
    if any(abs(s.det_jac) <= opts.det_floor for s in solutions):
        raise CountMismatch("a zero with vanishing Jacobian determinant was found")
    return sset


def _track_parallel(chartsys, start, starts, gamma, opts: SolverOptions):
    """Partition paths into contiguous blocks per thread; results are
    bitwise independent of the partition, so any thread count gives the
    single-threaded output."""
    n = starts.shape[0]
    workers = max(1, int(opts.threads))
    if workers == 1 or n < 2 * workers:
        return _track_block(chartsys, start, starts, gamma, opts)
    bounds = np.linspace(0, n, workers + 1, dtype=int)
    blocks = [(int(bounds[b]), int(bounds[b + 1])) for b in range(workers)]
    status = np.empty(n, dtype=int)
    x = np.empty((n, 8), dtype=complex)
    res = np.empty(n)
    steps = np.empty(n, dtype=int)

    def run(lo, hi):
        return _track_block(chartsys, start, starts[lo:hi], gamma, opts)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, lo, hi) for lo, hi in blocks]
        for (lo, hi), fut in zip(blocks, futures):
            st, xx, rr, ss = fut.result()
            status[lo:hi] = st
            x[lo:hi] = xx
            res[lo:hi] = rr
            steps[lo:hi] = ss
    return status, x, res, steps


def assemble_enriched_count(sset: SolutionSet) -> GwForm:
    """Sum of local contributions: <sign> per real conic, the hyperbolic
    form per conjugate pair; a complete set of 92 zeros is required."""
    if sset.count != 92:
        raise IncompleteSet(f"need 92 zeros counted with conjugates, got {sset.count}")
    form = GwForm.zero(REAL)
    for s in sset.solutions:
        if s.reality == "real":
            form = form + GwForm.from_class(SquareClass(REAL, s.sign))
        else:
            form = form + GwForm.hyperbolic(REAL)
    return form
