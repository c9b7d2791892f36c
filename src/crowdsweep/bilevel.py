"""Bilevel solvers for the articulated disk-ensemble control problem.

Three layers: the per-participant inner problem (minimum confinement effort
for a given disk motion), a derivative-free outer search over
piecewise-constant disk velocities that scores each plan with a greedy
inner solve, and a closed-form parametric solver for the aligned two-disk
family that serves as a reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .dynamics import (
    DEFAULT_GRID_K,
    BallSet,
    ControlProfile,
    FeasibilityReport,
    IntervalSet,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    Trajectory,
    _effort,
    _line,
    _require_member,
    _translation_path,
    _worst_overlap,
    check_feasibility,
    cost_lower,
    cost_upper,
    integrate_lower_catchup,
    integrate_upper,
    uniform_grid,
)

__all__ = [
    "InnerInfeasibleError",
    "UnsupportedFamilyError",
    "InnerOptions",
    "BilevelSolution",
    "CaseStudyParams",
    "value_function",
    "fd_value_gradient",
    "solve_bilevel_direct",
    "solve_twodisk_parametric",
    "closed_form_controls",
]


# Seed of value_function's draws of free initial points.
X0_SEED = 0

# Velocity step of the central difference in fd_value_gradient.
FD_STEP = 1e-4


class InnerInfeasibleError(RuntimeError):
    """No feasible inner point found for the lower-level problem."""


class UnsupportedFamilyError(ValueError):
    """Scenario does not match the parametric two-disk family."""


@dataclass
class InnerOptions:
    """Knobs for the inner (lower-level) solver.  ``refine`` must stay False:
    every greedy step is exact, so no polish runs on top of it."""

    multistart: int = 8          # initial points tried when x0 is free
    refine: bool = False

    def __post_init__(self):
        if self.refine:
            raise ValueError("refine must be False: every greedy step is already exact")


@dataclass
class BilevelSolution:
    """A solved instance: controls, trajectories, and both cost levels."""

    scenario: Scenario
    v: List[ControlProfile]
    u: List[ControlProfile]
    x0: np.ndarray
    y: Trajectory
    x: Trajectory
    J_H: float
    J_L: np.ndarray
    method: str
    feasibility: FeasibilityReport


@dataclass
class CaseStudyParams:
    """Closed-form description of the aligned two-disk optimum.

    The near participant's distance to the exit, gamma2, is flat before
    contact, linear while the ensemble rides at constant speed, and
    exponential on the deceleration arc:

        gamma2(t) = gamma0                                   on [0, t_a)
        gamma2(t) = gamma0 + R - v_bar * t                   on [t_a, t_b]
        gamma2(t) = (v_bar * exp(-a (t - t_b)) - M) / a      on [t_b, T]
    """

    t_a: float
    t_b: float
    v_bar: float
    gamma0: float
    R: float
    cap: float
    decay: float          # a = -drift coefficient
    T: float
    direction: np.ndarray  # unit vector from the exit toward the disks
    near: int              # participant index closest to the exit
    far: int

    def __post_init__(self):
        self.direction = np.asarray(self.direction, float).reshape(2)
        if not (0.0 < self.t_a < self.t_b < self.T):
            raise ValueError("need 0 < t_a < t_b < T")
        if abs(self.v_bar * self.t_a - self.R) > 1e-6 * max(1.0, self.R):
            raise ValueError("contact-time relation v_bar * t_a = R violated")
        sat = self.decay * self.gamma2(self.t_b) + self.cap
        if abs(self.v_bar - sat) > 1e-6 * max(1.0, self.v_bar):
            raise ValueError("saturation relation v_bar = a*gamma2(t_b) + M violated")

    def gamma2(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        flat = np.full_like(t, self.gamma0)
        lin = self.gamma0 + self.R - self.v_bar * t
        a = self.decay
        # clamped before t_b, where the value is discarded but could overflow
        expo = self.v_bar / a * np.exp(-a * np.maximum(t - self.t_b, 0.0)) - self.cap / a
        out = np.where(t < self.t_a, flat, np.where(t < self.t_b, lin, expo))
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# inner problem


def _line_step(d, w, r_eff, s_lo, s_hi):
    """The least-|s| s in [s_lo, s_hi] with |d + s w| <= r_eff, or None: the
    feasible s lie between the roots of a quadratic."""
    a = float(np.dot(w, w))
    b = 2.0 * float(np.dot(w, d))
    c = float(np.dot(d, d)) - r_eff * r_eff
    if a < 1e-30:
        if c > 0:
            return None
        lo, hi = s_lo, s_hi
    else:
        disc = b * b - 4 * a * c
        if disc < 0:
            return None
        root = math.sqrt(disc)
        lo, hi = max((-b - root) / (2 * a), s_lo), min((-b + root) / (2 * a), s_hi)
    if lo > hi:
        return None
    return 0.0 if lo <= 0.0 <= hi else lo if lo > 0 else hi


def _greedy_step(drift, cset):
    """One participant's greedy step rule, chosen once per solve.

    ``step(x, h, center, r_eff)`` is the smallest-norm admissible control u
    whose predicted point x + h f(x, u) lies within r_eff of the center, or
    None when no admissible control has one.  Every rule is closed form
    up to a monotone Newton iteration.  On a segment or 1-D interval U the
    control is one coordinate s of u = s * unit and the predicted point
    moves on a line, so s solves a quadratic; a ball U under an isotropic
    control channel has a closed form too.  Any other two-coordinate U takes
    the nearest point of the ellipse of controls that reach the target (a
    trust-region step, More & Sorensen 1983), kept when it lies in U; on a
    box U that misses it, the answer lies on an edge of the box, a line.
    """
    zero = np.zeros(drift.control_dim)
    line = _line(cset)
    if line is not None:
        unit, s_lo, s_hi = line
        scaled = isinstance(drift, ScaledLinearDrift)

        def scalar(x, h, center, r_eff):
            # the line p0 + s * w, in each drift family's order of arithmetic
            if scaled:
                p0, w = x, h * drift.coeff * x
            else:
                p0, w = x + h * drift.value(x, zero), (h * drift.B) @ unit
            s = _line_step(p0 - center, w, r_eff, s_lo, s_hi)
            return None if s is None else s * unit
        return scalar

    # two control coordinates: the drift is affine, W = h B, and B = L diag(S) Q
    # with singular values below 1e-12 of the largest taken as 0 (a rank-1 B)
    L, S, Q = np.linalg.svd(drift.B)
    S = np.where(S > 1e-12 * S[0], S, 0.0)
    ball = isinstance(cset, BallSet)

    def nearest(d, h, r_eff):
        """The least-norm u with |W u - d| <= r_eff < |d|, or None.  It is
        u(lam) = lam (I + lam W^T W)^-1 W^T d with |W u(lam) - d| = r_eff,
        and |W u(lam) - d|^2 = sum_k c_k^2 / (1 + lam s_k^2)^2 for c = L^T d
        and s = h S.  Newton on 1/|W u(lam) - d| = 1/r_eff, whose left side
        is concave and increasing, climbs from lam = 0 to the root without
        passing it."""
        c0, c1 = (L.T @ d).tolist()
        s0, s1 = h * float(S[0]), h * float(S[1])
        q0, q1 = s0 * s0, s1 * s1
        if q0 == 0.0 or (q1 == 0.0 and abs(c1) > r_eff):
            return None     # W is 0, or d's part outside the range of W is too far
        lam = 0.0
        for _ in range(100):
            a0, a1 = 1.0 + lam * q0, 1.0 + lam * q1
            f = c0 * c0 / (a0 * a0) + c1 * c1 / (a1 * a1)
            n = math.sqrt(f)
            if n <= r_eff:
                break
            step = (n / r_eff - 1.0) * f / (q0 * c0 * c0 / a0**3 + q1 * c1 * c1 / a1**3)
            lam += step
            if step <= 1e-15 * lam:
                break
        return Q.T @ np.array([lam * s0 * c0 / (1.0 + lam * q0), lam * s1 * c1 / (1.0 + lam * q1)])

    def planar(x, h, center, r_eff):
        p0, W = x + h * drift.value(x, zero), h * drift.B
        if ball and abs(W[0, 0] - W[1, 1]) < 1e-15 \
                and abs(W[0, 1]) < 1e-15 and abs(W[1, 0]) < 1e-15 and W[0, 0] > 0:
            # isotropic control channel: the feasible controls form a ball
            q = (center - p0) / W[0, 0]
            need = float(np.linalg.norm(q)) - r_eff / W[0, 0]
            if need <= 0:
                return np.zeros(2)
            if need > cset.radius + 1e-12:
                return None
            return (need / float(np.linalg.norm(q))) * q
        d = center - p0
        u = zero.copy() if float(np.linalg.norm(d)) <= r_eff else nearest(d, h, r_eff)
        if u is None:
            return None
        if ball:
            # the ellipse's nearest point is also the nearest point of its
            # meet with the ball, or proves the meet empty
            return u if float(np.linalg.norm(u)) <= cset.radius else None
        if np.all(cset.lo <= u) and np.all(u <= cset.hi):
            return u
        # the convex problem's minimum lies on the box's boundary: the
        # first least-norm point over its four edges, each a line
        edges = []
        for j, k in ((0, 1), (1, 0)):
            for e in (cset.lo[j], cset.hi[j]):
                s = _line_step(e * W[:, j] - d, W[:, k], r_eff, cset.lo[k], cset.hi[k])
                if s is not None:
                    edges.append((e, s) if j == 0 else (s, e))
        return np.array(min(edges, key=lambda c: c[0] * c[0] + c[1] * c[1])) if edges else None
    return planar


def _greedy_min_effort(scenario, i, ypath, grid, x0_i):
    """Feasibility-first inner control: per step the smallest-norm admissible
    control, letting the (free) cone correction do the rest.  Returns the
    (K, m) controls and None, or None and the first step without one."""
    drift, cap, R = scenario.drift[i], float(scenario.M[i]), scenario.R
    step = _greedy_step(drift, scenario.U[i])
    K = grid.size - 1
    uvals = np.zeros((K, drift.control_dim))
    x = np.asarray(x0_i, float).copy()
    for k in range(K):
        h = grid[k + 1] - grid[k]
        center = ypath[k + 1]
        u = step(x, h, center, R + cap * h)
        if u is None:
            return None, k
        uvals[k] = u
        pred = x + h * drift.value(x, u)
        off = pred - center
        dist = float(np.hypot(off[0], off[1]))
        x = center + (R / dist) * off if dist > R else pred
    return uvals, None


def _x0_candidates(scenario, i, count, rng) -> List[np.ndarray]:
    """The fixed initial point, or the disk center and count - 1 uniform
    draws from the disk when x0 is free."""
    if not scenario.x0_free:
        return [scenario.x0[i]]
    cands = [scenario.y0[i].copy()]
    for _ in range(max(0, count - 1)):
        r = scenario.R * math.sqrt(rng.random())
        th = 2 * math.pi * rng.random()
        cands.append(scenario.y0[i] + np.array([r * math.cos(th), r * math.sin(th)]))
    return cands


def value_function(
    scenario: Scenario,
    i: int,
    v_i: ControlProfile,
    inner: Optional[InnerOptions] = None,
) -> Tuple[float, Tuple[np.ndarray, ControlProfile]]:
    """Confinement effort of participant i under the disk motion v_i.

    The effort of the greedy inner solve (per step the smallest-norm
    admissible control, under the catching-up dynamics on the grid of v_i),
    the least over the initial points when x0 is free: the disk center and
    ``multistart - 1`` seeded draws from the disk.  Returns the effort and
    its (initial point, controls).
    """
    opts = inner or InnerOptions()
    rng = np.random.default_rng(X0_SEED)
    _require_member(i, v_i, scenario.V[i], "v leaves V")
    grid = v_i.grid
    ypath = _translation_path(scenario.y0[i], grid, v_i.values)

    best: Tuple[Optional[float], Optional[np.ndarray], Optional[np.ndarray]] = (None, None, None)
    for x0_i in _x0_candidates(scenario, i, opts.multistart, rng):
        u, _fail = _greedy_min_effort(scenario, i, ypath, grid, x0_i)
        if u is None:
            continue
        cost = _effort(grid, u)
        if (
            best[0] is None
            or cost < best[0] - 1e-12
            or (abs(cost - best[0]) <= 1e-12 and tuple(u.ravel()) < tuple(best[1].ravel()))
        ):
            best = (cost, u, np.asarray(x0_i, float))
    if best[0] is None:
        raise InnerInfeasibleError(
            f"participant {i+1}: no feasible inner control found (cone cap too small)"
        )
    phi = max(0.0, best[0])
    return phi, (best[2], ControlProfile(grid=grid, values=best[1]))


def fd_value_gradient(scenario: Scenario, i: int, v_i: ControlProfile) -> np.ndarray:
    """Central-difference sensitivity (step ``FD_STEP``) of the greedy inner
    effort to the disk velocity, interval by interval: entry k estimates the
    pointwise sensitivity on interval k, comparable with the witness-formula
    path of :mod:`crowdsweep.nco`.  The sensitivity lives in the ambient
    space, so the perturbed profiles skip membership validation.  Two greedy
    solves per interval and coordinate: meant for coarse grids."""
    grid = v_i.grid
    h = np.diff(grid)
    x0_i = scenario.y0[i] if scenario.x0_free else scenario.x0[i]
    out = np.zeros((v_i.K, 2))
    for k in range(v_i.K):
        for c in range(2):
            efforts = []
            for sgn in (1.0, -1.0):
                vals = v_i.values.copy()
                vals[k, c] += sgn * FD_STEP
                ypath = _translation_path(scenario.y0[i], grid, vals)
                uvals, _fail = _greedy_min_effort(scenario, i, ypath, grid, x0_i)
                if uvals is None:
                    raise InnerInfeasibleError(
                        f"participant {i+1}: perturbed inner problem infeasible")
                efforts.append(_effort(grid, uvals))
            out[k, c] = (efforts[0] - efforts[1]) / (2 * FD_STEP * h[k])
    return out


# ---------------------------------------------------------------------------
# direct outer solver


def _coordinates(cset, K) -> Tuple[np.ndarray, np.ndarray]:
    """Box (lo, hi) of one participant's search coordinates on K intervals:
    K rows of the coordinate of a line (see ``_line``), of a box's own
    coordinates, or of the square around a ball."""
    line = _line(cset)
    if line is not None:
        return np.full((K, 1), line[1]), np.full((K, 1), line[2])
    if isinstance(cset, IntervalSet):
        return np.tile(cset.lo, (K, 1)), np.tile(cset.hi, (K, 1))
    hi = np.full((K, 2), cset.radius)
    return -hi, hi


def _solution(scenario, v, u, x0, method) -> BilevelSolution:
    """Integrate both levels under the controls, then cost and audit them."""
    y = integrate_upper(scenario, v)
    x = integrate_lower_catchup(scenario, y, u, x0)
    return BilevelSolution(
        scenario=scenario, v=v, u=u, x0=x0, y=y, x=x,
        J_H=cost_upper(y.terminal()),
        J_L=np.array([cost_lower(p) for p in u]),
        method=method, feasibility=check_feasibility(scenario, y, x, u, v),
    )


def solve_bilevel_direct(
    scenario: Scenario,
    coarse_grid_K: int = 8,
    seed: int = 0,
    sim_K: int = 600,
    max_evals: int = 6000,
) -> BilevelSolution:
    """Derivative-free outer search over piecewise-constant disk velocities.

    Each candidate velocity plan is scored by its terminal cost, with the
    inner controls from the greedy feasibility-first solve (no
    value-function penalty; a plan without a feasible greedy inner control
    is rejected) and a penalty on disk overlap.  Pattern search polls
    single coordinates, per-interval groups, and the full vector, from five
    structured starts (three scaled common-speed plans, the per-participant
    aim and the rest plan); there are no random starts.  The seed drives
    only the draws of free initial points, so the search is deterministic
    for a fixed seed.
    """
    if not 2 <= coarse_grid_K <= sim_K:
        raise ValueError(f"grid-K must be from 2 to {sim_K} coarse intervals (the steps of "
                         f"the fine grid), got {coarse_grid_K}")
    K, N, T = coarse_grid_K, scenario.N, scenario.T
    rng = np.random.default_rng(seed)
    sim_K = int(math.ceil(sim_K / K)) * K
    fine = uniform_grid(T, sim_K)
    lines = [_line(cset) for cset in scenario.V]
    boxes = [_coordinates(cset, K) for cset in scenario.V]
    lo = np.concatenate([box[0].ravel() for box in boxes])
    hi = np.concatenate([box[1].ravel() for box in boxes])
    offsets = np.cumsum([0] + [box[0].size for box in boxes])
    n = lo.size
    evals = [0]

    def objective(params):
        evals[0] += 1
        v = []
        for i, (cset, line) in enumerate(zip(scenario.V, lines)):
            block = params[offsets[i] : offsets[i + 1]].reshape(K, -1)
            # the search box keeps a line's coordinate inside the line
            rows = block * line[0] if line else np.array([cset.project(row) for row in block])
            # the fine grid refines the coarse one: sim_K is a multiple of K
            v.append(ControlProfile(grid=fine, values=np.repeat(rows, sim_K // K, axis=0)))
        y = integrate_upper(scenario, v)
        overlap = _worst_overlap(scenario.R, y.states)[0]
        if overlap > 0.5 * scenario.R:
            return None
        total = cost_upper(y.terminal())
        u_list, x0_list = [], []
        for i in range(N):
            for x0_i in _x0_candidates(scenario, i, 4, rng):
                uvals, _ = _greedy_min_effort(scenario, i, y.states[:, i, :], fine, x0_i)
                if uvals is not None:
                    u_list.append(uvals)
                    x0_list.append(np.asarray(x0_i, float))
                    break
            else:
                return None
        if overlap > 0:
            total += 1e3 * overlap + 1e4 * overlap**2
        return total, v, u_list, x0_list

    # Per-participant aim drives each disk straight at the exit; the
    # common-speed variant averages the segment aims so touching ensembles
    # keep their separation.  The rest plan is always feasible when 0 lies
    # in every control set and anchors the search on frozen scenarios.
    aim = np.zeros(n)
    for i, (cset, line) in enumerate(zip(scenario.V, lines)):
        if line:
            unit, a_lo, a_hi = line
            row = np.clip(-float(np.dot(scenario.y0[i], unit)) / T, a_lo, a_hi)
        else:
            row = cset.project(-scenario.y0[i] / T)
        aim[offsets[i] : offsets[i + 1]] = np.tile(row, K)
    common = aim.copy()
    segments = [i for i, cset in enumerate(scenario.V) if isinstance(cset, SegmentSet)]
    if segments:
        mean_a = float(np.mean([aim[offsets[i]] for i in segments]))
        for i in segments:
            common[offsets[i] : offsets[i + 1]] = np.clip(mean_a, lines[i][1], lines[i][2])
    starts = [frac * common for frac in (0.95, 0.8, 0.6)] + [0.9 * aim, np.zeros(n)]

    # single coordinates; then coordinated per-interval moves across
    # participants (the first coordinate of each), which escape the active
    # non-overlap constraint that single coordinates cannot; then all at once
    dirs = list(np.eye(n))
    widths = np.diff(offsets) // K
    for k in range(K):
        d = np.zeros(n)
        d[offsets[:-1] + k * widths] = 1.0
        dirs.append(d)
    dirs.append(np.ones(n))

    span = hi - lo
    best_val, best_pack = math.inf, None
    for start in starts:
        x = np.clip(start, lo, hi)
        pack = objective(x)
        if pack is None:
            continue
        fx = pack[0]
        step = 0.25
        while step > 1e-3 and evals[0] < max_evals:
            improved = False
            for d in dirs:
                for sgn in (1.0, -1.0):
                    trial = np.clip(x + sgn * step * span * d, lo, hi)
                    if np.allclose(trial, x):
                        continue
                    r = objective(trial)
                    if r is not None and r[0] < fx - 1e-10:
                        x, fx, pack = trial, r[0], r
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                step *= 0.5
        if fx < best_val:
            best_val, best_pack = fx, pack
    if best_pack is None:
        raise InnerInfeasibleError("no feasible starting plan found")

    _fx, v, u_list, x0_list = best_pack
    sol = _solution(scenario, v, [ControlProfile(grid=fine, values=uv) for uv in u_list],
                    np.vstack(x0_list), "direct")
    if not sol.feasibility.ok():
        raise InnerInfeasibleError(
            f"search ended on an infeasible plan (violation {sol.feasibility.max_violation:.3g})"
        )
    return sol


# ---------------------------------------------------------------------------
# parametric two-disk family


def _match_family(scenario: Scenario):
    """Validate the aligned two-disk structure; returns (v_hat, near, far, a)."""
    if scenario.N != 2:
        raise UnsupportedFamilyError("family requires exactly two participants")
    drifts = scenario.drift
    if not all(isinstance(d, ScaledLinearDrift) for d in drifts):
        raise UnsupportedFamilyError("family requires scaled-linear drifts")
    if abs(drifts[0].coeff - drifts[1].coeff) > 1e-12 or drifts[0].coeff >= 0:
        raise UnsupportedFamilyError("family requires equal negative drift coefficients")
    for cset in scenario.U:
        if abs(float(cset.lo[0])) > 1e-12 or abs(float(cset.hi[0]) - 1.0) > 1e-12:
            raise UnsupportedFamilyError("family requires U = [0, 1]")
    for cset in scenario.V:
        if not isinstance(cset, SegmentSet):
            raise UnsupportedFamilyError("family requires segment upper control sets")
    if abs(scenario.V[0].halflength - scenario.V[1].halflength) > 1e-9:
        raise UnsupportedFamilyError("family requires equal upper control sets")
    if abs(scenario.M[0] - scenario.M[1]) > 1e-12:
        raise UnsupportedFamilyError("family requires equal truncation caps")
    if scenario.x0_free or not np.allclose(scenario.x0, scenario.y0, atol=1e-9):
        raise UnsupportedFamilyError("family requires x0 fixed at the disk centers")

    norms = np.linalg.norm(scenario.y0, axis=1)
    near, far = (0, 1) if norms[0] <= norms[1] else (1, 0)
    if norms[near] <= 2 * scenario.R:
        raise UnsupportedFamilyError("near disk must start beyond the contact gap")
    v_hat = scenario.y0[near] / norms[near]
    if float(np.linalg.norm(scenario.y0[far] - scenario.y0[near] - 2 * scenario.R * v_hat)) > 1e-6:
        raise UnsupportedFamilyError("family requires touching disks aligned with the exit ray")
    for cset in scenario.V:
        if abs(abs(float(np.dot(cset.direction, v_hat))) - 1.0) > 1e-9:
            raise UnsupportedFamilyError("family requires upper controls along the exit ray")
    return v_hat, near, far, -drifts[0].coeff


def solve_twodisk_parametric(
    scenario: Scenario,
    grid_K: int = DEFAULT_GRID_K,
) -> Tuple[CaseStudyParams, BilevelSolution]:
    """Closed-form solution of the aligned two-disk family.

    The deceleration onset is the only free parameter: a bisection bracket
    followed by a Newton polish finds the onset minimizing the terminal
    cost, after which the ride speed, the contact time, and the optimal
    controls all follow in closed form.
    """
    v_hat, near, far, a = _match_family(scenario)
    R, T, M = scenario.R, scenario.T, float(scenario.M[near])
    gamma0 = float(np.linalg.norm(scenario.y0[near]))
    C = gamma0 + R + M / a

    def g_of(tb: float) -> float:
        # near-disk terminal position coordinate along the exit ray
        return -R - M / a + C * math.exp(-a * (T - tb)) / (a * tb + 1.0)

    # the terminal cost ((g+2R)^2 + g^2)/2 = (g+R)^2 + R^2 falls to the root
    # of g(t_b) = -R, and g increases in t_b: bisect for it
    lo, hi = 1e-9, T - 1e-9
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if g_of(mid) < -R:
            lo = mid
        else:
            hi = mid
    t_b = 0.5 * (lo + hi)
    # Newton polish on the stationarity equation g(t_b) = -R of the smooth
    # 1-D cost (valid while the minimizer is interior)
    for _ in range(60):
        g = g_of(t_b)
        dg = C * math.exp(-a * (T - t_b)) * a * (a * t_b) / (a * t_b + 1.0) ** 2
        if dg <= 0:
            break
        step = (g + R) / dg
        t_new = min(max(t_b - step, 1e-9), T - 1e-9)
        if abs(t_new - t_b) < 1e-14:
            t_b = t_new
            break
        t_b = t_new

    v_bar = a * C / (a * t_b + 1.0)
    t_a = R / v_bar
    if not (0 < t_a < t_b < T):
        raise UnsupportedFamilyError("family geometry places the arcs outside (0, T)")
    if v_bar > scenario.V[near].halflength + 1e-9:
        raise UnsupportedFamilyError("required ride speed exceeds the upper control set")

    params = CaseStudyParams(
        t_a=t_a,
        t_b=t_b,
        v_bar=v_bar,
        gamma0=gamma0,
        R=R,
        cap=M,
        decay=a,
        T=T,
        direction=v_hat,
        near=near,
        far=far,
    )
    v, u = closed_form_controls(params, uniform_grid(T, grid_K))
    return params, _solution(scenario, v, u, scenario.x0.copy(), "parametric")


def closed_form_controls(
    params: CaseStudyParams,
    grid: np.ndarray,
) -> Tuple[List[ControlProfile], List[ControlProfile]]:
    """Sample the closed-form optimal controls onto a grid.

    Disk velocities are sampled at interval right endpoints: on the
    deceleration arc the sampled disk is then never faster than the
    sweeping capacity, so the catching-up run stays within the cone cap at
    any resolution, and the terminal error stays first order in the step.

    Population controls use the tracking formula ``(speed - M)/(a*dist)``
    with the interval's sampled disk speed and the left-node boundary
    distance, which is the discretely consistent reading of the arcs: the
    projected run then rides the cone cap exactly from contact onward.
    """
    grid = np.asarray(grid, float)
    K = grid.size - 1
    h = np.diff(grid)
    a, M, R = params.decay, params.cap, params.R
    speeds = np.where(grid[1:] <= params.t_b, params.v_bar, a * params.gamma2(grid[1:]) + M)
    v_vals = -speeds[:, None] * params.direction[None, :]

    # exact cumulative descent of the sampled disks (matches the upper
    # integrator's arithmetic)
    descent = np.concatenate([[0.0], np.cumsum(h * speeds)])

    u = [None, None]
    for who, dist0 in ((params.near, params.gamma0), (params.far, params.gamma0 + 2 * R)):
        bound = dist0 + R - descent   # reachable boundary coordinate of the disk
        # contact onset: the first interval whose right node crosses dist0;
        # the controls overshoot on it and track the cap after it
        crossed = bound[1:] < dist0
        onset = int(np.argmax(crossed)) if crossed.any() else K
        ride = np.minimum(1.0, np.maximum(0.0, (speeds - M) / (a * bound[:-1])))
        uv = np.where(np.arange(K) > onset, ride, 0.0)[:, None]
        overshoot = dist0 - bound[onset + 1] - M * h[onset] if onset < K else 0.0
        if overshoot > 0:
            uv[onset] = min(1.0, overshoot / (a * dist0 * h[onset]))
        u[who] = ControlProfile(grid=grid, values=uv)
    v = [ControlProfile(grid=grid, values=v_vals.copy()) for _ in range(2)]
    return v, u
