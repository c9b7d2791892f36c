"""Bilevel solvers for the articulated disk-ensemble control problem.

Three layers: the per-participant inner problem (minimum confinement effort
for a given disk motion), the value-function penalized outer search over
piecewise-constant disk velocities, and a closed-form parametric solver for
the aligned two-disk family that serves as a reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
    _catchup_lanes,
    _require_member,
    _set_scale,
    _translation_path,
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
    "penalized_objective",
    "solve_bilevel_direct",
    "solve_twodisk_parametric",
    "closed_form_controls",
]


class InnerInfeasibleError(RuntimeError):
    """No feasible inner point found for the lower-level problem."""


class UnsupportedFamilyError(ValueError):
    """Scenario does not match the parametric two-disk family."""


@dataclass
class InnerOptions:
    """Knobs for the inner (lower-level) solver."""

    multistart: int = 8          # starts for the local descent / free-x0 draw
    refine_blocks: int = 8       # block resolution of the descent offsets
    refine_rounds: int = 2       # step-halving rounds per start
    refine: bool = True          # descent polish on top of the feasibility seed
    seed: int = 0


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

    @property
    def linear_piece(self) -> Tuple[float, float]:
        """(intercept, slope): gamma2 = intercept - slope * t on [t_a, t_b]."""
        return (self.gamma0 + self.R, self.v_bar)

    @property
    def exp_piece(self) -> Tuple[float, float, float]:
        """(amplitude, rate, offset): gamma2 = amplitude*exp(-rate*(t-t_b)) - offset."""
        return (self.v_bar / self.decay, self.decay, self.cap / self.decay)

    def gamma2(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        flat = np.full_like(t, self.gamma0)
        lin = self.gamma0 + self.R - self.v_bar * t
        amp, rate, off = self.exp_piece
        expo = amp * np.exp(-rate * (t - self.t_b)) - off
        out = np.where(t < self.t_a, flat, np.where(t < self.t_b, lin, expo))
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# inner problem


def _min_abs_in_interval(lo: float, hi: float) -> Optional[float]:
    if lo > hi:
        return None
    if lo <= 0.0 <= hi:
        return 0.0
    return lo if lo > 0 else hi


def _scalar_feasible_interval(p0, w, center, r_eff) -> Optional[Tuple[float, float]]:
    """Solve ||p0 + s*w - center|| <= r_eff for the scalar s (None if empty)."""
    d = p0 - center
    a = float(np.dot(w, w))
    b = 2.0 * float(np.dot(w, d))
    c = float(np.dot(d, d)) - r_eff * r_eff
    if a < 1e-30:
        return (-math.inf, math.inf) if c <= 0 else None
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    root = math.sqrt(disc)
    return ((-b - root) / (2 * a), (-b + root) / (2 * a))


def _greedy_step_control(drift, cset, x, h, center, r_eff):
    """Smallest-norm admissible control keeping the predicted point projectable.

    Returns the control, or None when no admissible control keeps the
    required projection correction within the cap.
    """
    if isinstance(drift, ScaledLinearDrift):
        # predicted point moves along the x-direction: scalar problem in u
        w = h * drift.coeff * np.asarray(x, float)
        itv = _scalar_feasible_interval(np.asarray(x, float), w, center, r_eff)
        if itv is None:
            return None
        lo = max(itv[0], float(cset.lo[0]))
        hi = min(itv[1], float(cset.hi[0]))
        u = _min_abs_in_interval(lo, hi)
        return None if u is None else np.array([u])

    p0 = np.asarray(x, float) + h * drift.value(x, np.zeros(drift.control_dim))
    W = h * drift.control_gradient(x)
    if isinstance(cset, SegmentSet):
        w = W @ cset.direction
        itv = _scalar_feasible_interval(p0, w, center, r_eff)
        if itv is None:
            return None
        a = _min_abs_in_interval(max(itv[0], -cset.halflength), min(itv[1], cset.halflength))
        return None if a is None else a * cset.direction
    if isinstance(cset, IntervalSet) and cset.dim == 1:
        w = W[:, 0]
        itv = _scalar_feasible_interval(p0, w, center, r_eff)
        if itv is None:
            return None
        u = _min_abs_in_interval(max(itv[0], float(cset.lo[0])), min(itv[1], float(cset.hi[0])))
        return None if u is None else np.array([u])
    if (
        isinstance(cset, BallSet)
        and W.shape == (2, 2)
        and abs(W[0, 0] - W[1, 1]) < 1e-15
        and abs(W[0, 1]) < 1e-15
        and abs(W[1, 0]) < 1e-15
        and W[0, 0] > 0
    ):
        # isotropic control channel: the feasible controls form a ball
        s = W[0, 0]
        q = (center - p0) / s
        need = float(np.linalg.norm(q)) - r_eff / s
        if need <= 0:
            return np.zeros(2)
        if need > cset.radius + 1e-12:
            return None
        return (need / float(np.linalg.norm(q))) * q

    # generic 2-dof fallback: deterministic polar sweep, coarse-to-fine
    best = None
    if float(np.linalg.norm(p0 - center)) <= r_eff:
        return np.zeros(cset.dim)
    for phase in range(3):
        scale = _set_scale(cset)
        radii = np.linspace(0, scale, 9 * (phase + 1))[1:]
        angles = np.linspace(0, 2 * math.pi, 24 * (phase + 1), endpoint=False)
        for r in radii:
            for th in angles:
                u = cset.project(np.array([r * math.cos(th), r * math.sin(th)]))
                if float(np.linalg.norm(p0 + W @ u - center)) <= r_eff:
                    if best is None or np.linalg.norm(u) < np.linalg.norm(best):
                        best = u
            if best is not None:
                break
        if best is not None:
            break
    return best


def _greedy_min_effort(scenario, i, ypath, grid, x0_i):
    """Feasibility-first inner control: per step the smallest-norm admissible
    control, letting the (free) cone correction do the rest."""
    drift = scenario.drift[i]
    cset = scenario.U[i]
    cap = float(scenario.M[i])
    R = scenario.R
    K = grid.size - 1
    uvals = np.zeros((K, drift.control_dim))
    x = np.asarray(x0_i, float).copy()
    for k in range(K):
        h = grid[k + 1] - grid[k]
        center = ypath[k + 1]
        u = _greedy_step_control(drift, cset, x, h, center, R + cap * h)
        if u is None:
            return None, k
        uvals[k] = u
        pred = x + h * drift.value(x, u)
        off = pred - center
        dist = float(np.hypot(off[0], off[1]))
        x = center + (R / dist) * off if dist > R else pred
    return uvals, None


def _descend_blocks(scenario, i, ypath, grid, x0_i, u0, opts, rng):
    """Projected block-coordinate descent on additive control offsets.

    Starts are the feasibility seed plus random nonnegative offsets; poll
    moves that break feasibility are rejected, so the search walks down to
    the cheapest feasible profile it can certify locally.
    """
    cset = scenario.U[i]
    K = u0.shape[0]
    m = u0.shape[1]
    blocks = np.array_split(np.arange(K), min(opts.refine_blocks, K))
    scale = _set_scale(cset)
    x0 = np.asarray(x0_i, float).reshape(1, 2)

    def cost_of(offsets, below=math.inf):
        # (effort, controls), or (None, None) when the one-lane catch-up run
        # breaks the cap; a profile that cannot beat ``below`` is not run
        u = u0.copy()
        for b, block in enumerate(blocks):
            u[block] += offsets[b]
        u = np.array([cset.project(row) for row in u])
        cost = float(np.sum(np.diff(grid) * np.sum(u**2, axis=1)))
        if not cost < below or _catchup_lanes(scenario, [i], ypath[:, None], grid, x0, [u])[2]:
            return None, None
        return cost, u

    base_cost, base_u = cost_of(np.zeros((len(blocks), m)))
    best = (base_cost, base_u)
    starts = [np.zeros((len(blocks), m))]
    for _ in range(max(0, opts.multistart - 1)):
        starts.append(0.2 * scale * rng.random((len(blocks), m)))
    for s0 in starts:
        offs = s0.copy()
        cost, u = cost_of(offs)
        if cost is None:
            continue
        step = 0.25 * scale
        for _ in range(opts.refine_rounds * 6):
            improved = False
            for b in range(len(blocks)):
                for j in range(m):
                    for sgn in (-1.0, 1.0):
                        trial = offs.copy()
                        trial[b, j] += sgn * step
                        c2, u2 = cost_of(trial, below=cost - 1e-12)
                        if c2 is not None:
                            offs, cost, u = trial, c2, u2
                            improved = True
            if not improved:
                step *= 0.5
                if step < 1e-3 * scale:
                    break
        if best[0] is None or (cost is not None and cost < best[0] - 1e-12):
            best = (cost, u)
    return best


def _x0_candidates(scenario, i, opts, rng) -> List[np.ndarray]:
    if not scenario.x0_free:
        return [scenario.x0[i]]
    cands = [scenario.y0[i].copy()]
    for _ in range(max(0, opts.multistart - 1)):
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
    """Optimal confinement effort of participant i under the disk motion v_i.

    Minimizes the control effort over piecewise-constant controls on the
    grid (and over the initial point when it is free) subject to the
    catching-up dynamics, by projected block descent from multiple starts on
    top of a per-step minimal-norm feasibility seed.
    """
    opts = inner or InnerOptions()
    rng = np.random.default_rng(opts.seed)
    _require_member(i, v_i, scenario.V[i], "v leaves V")
    grid = v_i.grid
    ypath = _translation_path(scenario.y0[i], grid, v_i.values[:, :2])

    best: Tuple[Optional[float], Optional[np.ndarray], Optional[np.ndarray]] = (None, None, None)
    for x0_i in _x0_candidates(scenario, i, opts, rng):
        u0, _fail = _greedy_min_effort(scenario, i, ypath, grid, x0_i)
        if u0 is None:
            continue
        if opts.refine:
            cost, u = _descend_blocks(scenario, i, ypath, grid, x0_i, u0, opts, rng)
        else:
            h = np.diff(grid)
            cost, u = float(np.sum(h * np.sum(u0**2, axis=1))), u0
        if cost is None:
            continue
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


def penalized_objective(
    scenario: Scenario,
    candidate: Tuple[Sequence[ControlProfile], Sequence[ControlProfile], np.ndarray],
    rho: Optional[np.ndarray] = None,
    inner: Optional[InnerOptions] = None,
) -> float:
    """Flattened objective: terminal cost plus the penalized inner-optimality gap.

    The penalty term sums rho_i * (effort of the candidate's control minus
    the value function at its disk motion) and is nonnegative by definition
    of the value function.
    """
    v, u, x0 = candidate
    rho = scenario.rho if rho is None else np.asarray(rho, float).reshape(scenario.N)
    y = integrate_upper(scenario, list(v))
    x = integrate_lower_catchup(scenario, y, list(u), x0)
    audit = check_feasibility(scenario, y, x, list(u), list(v))
    if not audit.ok():
        raise ValueError(
            f"candidate infeasible: worst violation {audit.max_violation:.3g}"
        )
    total = cost_upper(y.terminal())
    for i in range(scenario.N):
        phi, _argmin = value_function(scenario, i, v[i], inner)
        gap = cost_lower(u[i]) - phi
        total += rho[i] * max(0.0, gap)
    return total


# ---------------------------------------------------------------------------
# direct outer solver


def _coords_per_interval(cset) -> int:
    if isinstance(cset, SegmentSet):
        return 1
    return cset.dim


def _decode_profiles(scenario, grid, params) -> List[ControlProfile]:
    profiles = []
    pos = 0
    K = grid.size - 1
    for i in range(scenario.N):
        cset = scenario.V[i]
        nc = _coords_per_interval(cset)
        block = params[pos : pos + nc * K].reshape(K, nc)
        pos += nc * K
        if isinstance(cset, SegmentSet):
            vals = block[:, 0:1] * cset.direction[None, :]
        else:
            vals = np.array([cset.project(row) for row in block])
        profiles.append(ControlProfile(grid=grid, values=vals))
    return profiles


def _param_bounds(scenario, K) -> Tuple[np.ndarray, np.ndarray]:
    lo, hi = [], []
    for i in range(scenario.N):
        cset = scenario.V[i]
        if isinstance(cset, SegmentSet):
            lo += [-cset.halflength] * K
            hi += [cset.halflength] * K
        elif isinstance(cset, IntervalSet):
            for _ in range(K):
                lo += list(cset.lo)
                hi += list(cset.hi)
        else:
            lo += [-cset.radius] * (2 * K)
            hi += [cset.radius] * (2 * K)
    return np.array(lo), np.array(hi)


def _embed_profile(profile: ControlProfile, fine_grid: np.ndarray) -> ControlProfile:
    # the fine grid refines the coarse one: sim_K is a multiple of its K
    vals = np.repeat(profile.values, (fine_grid.size - 1) // profile.K, axis=0)
    return ControlProfile(grid=fine_grid, values=vals)


def solve_bilevel_direct(
    scenario: Scenario,
    coarse_grid_K: int = 8,
    rho: Optional[np.ndarray] = None,
    seed: int = 0,
    sim_K: int = 600,
    starts: int = 5,
    max_evals: int = 6000,
) -> BilevelSolution:
    """Derivative-free outer search over piecewise-constant disk velocities.

    Each candidate velocity plan is scored by the flattened objective with
    the inner control taken at its own optimum (so the calmness penalty
    vanishes and feasibility is delegated to the inner solver).  Pattern
    search polls single coordinates, per-interval groups, and the full
    vector, from structured plus seeded random starts.  Deterministic for a
    fixed seed.
    """
    if coarse_grid_K < 2:
        raise ValueError("need at least K=2 coarse intervals")
    rho = scenario.rho if rho is None else np.asarray(rho, float).reshape(scenario.N)
    rng = np.random.default_rng(seed)
    sim_K = int(math.ceil(sim_K / coarse_grid_K)) * coarse_grid_K
    coarse = uniform_grid(scenario.T, coarse_grid_K)
    fine = uniform_grid(scenario.T, sim_K)
    lo, hi = _param_bounds(scenario, coarse_grid_K)
    n = lo.size
    evals = [0]

    def objective(params):
        evals[0] += 1
        v_coarse = _decode_profiles(scenario, coarse, params)
        v = [_embed_profile(p, fine) for p in v_coarse]
        y = integrate_upper(scenario, v)
        overlap = 0.0
        for i in range(scenario.N):
            for j in range(i + 1, scenario.N):
                gap = 2 * scenario.R - np.min(
                    np.linalg.norm(y.states[:, i, :] - y.states[:, j, :], axis=1)
                )
                overlap = max(overlap, float(gap))
        if overlap > 0.5 * scenario.R:
            return None
        total = cost_upper(y.terminal())
        u_list, x0_list = [], []
        for i in range(scenario.N):
            found = False
            for x0_i in _x0_candidates(scenario, i, InnerOptions(multistart=4), rng):
                uvals, _ = _greedy_min_effort(scenario, i, y.states[:, i, :], fine, x0_i)
                if uvals is not None:
                    found = True
                    u_list.append(uvals)
                    x0_list.append(np.asarray(x0_i, float))
                    break
            if not found:
                return None
        if overlap > 0:
            total += 1e3 * overlap + 1e4 * overlap**2
        return total, v, u_list, x0_list, overlap

    def seed_points():
        # Per-participant aim drives each disk straight at the exit; the
        # common-speed variant averages the aims so touching ensembles keep
        # their separation.  The rest plan is always feasible when 0 lies in
        # every control set and anchors the search on frozen scenarios.
        aim = np.zeros(n)
        seg_coords = []
        pos = 0
        for i in range(scenario.N):
            cset = scenario.V[i]
            nc = _coords_per_interval(cset)
            if isinstance(cset, SegmentSet):
                a = -float(np.dot(scenario.y0[i], cset.direction)) / scenario.T
                a = float(np.clip(a, -cset.halflength, cset.halflength))
                aim[pos : pos + coarse_grid_K] = a
                seg_coords.append((pos, coarse_grid_K, a, cset.halflength))
            elif isinstance(cset, BallSet):
                w = cset.project(-scenario.y0[i] / scenario.T)
                aim[pos : pos + 2 * coarse_grid_K] = np.tile(w, coarse_grid_K)
            else:
                w = np.clip(-scenario.y0[i][: cset.dim] / scenario.T, cset.lo, cset.hi)
                aim[pos : pos + nc * coarse_grid_K] = np.tile(w, coarse_grid_K)
            pos += nc * coarse_grid_K
        common = aim.copy()
        if seg_coords:
            mean_a = float(np.mean([a for (_p, _k, a, _l) in seg_coords]))
            for (p, k, _a, halflength) in seg_coords:
                common[p : p + k] = np.clip(mean_a, -halflength, halflength)
        pts = []
        for frac in (0.95, 0.8, 0.6):
            pts.append(np.clip(frac * common, lo, hi))
        pts.append(np.clip(0.9 * aim, lo, hi))
        pts.append(np.zeros(n))
        while len(pts) < starts:
            noise = 0.05 * (hi - lo) * (rng.random(n) - 0.5)
            pts.append(np.clip(0.9 * common + noise, lo, hi))
        return pts[: max(starts, 5)]

    span = hi - lo
    group_dirs = []
    pos = 0
    for i in range(scenario.N):
        nc = _coords_per_interval(scenario.V[i])
        for k in range(coarse_grid_K):
            for c in range(nc):
                group_dirs.append((i, pos + k * nc + c, k, c))
        pos += nc * coarse_grid_K

    def poll_directions():
        dirs = [np.eye(n)[j] for j in range(n)]
        # coordinated per-interval moves across participants escape the
        # active non-overlap constraint, which single coordinates cannot
        for k in range(coarse_grid_K):
            d = np.zeros(n)
            for (_i, idx, kk, c) in group_dirs:
                if kk == k and c == 0:
                    d[idx] = 1.0
            dirs.append(d)
        dirs.append(np.ones(n))
        return dirs

    dirs = poll_directions()
    best_val, best_pack, best_params = math.inf, None, None
    feasible_start = False
    for start in seed_points():
        x = np.clip(start, lo, hi)
        res = objective(x)
        if res is None:
            continue
        feasible_start = True
        fx = res[0]
        pack = res
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
            best_val, best_pack, best_params = fx, pack, x

    if not feasible_start or best_pack is None:
        raise InnerInfeasibleError("no feasible starting plan found")

    _fx, v, u_list, x0_list, _overlap = best_pack
    u = [ControlProfile(grid=fine, values=uv) for uv in u_list]
    x0 = np.vstack(x0_list)
    y = integrate_upper(scenario, v)
    x = integrate_lower_catchup(scenario, y, u, x0)
    audit = check_feasibility(scenario, y, x, u, v)
    if not audit.ok():
        raise InnerInfeasibleError(
            f"search ended on an infeasible plan (violation {audit.max_violation:.3g})"
        )
    return BilevelSolution(
        scenario=scenario,
        v=v,
        u=u,
        x0=x0,
        y=y,
        x=x,
        J_H=cost_upper(y.terminal()),
        J_L=np.array([cost_lower(p) for p in u]),
        method="direct",
        feasibility=audit,
    )


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
        if not isinstance(cset, IntervalSet) or cset.dim != 1:
            raise UnsupportedFamilyError("family requires scalar interval lower controls")
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

    The deceleration onset is the only free parameter: a golden-section
    bracket followed by a Newton polish finds the onset minimizing the
    terminal cost, after which the ride speed, the contact time, and the
    optimal controls all follow in closed form.
    """
    v_hat, near, far, a = _match_family(scenario)
    R, T, M = scenario.R, scenario.T, float(scenario.M[near])
    gamma0 = float(np.linalg.norm(scenario.y0[near]))
    C = gamma0 + R + M / a

    def g_of(tb: float) -> float:
        # near-disk terminal position coordinate along the exit ray
        return -R - M / a + C * math.exp(-a * (T - tb)) / (a * tb + 1.0)

    def cost_of(tb: float) -> float:
        g = g_of(tb)
        return 0.5 * ((g + 2 * R) ** 2 + g**2)

    lo, hi = 1e-9, T - 1e-9
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - invphi * (hi - lo)
    c2 = lo + invphi * (hi - lo)
    f1, f2 = cost_of(c1), cost_of(c2)
    while hi - lo > 1e-6:
        if f1 <= f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - invphi * (hi - lo)
            f1 = cost_of(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + invphi * (hi - lo)
            f2 = cost_of(c2)
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
    grid = uniform_grid(T, grid_K)
    v, u = closed_form_controls(params, grid)
    y = integrate_upper(scenario, v)
    x = integrate_lower_catchup(scenario, y, u, scenario.x0)
    audit = check_feasibility(scenario, y, x, u, v)
    solution = BilevelSolution(
        scenario=scenario,
        v=v,
        u=u,
        x0=scenario.x0.copy(),
        y=y,
        x=x,
        J_H=cost_upper(y.terminal()),
        J_L=np.array([cost_lower(p) for p in u]),
        method="parametric",
        feasibility=audit,
    )
    return params, solution


def closed_form_controls(
    params: CaseStudyParams,
    grid: Optional[np.ndarray] = None,
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
    if grid is None:
        grid = uniform_grid(params.T, DEFAULT_GRID_K)
    grid = np.asarray(grid, float)
    K = grid.size - 1
    h = np.diff(grid)
    a, M, R = params.decay, params.cap, params.R
    speeds = np.empty(K)
    for k in range(K):
        t_right = grid[k + 1]
        if t_right <= params.t_b:
            speeds[k] = params.v_bar
        else:
            speeds[k] = a * float(params.gamma2(t_right)) + M
    v_vals = -speeds[:, None] * params.direction[None, :]

    # exact cumulative descent of the sampled disks (matches the upper
    # integrator's arithmetic)
    descent = np.concatenate([[0.0], np.cumsum(h * speeds)])

    u_vals = {}
    for label, dist0 in (("near", params.gamma0), ("far", params.gamma0 + 2 * R)):
        bound = dist0 + R - descent   # reachable boundary coordinate of the disk
        uv = np.zeros((K, 1))
        riding = False
        for k in range(K):
            if not riding:
                if bound[k + 1] < dist0:
                    overshoot = dist0 - bound[k + 1] - M * h[k]
                    if overshoot > 0:
                        uv[k] = min(1.0, overshoot / (a * dist0 * h[k]))
                    riding = True
            else:
                uv[k] = min(1.0, max(0.0, (speeds[k] - M) / (a * bound[k])))
        u_vals[label] = uv
    v = [None, None]
    u = [None, None]
    v[params.near] = ControlProfile(grid=grid, values=v_vals.copy())
    v[params.far] = ControlProfile(grid=grid, values=v_vals.copy())
    u[params.near] = ControlProfile(grid=grid, values=u_vals["near"])
    u[params.far] = ControlProfile(grid=grid, values=u_vals["far"])
    return v, u
