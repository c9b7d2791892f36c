"""Verification of the first-order optimality system on a grid.

Candidate solutions are checked against the stationarity system of the
articulated problem: adjoint inclusions for both costate pairs, boundary
conditions, the two maximum conditions, monotonicity and constancy of the
measure multipliers, and nontriviality.  All inclusions are evaluated as
point-to-set distances; sets that are intervals at kinks of the cone
support value, or hulls of flat control suprema, enter through their convex
hulls.

The conditions assert that suitable multipliers exist, so :func:`fit_multipliers`
searches small structured witness families (measure-backed and
terminal-cost-backed), constructing the costates by backward integration of
the adjoint selections.  A failed fit is reported as not-verified, never as
a disproof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bilevel import BilevelSolution
from .dynamics import (
    BallSet,
    ControlProfile,
    IntervalSet,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    _translation_path,
)
from .geometry import contact_jacobian, sigma_active_gradient, sigma_support

__all__ = [
    "UpperMultipliers",
    "LowerMultipliers",
    "NCOReport",
    "IndeterminateWitnessError",
    "hamiltonian_upper",
    "hamiltonian_lower",
    "adjoint_residual",
    "boundary_residual",
    "max_condition_lower",
    "max_condition_upper",
    "verify",
    "fit_multipliers",
    "fd_value_gradient",
]

# Activation detection for the constancy checks of the measure multipliers;
# grid trajectories touch the constraints only approximately.
ACTIVATION_TOL = 1e-6

# A multiplier tuple is nontrivial when its aggregate weight clears this.
NONTRIVIALITY_TOL = 1e-6

# Width of the kink band of the cone support activation, relative to the
# costate scale; inside the band the convexification parameter is free.
KINK_BAND_FRAC = 1e-4

# Relative slack used when collecting the near-argmax controls whose
# gradients span the Clarke hull of a flat control supremum.
SUP_ACTIVE_FRAC = 1e-3


class IndeterminateWitnessError(RuntimeError):
    """No value-function sensitivity available: witness weight is zero at an
    interior upper control and no finite-difference estimate was supplied."""


# ---------------------------------------------------------------------------
# multiplier containers


def _symmetrize_pairs(arr: np.ndarray) -> np.ndarray:
    """Store pairwise measures so an asymmetric object is unrepresentable."""
    arr = np.asarray(arr, float)
    out = 0.5 * (arr + np.transpose(arr, (0, 2, 1)))
    for i in range(out.shape[1]):
        out[:, i, i] = 0.0
    return out


@dataclass
class UpperMultipliers:
    """Witness paths for the upper-level stationarity system.

    ``q_upper`` and ``q_lower`` are the costates of the translation and
    population states; ``overlap`` and ``confinement`` are the nonnegative
    step-function measures attached to the pair-separation and disk
    constraints; ``objective_weight`` scales the terminal cost and fixes the
    effort weights through the calmness moduli.
    """

    grid: np.ndarray
    q_upper: np.ndarray          # (K+1, N, 2)
    q_lower: np.ndarray          # (K+1, N, 2)
    overlap: np.ndarray          # (K+1, N, N), symmetric, zero diagonal
    confinement: np.ndarray      # (K+1, N)
    objective_weight: float
    rho: np.ndarray              # (N,)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, float).ravel()
        self.q_upper = np.asarray(self.q_upper, float)
        self.q_lower = np.asarray(self.q_lower, float)
        self.overlap = _symmetrize_pairs(self.overlap)
        self.confinement = np.asarray(self.confinement, float)
        self.rho = np.asarray(self.rho, float).ravel()
        if not 0.0 <= self.objective_weight <= 1.0:
            raise ValueError("objective weight must lie in [0, 1]")
        if np.any(self.overlap < -1e-12) or np.any(self.confinement < -1e-12):
            raise ValueError("measure multipliers must be nonnegative")

    @property
    def effort_weights(self) -> np.ndarray:
        return self.objective_weight * self.rho

    def scaled(self, factor: float) -> "UpperMultipliers":
        return UpperMultipliers(
            grid=self.grid,
            q_upper=factor * self.q_upper,
            q_lower=factor * self.q_lower,
            overlap=factor * self.overlap,
            confinement=factor * self.confinement,
            objective_weight=factor * self.objective_weight,
            rho=self.rho,
        )

    def nontriviality(self) -> float:
        q_sup = max(float(np.max(np.abs(self.q_upper))), float(np.max(np.abs(self.q_lower))))
        tv = _total_variation(self.confinement)
        for i in range(self.overlap.shape[1]):
            for j in range(i + 1, self.overlap.shape[2]):
                tv += _total_variation(self.overlap[:, i, j])
        return q_sup + tv + self.objective_weight + float(np.sum(np.abs(self.effort_weights)))


@dataclass
class LowerMultipliers:
    """Per-participant witness paths for the inner stationarity relation."""

    participant: int
    grid: np.ndarray
    p_upper: np.ndarray          # (K+1, 2)
    p_lower: np.ndarray          # (K+1, 2)
    overlap: np.ndarray          # (K+1, N) row of pair measures, j == i stays 0
    confinement: np.ndarray      # (K+1,)
    effort_weight: float         # nonnegative scalar weighting the effort term
    value_gradient: Optional[np.ndarray] = None   # (K, 2) sensitivity path

    def __post_init__(self):
        self.grid = np.asarray(self.grid, float).ravel()
        self.p_upper = np.asarray(self.p_upper, float)
        self.p_lower = np.asarray(self.p_lower, float)
        self.overlap = np.asarray(self.overlap, float)
        self.confinement = np.asarray(self.confinement, float)
        if self.effort_weight < 0:
            raise ValueError("effort weight must be nonnegative")
        if np.any(self.overlap < -1e-12) or np.any(self.confinement < -1e-12):
            raise ValueError("measure multipliers must be nonnegative")

    def scaled(self, factor: float) -> "LowerMultipliers":
        return LowerMultipliers(
            participant=self.participant,
            grid=self.grid,
            p_upper=factor * self.p_upper,
            p_lower=factor * self.p_lower,
            overlap=factor * self.overlap,
            confinement=factor * self.confinement,
            effort_weight=factor * self.effort_weight,
            value_gradient=self.value_gradient,
        )

    def nontriviality(self) -> float:
        p_sup = max(float(np.max(np.abs(self.p_upper))), float(np.max(np.abs(self.p_lower))))
        tv = _total_variation(self.confinement)
        for j in range(self.overlap.shape[1]):
            if j != self.participant:
                tv += _total_variation(self.overlap[:, j])
        return p_sup + tv + self.effort_weight


@dataclass
class NCOReport:
    """Residuals and verdicts, one entry per condition."""

    residuals: Dict[str, float]
    verdicts: Dict[str, bool]
    tol: float
    scale: float
    notes: List[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


def _total_variation(path: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(np.asarray(path, float), axis=0))))


# ---------------------------------------------------------------------------
# solution-derived data shared by all checks


class _SolutionData:
    def __init__(self, solution: BilevelSolution):
        scn = solution.scenario
        self.scn = scn
        self.grid = solution.x.grid
        self.h = np.diff(self.grid)
        self.K = self.grid.size - 1
        self.y = solution.y.states            # (K+1, N, 2)
        self.x = solution.x.states
        self.z = self.x - self.y
        self.u = [p.values for p in solution.u]
        self.v = [p.values for p in solution.v]
        R = scn.R
        self.contact = np.linalg.norm(self.z, axis=2) >= R - ACTIVATION_TOL
        self.normals = np.zeros_like(self.z)
        nz = np.linalg.norm(self.z, axis=2)
        mask = nz > 1e-12
        self.normals[mask] = self.z[mask] / nz[mask][:, None]
        # realized sweeping correction per interval (signed along the outward
        # normal at the landing node), from the claimed controls and states
        self.cone = np.zeros((self.K, scn.N))
        for i in range(scn.N):
            drift = scn.drift[i]
            for k in range(self.K):
                f = drift.value(self.x[k, i], self.u[i][k])
                xdot = (self.x[k + 1, i] - self.x[k, i]) / self.h[k]
                self.cone[k, i] = max(0.0, float(np.dot(f - xdot, self.normals[k + 1, i])))
        self.pair_gap = np.zeros((self.K + 1, scn.N, scn.N))
        for i in range(scn.N):
            for j in range(scn.N):
                if i != j:
                    self.pair_gap[:, i, j] = (
                        np.linalg.norm(self.y[:, i, :] - self.y[:, j, :], axis=1) - 2 * R
                    )

    def unit_sep(self, k: int, i: int, j: int) -> np.ndarray:
        d = self.y[k, i] - self.y[k, j]
        return d / float(np.linalg.norm(d))

    def pair_term(self, k: int, i: int, overlap_row: np.ndarray) -> np.ndarray:
        out = np.zeros(2)
        for j in range(self.scn.N):
            if j != i and overlap_row[j] != 0.0:
                out += overlap_row[j] * self.unit_sep(k, i, j)
        return out


def _kink_band(q: np.ndarray, nu: float, R: float) -> float:
    return KINK_BAND_FRAC * (float(np.linalg.norm(q)) + abs(nu) * R) + 1e-12


def _sigma_branch(m: float, band: float) -> str:
    if m < -band:
        return "active"
    if m <= band:
        return "kink"
    return "inactive"


# ---------------------------------------------------------------------------
# small exact optimizers


def _sup_effort_quadratic(g: np.ndarray, alpha: float, cset) -> Tuple[float, np.ndarray, bool]:
    """Maximize <g, u> - alpha*||u||^2 over the control set.

    Exact for interval, segment, and ball sets; the boolean flags a dense
    fallback (resolution 1e-3 of the set scale) for anything else.
    """
    g = np.asarray(g, float).ravel()
    if isinstance(cset, IntervalSet):
        u = np.empty(cset.dim)
        for j in range(cset.dim):
            if alpha > 0:
                u[j] = min(max(g[j] / (2 * alpha), cset.lo[j]), cset.hi[j])
            else:
                u[j] = cset.hi[j] if g[j] >= 0 else cset.lo[j]
        return float(np.dot(g, u) - alpha * np.dot(u, u)), u, True
    if isinstance(cset, SegmentSet):
        gc = float(np.dot(g, cset.direction))
        L = cset.halflength
        if alpha > 0:
            a = min(max(gc / (2 * alpha), -L), L)
        else:
            a = math.copysign(L, gc) if gc != 0 else 0.0
        u = a * cset.direction
        return gc * a - alpha * a * a, u, True
    if isinstance(cset, BallSet):
        gn = float(np.linalg.norm(g))
        r = cset.radius
        if alpha > 0:
            s = min(max(gn / (2 * alpha), 0.0), r)
        else:
            s = r if gn > 0 else 0.0
        u = (s / gn) * g if gn > 0 else np.zeros(cset.dim)
        return gn * s - alpha * s * s, u, True
    # dense fallback, documented resolution 1e-3 of the unit scale
    best, ubest = -math.inf, None
    for ax in np.linspace(-1.0, 1.0, 2001):
        u = cset.project(np.array([ax, 0.0]))
        val = float(np.dot(g, u)) - alpha * float(np.dot(u, u))
        if val > best:
            best, ubest = val, u
    return best, ubest, False


def _scalar_sup_active_interval(
    gc: float, alpha: float, lo: float, hi: float
) -> Tuple[float, float, float]:
    """Superlevel interval of a concave scalar map near its supremum.

    Returns ``(sup, lo*, hi*)`` where ``[lo*, hi*]`` collects the controls
    within the relative slack of the supremum of ``gc*a - alpha*a^2`` on
    ``[lo, hi]``; the hull of their dynamics gradients is the Clarke set of
    the flat supremum.
    """
    if alpha > 0:
        a_star = min(max(gc / (2 * alpha), lo), hi)
    else:
        a_star = hi if gc >= 0 else lo
    sup = gc * a_star - alpha * a_star * a_star
    eps = SUP_ACTIVE_FRAC * (1.0 + abs(sup)) + 1e-12
    if alpha > 0:
        half = math.sqrt(eps / alpha)
        lo_s = max(lo, gc / (2 * alpha) - half)
        hi_s = min(hi, gc / (2 * alpha) + half)
        lo_s = min(lo_s, a_star)
        hi_s = max(hi_s, a_star)
    elif abs(gc) * (hi - lo) <= eps:
        lo_s, hi_s = lo, hi
    elif gc > 0:
        lo_s, hi_s = hi - eps / gc, hi
    else:
        lo_s, hi_s = lo, lo + eps / abs(gc)
    return sup, lo_s, hi_s


def _dist_to_hull(
    point: np.ndarray,
    base: np.ndarray,
    cols: List[np.ndarray],
    los: List[float],
    his: List[float],
    ball_radius: float = 0.0,
) -> float:
    """Distance to {base + sum_j a_j cols_j : a_j in [lo_j, hi_j]} + r*B.

    Exact for up to two columns (interior stationary point, then edges);
    the Minkowski ball term subtracts from the hull distance.
    """
    r = np.asarray(point, float) - np.asarray(base, float)
    cols = [np.asarray(c, float) for c in cols]
    if not cols:
        return max(0.0, float(np.linalg.norm(r)) - ball_radius)
    if len(cols) == 1:
        c = cols[0]
        cc = float(np.dot(c, c))
        a = float(np.dot(r, c)) / cc if cc > 0 else 0.0
        a = min(max(a, los[0]), his[0])
        return max(0.0, float(np.linalg.norm(r - a * c)) - ball_radius)
    best = math.inf
    A = np.column_stack(cols[:2])
    G = A.T @ A
    rhs = A.T @ r
    try:
        sol = np.linalg.solve(G + 1e-15 * np.eye(2), rhs)
        if los[0] - 1e-12 <= sol[0] <= his[0] + 1e-12 and los[1] - 1e-12 <= sol[1] <= his[1] + 1e-12:
            a = np.clip(sol, los[:2], his[:2])
            best = float(np.linalg.norm(r - A @ a))
    except np.linalg.LinAlgError:
        pass
    for j, fixed in ((0, los[0]), (0, his[0]), (1, los[1]), (1, his[1])):
        o = 1 - j
        rr = r - fixed * cols[j]
        cc = float(np.dot(cols[o], cols[o]))
        a = float(np.dot(rr, cols[o])) / cc if cc > 0 else 0.0
        a = min(max(a, los[o]), his[o])
        best = min(best, float(np.linalg.norm(rr - a * cols[o])))
    return max(0.0, best - ball_radius)


def _dist_to_control_normal_cone(point: np.ndarray, cset, v: np.ndarray,
                                 negate: bool = True) -> float:
    """Distance from a point to (minus) the normal cone of the control set at v.

    Interval sets give per-coordinate rays, a segment contributes its whole
    orthogonal complement plus an outward halfplane at the endpoints, a ball
    the outward radial ray on its boundary.
    """
    w = np.asarray(point, float).copy()
    sgn = -1.0 if negate else 1.0
    v = np.asarray(v, float).ravel()
    tol = 1e-9
    if isinstance(cset, IntervalSet):
        res = 0.0
        for j in range(cset.dim):
            span = max(1.0, abs(cset.hi[j]) + abs(cset.lo[j]))
            at_hi = v[j] >= cset.hi[j] - tol * span
            at_lo = v[j] <= cset.lo[j] + tol * span
            pos_ok = (at_hi and sgn > 0) or (at_lo and sgn < 0)
            neg_ok = (at_lo and sgn > 0) or (at_hi and sgn < 0)
            if w[j] > 0 and not pos_ok:
                res += w[j] ** 2
            elif w[j] < 0 and not neg_ok:
                res += w[j] ** 2
        return math.sqrt(res)
    if isinstance(cset, SegmentSet):
        L = cset.halflength
        if L == 0.0:
            return 0.0          # normal cone of a singleton is the whole plane
        a = cset.coordinate(v)
        along = float(np.dot(w, cset.direction))
        span = max(1.0, L)
        if a >= L - tol * span:
            return max(0.0, -sgn * along)
        if a <= -L + tol * span:
            return max(0.0, sgn * along)
        return abs(along)
    if isinstance(cset, BallSet):
        if cset.radius == 0.0:
            return 0.0
        rn = float(np.linalg.norm(v))
        if rn >= cset.radius - tol * max(1.0, cset.radius):
            ray = sgn * v / rn
            t = max(0.0, float(np.dot(w, ray)))
            return float(np.linalg.norm(w - t * ray))
        return float(np.linalg.norm(w))
    return float(np.linalg.norm(w))


# ---------------------------------------------------------------------------
# Hamiltonians


def hamiltonian_upper(
    scenario: Scenario,
    y: np.ndarray,
    x: np.ndarray,
    v: Sequence[np.ndarray],
    u: Sequence[np.ndarray],
    q_upper: np.ndarray,
    q_lower: np.ndarray,
    overlap: np.ndarray,
    confinement: np.ndarray,
    effort_weights: np.ndarray,
) -> float:
    """Pointwise upper-level Hamiltonian, summed over participants."""
    y = np.asarray(y, float).reshape(scenario.N, 2)
    x = np.asarray(x, float).reshape(scenario.N, 2)
    q_upper = np.asarray(q_upper, float).reshape(scenario.N, 2)
    q_lower = np.asarray(q_lower, float).reshape(scenario.N, 2)
    overlap = _symmetrize_pairs(np.asarray(overlap, float)[None])[0]
    confinement = np.asarray(confinement, float).reshape(scenario.N)
    effort_weights = np.asarray(effort_weights, float).reshape(scenario.N)
    total = 0.0
    for i in range(scenario.N):
        z = x[i] - y[i]
        f = scenario.drift[i].value(x[i], u[i])
        w = q_lower[i] - confinement[i] * z
        total += float(np.dot(w, f))
        total += confinement[i] * float(np.dot(z, v[i]))
        total += sigma_support(z, q_lower[i], confinement[i], scenario.R, scenario.M[i])
        total -= effort_weights[i] * float(np.sum(np.asarray(u[i], float) ** 2))
        pair = q_upper[i].copy()
        for j in range(scenario.N):
            if j != i and overlap[i, j] != 0.0:
                d = y[i] - y[j]
                nd = float(np.linalg.norm(d))
                if nd < 1e-12:
                    from .geometry import SingularConfigurationError

                    raise SingularConfigurationError(
                        f"coincident centers in active pair ({i+1},{j+1})"
                    )
                pair += overlap[i, j] * d / nd
        total += float(np.dot(pair, v[i]))
    return total


def hamiltonian_lower(
    scenario: Scenario,
    i: int,
    y: np.ndarray,
    x: np.ndarray,
    v: np.ndarray,
    p_upper: np.ndarray,
    p_lower: np.ndarray,
    overlap_row: np.ndarray,
    confinement: float,
    effort_weight: float,
    y_others: Optional[np.ndarray] = None,
) -> float:
    """Pointwise inner Hamiltonian of one participant.

    The supremum over the control set is closed form for the supported
    drift/set pairs (concave scalar or radial quadratics); the cone
    supremum is the same segment form as the support value.
    """
    x = np.asarray(x, float).reshape(2)
    y = np.asarray(y, float).reshape(2)
    z = x - y
    w = np.asarray(p_lower, float) - confinement * z
    total = confinement * float(np.dot(z, v))
    total += sigma_support(z, np.asarray(p_lower, float), confinement, scenario.R, scenario.M[i])
    g = scenario.drift[i].control_gradient(x).T @ w
    base = float(np.dot(w, scenario.drift[i].value(x, np.zeros(scenario.drift[i].control_dim))))
    sup_val, _u, _exact = _sup_effort_quadratic(g, effort_weight, scenario.U[i])
    total += base + sup_val
    pair = np.asarray(p_upper, float).copy()
    if y_others is not None:
        y_others = np.asarray(y_others, float).reshape(-1, 2)
        for j in range(y_others.shape[0]):
            if j != i and overlap_row[j] != 0.0:
                d = y - y_others[j]
                pair += overlap_row[j] * d / float(np.linalg.norm(d))
    total += float(np.dot(pair, v))
    return total


# ---------------------------------------------------------------------------
# control-supremum structure shared by adjoint and primal checks


def _u_hull_structure(data: _SolutionData, i: int, k: int, w: np.ndarray,
                      effort_weight: float):
    """Near-argmax structure of the inner control supremum.

    Returns one of
      ("interval", lo, hi)  scalar control coordinate range of near-maximizers
      ("point", u)          unique maximizer
      ("ball", radius)      flat supremum over a ball set
    """
    scn = data.scn
    drift = scn.drift[i]
    cset = scn.U[i]
    x = data.x[k, i]
    g = drift.control_gradient(x).T @ w
    if isinstance(cset, IntervalSet) and cset.dim == 1:
        _sup, lo_s, hi_s = _scalar_sup_active_interval(
            float(g[0]), effort_weight, float(cset.lo[0]), float(cset.hi[0])
        )
        if hi_s - lo_s < 1e-14:
            return "point", np.array([lo_s])
        return "interval", lo_s, hi_s
    if isinstance(cset, SegmentSet):
        gc = float(np.dot(g, cset.direction))
        _sup, lo_s, hi_s = _scalar_sup_active_interval(
            gc, effort_weight, -cset.halflength, cset.halflength
        )
        if hi_s - lo_s < 1e-14:
            return "point", lo_s * cset.direction
        return "interval", lo_s, hi_s
    if isinstance(cset, BallSet):
        gn = float(np.linalg.norm(g))
        eps = SUP_ACTIVE_FRAC * (1.0 + gn * cset.radius) + 1e-12
        if effort_weight <= 0 and gn * cset.radius <= eps:
            return "ball", cset.radius
        _val, u, _exact = _sup_effort_quadratic(g, effort_weight, cset)
        return "point", u
    _val, u, _exact = _sup_effort_quadratic(g, effort_weight, cset)
    return "point", u


def _u_direction_column(data: _SolutionData, i: int, k: int) -> np.ndarray:
    """Control direction of the drift as seen by the scalar hull coordinate."""
    drift = data.scn.drift[i]
    x = data.x[k, i]
    cset = data.scn.U[i]
    if isinstance(cset, SegmentSet):
        return drift.control_gradient(x) @ cset.direction
    return drift.control_gradient(x)[:, 0]


# ---------------------------------------------------------------------------
# adjoint machinery


def _upper_adjoint_interval_residual(
    data: _SolutionData,
    i: int,
    k: int,
    q_lo_next: np.ndarray,
    q_lo_cur: np.ndarray,
    q_hi_next: np.ndarray,
    q_hi_cur: np.ndarray,
    nu: float,
    overlap_row: np.ndarray,
) -> Tuple[float, float]:
    """Joint residual of the two upper adjoint inclusions on one interval.

    The claimed control enters the right-hand side directly; at a kink of
    the cone support both inclusions share the convexification parameter,
    so the parameter is fit jointly before the norms are split.
    """
    scn = data.scn
    h = data.h[k]
    x_left = data.x[k, i]
    zk = data.z[k + 1, i]
    nk = data.normals[k + 1, i]
    drift = scn.drift[i]
    uk = data.u[i][k]
    f = drift.value(x_left, uk)
    J = drift.jac_x(x_left, uk)
    vk = data.v[i][k]
    w = q_lo_next - nu * zk

    base_lo = J.T @ w - nu * f + nu * vk
    base_hi = nu * f - nu * vk
    for j in range(scn.N):
        if j != i and overlap_row[j] != 0.0:
            d = contact_jacobian(data.y[k + 1, i], data.y[k + 1, j])
            base_hi = base_hi + overlap_row[j] * (d @ vk)

    r_lo = -(q_lo_next - q_lo_cur) / h - base_lo
    r_hi = -(q_hi_next - q_hi_cur) / h - base_hi

    if not data.contact[k + 1, i]:
        return float(np.linalg.norm(r_lo)), float(np.linalg.norm(r_hi))
    m = float(np.dot(w, nk))
    g = sigma_active_gradient(zk, q_lo_next, nu, scn.R, scn.M[i])
    branch = _sigma_branch(m, _kink_band(q_lo_next, nu, scn.R))
    if branch == "inactive":
        return float(np.linalg.norm(r_lo)), float(np.linalg.norm(r_hi))
    if branch == "active":
        return float(np.linalg.norm(r_lo - g)), float(np.linalg.norm(r_hi + g))
    gg = float(np.dot(g, g))
    theta = 0.0
    if gg > 1e-30:
        theta = (float(np.dot(r_lo, g)) - float(np.dot(r_hi, g))) / (2 * gg)
        theta = min(max(theta, 0.0), 1.0)
    return (
        float(np.linalg.norm(r_lo - theta * g)),
        float(np.linalg.norm(r_hi + theta * g)),
    )


def adjoint_residual(solution: BilevelSolution, upper: UpperMultipliers) -> Tuple[float, float]:
    """Max-over-time distances of the finite-difference costate rates to the
    right-hand-side selection sets of the two adjoint inclusions."""
    data = _SolutionData(solution)
    _check_multiplier_grid(upper.grid, data.grid)
    r_lo_max = 0.0
    r_hi_max = 0.0
    for i in range(data.scn.N):
        for k in range(data.K):
            r_lo, r_hi = _upper_adjoint_interval_residual(
                data,
                i,
                k,
                upper.q_lower[k + 1, i],
                upper.q_lower[k, i],
                upper.q_upper[k + 1, i],
                upper.q_upper[k, i],
                float(upper.confinement[k, i]),
                upper.overlap[k, i],
            )
            r_lo_max = max(r_lo_max, r_lo)
            r_hi_max = max(r_hi_max, r_hi)
    return r_lo_max, r_hi_max


def _check_multiplier_grid(a: np.ndarray, b: np.ndarray) -> None:
    if a.size != b.size or not np.allclose(a, b, rtol=0.0, atol=1e-12):
        raise ValueError("multiplier grid does not match the trajectory grid")


def boundary_residual(solution: BilevelSolution, upper: UpperMultipliers) -> float:
    """Worst defect of the transversality relations at both ends."""
    data = _SolutionData(solution)
    _check_multiplier_grid(upper.grid, data.grid)
    scn = data.scn
    lam = upper.objective_weight
    worst = 0.0
    for i in range(scn.N):
        zT = data.z[-1, i]
        nuT = float(upper.confinement[-1, i])
        target_hi = -lam * data.y[-1, i] - nuT * zT - data.pair_term(data.K, i, upper.overlap[-1, i])
        worst = max(worst, float(np.linalg.norm(upper.q_upper[-1, i] - target_hi)))
        worst = max(worst, float(np.linalg.norm(upper.q_lower[-1, i] - nuT * zT)))
        w0 = upper.q_lower[0, i] - float(upper.confinement[0, i]) * data.z[0, i]
        if data.contact[0, i]:
            # the measure may carry an initial atom at a contact start, which
            # together with the outward ray spans the whole normal line
            n0 = data.normals[0, i]
            worst = max(worst, float(np.linalg.norm(w0 - np.dot(w0, n0) * n0)))
        else:
            worst = max(worst, float(np.linalg.norm(w0)))
    return worst


def max_condition_lower(solution: BilevelSolution, upper: UpperMultipliers) -> np.ndarray:
    """Optimality gap path of the inner-control maximum condition.

    At each interval the displayed concave map is maximized exactly over the
    product control set; the gap is the supremum minus its value at the
    claimed control, hence nonnegative by construction.
    """
    data = _SolutionData(solution)
    _check_multiplier_grid(upper.grid, data.grid)
    scn = data.scn
    alpha = upper.effort_weights
    gaps = np.zeros(data.K)
    for k in range(data.K):
        total = 0.0
        for i in range(scn.N):
            x = data.x[k + 1, i]
            z = data.z[k + 1, i]
            nu = float(upper.confinement[k, i])
            w = upper.q_lower[k + 1, i] - nu * z
            g = scn.drift[i].control_gradient(x).T @ w
            sup_val, _ustar, _exact = _sup_effort_quadratic(g, float(alpha[i]), scn.U[i])
            uk = np.asarray(data.u[i][k], float).ravel()
            val = float(np.dot(g, uk)) - float(alpha[i]) * float(np.dot(uk, uk))
            total += max(0.0, sup_val - val)
        gaps[k] = total
    return gaps


def max_condition_upper(
    solution: BilevelSolution,
    upper: UpperMultipliers,
    lowers: Optional[Sequence[Optional[LowerMultipliers]]] = None,
    phi_gradients: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Inclusion residual path of the disk-velocity maximum condition.

    The left-hand vector is checked against the product of the scaled
    value-function sensitivities minus the control-set normal cones,
    participant by participant.  Sensitivities come from the inner witness
    formula when its effort weight is positive, else from a supplied
    finite-difference estimate; with zero effort weights the sensitivity
    term drops out entirely.
    """
    data = _SolutionData(solution)
    _check_multiplier_grid(upper.grid, data.grid)
    scn = data.scn
    alpha = upper.effort_weights
    res = np.zeros(data.K)
    for k in range(data.K):
        worst = 0.0
        for i in range(scn.N):
            lhs = (
                upper.q_upper[k + 1, i]
                + float(upper.confinement[k, i]) * data.z[k + 1, i]
                + data.pair_term(k + 1, i, upper.overlap[k, i])
            )
            if alpha[i] != 0.0:
                zeta = None
                if phi_gradients is not None and phi_gradients[i] is not None:
                    zeta = np.asarray(phi_gradients[i], float)[k]
                elif lowers is not None and lowers[i] is not None:
                    low = lowers[i]
                    if low.value_gradient is not None:
                        zeta = np.asarray(low.value_gradient, float)[k]
                    elif low.effort_weight > 0:
                        zeta = -(
                            low.p_upper[k + 1]
                            + float(low.confinement[k]) * data.z[k + 1, i]
                            + data.pair_term(k + 1, i, low.overlap[k])
                        ) / low.effort_weight
                if zeta is None:
                    raise IndeterminateWitnessError(
                        f"participant {i+1}: no value-function sensitivity available"
                    )
                lhs = lhs - alpha[i] * zeta
            worst = max(
                worst,
                _dist_to_control_normal_cone(lhs, scn.V[i], data.v[i][k], negate=True),
            )
        res[k] = worst
    return res


# ---------------------------------------------------------------------------
# inner-relation checks (per participant)


def _p_system_interval_residual(
    data: _SolutionData, low: LowerMultipliers, k: int
) -> Tuple[float, float]:
    """Joint residual of the two inner adjoint inclusions on one interval.

    Both right-hand sides are Danskin derivatives of the control supremum,
    so a flat supremum turns its gradient into a hull over the near-argmax
    control range; the hull coordinate and the cone-kink parameter are fit
    jointly across the stacked system before splitting the norms.
    """
    scn = data.scn
    i = low.participant
    h = data.h[k]
    x_left = data.x[k, i]
    zk = data.z[k + 1, i]
    nk = data.normals[k + 1, i]
    drift = scn.drift[i]
    vk = data.v[i][k]
    nu = float(low.confinement[k])
    p_lo_next, p_lo_cur = low.p_lower[k + 1], low.p_lower[k]
    p_hi_next, p_hi_cur = low.p_upper[k + 1], low.p_upper[k]
    w = p_lo_next - nu * zk

    struct = _u_hull_structure(data, i, k, w, low.effort_weight)
    base_lo = nu * vk
    base_hi = -nu * vk
    for j in range(scn.N):
        if j != i and low.overlap[k, j] != 0.0:
            d = contact_jacobian(data.y[k + 1, i], data.y[k + 1, j])
            base_hi = base_hi + low.overlap[k, j] * (d @ vk)

    cols_lo: List[np.ndarray] = []
    cols_hi: List[np.ndarray] = []
    los: List[float] = []
    his: List[float] = []
    ball_r = 0.0
    if struct[0] == "point":
        u_hat = struct[1]
        f = drift.value(x_left, u_hat)
        base_lo = base_lo + drift.jac_x(x_left, u_hat).T @ w - nu * f
        base_hi = base_hi + nu * f
    elif struct[0] == "interval":
        lo_s, hi_s = struct[1], struct[2]
        f0 = drift.value(x_left, np.zeros(drift.control_dim))
        base_lo = base_lo + drift.jac_x(x_left, np.zeros(drift.control_dim)).T @ w - nu * f0
        base_hi = base_hi + nu * f0
        col = _u_direction_column(data, i, k)
        if isinstance(drift, ScaledLinearDrift):
            # J_f^T w is itself control-scaled for the bilinear family
            cols_lo.append(drift.coeff * w - nu * col)
        else:
            cols_lo.append(-nu * col)
        cols_hi.append(nu * col)
        los.append(lo_s)
        his.append(hi_s)
    else:  # flat over a ball
        f0 = drift.value(x_left, np.zeros(drift.control_dim))
        base_lo = base_lo + drift.jac_x(x_left, np.zeros(drift.control_dim)).T @ w - nu * f0
        base_hi = base_hi + nu * f0
        B = drift.control_gradient(x_left)
        if abs(B[0, 0] - B[1, 1]) < 1e-12 and abs(B[0, 1]) < 1e-12 and abs(B[1, 0]) < 1e-12:
            ball_r = abs(nu) * abs(B[0, 0]) * struct[1]
        else:
            ball_r = abs(nu) * float(np.linalg.norm(B, 2)) * struct[1]

    r_lo = -(p_lo_next - p_lo_cur) / h - base_lo
    r_hi = -(p_hi_next - p_hi_cur) / h - base_hi

    g = np.zeros(2)
    use_kink = False
    if data.contact[k + 1, i]:
        m = float(np.dot(w, nk))
        branch = _sigma_branch(m, _kink_band(p_lo_next, nu, scn.R))
        g = sigma_active_gradient(zk, p_lo_next, nu, scn.R, scn.M[i])
        if branch == "active":
            r_lo = r_lo - g
            r_hi = r_hi + g
            g = np.zeros(2)
        elif branch == "kink":
            use_kink = True

    point = np.concatenate([r_lo, r_hi])
    cols: List[np.ndarray] = []
    clos: List[float] = []
    chis: List[float] = []
    if cols_lo:
        cols.append(np.concatenate([cols_lo[0], cols_hi[0]]))
        clos.append(los[0])
        chis.append(his[0])
    if use_kink:
        cols.append(np.concatenate([g, -g]))
        clos.append(0.0)
        chis.append(1.0)
    dist = _dist_to_hull(point, np.zeros(4), cols, clos, chis, ball_radius=ball_r * math.sqrt(2))
    # split norms at the jointly fitted parameters for reporting
    return dist, dist


def _primal_velocity_residual(data: _SolutionData, low: LowerMultipliers, k: int) -> float:
    """Distance of the realized population velocity to the velocity hull."""
    scn = data.scn
    i = low.participant
    drift = scn.drift[i]
    x_left = data.x[k, i]
    nu = float(low.confinement[k])
    w = low.p_lower[k + 1] - nu * data.z[k + 1, i]
    xdot = (data.x[k + 1, i] - data.x[k, i]) / data.h[k]
    struct = _u_hull_structure(data, i, k, w, low.effort_weight)
    cols: List[np.ndarray] = []
    los: List[float] = []
    his: List[float] = []
    ball_r = 0.0
    if struct[0] == "point":
        base = drift.value(x_left, struct[1])
    elif struct[0] == "interval":
        base = drift.value(x_left, np.zeros(drift.control_dim))
        cols.append(_u_direction_column(data, i, k))
        los.append(struct[1])
        his.append(struct[2])
    else:
        base = drift.value(x_left, np.zeros(drift.control_dim))
        B = drift.control_gradient(x_left)
        if abs(B[0, 0] - B[1, 1]) < 1e-12 and abs(B[0, 1]) < 1e-12 and abs(B[1, 0]) < 1e-12:
            ball_r = abs(B[0, 0]) * struct[1]
        else:
            ball_r = float(np.linalg.norm(B, 2)) * struct[1]
    if data.contact[k + 1, i]:
        cols.append(-data.normals[k + 1, i])
        los.append(0.0)
        his.append(float(scn.M[i]))
    return _dist_to_hull(xdot, base, cols[:2], los[:2], his[:2], ball_radius=ball_r)


def _lower_condition_residuals(
    data: _SolutionData,
    low: LowerMultipliers,
) -> Dict[str, float]:
    """Residuals of the per-participant stationarity relation."""
    i = low.participant
    K = data.K
    res_adj = 0.0
    res_primal = 0.0
    for k in range(K):
        r_joint, _ = _p_system_interval_residual(data, low, k)
        res_adj = max(res_adj, r_joint)
        res_primal = max(res_primal, _primal_velocity_residual(data, low, k))
        ydot = (data.y[k + 1, i] - data.y[k, i]) / data.h[k]
        res_primal = max(res_primal, float(np.linalg.norm(ydot - data.v[i][k])))

    zT = data.z[-1, i]
    muT = float(low.confinement[-1])
    res_bnd = float(np.linalg.norm(low.p_lower[-1] - muT * zT))
    target = -muT * zT - data.pair_term(K, i, low.overlap[-1])
    res_bnd = max(res_bnd, float(np.linalg.norm(low.p_upper[-1] - target)))
    w0 = low.p_lower[0] - float(low.confinement[0]) * data.z[0, i]
    if data.contact[0, i]:
        # initial measure atoms widen the outward ray to the normal line
        n0 = data.normals[0, i]
        res_bnd = max(res_bnd, float(np.linalg.norm(w0 - np.dot(w0, n0) * n0)))
    else:
        res_bnd = max(res_bnd, float(np.linalg.norm(w0)))

    return {
        "adjoint": res_adj,
        "primal_inclusion": res_primal,
        "boundary": res_bnd,
    }


# ---------------------------------------------------------------------------
# monotonicity / constancy of the measures


def _measure_shape_residual(path: np.ndarray, inactive_steps: np.ndarray) -> float:
    """Max of monotonicity violations and movement on inactive steps."""
    diffs = np.diff(np.asarray(path, float))
    worst = float(np.max(diffs, initial=0.0))          # any increase
    if inactive_steps.any():
        worst = max(worst, float(np.max(np.abs(diffs[inactive_steps]), initial=0.0)))
    return max(0.0, worst)


def _upper_measure_residual(data: _SolutionData, upper: UpperMultipliers) -> float:
    worst = 0.0
    scn = data.scn
    for i in range(scn.N):
        for j in range(i + 1, scn.N):
            inactive = data.pair_gap[:, i, j] > ACTIVATION_TOL
            steps = inactive[:-1] & inactive[1:]
            worst = max(worst, _measure_shape_residual(upper.overlap[:, i, j], steps))
        interior = np.linalg.norm(data.z[:, i, :], axis=1) < scn.R - ACTIVATION_TOL
        steps = interior[:-1] & interior[1:]
        worst = max(worst, _measure_shape_residual(upper.confinement[:, i], steps))
    return worst


# ---------------------------------------------------------------------------
# aggregate verification


def verify(
    solution: BilevelSolution,
    upper: UpperMultipliers,
    lowers: Optional[Sequence[Optional[LowerMultipliers]]] = None,
    tol: float = 1e-3,
    phi_gradients: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> NCOReport:
    """Aggregate all condition residuals into per-condition verdicts.

    The tolerance is scale-aware: each condition passes when its residual
    stays below ``tol * (1 + sup-norm of the relevant costates)``.
    Nontriviality is the one condition checked from below.
    """
    data = _SolutionData(solution)
    scn = data.scn
    scale = 1.0 + max(
        float(np.max(np.abs(upper.q_upper))), float(np.max(np.abs(upper.q_lower)))
    )
    residuals: Dict[str, float] = {}
    verdicts: Dict[str, bool] = {}
    notes: List[str] = [
        "inner optimal-solution sets are approximated by the stored minimizers"
    ]

    nontriv = upper.nontriviality()
    residuals["nontriviality"] = nontriv
    verdicts["nontriviality"] = nontriv >= NONTRIVIALITY_TOL

    r_lo, r_hi = adjoint_residual(solution, upper)
    residuals["adjoint_q_lower"] = r_lo
    residuals["adjoint_q_upper"] = r_hi
    residuals["boundary"] = boundary_residual(solution, upper)
    residuals["max_lower"] = float(np.max(max_condition_lower(solution, upper)))
    try:
        residuals["max_upper"] = float(
            np.max(max_condition_upper(solution, upper, lowers, phi_gradients))
        )
    except IndeterminateWitnessError:
        residuals["max_upper"] = math.inf
        notes.append("upper maximum condition indeterminate: no sensitivity witness")
    residuals["monotonicity"] = _upper_measure_residual(data, upper)

    for name in ("adjoint_q_lower", "adjoint_q_upper", "boundary", "max_lower",
                 "max_upper", "monotonicity"):
        verdicts[name] = residuals[name] <= tol * scale

    if lowers is not None:
        for i in range(scn.N):
            low = lowers[i]
            tag = f"inner_{i+1}"
            if low is None:
                continue
            _check_multiplier_grid(low.grid, data.grid)
            p_scale = 1.0 + max(
                float(np.max(np.abs(low.p_upper))), float(np.max(np.abs(low.p_lower)))
            )
            nt = low.nontriviality()
            residuals[f"{tag}_nontriviality"] = nt
            verdicts[f"{tag}_nontriviality"] = nt >= NONTRIVIALITY_TOL
            inner = _lower_condition_residuals(data, low)
            for key, val in inner.items():
                residuals[f"{tag}_{key}"] = val
                verdicts[f"{tag}_{key}"] = val <= tol * p_scale
            inactive_pairs = 0.0
            for j in range(scn.N):
                if j != i:
                    inactive = data.pair_gap[:, i, j] > ACTIVATION_TOL
                    steps = inactive[:-1] & inactive[1:]
                    inactive_pairs = max(
                        inactive_pairs,
                        _measure_shape_residual(low.overlap[:, j], steps),
                    )
            interior = np.linalg.norm(data.z[:, i, :], axis=1) < scn.R - ACTIVATION_TOL
            steps = interior[:-1] & interior[1:]
            mres = max(inactive_pairs, _measure_shape_residual(low.confinement, steps))
            residuals[f"{tag}_monotonicity"] = mres
            verdicts[f"{tag}_monotonicity"] = mres <= tol * p_scale
            # stationarity articulation: the witness formula against the
            # velocity-set normal cone
            dres = 0.0
            for k in range(data.K):
                vec = (
                    low.p_upper[k + 1]
                    + float(low.confinement[k]) * data.z[k + 1, i]
                    + data.pair_term(k + 1, i, low.overlap[k])
                )
                if low.effort_weight > 0 and low.value_gradient is not None:
                    vec = vec + low.effort_weight * np.asarray(low.value_gradient, float)[k]
                elif low.effort_weight > 0:
                    # without a stored sensitivity the relation defines it;
                    # nothing independent to check at this node
                    continue
                dres = max(
                    dres,
                    _dist_to_control_normal_cone(vec, scn.V[i], data.v[i][k], negate=True),
                )
            residuals[f"{tag}_articulation"] = dres
            verdicts[f"{tag}_articulation"] = dres <= tol * p_scale

    degenerate = int(np.sum(np.linalg.norm(data.z, axis=2) < 1e-12))
    if degenerate:
        notes.append(
            f"{degenerate} node(s) with coincident population/center: zero "
            "support-gradient selection used"
        )
    return NCOReport(residuals=residuals, verdicts=verdicts, tol=tol, scale=scale, notes=notes)


# ---------------------------------------------------------------------------
# witness construction


def _backward_pair(
    data: _SolutionData,
    i: int,
    q_lo_T: np.ndarray,
    q_hi_T: np.ndarray,
    nu_path: np.ndarray,
    overlap_rows: np.ndarray,
    u_of_k: Callable[[int, np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward Euler integration of the coupled adjoint selections.

    Inside the kink band of the cone support the convexification parameter
    is chosen to pin the activation at zero, which removes the exponential
    drift of the degenerate arcs; outside the band the branch is forced.
    """
    scn = data.scn
    K = data.K
    q_lo = np.zeros((K + 1, 2))
    q_hi = np.zeros((K + 1, 2))
    q_lo[K] = q_lo_T
    q_hi[K] = q_hi_T
    R = scn.R
    cap = float(scn.M[i])
    for k in range(K - 1, -1, -1):
        h = data.h[k]
        x_left = data.x[k, i]
        zk = data.z[k + 1, i]
        nk = data.normals[k + 1, i]
        nu = float(nu_path[k])
        drift = scn.drift[i]
        qn = q_lo[k + 1]
        w = qn - nu * zk
        u_eval = u_of_k(k, w)
        f = drift.value(x_left, u_eval)
        J = drift.jac_x(x_left, u_eval)
        vk = data.v[i][k]
        base_lo = J.T @ w - nu * f + nu * vk
        base_hi = nu * f - nu * vk
        for j in range(scn.N):
            if j != i and overlap_rows[k, j] != 0.0:
                d = contact_jacobian(data.y[k + 1, i], data.y[k + 1, j])
                base_hi = base_hi + overlap_rows[k, j] * (d @ vk)
        sig = np.zeros(2)
        if data.contact[k + 1, i]:
            m = float(np.dot(w, nk))
            g = sigma_active_gradient(zk, qn, nu, R, cap)
            branch = _sigma_branch(m, _kink_band(qn, nu, R))
            if branch == "active":
                sig = g
            elif branch == "kink":
                if data.contact[k, i]:
                    # pin the next (backward) activation at zero: it is
                    # affine in the convexification parameter
                    nu_prev = float(nu_path[k])
                    z_prev = data.z[k, i]
                    n_prev = data.normals[k, i]
                    q_prev0 = qn + h * base_lo
                    m0 = float(np.dot(q_prev0 - nu_prev * z_prev, n_prev))
                    slope = h * float(np.dot(g, n_prev))
                    if abs(slope) > 1e-30:
                        theta = min(max(-m0 / slope, 0.0), 1.0)
                    else:
                        theta = min(max(data.cone[k, i] / cap, 0.0), 1.0)
                else:
                    # contact onset interval: use the realized cone fraction
                    theta = min(max(data.cone[k, i] / cap, 0.0), 1.0)
                sig = theta * g
        q_lo[k] = q_lo[k + 1] + h * (base_lo + sig)
        q_hi[k] = q_hi[k + 1] + h * (base_hi - sig)
    return q_lo, q_hi


def _build_upper_family(
    data: _SolutionData, kind: str, level: float = 1.0
) -> UpperMultipliers:
    scn = data.scn
    K = data.K
    nu = np.zeros((K + 1, scn.N))
    lam = 0.0
    if kind == "measure":
        nu[:] = level
    elif kind == "terminal":
        lam = 1.0
    else:
        raise ValueError(f"unknown upper witness family {kind!r}")
    overlap = np.zeros((K + 1, scn.N, scn.N))
    q_lo = np.zeros((K + 1, scn.N, 2))
    q_hi = np.zeros((K + 1, scn.N, 2))
    for i in range(scn.N):
        q_lo_T = nu[K, i] * data.z[K, i]
        q_hi_T = -lam * data.y[K, i] - nu[K, i] * data.z[K, i]

        def u_claimed(k, _w, _i=i):
            return data.u[_i][k]

        q_lo[:, i, :], q_hi[:, i, :] = _backward_pair(
            data, i, q_lo_T, q_hi_T, nu[:, i], overlap[:, i, :], u_claimed
        )
    upper = UpperMultipliers(
        grid=data.grid,
        q_upper=q_hi,
        q_lower=q_lo,
        overlap=overlap,
        confinement=nu,
        objective_weight=lam,
        rho=scn.rho,
    )
    nt = upper.nontriviality()
    if nt > 0:
        upper = upper.scaled(1.0 / nt)
    return upper


def _build_lower_family(
    data: _SolutionData, i: int, kind: str, level: float = 1.0
) -> LowerMultipliers:
    scn = data.scn
    K = data.K
    mu = np.zeros(K + 1)
    lam_bar = 0.0
    if kind == "measure":
        mu[:] = level
    elif kind == "terminal":
        lam_bar = 1.0
    else:
        raise ValueError(f"unknown inner witness family {kind!r}")
    overlap = np.zeros((K + 1, scn.N))
    p_lo_T = mu[K] * data.z[K, i]
    p_hi_T = -mu[K] * data.z[K, i]

    def u_argmax(k, w):
        struct = _u_hull_structure(data, i, k, w, lam_bar)
        if struct[0] == "point":
            return struct[1]
        # flat supremum: the claimed control is a valid near-maximizer
        return data.u[i][k]

    p_lo, p_hi = _backward_pair(data, i, p_lo_T, p_hi_T, mu, overlap, u_argmax)
    low = LowerMultipliers(
        participant=i,
        grid=data.grid,
        p_upper=p_hi,
        p_lower=p_lo,
        overlap=overlap,
        confinement=mu,
        effort_weight=lam_bar,
    )
    nt = low.nontriviality()
    if nt > 0:
        low = low.scaled(1.0 / nt)
    return low


def fit_multipliers(
    solution: BilevelSolution,
    families: Optional[Sequence[str]] = None,
    tol: float = 1e-3,
    seed: int = 0,
) -> Tuple[UpperMultipliers, List[LowerMultipliers], float]:
    """Search the structured witness families for the best multiplier tuple.

    The candidate costates come from backward integration of the adjoint
    selections, so the search reduces to the measure levels and the
    objective weight; every candidate is normalized to unit aggregate
    weight.  Returns the best witness and its achieved worst relative
    residual; a residual above the tolerance means not-verified, never a
    disproof of optimality.
    """
    audit = solution.feasibility
    if not audit.ok():
        raise ValueError(
            f"candidate infeasible (violation {audit.max_violation:.3g}); "
            "fit requires a feasible solution"
        )
    data = _SolutionData(solution)
    fam = list(families) if families is not None else ["measure", "terminal"]
    best = None
    for kind in fam:
        upper = _build_upper_family(data, kind)
        lowers = [_build_lower_family(data, i, kind) for i in range(data.scn.N)]
        report = verify(solution, upper, lowers, tol=tol)
        rel = 0.0
        for name, value in report.residuals.items():
            if name.endswith("nontriviality"):
                continue
            if not math.isfinite(value):
                rel = math.inf
                break
            rel = max(rel, value / report.scale)
        if not report.verdicts["nontriviality"]:
            rel = math.inf
        if best is None or rel < best[0]:
            best = (rel, upper, lowers)
    assert best is not None
    return best[1], best[2], best[0]


# ---------------------------------------------------------------------------
# finite-difference value sensitivity


def fd_value_gradient(
    scenario: Scenario,
    i: int,
    v_i: ControlProfile,
    delta: float = 1e-4,
) -> np.ndarray:
    """Central-difference sensitivity of the inner value to the disk velocity.

    Perturbs the velocity profile interval by interval; entry k estimates
    the pointwise sensitivity on that interval, so the result is comparable
    with the witness-formula path.  The inner value extends off the control
    set (the sensitivity lives in the ambient space), so the perturbed
    profiles skip membership validation.  Cost: two inner solves per
    interval and coordinate, intended for coarse grids.
    """
    from .bilevel import _greedy_min_effort

    grid = v_i.grid
    h = np.diff(grid)
    K = v_i.K

    def phi_of(values: np.ndarray) -> float:
        ypath = _translation_path(scenario.y0[i], grid, values[:, :2])
        x0_i = scenario.y0[i] if scenario.x0_free else scenario.x0[i]
        uvals, _fail = _greedy_min_effort(scenario, i, ypath, grid, x0_i)
        if uvals is None:
            raise IndeterminateWitnessError(
                f"participant {i+1}: perturbed inner problem infeasible"
            )
        return float(np.sum(h * np.sum(uvals**2, axis=1)))

    out = np.zeros((K, 2))
    for k in range(K):
        for c in range(2):
            bumped = []
            for sgn in (1.0, -1.0):
                vals = v_i.values.copy()
                vals[k, c] += sgn * delta
                bumped.append(phi_of(vals))
            out[k, c] = (bumped[0] - bumped[1]) / (2 * delta * h[k])
    return out
