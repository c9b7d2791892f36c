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
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bilevel import BilevelSolution
from .dynamics import (
    BallSet,
    ControlProfile,
    IntervalSet,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    _check_grid_match,
    _lane_drift,
    _row_norms,
    _translation_path,
)
from .geometry import SingularConfigurationError, sigma_active_gradient

__all__ = [
    "UpperMultipliers",
    "LowerMultipliers",
    "NCOReport",
    "IndeterminateWitnessError",
    "adjoint_residual",
    "boundary_residual",
    "max_condition_lower",
    "max_condition_upper",
    "verify",
    "fit_multipliers",
    "MultiplierFit",
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


class _Lanes(NamedTuple):
    """A witness level as lanes, one per participant it covers: the costates
    of the translation (``q_hi``) and population (``q_lo``) states, the
    confinement measure, the row of pair measures, and the weights.  The
    inner level is one lane with objective weight 0."""

    lanes: Tuple[int, ...]
    q_hi: np.ndarray             # (K+1, n, 2)
    q_lo: np.ndarray             # (K+1, n, 2)
    nu: np.ndarray               # (K+1, n)
    pairs: np.ndarray            # (K+1, n, N)
    objective_weight: float
    effort: np.ndarray           # (n,)


def _pair_measures(lv: _Lanes):
    """(lane, participant, other) of each pair measure of a level, once per
    pair: a pair of two lanes is charged to its lower index."""
    for l, i in enumerate(lv.lanes):
        for j in range(lv.pairs.shape[2]):
            if j != i and (j > i or j not in lv.lanes):
                yield l, i, j


def _costate_sup(lv: _Lanes) -> float:
    return max(float(np.max(np.abs(lv.q_hi))), float(np.max(np.abs(lv.q_lo))))


class _Witness:
    """Rescaling and the aggregate weight, shared by both witness levels."""

    def scaled(self, factor: float):
        return replace(self, **{name: factor * getattr(self, name) for name in self._SCALED})

    def nontriviality(self) -> float:
        lv = self._lanes()
        tv = _total_variation(lv.nu)
        for l, _i, j in _pair_measures(lv):
            tv += _total_variation(lv.pairs[:, l, j])
        return _costate_sup(lv) + tv + lv.objective_weight + float(np.sum(np.abs(lv.effort)))


@dataclass
class UpperMultipliers(_Witness):
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

    _SCALED = ("q_upper", "q_lower", "overlap", "confinement", "objective_weight")

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

    def _lanes(self) -> _Lanes:
        return _Lanes(tuple(range(self.rho.size)), self.q_upper, self.q_lower, self.confinement,
                      self.overlap, self.objective_weight, self.effort_weights)


@dataclass
class LowerMultipliers(_Witness):
    """Per-participant witness paths for the inner stationarity relation."""

    participant: int
    grid: np.ndarray
    p_upper: np.ndarray          # (K+1, 2)
    p_lower: np.ndarray          # (K+1, 2)
    overlap: np.ndarray          # (K+1, N) row of pair measures, j == i stays 0
    confinement: np.ndarray      # (K+1,)
    effort_weight: float         # nonnegative scalar weighting the effort term
    value_gradient: Optional[np.ndarray] = None   # (K, 2) sensitivity path

    _SCALED = ("p_upper", "p_lower", "overlap", "confinement", "effort_weight")

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

    def _lanes(self) -> _Lanes:
        return _Lanes((self.participant,), self.p_upper[:, None], self.p_lower[:, None],
                      self.confinement[:, None], self.overlap[:, None], 0.0,
                      np.array([self.effort_weight]))


@dataclass
class NCOReport:
    """Residuals and verdicts, one entry per condition; ``worst_at`` gives
    the (time, participant index) of each condition's largest residual."""

    residuals: Dict[str, float]
    verdicts: Dict[str, bool]
    tol: float
    scale: float
    notes: List[str] = field(default_factory=list)
    worst_at: Dict[str, Tuple[float, int]] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


def _total_variation(path: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(np.asarray(path, float), axis=0))))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products; the batched matmul rounds each row as
    ``np.dot`` of that row alone does (``b`` may be a single row)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# solution-derived data shared by all checks


class _SolutionData:
    """Arrays of a candidate solution that every check reads.

    Nodes carry the states, the offsets z = x - y, contact flags and outward
    normals; intervals carry the drift ``f`` at the claimed controls, the
    realized velocity ``xdot`` and the sweeping correction ``cone`` (their
    difference along the outward normal at the landing node).
    """

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
        nz = np.linalg.norm(self.z, axis=2)
        self.contact = nz >= R - ACTIVATION_TOL
        self.normals = np.zeros_like(self.z)
        mask = nz > 1e-12
        self.normals[mask] = self.z[mask] / nz[mask][:, None]
        self.f = _lane_drift(scn, range(scn.N), self.u)(slice(None), self.x[:-1])
        self.xdot = (self.x[1:] - self.x[:-1]) / self.h[:, None, None]
        self.cone = np.maximum(0.0, _rowdot(self.f - self.xdot, self.normals[1:]))
        self.pair_gap = np.zeros((self.K + 1, scn.N, scn.N))
        for i in range(scn.N):
            self.pair_gap[:, i] = np.linalg.norm(self.y[:, i, None] - self.y, axis=2) - 2 * R
            self.pair_gap[:, i, i] = 0.0

    def pair_term(self, i: int, nodes: slice, overlap: np.ndarray) -> np.ndarray:
        """sum_j overlap[:, j] (y_i - y_j) / |y_i - y_j| at the nodes, one
        overlap row per node; pairs of zero weight are skipped."""
        y = self.y[nodes]
        out = np.zeros((y.shape[0], 2))
        for j in range(self.scn.N):
            weight = overlap[:, j, None]
            if j != i and weight.any():
                d = y[:, i] - y[:, j]
                with np.errstate(divide="ignore", invalid="ignore"):
                    out += np.where(weight != 0.0, weight * (d / _row_norms(d)[:, None]), 0.0)
        return out

    def add_contact_terms(self, base: np.ndarray, i: int, overlap: np.ndarray,
                          v: np.ndarray) -> np.ndarray:
        """base + sum_j overlap[:, j] D_ij v per interval, with D_ij the
        contact Jacobian of the pair at the landing node."""
        y = self.y[1:]
        for j in range(self.scn.N):
            weight = overlap[:, j, None]
            if j != i and weight.any():
                d = y[:, i] - y[:, j]
                r = _row_norms(d)[:, None, None]
                if np.any((r[:, 0, 0] < 1e-12) & (weight[:, 0] != 0.0)):
                    raise SingularConfigurationError("coincident centers")
                with np.errstate(divide="ignore", invalid="ignore"):
                    jac = np.eye(2) / r - (d[:, :, None] * d[:, None, :]) / r**3
                    term = weight * (jac @ v[..., None])[..., 0]
                base = base + np.where(weight != 0.0, term, 0.0)
        return base


def _worst(paths: np.ndarray, times: np.ndarray,
           lanes: Sequence[int]) -> Tuple[float, Tuple[float, int]]:
    """Largest entry of a residual path, (rows,) for one lane or (rows,
    lanes), and its (time, participant)."""
    paths = paths.reshape(len(times), -1)
    k, l = divmod(int(np.argmax(paths)), paths.shape[1])
    return float(paths[k, l]), (float(times[k]), lanes[l])


def _prepared(solution, upper: UpperMultipliers) -> _SolutionData:
    """The solution data of a solution (or the data itself), checked
    against the multipliers' grid."""
    data = solution if isinstance(solution, _SolutionData) else _SolutionData(solution)
    _check_grid_match(upper.grid, data.grid, "multipliers")
    return data


# ---------------------------------------------------------------------------
# drift terms for rows of states, controls and costates


def _drift_rows(scn: Scenario, i: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """f(x, u) of participant i for rows of states and controls."""
    return _lane_drift(scn, [i], [u])(slice(None), x[:, None])[:, 0]


def _jac_t_w(drift, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """J_x f(x, u)^T w: c u w (scaled-linear) or A^T w (affine)."""
    if isinstance(drift, ScaledLinearDrift):
        return (drift.coeff * u[:, :1]) * w
    return (drift.A.T @ w[..., None])[..., 0]


def _gradient_t_w(drift, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(d f / d u)^T w, one row of the control dimension per state row."""
    if isinstance(drift, ScaledLinearDrift):
        return _rowdot(drift.coeff * x, w)[:, None]
    return (drift.B.T @ w[..., None])[..., 0]


def _control_column(data: _SolutionData, i: int) -> np.ndarray:
    """Dynamics direction of the scalar control coordinate, per interval."""
    drift, cset = data.scn.drift[i], data.scn.U[i]
    if isinstance(drift, ScaledLinearDrift):
        return drift.coeff * data.x[:-1, i]
    col = drift.B @ cset.direction if isinstance(cset, SegmentSet) else drift.B[:, 0]
    return np.broadcast_to(col, (data.K, 2))


def _ball_gain(drift) -> float:
    """Radius of B(unit ball) for the constant control matrix of a ball set."""
    B = drift.B
    if abs(B[0, 0] - B[1, 1]) < 1e-12 and abs(B[0, 1]) < 1e-12 and abs(B[1, 0]) < 1e-12:
        return abs(B[0, 0])
    return float(np.linalg.norm(B, 2))


# ---------------------------------------------------------------------------
# small exact optimizers, row by row


def _sup_effort(g: np.ndarray, alpha: float, cset) -> Tuple[np.ndarray, np.ndarray]:
    """Maximize <g, u> - alpha*||u||^2 over the control set for each row of g;
    returns the suprema and the maximizers, exact for all three set shapes."""
    if isinstance(cset, IntervalSet):
        if alpha > 0:
            u = np.clip(g / (2 * alpha), cset.lo, cset.hi)
        else:
            u = np.where(g >= 0, cset.hi, cset.lo)
        return _rowdot(g, u) - alpha * _rowdot(u, u), u
    if isinstance(cset, SegmentSet):
        gc = _rowdot(g, cset.direction)
        L = cset.halflength
        if alpha > 0:
            a = np.clip(gc / (2 * alpha), -L, L)
        else:
            a = np.where(gc != 0, np.copysign(L, gc), 0.0)
        return gc * a - alpha * a * a, a[:, None] * cset.direction
    gn = _row_norms(g)
    r = cset.radius
    if alpha > 0:
        s = np.clip(gn / (2 * alpha), 0.0, r)
    else:
        s = np.where(gn > 0, r, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(gn[:, None] > 0, (s / gn)[:, None] * g, 0.0)
    return gn * s - alpha * s * s, u


def _sup_active_range(gc: np.ndarray, alpha: float, lo: float,
                      hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """Superlevel range of the concave scalar map gc*a - alpha*a^2 on [lo, hi].

    Collects the controls within the relative slack of the supremum; the
    hull of their dynamics gradients is the Clarke set of a flat supremum.
    """
    if alpha > 0:
        peak = gc / (2 * alpha)
        a_star = np.clip(peak, lo, hi)
    else:
        a_star = np.where(gc >= 0, hi, lo)
    eps = SUP_ACTIVE_FRAC * (1.0 + np.abs(gc * a_star - alpha * a_star * a_star)) + 1e-12
    if alpha > 0:
        half = np.sqrt(eps / alpha)
        lo_s = np.minimum(np.maximum(lo, peak - half), a_star)
        hi_s = np.maximum(np.minimum(hi, peak + half), a_star)
        return lo_s, hi_s
    flat = np.abs(gc) * (hi - lo) <= eps
    with np.errstate(divide="ignore", invalid="ignore"):
        lo_s = np.where(flat | (gc <= 0), lo, hi - eps / gc)
        hi_s = np.where(flat | (gc > 0), hi, lo + eps / np.abs(gc))
    return lo_s, hi_s


_POINT, _INTERVAL, _BALL = 0, 1, 2


class _Hull(NamedTuple):
    """Near-argmax structure of the inner control supremum, per row."""

    kind: np.ndarray      # _POINT (unique maximizer u), _INTERVAL (range
    lo: np.ndarray        # [lo, hi] of the scalar control coordinate) or
    hi: np.ndarray        # _BALL (flat supremum over a ball set)
    u: np.ndarray


def _u_hull(data: _SolutionData, i: int, w: np.ndarray, alpha: float,
            rows: slice = slice(None)) -> _Hull:
    """Near-argmax structure on the intervals ``rows`` for the rows of w."""
    drift, cset = data.scn.drift[i], data.scn.U[i]
    g = _gradient_t_w(drift, data.x[:-1, i][rows], w)
    if isinstance(cset, SegmentSet) or (isinstance(cset, IntervalSet) and cset.dim == 1):
        if isinstance(cset, SegmentSet):
            gc, lo, hi, unit = _rowdot(g, cset.direction), -cset.halflength, cset.halflength, cset.direction
        else:
            gc, lo, hi, unit = g[:, 0], float(cset.lo[0]), float(cset.hi[0]), np.ones(1)
        lo_s, hi_s = _sup_active_range(gc, alpha, lo, hi)
        kind = np.where(hi_s - lo_s < 1e-14, _POINT, _INTERVAL)
        return _Hull(kind, lo_s, hi_s, lo_s[:, None] * unit)
    _sup, u = _sup_effort(g, alpha, cset)
    kind = np.full(len(w), _POINT)
    if isinstance(cset, BallSet) and alpha <= 0:
        gr = _row_norms(g) * cset.radius
        kind[gr <= SUP_ACTIVE_FRAC * (1.0 + gr) + 1e-12] = _BALL
    zeros = np.zeros(len(w))
    return _Hull(kind, zeros, zeros, u)


# ---------------------------------------------------------------------------
# distances to hulls and normal cones, row by row


def _segment_distance(r: np.ndarray, c: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> np.ndarray:
    """Distance of each row of r to {a c : a in [lo, hi]}; a zero column
    leaves |r|."""
    cc = _rowdot(c, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(cc > 0, _rowdot(r, c) / cc, 0.0)
    a = np.minimum(np.maximum(a, lo), hi)
    return _row_norms(r - a[:, None] * c)


def _dist_to_hull(r: np.ndarray, c1: np.ndarray, lo1: np.ndarray, hi1: np.ndarray,
                  c2: np.ndarray, lo2: np.ndarray, hi2: np.ndarray,
                  two: np.ndarray, ball: np.ndarray) -> np.ndarray:
    """Distance of each row of r to {a1 c1 + a2 c2 : a in box} + ball*B.

    The second column counts only on the rows ``two``; a zero first column
    stands for no column.  With two columns the minimum is taken over the
    interior stationary point (a 2x2 solve) and the four edges, which is
    exact; the Minkowski ball term subtracts from the hull distance.
    """
    best = _segment_distance(r, c1, lo1, hi1)
    if two.any():
        r, a, b = r[two], c1[two], c2[two]
        l1, h1, l2, h2 = lo1[two], hi1[two], lo2[two], hi2[two]
        g00 = _rowdot(a, a) + 1e-15
        g11 = _rowdot(b, b) + 1e-15
        g01 = _rowdot(a, b)
        ra, rb = _rowdot(a, r), _rowdot(b, r)
        det = g00 * g11 - g01 * g01
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (g11 * ra - g01 * rb) / det
            t = (g00 * rb - g01 * ra) / det
        inside = ((det != 0) & (l1 - 1e-12 <= s) & (s <= h1 + 1e-12)
                  & (l2 - 1e-12 <= t) & (t <= h2 + 1e-12))
        s, t = np.clip(s, l1, h1), np.clip(t, l2, h2)
        with np.errstate(invalid="ignore"):
            d = np.where(inside, _row_norms(r - s[:, None] * a - t[:, None] * b), np.inf)
        for fixed, col, other, lo, hi in ((l1, a, b, l2, h2), (h1, a, b, l2, h2),
                                          (l2, b, a, l1, h1), (h2, b, a, l1, h1)):
            d = np.minimum(d, _segment_distance(r - fixed[:, None] * col, other, lo, hi))
        best[two] = d
    return np.maximum(0.0, best - ball)


def _normal_cone_distance(w: np.ndarray, cset, v: np.ndarray) -> np.ndarray:
    """Distance of each row of w to minus the normal cone of the control set
    at the matching row of v.

    Interval sets give per-coordinate rays, a segment contributes its whole
    orthogonal complement plus an outward halfplane at the endpoints, a ball
    the outward radial ray on its boundary.
    """
    tol = 1e-9
    if isinstance(cset, IntervalSet):
        res = np.zeros(len(w))
        for j in range(cset.dim):
            span = max(1.0, abs(cset.hi[j]) + abs(cset.lo[j]))
            at_hi = v[:, j] >= cset.hi[j] - tol * span
            at_lo = v[:, j] <= cset.lo[j] + tol * span
            off = ((w[:, j] > 0) & ~at_lo) | ((w[:, j] < 0) & ~at_hi)
            res = res + np.where(off, w[:, j] ** 2, 0.0)
        return np.sqrt(res)
    if isinstance(cset, SegmentSet):
        L = cset.halflength
        if L == 0.0:
            return np.zeros(len(w))      # normal cone of a singleton is the whole plane
        a = _rowdot(v, cset.direction)
        along = _rowdot(w, cset.direction)
        span = max(1.0, L)
        return np.where(a >= L - tol * span, np.maximum(0.0, along),
                        np.where(a <= -L + tol * span, np.maximum(0.0, -along), np.abs(along)))
    if cset.radius == 0.0:
        return np.zeros(len(w))
    rn = _row_norms(v)
    on = rn >= cset.radius - tol * max(1.0, cset.radius)
    with np.errstate(divide="ignore", invalid="ignore"):
        ray = -v / rn[:, None]
        t = np.maximum(0.0, _rowdot(w, ray))
        return np.where(on, _row_norms(w - t[:, None] * ray), _row_norms(w))


def _initial_defect(data: _SolutionData, w0: np.ndarray, i) -> np.ndarray:
    """Defect of w0 = q(0) - nu(0) z(0) at the initial node(s) of i: its
    distance to the normal line at a contact start (an initial atom of the
    measure together with the outward ray spans it), else |w0|."""
    n0 = data.normals[0, i]
    along = w0 - _rowdot(w0, n0)[..., None] * n0
    return np.where(data.contact[0, i], _row_norms(along), _row_norms(w0))


# ---------------------------------------------------------------------------
# the cone support on each interval


def _cone_branches(data: _SolutionData, i: int, q_next: np.ndarray, nu: np.ndarray,
                   w: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of the active and kink branches of the cone support (both need
    contact at the landing node), from the activation <w, n> against the
    kink band, and the active-branch gradient g per interval."""
    R = data.scn.R
    m = _rowdot(w, data.normals[1:, i])
    band = KINK_BAND_FRAC * (_row_norms(q_next) + np.abs(nu) * R) + 1e-12
    contact = data.contact[1:, i]
    g = sigma_active_gradient(data.z[1:, i], q_next, nu[:, None], R, data.scn.M[i])
    return contact & (m < -band), contact & (m >= -band) & (m <= band), g


# ---------------------------------------------------------------------------
# checks shared by both witness levels, lane by lane


def _lane_rates(data: _SolutionData, lv: _Lanes, l: int):
    """Per interval of lane l: its confinement measure nu, w = q_lower - nu z
    at the landing node, the negated finite-difference rates of q_lower and
    q_upper, and the active mask, kink mask and active gradient of the cone
    support."""
    K, i, h = data.K, lv.lanes[l], data.h[:, None]
    q_lo, q_hi, nu = lv.q_lo[:, l], lv.q_hi[:, l], lv.nu[:K, l]
    w = q_lo[1:] - nu[:, None] * data.z[1:, i]
    rates = (-(q_lo[1:] - q_lo[:-1]) / h, -(q_hi[1:] - q_hi[:-1]) / h)
    return (nu, w) + rates + _cone_branches(data, i, q_lo[1:], nu, w)


def _boundary(data: _SolutionData, lv: _Lanes) -> np.ndarray:
    """(2, lanes) worst transversality defects at t=0 (row 0) and at T (row 1)."""
    K, idx = data.K, list(lv.lanes)
    nuT, zT = lv.nu[-1][:, None], data.z[-1, idx]
    pair = np.vstack([data.pair_term(i, slice(K, K + 1), lv.pairs[-1:, l])
                      for l, i in enumerate(idx)])
    target_hi = -lv.objective_weight * data.y[-1, idx] - nuT * zT - pair
    end = np.maximum(_row_norms(lv.q_hi[-1] - target_hi), _row_norms(lv.q_lo[-1] - nuT * zT))
    w0 = lv.q_lo[0] - lv.nu[0][:, None] * data.z[0, idx]
    return np.stack([_initial_defect(data, w0, idx), end])


def _shape_violations(path: np.ndarray, inactive_steps: np.ndarray) -> np.ndarray:
    """Per-step violation of a measure path: any increase, and any movement
    on a step where its constraint is inactive throughout."""
    diffs = np.diff(np.asarray(path, float))
    return np.maximum(0.0, np.where(inactive_steps, np.abs(diffs), diffs))


def _inactive_steps(data: _SolutionData, i: int, j: Optional[int] = None) -> np.ndarray:
    """Steps on which disk i stays clear of disk j, or (j None) its
    population stays clear of its disk boundary."""
    clear = data.pair_gap[:, i, j] > ACTIVATION_TOL if j is not None else ~data.contact[:, i]
    return clear[:-1] & clear[1:]


def _measure_paths(data: _SolutionData, lv: _Lanes) -> np.ndarray:
    """(K, lanes) shape violations of a level's measures, each pair's
    measure charged once (see :func:`_pair_measures`)."""
    out = np.stack([_shape_violations(lv.nu[:, l], _inactive_steps(data, i))
                    for l, i in enumerate(lv.lanes)], axis=1)
    for l, i, j in _pair_measures(lv):
        out[:, l] = np.maximum(out[:, l], _shape_violations(lv.pairs[:, l, j],
                                                            _inactive_steps(data, i, j)))
    return out


def _velocity_lhs(data: _SolutionData, lv: _Lanes, l: int) -> np.ndarray:
    """q_upper + nu z + sum_j pair_j per interval of lane l, at the landing
    node: the left-hand vector of the disk-velocity conditions."""
    K, i = data.K, lv.lanes[l]
    return (lv.q_hi[1:, l] + lv.nu[:K, l, None] * data.z[1:, i]
            + data.pair_term(i, slice(1, None), lv.pairs[:K, l]))


# ---------------------------------------------------------------------------
# upper-level checks


def _upper_adjoint_paths(data: _SolutionData,
                         upper: UpperMultipliers) -> Tuple[np.ndarray, np.ndarray]:
    """(K, N) distances of the finite-difference rates of q_lower and q_upper
    to the right-hand sides of their adjoint inclusions.

    The claimed control enters the right-hand sides directly.  At a kink of
    the cone support both inclusions share the convexification parameter
    theta in [0, 1]; theta is fitted to the pair, and each distance is taken
    at that theta.
    """
    scn, K = data.scn, data.K
    lv = upper._lanes()
    r_lo_all = np.empty((K, scn.N))
    r_hi_all = np.empty((K, scn.N))
    for i in range(scn.N):
        nu, w, rate_lo, rate_hi, active, kink, g = _lane_rates(data, lv, i)
        f, v = data.f[:, i], data.v[i]
        r_lo = rate_lo - (_jac_t_w(scn.drift[i], data.u[i], w) - nu[:, None] * f + nu[:, None] * v)
        r_hi = rate_hi - data.add_contact_terms(nu[:, None] * f - nu[:, None] * v, i,
                                                upper.overlap[:K, i], v)
        gg = _rowdot(g, g)
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = np.clip((_rowdot(r_lo, g) - _rowdot(r_hi, g)) / (2 * gg), 0.0, 1.0)
        theta = np.where(kink & (gg > 1e-30), fit, np.where(active, 1.0, 0.0))[:, None]
        r_lo_all[:, i] = _row_norms(r_lo - theta * g)
        r_hi_all[:, i] = _row_norms(r_hi + theta * g)
    return r_lo_all, r_hi_all


def _max_lower_gaps(data: _SolutionData, upper: UpperMultipliers) -> np.ndarray:
    """(K, N) gaps of the inner-control maximum condition: the supremum of
    the concave map over the control set minus its value at the claimed
    control, nonnegative by construction."""
    scn, K = data.scn, data.K
    gaps = np.empty((K, scn.N))
    for i in range(scn.N):
        alpha = float(upper.effort_weights[i])
        w = upper.q_lower[1:, i] - upper.confinement[:K, i, None] * data.z[1:, i]
        g = _gradient_t_w(scn.drift[i], data.x[1:, i], w)
        sup, _u = _sup_effort(g, alpha, scn.U[i])
        uk = data.u[i]
        gaps[:, i] = np.maximum(0.0, sup - (_rowdot(g, uk) - alpha * _rowdot(uk, uk)))
    return gaps


def _sum_participants(gaps: np.ndarray) -> np.ndarray:
    """Row sums added participant by participant from zero; ``sum(axis=1)``
    may add in another order."""
    total = np.zeros(gaps.shape[0])
    for col in gaps.T:
        total += col
    return total


def _sensitivity(data: _SolutionData, i: int, lowers, phi_gradients) -> np.ndarray:
    """Value-function sensitivity path of participant i: a supplied
    estimate, the witness's stored path, or the witness formula when its
    effort weight is positive."""
    K = data.K
    if phi_gradients is not None and phi_gradients[i] is not None:
        return np.asarray(phi_gradients[i], float)[:K]
    low = lowers[i] if lowers is not None else None
    if low is not None:
        if low.value_gradient is not None:
            return np.asarray(low.value_gradient, float)[:K]
        if low.effort_weight > 0:
            return -_velocity_lhs(data, low._lanes(), 0) / low.effort_weight
    raise IndeterminateWitnessError(f"participant {i+1}: no value-function sensitivity available")


def _max_upper_paths(data: _SolutionData, upper: UpperMultipliers, lowers,
                     phi_gradients) -> np.ndarray:
    """(K, N) distances of the disk-velocity maximum condition's left-hand
    vectors to minus the normal cones of the velocity sets."""
    scn, K = data.scn, data.K
    lv = upper._lanes()
    res = np.empty((K, scn.N))
    for i in range(scn.N):
        lhs = _velocity_lhs(data, lv, i)
        if lv.effort[i] != 0.0:
            lhs = lhs - lv.effort[i] * _sensitivity(data, i, lowers, phi_gradients)
        res[:, i] = _normal_cone_distance(lhs, scn.V[i], data.v[i])
    return res


def adjoint_residual(solution: BilevelSolution, upper: UpperMultipliers) -> Tuple[float, float]:
    """Max-over-time distances of the finite-difference costate rates of
    q_lower and q_upper to the right-hand-side selection sets of their
    adjoint inclusions (at a cone-support kink, both at the jointly fitted
    convexification parameter)."""
    r_lo, r_hi = _upper_adjoint_paths(_prepared(solution, upper), upper)
    return float(np.max(r_lo)), float(np.max(r_hi))


def boundary_residual(solution: BilevelSolution, upper: UpperMultipliers) -> float:
    """Worst defect of the transversality relations at both ends."""
    return float(np.max(_boundary(_prepared(solution, upper), upper._lanes())))


def max_condition_lower(solution: BilevelSolution, upper: UpperMultipliers) -> np.ndarray:
    """Optimality gap path of the inner-control maximum condition.

    At each interval the displayed concave map is maximized exactly over the
    product control set; the gap is the supremum minus its value at the
    claimed control, hence nonnegative by construction.
    """
    return _sum_participants(_max_lower_gaps(_prepared(solution, upper), upper))


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
    return np.max(_max_upper_paths(_prepared(solution, upper), upper, lowers, phi_gradients), axis=1)


# ---------------------------------------------------------------------------
# inner-relation checks (per participant)


def _inner_paths(data: _SolutionData, low: LowerMultipliers) -> Dict[str, np.ndarray]:
    """Per-interval residual paths of one participant's stationarity relation.

    ``adjoint`` is the distance of the stacked finite-difference rates of
    (p_lower, p_upper) to the hull of the stacked right-hand sides: both are
    Danskin derivatives of the control supremum, so a flat supremum adds a
    column over its near-argmax control range, and a cone-support kink a
    column over the convexification parameter; both parameters are shared
    by the two inclusions, so the distance is one joint 4-vector distance.
    ``primal`` is the larger of the population velocity's distance to its
    velocity hull and the disk velocity's defect.
    """
    scn, K, i = data.scn, data.K, low.participant
    drift, v = scn.drift[i], data.v[i]
    nu, w, rate_lo, rate_hi, active, kink, g = _lane_rates(data, low._lanes(), 0)
    hull = _u_hull(data, i, w, low.effort_weight)
    interval, ball = hull.kind == _INTERVAL, hull.kind == _BALL
    u_eval = np.where((hull.kind == _POINT)[:, None], hull.u, 0.0)
    f = _drift_rows(scn, i, data.x[:-1, i], u_eval)
    r_lo = rate_lo - (nu[:, None] * v + _jac_t_w(drift, u_eval, w) - nu[:, None] * f)
    r_hi = rate_hi - (data.add_contact_terms(-nu[:, None] * v, i, low.overlap[:K], v)
                      + nu[:, None] * f)
    r_lo = np.where(active[:, None], r_lo - g, r_lo)
    r_hi = np.where(active[:, None], r_hi + g, r_hi)

    col = _control_column(data, i)
    col_lo = drift.coeff * w - nu[:, None] * col if isinstance(drift, ScaledLinearDrift) \
        else -nu[:, None] * col
    hull_col = np.hstack([col_lo, nu[:, None] * col])
    kink_col = np.hstack([g, -g])
    gain = _ball_gain(drift) * scn.U[i].radius if ball.any() else 0.0
    zeros, ones = np.zeros(K), np.ones(K)
    adjoint = _dist_to_hull(
        np.hstack([r_lo, r_hi]),
        np.where(interval[:, None], hull_col, np.where(kink[:, None], kink_col, 0.0)),
        np.where(interval, hull.lo, 0.0), np.where(interval, hull.hi, kink * 1.0),
        kink_col, zeros, ones, interval & kink,
        np.where(ball, np.abs(nu) * gain * math.sqrt(2), 0.0),
    )

    contact = data.contact[1:, i]
    normal_col = -data.normals[1:, i]
    cap = float(scn.M[i])
    velocity = _dist_to_hull(
        data.xdot[:, i] - f,
        np.where(interval[:, None], col, np.where(contact[:, None], normal_col, 0.0)),
        np.where(interval, hull.lo, 0.0), np.where(interval, hull.hi, contact * cap),
        normal_col, zeros, np.full(K, cap), interval & contact,
        np.where(ball, gain, 0.0),
    )
    ydot = (data.y[1:, i] - data.y[:-1, i]) / data.h[:, None]
    return {"adjoint": adjoint, "primal_inclusion": np.maximum(velocity, _row_norms(ydot - v))}


def _inner_checks(data: _SolutionData, low: LowerMultipliers):
    """``(name, residual, (time, participant))`` of the inner conditions of
    one participant that the upper level does not share."""
    i, K = low.participant, data.K
    starts = data.grid[:-1]
    for name, path in _inner_paths(data, low).items():
        yield (name,) + _worst(path, starts, (i,))
    # stationarity articulation: the witness formula against the
    # velocity-set normal cone; with a positive effort weight and no stored
    # sensitivity the relation defines the sensitivity, leaving nothing to check
    if low.effort_weight > 0 and low.value_gradient is None:
        yield "articulation", 0.0, None
        return
    vec = _velocity_lhs(data, low._lanes(), 0)
    if low.effort_weight > 0:
        vec = vec + low.effort_weight * np.asarray(low.value_gradient, float)[:K]
    yield ("articulation",) + _worst(_normal_cone_distance(vec, data.scn.V[i], data.v[i]),
                                     starts, (i,))


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
    Nontriviality is the one condition checked from below.  ``worst_at``
    of the report places each other condition's largest nonzero residual
    at a (time, participant): a per-interval residual at the start of its
    interval, a boundary defect at 0 or T.  ``solution`` may also be the
    solution data that :func:`fit_multipliers` builds once for all its
    candidates.
    """
    data = _prepared(solution, upper)
    starts = data.grid[:-1]
    scale = 1.0 + _costate_sup(upper._lanes())
    report = NCOReport(residuals={}, verdicts={}, tol=tol, scale=scale, notes=[
        "inner optimal-solution sets are approximated by the stored minimizers"
    ])

    def record(name: str, value: float, at, bound: float) -> None:
        report.residuals[name] = value
        report.verdicts[name] = value <= bound
        if at is not None and value != 0.0:
            report.worst_at[name] = at

    def record_level(tag: str, witness) -> float:
        """The conditions both levels share; returns the level's bound."""
        lv = witness._lanes()
        nontriv = witness.nontriviality()
        report.residuals[f"{tag}nontriviality"] = nontriv
        report.verdicts[f"{tag}nontriviality"] = nontriv >= NONTRIVIALITY_TOL
        bound = tol * (1.0 + _costate_sup(lv))
        record(f"{tag}boundary", *_worst(_boundary(data, lv), data.grid[[0, -1]], lv.lanes), bound)
        record(f"{tag}monotonicity", *_worst(_measure_paths(data, lv), starts, lv.lanes), bound)
        return bound

    bound = record_level("", upper)
    lanes = range(data.scn.N)
    r_lo, r_hi = _upper_adjoint_paths(data, upper)
    record("adjoint_q_lower", *_worst(r_lo, starts, lanes), bound)
    record("adjoint_q_upper", *_worst(r_hi, starts, lanes), bound)
    gaps = _max_lower_gaps(data, upper)
    gap_path = _sum_participants(gaps)
    k = int(np.argmax(gap_path))
    record("max_lower", float(gap_path[k]), (float(starts[k]), int(np.argmax(gaps[k]))), bound)
    try:
        record("max_upper", *_worst(_max_upper_paths(data, upper, lowers, phi_gradients), starts,
                                    lanes), bound)
    except IndeterminateWitnessError:
        record("max_upper", math.inf, None, bound)
        report.notes.append("upper maximum condition indeterminate: no sensitivity witness")

    for i in range(data.scn.N if lowers is not None else 0):
        low = lowers[i]
        if low is None:
            continue
        _check_grid_match(low.grid, data.grid, "multipliers")
        tag = f"inner_{i+1}_"
        bound = record_level(tag, low)
        for name, value, at in _inner_checks(data, low):
            record(tag + name, value, at, bound)

    degenerate = int(np.sum(np.linalg.norm(data.z, axis=2) < 1e-12))
    if degenerate:
        report.notes.append(
            f"{degenerate} node(s) with coincident population/center: zero "
            "support-gradient selection used"
        )
    return report


# ---------------------------------------------------------------------------
# witness construction


def _backward_pair(data: _SolutionData, i: int, nu_path: np.ndarray, weight: float):
    """Backward Euler integration of participant i's coupled adjoint
    selections, for both witness levels at once.

    Returns ``((q_lower, q_upper), (p_lower, p_upper))``: the upper witness
    (claimed controls, objective weight ``weight``) and the inner witness
    (effort weight ``weight``, objective weight 0).  Both start from one
    pass with the claimed controls, which is the upper answer.  The inner
    answer replaces the claimed control by the inner maximizer wherever it
    is unique; if it is unique anywhere, the pass is redone from the last
    such step, checking each step, and the steps above it are kept.  Inside
    the kink band of the cone support the convexification parameter is
    chosen to pin the activation at zero, which removes the exponential
    drift of the degenerate arcs; outside the band the branch is forced.
    Every term that does not depend on the costate is computed before the
    loop, which carries q_lower alone; q_upper is then a cumulative sum.
    """
    scn, K, h = data.scn, data.K, data.h
    R, cap, drift = scn.R, float(scn.M[i]), scn.drift[i]
    nu = nu_path[:K]
    x_left, u, v = data.x[:-1, i], data.u[i], data.v[i]
    z = data.z[1:, i]
    nz, nv = nu[:, None] * z, nu[:, None] * v
    f = data.f[:, i].copy()
    nf = nu[:, None] * f
    scaled = isinstance(drift, ScaledLinearDrift)
    # per-step rows and scalars, taken out of the arrays once
    steps = list(zip(h.tolist(), nu.tolist(), nz, nv, data.contact[1:, i].tolist(),
                     data.normals[1:, i], (2.0 * nu)[:, None] * z, (np.abs(nu) * R).tolist(),
                     data.contact[:-1, i].tolist(), data.z[:-1, i], data.normals[:-1, i],
                     np.clip(data.cone[:, i] / cap, 0.0, 1.0).tolist(),
                     (drift.coeff * u[:, 0]).tolist() if scaled else [None] * K))
    gain, jac_t = -(cap / R), None if scaled else drift.A.T

    q_lo = np.empty((K + 1, 2))
    q_lo[K] = nu_path[K] * data.z[K, i]
    sig = np.zeros((K, 2))

    def sweep(top: int, checked: int) -> None:
        """Steps top, ..., 0; from step ``checked`` down, the inner
        maximizer is evaluated at each step's costate."""
        q = q_lo[top + 1]
        for k in range(top, -1, -1):
            hk, nuk, nzk, nvk, contact, n, twice_nz, band_nu, contact_prev, z_prev, n_prev, \
                theta_cone, slope_u = steps[k]
            w = q - nzk
            point = k <= checked
            if point:
                hull = _u_hull(data, i, w[None], weight, slice(k, k + 1))
                point = hull.kind[0] == _POINT
            if point:
                f[k] = drift.value(x_left[k], hull.u[0])
                base_lo = drift.jac_x(x_left[k], hull.u[0]).T @ w - nuk * f[k] + nvk
                nf[k] = nuk * f[k]
            else:
                base_lo = (slope_u * w if scaled else jac_t @ w) - nf[k] + nvk
            if contact:
                m = float(w @ n)
                g = gain * (q - twice_nz)
                band = KINK_BAND_FRAC * (math.sqrt(float(q @ q)) + band_nu) + 1e-12
                if m < -band:
                    sig[k] = g
                elif m <= band:
                    theta = theta_cone
                    if contact_prev:
                        # pin the next (backward) activation at zero: it is
                        # affine in the convexification parameter
                        m0 = float((q + hk * base_lo - nuk * z_prev) @ n_prev)
                        slope = hk * float(g @ n_prev)
                        if abs(slope) > 1e-30:
                            theta = min(max(-m0 / slope, 0.0), 1.0)
                    # else: contact onset interval, the realized cone fraction
                    sig[k] = theta * g
            q = q_lo[k] = q + hk * (base_lo + sig[k])

    def q_upper(q_T: np.ndarray) -> np.ndarray:
        q_hi = np.empty((K + 1, 2))
        q_hi[0] = q_T
        q_hi[1:] = (h[:, None] * (nf - nv - sig))[::-1]
        return np.cumsum(q_hi, axis=0)[::-1]

    zT = data.z[K, i]
    sweep(K - 1, -1)
    upper = (q_lo, q_upper(-weight * data.y[K, i] - nu_path[K] * zT))
    points = np.flatnonzero(_u_hull(data, i, q_lo[1:] - nz, weight).kind == _POINT)
    if points.size:
        top = int(points[-1])
        q_lo = q_lo.copy()
        sig[:top + 1] = 0.0
        sweep(top, top)
    return upper, (q_lo, q_upper(-nu_path[K] * zT))


def _normalized(witness):
    nt = witness.nontriviality()
    return witness.scaled(1.0 / nt) if nt > 0 else witness


def _build_family(data: _SolutionData, weight: float):
    """One witness family, normalized: the upper witness and the inner one
    of each participant.  ``weight`` 0 gives the measure family (unit
    confinement measures), 1 the terminal family (unit objective weight,
    unit inner effort weights)."""
    scn, K = data.scn, data.K
    nu = np.full((K + 1, scn.N), 1.0 - weight)
    q_lo = np.zeros((K + 1, scn.N, 2))
    q_hi = np.zeros((K + 1, scn.N, 2))
    lowers = []
    for i in range(scn.N):
        (q_lo[:, i], q_hi[:, i]), (p_lo, p_hi) = _backward_pair(data, i, nu[:, i], weight)
        lowers.append(_normalized(LowerMultipliers(
            participant=i, grid=data.grid, p_upper=p_hi, p_lower=p_lo,
            overlap=np.zeros((K + 1, scn.N)), confinement=nu[:, i].copy(), effort_weight=weight)))
    upper = UpperMultipliers(grid=data.grid, q_upper=q_hi, q_lower=q_lo,
                             overlap=np.zeros((K + 1, scn.N, scn.N)), confinement=nu,
                             objective_weight=weight, rho=scn.rho)
    return _normalized(upper), lowers


class MultiplierFit(tuple):
    """What :func:`fit_multipliers` returns: the tuple ``(upper, lowers,
    achieved)``, carrying the winning candidate's :class:`NCOReport` as
    ``report``."""

    def __new__(cls, upper, lowers, achieved, report):
        fit = super().__new__(cls, (upper, lowers, achieved))
        fit.report = report
        return fit

    def __getnewargs__(self):
        return (*self, self.report)


def fit_multipliers(solution: BilevelSolution, tol: float = 1e-3) -> MultiplierFit:
    """Pick the better of the two structured witness families.

    The candidates are the measure-backed witness (unit confinement
    measures) and the terminal-cost-backed one (unit objective weight); the
    costates come from backward integration of the adjoint selections, one
    sweep per participant and family for both levels, and every candidate
    is normalized to unit aggregate weight.  Returns the best witness and
    its achieved worst relative residual; a residual above the tolerance
    means not-verified, never a disproof of optimality.  The solution data
    is built once, and each family is checked by one :func:`verify` call,
    whose report for the winner rides along as ``report``.
    """
    audit = solution.feasibility
    if not audit.ok():
        raise ValueError(
            f"candidate infeasible (violation {audit.max_violation:.3g}); "
            "fit requires a feasible solution"
        )
    data = _SolutionData(solution)
    best = None
    for weight in (0.0, 1.0):           # the measure family, then the terminal one
        upper, lowers = _build_family(data, weight)
        report = verify(data, upper, lowers, tol=tol)
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
            best = (rel, upper, lowers, report)
    assert best is not None
    return MultiplierFit(best[1], best[2], best[0], best[3])


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
