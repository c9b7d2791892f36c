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
terminal-cost-backed).  The measure family's costates come from backward
integration of the adjoint selections; the terminal family's are closed
form.  A failed fit is reported as not-verified, never as a disproof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bilevel import BilevelSolution
from .dynamics import (
    _BALL,
    _INTERVAL,
    _POINT,
    _check_grid,
    _check_grid_match,
    _Hull,
    _matvec,
    _row_norms,
    _rowdot,
    _svd2,
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
]

# Activation detection for the constancy checks of the measure multipliers;
# grid trajectories touch the constraints only approximately.
ACTIVATION_TOL = 1e-6

# A multiplier tuple is nontrivial when its aggregate weight clears this.
NONTRIVIALITY_TOL = 1e-6

# Width of the kink band of the cone support activation, relative to the
# costate scale; inside the band the convexification parameter is free.
KINK_BAND_FRAC = 1e-4


class IndeterminateWitnessError(RuntimeError):
    """No value-function sensitivity available: the upper witness weights a
    participant's effort, but that participant has no inner witness with a
    positive effort weight, so the witness formula does not define one."""


# ---------------------------------------------------------------------------
# multiplier containers


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
    """Validation, rescaling and the aggregate weight of both witness levels.
    ``_SCALED`` is two costates, two measures and the weight; each level's
    ``_check_weight`` checks its weight."""

    def __post_init__(self):
        self.grid = np.asarray(self.grid, float).ravel()
        for name in self._SCALED[:-1]:
            setattr(self, name, np.asarray(getattr(self, name), float))
        _check_grid(self.grid)
        self._check_weight()
        if not (np.all(self.overlap >= -1e-12) and np.all(self.confinement >= -1e-12)):
            raise ValueError("measure multipliers must be nonnegative")

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

    def _check_weight(self):
        # pair measures are stored symmetric, so an asymmetric object is unrepresentable
        self.overlap = 0.5 * (self.overlap + np.transpose(self.overlap, (0, 2, 1)))
        self.overlap[:, range(self.overlap.shape[1]), range(self.overlap.shape[1])] = 0.0
        self.rho = np.asarray(self.rho, float).ravel()
        if not np.all(self.rho >= 0):
            raise ValueError("partial-calmness moduli rho must be nonnegative")
        if not 0.0 <= self.objective_weight <= 1.0:
            raise ValueError("objective weight must lie in [0, 1]")

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

    _SCALED = ("p_upper", "p_lower", "overlap", "confinement", "effort_weight")

    def _check_weight(self):
        if not self.effort_weight >= 0:
            raise ValueError("effort weight must be nonnegative")

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
        self.f = np.stack([drift.value(self.x[:-1, i], u)
                           for i, (drift, u) in enumerate(zip(scn.drift, self.u))], axis=1)
        self.xdot = (self.x[1:] - self.x[:-1]) / self.h[:, None, None]
        self.cone = np.maximum(0.0, _rowdot(self.f - self.xdot, self.normals[1:]))
        self.pair_gap = np.linalg.norm(self.y[:, :, None] - self.y[:, None], axis=3) - 2 * R
        self.pair_gap[:, range(scn.N), range(scn.N)] = 0.0

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
                    term = weight * _matvec(jac, v)
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
# inner hulls and distances to hulls, row by row


def _u_hull(data: _SolutionData, i: int, w: np.ndarray, alpha: float,
            rows: slice = slice(None)) -> _Hull:
    """Near-argmax structure on the intervals ``rows`` for the rows of w."""
    return data.scn.U[i]._hull(data.scn.drift[i]._u_t(data.x[:-1, i][rows], w), alpha)


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


def _initial_defect(data: _SolutionData, w0: np.ndarray, i) -> np.ndarray:
    """Defect of w0 = q(0) - nu(0) z(0) at the initial node(s) of i: its
    distance to the normal line at a contact start (an initial atom of the
    measure together with the outward ray spans it), else |w0|."""
    n0 = data.normals[0, i]
    along = w0 - _rowdot(w0, n0)[..., None] * n0
    return np.where(data.contact[0, i], _row_norms(along), _row_norms(w0))


# ---------------------------------------------------------------------------
# checks shared by both witness levels, lane by lane


def _lane_rates(data: _SolutionData, lv: _Lanes, l: int):
    """Per interval of lane l: its confinement measure nu, w = q_lower - nu z
    at the landing node, the negated finite-difference rates of q_lower and
    q_upper, and the active mask, kink mask and active gradient of the cone
    support.  Both masks need contact at the landing node; they split on the
    activation <w, n> against the kink band."""
    K, i, h, R = data.K, lv.lanes[l], data.h[:, None], data.scn.R
    q_lo, q_hi, nu = lv.q_lo[:, l], lv.q_hi[:, l], lv.nu[:K, l]
    w = q_lo[1:] - nu[:, None] * data.z[1:, i]
    m = _rowdot(w, data.normals[1:, i])
    band = KINK_BAND_FRAC * (_row_norms(q_lo[1:]) + np.abs(nu) * R) + 1e-12
    contact = data.contact[1:, i]
    g = sigma_active_gradient(data.z[1:, i], q_lo[1:], nu[:, None], R, data.scn.M[i])
    return (nu, w, -(q_lo[1:] - q_lo[:-1]) / h, -(q_hi[1:] - q_hi[:-1]) / h,
            contact & (m < -band), contact & (m >= -band) & (m <= band), g)


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
        r_lo = rate_lo - (scn.drift[i]._x_t(w, data.u[i]) - nu[:, None] * f + nu[:, None] * v)
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
    control, nonnegative by construction.  The map's gradient (d f/d u)^T w
    is taken at each interval's left node x[:-1], as in ``_u_hull``."""
    scn, K = data.scn, data.K
    gaps = np.empty((K, scn.N))
    for i in range(scn.N):
        alpha = float(upper.effort_weights[i])
        w = upper.q_lower[1:, i] - upper.confinement[:K, i, None] * data.z[1:, i]
        g = scn.drift[i]._u_t(data.x[:-1, i], w)
        sup, _u = scn.U[i]._sup_effort(g, alpha)
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


def _check_lowers(data: _SolutionData, lowers) -> None:
    """Inner witnesses are read by position: entry i must be None or
    participant i's witness, on the solution's grid."""
    if lowers is not None and len(lowers) != data.scn.N:
        raise ValueError(f"lowers needs {data.scn.N} entries, one per participant, "
                         f"and has {len(lowers)}")
    for i, low in enumerate(lowers if lowers is not None else ()):
        if low is None:
            continue
        if low.participant != i:
            raise ValueError(f"lowers[{i}] is the witness of participant {low.participant + 1}, "
                             f"not of participant {i + 1}")
        _check_grid_match(low.grid, data.grid, "multipliers")


def _max_upper_paths(data: _SolutionData, upper: UpperMultipliers, lowers) -> np.ndarray:
    """(K, N) distances of the disk-velocity maximum condition's left-hand
    vectors to minus the normal cones of the velocity sets.  A weighted
    effort takes its value-function sensitivity from the inner witness
    formula, which needs an inner witness with a positive effort weight."""
    scn, K = data.scn, data.K
    lv = upper._lanes()
    res = np.empty((K, scn.N))
    for i in range(scn.N):
        lhs = _velocity_lhs(data, lv, i)
        if lv.effort[i] != 0.0:
            low = lowers[i] if lowers is not None else None
            if low is None or not low.effort_weight > 0:
                raise IndeterminateWitnessError(
                    f"participant {i+1}: no value-function sensitivity available")
            lhs = lhs - lv.effort[i] * (-_velocity_lhs(data, low._lanes(), 0) / low.effort_weight)
        res[:, i] = scn.V[i]._normal_cone_distance(lhs, data.v[i])
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
) -> np.ndarray:
    """Inclusion residual path of the disk-velocity maximum condition.

    The left-hand vector is checked against the product of the scaled
    value-function sensitivities minus the control-set normal cones,
    participant by participant.  A participant whose effort the upper
    witness weights takes its sensitivity from the inner witness formula,
    which needs an inner witness with a positive effort weight (else
    :class:`IndeterminateWitnessError`); with a zero upper effort weight
    the sensitivity term drops out.  ``lowers`` is read as in :func:`verify`.
    """
    data = _prepared(solution, upper)
    _check_lowers(data, lowers)
    return np.max(_max_upper_paths(data, upper, lowers), axis=1)


# ---------------------------------------------------------------------------
# inner-relation checks (per participant)


def _inner_checks(data: _SolutionData, low: LowerMultipliers):
    """``(name, residual, (time, participant))`` of the inner conditions of
    one participant that the upper level does not share.

    ``adjoint`` is the distance of the stacked finite-difference rates of
    (p_lower, p_upper) to the hull of the stacked right-hand sides: both are
    Danskin derivatives of the control supremum, so a flat supremum adds a
    column over its near-argmax control range, and a cone-support kink a
    column over the convexification parameter; both parameters are shared
    by the two inclusions, so the distance is one joint 4-vector distance.
    ``primal_inclusion`` is the larger of the population velocity's distance
    to its velocity hull and the disk velocity's defect.
    """
    scn, K, i = data.scn, data.K, low.participant
    starts = data.grid[:-1]
    drift, v = scn.drift[i], data.v[i]
    nu, w, rate_lo, rate_hi, active, kink, g = _lane_rates(data, low._lanes(), 0)
    hull = _u_hull(data, i, w, low.effort_weight)
    interval, ball = hull.kind == _INTERVAL, hull.kind == _BALL
    u_eval = np.where((hull.kind == _POINT)[:, None], hull.u, 0.0)
    f = drift.value(data.x[:-1, i], u_eval)
    r_lo = rate_lo - (nu[:, None] * v + drift._x_t(w, u_eval) - nu[:, None] * f)
    r_hi = rate_hi - (data.add_contact_terms(-nu[:, None] * v, i, low.overlap[:K], v)
                      + nu[:, None] * f)
    r_lo = np.where(active[:, None], r_lo - g, r_lo)
    r_hi = np.where(active[:, None], r_hi + g, r_hi)

    # the control coordinate's column and its cross term; zero off a line U
    line = scn.U[i]._line_view
    col, cross = (np.zeros((K, 2)),) * 2 if line is None \
        else drift._line_columns(data.x[:-1, i], w, line[0])
    hull_col = np.hstack([cross - nu[:, None] * col, nu[:, None] * col])
    kink_col = np.hstack([g, -g])
    # radius of B(U) for the constant control matrix of a ball set
    gain = _svd2(drift.B)[1][0] * scn.U[i].radius if ball.any() else 0.0
    zeros, ones = np.zeros(K), np.ones(K)
    adjoint = _dist_to_hull(
        np.hstack([r_lo, r_hi]),
        np.where(interval[:, None], hull_col, np.where(kink[:, None], kink_col, 0.0)),
        np.where(interval, hull.lo, 0.0), np.where(interval, hull.hi, kink * 1.0),
        kink_col, zeros, ones, interval & kink,
        np.where(ball, np.abs(nu) * gain * math.sqrt(2), 0.0),
    )
    yield ("adjoint",) + _worst(adjoint, starts, (i,))

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
    yield ("primal_inclusion",) + _worst(np.maximum(velocity, _row_norms(ydot - v)), starts, (i,))
    # stationarity articulation: the witness formula against the
    # velocity-set normal cone; with a positive effort weight the relation
    # defines the sensitivity, leaving nothing to check
    if low.effort_weight > 0:
        yield "articulation", 0.0, None
        return
    vec = _velocity_lhs(data, low._lanes(), 0)
    yield ("articulation",) + _worst(scn.V[i]._normal_cone_distance(vec, v), starts, (i,))


# ---------------------------------------------------------------------------
# aggregate verification


class _Beaten(Exception):
    """A candidate's check stopped: it cannot beat the leading family."""


def verify(
    solution: BilevelSolution,
    upper: UpperMultipliers,
    lowers: Optional[Sequence[Optional[LowerMultipliers]]] = None,
    tol: float = 1e-3,
    *,
    _beat: float = math.inf,
) -> NCOReport:
    """Aggregate all condition residuals into per-condition verdicts.

    The tolerance is scale-aware: each condition passes when its residual
    stays below ``tol * (1 + sup-norm of the relevant costates)``.
    Nontriviality is the one condition checked from below.  ``worst_at``
    of the report places each other condition's largest nonzero residual
    at a (time, participant): a per-interval residual at the start of its
    interval, a boundary defect at 0 or T.  The upper maximum condition
    takes each value-function sensitivity from the inner witness formula;
    where ``lowers`` cannot supply one (see :func:`max_condition_upper`) its
    residual is infinite and a note says so.  ``lowers``, when given, has
    one entry per participant: None or that participant's inner witness on
    the solution's grid (else ValueError).  ``solution`` may also be the solution data that
    :func:`fit_multipliers` builds once for all its candidates, and
    ``_beat`` the finite relative residual of its leading family: the check
    then raises :class:`_Beaten` as soon as the upper nontriviality fails
    or a recorded residual over ``scale`` exceeds it, as the candidate can
    no longer win.  With ``_beat`` infinite every condition is checked.
    """
    data = _prepared(solution, upper)
    _check_lowers(data, lowers)
    starts = data.grid[:-1]
    scale = 1.0 + _costate_sup(upper._lanes())
    report = NCOReport(residuals={}, verdicts={}, tol=tol, scale=scale, notes=[
        "inner optimal-solution sets are approximated by the stored minimizers"
    ])

    def record(name: str, value: float, at, bound: float) -> None:
        if value / scale > _beat:
            raise _Beaten
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
    if not report.verdicts["nontriviality"] and _beat < math.inf:
        raise _Beaten
    lanes = range(data.scn.N)
    r_lo, r_hi = _upper_adjoint_paths(data, upper)
    record("adjoint_q_lower", *_worst(r_lo, starts, lanes), bound)
    record("adjoint_q_upper", *_worst(r_hi, starts, lanes), bound)
    gaps = _max_lower_gaps(data, upper)
    gap_path = _sum_participants(gaps)
    k = int(np.argmax(gap_path))
    record("max_lower", float(gap_path[k]), (float(starts[k]), int(np.argmax(gaps[k]))), bound)
    try:
        record("max_upper", *_worst(_max_upper_paths(data, upper, lowers), starts, lanes), bound)
    except IndeterminateWitnessError:
        record("max_upper", math.inf, None, bound)
        report.notes.append("upper maximum condition indeterminate: no sensitivity witness")

    for i, low in enumerate(lowers if lowers is not None else ()):
        if low is None:
            continue
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
    loop, which carries q_lower alone as two floats; q_upper is then a
    cumulative sum.  The loop steps on the drift's float forms and reads a
    state row only at a unique inner maximizer, found by ``_u_hull`` (numpy).

    Without a confinement measure (``nu_path`` zero: the terminal family)
    nothing is stepped.  The lower recursion is linear and homogeneous in
    (q, nu) from q_lower(T) = nu(T) z(T) = 0, so both lower costates and
    p_upper are zero, and q_upper is its terminal value -weight y(T).
    """
    scn, K, h = data.scn, data.K, data.h
    if not nu_path.any():
        zero = np.zeros((K + 1, 2))
        return (zero, np.tile(-weight * data.y[K, i], (K + 1, 1))), (zero, np.zeros((K + 1, 2)))
    R, cap, drift = scn.R, float(scn.M[i]), scn.drift[i]
    f, jac, gain = drift._floats(), drift._float_x_t(), -(cap / R)
    nu = nu_path[:K]
    v, z = data.v[i], data.z[1:, i]
    nz, nv, nf = nu[:, None] * z, nu[:, None] * v, nu[:, None] * data.f[:, i]
    # per-step scalars and rows as floats
    normals = data.normals[:, i].tolist()
    steps = list(zip(h.tolist(), nu.tolist(), nz.tolist(), nv.tolist(), nf.tolist(),
                     data.contact[1:, i].tolist(), normals[1:],
                     ((2.0 * nu)[:, None] * z).tolist(), (np.abs(nu) * R).tolist(),
                     data.contact[:-1, i].tolist(), data.z[:-1, i].tolist(), normals[:-1],
                     np.clip(data.cone[:, i] / cap, 0.0, 1.0).tolist(), data.u[i].tolist()))

    q_lo = np.empty((K + 1, 2))
    q_lo[K] = nu_path[K] * data.z[K, i]
    sig = np.zeros((K, 2))

    def sweep(top: int, checked: int) -> None:
        """Steps top, ..., 0; from step ``checked`` down, the inner
        maximizer is evaluated at each step's costate."""
        (q0, q1), rows = q_lo[top + 1].tolist(), []
        for k in range(top, -1, -1):
            hk, nuk, (nz0, nz1), (nv0, nv1), (nf0, nf1), contact, (n0, n1), (tz0, tz1), \
                band_nu, contact_prev, (zp0, zp1), (np0, np1), theta, uk = steps[k]
            w0, w1 = q0 - nz0, q1 - nz1
            if k <= checked:
                hull = _u_hull(data, i, np.array([[w0, w1]]), weight, slice(k, k + 1))
                if hull.kind[0] == _POINT:
                    uk = hull.u[0].tolist()
                    f0, f1 = f(*data.x[k, i].tolist(), uk)
                    nf0, nf1 = nf[k] = nuk * f0, nuk * f1
            j0, j1 = jac(w0, w1, uk)
            b0, b1 = j0 - nf0 + nv0, j1 - nf1 + nv1
            s0 = s1 = 0.0
            if contact:
                m, g0, g1 = w0 * n0 + w1 * n1, gain * (q0 - tz0), gain * (q1 - tz1)
                band = KINK_BAND_FRAC * (math.sqrt(q0 * q0 + q1 * q1) + band_nu) + 1e-12
                if m < -band:
                    s0, s1 = g0, g1
                elif m <= band:
                    if contact_prev:
                        # pin the next (backward) activation at zero: it is
                        # affine in the convexification parameter
                        m0 = (q0 + hk * b0 - nuk * zp0) * np0 + (q1 + hk * b1 - nuk * zp1) * np1
                        slope = hk * (g0 * np0 + g1 * np1)
                        if abs(slope) > 1e-30:
                            theta = min(max(-m0 / slope, 0.0), 1.0)
                    # else: contact onset interval, the realized cone fraction
                    s0, s1 = theta * g0, theta * g1
            q0, q1 = q0 + hk * (b0 + s0), q1 + hk * (b1 + s1)
            rows += q0, q1, s0, s1
        q_lo[top::-1], sig[top::-1] = np.hsplit(np.array(rows).reshape(-1, 4), 2)

    def q_upper(q_T: np.ndarray) -> np.ndarray:
        return np.cumsum(np.vstack([q_T, (h[:, None] * (nf - nv - sig))[::-1]]), axis=0)[::-1]

    sweep(K - 1, -1)
    upper = (q_lo, q_upper(-weight * data.y[K, i] - q_lo[K]))
    points = np.flatnonzero(_u_hull(data, i, q_lo[1:] - nz, weight).kind == _POINT)
    if points.size:
        top = int(points[-1])
        q_lo = q_lo.copy()
        sweep(top, top)
    return upper, (q_lo, q_upper(-q_lo[K]))


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


# Scenario numbers inside the read bound can still overflow together in the
# witness arithmetic; a non-finite residual scores rel = inf, so such a fit
# ends not-verified, without a warning.
@np.errstate(over="ignore", invalid="ignore")
def fit_multipliers(solution: BilevelSolution, tol: float = 1e-3) -> MultiplierFit:
    """Pick the better of the two structured witness families.

    The candidates are the measure-backed witness (unit confinement
    measures) and the terminal-cost-backed one (unit objective weight); the
    costates come from backward integration of the adjoint selections, one
    sweep per participant for both levels of the measure family; the
    terminal family, without a measure, has closed-form costates.  Every
    candidate is normalized to unit aggregate weight.  Returns the best
    witness and its achieved worst relative residual; a residual above the
    tolerance means not-verified, never a disproof of optimality.  The
    solution data is built once.  The families are checked in order, each
    by one :func:`verify` call, and a later family's check stops as soon as
    it cannot beat the leader's finite residual; the winner's report rides
    along as ``report``.
    """
    audit = solution.feasibility
    if not audit.ok():
        raise ValueError(
            f"candidate infeasible (violation {audit.max_violation:.3g}); "
            "fit requires a feasible solution"
        )
    data = _SolutionData(solution)
    fit = None
    for weight in (0.0, 1.0):           # the measure family, then the terminal one
        upper, lowers = _build_family(data, weight)
        lead = math.inf if fit is None else fit[2]
        try:
            report = verify(data, upper, lowers, tol=tol, _beat=lead)
        except _Beaten:
            continue
        values = [value for name, value in report.residuals.items()
                  if not name.endswith("nontriviality")]
        rel = math.inf
        if report.verdicts["nontriviality"] and all(map(math.isfinite, values)):
            rel = max([0.0] + [value / report.scale for value in values])
        if fit is None or rel < lead:   # the first family wins a tie
            fit = MultiplierFit(upper, lowers, rel, report)
    return fit
