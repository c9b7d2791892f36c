"""Scenario model and forward simulation.

The upper level translates N disks by piecewise-constant velocity controls;
the lower level confines one population representative per disk through a
sweeping inclusion with a controlled drift.  This module owns the scenario
data model, the catching-up and penalty integrators, feasibility auditing,
cost evaluation, and the normal-cone truncation bounds.  It is the one home
of the set and drift arithmetic that the solvers and the verifier share:
the line of a control set, its effort-penalized supremum (the support value
at zero penalty), the drift's transposed Jacobians, and the worst overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "ScaledLinearDrift",
    "AffineDrift",
    "IntervalSet",
    "SegmentSet",
    "BallSet",
    "Scenario",
    "ControlProfile",
    "Trajectory",
    "FeasibilityReport",
    "InfeasibleControlError",
    "TruncationViolationError",
    "StabilityError",
    "DEFAULT_GRID_K",
    "REPORT_TOL",
    "uniform_grid",
    "constant_profile",
    "integrate_upper",
    "integrate_lower_catchup",
    "integrate_lower_penalty",
    "check_feasibility",
    "cost_upper",
    "cost_lower",
    "h5_bounds",
]

# Default uniform grid resolution: resolves the shortest arcs of the
# reference two-disk scenario to ~100 steps.
DEFAULT_GRID_K = 2400

# Loose tolerance used when *reporting* constraint violations, as opposed to
# the much tighter geometric active-set tolerance.
REPORT_TOL = 1e-6

# Relative slack when testing the catch-up correction against the cone cap;
# the reference solution rides the cap exactly, so pure floating-point noise
# must not trip the hard error.
_TRUNCATION_SLACK = 1e-9


class InfeasibleControlError(ValueError):
    """A control value lies outside its control set."""


class TruncationViolationError(RuntimeError):
    """The projection step needs a correction larger than the cone cap."""

    def __init__(self, participant: int, time: float, magnitude: float, cap: float):
        self.participant = participant      # 0-based; the message counts from 1
        self.time = time
        self.magnitude = magnitude
        self.cap = cap
        super().__init__(
            f"participant {participant + 1} at t={time:.6g}: required cone correction "
            f"{magnitude:.6g} exceeds cap {cap:.6g}"
        )


class StabilityError(ValueError):
    """Explicit penalty integration step too large for the stiffness."""


# ---------------------------------------------------------------------------
# drift families


@dataclass(frozen=True)
class ScaledLinearDrift:
    """f(x, u) = coeff * u * x with a scalar control u."""

    coeff: float

    @property
    def control_dim(self) -> int:
        return 1

    def value(self, x, u) -> np.ndarray:
        return self.coeff * float(np.asarray(u).ravel()[0]) * np.asarray(x, float)


@dataclass(frozen=True)
class AffineDrift:
    """f(x, u) = A x + B u + b."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, float).reshape(2, 2))
        B = np.asarray(self.B, float)
        object.__setattr__(self, "B", B.reshape(2, -1))
        object.__setattr__(self, "b", np.asarray(self.b, float).reshape(2))

    @property
    def control_dim(self) -> int:
        return self.B.shape[1]

    def value(self, x, u) -> np.ndarray:
        return self.A @ np.asarray(x, float) + self.B @ np.asarray(u, float).ravel() + self.b


DriftSpec = Union[ScaledLinearDrift, AffineDrift]


# ---------------------------------------------------------------------------
# control sets (compact convex by construction)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products (``b`` may be a single row); the batched matmul
    rounds each row as ``np.dot`` (and ``np.linalg.norm``) of it alone does."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(_rowdot(rows, rows))


@dataclass(frozen=True)
class IntervalSet:
    """Per-coordinate box [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, float))
        hi = np.atleast_1d(np.asarray(self.hi, float))
        if lo.shape != hi.shape or np.any(hi < lo):
            raise ValueError("interval set needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def project(self, u) -> np.ndarray:
        return np.clip(np.asarray(u, float).ravel(), self.lo, self.hi)

    def distances(self, rows) -> np.ndarray:
        rows = np.asarray(rows, float)
        return _row_norms(rows - np.clip(rows, self.lo, self.hi))


@dataclass(frozen=True)
class SegmentSet:
    """{a * direction : a in [-halflength, halflength]} embedded in the plane."""

    direction: np.ndarray
    halflength: float

    def __post_init__(self):
        d = np.asarray(self.direction, float).reshape(2)
        if np.max(np.abs(d)) > 1e150:       # its squares would overflow in the norm
            d = d / np.max(np.abs(d))
        n = float(np.linalg.norm(d))
        if n < 1e-12:
            raise ValueError("segment direction must be nonzero")
        object.__setattr__(self, "direction", d / n)
        if self.halflength < 0:
            raise ValueError("segment halflength must be nonnegative")

    @property
    def dim(self) -> int:
        return 2

    def project(self, u) -> np.ndarray:
        a = float(np.dot(np.asarray(u, float).ravel(), self.direction))
        a = np.clip(a, -self.halflength, self.halflength)
        return a * self.direction

    def distances(self, rows) -> np.ndarray:
        rows = np.asarray(rows, float)
        a = np.clip(_rowdot(rows, self.direction), -self.halflength, self.halflength)
        return _row_norms(rows - a[:, None] * self.direction)


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball of the given radius centered at the origin."""

    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")

    @property
    def dim(self) -> int:
        return 2

    def project(self, u) -> np.ndarray:
        u = np.asarray(u, float).ravel()
        n = float(np.linalg.norm(u))
        if n <= self.radius or n == 0.0:
            return u.copy()
        return (self.radius / n) * u

    def distances(self, rows) -> np.ndarray:
        return np.maximum(0.0, _row_norms(np.asarray(rows, float)) - self.radius)


# each set's ``distances`` maps a (K, m) block to one value per row
ControlSetSpec = Union[IntervalSet, SegmentSet, BallSet]


def _line(cset: ControlSetSpec) -> Optional[Tuple[np.ndarray, float, float]]:
    """``(unit, lo, hi)`` when the set is the line u = s * unit, s in [lo, hi]
    (a segment or a 1-D interval), else None."""
    if isinstance(cset, SegmentSet):
        return cset.direction, -cset.halflength, cset.halflength
    if isinstance(cset, IntervalSet) and cset.dim == 1:
        return np.ones(1), float(cset.lo[0]), float(cset.hi[0])
    return None


def _peak(c: np.ndarray, alpha: float, lo, hi) -> np.ndarray:
    """Maximizer of c*a - alpha*a^2 over a in [lo, hi], elementwise."""
    return np.clip(c / (2 * alpha), lo, hi) if alpha > 0 else np.where(c >= 0, hi, lo)


def _sup_effort(g: np.ndarray, alpha: float, cset: ControlSetSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Maximize <g, u> - alpha*||u||^2 over the control set for each row of g;
    returns the suprema and the maximizers, exact for all three set shapes.
    At alpha = 0 the suprema are the set's support values."""
    line = _line(cset)
    if line is not None:
        unit, lo, hi = line
        gc = _rowdot(g, unit)
        a = _peak(gc, alpha, lo, hi)
        return gc * a - alpha * (a * a), a[:, None] * unit
    if isinstance(cset, IntervalSet):
        u = _peak(g, alpha, cset.lo, cset.hi)
        return np.sum(g * u, axis=1) - alpha * np.sum(u * u, axis=1), u
    gn = _row_norms(g)
    s = _peak(gn, alpha, 0.0, cset.radius)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(gn[:, None] > 0, (s / gn)[:, None] * g, 0.0)
    return gn * s - alpha * s * s, u


def _set_scale(cset: ControlSetSpec) -> float:
    if isinstance(cset, IntervalSet):
        return float(np.max(np.abs(np.concatenate([cset.lo, cset.hi])))) or 1.0
    if isinstance(cset, SegmentSet):
        return cset.halflength or 1.0
    return cset.radius or 1.0


def _require_member(i: int, profile: "ControlProfile", cset: ControlSetSpec, what: str) -> None:
    bad = profile.max_set_distance(cset)
    # a NaN distance fails this test, where it would pass ``bad > tol``
    if not bad <= 1e-9 * max(1.0, _set_scale(cset)):
        raise InfeasibleControlError(f"participant {i+1}: {what} by {bad:.3g}")


# ---------------------------------------------------------------------------
# scenario


@dataclass
class Scenario:
    """Complete problem instance for the articulated two-level dynamics."""

    N: int
    R: float
    T: float
    y0: np.ndarray                       # (N, 2) initial disk centers
    drift: List[DriftSpec]
    U: List[ControlSetSpec]              # lower-level control sets
    V: List[ControlSetSpec]              # upper-level control sets
    M: np.ndarray                        # (N,) normal-cone truncation caps
    rho: np.ndarray                      # (N,) partial-calmness moduli
    x0: Optional[np.ndarray] = None      # (N, 2) when fixed, None when free
    name: str = "scenario"

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, float).reshape(self.N, 2)
        self.M = np.asarray(self.M, float).reshape(self.N)
        self.rho = np.asarray(self.rho, float).reshape(self.N)
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, float).reshape(self.N, 2)
        self.validate()

    @property
    def x0_free(self) -> bool:
        return self.x0 is None

    def validate(self) -> None:
        if self.N < 1:
            raise ValueError("need at least one participant")
        if not self.T > 0:
            raise ValueError("horizon T must be positive")
        if not self.R > 0:
            raise ValueError("disk radius R must be positive")
        if np.any(self.M <= 0):
            raise ValueError("truncation caps M must be positive")
        if np.any(self.rho < 0):
            raise ValueError("partial-calmness moduli rho must be nonnegative")
        if not (len(self.drift) == len(self.U) == len(self.V) == self.N):
            raise ValueError("drift/U/V lists must have one entry per participant")
        # squares of coordinates near the float range overflow in every norm
        # and cost downstream, so such positions are rejected here
        with np.errstate(over="ignore"):
            dist = np.linalg.norm(self.y0[:, None] - self.y0[None], axis=2)
            offset = np.linalg.norm((self.y0 if self.x0 is None else self.x0) - self.y0, axis=1)
            sizes = [cost_upper(self.y0), dist, offset]
        if not all(np.isfinite(size).all() for size in sizes):
            raise ValueError("initial positions too large: a pair distance or the "
                             "terminal cost overflows")
        # the first pair closer than 2R in (i, j) order, then the first x0
        # outside its disk
        close = np.argwhere(np.triu(dist < 2 * self.R - 1e-9 * max(1.0, 2 * self.R), 1))
        if close.size:
            i, j = close[0]
            raise ValueError(f"non-overlap violated at t=0: ||y0^{i+1}-y0^{j+1}|| = "
                             f"{dist[i, j]:.12g} < 2R = {2 * self.R:.12g}")
        outside = np.flatnonzero(offset > self.R + 1e-9 * self.R)
        if outside.size:
            i = outside[0]
            raise ValueError(f"x0^{i+1} at distance {offset[i]:.12g} outside its disk "
                             f"(R={self.R:.12g})")
        for i, (dr, u, v) in enumerate(zip(self.drift, self.U, self.V)):
            if dr.control_dim != u.dim:
                raise ValueError(
                    f"participant {i+1}: drift expects control dimension "
                    f"{dr.control_dim}, set has {u.dim}"
                )
            if v.dim != 2:
                raise ValueError(f"participant {i+1}: the disk velocity has 2 coordinates, "
                                 f"V has {v.dim}")


def uniform_grid(T: float, K: int) -> np.ndarray:
    if K < 1:
        raise ValueError("grid needs at least one interval")
    return np.linspace(0.0, float(T), K + 1)


# ---------------------------------------------------------------------------
# profiles and trajectories


@dataclass
class ControlProfile:
    """Piecewise-constant control: values[k] on [grid[k], grid[k+1])."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, float).ravel()
        self.values = np.atleast_2d(np.asarray(self.values, float))
        if self.values.shape[0] != self.grid.size - 1:
            raise ValueError("need one control value per grid interval")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")

    @property
    def K(self) -> int:
        return self.grid.size - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def max_set_distance(self, cset: ControlSetSpec) -> float:
        return float(np.max(cset.distances(self.values)))


def constant_profile(grid, value) -> ControlProfile:
    grid = np.asarray(grid, float)
    value = np.atleast_1d(np.asarray(value, float))
    return ControlProfile(grid=grid, values=np.tile(value, (grid.size - 1, 1)))


@dataclass
class Trajectory:
    """Sampled state path: states[k, i] is participant i's position at grid[k]."""

    grid: np.ndarray
    states: np.ndarray                    # (K+1, N, 2)
    contact: np.ndarray = field(default=None)  # (K+1, N) bool

    def __post_init__(self):
        self.grid = np.asarray(self.grid, float).ravel()
        self.states = np.asarray(self.states, float)
        if self.states.ndim != 3 or self.states.shape[0] != self.grid.size:
            raise ValueError("states must be (K+1, N, 2) matching the grid")
        if self.contact is None:
            self.contact = np.zeros(self.states.shape[:2], dtype=bool)
        if not np.all(np.isfinite(self.states)):
            raise ValueError("non-finite state encountered")

    def terminal(self) -> np.ndarray:
        return self.states[-1]


def _check_grid_match(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.size != b.size or not np.allclose(a, b, rtol=0.0, atol=1e-12):
        raise ValueError(f"{what}: grids do not match")


# ---------------------------------------------------------------------------
# integrators


def _translation_path(y0: np.ndarray, grid: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Disk centers y0 + sum of h_k v_k on the grid; ``np.cumsum`` adds
    ((y0 + s_0) + s_1) + ..., in the order of a step-by-step loop."""
    path = np.empty((grid.size,) + y0.shape)
    path[0] = y0
    path[1:] = np.diff(grid).reshape((-1,) + (1,) * y0.ndim) * velocities
    return np.cumsum(path, axis=0, out=path)


def integrate_upper(scenario: Scenario, v: Sequence[ControlProfile]) -> Trajectory:
    """Integrate the disk translations (exact for piecewise-constant controls)."""
    if len(v) != scenario.N:
        raise ValueError("need one upper control profile per participant")
    grid = v[0].grid
    for p in v[1:]:
        _check_grid_match(grid, p.grid, "integrate_upper")
    for i, p in enumerate(v):
        _require_member(i, p, scenario.V[i], "upper control leaves V")
    velocities = np.stack([p.values for p in v], axis=1)
    return Trajectory(grid=grid, states=_translation_path(scenario.y0, grid, velocities))


def _lane_drift(scenario: Scenario, lanes: Sequence[int], uvals: Sequence[np.ndarray]):
    """``f(k, x)``: the lanes' drifts at states x (L, 2) under their k-th
    controls (``uvals``: one (K, m) array per lane).  Both families are
    affine in x for a fixed control, f = s x + A x + B u + b with s = c u
    (scaled-linear) or 0 (affine); s and B u are computed up front, and the
    batched ``A @ x`` reproduces the per-row product bit for bit.  The zero
    terms can only turn a drift component of -0.0 into +0.0."""
    K, L = len(uvals[0]), len(lanes)
    s, A = np.zeros((K, L, 1)), np.zeros((L, 2, 2))
    Bu, b = np.zeros((K, L, 2)), np.zeros((L, 2))
    affine = False
    for lane, (i, uv) in enumerate(zip(lanes, uvals)):
        drift = scenario.drift[i]
        if isinstance(drift, ScaledLinearDrift):
            s[:, lane, 0] = drift.coeff * uv[:, 0]
        else:
            affine = True
            A[lane], b[lane] = drift.A, drift.b
            Bu[:, lane] = (drift.B @ uv[..., None])[..., 0]

    def f(k: int, x: np.ndarray) -> np.ndarray:
        fx = s[k] * x
        return ((fx + (A @ x[..., None])[..., 0]) + Bu[k]) + b if affine else fx

    return f


def _drift_rows(scn: Scenario, i: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """f(x, u) of participant i for rows of states and controls."""
    return _lane_drift(scn, [i], [u])(slice(None), x[:, None])[:, 0]


def _gradient_t_w(drift, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(d f / d u)^T w, one row of the control dimension per state row."""
    if isinstance(drift, ScaledLinearDrift):
        return _rowdot(drift.coeff * x, w)[:, None]
    return (drift.B.T @ w[..., None])[..., 0]


def _jac_t_w(drift, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(d f / d x)^T w, one row per row of controls: c u w (scaled-linear)
    or A^T w (affine)."""
    if isinstance(drift, ScaledLinearDrift):
        return (drift.coeff * u[:, :1]) * w
    return (drift.A.T @ w[..., None])[..., 0]


def _lower_inputs(scenario: Scenario, y: Trajectory, u: Sequence[ControlProfile],
                  x0: np.ndarray, caller: str):
    """y's grid, the (N, 2) initial points and the lanes' drift, once there is
    one control profile per participant, on y's grid and inside its U, and
    each x0 is inside its initial disk."""
    grid = y.grid
    if len(u) != scenario.N:
        raise ValueError("need one lower control profile per participant")
    for p in u:
        _check_grid_match(grid, p.grid, caller)
    for i, p in enumerate(u):
        _require_member(i, p, scenario.U[i], "lower control leaves U")
    x0, R = np.asarray(x0, float).reshape(scenario.N, 2), scenario.R
    outside = np.flatnonzero(_row_norms(x0 - y.states[0]) > R + 1e-9 * R)
    if outside.size:
        raise ValueError(f"participant {outside[0] + 1}: x0 outside the initial disk")
    return grid, x0, _lane_drift(scenario, range(scenario.N), [p.values for p in u])


def integrate_lower_catchup(
    scenario: Scenario,
    y: Trajectory,
    u: Sequence[ControlProfile],
    x0: np.ndarray,
) -> Trajectory:
    """Catching-up time stepping for the confined population states.

    All participants advance together as lanes.  Each step applies the
    drift explicitly and then projects back onto the translated disk at the
    new time.  The implied correction per unit time (the predicted point's
    distance past the radius, over the step) must stay within the
    truncation cap; exceeding it is a hard diagnostic error, not a clamp.
    It names the lowest-index participant that goes over its cap, at that
    participant's own first such step, as a participant-by-participant
    sweep would report it, even when another participant is over earlier.
    """
    grid, x0, drift = _lower_inputs(scenario, y, u, x0, "integrate_lower_catchup")
    K, R, h, centers = grid.size - 1, scenario.R, np.diff(grid), y.states
    states, dist = np.empty((K + 1, scenario.N, 2)), np.empty((K + 1, scenario.N))
    states[0] = x = x0
    dist[0] = _row_norms(x0 - centers[0])
    # the projection is computed for every participant and kept where one
    # left its disk; a participant resting on its center divides by zero there
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, center in enumerate(centers[1:]):
            pred = x + h[k] * drift(k, x)
            off = pred - center
            d = dist[k + 1] = np.hypot(off[:, 0], off[:, 1])
            x = states[k + 1] = np.where((d > R)[:, None], center + (R / d)[:, None] * off, pred)
    corr = (dist[1:] - R) / h[:, None]
    over = corr > scenario.M * (1.0 + _TRUNCATION_SLACK) + 1e-12
    failed = np.flatnonzero(over.any(axis=0))
    if failed.size:
        i = int(failed[0])
        k = int(np.argmax(over[:, i]))
        raise TruncationViolationError(i, float(grid[k + 1]), float(corr[k, i]),
                                       float(scenario.M[i]))
    return Trajectory(grid=grid, states=states, contact=dist >= R - 1e-9 * R)


def integrate_lower_penalty(
    scenario: Scenario,
    y: Trajectory,
    u: Sequence[ControlProfile],
    x0: np.ndarray,
    step: float,
    stiffness: float,
) -> Trajectory:
    """Lipschitz-penalty approximation of the sweeping term.

    The cone is replaced by the inward field
    ``min(k * max(0, ||x-y|| - R(1-delta_k)), M) * (x-y)/||x-y||`` with
    boundary layer ``delta_k = 1/sqrt(k)``, integrated by explicit substeps
    bounded by ``1/(2k)`` for stability.  States are reported on the grid.
    The controls and x0 are checked as ``integrate_lower_catchup`` checks them.
    """
    k = float(stiffness)
    if k <= 0:
        raise ValueError("stiffness must be positive")
    if step > 1.0 / (2.0 * k) + 1e-15:
        raise StabilityError(
            f"step {step:.3g} too large for stiffness {k:.3g} (need <= {1/(2*k):.3g})"
        )
    grid, x0, drift = _lower_inputs(scenario, y, u, x0, "integrate_lower_penalty")
    layer = scenario.R * (1.0 - 1.0 / math.sqrt(k))
    K, N = grid.size - 1, scenario.N
    states = np.empty((K + 1, N, 2))
    contact = np.zeros((K + 1, N), dtype=bool)
    states[0] = x = x0
    # the pull is computed for every lane and kept outside the layer; a lane
    # on its disk center divides by zero there
    with np.errstate(divide="ignore", invalid="ignore"):
        for kk in range(K):
            h = grid[kk + 1] - grid[kk]
            nsub = max(1, int(math.ceil(h / step)))
            hs = h / nsub
            dy = (y.states[kk + 1] - y.states[kk]) / h
            for sub in range(nsub):
                off = x - (y.states[kk] + ((sub + 0.5) * hs) * dy)
                dist = np.hypot(off[:, 0], off[:, 1])
                f = drift(kk, x)
                pull = (np.minimum(k * (dist - layer), scenario.M) / dist)[:, None] * off
                x = x + hs * np.where(((dist > layer) & (dist > 0.0))[:, None], f - pull, f)
            states[kk + 1] = x
            contact[kk + 1] = _row_norms(x - y.states[kk + 1]) >= layer
    return Trajectory(grid=grid, states=states, contact=contact)


# ---------------------------------------------------------------------------
# feasibility and costs


@dataclass
class FeasibilityReport:
    """Worst violations of the pointwise constraints along paired paths."""

    overlap_violation: float
    overlap_time: float
    overlap_pair: Optional[Tuple[int, int]]
    confinement_violation: float
    confinement_time: float
    confinement_participant: Optional[int]
    control_violation: float
    control_time: float
    control_participant: Optional[int]

    @property
    def max_violation(self) -> float:
        return max(self.overlap_violation, self.confinement_violation, self.control_violation)

    def ok(self) -> bool:
        return self.max_violation <= REPORT_TOL


def _worst_overlap(R: float, states: np.ndarray) -> Tuple[float, int, Optional[Tuple[int, int]]]:
    """``(overlap, node, pair)`` of the largest overlap 2R - |y_i - y_j| of
    the (K+1, N, 2) centers, first in (pair, node) order; ``(0.0, 0, None)``
    without one.  Disk i meets every j > i at once, so memory stays at one
    states array; a pair with a NaN gap is passed over (argmax picks NaN)."""
    overlap, node, pair = 0.0, 0, None
    for i in range(states.shape[1] - 1):
        gaps = 2 * R - np.linalg.norm(states[:, i, None, :] - states[:, i + 1:, :], axis=2)
        ks = np.argmax(gaps, axis=0)
        worst = gaps[ks, np.arange(ks.size)]
        j = int(np.argmax(np.where(worst > overlap, worst, -np.inf)))
        if worst[j] > overlap:
            overlap, node, pair = float(worst[j]), int(ks[j]), (i, i + 1 + j)
    return overlap, node, pair


def check_feasibility(
    scenario: Scenario,
    y: Trajectory,
    x: Trajectory,
    u: Sequence[ControlProfile],
    v: Sequence[ControlProfile],
) -> FeasibilityReport:
    """Audit non-overlap, confinement, and control-set membership; each worst
    violation is the first maximum in (pair or participant, time) order."""
    _check_grid_match(y.grid, x.grid, "check_feasibility")
    grid, N = y.grid, scenario.N

    overlap, o_node, o_pair = _worst_overlap(scenario.R, y.states)

    exc = np.linalg.norm(x.states - y.states, axis=2) - scenario.R
    ks = np.argmax(exc, axis=0)
    i = int(np.argmax(exc[ks, np.arange(N)]))
    confine, c_time, c_part = 0.0, 0.0, None
    if exc[ks[i], i] > confine:
        confine, c_time, c_part = float(exc[ks[i], i]), float(grid[ks[i]]), i

    ctrl, k_time, k_part = 0.0, 0.0, None
    for i in range(N):
        for prof, cset in ((u[i], scenario.U[i]), (v[i], scenario.V[i])):
            dists = cset.distances(prof.values)
            k = int(np.argmax(dists))
            if dists[k] > ctrl:
                ctrl, k_time, k_part = float(dists[k]), float(prof.grid[k]), i

    return FeasibilityReport(
        overlap_violation=overlap,
        overlap_time=float(grid[o_node]) if o_pair else 0.0,
        overlap_pair=o_pair,
        confinement_violation=max(0.0, confine),
        confinement_time=c_time,
        confinement_participant=c_part,
        control_violation=ctrl,
        control_time=k_time,
        control_participant=k_part,
    )


def cost_upper(yT: np.ndarray) -> float:
    """Terminal cost: half the summed squared distances to the exit."""
    yT = np.asarray(yT, float).reshape(-1, 2)
    return 0.5 * float(np.sum(yT**2))


def _effort(grid: np.ndarray, values: np.ndarray) -> float:
    """Control effort of the (K, m) values on the grid, integrated exactly
    for piecewise-constant controls."""
    return float(np.sum(np.diff(grid) * np.sum(values**2, axis=1)))


def cost_lower(u: ControlProfile) -> float:
    """Control effort of a profile (see ``_effort``)."""
    return _effort(u.grid, u.values)


# ---------------------------------------------------------------------------
# truncation bounds


def h5_bounds(
    scenario: Scenario,
    boundary_samples: Sequence[Sequence[Tuple[np.ndarray, np.ndarray]]],
) -> List[Tuple[float, float]]:
    """Evaluate the cap-bracketing bounds along supplied contact samples.

    For each participant the samples are (x, y) pairs with x on the boundary
    of the translated disk.  The unit outward normals of the samples stand in
    for the normal directions; the inner optimizations over the control sets
    are linear and solved exactly through support functions, over each
    participant's samples stacked into rows.  Returns one (upper, lower)
    pair per participant: the cap must satisfy ``lower < M < upper``.
    """
    if len(boundary_samples) != scenario.N:
        raise ValueError("need one sample list per participant")
    out: List[Tuple[float, float]] = []
    for i, samples in enumerate(boundary_samples):
        if len(samples) == 0:
            raise ValueError(f"participant {i+1}: empty boundary sample set")
        drift, Ui, Vi = scenario.drift[i], scenario.U[i], scenario.V[i]
        x, yc = np.asarray(samples, float).transpose(1, 0, 2)  # each (S, 2)
        z = x - yc
        nz = _row_norms(z)
        off = np.flatnonzero(np.abs(nz - scenario.R) > 1e-6 * max(1.0, scenario.R))
        if off.size:
            raise ValueError(
                f"participant {i+1}: sample offset norm {nz[off[0]]:.6g} is not on the "
                f"boundary (R={scenario.R:.6g})"
            )
        n = z / nz[:, None]
        base = _rowdot(n, _drift_rows(scenario, i, x, np.zeros((len(x), drift.control_dim))))
        lin = _gradient_t_w(drift, x, n)  # (S, m)
        max_u = base + _sup_effort(lin, 0.0, Ui)[0]
        min_u = base - _sup_effort(-lin, 0.0, Ui)[0]
        upper = np.min(max_u + _sup_effort(-n, 0.0, Vi)[0])
        lower = np.max(min_u - _sup_effort(n, 0.0, Vi)[0])
        out.append((float(upper), float(lower)))
    return out
