"""Scenario model and forward simulation.

The upper level translates N disks by piecewise-constant velocity controls;
the lower level confines one population representative per disk through a
sweeping inclusion with a controlled drift.  This module owns the scenario
data model, the catching-up and penalty integrators, feasibility auditing,
cost evaluation, and the normal-cone truncation bounds.
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
        self.participant = participant
        self.time = time
        self.magnitude = magnitude
        self.cap = cap
        super().__init__(
            f"participant {participant} at t={time:.6g}: required cone correction "
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

    def jac_x(self, x, u) -> np.ndarray:
        return self.coeff * float(np.asarray(u).ravel()[0]) * np.eye(2)

    def control_gradient(self, x) -> np.ndarray:
        """d f / d u as a (2, m) matrix."""
        return (self.coeff * np.asarray(x, float)).reshape(2, 1)


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

    def jac_x(self, x, u) -> np.ndarray:
        return self.A.copy()

    def control_gradient(self, x) -> np.ndarray:
        return self.B.copy()


DriftSpec = Union[ScaledLinearDrift, AffineDrift]


# ---------------------------------------------------------------------------
# control sets (compact convex by construction)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # the batched matmul reduces each row through the same BLAS dot as
    # np.linalg.norm of that row alone; einsum and sum round differently
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


class _ControlSet:
    """``distances`` maps a (K, m) block of controls to each row's distance."""

    def distance(self, u) -> float:
        return float(self.distances(np.reshape(u, (1, -1)))[0])


@dataclass(frozen=True)
class IntervalSet(_ControlSet):
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

    def support(self, d) -> float:
        d = np.asarray(d, float).ravel()
        return float(np.sum(np.where(d >= 0, d * self.hi, d * self.lo)))

    def arg_support(self, d) -> np.ndarray:
        d = np.asarray(d, float).ravel()
        return np.where(d >= 0, self.hi, self.lo).astype(float)


@dataclass(frozen=True)
class SegmentSet(_ControlSet):
    """{a * direction : a in [-halflength, halflength]} embedded in the plane."""

    direction: np.ndarray
    halflength: float

    def __post_init__(self):
        d = np.asarray(self.direction, float).reshape(2)
        n = float(np.linalg.norm(d))
        if n < 1e-12:
            raise ValueError("segment direction must be nonzero")
        object.__setattr__(self, "direction", d / n)
        if self.halflength < 0:
            raise ValueError("segment halflength must be nonnegative")

    @property
    def dim(self) -> int:
        return 2

    def coordinate(self, u) -> float:
        return float(np.dot(np.asarray(u, float).ravel(), self.direction))

    def project(self, u) -> np.ndarray:
        a = np.clip(self.coordinate(u), -self.halflength, self.halflength)
        return a * self.direction

    def distances(self, rows) -> np.ndarray:
        rows = np.asarray(rows, float)
        coords = (rows[:, None, :] @ self.direction[:, None])[:, 0, 0]
        a = np.clip(coords, -self.halflength, self.halflength)
        return _row_norms(rows - a[:, None] * self.direction)

    def support(self, d) -> float:
        return self.halflength * abs(float(np.dot(np.asarray(d, float).ravel(), self.direction)))

    def arg_support(self, d) -> np.ndarray:
        s = float(np.dot(np.asarray(d, float).ravel(), self.direction))
        return math.copysign(self.halflength, s) * self.direction


@dataclass(frozen=True)
class BallSet(_ControlSet):
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

    def support(self, d) -> float:
        return self.radius * float(np.linalg.norm(np.asarray(d, float).ravel()))

    def arg_support(self, d) -> np.ndarray:
        d = np.asarray(d, float).ravel()
        n = float(np.linalg.norm(d))
        if n == 0.0:
            return np.zeros(self.dim)
        return (self.radius / n) * d


ControlSetSpec = Union[IntervalSet, SegmentSet, BallSet]


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
        slack = 1e-9 * max(1.0, 2 * self.R)
        for i in range(self.N):
            for j in range(i + 1, self.N):
                gap = float(np.linalg.norm(self.y0[i] - self.y0[j]))
                if gap < 2 * self.R - slack:
                    raise ValueError(
                        f"non-overlap violated at t=0: ||y0^{i+1}-y0^{j+1}|| = "
                        f"{gap:.12g} < 2R = {2 * self.R:.12g}"
                    )
        if self.x0 is not None:
            for i in range(self.N):
                d = float(np.linalg.norm(self.x0[i] - self.y0[i]))
                if d > self.R + 1e-9 * self.R:
                    raise ValueError(
                        f"x0^{i+1} at distance {d:.12g} outside its disk (R={self.R:.12g})"
                    )
        for i, (dr, u) in enumerate(zip(self.drift, self.U)):
            if dr.control_dim != u.dim:
                raise ValueError(
                    f"participant {i+1}: drift expects control dimension "
                    f"{dr.control_dim}, set has {u.dim}"
                )


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
            # accept (m, K) input transposed by mistake only when unambiguous
            if self.values.shape[1] == self.grid.size - 1:
                self.values = self.values.T
            else:
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

    @property
    def N(self) -> int:
        return self.states.shape[1]

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


def _catchup_lanes(scenario: Scenario, lanes: Sequence[int], centers: np.ndarray,
                   grid: np.ndarray, x0: np.ndarray, uvals: Sequence[np.ndarray]):
    """Catching-up steps of independent lanes, sequential in k.

    Returns ``(states, dist, violation)``: ``dist[k]`` is each lane's distance
    to its disk center before the k-th projection; ``violation`` is None or
    ``(lane, k, correction)`` for the lowest lane over its cap, at its own
    first such step, as a lane-by-lane sweep would report it."""
    K, R, h = grid.size - 1, scenario.R, np.diff(grid)
    drift = _lane_drift(scenario, lanes, uvals)
    states, dist = np.empty((K + 1, len(lanes), 2)), np.empty((K + 1, len(lanes)))
    states[0] = x = x0
    dist[0] = _row_norms(x0 - centers[0])
    # the projection is computed for every lane and kept where a lane left
    # its disk; a lane resting on its center divides by zero there
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, center in enumerate(centers[1:]):
            pred = x + h[k] * drift(k, x)
            off = pred - center
            d = dist[k + 1] = np.hypot(off[:, 0], off[:, 1])
            x = states[k + 1] = np.where((d > R)[:, None], center + (R / d)[:, None] * off, pred)
    corr = (dist[1:] - R) / h[:, None]
    over = corr > scenario.M[list(lanes)] * (1.0 + _TRUNCATION_SLACK) + 1e-12
    failed = np.flatnonzero(over.any(axis=0))
    if not failed.size:
        return states, dist, None
    lane = int(failed[0])
    k = int(np.argmax(over[:, lane]))
    return states, dist, (lane, k, float(corr[k, lane]))


def integrate_lower_catchup(
    scenario: Scenario,
    y: Trajectory,
    u: Sequence[ControlProfile],
    x0: np.ndarray,
    step: Optional[float] = None,
) -> Trajectory:
    """Catching-up time stepping for the confined population states.

    All participants advance together as lanes.  Each step applies the
    drift explicitly and then projects back onto the translated disk at the
    new time.  The implied correction per unit time must stay within the
    truncation cap; exceeding it is a hard diagnostic error, not a clamp,
    naming the lowest-index participant over its cap at its first such step.
    """
    grid = y.grid
    if step is not None:
        hs = np.diff(grid)
        if abs(float(hs[0]) - step) > 1e-12 or np.ptp(hs) > 1e-12:
            raise ValueError("step does not match the trajectory grid spacing")
    if len(u) != scenario.N:
        raise ValueError("need one lower control profile per participant")
    for p in u:
        _check_grid_match(grid, p.grid, "integrate_lower_catchup")
    for i, p in enumerate(u):
        _require_member(i, p, scenario.U[i], "lower control leaves U")
    x0 = np.asarray(x0, float).reshape(scenario.N, 2)
    R = scenario.R
    outside = np.flatnonzero(_row_norms(x0 - y.states[0]) > R + 1e-9 * R)
    if outside.size:
        raise ValueError(f"participant {outside[0] + 1}: x0 outside the initial disk")

    states, dist, violation = _catchup_lanes(
        scenario, range(scenario.N), y.states, grid, x0, [p.values for p in u]
    )
    if violation is not None:
        i, k, corr = violation
        raise TruncationViolationError(i, float(grid[k + 1]), corr, float(scenario.M[i]))
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
    """
    k = float(stiffness)
    if k <= 0:
        raise ValueError("stiffness must be positive")
    if step > 1.0 / (2.0 * k) + 1e-15:
        raise StabilityError(
            f"step {step:.3g} too large for stiffness {k:.3g} (need <= {1/(2*k):.3g})"
        )
    grid = y.grid
    for p in u:
        _check_grid_match(grid, p.grid, "integrate_lower_penalty")
    layer = scenario.R * (1.0 - 1.0 / math.sqrt(k))

    K, N = grid.size - 1, scenario.N
    drift = _lane_drift(scenario, range(N), [p.values for p in u])
    states = np.empty((K + 1, N, 2))
    contact = np.zeros((K + 1, N), dtype=bool)
    states[0] = x = np.asarray(x0, float).reshape(N, 2)
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

    def ok(self, tol: float = REPORT_TOL) -> bool:
        return self.max_violation <= tol


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

    # one pair at a time keeps the memory at O(K)
    overlap, o_time, o_pair = 0.0, 0.0, None
    for i in range(N):
        for j in range(i + 1, N):
            gaps = 2 * scenario.R - np.linalg.norm(
                y.states[:, i, :] - y.states[:, j, :], axis=1
            )
            k = int(np.argmax(gaps))
            if gaps[k] > overlap:
                overlap, o_time, o_pair = float(gaps[k]), float(grid[k]), (i, j)

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
        overlap_violation=max(0.0, overlap),
        overlap_time=o_time,
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


def cost_lower(u: ControlProfile) -> float:
    """Control effort, integrated exactly for piecewise-constant controls."""
    h = np.diff(u.grid)
    return float(np.sum(h * np.sum(u.values**2, axis=1)))


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
    are linear and solved exactly through support functions.  Returns one
    (upper, lower) pair per participant: the cap must satisfy
    ``lower < M < upper``.
    """
    if len(boundary_samples) != scenario.N:
        raise ValueError("need one sample list per participant")
    out: List[Tuple[float, float]] = []
    for i in range(scenario.N):
        samples = boundary_samples[i]
        if not samples:
            raise ValueError(f"participant {i+1}: empty boundary sample set")
        drift, Ui, Vi = scenario.drift[i], scenario.U[i], scenario.V[i]
        upper = math.inf
        lower = -math.inf
        for x, yc in samples:
            x = np.asarray(x, float)
            yc = np.asarray(yc, float)
            z = x - yc
            nz = float(np.linalg.norm(z))
            if abs(nz - scenario.R) > 1e-6 * max(1.0, scenario.R):
                raise ValueError(
                    f"participant {i+1}: sample offset norm {nz:.6g} is not on the "
                    f"boundary (R={scenario.R:.6g})"
                )
            n = z / nz
            g = drift.control_gradient(x)          # (2, m)
            base = float(np.dot(n, drift.value(x, np.zeros(drift.control_dim))))
            lin = g.T @ n                           # (m,)
            max_u = base + Ui.support(lin)
            min_u = base - Ui.support(-lin)
            max_v = Vi.support(n)
            min_v = -Vi.support(-n)
            upper = min(upper, max_u - min_v)
            lower = max(lower, min_u - max_v)
        out.append((upper, lower))
    return out
