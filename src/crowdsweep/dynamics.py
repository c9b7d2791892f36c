"""Scenario model and forward simulation.

The upper level translates N disks by piecewise-constant velocity controls;
the lower level confines one population representative per disk through a
sweeping inclusion with a controlled drift.  This module owns the scenario
data model, the catching-up and penalty integrators, feasibility auditing,
cost evaluation, and the normal-cone truncation bounds.  It is the one home
of the set and drift arithmetic that the solvers and the verifier share:
each control-set class carries its line view, search box, support and
effort-penalized supremum, tolerance and normal cone, each drift class its
transposed Jacobians, and one function finds the worst overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

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

# Catch-up steps crowds of up to this many participants on Python floats.
# Float/array time at K = 1000 on a 2-vCPU Xeon, the median of 10 interleaved
# alternations on the benchmark's crowd cut to N = 2, 4, 5, 6, 7 and 8: affine
# (its own drift) 0.31, 0.59, 0.74-0.79, 0.86-0.88, 0.99-1.03, 1.16; scaled-
# linear 0.23, 0.42, 0.55, 0.65, 0.78, 0.77; half and half 0.21, 0.37, 0.49,
# 0.53, 0.65, 0.72.  At N = 16 the floats take 1.35-2.2 times as long.
_FLOAT_LANES = 6


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


# ---------------------------------------------------------------------------
# drift families


# Each drift family is the one home of its arithmetic, in the catch-up's
# order with no zero terms: f on rows (``value``, also on one state and one
# control) and on floats (``_floats``: f(x0, x1, u) -> (f0, f1)), (df/du)^T w
# (``_u_t(x, w)``), (df/dx)^T w (``_x_t(w, u)``, ``_float_x_t``), and for
# u = s * unit on a line, the greedy's line (``_float_line``: x + h f(x, s
# unit) = p + s w) and the verifier's columns df/ds and d/ds (df/dx)^T w
# (``_line_columns``).


@dataclass(frozen=True)
class ScaledLinearDrift:
    """f(x, u) = coeff * u * x with a scalar control u."""

    coeff: float

    @property
    def control_dim(self) -> int:
        return 1

    def value(self, x, u) -> np.ndarray:
        return (self.coeff * np.atleast_1d(u)[..., :1]) * np.asarray(x, float)

    def _floats(self):
        c = self.coeff
        return lambda x0, x1, u: (c * u[0] * x0, c * u[0] * x1)

    # f is linear in x with the symmetric Jacobian c u I: (df/dx)^T w = f(w, u)
    _x_t, _float_x_t = value, _floats

    def _u_t(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _rowdot(self.coeff * x, w)[:, None]

    def _float_line(self, unit):
        c = self.coeff
        return lambda x0, x1, h: (x0, x1, h * c * x0, h * c * x1)

    def _line_columns(self, x: np.ndarray, w: np.ndarray, unit: np.ndarray):
        return self.coeff * x, self.coeff * w


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
        return (_matvec(self.A, np.asarray(x, float)) + _matvec(self.B, np.atleast_1d(u))) + self.b

    def _floats(self):
        (a00, a01), (a10, a11) = self.A.tolist()
        (B0, B1), (b0, b1) = self.B.tolist(), self.b.tolist()
        return lambda x0, x1, u: (((a00 * x0 + a01 * x1) + _float_dot(B0, u)) + b0,
                                  ((a10 * x0 + a11 * x1) + _float_dot(B1, u)) + b1)

    def _x_t(self, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _matvec(self.A.T, w)

    def _float_x_t(self):
        (t00, t01), (t10, t11) = self.A.T.tolist()
        return lambda w0, w1, u: (t00 * w0 + t01 * w1, t10 * w0 + t11 * w1)

    def _u_t(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _matvec(self.B.T, w)

    def _float_line(self, unit):
        f, zero, (B0, B1) = self._floats(), (0.0,) * self.control_dim, self.B.tolist()

        def line(x0, x1, h):
            f0, f1 = f(x0, x1, zero)
            return (x0 + h * f0, x1 + h * f1,
                    _float_dot([h * e for e in B0], unit), _float_dot([h * e for e in B1], unit))
        return line

    def _line_columns(self, x: np.ndarray, w: np.ndarray, unit: np.ndarray):
        return np.broadcast_to(_matvec(self.B, unit), x.shape), np.zeros_like(w)


DriftSpec = Union[ScaledLinearDrift, AffineDrift]


# ---------------------------------------------------------------------------
# control sets (compact convex by construction)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis (``b`` may be a single row), written
    out left to right: a0*b0 + a1*b1 + ...  Every dot product, matrix-vector
    product and 2x2 SVD in the package is written out in this order, never
    left to the BLAS or LAPACK, whose rounding follows the CPU's kernel."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j] * b[..., j]
    return out


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(_rowdot(rows, rows))


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v over the last axes, each row a ``_rowdot``."""
    return _rowdot(M, v[..., None, :])


def _float_dot(a, b) -> float:
    """``_rowdot`` of two float sequences."""
    out = a[0] * b[0]
    for j in range(1, len(a)):
        out = out + a[j] * b[j]
    return out


def _svd2(B: np.ndarray):
    """Closed-form SVD of a 2 x m matrix, m <= 2, zero-padded: ``(L, S, Q)``
    as float tuples, B = L diag(S) Q, S[0] >= S[1] >= 0; L and Q are rotations,
    L reflected when det B < 0 (Blinn, "Consider the lowly 2x2 matrix", 1996)."""
    (a, b), (c, d) = np.hstack([B, np.zeros((2, 2 - B.shape[1]))]).tolist()
    q, r = math.hypot((a + d) / 2, (c - b) / 2), math.hypot((a - d) / 2, (c + b) / 2)
    t1, t2 = math.atan2((c + b) / 2, (a - d) / 2), math.atan2((c - b) / 2, (a + d) / 2)
    cp, sp, ct, st = (f(t) for t in ((t2 + t1) / 2, (t2 - t1) / 2) for f in (math.cos, math.sin))
    sign = 1.0 if q >= r else -1.0
    return ((cp, -sign * sp), (sp, sign * cp)), (q + r, abs(q - r)), ((ct, -st), (st, ct))


def _peak(c: np.ndarray, alpha: float, lo, hi) -> np.ndarray:
    """Maximizer of c*a - alpha*a^2 over a in [lo, hi], elementwise."""
    return np.clip(c / (2 * alpha), lo, hi) if alpha > 0 else np.where(c >= 0, hi, lo)


# Relative slack used when collecting the near-argmax controls whose
# gradients span the Clarke hull of a flat control supremum.
SUP_ACTIVE_FRAC = 1e-3

_POINT, _INTERVAL, _BALL = 0, 1, 2


class _Hull(NamedTuple):
    """Near-argmax structure of the inner control supremum, per row."""

    kind: np.ndarray      # _POINT (unique maximizer u), _INTERVAL (range
    lo: np.ndarray        # [lo, hi] of the scalar control coordinate) or
    hi: np.ndarray        # _BALL (flat supremum over a ball set)
    u: np.ndarray


def _line_step(d0, d1, w0, w1, r_eff, s_lo, s_hi):
    """The least-|s| s in [s_lo, s_hi] with |d + s w| <= r_eff, or None: the
    feasible s lie between the roots of a quadratic."""
    a = w0 * w0 + w1 * w1
    b = 2.0 * (w0 * d0 + w1 * d1)
    c = (d0 * d0 + d1 * d1) - r_eff * r_eff
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


# Each control-set class is the one home of its arithmetic, with its line
# view (``_line_view``: (unit, lo, hi) when the set is the line u = s * unit,
# s in [lo, hi], else None) and membership tolerance (``_tol``, 1e-9 *
# max(1, scale)) computed once: on rows, the supremum of <g, u> - alpha |u|^2
# (the support value at alpha = 0) with its maximizer and its near-argmax
# hull, and the distance to minus the normal cone at controls v, which are at
# a bound within ``_tol``; as V, the search's box, velocities and aim; as a
# planar U, the greedy's admission of the nearest reaching control.


class _LineSet:
    """Arithmetic of a set with a ``_line_view``: a segment, or an interval
    with one coordinate, which keeps it (the box's ``np.sum`` rows would
    turn a -0.0 supremum into +0.0)."""

    def _sup_effort(self, g: np.ndarray, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
        unit, lo, hi = self._line_view
        gc = _rowdot(g, unit)
        a = _peak(gc, alpha, lo, hi)
        return gc * a - alpha * (a * a), a[:, None] * unit

    def _hull(self, g: np.ndarray, alpha: float) -> _Hull:
        """The superlevel range of the concave map gc*a - alpha*a^2 on [lo, hi]:
        the controls within the relative slack of the supremum, the hull of
        whose dynamics gradients is the Clarke set of a flat supremum."""
        unit, lo, hi = self._line_view
        gc = _rowdot(g, unit)
        a_star = _peak(gc, alpha, lo, hi)
        eps = SUP_ACTIVE_FRAC * (1.0 + np.abs(gc * a_star - alpha * a_star * a_star)) + 1e-12
        if alpha > 0:
            peak, half = gc / (2 * alpha), np.sqrt(eps / alpha)
            lo_s = np.minimum(np.maximum(lo, peak - half), a_star)
            hi_s = np.maximum(np.minimum(hi, peak + half), a_star)
        else:
            flat = np.abs(gc) * (hi - lo) <= eps
            with np.errstate(divide="ignore", invalid="ignore"):
                lo_s = np.where(flat | (gc <= 0), lo, hi - eps / gc)
                hi_s = np.where(flat | (gc > 0), hi, lo + eps / np.abs(gc))
        return _Hull(np.where(hi_s - lo_s < 1e-14, _POINT, _INTERVAL), lo_s, hi_s,
                     lo_s[:, None] * unit)


@dataclass(frozen=True)
class IntervalSet(_LineSet):
    """Per-coordinate box [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, float))
        hi = np.atleast_1d(np.asarray(self.hi, float))
        if lo.shape != hi.shape or not np.all(lo <= hi):   # NaN fails too
            raise ValueError("interval set needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_tol", 1e-9 * max(1.0, float(np.max(np.abs([lo, hi])))))
        object.__setattr__(self, "_line_view",
                           (np.ones(1), float(lo[0]), float(hi[0])) if lo.size == 1 else None)

    @property
    def dim(self) -> int:
        return self.lo.size

    def project(self, u) -> np.ndarray:
        return np.clip(np.asarray(u, float).ravel(), self.lo, self.hi)

    def distances(self, rows) -> np.ndarray:
        rows = np.asarray(rows, float)
        return _row_norms(rows - np.clip(rows, self.lo, self.hi))

    def _sup_effort(self, g, alpha):
        if self._line_view:
            return super()._sup_effort(g, alpha)
        u = _peak(g, alpha, self.lo, self.hi)
        return np.sum(g * u, axis=1) - alpha * np.sum(u * u, axis=1), u

    def _hull(self, g, alpha):
        if self._line_view:
            return super()._hull(g, alpha)
        zeros = np.zeros(len(g))
        return _Hull(np.full(len(g), _POINT), zeros, zeros, self._sup_effort(g, alpha)[1])

    def _normal_cone_distance(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-coordinate rays at the bounds."""
        at_hi, at_lo = v >= self.hi - self._tol, v <= self.lo + self._tol
        off = ((w > 0) & ~at_lo) | ((w < 0) & ~at_hi)
        return np.sqrt(np.sum(np.where(off, w**2, 0.0), axis=1))

    def _search_box(self, K: int) -> Tuple[np.ndarray, np.ndarray]:
        return np.tile(self.lo, (K, 1)), np.tile(self.hi, (K, 1))

    def _velocities(self, block: np.ndarray) -> np.ndarray:
        return np.clip(block, self.lo, self.hi)

    def _aim(self, y0: np.ndarray, T: float) -> np.ndarray:
        return self.project(-y0 / T)

    def _admit(self, u, d0, d1, h, B, r_eff):
        """u when it lies in the box; else the convex problem's minimum lies
        on the box's boundary: the first least-norm point over its four
        edges, each a line, for W = h B and d the target's offset."""
        lo, hi = self.lo.tolist(), self.hi.tolist()
        if lo[0] <= u[0] <= hi[0] and lo[1] <= u[1] <= hi[1]:
            return u
        W = [[h * e for e in row] for row in B]
        edges = []
        for j, k in ((0, 1), (1, 0)):
            for e in (lo[j], hi[j]):
                s = _line_step(e * W[0][j] - d0, e * W[1][j] - d1, W[0][k], W[1][k],
                               r_eff, lo[k], hi[k])
                if s is not None:
                    edges.append((e, s) if j == 0 else (s, e))
        return min(edges, key=lambda c: c[0] * c[0] + c[1] * c[1]) if edges else None


@dataclass(frozen=True)
class SegmentSet(_LineSet):
    """{a * direction : a in [-halflength, halflength]} embedded in the plane."""

    direction: np.ndarray
    halflength: float
    dim = 2

    def __post_init__(self):
        d = np.asarray(self.direction, float).reshape(2)
        finite = bool(np.isfinite(d).all())
        if finite and np.max(np.abs(d)) > 1e150:       # its squares would overflow in the norm
            d = d / np.max(np.abs(d))
        n = float(_row_norms(d)) if finite else math.nan
        if not n >= 1e-12:
            raise ValueError("segment direction must be finite and nonzero")
        object.__setattr__(self, "direction", d / n)
        if not self.halflength >= 0:
            raise ValueError("segment halflength must be nonnegative")
        object.__setattr__(self, "_tol", 1e-9 * max(1.0, self.halflength))
        object.__setattr__(self, "_line_view", (self.direction, -self.halflength, self.halflength))

    def project(self, u) -> np.ndarray:
        a = float(_rowdot(np.asarray(u, float).ravel(), self.direction))
        a = np.clip(a, -self.halflength, self.halflength)
        return a * self.direction

    def distances(self, rows) -> np.ndarray:
        rows = np.asarray(rows, float)
        a = np.clip(_rowdot(rows, self.direction), -self.halflength, self.halflength)
        return _row_norms(rows - a[:, None] * self.direction)

    def _normal_cone_distance(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The whole orthogonal complement, plus an outward halfplane at the
        endpoints; a segment within its tolerance of a point has the normal
        cone of a point, the whole plane."""
        L, tol = self.halflength, self._tol
        if L <= tol:
            return np.zeros(len(w))
        a = _rowdot(v, self.direction)
        along = _rowdot(w, self.direction)
        return np.where(a >= L - tol, np.maximum(0.0, along),
                        np.where(a <= -L + tol, np.maximum(0.0, -along), np.abs(along)))

    def _search_box(self, K: int) -> Tuple[np.ndarray, np.ndarray]:
        return np.full((K, 1), -self.halflength), np.full((K, 1), self.halflength)

    def _velocities(self, block: np.ndarray) -> np.ndarray:
        return block * self.direction

    def _aim(self, y0: np.ndarray, T: float):
        return np.clip(-float(_rowdot(y0, self.direction)) / T, -self.halflength, self.halflength)


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball of the given radius centered at the origin."""

    radius: float
    dim, _line_view = 2, None

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError("ball radius must be nonnegative")
        object.__setattr__(self, "_tol", 1e-9 * max(1.0, self.radius))

    def project(self, u) -> np.ndarray:
        u = np.asarray(u, float).ravel()
        n = float(_row_norms(u))
        return u.copy() if n <= self.radius else (self.radius / n) * u

    def distances(self, rows) -> np.ndarray:
        return np.maximum(0.0, _row_norms(np.asarray(rows, float)) - self.radius)

    def _sup_effort(self, g, alpha):
        gn = _row_norms(g)
        s = _peak(gn, alpha, 0.0, self.radius)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(gn[:, None] > 0, (s / gn)[:, None] * g, 0.0)
        return gn * s - alpha * s * s, u

    def _hull(self, g, alpha):
        """A flat supremum (only at alpha = 0) is the whole ball."""
        kind = np.full(len(g), _POINT)
        if alpha <= 0:
            gr = _row_norms(g) * self.radius
            kind[gr <= SUP_ACTIVE_FRAC * (1.0 + gr) + 1e-12] = _BALL
        zeros = np.zeros(len(g))
        return _Hull(kind, zeros, zeros, self._sup_effort(g, alpha)[1])

    def _normal_cone_distance(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The outward radial ray on the boundary; a ball within its
        tolerance of a point has the normal cone of a point, the whole
        plane (there a v = 0 would be on the boundary with no ray)."""
        if self.radius <= self._tol:
            return np.zeros(len(w))
        rn = _row_norms(v)
        on = rn >= self.radius - self._tol
        with np.errstate(divide="ignore", invalid="ignore"):
            ray = -v / rn[:, None]
            t = np.maximum(0.0, _rowdot(w, ray))
            return np.where(on, _row_norms(w - t[:, None] * ray), _row_norms(w))

    def _search_box(self, K: int) -> Tuple[np.ndarray, np.ndarray]:
        hi = np.full((K, 2), self.radius)
        return -hi, hi

    def _velocities(self, block: np.ndarray):
        return [self.project(row) for row in block]

    def _aim(self, y0: np.ndarray, T: float) -> np.ndarray:
        return self.project(-y0 / T)

    def _admit(self, u, d0, d1, h, B, r_eff):
        """The ellipse's nearest point is also the nearest point of its meet
        with the ball, or proves the meet empty."""
        return u if math.sqrt(u[0] * u[0] + u[1] * u[1]) <= self.radius else None


# each set's ``distances`` maps a (K, m) block to one value per row
ControlSetSpec = Union[IntervalSet, SegmentSet, BallSet]


def _require_member(i: int, profile: "ControlProfile", cset: ControlSetSpec, what: str) -> None:
    bad = profile.max_set_distance(cset)
    # a NaN distance fails this test, where it would pass ``bad > tol``
    if not bad <= cset._tol:
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
        if not np.all(self.M > 0):          # so that NaN fails too
            raise ValueError("truncation caps M must be positive")
        if not np.all(self.rho >= 0):
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


def _check_grid(grid: np.ndarray) -> None:
    """The one check of every time grid: finite and strictly increasing."""
    if not np.isfinite(grid).all():
        raise ValueError("grid must be finite")
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError("grid must be strictly increasing")


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
        _check_grid(self.grid)

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
        _check_grid(self.grid)
        if self.contact is None:
            self.contact = np.zeros(self.states.shape[:2], dtype=bool)
        if not np.all(np.isfinite(self.states)):
            raise ValueError("non-finite state encountered")

    def terminal(self) -> np.ndarray:
        return self.states[-1]


def _check_grid_match(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Grids match when they agree node by node to 1e-12; a NaN never
    matches.  On finite grids this is ``np.allclose(a, b, rtol=0,
    atol=1e-12)``, at a fraction of its cost."""
    if a.size != b.size or not np.max(np.abs(a - b)) <= 1e-12:
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


def _lane_drift(scenario: Scenario, uvals: Sequence[np.ndarray]):
    """The drifts of all participants as lanes under their (K, m) controls,
    f = ((s x + A x) + B u) + b, as ``(s, A, Bu, b, affine)``: s (K, N, 1) is
    c u on the scaled-linear lanes, A, Bu and b the affine lanes' terms, each
    zero elsewhere (where it can only turn a -0.0 into +0.0).  ``affine`` is
    True when every lane is affine (a scalar ``where=`` is faster than an
    all-True mask), False when none is, else the (N, 1) lane mask."""
    K, L = len(uvals[0]), len(uvals)
    s, A = np.zeros((K, L, 1)), np.zeros((L, 2, 2))
    Bu, b, affine = np.zeros((K, L, 2)), np.zeros((L, 2)), np.zeros((L, 1), dtype=bool)
    for lane, (drift, uv) in enumerate(zip(scenario.drift, uvals)):
        if isinstance(drift, ScaledLinearDrift):
            s[:, lane, 0] = drift.coeff * uv[:, 0]
        else:
            affine[lane] = True
            A[lane], b[lane] = drift.A, drift.b
            Bu[:, lane] = _matvec(drift.B, uv)
    return s, A, Bu, b, True if affine.all() else affine if affine.any() else False


def _lower_inputs(scenario: Scenario, y: Trajectory, u: Sequence[ControlProfile],
                  x0: np.ndarray, caller: str):
    """y's grid and the (N, 2) initial points, once there is one control
    profile per participant, on y's grid and inside its U, and each x0 is
    inside its initial disk."""
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
    return grid, x0


def _float_step(drift: DriftSpec, R: float):
    """``step(x0, x1, h, u, c0, c1) -> (x0, x1, d)``: one catch-up step on
    floats, p = x + h f(x, u), d = |p - c| and the projection onto the disk
    of radius R about c when d > R.  d is the C library's ``hypot``, reached
    through complex ``abs``; numpy's ``np.hypot`` calls the same function, so
    the array loop's d has the same bits (a NaN's sign aside, which nothing
    reads), and ``math.hypot`` rounds differently.  An offset whose length
    overflows is d = inf, an infinite correction.  The catch-up's float
    lanes and the greedy solve share it."""
    f = drift._floats()

    def step(x0, x1, h, u, c0, c1):
        f0, f1 = f(x0, x1, u)
        p0, p1 = x0 + h * f0, x1 + h * f1
        o0, o1 = p0 - c0, p1 - c1
        try:
            d = abs(complex(o0, o1))
        except OverflowError:
            d = math.inf
        return (c0 + R / d * o0, c1 + R / d * o1, d) if d > R else (p0, p1, d)
    return step


def integrate_lower_catchup(
    scenario: Scenario,
    y: Trajectory,
    u: Sequence[ControlProfile],
    x0: np.ndarray,
) -> Trajectory:
    """Catching-up time stepping for the confined population states.

    Each step applies the drift explicitly and then projects back onto the
    translated disk at the new time.  The implied correction per unit time
    (the predicted point's distance past the radius, over the step) must
    stay within the truncation cap; exceeding it is a hard diagnostic
    error, not a clamp.  It names the lowest-index participant that goes
    over its cap, at that participant's own first such step, as a
    participant-by-participant sweep would report it, even when another
    participant is over earlier.

    Two paths give the same bits.  Up to ``_FLOAT_LANES`` participants step
    one at a time by ``_float_step``; more advance as lanes of one array loop
    that makes the same operations in place, each lane under its own drift
    family: every ufunc writes through ``out=``, and the projection is copied
    over the prediction in states for the participants with d > R.
    """
    grid, start = _lower_inputs(scenario, y, u, x0, "integrate_lower_catchup")
    K, R, h, centers = grid.size - 1, scenario.R, np.diff(grid), y.states
    states, dist = np.empty((K + 1, scenario.N, 2)), np.empty((K + 1, scenario.N))
    states[0] = start
    dist[0] = _row_norms(start - centers[0])
    N = scenario.N
    if N <= _FLOAT_LANES:     # read and written through flat views
        c = memoryview(np.ascontiguousarray(centers).reshape(-1))
        xs, ds, hs = memoryview(states.reshape(-1)), memoryview(dist.reshape(-1)), h.tolist()
        for i, (drift_i, p) in enumerate(zip(scenario.drift, u)):
            step, (x0, x1) = _float_step(drift_i, R), states[0, i].tolist()
            j, e = 2 * (N + i), N + i       # flat offsets of participant i in row 1
            for hk, uk in zip(hs, p.values.tolist()):
                x0, x1, ds[e] = step(x0, x1, hk, uk, c[j], c[j + 1])
                xs[j], xs[j + 1] = x0, x1
                j, e = j + 2 * N, e + N
    else:
        # the projection is computed for every participant and kept where
        # one left its disk (a participant resting on its center divides by
        # zero there); an overflowing prediction, unwarned as on floats, is
        # an infinite correction
        s, A, Bu, b, affine = _lane_drift(scenario, [p.values for p in u])
        f, ax, off = np.empty((N, 2)), np.empty((N, 2)), np.empty((N, 2))
        ratio, far = np.empty((N, 1)), np.empty((N, 1), dtype=bool)
        off0, off1, ratio0, far0 = off[:, 0], off[:, 1], ratio[:, 0], far[:, 0]
        a0, a1 = A[..., 0].copy(), A[..., 1].copy()   # A x = a0 x0 + a1 x1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, (x, xc0, xc1, pred, d, center) in enumerate(zip(
                    states[:-1], states[:-1, :, :1], states[:-1, :, 1:],
                    states[1:], dist[1:], centers[1:])):
                if affine is not True:
                    np.multiply(s[k], x, out=f)
                if affine is not False:
                    np.multiply(a0, xc0, out=ax)
                    np.multiply(a1, xc1, out=off)
                    np.add(ax, off, out=ax)
                    np.add(ax, Bu[k], out=f, where=affine)
                    np.add(f, b, out=f, where=affine)
                np.multiply(h[k], f, out=f)
                np.add(x, f, out=pred)
                np.subtract(pred, center, out=off)
                np.hypot(off0, off1, out=d)
                np.divide(R, d, out=ratio0)
                np.multiply(ratio, off, out=off)
                np.add(center, off, out=off)
                np.greater(d, R, out=far0)
                np.copyto(pred, off, where=far)
    corr = (dist[1:] - R) / h[:, None]
    over = corr > scenario.M * (1.0 + _TRUNCATION_SLACK) + 1e-12
    if over.any():
        i, k = divmod(int(np.argmax(over.T)), K)
        raise TruncationViolationError(i, float(grid[k + 1]), float(corr[k, i]),
                                       float(scenario.M[i]))
    return Trajectory(grid=grid, states=states, contact=dist >= R - 1e-9 * R)


def integrate_lower_penalty(
    scenario: Scenario,
    y: Trajectory,
    u: Sequence[ControlProfile],
    x0: np.ndarray,
    stiffness: float,
) -> Trajectory:
    """Lipschitz-penalty approximation of the sweeping term.

    The cone is replaced by the inward field
    ``min(k * max(0, ||x-y|| - R(1-delta_k)), M) * (x-y)/||x-y||`` with
    boundary layer ``delta_k = 1/sqrt(k)``, integrated by explicit substeps:
    each grid interval h is cut into ceil(h / step) equal substeps, step =
    1/(2k), the stability bound.  The stiffness k must be finite and
    positive.  States are reported on the grid.  The controls and x0 are
    checked as ``integrate_lower_catchup`` checks them.
    """
    k = float(stiffness)
    if not 0.0 < k < math.inf:      # NaN fails too
        raise ValueError("stiffness must be finite and positive")
    step = 1.0 / (2.0 * k)
    grid, x0 = _lower_inputs(scenario, y, u, x0, "integrate_lower_penalty")
    s, A, Bu, b, affine = _lane_drift(scenario, [p.values for p in u])
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
                f = s[kk] * x
                if affine is not False:
                    f = ((f + _matvec(A, x)) + Bu[kk]) + b
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
    without one.  Disk i meets every j > i at once, so memory stays within
    two states arrays (one for the boxes); a pair with a NaN gap is passed
    over (argmax picks NaN).

    With more than one pair, a broad phase (the bounding boxes of
    sweep-and-prune; Cohen et al., I-COLLIDE, 1995) lets disk i measure only
    the run of disks j from the first to the last whose path's box comes
    closer than 2R to its own in both coordinates.  This is exact: when
    lo_i - hi_j >= 2R in a coordinate, every rounded y_i - y_j there is at
    least 2R too (rounding is monotone), and fl(sqrt(fl(a^2))) = |a|, so the
    norm is at least 2R and the gap at most 0, which never beats the running
    overlap that starts at 0.  Only when squares underflow (R below about
    1e-154) may a full scan report a gap that the box test drops.  A single
    pair is measured directly: its boxes cost about as much as its scan."""
    N = states.shape[1]
    near = np.ones((N, N), dtype=bool)
    if N > 2:
        # min and max over the nodes cost several times less along a
        # contiguous axis than across the rows of states
        paths = states.transpose(1, 2, 0).copy()
        lo, hi = paths.min(axis=2), paths.max(axis=2)
        near = ~((lo[:, None] - hi >= 2 * R) | (lo - hi[:, None] >= 2 * R)).any(axis=2)
    overlap, node, pair = 0.0, 0, None
    for i in range(N - 1):
        js = i + 1 + np.flatnonzero(near[i, i + 1:])
        if not js.size:
            continue
        gaps = 2 * R - _row_norms(states[:, i, None, :] - states[:, js[0]:js[-1] + 1, :])
        ks = np.argmax(gaps, axis=0)
        worst = gaps[ks, np.arange(ks.size)]
        j = int(np.argmax(np.where(worst > overlap, worst, -np.inf)))
        if worst[j] > overlap:
            overlap, node, pair = float(worst[j]), int(ks[j]), (i, int(js[0]) + j)
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

    exc = _row_norms(x.states - y.states) - scenario.R
    i, k = divmod(int(np.argmax(exc.T)), exc.shape[0])
    confine, c_time, c_part = 0.0, 0.0, None
    if exc[k, i] > confine:
        confine, c_time, c_part = float(exc[k, i]), float(grid[k]), i

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
        confinement_violation=confine,
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
        base = _rowdot(n, drift.value(x, np.zeros((len(x), drift.control_dim))))
        lin = drift._u_t(x, n)  # (S, m)
        max_u = base + Ui._sup_effort(lin, 0.0)[0]
        min_u = base - Ui._sup_effort(-lin, 0.0)[0]
        upper = np.min(max_u + Vi._sup_effort(-n, 0.0)[0])
        lower = np.max(min_u - Vi._sup_effort(n, 0.0)[0])
        out.append((float(upper), float(lower)))
    return out
