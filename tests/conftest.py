import math

import numpy as np
import pytest

from crowdsweep.dynamics import (
    IntervalSet,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
)

S2 = math.sqrt(2)
VHAT = np.array([-S2 / 2, S2 / 2])


def dot(a, b) -> float:
    """a0*b0 + a1*b1 + ..., left to right: the package writes every dot
    product out this way, so the references that copy its arithmetic do too."""
    terms = [float(p) * float(q) for p, q in zip(np.ravel(a), np.ravel(b))]
    out = terms[0]
    for term in terms[1:]:
        out += term
    return out


def norm(a) -> float:
    return math.sqrt(dot(a, a))


def matvec(M, v) -> np.ndarray:
    """M v, row by row as ``dot`` writes each row."""
    return np.array([dot(row, v) for row in np.asarray(M, float)])


def make_twodisk(direction=None, rotate=0.0):
    """Aligned two-disk scenario: touching disks riding toward the exit."""
    vhat = VHAT if direction is None else np.asarray(direction, float)
    if rotate:
        c, s = math.cos(rotate), math.sin(rotate)
        rot = np.array([[c, -s], [s, c]])
        vhat = rot @ vhat
    y0_near = 48 * S2 * vhat
    y0_far = y0_near + 6 * vhat
    return Scenario(
        N=2,
        R=3.0,
        T=6.0,
        y0=np.vstack([y0_far, y0_near]),
        drift=[ScaledLinearDrift(-8.0), ScaledLinearDrift(-8.0)],
        U=[IntervalSet([0.0], [1.0]), IntervalSet([0.0], [1.0])],
        V=[SegmentSet(vhat, 10 * S2), SegmentSet(vhat, 10 * S2)],
        M=[6.0, 6.0],
        rho=[1.0, 1.0],
        x0=np.vstack([y0_far, y0_near]),
    )


def arc_sampled_controls(params, grid):
    """Arc-formula control profiles: velocities at right endpoints and
    population controls at interval midpoints.

    Unlike the cap-exact sampling of ``closed_form_controls`` this leaves a
    strict margin below the cone cap, which the penalty approximation needs
    to track the projected run."""
    from crowdsweep.dynamics import ControlProfile

    grid = np.asarray(grid, float)
    K = grid.size - 1
    a, M, R = params.decay, params.cap, params.R
    v_vals = np.empty((K, 2))
    u_near = np.empty((K, 1))
    u_far = np.empty((K, 1))
    for k in range(K):
        t_right = grid[k + 1]
        t_mid = 0.5 * (grid[k] + grid[k + 1])
        speed = params.v_bar if t_right <= params.t_b else a * float(
            params.gamma2(t_right)) + M
        v_vals[k] = -speed * params.direction
        if t_mid < params.t_a:
            u_near[k] = u_far[k] = 0.0
        elif t_mid < params.t_b:
            g2 = float(params.gamma2(t_mid))
            u_near[k] = (params.v_bar - M) / (a * g2)
            u_far[k] = (params.v_bar - M) / (a * (g2 + 2 * R))
        else:
            g2 = float(params.gamma2(t_mid))
            u_near[k] = 1.0
            u_far[k] = g2 / (g2 + 2 * R)
    np.clip(u_near, 0.0, 1.0, out=u_near)
    np.clip(u_far, 0.0, 1.0, out=u_far)
    v = [None, None]
    u = [None, None]
    v[params.near] = ControlProfile(grid=grid, values=v_vals.copy())
    v[params.far] = ControlProfile(grid=grid, values=v_vals.copy())
    u[params.near] = ControlProfile(grid=grid, values=u_near)
    u[params.far] = ControlProfile(grid=grid, values=u_far)
    return v, u


@pytest.fixture(scope="session")
def twodisk():
    return make_twodisk()


@pytest.fixture(scope="session")
def twodisk_solution(twodisk):
    from crowdsweep.bilevel import solve_twodisk_parametric

    return solve_twodisk_parametric(twodisk)
