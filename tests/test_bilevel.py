import dataclasses
import hashlib
import math

import numpy as np
import pytest

from crowdsweep import bilevel
from crowdsweep.bilevel import (
    CaseStudyParams,
    InnerInfeasibleError,
    InnerOptions,
    UnsupportedFamilyError,
    closed_form_controls,
    solve_bilevel_direct,
    solve_twodisk_parametric,
    value_function,
)
from crowdsweep.dynamics import (
    AffineDrift,
    BallSet,
    ControlProfile,
    IntervalSet,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    Trajectory,
    constant_profile,
    cost_lower,
    integrate_lower_catchup,
    uniform_grid,
)

from conftest import S2, VHAT, make_twodisk, norm
from test_nco import mixed_solution

TWODISK_ONSET = "(0.252951297431015, 5.9148236089377635, 11.85999056129831)"


def reference_inner_effort(params, participant):
    """Independent oracle: dense quadrature of the closed-form arc controls."""
    a, M, R = params.decay, params.cap, params.R
    offset = 0.0 if participant == params.near else 2 * R

    def u_of(t):
        if t < params.t_a:
            return 0.0
        g2 = float(params.gamma2(t))
        if t < params.t_b:
            return (params.v_bar - M) / (a * (g2 + offset))
        if participant == params.near:
            return 1.0
        return g2 / (g2 + 2 * R)

    ts = np.linspace(0, params.T, 120_001)
    return float(np.trapezoid([u_of(t) ** 2 for t in ts], ts))


class TestValueFunction:
    def test_resting_center_costs_nothing(self):
        scn = Scenario(
            N=1, R=3.0, T=6.0, y0=[[4.0, 0.0]],
            drift=[ScaledLinearDrift(-8.0)],
            U=[IntervalSet([0.0], [1.0])],
            V=[SegmentSet([1.0, 0.0], 1.0)],
            M=[6.0], rho=[1.0], x0=[[4.0, 0.0]],
        )
        grid = uniform_grid(6.0, 300)
        phi, (x0, u) = value_function(scn, 0, constant_profile(grid, np.zeros(2)))
        assert phi == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(u.values)) == 0.0

    def test_reference_effort_matches_arc_quadrature(self, twodisk, twodisk_solution):
        # the inner relaxation converges like h*log(1/h) on the saturated
        # arc, so the comparison runs on a fine grid
        params, _sol = twodisk_solution
        grid = uniform_grid(6.0, 48_000)
        v, _u = closed_form_controls(params, grid)
        opts = InnerOptions(refine=False, multistart=1)
        for participant in (params.near, params.far):
            oracle = reference_inner_effort(params, participant)
            phi, _arg = value_function(twodisk, participant, v[participant], opts)
            assert abs(phi - oracle) <= 0.02 * oracle

    def test_free_initial_point_prefers_the_center(self):
        scn = Scenario(
            N=1, R=3.0, T=6.0, y0=[[4.0, 0.0]],
            drift=[ScaledLinearDrift(-8.0)],
            U=[IntervalSet([0.0], [1.0])],
            V=[SegmentSet([1.0, 0.0], 1.0)],
            M=[6.0], rho=[1.0], x0=None,
        )
        grid = uniform_grid(6.0, 300)
        phi, (x0, _u) = value_function(scn, 0, constant_profile(grid, np.zeros(2)))
        assert phi == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(x0, scn.y0[0])

    def test_no_feasible_inner_control(self):
        scn = Scenario(
            N=1, R=3.0, T=6.0, y0=[[48.0, 0.0]],
            drift=[ScaledLinearDrift(-8.0)],
            U=[IntervalSet([0.0], [0.0])],   # frozen inner control
            V=[SegmentSet([1.0, 0.0], 12.0)],
            M=[6.0], rho=[1.0], x0=[[48.0, 0.0]],
        )
        grid = uniform_grid(6.0, 600)
        v = constant_profile(grid, [-12.0, 0.0])
        with pytest.raises(InnerInfeasibleError):
            value_function(scn, 0, v)

    def test_monotone_under_control_set_enlargement(self):
        base = dict(
            N=1, R=3.0, T=6.0, y0=[[30.0, 0.0]],
            drift=[ScaledLinearDrift(-8.0)],
            V=[SegmentSet([1.0, 0.0], 8.0)],
            M=[6.0], rho=[1.0], x0=[[30.0, 0.0]],
        )
        grid = uniform_grid(6.0, 600)
        v = constant_profile(grid, [-4.0, 0.0])
        phis = []
        for lo in (0.0, 0.005, 0.01):
            scn = Scenario(U=[IntervalSet([lo], [1.0])], **base)
            phi, _ = value_function(scn, 0, v, InnerOptions(refine=False, multistart=1))
            phis.append(phi)
        assert phis[0] <= phis[1] <= phis[2]
        assert phis[0] < phis[2]

    def test_three_control_coordinates_are_rejected(self):
        # the greedy's planar rule takes two coordinates: value_function runs
        # the check that solve runs, which names the participant and the caller
        scn = Scenario(
            N=1, R=3.0, T=6.0, y0=[[4.0, 0.0]],
            drift=[AffineDrift(np.zeros((2, 2)), np.ones((2, 3)), np.zeros(2))],
            U=[IntervalSet([-0.1] * 3, [0.1] * 3)],
            V=[SegmentSet([1.0, 0.0], 1.0)],
            M=[6.0], rho=[1.0], x0=[[4.0, 0.0]],
        )
        grid = uniform_grid(6.0, 300)
        with pytest.raises(ValueError, match=r"^participant 1: the greedy inner solve takes up "
                                             r"to 2 control coordinates, got 3$"):
            value_function(scn, 0, constant_profile(grid, np.zeros(2)))

    def test_refine_is_rejected(self):
        with pytest.raises(ValueError, match="refine must be False"):
            InnerOptions(refine=True)


def test_greedy_step_kinds_are_pinned():
    """Every kind of greedy step keeps its controls and failing step, bit for
    bit: scaled-linear drift with an interval U (the two-disk case-study
    plans), and in the mixed N=4 scenario an isotropic ball, a 2-D interval
    (the ellipse's nearest point) and a segment under affine drift, at the
    scenario's caps and at caps tight enough to need nonzero controls."""
    twodisk = solve_twodisk_parametric(make_twodisk(), grid_K=600)[1]
    mixed = mixed_solution(K=300)
    s = mixed.scenario
    tight = Scenario(N=s.N, R=s.R, T=s.T, y0=s.y0, drift=s.drift, U=s.U, V=s.V,
                     M=[2.0, 2.5, 1.8, 1.8], rho=s.rho, x0=s.x0)
    assert np.array_equal(s.drift[1].B, np.eye(2)) and isinstance(s.U[1], BallSet)
    sha, steps = hashlib.sha256(), []
    for scn, sol in ((twodisk.scenario, twodisk), (s, mixed), (tight, mixed)):
        for i in range(scn.N):
            u, fail = bilevel._greedy_min_effort(scn, i, sol.y.states[:, i], sol.y.grid, scn.x0[i])
            sha.update(repr(fail).encode() if u is None else u.tobytes())
            # steps with a nonzero control, or the failing step
            steps.append(("fail", fail) if u is None else int(np.count_nonzero(np.any(u, axis=1))))
    assert steps == [574, 574, 0, 0, 0, 0, ("fail", 150), 95, 75, 81]
    assert sha.hexdigest() == "e4c194f7a22d82234025dba54ef3e1d0144527e242f55413e079bdeb3f141474"


@pytest.mark.parametrize("case, i", [("twodisk", 0), ("tight", 1), ("tight", 2), ("edge", 2),
                                     ("tight", 3)],
                         ids=["scaled-line", "ball", "ellipse", "box-edge", "affine-line"])
def test_greedy_steps_as_the_catchup_steps(monkeypatch, case, i):
    """For the controls the greedy inner solve returns, the catch-up gives the
    states the solve stepped, bit for bit, on each branch of the rules: the
    two-disk case's scaled-linear line, and in the mixed scenario at the
    greedy pin's tight caps an isotropic ball, the ellipse's nearest point
    in a box and an affine segment.  A cap of 1.5 on the box participant
    puts every nonzero control on an edge of the box."""
    if case == "twodisk":
        sol = solve_twodisk_parametric(make_twodisk(), grid_K=600)[1]
        scn = sol.scenario
    else:
        sol = mixed_solution(K=300)
        scn = dataclasses.replace(sol.scenario, M=[2.0, 2.5, 1.5 if case == "edge" else 1.8, 1.8])
    stepped, make = [], bilevel._float_step

    def recording(drift, R):
        step = make(drift, R)
        return lambda *args: stepped.append(step(*args)) or stepped[-1]
    monkeypatch.setattr(bilevel, "_float_step", recording)
    grid, ypath = sol.y.grid, sol.y.states[:, i]
    u, fail = bilevel._greedy_min_effort(scn, i, ypath, grid, scn.x0[i])
    moved = u[np.any(u, axis=1)]
    assert fail is None and len(moved) >= 70
    if isinstance(scn.U[i], IntervalSet) and scn.U[i].dim == 2:
        on_edge = np.any((moved == scn.U[i].lo) | (moved == scn.U[i].hi), axis=1)
        assert on_edge.all() if case == "edge" else not on_edge.any()
    one = Scenario(N=1, R=scn.R, T=scn.T, y0=scn.y0[i:i + 1], x0=scn.x0[i:i + 1],
                   drift=[scn.drift[i]], U=[scn.U[i]], V=[scn.V[i]], M=scn.M[i:i + 1],
                   rho=scn.rho[i:i + 1])
    x = integrate_lower_catchup(one, Trajectory(grid=grid, states=ypath[:, None]),
                                [ControlProfile(grid=grid, values=u)], one.x0)
    assert np.array_equal(np.array(stepped)[:, :2].view(np.int64), x.states[1:, 0].view(np.int64))


GRID_SPACING = 0.005


def _dense_grid(cset):
    """The controls of U on a grid of spacing ``GRID_SPACING``, and their norms."""
    if isinstance(cset, IntervalSet):
        lo, hi = cset.lo, cset.hi
    else:
        lo, hi = [-cset.radius] * 2, [cset.radius] * 2
    axes = [np.linspace(a, b, int(round((b - a) / GRID_SPACING)) + 1) for a, b in zip(lo, hi)]
    u = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    u = u[cset.distances(u) == 0.0]
    return u, np.linalg.norm(u, axis=1)


@pytest.mark.parametrize("cset", [IntervalSet([-1.0, -0.5], [1.0, 0.8]),
                                  IntervalSet([0.1, 0.2], [1.0, 0.8]), BallSet(1.0)],
                         ids=["box", "box-without-0", "ball"])
@pytest.mark.parametrize("kind", ["random", "non-isotropic", "rank-1"])
def test_planar_step_matches_a_dense_grid(cset, kind):
    """The two-coordinate greedy step against the least-norm reaching control
    on a dense grid of U: feasible (in U even where u = 0 would reach, for a
    box without 0), no larger than the grid's minimum plus one spacing, and
    never None where the grid finds a reaching control.
    Odd draws aim at r_eff = 1 + 6h with h = 0.01, even draws at a tight
    r_eff = 0.01 with h = 0.05; each target lies near the predicted point of
    a control drawn around U, so some steps need no control and some have
    none in U."""
    rng = np.random.default_rng(7)
    grid, norms = _dense_grid(cset)
    need = 0
    for n in range(60):
        h, r_eff = (0.01, 1.06) if n % 2 else (0.05, 0.01)
        if kind == "random":
            B = rng.normal(size=(2, 2))
        elif kind == "non-isotropic":
            th = rng.uniform(0, math.pi)
            rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            B = rot @ np.diag([1.5, 0.4]) @ rot.T
        else:
            B = np.outer(rng.normal(size=2), rng.normal(size=2))
        drift = AffineDrift(0.2 * rng.normal(size=(2, 2)), B, 0.2 * rng.normal(size=2))
        x = rng.uniform(-2.0, 2.0, 2)
        p0 = x + h * drift.value(x, np.zeros(2))
        e = rng.normal(size=2)
        center = (p0 + h * B @ rng.uniform([-1.2, -0.7], [1.2, 1.0])
                  + r_eff * rng.uniform(0.9, 1.1) * e / np.linalg.norm(e))

        u = bilevel._greedy_step(drift, cset)(*x, h, *center, r_eff)
        u = None if u is None else np.array(u)
        W = h * B
        reach = np.linalg.norm(p0 + (W[:, 0] * grid[:, :1] + W[:, 1] * grid[:, 1:])
                               - center, axis=1) <= r_eff
        best = float(np.min(norms[reach])) if reach.any() else None
        if best is not None:
            assert u is not None, n
            assert norm(u) <= best + GRID_SPACING, n
            need += best > GRID_SPACING
        if u is not None:
            assert cset.distances(u[None])[0] <= 1e-12, n
            assert norm(x + h * drift.value(x, u) - center) <= r_eff * (1 + 1e-9), n
    assert need >= 20       # steps that need a control


class TestParametricSolver:
    def test_reference_values(self, twodisk_solution):
        params, sol = twodisk_solution
        assert 5.910 <= params.t_b <= 5.920
        assert 11.85 <= params.v_bar <= 11.87
        assert 0.252 <= params.t_a <= 0.254

    @pytest.mark.parametrize("rotate, changes, pinned", [
        (0.0, {}, TWODISK_ONSET),
        (0.7, {}, TWODISK_ONSET),
        (1.9, {}, TWODISK_ONSET),
        (-2.4, {}, TWODISK_ONSET),
        (0.0, dict(drift=[ScaledLinearDrift(-150.0)] * 2),
         "(0.25388993725936254, 5.99548195171207, 11.816143768373676)"),
        (0.0, dict(drift=[ScaledLinearDrift(-1e4)] * 2),
         "(0.2539414893213364, 5.999932249578506, 11.813745000935288)"),
        (0.0, dict(drift=[ScaledLinearDrift(-0.5)] * 2),
         "(0.23486982796303663, 4.488846677376175, 12.773032730590387)"),
        (0.0, dict(drift=[ScaledLinearDrift(-30.0)] * 2),
         "(0.2536800158590597, 5.977382186477463, 11.825921682639553)"),
        (0.0, dict(T=6.5), "(0.27431606648949014, 6.42495910881229, 10.936289800272922)"),
        (0.0, dict(M=[9.0, 9.0]), "(0.2537622291150917, 5.965906841554713, 11.822090349936891)"),
    ], ids=["0.0", "0.7", "1.9", "-2.4", "c=-150", "c=-1e4", "c=-0.5", "c=-30", "T=6.5", "M=9"])
    def test_onset_is_pinned(self, rotate, changes, pinned):
        """The bisection for the root of g(t_b) = -R, run to adjacent doubles
        and ending on the one with the smaller |g + R| (the lower on a tie),
        gives (t_a, t_b, v_bar) bit for bit.  On the rotations a golden-section
        bracket on the terminal cost agrees.  Ending on the upper double alone
        fails five of the variants, ending on the lower one fails the
        rotations and c = -0.5, and the T = 6.5 case is a tie."""
        scn = dataclasses.replace(make_twodisk(rotate=rotate), **changes)
        params, _sol = solve_twodisk_parametric(scn, grid_K=60)
        assert repr((params.t_a, params.t_b, params.v_bar)) == pinned

    def test_cost_converges_at_second_order(self):
        """J_H - 9 falls by a factor near 4 per halving of the step."""
        gaps = [solve_twodisk_parametric(make_twodisk(), grid_K=K)[1].J_H - 9.0
                for K in (300, 600, 1200, 2400)]
        ratios = [a / b for a, b in zip(gaps, gaps[1:])]
        assert all(3.5 <= r <= 4.5 for r in ratios), ratios

    def test_structural_identities(self, twodisk_solution):
        params, _sol = twodisk_solution
        assert params.v_bar * params.t_a == pytest.approx(3.0, abs=1e-6)
        assert params.v_bar == pytest.approx(
            8 * float(params.gamma2(params.t_b)) + 6, abs=1e-3
        )
        assert params.v_bar * (8 * params.t_b + 1) / 8 == pytest.approx(
            48 * S2 + 3.75, abs=1e-3
        )
        # both closed forms of the saturation distance agree
        lin = 48 * S2 + 3 - params.v_bar * params.t_b
        assert (params.v_bar - 6) / 8 == pytest.approx(lin, abs=1e-2)

    def test_terminal_geometry(self, twodisk_solution):
        params, sol = twodisk_solution
        yT = sol.y.terminal()
        assert np.allclose(yT[params.near], -3 * VHAT, atol=0.01)
        assert np.allclose(yT[params.far], 3 * VHAT, atol=0.01)
        assert sol.J_H == pytest.approx(9.0, abs=0.01)
        assert float(params.gamma2(6.0)) == pytest.approx(0.0, abs=0.01)

    def test_rotation_invariance(self, twodisk_solution):
        params, sol = twodisk_solution
        rotated = make_twodisk(rotate=0.7)
        params2, sol2 = solve_twodisk_parametric(rotated, grid_K=1200)
        assert params2.t_a == pytest.approx(params.t_a, abs=1e-9)
        assert params2.t_b == pytest.approx(params.t_b, abs=1e-9)
        assert params2.v_bar == pytest.approx(params.v_bar, abs=1e-9)
        assert sol2.J_H == pytest.approx(sol.J_H, abs=1e-3)

    def test_family_mismatch_rejected(self):
        scn = Scenario(
            N=1, R=3.0, T=6.0, y0=[[10.0, 0.0]],
            drift=[ScaledLinearDrift(-8.0)],
            U=[IntervalSet([0.0], [1.0])],
            V=[SegmentSet([1.0, 0.0], 5.0)],
            M=[6.0], rho=[1.0], x0=[[10.0, 0.0]],
        )
        with pytest.raises(UnsupportedFamilyError):
            solve_twodisk_parametric(scn)


class TestClosedFormControls:
    def test_near_control_saturates_continuously(self, twodisk_solution):
        params, _sol = twodisk_solution
        # the ride formula meets the saturated arc with value one
        assert (params.v_bar - 6) / (8 * float(params.gamma2(params.t_b))) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_far_control_stays_interior_and_vanishes_at_horizon(self, twodisk_solution):
        params, sol = twodisk_solution
        u_far = sol.u[params.far].values
        assert np.max(u_far) < 1.0
        assert u_far[-1, 0] == pytest.approx(0.0, abs=0.02)

    def test_profiles_respect_control_sets(self, twodisk, twodisk_solution):
        params, sol = twodisk_solution
        for i in range(2):
            assert sol.u[i].max_set_distance(twodisk.U[i]) <= 1e-12
            assert sol.v[i].max_set_distance(twodisk.V[i]) <= 1e-9


class TestDirectSolver:
    def test_frozen_upper_level(self):
        y0 = 10 * VHAT
        scn = Scenario(
            N=1, R=3.0, T=6.0, y0=[y0],
            drift=[ScaledLinearDrift(-8.0)],
            U=[IntervalSet([0.0], [1.0])],
            V=[SegmentSet(VHAT, 0.0)],
            M=[6.0], rho=[1.0], x0=[y0],
        )
        sol = solve_bilevel_direct(scn, coarse_grid_K=4, seed=0, sim_K=120, max_evals=200)
        assert sol.J_H == pytest.approx(0.5 * np.dot(y0, y0), abs=1e-9)

    def test_single_disk_reaches_exit_at_rest_cost(self):
        y0 = 10 * VHAT
        scn = Scenario(
            N=1, R=3.0, T=6.0, y0=[y0],
            drift=[ScaledLinearDrift(-8.0)],
            U=[IntervalSet([0.0], [1.0])],
            V=[SegmentSet(VHAT, 10.0)],
            M=[6.0], rho=[1.0], x0=[y0],
        )
        sol = solve_bilevel_direct(scn, coarse_grid_K=4, seed=0, sim_K=240, max_evals=1500)
        assert sol.J_H <= 0.05
        assert sol.feasibility.max_violation <= 1e-6


def _free_start_scenario(M=(3.0, 3.0)):
    """Free x0 with ball and interval sets at both levels: the only direct
    search over the ball and interval branches of the velocity layout.  At
    M = 3 the disk centers always admit a greedy inner control; at M = 1
    they often do not, and the drawn initial points take over."""
    return Scenario(
        N=2, R=1.0, T=2.0, y0=[[4.0, 1.0], [1.0, 4.0]],
        drift=[AffineDrift(-0.1 * np.eye(2), np.eye(2), [0.0, 0.0]),
               AffineDrift([[0.0, -0.2], [0.2, 0.0]], [[1.0], [0.5]], [0.1, 0.0])],
        U=[BallSet(1.0), IntervalSet([-1.0], [1.0])],
        V=[BallSet(2.0), IntervalSet([-2.0, -1.5], [1.0, 2.0])],
        M=list(M), rho=[1.0, 1.0], x0=None,
    )


@pytest.mark.parametrize("make, options, J_H, calls, inner, digest", [
    (make_twodisk, dict(coarse_grid_K=2, seed=0, sim_K=60, max_evals=400),
     9.003941884234585, 404, 50,
     "1a70897a5a47f543a09eb80aa2ad09505360c94e4a0243db108823cdf2395a67"),
    (_free_start_scenario, dict(coarse_grid_K=2, seed=3, sim_K=60, max_evals=300),
     1.2610329192126035, 311, 38,
     "9bf5ff4b5a7122068e963728129c82ca9c1c9b81009553a3b1435747d711364d"),
    (lambda: _free_start_scenario(M=(1.0, 1.0)),
     dict(coarse_grid_K=2, seed=3, sim_K=60, max_evals=300),
     1.1994657763508747, 307, 73,
     "1e4b5dcc65f51592c2cd16660dcc1b2f7f73ee8ffdb9bb42d1371d550bf81762"),
], ids=["twodisk", "free-start-ball-interval", "free-start-M1"])
def test_direct_search_path_is_pinned(monkeypatch, make, options, J_H, calls, inner, digest):
    """The search path is fixed: the same poll order, accepted trials, skipped
    trials, evaluation budget and random draws give the same plan, bit for
    bit, from the same number of upper integrations and greedy inner solves.
    Each trial is one translation; the winner's solution integrates once
    more.  The inner solves run only for trials whose score would be
    accepted."""
    counts = {}
    for name in ("integrate_upper", "_translation_path", "_greedy_min_effort"):
        def counted(*args, _f=getattr(bilevel, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(bilevel, name, counted)
    sol = solve_bilevel_direct(make(), **options)
    arrays = [p.values for p in sol.v] + [p.values for p in sol.u] + [sol.x.states]
    sha = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
    assert sol.J_H == J_H
    assert counts == {"integrate_upper": 1, "_translation_path": calls - 1,
                      "_greedy_min_effort": inner}
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("make", [make_twodisk, _free_start_scenario],
                         ids=["twodisk", "free-start-ball-interval"])
def test_direct_search_trials_lie_in_V(monkeypatch, make):
    """Every scored trial's disk velocities lie in V, within the tolerance of
    the membership check that ``integrate_upper`` applies: segment V on the
    two-disk case, ball and interval V on the free-start one."""
    scn = make()
    trials, translation = [], bilevel._translation_path

    def recorded(y0, grid, velocities):
        trials.append(velocities.copy())
        return translation(y0, grid, velocities)
    monkeypatch.setattr(bilevel, "_translation_path", recorded)
    solve_bilevel_direct(scn, coarse_grid_K=2, seed=3, sim_K=60, max_evals=300)
    assert len(trials) > 100
    for i, cset in enumerate(scn.V):
        tol = cset._tol
        worst = max(float(np.max(cset.distances(v[:, i]))) for v in trials)
        assert worst <= tol, (i, worst)
