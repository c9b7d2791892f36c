import ast
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from crowdsweep import bilevel, dynamics, nco
from crowdsweep.bilevel import closed_form_controls, solve_twodisk_parametric
from crowdsweep.cli import parse_scenario
from crowdsweep.dynamics import (
    AffineDrift,
    BallSet,
    ControlProfile,
    FeasibilityReport,
    IntervalSet,
    InfeasibleControlError,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    Trajectory,
    TruncationViolationError,
    check_feasibility,
    constant_profile,
    cost_lower,
    cost_upper,
    h5_bounds,
    integrate_lower_catchup,
    integrate_lower_penalty,
    integrate_upper,
    uniform_grid,
)
from crowdsweep.nco import LowerMultipliers, UpperMultipliers

from conftest import S2, VHAT, arc_sampled_controls, make_twodisk, norm

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")
CHAIN3 = os.path.join(SCENARIOS, "chain3.scn")


def single_disk(y0=(0.0, 0.0), V=None, M=6.0, T=6.0):
    return Scenario(
        N=1,
        R=3.0,
        T=T,
        y0=[y0],
        drift=[ScaledLinearDrift(-8.0)],
        U=[IntervalSet([0.0], [1.0])],
        V=[V if V is not None else SegmentSet(VHAT, 10 * S2)],
        M=[M],
        rho=[1.0],
        x0=[y0],
    )


class TestIntegrateUpper:
    def test_rest(self):
        scn = single_disk(y0=(5.0, 1.0))
        grid = uniform_grid(6.0, 60)
        y = integrate_upper(scn, [constant_profile(grid, np.zeros(2))])
        assert np.allclose(y.states, scn.y0[0])

    def test_exact_linear_translation(self):
        scn = single_disk(y0=tuple(48 * S2 * VHAT))
        grid = uniform_grid(6.0, 240)
        vbar = 11.0
        y = integrate_upper(scn, [constant_profile(grid, -vbar * VHAT)])
        expect = 48 * S2 - vbar * grid
        assert np.allclose(y.states[:, 0, :] @ VHAT, expect, atol=1e-9)

    def test_rigid_translation_conserves_distance(self, twodisk):
        grid = uniform_grid(6.0, 120)
        v = [constant_profile(grid, -7.0 * VHAT) for _ in range(2)]
        y = integrate_upper(twodisk, v)
        dist = np.linalg.norm(y.states[:, 0, :] - y.states[:, 1, :], axis=1)
        assert np.max(np.abs(dist - 6.0)) <= 1e-9

    def test_control_outside_set_rejected(self):
        scn = single_disk()
        grid = uniform_grid(6.0, 10)
        with pytest.raises(InfeasibleControlError):
            integrate_upper(scn, [constant_profile(grid, 20 * S2 * VHAT)])


class TestCatchUp:
    def test_rest_at_center(self):
        scn = single_disk()
        grid = uniform_grid(6.0, 100)
        v = [constant_profile(grid, np.zeros(2))]
        u = [constant_profile(grid, [0.0])]
        y = integrate_upper(scn, v)
        x = integrate_lower_catchup(scn, y, u, scn.x0)
        assert np.allclose(x.states, scn.x0[0])
        assert not x.contact.any()

    def test_boundary_ride_from_contact_onset(self, twodisk, twodisk_solution):
        params, sol = twodisk_solution
        near = params.near
        dist = np.linalg.norm(
            sol.x.states[:, near, :] - sol.y.states[:, near, :], axis=1
        )
        h = sol.x.grid[1]
        onset = int(np.argmax(sol.x.contact[:, near]))
        assert abs(sol.x.grid[onset] - params.t_a) <= h
        assert params.v_bar * params.t_a == pytest.approx(3.0, abs=1e-9)
        # once on the boundary it stays there until the final time
        assert np.max(np.abs(dist[onset:] - 3.0)) <= 6 * h
        assert sol.x.contact[onset:, near].all()

    def test_truncation_violation_is_diagnosed(self):
        scn = single_disk(y0=tuple(10 * VHAT), M=0.5)
        grid = uniform_grid(6.0, 600)
        v = [constant_profile(grid, -5.0 * VHAT)]
        u = [constant_profile(grid, [0.0])]
        y = integrate_upper(scn, v)
        with pytest.raises(TruncationViolationError) as err:
            integrate_lower_catchup(scn, y, u, scn.x0)
        assert err.value.participant == 0
        assert str(err.value).startswith("participant 1 at t=")
        assert err.value.magnitude > 0.5

    def test_mismatched_grid_rejected(self):
        scn = single_disk()
        grid = uniform_grid(6.0, 50)
        y = integrate_upper(scn, [constant_profile(grid, np.zeros(2))])
        u = [constant_profile(uniform_grid(6.0, 40), [0.0])]
        with pytest.raises(ValueError):
            integrate_lower_catchup(scn, y, u, scn.x0)

    def test_lowest_participant_reported_at_its_own_first_violation(self):
        # both disks outrun their populations; participant 2 is faster and
        # leaves its cap behind first, yet a participant-by-participant
        # sweep reports participant 1 at its own first violating step
        speeds = (4.0, 9.0)
        scn = Scenario(
            N=2, R=3.0, T=3.0,
            y0=[[0.0, 0.0], [20.0, 0.0]],
            drift=[ScaledLinearDrift(-8.0)] * 2,
            U=[IntervalSet([0.0], [1.0])] * 2,
            V=[BallSet(10.0)] * 2,
            M=[0.5, 0.5],
            rho=[1.0, 1.0],
            x0=[[0.0, 0.0], [20.0, 0.0]],
        )
        grid = uniform_grid(3.0, 300)
        v = [constant_profile(grid, [0.0, c]) for c in speeds]
        u = [constant_profile(grid, [0.0])] * 2
        y = integrate_upper(scn, v)
        with pytest.raises(TruncationViolationError) as both:
            integrate_lower_catchup(scn, y, u, scn.x0)
        alone = []
        for i in range(2):
            one = Scenario(N=1, R=3.0, T=3.0, y0=scn.y0[i : i + 1], drift=scn.drift[:1],
                           U=scn.U[:1], V=scn.V[:1], M=[0.5], rho=[1.0],
                           x0=scn.x0[i : i + 1])
            with pytest.raises(TruncationViolationError) as err:
                integrate_lower_catchup(one, integrate_upper(one, [v[i]]), [u[i]], one.x0)
            alone.append(err.value)
        assert alone[1].time < alone[0].time
        assert both.value.participant == 0
        assert (both.value.time, both.value.magnitude) == (alone[0].time, alone[0].magnitude)

    def test_non_finite_controls_rejected(self):
        scn = single_disk()
        grid = uniform_grid(6.0, 10)
        bad = np.zeros((10, 2))
        bad[3, 1] = np.nan
        with pytest.raises(InfeasibleControlError):
            integrate_upper(scn, [ControlProfile(grid=grid, values=bad)])
        y = integrate_upper(scn, [constant_profile(grid, np.zeros(2))])
        u = np.zeros((10, 1))
        u[7] = np.nan
        with pytest.raises(InfeasibleControlError):
            integrate_lower_catchup(scn, y, [ControlProfile(grid=grid, values=u)], scn.x0)


def _reference_catchup(scenario, y, u, x0):
    """Participant-by-participant catch-up loop, one grid step at a time."""
    K, R = y.grid.size - 1, scenario.R
    states = np.empty((K + 1, scenario.N, 2))
    contact = np.zeros((K + 1, scenario.N), dtype=bool)
    for i in range(scenario.N):
        x = states[0, i] = x0[i]
        contact[0, i] = norm(x0[i] - y.states[0, i]) >= R - 1e-9 * R
        for k in range(K):
            h = y.grid[k + 1] - y.grid[k]
            pred = x + h * scenario.drift[i].value(x, u[i].values[k])
            off = pred - y.states[k + 1, i]
            dist = float(np.hypot(off[0], off[1]))
            x = y.states[k + 1, i] + (R / dist) * off if dist > R else pred
            states[k + 1, i], contact[k + 1, i] = x, dist >= R - 1e-9 * R
    return states, contact


def _reference_penalty(scenario, y, u, x0, step, k):
    """Participant-by-participant penalty loop with explicit substeps."""
    K, layer = y.grid.size - 1, scenario.R * (1.0 - 1.0 / math.sqrt(k))
    states = np.empty((K + 1, scenario.N, 2))
    for i in range(scenario.N):
        x = states[0, i] = x0[i]
        for kk in range(K):
            h = y.grid[kk + 1] - y.grid[kk]
            nsub = max(1, int(math.ceil(h / step)))
            hs = h / nsub
            dy = (y.states[kk + 1, i] - y.states[kk, i]) / h
            for sub in range(nsub):
                off = x - (y.states[kk, i] + ((sub + 0.5) * hs) * dy)
                dist = float(np.hypot(off[0], off[1]))
                f = scenario.drift[i].value(x, u[i].values[kk])
                if dist > layer and dist > 0.0:
                    f = f - (min(k * (dist - layer), scenario.M[i]) / dist) * off
                x = x + hs * f
            states[kk + 1, i] = x
    return states


class TestLanesMatchPerParticipantLoops:
    @pytest.fixture
    def mixed(self):
        """Scaled-linear and affine lanes side by side, riding their disks."""
        rng = np.random.default_rng(8)
        scn = Scenario(
            N=3, R=1.0, T=2.0,
            y0=[[3.0, 1.0], [-3.0, 2.0], [0.5, -4.0]],
            drift=[ScaledLinearDrift(-0.7),
                   AffineDrift([[0.1, -0.4], [0.4, -0.2]], [[1.0, 0.3], [0.0, 0.8]], [0.2, -0.1]),
                   AffineDrift([[0.0, 0.3], [-0.3, 0.0]], [[0.5], [1.0]], [-0.3, 0.1])],
            U=[IntervalSet([0.0], [1.0]), BallSet(1.0), IntervalSet([-1.0], [1.0])],
            V=[BallSet(1.5)] * 3, M=[4.0] * 3, rho=[1.0] * 3,
            x0=[[3.2, 1.1], [-3.0, 1.5], [0.2, -4.3]],
        )
        grid = uniform_grid(2.0, 160)
        v = [ControlProfile(grid=grid, values=np.resize(rng.uniform(-1, 1, (7, 2)), (160, 2)))
             for _ in range(3)]
        u = [ControlProfile(grid=grid, values=np.resize(rng.uniform(lo, hi, (5, m)), (160, m)))
             for lo, hi, m in ((0, 1, 1), (-0.6, 0.6, 2), (-1, 1, 1))]
        return scn, integrate_upper(scn, v), u

    def test_catchup_matches(self, mixed):
        scn, y, u = mixed
        x = integrate_lower_catchup(scn, y, u, scn.x0)
        states, contact = _reference_catchup(scn, y, u, scn.x0)
        assert x.contact[1:].any() and not x.contact.all()
        assert np.array_equal(x.states, states) and np.array_equal(x.contact, contact)

    @pytest.fixture
    def affine(self):
        """Affine lanes only, one with a scalar control and two planar ones,
        riding their disks part of the time."""
        rng = np.random.default_rng(10)
        scn = Scenario(
            N=3, R=1.0, T=2.0,
            y0=[[3.0, 1.0], [-3.0, 2.0], [0.5, -4.0]],
            drift=[AffineDrift([[-0.7, 0.0], [0.0, -0.7]], [[0.6], [0.3]], [0.1, 0.0]),
                   AffineDrift([[0.1, -0.4], [0.4, -0.2]], [[1.0, 0.3], [0.0, 0.8]], [0.2, -0.1]),
                   AffineDrift([[0.0, 0.3], [-0.3, 0.0]], np.eye(2), [-0.3, 0.1])],
            U=[IntervalSet([0.0], [1.0]), BallSet(1.0), IntervalSet([-1.0, -0.5], [1.0, 0.5])],
            V=[BallSet(1.5)] * 3, M=[4.0] * 3, rho=[1.0] * 3,
            x0=[[3.2, 1.1], [-3.0, 1.5], [0.2, -4.3]],
        )
        grid = uniform_grid(2.0, 160)
        v = [ControlProfile(grid=grid, values=np.resize(rng.uniform(-1, 1, (7, 2)), (160, 2)))
             for _ in range(3)]
        u = [ControlProfile(grid=grid, values=np.resize(rng.uniform(lo, hi, (5, m)), (160, m)))
             for lo, hi, m in ((0, 1, 1), (-0.6, 0.6, 2), (-0.5, 0.5, 2))]
        return scn, integrate_upper(scn, v), u

    def test_penalty_matches(self, mixed, scaled, affine):
        """Every shape of the lane arrays (mixed, all scaled-linear and all
        affine lanes), at a soft and a stiff penalty, with the pull on."""
        for scn, y, u in (mixed, scaled, affine):
            for k in (250.0, 1e4):
                x = integrate_lower_penalty(scn, y, u, scn.x0, stiffness=k)
                reference = _reference_penalty(scn, y, u, scn.x0, 1 / (2 * k), k)
                assert x.contact[1:].any() and np.array_equal(x.states, reference)

    @pytest.fixture
    def scaled(self):
        """Scaled-linear lanes only, with different coefficients, riding their
        disks part of the time: the float path's input."""
        rng = np.random.default_rng(9)
        scn = Scenario(
            N=3, R=1.0, T=2.0,
            y0=[[3.0, 1.0], [-3.0, 2.0], [0.5, -4.0]],
            drift=[ScaledLinearDrift(-0.7), ScaledLinearDrift(-1.3), ScaledLinearDrift(0.4)],
            U=[IntervalSet([0.0], [1.0]), IntervalSet([-1.0], [1.0]), IntervalSet([0.0], [2.0])],
            V=[BallSet(1.5)] * 3, M=[6.0] * 3, rho=[1.0] * 3,
            x0=[[3.2, 1.1], [-3.0, 1.5], [0.2, -4.3]],
        )
        grid = uniform_grid(2.0, 160)
        v = [ControlProfile(grid=grid, values=np.resize(rng.uniform(-1, 1, (7, 2)), (160, 2)))
             for _ in range(3)]
        u = [ControlProfile(grid=grid, values=np.resize(rng.uniform(lo, hi, (5, 1)), (160, 1)))
             for lo, hi in ((0, 1), (-1, 1), (0, 2))]
        return scn, integrate_upper(scn, v), u

    def test_scaled_catchup_matches(self, scaled):
        scn, y, u = scaled
        x = integrate_lower_catchup(scn, y, u, scn.x0)
        states, contact = _reference_catchup(scn, y, u, scn.x0)
        assert x.contact[1:].any() and not x.contact.all()
        assert np.array_equal(x.states.view(np.int64), states.view(np.int64))
        assert np.array_equal(x.contact, contact)


def _float_lane_case(case):
    """(scenario, y, u) of one catch-up case that the float path serves."""
    if case.startswith("twodisk"):
        _, rotate, K = case.split("-")
        scn, K = make_twodisk(rotate=float(rotate)), int(K[1:])
        params, _ = solve_twodisk_parametric(scn, grid_K=8)
        v, u = closed_form_controls(params, uniform_grid(scn.T, K))
        return scn, integrate_upper(scn, v), u
    if case == "chain3":
        # three touching disks at speed 5 toward the exit, under small
        # piecewise-constant pulls: each rides its rim part of the time
        scn = parse_scenario(CHAIN3)[0]
        rng, grid = np.random.default_rng(3), uniform_grid(scn.T, 600)
        v = [constant_profile(grid, -5.0 * scn.V[0].direction)] * 3
        u = [ControlProfile(grid=grid, values=np.resize(rng.uniform(0, 0.02, (6, 1)), (600, 1)))
             for _ in range(3)]
        return scn, integrate_upper(scn, v), u
    if case == "truncation":
        # both disks outrun their populations (as in TestCatchUp)
        scn = Scenario(N=2, R=3.0, T=3.0, y0=[[0.0, 0.0], [20.0, 0.0]],
                       drift=[ScaledLinearDrift(-8.0)] * 2, U=[IntervalSet([0.0], [1.0])] * 2,
                       V=[BallSet(10.0)] * 2, M=[0.5, 0.5], rho=[1.0, 1.0],
                       x0=[[0.0, 0.0], [20.0, 0.0]])
        grid = uniform_grid(3.0, 300)
        v = [constant_profile(grid, [0.0, c]) for c in (4.0, 9.0)]
        return scn, integrate_upper(scn, v), [constant_profile(grid, [0.0])] * 2
    # one lane in a resting disk: "interior" is pulled from 1 off the exit
    # toward it and never reaches its rim 3 away; "center" rests on its
    # center with zero drift, so d = 0
    scn = single_disk(y0=(1.0, 0.0)) if case == "interior" else single_disk()
    grid = uniform_grid(6.0, 600)
    y = integrate_upper(scn, [constant_profile(grid, np.zeros(2))])
    return scn, y, [constant_profile(grid, [0.5 if case == "interior" else 0.0])]


class TestFloatLanes:
    """Crowds of up to ``_FLOAT_LANES`` participants, of either drift family,
    step on Python floats; larger crowds take the array loop."""

    @staticmethod
    def _catchup(monkeypatch, scn, y, u):
        """(states as int64 bits, contact) or the truncation error's message
        and fields, and how many participants the float path stepped."""
        calls = []
        float_step = dynamics._float_step
        monkeypatch.setattr(dynamics, "_float_step",
                            lambda *args: calls.append(1) or float_step(*args))
        try:
            x = integrate_lower_catchup(scn, y, u, scn.x0)
        except TruncationViolationError as exc:
            return (str(exc), exc.participant, exc.time, exc.magnitude), len(calls)
        return (x.states.view(np.int64), x.contact), len(calls)

    @pytest.mark.parametrize("case", [f"twodisk-{rotate}-K{K}" for rotate in (0, 0.3, 1.7, 4)
                                      for K in (300, 2400)]
                             + ["chain3", "interior", "center", "truncation"])
    def test_float_lanes_match_array_lanes(self, monkeypatch, case):
        scn, y, u = _float_lane_case(case)
        floats, float_runs = self._catchup(monkeypatch, scn, y, u)
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", 0)
        arrays, array_runs = self._catchup(monkeypatch, scn, y, u)
        assert (float_runs, array_runs) == (scn.N, 0)
        if case == "truncation":
            assert floats == arrays
            assert floats[0].startswith("participant 1 at t=")
            return
        assert np.array_equal(floats[0], arrays[0]) and np.array_equal(floats[1], arrays[1])
        contact = floats[1][1:]
        if case in ("interior", "center"):
            assert not contact.any()
        else:
            assert contact.any() and not contact.all()
        if case == "center":
            assert np.array_equal(floats[0], np.broadcast_to(scn.x0.view(np.int64), floats[0].shape))

    def test_float_distance_is_numpys_hypot(self):
        """The float step's d has the bits of ``np.hypot``, the array loop's
        distance: on random pairs over scales 1e-300 to 1e300, at one scale
        and at two, and on signed zeros, subnormals, infinities and NaN.  A
        NaN d is NaN on both (its sign, which nothing reads, may differ)."""
        rng = np.random.default_rng(25)
        n = 60_000

        def draw(exponents):
            return rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0 ** exponents

        e = rng.uniform(-300, 300, n)
        a = np.concatenate([draw(e), draw(rng.uniform(-300, 300, n))])
        b = np.concatenate([draw(e + rng.uniform(-1, 1, n)), draw(rng.uniform(-300, 300, n))])
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.5e-310, 1.0, 1.5e308, -1.5e308,
                   1.7976931348623157e308, math.inf, -math.inf, math.nan]
        a = np.concatenate([a, np.repeat(special, len(special))])
        b = np.concatenate([b, np.tile(special, len(special))])
        # (0, 0) + 0 f(0, u) lands at 0, so the offset from the center (-a, -b) is (a, b)
        step = dynamics._float_step(ScaledLinearDrift(1.0), math.inf)
        d = np.array([step(0.0, 0.0, 0.0, (0.0,), -a_k, -b_k)[2]
                      for a_k, b_k in zip(a.tolist(), b.tolist())])
        with np.errstate(over="ignore"):
            expect = np.hypot(a, b)
        nan = np.isnan(expect)
        assert nan.any() and np.array_equal(np.isnan(d), nan)
        assert np.array_equal(d[~nan].view(np.int64), expect[~nan].view(np.int64))
        assert (np.isinf(expect) & np.isfinite(a) & np.isfinite(b)).any()   # lengths that overflow

    @pytest.mark.parametrize("case", ["scaled-N7", "mixed-N7"])
    def test_array_path_serves(self, monkeypatch, case):
        N = 7
        scaled = N if case == "scaled-N7" else 2
        affine = AffineDrift(np.zeros((2, 2)), [[1.0], [0.0]], [0.0, 0.0])
        scn = Scenario(N=N, R=1.0, T=2.0, y0=[[4.0 * i, 0.0] for i in range(N)],
                       drift=[ScaledLinearDrift(-0.5)] * scaled + [affine] * (N - scaled),
                       U=[IntervalSet([0.0], [1.0])] * N,
                       V=[BallSet(1.0)] * N, M=[4.0] * N, rho=[1.0] * N,
                       x0=[[4.0 * i, 0.5] for i in range(N)])
        grid = uniform_grid(scn.T, 40)
        y = integrate_upper(scn, [constant_profile(grid, np.zeros(2))] * scn.N)
        u = [constant_profile(grid, np.zeros(drift.control_dim)) for drift in scn.drift]
        assert self._catchup(monkeypatch, scn, y, u)[1] == 0

    @pytest.mark.parametrize("N", [3, 4, None], ids=["N3", "N4", "all"])
    @pytest.mark.parametrize("case", ["affine", "mixed", "scaled"])
    def test_every_family_matches_bit_for_bit(self, monkeypatch, case, N):
        """The in-place loop's crowds with their signed zeros, whole (N = 5
        or 6) and cut to their first N participants, which keep participant
        1's zeros: the float path, the array loop and the per-participant
        loop give the same bits.  The cut crowds take the float path
        unbidden."""
        scn, y, u = _in_place_case(case)
        if N is None:
            monkeypatch.setattr(dynamics, "_FLOAT_LANES", scn.N)
        else:
            scn = Scenario(N=N, R=scn.R, T=scn.T, y0=scn.y0[:N], x0=scn.x0[:N],
                           drift=scn.drift[:N], U=scn.U[:N], V=scn.V[:N], M=scn.M[:N],
                           rho=scn.rho[:N])
            y, u = Trajectory(grid=y.grid, states=y.states[:, :N]), u[:N]
        floats, float_runs = self._catchup(monkeypatch, scn, y, u)
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", 0)
        arrays, array_runs = self._catchup(monkeypatch, scn, y, u)
        states, contact = _reference_catchup(scn, y, u, scn.x0)
        assert (float_runs, array_runs) == (scn.N, 0)
        assert np.array_equal(floats[0], arrays[0]) and np.array_equal(floats[1], arrays[1])
        assert np.array_equal(floats[0], states.view(np.int64))
        assert np.array_equal(floats[1], contact)
        assert floats[1][1:].any() and not floats[1].all()
        if case == "affine":
            assert np.signbit(scn.x0[0, 1]) and scn.x0[0, 1] == 0.0

    @pytest.mark.parametrize("N", [2, 5])
    def test_mixed_crowd_keeps_a_resting_negative_zero(self, monkeypatch, N):
        """A scaled-linear participant at rest on (0, -0.0) with s = +0.0, beside
        affine ones: each path keeps its -0.0, which the affine lanes' zero
        terms A x + B u + b, added to its drift, would turn into +0.0."""
        scn = Scenario(N=N, R=1.0, T=1.0, y0=[[3.0 * i, 0.0] for i in range(N)],
                       x0=[[3.0 * i, -0.0] for i in range(N)],
                       drift=[ScaledLinearDrift(0.5)]
                       + [AffineDrift(np.zeros((2, 2)), np.eye(2), [0.0, 0.0])] * (N - 1),
                       U=[IntervalSet([-1.0], [1.0])] + [BallSet(1.0)] * (N - 1),
                       V=[BallSet(1.0)] * N, M=[5.0] * N, rho=[1.0] * N)
        grid = uniform_grid(1.0, 10)
        y = integrate_upper(scn, [constant_profile(grid, [0.0, 0.0])] * N)
        u = [constant_profile(grid, [0.0])] + [constant_profile(grid, [0.0, 0.0])] * (N - 1)
        states, _contact = _reference_catchup(scn, y, u, scn.x0)
        for lanes in (N, 0):    # the float path, then the array loop
            monkeypatch.setattr(dynamics, "_FLOAT_LANES", lanes)
            x = integrate_lower_catchup(scn, y, u, scn.x0)
            assert np.array_equal(x.states.view(np.int64), states.view(np.int64))
            assert np.signbit(x.states[-1, 0, 1])


def _in_place_case(case):
    """(scenario, y, u) of one catch-up case of the array loop, run with the
    float path turned off (the overflow cases run both paths)."""
    rng = np.random.default_rng(11)
    if case == "truncation":
        # participants 2 and 4 are dragged off at speeds 4 and 9: 4 leaves its
        # cap behind first, yet 2 is reported, at its own first violation
        N, grid = 5, uniform_grid(3.0, 300)
        scn = Scenario(N=N, R=3.0, T=3.0, y0=[[10.0 * i, 0.0] for i in range(N)],
                       x0=[[10.0 * i, 0.0] for i in range(N)],
                       drift=[AffineDrift(np.zeros((2, 2)), np.eye(2), np.zeros(2))] * N,
                       U=[BallSet(1.0)] * N, V=[BallSet(10.0)] * N, M=[0.5] * N, rho=[1.0] * N)
        v = [constant_profile(grid, [0.0, c]) for c in (0.0, 4.0, 0.0, 9.0, 0.0)]
        return scn, integrate_upper(scn, v), [constant_profile(grid, np.zeros(2))] * N
    if case in ("overflow", "overflow-distance"):
        # participant 2's drift is finite.  "overflow": its step h f is not;
        # "overflow-distance": h f is 1.3e308 a coordinate, finite, and only
        # the offset's length overflows
        grid = uniform_grid(4.0, 2)
        b = [1.5e308, 0.0] if case == "overflow" else [6.5e307, 6.5e307]
        scn = Scenario(N=2, R=1.0, T=4.0, y0=[[0.0, 0.0], [5.0, 0.0]], x0=[[0.0, 0.0], [5.0, 0.0]],
                       drift=[AffineDrift(np.zeros((2, 2)), np.eye(2), drive)
                              for drive in ([0.0, 0.0], b)],
                       U=[BallSet(1.0)] * 2, V=[BallSet(1.0)] * 2, M=[1.0] * 2, rho=[1.0] * 2)
        zero = [constant_profile(grid, np.zeros(2))] * 2
        return scn, integrate_upper(scn, zero), zero
    # moving disks drag their populations onto the rim part of the time.
    # "affine": participant 1 rests at x0 = (y0 + 0.25, -0.0) under a drift
    # of zero A and zero controls, 3 has a zero row in A and 4 a zero b, and
    # 1 and 5 have zero controls for half the horizon.  "mixed" makes 1 and 2
    # scaled-linear, 1 with u = 0 throughout (s = -0.0) and 2 for a third;
    # "scaled" makes all six scaled-linear, with the same zero stretches
    N, K = (5, 200) if case == "mixed" else (6, 200)
    scaled = {"affine": 0, "mixed": 2, "scaled": N}[case]
    grid = uniform_grid(2.0, K)
    y0 = [[3.0 * i - 7.5, 0.0] for i in range(N)]
    x0 = [[y[0] + 0.4 * rng.uniform(-1, 1), 0.4 * rng.uniform(-1, 1)] for y in y0]
    drift, U, u = [], [], []
    for i in range(N):
        if i < scaled:
            drift.append(ScaledLinearDrift(rng.uniform(-1.5, 1.5)))
            U.append(IntervalSet([-1.0], [1.0]))
            values = np.resize(rng.uniform(-1, 1, (5, 1)), (K, 1))
            values[: K if i == 0 else K // 3] = 0.0
            u.append(ControlProfile(grid=grid, values=values))
            continue
        A, B, b = rng.normal(scale=0.4, size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(scale=0.3, size=2)
        if i == 0:
            A, B, b = np.zeros((2, 2)), [[1.0, 0.0], [-0.0, -0.0]], [0.0, -0.0]
        elif i == 2:
            A[1] = 0.0
        elif i == 3:
            b = np.zeros(2)
        drift.append(AffineDrift(A, B, b))
        U.append(BallSet(0.8))
        values = np.resize(rng.uniform(-0.5, 0.5, (7, 2)), (K, 2))
        if i in (0, 4):
            values[: K // 2] = 0.0
        u.append(ControlProfile(grid=grid, values=values))
    if case == "affine":
        x0[0] = [y0[0][0] + 0.25, -0.0]
    scn = Scenario(N=N, R=1.0, T=2.0, y0=y0, x0=x0, drift=drift, U=U,
                   V=[BallSet(1.5)] * N, M=[50.0] * N, rho=[1.0] * N)
    v = [constant_profile(grid, np.zeros(2))] + [
        ControlProfile(grid=grid, values=np.resize(rng.uniform(-1, 1, (4, 2)), (K, 2)))
        for _ in range(N - 1)]
    return scn, integrate_upper(scn, v), u


class TestInPlaceCatchUp:
    """The array loop steps in place, bit for bit the participant-by-participant
    loop; it drops the s x product only when no participant is scaled-linear."""

    @pytest.mark.parametrize("case", ["affine", "mixed", "scaled"])
    def test_matches_per_participant_loop(self, monkeypatch, case):
        scn, y, u = _in_place_case(case)
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", 0)
        x = integrate_lower_catchup(scn, y, u, scn.x0)
        states, contact = _reference_catchup(scn, y, u, scn.x0)
        assert np.array_equal(x.states.view(np.int64), states.view(np.int64))
        assert np.array_equal(x.contact, contact)
        assert x.contact[1:].any() and not x.contact.all()
        if case == "affine":
            assert np.signbit(x.states[0, 0, 1]) and x.states[0, 0, 1] == 0.0

    def test_truncation_violation(self, monkeypatch):
        scn, y, u = _in_place_case("truncation")
        monkeypatch.setattr(dynamics, "_FLOAT_LANES", 0)
        with pytest.raises(TruncationViolationError) as err:
            integrate_lower_catchup(scn, y, u, scn.x0)
        assert str(err.value) == "participant 2 at t=0.76: required cone correction 4 exceeds cap 0.5"
        assert (err.value.participant, err.value.time, err.value.magnitude, err.value.cap) \
            == (1, 0.76, 4.0, 0.5)

    def test_overflowing_prediction(self, monkeypatch):
        # an infinite prediction, or a finite one whose distance from the
        # center overflows, is an infinite correction, and neither path
        # warns: any warning is an error here
        for case in ("overflow", "overflow-distance"):
            scn, y, u = _in_place_case(case)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TruncationViolationError) as floats:
                    integrate_lower_catchup(scn, y, u, scn.x0)
                with monkeypatch.context() as m:
                    m.setattr(dynamics, "_FLOAT_LANES", 0)
                    with pytest.raises(TruncationViolationError) as err:
                        integrate_lower_catchup(scn, y, u, scn.x0)
            assert str(err.value) \
                == "participant 2 at t=2: required cone correction inf exceeds cap 1"
            assert (err.value.participant, err.value.time, err.value.magnitude) \
                == (1, 2.0, math.inf)
            assert str(floats.value) == str(err.value)


class TestPenalty:
    def test_interior_trajectory_matches_catchup(self):
        scn = single_disk(y0=(10.0, 0.0))
        grid = uniform_grid(6.0, 600)
        v = [constant_profile(grid, np.zeros(2))]
        u = [constant_profile(grid, [0.02])]
        y = integrate_upper(scn, v)
        xc = integrate_lower_catchup(scn, y, u, scn.x0)
        xp = integrate_lower_penalty(scn, y, u, scn.x0, stiffness=1e3)
        err = np.max(np.linalg.norm(xc.states - xp.states, axis=2))
        assert err <= 10 * grid[1]

    def test_discrepancy_decreases_with_stiffness(self, twodisk, twodisk_solution):
        params, sol = twodisk_solution
        grid = uniform_grid(6.0, 1200)
        v, u = arc_sampled_controls(params, grid)
        y = integrate_upper(twodisk, v)
        xc = integrate_lower_catchup(twodisk, y, u, twodisk.x0)
        gaps = []
        for k in (1e2, 1e3):
            xp = integrate_lower_penalty(twodisk, y, u, twodisk.x0, stiffness=k)
            gaps.append(np.max(np.linalg.norm(xp.states[-1] - xc.states[-1], axis=1)))
        assert gaps[1] <= gaps[0]

    @pytest.mark.parametrize("stiffness", [math.nan, math.inf, 0.0, -1.0])
    def test_stiffness_must_be_finite_and_positive(self, twodisk, stiffness):
        """A NaN stiffness would never pull (no distance exceeds a NaN
        layer), and an infinite one would take zero-length substeps."""
        grid = uniform_grid(6.0, 60)
        y = integrate_upper(twodisk, [constant_profile(grid, np.zeros(2))] * 2)
        u = [constant_profile(grid, [0.5])] * 2
        with pytest.raises(ValueError, match="^stiffness must be finite and positive$"):
            integrate_lower_penalty(twodisk, y, u, twodisk.x0, stiffness=stiffness)

    @pytest.mark.parametrize("case, error", [
        ("short-list", ValueError),
        ("control-outside-U", InfeasibleControlError),
        ("x0-outside-disk", ValueError),
    ])
    def test_inputs_are_checked_as_catchup_checks_them(self, twodisk, case, error):
        grid = uniform_grid(6.0, 60)
        y = integrate_upper(twodisk, [constant_profile(grid, np.zeros(2))] * 2)
        u = [constant_profile(grid, [0.5])] * 2
        x0 = twodisk.x0.copy()
        if case == "short-list":
            u = u[:1]
        elif case == "control-outside-U":
            u = [u[0], constant_profile(grid, [1.5])]
        else:
            x0[1, 0] += 4.0
        messages = []
        for integrate in (integrate_lower_catchup, lambda *args: integrate_lower_penalty(
                *args, stiffness=1e3)):
            with pytest.raises(error) as err:
                integrate(twodisk, y, u, x0)
            assert type(err.value) is error
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestFeasibilityReport:
    def test_coincident_disks_flag_full_overlap(self, twodisk):
        grid = uniform_grid(6.0, 10)
        y0 = twodisk.y0.copy()
        states = np.tile(y0[None, :, :], (11, 1, 1))
        states[:, 0, :] = states[:, 1, :]  # collapse disk 1 onto disk 2
        from crowdsweep.dynamics import Trajectory

        y = Trajectory(grid=grid, states=states)
        x = Trajectory(grid=grid, states=states.copy())
        u = [constant_profile(grid, [0.0]) for _ in range(2)]
        v = [constant_profile(grid, np.zeros(2)) for _ in range(2)]
        report = check_feasibility(twodisk, y, x, u, v)
        assert report.overlap_violation == pytest.approx(6.0)

    def test_control_membership_violation_flagged(self, twodisk):
        grid = uniform_grid(6.0, 10)
        v = [constant_profile(grid, np.zeros(2)) for _ in range(2)]
        u = [constant_profile(grid, [1.4]), constant_profile(grid, [0.0])]
        y = integrate_upper(twodisk, v)
        from crowdsweep.dynamics import Trajectory

        x = Trajectory(grid=grid, states=y.states.copy())
        report = check_feasibility(twodisk, y, x, u, v)
        assert report.control_violation == pytest.approx(0.4)
        assert report.control_participant == 0


def _reference_distance(cset, row):
    """Point-to-set distance of one control value, written out per set."""
    if isinstance(cset, BallSet):
        return max(0.0, norm(row) - cset.radius)
    return norm(row - cset.project(row))


def _reference_overlap(R, states, grid):
    """(gap, time, pair) of the first largest overlap, by a full pairwise scan."""
    overlap = (0.0, 0.0, None)
    for i in range(states.shape[1]):
        for j in range(i + 1, states.shape[1]):
            for k in range(grid.size):
                gap = 2 * R - norm(states[k, i] - states[k, j])
                if gap > overlap[0]:
                    overlap = (gap, float(grid[k]), (i, j))
    return overlap


def _reference_feasibility(scenario, y, x, u, v):
    """Per-row loops with strict improvement: the first worst violation in
    (pair or participant, time) order."""
    grid, N, R = y.grid, scenario.N, scenario.R
    overlap = _reference_overlap(R, y.states, grid)
    confine = (0.0, 0.0, None)
    for i in range(N):
        for k in range(grid.size):
            exc = norm(x.states[k, i] - y.states[k, i]) - R
            if exc > confine[0]:
                confine = (exc, float(grid[k]), i)
    ctrl = (0.0, 0.0, None)
    for i in range(N):
        for prof, cset in ((u[i], scenario.U[i]), (v[i], scenario.V[i])):
            for k in range(prof.K):
                d = _reference_distance(cset, prof.values[k])
                if d > ctrl[0]:
                    ctrl = (d, float(prof.grid[k]), i)
    return FeasibilityReport(*overlap, *confine, *ctrl)


class TestVectorizedAudit:
    SETS = [IntervalSet([-0.5, 0.0], [0.5, 1.0]), SegmentSet([1.0, 2.0], 0.7), BallSet(0.8),
            IntervalSet([0.0], [1.0])]

    def test_set_distances_match_per_row_reference(self):
        rng = np.random.default_rng(5)
        for cset in self.SETS:
            rows = rng.normal(size=(500, cset.dim)) * np.exp(rng.normal(size=(500, 1)))
            expect = [_reference_distance(cset, row) for row in rows]
            assert cset.distances(rows).tolist() == expect

    # seeds 4 and 5 keep unrounded values, so that the norms round and the
    # audit must round each as the norm of the row alone does
    @pytest.mark.parametrize("seed", range(6))
    def test_report_matches_per_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        N, K, R = 4, 30, 1.0
        U = [self.SETS[(seed + i) % 4] for i in range(N)]
        V = [self.SETS[(seed + i + 1) % 3] for i in range(N)]
        scn = Scenario(
            N=N, R=R, T=1.0,
            y0=[[10.0 * i, 0.0] for i in range(N)],
            drift=[AffineDrift(np.zeros((2, 2)), np.ones((2, cset.dim)), np.zeros(2))
                   for cset in U],
            U=U, V=V, M=[1.0] * N, rho=[1.0] * N,
        )
        grid = uniform_grid(1.0, K)

        def dyadic(*shape):
            # multiples of 1/8 and a period of 10 rows: shifted copies and
            # repeated rows then tie exactly, and the first index must win
            period = 8 * rng.normal(size=(10,) + shape)
            return np.resize(np.round(period) / 8 if seed < 4 else period / 8, (K + 1,) + shape)

        ys = dyadic(N, 2)
        ys[:, 2:] = ys[:, :2] + [16.0, 0.0]        # pair (2, 3) ties pair (0, 1)
        offsets = dyadic(N, 2)
        offsets[:, 1] *= 2
        offsets[:, 3] = offsets[:, 1]              # participant 3 ties participant 1
        y = Trajectory(grid=grid, states=ys)
        x = Trajectory(grid=grid, states=ys + offsets)
        u = [ControlProfile(grid=grid, values=dyadic(c.dim)[:K]) for c in U]
        v = [ControlProfile(grid=grid, values=dyadic(2)[:K]) for _ in V]
        report = check_feasibility(scn, y, x, u, v)
        assert report == _reference_feasibility(scn, y, x, u, v)
        assert report.overlap_pair is not None and report.confinement_participant is not None
        assert report.control_participant is not None

    @pytest.mark.parametrize("overlaps, expect", [
        # (time index, i, j, gap): equal gaps of one disk against several
        ([(7, 0, 3, 0.5), (2, 0, 2, 0.5), (5, 0, 2, 0.5), (0, 0, 1, 0.25)], (2, (0, 2))),
        # equal gaps in later disks' rows, and a larger one in a later pair
        ([(3, 1, 4, 0.5), (1, 2, 3, 0.5), (6, 1, 2, 0.5), (4, 3, 4, 0.75), (8, 3, 4, 0.75),
          (0, 0, 4, 0.125)], (4, (3, 4))),
        ([(3, 1, 4, 0.5), (1, 2, 3, 0.5), (6, 1, 2, 0.5), (2, 1, 2, 0.5)], (2, (1, 2))),
    ], ids=["ties-against-one-disk", "larger-gap-in-last-row", "ties-across-rows"])
    def test_overlap_ties_take_the_first_pair_then_time(self, overlaps, expect):
        # every gap is dyadic, so equal gaps are bitwise ties
        N, K = 5, 9
        scn = Scenario(
            N=N, R=1.0, T=1.0, y0=[[10.0 * i, 0.0] for i in range(N)],
            drift=[ScaledLinearDrift(-1.0)] * N, U=[IntervalSet([0.0], [1.0])] * N,
            V=[BallSet(1.0)] * N, M=[1.0] * N, rho=[1.0] * N,
        )
        grid = uniform_grid(1.0, K)
        states = np.tile(scn.y0, (K + 1, 1, 1))
        for k, i, j, gap in overlaps:
            states[k, j] = states[k, i] + [2.0 - gap, 0.0]
        y = Trajectory(grid=grid, states=states)
        u = [constant_profile(grid, [0.0]) for _ in range(N)]
        v = [constant_profile(grid, np.zeros(2)) for _ in range(N)]
        report = check_feasibility(scn, y, y, u, v)
        assert report == _reference_feasibility(scn, y, y, u, v)
        k, pair = expect
        assert (report.overlap_time, report.overlap_pair) == (grid[k], pair)
        assert report.overlap_violation == max(gap for *_, gap in overlaps)


class TestOverlapBroadPhase:
    """``_worst_overlap`` measures only the pairs whose bounding boxes come
    closer than 2R, with the verdict of a full pairwise scan."""

    @staticmethod
    def _scan(R, states):
        grid = np.arange(states.shape[0], dtype=float)
        overlap, node, pair = dynamics._worst_overlap(R, states)
        assert _reference_overlap(R, states, grid) == (overlap, grid[node] if pair else 0.0, pair)
        return overlap, node, pair

    def test_random_clustered_crowds(self):
        rng = np.random.default_rng(12)
        found = 0
        for _ in range(40):
            N, K = int(rng.integers(2, 13)), int(rng.integers(1, 25))
            clusters = rng.normal(size=(int(rng.integers(1, 4)), 2)) * 10.0
            start = clusters[rng.integers(len(clusters), size=N)] + rng.normal(size=(N, 2)) * 2.0
            states = start + np.cumsum(rng.normal(scale=0.3, size=(K + 1, N, 2)), axis=0)
            if rng.random() < 0.3:
                states = np.round(8 * states) / 8
            found += self._scan(1.0, states)[2] is not None
        assert 0 < found < 40

    def test_boxes_exactly_2r_apart(self):
        # dyadic paths: pair (0, 1) boxes touch at x = 2 = 2R and the disks
        # touch there at node 2, gap exactly 0; pair (2, 3) overlaps by 1/8
        states = np.zeros((5, 4, 2))
        states[:, 0, 0] = [-1.0, -0.5, 0.0, -0.25, -0.5]
        states[:, 1, 0] = [3.0, 2.5, 2.0, 2.25, 4.0]
        states[:, 2:, 1] = 20.0
        states[:, 3, 0] = 2.0
        states[3, 3, 0] = 1.875
        assert self._scan(1.0, states) == (0.125, 3, (2, 3))
        states[3, 3, 0] = 2.0
        assert self._scan(1.0, states) == (0.0, 0, None)

    def test_one_overlap_among_far_pairs(self):
        # a 4 x 4 lattice of unit disks 12 apart; disk 9 dips into disk 5 at node 7
        lattice = np.array([[12.0 * a, 12.0 * b] for b in range(4) for a in range(4)])
        states = np.tile(lattice, (11, 1, 1))
        states[7, 9] = states[7, 5] + [0.0, 1.5]
        assert self._scan(1.0, states) == (0.5, 7, (5, 9))

    def test_far_lattice_measures_no_pair(self, monkeypatch):
        # the crowd benchmark's lattice: 16 unit disks 12 apart, horizon 4,
        # 1000 steps, 8 pieces of disk velocities of norm below 0.9
        rng = np.random.default_rng(0)
        lattice = np.array([[(a - 1.5) * 12.0, (b - 1.5) * 12.0] for b in range(4) for a in range(4)])
        radius, phi = 0.9 * np.sqrt(rng.random((8, 16))), 2 * np.pi * rng.random((8, 16))
        v = np.repeat(np.stack([radius * np.cos(phi), radius * np.sin(phi)], axis=-1), 125, axis=0)
        states = dynamics._translation_path(lattice, uniform_grid(4.0, 1000), v)
        calls = []
        norms = dynamics._row_norms
        monkeypatch.setattr(dynamics, "_row_norms", lambda d: calls.append(1) or norms(d))
        assert dynamics._worst_overlap(1.0, states) == (0.0, 0, None)
        assert calls == []


class TestMagnitudes:
    def test_segment_direction_beyond_the_square_range_normalizes(self):
        assert np.allclose(SegmentSet([1e300, -1e300], 1.0).direction, [S2 / 2, -S2 / 2])

    @pytest.mark.parametrize("y0, x0", [
        ([(1e300, 0.0), (0.0, 0.0)], [(1e300, 0.0), (0.0, 0.0)]),   # the terminal cost
        ([(1.1e154, 0.0), (-1.1e154, 0.0)], None),                  # the pair distance
        ([(0.0, 0.0), (5.0, 0.0)], [(1e200, 0.0), (5.0, 0.0)]),     # x0 to its center
    ], ids=["cost", "pair-distance", "x0-offset"])
    def test_positions_whose_squares_overflow_are_rejected(self, y0, x0):
        with pytest.raises(ValueError, match="overflows"):
            Scenario(N=2, R=1.0, T=1.0, y0=y0, x0=x0,
                     drift=[ScaledLinearDrift(-1.0)] * 2, U=[IntervalSet([0.0], [1.0])] * 2,
                     V=[BallSet(1.0)] * 2, M=[1.0, 1.0], rho=[1.0, 1.0])


class TestCosts:
    def test_symmetric_terminal_positions(self):
        yT = np.vstack([3 * VHAT, -3 * VHAT])
        assert cost_upper(yT) == pytest.approx(9.0)

    def test_zero_and_constant_effort(self):
        grid = uniform_grid(6.0, 13)
        assert cost_lower(constant_profile(grid, [0.0])) == 0.0
        assert cost_lower(constant_profile(grid, [1.0])) == pytest.approx(6.0)

    def test_permutation_and_time_reversal_invariance(self):
        rng = np.random.default_rng(11)
        yT = rng.normal(size=(4, 2))
        assert cost_upper(yT) == pytest.approx(cost_upper(yT[::-1]))
        grid = uniform_grid(2.0, 40)
        vals = rng.random((40, 1))
        fwd = cost_lower(ControlProfile(grid=grid, values=vals))
        rev = cost_lower(ControlProfile(grid=grid, values=vals[::-1]))
        assert fwd == pytest.approx(rev)


class TestH5Bounds:
    def test_reference_contact_path(self, twodisk, twodisk_solution):
        params, sol = twodisk_solution
        samples = [[], []]
        for i in range(2):
            for k in range(0, sol.x.grid.size, 60):
                if sol.x.contact[k, i]:
                    samples[i].append((sol.x.states[k, i], sol.y.states[k, i]))
        bounds = h5_bounds(twodisk, samples)
        for upper, lower in bounds:
            assert upper == pytest.approx(10 * S2, abs=1e-9)
            assert lower < 6.0 < upper

    def test_degenerate_drift_and_frozen_velocity(self):
        scn = Scenario(
            N=1,
            R=1.0,
            T=1.0,
            y0=[[2.0, 0.0]],
            drift=[AffineDrift(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros(2))],
            U=[IntervalSet([0.0], [0.0])],
            V=[SegmentSet([1.0, 0.0], 0.0)],
            M=[1.0],
            rho=[0.0],
            x0=[[2.0, 0.0]],
        )
        x = np.array([3.0, 0.0])
        y = np.array([2.0, 0.0])
        (upper, lower), = h5_bounds(scn, [[(x, y)]])
        assert upper == pytest.approx(0.0)
        assert lower == pytest.approx(0.0)

    def test_empty_sample_set_rejected(self, twodisk):
        with pytest.raises(ValueError):
            h5_bounds(twodisk, [[], []])


@pytest.mark.parametrize("field, value, message", [
    ("M", math.nan, "truncation caps M must be positive"),
    ("rho", math.nan, "partial-calmness moduli rho must be nonnegative"),
    ("lo", math.nan, "interval set needs lo <= hi componentwise"),
    ("hi", math.nan, "interval set needs lo <= hi componentwise"),
    ("halflength", math.nan, "segment halflength must be nonnegative"),
    ("radius", math.nan, "ball radius must be nonnegative"),
    ("direction", math.nan, "segment direction must be finite and nonzero"),
    ("direction", math.inf, "segment direction must be finite and nonzero"),
    ("direction", -math.inf, "segment direction must be finite and nonzero"),
    ("M", math.inf, "truncation caps M must be positive"),
    ("rho", math.inf, "partial-calmness moduli rho must be nonnegative"),
    ("lo", -math.inf, "interval set needs lo <= hi componentwise"),
    ("hi", math.inf, "interval set needs lo <= hi componentwise"),
    ("halflength", math.inf, "segment halflength must be nonnegative"),
    ("radius", math.inf, "ball radius must be nonnegative"),
    ("T", math.inf, "horizon T must be positive"),
    ("R", math.inf, "disk radius R must be positive"),
    ("c", math.nan, "drift coefficient c must be finite"),
    ("A", math.inf, "drift A, B and b must be finite"),
], ids=["M", "rho", "lo", "hi", "halflength", "radius", "direction-nan", "direction-inf",
        "direction--inf", "M-inf", "rho-inf", "lo--inf", "hi-inf", "halflength-inf",
        "radius-inf", "T-inf", "R-inf", "c-nan", "A-inf"])
def test_nan_fails_the_sign_checks(field, value, message):
    """A NaN or infinite horizon, radius, cap, modulus, bound or size is
    rejected like a negative one: a NaN or infinite cap would switch off the
    truncation check, and an infinite size would make the membership
    tolerance infinite.  A NaN or infinite segment direction is rejected
    like a zero one, and a drift with a NaN or infinite entry as not
    finite.  One disk has no pair distance, so only the radius check sees
    an infinite R."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        if field == "direction":
            SegmentSet([value, 0.0], 1.0)
        elif field == "lo":
            IntervalSet([value], [1.0])
        elif field == "hi":
            IntervalSet([0.0], [value])
        elif field == "halflength":
            SegmentSet([1.0, 0.0], value)
        elif field == "radius":
            BallSet(value)
        elif field == "c":
            ScaledLinearDrift(value)
        elif field == "A":
            AffineDrift([[0.0, value], [0.0, 0.0]], np.eye(2), [0.0, 0.0])
        else:
            fields = {"R": 3.0, "T": 6.0, "M": [6.0], "rho": [1.0]}
            fields[field] = [value] if field in ("M", "rho") else value
            Scenario(N=1, y0=[[0.0, 0.0]], drift=[ScaledLinearDrift(-8.0)],
                     U=[IntervalSet([0.0], [1.0])], V=[BallSet(1.0)], **fields)


@pytest.mark.parametrize("kind", ["random", "diagonal", "rank-1", "2x1", "zero"])
def test_svd2_matches_lapack(kind):
    """The closed-form 2x2 SVD against LAPACK's: singular values to 1e-15 of
    the largest, and orthogonal factors that give B back as closely."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        B = {"random": lambda: rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3),
             "diagonal": lambda: np.diag(rng.normal(size=2)),
             "rank-1": lambda: np.outer(rng.normal(size=2), rng.normal(size=2)),
             "2x1": lambda: rng.normal(size=(2, 1)),
             "zero": lambda: np.zeros((2, 2))}[kind]()
        L, S, Q = (np.array(factor) for factor in dynamics._svd2(B))
        want = np.linalg.svd(B, compute_uv=False)
        tol = 1e-15 * want[0]
        assert S[0] >= S[1] >= 0.0
        assert np.all(np.abs(S[:want.size] - want) <= tol) and np.all(S[want.size:] <= tol)
        assert np.allclose(L.T @ L, np.eye(2), rtol=0, atol=1e-15)
        assert np.allclose(Q @ Q.T, np.eye(2), rtol=0, atol=1e-15)
        assert np.all(np.abs((L * S) @ Q[:, :B.shape[1]] - B) <= tol)


def test_each_drift_evaluates_itself_one_way():
    """One order of arithmetic per drift family: ``value`` on rows, its float
    form row by row, ``value`` on one state and control, and the verifier's
    drift ``_SolutionData.f`` agree as int64 bits, signed zeros included.
    Participant 3's first row is A = [-0, 0], B = [-1, 0], b = -0 at
    x = (1, -1), u = (0, -0): ((A x) + B u) + b is -0.0 there, and a zero
    term in front of it would make it +0.0."""
    zeros = [[a, b] for a in (0.0, -0.0) for b in (0.0, -0.0)]
    xs = np.array([[1.0, -1.0]] + zeros + [[-2.5, 3.0], [0.75, -0.0]])
    drifts = [ScaledLinearDrift(-0.5),
              # a zero A row and a 2x1 B, then a 2x2 B
              AffineDrift([[0.0, 0.0], [0.5, -0.25]], [[1.0], [-2.0]], [0.1, -0.0]),
              AffineDrift([[-0.0, 0.0], [0.3, -0.0]], [[-1.0, 0.0], [0.5, 2.0]], [-0.0, 0.0])]
    scalar = np.array([[0.0], [-0.0], [0.0], [-0.0], [-0.0], [0.5], [-0.0]])
    planar = np.array([[0.0, -0.0]] + zeros + [[0.25, -1.0], [-0.0, 0.0]])
    us = [scalar, scalar[::-1].copy(), planar]
    K = len(xs)
    grid = uniform_grid(1.0, K)
    scn = Scenario(N=3, R=1.0, T=1.0, y0=[[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]], drift=drifts,
                   U=[IntervalSet([-1.0] * u.shape[1], [1.0] * u.shape[1]) for u in us],
                   V=[BallSet(1.0)] * 3, M=[1.0] * 3, rho=[1.0] * 3)
    states = Trajectory(grid=grid, states=np.repeat(np.vstack([xs, xs[:1]])[:, None], 3, axis=1))
    data = nco._SolutionData(SimpleNamespace(
        scenario=scn, x=states, y=states, u=[ControlProfile(grid=grid, values=u) for u in us],
        v=[constant_profile(grid, np.zeros(2))] * 3))
    for i, (drift, u) in enumerate(zip(drifts, us)):
        f = drift._floats()
        floats = [f(x0, x1, uk) for (x0, x1), uk in zip(xs.tolist(), u.tolist())]
        ones = [drift.value(x, uk) for x, uk in zip(xs, u)]
        for got in (np.array(floats), np.array(ones), data.f[:, i]):
            assert got.view(np.int64).tolist() == drift.value(xs, u).view(np.int64).tolist(), i
    assert data.f[0, 2, 0] == 0.0 and np.signbit(data.f[0, 2, 0])


def test_scenario_invariants():
    with pytest.raises(ValueError):
        make_twodisk().__class__(
            N=2,
            R=3.0,
            T=6.0,
            y0=[[0.0, 0.0], [1.0, 0.0]],  # overlapping start
            drift=[ScaledLinearDrift(-8.0)] * 2,
            U=[IntervalSet([0.0], [1.0])] * 2,
            V=[BallSet(1.0)] * 2,
            M=[6.0, 6.0],
            rho=[1.0, 1.0],
        )
    with pytest.raises(ValueError):
        single_disk(M=0.0)


@pytest.mark.parametrize("y0, x0, message", [
    ([(0.0, 0.0), (10.0, 0.0), (11.2, 0.0), (1.5, 0.0)], None,
     r"non-overlap violated at t=0: \|\|y0\^1-y0\^4\|\| = 1\.5 < 2R = 2$"),
    ([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)],
     [(0.5, 0.0), (10.0, 2.0), (23.0, 0.0), (30.0, 0.0)],
     r"^x0\^2 at distance 2 outside its disk \(R=1\)$"),
], ids=["pair", "x0"])
def test_scenario_names_the_first_offending_pair_then_x0(y0, x0, message):
    """Pairs 1-4 and 2-3 start closer than 2R: the first in (i, j) order is
    named, not the closest (2-3) or the first in (j, i) order (2-3).  Of two
    x0 outside their disks the first is named, not the farthest."""
    with pytest.raises(ValueError, match=message):
        Scenario(N=4, R=1.0, T=1.0, y0=y0, x0=x0, drift=[ScaledLinearDrift(-1.0)] * 4,
                 U=[IntervalSet([0.0], [1.0])] * 4, V=[BallSet(1.0)] * 4, M=[1.0] * 4,
                 rho=[1.0] * 4)



@pytest.mark.parametrize("grid, message", [
    ([0.0, math.nan, 1.0], "grid must be finite"),
    ([0.0, 1.0, math.inf], "grid must be finite"),
    ([-math.inf, 0.0, 1.0], "grid must be finite"),
    ([0.0, 1.0, 0.5], "grid must be strictly increasing"),
    ([0.0, 1.0, 1.0], "grid must be strictly increasing"),
], ids=["nan", "inf", "minus-inf", "decreasing", "repeated"])
def test_control_profile_rejects_bad_grids(grid, message):
    """Profiles, trajectories and both multiplier levels share one grid check."""
    nodes = np.zeros((3, 2, 2))
    builds = [
        lambda: ControlProfile(grid=grid, values=[[0.5], [0.5]]),
        lambda: Trajectory(grid=grid, states=nodes),
        lambda: UpperMultipliers(grid=grid, q_upper=nodes, q_lower=nodes,
                                 overlap=np.zeros((3, 2, 2)), confinement=np.zeros((3, 2)),
                                 objective_weight=1.0, rho=np.ones(2)),
        lambda: LowerMultipliers(participant=0, grid=grid, p_upper=nodes[:, 0],
                                 p_lower=nodes[:, 0], overlap=np.zeros((3, 2)),
                                 confinement=np.zeros(3), effort_weight=1.0),
    ]
    for build in builds:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


@pytest.mark.parametrize("level, name, value, message", [
    ("lower", "effort_weight", math.nan, "effort weight must be nonnegative"),
    ("upper", "objective_weight", math.nan, r"objective weight must lie in \[0, 1\]"),
    ("upper", "overlap", math.nan, "measure multipliers must be nonnegative"),
    ("lower", "overlap", math.nan, "measure multipliers must be nonnegative"),
    ("upper", "confinement", math.nan, "measure multipliers must be nonnegative"),
    ("lower", "confinement", math.nan, "measure multipliers must be nonnegative"),
    ("upper", "rho", math.nan, "partial-calmness moduli rho must be nonnegative"),
    ("upper", "rho", -1.0, "partial-calmness moduli rho must be nonnegative"),
    ("upper", "rho", math.inf, "partial-calmness moduli rho must be nonnegative"),
    ("lower", "effort_weight", math.inf, "effort weight must be nonnegative"),
    ("upper", "overlap", math.inf, "measure multipliers must be nonnegative"),
    ("lower", "overlap", math.inf, "measure multipliers must be nonnegative"),
    ("upper", "confinement", math.inf, "measure multipliers must be nonnegative"),
    ("lower", "confinement", math.inf, "measure multipliers must be nonnegative"),
    ("upper", "q_upper", math.inf, "costates must be finite"),
    ("upper", "q_lower", math.nan, "costates must be finite"),
    ("lower", "p_upper", -math.inf, "costates must be finite"),
    ("lower", "p_lower", math.nan, "costates must be finite"),
], ids=["lower-effort_weight", "upper-objective_weight", "upper-overlap", "lower-overlap",
        "upper-confinement", "lower-confinement", "upper-rho", "upper-rho-negative",
        "upper-rho-inf", "lower-effort_weight-inf", "upper-overlap-inf", "lower-overlap-inf",
        "upper-confinement-inf", "lower-confinement-inf", "upper-q_upper-inf",
        "upper-q_lower-nan", "lower-p_upper--inf", "lower-p_lower-nan"])
def test_witnesses_reject_nan_weights_and_measures(level, name, value, message):
    """Both multiplier levels share one validation, in which a NaN or
    infinite weight, measure or modulus fails like a negative one, and a
    NaN or infinite costate fails as not finite."""
    grid = uniform_grid(1.0, 2)
    nodes = np.zeros((3, 2, 2))
    fields = {
        "upper": dict(grid=grid, q_upper=nodes, q_lower=nodes, overlap=np.zeros((3, 2, 2)),
                      confinement=np.zeros((3, 2)), objective_weight=1.0, rho=np.ones(2)),
        "lower": dict(participant=0, grid=grid, p_upper=nodes[:, 0], p_lower=nodes[:, 0],
                      overlap=np.zeros((3, 2)), confinement=np.zeros(3), effort_weight=1.0),
    }[level]
    fields[name] = np.full_like(fields[name], value) if np.ndim(fields[name]) else value
    build = UpperMultipliers if level == "upper" else LowerMultipliers
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(**fields)


def _grid_pair(case):
    a = uniform_grid(6.0, 1000)
    b = a.copy()
    if case == "resized":
        return a, uniform_grid(6.0, 999)
    if case == "nan":
        b[500] = math.nan
    elif case != "equal":
        # t=0 moved by exactly 1e-12 or 2e-12, or every node shifted, which
        # rounds to differences on both sides of 1e-12
        shift = float(case.split("-", 1)[1])
        if case.startswith("all"):
            b += shift
        else:
            b[0] = shift
    return a, b


@pytest.mark.parametrize("case, match", [
    ("equal", True), ("first-1e-12", True), ("first-2e-12", False), ("all-1e-12", None),
    ("all-2e-12", False), ("resized", False), ("nan", False),
])
def test_grid_match_agrees_with_allclose(case, match):
    """The grid-match verdict is np.allclose's at rtol 0 and atol 1e-12, on
    grids that are equal, 1e-12 or 2e-12 apart, of two sizes or with a NaN."""
    a, b = _grid_pair(case)
    same = a.size == b.size and bool(np.allclose(a, b, rtol=0.0, atol=1e-12))
    if match is not None:
        assert same == match
    if same:
        dynamics._check_grid_match(a, b, "test")
    else:
        with pytest.raises(ValueError, match="^test: grids do not match$"):
            dynamics._check_grid_match(a, b, "test")


class _SetClassUses(ast.NodeVisitor):
    """(function, line) of each ``isinstance`` test against one of
    ``CLASSES`` outside ``_match_family``, and of each import of a retired
    helper."""

    CLASSES, RETIRED = {"IntervalSet", "SegmentSet", "BallSet"}, {"_line", "_set_scale"}

    def __init__(self, module):
        self.found, self.function = [], None
        with open(module.__file__, encoding="utf-8") as fh:
            self.visit(ast.parse(fh.read()))

    def visit_FunctionDef(self, node):
        if node.name != "_match_family":    # the parametric family's own check
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            if names & self.CLASSES:
                self.found.append((self.function, node.lineno))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if {alias.name for alias in node.names} & self.RETIRED:
            self.found.append((self.function, node.lineno))


class _DriftClassUses(_SetClassUses):
    CLASSES, RETIRED = {"ScaledLinearDrift", "AffineDrift"}, set()


@pytest.mark.parametrize("module", [bilevel, nco], ids=["bilevel", "nco"])
def test_only_the_set_classes_branch_on_the_set_class(module):
    """The solvers and the verifier read each control set's own arithmetic
    (``_line_view``, ``_sup_effort``, ``_hull``, ``_normal_cone_distance``,
    the search box and the greedy's ``_admit``) and never branch on its
    class, apart from the two-disk family test."""
    assert _SetClassUses(module).found == []


@pytest.mark.parametrize("module", [dynamics, bilevel, nco], ids=["dynamics", "bilevel", "nco"])
def test_only_the_lane_drift_branches_on_the_drift_class(module):
    """Each drift class carries its own arithmetic; the lanes of the
    catch-up's array loop and of the penalty integrator come from
    ``_lane_drift``, the one test of the drift family outside the two-disk
    family test."""
    functions = {function for function, _ in _DriftClassUses(module).found}
    assert functions == ({"_lane_drift"} if module is dynamics else set())
