import math

import numpy as np
import pytest

from crowdsweep.bilevel import closed_form_controls
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
    StabilityError,
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

from conftest import S2, VHAT, arc_sampled_controls, make_twodisk


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
        contact[0, i] = np.linalg.norm(x0[i] - y.states[0, i]) >= R - 1e-9 * R
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

    def test_penalty_matches(self, mixed):
        scn, y, u = mixed
        x = integrate_lower_penalty(scn, y, u, scn.x0, step=2e-3, stiffness=250.0)
        assert np.array_equal(x.states, _reference_penalty(scn, y, u, scn.x0, 2e-3, 250.0))


class TestPenalty:
    def test_interior_trajectory_matches_catchup(self):
        scn = single_disk(y0=(10.0, 0.0))
        grid = uniform_grid(6.0, 600)
        v = [constant_profile(grid, np.zeros(2))]
        u = [constant_profile(grid, [0.02])]
        y = integrate_upper(scn, v)
        xc = integrate_lower_catchup(scn, y, u, scn.x0)
        xp = integrate_lower_penalty(scn, y, u, scn.x0, step=5e-4, stiffness=1e3)
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
            xp = integrate_lower_penalty(twodisk, y, u, twodisk.x0, step=1 / (2 * k), stiffness=k)
            gaps.append(np.max(np.linalg.norm(xp.states[-1] - xc.states[-1], axis=1)))
        assert gaps[1] <= gaps[0]

    def test_step_too_large_for_stiffness(self):
        scn = single_disk()
        grid = uniform_grid(6.0, 10)
        v = [constant_profile(grid, np.zeros(2))]
        y = integrate_upper(scn, v)
        with pytest.raises(StabilityError):
            integrate_lower_penalty(
                scn, y, [constant_profile(grid, [0.0])], scn.x0, step=1e-2, stiffness=1e3
            )

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
                *args, step=5e-4, stiffness=1e3)):
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
        return max(0.0, float(np.linalg.norm(row)) - cset.radius)
    return float(np.linalg.norm(row - cset.project(row)))


def _reference_feasibility(scenario, y, x, u, v):
    """Per-row loops with strict improvement: the first worst violation in
    (pair or participant, time) order."""
    grid, N, R = y.grid, scenario.N, scenario.R
    overlap = (0.0, 0.0, None)
    for i in range(N):
        for j in range(i + 1, N):
            for k in range(grid.size):
                gap = 2 * R - float(np.linalg.norm(y.states[k, i] - y.states[k, j]))
                if gap > overlap[0]:
                    overlap = (gap, float(grid[k]), (i, j))
    confine = (0.0, 0.0, None)
    for i in range(N):
        for k in range(grid.size):
            exc = float(np.linalg.norm(x.states[k, i] - y.states[k, i])) - R
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

    @pytest.mark.parametrize("seed", range(4))
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
            period = np.round(8 * rng.normal(size=(10,) + shape)) / 8
            return np.resize(period, (K + 1,) + shape)

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

