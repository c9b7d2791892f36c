import copy
import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest

from crowdsweep import nco
from crowdsweep.bilevel import (
    BilevelSolution,
    _greedy_min_effort,
    _solution,
    solve_twodisk_parametric,
)
from crowdsweep.cli import EXIT_OK, _supplied, parse_scenario, run
from crowdsweep.dynamics import (
    SUP_ACTIVE_FRAC,
    AffineDrift,
    BallSet,
    ControlProfile,
    IntervalSet,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    Trajectory,
    _effort,
    _translation_path,
    check_feasibility,
    constant_profile,
    h5_bounds,
    integrate_upper,
    uniform_grid,
)
from crowdsweep.geometry import (
    SingularConfigurationError,
    contact_jacobian,
    sigma_active_gradient,
    sigma_support,
)
from crowdsweep.nco import (
    ACTIVATION_TOL,
    KINK_BAND_FRAC,
    NONTRIVIALITY_TOL,
    LowerMultipliers,
    UpperMultipliers,
    adjoint_residual,
    boundary_residual,
    fit_multipliers,
    max_condition_lower,
    max_condition_upper,
    verify,
)

from conftest import S2, VHAT, dot, matvec, norm

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
TWODISK = os.path.join(SCENARIOS, "twodisk.scn")


def zero_upper(scenario, grid, objective_weight=0.0):
    K = grid.size - 1
    return UpperMultipliers(
        grid=grid,
        q_upper=np.zeros((K + 1, scenario.N, 2)),
        q_lower=np.zeros((K + 1, scenario.N, 2)),
        overlap=np.zeros((K + 1, scenario.N, scenario.N)),
        confinement=np.zeros((K + 1, scenario.N)),
        objective_weight=objective_weight,
        rho=scenario.rho,
    )


def jac_x(drift, u):
    """J_x f(x, u) of either drift family (neither depends on x), written out
    for the references."""
    if isinstance(drift, ScaledLinearDrift):
        return drift.coeff * float(u[0]) * np.eye(2)
    return drift.A


def fd_value_gradient(scenario, i, v_i, step=1e-4):
    """Central-difference sensitivity of the greedy inner effort to the disk
    velocity, interval by interval, written out for the references: entry k
    estimates the pointwise sensitivity on interval k.  The perturbed
    profiles leave V unchecked, and x0 is the disk center when free."""
    grid, h = v_i.grid, np.diff(v_i.grid)
    x0_i = scenario.y0[i] if scenario.x0_free else scenario.x0[i]
    out = np.zeros((v_i.K, 2))
    for k in range(v_i.K):
        for c in range(2):
            efforts = []
            for sgn in (1.0, -1.0):
                vals = v_i.values.copy()
                vals[k, c] += sgn * step
                ypath = _translation_path(scenario.y0[i], grid, vals)
                uvals, fail = _greedy_min_effort(scenario, i, ypath, grid, x0_i)
                assert uvals is not None, (k, c, sgn, fail)
                efforts.append(_effort(grid, uvals))
            out[k, c] = (efforts[0] - efforts[1]) / (2 * step * h[k])
    return out


def control_gradient(drift, x):
    """d f / d u as a (2, m) matrix, written out for the references."""
    if isinstance(drift, ScaledLinearDrift):
        return (drift.coeff * np.asarray(x, float)).reshape(2, 1)
    return drift.B


def frozen_scenario():
    return Scenario(
        N=1, R=3.0, T=2.0, y0=[[4.0, 1.0]],
        drift=[ScaledLinearDrift(-8.0)],
        U=[IntervalSet([0.0], [1.0])],
        V=[SegmentSet([1.0, 0.0], 0.0)],
        M=[6.0], rho=[1.0], x0=[[4.0, 1.0]],
    )


def frozen_solution():
    scn = frozen_scenario()
    grid = uniform_grid(scn.T, 200)
    v = [constant_profile(grid, np.zeros(2))]
    u = [constant_profile(grid, [0.0])]
    return _solution(scn, v, u, scn.x0, "supplied")


class TestHamiltonians:
    """The two suprema inside the Hamiltonians: the cone support value and
    the control supremum of the maximum conditions."""

    def test_contact_cone_supremum_matches_support_value(self, twodisk, twodisk_solution):
        params, sol = twodisk_solution
        k = -1
        i = params.near
        p_lower = np.array([-0.4, 0.1])
        mu = 0.2
        z = sol.x.states[k, i] - sol.y.states[k, i]
        n = z / np.linalg.norm(z)
        expected = 6.0 * max(0.0, -float(np.dot(p_lower - mu * z, n)))
        got = sigma_support(z, p_lower, mu, twodisk.R, twodisk.M[i])
        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("cset", [IntervalSet([0.0], [1.0]),
                                      IntervalSet([-1.0, -0.5], [1.0, 0.8]),
                                      SegmentSet([1.0, 2.0], 0.7), BallSet(0.8)],
                             ids=["interval", "box", "segment", "ball"])
    @pytest.mark.parametrize("effort", [False, True], ids=["alpha-0", "alpha-positive"])
    def test_scalar_sup_is_exact_against_dense_grid(self, cset, effort):
        """Each set's supremum of <g, u> - alpha |u|^2 is the map's value at
        its maximizer, which lies in the set, and no control of a dense
        sample of the set does better; 10 000 draws of g."""
        rng = np.random.default_rng(2)
        if cset.dim == 1:
            us = np.linspace(0.0, 1.0, 1001)[:, None]
        else:   # the set's points of a uniform draw, and projections onto it
            box = rng.uniform(-1.0, 1.0, size=(5000, 2))
            us = np.vstack([box[cset.distances(box) == 0.0]]
                           + [cset.project(row)[None] for row in box[:1000]])
        norms2 = np.sum(us**2, axis=1)[:, None]
        for _ in range(100):
            g = rng.normal(scale=5.0, size=(100, cset.dim))
            alpha = abs(rng.normal()) if effort else 0.0
            sup, u = cset._sup_effort(g, alpha)
            assert np.max(cset.distances(u)) <= 1e-12
            value = np.sum(g * u, axis=1) - alpha * np.sum(u * u, axis=1)
            assert np.max(np.abs(sup - value)) <= 1e-12
            dense = np.max(us @ g.T - alpha * norms2, axis=0)
            assert np.max(dense - sup) <= 1e-12


class TestResidualsTrivialCases:
    def test_zero_multipliers_zero_drift_adjoints(self):
        scn = Scenario(
            N=1, R=3.0, T=2.0, y0=[[4.0, 0.0]],
            drift=[AffineDrift(np.zeros((2, 2)), np.eye(2), np.zeros(2))],
            U=[BallSet(1.0)],
            V=[SegmentSet([1.0, 0.0], 1.0)],
            M=[6.0], rho=[1.0], x0=[[4.0, 0.0]],
        )
        grid = uniform_grid(scn.T, 100)
        v = [constant_profile(grid, np.zeros(2))]
        u = [constant_profile(grid, np.zeros(2))]
        sol = _solution(scn, v, u, scn.x0, "supplied")
        upper = zero_upper(scn, grid)
        r_lo, r_hi = adjoint_residual(sol, upper)
        assert r_lo == pytest.approx(0.0, abs=1e-12)
        assert r_hi == pytest.approx(0.0, abs=1e-12)

    def test_boundary_norm_of_terminal_costates(self):
        sol = frozen_solution()
        upper = zero_upper(sol.scenario, sol.x.grid)
        upper.q_upper[-1] = [1.0, 0.0]
        upper.q_lower[-1] = [0.0, -2.0]
        assert boundary_residual(sol, upper) == pytest.approx(2.0)
        # interior start reduces the initial condition to the costate norm
        upper2 = zero_upper(sol.scenario, sol.x.grid)
        upper2.q_lower[0] = [0.3, 0.4]
        assert boundary_residual(sol, upper2) == pytest.approx(0.5)

    def test_constant_map_has_zero_gap(self):
        sol = frozen_solution()
        upper = zero_upper(sol.scenario, sol.x.grid)
        gaps = max_condition_lower(sol, upper)
        assert np.max(gaps) == pytest.approx(0.0, abs=1e-12)

    def test_zero_left_hand_vector(self):
        sol = frozen_solution()
        upper = zero_upper(sol.scenario, sol.x.grid)
        res = max_condition_upper(sol, upper)
        assert np.max(res) == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_multipliers_fail_nontriviality(self):
        sol = frozen_solution()
        upper = zero_upper(sol.scenario, sol.x.grid)
        report = verify(sol, upper)
        assert not report.verdicts["nontriviality"]
        assert not report.all_pass

    def test_overlap_storage_is_symmetric(self, twodisk):
        grid = uniform_grid(6.0, 4)
        overlap = np.zeros((5, 2, 2))
        overlap[:, 0, 1] = 1.0          # asymmetric input
        upper = UpperMultipliers(
            grid=grid,
            q_upper=np.zeros((5, 2, 2)),
            q_lower=np.zeros((5, 2, 2)),
            overlap=overlap,
            confinement=np.zeros((5, 2)),
            objective_weight=0.0,
            rho=twodisk.rho,
        )
        assert np.allclose(upper.overlap[:, 0, 1], upper.overlap[:, 1, 0])

    def test_effort_weights_follow_objective_weight(self, twodisk):
        grid = uniform_grid(6.0, 4)
        upper = zero_upper(twodisk, grid, objective_weight=0.25)
        assert np.allclose(upper.effort_weights, 0.25 * twodisk.rho)


class TestReferenceVerification:
    def test_reference_solution_passes(self, twodisk_solution):
        params, sol = twodisk_solution
        upper, lowers, achieved = fit_multipliers(sol)
        assert achieved <= 1e-3
        report = verify(sol, upper, lowers)
        assert report.all_pass
        # nontriviality is carried by the population costate alone
        assert upper.objective_weight == 0.0
        assert np.max(np.abs(upper.effort_weights)) == 0.0
        assert np.max(np.abs(upper.q_lower)) >= 0.1
        assert np.abs(np.diff(upper.confinement, axis=0)).sum() <= 1e-12

    def test_verify_monotone_in_tolerance(self, twodisk_solution):
        _params, sol = twodisk_solution
        upper, lowers, _ = fit_multipliers(sol)
        r1 = verify(sol, upper, lowers, tol=1e-3)
        r2 = verify(sol, upper, lowers, tol=1e-2)
        for name, ok in r1.verdicts.items():
            if ok and not name.endswith("nontriviality"):
                assert r2.verdicts[name]

    def test_perturbed_costate_is_detected(self, twodisk_solution):
        _params, sol = twodisk_solution
        upper, _lowers, _ = fit_multipliers(sol)
        bumped = copy.deepcopy(upper)
        bumped.q_lower[:, :, 0] += 0.1
        r_lo, _r_hi = adjoint_residual(sol, bumped)
        assert r_lo >= 0.05

    def test_perturbed_control_breaks_max_condition(self, twodisk_solution):
        params, sol = twodisk_solution
        pert = copy.deepcopy(sol)
        mask = pert.u[params.near].grid[:-1] >= params.t_b
        pert.u[params.near].values[mask] = 0.8
        upper, lowers, _ = fit_multipliers(pert)
        report = verify(pert, upper, lowers)
        gap = float(np.max(max_condition_lower(pert, upper)))
        assert gap > 10 * report.tol * report.scale
        assert not report.verdicts["max_lower"]

    def test_gradient_sign_structure_along_arcs(self, twodisk, twodisk_solution):
        # the control derivative of the upper Hamiltonian vanishes on the
        # ride arc and keeps the saturating sign afterwards
        params, sol = twodisk_solution
        upper, _lowers, _ = fit_multipliers(sol)
        grid = sol.x.grid
        i = params.near
        tol = 5e-3
        for t_probe, expect in ((0.1, -1), (3.0, 0), (5.95, 1)):
            k = int(np.searchsorted(grid, t_probe))
            nu = float(upper.confinement[k, i])
            w = upper.q_lower[k + 1, i] - nu * (sol.x.states[k + 1, i] - sol.y.states[k + 1, i])
            g = control_gradient(twodisk.drift[i], sol.x.states[k, i]).T @ w
            deriv = float(g[0]) - 2 * float(upper.effort_weights[i]) * float(
                sol.u[i].values[k][0]
            )
            if expect < 0:
                assert deriv <= tol
            elif expect > 0:
                assert deriv >= -tol
            else:
                assert abs(deriv) <= tol


class TestFrozenScenarioWitness:
    def test_terminal_family_verifies_frozen_instance(self):
        sol = frozen_solution()
        upper, lowers, achieved = fit_multipliers(sol)
        assert achieved <= 1e-3
        assert upper.objective_weight > 0.0
        report = verify(sol, upper, lowers)
        assert report.all_pass

    def test_infeasible_candidate_rejected_before_fitting(self, twodisk):
        grid = uniform_grid(6.0, 40)
        v = [constant_profile(grid, np.zeros(2)) for _ in range(2)]
        u = [constant_profile(grid, [0.0]) for _ in range(2)]
        y = integrate_upper(twodisk, v)
        states = y.states.copy()
        states[:, 0, :] = states[:, 1, :]       # overlap the disks
        bad_y = Trajectory(grid=grid, states=states)
        x = Trajectory(grid=grid, states=states.copy())
        sol = BilevelSolution(
            scenario=twodisk, v=v, u=u, x0=twodisk.x0, y=bad_y, x=x,
            J_H=0.0, J_L=np.zeros(2), method="supplied",
            feasibility=check_feasibility(twodisk, bad_y, x, u, v),
        )
        with pytest.raises(ValueError):
            fit_multipliers(sol)


class TestValueSensitivityRoutes:
    """Cross-validation of the witness-formula and finite-difference routes
    on a boundary-tracking instance with a known sensitivity."""

    C = 2.0
    M = 0.05

    def tracking_scenario(self):
        return Scenario(
            N=1, R=1.0, T=1.0, y0=[[3.0, 0.0]],
            drift=[AffineDrift(np.zeros((2, 2)), np.eye(2), np.zeros(2))],
            U=[BallSet(10.0)],
            V=[BallSet(5.0)],
            M=[self.M], rho=[1.0],
            x0=[[2.0, 0.0]],          # starts on the trailing boundary
        )

    def tracking_solution(self, K=400):
        scn = self.tracking_scenario()
        grid = uniform_grid(1.0, K)
        v = [constant_profile(grid, [self.C, 0.0])]
        u = [constant_profile(grid, [self.C - self.M, 0.0])]
        return _solution(scn, v, u, scn.x0, "supplied")

    def analytic_witness(self, sol):
        # effort weight one; the confinement measure decreases linearly on
        # the tracking arc and drops by 2(c-M)/R in a terminal atom
        scn = sol.scenario
        grid = sol.x.grid
        K = grid.size - 1
        c, M, R = self.C, self.M, scn.R
        beta = 2 * M * (c - M) / R**2
        mu_T_post = 0.1
        mu_T_pre = mu_T_post + 2 * (c - M) / R
        mu = mu_T_pre + beta * (1.0 - grid)
        mu[-1] = mu_T_post
        z = sol.x.states[:, 0, :] - sol.y.states[:, 0, :]
        p_lower = 2 * (c - M) * np.array([1.0, 0.0])[None, :] + mu[:, None] * z
        p_lower[-1] = mu_T_post * z[-1]
        p_upper = (mu_T_post * R + beta * R * (1.0 - grid))[:, None] * np.array([[1.0, 0.0]])
        return LowerMultipliers(
            participant=0, grid=grid,
            p_upper=p_upper, p_lower=p_lower,
            overlap=np.zeros((K + 1, 1)), confinement=mu,
            effort_weight=1.0,
        )

    def test_witness_formula_matches_finite_differences(self):
        sol = self.tracking_solution()
        low = self.analytic_witness(sol)
        scn = sol.scenario
        # witness route: sensitivity from the stationarity articulation
        K = sol.x.grid.size - 1
        zeta_witness = np.empty((K, 2))
        z = sol.x.states[:, 0, :] - sol.y.states[:, 0, :]
        for k in range(K):
            zeta_witness[k] = -(
                low.p_upper[k + 1] + low.confinement[k] * z[k + 1]
            ) / low.effort_weight
        coarse = uniform_grid(1.0, 5)
        v_coarse = constant_profile(coarse, [self.C, 0.0])
        zeta_fd = fd_value_gradient(scn, 0, v_coarse)
        expected = 2 * (self.C - self.M)
        assert np.allclose(zeta_fd[:, 0], expected, rtol=1e-2)
        assert np.allclose(zeta_fd[:, 1], 0.0, atol=1e-6)
        assert np.allclose(zeta_witness[:, 0], expected, rtol=1e-2)
        assert np.allclose(zeta_witness[:, 1], 0.0, atol=1e-9)

    def test_analytic_witness_satisfies_inner_relation(self):
        sol = self.tracking_solution()
        low = self.analytic_witness(sol)
        upper = zero_upper(sol.scenario, sol.x.grid)
        upper.q_lower[:, 0, :] = 1e-3   # keep the tuple nontrivial
        report = verify(sol, upper, [low], tol=2e-3)
        for name in ("inner_1_adjoint", "inner_1_primal_inclusion",
                     "inner_1_boundary", "inner_1_monotonicity",
                     "inner_1_nontriviality"):
            assert report.verdicts[name], (name, report.residuals[name])


# ---------------------------------------------------------------------------
# the array verifier against its per-interval loop form


class LoopReference:
    """The verifier and the costate sweep in their per-(participant,
    interval) loop form, the reference for the array form; ``hits`` records
    the branches taken."""

    def __init__(self, sol):
        scn = self.scn = sol.scenario
        self.grid, self.K = sol.x.grid, sol.x.grid.size - 1
        self.h = np.diff(self.grid)
        self.y, self.x = sol.y.states, sol.x.states
        self.z = self.x - self.y
        self.u = [p.values for p in sol.u]
        self.v = [p.values for p in sol.v]
        nz = np.linalg.norm(self.z, axis=2)
        self.contact = nz >= scn.R - ACTIVATION_TOL
        self.normals = np.zeros_like(self.z)
        self.normals[nz > 1e-12] = self.z[nz > 1e-12] / nz[nz > 1e-12][:, None]
        self.cone = np.zeros((self.K, scn.N))
        for i in range(scn.N):
            for k in range(self.K):
                f = scn.drift[i].value(self.x[k, i], self.u[i][k])
                xdot = (self.x[k + 1, i] - self.x[k, i]) / self.h[k]
                self.cone[k, i] = max(0.0, dot(f - xdot, self.normals[k + 1, i]))
        self.hits = set()

    def pair(self, k, i, row):
        out = np.zeros(2)
        for j in range(self.scn.N):
            if j != i and row[j] != 0.0:
                d = self.y[k, i] - self.y[k, j]
                out += row[j] * (d / norm(d))
        return out

    def pair_jac(self, base, k, i, row, vk):
        for j in range(self.scn.N):
            if j != i and row[j] != 0.0:
                base = base + row[j] * matvec(contact_jacobian(self.y[k + 1, i], self.y[k + 1, j]), vk)
        return base

    def branch(self, k, i, q, nu, w):
        """('off' | 'active' | 'kink' | 'inactive', active gradient)"""
        scn = self.scn
        if not self.contact[k + 1, i]:
            return "off", np.zeros(2)
        m = dot(w, self.normals[k + 1, i])
        band = KINK_BAND_FRAC * (norm(q) + abs(nu) * scn.R) + 1e-12
        g = sigma_active_gradient(self.z[k + 1, i], q, nu, scn.R, scn.M[i])
        return ("active" if m < -band else "kink" if m <= band else "inactive"), g

    @staticmethod
    def sup_effort(g, alpha, cset):
        if isinstance(cset, IntervalSet):
            u = np.array([min(max(g[j] / (2 * alpha), cset.lo[j]), cset.hi[j]) if alpha > 0
                          else (cset.hi[j] if g[j] >= 0 else cset.lo[j]) for j in range(cset.dim)])
            return dot(g, u) - alpha * dot(u, u), u
        if isinstance(cset, SegmentSet):
            gc, L = dot(g, cset.direction), cset.halflength
            a = min(max(gc / (2 * alpha), -L), L) if alpha > 0 else (math.copysign(L, gc) if gc else 0.0)
            return gc * a - alpha * a * a, a * cset.direction
        gn, r = norm(g), cset.radius
        s = min(max(gn / (2 * alpha), 0.0), r) if alpha > 0 else (r if gn > 0 else 0.0)
        return gn * s - alpha * s * s, ((s / gn) * g if gn > 0 else np.zeros(2))

    @staticmethod
    def active_range(gc, alpha, lo, hi):
        a_star = min(max(gc / (2 * alpha), lo), hi) if alpha > 0 else (hi if gc >= 0 else lo)
        eps = SUP_ACTIVE_FRAC * (1.0 + abs(gc * a_star - alpha * a_star * a_star)) + 1e-12
        if alpha > 0:
            half = math.sqrt(eps / alpha)
            return (min(max(lo, gc / (2 * alpha) - half), a_star),
                    max(min(hi, gc / (2 * alpha) + half), a_star))
        if abs(gc) * (hi - lo) <= eps:
            return lo, hi
        return (hi - eps / gc, hi) if gc > 0 else (lo, lo + eps / abs(gc))

    def structure(self, i, k, w, alpha):
        drift, cset = self.scn.drift[i], self.scn.U[i]
        g = matvec(control_gradient(drift, self.x[k, i]).T, w)
        if isinstance(cset, SegmentSet) or (isinstance(cset, IntervalSet) and cset.dim == 1):
            seg = isinstance(cset, SegmentSet)
            gc = dot(g, cset.direction) if seg else float(g[0])
            lo, hi = (-cset.halflength, cset.halflength) if seg else (cset.lo[0], cset.hi[0])
            lo_s, hi_s = self.active_range(gc, alpha, lo, hi)
            if hi_s - lo_s < 1e-14:
                return "point", lo_s * (cset.direction if seg else np.ones(1))
            col = matvec(control_gradient(drift, self.x[k, i]), cset.direction) if seg else \
                control_gradient(drift, self.x[k, i])[:, 0]
            return "interval", lo_s, hi_s, col
        if isinstance(cset, BallSet):
            gn = norm(g)
            if alpha <= 0 and gn * cset.radius <= SUP_ACTIVE_FRAC * (1.0 + gn * cset.radius) + 1e-12:
                B = drift.B
                iso = abs(B[0, 0] - B[1, 1]) < 1e-12 and abs(B[0, 1]) < 1e-12 and abs(B[1, 0]) < 1e-12
                return "ball", (abs(B[0, 0]) if iso else float(np.linalg.norm(B, 2))) * cset.radius
        return "point", self.sup_effort(g, alpha, cset)[1]

    def hull(self, r, cols, los, his, ball=0.0):
        """Distance of r to {sum a_j cols_j : a_j in [lo_j, hi_j]} + ball*B, up to two columns."""
        self.hits.add(f"hull{len(cols)}")
        best = math.inf
        if len(cols) < 2:
            c = cols[0] if cols else np.zeros_like(r)
            cc = dot(c, c)
            a = min(max(dot(r, c) / cc if cc > 0 else 0.0, los[0] if cols else 0.0),
                    his[0] if cols else 0.0)
            return max(0.0, norm(r - a * c) - ball)
        A = np.column_stack(cols)
        try:
            gram = np.array([[dot(a, b) for b in A.T] for a in A.T])
            sol = np.linalg.solve(gram + 1e-15 * np.eye(2), matvec(A.T, r))
            if all(los[j] - 1e-12 <= sol[j] <= his[j] + 1e-12 for j in range(2)):
                best = norm(r - matvec(A, np.clip(sol, los, his)))
        except np.linalg.LinAlgError:
            pass
        for j, fixed in ((0, los[0]), (0, his[0]), (1, los[1]), (1, his[1])):
            best = min(best, self.hull(r - fixed * cols[j], [cols[1 - j]], [los[1 - j]], [his[1 - j]]))
        return max(0.0, best - ball)

    def normal_cone(self, w, cset, v):
        tol = 1e-9
        if isinstance(cset, IntervalSet):
            res = 0.0
            span = max(1.0, float(np.max(np.abs(np.concatenate([cset.lo, cset.hi])))))
            for j in range(cset.dim):
                at_hi, at_lo = v[j] >= cset.hi[j] - tol * span, v[j] <= cset.lo[j] + tol * span
                self.hits.add("V-interval-bound" if at_hi or at_lo else "V-interval-inside")
                if (w[j] > 0 and not at_lo) or (w[j] < 0 and not at_hi):
                    res += w[j] ** 2
            return math.sqrt(res)
        if isinstance(cset, SegmentSet):
            L = cset.halflength
            if L == 0.0:
                return 0.0
            a, along = dot(v, cset.direction), dot(w, cset.direction)
            if a >= L - tol * max(1.0, L):
                self.hits.add("V-segment-end")
                return max(0.0, along)
            if a <= -L + tol * max(1.0, L):
                return max(0.0, -along)
            self.hits.add("V-segment-inside")
            return abs(along)
        if cset.radius == 0.0:
            return 0.0
        rn = norm(v)
        if rn >= cset.radius - tol * max(1.0, cset.radius):
            self.hits.add("V-ball-boundary")
            ray = -v / rn
            return norm(w - max(0.0, dot(w, ray)) * ray)
        self.hits.add("V-ball-inside")
        return norm(w)

    def upper_adjoint(self, up, i, k):
        scn, h = self.scn, self.h[k]
        nu, vk = float(up.confinement[k, i]), self.v[i][k]
        qn = up.q_lower[k + 1, i]
        w = qn - nu * self.z[k + 1, i]
        f = scn.drift[i].value(self.x[k, i], self.u[i][k])
        base_lo = matvec(jac_x(scn.drift[i], self.u[i][k]).T, w) - nu * f + nu * vk
        base_hi = self.pair_jac(nu * f - nu * vk, k, i, up.overlap[k, i], vk)
        r_lo = -(qn - up.q_lower[k, i]) / h - base_lo
        r_hi = -(up.q_upper[k + 1, i] - up.q_upper[k, i]) / h - base_hi
        kind, g = self.branch(k, i, qn, nu, w)
        self.hits.add("upper-" + kind)
        theta = 1.0 if kind == "active" else 0.0
        if kind == "kink" and dot(g, g) > 1e-30:
            theta = min(max((dot(r_lo, g) - dot(r_hi, g)) / (2 * dot(g, g)), 0.0), 1.0)
        return norm(r_lo - theta * g), norm(r_hi + theta * g)

    def inner(self, low, k):
        """(joint adjoint distance, primal residual) of one interval."""
        scn, i, h = self.scn, low.participant, self.h[k]
        drift, x, vk = scn.drift[i], self.x[k, i], self.v[i][k]
        nu = float(low.confinement[k])
        pn = low.p_lower[k + 1]
        w = pn - nu * self.z[k + 1, i]
        st = self.structure(i, k, w, low.effort_weight)
        self.hits.add("hull-" + st[0])
        u_hat = st[1] if st[0] == "point" else np.zeros(drift.control_dim)
        f = drift.value(x, u_hat)
        base_lo = nu * vk + matvec(jac_x(drift, u_hat).T, w) - nu * f
        base_hi = self.pair_jac(-nu * vk, k, i, low.overlap[k], vk) + nu * f
        r_lo = -(pn - low.p_lower[k]) / h - base_lo
        r_hi = -(low.p_upper[k + 1] - low.p_upper[k]) / h - base_hi
        kind, g = self.branch(k, i, pn, nu, w)
        self.hits.add("inner-" + kind)
        if kind == "active":
            r_lo, r_hi = r_lo - g, r_hi + g
        cols, los, his, pcols, plos, phis = [], [], [], [], [], []
        ball = st[1] if st[0] == "ball" else 0.0
        if st[0] == "interval":
            col = st[3]
            col_lo = drift.coeff * w - nu * col if isinstance(drift, ScaledLinearDrift) else -nu * col
            cols, los, his = [np.concatenate([col_lo, nu * col])], [st[1]], [st[2]]
            pcols, plos, phis = [col], [st[1]], [st[2]]
        if kind == "kink":
            cols, los, his = cols + [np.concatenate([g, -g])], los + [0.0], his + [1.0]
        if self.contact[k + 1, i]:
            pcols, plos, phis = pcols + [-self.normals[k + 1, i]], plos + [0.0], phis + [float(scn.M[i])]
        adjoint = self.hull(np.concatenate([r_lo, r_hi]), cols, los, his, abs(nu) * ball * math.sqrt(2))
        primal = self.hull((self.x[k + 1, i] - x) / h - f, pcols, plos, phis, ball)
        ydot = (self.y[k + 1, i] - self.y[k, i]) / h
        return adjoint, max(primal, norm(ydot - vk))

    def initial(self, w0, i):
        n0 = self.normals[0, i]
        return norm(w0 - dot(w0, n0) * n0 if self.contact[0, i] else w0)

    def shape(self, path, clear):
        diffs = np.diff(path)
        steps = clear[:-1] & clear[1:]
        return max(0.0, float(np.max(diffs)), float(np.max(np.abs(diffs[steps]), initial=0.0)))

    def zeta(self, i, k, lowers):
        low = lowers[i] if lowers is not None else None
        if low is not None and low.effort_weight > 0:
            return -(low.p_upper[k + 1] + low.confinement[k] * self.z[k + 1, i]
                     + self.pair(k + 1, i, low.overlap[k])) / low.effort_weight
        return None

    @staticmethod
    def variation(path):
        return float(np.sum(np.abs(np.diff(path))))

    def verify(self, up, lowers=None, tol=1e-3):
        """(residuals, verdicts, max_condition_lower path, max_condition_upper path)."""
        scn, K = self.scn, self.K
        scale = 1.0 + max(np.max(np.abs(up.q_upper)), np.max(np.abs(up.q_lower)))
        res = {"nontriviality": scale - 1.0 + up.objective_weight + float(np.sum(up.effort_weights))
               + sum(self.variation(up.confinement[:, i]) for i in range(scn.N))
               + sum(self.variation(up.overlap[:, i, j])
                     for i in range(scn.N) for j in range(i + 1, scn.N))}
        adj = [self.upper_adjoint(up, i, k) for i in range(scn.N) for k in range(K)]
        res["adjoint_q_lower"] = max(a for a, _ in adj)
        res["adjoint_q_upper"] = max(b for _, b in adj)
        bnd = 0.0
        for i in range(scn.N):
            nuT, zT = up.confinement[-1, i], self.z[-1, i]
            target = -up.objective_weight * self.y[-1, i] - nuT * zT - self.pair(K, i, up.overlap[-1, i])
            bnd = max(bnd, norm(up.q_upper[-1, i] - target),
                      norm(up.q_lower[-1, i] - nuT * zT),
                      self.initial(up.q_lower[0, i] - up.confinement[0, i] * self.z[0, i], i))
        res["boundary"] = bnd
        alpha = up.effort_weights
        gaps, upper_max = np.zeros(K), np.zeros(K)
        for k in range(K):
            for i in range(scn.N):
                w = up.q_lower[k + 1, i] - up.confinement[k, i] * self.z[k + 1, i]
                g = matvec(control_gradient(scn.drift[i], self.x[k, i]).T, w)
                sup, _u = self.sup_effort(g, float(alpha[i]), scn.U[i])
                uk = self.u[i][k]
                gaps[k] += max(0.0, sup - (dot(g, uk) - float(alpha[i]) * dot(uk, uk)))
                lhs = (up.q_upper[k + 1, i] + up.confinement[k, i] * self.z[k + 1, i]
                       + self.pair(k + 1, i, up.overlap[k, i]))
                if alpha[i] != 0.0:
                    zeta = self.zeta(i, k, lowers)
                    if zeta is None:        # no sensitivity: NaN marks the row
                        upper_max[k] = np.nan
                        continue
                    lhs = lhs - alpha[i] * zeta
                upper_max[k] = max(upper_max[k], self.normal_cone(lhs, scn.V[i], self.v[i][k]))
        res["max_lower"] = float(np.max(gaps))
        res["max_upper"] = math.inf if np.isnan(upper_max).any() else float(np.max(upper_max))
        mono = 0.0
        for i in range(scn.N):
            mono = max(mono, self.shape(up.confinement[:, i], ~self.contact[:, i]))
            for j in range(i + 1, scn.N):
                gap = np.linalg.norm(self.y[:, i] - self.y[:, j], axis=1) - 2 * scn.R
                mono = max(mono, self.shape(up.overlap[:, i, j], gap > ACTIVATION_TOL))
        res["monotonicity"] = mono
        verdicts = {name: value <= tol * scale for name, value in res.items()}
        verdicts["nontriviality"] = res["nontriviality"] >= NONTRIVIALITY_TOL
        for i, low in enumerate(lowers or []):
            if low is None:
                continue
            tag = f"inner_{i+1}"
            p_scale = 1.0 + max(np.max(np.abs(low.p_upper)), np.max(np.abs(low.p_lower)))
            inner = [self.inner(low, k) for k in range(K)]
            muT, zT = low.confinement[-1], self.z[-1, i]
            mono = self.shape(low.confinement, ~self.contact[:, i])
            for j in range(scn.N):
                if j != i:
                    gap = np.linalg.norm(self.y[:, i] - self.y[:, j], axis=1) - 2 * scn.R
                    mono = max(mono, self.shape(low.overlap[:, j], gap > ACTIVATION_TOL))
            art = 0.0
            if not low.effort_weight > 0:
                for k in range(K):
                    vec = (low.p_upper[k + 1] + low.confinement[k] * self.z[k + 1, i]
                           + self.pair(k + 1, i, low.overlap[k]))
                    art = max(art, self.normal_cone(vec, scn.V[i], self.v[i][k]))
            for name, value in (
                ("adjoint", max(a for a, _ in inner)),
                ("primal_inclusion", max(p for _, p in inner)),
                ("boundary", max(norm(low.p_lower[-1] - muT * zT),
                                 norm(low.p_upper[-1] - (-muT * zT - self.pair(K, i, low.overlap[-1]))),
                                 self.initial(low.p_lower[0] - low.confinement[0] * self.z[0, i], i))),
                ("monotonicity", mono),
                ("articulation", art),
            ):
                res[f"{tag}_{name}"] = float(value)
                verdicts[f"{tag}_{name}"] = value <= tol * p_scale
            res[f"{tag}_nontriviality"] = (p_scale - 1.0 + low.effort_weight
                                           + self.variation(low.confinement)
                                           + sum(self.variation(low.overlap[:, j])
                                                 for j in range(scn.N) if j != i))
            verdicts[f"{tag}_nontriviality"] = res[f"{tag}_nontriviality"] >= NONTRIVIALITY_TOL
        return res, verdicts, gaps, upper_max

    def backward(self, i, q_lo_T, q_hi_T, nu, alpha=None):
        """The backward costate sweep, one interval at a time (no pair measures)."""
        scn, K, drift, cap = self.scn, self.K, self.scn.drift[i], float(self.scn.M[i])
        q_lo, q_hi = np.zeros((K + 1, 2)), np.zeros((K + 1, 2))
        q_lo[K], q_hi[K] = q_lo_T, q_hi_T
        for k in range(K - 1, -1, -1):
            h, qn, x, vk = self.h[k], q_lo[k + 1], self.x[k, i], self.v[i][k]
            w = qn - nu[k] * self.z[k + 1, i]
            u = self.u[i][k]
            if alpha is not None:
                st = self.structure(i, k, w, alpha)
                u = st[1] if st[0] == "point" else u
                self.hits.add("sweep-" + st[0])
            if alpha is None or st[0] != "point":   # a step at the claimed control
                self.hits.add("sweep-" + ("scaled" if isinstance(drift, ScaledLinearDrift)
                                          else "affine"))
            f = drift.value(x, u)
            base_lo = matvec(jac_x(drift, u).T, w) - nu[k] * f + nu[k] * vk
            kind, g = self.branch(k, i, qn, nu[k], w)
            sig = np.zeros(2)
            if kind == "active":
                sig = g
            elif kind == "kink":
                theta = min(max(self.cone[k, i] / cap, 0.0), 1.0)
                self.hits.add("sweep-kink-" + ("pinned" if self.contact[k, i] else "onset"))
                if self.contact[k, i]:
                    m0 = dot(qn + h * base_lo - nu[k] * self.z[k, i], self.normals[k, i])
                    slope = h * dot(g, self.normals[k, i])
                    if abs(slope) > 1e-30:
                        theta = min(max(-m0 / slope, 0.0), 1.0)
                sig = theta * g
            self.hits.add("sweep-" + kind)
            q_lo[k] = qn + h * (base_lo + sig)
            q_hi[k] = q_hi[k + 1] + h * (nu[k] * f - nu[k] * vk - sig)
        return q_lo, q_hi


def mixed_solution(K=80):
    """Four participants, one per drift/control-set pairing: scaled-linear
    drift with an interval U; affine drift with a ball U, a 2-D interval U
    and a segment U.  The disks move away from the resting populations, so
    every population reaches its disk boundary; the velocities sit on the
    boundaries of their segment, ball and interval sets for part of the run."""
    y0 = [[0.0, 0.0], [0.0, 4.0], [6.0, 0.0], [6.0, 6.0]]
    scn = Scenario(
        N=4, R=1.0, T=2.0, y0=y0, x0=y0,
        drift=[ScaledLinearDrift(-0.5),
               AffineDrift([[-0.1, 0.05], [0.0, -0.1]], np.eye(2), [0.2, -0.1]),
               AffineDrift([[0.05, 0.0], [0.02, -0.05]], [[0.8, 0.1], [-0.2, 0.6]], [0.1, 0.1]),
               AffineDrift([[0.0, 0.03], [-0.03, 0.0]], [[1.0, 0.0], [0.5, 1.0]], [-0.1, 0.0])],
        U=[IntervalSet([0.0], [1.0]), BallSet(0.5), IntervalSet([-1.0, -0.5], [0.5, 1.0]),
           SegmentSet([1.0, 1.0], 0.7)],
        V=[SegmentSet([1.0, 0.0], 3.0), BallSet(2.5), IntervalSet([-2.0, -2.0], [2.0, 2.0]),
           SegmentSet([0.0, 1.0], 2.0)],
        M=[6.0] * 4, rho=[1.0, 0.5, 2.0, 1.0],
    )
    grid = uniform_grid(scn.T, K)
    first = grid[:-1, None] < 1.0
    v = [np.where(first, [2.0, 0.0], [2.5, 0.0]),
         np.where(first, [-1.5, 1.0], [1.5, 2.0]),
         np.where(first, [2.0, -1.0], [0.5, 1.0]),
         np.where(first, [0.0, 2.0], [0.0, 1.0])]
    u = [np.where(first, 0.3, 1.0),
         np.where(first, [0.0, 0.0], [0.3, 0.4]),
         np.where(first, [0.5, -0.5], [-0.2, 1.0]),
         np.where(first, [0.2, 0.2], [0.7 / math.sqrt(2)] * 2)]

    def profiles(values):
        return [ControlProfile(grid=grid, values=np.asarray(a, float) * np.ones((K, 1)))
                for a in values]

    return _solution(scn, profiles(v), profiles(u), scn.x0, "supplied")


def h5_bounds_loop(scenario, boundary_samples):
    """Per-sample reference for ``h5_bounds``, with each set's support value
    written out for one direction."""
    def support(cset, d):
        if isinstance(cset, IntervalSet):
            return float(np.sum(np.where(d >= 0, d * cset.hi, d * cset.lo)))
        if isinstance(cset, SegmentSet):
            return cset.halflength * abs(dot(d, cset.direction))
        return cset.radius * norm(d)

    out = []
    for i, samples in enumerate(boundary_samples):
        drift, Ui, Vi = scenario.drift[i], scenario.U[i], scenario.V[i]
        upper, lower = math.inf, -math.inf
        for x, yc in samples:
            z = x - yc
            n = z / norm(z)
            base = dot(n, drift.value(x, np.zeros(drift.control_dim)))
            lin = matvec(control_gradient(drift, x).T, n)
            max_u, min_u = base + support(Ui, lin), base - support(Ui, -lin)
            max_v, min_v = support(Vi, n), -support(Vi, -n)
            upper = min(upper, max_u - min_v)
            lower = max(lower, min_u - max_v)
        out.append((upper, lower))
    return out


def test_h5_bounds_rows_match_the_per_sample_loop():
    """Every U and V shape and both drift families, on the contact nodes;
    the second scenario makes one V interval asymmetric, so the support
    values of n and -n differ."""
    sol = mixed_solution()
    x, y, contact = sol.x.states, sol.y.states, sol.x.contact
    samples = [[(x[k, i], y[k, i]) for k in np.flatnonzero(contact[:, i])]
               for i in range(sol.scenario.N)]
    assert all(len(rows) > 10 for rows in samples)
    skewed = copy.copy(sol.scenario)
    skewed.V = [*skewed.V[:2], IntervalSet([-2.0, -0.5], [1.0, 2.0]), skewed.V[3]]
    for scenario in (sol.scenario, skewed):
        assert h5_bounds(scenario, samples) == h5_bounds_loop(scenario, samples)

    rows = samples[2]
    for k, scale in ((3, 1.5), (5, 2.0)):   # two samples off the boundary (R=1)
        xk, yk = rows[k]
        rows[k] = (yk + scale * (xk - yk) / np.linalg.norm(xk - yk), yk)
    with pytest.raises(ValueError, match=r"^participant 3: sample offset norm 1\.5 is not on "
                                         r"the boundary \(R=1\)$"):
        h5_bounds(sol.scenario, samples)


def steered(q, nu, z, normals, contact, rng, size):
    """Costate rows whose activation <q - nu z, n> cycles through negative,
    zero and positive values at the contact nodes."""
    q = q.copy()
    for k in np.flatnonzero(contact[1:]) + 1:
        n = normals[k]
        q[k] = nu[k - 1] * z[k] + [-size, 0.0, size][k % 3] * n + rng.normal() * np.array([-n[1], n[0]])
    return q


def designed_multipliers(sol, seed, objective_weight):
    """Multipliers with O(1) residuals that take every branch: kink, active
    and inactive cone supports, unique, interval and flat-ball maximizers
    (w = 0 on every seventh interval), pair measures, and inner witnesses
    with and without effort weight.  A weighted upper effort takes every
    participant's sensitivity from its inner witness formula, so then every
    inner effort weight is positive."""
    rng = np.random.default_rng(seed)
    scn, grid = sol.scenario, sol.x.grid
    K, N = grid.size - 1, scn.N
    z = sol.x.states - sol.y.states
    nz = np.linalg.norm(z, axis=2)
    normals = z / np.where(nz > 0, nz, 1.0)[..., None]
    contact = nz >= scn.R - 1e-6
    nu = np.maximum(0.0, 0.5 - 0.1 * grid)[:, None] * np.ones(N)
    q_lower = np.stack([steered(rng.normal(size=(K + 1, 2)), nu[:, i], z[:, i], normals[:, i],
                                contact[:, i], rng, 1.0) for i in range(N)], axis=1)
    overlap = np.zeros((K + 1, N, N))
    overlap[:, 0, 1] = np.linspace(0.3, 0.0, K + 1)
    overlap[:, 2, 3] = 0.2
    upper = UpperMultipliers(grid=grid, q_upper=rng.normal(size=(K + 1, N, 2)), q_lower=q_lower,
                             overlap=overlap, confinement=nu,
                             objective_weight=objective_weight, rho=scn.rho)
    lowers = []
    efforts = [1.0, 0.3, 0.5, 0.2] if objective_weight > 0 else [1.0, 0.0, 0.5, 0.0]
    for i, effort in enumerate(efforts):
        mu = np.linspace(0.4, 0.1, K + 1)
        p_lower = steered(rng.normal(size=(K + 1, 2)), mu, z[:, i], normals[:, i],
                          contact[:, i], rng, 3.0)
        p_lower[1::7] = mu[:-1:7, None] * z[1::7, i]
        row = np.zeros((K + 1, N))
        row[:, (i + 1) % N] = 0.1
        lowers.append(LowerMultipliers(
            participant=i, grid=grid, p_upper=rng.normal(size=(K + 1, 2)), p_lower=p_lower,
            overlap=row, confinement=mu, effort_weight=effort))
    return upper, lowers


def assert_matches_reference(sol, upper, lowers=None, ref=None):
    ref = ref or LoopReference(sol)
    residuals, verdicts, gaps, upper_path = ref.verify(upper, lowers)
    report = verify(sol, upper, lowers)
    assert report.residuals.keys() == residuals.keys()
    for name, value in residuals.items():
        bound = 1e-12 * (report.scale + abs(value)) if math.isfinite(value) else 0.0
        assert abs(report.residuals[name] - value) <= bound or report.residuals[name] == value, name
    assert report.verdicts == verdicts
    r_lo, r_hi = adjoint_residual(sol, upper)
    assert (r_lo, r_hi) == pytest.approx(
        (residuals["adjoint_q_lower"], residuals["adjoint_q_upper"]), rel=1e-12, abs=1e-12)
    assert boundary_residual(sol, upper) == pytest.approx(residuals["boundary"], rel=1e-12, abs=1e-12)
    assert np.allclose(max_condition_lower(sol, upper), gaps, rtol=1e-12, atol=1e-12)
    if math.isfinite(residuals["max_upper"]):
        assert np.allclose(max_condition_upper(sol, upper, lowers), upper_path,
                           rtol=1e-12, atol=1e-12)
    return report


# (measure level, weight) of each costate sweep compared and pinned below
SWEEP_SETTINGS = ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))


def assert_sweeps_match(sol, ref):
    """Both passes of the costate sweep, the upper one with the claimed
    controls and the inner one with the inner maximizers at the effort
    weight, at measure level and weight 1/0, 0/1 and one mixed case."""
    data = nco._SolutionData(sol)
    K, N = data.K, sol.scenario.N
    for i in range(N):
        for level, weight in SWEEP_SETTINGS:
            nu = np.full(K + 1, level)
            q_T = nu[K] * data.z[K, i]
            upper, inner = nco._backward_pair(data, i, nu, weight)
            want = (ref.backward(i, q_T, -weight * data.y[K, i] - q_T, nu),
                    ref.backward(i, q_T, -q_T, nu, weight))
            for got, ref_pair in zip((upper, inner), want):
                for a, b in zip(got, ref_pair):
                    assert np.allclose(a, b, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(b))))


@pytest.fixture(scope="module")
def twodisk_300(twodisk):
    return solve_twodisk_parametric(twodisk, grid_K=300)[1]


class TestArrayVerifierMatchesLoopReference:
    def test_twodisk_reference(self, twodisk_300):
        ref = LoopReference(twodisk_300)
        upper, lowers, _ = fit_multipliers(twodisk_300)
        assert assert_matches_reference(twodisk_300, upper, lowers, ref=ref).all_pass
        assert_sweeps_match(twodisk_300, ref)

    def test_mixed_families_take_every_branch(self):
        sol = mixed_solution()
        assert sol.feasibility.ok()
        ref = LoopReference(sol)
        rng = np.random.default_rng(7)
        K, N = sol.x.grid.size - 1, sol.scenario.N
        for objective_weight in (0.5, 0.0):
            upper, lowers = designed_multipliers(sol, 3, objective_weight)
            assert_matches_reference(sol, upper, lowers, ref)
            # every pair measure nonzero, so several j add per lane, and a
            # nonzero inner j == i entry, which adds nothing
            dense = dataclasses.replace(upper, overlap=rng.uniform(0.1, 0.5, (K + 1, N, N)))
            dense_lowers = [dataclasses.replace(low, overlap=rng.uniform(0.1, 0.5, (K + 1, N)))
                            for low in lowers]
            report = assert_matches_reference(sol, dense, dense_lowers, ref)
            zeroed = [dataclasses.replace(low, overlap=np.where(np.arange(N) == i, 0.0, low.overlap))
                      for i, low in enumerate(dense_lowers)]
            assert verify(sol, dense, zeroed).residuals == report.residuals
        # a weighted upper effort without inner witnesses has no sensitivity
        report = assert_matches_reference(sol, designed_multipliers(sol, 3, 0.5)[0], ref=ref)
        assert report.residuals["max_upper"] == math.inf and not report.verdicts["max_upper"]
        data = nco._SolutionData(sol)
        for weight in (0.0, 1.0):
            upper, lowers = nco._build_family(data, weight)
            assert_matches_reference(sol, upper, lowers, ref=ref)
        assert_sweeps_match(sol, ref)
        assert ref.hits >= {
            "upper-off", "upper-active", "upper-kink", "upper-inactive",
            "inner-active", "inner-kink", "inner-inactive",
            "hull-point", "hull-interval", "hull-ball", "hull0", "hull1", "hull2",
            "sweep-point", "sweep-interval", "sweep-ball", "sweep-kink",
            "V-interval-bound", "V-interval-inside", "V-segment-end", "V-segment-inside",
            "V-ball-boundary", "V-ball-inside",
        }

    def test_perturbed_multipliers(self, twodisk_300):
        report = assert_matches_reference(twodisk_300, *perturbed_multipliers(twodisk_300))
        assert report.residuals["adjoint_q_lower"] > 1.0 and not report.all_pass


def perturbed_multipliers(sol):
    """The fitted witness of a two-participant solution with every costate
    and measure perturbed at random, pair measures on, objective weight 0.3
    and inner effort weights 0.7."""
    upper, lowers, _ = fit_multipliers(sol)
    rng = np.random.default_rng(5)
    K, N = sol.x.grid.size - 1, 2
    bumped = UpperMultipliers(
        grid=upper.grid, q_upper=upper.q_upper + rng.normal(size=upper.q_upper.shape),
        q_lower=upper.q_lower + rng.normal(size=upper.q_lower.shape),
        overlap=np.abs(rng.normal(size=(K + 1, N, N))),
        confinement=upper.confinement + np.abs(rng.normal(size=(K + 1, N))),
        objective_weight=0.3, rho=sol.scenario.rho)
    bumped_lowers = [LowerMultipliers(
        participant=i, grid=low.grid, p_upper=low.p_upper + rng.normal(size=(K + 1, 2)),
        p_lower=low.p_lower + rng.normal(size=(K + 1, 2)),
        overlap=np.abs(rng.normal(size=(K + 1, N))), confinement=low.confinement + 0.5,
        effort_weight=0.7)
        for i, low in enumerate(lowers)]
    return bumped, bumped_lowers


@pytest.mark.parametrize("level", ["upper", "inner"])
def test_coincident_centres_raise_only_under_a_pair_weight(level):
    """The contact Jacobian of a pair is undefined where the disk centres
    coincide: verify raises there when the pair's measure weights that node,
    and not when it weights only other nodes."""
    y0 = [[-2.0, 0.0], [2.0, 0.0]]
    scn = Scenario(N=2, R=1.0, T=2.0, y0=y0, x0=y0, drift=[ScaledLinearDrift(-1.0)] * 2,
                   U=[IntervalSet([0.0], [1.0])] * 2, V=[BallSet(2.0)] * 2, M=[6.0] * 2,
                   rho=[1.0] * 2)
    grid = uniform_grid(scn.T, 2)
    v = [ControlProfile(grid=grid, values=[[2.0, 0.0]] * 2),
         ControlProfile(grid=grid, values=[[-2.0, 0.0]] * 2)]
    u = [ControlProfile(grid=grid, values=[[0.0]] * 2)] * 2
    sol = _solution(scn, v, u, scn.x0, "supplied")
    assert np.array_equal(sol.y.states[1, 0], sol.y.states[1, 1])    # the centres meet at t=1
    for row, raises in ((0, True), (1, False)):     # overlap row k weights landing node k+1
        upper, lowers = zero_upper(scn, grid), None
        if level == "upper":
            overlap = np.zeros((3, 2, 2))
            overlap[row, 0, 1] = 1.0
            upper = dataclasses.replace(upper, overlap=overlap)
        else:
            overlap = np.zeros((3, 2))
            overlap[row, 1] = 1.0
            lowers = [LowerMultipliers(participant=0, grid=grid, p_upper=np.zeros((3, 2)),
                                       p_lower=np.zeros((3, 2)), overlap=overlap,
                                       confinement=np.zeros(3), effort_weight=0.0), None]
        if raises:
            with pytest.raises(SingularConfigurationError, match="^coincident centers$"):
                verify(sol, upper, lowers)
        else:
            verify(sol, upper, lowers)


# sha256 of the four costates that _backward_pair returns (upper q_lower and
# q_upper, then inner p_lower and p_upper), per (participant, level, weight)
# of assert_sweeps_match, on twodisk_300 and mixed_solution().
SWEEP_SHA256 = {
    "twodisk": {
        (0, 1.0, 0.0): "72ecbfa9c69904563ab0a931fbbb5c6ea15600bc01261c836b2e20b450242a04",
        (0, 0.0, 1.0): "53d863dc43c5ab900afbe4ff1ced20370b41e0689044b2088c015477cb53b944",
        (0, 0.5, 0.5): "675f5ba27cab1f1a52e062cedcaa064bb5a3eed67e0f44f1cf6e3479c6c4c4db",
        (1, 1.0, 0.0): "b10e983a304633c9b94f3160d48d5adb9d583c301f4a134f6f2a42b290705c4b",
        (1, 0.0, 1.0): "c071e653b89dda9d70ae0d377fcc74de8dd51c1ffd07afd7a58d8ebb25311e1c",
        (1, 0.5, 0.5): "e5e2077f5db5560cfbb7b516abb8233e6c9c6276a5cdcebe299255e9ed965929",
    },
    "mixed": {
        (0, 1.0, 0.0): "fd93b7e089e664c29fe52b0e0d28c4a183da2674b68fa955c255cc34e856061b",
        (0, 0.0, 1.0): "999e46bf0a8db159510a1990955ba937d2cd8ee3c225e9f94f6f75eed4aec353",
        (0, 0.5, 0.5): "549d5931ebbbde030e6820321d5ec58e912fe1809842f5de8905e32cac3ff24d",
        (1, 1.0, 0.0): "f61e7c788b1bfdb11b6e68be32c991df9b9ed4a7ae39afa6d3cae0aeac3e80c5",
        (1, 0.0, 1.0): "b490cf51cec4d989270ddc5bd08a92e2027b3479219bacde183f7d17db043724",
        (1, 0.5, 0.5): "1f969ce24eb4b5f52ad2756084c8a821e987a526b87f6837ff5c12fd4a5a24bb",
        (2, 1.0, 0.0): "ee7ad667ae5a9ebe0e72f615aee3a3e22243a13a143ce35550c6f92ef099aa40",
        (2, 0.0, 1.0): "f0792f8831dcb9249d7f39b914ae40100032c140df3c58da399de9fc36d8e333",
        (2, 0.5, 0.5): "f11a9d1fd91eb5d3e2b0b9e87501a8ff19a0058b27902b4be7c4890c8e784f74",
        (3, 1.0, 0.0): "bc52e3632cc5cac6be2310f7f3736b55d64775ff1508ff84f78fec69920cbffe",
        (3, 0.0, 1.0): "ce2c8676cda2b4d5764a30292aaef0b4f6e2e8b70122bd6193b2a4a4f962db4d",
        (3, 0.5, 0.5): "fc063aa8aeff42e9e3fc42e37d47ea69f70f9723751b1da88566d3215a34f6e3",
    },
}


@pytest.mark.parametrize("name", sorted(SWEEP_SHA256))
def test_sweeps_are_pinned_bit_for_bit(name, twodisk_300):
    """The costate sweeps keep their bits.  The mixed cases take the unique
    maximizer steps, which stay numpy, and the float steps at the claimed
    control of both drift families through every cone-support branch (the
    kink pinned and at contact onset), so the pin covers every path of the
    loop."""
    sol = twodisk_300 if name == "twodisk" else mixed_solution()
    data = nco._SolutionData(sol)
    got = {}
    for i in range(sol.scenario.N):
        for level, weight in SWEEP_SETTINGS:
            upper, inner = nco._backward_pair(data, i, np.full(data.K + 1, level), weight)
            got[(i, level, weight)] = hashlib.sha256(
                b"".join(a.tobytes() for a in (*upper, *inner))).hexdigest()
    assert got == SWEEP_SHA256[name]
    if name == "mixed":
        ref = LoopReference(sol)
        assert_sweeps_match(sol, ref)
        assert ref.hits >= {"sweep-point", "sweep-scaled", "sweep-affine", "sweep-off",
                            "sweep-inactive", "sweep-active", "sweep-kink-pinned",
                            "sweep-kink-onset"}


def verifier_text(sol, upper, lowers):
    """Everything the verifier reports on one witness, in float hex: each
    ``verify`` residual with its ``worst_at`` place, ``adjoint_residual``,
    ``boundary_residual``, and the ``max_condition_lower`` and
    ``max_condition_upper`` paths (every pinned witness defines the
    value-function sensitivities that the latter needs)."""
    report = verify(sol, upper, lowers)
    lines = []
    for name, value in report.residuals.items():
        at = report.worst_at.get(name)
        lines.append(f"{name} {value.hex()}" + ("" if at is None else f" {at[0].hex()} {at[1]}"))
    lines.append("adjoint_residual " + " ".join(v.hex() for v in adjoint_residual(sol, upper)))
    lines.append(f"boundary_residual {boundary_residual(sol, upper).hex()}")
    for name, path in (("max_condition_lower", max_condition_lower(sol, upper)),
                       ("max_condition_upper", max_condition_upper(sol, upper, lowers))):
        lines.append(name + " " + " ".join(map(float.hex, path.tolist())))
    return "\n".join(lines) + "\n"


def pinned_witness(name, twodisk_300):
    """(solution, upper, lowers) of each witness of the verifier pin."""
    if name == "twodisk-fit":
        return (twodisk_300, *fit_multipliers(twodisk_300)[:2])
    if name == "twodisk-perturbed":
        return (twodisk_300, *perturbed_multipliers(twodisk_300))
    sol = mixed_solution()
    if name.endswith("family"):
        return (sol, *nco._build_family(nco._SolutionData(sol), float(name == "terminal-family")))
    upper, lowers = designed_multipliers(sol, 3, float(name.split("-")[1]))
    if name.endswith("dense"):          # every pair measure nonzero
        rng = np.random.default_rng(7)
        K, N = sol.x.grid.size - 1, sol.scenario.N
        upper = dataclasses.replace(upper, overlap=rng.uniform(0.1, 0.5, (K + 1, N, N)))
        lowers = [dataclasses.replace(low, overlap=rng.uniform(0.1, 0.5, (K + 1, N)))
                  for low in lowers]
    return sol, upper, lowers


# sha256 of verifier_text on each witness: the designed multipliers of
# mixed_solution() at objective weight 0.5 and 0, plain and with every pair
# measure nonzero, both fitted families there, and the two-disk fit at K=300
# with its perturbed witness.
VERIFIER_SHA256 = {
    "mixed-0.5": "6e1b8d21b88c6b679db880f47e253a3fbae7d68cea9989ae9081ac3f4037638c",
    "mixed-0.5-dense": "f357d6d675bb51c4f7dd976a362404501afed9429e4e7d1509b3d885f8ca652d",
    "mixed-0": "d2f63bc12695da2d4b415997fdeee6c3c077807647c16adacc320f0acee0131f",
    "mixed-0-dense": "39b5de41973ddb97a1a4b9c740b6c7e9906bf7da245c923350c2615db0da859a",
    "measure-family": "5b952f481f880984989d401bb2852b5ebdcc118e79d0ae0c6f3366ba96875bd1",
    "terminal-family": "fe46c6c648294bc016cdd6f4723f795063843d2544eca414f94ed9a19ed8dbc9",
    "twodisk-fit": "25e7eb681914866848ec299fdeef0aa60bd6d7f36b9ed654566f074b5b17ceb7",
    "twodisk-perturbed": "2d33ed7dfd7759aa442701cd955a8e280f6a4744bf41c558a2a933c98ae1c8ee",
}


@pytest.mark.parametrize("name", sorted(VERIFIER_SHA256))
def test_verifier_is_pinned_bit_for_bit(name, twodisk_300):
    """The verifier keeps its bits: the loop reference compares to 1e-12
    only, so a reordered sum would pass it but not this pin."""
    text = verifier_text(*pinned_witness(name, twodisk_300))
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFIER_SHA256[name]


def test_interval_bound_tolerance_is_the_set_scale():
    """A velocity is at an interval's bound within 1e-9 of the set's scale,
    its largest |bound|, as in the membership test; not within 1e-9 of the
    coordinate's |hi| + |lo|.  The second row lies between the two."""
    w, v = np.array([[-1.0], [-1.0]]), np.array([[3.0 - 2e-9], [3.0 - 4.5e-9]])
    assert IntervalSet([-3.0], [3.0])._normal_cone_distance(w, v).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("cset", [BallSet(1e-10), SegmentSet([1.0, 0.0], 1e-10)],
                         ids=["ball", "segment"])
def test_set_within_its_tolerance_has_the_normal_cone_of_a_point(cset):
    """A ball or segment no larger than its membership tolerance is a point
    within it, whose normal cone is the whole plane: every distance is 0,
    also at v = 0, where the ball has no outward ray."""
    w = np.array([[1.0, 0.0], [-1.0, 0.5], [0.0, -2.0]])
    v = np.array([[0.0, 0.0], [1e-10, 0.0], [-1e-10, 0.0]])
    assert cset._normal_cone_distance(w, v).tolist() == [0.0, 0.0, 0.0]


def test_worst_residual_names_the_perturbed_interval(twodisk_300):
    upper, _lowers, _ = fit_multipliers(twodisk_300)
    k, i = 150, 1
    bumped = copy.deepcopy(upper)
    bumped.q_lower[k:, i, 0] += 0.5         # a jump between nodes k-1 and k
    report = verify(twodisk_300, bumped)
    assert not report.verdicts["adjoint_q_lower"]
    assert report.worst_at["adjoint_q_lower"] == (twodisk_300.x.grid[k - 1], i)
    assert report.worst_at["boundary"][0] == twodisk_300.x.grid[-1]


def test_inner_witnesses_are_matched_by_participant(twodisk_300):
    """Entry i of lowers must be None or participant i's witness on the
    solution's grid; the terminal family's upper witness weights both
    efforts, so it reads both entries."""
    upper, lowers = nco._build_family(nco._SolutionData(twodisk_300), 1.0)
    stretched = dataclasses.replace(lowers[1], grid=1.001 * lowers[1].grid)
    for bad, message in ((lowers[::-1], "lowers[0] is the witness of participant 2, "
                                        "not of participant 1"),
                         (lowers[:1], "lowers needs 2 entries, one per participant, "
                                      "and has 1"),
                         ([lowers[0], stretched], "multipliers: grids do not match")):
        for check in (verify, max_condition_upper):
            with pytest.raises(ValueError) as exc:
                check(twodisk_300, upper, bad)
            assert str(exc.value) == message
    report = verify(twodisk_300, upper, [None, lowers[1]])
    assert report.residuals["max_upper"] == math.inf
    assert "inner_2_adjoint" in report.residuals and "inner_1_adjoint" not in report.residuals


def test_cli_verify_builds_the_solution_data_once(tmp_path, monkeypatch):
    builds, calls, sweeps, hulls = [], [], [], []
    real_verify, real_sweep, real_hull = nco.verify, nco._backward_pair, nco._u_hull

    class CountedData(nco._SolutionData):
        def __init__(self, solution):
            builds.append(solution)
            super().__init__(solution)

    def counted_verify(*args, **kwargs):
        calls.append(args[0])
        return real_verify(*args, **kwargs)

    def counted_hull(*args, **kwargs):
        hulls.append(args[1])
        return real_hull(*args, **kwargs)

    def counted_sweep(*args, **kwargs):
        before = len(hulls)
        result = real_sweep(*args, **kwargs)
        # a pass that steps ends by evaluating the inner maximizers
        sweeps.append((args[1], len(hulls) > before))
        return result

    monkeypatch.setattr(nco, "_SolutionData", CountedData)
    monkeypatch.setattr(nco, "verify", counted_verify)
    monkeypatch.setattr(nco, "_backward_pair", counted_sweep)
    monkeypatch.setattr(nco, "_u_hull", counted_hull)
    assert run("verify", TWODISK, out=str(tmp_path), h=0.05) == EXIT_OK
    assert len(builds) == 1
    assert len(calls) == 2                  # the measure and the terminal family
    # one call per participant and family; the terminal family (no
    # confinement measure) has closed-form costates and steps nothing
    assert [i for i, _ in sweeps] == [0, 1, 0, 1]
    assert [i for i, stepped in sweeps if stepped] == [0, 1]
    summary = (tmp_path / "summary.txt").read_text()
    assert "  worst_at:\n    adjoint_q_lower: t=" in summary


def full_fit(sol, tol=1e-3):
    """Reference for fit_multipliers: both families checked in full, the
    smaller worst relative residual winning and the first on a tie.
    Returns (achieved, upper, lowers, report, every family's residual)."""
    data = nco._SolutionData(sol)
    fits = []
    with np.errstate(over="ignore", invalid="ignore"):
        for weight in (0.0, 1.0):
            upper, lowers = nco._build_family(data, weight)
            report = verify(data, upper, lowers, tol=tol)
            values = [value for name, value in report.residuals.items()
                      if not name.endswith("nontriviality")]
            rel = math.inf
            if report.verdicts["nontriviality"] and all(map(math.isfinite, values)):
                rel = max([0.0] + [value / report.scale for value in values])
            fits.append((rel, upper, lowers, report))
    best = fits[1] if fits[1][0] < fits[0][0] else fits[0]
    return (*best, [fit[0] for fit in fits])


def zero_controls(name, K):
    """A committed scenario under zero controls on a K-interval grid."""
    scn, _ = parse_scenario(os.path.join(SCENARIOS, f"{name}.scn"))
    grid = uniform_grid(scn.T, K)
    return _supplied(scn, [ControlProfile(grid=grid, values=np.zeros((K, 2)))] * scn.N,
                     [ControlProfile(grid=grid, values=np.zeros((K, d.control_dim)))
                      for d in scn.drift])


def multiplier_bytes(upper, lowers):
    arrays = [upper.q_upper, upper.q_lower, upper.overlap, upper.confinement]
    for low in lowers:
        arrays += [low.p_upper, low.p_lower, low.overlap, low.confinement]
    scalars = [upper.objective_weight] + [low.effort_weight for low in lowers]
    return b"".join(np.asarray(a, float).tobytes() for a in arrays + [scalars])


@pytest.mark.parametrize("case, winner, rels", [
    ("twodisk", "measure", (8.892e-12, 3.925)),
    ("freestart", "measure", (5.908e-15, 0.3748)),
    ("mixed4", "terminal", (0.5315, 0.3429)),
    ("chain3", "terminal", (math.inf, 0.6829)),
    ("mixed", "terminal", (0.5531, 0.4794)),
])
def test_fit_matches_both_families_checked_in_full(case, winner, rels, twodisk_300,
                                                    monkeypatch):
    """The family that wins, its achieved residual and its report are those
    of checking both families in full.  The terminal family's check stops
    only when the measure family leads with a finite residual it cannot
    reach: it beats a finite (mixed4) or an infinite (chain3) leader, and
    it loses with both failing (mixed)."""
    sol = {"twodisk": lambda: twodisk_300, "freestart": lambda: zero_controls("freestart", 60),
           "mixed4": lambda: zero_controls("mixed4", 60),
           "chain3": lambda: zero_controls("chain3", 60), "mixed": mixed_solution}[case]()
    achieved, upper, lowers, report, every = full_fit(sol)
    assert [float(f"{r:.4g}") for r in every] == list(rels)
    assert (upper.objective_weight > 0) == (winner == "terminal")
    stopped = []
    real_verify = nco.verify

    def watched_verify(*args, **kwargs):
        try:
            return real_verify(*args, **kwargs)
        except nco._Beaten:
            stopped.append("terminal" if args[1].objective_weight > 0 else "measure")
            raise

    monkeypatch.setattr(nco, "verify", watched_verify)
    fit = fit_multipliers(sol)
    assert repr(fit[2]) == repr(achieved)
    assert multiplier_bytes(fit[0], fit[1]) == multiplier_bytes(upper, lowers)
    for name in ("residuals", "verdicts", "worst_at", "notes", "scale", "tol"):
        assert repr(getattr(fit.report, name)) == repr(getattr(report, name))
    assert stopped == (["terminal"] if winner == "measure" else [])


def test_fit_stops_the_terminal_family_on_the_case_study(twodisk_300, monkeypatch):
    """Two verify calls per fit still, but the terminal family's ends at
    its max_lower gap: no upper maximum condition, no inner checks."""
    calls, inner, upper_paths = [], [], []
    real_verify, real_inner, real_upper = nco.verify, nco._inner_checks, nco._max_upper_paths

    def counted_verify(*args, **kwargs):
        calls.append(kwargs.get("_beat"))
        return real_verify(*args, **kwargs)

    def counted_inner(*args, **kwargs):
        inner.append(args[1].effort_weight)
        return real_inner(*args, **kwargs)

    def counted_upper(*args, **kwargs):
        upper_paths.append(args[1].objective_weight)
        return real_upper(*args, **kwargs)

    monkeypatch.setattr(nco, "verify", counted_verify)
    monkeypatch.setattr(nco, "_inner_checks", counted_inner)
    monkeypatch.setattr(nco, "_max_upper_paths", counted_upper)
    fit = fit_multipliers(twodisk_300)
    assert fit.report.all_pass and fit[0].objective_weight == 0.0
    assert calls == [math.inf, fit[2]]
    assert inner == [0.0, 0.0] and upper_paths == [0.0]


def test_verify_stops_only_past_the_leader(twodisk_300, monkeypatch):
    """A residual over scale must exceed the bound strictly: a family that
    ties runs in full.  A failing upper nontriviality stops the check only
    against a finite bound, and a NaN residual never stops it."""
    data = nco._SolutionData(twodisk_300)
    upper, lowers = nco._build_family(data, 1.0)
    full = verify(data, upper, lowers)
    rel = max(value / full.scale for name, value in full.residuals.items()
              if not name.endswith("nontriviality"))
    assert repr(verify(data, upper, lowers, _beat=rel)) == repr(full)
    with pytest.raises(nco._Beaten):
        verify(data, upper, lowers, _beat=math.nextafter(rel, 0.0))
    trivial = upper.scaled(0.0)
    assert not verify(data, trivial, _beat=math.inf).verdicts["nontriviality"]
    with pytest.raises(nco._Beaten):
        verify(data, trivial, _beat=1e300)
    real_gaps = nco._max_lower_gaps
    monkeypatch.setattr(nco, "_max_lower_gaps", lambda *a: np.full_like(real_gaps(*a), np.nan))
    report = verify(data, upper, lowers, _beat=rel)
    assert math.isnan(report.residuals["max_lower"]) and "inner_2_adjoint" in report.residuals


def test_a_tying_family_is_checked_in_full_and_loses(twodisk_300, monkeypatch):
    """Two copies of the measure family tie: the second is checked in full,
    without stopping, and the first keeps the lead."""
    real_build, real_verify = nco._build_family, nco.verify
    built, reports = [], []

    def twin_build(data, weight):
        built.append(copy.deepcopy(real_build(data, 0.0)))
        return built[-1]

    def kept_verify(*args, **kwargs):
        reports.append(real_verify(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(nco, "_build_family", twin_build)
    monkeypatch.setattr(nco, "verify", kept_verify)
    fit = fit_multipliers(twodisk_300)
    assert len(reports) == 2 and repr(reports[0]) == repr(reports[1])
    assert fit[0] is built[0][0] and fit[1] is built[0][1] and fit.report is reports[0]
