import copy
import math
import os

import numpy as np
import pytest

from crowdsweep import nco
from crowdsweep.bilevel import BilevelSolution, solve_twodisk_parametric
from crowdsweep.cli import EXIT_OK, run
from crowdsweep.dynamics import (
    AffineDrift,
    BallSet,
    ControlProfile,
    IntervalSet,
    ScaledLinearDrift,
    Scenario,
    SegmentSet,
    Trajectory,
    check_feasibility,
    constant_profile,
    cost_lower,
    cost_upper,
    integrate_lower_catchup,
    integrate_upper,
    uniform_grid,
)
from crowdsweep.geometry import contact_jacobian, sigma_active_gradient, sigma_support
from crowdsweep.nco import (
    ACTIVATION_TOL,
    KINK_BAND_FRAC,
    NONTRIVIALITY_TOL,
    SUP_ACTIVE_FRAC,
    LowerMultipliers,
    UpperMultipliers,
    adjoint_residual,
    boundary_residual,
    fd_value_gradient,
    fit_multipliers,
    max_condition_lower,
    max_condition_upper,
    verify,
)

from conftest import S2, VHAT

TWODISK = os.path.join(os.path.dirname(__file__), "..", "scenarios", "twodisk.scn")


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


def solution_from_profiles(scenario, v, u, x0):
    y = integrate_upper(scenario, v)
    x = integrate_lower_catchup(scenario, y, u, x0)
    return BilevelSolution(
        scenario=scenario, v=v, u=u, x0=np.asarray(x0, float), y=y, x=x,
        J_H=cost_upper(y.terminal()),
        J_L=np.array([cost_lower(p) for p in u]),
        method="supplied",
        feasibility=check_feasibility(scenario, y, x, u, v),
    )


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
    return solution_from_profiles(scn, v, u, scn.x0)


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

    def test_scalar_sup_is_exact_against_dense_grid(self):
        rng = np.random.default_rng(2)
        cset = IntervalSet([0.0], [1.0])
        us = np.linspace(0.0, 1.0, 1001)
        worst = 0.0
        for _ in range(10_000):
            g = rng.normal(scale=5.0, size=1)
            alpha = abs(rng.normal())
            sup, _u = nco._sup_effort(g[None], alpha, cset)
            dense = np.max(g[0] * us - alpha * us**2)
            worst = max(worst, dense - sup[0])
        assert worst <= 1e-12


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
        sol = solution_from_profiles(scn, v, u, scn.x0)
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
            g = twodisk.drift[i].control_gradient(sol.x.states[k, i]).T @ w
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
        return solution_from_profiles(scn, v, u, scn.x0)

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
        zeta_fd = fd_value_gradient(scn, 0, v_coarse, delta=1e-4)
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

    def test_sensitivity_routes_agree_inside_max_condition(self):
        sol = self.tracking_solution()
        low = self.analytic_witness(sol)
        scn = sol.scenario
        grid = sol.x.grid
        K = grid.size - 1
        upper = zero_upper(scn, grid, objective_weight=1.0)
        res_witness = max_condition_upper(sol, upper, lowers=[low])
        zeta_fd = fd_value_gradient(scn, 0, constant_profile(uniform_grid(1.0, 5), [self.C, 0.0]))
        dense_fd = np.repeat(zeta_fd, K // 5 + 1, axis=0)[:K]
        res_fd = max_condition_upper(sol, upper, phi_gradients=[dense_fd])
        assert np.allclose(res_witness, res_fd, rtol=1e-2, atol=1e-2)


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
                self.cone[k, i] = max(0.0, float(np.dot(f - xdot, self.normals[k + 1, i])))
        self.hits = set()

    def pair(self, k, i, row):
        out = np.zeros(2)
        for j in range(self.scn.N):
            if j != i and row[j] != 0.0:
                d = self.y[k, i] - self.y[k, j]
                out += row[j] * (d / np.linalg.norm(d))
        return out

    def pair_jac(self, base, k, i, row, vk):
        for j in range(self.scn.N):
            if j != i and row[j] != 0.0:
                base = base + row[j] * (contact_jacobian(self.y[k + 1, i], self.y[k + 1, j]) @ vk)
        return base

    def branch(self, k, i, q, nu, w):
        """('off' | 'active' | 'kink' | 'inactive', active gradient)"""
        scn = self.scn
        if not self.contact[k + 1, i]:
            return "off", np.zeros(2)
        m = float(np.dot(w, self.normals[k + 1, i]))
        band = KINK_BAND_FRAC * (float(np.linalg.norm(q)) + abs(nu) * scn.R) + 1e-12
        g = sigma_active_gradient(self.z[k + 1, i], q, nu, scn.R, scn.M[i])
        return ("active" if m < -band else "kink" if m <= band else "inactive"), g

    @staticmethod
    def sup_effort(g, alpha, cset):
        if isinstance(cset, IntervalSet):
            u = np.array([min(max(g[j] / (2 * alpha), cset.lo[j]), cset.hi[j]) if alpha > 0
                          else (cset.hi[j] if g[j] >= 0 else cset.lo[j]) for j in range(cset.dim)])
            return float(np.dot(g, u) - alpha * np.dot(u, u)), u
        if isinstance(cset, SegmentSet):
            gc, L = float(np.dot(g, cset.direction)), cset.halflength
            a = min(max(gc / (2 * alpha), -L), L) if alpha > 0 else (math.copysign(L, gc) if gc else 0.0)
            return gc * a - alpha * a * a, a * cset.direction
        gn, r = float(np.linalg.norm(g)), cset.radius
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
        g = drift.control_gradient(self.x[k, i]).T @ w
        if isinstance(cset, SegmentSet) or (isinstance(cset, IntervalSet) and cset.dim == 1):
            seg = isinstance(cset, SegmentSet)
            gc = float(np.dot(g, cset.direction)) if seg else float(g[0])
            lo, hi = (-cset.halflength, cset.halflength) if seg else (cset.lo[0], cset.hi[0])
            lo_s, hi_s = self.active_range(gc, alpha, lo, hi)
            if hi_s - lo_s < 1e-14:
                return "point", lo_s * (cset.direction if seg else np.ones(1))
            col = drift.control_gradient(self.x[k, i]) @ cset.direction if seg else \
                drift.control_gradient(self.x[k, i])[:, 0]
            return "interval", lo_s, hi_s, col
        if isinstance(cset, BallSet):
            gn = float(np.linalg.norm(g))
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
            cc = float(np.dot(c, c))
            a = min(max(float(np.dot(r, c)) / cc if cc > 0 else 0.0, los[0] if cols else 0.0),
                    his[0] if cols else 0.0)
            return max(0.0, float(np.linalg.norm(r - a * c)) - ball)
        A = np.column_stack(cols)
        try:
            sol = np.linalg.solve(A.T @ A + 1e-15 * np.eye(2), A.T @ r)
            if all(los[j] - 1e-12 <= sol[j] <= his[j] + 1e-12 for j in range(2)):
                best = float(np.linalg.norm(r - A @ np.clip(sol, los, his)))
        except np.linalg.LinAlgError:
            pass
        for j, fixed in ((0, los[0]), (0, his[0]), (1, los[1]), (1, his[1])):
            best = min(best, self.hull(r - fixed * cols[j], [cols[1 - j]], [los[1 - j]], [his[1 - j]]))
        return max(0.0, best - ball)

    def normal_cone(self, w, cset, v):
        tol = 1e-9
        if isinstance(cset, IntervalSet):
            res = 0.0
            for j in range(cset.dim):
                span = max(1.0, abs(cset.hi[j]) + abs(cset.lo[j]))
                at_hi, at_lo = v[j] >= cset.hi[j] - tol * span, v[j] <= cset.lo[j] + tol * span
                self.hits.add("V-interval-bound" if at_hi or at_lo else "V-interval-inside")
                if (w[j] > 0 and not at_lo) or (w[j] < 0 and not at_hi):
                    res += w[j] ** 2
            return math.sqrt(res)
        if isinstance(cset, SegmentSet):
            L = cset.halflength
            if L == 0.0:
                return 0.0
            a, along = float(np.dot(v, cset.direction)), float(np.dot(w, cset.direction))
            if a >= L - tol * max(1.0, L):
                self.hits.add("V-segment-end")
                return max(0.0, along)
            if a <= -L + tol * max(1.0, L):
                return max(0.0, -along)
            self.hits.add("V-segment-inside")
            return abs(along)
        if cset.radius == 0.0:
            return 0.0
        rn = float(np.linalg.norm(v))
        if rn >= cset.radius - tol * max(1.0, cset.radius):
            self.hits.add("V-ball-boundary")
            ray = -v / rn
            return float(np.linalg.norm(w - max(0.0, float(np.dot(w, ray))) * ray))
        self.hits.add("V-ball-inside")
        return float(np.linalg.norm(w))

    def upper_adjoint(self, up, i, k):
        scn, h = self.scn, self.h[k]
        nu, vk = float(up.confinement[k, i]), self.v[i][k]
        qn = up.q_lower[k + 1, i]
        w = qn - nu * self.z[k + 1, i]
        f = scn.drift[i].value(self.x[k, i], self.u[i][k])
        base_lo = scn.drift[i].jac_x(self.x[k, i], self.u[i][k]).T @ w - nu * f + nu * vk
        base_hi = self.pair_jac(nu * f - nu * vk, k, i, up.overlap[k, i], vk)
        r_lo = -(qn - up.q_lower[k, i]) / h - base_lo
        r_hi = -(up.q_upper[k + 1, i] - up.q_upper[k, i]) / h - base_hi
        kind, g = self.branch(k, i, qn, nu, w)
        self.hits.add("upper-" + kind)
        theta = 1.0 if kind == "active" else 0.0
        if kind == "kink" and float(np.dot(g, g)) > 1e-30:
            theta = min(max((np.dot(r_lo, g) - np.dot(r_hi, g)) / (2 * np.dot(g, g)), 0.0), 1.0)
        return np.linalg.norm(r_lo - theta * g), np.linalg.norm(r_hi + theta * g)

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
        base_lo = nu * vk + drift.jac_x(x, u_hat).T @ w - nu * f
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
        return adjoint, max(primal, float(np.linalg.norm(ydot - vk)))

    def initial(self, w0, i):
        n0 = self.normals[0, i]
        return float(np.linalg.norm(w0 - np.dot(w0, n0) * n0 if self.contact[0, i] else w0))

    def shape(self, path, clear):
        diffs = np.diff(path)
        steps = clear[:-1] & clear[1:]
        return max(0.0, float(np.max(diffs)), float(np.max(np.abs(diffs[steps]), initial=0.0)))

    def zeta(self, i, k, lowers, phi):
        if phi is not None and phi[i] is not None:
            return phi[i][k]
        low = lowers[i] if lowers is not None else None
        if low is not None and low.value_gradient is not None:
            return low.value_gradient[k]
        if low is not None and low.effort_weight > 0:
            return -(low.p_upper[k + 1] + low.confinement[k] * self.z[k + 1, i]
                     + self.pair(k + 1, i, low.overlap[k])) / low.effort_weight
        return None

    @staticmethod
    def variation(path):
        return float(np.sum(np.abs(np.diff(path))))

    def verify(self, up, lowers=None, tol=1e-3, phi=None):
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
            bnd = max(bnd, np.linalg.norm(up.q_upper[-1, i] - target),
                      np.linalg.norm(up.q_lower[-1, i] - nuT * zT),
                      self.initial(up.q_lower[0, i] - up.confinement[0, i] * self.z[0, i], i))
        res["boundary"] = bnd
        alpha = up.effort_weights
        gaps, upper_max = np.zeros(K), np.zeros(K)
        for k in range(K):
            for i in range(scn.N):
                w = up.q_lower[k + 1, i] - up.confinement[k, i] * self.z[k + 1, i]
                g = scn.drift[i].control_gradient(self.x[k + 1, i]).T @ w
                sup, _u = self.sup_effort(g, float(alpha[i]), scn.U[i])
                uk = self.u[i][k]
                gaps[k] += max(0.0, sup - (float(np.dot(g, uk)) - float(alpha[i]) * float(np.dot(uk, uk))))
                lhs = (up.q_upper[k + 1, i] + up.confinement[k, i] * self.z[k + 1, i]
                       + self.pair(k + 1, i, up.overlap[k, i]))
                if alpha[i] != 0.0:
                    zeta = self.zeta(i, k, lowers, phi)
                    lhs = lhs - alpha[i] * (np.nan if zeta is None else zeta)
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
            if not (low.effort_weight > 0 and low.value_gradient is None):
                for k in range(K):
                    vec = (low.p_upper[k + 1] + low.confinement[k] * self.z[k + 1, i]
                           + self.pair(k + 1, i, low.overlap[k]))
                    if low.effort_weight > 0:
                        vec = vec + low.effort_weight * low.value_gradient[k]
                    art = max(art, self.normal_cone(vec, scn.V[i], self.v[i][k]))
            for name, value in (
                ("adjoint", max(a for a, _ in inner)),
                ("primal_inclusion", max(p for _, p in inner)),
                ("boundary", max(np.linalg.norm(low.p_lower[-1] - muT * zT),
                                 np.linalg.norm(low.p_upper[-1] - (-muT * zT - self.pair(K, i, low.overlap[-1]))),
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
            f = drift.value(x, u)
            base_lo = drift.jac_x(x, u).T @ w - nu[k] * f + nu[k] * vk
            kind, g = self.branch(k, i, qn, nu[k], w)
            sig = np.zeros(2)
            if kind == "active":
                sig = g
            elif kind == "kink":
                theta = min(max(self.cone[k, i] / cap, 0.0), 1.0)
                if self.contact[k, i]:
                    m0 = float(np.dot(qn + h * base_lo - nu[k] * self.z[k, i], self.normals[k, i]))
                    slope = h * float(np.dot(g, self.normals[k, i]))
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

    return solution_from_profiles(scn, profiles(v), profiles(u), scn.x0)


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
    (w = 0 on every seventh interval), pair measures, and each source of
    the value-function sensitivity."""
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
    for i, effort in enumerate([1.0, 0.0, 0.5, 0.0]):
        mu = np.linspace(0.4, 0.1, K + 1)
        p_lower = steered(rng.normal(size=(K + 1, 2)), mu, z[:, i], normals[:, i],
                          contact[:, i], rng, 3.0)
        p_lower[1::7] = mu[:-1:7, None] * z[1::7, i]
        row = np.zeros((K + 1, N))
        row[:, (i + 1) % N] = 0.1
        lowers.append(LowerMultipliers(
            participant=i, grid=grid, p_upper=rng.normal(size=(K + 1, 2)), p_lower=p_lower,
            overlap=row, confinement=mu, effort_weight=effort,
            value_gradient=rng.normal(size=(K, 2)) if i == 0 else None))
    phi = [None, rng.normal(size=(K, 2)), None, rng.normal(size=(K, 2))]
    return upper, lowers, phi


def assert_matches_reference(sol, upper, lowers=None, phi=None, ref=None):
    ref = ref or LoopReference(sol)
    residuals, verdicts, gaps, upper_path = ref.verify(upper, lowers, phi=phi)
    report = verify(sol, upper, lowers, phi_gradients=phi)
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
        assert np.allclose(max_condition_upper(sol, upper, lowers, phi), upper_path,
                           rtol=1e-12, atol=1e-12)
    return report


def assert_sweeps_match(sol, ref):
    """Both passes of the costate sweep, the upper one with the claimed
    controls and the inner one with the inner maximizers at the effort
    weight, at measure level and weight 1/0, 0/1 and one mixed case."""
    data = nco._SolutionData(sol)
    K, N = data.K, sol.scenario.N
    for i in range(N):
        for level, weight in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
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
        for objective_weight in (0.5, 0.0):
            upper, lowers, phi = designed_multipliers(sol, 3, objective_weight)
            assert_matches_reference(sol, upper, lowers, phi, ref)
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
        sol = twodisk_300
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
            effort_weight=0.7, value_gradient=rng.normal(size=(K, 2)) if i else None)
            for i, low in enumerate(lowers)]
        report = assert_matches_reference(sol, bumped, bumped_lowers)
        assert report.residuals["adjoint_q_lower"] > 1.0 and not report.all_pass


def test_worst_residual_names_the_perturbed_interval(twodisk_300):
    upper, _lowers, _ = fit_multipliers(twodisk_300)
    k, i = 150, 1
    bumped = copy.deepcopy(upper)
    bumped.q_lower[k:, i, 0] += 0.5         # a jump between nodes k-1 and k
    report = verify(twodisk_300, bumped)
    assert not report.verdicts["adjoint_q_lower"]
    assert report.worst_at["adjoint_q_lower"] == (twodisk_300.x.grid[k - 1], i)
    assert report.worst_at["boundary"][0] == twodisk_300.x.grid[-1]


def test_cli_verify_builds_the_solution_data_once(tmp_path, monkeypatch):
    builds, calls, sweeps = [], [], []
    real_verify, real_sweep = nco.verify, nco._backward_pair

    class CountedData(nco._SolutionData):
        def __init__(self, solution):
            builds.append(solution)
            super().__init__(solution)

    def counted_verify(*args, **kwargs):
        calls.append(args[0])
        return real_verify(*args, **kwargs)

    def counted_sweep(*args, **kwargs):
        sweeps.append(args[1])
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(nco, "_SolutionData", CountedData)
    monkeypatch.setattr(nco, "verify", counted_verify)
    monkeypatch.setattr(nco, "_backward_pair", counted_sweep)
    assert run("verify", TWODISK, out=str(tmp_path), h=0.05) == EXIT_OK
    assert len(builds) == 1
    assert len(calls) == 2                  # the measure and the terminal family
    assert sweeps == [0, 1, 0, 1]           # one sweep per participant and family
    summary = (tmp_path / "summary.txt").read_text()
    assert "  worst_at:\n    adjoint_q_lower: t=" in summary
