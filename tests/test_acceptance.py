"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion.
"""

import copy
import math
import time

import numpy as np
import pytest

from crowdsweep.bilevel import (
    closed_form_controls,
    solve_bilevel_direct,
    solve_twodisk_parametric,
)
from crowdsweep.dynamics import (
    check_feasibility,
    h5_bounds,
    integrate_lower_catchup,
    integrate_lower_penalty,
    integrate_upper,
    uniform_grid,
)
from crowdsweep.geometry import (
    contact_jacobian,
    project_to_disk,
    sigma_support,
    Disk,
)
from crowdsweep.nco import fit_multipliers, max_condition_lower, verify

from conftest import S2, VHAT, arc_sampled_controls, make_twodisk

GREEN = "criterion %-38s PASS"


def _report(name):
    print(GREEN % name)


@pytest.fixture(scope="module")
def scenario():
    return make_twodisk()


@pytest.fixture(scope="module")
def reference(scenario):
    return solve_twodisk_parametric(scenario)


def test_criterion_1_case_study_reproduction(scenario):
    start = time.perf_counter()
    params, _sol = solve_twodisk_parametric(scenario)
    elapsed = time.perf_counter() - start
    assert 5.910 <= params.t_b <= 5.920
    assert 11.85 <= params.v_bar <= 11.87
    assert 0.252 <= params.t_a <= 0.254
    assert elapsed < 1.0
    _report("1 case-study reproduction")


def test_criterion_2_structural_identities(reference):
    params, _sol = reference
    assert abs(params.v_bar * params.t_a - 3.0) <= 1e-6
    assert abs(params.v_bar - (8 * float(params.gamma2(params.t_b)) + 6)) <= 1e-3
    assert abs(params.v_bar * (8 * params.t_b + 1) / 8 - (48 * S2 + 3.75)) <= 1e-3
    _report("2 structural identities")


def test_criterion_3_terminal_geometry(reference):
    params, sol = reference
    # independent stationarity oracle: dense scan of the terminal cost in
    # the final position coordinate
    gs = np.linspace(-6.0, 0.0, 600_001)
    costs = 0.5 * ((gs + 6.0) ** 2 + gs**2)
    g_star = gs[np.argmin(costs)]
    assert g_star == pytest.approx(-3.0, abs=1e-5)
    yT = sol.y.terminal()
    assert sol.J_H == pytest.approx(9.0, abs=0.01)
    assert np.max(np.abs(yT[params.near] - g_star * VHAT)) <= 0.01
    assert np.max(np.abs(yT[params.far] - (g_star + 6) * VHAT)) <= 0.01
    assert abs(float(params.gamma2(6.0))) <= 0.01
    _report("3 terminal geometry")


def test_criterion_4_simulation_consistency(scenario, reference):
    params, _sol = reference
    start = time.perf_counter()
    grid = uniform_grid(6.0, 2400)
    v, u = closed_form_controls(params, grid)
    y = integrate_upper(scenario, v)
    x = integrate_lower_catchup(scenario, y, u, scenario.x0)
    elapsed = time.perf_counter() - start
    audit = check_feasibility(scenario, y, x, u, v)
    assert audit.confinement_violation <= 1e-3
    onset = int(np.argmax(x.contact[:, params.near]))
    assert abs(grid[onset] - params.t_a) <= grid[1]
    sep = np.linalg.norm(y.states[:, 0, :] - y.states[:, 1, :], axis=1)
    assert np.max(np.abs(sep - 6.0)) <= 1e-9
    assert elapsed < 1.0
    _report("4 simulation consistency")


def test_criterion_5_integrator_convergence(scenario, reference):
    params, _sol = reference
    g2T = float(params.gamma2(6.0))
    x_true = {params.near: g2T * VHAT, params.far: (g2T + 6) * VHAT}
    y_true = {params.near: (g2T - 3) * VHAT, params.far: (g2T + 3) * VHAT}

    def terminal_error(K):
        grid = uniform_grid(6.0, K)
        v, u = closed_form_controls(params, grid)
        y = integrate_upper(scenario, v)
        x = integrate_lower_catchup(scenario, y, u, scenario.x0)
        err = 0.0
        for i in range(2):
            err = max(err, float(np.linalg.norm(x.terminal()[i] - x_true[i])))
            err = max(err, float(np.linalg.norm(y.terminal()[i] - y_true[i])))
        return err

    errors = [terminal_error(K) for K in (1200, 2400, 4800)]
    for coarse, fine in zip(errors, errors[1:]):
        ratio = coarse / fine
        assert 1.5 <= ratio <= 2.5
    _report("5 integrator convergence")


def test_criterion_6_penalty_consistency(scenario, reference):
    # midpoint-sampled arc controls keep a strict margin below the cone cap,
    # which the Lipschitz approximation needs in order to track the
    # projected run all the way to the horizon
    params, _sol = reference
    grid = uniform_grid(6.0, 2400)
    v, u = arc_sampled_controls(params, grid)
    y = integrate_upper(scenario, v)
    xc = integrate_lower_catchup(scenario, y, u, scenario.x0)
    gaps = []
    for k in (1e2, 1e3, 1e4):
        xp = integrate_lower_penalty(scenario, y, u, scenario.x0, stiffness=k)
        gaps.append(
            max(
                float(np.linalg.norm(xp.terminal()[i] - xc.terminal()[i]))
                for i in range(2)
            )
        )
    assert gaps[0] >= gaps[1] >= gaps[2]
    _report("6 penalty-approximation consistency")


def test_criterion_7_truncation_bracket(scenario, reference):
    _params, sol = reference
    samples = [[], []]
    for i in range(2):
        for k in range(0, sol.x.grid.size, 12):
            if sol.x.contact[k, i]:
                samples[i].append((sol.x.states[k, i], sol.y.states[k, i]))
    bounds = h5_bounds(scenario, samples)
    for upper, lower in bounds:
        assert upper == pytest.approx(10 * S2, abs=1e-6)
        assert lower < 6.0 < upper
    _report("7 truncation bracket")


def test_criterion_8_nco_verification(reference):
    params, sol = reference
    start = time.perf_counter()
    upper, lowers, achieved = fit_multipliers(sol)
    report = verify(sol, upper, lowers)
    assert report.all_pass
    for name, value in report.residuals.items():
        if not name.endswith("nontriviality"):
            assert value <= 1e-3 * report.scale
    # nontriviality carried by the population costate: the terminal weight,
    # the effort weights, and the measure variation all vanish
    assert upper.objective_weight == 0.0
    assert float(np.max(np.abs(upper.effort_weights))) == 0.0
    assert np.abs(np.diff(upper.confinement, axis=0)).sum() <= 1e-12
    assert float(np.max(np.abs(upper.q_lower))) >= 0.1

    perturbed = copy.deepcopy(sol)
    mask = perturbed.u[params.near].grid[:-1] >= params.t_b
    perturbed.u[params.near].values[mask] = 0.8
    upper2, lowers2, _ = fit_multipliers(perturbed)
    report2 = verify(perturbed, upper2, lowers2)
    gap = float(np.max(max_condition_lower(perturbed, upper2)))
    assert gap > 10 * report2.tol * report2.scale
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("8 optimality-condition verification")


def test_criterion_9_direct_solver(scenario):
    start = time.perf_counter()
    sol = solve_bilevel_direct(scenario, coarse_grid_K=8, seed=0)
    elapsed = time.perf_counter() - start
    assert sol.J_H <= 9.45
    assert sol.feasibility.max_violation <= 1e-6
    assert elapsed < 600.0
    _report("9 direct bilevel solver")


def test_criterion_10_geometry_kernels():
    rng = np.random.default_rng(42)
    disk = Disk((0.3, -0.7), 1.7)
    for _ in range(10_000):
        yi, yj = rng.normal(scale=8.0, size=(2, 2))
        if np.linalg.norm(yi - yj) < 1e-3:
            continue
        d = contact_jacobian(yi, yj)
        assert np.max(np.abs(d @ (yi - yj))) <= 1e-12
        a, b = rng.normal(scale=4.0, size=(2, 2))
        pa, pb = project_to_disk(disk, a), project_to_disk(disk, b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12
        ang = 2 * math.pi * rng.random()
        r = 3.0 * math.sqrt(rng.random())
        z = r * np.array([math.cos(ang), math.sin(ang)])
        assert sigma_support(z, rng.normal(size=2), abs(rng.normal()), 3.0, 6.0) >= 0.0
    _report("10 geometry kernel properties")
