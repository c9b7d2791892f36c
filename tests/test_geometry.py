import math

import numpy as np
import pytest

from crowdsweep.geometry import (
    Disk,
    InfeasiblePointError,
    SingularConfigurationError,
    contact_jacobian,
    project_to_disk,
    sigma_active_gradient,
    sigma_boundary_branch,
    sigma_support,
)

S2 = math.sqrt(2)


class TestProjection:
    def test_identity_on_interior(self):
        assert np.allclose(project_to_disk(Disk((0, 0), 3.0), (1, 1)), (1, 1))

    def test_radial_scaling(self):
        assert np.allclose(project_to_disk(Disk((0, 0), 3.0), (6, 0)), (3, 0))

    def test_offcenter_closest_point(self):
        assert np.allclose(project_to_disk(Disk((2, 0), 3.0), (-4, 0)), (-1, 0))

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(0)
        disk = Disk((0.5, -1.0), 2.0)
        pts = rng.normal(scale=5.0, size=(10_000, 2, 2))
        for a, b in pts:
            pa, pb = project_to_disk(disk, a), project_to_disk(disk, b)
            assert np.allclose(project_to_disk(disk, pa), pa)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestContactJacobian:
    def test_horizontal_separation(self):
        d = contact_jacobian((6, 0), (0, 0))
        assert np.allclose(d, [[0, 0], [0, 1 / 6]])

    def test_vertical_separation(self):
        d = contact_jacobian((0, 6), (0, 0))
        assert np.allclose(d, [[1 / 6, 0], [0, 0]])

    def test_kernel_symmetry_and_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            yi, yj = rng.normal(scale=10.0, size=(2, 2))
            if np.linalg.norm(yi - yj) < 1e-3:
                continue
            d = contact_jacobian(yi, yj)
            assert np.max(np.abs(d @ (yi - yj))) <= 1e-12
            assert np.allclose(d, d.T)
            assert np.all(np.linalg.eigvalsh(d) >= -1e-12)

    def test_coincident_centers_rejected(self):
        with pytest.raises(SingularConfigurationError):
            contact_jacobian((1, 1), (1, 1))


class TestSigmaSupport:
    def test_interior_offset_is_zero(self):
        assert sigma_support((0.5, 0.0), (3, -1), 0.2, radius=3.0, cap=6.0) == 0.0

    def test_supremum_attained_at_full_cone(self):
        val = sigma_support((3, 0), (-1, 0), 0.0, radius=3.0, cap=6.0)
        assert val == pytest.approx(6.0)

    def test_supremum_attained_at_origin(self):
        assert sigma_support((3, 0), (1, 0), 0.0, radius=3.0, cap=6.0) == 0.0

    def test_nonnegative_everywhere_sampled(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            ang = 2 * math.pi * rng.random()
            r = 3.0 * math.sqrt(rng.random())
            z = r * np.array([math.cos(ang), math.sin(ang)])
            q = rng.normal(scale=3.0, size=2)
            nu = abs(rng.normal())
            assert sigma_support(z, q, nu, radius=3.0, cap=6.0) >= 0.0

    def test_infeasible_offset_rejected(self):
        with pytest.raises(InfeasiblePointError):
            sigma_support((4, 0), (1, 0), 0.0, radius=3.0, cap=6.0)


class TestSigmaGradients:
    def test_selection_matches_central_differences_on_smooth_branch(self):
        # the selection the verifier uses off the kink: the active-branch
        # gradient where the boundary branch is positive, zero where it is 0
        rng = np.random.default_rng(5)
        step = 1e-6
        checked = 0
        while checked < 200:
            ang = 2 * math.pi * rng.random()
            z = 3.0 * np.array([math.cos(ang), math.sin(ang)])
            q = rng.normal(scale=2.0, size=2)
            nu = abs(rng.normal())
            activation = -np.dot(q - nu * z, z) / 3.0
            if abs(activation) < 1e-2:
                continue  # keep away from the kink
            gx = sigma_active_gradient(z, q, nu, 3.0, 6.0) if activation > 0 else np.zeros(2)
            fd = np.empty(2)
            for j in range(2):
                dz = np.zeros(2)
                dz[j] = step
                fd[j] = (
                    sigma_boundary_branch(z + dz, q, nu, 3.0, 6.0)
                    - sigma_boundary_branch(z - dz, q, nu, 3.0, 6.0)
                ) / (2 * step)
            assert np.allclose(gx, fd, atol=1e-5)
            checked += 1

    def test_active_gradient_closed_form(self):
        z = np.array([3.0, 0.0])
        q = np.array([-2.0, 1.0])
        nu = 0.7
        g = sigma_active_gradient(z, q, nu, 3.0, 6.0)
        assert np.allclose(g, -(6.0 / 3.0) * (q - 2 * nu * z))


def test_disk_validation():
    with pytest.raises(ValueError):
        Disk((0, 0), 0.0)
