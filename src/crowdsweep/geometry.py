"""Disk geometry and the algebraic kernels of the optimality system.

Everything here is a pure function of its arguments: Euclidean projection
onto a disk, the contact Jacobian of the pairwise unit-separation map, and
the support value of the truncated normal cone with its active-branch
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _rowdot, _row_norms

__all__ = [
    "Disk",
    "InfeasiblePointError",
    "SingularConfigurationError",
    "project_to_disk",
    "contact_jacobian",
    "sigma_support",
    "sigma_boundary_branch",
    "sigma_active_gradient",
]

# Active-set tolerance for geometric predicates, relative to the disk radius.
# Feasibility *reporting* uses a looser tolerance owned by the dynamics module.
ACTIVE_TOL_FACTOR = 1e-9


class InfeasiblePointError(ValueError):
    """Point lies outside the disk beyond the active-set tolerance."""


class SingularConfigurationError(ValueError):
    """Geometric kernel evaluated at (numerically) coincident centers."""


@dataclass(frozen=True)
class Disk:
    """Closed disk ``{x : ||x - center|| <= radius}`` in the plane."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (2,):
            raise ValueError("disk center must be a 2-vector")
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")


def project_to_disk(disk: Disk, x) -> np.ndarray:
    """Euclidean projection onto the disk (identity on the interior)."""
    x = np.asarray(x, dtype=float)
    offset = x - disk.center
    dist = float(_row_norms(offset))
    if dist <= disk.radius:
        return x.copy()
    return disk.center + (disk.radius / dist) * offset


def contact_jacobian(y_i, y_j) -> np.ndarray:
    """Jacobian of the unit-separation direction map for a disk pair.

    For ``r = ||y_i - y_j||`` this is ``I/r - (y_i-y_j)(y_i-y_j)^T / r^3``:
    symmetric, positive semidefinite, and it annihilates ``y_i - y_j``.
    """
    d = np.asarray(y_i, dtype=float) - np.asarray(y_j, dtype=float)
    r = float(_row_norms(d))
    if r < 1e-12:
        raise SingularConfigurationError("coincident centers")
    return np.eye(2) / r - np.outer(d, d) / r**3


def sigma_boundary_branch(disk_offset, q, nu: float, radius: float, cap: float) -> float:
    """Boundary-branch value of the cone support, extended smoothly off contact.

    With z the disk offset, this evaluates ``cap * max(0, -<q - nu*z, z/radius>)``.
    It agrees with :func:`sigma_support` at contact, and
    :func:`sigma_active_gradient` is its gradient where it is positive.
    """
    z = np.asarray(disk_offset, dtype=float)
    q = np.asarray(q, dtype=float)
    activation = -float(_rowdot(q - nu * z, z)) / radius
    return cap * max(0.0, activation)


def sigma_support(disk_offset, q, nu: float, radius: float, cap: float) -> float:
    """Support value of the truncated cone term in the Hamiltonian.

    Zero while the offset is interior to the disk; at contact the feasible
    cone elements form the segment ``{-s*n : s in [0, cap]}`` with outward
    normal n, and the supremum has the closed form of the boundary branch.
    """
    z = np.asarray(disk_offset, dtype=float)
    tol = ACTIVE_TOL_FACTOR * float(radius)
    dist = float(_row_norms(z))
    if dist > radius + tol:
        raise InfeasiblePointError(
            f"offset norm {dist:.12g} exceeds radius {radius:.12g}"
        )
    if dist < radius - tol:
        return 0.0
    return sigma_boundary_branch(z, q, nu, radius, cap)


def sigma_active_gradient(disk_offset, q, nu: float, radius: float, cap: float) -> np.ndarray:
    """Gradient (w.r.t. the population state x) of the active boundary branch.

    On the branch where the support is positive the value is
    ``-(cap/radius) * <q - nu*z, z>`` with z = x - y, hence the x-gradient is
    ``-(cap/radius) * (q - 2*nu*z)``.  The y-gradient is its negative.
    """
    z = np.asarray(disk_offset, dtype=float)
    q = np.asarray(q, dtype=float)
    return -(cap / radius) * (q - 2.0 * nu * z)
