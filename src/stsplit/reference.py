"""Monolithic reference solver and manufactured-solution utilities."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, as_integer
from .models import SourceTerm
from .resolvent import newton_level_solve

# the largest |gamma*u(., 0)| and |normal flux| manufactured_rhs takes as zero
_COMPATIBILITY_TOL = 1e-10


def solve_monolithic(ctx):
    """Solve the undecomposed space-time system by implicit Euler marching.

    Each level solves cap*(u_k - u_{k-1})/dt + A(t_k)u_k + f_k = 0 with the
    same damped Newton used by the subdomain resolvents (s = 0), started
    from the previous level.
    """
    n = ctx.mesh.n_nodes
    u = np.empty((ctx.grid.n_steps, n))
    u_prev = np.zeros(n)
    zero_rhs = np.zeros(n)
    for k in range(ctx.grid.n_steps):
        res = newton_level_solve(ctx, None, 0.0, k, u_prev, zero_rhs)
        u[k] = res.values
        u_prev = res.values
    return u


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form space-time function with its derivatives.

    u(x, t) -> (...), du_dt(x, t) -> (...), grad(x, t) -> (..., dim).
    """

    u: Callable
    du_dt: Callable
    grad: Callable


def cosine_solution(dim, amplitude=1.0):
    """u = A * t * cos(pi x_1) (* cos(pi x_2) in 2D).

    Vanishes at t = 0 and has zero normal flux on the boundary of the unit
    box, so it is compatible with the homogeneous Neumann condition.
    dim is 1 or 2.
    """
    dim = as_integer(dim, "dim")
    if dim not in (1, 2):
        raise ConfigurationError(f"cosine_solution needs dim 1 or 2, got {dim!r}")
    amp = float(amplitude)

    def product(x, first, sine_axis=None):
        # first * cos(pi x_1) * cos(pi x_2), left to right, sin on sine_axis
        x = np.asarray(x)
        for i in range(dim):
            first = first * (np.sin if i == sine_axis else np.cos)(np.pi * x[..., i])
        return first

    def u(x, t):
        return product(x, amp * t)

    def du_dt(x, t):
        return product(x, amp)

    def grad(x, t):
        x = np.asarray(x)
        out = np.empty(x.shape)
        for d in range(dim):
            out[..., d] = product(x, -amp * t * np.pi, d)
        return out

    return ManufacturedSolution(u, du_dt, grad)


def _boundary_checkpoints(mesh):
    """Boundary points with outward normals for compatibility checks."""
    if mesh.dim == 1:
        L = mesh.extent[0]
        points = np.array([[0.0], [L]])
        normals = np.array([[-1.0], [1.0]])
        return points, normals
    L1, L2 = mesh.extent
    nx, ny = mesh.cells
    xs = np.linspace(0.0, L1, nx + 1)
    ys = np.linspace(0.0, L2, ny + 1)
    xmid = 0.5 * (xs[:-1] + xs[1:])
    ymid = 0.5 * (ys[:-1] + ys[1:])
    points, normals = [], []
    for ym in ymid:
        points += [[0.0, ym], [L1, ym]]
        normals += [[-1.0, 0.0], [1.0, 0.0]]
    for xm in xmid:
        points += [[xm, 0.0], [xm, L2]]
        normals += [[0.0, -1.0], [0.0, 1.0]]
    return np.array(points), np.array(normals)


def manufactured_rhs(model, exact, mesh, grid):
    """Source densities that make `exact` solve the model equation.

    eta0 = -(gamma * du/dt + beta(u)) and eta = -alpha(grad u), so that the
    weak residual of `exact` vanishes identically.  Raises if the exact
    solution is incompatible with the zero initial capacity state or the
    homogeneous Neumann boundary condition.
    """
    gamma0 = np.asarray(model.gamma(mesh.nodes))
    u0 = np.asarray(exact.u(mesh.nodes, 0.0))
    bad = np.abs(gamma0 * u0) > _COMPATIBILITY_TOL
    if np.any(bad):
        i = int(np.argmax(np.abs(gamma0 * u0)))
        raise ConfigurationError(
            f"gamma*u(.,0) = {gamma0[i] * u0[i]:.3e} at x={mesh.nodes[i]}; "
            "the exact solution must vanish initially wherever gamma > 0"
        )
    points, normals = _boundary_checkpoints(mesh)
    for t in grid.times:
        flux = np.asarray(model.alpha(points, t, exact.grad(points, t)))
        fn = np.sum(flux * normals, axis=-1)
        if np.any(np.abs(fn) > _COMPATIBILITY_TOL):
            i = int(np.argmax(np.abs(fn)))
            raise ConfigurationError(
                f"normal flux {fn[i]:.3e} at x={points[i]}, t={t:.6g}; the "
                "exact solution violates the homogeneous Neumann condition"
            )

    def eta0(x, t):
        x = np.asarray(x)
        return -(
            np.asarray(model.gamma(x)) * np.asarray(exact.du_dt(x, t))
            + np.asarray(model.beta(x, t, exact.u(x, t)))
        )

    def eta(x, t):
        return -np.asarray(model.alpha(x, t, exact.grad(x, t)))

    return SourceTerm(eta0=eta0, eta=eta)


def interpolate_exact(exact, mesh, grid):
    """Nodal interpolant of the exact solution at every time level."""
    out = np.empty((grid.n_steps, mesh.n_nodes))
    for k, t in enumerate(grid.times):
        out[k] = np.asarray(exact.u(mesh.nodes, t))
    return out
