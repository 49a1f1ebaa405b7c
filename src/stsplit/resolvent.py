"""Subdomain resolvents (sI + F_ell)^{-1} via damped Newton time-marching.

Each time level solves the nodal system (dual representation)

    s*m.u + cap*(u - u_prev)/dt + A_ell(t_k)u + load_k = rhs

with an exact residual and an epsilon-regularized Jacobian.  Strips are cut
along the first mesh axis, so every level system is banded and each Newton
step ends in one banded direct solve.  Off the subdomain the resolvent acts
as division by s, so the returned global field is
u = extend(u_ell) + (g - extend(restrict(g)))/s.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, SolverError
from .models import default_flux_jacobian, default_reaction_derivative
from .operators import apply_A

_TINY = 1e-300


@dataclass(frozen=True)
class NewtonConfig:
    max_iters: int = 50
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    damping: float = 1.0  # initial step scale in (0, 1]
    epsilon_reg: float = 1e-8
    max_halvings: int = 30

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ConfigurationError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class ResolventConfig:
    s: float
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if self.s <= 0.0:
            raise ConfigurationError("resolvent parameter s must be positive")


@dataclass(frozen=True)
class NewtonResult:
    values: np.ndarray
    iterations: int
    residual_norm: float


def _residual_norm(r, m):
    # H-norm of the mass-divided residual: sqrt(sum r_i^2 / m_i)
    return float(np.sqrt(np.sum(r * r / m)))


def _level_residual(ctx, ell, bundle, s, k, u, u_prev, rhs):
    r = s * bundle.m * u + bundle.cap * (u - u_prev) / ctx.grid.dt
    r += apply_A(ctx, ell, k, u) - rhs + bundle.loads[k]
    return r


def _element_matrices(ctx, bundle, t, u, eps, picard=False):
    """Element stiffness+reaction blocks (n_el, n_loc, n_loc)."""
    model = ctx.model
    ue = u[bundle.conn]
    uq = np.einsum("el,ql->eq", ue, bundle.phi)
    gz = np.einsum("el,eld->ed", ue, bundle.dphi)
    zq = np.broadcast_to(gz[:, None, :], bundle.qp.shape)
    if picard:
        m2 = np.sum(zq * zq, axis=-1) + eps * eps
        c1 = m2 ** ((model.p - 2.0) / 2.0)
        d = bundle.qp.shape[-1]
        jf = c1[..., None, None] * np.eye(d)
        bq = np.asarray(model.beta(bundle.qp, t, uq))
        deriv = default_reaction_derivative(model)(bundle.qp, t, uq, eps)
        rp = np.where(np.abs(uq) > _TINY, bq / np.where(uq == 0.0, 1.0, uq), deriv)
    else:
        jf = np.asarray(default_flux_jacobian(model)(bundle.qp, t, zq, eps))
        rp = np.asarray(default_reaction_derivative(model)(bundle.qp, t, uq, eps))
    ke = np.einsum("eq,eqdk,eld,emk->elm", bundle.qw * bundle.a_q, jf,
                   bundle.dphi, bundle.dphi)
    ke += np.einsum("eq,eq,ql,qm->elm", bundle.qw * bundle.b_q, rp,
                    bundle.phi, bundle.phi)
    return ke


def _solve_linear(bundle, ke, diag_extra, rhs):
    """Solve (assembled ke + diag(diag_extra)) x = rhs as a banded system."""
    bw, n = bundle.bandwidth, bundle.n_nodes
    ab = np.bincount(bundle.band_index, weights=ke.ravel(),
                     minlength=(2 * bw + 1) * n).reshape(2 * bw + 1, n)
    ab[bw] += diag_extra
    try:
        return scipy.linalg.solve_banded((bw, bw), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"banded solve failed: {exc}") from exc


def newton_level_solve(ctx, ell, s, newton, k, u_prev, rhs, u0=None):
    """Damped Newton on one time level; returns a NewtonResult.

    Falls back to a single Picard step (frozen-coefficient linearization)
    whenever step halving fails to reduce the residual, then resumes Newton.
    """
    bundle = ctx.bundle(ell)
    t = ctx.grid.times[k]
    dt = ctx.grid.dt
    eps = newton.epsilon_reg
    shift = ctx.reaction_shift
    diag_extra = s * bundle.m + bundle.cap / dt + shift * bundle.cap

    u = np.array(u_prev if u0 is None else u0, dtype=float)
    r = _level_residual(ctx, ell, bundle, s, k, u, u_prev, rhs)
    rn = _residual_norm(r, bundle.m)
    if not np.isfinite(rn):
        raise SolverError("non-finite residual at Newton start", worst_residual=rn)
    tol = max(newton.abs_tol, newton.rel_tol * rn)
    worst = rn
    iters = 0
    while rn > tol:
        if iters >= newton.max_iters:
            raise SolverError(
                f"Newton did not converge at level {k}: residual {rn:.3e} "
                f"after {iters} iterations (tolerance {tol:.3e})",
                worst_residual=worst,
            )
        ke = _element_matrices(ctx, bundle, t, u, eps)
        du = _solve_linear(bundle, ke, diag_extra, -r)
        step = newton.damping
        accepted = False
        for _ in range(newton.max_halvings + 1):
            u_try = u + step * du
            r_try = _level_residual(ctx, ell, bundle, s, k, u_try, u_prev, rhs)
            rn_try = _residual_norm(r_try, bundle.m)
            if np.isfinite(rn_try) and (rn_try < rn or rn_try <= tol):
                u, r, rn = u_try, r_try, rn_try
                accepted = True
                break
            step *= 0.5
        if not accepted:
            ke = _element_matrices(ctx, bundle, t, u, eps, picard=True)
            pr_rhs = rhs - bundle.loads[k] + bundle.cap * u_prev / dt
            u = _solve_linear(bundle, ke, diag_extra, pr_rhs)
            r = _level_residual(ctx, ell, bundle, s, k, u, u_prev, rhs)
            rn = _residual_norm(r, bundle.m)
            if not np.isfinite(rn):
                raise SolverError(
                    f"Picard fallback diverged at level {k}", worst_residual=worst
                )
        worst = max(worst, rn)
        iters += 1
    return NewtonResult(values=u, iterations=iters, residual_norm=rn)


def resolvent_solve(ctx, ell, g, cfg):
    """Apply (sI + F_ell)^{-1} to a global field g.

    Marches the subdomain system level by level (warm-started from the
    previous level) and completes the field off the subdomain with g/s.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (ctx.grid.n_steps, ctx.mesh.n_nodes):
        raise ValueError(
            f"field shape {g.shape} does not match grid/mesh "
            f"({ctx.grid.n_steps}, {ctx.mesh.n_nodes})"
        )
    if not np.all(np.isfinite(g)):
        raise ValueError("resolvent input contains non-finite values")
    bundle = ctx.bundle(ell)
    u = g / cfg.s
    u_prev = np.zeros(bundle.n_nodes)
    for k in range(ctx.grid.n_steps):
        rhs = bundle.m * g[k, bundle.nodes]
        res = newton_level_solve(ctx, ell, cfg.s, cfg.newton, k, u_prev, rhs)
        u[k, bundle.nodes] = res.values
        u_prev = res.values
    return u
