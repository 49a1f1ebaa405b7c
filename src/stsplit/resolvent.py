"""Subdomain resolvents (sI + F_ell)^{-1} via damped Newton time-marching.

Each time level solves the nodal system (dual representation)

    s*m.u + cap*(u - u_prev)/dt + A_ell(t_k)u + load_k = rhs

with an exact residual and an epsilon-regularized Jacobian.  Strips are cut
along the first mesh axis, so every level system is banded and each Newton
step ends in one banded direct solve.  Off the subdomain the resolvent acts
as division by s, so the returned global field is
u = extend(u_ell) + (g - extend(restrict(g)))/s.

Passing ell = tuple(range(q)) applies all q subdomain resolvents to the same
input at once: their level systems are stacked into one block-diagonal
system, and each block keeps its own Newton bookkeeping, so every block's
result is bit-identical to the single-subdomain solve.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, SolverError
from .models import default_flux_jacobian, default_reaction_derivative
from .operators import apply_A, quad_values

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
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if self.max_halvings < 0:
            raise ConfigurationError("max_halvings must be nonnegative")
        for name in ("abs_tol", "rel_tol", "epsilon_reg"):
            if not getattr(self, name) >= 0.0:
                raise ConfigurationError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ResolventConfig:
    s: float
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not self.s > 0.0:
            raise ConfigurationError("resolvent parameter s must be positive")


@dataclass(frozen=True)
class NewtonResult:
    values: np.ndarray
    iterations: int  # Newton passes; the most any block needed
    residual_norm: float  # largest final residual norm over the blocks


def _level_residual(ctx, ell, bundle, s, k, u, u_prev, rhs):
    r = s * bundle.m * u + bundle.cap * (u - u_prev) / ctx.grid.dt
    r += apply_A(ctx, ell, k, u) - rhs + bundle.loads[k]
    return r


def _element_matrices(ctx, bundle, t, u, eps, picard=False):
    """Element stiffness+reaction blocks (n_el, n_loc, n_loc)."""
    model = ctx.model
    uq, zq = quad_values(bundle, u)
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
    w = np.einsum("eq,eqdk->edk", bundle.wa, jf)
    ke = bundle.dphi @ w @ bundle.dphi.transpose(0, 2, 1)
    ke += ((bundle.wb * rp) @ bundle.pp).reshape(ke.shape)
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

    On a stacked bundle (ell a tuple) each block has its own residual norm,
    tolerance, iteration count, step halving and Picard fallback.  A block
    that has converged, or has accepted a trial step of the current pass,
    is frozen by zeroing its slice of the Newton direction.
    """
    bundle = ctx.bundle(ell)
    t = ctx.grid.times[k]
    dt = ctx.grid.dt
    eps = newton.epsilon_reg
    shift = ctx.reaction_shift
    diag_extra = s * bundle.m + bundle.cap / dt + shift * bundle.cap
    offsets = bundle.offsets
    blocks = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
    names = ell if isinstance(ell, tuple) else (ell,)

    def where(b):
        return "" if names[b] is None else f" on subdomain {names[b]}"

    def norms(r):
        # H-norm of the mass-divided residual per block: sqrt(sum r_i^2 / m_i)
        w = r * r / bundle.m
        return [math.sqrt(w[sl].sum()) for sl in blocks]

    u = np.array(u_prev if u0 is None else u0, dtype=float)
    r = _level_residual(ctx, ell, bundle, s, k, u, u_prev, rhs)
    rn = norms(r)
    for b, v in enumerate(rn):
        if not math.isfinite(v):
            raise SolverError(f"non-finite residual at Newton start{where(b)}",
                              worst_residual=v)
    tol = [max(newton.abs_tol, newton.rel_tol * v) for v in rn]
    worst = list(rn)
    iters = [0] * len(blocks)
    while True:
        active = [b for b, v in enumerate(rn) if v > tol[b]]
        if not active:
            break
        for b in active:
            if iters[b] >= newton.max_iters:
                raise SolverError(
                    f"Newton did not converge at level {k}{where(b)}: residual "
                    f"{rn[b]:.3e} after {iters[b]} iterations "
                    f"(tolerance {tol[b]:.3e})",
                    worst_residual=worst[b],
                )
        ke = _element_matrices(ctx, bundle, t, u, eps)
        du = _solve_linear(bundle, ke, diag_extra, -r)
        for b, sl in enumerate(blocks):
            if b not in active:
                du[sl] = 0.0
        pending = active
        step = newton.damping
        for _ in range(newton.max_halvings + 1):
            u_try = u + step * du
            r_try = _level_residual(ctx, ell, bundle, s, k, u_try, u_prev, rhs)
            rn_try = norms(r_try)
            accepted = [
                b for b in pending
                if math.isfinite(rn_try[b])
                and (rn_try[b] < rn[b] or rn_try[b] <= tol[b])
            ]
            if len(accepted) == len(pending):
                # frozen blocks have du = 0, so u_try and r_try agree with u, r there
                u, r, rn = u_try, r_try, rn_try
                pending = []
                break
            for b in accepted:
                sl = blocks[b]
                u[sl], r[sl], rn[b] = u_try[sl], r_try[sl], rn_try[b]
                du[sl] = 0.0
            pending = [b for b in pending if b not in accepted]
            step *= 0.5
        if pending:
            ke = _element_matrices(ctx, bundle, t, u, eps, picard=True)
            pr_rhs = rhs - bundle.loads[k] + bundle.cap * u_prev / dt
            u_pic = _solve_linear(bundle, ke, diag_extra, pr_rhs)
            for b in pending:
                u[blocks[b]] = u_pic[blocks[b]]
            r = _level_residual(ctx, ell, bundle, s, k, u, u_prev, rhs)
            rn = norms(r)
            for b in pending:
                if not math.isfinite(rn[b]):
                    raise SolverError(
                        f"Picard fallback diverged at level {k}{where(b)}",
                        worst_residual=worst[b],
                    )
        for b in active:
            worst[b] = max(worst[b], rn[b])
            iters[b] += 1
    return NewtonResult(values=u, iterations=max(iters), residual_norm=max(rn))


def resolvent_solve(ctx, ell, g, cfg):
    """Apply (sI + F_ell)^{-1} to a global field g.

    Marches the subdomain system level by level (warm-started from the
    previous level) and completes the field off the subdomain with g/s.
    With ell = tuple(range(q)) all q resolvents are applied to g in one
    block-diagonal march, and the q fields are returned as a list in
    subdomain order.
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
    levels = np.empty((ctx.grid.n_steps, bundle.n_nodes))
    u_prev = np.zeros(bundle.n_nodes)
    for k in range(ctx.grid.n_steps):
        rhs = bundle.m * g[k, bundle.nodes]
        res = newton_level_solve(ctx, ell, cfg.s, cfg.newton, k, u_prev, rhs)
        levels[k] = res.values
        u_prev = res.values
    out = []
    for a, b in zip(bundle.offsets, bundle.offsets[1:]):
        u = g / cfg.s
        u[:, bundle.nodes[a:b]] = levels[:, a:b]
        out.append(u)
    return out if isinstance(ell, tuple) else out[0]
