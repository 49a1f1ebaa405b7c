"""Alternating and additive splitting sweeps with convergence monitors.

The sweeps never apply F_ell to an iterate directly: after each resolvent
solve (sI + F_ell)x = rhs the action is recovered algebraically as
F_ell x = rhs - s*x, which avoids discrete time-differentiation of
non-smooth iterates.  Only the initial guess and the reference solution are
hit by one direct operator application to seed the caches.

Scheme update rules per sweep (two subdomains for the alternating schemes):

  peaceman_rachford:  u1 <- R1((s - F2)u2),  u2 <- R2((s - F1)u1)
  douglas_rachford:   u1 <- R1((s - F2)u2),  u2 <- R2(s*u1 + F2*u2_old)
  additive:           u_ell <- R_ell(s*u), u <- mean of the u_ell
  additive_shifted:   additive on the exponentially shifted system, with
                      iterates mapped back by e^{q t} for reporting

where R_ell = (sI + F_ell)^{-1}.
"""

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .models import default_flux_jacobian, default_reaction_derivative
from .operators import build_context, h_norm, k_functional, primal_F
from .resolvent import ResolventConfig, resolvent_solve

SCHEMES = ("PR", "DR", "AS", "AS_shifted")


@dataclass(frozen=True)
class SchemeConfig:
    """Sweep controls for run_scheme.

    Either fix s directly or leave it None to use s = C*sqrt(max_sweeps)
    with C = s_rule_constant (the scaling under which the additive scheme
    carries an a-priori error envelope).
    """

    scheme: str
    s: Optional[float] = None
    s_rule_constant: Optional[float] = None
    max_sweeps: int = 100
    stop_tol: float = 1e-10

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme '{self.scheme}'; expected one of {SCHEMES}"
            )
        if self.max_sweeps < 1:
            raise ConfigurationError("max_sweeps must be at least 1")
        if self.s is not None and not self.s > 0.0:
            raise ConfigurationError("s must be positive")
        if self.s is None and self.s_rule_constant is not None:
            if not self.s_rule_constant > 0.0:
                raise ConfigurationError("s_rule_constant must be positive")
        if not self.stop_tol >= 0.0:
            raise ConfigurationError("stop_tol must be nonnegative")

    def resolve_s(self):
        if self.s is not None:
            return float(self.s)
        c = 1.0 if self.s_rule_constant is None else float(self.s_rule_constant)
        return c * np.sqrt(float(self.max_sweeps))


class IterationTrace:
    """Per-sweep monitor columns plus the sweep-zero monitor values."""

    def __init__(self, q):
        self.q = q
        self.sweep = []
        self.err_H = []
        self.err_k_total = []
        self.err_k = []  # list of length-q tuples
        self.pr_v_norm = []
        self.pr_w_norm = []
        self.wall_ms = []
        self.v0_norm = None
        self.w0_norm = None

    def append(self, sweep, err_H, err_k, pr_v, pr_w, wall_ms):
        self.sweep.append(sweep)
        self.err_H.append(err_H)
        if err_k is None:
            self.err_k_total.append(None)
            self.err_k.append((None,) * self.q)
        else:
            self.err_k_total.append(float(sum(err_k)))
            self.err_k.append(tuple(err_k))
        self.pr_v_norm.append(pr_v)
        self.pr_w_norm.append(pr_w)
        self.wall_ms.append(wall_ms)

    def v_sequence(self):
        """||v^n - v|| for n = 0, 1, ... (sweep-zero value first)."""
        seq = [] if self.v0_norm is None else [self.v0_norm]
        return seq + [v for v in self.pr_v_norm if v is not None]

    def w_sequence(self):
        seq = [] if self.w0_norm is None else [self.w0_norm]
        return seq + [w for w in self.pr_w_norm if w is not None]

    def __len__(self):
        return len(self.sweep)


@dataclass(frozen=True)
class RunResult:
    u: np.ndarray  # final comparison iterate (unshifted)
    subdomain_fields: list  # final subdomain iterates (unshifted)
    trace: IterationTrace
    s_used: float
    sweeps: int
    converged: bool


def shift_model(model, dec):
    """Exponentially shifted model for the decomposition's subdomain count.

    With rate q = dec.q, substituting u = e^{q t} u_hat turns the equation
    for u into one for u_hat with flux e^{-qt} alpha(t, e^{qt} .), reaction
    e^{-qt} beta(t, e^{qt} .) plus an extra term q*gamma*u_hat, and source
    densities scaled by e^{-qt}.  The extra reaction is carried separately
    by the operator context (reaction_shift = q) weighted by the capacity
    partition, which keeps the subdomain operators summing exactly to the
    global one.  Requires gamma bounded away from zero.
    """
    rate = float(dec.q)
    mesh = dec.mesh
    gmin = min(
        float(np.min(model.gamma(mesh.nodes))),
        float(np.min(model.gamma(mesh.quad_points.reshape(-1, mesh.dim)))),
    )
    if gmin <= 0.0:
        raise ConfigurationError(
            "the shifted scheme needs gamma >= gamma_0 > 0 on the whole domain"
        )
    base_alpha, base_beta = model.alpha, model.beta
    base_eta0, base_eta = model.source.eta0, model.source.eta
    base_fjac = default_flux_jacobian(model)
    base_rder = default_reaction_derivative(model)

    def alpha(x, t, z):
        w = np.exp(rate * t)
        return np.asarray(base_alpha(x, t, w * np.asarray(z))) / w

    def beta(x, t, y):
        w = np.exp(rate * t)
        return np.asarray(base_beta(x, t, w * np.asarray(y))) / w

    def eta0(x, t):
        return np.asarray(base_eta0(x, t)) * np.exp(-rate * t)

    def eta(x, t):
        return np.asarray(base_eta(x, t)) * np.exp(-rate * t)

    # chain rule: the shifted Jacobians are the base ones at the scaled state
    def flux_jacobian(x, t, z, eps):
        return np.asarray(base_fjac(x, t, np.exp(rate * t) * np.asarray(z), eps))

    def reaction_derivative(x, t, y, eps):
        return np.asarray(base_rder(x, t, np.exp(rate * t) * np.asarray(y), eps))

    shifted = replace(
        model,
        alpha=alpha,
        beta=beta,
        source=type(model.source)(eta0=eta0, eta=eta),
        flux_jacobian=flux_jacobian,
        reaction_derivative=reaction_derivative,
    )
    return shifted


def shift_factors(grid, rate):
    """e^{-rate * t_k} per time level; multiply to shift, divide to unshift."""
    return np.exp(-float(rate) * grid.times)


def run_scheme(ctx, cfg, u_ref=None, initial=None):
    """Run a splitting scheme and collect its convergence trace.

    Args:
        ctx: operator context with a decomposition attached.
        cfg: SchemeConfig.
        u_ref: optional reference field; enables the error and monitor
            columns in the trace.
        initial: starting field (defaults to zero).

    The additive schemes apply their q independent subdomain resolvents in
    one block-diagonal solve per sweep (see resolvent_solve) and average the
    results in subdomain order.

    Returns a RunResult whose fields are unshifted for every scheme.
    """
    if ctx.dec is None:
        raise ConfigurationError("run_scheme needs a context with a decomposition")
    q = ctx.dec.q
    if cfg.scheme in ("PR", "DR") and q != 2:
        raise ConfigurationError(f"{cfg.scheme} requires exactly 2 subdomains")
    s = cfg.resolve_s()
    rcfg = ResolventConfig(s=s)
    n_steps, n_nodes = ctx.grid.n_steps, ctx.mesh.n_nodes

    u0 = np.zeros((n_steps, n_nodes)) if initial is None else np.array(initial, float)
    if u0.shape != (n_steps, n_nodes):
        raise ConfigurationError("initial field does not match the discretization")

    if cfg.scheme == "AS_shifted":
        ctx_run = build_context(
            ctx.mesh, shift_model(ctx.model, ctx.dec), ctx.grid, ctx.dec,
            reaction_shift=float(q),
        )
        down = shift_factors(ctx.grid, q)[:, None]
        up = 1.0 / down
    else:
        ctx_run = ctx
        down = up = None

    def unshift(field_run):
        return field_run if up is None else up * field_run

    trace = IterationTrace(q)
    alternating = cfg.scheme in ("PR", "DR")

    v_ref = w_ref = None
    if u_ref is not None and alternating:
        f2_ref = primal_F(ctx_run, 1, u_ref)
        v_ref = s * u_ref + f2_ref
        w_ref = s * u_ref - f2_ref

    if alternating:
        u2 = u0.copy()
        f2 = primal_F(ctx_run, 1, u2)
        u1 = None
        if v_ref is not None:
            trace.v0_norm = h_norm(ctx, (s * u2 + f2) - v_ref)
            trace.w0_norm = h_norm(ctx, (s * u2 - f2) - w_ref)
        u_cmp_prev = u2
    else:
        u = down * u0 if down is not None else u0.copy()
        u_subs = [u] * q
        u_cmp_prev = u

    converged = False
    sweeps = 0
    for n in range(1, cfg.max_sweeps + 1):
        tic = time.perf_counter()
        if alternating:
            rhs1 = s * u2 - f2
            u1 = resolvent_solve(ctx_run, 0, rhs1, rcfg)
            if cfg.scheme == "PR":
                rhs2 = 2.0 * s * u1 - rhs1
            else:
                rhs2 = s * u1 + f2
            u2 = resolvent_solve(ctx_run, 1, rhs2, rcfg)
            f2 = rhs2 - s * u2
            u_cmp = u2
            subs = [u1, u2]
            vn = rhs2  # (sI + F2)u2 by construction
            wn = s * u2 - f2
        else:
            rhs = s * u_cmp_prev
            u_subs = resolvent_solve(ctx_run, tuple(range(q)), rhs, rcfg)
            u_cmp = u_subs[0] / q
            for ell in range(1, q):
                u_cmp = u_cmp + u_subs[ell] / q
            subs = u_subs
            vn = wn = None
        wall_ms = (time.perf_counter() - tic) * 1e3
        sweeps = n

        err_H = err_k = pr_v = pr_w = None
        if u_ref is not None:
            err_H = h_norm(ctx, unshift(u_cmp) - u_ref)
            err_k = [
                k_functional(ctx, ell, unshift(subs[ell]) - u_ref)
                for ell in range(q)
            ]
            if v_ref is not None:
                pr_v = h_norm(ctx, vn - v_ref)
                pr_w = h_norm(ctx, wn - w_ref)
        trace.append(n, err_H, err_k, pr_v, pr_w, wall_ms)

        delta = h_norm(ctx, unshift(u_cmp - u_cmp_prev))
        u_cmp_prev = u_cmp
        if delta <= cfg.stop_tol:
            converged = True
            break

    if alternating:
        final = u2
        final_subs = [u1, u2]
    else:
        final = unshift(u_cmp_prev)
        final_subs = [unshift(f) for f in subs]
    return RunResult(
        u=final,
        subdomain_fields=final_subs,
        trace=trace,
        s_used=s,
        sweeps=sweeps,
        converged=converged,
    )
