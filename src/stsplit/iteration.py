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

Every update is a level-by-level map, so the sweeps run as one wavefront
along time (see resolvent.py): each scheme is a chain of Sweep records
whose inputs at level k are built from level k of the sweep before, and
run_scheme takes the completed sweeps in order.
"""

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .models import default_flux_jacobian, default_reaction_derivative
from .operators import build_context, h_norm, k_functional, primal_F
from .resolvent import ResolventConfig, Sweep, resolvent_solve

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

    # t is a scalar or broadcasts against the points' leading axes (one time
    # per element of a stack); vector values take one more axis
    def grow(t):
        return np.exp(rate * np.asarray(t))

    def decay(t):
        return np.exp(-rate * np.asarray(t))

    def alpha(x, t, z):
        w = grow(t)[..., None]
        return np.asarray(base_alpha(x, t, w * np.asarray(z))) / w

    def beta(x, t, y):
        w = grow(t)
        return np.asarray(base_beta(x, t, w * np.asarray(y))) / w

    def eta0(x, t):
        return np.asarray(base_eta0(x, t)) * decay(t)

    def eta(x, t):
        return np.asarray(base_eta(x, t)) * decay(t)[..., None]

    # chain rule: the shifted Jacobians are the base ones at the scaled state
    def flux_jacobian(x, t, z, eps):
        return np.asarray(base_fjac(x, t, grow(t)[..., None] * np.asarray(z), eps))

    def reaction_derivative(x, t, y, eps):
        return np.asarray(base_rder(x, t, grow(t) * np.asarray(y), eps))

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


class _AdditiveSweep(Sweep):
    """u_ell <- R_ell(s*u), u <- mean of the u_ell, level by level."""

    def __init__(self, s, start):
        self.s = s
        self.start = start  # the iterate before the first sweep

    def level_input(self, phase, k):
        if self.prev is None:
            return self.s * self.start[k]
        return self.s * _mean([f[k] for f in self.prev.out[0]])


class _AlternatingSweep(Sweep):
    """Peaceman-Rachford or Douglas-Rachford, level by level.

    Phase 0 solves u1 <- R1(s*u2 - f2) and phase 1 u2 <- R2(rhs2), with
    f2 = F2*u2 recovered from the previous sweep as rhs2 - s*u2.
    """

    def __init__(self, s, douglas, start):
        self.s = s
        self.douglas = douglas
        self.start = start  # (u2, F2*u2) before the first sweep
        self.rhs = ([], [])  # the inputs of both phases, level by level

    def _previous(self, k):
        if self.prev is None:
            return self.start[0][k], self.start[1][k]
        u2 = self.prev.out[1][0][k]
        return u2, self.prev.rhs[1][k] - self.s * u2

    def level_input(self, phase, k):
        if phase == 0:
            u2, f2 = self._previous(k)
            g = self.s * u2 - f2
        elif self.douglas:
            g = self.s * self.out[0][0][k] + self._previous(k)[1]
        else:
            g = 2.0 * self.s * self.out[0][0][k] - self.rhs[0][k]
        self.rhs[phase].append(g)
        return g


def _mean(fields):
    out = fields[0] / len(fields)
    for f in fields[1:]:
        out = out + f / len(fields)
    return out


def run_scheme(ctx, cfg, u_ref=None, initial=None):
    """Run a splitting scheme and collect its convergence trace.

    Args:
        ctx: operator context with a decomposition attached.
        cfg: SchemeConfig.
        u_ref: optional reference field; enables the error and monitor
            columns in the trace.
        initial: starting field (defaults to zero).

    The sweeps run as one wavefront along time (see resolvent_solve): the
    additive schemes apply their q subdomain resolvents to one input per
    sweep, the alternating ones apply R1 and then R2.  The completed sweeps
    are taken in order; after each the monitors and the stop test run, and
    once the test or max_sweeps ends the run the sweeps still in flight are
    dropped.  wall_ms is the time between consecutive sweep completions.

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
        if v_ref is not None:
            trace.v0_norm = h_norm(ctx, (s * u2 + f2) - v_ref)
            trace.w0_norm = h_norm(ctx, (s * u2 - f2) - w_ref)
        u_cmp_prev = u2
        start = (u2, f2)
        phases = ((0,), (1,))
        chain = (_AlternatingSweep(s, cfg.scheme == "DR", start)
                 for _ in range(cfg.max_sweeps))
    else:
        u_cmp_prev = start = down * u0 if down is not None else u0.copy()
        phases = (tuple(range(q)),)
        chain = (_AdditiveSweep(s, start) for _ in range(cfg.max_sweeps))

    converged = False
    sweeps = 0
    completed = resolvent_solve(ctx_run, phases, chain, rcfg)
    try:
        tic = time.perf_counter()
        for n, sweep in enumerate(completed, start=1):
            toc = time.perf_counter()
            wall_ms, tic = (toc - tic) * 1e3, toc
            if alternating:
                u1, u2 = sweep.out[0][0], sweep.out[1][0]
                vn = np.array(sweep.rhs[1])  # (sI + F2)u2 by construction
                f2 = vn - s * u2
                wn = s * u2 - f2
                u_cmp = u2
                subs = [u1, u2]
            else:
                subs = sweep.out[0]
                u_cmp = _mean(subs)
                vn = wn = None
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
    finally:
        completed.close()

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
