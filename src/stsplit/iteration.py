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
  additive_shifted:   additive on a context with the exponential shift q
                      (see OperatorContext), in the original variables

where R_ell = (sI + F_ell)^{-1}.

Every update is a level-by-level map, so the sweeps run as one wavefront
along time (see resolvent.py): each scheme is a chain of Sweep records
whose inputs at level k are built from level k of the sweep before, and
run_scheme takes the completed sweeps in order.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, as_integer
from .operators import _check_field, build_context, h_norm, k_functional, primal_F
from .resolvent import ResolventConfig, Sweep, resolvent_solve

SCHEMES = ("PR", "DR", "AS", "AS_shifted")


@dataclass(frozen=True)
class SchemeConfig:
    """Sweep controls for run_scheme.

    Either fix s directly or leave it None to use s = sqrt(max_sweeps) (the
    scaling under which the additive scheme carries an a-priori error
    envelope); the resolved s is stored in the field.
    """

    scheme: str
    s: Optional[float] = None
    max_sweeps: int = 100
    stop_tol: float = 1e-10

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme '{self.scheme}'; expected one of {SCHEMES}"
            )
        object.__setattr__(self, "max_sweeps",
                           as_integer(self.max_sweeps, "max_sweeps"))
        if self.max_sweeps < 1:
            raise ConfigurationError("max_sweeps must be at least 1")
        if not self.stop_tol >= 0.0:
            raise ConfigurationError("stop_tol must be nonnegative")
        s = math.sqrt(self.max_sweeps) if self.s is None else float(self.s)
        ResolventConfig(s=s)
        object.__setattr__(self, "s", s)


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
    u: np.ndarray  # final comparison iterate
    subdomain_fields: list  # final subdomain iterates
    trace: IterationTrace
    sweeps: int
    converged: bool


class _AdditiveSweep(Sweep):
    """u_ell <- R_ell(s*u), u <- mean of the u_ell, level by level."""

    def __init__(self, s, start):
        self.s = s
        self.start = start  # the iterate before the first sweep

    def level_input(self, phase, k):
        if self.prev is None:
            return self.s * self.start[k]
        fields = self.prev.out[0][:, k]
        return self.s * np.add.reduce(fields / len(fields), axis=0)

    def iterate(self):
        """(compared iterate, subdomain fields, None): no (v, w) monitor."""
        fields = self.out[0]
        return np.add.reduce(fields / len(fields), axis=0), list(fields), None


class _AlternatingSweep(Sweep):
    """Peaceman-Rachford or Douglas-Rachford, level by level.

    Phase 0 solves u1 <- R1(s*u2 - f2) and phase 1 u2 <- R2(rhs2), with
    f2 = F2*u2 recovered from the previous sweep as rhs2 - s*u2.
    """

    def __init__(self, s, douglas, start):
        self.s = s
        self.douglas = douglas
        self.start = start  # (u2, F2*u2) before the first sweep
        self.rhs2 = []  # the phase-1 inputs, level by level

    def _previous(self, k):
        if self.prev is None:
            return self.start[0][k], self.start[1][k]
        u2 = self.prev.out[1][0, k]
        return u2, self.prev.rhs2[k] - self.s * u2

    def level_input(self, phase, k):
        u2, f2 = self._previous(k)
        if phase == 0:
            return self.s * u2 - f2
        if self.douglas:
            g = self.s * self.out[0][0, k] + f2
        else:
            # PR reflects about phase 0's input, rebuilt from the sweep before
            g = 2.0 * self.s * self.out[0][0, k] - (self.s * u2 - f2)
        self.rhs2.append(g)
        return g

    def iterate(self):
        """(u2, [u1, u2], (v, w)) with v = (sI + F2)u2 and w = (sI - F2)u2."""
        u1, u2 = self.out[0][0], self.out[1][0]
        vn = np.array(self.rhs2)  # (sI + F2)u2 by construction
        f2 = vn - self.s * u2
        return u2, [u1, u2], (vn, self.s * u2 - f2)


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
    are taken in order; after each the monitors and the stop test run on
    the sweep's own iterate, and once the test or max_sweeps ends the run
    the sweeps still in flight are dropped.  wall_ms is the time between
    consecutive sweep completions.

    AS_shifted runs on a context with the shift q, so it approaches the
    shifted discretization's solution, solve_monolithic of that context,
    which is O(dt) from u_h.
    """
    if ctx.dec is None:
        raise ConfigurationError("run_scheme needs a context with a decomposition")
    q = ctx.dec.q
    alternating = cfg.scheme in ("PR", "DR")
    if alternating and q != 2:
        raise ConfigurationError(f"{cfg.scheme} requires exactly 2 subdomains")
    s = cfg.s
    rcfg = ResolventConfig(s=s)
    if u_ref is not None:
        u_ref = _check_field(ctx, u_ref, None)
    u0 = (np.zeros((ctx.grid.n_steps, ctx.mesh.n_nodes)) if initial is None
          else _check_field(ctx, initial, None))  # read, never written

    ctx_run = ctx
    if cfg.scheme == "AS_shifted":
        ctx_run = build_context(ctx.mesh, ctx.model, ctx.grid, ctx.dec,
                                shift=float(q))

    trace = IterationTrace(q)
    u_cmp_prev = u0
    if alternating:
        f2 = primal_F(ctx_run, 1, u_cmp_prev)
        if u_ref is not None:
            f2_ref = primal_F(ctx_run, 1, u_ref)
            v_ref = s * u_ref + f2_ref
            w_ref = s * u_ref - f2_ref
            trace.v0_norm = h_norm(ctx, (s * u_cmp_prev + f2) - v_ref)
            trace.w0_norm = h_norm(ctx, (s * u_cmp_prev - f2) - w_ref)
        phases = ((0,), (1,))
        chain = (_AlternatingSweep(s, cfg.scheme == "DR", (u_cmp_prev, f2))
                 for _ in range(cfg.max_sweeps))
    else:
        phases = (tuple(range(q)),)
        chain = (_AdditiveSweep(s, u_cmp_prev) for _ in range(cfg.max_sweeps))

    converged = False
    completed = resolvent_solve(ctx_run, phases, chain, rcfg)
    try:
        tic = time.perf_counter()
        for sweeps, sweep in enumerate(completed, start=1):
            toc = time.perf_counter()
            wall_ms, tic = (toc - tic) * 1e3, toc
            u_cmp, subs, vw = sweep.iterate()

            err_H = err_k = pr_v = pr_w = None
            if u_ref is not None:
                err_H = h_norm(ctx, u_cmp - u_ref)
                err_k = [k_functional(ctx, ell, subs[ell] - u_ref)
                         for ell in range(q)]
                if vw is not None:
                    pr_v = h_norm(ctx, vw[0] - v_ref)
                    pr_w = h_norm(ctx, vw[1] - w_ref)
            trace.append(sweeps, err_H, err_k, pr_v, pr_w, wall_ms)

            delta = h_norm(ctx, u_cmp - u_cmp_prev)
            u_cmp_prev = u_cmp
            if delta <= cfg.stop_tol:
                converged = True
                break
    finally:
        completed.close()

    return RunResult(
        # the alternating schemes compare u2, which is also a subdomain field
        u=u_cmp_prev.copy() if alternating else u_cmp_prev,
        subdomain_fields=subs,
        trace=trace,
        sweeps=sweeps,
        converged=converged,
    )
