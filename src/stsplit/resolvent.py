"""Subdomain resolvents (sI + F_ell)^{-1}, applied as a wavefront along time.

Each time level solves the nodal system (dual representation)

    s*m.u + cap*(u - growth*u_prev)/dt + A_ell(t_k)u + load_k = rhs

with growth = ctx.step_growth: e^{q dt} under an exponential shift q, whose
q*cap*u term A_ell carries (see OperatorContext), and 1.0 without one.  It
is solved with an exact residual and an epsilon-regularized Jacobian,
globalized by step halving alone: a Newton step that no halving makes
lower the residual raises SolverError.  Strips are cut along the first
mesh axis, so every level system is banded and each Newton step ends in
one banded direct solve.  Off the subdomain the resolvent acts as
division by s, so the returned global field is
u = extend(u_ell) + (g - extend(restrict(g)))/s.

Every resolvent is causal in time: level k of its output needs only levels
<= k of its input.  So is every sweep of a splitting scheme, and level k of
sweep n+1 can be solved as soon as level k of sweep n is done.
`resolvent_solve` therefore runs a chain of sweeps, each applying P phases
of resolvents in turn, as a wavefront: application a = n*P + p (phase p of
sweep n) starts at least one stage after application a - 1 and solves one
level per stage.  All level systems of a stage are stacked into one
block-diagonal system, named by the tuple of their subdomains (see
`OperatorContext.bundle`), and solved by one Newton in which every block
keeps its own bookkeeping, so every block's result is bit-identical to its
solve alone.  How many applications run at once is bounded by the nodes of
one stack, _STAGE_NODES.  A Newton pass has a fixed cost that dominates on
small blocks (about 90 us on a 31-node subdomain against 310 us on a
1,136-node stack), so a deeper stack solves the same levels in fewer
passes, but every application under way holds its outputs, as global
fields and as subdomain rows (see Sweep); where one application's level
takes more than the bound, the sweeps run one after the other.  A single
resolvent application is a chain of one sweep with one phase, and its
stages are its time levels.

Successive sweeps approach the scheme's fixed point, so Newton starts each
level of sweep n from the output of sweep n-1 at the same phase and level,
which an earlier stage has solved.  Such a warm block is solved inexactly:
it stops at max(tol, _WARM_REL_TOL*||r(warm start)||), where tol =
max(_ABS_TOL, _REL_TOL*||r(u_prev)||) is the tolerance relative to the
residual at the previous level.  The scheme's convergence rests only on
nonexpansive resolvents, and inexact Krasnosel'skii-Mann and
Douglas-Rachford iterations still converge when the resolvent errors are
summable (Eckstein & Bertsekas 1992, Combettes 2004); the warm-start
residual shrinks with the outer increment, and so does the error allowed.
Each block's start depends only on its own (sweep, phase, level), so its
tolerance does too, and the pipelined and the sweep-by-sweep order still
give the same bits.  The first sweep, and so every single application,
starts from the previous level and keeps tol, as does every other caller
of newton_level_solve, whatever start it passes.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, SolverError
from .operators import (_check_field, _check_level, apply_A, level_loads,
                        level_times, quad_values)

# Newton controls, read at call time: iteration cap, absolute and relative
# residual tolerances, Jacobian regularization, step halvings per pass.
_MAX_ITERS = 50
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
# kappa of the inexact warm blocks (see the module docstring): on the
# benchmark, 1e-4 cut Newton passes by a quarter and kept every gate, and
# 1e-3 left pr1d_degenerate's final err_H 2.785e-7 above its 2.77e-7 bound
_WARM_REL_TOL = 1e-4
_EPSILON_REG = 1e-8
_MAX_HALVINGS = 30

# Most nodes one stacked Newton takes.  The wavefront runs at most
# _STAGE_NODES // (nodes of one application's level) applications at once,
# so a stage is always one stack, and one application at a time (the
# sweep-by-sweep order) where one level takes more.  Sized from probes on
# the benchmark's subdomains (2 vCPU Xeon).  In 2D stacking does not pay:
# on 726-node blocks a pass cost 3.06 ms per block at 2 blocks and 3.19 ms
# at 8, and the peak RSS rose from 63.7 to 75.7 MB.  In 1D a Newton pass
# has a fixed cost that dominates: on stacks of as1d_shifted_q3 subdomains
# one pass took about 200 us at 497 nodes, 310 us at 1,136 and 590 us at
# 2,272, and 90 us on one 31-node subdomain (a level solve's time over its
# 12-13 passes).  But every application under way holds its global output
# fields and its subdomain rows (see Sweep), so the peak RSS grows with the
# depth.  perfbench run_s and peak_rss_mb, medians of 3 runs of 8 s, taken
# before the subdomain rows were kept, which add 18 KB per as1d application
# (as1d_shifted_q3: 71 nodes per application, 32 levels; pr1d_degenerate:
# 49 nodes, 16 levels, so at most 16 applications are ever under way):
#   _STAGE_NODES   as1d depth, run_s, RSS     pr1d depth, run_s, RSS
#            500    7  0.435 s  59.25 MB      10  0.492 s  58.85 MB
#            800   11  0.366 s  59.61 MB      16  0.417 s  59.51 MB
#           1136   16  0.353 s  60.14 MB      16  0.396 s  59.59 MB
#           2272   32  0.349 s  62.03 MB      16  0.414 s  59.46 MB
# 1136 runs 16 as1d applications at once and every pr1d application under
# way.  Full as1d depth (2272) was no faster beyond the noise and held
# 1.9 MB more.  2D runs sweep by sweep (1,452 nodes per application).
_STAGE_NODES = 1136


@dataclass(frozen=True)
class ResolventConfig:
    s: float

    def __post_init__(self):
        if not self.s > 0.0:
            raise ConfigurationError("resolvent parameter s must be positive")
        if not math.isfinite(self.s):
            raise ConfigurationError(f"resolvent parameter s = {self.s!r} is "
                                     f"too large: it is not finite")
        if not math.isfinite(1.0 / self.s):
            raise ConfigurationError(f"resolvent parameter s = {self.s!r} is "
                                     f"too small: 1/s is not finite")


@dataclass(frozen=True)
class NewtonResult:
    values: np.ndarray
    iterations: int  # Newton passes; the most any block needed


def _element_matrices(ctx, bundle, t, values, eps):
    """Element stiffness+reaction blocks (n_el, n_loc, n_loc).

    values is quad_values of the iterate the Jacobian is taken at.
    """
    model = ctx.model
    uq, zq = values
    jf = model.flux_jacobian(bundle.qp, t, zq, eps)
    rp = model.reaction_derivative(bundle.qp, t, uq, eps)
    w = np.einsum("eq,eqdk->edk", bundle.wa, jf)
    ke = bundle.dphi @ w @ bundle.dphi.transpose(0, 2, 1)
    ke += ((bundle.wb * rp) @ bundle.pp).reshape(ke.shape)
    return ke


def _solve_linear(bundle, ke, diag_extra, rhs):
    """Solve (assembled ke + diag(diag_extra)) x = rhs as a banded system.

    The band storage is built here, so LAPACK may overwrite it; rhs is left
    as it is.  A non-finite or singular system raises SolverError.
    """
    bw, n = bundle.bandwidth, bundle.n_nodes
    ab = np.bincount(bundle.band_index, weights=ke.ravel(),
                     minlength=(2 * bw + 1) * n).reshape(2 * bw + 1, n)
    ab[bw] += diag_extra
    if not np.isfinite(ab).all():
        raise SolverError("banded system has non-finite entries")
    try:
        return scipy.linalg.solve_banded((bw, bw), ab, rhs, overwrite_ab=True,
                                         check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"banded solve failed: {exc}") from exc


# one error state for the whole solve: a floating-point fault leaves an inf
# or nan, which the line search rejects in a trial and which raises
# SolverError in a start residual or a banded system, so none warns
@np.errstate(all="ignore")
def newton_level_solve(ctx, ell, s, k, u_prev, rhs, u0=None, warm=None):
    """Damped Newton on one time level; returns a NewtonResult.

    The iteration starts from u0, or from u_prev when u0 is None; either
    way each block's tolerance is tol = max(_ABS_TOL, _REL_TOL*||r(u_prev)||),
    relative to its residual at u_prev, so a better start never tightens
    it.  warm, one flag per block (or one for all), marks the blocks whose
    u0 is the previous sweep's output at the same phase and level; a warm
    block stops at max(tol, _WARM_REL_TOL*||r(u0)||) instead.  Only the
    wavefront engine passes it, so every other start keeps tol.

    Each pass makes one linear solve and then halves the step, up to
    _MAX_HALVINGS times, until the residual norm drops.  A trial whose
    residual is not finite counts as not lower.  If no halved step lowers
    it, the solve raises SolverError at once.  The quadrature values of
    each trial are evaluated once, for its residual, and those of the
    accepted iterate give the next Jacobian.

    ell names the system as `OperatorContext.bundle` does: None for the
    whole domain, a subdomain index, or a tuple of subdomain indices for
    their stack, on which k is one level for all blocks or holds one level
    per block.  Each block has its own residual norm, tolerance and step
    length: 1 on a block still iterating and 0 on a converged one, and only
    the blocks whose trials have not yet lowered their residual halve it.
    Each trial is u + steps[block] * du, so the last trial of a pass holds
    every block at its accepted point and is taken whole.  A converged
    block stays where it is, so every block still iterating has taken
    every pass.  A SolverError names the first failing block and its level
    in its message.
    """
    bundle = ctx.bundle(ell)
    u_prev = _check_level(bundle, u_prev)
    rhs = _check_level(bundle, rhs)
    if u0 is not None:
        u0 = _check_level(bundle, u0)
    blocks = bundle.blocks
    if warm is not None and (u0 is None or
                             np.shape(warm) not in ((), (len(blocks),))):
        raise ConfigurationError(f"warm needs a start u0 and one flag per "
                                 f"block ({len(blocks)}), not {warm!r}")
    t = level_times(ctx, bundle, k)
    loads = level_loads(bundle, k)
    # the time difference reads the previous level grown by step_growth;
    # Newton still starts from u_prev itself
    grown = ctx.step_growth * u_prev
    dt = ctx.grid.dt
    eps = _EPSILON_REG
    sm = s * bundle.m
    diag_extra = sm + bundle.cap / dt + ctx.shift * bundle.cap
    block_of_node = bundle.block_of_node

    def where(b):
        name = blocks[b].name
        return "" if name is None else f" on subdomain {name}"

    def level(b):
        return np.broadcast_to(k, len(blocks))[b]

    def residual(u):
        # the quadrature values of u, the residual and, per block, the H-norm
        # of the mass-divided residual, sqrt(sum r_i^2 / m_i); a huge trial
        # overflows to inf or nan, which the line search rejects
        values = quad_values(bundle, u)
        r = sm * u + bundle.cap * (u - grown) / dt
        r += apply_A(ctx, ell, k, u, values=values) - rhs + loads
        return values, r, np.sqrt(bundle.block_sum(r * r / bundle.m))

    def first(mask):
        return int(np.flatnonzero(mask)[0])

    def start(u):
        values, r, rn = residual(u)
        bad = ~np.isfinite(rn)
        if np.count_nonzero(bad):
            b = first(bad)
            raise SolverError(f"non-finite residual at Newton start{where(b)}")
        return values, r, rn

    u = u_prev.copy()
    values, r, rn = start(u)
    tol = np.maximum(_ABS_TOL, _REL_TOL * rn)
    if u0 is not None:
        u = u0.copy()
        values, r, rn = start(u)
        if warm is not None:
            tol = np.where(warm, np.maximum(tol, _WARM_REL_TOL * rn), tol)
    passes = 0
    while True:
        active = rn > tol
        if not np.count_nonzero(active):
            break
        if passes >= _MAX_ITERS:
            b = first(active)
            raise SolverError(
                f"Newton did not converge at level {level(b)}{where(b)}: "
                f"residual {rn[b]:.3e} after {passes} iterations "
                f"(tolerance {tol[b]:.3e})")
        ke = _element_matrices(ctx, bundle, t, values, eps)
        du = _solve_linear(bundle, ke, diag_extra, -r)
        steps = np.where(active, 1.0, 0.0)
        pending = active
        for _ in range(_MAX_HALVINGS + 1):
            u_try = u + steps[block_of_node] * du
            values_try, r_try, rn_try = residual(u_try)
            # a pending block is above its tolerance, so reaching the
            # tolerance lowers its residual too; nan and inf never do
            pending = pending & ~(rn_try < rn)
            if not np.count_nonzero(pending):
                break
            steps[pending] *= 0.5
        else:
            b = first(pending)
            raise SolverError(
                f"Newton line search failed at level {level(b)}{where(b)}: "
                f"residual {rn[b]:.3e} after {passes} iterations")
        # every block sits at its accepted point, a converged one where it was
        u, values, r, rn = u_try, values_try, r_try, rn_try
        passes += 1
    return NewtonResult(values=u, iterations=passes)


class Sweep:
    """One sweep of a chain, whose outputs the engine fills level by level.

    Phase p of the sweep applies the resolvents of the subdomains phases[p]
    to one input field.  Its outputs are out[p], one array of shape
    (len(phases[p]), n_steps, n_nodes) that holds one global output field
    per subdomain (g/s off the subdomain), and rows[p], of shape
    (n_steps, N_p): the same outputs on the subdomains' own N_p nodes, in
    the stack order of `OperatorContext.bundle(phases[p])`, from which the
    engine builds the previous levels and warm starts of its Newton.  Both
    are allocated when their phase starts and filled level by level.  A
    subclass defines level_input(p, k), level k of the phase's input, and
    keeps whatever of it it reads later.  It may read level k of this
    sweep's earlier phases and of `prev`, the sweep before (None for the
    first).  The engine starts each level's Newton from level k of prev's
    rows at the same phase, and drops `prev` once the sweep's inputs are
    all built and its starts read.
    """

    prev = None
    out = None
    rows = None

    def level_input(self, phase, k):
        raise NotImplementedError


class _FieldSweep(Sweep):
    """A given input field, for a single resolvent application."""

    def __init__(self, field):
        self.field = field

    def level_input(self, phase, k):
        return self.field[k]


def _solve_stage(ctx, phases, s, units):
    """Solve the units' level systems in one stacked Newton.

    phases[p] holds the subdomains of phase p, and a unit is (application,
    sweep, phase, level, input level, warm start).  The warm start is the
    previous sweep's subdomain rows at the same phase and level, or None.
    Newton starts each block from its warm row and solves it inexactly (see
    `newton_level_solve`'s warm); a block without one starts from its
    previous level and keeps the exact tolerance, which gives the bits of
    no start at all, and a stage with no warm start passes none.  The stack
    holds the units' subdomain rows in turn, so each unit reads and writes
    one slice of it.  Writes each unit's output level and returns None.  If the stacked
    Newton raises SolverError, a stage of one unit returns (application,
    error), and one of more units solves them alone, in application order,
    and returns what the first that fails returns, with the units before it
    done.
    """
    parts, ks, inputs, prev, starts, warm_blocks = (), [], [], [], [], []
    for _, sweep, p, k, g, warm in units:
        n = len(phases[p])
        parts += phases[p]
        ks += [k] * n
        inputs += [g] * n
        before = (sweep.rows[p][k - 1] if k
                  else np.zeros(sweep.rows[p].shape[1]))
        prev.append(before)
        starts.append(before if warm is None else warm)
        warm_blocks += [warm is not None] * n
    bundle = ctx.bundle(parts)
    # the inputs as global rows, one per block, read at each stacked node's
    # global id
    at = (bundle.block_of_node, bundle.nodes)
    inputs = np.array(inputs)
    u0 = flags = None
    if any(warm_blocks):
        u0, flags = np.concatenate(starts), np.array(warm_blocks)
    try:
        res = newton_level_solve(
            ctx, parts, s, ks[0] if len(set(ks)) == 1 else ks,
            np.concatenate(prev), bundle.m * inputs[at], u0=u0, warm=flags)
    except SolverError as err:
        if len(units) == 1:
            return units[0][0], err
        for unit in sorted(units, key=lambda unit: unit[0]):
            found = _solve_stage(ctx, phases, s, [unit])
            if found is not None:
                return found
        return None
    out = inputs / s
    out[at] = res.values
    b = i = 0
    for _, sweep, p, k, _, _ in units:
        n, width = len(phases[p]), sweep.rows[p].shape[1]
        sweep.out[p][:, k] = out[b:b + n]
        sweep.rows[p][k] = res.values[i:i + width]
        b, i = b + n, i + width
    return None


def _wavefront(ctx, phases, sweeps, s):
    """Run the chain of sweeps as a wavefront; yield each completed sweep.

    Application a = n*P + p is phase p of sweep n.  It starts one stage or
    more after application a - 1 and then solves one level per stage, so
    the levels it reads are done, and so is its warm start: level k of
    application a - P, read from `prev` before the sweep drops it.  At most
    as many applications run at once as fit in one stack of _STAGE_NODES
    nodes, and the next one starts when there is room, so each stage is one
    stacked Newton.  When application a fails (the first of its stage to
    fail alone, see `_solve_stage`), the applications after it are dropped,
    the ones before it go on, and its error is raised once they are done.
    """
    n_steps, n_nodes = ctx.grid.n_steps, ctx.mesh.n_nodes
    n_phases = len(phases)
    # nodes of one application of each phase (ctx.bundle keeps only the
    # last stack, so the phases' own stacks are not built)
    widths = [sum(ctx.bundle(ell).n_nodes for ell in ells) for ells in phases]
    depth = max(1, _STAGE_NODES // max(widths))
    sweeps = iter(sweeps)
    running = []  # [application, sweep, phase, level] under way, in order
    failed, error = math.inf, None  # first failed application and its error
    a = 0  # the next application to start
    sweep = prev = None
    while True:
        if len(running) < depth and a < failed:
            p = a % n_phases
            if p == 0:
                sweep = next(sweeps, None)
                if sweep is not None:
                    sweep.out, sweep.rows = [None] * n_phases, [None] * n_phases
                    sweep.prev, prev = prev, sweep
            if sweep is not None:
                sweep.out[p] = np.empty((len(phases[p]), n_steps, n_nodes))
                sweep.rows[p] = np.empty((n_steps, widths[p]))
                running.append([a, sweep, p, 0])
                a += 1
        if not running:
            break
        units = []
        for app, sweep_k, p, k in running:
            g_k = sweep_k.level_input(p, k)
            # level k of the sweep before is done: its application ran ahead
            warm = None
            if sweep_k.prev is not None:
                warm = sweep_k.prev.rows[p][k]
            if k == n_steps - 1 and p == n_phases - 1:
                sweep_k.prev = None
            units.append((app, sweep_k, p, k, g_k, warm))
        # by phase, so that a stage holds the same stack as the one before
        # whenever it runs as many applications of each phase
        units.sort(key=lambda unit: unit[2])
        found = _solve_stage(ctx, phases, s, units)
        if found is not None:
            # the applications after the failed one depend on it
            failed, error = found
            running = [run for run in running if run[0] < failed]
        for run in running:
            run[3] += 1
        while running and running[0][3] == n_steps:
            _, done, p, _ = running.pop(0)
            if p == n_phases - 1:
                yield done
    if error is not None:
        raise error


def resolvent_solve(ctx, ell, g, cfg):
    """Apply (sI + F_ell)^{-1} to a global field g, or run a chain of sweeps.

    For a subdomain index ell, g is a global field and so is the result.

    For a chain, ell holds one tuple of subdomains per phase and g is an
    iterable of Sweep records; the call returns a generator that yields the
    sweeps as they complete, in order.  A Newton failure in sweep m is
    raised only when the generator reaches sweep m, with the message a
    sweep-by-sweep run gives.  Closing the generator drops the sweeps still
    in flight.

    A chain has one phase or more, each a non-empty tuple of subdomains,
    and its names are checked by `OperatorContext.bundle`, at the call.
    Other chains and names raise ConfigurationError.
    """
    chain = ell if isinstance(ell, tuple) else ((ell,),)
    if not chain or not all(isinstance(phase, tuple) and phase
                            for phase in chain):
        raise ConfigurationError(f"a chain names one non-empty tuple of "
                                 f"subdomains per phase, not {ell!r}")
    for name in sum(chain, ()):
        ctx.bundle((name,))  # as a 1-tuple, so that a tuple name is refused
    if chain is ell:
        return _wavefront(ctx, chain, g, cfg.s)
    g = _check_field(ctx, g, None)
    return next(_wavefront(ctx, chain, [_FieldSweep(g)], cfg.s)).out[0][0]
