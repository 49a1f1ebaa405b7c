"""Subdomain resolvents (sI + F_ell)^{-1}, applied as a wavefront along time.

Each time level solves the nodal system (dual representation)

    s*m.u + cap*(u - u_prev)/dt + A_ell(t_k)u + load_k = rhs

with an exact residual and an epsilon-regularized Jacobian, globalized by
step halving alone: a Newton step that no halving makes lower the residual
raises SolverError.  Strips are cut along the first mesh axis, so every
level system is banded and each Newton step ends in one banded direct
solve.  Off the subdomain the resolvent acts as division by s, so the
returned global field is u = extend(u_ell) + (g - extend(restrict(g)))/s.

Every resolvent is causal in time: level k of its output needs only levels
<= k of its input.  So is every sweep of a splitting scheme, and level k of
sweep n+1 can be solved as soon as level k of sweep n is done.
`resolvent_solve` therefore runs a chain of sweeps, each applying P phases
of resolvents in turn, as a wavefront: application a = n*P + p (phase p of
sweep n) starts at least one stage after application a - 1 and solves one
level per stage.  All level systems of a stage are stacked into one block-diagonal
system and solved by one Newton in which every block keeps its own
bookkeeping, so every block's result is bit-identical to its solve alone.
How many applications run at once is bounded by the nodes of one stack,
_STAGE_NODES; where one application's level takes more, the sweeps run one
after the other.  A single resolvent application is a chain of one sweep
with one phase, and its stages are its time levels.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, SolverError
from .models import default_flux_jacobian, default_reaction_derivative
from .operators import (
    apply_A,
    level_loads,
    level_times,
    quad_values,
    stack_bundles,
)

# Newton controls, read at call time: iteration cap, absolute and relative
# residual tolerances, Jacobian regularization, step halvings per pass.
_MAX_ITERS = 50
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_EPSILON_REG = 1e-8
_MAX_HALVINGS = 30

# Most nodes one stacked Newton takes.  The wavefront runs at most
# _STAGE_NODES // (nodes of one application's level) applications at once,
# so a stage is always one stack, and one application at a time (the
# sweep-by-sweep order) where one level takes more.  Sized from probes on
# the benchmark's subdomains (2 vCPU Xeon).  In 2D stacking does not pay:
# on 726-node blocks a pass cost 3.06 ms per block at 2 blocks and 3.19 ms
# at 8, and the peak RSS rose from 63.7 to 75.7 MB.  In 1D it pays, but
# every application under way holds its fields and its blocks of the
# stack, so the peak RSS grows with the depth.  perfbench run_s and
# peak_rss_mb, 30 s runs (as1d_shifted_q3: 71 nodes per application, 32
# levels; pr1d_degenerate: 49 nodes, 16 levels):
#   _STAGE_NODES   as1d depth, run_s, RSS      pr1d depth, run_s, RSS
#              1    1  1.90 s       59.2 MB
#            500    7  0.56-0.60 s  59.5-60.0   10  0.54 s       59.2-59.3
#            600    8  0.54 s       59.6-59.7   12  0.50-0.51 s  59.8-59.9
#            800   11  0.50-0.53 s  59.8-60.0   16  0.47 s       59.9
# At 500 the 1D runs are about 3x faster than at depth 1 and their peak
# RSS stays within 2 % of it; 2D runs sweep by sweep (1,452 nodes per
# application).
_STAGE_NODES = 500


@dataclass(frozen=True)
class ResolventConfig:
    s: float

    def __post_init__(self):
        if not self.s > 0.0:
            raise ConfigurationError("resolvent parameter s must be positive")


@dataclass(frozen=True)
class NewtonResult:
    values: np.ndarray
    iterations: int  # Newton passes; the most any block needed
    residual_norm: float  # largest final residual norm over the blocks


def _level_residual(ctx, bundle, s, k, u, u_prev, rhs, loads):
    r = s * bundle.m * u + bundle.cap * (u - u_prev) / ctx.grid.dt
    r += apply_A(ctx, bundle, k, u, check=False) - rhs + loads
    return r


def _element_matrices(ctx, bundle, t, u, eps):
    """Element stiffness+reaction blocks (n_el, n_loc, n_loc)."""
    model = ctx.model
    uq, zq = quad_values(bundle, u)
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


@functools.lru_cache(maxsize=64)
def _block_sum(offsets):
    """A function that sums a nodal array over each block.

    Each block is summed as a sum over its own slice would sum it: blocks of
    one size are gathered into the rows of one array and summed along them.
    A segmented np.add.reduceat adds in a different order.  Cached, since
    stages repeat their stack: on as1d_shifted_q3, building the index rows
    afresh for each of a run's 352 Newton solves took 11 ms of 0.4 s.
    """
    if len(offsets) == 2:
        return lambda w: w.sum(keepdims=True)
    offsets = np.asarray(offsets)
    sizes = np.diff(offsets)
    rows = []
    for n in np.unique(sizes):
        ids = np.flatnonzero(sizes == n)
        rows.append((ids, offsets[ids][:, None] + np.arange(n)))

    def block_sum(w):
        out = np.empty(len(sizes))
        for ids, idx in rows:
            out[ids] = w[idx].sum(axis=1)
        return out

    return block_sum


def newton_level_solve(ctx, ell, s, k, u_prev, rhs, u0=None):
    """Damped Newton on one time level; returns a NewtonResult.

    Each pass makes one linear solve and then halves the step, up to
    _MAX_HALVINGS times, until the residual norm drops.  A trial whose
    residual is not finite counts as not lower.  If no halved step lowers
    it, the solve raises SolverError at once.

    ell is None, a subdomain index or a stack (see `stack_bundles`); on a
    stack k is one level for all blocks or holds one level per block.  Each
    block has its own residual norm, tolerance and step halving.  A block
    that has converged, or has accepted a trial step of the current pass,
    is frozen by zeroing its slice of the Newton direction; a converged
    block stays frozen, so every block still iterating has taken every
    pass.  A SolverError names the first failing block in its message and
    by its index, `block`.
    """
    bundle = ctx.bundle(ell)
    blocks = bundle.blocks
    t = level_times(ctx, bundle, k)
    loads = level_loads(bundle, k)
    dt = ctx.grid.dt
    eps = _EPSILON_REG
    shift = ctx.reaction_shift
    diag_extra = s * bundle.m + bundle.cap / dt + shift * bundle.cap
    block_of_node = bundle.block_of_node
    block_sum = _block_sum(bundle.offsets)

    def where(b):
        name = blocks[b].name
        return "" if name is None else f" on subdomain {name}"

    def level(b):
        return np.broadcast_to(k, len(blocks))[b]

    def residual(u):
        # the residual and, per block, the H-norm of the mass-divided
        # residual, sqrt(sum r_i^2 / m_i); a huge trial overflows to inf or
        # nan, which the line search rejects
        with np.errstate(over="ignore", invalid="ignore"):
            r = _level_residual(ctx, bundle, s, k, u, u_prev, rhs, loads)
            return r, np.sqrt(block_sum(r * r / bundle.m))

    def first(mask):
        return int(np.flatnonzero(mask)[0])

    u = np.array(u_prev if u0 is None else u0, dtype=float)
    r, rn = residual(u)
    bad = ~np.isfinite(rn)
    if np.count_nonzero(bad):
        b = first(bad)
        raise SolverError(f"non-finite residual at Newton start{where(b)}",
                          worst_residual=float(rn[b]), block=b)
    tol = np.maximum(_ABS_TOL, _REL_TOL * rn)
    # every accepted step lowers its block's residual, so the worst residual
    # a block reaches is its starting one
    rn0 = rn.copy()
    passes = 0
    while True:
        active = rn > tol
        n_active = np.count_nonzero(active)
        if not n_active:
            break
        if passes >= _MAX_ITERS:
            b = first(active)
            raise SolverError(
                f"Newton did not converge at level {level(b)}{where(b)}: "
                f"residual {rn[b]:.3e} after {passes} iterations "
                f"(tolerance {tol[b]:.3e})",
                worst_residual=float(rn0[b]), block=b,
            )
        ke = _element_matrices(ctx, bundle, t, u, eps)
        du = _solve_linear(bundle, ke, diag_extra, -r)
        if n_active < len(blocks):
            du[~active[block_of_node]] = 0.0
        pending = active
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            u_try = u + step * du
            r_try, rn_try = residual(u_try)
            # a pending block is above its tolerance, so reaching the
            # tolerance lowers its residual too; nan and inf never do
            accepted = pending & (rn_try < rn)
            nodes = accepted[block_of_node]
            np.copyto(u, u_try, where=nodes)
            np.copyto(r, r_try, where=nodes)
            np.copyto(rn, rn_try, where=accepted)
            pending = pending ^ accepted
            if not np.count_nonzero(pending):
                break
            np.copyto(du, 0.0, where=nodes)
            step *= 0.5
        else:
            b = first(pending)
            raise SolverError(
                f"Newton line search failed at level {level(b)}{where(b)}: "
                f"residual {rn[b]:.3e} after {passes} iterations",
                worst_residual=float(rn0[b]), block=b,
            )
        passes += 1
    return NewtonResult(values=u, iterations=passes,
                        residual_norm=float(rn.max()))


class Sweep:
    """One sweep of a chain, whose outputs the engine fills level by level.

    Phase p of the sweep applies the resolvents of the subdomains phases[p]
    to one input field and gives out[p], one output field per subdomain.  A
    subclass defines level_input(p, k), level k of that input, and keeps
    whatever of it it reads later.  It may read level k of this sweep's
    earlier phases and of `prev`, the sweep before (None for the first);
    the engine drops `prev` once the sweep's inputs are all built.  The
    output fields, of shape (n_steps, n_nodes), are allocated when their
    phase starts and filled level by level.
    """

    prev = None
    out = None

    def level_input(self, phase, k):
        raise NotImplementedError


class _FieldSweep(Sweep):
    """A given input field, for a single resolvent application."""

    def __init__(self, field):
        self.field = field

    def level_input(self, phase, k):
        return self.field[k]


def _stacker():
    """A function that stacks the bundles `parts` of a stage.

    A stage with the same blocks as the one before reuses its stack: on
    as1d_shifted_q3 a run builds 13 stacks in 1.5 ms instead of 320 in 39 ms.
    """
    last = [None, None]

    def stack(parts):
        if len(parts) == 1:
            return parts[0]
        key = tuple(b.name for b in parts)
        if key != last[0]:
            last[:] = key, stack_bundles(parts)
        return last[1]

    return stack


def _solve_stage(ctx, phase_parts, stack, s, units):
    """Solve the units' level systems in one stacked Newton.

    phase_parts[p] holds the bundles of phase p, and a unit is (application,
    sweep, phase, level, input level).  Writes each unit's output level and
    returns None, or returns (application, SolverError) for the unit that
    failed.
    """
    parts, ks, unit_of_block, prev, outs = [], [], [], [], []
    for i, (_, sweep, p, k, _) in enumerate(units):
        n = len(phase_parts[p])
        parts += phase_parts[p]
        ks += [k] * n
        unit_of_block += [i] * n
        if k:
            prev += [out[k - 1] for out in sweep.out[p]]
        else:
            prev += [np.zeros(ctx.mesh.n_nodes)] * n
        outs += sweep.out[p]
    bundle = stack(tuple(parts))
    # the inputs and previous levels as global rows, one per block, read at
    # each stacked node's global id
    at = (bundle.block_of_node, bundle.nodes)
    inputs = np.array([unit[4] for unit in units])[unit_of_block]
    try:
        res = newton_level_solve(
            ctx, bundle, s, ks[0] if len(set(ks)) == 1 else ks,
            np.array(prev)[at], bundle.m * inputs[at])
    except SolverError as err:
        if err.block is not None or len(units) == 1:
            return units[unit_of_block[err.block or 0]][0], err
        # a failure no block owns (a singular stacked solve): solve the units
        # alone to find the one it belongs to
        for unit in units:
            found = _solve_stage(ctx, phase_parts, stack, s, [unit])
            if found is not None:
                return found
        return None
    rows = inputs / s
    rows[at] = res.values
    for out, k, row in zip(outs, ks, rows):
        out[k] = row
    return None


def _wavefront(ctx, phases, sweeps, s):
    """Run the chain of sweeps as a wavefront; yield each completed sweep.

    Application a = n*P + p is phase p of sweep n.  It starts one stage or
    more after application a - 1 and then solves one level per stage, so
    the levels it reads are done.  At most as many applications run at once
    as fit in one stack of _STAGE_NODES nodes, and the next one starts when
    there is room, so each stage is one stacked Newton.  When application a
    fails, the applications after it are dropped, the ones before it go on,
    and its error is raised once they are done.
    """
    n_steps = ctx.grid.n_steps
    n_phases = len(phases)
    phase_parts = [tuple(ctx.bundle(ell) for ell in ells) for ells in phases]
    depth = max(1, _STAGE_NODES // max(sum(b.n_nodes for b in parts)
                                       for parts in phase_parts))
    sweeps = iter(sweeps)
    stack = _stacker()
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
                    sweep.out = [None] * n_phases
                    sweep.prev, prev = prev, sweep
            if sweep is not None:
                sweep.out[p] = [np.empty((n_steps, ctx.mesh.n_nodes))
                                for _ in phase_parts[p]]
                running.append([a, sweep, p, 0])
                a += 1
        if not running:
            break
        units = []
        for app, sweep_k, p, k in running:
            g_k = sweep_k.level_input(p, k)
            if k == n_steps - 1 and p == n_phases - 1:
                sweep_k.prev = None
            units.append((app, sweep_k, p, k, g_k))
        # by phase, so that a stage holds the same stack as the one before
        # whenever it runs as many applications of each phase
        units.sort(key=lambda unit: unit[2])
        while units:
            found = _solve_stage(ctx, phase_parts, stack, s, units)
            if found is None:
                break
            # the applications after the failed one depend on it
            failed, error = found
            units = [unit for unit in units if unit[0] < failed]
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

    ell is a subdomain index, or tuple(range(q)) to apply all q resolvents
    to g in one solve; the q fields are then returned as a list in
    subdomain order.

    For a chain, ell holds one tuple of subdomains per phase and g is an
    iterable of Sweep records; the call returns a generator that yields the
    sweeps as they complete, in order.  A Newton failure in sweep m is
    raised only when the generator reaches sweep m, with the message a
    sweep-by-sweep run gives.  Closing the generator drops the sweeps still
    in flight.
    """
    if isinstance(ell, tuple) and ell and isinstance(ell[0], tuple):
        return _wavefront(ctx, ell, g, cfg.s)
    g = np.asarray(g, dtype=float)
    if g.shape != (ctx.grid.n_steps, ctx.mesh.n_nodes):
        raise ValueError(
            f"field shape {g.shape} does not match grid/mesh "
            f"({ctx.grid.n_steps}, {ctx.mesh.n_nodes})"
        )
    if not np.all(np.isfinite(g)):
        raise ValueError("resolvent input contains non-finite values")
    if isinstance(ell, tuple):
        q = 0 if ctx.dec is None else ctx.dec.q
        if ell != tuple(range(q)):
            raise ConfigurationError(
                f"a batched solve takes every subdomain in order, "
                f"{tuple(range(q))}, not {ell}"
            )
        phase = ell
    else:
        phase = (ell,)
    sweep = next(_wavefront(ctx, (phase,), [_FieldSweep(g)], cfg.s))
    return sweep.out[0] if isinstance(ell, tuple) else sweep.out[0][0]
