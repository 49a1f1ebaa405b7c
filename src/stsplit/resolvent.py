"""Subdomain resolvents (sI + F_ell)^{-1}, applied as a wavefront along time.

Each time level solves the nodal system (dual representation)

    s*m.u + cap*(u - growth*u_prev)/dt + A_ell(t_k)u + load_k = rhs

with growth = ctx.step_growth: e^{q dt} under an exponential shift q, whose
q*cap*u term A_ell carries (see OperatorContext), and 1.0 without one.  It
is solved with an exact residual and an epsilon-regularized Jacobian,
globalized only by step halving: a Newton step that no halving makes
lower the residual raises SolverError.  Strips are cut along the first
mesh axis, so every level system is banded and each Newton step ends in
one banded direct solve, in one band storage per level solve that every
pass refills in place.  Off the subdomain the resolvent acts as
division by s, so the returned global field is
u = extend(u_ell) + (g - extend(restrict(g)))/s.

Every resolvent is causal in time: level k of its output needs only levels
<= k of its input.  So is every sweep of a splitting scheme, and level k of
sweep n+1 can be solved as soon as level k of sweep n is done.
`resolvent_solve` therefore runs a chain of sweeps, each applying P phases
of resolvents in turn, as a wavefront: application a = n*P + p (phase p of
sweep n) starts at least one stage after application a - 1 and solves one
level per stage.  All level systems of a stage are stacked into one
block-diagonal system and solved by one Newton in which every block keeps
its own bookkeeping, so every block's result is bit-identical to its own
solve.  A chain stacks its phases once, in application order, as many times
as a stage can hold them, and every stage solves on a block range of that
stack, built at the first range of more than one block, so a single
resolvent builds no stack.  Every stage reads and writes its levels through
one store of the outputs under way, in one gather and one scatter (see
_wavefront).  How many applications run at once is bounded by the nodes of
one stack (see _STAGE_NODES); where one application's level takes more, the
sweeps run one after the other.  A single resolvent application is a chain
of one sweep with one phase, and its stages are its time levels.

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
from functools import cache, lru_cache

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, SolverError, as_real
from .operators import (_check_field, _check_level, _element_matrices,
                        _levels, apply_A, level_loads, level_times,
                        quad_values)

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
# sweep-by-sweep order) where one level takes more, as in 2D (1,452 nodes
# per application).  There stacking saves little and costs memory: on
# 726-node blocks a pass cost 1.06 ms on one block and 0.86 ms per block at
# 8, and with earlier kernels the peak RSS rose from 63.7 MB at 2 blocks to
# 75.7 MB at 8.  In 1D a pass has a fixed cost that dominates (about 100 us
# on one 31-node subdomain, 250 us on a 1,136-node stack), but every
# application under way holds its global output fields (see Sweep), so the
# peak RSS grows with the depth.  perfbench run_s and peak_rss_mb, medians
# of 4 runs of 8 s taken round-robin over the depths (2 vCPU Xeon;
# as1d_shifted_q3: 71 nodes per application, 32 levels; pr1d_degenerate:
# 49 nodes, 16 levels, so at most 16 applications are ever under way):
#   _STAGE_NODES   as1d depth, run_s, RSS     pr1d depth, run_s, RSS
#            500    7  0.290 s  59.77 MB      10  0.370 s  59.26 MB
#            800   11  0.253 s  60.22 MB      16  0.306 s  59.75 MB
#           1136   16  0.235 s  60.81 MB      16  0.307 s  59.68 MB
#           2272   32  0.246 s  62.71 MB      16  0.306 s  59.65 MB
# 1136 is the fastest as1d depth; from 800 on pr1d runs the same program.
# Full as1d depth (2272) held 1.9 MB more and was no faster.
_STAGE_NODES = 1136


@dataclass(frozen=True)
class ResolventConfig:
    s: float

    def __post_init__(self):
        object.__setattr__(self, "s", as_real(self.s, "resolvent parameter s"))
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


def _solve_linear(bundle, ke, diag_extra, rhs, ab):
    """Solve (assembled ke + diag(diag_extra)) x = rhs as a banded system;
    ke holds the element matrices as `_element_matrices` builds them.

    ab is the caller's band storage, of shape (2*bw + 1, n_nodes), refilled
    here on every call, so whatever it held is ignored and LAPACK may
    overwrite it; rhs is left as it is.  A non-finite or singular system
    raises SolverError.
    """
    bw = bundle.bandwidth
    ab.fill(0.0)
    # each slot sums its entries in input order, from 0.0
    np.add.at(ab.reshape(-1), bundle.band_index, ke.ravel())
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
    per block; or it is the tables, which every residual passes to apply_A.
    Each block has its own residual norm, tolerance and step length: 1 on a
    block still iterating and 0 on a converged one, and only the blocks
    whose trials have not yet lowered their residual halve it.  Each trial
    is u + steps[block] * du, so the last trial of a pass holds every block
    at its accepted point and is taken whole.  A converged block stays where
    it is, so every block still iterating has taken every pass.  A
    SolverError names the first failing block and its level in its message.
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
    k = _levels(bundle, k, ctx.grid.n_steps)
    t = level_times(ctx, bundle, k)
    loads = level_loads(bundle, k)
    # the time difference reads the previous level grown by step_growth;
    # Newton still starts from u_prev itself
    grown = ctx.step_growth * u_prev
    dt = ctx.grid.dt
    sm = s * bundle.m
    diag_extra = sm + bundle.cap / dt + ctx.shift * bundle.cap
    block_of_node = bundle.block_of_node
    # one band for every pass, which refills it: a fresh one per pass would
    # fault its pages in anew
    ab = np.empty((2 * bundle.bandwidth + 1, bundle.n_nodes))

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
        r += apply_A(ctx, bundle, k, u, values=values) - rhs + loads
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
        uq, zq = values
        jf = ctx.model.flux_jacobian(bundle.qp, t, zq, _EPSILON_REG)
        rp = ctx.model.reaction_derivative(bundle.qp, t, uq, _EPSILON_REG)
        ke = _element_matrices(bundle, jf, rp)
        du = _solve_linear(bundle, ke, diag_extra, -r, ab)
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
    per subdomain (g/s off the subdomain), filled level by level: a view of
    the engine's store while the sweep is under way, and the sweep's own
    copy once it is complete.  A subclass defines level_input(p, k), level
    k of the phase's input, and keeps whatever of it it reads later.  It may
    read level k of this sweep's earlier phases and of `prev`, the sweep
    before (None for the first).  The engine starts each level's Newton
    from level k of prev's outputs at the same phase, and drops `prev` when
    the sweep is complete, before it yields the sweep.
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


class _Stage:
    """A stage's tables, and the parts of its store indices (see
    _wavefront) that its units' rows and levels leave as they are.

    Its units run the chain entries `entries` in turn, and `tables` holds
    their blocks side by side.  One unit's values broadcast: spreading them
    cost a single resolvent about 20 of 370 us with Newton stubbed.
    """

    def __init__(self, tables, entries, n_levels, n_nodes):
        self.tables = tables
        self.n_units = len(entries)
        counts = [len(entry) for entry in entries]
        # per block: its unit, and its row from its unit's first, in levels
        self.owner = np.repeat(np.arange(self.n_units), counts)
        self.rows = np.concatenate([np.arange(n) for n in counts]) * n_levels
        # per node: its unit, its entry from its unit's first row at the
        # unit's level, and its entry in the units' inputs, one row each
        bon = tables.block_of_node
        self.unit_of_node = self.owner[bon]
        self.within = self.rows[bon] * n_nodes + tables.nodes
        self.inputs = self.unit_of_node * n_nodes + tables.nodes

    def per_node(self, values):
        """Each unit's value on each of its nodes (one unit's broadcasts)."""
        if self.n_units == 1:
            return np.asarray(values)
        return np.asarray(values)[self.unit_of_node]

    def per_block(self, values):
        """Each unit's value on each of its blocks (one unit's broadcasts)."""
        if self.n_units == 1:
            return np.asarray(values)
        return np.asarray(values)[self.owner]


def _solve_stage(ctx, stage_of, lo, s, units, store):
    """Solve the units' level systems in one Newton on the tables of
    stage_of(lo, len(units)) (see _wavefront).

    A unit is (application, phase, level k, input level, row, warm row):
    the store rows of its application's outputs start at `row` and those
    of the application before at the same phase at `warm row`, None in a
    first sweep (see _wavefront).  An input level of a shape other than
    (n_nodes,) raises ConfigurationError.  The stage reads its previous
    levels, warm starts and inputs in one gather each and writes its
    outputs in one scatter, at the indices of its _Stage shifted by its
    units' rows and levels.  A warm block starts from its warm start and is
    solved inexactly (see `newton_level_solve`'s warm); a block of a first
    sweep starts from its previous level and keeps the exact tolerance,
    which gives the bits of no start at all, and a stage with no warm start
    passes none.  The right-hand side is m * g[nodes], and each output
    level is g/s with the tables' nodes overwritten by their values.
    Returns None.  If the stacked Newton raises SolverError, a stage of one
    unit returns (application, error), and one of more solves its units one
    by one in application order, phase p's on stage_of(p, 1), and returns
    what the first that fails returns, with the units before it done.
    """
    n_levels, n_nodes = store.shape[1:]
    stage = stage_of(lo, len(units))
    # per unit: level k of its first output row and its start, as flat
    # (row, level) indices of the store, its level and its warm flag
    heads, starts, ks, warm = [], [], [], []
    for _, p, k, g, row, warm_row in units:
        if np.asarray(g).shape != (n_nodes,):
            raise ConfigurationError(f"level {k} of phase {p}'s input has "
                                     f"shape {np.shape(g)}, not ({n_nodes},)")
        heads.append(row * n_levels + k + 1)
        starts.append(heads[-1] - 1 if warm_row is None
                      else warm_row * n_levels + k + 1)
        ks.append(k)
        warm.append(warm_row is not None)
    heads = np.array(heads)
    out_at = stage.per_node(heads * n_nodes) + stage.within
    flat = store.reshape(-1)
    u0 = flags = None
    if any(warm):
        u0 = flat[stage.per_node(np.array(starts) * n_nodes) + stage.within]
        flags = np.array(warm)[stage.owner]
    g = np.array([unit[3] for unit in units])
    try:
        res = newton_level_solve(
            ctx, stage.tables, s,
            ks[0] if ks.count(ks[0]) == len(ks) else stage.per_block(ks),
            flat[out_at - n_nodes], stage.tables.m * g.reshape(-1)[stage.inputs],
            u0=u0, warm=flags)
    except SolverError as err:
        if len(units) == 1:
            return units[0][0], err
        for unit in sorted(units, key=lambda unit: unit[0]):
            found = _solve_stage(ctx, stage_of, unit[1], s, [unit], store)
            if found is not None:
                return found
        return None
    store.reshape(-1, n_nodes)[stage.per_block(heads) + stage.rows] = (
        stage.per_block(g / s))
    flat[out_at] = res.values
    return None


def _wavefront(ctx, phases, depth, sweeps, s, n_sweeps=math.inf):
    """Run the chain of sweeps as a wavefront; yield each completed sweep.

    Application a = n*P + p is phase p of sweep n.  It starts one stage or
    more after application a - 1 and then solves one level per stage, so
    the levels it reads are done, and so is its warm start: level k of
    application a - P.  At most `depth` applications run at once, as many
    as fit in one stack of _STAGE_NODES nodes, and the next one starts when
    there is room, so each stage is one stacked Newton.  When application a
    fails (the first of its stage to fail on its own, see `_solve_stage`),
    the applications after it are dropped, the ones before it go on, and
    its error is raised once they are done.

    A stage holds consecutive applications, at most min(depth, n_steps) of
    them and at most n_sweeps*P (n_sweeps is the number of sweeps where the
    caller knows it), so at most `most` of one phase.  The chain's stack
    holds its phases in application order, entry i holding phases[i % P],
    and stage_of(lo, n) gives every stage, fallback included, the _Stage
    of entries lo to lo + n - 1, a block range of the stack (see
    `_AssemblyBundle.block_range`) built at the first range of more than
    one block.  A stage of n applications whose first runs phase p0 starts
    at entry p0, or at entry 0 when n is a whole number of cycles, its
    units rotated so that phase 0 comes first: else pr1d_degenerate's
    stages would alternate their first entry and build 213 ranges a round,
    not 28.  So the stack has P*most entries and, for a stage of
    P*most - 1 applications from entry P - 1, max(P - 2, 0) more.

    The outputs of phase p's applications take turns in `most` + 1 slots
    of one store, each of one row per subdomain, with a zero level -1
    before the n_steps levels of each row: the applications under way and
    the one before them, whose levels are the warm starts.  So an
    application's rows and level give every index of its units (see
    `_solve_stage`).  A sweep's out views its slots while it is under way
    and is copied out when it is complete, before a later application can
    use them again.
    """
    n_steps, n_nodes = ctx.grid.n_steps, ctx.mesh.n_nodes
    n_phases, n_levels = len(phases), n_steps + 1
    # the most applications of one phase that a stage holds
    most = -(-min(depth, n_steps, n_phases * n_sweeps) // n_phases)
    first_rows = np.cumsum(
        [0] + [(most + 1) * len(phase) for phase in phases]).tolist()
    store = np.empty((first_rows[-1], n_levels, n_nodes))
    store[:, 0] = 0.0
    entries = [phases[i % n_phases]
               for i in range(n_phases * most + max(n_phases - 2, 0))]
    chain = cache(lambda: ctx.bundle(sum(entries, ())))  # built at first use

    @lru_cache(maxsize=1)
    def stage_of(lo, n):
        b0, b1 = (sum(map(len, entries[:i])) for i in (lo, lo + n))
        tables = (ctx.bundle(entries[lo]) if b1 - b0 == 1
                  else chain().block_range(b0, b1))
        return _Stage(tables, entries[lo:lo + n], n_levels, n_nodes)

    started = [0] * n_phases  # the applications of each phase started
    sweeps = iter(sweeps)
    running = []  # [application, sweep, phase, level, row, warm row]
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
                n, size = started[p], len(phases[p])
                started[p] += 1
                row = first_rows[p] + n % (most + 1) * size
                warm_row = (None if n == 0 else
                            first_rows[p] + (n - 1) % (most + 1) * size)
                sweep.out[p] = store[row:row + size, 1:]
                running.append([a, sweep, p, 0, row, warm_row])
                a += 1
        if not running:
            break
        units = [(app, p, k, sweep_k.level_input(p, k), row, warm_row)
                 for app, sweep_k, p, k, row, warm_row in running]
        n, p0 = len(units), units[0][1]
        lo = p0 if n % n_phases else 0
        units = units[lo - p0:] + units[:lo - p0]
        found = _solve_stage(ctx, stage_of, lo, s, units, store)
        if found is not None:
            # the applications after the failed one depend on it
            failed, error = found
            running = [run for run in running if run[0] < failed]
        for run in running:
            run[3] += 1
        while running and running[0][3] == n_steps:
            _, done, p, *_ = running.pop(0)
            if p == n_phases - 1:
                done.prev = None
                done.out = [out.copy() for out in done.out]
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

    A chain has one phase or more, each a non-empty tuple of subdomains.
    Every subdomain's own bundle is looked up at the call, which checks its
    name, and sizes the depth.  Other chains and names raise
    ConfigurationError.
    """
    chain = ell if isinstance(ell, tuple) else ((ell,),)
    if not chain or not all(isinstance(phase, tuple) and phase
                            for phase in chain):
        raise ConfigurationError(f"a chain names one non-empty tuple of "
                                 f"subdomains per phase, not {ell!r}")
    depth = max(1, _STAGE_NODES // max(
        sum(ctx.bundle((i,)).n_nodes for i in phase) for phase in chain))
    if chain is ell:
        return _wavefront(ctx, chain, depth, g, cfg.s)
    sweeps = [_FieldSweep(_check_field(ctx, g, None))]
    return next(_wavefront(ctx, chain, depth, sweeps, cfg.s, 1)).out[0][0]
