"""What the convergence theory orders, over randomized small 1D problems.

The schemes rest on nonexpansive resolvents (criterion 02).  From that:
- PR and DR are nonexpansive maps of v = (sI + F2)u2, whose fixed point is
  v* = s*u_h + F2*u_h, so ||v^n - v*||_H never rises, and neither does
  ||w^n - w*||_H with w = (sI - F2)u2 (the trace's pr_v_norm and pr_w_norm);
- the additive map u -> mean_ell R_ell(s*u) is nonexpansive in H, so its
  increments ||u^n - u^{n-1}||_H never rise.  AS_shifted is the additive map
  of the shifted context; its increments are taken in the variables the run
  reports.

The sweeps solve every warm-started block inexactly, to
_WARM_REL_TOL times its residual at the warm start (see resolvent.py), and
these tests are that rule's guard: a rise beyond _SLACK of the value before
it fails.  Values below _FLOOR of the first are not compared, since there
the exact Newton tolerance and rounding decide, with or without the rule.
With _WARM_REL_TOL near 1 these checks fail on PR.

No draw comes from the corner where the Newton line search fails (ROADMAP
item 4: p >= 4, lambda = 0 and gamma = 0 on a strip).  The draws keep
p < 4, lambda = 1 whenever gamma vanishes on a strip, and random starts of
size at most 1: with the manufactured source the reference also fails at
p = 3.13 with lambda = 0 on a strip, and a first sweep fails from a start
of size 4 at p = 5.7 even with lambda = 1.  AS_shifted needs gamma > 0 and
runs only on the draws without a strip.

The last three tests draw problems with gamma = 1 and check that the
wavefront's stacking depth, from one application per stage to every
application under way in one stack, leaves every output bit for bit: of
all four schemes, of chains whose phases hold different stacks, which no
scheme runs, and of chains of three such phases.  At any depth beyond one,
every chain builds one stack of its phases in application order, and each
stage of several applications is a block range of it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stsplit.iteration
import stsplit.operators
import stsplit.resolvent
from conftest import make_problem
from stsplit import (
    ConfigurationError,
    ResolventConfig,
    SchemeConfig,
    constant_gamma,
    h_norm,
    indicator_gamma,
    resolvent_solve,
    run_scheme,
    solve_monolithic,
)
from stsplit.resolvent import Sweep

_SWEEPS = 25
_SLACK = 1e-6
_FLOOR = 1e-8


@st.composite
def problems(draw):
    strip = draw(st.booleans())
    if strip:
        lo = draw(st.floats(0.0, 0.6))
        gamma = indicator_gamma(lo, lo + draw(st.floats(0.2, 0.4)))
    else:
        gamma = constant_gamma(1.0)
    return dict(
        cells=draw(st.integers(8, 20)), n_steps=draw(st.integers(2, 4)),
        p=draw(st.floats(2.0, 3.99)), gamma=gamma, strip=strip,
        lam=1.0 if strip else draw(st.sampled_from([0.0, 1.0])),
        q=draw(st.integers(2, 3)), overlap=draw(st.floats(0.2, 1.0)),
        s=draw(st.floats(0.5, 10.0)), scale=draw(st.floats(0.1, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _context(case, q):
    try:
        return make_problem(cells=case["cells"], n_steps=case["n_steps"],
                            p=case["p"], lam=case["lam"], gamma=case["gamma"],
                            q=q, overlap=case["overlap"], source="cos")
    except ConfigurationError:
        assume(False)


def _never_rises(seq):
    seq = np.asarray(seq)
    assert seq[0] > 0.0
    for n, (before, after) in enumerate(zip(seq, seq[1:])):
        if before > _FLOOR * seq[0]:
            assert after <= (1.0 + _SLACK) * before, (n, before, after)


def _additive_increments(ctx, cfg, start):
    """||u^n - u^{n-1}||_H of every sweep, u^0 being the start."""
    chain = stsplit.iteration.resolvent_solve
    iterates = [start]

    def recording(*args):
        for sweep in chain(*args):
            iterates.append(sweep.iterate()[0])
            yield sweep

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stsplit.iteration, "resolvent_solve", recording)
        run_scheme(ctx, cfg, initial=start)
    assert len(iterates) == cfg.max_sweeps + 1
    return [h_norm(ctx, b - a) for a, b in zip(iterates, iterates[1:])]


@settings(max_examples=20, deadline=None)
@given(problems())
def test_monitored_sequences_never_rise(case):
    assert stsplit.resolvent._WARM_REL_TOL > 0.0  # the inexact rule is on
    mesh, grid, _, _, ctx = _context(case, 2)
    *_, ctx_additive = _context(case, case["q"])
    rng = np.random.default_rng(case["seed"])
    start = case["scale"] * rng.standard_normal((grid.n_steps, mesh.n_nodes))
    u_h = solve_monolithic(ctx)
    for scheme in ("PR", "DR"):
        cfg = SchemeConfig(scheme=scheme, s=case["s"], max_sweeps=_SWEEPS,
                           stop_tol=0.0)
        trace = run_scheme(ctx, cfg, u_ref=u_h, initial=start).trace
        _never_rises(trace.v_sequence())
        _never_rises(trace.w_sequence())

    for scheme in ("AS",) if case["strip"] else ("AS", "AS_shifted"):
        cfg = SchemeConfig(scheme=scheme, s=case["s"], max_sweeps=_SWEEPS,
                           stop_tol=0.0)
        _never_rises(_additive_increments(ctx_additive, cfg, start))


@st.composite
def stacked_runs(draw):
    return dict(
        cells=draw(st.integers(8, 20)), n_steps=draw(st.integers(2, 8)),
        p=draw(st.floats(2.0, 3.5)), q=draw(st.integers(2, 3)),
        overlap=draw(st.floats(0.2, 1.0)), s=draw(st.floats(0.5, 10.0)),
        sweeps=draw(st.integers(1, 5)),
        stop_tol=draw(st.sampled_from([0.0, 1e-4])),
    )


_TRACE_COLUMNS = ("sweep", "err_H", "err_k_total", "err_k", "pr_v_norm",
                  "pr_w_norm", "v0_norm", "w0_norm")


@settings(max_examples=10, deadline=None)
@given(stacked_runs())
def test_stacking_depth_leaves_every_output_unchanged(case):
    # one application per stage, the default depth, and every application
    # under way in one stack
    depths = (1, stsplit.resolvent._STAGE_NODES, 10**6)
    for scheme in ("PR", "DR", "AS", "AS_shifted"):
        q = 2 if scheme in ("PR", "DR") else case["q"]
        *_, ctx = _context(dict(case, gamma=constant_gamma(1.0), lam=1.0), q)
        u_h = solve_monolithic(ctx)
        cfg = SchemeConfig(scheme=scheme, s=case["s"],
                           max_sweeps=case["sweeps"], stop_tol=case["stop_tol"])
        runs = []
        for depth in depths:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(stsplit.resolvent, "_STAGE_NODES", depth)
                runs.append(run_scheme(ctx, cfg, u_ref=u_h))
        first = runs[0]
        for run in runs[1:]:
            assert (run.sweeps, run.converged) == (first.sweeps, first.converged)
            assert np.array_equal(run.u, first.u)
            assert len(run.subdomain_fields) == len(first.subdomain_fields)
            for a, b in zip(run.subdomain_fields, first.subdomain_fields):
                assert np.array_equal(a, b)
            for name in _TRACE_COLUMNS:
                assert getattr(run.trace, name) == getattr(first.trace, name)


class _MeanSweep(Sweep):
    """Each phase applies its resolvents to s times a mean: phase 0 to that
    of the sweep before's last outputs (the start field in the first sweep),
    a later phase to that of the phase before.  Keeps its inputs."""

    def __init__(self, s, start, n_phases):
        self.s = s
        self.start = start
        self.inputs = [[] for _ in range(n_phases)]

    def level_input(self, phase, k):
        if phase:
            fields = self.out[phase - 1][:, k]
        elif self.prev is None:
            fields = self.start[None, k]
        else:
            fields = self.prev.out[-1][:, k]
        g = self.s * np.add.reduce(fields / len(fields), axis=0)
        self.inputs[phase].append(g)
        return g


@settings(max_examples=10, deadline=None)
@given(stacked_runs(), st.sampled_from([((0, 1), (1,)), ((0, 1, 2), (2, 0)),
                                        ((2,), (0, 1), (1,), (0,))]))
def test_stacking_depth_leaves_chains_of_mixed_phases_unchanged(case, chain):
    q = 1 + max(sum(chain, ()))
    *_, ctx = _context(dict(case, gamma=constant_gamma(1.0), lam=1.0), q)
    start = np.random.default_rng(case["n_steps"]).standard_normal(
        (ctx.grid.n_steps, ctx.mesh.n_nodes))
    cfg = ResolventConfig(s=case["s"])
    runs = []
    for depth in (1, stsplit.resolvent._STAGE_NODES, 10**6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stsplit.resolvent, "_STAGE_NODES", depth)
            sweeps = [_MeanSweep(case["s"], start, len(chain))
                      for _ in range(case["sweeps"])]
            assert list(resolvent_solve(ctx, chain, sweeps, cfg)) == sweeps
        runs.append(sweeps)
    for run in runs[1:]:
        for a, b in zip(run, runs[0]):
            for p in range(len(chain)):
                assert np.array_equal(a.out[p], b.out[p])
    # the first sweep starts no block warm: each output is its resolvent
    # applied alone to the phase's input
    first = runs[0][0]
    for p, phase in enumerate(chain):
        g = np.array(first.inputs[p])
        for out, ell in zip(first.out[p], phase):
            assert np.array_equal(out, resolvent_solve(ctx, ell, g, cfg))


@settings(max_examples=10, deadline=None)
@given(stacked_runs(), st.data())
def test_chains_of_three_stacked_phases_build_one_chain_stack(case, data):
    # three phases of two or three subdomains each: at every depth the
    # chain builds one stack, of its phases cycled in application order,
    # and the outputs are those of any other depth
    q = data.draw(st.integers(3, 4))
    phase = st.lists(st.integers(0, q - 1), min_size=2, max_size=3,
                     unique=True).map(tuple)
    chain = tuple(data.draw(phase) for _ in range(3))
    *_, ctx = _context(dict(case, gamma=constant_gamma(1.0), lam=1.0), q)
    start = np.random.default_rng(case["n_steps"]).standard_normal(
        (ctx.grid.n_steps, ctx.mesh.n_nodes))
    cfg = ResolventConfig(s=case["s"])
    build = stsplit.operators._stack_bundles
    runs = []
    for depth in (1, stsplit.resolvent._STAGE_NODES, 10**6):
        builds = []

        def counted(parts, builds=builds):
            builds.append(tuple(b.name for b in parts))
            return build(parts)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stsplit.resolvent, "_STAGE_NODES", depth)
            patch.setattr(stsplit.operators, "_stack_bundles", counted)
            sweeps = [_MeanSweep(case["s"], start, len(chain))
                      for _ in range(case["sweeps"])]
            assert list(resolvent_solve(ctx, chain, sweeps, cfg)) == sweeps
        # one stack of 3*most + 1 entries, entry i holding phase i mod 3,
        # where a stage holds at most `most` applications of one phase (a
        # chain's number of sweeps is not known to the engine, so it does
        # not bound most); every application is a range of several blocks,
        # so depth 1 builds it too, and no phase has a stack of its own
        apps = min(max(1, depth // max(ctx.bundle(phase).n_nodes
                                       for phase in chain)), case["n_steps"])
        most = -(-apps // 3)
        assert builds == [sum((chain[i % 3] for i in range(3 * most + 1)), ())]
        runs.append(sweeps)
    for run in runs[1:]:
        for a, b in zip(run, runs[0]):
            for p in range(len(chain)):
                assert np.array_equal(a.out[p], b.out[p])
    first = runs[0][0]
    for p, phase in enumerate(chain):
        g = np.array(first.inputs[p])
        for out, ell in zip(first.out[p], phase):
            assert np.array_equal(out, resolvent_solve(ctx, ell, g, cfg))
