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

The last test draws problems with gamma = 1 and checks that the wavefront's
stacking depth, from one application per stage to every application under
way in one stack, leaves every output of all four schemes bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stsplit.iteration
import stsplit.resolvent
from conftest import make_problem
from stsplit import (
    ConfigurationError,
    SchemeConfig,
    constant_gamma,
    h_norm,
    indicator_gamma,
    run_scheme,
    solve_monolithic,
)

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
