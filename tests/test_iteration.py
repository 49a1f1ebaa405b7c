from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import stsplit.iteration
import stsplit.resolvent
from conftest import make_problem, one_sweep, random_field
from stsplit import (
    ConfigurationError,
    ResolventConfig,
    SchemeConfig,
    SolverError,
    SourceTerm,
    apply_A,
    build_context,
    build_decomposition,
    build_mesh,
    h_norm,
    indicator_gamma,
    primal_F,
    resolvent_solve,
    run_scheme,
    solve_monolithic,
)
from stsplit.resolvent import NewtonResult


def test_scheme_config_validation():
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme="PRX")
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme="PR", max_sweeps=0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme="PR", s=0.0)
    for bad in ({"s": float("nan")}, {"s": float("inf")},
                {"stop_tol": float("nan")}, {"stop_tol": -1e-10},
                # 1/s overflows
                {"s": 2.225073858507203e-309},
                # not real numbers
                {"s": "2"}, {"s": True}, {"stop_tol": "1e-3"},
                {"stop_tol": True}):
        with pytest.raises(ConfigurationError):
            SchemeConfig(scheme="PR", **bad)
    for max_sweeps in (2.5, float("nan"), float("inf"), True, "10", b"10"):
        with pytest.raises(ConfigurationError, match="max_sweeps must be an integer"):
            SchemeConfig(scheme="AS", s=1.0, max_sweeps=max_sweeps)
    assert SchemeConfig(scheme="AS", s=1.0, max_sweeps=2.0).max_sweeps == 2
    SchemeConfig(scheme="PR", stop_tol=0.0)


def test_s_rule():
    # a given s is kept as a float, an omitted one is sqrt(max_sweeps)
    assert SchemeConfig(scheme="AS", s=4).s == 4.0
    assert type(SchemeConfig(scheme="AS", s=4).s) is float
    assert SchemeConfig(scheme="AS", max_sweeps=16).s == 4.0
    assert SchemeConfig(scheme="AS").s == 10.0


def test_alternating_schemes_need_two_subdomains():
    _, _, _, _, ctx = make_problem(cells=24, q=3)
    for scheme in ("PR", "DR"):
        with pytest.raises(ConfigurationError):
            run_scheme(ctx, SchemeConfig(scheme=scheme, s=1.0, max_sweeps=1))


def test_run_scheme_needs_decomposition():
    mesh, grid, model, _, _ = make_problem()
    ctx = build_context(mesh, model, grid)
    with pytest.raises(ConfigurationError):
        run_scheme(ctx, SchemeConfig(scheme="AS", s=1.0, max_sweeps=1))


def test_bad_initial_shape_rejected():
    _, _, _, _, ctx = make_problem()
    with pytest.raises(ConfigurationError):
        run_scheme(ctx, SchemeConfig(scheme="PR", s=1.0, max_sweeps=1),
                   initial=np.zeros((2, 3)))


@pytest.mark.parametrize("field", ["initial", "u_ref"])
def test_non_finite_initial_or_reference_rejected(field):
    _, grid, _, _, ctx = make_problem()
    bad = np.zeros((grid.n_steps, ctx.mesh.n_nodes))
    bad[0, 3] = np.nan
    with pytest.raises(ConfigurationError, match="non-finite"):
        run_scheme(ctx, SchemeConfig(scheme="AS", s=1.0, max_sweeps=1),
                   **{field: bad})


@pytest.mark.parametrize("scheme", ["PR", "DR", "AS", "AS_shifted"])
def test_zero_problem_has_zero_fixed_point(scheme):
    _, grid, _, _, ctx = make_problem(cells=12, n_steps=3, p=3.0)
    u_ref = np.zeros((grid.n_steps, ctx.mesh.n_nodes))
    result = run_scheme(ctx, SchemeConfig(scheme=scheme, s=1.0, max_sweeps=5),
                        u_ref=u_ref)
    assert result.converged
    assert np.all(result.u == 0.0)
    assert all(e == 0.0 for e in result.trace.err_H)


def test_trace_rows_match_sweeps_and_stopping():
    _, grid, _, _, ctx = make_problem(cells=16, n_steps=4, T=0.25, p=2.0,
                                      overlap=0.9, source="cos")
    # the H-norm tail is slow, so test the stopping mechanics at a tolerance
    # the sweep deltas actually reach quickly
    cfg = SchemeConfig(scheme="PR", s=1.0, max_sweeps=100, stop_tol=2e-2)
    result = run_scheme(ctx, cfg)
    assert result.converged
    assert result.sweeps < 100
    assert len(result.trace) == result.sweeps
    # without u_ref the monitor columns stay empty
    assert all(e is None for e in result.trace.err_H)
    assert all(v is None for v in result.trace.pr_v_norm)


@pytest.mark.parametrize("scheme", ["PR", "DR"])
def test_equilibrium_preserved(scheme):
    _, grid, _, _, ctx = make_problem(cells=16, n_steps=4, p=3.0, lam=1.0,
                                      source="cos")
    u_h = solve_monolithic(ctx)
    cfg = SchemeConfig(scheme=scheme, s=1.0, max_sweeps=3, stop_tol=0.0)
    result = run_scheme(ctx, cfg, u_ref=u_h, initial=u_h)
    assert max(result.trace.err_H) <= 1e-9


def test_pr_sandwich_and_monotone_decrease():
    _, grid, _, _, ctx = make_problem(cells=16, n_steps=4, p=3.0, lam=1.0,
                                      source="cos")
    u_h = solve_monolithic(ctx)
    cfg = SchemeConfig(scheme="PR", s=1.0, max_sweeps=30, stop_tol=0.0)
    result = run_scheme(ctx, cfg, u_ref=u_h)
    v = result.trace.v_sequence()
    w = result.trace.w_sequence()
    assert len(v) == len(result.trace) + 1  # sweep-zero norm included
    slack = 1e-10 * (1.0 + v[0] ** 2)
    for n in range(len(result.trace)):
        assert v[n + 1] ** 2 <= w[n] ** 2 + slack
        assert w[n] ** 2 <= v[n] ** 2 + slack


@pytest.mark.parametrize("scheme", ["PR", "DR", "AS", "AS_shifted"])
def test_result_reports_each_schemes_iterate(scheme):
    alternating = scheme in ("PR", "DR")
    _, _, _, _, ctx = make_problem(cells=24, n_steps=3, p=3.0, lam=1.0,
                                   q=2 if alternating else 3, overlap=0.6,
                                   source="cos")
    cfg = SchemeConfig(scheme=scheme, s=2.0, max_sweeps=3, stop_tol=0.0)
    result = run_scheme(ctx, cfg, u_ref=solve_monolithic(ctx))
    fields = result.subdomain_fields
    assert len(fields) == ctx.dec.q
    if alternating:
        # the alternating schemes report u2, the last subdomain solved
        assert np.array_equal(result.u, fields[1])
    else:
        mean = fields[0] / len(fields)
        for f in fields[1:]:
            mean = mean + f / len(fields)
        assert np.array_equal(result.u, mean)
    assert len(result.trace) == result.sweeps
    if alternating:
        assert all(v is not None for v in result.trace.pr_v_norm)
    else:
        assert all(v is None for v in result.trace.pr_v_norm)


def test_additive_average_uses_equal_weights(monkeypatch):
    _, grid, _, _, ctx = make_problem(cells=12, n_steps=3)
    shape = (grid.n_steps, ctx.mesh.n_nodes)

    def stub(ctx_, phases, chain, rcfg):
        for sweep in chain:
            sweep.out = [np.stack([np.full(shape, 2.0 * e) for e in ells])
                         for ells in phases]
            yield sweep

    monkeypatch.setattr(stsplit.iteration, "resolvent_solve", stub)
    result = run_scheme(ctx, SchemeConfig(scheme="AS", s=1.0, max_sweeps=1))
    np.testing.assert_allclose(result.u, 1.0)  # mean of 0 and 2


def test_additive_fanout_is_order_independent(monkeypatch):
    _, grid, _, _, ctx = make_problem(cells=24, n_steps=3, p=3.0, q=3,
                                      source="cos", lam=1.0)
    cfgs = [SchemeConfig(scheme=scheme, s=2.0, max_sweeps=4, stop_tol=0.0)
            for scheme in ("AS", "AS_shifted")]
    batched = [run_scheme(ctx, cfg) for cfg in cfgs]

    # the reference: every block of every stacked level solve solved alone
    newton = stsplit.resolvent.newton_level_solve

    def one_block_at_a_time(c, ell, s, k, u_prev, rhs, u0=None, warm=None):
        bundle = c.bundle(ell)
        if bundle.parts is None:
            return newton(c, ell, s, k, u_prev, rhs, u0, warm)
        levels = np.broadcast_to(k, len(bundle.parts))
        cuts = list(zip(bundle.offsets, bundle.offsets[1:]))
        alone = [newton(c, part.name, s, int(kb), u_prev[a:b], rhs[a:b],
                        None if u0 is None else u0[a:b],
                        None if warm is None else warm[i])
                 for i, (part, kb, (a, b)) in enumerate(
                     zip(bundle.parts, levels, cuts))]
        return NewtonResult(np.concatenate([r.values for r in alone]),
                            max(r.iterations for r in alone))

    monkeypatch.setattr(stsplit.resolvent, "newton_level_solve",
                        one_block_at_a_time)
    looped = [run_scheme(ctx, cfg) for cfg in cfgs]
    for one, other in zip(batched, looped):
        assert np.array_equal(one.u, other.u)
        for a, b in zip(one.subdomain_fields, other.subdomain_fields):
            assert np.array_equal(a, b)


def test_shift_matches_the_wrapped_model():
    # u_hat = e^{-qt} u solves the equation with flux e^{-qt} alpha(e^{qt} .),
    # reaction e^{-qt} beta(e^{qt} .) plus q*cap, and sources e^{-qt} eta;
    # the shifted context is that operator, read in the original variables
    mesh, grid, model, dec, _ = make_problem(cells=24, n_steps=5, p=3.0,
                                             lam=1.0, q=3, source="cos")
    q = float(dec.q)

    def grow(t):
        return np.exp(q * np.asarray(t))

    wrapped = replace(
        model,
        alpha=lambda x, t, z: (np.asarray(model.alpha(x, t, grow(t)[..., None] * z))
                               / grow(t)[..., None]),
        beta=lambda x, t, y: np.asarray(model.beta(x, t, grow(t) * y)) / grow(t),
        source=SourceTerm(
            eta0=lambda x, t: np.asarray(model.source.eta0(x, t)) / grow(t),
            eta=lambda x, t: (np.asarray(model.source.eta(x, t))
                              / grow(t)[..., None])),
    )
    ctx_hat = build_context(mesh, wrapped, grid, dec)
    ctx_s = build_context(mesh, model, grid, dec, shift=q)
    up = grow(grid.times)[:, None]
    u_hat = random_field(np.random.default_rng(5), grid, mesh)
    for ell in (None, 0, 1, 2):
        b = ctx_s.bundle(ell)
        expected = primal_F(ctx_hat, ell, u_hat)
        expected[:, b.nodes] += q * b.cap / b.m * u_hat[:, b.nodes]
        got = primal_F(ctx_s, ell, up * u_hat) / up
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_shift_requires_positive_gamma_and_a_finite_rate():
    mesh, grid, model, dec, _ = make_problem(gamma=indicator_gamma(0.0, 0.5))
    build_context(mesh, model, grid, dec)
    with pytest.raises(ConfigurationError, match="gamma >= gamma_0 > 0"):
        build_context(mesh, model, grid, dec, shift=2.0)
    # positive at every node, zero at one quadrature point
    x0 = mesh.quad_points[3, 0, 0]
    model = replace(model, gamma=lambda x: np.abs(np.asarray(x)[..., 0] - x0))
    build_context(mesh, model, grid, dec)
    with pytest.raises(ConfigurationError, match="gamma >= gamma_0 > 0"):
        build_context(mesh, model, grid, dec, shift=2.0)
    mesh, grid, model, dec, _ = make_problem()
    for shift in (-1.0, float("nan"), float("inf"), 1e308, True, "2"):
        with pytest.raises(ConfigurationError, match="shift must be"):
            build_context(mesh, model, grid, dec, shift=shift)
    with pytest.raises(ConfigurationError, match="shift is too large"):
        build_context(mesh, model, grid, dec, shift=10**400)


def test_shifted_reaction_is_three_y_for_linear_case():
    # p = 2, lam = 0, gamma = 1, q = 2: the shifted operator acts on a
    # constant field as (1 + 2) * mass, i.e. beta + shift = 3 y
    mesh, grid, model, dec, _ = make_problem(p=2.0)
    ctx_hat = build_context(mesh, model, grid, dec, shift=2.0)
    ones = np.ones(mesh.n_nodes)
    m = ctx_hat.bundle(None).m
    for k in (0, grid.n_steps - 1):
        np.testing.assert_allclose(apply_A(ctx_hat, None, k, ones), 3.0 * m,
                                   rtol=1e-13)


def test_shifted_scheme_converges_to_the_shifted_solution():
    # the additive fixed point is O(1/s) from the solution of the system it
    # splits, here the shifted one, which is O(dt) from u_h
    mesh, grid, model, dec, ctx = make_problem(cells=12, n_steps=4, T=1.0,
                                               p=2.0, lam=1.0, source="cos")
    u_s = solve_monolithic(build_context(mesh, model, grid, dec, shift=2.0))
    u_h = solve_monolithic(ctx)
    gap = h_norm(ctx, u_s - u_h)
    to_s = []
    for s in (64.0, 256.0):
        result = run_scheme(ctx, SchemeConfig(scheme="AS_shifted", s=s,
                                              max_sweeps=5000, stop_tol=1e-12))
        assert result.converged
        to_s.append(h_norm(ctx, result.u - u_s))
    assert to_s[1] < to_s[0] / 3.0
    assert to_s[1] < 0.05 * gap
    assert h_norm(ctx, result.u - u_h) > 0.95 * gap


def test_shifted_scheme_returns_unshifted_iterates():
    _, grid, _, _, ctx = make_problem(cells=24, n_steps=4, p=2.0, q=2,
                                      source="cos")
    u_h = solve_monolithic(ctx)
    cfg = SchemeConfig(scheme="AS_shifted", s=6.0, max_sweeps=40, stop_tol=0.0)
    result = run_scheme(ctx, cfg, u_ref=u_h)
    errs = result.trace.err_H
    assert errs[-1] < errs[0]
    # the returned field lives on the unshifted scale of u_ref
    assert h_norm(ctx, result.u - u_h) == pytest.approx(errs[-1], rel=1e-12)
    assert len(result.trace.err_k[0]) == ctx.dec.q


def test_shifted_stop_test_measures_unshifted_iterates():
    # with q*T = 2 the shifted iterates are up to e^2 smaller than the
    # reported ones, so a stop test on them would stop too early
    _, grid, _, _, ctx = make_problem(cells=12, n_steps=4, T=1.0, p=2.0,
                                      lam=1.0, source="cos")
    tol = 1e-4
    result = run_scheme(ctx, SchemeConfig(scheme="AS_shifted", s=1.0,
                                          max_sweeps=200, stop_tol=tol))
    assert result.converged
    # the run is deterministic, so one sweep fewer reproduces the iterate
    # the last delta was measured against
    before = run_scheme(ctx, SchemeConfig(scheme="AS_shifted", s=1.0,
                                          max_sweeps=result.sweeps - 1,
                                          stop_tol=0.0))
    assert h_norm(ctx, result.u - before.u) <= tol


def test_per_subdomain_error_columns():
    _, grid, _, _, ctx = make_problem(cells=24, n_steps=3, p=2.0, q=3,
                                      source="cos")
    u_h = solve_monolithic(ctx)
    result = run_scheme(ctx, SchemeConfig(scheme="AS", s=2.0, max_sweeps=3,
                                          stop_tol=0.0), u_ref=u_h)
    for row in result.trace.err_k:
        assert len(row) == 3
        assert all(np.isfinite(v) for v in row)
    assert all(v is None for v in result.trace.pr_v_norm)
    assert result.trace.err_k_total[0] == pytest.approx(sum(result.trace.err_k[0]))
    assert all(w >= 0.0 for w in result.trace.wall_ms)


def _sequential_order(monkeypatch):
    """One resolvent application at a time: the sweep-by-sweep order."""
    monkeypatch.setattr(stsplit.resolvent, "_STAGE_NODES", 1)


def _runs_equal(one, other):
    assert (one.sweeps, one.converged) == (other.sweeps, other.converged)
    assert np.array_equal(one.u, other.u)
    for a, b in zip(one.subdomain_fields, other.subdomain_fields):
        assert np.array_equal(a, b)
    for name in ("err_H", "err_k", "pr_v_norm", "pr_w_norm"):
        assert getattr(one.trace, name) == getattr(other.trace, name)


@pytest.mark.parametrize("scheme, tol", [("PR", 5e-2), ("DR", 1e-3),
                                         ("AS", 1e-3), ("AS_shifted", 1e-3)])
def test_early_stop_matches_sequential_order(monkeypatch, scheme, tol):
    _, grid, _, _, ctx = make_problem(cells=24, n_steps=6, p=3.0, lam=1.0,
                                      source="cos")
    u_h = solve_monolithic(ctx)
    cfg = SchemeConfig(scheme=scheme, s=2.0, max_sweeps=60, stop_tol=tol)
    pipelined = run_scheme(ctx, cfg, u_ref=u_h)
    assert pipelined.converged and 1 < pipelined.sweeps < cfg.max_sweeps
    _sequential_order(monkeypatch)
    _runs_equal(pipelined, run_scheme(ctx, cfg, u_ref=u_h))


def _inject_failure(monkeypatch, ell, k, sweep):
    """Make the level-k solve of subdomain ell fail in the given sweep.

    Stages run in order and every sweep solves each (subdomain, level)
    block with its own right-hand side, so the sweep-th such right-hand
    side seen is the one of that sweep.  It fails wherever it comes again,
    as when the engine solves the block alone, and so does a rerun.
    """
    newton = stsplit.resolvent.newton_level_solve
    seen = []  # the right-hand sides of the (ell, k) blocks, as bytes

    def failing(c, ells, s, levels, u_prev, rhs, u0=None, warm=None):
        bundle = c.bundle(ells)
        blocks, offsets = bundle.blocks, bundle.offsets
        for b, (part, kb) in enumerate(
                zip(blocks, np.broadcast_to(levels, len(blocks)))):
            if (part.name, kb) == (ell, k):
                key = rhs[offsets[b]:offsets[b + 1]].tobytes()
                if key not in seen:
                    seen.append(key)
                if seen.index(key) == sweep - 1:
                    raise SolverError(f"injected at level {k}")
        return newton(c, ells, s, levels, u_prev, rhs, u0, warm)

    monkeypatch.setattr(stsplit.resolvent, "newton_level_solve", failing)


@pytest.mark.parametrize("scheme, ell", [("DR", 1), ("AS", 2)])
def test_failure_is_raised_when_the_run_reaches_its_sweep(monkeypatch,
                                                         scheme, ell):
    _, grid, _, _, ctx = make_problem(cells=24, n_steps=6, p=3.0, lam=1.0,
                                      q=3 if scheme == "AS" else 2,
                                      source="cos")
    u_h = solve_monolithic(ctx)
    cfg = SchemeConfig(scheme=scheme, s=2.0, max_sweeps=60, stop_tol=1e-3)
    clean = run_scheme(ctx, cfg, u_ref=u_h)
    m = clean.sweeps

    # the stop test ends the run at sweep m; sweep m + 1 has already failed
    # at level 1 by then, in a stage before sweep m completes
    with monkeypatch.context() as patch:
        _inject_failure(patch, ell, 1, m + 1)
        _runs_equal(clean, run_scheme(ctx, cfg, u_ref=u_h))

    # a failure in sweep m surfaces once sweeps 1..m-1 are taken
    for order in ("pipelined", "sequential"):
        with monkeypatch.context() as patch:
            if order == "sequential":
                _sequential_order(patch)
            _inject_failure(patch, ell, 1, m)
            with pytest.raises(SolverError, match="injected at level 1"):
                run_scheme(ctx, cfg, u_ref=u_h)

            monitored = []
            real_h_norm = stsplit.iteration.h_norm
            patch.setattr(stsplit.iteration, "h_norm",
                          lambda *a, **kw: monitored.append(1) or real_h_norm(*a, **kw))
            _inject_failure(patch, ell, 1, m)
            with pytest.raises(SolverError):
                run_scheme(ctx, cfg)
            # without a reference, the stop test is the one h_norm per sweep
            assert len(monitored) == m - 1


def test_failing_stage_raises_the_first_application_to_fail(monkeypatch):
    # DR applies subdomain 0 in phase 0 and subdomain 1 in phase 1, one
    # application per stage after the other: in stage 3, sweep 0's phase-1
    # application is at level 2 and sweep 1's phase-0 application at level
    # 1.  Sorted by phase, the later one comes first in the stack.  Both
    # fail, alone too, and the earlier one's error is raised.
    *_, ctx = make_problem(cells=24, n_steps=6, p=3.0, lam=1.0, source="cos")
    newton = stsplit.resolvent.newton_level_solve
    marked = {}  # right-hand side bytes -> the message of its failure

    def failing(c, ells, s, levels, u_prev, rhs, u0=None, warm=None):
        bundle = c.bundle(ells)
        blocks, offsets = bundle.blocks, bundle.offsets
        named = [(part.name, int(kb)) for part, kb in
                 zip(blocks, np.broadcast_to(levels, len(blocks)))]
        keys = [rhs[lo:hi].tobytes() for lo, hi in zip(offsets, offsets[1:])]
        if not marked and (1, 2) in named and (0, 1) in named:
            assert named.index((0, 1)) < named.index((1, 2))
            for b in (named.index((0, 1)), named.index((1, 2))):
                marked[keys[b]] = "injected on subdomain {} at level {}".format(
                    *named[b])
        for key in keys:
            if key in marked:
                raise SolverError(marked[key])
        return newton(c, ells, s, levels, u_prev, rhs, u0, warm)

    monkeypatch.setattr(stsplit.resolvent, "newton_level_solve", failing)
    cfg = SchemeConfig(scheme="DR", s=2.0, max_sweeps=4, stop_tol=0.0)
    with pytest.raises(SolverError, match="on subdomain 1 at level 2$"):
        run_scheme(ctx, cfg)
    assert len(marked) == 2


def test_stage_whose_stack_fails_is_solved_unit_by_unit(monkeypatch):
    # a failure of the stacked system that no unit shows alone: each stage
    # of more than one application falls back to one solve per application
    *_, ctx = make_problem(cells=24, n_steps=6, p=3.0, lam=1.0, source="cos")
    u_h = solve_monolithic(ctx)
    cfg = SchemeConfig(scheme="PR", s=2.0, max_sweeps=8, stop_tol=0.0)
    clean = run_scheme(ctx, cfg, u_ref=u_h)
    solve_linear = stsplit.resolvent._solve_linear
    stacked = []

    def failing(bundle, ke, diag_extra, rhs, ab):
        if len(bundle.blocks) > 1:
            stacked.append(1)
            raise SolverError("injected: stacked system")
        return solve_linear(bundle, ke, diag_extra, rhs, ab)

    monkeypatch.setattr(stsplit.resolvent, "_solve_linear", failing)
    _runs_equal(clean, run_scheme(ctx, cfg, u_ref=u_h))
    assert stacked


@pytest.mark.parametrize("scheme", ["PR", "DR"])
def test_completed_alternating_sweep_holds_no_phase0_inputs(monkeypatch,
                                                           scheme):
    # PR reads each phase-0 input once, at the same level of phase 1, and DR
    # never reads them; only the phase-1 inputs, which give F2*u2, are kept
    _, grid, _, _, ctx = make_problem(cells=24, n_steps=6, p=3.0, lam=1.0,
                                      source="cos")
    chain = stsplit.iteration.resolvent_solve
    completed = []

    def recording(*args):
        for sweep in chain(*args):
            completed.append(sweep)
            yield sweep

    monkeypatch.setattr(stsplit.iteration, "resolvent_solve", recording)
    cfg = SchemeConfig(scheme=scheme, s=2.0, max_sweeps=5, stop_tol=0.0)
    run_scheme(ctx, cfg)
    assert len(completed) == cfg.max_sweeps
    for sweep in completed:
        assert len(sweep.rhs2) == grid.n_steps


def _record_starts(monkeypatch):
    """Record every stacked Newton as a list of its blocks' starts.

    Each block is (subdomain, level, u_prev, u0, warm) with its slices of
    the stack's rows and its warm flag; u0 and warm are None when the stage
    passed no start.
    """
    newton = stsplit.resolvent.newton_level_solve
    stages = []

    def recording(c, ells, s, levels, u_prev, rhs, u0=None, warm=None):
        stacked = c.bundle(ells)
        blocks, offsets = stacked.blocks, stacked.offsets
        stages.append([
            (part.name, int(kb), u_prev[lo:hi].copy(),
             None if u0 is None else u0[lo:hi].copy(),
             None if warm is None else bool(warm[b]))
            for b, (part, kb, lo, hi) in enumerate(zip(
                blocks, np.broadcast_to(levels, len(blocks)), offsets,
                offsets[1:]))])
        return newton(c, ells, s, levels, u_prev, rhs, u0, warm)

    monkeypatch.setattr(stsplit.resolvent, "newton_level_solve", recording)
    return stages


@pytest.mark.parametrize("order", ["pipelined", "sequential"])
@pytest.mark.parametrize("scheme, q", [("AS", 3), ("PR", 2)])
def test_each_level_starts_from_the_previous_sweep(monkeypatch, scheme, q,
                                                   order):
    _, grid, _, _, ctx = make_problem(cells=24, n_steps=3, p=3.0, lam=1.0,
                                      q=q, source="cos")
    if order == "sequential":
        _sequential_order(monkeypatch)
    chain = stsplit.iteration.resolvent_solve
    completed = []

    def recording(*args):
        for sweep in chain(*args):
            completed.append(sweep)
            yield sweep

    monkeypatch.setattr(stsplit.iteration, "resolvent_solve", recording)
    stages = _record_starts(monkeypatch)
    run_scheme(ctx, SchemeConfig(scheme=scheme, s=2.0, max_sweeps=3,
                                 stop_tol=0.0))
    assert len(completed) == 3
    # (phase, output field) of each subdomain's blocks
    field = ({ell: (0, ell) for ell in range(q)} if scheme == "AS"
             else {0: (0, 0), 1: (1, 0)})
    # every sweep solves each (subdomain, level) block once, in stage order
    seen = Counter()
    warm = 0
    for stage in stages:
        sweeps = []
        for ell, k, u_prev, u0, flag in stage:
            seen[ell, k] += 1
            n = seen[ell, k]
            sweeps.append(n)
            # only a block started from the sweep before is solved inexactly
            assert flag is (None if u0 is None else n > 1)
            if n == 1:
                assert u0 is None or np.array_equal(u0, u_prev)
                continue
            p, i = field[ell]
            before = completed[n - 2].out[p][i][k]
            assert u0 is not None
            assert np.array_equal(u0, before[ctx.bundle(ell).nodes])
            warm += 1
        if max(sweeps) == 1:
            assert all(u0 is None for *_, u0, _ in stage)
    # sweeps 2 and 3, at every level of every subdomain
    assert warm == 2 * grid.n_steps * q


def test_single_resolvent_passes_no_start(monkeypatch):
    mesh, grid, _, _, ctx = make_problem(cells=24, n_steps=3, p=3.0, lam=1.0,
                                         q=3, source="cos")
    stages = _record_starts(monkeypatch)
    g = random_field(np.random.default_rng(0), grid, mesh)
    cfg = ResolventConfig(s=2.0)
    resolvent_solve(ctx, 0, g, cfg)
    one_sweep(ctx, (0, 1, 2), g, cfg)
    assert len(stages) == 2 * grid.n_steps
    assert all(u0 is None and warm is None
               for stage in stages for *_, u0, warm in stage)


def _record_stack_sizes(monkeypatch):
    """Record the number of blocks of every stacked Newton."""
    newton = stsplit.resolvent.newton_level_solve
    sizes = []

    def recording(c, ells, s, levels, u_prev, rhs, u0=None, warm=None):
        sizes.append(len(c.bundle(ells).blocks))
        return newton(c, ells, s, levels, u_prev, rhs, u0, warm)

    monkeypatch.setattr(stsplit.resolvent, "newton_level_solve", recording)
    return sizes


def test_1d_stages_stack_applications_up_to_the_node_budget(monkeypatch):
    # the as1d_shifted_q3 subdomains, with enough levels and sweeps for the
    # wavefront to reach its depth
    _, _, _, dec, ctx = make_problem(cells=48, n_steps=20, T=0.25, p=3.0,
                                     lam=1.0, q=3, overlap=0.6, source="cos")
    sizes = _record_stack_sizes(monkeypatch)
    run_scheme(ctx, SchemeConfig(scheme="AS_shifted", s=8.0, max_sweeps=20,
                                 stop_tol=0.0))
    assert all(n % dec.q == 0 for n in sizes)
    applications = [n // dec.q for n in sizes]
    nodes = sum(ctx.bundle(ell).n_nodes for ell in range(dec.q))
    depth = max(1, stsplit.resolvent._STAGE_NODES // nodes)
    assert max(applications) <= depth
    assert max(applications) >= 2


def test_2d_runs_one_application_per_stage(monkeypatch):
    # the as2d_q2 subdomains: stacking 2D blocks does not pay
    _, _, _, _, ctx = make_problem(cells=(32, 32), n_steps=4, T=0.25, p=3.0,
                                   lam=1.0, q=2, overlap=0.6, source="cos")
    sizes = _record_stack_sizes(monkeypatch)
    run_scheme(ctx, SchemeConfig(scheme="AS", s=2.0, max_sweeps=2,
                                 stop_tol=0.0))
    assert len(sizes) == 2 * 4
    assert all(n == 2 for n in sizes)


# final err_H after 8 sweeps, measured 1.1365e-3 (PR, s = 8) and 5.0004e-4
# (AS, s = 4) against the reference's H-norm 4.237e-2; the bounds allow 5 %
@pytest.mark.parametrize("scheme, s, bound", [("PR", 8.0, 1.2e-3),
                                              ("AS", 4.0, 5.3e-4)])
def test_2d_scheme_approaches_the_monolithic_solution(scheme, s, bound):
    _, _, _, _, ctx = make_problem(cells=(8, 8), n_steps=4, T=0.25, p=3.0,
                                   lam=1.0, q=2, overlap=0.5, source="cos")
    u_h = solve_monolithic(ctx)
    result = run_scheme(ctx, SchemeConfig(scheme=scheme, s=s, max_sweeps=8,
                                          stop_tol=0.0), u_ref=u_h)
    err = result.trace.err_H
    assert result.sweeps == len(err) == 8
    assert err[-1] <= bound
    assert err[-1] <= err[0] / 15.0


def _returned_fields(result):
    return [result.u] + list(result.subdomain_fields)


@pytest.mark.parametrize("scheme, q", [("PR", 2), ("DR", 2), ("AS", 3),
                                       ("AS_shifted", 3)])
def test_returned_fields_are_not_views_of_engine_buffers(scheme, q):
    mesh, grid, _, _, ctx = make_problem(cells=24, n_steps=4, p=3.0, lam=1.0,
                                         q=q, source="cos")
    cfg = SchemeConfig(scheme=scheme, s=2.0, max_sweeps=3, stop_tol=0.0)
    g = random_field(np.random.default_rng(1), grid, mesh)
    rcfg = ResolventConfig(s=2.0)
    first, second = run_scheme(ctx, cfg), run_scheme(ctx, cfg)
    solved = [resolvent_solve(ctx, 0, g, rcfg) for _ in range(2)]
    fields = _returned_fields(first) + _returned_fields(second) + solved
    for i, a in enumerate(fields):
        for b in fields[i + 1:] + [g]:
            assert not np.shares_memory(a, b)

    # writing into what a run returned leaves a rerun's bits as they were
    kept = [f.copy() for f in _returned_fields(first) + solved[:1]]
    for f in _returned_fields(first) + solved[:1]:
        f[...] = np.nan
    again = _returned_fields(run_scheme(ctx, cfg))
    again.append(resolvent_solve(ctx, 0, g, rcfg))
    assert all(np.array_equal(a, b) for a, b in zip(again, kept))
