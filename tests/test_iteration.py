import numpy as np
import pytest

import stsplit.iteration
from conftest import make_problem, random_field
from stsplit import (
    ConfigurationError,
    SchemeConfig,
    apply_A,
    build_context,
    build_decomposition,
    build_mesh,
    h_norm,
    indicator_gamma,
    run_scheme,
    shift_factors,
    shift_model,
    solve_monolithic,
)


def test_scheme_config_validation():
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme="PRX")
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme="PR", max_sweeps=0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme="PR", s=0.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme="AS", s_rule_constant=-1.0)
    for bad in ({"s": float("nan")}, {"s_rule_constant": float("nan")},
                {"stop_tol": float("nan")}, {"stop_tol": -1e-10}):
        with pytest.raises(ConfigurationError):
            SchemeConfig(scheme="PR", **bad)
    SchemeConfig(scheme="PR", stop_tol=0.0)


def test_s_rule():
    assert SchemeConfig(scheme="AS", s=4.0).resolve_s() == 4.0
    assert SchemeConfig(scheme="AS", max_sweeps=16).resolve_s() == pytest.approx(4.0)
    assert SchemeConfig(scheme="AS", max_sweeps=16,
                        s_rule_constant=2.0).resolve_s() == pytest.approx(8.0)


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


def test_additive_average_uses_equal_weights(monkeypatch):
    _, grid, _, _, ctx = make_problem(cells=12, n_steps=3)
    shape = (grid.n_steps, ctx.mesh.n_nodes)

    def stub(ctx_, ell, rhs, rcfg):
        return [np.full(shape, 2.0 * e) for e in ell]

    monkeypatch.setattr(stsplit.iteration, "resolvent_solve", stub)
    result = run_scheme(ctx, SchemeConfig(scheme="AS", s=1.0, max_sweeps=1))
    np.testing.assert_allclose(result.u, 1.0)  # mean of 0 and 2


def test_additive_fanout_is_order_independent(monkeypatch):
    _, grid, _, _, ctx = make_problem(cells=24, n_steps=3, p=3.0, q=3,
                                      source="cos", lam=1.0)
    cfgs = [SchemeConfig(scheme=scheme, s=2.0, max_sweeps=4, stop_tol=0.0)
            for scheme in ("AS", "AS_shifted")]
    batched = [run_scheme(ctx, cfg) for cfg in cfgs]

    # the reference: the additive resolvents solved one subdomain at a time
    solve = stsplit.iteration.resolvent_solve
    monkeypatch.setattr(stsplit.iteration, "resolvent_solve",
                        lambda c, ell, rhs, rcfg: [solve(c, e, rhs, rcfg) for e in ell])
    looped = [run_scheme(ctx, cfg) for cfg in cfgs]
    for one, other in zip(batched, looped):
        assert np.array_equal(one.u, other.u)
        for a, b in zip(one.subdomain_fields, other.subdomain_fields):
            assert np.array_equal(a, b)


def test_shift_factors_formula():
    _, grid, _, _, _ = make_problem(n_steps=5, T=2.0)
    np.testing.assert_allclose(shift_factors(grid, 3.0),
                               np.exp(-3.0 * grid.times), rtol=1e-15)


def test_shift_model_wraps_coefficients():
    mesh, grid, model, dec, _ = make_problem(p=3.0, lam=1.0, source="cos")
    hat = shift_model(model, dec)
    x = np.array([[0.3]])
    z = np.array([[0.7]])
    # t = 0: factors are 1
    np.testing.assert_allclose(hat.alpha(x, 0.0, z), model.alpha(x, 0.0, z))
    np.testing.assert_allclose(hat.beta(x, 0.0, 0.4), model.beta(x, 0.0, 0.4))
    # t > 0: e^{-qt} alpha(e^{qt} z) with q = 2
    t = 0.65
    w = np.exp(2.0 * t)
    np.testing.assert_allclose(hat.alpha(x, t, z),
                               np.asarray(model.alpha(x, t, w * z)) / w,
                               rtol=1e-13)
    np.testing.assert_allclose(hat.source.eta0(x, t),
                               np.asarray(model.source.eta0(x, t)) * np.exp(-2.0 * t),
                               rtol=1e-13)


def test_shift_model_requires_positive_gamma():
    mesh, grid, model, dec, _ = make_problem(gamma=indicator_gamma(0.0, 0.5))
    with pytest.raises(ConfigurationError):
        shift_model(model, dec)


def test_shifted_reaction_is_three_y_for_linear_case():
    # p = 2, lam = 0, gamma = 1, q = 2: the shifted operator acts on a
    # constant field as (1 + 2) * mass, i.e. beta_hat + shift = 3 y
    mesh, grid, model, dec, _ = make_problem(p=2.0)
    ctx_hat = build_context(mesh, shift_model(model, dec), grid, dec,
                            reaction_shift=2.0)
    ones = np.ones(mesh.n_nodes)
    m = ctx_hat.bundle(None).m
    for k in (0, grid.n_steps - 1):
        np.testing.assert_allclose(apply_A(ctx_hat, None, k, ones), 3.0 * m,
                                   rtol=1e-13)


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
