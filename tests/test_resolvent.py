import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_problem, random_field
from stsplit import (
    ConfigurationError,
    ResolventConfig,
    SolverError,
    apply_A,
    build_context,
    h_norm,
    indicator_gamma,
    primal_F,
    resolvent_solve,
)
import stsplit.resolvent
from stsplit.resolvent import newton_level_solve


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ResolventConfig(s=0.0)
    with pytest.raises(ConfigurationError):
        ResolventConfig(s=-1.0)
    with pytest.raises(ConfigurationError):
        ResolventConfig(s=float("nan"))
    with pytest.raises(ConfigurationError, match="too small"):
        ResolventConfig(s=2.225073858507203e-309)  # 1/s overflows
    with pytest.raises(ConfigurationError, match="too large"):
        ResolventConfig(s=float("inf"))


def test_zero_input_zero_output():
    _, grid, _, _, ctx = make_problem(p=3.0)
    g = np.zeros((grid.n_steps, ctx.mesh.n_nodes))
    u = resolvent_solve(ctx, 0, g, ResolventConfig(s=1.0))
    assert np.all(u == 0.0)


def test_off_subdomain_completion_exact():
    mesh, grid, _, dec, ctx = make_problem(cells=20, n_steps=3, p=3.0)
    g = np.full((grid.n_steps, mesh.n_nodes), 4.0)
    u = resolvent_solve(ctx, 0, g, ResolventConfig(s=2.0))
    outside = np.setdiff1d(np.arange(mesh.n_nodes), dec.subdomains[0].nodes)
    assert np.all(u[:, outside] == 2.0)  # g/s, one division


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_round_trip_recovers_field(p):
    # g = s u* + F_l u* must map back to u* through the resolvent
    mesh, grid, _, dec, ctx = make_problem(cells=16, n_steps=4, p=p, lam=1.0,
                                           source="cos")
    rng = np.random.default_rng(0)
    s = 2.0
    for ell in range(dec.q):
        u_star = 0.5 * random_field(rng, grid, mesh)
        g = s * u_star + primal_F(ctx, ell, u_star)
        u = resolvent_solve(ctx, ell, g, ResolventConfig(s=s))
        assert h_norm(ctx, u - u_star) <= 1e-8


def test_round_trip_recovers_field_2d():
    # 2D strips give banded level systems wider than tridiagonal
    mesh, grid, _, dec, ctx = make_problem(cells=(8, 8), n_steps=4, p=3.0,
                                           lam=1.0, source="cos")
    rng = np.random.default_rng(0)
    s = 2.0
    for ell in range(dec.q):
        assert ctx.bundle(ell).bandwidth > 1
        u_star = 0.5 * random_field(rng, grid, mesh)
        g = s * u_star + primal_F(ctx, ell, u_star)
        u = resolvent_solve(ctx, ell, g, ResolventConfig(s=s))
        assert h_norm(ctx, u - u_star) <= 1e-8


def test_linear_problem_single_newton_iteration():
    _, grid, _, _, ctx = make_problem(cells=12, n_steps=2, p=2.0, lam=1.0)
    rng = np.random.default_rng(1)
    bundle = ctx.bundle(0)
    rhs = bundle.m * rng.standard_normal(bundle.n_nodes)
    u_prev = np.zeros(bundle.n_nodes)
    res = newton_level_solve(ctx, 0, 1.0, 0, u_prev, rhs)
    assert res.iterations <= 1
    u = res.values
    r = (1.0 * bundle.m * u + bundle.cap * (u - u_prev) / grid.dt
         + apply_A(ctx, 0, 0, u) + bundle.loads[0] - rhs)
    assert np.sqrt(np.sum(r * r / bundle.m)) <= 1e-9


def test_zero_rhs_zero_start_immediate():
    _, grid, _, _, ctx = make_problem(p=3.0)
    bundle = ctx.bundle(0)
    res = newton_level_solve(ctx, 0, 1.0, 0, np.zeros(bundle.n_nodes),
                             np.zeros(bundle.n_nodes))
    assert res.iterations == 0
    assert np.all(res.values == 0.0)


def test_nonlinear_level_recovery():
    # build the level right-hand side from a known state and solve it back
    _, grid, _, _, ctx = make_problem(cells=16, n_steps=2, p=4.0)
    bundle = ctx.bundle(1)
    rng = np.random.default_rng(2)
    u_star = 0.5 * rng.standard_normal(bundle.n_nodes)
    u_prev = 0.5 * rng.standard_normal(bundle.n_nodes)
    s, k = 1.5, 1
    rhs = (s * bundle.m * u_star + bundle.cap * (u_star - u_prev) / grid.dt
           + apply_A(ctx, 1, k, u_star) + bundle.loads[k])
    res = newton_level_solve(ctx, 1, s, k, u_prev, rhs)
    assert np.max(np.abs(res.values - u_star)) <= 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
def test_tolerance_does_not_depend_on_start(scale):
    # restarting from a converged level must accept it as it is; a tolerance
    # relative to the residual at the start would shrink to the converged
    # residual and ask for more than rounding allows
    _, grid, _, _, ctx = make_problem(cells=20, n_steps=3, p=3.0, lam=1.0,
                                      source="cos")
    bundle = ctx.bundle(0)
    rng = np.random.default_rng(0)
    u_prev = rng.standard_normal(bundle.n_nodes)
    rhs = scale * rng.standard_normal(bundle.n_nodes)
    res = newton_level_solve(ctx, 0, 2.0, 1, u_prev, rhs)
    again = newton_level_solve(ctx, 0, 2.0, 1, u_prev, rhs, u0=res.values)
    assert again.iterations == 0
    assert np.array_equal(again.values, res.values)


@pytest.mark.parametrize("s", [0.5, 2.0])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_nonexpansiveness_sampled(s, p):
    mesh, grid, _, dec, ctx = make_problem(cells=12, n_steps=3, p=p, lam=1.0)
    rng = np.random.default_rng(3)
    cfg = ResolventConfig(s=s)
    bound = (1.0 + 1e-8) / s
    for i in range(10):
        ell = i % dec.q
        g1 = random_field(rng, grid, mesh)
        g2 = random_field(rng, grid, mesh)
        lhs = h_norm(ctx, resolvent_solve(ctx, ell, g1, cfg)
                     - resolvent_solve(ctx, ell, g2, cfg))
        assert lhs <= bound * h_norm(ctx, g1 - g2)


def test_causality_in_time():
    mesh, grid, _, dec, ctx = make_problem(cells=12, n_steps=4, p=3.0)
    rng = np.random.default_rng(4)
    g = random_field(rng, grid, mesh)
    g_mod = g.copy()
    g_mod[2] += 1.0  # perturb level k = 2 only
    cfg = ResolventConfig(s=1.0)
    u = resolvent_solve(ctx, 0, g, cfg)
    u_mod = resolvent_solve(ctx, 0, g_mod, cfg)
    np.testing.assert_array_equal(u[:2], u_mod[:2])
    assert np.max(np.abs(u[2] - u_mod[2])) > 0.0


def test_limit_for_large_s():
    mesh, grid, _, _, ctx = make_problem(cells=12, n_steps=3, p=3.0, source="cos")
    rng = np.random.default_rng(5)
    g = random_field(rng, grid, mesh)
    gaps = []
    for s in (1e2, 1e4, 1e6):
        u = resolvent_solve(ctx, 0, g, ResolventConfig(s=s))
        gaps.append(h_norm(ctx, u - g / s))
    assert gaps[0] > gaps[1] > gaps[2]


def test_degenerate_capacity_supported():
    # gamma vanishes on half the domain; the reaction alone carries the level
    mesh, grid, _, dec, ctx = make_problem(
        cells=16, n_steps=3, p=3.0, lam=1.0,
        gamma=indicator_gamma(0.0, 0.5), source="cos")
    rng = np.random.default_rng(6)
    s = 1.0
    u_star = 0.25 * random_field(rng, grid, mesh)
    g = s * u_star + primal_F(ctx, 1, u_star)
    u = resolvent_solve(ctx, 1, g, ResolventConfig(s=s))
    assert h_norm(ctx, u - u_star) <= 1e-8


def test_failed_line_search_raises(monkeypatch):
    _, grid, _, _, ctx = make_problem(cells=12, n_steps=2, p=4.0)
    bundle = ctx.bundle(0)
    rhs = 1e8 * bundle.m
    monkeypatch.setattr(stsplit.resolvent, "_MAX_ITERS", 1)
    monkeypatch.setattr(stsplit.resolvent, "_MAX_HALVINGS", 0)
    with pytest.raises(SolverError, match="line search failed"):
        newton_level_solve(ctx, 0, 1.0, 0, np.zeros(bundle.n_nodes), rhs)


def test_overflowing_jacobian_raises_without_a_warning():
    # one error state covers the whole level solve, so a floating-point
    # fault in the model surfaces as SolverError, never as a RuntimeWarning
    mesh, grid, model, dec, _ = make_problem(cells=12, n_steps=2, p=3.0)

    def flux_jacobian(x, t, z, eps):
        return np.full(np.shape(z) + np.shape(z)[-1:], 1e308) * 10

    ctx = build_context(mesh, replace(model, flux_jacobian=flux_jacobian),
                        grid, dec)
    bundle = ctx.bundle(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="banded system has non-finite"):
            newton_level_solve(ctx, 0, 1.0, 0, np.zeros(bundle.n_nodes),
                               bundle.m)


def test_resolvent_rejects_bad_input():
    _, grid, _, _, ctx = make_problem()
    with pytest.raises(ValueError):
        resolvent_solve(ctx, 0, np.zeros((1, 2)), ResolventConfig(s=1.0))
    bad = np.zeros((grid.n_steps, ctx.mesh.n_nodes))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        resolvent_solve(ctx, 0, bad, ResolventConfig(s=1.0))
    # a chain names a tuple of subdomains per phase, not the subdomains
    with pytest.raises(ConfigurationError):
        resolvent_solve(ctx, (0, 1), [], ResolventConfig(s=1.0))
    # a subdomain is an integer in [0, q), not a bool, or None; a chain has
    # a phase or more, each a non-empty tuple of subdomains; all checked at
    # the call, before a generator is returned
    q = ctx.dec.q
    zero = np.zeros((grid.n_steps, ctx.mesh.n_nodes))
    for ell in (-1, True, q, 1.0):
        with pytest.raises(ConfigurationError, match="neither None nor"):
            resolvent_solve(ctx, ell, zero, ResolventConfig(s=1.0))
    for chain in ((), ((),), ((0, 5),), ((0,), (True,)), ((0, (1,)),)):
        with pytest.raises(ConfigurationError):
            resolvent_solve(ctx, chain, [], ResolventConfig(s=1.0))
    assert np.array_equal(resolvent_solve(ctx, None, zero,
                                          ResolventConfig(s=1.0)), zero)
