import numpy as np
import pytest

import stsplit.resolvent
from conftest import make_problem, random_field
from stsplit.cli import _custom_source
from stsplit import (
    ConfigurationError,
    ManufacturedSolution,
    SolverError,
    TimeGrid,
    apply_F,
    build_context,
    build_mesh,
    constant_gamma,
    cosine_solution,
    h_norm,
    indicator_gamma,
    interpolate_exact,
    manufactured_rhs,
    p_laplace_model,
    primal_F,
    solve_monolithic,
)


def test_zero_source_zero_solution():
    _, grid, _, _, ctx = make_problem(p=3.0, lam=1.0)
    u = solve_monolithic(ctx)
    assert np.all(u == 0.0)


def test_manufactured_rhs_zero_exact():
    mesh = build_mesh((1.0,), (8,))
    grid = TimeGrid(T=1.0, n_steps=2)
    zero = ManufacturedSolution(
        u=lambda x, t: np.zeros(np.shape(x)[:-1]),
        du_dt=lambda x, t: np.zeros(np.shape(x)[:-1]),
        grad=lambda x, t: np.zeros(np.shape(x)),
    )
    src = manufactured_rhs(p_laplace_model(3.0), zero, mesh, grid)
    x = mesh.nodes
    assert np.all(src.eta0(x, 0.5) == 0.0)
    assert np.all(src.eta(x, 0.5) == 0.0)


def test_manufactured_rhs_linear_heat_formulas():
    # p = 2, lam = 0, gamma = 1, u = t cos(pi x):
    # eta0 = -(1 + t) cos(pi x), eta = pi t sin(pi x)
    mesh = build_mesh((1.0,), (16,))
    grid = TimeGrid(T=1.0, n_steps=4)
    src = manufactured_rhs(p_laplace_model(2.0), cosine_solution(1), mesh, grid)
    x = np.linspace(0.0, 1.0, 11)[:, None]
    for t in (0.25, 1.0):
        np.testing.assert_allclose(
            src.eta0(x, t), -(1.0 + t) * np.cos(np.pi * x[:, 0]),
            rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(
            src.eta(x, t)[:, 0], np.pi * t * np.sin(np.pi * x[:, 0]),
            rtol=1e-13, atol=1e-13)


def test_manufactured_rhs_p4_flux_density():
    # eta = -alpha(grad u) = (pi t sin(pi x))^3 for p = 4
    mesh = build_mesh((1.0,), (16,))
    grid = TimeGrid(T=1.0, n_steps=4)
    src = manufactured_rhs(p_laplace_model(4.0), cosine_solution(1), mesh, grid)
    x = np.linspace(0.0, 1.0, 11)[:, None]
    t = 0.5
    np.testing.assert_allclose(
        src.eta(x, t)[:, 0], (np.pi * t * np.sin(np.pi * x[:, 0])) ** 3,
        rtol=1e-13, atol=1e-13)


def test_manufactured_rhs_rejects_nonzero_initial_state():
    mesh = build_mesh((1.0,), (8,))
    grid = TimeGrid(T=1.0, n_steps=2)
    bad = ManufacturedSolution(
        u=lambda x, t: (1.0 + t) * np.cos(np.pi * np.asarray(x)[..., 0]),
        du_dt=lambda x, t: np.cos(np.pi * np.asarray(x)[..., 0]),
        grad=lambda x, t: np.stack(
            [-(1.0 + t) * np.pi * np.sin(np.pi * np.asarray(x)[..., 0])], axis=-1),
    )
    with pytest.raises(ConfigurationError, match="vanish initially"):
        manufactured_rhs(p_laplace_model(2.0), bad, mesh, grid)


def test_manufactured_rhs_rejects_neumann_violation():
    mesh = build_mesh((1.0,), (8,))
    grid = TimeGrid(T=1.0, n_steps=2)
    bad = ManufacturedSolution(
        u=lambda x, t: t * np.asarray(x)[..., 0] ** 2,
        du_dt=lambda x, t: np.asarray(x)[..., 0] ** 2,
        grad=lambda x, t: np.stack([2.0 * t * np.asarray(x)[..., 0]], axis=-1),
    )
    with pytest.raises(ConfigurationError, match="Neumann"):
        manufactured_rhs(p_laplace_model(2.0), bad, mesh, grid)


def test_interpolate_exact_nodal_values():
    mesh = build_mesh((1.0,), (8,))
    grid = TimeGrid(T=2.0, n_steps=4)
    vals = interpolate_exact(cosine_solution(1, amplitude=2.0), mesh, grid)
    assert vals.shape == (4, 9)
    assert vals[1, 0] == pytest.approx(2.0 * grid.times[1])  # cos(0) = 1


def test_cosine_solution_needs_dim_one_or_two():
    for dim in (0, 3, 1.5, True):
        with pytest.raises(ConfigurationError, match="dim"):
            cosine_solution(dim)
    x = np.array([[0.0, 0.0]])
    assert cosine_solution(2.0).u(x, 1.0) == cosine_solution(2).u(x, 1.0)


def test_monolithic_residual_consistency():
    _, grid, _, _, ctx = make_problem(cells=24, n_steps=6, p=3.0, lam=1.0,
                                      source="cos")
    u_h = solve_monolithic(ctx)
    residual = h_norm(ctx, primal_F(ctx, None, u_h))
    # 10x the Newton tolerance, scaled like the per-level stopping test
    zero = np.zeros_like(u_h)
    scale = h_norm(ctx, primal_F(ctx, None, zero))
    assert residual <= 10.0 * (1e-10 * scale + 1e-12)


def test_uniqueness_probe_different_initial_guesses(monkeypatch):
    mesh, grid, _, _, ctx = make_problem(cells=20, n_steps=5, p=3.0, lam=1.0,
                                         source="cos")
    # tight tolerances so the random start converges as far as the zero start
    monkeypatch.setattr(stsplit.resolvent, "_ABS_TOL", 1e-13)
    monkeypatch.setattr(stsplit.resolvent, "_REL_TOL", 1e-12)
    u_a = solve_monolithic(ctx)
    # the reference's level solves, each Newton started from a random level
    start = random_field(np.random.default_rng(8), grid, mesh)
    u_b = np.empty_like(u_a)
    u_prev = zero = np.zeros(mesh.n_nodes)
    for k in range(grid.n_steps):
        u_prev = stsplit.resolvent.newton_level_solve(
            ctx, None, 0.0, k, u_prev, zero, u0=start[k]).values
        u_b[k] = u_prev
    assert h_norm(ctx, u_a - u_b) <= 1e-9


def test_monolithic_2d_matches_cosine_solution():
    # the cosine solution is linear in t, so the distance to its interpolant
    # is the O(h^2) spatial error: 0.6e-2 on 8x8 against ||u|| = 0.34
    errs = []
    for cells in ((8, 8), (16, 16)):
        mesh, grid, _, _, ctx = make_problem(cells=cells, n_steps=4, p=3.0,
                                             lam=1.0, source="cos")
        u_h = solve_monolithic(ctx)
        exact = interpolate_exact(cosine_solution(2), mesh, grid)
        errs.append(h_norm(ctx, u_h - exact))
        if cells == (8, 8):
            assert errs[0] <= 0.025 * h_norm(ctx, exact)
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_degenerate_capacity_monolithic():
    _, grid, _, _, ctx = make_problem(
        cells=24, n_steps=6, p=3.0, lam=1.0,
        gamma=indicator_gamma(0.0, 0.5), source="cos", amplitude=0.5)
    u_h = solve_monolithic(ctx)  # no Newton failure
    assert np.all(np.isfinite(u_h))
    assert h_norm(ctx, u_h) > 0.0


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 8.0, 10.0])
def test_purely_elliptic_corner_converges_or_raises(p):
    # zero capacity and lam = 0 leave a Neumann p-Laplace problem on every
    # level, solvable for the mean-zero load; near u = 0 only the Newton
    # regularization keeps the Jacobian nonsingular.  The solve may fail,
    # but only with SolverError, never with an inaccurate field.
    mesh = build_mesh((1.0,), (24,))
    grid = TimeGrid(T=1.0, n_steps=4)
    model = p_laplace_model(p, lam=0.0, gamma=constant_gamma(0.0))
    model = model.with_source(_custom_source(1, 1.0, 1, 0.0))
    ctx = build_context(mesh, model, grid)
    try:
        u_h = solve_monolithic(ctx)
    except SolverError:
        return
    residual = apply_F(ctx, None, u_h) / mesh.lumped_mass
    assert np.max(np.abs(residual)) <= 1e-8


def _discretization_error(exact, cells, nt, T=1.0):
    mesh = build_mesh((1.0,), (cells,))
    grid = TimeGrid(T=T, n_steps=nt)
    model = p_laplace_model(2.0, gamma=constant_gamma(1.0))
    model = model.with_source(manufactured_rhs(model, exact, mesh, grid))
    ctx = build_context(mesh, model, grid)
    u_h = solve_monolithic(ctx)
    return h_norm(ctx, u_h - interpolate_exact(exact, mesh, grid))


def test_linear_heat_error_decreases_under_refinement():
    exact = cosine_solution(1)
    errs = [_discretization_error(exact, c, n)
            for c, n in ((16, 4), (32, 8), (64, 16))]
    assert errs[0] > errs[1] > errs[2]
    # the cosine solution is linear in t, so implicit Euler integrates it
    # exactly and the spatial O(h^2) rate shows
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def _quadratic_time_solution():
    def u(x, t):
        return t * t * np.cos(np.pi * np.asarray(x)[..., 0])

    def du_dt(x, t):
        return 2.0 * t * np.cos(np.pi * np.asarray(x)[..., 0])

    def grad(x, t):
        x = np.asarray(x)
        out = np.empty(x.shape)
        out[..., 0] = -t * t * np.pi * np.sin(np.pi * x[..., 0])
        return out

    return ManufacturedSolution(u, du_dt, grad)


def test_temporal_order_one_for_quadratic_time():
    # genuinely time-dependent truncation error: refine dt at fixed fine h
    exact = _quadratic_time_solution()
    errs = [_discretization_error(exact, 256, nt) for nt in (4, 8, 16)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 0.9 <= order <= 1.1
