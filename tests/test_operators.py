from dataclasses import replace

import numpy as np
import pytest

from conftest import make_problem, random_field
from stsplit.operators import quad_values
from stsplit.resolvent import _element_matrices, newton_level_solve
from stsplit import (
    ConfigurationError,
    NumericError,
    SourceTerm,
    TimeGrid,
    apply_A,
    apply_F,
    build_context,
    build_decomposition,
    build_mesh,
    constant_gamma,
    cosine_solution,
    h_inner,
    h_norm,
    interpolate_exact,
    k_functional,
    manufactured_rhs,
    p_laplace_model,
    primal_F,
    v_norm_p,
)


def test_time_grid_consistency():
    grid = TimeGrid(T=2.0, n_steps=8)
    assert abs(grid.n_steps * grid.dt - grid.T) <= 1e-14
    np.testing.assert_allclose(grid.times, 0.25 * np.arange(1, 9))
    with pytest.raises(ConfigurationError):
        TimeGrid(T=0.0, n_steps=4)
    with pytest.raises(ConfigurationError):
        TimeGrid(T=1.0, n_steps=0)
    for T in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            TimeGrid(T=T, n_steps=4)
    for n_steps in (2.5, float("nan"), float("inf"), True):
        with pytest.raises(ConfigurationError, match="n_steps must be an integer"):
            TimeGrid(T=1.0, n_steps=n_steps)
    assert TimeGrid(T=1.0, n_steps=4.0).n_steps == 4
    # dt rounds to zero, or 1/dt overflows
    for T, n_steps in ((5e-324, 4), (2.225073858507203e-309, 1)):
        with pytest.raises(ConfigurationError, match="too small"):
            TimeGrid(T=T, n_steps=n_steps)


def test_apply_A_zero_field_is_zero():
    _, _, _, _, ctx = make_problem(p=3.0, lam=2.0)
    r = apply_A(ctx, None, 0, np.zeros(ctx.mesh.n_nodes))
    assert np.all(r == 0.0)
    r0 = apply_A(ctx, 0, 1, np.zeros(ctx.bundle(0).n_nodes))
    assert np.all(r0 == 0.0)


def test_apply_A_matches_hand_assembly():
    # p = 2, lam = 0, unit weights: the dual action is stiffness + consistent
    # mass, both assembled by hand on the 4-element interval
    mesh = build_mesh((1.0,), (4,))
    grid = TimeGrid(T=1.0, n_steps=1)
    ctx = build_context(mesh, p_laplace_model(2.0), grid)
    h = 0.25
    n = mesh.n_nodes
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for e in range(4):
        K[e:e + 2, e:e + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        M[e:e + 2, e:e + 2] += np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(n)
        np.testing.assert_allclose(apply_A(ctx, None, 0, u), (K + M) @ u,
                                   rtol=1e-12, atol=1e-13)


def test_apply_A_monotone_pairing():
    _, grid, _, _, ctx = make_problem(cells=12, n_steps=2, p=3.0, lam=1.0)
    rng = np.random.default_rng(1)
    for ell in (None, 0, 1):
        n = ctx.bundle(ell).n_nodes
        for _ in range(50):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            gap = float(np.dot(apply_A(ctx, ell, 0, u) - apply_A(ctx, ell, 0, v),
                               u - v))
            assert gap >= -1e-12


def test_apply_F_zero_solution_zero_residual():
    _, grid, _, _, ctx = make_problem(p=3.0)
    u = np.zeros((grid.n_steps, ctx.mesh.n_nodes))
    assert np.all(apply_F(ctx, None, u) == 0.0)


def test_apply_F_rejects_mismatched_fields():
    _, grid, _, _, ctx = make_problem()
    with pytest.raises(ValueError):
        apply_F(ctx, None, np.zeros((grid.n_steps + 1, ctx.mesh.n_nodes)))
    with pytest.raises(ValueError):
        h_inner(ctx, np.zeros((grid.n_steps, 3)), np.zeros((grid.n_steps, 3)))


# every public function that takes a subdomain name, called on subdomain ell
# with a global field u and its restriction loc to subdomain 1
NAMED_CALLS = {
    "apply_A": lambda ctx, ell, u, loc: apply_A(ctx, ell, 1, loc[1]),
    "apply_F": lambda ctx, ell, u, loc: apply_F(ctx, ell, loc),
    "primal_F": lambda ctx, ell, u, loc: primal_F(ctx, ell, u),
    "h_inner": lambda ctx, ell, u, loc: h_inner(ctx, loc, 2.0 * loc, ell=ell),
    "h_norm": lambda ctx, ell, u, loc: h_norm(ctx, loc, ell=ell),
    "v_norm_p": lambda ctx, ell, u, loc: v_norm_p(ctx, ell, loc),
    "k_functional": lambda ctx, ell, u, loc: k_functional(ctx, ell, u),
    "newton_level_solve": lambda ctx, ell, u, loc: newton_level_solve(
        ctx, ell, 1.0, 1, loc[0], ctx.bundle(1).m * loc[1]).values,
    "bundle": lambda ctx, ell, u, loc: ctx.bundle(ell),
}


@pytest.mark.parametrize("name", sorted(NAMED_CALLS))
def test_every_subdomain_name_is_checked(name):
    # a subdomain is an integer in [0, q), not a bool; numpy integers count
    _, grid, _, dec, ctx = make_problem(p=3.0, lam=1.0)
    call = NAMED_CALLS[name]
    u = 0.5 * random_field(np.random.default_rng(3), grid, ctx.mesh)
    loc = u[:, ctx.bundle(1).nodes]
    for ell in (-1, True, dec.q, 1.0):
        with pytest.raises(ConfigurationError, match="neither None nor"):
            call(ctx, ell, u, loc)
    got, want = call(ctx, np.int64(1), u, loc), call(ctx, 1, u, loc)
    assert got is want if name == "bundle" else np.array_equal(got, want)


def test_stack_names_are_checked_part_by_part():
    _, _, _, dec, ctx = make_problem()
    for ell in ((), (0, dec.q), (0, True), (0, 1.0), (0, (1,))):
        with pytest.raises(ConfigurationError):
            ctx.bundle(ell)
    stack = ctx.bundle((np.int64(1), 0))
    assert [b.name for b in stack.blocks] == [1, 0]


def test_global_fields_are_checked_before_restriction():
    # a global field too narrow or too wide for the mesh, and a NaN off the
    # subdomain, are all rejected
    _, grid, _, dec, ctx = make_problem()
    outside = np.setdiff1d(np.arange(ctx.mesh.n_nodes), dec.subdomains[0].nodes)
    nan_outside = np.zeros((grid.n_steps, ctx.mesh.n_nodes))
    nan_outside[0, outside[0]] = np.nan
    for u in (np.zeros((grid.n_steps, 3)),
              np.zeros((grid.n_steps, ctx.mesh.n_nodes + 1)), nan_outside):
        for f in (primal_F, k_functional):
            with pytest.raises(ConfigurationError):
                f(ctx, 0, u)


def test_fields_must_be_finite():
    _, grid, _, _, ctx = make_problem()
    u = np.zeros((grid.n_steps, ctx.mesh.n_nodes))
    u[1, 2] = np.nan
    for call in (lambda: apply_F(ctx, None, u), lambda: h_norm(ctx, u),
                 lambda: h_inner(ctx, np.zeros_like(u), u),
                 lambda: v_norm_p(ctx, None, u)):
        with pytest.raises(ConfigurationError, match="non-finite"):
            call()


def test_level_vectors_must_match_the_nodes():
    # a level vector of the wrong length is named, not cut to the subdomain
    # or left to a numpy broadcast or index error
    _, _, _, _, ctx = make_problem(p=3.0)
    n = ctx.bundle(0).n_nodes
    good = np.zeros(n)
    for bad in (np.ones(n + 4), np.ones(n - 2), np.ones(n + 1), np.ones((2, n))):
        with pytest.raises(ConfigurationError, match=f"the {n} nodes"):
            apply_A(ctx, 0, 0, bad)
        for u_prev, rhs, u0 in ((bad, good, None), (good, bad, None),
                                (good, good, bad)):
            with pytest.raises(ConfigurationError, match=f"the {n} nodes"):
                newton_level_solve(ctx, 0, 1.0, 0, u_prev, rhs, u0=u0)


def test_non_finite_model_values_raise_numeric_error():
    _, grid, model, dec, ctx = make_problem()
    nan_beta = replace(model, beta=lambda x, t, y: np.full(np.shape(y), np.nan))
    ctx = build_context(ctx.mesh, nan_beta, grid, dec)
    u = np.zeros((grid.n_steps, ctx.mesh.n_nodes))
    for ell in (None, 0):
        with pytest.raises(NumericError, match="non-finite"):
            primal_F(ctx, ell, u)


@pytest.mark.parametrize("gamma, source, message", [
    (lambda x: 1.0, None, r"gamma returned an array of shape \(\), expected \(13,\)"),
    (lambda x: np.ones_like(x), None,
     r"gamma returned an array of shape \(13, 1\), expected \(13,\)"),
    (None, SourceTerm(eta0=lambda x, t: 0.0, eta=lambda x, t: np.zeros(np.shape(x))),
     r"eta0 returned an array of shape \(\), expected \(12, \d+\)"),
    (None, SourceTerm(eta0=lambda x, t: np.zeros(np.shape(x)[:-1]),
                      eta=lambda x, t: np.zeros(np.shape(x)[:-1])),
     r"eta returned an array of shape \(12, \d+\), expected \(12, \d+, 1\)"),
], ids=["gamma-scalar", "gamma-column", "eta0-scalar", "eta-without-axis"])
def test_callables_of_the_wrong_output_shape_are_refused(gamma, source, message):
    mesh = build_mesh((1.0,), (12,))
    grid = TimeGrid(T=1.0, n_steps=2)
    model = p_laplace_model(3.0, gamma=gamma)
    if source is not None:
        model = model.with_source(source)
    with pytest.raises(ConfigurationError, match=message):
        build_context(mesh, model, grid)


def test_decomposition_identity_small():
    # the weighted subdomain residuals sum to the global residual
    mesh, grid, model, dec, ctx = make_problem(
        cells=16, n_steps=3, p=3.0, lam=1.0, source="cos")
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = random_field(rng, grid, mesh)
        total = np.zeros_like(u)
        for ell in range(dec.q):
            total += dec.extend(ell, apply_F(ctx, ell, dec.restrict(ell, u)))
        full = apply_F(ctx, None, u)
        rel = np.max(np.abs(total - full)) / np.max(np.abs(full))
        assert rel <= 1e-11


def test_h_inner_point_values():
    mesh, grid, _, _, ctx = make_problem(cells=8, n_steps=5, T=1.0)
    ones = np.ones((grid.n_steps, mesh.n_nodes))
    assert h_inner(ctx, ones, ones) == pytest.approx(1.0, rel=1e-13)
    u = np.zeros_like(ones)
    v = np.zeros_like(ones)
    u[:, 2] = 1.0
    v[:, 5] = 1.0  # disjoint nodal support
    assert h_inner(ctx, u, v) == 0.0
    # single hat: T times its lumped weight
    assert h_inner(ctx, u, u) == pytest.approx(
        grid.T * mesh.lumped_mass[2], rel=1e-13)


def test_v_norm_values_and_homogeneity():
    mesh = build_mesh((1.0,), (10,))
    grid = TimeGrid(T=2.0, n_steps=5)
    dec = build_decomposition(mesh, 2, 0.4, c_min=0.1)
    for p in (2.0, 3.0):
        ctx = build_context(mesh, p_laplace_model(p), grid, dec)
        assert v_norm_p(ctx, None, np.zeros((5, mesh.n_nodes))) == 0.0
        # constant field: gradient term drops, reaction term integrates b
        ones = np.ones((5, dec.subdomains[0].nodes.size))
        # int b_1 = 0.4 exclusive + half of the 0.2-wide overlap ramp
        assert v_norm_p(ctx, 0, ones) == pytest.approx(
            (grid.T * 0.5) ** (1.0 / p), rel=1e-13)
        assert v_norm_p(ctx, None, np.ones((5, mesh.n_nodes))) == pytest.approx(
            (grid.T * 1.0) ** (1.0 / p), rel=1e-13)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((5, mesh.n_nodes))
        assert v_norm_p(ctx, None, 2.5 * u) == pytest.approx(
            2.5 * v_norm_p(ctx, None, u), rel=1e-12)


def test_k_functional_is_scaled_norm_power():
    mesh, grid, model, dec, ctx = make_problem(cells=12, n_steps=3, p=3.0)
    rng = np.random.default_rng(4)
    u = random_field(rng, grid, mesh)
    local = u[:, dec.subdomains[1].nodes]
    expected = model.mono_const * v_norm_p(ctx, 1, local) ** 3.0
    assert k_functional(ctx, 1, u) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_k_monotonicity_of_weighted_operator(p):
    # <A_l u - A_l v, u - v> >= c ||u - v||_{V_l}^p with the confirmed
    # constant c = 2^(2-p); the pairing is summed over levels with dt weight
    mesh, grid, model, dec, ctx = make_problem(cells=12, n_steps=3, p=p, lam=1.0)
    rng = np.random.default_rng(5)
    print(f"confirmed monotonicity constant for p={p}: {model.mono_const}")
    for ell in range(dec.q):
        n = ctx.bundle(ell).n_nodes
        for _ in range(10):
            u = rng.standard_normal((grid.n_steps, n))
            v = rng.standard_normal((grid.n_steps, n))
            pairing = grid.dt * sum(
                float(np.dot(apply_A(ctx, ell, k, u[k]) - apply_A(ctx, ell, k, v[k]),
                             u[k] - v[k]))
                for k in range(grid.n_steps))
            bound = model.mono_const * v_norm_p(ctx, ell, u - v) ** p
            assert pairing >= bound - 1e-10 * (1.0 + abs(pairing))


def test_time_difference_accretive():
    # <cap (u_k - u_{k-1})/dt, u>_H >= 0 given the zero initial state
    mesh, grid, _, _, ctx = make_problem(cells=10, n_steps=6)
    cap = ctx.bundle(None).cap
    rng = np.random.default_rng(6)
    for _ in range(25):
        u = random_field(rng, grid, mesh)
        du = np.diff(np.vstack([np.zeros(mesh.n_nodes), u]), axis=0) / grid.dt
        pairing = grid.dt * float(np.sum(cap * du * u))
        assert pairing >= -1e-12 * h_norm(ctx, u) ** 2


def test_coercivity_trend_for_large_fields():
    mesh, grid, model, dec, ctx = make_problem(cells=12, n_steps=3, p=3.0, lam=1.0)
    rng = np.random.default_rng(7)
    for ell in range(dec.q):
        n = ctx.bundle(ell).n_nodes
        u = 10.0 * rng.standard_normal((grid.n_steps, n))
        energy = grid.dt * sum(
            float(np.dot(apply_A(ctx, ell, k, u[k]), u[k]))
            for k in range(grid.n_steps))
        assert energy / v_norm_p(ctx, ell, u) ** 3.0 >= model.mono_const


def test_capacity_splits_across_subdomains():
    mesh = build_mesh((1.0,), (20,))
    grid = TimeGrid(T=1.0, n_steps=2)
    gamma = lambda x: 1.0 + np.asarray(x)[..., 0] ** 2
    dec = build_decomposition(mesh, 2, 0.4)
    ctx = build_context(mesh, p_laplace_model(2.0, gamma=gamma), grid, dec)
    cap_sum = np.zeros(mesh.n_nodes)
    for ell in range(dec.q):
        b = ctx.bundle(ell)
        np.add.at(cap_sum, b.nodes, b.cap)
    cap = ctx.bundle(None).cap
    assert np.max(np.abs(cap_sum - cap)) <= 1e-12 * max(1.0, cap.max())
    assert np.all(cap >= 0.0)
    assert np.all(ctx.bundle(None).m > 0.0)


def test_manufactured_residual_decays_under_refinement():
    norms = []
    for cells, nt in ((16, 4), (32, 8), (64, 16)):
        mesh = build_mesh((1.0,), (cells,))
        grid = TimeGrid(T=1.0, n_steps=nt)
        model = p_laplace_model(2.0, gamma=constant_gamma(1.0))
        exact = cosine_solution(1)
        model = model.with_source(manufactured_rhs(model, exact, mesh, grid))
        ctx = build_context(mesh, model, grid)
        norms.append(h_norm(ctx, primal_F(ctx, None, interpolate_exact(exact, mesh, grid))))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] <= norms[0] / 4.0


def _x_weighted(model):
    """The model with its flux and flux Jacobian scaled by 1 + x_0."""
    base_alpha, base_fjac = model.alpha, model.flux_jacobian

    def alpha(x, t, z):
        return (1.0 + x[..., :1]) * base_alpha(x, t, z)

    def flux_jacobian(x, t, z, eps):
        return (1.0 + x[..., 0, None, None]) * base_fjac(x, t, z, eps)

    return replace(model, alpha=alpha, flux_jacobian=flux_jacobian)


@pytest.mark.parametrize("cells", [20, (8, 6)])
def test_quadrature_kernels_match_einsum_reference(cells):
    # reference: the contractions written out over every quadrature point,
    # with the gradient repeated at each; the kernels evaluate it once per
    # element and group the sums differently, so they agree to rounding.
    # The x-weighted flux differs between the quadrature points of an element
    mesh, grid, model, dec, ctx = make_problem(cells=cells, n_steps=3, p=3.5,
                                               lam=1.0, source="cos")
    weighted = _x_weighted(model)
    cases = [(model, ctx), (weighted, build_context(mesh, weighted, grid, dec))]
    rng = np.random.default_rng(4)
    for model, ctx in cases:
        for ell in (None, 0, (0, 1)):
            b = ctx.bundle(ell)
            u = rng.standard_normal((grid.n_steps, b.n_nodes))
            k, t = 1, grid.times[1]
            uq, zq = quad_values(b, u[k])
            n_el, n_q = uq.shape
            assert zq.shape == (n_el, 1, mesh.dim)
            z_ref = np.einsum("el,eld->ed", u[k][b.conn], b.dphi)
            z_ref = z_ref[:, None, :].repeat(n_q, axis=1)
            flux = model.alpha(b.qp, t, z_ref)
            reac = model.beta(b.qp, t, uq)
            parts = [np.einsum("eq,eqd,eld->el", b.wa, flux, b.dphi),
                     np.einsum("eq,eq,ql->el", b.wb, reac, b.phi)]
            scale = sum(b.scatter(np.abs(c)) for c in parts)
            ref = b.scatter(parts[0] + parts[1])
            assert np.all(np.abs(apply_A(ctx, ell, k, u[k]) - ref) <= 1e-14 * scale)

            jf = model.flux_jacobian(b.qp, t, z_ref, 1e-8)
            rp = model.reaction_derivative(b.qp, t, uq, 1e-8)
            parts = [np.einsum("eq,eqdk,eld,emk->elm", b.wa, jf, b.dphi, b.dphi),
                     np.einsum("eq,eq,ql,qm->elm", b.wb, rp, b.phi, b.phi)]
            ke = _element_matrices(ctx, b, t, (uq, zq), 1e-8)
            bound = 1e-14 * (np.abs(parts[0]) + np.abs(parts[1])).max(axis=(1, 2))
            assert np.all(np.abs(ke - parts[0] - parts[1]).max(axis=(1, 2)) <= bound)

            total = 0.0
            for uk in u:  # level by level: v_norm_p keeps this summation order
                uq, zq = quad_values(b, uk)
                total += float(np.sum(b.wa * np.linalg.norm(zq, axis=-1) ** model.p))
                total += float(np.sum(b.wb * np.abs(uq) ** model.p))
            assert v_norm_p(ctx, ell, u) == (grid.dt * total) ** (1.0 / model.p)
