"""The P1 quadrature kernels against a dense reference, over random problems.

The reference writes every quadrature sum out over every quadrature point,
with each element's gradient repeated at each of them; the kernels evaluate
the gradient once per element, sum the flux weights over the quadrature
points once per bundle, and group the sums differently, so the two agree to
rounding: within 1e-14 of the same sum taken over the absolute values of
its terms.  The draws cover 1D and 2D meshes, plain bundles, subdomains
and stacks with repeated blocks, one level per block, a flux that varies
between the quadrature points of an element, and a flux Jacobian that is
not symmetric.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stsplit.operators as operators
from conftest import make_problem, x_weighted
from stsplit import ConfigurationError, build_context, v_norm_p
from stsplit.operators import level_times, quad_values

_REL = 1e-14


def _skewed(model, c):
    """The model with c*[[0, 1], [-1, 0]] added to its 2D flux Jacobian."""
    base_fjac = model.flux_jacobian

    def flux_jacobian(x, t, z, eps):
        jf = base_fjac(x, t, z, eps)
        if jf.shape[-1] == 2:
            jf = jf + c * np.array([[0.0, 1.0], [-1.0, 0.0]])
        return jf

    return replace(model, flux_jacobian=flux_jacobian)


@st.composite
def cases(draw):
    if draw(st.booleans()):
        cells = draw(st.integers(4, 24))
    else:
        cells = (draw(st.integers(3, 8)), draw(st.integers(2, 5)))
    q = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["global", "subdomain", "stack"]))
    if kind == "global":
        ell = None
    elif kind == "subdomain":
        ell = draw(st.integers(0, q - 1))
    else:  # repeats allowed, as the wavefront's stages have them
        ell = tuple(draw(st.lists(st.integers(0, q - 1), min_size=2,
                                  max_size=4)))
    return dict(
        cells=cells, q=q, ell=ell, overlap=draw(st.floats(0.2, 1.0)),
        n_steps=draw(st.integers(1, 3)), p=draw(st.floats(2.0, 6.0)),
        lam=draw(st.sampled_from([0.0, 1.0])),
        weighted=draw(st.booleans()), skew=draw(st.floats(0.0, 2.0)),
        per_block_levels=draw(st.booleans()),
        scale=draw(st.floats(0.01, 10.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _within(got, want, scale):
    """Whether got equals want to _REL of scale, entry by entry."""
    return bool(np.all(np.abs(got - want) <= _REL * scale))


def _dense(spec, *operands):
    """np.einsum(spec, *operands) and the same sum of absolute values."""
    return (np.einsum(spec, *operands),
            np.einsum(spec, *[np.abs(x) for x in operands]))


def _reference(ctx, b, k, u):
    """Dense per-quadrature-point values, gradients, element residuals and
    element matrices of level vector u at level k, each with its scale."""
    model = ctx.model
    t = level_times(ctx, b, k)
    ue = u[b.conn]
    n_q = len(b.phi)
    uq = _dense("el,ql->eq", ue, b.phi)
    z = _dense("el,eld->ed", ue, b.grads.T)
    zq = z[0][:, None, :].repeat(n_q, axis=1)
    flux = np.broadcast_to(model.alpha(b.qp, t, zq), zq.shape)
    reac = model.beta(b.qp, t, uq[0])
    flux_terms = _dense("eq,eqd,eld->el", b.wa, flux, b.grads.T)
    reac_terms = _dense("eq,eq,ql->el", b.wb, reac, b.phi)
    residual = [flux_terms[i] + reac_terms[i] for i in (0, 1)]
    jf = model.flux_jacobian(b.qp, t, zq, 1e-8)
    jf = np.broadcast_to(jf, zq.shape + zq.shape[-1:])
    rp = model.reaction_derivative(b.qp, t, uq[0], 1e-8)
    flux_terms = _dense("eq,eqdk,eld,emk->lme", b.wa, jf, b.grads.T, b.grads.T)
    reac_terms = _dense("eq,eq,ql,qm->lme", b.wb, rp, b.phi, b.phi)
    matrices = [flux_terms[i] + reac_terms[i] for i in (0, 1)]
    return uq, z, residual, matrices


def _reference_loads(ctx, b, k):
    """Dense per-quadrature-point load vector of level k (one level per
    block on a stack), block by block."""
    source = ctx.model.source
    out = []
    for part, kb in zip(b.blocks, np.broadcast_to(k, len(b.blocks))):
        t = ctx.grid.times[kb]
        e0 = _dense("eq,eq,ql->el", part.wb, source.eta0(part.qp, t), part.phi)
        ev = _dense("eq,eqd,eld->el", part.wa, source.eta(part.qp, t), part.grads.T)
        out.append((part.scatter(e0[0] + ev[0]), part.scatter(e0[1] + ev[1])))
    return (np.concatenate([want for want, _ in out]),
            np.concatenate([scale for _, scale in out]))


def kernel_mismatches(ctx, ell, k, u):
    """Names of the kernels whose output leaves the dense reference at
    level vector u, level k (an empty list when every kernel matches).
    The kernels are looked up in their modules at the call."""
    b = ctx.bundle(ell)
    uq_ref, z_ref, residual, matrices = _reference(ctx, b, k, u)
    uq, zq = operators.quad_values(b, u)
    bad = []
    if zq.shape != (len(b.conn), 1, ctx.mesh.dim) or not (
            _within(uq, *uq_ref) and _within(zq[:, 0], *z_ref)):
        bad.append("quad_values")
    r = operators.apply_A(ctx, ell, k, u)
    if not _within(r, b.scatter(residual[0]), b.scatter(residual[1])):
        bad.append("apply_A")
    t = level_times(ctx, b, k)
    ke = operators._element_matrices(
        b, ctx.model.flux_jacobian(b.qp, t, zq, 1e-8),
        ctx.model.reaction_derivative(b.qp, t, uq, 1e-8))
    if not _within(ke, *matrices):
        bad.append("_element_matrices")
    want, scale = _reference_loads(ctx, b, k)
    if not _within(operators.level_loads(b, k), want, scale):
        bad.append("loads")
    return bad


def _levels(b, grid, rng, per_block):
    if per_block and b.parts is not None:
        return rng.integers(grid.n_steps, size=len(b.parts))
    return int(rng.integers(grid.n_steps))


@settings(max_examples=100, deadline=None)
@given(cases())
def test_kernels_match_the_dense_reference(case):
    try:
        mesh, grid, model, dec, ctx = make_problem(
            cells=case["cells"], n_steps=case["n_steps"], p=case["p"],
            lam=case["lam"], q=case["q"], overlap=case["overlap"],
            source="cos")
    except ConfigurationError:
        assume(False)
    model = _skewed(model, case["skew"])
    if case["weighted"]:
        model = x_weighted(model)
    ctx = build_context(mesh, model, grid, dec)
    rng = np.random.default_rng(case["seed"])
    ell = case["ell"]
    b = ctx.bundle(ell)
    u = case["scale"] * rng.standard_normal((grid.n_steps, b.n_nodes))
    k = _levels(b, grid, rng, case["per_block_levels"])
    assert kernel_mismatches(ctx, ell, k, u[0]) == []

    # all levels at once, then added level by level in v_norm_p, give the
    # sum that one level at a time gives, bit for bit
    total = 0.0
    for uk in u:
        uq, zq = quad_values(b, uk)
        total += float(np.sum(b.wa * np.linalg.norm(zq, axis=-1) ** model.p))
        total += float(np.sum(b.wb * np.abs(uq) ** model.p))
    assert v_norm_p(ctx, ell, u) == (grid.dt * total) ** (1.0 / model.p)


def test_a_perturbed_kernel_is_caught(monkeypatch):
    # the reference check above sees a relative error of 1e-12 in any one
    # kernel's output
    mesh, grid, model, dec, ctx = make_problem(cells=(8, 3), p=3.0, lam=1.0,
                                               overlap=1.0, source="cos")
    ctx = build_context(mesh, _skewed(model, 0.5), grid, dec)
    u = np.random.default_rng(2).standard_normal(ctx.bundle((0, 1)).n_nodes)
    assert kernel_mismatches(ctx, (0, 1), 1, u) == []

    def perturbed(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            first = out[0] if isinstance(out, tuple) else out
            first = first * (1.0 + 1e-12)
            return (first,) + out[1:] if isinstance(out, tuple) else first
        return wrapped

    for module, name, kernel in (
            (operators, "quad_values", "quad_values"),
            (operators, "_element_vectors", "apply_A"),
            (operators, "_element_matrices", "_element_matrices"),
            (operators, "level_loads", "loads")):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, perturbed(getattr(module, name)))
            assert kernel in kernel_mismatches(ctx, (0, 1), 1, u)
