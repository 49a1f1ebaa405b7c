"""The load vectors of a context, built in one pass over the source.

A context evaluates each source density once per level, at the quadrature
points of the whole mesh, and every bundle gathers its own elements' values
from that one evaluation.  The tests below check that this gives each
bundle, bit for bit, the loads of its own per-level assembly, and that the
densities are called once per level and no more.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stsplit.operators as operators
from stsplit import (
    ConfigurationError,
    NumericError,
    SourceTerm,
    TimeGrid,
    build_context,
    build_decomposition,
    build_mesh,
    cosine_solution,
    manufactured_rhs,
    p_laplace_model,
    zero_source,
)
from stsplit.cli import _custom_source


def _source(name, model, mesh, grid):
    dim = mesh.dim
    if name == "zero":
        return zero_source()
    if name == "manufactured_cos":
        return manufactured_rhs(model, cosine_solution(dim), mesh, grid)
    return _custom_source(dim, amplitude=0.7, mode=2, decay=1.5)


def _per_bundle_loads(ctx, b):
    """Loads of bundle b assembled on its own: each density evaluated at
    b's quadrature points, level by level."""
    source = ctx.model.source
    loads = np.empty((ctx.grid.n_steps, b.n_nodes))
    for k, t in enumerate(ctx.grid.times):
        e0 = np.asarray(source.eta0(b.qp, t))
        ev = np.asarray(source.eta(b.qp, t))
        loads[k] = b.scatter(operators._element_vectors(b, ev, e0))
    return loads


@st.composite
def contexts(draw):
    q = draw(st.integers(2, 3))
    nx = draw(st.integers(2 * q, 6 * q))
    cells = (nx,) if draw(st.booleans()) else (nx, draw(st.integers(2, 4)))
    return dict(cells=cells, q=q, overlap=draw(st.floats(0.1, 1.2)),
                n_steps=draw(st.integers(1, 4)),
                shift=draw(st.sampled_from([0.0, float(q)])),
                source=draw(st.sampled_from(["zero", "manufactured_cos",
                                             "custom"])),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(contexts())
def test_every_bundle_gets_its_own_assembly_bit_for_bit(case):
    mesh = build_mesh((1.0,) * len(case["cells"]), case["cells"])
    grid = TimeGrid(T=0.5, n_steps=case["n_steps"])
    model = p_laplace_model(3.0, lam=1.0)
    model = model.with_source(_source(case["source"], model, mesh, grid))
    try:
        dec = build_decomposition(mesh, case["q"], case["overlap"])
    except ConfigurationError:
        assume(False)
    ctx = build_context(mesh, model, grid, dec, shift=case["shift"])
    expected = {ell: _per_bundle_loads(ctx, ctx.bundle(ell))
                for ell in [None] + list(range(dec.q))}
    for ell, loads in expected.items():
        assert np.array_equal(ctx.bundle(ell).loads, loads), ell
    # a stack with repeats, each block at its own level
    rng = np.random.default_rng(case["seed"])
    names = tuple(rng.integers(0, dec.q, size=3).tolist())
    levels = rng.integers(0, grid.n_steps, size=3)
    got = operators.level_loads(ctx.bundle(names), levels)
    assert np.array_equal(got, np.concatenate(
        [expected[ell][k] for ell, k in zip(names, levels)]))


def _counted(source, calls):
    """source with every call to a density recorded as (name, x.shape, t)."""
    def wrap(name, density):
        def counted(x, t):
            calls.append((name, np.shape(x), t))
            return density(x, t)
        return counted
    return SourceTerm(eta0=wrap("eta0", source.eta0), eta=wrap("eta", source.eta))


@pytest.mark.parametrize("cells, q, shift", [((12,), 3, 0.0), ((12,), 3, 3.0),
                                             ((8, 3), 2, 0.0)])
def test_each_density_is_called_once_per_level_on_the_whole_mesh(cells, q,
                                                                 shift):
    mesh = build_mesh((1.0,) * len(cells), cells)
    grid = TimeGrid(T=0.5, n_steps=3)
    model = p_laplace_model(3.0, lam=1.0)
    calls = []
    model = model.with_source(_counted(
        manufactured_rhs(model, cosine_solution(mesh.dim), mesh, grid), calls))
    build_context(mesh, model, grid, build_decomposition(mesh, q, 0.6),
                  shift=shift)
    assert len(calls) == 2 * grid.n_steps
    assert calls == [(name, mesh.quad_points.shape, t)
                     for t in grid.times for name in ("eta0", "eta")]


@pytest.mark.parametrize("density", ["eta0", "eta"])
def test_non_finite_density_still_raises_at_the_build(density):
    mesh = build_mesh((1.0,), (12,))
    grid = TimeGrid(T=0.5, n_steps=3)
    dec = build_decomposition(mesh, 2, 0.6)
    base = _custom_source(1, amplitude=1.0, mode=1, decay=0.0)

    def poisoned(density):
        # NaN on the last element alone, which one subdomain owns, and at
        # the last level alone
        def values(x, t):
            out = np.array(density(x, t), dtype=float)
            if t == grid.times[-1]:
                out[np.asarray(x)[..., 0] > 11.0 / 12.0] = np.nan
            return out
        return values

    densities = {"eta0": base.eta0, "eta": base.eta}
    densities[density] = poisoned(densities[density])
    model = p_laplace_model(2.0).with_source(SourceTerm(**densities))
    with pytest.raises(NumericError, match="non-finite load values"):
        build_context(mesh, model, grid, dec)
