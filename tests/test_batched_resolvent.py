"""The batched additive resolvent against one solve per subdomain."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stsplit.resolvent
from conftest import make_problem, one_sweep
from stsplit import (
    ConfigurationError,
    ResolventConfig,
    SolverError,
    build_context,
    resolvent_solve,
    shift_model,
)
from stsplit.resolvent import newton_level_solve


def _assert_matches_per_subdomain(ctx, g, cfg):
    q = ctx.dec.q
    batched = one_sweep(ctx, tuple(range(q)), g, cfg)
    assert len(batched) == q
    for ell in range(q):
        assert np.array_equal(batched[ell], resolvent_solve(ctx, ell, g, cfg))


def _solve_alone(ctx, ell, s, k, u_prev, rhs, u0=None):
    try:
        return newton_level_solve(ctx, ell, s, k, u_prev, rhs, u0)
    except SolverError as err:
        return err


def _same_solve(a, b):
    if isinstance(a, SolverError) or isinstance(b, SolverError):
        return str(a) == str(b)
    return np.array_equal(a.values, b.values) and a.iterations == b.iterations


def _assert_stack_matches_blocks(ctx, blocks, s, rng, scale, starts=None):
    """A stack of (subdomain, level) blocks against each block solved alone.

    starts is None, for no start, or holds one entry per block: None starts
    the block from its u_prev, a number from u_prev plus noise of that size.
    """
    ells = tuple(ell for ell, _ in blocks)
    parts = [ctx.bundle(ell) for ell in ells]
    levels = [k for _, k in blocks]
    u_prev = [scale * rng.standard_normal(b.n_nodes) for b in parts]
    rhs = [scale * b.m * rng.standard_normal(b.n_nodes) for b in parts]
    u0 = None
    if starts is not None:
        u0 = [up if size is None
              else up + size * scale * rng.standard_normal(len(up))
              for up, size in zip(u_prev, starts)]
    alone = []
    for i, ((ell, k), up, r) in enumerate(zip(blocks, u_prev, rhs)):
        alone.append(_solve_alone(ctx, ell, s, k, up, r,
                                  None if u0 is None else u0[i]))
        if u0 is not None and starts[i] is None:
            # starting from u_prev is no start at all
            assert _same_solve(alone[i], _solve_alone(ctx, ell, s, k, up, r))
    try:
        res = newton_level_solve(ctx, ells, s, levels, np.concatenate(u_prev),
                                 np.concatenate(rhs),
                                 None if u0 is None else np.concatenate(u0))
    except SolverError as err:
        # the stack fails with the message of a block that fails alone
        assert any(isinstance(a, SolverError) and str(a) == str(err)
                   for a in alone)
        return
    assert not any(isinstance(a, SolverError) for a in alone)
    offsets = ctx.bundle(ells).offsets
    for i, a in enumerate(alone):
        lo, hi = offsets[i], offsets[i + 1]
        assert np.array_equal(res.values[lo:hi], a.values)
    assert res.iterations == max(a.iterations for a in alone)


@st.composite
def cases(draw):
    q = draw(st.integers(2, 4))
    nx = draw(st.integers(2 * q, 6 * q))
    cells = nx if draw(st.booleans()) else (nx, draw(st.integers(2, 5)))
    n_steps = draw(st.integers(2, 4))
    block = st.tuples(st.integers(0, q - 1), st.integers(0, n_steps - 1))
    return dict(
        cells=cells, q=q, n_steps=n_steps, overlap=draw(st.floats(0.2, 1.0)),
        p=draw(st.floats(2.0, 6.0)), s=draw(st.floats(0.1, 10.0)),
        scale=10.0 ** draw(st.floats(-2.0, 2.0)),
        max_halvings=draw(st.sampled_from([0, 30])),
        seed=draw(st.integers(0, 2**32 - 1)),
        shifted=draw(st.booleans()),
        blocks=draw(st.lists(block, min_size=2, max_size=8)),
        starts=draw(st.lists(st.sampled_from([None, 1e-3, 1e-1, 1.0]),
                             min_size=8, max_size=8)),
    )


@settings(max_examples=30, deadline=None)
@given(cases())
def test_batched_equals_per_subdomain(case):
    try:
        mesh, grid, model, dec, ctx = make_problem(
            cells=case["cells"], n_steps=case["n_steps"], p=case["p"],
            lam=1.0, q=case["q"], overlap=case["overlap"], source="cos")
    except ConfigurationError:
        assume(False)
    if case["shifted"]:
        ctx = build_context(mesh, shift_model(model, dec), grid, dec,
                            reaction_shift=float(dec.q))
    rng = np.random.default_rng(case["seed"])
    g = case["scale"] * rng.standard_normal((grid.n_steps, mesh.n_nodes))
    cfg = ResolventConfig(s=case["s"])
    # hypothesis forbids function-scoped fixtures, so patch by hand
    saved = stsplit.resolvent._MAX_HALVINGS
    stsplit.resolvent._MAX_HALVINGS = case["max_halvings"]
    try:
        try:
            _assert_matches_per_subdomain(ctx, g, cfg)
        except SolverError:
            # a non-convergent input must fail alone as well as batched
            with pytest.raises(SolverError):
                for ell in range(ctx.dec.q):
                    resolvent_solve(ctx, ell, g, cfg)
        # blocks of mixed subdomains and levels, repeats allowed
        _assert_stack_matches_blocks(ctx, case["blocks"], case["s"], rng,
                                     case["scale"])
        # and each block started from its own u0
        _assert_stack_matches_blocks(ctx, case["blocks"], case["s"], rng,
                                     case["scale"], case["starts"])
    finally:
        stsplit.resolvent._MAX_HALVINGS = saved


@pytest.mark.parametrize("cells", [24, (8, 4)])
def test_one_block_halving_alone(monkeypatch, cells):
    mesh, grid, _, dec, ctx = make_problem(cells=cells, n_steps=2, p=6.0,
                                           lam=1.0)
    # constant input, rough and large on the nodes only subdomain 0 holds
    only = np.setdiff1d(dec.subdomains[0].nodes, dec.subdomains[1].nodes)
    g = np.full((grid.n_steps, mesh.n_nodes), 0.1)
    g[:, only] = 30.0 * np.random.default_rng(3).standard_normal(
        (grid.n_steps, len(only)))
    cfg = ResolventConfig(s=1.0)

    calls = []
    apply_a = stsplit.resolvent.apply_A
    newton = stsplit.resolvent.newton_level_solve

    def counted_apply_a(*args, **kwargs):
        calls[-1][0] += 1
        return apply_a(*args, **kwargs)

    def counted_newton(*args, **kwargs):
        res = newton(*args, **kwargs)
        calls[-1][1] += res.iterations + 1
        return res

    monkeypatch.setattr(stsplit.resolvent, "apply_A", counted_apply_a)
    monkeypatch.setattr(stsplit.resolvent, "newton_level_solve", counted_newton)
    for ell in range(2):
        calls.append([0, 0])
        resolvent_solve(ctx, ell, g, cfg)
    # residual evaluations beyond one per level and one per Newton pass
    # are trial steps: subdomain 0 halves its steps, subdomain 1 never does
    extra = [residuals - passes for residuals, passes in calls]
    assert extra[0] > 0 and extra[1] == 0
    _assert_matches_per_subdomain(ctx, g, cfg)


def test_failing_block_names_its_subdomain(monkeypatch):
    mesh, grid, _, dec, ctx = make_problem(cells=24, n_steps=2, p=4.0, q=3)
    g = np.zeros((grid.n_steps, mesh.n_nodes))
    only = np.setdiff1d(dec.subdomains[2].nodes,
                        np.union1d(dec.subdomains[0].nodes, dec.subdomains[1].nodes))
    g[:, only] = 1e8
    cfg = ResolventConfig(s=1.0)
    monkeypatch.setattr(stsplit.resolvent, "_MAX_ITERS", 1)
    monkeypatch.setattr(stsplit.resolvent, "_MAX_HALVINGS", 0)
    with pytest.raises(SolverError, match="on subdomain 2"):
        one_sweep(ctx, (0, 1, 2), g, cfg)
    for ell in (0, 1):  # the other blocks converge alone
        resolvent_solve(ctx, ell, g, cfg)


@st.composite
def stack_cases(draw):
    q = draw(st.integers(2, 4))
    nx = draw(st.integers(2 * q, 6 * q))
    cells = nx if draw(st.booleans()) else (nx, draw(st.integers(2, 5)))
    name = st.lists(st.integers(0, q - 1), min_size=2, max_size=6).map(tuple)
    names = draw(st.lists(name, min_size=1, max_size=3))
    order = draw(st.lists(st.integers(0, len(names) - 1), min_size=2,
                          max_size=6))
    return dict(cells=cells, q=q, overlap=draw(st.floats(0.2, 1.0)),
                names=[names[i] for i in order],
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(stack_cases())
def test_stage_stack_is_reused_while_its_blocks_repeat(case):
    try:
        *_, ctx = make_problem(cells=case["cells"], q=case["q"],
                               overlap=case["overlap"])
    except ConfigurationError:
        assume(False)
    rng = np.random.default_rng(case["seed"])
    built = []  # every stack seen, held so that no id is reused
    for ells in case["names"]:
        stack = ctx.bundle(tuple(list(ells)))  # an equal tuple, not this one
        if built and ells == built[-1][0]:
            assert stack is built[-1][1]
        else:
            assert all(stack is not b for _, b in built)
        built.append((ells, stack))
        # one block needs no stack, and naming one keeps the stack
        assert ctx.bundle(ells[:1]) is ctx.bundle(ells[0])
        assert ctx.bundle(ells) is stack

        parts = [ctx.bundle(ell) for ell in ells]
        assert stack.blocks == tuple(parts)
        sizes = [b.n_nodes for b in parts]
        offsets = stack.offsets
        assert offsets == tuple(np.cumsum([0] + sizes).tolist())
        assert offsets[-1] == stack.n_nodes
        np.testing.assert_array_equal(stack.block_of_node,
                                      np.repeat(range(len(parts)), sizes))
        np.testing.assert_array_equal(
            stack.block_of_element,
            np.repeat(range(len(parts)), [len(b.conn) for b in parts]))
        elements = np.cumsum([0] + [len(b.conn) for b in parts])
        for b, lo, hi, e in zip(parts, offsets, offsets[1:], elements):
            np.testing.assert_array_equal(stack.nodes[lo:hi], b.nodes)
            np.testing.assert_array_equal(stack.m[lo:hi], b.m)
            np.testing.assert_array_equal(stack.conn[e:e + len(b.conn)],
                                          b.conn + lo)

        # mixed magnitudes, so that another order of summation shows
        w = rng.standard_normal(stack.n_nodes) * 10.0 ** rng.uniform(
            -3.0, 3.0, stack.n_nodes)
        expected = [w[lo:hi].sum() for lo, hi in zip(offsets, offsets[1:])]
        assert np.array_equal(stack.block_sum(w), expected)

        names = ("conn", "qp", "dphi", "wa", "wb", "m", "cap", "band_index",
                 "nodes")
        for name in names:
            for b in parts:  # a stack copies, so dropping it frees its tables
                assert not np.shares_memory(getattr(stack, name),
                                            getattr(b, name))
