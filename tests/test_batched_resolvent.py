"""The batched additive resolvent against one solve per subdomain."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stsplit.resolvent
from conftest import make_problem
from stsplit import (
    ConfigurationError,
    ResolventConfig,
    SolverError,
    build_context,
    resolvent_solve,
    shift_model,
)
from stsplit.operators import stack_bundles
from stsplit.resolvent import _stacker, newton_level_solve


def _assert_matches_per_subdomain(ctx, g, cfg):
    q = ctx.dec.q
    batched = resolvent_solve(ctx, tuple(range(q)), g, cfg)
    assert len(batched) == q
    for ell in range(q):
        assert np.array_equal(batched[ell], resolvent_solve(ctx, ell, g, cfg))


def _assert_stack_matches_blocks(ctx, blocks, s, rng, scale):
    """A stack of (subdomain, level) blocks against each block solved alone."""
    parts = [ctx.bundle(ell) for ell, _ in blocks]
    levels = [k for _, k in blocks]
    u_prev = [scale * rng.standard_normal(b.n_nodes) for b in parts]
    rhs = [scale * b.m * rng.standard_normal(b.n_nodes) for b in parts]
    alone = []
    for (ell, k), up, r in zip(blocks, u_prev, rhs):
        try:
            alone.append(newton_level_solve(ctx, ell, s, k, up, r))
        except SolverError as err:
            alone.append(err)
    stack = stack_bundles(parts)
    try:
        res = newton_level_solve(ctx, stack, s, levels, np.concatenate(u_prev),
                                 np.concatenate(rhs))
    except SolverError as err:
        # the stack fails for a block that fails alone, with its message
        assert isinstance(alone[err.block], SolverError)
        assert str(err) == str(alone[err.block])
        return
    assert not any(isinstance(a, SolverError) for a in alone)
    for i, a in enumerate(alone):
        lo, hi = stack.offsets[i], stack.offsets[i + 1]
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
    with pytest.raises(SolverError, match="on subdomain 2") as err:
        resolvent_solve(ctx, (0, 1, 2), g, cfg)
    assert err.value.worst_residual > 0.0
    for ell in (0, 1):  # the other blocks converge alone
        resolvent_solve(ctx, ell, g, cfg)


def test_batch_must_list_every_subdomain_in_order():
    mesh, grid, _, _, ctx = make_problem(q=3)
    g = np.zeros((grid.n_steps, mesh.n_nodes))
    for ell in ((0, 1), (2, 1, 0)):
        with pytest.raises(ConfigurationError):
            resolvent_solve(ctx, ell, g, ResolventConfig(s=1.0))


def test_stage_stack_is_reused_while_its_blocks_repeat():
    _, _, _, _, ctx = make_problem(cells=(12, 4), q=3)
    subs = [ctx.bundle(ell) for ell in range(3)]
    stack = _stacker()
    assert stack((subs[1],)) is subs[1]  # one block needs no stack
    full = stack(tuple(subs))
    assert stack(tuple(subs)) is full
    repeat = stack(tuple(subs + subs[:1]))
    assert repeat is not full and stack(tuple(subs)) is not full
    names = ("conn", "qp", "dphi", "wa", "wb", "m", "cap", "band_index")
    for name in names:
        np.testing.assert_array_equal(getattr(repeat, name),
                                      getattr(stack_bundles(subs + subs[:1]), name))
        for sub in subs:  # a stack copies, so dropping it frees its tables
            assert not np.shares_memory(getattr(repeat, name), getattr(sub, name))
    assert repeat.offsets[-1] == repeat.n_nodes == sum(
        b.n_nodes for b in subs + subs[:1])