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
    resolvent_solve,
)


def _assert_matches_per_subdomain(ctx, g, cfg):
    q = ctx.dec.q
    batched = resolvent_solve(ctx, tuple(range(q)), g, cfg)
    assert len(batched) == q
    for ell in range(q):
        assert np.array_equal(batched[ell], resolvent_solve(ctx, ell, g, cfg))


@st.composite
def cases(draw):
    q = draw(st.integers(2, 4))
    nx = draw(st.integers(2 * q, 6 * q))
    cells = nx if draw(st.booleans()) else (nx, draw(st.integers(2, 5)))
    return dict(
        cells=cells, q=q, overlap=draw(st.floats(0.2, 1.0)),
        p=draw(st.floats(2.0, 6.0)), s=draw(st.floats(0.1, 10.0)),
        scale=10.0 ** draw(st.floats(-2.0, 2.0)),
        max_halvings=draw(st.sampled_from([0, 30])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=30, deadline=None)
@given(cases())
def test_batched_equals_per_subdomain(case):
    try:
        mesh, grid, _, _, ctx = make_problem(
            cells=case["cells"], n_steps=2, p=case["p"], lam=1.0, q=case["q"],
            overlap=case["overlap"], source="cos")
    except ConfigurationError:
        assume(False)
    rng = np.random.default_rng(case["seed"])
    g = case["scale"] * rng.standard_normal((grid.n_steps, mesh.n_nodes))
    cfg = ResolventConfig(s=case["s"])
    # hypothesis forbids function-scoped fixtures, so patch by hand
    saved = stsplit.resolvent._MAX_HALVINGS
    stsplit.resolvent._MAX_HALVINGS = case["max_halvings"]
    try:
        _assert_matches_per_subdomain(ctx, g, cfg)
    except SolverError:
        # a non-convergent input must fail alone as well as batched
        with pytest.raises(SolverError):
            for ell in range(ctx.dec.q):
                resolvent_solve(ctx, ell, g, cfg)
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

    def counted_apply_a(*args):
        calls[-1][0] += 1
        return apply_a(*args)

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


def test_subdomain_tables_are_views_of_the_stack():
    _, _, _, _, ctx = make_problem(cells=(12, 4), q=3)
    stack = ctx.bundle((0, 1, 2))
    assert stack.offsets[0] == 0 and stack.offsets[-1] == stack.n_nodes
    for ell in range(3):
        sub = ctx.bundle(ell)
        a, b = stack.offsets[ell], stack.offsets[ell + 1]
        assert b - a == sub.n_nodes
        for name in ("nodes", "m", "cap", "loads", "qp", "dphi", "wa", "wb"):
            assert np.shares_memory(getattr(sub, name), getattr(stack, name))
        np.testing.assert_array_equal(stack.nodes[a:b], sub.nodes)
