"""The wavefront's one stack per chain.

A chain of one or two phases stacks its phases' subdomains once, and each
stage of several applications solves on one block range of that stack.
Every range must hold the tables `OperatorContext.bundle` builds from the
range's names, so that every block sees what it saw on a stack of its own;
a stage of one application, and so every single resolvent, builds no stack.
"""

import numpy as np
import pytest

import stsplit.operators
import stsplit.resolvent
from conftest import make_problem, random_field
from stsplit import ResolventConfig, SchemeConfig, resolvent_solve, run_scheme
from stsplit.iteration import _AdditiveSweep
from stsplit.resolvent import _FieldSweep

FIELDS = ("conn", "band_index", "bandwidth", "m", "cap", "nodes", "loads",
          "qp", "grads", "wa", "wb", "wa_sum", "block_of_node",
          "block_of_element", "offsets")

# the tables a range takes from its stack as views
VIEWS = ("qp", "grads", "wa", "wb", "m", "cap", "nodes", "loads")


def assert_same_tables(got, want):
    assert got.blocks == want.blocks
    assert got.n_nodes == want.n_nodes
    for name in FIELDS:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("cells, phases", [
    (24, ((0, 1, 2),)),  # the additive chain, q = 3
    (24, ((0,), (1,))),  # the alternating chain
    (24, ((0, 1), (2,))),  # two phases of different stacks
    ((8, 4), ((0, 1),)),
    ((8, 4), ((1,), (0,))),
])
def test_every_block_range_is_the_stack_of_its_names(cells, phases):
    q = 1 + max(sum(phases, ()))
    *_, ctx = make_problem(cells=cells, n_steps=3, p=3.0, lam=1.0, q=q,
                           source="cos")
    names = sum((phase * 3 for phase in phases), ())
    chain = ctx.bundle(names)
    for lo in range(len(names)):
        for hi in range(lo + 1, len(names) + 1):
            part = chain.block_range(lo, hi)
            want = ctx.bundle(names[lo:hi])
            assert_same_tables(part, want)
            if hi - lo == 1:  # one block is its plain bundle
                assert part is want
                continue
            for name in VIEWS:
                assert np.shares_memory(getattr(part, name),
                                        getattr(chain, name)), name


def _record_stage_tables(monkeypatch):
    """Record the tables of every stage's Newton."""
    newton = stsplit.resolvent.newton_level_solve
    seen = []

    def recording(c, ell, *args, **kwargs):
        seen.append(c.bundle(ell))
        return newton(c, ell, *args, **kwargs)

    monkeypatch.setattr(stsplit.resolvent, "newton_level_solve", recording)
    return seen


def _count_stack_builds(monkeypatch):
    """Record the number of parts of every stack built."""
    build = stsplit.operators._stack_bundles
    builds = []

    def counted(parts):
        builds.append(len(parts))
        return build(parts)

    monkeypatch.setattr(stsplit.operators, "_stack_bundles", counted)
    return builds


@pytest.mark.parametrize("phases", [((0, 1, 2),), ((0,), (1,)),
                                    ((0, 1), (2,))])
def test_every_stage_solves_on_the_stack_of_its_names(monkeypatch, phases):
    mesh, grid, _, _, ctx = make_problem(cells=24, n_steps=6, p=3.0, lam=1.0,
                                         q=3, source="cos")
    seen = _record_stage_tables(monkeypatch)
    builds = _count_stack_builds(monkeypatch)
    g = random_field(np.random.default_rng(5), grid, mesh)
    sweeps = [_FieldSweep(g) for _ in range(8)]
    assert list(resolvent_solve(ctx, phases, sweeps,
                                ResolventConfig(s=4.0))) == sweeps
    # six applications run at once, as many of each phase: the phases' own
    # stacks at the call, then one stack of that many copies of each
    most = 6 // len(phases)
    chain = most * sum(len(phase) for phase in phases)
    assert builds == [len(phase) for phase in phases if len(phase) > 1] + [
        chain]
    sizes = [len(tables.blocks) for tables in seen]
    assert min(sizes) == min(len(phase) for phase in phases)
    assert max(sizes) == chain
    for tables in seen:
        want = ctx.bundle(tuple(block.name for block in tables.blocks))
        assert_same_tables(tables, want)


def test_single_resolvents_build_no_stack(monkeypatch):
    mesh, grid, _, _, ctx = make_problem(cells=24, n_steps=6, p=3.0, lam=1.0,
                                         q=3, source="cos")
    builds = _count_stack_builds(monkeypatch)
    g = random_field(np.random.default_rng(2), grid, mesh)
    for ell in range(3):
        resolvent_solve(ctx, ell, g, ResolventConfig(s=2.0))
    assert builds == []


def test_2d_chains_of_one_application_per_stage_build_no_stage_stack(
        monkeypatch):
    # the as2d_q2 subdomains: one application per stage
    *_, ctx = make_problem(cells=(32, 32), n_steps=2, T=0.25, p=3.0, lam=1.0,
                           q=2, overlap=0.6, source="cos")
    builds = _count_stack_builds(monkeypatch)
    run_scheme(ctx, SchemeConfig(scheme="PR", s=2.0, max_sweeps=2,
                                 stop_tol=0.0))
    assert builds == []
    # AS's one phase is a stack of two subdomains, built at the call
    run_scheme(ctx, SchemeConfig(scheme="AS", s=2.0, max_sweeps=2,
                                 stop_tol=0.0))
    assert builds == [2]


def test_yielded_outputs_stay_as_they_were():
    # more sweeps than the store has slots, so the slots of the yielded
    # sweeps are used again while the chain goes on
    *_, ctx = make_problem(cells=24, n_steps=4, p=3.0, lam=1.0, q=3,
                           source="cos")
    start = np.zeros((ctx.grid.n_steps, ctx.mesh.n_nodes))
    kept = []
    chain = (_AdditiveSweep(4.0, start) for _ in range(12))
    for sweep in resolvent_solve(ctx, ((0, 1, 2),), chain,
                                 ResolventConfig(s=4.0)):
        kept.append((sweep.out[0], sweep.out[0].copy()))
    assert len(kept) == 12
    for out, at_yield in kept:
        assert np.array_equal(out, at_yield)
