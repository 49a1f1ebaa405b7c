"""The wavefront's one stack per chain.

Every chain stacks its phases once, in application order (entry i holds
phase i mod P), and every stage solves on one block range of that stack,
rotated so that phase 0 comes first when it holds whole cycles.  Every
range must hold the tables `OperatorContext.bundle` builds from the
range's names, so that every block sees what it saw on a stack of its own.
A range of one block is its subdomain's own bundle and the range of all
blocks is the stack itself, so a chain builds one stack, at its first
range of more than one block, and a single resolvent builds none.
"""

import numpy as np
import pytest

import stsplit.operators
import stsplit.resolvent
from conftest import make_problem, random_field
from stsplit import (ConfigurationError, ResolventConfig, SchemeConfig,
                     resolvent_solve, run_scheme)
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


def _cycled(phases, n_entries):
    """The names of a chain stack of n_entries entries, in application order."""
    return sum((phases[i % len(phases)] for i in range(n_entries)), ())


@pytest.mark.parametrize("cells, phases", [
    (24, ((0, 1, 2),)),  # the additive chain, q = 3
    (24, ((0,), (1,))),  # the alternating chain
    (24, ((0, 1), (2,))),  # two phases of different stacks
    ((8, 4), ((0, 1),)),
    ((8, 4), ((1,), (0,))),
    (24, ((0,), (1, 2), (2,))),
])
def test_every_block_range_is_the_stack_of_its_names(cells, phases):
    q = 1 + max(sum(phases, ()))
    *_, ctx = make_problem(cells=cells, n_steps=3, p=3.0, lam=1.0, q=q,
                           source="cos")
    names = _cycled(phases, 3 * len(phases))
    chain = ctx.bundle(names)
    assert chain.block_range(0, len(chain.blocks)) is chain
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
    """Record the tables and the levels of every stage's Newton, one level
    per block."""
    newton = stsplit.resolvent.newton_level_solve
    seen = []

    def recording(c, ell, s, k, *args, **kwargs):
        tables = c.bundle(ell)
        seen.append((tables, np.broadcast_to(k, len(tables.blocks))))
        return newton(c, ell, s, k, *args, **kwargs)

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


@pytest.mark.parametrize("phases", [
    ((0, 1, 2),), ((0,), (1,)), ((0, 1), (2,)),
    ((0,), (1,), (2,)), ((2,), (0, 1), (1,), (0,)),
])
def test_every_stage_solves_on_the_stack_of_its_names(monkeypatch, phases):
    mesh, grid, _, _, ctx = make_problem(cells=24, n_steps=12, p=3.0,
                                         lam=1.0, q=3, source="cos")
    seen = _record_stage_tables(monkeypatch)
    builds = _count_stack_builds(monkeypatch)
    g = random_field(np.random.default_rng(5), grid, mesh)
    sweeps = [_FieldSweep(g) for _ in range(8)]
    assert list(resolvent_solve(ctx, phases, sweeps,
                                ResolventConfig(s=4.0))) == sweeps
    # twelve applications run at once, whole cycles of every chain, so
    # some stages of them start at a later phase; at most `most` of each
    # phase: one stack of the phases cycled, with P - 2 entries more when
    # P > 2, and none per phase
    n_phases = len(phases)
    most = -(-12 // n_phases)
    names = _cycled(phases, n_phases * most + max(n_phases - 2, 0))
    assert builds == [len(names)]
    sizes = [len(tables.blocks) for tables, _ in seen]
    assert min(sizes) == min(len(phase) for phase in phases)
    cycle = sum(len(phase) for phase in phases)  # the blocks of one cycle
    rotated = 0
    for tables, levels in seen:
        stage = tuple(block.name for block in tables.blocks)
        assert_same_tables(tables, ctx.bundle(stage))
        assert any(names[i:i + len(stage)] == stage
                   for i in range(len(names)))
        # a stage's applications are consecutive, and an earlier one is at
        # a higher level, so the levels fall along the stack unless the
        # stage holds whole cycles that start at a later phase: then its
        # units are rotated, and it starts at phase 0
        if np.any(np.diff(levels) > 0):
            rotated += 1
            assert stage == _cycled(phases, len(stage) // cycle * n_phases)
    assert (rotated > 0) == (n_phases > 1)


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
    # AS's one phase is two subdomains: the chain's stack, of one entry,
    # is every stage's whole range
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


class _MisshapenSweep(_FieldSweep):
    """A field's levels, but level `bad` of phase 0 has `size` values."""

    def __init__(self, field, bad, size):
        super().__init__(field)
        self.bad, self.size = bad, size

    def level_input(self, phase, k):
        g = self.field[k]
        return np.resize(g, self.size) if k == self.bad else g


@pytest.mark.parametrize("n_sweeps", [1, 3])
@pytest.mark.parametrize("extra", [-1, 1])
def test_misshapen_level_input_is_a_configuration_error(n_sweeps, extra):
    # one sweep runs one application per stage; of three, the last one's
    # level 0 is solved in a stage with the first two's levels 2 and 1
    mesh, grid, _, _, ctx = make_problem(cells=24, n_steps=4, p=3.0,
                                         lam=1.0, q=3, source="cos")
    g = random_field(np.random.default_rng(3), grid, mesh)
    bad = 2 if n_sweeps == 1 else 0
    sweeps = [_FieldSweep(g) for _ in range(n_sweeps - 1)] + [
        _MisshapenSweep(g, bad, mesh.n_nodes + extra)]
    with pytest.raises(ConfigurationError,
                       match=rf"level {bad} of phase 0's input has shape "
                             rf"\({mesh.n_nodes + extra},\), not "
                             rf"\({mesh.n_nodes},\)$"):
        list(resolvent_solve(ctx, ((0,),), sweeps, ResolventConfig(s=4.0)))
