"""A linear oracle for the wavefront engine.

At p = 2 the p-Laplace flux and reaction are linear, so every resolvent is
affine in its input and one sweep of a scheme is a map u -> Lu + c.  L and
c are built column by column from one-sweep runs, run_scheme(max_sweeps=1,
initial=e_i), on problems small enough for dense linear algebra; the
engine's pipelined sweeps are then checked against powers of that map, and
its fixed point against the monolithic solve.

The map is affine only where every Newton takes a pass: a warm block whose
start is already under its tolerance returns its start.  So the pipelined
runs also check that every warm block moved.
"""

import numpy as np
import pytest

import stsplit.resolvent
from conftest import make_problem
from stsplit import (
    SchemeConfig,
    constant_gamma,
    h_norm,
    indicator_gamma,
    run_scheme,
    solve_monolithic,
)

S = 3.0
SWEEPS = 40
DEGENERATE = dict(cells=8, n_steps=4,
                  gamma=indicator_gamma(0.0, 0.5))  # gamma = 0 on [0, 0.5)
NONDEGENERATE = dict(cells=8, n_steps=4, gamma=constant_gamma(1.0), lam=1.0)

# id: (scheme, s, problem, sweeps); each splitting scheme at two s on a
# degenerate and a nondegenerate problem
CASES = {
    f"{scheme}{kind}{tag}": (scheme, s, problem, SWEEPS)
    for scheme in ("AS", "PR", "DR")
    for kind, problem in (("", DEGENERATE), ("_nondegenerate", NONDEGENERATE))
    for tag, s in (("", S), ("_s1", 1.0))
}
# at 40 sweeps 24 of its 312 warm blocks start under their tolerance and
# stay put, so the run leaves the affine map; at 30 every one moves
CASES["AS_nondegenerate_s1"] = ("AS", 1.0, NONDEGENERATE, 30)
CASES["AS_shifted"] = ("AS_shifted", S, NONDEGENERATE, SWEEPS)
CASES["AS_2d"] = ("AS", S, dict(DEGENERATE, cells=(8, 3), n_steps=3), SWEEPS)


def _sweep(ctx, scheme, s, initial, max_sweeps=1):
    cfg = SchemeConfig(scheme=scheme, s=s, max_sweeps=max_sweeps, stop_tol=0.0)
    return run_scheme(ctx, cfg, initial=initial).u


def _affine_map(ctx, scheme, s):
    """L and c of one sweep u -> Lu + c, on the flattened field."""
    shape = (ctx.grid.n_steps, ctx.mesh.n_nodes)
    c = _sweep(ctx, scheme, s, np.zeros(shape)).ravel()
    columns = []
    for i in range(c.size):
        e = np.zeros(c.size)
        e[i] = 1.0
        columns.append(_sweep(ctx, scheme, s, e.reshape(shape)).ravel() - c)
    return np.column_stack(columns), c


def _counting_warm_moves(monkeypatch):
    """Record, per Newton call with warm blocks, whether each moved."""
    moved = []
    newton = stsplit.resolvent.newton_level_solve

    def recording(ctx, ell, s, k, u_prev, rhs, u0=None, warm=None):
        res = newton(ctx, ell, s, k, u_prev, rhs, u0=u0, warm=warm)
        if warm is not None:
            offsets = ctx.bundle(ell).offsets
            flags = np.broadcast_to(warm, len(offsets) - 1)
            for flag, lo, hi in zip(flags, offsets, offsets[1:]):
                if flag:
                    moved.append(not np.array_equal(res.values[lo:hi],
                                                    u0[lo:hi]))
        return res

    monkeypatch.setattr(stsplit.resolvent, "newton_level_solve", recording)
    return moved


@pytest.mark.parametrize("case", CASES)
def test_sweeps_follow_their_affine_map(case, monkeypatch):
    scheme, s, problem, sweeps = CASES[case]
    _, grid, _, _, ctx = make_problem(p=2.0, source="cos", **problem)
    shape = (grid.n_steps, ctx.mesh.n_nodes)
    with monkeypatch.context() as m:  # the map of sweeps run one by one
        m.setattr(stsplit.resolvent, "_STAGE_NODES", 1)
        L, c = _affine_map(ctx, scheme, s)

    # the paper's convergence claim, in this linear setting
    assert np.max(np.abs(np.linalg.eigvals(L))) < 1.0

    oracle = np.zeros(c.size)
    for _ in range(sweeps):
        oracle = L @ oracle + c
    oracle = oracle.reshape(shape)
    for stage_nodes in (1, stsplit.resolvent._STAGE_NODES):
        with monkeypatch.context() as m:
            m.setattr(stsplit.resolvent, "_STAGE_NODES", stage_nodes)
            moved = _counting_warm_moves(m)
            u = _sweep(ctx, scheme, s, None, max_sweeps=sweeps)
        assert len(moved) > 0 and all(moved)
        assert h_norm(ctx, u - oracle) <= 1e-12 * h_norm(ctx, oracle)

    if scheme in ("PR", "DR"):  # the alternating schemes settle on u_h
        fixed = np.linalg.solve(np.eye(c.size) - L, c).reshape(shape)
        u_h = solve_monolithic(ctx)
        assert h_norm(ctx, fixed - u_h) <= 1e-12 * h_norm(ctx, u_h)
