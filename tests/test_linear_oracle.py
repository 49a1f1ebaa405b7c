"""A linear oracle for the wavefront engine.

At p = 2 the p-Laplace flux and reaction are linear, so every resolvent is
affine in its input and one sweep of a scheme is a map u -> Lu + c.  L and
c are built column by column from one-sweep runs, run_scheme(max_sweeps=1,
initial=e_i), on problems small enough for dense linear algebra; the
engine's pipelined sweeps are then checked against powers of that map, and
its fixed point against the monolithic solve: the alternating schemes'
equals it, and AS_shifted's lies off the shifted one by at most the bias
term of acceptance criterion 05.

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
    build_context,
    constant_gamma,
    h_norm,
    indicator_gamma,
    primal_F,
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
    _, grid, _, dec, ctx = make_problem(p=2.0, source="cos", **problem)
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

    fixed = np.linalg.solve(np.eye(c.size) - L, c).reshape(shape)
    if scheme in ("PR", "DR"):  # the alternating schemes settle on u_h
        u_h = solve_monolithic(ctx)
        assert h_norm(ctx, fixed - u_h) <= 1e-12 * h_norm(ctx, u_h)
    if scheme == "AS_shifted":
        bias, term = _shifted_bias(ctx, dec, fixed, s)
        assert bias <= term


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("s", [1.0, 3.0, 8.0])
def test_shifted_bias_is_within_criterion_05_term(s, q):
    # 12 cells leave three strips an exclusive region each
    _, grid, _, dec, ctx = make_problem(p=2.0, source="cos", q=q,
                                        **dict(NONDEGENERATE, cells=12))
    L, c = _affine_map(ctx, "AS_shifted", s)
    fixed = np.linalg.solve(np.eye(c.size) - L, c).reshape(grid.n_steps, -1)
    bias, term = _shifted_bias(ctx, dec, fixed, s)
    assert bias <= term


def _shifted_bias(ctx, dec, fixed, s, c_min=0.1, gamma0=1.0):
    """The squared H-norm of fixed - u_ref in the shifted variables, u_ref
    the shifted monolithic solve, and criterion 05's bias term C_F/(2 c* s),
    with C_F and c* as that criterion computes them; c_min and gamma0 are
    make_problem's and the nondegenerate problem's."""
    q = dec.q
    ctx_s = build_context(ctx.mesh, ctx.model, ctx.grid, dec, shift=float(q))
    u_ref = solve_monolithic(ctx_s)
    up = np.exp(q * ctx.grid.times)[:, None]
    C_F = sum(h_norm(ctx, primal_F(ctx_s, ell, u_ref) / up) ** 2
              for ell in range(q)) / q
    c_ing, theta = q * c_min * gamma0, 1.0 - 1.0 / q
    c_star = c_min * gamma0 / (1.0 + 2.0 * c_ing * theta / s)
    return (h_norm(ctx, (fixed - u_ref) / up) ** 2,
            C_F / (2.0 * c_star * s))
