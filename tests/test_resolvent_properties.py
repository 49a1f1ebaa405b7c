"""Resolvent nonexpansiveness over randomized monotone problems.

For a monotone F_ell the resolvent R = (sI + F_ell)^{-1} satisfies
s*||R g1 - R g2||_H <= ||g1 - g2||_H.  Large inputs at large p make Newton
halve its steps, so this also checks that step halving alone solves every
monotone level system.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_problem, one_sweep
from stsplit import (
    ConfigurationError,
    ResolventConfig,
    constant_gamma,
    h_norm,
    indicator_gamma,
    resolvent_solve,
)


@st.composite
def cases(draw):
    if draw(st.booleans()):
        cells = draw(st.integers(6, 16))
    else:
        cells = (draw(st.integers(6, 8)), draw(st.integers(2, 3)))
    if draw(st.booleans()):
        gamma = constant_gamma(draw(st.sampled_from([0.0, 1.0])))
    else:
        lo = draw(st.floats(0.0, 0.8))
        gamma = indicator_gamma(lo, lo + draw(st.floats(0.1, 0.5)))
    return dict(
        cells=cells, gamma=gamma, n_steps=draw(st.integers(1, 3)),
        p=draw(st.floats(2.0, 6.0)), s=draw(st.floats(0.1, 10.0)),
        lam=draw(st.sampled_from([0.0, 1.0])),
        scale=draw(st.floats(0.01, 30.0)),
        batched=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=100, deadline=None)
@given(cases())
def test_resolvent_is_nonexpansive(case):
    try:
        mesh, grid, _, dec, ctx = make_problem(
            cells=case["cells"], n_steps=case["n_steps"], p=case["p"],
            lam=case["lam"], gamma=case["gamma"])
    except ConfigurationError:
        assume(False)
    rng = np.random.default_rng(case["seed"])
    shape = (grid.n_steps, mesh.n_nodes)
    g1 = case["scale"] * rng.standard_normal(shape)
    g2 = case["scale"] * rng.standard_normal(shape)
    s = case["s"]
    cfg = ResolventConfig(s=s)
    if case["batched"]:
        ells = tuple(range(dec.q))
        pairs = zip(one_sweep(ctx, ells, g1, cfg),
                    one_sweep(ctx, ells, g2, cfg))
    else:
        ell = int(rng.integers(dec.q))
        pairs = [(resolvent_solve(ctx, ell, g1, cfg),
                  resolvent_solve(ctx, ell, g2, cfg))]
    bound = h_norm(ctx, g1 - g2)
    for r1, r2 in pairs:
        assert s * h_norm(ctx, r1 - r2) <= (1.0 + 1e-8) * bound
