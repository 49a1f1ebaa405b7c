"""The banded solve behind every Newton step, against a dense reference."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stsplit import (
    ConfigurationError,
    SolverError,
    TimeGrid,
    build_context,
    build_decomposition,
    build_mesh,
    p_laplace_model,
)
from stsplit.resolvent import _solve_linear


def _context(cells, q, overlap):
    mesh = build_mesh((1.0,) * len(cells), cells)
    dec = build_decomposition(mesh, q, overlap)
    return build_context(mesh, p_laplace_model(2.0), TimeGrid(T=1.0, n_steps=1), dec)


def _bundles(ctx):
    # the whole domain, each subdomain, a stack of them all, and a stack
    # that repeats them in reverse
    ells = tuple(range(ctx.dec.q))
    stacks = [ctx.bundle(ells), ctx.bundle(ells + ells[::-1])]
    return [ctx.bundle(None)] + stacks + [ctx.bundle(ell) for ell in ells]


def _dense(bundle, ke, diag_extra):
    mat = np.diag(diag_extra)
    for conn, block in zip(bundle.conn, ke.transpose(2, 0, 1)):
        mat[np.ix_(conn, conn)] += block
    return mat


@st.composite
def decompositions(draw):
    q = draw(st.integers(2, 4))
    nx = draw(st.integers(2 * q, 8 * q))
    cells = (nx,) if draw(st.booleans()) else (nx, draw(st.integers(2, 6)))
    return cells, q, draw(st.floats(0.2, 1.0))


@settings(max_examples=40, deadline=None)
@given(decompositions(), st.integers(0, 2**32 - 1))
def test_banded_solve_matches_dense(case, seed):
    try:
        ctx = _context(*case)
    except ConfigurationError:
        assume(False)
    rng = np.random.default_rng(seed)
    for bundle in _bundles(ctx):
        n_el, n_loc = bundle.conn.shape
        # positive semidefinite symmetric part plus a positive diagonal, as in
        # the Newton Jacobians of the built-in models; the skew part keeps a
        # transposed scatter from passing unnoticed
        half = rng.standard_normal((n_el, n_loc, n_loc))
        skew = rng.standard_normal((n_el, n_loc, n_loc))
        ke = half @ half.transpose(0, 2, 1) + skew - skew.transpose(0, 2, 1)
        ke = ke.transpose(1, 2, 0)  # element axis last
        diag_extra = rng.uniform(0.5, 2.0, bundle.n_nodes)
        rhs = rng.standard_normal(bundle.n_nodes)
        x = _solve_linear(bundle, ke, diag_extra, rhs)
        ref = np.linalg.solve(_dense(bundle, ke, diag_extra), rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("cells", [(12,), (8, 4)])
def test_singular_system_raises_solver_error(cells):
    for bundle in _bundles(_context(cells, 2, 0.5)):
        n_el, n_loc = bundle.conn.shape
        with pytest.raises(SolverError):
            _solve_linear(bundle, np.zeros((n_loc, n_loc, n_el)),
                          np.zeros(bundle.n_nodes), np.ones(bundle.n_nodes))


@pytest.mark.parametrize("cells", [(12,), (8, 4)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_system_raises_solver_error(cells, bad):
    for bundle in _bundles(_context(cells, 2, 0.5)):
        n_el, n_loc = bundle.conn.shape
        ke = np.ones((n_loc, n_loc, n_el))
        ke[0, -1, n_el // 2] = bad
        rhs = np.ones(bundle.n_nodes)
        with pytest.raises(SolverError):
            _solve_linear(bundle, ke, np.ones(bundle.n_nodes), rhs)
        assert np.all(rhs == 1.0)
