"""The banded solve behind every Newton step, against a dense reference,
and the one band that a level solve refills on every pass."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stsplit.resolvent as resolvent
from conftest import make_problem
from stsplit import (
    ConfigurationError,
    SolverError,
    TimeGrid,
    build_context,
    build_decomposition,
    build_mesh,
    p_laplace_model,
)
from stsplit.resolvent import _solve_linear, newton_level_solve


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


def _band(bundle, fill=0.0):
    """Band storage for _solve_linear on bundle, every entry set to fill."""
    return np.full((2 * bundle.bandwidth + 1, bundle.n_nodes), fill)


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
        x = _solve_linear(bundle, ke, diag_extra, rhs, _band(bundle))
        ref = np.linalg.solve(_dense(bundle, ke, diag_extra), rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("cells", [(12,), (8, 4)])
def test_singular_system_raises_solver_error(cells):
    for bundle in _bundles(_context(cells, 2, 0.5)):
        n_el, n_loc = bundle.conn.shape
        with pytest.raises(SolverError):
            _solve_linear(bundle, np.zeros((n_loc, n_loc, n_el)),
                          np.zeros(bundle.n_nodes), np.ones(bundle.n_nodes),
                          _band(bundle))


@pytest.mark.parametrize("cells", [(12,), (8, 4)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_system_raises_solver_error(cells, bad):
    for bundle in _bundles(_context(cells, 2, 0.5)):
        n_el, n_loc = bundle.conn.shape
        ke = np.ones((n_loc, n_loc, n_el))
        ke[0, -1, n_el // 2] = bad
        rhs = np.ones(bundle.n_nodes)
        with pytest.raises(SolverError):
            _solve_linear(bundle, ke, np.ones(bundle.n_nodes), rhs,
                          _band(bundle))
        assert np.all(rhs == 1.0)


def _system(rng, bundle):
    """A random nonsingular system (ke, diag_extra, rhs) on bundle."""
    n_el, n_loc = bundle.conn.shape
    half = rng.standard_normal((n_loc, n_loc, n_el))
    ke = np.einsum("lie,mie->lme", half, half)
    return (ke, rng.uniform(0.5, 2.0, bundle.n_nodes),
            rng.standard_normal(bundle.n_nodes))


@pytest.mark.parametrize("cells", [(12,), (8, 4)])
def test_band_is_refilled_on_every_call(cells):
    # the band is the caller's and holds anything on entry: NaN, or what an
    # earlier solve left, which in 1D is the tridiagonal factorization that
    # LAPACK wrote over it
    rng = np.random.default_rng(3)
    for bundle in _bundles(_context(cells, 2, 0.5)):
        earlier, system = _system(rng, bundle), _system(rng, bundle)
        fresh = _solve_linear(bundle, *system, _band(bundle))
        assert np.array_equal(
            _solve_linear(bundle, *system, _band(bundle, np.nan)), fresh)
        ab = _band(bundle)
        _solve_linear(bundle, *earlier, ab)
        assert np.array_equal(_solve_linear(bundle, *system, ab), fresh)


def _stacked_newton(cells):
    """(ctx, ell, s, k, u_prev, rhs) of a Newton that takes several passes:
    a 1D subdomain, or a 2D stack of both subdomains."""
    _, _, _, _, ctx = make_problem(cells=cells, n_steps=4, p=3.0, lam=1.0,
                                   source="cos")
    ell = 0 if len(cells) == 1 else (0, 1)
    b = ctx.bundle(ell)
    rng = np.random.default_rng(8)
    rhs = b.m * rng.standard_normal(b.n_nodes)
    return ctx, ell, 2.0, 1, np.zeros(b.n_nodes), rhs


@pytest.mark.parametrize("cells", [(16,), (8, 6)])
def test_one_band_serves_every_pass(monkeypatch, cells):
    bands = []

    def recorded(bundle, ke, diag_extra, rhs, ab):
        bands.append(ab)
        return _solve_linear(bundle, ke, diag_extra, rhs, ab)

    monkeypatch.setattr(resolvent, "_solve_linear", recorded)
    res = newton_level_solve(*_stacked_newton(cells))
    assert res.iterations > 1
    assert len(bands) == res.iterations
    assert all(ab is bands[0] for ab in bands)


@pytest.mark.parametrize("cells", [(16,), (8, 6)])
def test_one_banded_solve_per_newton_pass(monkeypatch, cells):
    # the benchmark times the linear layer at scipy.linalg.solve_banded
    calls = []
    solve_banded = scipy.linalg.solve_banded

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_banded", counted)
    res = newton_level_solve(*_stacked_newton(cells))
    assert res.iterations > 1
    assert len(calls) == res.iterations
