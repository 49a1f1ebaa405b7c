"""The matrix of a Newton step against the derivative of the level residual.

newton_level_solve documents its level residual as

    R(u) = s*m*u + cap*(u - growth*u_prev)/dt + A(u) + load - rhs,

with A = apply_A (which carries shift*cap*u under a shift).  The matrix that
Newton hands to `_solve_linear`, the assembled element matrices plus
diag(diag_extra), must be dR/du: exactly, up to rounding, at p = 2, where
the epsilon-regularization changes nothing, and up to the error of central
differences at p = 3, where |grad u| is kept away from 0.  The 2D flux
carries a skew term, so that a transposed (l, m) or (d, k) index shows.
"""

from dataclasses import replace

import numpy as np
import pytest

import stsplit.resolvent as resolvent
from conftest import make_problem, x_weighted
from stsplit import apply_A, build_context
from stsplit.operators import level_loads
from stsplit.resolvent import newton_level_solve

_SKEW = 0.7 * np.array([[0.0, 1.0], [-1.0, 0.0]])


def _skewed(model):
    """The model with the linear flux _SKEW z added in 2D, and its
    derivative _SKEW added to the flux Jacobian."""
    base_alpha, base_fjac = model.alpha, model.flux_jacobian

    def alpha(x, t, z):
        out = base_alpha(x, t, z)
        return out + z @ _SKEW.T if out.shape[-1] == 2 else out

    def flux_jacobian(x, t, z, eps):
        jf = base_fjac(x, t, z, eps)
        return jf + _SKEW if jf.shape[-1] == 2 else jf

    return replace(model, alpha=alpha, flux_jacobian=flux_jacobian)


class _Captured(Exception):
    """Stops the solve at its first linear system."""


def _first_system(monkeypatch, ctx, ell, s, k, u_prev, rhs, u0):
    """(ke, diag_extra, rhs) of the first linear solve of a Newton from u0."""
    captured = []

    def capture(bundle, ke, diag_extra, rhs, ab):
        captured.append((ke.copy(), diag_extra.copy(), rhs.copy()))
        raise _Captured

    monkeypatch.setattr(resolvent, "_solve_linear", capture)
    with pytest.raises(_Captured):
        newton_level_solve(ctx, ell, s, k, u_prev, rhs, u0=u0)
    return captured[0]


def _dense(bundle, ke, diag_extra):
    """ke, element-last as (n_loc, n_loc, n_el), assembled plus diag_extra."""
    mat = np.diag(diag_extra)
    conn = bundle.conn
    for i in range(conn.shape[1]):
        for j in range(conn.shape[1]):
            np.add.at(mat, (conn[:, i], conn[:, j]), ke[i, j])
    return mat


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("ell", [None, 1, (0, 1, 0)])
@pytest.mark.parametrize("cells", [12, (6, 4)])
def test_newton_matrix_is_the_residual_derivative(monkeypatch, cells, ell,
                                                  weighted, shifted, p):
    mesh, grid, model, dec, _ = make_problem(cells=cells, n_steps=3, p=p,
                                             lam=1.0, source="cos")
    model = _skewed(x_weighted(model) if weighted else model)
    ctx = build_context(mesh, model, grid, dec,
                        shift=float(dec.q) if shifted else 0.0)
    b = ctx.bundle(ell)
    # one level per block on the stack
    k = [2, 0, 1] if isinstance(ell, tuple) else 1
    s, dt, growth = 2.0, grid.dt, ctx.step_growth
    loads = level_loads(b, k)
    rng = np.random.default_rng(3)
    x = mesh.nodes[b.nodes]
    # u >= 1 with |grad u| >= 1 on every element: the regularization and
    # the kinks of |z| and |y| at 0 stay out of the way
    u0 = 1.0 + 2.0 * x[:, 0] + 0.5 * x[:, -1] + 0.01 * rng.random(b.n_nodes)
    u_prev = rng.standard_normal(b.n_nodes)
    rhs = b.m * rng.standard_normal(b.n_nodes)

    def residual(u):
        return (s * b.m * u + b.cap * (u - growth * u_prev) / dt
                + apply_A(ctx, ell, k, u) + loads - rhs)

    ke, diag_extra, neg_r = _first_system(monkeypatch, ctx, ell, s, k, u_prev,
                                          rhs, u0)
    r0 = residual(u0)
    assert np.all(np.abs(neg_r + r0) <= 1e-14 * np.abs(r0).max())
    got = _dense(b, ke, diag_extra)

    # central differences: exact but for rounding on the affine p = 2
    # residual, with error O(h^2) at p = 3
    h = 1.0 if p == 2.0 else 1e-5
    want = np.empty_like(got)
    for j in range(b.n_nodes):
        e = np.zeros(b.n_nodes)
        e[j] = h
        want[:, j] = (residual(u0 + e) - residual(u0 - e)) / (2.0 * h)
    tol = (1e-14 if p == 2.0 else 1e-9) * np.abs(want).max()
    assert np.abs(got - want).max() <= tol
