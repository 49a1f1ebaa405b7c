"""Shared problem builders for the test suite."""

import warnings

import numpy as np

from stsplit import (
    TimeGrid,
    build_context,
    build_decomposition,
    build_mesh,
    constant_gamma,
    cosine_solution,
    manufactured_rhs,
    p_laplace_model,
    resolvent_solve,
)
from stsplit.resolvent import _FieldSweep

# A failing hypothesis test makes its pytest plugin import this module,
# whose libcst import raises a DeprecationWarning that pyproject.toml's
# error filter turns into an INTERNALERROR: the failing test goes unnamed
# and the later test files never run.  Imported here, once, with that
# warning ignored for this import alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def make_problem(cells=16, n_steps=4, T=1.0, p=2.0, lam=0.0, gamma=None,
                 q=2, overlap=0.5, c_min=0.1, source=None, amplitude=1.0):
    """Problem bundle (mesh, grid, model, dec, ctx) on the unit box.

    cells: an int for a 1D mesh, or (nx, ny) for a 2D one.
    source: None keeps the homogeneous equation, "cos" attaches the
    manufactured cosine load with the given amplitude.
    """
    cells = tuple(np.atleast_1d(cells))
    mesh = build_mesh((1.0,) * len(cells), cells)
    grid = TimeGrid(T=T, n_steps=n_steps)
    model = p_laplace_model(p, lam=lam,
                            gamma=gamma if gamma is not None else constant_gamma(1.0))
    if source == "cos":
        exact = cosine_solution(len(cells), amplitude=amplitude)
        model = model.with_source(manufactured_rhs(model, exact, mesh, grid))
    dec = build_decomposition(mesh, q, overlap, c_min=c_min)
    ctx = build_context(mesh, model, grid, dec)
    return mesh, grid, model, dec, ctx


def random_field(rng, grid, mesh, scale=1.0):
    return scale * rng.standard_normal((grid.n_steps, mesh.n_nodes))


def one_sweep(ctx, phase, g, cfg):
    """Outputs of the resolvents of the subdomains `phase` applied to g.

    One sweep of a one-phase chain: one global field per entry of phase,
    stacked in one array and solved as stacked level systems.
    """
    return next(resolvent_solve(ctx, (phase,), [_FieldSweep(g)], cfg)).out[0]
