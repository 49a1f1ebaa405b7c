"""The benchmark's workloads, their rounds and their correctness gates.

A round is what one user-visible run does: build the discretization
(setup), solve the monolithic reference, then either run a splitting
scheme the way `stsplit run` does or push a fixed list of random field
pairs through single resolvents.  Every phase runs inside a span of the
given tracer; the untraced benchmark passes `NULL_TRACER`, whose spans
record nothing and install no wrappers.
"""

import contextlib
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from stsplit.decomposition import build_decomposition
from stsplit.errors import NumericError, SolverError
from stsplit.iteration import SchemeConfig, run_scheme
from stsplit.mesh import build_mesh
from stsplit.models import constant_gamma, indicator_gamma, p_laplace_model
from stsplit.operators import TimeGrid, build_context, h_norm, primal_F
from stsplit.reference import (
    cosine_solution,
    interpolate_exact,
    manufactured_rhs,
    solve_monolithic,
)
from stsplit.resolvent import ResolventConfig, resolvent_solve

# What counts as a failed operation rather than a crash of the benchmark.
OPERATION_ERRORS = (SolverError, NumericError, ValueError)

PAIR_S_VALUES = (0.5, 2.0, 10.0)
NONEXPANSIVE_SLACK = 1e-8


@dataclass(frozen=True)
class Workload:
    """One fixed problem; `scheme=None` selects the resolvent-pair loop."""

    name: str
    cells: tuple
    T: float
    n_steps: int
    q: int
    overlap: float
    scheme: Optional[str] = None
    s: float = 1.0
    sweeps: int = 0
    pairs: int = 0
    capacity_zero_below: Optional[float] = None  # gamma = 0 on [0, x)
    amplitude: float = 1.0
    p: float = 3.0
    lam: float = 1.0
    c_min: float = 0.1
    # Gate bounds, set from the values measured at the commit that
    # introduced the benchmark (see README.md): final scheme error against
    # the reference, reference distance to the interpolated manufactured
    # solution, and H-norm of the reference's own space-time residual.
    err_H_bound: float = 0.0
    ref_err_bound: float = 0.0
    ref_residual_bound: float = 0.0

    @property
    def seeded(self):
        return self.scheme is None


WORKLOADS = {
    w.name: w
    for w in (
        # Subdomains of 17-33 nodes: per-call Python overhead in residual,
        # assembly and banded solve dominates.  The q=3 fan-out is what
        # batching the additive resolvents targets.
        Workload(
            name="as1d_shifted_q3",
            cells=(48,), T=0.25, n_steps=32, q=3, overlap=0.6,
            scheme="AS_shifted", s=8.0, sweeps=64,
            err_H_bound=7.04e-4, ref_err_bound=9.01e-6, ref_residual_bound=4.3e-12,
        ),
        # 561-node subdomains: Jacobi-CG and the einsum assembly dominate,
        # and the monolithic reference is a real share of the run.
        Workload(
            name="as2d_q2",
            cells=(32, 32), T=0.25, n_steps=8, q=2, overlap=0.6,
            scheme="AS", s=2.0, sweeps=4,
            err_H_bound=3.31e-3, ref_err_bound=5.09e-5, ref_residual_bound=1.3e-10,
        ),
        # Sequential alternating scheme, capacity zero on half the domain:
        # the control on which additive batching should change nothing.
        Workload(
            name="pr1d_degenerate",
            cells=(64,), T=0.1, n_steps=16, q=2, overlap=1.0,
            scheme="PR", s=8.0, sweeps=100, capacity_zero_below=0.5,
            amplitude=0.25,
            err_H_bound=2.77e-7, ref_err_bound=2.92e-6, ref_residual_bound=1.0e-10,
        ),
        # Rough random inputs: the only workload that exercises the Newton
        # line search (step halvings) and the only seeded one.
        Workload(
            name="resolvent_pairs",
            cells=(48,), T=1.0, n_steps=32, q=2, overlap=0.5, pairs=24,
            ref_err_bound=9.69e-5, ref_residual_bound=3.6e-9,
        ),
    )
}


class NullTracer:
    """Stands in for a Tracer when nothing is recorded."""

    spans = ()
    absent = ()

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


def make_pairs(w, seed):
    """Seeded standard-normal field pairs, s cycling, subdomains alternating."""
    if not w.seeded:
        return []
    shape = (w.n_steps, int(np.prod([c + 1 for c in w.cells])))
    rng = np.random.default_rng(seed)
    per_s = w.pairs // len(PAIR_S_VALUES)
    out = []
    for s in PAIR_S_VALUES:
        for i in range(per_s):
            g1 = rng.standard_normal(shape)
            g2 = rng.standard_normal(shape)
            out.append((s, i % w.q, g1, g2))
    return out


def setup(w, tracer):
    """Mesh, manufactured source, decomposition and operator context."""
    span = tracer.span
    dim = len(w.cells)
    with span("mesh"):
        mesh = build_mesh((1.0,) * dim, w.cells)
    grid = TimeGrid(T=w.T, n_steps=w.n_steps)
    if w.capacity_zero_below is None:
        gamma = constant_gamma(1.0)
    else:
        gamma = indicator_gamma(0.0, w.capacity_zero_below)
    exact = cosine_solution(dim, amplitude=w.amplitude)
    with span("source"):
        model = p_laplace_model(w.p, lam=w.lam, gamma=gamma)
        model = model.with_source(manufactured_rhs(model, exact, mesh, grid))
    with span("decomposition"):
        dec = build_decomposition(mesh, w.q, w.overlap, c_min=w.c_min)
    with span("context"):
        ctx = build_context(mesh, model, grid, dec)
    return ctx, exact


def reference_gate(w, ctx, exact, u_h):
    """Problems found in the monolithic reference (empty list when it passes)."""
    problems = []
    dist = h_norm(ctx, u_h - interpolate_exact(exact, ctx.mesh, ctx.grid))
    if not dist <= w.ref_err_bound:
        problems.append(f"reference distance {dist:.6e} > {w.ref_err_bound:.6e}")
    resid = h_norm(ctx, primal_F(ctx, None, u_h))
    if not resid <= w.ref_residual_bound:
        problems.append(
            f"reference residual {resid:.6e} > {w.ref_residual_bound:.6e}")
    return problems


@dataclass
class Round:
    """Timings, operation tally and outcome of one round."""

    setup_s: float = 0.0
    reference_s: float = 0.0
    solve_s: float = 0.0
    wall_s: float = 0.0  # the whole round, gate included
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    sweeps: int = 0
    sweep_ms: tuple = ()
    # values that must repeat bit for bit in every round at one seed
    outcome: tuple = ()

    @property
    def run_s(self):
        return self.setup_s + self.reference_s + self.solve_s


def setup_and_reference(w, tracer, rnd):
    """Time setup and reference into `rnd`; returns (ctx, exact, u_h)."""
    t0 = time.perf_counter()
    with tracer.span("setup"):
        ctx, exact = setup(w, tracer)
    t1 = time.perf_counter()
    with tracer.span("reference"):
        u_h = solve_monolithic(ctx)
    t2 = time.perf_counter()
    rnd.setup_s, rnd.reference_s = t1 - t0, t2 - t1
    return ctx, exact, u_h


def run_round(w, pairs, tracer):
    """One full round; never raises for a failed operation."""
    rnd = Round()
    if w.seeded:
        _pairs_round(w, pairs, tracer, rnd)
    else:
        _scheme_round(w, tracer, rnd)
    return rnd


def _scheme_round(w, tracer, rnd):
    rnd.attempted = 1
    try:
        ctx, exact, u_h = setup_and_reference(w, tracer, rnd)
        cfg = SchemeConfig(scheme=w.scheme, s=w.s, max_sweeps=w.sweeps,
                           stop_tol=0.0)
        t0 = time.perf_counter()
        with tracer.span("solve"), tracer.span("iteration"):
            result = run_scheme(ctx, cfg, u_ref=u_h)
        rnd.solve_s = time.perf_counter() - t0
    except OPERATION_ERRORS as exc:
        rnd.failed = 1
        rnd.problems.append(f"{type(exc).__name__}: {exc}")
        return
    problems = reference_gate(w, ctx, exact, u_h)
    err_H = result.trace.err_H[-1]
    if not err_H <= w.err_H_bound:
        problems.append(f"final err_H {err_H:.6e} > {w.err_H_bound:.6e}")
    rnd.failed = int(bool(problems))
    rnd.problems += problems
    rnd.sweeps = result.sweeps
    rnd.sweep_ms = tuple(result.trace.wall_ms)
    rnd.outcome = (result.sweeps,) + tuple(result.trace.err_H)


def _pairs_round(w, pairs, tracer, rnd):
    # the round's reference solve is one operation, each pair another
    rnd.attempted = 1 + len(pairs)
    try:
        ctx, exact, u_h = setup_and_reference(w, tracer, rnd)
    except OPERATION_ERRORS as exc:
        rnd.failed = rnd.attempted
        rnd.problems.append(f"{type(exc).__name__}: {exc}")
        return
    results = []
    t0 = time.perf_counter()
    with tracer.span("solve"):
        for s, ell, g1, g2 in pairs:
            cfg = ResolventConfig(s=s)
            try:
                with tracer.span("resolvent"):
                    r1 = resolvent_solve(ctx, ell, g1, cfg)
                with tracer.span("resolvent"):
                    r2 = resolvent_solve(ctx, ell, g2, cfg)
                results.append((r1, r2))
            except OPERATION_ERRORS as exc:
                results.append(exc)
    rnd.solve_s = time.perf_counter() - t0
    problems = reference_gate(w, ctx, exact, u_h)
    rnd.failed += int(bool(problems))
    for (s, ell, g1, g2), res in zip(pairs, results):
        if isinstance(res, Exception):
            problems.append(f"pair s={s} ell={ell}: {type(res).__name__}: {res}")
            rnd.failed += 1
            continue
        ratio = s * h_norm(ctx, res[0] - res[1]) / h_norm(ctx, g1 - g2)
        if not ratio <= 1.0 + NONEXPANSIVE_SLACK:
            problems.append(f"pair s={s} ell={ell}: s*ratio {ratio:.12f}")
            rnd.failed += 1
        rnd.outcome += (ratio,)
    rnd.problems += problems
