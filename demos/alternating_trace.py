"""Alternating splitting walkthrough.

Solves a 1D p-Laplace problem (p = 3, nonlinear reaction) with a
manufactured cosine source, then runs the two alternating resolvent
schemes against the monolithic solution.  The trace shows the two
monitored quantities side by side:

  * err_H        distance of the sweep iterate to the monolithic solution
  * sum k_l      the per-subdomain functional whose decay the alternating
                 analysis actually controls
  * |v - v*|     the transformed-variable norm; for the symmetrized scheme
                 this sequence is provably non-increasing sweep to sweep

Run:  python3 demos/alternating_trace.py
"""

import numpy as np

from stsplit import (
    SchemeConfig,
    TimeGrid,
    build_context,
    build_decomposition,
    build_mesh,
    cosine_solution,
    manufactured_rhs,
    p_laplace_model,
    run_scheme,
    solve_monolithic,
)


def build_problem():
    mesh = build_mesh((1.0,), (32,))
    grid = TimeGrid(T=0.25, n_steps=8)
    model = p_laplace_model(3.0, lam=1.0)
    model = model.with_source(
        manufactured_rhs(model, cosine_solution(1), mesh, grid))
    dec = build_decomposition(mesh, 2, 0.9, c_min=0.1)
    return build_context(mesh, model, grid, dec)


def main():
    ctx = build_problem()
    print("monolithic reference solve ...")
    u_h = solve_monolithic(ctx)

    for scheme in ("PR", "DR"):
        cfg = SchemeConfig(scheme=scheme, s=1.0, max_sweeps=100, stop_tol=0.0)
        result = run_scheme(ctx, cfg, u_ref=u_h)
        trace = result.trace
        print(f"\n{scheme}, s = {cfg.s:g}, "
              f"{result.sweeps} sweeps")
        print(f"{'sweep':>6s} {'err_H':>12s} {'sum k_l':>12s} {'|v-v*|':>12s}")
        for n in (0, 1, 4, 9, 24, 49, 99):
            v = trace.pr_v_norm[n]
            v_txt = f"{v:12.4e}" if v is not None else "           -"
            print(f"{trace.sweep[n]:6d} {trace.err_H[n]:12.4e} "
                  f"{trace.err_k_total[n]:12.4e} {v_txt}")

        if scheme == "PR":
            v_seq = trace.v_sequence()
            rises = sum(1 for a, b in zip(v_seq, v_seq[1:]) if b > a)
            print(f"transformed norm increases: {rises} of {len(v_seq) - 1}")


if __name__ == "__main__":
    main()
