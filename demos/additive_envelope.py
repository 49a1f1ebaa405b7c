"""Additive splitting and the exponential shift.

The additive scheme averages q independent subdomain resolvent solves, so
it parallelizes, but its convergence theory needs each subdomain operator
to be H-monotone.  The reaction weights vanish outside their subdomain,
which kills that constant.  The fix is the change of variables
u = e^{qt} u_hat: in hat variables every subdomain operator gains a
capacity term q * g_l * gamma * u_hat, and the partition of unity of the
g-weights restores a uniform monotonicity constant c.

This script runs the plain and shifted additive schemes on the same
linear problem and prints, for the shifted one, the measured squared
error in hat variables against the a priori envelope

    (1 + 2c/s)^(-N) * |u0 - u_hat|^2 + C(F_l) / (2 c s),   s = sqrt(N).

Run:  python3 demos/additive_envelope.py
"""

import numpy as np

from stsplit import (
    SchemeConfig,
    TimeGrid,
    build_context,
    build_decomposition,
    build_mesh,
    cosine_solution,
    h_norm,
    manufactured_rhs,
    p_laplace_model,
    primal_F,
    run_scheme,
    solve_monolithic,
)


def main():
    mesh = build_mesh((1.0,), (48,))
    grid = TimeGrid(T=0.25, n_steps=32)
    model = p_laplace_model(2.0)
    model = model.with_source(
        manufactured_rhs(model, cosine_solution(1), mesh, grid))
    q, c_min, gamma0 = 2, 0.1, 1.0
    dec = build_decomposition(mesh, q, 0.6, c_min=c_min)
    ctx = build_context(mesh, model, grid, dec)

    # the shifted context is the system for u_hat = e^{-qt} u, read in the
    # original variables: F_hat_ell(x) = F_ell^shift(up*x) / up
    ctx_s = build_context(mesh, model, grid, dec, shift=float(q))
    u_ref = solve_monolithic(ctx_s)
    up = np.exp(q * grid.times)[:, None]
    u_hat_h = u_ref / up

    # envelope ingredients: the averaged-sweep constant and the fixed-point
    # residual energy of the subdomain operators
    c_ing = q * c_min * gamma0
    theta = 1.0 - 1.0 / q
    C_F = sum(h_norm(ctx, primal_F(ctx_s, ell, u_ref) / up) ** 2
              for ell in range(q)) / q

    print(f"{'N':>4s} {'s':>6s} {'plain err':>12s} {'shifted err':>12s} "
          f"{'hat err^2':>12s} {'envelope':>12s}")
    for N in (16, 64, 256):
        s = float(np.sqrt(N))
        plain = run_scheme(ctx, SchemeConfig(scheme="AS", s=s, max_sweeps=N,
                                             stop_tol=0.0), u_ref=u_ref)
        shifted = run_scheme(ctx, SchemeConfig(scheme="AS_shifted", s=s,
                                               max_sweeps=N, stop_tol=0.0),
                             u_ref=u_ref)
        err_hat2 = h_norm(ctx, (1.0 / up) * shifted.u - u_hat_h) ** 2
        c_star = c_min * gamma0 / (1.0 + 2.0 * c_ing * theta / s)
        env = ((1.0 + 2.0 * c_star / s) ** (-N) * h_norm(ctx, u_hat_h) ** 2
               + C_F / (2.0 * c_star * s))
        print(f"{N:4d} {s:6.2f} {plain.trace.err_H[-1]:12.4e} "
              f"{shifted.trace.err_H[-1]:12.4e} {err_hat2:12.4e} "
              f"{env:12.4e}")
    print(f"\nconfirmed averaged-sweep constant c = {c_star:.4f} "
          f"(ingredient {c_ing:.2f}, coverage deficit {theta:.2f})")


if __name__ == "__main__":
    main()
