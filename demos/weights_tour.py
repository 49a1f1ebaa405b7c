"""Tour of the four weight families.

A decomposition carries one weight family per term of the equation:

  a  (nodal)     scales the flux; 1 deep inside the subdomain, slides to 0
                 at the internal boundary with slope bounded by 1/(overlap
                 width), so weighted fluxes stay controlled
  b  (element)   scales the reaction; stays >= c_min on the subdomain so a
                 usable monotonicity constant survives, drops to 0 outside
  g  (nodal)     scales the capacity (the time-derivative term); the
                 lumped version of b
  f-weights      reuse (b, a) to split the source densities, making the
                 subdomain operators sum exactly to the global one

All families form a partition of unity over the subdomains.  The script
prints them across the overlap seam of a 10-cell interval split in two.

Run:  python3 demos/weights_tour.py
"""

import numpy as np

from stsplit import TimeGrid, build_context, build_decomposition, build_mesh, p_laplace_model


def main():
    mesh = build_mesh((1.0,), (10,))
    dec = build_decomposition(mesh, 2, 0.4, c_min=0.1)
    x = mesh.nodes[:, 0]
    mids = mesh.nodes[mesh.elements].mean(axis=1)[:, 0]

    print("subdomain element strips:")
    for ell in range(dec.q):
        elems = dec.subdomains[ell].elements
        print(f"  subdomain {ell + 1}: elements {elems.min()}..{elems.max()}, "
              f"overlap fraction 0.4, c_min 0.1")

    print("\nnodal weights (a = flux, g = capacity):")
    print(f"{'x':>6s} {'a_1':>6s} {'a_2':>6s} {'g_1':>6s} {'g_2':>6s}")
    for i in range(mesh.n_nodes):
        print(f"{x[i]:6.2f} {dec.weights[0].a[i]:6.2f} "
              f"{dec.weights[1].a[i]:6.2f} {dec.weights[0].g_node[i]:6.2f} "
              f"{dec.weights[1].g_node[i]:6.2f}")

    print("\nelement weights (b = reaction, one value per element node):")
    print(f"{'mid':>6s} {'b_1':>13s} {'b_2':>13s}")
    for e in range(mesh.n_elements):
        b1, b2 = (" ".join(f"{v:6.2f}" for v in w.b_elem[e]) for w in dec.weights)
        print(f"{mids[e]:6.2f} {b1} {b2}")

    a_sum = dec.weights[0].a + dec.weights[1].a
    b_sum = dec.weights[0].b_elem + dec.weights[1].b_elem
    g_sum = dec.weights[0].g_node + dec.weights[1].g_node
    print(f"\npartition of unity deviations: "
          f"a {np.max(np.abs(a_sum - 1)):.1e}, "
          f"b {np.max(np.abs(b_sum - 1)):.1e}, "
          f"g {np.max(np.abs(g_sum - 1)):.1e}")

    # capacity reconstruction: lumped subdomain capacities tile the global one
    ctx = build_context(mesh, p_laplace_model(2.0), TimeGrid(T=1.0, n_steps=2),
                        dec)
    cap = np.zeros(mesh.n_nodes)
    for ell in range(dec.q):
        bundle = ctx.bundle(ell)
        np.add.at(cap, bundle.nodes, bundle.cap)
    dev = np.max(np.abs(cap - ctx.bundle().cap))
    print(f"capacity reconstruction deviation: {dev:.1e}")


if __name__ == "__main__":
    main()
