"""Overlapping strip decompositions and partition-of-unity weights.

The domain is carved into q strips along the first axis.  Adjacent strips
share an overlap of 2*half element columns centered on the ideal interface.
Each subdomain carries three weight profiles:

  a  - Lipschitz, piecewise linear, 1 on the exclusive region, ramps to 0
       at the internal boundary; weights the flux term.
  b  - bounded below by c_min on the subdomain, ramps between 1 - c_min and
       c_min across each overlap, drops to 0 outside; weights the reaction.
       Stored per element so the jump at the overlap seam is representable.
  g  - nodal variant of b used for the diagonal capacity weighting.

Within every overlap the left and right profiles are complements, so each
family sums to one across subdomains.
"""

import numpy as np

from .errors import ConfigurationError, as_integer


class Subdomain:
    """Index sets of one strip: its nodes and its elements."""

    def __init__(self, nodes, elements):
        self.nodes = nodes
        self.elements = elements


class WeightFamily:
    """Weight data for one subdomain, stored on the global mesh.

    a : (n_nodes,) nodal flux weights, zero off the subdomain
    b_elem : (n_elements, n_local) per-element reaction weights
    g_node : (n_nodes,) nodal capacity weights (overlap-side values at seams)
    The f-decomposition reuses (b_elem, a) for the two load densities.
    """

    def __init__(self, a, b_elem, g_node):
        self.a = a
        self.b_elem = b_elem
        self.g_node = g_node


class Decomposition:
    """Overlapping decomposition with restriction/extension operators."""

    def __init__(self, mesh, q, subdomains, weights):
        self.mesh = mesh
        self.q = q
        self.subdomains = subdomains
        self.weights = weights

    def restrict(self, ell, u):
        """Nodal restriction onto subdomain ell (last axis indexes nodes)."""
        return np.asarray(u)[..., self.subdomains[ell].nodes]

    def extend(self, ell, u_local):
        """Zero extension of a subdomain nodal array to the global mesh."""
        u_local = np.asarray(u_local)
        out = np.zeros(u_local.shape[:-1] + (self.mesh.n_nodes,))
        out[..., self.subdomains[ell].nodes] = u_local
        return out


def build_decomposition(mesh, q, overlap_fraction, c_min=0.1):
    """Split the mesh into q overlapping strips along the first axis.

    Args:
        mesh: structured Mesh from build_mesh.
        q: number of strips, an integer >= 2.
        overlap_fraction: overlap width as a fraction of the ideal strip
            width, finite and positive; rounded to a whole number of element
            columns (>= 2).
        c_min: lower bound of the b weights on their subdomain, in (0, 0.5).
    """
    q = as_integer(q, "q")
    if q < 2:
        raise ConfigurationError("need at least 2 subdomains")
    if not 0.0 < overlap_fraction < np.inf:
        raise ConfigurationError(
            f"overlap_fraction must be finite and positive, got {overlap_fraction!r}"
        )
    if not (0.0 < c_min < 0.5):
        raise ConfigurationError("c_min must lie in (0, 0.5)")
    n0 = mesh.cells[0]
    strip = n0 / q
    half = int(round(overlap_fraction * strip / 2.0))
    if half < 1:
        raise ConfigurationError(
            "overlap thinner than 2 element columns; increase overlap_fraction "
            "or refine the mesh"
        )
    interfaces = [int(round(j * strip)) for j in range(1, q)]
    starts = [c - half for c in interfaces]  # overlap start columns
    ends = [c + half for c in interfaces]
    # every subdomain needs a nonempty exclusive region between its overlaps
    gaps = [starts[0]] + [starts[j + 1] - ends[j] for j in range(q - 2)] + [n0 - ends[-1]]
    if min(gaps) < 1:
        raise ConfigurationError(
            f"{q} strips with this overlap leave no exclusive region; "
            "reduce q or the overlap"
        )

    lo = [0] + starts
    hi = ends + [n0]
    cols = np.arange(n0 + 1)
    node_col = mesh.node_column
    elem_col = mesh.element_column

    # per-overlap ramps, shared by the two adjacent subdomains as complements
    def ramp_a(c, j):
        return (c - starts[j]) / (2.0 * half)

    def ramp_b(c, j):
        return c_min + (1.0 - 2.0 * c_min) * (c - starts[j]) / (2.0 * half)

    a_cols = np.zeros((q, n0 + 1))
    g_cols = np.zeros((q, n0 + 1))
    for ell in range(q):
        inside = (cols >= lo[ell]) & (cols <= hi[ell])
        a_cols[ell, inside] = 1.0
        g_cols[ell, inside] = 1.0
        if ell > 0:
            span = (cols >= starts[ell - 1]) & (cols <= ends[ell - 1])
            a_cols[ell, span] = ramp_a(cols[span], ell - 1)
            g_cols[ell, span] = ramp_b(cols[span], ell - 1)
        if ell < q - 1:
            span = (cols >= starts[ell]) & (cols <= ends[ell])
            a_cols[ell, span] = 1.0 - ramp_a(cols[span], ell)
            g_cols[ell, span] = 1.0 - ramp_b(cols[span], ell)

    subdomains = []
    weights = []
    for ell in range(q):
        node_in = (node_col >= lo[ell]) & (node_col <= hi[ell])
        elem_in = (elem_col >= lo[ell]) & (elem_col < hi[ell])
        nodes = np.flatnonzero(node_in)
        elements = np.flatnonzero(elem_in)

        a = np.zeros(mesh.n_nodes)
        a[node_in] = a_cols[ell, node_col[node_in]]
        g = np.zeros(mesh.n_nodes)
        g[node_in] = g_cols[ell, node_col[node_in]]

        b_elem = np.zeros((mesh.n_elements, mesh.n_local))
        b_elem[elem_in, :] = 1.0
        elem_node_col = node_col[mesh.elements]  # (n_el, n_local)
        if ell > 0:
            span = elem_in & (elem_col >= starts[ell - 1]) & (elem_col < ends[ell - 1])
            b_elem[span, :] = ramp_b(elem_node_col[span], ell - 1)
        if ell < q - 1:
            span = elem_in & (elem_col >= starts[ell]) & (elem_col < ends[ell])
            b_elem[span, :] = 1.0 - ramp_b(elem_node_col[span], ell)

        subdomains.append(Subdomain(nodes, elements))
        weights.append(WeightFamily(a, b_elem, g))

    return Decomposition(mesh, q, subdomains, weights)
