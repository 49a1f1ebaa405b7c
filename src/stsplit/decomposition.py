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

a and g are built as profiles over the node columns.  Each overlap's ramp
is built once: the right strip takes it and the left strip its complement,
so each family sums to one across subdomains by construction.  b on an
overlap element is g's profile at the element's corners.
"""

import numbers

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

    def names(self, ell):
        """Whether ell names a subdomain: an integer in [0, q), not a bool."""
        # the type test first: a fifth of the cost of isinstance on the hot path
        return ((type(ell) is int or isinstance(ell, numbers.Integral)
                 and not isinstance(ell, bool)) and 0 <= ell < self.q)

    def _nodes(self, ell):
        """Node ids of subdomain ell; another name raises ConfigurationError."""
        if not self.names(ell):
            raise ConfigurationError(
                f"subdomain {ell!r} is not an integer in [0, {self.q})")
        return self.subdomains[ell].nodes

    def restrict(self, ell, u):
        """Nodal restriction onto subdomain ell (last axis indexes nodes)."""
        nodes = self._nodes(ell)
        return _with_nodes(u, self.mesh.n_nodes)[..., nodes]

    def extend(self, ell, u_local):
        """Zero extension of a subdomain nodal array to the global mesh."""
        nodes = self._nodes(ell)
        u_local = _with_nodes(u_local, len(nodes))
        out = np.zeros(u_local.shape[:-1] + (self.mesh.n_nodes,))
        out[..., nodes] = u_local
        return out


def _with_nodes(u, n):
    """u as an array whose last axis has n entries, else ConfigurationError."""
    u = np.asarray(u)
    if u.shape[-1:] != (n,):
        raise ConfigurationError(
            f"array of shape {u.shape} does not have {n} nodes on its last axis")
    return u


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
    node_col = mesh.node_column
    elem_col = mesh.element_column
    corner_col = node_col[mesh.elements]  # (n_el, n_local)

    # column profiles, 1 on each strip and 0 off it; every overlap spans
    # 2*half + 1 node columns, where the right strip takes the ramp and the
    # left strip its complement
    steps = np.arange(2 * half + 1)
    ramp_a = steps / (2.0 * half)
    ramp_g = c_min + (1.0 - 2.0 * c_min) * steps / (2.0 * half)
    a_cols = np.zeros((q, n0 + 1))
    for ell in range(q):
        a_cols[ell, lo[ell]:hi[ell] + 1] = 1.0
    g_cols = a_cols.copy()
    shared_col = np.zeros(n0, dtype=bool)  # element columns of an overlap
    for j in range(q - 1):
        span = slice(starts[j], ends[j] + 1)
        a_cols[j + 1, span], a_cols[j, span] = ramp_a, 1.0 - ramp_a
        g_cols[j + 1, span], g_cols[j, span] = ramp_g, 1.0 - ramp_g
        shared_col[starts[j]:ends[j]] = True
    shared = shared_col[elem_col][:, None]

    subdomains = []
    weights = []
    for ell in range(q):
        node_in = (node_col >= lo[ell]) & (node_col <= hi[ell])
        elem_in = (elem_col >= lo[ell]) & (elem_col < hi[ell])
        subdomains.append(Subdomain(np.flatnonzero(node_in), np.flatnonzero(elem_in)))
        # b is g's profile at the corners of an overlap element (0 unless the
        # overlap is this strip's), else 1 on the strip and 0 off it
        b_elem = np.where(shared, g_cols[ell, corner_col], elem_in[:, None])
        weights.append(WeightFamily(a_cols[ell, node_col], b_elem,
                                    g_cols[ell, node_col]))

    return Decomposition(mesh, q, subdomains, weights)
