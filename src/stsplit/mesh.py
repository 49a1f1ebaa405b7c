"""Structured P1 meshes with precomputed quadrature and basis tables.

Supports uniform interval meshes in 1D and structured triangulations of a
rectangle in 2D (each cell split along the lower-left to upper-right
diagonal).  All assembly-relevant data (physical quadrature points, scaled
weights, basis values and gradients per element) is precomputed so that
residual and matrix assembly can run vectorized over all elements.
"""

import numpy as np

from .errors import ConfigurationError, as_integer, as_real

# 2-point Gauss on the reference interval [0, 1]: degree-3 exact.
_GAUSS2_POINTS = np.array([[0.5 - 0.5 / np.sqrt(3.0)], [0.5 + 0.5 / np.sqrt(3.0)]])
_GAUSS2_WEIGHTS = np.array([0.5, 0.5])

# Edge-midpoint rule on the reference triangle (0,0)-(1,0)-(0,1): degree-2 exact.
_TRI3_POINTS = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
_TRI3_WEIGHTS = np.array([1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0])


def _reference_basis(dim, points):
    """P1 basis values at reference points; returns (n_q, n_loc)."""
    if dim == 1:
        xi = points[:, 0]
        return np.stack([1.0 - xi, xi], axis=1)
    xi, eta = points[:, 0], points[:, 1]
    return np.stack([1.0 - xi - eta, xi, eta], axis=1)


class Mesh:
    """Conforming simplicial mesh of an axis-aligned domain.

    Attributes
    ----------
    dim : spatial dimension (1 or 2)
    nodes : (n_nodes, dim) coordinates
    elements : (n_elements, dim + 1) node indices per element
    element_volumes : (n_elements,) measures, all positive
    quad_points / quad_weights : (n_elements, n_q, dim) physical points of
        the reference rule (degree >= 2) and their (n_elements, n_q)
        |J|-scaled weights, all positive
    lumped_mass : (n_nodes,) row-sum lumped mass weights
    node_column / element_column : index along the first axis, used to carve
        the domain into overlapping strips: a node's rank among the distinct
        first coordinates, and the smallest of an element's corners
    """

    def __init__(self, dim, nodes, elements, extent, cells):
        self.dim = dim
        self.nodes = nodes
        self.elements = elements
        self.extent = tuple(extent)
        self.cells = tuple(cells)
        self.n_nodes = len(nodes)
        self.n_elements = len(elements)
        self.n_local = dim + 1
        self._build_tables()

    def _build_tables(self):
        if self.dim == 1:
            ref_points, ref_weights = _GAUSS2_POINTS, _GAUSS2_WEIGHTS
        else:
            ref_points, ref_weights = _TRI3_POINTS, _TRI3_WEIGHTS
        verts = self.nodes[self.elements]  # (n_el, n_loc, dim)
        v0 = verts[:, 0, :]
        edges = verts[:, 1:, :] - v0[:, None, :]  # (n_el, dim, dim)
        # an element of huge size has a measure that overflows to inf, and
        # one of subnormal size gradients that do
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.dim == 1:
                det = edges[:, 0, 0]
                ref_grads = np.array([[-1.0], [1.0]])
                inv_t = (1.0 / det)[:, None, None]  # d(xi)/dx
            else:
                det = (edges[:, 0, 0] * edges[:, 1, 1]
                       - edges[:, 0, 1] * edges[:, 1, 0])
                ref_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
                inv = np.empty((self.n_elements, 2, 2))
                inv[:, 0, 0] = edges[:, 1, 1]
                inv[:, 0, 1] = -edges[:, 1, 0]
                inv[:, 1, 0] = -edges[:, 0, 1]
                inv[:, 1, 1] = edges[:, 0, 0]
                inv_t = inv / det[:, None, None]
            # physical gradients are constant per element for P1
            grads = np.einsum("ld,edk->elk", ref_grads, inv_t)
        if not np.all(np.isfinite(det)):
            raise ConfigurationError(
                "mesh cells too large: element measures overflow")
        if np.any(det <= 0.0):
            raise ConfigurationError("element with non-positive volume")
        if not np.all(np.isfinite(grads)):
            raise ConfigurationError(
                "mesh cells too small: basis gradients overflow")
        self.basis_gradients = grads
        self.element_volumes = np.abs(det) / (1.0 if self.dim == 1 else 2.0)
        self.basis_at_quad = _reference_basis(self.dim, ref_points)  # (n_q, n_loc)
        # physical quadrature points and |J|-scaled weights
        self.quad_points = v0[:, None, :] + np.einsum(
            "qd,edk->eqk", ref_points, edges
        )
        self.quad_weights = ref_weights[None, :] * np.abs(det)[:, None]
        self.lumped_mass = np.bincount(
            self.elements.ravel(),
            weights=np.repeat(self.element_volumes / self.n_local, self.n_local),
            minlength=self.n_nodes,
        )
        self.node_column = np.unique(self.nodes[:, 0], return_inverse=True)[1]
        self.element_column = self.node_column[self.elements].min(axis=1)


def build_mesh(extent, cells):
    """Build a uniform mesh of the box (0, extent[0]) x ... with cells per axis.

    Args:
        extent: sequence of finite positive side lengths, one per axis (1 or 2).
        cells: sequence of cell counts per axis, each >= 2.
    """
    extent = [as_real(e, "extent") for e in np.atleast_1d(extent).tolist()]
    cells = [as_integer(c, "cells") for c in np.atleast_1d(cells).tolist()]
    if len(extent) != len(cells):
        raise ConfigurationError("extent and cells must have matching length")
    dim = len(extent)
    if dim not in (1, 2):
        raise ConfigurationError(f"unsupported dimension {dim}; expected 1 or 2")
    if not all(0.0 < e < np.inf for e in extent):
        raise ConfigurationError("extent entries must be finite and positive")
    if any(c < 2 for c in cells):
        raise ConfigurationError("need at least 2 cells per axis")

    if dim == 1:
        nx = cells[0]
        nodes = np.linspace(0.0, extent[0], nx + 1)[:, None]
        elements = np.stack([np.arange(nx), np.arange(1, nx + 1)], axis=1)
        return Mesh(1, nodes, elements, extent, cells)

    nx, ny = cells
    xs = np.linspace(0.0, extent[0], nx + 1)
    ys = np.linspace(0.0, extent[1], ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)  # node id = i + j*(nx+1)
    i_idx, j_idx = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    i_idx, j_idx = i_idx.ravel(), j_idx.ravel()
    n00 = i_idx + j_idx * (nx + 1)
    n10 = n00 + 1
    n01 = n00 + (nx + 1)
    n11 = n01 + 1
    # diagonal from lower-left to upper-right in every cell
    lower = np.stack([n00, n10, n11], axis=1)
    upper = np.stack([n00, n11, n01], axis=1)
    elements = np.empty((2 * nx * ny, 3), dtype=int)
    elements[0::2] = lower
    elements[1::2] = upper
    return Mesh(2, nodes, elements, extent, cells)

