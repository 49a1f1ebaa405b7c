"""Discrete space-time operators on lumped-mass nodal fields.

A space-time field is a plain array of shape (n_steps, n_nodes) holding the
nodal values at the time levels t_k = k*dt, k = 1..n_steps; the level at
t = 0 is implicitly zero wherever the capacity is positive.  All dual
quantities (residuals, loads) are stored against the same nodal indexing;
dividing by the lumped mass maps them back to field space.

An OperatorContext freezes one discretization: mesh, model, time grid,
optional decomposition, and every precomputed table needed for assembly
(quadrature weights, weight profiles at quadrature points, capacity
diagonals, load vectors per time level).  Contexts are immutable after
construction and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform implicit-Euler grid on (0, T] with n_steps levels."""

    T: float
    n_steps: int

    def __post_init__(self):
        if self.T <= 0.0 or self.n_steps < 1:
            raise ConfigurationError("need T > 0 and at least one time step")

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def times(self):
        return self.dt * np.arange(1, self.n_steps + 1)


class _AssemblyBundle:
    """Per-(sub)domain assembly tables in local node numbering."""

    def __init__(self, nodes, conn, bandwidth, band_index, qw, qp, dphi, phi,
                 a_q, b_q, m, cap, loads):
        self.nodes = nodes  # global node ids
        self.n_nodes = len(nodes)
        self.conn = conn  # (n_el, n_loc) local indices
        self.bandwidth = bandwidth  # max |conn_i - conn_j| within an element
        self.band_index = band_index  # flat (e, l, m) -> LAPACK band storage
        self.qw = qw
        self.qp = qp
        self.dphi = dphi
        self.phi = phi
        self.a_q = a_q  # flux weights at quadrature points
        self.b_q = b_q  # reaction weights at quadrature points
        self.m = m  # restricted global lumped mass
        self.cap = cap  # m * g * gamma, the diagonal capacity weights
        self.loads = loads  # (n_steps, n_nodes) dual load vectors

    def scatter(self, contrib):
        """Accumulate (n_el, n_loc) element contributions into a nodal array."""
        return np.bincount(
            self.conn.ravel(), weights=contrib.ravel(), minlength=self.n_nodes
        )


def _weights_at_quad(phi, a_node_on_conn, b_elem):
    a_q = np.einsum("el,ql->eq", a_node_on_conn, phi)
    b_q = np.einsum("el,ql->eq", b_elem, phi)
    return a_q, b_q


def _make_bundle(mesh, grid, model, nodes, elements, a_node, b_elem, g_node,
                 gamma_nodes, lumped):
    local_of = np.full(mesh.n_nodes, -1, dtype=int)
    local_of[nodes] = np.arange(len(nodes))
    conn = local_of[mesh.elements[elements]]
    if np.any(conn < 0):
        raise ConfigurationError("subdomain elements reference outside nodes")
    # element entry (l, m) lands at ab[bw + i - j, j], i = conn[l], j = conn[m]
    n_loc = conn.shape[1]
    rows = np.repeat(conn, n_loc, axis=1)
    cols = np.tile(conn, (1, n_loc))
    bandwidth = int(np.max(np.abs(rows - cols)))
    band_index = ((bandwidth + rows - cols) * len(nodes) + cols).ravel()
    qw = mesh.quad_weights[elements]
    qp = mesh.quad_points[elements]
    dphi = mesh.basis_gradients[elements]
    phi = mesh.basis_at_quad
    a_q, b_q = _weights_at_quad(phi, a_node[mesh.elements[elements]], b_elem[elements])
    m = lumped[nodes]
    cap = m * g_node[nodes] * gamma_nodes[nodes]
    bundle = _AssemblyBundle(
        nodes=nodes, conn=conn, bandwidth=bandwidth, band_index=band_index,
        qw=qw, qp=qp, dphi=dphi, phi=phi, a_q=a_q, b_q=b_q, m=m, cap=cap,
        loads=None,
    )
    bundle.loads = _assemble_loads(bundle, model.source, grid)
    return bundle


def _assemble_loads(bundle, source, grid):
    """Dual load vectors: load_i(t_k) = int b*eta0*phi_i + a*eta . grad(phi_i)."""
    n_steps = grid.n_steps
    loads = np.empty((n_steps, bundle.n_nodes))
    for k, t in enumerate(grid.times):
        e0 = np.asarray(source.eta0(bundle.qp, t))
        ev = np.asarray(source.eta(bundle.qp, t))
        contrib = np.einsum("eq,eq,ql->el", bundle.qw * bundle.b_q, e0, bundle.phi)
        contrib += np.einsum("eq,eqd,eld->el", bundle.qw * bundle.a_q, ev, bundle.dphi)
        loads[k] = bundle.scatter(contrib)
    if not np.all(np.isfinite(loads)):
        raise NumericError("source densities produced non-finite load values")
    return loads


class OperatorContext:
    """Frozen discretization: mesh + model + time grid (+ decomposition)."""

    def __init__(self, mesh, model, grid, dec=None, reaction_shift=0.0):
        if dec is not None and dec.mesh is not mesh:
            raise ConfigurationError("decomposition was built for a different mesh")
        self.mesh = mesh
        self.model = model
        self.grid = grid
        self.dec = dec
        self.reaction_shift = float(reaction_shift)
        self.gamma_nodes = np.asarray(model.gamma(mesh.nodes), dtype=float)
        if np.any(self.gamma_nodes < 0.0):
            raise ConfigurationError("gamma must be nonnegative at mesh nodes")
        self.lumped_mass = mesh.lumped_mass

        all_nodes = np.arange(mesh.n_nodes)
        all_elems = np.arange(mesh.n_elements)
        ones_n = np.ones(mesh.n_nodes)
        ones_b = np.ones((mesh.n_elements, mesh.n_local))
        self._global = _make_bundle(
            mesh, grid, model, all_nodes, all_elems, ones_n, ones_b, ones_n,
            self.gamma_nodes, self.lumped_mass,
        )
        self._subs = []
        if dec is not None:
            for sub, w in zip(dec.subdomains, dec.weights):
                self._subs.append(
                    _make_bundle(
                        mesh, grid, model, sub.nodes, sub.elements, w.a,
                        w.b_elem, w.g_node, self.gamma_nodes, self.lumped_mass,
                    )
                )

    def bundle(self, ell=None):
        """Assembly tables for subdomain ell, or the whole domain if None."""
        if ell is None:
            return self._global
        if self.dec is None:
            raise ConfigurationError("context has no decomposition")
        return self._subs[ell]

    @property
    def q(self):
        return 0 if self.dec is None else self.dec.q


def build_context(mesh, model, grid, dec=None, reaction_shift=0.0):
    return OperatorContext(mesh, model, grid, dec, reaction_shift)


def _check_field(ctx, u, ell):
    u = np.asarray(u, dtype=float)
    n = ctx.bundle(ell).n_nodes
    if u.ndim != 2 or u.shape[0] != ctx.grid.n_steps or u.shape[1] != n:
        raise ValueError(
            f"field shape {u.shape} does not match grid "
            f"({ctx.grid.n_steps} levels, {n} nodes)"
        )
    return u


def apply_A(ctx, ell, k, u_k):
    """Dual action of the weighted spatial operator at time level k.

    r_i = int a*alpha(t_k, grad u) . grad(phi_i) + b*beta(t_k, u) phi_i,
    plus the diagonal exponential-shift reaction when the context carries one.
    k is the 0-based level index (physical time ctx.grid.times[k]).
    """
    b = ctx.bundle(ell)
    u_k = np.asarray(u_k, dtype=float)
    t = ctx.grid.times[k]
    ue = u_k[b.conn]
    uq = np.einsum("el,ql->eq", ue, b.phi)
    gz = np.einsum("el,eld->ed", ue, b.dphi)
    zq = np.broadcast_to(gz[:, None, :], b.qp.shape)
    flux = np.asarray(ctx.model.alpha(b.qp, t, zq))
    reac = np.asarray(ctx.model.beta(b.qp, t, uq))
    contrib = np.einsum("eq,eqd,eld->el", b.qw * b.a_q, flux, b.dphi)
    contrib += np.einsum("eq,eq,ql->el", b.qw * b.b_q, reac, b.phi)
    r = b.scatter(contrib)
    if ctx.reaction_shift != 0.0:
        r = r + ctx.reaction_shift * b.cap * u_k
    if not np.all(np.isfinite(r)):
        raise NumericError("model functions produced non-finite values in apply_A")
    return r


def apply_F(ctx, ell, u):
    """Dual residual of the full operator: time derivative + apply_A + load.

    u lives on the (sub)mesh selected by ell; the implicit level at t = 0
    is zero.  Returns an array of the same shape in the dual representation.
    """
    b = ctx.bundle(ell)
    u = _check_field(ctx, u, ell)
    dt = ctx.grid.dt
    out = np.empty_like(u)
    prev = np.zeros(b.n_nodes)
    for k in range(ctx.grid.n_steps):
        out[k] = b.cap * (u[k] - prev) / dt + apply_A(ctx, ell, k, u[k]) + b.loads[k]
        prev = u[k]
    return out


def h_inner(ctx, u, v, ell=None):
    """Lumped-mass space-time inner product on the (sub)domain."""
    b = ctx.bundle(ell)
    u = _check_field(ctx, u, ell)
    v = _check_field(ctx, v, ell)
    return ctx.grid.dt * float(np.einsum("ki,i,ki->", u, b.m, v))


def h_norm(ctx, u, ell=None):
    return np.sqrt(max(h_inner(ctx, u, u, ell), 0.0))


def v_norm_p(ctx, ell, u):
    """Weighted space-time norm: (sum_k dt [ int a|grad u|^p + b|u|^p ])^(1/p)."""
    b = ctx.bundle(ell)
    u = _check_field(ctx, u, ell)
    p = ctx.model.p
    total = 0.0
    for k in range(ctx.grid.n_steps):
        ue = u[k][b.conn]
        uq = np.einsum("el,ql->eq", ue, b.phi)
        gz = np.einsum("el,eld->ed", ue, b.dphi)
        gmag = np.linalg.norm(gz, axis=-1)
        total += float(np.sum(b.qw * b.a_q * (gmag[:, None] ** p)))
        total += float(np.sum(b.qw * b.b_q * np.abs(uq) ** p))
    return (ctx.grid.dt * total) ** (1.0 / p)


def k_functional(ctx, ell, u, constant=None):
    """Monotonicity gap functional: constant * ||u||_{V_ell}^p.

    u is a global field; restriction onto the subdomain happens internally.
    The default constant is the model's declared monotonicity constant.
    """
    c = ctx.model.mono_const if constant is None else constant
    u_loc = np.asarray(u)[:, ctx.bundle(ell).nodes]
    return c * v_norm_p(ctx, ell, u_loc) ** ctx.model.p


def primal_F(ctx, ell, u):
    """Field-space action of F_ell on a global field: extend(dual)/mass.

    Used once per run to seed the cached-residual identities; the sweeps
    themselves recover operator actions algebraically from resolvent
    right-hand sides.
    """
    b = ctx.bundle(ell)
    u = np.asarray(u, dtype=float)
    if ell is None:
        return apply_F(ctx, None, u) / ctx.lumped_mass[None, :]
    dual = apply_F(ctx, ell, u[:, b.nodes])
    out = np.zeros_like(u)
    out[:, b.nodes] = dual / b.m[None, :]
    return out
