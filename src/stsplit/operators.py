"""Discrete space-time operators on lumped-mass nodal fields.

A space-time field is a plain array of shape (n_steps, n_nodes) holding the
nodal values at the time levels t_k = k*dt, k = 1..n_steps; the level at
t = 0 is implicitly zero wherever the capacity is positive.  All dual
quantities (residuals, loads) are stored against the same nodal indexing;
dividing by the lumped mass maps them back to field space.

An OperatorContext freezes one discretization: mesh, model, time grid,
optional decomposition, and every precomputed table needed for assembly
(quadrature weights times the weight profiles at quadrature points,
capacity diagonals, load vectors per time level).  The tables are named by
`ell`: None for the whole domain, a subdomain index, or a tuple of them for
their block-diagonal stack, on which several subdomain systems, at one
time level or at different ones, are solved as one.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError, as_integer


@dataclass(frozen=True)
class TimeGrid:
    """Uniform implicit-Euler grid on (0, T] with n_steps levels."""

    T: float
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "n_steps", as_integer(self.n_steps, "n_steps"))
        if not 0.0 < self.T < math.inf or self.n_steps < 1:
            raise ConfigurationError("need a finite T > 0 and n_steps >= 1")
        dt = self.dt
        if not (dt > 0.0 and math.isfinite(1.0 / dt)):
            raise ConfigurationError(
                f"time step T/n_steps = {dt!r} is too small: 1/dt is not finite")

    @property
    def dt(self):
        return self.T / self.n_steps

    @functools.cached_property
    def times(self):
        times = self.dt * np.arange(1, self.n_steps + 1)
        times.flags.writeable = False
        return times


def _band_layout(conn, n_nodes):
    """Bandwidth and flat LAPACK band-storage index of the element entries.

    Element entry (l, m) lands at ab[bw + i - j, j], i = conn[l], j = conn[m];
    bw is the largest |conn_i - conn_j| within an element.
    """
    n_loc = conn.shape[1]
    rows = np.repeat(conn, n_loc, axis=1)
    cols = np.tile(conn, (1, n_loc))
    bandwidth = int(np.max(np.abs(rows - cols)))
    return bandwidth, ((bandwidth + rows - cols) * n_nodes + cols).ravel()


class _AssemblyBundle:
    """Assembly tables in local node numbering.

    A plain bundle covers one subdomain, or the whole domain, and also holds
    its global node ids, its name (the subdomain index, or None) and its
    load vectors.  A stack (see `OperatorContext.bundle`) holds several
    plain bundles side by side as its `parts`: block i owns the local nodes
    offsets[i]:offsets[i+1] and the i-th run of elements, and no element
    couples two blocks, so every system assembled on it is block-diagonal.
    A plain bundle is its own single block.
    """

    def __init__(self, conn, qp, dphi, phi, wa, wb, m, cap, nodes=None,
                 name=None, parts=None):
        self.n_nodes = len(m)
        self.conn = conn  # (n_el, n_loc) local indices
        self.bandwidth, self.band_index = _band_layout(conn, self.n_nodes)
        self.qp = qp
        self.dphi = dphi
        self.phi = phi
        # phi_l * phi_m at each quadrature point, (n_q, n_loc**2)
        self.pp = (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), -1)
        self.wa = wa  # quadrature weight * flux weight, (n_el, n_q)
        self.wb = wb  # quadrature weight * reaction weight, (n_el, n_q)
        self.m = m  # restricted global lumped mass
        self.cap = cap  # m * g * gamma, the diagonal capacity weights
        self.parts = parts
        self.nodes = nodes  # global node ids
        self.name = name  # subdomain index, or None for the whole domain
        self.loads = None  # (n_steps, n_nodes) dual load vectors (plain bundles)
        if parts is None:
            self.offsets = (0, self.n_nodes)
            el_counts = [len(conn)]
        else:
            self.offsets = tuple(np.cumsum([0] + [b.n_nodes for b in parts]).tolist())
            el_counts = [len(b.conn) for b in parts]
            self.nodes = np.concatenate([b.nodes for b in parts])
            # the blocks of one size, and their nodes as the rows of one index
            lo, sizes = np.array(self.offsets[:-1]), np.diff(self.offsets)
            self._sum_rows = [(sizes == n, lo[sizes == n, None] + np.arange(n))
                              for n in np.unique(sizes)]
        blocks = np.arange(len(self.offsets) - 1)
        self.block_of_node = np.repeat(blocks, np.diff(self.offsets))
        self.block_of_element = np.repeat(blocks, el_counts)

    @property
    def blocks(self):
        """The plain bundles of the blocks, in order."""
        return (self,) if self.parts is None else self.parts

    def block_sum(self, w):
        """Sum of the nodal array w over each block, shape (n_blocks,).

        Each block is summed as w[lo:hi].sum() sums it; a segmented
        np.add.reduceat adds in a different order.
        """
        # kept: as one-block stacks, plain bundles made resolvent_pairs 6-17 % slower
        if self.parts is None:
            return w.sum(keepdims=True)
        out = np.empty(len(self.parts))
        for blocks, idx in self._sum_rows:
            out[blocks] = w[idx].sum(axis=1)
        return out

    def scatter(self, contrib):
        """Accumulate (n_el, n_loc) element contributions into a nodal array."""
        return np.bincount(
            self.conn.ravel(), weights=contrib.ravel(), minlength=self.n_nodes
        )


def _stack_bundles(parts):
    """One block-diagonal stack of the plain bundles `parts`, in order.

    A bundle may appear more than once.  The stack's tables are copies, so
    it can be dropped without touching the parts.
    """
    offsets = np.cumsum([0] + [b.n_nodes for b in parts])
    return _AssemblyBundle(
        conn=np.concatenate([b.conn + o for b, o in zip(parts, offsets)]),
        qp=np.concatenate([b.qp for b in parts]),
        dphi=np.concatenate([b.dphi for b in parts]),
        phi=parts[0].phi,
        wa=np.concatenate([b.wa for b in parts]),
        wb=np.concatenate([b.wb for b in parts]),
        m=np.concatenate([b.m for b in parts]),
        cap=np.concatenate([b.cap for b in parts]),
        parts=tuple(parts),
    )


def level_times(ctx, bundle, k):
    """Time of level k, broadcastable against the quadrature points.

    k is one level index, and the time a scalar, or on a stack one level per
    block, and the times are per element, shape (n_el, 1).  One level for
    the whole stack keeps the time a scalar.
    """
    t = ctx.grid.times[k]
    if bundle.parts is None or np.ndim(t) == 0:
        return t
    return t[bundle.block_of_element, None]


def level_loads(bundle, k):
    """Load vector of level k, or on a stack of level k or k[i] per block."""
    if bundle.parts is None:
        return bundle.loads[k]
    levels = np.broadcast_to(k, len(bundle.parts))
    return np.concatenate([b.loads[kb] for b, kb in zip(bundle.parts, levels)])


def quad_values(bundle, u):
    """Values (..., n_el, n_q) and gradients (..., n_el, 1, dim) of u at
    quadrature points; leading axes of u, such as levels, are kept.

    P1 gradients are constant on each element, so the gradient is evaluated
    once per element; its size-1 axis broadcasts against the quadrature
    points.
    """
    ue = u[..., bundle.conn]
    uq = np.einsum("...el,ql->...eq", ue, bundle.phi)
    gz = np.einsum("...el,eld->...ed", ue, bundle.dphi)
    return uq, gz[..., None, :]


def _make_bundle(mesh, grid, model, name, nodes, elements, a_node, b_elem,
                 g_node, gamma_nodes):
    local_of = np.full(mesh.n_nodes, -1, dtype=int)
    local_of[nodes] = np.arange(len(nodes))
    conn = local_of[mesh.elements[elements]]
    if np.any(conn < 0):
        raise ConfigurationError("subdomain elements reference outside nodes")
    qw = mesh.quad_weights[elements]
    phi = mesh.basis_at_quad
    a_q = np.einsum("el,ql->eq", a_node[mesh.elements[elements]], phi)
    b_q = np.einsum("el,ql->eq", b_elem[elements], phi)
    m = mesh.lumped_mass[nodes]
    bundle = _AssemblyBundle(
        conn=conn, qp=mesh.quad_points[elements],
        dphi=mesh.basis_gradients[elements], phi=phi, wa=qw * a_q,
        wb=qw * b_q, m=m, cap=m * g_node[nodes] * gamma_nodes[nodes],
        nodes=nodes, name=name,
    )
    bundle.loads = _assemble_loads(bundle, model.source, grid)
    return bundle


def _assemble_loads(bundle, source, grid):
    """Dual load vectors: load_i(t_k) = int b*eta0*phi_i + a*eta . grad(phi_i)."""
    n_steps = grid.n_steps
    loads = np.empty((n_steps, bundle.n_nodes))
    for k, t in enumerate(grid.times):
        e0 = _with_shape(source.eta0(bundle.qp, t), bundle.qp.shape[:-1], "eta0")
        ev = _with_shape(source.eta(bundle.qp, t), bundle.qp.shape, "eta")
        contrib = np.einsum("eq,eq,ql->el", bundle.wb, e0, bundle.phi)
        contrib += np.einsum("eq,eqd,eld->el", bundle.wa, ev, bundle.dphi)
        loads[k] = bundle.scatter(contrib)
    if not np.all(np.isfinite(loads)):
        raise NumericError("source densities produced non-finite load values")
    return loads


def _with_shape(values, shape, name):
    """values as an array of the given shape, else ConfigurationError."""
    values = np.asarray(values)
    if values.shape != shape:
        raise ConfigurationError(
            f"{name} returned an array of shape {values.shape}, expected {shape}")
    return values


class OperatorContext:
    """Frozen discretization: mesh + model + time grid (+ decomposition).

    shift is the rate q of the exponential shift u = e^{qt} u_hat, 0 for
    none.  Level k of the implicit-Euler system for u_hat, multiplied by
    e^{q t_k}, is in the original variables

        cap*(u_k - e^{q dt} u_{k-1})/dt + q*cap*u_k + A(t_k)u_k + load_k,

    so the context keeps step_growth = e^{q dt} (exactly 1.0 unshifted) for
    the time difference, and apply_A adds q*cap*u.  A shift needs gamma >=
    gamma_0 > 0 on the whole domain.

    Immutable but for the one stack it keeps, the last one `bundle` built.
    """

    def __init__(self, mesh, model, grid, dec=None, shift=0.0):
        if dec is not None and dec.mesh is not mesh:
            raise ConfigurationError("decomposition was built for a different mesh")
        self.mesh = mesh
        self.model = model
        self.grid = grid
        self.dec = dec
        self.shift = float(shift)
        if not 0.0 <= self.shift * grid.dt <= math.log(sys.float_info.max):
            raise ConfigurationError(f"shift must be finite and nonnegative, "
                                     f"with e^(shift*dt) finite: {shift!r}")
        self.step_growth = math.exp(self.shift * grid.dt)
        gamma_nodes = _with_shape(np.asarray(model.gamma(mesh.nodes), dtype=float),
                                  (mesh.n_nodes,), "gamma")
        if not np.all((gamma_nodes >= 0.0) & np.isfinite(gamma_nodes)):
            raise ConfigurationError(
                "gamma must be finite and nonnegative at mesh nodes")
        if self.shift and not min(np.min(gamma_nodes), np.min(model.gamma(
                mesh.quad_points.reshape(-1, mesh.dim)))) > 0.0:
            raise ConfigurationError(
                "the shifted scheme needs gamma >= gamma_0 > 0 on the whole domain")

        all_nodes = np.arange(mesh.n_nodes)
        all_elems = np.arange(mesh.n_elements)
        ones_n = np.ones(mesh.n_nodes)
        ones_b = np.ones((mesh.n_elements, mesh.n_local))
        self._global = _make_bundle(
            mesh, grid, model, None, all_nodes, all_elems, ones_n, ones_b,
            ones_n, gamma_nodes,
        )
        self._subs = []
        if dec is not None:
            for ell, (sub, w) in enumerate(zip(dec.subdomains, dec.weights)):
                self._subs.append(
                    _make_bundle(
                        mesh, grid, model, ell, sub.nodes, sub.elements, w.a,
                        w.b_elem, w.g_node, gamma_nodes,
                    )
                )
        self._stack = (None, None)  # (name, stack) of the last stack built

    def bundle(self, ell=None):
        """Assembly tables: ell is None for the whole domain, a subdomain
        index, or a tuple of them (repeats allowed) for their stack in that
        order; a 1-tuple names the plain bundle.  The last stack built is
        kept while the same tuple is asked for, since the stages of a
        wavefront repeat theirs: on as1d_shifted_q3 a run builds 31 stacks
        for its 143 stages, about 4 ms, where a stack per stage took 30 ms
        (2 vCPU Xeon).  Every function that takes ell resolves it here, so
        names are checked here, by `Decomposition.names` for an index: a
        bool, an index outside [0, q) or an empty tuple raises
        ConfigurationError.
        """
        if isinstance(ell, tuple):
            if len(ell) == 1:
                (ell,) = ell
            elif ell == self._stack[0]:
                return self._stack[1]
            elif not ell:
                raise ConfigurationError("a stack names one subdomain or more")
            else:
                # each part as a 1-tuple, so that no part is itself a stack
                self._stack = ell, _stack_bundles([self.bundle((i,)) for i in ell])
                return self._stack[1]
        if ell is None:
            return self._global
        if self.dec is None:
            raise ConfigurationError("context has no decomposition")
        if self.dec.names(ell):
            return self._subs[ell]
        raise ConfigurationError(f"subdomain {ell!r} is neither None nor an "
                                 f"integer in [0, {self.dec.q})")


def build_context(mesh, model, grid, dec=None, shift=0.0):
    return OperatorContext(mesh, model, grid, dec, shift)


def _check_field(ctx, u, ell):
    """u as a float array if it is a finite field on ell, else ConfigurationError."""
    u = np.asarray(u, dtype=float)
    n = ctx.bundle(ell).n_nodes
    if u.shape != (ctx.grid.n_steps, n):
        raise ConfigurationError(
            f"field shape {u.shape} does not match grid "
            f"({ctx.grid.n_steps} levels, {n} nodes)"
        )
    if not np.all(np.isfinite(u)):
        raise ConfigurationError("field contains non-finite values")
    return u


def _check_level(bundle, u):
    """u as a float array if it is one level on bundle, else ConfigurationError.

    A shape compare only: apply_A runs it on every Newton trial.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (bundle.n_nodes,):
        raise ConfigurationError(f"level vector shape {u.shape} does not match "
                                 f"the {bundle.n_nodes} nodes")
    return u


def apply_A(ctx, ell, k, u_k, values=None):
    """Dual action of the weighted spatial operator at time level k.

    r_i = int a*alpha(t_k, grad u) . grad(phi_i) + b*beta(t_k, u) phi_i,
    plus the diagonal reaction shift*cap*u when the context carries a shift.
    k is the 0-based level index (physical time ctx.grid.times[k]); on a
    stack named by ell it may hold one level per block.  values, when given,
    is quad_values of u_k, which the caller has already evaluated.  The
    result is returned as computed, non-finite entries included.
    """
    b = ctx.bundle(ell)
    u_k = _check_level(b, u_k)
    t = level_times(ctx, b, k)
    uq, zq = quad_values(b, u_k) if values is None else values
    flux = ctx.model.alpha(b.qp, t, zq)
    reac = ctx.model.beta(b.qp, t, uq)
    # P1 gradients are constant per element: sum the flux over quadrature first
    contrib = np.einsum("ed,eld->el", np.einsum("eq,eqd->ed", b.wa, flux), b.dphi)
    contrib += (b.wb * reac) @ b.phi
    r = b.scatter(contrib)
    if ctx.shift != 0.0:
        r = r + ctx.shift * b.cap * u_k
    return r


def apply_F(ctx, ell, u):
    """Dual residual of the full operator: time derivative + apply_A + load.

    u lives on the (sub)mesh selected by ell; the implicit level at t = 0
    is zero, and the time difference grows the previous level by
    ctx.step_growth.  Returns an array of the same shape in the dual
    representation; non-finite entries raise NumericError.
    """
    b = ctx.bundle(ell)
    u = _check_field(ctx, u, ell)
    dt, growth = ctx.grid.dt, ctx.step_growth
    out = np.empty_like(u)
    prev = np.zeros(b.n_nodes)
    for k in range(ctx.grid.n_steps):
        out[k] = (b.cap * (u[k] - growth * prev) / dt
                  + apply_A(ctx, ell, k, u[k]) + b.loads[k])
        prev = u[k]
    if not np.all(np.isfinite(out)):
        raise NumericError("model functions produced non-finite values in apply_F")
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
    # all levels at once; the per-level sums are then added level by level
    uq, zq = quad_values(b, u)
    gmag = np.linalg.norm(zq, axis=-1)
    flux = (b.wa * gmag ** p).reshape(len(u), -1).sum(axis=1)
    reac = (b.wb * np.abs(uq) ** p).reshape(len(u), -1).sum(axis=1)
    total = 0.0
    for f, r in zip(flux.tolist(), reac.tolist()):
        total += f
        total += r
    return (ctx.grid.dt * total) ** (1.0 / p)


def k_functional(ctx, ell, u):
    """Monotonicity gap functional: c * ||u||_{V_ell}^p.

    u is a global field; restriction onto the subdomain happens internally.
    c is the model's declared monotonicity constant.
    """
    u_loc = _check_field(ctx, u, None)[:, ctx.bundle(ell).nodes]
    return ctx.model.mono_const * v_norm_p(ctx, ell, u_loc) ** ctx.model.p


def primal_F(ctx, ell, u):
    """Field-space action of F_ell on a global field: extend(dual)/mass.

    Used once per run to seed the cached-residual identities; the sweeps
    themselves recover operator actions algebraically from resolvent
    right-hand sides.
    """
    b = ctx.bundle(ell)
    u = _check_field(ctx, u, None)
    dual = apply_F(ctx, ell, u[:, b.nodes])
    out = np.zeros_like(u)
    out[:, b.nodes] = dual / b.m[None, :]
    return out
