"""Discrete space-time operators on lumped-mass nodal fields.

A space-time field is a plain array of shape (n_steps, n_nodes) holding the
nodal values at the time levels t_k = k*dt, k = 1..n_steps; the level at
t = 0 is implicitly zero wherever the capacity is positive.  All dual
quantities (residuals, loads) are stored against the same nodal indexing;
dividing by the lumped mass maps them back to field space.

An OperatorContext freezes one discretization: mesh, model, time grid,
optional decomposition, and every precomputed table needed for assembly
(quadrature weights times the weight profiles at quadrature points, capacity
diagonals, load vectors per time level).  The source densities are pointwise
functions of (x, t): the context evaluates each once per level, at the
quadrature points of the whole mesh, and restricts the values to each
subdomain's elements for its loads.  The tables are named by `ell`: None for
the whole domain, a subdomain index, or a tuple of them for their
block-diagonal stack, on which several subdomain systems, at one time level
or at several, are solved as one.  Tables pass wherever a name does.

The P1 quadrature sums run over per-element tables that each bundle builds
once (see _AssemblyBundle), with the element axis last, and each quantity
is evaluated in one place: values and gradients at the quadrature points
in `quad_values`, the flux weights in `_flux_sum`, the element vectors of
the residual and of the loads in `_element_vectors`, and the element
matrices of the Newton Jacobian in `_element_matrices`, in the order of
the band index.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NumericError, as_integer, as_real,
                     is_index)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform implicit-Euler grid on (0, T] with n_steps levels."""

    T: float
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "T", as_real(self.T, "T"))
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

    Element entry (l, m) of element e, i = conn[e, l], j = conn[e, m], lands
    at ab[bw + i - j, j]; bw is the largest |i - j| within an element.  The
    index runs over the entries in the order (l, m, e), element axis last,
    the order in which the element matrices are built.
    """
    # the element axis last in memory too: on the transposed view of conn
    # every broadcast operation strides, at about 5x the cost
    local = np.ascontiguousarray(conn.T)  # i or j at [l or m, e]
    diff = local[:, None, :] - local[None, :, :]  # i - j
    bandwidth = int(np.abs(diff).max())
    return bandwidth, ((bandwidth + diff) * n_nodes + local).ravel()


class _AssemblyBundle:
    """Assembly tables in local node numbering.

    A plain bundle covers one subdomain, or the whole domain, and also holds
    its name (the subdomain index, or None).  A stack (see
    `OperatorContext.bundle`) holds plain bundles side by side as its
    `parts`: block i owns the local nodes offsets[i]:offsets[i+1] and the
    i-th run of elements, and no element couples two blocks, so every system
    assembled on it is block-diagonal.  Every bundle holds its global node
    ids and its loads; a stack holds its parts' side by side.  A plain bundle
    is its own single block: offsets, block_of_node and block_of_element are
    built from the blocks alike, and block_sum adds each block's entries in
    node order, so a block sums to the same bits on a stack as alone.

    The basis gradients are kept once, as grads of shape (dim, n_loc, n_el)
    with the element axis last, so that every product over the elements
    runs along contiguous memory.
    """

    def __init__(self, conn, qp, grads, phi, wa, wb, m, cap, nodes,
                 name=None, loads=None, parts=None):
        self.n_nodes = len(m)
        self.conn = conn  # (n_el, n_loc) local indices
        self.bandwidth, self.band_index = _band_layout(conn, self.n_nodes)
        self.qp = qp
        self.grads = grads  # d(phi_l)/dx_d on element e at [d, l, e]
        self.phi = phi  # (n_q, n_loc) basis values at the quadrature points
        # phi_l * phi_m at each quadrature point, (n_loc**2, n_q)
        self.pp = (phi.T[:, None, :] * phi.T[None, :, :]).reshape(-1, len(phi))
        self.wa = wa  # quadrature weight * flux weight, (n_el, n_q)
        self.wa_sum = np.add.reduce(wa, axis=1)  # its sum per element, (n_el,)
        self.wb = wb  # quadrature weight * reaction weight, (n_el, n_q)
        self.m = m  # restricted global lumped mass
        self.cap = cap  # m * g * gamma, the diagonal capacity weights
        self.parts = parts
        self.nodes = nodes  # global node ids
        self.name = name  # subdomain index, or None for the whole domain
        self.loads = loads  # (n_steps, n_nodes) dual load vectors
        sizes = [b.n_nodes for b in self.blocks]
        self.offsets = tuple(np.cumsum([0] + sizes).tolist())
        blocks = np.arange(len(sizes))
        self.block_of_node = np.repeat(blocks, sizes)
        self.block_of_element = np.repeat(blocks,
                                          [len(b.conn) for b in self.blocks])

    @property
    def blocks(self):
        """The plain bundles of the blocks, in order."""
        return (self,) if self.parts is None else self.parts

    def block_range(self, lo, hi):
        """The stack of blocks lo, ..., hi - 1, with the tables that
        `OperatorContext.bundle` builds from their names: all blocks are
        this bundle, block lo alone is its plain bundle, and another range
        takes this stack's tables along the element and node axes as views,
        with its own node numbering, band index and block tables."""
        if hi - lo == len(self.blocks):
            return self
        if hi - lo == 1:
            return self.blocks[lo]
        n0, n1 = self.offsets[lo], self.offsets[hi]
        e0, e1 = self.block_of_element.searchsorted((lo, hi)).tolist()
        return _AssemblyBundle(
            conn=self.conn[e0:e1] - n0, qp=self.qp[e0:e1],
            grads=self.grads[..., e0:e1], phi=self.phi, wa=self.wa[e0:e1],
            wb=self.wb[e0:e1], m=self.m[n0:n1], cap=self.cap[n0:n1],
            nodes=self.nodes[n0:n1], loads=self.loads[:, n0:n1],
            parts=self.blocks[lo:hi])

    def block_sum(self, w):
        """Sum of the nodal array w over each block, in node order from 0.0."""
        return np.bincount(self.block_of_node, weights=w,
                           minlength=len(self.offsets) - 1)

    def scatter(self, contrib):
        """Accumulate (n_el, n_loc) element contributions into a nodal array."""
        return np.bincount(
            self.conn.ravel(), weights=contrib.ravel(), minlength=self.n_nodes
        )


def _stack_bundles(parts):
    """One block-diagonal stack of the plain bundles `parts`, in order.

    A bundle may appear more than once.  The stack's tables, node ids and
    loads included, are copies, so it can be dropped without the parts.
    """
    offsets = np.cumsum([0] + [b.n_nodes for b in parts])
    return _AssemblyBundle(
        conn=np.concatenate([b.conn + o for b, o in zip(parts, offsets)]),
        qp=np.concatenate([b.qp for b in parts]),
        grads=np.concatenate([b.grads for b in parts], axis=2),
        phi=parts[0].phi,
        wa=np.concatenate([b.wa for b in parts]),
        wb=np.concatenate([b.wb for b in parts]),
        m=np.concatenate([b.m for b in parts]),
        cap=np.concatenate([b.cap for b in parts]),
        nodes=np.concatenate([b.nodes for b in parts]),
        loads=np.concatenate([b.loads for b in parts], axis=1),
        parts=tuple(parts),
    )


def _levels(bundle, k, n_steps):
    """k as checked levels: one integer in [0, n_steps), not a bool, for all
    blocks, or on a stack one per block, as an integer array or as a list
    or tuple, returned as an array.  Anything else raises ConfigurationError."""
    if is_index(k, n_steps):  # first: it runs on every residual
        return k
    n = len(bundle.blocks)
    if (n > 1 and isinstance(k, (list, tuple)) and len(k) == n
            and all(is_index(kb, n_steps) for kb in k)):
        # as integers: np.array would promote mixed integer types to float
        k = np.array([int(kb) for kb in k])
    if (n > 1 and isinstance(k, np.ndarray) and k.shape == (n,)
            and k.dtype.kind in "iu" and 0 <= k.min() and k.max() < n_steps):
        return k
    raise ConfigurationError(f"level {k!r} is neither an integer in "
                             f"[0, {n_steps}) nor one such integer per block")


def level_times(ctx, bundle, k):
    """Time of level k, broadcastable against the quadrature points.

    k is one level index, and the time a scalar, or on a stack one level per
    block, and the times are per element, shape (n_el, 1).  One level for
    the whole stack keeps the time a scalar.  Other levels raise
    ConfigurationError (see _levels).
    """
    t = ctx.grid.times[_levels(bundle, k, ctx.grid.n_steps)]
    if t.ndim == 0:  # not np.ndim(t), whose dispatch every residual would pay
        return t
    return t[bundle.block_of_element, None]


def level_loads(bundle, k):
    """Loads of level k, row k of bundle.loads, or on a stack at level k[i]
    on block i each node's entry of its block's row; k as _levels checks it."""
    # the type test first, and not np.ndim(k), whose dispatch costs 7x
    if type(k) is int or not isinstance(k, np.ndarray):
        return bundle.loads[k]
    return bundle.loads[k[bundle.block_of_node], np.arange(bundle.n_nodes)]


def quad_values(bundle, u):
    """Values (..., n_el, n_q) and gradients (..., n_el, 1, dim) of u at
    quadrature points; leading axes of u, such as levels, are kept.

    P1 gradients are constant on each element, so the gradient is evaluated
    once per element, as the n_loc-term sum of u_l * grad(phi_l) with the
    element axis last; it is returned as a view in the model's axis order,
    whose size-1 axis broadcasts against the quadrature points.
    """
    ue = u[..., bundle.conn]
    gz = np.add.reduce(bundle.grads * ue.swapaxes(-1, -2)[..., None, :, :],
                       axis=-2)
    return ue @ bundle.phi.T, gz.swapaxes(-1, -2)[..., None, :]


def _flux_sum(bundle, values):
    """sum_q wa[e, q] * values[e, q, ...] with the axes of values reversed,
    element axis last: (dim, n_el) for a flux, (dim, dim, n_el) for the
    transpose of a flux Jacobian.

    values of size 1 along q, as a flux that depends on z alone gives
    (z is constant on each element; so do all built-in models), take the
    sum of wa that the bundle keeps; values that vary along q, as the
    source density eta or a flux that depends on x, are summed point by
    point.
    """
    if values.shape[1] == 1:
        return values[:, 0].T * bundle.wa_sum
    return np.add.reduce(values.T * bundle.wa.T, axis=-2)


def _element_vectors(bundle, flux, reac):
    """Element contributions (n_el, n_loc) of int a*flux . grad(phi_l) +
    b*reac*phi_l, from flux and reac at the quadrature points."""
    contrib = (bundle.wb * reac) @ bundle.phi
    f = _flux_sum(bundle, flux)
    for d in range(len(f)):  # one product of gradient columns per dimension
        contrib += (f[d] * bundle.grads[d]).T
    return contrib


def _element_matrices(bundle, jf, rp):
    """Element matrices (n_loc, n_loc, n_el) of the Newton Jacobian, in the
    order of bundle.band_index, from the flux Jacobian jf and the reaction
    derivative rp at the quadrature points."""
    grads = bundle.grads
    n_loc = grads.shape[1]
    # the sum over (d, k) of w_dk * grads[d, l] * grads[k, m], as the sum over
    # d of outer products of grads[d] and v[d] = sum_k w_dk * grads[k]; w[k, d]
    # holds w_dk
    w = _flux_sum(bundle, jf)
    v = w[0, :, None] * grads[0]
    for k in range(1, len(grads)):
        v += w[k, :, None] * grads[k]
    ke = (bundle.pp @ (bundle.wb * rp).T).reshape(n_loc, n_loc, -1)
    for d in range(len(grads)):
        ke += grads[d, :, None] * v[d]
    return ke


def _make_bundle(mesh, name, nodes, elements, a_node, b_elem, g_node,
                 gamma_nodes):
    local_of = np.full(mesh.n_nodes, -1, dtype=int)
    local_of[nodes] = np.arange(len(nodes))
    conn = local_of[mesh.elements[elements]]
    if np.any(conn < 0):
        raise ConfigurationError("subdomain elements reference outside nodes")
    qw = mesh.quad_weights[elements]
    phi = mesh.basis_at_quad
    a_q = a_node[mesh.elements[elements]] @ phi.T
    b_q = b_elem[elements] @ phi.T
    m = mesh.lumped_mass[nodes]
    return _AssemblyBundle(
        conn=conn, qp=mesh.quad_points[elements],
        grads=np.ascontiguousarray(mesh.basis_gradients[elements].T),
        phi=phi, wa=qw * a_q, wb=qw * b_q, m=m,
        cap=m * g_node[nodes] * gamma_nodes[nodes], nodes=nodes, name=name,
    )


def _assemble_loads(mesh, grid, source, targets):
    """Dual load vectors load_i(t_k) = int b*eta0*phi_i + a*eta . grad(phi_i),
    set as bundle.loads for every (bundle, elements) pair of targets.

    The densities are pointwise functions of (x, t): at each level they are
    evaluated once, at the quadrature points of the whole mesh, and each
    bundle gathers the values at its own elements.  One level's values are
    held at a time.
    """
    qp = mesh.quad_points
    for bundle, _ in targets:
        bundle.loads = np.empty((grid.n_steps, bundle.n_nodes))
    for k, t in enumerate(grid.times):
        e0 = _with_shape(source.eta0(qp, t), qp.shape[:-1], "eta0")
        ev = _with_shape(source.eta(qp, t), qp.shape, "eta")
        for bundle, elements in targets:
            bundle.loads[k] = bundle.scatter(
                _element_vectors(bundle, ev[elements], e0[elements]))
    for bundle, _ in targets:
        if not np.all(np.isfinite(bundle.loads)):
            raise NumericError("source densities produced non-finite load values")


def _with_shape(values, shape, name):
    """values as an array of the given shape, else ConfigurationError."""
    values = np.asarray(values)
    if values.shape != shape:
        raise ConfigurationError(
            f"{name} returned an array of shape {values.shape}, expected {shape}")
    return values


def check_shift_gamma(mesh, model):
    """ConfigurationError unless gamma >= gamma_0 > 0 on the whole domain,
    read as gamma > 0 at every node and quadrature point of the mesh: the
    exponential shift needs it."""
    if not min(np.min(model.gamma(mesh.nodes)), np.min(model.gamma(
            mesh.quad_points.reshape(-1, mesh.dim)))) > 0.0:
        raise ConfigurationError(
            "the shifted scheme needs gamma >= gamma_0 > 0 on the whole domain")


class OperatorContext:
    """Frozen discretization: mesh + model + time grid (+ decomposition).

    shift is the rate q of the exponential shift u = e^{qt} u_hat, 0 for
    none.  Level k of the implicit-Euler system for u_hat, multiplied by
    e^{q t_k}, is in the original variables

        cap*(u_k - e^{q dt} u_{k-1})/dt + q*cap*u_k + A(t_k)u_k + load_k,

    so the context keeps step_growth = e^{q dt} (exactly 1.0 unshifted) for
    the time difference, and apply_A adds q*cap*u.  A shift needs gamma >=
    gamma_0 > 0 on the whole domain.

    Immutable.
    """

    def __init__(self, mesh, model, grid, dec=None, shift=0.0):
        if dec is not None and dec.mesh is not mesh:
            raise ConfigurationError("decomposition was built for a different mesh")
        self.mesh = mesh
        self.model = model
        self.grid = grid
        self.dec = dec
        self.shift = as_real(shift, "shift")
        if not 0.0 <= self.shift * grid.dt <= math.log(sys.float_info.max):
            raise ConfigurationError(f"shift must be finite and nonnegative, "
                                     f"with e^(shift*dt) finite: {shift!r}")
        self.step_growth = math.exp(self.shift * grid.dt)
        gamma_nodes = _with_shape(np.asarray(model.gamma(mesh.nodes), dtype=float),
                                  (mesh.n_nodes,), "gamma")
        if not np.all((gamma_nodes >= 0.0) & np.isfinite(gamma_nodes)):
            raise ConfigurationError(
                "gamma must be finite and nonnegative at mesh nodes")
        if self.shift:
            check_shift_gamma(mesh, model)

        all_nodes = np.arange(mesh.n_nodes)
        all_elems = np.arange(mesh.n_elements)
        ones_n = np.ones(mesh.n_nodes)
        ones_b = np.ones((mesh.n_elements, mesh.n_local))
        self._global = _make_bundle(mesh, None, all_nodes, all_elems, ones_n,
                                    ones_b, ones_n, gamma_nodes)
        # the whole mesh reads the densities as evaluated, without a gather
        targets = [(self._global, slice(None))]
        self._subs = []
        if dec is not None:
            for ell, (sub, w) in enumerate(zip(dec.subdomains, dec.weights)):
                self._subs.append(_make_bundle(
                    mesh, ell, sub.nodes, sub.elements, w.a, w.b_elem,
                    w.g_node, gamma_nodes))
                targets.append((self._subs[-1], sub.elements))
        _assemble_loads(mesh, grid, model.source, targets)

    def bundle(self, ell=None):
        """Assembly tables: ell is None for the whole domain, a subdomain
        index, or a tuple of them (repeats allowed) for their stack in that
        order, built anew on every call; a 1-tuple names the plain bundle.
        Tables that `bundle` returned are returned as they are.  Every
        function that takes ell resolves it here, so it takes tables too,
        and names are checked here, by `Decomposition.names` for an index:
        a bool, an index outside [0, q) or an empty tuple raises
        ConfigurationError.
        """
        if isinstance(ell, _AssemblyBundle):  # first: it runs on every residual
            return ell
        if isinstance(ell, tuple):
            if len(ell) == 1:
                (ell,) = ell
            elif not ell:
                raise ConfigurationError("a stack names one subdomain or more")
            else:
                # each part as a 1-tuple, so that no part is itself a stack
                return _stack_bundles([self.bundle((i,)) for i in ell])
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
    stack it may hold one level per block.  Any other k raises
    ConfigurationError.  ell is a name or tables.  values, when given, is
    quad_values of u_k, which the caller has already evaluated.  The result
    is returned as computed, non-finite entries included.
    """
    b = ctx.bundle(ell)
    u_k = _check_level(b, u_k)
    t = level_times(ctx, b, k)
    uq, zq = quad_values(b, u_k) if values is None else values
    flux = ctx.model.alpha(b.qp, t, zq)
    reac = ctx.model.beta(b.qp, t, uq)
    r = b.scatter(_element_vectors(b, flux, reac))
    if ctx.shift != 0.0:
        r = r + ctx.shift * b.cap * u_k
    return r


def apply_F(ctx, ell, u):
    """Dual residual of the full operator: time derivative + apply_A + load.

    u lives on the (sub)mesh selected by ell, a stack included, on which
    every block reads its own loads; the implicit level at t = 0 is zero,
    and the time difference grows the previous level by ctx.step_growth.
    Returns an array of the same shape in the dual representation;
    non-finite entries raise NumericError.
    """
    b = ctx.bundle(ell)
    u = _check_field(ctx, u, b)
    dt, growth = ctx.grid.dt, ctx.step_growth
    out = np.empty_like(u)
    prev = np.zeros(b.n_nodes)
    for k in range(ctx.grid.n_steps):
        out[k] = (b.cap * (u[k] - growth * prev) / dt
                  + apply_A(ctx, b, k, u[k]) + level_loads(b, k))
        prev = u[k]
    if not np.all(np.isfinite(out)):
        raise NumericError("model functions produced non-finite values in apply_F")
    return out


def h_inner(ctx, u, v, ell=None):
    """Lumped-mass space-time inner product on the (sub)domain."""
    b = ctx.bundle(ell)
    return _h_inner(ctx, b, _check_field(ctx, u, b), _check_field(ctx, v, b))


def _h_inner(ctx, b, u, v):
    """h_inner of fields u and v on bundle b that are already checked."""
    return ctx.grid.dt * float(np.einsum("ki,i,ki->", u, b.m, v))


def h_norm(ctx, u, ell=None):
    """sqrt(h_inner(u, u)), with u checked once."""
    b = ctx.bundle(ell)
    u = _check_field(ctx, u, b)
    return np.sqrt(max(_h_inner(ctx, b, u, u), 0.0))


def v_norm_p(ctx, ell, u):
    """Weighted space-time norm: (sum_k dt [ int a|grad u|^p + b|u|^p ])^(1/p)."""
    b = ctx.bundle(ell)
    return _v_norm_p(ctx, b, _check_field(ctx, u, b))


def _v_norm_p(ctx, b, u):
    """v_norm_p of a field u on bundle b that is already checked."""
    p = ctx.model.p
    # all levels at once; the per-level sums are then added level by level
    uq, zq = quad_values(b, u)
    # np.linalg.norm's own formula, without its dispatch
    gmag = np.sqrt(np.add.reduce(zq * zq, axis=-1))
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
    u = _check_field(ctx, u, None)
    b = ctx.bundle(ell)
    norm = _v_norm_p(ctx, b, u[:, b.nodes])
    return ctx.model.mono_const * norm ** ctx.model.p


def primal_F(ctx, ell, u):
    """Field-space action of F_ell on a global field: extend(dual)/mass.

    Used once per run to seed the cached-residual identities; the sweeps
    themselves recover operator actions algebraically from resolvent
    right-hand sides.  ell names one subdomain or the whole domain: a
    stack, whose blocks may share nodes, has no one extension and raises
    ConfigurationError.
    """
    b = ctx.bundle(ell)
    if b.parts is not None:
        raise ConfigurationError(f"primal_F takes one subdomain or None, "
                                 f"not the stack {ell!r}")
    u = _check_field(ctx, u, None)
    dual = apply_F(ctx, b, u[:, b.nodes])
    out = np.zeros_like(u)
    out[:, b.nodes] = dual / b.m[None, :]
    return out
