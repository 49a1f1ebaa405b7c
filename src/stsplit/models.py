"""Coefficient models with p-structure and source-term functionals.

A model bundles the flux alpha(x, t, z), the reaction beta(x, t, y), their
Newton linearization, the capacity coefficient gamma(x) >= 0, and a source
given by a pair of densities (eta0, eta) that pair with test functions and
their gradients.
All callables are numpy-vectorized and must broadcast their arguments
against each other.  At the quadrature points x has shape (n_el, n_q, dim)
and y shape (n_el, n_q); the gradient z of a P1 field is constant on each
element and comes with shape (n_el, 1, dim).  t is a scalar, or one time
per element of shape (n_el, 1) on a stack of level systems.
"""

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigurationError, as_integer, as_real


@dataclass(frozen=True)
class SourceTerm:
    """Load densities: <f, v> = integral of eta0*v + eta . grad(v).

    Both are pointwise functions of (x, t), called with the quadrature
    points of the whole mesh, shape (n_el, n_q, dim), and one time: a
    context evaluates each once per level and restricts the values to each
    subdomain's elements, so a density must not depend on which points it
    is handed together.
    """

    eta0: Callable  # (x, t) -> (...)
    eta: Callable  # (x, t) -> (..., dim)


def zero_source():
    """Source with both densities identically zero."""
    return SourceTerm(
        eta0=lambda x, t: np.zeros(np.shape(x)[:-1]),
        eta=lambda x, t: np.zeros(np.shape(x)),
    )


def constant_gamma(value):
    """Spatially constant capacity coefficient."""
    value = as_real(value, "gamma")
    if not 0.0 <= value < np.inf:
        raise ConfigurationError("gamma must be finite and nonnegative")
    return lambda x: np.full(np.shape(x)[:-1], value)


def indicator_gamma(zero_lo, zero_hi, value=1.0, axis=0):
    """Capacity that vanishes for x[axis] in [zero_lo, zero_hi) and equals
    value elsewhere.  Models an elliptic region inside a parabolic problem.
    The bounds must be finite with zero_lo < zero_hi, since an empty zone
    leaves the problem parabolic.  axis is an integer >= 0; gamma raises
    ConfigurationError at points with axis coordinates or fewer."""
    zero_lo, zero_hi = as_real(zero_lo, "zero_lo"), as_real(zero_hi, "zero_hi")
    value = as_real(value, "gamma")
    if not -np.inf < zero_lo < zero_hi < np.inf:
        raise ConfigurationError(
            f"the zone where gamma vanishes needs finite zero_lo < zero_hi, "
            f"got zero_lo = {zero_lo!r}, zero_hi = {zero_hi!r}")
    if not 0.0 <= value < np.inf:
        raise ConfigurationError("gamma must be finite and nonnegative")
    axis = as_integer(axis, "axis")
    if axis < 0:
        raise ConfigurationError(f"axis must be >= 0, got {axis}")

    def gamma(x):
        x = np.asarray(x)
        if x.shape[-1] <= axis:
            raise ConfigurationError(
                f"gamma axis {axis} needs points of dimension {axis + 1} or more")
        coord = x[..., axis]
        return np.where((coord >= zero_lo) & (coord < zero_hi), 0.0, value)

    return gamma


@dataclass(frozen=True)
class PStructureModel:
    """Nonlinear coefficients satisfying p-growth, monotonicity, coercivity.

    The declared constants are the ones the built-in constructors can
    guarantee; `check_p_structure` samples the structural inequalities
    with them.
    """

    p: float
    alpha: Callable  # (x, t, z) -> (..., dim)
    beta: Callable  # (x, t, y) -> (...)
    gamma: Callable  # (x,) -> (...)
    # Newton's linearization of alpha and beta, regularized by eps > 0; the
    # residual is always evaluated exactly, so an approximate Jacobian only
    # changes the iteration path, never the solution
    flux_jacobian: Callable  # (x, t, z, eps) -> (..., dim, dim)
    reaction_derivative: Callable  # (x, t, y, eps) -> (...)
    source: SourceTerm = field(default_factory=zero_source)
    growth_const: float = 1.0  # C in |alpha| <= C|z|^{p-1} + d1
    growth_offset: float = 0.0  # d1

    def __post_init__(self):
        object.__setattr__(self, "p", as_real(self.p, "p"))
        if not 2.0 <= self.p < np.inf:
            raise ConfigurationError("p must be finite and >= 2")

    @property
    def mono_const(self):
        """c in the monotonicity inequality."""
        return monotonicity_constant(self.p)

    def with_source(self, source):
        return replace(self, source=source)


def monotonicity_constant(p):
    """Lower bound c with (|a|^{p-2}a - |b|^{p-2}b).(a - b) >= c|a - b|^p.

    Sharp along antipodal pairs; the brute-force minimization in the test
    suite confirms the value before it is used in any monitor.
    """
    return 2.0 ** (2.0 - float(p))


def p_laplace_model(p, lam=0.0, gamma=None):
    """Power-law model: alpha(z) = |z|^{p-2} z, beta(y) = |y|^{p-2} y + lam*y.

    Growth holds with C = 1, d1 = 0 for the flux.  For the reaction the pair
    (C, d1) = (1 + lam, lam) is declared when lam > 0, since lam*|y| cannot
    be bounded by C|y|^{p-1} alone near y = 0 once p > 2.  Newton linearizes
    with the regularized forms
    (|z|^2 + eps^2)^{(p-2)/2} I + (p-2)(|z|^2 + eps^2)^{(p-4)/2} z z^T and
    (p-1)(y^2 + eps^2)^{(p-2)/2} + lam.
    """
    p, lam = as_real(p, "p"), as_real(lam, "lam")
    if not 0.0 <= lam < np.inf:
        raise ConfigurationError("lam must be finite and nonnegative")
    if gamma is None:
        gamma = constant_gamma(1.0)

    # alpha and flux_jacobian run on every Newton pass: they compute what
    # np.linalg.norm and np.sum compute, without their dispatch, and add c1 I
    # on the diagonal alone, through a strided view rather than an einsum
    # one, for the textbook forms' bits at less cost

    def alpha(x, t, z):
        z = np.asarray(z, dtype=float)
        mag = np.sqrt(np.add.reduce(z * z, axis=-1, keepdims=True))
        # 0**0 == 1 covers p == 2 exactly; p - 2 >= 0 always holds here
        return mag ** (p - 2.0) * z

    def beta(x, t, y):
        y = np.asarray(y, dtype=float)
        return np.abs(y) ** (p - 2.0) * y + lam * y

    def flux_jacobian(x, t, z, eps):
        z = np.asarray(z, dtype=float)
        m2 = np.add.reduce(z * z, axis=-1) + eps * eps
        c1 = m2 ** ((p - 2.0) / 2.0)
        c2 = (p - 2.0) * m2 ** ((p - 4.0) / 2.0)
        jf = c2[..., None, None] * (z[..., :, None] * z[..., None, :])
        d = z.shape[-1]
        # jf is a fresh array, so its diagonal is every (d + 1)-th entry of
        # its last two axes, flattened, as a writable view
        jf.reshape(*jf.shape[:-2], d * d)[..., ::d + 1] += c1[..., None]
        return jf

    def reaction_derivative(x, t, y, eps):
        y = np.asarray(y, dtype=float)
        return (p - 1.0) * (y * y + eps * eps) ** ((p - 2.0) / 2.0) + lam

    model = PStructureModel(
        p=p,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        flux_jacobian=flux_jacobian,
        reaction_derivative=reaction_derivative,
        growth_const=1.0 + lam,
        growth_offset=lam,
    )
    return model


def anti_monotone_model(p=2.0, gamma=None):
    """Deliberately broken model with alpha(z) = -z; fails monotonicity.

    Kept as a verification fixture: structural checks must reject it.
    """
    base = p_laplace_model(p, 0.0, gamma=gamma)
    return replace(base, alpha=lambda x, t, z: -np.asarray(z, dtype=float))


def p_structure_margins(model, x, t, y1, y2, z1, z2):
    """Slack arrays of the four structural inequalities on given samples.

    Growth and monotonicity take the model's declared constants, and
    coercivity (alpha(z).z + beta(y)y >= |z|^p + |y|^p) constant 1 and
    offset 0.
    Every returned margin is >= 0 where the corresponding inequality holds.
    Shapes: x (..., d); z1, z2 (..., d); y1, y2, t (...) or scalars.
    """
    p = model.p
    C, d1 = model.growth_const, model.growth_offset
    cm = model.mono_const

    a1 = model.alpha(x, t, z1)
    a2 = model.alpha(x, t, z2)
    b1 = model.beta(x, t, y1)
    b2 = model.beta(x, t, y2)
    z1n = np.linalg.norm(z1, axis=-1)
    dzn = np.linalg.norm(z1 - z2, axis=-1)

    growth_alpha = C * z1n ** (p - 1.0) + d1 - np.linalg.norm(a1, axis=-1)
    growth_beta = C * np.abs(y1) ** (p - 1.0) + d1 - np.abs(b1)
    pairing = np.sum((a1 - a2) * (z1 - z2), axis=-1) + (b1 - b2) * (y1 - y2)
    monotonicity = pairing - cm * (dzn**p + np.abs(y1 - y2) ** p)
    energy = np.sum(a1 * z1, axis=-1) + b1 * y1
    coercivity = energy - (z1n**p + np.abs(y1) ** p)
    return {
        "growth_alpha": growth_alpha,
        "growth_beta": growth_beta,
        "monotonicity": monotonicity,
        "coercivity": coercivity,
    }


# random (x, t, y, z) tuples, and pairs, that check_p_structure samples
_P_STRUCTURE_SAMPLES = 10_000


@dataclass(frozen=True)
class PStructureReport:
    """Worst sampled margin of each structural inequality, by name."""

    worst_margins: dict

    @staticmethod
    def holds(margin):
        """A margin passes if it is finite and at least -1e-12, the
        floating-point slack."""
        return bool(np.isfinite(margin) and margin >= -1e-12)

    @property
    def passed(self):
        return all(map(self.holds, self.worst_margins.values()))


def check_p_structure(model, seed=0, dim=1):
    """Sample the structural inequalities on random arguments.

    Args:
        model: PStructureModel to probe, with its declared constants.
        seed: RNG seed; the check is deterministic given the seed.
        dim: spatial dimension of the sampled gradients.

    Draws _P_STRUCTURE_SAMPLES tuples, y and z uniformly from [-2, 2].
    Returns a PStructureReport with the per-inequality worst margins, which
    passes if every one holds (PStructureReport.holds).
    """
    n = _P_STRUCTURE_SAMPLES
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, dim))
    t = rng.uniform(0.0, 1.0, size=n)
    y1, y2 = rng.uniform(-2.0, 2.0, size=(2, n))
    z1, z2 = rng.uniform(-2.0, 2.0, size=(2, n, dim))
    margins = p_structure_margins(model, x, t, y1, y2, z1, z2)
    return PStructureReport(
        {name: float(np.min(vals)) for name, vals in margins.items()})
