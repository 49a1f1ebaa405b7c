import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stsplit import (
    ConfigurationError,
    TimeGrid,
    anti_monotone_model,
    build_context,
    build_mesh,
    check_p_structure,
    constant_gamma,
    indicator_gamma,
    monotonicity_constant,
    p_laplace_model,
    p_structure_margins,
)

X = np.zeros(1)  # built-in coefficients are autonomous in x


def _alpha1(model, z):
    return float(model.alpha(X, 0.0, np.array([float(z)]))[0])


def test_flux_point_values():
    assert _alpha1(p_laplace_model(2.0), 3.0) == pytest.approx(3.0)
    assert _alpha1(p_laplace_model(4.0), 2.0) == pytest.approx(8.0)
    assert _alpha1(p_laplace_model(3.0), 0.0) == 0.0


def test_reaction_point_values():
    assert float(p_laplace_model(2.0).beta(X, 0.0, 5.0)) == pytest.approx(5.0)
    assert float(p_laplace_model(3.0, lam=1.0).beta(X, 0.0, -2.0)) == pytest.approx(-6.0)
    assert float(p_laplace_model(2.0, lam=3.0).beta(X, 0.0, 1.0)) == pytest.approx(4.0)


def test_p_below_two_rejected():
    with pytest.raises(ConfigurationError):
        p_laplace_model(1.5)
    for p in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            p_laplace_model(p)


def test_negative_lambda_and_gamma_rejected():
    with pytest.raises(ConfigurationError):
        p_laplace_model(2.0, lam=-1.0)
    with pytest.raises(ConfigurationError):
        constant_gamma(-0.5)
    with pytest.raises(ConfigurationError):
        indicator_gamma(0.0, 0.5, value=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            p_laplace_model(3.0, lam=bad)
        with pytest.raises(ConfigurationError):
            constant_gamma(bad)
        with pytest.raises(ConfigurationError):
            indicator_gamma(0.0, 0.5, value=bad)
        # a user gamma is checked at the mesh nodes
        model = p_laplace_model(2.0, gamma=lambda x: np.full(len(x), bad))
        with pytest.raises(ConfigurationError, match="at mesh nodes"):
            build_context(build_mesh((1.0,), (4,)), model,
                          TimeGrid(T=1.0, n_steps=2))


def test_indicator_gamma_values():
    gamma = indicator_gamma(0.0, 0.5, value=2.0)
    x = np.array([[0.0], [0.25], [0.49], [0.5], [0.9]])
    np.testing.assert_allclose(gamma(x), [0.0, 0.0, 0.0, 2.0, 2.0])
    assert indicator_gamma(0.0, 0.5, axis=1.0)(np.array([[0.9, 0.2]])) == 0.0


def test_indicator_gamma_axis_rejected():
    for axis in (1.5, -1, True, float("nan")):
        with pytest.raises(ConfigurationError, match="axis"):
            indicator_gamma(0.0, 0.5, axis=axis)
    # an axis the mesh does not have fails when the context evaluates gamma
    for axis, extent in ((1, (1.0,)), (3, (1.0, 1.0))):
        mesh = build_mesh(extent, (4,) * len(extent))
        model = p_laplace_model(2.0, gamma=indicator_gamma(0.0, 0.5, axis=axis))
        with pytest.raises(ConfigurationError, match=f"gamma axis {axis}"):
            build_context(mesh, model, TimeGrid(T=1.0, n_steps=2))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_monotonicity_constant_brute_force(p):
    # scalar quotient ((alpha(a) - alpha(b))(a - b)) / |a - b|^p over a grid;
    # its infimum is the 2^(2-p) the monitors rely on
    g = np.linspace(-2.0, 2.0, 161)
    a, b = np.meshgrid(g, g)
    keep = np.abs(a - b) > 1e-9
    a, b = a[keep], b[keep]
    quot = ((np.abs(a) ** (p - 2.0) * a - np.abs(b) ** (p - 2.0) * b) * (a - b)
            / np.abs(a - b) ** p)
    c_star = monotonicity_constant(p)
    assert quot.min() >= c_star - 1e-12
    # antipodal pairs attain it exactly: quotient(z, -z) = 4|z|^p / (2|z|)^p
    z = np.array([0.25, 1.0, 1.75])
    attained = ((np.abs(z) ** (p - 2.0) * z) * 2.0 * (2.0 * z)
                / np.abs(2.0 * z) ** p)
    np.testing.assert_allclose(attained, c_star, rtol=1e-13)


def test_monotonicity_constant_vector_samples():
    rng = np.random.default_rng(3)
    for p in (2.0, 3.0, 4.0):
        model = p_laplace_model(p)
        z1 = rng.uniform(-2.0, 2.0, size=(20000, 2))
        z2 = rng.uniform(-2.0, 2.0, size=(20000, 2))
        a1 = model.alpha(X, 0.0, z1)
        a2 = model.alpha(X, 0.0, z2)
        dz = np.linalg.norm(z1 - z2, axis=-1)
        keep = dz > 1e-9
        quot = (np.sum((a1 - a2) * (z1 - z2), axis=-1)[keep] / dz[keep] ** p)
        assert quot.min() >= monotonicity_constant(p) - 1e-12


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_p_structure_sampling_passes(p, dim):
    report = check_p_structure(p_laplace_model(p, lam=1.0), seed=0, dim=dim)
    assert report.passed
    for margin in report.worst_margins.values():
        assert margin >= -1e-12


def test_p_structure_exact_equality_cases():
    # lam = 0: growth and coercivity hold with equality for the power law
    report = check_p_structure(p_laplace_model(3.0), seed=1)
    assert report.passed
    assert abs(report.worst_margins["growth_alpha"]) <= 1e-12


def test_equal_arguments_give_zero_monotonicity_margin():
    model = p_laplace_model(2.0)
    z = np.array([0.7])
    margins = p_structure_margins(model, X, 0.0, 1.3, 1.3, z, z)
    assert margins["monotonicity"] == 0.0


def test_anti_monotone_model_fails():
    report = check_p_structure(anti_monotone_model(p=2.0), seed=0)
    assert not report.passed
    assert report.worst_margins["monotonicity"] < 0.0


def test_declared_growth_constants_with_lambda():
    # |beta(y)| <= (1 + lam)|y|^(p-1) + lam requires the additive offset
    model = p_laplace_model(3.0, lam=2.0)
    assert model.growth_const == pytest.approx(3.0)
    assert model.growth_offset == pytest.approx(2.0)
    y = np.linspace(-2.0, 2.0, 401)
    slack = model.growth_const * np.abs(y) ** 2 + model.growth_offset - np.abs(
        model.beta(X, 0.0, y))
    assert slack.min() >= -1e-12


def test_default_monotonicity_constant_attached():
    assert p_laplace_model(4.0).mono_const == pytest.approx(0.25)
    assert p_laplace_model(2.0).mono_const == pytest.approx(1.0)


def test_zero_source_default():
    model = p_laplace_model(2.0)
    x = np.random.default_rng(0).uniform(size=(7, 1))
    assert np.all(model.source.eta0(x, 0.3) == 0.0)
    assert np.all(model.source.eta(x, 0.3) == 0.0)
    assert model.source.eta(x, 0.3).shape == x.shape


@st.composite
def _gradients(draw):
    dim = draw(st.sampled_from([1, 2]))
    n_el = draw(st.integers(1, 30))
    return draw(arrays(np.float64, (n_el, 1, dim),
                       elements=st.floats(-1e3, 1e3, allow_nan=False)))


@settings(max_examples=200, deadline=None)
@given(p=st.floats(2.0, 8.0), z=_gradients(), eps=st.floats(1e-8, 1.0))
def test_flux_and_jacobian_match_textbook_forms(p, z, eps):
    # alpha and flux_jacobian skip np.linalg.norm and the identity product
    # for speed; they must still give the textbook forms bit for bit
    model = p_laplace_model(p)
    dim = z.shape[-1]
    x = np.zeros(z.shape[:-2] + (2, dim))
    alpha = np.linalg.norm(z, axis=-1, keepdims=True) ** (p - 2.0) * z
    assert np.array_equal(model.alpha(x, 0.0, z), alpha)
    m2 = np.sum(z * z, axis=-1) + eps * eps
    c1 = m2 ** ((p - 2.0) / 2.0)
    c2 = (p - 2.0) * m2 ** ((p - 4.0) / 2.0)
    jf = (c1[..., None, None] * np.eye(dim)
          + c2[..., None, None] * (z[..., :, None] * z[..., None, :]))
    assert np.array_equal(model.flux_jacobian(x, 0.0, z, eps), jf)
