import numpy as np
import pytest

from stsplit import ConfigurationError, NumericError, build_mesh


def element_integrate(mesh, elem, integrand):
    """Integrate over one element with the mesh quadrature rule.

    The integrand is called per quadrature point as
    ``integrand(x, basis_values, basis_gradients)`` and must return a finite
    scalar.
    """
    grads = mesh.basis_gradients[elem]
    total = 0.0
    for q in range(mesh.quad_weights.shape[1]):
        value = integrand(mesh.quad_points[elem, q], mesh.basis_at_quad[q], grads)
        if not np.isfinite(value):
            raise NumericError(
                f"non-finite integrand value on element {elem} at "
                f"x={mesh.quad_points[elem, q]}"
            )
        total += mesh.quad_weights[elem, q] * value
    return total


def test_uniform_interval():
    mesh = build_mesh((1.0,), (4,))
    assert mesh.dim == 1
    assert mesh.n_nodes == 5
    assert mesh.n_elements == 4
    np.testing.assert_allclose(mesh.nodes[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_structured_triangulation_counts():
    mesh = build_mesh((1.0, 1.0), (2, 2))
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 8
    assert mesh.elements.shape == (8, 3)
    # two triangles tile each cell
    np.testing.assert_allclose(mesh.element_volumes, 0.125)


def test_rejects_bad_specs():
    with pytest.raises(ConfigurationError):
        build_mesh((1.0,), (1,))
    with pytest.raises(ConfigurationError):
        build_mesh((-1.0,), (4,))
    with pytest.raises(ConfigurationError):
        build_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    with pytest.raises(ConfigurationError):
        build_mesh((1.0, 1.0), (2,))
    for extent in ((float("nan"),), (float("inf"),), (1.0, float("inf"))):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            build_mesh(extent, (4,) * len(extent))
    for extent in (("1.0",), (True,), (10**400,)):
        with pytest.raises(ConfigurationError, match="extent"):
            build_mesh(extent, (4,))
    # cell counts must be integers; integral floats are accepted
    for cells in ((16.7,), (float("nan"),), (float("inf"),), (4, 2.5), (True,),
                  ("4",), (b"4",), (4, "4")):
        with pytest.raises(ConfigurationError, match="cells must be an integer"):
            build_mesh((1.0,) * len(cells), cells)
    assert build_mesh((1.0,), (16.0,)).cells == (16,)


SUBNORMAL = 2.225073858507203e-309


@pytest.mark.parametrize("extent,cells", [((SUBNORMAL,), (4,)),
                                          ((1.0, SUBNORMAL), (4, 4)),
                                          ((SUBNORMAL, 1.0), (4, 4))])
def test_rejects_cells_whose_gradients_overflow(extent, cells):
    with pytest.raises(ConfigurationError, match="too small"):
        build_mesh(extent, cells)


def test_rejects_cells_whose_measures_overflow():
    with pytest.raises(ConfigurationError, match="too large"):
        build_mesh((1e200, 1e200), (8, 8))


@pytest.mark.parametrize("extent,cells", [((1e-300,), (4,)),
                                          ((1.0, 1e-300), (4, 4))])
def test_tiny_normal_extent_keeps_finite_tables(extent, cells):
    mesh = build_mesh(extent, cells)
    assert np.all(np.isfinite(mesh.basis_gradients))


@pytest.mark.parametrize("extent,cells", [((1.0,), (7,)), ((2.0, 1.0), (5, 3))])
def test_elements_tile_domain(extent, cells):
    mesh = build_mesh(extent, cells)
    volume = float(np.prod(extent))
    assert abs(np.sum(mesh.element_volumes) - volume) <= 1e-12 * volume
    assert np.all(mesh.element_volumes > 0.0)


def test_nodes_strictly_increasing_no_duplicates():
    mesh = build_mesh((1.0,), (9,))
    assert np.all(np.diff(mesh.nodes[:, 0]) > 0.0)
    mesh2 = build_mesh((1.0, 1.0), (3, 4))
    assert len(np.unique(mesh2.nodes, axis=0)) == mesh2.n_nodes


def test_quadrature_weights_positive_and_scaled():
    for mesh in (build_mesh((1.0,), (4,)), build_mesh((1.0, 1.0), (3, 3))):
        assert np.all(mesh.quad_weights > 0.0)
        # |J|-scaled weights reproduce each element measure
        np.testing.assert_allclose(
            mesh.quad_weights.sum(axis=1), mesh.element_volumes, rtol=1e-14
        )


def test_basis_partition_of_unity():
    for mesh in (build_mesh((1.0,), (5,)), build_mesh((1.0, 1.0), (4, 4))):
        sums = mesh.basis_at_quad.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-14


def test_element_integrate_measure():
    mesh = build_mesh((1.0,), (4,))
    assert abs(element_integrate(mesh, 1, lambda x, phi, dphi: 1.0) - 0.25) <= 1e-15


def test_element_integrate_hat_and_square():
    mesh = build_mesh((1.0,), (4,))
    h = 0.25
    hat = element_integrate(mesh, 1, lambda x, phi, dphi: phi[0])
    square = element_integrate(mesh, 1, lambda x, phi, dphi: phi[0] ** 2)
    assert abs(hat - h / 2.0) <= 1e-15
    # quadratic integrand, inside the degree-3 rule's exactness
    assert abs(square - h / 3.0) <= 1e-15


def test_interior_gradient_telescopes():
    mesh = build_mesh((1.0,), (6,))
    i = 3
    total = 0.0
    for e in range(mesh.n_elements):
        for loc in np.flatnonzero(mesh.elements[e] == i):
            total += element_integrate(
                mesh, e, lambda x, phi, dphi, loc=loc: dphi[loc, 0]
            )
    assert abs(total) <= 1e-13


def test_refinement_halves_measures():
    coarse = build_mesh((1.0,), (8,))
    fine = build_mesh((1.0,), (16,))
    np.testing.assert_allclose(
        2.0 * fine.element_volumes, coarse.element_volumes[0], rtol=1e-14
    )


def test_element_integrate_rejects_non_finite():
    mesh = build_mesh((1.0,), (4,))
    with pytest.raises(NumericError):
        element_integrate(mesh, 0, lambda x, phi, dphi: np.inf)


def test_lumped_mass_positive_sums_to_volume():
    for mesh in (build_mesh((1.0,), (9,)), build_mesh((1.0, 2.0), (4, 6))):
        vol = float(np.prod(mesh.extent))
        assert abs(mesh.lumped_mass.sum() - vol) <= 1e-12 * vol
        assert np.all(mesh.lumped_mass > 0.0)
