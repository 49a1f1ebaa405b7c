import numpy as np
import pytest

from stsplit import ConfigurationError, build_decomposition, build_mesh


def _spec_example():
    # unit interval, 10 cells, two strips overlapping on (0.4, 0.6)
    mesh = build_mesh((1.0,), (10,))
    return mesh, build_decomposition(mesh, 2, 0.4, c_min=0.1)


def test_flux_weight_ramp_values():
    mesh, dec = _spec_example()
    a1, a2 = dec.weights[0].a, dec.weights[1].a
    assert a1[5] == pytest.approx(0.5)  # x = 0.5, midpoint of the ramp
    assert a2[5] == pytest.approx(0.5)
    assert a1[3] == 1.0  # x = 0.3, exclusive region
    assert a1[6] == 0.0  # x = 0.6, internal boundary
    assert np.all((a1 >= 0.0) & (a1 <= 1.0))


def test_reaction_weight_ramp_values():
    mesh, dec = _spec_example()
    b1, b2 = dec.weights[0].b_elem, dec.weights[1].b_elem
    # element 5 spans (0.5, 0.6); local node 1 sits at the seam x = 0.6
    assert b1[5, 1] == pytest.approx(0.1)
    assert b2[5, 1] == pytest.approx(0.9)
    assert np.all(b1[6:] == 0.0)  # discontinuous drop outside subdomain 1
    assert np.all(b2[6:] == 1.0)
    np.testing.assert_allclose(b1 + b2, 1.0)


def test_capacity_weight_is_nodal_reaction_profile():
    mesh, dec = _spec_example()
    g1, g2 = dec.weights[0].g_node, dec.weights[1].g_node
    # seam nodes keep the overlap-side ramp values
    assert g1[6] == pytest.approx(0.1)
    assert g2[4] == pytest.approx(0.1)
    assert g1[4] == pytest.approx(0.9)
    np.testing.assert_allclose(g1 + g2, 1.0)
    assert np.all(g1[7:] == 0.0)


def test_flux_weight_vanishes_on_internal_boundary_only():
    mesh, dec = _spec_example()
    # the cut of strip 1 is x = 0.6, node 6; that of strip 2 is x = 0.4
    for ell, cut in enumerate(([6], [4])):
        sub = dec.subdomains[ell]
        a = dec.weights[ell].a
        assert np.all(a[cut] == 0.0)
        # outer boundary nodes inside the strip carry weight 1
        x = mesh.nodes[sub.nodes, 0]
        outer = sub.nodes[(x == 0.0) | (x == 1.0)]
        assert len(outer) == 1
        assert np.all(a[outer] == 1.0)


def test_flux_weight_lipschitz():
    mesh, dec = _spec_example()
    # overlap width 0.2, so the nodal slope never exceeds 1/0.2
    h = 0.1
    for ell in range(2):
        slopes = np.abs(np.diff(dec.weights[ell].a)) / h
        assert slopes.max() <= 5.0 + 1e-12


@pytest.mark.parametrize("cells,q,overlap", [(10, 2, 0.4), (24, 3, 0.5), (48, 4, 0.4)])
def test_partitions_of_unity_1d(cells, q, overlap):
    mesh = build_mesh((1.0,), (cells,))
    dec = build_decomposition(mesh, q, overlap, c_min=0.15)
    a = sum(w.a for w in dec.weights)
    b = sum(w.b_elem for w in dec.weights)
    g = sum(w.g_node for w in dec.weights)
    assert np.max(np.abs(a - 1.0)) <= 1e-12
    assert np.max(np.abs(b - 1.0)) <= 1e-12
    assert np.max(np.abs(g - 1.0)) <= 1e-12


def test_partitions_of_unity_2d():
    mesh = build_mesh((1.0, 1.0), (8, 8))
    dec = build_decomposition(mesh, 2, 0.5, c_min=0.1)
    for arr in (sum(w.a for w in dec.weights),
                sum(w.b_elem for w in dec.weights),
                sum(w.g_node for w in dec.weights)):
        assert np.max(np.abs(arr - 1.0)) <= 1e-12


def test_reaction_weight_bounded_below_on_subdomain():
    for cells, q in ((20, 2), (30, 3)):
        mesh = build_mesh((1.0,), (cells,))
        dec = build_decomposition(mesh, q, 0.5, c_min=0.2)
        for ell in range(q):
            elems = dec.subdomains[ell].elements
            assert dec.weights[ell].b_elem[elems].min() >= 0.2 - 1e-15


def test_elements_cover_mesh_and_strips_are_contiguous():
    mesh = build_mesh((1.0,), (24,))
    dec = build_decomposition(mesh, 3, 0.5)
    covered = np.zeros(mesh.n_elements, dtype=bool)
    for sub in dec.subdomains:
        covered[sub.elements] = True
        cols = mesh.element_column[sub.elements]
        assert np.array_equal(np.sort(cols), np.arange(cols.min(), cols.max() + 1))
        assert np.array_equal(np.sort(sub.nodes), sub.nodes)
    assert covered.all()


def test_restrict_extend_roundtrip():
    mesh = build_mesh((1.0,), (16,))
    dec = build_decomposition(mesh, 2, 0.5)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((3, mesh.n_nodes))
    for ell in range(2):
        local = dec.restrict(ell, u)
        assert local.shape == (3, dec.subdomains[ell].nodes.size)
        # R E = I on the subdomain
        np.testing.assert_array_equal(dec.restrict(ell, dec.extend(ell, local)), local)
        # zero extension vanishes off the subdomain
        ext = dec.extend(ell, local)
        outside = np.setdiff1d(np.arange(mesh.n_nodes), dec.subdomains[ell].nodes)
        assert np.all(ext[:, outside] == 0.0)


def test_extend_restrict_identity_for_interior_support():
    mesh = build_mesh((1.0,), (16,))
    dec = build_decomposition(mesh, 2, 0.5)
    u = np.zeros((2, mesh.n_nodes))
    u[:, dec.subdomains[0].nodes[1:-1]] = 3.0
    np.testing.assert_array_equal(dec.extend(0, dec.restrict(0, u)), u)


def test_restrict_extend_reject_bad_names_and_lengths():
    # a subdomain is an integer in [0, q), not a bool, as in ctx.bundle, and
    # the last axis holds the mesh's or the subdomain's nodes; -1 and True
    # must not name the last subdomain
    mesh = build_mesh((1.0,), (16,))
    dec = build_decomposition(mesh, 2, 0.5)
    u = np.ones((3, mesh.n_nodes))
    local = np.ones(dec.subdomains[0].nodes.size)
    for ell in (-1, 2, True, False, 1.0, None, (0,)):
        with pytest.raises(ConfigurationError, match="not an integer in"):
            dec.restrict(ell, u)
        with pytest.raises(ConfigurationError, match="not an integer in"):
            dec.extend(ell, local)
    for bad in (np.ones(5), np.ones((3, mesh.n_nodes + 1)), 1.0):
        with pytest.raises(ConfigurationError, match="nodes on its last axis"):
            dec.restrict(0, bad)
        with pytest.raises(ConfigurationError, match="nodes on its last axis"):
            dec.extend(0, bad)
    with pytest.raises(ConfigurationError, match="nodes on its last axis"):
        dec.extend(0, u)
    np.testing.assert_array_equal(dec.restrict(np.int64(1), u), dec.restrict(1, u))
    np.testing.assert_array_equal(dec.extend(np.int64(0), local), dec.extend(0, local))


def test_restriction_adjointness_lumped_mass():
    mesh = build_mesh((1.0,), (20,))
    dec = build_decomposition(mesh, 2, 0.4)
    m = mesh.lumped_mass
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        ell = int(rng.integers(2))
        nodes = dec.subdomains[ell].nodes
        ul = rng.standard_normal(nodes.size)
        v = rng.standard_normal(mesh.n_nodes)
        lhs = float(np.dot(dec.extend(ell, ul) * m, v))
        rhs = float(np.dot(ul * m[nodes], v[nodes]))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst <= 1e-12


def test_invalid_configurations_rejected():
    mesh = build_mesh((1.0,), (10,))
    with pytest.raises(ConfigurationError):
        build_decomposition(mesh, 1, 0.4)
    for q in (2.7, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="q must be an integer"):
            build_decomposition(mesh, q, 0.4)
    for overlap in (float("inf"), float("nan"), -0.4, 0.0):
        with pytest.raises(ConfigurationError, match="overlap"):
            build_decomposition(mesh, 2, overlap)
    with pytest.raises(ConfigurationError):
        build_decomposition(mesh, 2, 0.4, c_min=0.0)
    with pytest.raises(ConfigurationError):
        build_decomposition(mesh, 2, 0.4, c_min=0.5)
    with pytest.raises(ConfigurationError, match="overlap"):
        build_decomposition(mesh, 2, 0.05)
    with pytest.raises(ConfigurationError, match="exclusive"):
        # overlaps of adjacent strips collide: no exclusive region remains
        build_decomposition(build_mesh((1.0,), (12,)), 3, 0.9)
