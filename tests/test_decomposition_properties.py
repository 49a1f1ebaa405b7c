"""Decomposition invariants over randomized meshes, strip counts and weights."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_problem
from stsplit import ConfigurationError, apply_F, build_decomposition, build_mesh


@st.composite
def decompositions(draw):
    q = draw(st.integers(2, 4))
    nx = draw(st.integers(2 * q, 8 * q))
    cells = nx if draw(st.booleans()) else (nx, draw(st.integers(2, 4)))
    return dict(
        cells=cells, q=q, overlap=draw(st.floats(0.05, 1.5)),
        c_min=draw(st.floats(0.01, 0.49)), p=draw(st.floats(2.0, 4.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _problem(case):
    try:
        return make_problem(cells=case["cells"], n_steps=2, p=case["p"],
                            lam=1.0, q=case["q"], overlap=case["overlap"],
                            c_min=case["c_min"], source="cos")
    except ConfigurationError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(decompositions())
def test_weight_families_partition_unity(case):
    _, _, _, dec, _ = _problem(case)
    for family in ("a", "b_elem", "g_node"):
        total = sum(getattr(w, family) for w in dec.weights)
        assert np.max(np.abs(total - 1.0)) <= 1e-12, family


@settings(max_examples=40, deadline=None)
@given(decompositions())
def test_weights_are_one_ramp_per_overlap_and_its_complement(case):
    cells = tuple(np.atleast_1d(case["cells"]))
    try:
        mesh = build_mesh((1.0,) * len(cells), cells)
        dec = build_decomposition(mesh, case["q"], case["overlap"], case["c_min"])
    except ConfigurationError:
        assume(False)
    subs, ws = dec.subdomains, dec.weights
    for left, right, sl, sr in zip(ws, ws[1:], subs, subs[1:]):
        both = np.intersect1d(sl.nodes, sr.nodes)
        assert np.array_equal(left.a[both], 1.0 - right.a[both])
        assert np.array_equal(left.g_node[both], 1.0 - right.g_node[both])
    profile = np.zeros(cells[0] + 1)
    for sub, w in zip(subs, ws):
        for values in (w.a, w.g_node):  # one value per node column
            profile[mesh.node_column] = values
            assert np.array_equal(values, profile[mesh.node_column])
        shared = np.intersect1d(sub.elements, np.concatenate(
            [s.elements for s in subs if s is not sub]))
        own = np.setdiff1d(sub.elements, shared)
        off = np.setdiff1d(np.arange(mesh.n_elements), sub.elements)
        assert np.array_equal(w.b_elem[shared], w.g_node[mesh.elements[shared]])
        assert np.all(w.b_elem[own] == 1.0) and np.all(w.b_elem[off] == 0.0)


@settings(max_examples=40, deadline=None)
@given(decompositions())
def test_reaction_weight_at_least_c_min_on_own_elements(case):
    _, _, _, dec, _ = _problem(case)
    for sub, w in zip(dec.subdomains, dec.weights):
        assert w.b_elem[sub.elements].min() >= case["c_min"] - 1e-15


@settings(max_examples=25, deadline=None)
@given(decompositions())
def test_subdomain_operators_sum_to_global(case):
    mesh, grid, _, dec, ctx = _problem(case)
    rng = np.random.default_rng(case["seed"])
    u = rng.standard_normal((grid.n_steps, mesh.n_nodes))
    total = apply_F(ctx, None, u)
    split = sum(dec.extend(ell, apply_F(ctx, ell, dec.restrict(ell, u)))
                for ell in range(dec.q))
    assert np.linalg.norm(split - total) <= 1e-11 * np.linalg.norm(total)
