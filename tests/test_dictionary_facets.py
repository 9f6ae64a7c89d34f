"""Facet gauge of dictionary polytopes against the l1 coding LP as an oracle."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

import starbody as sb
from starbody import geometry as ge


def lp_gauge(A, x):
    """min ||z||_1 subject to A z = x, solved directly with HiGHS."""
    p = A.shape[1]
    res = linprog(np.ones(2 * p), A_eq=np.hstack([A, -A]), b_eq=x, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def random_dictionary(d, seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(d, 3 * d + 1))
    return rng.normal(size=(d, p)), rng


def assert_certificates(A, X, vals, Z, Y):
    """A z = x, ||z||_1 = g, ||A^T y||_inf <= 1 and <y, x> = g for every row."""
    scale = 1.0 + np.linalg.norm(X, axis=1)
    assert np.all(np.linalg.norm(Z @ A.T - X, axis=1) <= 1e-12 * scale)
    assert np.allclose(np.abs(Z).sum(axis=1), vals, rtol=1e-12, atol=0)
    assert np.max(np.abs(Y @ A)) <= 1.0 + 1e-9
    assert np.allclose(np.einsum("ij,ij->i", Y, X), vals, rtol=1e-9, atol=0)


A1, A2 = np.array([1.0, 0.2]), np.array([-0.3, 1.0])
# planar columns on an edge of conv(+-a_j) or parallel to another are not
# vertices of the monotone-chain hull, yet every gauge and code is exact
PLANAR = {
    "edge-midpoint": [A1, A2, 0.5 * (A1 + A2)],
    "midpoint-of-a1-to-minus-a2": [A1, A2, 0.5 * (A1 - A2)],
    "parallel": [A1, A2, 2.0 * A1, -0.5 * A2],
    "duplicate-parallel-midpoint": [A1, A2, A1, 3.0 * A2, 0.5 * (A1 + 3.0 * A2)],
}


def oracle_case(case):
    """(A, X): a random dictionary in R^case, or a planar one probed at its columns and edge midpoints too."""
    if case in PLANAR:
        A = np.column_stack(PLANAR[case])
        rng = np.random.default_rng(17)
        X = np.vstack([rng.normal(size=(40, 2)), A.T, -A.T, 0.5 * (A.T + np.roll(A.T, 1, axis=0))])
        return A, X
    A, rng = random_dictionary(case, 100 + case)
    return A, rng.normal(size=(40, case))


@pytest.mark.parametrize("case", [2, 3, 4, 5, 6, *PLANAR])
def test_facet_gauge_matches_lp_oracle(case):
    A, X = oracle_case(case)
    body = sb.DictionaryPolytopeBody(A)
    oracle = np.array([lp_gauge(A, x) for x in X])
    assert np.allclose(body.gauge_many(X), oracle, rtol=1e-12, atol=0)
    vals, Z, Y = body.gauge_certificate_many(X)
    assert np.allclose(vals, oracle, rtol=1e-12, atol=0)
    assert_certificates(A, X, vals, Z, Y)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_vertex_points_get_valid_subgradients(d):
    A, rng = random_dictionary(d, 200 + d)
    body = sb.DictionaryPolytopeBody(A)
    X = rng.uniform(0.5, 2.0, size=A.shape[1])[:, None] * A.T  # x = t * a_j
    vals, Z, Y = body.gauge_certificate_many(X)
    assert np.allclose(vals, [lp_gauge(A, x) for x in X], rtol=1e-12, atol=0)
    assert_certificates(A, X, vals, Z, Y)
    # subgradient inequality gauge(w) >= <y, w> at random probes
    W = rng.normal(size=(200, d))
    assert np.all(body.gauge_many(W)[None, :] >= Y @ W.T - 1e-12 * np.linalg.norm(W, axis=1))


@pytest.mark.parametrize("d", [3, 4])
def test_non_simplicial_facets(d):
    # the hypercube conv(+-a_j): Qhull splits each square/cube facet into
    # simplices, some of zero volume
    A = np.array([s for s in itertools.product([1.0, -1.0], repeat=d) if s[0] == 1.0]).T
    body = sb.DictionaryPolytopeBody(A)
    rng = np.random.default_rng(d)
    X = np.vstack([rng.normal(size=(100, d)), np.eye(d), A.T])
    vals, Z, Y = body.gauge_certificate_many(X)
    assert np.allclose(vals, np.abs(X).max(axis=1), rtol=1e-12, atol=0)
    assert_certificates(A, X, vals, Z, Y)


def test_one_dimensional_body_is_an_interval():
    A = np.array([[0.5, -2.0, 1.0]])
    body = sb.DictionaryPolytopeBody(A)
    X = np.array([[1.0], [-3.0], [0.0], [2.0]])
    assert np.array_equal(body.gauge_many(X), np.abs(X[:, 0]) / 2.0)
    assert np.allclose(body.gauge_many(X[[0, 1, 3]]), [lp_gauge(A, x) for x in X[[0, 1, 3]]], rtol=1e-12)
    vals, Z, Y = body.gauge_certificate_many(X)
    assert_certificates(A, X, vals, Z, Y)


def test_over_cap_body_uses_the_lp():
    d, p = 10, 20
    assert ge._upper_bound_facets(2 * p, d) > ge.MAX_HULL_FACETS
    rng = np.random.default_rng(7)
    A = rng.normal(size=(d, p))
    body = sb.DictionaryPolytopeBody(A)
    X = np.vstack([rng.normal(size=(12, d)), np.zeros(d)])
    oracle = np.array([lp_gauge(A, x) if np.any(x) else 0.0 for x in X])
    assert np.allclose(body.gauge_many(X), oracle, rtol=1e-12, atol=0)
    vals, Z, Y = body.gauge_certificate_many(X[:-1])
    assert_certificates(A, X[:-1], vals, Z, Y)


def test_upper_bound_facets():
    assert [ge._upper_bound_facets(n, 2) for n in (4, 7)] == [4, 7]  # polygons
    assert [ge._upper_bound_facets(n, 3) for n in (6, 10)] == [8, 16]  # 2n - 4
    assert ge._upper_bound_facets(8, 4) == 20  # cyclic 4-polytope on 8 vertices
    rng = np.random.default_rng(3)
    for d, p in [(4, 7), (5, 9), (6, 10)]:
        A = rng.normal(size=(d, p))
        facets = len(ConvexHull(np.hstack([A, -A]).T, qhull_options="Qt").simplices)
        assert facets <= ge._upper_bound_facets(2 * p, d)


def test_gauge_many_in_row_blocks_matches_small_calls():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 18))
    body = sb.DictionaryPolytopeBody(A)
    X = rng.normal(size=(6000, 6))
    facets = len(ConvexHull(np.hstack([A, -A]).T, qhull_options="Qt").simplices)
    assert len(X) * facets > 3 * ge.CHUNK_ENTRIES  # several row blocks
    pieces = np.concatenate([body.gauge_many(X[i : i + 7]) for i in range(0, len(X), 7)])
    assert np.allclose(body.gauge_many(X), pieces, rtol=1e-14, atol=0)
    vals = body.gauge_certificate_many(X)[0]
    assert np.allclose(vals, pieces, rtol=1e-14, atol=0)


def test_gauge_many_same_bytes_in_small_row_blocks(monkeypatch):
    A, rng = random_dictionary(5, 12)
    body = sb.DictionaryPolytopeBody(A)
    X = rng.normal(size=(500, 5))
    whole = body.gauge_many(X)
    cert = body.gauge_certificate_many(X)
    facets = len(body._facet_y)
    assert len(X) * facets < ge.CHUNK_ENTRIES  # one block by default
    monkeypatch.setattr(ge, "CHUNK_ENTRIES", 7 * facets)
    assert len(ge.row_blocks(len(X), facets)) == 72
    assert body.gauge_many(X).tobytes() == whole.tobytes()
    for a, b in zip(body.gauge_certificate_many(X), cert):
        assert a.tobytes() == b.tobytes()
    assert body.gauge_many(np.empty((0, 5))).shape == (0,)
