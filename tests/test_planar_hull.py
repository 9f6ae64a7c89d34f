"""The planar monotone-chain hull against Qhull as an oracle."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import starbody as sb
from starbody import density as dn
from starbody import geometry as ge
from starbody import optimizer as opt

GRID = sb.make_grid(2, 1024)


def canonical(points):
    """Each index mapped to the first index of a point with the same coordinates."""
    _, first, inverse = np.unique(points, axis=0, return_index=True, return_inverse=True)
    return first[inverse.ravel()]


def assert_matches_qhull(points, qhull_options=None):
    """Equal vertex sets, equal facets as sorted index pairs, y within 1e-12."""
    vertices, simplices, y = ge.hull_facet_gradients(points, qhull_options)
    hull = ConvexHull(points, qhull_options=qhull_options)
    oracle_y = hull.equations[:, :2] / -hull.equations[:, 2:]
    # repeated points are one vertex, whichever copy each hull keeps
    c = canonical(points)
    assert len(vertices) == len(hull.vertices)
    assert set(c[vertices]) == set(c[hull.vertices])
    facets = {tuple(sorted(c[s])): g for s, g in zip(simplices, y)}
    oracle = {tuple(sorted(c[s])): g for s, g in zip(hull.simplices, oracle_y)}
    assert facets.keys() == oracle.keys()
    for key, g in facets.items():
        assert np.linalg.norm(g - oracle[key]) <= 1e-12 * np.linalg.norm(oracle[key])
    # counter-clockwise ring: facet f runs from vertices[f] to vertices[f + 1]
    assert np.array_equal(simplices[:, 0], vertices)
    assert np.array_equal(simplices[:, 1], np.roll(vertices, -1))
    p, q = points[simplices[:, 0]], points[simplices[:, 1]]
    assert np.all(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0] > 0)
    return vertices


def star_boundary(rng, grid=GRID):
    theta = grid.angles()
    rho = np.full(grid.n, 1.0)
    for k in range(1, 4):
        rho += rng.uniform(-0.35, 0.35) / k * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
    return sb.RadialGridBody(grid, np.maximum(rho, 0.2))


def boundary_points(body, grid):
    return ge.radial_on_grid(body, grid)[:, None] * grid.nodes


def qhull_margin(body, grid=GRID):
    """check_convexity's margin with the hull and its gradients from Qhull."""
    points = boundary_points(body, grid)
    hull = ConvexHull(points)
    y = hull.equations[:, :2] / -hull.equations[:, 2:]
    inner = np.delete(points, hull.vertices, axis=0)
    return min(0.0, float(np.min(np.max(inner @ y.T, axis=1), initial=1.0)) - 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_random_point_sets(seed):
    rng = np.random.default_rng(seed)
    for n in (5, 8, 40, 65, 300, 4096):
        points = rng.normal(size=(n, 2)) * rng.uniform(0.01, 100.0, size=2)
        assert_matches_qhull(points - points.mean(axis=0))  # centroid is interior


def test_boundary_points_of_star_bodies():
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert_matches_qhull(boundary_points(star_boundary(rng), GRID))


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_l1_square_with_collinear_nodes(n):
    grid = sb.make_grid(2, n)
    square = sb.DictionaryPolytopeBody(np.eye(2))
    spec = dn.GaugeInducedDensity(square, "indicator", grid)
    k_star = opt.optimal_body(dn.rho_analytic(spec, grid)).k_star
    for body in (square, k_star):
        vertices = assert_matches_qhull(boundary_points(body, grid))
        assert len(vertices) == 4  # the corners only


@pytest.mark.parametrize("scale", [1.0, 3.7, 1e3])
def test_near_collinear_points_as_qhull_keeps_them(scale):
    # an edge midpoint pushed out by a few ulps of the largest coordinate is
    # on the edge; pushed out by 32 it is a vertex, for Qhull too
    square = scale * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.5, 0.5]])
    outward = np.full(2, np.sqrt(0.5) * np.spacing(scale))
    for ulps, is_vertex in ((2, False), (32, True)):
        points = square.copy()
        points[4] += ulps * outward
        assert (4 in assert_matches_qhull(points)) is is_vertex


def test_dictionaries_with_parallel_duplicate_and_midpoint_columns():
    a1, a2 = np.array([1.0, 0.2]), np.array([-0.3, 1.0])
    dictionaries = [
        np.column_stack([a1, a2, 0.5 * (a1 + a2)]),  # an edge midpoint
        np.column_stack([a1, a2, 2.0 * a1]),  # parallel, longer
        np.column_stack([a1, a2, 0.5 * a2]),  # parallel, inside
        np.column_stack([a1, a2, a1]),  # duplicate
        np.column_stack([a1, a2, -a2, a1, 0.25 * (a1 - a2)]),
    ]
    for A in dictionaries:
        assert_matches_qhull(np.hstack([A, -A]).T, "Qt")
    rng = np.random.default_rng(9)
    for p in range(2, 10):
        A = rng.normal(size=(2, p))
        assert_matches_qhull(np.hstack([A, -A]).T, "Qt")


def test_margins_equal_qhull_margins():
    rng = np.random.default_rng(21)
    bodies = [star_boundary(rng) for _ in range(50)]
    bodies += [dn.rho_analytic(dn.two_gaussian_mixture(eps), GRID).body() for eps in np.linspace(0.05, 0.95, 37)]
    for body in bodies:
        assert abs(opt.check_convexity(body).margin - qhull_margin(body)) <= 1e-15


def test_degenerate_planar_input_has_no_hull():
    # half circles, collinear points and two points: see
    # test_convexity_rejects_points_that_miss_the_origin
    point = np.array([[1.0, 0.5]])
    for points in (point[:0], point, np.repeat(point, 4, axis=0), np.array([[1.0, 0.0], [np.nan, 1.0], [-1.0, -1.0]])):
        with pytest.raises(ValueError, match="no convex hull"):
            ge.hull_facet_gradients(points)
