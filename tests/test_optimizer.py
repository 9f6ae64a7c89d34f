"""Optimal bodies, convexity diagnostics, mixture transition, support hulls."""

import tracemalloc

import numpy as np
import pytest

import starbody as sb
from starbody import density as dn
from starbody import optimizer as opt
from starbody.geometry import radial_on_grid

GRID = sb.make_grid(2, 1024)


def ellipse_radial(semi_axes, nodes):
    q = np.sqrt((nodes[:, 0] / semi_axes[0]) ** 2 + (nodes[:, 1] / semi_axes[1]) ** 2)
    return 1.0 / q


def gmm_profile(eps, grid):
    """Closed-form radial statistic of the planar two-Gaussian mixture.

    The cubed profile is c_eps * (||S1^(-1/2)u||^-3 + ||S2^(-1/2)u||^-3)
    with S_i = eps*I + (1-eps) e_i e_i^T and
    c_eps = sqrt(pi/2) / (4*pi*sqrt(eps)).
    """
    u1, u2 = grid.nodes[:, 0], grid.nodes[:, 1]
    q1 = np.sqrt(u1**2 + u2**2 / eps)  # S1 = diag(1, eps)
    q2 = np.sqrt(u1**2 / eps + u2**2)
    c = np.sqrt(np.pi / 2) / (4 * np.pi * np.sqrt(eps))
    return dn.RadialProfile(grid, (c * (q1**-3 + q2**-3)) ** (1 / 3), 1.0)


# ---------------------------------------------------------------------------
# optimal_body
# ---------------------------------------------------------------------------


def test_optimal_body_gaussian_closed_form():
    cov = np.diag([4.0, 1.0])
    prof = dn.rho_analytic(dn.GaussianDensity(cov), GRID)
    res = opt.optimal_body(prof)
    # unit-area ellipse aligned with the covariance, axis ratio 2:1
    scale = np.pi**-0.5 * np.linalg.det(cov) ** -0.25
    expected = ellipse_radial((2 * scale, 1 * scale), GRID.nodes)
    got = radial_on_grid(res.k_star, GRID)
    assert np.max(np.abs(got - expected)) < 1e-4
    assert res.volume_check == pytest.approx(1.0, rel=1e-9)


def test_optimal_body_uniform_over_l1_ball():
    l1 = sb.DictionaryPolytopeBody(np.eye(2))
    grid = sb.make_grid(2, 512)
    spec = dn.UniformOverBody(l1, grid)
    res = opt.optimal_body(dn.rho_analytic(spec, grid))
    expected = spec.volume**-0.5 * radial_on_grid(l1, grid)
    got = radial_on_grid(res.k_star, grid)
    assert np.max(np.abs(got - expected)) < 1e-4


def test_optimal_body_constant_profile_is_unit_disk():
    prof = dn.RadialProfile(GRID, np.full(GRID.n, 0.37))
    res = opt.optimal_body(prof)
    assert np.allclose(radial_on_grid(res.k_star, GRID), np.pi**-0.5, rtol=1e-9)


def test_optimal_body_is_dilate_of_profile_body():
    prof = dn.rho_analytic(dn.two_gaussian_mixture(0.2), GRID)
    res = opt.optimal_body(prof)
    ratio = radial_on_grid(res.k_star, GRID) / radial_on_grid(res.l_p, GRID)
    assert ratio.max() - ratio.min() < 1e-9 * ratio.mean()


def test_risk_identity():
    prof = dn.rho_analytic(dn.GaussianDensity(np.diag([2.0, 0.5])), GRID)
    res = opt.optimal_body(prof)
    assert opt.risk_identity_residual(res, GRID) < 1e-9
    for alpha in (2.0, 4.0):
        prof = dn.rho_analytic(dn.GaussianDensity(np.diag([2.0, 0.5])), GRID, alpha=alpha)
        res = opt.optimal_body(prof)
        assert opt.risk_identity_residual(res, GRID) < 1e-9


def test_optimum_is_unique_up_to_perturbations():
    prof = dn.rho_analytic(dn.GaussianDensity(np.diag([3.0, 1.0])), GRID)
    res = opt.optimal_body(prof)
    base_risk = 2 * sb.dual_mixed_volume(res.k_star, res.l_p, -1.0, GRID)
    rng = np.random.default_rng(19)
    theta = GRID.angles()
    for _ in range(10):
        bump = 1.0 + 0.1 * np.cos(rng.integers(1, 5) * theta + rng.uniform(0, 2 * np.pi))
        perturbed = sb.volume_normalize(
            sb.RadialGridBody(GRID, radial_on_grid(res.k_star, GRID) * bump), GRID
        )
        risk = 2 * sb.dual_mixed_volume(perturbed, res.l_p, -1.0, GRID)
        assert risk > base_risk + 1e-6


def test_alpha_invariance_for_gauge_induced_sources():
    body = sb.EllipsoidBody(np.array([[1.8, 0.4], [0.4, 0.9]]))
    spec = dn.GaugeInducedDensity(body, "exp", GRID)
    stars = []
    for alpha in (1.0, 2.0, 4.0):
        res = opt.optimal_body(dn.rho_analytic(spec, GRID, alpha=alpha))
        stars.append(radial_on_grid(res.k_star, GRID))
    for other in stars[1:]:
        assert np.max(np.abs(other - stars[0])) < 1e-4


# ---------------------------------------------------------------------------
# check_convexity
# ---------------------------------------------------------------------------


def cross_product_margin(body):
    """Planar polygon oracle: the smallest consecutive-edge cross product over
    the edge lengths; the node polygon is convex when it is nonnegative."""
    order = np.argsort(body.grid.angles())
    verts = body.radii[order, None] * body.grid.nodes[order]
    e1 = np.roll(verts, -1, axis=0) - verts
    e2 = np.roll(e1, -1, axis=0)
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    return float(np.min(cross / (np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1))))


def random_covariance(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * rng.uniform(0.25, 4.0, d)) @ q.T


def cross_union(d):
    """Union of two thin ellipsoids along e1 and e2: a plus sign, not convex."""
    a, b = np.full(d, 0.05), np.full(d, 0.05)
    a[0] = b[1] = 1.0
    return sb.star_union([sb.EllipsoidBody(np.diag(a)), sb.EllipsoidBody(np.diag(b))])


def test_convexity_ellipsoid():
    # ellipsoids and dictionary polytopes are convex by construction: no hull
    bodies = [
        sb.EllipsoidBody(np.diag([2.0, 1.0])),
        sb.EllipsoidBody(np.diag([2.0, 1.0, 0.5, 0.25])),
        sb.DictionaryPolytopeBody(np.random.default_rng(3).normal(size=(5, 10))),
        sb.dilate(sb.DictionaryPolytopeBody(np.eye(3)), 2.0),
    ]
    for body in bodies:
        report = opt.check_convexity(body)
        assert report == opt.ConvexityReport(True, 0.0, "closed-form")
        assert report.is_convex is True


def test_convexity_cross_union_is_nonconvex():
    for d in (2, 3, 4):
        report = opt.check_convexity(cross_union(d))
        assert report.is_convex is False
        assert report.method == "boundary-hull"
        assert report.margin < -0.5


def test_convexity_gmm_bodies():
    convex = opt.check_convexity(gmm_profile(0.75, GRID).body())
    assert convex.method == "boundary-hull"
    assert convex.is_convex is True
    assert convex.margin == 0.0
    nonconvex = opt.check_convexity(gmm_profile(0.1, GRID).body())
    assert nonconvex.is_convex is False
    assert -1.0 < nonconvex.margin < 0.0


def test_convexity_dilate_unwraps_to_its_grid():
    body = gmm_profile(0.1, GRID).body()
    direct = opt.check_convexity(body)
    # a radial grid body is judged on its own nodes whatever grid is passed
    assert opt.check_convexity(sb.dilate(body, 3.0), sb.make_grid(2, 64)) == direct


def test_convexity_margin_is_scale_free():
    for body in (gmm_profile(0.1, GRID).body(), cross_union(3)):
        m1 = opt.check_convexity(body).margin
        m2 = opt.check_convexity(sb.dilate(body, 7.0)).margin
        assert m1 == m2 < 0


def test_convexity_grid_applies_to_bodies_without_one():
    union = cross_union(3)
    coarse = opt.check_convexity(union, sb.make_grid(3, 64))
    fine = opt.check_convexity(union, sb.make_grid(3, 1024))
    assert coarse.margin != fine.margin
    assert opt.check_convexity(union) == fine  # make_grid(d) by default


def test_hull_verdict_matches_planar_cross_product_oracle():
    rng = np.random.default_rng(21)
    theta = GRID.angles()
    verdicts = []
    for _ in range(50):
        rho = np.full(GRID.n, 1.0)
        for k in range(1, 4):
            rho += rng.uniform(-0.35, 0.35) / k * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
        body = sb.RadialGridBody(GRID, np.maximum(rho, 0.2))
        verdicts.append(opt.check_convexity(body).is_convex)
        assert verdicts[-1] == (cross_product_margin(body) >= -opt.CONVEXITY_MARGIN_TOL)
    assert 10 < sum(verdicts) < 40  # both verdicts occur
    for eps in np.linspace(0.05, 0.95, 37):
        body = gmm_profile(eps, GRID).body()
        expected = cross_product_margin(body) >= -opt.CONVEXITY_MARGIN_TOL
        assert opt.check_convexity(body).is_convex == expected


@pytest.mark.parametrize("d", [3, 4])
def test_convexity_of_gaussian_optimal_bodies_in_higher_dimensions(d):
    grid = sb.make_grid(d, 2048)
    for seed in range(3):
        cov = random_covariance(np.random.default_rng([d, seed]), d)
        res = opt.optimal_body(dn.rho_analytic(dn.GaussianDensity(cov), grid))
        report = opt.check_convexity(res.k_star)
        assert report.is_convex is True
        assert report.margin >= -1e-12


def test_convexity_rejects_points_that_miss_the_origin():
    nodes = sb.make_grid(3, 256).nodes
    t = 2 * np.pi * np.arange(16) / 16
    equator = np.column_stack([np.cos(t), np.sin(t), np.zeros(16)])
    cases = [
        (nodes[nodes[:, 2] > 0.1], "origin is not interior"),  # one hemisphere
        (equator, "no convex hull"),  # flat
        (nodes[:3], "no convex hull"),  # too few points
    ]
    for part, message in cases:
        body = sb.RadialGridBody(sb.SphericalGrid(3, part, np.full(len(part), 0.1)), np.ones(len(part)))
        with pytest.raises(ValueError, match=message):
            opt.check_convexity(body)
    # the planar hull raises the same errors; a body without its own grid is
    # judged on any nodes, here on the square conv(+-(1, 1), +-(1, -1))
    square = sb.UnionBody([sb.DictionaryPolytopeBody(np.array([[1.0, 1.0], [1.0, -1.0]]))])
    t = np.linspace(0.1, np.pi - 0.1, 32)
    side = np.column_stack([np.ones(5), np.linspace(-1.0, 1.0, 5)])  # points (1, s)
    cases = [
        (np.column_stack([np.cos(t), np.sin(t)]), "origin is not interior"),  # half circle
        (side / np.linalg.norm(side, axis=1)[:, None], "no convex hull"),  # collinear
        (np.eye(2), "no convex hull"),  # two points
    ]
    for nodes, message in cases:
        with pytest.raises(ValueError, match=message):
            opt.check_convexity(square, sb.SphericalGrid(2, nodes, np.full(len(nodes), 0.1)))


# ---------------------------------------------------------------------------
# Mixture transition
# ---------------------------------------------------------------------------


def test_gmm_profile_matches_generic_radial_statistic():
    for eps in (0.1, 0.4, 0.9):
        closed = gmm_profile(eps, GRID).values
        generic = dn.rho_analytic(dn.two_gaussian_mixture(eps), GRID).values
        assert np.allclose(closed, generic, rtol=1e-12)


def test_critical_epsilon_in_expected_bracket():
    trace = []
    eps_c = opt.critical_epsilon_gmm(GRID, record=trace)
    assert eps_c == 0.38398437500000004
    assert opt.critical_epsilon_gmm() == 0.38398437500000004  # its default 1024-node circle
    assert trace[0][0] == 0.05 and not trace[0][2]
    assert trace[1][0] == 0.95 and trace[1][2]


def test_critical_epsilon_requires_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        opt.critical_epsilon_gmm(GRID, eps_lo=0.5, eps_hi=0.9)


def test_gmm_profile_validation():
    # the mixture's profile comes from rho_analytic, which checks eps and the
    # grid dimension for critical_epsilon_gmm
    with pytest.raises(ValueError, match="eps"):
        opt.critical_epsilon_gmm(GRID, eps_lo=0.0)
    with pytest.raises(ValueError, match="eps"):
        dn.two_gaussian_mixture(0.0)
    with pytest.raises(ValueError, match="dimension"):
        opt.critical_epsilon_gmm(sb.make_grid(3, 64))


# ---------------------------------------------------------------------------
# support_body
# ---------------------------------------------------------------------------


def test_support_body_circle_samples():
    rng = np.random.default_rng(23)
    theta = rng.uniform(0, 2 * np.pi, 5000)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    body = opt.support_body(dn.SampleSet(2, pts), GRID)
    assert np.all(np.abs(body.radii - 1.0) < 0.01)


def permuted_circle(n=64):
    """The uniform circle grid as an explicit grid whose nodes are not in
    angle order."""
    grid = sb.make_grid(2, n)
    perm = np.random.default_rng(n).permutation(n)
    return sb.SphericalGrid(2, grid.nodes[perm], grid.weights[perm], {"kind": "explicit"})


def test_support_body_contains_all_samples():
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(500, 2)) * np.array([2.0, 0.5])
    for grid in (GRID, permuted_circle()):
        body = opt.support_body(dn.SampleSet(2, pts), grid)
        assert np.all(body.gauge_many(pts) <= 1.0 + 1e-9)


def test_support_body_l1_vertices():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    body = opt.support_body(dn.SampleSet(2, pts), GRID)
    assert np.all(body.gauge_many(pts) <= 1.0 + 1e-9)


def test_support_body_consistency_for_dense_samples():
    rng = np.random.default_rng(31)
    target = sb.RadialGridBody(GRID, 1.0 + 0.3 * np.cos(3 * GRID.angles()))
    spec = dn.UniformOverBody(target, GRID)
    dists = []
    for m in (500, 20_000):
        samples = dn.sample_density(spec, m, seed=rng.integers(2**31))
        est = opt.support_body(samples, GRID)
        dists.append(sb.radial_distance(est, target, GRID))
    assert dists[1] < dists[0]


def explicit_copy(grid):
    """The same nodes and weights as an unstructured grid, which support_body
    and RadialGridBody serve with the k-d tree's 8 nearest nodes."""
    return sb.SphericalGrid(grid.dim, grid.nodes, grid.weights, {"kind": "explicit"})


def check_3d_containment(grid3):
    rng = np.random.default_rng(37)
    # bulk samples, then samples in both polar caps (inside the first ring)
    # and on the poles themselves, whose cells have the pole as two corners
    cap = np.column_stack([0.05 * rng.normal(size=(400, 2)), np.sign(rng.normal(size=400))])
    poles = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, -0.5]])
    pts = np.vstack([rng.normal(size=(2000, 3)), cap * rng.uniform(0.5, 3.0, (400, 1)), poles])
    for samples in (pts, pts[-30:]):
        body = opt.support_body(dn.SampleSet(3, samples), grid3)
        assert np.all(body.gauge_many(samples) <= 1.0 + 1e-12)


def test_support_body_3d_containment():
    check_3d_containment(sb.make_grid(3, 1024))


def test_support_body_3d_containment_on_explicit_grid():
    check_3d_containment(explicit_copy(sb.make_grid(3, 1024)))


@pytest.mark.parametrize("grid", [GRID, sb.make_grid(3, 1024), sb.make_grid(4, 256), permuted_circle()],
                         ids=["circle", "product", "halton", "permuted"])
def test_support_body_fills_empty_nodes_from_nearest(grid):
    from scipy.spatial import cKDTree

    pts = np.random.default_rng(39).normal(size=(grid.dim + 3, grid.dim))
    norms = np.linalg.norm(pts, axis=1)
    radii = opt.support_body(dn.SampleSet(grid.dim, pts), grid).radii
    # the nodes some sample raised hold that sample's norm or a larger one
    raised = np.zeros(grid.n, dtype=bool)
    raised[grid.cells.stencil(pts / norms[:, None])] = True
    assert np.isin(radii[raised], norms).all()
    # every other node copies a nearest raised node
    dist, _ = cKDTree(grid.nodes[raised]).query(grid.nodes[~raised])
    lost = grid.nodes[~raised]
    source = np.flatnonzero(raised)
    for node, value, best in zip(lost, radii[~raised], dist):
        at = source[radii[raised] == value]
        assert np.min(np.linalg.norm(grid.nodes[at] - node, axis=1)) <= best + 1e-12


def test_bodies_on_one_grid_share_one_kd_tree(monkeypatch):
    import scipy.spatial

    built = []
    tree = scipy.spatial.cKDTree
    monkeypatch.setattr(scipy.spatial, "cKDTree", lambda nodes: built.append(nodes) or tree(nodes))
    grid = sb.make_grid(4, 256)
    rng = np.random.default_rng(40)
    pts = rng.normal(size=(50, 4))
    for _ in range(2):
        sb.RadialGridBody(grid, rng.uniform(0.5, 1.5, grid.n)).gauge_many(pts)
    opt.support_body(dn.SampleSet(4, pts), grid)
    assert len(built) == 1


def dense_support_radii(pts, grid):
    """support_body's k-d tree node radii (Halton and explicit grids) with
    all queries at once."""
    from scipy.spatial import cKDTree

    norms = np.linalg.norm(pts, axis=1)
    _, idx = cKDTree(grid.nodes).query(pts / norms[:, None], k=8)
    radii = np.zeros(grid.n)
    for col in range(8):
        np.maximum.at(radii, idx[:, col], norms)
    return radii


def test_support_body_same_radii_in_row_blocks(monkeypatch):
    grid4 = sb.make_grid(4, 256)
    pts = np.random.default_rng(41).normal(size=(5 * 100 + 3, 4))
    dense = dense_support_radii(pts, grid4)
    assert np.all(dense > 0)
    grid3 = sb.make_grid(3, 256)
    whole3 = opt.support_body(dn.SampleSet(3, pts[:, :3]), grid3).radii
    # 100 directions per block: 5 full blocks and a 3-row tail
    monkeypatch.setattr(sb.geometry, "CHUNK_ENTRIES", 100 * 8)
    blocked = opt.support_body(dn.SampleSet(4, pts), grid4).radii
    assert blocked.tobytes() == dense.tobytes()
    # the product grid's (rows, 4) corner blocks: 200 directions per block
    blocked3 = opt.support_body(dn.SampleSet(3, pts[:, :3]), grid3).radii
    assert blocked3.tobytes() == whole3.tobytes()


def check_memory_bounded_by_row_blocks(grid3, monkeypatch):
    """Python-side peak stays below two copies of the samples plus a few row
    blocks, (rows, 4) cell corners on the product grid or (rows, k)
    neighbours on an explicit grid, rather than growing as m x k."""
    samples = dn.SampleSet(3, np.random.default_rng(43).normal(size=(100_000, 3)))
    monkeypatch.setattr(sb.geometry, "CHUNK_ENTRIES", 1 << 13)
    opt.support_body(samples, grid3)
    tracemalloc.start()
    try:
        opt.support_body(samples, grid3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * samples.points.nbytes + 4 * 8 * sb.geometry.CHUNK_ENTRIES


def test_support_body_memory_is_bounded_by_row_blocks(monkeypatch):
    check_memory_bounded_by_row_blocks(sb.make_grid(3, 256), monkeypatch)


def test_support_body_memory_is_bounded_on_explicit_grid(monkeypatch):
    check_memory_bounded_by_row_blocks(explicit_copy(sb.make_grid(3, 256)), monkeypatch)


def test_support_body_needs_enough_samples():
    with pytest.raises(ValueError):
        opt.support_body(dn.SampleSet(2, np.array([[1.0, 0.0]])), GRID)


def test_optimal_body_result_serialization():
    res = opt.optimal_body(dn.rho_analytic(dn.GaussianDensity(np.eye(2)), GRID))
    data = res.to_dict()
    assert data["metadata"]["volume_check"] == pytest.approx(1.0, rel=1e-9)
    back = sb.body_from_dict(data["k_star"])
    assert np.allclose(
        radial_on_grid(back, GRID), radial_on_grid(res.k_star, GRID), rtol=1e-15
    )
