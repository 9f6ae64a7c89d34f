"""Optimal bodies, convexity diagnostics, mixture transition, support hulls."""

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
    spec = dn.GaugeInducedDensity(body, "exp", GRID, validate=False)
    stars = []
    for alpha in (1.0, 2.0, 4.0):
        res = opt.optimal_body(dn.rho_analytic(spec, GRID, alpha=alpha))
        stars.append(radial_on_grid(res.k_star, GRID))
    for other in stars[1:]:
        assert np.max(np.abs(other - stars[0])) < 1e-4


# ---------------------------------------------------------------------------
# check_convexity
# ---------------------------------------------------------------------------


def test_convexity_ellipsoid():
    report = opt.check_convexity(sb.EllipsoidBody(np.diag([2.0, 1.0])), seed=1)
    assert report.is_convex
    assert report.method == "sampled-subadditivity"
    assert report.margin >= 0


def test_convexity_cross_union_is_nonconvex():
    union = sb.star_union(
        [sb.EllipsoidBody(np.diag([1.0, 0.05])), sb.EllipsoidBody(np.diag([0.05, 1.0]))]
    )
    report = opt.check_convexity(union, trials=512, seed=2)
    assert not report.is_convex
    assert report.margin < 0


def test_convexity_gmm_bodies():
    convex = opt.check_convexity(opt.gmm_profile(0.75, GRID).body())
    assert convex.method == "exact2d"
    assert convex.is_convex
    nonconvex = opt.check_convexity(opt.gmm_profile(0.1, GRID).body())
    assert not nonconvex.is_convex


def test_convexity_dilate_unwraps_to_exact2d():
    body = sb.dilate(opt.gmm_profile(0.75, GRID).body(), 3.0)
    report = opt.check_convexity(body)
    assert report.method == "exact2d"
    assert report.is_convex


def test_convexity_margin_is_scale_free():
    body = opt.gmm_profile(0.1, GRID).body()
    m1 = opt.check_convexity(body).margin
    m2 = opt.check_convexity(sb.dilate(body, 7.0)).margin
    assert m1 == pytest.approx(m2, rel=1e-9)


def test_convexity_rejects_zero_trials():
    with pytest.raises(ValueError):
        opt.check_convexity(sb.EllipsoidBody(np.eye(2)), trials=0)


def test_exact2d_and_sampled_agree():
    # The sampled probe sees the interpolated boundary, not the node polygon;
    # linear-in-rho interpolation perturbs the gauge at the ~1e-5 relative
    # level on a 1024-node grid, so judge its margin at that tolerance.
    rng = np.random.default_rng(21)
    theta = GRID.angles()
    checked = 0
    for _ in range(50):
        rho = np.full(GRID.n, 1.0)
        for k in range(1, 4):
            rho += rng.uniform(-0.35, 0.35) / k * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
        rho = np.maximum(rho, 0.2)
        body = sb.RadialGridBody(GRID, rho)
        exact = opt.check_convexity(body)
        if abs(exact.margin) < 1e-4:
            continue  # borderline at grid resolution
        sampled = opt.check_convexity(sb.star_union([body]), trials=4000, seed=checked)
        assert exact.is_convex == (sampled.margin >= -1e-5)
        checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# Mixture transition
# ---------------------------------------------------------------------------


def test_gmm_profile_matches_generic_radial_statistic():
    for eps in (0.1, 0.4, 0.9):
        closed = opt.gmm_profile(eps, GRID).values
        generic = dn.rho_analytic(dn.two_gaussian_mixture(eps), GRID).values
        assert np.allclose(closed, generic, rtol=1e-12)


def test_critical_epsilon_in_expected_bracket():
    trace = []
    eps_c = opt.critical_epsilon_gmm(GRID, record=trace)
    assert 0.30 < eps_c < 0.45
    assert trace[0][0] == 0.05 and not trace[0][2]
    assert trace[1][0] == 0.95 and trace[1][2]


def test_critical_epsilon_requires_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        opt.critical_epsilon_gmm(GRID, eps_lo=0.5, eps_hi=0.9)


def test_gmm_profile_validation():
    with pytest.raises(ValueError):
        opt.gmm_profile(0.0, GRID)
    with pytest.raises(ValueError):
        opt.gmm_profile(0.5, sb.make_grid(3, 64))


# ---------------------------------------------------------------------------
# support_body
# ---------------------------------------------------------------------------


def test_support_body_circle_samples():
    rng = np.random.default_rng(23)
    theta = rng.uniform(0, 2 * np.pi, 5000)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    body = opt.support_body(dn.SampleSet(2, pts), GRID)
    assert np.all(np.abs(body.radii - 1.0) < 0.01)


def test_support_body_contains_all_samples():
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(500, 2)) * np.array([2.0, 0.5])
    body = opt.support_body(dn.SampleSet(2, pts), GRID)
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


def test_support_body_3d_containment():
    grid3 = sb.make_grid(3, 1024)
    rng = np.random.default_rng(37)
    pts = rng.normal(size=(2000, 3))
    body = opt.support_body(dn.SampleSet(3, pts), grid3)
    assert np.all(body.gauge_many(pts) <= 1.0 + 1e-9)


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
