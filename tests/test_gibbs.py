"""Gibbs normalizers, likelihoods, optimal dilates, and the polar sampler."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammainc
from scipy.stats import chisquare, gamma, kstest

import starbody as sb
from starbody import density as dn
from starbody import gibbs as gb
from starbody.geometry import radial_on_grid

GRID = sb.make_grid(2, 1024)


def random_body(seed, n_modes=4):
    rng = np.random.default_rng(seed)
    theta = GRID.angles()
    rho = np.full(GRID.n, 1.0)
    for k in range(1, n_modes + 1):
        rho += rng.uniform(-0.35, 0.35) / k * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
    return sb.RadialGridBody(GRID, np.maximum(rho, 0.2))


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------


def test_log_normalizer_unit_disk():
    ball = sb.EllipsoidBody(np.eye(2))
    assert gb.log_normalizer(ball, GRID) == pytest.approx(math.log(2 * math.pi), abs=1e-12)


def test_log_normalizer_unit_volume_body():
    body = sb.volume_normalize(random_body(3), GRID)
    assert gb.log_normalizer(body, GRID) == pytest.approx(math.log(2.0), abs=1e-12)


def test_log_normalizer_general_alpha_layer_cake():
    body = random_body(5)
    vol = sb.volume(body, GRID)
    for alpha in (1.0, 1.5, 2.0, 4.0):
        moment, _ = quad(lambda t: t * math.exp(-(t**alpha)), 0.0, np.inf)
        expected = math.log(vol * 2.0 * moment)
        assert gb.log_normalizer(body, GRID, alpha) == pytest.approx(expected, abs=1e-10)


def test_mc_normalizer_polar():
    for seed in range(5):
        body = random_body(seed + 10)
        exact = math.exp(gb.log_normalizer(body, GRID))
        est, se = gb.mc_normalizer_estimate(body, GRID, n=200_000, seed=seed)
        assert abs(est - exact) < max(4 * se, 0.02 * exact)
        assert abs(est - exact) / exact < 0.02


# ---------------------------------------------------------------------------
# Likelihood and dilates
# ---------------------------------------------------------------------------


def test_nll_known_mean_gauge():
    body = sb.volume_normalize(random_body(4), GRID)
    rho = radial_on_grid(body, GRID)
    pts = 2.0 * rho[:, None] * GRID.nodes  # every sample at gauge exactly 2
    data = dn.SampleSet(2, pts)
    assert gb.nll(body, data, GRID) == pytest.approx(2.0 + math.log(2.0), abs=1e-9)


def test_dilate_scan_minimum_at_lambda_k():
    rng = np.random.default_rng(11)
    for seed in range(4):
        body = random_body(seed + 20)
        data = dn.SampleSet(2, rng.normal(size=(500, 2)) * rng.uniform(0.5, 2.0))
        lam = gb.optimal_dilate(body, data)
        res = minimize_scalar(
            lambda l: gb.nll(sb.dilate(body, l), data, GRID),
            bounds=(lam / 10, lam * 10),
            method="bounded",
            options={"xatol": 1e-9},
        )
        assert abs(res.x - lam) < 1e-6


def test_optimal_dilate_homogeneity():
    body = random_body(6)
    pts = np.random.default_rng(0).normal(size=(200, 2))
    lam = gb.optimal_dilate(body, dn.SampleSet(2, pts))
    lam3 = gb.optimal_dilate(body, dn.SampleSet(2, 3.0 * pts))
    assert lam3 == pytest.approx(3.0 * lam, rel=1e-12)


def test_optimal_dilate_rejects_degenerate_data():
    body = sb.EllipsoidBody(np.eye(2))
    with pytest.raises(ValueError, match="mean gauge"):
        gb.optimal_dilate(body, dn.SampleSet(2, np.zeros((5, 2))))


def test_optimal_dilate_uniform_disk():
    # E ||x||_B = 2/3 under the uniform disk, so the optimal dilate is 1/3
    ball = sb.EllipsoidBody(np.eye(2))
    spec = dn.GaugeInducedDensity(ball, "indicator", GRID)
    assert gb.optimal_dilate(ball, spec) == pytest.approx(1 / 3, rel=0, abs=1e-12)


def test_nll_on_a_spec_is_the_identity_plus_log_normalizer():
    spec = dn.GaussianDensity(np.array([[2.0, 0.4], [0.4, 1.0]]))
    body = random_body(42)
    rho_p = dn.rho_analytic(spec, GRID).values
    identity = float(np.dot(GRID.weights, radial_on_grid(body, GRID) ** -1.0 * rho_p**3.0))
    expected = identity + gb.log_normalizer(body, GRID)
    assert gb.nll(body, spec, GRID) == expected
    _, values = gb.m_projection([body, body], spec, GRID)
    assert values.tolist() == [expected, expected]


def test_m_projection_selects_generator():
    target = sb.volume_normalize(random_body(8), GRID)
    family = [
        target,
        sb.volume_normalize(sb.EllipsoidBody(np.diag([3.0, 1.0])), GRID),
        sb.volume_normalize(random_body(99, n_modes=2), GRID),
    ]
    data = gb.sample_gibbs(target, 20_000, seed=13, grid=GRID)
    idx, values = gb.m_projection(family, data, GRID)
    assert idx == 0
    # log Z is constant on the unit-volume family, so the same argmin must
    # come out of the bare expected gauges, with no tolerance.
    gauges = [dn.expected_gauge(b, data) for b in family]
    assert idx == int(np.argmin(gauges))
    assert np.all(np.diff(values - np.array(gauges)) < 1e-12)


def test_m_projection_rejects_empty_family():
    with pytest.raises(ValueError):
        gb.m_projection([], dn.SampleSet(2, np.ones((3, 2))), GRID)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def test_sampler_gauge_law_is_gamma():
    for seed in range(3):
        body = random_body(seed + 30)
        samples = gb.sample_gibbs(body, 30_000, seed=seed, grid=GRID)
        assert gb.gauge_ks_statistic(body, samples) < 1.63 / math.sqrt(30_000)


def cellwise_gauss_rule(grid, k=8):
    """Directions and weights of a k x k Gauss-Legendre rule in (t, phi) on
    every cell of a product grid: exact for the body's interpolant up to its
    smoothness within a cell, independent of the grid's own weights."""
    az = grid.descriptor["azimuths"]
    levels = np.concatenate([[-1.0], grid.nodes[1:-1:az, 2], [1.0]])
    x, w = np.polynomial.legendre.leggauss(k)
    half = np.diff(levels)[:, None] / 2
    t = ((levels[:-1, None] + levels[1:, None]) / 2 + half * x).ravel()
    wt = (half * w).ravel()
    phi = ((np.arange(az)[:, None] + (x + 1) / 2) * (2 * np.pi / az)).ravel()
    wp = np.tile(w * np.pi / az, az)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    s = np.sqrt(1 - tt**2)
    dirs = np.stack([s * np.cos(pp), s * np.sin(pp), tt], axis=-1).reshape(-1, 3)
    return dirs, np.outer(wt, wp).ravel()


def test_sampler_is_exact_for_the_product_grid_interpolant():
    # an elongated ellipsoid's node values: its interpolant is the body sampled
    grid = sb.make_grid(3, 256)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    ell = sb.EllipsoidBody((q * np.geomspace(1.0, 3.0, 3)) @ q.T)
    body = sb.RadialGridBody(grid, ell.radial_many(grid.nodes))
    dirs, w = cellwise_gauss_rule(grid)
    rho = body.radial_many(dirs)
    # Gibbs draws x = t rho(u) u with t ~ Gamma(3, 1) and u ~ rho^3:
    # E[x x^T] = E[t^2] integral rho^5 u u^T / integral rho^3
    target = 12.0 * np.einsum("i,ij,ik->jk", w * rho**5, dirs, dirs) / np.dot(w, rho**3)
    n = 1_000_000
    pts = gb.sample_gibbs(body, n, seed=17, grid=grid).points
    for i in range(3):
        for j in range(i, 3):
            prod = pts[:, i] * pts[:, j]
            z = (prod.mean() - target[i, j]) / (prod.std() / math.sqrt(n))
            assert abs(z) < 4.0, (i, j, z)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_gauge_ks_statistic_equals_scipy_kstest(dim):
    # the closed form with the Erlang CDF must reproduce kstest's statistic
    # to the CDF's own 2e-15
    rng = np.random.default_rng(40 + dim)
    B = rng.standard_normal((dim, dim))
    bodies = [sb.EllipsoidBody(B @ B.T + np.eye(dim))]
    if dim == 3:
        grid = sb.make_grid(3, 256)
        bodies.append(sb.RadialGridBody(grid, rng.uniform(0.5, 2.0, grid.n)))
    for body in bodies:
        for n in (1, 2, 1000, 50_000):
            pts = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
            expected = kstest(body.gauge_many(pts), gamma(a=dim).cdf).statistic
            assert abs(gb.gauge_ks_statistic(body, dn.SampleSet(dim, pts)) - expected) <= 2e-15


def test_gamma_cdf_matches_scipy_gammainc():
    g = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 4000), np.linspace(0.0, 60.0, 4001)])
    for d in range(1, 21):
        assert np.max(np.abs(gb._gamma_cdf(d, g) - gammainc(d, g))) <= 2e-15


def test_sampler_gauge_mean():
    body = random_body(33)
    n = 100_000
    samples = gb.sample_gibbs(body, n, seed=5, grid=GRID)
    mean = body.gauge_many(samples.points).mean()
    assert abs(mean - 2.0) < 3 * math.sqrt(2.0) / math.sqrt(n)


def test_sampler_uniform_directions_on_ball():
    samples = gb.sample_gibbs(sb.EllipsoidBody(np.eye(2)), 100_000, seed=2, grid=GRID)
    theta = np.arctan2(samples.points[:, 1], samples.points[:, 0])
    counts, _ = np.histogram(theta, bins=16, range=(-np.pi, np.pi))
    assert chisquare(counts).pvalue > 0.01


def test_sampler_nll_at_true_model():
    body = random_body(40)
    n = 50_000
    samples = gb.sample_gibbs(body, n, seed=9, grid=GRID)
    expected = gb.log_normalizer(body, GRID) + 2.0
    se = body.gauge_many(samples.points).std() / math.sqrt(n)
    assert abs(gb.nll(body, samples, GRID) - expected) < 4 * se


def test_sampler_determinism_and_validation():
    body = random_body(41)
    a = gb.sample_gibbs(body, 1000, seed=77, grid=GRID)
    b = gb.sample_gibbs(body, 1000, seed=77, grid=GRID)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(ValueError):
        gb.sample_gibbs(body, 0, grid=GRID)


@pytest.mark.parametrize("law", ["gibbs", "uniform"])
@pytest.mark.parametrize("kind", ["ellipsoid", "grid"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_gauge_induced_laws_share_one_polar_sampler(d, kind, law):
    # p_K is the "exp" profile's law, and a density file's uniform law is the
    # "indicator" profile's on make_grid(d, grid_n): equal Generators give the
    # same bytes through the Gibbs sampler or the file's spec and the class
    grid = sb.make_grid(d, 1024)
    body = sb.EllipsoidBody(np.diag(np.linspace(1.5, 0.75, d)))
    if kind == "grid":
        body = sb.RadialGridBody(grid, radial_on_grid(body, grid))
    if law == "gibbs":
        a = dn.GaugeInducedDensity(body, "exp", grid).sample(2000, np.random.default_rng(7))
        b = gb.sample_gibbs(body, 2000, seed=np.random.default_rng(7), grid=grid).points
    else:
        data = {"type": "uniform_over_body", "body": sb.body_to_dict(body)}
        a = dn.density_from_dict(data, grid.n).sample(2000, np.random.default_rng(7))
        b = dn.GaugeInducedDensity(body, "indicator", grid).sample(2000, np.random.default_rng(7))
    assert np.array_equal(a, b)
