"""Acceptance checklist: one test per numbered item, run at desk scale.

Each test prints a single PASS line with the measured figures once its
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.  Tolerances are the contract values, not tuned numbers.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import starbody as sb
from starbody import density as dn
from starbody import geometry as ge
from starbody import gibbs as gb
from starbody import learn as ln
from starbody import optimizer as op

GRID = ge.make_grid(2, 1024)


def random_star_body(rng, grid, base=1.0, amp=0.35, modes=4, floor=0.2):
    theta = grid.angles()
    rho = np.full(grid.n, float(base))
    for k in range(1, modes + 1):
        rho += (rng.uniform(-amp, amp) / k) * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
    return ge.RadialGridBody(grid, np.clip(rho, floor, None))


def gaussian_optimum(cov):
    """Closed-form unit-volume optimal ellipse for a centered Gaussian."""
    cov = np.asarray(cov, dtype=float)
    scale = math.pi ** -0.5 * np.linalg.det(cov) ** -0.25
    w, v = np.linalg.eigh(cov)
    axes = scale * np.sqrt(w)
    return ge.EllipsoidBody(v @ np.diag(axes) @ v.T)


def sup_rel_radial_error(body, expected_rho, grid=GRID):
    rho = ge.radial_on_grid(body, grid)
    return float(np.max(np.abs(rho / expected_rho - 1.0)))


def ok(num, msg):
    print(f"[criterion {num:02d}] PASS {msg}")


def test_criterion_01_normalizer_identity():
    grid = ge.make_grid(2, 256)
    rng = np.random.default_rng(101)
    worst_quad = 0.0
    worst_mc = 0.0
    for i in range(20):
        body = random_star_body(rng, grid)
        rho = ge.radial_on_grid(body, grid)
        z_quad = sum(
            w * quad(lambda r, g=1.0 / rj: r * math.exp(-r * g), 0.0, np.inf,
                     epsabs=1e-13, epsrel=1e-13)[0]
            for w, rj in zip(grid.weights, rho)
        )
        z_exact = ge.volume(body, grid) * math.gamma(3)
        worst_quad = max(worst_quad, abs(z_quad - z_exact) / z_exact)
        est, _ = gb.mc_normalizer_estimate(body, grid, n=200_000, seed=1000 + i)
        worst_mc = max(worst_mc, abs(est - z_exact) / z_exact)
    assert worst_quad <= 1e-9
    assert worst_mc <= 0.02
    ok(1, f"normalizer: quadrature rel err {worst_quad:.2e}, MC rel err {worst_mc:.2e}")


def test_criterion_02_lutwak_inequality():
    rng = np.random.default_rng(202)
    d = 2
    min_margin = math.inf
    worst_dilate = 0.0
    for i in range(100):
        k = random_star_body(rng, GRID)
        l = random_star_body(rng, GRID)
        lhs = ge.dual_mixed_volume(k, l, -1.0, GRID) ** d
        rhs = ge.volume(k, GRID) ** -1 * ge.volume(l, GRID) ** (d + 1)
        min_margin = min(min_margin, lhs - rhs)
        if i < 10:
            dk = ge.dilate(k, rng.uniform(0.5, 2.0))
            dlhs = ge.dual_mixed_volume(k, dk, -1.0, GRID) ** d
            drhs = ge.volume(k, GRID) ** -1 * ge.volume(dk, GRID) ** (d + 1)
            worst_dilate = max(worst_dilate, abs(dlhs - drhs) / drhs)
    assert min_margin >= -1e-6
    assert worst_dilate <= 1e-6
    ok(2, f"Lutwak: min margin {min_margin:.3e}, dilate residual {worst_dilate:.2e}")


def test_criterion_03_gaussian_optimum():
    angle = 0.6
    q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    cov = q @ np.diag([4.0, 1.0]) @ q.T
    expected = ge.radial_on_grid(gaussian_optimum(cov), GRID)

    spec = dn.GaussianDensity(cov)
    analytic = sb.optimal_body(dn.rho_analytic(spec, GRID)).k_star
    err_analytic = sup_rel_radial_error(analytic, expected)
    assert err_analytic <= 1e-4

    samples = dn.sample_density(spec, 100_000, seed=3)
    # bandwidth ~ m^(-1/5), the 1-D circular kernel rate; the 0.15 default
    # targets much smaller samples
    sampled = sb.optimal_body(dn.rho_empirical(samples, GRID, bandwidth=0.1)).k_star
    err_sampled = sup_rel_radial_error(sampled, expected)
    assert err_sampled <= 0.03
    ok(3, f"Gaussian optimum: analytic sup err {err_analytic:.2e}, sampled {err_sampled:.2%}")


def test_criterion_04_uniform_over_body_optimum():
    # l1 ball
    l1 = ge.DictionaryPolytopeBody(np.eye(2))
    k_star = sb.optimal_body(dn.rho_analytic(dn.UniformOverBody(l1, GRID), GRID)).k_star
    expected = (1.0 / math.sqrt(2.0)) / np.abs(GRID.nodes).sum(axis=1)
    err_l1 = sup_rel_radial_error(k_star, expected)
    assert err_l1 <= 1e-4
    # random star body
    rng = np.random.default_rng(404)
    base = random_star_body(rng, GRID)
    k_star = sb.optimal_body(dn.rho_analytic(dn.UniformOverBody(base, GRID), GRID)).k_star
    rho0 = ge.radial_on_grid(base, GRID)
    expected = rho0 * ge.volume(base, GRID) ** -0.5
    err_star = sup_rel_radial_error(k_star, expected)
    assert err_star <= 1e-4
    ok(4, f"uniform-over-body: l1 sup err {err_l1:.2e}, star body {err_star:.2e}")


def test_criterion_05_gmm_critical_epsilon():
    start = time.monotonic()
    eps_c = op.critical_epsilon_gmm(GRID)
    assert 0.30 < eps_c < 0.45
    hi = op.check_convexity(sb.optimal_body(sb.rho_analytic(dn.two_gaussian_mixture(0.75), GRID)).k_star)
    lo = op.check_convexity(sb.optimal_body(sb.rho_analytic(dn.two_gaussian_mixture(0.10), GRID)).k_star)
    assert hi.is_convex
    assert not lo.is_convex
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    ok(5, f"GMM transition: eps_c {eps_c:.4f}, 0.75 convex, 0.10 nonconvex, {elapsed:.1f}s")


def test_criterion_06_annular_profiles_constant():
    theta = GRID.angles()
    choices = {
        "const": np.full(GRID.n, 0.4),
        "wiggle3": 0.7 + 0.25 * np.cos(3 * theta),
        "wiggle5": 0.6 + 0.2 * np.sin(5 * theta) + 0.1 * np.cos(2 * theta),
        "lobe": 0.9 + 0.35 * np.cos(theta + 1.0),
    }
    ratios = {}
    for i, (name, f_values) in enumerate(choices.items()):
        region = dn.AnnularRegion(f_values, GRID)
        values = region.analytic_profile(alpha=1.0).values
        ratio_analytic = float(values.max() / values.min())
        assert ratio_analytic <= 1.02
        samples = region.sample(100_000, seed=600 + i)
        emp = dn.rho_empirical(samples, GRID).values
        ratio_sampled = float(emp.max() / emp.min())
        assert ratio_sampled <= 1.05
        ratios[name] = (ratio_analytic, ratio_sampled)
    worst = max(v for pair in ratios.values() for v in pair)
    ok(6, f"annular profiles constant: worst max/min ratio {worst:.4f} over 4 choices")


def test_criterion_07_optimal_dilate_and_m_projection():
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(10):
        body = random_star_body(rng, GRID)
        data = gb.sample_gibbs(random_star_body(rng, GRID), 2000, seed=70 + i, grid=GRID)
        lam = gb.optimal_dilate(body, data)

        def nll_at(scale, body=body, data=data):
            return gb.nll(ge.dilate(body, scale), data, GRID)

        res = minimize_scalar(
            nll_at, bounds=(lam / 4.0, lam * 4.0), method="bounded",
            options={"xatol": 1e-10},
        )
        worst = max(worst, abs(res.x - lam))
    assert worst <= 1e-6
    # m-projection over a unit-volume family: nll ranking equals the
    # expected-gauge ranking because log Z is constant on the family
    bodies = []
    for i in range(6):
        raw = random_star_body(rng, GRID)
        bodies.append(ge.dilate(raw, ge.volume(raw, GRID) ** -0.5))
    data = gb.sample_gibbs(bodies[2], 5000, seed=71, grid=GRID)
    idx, values = gb.m_projection(bodies, data, GRID)
    means = np.array([dn.expected_gauge(b, data) for b in bodies])
    assert idx == int(np.argmin(means))
    shifts = values - means
    assert np.max(np.abs(shifts - shifts[0])) <= 1e-12
    ok(7, f"optimal dilate: worst scan gap {worst:.2e}; m-projection argmin identity exact")


def test_criterion_08_gibbs_gauge_law():
    rng = np.random.default_rng(808)
    n = 100_000
    bound = 1.63 / math.sqrt(n)
    worst = 0.0
    for i in range(5):
        body = random_star_body(rng, GRID)
        draws = gb.sample_gibbs(body, n, seed=80 + i, grid=GRID)
        worst = max(worst, gb.gauge_ks_statistic(body, draws))
    assert worst < bound
    ok(8, f"Gibbs gauge law: worst KS {worst:.5f} < {bound:.5f} at n=1e5")


def test_criterion_09_alpha_invariance():
    rng = np.random.default_rng(909)
    base = random_star_body(rng, GRID)
    worst = 0.0
    for profile in ("exp", "gauss"):
        spec = dn.GaugeInducedDensity(base, profile, grid=GRID)
        stars = [
            sb.optimal_body(dn.rho_analytic(spec, GRID, alpha=a)).k_star
            for a in (1.0, 2.0, 4.0)
        ]
        ref = ge.radial_on_grid(stars[0], GRID)
        for other in stars[1:]:
            worst = max(worst, sup_rel_radial_error(other, ref))
    assert worst <= 1e-4
    ok(9, f"alpha invariance: worst nodewise spread {worst:.2e} for alpha in {{1,2,4}}")


def test_criterion_10_lipschitz_bounds():
    rng = np.random.default_rng(111)
    r = 0.5
    worst = -math.inf
    for _ in range(50):
        k = random_star_body(rng, GRID, base=1.1, amp=0.3, floor=r)
        l = random_star_body(rng, GRID, base=1.1, amp=0.3, floor=r)
        delta = ge.radial_distance(k, l, GRID)
        x = rng.uniform(-1.5, 1.5, size=(20, 2))
        y = x + rng.uniform(-0.5, 0.5, size=(20, 2))
        lhs = np.abs(k.gauge_many(x) - l.gauge_many(y))
        bound = delta / r**2 + np.linalg.norm(x - y, axis=1) / r
        worst = max(worst, float((lhs - bound).max()))
    assert worst <= 1e-6
    ok(10, f"Lipschitz: worst violation {worst:.3e} over 1000 quadruples (slack 1e-6)")


def test_criterion_11_noise_robustness():
    rng = np.random.default_rng(121)
    bodies = []
    for _ in range(10):
        a = rng.uniform(0, 2 * np.pi)
        q = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        bodies.append(ge.EllipsoidBody(q @ np.diag(rng.uniform(0.6, 1.8, size=2)) @ q.T))
    report = ln.noise_robustness(
        dn.GaussianDensity(np.eye(2)), bodies,
        [0.05, 0.1, 0.2, 0.3, 0.4, 0.5], dn.GaussianDensity(np.eye(2)),
        m=20_000, seed=12, r=0.5, grid=GRID,
    )
    assert all(report.within_bound)
    margin = min(b + s - d for d, b, s in
                 zip(report.sup_deviations, report.bounds, report.slacks))
    ok(11, f"noise robustness: all 6 sigmas within bound, min margin {margin:.4f}")


def test_criterion_12_convergence():
    start = time.monotonic()
    cov = np.diag([4.0, 1.0])
    spec = dn.GaussianDensity(cov)
    population = gaussian_optimum(cov)
    schedule = [100, 1000, 10_000, 100_000]
    passes = 0
    curves = []
    for trial in range(10):
        report = ln.convergence_experiment(
            spec, "ellipsoid", schedule, seed=trial, grid=GRID, population=population
        )
        d = report.distances
        curves.append(d)
        if d[-1] < d[0] and d[-1] < 0.05:
            passes += 1
    # single trials may sit at the noise floor early; the median curve must
    # still fall at every step of the schedule
    median = np.median(np.array(curves), axis=0)
    elapsed = time.monotonic() - start
    assert passes >= 9
    assert all(b < a for a, b in zip(median, median[1:]))
    assert elapsed <= 300.0
    finals = [d[-1] for d in curves]
    ok(12, f"convergence: {passes}/10 trials decreasing with final < 0.05 "
           f"(max final {max(finals):.4f}), median curve monotone, {elapsed:.0f}s")


def test_criterion_13_generalization_gap_slope():
    report = ln.generalization_gap(
        "ellipsoid", dn.GaussianDensity(np.diag([4.0, 1.0])),
        [100, 1000, 10_000], gamma=0.1, seed=13, trials=10,
    )
    assert -0.65 <= report.slope <= -0.35
    ok(13, f"generalization gap: log-log slope {report.slope:.3f} in [-0.65, -0.35]")


def test_criterion_14_dictionary_feasibility():
    rng = np.random.default_rng(141)
    angle = 0.7
    q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    planted = q @ np.eye(2)
    m = 400
    idx = rng.integers(0, 2, size=m)
    coefs = rng.uniform(0.5, 1.5, size=m) * rng.choice([-1.0, 1.0], size=m)
    pts = planted[:, idx].T * coefs[:, None]
    samples = dn.SampleSet(2, pts)

    planted_body = ge.DictionaryPolytopeBody(planted)
    planted_risk = float(planted_body.gauge_many(pts).mean())
    cfg = ln.FitConfig(family="dictionary", p=2, seed=14)
    report = ln.fit_dictionary(samples, cfg)
    assert report.final_risk <= planted_risk + 1e-3

    l1 = ge.DictionaryPolytopeBody(np.eye(2))
    probes = rng.uniform(-2, 2, size=(100, 2))
    gap = float(np.max(np.abs(l1.gauge_many(probes) - np.abs(probes).sum(axis=1))))
    assert gap <= 1e-8
    ok(14, f"dictionary: fitted risk {report.final_risk:.6f} <= planted "
           f"{planted_risk:.6f} + 1e-3; LP gauge vs l1 norm gap {gap:.1e}")
