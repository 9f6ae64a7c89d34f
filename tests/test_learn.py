"""ERM fitters and the convergence / robustness / generalization experiments."""

import math

import numpy as np
import pytest

import starbody as sb
from starbody import density as dn
from starbody import learn as ln
from starbody.geometry import radial_on_grid
from starbody.optimizer import check_convexity

GRID = sb.make_grid(2, 1024)


def gaussian_optimum(cov):
    """Unit-volume optimal ellipse for a centered Gaussian."""
    vals, vecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    root = (vecs * np.sqrt(vals)) @ vecs.T
    scale = np.pi**-0.5 * np.linalg.det(cov) ** -0.25
    return sb.EllipsoidBody(scale * root)


def gaussian_samples(cov, m, seed):
    return dn.sample_density(dn.GaussianDensity(cov), m, seed=seed)


# ---------------------------------------------------------------------------
# fit_ellipsoid
# ---------------------------------------------------------------------------


def test_fit_ellipsoid_recovers_gaussian_shape():
    cov = np.diag([4.0, 1.0])
    report = ln.fit_ellipsoid(gaussian_samples(cov, 100_000, 0), ln.FitConfig())
    axes = np.sort(np.linalg.eigvalsh(report.body.matrix))
    assert axes[1] / axes[0] == pytest.approx(2.0, rel=0.02)
    assert sb.radial_distance(report.body, gaussian_optimum(cov), GRID) < 0.03
    assert np.pi * np.linalg.det(report.body.matrix) == pytest.approx(1.0, abs=1e-12)


def test_fit_ellipsoid_isotropic():
    report = ln.fit_ellipsoid(gaussian_samples(np.eye(2), 50_000, 1), ln.FitConfig())
    A = report.body.matrix / np.linalg.eigvalsh(report.body.matrix).mean()
    assert abs(A[0, 1]) < 1e-2
    assert np.linalg.eigvalsh(A)[0] == pytest.approx(1.0, abs=0.02)


def test_fit_ellipsoid_descends_from_default_start():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(400, 2)) @ np.array([[1.5, 0.4], [0.0, 0.6]])
        samples = dn.SampleSet(2, pts)
        report = ln.fit_ellipsoid(samples, ln.FitConfig())
        trace = np.array(report.risk_trace)
        assert np.all(np.diff(trace) <= 0)
        assert report.final_risk == trace[-1]
        assert report.final_risk < trace[0]


def test_fit_ellipsoid_rotation_equivariance():
    cov = np.diag([3.0, 1.0])
    samples = gaussian_samples(cov, 20_000, 3)
    theta = 0.7
    Q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    base = ln.fit_ellipsoid(samples, ln.FitConfig()).body.matrix
    rotated = ln.fit_ellipsoid(dn.SampleSet(2, samples.points @ Q.T), ln.FitConfig()).body.matrix
    assert np.allclose(rotated, Q @ base @ Q.T, atol=1e-6)


def test_fit_ellipsoid_floor_clamp():
    cov = np.diag([25.0, 0.01])
    cfg = ln.FitConfig(inner_width_floor=0.3)
    report = ln.fit_ellipsoid(gaussian_samples(cov, 20_000, 4), cfg)
    axes = np.linalg.eigvalsh(report.body.matrix)
    # the eigenvalue cap is the floor itself, not a repair after the fit
    assert axes.min() == pytest.approx(0.3, rel=1e-12)
    assert np.all(np.diff(report.risk_trace) <= 0)
    assert np.pi * np.linalg.det(report.body.matrix) == pytest.approx(1.0, rel=1e-9)
    assert any("floor" in e for e in report.events)
    assert radial_on_grid(report.body, GRID).min() >= 0.3 - 1e-9


@pytest.mark.parametrize("d", range(2, 7))
def test_fit_ellipsoid_first_order_certificate(d):
    # Non-Gaussian radii: the second-moment start is not the optimum.  At a
    # stationary M of E||x||_M over det M = 1, M^(1/2) S M^(1/2) is a multiple
    # of I, where S = E[x x^T / ||x||_M].
    for seed in range(5):
        rng = np.random.default_rng([d, seed])
        X = rng.normal(size=(5000, d)) @ rng.normal(size=(d, d))
        X *= 1.0 + rng.exponential(size=(5000, 1))
        A = ln.fit_ellipsoid(dn.SampleSet(d, X), ln.FitConfig()).body.matrix
        M = np.linalg.inv(A @ A)
        M /= np.linalg.det(M) ** (1.0 / d)
        S = (X / np.sqrt(np.einsum("ij,jk,ik->i", X, M, X))[:, None]).T @ X / len(X)
        vals, vecs = np.linalg.eigh(M)
        root = (vecs * np.sqrt(vals)) @ vecs.T
        T = root @ S @ root
        tr = np.trace(T)
        assert np.linalg.norm(T - (tr / d) * np.eye(d)) / tr <= 1e-6


def test_fit_ellipsoid_floor_infeasible():
    cov = np.diag([25.0, 0.01])
    with pytest.raises(ValueError, match="incompatible"):
        ln.fit_ellipsoid(gaussian_samples(cov, 5_000, 5), ln.FitConfig(inner_width_floor=0.7))


def test_fit_ellipsoid_rejects_degenerate_samples():
    line = np.outer(np.linspace(-1, 1, 50), [1.0, 2.0])
    with pytest.raises(ValueError, match="rank-deficient"):
        ln.fit_ellipsoid(dn.SampleSet(2, line), ln.FitConfig())
    with pytest.raises(ValueError):
        ln.fit_ellipsoid(dn.SampleSet(2, np.ones((1, 2))), ln.FitConfig())


def test_fit_config_validation():
    with pytest.raises(ValueError):
        ln.FitConfig(family="simplex")
    with pytest.raises(ValueError):
        ln.FitConfig(inner_width_floor=0.0)
    with pytest.raises(ValueError):
        ln.FitConfig(L=0)


def one_sparse_samples(Q, m, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(Q.shape[1], size=m)
    coeffs = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    return dn.SampleSet(2, coeffs[:, None] * Q[:, idx].T)


def near_line_samples(m, seed, spread=1e-9):
    """Directions within `spread` rad of the x axis: the spread 2-column
    dictionary is singular, so fit_dictionary reseeds a column from a
    sample drawn with cfg.seed."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, spread, size=m)
    r = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    return dn.SampleSet(2, np.column_stack([r * np.cos(theta), r * np.sin(theta)]))


FIT_DATA = {
    # the floor 0.3 binds on the short axis (test_fit_ellipsoid_floor_clamp)
    "elongated": lambda: gaussian_samples(np.diag([25.0, 0.01]), 20_000, 4),
    "gmm": lambda: dn.sample_density(dn.two_gaussian_mixture(0.05), 4000, seed=12),
    "axes": lambda: one_sparse_samples(np.eye(2), 200, 7),
    "near-line": lambda: near_line_samples(40, 3),
}


# (family, field, two values, data, effect): "fit" when the body, the risk
# trace or the events change, "events" when only the events do, None when
# nothing does
FIELD_CASES = [
    ("ellipsoid", "max_iters", 1, 60, "elongated", "fit"),
    ("ellipsoid", "inner_width_floor", 1e-3, 0.3, "elongated", "fit"),
    ("ellipsoid", "seed", 0, 1, "elongated", None),
    ("ellipsoid", "p", 2, 4, "elongated", None),
    ("ellipsoid", "L", 2, 3, "elongated", None),
    ("dictionary", "max_iters", 1, 8, "gmm", "fit"),
    ("dictionary", "inner_width_floor", 1e-3, 0.8, "axes", "events"),
    ("dictionary", "seed", 0, 1, "axes", None),
    ("dictionary", "seed", 0, 1, "near-line", "fit"),
    ("dictionary", "p", 2, 4, "axes", "fit"),
    ("dictionary", "L", 2, 3, "axes", None),
    ("union_ellipsoids", "max_iters", 1, 12, "gmm", "fit"),
    ("union_ellipsoids", "inner_width_floor", 1e-3, 0.3, "elongated", "fit"),
    ("union_ellipsoids", "seed", 12, 13, "gmm", "fit"),
    ("union_ellipsoids", "L", 2, 3, "gmm", "fit"),
    ("union_ellipsoids", "p", 2, 4, "gmm", None),
]


@pytest.mark.parametrize(
    "family, field, a, b, data, effect",
    FIELD_CASES,
    ids=[f"{c[0]}-{c[1]}-{c[4]}" for c in FIELD_CASES],
)
def test_fit_config_field_applies_to_family(family, field, a, b, data, effect):
    samples = FIT_DATA[data]()
    base = {"family": family, "max_iters": 12, "p": 2, "L": 2}
    outcomes = []
    for value in (a, b):
        report = ln.fit(samples, ln.FitConfig(**{**base, field: value}), grid=GRID)
        outcomes.append((sb.body_to_json(report.body), report.risk_trace, report.events))
    first, second = outcomes
    if effect == "fit":
        assert first != second
    elif effect == "events":
        assert first[:2] == second[:2] and first[2] != second[2]
    else:
        assert first == second


# ---------------------------------------------------------------------------
# fit_dictionary
# ---------------------------------------------------------------------------


def test_fit_dictionary_planted_axes():
    samples = one_sparse_samples(np.eye(2), 200, 7)
    planted_risk = np.abs(samples.points).sum(axis=1).mean()
    cfg = ln.FitConfig(family="dictionary", p=2, max_iters=8, seed=7)
    report = ln.fit_dictionary(samples, cfg)
    assert report.final_risk <= planted_risk + 1e-3
    trace = np.array(report.risk_trace)
    assert np.all(np.diff(trace) <= 0)


def test_fit_dictionary_planted_rotation():
    theta = math.pi / 6
    Q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    train = one_sparse_samples(Q, 300, 8)
    held = one_sparse_samples(Q, 400, 9)
    cfg = ln.FitConfig(family="dictionary", p=2, max_iters=10, seed=8)
    report = ln.fit_dictionary(train, cfg)
    planted = sb.DictionaryPolytopeBody(Q)
    fitted_risk = dn.expected_gauge(report.body, held)
    planted_risk = dn.expected_gauge(planted, held)
    assert fitted_risk <= planted_risk * 1.05


def test_fit_dictionary_unit_columns():
    samples = one_sparse_samples(np.eye(2), 120, 10)
    report = ln.fit_dictionary(samples, ln.FitConfig(family="dictionary", p=2, max_iters=5))
    norms = np.linalg.norm(report.body.columns, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_fit_dictionary_validation():
    samples = dn.SampleSet(2, np.random.default_rng(0).normal(size=(30, 2)))
    with pytest.raises(ValueError, match="p >= d"):
        ln.fit_dictionary(samples, ln.FitConfig(family="dictionary", p=1))
    with pytest.raises(ValueError, match="at least p"):
        ln.fit_dictionary(samples, ln.FitConfig(family="dictionary", p=40))


def test_fit_dictionary_rejects_failed_candidate(monkeypatch):
    original = sb.DictionaryPolytopeBody.gauge_certificate_many
    calls = []

    def fail_first_candidate(body, points):
        calls.append(points)
        if len(calls) == 2:  # call 1 codes the initial body, call 2 the first candidate
            raise sb.UnboundedGaugeError("l1 coding violated feasibility tolerance")
        return original(body, points)

    monkeypatch.setattr(sb.DictionaryPolytopeBody, "gauge_certificate_many", fail_first_candidate)
    samples = dn.SampleSet(2, np.random.default_rng(23).normal(size=(80, 2)))
    report = ln.fit_dictionary(samples, ln.FitConfig(family="dictionary", p=3, max_iters=4, seed=23))
    assert any(e.startswith("rejected candidate at step size 0.5") for e in report.events)
    trace = np.array(report.risk_trace)
    assert len(trace) > 1
    assert np.all(np.diff(trace) <= 0)


@pytest.mark.parametrize("spread", [1e-9, 1e-8, 1e-7])
def test_fit_dictionary_reseeds_the_later_of_the_most_parallel_pair(spread):
    # both spread columns lie within `spread` of the x axis; which of the two
    # is reseeded must not hang on the rounding of their unit norms
    samples = near_line_samples(40, 3, spread)
    report = ln.fit_dictionary(samples, ln.FitConfig(family="dictionary", p=2, seed=0))
    assert report.events[0] == "reseeded degenerate column 1"


def test_fit_dictionary_records_a_failed_repair():
    # every sample lies within 1e-7 rad of one line, so no reseed from the
    # samples can give the 2-column dictionary full width
    samples = near_line_samples(40, 3, 1e-7)
    report = ln.fit_dictionary(samples, ln.FitConfig(family="dictionary", p=2, seed=1))
    assert "dictionary still degenerate after 2 reseeds" in report.events


# ---------------------------------------------------------------------------
# fit_union_ellipsoids
# ---------------------------------------------------------------------------


def test_fit_union_beats_single_ellipsoid_on_gmm():
    samples = dn.sample_density(dn.two_gaussian_mixture(0.05), 4000, seed=12)
    union_cfg = ln.FitConfig(family="union_ellipsoids", L=2, max_iters=12, seed=12)
    union = ln.fit_union_ellipsoids(samples, union_cfg, grid=GRID)
    single = ln.fit_ellipsoid(samples, ln.FitConfig(seed=12))
    trace = np.array(union.risk_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert union.final_risk < single.final_risk - 0.05
    assert not check_convexity(union.body, GRID).is_convex
    assert sb.volume(union.body, GRID) == pytest.approx(1.0, rel=1e-9)


def test_fit_union_l1_delegates():
    samples = gaussian_samples(np.diag([2.0, 1.0]), 3000, 13)
    cfg = ln.FitConfig(family="union_ellipsoids", L=1, seed=13)
    via_union = ln.fit_union_ellipsoids(samples, cfg)
    direct = ln.fit_ellipsoid(samples, ln.FitConfig(seed=13))
    assert np.array_equal(via_union.body.matrix, direct.body.matrix)
    assert via_union.risk_trace == direct.risk_trace


def test_fit_union_single_population_control():
    samples = gaussian_samples(np.diag([1.5, 0.8]), 5000, 14)
    two = ln.fit_union_ellipsoids(
        samples, ln.FitConfig(family="union_ellipsoids", L=2, max_iters=10, seed=14), grid=GRID
    )
    one = ln.fit_ellipsoid(samples, ln.FitConfig(seed=14))
    assert two.final_risk <= one.final_risk * 1.01
    trace = np.array(two.risk_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_directional_seeds_repeated_directions():
    # u = v / ||v|| has <u, u> = 1 + 2e-16 here, so 1 - <u, u>^2 rounds below 0
    v = np.array([-0.54, 0.36])
    X = np.vstack([np.tile(v, (20, 1)), [[1.0, 0.0], [0.0, 1.0]]])
    for seed in range(10):
        seeds = ln._directional_seeds(X, 3, np.random.default_rng(seed))
        assert seeds.shape == (3, 2)
        assert np.allclose(np.linalg.norm(seeds, axis=1), 1.0)
    samples = dn.SampleSet(2, np.vstack([X, 2.0 * X]))
    for seed in range(4):
        cfg = ln.FitConfig(family="union_ellipsoids", L=2, max_iters=3, seed=seed)
        report = ln.fit_union_ellipsoids(samples, cfg, grid=GRID)
        assert np.all(np.diff(report.risk_trace) <= 1e-12)
        # the cluster along v is rank one; the eigenvalue cap keeps it a body
        for part in report.body.parts:
            assert np.linalg.eigvalsh(part.matrix).min() >= cfg.inner_width_floor


def test_fit_union_needs_samples():
    with pytest.raises(ValueError, match="L\\*d"):
        ln.fit_union_ellipsoids(
            dn.SampleSet(2, np.eye(2)), ln.FitConfig(family="union_ellipsoids", L=3)
        )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def test_convergence_experiment_distances_shrink():
    spec = dn.GaussianDensity(np.diag([2.0, 1.0]))
    report = ln.convergence_experiment(spec, "ellipsoid", [100, 1000, 10_000], seed=15, grid=GRID)
    assert report.distances[-1] < report.distances[0]
    assert report.distances[-1] < 0.05
    again = ln.convergence_experiment(spec, "ellipsoid", [100, 1000, 10_000], seed=15, grid=GRID)
    assert report.distances == again.distances
    # the population risk is the identity d * V~_{-1}(K, L_P); the hand-written
    # form differs only by the rounding of (d * x) / d, within 1 ulp (measured)
    l_p = dn.rho_analytic(spec, GRID).body()
    for r in report.reports:
        old = 2 * sb.dual_mixed_volume(r.body, l_p, -1.0, GRID)
        assert r.population_risk == pytest.approx(old, rel=4 * np.finfo(float).eps, abs=0)


def test_noise_robustness_bound():
    spec = dn.GaussianDensity(np.eye(2))
    noise = dn.GaussianDensity(np.eye(2))
    rng = np.random.default_rng(17)
    bodies = []
    for _ in range(6):
        axes = rng.uniform(0.6, 2.0, size=2)
        bodies.append(sb.EllipsoidBody(np.diag(axes)))
    report = ln.noise_robustness(
        spec, bodies, [0.0, 0.05, 0.2], noise, m=20_000, seed=17, r=0.5, grid=GRID
    )
    assert report.sup_deviations[0] == 0.0
    assert all(report.within_bound)
    assert report.noise_norm_mean == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    assert ln.gaussian_norm_mean(2) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)


def test_noise_robustness_precondition():
    spec = dn.GaussianDensity(np.eye(2))
    small = sb.EllipsoidBody(np.diag([0.2, 1.0]))
    with pytest.raises(ValueError, match="inner width"):
        ln.noise_robustness(spec, [small], [0.1], spec, m=100, seed=0, r=0.5, grid=GRID)


def test_generalization_gap_rate():
    spec = dn.GaussianDensity(np.diag([2.0, 1.0]))
    report = ln.generalization_gap("ellipsoid", spec, [100, 1000], seed=18, trials=4)
    assert report.slope < -0.1
    assert len(report.gaps) == 2 and len(report.gaps[0]) == 4
    assert report.mean_gaps[1] < report.mean_gaps[0]
    with pytest.raises(ValueError):
        ln.generalization_gap("ellipsoid", spec, [100], gamma=1.5)


def test_fit_dictionary_seeded_runs_bit_identical():
    samples = one_sparse_samples(np.eye(2), 60, 19)
    cfg = ln.FitConfig(family="dictionary", p=3, max_iters=3, seed=19)
    first = ln.fit_dictionary(samples, cfg)
    second = ln.fit_dictionary(samples, cfg)
    assert np.array_equal(first.body.columns, second.body.columns)
    assert first.risk_trace == second.risk_trace
