"""Density specs, radial statistics, expected gauge, sampling, ingestion."""

import math
import tracemalloc

import numpy as np
import pytest

import starbody as sb
from starbody import density as dn
from starbody import geometry as ge
from starbody.geometry import radial_on_grid

GRID = sb.make_grid(2, 1024)
BALL = sb.EllipsoidBody(np.eye(2))


def gaussian_profile_oracle(cov, nodes, alpha=1.0):
    """Closed-form radial statistic of a centered Gaussian.

    integral_0^inf r^(s-1) e^(-q^2 r^2 / 2) dr = 2^(s/2-1) Gamma(s/2) / q^s
    with q = ||Sigma^(-1/2) u||, prefactor det(2 pi Sigma)^(-1/2).
    """
    d = cov.shape[0]
    s = d + alpha
    q = np.sqrt(np.einsum("ij,jk,ik->i", nodes, np.linalg.inv(cov), nodes))
    const = (2 * np.pi) ** (-d / 2) * np.linalg.det(cov) ** -0.5
    mom = const * 2 ** (s / 2 - 1) * math.gamma(s / 2) * q**-s
    return mom ** (1.0 / s)


# ---------------------------------------------------------------------------
# rho_analytic
# ---------------------------------------------------------------------------


def test_rho_gaussian_identity_constant():
    prof = dn.rho_analytic(dn.GaussianDensity(np.eye(2)), GRID)
    oracle = ((1 / (2 * np.pi)) * math.sqrt(np.pi / 2)) ** (1 / 3)
    assert np.allclose(prof.values, oracle, rtol=1e-9)
    assert prof.values.max() - prof.values.min() < 1e-12


def test_rho_gaussian_anisotropic_matches_oracle():
    cov = np.array([[4.0, 0.6], [0.6, 1.0]])
    prof = dn.rho_analytic(dn.GaussianDensity(cov), GRID)
    assert np.allclose(prof.values, gaussian_profile_oracle(cov, GRID.nodes), rtol=1e-9)


def test_rho_gaussian_alpha_cases():
    for d in (2, 3, 4, 5):
        grid = GRID if d == 2 else sb.make_grid(d, 256)
        cov = np.diag(np.linspace(2.0, 0.5, d))
        for alpha in (1.0, 1.5, 2.0, 2.5, 4.0):
            prof = dn.rho_analytic(dn.GaussianDensity(cov), grid, alpha=alpha)
            oracle = gaussian_profile_oracle(cov, grid.nodes, alpha)
            assert np.allclose(prof.values, oracle, rtol=1e-13, atol=0)


def test_rho_gaussian_3d():
    grid3 = sb.make_grid(3, 1024)
    cov = np.diag([1.0, 2.0, 0.5])
    prof = dn.rho_analytic(dn.GaussianDensity(cov), grid3)
    assert np.allclose(prof.values, gaussian_profile_oracle(cov, grid3.nodes), rtol=1e-9)


def test_rho_uniform_ball():
    spec = dn.GaugeInducedDensity(BALL, "indicator", GRID)
    prof = dn.rho_analytic(spec, GRID)
    assert np.allclose(prof.values, (3 * np.pi) ** (-1 / 3), rtol=1e-6)


def test_rho_uniform_scales_with_body_radial():
    body = sb.EllipsoidBody(np.array([[1.5, 0.2], [0.2, 0.8]]))
    spec = dn.GaugeInducedDensity(body, "indicator", GRID)
    prof = dn.rho_analytic(spec, GRID)
    c = ((2 + 1) * spec.body_volume) ** (-1 / 3)
    assert np.allclose(prof.values, c * radial_on_grid(body, GRID), rtol=1e-9)


def test_rho_gauge_induced_proportional_to_body():
    body = sb.EllipsoidBody(np.diag([2.0, 1.0]))
    spec = dn.GaugeInducedDensity(body, "exp", GRID)
    rho_l = radial_on_grid(body, GRID)
    for alpha in (1.0, 2.0, 4.0):
        prof = dn.rho_analytic(spec, GRID, alpha=alpha)
        ratio = prof.values / rho_l
        assert ratio.max() - ratio.min() < 1e-6 * ratio.mean()


def test_rho_gauge_induced_exp_ball_value():
    # e^(-||x||) on the disk: normalization 2*pi, ray moment Gamma(3)
    spec = dn.GaugeInducedDensity(BALL, "exp", GRID)
    prof = dn.rho_analytic(spec, GRID)
    assert np.allclose(prof.values, (1 / np.pi) ** (1 / 3), rtol=1e-9)


def test_rho_mixture_is_additive_in_the_d_plus_1_power():
    mix = dn.two_gaussian_mixture(0.3)
    prof = dn.rho_analytic(mix, GRID)
    parts = [dn.rho_analytic(c, GRID).values for c in mix.components]
    combined = (0.5 * parts[0] ** 3 + 0.5 * parts[1] ** 3) ** (1 / 3)
    assert np.allclose(prof.values, combined, rtol=1e-12)


def test_rho_mixture_against_generic_ray_quadrature():
    mix = dn.two_gaussian_mixture(0.4)
    prof = dn.rho_analytic(mix, GRID)
    for j in (0, 100, 300):
        u = GRID.nodes[j]
        mom = dn.radial_moment_quadrature(
            lambda r: mix.pdf(r[:, None] * u[None, :]), s=3.0, r_max=30.0
        )
        assert mom ** (1 / 3) == pytest.approx(prof.values[j], rel=1e-8)


def test_rho_rejects_noncentered_gaussian():
    # a GaussianDensity is centered; a density file's "mean" must be zero
    data = {"type": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]], "mean": [1.0, 0.0]}
    with pytest.raises(ValueError, match="centered"):
        dn.density_from_dict(data, GRID.n)
    spec = dn.density_from_dict({**data, "mean": [0.0, 0.0]}, GRID.n)
    assert np.array_equal(spec.covariance, np.eye(2))


def test_rho_alpha_out_of_range():
    spec = dn.GaussianDensity(np.eye(2))
    with pytest.raises(ValueError):
        dn.rho_analytic(spec, GRID, alpha=0.5)
    with pytest.raises(ValueError):
        dn.rho_analytic(spec, GRID, alpha=9.0)


def test_rho_dimension_mismatch():
    with pytest.raises(ValueError):
        dn.rho_analytic(dn.GaussianDensity(np.eye(3)), GRID)


# ---------------------------------------------------------------------------
# rho_empirical
# ---------------------------------------------------------------------------


def test_rho_empirical_circle():
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 2 * np.pi, 40_000)
    pts = 2.0 * np.column_stack([np.cos(theta), np.sin(theta)])
    prof = dn.rho_empirical(dn.SampleSet(2, pts), GRID)
    oracle = (2.0 / (2 * np.pi)) ** (1 / 3)  # norm 2 spread uniformly
    assert prof.values.max() / prof.values.min() < 1.05
    assert np.all(np.abs(prof.values - oracle) < 5 * dn.DEFAULT_BANDWIDTH)


def test_rho_empirical_gaussian_matches_analytic():
    samples = dn.sample_density(dn.GaussianDensity(np.eye(2)), 50_000, seed=4)
    prof = dn.rho_empirical(samples, GRID, bandwidth=0.1)
    oracle = ((1 / (2 * np.pi)) * math.sqrt(np.pi / 2)) ** (1 / 3)
    assert np.all(np.abs(prof.values - oracle) / oracle < 0.05)


def test_rho_empirical_scaling_covariance():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(500, 2))
    base = dn.rho_empirical(dn.SampleSet(2, pts), GRID)
    scaled = dn.rho_empirical(dn.SampleSet(2, 3.0 * pts), GRID)
    assert np.allclose(scaled.values**3, 3.0 * base.values**3, rtol=1e-12)


def test_rho_empirical_rotation_by_grid_step():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(2000, 2)) @ np.diag([2.0, 1.0])
    k = 37
    ang = 2 * np.pi * k / GRID.n
    q = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    base = dn.rho_empirical(dn.SampleSet(2, pts), GRID)
    rotated = dn.rho_empirical(dn.SampleSet(2, pts @ q.T), GRID)
    assert np.allclose(rotated.values, np.roll(base.values, k), rtol=1e-9)


def test_rho_empirical_drops_zero_norm_samples():
    pts = np.vstack([np.zeros((3, 2)), np.ones((5, 2))])
    with pytest.warns(UserWarning, match="zero-norm"):
        prof = dn.rho_empirical(dn.SampleSet(2, pts), GRID)
    assert np.all(prof.values > 0)


def dense_rho_empirical(points, grid, bandwidth=dn.DEFAULT_BANDWIDTH):
    """The estimator as one (nodes, samples) kernel, no blocks."""
    norms = np.linalg.norm(points, axis=1)
    K = np.exp((grid.nodes @ (points / norms[:, None]).T - 1.0) / bandwidth**2)
    mass = K @ (norms / (grid.weights @ K)) / len(points)
    return mass ** (1.0 / (grid.dim + 1))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rho_empirical_blocks_match_dense_kernel(d, monkeypatch):
    grid = sb.make_grid(d, 128)
    rng = np.random.default_rng(20 + d)
    pts = rng.normal(size=(7 * 40 + 1, d)) @ rng.normal(size=(d, d))
    dense = dense_rho_empirical(pts, grid)
    # 7 samples per block: 40 full blocks and a 1-row tail
    monkeypatch.setattr(ge, "CHUNK_ENTRIES", 7 * grid.n)
    assert ge.row_blocks(len(pts), grid.n)[-1] == slice(280, 287)
    blocked = dn.rho_empirical(dn.SampleSet(d, pts), grid).values
    np.testing.assert_allclose(blocked, dense, rtol=1e-15, atol=0)


def test_rho_empirical_memory_is_one_kernel_block():
    """Python-side peak stays near one CHUNK_ENTRIES float64 block, not m x n."""
    samples = dn.SampleSet(2, np.random.default_rng(5).normal(size=(20_000, 2)))
    dn.rho_empirical(samples, GRID)
    tracemalloc.start()
    try:
        dn.rho_empirical(samples, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * ge.CHUNK_ENTRIES


def test_rho_empirical_rejects_bad_bandwidth_and_empty():
    pts = np.ones((4, 2))
    with pytest.raises(ValueError):
        dn.rho_empirical(dn.SampleSet(2, pts), GRID, bandwidth=0.0)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="nonzero"):
            dn.rho_empirical(dn.SampleSet(2, np.zeros((4, 2))), GRID)


# ---------------------------------------------------------------------------
# expected_gauge
# ---------------------------------------------------------------------------


def test_expected_gauge_uniform_disk():
    # E ||x|| = 2/3 under the uniform disk, exactly by the radial-statistic identity
    spec = dn.GaugeInducedDensity(BALL, "indicator", GRID)
    assert dn.expected_gauge(BALL, spec, grid=GRID) == pytest.approx(2 / 3, rel=0, abs=1e-12)


def test_expected_gauge_sample_set_exact():
    samples = dn.SampleSet(2, np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert dn.expected_gauge(BALL, samples) == pytest.approx(1.5)


def test_expected_gauge_matches_dual_mixed_volume():
    # E ||x||_K = d * V~_{-1}(K, L_P): a seeded Monte Carlo run is the oracle
    # at 5 sigma.  d = 4 waits for a quadrature that integrates anisotropic
    # integrands to better than the oracle's standard error.
    rng = np.random.default_rng(2)
    cases = [
        (np.diag([2.0, 1.0]), np.array([[1.2, 0.3], [0.3, 0.9]])),
        (np.diag([2.0, 1.0, 0.5]), np.array([[1.1, 0.2, 0.0], [0.2, 0.8, 0.3], [0.0, 0.3, 1.4]])),
    ]
    for cov, mat in cases:
        spec = dn.GaussianDensity(cov)
        body = sb.EllipsoidBody(mat)
        g = body.gauge_many(spec.sample(200_000, rng))
        identity = dn.expected_gauge(body, spec)
        assert abs(identity - g.mean()) < 5 * g.std() / math.sqrt(g.size)
        assert dn.expected_gauge(body, spec) == identity


def test_expected_gauge_alpha_powers():
    samples = dn.SampleSet(2, np.array([[2.0, 0.0], [0.0, 0.5]]))
    assert dn.expected_gauge(BALL, samples, alpha=2.0) == pytest.approx((4 + 0.25) / 2)


# ---------------------------------------------------------------------------
# sample_density
# ---------------------------------------------------------------------------


def test_sample_gaussian_covariance():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    s = dn.sample_density(dn.GaussianDensity(cov), 100_000, seed=5)
    emp = s.points.T @ s.points / s.m
    assert np.linalg.norm(emp - cov, ord=2) < 0.03 * np.linalg.norm(cov, ord=2)


def test_sample_uniform_ball_radial_law():
    spec = dn.GaugeInducedDensity(BALL, "indicator", GRID)
    s = dn.sample_density(spec, 50_000, seed=6)
    frac = np.mean(np.linalg.norm(s.points, axis=1) <= 0.5)
    assert abs(frac - 0.25) < 0.01


def test_sample_mixture_symmetry():
    mix = dn.two_gaussian_mixture(0.2)
    s = dn.sample_density(mix, 40_000, seed=7)
    sigma = np.sqrt(np.max(np.var(s.points, axis=0)))
    assert np.all(np.abs(s.points.mean(axis=0)) < 3 * sigma / math.sqrt(s.m))


def test_sample_density_deterministic():
    spec = dn.GaussianDensity(np.eye(2))
    a = dn.sample_density(spec, 100, seed=8)
    b = dn.sample_density(spec, 100, seed=8)
    assert np.array_equal(a.points, b.points)


def test_sample_gauge_induced_profiles():
    body = sb.EllipsoidBody(np.diag([1.5, 0.75]))
    for profile in ("exp", "gauss", "indicator"):
        spec = dn.GaugeInducedDensity(body, profile, GRID)
        s = dn.sample_density(spec, 30_000, seed=11)
        g = body.gauge_many(s.points)
        if profile == "exp":
            expected = 2.0  # Gamma(2,1) mean
        elif profile == "gauss":
            expected = math.sqrt(np.pi / 2)  # chi(2) mean
        else:
            expected = 2.0 / 3.0  # uniform over the body
        assert np.mean(g) == pytest.approx(expected, abs=4 * np.std(g) / math.sqrt(s.m))


def test_gauge_induced_mass_validation():
    body = sb.EllipsoidBody(np.diag([2.0, 0.5]))
    spec = dn.GaugeInducedDensity(body, "exp", GRID)
    assert spec.normalization == pytest.approx(sb.volume(body, GRID) * 2.0, rel=1e-9)
    spec.normalization *= 1.2
    with pytest.raises(sb.NumericalFailure, match="mass"):
        spec._validate_mass(20_000)


# ---------------------------------------------------------------------------
# Annular regions with constant radial statistic
# ---------------------------------------------------------------------------


def test_annular_region_profile_is_constant():
    reg = dn.AnnularRegion.from_function(
        lambda t: 0.3 + 0.2 * np.cos(4 * t), GRID
    )
    prof = dn.rho_analytic(reg, GRID)
    assert prof.values.max() - prof.values.min() < 1e-12
    expected = ((2 + 1) * reg.volume) ** (-1 / 3)
    assert prof.values[0] == pytest.approx(expected, rel=1e-12)


def test_annular_region_pdf_and_samples():
    reg = dn.AnnularRegion.from_function(lambda t: 0.4 + 0.1 * np.sin(3 * t), GRID)
    s = dn.sample_density(reg, 20_000, seed=12)
    norms = np.linalg.norm(s.points, axis=1)
    inner = reg.inner.gauge_many(s.points)
    outer = reg.outer.gauge_many(s.points)
    assert np.all(inner >= 1.0 - 1e-6)
    assert np.all(outer <= 1.0 + 1e-6)
    assert np.all(norms > 0.3)
    assert reg.pdf(s.points[:100]).min() > 0


def test_annular_region_empirical_profile_constant():
    reg = dn.AnnularRegion.from_function(lambda t: 0.3 + 0.2 * np.cos(4 * t), GRID)
    s = dn.sample_density(reg, 60_000, seed=13)
    prof = dn.rho_empirical(s, GRID)
    spread = (prof.values.max() - prof.values.min()) / prof.values.mean()
    assert spread < 0.05


# ---------------------------------------------------------------------------
# Ingestion and serialization
# ---------------------------------------------------------------------------


def test_sample_set_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    s = dn.SampleSet(2, rng.normal(size=(50, 2)))
    path = tmp_path / "s.csv"
    s.to_csv(path)
    back = dn.SampleSet.from_csv(path)
    assert back.dim == 2
    assert np.array_equal(back.points, s.points)


def test_sample_set_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        dn.SampleSet.from_csv(path)
    path.write_text("1.0,2.0\n1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        dn.SampleSet.from_csv(path)


def line_parser(path):
    """The line-by-line reader that read_csv replaced, kept as its oracle."""
    dim, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                stripped = line.lstrip("#").strip()
                if stripped.startswith("dim="):
                    dim = int(stripped[4:])
                continue
            rows.append([float(v) for v in line.split(",")])
    return np.asarray(rows, dtype=float), dim


def test_write_csv_bytes_equal_savetxt(tmp_path):
    rng = np.random.default_rng(16)
    pts = rng.choice([-1.0, 1.0], (100_000, 2)) * 10.0 ** rng.uniform(-8, 8, (100_000, 2))
    pts[:3] = [[0.0, -0.0], [1e-300, -1e300], [0.1, 1.0 / 3.0]]
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    dn.SampleSet(2, pts).to_csv(ours)
    np.savetxt(ref, pts, fmt="%.17g", delimiter=",", header="dim=2")
    assert ours.read_bytes() == ref.read_bytes()
    for grid in (GRID, sb.make_grid(3, 300), sb.make_grid(4, 256)):
        prof = dn.RadialProfile(grid, rng.uniform(0.5, 2.0, grid.n))
        prof.to_csv(ours)
        lead = grid.angles() if grid.dim == 2 else np.arange(grid.n)
        np.savetxt(ref, np.column_stack([lead, grid.nodes, prof.values]), fmt="%.17g", delimiter=",")
        assert ours.read_bytes() == ref.read_bytes()
    # an empty header writes no header line, and a multi-line one is commented throughout
    dn.write_csv(ours, pts[:5, 0])
    np.savetxt(ref, pts[:5, 0], fmt="%.17g", delimiter=",", header="")
    assert ours.read_bytes() == ref.read_bytes()
    dn.write_csv(ours, pts[:5], header="a\nb")
    np.savetxt(ref, pts[:5], fmt="%.17g", delimiter=",", header="a\nb")
    assert ours.read_bytes() == ref.read_bytes()


def test_write_csv_in_row_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(ge, "CHUNK_ENTRIES", 64)
    pts = np.random.default_rng(17).normal(size=(1001, 3))
    dn.write_csv(tmp_path / "ours.csv", pts, header="dim=3")
    np.savetxt(tmp_path / "ref.csv", pts, fmt="%.17g", delimiter=",", header="dim=3")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("text", [
    "# dim=2\n1.5,-2\n\n3,4\n",
    "1,2\n   \n\t\n# a comment\n-0.0,1e-300\n# dim=2\n5e300,-1e-320\n",
    "# dim=3\r\n1,2,3\r\n\r\n0.1,0.2,0.30000000000000004\r\n",
    "## dim= 2 \n 1.0 , 2.0 \n",
    "0.5\n-0.25\n",
])
def test_read_csv_bit_equal_to_line_parser(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    rows, dim = dn.read_csv(path)
    ref_rows, ref_dim = line_parser(path)
    assert dim == ref_dim
    assert rows.shape == ref_rows.shape
    assert np.array_equal(rows.view(np.int64), ref_rows.view(np.int64))


def test_read_csv_bit_equal_on_random_floats(tmp_path):
    rng = np.random.default_rng(18)
    pts = rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-300, 300, (2000, 3))
    path = tmp_path / "in.csv"
    dn.SampleSet(3, pts).to_csv(path)
    back = dn.SampleSet.from_csv(path)
    assert back.dim == 3
    assert np.array_equal(back.points.view(np.int64), pts.view(np.int64))


def test_csv_readers_reject_empty_files_and_bad_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# dim=2\n\n")
    with pytest.raises(ValueError, match="no sample rows"):
        dn.SampleSet.from_csv(path)
    path.write_text("1.0,2.0\n# dim=two\n")
    with pytest.raises(ValueError, match="line 2: malformed dim header"):
        dn.SampleSet.from_csv(path)
    path.write_text("# dim=3\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 2: expected 3 fields, got 2"):
        dn.SampleSet.from_csv(path)
    path.write_text("0,1,0,1\n1,0,1,x\n")
    with pytest.raises(ValueError, match="line 2: non-numeric field"):
        dn.SampleSet.from_csv(path)


def test_two_gaussian_mixture_validation():
    with pytest.raises(ValueError):
        dn.two_gaussian_mixture(0.0)
    with pytest.raises(ValueError):
        dn.two_gaussian_mixture(1.5)
