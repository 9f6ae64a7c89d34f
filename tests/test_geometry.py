"""Geometry: grids, gauges, volumes, dual mixed volumes, set operations."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm, qmc

import starbody as sb
from starbody.geometry import _first_primes, low_discrepancy_sphere_grid, radial_on_grid, support_function

GRID2 = sb.make_grid(2, 1024)
GRID3 = sb.make_grid(3, 2048)
BALL2 = sb.EllipsoidBody(np.eye(2))


def random_radial_body(rng, n_modes=4, grid=GRID2):
    """Random smooth positive radial function on the circle grid."""
    theta = grid.angles()
    rho = np.full(grid.n, 1.0)
    for k in range(1, n_modes + 1):
        rho += rng.uniform(-0.5, 0.5) / k * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
    rho = np.maximum(rho, 0.2)
    return sb.RadialGridBody(grid, rho)


def trapezoid_dual_mixed_volume(K, L, i, n=8192):
    """Independent quadrature oracle on a fresh dense circle grid."""
    theta = 2 * np.pi * np.arange(n) / n
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    rk = K.radial_many(dirs)
    rl = L.radial_many(dirs)
    return np.mean(rk**i * rl ** (2 - i)) * 2 * np.pi / 2


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def test_circle_grid_nodes_and_weights():
    assert GRID2.dim == 2
    assert np.allclose(np.linalg.norm(GRID2.nodes, axis=1), 1.0, atol=1e-12)
    assert np.all(GRID2.weights > 0)
    assert math.isclose(GRID2.weights.sum(), 2 * np.pi, rel_tol=1e-12)
    ang = GRID2.angles()
    assert np.all(np.diff(ang) > 0)
    assert np.allclose(np.diff(ang), 2 * np.pi / GRID2.n, atol=1e-12)


def test_sphere_grid_nodes_and_weights():
    assert np.allclose(np.linalg.norm(GRID3.nodes, axis=1), 1.0, atol=1e-12)
    assert math.isclose(GRID3.weights.sum(), 4 * np.pi, rel_tol=1e-12)
    assert np.all(GRID3.weights > 0)
    # 31 rings of 66 azimuths between the two poles, ring-major, t ascending
    assert GRID3.n == 2048 and GRID3.descriptor == {"kind": "lobatto3d", "rings": 31, "azimuths": 66}
    assert GRID3.nodes[0].tolist() == [0.0, 0.0, -1.0] and GRID3.nodes[-1].tolist() == [0.0, 0.0, 1.0]
    rings = GRID3.nodes[1:-1, 2].reshape(31, 66)
    assert np.all(rings == rings[:, :1]) and np.all(np.diff(rings[:, 0]) > 0)
    # the Lobatto levels integrate every power t^k, k <= 2 * 31 + 1, exactly
    t = GRID3.nodes[:, 2]
    for k in range(64):
        exact = 4.0 * np.pi / (k + 1) if k % 2 == 0 else 0.0
        assert np.dot(GRID3.weights, t**k) == pytest.approx(exact, rel=1e-12, abs=1e-13)


def ellipsoid_volume_errors(grid, r, rotations=10):
    """Relative quadrature volume errors of randomly rotated ellipsoids with
    semi-axes geomspace(1, r, 3)."""
    axes = np.geomspace(1.0, r, 3)
    errors = []
    for seed in range(rotations):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
        exact = 4.0 / 3.0 * np.pi * np.prod(axes)
        errors.append(abs(sb.volume(sb.EllipsoidBody((q * axes) @ q.T), grid) / exact - 1.0))
    return np.array(errors)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_product_grid_ellipsoid_volume(r):
    # equal-weight spiral nodes were off by 4.6e-6 at r = 1.5
    errors = ellipsoid_volume_errors(GRID3, r)
    assert np.median(errors) <= 1e-10
    assert errors.max() <= 1e-9


def test_make_grid_3_is_idempotent():
    for n in [4, 10, 64, 100, 256, 300, 1000, 1024, 2048, 2050, 4097, *range(500, 560)]:
        grid = sb.make_grid(3, n)
        assert abs(grid.n - n) <= max(8, 0.05 * n)
        again = sb.make_grid(3, grid.n)
        assert again.descriptor == grid.descriptor
        assert again.nodes.tobytes() == grid.nodes.tobytes()
        rings, az = grid.descriptor["rings"], grid.descriptor["azimuths"]
        assert 18 * rings <= 10 * az <= 200 * rings / 9
    with pytest.raises(ValueError):
        sb.make_grid(3, 3)


def test_higher_dim_grid():
    g = sb.make_grid(4, 512)
    assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)
    assert math.isclose(g.weights.sum(), 2 * np.pi**2, rel_tol=1e-12)


@pytest.mark.parametrize("dim", range(4, 11))
def test_halton_grid_equals_scipy_qmc_bit_for_bit(dim):
    for n in (1, 2, 7, 64, 1000, 4096):
        sampler = qmc.Halton(d=dim, scramble=False)
        sampler.fast_forward(1)
        g = norm.ppf(np.clip(sampler.random(n), 1e-12, 1.0 - 1e-12))
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0] = 1.0
        expected = g / norms[:, None]
        assert low_discrepancy_sphere_grid(dim, n).nodes.tobytes() == expected.tobytes()


def test_first_primes():
    naive = [q for q in range(2, 20_000) if all(q % f for f in range(2, math.isqrt(q) + 1))]
    for k in (1, 2, 5, 6, 7, 10, 11, 100, len(naive)):
        assert _first_primes(k).tolist() == naive[:k]


def test_grid_validation():
    with pytest.raises(ValueError):
        sb.SphericalGrid(2, np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        sb.SphericalGrid(2, np.array([[1.0, 0.0]]), np.array([-1.0]))


def test_planar_cells_need_equally_spaced_angles():
    # 48 of 64 nodes in the first quadrant, each weighted by the arc it owns;
    # the angle cells would put 26.85% of the unit disk's Gibbs draws there
    theta = np.concatenate(
        [np.linspace(0, math.pi / 2, 48, endpoint=False), np.linspace(math.pi / 2, 2 * math.pi, 16, endpoint=False)]
    )
    weights = np.concatenate([np.full(48, math.pi / 96), np.full(16, 3 * math.pi / 32)])
    grid = sb.SphericalGrid(2, np.column_stack([np.cos(theta), np.sin(theta)]), weights, {"kind": "explicit"})
    with pytest.raises(ValueError, match="equally spaced"):
        sb.sample_gibbs(sb.EllipsoidBody(np.eye(2)), 200_000, seed=1, grid=grid)
    with pytest.raises(ValueError, match="equally spaced"):
        sb.RadialGridBody(grid, np.ones(grid.n))
    # quadrature reads no cells
    assert sb.volume(sb.EllipsoidBody(np.eye(2)), grid) == pytest.approx(math.pi, rel=1e-12)
    assert np.all(sb.rho_analytic(sb.GaussianDensity(np.eye(2)), grid).values > 0)


# ---------------------------------------------------------------------------
# Gauge and radial evaluation
# ---------------------------------------------------------------------------


def test_gauge_examples():
    assert sb.EllipsoidBody(np.diag([2.0, 1.0])).gauge([2.0, 0.0]) == pytest.approx(1.0)
    l1 = sb.DictionaryPolytopeBody(np.eye(2))
    assert l1.gauge([0.5, 0.5]) == pytest.approx(1.0, abs=1e-9)
    union = sb.star_union([BALL2, sb.dilate(BALL2, 2.0)])
    assert union.gauge([3.0, 0.0]) == pytest.approx(1.5)


def test_gauge_at_origin_and_validation():
    assert BALL2.gauge([0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        BALL2.gauge([np.inf, 0.0])
    with pytest.raises(ValueError):
        BALL2.gauge([1.0, 0.0, 0.0])


def test_radial_examples():
    assert sb.EllipsoidBody(np.diag([2.0, 1.0])).radial([1.0, 0.0]) == pytest.approx(2.0)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert sb.DictionaryPolytopeBody(np.eye(2)).radial(u) == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert sb.dilate(BALL2, 3.0).radial([0.0, 1.0]) == pytest.approx(3.0)


def test_radial_requires_unit_vector():
    with pytest.raises(ValueError):
        BALL2.radial([2.0, 0.0])


def test_radial_grid_interpolation_2d():
    rng = np.random.default_rng(7)
    body = random_radial_body(rng)
    # exact at nodes, linear (hence between neighbors) in between
    assert np.allclose(body.radial_many(GRID2.nodes), body.radii)
    mid = (GRID2.nodes[0] + GRID2.nodes[1]) / np.linalg.norm(GRID2.nodes[0] + GRID2.nodes[1])
    val = body.radial(mid)
    assert min(body.radii[0], body.radii[1]) <= val <= max(body.radii[0], body.radii[1])


def test_radial_grid_interpolation_3d():
    rho = 1.0 + 0.2 * GRID3.nodes[:, 2] ** 2
    body = sb.RadialGridBody(GRID3, rho)
    assert np.allclose(body.radial_many(GRID3.nodes), rho)
    u = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    assert abs(body.radial(u) - (1.0 + 0.2 / 3)) < 0.05


@pytest.mark.parametrize("n", [64, 256, 2048])
def test_product_grid_body_returns_node_values_exactly(n):
    grid = sb.make_grid(3, n)
    body = sb.RadialGridBody(grid, np.random.default_rng(n).uniform(0.5, 1.5, grid.n))
    assert body.radial_many(grid.nodes).tobytes() == body.radii.tobytes()
    # inside a cell the value stays within the range of its corners: the
    # first two azimuths of the first two rings
    az = grid.descriptor["azimuths"]
    corners = [1, 2, 1 + az, 2 + az]
    mid = grid.nodes[corners].sum(axis=0)
    rho = body.radii[corners]
    assert rho.min() - 1e-12 <= body.radial(mid / np.linalg.norm(mid)) <= rho.max() + 1e-12
    assert np.all(body.gauge_many(np.zeros((2, 3))) == 0.0)
    assert body.gauge_many(np.empty((0, 3))).shape == (0,)


def fibonacci_nodes(n):
    """Generalized-spiral nodes on S^2, the equal-weight d = 3 grid the product
    grid replaced."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def idw_radial(nodes, rho, dirs, k=8):
    """Inverse-square-distance average over the k nearest nodes."""
    from scipy.spatial import cKDTree

    dist, idx = cKDTree(nodes).query(dirs, k=k)
    w = 1.0 / dist**2
    return np.sum(w * rho[idx], axis=1) / np.sum(w, axis=1)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 5.0])
def test_product_grid_gauge_beats_spiral_idw(r):
    spiral = fibonacci_nodes(GRID3.n)
    rng = np.random.default_rng(int(10 * r))
    dirs = rng.standard_normal((20_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ell = sb.EllipsoidBody((q * np.geomspace(1.0, r, 3)) @ q.T)
        exact = ell.radial_many(dirs)
        product = sb.RadialGridBody(GRID3, ell.radial_many(GRID3.nodes)).radial_many(dirs)
        err = np.abs(product / exact - 1.0)
        err_idw = np.abs(idw_radial(spiral, ell.radial_many(spiral), dirs) / exact - 1.0)
        assert err.max() <= err_idw.max()
        assert err.mean() <= err_idw.mean()


@pytest.mark.parametrize("d", [3, 4])
def test_radial_grid_idw_same_bytes_in_row_blocks(d, monkeypatch):
    grid = sb.make_grid(d, 256)
    if d == 3:
        # product grids interpolate by cells; IDW serves explicit node sets
        grid = sb.SphericalGrid(3, grid.nodes, grid.weights, {"kind": "explicit"})
    rng = np.random.default_rng(d)
    body = sb.RadialGridBody(grid, rng.uniform(0.5, 1.5, grid.n))
    # random points plus scaled grid nodes, so some blocks hit the exact-node branch
    X = np.vstack([rng.normal(size=(3000, d)), 2.0 * grid.nodes[::5]])
    X = X[rng.permutation(len(X))]
    whole = body.gauge_many(X)
    k = grid.cells.width  # the nearest-node scheme's k
    monkeypatch.setattr(sb.geometry, "CHUNK_ENTRIES", 7 * k)
    assert len(sb.geometry.row_blocks(len(X), k)) > 400
    assert body.gauge_many(X).tobytes() == whole.tobytes()
    assert body.radial_many(grid.nodes[:1]).tobytes() == body.radii[:1].tobytes()
    assert body.radial_many(np.empty((0, d))).shape == (0,)


def test_row_blocks(monkeypatch):
    rb = sb.geometry.row_blocks
    assert rb(10, sb.geometry.CHUNK_ENTRIES) == [slice(i, i + 1) for i in range(10)]
    assert rb(0, 5) == [slice(0, sb.geometry.CHUNK_ENTRIES // 5)]  # one empty block
    monkeypatch.setattr(sb.geometry, "CHUNK_ENTRIES", 100)  # read at call time
    assert rb(25, 8) == [slice(0, 12), slice(12, 24), slice(24, 36)]
    assert rb(3, 1000) == [slice(0, 1), slice(1, 2), slice(2, 3)]  # at least one row


# ---------------------------------------------------------------------------
# Volume
# ---------------------------------------------------------------------------


def test_volume_disk():
    assert sb.volume(BALL2, GRID2) == pytest.approx(np.pi, abs=1e-6)


def test_volume_l1_ball():
    body = sb.DictionaryPolytopeBody(np.eye(2))
    grid = sb.make_grid(2, 2048)
    assert sb.volume(body, grid) == pytest.approx(2.0, abs=1e-3)


def test_volume_ellipsoid():
    body = sb.EllipsoidBody(np.diag([2.0, 1.0]))
    assert sb.volume(body, GRID2) == pytest.approx(2 * np.pi, abs=1e-3)


def test_volume_dimension_mismatch():
    with pytest.raises(ValueError):
        sb.volume(BALL2, GRID3)


# ---------------------------------------------------------------------------
# Dual mixed volume
# ---------------------------------------------------------------------------


def test_dmv_ball_is_volume():
    assert sb.dual_mixed_volume(BALL2, BALL2, -1.0, GRID2) == pytest.approx(np.pi, rel=1e-9)


def test_dmv_dilate_closed_form():
    # V~_{-1}(K, lam*K) = lam^(d+1) * vol(K)
    lam = 2.0
    expected = lam**3 * np.pi
    got = sb.dual_mixed_volume(BALL2, sb.dilate(BALL2, lam), -1.0, GRID2)
    assert got == pytest.approx(expected, rel=1e-9)


def test_dmv_equals_volume_for_any_exponent():
    rng = np.random.default_rng(3)
    body = random_radial_body(rng)
    v = sb.volume(body, GRID2)
    for i in (-2.0, -1.0, 0.5, 2.0):
        assert sb.dual_mixed_volume(body, body, i, GRID2) == pytest.approx(v, rel=1e-12)


def test_lutwak_inequality_random_bodies():
    rng = np.random.default_rng(11)
    for _ in range(25):
        K = random_radial_body(rng)
        L = random_radial_body(rng)
        dmv = trapezoid_dual_mixed_volume(K, L, -1.0)
        vk = trapezoid_dual_mixed_volume(K, K, 2.0)
        vl = trapezoid_dual_mixed_volume(L, L, 2.0)
        assert dmv**2 >= vl**3 / vk - 1e-6
        lib = sb.dual_mixed_volume(K, L, -1.0, GRID2)
        assert lib == pytest.approx(dmv, rel=1e-3)


def test_lutwak_equality_for_dilates():
    rng = np.random.default_rng(13)
    K = random_radial_body(rng)
    L = sb.dilate(K, 1.7)
    lhs = sb.dual_mixed_volume(K, L, -1.0, GRID2) ** 2
    rhs = sb.volume(L, GRID2) ** 3 / sb.volume(K, GRID2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


# ---------------------------------------------------------------------------
# Dilation, normalization, radial metric
# ---------------------------------------------------------------------------


def test_dilate_volume():
    assert sb.volume(sb.dilate(BALL2, 2.0), GRID2) == pytest.approx(4 * np.pi, rel=1e-9)


def test_dilate_identity_and_composition():
    rng = np.random.default_rng(5)
    body = random_radial_body(rng)
    same = sb.dilate(body, 1.0)
    pts = rng.normal(size=(20, 2))
    assert np.allclose(same.gauge_many(pts), body.gauge_many(pts), rtol=1e-12)
    ab = sb.dilate(sb.dilate(body, 1.3), 0.6)
    direct = sb.dilate(body, 1.3 * 0.6)
    assert np.allclose(radial_on_grid(ab, GRID2), radial_on_grid(direct, GRID2), rtol=1e-12)


def test_dilate_rejects_nonpositive():
    with pytest.raises(ValueError):
        sb.dilate(BALL2, 0.0)
    with pytest.raises(ValueError):
        sb.dilate(BALL2, -2.0)


def test_volume_normalize():
    normed = sb.volume_normalize(BALL2, GRID2)
    assert isinstance(normed, sb.DilateBody)
    assert normed.factor == pytest.approx(np.pi**-0.5, rel=1e-9)
    assert sb.volume(normed, GRID2) == pytest.approx(1.0, rel=1e-9)

    l1 = sb.DictionaryPolytopeBody(np.eye(2))
    grid = sb.make_grid(2, 2048)
    assert sb.volume_normalize(l1, grid).factor == pytest.approx(2**-0.5, abs=1e-3)

    again = sb.volume_normalize(normed, GRID2)
    assert again.factor == pytest.approx(normed.factor, rel=1e-6)


def test_radial_distance():
    assert sb.radial_distance(BALL2, BALL2, GRID2) == 0.0
    assert sb.radial_distance(BALL2, sb.dilate(BALL2, 2.0), GRID2) == pytest.approx(1.0)
    rng = np.random.default_rng(17)
    body = random_radial_body(rng)
    eps = 0.05
    got = sb.radial_distance(body, sb.dilate(body, 1 + eps), GRID2)
    assert got == pytest.approx(eps * body.radii.max(), rel=1e-9)


# ---------------------------------------------------------------------------
# Union
# ---------------------------------------------------------------------------


def test_union_single_part():
    rng = np.random.default_rng(23)
    body = random_radial_body(rng)
    union = sb.star_union([body])
    pts = rng.normal(size=(30, 2))
    assert np.allclose(union.gauge_many(pts), body.gauge_many(pts))


def test_union_absorption():
    union = sb.star_union([BALL2, sb.dilate(BALL2, 2.0)])
    assert np.allclose(radial_on_grid(union, GRID2), 2.0)


def test_union_eccentric_ellipsoids():
    e1 = sb.EllipsoidBody(np.diag([1.0, 0.05]))
    e2 = sb.EllipsoidBody(np.diag([0.05, 1.0]))
    union = sb.star_union([e1, e2])
    assert union.radial([1.0, 0.0]) == pytest.approx(1.0)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert union.radial(u) == pytest.approx(max(e1.radial(u), e2.radial(u)), rel=1e-12)


def test_union_gauge_is_min_of_parts():
    rng = np.random.default_rng(29)
    parts = [random_radial_body(rng) for _ in range(3)]
    union = sb.star_union(parts)
    got = radial_on_grid(union, GRID2)
    expected = np.maximum.reduce([radial_on_grid(p, GRID2) for p in parts])
    assert np.array_equal(got, expected)


def test_union_rejects_empty_and_mixed_dims():
    with pytest.raises(ValueError):
        sb.star_union([])
    with pytest.raises(ValueError):
        sb.star_union([BALL2, sb.EllipsoidBody(np.eye(3))])


# ---------------------------------------------------------------------------
# Outer radius bound
# ---------------------------------------------------------------------------


def test_outer_radius_bound_values():
    assert sb.outer_radius_bound(1.0, 2) == pytest.approx(1.5)
    assert sb.outer_radius_bound(0.5, 2) == pytest.approx(3.0)
    assert sb.outer_radius_bound(1.0, 3) == pytest.approx(4 / np.pi)
    with pytest.raises(ValueError):
        sb.outer_radius_bound(0.0, 2)


def test_outer_radius_bound_holds_for_unit_volume_bodies():
    rng = np.random.default_rng(31)
    r = 0.5
    for _ in range(10):
        mats = []
        for _ in range(2):
            q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
            diag = np.diag(rng.uniform(r, 1.5, size=2))
            mats.append(q @ diag @ q.T)
        body = sb.star_union([sb.EllipsoidBody(0.5 * (m + m.T) + r * np.eye(2)) for m in mats])
        normed = sb.volume_normalize(body, GRID2)
        scale = normed.factor
        r_eff = r * scale  # the kernel ball rescales with the body
        assert radial_on_grid(normed, GRID2).max() <= sb.outer_radius_bound(r_eff, 2) + 1e-9


# ---------------------------------------------------------------------------
# Harmonic Blaschke combination
# ---------------------------------------------------------------------------


def test_harmonic_blaschke_of_equal_balls_is_dilate():
    out = sb.harmonic_blaschke(BALL2, BALL2, GRID2)
    assert np.allclose(out.radii, out.radii[0])
    # rho^3 / vol = 2/pi at every node for the combination of two unit disks
    lhs = out.radii[0] ** 3 / sb.volume(out, GRID2)
    assert lhs == pytest.approx(2 / np.pi, rel=1e-9)


def test_harmonic_blaschke_defining_identity():
    rng = np.random.default_rng(37)
    K = random_radial_body(rng)
    L = random_radial_body(rng)
    M = sb.harmonic_blaschke(K, L, GRID2)
    lhs = M.radii**3 / sb.volume(M, GRID2)
    rhs = radial_on_grid(K, GRID2) ** 3 / sb.volume(K, GRID2) + radial_on_grid(
        L, GRID2
    ) ** 3 / sb.volume(L, GRID2)
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_harmonic_blaschke_commutes():
    rng = np.random.default_rng(41)
    K = random_radial_body(rng)
    L = random_radial_body(rng)
    a = sb.harmonic_blaschke(K, L, GRID2)
    b = sb.harmonic_blaschke(L, K, GRID2)
    assert np.max(np.abs(a.radii - b.radii)) < 1e-9


# ---------------------------------------------------------------------------
# Lipschitz bound for well-conditioned bodies
# ---------------------------------------------------------------------------


def _well_conditioned_body(rng, r):
    """Random convex-or-union body whose kernel contains r*B^2."""
    mats = []
    for _ in range(rng.integers(1, 3)):
        q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        diag = np.diag(rng.uniform(r, 2.0, size=2))
        mats.append(q @ diag @ q.T)
    parts = [sb.EllipsoidBody(0.5 * (m + m.T) + r * 0.01 * np.eye(2)) for m in mats]
    return sb.star_union(parts) if len(parts) > 1 else parts[0]


def test_gauge_lipschitz_bound():
    rng = np.random.default_rng(43)
    r = 0.5
    for _ in range(100):
        K = _well_conditioned_body(rng, r)
        L = _well_conditioned_body(rng, r)
        x = rng.normal(size=2)
        x /= np.linalg.norm(x)
        y = rng.normal(size=2)
        y /= np.linalg.norm(y)
        lhs = abs(K.gauge(x) - L.gauge(y))
        bound = sb.radial_distance(K, L, GRID2) / r**2 + np.linalg.norm(x - y) / r
        assert lhs <= bound + 1e-6


# ---------------------------------------------------------------------------
# Hypothesis property tests
# ---------------------------------------------------------------------------


@st.composite
def bodies(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["ellipsoid", "radial", "dictionary", "union", "dilate"]))
    if kind == "ellipsoid":
        q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        return sb.EllipsoidBody(q @ np.diag(rng.uniform(0.3, 2.0, 2)) @ q.T)
    if kind == "radial":
        return random_radial_body(rng)
    if kind == "dictionary":
        a = rng.normal(size=(2, 3))
        a /= np.linalg.norm(a, axis=0)
        while np.linalg.svd(a, compute_uv=False)[-1] < 0.3:
            a = rng.normal(size=(2, 3))
            a /= np.linalg.norm(a, axis=0)
        return sb.DictionaryPolytopeBody(a)
    if kind == "union":
        return sb.star_union([random_radial_body(rng), random_radial_body(rng)])
    return sb.dilate(random_radial_body(rng), rng.uniform(0.5, 2.0))


@settings(max_examples=30, deadline=None)
@given(bodies(), st.floats(0.1, 10.0), st.integers(0, 2**31 - 1))
def test_gauge_homogeneity(body, t, seed):
    x = np.random.default_rng(seed).normal(size=2)
    gx = body.gauge(x)
    gtx = body.gauge(t * x)
    assert gtx == pytest.approx(t * gx, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(bodies(), st.floats(0.0, 2 * np.pi))
def test_radial_gauge_reciprocity(body, theta):
    u = np.array([np.cos(theta), np.sin(theta)])
    assert body.radial(u) * body.gauge(u) == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Support function diagnostic
# ---------------------------------------------------------------------------


def test_support_function_diagnostic():
    h = support_function(BALL2, np.eye(2), GRID2)
    assert np.allclose(h, 1.0, atol=1e-4)
    ell = sb.EllipsoidBody(np.diag([2.0, 1.0]))
    h = support_function(ell, np.array([[1.0, 0.0]]), GRID2)
    assert h[0] == pytest.approx(2.0, abs=1e-4)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_radial_grid_json_roundtrip_exact():
    rng = np.random.default_rng(47)
    body = random_radial_body(rng)
    back = sb.body_from_json(sb.body_to_json(body))
    assert isinstance(back, sb.RadialGridBody)
    assert np.array_equal(back.radii, body.radii)
    assert back.grid.descriptor == body.grid.descriptor


def test_all_types_json_roundtrip():
    rng = np.random.default_rng(53)
    a = rng.normal(size=(2, 4))
    a /= np.linalg.norm(a, axis=0)
    bodies_ = [
        sb.EllipsoidBody(np.array([[2.0, 0.3], [0.3, 1.0]])),
        sb.DictionaryPolytopeBody(a),
        sb.star_union([BALL2, sb.EllipsoidBody(np.diag([0.5, 1.5]))]),
        sb.dilate(random_radial_body(rng), 1.4),
    ]
    pts = rng.normal(size=(15, 2))
    for body in bodies_:
        back = sb.body_from_json(sb.body_to_json(body))
        assert np.allclose(back.gauge_many(pts), body.gauge_many(pts), rtol=1e-12)


def test_explicit_grid_descriptor_roundtrip():
    body = sb.RadialGridBody(GRID3, 1.0 + 0.1 * GRID3.nodes[:, 0] ** 2)
    data = json.loads(sb.body_to_json(body))
    assert data["grid"] == {"kind": "lobatto3d", "rings": 31, "azimuths": 66}
    back = sb.body_from_dict(data)
    assert np.array_equal(back.radii, body.radii)
    assert back.grid.nodes.tobytes() == GRID3.nodes.tobytes()
    assert back.grid.weights.tobytes() == GRID3.weights.tobytes()


def test_spiral_grid_descriptor_is_refused():
    data = json.loads(sb.body_to_json(sb.RadialGridBody(GRID3, np.ones(GRID3.n))))
    data["grid"] = {"kind": "fibonacci3d", "n": 2048}
    with pytest.raises(ValueError, match="'fibonacci3d'.*'lobatto3d'"):
        sb.body_from_dict(data)


def test_invalid_constructions():
    with pytest.raises(ValueError):
        sb.EllipsoidBody(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        sb.EllipsoidBody(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        sb.DictionaryPolytopeBody(np.array([[1.0, 1.0], [0.0, 0.0]]))  # rank 1
    with pytest.raises(ValueError):
        sb.RadialGridBody(GRID2, np.zeros(GRID2.n))
