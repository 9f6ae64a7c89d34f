"""Density specifications, sample ingestion, and radial statistics.

The central object is the radial statistic of a distribution P on R^d,

    rho_P(u) = (integral_0^inf r^(d+alpha-1) p(r u) dr)^(1/(d+alpha)),

evaluated on a spherical grid (alpha = 1 by default).  Interpreted as a
radial function it defines the star body L_P whose unit-volume dilate
minimizes the expected gauge over all unit-volume star bodies.  This module
computes rho_P analytically for supported density specs, estimates it from
samples with a spherical kernel, and evaluates expected gauges
(population and empirical risks).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from starbody.geometry import (
    NumericalFailure,
    RadialGridBody,
    SphericalGrid,
    StarBody,
    body_from_dict,
    body_to_dict,
    make_grid,
    radial_on_grid,
    sphere_surface_area,
    uniform_circle_grid,
    volume,
)

ALPHA_MIN = 1.0
ALPHA_MAX = 8.0
DEFAULT_BANDWIDTH = 0.15
FLOAT_FMT = "%.17g"
# importance samples of the mass check in GaugeInducedDensity
MASS_CHECK_N = 50_000


class NonintegrableError(NumericalFailure):
    """The radial statistic's defining integral does not converge."""


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (ALPHA_MIN <= alpha <= ALPHA_MAX):
        raise ValueError(f"alpha must lie in [{ALPHA_MIN:g}, {ALPHA_MAX:g}]")
    return alpha


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Sample sets and radial profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSet:
    """m points in R^d with optional ingestion metadata."""

    dim: int
    points: np.ndarray
    source: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(self.points, dtype=float)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError("points must be an (m, dim) array")
        if pts.shape[0] < 1:
            raise ValueError("a sample set needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points must be finite")

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            np.savetxt(fh, self.points, fmt=FLOAT_FMT, delimiter=",", header=f"dim={self.dim}")

    @classmethod
    def from_csv(cls, path) -> "SampleSet":
        dim = None
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    stripped = line.lstrip("#").strip()
                    if stripped.startswith("dim="):
                        try:
                            dim = int(stripped[4:])
                        except ValueError:
                            raise ValueError(f"line {lineno}: malformed dim header")
                    continue
                fields = line.split(",")
                try:
                    row = [float(v) for v in fields]
                except ValueError:
                    raise ValueError(f"line {lineno}: non-numeric field in {line!r}")
                if dim is None:
                    dim = len(row)
                elif len(row) != dim:
                    raise ValueError(
                        f"line {lineno}: expected {dim} fields, got {len(row)}"
                    )
                rows.append(row)
        if not rows:
            raise ValueError("no sample rows found")
        return cls(dim, np.asarray(rows, dtype=float), {"path": str(path)})


@dataclass(frozen=True)
class RadialProfile:
    """Radial-statistic values on a spherical grid."""

    grid: SphericalGrid
    values: np.ndarray
    alpha: float = 1.0

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n,):
            raise ValueError("values must align with grid nodes")
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValueError("radial-statistic values must be positive and finite")
        _validate_alpha(self.alpha)

    def body(self) -> RadialGridBody:
        """The star body whose radial function is this profile."""
        return RadialGridBody(self.grid, self.values)

    def to_csv(self, path) -> None:
        """Rows of (angle or node index, node components, value)."""
        lead = self.grid.angles() if self.grid.dim == 2 else np.arange(self.grid.n)
        rows = np.column_stack([lead, self.grid.nodes, self.values])
        with open(path, "w") as fh:
            np.savetxt(fh, rows, fmt=FLOAT_FMT, delimiter=",")

    @classmethod
    def from_csv(cls, path, grid: SphericalGrid | None = None, alpha: float = 1.0):
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append([float(v) for v in line.split(",")])
                except ValueError:
                    raise ValueError(f"line {lineno}: non-numeric field")
        if not rows:
            raise ValueError("no profile rows found")
        arr = np.asarray(rows, dtype=float)
        dim = arr.shape[1] - 2
        if dim < 2:
            raise ValueError("profile rows need an index, d node components, a value")
        nodes = arr[:, 1 : 1 + dim]
        values = arr[:, -1]
        if grid is None:
            if dim == 2:
                grid = uniform_circle_grid(arr.shape[0])
            else:
                weights = np.full(arr.shape[0], sphere_surface_area(dim) / arr.shape[0])
                grid = SphericalGrid(dim, nodes, weights, {"kind": "explicit"})
        if not np.allclose(grid.nodes, nodes, atol=1e-9):
            raise ValueError("profile nodes do not match the provided grid")
        return cls(grid, values, alpha)


# ---------------------------------------------------------------------------
# Density specifications
# ---------------------------------------------------------------------------


class DensitySpec:
    """Analytic density descriptor with a pdf and an exact sampler."""

    dim: int

    def pdf(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class GaussianDensity(DensitySpec):
    """Multivariate normal; the mean must be zero for radial statistics."""

    def __init__(self, covariance, mean=None) -> None:
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        if np.max(np.abs(cov - cov.T)) > 1e-10 * max(1.0, np.max(np.abs(cov))):
            raise ValueError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals[0] <= 0:
            raise ValueError("covariance must be positive definite")
        self.dim = cov.shape[0]
        self.covariance = cov
        self.mean = np.zeros(self.dim) if mean is None else np.asarray(mean, dtype=float)
        if self.mean.shape != (self.dim,):
            raise ValueError("mean must match the covariance dimension")
        self._chol = np.linalg.cholesky(cov)
        self._cov_inv = np.linalg.inv(cov)
        _, self._logdet = np.linalg.slogdet(cov)

    @property
    def centered(self) -> bool:
        return not np.any(self.mean)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(points) - self.mean
        q = np.einsum("ij,jk,ik->i", x, self._cov_inv, x)
        lognorm = -0.5 * (self.dim * math.log(2 * math.pi) + self._logdet)
        return np.exp(lognorm - 0.5 * q)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, self.dim)) @ self._chol.T + self.mean


class MixtureDensity(DensitySpec):
    """Finite mixture of density specs with positive weights summing to 1."""

    def __init__(self, weights, components) -> None:
        w = np.asarray(weights, dtype=float)
        components = list(components)
        if w.ndim != 1 or len(components) != w.shape[0] or not components:
            raise ValueError("weights and components must align and be nonempty")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be positive and sum to 1")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise ValueError("mixture components must share one dimension")
        self.dim = components[0].dim
        self.weights = w
        self.components = tuple(components)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        return sum(
            w * c.pdf(points) for w, c in zip(self.weights, self.components)
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        counts = rng.multinomial(n, self.weights)
        blocks = [c.sample(k, rng) for c, k in zip(self.components, counts) if k > 0]
        out = np.vstack(blocks)
        return out[rng.permutation(n)]


class UniformOverBody(DensitySpec):
    """Uniform distribution over a star body."""

    def __init__(self, body: StarBody, grid: SphericalGrid | None = None) -> None:
        self.dim = body.dim
        self.body = body
        self.grid = grid if grid is not None else make_grid(body.dim)
        self.volume = volume(body, self.grid)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        g = self.body.gauge_many(np.atleast_2d(points))
        return np.where(g <= 1.0, 1.0 / self.volume, 0.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        d = self.dim
        dirs = _sample_directions(self.grid, radial_on_grid(self.body, self.grid) ** d, n, rng)
        r = self.body.radial_many(dirs) * rng.random(n) ** (1.0 / d)
        return r[:, None] * dirs


_PROFILE_NAMES = ("exp", "gauss", "indicator")


def _profile_moment(profile: str, s: float) -> float:
    """integral_0^inf t^(s-1) psi(t) dt for the supported profiles."""
    if profile == "exp":
        return math.exp(gammaln(s))
    if profile == "gauss":
        return 2.0 ** (s / 2.0 - 1.0) * math.exp(gammaln(s / 2.0))
    if profile == "indicator":
        return 1.0 / s
    raise ValueError(f"unsupported gauge profile: {profile!r}")


def _profile_fn(profile: str, t: np.ndarray) -> np.ndarray:
    if profile == "exp":
        return np.exp(-t)
    if profile == "gauss":
        return np.exp(-0.5 * t * t)
    if profile == "indicator":
        return (t <= 1.0).astype(float)
    raise ValueError(f"unsupported gauge profile: {profile!r}")


class GaugeInducedDensity(DensitySpec):
    """Density p(x) = psi(||x||_L) / normalization for a star body L.

    Supported profiles psi: "exp" (e^-t), "gauss" (e^(-t^2/2)), "indicator"
    (t <= 1).  The normalization is vol(L) * d * integral t^(d-1) psi(t) dt;
    construction cross-checks it by importance-sampled Monte Carlo and
    rejects discrepancies beyond 2%.
    """

    def __init__(
        self,
        body: StarBody,
        profile: str = "exp",
        grid: SphericalGrid | None = None,
        validate: bool = True,
    ) -> None:
        if profile not in _PROFILE_NAMES:
            raise ValueError(f"profile must be one of {_PROFILE_NAMES}")
        self.dim = body.dim
        self.body = body
        self.profile = profile
        self.grid = grid if grid is not None else make_grid(body.dim)
        self.body_volume = volume(body, self.grid)
        d = self.dim
        self.normalization = self.body_volume * d * _profile_moment(profile, d)
        if validate:
            self._validate_mass(MASS_CHECK_N)

    def _validate_mass(self, n: int) -> None:
        rng = np.random.default_rng(20_240_817)
        u, r, log_inv_q = _polar_proposal(self.body, self.grid, n, rng)
        w = self.pdf(r[:, None] * u) * np.exp(log_inv_q)
        mass = float(np.mean(w))
        stderr = float(np.std(w) / math.sqrt(n))
        if abs(mass - 1.0) > max(0.02, 4.0 * stderr):
            raise NumericalFailure(
                f"gauge-induced density mass check failed: MC mass {mass:.4f}"
            )

    def pdf(self, points: np.ndarray) -> np.ndarray:
        g = self.body.gauge_many(np.atleast_2d(points))
        return _profile_fn(self.profile, g) / self.normalization

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        d = self.dim
        dirs = _sample_directions(self.grid, radial_on_grid(self.body, self.grid) ** d, n, rng)
        rho = self.body.radial_many(dirs)
        if self.profile == "exp":
            t = rng.gamma(shape=d, scale=1.0, size=n)
        elif self.profile == "gauss":
            t = np.linalg.norm(rng.standard_normal((n, d)), axis=1)
        else:  # indicator: uniform over the body
            t = rng.random(n) ** (1.0 / d)
        return (t * rho)[:, None] * dirs


def _sample_directions(
    grid: SphericalGrid, mass: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Directions with spherical density proportional to a per-node mass.

    Nodes are drawn with probability proportional to w_j * mass_j, then
    jittered within the local cell for absolute continuity.  A body's
    rho^d as the mass gives the direction law of its uniform and
    gauge-induced densities.
    """
    d = grid.dim
    p = grid.weights * mass
    p = p / p.sum()
    idx = rng.choice(grid.n, size=n, p=p)
    if d == 2:
        step = 2.0 * math.pi / grid.n
        theta = grid.angles()[idx] + (rng.random(n) - 0.5) * step
        return np.column_stack([np.cos(theta), np.sin(theta)])
    base = grid.nodes[idx]
    spread = math.sqrt(sphere_surface_area(d) / grid.n) / 2.0
    jittered = base + spread * rng.standard_normal((n, d))
    jittered /= np.linalg.norm(jittered, axis=1, keepdims=True)
    return jittered


def _polar_proposal(body: StarBody, grid: SphericalGrid, n: int, rng: np.random.Generator):
    """Importance proposal x = r u for integrals over R^d.

    u is uniform on the sphere and r ~ Gamma(d, rho_max), with rho_max the
    largest radial value on the grid, so q(x) is proportional to
    exp(-|x| / rho_max).  Returns u, r and log(1 / q(r u)).
    """
    d = body.dim
    rho_max = float(radial_on_grid(body, grid).max())
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = rng.gamma(d, rho_max, size=n)
    log_const = math.log(sphere_surface_area(d)) + float(gammaln(d)) + d * math.log(rho_max)
    return u, r, log_const + r / rho_max


# ---------------------------------------------------------------------------
# Analytic radial statistic
# ---------------------------------------------------------------------------

_LEGENDRE_CACHE: dict = {}


def _leggauss(npts: int):
    if npts not in _LEGENDRE_CACHE:
        _LEGENDRE_CACHE[npts] = np.polynomial.legendre.leggauss(npts)
    return _LEGENDRE_CACHE[npts]


def quad_radial(fn, r_max: float, rel_tol: float, base_panels: int = 8):
    """Composite Gauss-Legendre integral of fn on [0, r_max] with doubling.

    Panels are doubled until successive estimates agree to rel_tol; failure
    to converge raises NonintegrableError.
    """
    t, w = _leggauss(24)
    prev = None
    panels = base_panels
    for _ in range(5):
        edges = np.linspace(0.0, r_max, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        pts = (mid[:, None] + half[:, None] * t[None, :]).ravel()
        vals = fn(pts)
        if not np.all(np.isfinite(vals)):
            raise NonintegrableError("radial integrand is not finite")
        est = float(np.sum(vals.reshape(panels, -1) * w[None, :] * half[:, None]))
        if prev is not None and abs(est - prev) <= rel_tol * max(abs(est), 1e-300):
            return est
        prev = est
        panels *= 2
    raise NonintegrableError("radial quadrature failed to converge")


def _radial_moments(spec: DensitySpec, grid: SphericalGrid, s: float) -> np.ndarray:
    """Per-node values of integral_0^inf r^(s-1) p(r u) dr."""
    if isinstance(spec, GaussianDensity):
        if not spec.centered:
            raise ValueError("radial statistics require a centered Gaussian")
        q = np.sqrt(np.einsum("ij,jk,ik->i", grid.nodes, spec._cov_inv, grid.nodes))
        lognorm = -0.5 * (spec.dim * math.log(2 * math.pi) + spec._logdet)
        return math.exp(lognorm) * _profile_moment("gauss", s) * q ** (-s)
    if isinstance(spec, MixtureDensity):
        return sum(
            w * _radial_moments(c, grid, s)
            for w, c in zip(spec.weights, spec.components)
        )
    if isinstance(spec, UniformOverBody):
        rho = radial_on_grid(spec.body, grid)
        return rho**s / (s * spec.volume)
    if isinstance(spec, GaugeInducedDensity):
        rho = radial_on_grid(spec.body, grid)
        return rho**s * _profile_moment(spec.profile, s) / spec.normalization
    raise TypeError(f"unsupported density spec: {type(spec).__name__}")


def rho_analytic(spec: DensitySpec, grid: SphericalGrid, alpha: float = 1.0) -> RadialProfile:
    """Radial statistic of an analytic density on the given grid.

    Every supported spec has a closed-form ray moment (Gaussians through
    2^(s/2-1) Gamma(s/2) ||Sigma^(-1/2) u||^(-s)), so no quadrature runs.

    Parameters
    ----------
    spec : DensitySpec
        Centered density descriptor (Gaussian means must be zero).
    grid : SphericalGrid
        Evaluation nodes.
    alpha : float
        Homogeneity degree in [1, 8]; the integrand is r^(d+alpha-1) p(ru)
        and values are the (d+alpha)-th root of the integral.
    """
    alpha = _validate_alpha(alpha)
    if spec.dim != grid.dim:
        raise ValueError("density and grid dimension mismatch")
    s = spec.dim + alpha
    moments = _radial_moments(spec, grid, s)
    if np.any(~np.isfinite(moments)) or np.any(moments <= 0):
        raise NonintegrableError("nonintegrable radial statistic")
    return RadialProfile(grid, moments ** (1.0 / s), alpha)


def radial_moment_quadrature(
    pdf_ray, s: float, r_max: float, rel_tol: float = 1e-9
) -> float:
    """Generic ray integral integral_0^r_max r^(s-1) pdf_ray(r) dr.

    Independent path for cross-checking the closed-form moment routes;
    pdf_ray must accept a vector of radii.
    """
    return quad_radial(lambda r: r ** (s - 1.0) * np.asarray(pdf_ray(r)), r_max, rel_tol)


# ---------------------------------------------------------------------------
# Empirical radial statistic
# ---------------------------------------------------------------------------


def rho_empirical(
    samples: SampleSet,
    grid: SphericalGrid,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> RadialProfile:
    """Kernel estimate of the radial statistic from samples (alpha = 1).

    Each sample contributes its Euclidean norm, smeared over the grid by a
    spherical kernel exp(cos(angle)/h^2) normalized so that the weighted sum
    over nodes is 1 per sample.  Zero-norm samples carry no mass and are
    dropped with a warning.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if samples.dim != grid.dim:
        raise ValueError("samples and grid dimension mismatch")
    X = samples.points
    norms = np.linalg.norm(X, axis=1)
    keep = norms > 0
    n_dropped = int(np.sum(~keep))
    if n_dropped:
        warnings.warn(f"dropped {n_dropped} zero-norm samples", stacklevel=2)
    if not np.any(keep):
        raise ValueError("no nonzero samples to estimate from")
    dirs = X[keep] / norms[keep, None]
    kept_norms = norms[keep]
    h2 = bandwidth * bandwidth
    acc = np.zeros(grid.n)
    chunk = 8192
    for start in range(0, dirs.shape[0], chunk):
        v = dirs[start : start + chunk]
        # cos(angle) - 1 keeps the exponent nonpositive, avoiding overflow
        logk = (grid.nodes @ v.T - 1.0) / h2
        k = np.exp(logk)
        denom = grid.weights @ k
        acc += k @ (kept_norms[start : start + chunk] / denom)
    mass = acc / samples.m
    if np.any(mass <= 0):
        raise ValueError(
            "empirical radial statistic vanished on some nodes; increase bandwidth"
        )
    return RadialProfile(grid, mass ** (1.0 / (samples.dim + 1)), 1.0)


# ---------------------------------------------------------------------------
# Expected gauge (population / empirical risk)
# ---------------------------------------------------------------------------


def expected_gauge(
    body: StarBody,
    data,
    alpha: float = 1.0,
    mc_samples: int = 20_000,
    seed=0,
    return_stderr: bool = False,
):
    """Mean gauge power E[||x||_K^alpha] under a sample set or density.

    Sample sets give the exact empirical mean.  Density specs are estimated
    by Monte Carlo with `mc_samples` draws; with return_stderr=True the
    (mean, standard error) pair is returned.
    """
    alpha = _validate_alpha(alpha)
    if isinstance(data, SampleSet):
        if data.dim != body.dim:
            raise ValueError("samples and body dimension mismatch")
        g = body.gauge_many(data.points) ** alpha
    elif isinstance(data, DensitySpec):
        if data.dim != body.dim:
            raise ValueError("density and body dimension mismatch")
        pts = data.sample(mc_samples, _as_rng(seed))
        g = body.gauge_many(pts) ** alpha
    else:
        raise TypeError("data must be a SampleSet or a DensitySpec")
    mean = float(np.mean(g))
    if return_stderr:
        return mean, float(np.std(g) / math.sqrt(len(g)))
    return mean


def sample_density(spec: DensitySpec, n: int, seed=0) -> SampleSet:
    """n i.i.d. draws from a density spec as a SampleSet."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = _as_rng(seed)
    pts = spec.sample(n, rng)
    meta = {"spec": type(spec).__name__}
    if not isinstance(seed, np.random.Generator):
        meta["seed"] = seed
    return SampleSet(spec.dim, pts, meta)


# ---------------------------------------------------------------------------
# Annular families with constant radial statistic
# ---------------------------------------------------------------------------


class AnnularRegion:
    """Planar annulus-like region f(u) <= ||x|| <= g(u) with unit ray mass.

    The outer boundary g = (1 + f^(d+1))^(1/(d+1)) makes the ray integral of
    r^d constant in u, so the uniform distribution over the region has a
    constant radial statistic regardless of the wiggle f.
    """

    def __init__(self, f_values, grid: SphericalGrid) -> None:
        if grid.dim != 2:
            raise ValueError("annular regions are planar")
        f = np.asarray(f_values, dtype=float)
        if f.shape != (grid.n,):
            raise ValueError("f values must align with grid nodes")
        if np.any(f <= 0) or np.any(~np.isfinite(f)):
            raise ValueError("f must be positive and finite")
        d = 2
        self.grid = grid
        self.dim = d
        self.inner = RadialGridBody(grid, f)
        self.outer = RadialGridBody(grid, (1.0 + f ** (d + 1)) ** (1.0 / (d + 1)))
        self.volume = float(
            np.dot(grid.weights, self.outer.radii**d - self.inner.radii**d) / d
        )

    @classmethod
    def from_function(cls, f, grid: SphericalGrid) -> "AnnularRegion":
        return cls(np.asarray(f(grid.angles()), dtype=float), grid)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        inside = (self.outer.gauge_many(pts) <= 1.0) & (self.inner.gauge_many(pts) >= 1.0)
        return np.where(inside, 1.0 / self.volume, 0.0)

    def analytic_profile(self, alpha: float = 1.0) -> RadialProfile:
        alpha = _validate_alpha(alpha)
        s = self.dim + alpha
        moments = (self.outer.radii**s - self.inner.radii**s) / (s * self.volume)
        return RadialProfile(self.grid, moments ** (1.0 / s), alpha)

    def sample(self, n: int, seed=0) -> SampleSet:
        rng = _as_rng(seed)
        d = self.dim
        shell = self.outer.radii**d - self.inner.radii**d
        dirs = _sample_directions(self.grid, shell, n, rng)
        lo = self.inner.radial_many(dirs) ** d
        hi = self.outer.radial_many(dirs) ** d
        r = (lo + rng.random(n) * (hi - lo)) ** (1.0 / d)
        return SampleSet(d, r[:, None] * dirs, {"spec": "AnnularRegion"})


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def density_to_dict(spec: DensitySpec) -> dict:
    if isinstance(spec, GaussianDensity):
        return {
            "type": "gaussian",
            "mean": spec.mean.tolist(),
            "covariance": spec.covariance.tolist(),
        }
    if isinstance(spec, MixtureDensity):
        return {
            "type": "mixture",
            "weights": spec.weights.tolist(),
            "components": [density_to_dict(c) for c in spec.components],
        }
    if isinstance(spec, UniformOverBody):
        return {"type": "uniform_over_body", "body": body_to_dict(spec.body)}
    if isinstance(spec, GaugeInducedDensity):
        return {
            "type": "gauge_induced",
            "body": body_to_dict(spec.body),
            "profile": spec.profile,
            "normalization": spec.normalization,
        }
    raise TypeError(f"unknown density spec: {type(spec).__name__}")


def density_from_dict(data: dict) -> DensitySpec:
    kind = data.get("type")
    if kind == "gaussian":
        return GaussianDensity(
            np.asarray(data["covariance"], dtype=float),
            np.asarray(data["mean"], dtype=float) if "mean" in data else None,
        )
    if kind == "mixture":
        return MixtureDensity(
            np.asarray(data["weights"], dtype=float),
            [density_from_dict(c) for c in data["components"]],
        )
    if kind == "uniform_over_body":
        return UniformOverBody(body_from_dict(data["body"]))
    if kind == "gauge_induced":
        return GaugeInducedDensity(body_from_dict(data["body"]), data["profile"])
    raise ValueError(f"unknown density type: {kind!r}")


def two_gaussian_mixture(eps: float) -> MixtureDensity:
    """Equal-weight planar mixture of N(0, eps*I + (1-eps) e_i e_i^T), i=1,2.

    Interpolates between two degenerate axis-hugging Gaussians (eps small)
    and the standard isotropic Gaussian (eps = 1).
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    cov1 = np.diag([1.0, eps])
    cov2 = np.diag([eps, 1.0])
    return MixtureDensity([0.5, 0.5], [GaussianDensity(cov1), GaussianDensity(cov2)])
