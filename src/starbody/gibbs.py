"""Gauge-induced Gibbs densities: normalizers, likelihoods, dilates, sampling.

A star body K induces the density p_K(x) = exp(-||x||_K^alpha) / Z.  The
layer-cake computation gives Z = vol(K) * Gamma(d/alpha + 1) exactly; for
alpha = 1 this is the familiar vol(K) * Gamma(d+1).  Values alpha != 1 use
the same formula but are an unvalidated extension, and the sampler is
restricted to alpha = 1, where the polar factorization makes the gauge of a
draw exactly Gamma(d, 1).  The sampler and the Monte Carlo normalizer check
are density.sample_polar and density.mc_polar_integral with the "exp"
profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from starbody.density import (
    SampleSet,
    _validate_alpha,
    expected_gauge,
    mc_polar_integral,
    sample_polar,
)
from starbody.geometry import (
    SphericalGrid,
    StarBody,
    body_from_dict,
    body_to_dict,
    grid_from_descriptor,
    grid_to_descriptor,
    make_grid,
    volume,
)


def log_normalizer(body: StarBody, grid: SphericalGrid, alpha: float = 1.0) -> float:
    """log Z for the density exp(-||x||_K^alpha), Z = vol(K) Gamma(d/alpha + 1)."""
    alpha = _validate_alpha(alpha)
    d = body.dim
    return math.log(volume(body, grid)) + math.lgamma(d / alpha + 1.0)


def mc_normalizer_estimate(body: StarBody, grid: SphericalGrid, n: int = 200_000, seed=0):
    """Monte Carlo estimate of Z = integral of exp(-||x||_K), with stderr.

    density.mc_polar_integral of exp(-r ||u||_K): uniform directions and
    Gamma(d, rho_max) radii, where rho_max is the largest radial value on
    the grid, each draw weighted by integrand / proposal.  The estimate is
    unbiased with no truncation.  The weights are bounded only where rho_max
    really bounds rho; a body whose radial function peaks between grid
    nodes gives heavier-tailed weights, and the returned stderr is then
    less reliable.
    """
    if n < 1:
        raise ValueError("need at least one Monte Carlo sample")
    return mc_polar_integral(
        lambda u, r: -(r * body.gauge_many(u)), body, grid, n, np.random.default_rng(seed)
    )


def nll(body: StarBody, data, grid: SphericalGrid, alpha: float = 1.0) -> float:
    """Cross-entropy of data against p_K: E[||x||_K^alpha] + log Z.

    Both terms use `grid`: log Z through the volume quadrature and, on a
    density spec, the expected gauge through expected_gauge's radial-statistic
    identity, so the value is deterministic.
    """
    return expected_gauge(body, data, alpha=alpha, grid=grid) + log_normalizer(body, grid, alpha)


def optimal_dilate(body: StarBody, data) -> float:
    """The dilate factor minimizing nll over {lambda K}: mean gauge / d."""
    mean = expected_gauge(body, data)
    if mean <= 0.0:
        raise ValueError("mean gauge is zero; no positive dilate exists")
    return mean / body.dim


def m_projection(bodies, data, grid: SphericalGrid, alpha: float = 1.0):
    """Index of the nll-minimizing body in a finite family, plus all values.

    Every nll uses `grid` for both log Z and the risk.  On a family of
    unit-volume bodies log Z is constant, so the winner is exactly the body
    with the smallest expected gauge.
    """
    bodies = list(bodies)
    if not bodies:
        raise ValueError("empty family")
    values = np.array([nll(b, data, grid, alpha=alpha) for b in bodies])
    return int(np.argmin(values)), values


def sample_gibbs(body: StarBody, n: int, seed=0, grid: SphericalGrid | None = None) -> SampleSet:
    """n draws from p_K (alpha = 1): density.sample_polar, profile "exp".

    The gauge law is exact: the gauge of every draw is Gamma(d, 1), and the
    radius given the realized direction u is Gamma(d, rho(u)).  The
    direction law is grid.cells.sample with the body's radii on the grid.
    On a d = 3 product grid it is exact for the RadialGridBody interpolant
    of those radii (density proportional to its rho^3, by rejection from
    the grid cells), so a grid body on that grid is sampled exactly.
    Elsewhere nodes are drawn with weight w_j rho_j^d and jittered within
    their cell: in d = 2 the error is the cell-level discretization; in
    d >= 4 the Gaussian jitter also smears mass into neighbouring cells, so
    moments are off by a few percent (E[x x^T] against (d + 1) A A^T for
    the ellipsoid diag(2, ..., 0.5) on 1024 nodes: about 5% in d = 4).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if grid is None:
        grid = make_grid(body.dim)
    pts = sample_polar(body, grid, "exp", n, np.random.default_rng(seed))
    meta = {"spec": "gibbs"}
    if not isinstance(seed, np.random.Generator):
        meta["seed"] = seed
    return SampleSet(body.dim, pts, meta)


def _gamma_cdf(d: int, g: np.ndarray) -> np.ndarray:
    """CDF of Gamma(d, 1) for an integer shape d >= 1, the Erlang law.

    P(d, g) = 1 - e^-g sum_{k<d} g^k / k!; within 2e-15 of
    scipy.special.gammainc(d, g) for d = 1..20.
    """
    term = np.ones_like(g)
    total = np.ones_like(g)
    for k in range(1, d):
        term *= g / k
        total += term
    return 1.0 - np.exp(-g) * total


def gauge_ks_statistic(body: StarBody, samples: SampleSet) -> float:
    """Two-sided one-sample KS distance from the sample gauges to Gamma(d, 1).

    Closed form over the sorted gauges g_(1) <= ... <= g_(n) with F the
    Gamma(d, 1) CDF: max_i max(i/n - F(g_(i)), F(g_(i)) - (i-1)/n).
    Only the statistic is computed, no p-value.
    """
    g = np.sort(body.gauge_many(samples.points))
    n = g.size
    cdf = _gamma_cdf(body.dim, g)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


@dataclass(frozen=True)
class GibbsDensity:
    """p_K with its normalizer cached at construction.

    The grid fixes the volume quadrature; log_Z may be passed explicitly
    (deserialization) and is recomputed otherwise.
    """

    body: StarBody
    alpha: float = 1.0
    grid: SphericalGrid = None
    log_Z: float = field(default=None)

    def __post_init__(self):
        _validate_alpha(self.alpha)
        if self.grid is None:
            object.__setattr__(self, "grid", make_grid(self.body.dim))
        if self.log_Z is None:
            object.__setattr__(self, "log_Z", log_normalizer(self.body, self.grid, self.alpha))

    @property
    def dim(self) -> int:
        return self.body.dim

    def log_pdf(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return -self.body.gauge_many(pts) ** self.alpha - self.log_Z

    def pdf(self, points) -> np.ndarray:
        return np.exp(self.log_pdf(points))

    def nll(self, data) -> float:
        return expected_gauge(self.body, data, alpha=self.alpha, grid=self.grid) + self.log_Z

    def sample(self, n: int, seed=0) -> SampleSet:
        if self.alpha != 1.0:
            raise ValueError("sampling supports alpha = 1 only")
        return sample_gibbs(self.body, n, seed=seed, grid=self.grid)

    def to_dict(self) -> dict:
        return {
            "body": body_to_dict(self.body),
            "alpha": self.alpha,
            "log_Z": self.log_Z,
            "grid": grid_to_descriptor(self.grid),
        }


def gibbs_from_dict(data: dict) -> GibbsDensity:
    return GibbsDensity(
        body=body_from_dict(data["body"]),
        alpha=float(data.get("alpha", 1.0)),
        grid=grid_from_descriptor(data["grid"]),
        log_Z=float(data["log_Z"]),
    )


__all__ = [
    "GibbsDensity",
    "gauge_ks_statistic",
    "gibbs_from_dict",
    "log_normalizer",
    "m_projection",
    "mc_normalizer_estimate",
    "nll",
    "optimal_dilate",
    "sample_gibbs",
]
