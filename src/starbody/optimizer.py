"""Optimal star-body regularizers and convexity diagnostics.

Turns a radial profile into the star body it defines and the unit-volume
dilate that uniquely minimizes the expected gauge, diagnoses convexity of a
body (exact cross-product test for planar radial grids, sampled gauge
subadditivity otherwise), locates the convexity transition of the
two-Gaussian mixture family, and estimates support bodies from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from starbody.density import RadialProfile, SampleSet, two_gaussian_mixture
from starbody.geometry import (
    DilateBody,
    RadialGridBody,
    SphericalGrid,
    StarBody,
    _circle_cells,
    body_to_dict,
    dual_mixed_volume,
    make_grid,
    uniform_circle_grid,
    volume,
    volume_normalize,
)

# slack below which a negative convexity margin still counts as convex
CONVEXITY_MARGIN_TOL = 1e-6


@dataclass(frozen=True)
class OptimalBodyResult:
    """Optimal star body constructed from a radial profile.

    l_p carries the profile as its radial function; k_star is its
    unit-volume dilate, the unique expected-gauge minimizer; achieved_risk
    is the geometric cross-check value d * V~_{-alpha}(k_star, l_p).
    """

    l_p: RadialGridBody
    k_star: StarBody
    alpha: float
    achieved_risk: float
    volume_check: float

    def to_dict(self) -> dict:
        return {
            "k_star": body_to_dict(self.k_star),
            "l_p": body_to_dict(self.l_p),
            "metadata": {
                "alpha": self.alpha,
                "achieved_risk": self.achieved_risk,
                "volume_check": self.volume_check,
            },
        }


@dataclass(frozen=True)
class ConvexityReport:
    is_convex: bool
    margin: float
    method: str
    trials: int

    def to_dict(self) -> dict:
        return {
            "is_convex": self.is_convex,
            "margin": self.margin,
            "method": self.method,
            "trials": self.trials,
        }


def optimal_body(profile: RadialProfile) -> OptimalBodyResult:
    """Optimal unit-volume star body for the source behind a radial profile.

    The profile's values define the body l_p; its unit-volume dilate k_star
    minimizes E[||x||_K^alpha] over unit-volume star bodies.
    """
    grid = profile.grid
    l_p = profile.body()
    k_star = volume_normalize(l_p, grid)
    d = grid.dim
    risk = d * dual_mixed_volume(k_star, l_p, -profile.alpha, grid)
    return OptimalBodyResult(
        l_p=l_p,
        k_star=k_star,
        alpha=profile.alpha,
        achieved_risk=float(risk),
        volume_check=float(volume(k_star, grid)),
    )


# ---------------------------------------------------------------------------
# Convexity
# ---------------------------------------------------------------------------


def _planar_vertices(body: StarBody):
    """Boundary vertices in angular order for planar radial-grid bodies."""
    scale = 1.0
    while isinstance(body, DilateBody):
        scale *= body.factor
        body = body.base
    if isinstance(body, RadialGridBody) and body.dim == 2:
        order = np.argsort(body.grid.angles())
        return scale * body.radii[order, None] * body.grid.nodes[order]
    return None


def check_convexity(
    body: StarBody,
    trials: int = 512,
    seed=0,
) -> ConvexityReport:
    """Convexity verdict with a scale-free margin.

    Planar radial-grid bodies get the exact polygon test: consecutive edge
    cross products, normalized by the edge lengths, must all be nonnegative.
    Every other representation is probed by sampled gauge subadditivity on
    random unit pairs, with the margin normalized by the gauge of the sum.
    The body counts as convex when the margin is at least
    -CONVEXITY_MARGIN_TOL.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    verts = _planar_vertices(body)
    if verts is not None:
        e1 = np.roll(verts, -1, axis=0) - verts
        e2 = np.roll(verts, -2, axis=0) - np.roll(verts, -1, axis=0)
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        denom = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
        margin = float(np.min(cross / denom))
        return ConvexityReport(
            margin >= -CONVEXITY_MARGIN_TOL, margin, "exact2d", verts.shape[0]
        )
    rng = np.random.default_rng(seed)
    d = body.dim
    margin = np.inf
    done = 0
    while done < trials:
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        if np.linalg.norm(x + y) < 1e-9:
            continue
        gx, gy, gxy = body.gauge_many(np.vstack([x, y, x + y]))
        margin = min(margin, (gx + gy - gxy) / gxy)
        done += 1
    return ConvexityReport(
        margin >= -CONVEXITY_MARGIN_TOL, float(margin), "sampled-subadditivity", trials
    )


# ---------------------------------------------------------------------------
# Two-Gaussian mixture transition
# ---------------------------------------------------------------------------


def gmm_profile(eps: float, grid: SphericalGrid) -> RadialProfile:
    """Closed-form radial statistic of the planar two-Gaussian mixture.

    The cubed profile is c_eps * (||S1^(-1/2)u||^-3 + ||S2^(-1/2)u||^-3)
    with S_i = eps*I + (1-eps) e_i e_i^T and
    c_eps = sqrt(pi/2) / (4*pi*sqrt(eps)).
    """
    if grid.dim != 2:
        raise ValueError("the mixture family is planar")
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    u1, u2 = grid.nodes[:, 0], grid.nodes[:, 1]
    q1 = np.sqrt(u1**2 + u2**2 / eps)  # S1 = diag(1, eps)
    q2 = np.sqrt(u1**2 / eps + u2**2)
    c = math.sqrt(math.pi / 2) / (4 * math.pi * math.sqrt(eps))
    return RadialProfile(grid, (c * (q1**-3 + q2**-3)) ** (1 / 3), 1.0)


def critical_epsilon_gmm(
    grid: SphericalGrid | None = None,
    eps_lo: float = 0.05,
    eps_hi: float = 0.95,
    bisection_tol: float = 0.01,
    record: list | None = None,
) -> float:
    """Convexity transition of the two-Gaussian mixture family by bisection.

    Validates that eps_lo is nonconvex and eps_hi convex under
    check_convexity's default verdict, then bisects the single transition;
    pass a list as `record` to capture the (eps, margin, is_convex) trace.
    """
    if grid is None:
        grid = uniform_circle_grid(1024)
    if not (0 < eps_lo < eps_hi <= 1):
        raise ValueError("need 0 < eps_lo < eps_hi <= 1")

    def verdict(eps: float) -> bool:
        report = check_convexity(gmm_profile(eps, grid).body())
        if record is not None:
            record.append((eps, report.margin, report.is_convex))
        return report.is_convex

    lo_convex = verdict(eps_lo)
    hi_convex = verdict(eps_hi)
    if lo_convex or not hi_convex:
        raise ValueError(
            "no sign change in bracket: expected nonconvex at eps_lo and convex at eps_hi"
        )
    lo, hi = eps_lo, eps_hi
    while hi - lo > bisection_tol:
        mid = 0.5 * (lo + hi)
        if verdict(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Support-body estimation
# ---------------------------------------------------------------------------


def support_body(samples: SampleSet, grid: SphericalGrid | None = None) -> RadialGridBody:
    """Directional-max star hull of a sample set.

    Every sample's norm raises the radial value of all the grid nodes its
    direction interpolates through, so the returned body contains every
    sample; nodes left empty inherit the nearest populated value.
    """
    if grid is None:
        grid = make_grid(samples.dim)
    if samples.dim != grid.dim:
        raise ValueError("samples and grid dimension mismatch")
    if samples.m < samples.dim:
        raise ValueError("need at least d samples")
    X = samples.points
    norms = np.linalg.norm(X, axis=1)
    nz = norms > 0
    if not np.any(nz):
        raise ValueError("all samples are at the origin")
    dirs = X[nz] / norms[nz, None]
    norms = norms[nz]
    radii = np.zeros(grid.n)
    if grid.dim == 2:
        j0, _ = _circle_cells(dirs, grid.n)
        np.maximum.at(radii, j0, norms)
        np.maximum.at(radii, (j0 + 1) % grid.n, norms)
    else:
        k = min(RadialGridBody.K_NEIGHBORS, grid.n)
        _, idx = cKDTree(grid.nodes).query(dirs, k=k)
        idx = np.atleast_2d(idx)
        for col in range(idx.shape[1]):
            np.maximum.at(radii, idx[:, col], norms)
    empty = radii == 0
    if np.any(empty):
        filled = np.flatnonzero(~empty)
        _, nearest = cKDTree(grid.nodes[filled]).query(grid.nodes[empty])
        radii[empty] = radii[filled[nearest]]
    return RadialGridBody(grid, radii)


def risk_identity_residual(result: OptimalBodyResult, grid: SphericalGrid) -> float:
    """Relative gap between achieved_risk and d * vol(L_P)^((d+alpha)/d)."""
    d = grid.dim
    target = d * volume(result.l_p, grid) ** ((d + result.alpha) / d)
    return abs(result.achieved_risk - target) / target


__all__ = [
    "ConvexityReport",
    "OptimalBodyResult",
    "check_convexity",
    "critical_epsilon_gmm",
    "gmm_profile",
    "optimal_body",
    "risk_identity_residual",
    "support_body",
    "two_gaussian_mixture",
]
