"""Optimal star-body regularizers and convexity diagnostics.

Turns a radial profile into the star body it defines and the unit-volume
dilate that uniquely minimizes the expected gauge, diagnoses convexity of a
body in any dimension (ellipsoids and polytopes by construction, any other
body exactly from the convex hull of its boundary points on a grid),
and locates the convexity transition of the two-Gaussian mixture family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from starbody.density import RadialProfile, rho_analytic, two_gaussian_mixture
from starbody.geometry import (
    DictionaryPolytopeBody,
    DilateBody,
    EllipsoidBody,
    RadialGridBody,
    SphericalGrid,
    StarBody,
    body_to_dict,
    dual_mixed_volume,
    facet_gauge,
    hull_facet_gradients,
    make_grid,
    radial_on_grid,
    uniform_circle_grid,
    volume,
    volume_normalize,
)

# relative radial depth inside the boundary points' hull up to which a node
# still counts as on it, so the body as convex
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

    def to_dict(self) -> dict:
        return {"is_convex": self.is_convex, "margin": self.margin, "method": self.method}


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


def check_convexity(
    body: StarBody,
    grid: SphericalGrid | None = None,
    *,
    trials=None,
    seed=None,
) -> ConvexityReport:
    """Convexity verdict from the convex hull of the boundary points.

    Ellipsoids and dictionary polytopes are convex by construction and get
    margin 0 without a hull.  Any other body (dilates are unwrapped, as the
    verdict is scale-free) is sampled at the nodes u_i of its own grid if it
    is a RadialGridBody, else of `grid` (default make_grid(d)); the margin
    is min(0, min_i ||P_i||_H - 1), where H is the convex hull of the
    boundary points P_i = rho(u_i) u_i.  It is the relative radial depth of
    the deepest node inside H: 0 when every node lies on the hull, -1/2 when
    some node sits halfway to the origin.  The body counts as convex when
    the margin is at least -CONVEXITY_MARGIN_TOL.  Raises ValueError when
    the origin is not interior to H.  `trials` and `seed` are accepted for
    older callers and ignored: the verdict draws nothing.
    """
    while isinstance(body, DilateBody):
        body = body.base
    if isinstance(body, (EllipsoidBody, DictionaryPolytopeBody)):
        return ConvexityReport(True, 0.0, "closed-form")
    if isinstance(body, RadialGridBody):
        grid = body.grid
    elif grid is None:
        grid = make_grid(body.dim)
    points = radial_on_grid(body, grid)[:, None] * grid.nodes
    vertices, _, y = hull_facet_gradients(points)
    # only points that are not hull vertices can lie inside the hull
    inner = np.delete(points, vertices, axis=0)
    margin = min(0.0, float(np.min(facet_gauge(inner, y), initial=1.0)) - 1.0)
    return ConvexityReport(margin >= -CONVEXITY_MARGIN_TOL, margin, "boundary-hull")


# ---------------------------------------------------------------------------
# Two-Gaussian mixture transition
# ---------------------------------------------------------------------------


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
        report = check_convexity(rho_analytic(two_gaussian_mixture(eps), grid).body())
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
    "optimal_body",
    "risk_identity_residual",
    "two_gaussian_mixture",
]
