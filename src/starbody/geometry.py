"""Star bodies and dual Brunn-Minkowski primitives.

A star body is a compact set, star-shaped about the origin, whose radial
function is positive and continuous.  This module provides the concrete
representations (radial grids, ellipsoids, linear images of the l1 ball,
unions, dilates), gauge and radial evaluation, spherical quadrature grids,
volumes and dual mixed volumes, the radial sup-metric, and the harmonic
Blaschke combination.

All grids and bodies are immutable after construction; every operation is
pure and thread-safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, cKDTree
from scipy.special import gamma as gamma_fn
from scipy.stats import norm, qmc

NODE_NORM_TOL = 1e-12
UNIT_INPUT_TOL = 1e-9
# Dictionary polytopes: bodies whose facet count could exceed this (upper
# bound theorem on their 2p vertices) use the per-point coding LP instead of
# a Qhull facet description.  Real hulls have far fewer facets than the
# bound: d = 8, p = 20 (bound 65450) has ~10^4 and builds in ~0.1 s on a
# 2-core x86 VM, about 50 coding LPs' worth.
MAX_HULL_FACETS = 100_000
# relative gap within which facets count as active (tied) at a point
FACET_TIE_RTOL = 1e-10
# facet-gauge work is done in row blocks of about this many (point, facet) scores
CHUNK_ENTRIES = 1 << 20
# a dictionary code z is rejected when ||A z - x|| exceeds this times 1 + ||x||
CODING_FEAS_TOL = 1e-8


class NumericalFailure(Exception):
    """A numerical routine could not produce a trustworthy result."""


class UnboundedGaugeError(NumericalFailure):
    """The gauge is infinite: the point lies outside the body's span."""


class DegenerateDirectionError(NumericalFailure):
    """The radial function is undefined along a direction of zero gauge."""


def sphere_surface_area(dim: int) -> float:
    """Surface area of the unit sphere in R^dim (2*pi for dim=2)."""
    return 2.0 * math.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit Euclidean ball in R^dim."""
    return math.pi ** (dim / 2.0) / gamma_fn(dim / 2.0 + 1.0)


def _upper_bound_facets(n_vertices: int, dim: int) -> int:
    """Most facets of a simplicial dim-polytope with n_vertices vertices.

    McMullen's upper bound theorem (cyclic polytopes); it also bounds a
    triangulated hull's facets, since Qhull's triangulation adds no vertices.
    """
    n, k = n_vertices, dim // 2
    if dim % 2 == 0:
        return n * math.comb(n - k, k) // (n - k)
    return 2 * math.comb(n - k - 1, k)


def _circle_cells(dirs: np.ndarray, n: int):
    """Angle cell of planar directions on n equally spaced nodes.

    Returns the node index j0 at or below each direction's angle and the
    fraction in [0, 1) of the way to node j0 + 1 (mod n).
    """
    theta = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * math.pi)
    t = theta * n / (2.0 * math.pi)
    return np.floor(t).astype(int) % n, t - np.floor(t)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SphericalGrid:
    """Quadrature nodes and weights on the unit sphere.

    Parameters
    ----------
    dim : int
        Ambient dimension d >= 2; nodes live on S^{d-1}.
    nodes : ndarray, shape (n, dim)
        Unit vectors (norm 1 within 1e-12).
    weights : ndarray, shape (n,)
        Positive quadrature weights summing to the sphere's surface area.
    descriptor : dict
        Construction recipe, used for serialization and fast-path checks.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    descriptor: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _freeze(self.nodes))
        object.__setattr__(self, "weights", _freeze(self.weights))
        if self.dim < 2:
            raise ValueError("grid dimension must be >= 2")
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.dim:
            raise ValueError("nodes must be (n, dim)")
        if self.weights.shape != (self.nodes.shape[0],):
            raise ValueError("weights must align with nodes")
        norms = np.linalg.norm(self.nodes, axis=1)
        if np.any(np.abs(norms - 1.0) > NODE_NORM_TOL):
            raise ValueError("grid nodes must have unit norm within 1e-12")
        if np.any(self.weights <= 0):
            raise ValueError("grid weights must be strictly positive")

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def angles(self) -> np.ndarray:
        """Node angles in [0, 2*pi); only meaningful for dim=2."""
        if self.dim != 2:
            raise ValueError("angles are defined for dim=2 grids only")
        return np.mod(np.arctan2(self.nodes[:, 1], self.nodes[:, 0]), 2.0 * math.pi)


def uniform_circle_grid(n: int = 1024) -> SphericalGrid:
    """n equally spaced angles on the circle with trapezoidal weights 2*pi/n."""
    if n < 3:
        raise ValueError("need at least 3 nodes on the circle")
    theta = 2.0 * math.pi * np.arange(n) / n
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(n, 2.0 * math.pi / n)
    return SphericalGrid(2, nodes, weights, {"kind": "uniform2d", "n": n})


def fibonacci_sphere_grid(n: int = 1024) -> SphericalGrid:
    """Generalized-spiral nodes on S^2 with equal weights 4*pi/n."""
    if n < 4:
        raise ValueError("need at least 4 nodes on the 2-sphere")
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    nodes = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    weights = np.full(n, sphere_surface_area(3) / n)
    return SphericalGrid(3, nodes, weights, {"kind": "fibonacci3d", "n": n})


def low_discrepancy_sphere_grid(dim: int, n: int) -> SphericalGrid:
    """Quasi-uniform nodes on S^{dim-1} for dim >= 4, equal weights."""
    if dim < 4:
        raise ValueError("use the dedicated constructors for dim 2 and 3")
    sampler = qmc.Halton(d=dim, scramble=False)
    sampler.fast_forward(1)  # skip the all-zero first point
    u = sampler.random(n)
    g = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    nodes = g / norms[:, None]
    weights = np.full(n, sphere_surface_area(dim) / n)
    return SphericalGrid(dim, nodes, weights, {"kind": "halton", "dim": dim, "n": n})


def make_grid(dim: int, n: int = 1024) -> SphericalGrid:
    """Default quadrature grid for the requested dimension."""
    if dim == 2:
        return uniform_circle_grid(n)
    if dim == 3:
        return fibonacci_sphere_grid(n)
    return low_discrepancy_sphere_grid(dim, n)


def grid_to_descriptor(grid: SphericalGrid) -> dict:
    if grid.descriptor.get("kind") in ("uniform2d", "fibonacci3d", "halton"):
        return dict(grid.descriptor)
    return {
        "kind": "explicit",
        "nodes": grid.nodes.tolist(),
        "weights": grid.weights.tolist(),
    }


def grid_from_descriptor(desc: dict) -> SphericalGrid:
    kind = desc.get("kind")
    if kind == "uniform2d":
        return uniform_circle_grid(int(desc["n"]))
    if kind == "fibonacci3d":
        return fibonacci_sphere_grid(int(desc["n"]))
    if kind == "halton":
        return low_discrepancy_sphere_grid(int(desc["dim"]), int(desc["n"]))
    if kind == "explicit":
        nodes = np.asarray(desc["nodes"], dtype=float)
        weights = np.asarray(desc["weights"], dtype=float)
        return SphericalGrid(nodes.shape[1], nodes, weights, {"kind": "explicit"})
    raise ValueError(f"unknown grid descriptor kind: {kind!r}")


# ---------------------------------------------------------------------------
# Star-body representations
# ---------------------------------------------------------------------------


class StarBody:
    """Common interface: gauge and radial evaluation in R^dim."""

    dim: int

    def gauge_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gauge(self, x) -> float:
        """Minkowski gauge inf{t > 0 : x in t*K}; 0 at the origin."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a point in R^{self.dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("gauge argument must be finite")
        return float(self.gauge_many(x[None, :])[0])

    def radial_many(self, dirs: np.ndarray) -> np.ndarray:
        g = self.gauge_many(dirs)
        if np.any(g <= 0) or not np.all(np.isfinite(g)):
            raise DegenerateDirectionError("zero gauge along a requested direction")
        return 1.0 / g

    def radial(self, u) -> float:
        """Radial function: distance from the origin to the boundary along u."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"expected a direction in R^{self.dim}")
        nrm = np.linalg.norm(u)
        if abs(nrm - 1.0) > UNIT_INPUT_TOL:
            raise ValueError("radial direction must be a unit vector")
        return float(self.radial_many(u[None, :])[0])


class RadialGridBody(StarBody):
    """Star body given by radii at grid nodes.

    dim=2 interpolates the radial function periodically and linearly in
    angle; dim>=3 uses inverse-square-distance weights over the k=8 nearest
    nodes (exact at the nodes themselves).
    """

    K_NEIGHBORS = 8

    def __init__(self, grid: SphericalGrid, radii) -> None:
        radii = _freeze(np.asarray(radii, dtype=float))
        if radii.shape != (grid.n,):
            raise ValueError("radii must align with grid nodes")
        if np.any(radii <= 0) or not np.all(np.isfinite(radii)):
            raise ValueError("radial values must be positive and finite")
        self.dim = grid.dim
        self.grid = grid
        self.radii = radii
        if self.dim == 2:
            order = np.argsort(grid.angles())
            ang = grid.angles()[order]
            step = 2.0 * math.pi / grid.n
            if np.max(np.abs(ang - step * np.arange(grid.n))) > 1e-9:
                raise ValueError("dim-2 radial grids need equally spaced angles")
            self._order = order
            self._sorted_radii = radii[order]
        else:
            self._tree = cKDTree(grid.nodes)

    def _interp_radial(self, dirs: np.ndarray) -> np.ndarray:
        if self.dim == 2:
            n = self.grid.n
            j0, frac = _circle_cells(dirs, n)
            r = self._sorted_radii
            return (1.0 - frac) * r[j0] + frac * r[(j0 + 1) % n]
        k = min(self.K_NEIGHBORS, self.grid.n)
        dist, idx = self._tree.query(dirs, k=k)
        dist = np.atleast_2d(dist)
        idx = np.atleast_2d(idx)
        out = np.empty(dirs.shape[0])
        exact = dist[:, 0] < 1e-12
        out[exact] = self.radii[idx[exact, 0]]
        rest = ~exact
        if np.any(rest):
            w = 1.0 / dist[rest] ** 2
            vals = self.radii[idx[rest]]
            out[rest] = np.sum(w * vals, axis=1) / np.sum(w, axis=1)
        return out

    def gauge_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        norms = np.linalg.norm(points, axis=1)
        out = np.zeros(points.shape[0])
        nz = norms > 0
        if np.any(nz):
            dirs = points[nz] / norms[nz, None]
            out[nz] = norms[nz] / self._interp_radial(dirs)
        return out

    def radial_many(self, dirs: np.ndarray) -> np.ndarray:
        return self._interp_radial(np.asarray(dirs, dtype=float))


class EllipsoidBody(StarBody):
    """Linear image A(B^d) of the unit ball, A symmetric positive definite."""

    def __init__(self, matrix) -> None:
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("ellipsoid matrix must be square")
        if not np.all(np.isfinite(A)):
            raise ValueError("ellipsoid matrix must be finite")
        if np.max(np.abs(A - A.T)) > 1e-8 * max(1.0, np.max(np.abs(A))):
            raise ValueError("ellipsoid matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(A)
        if eigvals[0] <= 0:
            raise ValueError("ellipsoid matrix must be positive definite")
        self.dim = A.shape[0]
        self.matrix = _freeze(0.5 * (A + A.T))
        self._inv = _freeze(np.linalg.inv(self.matrix))

    def gauge_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.linalg.norm(points @ self._inv.T, axis=1)


class DictionaryPolytopeBody(StarBody):
    """Linear image A(B_l1) = conv(+-a_j) of the l1 ball.

    The gauge of x is the minimal l1 coding norm min ||z||_1 subject to
    A z = x.  Since the body is a polytope, the constructor computes its
    facet description once (Qhull, triangulated facets) and the gauge is
    the closed form max_f <y_f, x> with y_f = n_f / b_f for the facet
    hyperplanes <n_f, x> = b_f.  A body in R^1 is the interval
    [-max|a_j|, max|a_j|] and gets its two "facets" directly.  A body
    whose facet count could exceed MAX_HULL_FACETS (by the upper bound
    theorem) solves the coding linear program per point instead.  A must
    have full row rank so that the body has the origin in its interior.
    """

    def __init__(self, columns) -> None:
        A = np.asarray(columns, dtype=float)
        if A.ndim != 2:
            raise ValueError("dictionary must be a d x p matrix")
        d, p = A.shape
        if p < d:
            raise ValueError("dictionary needs at least d columns")
        if not np.all(np.isfinite(A)):
            raise ValueError("dictionary entries must be finite")
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise ValueError("dictionary must have full row rank (origin interior)")
        self.dim = d
        self.columns = _freeze(A)
        self._signed = _freeze(np.hstack([A, -A]))  # the 2p points +-a_j
        # facet gradients y_f, shape (F, d), and each facet's d vertices as
        # indices into the columns of _signed; None selects the LP path
        self._facet_y = None
        self._facet_vertices = None
        if d == 1:
            top = int(np.argmax(self._signed[0]))
            self._facet_y = _freeze(np.array([[1.0], [-1.0]]) / self._signed[0, top])
            self._facet_vertices = np.array([[top], [(top + p) % (2 * p)]])
        elif _upper_bound_facets(2 * p, d) <= MAX_HULL_FACETS:
            hull = ConvexHull(self._signed.T, qhull_options="Qt")
            self._facet_y = _freeze(hull.equations[:, :d] / -hull.equations[:, d:])
            self._facet_vertices = hull.simplices
        if self._facet_y is not None:
            # Qt may split a non-simplicial facet into some zero-volume
            # simplices; they keep their facet's hyperplane but cannot carry a
            # code z, so they are never chosen to solve for one
            verts = self._signed[:, self._facet_vertices].transpose(1, 0, 2)
            hadamard = np.prod(np.linalg.norm(verts, axis=1), axis=1)
            self._facet_solvable = np.abs(np.linalg.det(verts)) > 1e-12 * hadamard

    def gauge_certificate(self, x: np.ndarray):
        """Gauge of one point with primal/dual certificates.

        Returns
        -------
        value : float
        z : ndarray, shape (p,)
            Signed coefficients with A z = x and ||z||_1 = value.
        y : ndarray, shape (d,)
            A subgradient of the gauge at x, with ||A^T y||_inf <= 1 and
            <y, x> = value.
        """
        x = np.asarray(x, dtype=float)
        vals, Z, Y = self.gauge_certificate_many(x[None, :])
        return float(vals[0]), Z[0], Y[0]

    def gauge_certificate_many(self, points: np.ndarray):
        """Gauges, primal codes z (n, p) and subgradients y (n, d) of many points.

        On the facet path, y is the mean gradient of the active facets
        (those within FACET_TIE_RTOL of the maximum), so a point on a
        vertex or ridge gets the same symmetric subgradient whichever facet
        rounding favours; z solves A z = x on an active facet whose cone
        holds x.  Raises UnboundedGaugeError if a code misses A z = x by
        more than CODING_FEAS_TOL (relative to 1 + ||x||).
        """
        points = np.asarray(points, dtype=float)
        if self._facet_y is None:
            parts = [self._lp_certificate(x) for x in points]
            vals = np.array([q[0] for q in parts])
            Z = np.array([q[1] for q in parts]).reshape(len(points), -1)
            Y = np.array([q[2] for q in parts]).reshape(len(points), -1)
        else:
            chunks = [self._facet_certificates(points[rows]) for rows in self._chunks(len(points))]
            vals = np.concatenate([c[0] for c in chunks])
            Z = np.concatenate([c[1] for c in chunks])
            Y = np.concatenate([c[2] for c in chunks])
        resid = np.linalg.norm(Z @ self.columns.T - points, axis=1)
        if np.any(resid > CODING_FEAS_TOL * (1.0 + np.linalg.norm(points, axis=1))):
            raise UnboundedGaugeError("l1 coding violated feasibility tolerance")
        return vals, Z, Y

    def _chunks(self, n: int):
        """Row slices that keep each (rows, facets) score block near CHUNK_ENTRIES."""
        step = max(1, CHUNK_ENTRIES // len(self._facet_y))
        return [slice(i, i + step) for i in range(0, max(n, 1), step)]

    def _facet_certificates(self, X: np.ndarray):
        n, d = X.shape
        p = self.columns.shape[1]
        S = X @ self._facet_y.T
        vals = S.max(axis=1)
        active = S >= (vals - FACET_TIE_RTOL * np.abs(vals))[:, None]
        Y = (active @ self._facet_y) / active.sum(axis=1)[:, None]
        facet = np.where(self._facet_solvable, S, -np.inf).argmax(axis=1)
        verts = self._signed[:, self._facet_vertices[facet]].transpose(1, 0, 2)
        lam = np.linalg.solve(verts, X[:, :, None])[:, :, 0]
        # a triangulated facet shares its hyperplane with its neighbours; if
        # the ray leaves the argmax simplex, take the active one it crosses
        for i in np.flatnonzero(lam.min(axis=1) < -FACET_TIE_RTOL * vals):
            cand = np.flatnonzero(active[i] & self._facet_solvable)
            sols = [np.linalg.solve(self._signed[:, self._facet_vertices[f]], X[i]) for f in cand]
            best = int(np.argmax([s.min() for s in sols]))
            facet[i], lam[i] = cand[best], sols[best]
        idx = self._facet_vertices[facet]
        Z = np.zeros((n, p))
        rows = np.repeat(np.arange(n), d)
        np.add.at(Z, (rows, idx.ravel() % p), np.where(idx < p, lam, -lam).ravel())
        return vals, Z, Y

    def _lp_certificate(self, x: np.ndarray):
        from scipy.optimize import linprog

        p = self.columns.shape[1]
        if not np.any(x):
            return 0.0, np.zeros(p), np.zeros(self.dim)
        res = linprog(
            np.ones(2 * p),
            A_eq=self._signed,
            b_eq=x,
            bounds=(0, None),
            method="highs",
        )
        if res.status != 0 or res.x is None:
            raise UnboundedGaugeError(
                f"unbounded gauge: l1 coding LP failed (status {res.status})"
            )
        # HiGHS equality marginals are d(value)/d(x): the gauge's gradient
        return float(res.fun), res.x[:p] - res.x[p:], np.asarray(res.eqlin.marginals, dtype=float)

    def gauge_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self._facet_y is None:
            return self.gauge_certificate_many(points)[0]
        return np.concatenate(
            [np.max(points[rows] @ self._facet_y.T, axis=1) for rows in self._chunks(len(points))]
        )


class UnionBody(StarBody):
    """Union of star bodies; gauge is the minimum of the part gauges."""

    def __init__(self, parts) -> None:
        parts = list(parts)
        if not parts:
            raise ValueError("union requires at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError("union parts must share one dimension")
        self.dim = parts[0].dim
        self.parts = tuple(parts)

    def gauge_many(self, points: np.ndarray) -> np.ndarray:
        return np.minimum.reduce([p.gauge_many(points) for p in self.parts])

    def radial_many(self, dirs: np.ndarray) -> np.ndarray:
        return np.maximum.reduce([p.radial_many(dirs) for p in self.parts])


class DilateBody(StarBody):
    """Scaled copy factor*K of a base body."""

    def __init__(self, base: StarBody, factor: float) -> None:
        factor = float(factor)
        if not (factor > 0) or not math.isfinite(factor):
            raise ValueError("dilation factor must be positive and finite")
        self.dim = base.dim
        self.base = base
        self.factor = factor

    def gauge_many(self, points: np.ndarray) -> np.ndarray:
        return self.base.gauge_many(points) / self.factor

    def radial_many(self, dirs: np.ndarray) -> np.ndarray:
        return self.factor * self.base.radial_many(dirs)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def gauge(body: StarBody, x) -> float:
    """Gauge of x with respect to the body (module-level alias)."""
    return body.gauge(x)


def radial(body: StarBody, u) -> float:
    """Radial function of the body at the unit vector u."""
    return body.radial(u)


def radial_on_grid(body: StarBody, grid: SphericalGrid) -> np.ndarray:
    """Radial values at all grid nodes, with exact fast paths."""
    if body.dim != grid.dim:
        raise ValueError("body and grid dimension mismatch")
    if isinstance(body, RadialGridBody) and _same_grid(body.grid, grid):
        return body.radii.copy()
    if isinstance(body, DilateBody):
        return body.factor * radial_on_grid(body.base, grid)
    if isinstance(body, UnionBody):
        return np.maximum.reduce([radial_on_grid(p, grid) for p in body.parts])
    return body.radial_many(grid.nodes)


def _same_grid(a: SphericalGrid, b: SphericalGrid) -> bool:
    if a is b:
        return True
    if a.descriptor and a.descriptor == b.descriptor and a.descriptor.get("kind") != "explicit":
        return True
    return a.n == b.n and a.dim == b.dim and np.array_equal(a.nodes, b.nodes)


def volume(body: StarBody, grid: SphericalGrid) -> float:
    """Quadrature volume (1/d) * sum_j w_j * rho(u_j)^d."""
    rho = radial_on_grid(body, grid)
    return float(np.dot(grid.weights, rho**body.dim) / body.dim)


def dual_mixed_volume(K: StarBody, L: StarBody, i: float, grid: SphericalGrid) -> float:
    """Dual mixed volume V~_i(K, L) = (1/d) * integral of rho_K^i * rho_L^(d-i).

    Coincides with the volume of K when K = L, for every exponent i.
    """
    if K.dim != L.dim:
        raise ValueError("bodies must share one dimension")
    d = K.dim
    rho_k = radial_on_grid(K, grid)
    rho_l = radial_on_grid(L, grid)
    return float(np.dot(grid.weights, rho_k**i * rho_l ** (d - i)) / d)


def dilate(body: StarBody, factor: float) -> StarBody:
    """Dilate of a body; nested dilates are flattened."""
    if isinstance(body, DilateBody):
        return DilateBody(body.base, body.factor * factor)
    return DilateBody(body, factor)


def volume_normalize(body: StarBody, grid: SphericalGrid) -> StarBody:
    """Dilate the body so its quadrature volume is 1."""
    v = volume(body, grid)
    if not (v > 0) or not math.isfinite(v):
        raise NumericalFailure("cannot normalize a body of nonpositive volume")
    return dilate(body, v ** (-1.0 / body.dim))


def radial_distance(K: StarBody, L: StarBody, grid: SphericalGrid) -> float:
    """Sup-metric between radial functions, evaluated over grid nodes."""
    if K.dim != L.dim:
        raise ValueError("bodies must share one dimension")
    return float(np.max(np.abs(radial_on_grid(K, grid) - radial_on_grid(L, grid))))


def star_union(parts) -> StarBody:
    """Union body whose radial function is the pointwise maximum."""
    return UnionBody(parts)


def outer_radius_bound(r: float, d: int) -> float:
    """Outer-radius cap (d+1) / (r^(d-1) * kappa_{d-1}) for unit-volume bodies
    whose kernel contains r*B^d."""
    if r <= 0:
        raise ValueError("inner width r must be positive")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return (d + 1) / (r ** (d - 1) * unit_ball_volume(d - 1))


def harmonic_blaschke(K: StarBody, L: StarBody, grid: SphericalGrid) -> RadialGridBody:
    """Harmonic Blaschke combination of two star bodies.

    The result M is the unique star body with
    rho_M^(d+1) / vol(M) = rho_K^(d+1) / vol(K) + rho_L^(d+1) / vol(L);
    it is constructed by scaling g = (sum)^(1/(d+1)) with c = (1/d) * integral
    of g^d, which gives vol(M) = c^(d+1).
    """
    if K.dim != L.dim:
        raise ValueError("bodies must share one dimension")
    d = K.dim
    g = (
        radial_on_grid(K, grid) ** (d + 1) / volume(K, grid)
        + radial_on_grid(L, grid) ** (d + 1) / volume(L, grid)
    ) ** (1.0 / (d + 1))
    c = np.dot(grid.weights, g**d) / d
    return RadialGridBody(grid, c * g)


def support_function(body: StarBody, dirs: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Grid approximation of the support function, max_j rho_j * <u_j, u>.

    Diagnostic only; meaningful as a body descriptor just for convex bodies.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    rho = radial_on_grid(body, grid)
    return np.max((grid.nodes * rho[:, None]) @ dirs.T, axis=0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def body_to_dict(body: StarBody) -> dict:
    if isinstance(body, RadialGridBody):
        return {
            "type": "radial_grid",
            "dim": body.dim,
            "grid": grid_to_descriptor(body.grid),
            "radii": body.radii.tolist(),
        }
    if isinstance(body, EllipsoidBody):
        return {"type": "ellipsoid", "dim": body.dim, "matrix": body.matrix.tolist()}
    if isinstance(body, DictionaryPolytopeBody):
        return {"type": "dictionary", "dim": body.dim, "columns": body.columns.tolist()}
    if isinstance(body, UnionBody):
        return {
            "type": "union",
            "dim": body.dim,
            "parts": [body_to_dict(p) for p in body.parts],
        }
    if isinstance(body, DilateBody):
        return {
            "type": "dilate",
            "dim": body.dim,
            "base": body_to_dict(body.base),
            "factor": body.factor,
        }
    raise TypeError(f"unknown body type: {type(body).__name__}")


def body_from_dict(data: dict) -> StarBody:
    kind = data.get("type")
    if kind == "radial_grid":
        grid = grid_from_descriptor(data["grid"])
        return RadialGridBody(grid, np.asarray(data["radii"], dtype=float))
    if kind == "ellipsoid":
        return EllipsoidBody(np.asarray(data["matrix"], dtype=float))
    if kind == "dictionary":
        return DictionaryPolytopeBody(np.asarray(data["columns"], dtype=float))
    if kind == "union":
        return UnionBody([body_from_dict(p) for p in data["parts"]])
    if kind == "dilate":
        return DilateBody(body_from_dict(data["base"]), float(data["factor"]))
    raise ValueError(f"unknown body type in descriptor: {kind!r}")


def body_to_json(body: StarBody) -> str:
    return json.dumps(body_to_dict(body), sort_keys=True)


def body_from_json(text: str) -> StarBody:
    return body_from_dict(json.loads(text))
