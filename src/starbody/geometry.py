"""Star bodies and dual Brunn-Minkowski primitives.

A star body is a compact set, star-shaped about the origin, whose radial
function is positive and continuous.  This module provides the concrete
representations (radial grids, ellipsoids, linear images of the l1 ball,
unions, dilates), gauge and radial evaluation, spherical quadrature grids,
volumes and dual mixed volumes, the radial sup-metric, and the harmonic
Blaschke combination.

All grids and bodies are immutable after construction, and every operation
is pure and thread-safe: a grid caches its node lookup (SphericalGrid.cells)
on first use, and threads racing on that first use build identical copies.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

NODE_NORM_TOL = 1e-12
UNIT_INPUT_TOL = 1e-9
# Dictionary polytopes: bodies whose facet count could exceed this (upper
# bound theorem on their 2p vertices) use the per-point coding LP instead of
# a facet description.  Only d >= 3 can reach it (Qhull's facets); a planar
# body has at most 2p edges from the monotone chain.  Real hulls have far
# fewer facets than the bound: d = 8, p = 20 (bound 65450) has ~10^4 and
# builds in ~0.1 s on a 2-core x86 VM, about 50 coding LPs' worth.
MAX_HULL_FACETS = 100_000
# planar hulls: a point closer than this many ulps of the largest |coordinate|
# to the chord between its hull neighbours lies on that edge and is not a
# vertex.  Qhull's roundoff merge keeps points only beyond about 12-15 such
# ulps; the rounded boundary points of a polygon lie within about 3.
HULL_COLLINEAR_ULPS = 8
# relative gap within which facets count as active (tied) at a point
FACET_TIE_RTOL = 1e-10
# batched kernels (facet scores, IDW neighbours, the rho_empirical kernel) work
# in row blocks of about this many float64 entries; see row_blocks
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
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit Euclidean ball in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def _upper_bound_facets(n_vertices: int, dim: int) -> int:
    """Most facets of a simplicial dim-polytope with n_vertices vertices.

    McMullen's upper bound theorem (cyclic polytopes); it also bounds a
    triangulated hull's facets, since Qhull's triangulation (d >= 3) adds no
    vertices.  In d = 2 it is n, the edges of the monotone-chain polygon.
    """
    n, k = n_vertices, dim // 2
    if dim % 2 == 0:
        return n * math.comb(n - k, k) // (n - k)
    return 2 * math.comb(n - k - 1, k)


def row_blocks(n_rows: int, width: int) -> list:
    """Row slices whose (rows, width) blocks hold about CHUNK_ENTRIES entries.

    Every block has at least one row; n_rows = 0 gives one empty slice, so
    callers that concatenate per-block results always get an array.
    """
    step = max(1, CHUNK_ENTRIES // width)
    return [slice(i, i + step) for i in range(0, max(n_rows, 1), step)]


def facet_gauge(points: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max_f <y_f, x> for every row x of points, in row_blocks(n, len(y))."""
    blocks = row_blocks(len(points), len(y))
    return np.concatenate([np.max(points[rows] @ y.T, axis=1) for rows in blocks])


def hull_facet_gradients(points: np.ndarray, qhull_options: str | None = None):
    """Convex hull of points around the origin and its facet gradients.

    Each facet hyperplane <n_f, x> = b_f gives y_f = n_f / b_f, so the
    hull's gauge is max_f <y_f, x>.  Returns (vertices, simplices, y): the
    indices of the hull's vertices into points, each facet's d vertex
    indices (shape (F, d)) and y of shape (F, d).  In the plane the hull is
    Andrew's monotone chain in numpy and Python, with vertices in
    counter-clockwise order and facet f the edge from vertices[f] to the
    next vertex; in d >= 3 it is Qhull's (scipy.spatial.ConvexHull with
    qhull_options).  Collinear and repeated points are not vertices in
    either case.  Raises ValueError when there is no hull (too few or flat
    points) or when the origin is not interior to it (some b_f <= 0).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 2 and points.shape[1] == 2:
        return _planar_hull_facet_gradients(points)
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points, qhull_options=qhull_options)
    except QhullError as exc:
        raise ValueError(f"no convex hull: {str(exc).splitlines()[0]}") from None
    d = hull.points.shape[1]
    if np.any(hull.equations[:, d] >= 0):
        raise ValueError("the origin is not interior to the hull of the points")
    return hull.vertices, hull.simplices, _freeze(hull.equations[:, :d] / -hull.equations[:, d:])


def _planar_hull_facet_gradients(points: np.ndarray):
    if not np.isfinite(points).all():
        raise ValueError("no convex hull: the points must be finite")
    order = np.lexsort((points[:, 1], points[:, 0]))
    x, y = points[order, 0], points[order, 1]
    tol = HULL_COLLINEAR_ULPS * math.ulp(float(np.abs(points).max(initial=0.0)))
    # the upper chain is the lower chain of the points turned by 180 degrees
    lower = _lower_chain(x, y, tol)
    upper = len(x) - 1 - _lower_chain(-x[::-1], -y[::-1], tol)
    ring = np.concatenate([lower[:-1], upper[:-1]])
    if len(ring) < 3:
        raise ValueError("no convex hull: fewer than 3 points off one line")
    vertices = order[ring]
    # edge f runs counter-clockwise from p = vertices[f] to q = vertices[f + 1]:
    # outward normal (q_y - p_y, p_x - q_x), offset b = p_x q_y - p_y q_x,
    # positive iff the origin is on its left
    ends = np.append(vertices, vertices[0])
    simplices = np.column_stack([ends[:-1], ends[1:]])
    p, q = points[ends[:-1]], points[ends[1:]]
    b = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    if (b <= 0).any():
        raise ValueError("the origin is not interior to the hull of the points")
    normal = np.column_stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]])
    return vertices, simplices, _freeze(normal / b[:, None])


def _lower_chain(x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Positions of the lower hull chain of points sorted by (x, y).

    One stack pass: the middle point a of o -> a -> p stays only where the
    chain turns left by more than tol, measured as a's distance to the
    chord o -> p.
    """
    stack = []
    for k, (xk, yk) in enumerate(zip(x.tolist(), y.tolist())):
        while len(stack) > 1:
            _, ox, oy = stack[-2]
            _, ax, ay = stack[-1]
            dx, dy = xk - ox, yk - oy
            if (ax - ox) * dy - (ay - oy) * dx > tol * math.hypot(dx, dy):
                break
            stack.pop()
        stack.append((k, xk, yk))
    return np.array([s[0] for s in stack], dtype=int)


def _circle_cells(dirs: np.ndarray, n: int):
    """Angle cell of planar directions on n equally spaced angles.

    Returns the angle slot j0 at or below each direction's angle and the
    fraction in [0, 1) of the way to slot j0 + 1 (mod n).
    """
    theta = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * math.pi)
    t = theta * n / (2.0 * math.pi)
    return np.floor(t).astype(int) % n, t - np.floor(t)


def _pick_nodes(weights: np.ndarray, mass: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n node indices drawn with probability proportional to w_j * mass_j."""
    p = weights * mass
    p = p / p.sum()
    return rng.choice(len(weights), size=n, p=p)


class _AngleCells:
    """Angle cells of a planar grid whose nodes may come in any order.

    A direction reads the two nodes around its angle, linearly in angle.
    The sampler spreads each node drawn with weight w_j r_j^2 uniformly
    over the angle step centred on it.  Both presume equally spaced angles,
    so a grid whose sorted angles stray from 2 pi j / n by more than 1e-9
    raises ValueError.
    """

    width = 2

    def __init__(self, grid: SphericalGrid) -> None:
        self.angles = grid.angles()
        self.weights = grid.weights
        self.order = np.argsort(self.angles)  # node index of each angle slot
        step = 2.0 * math.pi / grid.n
        if np.max(np.abs(self.angles[self.order] - step * np.arange(grid.n))) > 1e-9:
            raise ValueError("dim-2 grid cells need equally spaced angles")

    def _slots(self, dirs: np.ndarray):
        j0, frac = _circle_cells(dirs, len(self.order))
        return j0, (j0 + 1) % len(self.order), frac

    def stencil(self, dirs: np.ndarray) -> np.ndarray:
        j0, j1, _ = self._slots(dirs)
        return self.order[np.column_stack([j0, j1])]

    def interpolate(self, values: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        j0, j1, frac = self._slots(dirs)
        r = values[self.order]
        return (1.0 - frac) * r[j0] + frac * r[j1]

    def sample(self, radii: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = _pick_nodes(self.weights, radii**2, n, rng)
        step = 2.0 * math.pi / len(self.angles)
        theta = self.angles[idx] + (rng.random(n) - 0.5) * step
        return np.column_stack([np.cos(theta), np.sin(theta)])


class _RingCells:
    """Cell arithmetic on a lobatto_sphere_grid.

    Its levels are the south pole, the rings and the north pole, ascending
    in t = cos(theta).  A cell lies between two adjacent levels and two
    adjacent azimuths; next to a pole two of its four corners are the pole.
    In (t, phi) every cell is a rectangle, and since the sphere's area
    element is dt dphi, a point uniform on that rectangle is uniform on the
    cell.
    """

    width = 4
    # a direction this close to an azimuth line, in cell widths, lies on it,
    # so that the nodes themselves interpolate to their own values exactly
    AZIMUTH_SNAP = 1e-10

    def __init__(self, grid: SphericalGrid) -> None:
        az = grid.descriptor["azimuths"]
        self.azimuths = az
        self.weights = grid.weights
        ring_index = np.arange(1, grid.n - 1).reshape(-1, az)
        # node index of (level, azimuth), with azimuth az repeating azimuth 0
        # and a pole filling its whole level row; a cell's corners are then
        # the flat positions c, c + 1, c + az + 1 and c + az + 2
        index = np.vstack([np.zeros(az, dtype=int), ring_index, np.full(az, grid.n - 1)])
        self.node_index = np.hstack([index, index[:, :1]]).ravel()
        self.levels = np.concatenate([[-1.0], grid.nodes[ring_index[:, 0], 2], [1.0]])
        self.theta = np.arccos(self.levels)

    def locate(self, dirs: np.ndarray):
        """Cells of unit directions and the corner weights within them.

        Returns each cell's flat position c (its lower-left corner, see
        __init__), the fraction in [0, 1] of the way from its lower level to
        its upper one, linear in theta, and the fraction in [0, 1) of the
        way from its first azimuth to the next.
        """
        t = np.clip(dirs[:, 2], -1.0, 1.0)
        i = np.clip(np.searchsorted(self.levels, t, side="right") - 1, 0, len(self.levels) - 2)
        j0, fp = _circle_cells(dirs, self.azimuths)
        # snapped onto the azimuth line above: j0 + 1 with fraction 0
        up = fp > 1.0 - self.AZIMUTH_SNAP
        fp[up | (fp < self.AZIMUTH_SNAP)] = 0.0
        return i * (self.azimuths + 1) + (j0 + up) % self.azimuths, self.level_fraction(i, t), fp

    def level_fraction(self, i: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Fraction of the way from level i to level i + 1 at cosine t,
        linear in theta."""
        return (self.theta[i] - np.arccos(t)) / (self.theta[i] - self.theta[i + 1])

    def corners(self, c: np.ndarray) -> np.ndarray:
        """Node indices of the cells' corners, shape (4, m): lower level at
        the first and next azimuth, then the upper level at both."""
        step = self.azimuths + 1
        return self.node_index[c + np.array([0, 1, step, step + 1])[:, None]]

    def _blend(self, values: np.ndarray, c, ft, fp) -> np.ndarray:
        """Node values interpolated linearly in phi, then linearly in theta."""
        v = values[self.corners(c)]
        lower = (1.0 - fp) * v[0] + fp * v[1]
        upper = (1.0 - fp) * v[2] + fp * v[3]
        return (1.0 - ft) * lower + ft * upper

    def stencil(self, dirs: np.ndarray) -> np.ndarray:
        return self.corners(self.locate(dirs)[0]).T

    def interpolate(self, values: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        return self._blend(values, *self.locate(dirs))

    def sample(self, radii: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """Directions whose density is exactly proportional to rho~^3, where
        rho~ interpolates the node radii.

        Rejection from a piecewise-uniform envelope: a cell is picked with
        probability proportional to dt dphi M^3, M its largest corner
        radius, a point is drawn uniformly in (t, phi) on it, which is
        uniform on the cell, and kept with probability (rho~(u) / M)^3 <= 1,
        since rho~ peaks at a corner of its cell.  Rounds are sized by the
        expected acceptance, sum_j w_j rho_j^3 over the envelope's mass.
        """
        az = self.azimuths
        level = np.repeat(np.arange(len(self.levels) - 1), az)
        corner = level * (az + 1) + np.tile(np.arange(az), len(self.levels) - 1)
        top = radii[self.corners(corner)].max(axis=0)
        dt = np.diff(self.levels)[level]
        envelope = dt * top**3
        acceptance = float(np.dot(self.weights, radii**3)) / (2.0 * math.pi / az * envelope.sum())
        p = envelope / envelope.sum()
        kept = []
        need = n
        while need > 0:
            m = int(need / min(acceptance, 1.0) * 1.05) + 16
            pick = rng.choice(len(p), size=m, p=p)
            t = self.levels[level[pick]] + rng.random(m) * dt[pick]
            fp = rng.random(m)
            rho = self._blend(radii, corner[pick], self.level_fraction(level[pick], t), fp)
            keep = rng.random(m) < (rho / top[pick]) ** 3
            phi = (pick[keep] % az + fp[keep]) * (2.0 * math.pi / az)
            s = np.sqrt(1.0 - t[keep] ** 2)
            kept.append(np.column_stack([s * np.cos(phi), s * np.sin(phi), t[keep]]))
            need -= len(kept[-1])
        return np.concatenate(kept)[:n]


class _NearestNodes:
    """The 8 nearest nodes of a direction, by a k-d tree built on first use.

    Values are the inverse-square-distance average over them, exact at a
    node.  The sampler moves each node drawn with weight w_j r_j^d by a
    Gaussian of half the node spacing, projected back onto the sphere, so
    it smears mass into neighbouring cells.
    """

    def __init__(self, grid: SphericalGrid) -> None:
        self.nodes = grid.nodes
        self.weights = grid.weights
        self.width = min(8, grid.n)

    @functools.cached_property
    def _tree(self):
        from scipy.spatial import cKDTree

        return cKDTree(self.nodes)

    def _query(self, dirs: np.ndarray):
        dist, idx = self._tree.query(dirs, k=self.width)
        return dist.reshape(len(dirs), self.width), idx.reshape(len(dirs), self.width)

    def stencil(self, dirs: np.ndarray) -> np.ndarray:
        return self._query(dirs)[1]

    def interpolate(self, values: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        out = np.empty(len(dirs))
        # each row's query and weights are independent, so blocks give the
        # same bytes while the (rows, k) temporaries stay bounded
        for rows in row_blocks(len(out), self.width):
            dist, idx = self._query(dirs[rows])
            block = out[rows]
            exact = dist[:, 0] < 1e-12
            block[exact] = values[idx[exact, 0]]
            rest = ~exact
            if np.any(rest):
                w = 1.0 / dist[rest] ** 2
                block[rest] = np.sum(w * values[idx[rest]], axis=1) / np.sum(w, axis=1)
        return out

    def sample(self, radii: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        n_nodes, d = self.nodes.shape
        idx = _pick_nodes(self.weights, radii**d, n, rng)
        spread = math.sqrt(sphere_surface_area(d) / n_nodes) / 2.0
        jittered = self.nodes[idx] + spread * rng.standard_normal((n, d))
        jittered /= np.linalg.norm(jittered, axis=1, keepdims=True)
        return jittered


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

    @functools.cached_property
    def cells(self):
        """The grid's node lookup, chosen once and cached on first use.

        Cell arithmetic on a lobatto3d product grid, angle cells in d = 2,
        the 8 nearest nodes otherwise.  Each scheme has `width` and
        stencil(dirs), the (rows, width) nodes a unit direction's
        interpolant reads; interpolate(values, dirs); and sample(radii, n,
        rng), directions with density proportional to rho^d for the node
        radii rho (a body's radii give the direction law of its uniform,
        gauge-induced and Gibbs laws, density.sample_polar).
        """
        if self.descriptor.get("kind") == "lobatto3d":
            return _RingCells(self)
        if self.dim == 2:
            return _AngleCells(self)
        return _NearestNodes(self)

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


@functools.cache
def _lobatto(npts: int):
    """Gauss-Lobatto nodes (ascending, ends -1 and 1) and weights on [-1, 1].

    The inner nodes are the roots of P'_{npts-1}; the weights are
    2 / (k (k + 1) P_k(t)^2) with k = npts - 1.  Exact for polynomials of
    degree 2 npts - 3.
    """
    k = npts - 1
    p_k = np.zeros(k + 1)
    p_k[k] = 1.0
    leg = np.polynomial.legendre
    t = np.concatenate([[-1.0], np.sort(leg.legroots(leg.legder(p_k))), [1.0]])
    w = 2.0 / (k * (k + 1) * leg.legval(t, p_k) ** 2)
    return _freeze(t), _freeze(w)


def lobatto_sphere_grid(rings: int, azimuths: int) -> SphericalGrid:
    """Product grid on S^2: Gauss-Lobatto levels in t = cos(theta) times
    uniform azimuths.

    The rule has rings + 2 Lobatto levels; the two end levels are the poles,
    each one node, and every inner level is a ring of `azimuths` nodes at
    phi_k = 2 pi k / azimuths.  Nodes run south pole, rings (ring-major, t
    ascending), north pole.  A ring node weighs its Lobatto weight times
    2 pi / azimuths and a pole its Lobatto weight times 2 pi, so the weights
    are positive and sum to 4 pi; the rule integrates exactly every
    spherical harmonic of degree below min(2 rings + 2, azimuths).
    """
    if rings < 1 or azimuths < 3:
        raise ValueError("need at least 1 ring of at least 3 azimuths")
    t, w = _lobatto(rings + 2)
    phi = 2.0 * math.pi * np.arange(azimuths) / azimuths
    s = np.sqrt(1.0 - t[1:-1] ** 2)
    ring = np.column_stack(
        [np.outer(s, np.cos(phi)).ravel(), np.outer(s, np.sin(phi)).ravel(), np.repeat(t[1:-1], azimuths)]
    )
    nodes = np.vstack([[0.0, 0.0, -1.0], ring, [0.0, 0.0, 1.0]])
    weights = np.concatenate(
        [[2.0 * math.pi * w[0]], np.repeat(w[1:-1] * (2.0 * math.pi / azimuths), azimuths), [2.0 * math.pi * w[-1]]]
    )
    return SphericalGrid(3, nodes, weights, {"kind": "lobatto3d", "rings": rings, "azimuths": azimuths})


def _ring_shape(n: int):
    """(rings R, azimuths A) of the product grid make_grid(3, n) builds.

    Among the balanced shapes, 9/10 <= A / (2 R) <= 10/9, it takes the one
    whose node count R A + 2 is nearest n, then the one with A / (2 R)
    nearest 1 (as a ratio either way), then the one with more azimuths.  A
    shape's own node count maps back to that shape, so the rule is
    idempotent.
    """
    best = None
    rings = 1
    while True:
        lo, hi = -(-18 * rings // 10), 20 * rings // 9  # 10 A >= 18 R, 9 A <= 20 R
        if best is not None and rings * lo - (n - 2) > best[0][0]:
            return best[1], best[2]  # every larger R only overshoots more
        q = (n - 2) // rings
        for az in {min(max(q, lo), hi), min(max(q + 1, lo), hi)}:
            if az >= 3:
                key = (abs(n - 2 - rings * az), max(az, 2 * rings) / min(az, 2 * rings), -az)
                if best is None or key < best[0]:
                    best = (key, rings, az)
        rings += 1


def _first_primes(k: int) -> np.ndarray:
    """The first k primes (k >= 1), sieved below Rosser's bound on the k-th."""
    limit = 15 if k < 6 else int(k * (math.log(k) + math.log(math.log(k)))) + 1
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(limit - 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return np.flatnonzero(sieve)[:k]


def low_discrepancy_sphere_grid(dim: int, n: int) -> SphericalGrid:
    """Quasi-uniform nodes on S^{dim-1} for dim >= 4, equal weights.

    Points 1..n of the unscrambled Halton sequence over the first dim primes
    (point 0 is the origin of the cube) are mapped coordinate-wise through
    the standard normal quantile Phi^{-1} and normalised onto the sphere.
    """
    from scipy.special import ndtri

    if dim < 4:
        raise ValueError("use the dedicated constructors for dim 2 and 3")
    u = np.empty((n, dim))
    for j, base in enumerate(_first_primes(dim)):
        # radical inverse, digit by digit as in SciPy's qmc.Halton
        seq = np.zeros(n)
        q = np.arange(1, n + 1)
        b2r = 1.0 / base
        while q.any():
            seq += (q % base) * b2r
            b2r /= base
            q //= base
        u[:, j] = seq
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    nodes = g / norms[:, None]
    weights = np.full(n, sphere_surface_area(dim) / n)
    return SphericalGrid(dim, nodes, weights, {"kind": "halton", "dim": dim, "n": n})


def make_grid(dim: int, n: int = 1024) -> SphericalGrid:
    """Default quadrature grid for the requested dimension.

    d = 2: n equally spaced angles.  d = 3: the product grid
    lobatto_sphere_grid(R, A) whose R rings of A azimuths (about twice as
    many azimuths as rings) give R A + 2 nodes nearest n; see _ring_shape
    for the rule.  2048 nodes are 31 x 66 + 2 and 1024 round to
    22 x 46 + 2 = 1014; a product grid's own node count gives it back.
    d >= 4: n Halton nodes.
    """
    if dim == 2:
        return uniform_circle_grid(n)
    if dim == 3:
        if n < 4:
            raise ValueError("need at least 4 nodes on the 2-sphere")
        return lobatto_sphere_grid(*_ring_shape(n))
    return low_discrepancy_sphere_grid(dim, n)


def grid_to_descriptor(grid: SphericalGrid) -> dict:
    if grid.descriptor.get("kind") in ("uniform2d", "lobatto3d", "halton"):
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
    if kind == "lobatto3d":
        return lobatto_sphere_grid(int(desc["rings"]), int(desc["azimuths"]))
    if kind == "fibonacci3d":
        raise ValueError(
            "'fibonacci3d' grids are no longer supported: d = 3 grids are 'lobatto3d' "
            "product grids; rebuild the body or profile on make_grid(3, n)"
        )
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

    Its radial function interpolates the radii through the grid's node
    lookup, SphericalGrid.cells, shared by every body on the grid: linear
    in angle in d = 2, linear in phi then in theta within a d = 3
    product-grid cell, and the inverse-square-distance average over the 8
    nearest nodes on any other grid (Halton in d >= 4, explicit node sets).
    Each is exact at the nodes.  The constructor builds the grid's cells,
    so a planar grid without equally spaced angles raises ValueError here.
    """

    def __init__(self, grid: SphericalGrid, radii) -> None:
        radii = _freeze(np.asarray(radii, dtype=float))
        if radii.shape != (grid.n,):
            raise ValueError("radii must align with grid nodes")
        if np.any(radii <= 0) or not np.all(np.isfinite(radii)):
            raise ValueError("radial values must be positive and finite")
        grid.cells  # validates the node layout the interpolant relies on
        self.dim = grid.dim
        self.grid = grid
        self.radii = radii

    def gauge_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        norms = np.linalg.norm(points, axis=1)
        out = np.zeros(points.shape[0])
        nz = norms > 0
        if np.any(nz):
            dirs = points[nz] / norms[nz, None]
            out[nz] = norms[nz] / self.grid.cells.interpolate(self.radii, dirs)
        return out

    def radial_many(self, dirs: np.ndarray) -> np.ndarray:
        return self.grid.cells.interpolate(self.radii, np.asarray(dirs, dtype=float))


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
    facet description once (hull_facet_gradients: the edges of Andrew's
    monotone chain in d = 2, Qhull's triangulated facets in d >= 3) and the
    gauge is the closed form max_f <y_f, x> with y_f = n_f / b_f for the
    facet hyperplanes <n_f, x> = b_f.  A body in R^1 is the interval
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
            _, self._facet_vertices, self._facet_y = hull_facet_gradients(self._signed.T, "Qt")
        if self._facet_y is not None:
            # Qt may split a non-simplicial facet into some zero-volume
            # simplices; they keep their facet's hyperplane but cannot carry a
            # code z, so they are never chosen to solve for one
            verts = self._signed[:, self._facet_vertices].transpose(1, 0, 2)
            hadamard = np.prod(np.linalg.norm(verts, axis=1), axis=1)
            self._facet_solvable = np.abs(np.linalg.det(verts)) > 1e-12 * hadamard

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
            blocks = row_blocks(len(points), len(self._facet_y))
            chunks = [self._facet_certificates(points[rows]) for rows in blocks]
            vals = np.concatenate([c[0] for c in chunks])
            Z = np.concatenate([c[1] for c in chunks])
            Y = np.concatenate([c[2] for c in chunks])
        resid = np.linalg.norm(Z @ self.columns.T - points, axis=1)
        if np.any(resid > CODING_FEAS_TOL * (1.0 + np.linalg.norm(points, axis=1))):
            raise UnboundedGaugeError("l1 coding violated feasibility tolerance")
        return vals, Z, Y

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
        return facet_gauge(points, self._facet_y)


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
