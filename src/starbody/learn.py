"""Empirical risk minimization over parametric star-body families.

Fitters for ellipsoids (projected gradient on the inverse-square matrix),
dictionary polytopes (alternating facet-based sparse coding and dictionary
descent), and unions of ellipsoids (min-gauge EM), plus the validation
experiments: convergence to the population optimum, a uniform
law-of-large-numbers probe, noise robustness against the smoothing bound,
and train/held-out generalization gaps.

Every fitter records a non-increasing risk trace (backtracking rejects any
step that does not descend) and keeps the fitted body's minimal radius at or
above the configured inner width floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from starbody.density import (
    DensitySpec,
    GaussianDensity,
    SampleSet,
    expected_gauge,
    rho_analytic,
    sample_density,
)
from starbody.geometry import (
    DictionaryPolytopeBody,
    EllipsoidBody,
    NumericalFailure,
    SphericalGrid,
    StarBody,
    UnionBody,
    body_to_dict,
    dual_mixed_volume,
    make_grid,
    radial_distance,
    radial_on_grid,
    unit_ball_volume,
    volume,
)
from starbody.optimizer import optimal_body

_FAMILIES = ("ellipsoid", "dictionary", "union_ellipsoids")


@dataclass(frozen=True)
class FitConfig:
    """Family selection and optimization knobs shared by all fitters.

    inner_width_floor is the well-conditioning radius r: every fitted body
    keeps min_u rho(u) >= r.  p (dictionary columns) and L (union parts)
    only apply to their families.  volume_normalization controls whether
    ellipsoid-family results are returned at unit volume; the dictionary
    class is pinned to unit columns instead and ignores it.
    """

    family: str = "ellipsoid"
    max_iters: int = 60
    step_size: float = 0.5
    inner_width_floor: float = 1e-3
    volume_normalization: bool = True
    seed: int = 0
    p: int | None = None
    L: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (self.inner_width_floor > 0):
            raise ValueError("inner width floor must be positive")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if not (self.step_size > 0):
            raise ValueError("step size must be positive")
        if self.p is not None and self.p < 1:
            raise ValueError("dictionary needs at least one column")
        if self.L is not None and self.L < 1:
            raise ValueError("union needs at least one part")

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "max_iters": self.max_iters,
            "step_size": self.step_size,
            "inner_width_floor": self.inner_width_floor,
            "volume_normalization": self.volume_normalization,
            "seed": self.seed,
            "p": self.p,
            "L": self.L,
        }


@dataclass(frozen=True)
class RiskReport:
    """Outcome of one fit: body, monotone risk trace, optional risk splits."""

    body: StarBody
    risk_trace: tuple
    final_risk: float
    config: FitConfig
    held_out_risk: float | None = None
    population_risk: float | None = None
    events: tuple = ()

    @property
    def gap(self) -> float | None:
        if self.held_out_risk is None:
            return None
        return abs(self.final_risk - self.held_out_risk)

    def to_dict(self) -> dict:
        return {
            "body": body_to_dict(self.body),
            "risk_trace": list(self.risk_trace),
            "final_risk": self.final_risk,
            "held_out_risk": self.held_out_risk,
            "population_risk": self.population_risk,
            "gap": self.gap,
            "events": list(self.events),
            "config": self.config.to_dict(),
        }


def _clean_points(samples: SampleSet) -> np.ndarray:
    """Sample matrix with zero rows dropped (they add nothing to the risk)."""
    pts = samples.points
    norms = np.linalg.norm(pts, axis=1)
    return pts[norms > 0]


# ---------------------------------------------------------------------------
# Ellipsoid family
# ---------------------------------------------------------------------------


def _det_normalize(mat: np.ndarray) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise ValueError("matrix must be positive definite")
    return mat * math.exp(-logdet / mat.shape[0])


def _project_m(mat: np.ndarray, eig_cap: float):
    """Symmetrize, cap eigenvalues (gauge floor), renormalize det to 1."""
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    clipped = np.clip(vals, 1e-14, eig_cap)
    capped = bool(np.any(vals > eig_cap * (1 + 1e-12)))
    mat = (vecs * clipped) @ vecs.T
    return _det_normalize(mat), capped


def _ellipsoid_from_m(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * vals**-0.5) @ vecs.T


def _floor_axes(axes: np.ndarray, floor: float, det_target: float) -> np.ndarray:
    """Raise semi-axes to the floor, rescaling the rest to keep the volume."""
    if floor**len(axes) > det_target * (1 + 1e-9):
        raise ValueError("inner width floor is incompatible with the body volume")
    axes = axes.copy()
    for _ in range(len(axes) + 1):
        low = axes < floor
        if not low.any():
            break
        axes[low] = floor
        free = ~low
        if not free.any():
            break
        ratio = det_target / np.prod(axes[low])
        axes[free] *= (ratio / np.prod(axes[free])) ** (1.0 / free.sum())
    return axes


def fit_ellipsoid(
    samples: SampleSet, cfg: FitConfig, init: EllipsoidBody | None = None
) -> RiskReport:
    """Minimize mean ||A^{-1} x||_2 over symmetric A with det A = 1.

    Projected gradient on M = A^{-2}: gradient step, eigenvalue cap
    enforcing the inner width floor, determinant renormalization, and a
    backtracking line search that only accepts descent.  The default
    initialization inverts the sample second-moment matrix; pass `init` to
    warm-start.  With volume_normalization the returned ellipsoid is scaled
    to unit volume and the risk trace is reported in that same scale.
    """
    X = _clean_points(samples)
    m, d = samples.m, samples.dim
    if m < d:
        raise ValueError("need at least d samples")
    if X.shape[0] < d or np.linalg.matrix_rank(X) < d:
        raise ValueError("rank-deficient sample matrix")

    kd = unit_ball_volume(d)
    scale_out = kd ** (1.0 / d) if cfg.volume_normalization else 1.0
    # the floor applies to the returned body; translate it to det A = 1 scale
    floor_det1 = cfg.inner_width_floor * scale_out
    eig_cap = 1.0 / floor_det1**2

    events = []

    def risk(mat: np.ndarray) -> float:
        q = np.einsum("ij,jk,ik->i", X, mat, X)
        return float(np.sum(np.sqrt(q)) / m)

    if init is not None:
        if not isinstance(init, EllipsoidBody):
            raise TypeError("init must be an EllipsoidBody")
        inv = np.linalg.inv(init.matrix)
        M = inv @ inv
    else:
        M = np.linalg.inv(X.T @ X / X.shape[0])
    M, capped = _project_m(M, eig_cap)
    if capped:
        events.append("eigenvalue floor hit at initialization")

    trace = [risk(M)]
    step = cfg.step_size
    for _ in range(cfg.max_iters):
        q = np.sqrt(np.einsum("ij,jk,ik->i", X, M, X))
        grad = (X / (2.0 * q)[:, None]).T @ X / m
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-15:
            break
        direction = grad * (np.linalg.norm(M) / gnorm)
        eta, accepted = step, False
        for _ in range(30):
            cand, capped = _project_m(M - eta * direction, eig_cap)
            val = risk(cand)
            if val < trace[-1] - 1e-14:
                M, accepted = cand, True
                if capped:
                    events.append("eigenvalue floor hit during descent")
                trace.append(val)
                break
            eta *= 0.5
        if not accepted:
            break
        if len(trace) > 2 and trace[-2] - trace[-1] < 1e-12 * max(trace[0], 1e-12):
            break

    A = _ellipsoid_from_m(M) / scale_out
    det_target = np.prod(np.linalg.eigvalsh(A))
    axes = np.linalg.eigvalsh(A)
    if axes.min() < cfg.inner_width_floor - 1e-12:
        vals, vecs = np.linalg.eigh(A)
        vals = _floor_axes(vals, cfg.inner_width_floor, det_target)
        A = (vecs * vals) @ vecs.T
        events.append("inner width floor enforced on the final body")
    body = EllipsoidBody(A)
    scale_trace = scale_out if cfg.volume_normalization else 1.0
    trace = [t * scale_trace for t in trace]
    return RiskReport(
        body=body,
        risk_trace=tuple(trace),
        final_risk=trace[-1],
        config=cfg,
        events=tuple(events),
    )


# ---------------------------------------------------------------------------
# Dictionary family
# ---------------------------------------------------------------------------


def _spread_columns(X: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    """p unit columns seeded by maximally spread sample directions.

    Spread is measured sign-insensitively (columns act projectively in the
    polytope), starting from the largest sample.
    """
    norms = np.linalg.norm(X, axis=1)
    U = X / norms[:, None]
    chosen = [int(np.argmax(norms))]
    while len(chosen) < p:
        coherence = np.abs(U @ U[chosen].T).max(axis=1)
        coherence[chosen] = np.inf
        nxt = int(np.argmin(coherence))
        if not np.isfinite(coherence[nxt]):
            nxt = int(rng.integers(len(U)))
        chosen.append(nxt)
    return U[chosen].T.copy()


def fit_dictionary(samples: SampleSet, cfg: FitConfig) -> RiskReport:
    """Alternating minimization of the mean dictionary-polytope gauge.

    Sparse coding takes each sample's minimal l1 code z and gauge
    subgradient y from the body's facet description; the dictionary step
    descends along the averaged sensitivity -y z^T, then renormalizes every
    column to unit Euclidean norm (the hypothesis class is unit-column
    dictionaries, so no volume normalization applies).  Degenerate
    dictionaries are repaired by reseeding a column from the samples, and
    every repair is recorded.  A candidate whose codes fail numerically is
    a rejected step: the step size halves and an event is recorded.
    """
    X = _clean_points(samples)
    d = samples.dim
    p = cfg.p if cfg.p is not None else 2 * d
    if p < d:
        raise ValueError("need p >= d dictionary columns")
    if samples.m < p:
        raise ValueError("need at least p samples")
    if X.shape[0] < d or np.linalg.matrix_rank(X) < d:
        raise ValueError("rank-deficient sample matrix")

    m = samples.m
    rng = np.random.default_rng(cfg.seed)
    probe = make_grid(d, 256)
    events = []

    def repair(A: np.ndarray) -> np.ndarray:
        # replace the weakest column until the polytope has full width
        for _ in range(p):
            width = np.abs(probe.nodes @ A).max(axis=1).min()
            if width > 1e-6 and np.linalg.svd(A, compute_uv=False)[-1] > 1e-8:
                return A
            j = int(np.argmin(np.linalg.norm(A, axis=0)))
            u = X[rng.integers(len(X))]
            A = A.copy()
            A[:, j] = u / np.linalg.norm(u)
            events.append(f"reseeded degenerate column {j}")
        return A

    A = repair(_spread_columns(X, p, rng))
    body = DictionaryPolytopeBody(A)
    vals, Z, Y = body.gauge_certificate_many(X)
    trace = [float(vals.sum() / m)]

    for _ in range(cfg.max_iters):
        grad = -(Y.T @ Z) / m
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-14:
            break
        direction = grad * (np.linalg.norm(A) / gnorm)
        eta, accepted = cfg.step_size, False
        for _ in range(8):
            cand = A - eta * direction
            cand /= np.linalg.norm(cand, axis=0, keepdims=True)
            cand = repair(cand)
            cand_body = DictionaryPolytopeBody(cand)
            try:
                cand_vals, cand_Z, cand_Y = cand_body.gauge_certificate_many(X)
            except NumericalFailure as exc:
                events.append(f"rejected candidate at step size {eta:.3g}: {exc}")
                eta *= 0.5
                continue
            val = float(cand_vals.sum() / m)
            if val < trace[-1] - 1e-14:
                A, body = cand, cand_body
                vals, Z, Y = cand_vals, cand_Z, cand_Y
                trace.append(val)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break

    if radial_on_grid(body, probe).min() < cfg.inner_width_floor - 1e-9:
        events.append("inner width floor not reachable in the unit-column class")
    return RiskReport(
        body=body,
        risk_trace=tuple(trace),
        final_risk=trace[-1],
        config=cfg,
        events=tuple(events),
    )


def dictionary_width_bound(body: DictionaryPolytopeBody, grid: SphericalGrid):
    """(eta/sqrt(p), min_u ||A^T u||_inf): class inner-width bound and value."""
    A = body.columns
    eta = math.sqrt(float(np.linalg.eigvalsh(A @ A.T).min()))
    width = float(np.abs(grid.nodes @ A).max(axis=1).min())
    return eta / math.sqrt(A.shape[1]), width


# ---------------------------------------------------------------------------
# Union-of-ellipsoids family
# ---------------------------------------------------------------------------


def _directional_seeds(X: np.ndarray, L: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding on sample directions, sign-insensitive."""
    U = X / np.linalg.norm(X, axis=1)[:, None]
    seeds = [U[rng.integers(len(U))]]
    while len(seeds) < L:
        # 1 - cos^2 rounds below zero for a direction equal to a seed
        dist = np.maximum(1.0 - np.abs(U @ np.array(seeds).T).max(axis=1) ** 2, 0.0)
        total = dist.sum()
        if total <= 0:
            seeds.append(U[rng.integers(len(U))])
            continue
        seeds.append(U[rng.choice(len(U), p=dist / total)])
    return np.array(seeds)


def fit_union_ellipsoids(
    samples: SampleSet, cfg: FitConfig, grid: SphericalGrid | None = None
) -> RiskReport:
    """EM on the min-gauge objective over L-part ellipsoid unions.

    Samples are assigned to their minimal-gauge part (ties to the lowest
    index), each part is refitted on its cluster warm-started from its
    current matrix, and the union objective (mean of min gauges, parts at
    det 1) is recorded after every round; the final union is volume
    normalized by quadrature when requested.  L = 1 delegates exactly to
    fit_ellipsoid.  Emptied clusters reseed from the worst-fit samples.
    """
    L = cfg.L if cfg.L is not None else 2
    if L == 1:
        return fit_ellipsoid(samples, replace(cfg, family="ellipsoid", L=None))
    X = _clean_points(samples)
    d = samples.dim
    if samples.m < L * d:
        raise ValueError("need at least L*d samples")
    if grid is None:
        grid = make_grid(d)
    rng = np.random.default_rng(cfg.seed)
    events = []
    inner_cfg = replace(
        cfg, family="ellipsoid", volume_normalization=False, L=None, max_iters=max(cfg.max_iters, 10)
    )

    seeds = _directional_seeds(X, L, rng)
    assign = np.abs(X / np.linalg.norm(X, axis=1)[:, None] @ seeds.T).argmax(axis=1)

    def second_moment_part(pts: np.ndarray) -> np.ndarray:
        S = pts.T @ pts / len(pts) + 1e-12 * np.eye(d)
        return _ellipsoid_from_m(_det_normalize(np.linalg.inv(S)))

    def refit(pts: np.ndarray, current: np.ndarray | None) -> np.ndarray:
        init = EllipsoidBody(current) if current is not None else None
        try:
            report = fit_ellipsoid(SampleSet(d, pts), inner_cfg, init=init)
        except ValueError:
            return current if current is not None else np.eye(d)
        return report.body.matrix

    parts = []
    for ell in range(L):
        pts = X[assign == ell]
        parts.append(second_moment_part(pts) if len(pts) > d else np.eye(d))

    def gauges(mats) -> np.ndarray:
        g = np.empty((len(mats), len(X)))
        for j, A in enumerate(mats):
            g[j] = np.linalg.norm(X @ np.linalg.inv(A).T, axis=1)
        return g

    G = gauges(parts)
    trace = [float(G.min(axis=0).mean())]
    assign = G.argmin(axis=0)  # argmin takes the lowest index on ties

    for _ in range(cfg.max_iters):
        new_parts = list(parts)
        for ell in range(L):
            pts = X[assign == ell]
            if len(pts) < d + 1:
                worst = np.argsort(G.min(axis=0))[-(d + 1) :]
                new_parts[ell] = second_moment_part(X[worst])
                events.append(f"reseeded empty part {ell} from worst-fit samples")
                continue
            new_parts[ell] = refit(pts, parts[ell])
        G_new = gauges(new_parts)
        val = float(G_new.min(axis=0).mean())
        if val > trace[-1] + 1e-12:
            break  # a reseed made things worse; keep the previous state
        parts, G = new_parts, G_new
        trace.append(val)
        new_assign = G.argmin(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    scale = 1.0
    if cfg.volume_normalization:
        union = UnionBody([EllipsoidBody(A) for A in parts])
        scale = volume(union, grid) ** (-1.0 / d)
    body = UnionBody([EllipsoidBody(A * scale) for A in parts])
    trace = [t / scale for t in trace]

    # Single ellipsoids are members of the union class; if specialization
    # did not pay for the volume its overlap costs, collapse to the best
    # single-part solution rather than return a worse body.
    single = fit_ellipsoid(samples, replace(cfg, family="ellipsoid", L=None))
    if single.final_risk < trace[-1] - 1e-12:
        body = UnionBody([single.body] * L)
        trace.append(single.final_risk)
        events.append("collapsed to the single-part solution")

    return RiskReport(
        body=body,
        risk_trace=tuple(trace),
        final_risk=trace[-1],
        config=cfg,
        events=tuple(events),
    )


def fit(samples: SampleSet, cfg: FitConfig) -> RiskReport:
    """Dispatch to the configured family's fitter."""
    if cfg.family == "ellipsoid":
        return fit_ellipsoid(samples, cfg)
    if cfg.family == "dictionary":
        return fit_dictionary(samples, cfg)
    return fit_union_ellipsoids(samples, cfg)


# ---------------------------------------------------------------------------
# Validation experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Radial distances of fitted bodies to the population optimum per m."""

    m_schedule: tuple
    distances: tuple
    reports: tuple
    population_body: StarBody
    seed: int

    def to_dict(self) -> dict:
        return {
            "m_schedule": list(self.m_schedule),
            "distances": list(self.distances),
            "final_risks": [r.final_risk for r in self.reports],
            "population_body": body_to_dict(self.population_body),
            "seed": self.seed,
        }


def convergence_experiment(
    spec: DensitySpec,
    family,
    m_schedule,
    seed: int = 0,
    grid: SphericalGrid | None = None,
    population: StarBody | None = None,
) -> ConvergenceReport:
    """Fit on fresh samples for each m; record distance to the optimum.

    The population optimum defaults to the analytic pipeline's k_star for
    the spec.  Each arm draws from its own child seed, so the series is
    reproducible bit for bit regardless of schedule order.
    """
    cfg = family if isinstance(family, FitConfig) else FitConfig(family=family, seed=seed)
    m_schedule = [int(m) for m in m_schedule]
    if grid is None:
        grid = make_grid(spec.dim)
    if population is None:
        population = optimal_body(rho_analytic(spec, grid)).k_star
    l_p = rho_analytic(spec, grid).body()
    children = np.random.SeedSequence(seed).spawn(len(m_schedule))
    reports, distances = [], []
    for m, child in zip(m_schedule, children):
        samples = sample_density(spec, int(m), seed=np.random.default_rng(child))
        report = fit(samples, cfg)
        pop_risk = spec.dim * dual_mixed_volume(report.body, l_p, -1.0, grid)
        report = replace(report, population_risk=pop_risk)
        reports.append(report)
        distances.append(radial_distance(report.body, population, grid))
    return ConvergenceReport(
        m_schedule=tuple(m_schedule),
        distances=tuple(distances),
        reports=tuple(reports),
        population_body=population,
        seed=seed,
    )


def lln_probe(
    spec: DensitySpec,
    bodies,
    m_schedule,
    seed: int = 0,
    grid: SphericalGrid | None = None,
):
    """sup over a finite body family of |F(K;P_m) - F(K;P)| for each m.

    The population risk comes from the dual-mixed-volume identity against
    the spec's analytic radial statistic, so only the empirical side is
    random.  Returns the per-m sup deviations.
    """
    bodies = list(bodies)
    m_schedule = [int(m) for m in m_schedule]
    if grid is None:
        grid = make_grid(spec.dim)
    l_p = rho_analytic(spec, grid).body()
    pop = np.array([spec.dim * dual_mixed_volume(K, l_p, -1.0, grid) for K in bodies])
    children = np.random.SeedSequence(seed).spawn(len(m_schedule))
    sups = []
    for m, child in zip(m_schedule, children):
        pts = sample_density(spec, m, seed=np.random.default_rng(child)).points
        emp = np.array([K.gauge_many(pts).mean() for K in bodies])
        sups.append(float(np.abs(emp - pop).max()))
    return {"m_schedule": m_schedule, "sup_deviations": sups}


def gaussian_norm_mean(dim: int) -> float:
    """E||z||_2 for a standard Gaussian: sqrt(2) Gamma((d+1)/2) / Gamma(d/2)."""
    return math.sqrt(2.0) * math.exp(gammaln((dim + 1) / 2.0) - gammaln(dim / 2.0))


@dataclass(frozen=True)
class NoiseReport:
    """Per-sigma sup deviations against the smoothing bound."""

    sigmas: tuple
    sup_deviations: tuple
    bounds: tuple
    slacks: tuple
    within_bound: tuple
    r: float
    m: int
    noise_norm_mean: float

    def to_dict(self) -> dict:
        return {
            "sigmas": list(self.sigmas),
            "sup_deviations": list(self.sup_deviations),
            "bounds": list(self.bounds),
            "slacks": list(self.slacks),
            "within_bound": list(self.within_bound),
            "r": self.r,
            "m": self.m,
            "noise_norm_mean": self.noise_norm_mean,
        }


def noise_robustness(
    spec: DensitySpec,
    bodies,
    sigma_list,
    noise: DensitySpec,
    m: int,
    seed: int = 0,
    r: float = 0.5,
    grid: SphericalGrid | None = None,
) -> NoiseReport:
    """Compare sup_K |F(K;P_m) - F(K;(P*Q_sigma)_m)| to sigma E||z|| / r.

    The clean and noisy empirical risks share the same draws (coupled), so
    sigma = 0 deviates by exactly zero and the per-sigma Monte Carlo slack
    is the standard error of the paired gauge differences.  Every body must
    contain r B^d.
    """
    bodies = list(bodies)
    if grid is None:
        grid = make_grid(spec.dim)
    for K in bodies:
        if radial_on_grid(K, grid).min() < r - 1e-9:
            raise ValueError("body violates the inner width precondition")
    ss = np.random.SeedSequence(seed).spawn(2)
    X = sample_density(spec, m, seed=np.random.default_rng(ss[0])).points
    Z = sample_density(noise, m, seed=np.random.default_rng(ss[1])).points
    if isinstance(noise, GaussianDensity) and noise.centered and np.allclose(
        noise.covariance, np.eye(spec.dim)
    ):
        e_norm = gaussian_norm_mean(spec.dim)
    else:
        e_norm = float(np.linalg.norm(Z, axis=1).mean())

    sups, bounds, slacks, ok = [], [], [], []
    for sigma in sigma_list:
        devs, ses = [], []
        for K in bodies:
            diff = K.gauge_many(X + sigma * Z) - K.gauge_many(X)
            devs.append(abs(float(diff.mean())))
            ses.append(float(diff.std() / math.sqrt(m)))
        sup = max(devs)
        slack = 4.0 * max(ses)
        bound = sigma * e_norm / r
        sups.append(sup)
        bounds.append(bound)
        slacks.append(slack)
        ok.append(sup <= bound + slack)
    return NoiseReport(
        sigmas=tuple(float(s) for s in sigma_list),
        sup_deviations=tuple(sups),
        bounds=tuple(bounds),
        slacks=tuple(slacks),
        within_bound=tuple(ok),
        r=r,
        m=m,
        noise_norm_mean=e_norm,
    )


@dataclass(frozen=True)
class GenGapReport:
    """Train/held-out gaps per m and the log-log rate of their means."""

    m_list: tuple
    mean_gaps: tuple
    quantile_gaps: tuple
    gaps: tuple
    slope: float
    gamma: float
    trials: int
    family: str

    @property
    def slope_in_range(self) -> bool:
        return -0.65 <= self.slope <= -0.35

    def to_dict(self) -> dict:
        return {
            "m_list": list(self.m_list),
            "mean_gaps": list(self.mean_gaps),
            "quantile_gaps": list(self.quantile_gaps),
            "gaps": [list(g) for g in self.gaps],
            "slope": self.slope,
            "slope_in_range": self.slope_in_range,
            "gamma": self.gamma,
            "trials": self.trials,
            "family": self.family,
        }


def generalization_gap(
    family,
    spec: DensitySpec,
    m_list,
    gamma: float = 0.1,
    seed: int = 0,
    trials: int = 10,
    held_out_factor: int = 10,
) -> GenGapReport:
    """Train/held-out risk gaps across sample sizes and their rate shape.

    For each m and trial, fit on m fresh samples and evaluate on
    held_out_factor * m held-out samples; gap = |train - held-out|.  The
    slope of log mean-gap against log m summarizes the rate; gamma picks
    the reported high quantile of the per-trial gaps.
    """
    if not (0 < gamma < 1):
        raise ValueError("gamma must lie in (0, 1)")
    cfg = family if isinstance(family, FitConfig) else FitConfig(family=family, seed=seed)
    m_list = [int(m) for m in m_list]
    children = np.random.SeedSequence(seed).spawn(len(m_list) * trials * 2)
    gaps = []
    for i, m in enumerate(m_list):
        row = []
        for t in range(trials):
            train_child = children[2 * (i * trials + t)]
            held_child = children[2 * (i * trials + t) + 1]
            train = sample_density(spec, m, seed=np.random.default_rng(train_child))
            held = sample_density(
                spec, held_out_factor * m, seed=np.random.default_rng(held_child)
            )
            report = fit(train, cfg)
            held_risk = expected_gauge(report.body, held)
            row.append(abs(report.final_risk - held_risk))
        gaps.append(tuple(row))
    mean_gaps = [float(np.mean(row)) for row in gaps]
    quantile_gaps = [float(np.quantile(row, 1.0 - gamma)) for row in gaps]
    slope = float(np.polyfit(np.log(m_list), np.log(mean_gaps), 1)[0])
    return GenGapReport(
        m_list=tuple(m_list),
        mean_gaps=tuple(mean_gaps),
        quantile_gaps=tuple(quantile_gaps),
        gaps=tuple(gaps),
        slope=slope,
        gamma=gamma,
        trials=trials,
        family=cfg.family,
    )


__all__ = [
    "ConvergenceReport",
    "FitConfig",
    "GenGapReport",
    "NoiseReport",
    "RiskReport",
    "convergence_experiment",
    "dictionary_width_bound",
    "fit",
    "fit_dictionary",
    "fit_ellipsoid",
    "fit_union_ellipsoids",
    "gaussian_norm_mean",
    "generalization_gap",
    "lln_probe",
    "noise_robustness",
]
