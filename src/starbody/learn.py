"""Empirical risk minimization over parametric star-body families.

Fitters for ellipsoids (majorize-minimize on the inverse-square matrix),
dictionary polytopes (alternating facet-based sparse coding and dictionary
descent), and unions of ellipsoids (min-gauge EM with one majorize-minimize
step per part and round), plus the validation experiments: convergence to
the population optimum, a uniform law-of-large-numbers probe, noise
robustness against the smoothing bound, and train/held-out generalization
gaps.

Every fitter records a non-increasing risk trace and keeps the fitted body's
minimal radius at or above the configured inner width floor.  The
ellipsoid-family steps descend by construction; the dictionary step
backtracks until it descends.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

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
    make_grid,
    radial_distance,
    radial_on_grid,
    unit_ball_volume,
    volume,
)
from starbody.optimizer import optimal_body

_FAMILIES = ("ellipsoid", "dictionary", "union_ellipsoids")
# the dictionary descent's first trial step, halved until the step descends
FIRST_TRIAL_STEP = 0.5


@dataclass(frozen=True)
class FitConfig:
    """Family selection and optimization knobs shared by all fitters.

    max_iters bounds the iterations of every family.  inner_width_floor is
    the well-conditioning radius r: the ellipsoid and union fits keep
    min_u rho(u) >= r through an eigenvalue cap, while the dictionary class
    is pinned to unit columns instead, so there the floor only adds an
    event when the fitted body falls below it.  seed drives the union's
    directional seeding; a dictionary fit draws from it only where a column
    must be seeded from a random sample (a degenerate column), and the
    ellipsoid fit does not use it.  p (dictionary columns, default 2d) and
    L (union parts, default 2) only apply to their families.  Ellipsoid and
    union fits return unit-volume bodies.
    """

    family: str = "ellipsoid"
    max_iters: int = 60
    inner_width_floor: float = 1e-3
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
        if self.p is not None and self.p < 1:
            raise ValueError("dictionary needs at least one column")
        if self.L is not None and self.L < 1:
            raise ValueError("union needs at least one part")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RiskReport:
    """Outcome of one fit: body, monotone risk trace, optional population risk."""

    body: StarBody
    risk_trace: tuple
    final_risk: float
    config: FitConfig
    population_risk: float | None = None
    events: tuple = ()

    def to_dict(self) -> dict:
        return {
            "body": body_to_dict(self.body),
            "risk_trace": list(self.risk_trace),
            "final_risk": self.final_risk,
            "population_risk": self.population_risk,
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


def _water_fill(S: np.ndarray, eig_cap: float):
    """argmin tr(M S) over det M = 1 with every eigenvalue of M <= eig_cap.

    M shares S's eigenvectors, with lambda_i = min(eig_cap, c / s_i) and c
    fixed by sum log lambda_i = 0; an eigenvalue s_i <= 0 (a rank-deficient
    S) is always capped.  Returns M and whether the cap is active.
    """
    d = S.shape[0]
    log_cap = math.log(eig_cap)
    if log_cap < 0:
        raise ValueError("inner width floor is incompatible with the body volume")
    s, vecs = np.linalg.eigh(S)
    # cap the k smallest s_i; the first k whose free part stays under the
    # cap is the solution, because c grows with k
    for k in range(min(int(np.sum(s <= 0)), d - 1), d):
        log_c = (np.log(s[k:]).sum() - k * log_cap) / (d - k)
        if log_c - math.log(s[k]) <= log_cap:
            break
    lam = np.full(d, eig_cap)
    lam[k:] = np.exp(log_c - np.log(s[k:]))
    return (vecs * lam) @ vecs.T, k > 0


def _mm_moment(X: np.ndarray, g: np.ndarray) -> np.ndarray:
    """E[x x^T / g(x)] up to scale: S of the bound tr(M S) on the mean gauge at g."""
    return (X / g[:, None]).T @ X


def _quad_gauges(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """sqrt(x^T M x) for every row of X."""
    return np.sqrt(np.einsum("ij,ij->i", X @ M, X))


def _ellipsoid_from_m(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * vals**-0.5) @ vecs.T


def fit_ellipsoid(
    samples: SampleSet, cfg: FitConfig, init: EllipsoidBody | None = None
) -> RiskReport:
    """Minimize mean ||A^{-1} x||_2 over symmetric A with det A = 1.

    Majorize-minimize on M = A^{-2}: sqrt(q) <= q / (2 sqrt(q_t)) +
    sqrt(q_t) / 2 bounds the risk by tr(M S_t) with S_t = E[x x^T /
    ||x||_{M_t}], and M_{t+1} = _water_fill(S_t) minimizes that bound under
    det M = 1 and the eigenvalue cap that enforces the inner width floor, so
    every step descends with no step size (a Tyler-type scatter
    M-estimator).  It stops when the risk falls by at most 1e-12 of the
    first risk.  The default start water-fills the sample second moment;
    pass `init` to warm-start.  The returned ellipsoid is scaled to unit
    volume and the risk trace is reported in that same scale.
    """
    X = _clean_points(samples)
    m, d = samples.m, samples.dim
    if m < d:
        raise ValueError("need at least d samples")
    if X.shape[0] < d or np.linalg.matrix_rank(X) < d:
        raise ValueError("rank-deficient sample matrix")

    scale_out = unit_ball_volume(d) ** (1.0 / d)
    # the floor applies to the returned body; translate it to det A = 1 scale
    eig_cap = 1.0 / (cfg.inner_width_floor * scale_out) ** 2

    if init is not None:
        if not isinstance(init, EllipsoidBody):
            raise TypeError("init must be an EllipsoidBody")
        M, capped = _water_fill(init.matrix @ init.matrix, eig_cap)
    else:
        M, capped = _water_fill(X.T @ X, eig_cap)
    events = ["eigenvalue floor hit at initialization"] if capped else []

    g = _quad_gauges(X, M)
    trace = [float(g.sum() / m)]
    for _ in range(cfg.max_iters):
        cand, cand_capped = _water_fill(_mm_moment(X, g), eig_cap)
        cand_g = _quad_gauges(X, cand)
        val = float(cand_g.sum() / m)
        if not val < trace[-1]:
            break
        M, g, capped = cand, cand_g, cand_capped
        trace.append(val)
        if trace[-2] - val <= 1e-12 * trace[0]:
            break
    if capped:
        events.append("eigenvalue floor active on the fitted body")

    body = EllipsoidBody(_ellipsoid_from_m(M) / scale_out)
    trace = [t * scale_out for t in trace]
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
    dictionaries, so no volume normalization applies).  A degenerate
    dictionary is repaired by reseeding from the samples the later column
    of its most nearly parallel pair, at most p times; every reseed is
    recorded, and so is a dictionary still degenerate after them.  Each
    step tries FIRST_TRIAL_STEP first and halves it until the step
    descends, over at most 8 trials.  A candidate whose codes fail
    numerically is a rejected step: the step size halves and an event is
    recorded.
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

    def degenerate(A: np.ndarray) -> bool:
        width = np.abs(probe.nodes @ A).max(axis=1).min()
        return width <= 1e-6 or np.linalg.svd(A, compute_uv=False)[-1] <= 1e-8

    def repair(A: np.ndarray) -> np.ndarray:
        # every column has unit length, so |a_i^T a_j| is a pair's |cosine|
        for _ in range(p):
            if not degenerate(A):
                return A
            coherence = np.triu(np.abs(A.T @ A), k=1)
            j = int(np.unravel_index(np.argmax(coherence), coherence.shape)[1])
            u = X[rng.integers(len(X))]
            A = A.copy()
            A[:, j] = u / np.linalg.norm(u)
            events.append(f"reseeded degenerate column {j}")
        if degenerate(A):
            events.append(f"dictionary still degenerate after {p} reseeds")
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
        eta, accepted = FIRST_TRIAL_STEP, False
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
    index), and each round gives every part one majorize-minimize step of
    fit_ellipsoid on its cluster, which cannot raise the union objective
    (mean of min gauges, parts at det 1).  The objective is recorded after
    every round; a round that a reseed makes worse by more than 1e-12 ends
    the fit, which otherwise stops like fit_ellipsoid.  The final union is
    volume normalized by quadrature on `grid` (default make_grid(d)).
    Each part's eigenvalue cap keeps its semi-axes at or above the inner
    width floor after that normalization, whose scale is at least
    (L kappa_d)^(-1/d).  L = 1 delegates exactly to fit_ellipsoid.  Emptied
    clusters reseed from the worst-fit samples.
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
    # a union of L det-1 parts has volume at most L kappa_d
    max_scale = (L * unit_ball_volume(d)) ** (1.0 / d)
    eig_cap = 1.0 / (cfg.inner_width_floor * max_scale) ** 2

    def part(pts: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
        moment = pts.T @ pts if g is None else _mm_moment(pts, g)
        return _water_fill(moment, eig_cap)[0]

    seeds = _directional_seeds(X, L, rng)
    assign = np.abs(X / np.linalg.norm(X, axis=1)[:, None] @ seeds.T).argmax(axis=1)
    parts = []
    for ell in range(L):
        pts = X[assign == ell]
        parts.append(part(pts) if len(pts) > d else np.eye(d))

    def gauges(mats) -> np.ndarray:
        return np.array([_quad_gauges(X, M) for M in mats])

    G = gauges(parts)
    trace = [float(G.min(axis=0).mean())]
    assign = G.argmin(axis=0)  # argmin takes the lowest index on ties

    for _ in range(cfg.max_iters):
        new_parts = list(parts)
        for ell in range(L):
            mine = assign == ell
            if mine.sum() < d + 1:
                worst = np.argsort(G.min(axis=0))[-(d + 1) :]
                new_parts[ell] = part(X[worst])
                events.append(f"reseeded empty part {ell} from worst-fit samples")
                continue
            new_parts[ell] = part(X[mine], G[ell, mine])
        G_new = gauges(new_parts)
        val = float(G_new.min(axis=0).mean())
        if val > trace[-1] + 1e-12:
            break  # a reseed made things worse; keep the previous state
        parts, G = new_parts, G_new
        trace.append(val)
        if trace[-2] - val <= 1e-12 * trace[0]:
            break
        assign = G.argmin(axis=0)

    ellipsoids = [EllipsoidBody(_ellipsoid_from_m(M)) for M in parts]
    scale = volume(UnionBody(ellipsoids), grid) ** (-1.0 / d)
    body = UnionBody([EllipsoidBody(E.matrix * scale) for E in ellipsoids])
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


def fit(samples: SampleSet, cfg: FitConfig, grid: SphericalGrid | None = None) -> RiskReport:
    """Dispatch to the configured family's fitter.

    `grid` is the quadrature grid of the union's volume normalization
    (default make_grid(d)); the other families do not use one.
    """
    if cfg.family == "ellipsoid":
        return fit_ellipsoid(samples, cfg)
    if cfg.family == "dictionary":
        return fit_dictionary(samples, cfg)
    return fit_union_ellipsoids(samples, cfg, grid)


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
    the spec; each report's population_risk is expected_gauge of its body
    under the spec on `grid`.  Each arm draws from its own child seed, so
    the series is reproducible bit for bit regardless of schedule order.
    """
    cfg = family if isinstance(family, FitConfig) else FitConfig(family=family, seed=seed)
    m_schedule = [int(m) for m in m_schedule]
    if grid is None:
        grid = make_grid(spec.dim)
    if population is None:
        population = optimal_body(rho_analytic(spec, grid)).k_star
    children = np.random.SeedSequence(seed).spawn(len(m_schedule))
    reports, distances = [], []
    for m, child in zip(m_schedule, children):
        samples = sample_density(spec, int(m), seed=np.random.default_rng(child))
        report = fit(samples, cfg)
        report = replace(report, population_risk=expected_gauge(report.body, spec, grid=grid))
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

    The population risk is expected_gauge(K, spec, grid=grid), the
    radial-statistic identity d * V~_{-1}(K, L_P) on `grid`, so only the
    empirical side is random.  Returns the per-m sup deviations.
    """
    bodies = list(bodies)
    m_schedule = [int(m) for m in m_schedule]
    if grid is None:
        grid = make_grid(spec.dim)
    pop = np.array([expected_gauge(K, spec, grid=grid) for K in bodies])
    children = np.random.SeedSequence(seed).spawn(len(m_schedule))
    sups = []
    for m, child in zip(m_schedule, children):
        pts = sample_density(spec, m, seed=np.random.default_rng(child)).points
        emp = np.array([K.gauge_many(pts).mean() for K in bodies])
        sups.append(float(np.abs(emp - pop).max()))
    return {"m_schedule": m_schedule, "sup_deviations": sups}


def gaussian_norm_mean(dim: int) -> float:
    """E||z||_2 for a standard Gaussian: sqrt(2) Gamma((d+1)/2) / Gamma(d/2)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((dim + 1) / 2.0) - math.lgamma(dim / 2.0))


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
