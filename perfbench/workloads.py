"""The three benchmark workloads: inputs, jobs, steps and output checks.

A workload is a fixed cycle of jobs built from ``(seed, cycle)``; a job is a
list of steps, each one timed library call (or one CLI child process).  Every
step runs even when an earlier step of its job failed: a step whose input is
missing fails with ``MissingInput`` instead of being skipped, so a later fix
changes how many steps fail, not how much work a job does.

Checks run outside the step timers and with the tracer disarmed.  A check is
*exact* (a deterministic property of the output, e.g. a volume identity) or
*statistical* (a test that a correct program fails at a known small rate,
e.g. the 1% Kolmogorov-Smirnov bound).  Both count failed steps; only exact
checks decide the run's ``correct`` flag.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"


class MissingInput(Exception):
    """Raised by a step whose input came from a failed step."""


class _Missing:
    def __init__(self, step: str):
        self.step = step

    def __getattr__(self, name):
        raise MissingInput(f"needs the output of failed step {self.step!r}")


@dataclass
class Step:
    name: str
    seconds: float = 0.0
    error: str | None = None
    checks: list = field(default_factory=list)  # (name, passed, exact)

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(ok for _, ok, _ in self.checks)


@dataclass
class Job:
    name: str
    steps: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def _digest(obj) -> str:
    """Stable text fingerprint of a step output."""
    if isinstance(obj, _Missing):
        return "missing"
    if isinstance(obj, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
    if hasattr(obj, "points"):  # SampleSet
        return _digest(obj.points)
    if hasattr(obj, "values") and hasattr(obj, "grid"):  # RadialProfile
        return _digest(obj.values)
    if hasattr(obj, "to_dict"):
        return hashlib.sha256(json.dumps(obj.to_dict(), sort_keys=True, default=repr).encode()).hexdigest()
    return repr(obj)


class Recorder:
    """Runs the steps of one job, timing each and arming the tracer."""

    def __init__(self, job: Job, tracer=None):
        self.job = job
        self.tracer = tracer

    def step(self, name, fn, check=None):
        step = Step(name)
        self.job.steps.append(step)
        with armed(self.tracer, name):
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # a failing step is data, the run goes on
                result = _Missing(name)
                step.error = f"{type(exc).__name__}: {exc}"
            step.seconds = time.perf_counter() - t0
        if step.error is None and check is not None:
            step.checks.extend(check(result))
        self.job.digests.append(f"{name}:{step.error or _digest(result)}")
        return result


def finite_gauges(g):
    return [("held_out_gauges_finite", bool(np.all(np.isfinite(g))), True)]


def armed(tracer, name):
    """The tracer's step span, or nothing when the run is untraced."""
    return tracer.armed(name) if tracer is not None else contextlib.nullcontext()


def nonincreasing(report):
    """Risk trace never rises by more than the fitters' own 1e-12 acceptance slack.

    ``fit_union_ellipsoids`` keeps a round whose risk rose by at most 1e-12,
    so float rounding at the 1e-16 level is not a rise.
    """
    trace = np.asarray(report.risk_trace)
    slack = 1e-12 * max(abs(trace[0]), 1.0)
    return [("risk_trace_nonincreasing", bool(np.all(np.diff(trace) <= slack)), True)]


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------


ROUNDTRIP_DIMS = (2, 3, 4)
ROUNDTRIP_D2_KINDS = ("gaussian", "gmm-eps", "gauge-induced")
# draws behind gibbs.moment_max_z.d3 in the traced run
ACCURACY_DRAWS = 400_000


@dataclass(frozen=True)
class RoundtripSizes:
    grid_n: int = 2048
    draws: int = 50_000
    fit_m: int = 5_000


def _random_covariance(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    axes = rng.uniform(0.5, 2.0, size=d)
    return (q * axes**2) @ q.T


def _random_radial_body(ge, rng, grid):
    theta = grid.angles()
    rho = np.ones(grid.n)
    for k in range(1, 5):
        rho += (rng.uniform(-0.3, 0.3) / k) * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
    return ge.RadialGridBody(grid, np.clip(rho, 0.25, None))


class Roundtrip:
    """The README quick example, in process, over d = 2, 3, 4."""

    name = "roundtrip"
    jobs_in_children = False
    min_cycles = 2

    def __init__(self, sizes: RoundtripSizes = RoundtripSizes()):
        self.sizes = sizes

    def setup_code(self) -> str:
        return (
            "import starbody, starbody.geometry as g\n"
            f"grids = [g.make_grid(d, {self.sizes.grid_n}) for d in {ROUNDTRIP_DIMS!r}]\n"
        )

    def prepare(self, sb, env):
        self.sb = sb
        self.grids = {d: sb.geometry.make_grid(d, self.sizes.grid_n) for d in ROUNDTRIP_DIMS}

    def cycle(self, seed: int, cycle: int):
        """One job per (d2 kind, d); each job's density is drawn from the seed."""
        dn, ge = self.sb.density, self.sb.geometry
        jobs = []
        for kind in ROUNDTRIP_D2_KINDS:
            for d in ROUNDTRIP_DIMS:
                rng = np.random.default_rng([seed, cycle, len(jobs)])
                grid = self.grids[d]
                if d == 2 and kind == "gmm-eps":
                    spec = dn.two_gaussian_mixture(float(rng.uniform(0.1, 1.0)))
                elif d == 2 and kind == "gauge-induced":
                    spec = dn.GaugeInducedDensity(_random_radial_body(ge, rng, grid), "exp", grid)
                else:
                    spec = dn.GaussianDensity(_random_covariance(rng, d))
                label = kind if d == 2 else "gaussian"
                jobs.append((f"d{d}-{label}", d, spec, int(rng.integers(2**31))))
        return jobs

    def run_job(self, job_input, tracer=None) -> Job:
        name, d, spec, lib_seed = job_input
        dn, op, gb, ln = self.sb.density, self.sb.optimizer, self.sb.gibbs, self.sb.learn
        sz, grid = self.sizes, self.grids[d]
        job = Job(name)
        rec = Recorder(job, tracer)

        def optimal_checks(res):
            resid = op.risk_identity_residual(res, grid)
            return [
                ("volume_check_within_1e-9", abs(res.volume_check - 1.0) <= 1e-9, True),
                ("risk_identity_residual_below_1e-9", resid < 1e-9, True),
            ]

        profile = rec.step("rho_analytic", lambda: dn.rho_analytic(spec, grid))
        result = rec.step("optimal_body", lambda: op.optimal_body(profile), optimal_checks)
        verdict = rec.step("check_convexity", lambda: op.check_convexity(result.k_star, seed=lib_seed))
        draws = rec.step("sample_gibbs", lambda: gb.sample_gibbs(result.k_star, sz.draws, seed=lib_seed, grid=grid))
        ks_bound = 1.63 / math.sqrt(sz.draws)
        rec.step(
            "gauge_ks_statistic",
            lambda: gb.gauge_ks_statistic(result.k_star, draws),
            lambda ks: [("ks_below_1.63/sqrt(n)", ks < ks_bound, False)],
        )
        head = _Missing("sample_gibbs") if isinstance(draws, _Missing) else dn.SampleSet(d, draws.points[: sz.fit_m])
        held = _Missing("sample_gibbs") if isinstance(draws, _Missing) else draws.points[sz.fit_m : 2 * sz.fit_m]
        cfg = ln.FitConfig(family="ellipsoid", seed=lib_seed)
        ell = rec.step("fit_ellipsoid", lambda: ln.fit_ellipsoid(head, cfg), nonincreasing)
        ucfg = ln.FitConfig(family="union_ellipsoids", L=2, seed=lib_seed)
        union = rec.step("fit_union_ellipsoids", lambda: ln.fit_union_ellipsoids(head, ucfg), nonincreasing)
        # held-out scoring is the one place the union body's own gauge runs
        for label, report in (("ellipsoid", ell), ("union", union)):
            rec.step(f"held_out_gauges_{label}", lambda: report.body.gauge_many(held), finite_gauges)
        emp = rec.step("rho_empirical", lambda: dn.rho_empirical(head, grid))
        rec.step("optimal_body_empirical", lambda: op.optimal_body(emp), optimal_checks)

        if d == 3 and isinstance(spec, dn.GaussianDensity):
            if not isinstance(verdict, _Missing):
                job.accuracy["optimizer.gaussian_margin.d3"] = verdict.margin
            if tracer is not None and not isinstance(result, _Missing):
                # untimed: the z of a fixed moment error grows as sqrt(draws),
                # so it is measured on more draws than a timed job takes
                more = gb.sample_gibbs(result.k_star, ACCURACY_DRAWS, seed=lib_seed, grid=grid)
                job.accuracy["gibbs.moment_max_z.d3"] = moment_max_z(spec.covariance, more.points)
        return job


def moment_max_z(cov, points) -> float:
    """Largest |z| of E[x x^T] against (d+1) A^2 for the unit-volume ellipsoid A.

    For a centered Gaussian the optimal body is the ellipsoid A(B) with
    A = cov^(1/2) scaled to unit volume, and exact Gibbs draws from it have
    second moment (d+1) A^2.
    """
    d = cov.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    half = (vecs * np.sqrt(vals)) @ vecs.T
    kappa = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    a = half / (kappa * np.sqrt(np.prod(vals))) ** (1.0 / d)
    target = (d + 1) * a @ a
    n = points.shape[0]
    worst = 0.0
    for i in range(d):
        for j in range(i, d):
            prod = points[:, i] * points[:, j]
            z = (prod.mean() - target[i, j]) / (prod.std() / math.sqrt(n))
            worst = max(worst, abs(float(z)))
    return worst


# ---------------------------------------------------------------------------
# fit-dictionary
# ---------------------------------------------------------------------------


DICTIONARY_NOISE = 0.05


@dataclass(frozen=True)
class DictionarySizes:
    m: int = 16
    held_out: int = 64
    dims: tuple = (2, 3, 5)
    max_iters: int = 4
    convexity_trials: int = 16


def planted_points(rng, columns, m, noise):
    """Two atoms per point with Laplace coefficients, plus Gaussian noise."""
    d, p = columns.shape
    coef = np.zeros((m, p))
    for row in coef:
        row[rng.choice(p, size=2, replace=False)] = rng.laplace(size=2)
    clean = coef @ columns.T
    return clean + noise * math.sqrt(float(np.mean(clean**2))) * rng.standard_normal(clean.shape)


class FitDictionary:
    """A dictionary-polytope fit (body construction heavy), then scoring of
    the fitted body on held-out points (gauge query heavy), one job per d."""

    name = "fit-dictionary"
    jobs_in_children = False
    min_cycles = 2

    def __init__(self, sizes: DictionarySizes = DictionarySizes()):
        self.sizes = sizes

    def setup_code(self) -> str:
        return "import starbody\n"

    def prepare(self, sb, env):
        self.sb = sb

    def cycle(self, seed: int, cycle: int):
        sz, jobs = self.sizes, []
        for d in sz.dims:
            rng = np.random.default_rng([seed, cycle, d])
            p = 2 * d
            columns = rng.standard_normal((d, p))
            columns /= np.linalg.norm(columns, axis=0)
            train = planted_points(rng, columns, sz.m, DICTIONARY_NOISE)
            held = planted_points(rng, columns, sz.held_out, DICTIONARY_NOISE)
            jobs.append((f"d{d}", d, train, held, int(rng.integers(2**31))))
        return jobs

    def run_job(self, job_input, tracer=None) -> Job:
        name, d, train, held, lib_seed = job_input
        sz, dn, op, ln = self.sizes, self.sb.density, self.sb.optimizer, self.sb.learn
        job = Job(name)
        rec = Recorder(job, tracer)
        cfg = ln.FitConfig(family="dictionary", p=2 * d, max_iters=sz.max_iters, seed=lib_seed)
        report = rec.step("fit_dictionary", lambda: ln.fit_dictionary(dn.SampleSet(d, train), cfg), nonincreasing)
        rec.step("gauge_many", lambda: report.body.gauge_many(held), finite_gauges)
        rec.step("check_convexity", lambda: op.check_convexity(report.body, trials=sz.convexity_trials, seed=lib_seed))
        return job


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliSizes:
    data_m: int = 20_000
    gibbs_n: int = 100_000
    verify: tuple = ("lutwak", "gibbs", "lipschitz", "noise", "mixture")
    extra_args: tuple = ()


# figure -> the summary file ``reproduce`` writes for it
REPRODUCE = {
    "l2-supports": "figures/l2_supports_summary.json",
    "gmm-bodies": "figures/gmm_bodies_summary.json",
    "gmm-critical-eps": "figures/gmm_critical_eps.json",
}


def _parse_csv(path: Path):
    np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _parse_json(path: Path):
    json.loads(path.read_text())


def _parse_svg(path: Path):
    text = path.read_text()
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        raise ValueError("not an svg document")


_PARSERS = {".csv": _parse_csv, ".json": _parse_json, ".svg": _parse_svg}


def _command_name(argv) -> str:
    """Subcommand and its first argument, e.g. ``fit --family union``."""
    return " ".join(argv[:3] if argv[1].startswith("--") else argv[:2])


class CliCold:
    """The README command lines, each a fresh ``python -m starbody.cli``."""

    name = "cli-cold"
    min_cycles = 1
    jobs_in_children = True
    in_process = False

    def __init__(self, sizes: CliSizes = CliSizes(), workdir: Path | None = None):
        self.sizes = sizes
        self.workdir = workdir or WORKDIR / "cli"

    def setup_code(self) -> str:
        return "import starbody.cli\n"

    def prepare(self, sb, env):
        self.sb = sb
        self.env = env

    def script(self, seed: int):
        """(argv, outputs, stdout_is_json) per command; later ones read earlier outputs."""
        sz = self.sizes
        svg = ["body.json", "body.boundary.csv", "body.meta.json", "body.boundary.svg"]
        cmds = [
            (["rho", "--density", "gaussian-identity-2d", "--out", "profile.csv"], ["profile.csv", "profile.meta.json"], False),
            (["optimal", "--density", "gmm-eps:0.25", "--out", "body.json", "--format", "svg"], svg, False),
            (["rho", "--samples", "data.csv", "--bandwidth", "0.1", "--out", "data_profile.csv"],
             ["data_profile.csv", "data_profile.meta.json"], False),
            (["optimal", "--samples", "data.csv", "--out", "data_body.json"],
             ["data_body.json", "data_body.boundary.csv", "data_body.meta.json"], False),
            (["optimal", "--density", "uniform-ball-2d", "--out", "ball.json"], ["ball.json", "ball.meta.json"], False),
            (["optimal", "--density", "uniform-l1-2d", "--out", "l1.json"], ["l1.json", "l1.meta.json"], False),
            (["convexity", "--body", "body.json"], [], True),
            (["gibbs-sample", "--body", "body.json", "--n", str(sz.gibbs_n), "--out", "draws.csv"], ["draws.csv"], False),
            (["fit", "--family", "ellipsoid", "--data", "draws.csv", "--out", "fit.json", "--report", "report.json"],
             ["fit.json", "report.json"], False),
            (["fit", "--family", "union", "--data", "draws.csv", "--out", "fit_union.json", "--report", "report_union.json"],
             ["fit_union.json", "report_union.json"], False),
        ]
        cmds += [(["verify", s], [], True) for s in sz.verify]
        cmds += [(["reproduce", f, "--out", "figures"], [out], False) for f, out in REPRODUCE.items()]
        return [(argv + ["--seed", str(seed), *sz.extra_args], outs, js) for argv, outs, js in cmds]

    def cycle(self, seed: int, cycle: int):
        """Writes a fresh work directory holding the seeded data.csv."""
        rng = np.random.default_rng([seed, cycle])
        cov = _random_covariance(rng, 2)
        data = rng.standard_normal((self.sizes.data_m, 2)) @ np.linalg.cholesky(cov).T
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        with open(self.workdir / "data.csv", "w") as fh:
            fh.write("# dim=2\n")
            np.savetxt(fh, data, delimiter=",", fmt="%.17g")
        lib_seed = int(rng.integers(2**31))
        return [(_command_name(argv), argv, outs, js) for argv, outs, js in self.script(lib_seed)]

    def run_job(self, job_input, tracer=None) -> Job:
        """A fresh child process, or ``cli.main`` in process when ``in_process`` is set."""
        name, argv, outs, stdout_json = job_input
        job = Job(name)
        step = Step(name)
        job.steps.append(step)
        if self.in_process:
            rc, stdout, stderr, step.seconds = self._in_process(argv, tracer)
        else:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "starbody.cli", *argv],
                cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=150,
            )
            step.seconds = time.perf_counter() - t0
            rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if rc:
            last = stderr.strip().splitlines()[-1:] or [""]
            step.error = f"exit {rc}: {last[0]}"
            job.digests = [f"{name}:{step.error}"]
        else:
            step.checks, job.digests = self._check(outs, stdout if stdout_json else None)
        return job

    def _check(self, outs, stdout):
        checks, digests = [], []
        for rel in outs:
            path = self.workdir / rel
            try:
                _PARSERS[path.suffix](path)
                digests.append(f"{rel}:{hashlib.sha256(path.read_bytes()).hexdigest()}")
                checks.append((f"{rel}_parses", True, True))
            except (OSError, ValueError) as exc:
                digests.append(f"{rel}:{type(exc).__name__}")
                checks.append((f"{rel}_parses", False, True))
        if stdout is not None:
            try:
                json.loads(stdout)
                checks.append(("stdout_json_parses", True, True))
            except ValueError:
                checks.append(("stdout_json_parses", False, True))
            digests.append("stdout:" + hashlib.sha256(stdout.encode()).hexdigest())
        return checks, digests

    def _in_process(self, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            with armed(tracer, _command_name(argv)):
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = self.sb.cli.main(list(argv))
                except Exception as exc:  # main() maps known errors to exit codes; this is the rest
                    rc = 1
                    err.write(f"{type(exc).__name__}: {exc}\n")
                seconds = time.perf_counter() - t0
        finally:
            os.chdir(here)
        return rc, out.getvalue(), err.getvalue(), seconds


WORKLOADS = {w.name: w for w in (Roundtrip, FitDictionary, CliCold)}
