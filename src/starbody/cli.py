"""Command-line front end for the starbody toolkit.

Subcommands cover the main workflows: radial profiles (``rho``), optimal
bodies (``optimal``), convexity checks, Gibbs sampling, empirical fits,
self-check suites (``verify``), and canned reproduction runs
(``reproduce``).  All outputs are deterministic for a fixed seed: floats
are printed with 17 significant digits, JSON keys are sorted, and files
are written atomically (temp file + rename) so concurrent runs never see
partial output.

Exit codes: 0 success, 2 input or parse error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import density as dn
from . import geometry as ge
from . import gibbs as gb
from . import learn as ln
from . import optimizer as op

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

DENSITY_SHORTHANDS = (
    "gaussian-identity-2d",
    "gmm-eps:<v>",
    "uniform-ball-2d",
    "uniform-l1-2d",
)


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _json_text(obj) -> str:
    """obj as JSON with sorted keys, two-space indents and shortest round-trip
    floats; NaN and infinity raise ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_plain)


def _plain(obj):
    """The Python value of a NumPy array or scalar, for json.dumps."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_atomic_with(writer, path) -> None:
    """Write path atomically: writer(tmp) fills a temp file that is then renamed."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_atomic_text(path, text: str) -> None:
    _write_atomic_with(lambda tmp: Path(tmp).write_text(text), path)


def _emit_json(obj, out) -> None:
    text = _json_text(obj) + "\n"
    if out:
        _write_atomic_text(out, text)
    else:
        sys.stdout.write(text)


def _stem_path(out, suffix: str) -> Path:
    p = Path(out)
    return p.with_name(p.stem + suffix)


def _write_body(path, body) -> None:
    _emit_json(ge.body_to_dict(body), path)


def _write_boundary_csv(path, body, grid) -> None:
    poly = _body_polyline(body, grid)
    _write_atomic_with(lambda tmp: dn.write_csv(tmp, poly, header="x,y"), path)


def _svg_text(polylines) -> str:
    """512x512 document; each polyline becomes one closed path."""
    span = max(float(np.abs(np.concatenate(polylines)).max()), 1e-12)
    scale = 240.0 / span
    paths = []
    for poly in polylines:
        cmds = " ".join(
            "%s%.3f %.3f" % ("M" if i == 0 else "L", 256.0 + scale * x, 256.0 - scale * y)
            for i, (x, y) in enumerate(poly)
        )
        paths.append(
            f'<path d="{cmds} Z" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="512" height="512" '
        'viewBox="0 0 512 512">\n  ' + "\n  ".join(paths) + "\n</svg>\n"
    )


def _body_polyline(body, grid) -> np.ndarray:
    rho = ge.radial_on_grid(body, grid)
    return grid.nodes * rho[:, None]


# ---------------------------------------------------------------------------
# Input helpers
# ---------------------------------------------------------------------------


def _parse_density(name: str, grid_n: int):
    if name == "gaussian-identity-2d":
        return dn.GaussianDensity(np.eye(2))
    if name.startswith("gmm-eps:"):
        return dn.two_gaussian_mixture(float(name[len("gmm-eps:"):]))
    if name == "uniform-ball-2d":
        return dn.UniformOverBody(ge.EllipsoidBody(np.eye(2)), ge.make_grid(2, grid_n))
    if name == "uniform-l1-2d":
        return dn.UniformOverBody(
            ge.DictionaryPolytopeBody(np.eye(2)), ge.make_grid(2, grid_n)
        )
    path = Path(name)
    if path.suffix == ".json":
        return dn.density_from_dict(json.loads(path.read_text()))
    raise ValueError(
        f"unknown density {name!r}; use one of {DENSITY_SHORTHANDS} or a JSON file"
    )


def _load_body(path: str):
    return ge.body_from_json(Path(path).read_text())


def _profile_from_args(args):
    """Build a radial profile from --density or --samples."""
    if bool(args.density) == bool(args.samples):
        raise ValueError("exactly one of --density or --samples is required")
    if args.density:
        spec = _parse_density(args.density, args.grid_n)
        grid = ge.make_grid(spec.dim, args.grid_n)
        profile = dn.rho_analytic(spec, grid, alpha=args.alpha)
        source = {"density": args.density, "kind": "analytic"}
    else:
        samples = dn.SampleSet.from_csv(args.samples)
        if args.alpha != 1.0:
            raise ValueError("empirical profiles support alpha = 1 only")
        grid = ge.make_grid(samples.dim, args.grid_n)
        profile = dn.rho_empirical(samples, grid, bandwidth=args.bandwidth)
        source = {
            "samples": str(args.samples),
            "m": samples.m,
            "bandwidth": args.bandwidth,
            "kind": "empirical",
        }
    return profile, grid, source


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_rho(args) -> int:
    if not args.out:
        raise ValueError("rho requires --out")
    profile, grid, source = _profile_from_args(args)
    _write_atomic_with(profile.to_csv, args.out)
    values = profile.values
    meta = {
        "alpha": args.alpha,
        "dim": grid.dim,
        "grid_n": grid.n,
        "source": source,
        "min_value": float(values.min()),
        "max_value": float(values.max()),
        "max_min_ratio": float(values.max() / values.min()),
    }
    _emit_json(meta, _stem_path(args.out, ".meta.json"))
    return EXIT_OK


def _cmd_optimal(args) -> int:
    if not args.out:
        raise ValueError("optimal requires --out")
    profile, grid, source = _profile_from_args(args)
    result = op.optimal_body(profile)
    verdict = op.check_convexity(result.k_star)
    _write_body(args.out, result.k_star)
    if grid.dim == 2:
        _write_boundary_csv(_stem_path(args.out, ".boundary.csv"), result.k_star, grid)
        if args.format == "svg":
            _write_atomic_text(
                _stem_path(args.out, ".boundary.svg"),
                _svg_text([_body_polyline(result.k_star, grid)]),
            )
    meta = {
        "alpha": result.alpha,
        "achieved_risk": result.achieved_risk,
        "volume_check": result.volume_check,
        "source": source,
        "convexity": verdict.to_dict(),
    }
    _emit_json(meta, _stem_path(args.out, ".meta.json"))
    return EXIT_OK


def _cmd_convexity(args) -> int:
    body = _load_body(args.body)
    # a radial grid body is judged on its own grid, any other on --grid-n nodes
    report = op.check_convexity(body, ge.make_grid(body.dim, args.grid_n))
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_gibbs_sample(args) -> int:
    if not args.out:
        raise ValueError("gibbs-sample requires --out")
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    body = _load_body(args.body)
    grid = ge.make_grid(body.dim, args.grid_n)
    samples = gb.sample_gibbs(body, args.n, seed=args.seed, grid=grid)
    _write_atomic_with(samples.to_csv, args.out)
    return EXIT_OK


_FAMILY_ALIASES = {
    "ellipsoid": "ellipsoid",
    "dictionary": "dictionary",
    "union": "union_ellipsoids",
    "union_ellipsoids": "union_ellipsoids",
}


def _cmd_fit(args) -> int:
    if not args.out:
        raise ValueError("fit requires --out")
    samples = dn.SampleSet.from_csv(args.data)
    cfg = ln.FitConfig(
        family=_FAMILY_ALIASES[args.family],
        max_iters=args.iters,
        inner_width_floor=args.floor,
        seed=args.seed,
        p=args.p,
        L=args.L,
    )
    # only the union's volume normalization uses a grid
    grid = ge.make_grid(samples.dim, args.grid_n) if cfg.family == "union_ellipsoids" else None
    report = ln.fit(samples, cfg, grid=grid)
    _write_body(args.out, report.body)
    if args.report:
        _emit_json(report.to_dict(), args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _random_star_body(rng, grid, n_modes: int = 4, base: float = 1.0):
    theta = grid.angles()
    rho = np.full(grid.n, base)
    for k in range(1, n_modes + 1):
        rho += (rng.uniform(-0.35, 0.35) / k) * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
    return ge.RadialGridBody(grid, np.clip(rho, 0.25, None))


def _verify_lutwak(grid, seed: int):
    rng = np.random.default_rng(seed)
    d = grid.dim
    min_margin = math.inf
    max_dilate_residual = 0.0
    for trial in range(100):
        k = _random_star_body(rng, grid)
        l = _random_star_body(rng, grid)
        lhs = ge.dual_mixed_volume(k, l, -1.0, grid) ** d
        rhs = ge.volume(k, grid) ** -1 * ge.volume(l, grid) ** (d + 1)
        min_margin = min(min_margin, lhs - rhs)
        if trial < 10:
            c = rng.uniform(0.5, 2.0)
            dk = ge.dilate(k, c)
            dlhs = ge.dual_mixed_volume(k, dk, -1.0, grid) ** d
            drhs = ge.volume(k, grid) ** -1 * ge.volume(dk, grid) ** (d + 1)
            max_dilate_residual = max(max_dilate_residual, abs(dlhs - drhs) / drhs)
    passed = min_margin >= -1e-6 and max_dilate_residual <= 1e-6
    return passed, {
        "suite": "lutwak",
        "pairs": 100,
        "min_margin": min_margin,
        "max_dilate_residual": max_dilate_residual,
        "passed": passed,
    }


# false-alarm rate of the verify gibbs KS check on a correct sampler
KS_FALSE_ALARM = 1e-6


def _verify_gibbs(grid, seed: int):
    rng = np.random.default_rng(seed)
    body = _random_star_body(rng, grid)
    n = 100_000
    samples = gb.sample_gibbs(body, n, seed=seed + 1, grid=grid)
    ks = gb.gauge_ks_statistic(body, samples)
    # Dvoretzky-Kiefer-Wolfowitz with Massart's constant, valid for every n:
    # P(KS > t) <= 2 exp(-2 n t^2) when the gauges are exactly Gamma(d, 1)
    ks_bound = math.sqrt(math.log(2.0 / KS_FALSE_ALARM) / (2.0 * n))
    exact = math.exp(gb.log_normalizer(body, grid))
    est, se = gb.mc_normalizer_estimate(body, grid, n=200_000, seed=seed + 2)
    z_err = abs(est - exact) / exact
    z_tol = max(4.0 * se / exact, 0.02)
    passed = ks < ks_bound and z_err <= z_tol
    return passed, {
        "suite": "gibbs",
        "n": n,
        "ks_statistic": ks,
        "ks_bound": ks_bound,
        "false_alarm_rate": KS_FALSE_ALARM,
        "normalizer_exact": exact,
        "normalizer_estimate": est,
        "normalizer_rel_error": z_err,
        "normalizer_tolerance": z_tol,
        "passed": passed,
    }


def _gauge_lipschitz(body):
    """Lipschitz constant of a planar grid body's gauge, and where it peaks.

    In polar coordinates the gauge is r / rho(theta); its gradient
    e_r / rho - rho' e_theta / rho^2 has norm sqrt(rho^2 + rho'^2) / rho^2.
    rho is linear in theta on each cell (node j of a uniform circle grid
    sits at angle 2 pi j / n), so rho' is constant there and the norm peaks
    at the cell's smaller endpoint.  Returns the constant, a unit vector
    just inside the steepest cell at that endpoint, and the unit gradient
    there.
    """
    step = 2.0 * math.pi / body.grid.n
    rho = body.radii
    nxt = np.roll(rho, -1)
    slope = (nxt - rho) / step
    low = np.minimum(rho, nxt)
    norms = np.sqrt(low**2 + slope**2) / low**2
    j = int(np.argmax(norms))
    theta = (j + (1e-6 if rho[j] <= nxt[j] else 1.0 - 1e-6)) * step
    u = np.array([math.cos(theta), math.sin(theta)])
    grad = u / low[j] - slope[j] / low[j] ** 2 * np.array([-u[1], u[0]])
    return float(norms[j]), u, grad / np.linalg.norm(grad)


def _verify_lipschitz(grid, seed: int):
    """Checks |‖x‖_K - ‖y‖_L| <= ‖x‖ δ / (min ρ_K min ρ_L) + Lip(L) ‖x - y‖.

    δ is the sup distance of the radial functions, exact on the shared grid
    since both are linear in angle on its cells.  Each trial checks a random
    pair (K, L) on random points and the pair (L, L) on points at distance
    at most 1e-3; the first of those steps along the steepest gradient of
    the gauge, so the Lipschitz term is checked almost tight.
    """
    rng = np.random.default_rng(seed)
    worst = -math.inf
    tightest = 0.0
    for _ in range(50):
        k = _random_star_body(rng, grid, base=1.1)
        l = _random_star_body(rng, grid, base=1.1)
        lip, u, grad = _gauge_lipschitz(l)
        x = rng.uniform(-1.5, 1.5, size=(20, 2))
        y = x + rng.uniform(-0.5, 0.5, size=(20, 2))
        x_near = np.vstack([u, rng.uniform(-1.5, 1.5, size=(19, 2))])
        h = rng.standard_normal((20, 2))
        h *= rng.uniform(0.0, 1e-3, size=(20, 1)) / np.linalg.norm(h, axis=1, keepdims=True)
        h[0] = 1e-3 * grad
        for kk, xx, yy in ((k, x, y), (l, x_near, x_near + h)):
            lhs = np.abs(kk.gauge_many(xx) - l.gauge_many(yy))
            delta = ge.radial_distance(kk, l, grid)
            bound = (
                np.linalg.norm(xx, axis=1) * delta / (kk.radii.min() * l.radii.min())
                + lip * np.linalg.norm(xx - yy, axis=1)
            )
            worst = max(worst, float((lhs - bound).max()))
            tightest = max(tightest, float((lhs / bound).max()))
    passed = worst <= 1e-9
    return passed, {
        "suite": "lipschitz",
        "quadruples": 2000,
        "worst_violation": worst,
        "max_bound_ratio": tightest,
        "slack": 1e-9,
        "passed": passed,
    }


def _verify_noise(grid, seed: int):
    rng = np.random.default_rng(seed)
    bodies = []
    for _ in range(10):
        axes = rng.uniform(0.6, 1.8, size=2)
        q = _random_rotation(rng)
        bodies.append(ge.EllipsoidBody(q @ np.diag(axes) @ q.T))
    spec = dn.GaussianDensity(np.eye(2))
    noise = dn.GaussianDensity(np.eye(2))
    report = ln.noise_robustness(
        spec, bodies, [0.05, 0.1, 0.2, 0.5], noise, m=20_000, seed=seed, r=0.5, grid=grid
    )
    passed = all(report.within_bound)
    return passed, {"suite": "noise", "passed": passed, "report": dataclasses.asdict(report)}


def _random_rotation(rng) -> np.ndarray:
    a = rng.uniform(0, 2 * np.pi)
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def _verify_mixture(grid, seed: int):
    rng = np.random.default_rng(seed)
    d, alpha = grid.dim, 1.0
    worst_additivity = 0.0
    worst_quadrature = 0.0
    for eps in (0.1, 0.35, 0.8):
        mix = dn.two_gaussian_mixture(eps)
        rho_mix = dn.rho_analytic(mix, grid, alpha=alpha).values
        # the (d+alpha) power of the mixture profile is the weighted sum of
        # the component powers
        combined = np.zeros(grid.n)
        for w, comp in zip(mix.weights, mix.components):
            combined += w * dn.rho_analytic(comp, grid, alpha=alpha).values ** (d + alpha)
        worst_additivity = max(
            worst_additivity,
            float(np.abs(rho_mix ** (d + alpha) - combined).max() / combined.max()),
        )
        # independent quadrature path on a few random nodes
        for idx in rng.integers(0, grid.n, size=3):
            u = grid.nodes[idx]
            moment = dn.radial_moment_quadrature(
                lambda rr: mix.pdf(np.asarray(rr)[:, None] * u), d + alpha, 40.0
            )
            worst_quadrature = max(
                worst_quadrature,
                abs(moment ** (1.0 / (d + alpha)) - rho_mix[idx]) / rho_mix[idx],
            )
    passed = worst_additivity < 1e-6 and worst_quadrature < 1e-6
    return passed, {
        "suite": "mixture",
        "worst_additivity_residual": worst_additivity,
        "worst_quadrature_residual": worst_quadrature,
        "passed": passed,
    }


VERIFY_SUITES = {
    "lutwak": _verify_lutwak,
    "gibbs": _verify_gibbs,
    "lipschitz": _verify_lipschitz,
    "noise": _verify_noise,
    "mixture": _verify_mixture,
}


def _cmd_verify(args) -> int:
    grid = ge.make_grid(2, args.grid_n)
    passed, report = VERIFY_SUITES[args.suite](grid, args.seed)
    _emit_json(report, args.out)
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# reproduce figures
# ---------------------------------------------------------------------------


def _reproduce_l2_supports(outdir: Path, grid) -> None:
    theta = grid.angles()
    choices = {
        "const": np.full(grid.n, 0.4),
        "wiggle3": 0.7 + 0.25 * np.cos(3 * theta),
        "wiggle5": 0.6 + 0.2 * np.sin(5 * theta) + 0.1 * np.cos(2 * theta),
        "lobe": 0.9 + 0.35 * np.cos(theta + 1.0),
    }
    summary = {}
    for name, f_values in choices.items():
        region = dn.AnnularRegion(f_values, grid)
        profile = region.analytic_profile(alpha=1.0)
        base = str(outdir / f"l2_supports_{name}")
        _write_atomic_with(profile.to_csv, base + ".profile.csv")
        _write_boundary_csv(base + ".inner.csv", region.inner, grid)
        _write_boundary_csv(base + ".outer.csv", region.outer, grid)
        _write_atomic_text(
            base + ".svg",
            _svg_text(
                [_body_polyline(region.inner, grid), _body_polyline(region.outer, grid)]
            ),
        )
        values = profile.values
        ratio = float(values.max() / values.min())
        summary[name] = {
            "mean": float(values.mean()),
            "max_min_ratio": ratio,
            "constant_within_2pct": ratio <= 1.02,
        }
    _emit_json(summary, outdir / "l2_supports_summary.json")


def _reproduce_gmm_bodies(outdir: Path, grid) -> None:
    summary = {}
    for eps in (0.01, 0.1, 0.25, 0.75):
        result = op.optimal_body(dn.rho_analytic(dn.two_gaussian_mixture(eps), grid))
        verdict = op.check_convexity(result.k_star)
        base = str(outdir / f"gmm_body_eps_{eps}")
        _write_body(base + ".json", result.k_star)
        _write_boundary_csv(base + ".boundary.csv", result.k_star, grid)
        _write_atomic_text(base + ".svg", _svg_text([_body_polyline(result.k_star, grid)]))
        summary[str(eps)] = {
            "is_convex": verdict.is_convex,
            "margin": verdict.margin,
            "achieved_risk": result.achieved_risk,
        }
    _emit_json(summary, outdir / "gmm_bodies_summary.json")


def _reproduce_gmm_critical_eps(outdir: Path, grid) -> None:
    record = []
    eps_c = op.critical_epsilon_gmm(grid, record=record)
    payload = {
        "eps_critical": eps_c,
        "expected_bracket": [0.30, 0.45],
        "in_expected_bracket": 0.30 < eps_c < 0.45,
        "trace": [
            {"eps": e, "margin": m, "is_convex": c} for e, m, c in record
        ],
    }
    _emit_json(payload, outdir / "gmm_critical_eps.json")


REPRODUCE_FIGURES = {
    "l2-supports": _reproduce_l2_supports,
    "gmm-bodies": _reproduce_gmm_bodies,
    "gmm-critical-eps": _reproduce_gmm_critical_eps,
}


def _cmd_reproduce(args) -> int:
    grid = ge.make_grid(2, args.grid_n)
    REPRODUCE_FIGURES[args.figure](Path(args.out or "."), grid)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument(
        "--grid-n", type=int, default=1024, dest="grid_n",
        help="angular grid size (in d = 3 the nearest product grid, rings x azimuths + 2)",
    )
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--config", default=None, help="JSON file with default flags")

    parser = argparse.ArgumentParser(
        prog="starbody", description="Star-body densities, optimal bodies, and fits."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rho = sub.add_parser("rho", parents=[common], help="radial profile to CSV")
    p_opt = sub.add_parser("optimal", parents=[common], help="optimal body to JSON")
    for p in (p_rho, p_opt):
        p.add_argument("--density", default=None, help="density shorthand or JSON file")
        p.add_argument("--samples", default=None, help="sample CSV path")
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--bandwidth", type=float, default=dn.DEFAULT_BANDWIDTH)
    p_opt.add_argument(
        "--format", choices=["json", "svg"], default="json",
        help="svg also writes the boundary of a planar body as an SVG",
    )

    p_cvx = sub.add_parser("convexity", parents=[common], help="convexity verdict")
    p_cvx.add_argument("--body", required=True, help="body JSON path")

    p_gs = sub.add_parser("gibbs-sample", parents=[common], help="draw Gibbs samples")
    p_gs.add_argument("--body", required=True, help="body JSON path")
    p_gs.add_argument("--n", type=int, default=1000)

    p_fit = sub.add_parser(
        "fit", parents=[common], help="fit a body to samples",
        description="Fit a body to samples by empirical risk minimization. "
        "--grid-n only matters for --family union, whose volume normalization "
        "uses a grid; the ellipsoid and dictionary fits use none.",
    )
    p_fit.add_argument("--family", choices=sorted(_FAMILY_ALIASES), default="ellipsoid")
    p_fit.add_argument("--data", required=True, help="sample CSV path")
    p_fit.add_argument("--report", default=None, help="risk report JSON path")
    p_fit.add_argument("--p", type=int, default=None)
    p_fit.add_argument("--L", type=int, default=None)
    p_fit.add_argument("--iters", type=int, default=ln.FitConfig.max_iters)
    p_fit.add_argument("--floor", type=float, default=ln.FitConfig.inner_width_floor)

    p_ver = sub.add_parser("verify", parents=[common], help="run a self-check suite")
    p_ver.add_argument("suite", choices=sorted(VERIFY_SUITES))

    p_rep = sub.add_parser("reproduce", parents=[common], help="canned figure runs")
    p_rep.add_argument("figure", choices=sorted(REPRODUCE_FIGURES))

    return parser


def _subcommands(parser) -> dict:
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def _parse_leniently(argv):
    """argv parsed with no option required, silently; None if it fails.

    A --config file may supply a required option (--body, --data), so this
    parse only finds the subcommand and the config path; the strict parse
    of the spliced argv reports any error and prints any help.
    """
    parser = build_parser()
    for sub in _subcommands(parser).values():
        for action in sub._actions:
            if action.option_strings:
                action.required = False
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return parser.parse_args(argv)
    except SystemExit:
        return None


def _config_argv(parser, args, argv) -> list:
    """argv with the --config file's entries spliced in as --key=value tokens.

    The tokens follow the subcommand name, so argparse checks them like any
    flag (type, choices) and an explicit flag later in argv wins.  A key
    that only other subcommands accept is skipped; null keeps the default.
    """
    conf = json.loads(Path(args.config).read_text())
    if not isinstance(conf, dict):
        raise ValueError("config file must hold a JSON object")
    flags = {
        name: {f for a in sub._actions for f in a.option_strings} - {"-h", "--help", "--config"}
        for name, sub in _subcommands(parser).items()
    }
    tokens = []
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        if not any(flag in fs for fs in flags.values()):
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, (bool, list, dict)):
            raise ValueError(f"config key {key!r} needs a string, a number or null")
        if flag in flags[args.command] and value is not None:
            tokens.append(f"{flag}={value}")
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


DISPATCH = {
    "rho": _cmd_rho,
    "optimal": _cmd_optimal,
    "convexity": _cmd_convexity,
    "gibbs-sample": _cmd_gibbs_sample,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        found = _parse_leniently(argv)
        if found is not None and found.config:
            argv = _config_argv(parser, found, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code) if exc.code else EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"starbody: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return DISPATCH[args.command](args)
    except ge.NumericalFailure as exc:
        print(f"starbody: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"starbody: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
