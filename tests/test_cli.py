"""Command-line interface tests: outputs, determinism, exit codes."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starbody as sb
from starbody import cli
from starbody import density as dn
from starbody import geometry as ge


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------


def test_rho_gaussian_constant_profile(tmp_path):
    out = tmp_path / "prof.csv"
    assert run("rho", "--density", "gaussian-identity-2d", "--out", out, "--grid-n", 256) == 0
    meta = read_json(tmp_path / "prof.meta.json")
    # closed form: ((2*pi)^-1 * integral r^2 exp(-r^2/2) dr)^(1/3)
    expected = (math.sqrt(math.pi / 2.0) / (2.0 * math.pi)) ** (1.0 / 3.0)
    assert meta["max_min_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert meta["min_value"] == pytest.approx(expected, rel=1e-12)
    rows, _ = dn.read_csv(out)
    assert rows.shape[0] == 256
    assert np.allclose(rows[:, -1], expected, rtol=1e-12)


def test_rho_empirical_from_samples(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((4000, 2))
    data = tmp_path / "data.csv"
    dn.SampleSet(2, pts).to_csv(data)
    out = tmp_path / "emp.csv"
    assert run("rho", "--samples", data, "--out", out, "--grid-n", 128) == 0
    meta = read_json(tmp_path / "emp.meta.json")
    assert meta["source"]["m"] == 4000
    assert meta["max_min_ratio"] < 1.2
    # the kernel estimator is alpha = 1 only
    assert run("rho", "--samples", data, "--out", out, "--alpha", 2.0) == 2


def test_rho_input_validation(tmp_path):
    out = tmp_path / "x.csv"
    assert run("rho", "--density", "gaussian-identity-2d") == 2  # no --out
    assert run("rho", "--out", out) == 2  # neither input
    assert run("rho", "--density", "gaussian-identity-2d", "--samples", "a.csv", "--out", out) == 2
    assert run("rho", "--samples", tmp_path / "missing.csv", "--out", out) == 2
    assert run("rho", "--density", "bogus-name", "--out", out) == 2
    assert run("rho", "--density", "gmm-eps:abc", "--out", out) == 2


@pytest.mark.parametrize("n", [0, -3])
def test_grid_n_below_one_in_d4_exits_2(tmp_path, capsys, n):
    data = tmp_path / "data.csv"
    dn.SampleSet(4, np.random.default_rng(0).standard_normal((50, 4))).to_csv(data)
    out = tmp_path / "body.json"
    assert run("optimal", "--samples", data, "--grid-n", n, "--out", out) == 2
    assert "need at least 1 node" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_bandwidth_and_floor_exit_2_before_writing(tmp_path, capsys, value):
    data = tmp_path / "data.csv"
    dn.SampleSet(2, np.random.default_rng(1).standard_normal((200, 2))).to_csv(data)
    out = tmp_path / "p.csv"
    assert run("rho", "--samples", data, "--bandwidth", value, "--out", out) == 2
    assert "bandwidth" in capsys.readouterr().err
    body = tmp_path / "fit.json"
    assert run("fit", "--data", data, "--floor", value, "--out", body) == 2
    assert "floor" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_output_files_take_the_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        assert run("rho", "--density", "gaussian-identity-2d", "--grid-n", 64,
                   "--out", tmp_path / "p.csv") == 0
    finally:
        os.umask(old)
    for name in ("p.csv", "p.meta.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


def test_density_json_reads_grid_n(tmp_path):
    # a JSON density's body-based parts use the --grid-n grid, as the
    # shorthands do, also inside a mixture
    l1 = {"type": "uniform_over_body", "body": ge.body_to_dict(ge.DictionaryPolytopeBody(np.eye(2)))}
    (tmp_path / "l1.json").write_text(json.dumps(l1))
    for density, out in (("uniform-l1-2d", "short.csv"), (tmp_path / "l1.json", "file.csv")):
        assert run("rho", "--density", density, "--grid-n", 256, "--out", tmp_path / out) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "short.csv").read_bytes()

    ellipse = ge.EllipsoidBody(np.diag([1.5, 0.7]))
    mix = {"type": "mixture", "weights": [0.5, 0.3, 0.2], "components": [
        {"type": "gaussian", "covariance": [[2.0, 0.4], [0.4, 1.0]]},
        {"type": "gauge_induced", "body": ge.body_to_dict(ellipse), "profile": "gauss"},
        l1,
    ]}
    (tmp_path / "mix.json").write_text(json.dumps(mix))
    assert run("rho", "--density", tmp_path / "mix.json", "--grid-n", 256, "--out", tmp_path / "mix.csv") == 0
    grid = ge.make_grid(2, 256)
    spec = dn.MixtureDensity([0.5, 0.3, 0.2], [
        dn.GaussianDensity(np.array([[2.0, 0.4], [0.4, 1.0]])),
        dn.GaugeInducedDensity(ellipse, "gauss", grid),
        dn.GaugeInducedDensity(ge.DictionaryPolytopeBody(np.eye(2)), "indicator", grid),
    ])
    dn.rho_analytic(spec, grid).to_csv(tmp_path / "lib.csv")
    assert (tmp_path / "mix.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


# ---------------------------------------------------------------------------
# optimal
# ---------------------------------------------------------------------------


def test_optimal_gmm_outputs(tmp_path):
    out = tmp_path / "body.json"
    rc = run("optimal", "--density", "gmm-eps:0.1", "--out", out,
             "--grid-n", 512, "--format", "svg")
    assert rc == 0
    meta = read_json(tmp_path / "body.meta.json")
    assert meta["convexity"]["is_convex"] is False
    assert meta["volume_check"] == pytest.approx(1.0, rel=1e-9)
    body = ge.body_from_json(out.read_text())
    assert body.dim == 2
    assert (tmp_path / "body.boundary.svg").exists()
    # the boundary file holds the bytes np.savetxt writes for the polyline
    poly = ge.make_grid(2, 512).nodes * ge.radial_on_grid(body, ge.make_grid(2, 512))[:, None]
    np.savetxt(tmp_path / "ref.csv", poly, fmt="%.17g", delimiter=",", header="x,y")
    assert (tmp_path / "body.boundary.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_optimal_uniform_l1_matches_scaled_l1_ball(tmp_path):
    out = tmp_path / "l1.json"
    assert run("optimal", "--density", "uniform-l1-2d", "--out", out) == 0
    body = ge.body_from_json(out.read_text())
    grid = ge.make_grid(2, 1024)
    rho = ge.radial_on_grid(body, grid)
    # unit-volume dilate of the l1 ball: radius (1/sqrt2) / ||u||_1
    expected = (1.0 / math.sqrt(2.0)) / np.abs(grid.nodes).sum(axis=1)
    assert np.max(np.abs(rho / expected - 1.0)) < 1e-4


def test_optimal_byte_determinism(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / tag / "body.json"
        assert run("optimal", "--density", "gmm-eps:0.25", "--out", out,
                   "--grid-n", 256, "--seed", 11) == 0
        pairs.append(out)
    assert pairs[0].read_bytes() == pairs[1].read_bytes()
    assert (pairs[0].parent / "body.boundary.csv").read_bytes() == \
        (pairs[1].parent / "body.boundary.csv").read_bytes()
    assert (pairs[0].parent / "body.meta.json").read_bytes() == \
        (pairs[1].parent / "body.meta.json").read_bytes()


def test_optimal_roundtrip_gauge_identical(tmp_path):
    out = tmp_path / "body.json"
    assert run("optimal", "--density", "gmm-eps:0.4", "--out", out, "--grid-n", 256) == 0
    from_file = ge.body_from_json(out.read_text())
    grid = ge.make_grid(2, 256)
    profile = dn.rho_analytic(dn.two_gaussian_mixture(0.4), grid)
    direct = sb.optimal_body(profile).k_star
    pts = np.random.default_rng(0).uniform(-2, 2, size=(100, 2))
    assert np.array_equal(from_file.gauge_many(pts), direct.gauge_many(pts))


# ---------------------------------------------------------------------------
# convexity / gibbs-sample / fit
# ---------------------------------------------------------------------------


def test_convexity_command(tmp_path, capsys):
    body_path = tmp_path / "ell.json"
    body_path.write_text(ge.body_to_json(ge.EllipsoidBody(np.diag([2.0, 1.0]))))
    out = tmp_path / "verdict.json"
    assert run("convexity", "--body", body_path, "--out", out) == 0
    assert read_json(out)["is_convex"] is True
    # without --out the verdict goes to stdout
    assert run("convexity", "--body", body_path) == 0
    assert json.loads(capsys.readouterr().out)["is_convex"] is True


def test_gibbs_sample_command(tmp_path):
    body_path = tmp_path / "ell.json"
    body = ge.EllipsoidBody(np.diag([1.5, 0.8]))
    body_path.write_text(ge.body_to_json(body))
    out = tmp_path / "draws.csv"
    assert run("gibbs-sample", "--body", body_path, "--n", 4000, "--out", out, "--seed", 5) == 0
    samples = dn.SampleSet.from_csv(out)
    assert samples.dim == 2 and samples.m == 4000
    gauges = body.gauge_many(samples.points)
    assert abs(gauges.mean() - 2.0) < 5.0 * math.sqrt(2.0 / 4000)
    out2 = tmp_path / "draws2.csv"
    assert run("gibbs-sample", "--body", body_path, "--n", 4000, "--out", out2, "--seed", 5) == 0
    assert out.read_bytes() == out2.read_bytes()
    assert run("gibbs-sample", "--body", body_path, "--n", 0, "--out", out) == 2


def test_fit_command_with_report(tmp_path):
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((600, 2)) @ np.diag([2.0, 1.0])
    data = tmp_path / "data.csv"
    dn.SampleSet(2, pts).to_csv(data)
    out = tmp_path / "fit.json"
    report = tmp_path / "report.json"
    assert run("fit", "--family", "ellipsoid", "--data", data, "--out", out,
               "--report", report, "--iters", 40) == 0
    rep = read_json(report)
    trace = rep["risk_trace"]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert rep["final_risk"] == trace[-1]
    body = ge.body_from_json(out.read_text())
    assert body.dim == 2


def test_fit_union_alias(tmp_path):
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((300, 2))
    data = tmp_path / "data.csv"
    dn.SampleSet(2, pts).to_csv(data)
    out = tmp_path / "u.json"
    assert run("fit", "--family", "union", "--data", data, "--out", out,
               "--L", 2, "--iters", 15, "--grid-n", 256) == 0
    body = ge.body_from_json(out.read_text())
    assert body.dim == 2


def test_fit_union_honors_grid_n(tmp_path):
    """--grid-n is the union's volume-normalization grid; 1024 is the default."""
    # a cross of two thin clusters, so the fit keeps two parts and normalizes their union
    z = np.random.default_rng(4).standard_normal((300, 2))
    samples = dn.SampleSet(2, np.vstack([z[:150] * [2.0, 0.2], z[150:] * [0.2, 2.0]]))
    data = tmp_path / "data.csv"
    samples.to_csv(data)

    def fit_text(*flags):
        out = tmp_path / "u.json"
        assert run("fit", "--family", "union", "--data", data, "--out", out, "--L", 2, *flags) == 0
        return out.read_text()

    coarse, fine, default = fit_text("--grid-n", 64), fit_text("--grid-n", 1024), fit_text()
    assert coarse != fine
    assert default == fine
    cfg = sb.learn.FitConfig(family="union_ellipsoids", L=2)
    library = sb.learn.fit_union_ellipsoids(samples, cfg).body
    assert ge.body_to_json(ge.body_from_json(default)) == ge.body_to_json(library)


# ---------------------------------------------------------------------------
# verify / reproduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite", sorted(cli.VERIFY_SUITES))
def test_verify_suites_pass(tmp_path, suite):
    out = tmp_path / f"{suite}.json"
    assert run("verify", suite, "--out", out, "--grid-n", 512) == 0
    assert read_json(out)["passed"] is True


def test_verify_failure_maps_to_exit_4(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.VERIFY_SUITES, "lutwak",
                        lambda grid, seed: (False, {"passed": False}))
    assert run("verify", "lutwak", "--out", tmp_path / "r.json") == 4
    assert read_json(tmp_path / "r.json")["passed"] is False


@pytest.mark.parametrize("seed", [5, 32, 327, 374])
def test_verify_gibbs_passes_seeds_the_old_ks_bound_failed(tmp_path, seed):
    # 1.63/sqrt(n) failed a correct sampler on these seeds (about 1% of all)
    out = tmp_path / "g.json"
    assert run("verify", "gibbs", "--seed", seed, "--out", out) == 0
    report = read_json(out)
    assert report["false_alarm_rate"] == 1e-6
    assert report["ks_bound"] == pytest.approx(2.6934 / math.sqrt(report["n"]), rel=1e-4)


def test_verify_gibbs_catches_radii_off_by_3_percent(tmp_path, monkeypatch):
    exact = cli.gb.sample_gibbs

    def scaled(*args, **kwargs):
        s = exact(*args, **kwargs)
        return dn.SampleSet(s.dim, 1.03 * s.points)

    monkeypatch.setattr(cli.gb, "sample_gibbs", scaled)
    out = tmp_path / "g.json"
    assert run("verify", "gibbs", "--out", out) == 4
    assert read_json(out)["ks_statistic"] > read_json(out)["ks_bound"]


def test_verify_lipschitz_bound_holds_and_is_nearly_tight(tmp_path):
    # the seed whose bodies broke the old 1/r bound
    out = tmp_path / "l.json"
    assert run("verify", "lipschitz", "--seed", 855075663, "--out", out) == 0
    report = read_json(out)
    assert report["worst_violation"] <= report["slack"]
    assert report["max_bound_ratio"] > 0.999


def test_verify_lipschitz_catches_a_gauge_with_jumps(tmp_path, monkeypatch):
    exact = ge.RadialGridBody.gauge_many

    def jumpy(self, points):
        # steps of 0.01 every 1e-4 in norm
        return exact(self, points) + 0.01 * (np.floor(1e4 * np.linalg.norm(points, axis=1)) % 2)

    monkeypatch.setattr(ge.RadialGridBody, "gauge_many", jumpy)
    assert run("verify", "lipschitz", "--out", tmp_path / "l.json") == 4


def test_numerical_failure_maps_to_exit_3(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise ge.NumericalFailure("quadrature stalled")
    monkeypatch.setattr(cli.dn, "rho_analytic", boom)
    assert run("rho", "--density", "gaussian-identity-2d", "--out", tmp_path / "x.csv") == 3


def test_reproduce_l2_supports(tmp_path):
    outdir = tmp_path / "fig"
    assert run("reproduce", "l2-supports", "--out", outdir, "--grid-n", 512) == 0
    summary = read_json(outdir / "l2_supports_summary.json")
    assert sorted(summary) == ["const", "lobe", "wiggle3", "wiggle5"]
    for entry in summary.values():
        assert entry["constant_within_2pct"] is True
    for name in summary:
        for ext in (".profile.csv", ".inner.csv", ".outer.csv", ".svg"):
            assert (outdir / f"l2_supports_{name}{ext}").exists()


def test_reproduce_gmm_bodies(tmp_path):
    outdir = tmp_path / "fig"
    assert run("reproduce", "gmm-bodies", "--out", outdir, "--grid-n", 512) == 0
    summary = read_json(outdir / "gmm_bodies_summary.json")
    assert summary["0.01"]["is_convex"] is False
    assert summary["0.1"]["is_convex"] is False
    assert summary["0.75"]["is_convex"] is True
    assert (outdir / "gmm_body_eps_0.75.json").exists()
    assert (outdir / "gmm_body_eps_0.75.svg").exists()


def test_reproduce_gmm_critical_eps(tmp_path):
    outdir = tmp_path / "fig"
    assert run("reproduce", "gmm-critical-eps", "--out", outdir, "--grid-n", 512) == 0
    payload = read_json(outdir / "gmm_critical_eps.json")
    assert 0.30 < payload["eps_critical"] < 0.45
    assert payload["in_expected_bracket"] is True
    trace = payload["trace"]
    assert trace[0]["eps"] == 0.05 and trace[0]["is_convex"] is False
    assert trace[1]["eps"] == 0.95 and trace[1]["is_convex"] is True


# ---------------------------------------------------------------------------
# config, formatting, entry points
# ---------------------------------------------------------------------------


def test_config_file_defaults_and_flag_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid-n": 128, "seed": 5}))
    out = tmp_path / "p.csv"
    assert run("rho", "--density", "gaussian-identity-2d", "--out", out, "--config", conf) == 0
    assert read_json(tmp_path / "p.meta.json")["grid_n"] == 128
    out2 = tmp_path / "p2.csv"
    assert run("rho", "--density", "gaussian-identity-2d", "--out", out2,
               "--config", conf, "--grid-n", 64) == 0
    assert read_json(tmp_path / "p2.meta.json")["grid_n"] == 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"wat": 1}))
    assert run("rho", "--density", "gaussian-identity-2d", "--out", out, "--config", bad) == 2


def test_config_bad_choice_fails_like_the_flag(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"format": "pdf"}))
    out = tmp_path / "b.json"
    assert run("optimal", "--density", "gmm-eps:0.5", "--out", out, "--grid-n", 64,
               "--config", conf) == 2
    from_config = capsys.readouterr().err.splitlines()[-1]
    assert run("optimal", "--density", "gmm-eps:0.5", "--out", out, "--format", "pdf") == 2
    assert from_config == capsys.readouterr().err.splitlines()[-1]
    assert "invalid choice: 'pdf'" in from_config
    assert not out.exists()


def test_convexity_grid_n_applies_to_bodies_without_a_grid(tmp_path, capsys):
    # a cross-shaped mixture, so the fitted union of two ellipses is not convex
    data = tmp_path / "data.csv"
    dn.sample_density(dn.two_gaussian_mixture(0.05), 1000, seed=6).to_csv(data)
    union = tmp_path / "union.json"
    assert run("fit", "--family", "union", "--data", data, "--iters", 5, "--out", union) == 0
    radial = tmp_path / "radial.json"
    assert run("optimal", "--density", "gmm-eps:0.25", "--out", radial, "--grid-n", 256) == 0
    capsys.readouterr()
    for body, differ in ((union, True), (radial, False)):
        outputs = []
        for n in (64, 1024):
            assert run("convexity", "--body", body, "--grid-n", n) == 0
            outputs.append(capsys.readouterr().out)
        margins = [json.loads(o)["margin"] for o in outputs]
        assert (margins[0] != margins[1]) == differ
        assert (outputs[0] != outputs[1]) == differ


def test_convexity_of_points_missing_the_origin_exits_2(tmp_path, capsys):
    nodes = ge.make_grid(3, 128).nodes
    half = nodes[nodes[:, 2] > 0.1]
    grid = ge.SphericalGrid(3, half, np.full(len(half), 0.1))
    body_path = tmp_path / "half.json"
    body_path.write_text(ge.body_to_json(ge.RadialGridBody(grid, np.ones(len(half)))))
    assert run("convexity", "--body", body_path) == 2
    assert "origin is not interior" in capsys.readouterr().err


def test_config_loses_to_an_abbreviated_flag(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grid-n": 128}))
    out = tmp_path / "p.csv"
    assert run("rho", "--density", "gaussian-identity-2d", "--out", out,
               "--config", conf, "--grid", 64) == 0
    assert read_json(tmp_path / "p.meta.json")["grid_n"] == 64


def test_config_values_are_typed_by_the_parser(tmp_path):
    conf = tmp_path / "conf.json"
    out = tmp_path / "p.csv"
    for entry in ({"seed": 5.7}, {"grid-n": "many"}, {"out": [str(out)]}, {"density": True}):
        conf.write_text(json.dumps(entry))
        assert run("rho", "--density", "gaussian-identity-2d", "--out", out,
                   "--config", conf) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json"]


def test_config_skips_keys_of_other_commands(tmp_path):
    # --iters and --family belong to fit; rho ignores both
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"iters": 8, "family": "union", "grid_n": 64, "alpha": None}))
    out = tmp_path / "p.csv"
    assert run("rho", "--density", "gaussian-identity-2d", "--out", out, "--config", conf) == 0
    meta = read_json(tmp_path / "p.meta.json")
    assert meta["grid_n"] == 64 and meta["alpha"] == 1.0


def test_config_unknown_key_exits_2(tmp_path, capsys):
    out = tmp_path / "p.csv"
    for key, value in (("grid", 1), ("help", 1), ("config", 1), ("trials", 1), ("step", 0.5)):
        conf = tmp_path / f"{key}.json"
        conf.write_text(json.dumps({key: value}))
        assert run("rho", "--density", "gaussian-identity-2d", "--out", out,
                   "--config", conf) == 2
        assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_config_supplies_required_body(tmp_path, capsys):
    body_path = tmp_path / "ell.json"
    body_path.write_text(ge.body_to_json(ge.EllipsoidBody(np.diag([2.0, 1.0]))))
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"body": str(body_path)}))
    out = tmp_path / "verdict.json"
    assert run("convexity", "--config", conf, "--out", out) == 0
    assert read_json(out)["is_convex"] is True
    # an explicit flag still wins over the config
    conf.write_text(json.dumps({"body": str(tmp_path / "missing.json")}))
    assert run("convexity", "--config", conf, "--body", body_path) == 0
    assert json.loads(capsys.readouterr().out)["is_convex"] is True
    # with neither, argparse still demands the option
    assert run("convexity", "--out", out) == 2
    assert "the following arguments are required: --body" in capsys.readouterr().err


def test_config_supplies_required_data(tmp_path):
    rng = np.random.default_rng(4)
    data = tmp_path / "data.csv"
    dn.SampleSet(2, rng.standard_normal((300, 2)) @ np.diag([2.0, 1.0])).to_csv(data)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"data": str(data), "iters": 5}))
    assert run("fit", "--config", conf, "--out", tmp_path / "a.json") == 0
    assert run("fit", "--data", data, "--iters", 5, "--out", tmp_path / "b.json") == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_json_writer_precision_and_order():
    obj = {"b": math.pi, "a": [1, True, None, np.int64(2), np.bool_(False)], "c": np.array([0.1, -0.0, 1e-300])}
    text = cli._json_text(obj)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "3.141592653589793" in text
    back = json.loads(text)
    assert back == {"b": math.pi, "a": [1, True, None, 2, False], "c": [0.1, -0.0, 1e-300]}
    assert math.copysign(1.0, back["c"][1]) == -1.0
    for bad in (float("nan"), np.array([1.0, np.inf])):
        with pytest.raises(ValueError):
            cli._json_text({"x": bad})


def test_svg_structure(tmp_path):
    outdir = tmp_path / "fig"
    assert run("reproduce", "gmm-bodies", "--out", outdir, "--grid-n", 256) == 0
    svg = (outdir / "gmm_body_eps_0.25.svg").read_text()
    assert svg.startswith("<svg ")
    assert 'viewBox="0 0 512 512"' in svg
    assert svg.count("<path ") == 1
    d = re.search(r'd="([^"]+)"', svg).group(1)
    assert d.startswith("M") and d.rstrip().endswith("Z")
    coords = [float(v) for v in re.findall(r"-?\d+\.\d+", d)]
    assert min(coords) >= 0.0 and max(coords) <= 512.0
    # autoscaled: the largest boundary excursion touches the 240px radius
    assert max(abs(c - 256.0) for c in coords) == pytest.approx(240.0, abs=0.01)


def test_bad_flag_exits_2_and_help_exits_0(tmp_path, capsys):
    assert run("optimal", "--format", "exe") == 2
    # only optimal writes an svg
    out = tmp_path / "p.csv"
    assert run("rho", "--density", "gaussian-identity-2d", "--out", out, "--format", "svg") == 2
    assert not out.exists()
    assert run("optimal", "--help") == 0
    assert run("verify", "no-such-suite") == 2
    capsys.readouterr()


def test_module_entrypoint(tmp_path):
    out = tmp_path / "p.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "starbody.cli", "rho", "--density",
         "gaussian-identity-2d", "--grid-n", "64", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists() and (tmp_path / "p.meta.json").exists()


def loaded_modules(code):
    """Names of the modules a fresh interpreter has loaded after running code."""
    env = {**os.environ, "PYTHONPATH": str(Path(ge.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code + "; import sys; print(sorted(sys.modules))"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def scipy_modules(loaded):
    return {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_import_leaves_heavy_scipy_submodules_unloaded():
    # checks which modules load, not how long that takes
    planar = loaded_modules("import starbody.cli; import starbody.geometry as g; "
                            "g.make_grid(2, 64); g.make_grid(3, 64)")
    assert not scipy_modules(planar)
    # the Halton grid of d >= 4 needs scipy.special's normal quantile and nothing more,
    # also to draw directions on it: its nearest-node k-d tree is built for a gauge only
    halton = loaded_modules(
        "import numpy as np; import starbody.cli; from starbody import density as dn, geometry as g, gibbs as gb; "
        "grid = g.make_grid(4, 256); body = g.EllipsoidBody(np.eye(4)); gb.sample_gibbs(body, 1000, grid=grid); "
        "dn.GaugeInducedDensity(body, 'indicator', grid).sample(1000, np.random.default_rng(0))"
    )
    assert scipy_modules(halton) <= scipy_modules(loaded_modules("import scipy.special"))
    assert "scipy.special" in halton and "scipy.spatial" not in halton


def test_expected_gauge_on_a_spec_loads_no_scipy():
    # the identity needs only the spec's radial values, not a d = 3 grid body
    loaded = loaded_modules(
        "import numpy as np; from starbody import density as dn, geometry as g; "
        "dn.expected_gauge(g.EllipsoidBody(np.diag([1.5, 1.0, 0.7])), "
        "dn.GaussianDensity(np.diag([2.0, 1.0, 0.5])))"
    )
    assert not scipy_modules(loaded)


def test_product_grid_bodies_load_no_scipy():
    # cells come from arithmetic, so a d = 3 grid body needs no k-d tree;
    # check_convexity in d = 3 still builds a Qhull hull and is left out
    loaded = loaded_modules(
        "import numpy as np; from starbody import geometry as g, gibbs as gb; "
        "grid = g.make_grid(3, 512); "
        "body = g.RadialGridBody(grid, np.random.default_rng(0).uniform(0.5, 1.5, grid.n)); "
        "body.gauge_many(np.random.default_rng(1).normal(size=(100, 3))); "
        "draws = gb.sample_gibbs(body, 2000, seed=2, grid=grid); "
        "gb.gauge_ks_statistic(body, draws)"
    )
    assert not scipy_modules(loaded)


def test_planar_dictionary_certificates_load_no_scipy():
    # the planar facets come from the monotone chain, not Qhull
    loaded = loaded_modules(
        "import numpy as np; from starbody import geometry as g; "
        "b = g.DictionaryPolytopeBody(np.array([[1.0, 0.3, -0.5], [0.2, 1.0, 0.7]])); "
        "b.gauge_certificate_many(np.random.default_rng(0).normal(size=(50, 2)))"
    )
    assert not scipy_modules(loaded)


def test_commands_without_hull_or_tree_load_no_scipy(tmp_path):
    # a planar hull is numpy's monotone chain, so planar verdicts count here
    body = tmp_path / "body.json"
    body.write_text(ge.body_to_json(ge.EllipsoidBody(np.diag([1.5, 0.7]))))
    commands = [
        ["rho", "--density", "gaussian-identity-2d", "--out", "prof.csv", "--grid-n", "256"],
        ["optimal", "--density", "gmm-eps:0.25", "--out", "gmm.json", "--format", "svg"],
        ["optimal", "--density", "uniform-l1-2d", "--out", "l1.json"],
        ["gibbs-sample", "--body", str(body), "--n", "2000", "--out", "draws.csv"],
        ["fit", "--family", "ellipsoid", "--data", "draws.csv", "--out", "fit.json", "--iters", "5"],
        ["fit", "--family", "dictionary", "--data", "draws.csv", "--out", "dict.json", "--iters", "5"],
        ["optimal", "--samples", "draws.csv", "--out", "data_body.json"],
        ["convexity", "--body", "gmm.json"],
        ["verify", "gibbs", "--out", "gibbs.json"],
        ["reproduce", "gmm-bodies", "--out", "figures"],
        ["reproduce", "gmm-critical-eps", "--out", "figures"],
    ]
    code = (
        "import os, sys; from starbody.cli import main; os.chdir(sys.argv[1])\n"
        "for argv in " + repr(commands) + ":\n"
        "    assert main(argv) == 0, argv\n"
        "    print('loaded', argv[0], sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ge.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("loaded ")] == [
        f"loaded {argv[0]} []" for argv in commands
    ]
