"""Command-line interface tests: outputs, determinism, exit codes."""

import json
import math
import re
import subprocess
import sys

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
    profile = dn.RadialProfile.from_csv(out)
    assert profile.grid.n == 256
    assert np.allclose(profile.values, expected, rtol=1e-12)


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
    assert (tmp_path / "body.boundary.csv").exists()
    assert (tmp_path / "body.boundary.svg").exists()


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
    # --trials belongs to convexity, --family to fit; rho ignores both
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"trials": 8, "family": "union", "grid_n": 64, "alpha": None}))
    out = tmp_path / "p.csv"
    assert run("rho", "--density", "gaussian-identity-2d", "--out", out, "--config", conf) == 0
    meta = read_json(tmp_path / "p.meta.json")
    assert meta["grid_n"] == 64 and meta["alpha"] == 1.0


def test_config_unknown_key_exits_2(tmp_path, capsys):
    out = tmp_path / "p.csv"
    for key in ("grid", "help", "config"):
        conf = tmp_path / f"{key}.json"
        conf.write_text(json.dumps({key: 1}))
        assert run("rho", "--density", "gaussian-identity-2d", "--out", out,
                   "--config", conf) == 2
        assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_json_writer_precision_and_order():
    text = cli._json_text({"b": math.pi, "a": [1, True, None]})
    assert text.index('"a"') < text.index('"b"')
    assert "3.1415926535897931" in text
    assert float("3.1415926535897931") == math.pi
    with pytest.raises(ValueError):
        cli._json_text({"x": float("nan")})


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
