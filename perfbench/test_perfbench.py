"""The benchmark's own tests: tiny runs of every workload, tracer neutrality.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import starbody  # noqa: E402
import starbody.cli  # noqa: E402,F401

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKDIR,
    CliCold,
    CliSizes,
    DictionarySizes,
    FitDictionary,
    Job,
    Roundtrip,
    RoundtripSizes,
    Step,
)

ROUNDTRIP_STEPS = [
    "rho_analytic", "optimal_body", "check_convexity", "sample_gibbs", "gauge_ks_statistic",
    "fit_ellipsoid", "fit_union_ellipsoids", "held_out_gauges_ellipsoid", "held_out_gauges_union",
    "rho_empirical", "optimal_body_empirical",
]
CHECKED = {
    "optimal_body", "gauge_ks_statistic", "fit_ellipsoid", "fit_union_ellipsoids",
    "held_out_gauges_ellipsoid", "held_out_gauges_union", "optimal_body_empirical",
    "fit_dictionary", "gauge_many",
}


@pytest.fixture
def workdir():
    """Scratch space inside the checkout, removed afterwards."""
    path = WORKDIR / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    with contextlib.suppress(OSError):
        WORKDIR.rmdir()


def tiny(name, workdir):
    if name == "roundtrip":
        return Roundtrip(RoundtripSizes(grid_n=128, draws=4000, fit_m=1000))
    if name == "fit-dictionary":
        return FitDictionary(DictionarySizes(m=12, held_out=20, dims=(2, 3), max_iters=2, convexity_trials=4))
    sizes = CliSizes(data_m=400, gibbs_n=2000, verify=("lutwak", "lipschitz"), extra_args=("--grid-n", "64"))
    return CliCold(sizes, workdir=workdir / "cli")


def run_cycle(wl, tracer=None):
    jobs = []
    for inp in wl.cycle(7, 0):
        if tracer is None:
            jobs.append(wl.run_job(inp))
        else:
            with tracer.installed(starbody):
                jobs.append(wl.run_job(inp, tracer))
    return jobs


def assert_every_step_and_check_ran(jobs, expected_steps):
    for job in jobs:
        names = [s.name for s in job.steps]
        assert names == expected_steps(job), job.name
        for step in job.steps:
            assert step.seconds > 0
            if step.error is None and step.name in CHECKED:
                assert step.checks, (job.name, step.name)


def test_roundtrip_tiny(workdir):
    wl = tiny("roundtrip", workdir)
    wl.prepare(starbody, None)
    jobs = run_cycle(wl)
    assert [j.name for j in jobs] == [
        "d2-gaussian", "d3-gaussian", "d4-gaussian", "d2-gmm-eps", "d3-gaussian", "d4-gaussian",
        "d2-gauge-induced", "d3-gaussian", "d4-gaussian",
    ]
    assert_every_step_and_check_ran(jobs, lambda job: ROUNDTRIP_STEPS)
    assert all("optimizer.gaussian_margin.d3" in j.accuracy for j in jobs if j.name == "d3-gaussian")
    attempted, failed, correct, failures = run.summarize_steps(jobs)
    assert attempted == 9 * len(ROUNDTRIP_STEPS) and correct
    assert failed == len(failures)


def test_fit_dictionary_tiny(workdir):
    wl = tiny("fit-dictionary", workdir)
    wl.prepare(starbody, None)
    jobs = run_cycle(wl)
    assert [j.name for j in jobs] == ["d2", "d3"]
    assert_every_step_and_check_ran(jobs, lambda job: ["fit_dictionary", "gauge_many", "check_convexity"])
    assert run.summarize_steps(jobs)[1:3] == (0, True)


def test_cli_cold_tiny(workdir):
    wl = tiny("cli-cold", workdir)
    wl.prepare(None, run.configure_environment())
    jobs = run_cycle(wl)
    assert len(jobs) == 10 + 2 + 3
    for job in jobs:
        (step,) = job.steps
        assert step.error is None, step.error
        assert step.checks and all(ok for _, ok, _ in step.checks), (job.name, step.checks)


@pytest.mark.parametrize("name", ["roundtrip", "fit-dictionary", "cli-cold"])
def test_tracer_is_neutral(name, workdir):
    wl = tiny(name, workdir)
    wl.prepare(starbody, run.configure_environment())
    wl.in_process = True
    originals = {k: v for k, v in vars(starbody.geometry).items() if callable(v)}
    plain = run_cycle(wl)
    tracer = Tracer()
    traced = run_cycle(wl, tracer)
    assert [j.digest() for j in traced] == [j.digest() for j in plain]
    assert {k: v for k, v in vars(starbody.geometry).items() if callable(v)} == originals
    metrics = layer_metrics(tracer)
    assert set(metrics) <= set(run.PER_LAYER)
    if name == "fit-dictionary":
        assert metrics["geometry.lp_solves"] > 0 and metrics["learn.fit_dictionary_s_per_iter"] > 0
    if name == "roundtrip":
        assert metrics["geometry.lp_solves"] == 0 and metrics["gibbs.draws_per_s.d3"] > 0
        assert all("gibbs.moment_max_z.d3" in j.accuracy for j in traced if j.name == "d3-gaussian")
    if name == "cli-cold":
        assert metrics["cli.work_s"] > metrics["cli.self_s"] > 0


def test_fails_without_sources(workdir):
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_p90_is_nearest_rank():
    assert run.p90([float(i) for i in range(18)]) == (16.0, 1)
    assert run.p90([float(i) for i in range(12)]) == (10.0, 1)
    assert run.p90([float(i) for i in range(100)]) == (89.0, 10)


def test_only_known_defects_keep_correct():
    def job(step_name, error):
        return Job("j", [Step(step_name, 1.0, error)])

    known = job("fit_union_ellipsoids", "ValueError: Probabilities are not non-negative")
    assert run.summarize_steps([known])[1:3] == (1, True)
    missing = job("check_convexity", "MissingInput: needs the output of failed step 'fit_dictionary'")
    assert run.summarize_steps([missing])[1:3] == (1, True)
    for unexpected in (
        job("sample_gibbs", "ValueError: Probabilities are not non-negative"),
        job("fit_union_ellipsoids", "LinAlgError: Singular matrix"),
        job("check_convexity", "MissingInput: needs the output of failed step 'optimal_body'"),
        job("optimal --density uniform-l1-2d", "exit 1: Traceback"),
    ):
        assert run.summarize_steps([known, unexpected])[1:3] == (2, False), unexpected.steps[0]
