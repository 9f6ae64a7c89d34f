"""Optimal star-body regularizers for data sources.

Given a density or a sample set, the package computes the radial statistic
of the data, builds the star body it induces, normalizes it to the unique
unit-volume minimizer of the expected gauge, diagnoses convexity, evaluates
and samples the induced Gibbs density, and fits parametric star-body
families (ellipsoids, dictionary polytopes, unions of ellipsoids) by
empirical risk minimization.

Modules
-------
geometry
    Star-body representations, gauges, volumes, dual mixed volumes.
density
    Density specs, sample sets, radial statistics, expected gauge.
optimizer
    Optimal bodies, convexity diagnostics, the mixture convexity transition.
gibbs
    Gauge-induced Gibbs densities: normalizers, likelihoods, sampling.
learn
    ERM fitters over star-body families and validation experiments.
cli
    Command-line interface.
"""

from starbody.geometry import (
    DegenerateDirectionError,
    DictionaryPolytopeBody,
    DilateBody,
    EllipsoidBody,
    NumericalFailure,
    RadialGridBody,
    SphericalGrid,
    StarBody,
    UnboundedGaugeError,
    UnionBody,
    body_from_dict,
    body_from_json,
    body_to_dict,
    body_to_json,
    dilate,
    dual_mixed_volume,
    make_grid,
    radial_distance,
    volume,
    volume_normalize,
)

from starbody.density import (
    GaussianDensity,
    SampleSet,
    rho_analytic,
    rho_empirical,
)
from starbody.optimizer import (
    ConvexityReport,
    OptimalBodyResult,
    check_convexity,
    critical_epsilon_gmm,
    optimal_body,
)
from starbody.gibbs import (
    gauge_ks_statistic,
    log_normalizer,
    m_projection,
    mc_normalizer_estimate,
    nll,
    optimal_dilate,
    sample_gibbs,
)
from starbody.learn import (
    ConvergenceReport,
    FitConfig,
    GenGapReport,
    NoiseReport,
    RiskReport,
    convergence_experiment,
    fit,
    fit_dictionary,
    fit_ellipsoid,
    fit_union_ellipsoids,
    generalization_gap,
    noise_robustness,
)

__version__ = "0.1.0"
