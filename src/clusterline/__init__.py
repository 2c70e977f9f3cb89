"""Cluster statistics of one-dimensional Poisson sensor deployments.

Closed-form distributions, moments, and coverage probabilities for the
connected clusters formed by points of a Poisson process on an interval or
a circle, where points link whenever their gap is at most a fixed radius;
plus the Monte Carlo engine and statistical comparators that validate every
formula against simulation.

The quadrature check, the Monte Carlo engine and the comparators compute on
numpy arrays; their names load with their modules on first access, and the
array kernels behind the span and cycle-sum laws import numpy when called,
so importing the package, or evaluating the count laws, loads no numpy.
"""

import importlib

from .cluster_laws import (
    MixedLaw,
    ModelParams,
    cluster_length_cdf,
    cluster_length_density_at,
    cluster_length_law,
    cycle_sum_cdf,
    cycle_sum_density,
    laplace_cluster_length,
    laplace_cycle_length,
    laplace_cycle_sum,
    mean_cluster_length,
)
from .component_counts import (
    CoverageReport,
    DistributionTable,
    IntervalModel,
    coverage_prob,
    coverage_prob_closed,
    coverage_report,
    mean_complete,
    mean_peak,
    moment_complete,
    pmf_circle,
    pmf_circle_table,
    pmf_complete,
    pmf_complete_table,
    pmf_incomplete,
    pmf_incomplete_table,
    var_complete,
    var_critical_points,
)
from .errors import CapacityError, NormalizationError, PrecisionWarning, QuadratureError
from .special_fn import StirlingRow, partial_exp_sum, polylog_neg, stirling2, stirling_row

__version__ = "0.1.0"

# name -> the numpy-backed module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        (
            "QuadratureSpec",
            "count_transform_residuals",
            "laplace_moment_closed",
            "laplace_pmf_closed",
            "numeric_laplace",
            "spec_for_count_transform",
        ),
        "laplace_check",
    ),
    **dict.fromkeys(
        (
            "ClusterDecomposition",
            "EmpiricalDistribution",
            "PointSample",
            "SampleConfig",
            "circle_cluster_count",
            "coverage_indicator",
            "decompose",
            "estimate",
            "replication_rng",
            "sample_circle",
            "sample_interval",
        ),
        "mc_engine",
    ),
    **dict.fromkeys(("ComparisonReport", "OutcomeScore", "compare_continuous", "compare_pmf"), "stats_compare"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "CapacityError",
    "ClusterDecomposition",
    "ComparisonReport",
    "CoverageReport",
    "DistributionTable",
    "EmpiricalDistribution",
    "IntervalModel",
    "MixedLaw",
    "ModelParams",
    "NormalizationError",
    "OutcomeScore",
    "PointSample",
    "PrecisionWarning",
    "QuadratureError",
    "QuadratureSpec",
    "SampleConfig",
    "StirlingRow",
    "__version__",
    "circle_cluster_count",
    "cluster_length_cdf",
    "cluster_length_density_at",
    "cluster_length_law",
    "compare_continuous",
    "compare_pmf",
    "count_transform_residuals",
    "coverage_indicator",
    "coverage_prob",
    "coverage_prob_closed",
    "coverage_report",
    "cycle_sum_cdf",
    "cycle_sum_density",
    "decompose",
    "estimate",
    "laplace_cluster_length",
    "laplace_cycle_length",
    "laplace_cycle_sum",
    "laplace_moment_closed",
    "laplace_pmf_closed",
    "mean_cluster_length",
    "mean_complete",
    "mean_peak",
    "moment_complete",
    "numeric_laplace",
    "partial_exp_sum",
    "pmf_circle",
    "pmf_circle_table",
    "pmf_complete",
    "pmf_complete_table",
    "pmf_incomplete",
    "pmf_incomplete_table",
    "polylog_neg",
    "replication_rng",
    "sample_circle",
    "sample_interval",
    "spec_for_count_transform",
    "stirling2",
    "stirling_row",
    "var_complete",
    "var_critical_points",
]
