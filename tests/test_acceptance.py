"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one PASS/FAIL line (run with ``pytest -s`` to stream
them). The heavy Monte Carlo items use a million replications each and the
whole module stays within a few minutes on one machine.
"""

import functools
import math

import numpy as np
import pytest

import clusterline as cl
from clusterline import IntervalModel, ModelParams, SampleConfig

E = math.e


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL: {text}")
                raise
            print(f"criterion {num:2d} PASS: {text}")

        return wrapper

    return deco


def random_models(count, seed=20240601):
    """Random models with lam (L + eps) <= 30 and floor(L / eps) <= 40."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        ratio = rng.uniform(1.0, 40.0)
        eps = rng.uniform(0.05, 3.0)
        length = ratio * eps
        lam = rng.uniform(0.3, 30.0) / (length + eps)
        out.append(IntervalModel(ModelParams(lam, eps), length))
    return out


@criterion(1, "printed unit-radius length-4 pmf polynomials reproduced to 1e-12")
def test_criterion_01_printed_pmf_polynomials():
    for lam in (0.5, 1.0, 2.0):
        q = lam * math.exp(-lam)
        model = IntervalModel(ModelParams(lam, 1.0), 4.0)
        expected = {
            0: 1.0 - 3.0 * q + 2.0 * q**2 - q**3 / 6.0,
            1: 3.0 * q - 4.0 * q**2 + 0.5 * q**3,
            2: 2.0 * q**2 - 0.5 * q**3,
            3: q**3 / 6.0,
        }
        for n, value in expected.items():
            assert cl.pmf_complete(model, n) == pytest.approx(value, abs=1e-12)
        for n in range(4, 11):
            assert cl.pmf_complete(model, n) == 0.0


@criterion(2, "normalization to 1e-9 and exact support over 500 random models")
def test_criterion_02_normalization_and_support():
    for model in random_models(500):
        bound = int(model.length / model.params.radius + 1e-12)
        comp = cl.pmf_complete_table(model)
        assert abs(comp.tail_mass) <= 1e-9
        for n in (bound + 1, bound + 3):
            assert cl.pmf_complete(model, n) == 0.0
        assert abs(cl.pmf_incomplete_table(model).tail_mass) <= 1e-9
        assert abs(cl.pmf_circle_table(model).tail_mass) <= 1e-9


@criterion(3, "moment identities: series vs pmf sums (1e-9 rel) and closed forms (1e-12)")
def test_criterion_03_moment_consistency():
    for model in random_models(500):
        table = cl.pmf_complete_table(model)
        for m in range(1, 5):
            reference = math.fsum(n**m * p for n, p in enumerate(table.probs))
            value = cl.moment_complete(model, m)
            if reference > 1e-300:
                assert value == pytest.approx(reference, rel=1e-9, abs=0.0)
            else:
                assert value == pytest.approx(reference, abs=1e-12)
        mean = cl.moment_complete(model, 1)
        var = cl.moment_complete(model, 2) - mean**2
        assert cl.mean_complete(model) == pytest.approx(mean, abs=1e-12)
        assert cl.var_complete(model) == pytest.approx(var, abs=max(1e-12, 1e-12 * abs(var)))


@criterion(4, "vanishing-radius limit matches the Poisson law to 1e-4")
def test_criterion_04_poisson_limit():
    for lam in (1.0, 2.0):
        model = IntervalModel(ModelParams(lam, 1e-6), 1.0)
        for n in range(9):
            poisson = math.exp(-lam) * lam**n / math.factorial(n)
            assert cl.pmf_complete(model, n) == pytest.approx(poisson, abs=1e-4)


@criterion(5, "transform grid matches closed forms to 1e-7 (denominator exponent n+1)")
def test_criterion_05_transform_validation():
    for lam, eps in ((1.0, 1.0), (2.0, 0.5)):
        params = ModelParams(lam, eps)
        rows = cl.count_transform_residuals(params, range(4), (0.5, 1.0, 2.0))
        assert max(row["abs_err"] for row in rows) < 1e-7
        # the competing exponent (one lower in the denominator) must miss
        for row in rows:
            w = (lam + row["s"]) * eps
            competing = lam ** row["n"] * math.exp(w) / (row["s"] * math.exp(w) + lam) ** row["n"]
            assert abs(row["numeric"] - competing) > 1e-5

    params = ModelParams(1.0, 1.0)
    spec = cl.QuadratureSpec(abs_tol=1e-10, upper_cut=60.0)

    def mean_curve(xs):
        return np.array(
            [cl.mean_complete(IntervalModel(params, x)) if x > 0 else 0.0 for x in np.atleast_1d(xs)]
        )

    numeric = cl.numeric_laplace(mean_curve, 1.0, spec, breakpoints=[float(k) for k in range(1, 60)])
    assert cl.laplace_moment_closed(params, 1, 1.0) == pytest.approx(numeric, abs=1e-7)

    params2 = ModelParams(2.0, 0.5)

    def m2_curve(xs):
        return np.array(
            [cl.moment_complete(IntervalModel(params2, x), 2) if x > 0 else 0.0 for x in np.atleast_1d(xs)]
        )

    spec2 = cl.QuadratureSpec(abs_tol=1e-10, upper_cut=70.0)
    numeric2 = cl.numeric_laplace(
        m2_curve, 0.7, spec2, breakpoints=[0.5 * k for k in range(1, 141)]
    )
    assert cl.laplace_moment_closed(params2, 2, 0.7) == pytest.approx(numeric2, abs=1e-7)


@criterion(6, "million-replication MC agrees with every analytic count law (4 sigma)")
def test_criterion_06_monte_carlo_agreement():
    params = ModelParams(1.0, 1.0)
    config = SampleConfig(seed=61803, replications=1_000_000, parallelism_hint=1)
    model4 = IntervalModel(params, 4.0)
    model2 = IntervalModel(params, 2.0)
    cov = cl.coverage_prob(model2)
    jobs = [
        ("complete", 4.0, cl.pmf_complete_table(model4)),
        ("incomplete", 4.0, cl.pmf_incomplete_table(model4)),
        ("circle", 4.0, cl.pmf_circle_table(model4)),
        (
            "coverage",
            2.0,
            cl.DistributionTable(support_max=1, probs=(1.0 - cov, cov), tail_mass=0.0),
        ),
    ]
    for scenario, length, table in jobs:
        empirical = cl.estimate(params, scenario, length, config)
        report = cl.compare_pmf(empirical, table)
        assert report.passed, f"{scenario}: max|z| = {report.max_abs_z:.2f}"
        assert report.max_abs_z <= 4.0


@criterion(7, "span and cycle-sum samples pass KS against the mixed laws")
def test_criterion_07_cluster_law_validation():
    params = ModelParams(1.0, 1.0)
    config = SampleConfig(seed=271828, replications=100_000)

    spans = cl.estimate(params, "b_law", 1.0, config)
    report = cl.compare_continuous(spans, cl.cluster_length_cdf(params))
    assert report.passed
    assert report.ks_statistic <= 1.63 / math.sqrt(spans.size)

    singleton = float((spans == params.radius).mean())
    sigma = math.sqrt(singleton * (1.0 - singleton) / spans.size)
    assert abs(singleton - math.exp(-1.0)) <= 4.0 * sigma

    for order in (1, 2):
        sums = cl.estimate(params, "u_law", 1.0, config, cycle_order=order)
        report = cl.compare_continuous(sums, cl.cycle_sum_cdf(params, order))
        assert report.passed
        assert report.ks_statistic <= 1.63 / math.sqrt(sums.size)


@criterion(8, "intensity sweep reproduces the figure anchors (peak, critical points)")
def test_criterion_08_figure_reproduction():
    import csv
    import io
    from contextlib import redirect_stdout

    from clusterline.cli import main

    model = IntervalModel(ModelParams(1.0, 1.0), 4.0)

    # mean curve: maximum at intensity 1 with value 3/e
    lam_star, peak = cl.mean_peak(model)
    assert lam_star == pytest.approx(1.0, abs=1e-12)
    assert peak == pytest.approx(3.0 / E, abs=1e-9)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main("sweep --curve mean --lambda 0.25:5:0.25 --epsilon 1 --length 4".split()) == 0
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == 20
    best = max(rows, key=lambda r: float(r["value"]))
    assert float(best["lambda"]) == 1.0
    means = {float(r["lambda"]): cl.mean_complete(IntervalModel(ModelParams(float(r["lambda"]), 1.0), 4.0)) for r in rows}
    assert means[1.0] == pytest.approx(3.0 / E, abs=1e-9)

    # variance curve: three critical intensities, derivative < 1e-5 at each
    points = cl.var_critical_points(model)
    assert len(points) == 3
    assert points[0] == pytest.approx(0.49, abs=0.01)
    assert points[1] == pytest.approx(1.0, abs=1e-12)
    assert points[2] == pytest.approx(1.78, abs=0.01)
    h = 1e-7
    for lam in points:
        up = cl.var_complete(IntervalModel(ModelParams(lam + h, 1.0), 4.0))
        down = cl.var_complete(IntervalModel(ModelParams(lam - h, 1.0), 4.0))
        assert abs(up - down) / (2.0 * h) < 1e-5

    # every pmf curve is critical at intensity 1
    for n in range(4):
        up = cl.pmf_complete(IntervalModel(ModelParams(1.0 + h, 1.0), 4.0), n)
        down = cl.pmf_complete(IntervalModel(ModelParams(1.0 - h, 1.0), 4.0), n)
        assert abs(up - down) / (2.0 * h) < 1e-5


@criterion(9, "coverage (renewal identity) vs MC on a 12-point grid; closed form reported")
def test_criterion_09_coverage_cross_validation():
    mismatches = []
    for lam in (0.5, 1.0, 2.0, 4.0):
        for ratio in (1.5, 2.5, 3.5):
            model = IntervalModel(ModelParams(lam, 1.0), ratio)
            analytic = cl.coverage_prob(model)
            empirical = cl.estimate(
                ModelParams(lam, 1.0),
                "coverage",
                ratio,
                SampleConfig(seed=314159, replications=100_000),
            )
            phat = empirical.estimate(1)
            sigma = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / empirical.total)
            assert abs(phat - analytic) <= 4.0 * sigma, (lam, ratio, phat, analytic)
            report = cl.coverage_report(model)
            mismatches.append(((lam, ratio), report.mismatch))
    # the printed closed form is experimental: report, never fail on it
    flagged = [point for point, bad in mismatches if bad]
    print(f"  closed-form coverage mismatches at {len(flagged)}/12 grid points: {flagged}")


@criterion(10, "same seed gives byte-identical simulation output at any parallelism")
def test_criterion_10_determinism(tmp_path):
    params = ModelParams(1.0, 1.0)
    runs = [
        cl.estimate(params, "complete", 4.0, SampleConfig(seed=7, replications=20_000, parallelism_hint=h))
        for h in (1, 2, 8)
    ]
    assert runs[0].counts == runs[1].counts == runs[2].counts

    from clusterline.cli import main

    # the CLI has no parallelism flag: the same argv, three times
    outputs = []
    for tag in "abc":
        out = tmp_path / f"sim_{tag}.csv"
        argv = (
            f"simulate --scenario circle --lambda 1 --epsilon 1 --length 4 "
            f"--samples 20000 --seed 99 --out {out}"
        )
        assert main(argv.split()) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    cmp_out = []
    for tag in "xyz":
        out = tmp_path / f"cmp_{tag}.json"
        argv = (
            f"compare --scenario incomplete --lambda 1 --epsilon 1 --length 4 "
            f"--samples 20000 --seed 123 --format json --out {out}"
        )
        assert main(argv.split()) == 0
        cmp_out.append(out.read_bytes())
    assert cmp_out[0] == cmp_out[1] == cmp_out[2]
