"""The four benchmark workloads: seeded job lists, warm-up, census and gates.

A job is one call a user makes through clusterline's public API (or, for
``cli``, one spawn of ``python -m clusterline.cli``). Each job carries an
untimed correctness check; a check raises ``GateError`` on a wrong output.

Every generator takes the run seed and the pass index, so the same seed
gives the same inputs; draws are stratified so the work in a pass barely
depends on the seed, and no model repeats within a run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import clusterline as cl
from clusterline import IntervalModel, ModelParams, SampleConfig


class GateError(AssertionError):
    """A job's output failed its correctness check."""


@dataclass
class Job:
    cls: str  # job class, e.g. "complete" or "short_b_law"
    run: object  # callable returning the job's output
    check: object  # callable(output) raising GateError on a wrong output
    deadline_s: float = 60.0
    reps: int = 0  # Monte Carlo replications (mc only)
    argv: list = field(default_factory=list)  # CLI argv (cli only)
    typed_ok: bool = False  # edge job: a prompt typed clusterline error passes
    l_over_eps: float = 0.0  # exact: the model's L / eps
    group: str = ""  # jobs that repeat the same work in a run share a group; "" = a group of its own


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata, shuffled."""
    return (rng.permutation(count) + rng.random(count)) / count


def rng_for(seed: int, pass_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, pass_index, stream])


def p0(params: ModelParams, x: float, n: int = 0) -> float:
    """p_n(x) from the public pmf (with its precision escalation); p_0 = 1 for x <= 0."""
    if x <= 0.0:
        return 1.0 if n == 0 else 0.0
    return cl.pmf_complete(IntervalModel(params, x), n)


def check_table(table, what: str) -> None:
    gate(all(finite(p) and 0.0 <= p <= 1.0 for p in table.probs), f"{what}: entry outside [0, 1]")
    gate(abs(1.0 - math.fsum(table.probs)) <= 1e-9, f"{what}: not normalised within 1e-9")


# --------------------------------------------------------------------------
# host-speed probes: fixed work that does not touch clusterline, timed
# between jobs so the run's timings can be referred to a nominal host speed
# (see DESIGN.md, "Host drift")


_PROBE_RNG = np.random.Generator(np.random.Philox(7))


def cpu_probe() -> float:
    """Seconds for fixed work of the kinds the jobs do, in library code
    only: an interpreter loop, Philox draws with a numpy reduction, and
    30-digit mpmath arithmetic."""
    import mpmath  # already loaded by the warm-up; imported here so set-up does not pay for it

    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    for _ in range(20):
        s += float(np.cumsum(_PROBE_RNG.random(10000))[-1])
    with mpmath.workdps(30):
        mpmath.fsum(mpmath.exp(mpmath.mpf(i) / 7) * mpmath.mpf(i) ** 3 for i in range(40))
    return time.perf_counter() - t0


def import_probe() -> float:
    """Seconds for a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=30.0)
    return time.perf_counter() - t0


# the probes' seconds on the tuning machine at its usual speed
CPU_REF_S = 0.0045
IMPORT_REF_S = 0.17
CPU_PROBES = {"cpu": cpu_probe}


def refer_cpu(records, medians) -> list[float]:
    """In-process jobs: every second of a job is compute."""
    return [r["s"] * CPU_REF_S / medians["cpu"] for r in records]


# --------------------------------------------------------------------------
# exact: the scalar p_n kernels, special functions and precision escalation


class Exact:
    name = "exact"
    probes = CPU_PROBES
    probe_every_s = 0.25
    refer = staticmethod(refer_cpu)
    models_per_pass = 200

    @staticmethod
    def model_jobs(model: IntervalModel) -> list[Job]:
        lam, eps = model.params.intensity, model.params.radius
        L = model.length
        bound = int(L / eps + 1e-12)

        def check_complete(table):
            check_table(table, "complete")
            for n in (bound + 1, bound + 3):
                gate(cl.pmf_complete(model, n) == 0.0, f"complete: p_{n} nonzero past floor(L/eps)")

        def moments():
            return [cl.moment_complete(model, m) for m in range(1, 5)], cl.var_critical_points(model)

        def check_moments(out):
            values, points = out
            gate(finite(*values, *points), "moments: non-finite value")
            gate(abs(values[0] - cl.mean_complete(model)) <= 1e-12, "moments: m=1 differs from mean_complete")

        def check_coverage(value):
            renewal = p0(model.params, L) - math.exp(-lam * eps) * p0(model.params, L - eps)
            gate(finite(value) and abs(value - renewal) <= 1e-9, "coverage: off the renewal identity")

        return [
            Job("complete", lambda: cl.pmf_complete_table(model), check_complete),
            Job("incomplete", lambda: cl.pmf_incomplete_table(model), lambda t: check_table(t, "incomplete")),
            Job("circle", lambda: cl.pmf_circle_table(model), lambda t: check_table(t, "circle")),
            Job("moments", moments, check_moments),
            Job("coverage", lambda: cl.coverage_prob(model), check_coverage, l_over_eps=L / eps),
        ]

    @classmethod
    def models(cls, seed: int, pass_index: int) -> list[IntervalModel]:
        """Acceptance criterion 2's generator (lam (L + eps) <= 30,
        floor(L / eps) <= 40), Latin-hypercube stratified per pass."""
        rng = rng_for(seed, pass_index, 11)
        count = cls.models_per_pass
        u_ratio, u_eps, u_load = stratified(rng, count), stratified(rng, count), stratified(rng, count)
        out = []
        for k in range(count):
            eps = 0.05 + 2.95 * u_eps[k]
            length = (1.0 + 39.0 * u_ratio[k]) * eps
            lam = (0.3 + 29.7 * u_load[k]) / (length + eps)
            out.append(IntervalModel(ModelParams(lam, eps), length))
        return out

    @classmethod
    def jobs(cls, seed: int, pass_index: int) -> list[Job]:
        return [job for model in cls.models(seed, pass_index) for job in cls.model_jobs(model)]

    @classmethod
    def warmup_jobs(cls) -> list[Job]:
        # lam eps = 1 at L = 37 eps escalates to mpmath, so the lazy import
        # happens here; no timed model has these exact parameters
        return cls.model_jobs(IntervalModel(ModelParams(0.7071, 1.4142), 52.3254))

    @staticmethod
    def edge_jobs() -> list[Job]:
        """The regime boundary floor(L/eps) <= 60 from both sides, and the
        known slow case. Inside floor(L/eps) <= 60, lam L e^{-lam eps} is at
        most 61/e, so the product bound is met from outside only (L = 82 eps)."""
        jobs = []
        cases = (("inside_60.5", 60.5, True), ("beyond_62", 62.0, True), ("beyond_82", 82.0, False))
        for tag, ratio, with_coverage in cases:
            model = IntervalModel(ModelParams(1.0, 1.0), ratio)
            for job in Exact.model_jobs(model):
                if job.cls == "coverage" and not with_coverage:
                    continue
                job.cls = f"edge_{tag}_{job.cls}"
                job.deadline_s = 2.0
                job.typed_ok = True
                jobs.append(job)
        hang = IntervalModel(ModelParams(1.0, 1e-4), 1.0)
        jobs.append(
            Job(
                "edge_eps1e-4_incomplete",
                lambda: cl.pmf_incomplete_table(hang),
                lambda t: check_table(t, "incomplete"),
                deadline_s=2.0,
                typed_ok=True,
            )
        )
        return jobs

    census_jobs = warmup_jobs


# --------------------------------------------------------------------------
# laws: quadrature, PanelCdf and the grid p_n kernels

LAW_BANDS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


class Laws:
    name = "laws"
    probes = CPU_PROBES
    probe_every_s = 0.25
    refer = staticmethod(refer_cpu)

    @staticmethod
    def band_job(params: ModelParams, tag: str) -> Job:
        """Everything a user asks for one model: the span CDF, the cycle-sum
        CDFs for n = 1..3, the B and U density grids and CDF queries.

        One job per model rather than one per call: the calls of a model
        differ in cost by orders of magnitude, so percentiles over single
        calls would fall on the gaps between their cost groups."""
        lam, eps = params.intensity, params.radius
        damp = math.exp(-lam * eps)
        mean_span = cl.mean_cluster_length(params)
        mean_cycle = mean_span + 1.0 / lam
        xs_b = np.linspace(eps, eps + 10.0 * mean_span, 200)
        xs_u = np.linspace(eps, eps + 20.0 * mean_cycle, 200)
        probe = np.linspace(0.0, eps + 4.0 * mean_cycle, 500)

        def run():
            cdfs = {"span": cl.cluster_length_cdf(params)}
            for n in (1, 2, 3):
                cdfs[n] = cl.cycle_sum_cdf(params, n)
            densities = [
                cl.cluster_length_law(params).density(xs_b),
                [cl.cycle_sum_density(params, 2, float(x)) for x in xs_u],
            ]
            curves = [np.asarray(cdf(probe)) for cdf in cdfs.values()]
            return cdfs, densities, curves

        def check(out):
            cdfs, densities, curves = out
            for x in (1.5 * eps, 2.5 * eps, eps + 0.5 * mean_span, eps + mean_span, eps + 2.0 * mean_span):
                renewal = 1.0 - p0(params, x) + damp * p0(params, x - eps)
                gate(abs(cdfs["span"](x) - renewal) <= 1e-6, f"span cdf off the renewal identity at x={x:.6g}")
            for n in (1, 2, 3):
                for x in (eps + 0.5 * n * mean_cycle, eps + n * mean_cycle, eps + 2.0 * n * mean_cycle):
                    renewal = 1.0 - math.fsum(p0(params, x, k) for k in range(n))
                    gate(abs(cdfs[n](x) - renewal) <= 1e-6, f"cycle-sum cdf n={n} off 1 - sum p_k at x={x:.6g}")
            for values in densities:
                values = np.asarray(values, dtype=float)
                gate(bool(np.all(np.isfinite(values)) and np.all(values >= 0.0)), "density: negative or non-finite")
            for curve in curves:
                gate(bool(np.all(np.isfinite(curve))), "cdf query: non-finite value")
                gate(bool(np.all(np.diff(curve) >= -1e-12)), "cdf query: not monotone")
                gate(bool(np.all((curve >= 0.0) & (curve <= 1.0))), "cdf query: outside [0, 1]")

        return Job(f"laws_{tag}", run, check, group=f"laws_{tag}")

    @staticmethod
    def laplace_job(params: ModelParams, counts, s_values) -> Job:
        def check(rows):
            gate(len(rows) == len(counts) * len(s_values), "laplace: missing rows")
            for row in rows:
                gate(finite(row["abs_err"]) and row["abs_err"] < 1e-7, "laplace: abs_err >= 1e-7")

        group = f"laplace_{params.intensity:g}_{params.radius:g}"
        return Job("laplace", lambda: cl.count_transform_residuals(params, counts, s_values), check, group=group)

    @classmethod
    def jobs(cls, seed: int, pass_index: int) -> list[Job]:
        # lam eps is held at the band value so the work is seed-independent;
        # the scale (lam) is drawn, so no model repeats. The pass is four
        # rounds; each round has one model of every cheap band (lam eps <= 3)
        # and then one heavy step, so the jobs of a band are spread over the
        # whole pass and the median job is the median of a band's four.
        rng = rng_for(seed, pass_index, 22)
        cheap = [band for band in LAW_BANDS if band <= 3.0]
        lams = iter(np.exp(math.log(0.5) + math.log(4.0) * stratified(rng, 4 * len(cheap) + 3)))

        def band(value):
            lam = float(next(lams))
            return cls.band_job(ModelParams(lam, value / lam), f"le{value:g}")

        # the two laplace models exactly: with eps nudged off 0.5 the
        # (2, 0.5) check can exhaust its refinement budget (see DESIGN.md);
        # nothing in this path is memoised, so repeating them earns nothing
        heavy = [
            [band(6.0)],
            [cls.laplace_job(ModelParams(2.0, 0.5), range(4), (0.5, 1.0, 2.0))],
            [band(5.0)],
            [band(4.0), cls.laplace_job(ModelParams(1.0, 1.0), range(4), (0.5, 1.0, 2.0))],
        ]
        out = []
        for step in heavy:
            out += [band(value) for value in cheap] + step
        return out

    @classmethod
    def edge_jobs(cls) -> list[Job]:
        """A laplace-check just off the (2, 0.5) model: the quadrature chases
        1e-18 panel errors until its refinement budget runs out (about 37 s
        on a 2-core machine), so it misses its deadline instead of answering
        promptly."""
        job = cls.laplace_job(ModelParams(2.0, 0.5005), range(4), (0.5, 1.0, 2.0))
        job.cls = "edge_laplace_eps0.5005"
        job.deadline_s = 2.0
        job.typed_ok = True
        return [job]

    @classmethod
    def warmup_jobs(cls) -> list[Job]:
        params = ModelParams(1.3, 0.7 / 1.3)
        return [cls.band_job(params, "warmup"), cls.laplace_job(params, [0], [1.0])]

    census_jobs = warmup_jobs


# --------------------------------------------------------------------------
# mc: the Monte Carlo engine, in short and long walks

Z_MAX = 5.0  # two-sided normal tail 5.7e-7 per outcome
KS_COEFF = 2.23  # asymptotic P(sqrt(N) D > 2.23) ~ 1e-4


class MonteCarlo:
    name = "mc"
    probes = CPU_PROBES
    probe_every_s = 0.25
    refer = staticmethod(refer_cpu)

    @staticmethod
    def count_job(cls_name, params, scenario, length, config) -> Job:
        model = IntervalModel(params, length)

        def run():
            t0 = time.perf_counter()
            empirical = cl.estimate(params, scenario, length, config)
            est_s = time.perf_counter() - t0
            if scenario == "complete":
                table = cl.pmf_complete_table(model)
            elif scenario == "incomplete":
                table = cl.pmf_incomplete_table(model)
            elif scenario == "circle":
                table = cl.pmf_circle_table(model)
            else:
                cov = cl.coverage_prob(model)
                table = cl.DistributionTable(support_max=1, probs=(1.0 - cov, cov), tail_mass=0.0)
            return cl.compare_pmf(empirical, table, z_max=Z_MAX), est_s

        def check(out):
            report = out[0]
            gate(finite(report.max_abs_z) and report.max_abs_z <= Z_MAX, f"{cls_name}: max|z| {report.max_abs_z:.2f}")

        return Job(cls_name, run, check, reps=config.replications, group=cls_name)

    @staticmethod
    def ks_job(cls_name, params, scenario, config, order=1) -> Job:
        def run():
            t0 = time.perf_counter()
            sample = cl.estimate(params, scenario, 1.0, config, cycle_order=order)
            est_s = time.perf_counter() - t0
            cdf = cl.cluster_length_cdf(params) if scenario == "b_law" else cl.cycle_sum_cdf(params, order)
            return cl.compare_continuous(sample, cdf, ks_coeff=KS_COEFF), est_s

        def check(out):
            report = out[0]
            gate(report.ks_statistic <= report.ks_bound, f"{cls_name}: KS {report.ks_statistic:.4f}")

        return Job(cls_name, run, check, reps=config.replications, group=cls_name)

    @staticmethod
    def mean_job(cls_name, params, scenario, length, config, order=1) -> Job:
        """Sample mean at 5 sigma against a closed-form mean; no quadrature."""
        lam, eps = params.intensity, params.radius
        model = IntervalModel(params, length)
        if scenario == "complete":
            mu, sigma = cl.mean_complete(model), math.sqrt(cl.var_complete(model))
        elif scenario == "incomplete":
            # a point at t starts a cluster iff [max(0, t - eps), t) is empty
            mu, sigma = (1.0 - math.exp(-lam * eps)) + lam * (length - eps) * math.exp(-lam * eps), None
        elif scenario == "b_law":
            mu, sigma = cl.mean_cluster_length(params), None
        else:
            mu, sigma = order * (cl.mean_cluster_length(params) + 1.0 / lam), None

        def run():
            t0 = time.perf_counter()
            out = cl.estimate(params, scenario, length, config, cycle_order=order)
            return out, time.perf_counter() - t0

        def check(result):
            out = result[0]
            if isinstance(out, np.ndarray):
                values = out
            else:
                values = np.repeat(np.array(list(out.counts), dtype=float), list(out.counts.values()))
            gate(values.size == config.replications and bool(np.all(np.isfinite(values))), f"{cls_name}: bad sample")
            sd = sigma if sigma is not None else float(values.std(ddof=1))
            z = (float(values.mean()) - mu) / (sd / math.sqrt(values.size))
            gate(abs(z) <= Z_MAX, f"{cls_name}: mean off by {z:.2f} sigma")

        return Job(cls_name, run, check, reps=config.replications, group=cls_name)

    @classmethod
    def jobs(cls, seed: int, pass_index: int, scale: float = 1.0) -> list[Job]:
        rng = rng_for(seed, pass_index, 33)
        u = rng.random(8)
        base = (int(seed) & 0xFFFFFFFF) * 1_000_003 + pass_index * 101
        short = max(int(20_000 * scale), 200)
        long_ = max(int(1_500 * scale), 50)

        def cfg(k, reps, par=1):
            return SampleConfig(seed=base + k, replications=reps, parallelism_hint=par)

        unit = ModelParams(0.98 + 0.04 * float(u[0]), 1.0)
        length = 3.75 + 0.25 * float(u[1])  # every count cell keeps N p >= 10 or exactly 0
        cover = 1.8 + 0.4 * float(u[2])
        dense = ModelParams(1.0, 6.0 * (1.0 + 0.01 * float(u[3])))  # lam eps ~ 6
        return [
            cls.count_job("short_complete", unit, "complete", length, cfg(0, short)),
            cls.count_job("short_incomplete", unit, "incomplete", length, cfg(1, short)),
            cls.count_job("short_circle", unit, "circle", length, cfg(2, short)),
            cls.count_job("short_coverage", unit, "coverage", cover, cfg(3, short)),
            cls.ks_job("short_b_law", unit, "b_law", cfg(4, short)),
            cls.ks_job("short_u_law", unit, "u_law", cfg(5, short), order=2),
            cls.count_job("par2_complete", unit, "complete", length, cfg(6, short, par=2)),
            cls.mean_job("long_complete", unit, "complete", 400.0, cfg(7, long_)),
            cls.mean_job("long_incomplete", unit, "incomplete", 400.0, cfg(8, long_)),
            cls.mean_job("long_b_law", dense, "b_law", 1.0, cfg(9, long_ * 2 // 3)),
            cls.mean_job("long_u_law", dense, "u_law", 1.0, cfg(10, long_ * 2 // 3)),
        ]

    @classmethod
    def warmup_jobs(cls) -> list[Job]:
        # a pass index no run reaches, at 2% of the replications
        return cls.jobs(0, 1 << 40, scale=0.02)

    census_jobs = warmup_jobs


# --------------------------------------------------------------------------
# cli: python -m clusterline.cli as a user runs it


def spawn(root: str, argv: list[str], timeout: float) -> tuple[int, bytes]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "clusterline.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=root,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:  # a timeout or the job deadline: never leave the child running
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def cli_argvs(lam: float, seed: int, samples: int) -> list[list[str]]:
    """The README's subcommands (sweep with the grid the goldens use; the
    Monte Carlo commands at ``samples`` replications)."""
    m = ["--lambda", f"{lam:.6f}", "--epsilon", "1"]
    s = str(samples)
    return [
        ["pmf", *m, "--length", "4"],
        ["incomplete", *m, "--length", "4"],
        ["circle", *m, "--length", "4"],
        ["moments", *m, "--length", "4", "--m", "4"],
        ["coverage", *m, "--length", "2"],
        ["density", "--law", "B", *m],
        ["density", "--law", "U", "--n", "2", *m],
        ["laplace-check", *m],
        ["simulate", "--scenario", "complete", *m, "--length", "4", "--samples", s, "--seed", str(seed)],
        ["simulate", "--scenario", "b-law", *m, "--length", "1", "--samples", s, "--seed", str(seed + 1)],
        ["compare", "--scenario", "circle", *m, "--length", "4", "--samples", s, "--seed", str(seed + 2)],
        ["sweep", "--curve", "mean", "--lambda", "0.25:5:0.25", "--epsilon", "1", "--length", "4"],
    ]


def parse_output(data: bytes, argv: list[str]):
    text = data.decode("utf-8")
    if "json" in argv:
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    gate(len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows), "cli: malformed csv")
    return rows


class Cli:
    """Spawns of the CLI from the checkout at ``root``; remembers the first
    output bytes of every argv so later spawns can be compared with them."""

    name = "cli"
    probes = {**CPU_PROBES, "import": import_probe}
    probe_every_s = 1.5

    def __init__(self, root: str):
        self.root = root
        self.first_bytes: dict = {}

    def spawn_job(self, argv: list[str], remember: bool) -> Job:
        key = tuple(argv)

        def run():
            return spawn(self.root, argv, timeout=55.0)

        def check(result):
            code, data = result
            gate(code == 0, f"cli {argv[0]}: exit status {code}")
            parse_output(data, argv)
            if remember:
                first = self.first_bytes.setdefault(key, data)
                gate(first == data, f"cli {argv[0]}: output bytes differ between spawns")

        return Job(argv[0], run, check, argv=list(argv), group=" ".join(argv))

    def jobs(self, seed: int, pass_index: int) -> list[Job]:
        # one argv list per run, so every pass after the first re-spawns the
        # same argv and the bytes are compared across spawns; each spawn is
        # a fresh interpreter, so nothing is memoised between them
        rng = rng_for(seed, 0, 44)
        lam = 0.95 + 0.1 * float(rng.random())
        mc_seed = int(rng.integers(1, 1 << 30))
        return [self.spawn_job(argv, True) for argv in cli_argvs(lam, mc_seed, 100_000)]

    @staticmethod
    def refer(records, medians) -> list[float]:
        """A spawn is start-up, as long as the import probe (a fresh
        interpreter importing numpy), plus compute, the rest. Start-up goes
        with the import probe, compute with the CPU probe."""
        startup = medians["import"]
        cpu = CPU_REF_S / medians["cpu"]
        return [min(r["s"], startup) / startup * IMPORT_REF_S + max(r["s"] - startup, 0.0) * cpu for r in records]

    def warmup_jobs(self) -> list[Job]:
        return [self.spawn_job(["pmf", "--lambda", "0.7", "--epsilon", "1", "--length", "3"], False)]

    def census_jobs(self) -> list[Job]:
        return [self.spawn_job(argv, False) for argv in cli_argvs(0.7, 5, 2_000)]


def workloads(root: str) -> dict:
    """The four workloads by name; ``root`` is the checkout the CLI runs from."""
    return {w.name: w for w in (Exact, Laws, MonteCarlo, Cli(root))}
