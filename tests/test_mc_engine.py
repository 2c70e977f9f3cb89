"""Monte Carlo engine: exact decomposition semantics, the chunk-keyed
stream contract, bounded memory, and statistical sanity at moderate
replication counts."""

import math
import tracemalloc

import numpy as np
import pytest

from clusterline import (
    CapacityError,
    ModelParams,
    PointSample,
    SampleConfig,
    circle_cluster_count,
    coverage_indicator,
    decompose,
    estimate,
    replication_rng,
    sample_circle,
    sample_interval,
)
from clusterline import mc_engine
from clusterline.mc_engine import scan_rows


def make_sample(points, length):
    return PointSample(positions=np.asarray(points, dtype=float), domain_length=length)


def padded(point_sets):
    """(counts, rows) for scan_rows: one sorted point set per row, padded
    on the right with inf, with at least one inf column."""
    counts = np.array([len(s) for s in point_sets])
    rows = np.full((len(point_sets), int(counts.max()) + 1), np.inf)
    for row, s in zip(rows, point_sets):
        row[: len(s)] = s
    return counts, rows


class TestSampleInterval:
    def test_determinism(self):
        p = ModelParams(2.0, 1.0)
        a = sample_interval(p, 3.0, replication_rng(11, 4))
        b = sample_interval(p, 3.0, replication_rng(11, 4))
        assert (a.positions == b.positions).all()

    def test_vanishing_intensity_gives_empty_sample(self):
        p = ModelParams(1e-12, 1.0)
        sample = sample_interval(p, 1.0, replication_rng(0, 0))
        assert sample.positions.size == 0

    def test_mean_count(self):
        p = ModelParams(2.0, 1.0)
        reps = 100_000
        total = 0
        for rep in range(reps):
            total += sample_interval(p, 3.0, replication_rng(5, rep)).positions.size
        mean = total / reps
        sigma = math.sqrt(6.0) / math.sqrt(reps)
        assert abs(mean - 6.0) <= 4.0 * sigma

    def test_positions_sorted_within_domain(self):
        p = ModelParams(3.0, 0.5)
        for rep in range(50):
            s = sample_interval(p, 2.0, replication_rng(1, rep))
            assert (np.diff(s.positions) > 0).all()
            assert (s.positions >= 0).all() and (s.positions <= 2.0).all()


class TestDecompose:
    def test_two_clusters_hand_checked(self):
        d = decompose(make_sample([0.2, 0.9, 2.5], 4.0), 1.0)
        assert d.clusters == ((0.2, 1.9), (2.5, 3.5))
        assert d.complete_count == 2
        assert d.incomplete_count == 2

    def test_single_incomplete_cluster(self):
        d = decompose(make_sample([3.8], 4.0), 1.0)
        assert d.clusters == ((3.8, 4.8),)
        assert d.complete_count == 0
        assert d.incomplete_count == 1

    def test_empty(self):
        d = decompose(make_sample([], 4.0), 1.0)
        assert d.clusters == ()
        assert d.complete_count == 0
        assert d.incomplete_count == 0

    def test_boundary_gap_keeps_connection(self):
        # a gap exactly equal to the radius does not split
        d = decompose(make_sample([0.5, 1.5, 3.0], 5.0), 1.0)
        assert d.incomplete_count == 2

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            decompose(make_sample([1.0, 0.5], 4.0), 1.0)

    def test_end_offset_is_radius(self):
        # dyadic inputs make the offset arithmetic exact
        d = decompose(make_sample([0.25, 0.75, 2.5], 4.0), 0.5)
        for (start, end), last in zip(d.clusters, (0.75, 2.5)):
            assert end - last == 0.5

    def test_translation_consistency(self):
        base = [0.25, 0.5, 2.0, 2.25]
        delta = 0.5
        d0 = decompose(make_sample(base, 8.0), 0.5)
        d1 = decompose(make_sample([x + delta for x in base], 8.0), 0.5)
        for (a0, e0), (a1, e1) in zip(d0.clusters, d1.clusters):
            assert a1 == a0 + delta
            assert e1 == e0 + delta

    def test_brute_force_cross_check(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            length = rng.uniform(1.0, 6.0)
            eps = rng.uniform(0.1, 1.5)
            pts = np.sort(rng.uniform(0.0, length, size=rng.integers(0, 12)))
            d = decompose(PointSample(pts, length), eps)
            # brute force: maximal runs of consecutive gaps <= eps
            runs = []
            for x in pts:
                if runs and x - runs[-1][-1] <= eps:
                    runs[-1].append(x)
                else:
                    runs.append([x])
            complete = sum(1 for run in runs if run[-1] + eps <= length)
            assert d.incomplete_count == len(runs)
            assert d.complete_count == complete
            assert d.complete_count <= d.incomplete_count


class TestCircle:
    def test_mean_count(self):
        p = ModelParams(1.0, 1.0)
        reps = 100_000
        total = sum(
            sample_circle(p, 4.0, replication_rng(2, rep)).positions.size for rep in range(reps)
        )
        mean = total / reps
        assert abs(mean - 4.0) <= 4.0 * math.sqrt(4.0 / reps)

    def test_empty_sample_valid(self):
        p = ModelParams(0.1, 1.0)
        for rep in range(200):
            s = sample_circle(p, 0.5, replication_rng(3, rep))
            if s.positions.size == 0:
                assert circle_cluster_count(s, 1.0) == 0
                return
        pytest.fail("no empty sample found at tiny intensity")

    def test_determinism(self):
        p = ModelParams(1.0, 1.0)
        a = sample_circle(p, 4.0, replication_rng(9, 1))
        b = sample_circle(p, 4.0, replication_rng(9, 1))
        assert (a.positions == b.positions).all()

    def test_hand_checked_counts(self):
        assert circle_cluster_count(make_sample([0.5, 1.2, 3.9], 4.0), 1.0) == 1
        assert circle_cluster_count(make_sample([0.0, 1.0, 2.0, 3.0], 4.0), 1.0) == 0
        assert circle_cluster_count(make_sample([], 4.0), 1.0) == 0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            length = 5.0
            pts = np.sort(rng.uniform(0.0, length, size=rng.integers(1, 10)))
            base = circle_cluster_count(PointSample(pts, length), 0.8)
            delta = rng.uniform(0.0, length)
            rotated = np.sort((pts + delta) % length)
            assert circle_cluster_count(PointSample(rotated, length), 0.8) == base


class TestCoverageIndicator:
    def test_covered_case(self):
        assert coverage_indicator(make_sample([0.5, 1.2], 2.0), 1.0, length=2.0) is True

    def test_short_first_cluster(self):
        assert coverage_indicator(make_sample([0.5], 2.0), 1.0, length=2.0) is False

    def test_empty(self):
        assert coverage_indicator(make_sample([], 2.0), 1.0, length=2.0) is False

    def test_late_first_point(self):
        assert coverage_indicator(make_sample([1.4, 1.9], 2.0), 1.0, length=2.0) is False


class TestScanRows:
    def test_matches_reference_ops(self):
        # the vectorised scan replays decompose, circle_cluster_count and
        # coverage_indicator on the reference samplers' point sets
        cases = [(ModelParams(1.0, 1.0), 4.0), (ModelParams(3.0, 0.5), 2.5), (ModelParams(0.7, 1.3), 0.6)]
        for k, (p, length) in enumerate(cases):
            eps = p.radius
            horizon = max(length, eps)
            line = [sample_interval(p, length, replication_rng(k, r)).positions for r in range(400)]
            cover = [sample_interval(p, horizon, replication_rng(k, r)).positions for r in range(400)]
            ring = [sample_circle(p, length, replication_rng(k, r)).positions for r in range(400)]
            counts, rows = padded(line)
            refs = [decompose(PointSample(s, length), eps) for s in line]
            assert scan_rows("complete", counts, rows, eps, length).tolist() == [d.complete_count for d in refs]
            assert scan_rows("incomplete", counts, rows, eps, length).tolist() == [d.incomplete_count for d in refs]
            counts, rows = padded(ring)
            ref = [circle_cluster_count(PointSample(s, length), eps) for s in ring]
            assert scan_rows("circle", counts, rows, eps, length).tolist() == ref
            counts, rows = padded(cover)
            ref = [int(coverage_indicator(PointSample(s, horizon), eps, length=length)) for s in cover]
            assert scan_rows("coverage", counts, rows, eps, length).tolist() == ref

    def test_hand_cases(self):
        sets = [
            [0.5, 1.5, 3.0],  # a gap exactly eps keeps the connection
            [0.25, 3.0],  # last point + eps == L: complete
            [],
            [0.5, 1.25, 3.75],  # the wrap-around gap keeps the connection
        ]
        counts, rows = padded(sets)
        assert scan_rows("incomplete", counts, rows, 1.0, 4.0).tolist() == [2, 2, 0, 2]
        assert scan_rows("complete", counts, rows, 1.0, 4.0).tolist() == [2, 2, 0, 1]
        assert scan_rows("circle", counts, rows, 1.0, 4.0).tolist() == [2, 2, 0, 1]
        for s, d in zip(sets, (decompose(make_sample(s, 4.0), 1.0) for s in sets)):
            assert scan_rows("complete", *padded([s]), 1.0, 4.0)[0] == d.complete_count
        # coverage: last point + eps == L covers; with L < eps only the
        # first point matters, and the horizon is eps, not L
        cover = [[0.5, 1.0], [0.5, 0.75], [], [0.75], [1.0]]
        counts, rows = padded(cover)
        assert scan_rows("coverage", counts, rows, 1.0, 2.0).tolist() == [1, 0, 0, 0, 1]
        assert scan_rows("coverage", counts, rows, 1.0, 0.5).tolist() == [1, 1, 0, 1, 1]
        for s in cover:
            for length in (2.0, 0.5):
                expect = coverage_indicator(make_sample(s, max(length, 1.0)), 1.0, length=length)
                assert scan_rows("coverage", *padded([s]), 1.0, length)[0] == expect

    def test_vanishing_intensity_gives_empty_rows(self):
        p = ModelParams(1e-12, 1.0)
        config = SampleConfig(seed=4, replications=1_000)
        for scenario, length in (("complete", 4.0), ("incomplete", 4.0), ("circle", 4.0), ("coverage", 2.0)):
            assert estimate(p, scenario, length, config).counts == {0: 1_000}

    def test_rejects_continuous_scenarios(self):
        with pytest.raises(ValueError):
            scan_rows("b_law", *padded([[0.5]]), 1.0, 4.0)


class TestEstimate:
    def test_stream_contract(self, monkeypatch):
        # chunk c of seed s draws from Philox(key=(s << 64) | c): a Poisson
        # count per row, then one row of uniforms per replication
        monkeypatch.setattr(mc_engine, "_CHUNK_ELEMENTS", 64)
        p, length, seed, reps = ModelParams(1.0, 1.0), 4.0, 2**63 + 5, 100
        rows = mc_engine._rows_per_chunk(4.0 + 4.0 * 2.0 + 1.0)
        assert 1 < rows < reps
        outcomes = []
        for chunk, start in enumerate(range(0, reps, rows)):
            gen = np.random.Generator(np.random.Philox(key=(seed << 64) | chunk))
            counts = gen.poisson(4.0, size=min(rows, reps - start))
            draws = gen.random((counts.size, int(counts.max()) + 1)) * length
            sets = [np.sort(row[:n]) for row, n in zip(draws, counts)]
            outcomes += [decompose(PointSample(s, length), 1.0).complete_count for s in sets]
        emp = estimate(p, "complete", length, SampleConfig(seed=seed, replications=reps))
        assert emp.counts == {n: outcomes.count(n) for n in sorted(set(outcomes))}

    @pytest.mark.parametrize(
        "params,scenario,length,reps",
        [(ModelParams(1.0, 1.0), "complete", 400.0, 1_500), (ModelParams(1.0, 6.0), "b_law", 1.0, 1_000)],
    )
    def test_peak_memory_is_bounded(self, params, scenario, length, reps):
        # chunks keep about 2^16 doubles per array whatever the row width;
        # one chunk holding every replication would need several times more
        config = SampleConfig(seed=17, replications=reps)
        estimate(params, scenario, length, SampleConfig(seed=0, replications=10))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = estimate(params, scenario, length, config)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - after < 4 * 2**20, f"peak {(peak - before) / 2**20:.1f} MB"
        assert (out.total if scenario == "complete" else out.size) == reps

    def test_complete_counts_within_tolerance(self):
        from clusterline import IntervalModel, pmf_complete

        p = ModelParams(1.0, 1.0)
        emp = estimate(p, "complete", 4.0, SampleConfig(seed=12, replications=40_000))
        target = pmf_complete(IntervalModel(p, 4.0), 1)
        assert abs(emp.estimate(1) - target) <= 4.0 * emp.std_error(1)

    def test_singleton_span_fraction(self):
        p = ModelParams(1.0, 1.0)
        spans = estimate(p, "b_law", 1.0, SampleConfig(seed=8, replications=40_000))
        frac = float((spans == 1.0).mean())
        sigma = math.sqrt(frac * (1.0 - frac) / spans.size)
        assert abs(frac - math.exp(-1.0)) <= 4.0 * sigma

    def test_coverage_short_domain(self):
        p = ModelParams(2.0, 1.0)
        emp = estimate(p, "coverage", 0.8, SampleConfig(seed=21, replications=40_000))
        target = 1.0 - math.exp(-2.0)
        assert abs(emp.estimate(1) - target) <= 4.0 * emp.std_error(1)

    def test_deterministic_across_parallelism(self):
        p = ModelParams(1.0, 1.0)
        runs = [
            estimate(p, "incomplete", 4.0, SampleConfig(seed=5, replications=10_000, parallelism_hint=h))
            for h in (1, 3, 8)
        ]
        assert runs[0].counts == runs[1].counts == runs[2].counts
        spans = [
            estimate(p, "u_law", 1.0, SampleConfig(seed=5, replications=5_000, parallelism_hint=h), cycle_order=2)
            for h in (1, 4)
        ]
        assert (spans[0] == spans[1]).all()

    def test_parallelism_hint_starts_no_thread(self, monkeypatch):
        import threading

        def refuse(self):
            raise AssertionError("estimate started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        p = ModelParams(1.0, 1.0)
        emp = estimate(p, "complete", 4.0, SampleConfig(seed=5, replications=200, parallelism_hint=4))
        assert emp.total == 200

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_length_validation(self, length):
        p = ModelParams(1.0, 1.0)
        for scenario in ("complete", "incomplete", "circle", "coverage"):
            with pytest.raises(ValueError, match="length"):
                estimate(p, scenario, length, SampleConfig(seed=0, replications=10))
        # the span laws never read the domain length
        assert estimate(p, "b_law", length, SampleConfig(seed=0, replications=10)).size == 10
        cfg = SampleConfig(seed=0, replications=10)
        assert estimate(p, "u_law", length, cfg, cycle_order=2).size == 10

    def test_scenario_validation(self):
        p = ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            estimate(p, "nonsense", 4.0, SampleConfig(seed=0, replications=10))
        with pytest.raises(ValueError):
            estimate(p, "u_law", 4.0, SampleConfig(seed=0, replications=10), cycle_order=0)
        with pytest.raises(ValueError):
            SampleConfig(seed=0, replications=0)

    def test_scenario_dash_alias(self):
        p = ModelParams(1.0, 1.0)
        a = estimate(p, "b-law", 1.0, SampleConfig(seed=2, replications=500))
        b = estimate(p, "b_law", 1.0, SampleConfig(seed=2, replications=500))
        assert (a == b).all()


class TestSpanLawCapacity:
    """b_law / u_law cost about cycles (e^{lam eps} - 1) gap draws per
    replication; past MAX_GAPS_PER_REPLICATION they raise before drawing."""

    EDGE = math.log1p(mc_engine.MAX_GAPS_PER_REPLICATION)  # lam * eps at the bound, one cycle

    def test_just_below_the_bound_draws(self):
        spans = estimate(ModelParams(self.EDGE - 1e-3, 1.0), "b_law", 1.0, SampleConfig(seed=3, replications=1))
        assert spans.size == 1 and spans[0] >= 1.0

    @pytest.mark.parametrize("scenario", ["b_law", "u_law"])
    def test_just_above_the_bound_raises(self, scenario, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the capacity check")

        monkeypatch.setattr(mc_engine, "replication_rng", no_draws)
        with pytest.raises(CapacityError, match="gap draws per replication"):
            estimate(ModelParams(self.EDGE + 1e-3, 1.0), scenario, 1.0, SampleConfig(seed=3, replications=1))

    def test_bound_counts_cycles(self):
        # two cycles double the draws: half the single-cycle bound's e^{lam eps} - 1
        lam = math.log1p(mc_engine.MAX_GAPS_PER_REPLICATION / 2) + 1e-3
        estimate(ModelParams(lam, 1.0), "b_law", 1.0, SampleConfig(seed=3, replications=1))
        with pytest.raises(CapacityError):
            estimate(ModelParams(lam, 1.0), "u_law", 1.0, SampleConfig(seed=3, replications=1), cycle_order=2)

    @pytest.mark.parametrize("scenario", ["b_law", "u_law"])
    def test_overflowing_exponent_is_a_capacity_error(self, scenario):
        # e^{800} overflows a double; the check must not
        with pytest.raises(CapacityError):
            estimate(ModelParams(800.0, 1.0), scenario, 1.0, SampleConfig(seed=3, replications=1))
