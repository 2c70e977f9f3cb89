"""Monte Carlo engine: samples the point process and replays the exact
cluster decomposition the closed forms describe.

Replication r draws from a Philox counter-based generator keyed by the
128-bit integer (seed << 64) | r. The derivation is stable across versions,
so a run's results depend only on its seed and replication count. Every
replication runs in the calling thread: the parallelism hint is validated
and otherwise changes neither results nor thread count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cluster_laws import ModelParams

_SEED_MASK = (1 << 64) - 1

SCENARIOS = ("complete", "incomplete", "circle", "coverage", "b_law", "u_law")


@dataclass(frozen=True)
class SampleConfig:
    """Replication plan for a simulation run.

    parallelism_hint is validated (>= 1) and kept for compatibility; it
    changes neither results nor thread count.
    """

    seed: int
    replications: int
    parallelism_hint: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.parallelism_hint < 1:
            raise ValueError(f"parallelism_hint must be >= 1, got {self.parallelism_hint}")


@dataclass(frozen=True)
class PointSample:
    """Sorted point positions on [0, L] (or [0, L) for circle samples)."""

    positions: np.ndarray
    domain_length: float


@dataclass(frozen=True)
class ClusterDecomposition:
    """Clusters of a sample: (start, end) pairs plus the two counts.

    A cluster's end is its last point plus the connection radius. The
    complete count covers clusters ending inside the domain; the
    incomplete count is the total number of clusters started.
    """

    clusters: tuple[tuple[float, float], ...]
    complete_count: int
    incomplete_count: int


@dataclass
class EmpiricalDistribution:
    """Outcome counts from independent replications."""

    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if self.total < 1:
            raise ValueError("empty empirical distribution")
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to the replication total")

    def estimate(self, n: int) -> float:
        return self.counts.get(n, 0) / self.total

    def std_error(self, n: int) -> float:
        p = self.estimate(n)
        return math.sqrt(p * (1.0 - p) / self.total)

    def outcomes(self) -> list[int]:
        return sorted(self.counts)


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Deterministic substream for replication ``rep`` of run ``seed``."""
    key = ((seed & _SEED_MASK) << 64) | (rep & _SEED_MASK)
    return np.random.Generator(np.random.Philox(key=key))


def sample_interval(params: ModelParams, length: float, rng: np.random.Generator) -> PointSample:
    """Poisson sample on [0, length] via cumulative exponential gaps."""
    lam = params.intensity
    scale = 1.0 / lam
    mean_n = lam * length
    block = max(4, int(mean_n + 6.0 * math.sqrt(mean_n + 1.0) + 8.0))
    gaps = rng.exponential(scale, size=block)
    total = float(gaps.sum())
    while total <= length:
        more = rng.exponential(scale, size=block)
        gaps = np.concatenate([gaps, more])
        total += float(more.sum())
    positions = np.cumsum(gaps)
    positions = positions[positions <= length]
    return PointSample(positions=positions, domain_length=length)


def sample_circle(params: ModelParams, length: float, rng: np.random.Generator) -> PointSample:
    """Poisson sample on a circle: Poisson count, then sorted uniforms."""
    n = int(rng.poisson(params.intensity * length))
    positions = np.sort(rng.random(n) * length) if n else np.empty(0)
    return PointSample(positions=positions, domain_length=length)


def decompose(points: PointSample, epsilon: float) -> ClusterDecomposition:
    """Split a sorted sample into clusters at gaps beyond the radius.

    A gap exactly equal to the radius keeps the connection; only strictly
    larger gaps split. Each cluster's end is its last point plus the
    radius; it is complete when that end stays within the domain.

    Raises:
        ValueError: If the positions are not sorted ascending.
    """
    pos = points.positions
    if pos.size == 0:
        return ClusterDecomposition(clusters=(), complete_count=0, incomplete_count=0)
    gaps = np.diff(pos)
    if np.any(gaps < 0.0):
        raise ValueError("point sample is not sorted ascending")
    split_after = np.flatnonzero(gaps > epsilon)
    starts = pos[np.concatenate([[0], split_after + 1])]
    ends = pos[np.concatenate([split_after, [pos.size - 1]])] + epsilon
    clusters = tuple(zip(starts.tolist(), ends.tolist()))
    complete = int(np.count_nonzero(ends <= points.domain_length))
    return ClusterDecomposition(
        clusters=clusters,
        complete_count=complete,
        incomplete_count=len(clusters),
    )


def circle_cluster_count(points: PointSample, epsilon: float) -> int:
    """Number of clusters on the circle: circular gaps beyond the radius.

    Zero for an empty circle, and zero when no gap exceeds the radius
    (one cluster wrapping the whole circle counts as no complete
    cluster).
    """
    pos = points.positions
    if pos.size == 0:
        return 0
    wrap = points.domain_length - pos[-1] + pos[0]
    gaps = np.diff(pos)
    return int(np.count_nonzero(gaps > epsilon)) + (1 if wrap > epsilon else 0)


def coverage_indicator(points: PointSample, epsilon: float, length: float | None = None) -> bool:
    """Whether the sample covers [0, length].

    True iff the first point sits within one radius of the origin and the
    first cluster's span reaches from it to the far end. The sample must
    extend far enough that its first cluster is closed (the samplers used
    for coverage guarantee that).
    """
    L = points.domain_length if length is None else length
    pos = points.positions
    if pos.size == 0:
        return False
    x1 = float(pos[0])
    if x1 > epsilon:
        return False
    decomp = decompose(points, epsilon)
    a1, e1 = decomp.clusters[0]
    return (e1 - a1) >= (L - x1)


class _RngPool:
    """One Philox generator reused across a run's replications.

    Resetting key and counter through the state dict is bit-identical to
    constructing Philox(key=(seed << 64) | rep) afresh (covered by a
    regression test) and several times cheaper.
    """

    def __init__(self, seed: int):
        self._ph = np.random.Philox(key=0)
        self.gen = np.random.Generator(self._ph)
        self._state = self._ph.state
        self._key = self._state["state"]["key"]
        self._counter = self._state["state"]["counter"]
        self._seed = seed & _SEED_MASK

    def reset(self, rep: int) -> np.random.Generator:
        self._key[0] = rep & _SEED_MASK
        self._key[1] = self._seed
        self._counter[0] = 0
        self._counter[1] = 0
        self._counter[2] = 0
        self._counter[3] = 0
        self._state["buffer_pos"] = 4
        self._state["has_uint32"] = 0
        self._ph.state = self._state
        return self.gen


def _interval_run_counts(gen, scale, eps, length, block) -> tuple[int, int]:
    """Complete and incomplete cluster counts of one replication.

    Walks cumulative scaled exponential gaps exactly as sample_interval
    plus decompose would: positions accumulate in draw order, splits
    compare position differences, completeness compares run end + radius
    against the domain end (bit-for-bit the same arithmetic).
    """
    pos = 0.0
    run_last = -1.0
    started = False
    complete = 0
    incomplete = 0
    while True:
        for g in gen.standard_exponential(block).tolist():
            new = pos + g * scale
            if new > length:
                if started and run_last + eps <= length:
                    complete += 1
                return complete, incomplete
            if not started or new - pos > eps:
                if started and run_last + eps <= length:
                    complete += 1
                incomplete += 1
                started = True
            pos = new
            run_last = new


def _circle_count_fast(gen, mu, eps, length) -> int:
    n = int(gen.poisson(mu))
    if n == 0:
        return 0
    pos = np.sort(gen.random(n) * length).tolist()
    count = 0
    prev = pos[0]
    for x in pos[1:]:
        if x - prev > eps:
            count += 1
        prev = x
    if length - pos[-1] + pos[0] > eps:
        count += 1
    return count


def _coverage_outcome(gen, scale, eps, length, block) -> int:
    """Exact coverage indicator without a fixed horizon: the first
    cluster is walked draw by draw until it either closes or provably
    reaches the far end (its span can only grow), so no truncation bias
    enters."""
    first = True
    x1 = 0.0
    pos = 0.0
    while True:
        for g in gen.standard_exponential(block).tolist():
            new = pos + g * scale
            if first:
                if new > eps:
                    return 0
                x1 = new
                first = False
            elif new - pos > eps:
                return 1 if (pos + eps) - x1 >= (length - x1) else 0
            pos = new
            if (pos + eps) - x1 >= (length - x1):
                return 1


def _cluster_span(gen, scale, eps, block=8) -> float:
    """Span of one cluster: radius plus the distance from its first to
    its last point. Single-point clusters return the radius exactly,
    preserving the atom bit-for-bit."""
    pos = 0.0
    while True:
        for g in gen.standard_exponential(block).tolist():
            new = pos + g * scale
            if new - pos > eps:
                return eps + pos
            pos = new


def _cycle_sum(gen, scale, eps, order, block=8) -> float:
    total = 0.0
    for _ in range(order):
        total += _cluster_span(gen, scale, eps, block)
        total += float(gen.standard_exponential()) * scale
    return total


def _count_chunk(params, scenario, length, seed, reps, cycle_order):
    lam, eps = params.intensity, params.radius
    scale = 1.0 / lam
    counts: Counter[int] = Counter()
    values: list[float] = []
    pool = _RngPool(seed)
    if scenario in ("complete", "incomplete"):
        mean_n = lam * length
        block = max(8, int(mean_n + 4.0 * math.sqrt(mean_n + 1.0) + 4.0))
        pick = 0 if scenario == "complete" else 1
        for rep in range(reps):
            counts[_interval_run_counts(pool.reset(rep), scale, eps, length, block)[pick]] += 1
    elif scenario == "circle":
        mu = lam * length
        for rep in range(reps):
            counts[_circle_count_fast(pool.reset(rep), mu, eps, length)] += 1
    elif scenario == "coverage":
        block = max(8, int(lam * length + 4.0 * math.sqrt(lam * length + 1.0)))
        for rep in range(reps):
            counts[_coverage_outcome(pool.reset(rep), scale, eps, length, block)] += 1
    elif scenario == "b_law":
        for rep in range(reps):
            values.append(_cluster_span(pool.reset(rep), scale, eps))
    else:  # u_law
        for rep in range(reps):
            values.append(_cycle_sum(pool.reset(rep), scale, eps, cycle_order))
    return counts, values


def estimate(
    params: ModelParams,
    scenario: str,
    length: float,
    config: SampleConfig,
    cycle_order: int = 1,
) -> EmpiricalDistribution | np.ndarray:
    """Run independent replications of one scenario.

    Integer scenarios (complete, incomplete, circle, coverage) return an
    EmpiricalDistribution; the continuous ones (b_law, u_law) return the
    sorted sample of spans / cycle sums for distribution tests. All
    replications run in the calling thread; the parallelism hint changes
    neither results nor thread count.

    Args:
        params: Deployment model.
        scenario: One of SCENARIOS ('-' accepted in place of '_').
        length: Domain length / circumference; ignored by b_law and u_law.
        config: Seed, replication count, and parallelism hint (unused).
        cycle_order: Number of cycles summed per replication for u_law.

    Raises:
        ValueError: On an unknown scenario, a cycle_order below 1 for
            u_law, or a non-finite or non-positive length for the
            scenarios that use it.
    """
    key = scenario.lower().replace("-", "_")
    if key not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    if key == "u_law" and cycle_order < 1:
        raise ValueError(f"cycle_order must be >= 1, got {cycle_order}")
    if key not in ("b_law", "u_law") and not (length > 0.0 and math.isfinite(length)):
        raise ValueError(f"length must be positive and finite, got {length}")

    counts, values = _count_chunk(params, key, length, config.seed, config.replications, cycle_order)
    if key in ("b_law", "u_law"):
        return np.sort(np.asarray(values, dtype=float))
    return EmpiricalDistribution(counts=dict(sorted(counts.items())), total=config.replications)
