"""Monte Carlo engine: samples the point process and replays the exact
cluster decomposition the closed forms describe.

Stream v2: a run draws its replications in chunks of rows, and chunk c of
a run with seed s draws from a Philox counter-based generator keyed by the
128-bit integer (s << 64) | c. The rows per chunk follow from a fixed
budget of about 2^16 doubles per array over the model's expected row
width. A run's results therefore depend only on its seed, its replication
count and the model, and peak memory stays flat in L and in lambda * eps.

Each chunk is scanned with array operations. The count scenarios draw a
Poisson count per row and that many sorted uniforms, padded with inf
(coverage on the horizon max(L, eps)). The span laws draw a geometric
number of in-cluster gaps per cluster, each an exponential truncated to
[0, eps]. sample_interval, sample_circle, decompose, circle_cluster_count
and coverage_indicator are the per-sample reference operations that the
scan reproduces. Every chunk runs in the calling thread: the parallelism
hint is validated and otherwise changes neither results nor thread count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cluster_laws import ModelParams
from .errors import CapacityError

_SEED_MASK = (1 << 64) - 1
_CHUNK_ELEMENTS = 1 << 16  # doubles per chunk array
# Expected in-cluster gap draws per b_law / u_law replication, cycles (e^{lam eps} - 1).
MAX_GAPS_PER_REPLICATION = 1 << 24

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
    """Philox substream ``rep`` of run ``seed``, keyed (seed << 64) | rep.

    Under stream v2 the engine draws chunk c of a run from substream c;
    the reference samplers accept any substream.
    """
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


def _rows_per_chunk(row_width: float) -> int:
    """Rows per chunk: the element budget over the expected row width."""
    return max(1, int(_CHUNK_ELEMENTS / max(row_width, 1.0)))


def _chunks(seed: int, reps: int, rows: int):
    """(generator, first replication, row count) of every chunk of a run."""
    for chunk, start in enumerate(range(0, reps, rows)):
        yield replication_rng(seed, chunk), start, min(rows, reps - start)


def _padded_rows(gen: np.random.Generator, rows: int, mean_count: float, horizon: float):
    """Poisson counts and each row's sorted uniform positions on [0, horizon),
    padded on the right with inf (at least one inf column)."""
    counts = gen.poisson(mean_count, size=rows)
    width = int(counts.max()) + 1
    pos = gen.random((rows, width))
    pos *= horizon
    pos[np.arange(width) >= counts[:, None]] = np.inf
    pos.sort(axis=1)
    return counts, pos


def scan_rows(scenario: str, counts: np.ndarray, rows: np.ndarray, epsilon: float, length: float) -> np.ndarray:
    """Outcome of a count scenario for every row of a chunk.

    Each row of ``rows`` is one sorted point set padded on the right with
    inf (at least one inf column); ``counts`` holds its number of points.
    A gap beyond the radius ends a cluster and a gap exactly equal to it
    keeps the connection; the inf after a row's last point ends its last
    cluster. The comparisons are those of decompose (complete,
    incomplete), circle_cluster_count (circle of circumference ``length``)
    and coverage_indicator (coverage of [0, length]), element by element.

    Raises:
        ValueError: On a scenario that is not a count scenario.
    """
    # inf - inf between pads is nan, which compares False
    with np.errstate(invalid="ignore"):
        ends = np.diff(rows, axis=1) > epsilon
        if scenario == "incomplete":
            return np.count_nonzero(ends, axis=1)
        if scenario == "complete":
            return np.count_nonzero(ends & (rows[:, :-1] + epsilon <= length), axis=1)
        index = np.arange(rows.shape[0])
        first = rows[:, 0]
        if scenario == "circle":
            wrap = length - rows[index, np.maximum(counts - 1, 0)] + first
            return np.where(counts > 0, np.count_nonzero(ends, axis=1) - 1 + (wrap > epsilon), 0)
        if scenario == "coverage":
            # end of each row's first cluster (no gap column: every row is empty)
            reach = rows[index, ends.argmax(axis=1) if ends.shape[1] else 0] + epsilon
            return ((first <= epsilon) & (reach - first >= length - first)).astype(np.intp)
    raise ValueError(f"no row scan for scenario {scenario!r}")


def _count_outcomes(params, scenario, length, seed, reps) -> dict[int, int]:
    lam, eps = params.intensity, params.radius
    # coverage reads the points up to max(L, eps): the first must lie within eps
    horizon = max(length, eps) if scenario == "coverage" else length
    mean = lam * horizon
    tally: Counter[int] = Counter()
    for gen, _, rows in _chunks(seed, reps, _rows_per_chunk(mean + 4.0 * math.sqrt(mean) + 1.0)):
        counts, pos = _padded_rows(gen, rows, mean, horizon)
        tally.update(dict(enumerate(np.bincount(scan_rows(scenario, counts, pos, eps, length)).tolist())))
    return {n: c for n, c in sorted(tally.items()) if c}


def _spans(gen: np.random.Generator, size: int, lam: float, eps: float) -> np.ndarray:
    """Independent cluster spans: the radius plus a Geometric(e^{-lam eps}) - 1
    count of in-cluster gaps, each Exp(lam) truncated to [0, eps] by inverse
    CDF. A single-point cluster gives the radius exactly."""
    gaps = gen.geometric(math.exp(-lam * eps), size=size) - 1
    ends = np.cumsum(gaps)
    starts = ends - gaps
    total = int(ends[-1])
    sums = np.zeros(size)
    # gaps are drawn in blocks of the chunk budget, however long one cluster is
    for first in range(0, total, _CHUNK_ELEMENTS):
        last = min(first + _CHUNK_ELEMENTS, total)
        lengths = np.log1p(gen.random(last - first) * math.expm1(-lam * eps))
        lengths /= -lam
        in_block = np.clip(ends, first, last) - np.clip(starts, first, last)
        sums += np.bincount(np.repeat(np.arange(size), in_block), weights=lengths, minlength=size)
    return eps + sums


def _sample_laws(params, scenario, seed, reps, cycle_order) -> np.ndarray:
    lam, eps = params.intensity, params.radius
    cycles = cycle_order if scenario == "u_law" else 1
    out = np.empty(reps)
    for gen, start, rows in _chunks(seed, reps, _rows_per_chunk(cycles * math.exp(lam * eps))):
        values = _spans(gen, rows * cycles, lam, eps)
        if scenario == "u_law":
            # a cycle is a span plus the Exp(lam) excess of the gap after it
            values += gen.standard_exponential(rows * cycles) / lam
            values = values.reshape(rows, cycles).sum(axis=1)
        out[start:start + rows] = values
    out.sort()
    return out


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
    sorted sample of spans / cycle sums for distribution tests. The
    replications are drawn chunk by chunk under stream v2 (see the module
    docstring), all in the calling thread; the parallelism hint changes
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
        CapacityError: Before drawing, when a b_law or u_law replication
            expects more than MAX_GAPS_PER_REPLICATION gap draws.
    """
    key = scenario.lower().replace("-", "_")
    if key not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    if key == "u_law" and cycle_order < 1:
        raise ValueError(f"cycle_order must be >= 1, got {cycle_order}")
    if key not in ("b_law", "u_law") and not (length > 0.0 and math.isfinite(length)):
        raise ValueError(f"length must be positive and finite, got {length}")

    if key in ("b_law", "u_law"):
        lam_eps = params.intensity * params.radius
        # cycles (e^{lam eps} - 1) > bound, in logs as e^{lam eps} can overflow
        if lam_eps > math.log1p(MAX_GAPS_PER_REPLICATION / (cycle_order if key == "u_law" else 1)):
            raise CapacityError(f"{key} at lam*eps = {lam_eps:g} expects over {MAX_GAPS_PER_REPLICATION} gap draws per replication")
        return _sample_laws(params, key, config.seed, config.replications, cycle_order)
    counts = _count_outcomes(params, key, length, config.seed, config.replications)
    return EmpiricalDistribution(counts=counts, total=config.replications)
