"""Exact combinatorics and series kernels used by the cluster-count formulas.

Stirling numbers of the second kind are kept as exact integers of arbitrary
magnitude; they only become floats at the final multiply inside consumers.
The negative-order polylogarithm is its defining series for small arguments
and its finite Stirling expansion, summed exactly, elsewhere, and partial
exponential sums are accumulated with compensation because callers feed
them negative arguments with heavy cancellation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .errors import CapacityError

# Largest supported set size for Stirling rows. Moment orders beyond this
# have no use here, and the bound keeps the row cache tiny.
STIRLING_MAX_SET_SIZE = 64


@dataclass(frozen=True)
class StirlingRow:
    """One row of the second-kind Stirling triangle.

    ``values[k]`` is the exact number of ways to partition a set of
    ``set_size`` items into ``k`` nonempty blocks, for k = 0..set_size.
    Indices past the end of the row read as zero.
    """

    set_size: int
    values: tuple[int, ...]

    def partition_count(self, k: int) -> int:
        if k < 0:
            raise ValueError(f"block count must be non-negative, got {k}")
        return self.values[k] if k <= self.set_size else 0


_row_cache: list[StirlingRow] = []
_row_lock = threading.Lock()


def stirling_row(m: int) -> StirlingRow:
    """Return the full Stirling row for a set of ``m`` items.

    Rows are built by the triangle recurrence
    S(m+1, k) = k * S(m, k) + S(m, k-1) and memoized under a lock so the
    cache is safe for concurrent callers.

    Raises:
        CapacityError: If m exceeds STIRLING_MAX_SET_SIZE.
        ValueError: If m is negative.
    """
    if m < 0:
        raise ValueError(f"set size must be non-negative, got {m}")
    if m > STIRLING_MAX_SET_SIZE:
        raise CapacityError(
            f"Stirling rows are supported up to set size "
            f"{STIRLING_MAX_SET_SIZE}, got {m}"
        )
    with _row_lock:
        if not _row_cache:
            _row_cache.append(StirlingRow(0, (1,)))
        while len(_row_cache) <= m:
            prev = _row_cache[-1].values
            size = len(_row_cache)
            row = [0] * (size + 1)
            row[size] = 1
            for k in range(1, size):
                row[k] = k * prev[k] + prev[k - 1]
            _row_cache.append(StirlingRow(size, tuple(row)))
        return _row_cache[m]


def stirling2(m: int, k: int) -> int:
    """Exact Stirling number of the second kind S(m, k).

    Counts the partitions of a set of ``m`` items into ``k`` nonempty
    blocks. Values are exact integers, never floats.

    Raises:
        CapacityError: If m exceeds STIRLING_MAX_SET_SIZE.
        ValueError: If m or k is negative.
    """
    return stirling_row(m).partition_count(k)


def polylog_neg(m: int, z: float) -> float:
    """Polylogarithm of negative integer order, Li_{-m}(z), for z < 1.

    For 0 < z <= 1/2 sums the defining series sum_{j>=1} j^m z^j until its
    terms fall below 1e-17 of the sum. Elsewhere uses the finite expansion
    Li_{-m}(z) = sum_{k=0}^{m} (-1)^{m+k} k! S(m+1, k+1) / (1-z)^{k+1},
    which continues the series analytically below 1. Its terms cancel (to
    about z near 0, by 1e22 at m = 63, z = -0.3), so it is summed in exact
    integers over the exact ratio z = p/q and rounded once: correctly
    rounded, and about 0.1 ms at m = 63.

    Args:
        m: Positive integer order (negated).
        z: Real argument, must satisfy z < 1.

    Raises:
        ValueError: If m < 1 or z >= 1.
        CapacityError: If m + 1 exceeds the Stirling support bound.
        OverflowError: If the value lies past the double range.
    """
    if m < 1:
        raise ValueError(f"order must be a positive integer, got {m}")
    if not z < 1.0:
        raise ValueError(f"argument must satisfy z < 1, got {z}")
    if z == 0.0 or z == -math.inf:  # Li_{-m} vanishes at both
        return 0.0
    row = stirling_row(m + 1)  # first, so the order bound holds for every z
    if 0.0 < z <= 0.5:
        # the terms rise to their peak, so none before it is under 1e-17 of the sum
        terms = [z]
        total = z
        while terms[-1] > 1e-17 * total:
            j = len(terms) + 1
            terms.append(j**m * z**j)
            total += terms[-1]
        return math.fsum(terms)
    # with 1 - z = d / q: q sum_k (-1)^{m+k} k! S(m+1, k+1) q^k d^{m-k} / d^{m+1},
    # the numerator by Horner's rule in q from k = m down
    p, q = z.as_integer_ratio()
    d = q - p
    numerator, d_power = 0, 1
    for k in range(m, -1, -1):
        coeff = math.factorial(k) * row.values[k + 1]
        numerator = numerator * q + (-coeff if (m + k) % 2 else coeff) * d_power
        d_power *= d
    return q * numerator / d_power  # int / int rounds once, and raises OverflowError past the range


def partial_exp_sum(j_max: int, y: float) -> float:
    """Partial Taylor sum of exp: sum_{j=0}^{j_max} y^j / j!.

    Accumulated ascending with Kahan compensation; arguments can be
    negative with strong cancellation, so the cheap route through
    exp(y) minus a tail is deliberately not used.

    Raises:
        ValueError: If j_max is negative.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be non-negative, got {j_max}")
    total = 1.0
    comp = 0.0
    term = 1.0
    for j in range(1, j_max + 1):
        term *= y / j
        delta = term - comp
        fresh = total + delta
        comp = (fresh - total) - delta
        total = fresh
    return total
