"""Exact combinatorics and series kernels, checked against independent
oracles: brute-force set-partition enumeration, the Bell triangle, and
direct series summation."""

import math
import sys

import mpmath
import pytest

from clusterline import CapacityError, partial_exp_sum, polylog_neg, stirling2, stirling_row


def partitions_into_blocks(items: tuple, blocks: int) -> int:
    """Count partitions of `items` into exactly `blocks` nonempty blocks
    by direct recursive enumeration (oracle, exponential cost)."""
    if not items:
        return 1 if blocks == 0 else 0
    if blocks <= 0:
        return 0
    first, rest = items[0], items[1:]

    def place(remaining, groups):
        if not remaining:
            return 1 if len(groups) == blocks else 0
        total = 0
        x = remaining[0]
        for g in range(len(groups)):
            groups[g].append(x)
            total += place(remaining[1:], groups)
            groups[g].pop()
        if len(groups) < blocks:
            groups.append([x])
            total += place(remaining[1:], groups)
            groups.pop()
        return total

    return place(rest, [[first]])


def bell_numbers(count: int) -> list[int]:
    """Bell numbers via the Bell triangle (independent of the Stirling
    recurrence)."""
    rows = [[1]]
    for _ in range(count - 1):
        prev = rows[-1]
        row = [prev[-1]]
        for v in prev:
            row.append(row[-1] + v)
        rows.append(row)
    return [r[0] for r in rows]


class TestStirling:
    def test_single_partition(self):
        assert stirling2(1, 1) == 1

    def test_three_into_two_vs_enumeration(self):
        assert partitions_into_blocks((1, 2, 3), 2) == 3
        assert stirling2(3, 2) == 3

    def test_no_partition_into_zero_blocks(self):
        assert stirling2(5, 0) == 0

    @pytest.mark.parametrize("m", range(7))
    def test_small_rows_vs_enumeration(self, m):
        items = tuple(range(m))
        for k in range(m + 2):
            assert stirling2(m, k) == partitions_into_blocks(items, k)

    def test_row_invariants(self):
        for m in range(0, 30):
            row = stirling_row(m)
            assert row.values[m] == 1
            assert row.values[0] == (1 if m == 0 else 0)
            assert row.partition_count(m + 5) == 0
        # triangle recurrence S(m+1, k) = k S(m, k) + S(m, k-1)
        for m in range(0, 20):
            for k in range(1, m + 2):
                assert stirling2(m + 1, k) == k * stirling2(m, k) + stirling2(m, k - 1)

    def test_row_sums_match_bell_triangle(self):
        bells = bell_numbers(21)
        for m in range(21):
            assert sum(stirling_row(m).values) == bells[m]

    def test_alternating_factorial_identity(self):
        # sum_j (-1)^j j! S(m+1, j+1) vanishes for every positive m
        for m in range(1, 21):
            total = sum(
                (-1) ** j * math.factorial(j) * stirling2(m + 1, j + 1) for j in range(m + 1)
            )
            assert total == 0

    def test_capacity_bound(self):
        assert stirling2(64, 10) > 0
        with pytest.raises(CapacityError, match="64"):
            stirling2(65, 3)

    def test_negative_arguments(self):
        with pytest.raises(ValueError):
            stirling_row(-1)
        with pytest.raises(ValueError):
            stirling2(3, -1)


def polylog_series(m: int, z: float, terms: int = 200) -> float:
    """Direct summation oracle for Li_{-m}(z) = sum k^m z^k."""
    return math.fsum(k**m * z**k for k in range(1, terms + 1))


class TestPolylogNeg:
    def test_geometric_series_value(self):
        assert polylog_neg(1, 0.5) == pytest.approx(polylog_series(1, 0.5), abs=1e-12)
        assert polylog_neg(1, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_zero_argument(self):
        assert polylog_neg(2, 0.0) == 0.0

    def test_cube_series(self):
        assert polylog_neg(3, 0.25) == pytest.approx(polylog_series(3, 0.25), abs=1e-12)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("z", [-0.5, -0.1, 0.1, 0.5, 0.9])
    def test_series_agreement_grid(self, m, z):
        reference = polylog_series(m, z, terms=600)
        assert polylog_neg(m, z) == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 63])
    @pytest.mark.parametrize(
        "z", [1e-20, 1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5]
        + [-1e300, -0.3, -0.1, -1e-9, 0.5000001, 0.7, 0.9, 0.999, 1.0 - 1e-10]
    )
    def test_matches_mpmath(self, m, z):
        # the finite expansion's terms cancel: to about z for small z
        # (1.3e-4 relative at z = 1e-12 in floats), so small z takes the
        # series, and by up to 1e22 at m = 63 (z = -0.3), so the rest is
        # summed exactly; summed in floats, z = 0.5000001 was off by 1.7e-2
        # and z = 1 - 1e-10 divided by zero
        with mpmath.workdps(60):
            reference = mpmath.polylog(-m, mpmath.mpf(z))
        if abs(reference) > sys.float_info.max:
            with pytest.raises(OverflowError):
                polylog_neg(m, z)
        else:
            assert polylog_neg(m, z) == pytest.approx(float(reference), rel=1e-15, abs=0.0)

    def test_minus_infinity_reads_zero(self):
        assert polylog_neg(3, -math.inf) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            polylog_neg(2, 1.0)
        with pytest.raises(ValueError):
            polylog_neg(2, 1.5)
        with pytest.raises(ValueError):
            polylog_neg(0, 0.5)


class TestPartialExpSum:
    def test_zeroth_term_only(self):
        assert partial_exp_sum(0, 7.3) == 1.0

    def test_three_terms(self):
        assert partial_exp_sum(2, 1.0) == pytest.approx(2.5, abs=1e-15)

    def test_negative_argument_converges(self):
        assert partial_exp_sum(50, -3.0) == pytest.approx(math.exp(-3.0), abs=1e-12)

    @pytest.mark.parametrize("y", [0.3, 1.7, 4.2, 9.5])
    def test_monotone_and_convergent_positive(self, y):
        values = [partial_exp_sum(j, y) for j in range(int(3 * y + 41))]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(math.exp(y), rel=1e-12)

    @pytest.mark.parametrize("y", [-1.0, -6.5, -11.0])
    def test_convergence_negative(self, y):
        j = int(3 * abs(y)) + 40
        assert partial_exp_sum(j, y) == pytest.approx(math.exp(y), abs=1e-12)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            partial_exp_sum(-1, 1.0)
