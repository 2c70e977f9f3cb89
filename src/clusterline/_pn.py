"""Kernels for the complete-count probability profile.

``count_prob(lam, eps, x, n)`` evaluates the probability that the interval
[0, x] holds exactly n complete clusters:

    p_n(x) = (1/n!) * sum_{i=0}^{floor(x/eps) - n}
             ((-1)^i / i!) * ((x - (n+i) eps) * lam * e^{-lam eps})^{n+i}

The series is written once, over a NumberSystem: DOUBLES accumulates the
alternating sum exactly with math.fsum, and digits(dps) sums it in order in
mpmath at dps digits, which count_prob_mp re-runs for the 30/60/120-digit
escalation. Either pass returns the sum of absolute terms alongside so
callers can estimate cancellation. Over the summed range the term bases
b_k = (x - k eps) a are non-negative and non-increasing, so
|t_{i+1}| <= |t_i| c / (i + 1) with c = x a, with lag=1 too: once
c < (i + 1) / 2 the rest of the tail is below |t_i|. The sum stops at the
first such term that is also below 1e-18 of the leading term (10^-(dps+20)
of it at dps digits, and never below 1e-300), which keeps tiny-radius
limits (floor(x/eps) in the millions) affordable.

With ``lag=1`` every exponent is one lower and both sums are scaled by x a,
a = lam e^{-lam eps}: that is the cluster count on a circle of circumference
x, x a p_{n-1}(x - eps) / n for n >= 1 and p_0(x) - a eps p_0(x - eps) at 0.

The method of steps solves the delay equation p_n'(x) = a [p_{n-1}(x - eps)
- p_n(x - eps)], a = lam e^{-lam eps}, p_n = delta_{n0} on [0, eps]: on step
j (x = eps (j + t), 0 <= t <= 1) each p_n is a polynomial in t, one
integration of the last step's. Nothing cancels. With v_i the profile at
i eps and E = I - S the difference across counts, its t^m coefficient is
s_m (E^m v_{j-m})_n, s_m = (-a eps)^m / m!. One _StepTable per
(lam, eps, width), cached and extended on demand for every reader of the
model, holds the v_i and a cursor of those differences at one step, moved
by one difference recurrence. ``count_prob_at`` reads a point off the
cursor without numpy or tail stop; ``count_prob_steps`` forms the same
coefficients with numpy for an array and reads 0 past the table's 2^-60
tail stop. Both run Horner's rule in t, so they read the same bits.
``count_prob_deriv_grid`` reads p_n' off the same equation, so the span CDF
and its density share that one kernel. ``incomplete_counts`` walks the same
lattice once per model, with no table, one Horner chain in D = S - I per
step: by the last point the incomplete count integrates the profile against
e^{-lam (L - y)}, and the full steps' integrals are one more chain over
damped running sums of the lattice values. ``count_prob_grid`` sums the
alternating series for p_0..p_{n_max} over an array in plain doubles,
forming each power b_k^k once per point for every count, with each count's
own tail stop; it backs the Laplace check, whose quadrature must stay
independent of the step table, and the tests' oracles.

The scalar series, count_prob_at and incomplete_counts need only math (and
mpmath for digit passes); the three array kernels import numpy when
called, so the scalar paths run without it.
"""

from __future__ import annotations

import math
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub, truediv
from typing import TYPE_CHECKING, Callable

from .errors import CapacityError

if TYPE_CHECKING:  # the array kernels import numpy when called
    import numpy as np

# Tolerance on floor(x/eps): at exact lattice multiples the extra term is
# identically zero, so this only suppresses floating-point flicker.
FLOOR_SLACK = 1e-12

_TAIL_CUTOFF = 1e-18
_LOG_UNDERFLOW = -760.0

# Method of steps: the t^m coefficient's rows sum to at most (2 a eps)^m / m!,
# and a table drops the m where that is under _STEP_DROP: degree 25 where
# a eps is near its peak 1/e (lam eps = 1), 12 at lam eps = 6.
# A table's tail stop is its first step with P(N <= n_max) < 2^-60. One table
# holds at most STEP_TABLE_BUDGET values; tables of other models are kept
# while all of them hold at most _CACHE_VALUES (a bound of 2^19 let the
# tables of past models add 10 MB to a process that reads many models).
_STEP_DROP = 3e-29
# The incomplete count's pass cuts at 1e-45 (degree 35 at lam eps = 1), which
# keeps its entries relative down to about 1e-40.
_INCOMPLETE_DROP = 1e-45
_STEP_TAIL = 2.0**-60
STEP_TABLE_BUDGET = 1 << 19
_CACHE_VALUES = 1 << 16
_READ_VALUES = 1 << 18  # t^m coefficients count_prob_steps forms at once (2 MB)


def floor_ratio(x: float, eps: float) -> int:
    """floor(x / eps) with slack against floating-point flicker."""
    return int(math.floor(x / eps + FLOOR_SLACK))


@dataclass(frozen=True)
class NumberSystem:
    """What a count series computes in: doubles, or mpmath at some digits."""

    num: Callable
    exp: Callable
    total: Callable  # math.fsum, or an in-order sum whose digits absorb the rounding
    inv_fact: Callable  # i -> 1/i!
    tail_cut: float  # the p_n sum stops at a term below this times its leading term, once the tail is below that term


def _inv_fact_table(one, far: Callable) -> Callable:
    """i -> 1/i!, from a table up to 170 and from ``far`` past it."""
    table = tuple(one / math.factorial(i) for i in range(171))
    return lambda i: table[i] if i <= 170 else far(i)


_inv_fact_double = _inv_fact_table(1.0, lambda i: math.exp(-math.lgamma(i + 1)))
DOUBLES = NumberSystem(float, math.exp, math.fsum, _inv_fact_double, _TAIL_CUTOFF)


@lru_cache(maxsize=None)
def digits(dps: int) -> NumberSystem:
    """mpmath at ``dps`` significant digits, in a context of its own."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = dps
    inv_fact = _inv_fact_table(ctx.mpf(1), lambda i: 1 / ctx.factorial(i))
    return NumberSystem(ctx.mpf, ctx.exp, sum, inv_fact, 10.0 ** -(dps + 20))


def count_prob(lam: float, eps: float, x: float, n: int, *, lag: int = 0) -> tuple[float, float]:
    """Raw probability of n complete clusters on [0, x], plus |term| mass.

    Returns:
        (value, abs_sum) where value is the unclamped alternating sum and
        abs_sum is the sum of absolute term magnitudes (for cancellation
        estimates). For x <= 0 the profile is 1 at n = 0 and 0 otherwise.
        ``lag=1`` gives the circle count on circumference x instead.
    """
    return _pn_sum(DOUBLES, lam, eps, x, n, lag)


def count_prob_mp(lam: float, eps: float, x: float, n: int, dps: int, *, lag: int = 0) -> tuple[float, float]:
    """count_prob's series re-run at ``dps`` digits, when the double pass
    cancels too much, as doubles with the mass capped at 1e300."""
    value, mass = _pn_sum(digits(dps), lam, eps, x, n, lag)
    return float(value), float(min(mass, 1e300))


def _pn_sum(ar: NumberSystem, lam: float, eps: float, x: float, n: int, lag: int) -> tuple:
    """The p_n series in the arithmetic ``ar``, with its sum of |term|; lag 1 lowers every exponent, scaling both by x a."""
    if x <= 0.0:
        one = 1.0 if n == 0 else 0.0
        return one, one
    i_max = floor_ratio(x, eps) - n
    if i_max < 0:
        return 0.0, 0.0
    lam_n, eps_n, x_n = ar.num(lam), ar.num(eps), ar.num(x)
    a = lam_n * ar.exp(-lam_n * eps_n)
    c = x * float(a)  # upper bound on every term base
    if n > 0:
        # for huge n every term (a lagged one once scaled by x a) underflows,
        # and b**k could overflow before the inverse factorials bring it back.
        log_lead = n * math.log(c) - math.lgamma(n + 1) if c > 0 else _LOG_UNDERFLOW
        if log_lead < _LOG_UNDERFLOW:
            return 0.0, 0.0
    inv_nfact = ar.inv_fact(n)
    terms, scale = [], x_n * a if lag else 1
    for i in range(i_max + 1):
        k = n + i
        b = (x_n - k * eps_n) * a
        try:
            mag = b ** (k - lag) * inv_nfact * ar.inv_fact(i)
        except (OverflowError, ZeroDivisionError):  # b**k overflowed, or the lag's b**-1 with a underflowed
            return math.nan, math.inf  # far outside the stable regime; callers flag it
        terms.append(-mag if i % 2 else mag)
        if i == 0:
            cut = max(ar.tail_cut * abs(float(mag)), 1e-300)  # relative to the leading term
        if c < 0.5 * (i + 1) and abs(mag) < cut:  # the rest of the tail is below |term i|
            break
    return scale * ar.total(terms), scale * ar.total(map(abs, terms))


def _step_degree(h: float, drop: float) -> int:
    """The smallest d with (2h)^(d+1) / (d+1)! < drop, a bound on the row sum
    of every dropped t^m coefficient of the method of steps, h = a eps."""
    degree = 0
    while (2.0 * h) ** (degree + 1) / math.factorial(degree + 1) >= drop:
        degree += 1
    return degree


class _StepTable:
    """p_0..p_{width-1} at the lattice points j eps of one model, by the method
    of steps, extended on demand. ``columns[k][degree + j]`` holds
    v_j[k] = p_k(j eps), after ``degree`` zeros for the steps before 0,
    ``coefs[m]`` s_m = (-h)^m / m!, h = a eps, and ``cursor`` (i, rows),
    rows[k][m] = (E^m v_{i-m})_k, which depends only on v_{i-degree..i}.
    ``degree`` is the smallest d with (2h)^(d+1) / (d+1)! < _STEP_DROP, a bound
    on every dropped coefficient's row sum. ``stop`` is the first step where
    sum_k p_k < 2^-60, once built.
    """

    __slots__ = ("degree", "coefs", "columns", "steps", "stop", "cursor", "last_read")

    def __init__(self, h: float, width: int):
        self.degree = degree = _step_degree(h, _STEP_DROP)
        self.coefs = [(-h) ** m / math.factorial(m) for m in range(degree + 1)]
        self.columns = [array("d", [0.0] * degree + [float(k == 0)]) for k in range(width)]
        self.steps, self.stop = 0, None
        self.cursor = (0, [[float(k == 0)] + [0.0] * degree for k in range(width)])
        self.last_read = (-1, None)  # (j, t^m coefficients of p_{width-1} on step j), for count_prob_at

    def size(self) -> int:
        """Doubles held, each float of the cursor (a float in a list) counted as four."""
        return len(self.columns) * (len(self.columns[0]) + 4 * (self.degree + 1))

    def advance(self, cursor: tuple) -> tuple:
        """The cursor a step on, rows'[k] = [v_{i+1}[k]] + (rows[k] - rows[k-1])[:degree], v_{i+1}
        off the columns or built as sum_m s_m rows[k][m]; replaced whole for lock-free reads."""
        i, rows = cursor
        d, coefs, j = self.degree, self.coefs, i + 1
        build, total, ahead = j > self.steps, 0.0, []
        for column, row in zip(self.columns, rows):
            if build:
                value = sum(map(mul, coefs, row))
                column.append(value)
                total += value
            else:
                value = column[d + j]
            ahead.append([value, *map(sub, row[:d], lower)] if ahead else [value, *row[:d]])
            lower = row
        if build:
            if self.stop is None and total < _STEP_TAIL:
                self.stop = j
            self.steps = j
        self.cursor = cursor = (j, ahead)
        return cursor

    def walk(self, j: int, stop: bool = False) -> tuple:
        """The cursor at step j, building past the table's end (only to the tail
        stop if ``stop``), from zeros degree + 1 steps before min(j, steps) when
        that is behind the cursor or far ahead."""
        d, columns, start, cursor = self.degree, self.columns, min(j, self.steps), self.cursor
        # before building, drop what an interrupted build appended: a step
        # appends to the columns in order, so it has lengthened the first
        if j > start and len(columns[0]) > d + start + 1:
            for column in columns:
                del column[d + start + 1 :]
        if not cursor[0] <= start <= cursor[0] + d + 1:
            cursor = (start - d - 1, [[0.0] * (d + 1)] * len(columns))
        while cursor[0] < j and not (stop and self.stop is not None):
            cursor = self.advance(cursor)
        return cursor


class _StepTables:
    """One _StepTable per (lam, eps, width). Once the tables hold over
    _CACHE_VALUES values together, the least recently used go, down to the
    one just read."""

    def __init__(self):
        self._tables: OrderedDict[tuple[float, float, int], _StepTable] = OrderedDict()
        self._values = 0
        self._lock = threading.Lock()
        self._last = (None, None)  # the most recently used (key, table)

    def get(self, lam: float, eps: float, width: int, steps: int, stop: bool) -> _StepTable:
        """The model's table built through step ``steps`` (to its tail stop, if ``stop``)."""
        key = (lam, eps, width)
        last_key, table = self._last
        if key == last_key and (steps <= table.steps or stop and table.stop is not None):
            return table  # already last in the LRU order, and long enough
        with self._lock:
            table = self._tables.get(key)
            if table is None:
                table = self._tables[key] = _StepTable(lam * math.exp(-lam * eps) * eps, width)
                self._values += table.size()
            else:
                self._tables.move_to_end(key)
            if steps > table.steps:
                built = table.steps
                try:
                    table.walk(steps, stop)
                finally:  # an interrupted build keeps, and counts, the steps it finished
                    self._values += len(table.columns) * (table.steps - built)
            while self._values > _CACHE_VALUES and len(self._tables) > 1:
                self._values -= self._tables.popitem(last=False)[1].size()
            self._last = (key, table)
            return table

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self._values = 0
            self._last = (None, None)


_STEP_TABLES = _StepTables()


def count_prob_at(lam: float, eps: float, x: float, n: int) -> float:
    """p_n(x) off the model's step table, with no tail stop, and without numpy:
    on step j (x = eps (j + t)), Horner's rule in t over s_m (E^m v_{j-m})_n
    off the table's cursor, the bits count_prob_steps reads. The step read
    last keeps its coefficients, and a read one step past the table extends it.

    Raises:
        CapacityError: Before building, for x past STEP_TABLE_BUDGET / (n + 1) steps.
    """
    if x <= 0.0:
        return 1.0 if n == 0 else 0.0
    u, limit = x / eps, STEP_TABLE_BUDGET // (n + 1)
    if not u < limit + 1:
        raise CapacityError(f"p_{n} at x = {x:g} needs over {limit} steps of eps = {eps:g} (STEP_TABLE_BUDGET)")
    j = math.floor(u)
    table = _STEP_TABLES.get(lam, eps, n + 1, j, False)
    read_j, coefs = table.last_read
    if read_j != j:  # a grid read in order holds a few points per step
        coefs = list(map(mul, reversed(table.coefs), reversed(table.walk(j)[1][n])))  # m = d .. 0
        table.last_read = (j, coefs)
    t, value = u - j, 0.0
    for c in coefs:
        value = value * t + c
    return value


def _damped_moments(b: float, degree: int) -> list[float]:
    """int_0^1 e^{-b (1 - s)} s^m ds for m = 0..degree, each at most 1 / (m + 1).

    Upward from m = 0 by m M_{m-1} + b M_m = 1 where b > degree, so every step
    shrinks the error by m / b; else (b <= degree, so e^b cannot overflow)
    e^{-b} sum_k b^k / (k! (m + k + 1)), whose terms are all positive.
    """
    if b > degree:
        moments = [-math.expm1(-b) / b]
        for m in range(1, degree + 1):
            moments.append((1.0 - m * moments[-1]) / b)
        return moments
    powers, total = [1.0], 1.0  # b^k / k!, to past the peak and below 1e-17 of their sum
    while len(powers) <= 2.0 * b or powers[-1] >= 1e-17 * total:
        powers.append(powers[-1] * b / len(powers))
        total += powers[-1]
    damp = math.exp(-b)
    return [damp * sum(map(truediv, powers, range(m + 1, m + len(powers) + 1))) for m in range(degree + 1)]


def _horner_in_d(coefs: list[float], history: list[list[float]]) -> list[float]:
    """sum_m coefs[m] D^m history[m] by Horner's rule in D = S - I, for
    m < len(history); history[m] holds v_{j-m}, j - m + 1 long, and each D
    lengthens the sum by one."""
    m = len(history) - 1
    acc = [coefs[m] * x for x in history[m]]
    for m in range(m - 1, -1, -1):
        acc = list(map(add, map(mul, repeat(coefs[m]), history[m]), map(sub, [0.0, *acc], [*acc, 0.0])))
    return acc


@lru_cache(maxsize=128)
def incomplete_counts(lam: float, eps: float, length: float) -> tuple[float, ...]:
    """q_0..q_{J+1}, J = floor(length / eps): P(n clusters touch [0, length]).

    With the last point at y, every other cluster is complete on [0, y], so
    q_n(L) = delta_{n0} e^{-lam L} + lam int_0^L e^{-lam (L - y)} p_{n-1}(y) dy.
    The pass walks the lattice v_j = p(j eps), j + 1 long as p_n(j eps) = 0
    for n >= j, by v_{j+1} = sum_m c_m D^m v_{j-m}, c_m = (a eps)^m / m!, one
    Horner chain in D = S - I per step. Step j's integral (y = eps (j + s),
    0 <= s <= tau, with tau = 1 but on the last, partial step) is
    eps e^{-lam (L - eps (j + tau))} sum_m w_m D^m v_{j-m},
    w_m = c_m int_0^tau e^{-lam eps (tau - s)} s^m ds <= c_m / (m + 1): damped
    to the step's end, no weight overflows at large lam eps. With
    s_j = lam eps e^{-lam (L - eps (j + 1))}, the J full steps sum to
        sum_j s_j sum_m w_m D^m v_{j-m}
            = lam eps e^{-lam (L - eps J)} sum_m w_m D^m R_{J-1-m},
    where R_k = e^{-lam eps} R_{k-1} + v_k is a damped running sum, kept for
    the last degree + 1 steps: each step adds one update as long as v_j, and
    the full steps' integrals are one chain after the walk. The degree is
    min(J, _step_degree at 1e-45). Nothing cancels between steps: every entry
    is within 1e-12 relative plus 1e-43 absolute.
    """
    steps = floor_ratio(length, eps)
    h = lam * math.exp(-lam * eps) * eps
    degree = min(_step_degree(h, _INCOMPLETE_DROP), steps)
    coefs = [h**m / math.factorial(m) for m in range(degree + 1)]
    full, last = (  # the step weights, for a full step and for the last, partial one
        [c * tau ** (m + 1) * w for m, (c, w) in enumerate(zip(coefs, _damped_moments(lam * eps * tau, degree)))]
        for tau in (1.0, max(length / eps - steps, 0.0))
    )
    damp = math.exp(-lam * eps)
    history = [[1.0]]  # v_j, v_{j-1}, .. back to v_{j-degree}
    sums = [[]]  # R_{j-1}, R_{j-2}, .. back to R_{j-1-degree}; R_{-1} = 0 holds no entry
    for j in range(steps):
        v = history[0]
        sums.insert(0, [*map(add, map(mul, repeat(damp), sums[0]), v), v[-1]])
        history.insert(0, _horner_in_d(coefs, history) + [0.0])
        del history[degree + 1 :], sums[degree + 1 :]
    scale = lam * eps * math.exp(-lam * (length - eps * steps))
    counts = [math.exp(-lam * length), *map(mul, repeat(scale), _horner_in_d(full, sums)), 0.0]
    counts[1:] = map(add, counts[1:], map(mul, repeat(lam * eps), _horner_in_d(last, history)))
    return tuple(counts)


def count_prob_steps(lam: float, eps: float, xs, n_max: int) -> np.ndarray:
    """p_0..p_{n_max} at xs by the method of steps, shape (n_max + 1, *xs.shape).

    The lattice values come from the model's cached step table, built up to
    the last step that holds a point or to its tail stop. The coefficients
    s_m (E^m v_{j-m}) are formed in blocks of at most _READ_VALUES, E applied
    across the counts as count_prob_at's cursor applies it, and each point
    runs Horner's rule in t over its step's, so both read the same bits.
    Points past the first step where sum_k p_k < 2^-60 read 0, as
    P(N(x) <= n_max) does not increase.

    Raises:
        CapacityError: For a point past STEP_TABLE_BUDGET / (n_max + 1) steps
            when the profile has not fallen below 2^-60 by then.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    u, width = xs.ravel() / eps, n_max + 1
    step = np.maximum(np.floor(u), 0.0)  # nan stays nan
    top, limit = np.nanmax(step, initial=0.0), STEP_TABLE_BUDGET // width
    # p_0(x) >= e^{-lam x} (no point in [0, x]) and >= 1 - a x (p_0' >= -a): no stop
    # by step `limit` if lam eps limit < 60 ln 2 or a eps limit < 1/2, so raise unbuilt
    h = lam * math.exp(-lam * eps) * eps
    unreachable = lam * eps * limit < 60.0 * math.log(2.0) or h * limit < 0.5
    steps = 0 if top > limit and unreachable else int(min(top, limit))
    table = _STEP_TABLES.get(lam, eps, width, steps, True)
    if table.stop is None and top > limit:
        raise CapacityError(f"p_0..p_{n_max} at x = {top * eps:g} needs over {limit} steps of eps = {eps:g} (STEP_TABLE_BUDGET)")
    deg = table.degree
    beyond = step >= (np.inf if table.stop is None else table.stop)
    index = np.where(beyond | np.isnan(step), 0.0, step).astype(np.intp)
    t = np.clip(u - index, 0.0, 1.0)
    rows = int(index.max(initial=0)) + 1  # steps 0..rows-1 hold every point
    block = max(1, min(rows, _READ_VALUES // (width * (deg + 1))))
    coefs, acc = np.empty((deg + 1, width, block)), np.zeros((width, u.size))
    for lo in range(0, rows, block):
        hi = min(lo + block, rows)
        inside = slice(None) if block == rows else np.flatnonzero((index >= lo) & (index < hi))
        at, tt, part = index[inside] - lo, t[inside], acc[:, inside]  # one block: views of every point
        diff = np.array([column[lo : deg + hi] for column in table.columns])  # v_{lo-deg} .. v_{hi-1}
        for m in range(deg + 1):
            np.multiply(table.coefs[m], diff[:, deg - m : deg - m + hi - lo], out=coefs[m, :, : hi - lo])
            diff[1:] -= diff[:-1]  # E, across the counts
        term = np.empty_like(part)
        for m in range(deg, -1, -1):  # Horner's rule, one coefficient at a time
            part *= tt
            part += np.take(coefs[m], at, axis=1, out=term, mode="wrap")  # at < hi - lo: skip the bounds check
        acc[:, inside] = part  # a copy back only past one block
    acc[:, beyond] = 0.0
    return acc.reshape((width, *xs.shape))


def count_prob_grid(lam: float, eps: float, xs, n_max: int) -> np.ndarray:
    """p_0..p_{n_max} at xs by the alternating sum, shape (n_max + 1, *xs.shape).

    The points are sorted once; each power max(b_k, 0)^k, b_k = (x - k eps) a,
    is formed once on the suffix of points it reaches (x >= k eps) and added,
    times (-1)^(k-n) / (n! (k - n)!), into every row n <= k whose series has
    not stopped. Row n stops where the single-count sum would (see _pn_sum,
    with the largest point's x a), so its bits do not depend on n_max. Plain
    float64 accumulation (no fsum): it is within 1e-12 absolute only while
    the sum cancels little, to x = 10 at lam = 2, eps = 0.5 and to x = 20 at
    lam = eps = 1. It backs the Laplace check, whose quadrature must stay
    independent of the step table, and the tests' oracles. Points x <= 0
    read p_0 = 1.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    flat, width = xs.ravel(), n_max + 1
    out = np.zeros((width, flat.size))
    positive = flat > 0.0
    out[0, ~positive] = 1.0
    order = np.flatnonzero(positive)
    if order.size:
        order = order[np.argsort(flat[order], kind="stable")]
        nodes = flat[order]
        rows = np.zeros((width, nodes.size))
        a = lam * math.exp(-lam * eps)
        c = float(nodes[-1]) * a
        slacks = [(k * eps) * (1.0 - FLOOR_SLACK) for k in range(floor_ratio(float(nodes[-1]), eps) + 1)]
        live = []  # the rows started and not yet stopped
        with np.errstate(over="ignore", invalid="ignore"):
            for k, start in enumerate(np.searchsorted(nodes, slacks).tolist()):
                if k < width:
                    live.append(k)
                if start == nodes.size or not live:
                    break
                power = np.maximum((nodes[start:] - k * eps) * a, 0.0) ** k if k > 0 else np.ones(nodes.size)
                top = float(power.max())
                for n in tuple(live):
                    i = k - n
                    coef = _inv_fact_double(n) * _inv_fact_double(i)
                    rows[n, start:] += power * (-coef if i % 2 else coef)
                    if c < 0.5 * (i + 1) and top * coef < _TAIL_CUTOFF:  # max(power * coef), as in _pn_sum
                        live.remove(n)
        out[:, order] = rows
    return out.reshape((width, *xs.shape))


def count_prob_deriv_grid(lam: float, eps: float, xs: np.ndarray, n: int) -> np.ndarray:
    """p_n' at xs by the delay equation: a [p_{n-1}(x - eps) - p_n(x - eps)]
    for x >= eps (the right derivative at lattice points), 0 below, on one
    count_prob_steps call. Raises CapacityError as count_prob_steps does.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    lagged = count_prob_steps(lam, eps, xs - eps, n)
    lower = lagged[n - 1] if n > 0 else 0.0
    slope = lam * math.exp(-lam * eps) * (lower - lagged[n])
    return np.where(xs >= eps * (1.0 - FLOOR_SLACK), slope, 0.0)
