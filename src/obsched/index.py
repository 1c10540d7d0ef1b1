"""Marginal cost, marginal work and the Whittle (marginal-productivity) index.

The index at state x is the ratio of the discounted uncertainty-cost
difference to the discounted observation-effort difference between the two
forced-first-action variants of the x-threshold policy, both sums taken
to the infinite horizon.  Threshold orbits are eventually periodic: once
an orbit repeats a state bit for bit, the rest of its sum is the cycle's
sum times 1 / (1 - beta^n), in closed form.  Orbits that do not repeat
within the step cap T of :func:`truncation_horizon` are truncated there.
The scalar point queries walk a point's orbits to their first repeat and
evaluate all their states in one cost call, together with the ends of
the states' range for the overflow guard of :func:`whittle_index`.
Also: closed forms for the noiseless case, the discount-to-one limit
from the same exact cycles, Q-values of threshold policies, and grid
tabulation with monotonicity accounting.  The batch kernel steps many
orbits of one beta per call, of one arm or of several, with
:func:`dynamics.batch_map`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .costs import CostDomainError, CostFn
# ``phi`` and ``is_balanced`` are unused here but stay module attributes:
# perfbench/layers.py wraps ``index.phi`` and ``index.is_balanced`` by name
# in its traced pass.
from .dynamics import (  # noqa: F401
    KNIFE_EDGE_TOL,
    ArmParams,
    InconsistencyError,
    batch_map,
    certified_word,
    check_denominator,
    check_discounted_sums,
    knife_edge_tol,
    map_coefficients,
    orbit_range,
    phi,
    scalar_map,
    threshold_walk,
    threshold_word,
)
from .words import Word, is_balanced  # noqa: F401

MAX_TRUNCATION_STEPS = 5_000_000
# The T that a beta = 1 table reports.  It bounds nothing, as the limit sums
# certified cycles whole; the golden files and the benchmark refs pin it.
BETA1_T = 400
# States the batch kernel buffers per block of steps (64 KB).
_BLOCK_STATES = 8192
# Mean-cost gap of index_beta1's two cycles, relative to their largest cost,
# beyond rounding: float cycles of one word lie ~1e-16 / (1 - contraction)
# apart (at most 9.1e-13 over 4,500 random arms and states).
MEAN_COST_TOL = 1e-9


class UncertifiedPeriodError(ArithmeticError):
    """The threshold word at x could not be certified periodic."""


def truncation_horizon(beta: float) -> int:
    """Step cap T with beta^T <= 1e-12, capped; one term suffices at beta = 0.

    Orbits that repeat within T steps are summed to infinity; the cap
    truncates only the orbits that never repeat.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if beta == 0.0:
        return 1
    return min(MAX_TRUNCATION_STEPS, max(1, math.ceil(math.log(1e-12) / math.log(beta))))


def cost_gap(p: ArmParams) -> float:
    """c1 - c0, the unit of work the index prices; a zero gap has no index."""
    if not p.c1 > p.c0:
        raise ArithmeticError(
            f"cost gap c1 - c0 is 0 (c0 = c1 = {p.c0}): marginal work vanishes"
            " and the index is undefined"
        )
    return p.c1 - p.c0


def work_floor(gap: float, beta: float, T: int) -> float:
    """Lower bound on the marginal work at s = x for cost gap ``gap``.

    The exact floor (1 - beta) gap, less the work an orbit truncated at
    step T can leave out: gap beta^(T+1) / (1 - beta).
    """
    return (1.0 - beta) * gap - gap * beta ** (T + 1) / max(1e-300, 1.0 - beta)


@dataclass(frozen=True)
class IndexQuery:
    params: ArmParams
    cost: CostFn
    beta: float
    x: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not math.isfinite(self.x):
            raise ValueError(f"x must be finite, got {self.x}")


@dataclass(frozen=True)
class IndexRecord:
    x: float
    lam: float
    numerator: float
    denominator: float
    word: Optional[Word]
    knife_edge: bool


def _cycle_factor(beta, n):
    """1 + beta^n + beta^2n + ... = 1 / (1 - beta^n), the weight of an n-step cycle.

    expm1 keeps 1 - beta^n accurate when beta^n is close to one; at
    beta = 0 the factor is 1.  Broadcasts over numpy arrays.
    """
    with np.errstate(divide="ignore"):
        return -1.0 / np.expm1(n * np.log(beta))


def _orbit_summands(p, cost, x, s, firsts, cap, beta=None, ends=(), walks=None):
    """Cost and work summands of s-threshold orbits from x, discounted by beta if given.

    Orbit i takes the forced action firsts[i] at x, then follows the
    :func:`threshold_walk` from its image (at most ``cap`` states), or the
    walk ``walks[firsts[i]]`` done already.  Their states, then ``ends``,
    go through one checked ``cost.eval``; errors are those of walking and
    evaluating the orbits one after another.  Summand t is discounted by
    beta^t, and a cycle's summands also by 1 / (1 - beta^n), so that they
    add up to the infinite-horizon sums.  Returns the cost and work rows,
    the spans (a, c, b) of the orbits' columns [a, b), periodic from c
    (c = b without a repeat) and followed by the ends' costs, and whether
    a walk state ties s.
    """
    step, x, walks = scalar_map(p), float(x), walks or {}
    try:
        walked = [walks.get(a) or threshold_walk(p, step(a, x), s, cap) for a in firsts]
        states, spans = [], []
        for walk, k in walked:
            spans.append((len(states), len(states) + 1 + k, len(states) + 1 + len(walk)))
            states += [x, *walk]
        n = len(states)
        v = np.fromiter(states + list(ends), float, n + len(ends))
        costs = cost.eval(v)
    except (ZeroDivisionError, CostDomainError):
        for a in firsts:
            cost.eval(np.array([x, *threshold_walk(p, step(a, x), s, cap)[0]]))
        raise
    act = v >= s
    tol = knife_edge_tol(s)  # -1 for an infinite s, which no state ties
    tie = np.abs(v[:n] - s) <= tol if tol >= 0.0 else np.zeros(n, dtype=bool)
    for (a, _, _), first in zip(spans, firsts):
        act[a], tie[a] = first, False
    terms = np.array([costs, np.where(act, p.c1, p.c0)])
    if beta is not None:
        disc = beta ** np.arange(max(b - a for a, _, b in spans), dtype=float)
        cycles = [(c, b) for _, c, b in spans if c < b]
        factors = _cycle_factor(beta, np.array([b - c for c, b in cycles], dtype=float))
        for a, _, b in spans:
            terms[:, a:b] *= disc[:b - a]
        for (c, b), factor in zip(cycles, factors):
            terms[:, c:b] *= factor
    return terms, spans, bool(tie.any())


def _marginal_sum(terms, spans, row):
    """Marginal cost (row 0: the passive-first orbit's sum less the active-first
    one's) or marginal work (row 1: the reverse), summed with one ``math.fsum``
    before anything is rounded; the subtracted summands are negated in place."""
    (a, _, b), (c, _, d) = spans[::-1] if row else spans
    np.negative(terms[row, c:d], out=terms[row, c:d])
    return math.fsum(terms[row, a:b].tolist() + terms[row, c:d].tolist())


def marginal_cost(q: IndexQuery, s: float) -> float:
    """Discounted uncertainty-cost surplus of starting passive over active."""
    T = truncation_horizon(q.beta)
    return _marginal_sum(*_orbit_summands(q.params, q.cost, q.x, s, (0, 1), T, q.beta)[:2], 0)


def marginal_work(q: IndexQuery, s: float) -> float:
    """Discounted observation-effort surplus of starting active over passive."""
    T = truncation_horizon(q.beta)
    return _marginal_sum(*_orbit_summands(q.params, q.cost, q.x, s, (0, 1), T, q.beta)[:2], 1)


def whittle_index(q: IndexQuery) -> IndexRecord:
    """The Whittle index at q.x from infinite-horizon marginal sums.

    The two forced-first-action orbits are walked to their first exact
    repeat (at most the step cap T states) and evaluated in one cost call
    with the ends of their :func:`dynamics.orbit_range`, where costs too
    large to sum raise ValueError (:func:`dynamics.check_discounted_sums`).
    Each orbit's sum is taken to infinity in closed form after its repeat
    (truncated at T without one), and the orbits are differenced before
    rounding.  Iterates tying the threshold set the knife-edge flag.  No
    word is certified (``word=None``, as in ``index_table(words=False)``).
    """
    p, x = q.params, q.x
    gap = cost_gap(p)
    T = truncation_horizon(q.beta)
    # The guard reads the ends' costs; until it passes, they may overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        terms, spans, knife = _orbit_summands(
            p, q.cost, x, x, (0, 1), T, q.beta, orbit_range(p, x, x)
        )
    check_discounted_sums(p, q.cost, q.beta, x, x, terms[0, -2:].tolist())
    num, den = _marginal_sum(terms, spans, 0), _marginal_sum(terms, spans, 1)
    if den <= 0.0 or den < work_floor(gap, q.beta, T) - 1e-15:
        raise InconsistencyError(
            f"marginal work {den} below its lower bound at x={q.x}:"
            " internal inconsistency"
        )
    return IndexRecord(
        x=q.x, lam=num / den, numerator=num, denominator=den,
        word=None, knife_edge=knife,
    )


def q_value(
    params: ArmParams,
    cost: CostFn,
    beta: float,
    nu: float,
    x: float,
    a: int,
    s: float,
) -> float:
    """Discounted cost-to-go plus nu-priced work of the s-threshold policy."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    terms, _, _ = _orbit_summands(params, cost, x, s, (a,), truncation_horizon(beta), beta)
    return math.fsum(terms[0].tolist()) + nu * math.fsum(terms[1].tolist())


def closed_form_noiseless(r: float, beta: float, x: float) -> float:
    """Whittle index for linear cost, uninformative passive and noiseless
    active observations, where the passive map is v -> r*v + 1.

    The geometric-sum expression is scaled by beta so that it agrees with
    the defining marginal-cost/marginal-work ratio (and hence with the
    dynamic-programming indifference price); see the decisions ledger.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must be in [0, 1), got {r}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if not 0.0 <= x < 1.0 / (1.0 - r):
        raise ValueError(f"x={x} outside [0, {1.0 / (1.0 - r)})")
    if x == 0.0:
        n = 0
    elif r == 0.0:
        n = 1
    else:
        n = max(0, math.ceil(math.log1p(-(1.0 - r) * x) / math.log(r)))
    lead = (1.0 - beta ** (n + 1)) / (1.0 - beta)
    if n == 0:
        inner = r * x + 1.0
    else:
        geo = (1.0 - (beta * r) ** n) / (1.0 - beta * r)
        tail = beta**n * (1.0 - r**n) / (1.0 - r)
        inner = r * x + 1.0 - beta / (1.0 - beta ** (n + 1)) * (geo - tail)
    return beta * lead * inner


def closed_form_noiseless_limit(x: float) -> float:
    """The (beta -> 1, r -> 1) limit: ceil(x+1) * (x + 1 - ceil(x)/2)."""
    if x < 0.0:
        raise ValueError("x must be non-negative")
    return math.ceil(x + 1.0) * (x + 1.0 - math.ceil(x) / 2.0)


def index_beta1(params: ArmParams, cost: CostFn, x: float) -> IndexRecord:
    """Discount-to-one limit of the index at x, with its certified word.

    The limit denominator is (c1 - c0)/n for the word's period n <= 256.
    Both forced-first-action orbits are walked once, to their first exact
    repeat; the word is certified (:func:`dynamics.certified_word`) from
    the active-first one, whose walk is the threshold word's.  With p_i
    orbit i's cycle continued periodically in absolute time, K_i its head
    and N the lcm of the state periods, the limit numerator is
    sum_{t < K_0} (a0_t - p0_t) - sum_{t < K_1} (a1_t - p1_t)
    + sum_{j < N} j (p1_j - p0_j) / N, one ``math.fsum``.  The dropped
    1 / (1 - beta) terms cancel only if the cycles' mean costs agree; they
    differ at a knife edge, where rounding can put the orbits on different
    cycles (ArithmeticError), or by an internal error (InconsistencyError).
    """
    gap = cost_gap(params)
    x = float(x)
    walks = {}
    # The word's walk is the active-first orbit's, kept for its summands.
    tw = certified_word(params, x, 256, lambda cap: walks.setdefault(
        1, threshold_walk(params, scalar_map(params)(1, x), x, cap)))
    if not tw.periodic:
        raise UncertifiedPeriodError(f"no certified period <= 256 at x={x}")
    # A certified walk holds its whole cycle: a longer cap walks no further.
    cap = MAX_TRUNCATION_STEPS
    summands, spans, knife = _orbit_summands(params, cost, x, x, (0, 1), cap, walks=walks)
    terms, cycles, knife = [], [], knife or tw.knife_edge
    for (a, c, b), sign in zip(spans, (1.0, -1.0)):
        if c == b:
            raise UncertifiedPeriodError(f"no repeat within {cap} steps at x={x}")
        k, m, cyc = c - a, b - c, summands[0, c:b]
        terms += [sign * summands[0, a:c], -sign * cyc[(np.arange(k) - k) % m]]
        cycles.append((cyc, k, m, math.fsum(cyc) / m))
    (cyc0, k0, m0, mean0), (cyc1, k1, m1, mean1) = cycles
    if abs(mean0 - mean1) > MEAN_COST_TOL * max(np.abs(cyc0).max(), np.abs(cyc1).max()):
        raise (ArithmeticError if knife else InconsistencyError)(
            f"the orbits at x={x} reach cycles of mean costs {mean0} and {mean1}: "
            + ("x is a knife edge" if knife else "internal inconsistency")
        )
    N = math.lcm(m0, m1)
    j = np.arange(N)
    terms.append(j * (cyc1[(j - k1) % m1] - cyc0[(j - k0) % m0]) / N)
    n = len(tw.word)
    lam = math.fsum(np.concatenate(terms)) * n / gap
    return IndexRecord(
        x=x, lam=lam, numerator=lam * gap / n, denominator=gap / n,
        word=tw.word, knife_edge=knife,
    )


# ---------------------------------------------------------------------------
# Vectorized grid evaluation.


class OrbitSums(NamedTuple):
    """What :func:`marginal_sums_batch` finds at each point of its batch.

    ``cost``, ``work`` and ``knife`` have the batch's shape.  ``period``
    has one more axis of length 2, the passive-first orbit then the
    active-first one, and holds each orbit's period, or 0 for an orbit
    truncated at T with no repeat.
    """

    cost: np.ndarray
    work: np.ndarray
    knife: np.ndarray
    period: np.ndarray


def marginal_sums_batch(
    p: Union[ArmParams, Sequence[ArmParams]],
    beta: float,
    cost: Union[CostFn, Sequence[CostFn]],
    x: Union[np.ndarray, Sequence[np.ndarray]],
    s: Union[np.ndarray, Sequence[np.ndarray]],
    T: int,
) -> Union[OrbitSums, list[OrbitSums]]:
    """Marginal cost, marginal work, knife-edge flags and orbit periods of orbit batches.

    One arm's call passes its params p, its cost and the arrays x and s,
    which broadcast, and returns one :class:`OrbitSums`.  A call for
    several arms passes sequences of each arm's p, cost, x and s, and
    returns a list with each arm's :class:`OrbitSums`.  Point i of an arm
    has two s[i]-threshold orbits from x[i], one per forced first action;
    all orbits share the discount beta and the step cap T.  Plain >=
    comparisons decide actions, as in the scalar kernel, and points whose
    orbits come within ``knife_edge_tol(s)`` of s are flagged.  Repeats
    are found by Brent's method: each orbit is compared bitwise with an
    anchor state retaken at t = 1, 2, 4, ...  An orbit back at its anchor
    state at step t is periodic from the anchor step k with period
    n = t - k and stops; its sum is the part before k plus the cycle's sum
    times 1 / (1 - beta^n).  Orbits with no repeat by T are truncated there
    and get period 0.  The anchor schedule depends only on t, so each
    orbit's sums and period do not depend on the other orbits of the call,
    of its own arm or of another: a call for several arms gives bitwise
    each arm's own call, in the steps of its slowest orbit rather than the
    sum of the arms' steps.  Memory stays O(len(x)).

    The orbits step in blocks: each step only acts, maps and copies its
    states into the block's buffer.  A block ends before the next anchor
    reset, at T, at ``_BLOCK_STATES`` states (64 KB; at least one step) or
    at a state inside its class's threshold range, which starts the next
    block.  2-D passes over the buffer then test its states after the first,
    and the one after it within T, against the anchor, stopping each row
    at its first repeat, flag knife-edge ties, and add the summands,
    discounted by beta^t, to the cycle sums one step after another (numpy
    reduces the leading axis in order when a row holds more values than
    one).  A row that repeats inside a block reads its sums at the repeat
    from a running sum over its columns; its later states repeat its cycle,
    so they add no tie, split or cost error or warning that the cycle did
    not.  The discount row is beta ** t of the 1-element array beta, which
    numpy squares at t = 2, where a power row may differ in the last bit
    (at beta = 0.8): so it takes beta ** 2 there.

    The orbits step in sorted positions: the points are sorted by
    (arm, start bits, threshold) into the permutation o, and the
    passive-first orbits take positions [0, n), the active-first orbits
    [n, 2n).  Orbits that differ only in their threshold step as classes.
    A class is a range of positions, with one arm, start and first action
    and ascending thresholds, whose orbits share one state, one head and
    cycle sum, one anchor and the step k.  The invariant holds while every
    member takes the same action, so a class whose state v lies inside
    its range (first threshold <= v and not v >= last, for a NaN last) is
    split at the start of a block: the members s <= v act and keep the
    row, the members s > v rest in a new row with copies of the state,
    sums, anchor and coefficients.  Every member thus sees the float
    operations of its own orbit, in the same order, and its sums are
    bitwise those of stepping it alone.  A class's sums and period go to
    its first position, and at the end every position takes those of the
    class start before it.  Knife-edge flags stay per member.  A class that
    does not straddle v ties v only if its member nearest to v does (the
    last member of an acting class, the first of a resting one): near a tie
    v - s is exact (Sterbenz), and the tolerances of two thresholds differ
    by at most 1e-12 times their gap.  Only when the nearest member ties
    are the members within a few tolerances of v tested one by one.  The
    range test runs at each step only while some class has two members.

    Each row carries its arm's :func:`dynamics.map_coefficients` column
    and its c0 and c1, so one :func:`dynamics.batch_map` call steps every
    arm.  The rows stay sorted by arm, so that each arm's cost is
    evaluated once per block, on its slice of the states.

    Only the starting states go through the cost's domain check.  The
    states at t >= 1 are variance images, positive unless an active step
    with a1 = inf, or a map denominator that overflows, takes them to 0.
    A step adds at most 1 to a state, so the denominators of an arm stay
    below a1 r^2 (max x + T) + a1 + 1 (doubled for rounding); when a1 is
    finite and that bound is finite, the arm's states are evaluated
    unchecked, and otherwise every block of that arm is checked, with the
    error of the first step that has one.
    """
    one = isinstance(p, ArmParams)
    arms, cost_fns, xs, ss = ([p], [cost], [x], [s]) if one else (p, cost, x, s)
    pairs = [
        np.broadcast_arrays(np.asarray(xa, dtype=float), np.asarray(sa, dtype=float))
        for xa, sa in zip(xs, ss, strict=True)
    ]
    sizes = [xa.size for xa, _ in pairs]
    x = np.concatenate([xa.ravel() for xa, _ in pairs])
    s = np.concatenate([sa.ravel() for _, sa in pairs])
    n = x.size
    arm_at = np.repeat(np.arange(len(pairs)), sizes)
    o = np.lexsort((s, x.view(np.int64), arm_at))
    bits = x.view(np.int64)[o]
    # The arm at each sorted point, and the first position of each class,
    # updated as classes split.
    arm_at = arm_at[o]
    start = np.ones(2 * n, dtype=bool)
    start[1:n] = start[n + 1:] = (bits[1:] != bits[:-1]) | (arm_at[1:] != arm_at[:-1])
    s = np.tile(s[o], 2)
    tol = np.where(np.isinf(s), -1.0, KNIFE_EDGE_TOL * np.maximum(1.0, np.abs(s)))
    beta = np.array([beta])
    # Per class: its range [lo, hi) of positions and the threshold and
    # tolerance of its last position.  The per-class arrays are replaced
    # one at a time, which keeps the transient copies small.  Rows are
    # classes, ordered by arm.
    lo = np.flatnonzero(start)
    # No orbits make no classes.
    hi = np.append(lo[1:], 2 * n)[:lo.size]
    arm = arm_at[lo % n]
    rows = np.argsort(arm, kind="stable")
    lo, hi, arm = lo[rows], hi[rows], arm[rows]
    bounds = [lo, hi, s[hi - 1], tol[hi - 1]]
    sums = np.empty((2, 2 * n))
    knife = np.zeros(2 * n, dtype=bool)
    period = np.zeros(2 * n, dtype=np.int64)
    # Each class steps from its start.  Rows 0-5 of coef are the map's
    # coefficients, 6 and 7 the observation costs c0 and c1, with one
    # column per row, or one column for all while the rows are of one arm.
    first = lo >= n
    x0 = x[o[lo % n]]
    coef = np.concatenate(
        [np.vstack([map_coefficients(pa), [[pa.c0], [pa.c1]]]) for pa in arms], axis=1
    )[:, arm]
    cost_at = []
    for pa, (xa, _), ca in zip(arms, pairs, cost_fns, strict=True):
        den_max = 2.0 * (float(np.max(xa, initial=0.0)) + T) * (pa.a1 * pa.r2) + pa.a1 + 1.0
        positive = math.isfinite(pa.a1) and den_max < math.inf
        cost_at.append(ca.eval_unchecked if positive else ca.eval)
    # Summed over t < k, and over k <= t.
    head = np.stack([
        _cost(_segments(arm, [ca.eval for ca in cost_fns]), x0),
        np.where(first, coef[7], coef[6]),
    ])
    cyc = np.zeros_like(head)
    segs = _segments(arm, cost_at)
    if len(segs) == 1:
        coef = coef[:, :1]
    noiseless = any(math.isinf(pa.a1) for pa in arms)
    step, c0, c1 = _rows(coef, noiseless)
    v = batch_map(step, first, x0)
    anchor, k, t = v, 1, 1
    # The classes with more than one member, whose ties are flagged per
    # orbit; those of the others accumulate in lknife.
    mrows = np.flatnonzero(bounds[1] - bounds[0] > 1)
    lknife = np.zeros(v.size, dtype=bool)
    while t <= T and v.size:
        if t == 2 * k:
            head += cyc
            cyc = np.zeros_like(head)
            anchor, k = v, t
        if mrows.size:
            u = v[mrows]
            split = mrows[(u >= s[bounds[0][mrows]]) & ~(u >= bounds[2][mrows])]
            if split.size:
                _split(s, tol, start, bounds, split, v[split])
                v, anchor, lknife, head, cyc = (
                    _append(a, split) for a in (v, anchor, lknife, head, cyc)
                )
                if coef.shape[1] > 1:
                    # The new rows go back among their arm's rows.
                    coef, arm = _append(coef, split), _append(arm, split)
                    rows = np.argsort(arm, kind="stable")
                    v, anchor, lknife, head, cyc, coef, arm = (
                        a.take(rows, axis=-1)
                        for a in (v, anchor, lknife, head, cyc, coef, arm)
                    )
                    for i, row in enumerate(bounds):
                        bounds[i] = row[rows]
                    segs = _segments(arm, cost_at)
                    step, c0, c1 = _rows(coef, noiseless)
                mrows = np.flatnonzero(bounds[1] - bounds[0] > 1)
            low, last = s[bounds[0][mrows]], bounds[2][mrows]
        # The block's states at steps t .. t + m - 1, then the state after it.
        m = min(2 * k - t, T + 1 - t, max(1, _BLOCK_STATES // v.size))
        buf = np.empty((m + 1, v.size))
        buf[0] = v
        j = 0
        while j < m:
            v = batch_map(step, v >= bounds[2], v)
            j += 1
            buf[j] = v
            if mrows.size and j < m:
                # A class state inside its threshold range starts the next
                # block, which splits the class.
                u = v[mrows]
                if ((u >= low) & ~(u >= last)).any():
                    break
        states = buf[:j]
        act = states >= bounds[2]
        tie = np.abs(states - bounds[2]) <= bounds[3]
        if mrows.size:
            # The member nearest to the state of a resting class is its first.
            near, um = bounds[0][mrows], states[:, mrows]
            rest = np.abs(um - s[near]) <= tol[near]
            tie[:, mrows] = np.where(act[:, mrows], tie[:, mrows], rest)
            i, c = np.nonzero(tie[:, mrows])
            if i.size:
                _flag_ties(knife, s, tol, near[c], bounds[1][mrows[c]], um[i, c])
                tie[:, mrows] = False
        lknife |= tie.any(axis=0)
        # Repeats at steps t + 1 .. t + j (within T); a row's first counts.
        eq = buf[1:j + (t + j <= T)] == anchor
        hit = eq.any(axis=0)
        hits = np.flatnonzero(hit)
        # Summand i of a row is discounted by beta^(t + i), beta^2 squared.
        disc = beta ** np.arange(t, t + j, dtype=float)[:, None]
        if t <= 2 < t + j:
            disc[2 - t] = beta**2
        # Row 0 is cyc, row i + 1 the summands of step t + i; 2 values a row.
        terms = np.empty((j + 1, 2, v.size))
        terms[0] = cyc
        np.multiply(_cost(segs, states), disc, out=terms[1:, 0])
        np.multiply(np.where(act, c1, c0), disc, out=terms[1:, 1])
        cyc = np.add.reduce(terms, axis=0)
        if hits.size:
            at = eq[:, hits].argmax(axis=0) + 1
            ids = bounds[0][hits]
            cycle = t + at - k
            # The sums of a hit row stop at its repeat.
            done = np.add.accumulate(terms[:, :, hits], axis=0)[at, :, np.arange(hits.size)].T
            done *= _cycle_factor(beta, cycle)
            done += head.take(hits, axis=1)
            sums[:, ids] = done
            period[ids] = cycle
            knife[ids] |= lknife[hits]
            # Row numbers select columns faster than masks.
            keep = np.flatnonzero(~hit)
            v, anchor, lknife, head, cyc = (
                a.take(keep, axis=-1) for a in (v, anchor, lknife, head, cyc)
            )
            for i, row in enumerate(bounds):
                bounds[i] = row[keep]
            if mrows.size:
                mrows = np.flatnonzero(bounds[1] - bounds[0] > 1)
            if coef.shape[1] > 1:
                coef, arm = coef.take(keep, axis=1), arm[keep]
                segs = _segments(arm, cost_at)
                if len(segs) == 1:
                    coef = coef[:, :1]
                step, c0, c1 = _rows(coef, noiseless)
        t += j
    head += cyc
    sums[:, bounds[0]] = head
    knife[bounds[0]] |= lknife
    # Each position reads its sums at its class's first position, lead;
    # point i sits at position inv[i] among the passive-first orbits.
    lead = np.maximum.accumulate(np.where(start, np.arange(2 * n), 0))
    inv = np.argsort(o)
    sums0, sums1 = sums[:, lead[inv]], sums[:, lead[inv + n]]
    fields = (
        sums0[0] - sums1[0],
        sums1[1] - sums0[1],
        knife[inv] | knife[inv + n],
        np.stack([period[lead[inv]], period[lead[inv + n]]], axis=-1),
    )
    ends = np.cumsum(sizes)
    out = [
        OrbitSums(*(a[end - size:end].reshape(xa.shape + a.shape[1:]) for a in fields))
        for (xa, _), size, end in zip(pairs, sizes, ends)
    ]
    return out[0] if one else out


def _rows(coef: np.ndarray, noiseless: bool) -> tuple:
    """The :func:`dynamics.batch_map` rows of coef, the flag only when
    ``noiseless``, and its c0 and c1 rows."""
    return tuple(coef[:6 if noiseless else 5]), coef[6], coef[7]


def _segments(arm: np.ndarray, fns: list) -> list:
    """(fns[a], start, end) for each arm a with rows, whose rows are [start, end).

    ``arm`` is the rows' arms, in ascending order.  With no rows the first
    arm stands for all.
    """
    edges = np.searchsorted(arm, np.arange(len(fns) + 1))
    segs = [(f, a, b) for f, a, b in zip(fns, edges[:-1], edges[1:]) if a < b]
    return segs or [(fns[0], 0, 0)]


def _cost(segs: list, v: np.ndarray) -> np.ndarray:
    """Each arm's cost at its rows' states, on v's last axis, as one flat
    array per arm; a domain error is that of v's rows one after another."""
    try:
        if len(segs) == 1:
            return segs[0][0](v.ravel()).reshape(v.shape)
        return np.concatenate(
            [f(v[..., a:b].ravel()).reshape(v[..., a:b].shape) for f, a, b in segs], axis=-1
        )
    except CostDomainError:
        for row in v.reshape(-1, v.shape[-1]):
            for f, a, b in segs:
                f(row[a:b])
        raise


def _append(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``a`` with copies of its columns ``cols`` appended."""
    return np.concatenate([a, a.take(cols, axis=-1)], axis=-1)


def _split(
    s: np.ndarray, tol: np.ndarray, start: np.ndarray,
    bounds: list, rows: np.ndarray, v: np.ndarray,
) -> None:
    """Split the classes at ``rows`` at their states v, updating ``bounds``.

    The members with threshold s <= v stay in their row; the others form
    a new class, appended in the order of ``rows``, whose first position
    is marked in ``start``.
    """
    cut = np.array([
        a + np.searchsorted(s[a:b], u, "right")
        for a, b, u in zip(bounds[0][rows], bounds[1][rows], v)
    ])
    start[cut] = True
    bounds[0] = np.concatenate([bounds[0], cut])
    for i, at_cut in ((1, cut), (2, s[cut - 1]), (3, tol[cut - 1])):
        bounds[i] = _append(bounds[i], rows)
        bounds[i][rows] = at_cut


def _flag_ties(
    knife: np.ndarray, s: np.ndarray, tol: np.ndarray,
    lo: np.ndarray, hi: np.ndarray, v: np.ndarray,
) -> None:
    """Flag the positions of the classes [lo, hi) whose threshold ties the class state v.

    The positions whose threshold lies within 4 knife-edge tolerances of
    v are tested.
    """
    for a, b, u in zip(lo, hi, v):
        w = 4.0 * KNIFE_EDGE_TOL * max(1.0, abs(u))
        thr = s[a:b]
        i, j = np.searchsorted(thr, u - w, "left"), np.searchsorted(thr, u + w, "right")
        knife[a + i:a + j] |= np.abs(u - thr[i:j]) <= tol[a + i:a + j]


@dataclass(frozen=True)
class IndexTable:
    records: list[IndexRecord]
    monotonicity_violations: int
    T: int


def index_table(
    params: ArmParams,
    cost: CostFn,
    beta: float,
    grid: Sequence[float],
    words: bool = True,
) -> IndexTable:
    """Tabulate the index at beta in [0, 1] over an ascending finite state grid.

    Sums that could overflow on the grid's orbits raise ValueError first
    (:func:`dynamics.check_discounted_sums`; at beta = 1, whose sums are
    finite, the map denominator and the costs at the ends of the orbits'
    :func:`dynamics.orbit_range`).  One :func:`marginal_sums_batch` call
    gives every point's sums and knife-edge flag; with ``words`` each point
    also gets its certified :func:`threshold_word` of period at most 64
    (None when uncertified).  At beta = 1 the records are
    :func:`index_beta1`'s, which needs the words.  The records are output
    only: decreases of lambda beyond 1e-9 plus the slack of orbits
    truncated at the step cap count as monotonicity violations (admissible
    costs must produce none).
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or len(xs) == 0:
        raise ValueError("grid must be a non-empty 1-d sequence")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("grid must be strictly ascending")
    if not np.isfinite(xs).all():
        raise ValueError("grid must be finite")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    p = params
    if beta == 1.0:
        if not words:
            raise ValueError("words=False: the beta = 1 limit needs each point's certified word")
        check_denominator(p, xs[-1])
        ends = orbit_range(p, xs[0], xs[-1])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            finite = np.isfinite(cost.eval(np.array(ends))).all()
        if not finite:
            raise ValueError(f"cost {cost.kind!r} is not finite on the orbits' states {list(ends)}")
        gap, T = cost_gap(p), BETA1_T
        records = [index_beta1(p, cost, x) for x in xs.tolist()]
        cols = tuple(zip(*((rec.lam, rec.numerator, rec.denominator) for rec in records)))
    else:
        check_discounted_sums(p, cost, beta, xs[0], xs[-1])
        gap, T = cost_gap(p), truncation_horizon(beta)
        sums = marginal_sums_batch(p, beta, cost, xs, xs, T)
        cols = ((sums.cost / sums.work).tolist(), sums.cost.tolist(), sums.work.tolist())
        records = []
        for x, lx, num, den, knife in zip(xs.tolist(), *cols, sums.knife.tolist()):
            tw = threshold_word(p, x, 64) if words else None
            word = tw.word if tw is not None and tw.periodic else None
            records.append(IndexRecord(x, lx, num, den, word, knife))
    slack = _lambda_slack(gap, beta, T, *cols)
    violations = int(np.sum(np.diff(cols[0]) < -(1e-9 + slack)))
    return IndexTable(records, violations, T)


def _lambda_slack(gap, beta, T, lams, nums, dens) -> float:
    """Bound on the index perturbation of sums truncated at the step cap T,
    from the finite entries of the lists of the grid's indices, numerators
    and denominators: a NaN index hides no violation of the others.  It is 0
    at beta = 0 (one term) and 1 (certified cycles are summed whole)."""
    if beta in (0.0, 1.0):
        return 0.0
    lams, nums, dens = ([u for u in a if math.isfinite(u)] for a in (lams, nums, dens))
    tail = beta ** (T + 1) / (1.0 - beta)
    num_scale = max(1.0, (1.0 - beta) * max(map(abs, nums), default=0.0))
    return tail * (num_scale + max(map(abs, lams), default=0.0) * gap) / min(dens)
