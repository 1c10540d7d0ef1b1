"""Marginal cost, marginal work and the Whittle (marginal-productivity) index.

The index at state x is the ratio of the discounted uncertainty-cost
difference to the discounted observation-effort difference between the two
forced-first-action variants of the x-threshold policy, both sums taken
to the infinite horizon.  Threshold orbits are eventually periodic: once
an orbit repeats a state bit for bit, the rest of its sum is the cycle's
sum times 1 / (1 - beta^n), in closed form.  Orbits that do not repeat
within the step cap T of :func:`truncation_horizon` (or that tie the
threshold) are truncated there.  Also: closed forms for the noiseless
case, the discount-to-one limit, Q-values of threshold policies, and grid
tabulation with monotonicity accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .costs import CostFn
# ``phi`` is unused here but stays a module attribute: perfbench/layers.py
# wraps ``index.phi`` by name in its traced pass.
from .dynamics import (  # noqa: F401
    KNIFE_EDGE_TOL,
    ArmParams,
    InconsistencyError,
    ThresholdWord,
    batch_coefficients,
    knife_edge_tol,
    phi,
    phi_batch,
    scalar_map,
    threshold_word,
)
from .words import Word, is_balanced

MAX_TRUNCATION_STEPS = 5_000_000


def _debug(msg: str, *args: object) -> None:
    """Log to the "obsched" logger at debug level.

    ``logging`` is imported on first use: importing it with the package
    would add about 6% (3 ms) to the package's import time.
    """
    import logging

    logging.getLogger("obsched").debug(msg, *args)


class UncertifiedPeriodError(RuntimeError):
    """The threshold word at x could not be certified periodic."""


def truncation_horizon(beta: float) -> int:
    """Step cap T with beta^T <= 1e-12, capped; one term suffices at beta = 0.

    Orbits that repeat within T steps are summed to infinity; the cap
    truncates only the orbits that never repeat or that tie the threshold.
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


@dataclass(frozen=True)
class IndexQuery:
    params: ArmParams
    cost: CostFn
    beta: float
    x: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")


@dataclass(frozen=True)
class IndexRecord:
    x: float
    lam: float
    numerator: float
    denominator: float
    word: Optional[Word]
    periodic: bool
    knife_edge: bool


def _knife_branch(p: ArmParams, s: float, v: float, recent: list[int]) -> int:
    """Resolve a threshold tie: keep the branch whose short continuation is balanced.

    Each branch takes its action, then follows the threshold rule for three
    more steps; the branch whose recent action window stays 1-balanced wins,
    with the active (>=) convention breaking residual ties.
    """
    step = scalar_map(p)
    windows = {}
    for first in (1, 0):
        acts = [first]
        u = step(first, v)
        for _ in range(3):
            b = int(u >= s)
            acts.append(b)
            u = step(b, u)
        windows[first] = is_balanced(Word(recent[-16:] + acts))
    if windows[1] == windows[0]:
        return 1
    return 1 if windows[1] else 0


def _cycle_factor(beta, n):
    """1 + beta^n + beta^2n + ... = 1 / (1 - beta^n), the weight of an n-step cycle.

    expm1 keeps 1 - beta^n accurate when beta^n is close to one; at
    beta = 0 the factor is 1.  Broadcasts over numpy arrays.
    """
    with np.errstate(divide="ignore"):
        return -1.0 / np.expm1(n * np.log(beta))


def _orbit_terms(
    p: ArmParams,
    cost: CostFn,
    beta: float,
    x: float,
    s: float,
    first_action: int,
    T: int,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Summands of the discounted cost and work sums of one forced-first-action orbit.

    The summands add up to the infinite-horizon sums: for t >= 1 the
    action depends only on the state, so once a state recurs bit for bit
    at step t <= T after step k >= 1 the orbit has period n = t - k from k
    on, and the cycle's summands appear once, scaled by 1 / (1 - beta^n).
    An orbit with no repeat within T steps is truncated at T.  Returning
    summands lets callers difference two orbits with one ``math.fsum``
    before any large partial sum is rounded.

    Threshold ties within the knife-edge tolerance are resolved by
    :func:`_knife_branch` and flagged; that rule reads the action history,
    so after a tie the orbit is stepped all the way to T and truncated.
    The orbit is stepped on Python floats by :func:`scalar_map` (bitwise
    the states of ``phi``) and kept in lists; the tolerance is computed
    once, and the cost is evaluated once, on the array of visited states.
    """
    step = scalar_map(p)
    tol = knife_edge_tol(s)
    knife = False
    states = [float(x)]
    acts = [first_action]
    seen: dict[float, int] = {}
    v = step(first_action, states[0])
    for t in range(1, T + 1):
        if abs(v - s) <= tol:
            knife = True
            act = _knife_branch(p, s, v, acts)
        else:
            if not knife:
                k = seen.setdefault(v, t)
                if k < t:
                    break
            act = int(v >= s)
        states.append(v)
        acts.append(act)
        v = step(act, v)
    else:
        k = t = T + 1
        _debug(
            "orbit from x=%r (first action %d, threshold %r) reached T=%d"
            " with no repeat%s", x, first_action, s, T,
            " after a knife-edge tie" if knife else "",
        )
    disc = beta ** np.arange(t, dtype=float)
    terms = disc * np.stack([cost.eval(np.array(states)), np.where(acts, p.c1, p.c0)])
    if k < t:
        terms[:, k:] *= _cycle_factor(beta, t - k)
    return terms[0], terms[1], knife


def _fsum_diff(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a) - sum(b), rounded once."""
    return math.fsum(np.concatenate([a, -b]))


def marginal_cost(q: IndexQuery, s: float) -> float:
    """Discounted uncertainty-cost surplus of starting passive over active."""
    T = truncation_horizon(q.beta)
    c0, _, _ = _orbit_terms(q.params, q.cost, q.beta, q.x, s, 0, T)
    c1, _, _ = _orbit_terms(q.params, q.cost, q.beta, q.x, s, 1, T)
    return _fsum_diff(c0, c1)


def marginal_work(q: IndexQuery, s: float) -> float:
    """Discounted observation-effort surplus of starting active over passive."""
    T = truncation_horizon(q.beta)
    _, w0, _ = _orbit_terms(q.params, q.cost, q.beta, q.x, s, 0, T)
    _, w1, _ = _orbit_terms(q.params, q.cost, q.beta, q.x, s, 1, T)
    return _fsum_diff(w1, w0)


def whittle_index(q: IndexQuery, word_max_len: int = 64) -> IndexRecord:
    """The Whittle index at q.x from infinite-horizon marginal sums.

    Each orbit's sum is taken to infinity in closed form after its first
    exact repeat (truncated at the step cap T without one), and the two
    orbits are differenced before rounding.  The certified threshold word
    at x (when one exists within ``word_max_len``) is attached to the
    record, and iterates tying the threshold set the knife-edge flag.
    """
    gap = cost_gap(q.params)
    T = truncation_horizon(q.beta)
    c0, w0, k0 = _orbit_terms(q.params, q.cost, q.beta, q.x, q.x, 0, T)
    c1, w1, k1 = _orbit_terms(q.params, q.cost, q.beta, q.x, q.x, 1, T)
    num = _fsum_diff(c0, c1)
    den = _fsum_diff(w1, w0)
    slack = gap * q.beta ** (T + 1) / max(1e-300, 1.0 - q.beta)
    if den <= 0.0 or den < (1.0 - q.beta) * gap - slack - 1e-15:
        raise InconsistencyError(
            f"marginal work {den} below its lower bound at x={q.x}:"
            " internal inconsistency"
        )
    tw = threshold_word(q.params, q.x, word_max_len)
    return IndexRecord(
        x=q.x,
        lam=num / den,
        numerator=num,
        denominator=den,
        word=tw.word if tw.periodic else None,
        periodic=tw.periodic,
        knife_edge=k0 or k1 or tw.knife_edge,
    )


def whittle_index_word(
    params: ArmParams, cost: CostFn, beta: float, x: float, word: Word, T: int
) -> tuple[float, float]:
    """(numerator, denominator) with actions pinned to the certified word.

    For x inside the word's fixed-point interval the passive-start variant
    follows (01p)-cycles and the active-start variant (10p)-cycles, where
    word = 0p1; pinning the actions removes threshold comparisons entirely,
    which is the knife-edge-proof evaluation path.
    """
    n = len(word)
    if n == 1:
        seq0 = [0] + [word.letter(1)] * (T + 1)
        seq1 = [1] + [word.letter(1)] * (T + 1)
    else:
        p = word.factor(2, n - 1)
        w01 = Word("01") + p
        w10 = Word("10") + p
        reps = T // n + 2
        seq0 = list(w01 * reps)
        seq1 = list(w10 * reps)
    step = scalar_map(params)
    num = 0.0
    den = 0.0
    v0 = v1 = float(x)
    disc = 1.0
    for t in range(T + 1):
        num += disc * (cost.eval(v0) - cost.eval(v1))
        den += disc * (params.work_cost(seq1[t]) - params.work_cost(seq0[t]))
        v0 = step(seq0[t], v0)
        v1 = step(seq1[t], v1)
        disc *= beta
    return num, den


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
    T = truncation_horizon(beta)
    cterms, wterms, _ = _orbit_terms(params, cost, beta, x, s, a, T)
    return math.fsum(cterms) + nu * math.fsum(wterms)


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


def index_beta1(
    params: ArmParams, cost: CostFn, x: float, T: int, word_max_len: int = 256
) -> IndexRecord:
    """Discount-to-one limit of the index at x, with its certified word.

    Requires a certified periodic threshold word of period n; the limit
    denominator is (c1 - c0)/n and the limit numerator telescopes the two
    orbits against their limit cycles, approximating the cycle by late
    iterates.  Both orbits are stepped T n times on Python floats by
    :func:`scalar_map` (bitwise the states of ``phi``), kept in lists and
    converted to arrays once for the cost.  The record's numerator is
    lambda times the denominator.
    """
    gap = cost_gap(params)
    tw: ThresholdWord = threshold_word(params, x, word_max_len)
    if not tw.periodic:
        raise UncertifiedPeriodError(
            f"no certified period <= {word_max_len} at x={x}"
        )
    n = len(tw.word)
    if n > T:
        raise UncertifiedPeriodError(f"period {n} exceeds horizon T={T}")
    steps = T * n
    step = scalar_map(params)
    states = {}
    for first in (0, 1):
        v = float(x)
        traj = [v]
        v = step(first, v)
        for _ in range(steps - 1):
            traj.append(v)
            v = step(int(v >= x), v)
        states[first] = np.array(traj)
    cyc0 = cost.eval(states[0][steps - n : steps])
    cyc1 = cost.eval(states[1][steps - n : steps])
    offsets = np.arange(steps) % n
    c0 = cost.eval(states[0])
    c1 = cost.eval(states[1])
    numerator = float(np.sum(c0 - cyc0[offsets] - c1 + cyc1[offsets]))
    t_head = np.arange(n)
    numerator += float(np.sum(t_head * (cyc1 - cyc0))) / n
    lam = numerator * n / gap
    return IndexRecord(
        x=float(x), lam=lam, numerator=lam * gap / n, denominator=gap / n,
        word=tw.word, periodic=True, knife_edge=tw.knife_edge,
    )


# ---------------------------------------------------------------------------
# Vectorized grid evaluation.


def marginal_sums_batch(
    r: np.ndarray,
    a0: np.ndarray,
    a1: np.ndarray,
    c0: np.ndarray,
    c1: np.ndarray,
    beta: np.ndarray,
    cost: CostFn,
    x: np.ndarray,
    s: np.ndarray,
    T: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginal cost, marginal work, knife-edge flags; everything broadcasts.

    Plain >= comparisons decide actions here; points that ever tie a
    threshold are flagged so scalar re-evaluation can arbitrate.  Each sum
    is taken to infinity in closed form once its orbit repeats a state
    exactly, and truncated at T when it does not repeat by then.  Both
    forced first actions step as one batch of 2n orbits (see
    :func:`_threshold_sums_batch`): orbits [0, n) start passive and orbits
    [n, 2n) start active.
    """
    args = [np.asarray(a, dtype=float) for a in (r, a0, a1, c0, c1, beta, x, s)]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    r, a0, a1, c0, c1, beta, x, s = args
    n = math.prod(shape)

    def per_orbit(a: np.ndarray) -> np.ndarray:
        return np.tile(np.broadcast_to(a, shape).ravel(), 2)

    def rows(*arrays: np.ndarray) -> tuple:
        # A single value is shared by all orbits.
        return tuple(a.reshape(1) if a.size == 1 else per_orbit(a) for a in arrays)

    tol = np.where(np.isinf(s), -1.0, KNIFE_EDGE_TOL * np.maximum(1.0, np.abs(s)))
    cost_sums, work_sums, knife, n_open = _threshold_sums_batch(
        rows(c0, c1, beta, s, tol),
        rows(*batch_coefficients(r * r, a0, a1)),
        cost, per_orbit(x), np.arange(2 * n) >= n, T,
    )
    if n_open:
        _debug("%d of %d batch orbits reached T=%d with no repeat", n_open, 2 * n, T)
    return (
        (cost_sums[:n] - cost_sums[n:]).reshape(shape),
        (work_sums[n:] - work_sums[:n]).reshape(shape),
        (knife[:n] | knife[n:]).reshape(shape),
    )


def _columns(rows: tuple, cols: np.ndarray) -> tuple:
    """The entries of each row at the given orbits.

    A 1-element row is shared by all orbits and returned as it is.  (So is
    a per-orbit row with one entry left; the kernel stops stepping when
    that orbit repeats.)
    """
    return tuple(row if row.size == 1 else row[cols] for row in rows)


def _threshold_sums_batch(
    par: tuple, coef: tuple, cost: CostFn, x: np.ndarray, first: np.ndarray, T: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Cost and work sums of s-threshold orbits, each with a forced first action.

    ``par`` holds the rows (c0, c1, beta, s, knife-edge tolerance) and
    ``coef`` the :func:`batch_coefficients` rows, each with one entry per
    start x or a single entry shared by all; ``first`` is the first action
    of each orbit.  Returns the infinite-horizon sums, the knife-edge flags
    and the number of orbits stepped to T without a repeat, whose sums are
    truncated at T.  Repeats are found by Brent's method: each orbit is
    compared bitwise with an anchor state retaken at t = 1, 2, 4, ...  An
    orbit back at its anchor state at step t is periodic from the anchor
    step k with period n = t - k and stops stepping; its sum is the part
    before k plus the cycle's sum times 1 / (1 - beta^n).  The anchor
    schedule depends only on t, so each orbit's sums do not depend on the
    other orbits of the batch.  Memory stays O(len(x)).

    A shared beta is raised to the power t on its 1-element row: numpy's
    power gives the same float there as in a full row, while a Python
    float power may differ from it in the last bit.

    Only the starting states go through the cost's domain check.  The
    states at t >= 1 are variance images, positive unless an active step
    with a1 = inf, or a map denominator that overflows, takes them to 0.
    A step adds at most 1 to a state, so the denominators stay below
    a1 r^2 (max x + T) + a1 + 1 (doubled for rounding); when that is
    finite and no orbit has a1 = inf, the states are evaluated unchecked,
    and otherwise every step is checked.
    """
    knife = np.zeros(x.size, dtype=bool)
    sums = np.empty((2, x.size))
    # Summed over t < k, and over k <= t.
    head = np.stack([cost.eval(x), np.where(first, par[1], par[0])])
    den_max = 2.0 * (float(np.max(x, initial=0.0)) + T) * float(coef[3].max())
    den_max += float(coef[4].max()) + 1.0
    positive = den_max < math.inf and not coef[5].any()
    cost_at = cost.eval_unchecked if positive else cost.eval
    cyc = np.zeros_like(head)
    v = phi_batch(coef, first, x)
    anchor, k = v, 1
    # The orbits still stepping; repeating ones are moved out.
    live, lpar, lcoef, lknife = np.arange(x.size), par, coef, knife.copy()
    for t in range(1, T + 1):
        if t > k:
            hit = v == anchor
            if hit.any():
                ids = live[hit]
                geo = _cycle_factor(_columns(lpar, hit)[2], t - k)
                sums[:, ids] = head[:, hit] + geo * cyc[:, hit]
                knife[ids] = lknife[hit]
                keep = ~hit
                live, v, anchor, lknife = live[keep], v[keep], anchor[keep], lknife[keep]
                head, cyc = head[:, keep], cyc[:, keep]
                lpar, lcoef = _columns(lpar, keep), _columns(lcoef, keep)
                if not live.size:
                    break
            if t == 2 * k:
                head += cyc
                cyc = np.zeros_like(head)
                anchor, k = v, t
        c0, c1, beta, s, tol = lpar
        off = np.subtract(v, s)
        lknife |= np.abs(off, out=off) <= tol
        act = v >= s
        disc = beta**t
        cyc[0] += disc * cost_at(v)
        cyc[1] += np.where(act, disc * c1, disc * c0)
        v = phi_batch(lcoef, act, v)
    knife[live] = lknife
    sums[:, live] = head + cyc
    return sums[0], sums[1], knife, live.size


@dataclass(frozen=True)
class IndexTable:
    records: list[IndexRecord]
    monotonicity_violations: int
    T: int
    tolerance: float


def index_table(
    params: ArmParams,
    cost: CostFn,
    beta: float,
    grid: Sequence[float],
    words: bool = True,
    word_max_len: int = 64,
) -> IndexTable:
    """Tabulate the index over an ascending state grid.

    Knife-edge points are re-evaluated through the scalar branch-resolving
    path.  Decreases of lambda beyond 1e-9 plus the slack of orbits
    truncated at the step cap are counted as monotonicity violations
    (admissible costs must produce none).
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or len(xs) == 0:
        raise ValueError("grid must be a non-empty 1-d sequence")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid must be strictly ascending")
    p = params
    gap = cost_gap(p)
    T = truncation_horizon(beta)
    num, den, knife = marginal_sums_batch(
        p.r, p.a0, p.a1, p.c0, p.c1, beta, cost, xs, xs, T
    )
    lam = num / den
    records: list[IndexRecord] = []
    for i, x in enumerate(xs):
        if knife[i]:
            rec = whittle_index(
                IndexQuery(p, cost, beta, float(x)), word_max_len=word_max_len
            )
        else:
            word = None
            periodic = False
            if words:
                tw = threshold_word(p, float(x), word_max_len)
                word, periodic = (tw.word if tw.periodic else None), tw.periodic
            rec = IndexRecord(
                x=float(x),
                lam=float(lam[i]),
                numerator=float(num[i]),
                denominator=float(den[i]),
                word=word,
                periodic=periodic,
                knife_edge=False,
            )
        records.append(rec)
    slack = _lambda_slack(gap, beta, T, records)
    lams = np.array([rec.lam for rec in records])
    tol = 1e-9 + slack
    violations = int(np.sum(np.diff(lams) < -tol))
    return IndexTable(records, violations, T, tol)


def _lambda_slack(
    gap: float, beta: float, T: int, records: list[IndexRecord]
) -> float:
    """Bound on the index perturbation of sums truncated at the step cap T."""
    if beta == 0.0:
        return 0.0
    tail = beta ** (T + 1) / (1.0 - beta)
    den_min = min(rec.denominator for rec in records)
    num_scale = max(1.0, (1.0 - beta) * max(abs(rec.numerator) for rec in records))
    lam_max = max(abs(rec.lam) for rec in records)
    return tail * (num_scale + lam_max * gap) / den_min
