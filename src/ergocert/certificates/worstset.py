"""Exact search for worst sets and constrained worst sets.

Two problems recur in every almost-invariance bound:

* unconstrained: maximize row(A) - phi(base(A)) over all subsets A;
* mass-capped: maximize row(A) subject to base(A) <= eps.

For concave phi the unconstrained problem is solved exactly by scanning
prefixes of atoms sorted by the ratio row/base, zero-base atoms first.
Sketch: if A is optimal and a in A, b not in A, single-swap optimality
plus decreasing slopes of phi force ratio(b) <= ratio(a); within a tie
group the gain is convex in the included mass, so an endpoint (none or
all of the group) does as well as any subset. Some prefix therefore
attains the optimum. The argument needs concavity, so the search
accepts only the three modulus families, each checked concave when
built; the test suite compares the scan against a subset enumeration.

The capped problem is a 0/1 knapsack with real weights, solved by
depth-first branch and bound over the items in decreasing value/weight
order. The search runs on an explicit stack, so its depth is not tied to
the interpreter's recursion limit. Each node is bounded by the greedy
fractional (Dantzig) bound, read off prefix sums of the sorted values
and weights with one bisection, and a greedy fill seeds the incumbent.
A node budget caps the work; a search that exhausts it reports a
feasible lower bound and says so.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..core import Measure
from .phi import PhiLinear, PhiPower, PhiTable

__all__ = [
    "signed_excess",
    "WorstSet",
    "worst_set_search",
    "KnapsackResult",
    "knapsack_best",
    "fractional_knapsack",
]


def _as_weights(m):
    if isinstance(m, Measure):
        return m.weights
    return np.asarray(m, dtype=float).reshape(-1)


def signed_excess(row, base, c: float) -> float:
    """sum over atoms of (row(a) - c * base(a))+ .

    Equals the worst-set value for the linear modulus phi(t) = c*t, and
    the sup over functions f in the unit ball of row(f) - c*base(f).
    """
    r = _as_weights(row)
    b = _as_weights(base)
    if r.shape != b.shape:
        raise ValueError("row and base must have equal length")
    d = r - float(c) * b
    return float(d[d > 0].sum())


@dataclass(frozen=True)
class WorstSet:
    """Outcome of an unconstrained worst-set search."""

    value: float
    members: tuple


def worst_set_search(row, base, phi) -> WorstSet:
    """Maximize row(A) - phi(base(A)) over subsets A of the atoms.

    phi must be a PhiLinear, PhiPower or PhiTable; any other modulus is
    refused, since the prefix scan is exact only for concave ones. The
    empty set scores phi(0) = 0, so the value is never negative.
    """
    if not isinstance(phi, (PhiLinear, PhiPower, PhiTable)):
        raise ValueError("worst-set search needs a PhiLinear, PhiPower or "
                         f"PhiTable modulus, got {type(phi).__name__}")
    r = _as_weights(row)
    b = _as_weights(base)
    if r.shape != b.shape:
        raise ValueError("row and base must have equal length")
    if (r < 0).any() or (b < 0).any():
        raise ValueError("row and base must be nonnegative")

    cand = np.flatnonzero(r > 0.0)  # atoms with zero row mass never help
    free = cand[b[cand] <= 0.0]     # cost nothing, always worth taking
    paid = cand[b[cand] > 0.0]

    free_value = float(r[free].sum())
    best_value = free_value - float(phi(0.0))
    best_members = tuple(free.tolist())

    if paid.size:
        order = paid[np.argsort(-(r[paid] / b[paid]), kind="stable")]
        csum_r = free_value + np.cumsum(r[order])
        csum_b = np.cumsum(b[order])
        vals = csum_r - phi(csum_b)
        k = int(np.argmax(vals))
        if vals[k] > best_value:
            best_value = float(vals[k])
            best_members = tuple(
                np.sort(np.concatenate([free, order[:k + 1]])).tolist())
    return WorstSet(value=best_value, members=best_members)


@dataclass(frozen=True)
class KnapsackResult:
    value: float
    members: tuple
    exact: bool


def _fill(v: np.ndarray, w: np.ndarray, capacity: float):
    """Items that can fit, in decreasing value/weight order, and their bound.

    Returns (free, base_value, order, vs, ws, bound): the positive items
    of weight zero and their value, which every set takes; the indices
    of the positive items that fit the capacity alone, sorted by ratio,
    with their values and weights; and bound(i, room), the greedy
    fractional fill of room by items i.. of that order, O(log n) from
    prefix sums and one bisection. Items heavier than the capacity
    never enter, so they loosen no bound.
    """
    slack = 1e-12 * max(1.0, capacity)
    idx = np.arange(len(v))
    free = idx[(v > 0) & (w <= 0)]
    base_value = float(v[free].sum())
    cand = idx[(v > 0) & (w > 0) & (w <= capacity + slack)]
    order = cand[np.argsort(-(v[cand] / w[cand]), kind="stable")]
    vs = v[order].tolist()
    ws = w[order].tolist()
    n = len(vs)
    pv = [0.0, *accumulate(vs)]
    pw = [0.0, *accumulate(ws)]

    def bound(i: int, room: float) -> float:
        # items i..j-1 fit whole, item j fills the rest fractionally
        if room <= 0.0:
            return 0.0
        j = bisect_right(pw, pw[i] + room, i) - 1
        total = pv[j] - pv[i]
        if j < n:
            total += vs[j] * (room - (pw[j] - pw[i])) / ws[j]
        return total

    return free, base_value, order, vs, ws, bound


def fractional_knapsack(values, weights, capacity: float) -> float:
    """Greedy relaxation over the items that fit: always an upper bound.

    Items are divisible, and items heavier than the capacity are left
    out, since no feasible set holds them. This is the bound at the root
    of knapsack_best's search.
    """
    capacity = float(capacity)
    _, base_value, _, _, _, bound = _fill(
        np.asarray(values, dtype=float), np.asarray(weights, dtype=float),
        capacity)
    return base_value + bound(0, capacity)


def knapsack_best(values, weights, capacity: float,
                  node_cap: int = 2_000_000,
                  floor: float = 0.0) -> KnapsackResult:
    """0/1 knapsack with nonnegative real values and weights.

    Depth-first branch and bound on an explicit stack, items in
    decreasing value/weight order, taking an item before leaving it out.
    A node's bound is the greedy fractional fill of its remaining room,
    O(log n) from prefix sums and a bisection. The incumbent starts at
    the greedy fill that takes every item that still fits, in ratio
    order. A branch is cut once its bound cannot beat the incumbent or
    floor, a value the caller already holds from elsewhere, so a floor
    only spares the search work it would spend on sets no better.

    exact=True proves that no feasible set is worth more than
    max(value, floor). exact=False signals the node budget ran out, in
    which case value is the best solution found: feasible, so a lower
    bound on the optimum.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError("values and weights must have equal length")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    slack = 1e-12 * max(1.0, capacity)
    free, base_value, order, vs, ws, bound = _fill(v, w, capacity)
    n = len(vs)
    if n == 0:
        return KnapsackResult(base_value, tuple(int(i) for i in free), True)

    best = base_value
    best_set: list = []
    room = float(capacity)
    for i in range(n):
        if ws[i] <= room + slack:
            best += vs[i]
            room -= ws[i]
            best_set.append(i)

    cut = max(best, floor) * (1 + 1e-15) + 1e-15
    chosen: list = []
    stack = [(0, base_value, float(capacity), 0)]
    nodes = 0
    truncated = False
    while stack and not truncated:
        i, cur, room, depth = stack.pop()
        del chosen[depth:]
        while True:  # dive, taking items and stacking the leave-out branches
            nodes += 1
            if nodes > node_cap:
                truncated = True
                break
            if cur > best:
                best = cur
                best_set = chosen.copy()
                cut = max(best, floor) * (1 + 1e-15) + 1e-15
            if i >= n or cur + bound(i, room) <= cut:
                break
            if ws[i] <= room + slack:
                stack.append((i + 1, cur, room, len(chosen)))
                chosen.append(i)
                cur += vs[i]
                room -= ws[i]
            i += 1

    members = tuple(sorted({int(order[p]) for p in best_set}
                           | {int(i) for i in free}))
    return KnapsackResult(float(best), members, not truncated)
