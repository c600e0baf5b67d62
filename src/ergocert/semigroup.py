"""Discrete and continuous time semigroups over a finite space.

A semigroup is either a Kernel (unit-time step, powers give the rest) or
a Generator (conservative rate matrix, transition matrices come from
uniformization). A measure goes through a resolvent by one push in
auxiliary_measure, and the operators are formed only to be read; every
push is solver._resolvent_push, which subtracts nothing and keeps mass.
Every transition and time average of a generator comes from one
uniformization series, _series, which _flow runs at a time halved until
the Poisson weights stay in range before it climbs the doubling ladder of
core back up.

The one discrete chain lives here: power_rows yields m K^n and mean_rows
sums those rows into m S_n, step by step. Each push skips the structural
zeros of the kernel: it reads only the rows of K where the current row is
nonzero, and only the columns those rows reach. kb_measure, the
almost-invariance evidence, the drift accounts, the row gaps and the
Cesaro limit check all read them, and certificates.averages re-exports
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Union

import numpy as np

from .core import (
    Kernel,
    Measure,
    StateFn,
    StateSpace,
    _check_same_space,
    _frozen_array,
    _Ladder,
    _span_product,
    _span_pushes,
)

__all__ = [
    "Generator",
    "Semigroup",
    "transition_at",
    "uniformized",
    "resolvent",
    "resolvent_raw",
    "discrete_resolvent",
    "auxiliary_measure",
    "occupation_density",
    "kb_measure",
]

# the Poisson tail at which the series stops, below the rounding of mass one
_SERIES_TAIL = 2.0 ** -56
_MAX_DIRECT_LAMT = 200.0


@dataclass(frozen=True)
class Generator:
    """Conservative rate matrix: nonnegative off-diagonal, zero row sums.

    lam is the uniformization rate, at least the largest diagonal
    magnitude; the default leaves 5% headroom.
    """

    space: StateSpace
    rates: np.ndarray
    lam: float

    def __init__(self, space: StateSpace, rates, lam: float | None = None):
        r = np.array(rates, dtype=float, order="C")
        n = space.size
        if r.shape != (n, n):
            raise ValueError(f"expected {(n, n)} rate matrix, got {r.shape}")
        if np.isnan(r).any() or np.isinf(r).any():
            raise ValueError("rates must be finite")
        off = r.copy()
        np.fill_diagonal(off, 0.0)
        scale = max(1.0, np.abs(r).max())
        if (off < -1e-12 * scale).any():
            raise ValueError("off-diagonal rates must be nonnegative")
        off = np.where(off < 0.0, 0.0, off)
        sums = r.sum(axis=1)
        if (np.abs(sums) > 1e-12 * scale).any():
            i = int(np.argmax(np.abs(sums)))
            raise ValueError(f"row {i} of the generator sums to {sums[i]:.3e}")
        # rebuild the diagonal so rows sum to zero exactly
        r = off.copy()
        np.fill_diagonal(r, -off.sum(axis=1))
        max_diag = float(np.abs(np.diag(r)).max())
        if lam is None:
            lam = 1.05 * max_diag
        lam = float(lam)
        if max_diag > 0 and lam < max_diag:
            raise ValueError(
                f"uniformization rate {lam} below max diagonal {max_diag}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "rates", _frozen_array(r))
        object.__setattr__(self, "lam", lam)

    @property
    def size(self) -> int:
        return self.space.size

    def __repr__(self) -> str:
        return f"Generator({self.size} states, lam={self.lam:.4g})"


Semigroup = Union[Kernel, Generator]


def power_rows(K: Kernel, m: Measure, horizon: int):
    """Yield (n, m composed with K^n) for n = 1..horizon.

    Each push multiplies only the nonzero hull of the row by the columns
    its rows of K reach, so it skips the structural zeros of banded and
    block kernels (core._span_pushes).
    """
    pushes = _span_pushes(m.weights.astype(float), K.rows, int(horizon))
    yield from enumerate(pushes, start=1)


def mean_rows(K: Kernel, m: Measure, horizon: int, n0: int = 1):
    """Yield (n, m composed with S_n) for n0 <= n <= horizon.

    S_n averages the first n powers starting at the identity.
    """
    yield from _running_means(m, power_rows(K, m, horizon), horizon, n0)


def _running_means(m: Measure, powers, horizon: int, n0: int = 1):
    """mean_rows off m and the (k, m K^k) pairs of power_rows."""
    acc = np.zeros(m.space.size)
    steps = chain([m.weights], (v for _, v in powers))
    for n, v in zip(range(1, int(horizon) + 1), steps):
        acc += v
        if n >= n0:
            yield n, acc / n


def last_row(rows) -> np.ndarray:
    """The row of the last (n, row) pair of a power_rows or mean_rows walk."""
    row = None
    for _, row in rows:
        pass
    return row


def _uniformized_step(G: Generator) -> np.ndarray:
    """P_lam = I + Q / lam, the jump kernel of the uniformized chain."""
    if G.lam == 0.0:
        return np.eye(G.size)
    return np.eye(G.size) + G.rates / G.lam


def uniformized(G: Generator) -> Kernel:
    """Markovian jump kernel I + Q/lam of the uniformized chain, the
    identity when lam = 0. Limits are not read off it: its diagonal
    1 + q_ii/lam would cancel in P - I, so solver.decompose reads Q.
    """
    return Kernel(G.space, _uniformized_step(G), kind="markovian",
                  on_rowsum="renormalize")


def _series(G: Generator, t: float, start=None):
    """(P_t, time average of start over [0, t]) by one Poisson series.

    With N ~ Poisson(lam t) and P = I + Q/lam, P_t = sum_k P(N = k) P^k
    and (1/t) integral_0^t start P_s ds = sum_k P(N > k)/(lam t) start P^k
    (uniformization). The tails P(N > k) are summed from the far end, so
    none of them cancels and P(N > 0) keeps its relative accuracy at tiny
    lam t. The series stops at the first k with P(N > k) <= 2**-56, under
    the rounding of mass one, which bounds the lost mass of P_t and, since
    E(N - k - 1)^+ <= lam t P(N > k), of the average; each squaring of the
    ladder doubles the loss of P_t, so it must start at rounding level.
    The powers P^k are spanned products. Valid for lam t <=
    _MAX_DIRECT_LAMT, where exp(-lam t) is a normal float. With
    lam t = 0 (a zero-rate generator, or t = 0) the flow is the identity
    and the average is start itself; without start it is None.
    """
    lam_t = G.lam * t
    if lam_t == 0.0:
        return np.eye(G.size), start
    k = np.arange(1.0, int(lam_t + 40.0 * np.sqrt(lam_t + 1.0) + 60))
    pois = np.exp(-lam_t) * np.cumprod(np.append(1.0, lam_t / k))
    tails = np.append(np.cumsum(pois[:0:-1])[::-1], 0.0)
    last = int(np.argmax(tails <= _SERIES_TAIL))
    powers = chain([np.eye(G.size)], accumulate(
        repeat(_uniformized_step(G), last), _span_product))
    P = avg = 0.0
    for w, a, term in zip(pois, tails / lam_t, powers):
        P = P + w * term
        if start is not None:
            avg = avg + a * (start @ term)
    return P, None if start is None else avg


def _flow(G: Generator, t: float, start=None) -> _Ladder:
    """Doubling ladder of P_t, with the time average of start as its rows.

    t is halved until lam t is at most _MAX_DIRECT_LAMT, which keeps the
    Poisson weights of _series well inside double range; the ladder then
    climbs back to t, the average by avg_2s = (avg_s + avg_s P_s) / 2.
    """
    halvings = 0
    while G.lam * t > _MAX_DIRECT_LAMT:
        t /= 2.0
        halvings += 1
    return _Ladder(*_series(G, t, start)).climb(halvings)


def transition_at(S: Semigroup, t) -> Kernel:
    """Transition kernel after time t.

    Discrete semigroups require integer t >= 0 and use binary powers.
    Continuous semigroups read the power of _flow: one uniformization
    series, squared back up from a halved time when lam t exceeds 200.
    """
    if isinstance(S, Kernel):
        if t != int(t):
            raise ValueError(f"discrete semigroup needs integer time, got {t}")
        from .core import power
        return power(S, int(t))
    if t < 0:
        raise ValueError("time must be nonnegative")
    flow = _flow(S, float(t))
    return Kernel(S.space, flow.power, kind="markovian",
                  on_rowsum="renormalize" if flow.rung else "reject")


def _push(S: Semigroup, mu: np.ndarray, alpha) -> np.ndarray:
    """mu (2I - K)^{-1} or mu (alpha I - Q)^{-1}, with slack 2 - K(x, X)
    or alpha."""
    from .solver import _resolvent_push
    if isinstance(S, Kernel):
        slack = 2.0 - S.rows.sum(axis=1)
        if (slack <= 0.0).any():
            raise ValueError("a kernel row sums to 2 or more: its resolvent "
                             "push is not nonnegative")
        return _resolvent_push(S.rows, slack, mu)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _resolvent_push(S.rates, np.full(S.size, float(alpha)), mu)


def resolvent_raw(G: Generator, alpha: float) -> np.ndarray:
    """R_alpha = (alpha I - Q)^{-1} as a plain matrix, for code that reads
    the operator; measures go via auxiliary_measure. One push of the
    identity, so alpha R_alpha keeps mass one on every row."""
    if not isinstance(G, Generator):
        raise ValueError("resolvents of discrete semigroups come from "
                         "discrete_resolvent")
    return _push(G, np.eye(G.size), alpha)


def resolvent(S: Semigroup, alpha: float) -> Kernel:
    """Markovian kernel alpha * R_alpha of a continuous semigroup, for code
    that reads the operator; measures go via auxiliary_measure."""
    return Kernel(S.space, alpha * resolvent_raw(S, alpha), kind="markovian",
                  on_rowsum="renormalize")


def discrete_resolvent(K: Kernel) -> Kernel:
    """Half-geometric resolvent sum_k 2^-(k+1) K^k = (2I - K)^{-1}, for
    code that reads the operator; measures go via auxiliary_measure. One
    push of the identity."""
    if not isinstance(K, Kernel):
        raise ValueError("discrete_resolvent expects a kernel")
    rows = _push(K, np.eye(K.size), None)
    return Kernel(K.space, rows, kind=K.kind, on_rowsum="renormalize")


def auxiliary_measure(S: Semigroup, mu: Measure, alpha: float = 1.0) -> Measure:
    """Reference measure built from a start distribution.

    Discrete: mu composed with the half-geometric resolvent (same mass).
    Continuous: mu composed with the raw resolvent R_alpha (mass scaled
    by 1/alpha). Either way mu goes through one push, x (2I - K) = mu or
    x (alpha I - Q) = mu, which subtracts nothing: summed over the states
    its equations give sum_j x(j) slack(j) = mu(X), with slack 2 - K(j, X)
    or alpha, so mass is kept by construction. An atom of x is 0 where no
    path of K > 0 or Q > 0 leads to it from supp mu, or where it
    underflows; then the exact support reach(supp mu) is m.support.
    """
    _check_same_space(mu, S)
    m = Measure(S.space, _push(S, mu.weights, alpha))
    if (m.weights <= 0.0).any():
        # reach(supp mu), one frontier of the graph at a time
        adjacency = (S.rows if isinstance(S, Kernel) else S.rates) > 0.0
        reach = frontier = mu.weights > 0.0
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~reach
            reach = reach | frontier
        object.__setattr__(m, "_reach",
                           _frozen_array(np.flatnonzero(reach), dtype=int))
    return m


def occupation_density(S: Semigroup, m: Measure, t: float) -> StateFn:
    """Density of the expected occupation up to time t, relative to m.

    Computes integral_0^t d(m P_s)/dm ds on the support of m, t times the
    time average that _flow reads off the uniformization series; atoms
    outside the support get zero, mirroring the adjoint convention.
    """
    if isinstance(S, Kernel):
        raise ValueError("occupation densities are continuous-time objects; "
                         "use kb_measure for discrete averages")
    _check_same_space(m, S)
    if t <= 0:
        raise ValueError("t must be positive")
    integ = t * _flow(S, float(t), m.weights).rows
    out = np.zeros(S.size)
    supp = m.weights > 0.0
    out[supp] = integ[supp] / m.weights[supp]
    return StateFn(S.space, out)


def kb_measure(S: Semigroup, mu: Measure, t) -> Measure:
    """Time-averaged push of a start distribution.

    Continuous: (1/t) integral_0^t mu P_s ds, the rows of _flow.
    Discrete: (1/n) sum_{k<n} mu P^k with integer n >= 1.
    """
    _check_same_space(mu, S)
    if isinstance(S, Kernel):
        n = int(t)
        if n != t or n < 1:
            raise ValueError("discrete averages need integer t >= 1")
        return Measure(S.space, last_row(mean_rows(S, mu, n, n0=n)))
    if t <= 0:
        raise ValueError("t must be positive")
    return Measure(S.space, _flow(S, float(t), mu.weights).rows)
