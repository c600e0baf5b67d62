"""Discrete and continuous time semigroups over a finite space.

A semigroup is either a Kernel (unit-time step, powers give the rest) or
a Generator (conservative rate matrix, transition matrices come from
uniformization). A measure goes through a resolvent by one transposed
solve in auxiliary_measure, and the operators are formed only to be read.
Time integrals use composite Simpson quadrature on an exact uniform grid.

The one discrete chain lives here: power_rows yields m K^n and mean_rows
sums those rows into m S_n, step by step. kb_measure, the almost-invariance
evidence, the drift accounts, the row gaps and the Cesaro limit check all
read them, and certificates.averages re-exports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Union

import numpy as np

from .core import (
    Kernel,
    Measure,
    StateFn,
    StateSpace,
    _check_same_space,
    _frozen_array,
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
    "SIMPSON_STEPS_PER_UNIT",
]

SIMPSON_STEPS_PER_UNIT = 64
_SERIES_TAIL = 1e-14
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
    """Yield (n, m composed with K^n) for n = 1..horizon."""
    v = m.weights.astype(float)
    for n in range(1, int(horizon) + 1):
        v = v @ K.rows
        yield n, v


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
    return np.eye(G.size) + G.rates / G.lam


def uniformized(G: Generator) -> Kernel:
    """Markovian jump kernel I + Q/lam of the uniformized chain.

    Shares the generator's closed classes, per-class stationary laws and
    absorption weights, so long-time averages of the flow can be read off
    this one kernel.
    """
    return Kernel(G.space, _uniformized_step(G), kind="markovian",
                  on_rowsum="renormalize")


def _series_transition(G: Generator, t: float) -> np.ndarray:
    """Poisson-weighted series for e^{tQ}, truncated below 1e-14 tail mass."""
    lam_t = G.lam * t
    p_lam = _uniformized_step(G)
    n = G.size
    weight = float(np.exp(-lam_t))
    term = np.eye(n)
    acc = weight * term
    cum = weight
    k = 0
    limit = int(lam_t + 40.0 * np.sqrt(lam_t + 1.0) + 60)
    while 1.0 - cum > _SERIES_TAIL and k < limit:
        k += 1
        term = term @ p_lam
        weight *= lam_t / k
        acc += weight * term
        cum += weight
    return acc


def transition_at(S: Semigroup, t) -> Kernel:
    """Transition kernel after time t.

    Discrete semigroups require integer t >= 0 and use binary powers.
    Continuous semigroups use uniformization; for lam*t beyond 200 the
    time is halved recursively and the result squared, which keeps the
    Poisson weights well inside double range.
    """
    if isinstance(S, Kernel):
        if t != int(t):
            raise ValueError(f"discrete semigroup needs integer time, got {t}")
        from .core import power
        return power(S, int(t))
    if t < 0:
        raise ValueError("time must be nonnegative")
    t = float(t)
    if t == 0.0 or S.lam == 0.0:
        return Kernel(S.space, np.eye(S.size))
    halvings = 0
    tt = t
    while S.lam * tt > _MAX_DIRECT_LAMT:
        tt /= 2.0
        halvings += 1
    rows = _series_transition(S, tt)
    for _ in range(halvings):
        rows = rows @ rows
    return Kernel(S.space, rows, kind="markovian",
                  on_rowsum="renormalize" if halvings else "reject")


def _generator_solve(G: Generator, alpha: float, rhs: np.ndarray):
    """A = alpha I - Q and X = A^{-1} rhs, for rhs = I or a ones column.
    The row sums of X are those of R_alpha and must stay within 1e-9 of
    1/alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    A = alpha * np.eye(G.size) - G.rates
    X = np.linalg.solve(A, rhs)
    if np.abs(alpha * X.sum(axis=1) - 1.0).max() > 1e-9:
        raise ArithmeticError("resolvent solve lost mass; generator is "
                              "too ill-conditioned at this alpha")
    return A, X


def resolvent_raw(G: Generator, alpha: float) -> np.ndarray:
    """R_alpha = (alpha I - Q)^{-1} as a plain matrix (mass 1/alpha rows),
    for code that reads the operator; measures go via auxiliary_measure."""
    if not isinstance(G, Generator):
        raise ValueError("resolvents of discrete semigroups come from "
                         "discrete_resolvent")
    return _generator_solve(G, alpha, np.eye(G.size))[1]


def resolvent(S: Semigroup, alpha: float) -> Kernel:
    """Markovian kernel alpha * R_alpha of a continuous semigroup, for code
    that reads the operator; measures go via auxiliary_measure."""
    return Kernel(S.space, alpha * resolvent_raw(S, alpha), kind="markovian",
                  on_rowsum="renormalize")


def discrete_resolvent(K: Kernel) -> Kernel:
    """Half-geometric resolvent sum_k 2^-(k+1) K^k = (1/2)(I - K/2)^{-1},
    for code that reads the operator; measures go via auxiliary_measure."""
    if not isinstance(K, Kernel):
        raise ValueError("discrete_resolvent expects a kernel")
    n = K.size
    rows = np.linalg.solve(np.eye(n) - 0.5 * K.rows, 0.5 * np.eye(n))
    return Kernel(K.space, rows, kind=K.kind, on_rowsum="renormalize")


def auxiliary_measure(S: Semigroup, mu: Measure, alpha: float = 1.0) -> Measure:
    """Reference measure built from a start distribution.

    Discrete: mu composed with the half-geometric resolvent (same mass).
    Continuous: mu composed with the raw resolvent R_alpha (mass scaled
    by 1/alpha). Either way mu goes through one transposed solve,
    (I - K/2)^T x = mu/2 or (alpha I - Q)^T x = mu, and Measure rejects
    a negative x. The result respects its own null sets one step further,
    through K or alpha R_alpha, which is asserted before returning.
    """
    _check_same_space(mu, S)
    if isinstance(S, Kernel):
        A = np.eye(S.size) - 0.5 * S.rows
        m = Measure(S.space, np.linalg.solve(A.T, 0.5 * mu.weights))
        flow = m.weights @ S.rows
    else:
        A, _ = _generator_solve(S, alpha, np.ones((S.size, 1)))
        m = Measure(S.space, np.linalg.solve(A.T, mu.weights))
        flow = np.linalg.solve(A.T, alpha * m.weights)
    leak = float(flow[m.weights <= 0.0].sum())
    if leak > 1e-15 * max(1.0, m.mass):
        raise AssertionError(
            f"auxiliary measure leaks {leak:.3e} outside its support; "
            "this should be impossible by construction")
    return m


def _even_steps(t: float, quad_steps: int | None) -> int:
    if quad_steps is None:
        quad_steps = max(2, int(np.ceil(SIMPSON_STEPS_PER_UNIT * t)))
    quad_steps = int(quad_steps)
    if quad_steps < 2:
        raise ValueError("Simpson quadrature needs at least 2 subintervals")
    if quad_steps % 2:
        quad_steps += 1
    return quad_steps


def _simpson_pushes(G: Generator, start: np.ndarray, t: float,
                    quad_steps: int | None) -> np.ndarray:
    """integral_0^t (start . P_s) ds by composite Simpson on a uniform grid.

    The grid values are exact semigroup points: P_{jh} = (P_h)^j.
    """
    q = _even_steps(t, quad_steps)
    h = t / q
    step = transition_at(G, h).rows
    weights = np.ones(q + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    v = start.astype(float).copy()
    acc = weights[0] * v
    for j in range(1, q + 1):
        v = v @ step
        acc += weights[j] * v
    return acc


def occupation_density(S: Semigroup, m: Measure, t: float,
                       quad_steps: int | None = None) -> StateFn:
    """Density of the expected occupation up to time t, relative to m.

    Computes integral_0^t d(m P_s)/dm ds on the support of m; atoms
    outside the support get zero, mirroring the adjoint convention.
    """
    if isinstance(S, Kernel):
        raise ValueError("occupation densities are continuous-time objects; "
                         "use kb_measure for discrete averages")
    _check_same_space(m, S)
    if t <= 0:
        raise ValueError("t must be positive")
    integ = _simpson_pushes(S, m.weights, t, quad_steps)
    out = np.zeros(S.size)
    supp = m.weights > 0.0
    out[supp] = integ[supp] / m.weights[supp]
    return StateFn(S.space, out)


def kb_measure(S: Semigroup, mu: Measure, t, quad_steps: int | None = None) -> Measure:
    """Time-averaged push of a start distribution.

    Continuous: (1/t) integral_0^t mu P_s ds by Simpson quadrature.
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
    integ = _simpson_pushes(S, mu.weights, float(t), quad_steps)
    return Measure(S.space, integ / float(t))
