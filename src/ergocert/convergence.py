"""Empirical convergence reports: weighted-norm decay and running averages.

Certificates elsewhere in the package promise an invariant measure; the
functions here measure how fast the kernel actually settles. The gap
norm is the exact operator norm of f -> P^n f - m(f) on the weighted
sup space ||f|| = max |f| / (1 + V), computed row by row from the
extremal f, so the decay report fits a clean geometric envelope rather
than a Monte Carlo estimate. The running-average check compares the
one-row mean occupation against the limit predicted by the ergodic
decomposition.

The fitted decay rate and the contraction coefficient of a drift
inequality are different numbers; reports carry the fit only and leave
any comparison to the caller.
"""

from dataclasses import dataclass

import numpy as np

from .core import (Kernel, Measure, _grid_ladders, _Ladder, power, push,
                   state_index, state_values)
from .semigroup import last_row, mean_rows
from .solver import averaging_projector

__all__ = [
    "DecayReport",
    "weighted_gap_norm",
    "weighted_step_norm",
    "decay_report",
    "cesaro_limit_check",
]

DEFAULT_GRID = (1, 2, 4, 8, 16, 32, 64, 128, 256)
INVARIANCE_TOL = 1e-10
R2_THRESHOLD = 0.95
ENVELOPE_SLACK = 0.1


def _check_invariant(P: Kernel, m: Measure) -> np.ndarray:
    if abs(m.mass - 1.0) > INVARIANCE_TOL:
        raise ValueError(f"m must be a probability (mass {m.mass:.12g})")
    gap = float(np.abs(push(m, P).weights - m.weights).sum())
    if gap > INVARIANCE_TOL:
        raise ValueError(f"m is not invariant (residual {gap:.3e})")
    return m.weights


def _gap_norm(rows_n: np.ndarray, w: np.ndarray, weight: np.ndarray) -> float:
    dev = rows_n - w[None, :]
    np.abs(dev, out=dev)
    return float(((dev @ weight) / weight).max())


def weighted_gap_norm(P: Kernel, m: Measure, V, n: int) -> float:
    """Exact norm of f -> P^n f - m(f) on the (1+V)-weighted sup space.

    Equals max_x (1+V(x))^{-1} sum_a |P^n(x,a) - m(a)| (1+V(a)); the
    maximizing f is sign(P^n(x,a) - m(a)) * (1+V(a)) at the worst row.
    Requires m invariant for P up to 1e-10 in l1 and V finite.
    """
    w = _check_invariant(P, m)
    v = state_values(P.space, V, "V", low=0.0, finite=True)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _gap_norm(power(P, n).rows, w, 1.0 + v)


def weighted_step_norm(P: Kernel, V, n: int = 1) -> float:
    """Norm of P^n without centering on the same weighted space.

    max_x (1+V(x))^{-1} sum_a P^n(x,a) (1+V(a)); submultiplicative
    companion to weighted_gap_norm.
    """
    v = state_values(P.space, V, "V", low=0.0, finite=True)
    weight = 1.0 + v
    return float(((power(P, n).rows @ weight) / weight).max())


@dataclass(frozen=True)
class DecayReport:
    """Geometric fit of exact weighted gap norms over a horizon grid.

    geometric is the headline verdict: the log-linear fit succeeded,
    explained at least 95 percent of the variance, and the fitted rate
    sits strictly below one. norms that have hit the numerical floor
    are excluded from the fit but still reported.
    """

    ns: tuple
    norms: tuple
    fitted_gamma: float
    fitted_C: float
    r2: float
    geometric: bool
    envelope_ok: bool
    fit_points: int
    note: str = ""


def decay_report(P: Kernel, m: Measure, V, n_grid=DEFAULT_GRID) -> DecayReport:
    """Fit norms(n) ~ C * gamma^n in the log domain over n_grid.

    Zero or floor-level norms mean the chain already converged there;
    those horizons are truncated from the fit (they would otherwise
    flatten the slope) but kept in the report. envelope_ok states
    norms(n) <= 1.1 * C * gamma^n, the factor being 1 + ENVELOPE_SLACK,
    across the fitted range.

    The grid climbs one doubling ladder (core._grid_ladders): a horizon
    twice the one before squares its power, as power(P, n) would, and any
    other calls power; the products skip structural zeros.
    """
    ns = tuple(int(n) for n in n_grid)
    if not ns or any(n < 1 for n in ns):
        raise ValueError("n_grid must hold positive horizons")
    w = _check_invariant(P, m)
    weight = 1.0 + state_values(P.space, V, "V", low=0.0, finite=True)
    ladders = _grid_ladders(ns, lambda n: _Ladder(power(P, n).rows))
    norms = tuple(_gap_norm(ladder.power, w, weight) for _, ladder in ladders)

    floor = max(norms[0] * 1e-13, 1e-15)
    cut = next((i for i, b in enumerate(norms) if b <= floor), len(norms))
    fit_ns = np.array(ns[:cut], dtype=float)
    fit_bs = np.array(norms[:cut], dtype=float)

    if fit_ns.size == 0:
        return DecayReport(ns, norms, 0.0, 0.0, 1.0, True, True, 0,
                           "all norms at the numerical floor")
    if fit_ns.size == 1:
        return DecayReport(ns, norms, float("nan"), float("nan"),
                           float("nan"), False, False, 1,
                           "one usable horizon cannot pin a rate")

    logs = np.log(fit_bs)
    slope, intercept = np.polyfit(fit_ns, logs, 1)
    gamma = float(np.exp(slope))
    C = float(np.exp(intercept))
    pred = intercept + slope * fit_ns
    ss_res = float(((logs - pred) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 if ss_res <= 1e-20 else (1.0 - ss_res / ss_tot
                                      if ss_tot > 0.0 else 0.0)
    geometric = bool(gamma < 1.0 - 1e-9 and r2 >= R2_THRESHOLD)
    envelope = bool(all(b <= C * gamma ** n * (1.0 + ENVELOPE_SLACK)
                        for n, b in zip(fit_ns, fit_bs)))
    note = "" if geometric else "no geometric decay at this grid"
    return DecayReport(ns, norms, gamma, C, r2, geometric, envelope,
                       int(fit_ns.size), note)


def cesaro_limit_check(P: Kernel, x, N: int) -> tuple[Measure, float]:
    """Mean occupation row versus its ergodic-decomposition limit.

    Averages the rows P^k(x, .) for k = 1..N and returns that Measure
    together with its total variation distance (half the l1 gap) to the
    limit row of the averaging projector, which is the absorption-
    weighted mixture of the closed-class measures. The distance decays
    like O(1/N) for aperiodic chains and certifies which mixture the
    running averages are heading to.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if P.kind != "markovian":
        raise ValueError("running averages need a markovian kernel")
    xi = state_index(P.space, x)
    avg = last_row(mean_rows(P, P.row_measure(xi), N, n0=N))
    limit = averaging_projector(P)[xi]
    residual = 0.5 * float(np.abs(avg - limit).sum())
    return Measure(P.space, avg), residual
