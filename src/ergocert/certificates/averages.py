"""Row families every checker scores: powers, running averages, limits.

Each helper pushes a fixed start measure through the dynamics and hands
back (horizon, weight-vector) pairs. Limits come from the class
decomposition, never from long runs; the limiting horizon is tagged with
the string "limit" so reports can tell it apart from finite evidence.
The discrete chains power_rows and mean_rows live in ergocert.semigroup,
next to kb_measure, and are re-exported here: every pushed row m K^n or
m S_n in the package is read off that one copy.
The leakage, invariance and index checks read these rows through the
Evidence object of certificates.almost, which calls each helper at most
once per (system, reference, horizon) and shares the rows among them.
"""

from __future__ import annotations

import numpy as np

from ..core import Measure
from ..semigroup import (Generator, kb_measure, mean_rows, power_rows,
                         transition_at)
from ..solver import averaging_projector

__all__ = [
    "LIMIT",
    "geometric_horizons",
    "power_rows",
    "mean_rows",
    "continuous_power_rows",
    "continuous_mean_rows",
    "limit_row",
]

LIMIT = "limit"


def geometric_horizons(cap: int) -> list[int]:
    """1, 2, 4, ... doubling up to the cap, the cap itself appended."""
    cap = int(cap)
    if cap < 1:
        raise ValueError("horizon cap must be at least 1")
    out = [1]
    while out[-1] * 2 <= cap:
        out.append(out[-1] * 2)
    if out[-1] != cap:
        out.append(cap)
    return out


def _is_double(t: float, prev: float) -> bool:
    return abs(t - 2.0 * prev) <= 1e-9 * max(abs(t), 1.0)


def continuous_power_rows(G: Generator, m: Measure, ts) -> list:
    """(t, m composed with P_t) along a time grid.

    Doubling grids cost one matrix square per entry; other spacings fall
    back to a fresh transition computation.
    """
    out = []
    cur = None
    cur_t = None
    for t in ts:
        t = float(t)
        if cur is not None and _is_double(t, cur_t):
            cur = cur @ cur
        else:
            cur = transition_at(G, t).rows
        cur_t = t
        out.append((t, m.weights @ cur))
    return out


def continuous_mean_rows(G: Generator, m: Measure, ts) -> list:
    """(t, time average of m P_s over [0, t]) along a time grid.

    The first entry integrates by Simpson quadrature; every doubling
    after that uses the exact splitting of the time average, so the
    quadrature error never compounds.
    """
    out = []
    avg = None
    trans = None
    cur_t = None
    for t in ts:
        t = float(t)
        if avg is not None and _is_double(t, cur_t):
            avg = 0.5 * (avg + avg @ trans)
            trans = trans @ trans
        else:
            avg = kb_measure(G, m, t).weights
            trans = transition_at(G, t).rows
        cur_t = t
        out.append((t, avg))
    return out


def limit_row(S, m: Measure) -> np.ndarray:
    """m composed with the limiting averaging projector of the dynamics,
    a kernel's or a generator's alike."""
    return m.weights @ averaging_projector(S)
