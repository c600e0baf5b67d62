"""Row families every checker scores: powers, running averages, limits.

Each helper pushes a fixed start measure through the dynamics and hands
back (horizon, weight-vector) pairs. Limits come from the class
decomposition, never from long runs; the limiting horizon is tagged with
the string "limit" so reports can tell it apart from finite evidence.
The discrete chains power_rows and mean_rows live in ergocert.semigroup,
next to kb_measure, and are re-exported here: every pushed row m K^n or
m S_n in the package is read off that one copy. A generator's rows start
from the uniformization series of semigroup._flow and climb the doubling
ladder of core along their time grid.
The leakage, invariance and index checks read these rows through the
Evidence object of certificates.almost, which calls each helper at most
once per (system, reference, horizon) and shares the rows among them.
"""

from __future__ import annotations

import numpy as np

from ..core import Measure, _grid_ladders
from ..semigroup import Generator, _flow, mean_rows, power_rows
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
    out = [1 << j for j in range(cap.bit_length())]
    return out if out[-1] == cap else out + [cap]


def continuous_power_rows(G: Generator, m: Measure, ts) -> list:
    """(t, m composed with P_t) along a time grid.

    A doubling time squares the transition before it on the ladder of
    core._grid_ladders; any other time starts a fresh semigroup._flow.
    """
    ladders = _grid_ladders(map(float, ts), lambda t: _flow(G, t))
    return [(t, m.weights @ ladder.power) for t, ladder in ladders]


def continuous_mean_rows(G: Generator, m: Measure, ts) -> list:
    """(t, time average of m P_s over [0, t]) along a time grid.

    A fresh time sums the uniformization series of semigroup._flow; a
    doubling climbs the ladder of P_t by the exact splitting
    avg_{2t} = (avg_t + avg_t P_t) / 2.
    """
    ladders = _grid_ladders(map(float, ts),
                            lambda t: _flow(G, t, m.weights))
    return [(t, ladder.rows) for t, ladder in ladders]


def limit_row(S, m: Measure) -> np.ndarray:
    """m composed with the limiting averaging projector of the dynamics,
    a kernel's or a generator's alike."""
    return m.weights @ averaging_projector(S)
