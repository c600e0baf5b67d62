"""Certificate and profile containers shared by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Certificate", "IndexProfile", "HOLDS", "FAILS", "INCONCLUSIVE"]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


def _plain(value):
    """Convert numpy scalars/arrays to JSON-friendly python values."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class Certificate:
    """Outcome of one checkable condition.

    condition is a stable kebab-case identifier, verdict one of holds /
    fails / inconclusive, constants the numbers the verdict rests on,
    witness the offending or achieving object when there is one.
    Conclusion certificates derived from a passing check are attached.
    """

    condition: str
    verdict: str
    constants: dict = field(default_factory=dict)
    witness: dict | None = None
    notes: str = ""
    attached: tuple = ()

    def __post_init__(self):
        if self.verdict not in (HOLDS, FAILS, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        object.__setattr__(self, "constants", _plain(self.constants))
        if self.witness is not None:
            object.__setattr__(self, "witness", _plain(self.witness))

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


@dataclass(frozen=True)
class IndexProfile:
    """Worst small-set averaged occupation, profiled over shrinking caps.

    crisp[i] is the best subset value at cap epsilons[i] maximized over
    the horizon grid and the limiting averages. It is exact when exact
    is true; otherwise some knapsack search ran out of nodes and
    crisp[i] is a feasible lower bound. fractional[i] is the greedy
    relaxation, always at least the true optimum, so the two bracket it;
    both are always computed. The index estimate is crisp at the
    smallest cap; the verdict holds when it stays below the threshold by
    the relative margin, a fixed 1e-9, and is inconclusive when a
    truncated search leaves the bracket at the smallest cap straddling
    that mark.
    """

    epsilons: tuple
    crisp: tuple
    fractional: tuple
    horizons: tuple
    threshold: float
    total_mass: float
    index_estimate: float
    verdict: str
    margin: float = 1e-9
    exact: bool = True
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS
