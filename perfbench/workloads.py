"""Inputs, item runners and output checks for the benchmark workloads.

Every input is generated here from the benchmark seed; the program sees
only the generated kernels, measures and pipeline-config files. An item
is one unit the user waits for: one (kernel, reference) pair through
four_way_verdicts, or one ``ergocert pipeline`` invocation.

fourway keeps its own copy of the acceptance suite's equivalence-pair
families, so edits to the tests cannot change the workload. The sizes of
the full-support family follow a fixed ladder inside the criterion's
4..39 range instead of being drawn. Full-support pairs from about 26
states up end in a knapsack search that hits its 2 M node cap and costs
seconds, smaller ones cost milliseconds, so drawing the sizes let the
number of capped pairs, and with it the pass time, vary 9-19 s from seed
to seed. The ladder skips 21-27 states, where a pair may or may not hit
the cap (0.3-3.5 s), and stops at 30, above which the cost of a capped
pair varies twice as much between seeds (about 15 % against 6 %).
"""

import json
from pathlib import Path

import numpy as np

from ergocert import cli
from ergocert.core import Kernel, Measure, StateSpace
from ergocert.pipeline import DEFAULT_STEPS, four_way_verdicts

FOURWAY_PAIRS = 48
FOURWAY_HORIZON = 64
FULL_SUPPORT_SIZES = (4, 6, 8, 10, 12, 14, 16, 18, 20, 28, 29, 30)

RESIDUAL_TOL = 1e-10
CLOSED_FORM_TOL = 1e-9

# (id, params, convergence, harnack): convergence where the invariant
# probability is unique, harnack where the scenario carries a Lyapunov V.
# Parameters that the closed-form check reads are spelled out at the
# builders' default values, so the check never depends on those defaults.
SCENARIOS = (
    ("two_state", {"p": 0.1, "q": 0.2}, True, False),
    ("absorbing_pair", {}, True, False),
    ("birth_death", {"n": 30, "p_down": 0.7}, True, True),
    ("outward_walk", {"n": 30, "p_out": 0.7}, True, False),
    ("ou_grid", {"n": 21}, True, True),
    ("block_chain", {}, False, False),
    ("lazy_cycle", {"n": 6}, True, False),
    ("ctmc_symmetric", {}, False, False),
)
LARGE = (
    ("ou_grid", {"n": 800}, True, True),
    ("birth_death", {"n": 1200, "p_down": 0.7}, True, True),
    ("birth_death", {"n": 1200, "p_down": 0.55}, True, True),
    ("lazy_cycle", {"n": 600}, True, False),
    ("block_chain", {"k": 4, "block_size": 250}, False, False),
)
LARGE_STEPS = ("auxiliary-measure", "absolute-continuity", "invariant")

# small stand-ins for the self-test: same scenarios and steps, tiny sizes
TINY_PARAMS = {"n": 9, "block_size": 5}
TINY_FULL_SUPPORT_SIZES = (4, 6, 8, 10)


# -- fourway -----------------------------------------------------------

def _stochastic(rng, n):
    rows = rng.random((n, n)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def _multi_class_kernel(rng, n_transient, block_sizes):
    n = n_transient + sum(block_sizes)
    rows = np.zeros((n, n))
    if n_transient:
        rows[:n_transient, :] = _stochastic(rng, n)[:n_transient, :]
    start = n_transient
    for size in block_sizes:
        stop = start + size
        rows[start:stop, start:stop] = _stochastic(rng, size)
        start = stop
    return Kernel(StateSpace.range(n), rows)


def _periodic_kernel(rng, sizes):
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    rows = np.zeros((n, n))
    for b in range(len(sizes)):
        c = (b + 1) % len(sizes)
        block = rng.random((sizes[b], sizes[c])) + 0.05
        block /= block.sum(axis=1, keepdims=True)
        rows[starts[b]:starts[b + 1], starts[c]:starts[c + 1]] = block
    return Kernel(StateSpace.range(n), rows)


def equivalence_pair(rng, family, n=None):
    """(kernel, reference, truth) for one of the four families.

    0 full support on a random kernel of n states, 1 full support on a
    periodic kernel, 2 support on the closed classes, 3 support on the
    transient states only. Only family 3 has no invariant measure
    absolutely continuous with respect to the reference, so all four
    tests must vote ``truth``.
    """
    if family == 0:
        K = Kernel(StateSpace.range(n), _stochastic(rng, n))
        w = rng.random(n) + 0.05
    elif family == 1:
        sizes = [int(rng.integers(2, 6))
                 for _ in range(int(rng.integers(2, 5)))]
        K = _periodic_kernel(rng, sizes)
        w = rng.random(K.size) + 0.05
    else:
        blocks = [int(rng.integers(2, 7))
                  for _ in range(int(rng.integers(1, 4)))]
        n_t = int(rng.integers(2, 7))
        K = _multi_class_kernel(rng, n_t, blocks)
        w = np.zeros(K.size)
        if family == 2:
            w[n_t:] = rng.random(K.size - n_t) + 0.05
        else:
            w[:n_t] = rng.random(n_t) + 0.05
    return K, Measure(K.space, w), family != 3


class Fourway:
    """48 pairs per pass, the families cycling 0..3; every pass draws
    fresh pairs from the seeded stream, so a run averages over more
    instances. Pass k always gets the same pairs for a given seed."""

    def __init__(self, seed, tiny=False):
        self._rng = np.random.default_rng(seed)
        self._sizes = TINY_FULL_SUPPORT_SIZES if tiny else FULL_SUPPORT_SIZES
        self._count = 8 if tiny else FOURWAY_PAIRS
        self._passes = []
        self.items(0)

    def items(self, k):
        while len(self._passes) <= k:
            self._passes.append([
                equivalence_pair(self._rng, i % 4,
                                 self._sizes[(i // 4) % len(self._sizes)])
                for i in range(self._count)])
        return self._passes[k]

    @staticmethod
    def run(item):
        K, m, _ = item
        return four_way_verdicts(K, m, horizon=FOURWAY_HORIZON)

    @staticmethod
    def check(item, out):
        truth = item[2]
        votes = (out["almost"], out["mean"], out["index"], out["solver"])
        if not out["agree"] or any(v != truth for v in votes):
            return f"votes {votes} against truth {truth}"
        return None


# -- pipeline workloads ------------------------------------------------

def closed_form(scenario_id, params):
    """Stationary probability in closed form, or None."""
    if scenario_id == "two_state":
        p, q = params["p"], params["q"]
        return np.array([q, p]) / (p + q)
    if scenario_id == "absorbing_pair":
        return np.array([0.0, 1.0])
    if scenario_id in ("birth_death", "outward_walk"):
        if scenario_id == "birth_death":
            down = params["p_down"]
        else:
            down = 1.0 - params["p_out"]
        # ((1 - down) / down)**k normalized from the largest weight down,
        # so nothing overflows when the walk drifts outward
        logw = np.arange(params["n"]) * np.log((1.0 - down) / down)
        w = np.exp(logw - logw.max())
        return w / w.sum()
    if scenario_id == "lazy_cycle":
        return np.full(params["n"], 1.0 / params["n"])
    if scenario_id == "ctmc_symmetric":
        return np.full(2, 0.5)
    return None


class PipelineRuns:
    """One ``ergocert pipeline`` CLI call per scenario, in process."""

    def __init__(self, table, steps, seed, workdir, tiny=False):
        self._items = []
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        for i, (sid, params, convergence, harnack) in enumerate(table):
            if tiny:
                params = {k: TINY_PARAMS.get(k, v) for k, v in params.items()}
            item_steps = (list(steps) + ["convergence"] * convergence
                          + ["harnack"] * harnack)
            config = {"type": "pipeline-config",
                      "scenario": {"id": sid, "params": params,
                                   "seed": int(seed)},
                      "steps": item_steps}
            path = workdir / f"{i:02d}-{sid}.json"
            path.write_text(json.dumps(config, indent=1))
            self._items.append((sid, params, str(path),
                                str(path.with_suffix(".report.json"))))

    def items(self, k):
        return self._items

    @staticmethod
    def run(item):
        _, _, config, report = item
        return cli.main(["pipeline", "--config", config, "--out", report])

    @staticmethod
    def check(item, code):
        sid, params, _, report_path = item
        if code != 0:
            return f"{sid}: exit code {code}"
        report = json.loads(Path(report_path).read_text())
        if report["errors"]:
            return f"{sid}: stage errors {report['errors']}"
        exact = closed_form(sid, params)
        for inv in report["invariants_found"]:
            if inv["residual"] > RESIDUAL_TOL:
                return f"{sid}: {inv['method']} residual {inv['residual']}"
            if exact is not None:
                if inv["mass"] <= 0.0:
                    return f"{sid}: {inv['method']} found the zero measure"
                w = np.asarray(inv["weights"], dtype=float)
                gap = float(np.abs(w / w.sum() - exact).sum())
                if gap > CLOSED_FORM_TOL:
                    return f"{sid}: {inv['method']} is {gap:.2e} from " \
                           "the closed form"
        return None


def build(name, seed, workdir, tiny=False):
    if name == "fourway":
        return Fourway(seed, tiny)
    if name == "pipeline-scenarios":
        return PipelineRuns(SCENARIOS, DEFAULT_STEPS, seed, workdir, tiny)
    if name == "constructive-large":
        return PipelineRuns(LARGE, LARGE_STEPS, seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fourway", "pipeline-scenarios", "constructive-large")
