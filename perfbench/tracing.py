"""Per-layer spans for the traced pass, recorded from outside the program.

Each hook replaces one function at the module attribute its callers look
it up by (``ergocert.certificates.almost.knapsack_best`` is the name
``index_profile`` calls) and times every call as a span of its layer. A
call made while a span of the same layer is innermost stays inside that
span instead of opening its own, so recursion and layer-internal helpers
count once. Generator functions are
timed per ``next()``, so lazily produced evidence rows are charged to
their layer and not to whoever consumes them.

A layer's self time is the duration of its spans minus the duration of
the spans opened inside them. The benchmark opens one ``pipeline`` span
around every item, so the self times of all layers add up to the summed
item time of the pass.
"""

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

# (layer, module, attribute). A module imports a function once, so each
# importing module holds its own reference and is hooked on its own.
# ergocert.solver and ergocert.core are hooked for the callers that import
# inside a function body (scenarios.ou_grid, almost.check_partial_
# subinvariance, semigroup.transition_at).
HOOKS = (
    ("worstset.knapsack", "ergocert.certificates.almost", "knapsack_best"),
    ("worstset.search", "ergocert.certificates.almost", "worst_set_search"),
    ("worstset.search", "ergocert.certificates.drift", "worst_set_search"),
    ("index", "ergocert.pipeline", "index_profile"),
    ("solver.projector", "ergocert.certificates.averages",
     "averaging_projector"),
    ("solver.projector", "ergocert.certificates.almost",
     "averaging_projector"),
    ("solver.projector", "ergocert.certificates.drift",
     "averaging_projector"),
    ("solver.projector", "ergocert.convergence", "averaging_projector"),
    ("solver.projector", "ergocert.solver", "averaging_projector"),
    ("solver.projector", "ergocert.solver", "solve_eigen"),
    ("solver.projector", "ergocert.pipeline", "solve_eigen"),
    ("solver.projector", "ergocert.pipeline", "solve_continuous"),
    ("averages", "ergocert.certificates.almost", "power_rows"),
    ("averages", "ergocert.certificates.almost", "mean_rows"),
    ("averages", "ergocert.certificates.almost", "continuous_power_rows"),
    ("averages", "ergocert.certificates.almost", "continuous_mean_rows"),
    ("averages", "ergocert.certificates.almost", "limit_row"),
    ("solver.cesaro", "ergocert.pipeline", "solve_cesaro_adjoint"),
    ("solver.cesaro", "ergocert.harnack", "solve_cesaro_adjoint"),
    ("convergence.decay", "ergocert.pipeline", "decay_report"),
    ("core.power", "ergocert.convergence", "power"),
    ("core.power", "ergocert.core", "power"),
    ("harnack", "ergocert.pipeline", "certify_harnack_pipeline"),
    ("semigroup.reference", "ergocert.pipeline", "auxiliary_measure"),
    ("io", "ergocert.io", "load_document"),
    ("io", "ergocert.io", "save_document"),
    ("io", "ergocert.io", "validate_document"),
    ("io", "ergocert.io", "scenario_from_doc"),
    ("io", "ergocert.io", "certificate_to_doc"),
    ("io", "ergocert.io", "jsonable"),
    ("io", "ergocert.io", "write_series_csv"),
)

ROOT_LAYER = "pipeline"


class Tracer:
    """Span stack plus per-layer self time, call counts and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # frames: [layer, start, time spent in children]

    def open(self, layer):
        """Start a span; returns None when the same layer is innermost."""
        if self._stack and self._stack[-1][0] == layer:
            return None
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame):
        if frame is None:
            return
        duration = time.perf_counter() - frame[1]
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self.self_s[frame[0]] += duration - frame[2]
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def observe(self, layer, result):
        """Counters read off a layer's return value."""
        if layer == "worstset.knapsack":
            self.counts["knapsack.truncated"] += not result.exact
        elif layer == "solver.cesaro":
            self.counts["cesaro.doublings"] += result.iterations
            self.counts["cesaro.unconverged"] += not result.converged
        elif layer == "index":
            self.counts["index.exact"] += bool(result.exact)
        elif layer == "averages" and isinstance(result, list):
            self.counts["averages.rows"] += len(result)
        elif layer == "averages":  # limit_row returns one row
            self.counts["averages.rows"] += 1


def _wrap(tracer, layer, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def rows(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = tracer.open(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(frame)
                tracer.counts["averages.rows"] += 1
                yield item
        return rows

    @functools.wraps(fn)
    def call(*args, **kwargs):
        frame = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if frame is not None:
            tracer.observe(layer, result)
        return result
    return call


class Hooks:
    """Reusable context manager installing every resolvable hook.

    ``missing`` lists the hook names the program no longer defines; the
    benchmark reports their number so a renamed layer function shows up
    as a metric instead of silently reading zero.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.missing = []
        self._saved = []

    def __enter__(self):
        self.missing = []
        for layer, module_name, attr in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, _wrap(self.tracer, layer, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False
