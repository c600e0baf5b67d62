"""Benchmark for ergocert: end-to-end metrics, or per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fourway --seed 1 --seconds 30 --trace 0

One process runs the items of a workload one after another (a closed loop
with one caller) and repeats the pass while another one fits in
``--seconds``. With ``--trace 0`` it prints the end-to-end metrics:
set-up time, pass time, slowest item and peak memory. With ``--trace 1``
it runs every item twice, untraced and with the layer hooks of
``tracing.py`` installed, and prints per-layer metrics and the tracing
overhead. The last line of standard output is the
result object; the line before it records the machine, the software and a
pure-Python calibration time, which show host drift beside the numbers.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from tracing import ROOT_LAYER  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
CALIBRATION_STEPS = 2_000_000
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS", "ERGOCERT_THREADS")


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_threads():
    """BLAS and OpenMP pools read these once, when numpy loads."""
    threads = str(min(BLAS_THREADS, _nproc()))
    for var in THREAD_VARS:
        os.environ[var] = threads
    return threads


def _calibrate():
    """Seconds for a fixed pure-Python loop: host speed, not a metric."""
    t = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def _run_item(wl, item, failures, tracer=None):
    """Seconds for one item; a failure is recorded in failures."""
    frame = tracer.open(ROOT_LAYER) if tracer is not None else None
    t = time.perf_counter()
    try:
        out = wl.run(item)
        error = None
    except Exception as exc:  # a failing item is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t
        if tracer is not None:
            tracer.close(frame)
    if error is None:
        error = wl.check(item, out)
    if error is not None:
        failures.append(error)
    return elapsed


class Passes:
    """Item times and failures over the passes of one run."""

    def __init__(self):
        self.items = []
        self.failures = []

    @property
    def totals(self):
        return [sum(t) for t in self.items]

    @property
    def attempted(self):
        return sum(len(t) for t in self.items)


def measure(wl, seconds, passes):
    """Untraced passes 0, 1, ... while the next one fits in seconds."""
    start = time.perf_counter()
    k = 0
    while True:
        passes.items.append([_run_item(wl, item, passes.failures)
                             for item in wl.items(k)])
        k += 1
        if (time.perf_counter() - start
                + statistics.median(passes.totals) > seconds):
            return


def measure_traced(wl, seconds, untraced, traced, tracer):
    """Passes in which every item runs untraced and traced back to back.

    Which of the two goes first alternates from item to item, so host
    speed drift, which is large on shared machines, hits both sides alike
    and the overhead share is not swamped by it.
    """
    hooks = tracing.Hooks(tracer)
    start = time.perf_counter()
    k = 0
    while True:
        plain, spanned = [], []
        for i, item in enumerate(wl.items(k)):
            for with_trace in ((False, True), (True, False))[(i + k) % 2]:
                if with_trace:
                    with hooks:
                        spanned.append(_run_item(wl, item, traced.failures,
                                                 tracer))
                else:
                    plain.append(_run_item(wl, item, untraced.failures))
        untraced.items.append(plain)
        traced.items.append(spanned)
        k += 1
        if (time.perf_counter() - start + statistics.median(untraced.totals)
                + statistics.median(traced.totals) > seconds):
            return hooks.missing


def _setup_probe(args):
    """Set-up time of a fresh interpreter running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(setup_s, passes):
    return {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "pass_s": _metric(statistics.median(passes.totals), "s"),
        "slowest_item_s": _metric(
            statistics.median(max(t) for t in passes.items), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def _per_layer(tracer, traced, untraced, missing):
    n = len(traced.items)
    self_s = {layer: tracer.self_s[layer] / n for layer in tracer.self_s}
    calls = {layer: tracer.calls[layer] / n for layer in tracer.calls}
    counts = {key: value / n for key, value in tracer.counts.items()}

    def share(part, whole):
        return part / whole if whole else 0.0

    def s(layer):
        return _metric(self_s.get(layer, 0.0), "s")

    def c(value):
        return _metric(value, "count")

    knapsack = calls.get("worstset.knapsack", 0.0)
    profiles = calls.get("index", 0.0)
    traced_pass = statistics.median(traced.totals)
    untraced_pass = statistics.median(untraced.totals)
    return {
        "worstset.knapsack.calls": c(knapsack),
        "worstset.knapsack.self_s": s("worstset.knapsack"),
        "worstset.knapsack.truncated_share": _metric(
            share(counts.get("knapsack.truncated", 0.0), knapsack), "ratio"),
        "worstset.search.calls": c(calls.get("worstset.search", 0.0)),
        "worstset.search.self_s": s("worstset.search"),
        "index.profiles": c(profiles),
        "index.self_s": s("index"),
        "index.exact_share": _metric(
            share(counts.get("index.exact", 0.0), profiles), "ratio"),
        "solver.projector.calls": c(calls.get("solver.projector", 0.0)),
        "solver.projector.self_s": s("solver.projector"),
        "averages.rows": c(counts.get("averages.rows", 0.0)),
        "averages.self_s": s("averages"),
        "solver.cesaro.calls": c(calls.get("solver.cesaro", 0.0)),
        "solver.cesaro.self_s": s("solver.cesaro"),
        "solver.cesaro.doublings": c(counts.get("cesaro.doublings", 0.0)),
        "solver.cesaro.unconverged": c(
            counts.get("cesaro.unconverged", 0.0)),
        "convergence.decay.self_s": s("convergence.decay"),
        "core.power.calls": c(calls.get("core.power", 0.0)),
        "core.power.self_s": s("core.power"),
        "harnack.self_s": s("harnack"),
        "semigroup.reference.self_s": s("semigroup.reference"),
        "io.self_s": s("io"),
        "pipeline.self_s": s(ROOT_LAYER),
        "trace.pass_s": _metric(traced_pass, "s"),
        "trace.overhead_share": _metric(
            (traced_pass - untraced_pass) / untraced_pass, "ratio"),
        "trace.missing_hooks": c(len(missing)),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="report this interpreter's set-up time only")
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "ergocert" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    threads = _pin_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import ergocert
    if Path(ergocert.__file__).resolve().parent != SRC / "ergocert":
        print(f"perfbench: imported ergocert from {ergocert.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        setup_own = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_own}))
            return 0

        calibration = [_calibrate()]
        untraced = Passes()
        if args.trace == 0:
            setup_s = [setup_own] + [_setup_probe(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
            measure(wl, args.seconds, untraced)
            metrics = _end_to_end(setup_s, untraced)
            runs = [untraced]
        else:
            tracer, traced = tracing.Tracer(), Passes()
            missing = measure_traced(wl, args.seconds, untraced, traced,
                                     tracer)
            metrics = _per_layer(tracer, traced, untraced, missing)
            runs = [untraced, traced]
        calibration.append(_calibrate())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failures = [f for r in runs for f in r.failures]
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": _nproc(), "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(),
        "calibration_s": calibration,
        "pass_s": [r.totals for r in runs],
        "failures": failures[:5],
    }
    print(json.dumps({"context": context}))
    attempted = sum(r.attempted for r in runs)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
