"""Self-test of the benchmark: tiny passes of every workload.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it runs one untraced and one traced pass at tiny sizes
and checks that every metric of BENCHMARK.json comes out by name and unit
with no failed item, that the traced self times of all layers add up to
the traced pass time, that every hook still finds its function, and that
constructive-large never reaches the knapsack. Last, it checks that the
benchmark refuses to run without the program's source. Exits 0 when all
checks pass.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import tracing

SEED = 7


def _check_metrics(metrics, spec, problems, where):
    want = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(want):
        problems.append(f"{where}: metric names {sorted(metrics)} "
                        f"!= {sorted(want)}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), float):
            problems.append(f"{where}: {name} reads {got}, unit {unit}")


def check_workload(name, bench, problems):
    import workloads

    workdir = run.WORK / f"selftest-{name}"
    try:
        wl = workloads.build(name, SEED, workdir, tiny=True)
        plain = run.Passes()
        run.measure(wl, 0.0, plain)
        untraced, traced = run.Passes(), run.Passes()
        tracer = tracing.Tracer()
        missing = run.measure_traced(wl, 0.0, untraced, traced, tracer)
        e2e = run._end_to_end([0.5], plain)  # set-up is not timed here
        layers = run._per_layer(tracer, traced, untraced, missing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _check_metrics(e2e, bench["end_to_end"], problems, name)
    _check_metrics(layers, bench["per_layer"], problems, f"{name} traced")
    failures = plain.failures + untraced.failures + traced.failures
    if failures:
        attempted = plain.attempted + untraced.attempted + traced.attempted
        problems.append(f"{name}: fail_share {len(failures) / attempted}: "
                        f"{failures[:3]}")
    if missing:
        problems.append(f"{name}: hooks without a function {missing}")
    total = sum(v["value"] for k, v in layers.items()
                if k.endswith(".self_s"))
    traced_pass = layers["trace.pass_s"]["value"]
    if abs(total - traced_pass) > 1e-3 * traced_pass + 1e-6:
        problems.append(f"{name}: self times add up to {total}, traced "
                        f"pass_s is {traced_pass}")
    negative = [k for k, v in layers.items()
                if k.endswith(".self_s") and v["value"] < 0.0]
    if negative:
        problems.append(f"{name}: negative self time in {negative}")
    if name == "constructive-large" and \
            layers["worstset.knapsack.calls"]["value"] != 0.0:
        problems.append("constructive-large reached the knapsack")
    print(f"{name}: pass {e2e['pass_s']['value']:.3f} s, traced "
          f"{traced_pass:.3f} s, knapsack calls "
          f"{layers['worstset.knapsack.calls']['value']:g}")


def check_refuses_without_source(problems):
    """In a tree of BENCHMARK.json and perfbench only, exit non-zero."""
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fourway",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append("benchmark ran without the program's source")


def main():
    run._pin_threads()
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    import workloads

    problems = []
    t0 = time.perf_counter()
    names = [w["name"] for w in bench["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names}")
    for name in workloads.WORKLOADS:
        check_workload(name, bench, problems)
    check_refuses_without_source(problems)
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    for p in problems:
        print("FAIL", p)
    print(f"selftest: {'FAILED' if problems else 'ok'} in "
          f"{time.perf_counter() - t0:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
