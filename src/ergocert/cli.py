"""Command line front end.

Every subcommand reads JSON documents produced by the io module, runs
one library routine, and prints (or saves) a JSON result. Exit codes:
0 when every requested verdict holds or the computation finished, 2
when a requested certificate fails (the witness is in the printed
report), 1 on usage or file errors. The argument parser is built once
per process, on first use, and each input document is schema-checked
once, when it is loaded. ERGOCERT_THREADS caps the BLAS thread pools
used by the array backend; it must be set before numpy loads, which is
why the environment is patched at the top of this module.
"""

import os

_threads = os.environ.get("ERGOCERT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .core import Kernel, StateFn
from .semigroup import Generator, discrete_resolvent, resolvent
from .solver import (_shared_decompositions, solve_cesaro_adjoint,
                     solve_continuous, solve_eigen)
from .convergence import decay_report
from .scenarios import Scenario, generate, scenario_ids
from .harnack import (PerturbationSpec, certify_harnack_pipeline,
                      certify_perturbation, check_harnack_drift,
                      harnack_constant, harnack_maximizer, perturb)
from .pipeline import (_decay_summary, _index_summary, _invariant_record,
                       _run_checked, _write_decay_csv, _write_index_csv)
from .certificates import almost, drift
from .certificates.phi import (AlmostInvarianceParams, PhiLinear, PhiPower,
                               PhiTable)
from . import io as eio

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the spec for this tool reserves exit code 2 for failed
    # certificates, so bad flags must exit 1 instead of argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._exit1(message))

    def _exit1(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _emit(doc, out=None):
    text = json.dumps(eio.jsonable(doc), indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load_system(args):
    kernel = getattr(args, "kernel", None)
    generator = getattr(args, "generator", None)
    if kernel and generator:
        raise UsageError("give either --kernel or --generator, not both")
    if kernel:
        return eio._load(kernel, "kernel")
    if generator:
        return eio._load(generator, "generator")
    raise UsageError("need --kernel or --generator")


def _load_measure(args, space, required=True):
    path = getattr(args, "measure", None)
    if path is None:
        if required:
            raise UsageError("this command needs --measure")
        return None
    return eio._load(path, "measure", space)


def _state_arg(raw):
    try:
        return int(raw)
    except (TypeError, ValueError):
        return raw


def _phi_from_params(params):
    spec = params.get("phi")
    if spec is None:
        if "c" not in params:
            raise UsageError('params need "c" (linear modulus) or "phi"')
        return PhiLinear(float(params["c"]))
    family = spec.get("family")
    if family == "linear":
        return PhiLinear(float(spec["coef"]))
    if family == "power":
        return PhiPower(float(spec["coef"]), float(spec.get("mult", 1.0)),
                        float(spec.get("p", 2.0)))
    if family == "table":
        return PhiTable(spec["knots_t"], spec["knots_y"])
    raise UsageError(f"unknown modulus family {family!r}")


class _CertifyContext:
    """Lazy access to the inputs a condition checker may request."""

    def __init__(self, args):
        self.args = args
        self.system = _load_system(args)
        path = getattr(args, "params", None)
        self.params = {} if path is None else json.loads(
            Path(path).read_text())

    def kernel(self):
        if not isinstance(self.system, Kernel):
            raise UsageError("this condition needs a kernel, not a generator")
        return self.system

    def measure(self):
        return _load_measure(self.args, self.system.space)

    def fn(self):
        if self.args.lyapunov is None:
            raise UsageError("this condition needs --lyapunov")
        return eio._load(self.args.lyapunov, "statefn", self.system.space)

    def set(self):
        if self.args.set is None:
            raise UsageError("this condition needs --set")
        return eio._load(self.args.set, "stateset", self.system.space)

    def p(self, key):
        if key not in self.params:
            raise UsageError(f'params file needs "{key}"')
        return float(self.params[key])

    def state_fn_param(self, key):
        if key not in self.params:
            raise UsageError(f'params file needs "{key}" (array over states)')
        return StateFn(self.system.space,
                       np.asarray(self.params[key], dtype=float))

    def horizon(self):
        return int(self.params.get("horizon", 256))

    def almost_params(self):
        phi = _phi_from_params(self.params)
        if "delta" not in self.params:
            raise UsageError('params file needs "delta"')
        return AlmostInvarianceParams(phi, float(self.params["delta"]),
                                      horizon=self.horizon(),
                                      n0=int(self.params.get("n0", 1)))


def _certify_perturbation(ctx):
    P = ctx.kernel()
    rho = ctx.params.get("rho")
    if rho is None:
        raise UsageError('params file needs "rho" (scalar or array)')
    values = (np.full(P.space.size, float(rho))
              if np.isscalar(rho) else np.asarray(rho, dtype=float))
    spec = PerturbationSpec(StateFn(P.space, values))
    return certify_perturbation(
        P, ctx.fn(), ctx.p("gamma"), ctx.p("c"), spec, ctx.p("l"),
        ctx.p("eta"), _state_arg(ctx.params.get("z0", 0)),
        ctx.params.get("p", 2.0), ctx.p("r"), horizon=ctx.horizon())


CONDITIONS = {
    "smallness": lambda c: drift.check_smallness(c.kernel(), c.set()),
    "geometric-drift": lambda c: drift.check_geometric_drift(
        c.kernel(), c.fn(), c.p("gamma"), c.p("b"), c.p("r")),
    "localized-drift": lambda c: drift.check_localized_drift(
        c.kernel(), c.fn(), c.p("gamma"), c.p("b"), c.set()),
    "additive-drift": lambda c: drift.check_additive_drift(
        c.kernel(), c.fn(), c.p("b"), c.set()),
    "generalized-drift": lambda c: drift.check_generalized_drift(
        c.kernel(), c.fn(), c.state_fn_param("b_fn"), c.set()),
    "absolute-continuity": lambda c: almost.check_absolute_continuity(
        c.system, c.measure()),
    "almost-invariance": lambda c: almost.check_almost_invariant(
        c.system, c.measure(), c.almost_params()),
    "mean-almost-invariance": lambda c: almost.check_mean_almost_invariant(
        c.system, c.measure(), c.almost_params()),
    "index-below-mass": lambda c: almost.profile_certificate(
        almost.index_profile(c.system, c.measure(), horizon=c.horizon())),
    "harnack-drift": lambda c: check_harnack_drift(
        c.kernel(), c.fn(), c.p("gamma"), c.p("c"), c.set(),
        _state_arg(c.params.get("z0", 0)), c.params.get("p", 2.0)),
    "harnack-pipeline": lambda c: certify_harnack_pipeline(
        c.kernel(), c.fn(), c.set(),
        z0=_state_arg(c.params["z0"]) if "z0" in c.params else None,
        p=float(c.params.get("p", 2.0)), horizon=c.horizon()),
    "perturbation": _certify_perturbation,
}


def _cmd_gen(args):
    params = json.loads(args.params) if args.params else {}
    scenario = Scenario(args.scenario, params, seed=args.seed)
    bundle = generate(scenario)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    written = []

    def save(name, doc):
        eio.save_document(doc, out_dir / name)
        written.append(name)

    save("scenario.json", eio.scenario_to_doc(scenario))
    if isinstance(bundle.kernel, Generator):
        save("generator.json", eio.generator_to_doc(bundle.kernel))
    else:
        save("kernel.json", eio.kernel_to_doc(bundle.kernel))
    if bundle.V is not None:
        save("lyapunov.json", eio.statefn_to_doc(bundle.V))
    if bundle.m is not None:
        save("m.json", eio.measure_to_doc(bundle.m))
    if bundle.C is not None:
        save("C.json", eio.stateset_to_doc(bundle.C))
    for name in written:
        print(out_dir / name)
    return 0


def _cmd_certify(args):
    checker = CONDITIONS.get(args.condition)
    if checker is None:
        known = ", ".join(sorted(CONDITIONS))
        raise UsageError(f"unknown condition {args.condition!r}; "
                         f"known: {known}")
    cert = checker(_CertifyContext(args))
    _emit({"type": "certificate", **eio.certificate_to_doc(cert)}, args.out)
    return 0 if cert.holds else 2


def _cmd_invariant(args):
    system = _load_system(args)
    m = _load_measure(args, system.space, required=False)
    method = args.method
    if isinstance(system, Generator):
        results = list(solve_continuous(system))
    elif method == "auto":
        if m is not None:
            with _shared_decompositions():
                results = [solve_cesaro_adjoint(system, m)]
                results.extend(solve_eigen(system))
        else:
            results = list(solve_eigen(system))
    elif method == "cesaro":
        if m is None:
            raise UsageError("--method cesaro needs --measure")
        results = [solve_cesaro_adjoint(system, m)]
    else:
        results = list(solve_eigen(system))

    _emit({"invariants": [_invariant_record(r) for r in results]}, args.out)
    return 0


def _cmd_index_profile(args):
    system = _load_system(args)
    m = _load_measure(args, system.space)
    prof = almost.index_profile(system, m, horizon=args.horizon)
    cert = almost.profile_certificate(prof)
    summary = _index_summary(prof)
    _emit({"certificate": eio.certificate_to_doc(cert), **summary}, args.out)
    if args.csv:
        _write_index_csv(args.csv, summary)
    return 0 if cert.holds else 2


def _cmd_resolvent(args):
    system = _load_system(args)
    if isinstance(system, Generator):
        R = resolvent(system, args.alpha)
    else:
        R = discrete_resolvent(system)
    _emit(eio.kernel_to_doc(R), args.out)
    return 0


def _cmd_harnack(args):
    P = eio._load(args.kernel, "kernel")
    hc = harnack_constant(P, _state_arg(args.x), _state_arg(args.y), args.p)
    doc = {"M": hc.M, "finite": hc.finite, "p": hc.p,
           "x": P.space.labels[hc.x], "y": P.space.labels[hc.y]}
    if hc.finite:
        doc["maximizer"] = harnack_maximizer(
            P, _state_arg(args.x), _state_arg(args.y), args.p).values
    _emit(doc, args.out)
    return 0


def _cmd_perturb(args):
    P = eio._load(args.kernel, "kernel")
    rho = eio._load(args.rho, "statefn", P.space)
    Q = None
    if args.q:
        Q = eio._load(args.q, "kernel")
    mixed = perturb(P, PerturbationSpec(rho, Q))
    _emit(eio.kernel_to_doc(mixed), args.out)
    return 0


def _cmd_convergence(args):
    P = eio._load(args.kernel, "kernel")
    V = eio._load(args.lyapunov, "statefn", P.space)
    m = _load_measure(args, P.space)
    if args.grid:
        grid = tuple(int(t) for t in args.grid.split(","))
        rep = decay_report(P, m, V, n_grid=grid)
    else:
        rep = decay_report(P, m, V)
    summary = _decay_summary(rep)
    _emit({**summary, "fit_points": rep.fit_points, "note": rep.note},
          args.out)
    if args.csv:
        _write_decay_csv(args.csv, summary)
    return 0 if rep.geometric else 2


def _cmd_pipeline(args):
    config = eio.load_document(args.config, "pipeline-config")
    if args.out:
        config["out"] = args.out
    if args.csv_dir:
        config["csv_dir"] = args.csv_dir
    report = _run_checked(config, Path(args.config).parent)
    if "out" not in config:
        _emit(report.to_doc())
    if report.errors or not report.all_hold:
        return 2
    return 0


@functools.cache
def _build_parser():
    parser = _Parser(prog="ergocert",
                     description="invariant-measure certificates for finite "
                                 "Markov models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        return p

    p = add("gen", _cmd_gen, "write a scenario bundle to a directory")
    p.add_argument("--scenario", required=True, choices=scenario_ids())
    p.add_argument("--params", help="JSON object of builder parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)

    p = add("certify", _cmd_certify, "run one certificate checker")
    p.add_argument("--condition", required=True)
    p.add_argument("--kernel")
    p.add_argument("--generator")
    p.add_argument("--measure")
    p.add_argument("--lyapunov")
    p.add_argument("--set")
    p.add_argument("--params", help="JSON file of condition constants")
    p.add_argument("--out")

    p = add("invariant", _cmd_invariant, "compute invariant measures")
    p.add_argument("--method", choices=("eigen", "cesaro", "auto"),
                   default="auto")
    p.add_argument("--kernel")
    p.add_argument("--generator")
    p.add_argument("--measure")
    p.add_argument("--out")

    p = add("index-profile", _cmd_index_profile,
            "occupation index across cap sizes")
    p.add_argument("--kernel")
    p.add_argument("--generator")
    p.add_argument("--measure", required=True)
    p.add_argument("--horizon", type=int, default=256)
    p.add_argument("--out")
    p.add_argument("--csv")

    p = add("resolvent", _cmd_resolvent,
            "resolvent kernel of a kernel or generator")
    p.add_argument("--kernel")
    p.add_argument("--generator")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="rate parameter, used for generators")
    p.add_argument("--out")

    p = add("harnack", _cmd_harnack, "row-comparison constant for two states")
    p.add_argument("--kernel", required=True)
    p.add_argument("--x", required=True, help="reference state (label or "
                                              "index)")
    p.add_argument("--y", required=True, help="compared state")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out")

    p = add("perturb", _cmd_perturb, "mix a kernel with a companion")
    p.add_argument("--kernel", required=True)
    p.add_argument("--rho", required=True, help="statefn JSON of mixing "
                                                "weights")
    p.add_argument("--q", help="companion kernel JSON, identity when absent")
    p.add_argument("--out")

    p = add("convergence", _cmd_convergence,
            "weighted gap norms and geometric fit")
    p.add_argument("--kernel", required=True)
    p.add_argument("--lyapunov", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--grid", help="comma-separated horizons")
    p.add_argument("--out")
    p.add_argument("--csv")

    p = add("pipeline", _cmd_pipeline, "run a configured multi-stage check")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--csv-dir")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, KeyError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        print(f"ergocert: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
