"""Orchestrated runs: reference measure, certificates, solver, report.

The driving idea is two-step: first build a reference measure the
dynamics respect (a start distribution smoothed through the resolvent),
then ask quantitative questions against that reference — absolute
continuity, almost invariance at the cheapest constants, the small-set
occupation index, and finally the constructive solver. The stages share
what they compute: one run computes the ergodic decomposition of the
system (scenario generation included), each family of evidence rows of
(system, reference, horizon), the score of each family under each
modulus, the index profile, the Cesaro-adjoint solve and the eigen solve
at most once, on first use by any stage. So the almost-invariance
certificates and the four-way block read one worst-row scan per family.
Nothing of it outlives the run. Failures are collected, not fatal.

four_way_verdicts packages the equivalence at the heart of the package:
on a finite model, almost invariance with leakage below one, its mean
variant, the index staying under the total mass, and the solver keeping
a closed class inside the support of the reference are four views of
the same fact and must agree. A pipeline run scores its four-way block
by the same path, from the evidence and results its stages share.
"""

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Kernel, Measure, StateFn, StateSet
from .semigroup import auxiliary_measure
from .solver import (_shared_decompositions, solve_cesaro_adjoint,
                     solve_continuous, solve_eigen)
from .convergence import decay_report
from .scenarios import Scenario, generate
from .harnack import certify_harnack_pipeline
from .certificates.almost import (Evidence, check_absolute_continuity,
                                  check_almost_invariant,
                                  check_mean_almost_invariant,
                                  index_profile, optimal_linear_params,
                                  profile_certificate)
from .certificates.phi import AlmostInvarianceParams, PhiLinear
from . import io as eio

__all__ = ["Report", "four_way_verdicts", "run_pipeline", "DEFAULT_STEPS"]

DEFAULT_STEPS = ("auxiliary-measure", "absolute-continuity",
                 "index-profile", "almost-invariance", "invariant")

_INDEX_COLUMNS = ("epsilon", "crisp", "fractional")
_DECAY_COLUMNS = ("n", "norm")


def _index_summary(prof) -> dict:
    """The index block of a report; ergocert index-profile prints it too."""
    return {
        "epsilons": list(prof.epsilons),
        "crisp": list(prof.crisp),
        "fractional": list(prof.fractional),
        "estimate": prof.index_estimate,
        "threshold": prof.threshold,
        "verdict": prof.verdict,
    }


def _write_index_csv(path, summary: dict) -> None:
    """One CSV row per cap: epsilon, crisp and fractional value."""
    eio.write_series_csv(path, _INDEX_COLUMNS,
                         list(zip(summary["epsilons"], summary["crisp"],
                                  summary["fractional"])))


def _invariant_record(res) -> dict:
    """One solver result in a report; ergocert invariant prints it too."""
    return {"labels": list(res.nu.space.labels), "weights": res.nu.weights,
            "mass": res.nu.mass, "residual": res.residual,
            "method": res.method, "converged": res.converged}


def _decay_summary(rep) -> dict:
    """The decay block of a report; ergocert convergence prints it too."""
    return {"ns": list(rep.ns), "norms": list(rep.norms),
            "fitted_gamma": rep.fitted_gamma, "fitted_C": rep.fitted_C,
            "r2": rep.r2, "geometric": rep.geometric,
            "envelope_ok": rep.envelope_ok}


def _write_decay_csv(path, summary: dict) -> None:
    """One CSV row per horizon: n and the weighted gap norm."""
    eio.write_series_csv(path, _DECAY_COLUMNS,
                         list(zip(summary["ns"], summary["norms"])))


@dataclass
class Report:
    """Everything one pipeline run produced, JSON-able via to_doc."""

    scenario: Scenario | None = None
    certificates: list = field(default_factory=list)
    invariants_found: list = field(default_factory=list)
    profiles: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def to_doc(self) -> dict:
        doc = self._doc()
        eio.validate_document(doc)
        return doc

    def _doc(self) -> dict:
        """to_doc without the schema check, for a caller that checks."""
        return {
            "type": "report",
            "scenario": (None if self.scenario is None
                         else eio.scenario_to_doc(self.scenario)),
            "certificates": [eio.certificate_to_doc(c)
                             for c in self.certificates],
            "invariants_found": eio.jsonable(self.invariants_found),
            "profiles": eio.jsonable(self.profiles),
            "timing": eio.jsonable(self.timing),
            "errors": list(self.errors),
        }

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.certificates)


def four_way_verdicts(P: Kernel, m: Measure, horizon: int = 96) -> dict:
    """The four equivalent existence tests, each as a boolean.

    almost: linear almost invariance at the optimal constants has
    leakage below one. mean: same for running averages. index: the
    small-cap occupation index stays below the total mass. solver: the
    Cesaro-average construction keeps a closed class of P wholly inside
    m.support, a fact of the graph that no mass threshold decides. On a
    finite model these must agree; the dict carries the booleans, the
    numbers behind them, and the agreement flag. A passing leakage whose
    certificate then fails to verify indicates an internal bug and
    raises. Each evidence row is computed once and read by every test.

    P is decomposed once, so the limit row and the solver vote are not
    independent; the tests hold the solver to a plain Cesaro doubling.
    """
    with _shared_decompositions():
        ev = Evidence(P, m, horizon)
        return _four_way(ev, index_profile(ev, m, horizon=horizon),
                         solve_cesaro_adjoint(P, m))


def _four_way(ev: Evidence, prof, res) -> dict:
    """four_way_verdicts from the evidence, the index profile of the same
    (system, reference, horizon) and its Cesaro-adjoint solve."""
    m, horizon = ev.m, ev.horizon
    out = {}
    for mode, delta_key, vote, check, what in (
            ("power", "delta", "almost", check_almost_invariant,
             "optimal constants"),
            ("mean", "mean_delta", "mean", check_mean_almost_invariant,
             "optimal mean constants")):
        opt = optimal_linear_params(ev, m, horizon=horizon, mode=mode)
        out[delta_key] = opt["delta"]
        out[vote] = bool(opt["delta"] < 1.0 - 1e-9)
        if out[vote]:
            params = AlmostInvarianceParams(PhiLinear(opt["c"]),
                                            opt["delta"] + 1e-12,
                                            horizon=horizon)
            if not check(ev, m, params).holds:
                raise ArithmeticError(f"{what} failed verification")

    out["index_estimate"] = prof.index_estimate
    out["threshold"] = prof.threshold
    out["index"] = bool(prof.verdict == "holds")

    out["invariant_mass"] = res.nu.mass
    out["solver"] = bool(res.diagnostics["kept_classes"])

    votes = (out["almost"], out["mean"], out["index"], out["solver"])
    out["agree"] = bool(all(votes) or not any(votes))
    return out


def _normalize_steps(raw):
    steps = []
    for item in raw:
        if isinstance(item, str):
            steps.append((item, {}))
        elif isinstance(item, dict) and "step" in item:
            opts = {k: v for k, v in item.items() if k != "step"}
            steps.append((str(item["step"]), opts))
        else:
            raise ValueError(f"bad step entry {item!r}")
    return steps


def _resolve_inputs(config, base_dir):
    """Returns (scenario|None, system, V, C, m_explicit, mu)."""
    base = Path(base_dir) if base_dir is not None else Path(".")

    def _load(name, expect, *space):
        return eio._load(base / config["inputs"][name], expect, *space)

    scenario = None
    V = C = None
    m_explicit = mu = None
    if "scenario" in config:
        sdoc = dict(config["scenario"])
        sdoc.setdefault("type", "scenario")
        scenario = eio.scenario_from_doc(sdoc)
        bundle = generate(scenario)
        system, V, C = bundle.kernel, bundle.V, bundle.C
    elif "inputs" in config:
        inputs = config["inputs"]
        if "kernel" in inputs:
            system = _load("kernel", "kernel")
        elif "generator" in inputs:
            system = _load("generator", "generator")
        else:
            raise ValueError("inputs need a kernel or a generator file")
        if "lyapunov" in inputs:
            V = _load("lyapunov", "statefn", system.space)
        if "m" in inputs:
            m_explicit = _load("m", "measure", system.space)
        if "mu" in inputs:
            mu = _load("mu", "measure", system.space)
    else:
        raise ValueError("config needs a scenario or inputs")

    if "m" in config and isinstance(config["m"], list):
        m_explicit = Measure(system.space, np.array(config["m"], dtype=float))
    if "mu" in config and isinstance(config["mu"], list):
        mu = Measure(system.space, np.array(config["mu"], dtype=float))
    return scenario, system, V, C, m_explicit, mu


def run_pipeline(config, base_dir=None) -> Report:
    """Execute the configured stages and assemble a Report.

    config is a pipeline-config document (dict) or a path to one.
    Stages: auxiliary-measure, absolute-continuity, index-profile,
    almost-invariance (with the four-way summary on kernels), invariant,
    convergence, harnack. Unknown stages and stage failures land in
    errors; independent stages still run. Emits the report JSON and CSV
    series when out/csv_dir are configured.
    """
    if not isinstance(config, dict):
        path = Path(config)
        config = eio.load_document(path, "pipeline-config")
        if base_dir is None:
            base_dir = path.parent
    else:
        eio.validate_document(config)
    return _run_checked(config, base_dir)


def _run_checked(config: dict, base_dir) -> Report:
    """run_pipeline on a config that has passed its schema check."""
    with _shared_decompositions():
        report = _run_stages(config, base_dir)
    return _emit(report, config, base_dir)


def _run_stages(config, base_dir) -> Report:
    """run_pipeline's inputs and stages, without emission."""
    report = Report()
    scenario, system, V, C, m_explicit, mu = _resolve_inputs(
        config, base_dir)
    report.scenario = scenario
    horizon = int(config.get("horizon", 256))
    steps = _normalize_steps(config.get("steps", DEFAULT_STEPS))
    discrete = isinstance(system, Kernel)

    def timed(name, stage, *args):
        t0 = time.perf_counter()
        try:
            return stage(*args)
        except Exception as exc:
            report.errors.append(f"{name}: {exc}")
            return None
        finally:
            report.timing[name] = time.perf_counter() - t0

    # Each stage computes all of its results before it writes any of them
    # into the report, so a stage that fails records only its error.
    def reference():
        if m_explicit is not None:
            note, m = "supplied directly", m_explicit
        elif mu is None:
            n = system.space.size
            note = "resolvent of the uniform start"
            m = auxiliary_measure(system,
                                  Measure(system.space, np.full(n, 1.0 / n)))
        else:
            note = "resolvent of the supplied start"
            m = auxiliary_measure(system, mu)
        report.profiles["reference"] = note
        return m

    # the reference measure, needed by every other stage
    m_ref = timed("auxiliary-measure", reference)
    if m_ref is None:
        return report

    # shared by the stages, each computed on first use and at most once
    ev = Evidence(system, m_ref, horizon)

    @functools.cache
    def profile():
        return index_profile(ev, m_ref, horizon=horizon)

    @functools.cache
    def cesaro():
        return solve_cesaro_adjoint(system, m_ref)

    @functools.cache
    def eigen():
        return solve_eigen(system)

    def absolute_continuity(opts):
        report.certificates.append(check_absolute_continuity(system, m_ref))

    def index_stage(opts):
        prof = profile()
        cert, summary = profile_certificate(prof), _index_summary(prof)
        report.certificates.append(cert)
        report.profiles["index"] = summary

    def almost_invariance(opts):
        opt = optimal_linear_params(ev, m_ref, horizon=horizon)
        params = AlmostInvarianceParams(
            PhiLinear(opt["c"]), min(opt["delta"] + 1e-12, 1.0),
            horizon=horizon)
        certs = [check_almost_invariant(ev, m_ref, params),
                 check_mean_almost_invariant(ev, m_ref, params)]
        four = _four_way(ev, profile(), cesaro()) if discrete else None
        report.certificates.extend(certs)
        report.profiles["optimal_constants"] = {"c": opt["c"],
                                                "delta": opt["delta"]}
        if discrete:
            report.profiles["four_way"] = four

    def invariant(opts):
        found = ([cesaro(), *eigen()] if discrete
                 else list(solve_continuous(system)))
        report.invariants_found.extend([_invariant_record(res)
                                        for res in found])
        if discrete and not found[0].diagnostics["kept_classes"]:
            report.profiles["invariant_note"] = (
                "no invariant measure absolutely continuous with respect "
                "to the reference")

    def convergence(opts):
        if not discrete:
            raise ValueError("convergence stage needs a kernel")
        candidates = eigen()
        if len(candidates) != 1:
            raise ValueError("needs a unique invariant probability")
        m_inv = candidates[0].nu.normalized()
        v = V if V is not None else StateFn.constant(system.space, 0.0)
        grid = opts.get("grid")
        rep = (decay_report(system, m_inv, v) if grid is None
               else decay_report(system, m_inv, v, n_grid=grid))
        report.profiles["decay"] = _decay_summary(rep)

    def harnack(opts):
        if not discrete:
            raise ValueError("harnack stage needs a kernel")
        if V is None:
            raise ValueError("harnack stage needs a lyapunov companion")
        window = C if C is not None else StateSet.from_mask(
            system.space, V.values <= float(np.median(V.values)))
        report.certificates.append(certify_harnack_pipeline(
            system, V, window, z0=opts.get("z0"),
            p=float(opts.get("p", 2.0)), horizon=horizon))

    stages = {"absolute-continuity": absolute_continuity,
              "index-profile": index_stage,
              "almost-invariance": almost_invariance,
              "invariant": invariant, "convergence": convergence,
              "harnack": harnack}
    for name, opts in steps:
        if name in stages:
            timed(name, stages[name], opts)
        elif name != "auxiliary-measure":
            report.errors.append(f"{name}: unknown step")

    return report


def _emit(report: Report, config, base_dir) -> Report:
    base = Path(base_dir) if base_dir is not None else Path(".")
    if "out" in config:
        eio.save_document(report._doc(), base / config["out"])
    if "csv_dir" in config:
        csv_dir = base / config["csv_dir"]
        csv_dir.mkdir(parents=True, exist_ok=True)
        idx = report.profiles.get("index")
        if idx is not None:
            _write_index_csv(csv_dir / "index_profile.csv", idx)
        decay = report.profiles.get("decay")
        if decay is not None:
            _write_decay_csv(csv_dir / "decay.csv", decay)
    return report
