"""End-to-end pipeline runs and the four-way equivalence summary."""

import contextlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ergocert import pipeline, solver
from ergocert.certificates import almost, averages
from ergocert.core import Kernel, Measure, StateFn, StateSpace
from ergocert.pipeline import (
    DEFAULT_STEPS,
    Report,
    four_way_verdicts,
    run_pipeline,
)
from ergocert import io
from ergocert.scenarios import birth_death, generate

S2 = StateSpace.range(2)
ABSORBING_PAIR = Kernel(S2, [[0.0, 1.0], [0.0, 1.0]])
TWO_STATE = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])


def _stochastic(rng, n):
    rows = rng.random((n, n)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def multi_class_kernel(rng, n_transient, block_sizes):
    """Closed irreducible blocks after a leaky transient prefix."""
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


def equivalence_pair(rng, family):
    """One (kernel, reference) pair from the four-way agreement suite.

    family 0: ergodic chain, full-support reference (all verdicts hold)
    family 1: block-cyclic periodic chain, full-support reference
    family 2: transient states plus closed classes, reference carried by
              the classes (support closed under the flow, all hold)
    family 3: same shape but the reference sits on the transient states,
              so every verdict comes out negative
    """
    if family == 0:
        n = int(rng.integers(4, 40))
        K = Kernel(StateSpace.range(n), _stochastic(rng, n))
        w = rng.random(n) + 0.05
    elif family == 1:
        period = int(rng.integers(2, 5))
        sizes = [int(rng.integers(2, 6)) for _ in range(period)]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        n = int(starts[-1])
        rows = np.zeros((n, n))
        for b in range(period):
            c = (b + 1) % period
            block = rng.random((sizes[b], sizes[c])) + 0.05
            block /= block.sum(axis=1, keepdims=True)
            rows[starts[b]:starts[b + 1], starts[c]:starts[c + 1]] = block
        K = Kernel(StateSpace.range(n), rows)
        w = rng.random(n) + 0.05
    else:
        k = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 7)) for _ in range(k)]
        n_t = int(rng.integers(2, 7))
        K = multi_class_kernel(rng, n_t, sizes)
        w = np.zeros(K.size)
        if family == 2:
            w[n_t:] = rng.random(K.size - n_t) + 0.05
        else:
            w[:n_t] = rng.random(n_t) + 0.05
    return K, Measure(K.space, w)


class TestFourWay:
    def test_transient_reference_all_negative(self):
        out = four_way_verdicts(ABSORBING_PAIR, Measure(S2, [1.0, 0.0]))
        assert not out["almost"] and not out["mean"]
        assert not out["index"] and not out["solver"]
        assert out["agree"]
        assert out["delta"] == 1.0
        assert_allclose(out["index_estimate"], 1.0)
        assert out["invariant_mass"] == 0.0

    def test_supported_reference_all_positive(self):
        out = four_way_verdicts(ABSORBING_PAIR, Measure(S2, [0.5, 0.5]))
        assert out["almost"] and out["mean"]
        assert out["index"] and out["solver"]
        assert out["agree"]
        assert out["delta"] == 0.0

    def test_agreement_across_generated_pairs(self):
        # the equivalence is an if-and-only-if under the null-preservation
        # hypothesis, so the suite mixes reference measures whose support
        # is closed under the flow (full support, closed-class support)
        # with all-false transient-support instances
        rng = np.random.default_rng(41)
        for trial in range(24):
            K, m = equivalence_pair(rng, trial % 4)
            out = four_way_verdicts(K, m, horizon=64)
            assert out["agree"], (trial, out)

    def test_partial_support_on_recurrent_class_is_out_of_scope(self):
        # an irreducible chain with m missing recurrent states leaks less
        # than full mass per horizon yet admits no invariant part of m;
        # the summary records the disagreement instead of hiding it
        rng = np.random.default_rng(7)
        n = 12
        rows = rng.random((n, n)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        K = Kernel(StateSpace.range(n), rows)
        w = np.ones(n)
        w[:4] = 0.0
        out = four_way_verdicts(K, Measure(K.space, w), horizon=64)
        assert not out["solver"]
        assert out["almost"]
        assert not out["agree"]


class TestRunPipeline:
    def test_absorbing_pair_dirac_reference(self):
        config = {"type": "pipeline-config",
                  "scenario": {"id": "absorbing_pair"},
                  "m": [1.0, 0.0]}
        rep = run_pipeline(config)
        assert rep.errors == []
        assert not rep.all_hold
        four = rep.profiles["four_way"]
        assert not any((four["almost"], four["mean"], four["index"],
                        four["solver"]))
        assert four["agree"]
        assert rep.profiles["invariant_note"].startswith("no invariant")
        # the constructive solver reports the zero measure, the eigen
        # solver still finds the absorbing point mass
        masses = [inv["mass"] for inv in rep.invariants_found]
        assert masses[0] == 0.0
        assert any(m_ > 0 for m_ in masses[1:])

    def test_absorbing_pair_uniform_reference(self):
        config = {"type": "pipeline-config",
                  "scenario": {"id": "absorbing_pair"},
                  "m": [0.5, 0.5]}
        rep = run_pipeline(config)
        assert rep.errors == []
        four = rep.profiles["four_way"]
        assert four["agree"] and four["almost"]
        nu = rep.invariants_found[0]
        assert_allclose(nu["weights"], [0.0, 1.0], atol=1e-12)
        assert nu["residual"] <= 1e-12

    def test_birth_death_from_start_distribution(self):
        config = {"type": "pipeline-config",
                  "scenario": {"id": "birth_death",
                               "params": {"n": 40, "p_down": 0.7}},
                  "mu": [1.0] + [0.0] * 39,
                  "steps": list(DEFAULT_STEPS) + ["convergence"]}
        rep = run_pipeline(config)
        assert rep.errors == []
        assert rep.all_hold
        assert rep.profiles["reference"] == "resolvent of the supplied start"
        assert rep.profiles["four_way"]["agree"]
        assert rep.profiles["decay"]["geometric"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reference_with_underflowed_atoms_of_its_support(self):
        # 49 atoms of the reachable support underflow to float 0, so the
        # optimal c is infinite; it charges the whole support, and the
        # flow outside it is zero
        config = {"type": "pipeline-config",
                  "scenario": {"id": "birth_death",
                               "params": {"n": 300, "p_down": 0.9}},
                  "mu": [1.0] + [0.0] * 299,
                  "steps": ["auxiliary-measure", "absolute-continuity",
                            "almost-invariance"]}
        rep = run_pipeline(config)
        assert rep.errors == []
        assert rep.all_hold
        assert [c.condition for c in rep.certificates] == [
            "absolute-continuity", "almost-invariance",
            "mean-almost-invariance"]
        assert rep.profiles["optimal_constants"] == {"c": np.inf,
                                                     "delta": 0.0}
        assert rep.profiles["four_way"]["agree"]

    def test_ou_grid_full_program(self):
        config = {"type": "pipeline-config",
                  "scenario": {"id": "ou_grid", "params": {"n": 21}},
                  "steps": list(DEFAULT_STEPS) + ["convergence", "harnack"]}
        rep = run_pipeline(config)
        assert rep.errors == []
        assert rep.all_hold
        harnack = [c for c in rep.certificates
                   if c.condition == "harnack-pipeline"]
        assert len(harnack) == 1
        assert np.isfinite(harnack[0].constants["M_star"])
        assert rep.profiles["decay"]["fitted_gamma"] < 1.0

    def test_unknown_step_recorded_run_continues(self):
        config = {"type": "pipeline-config",
                  "scenario": {"id": "two_state"},
                  "steps": ["absolute-continuity", "no-such-stage",
                            "invariant"]}
        rep = run_pipeline(config)
        assert rep.errors == ["no-such-stage: unknown step"]
        assert len(rep.certificates) == 1
        assert rep.invariants_found

    def test_stage_failure_is_isolated(self):
        # harnack without a lyapunov companion fails; other stages run
        config = {"type": "pipeline-config",
                  "scenario": {"id": "two_state"},
                  "steps": ["absolute-continuity", "harnack", "invariant"]}
        rep = run_pipeline(config)
        assert len(rep.errors) == 1
        assert "lyapunov" in rep.errors[0]
        assert rep.invariants_found
        assert "harnack" in rep.timing

    def test_failing_stage_records_only_its_error(self, monkeypatch):
        # the four-way block fails after the almost-invariance stage has
        # computed its certificates; none of them reaches the report
        def boom(*args):
            raise ArithmeticError("four-way failed")

        monkeypatch.setattr(pipeline, "_four_way", boom)
        rep = run_pipeline({"type": "pipeline-config",
                            "scenario": {"id": "two_state"},
                            "steps": list(DEFAULT_STEPS)})
        assert rep.errors == ["almost-invariance: four-way failed"]
        assert [c.condition for c in rep.certificates] == [
            "absolute-continuity", "index-below-mass"]
        assert sorted(rep.profiles) == ["index", "reference"]
        assert len(rep.invariants_found) == 2
        assert set(rep.timing) == set(DEFAULT_STEPS)

    def test_determinism(self):
        config = {"type": "pipeline-config",
                  "scenario": {"id": "two_state"}}
        a = run_pipeline(config)
        b = run_pipeline(config)
        da, db = a.to_doc(), b.to_doc()
        da.pop("timing")
        db.pop("timing")
        assert json.dumps(da, sort_keys=True) == json.dumps(db,
                                                            sort_keys=True)

    def test_config_requires_source(self):
        rep = Report()
        with pytest.raises(ValueError, match="scenario or inputs"):
            run_pipeline({"type": "pipeline-config"})
        assert rep.errors == []


def _count_calls(monkeypatch, calls, module, name):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


OU_ALL_STAGES = {"type": "pipeline-config",
                 "scenario": {"id": "ou_grid", "params": {"n": 21}},
                 "steps": list(DEFAULT_STEPS) + ["convergence", "harnack"]}
BD_DECOMPOSING_STAGES = {"type": "pipeline-config",
                         "scenario": {"id": "birth_death",
                                      "params": {"n": 30}},
                         "steps": ["invariant", "convergence", "harnack"]}


def _capture_kernels(monkeypatch):
    """The kernels of the scenarios a run generates, in order."""
    kernels = []
    real = pipeline.generate

    def kept(scenario):
        bundle = real(scenario)
        kernels.append(bundle.kernel)
        return bundle

    monkeypatch.setattr(pipeline, "generate", kept)
    return kernels


def _report_without_timing(config) -> str:
    doc = run_pipeline(config).to_doc()
    doc.pop("timing")
    return json.dumps(doc, sort_keys=True)


class TestSharedEvidence:
    def test_four_way_computes_the_projector_once(self, monkeypatch):
        calls = {}
        for module in (averages, almost, solver):
            _count_calls(monkeypatch, calls, module, "averaging_projector")
        K, m = equivalence_pair(np.random.default_rng(3), 0)
        out = four_way_verdicts(K, m, horizon=64)
        assert out["agree"]
        assert calls == {"averaging_projector": 1}

    def test_pipeline_profiles_and_solves_once(self, monkeypatch):
        calls = {}
        for name in ("index_profile", "solve_cesaro_adjoint", "solve_eigen"):
            _count_calls(monkeypatch, calls, pipeline, name)
        config = {"type": "pipeline-config",
                  "scenario": {"id": "birth_death", "params": {"n": 12}},
                  "steps": list(DEFAULT_STEPS) + ["convergence"]}
        rep = run_pipeline(config)
        assert rep.errors == []
        assert calls == {"index_profile": 1, "solve_cesaro_adjoint": 1,
                         "solve_eigen": 1}

    def test_pipeline_four_way_equals_the_standalone_call(self):
        m = [0.2, 0.3, 0.5, 0.0]
        config = {"type": "pipeline-config",
                  "scenario": {"id": "block_chain",
                               "params": {"k": 2, "block_size": 2}},
                  "m": m, "horizon": 64}
        rep = run_pipeline(config)
        assert rep.errors == []
        K = generate(rep.scenario).kernel
        alone = four_way_verdicts(K, Measure(K.space, m), horizon=64)
        assert rep.profiles["four_way"] == alone

    def test_pipeline_decomposes_each_system_once(self, monkeypatch):
        # ou_grid also decomposes while its scenario is generated;
        # each real build runs the strong-component search once
        calls = {}
        _count_calls(monkeypatch, calls, solver, "_strong_components")
        for config in (OU_ALL_STAGES, BD_DECOMPOSING_STAGES):
            calls.clear()
            assert run_pipeline(config).errors == []
            assert calls == {"_strong_components": 1}

    @pytest.mark.parametrize("broken", [None, "_four_way", "Evidence"],
                             ids=["returned", "stage_raised", "run_raised"])
    def test_sharing_ends_with_the_run(self, monkeypatch, broken):
        # a failing _four_way is recorded by its stage; a failing
        # Evidence escapes the run after the scenario was decomposed
        def boom(*args):
            raise RuntimeError("boom")

        if broken is not None:
            monkeypatch.setattr(pipeline, broken, boom)
        kernels = _capture_kernels(monkeypatch)
        calls = {}
        _count_calls(monkeypatch, calls, solver, "_strong_components")
        if broken == "Evidence":
            with pytest.raises(RuntimeError, match="boom"):
                run_pipeline(OU_ALL_STAGES)
        else:
            errors = run_pipeline(OU_ALL_STAGES).errors
            assert errors == ([] if broken is None
                              else ["almost-invariance: boom"])
        [K] = kernels
        calls.clear()
        solver.decompose(K)
        assert calls == {"_strong_components": 1}

    def test_pipeline_scores_each_family_once(self, monkeypatch):
        # the certificates and the four-way block read one worst-row scan
        # of each family under the one linear modulus, one null-mass sup
        # per family and one support check; each scan scores the 256
        # rows of its family and the limit
        calls = {}
        for name in ("_worst_row", "_mass_sup", "_excess_and_set",
                     "check_absolute_continuity"):
            _count_calls(monkeypatch, calls, almost, name)
        config = {"type": "pipeline-config",
                  "scenario": {"id": "birth_death",
                               "params": {"n": 30, "p_down": 0.7}}}
        rep = run_pipeline(config)
        assert rep.errors == []
        assert rep.profiles["four_way"]["agree"]
        # the absolute-continuity stage looks its check up in pipeline,
        # so only the verdicts' support checks count here
        assert calls == {"_worst_row": 2, "_mass_sup": 2,
                         "_excess_and_set": 514,
                         "check_absolute_continuity": 1}

    def test_four_way_verdicts_scans_each_family_once(self, monkeypatch):
        calls = {}
        for name in ("_worst_row", "_mass_sup", "_excess_and_set",
                     "check_absolute_continuity"):
            _count_calls(monkeypatch, calls, almost, name)
        K = birth_death(30).kernel
        out = four_way_verdicts(K, Measure(K.space, np.full(30, 1 / 30)), 64)
        assert out["almost"] and out["mean"] and out["agree"]
        # no scan repeats here; the two verdicts share one support check
        assert calls == {"_worst_row": 2, "_mass_sup": 2,
                         "_excess_and_set": 130,
                         "check_absolute_continuity": 1}

    def test_four_way_verdicts_never_shares(self, monkeypatch):
        calls = {}
        _count_calls(monkeypatch, calls, solver, "_strong_components")
        K, m = equivalence_pair(np.random.default_rng(3), 0)
        four_way_verdicts(K, m, horizon=64)
        four_way_verdicts(K, m, horizon=64)
        assert calls == {"_strong_components": 2}

    def test_shared_decomposition_is_still_verified(self, monkeypatch):
        # the memo hit must run the checks: the zero projector fails them
        with solver._shared_decompositions():
            solver.decompose(TWO_STATE, verify=False)
            monkeypatch.setattr(solver.ErgodicDecomposition, "projector",
                                lambda self: np.zeros((2, 2)))
            with pytest.raises(ArithmeticError,
                               match="projector rows miss mass one"):
                solver.decompose(TWO_STATE)

    @pytest.mark.parametrize("config", [OU_ALL_STAGES, BD_DECOMPOSING_STAGES],
                             ids=["ou_grid", "birth_death"])
    def test_same_report_with_sharing_off(self, monkeypatch, config):
        shared = _report_without_timing(config)
        monkeypatch.setattr(pipeline, "_shared_decompositions",
                            contextlib.nullcontext)
        assert _report_without_timing(config) == shared


class TestEmission:
    def test_report_and_csv_files(self, tmp_path):
        config = {"type": "pipeline-config",
                  "scenario": {"id": "two_state"},
                  "steps": list(DEFAULT_STEPS) + ["convergence"],
                  "out": "report.json",
                  "csv_dir": "series"}
        run_pipeline(config, base_dir=tmp_path)
        doc = io.load_document(tmp_path / "report.json", expect="report")
        assert doc["errors"] == []
        header = (tmp_path / "series" / "index_profile.csv").read_text()
        assert header.startswith("epsilon,crisp,fractional")
        decay = (tmp_path / "series" / "decay.csv").read_text().splitlines()
        assert decay[0] == "n,norm"
        assert len(decay) > 3

    def test_file_config_round_trip(self, tmp_path):
        kernel_doc = io.kernel_to_doc(TWO_STATE)
        io.save_document(kernel_doc, tmp_path / "kernel.json")
        m_doc = io.measure_to_doc(Measure(S2, [2 / 3, 1 / 3]))
        io.save_document(m_doc, tmp_path / "m.json")
        config = {"type": "pipeline-config",
                  "inputs": {"kernel": "kernel.json", "m": "m.json"},
                  "out": "report.json"}
        io.save_document(config, tmp_path / "config.json")
        rep = run_pipeline(tmp_path / "config.json")
        assert rep.errors == []
        assert rep.profiles["reference"] == "supplied directly"
        assert (tmp_path / "report.json").exists()

    def test_infinite_lyapunov_from_file(self, tmp_path):
        bd = birth_death(8, 0.7)
        v = bd.V.values.copy()
        v[7] = np.inf
        io.save_document(io.kernel_to_doc(bd.kernel), tmp_path / "kernel.json")
        io.save_document(
            io.statefn_to_doc(StateFn(bd.kernel.space, v, extended=True)),
            tmp_path / "lyapunov.json")
        config = {"type": "pipeline-config",
                  "inputs": {"kernel": "kernel.json",
                             "lyapunov": "lyapunov.json"},
                  "steps": ["invariant", "convergence", "harnack"],
                  "out": "report.json"}
        run_pipeline(config, base_dir=tmp_path)
        doc = io.load_document(tmp_path / "report.json", expect="report")
        assert doc["errors"] == ["convergence: V must be finite"]
        assert "decay" not in doc["profiles"]
        [harnack] = [c for c in doc["certificates"]
                     if c["condition"] == "harnack-pipeline"]
        # s6 feeds the infinite atom s7
        assert harnack["witness"] == {"state": "s6", "violation": "inf"}
