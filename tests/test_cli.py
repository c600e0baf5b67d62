"""Exit codes and document flow of the command line front end."""

import collections
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ergocert import cli, solver
from ergocert import io as eio
from ergocert.cli import main
from ergocert.core import Kernel, Measure, StateFn, StateSet, StateSpace
from ergocert.semigroup import Generator
from test_pipeline import _count_calls
from test_scenarios_io import MALFORMED

S2 = StateSpace.range(2)
TWO_STATE = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
DOEBLIN = Kernel(S2, [[0.5, 0.5], [0.25, 0.75]])
FLAT = Kernel(S2, [[0.5, 0.5], [0.5, 0.5]])
SWAP = Kernel(S2, [[0.0, 1.0], [1.0, 0.0]])
ABSORBING = Kernel(S2, [[0.0, 1.0], [0.0, 1.0]])
SYM_GEN = Generator(S2, [[-1.0, 1.0], [1.0, -1.0]])


def write_kernel(path, K):
    eio.save_document(eio.kernel_to_doc(K), path)
    return str(path)


def write_measure(path, weights):
    eio.save_document(eio.measure_to_doc(Measure(S2, weights)), path)
    return str(path)


def write_statefn(path, values):
    eio.save_document(eio.statefn_to_doc(StateFn(S2, values)), path)
    return str(path)


def write_set(path, members):
    eio.save_document(eio.stateset_to_doc(StateSet(S2, members)), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_two_state_bundle(self, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        code, out = run(capsys, ["gen", "--scenario", "two_state",
                                 "--out-dir", str(out_dir)])
        assert code == 0
        printed = out.strip().splitlines()
        assert printed == [str(out_dir / n)
                           for n in ("scenario.json", "kernel.json", "m.json")]
        K = eio.kernel_from_doc(
            eio.load_document(out_dir / "kernel.json", "kernel"))
        m = eio.measure_from_doc(
            eio.load_document(out_dir / "m.json", "measure"), K.space)
        assert_allclose(m.weights @ K.rows, m.weights)

    def test_generator_scenario_writes_generator(self, tmp_path, capsys):
        out_dir = tmp_path / "ctmc"
        code, out = run(capsys, ["gen", "--scenario", "ctmc_symmetric",
                                 "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "generator.json").exists()
        assert not (out_dir / "kernel.json").exists()

    def test_drift_scenario_writes_companions(self, tmp_path, capsys):
        out_dir = tmp_path / "bd"
        code, _ = run(capsys, ["gen", "--scenario", "birth_death",
                               "--params", '{"n": 10}', "--seed", "3",
                               "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("kernel.json", "lyapunov.json", "m.json", "C.json"):
            assert (out_dir / name).exists()

    def test_unknown_scenario_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--scenario", "no_such", "--out-dir",
                  str(tmp_path)])
        assert exc.value.code == 1


class TestCertify:
    def test_holding_condition_exits_zero(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", DOEBLIN)
        sp = write_set(tmp_path / "c.json", [0, 1])
        code, out = run(capsys, ["certify", "--condition", "smallness",
                                 "--kernel", kp, "--set", sp])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "holds"
        assert_allclose(doc["constants"]["alpha"], 0.75)

    def test_failing_condition_exits_two(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", Kernel(S2, np.eye(2)))
        sp = write_set(tmp_path / "c.json", [0, 1])
        code, out = run(capsys, ["certify", "--condition", "smallness",
                                 "--kernel", kp, "--set", sp])
        assert code == 2
        doc = json.loads(out)
        assert doc["witness"]["uncovered_atoms"] == 2

    def test_out_file_is_a_valid_certificate_document(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", TWO_STATE)
        mp = write_measure(tmp_path / "m.json", [2 / 3, 1 / 3])
        params = tmp_path / "params.json"
        params.write_text('{"c": 3.0, "delta": 0.0, "horizon": 64}')
        dest = tmp_path / "cert.json"
        code, out = run(capsys, ["certify", "--condition", "almost-invariance",
                                 "--kernel", kp, "--measure", mp,
                                 "--params", str(params), "--out", str(dest)])
        assert code == 0
        assert out == ""
        doc = eio.load_document(dest, "certificate")
        assert doc["condition"] == "almost-invariance"
        assert doc["verdict"] == "holds"

    def test_perturbation_params_path(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", FLAT)
        vp = write_statefn(tmp_path / "v.json", [0.0, 1.0])
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "rho": [0.4, 0.6], "gamma": 0.3, "c": 0.5,
            "l": 1.0, "eta": 0.0, "z0": 0, "r": 1.0}))
        code, out = run(capsys, ["certify", "--condition", "perturbation",
                                 "--kernel", kp, "--lyapunov", vp,
                                 "--params", str(params)])
        assert code == 0
        doc = json.loads(out)
        assert doc["constants"]["M"] == 1.0
        assert_allclose(doc["constants"]["composite_coeff"], 0.78)

    def test_perturbation_missing_rho(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", FLAT)
        vp = write_statefn(tmp_path / "v.json", [0.0, 1.0])
        params = tmp_path / "params.json"
        params.write_text('{"gamma": 0.3}')
        code = main(["certify", "--condition", "perturbation",
                     "--kernel", kp, "--lyapunov", vp,
                     "--params", str(params)])
        assert code == 1
        assert "rho" in capsys.readouterr().err

    def test_unknown_condition_lists_known_ones(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", TWO_STATE)
        code = main(["certify", "--condition", "no-such", "--kernel", kp])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown condition" in err
        assert "smallness" in err

    def test_measure_required_by_condition(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", TWO_STATE)
        code = main(["certify", "--condition", "almost-invariance",
                     "--kernel", kp])
        assert code == 1
        assert "--measure" in capsys.readouterr().err

    def test_kernel_condition_rejects_generator(self, tmp_path, capsys):
        gp = str(tmp_path / "g.json")
        eio.save_document(eio.generator_to_doc(SYM_GEN), gp)
        sp = write_set(tmp_path / "c.json", [0, 1])
        code = main(["certify", "--condition", "smallness",
                     "--generator", gp, "--set", sp])
        assert code == 1
        assert "needs a kernel" in capsys.readouterr().err

    def test_kernel_and_generator_together_rejected(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", TWO_STATE)
        gp = str(tmp_path / "g.json")
        eio.save_document(eio.generator_to_doc(SYM_GEN), gp)
        sp = write_set(tmp_path / "c.json", [0, 1])
        code = main(["certify", "--condition", "smallness",
                     "--kernel", kp, "--generator", gp, "--set", sp])
        assert code == 1
        assert "not both" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """Bundled scenario files: birth_death (n 10, p_down 0.7) in bd/, with
    V(x) = x / 0.4 and C = {s0}, and ou_grid (n 21) in ou/, with
    V = x^2, the central window as C, and 1 + V as lyapunov1.json."""
    root = tmp_path_factory.mktemp("bundles")
    for name, scenario, params in (("bd", "birth_death",
                                    '{"n": 10, "p_down": 0.7}'),
                                   ("ou", "ou_grid", '{"n": 21}')):
        assert main(["gen", "--scenario", scenario, "--params", params,
                     "--out-dir", str(root / name)]) == 0
    V = eio._load(root / "ou" / "lyapunov.json", "statefn",
                  eio._load(root / "ou" / "kernel.json", "kernel").space)
    eio.save_document(eio.statefn_to_doc(StateFn(V.space, V.values + 1.0)),
                      root / "ou" / "lyapunov1.json")
    return root


# condition: (bundle, files, params, verdict); the bundle's kernel is read
# with every file it names as the flag of the same name
CERTIFY_CASES = {
    "smallness": ("ou", ("set",), {}, "holds"),
    # PV <= V / 2 + 1 and the sub-level set [V <= 5] is minorized
    "geometric-drift": ("ou", ("lyapunov",), {"gamma": 0.5, "b": 1.0,
                                              "r": 5.0}, "holds"),
    "localized-drift": ("ou", ("lyapunov1", "set"), {"gamma": 0.7,
                                                     "b": 2.0}, "holds"),
    # PV = V - 1 off s0 and PV(s0) = V(s0) - 1 + 1.75
    "additive-drift": ("bd", ("lyapunov", "set"), {"b": 1.75}, "holds"),
    "generalized-drift": ("bd", ("lyapunov", "set"),
                          {"b_fn": [1.75] + [0.0] * 9}, "holds"),
    "absolute-continuity": ("bd", ("measure",), {}, "holds"),
    "almost-invariance": ("bd", ("measure",),
                          {"c": 3.0, "delta": 0.0, "horizon": 64}, "holds"),
    "mean-almost-invariance": ("bd", ("measure",),
                               {"c": 3.0, "delta": 0.0, "horizon": 64},
                               "holds"),
    "index-below-mass": ("bd", ("measure",), {"horizon": 64}, "holds"),
    # PV(s8) = 19 > 0.9 V(s8) + 0.5 = 18.5
    "harnack-drift": ("bd", ("lyapunov", "set"),
                      {"gamma": 0.9, "c": 0.5, "z0": 0}, "fails"),
    "harnack-pipeline": ("bd", ("lyapunov", "set"), {"horizon": 64},
                         "holds"),
    "perturbation": ("bd", ("lyapunov",),
                     {"rho": 0.5, "gamma": 0.9, "c": 2.0, "l": 1.0,
                      "eta": 0.0, "z0": 0, "r": 1.0}, "holds"),
}
FLAGS = {"lyapunov": ("--lyapunov", "lyapunov.json"),
         "lyapunov1": ("--lyapunov", "lyapunov1.json"),
         "set": ("--set", "C.json"), "measure": ("--measure", "m.json")}


def certify_argv(root, bundle, files, params, condition):
    argv = ["certify", "--condition", condition,
            "--kernel", str(root / bundle / "kernel.json")]
    for key in files:
        flag, name = FLAGS[key]
        argv += [flag, str(root / bundle / name)]
    path = root / f"{condition}.params.json"
    path.write_text(json.dumps(params))
    return argv + ["--params", str(path)]


class TestCertifyBundles:
    """Every condition of certify on files that gen wrote."""

    def test_every_condition_has_a_case(self):
        assert set(CERTIFY_CASES) == set(cli.CONDITIONS)

    @pytest.mark.parametrize("condition", sorted(CERTIFY_CASES))
    def test_condition(self, condition, bundles, capsys):
        bundle, files, params, verdict = CERTIFY_CASES[condition]
        code, out = run(capsys, certify_argv(bundles, bundle, files, params,
                                             condition))
        doc = json.loads(out)
        assert (code, doc["condition"], doc["verdict"]) == (
            {"holds": 0, "fails": 2}[verdict], condition, verdict)
        if verdict == "fails":
            assert doc["witness"]["state"] == "s8"
            assert_allclose(doc["witness"]["violation"], 0.5, rtol=1e-12)

    @pytest.mark.parametrize("phi", [
        {"family": "linear", "coef": 3.0},
        {"family": "power", "coef": 1.0, "mult": 2.0, "p": 2.0},
        {"family": "table", "knots_t": [0.0, 0.5, 1.0],
         "knots_y": [0.0, 1.0, 1.5]},
    ])
    def test_modulus_family(self, phi, bundles, capsys):
        code, out = run(capsys, certify_argv(
            bundles, "bd", ("measure",), {"phi": phi, "delta": 0.0,
                                          "horizon": 64},
            "almost-invariance"))
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (0, "holds")
        assert doc["constants"]["phi"] == phi

    @pytest.mark.parametrize("condition, files, params, message", [
        ("almost-invariance", ("measure",),
         {"phi": {"family": "cubic"}, "delta": 0.0},
         "unknown modulus family 'cubic'"),
        ("almost-invariance", ("measure",), {"delta": 0.0},
         'params need "c" (linear modulus) or "phi"'),
        ("almost-invariance", ("measure",), {"c": 3.0},
         'params file needs "delta"'),
        ("additive-drift", ("set",), {"b": 1.75},
         "this condition needs --lyapunov"),
        ("additive-drift", ("lyapunov",), {"b": 1.75},
         "this condition needs --set"),
        ("additive-drift", ("lyapunov", "set"), {},
         'params file needs "b"'),
        ("generalized-drift", ("lyapunov", "set"), {},
         'params file needs "b_fn" (array over states)'),
    ])
    def test_usage_error(self, condition, files, params, message, bundles,
                         capsys):
        code = main(certify_argv(bundles, "bd", files, params, condition))
        assert code == 1
        assert capsys.readouterr().err == f"ergocert: error: {message}\n"


class TestInvariant:
    def test_auto_runs_constructive_then_spectral(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", TWO_STATE)
        mp = write_measure(tmp_path / "m.json", [0.5, 0.5])
        code, out = run(capsys, ["invariant", "--kernel", kp,
                                 "--measure", mp])
        assert code == 0
        doc = json.loads(out)
        methods = [r["method"] for r in doc["invariants"]]
        assert methods == ["cesaro-adjoint", "eigen"]
        for r in doc["invariants"]:
            assert_allclose(r["weights"], [2 / 3, 1 / 3], atol=1e-8)
            assert r["converged"]

    def test_auto_decomposes_once(self, tmp_path, capsys, monkeypatch):
        # the constructive and the spectral solve share one decomposition
        bundle = tmp_path / "bd300"
        run(capsys, ["gen", "--scenario", "birth_death", "--params",
                     '{"n": 300, "p_down": 0.7}', "--out-dir", str(bundle)])
        calls = {}
        _count_calls(monkeypatch, calls, solver, "_strong_components")
        code, out = run(capsys, ["invariant",
                                 "--kernel", str(bundle / "kernel.json"),
                                 "--measure", str(bundle / "m.json")])
        assert code == 0
        assert calls == {"_strong_components": 1}
        methods = [r["method"] for r in json.loads(out)["invariants"]]
        assert methods == ["cesaro-adjoint", "eigen"]

    def test_cesaro_without_measure_is_usage_error(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", TWO_STATE)
        code = main(["invariant", "--kernel", kp, "--method", "cesaro"])
        assert code == 1
        assert "needs --measure" in capsys.readouterr().err

    @pytest.mark.parametrize("method, methods", [
        ("eigen", ["eigen"]), ("cesaro", ["cesaro-adjoint"])])
    def test_method_runs_one_solver(self, method, methods, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", TWO_STATE)
        mp = write_measure(tmp_path / "m.json", [0.5, 0.5])
        code, out = run(capsys, ["invariant", "--kernel", kp, "--measure",
                                 mp, "--method", method])
        assert code == 0
        doc = json.loads(out)
        assert [r["method"] for r in doc["invariants"]] == methods
        assert_allclose(doc["invariants"][0]["weights"], [2 / 3, 1 / 3],
                        atol=1e-12)

    def test_generator_input_uses_continuous_solver(self, tmp_path, capsys):
        gp = str(tmp_path / "g.json")
        eio.save_document(eio.generator_to_doc(SYM_GEN), gp)
        code, out = run(capsys, ["invariant", "--generator", gp])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["invariants"]) == 1
        assert_allclose(doc["invariants"][0]["weights"], [0.5, 0.5])

    def test_system_flag_is_required(self, capsys):
        code = main(["invariant"])
        assert code == 1
        assert "need --kernel or --generator" in capsys.readouterr().err


class TestIndexProfile:
    def test_transient_reference_fails_with_full_index(self, tmp_path,
                                                       capsys):
        kp = write_kernel(tmp_path / "k.json", ABSORBING)
        mp = write_measure(tmp_path / "m.json", [1.0, 0.0])
        code, out = run(capsys, ["index-profile", "--kernel", kp,
                                 "--measure", mp])
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "fails"
        assert_allclose(doc["estimate"], 1.0)

    def test_supported_reference_holds_and_writes_csv(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", ABSORBING)
        mp = write_measure(tmp_path / "m.json", [0.5, 0.5])
        csv = tmp_path / "profile.csv"
        code, out = run(capsys, ["index-profile", "--kernel", kp,
                                 "--measure", mp, "--csv", str(csv)])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "holds"
        assert_allclose(doc["estimate"], 0.0, atol=1e-12)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "epsilon,crisp,fractional"
        assert len(lines) == len(doc["epsilons"]) + 1


class TestResolventAndPerturb:
    def test_discrete_resolvent_of_kernel(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", ABSORBING)
        code, out = run(capsys, ["resolvent", "--kernel", kp])
        assert code == 0
        doc = json.loads(out)
        assert_allclose(doc["rows"][0], [0.5, 0.5])
        assert_allclose(doc["rows"][1], [0.0, 1.0])

    def test_generator_resolvent_uses_alpha(self, tmp_path, capsys):
        gp = str(tmp_path / "g.json")
        eio.save_document(eio.generator_to_doc(SYM_GEN), gp)
        code, out = run(capsys, ["resolvent", "--generator", gp,
                                 "--alpha", "2.0"])
        assert code == 0
        rows = np.asarray(json.loads(out)["rows"])
        assert_allclose(rows.sum(axis=1), [1.0, 1.0])
        # alpha/(alpha + 2) stay weight for the symmetric two-state flow
        assert_allclose(rows[0, 0], 0.75)

    def test_pure_mixture_reproduces_kernel(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", TWO_STATE)
        rp = write_statefn(tmp_path / "rho.json", [1.0, 1.0])
        code, out = run(capsys, ["perturb", "--kernel", kp, "--rho", rp])
        assert code == 0
        assert_allclose(json.loads(out)["rows"], TWO_STATE.rows)

    def test_companion_kernel_mixes_rows(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", FLAT)
        rp = write_statefn(tmp_path / "rho.json", [0.4, 0.6])
        qp = write_kernel(tmp_path / "q.json", SWAP)
        code, out = run(capsys, ["perturb", "--kernel", kp, "--rho", rp,
                                 "--q", qp])
        assert code == 0
        rows = np.asarray(json.loads(out)["rows"])
        assert_allclose(rows[0], 0.4 * FLAT.rows[0] + 0.6 * SWAP.rows[0])
        assert_allclose(rows[1], 0.6 * FLAT.rows[1] + 0.4 * SWAP.rows[1])


class TestHarnack:
    def test_constant_and_maximizer(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", DOEBLIN)
        code, out = run(capsys, ["harnack", "--kernel", kp,
                                 "--x", "s0", "--y", "s1"])
        assert code == 0
        doc = json.loads(out)
        assert_allclose(doc["M"], 1.25)
        assert doc["finite"]
        assert doc["x"] == "s0" and doc["y"] == "s1"
        assert len(doc["maximizer"]) == 2

    def test_support_violation_reports_infinite(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", Kernel(S2, np.eye(2)))
        code, out = run(capsys, ["harnack", "--kernel", kp,
                                 "--x", "0", "--y", "1"])
        assert code == 0
        doc = json.loads(out)
        assert not doc["finite"]
        assert doc["M"] == "inf"
        assert "maximizer" not in doc


class TestConvergence:
    def test_geometric_chain_exits_zero(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", TWO_STATE)
        vp = write_statefn(tmp_path / "v.json", [0.0, 0.0])
        mp = write_measure(tmp_path / "m.json", [2 / 3, 1 / 3])
        csv = tmp_path / "decay.csv"
        code, out = run(capsys, ["convergence", "--kernel", kp,
                                 "--lyapunov", vp, "--measure", mp,
                                 "--grid", "1,2,4,8", "--csv", str(csv)])
        assert code == 0
        doc = json.loads(out)
        assert doc["ns"] == [1, 2, 4, 8]
        assert doc["geometric"]
        assert_allclose(doc["fitted_gamma"], 0.7, rtol=1e-6)
        assert csv.read_text().splitlines()[0] == "n,norm"

    def test_periodic_chain_exits_two(self, tmp_path, capsys):
        kp = write_kernel(tmp_path / "k.json", SWAP)
        vp = write_statefn(tmp_path / "v.json", [0.0, 0.0])
        mp = write_measure(tmp_path / "m.json", [0.5, 0.5])
        code, out = run(capsys, ["convergence", "--kernel", kp,
                                 "--lyapunov", vp, "--measure", mp])
        assert code == 2
        assert not json.loads(out)["geometric"]


class TestPipeline:
    def config(self, tmp_path, m):
        path = tmp_path / "config.json"
        eio.save_document({"type": "pipeline-config",
                           "scenario": {"id": "absorbing_pair"},
                           "m": m}, path)
        return str(path)

    def test_all_holding_run_exits_zero(self, tmp_path, capsys):
        code, out = run(capsys, ["pipeline", "--config",
                                 self.config(tmp_path, [0.5, 0.5])])
        assert code == 0
        doc = json.loads(out)
        assert all(c["verdict"] == "holds" for c in doc["certificates"])
        assert doc["profiles"]["four_way"]["agree"]

    def test_failing_verdict_exits_two_and_saves_report(self, tmp_path,
                                                        capsys):
        dest = tmp_path / "report.json"
        code, out = run(capsys, ["pipeline", "--config",
                                 self.config(tmp_path, [1.0, 0.0]),
                                 "--out", str(dest)])
        assert code == 2
        assert out == ""
        doc = eio.load_document(dest, "report")
        assert any(c["verdict"] != "holds" for c in doc["certificates"])

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["pipeline", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestOneParser:
    def gen(self, tmp_path):
        return main(["gen", "--scenario", "two_state",
                     "--out-dir", str(tmp_path / "b")])

    def test_two_calls_build_one_parser(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        assert self.gen(tmp_path) == 0
        assert self.gen(tmp_path) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_options_do_not_reach_the_next_call(self, tmp_path, capsys):
        config = TestPipeline().config(tmp_path, [0.5, 0.5])
        dest, csv_dir = tmp_path / "report.json", tmp_path / "csv"
        code, out = run(capsys, ["pipeline", "--config", config,
                                 "--out", str(dest),
                                 "--csv-dir", str(csv_dir)])
        assert (code, out) == (0, "")
        assert dest.exists() and (csv_dir / "index_profile.csv").exists()
        dest.unlink()
        shutil.rmtree(csv_dir)
        code, out = run(capsys, ["pipeline", "--config", config])
        assert code == 0
        assert json.loads(out)["type"] == "report"
        assert not dest.exists() and not csv_dir.exists()

    def test_usage_error_after_a_successful_call(self, tmp_path, capsys):
        def usage_error():
            with pytest.raises(SystemExit) as exc:
                main(["invariant", "--bogus", "x"])
            return exc.value.code, capsys.readouterr().err

        cli._build_parser.cache_clear()
        first = usage_error()
        assert self.gen(tmp_path) == 0
        capsys.readouterr()
        assert usage_error() == first
        assert first[0] == 1
        assert first[1].endswith(
            "ergocert: error: unrecognized arguments: --bogus x\n")


class TestOneCheckPerDocument:
    @pytest.fixture
    def checks(self, monkeypatch):
        tags = collections.Counter()
        real = eio._check

        def spy(doc, tag):
            tags[tag] += 1
            return real(doc, tag)

        monkeypatch.setattr(eio, "_check", spy)
        return tags

    @staticmethod
    def certificates(docs):
        return sum(1 + TestOneCheckPerDocument.certificates(d["attached"])
                   for d in docs)

    def test_pipeline_from_a_scenario(self, tmp_path, capsys, checks):
        config, dest = tmp_path / "config.json", tmp_path / "report.json"
        config.write_text(json.dumps(
            {"type": "pipeline-config",
             "scenario": {"id": "ou_grid", "params": {"n": 21}},
             "steps": ["auxiliary-measure", "absolute-continuity",
                       "index-profile", "almost-invariance", "invariant",
                       "convergence", "harnack"]}))
        main(["pipeline", "--config", str(config), "--out", str(dest)])
        report = json.loads(dest.read_text())
        assert not report["errors"]
        certificates = self.certificates(report["certificates"])
        assert certificates > len(report["certificates"])
        assert checks == {"pipeline-config": 1, "scenario": 1, "report": 1,
                          "certificate": certificates}

    def test_pipeline_from_files(self, tmp_path, capsys, checks):
        K = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
        (tmp_path / "k.json").write_text(json.dumps(eio.kernel_to_doc(K)))
        (tmp_path / "m.json").write_text(json.dumps(
            eio.measure_to_doc(Measure(S2, [0.5, 0.5]))))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"type": "pipeline-config",
             "inputs": {"kernel": "k.json", "m": "m.json"}}))
        code, out = run(capsys, ["pipeline", "--config", str(config)])
        assert code == 0
        report = json.loads(out)
        assert checks == {"pipeline-config": 1, "kernel": 1, "measure": 1,
                          "report": 1, "certificate": self.certificates(
                              report["certificates"])}

    def test_invariant_from_files(self, tmp_path, capsys, checks):
        kp = tmp_path / "k.json"
        mp = tmp_path / "m.json"
        kp.write_text(json.dumps(eio.kernel_to_doc(TWO_STATE)))
        mp.write_text(json.dumps(
            eio.measure_to_doc(Measure(S2, [0.5, 0.5]))))
        code, _ = run(capsys, ["invariant", "--kernel", str(kp),
                               "--measure", str(mp)])
        assert code == 0
        assert checks == {"kernel": 1, "measure": 1}


class TestMalformedInputFiles:
    LOADERS = {eio.kernel_from_doc: "kernel",
               eio.generator_from_doc: "generator",
               eio.measure_from_doc: "measure",
               eio.statefn_from_doc: "statefn"}

    @pytest.mark.parametrize("case", MALFORMED)
    def test_message(self, case, tmp_path, capsys):
        doc, load, message = MALFORMED[case]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        path = str(path)
        kp = str(tmp_path / "ab.json")
        eio.save_document(eio.kernel_to_doc(Kernel(
            StateSpace(["a", "b"]), np.eye(2))), kp)
        argv = {"kernel": ["invariant", "--kernel", path],
                "generator": ["invariant", "--generator", path],
                "measure": ["invariant", "--kernel", kp, "--measure", path],
                "statefn": ["perturb", "--kernel", kp, "--rho", path],
                }[self.LOADERS[load]]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"ergocert: error: {message}\n"


class TestUsageAndEnvironment:
    def test_no_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one_not_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["invariant", "--bogus", "x"])
        assert exc.value.code == 1

    def test_broken_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "k.json"
        bad.write_text("{not json")
        code = main(["invariant", "--kernel", str(bad)])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_document_type_mismatch_exits_one(self, tmp_path, capsys):
        mp = write_measure(tmp_path / "m.json", [0.5, 0.5])
        code = main(["invariant", "--kernel", mp])
        assert code == 1

    def test_threads_env_caps_blas_pools(self):
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS")}
        env["ERGOCERT_THREADS"] = "3"
        probe = ("import ergocert.cli, os; "
                 "print(os.environ['OMP_NUM_THREADS'], "
                 "os.environ['MKL_NUM_THREADS'])")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["3", "3"]

    def test_module_entry_point_runs(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "ergocert.cli", "gen",
             "--scenario", "two_state", "--out-dir", str(tmp_path / "b")],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert (tmp_path / "b" / "kernel.json").exists()

    def test_package_runs_as_a_module(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-m", "ergocert", "gen",
             "--scenario", "two_state", "--out-dir", str(tmp_path / "b")],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "b" / "kernel.json").exists()
