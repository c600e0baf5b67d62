"""Row comparison constants, the drift pipeline, and lazy perturbations."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from ergocert import harnack
from ergocert.certificates import drift
from ergocert.core import Kernel, Measure, StateFn, StateSpace
from ergocert.harnack import (
    PerturbationSpec,
    certify_harnack_pipeline,
    certify_perturbation,
    check_harnack_drift,
    diagnose_lazy_atoms,
    harnack_constant,
    harnack_maximizer,
    perturb,
)
from ergocert.scenarios import birth_death

S2 = StateSpace.range(2)
S3 = StateSpace.range(3)
DOEBLIN = Kernel(S2, [[0.5, 0.5], [0.25, 0.75]])
TWO_STATE = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
FLAT = Kernel(S2, [[0.5, 0.5], [0.5, 0.5]])
V01 = [0.0, 1.0]
S4 = StateSpace.range(4)
# path kernel: s2 is the only finite-V state that feeds s3
P4 = Kernel(S4, [[0.5, 0.5, 0.0, 0.0],
                 [0.5, 0.0, 0.5, 0.0],
                 [0.0, 0.5, 0.0, 0.5],
                 [0.0, 0.0, 0.5, 0.5]])
V_INF = StateFn(S4, [0.0, 1.0, 2.0, np.inf], extended=True)


def numeric_row_ratio_max(rx, ry, p):
    """Independent maximization of (ry.f)^p / (rx.f^p) over f = exp(u)."""

    def neg_log_ratio(u):
        f = np.exp(u)
        return -(p * np.log(ry @ f) - np.log(rx @ f ** p))

    def grad(u):
        f = np.exp(u)
        top = ry @ f
        bot = rx @ f ** p
        return -(p * ry * f / top - p * rx * f ** p / bot)

    out = minimize(neg_log_ratio, np.zeros(len(rx)), jac=grad,
                   method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
    return float(np.exp(-out.fun))


class TestHarnackConstant:
    def test_doeblin_pair_closed_form(self):
        hc = harnack_constant(DOEBLIN, 0, 1, 2.0)
        # sum of ry^2 / rx = 0.0625/0.5 + 0.5625/0.5
        assert_allclose(hc.M, 1.25)
        assert hc.finite

    def test_identical_rows_give_one(self):
        assert harnack_constant(DOEBLIN, 1, 1, 2.0).M == 1.0

    def test_support_violation_is_infinite(self):
        hc = harnack_constant(Kernel(S2, np.eye(2)), 0, 1, 2.0)
        assert np.isinf(hc.M)
        assert not hc.finite

    def test_p_must_exceed_one(self):
        with pytest.raises(ValueError):
            harnack_constant(DOEBLIN, 0, 1, 1.0)

    def test_maximizer_attains_constant(self):
        hc = harnack_constant(DOEBLIN, 0, 1, 2.0)
        f = harnack_maximizer(DOEBLIN, 0, 1, 2.0).values
        rx, ry = DOEBLIN.rows[0], DOEBLIN.rows[1]
        attained = (ry @ f) ** 2 / (rx @ f ** 2)
        assert attained >= (1.0 - 1e-9) * hc.M

    def test_sharpness_against_numeric_maximization(self):
        rng = np.random.default_rng(17)
        for p in (1.5, 2.0, 4.0):
            for _ in range(12):
                n = int(rng.integers(2, 7))
                rows = rng.random((2, n)) + 0.05
                rows /= rows.sum(axis=1, keepdims=True)
                K = Kernel(StateSpace.range(n), np.vstack(
                    [rows, np.tile(rows[1], (n - 2, 1))])
                    if n > 2 else rows)
                hc = harnack_constant(K, 0, 1, p)
                numeric = numeric_row_ratio_max(K.rows[0], K.rows[1], p)
                assert_allclose(numeric, hc.M, rtol=1e-6)
                f = harnack_maximizer(K, 0, 1, p).values
                attained = ((K.rows[1] @ f) ** p
                            / (K.rows[0] @ f ** p))
                assert attained >= (1.0 - 1e-9) * hc.M


class TestHarnackDrift:
    def test_doeblin_window(self):
        cert = check_harnack_drift(DOEBLIN, V01, 0.75, 0.5, [0, 1], 0, 2.0)
        assert cert.holds
        assert_allclose(cert.constants["M_star"], 1.25)
        assert cert.constants["drift_gap"] <= 1e-12

    def test_drift_violation_reported(self):
        cert = check_harnack_drift(DOEBLIN, V01, 0.75, 0.0, [0, 1], 0, 2.0)
        assert not cert.holds
        assert cert.witness["state"] == "s0"

    def test_infinite_constant_reported(self):
        eye = Kernel(S2, np.eye(2))
        cert = check_harnack_drift(eye, V01, 0.5, 1.0, [0, 1], 0, 2.0)
        assert not cert.holds
        assert np.isinf(cert.constants["M_star"])


    def test_negative_window_member_rejected(self):
        # -1 is not read as the last state
        with pytest.raises(ValueError, match="out of range"):
            check_harnack_drift(TWO_STATE, V01, 0.9, 5.0, [-1], 0, 2.0)

    def test_nan_lyapunov_values_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            check_harnack_drift(TWO_STATE, [0.0, np.nan], 0.9, 5.0, [0], 0,
                                2.0)


class TestHarnackPipeline:
    def test_two_state_certifies(self):
        cert = certify_harnack_pipeline(TWO_STATE, V01, [0, 1])
        assert cert.holds
        assert_allclose(cert.constants["gamma"], 0.8)
        assert_allclose(cert.constants["c"], 0.1)
        assert_allclose(cert.constants["M_star"], 58 / 9)
        assert cert.constants["invariant_mass"] > 0
        assert cert.constants["invariant_residual"] <= 1e-12
        assert all(a.holds for a in cert.attached)

    def test_no_contraction_is_inconclusive(self):
        up = Kernel(S3, [[0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0],
                         [0.0, 0.0, 1.0]])
        cert = certify_harnack_pipeline(up, [1.0, 2.0, 4.0], [0, 1, 2])
        assert cert.verdict == "inconclusive"
        assert cert.witness == {"state": "s0", "ratio": 2.0}

    def test_disjoint_supports_fail(self):
        bd = birth_death(40, 0.7)
        cert = certify_harnack_pipeline(bd.kernel, bd.V,
                                        np.ones(40, dtype=bool))
        assert not cert.holds
        assert np.isinf(cert.constants["M_star"])
        assert "escapes the support" in cert.notes

    def test_empty_reference_row_fails(self):
        # s0 loses all its mass in one step: its own comparison
        # constant is 0, but the reference row it gives is the zero
        # measure
        P = Kernel(S3, [[0.0, 0.0, 0.0],
                        [0.5, 0.5, 0.0],
                        [0.0, 0.5, 0.5]], kind="sub-markovian")
        cert = certify_harnack_pipeline(P, [0.0, 1.0, 2.0], [0])
        assert cert.verdict == "fails"
        assert cert.witness == {"state": "s0", "row_mass": 0.0}
        assert cert.notes == "reference row carries no mass"
        assert cert.constants["M_star"] == 0.0
        assert [a.condition for a in cert.attached] == ["harnack-drift"]

    def test_default_reference_is_v_minimizer(self):
        cert = certify_harnack_pipeline(TWO_STATE, V01, [0, 1])
        assert cert.constants["z0"] == "s0"

    def test_reference_smoothed_once(self, monkeypatch):
        # the mean conclusion and the averaging solver read one m o R
        calls = []
        for module in (harnack, drift):
            real = module.auxiliary_measure

            def counted(*args, _real=real):
                calls.append(args)
                return _real(*args)
            monkeypatch.setattr(module, "auxiliary_measure", counted)
        bd = birth_death(30, 0.7)
        cert = certify_harnack_pipeline(bd.kernel, bd.V, bd.C)
        assert cert.holds
        conc = cert.attached[1]
        assert [a.condition for a in conc.attached] == ["mean-almost-invariance"]
        assert len(calls) == 1


class TestPerturbationSpec:
    def test_mixture_rows(self):
        spec = PerturbationSpec(StateFn(S2, [0.4, 0.6]))
        assert spec.a == 0.4
        assert spec.b == 0.6
        mixed = perturb(FLAT, spec)
        assert_allclose(mixed.rows, [[0.8, 0.2], [0.3, 0.7]])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            PerturbationSpec(StateFn(S2, [0.0, 0.5]))

    def test_weights_capped_at_one(self):
        with pytest.raises(ValueError, match="exceed one"):
            PerturbationSpec(StateFn(S2, [1.2, 0.5]))

    def test_rho_one_reproduces_p(self):
        spec = PerturbationSpec(StateFn(S2, [1.0, 1.0]))
        assert_allclose(perturb(TWO_STATE, spec).rows, TWO_STATE.rows)


class TestCertifyPerturbation:
    def setup_method(self):
        self.spec = PerturbationSpec(StateFn(S2, [0.4, 0.6]))

    def test_threshold_violation(self):
        cert = certify_perturbation(FLAT, V01, 0.9, 0.5, self.spec,
                                    1.0, 0.0, 0, 2.0, 1.0)
        assert not cert.holds
        assert_allclose(cert.constants["threshold"], 23 / 30)
        assert cert.witness["l"] == 1.0

    def test_identity_mixture_certifies(self):
        cert = certify_perturbation(FLAT, V01, 0.3, 0.5, self.spec,
                                    1.0, 0.0, 0, 2.0, 1.0)
        assert cert.holds
        assert cert.constants["M"] == 1.0
        assert_allclose(cert.constants["composite_coeff"], 0.78)
        assert_allclose(cert.constants["composite_additive"], 0.3)
        assert cert.constants["invariant_residual"] <= 1e-12
        assert cert.attached[0].holds

    def test_large_eta_inflates_additive_term(self):
        cert = certify_perturbation(FLAT, V01, 0.3, 0.5, self.spec,
                                    1.0, 100.0, 0, 2.0, 1.0)
        assert cert.holds
        assert_allclose(cert.constants["composite_additive"], 60.3)

    def test_base_drift_failure(self):
        cert = certify_perturbation(FLAT, V01, 0.3, 0.0, self.spec,
                                    1.0, 0.0, 0, 2.0, 1.0)
        assert not cert.holds
        assert cert.witness == {"state": "s0", "violation": 0.5,
                                "failed": "base-drift"}

    def test_companion_drift_failure(self):
        # the identity companion keeps V, so l = eta = 0 fails where V
        # is largest: V(s7) = 7 / 0.4
        bd = birth_death(8)
        half = PerturbationSpec(StateFn(bd.kernel.space, np.full(8, 0.5)))
        cert = certify_perturbation(bd.kernel, bd.V, 0.9, 2.0, half,
                                    0.0, 0.0, 0, 2.0, 3.0)
        assert cert.verdict == "fails"
        assert cert.witness["state"] == "s7"
        assert cert.witness["failed"] == "companion-drift"
        assert_allclose(cert.witness["violation"], 17.5, rtol=1e-12)
        assert cert.notes == "companion kernel misses the linear domination"

    def test_window_row_escapes_the_reference(self):
        # the window [V <= 3] is {s0, s1}, and s1 steps to s2, which the
        # row of s0 misses
        bd = birth_death(8)
        half = PerturbationSpec(StateFn(bd.kernel.space, np.full(8, 0.5)))
        cert = certify_perturbation(bd.kernel, bd.V, 0.9, 2.0, half,
                                    1.0, 0.0, 0, 2.0, 3.0)
        assert cert.verdict == "fails"
        assert cert.witness == {"state": "s1", "M": float("inf")}
        assert cert.notes == "window row escapes the reference support"
        assert np.isinf(cert.constants["M"])

    def test_markovian_base_with_sub_markovian_companion(self):
        # the mixture of a markovian P and a sub-markovian Q is
        # sub-markovian, so it can be decomposed and certified
        P = Kernel(S3, [[0.5, 0.5, 0.0], [0.3, 0.4, 0.3], [0.0, 0.5, 0.5]])
        Q = Kernel(S3, np.diag([0.5, 0.9, 0.8]), kind="sub-markovian")
        spec = PerturbationSpec(StateFn(S3, [0.5, 0.5, 0.5]), Q)
        assert perturb(P, spec).kind == "sub-markovian"
        cert = certify_perturbation(P, [1.0, 0.0, 1.0], 0.9, 1.0, spec,
                                    0.5, 1.0, 1, 2.0, 2.0, horizon=16)
        assert cert.verdict == "fails"
        assert "window occupation not persistent" in cert.notes

    def test_mixing_bound_must_stay_below_one(self):
        spec = PerturbationSpec(StateFn(S2, [1.0, 0.5]))
        with pytest.raises(ValueError, match="strictly below one"):
            certify_perturbation(FLAT, V01, 0.3, 0.5, spec,
                                 1.0, 0.0, 0, 2.0, 1.0)


class TestInfiniteLyapunov:
    """V = +inf on a truncation boundary, read as the drift module does."""

    def setup_method(self):
        self.half = PerturbationSpec(StateFn(S4, [0.5] * 4))

    def test_perturbation_base_drift_fails_on_infinite_image(self):
        # PV = inf at every finite state; the gap must not vanish into
        # an infinite tolerance
        uniform = Kernel(S4, np.full((4, 4), 0.25))
        cert = certify_perturbation(uniform, V_INF, 0.1, 0.0, self.half,
                                    0.0, 0.0, 0, 2.0, 1.0)
        assert not cert.holds
        assert cert.witness == {"state": "s0", "violation": np.inf,
                                "failed": "base-drift"}

    def test_harnack_drift_names_the_state_feeding_the_atom(self):
        cert = check_harnack_drift(P4, V_INF, 0.9, 1.0, [0, 1], 0, 2.0)
        assert not cert.holds
        assert cert.witness == {"state": "s2", "violation": np.inf}
        assert cert.constants["drift_gap"] == np.inf

    def test_pipeline_witness_is_largest_finite_ratio(self):
        cert = certify_harnack_pipeline(P4, V_INF, [0, 1])
        assert cert.verdict == "inconclusive"
        assert cert.witness == {"state": "s1", "ratio": 1.0}

    def test_companion_with_zero_slope_skips_the_atom(self):
        rows = [[0.5, 0.5, 0.0, 0.0]] * 3 + [[0.0, 0.0, 0.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert = certify_perturbation(Kernel(S4, rows), V_INF, 0.5, 0.5,
                                        self.half, 0.0, 2.0, 0, 2.0, 1.0)
        assert cert.holds
        assert cert.constants["M"] == 1.0


class TestDiagnoseLazyAtoms:
    def test_uniform_laziness_on_swap(self):
        spec = PerturbationSpec(StateFn(S2, [0.5, 0.5]))
        swap = Kernel(S2, [[0.0, 1.0], [1.0, 0.0]])
        out = diagnose_lazy_atoms(swap, spec, C=[0, 1])
        assert out["lower_bound_ok"]
        assert out["tail_sups"] == [1.0, 0.5, 0.0]
        assert out["floor"] == 0.5
        assert out["floor_respected"]
        assert out["one_step_gap_loopless"] == 0.0
        assert out["exact_column_states"] == []

    def test_unreachable_state_matches_lower_bound_exactly(self):
        spec = PerturbationSpec(StateFn(S2, [0.5, 0.5]))
        shift = Kernel(S2, [[0.0, 1.0], [0.0, 1.0]])
        out = diagnose_lazy_atoms(shift, spec, C=[0, 1])
        assert out["exact_column_states"] == ["s0"]
        assert out["exact_identity_gap"] == 0.0

    def test_requires_identity_companion(self):
        spec = PerturbationSpec(StateFn(S2, [0.5, 0.5]),
                                Q=Kernel(S2, [[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="identity"):
            diagnose_lazy_atoms(FLAT, spec, C=[0, 1])

    def test_window_from_sublevel(self):
        spec = PerturbationSpec(StateFn(S2, [0.5, 0.5]))
        out = diagnose_lazy_atoms(TWO_STATE, spec, V=V01, r=0.0)
        assert out["tail_sizes"][0] == 1
