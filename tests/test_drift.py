"""Drift conditions, row concentration, and occupation bounds."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ergocert.core import Kernel, Measure, StateFn, StateSpace
from ergocert.certificates.phi import AlmostInvarianceParams, PhiLinear
from ergocert.certificates.drift import (
    _suffix_optimal,
    additive_drift_occupation_bound,
    check_additive_drift,
    check_concentration,
    check_dominated_rows,
    check_drift_concentration,
    check_drift_cost_moment,
    check_generalized_drift,
    check_geometric_drift,
    check_localized_drift,
    check_smallness,
    fit_drift_constants,
    generalized_drift_occupation_bound,
    invariant_count_bound,
    mean_row_gap,
    power_row_gap,
)
from ergocert.scenarios import birth_death

S2 = StateSpace.range(2)
TWO_STATE = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
DOEBLIN = Kernel(S2, [[0.5, 0.5], [0.25, 0.75]])
M_INV = Measure(S2, [2 / 3, 1 / 3])
V01 = [0.0, 1.0]

# the accounts used to be summed as m . (S_n g) with S_n g built by the
# right action; they now read (m S_n) . g off the shared chain, which
# agrees to rounding
ACCOUNT_RTOL = 1e-12


def right_means(P, g, N):
    """S_n g for n = 1..N by the right action, shape (N, size)."""
    u = np.array(g, dtype=float)
    acc = np.zeros_like(u)
    out = np.empty((N, u.size))
    for n in range(1, N + 1):
        acc += u
        out[n - 1] = acc / n
        u = P.rows @ u
    return out


def suffix_leakage(account, sign, scale, n0, N):
    """Suffix-optimized 1 + 1/n + sign * scale * account[n - 2]."""
    lo = max(n0, 2)
    ns = np.arange(lo, N + 1)
    return _suffix_optimal(1.0 + 1.0 / ns + sign * scale * account[ns - 2],
                           lo)


def advance_row(P, i, n, mean):
    """Row i of P^n, or of S_n, by the plain loop from the Dirac row."""
    row = np.zeros(P.size)
    row[i] = 1.0
    acc = np.zeros_like(row)
    for _ in range(n):
        acc += row
        row = row @ P.rows
    return acc / n if mean else row


S4 = StateSpace.range(4)
# path kernel: s2 is the only finite-V state that feeds s3
P4 = Kernel(S4, [[0.5, 0.5, 0.0, 0.0],
                 [0.5, 0.0, 0.5, 0.0],
                 [0.0, 0.5, 0.0, 0.5],
                 [0.0, 0.0, 0.5, 0.5]])
V_INF = np.array([0.0, 1.0, 2.0, np.inf])


@pytest.mark.parametrize("check, shift", [
    (lambda V: check_geometric_drift(P4, V, 0.5, 1.0, 3.0), 0.0),
    # localized drift needs V >= 1
    (lambda V: check_localized_drift(P4, V, 0.5, 1.0, [0]), 1.0),
    (lambda V: check_additive_drift(P4, V, 1.0, [0]), 0.0),
    (lambda V: check_generalized_drift(P4, V, [1.0] * 4, [0]), 0.0),
], ids=["geometric", "localized", "additive", "generalized"])
def test_row_feeding_infinite_atom_violates(check, shift):
    cert = check(StateFn(S4, V_INF + shift, extended=True))
    assert not cert.holds
    # the infinite-V state itself is never the witness
    assert cert.witness == {"state": "s2", "violation": np.inf}
    assert cert.constants["max_violation"] == np.inf


class TestSmallness:
    def test_doeblin_pair(self):
        cert = check_smallness(DOEBLIN, [0, 1])
        assert cert.holds
        assert_allclose(cert.constants["alpha"], 0.75)
        assert_allclose(cert.constants["nu"], [1 / 3, 2 / 3])

    def test_identity_has_no_common_mass(self):
        eye = Kernel(S2, np.eye(2))
        cert = check_smallness(eye, [0, 1])
        assert not cert.holds
        assert cert.witness["uncovered_atoms"] == 2

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            check_smallness(DOEBLIN, [])


class TestFitDriftConstants:
    def test_two_state(self):
        gamma, b = fit_drift_constants(TWO_STATE, V01)
        assert_allclose(gamma, 0.8)
        assert_allclose(b, 0.1)

    def test_supplied_gamma_fits_b(self):
        gamma, b = fit_drift_constants(TWO_STATE, V01, gamma=0.5)
        assert gamma == 0.5
        assert_allclose(b, 0.3)

    def test_flat_v_rejected(self):
        with pytest.raises(ValueError, match="vanishes everywhere"):
            fit_drift_constants(TWO_STATE, [0.0, 0.0])

    def test_no_contraction_rejected(self):
        with pytest.raises(ValueError, match="no state contracts"):
            fit_drift_constants(TWO_STATE, [1.0, 1.0])


class TestGeometricDrift:
    def test_two_state_holds(self):
        cert = check_geometric_drift(TWO_STATE, V01, 0.8, 0.1, 1.5)
        assert cert.holds
        assert cert.constants["max_violation"] <= 1e-12
        assert_allclose(cert.constants["alpha"], 0.3)
        assert cert.attached[0].condition == "smallness"

    def test_radius_must_beat_threshold_strictly(self):
        cert = check_geometric_drift(TWO_STATE, V01, 0.8, 0.1, 1.0)
        assert not cert.holds
        assert cert.witness["r"] == 1.0
        assert cert.witness["r_threshold"] >= 1.0

    def test_drift_violation_reports_state(self):
        cert = check_geometric_drift(TWO_STATE, V01, 0.8, 0.0, 1.5)
        assert not cert.holds
        assert cert.witness["state"] == "s0"
        assert_allclose(cert.witness["violation"], 0.1)

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            check_geometric_drift(TWO_STATE, V01, 1.0, 0.1, 1.5)


class TestLocalizedDrift:
    def test_two_state_holds(self):
        cert = check_localized_drift(TWO_STATE, [1.0, 2.0], 0.9, 0.2, [0])
        assert cert.holds
        assert cert.constants["max_violation"] <= 1e-12
        assert cert.constants["alpha"] == 1.0

    def test_empty_set_fails(self):
        cert = check_localized_drift(TWO_STATE, [1.0, 2.0], 0.9, 0.2, [])
        assert not cert.holds
        assert "empty set" in cert.notes


class TestAdditiveDrift:
    def test_birth_death_bundle_constants(self):
        bd = birth_death(100, 0.7)
        assert_allclose(bd.extras["drift_b"], 1.75)
        cert = check_additive_drift(bd.kernel, bd.V, 1.75, bd.C)
        assert cert.holds
        assert cert.constants["max_violation"] <= 1e-12
        assert cert.constants["domination_mass"] == 1.0

    def test_tail_windows(self):
        bd = birth_death(100, 0.7)
        far = np.zeros(100, dtype=bool)
        far[50:] = True
        farther = np.zeros(100, dtype=bool)
        farther[90:] = True
        cert = check_additive_drift(bd.kernel, bd.V, 1.75, bd.C,
                                    tail_sets=(far, farther))
        assert cert.holds
        assert cert.constants["tail_sups"] == [0.0, 0.0]

    def test_tail_windows_must_decrease(self):
        bd = birth_death(10, 0.7)
        a = np.zeros(10, dtype=bool)
        a[5:] = True
        b = np.zeros(10, dtype=bool)
        b[3:] = True
        with pytest.raises(ValueError, match="decreasing"):
            check_additive_drift(bd.kernel, bd.V, 1.75, bd.C,
                                 tail_sets=(a, b))


class TestRowGaps:
    def test_doeblin_one_step_equals_coupling_bound(self):
        # common mass alpha = 0.75; the one-step gap attains 1 - alpha
        gap = power_row_gap(DOEBLIN, 0, 1, 1, 1)
        assert_allclose(gap, 0.25)
        assert gap <= 1.0 - 0.75 + 1e-15

    def test_doeblin_gap_contracts_geometrically(self):
        assert_allclose(power_row_gap(DOEBLIN, 0, 1, 2, 2), 0.0625)
        assert_allclose(power_row_gap(DOEBLIN, 0, 1, 3, 3), 0.25 ** 3)

    def test_mean_gap_washes_out_period(self):
        swap = Kernel(S2, [[0.0, 1.0], [1.0, 0.0]])
        assert power_row_gap(swap, 0, 1, 1, 1) == 1.0
        assert mean_row_gap(swap, 0, 1, 2, 2) == 0.0

    def test_powers_start_at_one(self):
        with pytest.raises(ValueError):
            power_row_gap(DOEBLIN, 0, 1, 0, 1)

    def test_gaps_equal_the_plain_loop(self):
        bd = birth_death(15, 0.6)
        for x, y, n, m_ in ((0, 14, 1, 1), (3, 9, 7, 4), (14, 2, 20, 31)):
            for gap, mean in ((power_row_gap, False), (mean_row_gap, True)):
                rx = advance_row(bd.kernel, x, n, mean)
                ry = advance_row(bd.kernel, y, m_, mean)
                assert gap(bd.kernel, x, y, n, m_) == float(
                    np.clip(ry - rx, 0.0, None).sum())


class TestDominatedRows:
    def test_two_state_holds_and_attaches(self):
        cert = check_dominated_rows(TWO_STATE, M_INV, 1.5,
                                    [0.5, 0.5], [0, 1])
        assert cert.holds
        # account = m(S_n(gamma - 1)) = -mass/2, so the leakage constant
        # is 1/2 + 1/n, minimized at the horizon
        assert_allclose(cert.constants["delta"], 0.5 + 1 / 256)
        assert cert.constants["n0_star"] == 256
        conditions = [a.condition for a in cert.attached]
        assert "mean-almost-invariance" in conditions
        assert all(a.holds for a in cert.attached)

    def test_row_excess_beyond_slack_fails(self):
        cert = check_dominated_rows(TWO_STATE, M_INV, 1.5,
                                    [0.2, 0.2], [0, 1])
        assert not cert.holds
        assert cert.witness["state"] == "s1"
        assert_allclose(cert.witness["gap"], 0.1)

    def test_account_must_be_strictly_negative(self):
        cert = check_dominated_rows(TWO_STATE, M_INV, 1.5,
                                    [1.0, 1.0], [0, 1])
        assert not cert.holds
        assert cert.witness == {"account_max": 0.0}

    def test_negative_l_rejected(self):
        with pytest.raises(ValueError):
            check_dominated_rows(TWO_STATE, M_INV, -1.0, [0.5, 0.5], [0, 1])


class TestConcentration:
    def test_two_state_whole_space(self):
        params = AlmostInvarianceParams(PhiLinear(3.0), 0.0, horizon=96)
        cert = check_concentration(TWO_STATE, M_INV, params, [0, 1])
        assert cert.holds
        # full occupation makes the leakage 1/n, optimal at the horizon
        assert_allclose(cert.constants["delta_tilde"], 1 / 96)
        assert len(cert.attached) == 1
        assert cert.attached[0].holds

    def test_modulus_too_small_fails(self):
        params = AlmostInvarianceParams(PhiLinear(1.0), 0.0, horizon=8)
        cert = check_concentration(TWO_STATE, M_INV, params, [0, 1])
        assert not cert.holds

    def test_delta_range(self):
        params = AlmostInvarianceParams(PhiLinear(1.0), 1.0, horizon=8)
        with pytest.raises(ValueError, match="delta"):
            check_concentration(TWO_STATE, M_INV, params, [0, 1])


class TestGeneralizedDrift:
    def test_birth_death_budget_at_origin(self):
        bd = birth_death(12, 0.7)
        b_vals = np.zeros(12)
        b_vals[0] = 1.75
        cert = check_generalized_drift(bd.kernel, bd.V, b_vals, bd.C)
        assert cert.holds
        assert cert.constants["max_violation"] <= 1e-12
        assert cert.constants["b_on_set_max"] == 1.75

    def test_missing_budget_fails_at_origin(self):
        bd = birth_death(12, 0.7)
        cert = check_generalized_drift(bd.kernel, bd.V, np.zeros(12), bd.C)
        assert not cert.holds
        assert cert.witness["state"] == "s0"


class TestDriftCostMoment:
    def test_profile_and_limit(self):
        cert = check_drift_cost_moment(TWO_STATE, M_INV, V01,
                                       [0.5, 0.0], 0.0)
        assert cert.holds
        assert_allclose(cert.constants["sup"], 1 / 6)
        assert_allclose(cert.constants["limit"], 1 / 9)
        assert len(cert.constants["profile"]) == 256

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            check_drift_cost_moment(TWO_STATE, M_INV, V01, [0.5, 0.0],
                                    0.0, N0=9, N=8)


class TestDriftConcentration:
    def setup_method(self):
        self.bd = birth_death(12, 0.7)
        self.b_vals = np.zeros(12)
        self.b_vals[0] = 1.75

    def test_full_conjunction_attaches_conclusions(self):
        params = AlmostInvarianceParams(PhiLinear(1.2), 0.2, horizon=96)
        cert = check_drift_concentration(self.bd.kernel, self.bd.m,
                                         self.bd.V, self.b_vals, self.bd.C,
                                         params)
        assert cert.holds
        conditions = [a.condition for a in cert.attached]
        assert conditions == ["generalized-drift", "drift-cost-moment",
                              "mean-almost-invariance", "almost-invariance"]
        assert all(a.holds for a in cert.attached)
        assert cert.constants["delta_tilde"] < 1.0

    def test_drift_failure_short_circuits(self):
        params = AlmostInvarianceParams(PhiLinear(1.2), 0.2, horizon=32)
        cert = check_drift_concentration(self.bd.kernel, self.bd.m,
                                         self.bd.V, np.zeros(12), self.bd.C,
                                         params)
        assert not cert.holds
        assert cert.constants["failed"] == "generalized-drift"
        assert len(cert.attached) == 1

    def test_row_failure_keeps_drift_evidence(self):
        params = AlmostInvarianceParams(PhiLinear(0.01), 0.0, horizon=32)
        cert = check_drift_concentration(self.bd.kernel, self.bd.m,
                                         self.bd.V, self.b_vals, self.bd.C,
                                         params)
        assert not cert.holds
        assert cert.constants["failed"] == "row-concentration"
        assert [a.condition for a in cert.attached] == [
            "generalized-drift", "drift-cost-moment"]


class TestOccupationBounds:
    def test_count_bound_value(self):
        assert invariant_count_bound(M_INV, PhiLinear(2.0), 0.5) == 4.0
        with pytest.raises(ValueError):
            invariant_count_bound(M_INV, PhiLinear(2.0), 1.0)

    def test_additive_occupation_floor(self):
        bd = birth_death(100, 0.7)
        out = additive_drift_occupation_bound(bd.kernel, bd.V, 1.75,
                                              bd.C, bd.m)
        assert out["ok"]
        assert out["n0"] == 1
        assert_allclose(out["bound"], out["eps"] / 3.5)
        # stationary start keeps the occupation pinned at m(C)
        assert_allclose(out["values"], out["eps"], rtol=1e-10)
        assert min(out["values"]) >= out["bound"]

    def test_additive_needs_positive_b(self):
        bd = birth_death(10, 0.7)
        with pytest.raises(ValueError):
            additive_drift_occupation_bound(bd.kernel, bd.V, 0.0, bd.C, bd.m)

    def test_generalized_occupation_floor(self):
        bd = birth_death(12, 0.7)
        b_vals = np.zeros(12)
        b_vals[0] = 1.75
        out = generalized_drift_occupation_bound(bd.kernel, bd.V, b_vals,
                                                 bd.C, bd.m)
        assert out["ok"]
        assert all(b > 0 for b in out["bounds"])
        assert all(v >= b - 1e-12 for v, b in zip(out["values"],
                                                  out["bounds"]))


class TestAccountsAgainstRightAction:
    """Each running-mean account within ACCOUNT_RTOL of the right action."""

    def setup_method(self):
        self.bd = birth_death(30, 0.6)
        w = np.random.default_rng(17).random(30) + 0.1
        self.m = Measure(self.bd.kernel.space, w / w.sum())
        self.mask = self.bd.C.mask.astype(float)
        self.b = np.zeros(30)
        self.b[0] = self.bd.extras["drift_b"]

    def test_dominated_rows(self):
        P, m, N = self.bd.kernel, self.m, 200
        gamma = np.full(30, 0.5)
        cert = check_dominated_rows(P, m, 40.0, gamma, self.bd.C, n0=3, N=N)
        assert cert.holds
        vn = right_means(P, self.mask * (gamma - 1.0), N) @ m.weights
        c = cert.constants
        assert_allclose(c["account_max"],
                        max(vn[2:].max(), c["account_limit"]),
                        rtol=ACCOUNT_RTOL, atol=0.0)
        n0_star, delta = suffix_leakage(vn, 1.0, 1.0 / m.mass, 3, N)
        assert c["n0_star"] == n0_star
        assert_allclose(c["delta"], delta, rtol=ACCOUNT_RTOL, atol=0.0)

    def test_concentration(self):
        P, m = self.bd.kernel, self.m
        params = AlmostInvarianceParams(PhiLinear(40.0), 0.0, horizon=150,
                                        n0=2)
        cert = check_concentration(P, m, params, self.bd.C)
        assert cert.holds
        on = right_means(P, self.mask, 150) @ m.weights
        c = cert.constants
        assert_allclose(c["occupation_inf"],
                        min(on[1:].min(), c["occupation_limit"]),
                        rtol=ACCOUNT_RTOL, atol=0.0)
        n0_star, delta = suffix_leakage(on, -1.0, 1.0 / m.mass, 2, 150)
        assert c["n0_star"] == n0_star
        assert_allclose(c["delta_tilde"], delta, rtol=ACCOUNT_RTOL,
                        atol=0.0)

    def test_drift_cost_moment(self):
        P, m, V = self.bd.kernel, self.m, self.bd.V
        cert = check_drift_cost_moment(P, m, V, self.b, 10.0, N0=5, N=120)
        wr = m.weights * (V.values <= 10.0)
        profile = (right_means(P, self.b ** 2, 120) @ wr)[4:]
        assert_allclose(cert.constants["profile"], profile,
                        rtol=ACCOUNT_RTOL, atol=0.0)

    def test_drift_concentration(self):
        P, m = self.bd.kernel, self.m
        params = AlmostInvarianceParams(PhiLinear(40.0), 0.0, horizon=100)
        cert = check_drift_concentration(P, m, self.bd.V, self.b, self.bd.C,
                                         params)
        assert cert.holds
        on = right_means(P, self.mask, 100) @ m.weights
        n0_star, delta = suffix_leakage(on, -1.0, 1.0 / m.mass, 1, 100)
        assert cert.constants["n0_star"] == n0_star
        assert_allclose(cert.constants["delta_tilde"], delta,
                        rtol=ACCOUNT_RTOL, atol=0.0)

    def test_additive_occupation_bound(self):
        P, m = self.bd.kernel, self.m
        out = additive_drift_occupation_bound(P, self.bd.V, self.b[0],
                                              self.bd.C, m, horizon=90)
        N = max(2 * out["n0"], 90)
        on = (right_means(P, self.mask, N) @ m.weights)[2 * out["n0"] - 1:]
        assert_allclose(out["values"], on, rtol=ACCOUNT_RTOL, atol=0.0)

    def test_generalized_occupation_bound(self):
        P, m, V = self.bd.kernel, self.m, self.bd.V
        out = generalized_drift_occupation_bound(P, V, self.b, self.bd.C, m,
                                                 horizon=90)
        n0 = out["n0"]
        N = max(2 * n0, 90)
        wr = m.weights * (V.values <= n0)
        dn = (right_means(P, self.b ** 2, N) @ wr)[2 * n0 - 1:]
        assert_allclose(out["bounds"], out["eps"] ** 2 / (4.0 * dn),
                        rtol=ACCOUNT_RTOL, atol=0.0)
        on = (right_means(P, self.mask, N) @ m.weights)[2 * n0 - 1:]
        assert_allclose(out["values"], on, rtol=ACCOUNT_RTOL, atol=0.0)
