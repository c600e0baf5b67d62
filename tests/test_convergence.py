"""Weighted-norm decay reports and running-average limits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ergocert import convergence
from ergocert.core import (PANEL, Kernel, Measure, StateFn, StateSpace,
                           _row_spans)
from ergocert.scenarios import birth_death, block_chain, lazy_cycle, ou_grid
from ergocert.semigroup import last_row, mean_rows
from ergocert.solver import solve_eigen
from ergocert.convergence import (
    cesaro_limit_check,
    decay_report,
    weighted_gap_norm,
    weighted_step_norm,
)
from oracles import product_spy

S2 = StateSpace.range(2)
TWO_STATE = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
M_INV = Measure(S2, [2 / 3, 1 / 3])
V0 = [0.0, 0.0]


def random_ergodic(rng, n):
    """Dense chain with its invariant probability, accurate to 1e-15."""
    rows = rng.random((n, n)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    K = Kernel(StateSpace.range(n), rows)
    w = np.ones(n) @ np.linalg.matrix_power(rows, 4096)
    return K, Measure(K.space, w / w.sum())


class TestWeightedGapNorm:
    def test_flat_weight_closed_form(self):
        # two-state chain: second eigenvalue 0.7, so the centered norm
        # is 2 * (1 - min m) * 0.7^n exactly
        for n in (0, 1, 2, 5, 9):
            assert_allclose(weighted_gap_norm(TWO_STATE, M_INV, V0, n),
                            (4 / 3) * 0.7 ** n, rtol=1e-12)

    def test_step_norm_is_submultiplicative_companion(self):
        V = [0.0, 3.0]
        for m_, n in ((1, 1), (2, 3), (4, 4)):
            lhs = weighted_gap_norm(TWO_STATE, M_INV, V, m_ + n)
            rhs = (weighted_gap_norm(TWO_STATE, M_INV, V, m_)
                   * weighted_step_norm(TWO_STATE, V, n))
            assert lhs <= rhs + 1e-12

    def test_markovian_step_norm_flat_weight_is_one(self):
        assert_allclose(weighted_step_norm(TWO_STATE, V0, 5), 1.0)

    def test_non_invariant_reference_rejected(self):
        with pytest.raises(ValueError, match="not invariant"):
            weighted_gap_norm(TWO_STATE, Measure(S2, [0.5, 0.5]), V0, 1)

    def test_reference_must_be_probability(self):
        with pytest.raises(ValueError, match="probability"):
            weighted_gap_norm(TWO_STATE, Measure(S2, [0.6, 0.3]), V0, 1)


@pytest.mark.parametrize("norm", [
    lambda P, m, V: weighted_gap_norm(P, m, V, 4),
    lambda P, m, V: weighted_step_norm(P, V, 4),
    decay_report,
], ids=["gap", "step", "decay"])
def test_infinite_lyapunov_rejected(norm):
    # an infinite weight turns every norm into inf/inf
    bd = birth_death(6, 0.7)
    v = bd.V.values.copy()
    v[5] = np.inf
    with pytest.raises(ValueError, match="V must be finite"):
        norm(bd.kernel, bd.m, StateFn(bd.kernel.space, v, extended=True))


class TestDecayReport:
    def test_two_state_recovers_eigenvalue(self):
        rep = decay_report(TWO_STATE, M_INV, V0)
        assert rep.geometric
        assert rep.envelope_ok
        assert_allclose(rep.fitted_gamma, 0.7, atol=1e-6)
        assert rep.r2 >= 0.95

    def test_doeblin_rate_matches_coupling_bound(self):
        doe = Kernel(S2, [[0.5, 0.5], [0.25, 0.75]])
        rep = decay_report(doe, Measure(S2, [1 / 3, 2 / 3]), V0)
        assert rep.geometric
        # common row mass alpha = 0.75 and the gap is exactly 1 - alpha
        assert rep.fitted_gamma <= 0.25 + 1e-6

    def test_period_two_is_rejected(self):
        swap = Kernel(S2, [[0.0, 1.0], [1.0, 0.0]])
        rep = decay_report(swap, Measure(S2, [0.5, 0.5]), V0)
        assert not rep.geometric
        assert all(b == 1.0 for b in rep.norms)
        assert rep.note == "no geometric decay at this grid"

    def test_floor_horizons_truncated_from_fit(self):
        doe = Kernel(S2, [[0.5, 0.5], [0.25, 0.75]])
        rep = decay_report(doe, Measure(S2, [1 / 3, 2 / 3]),
                           V0, n_grid=(1, 2, 4, 8, 16, 32, 64, 128, 256))
        # 0.25^n underflows the relative floor before n = 256
        assert rep.fit_points < len(rep.ns)
        assert len(rep.norms) == len(rep.ns)

    def test_norms_equal_gap_norm_on_any_grid(self):
        rng = np.random.default_rng(7)
        K, m = random_ergodic(rng, 30)
        V = 5.0 * rng.random(30)
        for grid in ((3, 1, 6, 12, 12, 5),
                     (1, 2, 4, 8, 16, 32, 64, 128, 256),
                     (2, 4, 3, 6, 1, 1, 2, 8, 16, 5, 10)):
            rep = decay_report(K, m, V, n_grid=grid)
            assert rep.ns == grid
            assert rep.norms == tuple(weighted_gap_norm(K, m, V, n)
                                      for n in grid)

    def test_default_grid_builds_one_power(self, monkeypatch):
        calls = []
        real = convergence.power

        def counting(P, n):
            calls.append(n)
            return real(P, n)

        monkeypatch.setattr(convergence, "power", counting)
        K, m = random_ergodic(np.random.default_rng(8), 20)
        decay_report(K, m, np.zeros(20))
        assert len(calls) <= 1

    @pytest.mark.parametrize("case", ["birth_death", "block_chain",
                                      "lazy_cycle", "ou_grid"])
    def test_dense_products_agree(self, case, monkeypatch):
        # the spanned ladder sums each norm over the column hulls of its
        # panels (lazy_cycle: the corner entry makes the last hull full),
        # the dense oracle carries no spans and sums every entry; ou_grid
        # has full rows and takes the dense norm either way
        if case in ("birth_death", "ou_grid"):
            bundle = (birth_death(600, 0.7) if case == "birth_death"
                      else ou_grid(300))
            K, m, V = bundle.kernel, bundle.m, bundle.V
        elif case == "lazy_cycle":
            bundle = lazy_cycle(600)
            K, m, V = bundle.kernel, bundle.m, np.zeros(600)
        else:
            K = block_chain(k=4, block_size=150).kernel
            laws = sum(r.nu.normalized().weights for r in solve_eigen(K))
            m, V = Measure(K.space, laws / 4), np.zeros(600)
        spanned = decay_report(K, m, V)
        products = product_spy(monkeypatch, dense=True)
        dense = decay_report(K, m, V)
        assert products  # the ladder squared through the dense oracle
        assert_allclose(spanned.norms, dense.norms, rtol=1e-12, atol=0.0)

    def test_hull_norm_matches_the_dense_norm(self):
        # zero rows and a zero panel take the hull path's empty hull
        rows = convergence.power(birth_death(600, 0.7).kernel, 8).rows.copy()
        rows[:PANEL] = 0.0
        rows[300] = 0.0
        rng = np.random.default_rng(3)
        w, weight = rng.random(600), 1.0 + rng.random(600)
        spans = _row_spans(rows)
        assert_allclose(convergence._gap_norm(rows, w, weight, spans),
                        convergence._gap_norm(rows, w, weight),
                        rtol=1e-13, atol=0.0)

    def test_grid_must_be_positive(self):
        with pytest.raises(ValueError):
            decay_report(TWO_STATE, M_INV, V0, n_grid=(0, 1))

    def test_random_ergodic_chains_fit_geometric(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 25))
            K, m = random_ergodic(rng, n)
            rep = decay_report(K, m, np.zeros(n))
            assert rep.geometric
            assert rep.fitted_gamma < 1.0
            assert rep.r2 >= 0.95


class TestCesaroLimitCheck:
    ABS3 = Kernel(StateSpace.range(3), [[1.0, 0.0, 0.0],
                                        [0.0, 1.0, 0.0],
                                        [0.3, 0.5, 0.2]])

    def test_absorption_mixture(self):
        nu, residual = cesaro_limit_check(self.ABS3, 2, 400)
        assert_allclose(nu.weights[2], 0.0, atol=1e-2)
        # absorption solves a = 0.3 + 0.2a, so the limit is (0.375, 0.625)
        assert_allclose(nu.weights[0], 0.375, atol=2e-3)
        assert residual <= 2e-3

    def test_residual_decays_like_one_over_n(self):
        _, r50 = cesaro_limit_check(self.ABS3, 2, 50)
        _, r100 = cesaro_limit_check(self.ABS3, 2, 100)
        assert_allclose(r50 / r100, 2.0, rtol=1e-9)

    def test_average_is_the_last_mean_row_after_one_step(self):
        K, _ = random_ergodic(np.random.default_rng(9), 12)
        for x, N in ((0, 1), (4, 7), (11, 60)):
            nu, _ = cesaro_limit_check(K, x, N)
            start = Measure(K.space, K.rows[x])
            assert np.array_equal(nu.weights,
                                  last_row(mean_rows(K, start, N)))
            # the plain loop over P^1 .. P^N from the Dirac row
            row = np.zeros(K.size)
            row[x] = 1.0
            acc = np.zeros(K.size)
            for _ in range(N):
                row = row @ K.rows
                acc += row
            assert np.array_equal(nu.weights, acc / N)

    def test_label_lookup(self):
        nu, _ = cesaro_limit_check(self.ABS3, "s0", 10)
        assert_allclose(nu.weights, [1.0, 0.0, 0.0])

    def test_needs_markovian_kernel(self):
        sub = Kernel(S2, [[0.5, 0.0], [0.0, 0.5]], kind="sub-markovian")
        with pytest.raises(ValueError, match="markovian"):
            cesaro_limit_check(sub, 0, 10)
