"""Kernel algebra: frozen examples and structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ergocert import core
from ergocert.core import (
    PANEL,
    AbsoluteContinuityError,
    Kernel,
    Measure,
    SpaceMismatchError,
    StateFn,
    StateSet,
    StateSpace,
    adjoint,
    apply,
    cesaro,
    identity,
    matmul,
    power,
    push,
)
from ergocert.convergence import DEFAULT_GRID, decay_report
from ergocert.scenarios import birth_death, block_chain, lazy_cycle, ou_grid
from ergocert.solver import solve_cesaro_adjoint
from oracles import product_spy

S2 = StateSpace.range(2)


def kernel2(rows, **kw):
    return Kernel(S2, rows, **kw)


class TestConstruction:
    def test_markovian_rowsum_reject(self):
        with pytest.raises(ValueError, match="sums to"):
            kernel2([[0.9, 0.2], [0.2, 0.8]])

    def test_markovian_rowsum_renormalize(self):
        K = kernel2([[0.9, 0.3], [0.2, 0.8]], on_rowsum="renormalize")
        assert_allclose(K.rows.sum(axis=1), [1.0, 1.0], atol=1e-15)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            kernel2([[1.1, -0.1], [0.2, 0.8]])

    def test_tiny_negative_clipped(self):
        K = kernel2([[1.0 + 1e-13, -1e-13], [0.2, 0.8]])
        assert K.rows[0, 1] == 0.0

    def test_sub_markovian_allows_deficit(self):
        K = kernel2([[0.5, 0.2], [0.0, 0.0]], kind="sub-markovian")
        assert K.kind == "sub-markovian"

    def test_sub_markovian_excess_rejected(self):
        with pytest.raises(ValueError, match="> 1"):
            kernel2([[0.9, 0.2], [0.2, 0.8]], kind="sub-markovian")

    def test_rows_are_frozen(self):
        K = kernel2([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError):
            K.rows[0, 0] = 0.5

    def test_measure_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Measure(S2, [0.5, -0.5])

    def test_statefn_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            StateFn(S2, [0.0, np.nan])

    def test_statefn_inf_needs_flag(self):
        with pytest.raises(ValueError, match="extended"):
            StateFn(S2, [0.0, np.inf])
        f = StateFn(S2, [0.0, np.inf], extended=True)
        assert f.extended


class TestOperations:
    K = kernel2([[0.9, 0.1], [0.2, 0.8]])

    def test_apply_frozen_example(self):
        f = StateFn(S2, [0.0, 1.0])
        assert_allclose(apply(self.K, f).values, [0.1, 0.8], atol=1e-15)

    def test_push_frozen_example(self):
        m = Measure(S2, [0.5, 0.5])
        assert_allclose(push(m, self.K).weights, [0.55, 0.45], atol=1e-15)

    def test_power_two_by_hand(self):
        # row 0: (0.81 + 0.02, 0.09 + 0.08), row 1: (0.18 + 0.16, 0.02 + 0.64)
        assert_allclose(power(self.K, 2).rows,
                        [[0.83, 0.17], [0.34, 0.66]], atol=1e-15)

    def test_power_zero_is_identity(self):
        assert_allclose(power(self.K, 0).rows, np.eye(2), atol=0)

    def test_power_matches_repeated_matmul(self):
        direct = self.K
        for _ in range(6):
            direct = matmul(direct, self.K)
        assert_allclose(power(self.K, 7).rows, direct.rows, atol=1e-14)

    def test_cesaro_absorbing_example(self):
        K = kernel2([[0.0, 1.0], [0.0, 1.0]])
        S4 = cesaro(K, 4)
        assert_allclose(S4.rows, [[0.25, 0.75], [0.0, 1.0]], atol=1e-15)

    def test_cesaro_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        raw = rng.random((5, 5))
        K = Kernel(StateSpace.range(5), raw / raw.sum(1, keepdims=True),
                   on_rowsum="renormalize")
        for n in (1, 2, 3, 9, 37):
            acc = np.zeros((5, 5))
            pk = np.eye(5)
            for _ in range(n):
                acc += pk
                pk = pk @ K.rows
            assert_allclose(cesaro(K, n).rows, acc / n, atol=1e-13)

    def test_apply_extended_inf_convention(self):
        # no mass on the infinite atom: result stays finite
        K = kernel2([[1.0, 0.0], [0.5, 0.5]])
        V = StateFn(S2, [2.0, np.inf], extended=True)
        out = apply(K, V)
        assert out.values[0] == 2.0
        assert np.isinf(out.values[1])

    def test_space_mismatch(self):
        other = Measure(StateSpace.range(3), [1, 0, 0])
        with pytest.raises(SpaceMismatchError):
            push(other, self.K)


class TestAdjoint:
    def test_invariant_measure_example(self):
        K = kernel2([[0.5, 0.5], [1.0, 0.0]])
        m = Measure(S2, [2 / 3, 1 / 3])
        A = adjoint(K, m)
        assert_allclose(A.rows, [[0.5, 0.5], [1.0, 0.0]], atol=1e-15)

    def test_support_violation_names_atom(self):
        K = kernel2([[0.0, 1.0], [0.0, 1.0]])
        m = Measure(S2, [1.0, 0.0])
        with pytest.raises(AbsoluteContinuityError, match="s1"):
            adjoint(K, m)

    def test_off_support_rows_zero(self):
        K = kernel2([[1.0, 0.0], [1.0, 0.0]])
        m = Measure(S2, [1.0, 0.0])
        A = adjoint(K, m)
        assert_allclose(A.rows[1], [0.0, 0.0], atol=0)

    def test_super_stochastic_row_is_representable(self):
        K = kernel2([[0.0, 1.0], [0.0, 1.0]])
        m = Measure(S2, [0.5, 0.5])
        A = adjoint(K, m)
        assert A.kind == "general"
        assert_allclose(A.rows.sum(axis=1), [0.0, 2.0], atol=1e-15)

    def test_duality_identity(self):
        rng = np.random.default_rng(3)
        n = 6
        sp = StateSpace.range(n)
        raw = rng.random((n, n))
        K = Kernel(sp, raw / raw.sum(1, keepdims=True), on_rowsum="renormalize")
        m = Measure(sp, rng.random(n) + 0.05)
        A = adjoint(K, m)
        f = StateFn(sp, rng.standard_normal(n))
        g = StateFn(sp, rng.standard_normal(n))
        lhs = m.expect(StateFn(sp, f.values * apply(A, g).values))
        rhs = m.expect(StateFn(sp, g.values * apply(K, f).values))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@st.composite
def markov_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n),
        min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=n, max_size=n))
    sp = StateSpace.range(n)
    arr = np.asarray(rows)
    K = Kernel(sp, arr / arr.sum(1, keepdims=True), on_rowsum="renormalize")
    return K, Measure(sp, weights)


class TestProperties:
    @given(markov_pairs(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_power_preserves_markov_rows(self, pair, n):
        K, _ = pair
        P = power(K, n)
        assert (P.rows >= 0).all()
        assert_allclose(P.rows.sum(axis=1), 1.0, atol=1e-10)

    @given(markov_pairs(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_cesaro_preserves_markov_rows(self, pair, n):
        K, _ = pair
        S = cesaro(K, n)
        assert (S.rows >= 0).all()
        assert_allclose(S.rows.sum(axis=1), 1.0, atol=1e-10)

    @given(markov_pairs())
    @settings(max_examples=60, deadline=None)
    def test_push_preserves_mass(self, pair):
        K, m = pair
        assert abs(push(m, K).mass - m.mass) <= 1e-12 * max(1.0, m.mass)

    @given(markov_pairs())
    @settings(max_examples=60, deadline=None)
    def test_adjoint_duality(self, pair):
        K, m = pair
        A = adjoint(K, m)
        rng = np.random.default_rng(0)
        f = StateFn(K.space, rng.random(K.size))
        g = StateFn(K.space, rng.random(K.size))
        lhs = m.expect(StateFn(K.space, f.values * apply(A, g).values))
        rhs = m.expect(StateFn(K.space, g.values * apply(K, f).values))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    @given(markov_pairs())
    @settings(max_examples=40, deadline=None)
    def test_unit_ball_stays_unit_ball(self, pair):
        K, _ = pair
        f = StateFn(K.space, np.linspace(0.0, 1.0, K.size))
        assert apply(K, f).in_unit_interval(tol=1e-12)


def test_stateset_helpers():
    sp = StateSpace.range(4)
    A = StateSet(sp, [2, 0])
    assert A.members == (0, 2)
    assert A.complement().members == (1, 3)
    assert_allclose(A.indicator().values, [1, 0, 1, 0])
    m = Measure(sp, [0.1, 0.2, 0.3, 0.4])
    assert m.of(A) == pytest.approx(0.4)


def test_identity_kernel():
    sp = StateSpace.range(3)
    assert_allclose(identity(sp).rows, np.eye(3))


class TestSpanProduct:
    """core._span_product against the dense product L @ R."""

    @pytest.fixture
    def panels(self, monkeypatch):
        # the span path multiplies panels by np.matmul, the fallback by @
        calls = []
        real = np.matmul

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(np, "matmul", counting)
        return calls

    @staticmethod
    def check(L, R):
        dense = L @ R
        spanned = core._span_product(L, R)
        assert spanned.shape == dense.shape
        assert np.abs(spanned - dense).max() <= 1e-14 * np.abs(dense).max()
        structural = ((L != 0.0).astype(float) @ (R != 0.0)) == 0.0
        assert (dense[structural] == 0.0).all()
        assert (spanned[structural] == 0.0).all()
        return spanned, dense

    def test_banded_birth_death_power(self, panels):
        P = birth_death(600, 0.7).kernel
        L = power(P, 8).rows
        self.check(L, L)
        assert panels  # the band is narrow, so the panels ran

    def test_block_chain_kernel(self, panels):
        K = block_chain(k=4, block_size=150).kernel.rows
        self.check(K, K)
        assert panels

    def test_lazy_cycle_with_corner_entries(self, panels):
        K = lazy_cycle(600).kernel
        assert K.rows[-1, 0] > 0.0 and K.rows[0, -1] == 0.0
        self.check(power(K, 4).rows, K.rows)
        assert panels

    def test_zero_rows_and_columns(self, panels):
        L = power(birth_death(600, 0.7).kernel, 3).rows.copy()
        R = L.copy()
        L[:PANEL] = 0.0         # a whole panel of zero rows
        L[300] = 0.0
        L[:, 450:470] = 0.0     # columns of L that meet rows of R
        R[200:260] = 0.0        # rows of R that a panel meets
        R[:, 500] = 0.0
        spanned, _ = self.check(L, R)
        assert (spanned[:PANEL] == 0.0).all()
        assert (spanned[300] == 0.0).all()
        assert (spanned[:, 500] == 0.0).all()
        assert panels

    def test_zero_matrix(self):
        Z = np.zeros((600, 600))
        assert (core._span_product(Z, Z) == 0.0).all()

    def test_sub_markovian_kernel(self, panels):
        killing = np.linspace(1.0, 0.5, 600)[:, None]
        rows = birth_death(600, 0.7).kernel.rows * killing
        K = Kernel(StateSpace.range(600), rows, kind="sub-markovian")
        self.check(power(K, 5).rows, K.rows)
        assert panels

    def test_small_operands_take_one_dense_product(self, panels):
        n = 2 * PANEL
        L = power(birth_death(n, 0.7).kernel, 4).rows
        assert np.array_equal(core._span_product(L, L), L @ L)
        assert not panels

    def test_full_rows_take_one_dense_product(self, panels, monkeypatch):
        K = ou_grid(300).kernel.rows
        # the first and last column show every row is full: no span scan
        monkeypatch.setattr(core, "_row_spans", None)
        assert np.array_equal(core._span_product(K, K), K @ K)
        assert not panels

    def test_one_full_row_operand_still_scans_the_other(self, panels):
        L = ou_grid(300).kernel.rows
        R = np.zeros_like(L)
        R[:, :40] = L[:, :40]   # every row of R ends at column 40
        self.check(L, R)
        assert panels


class TestLadderProducts:
    """Pinned counts of the products the doubling ladder makes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 8, 12, 100, 255, 256])
    def test_power(self, n, monkeypatch):
        K = birth_death(300, 0.7).kernel
        direct = np.linalg.matrix_power(K.rows, n)
        products = product_spy(monkeypatch)
        P = power(K, n)
        assert len(products) == n.bit_length() + bin(n).count("1") - 2
        assert_allclose(P.rows, direct, rtol=0.0, atol=1e-14)

    def test_power_doubles_bit_for_bit(self):
        K = lazy_cycle(6).kernel
        for n in (3, 5, 6, 12):
            Pn = power(K, n).rows
            assert np.array_equal(power(K, 2 * n).rows,
                                  core._span_product(Pn, Pn))

    def test_cesaro(self, monkeypatch):
        K = birth_death(300, 0.7).kernel
        products = product_spy(monkeypatch)
        S = cesaro(K, 7)
        assert len(products) <= 6
        want = sum(np.linalg.matrix_power(K.rows, k) for k in range(7)) / 7
        assert_allclose(S.rows, want, rtol=0.0, atol=1e-14)

    def test_unread_powers_are_never_squared(self, monkeypatch):
        products = product_spy(monkeypatch)
        ladder = core._Ladder(birth_death(300, 0.7).kernel.rows)
        ladder.climb(3)
        assert products == []
        ladder.power
        assert len(products) == 3
        ladder.power
        assert len(products) == 3

    def test_decay_report_default_grid(self, monkeypatch):
        bundle = birth_death(600, 0.7)
        products = product_spy(monkeypatch)
        decay_report(bundle.kernel, bundle.m, bundle.V, n_grid=DEFAULT_GRID)
        assert len(products) == 8

    def test_cesaro_adjoint(self, monkeypatch):
        # the limit is read off the decomposition: the ladder never climbs
        bundle = birth_death(600, 0.7)
        K = bundle.kernel
        products = product_spy(monkeypatch)
        res = solve_cesaro_adjoint(K, Measure(K.space, np.full(600, 1 / 600)))
        assert (len(products), res.iterations) == (0, 0)
        res = solve_cesaro_adjoint(K, bundle.m)
        assert (len(products), res.iterations) == (0, 0)
