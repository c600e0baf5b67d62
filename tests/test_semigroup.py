"""Generators, transition kernels, resolvents, and averaged measures."""

from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ergocert.certificates.almost import check_occupation_half
from ergocert.certificates.averages import (continuous_mean_rows,
                                            continuous_power_rows,
                                            geometric_horizons)
from ergocert.certificates.drift import (check_dominated_rows,
                                         check_drift_concentration)
from ergocert.certificates.phi import AlmostInvarianceParams, PhiLinear
from ergocert.core import (PANEL, Kernel, Measure, StateSet, StateSpace, dirac,
                           power, push)
from ergocert.harnack import certify_harnack_pipeline
from ergocert.semigroup import (
    Generator,
    auxiliary_measure,
    discrete_resolvent,
    kb_measure,
    last_row,
    mean_rows,
    occupation_density,
    power_rows,
    resolvent,
    resolvent_raw,
    transition_at,
    uniformized,
)
from ergocert.scenarios import (absorbing_pair, birth_death, block_chain,
                                lazy_cycle, ou_grid)
from ergocert.solver import solve_continuous
from oracles import expm_flow, product_spy, push_spy, rational_push
from test_certificates import faint_kernel
from test_solver import stiff_generators

S2 = StateSpace.range(2)
SUBNORMAL = Fraction(2) ** -1074
SYM = Generator(S2, [[-1.0, 1.0], [1.0, -1.0]])


def random_generator(rng, n):
    off = rng.random((n, n)) * rng.choice([0.2, 1.0, 3.0])
    np.fill_diagonal(off, 0.0)
    rates = off.copy()
    np.fill_diagonal(rates, -off.sum(axis=1))
    return Generator(StateSpace.range(n), rates)


def random_kernel(rng, n):
    rows = rng.random((n, n)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return Kernel(StateSpace.range(n), rows)


class TestGeneratorConstruction:
    def test_row_sums_enforced(self):
        with pytest.raises(ValueError, match="sums to"):
            Generator(S2, [[-1.0, 0.5], [1.0, -1.0]])

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Generator(S2, [[1.0, -1.0], [1.0, -1.0]])

    def test_default_uniformization_headroom(self):
        assert_allclose(SYM.lam, 1.05)

    def test_lam_below_diagonal_rejected(self):
        with pytest.raises(ValueError, match="uniformization"):
            Generator(S2, [[-2.0, 2.0], [1.0, -1.0]], lam=1.5)

    def test_uniformized_kernel(self):
        K = uniformized(SYM)
        assert_allclose(K.rows, [[1 - 1 / 1.05, 1 / 1.05],
                                 [1 / 1.05, 1 - 1 / 1.05]], atol=1e-15)

    def test_zero_rate_generator_uniformizes_to_identity(self):
        G = Generator(S2, np.zeros((2, 2)))
        assert G.lam == 0.0
        assert (uniformized(G).rows == np.eye(2)).all()


class TestTransitionAt:
    def test_symmetric_closed_form(self):
        # e^{tQ} for the rate-1 swap pair relaxes at rate e^{-2t}
        for t in (0.1, 0.7, 2.5, 13.0):
            e = np.exp(-2.0 * t)
            want = np.array([[(1 + e) / 2, (1 - e) / 2],
                             [(1 - e) / 2, (1 + e) / 2]])
            assert_allclose(transition_at(SYM, t).rows, want, atol=1e-12)

    def test_semigroup_property(self):
        P1 = transition_at(SYM, 0.4).rows
        P2 = transition_at(SYM, 0.8).rows
        assert_allclose(P1 @ P1, P2, atol=1e-12)

    def test_time_zero_is_identity(self):
        assert_allclose(transition_at(SYM, 0.0).rows, np.eye(2))

    def test_long_time_squaring_branch(self):
        # lam * t far beyond the direct series limit
        rows = transition_at(SYM, 500.0).rows
        assert_allclose(rows, np.full((2, 2), 0.5), atol=1e-12)

    def test_discrete_integer_times(self):
        K = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
        assert_allclose(transition_at(K, 3).rows, power(K, 3).rows)
        with pytest.raises(ValueError, match="integer"):
            transition_at(K, 0.5)


class TestResolventAlgebra:
    def test_symmetric_closed_form(self):
        # (alpha I - Q)^{-1} scaled to markovian: rows ((a+1)/(a+2), 1/(a+2))
        for a in (0.5, 1.0, 2.0):
            R = resolvent(SYM, a)
            assert_allclose(R.rows, [[(a + 1) / (a + 2), 1 / (a + 2)],
                                     [1 / (a + 2), (a + 1) / (a + 2)]],
                            atol=1e-14)

    def test_resolvent_identity_random(self):
        # R_a - R_b = (b - a) R_a R_b on twenty random generators
        rng = np.random.default_rng(11)
        for _ in range(20):
            G = random_generator(rng, int(rng.integers(2, 9)))
            a, b = sorted(rng.uniform(0.2, 5.0, size=2))
            Ra = resolvent_raw(G, a)
            Rb = resolvent_raw(G, b)
            lhs = Ra - Rb
            rhs = (b - a) * Ra @ Rb
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_raw_resolvent_mass(self):
        raw = resolvent_raw(SYM, 2.0)
        assert_allclose(raw.sum(axis=1), [0.5, 0.5], atol=1e-14)

    def test_discrete_closed_form_vs_series(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            K = random_kernel(rng, int(rng.integers(2, 9)))
            R = discrete_resolvent(K)
            term = np.eye(K.size)
            acc = np.zeros_like(term)
            for k in range(200):
                acc += 0.5 ** (k + 1) * term
                term = term @ K.rows
            assert np.abs(R.rows - acc).max() <= 1e-10

    def test_alpha_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            resolvent_raw(SYM, 0.0)

    def test_raw_rejects_kernels(self):
        K = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="discrete_resolvent"):
            resolvent_raw(K, 1.0)


class TestInvarianceTransfer:
    """Fixed points transfer between the flow and its resolvents."""

    def test_invariant_measure_fixed_by_resolvent(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            G = random_generator(rng, int(rng.integers(2, 8)))
            results = solve_continuous(G)
            m = results[0].nu
            a = float(rng.uniform(0.3, 4.0))
            fixed = m.weights @ resolvent(G, a).rows
            assert np.abs(fixed - m.weights).sum() <= 1e-10

    def test_resolvent_fixed_point_is_invariant_for_all_times(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            G = random_generator(rng, int(rng.integers(2, 8)))
            a = float(rng.uniform(0.3, 4.0))
            R = resolvent(G, a).rows
            # left fixed vector of the resolvent kernel
            w, vl = np.linalg.eig(R.T)
            k = int(np.argmin(np.abs(w - 1.0)))
            v = np.real(vl[:, k])
            v = np.abs(v) / np.abs(v).sum()
            for t in (0.3, 1.0, 4.7):
                moved = v @ transition_at(G, t).rows
                assert np.abs(moved - v).sum() <= 1e-8

    def test_periodic_average_is_invariant(self):
        # delta_0 returns after two steps of the swap kernel; its two-step
        # average is invariant for the kernel itself
        swap = Kernel(S2, [[0.0, 1.0], [1.0, 0.0]])
        m = Measure(S2, [1.0, 0.0])
        assert_allclose(push(m, power(swap, 2)).weights, m.weights)
        avg = kb_measure(swap, m, 2)
        assert_allclose(avg.weights, [0.5, 0.5])
        assert_allclose(push(avg, swap).weights, avg.weights)


class TestAuxiliaryMeasure:
    def test_absorbing_pair_from_corner(self):
        P = Kernel(S2, [[0.0, 1.0], [0.0, 1.0]])
        m = auxiliary_measure(P, Measure(S2, [1.0, 0.0]))
        assert_allclose(m.weights, [0.5, 0.5], atol=1e-15)

    def test_discrete_mass_preserved(self):
        rng = np.random.default_rng(15)
        K = random_kernel(rng, 6)
        mu = Measure(K.space, rng.random(6))
        m = auxiliary_measure(K, mu)
        assert_allclose(m.mass, mu.mass, rtol=1e-12)

    def test_continuous_invariant_start_is_fixed(self):
        # an invariant probability composed with the raw resolvent at
        # alpha = 1 returns itself
        mu = Measure(S2, [0.5, 0.5])
        m = auxiliary_measure(SYM, mu, alpha=1.0)
        assert_allclose(m.weights, mu.weights, atol=1e-14)

    def test_continuous_mass_scaling(self):
        mu = Measure(S2, [0.3, 0.7])
        m = auxiliary_measure(SYM, mu, alpha=2.0)
        assert_allclose(m.mass, 0.5, rtol=1e-12)

    def test_full_support_after_smoothing(self):
        P = Kernel(S2, [[0.5, 0.5], [0.5, 0.5]])
        m = auxiliary_measure(P, Measure(S2, [1.0, 0.0]))
        assert (m.weights > 0).all()

    def test_underflowed_atoms_stay_in_the_support(self):
        # the harnack reference of a steep chain: 406 of 1200 atoms are
        # positive in floats, and every state is reached from the start
        K = birth_death(1200, 0.7).kernel
        m = auxiliary_measure(K, push(dirac(K.space, 0), K))
        assert np.count_nonzero(m.weights) == 406
        assert_array_equal(m.support, np.arange(1200))
        # any other measure reads its support off its float weights
        assert_array_equal(Measure(K.space, m.weights).support,
                           np.arange(406))

    def test_unreached_states_stay_out_of_the_support(self):
        # the rates 1e-200 leave state 2 at 1e-400, below the float range;
        # state 3 is never reached from state 0
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[1, 2] = 1e-200
        rates[2, 0] = rates[3, 0] = 1.0
        G = Generator(StateSpace.range(4), rates - np.diag(rates.sum(axis=1)))
        m = auxiliary_measure(G, dirac(G.space, 0))
        assert_array_equal(m.weights > 0.0, [True, True, False, False])
        assert (m.weights @ G.rates)[2:].sum() <= 1e-15
        assert_array_equal(m.support, [0, 1, 2])
        K = Kernel(S2, [[0.0, 1.0], [0.0, 1.0]])
        assert_array_equal(auxiliary_measure(K, dirac(S2, 1)).support, [1])

    def test_general_kernel_past_row_sum_two_is_rejected(self):
        # I - K/2 is no M-matrix once a row sum reaches 2: the push turns
        # negative, and the measure must refuse it rather than clip it
        K = Kernel(S2, [[3.0, 0.0], [0.0, 0.5]], kind="general")
        with pytest.raises(ValueError, match="nonnegative"):
            auxiliary_measure(K, Measure(S2, [0.5, 0.5]))


def sparse_start(rng, n):
    """A random start law with about a third of its atoms null."""
    w = rng.random(n) * (rng.random(n) < 0.7)
    w[int(rng.integers(n))] = 1.0
    return Measure(StateSpace.range(n), w / w.sum())


class TestAuxiliaryPush:
    """auxiliary_measure's one push against the formed operators."""

    @staticmethod
    def assert_same_push(got, want):
        assert np.array_equal(got > 0.0, want > 0.0)
        assert np.abs(got - want).sum() <= 1e-13 * np.abs(want).sum()

    def test_kernels(self):
        rng = np.random.default_rng(17)
        pair, bd, blocks = absorbing_pair(), birth_death(40), block_chain()
        cases = [(pair.kernel, pair.extras["m_dirac"]),
                 (pair.kernel, pair.extras["m_uniform"]),
                 (bd.kernel, dirac(bd.kernel.space, 0)),
                 (blocks.kernel, dirac(blocks.kernel.space, 0)),
                 (blocks.kernel, blocks.m)]
        for _ in range(20):
            n = int(rng.integers(2, 12))
            rows = (rng.random((n, n)) + 0.05) * (rng.random((n, n)) < 0.15)
            rows[np.arange(n), np.arange(n)] += 0.1
            rows /= rows.sum(axis=1, keepdims=True)
            cases.append((Kernel(StateSpace.range(n), rows),
                          sparse_start(rng, n)))
        for K, mu in cases:
            self.assert_same_push(auxiliary_measure(K, mu).weights,
                                  push(mu, discrete_resolvent(K)).weights)

    def test_generators(self):
        rng = np.random.default_rng(18)
        for i in range(20):
            n = int(rng.integers(2, 12))
            G = random_generator(rng, n)
            if i % 2:
                # cut most rates, so some states are out of reach
                off = G.rates * (rng.random((n, n)) < 0.15)
                np.fill_diagonal(off, 0.0)
                np.fill_diagonal(off, -off.sum(axis=1))
                G = Generator(G.space, off)
            mu = sparse_start(rng, n)
            a = float(rng.uniform(0.2, 5.0))
            self.assert_same_push(auxiliary_measure(G, mu, a).weights,
                                  mu.weights @ resolvent_raw(G, a))

    def test_generator_push_takes_one_solve(self, monkeypatch):
        # one push, whose mass is kept by construction and not checked
        # by a second one
        calls = push_spy(monkeypatch)
        m = auxiliary_measure(SYM, Measure(S2, [1.0, 0.0]), alpha=2.0)
        assert_allclose(m.mass, 0.5, rtol=1e-15)
        assert [rhs for _, rhs in calls] == [(2,)]

    def test_no_operator_formed_to_push_one_measure(self, monkeypatch):
        # every resolvent-smoothed measure below is one vector push: no
        # call hands the push an n x n right-hand side
        calls = push_spy(monkeypatch)

        bd = birth_death(30, 0.6)
        P, V, C = bd.kernel, bd.V, bd.C
        w = np.random.default_rng(19).random(30) + 0.1
        m = Measure(P.space, w / w.sum())
        drift_b = np.zeros(30)
        drift_b[0] = bd.extras["drift_b"]
        two = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
        start = Measure(S2, [1.0, 0.0])
        params = AlmostInvarianceParams(PhiLinear(40.0), 0.0, horizon=100)
        # (system size, run); each run reaches its resolvent push
        runs = [
            (30, lambda: auxiliary_measure(P, dirac(P.space, 0)).mass > 0),
            (2, lambda: auxiliary_measure(SYM, start, alpha=2.0).mass > 0),
            (30, lambda: certify_harnack_pipeline(P, V, C).holds),
            (30, lambda: check_dominated_rows(P, m, 40.0, np.full(30, 0.5),
                                              C, n0=3, N=200).holds),
            (30, lambda: check_drift_concentration(P, m, V, drift_b, C,
                                                   params).holds),
            (2, lambda: check_occupation_half(two, start,
                                              StateSet(S2, [0])).holds),
            (2, lambda: check_occupation_half(SYM, start,
                                              StateSet(S2, [0])).holds),
        ]
        for n, run in runs:
            calls.clear()
            assert run()
            assert calls and (n, n) not in [rhs for _, rhs in calls]


def assert_exact(got, exact, rtol=1e-14):
    """Every atom of got within rtol relative of its exact Fraction, and
    within one unit of the smallest subnormal where the exact atom is
    below the normal range, where no float is closer."""
    if np.ndim(got) == 2:
        exact = [e for row in exact for e in row]
    for x, e in zip(np.ravel(got).tolist(), exact):
        assert abs(Fraction(x) - e) <= Fraction(rtol) * e + SUBNORMAL, \
            (x, float(e))


class TestRationalPush:
    """Every resolvent push against oracles.rational_push, the exact
    solve of the same M-matrix, to 1e-14 relative in each atom and in
    the mass. At alpha = 1e-6, a dense LU solve misses 1e-9 of the mass
    on 10 of these 60 generators."""

    def test_stiff_generators(self):
        rng = np.random.default_rng(43)
        for G in islice(stiff_generators(), 60):
            n = G.size
            mu = sparse_start(rng, n)
            for a in (1e-6, 1e-3, 1.0):
                x = auxiliary_measure(G, mu, a).weights
                assert_exact(x, rational_push(G.rates, [a] * n, mu.weights))
                assert abs(a * x.sum() - mu.mass) <= 1e-14 * mu.mass
                R = resolvent_raw(G, a)
                assert_exact(R, rational_push(G.rates, [a] * n, np.eye(n)))
                assert np.abs(a * R.sum(axis=1) - 1.0).max() <= 1e-14

    def test_faint_edge_kernels(self):
        # edges of weight 1e-300 carry the push below the float range; the
        # slack of 2I - K is 2 - K(x, X), exactly, and the exact solve
        # is held to 15 states, where it takes milliseconds
        rng = np.random.default_rng(23)
        for _ in range(300):
            K = faint_kernel(rng)
            n = K.size
            mu = dirac(K.space, int(rng.integers(n)))
            if n > 15:
                continue
            slack = [2 - sum(map(Fraction, row)) for row in K.rows.tolist()]
            x = auxiliary_measure(K, mu).weights
            assert_exact(x, rational_push(K.rows, slack, mu.weights))
            assert abs(x.sum() - 1.0) <= 1e-14
            # a float-null atom takes no flow from the rest, past rounding
            assert (x @ K.rows)[x <= 0.0].sum() <= 1e-15
            if n <= 10:
                assert_exact(discrete_resolvent(K).rows,
                             rational_push(K.rows, slack, np.eye(n)))


class TestDiscreteChain:
    """power_rows and mean_rows against the plain left-action loops."""

    def setup_method(self):
        rng = np.random.default_rng(41)
        self.K = random_kernel(rng, 9)
        self.mu = Measure(self.K.space, rng.random(9))

    def test_power_rows_match_loop(self):
        v = self.mu.weights.copy()
        for n, row in power_rows(self.K, self.mu, 30):
            v = v @ self.K.rows
            assert np.array_equal(row, v)
        assert n == 30

    def test_mean_rows_match_loop(self):
        v = self.mu.weights.copy()
        acc = np.zeros_like(v)
        expected = []
        for n in range(1, 31):
            acc += v
            expected.append((n, acc / n))
            v = v @ self.K.rows
        got = list(mean_rows(self.K, self.mu, 30, n0=4))
        assert [n for n, _ in got] == list(range(4, 31))
        for (n, row), (_, ref) in zip(got, expected[3:]):
            assert np.array_equal(row, ref)

    def test_kb_measure_is_the_last_mean_row(self):
        for n in (1, 2, 7, 40):
            rows = list(mean_rows(self.K, self.mu, n))
            assert rows[-1][0] == n
            assert np.array_equal(kb_measure(self.K, self.mu, n).weights,
                                  rows[-1][1])
            assert np.array_equal(last_row(mean_rows(self.K, self.mu, n)),
                                  rows[-1][1])

    # Above 2 * PANEL states each push runs over the nonzero hull of the
    # row and the columns its kernel rows reach.

    @pytest.fixture
    def spans(self, monkeypatch):
        # a spanned push multiplies by np.matmul, the plain loop by @
        calls = []
        real = np.matmul

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(np, "matmul", counting)
        return calls

    @staticmethod
    def loop_rows(K, w, horizon):
        v, rows = w.copy(), []
        for _ in range(horizon):
            v = v @ K.rows
            rows.append(v)
        return rows

    def check_walk(self, spans, K, w, horizon=40):
        """power_rows and mean_rows within 1e-14 of the plain loop, with
        exact zeros wherever no path of the kernel reaches. Returns the
        rows, the loop's rows and the count of spanned pushes."""
        m = Measure(K.space, w)
        ref = self.loop_rows(K, w, horizon)
        before = len(spans)
        got = list(power_rows(K, m, horizon))
        spanned = len(spans) - before
        assert [n for n, _ in got] == list(range(1, horizon + 1))
        reach, edges = w != 0.0, (K.rows != 0.0).astype(float)
        for (_, row), r in zip(got, ref):
            reach = reach.astype(float) @ edges > 0.0
            assert np.abs(row - r).max() <= 1e-14 * np.abs(r).max()
            assert (row[~reach] == 0.0).all()
        acc = np.zeros_like(w)
        for (n, mean), v in zip(mean_rows(K, m, horizon), [w] + ref):
            acc += v
            assert np.abs(mean - acc / n).max() <= 1e-14 * np.abs(acc / n).max()
        return [row for _, row in got], ref, spanned

    def test_banded_walks_take_the_spanned_pushes(self, spans):
        K = birth_death(600, 0.7).kernel
        sparse = np.zeros(600)
        sparse[[3, 150, 151, 300]] = [0.1, 0.4, 0.2, 0.3]
        assert self.check_walk(spans, K, dirac(K.space, 0).weights)[2] == 40
        assert self.check_walk(spans, K, sparse)[2] == 40

    def test_block_walk_stays_in_its_block(self, spans):
        K = block_chain(k=4, block_size=150).kernel
        rows, _, spanned = self.check_walk(spans, K, dirac(K.space, 0).weights)
        assert all((row[150:] == 0.0).all() for row in rows)
        assert spanned == 40
        # a start in the first and the last block spans every column
        both = np.zeros(600)
        both[[10, 590]] = 0.5
        rows, ref, spanned = self.check_walk(spans, K, both)
        assert spanned == 0
        assert all(np.array_equal(a, b) for a, b in zip(rows, ref))

    def test_corner_entry_falls_back_to_the_loop(self, spans):
        K = lazy_cycle(600).kernel
        assert K.rows[599, 0] > 0.0
        rows, ref, spanned = self.check_walk(spans, K,
                                             dirac(K.space, 599).weights)
        # the first push is spanned; from then on the row holds atoms 0
        # and 599, spans every column and takes the plain loop
        assert spanned == 1
        assert all(np.array_equal(a, b) for a, b in zip(rows[1:], ref[1:]))

    def test_sub_markovian_mass_dies_out(self, spans):
        # each step moves 0.9 of the mass one atom on; the last atom kills it
        rows = np.zeros((600, 600))
        rows[np.arange(599), np.arange(1, 600)] = 0.9
        K = Kernel(StateSpace.range(600), rows, kind="sub-markovian")
        start = np.zeros(600)
        start[[570, 580]] = [0.25, 0.75]
        got, _, spanned = self.check_walk(spans, K, start, horizon=60)
        # the mass from atom 570 reaches atom 599 at step 29 and dies
        assert (got[28] > 0.0).any()
        assert all((row == 0.0).all() for row in got[29:])
        assert spanned == 29

    def test_all_zero_start(self, spans):
        K = birth_death(600, 0.7).kernel
        got, _, spanned = self.check_walk(spans, K, np.zeros(600), horizon=5)
        assert all((row == 0.0).all() for row in got)
        assert spanned == 0

    def test_small_and_full_row_kernels_take_the_loop(self, spans):
        for K in (birth_death(2 * PANEL, 0.7).kernel, ou_grid(300).kernel):
            w = dirac(K.space, 0).weights
            rows, ref, spanned = self.check_walk(spans, K, w)
            assert all(np.array_equal(a, b) for a, b in zip(rows, ref))
            assert spanned == 0


class TestAveragedMeasures:
    def test_discrete_kb_frozen(self):
        K = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
        avg = kb_measure(K, Measure(S2, [1.0, 0.0]), 2)
        assert_allclose(avg.weights, [0.95, 0.05], atol=1e-15)

    def test_discrete_kb_needs_integer(self):
        K = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="integer"):
            kb_measure(K, Measure(S2, [1.0, 0.0]), 1.5)

    def test_continuous_kb_closed_form(self):
        # (1/t) integral of delta_0 P_s: deviation (1 - e^{-2t}) / (4t).
        # At tiny t, P(N > 0) / (lam t) must keep its digits where
        # 1 - e^{-lam t} rounds to nothing
        mu = Measure(S2, [1.0, 0.0])
        for t in (1e-16, 1e-12, 1e-6, 1e-3, 0.5, 1.0, 3.0):
            dev = -np.expm1(-2.0 * t) / (4.0 * t)
            got = kb_measure(SYM, mu, t).weights
            assert np.abs(got - [0.5 + dev, 0.5 - dev]).sum() <= 1e-13, t

    def test_occupation_density_invariant_start(self):
        m = Measure(S2, [0.5, 0.5])
        f = occupation_density(SYM, m, 3.0)
        assert_allclose(f.values, [3.0, 3.0], atol=1e-9)

    def test_zero_rate_generator_keeps_the_start(self):
        # lam = 0: every average is the start, with no division by lam t
        G = Generator(S2, np.zeros((2, 2)))
        m = Measure(S2, [0.25, 0.75])
        ts = geometric_horizons(8)
        assert_array_equal(kb_measure(G, m, 3.0).weights, m.weights)
        assert_array_equal(occupation_density(G, m, 3.0).values, [3.0, 3.0])
        for t, row in (continuous_power_rows(G, m, ts)
                       + continuous_mean_rows(G, m, ts)):
            assert_array_equal(row, m.weights)

    def test_occupation_density_rejects_kernels(self):
        K = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="continuous"):
            occupation_density(K, Measure(S2, [0.5, 0.5]), 1.0)


class TestGeneratorLadder:
    """A generator's evidence rows climb the spanned doubling ladder."""

    def test_banded_rungs_take_panels_and_match_dense(self, monkeypatch):
        K = birth_death(600, 0.7).kernel
        G = Generator(K.space, K.rows - np.eye(600))
        m = Measure(K.space, np.full(600, 1 / 600))
        ts = geometric_horizons(256)

        def rows():
            return (continuous_power_rows(G, m, ts)
                    + continuous_mean_rows(G, m, ts))

        # a product made of panels calls np.matmul; note which product
        products = product_spy(monkeypatch)
        panelled = set()
        real = np.matmul

        def counting(*args, **kw):
            panelled.add(len(products))
            return real(*args, **kw)

        monkeypatch.setattr(np, "matmul", counting)
        spanned = rows()
        # each family sums the series of P_1 up to the power 18 of
        # I + Q/lam, 17 products; the power rows then square P_1 up to
        # P_256 and the means read P_128 last. The series powers, and so
        # P_1, have bandwidth at most 37, so the series and the first four
        # rungs of each family are panelled
        assert len(products) == (17 + 8) + (17 + 7)
        assert panelled == set(range(1, 22)) | set(range(26, 47))
        monkeypatch.undo()
        product_spy(monkeypatch, dense=True)
        for (t, got), (s, want) in zip(spanned, rows()):
            assert t == s
            assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestExpmOracle:
    """Every generator row agrees with a matrix-exponential reference."""

    @pytest.mark.parametrize("make, args", [(birth_death, (600, 0.7)),
                                            (ou_grid, (300,))],
                             ids=["birth_death", "ou_grid"])
    def test_evidence_rows_match_expm(self, make, args):
        K = make(*args).kernel
        G = Generator(K.space, K.rows - np.eye(K.size))
        m = Measure(K.space, np.full(K.size, 1 / K.size))
        # each squaring doubles what the series lost, so its tail must
        # sit at rounding level for t = 1024 to stay within 1e-12
        ts = geometric_horizons(1024)
        for (t, power_row), (_, mean_row) in zip(
                continuous_power_rows(G, m, ts),
                continuous_mean_rows(G, m, ts)):
            want_power, want_mean = expm_flow(G, m, t)
            assert np.abs(power_row - want_power).sum() <= 1e-12, t
            assert np.abs(mean_row - want_mean).sum() <= 1e-12, t

    def test_stiff_time_averages_match_expm(self):
        # rates from 1e-9 to 1e3 side by side, mild enough for scipy's expm
        for G in islice(stiff_generators(), 40):
            m = Measure(G.space, np.full(G.size, 1 / G.size))
            for t in (1.0, 4.0):
                _, want = expm_flow(G, m, t)
                got = kb_measure(G, m, t).weights
                assert np.abs(got - want).sum() <= 1e-10, (G, t)
