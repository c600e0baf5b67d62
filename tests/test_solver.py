"""Decompositions, projectors, and the constructive invariant solvers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ergocert import solver
from ergocert.core import Kernel, Measure, StateSpace, dirac, push
from ergocert.semigroup import Generator, auxiliary_measure
from ergocert.certificates.almost import check_almost_invariant
from ergocert.certificates.averages import limit_row
from ergocert.certificates.phi import AlmostInvarianceParams, PhiLinear
from ergocert.scenarios import birth_death, block_chain, lazy_cycle, ou_grid
from ergocert.solver import (
    _strong_components,
    _tarjan,
    averaging_projector,
    decompose,
    solve_cesaro_adjoint,
    solve_continuous,
    solve_eigen,
    verify_count_bound,
)
from oracles import (censor_pivotwise, cesaro_doubling, check_projector,
                     gth_stationary, product_spy, push_spy)

S2 = StateSpace.range(2)
S3 = StateSpace.range(3)
TWO_STATE = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
ABSORBING_PAIR = Kernel(S2, [[0.0, 1.0], [0.0, 1.0]])
# two absorbing states and a bridge state that leads into both
BRIDGE = Kernel(S3, [[1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [0.3, 0.5, 0.2]])
# two uniform 2-state blocks coupled at 1e-6: irreducible and doubly
# stochastic, but no run of a few thousand steps settles
_HALF = np.full((2, 2), 0.5)
SLOW_MIXING = Kernel(StateSpace.range(4),
                     np.block([[(1 - 1e-6) * _HALF, 1e-6 * _HALF],
                               [1e-6 * _HALF, (1 - 1e-6) * _HALF]]))


def random_ergodic(rng, n):
    rows = rng.random((n, n)) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    return Kernel(StateSpace.range(n), rows)


class TestDecompose:
    def test_two_state_single_class(self):
        d = decompose(TWO_STATE)
        check_projector(d, TWO_STATE)
        assert d.n_classes == 1
        assert d.transient.mask.sum() == 0
        assert_allclose(d.class_measures[0].weights, [2 / 3, 1 / 3],
                        rtol=1e-12)

    def test_absorbing_pair(self):
        d = decompose(ABSORBING_PAIR)
        check_projector(d, ABSORBING_PAIR)
        assert d.n_classes == 1
        assert list(d.classes[0].members) == [1]
        assert list(d.transient.members) == [0]
        assert_allclose(d.absorption, [[1.0], [1.0]])

    def test_two_blocks_with_bridge(self):
        d = decompose(BRIDGE)
        check_projector(d, BRIDGE)
        assert d.n_classes == 2
        # absorption weights from the bridge state solve
        # a = 0.3 + 0.2 a  =>  a = 0.375
        assert_allclose(d.absorption[2], [0.375, 0.625], rtol=1e-12)

    def test_projector_identities(self):
        d = decompose(TWO_STATE)
        check_projector(d, TWO_STATE)
        pi = d.projector()
        P = TWO_STATE.rows
        assert_allclose(pi @ P, pi, atol=1e-12)
        assert_allclose(P @ pi, pi, atol=1e-12)
        assert_allclose(pi @ pi, pi, atol=1e-12)

    def test_slow_mixing_chain_verifies(self):
        d = decompose(SLOW_MIXING)
        check_projector(d, SLOW_MIXING)
        assert d.n_classes == 1
        assert_allclose(d.projector(), np.full((4, 4), 0.25), atol=1e-10)

    def test_averaging_projector_two_state(self):
        pi = averaging_projector(TWO_STATE)
        assert_allclose(pi, np.tile([2 / 3, 1 / 3], (2, 1)), rtol=1e-12)

    def test_averaging_projector_periodic(self):
        swap = Kernel(S2, [[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(averaging_projector(swap), np.full((2, 2), 0.5),
                        atol=1e-12)

    def test_sub_markovian_mass_dies(self):
        K = Kernel(S2, [[0.5, 0.0], [0.0, 0.0]], kind="sub-markovian")
        pi = averaging_projector(K)
        assert_allclose(pi, np.zeros((2, 2)), atol=1e-15)


def stiff_generators(count=200, shared_cycle=False):
    """Irreducible generators on 3 to 11 states with off-diagonal rates
    10^U(-9, 3) at density 0.6, plus a cycle through every state. Each
    cycle rate is a fresh draw, or with shared_cycle=True the rate the
    other draw gave that edge."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        n = int(rng.integers(3, 12))
        rates = 10.0 ** rng.uniform(-9.0, 3.0, (n, n))
        off = np.where(rng.random((n, n)) < 0.6, rates, 0.0)
        i = np.arange(n)
        cycle = (rates[i, (i + 1) % n] if shared_cycle
                 else 10.0 ** rng.uniform(-9.0, 3.0, n))
        off[i, (i + 1) % n] = np.maximum(off[i, (i + 1) % n], cycle)
        np.fill_diagonal(off, 0.0)
        yield Generator(StateSpace.range(n), off - np.diag(off.sum(axis=1)))


class TestCheckProjector:
    """The projector identities that decompose is held to in the tests."""

    def test_accepts_every_decomposition(self):
        for S in (TWO_STATE, ABSORBING_PAIR, BRIDGE, SLOW_MIXING,
                  *stiff_generators()):
            check_projector(decompose(S), S)

    def test_zero_projector_rejected(self, monkeypatch):
        # the zero matrix satisfies all three projector identities
        monkeypatch.setattr(solver.ErgodicDecomposition, "projector",
                            lambda self: np.zeros((2, 2)))
        with pytest.raises(AssertionError, match="mass one"):
            check_projector(decompose(TWO_STATE), TWO_STATE)


class TestRateForm:
    """One decomposition, read off P - I for kernels and Q for generators."""

    def test_stiff_generator_limits_match_gth(self):
        # the uniformized diagonal (1 + q_ii/lam) - 1 cancels on these;
        # read through it, the limit row was off by 1.4e-4 relative, and
        # an LU class solve still by 0.60 on the shared-cycle family
        for shared_cycle in (False, True):
            worst = 0.0
            for G in stiff_generators(shared_cycle=shared_cycle):
                m = Measure(G.space, np.full(G.size, 1.0 / G.size))
                ref = gth_stationary(G.rates)
                worst = max(worst,
                            float(np.abs(limit_row(G, m) / ref - 1.0).max()))
            assert worst <= 1e-12, shared_cycle

    def test_zero_rate_generator_keeps_every_start(self):
        G = Generator(S3, np.zeros((3, 3)))
        m = Measure(S3, [0.2, 0.3, 0.5])
        assert_array_equal(limit_row(G, m), m.weights)
        params = AlmostInvarianceParams(PhiLinear(1.0), 0.0, horizon=8)
        assert check_almost_invariant(G, m, params).holds

    def test_sub_markovian_keeps_the_conserving_class(self):
        # {0, 1} keeps its mass; the closed class {2} and state 3 leak
        K = Kernel(StateSpace.range(4), [[0.5, 0.5, 0.0, 0.0],
                                         [0.5, 0.5, 0.0, 0.0],
                                         [0.0, 0.0, 0.9, 0.0],
                                         [0.3, 0.0, 0.3, 0.2]],
                   kind="sub-markovian")
        d = decompose(K)
        check_projector(d, K)
        assert [list(c.members) for c in d.classes] == [[0, 1]]
        assert list(d.transient.members) == [2, 3]
        # from state 3: a = 0.3 + 0.2 a  =>  a = 0.375
        assert_allclose(d.absorption[:, 0], [1.0, 1.0, 0.0, 0.375],
                        rtol=1e-12, atol=1e-15)
        assert (d.absorption.sum(axis=1)[2:] < 1.0).all()
        (res,) = solve_eigen(K)
        assert_allclose(res.nu.weights, [0.5, 0.5, 0.0, 0.0], rtol=1e-12)

    def test_generator_with_two_classes_and_a_transient_state(self):
        G = Generator(StateSpace.range(5), [[-1.0, 1.0, 0.0, 0.0, 0.0],
                                            [2.0, -2.0, 0.0, 0.0, 0.0],
                                            [0.0, 0.0, -0.5, 0.5, 0.0],
                                            [0.0, 0.0, 0.5, -0.5, 0.0],
                                            [1.0, 0.0, 3.0, 0.0, -4.0]])
        d = decompose(G)
        check_projector(d, G)
        assert [list(c.members) for c in d.classes] == [[0, 1], [2, 3]]
        assert list(d.transient.members) == [4]
        assert_allclose(d.class_measures[0].weights,
                        [2 / 3, 1 / 3, 0.0, 0.0, 0.0], rtol=1e-12)
        assert_allclose(d.absorption[4], [0.25, 0.75], rtol=1e-12)
        assert_allclose(d.absorption.sum(axis=1), 1.0, rtol=1e-15)

    def test_solve_continuous_forms_no_operator(self, monkeypatch):
        calls = push_spy(monkeypatch)
        G = Generator(S3, [[-1.0, 0.5, 0.5], [1.0, -2.0, 1.0],
                           [0.2, 0.3, -0.5]])
        (res,) = solve_continuous(G)
        assert res.residual <= 1e-12
        assert calls and (3, 3) not in [rhs for _, rhs in calls]


class TestStrongComponents:
    def test_labels_match_scipy(self):
        # the class order of decompose and solve_eigen follows these
        # labels, so they must number components exactly as scipy does
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(17)
        for trial in range(400):
            n = int(rng.integers(1, 40))
            adj = rng.random((n, n)) < rng.choice([0.03, 0.1, 0.3, 0.9])
            if trial % 3 == 0:  # mostly one-way: many classes, deep search
                adj = np.triu(adj) | (rng.random((n, n)) < 0.01)
            if trial % 5 == 0:
                adj |= np.eye(n, dtype=bool)
            want = csgraph.connected_components(adj, directed=True,
                                                connection="strong")
            got = _strong_components(adj)
            assert got[0] == want[0], trial
            assert (got[1] == want[1]).all(), trial

    def test_full_adjacency_is_one_component_without_a_walk(self,
                                                          monkeypatch):
        def walk(adjacency):
            raise AssertionError("walked a full adjacency")

        fulls = [np.ones((n, n), dtype=bool) for n in (1, 2, 7, 40)]
        wants = [_tarjan(full) for full in fulls]
        monkeypatch.setattr(solver, "_tarjan", walk)
        for full, want in zip(fulls, wants):
            got = _strong_components(full)
            assert got[0] == want[0] == 1
            assert_array_equal(got[1], want[1])

    def test_single_zero_anywhere_takes_the_walk(self):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        for n in (2, 3, 4):
            for i in range(n):
                for j in range(n):
                    adj = np.ones((n, n), dtype=bool)
                    adj[i, j] = False
                    got = _strong_components(adj)
                    want = csgraph.connected_components(
                        adj, directed=True, connection="strong")
                    assert got[0] == want[0], (n, i, j)
                    assert_array_equal(got[1], _tarjan(adj)[1])
                    assert_array_equal(got[1], want[1])

    def test_diagonal_squares_are_labelled_without_a_walk(self,
                                                          monkeypatch):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(41)
        graphs = [block_chain(k=4, block_size=250).kernel.rows > 0.0]
        for _ in range(40):
            sizes = rng.integers(1, 12, int(rng.integers(1, 8)))
            graphs.append(np.zeros((sizes.sum(),) * 2, dtype=bool))
            for lo, size in zip(np.cumsum(sizes) - sizes, sizes):
                graphs[-1][lo:lo + size, lo:lo + size] = True
        wants = [csgraph.connected_components(adj, directed=True,
                                              connection="strong")
                 for adj in graphs]
        walks = [_tarjan(adj) for adj in graphs]

        def walk(adjacency):
            raise AssertionError("walked a block-diagonal adjacency")
        monkeypatch.setattr(solver, "_tarjan", walk)
        for adj, want, walked in zip(graphs, wants, walks):
            got = _strong_components(adj)
            assert got[0] == want[0] == walked[0]
            assert_array_equal(got[1], want[1])
            assert_array_equal(got[1], walked[1])
        assert_array_equal(_strong_components(graphs[0])[1],
                           np.repeat(np.arange(4), 250))

    def test_near_miss_squares_take_the_walk(self, monkeypatch):
        # one zero inside a square, or one edge between two squares
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(43)
        walked = []

        def walk(adjacency, _real=_tarjan):
            walked.append(adjacency)
            return _real(adjacency)
        monkeypatch.setattr(solver, "_tarjan", walk)
        for trial in range(200):
            sizes = rng.integers(1, 9, int(rng.integers(2, 6)))
            n = int(sizes.sum())
            adj = np.zeros((n, n), dtype=bool)
            for lo, size in zip(np.cumsum(sizes) - sizes, sizes):
                adj[lo:lo + size, lo:lo + size] = True
            i, j = (int(v) for v in rng.integers(0, n, 2))
            if adj[i, j] != (trial % 2 == 0):
                continue  # even trials clear an entry, odd ones set one
            adj[i, j] = not adj[i, j]
            walked.clear()
            got = _strong_components(adj)
            want = csgraph.connected_components(adj, directed=True,
                                                connection="strong")
            assert len(walked) == 1, trial
            assert got[0] == want[0], trial
            assert_array_equal(got[1], want[1])

    def test_long_path_needs_no_recursion(self):
        n = 5000
        adj = np.eye(n, k=1, dtype=bool)
        adj[-1, 0] = True
        count, labels = _strong_components(adj)
        assert count == 1
        assert (labels == 0).all()


def count_solves(monkeypatch):
    """Wrap np.linalg.solve; the returned list grows by one per call."""
    calls = []
    real_solve = np.linalg.solve

    def solve(a, b):
        calls.append(np.shape(a))
        return real_solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", solve)
    return calls


def courtois_blocks(rng, sizes, coupling):
    """Random stochastic blocks of bandwidth 2 with rates 10^U(-6, 0),
    each linked to the next through one pair of states at the given
    coupling."""
    n = sum(sizes)
    i, j = np.indices((n, n))
    block = np.repeat(np.arange(len(sizes)), sizes)
    inside = (np.abs(i - j) <= 2) & (block[i] == block[j])
    rows = np.where(inside, 10.0 ** rng.uniform(-6.0, 0.0, (n, n)), 0.0)
    rows /= rows.sum(axis=1, keepdims=True)
    for e in np.cumsum(sizes)[:-1]:
        for x, y in ((e - 1, e), (e, e - 1)):
            rows[x] *= 1.0 - coupling
            rows[x, y] = coupling
    return Kernel(StateSpace.range(n), rows)


class TestEnvelopeClassLaw:
    """Every class law is censored over its envelope, without a
    subtraction; np.linalg.solve counts show that no LU solve ran."""

    @pytest.mark.parametrize("n", [60, 200, 1200])
    @pytest.mark.parametrize("p_down", [0.55, 0.7, 0.9])
    def test_birth_death_matches_its_closed_form(self, monkeypatch, n,
                                                 p_down):
        bundle = birth_death(n, p_down)
        calls = count_solves(monkeypatch)
        (law,) = decompose(bundle.kernel).class_measures
        assert calls == []
        exact = bundle.m.weights
        normal = exact >= np.finfo(float).tiny
        rel = np.abs(law.weights[normal] / exact[normal] - 1.0)
        assert rel.max() <= 1e-12
        assert (law.weights[exact == 0.0] == 0.0).all()

    def test_growing_law_stays_finite(self, monkeypatch):
        # the mirror image of birth_death(1200, 0.7): the law grows by
        # 2.3 per state from the first one, far past the float range
        bundle = birth_death(1200, 0.7)
        rows = bundle.kernel.rows[::-1, ::-1]
        calls = count_solves(monkeypatch)
        (law,) = decompose(Kernel(bundle.kernel.space, rows)).class_measures
        assert calls == []
        exact = bundle.m.weights[::-1]
        normal = exact >= np.finfo(float).tiny
        rel = np.abs(law.weights[normal] / exact[normal] - 1.0)
        assert rel.max() <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_coupled_banded_blocks_match_gth(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        K = courtois_blocks(rng, [int(v) for v in rng.integers(20, 80, 4)],
                            1e-6)
        calls = count_solves(monkeypatch)
        d = decompose(K)
        assert calls == []
        check_projector(d, K)
        (law,) = d.class_measures
        ref = gth_stationary(K.rows - np.eye(K.size))
        assert np.abs(law.weights / ref - 1.0).max() <= 1e-12

    def test_lazy_cycle_is_uniform(self, monkeypatch):
        K = lazy_cycle(600).kernel
        calls = count_solves(monkeypatch)
        (law,) = decompose(K).class_measures
        assert calls == []
        assert np.abs(600.0 * law.weights - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("case", ["ou_grid", "block_chain"])
    def test_dense_classes_match_gth(self, monkeypatch, case):
        if case == "ou_grid":
            K = ou_grid(300).kernel
            blocks = [np.arange(300)]
        else:
            K = block_chain(k=2, block_size=250).kernel
            blocks = [np.arange(250), np.arange(250, 500)]
        calls = count_solves(monkeypatch)
        laws = decompose(K).class_measures
        assert calls == []
        assert len(laws) == len(blocks)
        for idx, law in zip(blocks, laws):
            ref = gth_stationary(K.rows[np.ix_(idx, idx)] - np.eye(idx.size))
            assert np.abs(law.weights[idx] / ref - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_irregular_profiles_match_gth(self, seed):
        # fill-in widens these profiles inside a block, and the rows above
        # a block take its deferred product
        rng = np.random.default_rng(100 + seed)
        K = sparse_cycle_kernel(rng, int(rng.integers(40, 301)))
        d = decompose(K)
        check_projector(d, K)
        (law,) = d.class_measures
        ref = gth_stationary(K.rows - np.eye(K.size))
        assert np.abs(law.weights / ref - 1.0).max() <= 1e-12


# a few ulps relative: the blocked elimination sums the same
# nonnegative terms as the pivotwise one, in another order
ULPS = 64 * np.finfo(float).eps


def assert_ulps(got, want):
    scale = np.maximum(np.abs(got), np.abs(want))
    gap = np.abs(got - want)
    assert (gap <= ULPS * scale).all(), (gap / np.where(scale, scale, 1)).max()


def law_pivotwise(M):
    """The class law of M from oracles.censor_pivotwise, back-substituted
    state by state and rescaled by a power of two once an atom passes
    solver._RESCALE_AT."""
    a = np.array(M, dtype=float)
    first_col, first_row = solver._profile(a)
    censor_pivotwise(a, first_col, first_row)
    x = np.zeros(len(a))
    x[0] = 1.0
    for k in range(1, len(a)):
        x[k] = x[first_row[k]:k] @ a[first_row[k]:k, k]
        if x[k] > solver._RESCALE_AT:
            x[:k + 1] = np.ldexp(x[:k + 1], -int(np.frexp(x[k])[1]))
    return x / x.sum()


def push_pivotwise(rates, slack, mu):
    """The resolvent push from oracles.censor_pivotwise, folded down and
    back-substituted up state by state."""
    a = np.array(rates, dtype=float)
    first_col, first_row = solver._profile(a)
    s = censor_pivotwise(a, first_col, first_row,
                         np.array(slack, float)[:, None])
    x = np.array(np.transpose(mu), dtype=float, order="C")
    for k in range(len(a) - 1, -1, -1):
        x[k] /= s[k]
        x[first_col[k]:k] += np.multiply.outer(a[k, first_col[k]:k], x[k])
    for k in range(1, len(a)):
        x[k] += a[first_row[k]:k, k] @ x[first_row[k]:k]
    return x.T


BLOCKED_CASES = {
    # dense: every strip is wider than the block and enters as an identity
    "ou_grid": lambda: ou_grid(300).kernel,
    # banded: every strip is narrower than the block
    "birth_death": lambda: birth_death(300, 0.7).kernel,
    # the corner entries widen the last strips to the whole kernel
    "lazy_cycle": lambda: lazy_cycle(300).kernel,
    "block_chain": lambda: block_chain(k=4, block_size=80).kernel,
}


class TestBlockedElimination:
    """solver._censor, its pivots run on one work array per block, held
    entrywise to oracles.censor_pivotwise on kernels wider than two
    blocks; so are the class laws and the pushes built on it."""

    # block_chain is reducible: without an exit its censored blocks would
    # leave states with no rate out, so it runs as a push only
    @pytest.mark.parametrize("case, exit", [
        *((case, False) for case in BLOCKED_CASES if case != "block_chain"),
        *((case, True) for case in BLOCKED_CASES)],
        ids=lambda v: {False: "law", True: "push"}.get(v, v))
    def test_censored_entries(self, case, exit):
        K = BLOCKED_CASES[case]()
        assert K.size > 2 * solver._BLOCK
        out = []
        for censor in (solver._censor, censor_pivotwise):
            a = np.array(K.rows)
            first_col, first_row = solver._profile(a)
            exits = (2.0 - K.rows.sum(axis=1))[:, None] if exit else None
            s = censor(a, first_col, first_row, exits)
            np.fill_diagonal(a, 0.0)  # never read
            out.append((a, s, exits, first_col, first_row))
        (a, s, exits, first_col, first_row), want = out
        assert_ulps(a, want[0])
        assert_ulps(s, want[1])
        if exit:
            assert_ulps(exits, want[2])
        assert_array_equal(first_col, want[3])
        assert_array_equal(first_row, want[4])

    @pytest.mark.parametrize("case", BLOCKED_CASES)
    def test_class_laws(self, case):
        K = BLOCKED_CASES[case]()
        d = decompose(K)
        assert d.n_classes
        for cls, law in zip(d.classes, d.class_measures):
            idx = list(cls.members)
            assert_ulps(law.weights[idx],
                        law_pivotwise(K.rows[np.ix_(idx, idx)]))

    def test_strip_into_a_stiff_state_stays_finite(self):
        # a birth-death chain whose law grows by 2^7 per state up to the
        # first state of the block [72, 136), flat after it, plus an edge
        # from state 71 straight into state 100, whose exit rates are
        # 1e-160: the censored rate 71 -> 100 is about 2^529, and the law
        # before the block passes 2^496
        n = 200
        lo = n - 2 * solver._BLOCK
        up = np.where(np.arange(n - 1) < lo, 0.5, 0.25)
        down = np.where(np.arange(1, n) <= lo, 0.5 / 128, 0.25)
        up[100] = down[99] = 1e-160  # the rates 100 -> 101 and 100 -> 99
        rows = np.diag(up, 1) + np.diag(down, -1)
        rows[lo - 1, 100] = 0.25
        np.fill_diagonal(rows, 1.0 - rows.sum(axis=1))
        (law,) = decompose(Kernel(StateSpace.range(n), rows)).class_measures
        want = law_pivotwise(rows)
        assert np.isfinite(law.weights).all()
        assert want[100] > 0.5 and want[0] < 1e-300
        normal = want >= np.finfo(float).tiny
        assert_ulps(law.weights[normal], want[normal])

    @pytest.mark.parametrize("case", BLOCKED_CASES)
    def test_push_of_a_stack(self, case):
        K = BLOCKED_CASES[case]()
        n = K.size
        slack = 2.0 - K.rows.sum(axis=1)
        rng = np.random.default_rng(5)
        for mu in (np.eye(n), rng.random((3, n)), rng.random(n)):
            assert_ulps(solver._resolvent_push(K.rows, slack, mu),
                        push_pivotwise(K.rows, slack, mu))


def sparse_cycle_kernel(rng, n):
    """Random stochastic rows on n states at a density of 1 to 10 %, plus
    a random cycle through every state, so the chain is irreducible."""
    density = rng.uniform(0.01, 0.1)
    rows = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
    order = rng.permutation(n)
    rows[order, np.roll(order, -1)] += rng.uniform(0.1, 1.0, n)
    rows /= rows.sum(axis=1, keepdims=True)
    return Kernel(StateSpace.range(n), rows)


class TestEnvelopeAbsorption:
    """Absorption weights by censoring, each pivot a sum of outflows."""

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_slow_leak_keeps_mass_one(self, eps):
        K = Kernel(S3, [[0.5, 0.5 - eps, eps],
                        [0.5, 0.5 - eps, eps],
                        [0.0, 0.0, 1.0]])
        pi = averaging_projector(K)
        assert np.abs(pi.sum(axis=1) - 1.0).max() <= 1e-15
        check_projector(decompose(K), K)

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_transient_sets_match_a_dense_solve(self, seed):
        # a sparse random transient set that drains into two absorbing
        # states, the last two
        rng = np.random.default_rng(200 + seed)
        t = int(rng.integers(40, 301))
        rows = np.zeros((t + 2, t + 2))
        rows[:t, :t] = sparse_cycle_kernel(rng, t).rows
        leaks = rng.random((t, 2)) * (rng.random((t, 2)) < 0.05)
        leaks[rng.integers(0, t), :] += 0.5
        rows[:t, t:] = leaks
        rows[:t] /= rows[:t].sum(axis=1, keepdims=True)
        rows[t, t] = rows[t + 1, t + 1] = 1.0
        K = Kernel(StateSpace.range(t + 2), rows)
        d = decompose(K)
        check_projector(d, K)
        assert list(d.transient.members) == list(range(t))
        targets = [int(c.members[0]) for c in d.classes]
        assert sorted(targets) == [t, t + 1]
        want = np.linalg.solve(np.eye(t) - rows[:t, :t], rows[:t, targets])
        assert np.abs(d.absorption[:t] - want).max() <= 1e-10
        assert np.abs(d.absorption.sum(axis=1) - 1.0).max() <= 1e-14

    def test_gamblers_ruin_matches_its_closed_form(self, monkeypatch):
        # up with probability 0.4 on 1..N-1, absorbed at 0 and N; from i
        # the walk ends at 0 with probability r^i (r^(N-i) - 1) / (r^N - 1)
        N, up = 300, 0.4
        rows = np.zeros((N + 1, N + 1))
        rows[0, 0] = rows[N, N] = 1.0
        for i in range(1, N):
            rows[i, i + 1] = up
            rows[i, i - 1] = 1.0 - up
        K = Kernel(StateSpace.range(N + 1), rows)
        calls = count_solves(monkeypatch)
        d = decompose(K)
        assert calls == []
        check_projector(d, K)
        r = (1.0 - up) / up
        i = np.arange(N + 1)
        at_zero = r ** i * (r ** (N - i) - 1.0) / (r ** N - 1.0)
        at_top = (r ** i - 1.0) / (r ** N - 1.0)
        assert np.abs(d.absorption[1:N, 0] / at_zero[1:N] - 1.0).max() <= 1e-12
        assert np.abs(d.absorption[1:N, 1] / at_top[1:N] - 1.0).max() <= 1e-12


class TestSolveEigen:
    def test_two_state(self):
        results = solve_eigen(TWO_STATE)
        assert len(results) == 1
        assert_allclose(results[0].nu.weights, [2 / 3, 1 / 3], rtol=1e-12)
        assert results[0].residual <= 1e-12

    def test_one_per_class(self):
        P = Kernel(S3, [[1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0],
                        [0.3, 0.5, 0.2]])
        results = solve_eigen(P)
        assert len(results) == 2
        for r in results:
            assert_allclose(push(r.nu, P).weights, r.nu.weights, atol=1e-12)


class TestSolveCesaroAdjoint:
    def test_counterexample_transient_reference(self):
        # reference charging only the transient corner: zero measure out
        res = solve_cesaro_adjoint(ABSORBING_PAIR, Measure(S2, [1.0, 0.0]))
        assert res.nu.mass == 0.0
        assert res.converged

    def test_counterexample_full_reference(self):
        res = solve_cesaro_adjoint(ABSORBING_PAIR, Measure(S2, [0.5, 0.5]))
        assert_allclose(res.nu.weights, [0.0, 1.0], atol=1e-12)
        assert res.residual <= 1e-12

    def test_matches_eigen_on_random_ergodic(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            K = random_ergodic(rng, n)
            m = Measure(K.space, rng.random(n) + 0.05)
            nu = solve_cesaro_adjoint(K, m).nu
            ref = solve_eigen(K)[0].nu
            tv = 0.5 * np.abs(nu.normalized().weights
                              - ref.normalized().weights).sum()
            assert tv <= 1e-8

    def test_invariance_of_output(self):
        m = Measure(S2, [0.4, 0.6])
        nu = solve_cesaro_adjoint(TWO_STATE, m).nu
        assert_allclose(push(nu, TWO_STATE).weights, nu.weights, atol=1e-12)

    def test_zero_mass_reference_rejected(self):
        with pytest.raises(ValueError, match="positive mass"):
            solve_cesaro_adjoint(TWO_STATE, Measure(S2, [0.0, 0.0]))

    def test_slow_chain_needs_no_doublings(self):
        # slow to mix: the doubling oracle needs 14 doublings here
        K = birth_death(30, 0.55).kernel
        m = Measure(K.space, np.full(30, 1 / 30))
        res = solve_cesaro_adjoint(K, m)
        assert (res.iterations, res.converged) == (0, True)
        assert res.diagnostics == {"kept_classes": [list(range(30))],
                                   "underflowed_atoms": 0}
        assert np.abs(res.nu.weights - cesaro_doubling(K, m)).sum() <= 2e-12

    def test_general_kernel_has_no_decomposition(self):
        K = Kernel(S2, TWO_STATE.rows, kind="general")
        with pytest.raises(ValueError, match="decomposition needs"):
            solve_cesaro_adjoint(K, Measure(S2, [0.5, 0.5]))

    def test_killed_mass_leaves_through_the_censored_states(self):
        # supp(m) = {0, 1, 2}: state 0 moves to state 3 at 0.1, where the
        # mass dies although K leads it on into {2}, and to state 1 at
        # 0.5; state 1 loses 0.2 and feeds the closed class {2} at 0.3
        K = Kernel(StateSpace.range(4), [[0.4, 0.5, 0.0, 0.1],
                                         [0.0, 0.5, 0.3, 0.0],
                                         [0.0, 0.0, 1.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0]],
                   kind="sub-markovian")
        m = Measure(K.space, [0.25, 0.25, 0.5, 0.0])
        res = solve_cesaro_adjoint(K, m)
        assert res.diagnostics["kept_classes"] == [[2]]
        # the walk ends in {2} with probability 0.6 from 1, 0.5 from 0
        assert_allclose(res.nu.weights,
                        [0.0, 0.0, 0.5 + 0.25 * 0.6 + 0.25 * 0.5, 0.0],
                        rtol=1e-15)
        assert np.abs(res.nu.weights - cesaro_doubling(K, m)).sum() <= 2e-12

    def test_class_partly_inside_the_support_leaks(self):
        # {0, 1} is a closed class of K, but m charges only state 0
        K = Kernel(S3, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        res = solve_cesaro_adjoint(K, Measure(S3, [1.0, 0.0, 1.0]))
        assert res.diagnostics["kept_classes"] == [[2]]
        assert_array_equal(res.nu.weights, [0.0, 0.0, 1.0])

    def test_random_kernels_from_a_dirac_start(self):
        # edges of 1e-300 leave atoms near 1e-301, or subnormal ones, on
        # the way to a closed class: the limit keeps all of the mass
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(3, 30))
            density = rng.choice([0.1, 0.3, 0.6])
            edges = rng.random((n, n)) < density
            rows = np.where(edges, rng.random((n, n)), 0.0)
            faint = ~edges & (rng.random((n, n)) < 0.05)
            rows[faint] = rng.choice([1e-9, 1e-13, 1e-300],
                                     size=int(faint.sum()))
            empty = rows.sum(axis=1) == 0.0
            rows[empty, rng.integers(0, n, int(empty.sum()))] = 1.0
            K = Kernel(StateSpace.range(n), rows / rows.sum(axis=1,
                                                            keepdims=True))
            m = auxiliary_measure(K, dirac(K.space, int(rng.integers(n))))
            res = solve_cesaro_adjoint(K, m)
            assert abs(res.nu.mass - 1.0) <= 1e-12, trial


class TestCesaroSupportBlock:
    """The exact limit on supp(m) against the plain doubling of
    oracles.cesaro_doubling."""

    @staticmethod
    def solve(K, m):
        res = solve_cesaro_adjoint(K, m)
        gap = float(np.abs(res.nu.weights - cesaro_doubling(K, m)).sum())
        return res, gap

    def test_birth_death_uniform_start_matches_the_doubling(self):
        K = birth_death(600, 0.7).kernel
        m = Measure(K.space, np.full(600, 1 / 600))
        res, gap = self.solve(K, m)
        assert gap <= 2e-12
        assert_allclose(res.nu.mass, 1.0, rtol=1e-12)

    def test_block_chain_reference_on_one_block(self):
        K = block_chain(3, 40).kernel
        w = np.zeros(120)
        w[40:80] = 1.0
        res, gap = self.solve(K, Measure(K.space, w))
        assert gap <= 2e-12
        assert_allclose(res.nu.mass, 40.0, rtol=1e-12)
        assert (res.density.values[w == 0.0] == 0.0).all()

    @staticmethod
    def harnack_reference(n, p_down):
        """The harnack stage's reference: the row at 0 smoothed by R."""
        K = birth_death(n, p_down).kernel
        return K, auxiliary_measure(K, push(dirac(K.space, 0), K))

    def test_reference_with_subnormal_atoms(self):
        K, m = self.harnack_reference(400, 0.7)
        assert (m.weights > 0.0).all()
        assert (m.weights < np.finfo(float).tiny).any()
        res, gap = self.solve(K, m)
        assert res.converged
        assert gap <= 2e-12

    def test_underflowed_reference_keeps_its_structural_support(self):
        # 524 of the 1200 float atoms are positive; the other 676 only
        # underflowed, and on the float support the limit would be 0
        K, m = self.harnack_reference(1200, 0.55)
        assert np.count_nonzero(m.weights) == 524
        assert_array_equal(m.support, np.arange(1200))
        res = solve_cesaro_adjoint(K, m)
        assert res.diagnostics == {"kept_classes": [list(range(1200))],
                                   "underflowed_atoms": 676}
        assert_allclose(res.nu.mass, 1.0, rtol=1e-12)
        (eigen,) = solve_eigen(K)
        assert_array_equal(res.nu.weights > 0.0, eigen.nu.weights > 0.0)
        assert (res.density.values[m.weights == 0.0] == 0.0).all()
        K, m = self.harnack_reference(600, 0.55)
        assert self.solve(K, m)[1] <= 2e-12

    def test_harnack_reference_of_a_steep_chain_solves(self):
        # FOUND 26: the float reference ends at atom 250 with the
        # subnormal weight 3.5e-323, and nothing may divide by it
        K, m = self.harnack_reference(300, 0.9)
        res, gap = self.solve(K, m)
        assert res.converged
        assert_allclose(res.nu.mass, 1.0, rtol=1e-12)
        assert gap <= 2e-12

    def test_underflowed_bundle_reference_has_no_invariant_part(self):
        # the bundle's closed-form law is positive on 880 of 1200 atoms in
        # floats; killed outside them the chain leaks at atom 879
        bundle = birth_death(1200, 0.7)
        assert np.count_nonzero(bundle.m.weights) == 880
        res = solve_cesaro_adjoint(bundle.kernel, bundle.m)
        assert res.nu.mass == 0.0
        assert res.diagnostics["kept_classes"] == []

    def test_density_vanishes_off_the_support(self):
        # m is invariant on the swap {0, 1}; state 2 is off supp(m)
        K = Kernel(S3, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        res, gap = self.solve(K, Measure(S3, [0.5, 0.5, 0.0]))
        assert gap == 0.0
        assert_array_equal(res.density.values, [1.0, 1.0, 0.0])

    def test_density_past_the_float_range_reads_inf(self):
        # m(2) = 1e-320 is subnormal, and all of the limit mass sits there
        K = Kernel(S3, [[1.0, 1e-200, 0.0], [0.0, 1.0, 1e-120],
                        [0.0, 0.0, 1.0]])
        m = auxiliary_measure(K, dirac(S3, 0))
        res = solve_cesaro_adjoint(K, m)
        assert_array_equal(res.nu.weights, [0.0, 0.0, 1.0])
        assert res.density.extended
        assert_array_equal(res.density.values, [0.0, 0.0, np.inf])


class TestSpanProductOracle:
    """The doubling with every product dense reaches the limit that the
    solver reads off the decomposition, with no product of its own."""

    @pytest.mark.parametrize("case", ["birth_death", "block_chain"])
    def test_dense_products_agree(self, case, monkeypatch):
        if case == "birth_death":
            K = birth_death(600, 0.7).kernel
            m = Measure(K.space, np.full(600, 1 / 600))
        else:
            bundle = block_chain(k=4, block_size=150)
            K, m = bundle.kernel, bundle.m
        products = product_spy(monkeypatch, dense=True)
        res = solve_cesaro_adjoint(K, m)
        assert products == []
        dense = cesaro_doubling(K, m)
        assert np.abs(res.nu.weights - dense).sum() <= 2e-12 * m.mass


class TestSolveContinuous:
    def test_symmetric_pair(self):
        G = Generator(S2, [[-1.0, 1.0], [1.0, -1.0]])
        results = solve_continuous(G)
        assert len(results) == 1
        assert_allclose(results[0].nu.weights, [0.5, 0.5], rtol=1e-12)

    def test_block_generator_two_classes(self):
        sp = StateSpace.range(4)
        rates = np.array([[-1.0, 1.0, 0.0, 0.0],
                          [2.0, -2.0, 0.0, 0.0],
                          [0.0, 0.0, -0.5, 0.5],
                          [0.0, 0.0, 0.5, -0.5]])
        results = solve_continuous(Generator(sp, rates))
        assert len(results) == 2
        found = sorted((tuple(np.round(r.nu.weights, 9)) for r in results))
        assert_allclose(found[0], [0.0, 0.0, 0.5, 0.5], atol=1e-12)
        assert_allclose(found[1], [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)

    def test_class_laws_checked_on_the_class_block(self, monkeypatch):
        # 100 two-state classes: every push stays on one class block
        calls = push_spy(monkeypatch)
        rates = np.zeros((200, 200))
        for lo in range(0, 200, 2):
            up, down = 1.0 + lo / 100, 2.0
            rates[lo:lo + 2, lo:lo + 2] = [[-up, up], [down, -down]]
        results = solve_continuous(Generator(StateSpace.range(200), rates))
        assert len(results) == 100
        assert calls and max(max(a) for a, _ in calls) <= 2
        for k, res in enumerate(results):
            up = 1.0 + 2 * k / 100
            assert_allclose(res.nu.weights[2 * k:2 * k + 2],
                            [2.0 / (up + 2.0), up / (up + 2.0)], rtol=1e-12)


class TestCountBound:
    def test_two_block_tight_case(self):
        sp = StateSpace.range(4)
        P = Kernel(sp, [[0.5, 0.5, 0.0, 0.0],
                        [0.5, 0.5, 0.0, 0.0],
                        [0.0, 0.0, 0.5, 0.5],
                        [0.0, 0.0, 0.5, 0.5]])
        m = Measure(sp, [0.25, 0.25, 0.25, 0.25])
        out = verify_count_bound(P, m, PhiLinear(2.0), 0.0)
        assert out["count"] == 2
        assert_allclose(out["bound"], 2.0)
        assert out["tight"]

    def test_unique_flag(self):
        m = Measure(S2, [2 / 3, 1 / 3])
        out = verify_count_bound(TWO_STATE, m, PhiLinear(0.35), 0.7)
        # bound 7/6 < 2 forces a single class; phi(mass/2) = 0.175 < 0.3
        assert out["count"] == 1
        assert_allclose(out["bound"], 7 / 6)
        assert out["unique"]
        assert not out["tight"]

    def test_failing_concentration_rejected(self):
        m = Measure(S2, [2 / 3, 1 / 3])
        with pytest.raises(ValueError, match="concentration"):
            verify_count_bound(TWO_STATE, m, PhiLinear(0.5), 0.0)
