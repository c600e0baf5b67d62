"""Almost-invariance certificates, index profiles, and modulus classes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ergocert.core import Kernel, Measure, StateSpace, StateSet, dirac, push
from ergocert.scenarios import birth_death
from ergocert.semigroup import Generator, auxiliary_measure
from ergocert.certificates.phi import (
    AlmostInvarianceParams,
    PhiLinear,
    PhiPower,
    PhiTable,
)
from ergocert.certificates import almost, averages
from ergocert.certificates.almost import (
    check_absolute_continuity,
    check_almost_invariant,
    check_mean_almost_invariant,
    check_occupation_half,
    check_partial_subinvariance,
    check_resolvent_almost_invariant,
    check_seed_index,
    check_uniform_lp_bound,
    index_profile,
    lp_operator_norm,
    optimal_linear_params,
    profile_certificate,
)
from ergocert.certificates.averages import (
    LIMIT,
    geometric_horizons,
    limit_row,
    mean_rows,
)
from ergocert.certificates.worstset import KnapsackResult, knapsack_best
from oracles import push_spy, reachable

S2 = StateSpace.range(2)
TWO_STATE = Kernel(S2, [[0.9, 0.1], [0.2, 0.8]])
ABSORBING_PAIR = Kernel(S2, [[0.0, 1.0], [0.0, 1.0]])
SYM = Generator(S2, [[-1.0, 1.0], [1.0, -1.0]])
M_INV = Measure(S2, [2 / 3, 1 / 3])
M_UNIFORM = Measure(S2, [0.5, 0.5])
DELTA0 = Measure(S2, [1.0, 0.0])


class TestModulusFamilies:
    def test_linear_inverse_roundtrip(self):
        phi = PhiLinear(2.5)
        assert_allclose(phi.inverse(phi(0.3)), 0.3)
        assert_allclose(phi.scale(2.0)(0.3), 1.5)

    def test_power_inverse_roundtrip(self):
        phi = PhiPower(1.3, mult=0.7, p=3.0)
        assert_allclose(phi.inverse(phi(0.42)), 0.42)

    def test_table_interpolation_and_extension(self):
        phi = PhiTable([0.0, 0.5, 1.0], [0.0, 0.6, 0.9])
        assert_allclose(phi(0.25), 0.3)
        # past the last knot the final slope continues
        assert_allclose(phi(2.0), 0.9 + 0.6)
        assert_allclose(phi.inverse(0.3), 0.25)

    def test_table_rejects_convex_shape(self):
        with pytest.raises(ValueError, match="concave"):
            PhiTable([0.0, 0.5, 1.0], [0.0, 0.1, 0.9])

    def test_table_must_start_at_origin(self):
        with pytest.raises(ValueError, match="start"):
            PhiTable([0.1, 1.0], [0.0, 0.5])

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AlmostInvarianceParams(PhiLinear(1.0), -0.1)
        with pytest.raises(ValueError):
            AlmostInvarianceParams(PhiLinear(1.0), 0.1, horizon=0)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_power_concavity_midpoint(self, a, b):
        phi = PhiPower(1.0, 1.0, 2.0)
        assert phi(0.5 * (a + b)) >= 0.5 * (phi(a) + phi(b)) - 1e-12


class TestAbsoluteContinuity:
    def test_full_support_holds(self):
        cert = check_absolute_continuity(TWO_STATE, M_INV)
        assert cert.holds
        assert cert.constants["null_atoms"] == 0

    def test_leak_into_null_atom(self):
        cert = check_absolute_continuity(ABSORBING_PAIR, DELTA0)
        assert not cert.holds
        assert cert.witness == {"atom": "s1", "leak": 1.0}

    def test_null_atoms_come_from_the_support(self):
        # 794 atoms of this auxiliary measure underflowed to 0, yet every
        # state is reachable: none of them is null
        K = birth_death(1200, 0.7).kernel
        m = auxiliary_measure(K, push(dirac(K.space, 0), K))
        cert = check_absolute_continuity(K, m)
        assert cert.holds
        assert cert.constants["null_atoms"] == 0
        float_only = check_absolute_continuity(K, Measure(K.space, m.weights))
        assert float_only.constants["null_atoms"] == 794

    def test_generator_read_from_its_rates(self):
        cert = check_absolute_continuity(SYM, DELTA0)
        assert not cert.holds
        assert cert.witness == {"atom": "s1", "leak": 1.0}

    @pytest.mark.parametrize("n, p_down, atom",
                             [(360, 0.9, "s340"), (1200, 0.7, "s880")])
    def test_closed_form_law_of_a_steep_chain_fails(self, n, p_down, atom):
        # the closed-form law underflows to 0 past the witness atom: the
        # edge into it carries a flow that underflows too, yet it is an
        # edge, and the law is no reference the dynamics respect
        bd = birth_death(n, p_down)
        cert = check_absolute_continuity(bd.kernel, bd.m)
        assert not cert.holds
        assert cert.witness == {"atom": atom, "leak": 0.0}


def faint_edges(rng):
    """Random edge weights on 3..29 states: each edge is present with
    probability 0.1, 0.3 or 0.6 and a uniform weight, and 5 % of the
    other pairs get a faint edge of weight 1e-9, 1e-13 or 1e-300."""
    n = int(rng.integers(3, 30))
    present = rng.random((n, n)) < rng.choice([0.1, 0.3, 0.6])
    edges = np.where(present, rng.random((n, n)), 0.0)
    faint = ~present & (rng.random((n, n)) < 0.05)
    edges[faint] = rng.choice([1e-9, 1e-13, 1e-300], size=int(faint.sum()))
    return edges


def faint_kernel(rng):
    """A markovian kernel on the edges of faint_edges, each empty row
    given one edge of weight 1."""
    rows = faint_edges(rng)
    n = len(rows)
    empty = rows.sum(axis=1) == 0.0
    rows[empty, rng.integers(0, n, int(empty.sum()))] = 1.0
    return Kernel(StateSpace.range(n), rows / rows.sum(axis=1, keepdims=True))


class TestAbsoluteContinuityGraph:
    """The verdict against oracles.reachable, on graphs whose faint edges
    carry flows far below any float tolerance."""

    @staticmethod
    def references(rng, S, alpha):
        """A random partial reference, the auxiliary measure of a Dirac
        start, and its float weights alone: past two faint edges they
        underflow to 0, and the edge into such an atom carries no float
        flow."""
        n = S.size
        w = rng.random(n) * (rng.random(n) < rng.uniform(0.2, 0.9))
        w[rng.integers(n)] = 1.0
        aux = auxiliary_measure(S, dirac(S.space, int(rng.integers(n))),
                                alpha)
        return (Measure(S.space, w), aux, Measure(S.space, aux.weights))

    @staticmethod
    def graph_verdict(S, m, rates) -> bool:
        """Assert the verdict and witness that the graph gives; return
        whether the check holds."""
        support = set(m.support.tolist())
        cert = check_absolute_continuity(S, m)
        assert cert.holds == (reachable(rates, support) <= support)
        if not cert.holds:
            # the entered atom with the largest flow, the first on a tie
            entered = [y for y in range(S.size) if y not in support
                       and any(rates[x, y] > 0.0 for x in support)]
            flow = m.weights @ rates
            atom = max(entered, key=lambda y: flow[y])
            assert cert.witness == {"atom": S.space.labels[atom],
                                    "leak": float(flow[atom])}
        return cert.holds

    def test_random_kernels(self):
        rng = np.random.default_rng(23)
        failed = 0
        for _ in range(300):
            K = faint_kernel(rng)
            for m in self.references(rng, K, 1.0):
                failed += not self.graph_verdict(K, m, K.rows)
        assert failed > 0

    def test_random_generators(self):
        rng = np.random.default_rng(29)
        failed = 0
        for _ in range(100):
            off = faint_edges(rng)
            np.fill_diagonal(off, 0.0)
            G = Generator(StateSpace.range(len(off)),
                          off - np.diag(off.sum(axis=1)))
            for m in self.references(rng, G, float(rng.uniform(0.2, 5.0))):
                failed += not self.graph_verdict(G, m, G.rates)
        assert failed > 0


class TestSolveCounts:
    """Resolvent pushes on Q = K - I of birth_death(50): one per resolvent
    kernel or smoothed measure, none for the support check."""

    K = birth_death(50).kernel
    G = Generator(K.space, K.rows - np.eye(50))
    M = Measure(K.space, np.full(50, 1 / 50))
    PARAMS = AlmostInvarianceParams(PhiLinear(1.0), 0.5)

    @pytest.mark.parametrize("run, solves", [
        (lambda G, m, params: auxiliary_measure(G, m), 1),
        (lambda G, m, params: check_absolute_continuity(G, m), 0),
        (lambda G, m, params: check_resolvent_almost_invariant(G, m, params),
         5),
        (lambda G, m, params: check_uniform_lp_bound(G, m, 2.0), 5),
    ], ids=["auxiliary-measure", "absolute-continuity",
            "resolvent-almost-invariance", "uniform-lp-bound"])
    def test_solves(self, monkeypatch, run, solves):
        calls = push_spy(monkeypatch)
        run(self.G, self.M, self.PARAMS)
        assert len(calls) == solves


class TestOptimalLinearParams:
    def test_invariant_reference_has_no_leak(self):
        out = optimal_linear_params(TWO_STATE, M_INV)
        assert_allclose(out["c"], 3.0)
        assert out["delta"] == 0.0

    def test_counterexample_leaks_everything(self):
        out = optimal_linear_params(ABSORBING_PAIR, DELTA0)
        assert out["c"] == 1.0
        assert out["delta"] == 1.0

    def test_mean_mode_converges_to_same_leak(self):
        out = optimal_linear_params(ABSORBING_PAIR, DELTA0, mode="mean")
        assert out["delta"] == 1.0
        assert out["worst_horizon"] == "limit"

    def test_full_support_uniform(self):
        out = optimal_linear_params(ABSORBING_PAIR, M_UNIFORM)
        assert out == {"c": 2.0, "delta": 0.0, "null_flow_sup": 0.0,
                       "worst_horizon": 1}


class TestAlmostInvariance:
    def test_drifting_mass_fails_at_zero_leakage(self):
        params = AlmostInvarianceParams(PhiLinear(1.0), 0.0)
        cert = check_almost_invariant(TWO_STATE, M_UNIFORM, params)
        assert not cert.holds
        # uniform start converges to (2/3, 1/3): excess on {s0} is 1/6
        assert_allclose(cert.constants["delta_min"], 1 / 6, rtol=1e-12)
        assert cert.witness["set"] == ["s0"]

    def test_holds_with_enough_leakage(self):
        params = AlmostInvarianceParams(PhiLinear(1.0), 0.2)
        cert = check_almost_invariant(TWO_STATE, M_UNIFORM, params)
        assert cert.holds
        assert cert.constants["support_stable"]

    def test_mean_variant_reports_mass_floor(self):
        params = AlmostInvarianceParams(PhiLinear(1.0), 0.2)
        cert = check_mean_almost_invariant(TWO_STATE, M_UNIFORM, params)
        assert cert.holds
        assert_allclose(cert.constants["delta_min"], 1 / 6, rtol=1e-9)
        assert_allclose(cert.constants["mean_mass_liminf"], 1.0)

    def test_optimal_params_always_verify(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            rows = rng.random((n, n)) + 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
            K = Kernel(StateSpace.range(n), rows)
            m = Measure(K.space, rng.random(n) * (rng.random(n) > 0.2))
            if m.mass <= 0:
                continue
            opt = optimal_linear_params(K, m, horizon=64)
            params = AlmostInvarianceParams(PhiLinear(opt["c"]),
                                            opt["delta"] + 1e-12, horizon=64)
            assert check_almost_invariant(K, m, params).holds

    def test_generator_mean_rows_start_at_n0(self):
        # mass passes s0 -> s1 -> s2 at rate one and stays in s2; the
        # averaged occupation of the null atom s1 peaks at t = 2 and then
        # decays, so with n0 = 8 the grid times 1, 2 and 4 must not count
        G = Generator(StateSpace.range(3), [[-1.0, 1.0, 0.0],
                                            [0.0, -1.0, 1.0],
                                            [0.0, 0.0, 0.0]])
        m = Measure(G.space, [0.5, 0.0, 0.5])
        params = AlmostInvarianceParams(PhiLinear(2.0), 0.1, horizon=64, n0=8)
        ev = almost.Evidence(G, m, 64)
        rows = ev.rows("mean", n0=8)
        assert [t for t, _ in rows] == [8.0, 16.0, 32.0, 64.0, LIMIT]
        worst_below = max(row[1] for t, row in ev.rows("mean") if t != LIMIT)
        assert worst_below > max(row[1] for _, row in rows) + 0.05
        cert = check_mean_almost_invariant(ev, m, params)
        assert cert.constants["n0"] == 8
        assert cert.constants["worst_horizon"] == 8.0
        assert_allclose(cert.constants["delta_min"], rows[0][1][1],
                        rtol=1e-12)
        assert cert.holds


class TestEvidenceScores:
    """An Evidence scores each row family once per modulus."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("_worst_row", "_mass_sup", "check_absolute_continuity"):
            real = getattr(almost, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(almost, name, counted)
        return calls

    def test_equal_moduli_share_one_scan(self, calls):
        ev = almost.Evidence(TWO_STATE, M_UNIFORM, 32)
        first = check_almost_invariant(
            ev, M_UNIFORM, AlmostInvarianceParams(PhiLinear(1.0), 0.2,
                                                  horizon=32))
        # a modulus built apart but equal in value, a different delta
        again = check_almost_invariant(
            ev, M_UNIFORM, AlmostInvarianceParams(PhiLinear(1.0), 0.0,
                                                  horizon=32))
        assert calls == ["_worst_row", "check_absolute_continuity"]
        assert first.constants["delta_min"] == again.constants["delta_min"]
        assert first.holds and not again.holds
        check_almost_invariant(
            ev, M_UNIFORM, AlmostInvarianceParams(PhiLinear(2.0), 0.0,
                                                  horizon=32))
        check_almost_invariant(
            ev, M_UNIFORM, AlmostInvarianceParams(PhiPower(1.0), 0.0,
                                                  horizon=32))
        assert calls.count("_worst_row") == 3
        assert calls.count("check_absolute_continuity") == 1

    def test_power_scans_are_shared_across_n0(self, calls):
        ev = almost.Evidence(TWO_STATE, M_UNIFORM, 32)
        for check in (check_almost_invariant, check_mean_almost_invariant):
            for n0 in (1, 4, 1):
                check(ev, M_UNIFORM, AlmostInvarianceParams(
                    PhiLinear(1.0), 0.2, horizon=32, n0=n0))
        # one power scan; one mean scan per n0
        assert calls.count("_worst_row") == 3

    def test_null_sup_once_per_mode(self, calls):
        ev = almost.Evidence(ABSORBING_PAIR, DELTA0, 16)
        for mode in ("power", "mean", "power", "mean"):
            optimal_linear_params(ev, DELTA0, horizon=16, mode=mode)
        assert calls == ["_mass_sup", "_mass_sup"]

    def test_references_share_no_score(self, calls):
        params = AlmostInvarianceParams(PhiLinear(1.0), 0.2, horizon=32)
        apart = [check_almost_invariant(TWO_STATE, m, params).constants
                 for m in (M_UNIFORM, M_INV)]
        calls.clear()
        evs = [almost.Evidence(TWO_STATE, m, 32) for m in (M_UNIFORM, M_INV)]
        shared = [check_almost_invariant(ev, ev.m, params).constants
                  for ev in evs]
        assert calls == ["_worst_row", "check_absolute_continuity"] * 2
        assert shared == apart
        assert shared[0]["delta_min"] > 0.0 == shared[1]["delta_min"]

    @pytest.mark.parametrize("phi", [{"coef": 1.0}, lambda t: t],
                             ids=["unhashable", "callable"])
    def test_unsupported_modulus_is_refused_each_time(self, phi):
        ev = almost.Evidence(TWO_STATE, M_UNIFORM, 8)
        params = AlmostInvarianceParams(phi, 0.2, horizon=8)
        for _ in range(2):
            with pytest.raises(ValueError, match="worst-set search needs"):
                check_almost_invariant(ev, M_UNIFORM, params)


class TestIndexProfile:
    def test_counterexample_index_is_total_mass(self):
        prof = index_profile(ABSORBING_PAIR, DELTA0)
        assert_allclose(prof.index_estimate, 1.0)
        assert prof.threshold == 1.0
        assert not prof.holds
        assert prof.exact

    def test_uniform_reference_has_zero_index(self):
        prof = index_profile(ABSORBING_PAIR, M_UNIFORM)
        assert prof.index_estimate == 0.0
        assert prof.holds

    def test_fractional_ignores_atoms_heavier_than_the_cap(self):
        # both atoms weigh 0.5, more than every cap of the default grid
        prof = index_profile(ABSORBING_PAIR, M_UNIFORM)
        assert prof.fractional == (0.0, 0.0, 0.0, 0.0)
        assert prof.crisp == (0.0, 0.0, 0.0, 0.0)

    def test_evidence_computes_what_is_read_once(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(almost, name)

            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in ("power_rows", "mean_rows", "limit_row"):
            monkeypatch.setattr(almost, name, counted(name))
        ev = almost.Evidence(TWO_STATE, M_UNIFORM, 32)
        params = AlmostInvarianceParams(PhiLinear(2.0), 0.0, horizon=32)
        check_mean_almost_invariant(ev, M_UNIFORM, params)
        index_profile(ev, M_UNIFORM, horizon=32)
        # a kernel's means are running sums of its powers: one chain
        assert sorted(calls) == ["limit_row", "power_rows"]
        check_almost_invariant(ev, M_UNIFORM, params)
        assert sorted(calls) == ["limit_row", "power_rows"]

    def test_evidence_shared_by_the_checks(self):
        ev = almost.Evidence(TWO_STATE, M_UNIFORM, 32)
        params = AlmostInvarianceParams(PhiLinear(2.0), 0.0, horizon=32)
        for check in (check_almost_invariant, check_mean_almost_invariant):
            assert (check(ev, M_UNIFORM, params).constants
                    == check(TWO_STATE, M_UNIFORM, params).constants)
        assert (optimal_linear_params(ev, M_UNIFORM, horizon=32, mode="mean")
                == optimal_linear_params(TWO_STATE, M_UNIFORM, horizon=32,
                                         mode="mean"))
        assert (index_profile(ev, M_UNIFORM, horizon=32)
                == index_profile(TWO_STATE, M_UNIFORM, horizon=32))
        with pytest.raises(ValueError, match="another reference"):
            index_profile(ev, M_UNIFORM, horizon=64)
        with pytest.raises(ValueError, match="another reference"):
            optimal_linear_params(ev, M_INV, horizon=32)

    def test_certificate_wrapper(self):
        cert = profile_certificate(index_profile(ABSORBING_PAIR, DELTA0))
        assert not cert.holds
        assert cert.constants["index_estimate"] == 1.0

    def test_grid_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            index_profile(TWO_STATE, M_INV, eps_grid=[0.1, 0.2])

    def test_fractional_dominates_crisp(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            rows = rng.random((n, n))
            rows /= rows.sum(axis=1, keepdims=True)
            K = Kernel(StateSpace.range(n), rows)
            m = Measure(K.space, rng.random(n) + 0.01)
            prof = index_profile(K, m, horizon=32)
            for c, f in zip(prof.crisp, prof.fractional):
                assert f >= c - 1e-12

    def test_pruned_rows_keep_the_row_maximum(self):
        # rows whose fractional bound cannot beat the incumbent are never
        # searched; the crisp value must still be the max over all rows.
        # Near-permutation chains keep their running means apart, so the
        # row with the best bound is often not the one with the best set.
        rng = np.random.default_rng(1)
        for _ in range(16):
            n = int(rng.integers(5, 10))
            rows = 0.02 * rng.random((n, n)) + np.eye(n)[rng.permutation(n)]
            rows /= rows.sum(axis=1, keepdims=True)
            K = Kernel(StateSpace.range(n), rows)
            w = rng.random(n) ** 2 + 0.01
            w[rng.random(n) < 0.25] = 0.0
            w[0] = max(w[0], 0.5)
            m = Measure(K.space, w)
            prof = index_profile(K, m, horizon=16)
            keep = set(geometric_horizons(16))
            evidence = [(t, v) for t, v in mean_rows(K, m, 16) if t in keep]
            evidence.append((LIMIT, np.clip(limit_row(K, m), 0.0, None)))
            assert tuple(t for t, _ in evidence) == prof.horizons
            assert prof.exact
            for e, c in zip(prof.epsilons, prof.crisp):
                best = max(knapsack_best(v, w, e).value for _, v in evidence)
                assert_allclose(c, best, rtol=1e-12, atol=1e-15)

    def test_truncated_smallest_cap_leaves_bracket(self, monkeypatch):
        real = almost.knapsack_best

        def spent(values, weights, capacity, **kw):
            # node budget gone before any set beat the empty one
            return KnapsackResult(0.0, (), False)

        monkeypatch.setattr(almost, "knapsack_best", spent)
        prof = index_profile(ABSORBING_PAIR, DELTA0)
        assert not prof.exact
        assert prof.crisp[-1] < prof.threshold <= prof.fractional[-1]
        assert prof.verdict == "inconclusive"
        assert profile_certificate(prof).verdict == "inconclusive"
        # an upper bound below the mark still decides
        assert index_profile(ABSORBING_PAIR, M_UNIFORM).holds

        def lower_bound_only(values, weights, capacity, **kw):
            return replace(real(values, weights, capacity, **kw), exact=False)

        # a lower bound that already reaches the mark still refutes
        monkeypatch.setattr(almost, "knapsack_best", lower_bound_only)
        prof = index_profile(ABSORBING_PAIR, DELTA0)
        assert not prof.exact
        assert prof.verdict == "fails"


def steep_generator():
    """Q = K - I of birth_death(300, 0.9). From a Dirac start at state 0
    its resolvent measure at alpha = 1 reaches all 300 states, and the
    float weights of the last 49 underflow to 0."""
    K = birth_death(300, 0.9).kernel
    return Generator(K.space, K.rows - np.eye(K.size))


class TestResolventSide:
    def test_invariant_measure_passes(self):
        params = AlmostInvarianceParams(PhiLinear(2.0), 0.0)
        cert = check_resolvent_almost_invariant(SYM, M_UNIFORM, params)
        assert cert.holds
        assert cert.constants["delta_min"] <= 0.0
        assert cert.constants["resolvent_index"] == 0.0

    def test_kernel_input_rejected(self):
        params = AlmostInvarianceParams(PhiLinear(2.0), 0.0)
        with pytest.raises(ValueError, match="continuous-time"):
            check_resolvent_almost_invariant(TWO_STATE, M_UNIFORM, params)

    def test_underflowed_atoms_are_not_null(self):
        # the null atoms are those outside m.support, not those whose
        # float weight underflowed: no mass lands on them
        G = steep_generator()
        m = auxiliary_measure(G, dirac(G.space, 0), 1.0)
        assert np.count_nonzero(m.weights[m.support] == 0.0) == 49
        params = AlmostInvarianceParams(PhiLinear(2.0), 0.1)
        cert = check_resolvent_almost_invariant(G, m, params)
        assert cert.holds
        assert cert.constants["resolvent_index"] == 0.0


class TestSeedIndex:
    def test_reachable_space_gives_zero_index(self):
        cert = check_seed_index(SYM, DELTA0, 1.0)
        assert cert.holds
        assert cert.constants["c_tilde"] == 0.0
        assert cert.constants["shift_floor"] == 1.0
        assert len(cert.attached) == 1
        assert cert.attached[0].condition == "index-below-mass"

    def test_reference_mass_scales_with_alpha(self):
        cert = check_seed_index(SYM, DELTA0, 2.0)
        assert_allclose(cert.constants["ref_mass"], 0.5)
        assert_allclose(cert.constants["shift_floor"], 0.25)

    def test_seed_must_be_probability(self):
        with pytest.raises(ValueError, match="probability"):
            check_seed_index(SYM, Measure(S2, [0.4, 0.4]), 1.0)

    def test_underflowed_atoms_are_not_null(self):
        # every atom is reached from state 0, so no horizon puts mass on
        # a null atom and the first grid time is the worst
        G = steep_generator()
        cert = check_seed_index(G, dirac(G.space, 0), 1.0)
        assert cert.holds
        assert cert.constants["c_tilde"] == 0.0
        assert cert.constants["worst_horizon"] == 1


class TestPartialSubinvariance:
    def test_invariant_support_survives_whole(self):
        cert = check_partial_subinvariance(TWO_STATE, M_INV)
        assert cert.holds
        assert cert.constants["a_mass"] == 1.0
        assert cert.constants["delta"] == 0.0
        assert cert.witness["set"] == ["s0", "s1"]

    def test_absorbing_atom_found_after_peeling(self):
        cert = check_partial_subinvariance(ABSORBING_PAIR, M_UNIFORM)
        assert cert.holds
        assert cert.witness["set"] == ["s1"]
        assert_allclose(cert.constants["delta"], 0.5)
        assert cert.attached[0].holds

    def test_peeling_past_the_first_step(self):
        # the first violation this search peels sits at step 2, so the
        # heaviest contributor is read off a column of K^2
        rng = np.random.default_rng(0)
        u = rng.random((5, 5)) ** 4
        space = StateSpace.range(5)
        K = Kernel(space, u / u.sum(axis=1, keepdims=True))
        w = rng.random(5) ** 2
        cert = check_partial_subinvariance(K, Measure(space, w / w.sum()),
                                           horizon=16)
        assert cert.holds
        assert cert.constants["a_mass"] == 0.19030876700573196
        assert cert.witness["set"] == ["s0", "s4"]

    def test_transient_support_is_inconclusive(self):
        cert = check_partial_subinvariance(ABSORBING_PAIR, DELTA0)
        assert cert.verdict == "inconclusive"
        assert not cert.holds


class TestOccupationHalf:
    def test_heavy_target_with_limit_conclusion(self):
        cert = check_occupation_half(TWO_STATE, DELTA0, StateSet(S2, [0]))
        assert cert.holds
        assert_allclose(cert.constants["occupation_limit"], 2 / 3)
        assert cert.attached[0].holds

    def test_light_target_fails(self):
        cert = check_occupation_half(TWO_STATE, DELTA0, StateSet(S2, [1]))
        assert not cert.holds
        assert cert.constants["occupation_sup"] < 0.5

    def test_periodic_boundary_uses_support_fallback(self):
        swap = Kernel(S2, [[0.0, 1.0], [1.0, 0.0]])
        cert = check_occupation_half(swap, DELTA0, StateSet(S2, [0]))
        assert cert.holds
        assert cert.constants["occupation_limit"] == 0.5
        assert "support-based" in cert.notes
        assert cert.attached[0].holds

    def test_start_must_be_probability(self):
        with pytest.raises(ValueError, match="probability"):
            check_occupation_half(TWO_STATE, Measure(S2, [0.2, 0.2]),
                                  StateSet(S2, [0]))


class TestOperatorNorms:
    def test_absorbing_pair_closed_forms(self):
        assert lp_operator_norm(ABSORBING_PAIR, M_UNIFORM, 1)[0] == 2.0
        val, converged, _ = lp_operator_norm(ABSORBING_PAIR, M_UNIFORM, 2)
        assert converged
        assert_allclose(val, np.sqrt(2.0), rtol=1e-10)
        assert lp_operator_norm(ABSORBING_PAIR, M_UNIFORM, np.inf)[0] == 1.0

    def test_invariant_measure_is_contraction_in_l1(self):
        assert lp_operator_norm(TWO_STATE, M_INV, 1)[0] == 1.0

    def test_interpolation_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            rows = rng.random((n, n))
            rows /= rows.sum(axis=1, keepdims=True)
            K = Kernel(StateSpace.range(n), rows)
            m = Measure(K.space, rng.random(n) + 0.05)
            m1 = lp_operator_norm(K, m, 1)[0]
            mi = lp_operator_norm(K, m, np.inf)[0]
            m2, converged, _ = lp_operator_norm(K, m, 2)
            assert converged
            assert m2 <= np.sqrt(m1 * mi) * (1 + 1e-9)

    def test_needs_full_support(self):
        with pytest.raises(ValueError, match="fully supported"):
            lp_operator_norm(ABSORBING_PAIR, DELTA0, 2)


class TestUniformLpBound:
    def test_symmetric_flow_has_unit_norms(self):
        cert = check_uniform_lp_bound(SYM, M_UNIFORM, 2.0)
        assert cert.holds
        assert_allclose(cert.constants["M"], 1.0, rtol=1e-9)
        assert cert.attached[0].condition == "resolvent-almost-invariance"
        assert cert.attached[0].holds

    def test_caller_bound_enforced(self):
        cert = check_uniform_lp_bound(SYM, M_UNIFORM, 2.0, bound=0.5)
        assert not cert.holds
        assert cert.witness["norm"] >= 0.5

    def test_unsettled_norm_is_inconclusive(self, monkeypatch):
        # the iteration cap is read when the norm is computed
        monkeypatch.setattr(almost, "_NORM_MAXIT", 1)
        cert = check_uniform_lp_bound(SYM, M_UNIFORM, 2.0)
        assert cert.verdict == "inconclusive"
        assert "did not settle" in cert.notes
        assert cert.constants["iterations"] == 1

    def test_kernel_input_rejected(self):
        with pytest.raises(ValueError, match="continuous-time"):
            check_uniform_lp_bound(TWO_STATE, M_UNIFORM, 2.0)

    def test_conclusion_reads_the_formed_kernels(self, monkeypatch):
        # one push per resolvent kernel, none for the support check,
        # which reads the rates, and none for the class law; one
        # projector for the limit kernel
        solves = push_spy(monkeypatch)
        projectors = []
        for module in (almost, averages):
            real = module.averaging_projector

            def counted(S, _real=real):
                projectors.append(S)
                return _real(S)
            monkeypatch.setattr(module, "averaging_projector", counted)
        cert = check_uniform_lp_bound(SYM, M_UNIFORM, 2.0)
        assert cert.holds and cert.attached[0].holds
        assert len(solves) == 5
        assert len(projectors) == 1
