"""Worst-set search and knapsack back ends: frozen cases and cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ergocert.certificates.phi import PhiLinear, PhiPower, PhiTable
from ergocert.certificates.worstset import (
    fractional_knapsack,
    knapsack_best,
    signed_excess,
    worst_set_search,
)
from oracles import achieved, brute_force_worst, random_phi


class TestSignedExcess:
    def test_linear_frozen(self):
        row = [0.5, 0.3, 0.2]
        base = [0.1, 0.2, 0.7]
        assert_allclose(signed_excess(row, base, 1.0), 0.5, atol=1e-15)

    def test_zero_coefficient_sums_row(self):
        assert_allclose(signed_excess([0.4, 0.6], [0.5, 0.5], 0.0), 1.0)

    def test_large_coefficient_kills_everything(self):
        assert signed_excess([0.4, 0.6], [0.5, 0.5], 10.0) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            signed_excess([0.5], [0.2, 0.3], 1.0)


class TestWorstSetSearch:
    def test_linear_matches_signed_excess(self):
        row = np.array([0.5, 0.3, 0.2])
        base = np.array([0.1, 0.2, 0.7])
        found = worst_set_search(row, base, PhiLinear(1.0))
        assert_allclose(found.value, signed_excess(row, base, 1.0))
        assert found.members == (0, 1)

    def test_sqrt_modulus_frozen(self):
        # enumerating all 8 subsets puts the optimum at {0, 1}
        row = np.array([0.5, 0.3, 0.2])
        base = np.array([0.1, 0.2, 0.7])
        phi = PhiPower(1.0, 1.0, 2.0)
        found = worst_set_search(row, base, phi)
        assert_allclose(found.value, 0.8 - np.sqrt(0.3), rtol=1e-12)
        assert found.members == (0, 1)
        assert brute_force_worst(row, base, phi)[1] == (0, 1)

    def test_zero_base_atom_is_free(self):
        row = np.array([0.3, 0.2])
        base = np.array([0.0, 0.5])
        found = worst_set_search(row, base, PhiPower(1.0, 1.0, 2.0))
        assert_allclose(found.value, 0.3, atol=1e-15)
        assert found.members == (0,)

    def test_empty_set_floor(self):
        # nothing is worth taking, the empty set scores zero
        found = worst_set_search([0.1, 0.1], [0.5, 0.5], PhiLinear(5.0))
        assert found.value == 0.0
        assert found.members == ()

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            worst_set_search([-0.1, 0.5], [0.5, 0.5], PhiLinear(1.0))

    def test_modulus_outside_the_families_rejected(self):
        # the prefix scan is exact only for the concave families, so any
        # other callable is refused up front, however many atoms there are
        rng = np.random.default_rng(3)
        row = rng.random(30)
        base = rng.random(30)
        for phi in (lambda t: 0.5 * t, lambda t: np.asarray(t) ** 2):
            with pytest.raises(ValueError, match="PhiLinear, PhiPower or "
                                                 "PhiTable"):
                worst_set_search(row, base, phi)
            with pytest.raises(ValueError, match="PhiLinear, PhiPower or "
                                                 "PhiTable"):
                worst_set_search(row[:3], base[:3], phi)

    def test_table_modulus(self):
        phi = PhiTable([0.0, 0.5, 1.0], [0.0, 0.6, 0.9])
        row = np.array([0.55, 0.45])
        base = np.array([0.5, 0.5])
        found = worst_set_search(row, base, phi)
        # {0}: 0.55-0.6 < 0, {0,1}: 1.0-0.9 = 0.1, {1}: 0.45-0.6 < 0
        assert_allclose(found.value, 0.1, atol=1e-12)
        assert found.members == (0, 1)


class TestPrefixEqualsEnumeration:
    def test_random_trials_agree_with_subset_enumeration(self):
        # 240 randomized instances, each scored by the prefix scan and by
        # the subset enumeration of tests/oracles.py; the two values agree
        # and the returned members achieve the returned value.
        rng = np.random.default_rng(2024)
        sizes = ([int(rng.integers(2, 13)) for _ in range(180)]
                 + [int(rng.integers(13, 19)) for _ in range(52)]
                 + [19, 20, 21, 22, 22, 21, 20, 19])
        assert len(sizes) >= 200
        for trial, n in enumerate(sizes):
            row = rng.random(n) * rng.choice([0.5, 1.0, 2.0])
            base = rng.random(n)
            base[rng.random(n) < 0.15] = 0.0  # free atoms
            row[rng.random(n) < 0.1] = 0.0    # useless atoms
            phi = random_phi(rng)
            found = worst_set_search(row, base, phi)
            oracle, _ = brute_force_worst(row, base, phi)
            scale = max(1.0, abs(found.value))
            assert abs(found.value - oracle) <= 1e-9 * scale, (
                f"trial {trial}: prefix {found.value} vs enumeration {oracle}")
            got = achieved(row, base, phi, found.members)
            assert abs(got - found.value) <= 1e-9 * scale, (
                f"trial {trial}: members achieve {got}, not {found.value}")

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_prefix_value_is_achieved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        row = rng.random(n)
        base = rng.random(n)
        phi = random_phi(rng)
        found = worst_set_search(row, base, phi)
        assert_allclose(found.value, achieved(row, base, phi, found.members),
                        rtol=1e-12, atol=1e-12)
        assert found.value >= -1e-15


def _brute_knapsack(v, w, cap):
    best = 0.0
    for s in range(1 << len(v)):
        pick = [j for j in range(len(v)) if (s >> j) & 1]
        if w[pick].sum() <= cap + 1e-12:
            best = max(best, float(v[pick].sum()))
    return best


def _awkward_instance(rng):
    # coarse grids make tied ratios and equal items; zero weights are
    # free, weights above the cap can never be taken
    n = int(rng.integers(1, 12))
    v = rng.integers(0, 5, size=n) / 4.0
    w = rng.integers(0, 5, size=n) / 4.0
    w[rng.random(n) < 0.15] = rng.uniform(2.0, 3.0)
    cap = float(rng.choice([0.0, 0.25, 0.5, 1.0, 1.25, 1.9]))
    return v, w, cap


class TestKnapsack:
    def test_classic_frozen(self):
        res = knapsack_best([6.0, 10.0, 12.0], [1.0, 2.0, 3.0], 5.0)
        assert_allclose(res.value, 22.0)
        assert res.members == (1, 2)
        assert res.exact

    def test_fractional_upper_bound_frozen(self):
        out = fractional_knapsack([6.0, 10.0, 12.0], [1.0, 2.0, 3.0], 5.0)
        assert_allclose(out, 24.0)

    def test_fractional_skips_items_heavier_than_the_cap(self):
        # the heavy item fits in no set, so it adds nothing to the bound
        assert_allclose(fractional_knapsack([5.0, 1.0], [2.0, 0.5], 1.0), 1.0)
        assert fractional_knapsack([5.0], [2.0], 1.0) == 0.0

    def test_zero_weight_items_always_taken(self):
        res = knapsack_best([1.0, 2.0], [0.0, 5.0], 1.0)
        assert_allclose(res.value, 1.0)
        assert 0 in res.members

    def test_capacity_zero(self):
        res = knapsack_best([1.0, 2.0], [0.5, 0.5], 0.0)
        assert res.value == 0.0
        assert res.members == ()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            knapsack_best([1.0], [1.0], -1.0)

    def test_against_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            v = rng.random(n)
            w = rng.random(n)
            cap = float(rng.uniform(0.1, 2.0))
            res = knapsack_best(v, w, cap)
            best = _brute_knapsack(v, w, cap)
            assert_allclose(res.value, best, rtol=1e-12, atol=1e-12)
            assert res.value <= fractional_knapsack(v, w, cap) + 1e-12

    def test_awkward_instances_match_brute_force(self):
        rng = np.random.default_rng(19)
        for trial in range(300):
            v, w, cap = _awkward_instance(rng)
            res = knapsack_best(v, w, cap)
            picked = list(res.members)
            assert res.exact
            assert w[picked].sum() <= cap + 1e-12, trial
            assert_allclose(v[picked].sum(), res.value, atol=1e-12)
            assert_allclose(res.value, _brute_knapsack(v, w, cap),
                            atol=1e-12, err_msg=f"trial {trial}")

    def test_floor_only_cuts_sets_no_better(self):
        rng = np.random.default_rng(23)
        for trial in range(200):
            v, w, cap = _awkward_instance(rng)
            best = _brute_knapsack(v, w, cap)
            floor = float(rng.uniform(0.0, 1.5)) * max(best, 0.25)
            res = knapsack_best(v, w, cap, floor=floor)
            assert res.exact
            assert res.value <= best + 1e-12, trial
            assert max(res.value, floor) >= best - 1e-12, trial

    def test_node_budget_truncates_to_feasible_lower_bound(self):
        rng = np.random.default_rng(29)
        v = rng.random(12)
        w = v + 0.01 * rng.random(12)  # near-equal ratios: many nodes
        cap = 0.5 * float(w.sum())
        res = knapsack_best(v, w, cap, node_cap=5)
        best = _brute_knapsack(v, w, cap)
        assert not res.exact
        picked = list(res.members)
        assert w[picked].sum() <= cap + 1e-12
        assert_allclose(v[picked].sum(), res.value, atol=1e-12)
        assert res.value <= best + 1e-12
        assert knapsack_best(v, w, cap).exact

    def test_deep_search_needs_no_recursion_limit(self, monkeypatch):
        import sys

        def refuse(limit):
            raise AssertionError("knapsack search changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        rng = np.random.default_rng(31)
        v = rng.random(5000) + 0.5
        w = v * (1.0 + 1e-3 * rng.random(5000))
        cap = 0.5 * float(w.sum())
        res = knapsack_best(v, w, cap, node_cap=200_000)
        picked = list(res.members)
        assert w[picked].sum() <= cap + 1e-9
        assert res.value <= fractional_knapsack(v, w, cap) + 1e-9
        assert res.value >= 0.99 * fractional_knapsack(v, w, cap)
