"""Acceptance suite: the eleven shipping criteria, one test each.

Every test prints a single "criterion NN: PASS (...)" line with the
measured numbers once its assertions clear; run with -s (or read the
-v test lines) to see them. Tolerances are stated inline and are not
adjustable from the command line on purpose.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from ergocert.core import Kernel, Measure, StateFn, StateSet, StateSpace
from ergocert.semigroup import (
    Generator,
    discrete_resolvent,
    resolvent,
    resolvent_raw,
    transition_at,
)
from ergocert.solver import (
    solve_cesaro_adjoint,
    solve_continuous,
    solve_eigen,
    verify_count_bound,
)
from ergocert.certificates.almost import index_profile
from ergocert.certificates.drift import (
    additive_drift_occupation_bound,
    check_additive_drift,
    check_drift_concentration,
    check_geometric_drift,
    check_smallness,
    power_row_gap,
)
from ergocert.certificates.phi import AlmostInvarianceParams, PhiLinear
from ergocert.certificates.worstset import worst_set_search
from ergocert.convergence import decay_report
from ergocert.harnack import (
    PerturbationSpec,
    certify_perturbation,
    harnack_constant,
    harnack_maximizer,
)
from ergocert.pipeline import four_way_verdicts
from ergocert.scenarios import birth_death, ou_grid
from oracles import achieved, brute_force_worst, random_phi

S2 = StateSpace.range(2)
COUNTEREXAMPLE = Kernel(S2, [[0.0, 1.0], [0.0, 1.0]])
SWAP = Kernel(S2, [[0.0, 1.0], [1.0, 0.0]])


def _pass(num, detail):
    print(f"criterion {num:02d}: PASS ({detail})")


def _stochastic(rng, n):
    rows = rng.random((n, n)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def random_kernel(rng, n):
    return Kernel(StateSpace.range(n), _stochastic(rng, n))


def random_generator(rng, n):
    off = rng.random((n, n)) * rng.choice([0.2, 1.0, 3.0])
    np.fill_diagonal(off, 0.0)
    rates = off.copy()
    np.fill_diagonal(rates, -off.sum(axis=1))
    return Generator(StateSpace.range(n), rates)


def multi_class_kernel(rng, n_transient, block_sizes):
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


def periodic_kernel(rng, sizes):
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    rows = np.zeros((n, n))
    for b in range(len(sizes)):
        c = (b + 1) % len(sizes)
        block = rng.random((sizes[b], sizes[c])) + 0.05
        block /= block.sum(axis=1, keepdims=True)
        rows[starts[b]:starts[b + 1], starts[c]:starts[c + 1]] = block
    return Kernel(StateSpace.range(n), rows)


def equivalence_pair(rng, family):
    """Sample from the agreement suite: full-support, periodic,
    class-supported, and transient-supported reference measures."""
    if family == 0:
        n = int(rng.integers(4, 40))
        K = random_kernel(rng, n)
        w = rng.random(n) + 0.05
    elif family == 1:
        sizes = [int(rng.integers(2, 6))
                 for _ in range(int(rng.integers(2, 5)))]
        K = periodic_kernel(rng, sizes)
        w = rng.random(K.size) + 0.05
    else:
        blocks = [int(rng.integers(2, 7))
                  for _ in range(int(rng.integers(1, 4)))]
        n_t = int(rng.integers(2, 7))
        K = multi_class_kernel(rng, n_t, blocks)
        w = np.zeros(K.size)
        if family == 2:
            w[n_t:] = rng.random(K.size - n_t) + 0.05
        else:
            w[:n_t] = rng.random(n_t) + 0.05
    return K, Measure(K.space, w)


def test_criterion_01_four_way_equivalence():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    pairs = [equivalence_pair(rng, trial % 4) for trial in range(48)]
    # four larger instances, one per family shape, within the state cap
    pairs.append((random_kernel(rng, 180),
                  Measure(StateSpace.range(180), rng.random(180) + 0.05)))
    K = multi_class_kernel(rng, 50, [75, 75])
    w_cls = np.zeros(200)
    w_cls[50:] = rng.random(150) + 0.05
    w_tr = np.zeros(200)
    w_tr[:50] = rng.random(50) + 0.05
    pairs.append((K, Measure(K.space, w_cls)))
    pairs.append((K, Measure(K.space, w_tr)))
    Kp = periodic_kernel(rng, [40, 40, 40])
    pairs.append((Kp, Measure(Kp.space, rng.random(120) + 0.05)))

    assert len(pairs) >= 50
    assert max(K.size for K, _ in pairs) <= 200
    agreed = 0
    for K, m in pairs:
        out = four_way_verdicts(K, m, horizon=64)
        assert out["agree"], out
        agreed += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    _pass(1, f"{agreed}/{len(pairs)} pairs agree in {elapsed:.1f}s")


def test_criterion_02_canonical_counterexample():
    dirac = Measure(S2, [1.0, 0.0])
    prof = index_profile(COUNTEREXAMPLE, dirac)
    assert abs(prof.index_estimate - dirac.mass) <= 1e-9
    assert prof.verdict == "fails"
    res = solve_cesaro_adjoint(COUNTEREXAMPLE, dirac)
    assert res.nu.mass == 0.0

    uniform = Measure(S2, [0.5, 0.5])
    prof_u = index_profile(COUNTEREXAMPLE, uniform)
    assert abs(prof_u.index_estimate) <= 1e-9
    assert prof_u.verdict == "holds"
    res_u = solve_cesaro_adjoint(COUNTEREXAMPLE, uniform)
    assert_allclose(res_u.nu.weights, [0.0, 1.0], atol=1e-12)
    assert res_u.residual <= 1e-12
    _pass(2, f"index {prof.index_estimate:.1f} vs {prof_u.index_estimate:.1f}, "
             f"point-mass residual {res_u.residual:.1e}")


def test_criterion_03_constructive_equals_spectral():
    rng = np.random.default_rng(31)
    sizes = [int(rng.integers(2, 80)) for _ in range(14)]
    sizes += [120, 160, 220, 280, 340, 500]
    worst = 0.0
    for n in sizes:
        K = random_kernel(rng, n)
        m = Measure(K.space, rng.random(n) + 0.02).normalized()
        nu_c = solve_cesaro_adjoint(K, m).nu
        nu_e = solve_eigen(K)[0].nu
        tv = 0.5 * float(np.abs(nu_c.weights - nu_e.weights).sum())
        worst = max(worst, tv)
        assert tv <= 1e-8, (n, tv)
    assert len(sizes) >= 20
    _pass(3, f"{len(sizes)} chains up to 500 states, worst TV {worst:.2e}")


def test_criterion_04_resolvent_algebra():
    rng = np.random.default_rng(41)
    worst_identity = 0.0
    for _ in range(20):
        G = random_generator(rng, int(rng.integers(2, 9)))
        a, b = sorted(rng.uniform(0.2, 5.0, size=2))
        Ra, Rb = resolvent_raw(G, a), resolvent_raw(G, b)
        resid = float(np.abs(Ra - Rb - (b - a) * Ra @ Rb).max())
        worst_identity = max(worst_identity, resid)
        assert resid <= 1e-9

    worst_series = 0.0
    for _ in range(20):
        K = random_kernel(rng, int(rng.integers(2, 9)))
        R = discrete_resolvent(K)
        term = np.eye(K.size)
        acc = np.zeros_like(term)
        for k in range(200):
            acc += 0.5 ** (k + 1) * term
            term = term @ K.rows
        gap = float(np.abs(R.rows - acc).max())
        worst_series = max(worst_series, gap)
        assert gap <= 1e-10

    worst_transfer = 0.0
    for _ in range(20):
        G = random_generator(rng, int(rng.integers(2, 8)))
        m = solve_continuous(G)[0].nu
        alpha = float(rng.uniform(0.3, 4.0))
        drift1 = float(np.abs(m.weights @ resolvent(G, alpha).rows
                              - m.weights).sum())
        assert drift1 <= 1e-8

        R = resolvent(G, alpha).rows
        w, vl = np.linalg.eig(R.T)
        v = np.real(vl[:, int(np.argmin(np.abs(w - 1.0)))])
        v = np.abs(v) / np.abs(v).sum()
        drift2 = max(float(np.abs(v @ transition_at(G, t).rows - v).sum())
                     for t in (0.3, 1.0, 4.7))
        worst_transfer = max(worst_transfer, drift1, drift2)
        assert drift2 <= 1e-8
    _pass(4, f"identity {worst_identity:.1e}, series {worst_series:.1e}, "
             f"transfer {worst_transfer:.1e}")


def _numeric_row_ratio_max(rx, ry, p):
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


def test_criterion_05_harnack_sharpness():
    rng = np.random.default_rng(51)
    checked = 0
    worst_rel = 0.0
    for trial in range(102):
        p = (1.5, 2.0, 4.0)[trial % 3]
        K = random_kernel(rng, int(rng.integers(2, 9)))
        M = harnack_constant(K, 0, 1, p).M
        numeric = _numeric_row_ratio_max(K.rows[0], K.rows[1], p)
        rel = abs(numeric - M) / M
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6, (trial, p, M, numeric)

        f = np.asarray(harnack_maximizer(K, 0, 1, p).values)
        attained = float((K.rows[1] @ f) ** p / (K.rows[0] @ f ** p))
        assert attained >= (1.0 - 1e-9) * M
        checked += 1
    assert checked >= 100
    _pass(5, f"{checked} row pairs, worst relative gap {worst_rel:.1e}")


def test_criterion_06_drift_concentration_implication():
    passing = 0
    for d in (0.6, 0.65, 0.7, 0.75, 0.8):
        for n in (8, 12, 16, 20):
            bd = birth_death(n, d)
            b_vals = np.zeros(n)
            b_vals[0] = bd.extras["drift_b"]
            m = bd.m
            row0 = bd.kernel.rows[0]
            c = max(row0[0] / m.weights[0], row0[1] / m.weights[1]) + 0.5
            params = AlmostInvarianceParams(PhiLinear(c), 0.05, horizon=96)
            cert = check_drift_concentration(bd.kernel, m, bd.V, b_vals,
                                             bd.C, params)
            assert cert.holds, (n, d, cert.witness)
            conditions = {a.condition: a for a in cert.attached}
            assert conditions["mean-almost-invariance"].holds
            assert conditions["almost-invariance"].holds
            passing += 1
    assert passing >= 20
    _pass(6, f"{passing}/{passing} drift instances imply both conclusion "
             f"certificates")


def test_criterion_07_occupation_floor_and_doeblin_gap():
    instances = 0
    for d in (0.65, 0.8):
        for n in (8, 14, 20, 26, 32):
            bd = birth_death(n, d)
            b = bd.extras["drift_b"]
            assert check_additive_drift(bd.kernel, bd.V, b, bd.C).holds
            out = additive_drift_occupation_bound(bd.kernel, bd.V, b,
                                                  bd.C, bd.m)
            assert out["ok"], (n, d, out)
            assert min(out["values"]) >= out["bound"] - 1e-12
            instances += 1
    assert instances >= 10

    rng = np.random.default_rng(71)
    worst_excess = -np.inf
    for _ in range(8):
        n = int(rng.integers(2, 11))
        nu = rng.random(n) + 0.05
        nu /= nu.sum()
        alpha = float(rng.uniform(0.2, 0.9))
        rows = alpha * nu[None, :] + (1 - alpha) * _stochastic(rng, n)
        K = Kernel(StateSpace.range(n), rows)
        alpha_eff = check_smallness(K, list(range(n))).constants["alpha"]
        for x in range(n):
            for y in range(n):
                gap = power_row_gap(K, x, y, 1, 1)
                worst_excess = max(worst_excess,
                                   gap - (1.0 - alpha_eff))
                assert gap <= 1.0 - alpha_eff + 1e-12
    _pass(7, f"{instances} drift instances clear eps/(2b); "
             f"max gap excess over 1-alpha {worst_excess:.1e}")


def test_criterion_08_count_bound_tightness():
    for k in (1, 2, 3, 5):
        s = 3
        n = k * s
        rows = np.zeros((n, n))
        for j in range(k):
            rows[j * s:(j + 1) * s, j * s:(j + 1) * s] = 1.0 / s
        K = Kernel(StateSpace.range(n), rows)
        m = Measure(K.space, np.full(n, 1.0 / n))
        out = verify_count_bound(K, m, PhiLinear(float(k)), 0.0)
        assert out["count"] == k
        assert_allclose(out["bound"], k, atol=1e-12)
        assert out["tight"]
        # a slacker modulus keeps the inequality but loses tightness
        loose = verify_count_bound(K, m, PhiLinear(2.0 * k), 0.0)
        assert loose["count"] <= loose["bound"] + 1e-12
        assert not loose["tight"]
    _pass(8, "k-block bound attained for k in {1,2,3,5}, slack variant stays "
             "below")


def test_criterion_09_geometric_decay_fit():
    rng = np.random.default_rng(91)
    fitted = []
    for _ in range(10):
        n = int(rng.integers(3, 40))
        K = random_kernel(rng, n)
        flat = np.zeros(n)
        gate = check_geometric_drift(K, flat, 0.5, 0.1, 1.0)
        assert gate.holds
        m = solve_eigen(K)[0].nu
        rep = decay_report(K, m, flat)
        assert rep.geometric
        assert rep.fitted_gamma < 1.0
        assert rep.r2 >= 0.95
        fitted.append(rep.fitted_gamma)

    rejected = decay_report(SWAP, Measure(S2, [0.5, 0.5]), np.zeros(2))
    assert not rejected.geometric
    _pass(9, f"10 chains fit with gamma in [{min(fitted):.3f}, "
             f"{max(fitted):.3f}], period-2 rejected")


def test_criterion_10_perturbation_pipeline_end_to_end():
    ou = ou_grid()
    v = np.asarray(ou.V.values)
    pv = ou.kernel.rows @ v
    gamma = 0.5
    c = float(max(0.0, (pv - gamma * v).max())) + 1e-12
    spec = PerturbationSpec(StateFn(ou.kernel.space,
                                    np.full(ou.kernel.size, 0.8)))
    z0 = int(np.argmin(v))
    cert = certify_perturbation(ou.kernel, ou.V, gamma, c, spec,
                                1.0, 0.0, z0, 2.0, 4.0)
    assert cert.holds, cert.witness
    assert_allclose(cert.constants["threshold"], 3.0)
    assert cert.constants["invariant_residual"] <= 1e-10

    flipped = certify_perturbation(ou.kernel, ou.V, gamma, c, spec,
                                   3.2, 0.0, z0, 2.0, 4.0)
    assert not flipped.holds
    assert flipped.witness["l"] == 3.2
    assert_allclose(flipped.witness["threshold"], 3.0)
    _pass(10, f"certified with residual {cert.constants['invariant_residual']:.1e}, "
              f"l above 3.0 flips the verdict")


def test_criterion_11_worst_set_oracle():
    rng = np.random.default_rng(111)
    sizes = [int(rng.integers(2, 15)) for _ in range(190)]
    sizes += [int(rng.integers(15, 20)) for _ in range(14)]
    sizes += [20, 21, 22, 22]
    assert len(sizes) >= 200
    mismatches = 0
    for n in sizes:
        row = rng.random(n) * rng.choice([0.5, 1.0, 2.0])
        base = rng.random(n)
        base[rng.random(n) < 0.15] = 0.0
        row[rng.random(n) < 0.1] = 0.0
        phi = random_phi(rng)
        found = worst_set_search(row, base, phi)
        oracle, _ = brute_force_worst(row, base, phi)
        scale = max(1.0, abs(found.value))
        if (abs(found.value - oracle) > 1e-9 * scale
                or abs(achieved(row, base, phi, found.members)
                       - found.value) > 1e-9 * scale):
            mismatches += 1
    assert mismatches == 0
    _pass(11, f"{len(sizes)} trials, zero prefix/enumeration mismatches")
