"""Drift and minorization certificates, and their almost-invariance bridges.

The checks here take a discrete markovian kernel together with a Lyapunov
function and certify return behavior: geometric contraction outside a
small set, additive decrease paid for on a test set, or row domination by
a reference measure. Each passing certificate that implies almost
invariance of a resolvent-smoothed measure attaches the implied
certificate with the constants the derivation actually produces, so the
implication is re-verified rather than assumed.

State functions may take the value +inf (truncation boundaries); every
pointwise check runs on the finite sub-level region and a row feeding
mass into an infinite atom counts as a violation there.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import (Kernel, Measure, StateFn, apply, dirac, state_mask,
                    state_values)
from ..semigroup import auxiliary_measure, last_row, mean_rows, power_rows
from ..solver import averaging_projector
from .almost import (Evidence, check_absolute_continuity,
                     check_almost_invariant, check_mean_almost_invariant,
                     optimal_linear_params)
from .phi import AlmostInvarianceParams, PhiLinear
from .types import FAILS, HOLDS, Certificate
from .worstset import signed_excess, worst_set_search

__all__ = [
    "check_smallness",
    "fit_drift_constants",
    "check_geometric_drift",
    "check_localized_drift",
    "check_additive_drift",
    "power_row_gap",
    "mean_row_gap",
    "check_dominated_rows",
    "check_concentration",
    "check_generalized_drift",
    "check_drift_cost_moment",
    "check_drift_concentration",
    "invariant_count_bound",
    "additive_drift_occupation_bound",
    "generalized_drift_occupation_bound",
]


def _ptol(*arrays):
    scale = 1.0
    for a in arrays:
        a = np.asarray(a, dtype=float)
        fin = a[np.isfinite(a)]
        if fin.size:
            scale = max(scale, float(np.abs(fin).max()))
    return 1e-12 * scale


def _kernel_image(P: Kernel, v: np.ndarray) -> np.ndarray:
    """P applied to a possibly extended function, 0 * inf = 0."""
    return apply(P, StateFn(P.space, v, extended=bool(np.isinf(v).any()))).values


def _mean_account(P: Kernel, w: np.ndarray, g: np.ndarray,
                  N: int) -> np.ndarray:
    """(w S_n) g for n = 1..N, one scalar per step of the running means."""
    return np.array([v @ g for _, v in mean_rows(P, Measure(P.space, w), N)])


def _limit_mean(P: Kernel, g: np.ndarray) -> np.ndarray:
    return averaging_projector(P) @ g


def _pointwise_drift(P: Kernel, v, rhs):
    """Max of PV - rhs over finite-V states, with the violating state.

    Rows that feed an infinite atom from a finite-V state violate by inf.
    """
    pv = _kernel_image(P, v)
    fin = np.isfinite(v)
    gap = pv[fin] - rhs[fin]
    if gap.size == 0:
        return 0.0, None, pv
    k = int(np.argmax(gap))
    idx = np.flatnonzero(fin)[k]
    return float(gap[k]), int(idx), pv


def check_smallness(P: Kernel, C) -> Certificate:
    """Uniform row minorization on a set.

    Takes the entrywise minimum of the rows over C; the certificate holds
    when that minimum carries positive total mass alpha, in which case
    the normalized minimum is the minorizing probability.
    """
    mask = state_mask(P.space, C)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("smallness needs a nonempty set")
    nu_hat = P.rows[idx].min(axis=0)
    alpha = float(nu_hat.sum())
    ok = alpha > 0.0
    constants = {"alpha": alpha, "set_size": int(idx.size)}
    if ok:
        constants["nu"] = (nu_hat / alpha).tolist()
    return Certificate(
        condition="smallness",
        verdict=HOLDS if ok else FAILS,
        constants=constants,
        witness=None if ok else {"uncovered_atoms": int((nu_hat == 0.0).sum())},
        notes="" if ok else "entrywise row minimum over the set vanishes",
    )


def fit_drift_constants(P: Kernel, V, gamma: float | None = None):
    """Tight (gamma, b) for PV <= gamma*V + b from the kernel itself.

    With gamma unset, takes the largest contraction ratio PV/V among
    states where that ratio is below one; b is then the largest residual
    anywhere. Supplying gamma just fits b.
    """
    v = state_values(P.space, V, "V", low=0.0)
    pv = _kernel_image(P, v)
    fin = np.isfinite(v) & np.isfinite(pv)
    if gamma is None:
        pos = fin & (v > 0.0)
        if not pos.any():
            raise ValueError("V vanishes everywhere; supply gamma")
        ratios = pv[pos] / v[pos]
        contracting = ratios[ratios < 1.0]
        if contracting.size == 0:
            raise ValueError("no state contracts under V; supply gamma")
        gamma = float(contracting.max())
    resid = pv[fin] - gamma * v[fin]
    b = float(max(resid.max(), 0.0)) if resid.size else 0.0
    return float(gamma), b


def check_geometric_drift(P: Kernel, V, gamma: float, b: float,
                          r: float) -> Certificate:
    """Contraction drift with a small sub-level set.

    Three components, all required: PV <= gamma*V + b pointwise on
    [V < inf]; the radius satisfies r > 2b/(1-gamma) strictly; and
    [V <= r] is small in the minorization sense (attached).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if b < 0.0:
        raise ValueError("b must be nonnegative")
    v = state_values(P.space, V, "V", low=0.0)

    tol = _ptol(v[np.isfinite(v)], [b])
    worst, worst_idx, _ = _pointwise_drift(P, v, gamma * v + b)
    drift_ok = worst <= tol

    threshold = 2.0 * b / (1.0 - gamma)
    thr_ok = r > threshold
    notes = []
    if not thr_ok and r == threshold:
        notes.append("strict inequality required")

    sub_mask = np.isfinite(v) & (v <= r)
    attached = ()
    alpha = None
    if sub_mask.any():
        small = check_smallness(P, sub_mask)
        attached = (small,)
        small_ok = small.holds
        alpha = small.constants["alpha"]
    else:
        small_ok = False
        notes.append("sub-level set is empty")

    ok = drift_ok and thr_ok and small_ok
    witness = None
    if not drift_ok and worst_idx is not None:
        witness = {"state": P.space.labels[worst_idx],
                   "violation": worst}
    elif not thr_ok:
        witness = {"r": float(r), "r_threshold": threshold}
    return Certificate(
        condition="geometric-drift",
        verdict=HOLDS if ok else FAILS,
        constants={"gamma": float(gamma), "b": float(b), "r": float(r),
                   "r_threshold": threshold, "max_violation": worst,
                   "alpha": alpha, "sublevel_size": int(sub_mask.sum())},
        witness=witness,
        notes="; ".join(notes),
        attached=attached,
    )


def check_localized_drift(P: Kernel, V, gamma: float, b: float,
                          S) -> Certificate:
    """Contraction drift with the additive term active on S only.

    Requires V >= 1. Checks PV <= gamma*V + b*1_S pointwise plus
    smallness of S; the paper's route back to the sub-level form goes
    through averaged kernels, which the mean checks cover.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if b < 0.0:
        raise ValueError("b must be nonnegative")
    v = state_values(P.space, V, "V", low=1.0)
    mask = state_mask(P.space, S)

    tol = _ptol(v[np.isfinite(v)], [b])
    worst, worst_idx, _ = _pointwise_drift(P, v, gamma * v + b * mask)
    drift_ok = worst <= tol

    attached = ()
    alpha = None
    notes = ""
    if mask.any():
        small = check_smallness(P, mask)
        attached = (small,)
        small_ok = small.holds
        alpha = small.constants["alpha"]
    else:
        small_ok = False
        notes = "empty set cannot carry the minorization"

    ok = drift_ok and small_ok
    witness = None
    if not drift_ok and worst_idx is not None:
        witness = {"state": P.space.labels[worst_idx], "violation": worst}
    return Certificate(
        condition="localized-drift",
        verdict=HOLDS if ok else FAILS,
        constants={"gamma": float(gamma), "b": float(b),
                   "max_violation": worst, "alpha": alpha,
                   "set_size": int(mask.sum())},
        witness=witness,
        notes=notes,
        attached=attached,
    )


def check_additive_drift(P: Kernel, V, b: float, C,
                         tail_sets=()) -> Certificate:
    """Unit decrease of V outside C, paid for by b on C.

    Checks PV <= V - 1 + b*1_C pointwise. The uniform-additivity side is
    evidenced two ways: the sup over C of row mass into each supplied
    tail window (a decreasing sequence of sets), and the entrywise row
    maximum over C as a finite dominating measure. With tail windows
    supplied, the verdict additionally requires the last sup to vanish.
    """
    if b < 0.0:
        raise ValueError("b must be nonnegative")
    v = state_values(P.space, V, "V", low=0.0)
    mask_C = state_mask(P.space, C)

    masks = [state_mask(P.space, A, "tail set") for A in tail_sets]
    for prev, nxt in zip(masks, masks[1:]):
        if (nxt & ~prev).any():
            raise ValueError("tail sets must be decreasing")

    tol = _ptol(v[np.isfinite(v)], [b])
    worst, worst_idx, _ = _pointwise_drift(P, v, v - 1.0 + b * mask_C)
    drift_ok = worst <= tol

    idx_C = np.flatnonzero(mask_C)
    tail_sups = []
    for am in masks:
        if idx_C.size:
            tail_sups.append(float(P.rows[idx_C][:, am].sum(axis=1).max()))
        else:
            tail_sups.append(0.0)
    if idx_C.size:
        domination = P.rows[idx_C].max(axis=0)
        dom_mass = float(domination.sum())
    else:
        dom_mass = 0.0

    tails_ok = (not masks) or tail_sups[-1] == 0.0
    ok = drift_ok and tails_ok
    notes = ("additivity evidence: tail sups and row domination; finite "
             "spaces always dominate")
    if masks and not tails_ok:
        notes += "; last tail window still reachable from C"
    witness = None
    if not drift_ok and worst_idx is not None:
        witness = {"state": P.space.labels[worst_idx], "violation": worst}
    return Certificate(
        condition="additive-drift",
        verdict=HOLDS if ok else FAILS,
        constants={"b": float(b), "max_violation": worst,
                   "tail_sups": tail_sups, "domination_mass": dom_mass},
        witness=witness,
        notes=notes,
    )


def power_row_gap(P: Kernel, x, y, n: int, m_: int) -> float:
    """Largest one-function gap between two iterated rows.

    Returns sup over 0 <= f <= 1 of P^m_ f(y) - P^n f(x), which is the
    positive-part mass of the row difference.
    """
    if n < 1 or m_ < 1:
        raise ValueError("powers start at 1")
    row_x = last_row(power_rows(P, dirac(P.space, x), n))
    row_y = last_row(power_rows(P, dirac(P.space, y), m_))
    return float(np.clip(row_y - row_x, 0.0, None).sum())


def mean_row_gap(P: Kernel, x, y, n: int, m_: int) -> float:
    """power_row_gap with running averages S_n in place of powers."""
    if n < 1 or m_ < 1:
        raise ValueError("averages start at 1")
    row_x = last_row(mean_rows(P, dirac(P.space, x), n, n0=n))
    row_y = last_row(mean_rows(P, dirac(P.space, y), m_, n0=m_))
    return float(np.clip(row_y - row_x, 0.0, None).sum())


def _suffix_optimal(deltas: np.ndarray, n_start: int):
    """Best (n0, sup over n >= n0) over the computed window.

    deltas[k] is the value at n = n_start + k. Returns the smallest sup
    and the first n0 achieving it.
    """
    suffix = np.maximum.accumulate(deltas[::-1])[::-1]
    k = int(np.argmin(suffix))
    return int(n_start + k), float(suffix[k])


def _mean_conclusion(conclusion_on, phi, leakage, N: int, n0: int,
                     constants: dict, key: str):
    """Mean almost-invariance certificate at the suffix-optimized leakage.

    leakage(ns) gives the derivation's constant at each n >= max(n0, 2);
    the best suffix value goes into constants[key], its start into
    "n0_star". None when no n is left or the padded value is not below
    one; conclusion_on() gives the system (or its evidence) and m o R.
    """
    lo = max(n0, 2)
    ns = np.arange(lo, N + 1)
    if not ns.size:
        return None
    n0_star, delta_star = _suffix_optimal(leakage(ns), lo)
    constants[key] = delta_star
    constants["n0_star"] = n0_star
    # small pad guards rounding in the long matmul chains
    delta_use = delta_star + 1e-9
    if delta_use >= 1.0:
        return None
    S, mR = conclusion_on()
    mean_cert = check_mean_almost_invariant(
        S, mR, AlmostInvarianceParams(phi, delta_use, horizon=N, n0=n0_star))
    if not mean_cert.holds:
        raise ArithmeticError(
            "derived mean certificate failed at the proof constants")
    return mean_cert


def check_dominated_rows(P: Kernel, m: Measure, L: float, gamma_fn, C,
                         n0: int = 1, N: int = 256) -> Certificate:
    """Rows over C dominated by L*m up to a state-dependent slack.

    Three components: (i) for every x in C the positive-part excess of
    the row over L*m stays below gamma_fn(x); (ii.1) m composed with the
    half-geometric resolvent respects null sets; (ii.2) the averaged
    account m(S_n(1_C (gamma - 1))) is strictly negative for n0 <= n <= N
    and in the limit. A passing verdict attaches the implied mean
    almost-invariance certificate on m o R with the constants the
    derivation yields: modulus L*m(E)*t and leakage
    1 + 1/n + m(S_{n-1}(1_C(gamma-1)))/m(E), suffix-optimized over n0.
    """
    if L < 0.0:
        raise ValueError("L must be nonnegative")
    if n0 < 1 or N < n0:
        raise ValueError("need 1 <= n0 <= N")
    g_vals = state_values(P.space, gamma_fn, "gamma_fn", low=0.0, finite=True)
    mask_C = state_mask(P.space, C)
    if m.mass <= 0.0:
        raise ValueError("reference measure must have positive mass")

    tol = _ptol([L * m.mass], g_vals)
    worst_gap = -np.inf
    witness = None
    for i in np.flatnonzero(mask_C):
        gap = signed_excess(P.rows[i], m.weights, L) - g_vals[i]
        if gap > worst_gap:
            worst_gap = gap
            witness = {"state": P.space.labels[int(i)], "gap": float(gap)}
    i_ok = worst_gap <= tol

    mR = auxiliary_measure(P, m)
    a2 = check_absolute_continuity(P, mR)

    g = mask_C * (g_vals - 1.0)
    vn = _mean_account(P, m.weights, g, N)
    v_lim = float(m.weights @ _limit_mean(P, g))
    window_max = float(max(vn[n0 - 1:].max(), v_lim))
    ii2_ok = window_max < 0.0

    ok = i_ok and a2.holds and ii2_ok
    attached = [a2]
    constants = {"L": float(L), "worst_excess_gap": float(worst_gap),
                 "account_max": window_max, "account_limit": v_lim,
                 "n0": int(n0), "N": int(N),
                 "conclusion_coef": float(L * m.mass)}
    notes = ""
    if ok and N >= 2:
        mean_cert = _mean_conclusion(
            lambda: (P, mR), PhiLinear(L * m.mass),
            lambda ns: 1.0 + 1.0 / ns + vn[ns - 2] / m.mass,
            N, n0, constants, "delta")
        if mean_cert is not None:
            attached.append(mean_cert)
        else:
            notes = ("account decays too slowly within the horizon for a "
                     "leakage constant below one; conclusion not attached")
    return Certificate(
        condition="dominated-rows",
        verdict=HOLDS if ok else FAILS,
        constants=constants,
        witness=None if ok else (witness if not i_ok else
                                 {"account_max": window_max}),
        notes=notes,
        attached=tuple(attached),
    )


def _rows_within(P: Kernel, m: Measure, phi, delta: float, mask_C):
    """Worst worst-set value over the rows of C, scored against delta."""
    tol = 1e-12 * max(1.0, delta)
    worst = -np.inf
    witness = None
    for i in np.flatnonzero(mask_C):
        ws = worst_set_search(P.rows[i], m.weights, phi)
        if ws.value > worst:
            worst = ws.value
            witness = {"state": P.space.labels[int(i)],
                       "set": [P.space.labels[j] for j in ws.members],
                       "value": float(ws.value)}
    ok = worst <= delta + tol
    return ok, (0.0 if worst == -np.inf else float(worst)), witness


def check_concentration(P: Kernel, m: Measure,
                        params: AlmostInvarianceParams, C) -> Certificate:
    """Row concentration against m on C, plus persistent occupation of C.

    (i) every row from C satisfies P(x, A) <= phi(m(A)) + delta for all
    sets A, evaluated exactly by the worst-set search; (ii) the averaged
    occupation m(S_n 1_C) stays strictly positive over n0 <= n <= N and
    in the limit. A passing verdict attaches the implied mean
    almost-invariance certificate on m o R with modulus m(E)*phi and the
    suffix-optimized leakage 1 + 1/n - (1-delta) m(S_{n-1} 1_C)/m(E).
    """
    if not 0.0 <= params.delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if m.mass <= 0.0:
        raise ValueError("reference measure must have positive mass")
    mask_C = state_mask(P.space, C)
    N, n0 = params.horizon, params.n0

    i_ok, worst, witness = _rows_within(P, m, params.phi, params.delta,
                                        mask_C)

    on = _mean_account(P, m.weights, mask_C.astype(float), N)
    o_lim = float(m.weights @ _limit_mean(P, mask_C.astype(float)))
    occ_inf = float(min(on[n0 - 1:].min(), o_lim))
    ii_ok = occ_inf > 0.0

    ok = i_ok and ii_ok
    constants = {"delta": float(params.delta), "phi": params.phi.describe(),
                 "worst_row_value": worst, "occupation_inf": occ_inf,
                 "occupation_limit": o_lim, "n0": int(n0), "N": int(N)}
    attached = []
    notes = ""
    if ok and N >= 2:
        mean_cert = _mean_conclusion(
            lambda: (P, auxiliary_measure(P, m)),
            params.phi.scale(m.mass),
            lambda ns: (1.0 + 1.0 / ns
                        - (1.0 - params.delta) * on[ns - 2] / m.mass),
            N, n0, constants, "delta_tilde")
        if mean_cert is not None:
            attached.append(mean_cert)
        else:
            notes = ("occupation too thin within the horizon for a leakage "
                     "constant below one; conclusion not attached")
    return Certificate(
        condition="row-concentration",
        verdict=HOLDS if ok else FAILS,
        constants=constants,
        witness=None if ok else (witness if not i_ok else
                                 {"occupation_inf": occ_inf}),
        notes=notes,
        attached=tuple(attached),
    )


def check_generalized_drift(P: Kernel, V, b_fn, C) -> Certificate:
    """Unit decrease of V with a state-dependent budget on C."""
    v = state_values(P.space, V, "V", low=0.0)
    b_vals = state_values(P.space, b_fn, "b_fn", low=0.0, finite=True)
    mask_C = state_mask(P.space, C)

    tol = _ptol(v[np.isfinite(v)], b_vals)
    worst, worst_idx, _ = _pointwise_drift(P, v, v - 1.0 + b_vals * mask_C)
    ok = worst <= tol
    witness = None
    if not ok and worst_idx is not None:
        witness = {"state": P.space.labels[worst_idx], "violation": worst}
    on_C = b_vals[mask_C]
    return Certificate(
        condition="generalized-drift",
        verdict=HOLDS if ok else FAILS,
        constants={"max_violation": worst, "b_max": float(b_vals.max()),
                   "b_on_set_max": float(on_C.max()) if on_C.size else 0.0},
        witness=witness,
    )


def check_drift_cost_moment(P: Kernel, m: Measure, V, b_fn, r: float,
                            N0: int = 1, N: int = 256) -> Certificate:
    """Averaged squared budget, viewed from the sub-level set [V <= r].

    Reports the profile m(1_[V<=r] S_n(b^2)) over N0 <= n <= N and its
    limit. Finite spaces always give a finite sup, so the verdict is
    about the evidence being on the table; truncation families compare
    profiles across levels to judge the intended countable model.
    """
    if N0 > N:
        raise ValueError("empty range")
    if N0 < 1:
        raise ValueError("N0 must be at least 1")
    v = state_values(P.space, V, "V", low=0.0)
    b_vals = state_values(P.space, b_fn, "b_fn", low=0.0, finite=True)

    wr = m.weights * (np.isfinite(v) & (v <= r))
    g = b_vals ** 2
    profile = _mean_account(P, wr, g, N)[N0 - 1:]
    limit = float(wr @ _limit_mean(P, g))
    sup = float(max(profile.max(), limit))
    return Certificate(
        condition="drift-cost-moment",
        verdict=HOLDS,
        constants={"sup": sup, "limit": limit, "r": float(r),
                   "N0": int(N0), "N": int(N),
                   "b_sup": float(b_vals.max()),
                   "profile": profile.tolist()},
        notes="finite state space: sup is finite by construction",
    )


def check_drift_concentration(P: Kernel, m: Measure, V, b_fn, C,
                              cprime_params: AlmostInvarianceParams,
                              r: float | None = None) -> Certificate:
    """Generalized drift + averaged cost + row concentration, conjoined.

    Fails fast with the forwarded witness when a component fails. On a
    pass, attaches the implied certificates on m o R: the mean one at
    the derivation's constants when the horizon supports it, and a plain
    almost-invariance one at the optimal linear constants.
    """
    v = state_values(P.space, V, "V", low=0.0)
    if r is None:
        fin = v[np.isfinite(v)]
        r = float(fin.max()) if fin.size else 0.0
    N, n0 = cprime_params.horizon, cprime_params.n0

    drift = check_generalized_drift(P, V, b_fn, C)
    if not drift.holds:
        return Certificate(
            condition="drift-concentration",
            verdict=FAILS,
            constants={"failed": "generalized-drift"},
            witness=drift.witness,
            notes="drift fails; remaining components not evaluated",
            attached=(drift,),
        )

    moment = check_drift_cost_moment(P, m, V, b_fn, r, N0=n0, N=N)

    mask_C = state_mask(P.space, C)
    i_ok, worst, witness = _rows_within(P, m, cprime_params.phi,
                                        cprime_params.delta, mask_C)
    if not i_ok:
        return Certificate(
            condition="drift-concentration",
            verdict=FAILS,
            constants={"failed": "row-concentration",
                       "worst_row_value": worst},
            witness=witness,
            notes="a row over the set escapes the modulus",
            attached=(drift, moment),
        )

    attached = [drift, moment]
    constants = {"worst_row_value": worst, "cost_sup": moment.constants["sup"],
                 "r": float(r)}
    notes = ""

    mR = auxiliary_measure(P, m)
    ev = Evidence(P, mR, N)
    on = _mean_account(P, m.weights, mask_C.astype(float), N)
    mean_cert = _mean_conclusion(
        lambda: (ev, mR), cprime_params.phi.scale(m.mass),
        lambda ns: (1.0 + 1.0 / ns
                    - (1.0 - cprime_params.delta) * on[ns - 2] / m.mass),
        N, n0, constants, "delta_tilde")
    if mean_cert is not None:
        attached.append(mean_cert)
    else:
        notes = ("occupation too thin within the horizon; mean conclusion "
                 "not attached")

    opt = optimal_linear_params(ev, mR, horizon=N)
    plain = check_almost_invariant(
        ev, mR, AlmostInvarianceParams(PhiLinear(opt["c"]), opt["delta"],
                                      horizon=N))
    attached.append(plain)
    constants["plain_c"] = opt["c"]
    constants["plain_delta"] = opt["delta"]
    return Certificate(
        condition="drift-concentration",
        verdict=HOLDS,
        constants=constants,
        notes=notes,
        attached=tuple(attached),
    )


def invariant_count_bound(m: Measure, phi, delta: float) -> float:
    """Upper bound on how many mutually singular invariant laws can fit.

    Any invariant probability absolutely continuous in the certified
    sense charges an absorbing set, and absorbing sets have m-mass at
    least phi^{-1}(1 - delta); dividing the total mass by that floor
    bounds the count. Below two it forces uniqueness.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    floor = phi.inverse(1.0 - delta)
    if floor <= 0.0:
        raise ValueError("modulus inverse gave a nonpositive mass floor")
    return m.mass / floor


def _first_sublevel(m: Measure, v: np.ndarray) -> int:
    fin = np.isfinite(v) & (m.weights > 0.0)
    if not fin.any():
        raise ValueError("measure puts no mass where V is finite")
    vmin = float(v[fin].min())
    return max(1, int(math.ceil(vmin - 1e-12)))


def additive_drift_occupation_bound(P: Kernel, V, b: float, C, m: Measure,
                                    horizon: int = 256) -> dict:
    """Occupation floor eps/(2b) implied by the additive drift.

    Picks the first integer level n0 whose sub-level set carries m-mass
    eps, then reports m(S_n 1_C) for 2*n0 <= n <= horizon together with
    the floor; ok means every reported value (and the limit) clears it.
    """
    if b <= 0.0:
        raise ValueError("b must be positive")
    v = state_values(P.space, V, "V", low=0.0)
    mask_C = state_mask(P.space, C)
    n0 = _first_sublevel(m, v)
    eps = float(m.weights[np.isfinite(v) & (v <= n0)].sum())
    bound = eps / (2.0 * b)

    N = max(2 * n0, horizon)
    on = _mean_account(P, m.weights, mask_C.astype(float), N)[2 * n0 - 1:]
    o_lim = float(m.weights @ _limit_mean(P, mask_C.astype(float)))
    slack = 1e-12 * max(1.0, bound)
    ok = bool((on >= bound - slack).all() and o_lim >= bound - slack)
    return {"n0": n0, "eps": eps, "bound": bound, "ok": ok,
            "values": on.tolist(), "limit": o_lim}


def generalized_drift_occupation_bound(P: Kernel, V, b_fn, C, m: Measure,
                                       horizon: int = 256) -> dict:
    """Occupation floor from the drift with a squared-budget denominator.

    The clean bound is eps^2 / (4 * m(1_[V<=n0] S_n(b^2))); the reported
    stated_bounds divide further by (sup b)^2, matching the weaker form
    some derivations carry. ok refers to the clean bound.
    """
    v = state_values(P.space, V, "V", low=0.0)
    b_vals = state_values(P.space, b_fn, "b_fn", low=0.0, finite=True)
    mask_C = state_mask(P.space, C)
    n0 = _first_sublevel(m, v)
    eps = float(m.weights[np.isfinite(v) & (v <= n0)].sum())

    N = max(2 * n0, horizon)
    wr = m.weights * (np.isfinite(v) & (v <= n0))
    dn = _mean_account(P, wr, b_vals ** 2, N)[2 * n0 - 1:]
    if (dn <= 0.0).any():
        raise ValueError("cost function vanishes on the averaged window")
    bounds = eps ** 2 / (4.0 * dn)

    on = _mean_account(P, m.weights, mask_C.astype(float), N)[2 * n0 - 1:]
    slack = 1e-12 * max(1.0, float(bounds.max()))
    ok = bool((on >= bounds - slack).all())
    b_sup = float(b_vals.max())
    stated = (bounds / b_sup ** 2).tolist() if b_sup > 0 else None
    return {"n0": n0, "eps": eps, "ok": ok, "bounds": bounds.tolist(),
            "stated_bounds": stated, "values": on.tolist()}
