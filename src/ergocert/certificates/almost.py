"""Almost-invariance checks: flows of a reference measure, scored against it.

The central inequality bounds how much one-step (or averaged) flow any
set can collect beyond a modulus of its own mass plus a leakage term.
All verdicts are bounded-horizon: powers or running averages up to a cap
plus the exact limiting averages from the class decomposition, labelled
"limit" in reports.

Those rows are kept per (system, reference, horizon) in an Evidence
object, which computes each family once and scores it once per modulus:
the worst row under a modulus, the sup of the mass outside m.support
and the support check are kept beside the rows. The leakage, invariance
and index checks each read a selection of it: the powers, the means
from step n0 on, or the means on the doubling grid, always with the
limit. Called with a system, a check makes its own evidence; a caller
scoring several checks on the same triple makes one and passes it in
place of the system.

Absolute continuity is no float question: check_absolute_continuity
reads the edges of the graph from m.support into the null atoms of m.

Each row is scored by its worst set. A linear modulus reads it off the
signed excess; the other families go through the exact prefix scan of
worst_set_search, which the test suite checks against a full subset
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core import Kernel, Measure, StateSet, _require_positive_mass, adjoint
from ..semigroup import (Generator, _running_means, auxiliary_measure,
                         resolvent)
from ..solver import averaging_projector
from .averages import (LIMIT, continuous_mean_rows, continuous_power_rows,
                       geometric_horizons, limit_row, mean_rows, power_rows)
from .phi import AlmostInvarianceParams, PhiLinear, PhiPower, PhiTable
from .types import FAILS, HOLDS, INCONCLUSIVE, Certificate, IndexProfile
from .worstset import fractional_knapsack, knapsack_best, worst_set_search

__all__ = [
    "check_absolute_continuity",
    "optimal_linear_params",
    "check_almost_invariant",
    "check_mean_almost_invariant",
    "index_profile",
    "profile_certificate",
    "check_resolvent_almost_invariant",
    "check_seed_index",
    "check_partial_subinvariance",
    "check_occupation_half",
    "check_uniform_lp_bound",
    "lp_operator_norm",
]

# relative margin below the threshold that an index estimate must clear
_INDEX_MARGIN = 1e-9

# the alpha grid of the resolvent-side checks, largest first
_ALPHAS = (2.0, 1.0, 0.5, 0.25, 0.125)

# relative step and iteration cap of the L^p norm power iteration
_NORM_TOL = 1e-12
_NORM_MAXIT = 2000


def _labels(space, idx):
    return [space.labels[int(i)] for i in idx]


@dataclass(frozen=True, eq=False)
class Evidence:
    """The rows the almost-invariance checks score, for one (system, m, horizon).

    powers and means hold (tag, row) pairs: m P^n and m S_n at every
    step n = 1..horizon of a kernel, or m P_t and the time average of
    m P_s over [0, t] along the doubling time grid of a generator. limit
    is m Pi, the reference pushed through the averaging projector and
    clipped at zero. Each of the three is computed when a check first
    reads it and kept for the next one, so a caller scoring several
    checks on the same triple passes one Evidence to each in place of
    the system. A kernel's means are running sums of its powers, so one
    chain of vector-matrix products feeds both families.

    The scores of the rows are kept the same way: each family is scanned
    once per modulus for its worst row, and once for its sup of mass
    outside m.support, and the support check runs once. A pipeline run's
    certificates and its four-way block thus read one scan per family.
    """

    system: object
    m: Measure
    horizon: int
    _scores: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def powers(self) -> tuple:
        if isinstance(self.system, Kernel):
            return tuple(power_rows(self.system, self.m, self.horizon))
        return tuple(continuous_power_rows(
            self.system, self.m, geometric_horizons(self.horizon)))

    @cached_property
    def means(self) -> tuple:
        if isinstance(self.system, Kernel):
            return tuple(_running_means(self.m, self.powers, self.horizon))
        return tuple(continuous_mean_rows(
            self.system, self.m, geometric_horizons(self.horizon)))

    @cached_property
    def limit(self) -> np.ndarray:
        return np.clip(limit_row(self.system, self.m), 0.0, None)

    def rows(self, mode: str, n0: int = 1, doubling: bool = False) -> list:
        """(tag, row) pairs of the "power" or "mean" family, limit last.

        n0 drops the means before step (or time) n0. For a kernel,
        doubling keeps only the steps 1, 2, 4, ... and the horizon; a
        generator's rows lie on the doubling grid already.
        """
        if mode not in ("power", "mean"):
            raise ValueError(f"unknown row mode {mode!r}")
        rows = list(self.powers if mode == "power" else self.means)
        if mode == "mean":
            rows = [(t, v) for t, v in rows if t >= n0]
        if doubling and isinstance(self.system, Kernel):
            keep = set(geometric_horizons(self.horizon))
            rows = [(n, v) for n, v in rows if n in keep]
        rows.append((LIMIT, self.limit))
        return rows

    def _scored(self, key, score):
        """score(), computed on the first call with key and kept."""
        if key not in self._scores:
            self._scores[key] = score()
        return self._scores[key]

    def _worst(self, mode: str, n0: int, phi):
        """(excess, tag, members) of the worst row of rows(mode, n0) under
        phi, and the smallest row mass. Kept per modulus value; the power
        rows ignore n0. A modulus outside the three families is scored
        unkept, so worst_set_search refuses it."""
        def score():
            rows = self.rows(mode, n0=n0)
            return (*_worst_row(rows, self.m, phi),
                    min(float(row.sum()) for _, row in rows))
        if not isinstance(phi, (PhiLinear, PhiPower, PhiTable)):
            return score()
        key = ("worst", mode, n0 if mode == "mean" else None, phi)
        return self._scored(key, score)

    def _null_sup(self, mode: str):
        """(tag, mass) of the row of the family that puts the most mass
        outside m.support."""
        return self._scored(("null", mode), lambda: _mass_sup(
            self.rows(mode), _null_atoms(self.m)))

    def _support_stable(self) -> bool:
        return self._scored("support", lambda: check_absolute_continuity(
            self.system, self.m).holds)


def _evidence(S, m: Measure, horizon: int) -> Evidence:
    """S when it is the evidence of (m, horizon) already, else new."""
    if not isinstance(S, Evidence):
        return Evidence(S, m, horizon)
    if S.m is not m or S.horizon != horizon:
        raise ValueError("the evidence was built for another reference "
                         "measure or horizon")
    return S


def _null_atoms(m: Measure) -> np.ndarray:
    """Mask of the atoms outside m.support."""
    null = np.ones(m.space.size, dtype=bool)
    null[m.support] = False
    return null


def _excess_and_set(row: np.ndarray, m: Measure, phi):
    """Worst-set value of row(A) - phi(m(A)) and the achieving atoms.

    A linear modulus takes every atom where the row exceeds c * m; an
    infinite c charges every atom of m.support, even one whose float
    weight underflowed, so it takes the atoms outside it. The other
    families take the prefix scan of worst_set_search, which also
    refuses a modulus outside the three families.
    """
    if isinstance(phi, PhiLinear):
        charge = (np.where(_null_atoms(m), 0.0, np.inf)
                  if np.isinf(phi.coef) else phi.coef * m.weights)
        diff = row - charge
        members = tuple(int(i) for i in np.flatnonzero(diff > 0.0))
        return float(diff[diff > 0.0].sum()), members
    found = worst_set_search(row, m.weights, phi)
    return found.value, found.members


def _worst_row(rows, m: Measure, phi):
    """(value, tag, members) of the first (tag, row) pair whose worst set
    has the largest excess over phi."""
    worst = (-np.inf, None, ())
    for tag, row in rows:
        val, members = _excess_and_set(row, m, phi)
        if val > worst[0]:
            worst = (val, tag, members)
    return worst


def _mass_sup(rows, mask):
    """(tag, mass) of the first (tag, row) pair putting most mass on mask."""
    return max(((tag, float(row[mask].sum())) for tag, row in rows),
               key=lambda kv: kv[1])


def check_absolute_continuity(S, m: Measure) -> Certificate:
    """Null sets of m stay null under the dynamics, read off the graph.

    The null atoms, those outside m.support, stay null for all times
    exactly when no edge K > 0, or Q > 0 off the diagonal, leads into one
    from the support; no float flow or tolerance decides it. leak is the
    float one-step flow of m into the null atoms (a rate for a
    generator). The witness is the entered atom with the largest flow,
    the first one entered when every flow underflowed.
    """
    rates = S.rows if isinstance(S, Kernel) else S.rates
    null = _null_atoms(m)
    entered = np.zeros(S.size, dtype=bool)
    entered[null] = (rates[np.ix_(m.support, null)] > 0.0).any(axis=0)
    flow = np.where(null, m.weights @ rates, 0.0)
    a = int(np.argmax(np.where(entered, flow, -1.0)))
    witness = ({"atom": S.space.labels[a], "leak": float(flow[a])}
               if entered.any() else None)
    return Certificate(
        condition="absolute-continuity",
        verdict=HOLDS if witness is None else FAILS,
        constants={"leak": float(flow.sum()), "null_atoms": int(null.sum())},
        witness=witness,
        notes="edges from the support of the reference into its null "
              "atoms; leak is its one-step flow into them",
    )


def optimal_linear_params(S, m: Measure, horizon: int = 256,
                          mode: str = "power") -> dict:
    """Cheapest linear modulus that works, and its exact leakage.

    With coefficient c = m(E) / (smallest atom of m.support), c * m
    dominates every markovian flow row on the support, so the worst
    excess reduces to the flow into the null atoms, those outside
    m.support; delta is that flow's sup over the horizon (and the limit)
    divided by total mass. c is infinite when an atom of the support
    underflowed to 0 or the quotient overflows. mode "mean" scores the
    running averages instead of the powers. S may be the Evidence of
    (m, horizon) in place of the system.
    """
    _require_positive_mass(m)
    least = float(m.weights[m.support].min())
    c_star = m.mass / least if least > 0.0 else np.inf
    arg, sup = _evidence(S, m, horizon)._null_sup(mode)
    return {"c": c_star, "delta": sup / m.mass, "null_flow_sup": sup,
            "worst_horizon": arg}


def _invariance_verdict(S, m, params, mode, condition):
    _require_positive_mass(m)
    ev = _evidence(S, m, params.horizon)
    S = ev.system
    worst, tag, members, mass_floor = ev._worst(mode, params.n0, params.phi)
    delta_min = worst / m.mass
    tol = 1e-12 * max(1.0, params.delta)
    ok = delta_min <= params.delta + tol
    constants = {
        "delta_min": delta_min,
        "delta": params.delta,
        "mass": m.mass,
        "horizon": params.horizon,
        "worst_horizon": tag,
        "phi": params.phi.describe(),
        "support_stable": ev._support_stable(),
        "limit_included": True,
    }
    if mode == "mean":
        constants["n0"] = params.n0
        constants["mean_mass_liminf"] = mass_floor
    witness = None
    if not ok:
        witness = {"horizon": tag, "set": _labels(S.space, members),
                   "excess": worst}
    grid = "steps 1..N" if isinstance(S, Kernel) else "doubling time grid"
    return Certificate(
        condition=condition,
        verdict=HOLDS if ok else FAILS,
        constants=constants,
        witness=witness,
        notes=f"bounded-horizon verdict over {grid} plus the limiting "
              "averages",
    )


def check_almost_invariant(S, m: Measure,
                           params: AlmostInvarianceParams) -> Certificate:
    """Every power of the flow stays below phi(set mass) + delta * m(E).

    Reports the minimal leakage fraction delta_min actually achieved at
    the given modulus; the verdict compares it against params.delta. S
    may be the Evidence of (m, params.horizon) in place of the system.
    """
    return _invariance_verdict(S, m, params, "power", "almost-invariance")


def check_mean_almost_invariant(S, m: Measure,
                                params: AlmostInvarianceParams) -> Certificate:
    """Running averages of the flow stay below phi(set mass) + delta * m(E).

    Same sweep as check_almost_invariant with S_n in place of P^n, for
    n0 <= n <= horizon, or the grid times t >= n0 of a generator. For
    sub-markovian kernels the smallest averaged total mass over the sweep
    is reported; it equals m(E) in the markovian case. S may be the
    Evidence of (m, params.horizon).
    """
    return _invariance_verdict(S, m, params, "mean", "mean-almost-invariance")


def _default_eps_grid(m: Measure) -> list:
    w = m.weights
    pos = w[w > 0.0]
    grid = [m.mass * f for f in (0.25, 1.0 / 16, 1.0 / 64, 1.0 / 256)]
    if pos.size:
        tiny = 0.5 * float(pos.min())
        if tiny < grid[-1]:
            grid.append(tiny)
    return grid


def index_profile(S, m: Measure, eps_grid=None,
                  horizon: int = 256) -> IndexProfile:
    """Worst averaged occupation of small sets, profiled over caps.

    Per cap eps: maximize (m S_n)(A) over sets with m(A) <= eps and over
    the doubling horizon grid (plus the limiting averages). Crisp values
    come from the knapsack search, fractional ones from the greedy
    relaxation. Per cap the rows are searched in decreasing order of
    their fractional bound with one incumbent carried across them, and a
    row whose bound cannot beat it is skipped: the crisp value is the
    maximum over rows, which no skipped row can raise. A truncated row
    search leaves a feasible lower bound and clears exact.

    The verdict compares the value at the smallest cap against the total
    mass (markovian) or the smallest averaged mass (sub-markovian),
    shrunk by the relative margin _INDEX_MARGIN. When a truncated search
    leaves that value bracketed between crisp and fractional and the
    bracket straddles the threshold, the verdict is inconclusive. S may
    be the Evidence of (m, horizon) in place of the system.
    """
    _require_positive_mass(m)
    if eps_grid is None:
        eps_grid = _default_eps_grid(m)
    eps = [float(e) for e in eps_grid]
    if any(e <= 0.0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_grid must be positive and strictly decreasing")

    ev = _evidence(S, m, horizon)
    S = ev.system
    rows = ev.rows("mean", doubling=True)
    tags = tuple(tag for tag, _ in rows)
    w = m.weights
    threshold = m.mass
    if isinstance(S, Kernel) and S.kind == "sub-markovian":
        threshold = min(float(row.sum()) for _, row in rows)

    crisp = []
    frac = []
    exact = True
    witness = None
    for e in eps:
        bounds = [fractional_knapsack(row, w, e) for _, row in rows]
        frac.append(max(bounds))
        best_c = 0.0
        best_at = None
        cap_exact = True
        for k in sorted(range(len(rows)), key=lambda k: -bounds[k]):
            if bounds[k] <= best_c:
                break
            tag, row = rows[k]
            found = knapsack_best(row, w, e, floor=best_c)
            cap_exact = cap_exact and found.exact
            if found.value > best_c:
                best_c = found.value
                best_at = (tag, found.members)
        exact = exact and cap_exact
        crisp.append(best_c)
        if e == eps[-1] and best_at is not None:
            witness = {"epsilon": e, "horizon": best_at[0],
                       "set": _labels(S.space, best_at[1]), "value": best_c}

    estimate = crisp[-1]
    cut = threshold - _INDEX_MARGIN * threshold
    # cap_exact is left over from the smallest cap, the one the verdict reads
    if not cap_exact and estimate < cut <= frac[-1]:
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS if estimate < cut else FAILS
    return IndexProfile(
        epsilons=tuple(eps),
        crisp=tuple(crisp),
        fractional=tuple(frac),
        horizons=tags,
        threshold=float(threshold),
        total_mass=m.mass,
        index_estimate=float(estimate),
        verdict=verdict,
        margin=_INDEX_MARGIN,
        exact=exact,
        witness=witness,
    )


def profile_certificate(profile: IndexProfile) -> Certificate:
    """Wrap an index profile as an attachable certificate."""
    notes = "index estimated at the smallest cap over the horizon grid"
    if profile.exact:
        notes += "; every knapsack search finished, so the estimate is exact"
    else:
        notes += ("; a knapsack search ran out of nodes, so the estimate may "
                  "be a lower bound, with the fractional value above it")
    return Certificate(
        condition="index-below-mass",
        verdict=profile.verdict,
        constants={
            "index_estimate": profile.index_estimate,
            "threshold": profile.threshold,
            "smallest_eps": profile.epsilons[-1],
            "margin": profile.margin,
            "exact": profile.exact,
        },
        witness=profile.witness,
        notes=notes,
    )


def check_resolvent_almost_invariant(S: Generator, m: Measure,
                                     params: AlmostInvarianceParams) -> Certificate:
    """Resolvent kernels of the flow stay below phi(set mass) + delta * m(E).

    Sweeps the markovian resolvent rows over the alpha grid _ALPHAS =
    (2, 1, 1/2, 1/4, 1/8); the limiting averages stand in for alpha -> 0.
    Also reports the exact small-cap index of the resolvent family (the
    sup over the grid of the mass landing on m-null atoms).
    """
    if not isinstance(S, Generator):
        raise ValueError("resolvent-side checks are continuous-time; "
                         "use check_almost_invariant for kernels")
    _require_positive_mass(m)
    rows = [(a, a * auxiliary_measure(S, m, a).weights) for a in _ALPHAS]
    rows.append((LIMIT, np.clip(limit_row(S, m), 0.0, None)))
    return _resolvent_verdict(S, m, params, rows)


def _resolvent_verdict(S: Generator, m: Measure,
                       params: AlmostInvarianceParams, rows) -> Certificate:
    """check_resolvent_almost_invariant's verdict over its (tag, row)
    pairs: m alpha R_alpha along _ALPHAS, then the clipped limit row."""
    worst, worst_tag, worst_members = _worst_row(rows, m, params.phi)
    _, res_index = _mass_sup(rows, m.weights <= 0.0)
    delta_min = worst / m.mass
    tol = 1e-12 * max(1.0, params.delta)
    ok = delta_min <= params.delta + tol
    witness = None
    if not ok:
        witness = {"alpha": worst_tag, "set": _labels(S.space, worst_members),
                   "excess": worst}
    return Certificate(
        condition="resolvent-almost-invariance",
        verdict=HOLDS if ok else FAILS,
        constants={
            "delta_min": delta_min,
            "delta": params.delta,
            "mass": m.mass,
            "alphas": list(_ALPHAS),
            "resolvent_index": res_index,
            "phi": params.phi.describe(),
            "support_stable": check_absolute_continuity(S, m).holds,
        },
        witness=witness,
        notes="alpha grid sweep; the limiting averages stand in for alpha -> 0",
    )


def check_seed_index(S: Generator, mu: Measure, alpha: float) -> Certificate:
    """Small sets of the smoothed seed carry little of the seed's averages.

    Evaluates c = sup over the doubling time grid 1, 2, 4, ..., 256 (and
    the limit) of the averaged seed mass landing on null atoms of m = mu
    composed with the raw resolvent at alpha, read off the evidence of
    (mu, 256); this is the exact small-cap limit on finite spaces. Holds
    iff c < alpha strictly; a passing verdict also runs the index
    profile on m and attaches it, since the bound
    c/alpha + 1/(alpha^2 t0') pushes the index below m(E) = 1/alpha for
    large enough horizon shifts.
    """
    if not isinstance(S, Generator):
        raise ValueError("seed-index checks are continuous-time")
    if abs(mu.mass - 1.0) > 1e-9:
        raise ValueError("seed measure must be a probability")
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")

    m_ref = auxiliary_measure(S, mu, alpha)
    rows = Evidence(S, mu, 256).rows("mean")
    worst_tag, c_tilde = _mass_sup(rows, m_ref.weights <= 0.0)

    # small-cap profile of the same averages against m_ref, for reporting
    eps_grid = _default_eps_grid(m_ref)
    profile = [max(fractional_knapsack(row, m_ref.weights, e)
                   for _, row in rows) for e in eps_grid]

    ok = c_tilde < alpha - 1e-9 * max(1.0, alpha)
    shift_floor = (1.0 / (alpha ** 2 * (1.0 - c_tilde))
                   if c_tilde < 1.0 else np.inf)
    constants = {
        "c_tilde": c_tilde,
        "alpha": alpha,
        "ref_mass": m_ref.mass,
        "worst_horizon": worst_tag,
        "shift_floor": shift_floor,
        "cap_profile": {"eps": eps_grid, "value": profile},
    }
    attached = ()
    verdict = HOLDS if ok else FAILS
    notes = "exact small-cap limit: averaged seed mass on null atoms of the smoothed seed"
    if ok:
        prof = index_profile(S, m_ref)
        attached = (profile_certificate(prof),)
        if not prof.holds:
            verdict = INCONCLUSIVE
            notes += ("; the implied index conclusion did not reproduce at "
                      "this horizon, so the verdict is withheld")
    return Certificate(
        condition="seed-index",
        verdict=verdict,
        constants=constants,
        witness=None if ok else {"horizon": worst_tag, "mass": c_tilde},
        notes=notes,
        attached=attached,
    )


def check_partial_subinvariance(K: Kernel, m: Measure,
                                horizon: int = 256) -> Certificate:
    """Search for a support part whose weighted flow never exceeds m.

    Looks for A inside supp(m) with m(A) > 0 such that the restricted
    flow (m restricted to A) pushed through every power up to the horizon
    (and through the limiting averages) stays below m atomwise. Found A
    yields the linear conclusion with coefficient one and leakage
    (m(E) - m(A)) / m(E), attached as a derived certificate. The search
    peels violating contributors greedily and falls back to singletons;
    finding nothing is inconclusive, not a refutation.
    """
    if not isinstance(K, Kernel):
        raise ValueError("partial subinvariance is a kernel-side check")
    _require_positive_mass(m)
    w = m.weights
    rows = K.rows
    n = K.size
    tol = 1e-12 * max(1.0, float(w.max()))
    pi = (averaging_projector(K)
          if K.kind in ("markovian", "sub-markovian") else None)

    def deep_violation(mask):
        """First (step, atom) where the restricted flow exceeds m."""
        for step, v in power_rows(K, Measure(K.space, w * mask), horizon):
            bad = v - w
            j = int(np.argmax(bad))
            if bad[j] > tol:
                return step, j
        if pi is not None:
            bad = (w * mask) @ pi - w
            j = int(np.argmax(bad))
            if bad[j] > tol:
                return LIMIT, j
        return None, None

    def drop_heaviest(mask, step, atom):
        if step == LIMIT:
            col = pi[:, atom]
        else:
            # column atom of K^step, one matrix-vector product per step
            col = rows[:, atom]
            for _ in range(int(step) - 1):
                col = rows @ col
        contrib = w * mask * col
        mask[int(np.argmax(contrib))] = False

    found = None
    mask = (w > 0.0).copy()
    while mask.any():
        step, atom = deep_violation(mask)
        if step is None:
            found = mask.copy()
            break
        drop_heaviest(mask, step, atom)

    if found is None:
        order = np.argsort(-w)
        for x in order:
            x = int(x)
            if w[x] <= 0.0:
                break
            single = np.zeros(n, dtype=bool)
            single[x] = True
            one_step = w[x] * rows[x]
            if (one_step - w).max() > tol:
                continue
            step, _ = deep_violation(single)
            if step is None:
                found = single
                break

    if found is None:
        return Certificate(
            condition="partial-subinvariance",
            verdict=INCONCLUSIVE,
            constants={"mass": m.mass, "horizon": horizon},
            notes="no set survived peeling or the singleton fallback; "
                  "existence of one is not ruled out",
        )

    a_mass = float(w[found].sum())
    delta = (m.mass - a_mass) / m.mass
    # the per-step verification leaves at most n*tol of rounding excess
    padded = delta + (n * tol) / m.mass + 1e-12
    derived = check_almost_invariant(
        K, m, AlmostInvarianceParams(PhiLinear(1.0), padded, horizon=horizon))
    if not derived.holds:
        raise ArithmeticError(
            "verified restricted flow contradicts the derived bound; "
            "tolerances are inconsistent")
    return Certificate(
        condition="partial-subinvariance",
        verdict=HOLDS,
        constants={"a_mass": a_mass, "mass": m.mass, "c": 1.0,
                   "delta": delta, "horizon": horizon},
        witness={"set": _labels(K.space, np.flatnonzero(found))},
        notes="restricted flow verified against every power up to the "
              "horizon and the limiting averages",
        attached=(derived,),
    )


def check_occupation_half(S, nu: Measure, target: StateSet,
                          alpha: float = 1.0, horizon: int = 256) -> Certificate:
    """Averaged occupation of the target set exceeds one half somewhere.

    Sweeps the running averages of the start law over the doubling grid
    1, 2, 4, ..., 64 plus the exact limit. When the limiting occupation L
    itself clears one half, the conclusion measure m = (limit restricted
    to target) composed with the resolvent is almost invariant with
    coefficient one and leakage 1/(2 m(E)), attached after verification.
    If only finite horizons clear the bar, the attached conclusion falls
    back to support-based constants, which need no occupation hypothesis
    at all.
    """
    if abs(nu.mass - 1.0) > 1e-9:
        raise ValueError("start measure must be a probability")
    mask = target.mask
    discrete = isinstance(S, Kernel)
    grid = geometric_horizons(64)
    if discrete:
        pairs = [(n, v) for n, v in mean_rows(S, nu, grid[-1]) if n in grid]
    else:
        pairs = continuous_mean_rows(S, nu, grid)
    lim = np.clip(limit_row(S, nu), 0.0, None)
    occ = [(tag, float(row[mask].sum())) for tag, row in pairs]
    occ_limit = float(lim[mask].sum())
    occ.append((LIMIT, occ_limit))
    sup_tag, sup_val = max(occ, key=lambda kv: kv[1])
    ok = sup_val > 0.5

    attached = ()
    notes = "running-average occupation of the target set, limit included"
    if ok:
        mu_hat = Measure(S.space, lim * mask)
        smoothed = auxiliary_measure(S, mu_hat, alpha).weights
        m_conc = Measure(S.space, smoothed if discrete else alpha * smoothed)
        if occ_limit > 0.5:
            delta = 1.0 / (2.0 * m_conc.mass)
            derived = check_almost_invariant(
                S, m_conc,
                AlmostInvarianceParams(PhiLinear(1.0), delta, horizon=horizon))
            attached = (derived,)
            notes += ("; conclusion measure built from the limiting "
                      "occupation restricted to the target")
        elif m_conc.mass > 0.0:
            ev = Evidence(S, m_conc, horizon)
            best = optimal_linear_params(ev, m_conc, horizon=horizon)
            derived = check_almost_invariant(
                ev, m_conc,
                AlmostInvarianceParams(PhiLinear(best["c"]),
                                       best["delta"] + 1e-12,
                                       horizon=horizon))
            attached = (derived,)
            notes += ("; the limiting occupation stayed at or below one "
                      "half, so the attached conclusion uses support-based "
                      "constants instead of the occupation bound")
        else:
            notes += ("; the limiting occupation of the target vanished, "
                      "so no conclusion measure is available")
    return Certificate(
        condition="occupation-half",
        verdict=HOLDS if ok else FAILS,
        constants={
            "occupation_sup": sup_val,
            "occupation_limit": occ_limit,
            "sup_horizon": sup_tag,
            "threshold": 0.5,
            "target_size": int(mask.sum()),
            "grid": {str(tag): val for tag, val in occ},
        },
        witness=None if ok else {"best_horizon": sup_tag, "value": sup_val},
        notes=notes,
        attached=attached,
    )


def lp_operator_norm(K: Kernel, m: Measure, p: float):
    """Operator norm of K on L^p(m), m fully supported.

    p = 1 and p = inf have closed forms; in between, a nonlinear power
    iteration on the norm ratio climbs to the norm of the nonnegative
    operator, and settles once a step moves the ratio by at most
    _NORM_TOL relative, within _NORM_MAXIT steps. Returns (value,
    converged, iterations).
    """
    w = m.weights
    if (w <= 0.0).any():
        raise ValueError("operator norms need a fully supported measure")
    rows = K.rows
    if p == 1:
        flow = w @ rows
        return float((flow / w).max()), True, 0
    if np.isinf(p):
        return float(rows.sum(axis=1).max()), True, 0
    if p < 1:
        raise ValueError("p must be at least 1")
    pm1 = p - 1.0
    adj = adjoint(K, m).rows
    f = np.ones(K.size) / m.mass ** (1.0 / p)
    prev = -np.inf
    val = 0.0
    for it in range(1, _NORM_MAXIT + 1):
        g = rows @ f
        val = float((w @ g ** p) ** (1.0 / p))
        h = adj @ (g ** pm1)
        f = h ** (1.0 / pm1)
        nf = float((w @ f ** p) ** (1.0 / p))
        if nf <= 0.0:
            return 0.0, True, it
        f = f / nf
        if abs(val - prev) <= _NORM_TOL * max(1.0, abs(val)):
            return val, True, it
        prev = val
    return val, False, _NORM_MAXIT


def check_uniform_lp_bound(S: Generator, m: Measure, p: float,
                           bound: float | None = None,
                           horizon: int = 256) -> Certificate:
    """Resolvent kernels are uniformly bounded on L^p(m) over the grid.

    Computes the operator norm per alpha of the grid _ALPHAS = (2, 1,
    1/2, 1/4, 1/8), and of the limiting averages, and reports the sup M. With a
    caller-supplied bound the verdict compares M against it; otherwise
    the computed M is the certified constant. For finite p a passing
    verdict attaches the resolvent almost-invariance conclusion with the
    power modulus m(E)^{(p-1)/p} * M * t^{1/p} (linear when p = 1), which
    follows by the usual splitting of the set integral.
    """
    if not isinstance(S, Generator):
        raise ValueError("uniform resolvent bounds are continuous-time")
    if (m.weights <= 0.0).any():
        raise ValueError("this check needs a fully supported measure")

    # the limiting averages stand in for the vanishing-alpha end of the
    # grid; without them M can understate the sup that the attached
    # modulus conclusion is scored against
    lim_kernel = Kernel(S.space, averaging_projector(S),
                        kind="markovian", on_rowsum="renormalize")
    probes = [(str(a), resolvent(S, a)) for a in _ALPHAS]
    probes.append((LIMIT, lim_kernel))

    norms = {}
    for tag, Ka in probes:
        val, converged, iters = lp_operator_norm(Ka, m, p)
        if not converged:
            return Certificate(
                condition="uniform-lp-bound",
                verdict=INCONCLUSIVE,
                constants={"p": p, "alpha": tag, "last_value": val,
                           "iterations": iters},
                notes="norm power iteration did not settle; no verdict",
            )
        norms[tag] = val
    M = max(norms.values())
    if bound is None:
        ok = np.isfinite(M)
    else:
        ok = M <= bound * (1.0 + 1e-12)

    attached = ()
    notes = ("operator norms of the resolvent kernels over the alpha grid "
             "and the limiting averages")
    if ok and not np.isinf(p):
        if p == 1:
            phi = PhiLinear(M)
        else:
            phi = PhiPower(coef=m.mass ** ((p - 1.0) / p) * M, mult=1.0, p=p)
        # the conclusion reads the kernels at hand
        rows = [(a, m.weights @ Ka.rows) for a, (_, Ka) in zip(_ALPHAS, probes)]
        rows.append((LIMIT, np.clip(m.weights @ lim_kernel.rows, 0.0, None)))
        derived = _resolvent_verdict(
            S, m, AlmostInvarianceParams(phi, 0.0, horizon=horizon), rows)
        attached = (derived,)
        notes += "; norm bound converted to a modulus conclusion"
    elif ok:
        notes += "; no modulus conclusion at p = infinity"
    return Certificate(
        condition="uniform-lp-bound",
        verdict=HOLDS if ok else FAILS,
        constants={"p": p, "M": M, "norms": dict(norms), "bound": bound},
        witness=None if ok else {"alpha": max(norms, key=norms.get),
                                 "norm": M},
        notes=notes,
        attached=attached,
    )
