"""Sharp row-comparison constants and mixture-kernel certificates.

The central object is the best constant M in (P f(y))^p <= M * P(f^p)(x)
over nonnegative f, for a fixed pair of states and exponent p > 1. On a
finite space Hoelder gives M in closed form together with the maximizing
f, so no search is involved. Combined with a contraction drift, finite
constants over a sub-level window feed the row-concentration certificate
with an explicit power-law modulus and produce an invariant measure.

The second half of the module treats state-dependent mixtures
rho * P + (1 - rho) * Q. Such a mixture inherits the certificate from P
with constants that degrade explicitly in the mixing bounds, provided Q
is dominated by a linear drift below a sharp threshold. A diagnostic
reports why the lazy special case Q = identity resists the plain
drift-plus-smallness route.

Lyapunov functions may take the value +inf on a truncation boundary, with
the drift module's convention: every drift inequality is decided by its
_pointwise_drift on [V < inf], where a row feeding an infinite atom
violates by inf.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (Kernel, StateFn, StateSet, _combined_kind, _span_product,
                   dirac, identity, push, state_index, state_mask,
                   state_values)
from .semigroup import auxiliary_measure
from .solver import solve_cesaro_adjoint
from .certificates.drift import (_concentration, _kernel_image,
                                 _pointwise_drift, fit_drift_constants)
from .certificates.phi import AlmostInvarianceParams, PhiPower
from .certificates.types import FAILS, HOLDS, INCONCLUSIVE, Certificate

__all__ = [
    "HarnackConstant",
    "PerturbationSpec",
    "harnack_constant",
    "harnack_maximizer",
    "check_harnack_drift",
    "certify_harnack_pipeline",
    "perturb",
    "certify_perturbation",
    "diagnose_lazy_atoms",
]

# horizons 1..LAZY_N_MAX of the n-step return that diagnose_lazy_atoms reads
LAZY_N_MAX = 64


@dataclass(frozen=True)
class HarnackConstant:
    """Sharp constant for one ordered pair of rows at exponent p.

    M is the exact supremum of (row_y . f)^p / (row_x . f^p) over
    nonnegative f, infinite precisely when row_y charges an atom that
    row_x misses. For stochastic rows M >= 1, with equality exactly
    when the two rows coincide.
    """

    p: float
    x: int
    y: int
    M: float

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.M))


def harnack_constant(P: Kernel, x, y, p: float) -> HarnackConstant:
    """Closed-form sharp comparison constant between rows y and x.

    M = (sum_a P(y,a)^{p/(p-1)} * P(x,a)^{-1/(p-1)})^{p-1}, with the
    convention that atoms outside both supports contribute nothing, and
    M = +inf on a support violation (a value, not an error). Hoelder
    against the splitting row_y * f = (row_y * row_x^{-1/p}) *
    (row_x^{1/p} * f) shows this bounds the ratio and that the bound is
    attained, see harnack_maximizer.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    xi = state_index(P.space, x)
    yi = state_index(P.space, y)
    rx = P.rows[xi]
    ry = P.rows[yi]
    act = ry > 0.0
    if (act & (rx <= 0.0)).any():
        return HarnackConstant(p=float(p), x=xi, y=yi, M=float("inf"))
    q = p / (p - 1.0)
    s = float(np.sum(ry[act] ** q * rx[act] ** (-q / p)))
    return HarnackConstant(p=float(p), x=xi, y=yi, M=s ** (p - 1.0))


def harnack_maximizer(P: Kernel, x, y, p: float) -> StateFn:
    """The f achieving the sharp constant: f(a) = (P(y,a)/P(x,a))^{1/(p-1)}.

    Zero where row_y vanishes. Only meaningful when the constant is
    finite; on a support violation the returned f still witnesses an
    unbounded ratio direction after truncation.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    xi = state_index(P.space, x)
    yi = state_index(P.space, y)
    rx = P.rows[xi]
    ry = P.rows[yi]
    f = np.zeros(P.size)
    act = (ry > 0.0) & (rx > 0.0)
    f[act] = (ry[act] / rx[act]) ** (1.0 / (p - 1.0))
    return StateFn(P.space, f)


def _window_max(P: Kernel, z: int, members, p: float):
    """max over members of M(z, x; p), one on an empty window.

    Returns (M, None), or (inf, x) at the first member x whose constant
    is infinite.
    """
    m_star = -np.inf if len(members) else 1.0
    for i in members:
        hc = harnack_constant(P, z, int(i), p)
        if not hc.finite:
            return float("inf"), int(i)
        m_star = max(m_star, hc.M)
    return float(m_star), None


def check_harnack_drift(P: Kernel, V, gamma: float, c: float, C,
                        z0, p: float) -> Certificate:
    """Contraction drift plus a finite comparison constant over a window.

    Two requirements: PV <= gamma*V + c pointwise on [V < inf] (V may be
    +inf, and a row feeding an infinite atom violates by inf), and
    M* = max_{x in C} M(z0, x; p) finite, so every row from C is
    power-p dominated by the single reference row at z0. Constants
    report (M*, z0); the witness on failure is the drift violator or
    the first window state with an infinite constant.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    v = state_values(P.space, V, "V", low=0.0)
    z = state_index(P.space, z0)
    mask = state_mask(P.space, C)

    worst, witness = _pointwise_drift(P, v, gamma * v + c, [c])
    members = np.flatnonzero(mask)
    m_star, bad_state = _window_max(P, z, members, p)

    ok = witness is None and bad_state is None
    if witness is None and bad_state is not None:
        witness = {"state": P.space.labels[bad_state],
                   "M": float("inf")}
    notes = "empty window makes the comparison vacuous" if members.size == 0 else ""
    return Certificate(
        condition="harnack-drift",
        verdict=HOLDS if ok else FAILS,
        constants={"gamma": float(gamma), "c": float(c), "p": float(p),
                   "M_star": m_star, "z0": P.space.labels[z],
                   "drift_gap": worst},
        witness=witness,
        notes=notes,
    )


def certify_harnack_pipeline(P: Kernel, V, C, z0=None, p: float = 2.0,
                             horizon: int = 256) -> Certificate:
    """End-to-end certificate from drift plus row comparison to an invariant.

    Fits contraction constants for V from the kernel (no contraction
    anywhere leaves the verdict inconclusive with the worst ratio as
    witness). With M* = max_{x in C} M(z0, x; p) finite, the reference
    row m = row of P at z0 concentrates every window row through
    phi(t) = (M* t)^{1/p} with no leakage, which is exactly the
    row-concentration certificate. A passing check runs the averaging
    solver against the resolvent-smoothed reference and asserts the
    resulting invariant measure is nonzero.

    z0 defaults to the minimizer of V; the choice is recorded.
    """
    v = state_values(P.space, V, "V", low=0.0)
    if z0 is None:
        z0 = int(np.argmin(v))
    z = state_index(P.space, z0)

    try:
        gamma, c = fit_drift_constants(P, V)
    except ValueError as exc:
        pos = np.isfinite(v) & (v > 0.0)
        ratios = np.full(P.size, np.inf)
        ratios[pos] = _kernel_image(P, v)[pos] / v[pos]
        worst_i = int(np.argmax(np.where(np.isfinite(ratios), ratios, -np.inf)))
        return Certificate(
            condition="harnack-pipeline",
            verdict=INCONCLUSIVE,
            constants={"p": float(p), "z0": P.space.labels[z]},
            witness={"state": P.space.labels[worst_i],
                     "ratio": float(ratios[worst_i])},
            notes=f"no usable drift: {exc}",
        )

    hl = check_harnack_drift(P, V, gamma, c, C, z, p)
    m_star = hl.constants["M_star"]
    if not np.isfinite(m_star):
        return Certificate(
            condition="harnack-pipeline",
            verdict=FAILS,
            constants={"gamma": gamma, "c": c, "p": float(p),
                       "M_star": m_star, "z0": P.space.labels[z]},
            witness=hl.witness,
            notes="a window row escapes the support of the reference row",
            attached=(hl,),
        )

    m = push(dirac(P.space, z), P)
    if m.mass <= 0.0:
        return Certificate(
            condition="harnack-pipeline",
            verdict=FAILS,
            constants={"gamma": gamma, "c": c, "p": float(p), "M_star": m_star,
                       "z0": P.space.labels[z]},
            witness={"state": P.space.labels[z], "row_mass": m.mass},
            notes="reference row carries no mass",
            attached=(hl,),
        )
    phi = PhiPower(1.0, m_star, p)
    params = AlmostInvarianceParams(phi, 0.0, horizon=horizon)
    reference = functools.cache(lambda: auxiliary_measure(P, m))
    conc = _concentration(P, m, params, C, reference)

    constants = {"gamma": gamma, "c": c, "p": float(p), "M_star": m_star,
                 "z0": P.space.labels[z], "delta": 0.0}
    if not conc.holds or not hl.holds:
        return Certificate(
            condition="harnack-pipeline",
            verdict=FAILS,
            constants=constants,
            witness=conc.witness if not conc.holds else hl.witness,
            notes="drift or concentration failed at the derived constants",
            attached=(hl, conc),
        )

    return _holds_with_invariant("harnack-pipeline", "kernel", P, reference,
                                 constants, (hl, conc))


def _holds_with_invariant(condition: str, what: str, P: Kernel, reference,
                          constants: dict, attached: tuple) -> Certificate:
    """The passing certificate, after the averaging solver has turned the
    resolvent-smoothed reference m o R, read from reference(), into a
    nonzero invariant measure."""
    res = solve_cesaro_adjoint(P, reference())
    if res.nu.mass <= 0.0:
        raise ArithmeticError(
            f"certified {what} produced the zero invariant measure")
    constants.update(invariant_mass=res.nu.mass,
                     invariant_residual=res.residual,
                     solver_converged=res.converged)
    return Certificate(condition=condition, verdict=HOLDS,
                       constants=constants, attached=attached)


@dataclass(frozen=True)
class PerturbationSpec:
    """State-dependent mixture weights and the companion kernel.

    The mixture acts as rho(x) * P-row + (1 - rho(x)) * Q-row. Weights
    must stay strictly positive; certificates that trade on the mixing
    additionally require the recorded upper bound b to stay strictly
    below one, while the plain mixture tolerates rho = 1 (which
    reproduces P). Q = None stands for the identity kernel.
    """

    rho: StateFn
    Q: Kernel | None = None

    def __post_init__(self):
        r = self.rho.values
        if (r <= 0.0).any():
            raise ValueError("mixture weights must be strictly positive")
        if (r > 1.0).any():
            raise ValueError("mixture weights cannot exceed one")
        if self.Q is not None and self.Q.space != self.rho.space:
            raise ValueError("Q lives on a different space")

    @property
    def a(self) -> float:
        return float(self.rho.values.min())

    @property
    def b(self) -> float:
        return float(self.rho.values.max())


def perturb(P: Kernel, spec: PerturbationSpec) -> Kernel:
    """Mixture kernel with row x equal to rho(x)*P-row + (1-rho(x))*Q-row."""
    r = state_values(P.space, spec.rho, "rho")
    Q = spec.Q if spec.Q is not None else identity(P.space)
    if Q.space != P.space:
        raise ValueError("Q lives on a different space")
    rows = r[:, None] * P.rows + (1.0 - r)[:, None] * Q.rows
    return Kernel(P.space, rows, kind=_combined_kind(P.kind, Q.kind))


def certify_perturbation(P: Kernel, V, gamma: float, c: float,
                         spec: PerturbationSpec, l: float, eta: float,
                         z0, p: float, r: float,
                         horizon: int = 256) -> Certificate:
    """Invariant-measure certificate for the mixture rho*P + (1-rho)*Q.

    Hypotheses checked: the threshold l < (1 - b*gamma)/(1 - a) with
    a, b the mixing bounds (strict; a failure reports both sides);
    PV <= gamma*V + c and QV <= l*V + eta pointwise on [V < inf] (V may
    be +inf, and a row feeding an infinite atom violates by inf); finite
    M = max over [V <= r] of the comparison constant against z0 for the
    base kernel. These yield the composite drift
    mixture(V) <= (b*gamma + (1-a)*l)*V + (b*c + (1-a)*eta), verified as
    a consistency check, and row concentration for the mixture with
    m = z0-row of the mixture, phi(t) = b*((M/a) t)^{1/p}, leakage
    delta = 1 - a on the window [V <= r]. The concentration part (i) is
    implied by the hypotheses, so its numerical failure raises; the
    occupation part depends on the horizon and fails honestly. A passing
    certificate runs the averaging solver on the mixture and records the
    invariant's residual.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    if l < 0.0 or eta < 0.0:
        raise ValueError("l and eta must be nonnegative")
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    a, b = spec.a, spec.b
    if b >= 1.0:
        raise ValueError("mixing upper bound must stay strictly below one")
    v = state_values(P.space, V, "V", low=0.0)
    z = state_index(P.space, z0)

    threshold = (1.0 - b * gamma) / (1.0 - a)
    constants = {"a": a, "b": b, "gamma": float(gamma), "c": float(c),
                 "l": float(l), "eta": float(eta), "p": float(p),
                 "r": float(r), "threshold": threshold,
                 "z0": P.space.labels[z]}
    if not l < threshold:
        return Certificate(
            condition="perturbation",
            verdict=FAILS,
            constants=constants,
            witness={"l": float(l), "threshold": threshold},
            notes="mixing threshold violated",
        )

    _, witness = _pointwise_drift(P, v, gamma * v + c, [c, eta])
    if witness is not None:
        return Certificate(
            condition="perturbation",
            verdict=FAILS,
            constants=constants,
            witness={**witness, "failed": "base-drift"},
            notes="base kernel misses the claimed drift",
        )
    Q = spec.Q if spec.Q is not None else identity(P.space)
    # l may be zero; V is zeroed off [V < inf], where rhs is never read
    _, witness = _pointwise_drift(
        Q, v, l * np.where(np.isfinite(v), v, 0.0) + eta, [c, eta])
    if witness is not None:
        return Certificate(
            condition="perturbation",
            verdict=FAILS,
            constants=constants,
            witness={**witness, "failed": "companion-drift"},
            notes="companion kernel misses the linear domination",
        )

    window = StateSet.from_mask(P.space, v <= r)
    m_big, bad_state = _window_max(P, z, window.members, p)
    constants["M"] = m_big
    if bad_state is not None:
        return Certificate(
            condition="perturbation",
            verdict=FAILS,
            constants=constants,
            witness={"state": P.space.labels[bad_state], "M": float("inf")},
            notes="window row escapes the reference support",
        )

    mixed = perturb(P, spec)
    coeff = b * gamma + (1.0 - a) * l
    additive = b * c + (1.0 - a) * eta
    constants["composite_coeff"] = coeff
    constants["composite_additive"] = additive
    comp_gap, witness = _pointwise_drift(mixed, v, coeff * v + additive,
                                         [c, eta])
    if witness is not None:
        raise ArithmeticError(
            f"composite drift violated by {comp_gap:.3e} despite the "
            "hypotheses; the mixing bounds are inconsistent")

    m = push(dirac(P.space, z), mixed)
    phi = PhiPower(b, m_big / a, p)
    delta = 1.0 - a
    reference = functools.cache(lambda: auxiliary_measure(mixed, m))
    conc = _concentration(mixed, m,
                          AlmostInvarianceParams(phi, delta, horizon=horizon),
                          window, reference)
    if not conc.holds:
        if conc.witness is not None and "set" in conc.witness:
            raise ArithmeticError(
                "row concentration violated despite the hypotheses: "
                f"{conc.witness}")
        return Certificate(
            condition="perturbation",
            verdict=FAILS,
            constants=constants,
            witness=conc.witness,
            notes="window occupation not persistent within the horizon",
            attached=(conc,),
        )

    return _holds_with_invariant("perturbation", "mixture", mixed, reference,
                                 constants, (conc,))


def diagnose_lazy_atoms(P: Kernel, spec: PerturbationSpec, C=None,
                        V=None, r=None) -> dict:
    """Why the lazy mixture resists drift-plus-smallness: an atom report.

    Requires Q to be the identity. Laziness pins mass on single states:
    the n-step return satisfies diag(mixture^n) >= (1 - rho)^n, with
    equality at every horizon for states whose P-column vanishes (the
    only way back is to never leave). Over any nonempty A inside C the
    sup of mixture(x, A) over x in C stays >= 1 - b, so no decreasing
    exhaustion of an infinite window could push it to zero. Finite
    spaces always carry atoms (some P(x, {y}) >= 1/size), so the
    vanishing-column hypothesis cannot hold everywhere and the report is
    labelled illustrative; it sharpens on finer grids as the largest
    single-state mass shrinks. The returns are checked at every horizon
    up to LAZY_N_MAX = 64.

    The window C may be given directly or as a sub-level set [V <= r].
    """
    Q = spec.Q
    if Q is not None and not np.array_equal(Q.rows, np.eye(P.size)):
        raise ValueError("diagnostic requires the identity mixing kernel")
    if C is None:
        if V is None or r is None:
            raise ValueError("supply C or both V and r")
        C = StateSet.from_mask(P.space, state_values(P.space, V, "V") <= r)
    mask = state_mask(P.space, C)
    members = np.flatnonzero(mask)

    rho = state_values(P.space, spec.rho, "rho")
    mixed = perturb(P, spec)
    lazy = 1.0 - rho

    shortfall = 0.0
    exact_cols = np.flatnonzero(~(P.rows > 0.0).any(axis=0))
    exact_gap = 0.0
    pow_rows = mixed.rows.copy()
    for n in range(1, LAZY_N_MAX + 1):
        diag = np.diagonal(pow_rows)
        lower = lazy ** n
        shortfall = min(shortfall, float((diag - lower).min()))
        if exact_cols.size:
            exact_gap = max(exact_gap,
                            float(np.abs(diag[exact_cols]
                                         - lower[exact_cols]).max()))
        if n < LAZY_N_MAX:
            pow_rows = _span_product(pow_rows, mixed.rows)[0]
    loopless = np.flatnonzero(np.diagonal(P.rows) == 0.0)
    one_step = float(np.abs(np.diagonal(mixed.rows)[loopless]
                            - lazy[loopless]).max()) if loopless.size else 0.0

    tail_sups = []
    tail_sizes = []
    floor = 1.0 - spec.b
    floor_ok = True
    for k in range(len(members) + 1):
        tail = members[k:]
        tail_sizes.append(int(tail.size))
        if members.size == 0:
            tail_sups.append(0.0)
            continue
        sup = float(mixed.rows[np.ix_(members, tail)].sum(axis=1).max()
                    if tail.size else 0.0)
        tail_sups.append(sup)
        if tail.size and sup < floor - 1e-12:
            floor_ok = False

    return {
        "n_max": LAZY_N_MAX,
        "lower_bound_ok": shortfall >= -1e-12,
        "max_shortfall": shortfall,
        "exact_column_states": [P.space.labels[int(i)] for i in exact_cols],
        "exact_identity_gap": exact_gap,
        "one_step_gap_loopless": one_step,
        "atom_mass_max": float(P.rows.max()),
        "tail_sizes": tail_sizes,
        "tail_sups": tail_sups,
        "floor": floor,
        "floor_respected": floor_ok,
        "illustrative": True,
        "note": ("finite spaces keep at least one atom of mass >= 1/size, "
                 "so the vanishing-column hypothesis is only approached "
                 "on fine grids"),
    }
