"""Bundled model families used by the demos, the CLI, and the test suite.

Each builder returns a ScenarioBundle: the kernel (or rate generator)
plus whichever companions make sense for it — a Lyapunov function with
its known constants, the exact stationary measure when a closed form
exists, and a distinguished small window. Everything is deterministic
given the seed, so reports built on top of these are reproducible.

Conventions. Walks reflect at the boundary by turning the blocked move
into a self-loop: at the bottom the down-probability stays put, at the
top the up-probability stays put. The diffusion grid discretizes one
explicit Euler step onto equally spaced points, folds the Gaussian tails
back across the boundary, and renormalizes rows.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import Kernel, Measure, StateFn, StateSet, StateSpace
from .harnack import PerturbationSpec, perturb
from .semigroup import Generator

__all__ = [
    "Scenario",
    "ScenarioBundle",
    "generate",
    "scenario_ids",
    "two_state",
    "absorbing_pair",
    "birth_death",
    "outward_walk",
    "ou_grid",
    "block_chain",
    "lazy_cycle",
    "ctmc_symmetric",
]


@dataclass(frozen=True)
class Scenario:
    """Named model family plus parameters; JSON-friendly."""

    id: str
    params: dict = field(default_factory=dict)
    seed: int = 0


@dataclass(frozen=True)
class ScenarioBundle:
    """A kernel or generator with its canonical companions."""

    scenario: Scenario
    kernel: object
    V: StateFn | None = None
    m: Measure | None = None
    C: StateSet | None = None
    extras: dict = field(default_factory=dict)


def _probability(name, value):
    v = float(value)
    if not 0.0 < v < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1")
    return v


def two_state(p=0.1, q=0.2, seed: int = 0) -> ScenarioBundle:
    """Generic ergodic pair: rows (1-p, p) and (q, 1-q).

    Stationary measure (q, p)/(p+q); second eigenvalue 1 - p - q, so the
    exact decay rate is known.
    """
    p = _probability("p", p)
    q = _probability("q", q)
    sp = StateSpace.range(2)
    K = Kernel(sp, [[1.0 - p, p], [q, 1.0 - q]])
    m = Measure(sp, np.array([q, p]) / (p + q))
    return ScenarioBundle(
        scenario=Scenario("two_state", {"p": p, "q": q}, seed),
        kernel=K, m=m,
        extras={"second_eigenvalue": 1.0 - p - q})


def absorbing_pair(seed: int = 0) -> ScenarioBundle:
    """Shift onto an absorbing state: rows [[0,1],[0,1]].

    The uniform reference measure sees the invariant point mass at the
    absorbing state; the point mass at the transient state sees nothing.
    Both variants ride along in extras.
    """
    sp = StateSpace.range(2)
    K = Kernel(sp, [[0.0, 1.0], [0.0, 1.0]])
    m_uniform = Measure(sp, [0.5, 0.5])
    m_dirac = Measure(sp, [1.0, 0.0])
    return ScenarioBundle(
        scenario=Scenario("absorbing_pair", {}, seed),
        kernel=K, m=m_uniform,
        extras={"m_dirac": m_dirac, "m_uniform": m_uniform})


def birth_death(n=100, p_down=0.7, seed: int = 0) -> ScenarioBundle:
    """Nearest-neighbour walk on {0..n-1} drifting toward 0.

    Reflection keeps blocked moves in place. For p_down = d > 1/2 the
    function V(x) = x/(2d-1) satisfies PV = V - 1 strictly inside and
    only state 0 carries a positive excess, b(0) = d/(2d-1); those
    constants and the geometric stationary measure (ratio (1-d)/d)
    travel with the bundle.
    """
    if n < 2:
        raise ValueError("need at least two states")
    d = _probability("p_down", p_down)
    up = 1.0 - d
    rows = np.zeros((n, n))
    for i in range(n):
        if i == 0:
            rows[0, 0] += d
        else:
            rows[i, i - 1] = d
        if i == n - 1:
            rows[i, i] += up
        else:
            rows[i, i + 1] = up
    sp = StateSpace.range(n)
    K = Kernel(sp, rows)

    extras = {"p_down": d}
    V = None
    C = None
    if d > 0.5:
        V = StateFn(sp, np.arange(n) / (2.0 * d - 1.0))
        C = StateSet(sp, [0])
        extras["drift_b"] = d / (2.0 * d - 1.0)
    ratio = up / d
    # a growing law is built from its far end, so no weight overflows
    w = (ratio ** np.arange(n) if ratio <= 1.0
         else (d / up) ** np.arange(n)[::-1])
    m = Measure(sp, w / w.sum())
    extras["stationary_ratio"] = ratio
    return ScenarioBundle(
        scenario=Scenario("birth_death", {"n": n, "p_down": d}, seed),
        kernel=K, V=V, m=m, C=C, extras=extras)


def outward_walk(n=50, p_out=0.7, seed: int = 0) -> ScenarioBundle:
    """Walk drifting away from 0; mass piles at the far boundary."""
    p = _probability("p_out", p_out)
    bundle = birth_death(n, p_down=1.0 - p)
    return ScenarioBundle(
        scenario=Scenario("outward_walk", {"n": n, "p_out": p}, seed),
        kernel=bundle.kernel, m=bundle.m,
        extras={"p_out": p})


def ou_grid(n=41, dt=0.8, theta=0.5, sigma=0.7, span=4.0,
            seed: int = 0) -> ScenarioBundle:
    """Mean-reverting diffusion step discretized on a symmetric grid.

    One explicit Euler step: next = (1 - theta*dt) * x + sigma*sqrt(dt),
    noise standard normal. Gaussian weights are evaluated at the grid
    points together with their mirror images across both boundaries,
    then rows are renormalized, so every row has full support and the
    pairwise comparison constants stay finite. Companions: V = x^2, the
    spectral stationary measure, and the central window |x| <= span/2.
    """
    if n < 3:
        raise ValueError("grid needs at least three points")
    if dt <= 0.0 or sigma <= 0.0 or span <= 0.0:
        raise ValueError("dt, sigma, span must be positive")
    lam = 1.0 - float(theta) * float(dt)
    if not 0.0 < lam < 1.0:
        raise ValueError("theta*dt must lie strictly between 0 and 1")
    xs = np.linspace(-span, span, n)
    sd = float(sigma) * float(np.sqrt(dt))
    mean = lam * xs

    def gauss(target):
        return np.exp(-0.5 * ((target[None, :] - mean[:, None]) / sd) ** 2)

    rows = gauss(xs) + gauss(2.0 * span - xs) + gauss(-2.0 * span - xs)
    rows /= rows.sum(axis=1, keepdims=True)
    sp = StateSpace(f"x{i}" for i in range(n))
    K = Kernel(sp, rows)

    from .solver import solve_eigen
    res = solve_eigen(K)
    m = res[0].nu.normalized() if len(res) == 1 else None
    V = StateFn(sp, xs ** 2)
    C = StateSet.from_mask(sp, np.abs(xs) <= span / 2.0)
    return ScenarioBundle(
        scenario=Scenario("ou_grid", {"n": n, "dt": float(dt),
                                      "theta": float(theta),
                                      "sigma": float(sigma),
                                      "span": float(span)}, seed),
        kernel=K, V=V, m=m, C=C,
        extras={"xs": xs, "contraction": lam, "step_sd": sd})


def block_chain(k=3, block_size=4, seed: int = 0) -> ScenarioBundle:
    """k disjoint ergodic blocks: exactly k recurrent classes.

    Rows inside each block are random with a floor, so each block is
    aperiodic and irreducible; there is no interaction between blocks.
    The reference measure is uniform with unit atoms, making counting
    bounds easy to calibrate.
    """
    if k < 1 or block_size < 1:
        raise ValueError("k and block_size must be positive")
    rng = np.random.default_rng(seed)
    n = k * block_size
    rows = np.zeros((n, n))
    for b in range(k):
        lo = b * block_size
        block = rng.random((block_size, block_size)) + 0.1
        block /= block.sum(axis=1, keepdims=True)
        rows[lo:lo + block_size, lo:lo + block_size] = block
    sp = StateSpace.range(n)
    K = Kernel(sp, rows)
    m = Measure(sp, np.ones(n))
    return ScenarioBundle(
        scenario=Scenario("block_chain",
                          {"k": k, "block_size": block_size}, seed),
        kernel=K, m=m,
        extras={"classes": k})


def lazy_cycle(n=6, rho=0.5, seed: int = 0) -> ScenarioBundle:
    """Deterministic n-cycle mixed with the identity at constant weight.

    The cycle itself is periodic; laziness makes it aperiodic while the
    uniform measure stays invariant (the chain is doubly stochastic).
    The mixing spec rides along for the perturbation diagnostics.
    """
    if n < 2:
        raise ValueError("cycle needs at least two states")
    r = _probability("rho", rho)
    sp = StateSpace.range(n)
    cycle = Kernel(sp, np.roll(np.eye(n), 1, axis=1))
    spec = PerturbationSpec(StateFn.constant(sp, r))
    K = perturb(cycle, spec)
    m = Measure(sp, np.full(n, 1.0 / n))
    return ScenarioBundle(
        scenario=Scenario("lazy_cycle", {"n": n, "rho": r}, seed),
        kernel=K, m=m,
        extras={"base": cycle, "spec": spec})


def ctmc_symmetric(rate=1.0, seed: int = 0) -> ScenarioBundle:
    """Two-state symmetric continuous-time chain.

    Rates +-rate off the diagonal; the uniform measure is invariant and
    every transition kernel is an explicit 2x2 exponential. The skewed
    reference (0.9, 0.1) used by the worked examples rides in extras.
    """
    r = float(rate)
    if r <= 0.0:
        raise ValueError("rate must be positive")
    sp = StateSpace.range(2)
    G = Generator(sp, [[-r, r], [r, -r]])
    m = Measure(sp, [0.5, 0.5])
    return ScenarioBundle(
        scenario=Scenario("ctmc_symmetric", {"rate": r}, seed),
        kernel=G, m=m,
        extras={"m_skew": Measure(sp, [0.9, 0.1])})


_BUILDERS = {
    "two_state": two_state,
    "absorbing_pair": absorbing_pair,
    "birth_death": birth_death,
    "outward_walk": outward_walk,
    "ou_grid": ou_grid,
    "block_chain": block_chain,
    "lazy_cycle": lazy_cycle,
    "ctmc_symmetric": ctmc_symmetric,
}


def scenario_ids() -> tuple:
    return tuple(sorted(_BUILDERS))


def generate(s: Scenario) -> ScenarioBundle:
    """Dispatch a Scenario record to its builder."""
    if s.id not in _BUILDERS:
        raise ValueError(f"unknown scenario {s.id!r}; "
                         f"known: {', '.join(scenario_ids())}")
    return _BUILDERS[s.id](seed=s.seed, **s.params)
