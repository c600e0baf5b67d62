"""Invariant measures: exact eigen solves and the constructive averaging route.

The two paths answer different questions. solve_eigen enumerates every
invariant probability (one per closed communicating class), regardless
of any reference measure. solve_cesaro_adjoint starts from a reference
measure m and produces the largest invariant measure absolutely
continuous w.r.t. m, which is legitimately the zero measure when no
mass survives inside supp(m).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Kernel, Measure, StateFn, StateSet, adjoint, push
from .semigroup import Generator, resolvent

__all__ = [
    "InvariantResult",
    "ErgodicDecomposition",
    "decompose",
    "averaging_projector",
    "solve_eigen",
    "solve_cesaro_adjoint",
    "solve_continuous",
    "verify_count_bound",
]

EIGEN_RESIDUAL_TOL = 1e-12
CESARO_TOL = 1e-10
MAX_DOUBLINGS = 40


@dataclass(frozen=True)
class InvariantResult:
    """An invariant (or sub-invariant limit) measure with provenance."""

    nu: Measure
    density: StateFn | None
    residual: float
    method: str
    iterations: int
    converged: bool = True
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_zero(self) -> bool:
        return self.nu.mass <= 1e-300


@dataclass(frozen=True)
class ErgodicDecomposition:
    """Closed classes, their invariant probabilities, and absorption weights."""

    space: object
    classes: tuple          # tuple[StateSet]
    class_measures: tuple   # tuple[Measure], probabilities
    transient: StateSet
    absorption: np.ndarray  # (n_states, n_classes), rows sum to 1

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def projector(self) -> np.ndarray:
        """Limit of the running averages S_n as a dense matrix."""
        return _projector(self.absorption,
                          [mj.weights for mj in self.class_measures])


def _stationary(M: np.ndarray) -> np.ndarray:
    """Probability x with x M = 0 for an irreducible block M.

    M is block - I for a stochastic block or the rates of a generator
    class. One equation is traded for the normalization, and three
    rounds of iterative refinement polish the solve.
    """
    n = M.shape[0]
    if n == 1:
        return np.ones(1)
    A = M.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    x = np.linalg.solve(A, rhs)
    for _ in range(3):
        r = A @ x - rhs
        if np.abs(r).max() <= 1e-16:
            break
        x = x - np.linalg.solve(A, r)
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def _strong_components(adjacency: np.ndarray):
    """Number of strongly connected components and each state's label.

    Iterative Tarjan search with roots in index order and successors in
    decreasing index order; components are numbered in the order the
    search closes them. That is the numbering scipy's
    connected_components(..., connection="strong") gives, so classes
    come out in the same order either way.
    """
    n = len(adjacency)
    succ = [np.flatnonzero(row)[::-1].tolist() for row in adjacency]
    order = [-1] * n   # discovery index, -1 while unvisited
    low = [0] * n
    on_stack = [False] * n
    labels = [-1] * n
    stack = []
    seen = count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        on_stack[root] = True
        frames = [(root, iter(succ[root]))]
        while frames:
            v, rest = frames[-1]
            for w in rest:
                if order[w] < 0:
                    order[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                frames.pop()
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        labels[w] = count
                        if w == v:
                            break
                    count += 1
    return count, np.array(labels)


def _closed_components(adjacency: np.ndarray):
    """Strongly connected components split into closed and open ones."""
    n_comp, labels = _strong_components(adjacency)
    closed = []
    for c in range(n_comp):
        mask = labels == c
        if not adjacency[np.ix_(mask, ~mask)].any():
            closed.append(c)
    return labels, closed


def _conserved_classes(K: Kernel):
    """Closed classes that keep their mass, stationary rows, absorption.

    Returns (classes, rows, absorption, transient): the index array of
    each closed class whose block rows sum to one (every closed class of
    a markovian kernel), the class's stationary probability as a full
    row, the (n_states, n_classes) probabilities of ending up in each
    class, from the first-step linear system, and the indices of all
    other states. Mass of a sub-markovian kernel that never reaches such
    a class dies off, so its absorption rows sum to less than one. Every
    stationary row is checked against the kernel to EIGEN_RESIDUAL_TOL
    in l1.
    """
    n = K.size
    labels, closed = _closed_components(K.rows > 0.0)
    classes = []
    rows = []
    in_class = np.zeros(n, dtype=bool)
    for c in closed:
        idx = np.flatnonzero(labels == c)
        block = K.rows[np.ix_(idx, idx)]
        if (K.kind != "markovian"
                and np.abs(block.sum(axis=1) - 1.0).max() > 1e-12):
            continue
        in_class[idx] = True
        block[np.diag_indices(idx.size)] -= 1.0  # block - I, in place
        w = np.zeros(n)
        w[idx] = _stationary(block)
        residual = np.abs(w @ K.rows - w).sum()
        if residual > EIGEN_RESIDUAL_TOL:
            raise ArithmeticError(
                f"stationary solve residual {residual:.3e} exceeds "
                f"{EIGEN_RESIDUAL_TOL}")
        classes.append(idx)
        rows.append(w)
    absorption = np.zeros((n, len(classes)))
    for j, idx in enumerate(classes):
        absorption[idx, j] = 1.0
    transient = np.flatnonzero(~in_class)
    if transient.size and classes:
        # spectral radius of the transient block is < 1, so this is regular
        ptt = K.rows[np.ix_(transient, transient)]
        rhs = np.stack([K.rows[np.ix_(transient, idx)].sum(axis=1)
                        for idx in classes], axis=1)
        absorption[transient, :] = np.linalg.solve(
            np.eye(transient.size) - ptt, rhs)
    return classes, rows, absorption, transient


def _projector(absorption: np.ndarray, rows) -> np.ndarray:
    n = absorption.shape[0]
    out = np.zeros((n, n))
    for j, w in enumerate(rows):
        out += absorption[:, [j]] * w[None, :]
    return out


def decompose(K: Kernel, verify: bool = True) -> ErgodicDecomposition:
    """Split a markovian kernel into closed classes plus transient states.

    Each closed class gets its invariant probability by a direct linear
    solve, checked against the kernel; transient states get absorption
    weights from the first-step linear system. With verify=True the
    projector identities Pi P = Pi, P Pi = Pi, Pi^2 = Pi are asserted,
    and every row of Pi must sum to one, which the zero matrix, a
    solution of all three identities, does not. None of these checks
    depends on how fast the chain mixes.
    """
    if K.kind != "markovian":
        raise ValueError("decomposition needs a markovian kernel")
    classes, rows, absorption, transient = _conserved_classes(K)
    if not classes:
        raise AssertionError("a finite markovian kernel always has a "
                             "closed class")

    decomp = ErgodicDecomposition(
        space=K.space,
        classes=tuple(StateSet(K.space, idx) for idx in classes),
        class_measures=tuple(Measure(K.space, w) for w in rows),
        transient=StateSet(K.space, transient),
        absorption=absorption,
    )

    if verify:
        pi = decomp.projector()
        for name, left, right in (
            ("Pi P = Pi", pi @ K.rows, pi),
            ("P Pi = Pi", K.rows @ pi, pi),
            ("Pi Pi = Pi", pi @ pi, pi),
        ):
            err = np.abs(left - right).max()
            if err > 1e-10:
                raise ArithmeticError(f"projector identity {name} off by {err:.3e}")
        err = np.abs(pi.sum(axis=1) - 1.0).max()
        if err > 1e-10:
            raise ArithmeticError(f"projector rows miss mass one by {err:.3e}")
    return decomp


def averaging_projector(K: Kernel) -> np.ndarray:
    """Limit of the running averages S_n, markovian or sub-markovian.

    For markovian kernels this is the decomposition projector. For
    sub-markovian kernels only the conservative closed classes (internal
    row sums exactly one) survive; mass that never reaches one dies off,
    so rows of the result may sum to less than one, possibly to zero.
    """
    if K.kind not in ("markovian", "sub-markovian"):
        raise ValueError("averaging limits need (sub-)markovian rows, "
                         f"got kind {K.kind!r}")
    _, rows, absorption, _ = _conserved_classes(K)
    return _projector(absorption, rows)


def solve_eigen(K: Kernel) -> tuple[InvariantResult, ...]:
    """One invariant probability per closed class, by direct solves."""
    decomp = decompose(K, verify=False)
    out = []
    for cls, nu in zip(decomp.classes, decomp.class_measures):
        residual = float(np.abs(nu.weights @ K.rows - nu.weights).sum())
        out.append(InvariantResult(
            nu=nu, density=None, residual=residual, method="eigen",
            iterations=0, converged=True,
            diagnostics={"class_members": list(cls.members)}))
    return tuple(out)


def solve_cesaro_adjoint(K: Kernel, m: Measure) -> InvariantResult:
    """Constructive invariant density via averaged adjoint iterates.

    Runs f_n = (1/n) sum_{k<n} (P*)^k 1 on doubling horizons n = 2^j,
    up to MAX_DOUBLINGS of them, with Richardson extrapolation
    2 f_{2n} - f_n to absorb the O(1/n) term; the plain iterate settles
    once its step falls to CESARO_TOL, the extrapolated one at a tenth
    of that. The limit rho is a sub-invariant density; nu = rho . m is
    invariant. Mass that the dynamics push out of supp(m) dies in the
    averages, so the zero measure is a legitimate outcome and is
    reported with its decay diagnostics rather than an error.
    """
    A = adjoint(K, m, strict=False).rows
    n = K.size
    mw = m.weights
    mass_total = m.mass
    if mass_total <= 0:
        raise ValueError("reference measure must have positive mass")

    def l1m(vec):
        return float(np.abs(vec) @ mw)

    f = np.ones(n)          # horizon 1
    pow_rows = A.copy()     # A^(2^j)
    prev_extr = None
    mode = "exhausted"
    deltas = []
    masses = [l1m(f)]
    j = 0
    for j in range(1, MAX_DOUBLINGS + 1):
        f_next = 0.5 * (f + pow_rows @ f)
        delta = l1m(f_next - f) / mass_total
        deltas.append(delta)
        extr = 2.0 * f_next - f
        masses.append(l1m(f_next))
        if delta <= CESARO_TOL:
            f = f_next
            mode = "plain"
            break
        if prev_extr is not None:
            edelta = l1m(extr - prev_extr) / mass_total
            if edelta <= 0.1 * CESARO_TOL:
                f = np.clip(extr, 0.0, None)
                mode = "extrapolated"
                break
        prev_extr = extr
        f = f_next
        if j < MAX_DOUBLINGS:
            pow_rows = pow_rows @ pow_rows

    converged = mode != "exhausted"
    rho = np.clip(f, 0.0, None)
    nu = Measure(K.space, rho * mw)
    residual = float(np.abs(push(nu, K).weights - nu.weights).sum())

    if converged:
        # the two proof steps, numerically: sub-invariance of the density,
        # then mass conservation forcing equality
        slack = max(100.0 * CESARO_TOL,
                    100.0 * (deltas[-1] if deltas else 0.0))
        over = float(np.max((A @ rho - rho) / max(1.0, np.abs(rho).max())))
        if over > slack:
            raise ArithmeticError(
                f"limit density is not sub-invariant (excess {over:.3e})")
        gap = abs(l1m(A @ rho) - l1m(rho)) / mass_total
        if gap > slack:
            raise ArithmeticError(
                f"adjoint does not conserve the limit mass (gap {gap:.3e})")

    decay = None
    if len(masses) >= 3 and masses[-1] > 0 and masses[-3] > 0:
        decay = masses[-1] / masses[-3]
    return InvariantResult(
        nu=nu,
        density=StateFn(K.space, rho),
        residual=residual,
        method="cesaro-adjoint",
        iterations=j,
        converged=converged,
        diagnostics={
            "mode": mode,
            "horizon_log2": j,
            "deltas": deltas[-8:],
            "mass_trajectory": masses[-8:],
            "mass_decay_per_doubling": decay,
        },
    )


def solve_continuous(G: Generator) -> tuple[InvariantResult, ...]:
    """Invariant probabilities of a generator, one per closed rate class.

    Each candidate is verified to be fixed by alpha R_alpha for alpha in
    {1/2, 1, 2} within 1e-10.
    """
    off = G.rates.copy()
    np.fill_diagonal(off, 0.0)
    labels, closed = _closed_components(off > 0.0)
    if not closed:
        raise AssertionError("a conservative generator always has a closed class")
    kernels = [resolvent(G, a) for a in (0.5, 1.0, 2.0)]
    out = []
    n = G.size
    for c in closed:
        idx = np.flatnonzero(labels == c)
        block = G.rates[np.ix_(idx, idx)]
        local = _stationary(block)
        w = np.zeros(n)
        w[idx] = local
        nu = Measure(G.space, w)
        residual = float(np.abs(w @ G.rates).sum())
        for Kk in kernels:
            drift = float(np.abs(push(nu, Kk).weights - w).sum())
            if drift > 1e-10:
                raise ArithmeticError(
                    f"candidate not fixed by the resolvent kernel "
                    f"(drift {drift:.3e})")
        out.append(InvariantResult(
            nu=nu, density=None, residual=residual, method="generator-eigen",
            iterations=0, converged=True,
            diagnostics={"class_members": [int(i) for i in idx]}))
    return tuple(out)


def verify_count_bound(K: Kernel, m: Measure, phi, delta: float) -> dict:
    """Check the class-count bound implied by a concentration certificate.

    Requires the one-step concentration inequality to hold at every state
    (C equal to the whole space). Returns the bound, the actual count,
    per-class masses, and whether the bound is attained (boundary case).
    """
    from .certificates.drift import check_concentration, invariant_count_bound
    from .certificates.phi import AlmostInvarianceParams

    everything = np.ones(K.size, dtype=bool)
    params = AlmostInvarianceParams(phi, delta, horizon=1)
    cert = check_concentration(K, m, params, everything)
    if not cert.holds:
        raise ValueError("concentration inequality fails at some state; "
                         "the count bound does not apply")
    bound = invariant_count_bound(m, phi, delta)
    decomp = decompose(K, verify=False)
    threshold = phi.inverse(1.0 - delta)
    masses = [m.of(cls) for cls in decomp.classes]
    count = decomp.n_classes
    if count > bound + 1e-9:
        raise AssertionError(
            f"class count {count} exceeds the certified bound {bound:.6g}")
    for cls, cm in zip(decomp.classes, masses):
        if cm < threshold - 1e-9 * max(1.0, threshold):
            raise AssertionError(
                f"closed class {tuple(cls.members)} has mass {cm:.6g} "
                f"below the certified floor {threshold:.6g}")
    return {
        "bound": float(bound),
        "count": int(count),
        "class_masses": [float(v) for v in masses],
        "mass_floor": float(threshold),
        "tight": bool(abs(count - bound) <= 1e-9),
        "unique": bool(float(phi(m.mass / 2.0)) < 1.0 - delta),
    }
