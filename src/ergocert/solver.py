"""Invariant measures: one ergodic decomposition, exact eigen solves and
the constructive Cesaro limit.

decompose alone finds closed classes, their laws and their absorption
weights, for kernels and generators alike. Both come from one
elimination, blocked Grassmann-Taksar-Heyman censoring over the envelope
of the rate block (_censor): no step subtracts, so every atom of a law
is accurate relative to its own size. _absorb, the one absorption
builder, censors a set of states with target sets and killed mass as
absorbing targets. _resolvent_push, the third user, pushes measures
through every resolvent, 2I - K or alpha I - Q, with the row slack as
the one absorbing target. Every limit is one product, absorption
weights times the stacked class laws: Pi = H L, and m Pi = (m H) L.
solve_eigen enumerates every invariant probability (one per closed
class that keeps its mass), regardless of any reference measure.
solve_cesaro_adjoint starts from a reference measure m and produces the
largest invariant measure absolutely continuous w.r.t. m, which is
legitimately the zero measure when no mass survives inside supp(m). It
reads the limit of the Cesaro averages of m under K killed outside
supp(m) off the same decomposition: the closed classes inside supp(m),
weighted by m's absorption into each. The dense projector identities
are a test oracle (tests/oracles.py, check_projector), not a run-time
check.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field

import numpy as np

from .core import (Kernel, Measure, StateFn, StateSet,
                   _require_positive_mass)
from .semigroup import Generator

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
_BLOCK = 64
"""Pivots per block of _censor. On one BLAS thread of a 2-core x86_64
host (best of 7, two runs), the ou_grid(800) class law takes 20-21 ms at
32 pivots, 16.5-17 ms at 64 and 16.5-17 ms at 128; one push of a Dirac
start through it 22-23, 18-20 and 17-19 ms. The banded birth_death(1200)
law takes 11 ms and its push 13.5-14 ms at all three widths."""
# the envelope back-substitution scales the law down by a power of two once
# an atom passes this, so a law that grows along the order stays finite
_RESCALE_AT = 2.0 ** 500


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


@dataclass(frozen=True)
class ErgodicDecomposition:
    """Closed classes, their invariant probabilities, and absorption weights
    of a (sub-)markovian kernel or a generator. Absorption rows sum to one,
    or to less where a sub-markovian kernel lets mass die off. The limit
    of the averages is the absorption weights times the class laws
    (projector)."""

    space: object
    classes: tuple          # tuple[StateSet]
    class_measures: tuple   # tuple[Measure], probabilities
    transient: StateSet
    absorption: np.ndarray  # (n_states, n_classes), rows sum to at most 1

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def projector(self) -> np.ndarray:
        """Limit of the running (or time) averages as a dense matrix:
        the absorption weights times the class laws."""
        return self.absorption @ self._laws()

    def _laws(self) -> np.ndarray:
        """The class laws stacked, one row per class."""
        return np.reshape([mj.weights for mj in self.class_measures],
                          (self.n_classes, self.absorption.shape[0]))


def _profile(a: np.ndarray):
    """First nonzero column left of the diagonal in each row of a, and
    first nonzero row above it in each column; the diagonal index where
    there is none."""
    nz = a != 0.0
    idx = np.arange(len(a))
    return (np.minimum(nz.argmax(axis=1), idx),
            np.minimum(nz.argmax(axis=0), idx))


def _blocks(n: int):
    """The pivot blocks [lo, hi) of _censor, from the last one down."""
    return [(max(hi - _BLOCK, 0), hi) for hi in range(n, 0, -_BLOCK)]


def _censor(a, first_col, first_row, exits=None) -> np.ndarray:
    """Censor the states of a from the last one down, in place (GTH).

    a holds the rates between states off its diagonal, which is never
    read, and (first_col, first_row) its _profile; exits, if given, holds
    each state's rates to absorbing targets outside a, one column per
    target. When state k is censored, its exit rate s[k] is the sum of
    its remaining rates, to the states before it and to the targets,
    never 1 - P(k, k). The rates into k are divided by s[k] and fold k's
    row into the rows before it. No step subtracts.

    The pivots run in blocks of _BLOCK states [lo, hi), each over the
    envelope of its block: the first column c0 and the first row r0 that
    the profile gives any of its rows and columns. Fill-in stays in that
    envelope. Each block's pivots run on one small work array that holds
    the block, its exits, the strip of its rows left of it (columns
    c0..lo) and the strip of its columns above it (rows r0..lo), and is
    written back once the block is done. Pivot k gathers what the later
    pivots of the block owe its row and its column, as two matrix-vector
    products of their censored rates. A strip wider than the block
    enters the work array as an identity, and a wide left strip also as
    one column of its row sums, which s[k] reads in its place: the
    pivots then build the block's transform of the strip, and its real
    rates are multiplied through it once, at the end of the block. What
    the block owes the rows above it in the columns left of it is added
    once more, as one product over that rectangle: the block's columns
    (the rates into its states divided by their exit rates) times its
    rows (their censored rates out). Every factor is nonnegative, so
    each entry is the same sum of nonnegative terms as pivot by pivot
    (tests/oracles.py, censor_pivotwise), in another order, and still
    nothing is subtracted. The profile is widened to each block's
    envelope.

    Returns s. Row k of a and of exits then holds k's censored rates at
    its pivot, column k of a the rates into k divided by s[k], and the
    profile the envelope each pivot used.
    """
    n = len(a)
    s = np.empty(n)
    n_exits = 0 if exits is None else exits.shape[1]
    for lo, hi in _blocks(n):
        size = hi - lo
        r0 = int(first_row[lo:hi].min())
        c0 = int(first_col[lo:hi].min())
        wide, tall = lo - c0 > size, lo - r0 > size
        left = size if wide else lo - c0
        top = size if tall else lo - r0
        j0 = left + n_exits + wide  # the block's first column in w
        # rows: the strip above, then the block; columns: the strip to
        # the left, the exits (and the wide strip's row sums), the block
        w = np.empty((top + size, j0 + size))
        w[top:, j0:] = a[lo:hi, lo:hi]
        if n_exits:
            w[top:, left:left + n_exits] = exits[lo:hi]
        if wide:
            w[top:, :left] = np.eye(size)
            w[top:, j0 - 1] = a[lo:hi, c0:lo].sum(axis=1)
        else:
            w[top:, :left] = a[lo:hi, c0:lo]
        w[:top, j0:] = np.eye(size) if tall else a[r0:lo, lo:hi]
        for i in range(size - 1, -1, -1):
            p, c = top + i, j0 + i
            row = w[p, :c]
            row += w[p, c + 1:] @ w[p + 1:, :c]
            # a wide strip's identity columns hold no rates: s[k] reads
            # its column of row sums in their place
            s[lo + i] = exit_rate = (w[p, left:c] if wide else row).sum()
            if p:
                col = w[:p, c]
                col += w[:p, c + 1:] @ w[p + 1:, c]
                col /= exit_rate
        a[lo:hi, lo:hi] = w[top:, j0:]
        if n_exits:
            exits[lo:hi] = w[top:, left:left + n_exits]
        # a strip that entered as an identity is multiplied through the
        # transform its identity became
        a[lo:hi, c0:lo] = (w[top:, :left] @ a[lo:hi, c0:lo] if wide
                           else w[top:, :left])
        a[r0:lo, lo:hi] = (a[r0:lo, lo:hi] @ w[:top, j0:] if tall
                           else w[:top, j0:])
        np.minimum(first_col[r0:hi], c0, out=first_col[r0:hi])
        np.minimum(first_row[c0:hi], r0, out=first_row[c0:hi])
        if r0 < lo:
            if c0 < lo:
                a[r0:lo, c0:lo] += a[r0:lo, lo:hi] @ a[lo:hi, c0:lo]
            if exits is not None:
                exits[r0:lo] += a[r0:lo, lo:hi] @ exits[lo:hi]
    return s


def _stationary(M: np.ndarray) -> np.ndarray:
    """Probability x with x M = 0 for an irreducible block M.

    M holds the rates of the class, a stochastic block or a generator
    block, off its diagonal; it is overwritten. _censor eliminates the
    states from the last one down, and x is back-substituted from
    x(0) = 1 through the censored rates into each state, one block of
    _censor at a time: one product over the strip above the block, then
    state by state inside it. Nothing is subtracted, so each atom
    carries a relative error bound that grows with the size of M but not
    with how stiff or nearly decoupled the class is (O'Cinneide, Numer.
    Math. 65, 1993). An atom reads 0 only where the law falls below the
    smallest subnormal. A law that grows along the order is rescaled by
    powers of two, so it stays finite: before a block's strip product
    the law so far is brought to at most 1, so no partial sum overflows
    before the rescales inside the block, and inside the block it is
    rescaled, partial sums with it, once an atom passes _RESCALE_AT.
    """
    first_col, first_row = _profile(M)
    _censor(M, first_col, first_row)
    x = np.zeros(M.shape[0])
    x[0] = 1.0
    for lo, hi in reversed(_blocks(len(x))):
        r0 = first_row[lo]  # the block's envelope, as _censor left it
        if r0 < lo:
            # the strip's terms enter before the rescales inside the
            # block, so the law before it is brought to at most 1 first
            top = x[:lo].max()
            if top > 1.0:
                x[:lo] = np.ldexp(x[:lo], -int(np.frexp(top)[1]))
            x[lo:hi] = x[r0:lo] @ M[r0:lo, lo:hi]
        for k in range(max(lo, 1), hi):
            x[k] += x[lo:k] @ M[lo:k, k]
            if x[k] > _RESCALE_AT:
                x[:hi] = np.ldexp(x[:hi], -int(np.frexp(x[k])[1]))
    return x / x.sum()


def _resolvent_push(rates, slack, mu) -> np.ndarray:
    """x with x A = mu, A with -rates off its diagonal and row sums
    slack > 0, as 2I - K and alpha I - Q; mu is one measure or one per
    row, and x has its shape. _censor takes the slack as the one exit,
    so every pivot is a sum of nonnegative terms; mu is folded down
    through the censored rows, and x back-substituted up through the
    censored columns, one block of _censor at a time: state by state
    inside the block, and one product over its strip. Nothing is
    subtracted, so each atom of x is accurate relative to its size
    (Alfa, Xue and Ye, Numer. Math. 90, 2002), and the equations summed
    give sum_j x(j) slack(j) = mu(X).
    """
    a = np.array(rates, dtype=float)
    first_col, first_row = _profile(a)
    s = _censor(a, first_col, first_row, np.array(slack, float)[:, None])
    x = np.array(np.transpose(mu), dtype=float, order="C")
    blocks = _blocks(len(a))
    for lo, hi in blocks:
        for k in range(hi - 1, lo - 1, -1):
            x[k] /= s[k]
            x[lo:k] += np.multiply.outer(a[k, lo:k], x[k])
        c0 = first_col[lo]  # the block's envelope, as _censor left it
        if c0 < lo:
            x[c0:lo] += a[lo:hi, c0:lo].T @ x[lo:hi]
    for lo, hi in reversed(blocks):
        r0 = first_row[lo]
        if r0 < lo:
            x[lo:hi] += a[r0:lo, lo:hi].T @ x[r0:lo]
        for k in range(lo + 1, hi):
            x[k] += a[lo:k, k] @ x[lo:k]
    return x.T


def _absorb(A, states, targets, killed=None) -> np.ndarray:
    """Absorption probabilities h of the given states into target sets.

    A holds the rates; only its rows of states are read, and never on
    the diagonal. targets are disjoint index sets outside states, each
    one absorbing, and killed, if given, is each state's rate of mass
    that dies. _censor eliminates the states from the last one down, and
    h is back-substituted from the first one up, each row its censored
    rates into h plus its exits, over its exit rate: one block of
    _censor at a time, one product over the strip left of the block and
    state by state inside it. Every state must reach a target or lose
    mass. Returns one column per target set.
    """
    a = A[np.ix_(states, states)]
    exits = [A[np.ix_(states, idx)].sum(axis=1) for idx in targets]
    if killed is not None:
        exits.append(killed)
    exits = np.stack(exits, axis=1)
    first_col, first_row = _profile(a)
    s = _censor(a, first_col, first_row, exits)
    h = exits  # each row becomes its weights at its turn
    for lo, hi in reversed(_blocks(len(a))):
        c0 = first_col[lo]  # the block's envelope, as _censor left it
        if c0 < lo:
            h[lo:hi] += a[lo:hi, c0:lo] @ h[c0:lo]
        for k in range(lo, hi):
            h[k] += a[k, lo:k] @ h[lo:k]
            h[k] /= s[k]
    return h[:, :len(targets)]


def _strong_components(adjacency: np.ndarray):
    """Number of strongly connected components and each state's label.

    An adjacency whose nonzeros exactly fill squares along the diagonal,
    one after another, has one component per square, found without a
    walk: each row's first and last nonzero column bound its square, and
    the nonzero count is the sum of the squared sizes. The squares are
    labelled in index order, as _tarjan numbers them. Any other
    adjacency takes _tarjan.
    """
    n = len(adjacency)
    first = adjacency.argmax(axis=1)
    if first[0] == 0:
        starts = first == np.arange(n)
        labels = np.cumsum(starts) - 1
        sizes = np.bincount(labels)
        if np.count_nonzero(adjacency) == sizes @ sizes:
            lo = np.flatnonzero(starts)
            last = n - 1 - adjacency[:, ::-1].argmax(axis=1)
            if ((first == lo[labels]).all()
                    and (last == (lo + sizes - 1)[labels]).all()):
                return len(lo), labels
    return _tarjan(adjacency)


def _tarjan(adjacency: np.ndarray):
    """Iterative Tarjan search with roots in index order and successors
    in decreasing index order; components are numbered in the order the
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


# id(system) -> (system, decomposition) for the run in progress, or None
# outside a run; the entry holds the system, so its id is not recycled
_RUN_DECOMPOSITIONS = contextvars.ContextVar("_RUN_DECOMPOSITIONS",
                                             default=None)


@contextlib.contextmanager
def _shared_decompositions():
    """Within the block, decompose builds each system's decomposition once.

    The memo lives as long as the block and no longer, so a system kept
    alive after a run does not keep its decomposition alive, and what
    one run computed never changes the work of another.
    """
    token = _RUN_DECOMPOSITIONS.set({})
    try:
        yield
    finally:
        _RUN_DECOMPOSITIONS.reset(token)


def _rate_form(S):
    """(A, shift, lam, sub): M = A - shift I, read against the rate lam;
    sub marks a sub-markovian kernel."""
    if isinstance(S, Generator):
        return S.rates, 0.0, S.lam or 1.0, False
    if S.kind in ("markovian", "sub-markovian"):
        return S.rows, 1.0, 1.0, S.kind == "sub-markovian"
    raise ValueError("decomposition needs (sub-)markovian rows or a "
                     f"generator, got kind {S.kind!r}")


def decompose(S) -> ErgodicDecomposition:
    """Split a (sub-)markovian kernel or a generator into closed classes
    plus transient states, read in rate form M = P - I or M = Q.

    M is never formed whole. Each closed class of the graph P > 0 or
    Q > 0 gets its law from x M = 0 on its block, checked to
    EIGEN_RESIDUAL_TOL in l1 against x M / lam, where lam is 1 for a
    kernel and the uniformization rate of a generator (1 if it has no
    rates). The law comes from _stationary, blocked GTH censoring with
    an entrywise relative error bound. A sub-markovian class whose rows
    miss one leaks and counts as transient. Absorption weights solve
    -M_tt h = M_tc 1 by the same censoring (_absorb), with each class,
    and the mass a sub-markovian kernel loses, as an absorbing target:
    each pivot is the sum of the state's outflows, never 1 - P(x, x), so
    a slow leak keeps every row of weights at mass one to rounding. The
    projector identities that these weights and laws satisfy are held to
    in the tests (oracles.check_projector), not checked here.

    Inside one run_pipeline call the decomposition of a system object is
    built once and shared by every stage that asks for it. Outside a run
    each call builds anew.
    """
    memo = _RUN_DECOMPOSITIONS.get()
    entry = None if memo is None else memo.get(id(S))
    if entry is not None and entry[0] is S:
        return entry[1]
    decomp = _build_decomposition(S, *_rate_form(S))
    if memo is not None:
        memo[id(S)] = (S, decomp)
    return decomp


def _build_decomposition(S, A, shift, lam, sub) -> ErgodicDecomposition:
    n = S.size
    adjacency = A > 0.0
    n_comp, labels = _strong_components(adjacency)
    classes = []
    laws = []
    in_class = np.zeros(n, dtype=bool)
    for c in range(n_comp):
        mask = labels == c
        if adjacency[np.ix_(mask, ~mask)].any():
            continue  # the component is open
        idx = np.flatnonzero(mask)
        if sub and np.abs(A[np.ix_(idx, idx)].sum(axis=1) - 1.0).max() > 1e-12:
            continue
        in_class[idx] = True
        w = np.zeros(n)
        w[idx] = _stationary(A[np.ix_(idx, idx)])
        residual = np.abs((w @ A - shift * w) / lam).sum()
        if residual > EIGEN_RESIDUAL_TOL:
            raise ArithmeticError(
                f"stationary solve residual {residual:.3e} exceeds "
                f"{EIGEN_RESIDUAL_TOL}")
        classes.append(idx)
        laws.append(w)
    if not classes and not sub:
        raise AssertionError("a finite markovian kernel or generator always "
                             "has a closed class")
    absorption = np.zeros((n, len(classes)))
    for j, idx in enumerate(classes):
        absorption[idx, j] = 1.0
    transient = np.flatnonzero(~in_class)
    if transient.size and classes:
        # the mass a sub-markovian kernel loses dies
        killed = (np.maximum(1.0 - A[transient].sum(axis=1), 0.0) if sub
                  else None)
        absorption[transient, :] = _absorb(A, transient, classes, killed)
    # a run shares one decomposition among its callers
    absorption.setflags(write=False)

    return ErgodicDecomposition(
        space=S.space,
        classes=tuple(StateSet(S.space, idx) for idx in classes),
        class_measures=tuple(Measure(S.space, w) for w in laws),
        transient=StateSet(S.space, transient),
        absorption=absorption,
    )


def averaging_projector(S) -> np.ndarray:
    """Limit of the running averages of a (sub-)markovian kernel, or of
    the time averages of a generator's flow: the decomposition projector.
    Mass of a sub-markovian kernel that never reaches a closed class
    keeping its mass dies off, so rows may sum to less than one.
    """
    return decompose(S).projector()


def solve_eigen(K: Kernel) -> tuple[InvariantResult, ...]:
    """One invariant probability per closed class, by direct solves."""
    decomp = decompose(K)
    out = []
    for cls, nu in zip(decomp.classes, decomp.class_measures):
        residual = float(np.abs(nu.weights @ K.rows - nu.weights).sum())
        out.append(InvariantResult(
            nu=nu, density=None, residual=residual, method="eigen",
            iterations=0, converged=True,
            diagnostics={"class_members": list(cls.members)}))
    return tuple(out)


def solve_cesaro_adjoint(K: Kernel, m: Measure) -> InvariantResult:
    """Constructive invariant measure: the limit of the Cesaro averages
    (1/n) sum_{k<n} m K_S^k, read off the ergodic decomposition of K.

    K_S is K killed outside S = m.support: mass that leaves S, or that a
    sub-markovian row loses, dies. On a finite space the limit is exactly
    m Pi_S = sum_j (m h_j) pi_j (Kemeny and Snell, Finite Markov Chains,
    1960, ch. III), over the closed classes j of K that lie wholly inside
    S; a class only partly inside S leaks in K_S, so the graph decides.
    h_j is the absorption into class j under K_S: decompose's own rows
    when no edge of K leaves S, else _absorb with the kept classes and
    the killed mass as targets. With no class inside S the limit is the
    legitimate zero measure. A "general" kernel raises decompose's
    ValueError. Both proof steps are checked on measures, dividing by no
    atom of m: nu K_S <= nu + EIGEN_RESIDUAL_TOL |nu| entrywise, and
    |nu K_S| = |nu| within the same slack. The density nu / m is taken
    where the float m > 0 (+inf where the quotient overflows) and reads 0
    elsewhere, on atoms of S that underflowed too. Nothing is iterated:
    iterations is 0 and converged True. The diagnostics list the kept
    classes and count the underflowed atoms of S.
    """
    _require_positive_mass(m)
    decomp = decompose(K)
    w = m.weights
    in_s = np.zeros(K.size, dtype=bool)
    in_s[m.support] = True
    kept = [j for j, cls in enumerate(decomp.classes) if in_s[cls.mask].all()]
    h = decomp.absorption[:, kept]
    if kept and K.rows[np.ix_(in_s, ~in_s)].any():
        # every edge out of S starts outside the kept classes; the mass
        # it carries dies, as does what a sub-markovian row loses
        targets = [decomp.classes[j].members for j in kept]
        rest = np.setdiff1d(m.support, np.concatenate(targets))
        killed = K.rows[np.ix_(rest, np.flatnonzero(~in_s))].sum(axis=1)
        if K.kind == "sub-markovian":
            killed += np.maximum(1.0 - K.rows[rest].sum(axis=1), 0.0)
        h[rest] = _absorb(K.rows, rest, targets, killed)
    nu = (w @ h) @ decomp._laws()[kept]

    stepped = nu @ K.rows
    killed_step = np.where(in_s, stepped, 0.0)
    slack = EIGEN_RESIDUAL_TOL * float(nu.sum())
    excess = float((killed_step - nu).max())
    if excess > slack:
        raise ArithmeticError(
            f"limit measure is not sub-invariant (excess {excess:.3e})")
    gap = abs(float(killed_step.sum()) - float(nu.sum()))
    if gap > slack:
        raise ArithmeticError(
            f"the kernel does not conserve the limit mass (gap {gap:.3e})")

    with np.errstate(over="ignore"):
        rho = np.divide(nu, w, out=np.zeros(K.size), where=w > 0.0)
    return InvariantResult(
        nu=Measure(K.space, nu),
        density=StateFn(K.space, rho, extended=bool(np.isinf(rho).any())),
        residual=float(np.abs(stepped - nu).sum()),
        method="cesaro-adjoint",
        iterations=0,
        converged=True,
        diagnostics={
            "kept_classes": [list(decomp.classes[j].members) for j in kept],
            "underflowed_atoms": int(np.count_nonzero(in_s & (w == 0.0))),
        },
    )


def solve_continuous(G: Generator) -> tuple[InvariantResult, ...]:
    """Invariant probabilities of a generator, one per closed rate class,
    from decompose. Each candidate nu must be fixed by alpha R_alpha, for
    alpha in {1/2, 1, 2}, within 1e-10 in l1. A closed class c makes
    alpha I - Q block-triangular, so nu R_alpha is the resolvent push of
    nu on the class block alone, with slack alpha.
    """
    decomp = decompose(G)
    out = []
    for cls, nu in zip(decomp.classes, decomp.class_measures):
        w = nu.weights
        residual = float(np.abs(w @ G.rates).sum())
        idx = list(cls.members)
        qc, wc = G.rates[np.ix_(idx, idx)], w[idx]
        for a in (0.5, 1.0, 2.0):
            pushed = _resolvent_push(qc, np.full(len(idx), a), wc)
            drift = float(np.abs(a * pushed - wc).sum())
            if drift > 1e-10:
                raise ArithmeticError(
                    f"candidate not fixed by the resolvent kernel "
                    f"(drift {drift:.3e})")
        out.append(InvariantResult(
            nu=nu, density=None, residual=residual, method="generator-eigen",
            iterations=0, converged=True,
            diagnostics={"class_members": [int(i) for i in cls.members]}))
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
    decomp = decompose(K)
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
