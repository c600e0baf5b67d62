"""Finite state spaces, weighted measures, state functions, and kernel algebra.

Everything is dense float64 and immutable after construction. Row-major
kernels: ``rows[x, a]`` is the mass moved from state x to state a in one
step.

Every doubling of a horizon climbs the one private ladder here, _Ladder:
powers, Cesaro averages, decay norms, generator rows and uniformization;
_grid_ladders holds the rule for a time grid.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "ROWSUM_TOL",
    "SpaceMismatchError",
    "AbsoluteContinuityError",
    "StateSpace",
    "Measure",
    "StateFn",
    "StateSet",
    "Kernel",
    "identity",
    "matmul",
    "apply",
    "push",
    "power",
    "cesaro",
    "adjoint",
]

ROWSUM_TOL = 1e-12


class SpaceMismatchError(ValueError):
    """Operands are indexed by different state spaces."""


class AbsoluteContinuityError(ValueError):
    """Mass flows out of the support of the reference measure."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite collection of state labels."""

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable):
        # interned, so spaces with the same labels share the strings
        object.__setattr__(self, "labels",
                           tuple(sys.intern(str(x)) for x in labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be distinct")
        if not self.labels:
            raise ValueError("state space must be nonempty")

    @classmethod
    def range(cls, n: int, prefix: str = "s") -> "StateSpace":
        return cls(f"{prefix}{i}" for i in range(n))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(str(label))

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"StateSpace({self.size} states)"


def _require_positive_mass(m: "Measure") -> None:
    if m.mass <= 0.0:
        raise ValueError("reference measure must have positive mass")


def _check_same_space(a, b):
    if a.space != b.space:
        raise SpaceMismatchError(
            f"operands on different spaces: {a.space!r} vs {b.space!r}"
        )


@dataclass(frozen=True)
class Measure:
    """Nonnegative weight vector over a state space (not necessarily normalized)."""

    space: StateSpace
    weights: np.ndarray
    _reach = None  # exact support that auxiliary_measure kept, or None

    def __init__(self, space: StateSpace, weights):
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape != (space.size,):
            raise ValueError(f"expected {space.size} weights, got {w.shape}")
        if np.isnan(w).any() or np.isinf(w).any():
            raise ValueError("measure weights must be finite")
        if (w < -ROWSUM_TOL).any():
            raise ValueError("measure weights must be nonnegative")
        w = np.where(w < 0.0, 0.0, w)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", _frozen_array(w))

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def support(self) -> np.ndarray:
        """Indices of atoms with strictly positive weight; for a reference
        from auxiliary_measure with atoms that underflowed to 0, the states
        reachable from its start."""
        if self._reach is not None:
            return self._reach
        return np.flatnonzero(self.weights > 0.0)

    def of(self, where) -> float:
        """Mass of a StateSet, boolean mask, or index array."""
        if isinstance(where, StateSet):
            _check_same_space(self, where)
            where = where.mask
        return float(self.weights[np.asarray(where)].sum())

    def expect(self, f: "StateFn") -> float:
        """Integral of f against this measure; 0 * inf is treated as 0."""
        _check_same_space(self, f)
        v = f.values
        if f.extended and np.isinf(v).any():
            inf_hit = np.isinf(v) & (self.weights > 0.0)
            if inf_hit.any():
                return float("inf")
            v = np.where(np.isinf(v), 0.0, v)
        return float(self.weights @ v)

    def normalized(self) -> "Measure":
        m = self.mass
        if m <= 0.0:
            raise ValueError("cannot normalize the zero measure")
        return Measure(self.space, self.weights / m)

    def __repr__(self) -> str:
        return f"Measure(mass={self.mass:.6g}, support={len(self.support)}/{self.space.size})"


@dataclass(frozen=True)
class StateFn:
    """Real-valued function on a state space.

    Values must be finite unless ``extended`` is set, which admits +inf
    (drift functions on truncations). NaN is never allowed.
    """

    space: StateSpace
    values: np.ndarray
    extended: bool = False

    def __init__(self, space: StateSpace, values, extended: bool = False):
        v = np.asarray(values, dtype=float).reshape(-1)
        if v.shape != (space.size,):
            raise ValueError(f"expected {space.size} values, got {v.shape}")
        if np.isnan(v).any():
            raise ValueError("state function values must not be NaN")
        if not extended and np.isinf(v).any():
            raise ValueError("non-finite values require extended=True")
        if extended and (v == -np.inf).any():
            raise ValueError("only +inf is admitted for extended functions")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", _frozen_array(v))
        object.__setattr__(self, "extended", bool(extended))

    @classmethod
    def constant(cls, space: StateSpace, value: float) -> "StateFn":
        return cls(space, np.full(space.size, float(value)))

    @classmethod
    def one(cls, space: StateSpace) -> "StateFn":
        return cls.constant(space, 1.0)

    def in_unit_interval(self, tol: float = 0.0) -> bool:
        v = self.values
        return bool((v >= -tol).all() and (v <= 1.0 + tol).all())

    def __repr__(self) -> str:
        lo, hi = float(self.values.min()), float(self.values.max())
        return f"StateFn(range=[{lo:.6g}, {hi:.6g}])"


@dataclass(frozen=True)
class StateSet:
    """Subset of a state space, kept as sorted indices."""

    space: StateSpace
    members: tuple[int, ...]

    def __init__(self, space: StateSpace, members: Iterable[int]):
        idx = sorted({int(i) for i in members})
        if idx and (idx[0] < 0 or idx[-1] >= space.size):
            raise ValueError("set member out of range")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "members", tuple(idx))

    @classmethod
    def from_mask(cls, space: StateSpace, mask) -> "StateSet":
        return cls(space, np.flatnonzero(np.asarray(mask, dtype=bool)))

    @property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.space.size, dtype=bool)
        if self.members:
            m[list(self.members)] = True
        m.setflags(write=False)
        return m

    @property
    def size(self) -> int:
        return len(self.members)

    def indicator(self) -> StateFn:
        return StateFn(self.space, self.mask.astype(float))

    def complement(self) -> "StateSet":
        return StateSet.from_mask(self.space, ~self.mask)

    def __contains__(self, i: int) -> bool:
        return int(i) in self.members

    def __repr__(self) -> str:
        return f"StateSet({self.size}/{self.space.size})"


def state_index(space: StateSpace, s) -> int:
    """Index of a state given by position or by label; bools are labels."""
    if isinstance(s, (int, np.integer)) and not isinstance(s, bool):
        i = int(s)
        if not 0 <= i < space.size:
            raise ValueError(f"state index {i} out of range")
        return i
    return space.index(s)


def dirac(space: StateSpace, s) -> Measure:
    """Unit mass at one state, given by position or by label."""
    w = np.zeros(space.size)
    w[state_index(space, s)] = 1.0
    return Measure(space, w)


def state_values(space: StateSpace, f, name: str, low=None,
                 finite: bool = False) -> np.ndarray:
    """Values of a StateFn or array-like on space, validated.

    NaN is never accepted and +inf only where finite is False; low, when
    given, bounds every value from below.
    """
    if isinstance(f, StateFn):
        if f.space != space:
            raise ValueError(f"{name} lives on a different state space")
        v = f.values
    else:
        v = np.asarray(f, dtype=float).reshape(-1)
        if v.shape != (space.size,):
            raise ValueError(f"{name} needs {space.size} values, got {v.shape}")
        if np.isnan(v).any():
            raise ValueError(f"{name} must not contain NaN")
    if finite and np.isinf(v).any():
        raise ValueError(f"{name} must be finite")
    if low is not None and (v < low).any():
        raise ValueError(f"{name} must be >= {low}")
    return v


def state_mask(space: StateSpace, C, name: str = "set") -> np.ndarray:
    """Boolean mask of a StateSet, a boolean mask or member indices.

    Indices go through StateSet, so a negative or too large one raises
    instead of wrapping around.
    """
    if isinstance(C, StateSet):
        if C.space != space:
            raise ValueError(f"{name} lives on a different state space")
        return C.mask
    arr = np.asarray(C)
    if arr.dtype == bool:
        if arr.shape != (space.size,):
            raise ValueError(f"{name} mask has wrong length")
        return arr.copy()
    return StateSet(space, arr.tolist()).mask


_KINDS = ("markovian", "sub-markovian", "general")


@dataclass(frozen=True)
class Kernel:
    """Dense transition kernel.

    kind:
        "markovian"      row sums equal 1 within ROWSUM_TOL
        "sub-markovian"  row sums at most 1 + ROWSUM_TOL
        "general"        nonnegative rows, sums unconstrained (adjoints)

    on_rowsum: "reject" raises when a markovian row sum misses 1 beyond
    tolerance; "renormalize" rescales offending rows instead.
    """

    space: StateSpace
    rows: np.ndarray
    kind: str = "markovian"

    def __init__(self, space: StateSpace, rows, kind: str = "markovian",
                 on_rowsum: str = "reject"):
        if kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}")
        if on_rowsum not in ("reject", "renormalize"):
            raise ValueError("on_rowsum must be 'reject' or 'renormalize'")
        # the one copy of rows: clipped, rescaled and frozen in place
        r = np.array(rows, dtype=float, order="C")
        n = space.size
        if r.shape != (n, n):
            raise ValueError(f"expected {(n, n)} matrix, got {r.shape}")
        if not np.isfinite(r).all():
            raise ValueError("kernel entries must be finite")
        if (r < -ROWSUM_TOL).any():
            i, j = np.unravel_index(np.argmin(r), r.shape)
            raise ValueError(f"negative entry {r[i, j]:.3e} at ({i}, {j})")
        r[r < 0.0] = 0.0
        sums = r.sum(axis=1)
        if kind == "markovian":
            bad = np.abs(sums - 1.0) > ROWSUM_TOL
            if bad.any():
                if on_rowsum == "renormalize":
                    if (sums[bad] <= 0.0).any():
                        raise ValueError("cannot renormalize a zero row")
                    r /= sums[:, None]
                else:
                    i = int(np.argmax(np.abs(sums - 1.0)))
                    raise ValueError(
                        f"markovian row {i} sums to {sums[i]!r}, off by "
                        f"{sums[i] - 1.0:.3e} (tolerance {ROWSUM_TOL})")
        elif kind == "sub-markovian":
            bad = sums > 1.0 + ROWSUM_TOL
            if bad.any():
                if on_rowsum == "renormalize":
                    scale = np.where(sums > 1.0, sums, 1.0)
                    r /= scale[:, None]
                else:
                    i = int(np.argmax(sums))
                    raise ValueError(
                        f"sub-markovian row {i} sums to {sums[i]!r} > 1")
        r.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "kind", kind)

    @property
    def size(self) -> int:
        return self.space.size

    def row_measure(self, x: int) -> Measure:
        return Measure(self.space, self.rows[int(x)])

    def __repr__(self) -> str:
        return f"Kernel({self.kind}, {self.size} states)"


def identity(space: StateSpace) -> Kernel:
    return Kernel(space, np.eye(space.size), kind="markovian")


def _combined_kind(a: str, b: str) -> str:
    if "general" in (a, b):
        return "general"
    if "sub-markovian" in (a, b):
        return "sub-markovian"
    return "markovian"


def matmul(K: Kernel, L: Kernel) -> Kernel:
    """Composition: one step of K followed by one step of L."""
    _check_same_space(K, L)
    kind = _combined_kind(K.kind, L.kind)
    return Kernel(K.space, K.rows @ L.rows, kind=kind,
                  on_rowsum="renormalize" if kind == "markovian" else "reject")


def apply(K: Kernel, f: StateFn) -> StateFn:
    """Act on a state function: (Kf)(x) = sum_a K(x,a) f(a).

    Extended functions follow the 0 * inf = 0 convention: a state picks up
    +inf exactly when the kernel puts positive mass on an infinite atom.
    """
    _check_same_space(K, f)
    v = f.values
    if f.extended and np.isinf(v).any():
        inf_mask = np.isinf(v)
        finite = np.where(inf_mask, 0.0, v)
        out = K.rows @ finite
        hits = K.rows[:, inf_mask].sum(axis=1) > 0.0
        out = np.where(hits, np.inf, out)
        return StateFn(K.space, out, extended=True)
    out = K.rows @ v
    if np.isnan(out).any():
        raise ValueError("kernel application produced NaN")
    return StateFn(K.space, out, extended=f.extended)


def push(m: Measure, K: Kernel) -> Measure:
    """Push a measure forward: (m K)(a) = sum_x m(x) K(x,a)."""
    _check_same_space(m, K)
    return Measure(K.space, m.weights @ K.rows)


PANEL = 128
SPAN_SHARE = 0.6


def _row_spans(M: np.ndarray):
    """First and one-past-last nonzero column of each row of M.

    An all-zero row gets the empty span (M.shape[1], 0), so it drops out
    of the minimum and maximum taken over a panel.
    """
    nz = M != 0.0
    width = M.shape[1]
    first = nz.argmax(axis=1)
    hit = nz[np.arange(M.shape[0]), first]
    first = np.where(hit, first, width)
    last = np.where(hit, width - nz[:, ::-1].argmax(axis=1), 0)
    return first, last


def _full_rows(M: np.ndarray) -> bool:
    """True when the first and last column of M are nonzero in every row.

    Every row then spans all columns, which _row_spans would find only
    after a full scan of M.
    """
    return bool((M[:, 0] != 0.0).all() and (M[:, -1] != 0.0).all())


def _span_product(L: np.ndarray, R: np.ndarray, spans=None):
    """L @ R, skipping the structural zeros of banded and block operands.

    Each panel of PANEL rows of L is multiplied only over [c0, c1), the
    nonzero columns of its rows, and into [d0, d1), the nonzero columns
    of rows c0..c1 of R. The skipped terms are exact zeros, so for finite
    operands the result differs from L @ R only by summation order. Small
    operands (at most 2 * PANEL rows), operands whose rows all span every
    column and operands whose spanned work exceeds SPAN_SHARE of the
    dense work take a single L @ R.

    spans, if given, is the pair of the operands' row spans (_row_spans),
    either one None where the caller has not got it; it is then scanned
    here, as it always is without spans. Returns the pair (L @ R, its row
    spans). Those are found inside the panel blocks just computed, each
    block scanned once, and nowhere else, since every entry outside them
    is an exact zero; after a single L @ R they are None, for the caller
    to scan only if it needs them.
    """
    l_spans, r_spans = (None, None) if spans is None else spans
    n = L.shape[0]
    if n <= 2 * PANEL or (_full_rows(L) and _full_rows(R)):
        return L @ R, None
    l_first, l_last = _row_spans(L) if l_spans is None else l_spans
    if r_spans is None:
        r_spans = (l_first, l_last) if R is L else _row_spans(R)
    r_first, r_last = r_spans
    starts = np.arange(0, n, PANEL)
    c0s = np.minimum.reduceat(l_first, starts)
    c1s = np.maximum.reduceat(l_last, starts)
    blocks = []
    work = 0
    for r0, c0, c1 in zip(starts.tolist(), c0s.tolist(), c1s.tolist()):
        if c0 >= c1:
            continue  # every row of the panel is zero
        d0, d1 = int(r_first[c0:c1].min()), int(r_last[c0:c1].max())
        if d0 >= d1:
            continue  # the rows of R it meets are zero
        r1 = min(r0 + PANEL, n)
        blocks.append((r0, r1, c0, c1, d0, d1))
        work += (r1 - r0) * (c1 - c0) * (d1 - d0)
    if work > SPAN_SHARE * n * L.shape[1] * R.shape[1]:
        return L @ R, None
    width = R.shape[1]
    out = np.zeros((n, width))
    first = np.full(n, width)
    last = np.zeros(n, dtype=first.dtype)
    for r0, r1, c0, c1, d0, d1 in blocks:
        block = out[r0:r1, d0:d1]
        np.matmul(L[r0:r1, c0:c1], R[c0:c1, d0:d1], out=block)
        f, e = _row_spans(block)
        hit = e > 0
        first[r0:r1] = np.where(hit, f + d0, width)
        last[r0:r1] = np.where(hit, e + d0, 0)
    return out, (first, last)


def _span_pushes(v: np.ndarray, M: np.ndarray, steps: int):
    """Yield v M, v M^2, ..., v M^steps, skipping the structural zeros of M.

    With [a, b) the nonzero hull of the current row and [c0, c1) the
    columns spanned by rows a..b of M, each push is v[a:b] @ M[a:b, c0:c1]
    and every other entry of the new row is an exact zero; the row spans
    of M are taken once. Like _span_product, small kernels (at most
    2 * PANEL rows), kernels whose rows all span every column and pushes
    whose spanned work exceeds SPAN_SHARE of the dense work take v @ M.
    """
    n, width = M.shape
    if n <= 2 * PANEL or _full_rows(M):
        for _ in range(steps):
            v = v @ M
            yield v
        return
    first, last = _row_spans(M)
    for _ in range(steps):
        nz = np.flatnonzero(v)
        a, b = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
        c0 = int(first[a:b].min(initial=width))
        c1 = int(last[a:b].max(initial=0))
        if (b - a) * (c1 - c0) > SPAN_SHARE * n * width:
            v = v @ M
        else:
            out = np.zeros(width)
            if c0 < c1:
                np.matmul(v[a:b], M[a:b, c0:c1], out=out[c0:c1])
            v = out
        yield v


class _Ladder:
    """Doubling ladder of a square matrix M, with optional start rows A.

    Rung j holds M^(2^j) and the average A (I + M + ... + M^(2^j - 1)) / 2^j;
    climb() goes up a rung by A <- (A + A M^(2^j)) / 2. A power is squared
    by _span_product only when read, so a caller that stops at a rung never
    pays for the next square. The ladder keeps the row spans of its power,
    found by the squaring that made it, and hands them to the next
    squaring, so no power is scanned for its spans twice.
    """

    def __init__(self, base: np.ndarray, rows=None):
        self.rung, self.rows = 0, rows
        self._power, self._at, self._spans = base, 0, None

    @property
    def power(self) -> np.ndarray:
        while self._at < self.rung:
            self._power, self._spans = _span_product(
                self._power, self._power, (self._spans, self._spans))
            self._at += 1
        return self._power

    @property
    def spans(self):
        """Row spans of power (_row_spans), scanned only if no squaring
        found them; None where _span_product would take a single dense
        product of it (at most 2 * PANEL rows, or every row full)."""
        p = self.power
        if len(p) <= 2 * PANEL or _full_rows(p):
            return None
        if self._spans is None:
            self._spans = _row_spans(p)
        return self._spans

    def climb(self, rungs: int = 1) -> "_Ladder":
        for _ in range(rungs):
            if self.rows is not None:
                a, p = self.rows, self.power
                self.rows = 0.5 * (a + (_span_product(a, p)[0]
                                        if a.ndim == 2 else a @ p))
            self.rung += 1
        return self


def _grid_ladders(ts, fresh):
    """Yield (t, ladder) along a grid of times: a time twice the one before
    (within 1e-9 relative) climbs its ladder a rung, the same time reads it
    again, and any other starts fresh(t). One ladder is alive at a time.
    """
    ladder, prev = None, None
    for t in ts:
        if prev is not None and abs(t - 2 * prev) <= 1e-9 * max(abs(t), 1.0):
            ladder.climb()
        elif t != prev:
            ladder = None  # free the previous power before building this one
            ladder = fresh(t)
        prev = t
        yield t, ladder


def power(K: Kernel, n: int) -> Kernel:
    """n-step kernel. power(K, 0) is the identity and power(K, 1) is K
    itself: a Kernel is immutable, and renormalizing leaves its rows as
    they are.

    For n = q 2^k with q odd, the rungs of K's ladder fold into K^q, least
    significant bit first, and K^q climbs its own ladder k rungs. So the
    ladder of power(K, n) reads power(K, 2n) one rung up, bit for bit.
    """
    n = int(n)
    if n < 0:
        raise ValueError("power requires n >= 0")
    if n == 0:
        return Kernel(K.space, np.eye(K.size), kind=K.kind,
                      on_rowsum="renormalize")
    if n == 1:
        return K
    k = (n & -n).bit_length() - 1
    q = n >> k
    rungs = _Ladder(K.rows)
    odd = None
    for j in range(q.bit_length()):
        if q >> j & 1:
            odd = (rungs.power if odd is None
                   else _span_product(odd, rungs.power)[0])
        rungs.climb()
    del rungs
    return Kernel(K.space, _Ladder(odd).climb(k).power, kind=K.kind,
                  on_rowsum="renormalize")


def cesaro(K: Kernel, n: int) -> Kernel:
    """Cesaro average S_n = (1/n)(I + K + ... + K^{n-1}).

    Rung j of K's ladder from the identity holds S_b, b = 2^j. The rungs
    of the bits of n fold in least significant first, by the splitting
    S_{b+a} = (b S_b + a K^b S_a) / (a + b): O(log n) matrix products.
    """
    n = int(n)
    if n < 1:
        raise ValueError("cesaro requires n >= 1")
    rungs = _Ladder(K.rows, rows=np.eye(K.size))
    s, a = None, 0
    for j in range(n.bit_length()):
        if n >> j & 1:
            b = 1 << j
            s = rungs.rows if s is None else (
                b * rungs.rows
                + a * _span_product(rungs.power, s)[0]) / (a + b)
            a += b
        if a < n:
            rungs.climb()
    return Kernel(K.space, s, kind=K.kind, on_rowsum="renormalize")


def adjoint(K: Kernel, m: Measure) -> Kernel:
    """Adjoint of K w.r.t. m: rows a with m(a) > 0 carry m(x) K(x,a) / m(a),
    rows off the support are zero.

    Satisfies the duality m(f * adjoint(K,m) g) = m(g * K f). The kernel
    must respect m-null sets: any flow of m-mass into an m-null atom raises
    AbsoluteContinuityError naming the atom.
    """
    _check_same_space(K, m)
    w = m.weights
    null = w <= 0.0
    if null.any():
        leaked = np.where(null, w @ K.rows, 0.0)  # m after one step of K
        if (leaked > 0.0).any():
            a = int(np.argmax(leaked))
            raise AbsoluteContinuityError(
                f"mass {leaked[a]:.6g} flows into m-null atom "
                f"{K.space.labels[a]!r}; the pair violates the support "
                f"condition")
    n = K.size
    out = np.zeros((n, n))
    supp = ~null
    # out[a, x] = m(x) K(x, a) / m(a) on the support
    out[supp, :] = (K.rows[:, supp] * w[:, None]).T / w[supp][:, None]
    return Kernel(K.space, out, kind="general")
