"""Slow reference answers the tests compare the library against.

brute_force_worst enumerates every subset for the worst-set value that
worst_set_search finds by its prefix scan; random_phi draws a modulus
from one of the three concave families; gth_stationary is the
subtraction-free stationary law that the decomposition is held to on
stiff generators and dense classes; cesaro_doubling approaches the
Cesaro limit that solve_cesaro_adjoint reads off the decomposition, by
plain dense doubling. product_spy counts the products of the doubling
ladder and of the uniformization series, and with dense=True makes each
one a plain L @ R. expm_flow is the matrix-exponential reference for a
generator's transition and time average. reachable is the plain
depth-first search of a graph that support decisions are held to.
check_projector holds a decomposition to the identities of its limit
projector, and check_resolvent_fixed holds the class laws of a
generator to being fixed by its resolvents. rational_push is the exact
resolvent push that solver._resolvent_push is held to, and push_spy
counts the pushes.
censor_pivotwise is the elimination that solver._censor blocks, one
pivot at a time.
"""

from fractions import Fraction

import numpy as np

from ergocert import core, semigroup, solver
from ergocert.certificates.phi import PhiLinear, PhiPower, PhiTable


def brute_force_worst(row, base, phi):
    """max of row(A) - phi(base(A)) over all subsets A, by enumeration.

    For any nondecreasing phi an atom without row mass never helps and
    an atom without base mass always does, so only the k atoms with both
    are enumerated, 2^k subsets. Returns (value, sorted member tuple).
    """
    r = np.asarray(row, dtype=float)
    b = np.asarray(base, dtype=float)
    free = [i for i in range(len(r)) if r[i] > 0.0 and b[i] <= 0.0]
    paid = [i for i in range(len(r)) if r[i] > 0.0 and b[i] > 0.0]
    rsums = np.zeros(1)
    bsums = np.zeros(1)
    for i in paid:
        rsums = np.concatenate([rsums, rsums + r[i]])
        bsums = np.concatenate([bsums, bsums + b[i]])
    vals = rsums - phi(bsums)
    best = int(np.argmax(vals))
    taken = [paid[j] for j in range(len(paid)) if best >> j & 1]
    value = float(vals[best]) + float(r[free].sum())
    return value, tuple(sorted(free + taken))


def achieved(row, base, phi, members) -> float:
    """row(A) - phi(base(A)) for the set A of the given atoms."""
    picked = list(members)
    return (float(np.asarray(row, dtype=float)[picked].sum())
            - float(phi(np.asarray(base, dtype=float)[picked].sum())))


def random_phi(rng):
    """A linear, power or concave table modulus with random constants."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return PhiLinear(float(rng.uniform(0.0, 3.0)))
    if kind == 1:
        return PhiPower(float(rng.uniform(0.2, 2.0)),
                        float(rng.uniform(0.5, 4.0)),
                        float(rng.choice([1.5, 2.0, 3.0])))
    # concave table: positive decreasing slopes
    slopes = np.sort(rng.uniform(0.1, 3.0, size=3))[::-1]
    knots_t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, size=3))])
    knots_y = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots_t))])
    return PhiTable(knots_t, knots_y)


def gth_stationary(rates):
    """Stationary law of an irreducible generator by GTH elimination.

    Grassmann-Taksar-Heyman (Oper. Res. 1985): states are censored from
    the last one down, each one's exit rate taken as the sum of its
    remaining off-diagonal rates, so no step subtracts and every entry
    of the law is accurate to a few ulps relative, however stiff the
    rates.
    """
    a = np.array(rates, dtype=float)
    np.fill_diagonal(a, 0.0)
    n = len(a)
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def cesaro_doubling(K, m, tol=1e-12, max_doublings=40):
    """The Cesaro limit of m under K killed outside m.support, by doubling.

    With K_S the block of K on S = m.support, the averages
    nu_n = (1/n) sum_{k<n} m K_S^k double as
    nu_{2n} = (nu_n + nu_n K_S^n) / 2, with K_S^{2n} = K_S^n K_S^n as a
    plain dense product and no entry dropped. The Richardson extrapolate
    2 nu_{2n} - nu_n removes the O(1/n) term; it is returned once two
    extrapolates in a row agree within tol * m(X) in l1. The squarings
    compound rounding in the row sums, so the extrapolate settles only
    for chains that mix in far fewer than 2^40 steps: otherwise this
    raises.
    """
    supp = m.support
    power = K.rows[np.ix_(supp, supp)]
    nu = m.weights[supp]
    extr = None
    for _ in range(max_doublings):
        step = 0.5 * (nu + nu @ power)
        prev, extr = extr, 2.0 * step - nu
        if prev is not None and np.abs(extr - prev).sum() <= tol * m.mass:
            out = np.zeros(K.size)
            out[supp] = extr
            return out
        nu, power = step, power @ power
    raise AssertionError(f"the doubling did not settle in {max_doublings} "
                         "doublings")


def product_spy(monkeypatch, dense=False):
    """Record the operand shapes of every _span_product call.

    The spy sits at core._span_product, the name the doubling ladder
    looks the product up by, and at semigroup._span_product, the name the
    uniformization series imports. With dense=True each product is L @ R,
    the oracle that the spanned products must match, with None for its
    spans, as after any single dense product.
    """
    calls = []
    spanned = core._span_product

    def spy(L, R, spans=None):
        calls.append(L.shape)
        return (L @ R, None) if dense else spanned(L, R, spans)

    for module in (core, semigroup):
        monkeypatch.setattr(module, "_span_product", spy)
    return calls


def push_spy(monkeypatch):
    """Record (rates shape, mu shape) of every resolvent push.

    The spy sits at solver._resolvent_push, which semigroup imports each
    time it pushes and check_resolvent_fixed looks up by name.
    """
    calls = []
    real = solver._resolvent_push

    def spy(rates, slack, mu):
        calls.append((np.shape(rates), np.shape(mu)))
        return real(rates, slack, mu)

    monkeypatch.setattr(solver, "_resolvent_push", spy)
    return calls


def expm_flow(G, m, t):
    """(m P_t, (1/t) integral_0^t m P_s ds) from one matrix exponential.

    Van Loan's block form (IEEE TAC 23(3), 1978): the exponential of
    [[Q^T t, m^T], [0, 0]] holds e^{Q^T t} in its top left block and
    integral_0^1 e^{s Q^T t} ds m^T, the transposed time average, in its
    top right column. One row m keeps the block at n + 1 states, where
    the identity in place of m^T would double it. scipy's expm loses
    digits on rates near 1e6, so it is a reference only at milder
    stiffness.
    """
    from scipy.linalg import expm

    n = G.size
    block = np.zeros((n + 1, n + 1))
    block[:n, :n] = G.rates.T * t
    block[:n, n] = m.weights
    e = expm(block)
    return e[:n, :n] @ m.weights, e[:n, n]


def reachable(edges, start):
    """The states reached from start along entries edges[x][y] > 0.

    A plain depth-first search over Python lists, start included. The
    diagonal of a generator is never positive, so its rates serve as
    edges as they are.
    """
    edges = np.asarray(edges).tolist()
    seen = {int(x) for x in start}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for y, weight in enumerate(edges[x]):
            if weight > 0 and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def check_projector(decomp, S, tol=1e-10):
    """Assert the identities of the limit projector Pi of decomp.

    Pi P = Pi, P Pi = Pi and Pi^2 = Pi, with P - I read as M / lam in
    the rate form of S (M = P - I for a kernel, M = Q for a generator,
    lam its uniformization rate), each within tol entrywise. The zero
    matrix solves all three, so unless S is a sub-markovian kernel every
    row of Pi must also have mass one. A dense O(n^3) check: none of it
    depends on how fast the chain mixes.
    """
    A, shift, lam, sub = solver._rate_form(S)
    pi = decomp.projector()
    for name, gap in (
        ("Pi P = Pi", (pi @ A - shift * pi) / lam),
        ("P Pi = Pi", (A @ pi - shift * pi) / lam),
        ("Pi Pi = Pi", pi @ pi - pi),
    ):
        err = np.abs(gap).max()
        assert err <= tol, f"projector identity {name} off by {err:.3e}"
    err = np.abs(pi.sum(axis=1) - 1.0).max()
    assert sub or err <= tol, f"projector rows miss mass one by {err:.3e}"


def check_resolvent_fixed(decomp, G, tol=1e-10):
    """Assert that alpha R_alpha fixes each class law of decomp.

    For alpha in {1/2, 1, 2}, |nu alpha R_alpha - nu|_1 <= tol for every
    class law nu of the generator G. A closed class makes alpha I - Q
    block-triangular, so nu R_alpha is the resolvent push of nu on the
    class block alone, with slack alpha.
    """
    for cls, nu in zip(decomp.classes, decomp.class_measures):
        idx = list(cls.members)
        qc, wc = G.rates[np.ix_(idx, idx)], nu.weights[idx]
        for a in (0.5, 1.0, 2.0):
            pushed = solver._resolvent_push(qc, np.full(len(idx), a), wc)
            drift = float(np.abs(a * pushed - wc).sum())
            assert drift <= tol, (
                f"class law not fixed by the resolvent kernel at alpha {a} "
                f"(drift {drift:.3e})")


def rational_push(rates, slack, mu):
    """x with x A = mu in exact rational arithmetic.

    A has -rates off its diagonal, and its diagonal is the exact sum of
    the off-diagonal rates of its row plus the slack, so the row sums of
    A are the slack. Every input is read exactly as a fractions.Fraction;
    the float diagonal of a generator, which is rounded, is never read.
    mu is one measure or a stack of them, one per row, and x has its
    shape, as nested lists of Fractions. A is a nonsingular M-matrix when
    every slack is positive, so Gaussian elimination on the transposed
    system needs no pivoting.
    """
    r = [[Fraction(v) for v in row] for row in np.asarray(rates).tolist()]
    rhs = np.atleast_2d(mu).tolist()
    n, m = len(r), len(rhs)
    t = [[-r[j][i] for j in range(n)] + [Fraction(b[i]) for b in rhs]
         for i in range(n)]
    for i in range(n):
        t[i][i] = sum(r[i][:i] + r[i][i + 1:], Fraction(slack[i]))
    for k in range(n):
        for i in range(k + 1, n):
            f = t[i][k] / t[k][k]
            if f:
                for j in range(k, n + m):
                    t[i][j] -= f * t[k][j]
    x = [[Fraction(0)] * n for _ in range(m)]
    for c in range(m):
        for k in reversed(range(n)):
            x[c][k] = (t[k][n + c] - sum(t[k][j] * x[c][j]
                                         for j in range(k + 1, n))) / t[k][k]
    return x if np.ndim(mu) == 2 else x[0]


def censor_pivotwise(a, first_col, first_row, exits=None):
    """solver._censor with each block's strips in place, pivot by pivot.

    The same GTH elimination over the same block envelopes: pivot k
    gathers what the later pivots of its block owe its row and its
    column straight from a, over the full width of its strips, and the
    block's debt to the rows above it is one product at the end of the
    block. Every entry is a sum of nonnegative terms, so the blocked
    elimination may differ from it only by rounding, a few ulps relative
    in each entry. Returns s, and leaves a, exits and the profile as
    solver._censor does.
    """
    n = len(a)
    s = np.empty(n)
    for hi in range(n, 0, -solver._BLOCK):
        lo = max(hi - solver._BLOCK, 0)
        r0 = int(first_row[lo:hi].min())
        c0 = int(first_col[lo:hi].min())
        for k in range(hi - 1, lo - 1, -1):
            later = a[k, k + 1:hi]
            row = a[k, c0:k]
            row += later @ a[k + 1:hi, c0:k]
            s[k] = row.sum()
            if exits is not None:
                exits[k] += later @ exits[k + 1:hi]
                s[k] += exits[k].sum()
            if r0 < k:
                col = a[r0:k, k]
                col += a[r0:k, k + 1:hi] @ a[k + 1:hi, k]
                col /= s[k]
        np.minimum(first_col[r0:hi], c0, out=first_col[r0:hi])
        np.minimum(first_row[c0:hi], r0, out=first_row[c0:hi])
        if r0 < lo:
            if c0 < lo:
                a[r0:lo, c0:lo] += a[r0:lo, lo:hi] @ a[lo:hi, c0:lo]
            if exits is not None:
                exits[r0:lo] += a[r0:lo, lo:hi] @ exits[lo:hi]
    return s
