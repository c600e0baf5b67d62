# The smallest kernel where "almost invariant" and "has an invariant
# part" genuinely come apart depending on the reference measure.
#
# Two states, everything falls into state 1 and stays:
#
#     P = | 0  1 |
#         | 0  1 |
#
# Against the point mass at state 0 every test fails: mass leaves the
# support at full rate and nothing invariant lives there. Against the
# uniform reference the flow stays inside the support and the averaged
# adjoint construction recovers the point mass at state 1.

import numpy as np

from ergocert.core import Kernel, Measure, StateSpace
from ergocert.certificates.almost import index_profile
from ergocert.pipeline import four_way_verdicts
from ergocert.solver import solve_cesaro_adjoint

space = StateSpace.range(2)
P = Kernel(space, [[0.0, 1.0], [0.0, 1.0]])


def show(label, m):
    print(f"--- reference = {label} ---")
    out = four_way_verdicts(P, m, horizon=64)
    for key in ("almost", "mean", "index", "solver"):
        print(f"  {key:>6}: {out[key]}")
    print(f"  agree: {out['agree']}  (leakage delta = {out['delta']:.3f})")

    prof = index_profile(P, m)
    print(f"  occupation index estimate: {prof.index_estimate:.6f}"
          f"  vs total mass {prof.total_mass:.6f}  -> {prof.verdict}")

    res = solve_cesaro_adjoint(P, m)
    print(f"  constructed measure: weights = {res.nu.weights},"
          f" residual = {res.residual:.2e}")
    print(f"  closed classes kept inside supp(m): "
          f"{res.diagnostics['kept_classes']}")
    print(f"  mass killed on leaving supp(m): {m.mass - res.nu.mass:.6f}")
    print()


show("point mass at state 0", Measure(space, [1.0, 0.0]))
show("uniform", Measure(space, [0.5, 0.5]))

# The index profile makes the failure quantitative: with the point-mass
# reference the small-cap occupation index equals the full mass of the
# space, the crispest possible "no invariant part" answer.
prof = index_profile(P, Measure(space, [1.0, 0.0]))
print("crisp index values across cap sizes:", np.round(prof.crisp, 6))
print("exact evaluation used:", prof.exact)
