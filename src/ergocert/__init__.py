"""Constructive invariant-measure tools for finite Markov models.

The package splits into layers: core array types (StateSpace, Measure,
Kernel and friends), discrete and continuous semigroups with their
resolvents, certificate checkers (drift, smallness, almost invariance,
row comparison), constructive invariant-measure solvers, convergence
diagnostics, bundled scenario generators, JSON/CSV serialization, and a
pipeline runner wired to the ergocert command line tool.
"""

from .core import (ROWSUM_TOL, AbsoluteContinuityError, Kernel, Measure,
                   SpaceMismatchError, StateFn, StateSet, StateSpace,
                   adjoint, apply, cesaro, identity, matmul, power, push)
from .semigroup import (Generator, Semigroup, auxiliary_measure,
                        discrete_resolvent, kb_measure, occupation_density,
                        resolvent, resolvent_raw, transition_at, uniformized)
from .solver import (ErgodicDecomposition, InvariantResult,
                     averaging_projector, decompose, solve_cesaro_adjoint,
                     solve_continuous, solve_eigen, verify_count_bound)
from .certificates import (FAILS, HOLDS, INCONCLUSIVE,
                           AlmostInvarianceParams, Certificate, IndexProfile,
                           PhiLinear, PhiPower, PhiTable,
                           check_absolute_continuity, check_additive_drift,
                           check_almost_invariant, check_concentration,
                           check_generalized_drift, check_geometric_drift,
                           check_localized_drift,
                           check_mean_almost_invariant, check_smallness,
                           fit_drift_constants, index_profile,
                           optimal_linear_params, profile_certificate,
                           worst_set_search)
from .harnack import (HarnackConstant, PerturbationSpec,
                      certify_harnack_pipeline, certify_perturbation,
                      check_harnack_drift, diagnose_lazy_atoms,
                      harnack_constant, harnack_maximizer, perturb)
from .convergence import (DecayReport, cesaro_limit_check, decay_report,
                          weighted_gap_norm, weighted_step_norm)
from .scenarios import Scenario, ScenarioBundle, generate, scenario_ids
from .pipeline import Report, four_way_verdicts, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "StateSpace", "Measure", "StateFn", "StateSet", "Kernel",
    "SpaceMismatchError", "AbsoluteContinuityError", "ROWSUM_TOL",
    "identity", "matmul", "apply", "push", "power", "cesaro", "adjoint",
    "Generator", "Semigroup", "transition_at", "uniformized", "resolvent",
    "resolvent_raw", "discrete_resolvent", "auxiliary_measure",
    "occupation_density", "kb_measure",
    "InvariantResult", "ErgodicDecomposition", "decompose",
    "averaging_projector", "solve_eigen", "solve_cesaro_adjoint",
    "solve_continuous", "verify_count_bound",
    "Certificate", "IndexProfile", "HOLDS", "FAILS", "INCONCLUSIVE",
    "PhiLinear", "PhiPower", "PhiTable", "AlmostInvarianceParams",
    "worst_set_search", "check_smallness", "fit_drift_constants",
    "check_geometric_drift", "check_localized_drift",
    "check_additive_drift", "check_concentration",
    "check_generalized_drift", "check_absolute_continuity",
    "optimal_linear_params", "check_almost_invariant",
    "check_mean_almost_invariant", "index_profile", "profile_certificate",
    "HarnackConstant", "PerturbationSpec", "harnack_constant",
    "harnack_maximizer", "check_harnack_drift", "certify_harnack_pipeline",
    "perturb", "certify_perturbation", "diagnose_lazy_atoms",
    "DecayReport", "weighted_gap_norm", "weighted_step_norm",
    "decay_report", "cesaro_limit_check",
    "Scenario", "ScenarioBundle", "generate", "scenario_ids",
    "Report", "four_way_verdicts", "run_pipeline",
    "__version__",
]
