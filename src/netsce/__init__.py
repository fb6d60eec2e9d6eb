"""Linear-quadratic network games with payoff feedback.

Compute Nash and selfconfirming equilibria, run adaptive conjecture
dynamics, test local stability, and solve the global-spillover variant in
which agents must guess how much of their externality is local.
"""

from .errors import (
    CapBindingWarning,
    NetsceError,
    NotSymmetrizableError,
    NumericError,
    UsageError,
)
from .network import (
    ASSUMPTIONS,
    AssumptionReport,
    Decomposition,
    RandomNetSpec,
    WeightedNetwork,
    check_assumption,
    random_symmetrizable,
    spectral_radius,
    submatrix,
    symmetrize_decompose,
)
from .game import (
    GameSpec,
    aggregate,
    best_reply,
    invert_feedback,
    justifiable_inactivity_set,
    make_game,
    payoff,
    realized_payoff,
)
from .equilibrium import (
    EquilibriumRecord,
    InteriorReport,
    SceCheck,
    SolveDiagnostics,
    enumerate_sce,
    interior_conditions,
    is_sce,
    make_record,
    solve_auxiliary_ne,
    solve_full_ne,
)
from .learning import (
    AnalyticStability,
    EmpiricalStability,
    StableFamily,
    Trajectory,
    analytic_stability,
    learn_step,
    probe_stability,
    run_learning,
    stable_sce_family,
)
from .global_ext import (
    GlobalConjecture,
    GlobalGameSpec,
    GlobalSolve,
    bonacich,
    check_global_sce,
    check_homeo2,
    global_learn_step,
    make_global_game,
    phi_map,
    residual,
    solve_global_sce,
    true_centrality,
)
from .scenario import (
    Scenario,
    emit_scenario,
    load_scenario,
    normalize_scenario,
    parse_scenario,
)

__version__ = "0.1.0"
