"""Cyber-resilient economic dispatch against load-altering attacks.

Models multi-area grid frequency dynamics under frequency-feedback load
attacks, derives piecewise-linear eigenvalue-stability constraints, and
solves the dispatch that picks inverter droop gains and setpoints at
minimum cost under them, certifying small-signal stability.
"""

from .errors import (
    BandInfeasibleError,
    BuildError,
    ClassificationError,
    ConfigurationError,
    ContractError,
    CoverageError,
    CredError,
    DegenerateEigenvalueError,
    InfeasibleError,
    InsufficientDataError,
    NumericalError,
    ScenarioError,
    TrackingError,
    ValidationFailure,
)
from .dispatch import (
    CredMilp,
    DispatchScenario,
    DispatchSolution,
    GeneratorSpec,
    StabilityCertificate,
    StorageSpec,
    build_cred_milp,
    cost_increment,
    solve_cred,
    stability_precheck,
    validate_solution,
)
from .grid import (
    AttackProfile,
    DroopSchedule,
    StateSpace,
    SystemModel,
    build_state_space,
)
from .linearize import (
    LinearizationPoint,
    LocusSweep,
    SegmentTable,
    build_segment_table,
    evaluate_piecewise,
    select_critical_pairs,
    sweep_loci,
)
from .milp import (
    LinearProgram,
    SolveResult,
    solve_lp,
)
from .rows import StabilityConstraintSet
from .simulate import Trajectory, classify_trajectory, simulate
from .stability import (
    EigenSolution,
    StabilityVerdict,
    eigen_decompose,
    is_stable,
    sensitivity,
)
from .scenario import ScenarioBundle, load_samples, load_scenario, scenario_from_dict
from .uncertainty import (
    AttackEstimate,
    apply_budget_clamp,
    k_eta,
    moments_from_samples,
    robust_gain,
    worst_case_gain,
)
from .workflow import WorkflowConfig, WorkflowReport, run_workflow, sweep_study

__version__ = "0.1.0"
