"""Joint measurability analysis for finite-outcome quantum observables."""

from .bloch import (
    AXIS_TOL,
    BlochEffect,
    CriterionResult,
    Interval,
    SimpleQubitObservable,
    bloch_matrix,
    boundary_joint,
    busch_criterion,
    gamma_family_member,
    gamma_interval,
    liu_criterion,
    molnar_criterion,
    qubit_pair_criterion,
    three_orthogonal_criterion,
)
from .feasibility import (
    FeasibilityOptions,
    FeasibilityProblem,
    FeasibilityReport,
    PairwiseGlobalReport,
    Verdict,
    decide,
    decide_pair_qubit_numeric,
    pairwise_vs_global,
    witness_residual,
)
from .observables import (
    Observable,
    ProductObservable,
    ValidationReport,
    commute,
    joint_from_cell,
    label_key,
    marginal,
    marginal_deviation,
    max_cell_deviation,
    max_marginal_deviation,
    observable_from_json,
    observable_to_json,
    subset_key,
    validate,
)
from .operators import (
    MAX_DIM,
    EigensolverError,
    HermitianOperator,
    is_effect,
    is_psd,
    loewner_leq,
    operator_from_json,
    operator_to_json,
    opnorm,
)
from .order import (
    CellAudit,
    MaximalityReport,
    OrderAudit,
    Refutation,
    in_lb,
    joint_observable_order_audit,
    maximality_probe,
    refute_greatest,
)
from .partitioning import (
    ParadoxReport,
    Partitioning,
    PartitionMatrix,
    enumerate_partitionings,
    forward_partition_joint,
    partition_compatibility_matrix,
    partition_paradox_audit,
)
from .sampling import random_commuting_sharp_pair
from .scenarios import REGISTRY, Expectation, Scenario, ScenarioReport, run_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
