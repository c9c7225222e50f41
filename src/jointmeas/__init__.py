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
    is_nontrivial_projection_params,
    is_valid_effect_params,
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
    product_joint_many,
    trivial_joint_if_sum_leq_identity,
    witness_residual,
)
from .observables import (
    Observable,
    ProductObservable,
    ValidationReport,
    commute,
    is_sharp,
    is_trivial,
    joint_agreement,
    label_key,
    marginal,
    marginal_deviation,
    max_marginal_deviation,
    observable_from_json,
    observable_to_json,
    product_joint_commuting,
    subset_key,
    validate,
)
from .operators import (
    MAX_DIM,
    EigensolverError,
    HermitianOperator,
    State,
    identity,
    is_effect,
    is_psd,
    loewner_leq,
    min_eigenvalue,
    operator_from_json,
    operator_to_json,
    opnorm,
    outcome_probability,
    zero,
)
from .order import (
    CellAudit,
    LowerBoundQuery,
    MaximalityReport,
    OrderAudit,
    OrderSearchOptions,
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
    partition,
    partition_compatibility_matrix,
    partition_paradox_audit,
)
from .sampling import (
    random_commuting_sharp_pair,
    random_effect,
    random_orthogonal_unbiased_vs_biased_pair,
    random_rank_one_pair,
    random_unbiased_pair,
    random_unitary,
)
from .scenarios import REGISTRY, Expectation, Scenario, ScenarioReport, run_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
