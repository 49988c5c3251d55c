"""qvilab: finite-horizon MDP planning with emulated quantum subroutines.

Exact classical baselines, a query-model emulation layer with per-oracle
ledgers, five accelerated planning algorithms, an exact statevector
realization of binary-oracle mean estimation, hard-instance generators with
closed-form optima, and a sweep harness for scaling studies.
"""
from .emulation import (
    ContractViolation,
    NoisyEstimate,
    Qme2ContractError,
    SubroutineConfig,
    btp_cost,
    btp_multiplier,
    qme1_emulated,
    qme1_query_count,
    qme2_emulated,
    qme2_query_count,
    qmebo_emulated,
    qmebo_query_count,
    qms_emulated,
    qms_query_count,
)
from .harness import ExperimentConfig, ResultRow, ScalingFit, fit_scaling, run_experiment
from .instances import (
    HardInstanceSpec,
    HorizonReductionSpec,
    brute_force_optimal,
    hard_instance_optimal_start_values,
    make_hard_instance,
    make_horizon_reduction,
    random_mdp,
)
from .ledger import ORACLES, QueryLedger
from .mdp import (
    FiniteHorizonMdp,
    MdpValidationError,
    OptimalityReport,
    Policy,
    QTable,
    ValueTable,
    bellman_backup,
    classical_generative_sample,
    eps_optimality_report,
    exact_value_iteration,
    policy_value,
    sigma_squared,
    total_variance_norm,
)
from .providers import EmulatedProvider, StatevectorProvider
from .qvi import (
    ALGORITHMS,
    InfeasibleParams,
    LayerRecord,
    QviResult,
    qvi1,
    qvi2,
    qvi3,
    qvi4,
    qvi5,
    solve,
    vi,
)
from .statevector import (
    BinaryOracleSpec,
    FixedPointFormat,
    PureState,
    QmeboExactRun,
    ae_error_bound,
    ae_outcome_distribution,
    ae_outcome_distribution_circuit,
    ae_repetitions,
    build_up_hat,
    estimate_from_outcome,
    mean_projector,
    powering_median,
    prepare_psi2,
    qmebo_exact,
)

__version__ = "0.1.0"
