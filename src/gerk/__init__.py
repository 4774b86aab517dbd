"""Randomized block Kaczmarz solvers with dual regularization.

The solver family handles consistent and inconsistent real or complex linear
systems and converges to regularized solutions (minimum-norm, sparse, group
sparse) selected by the regularizer f, with the misfit g controlling how
right-hand-side noise is treated.  See solver.preset for ready-made method
configurations and experiments for the reproducible trial harness.
"""

from .blocks import BlockPartition, column_partition, contiguous_blocks, paired_blocks, row_partition
from .certificates import (
    ErrorBoundCertificate,
    VerificationReport,
    gamma_hat,
    sigma_tilde_min,
    verify_error_bound,
)
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    GerkError,
    InvalidRank,
    MissingParameter,
    NonFiniteInput,
    NonFiniteIterate,
    NotASubgradient,
    NotConverged,
    OracleMismatch,
    ParseError,
    TooManyColumns,
    WorkerDied,
    ZeroMatrix,
)
from .experiments import (
    AggregateBand,
    ExperimentResult,
    MetricRecorder,
    MetricTrace,
    PresetSpec,
    ProblemInstance,
    gen_experiment_i,
    gen_experiment_ii,
    run_trials,
    sparsity_count,
    sparsity_table,
    write_experiment_csvs,
)
from .fileio import (
    read_matrix_market,
    read_vector_csv,
    write_matrix_market,
    write_vector_csv,
)
from .linalg import (
    embed_complex_as_real,
    embed_vec,
    extract_vec,
    make_rank_deficient,
    min_positive_singular,
    nullspace_basis_adjoint,
    spectral_norm,
    svd_pseudoinverse_apply,
)
from .oracles import (
    OracleSolution,
    constrained_regularizer_min,
    misfit_projection,
    range_projection_quadratic,
)
from .potentials import (
    ComplexElasticNet,
    ElasticNet,
    GroupElasticNet,
    HuberQuadMisfit,
    Quadratic,
    QuadraticMisfit,
    bregman_distance,
)
from .rng import RngStream
from .solver import (
    Session,
    SolverConfig,
    SolverReport,
    SolverState,
    WorkerRecord,
    gerk_step,
    init_state,
    preset,
    run,
)

__version__ = "0.1.0"
