"""Inverse-free incremental training of single-hidden-layer random networks."""

from .errors import (
    CsvParseError,
    DefinitenessLossError,
    DomainError,
    NumericalBreakdownError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import FlopCounter, frobenius_distance, gemm, solve_spd
from .model import (
    ActivationKind,
    ElmParams,
    activate,
    hidden_matrix,
    hidden_row,
    init_random_params,
    params_from_json,
    params_to_json,
    predict,
)
from .solvers import (
    AlgorithmKind,
    SolverState,
    add_node,
    add_node_alg1,
    add_node_alg2,
    add_node_alg3,
    add_node_baseline,
    add_node_existing,
    compute_p,
    init_solver,
    solve_direct,
    solve_direct_prefixes,
    state_to_json,
    warm_start,
)
from .evaluation import (
    ClassificationReport,
    GrowthTrace,
    StepRecord,
    classification_metrics,
    kfold_split,
    mse,
    weight_output_errors,
)
from .data import (
    Dataset,
    SynthKind,
    TaskKind,
    apply_normalization,
    load_csv,
    normalize_features,
    save_csv,
    synth_dataset,
)

__version__ = "0.1.0"
