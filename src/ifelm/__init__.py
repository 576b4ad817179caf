"""Inverse-free incremental training of single-hidden-layer random networks."""

from .errors import (
    CsvParseError,
    DefinitenessLossError,
    DomainError,
    NumericalBreakdownError,
    ShapeError,
    SingularMatrixError,
)
from .model import (
    ActivationKind,
    ElmParams,
    activate,
    hidden_matrix,
    init_random_params,
)
from .solvers import (
    AlgorithmKind,
    SolverState,
    add_node,
    init_solver,
    solve_direct,
    solve_direct_prefixes,
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
    synth_dataset,
)

__version__ = "0.1.0"
