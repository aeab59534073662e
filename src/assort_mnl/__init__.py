"""Assortment optimization for crowdfunding platforms.

Logit demand with network effects, monotone fixed-point support solving,
exact revenue-maximizing assortments, seeded dataset generation, and a
linear assortment predictor with error-rate and revenue-loss evaluation.
"""

from .core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ONE_START,
    PER_SEGMENT,
    SHARED,
    ZERO_START,
    Assortment,
    NonConvergenceError,
    ProblemInstance,
    RevenueTerms,
    SupportSolution,
    optimize_assortment,
    solve_fixed_point,
)
from .generate import (
    DOLLAR_SCALE,
    UNIT_SCALE,
    DatasetFormatError,
    DatasetRecord,
    GenSpec,
    LabeledDataset,
    generate_dataset,
    generate_instance,
    read_dataset,
    record_seed,
    relabel_dataset,
    verify_labels,
    write_dataset,
)
from .learner import (
    PRL_MIN_REVENUE,
    EvaluationReport,
    FeatureLayout,
    PredictorModel,
    UnderdeterminedFitError,
    evaluate,
    fit_linear,
    prl,
    read_model,
    write_model,
)
from .bench import (
    DEFAULT_MASTER_SEED,
    PRESET_NAMES,
    CaseConfig,
    StageError,
    compare_runs,
    preset,
    run_case,
    split_dataset,
    training_matrices,
)

__version__ = "0.1.0"
