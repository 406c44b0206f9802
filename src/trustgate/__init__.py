"""Deformed-log token objectives with confidence-dependent trust gating."""

from .core_math import (
    DomainError,
    cayley_alpha,
    clamp_prob,
    concentration,
    deformed_loss,
    fisher_rao_distance,
    mobius_alpha,
    q_log,
    renyi2_entropy,
    shannon_entropy,
    surprisal_alpha,
    tsallis_entropy,
    uncertainty_radius,
    validate_dist,
)
from .objectives import (
    CAYLEY,
    DEFT,
    EAFT,
    LINEAR,
    NLL,
    GateError,
    ObjectiveKind,
    default_kinds,
    fixed_alpha,
    focus_index,
    gate,
    logit_gradient,
    loss,
    softmax,
)
from .verification import (
    RULE_MAIN,
    RULE_PROPER,
    PropertyReport,
    expected_score,
    fd_gradient,
    gradient_flow_ordering,
    minimize_risk,
    peak_location,
    run_property_suite,
    softmax_jacobian,
)
from .trainer import (
    BuildError,
    RegimeSpec,
    RunRecord,
    SyntheticTask,
    TokenDeltas,
    ToyModel,
    TrainConfig,
    TrainingError,
    build_task,
    finetune,
    probability_histogram,
    quadrant_stats,
)
from .landscape import (
    FeasibilityError,
    LandscapeGrid,
    construct_distribution,
    emit,
    feasible_entropy_range,
    gradient_landscape,
)

__version__ = "0.1.0"
