"""Deformed-log token objectives with confidence-dependent trust gating."""

from .core_math import (
    DomainError,
    cayley_alpha,
    clamp_prob,
    concentration,
    deformed_loss,
    mobius_alpha,
    q_log,
    shannon_entropy,
    tsallis_entropy,
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
    quadrant_stats,
)
from .landscape import (
    FeasibilityError,
    LandscapeGrid,
    construct_distribution,
    feasible_entropy_range,
    gradient_landscape,
)

__version__ = "0.1.0"
