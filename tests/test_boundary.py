"""The library boundary: every scalar, array of numbers and record passed to an exported callable is checked first.

A scalar that its documented type or interval does not admit raises
DomainError naming the argument; a numpy scalar is taken as the plain Python
value. An array-like of numbers (a distribution, logits, a grid) that holds
text, bools or objects, or is a ragged nesting, raises DomainError naming the
argument too, and so does a value other than the record a task or run takes
(a RegimeSpec, a ToyModel, a TrainConfig). Index arrays (targets, labels)
have the targets check of the objectives; ObjectiveKind-valued and other
structured parameters of functions are outside this contract. The meta-check
keeps the tables in step with the exports.
"""

import dataclasses
import inspect
import math
import re
import string
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trustgate
from trustgate import (
    DEFT,
    NLL,
    DomainError,
    ObjectiveKind,
    RegimeSpec,
    ToyModel,
    TrainConfig,
    build_task,
    cayley_alpha,
    clamp_prob,
    concentration,
    construct_distribution,
    deformed_loss,
    expected_score,
    fd_gradient,
    feasible_entropy_range,
    finetune,
    fixed_alpha,
    focus_index,
    gate,
    gradient_flow_ordering,
    gradient_landscape,
    logit_gradient,
    loss,
    minimize_risk,
    mobius_alpha,
    q_log,
    run_property_suite,
    shannon_entropy,
    softmax,
    softmax_jacobian,
    tsallis_entropy,
    validate_dist,
)
from trustgate.core_math import MIN_ORDER
from trustgate.landscape import MAX_GRID_ENTRIES, check_grid_size
from trustgate.trainer import CONFLICT_POLICIES, MAX_TRAIN_STEPS, REGIMES
from trustgate.verification import _MAX_ORDER, RULE_MAIN, RULE_PROPER


@dataclass(frozen=True)
class Scalar:
    """One scalar parameter: how to call with it, how its error names it, and what it admits."""

    call: Callable  # the callable with this argument set to x and every other argument valid
    what: str  # the name its DomainError gives the argument
    kind: str  # "real", "integer", "choice" or "objective" (an ObjectiveKind)
    valid: object  # a plain Python value it admits
    low: float = -math.inf
    high: float = math.inf
    closed: str = "both"  # which finite bounds of a real's interval it admits
    choices: tuple = ()
    optional: bool = False  # None is admitted too
    cheap: bool = True  # a valid call takes a few milliseconds at most, so tier-1 can afford it


RULES = (RULE_MAIN, RULE_PROPER)
NAMES = ("nll", "linear", "alpha", "cayley", "deft", "eaft")
R = [0.8, 0.2]

# Every scalar parameter of the exported callables, by "callable.parameter", and
# of the module functions the CLI calls with user input.
TABLE = {
    "q_log.q": Scalar(lambda x: q_log(0.5, x), "q_log order", "real", 0.5),
    "tsallis_entropy.q": Scalar(lambda x: tsallis_entropy(R, x), "entropy order", "real", 2.0, 0, closed="right"),
    "mobius_alpha.kappa": Scalar(lambda x: mobius_alpha(0.5, x), "kappa", "real", 1.0, -1, closed="right"),
    "ObjectiveKind.name": Scalar(lambda x: ObjectiveKind(x), "objective", "choice", "deft", choices=NAMES),
    "ObjectiveKind.alpha": Scalar(lambda x: ObjectiveKind("alpha", x), "fixed exponent alpha", "real", 0.5, MIN_ORDER),
    "ObjectiveKind.parse.text": Scalar(ObjectiveKind.parse, "objective", "choice", "eaft", choices=NAMES),
    "fixed_alpha.alpha": Scalar(fixed_alpha, "fixed exponent alpha", "real", 0.5, MIN_ORDER),
    "expected_score.alpha": Scalar(lambda x: expected_score(R, R, x), "score order", "real", 0.5, MIN_ORDER),
    "expected_score.rule": Scalar(lambda x: expected_score(R, R, 0.5, x), "scoring rule", "choice", RULE_MAIN,
                                  choices=RULES),
    "minimize_risk.alpha": Scalar(lambda x: minimize_risk(R, x), "score order", "real", 0.5, MIN_ORDER, _MAX_ORDER,
                                  cheap=False),
    "minimize_risk.rule": Scalar(lambda x: minimize_risk(R, 0.5, x), "scoring rule", "choice", RULE_MAIN,
                                 choices=RULES, cheap=False),
    "gradient_flow_ordering.regime": Scalar(lambda x: gradient_flow_ordering(x, (NLL, NLL)), "regime", "choice",
                                            "weak", choices=("strong", "weak")),
    "gradient_flow_ordering.seed": Scalar(lambda x: gradient_flow_ordering("weak", (NLL, NLL), x), "seed",
                                          "integer", 11, 0),
    "run_property_suite.seed": Scalar(run_property_suite, "seed", "integer", 7, 0, cheap=False),
    "run_property_suite.cayley_kappa": Scalar(lambda x: run_property_suite(7, cayley_kappa=x), "cayley_kappa",
                                              "real", 1.0, -1, closed="right", cheap=False),
    "run_property_suite.fd_rel_tol": Scalar(lambda x: run_property_suite(7, fd_rel_tol=x), "fd_rel_tol", "real",
                                            1e-6, 0, cheap=False),
    "RegimeSpec.regime": Scalar(lambda x: RegimeSpec(regime=x), "regime", "choice", "weak", choices=REGIMES),
    "RegimeSpec.vocab_size": Scalar(lambda x: RegimeSpec(vocab_size=x), "vocab_size", "integer", 16, 8),
    "RegimeSpec.num_contexts": Scalar(lambda x: RegimeSpec(num_contexts=x), "num_contexts", "integer", 128, 64),
    "RegimeSpec.conflict_fraction": Scalar(lambda x: RegimeSpec(conflict_fraction=x), "conflict_fraction", "real",
                                           0.25, 0, 1, closed="left"),
    "RegimeSpec.conflict_policy": Scalar(lambda x: RegimeSpec(conflict_policy=x), "conflict_policy", "choice",
                                         "uniform", choices=CONFLICT_POLICIES),
    "TrainConfig.objective": Scalar(lambda x: TrainConfig(x), "objective", "objective", NLL),
    "TrainConfig.learning_rate": Scalar(lambda x: TrainConfig(NLL, learning_rate=x), "learning_rate", "real", 0.25,
                                        0, sys.float_info.max, closed="right"),
    "TrainConfig.steps": Scalar(lambda x: TrainConfig(NLL, steps=x), "steps", "integer", 20, 0, MAX_TRAIN_STEPS),
    "TrainConfig.batch_size": Scalar(lambda x: TrainConfig(NLL, batch_size=x), "batch_size", "integer", 16, 1,
                                     optional=True),
    "TrainConfig.seed": Scalar(lambda x: TrainConfig(NLL, seed=x), "seed", "integer", 3, 0),
    "build_task.seed": Scalar(lambda x: build_task(RegimeSpec(regime="weak", num_contexts=64), x), "seed", "integer",
                              5, 0),
    "construct_distribution.vocab": Scalar(lambda x: construct_distribution(0.5, 1.0, x), "vocabulary", "integer", 8,
                                           3, MAX_GRID_ENTRIES),
    "feasible_entropy_range.vocab": Scalar(lambda x: feasible_entropy_range(0.5, x), "vocabulary", "integer", 8, 3,
                                           MAX_GRID_ENTRIES),
    "gradient_landscape.vocab": Scalar(lambda x: gradient_landscape(NLL, [0.2, 0.5], [0.5, 1.0], x), "vocabulary",
                                       "integer", 8, 3, MAX_GRID_ENTRIES),
    "check_grid_size.p_steps": Scalar(lambda x: check_grid_size(x, 2, 8), "p_steps", "integer", 4, 1),
    "check_grid_size.h_steps": Scalar(lambda x: check_grid_size(2, x, 8), "h_steps", "integer", 4, 1),
    "check_grid_size.vocab": Scalar(lambda x: check_grid_size(2, 2, x), "vocabulary", "integer", 8, 3,
                                    MAX_GRID_ENTRIES),
}

# Every array-like parameter of numbers: how to call with it set to x (a vector,
# one row for the 2-d logit table) and every other argument valid, and the name
# its DomainError gives the argument.
ARRAYS = {
    "cayley_alpha.p": (cayley_alpha, "probability"),
    "clamp_prob.p": (clamp_prob, "probability"),
    "concentration.P": (concentration, "distribution"),
    "deformed_loss.p": (lambda x: deformed_loss(x, 0.5), "probability"),
    "deformed_loss.alpha": (lambda x: deformed_loss(0.5, x), "focus exponent"),
    "mobius_alpha.z": (lambda x: mobius_alpha(x, 1.0), "radius"),
    "q_log.x": (lambda x: q_log(x, 0.5), "q_log argument"),
    "shannon_entropy.r": (shannon_entropy, "distribution"),
    "tsallis_entropy.r": (lambda x: tsallis_entropy(x, 2.0), "distribution"),
    "validate_dist.probs": (validate_dist, "distribution"),
    "focus_index.P": (lambda x: focus_index(DEFT, x, 0), "distribution"),
    "gate.P": (lambda x: gate(DEFT, x, 0), "distribution"),
    "loss.P": (lambda x: loss(DEFT, x, 0), "distribution"),
    "logit_gradient.z": (lambda x: logit_gradient(DEFT, x, 0), "logits"),
    "softmax.z": (softmax, "logits"),
    "softmax_jacobian.z": (softmax_jacobian, "logits"),
    "fd_gradient.z": (lambda x: fd_gradient(DEFT, x, 0), "logits"),
    "expected_score.r": (lambda x: expected_score(x, R, 0.5), "distribution"),
    "expected_score.phat": (lambda x: expected_score(R, x, 0.5), "distribution"),
    "minimize_risk.r": (lambda x: minimize_risk(x, 0.5), "distribution"),
    "construct_distribution.p": (lambda x: construct_distribution(x, 1.0, 8), "target probability"),
    "construct_distribution.entropy": (lambda x: construct_distribution(R, x, 8), "entropy"),
    "feasible_entropy_range.p": (lambda x: feasible_entropy_range(x, 8), "target probability"),
    "gradient_landscape.p_grid": (lambda x: gradient_landscape(NLL, x, [0.5, 1.0], 8), "p grid"),
    "gradient_landscape.h_grid": (lambda x: gradient_landscape(NLL, [0.2, 0.5], x, 8), "entropy grid"),
    "ToyModel.logit_table": (lambda x: ToyModel([x]), "logit table"),
}

# Parameters of exported callables that are neither scalars nor arrays of numbers, each with its reason.
NOT_SCALAR = {
    "array of indices": {
        "focus_index.target", "gate.target", "loss.target", "logit_gradient.target", "fd_gradient.target",
        "finetune.labels", "finetune.clean_labels",
    },
    "ObjectiveKind-valued": {
        "focus_index.kind", "gate.kind", "loss.kind", "logit_gradient.kind", "fd_gradient.kind",
        "gradient_landscape.kind", "gradient_flow_ordering.pair",
    },
    "another structured value": {"quadrant_stats.deltas", "peak_location.f", "run_property_suite.timings"},
}
# Every parameter that takes one of the library's records: how to call with it set to x
# and every other argument valid, the name its DomainError gives the argument, and the
# record's type.
MODEL = ToyModel(np.zeros((4, 8)))
RECORD_ARGS = {
    "build_task.spec": (lambda x: build_task(x, 1), "spec", RegimeSpec),
    "finetune.model": (lambda x: finetune(x, [0] * 4, TrainConfig(NLL, steps=1)), "model", ToyModel),
    "finetune.cfg": (lambda x: finetune(MODEL, [0] * 4, x), "cfg", TrainConfig),
}

# Records the library returns, not inputs it checks.
RECORDS = ("GateError", "LandscapeGrid", "PropertyReport", "RunRecord", "SyntheticTask", "TokenDeltas")

# The values the contract refuses for every scalar parameter, whatever its type: a
# numeric string, None, a bool, NaN, a dict, an int past the float range, inf, a bare
# object, a list, a numpy bool and a complex number.
HUGE = 10**400
BAD = ["0.5", None, True, math.nan, {}, HUGE, math.inf, object(), [0.5], np.bool_(True), 1j]


def exported_parameters() -> set[str]:
    names = set()
    for name in dir(trustgate):
        value = getattr(trustgate, name)
        if name.startswith("_") or inspect.ismodule(value) or not callable(value) or name in RECORDS:
            continue
        if isinstance(value, type) and issubclass(value, BaseException):
            continue
        names |= {f"{name}.{parameter}" for parameter in inspect.signature(value).parameters}
    return names


def test_every_exported_parameter_is_in_the_table_or_named_as_not_scalar():
    listed = set(TABLE).union(ARRAYS, RECORD_ARGS, *NOT_SCALAR.values())
    exported = exported_parameters()
    assert exported - listed == set(), "parameters missing from the boundary table"
    # the table's extra rows: a method and a function the CLI calls, which trustgate does not export
    extra = {"ObjectiveKind.parse.text", "check_grid_size.p_steps", "check_grid_size.h_steps", "check_grid_size.vocab"}
    assert listed - exported == extra


def _largest_int_below(bound: float, closed: bool) -> int:
    """The largest int that an interval from ``bound`` upward refuses; ``closed`` when it holds the bound."""
    return math.ceil(bound) - 1 if closed else math.floor(bound)


def outside(row: Scalar):
    """Values of the right shape that the row's type or interval refuses."""
    if row.kind in ("choice", "objective"):
        # letters only: a padded or "alpha:<x>" text would name something else
        words = st.text(string.ascii_letters).filter(lambda text: text not in row.choices)
        return st.one_of(words, st.floats(), st.integers())
    if row.kind == "integer":
        parts = [st.floats()]  # no float is an integer argument, however integral
        if row.low > -math.inf:
            parts.append(st.integers(max_value=row.low - 1))
        if row.high < math.inf:
            parts.append(st.integers(min_value=row.high + 1))
        return st.one_of(parts)
    left, right = row.closed in ("both", "left"), row.closed in ("both", "right")
    parts = [st.sampled_from([math.nan, math.inf, -math.inf])]
    if row.low > -math.inf:
        parts.append(st.floats(max_value=row.low, exclude_max=left))
        parts.append(st.integers(max_value=_largest_int_below(row.low, left)))
    if row.high < math.inf:
        parts.append(st.floats(min_value=row.high, exclude_min=right))
        parts.append(st.integers(min_value=-_largest_int_below(-row.high, right)))
    return st.one_of(parts)


def refused(row: Scalar) -> list:
    """The values of BAD that the row refuses: an unbounded count admits any int, and an optional one None."""
    unbounded = row.kind == "integer" and row.high == math.inf
    return [value for value in BAD if not (value is None and row.optional or unbounded and value is HUGE)]


@pytest.mark.parametrize("name", sorted(TABLE))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_refused_scalar_raises_domain_error_naming_it(name, data):
    row = TABLE[name]
    for value in [*refused(row), data.draw(outside(row), label="outside")]:
        with pytest.raises(DomainError, match=re.escape(row.what)):
            row.call(value)


def same(a, b) -> bool:
    """Equal values of the same types, recursing into dataclasses, sequences and arrays."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(key for key, row in TABLE.items() if row.cheap and row.kind != "objective"))
def test_a_numpy_scalar_gives_the_result_of_the_plain_value(name):
    row = TABLE[name]
    numpy_form = {"real": np.float64, "integer": np.int64, "choice": np.str_}[row.kind](row.valid)
    assert same(row.call(numpy_form), row.call(row.valid))


# Array-likes the contract refuses for every array of numbers.
BAD_ARRAYS = {
    "numeric-strings": ["0.5", "0.5"],
    "bools": [True, False],
    "none-entry": [None, 0.5],
    "int-past-the-float-range": [HUGE, 0],
    "ragged": [[0.5, 0.5], [0.5]],
}


@pytest.mark.parametrize("bad", sorted(BAD_ARRAYS))
@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_an_array_that_is_not_of_numbers_raises_domain_error_naming_it(name, bad):
    call, what = ARRAYS[name]
    value = BAD_ARRAYS[bad]
    with pytest.raises(DomainError, match=rf"^{re.escape(what)} must (hold real|be a rectangular array of) numbers"):
        call(value)


# Values that are not the record a parameter takes: a string, None, a dict of its
# fields, a number, a bare object, and the other records.
BAD_RECORDS = ["x", None, {"regime": "weak"}, 1, object(), RegimeSpec(), MODEL, TrainConfig(NLL)]


@pytest.mark.parametrize("name", sorted(RECORD_ARGS))
def test_a_value_that_is_not_the_record_raises_domain_error_naming_it(name):
    call, what, cls = RECORD_ARGS[name]
    for value in BAD_RECORDS:
        if isinstance(value, cls):
            continue
        with pytest.raises(DomainError, match=rf"^{what} must be an? {cls.__name__}, got "):
            call(value)
