"""Token-level objective family: losses, trust gates, and exact logit gradients.

Each member is a nonincreasing scalar loss f(p) of the target-token
probability p, and its logit gradient factors as

    grad_i = gate * (P_i - onehot_i),        gate = -f'(p) * p,

so the whole family is characterized by how the gate responds to confidence.
The dynamic members (``cayley``, ``deft``) recompute their focus exponent from
the current prediction and hold it constant during differentiation; the
entropy weight of ``eaft`` is frozen the same way. That frozen-state update
rule is the method itself, not an approximation of differentiating through
the exponent.

Each rule declares what it reads of the prediction (``Reads``): nothing, the
target probability, or the whole row. ``ObjectiveKind.reads`` and
``is_dynamic``, and through them the landscape bisection, the risk-flow
refusal and the property suite's groups, are derived from that declaration.

Canonical text encodings (used by configs and the CLI): ``nll``, ``linear``,
``alpha:<float>``, ``cayley``, ``deft``, ``eaft``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .core_math import (
    MIN_ORDER,
    PROB_FLOOR,
    DomainError,
    _choice,
    _floats,
    _one_or_stack,
    _real,
    cayley_focus,
    collision_mass,
    deformed_loss,
    entropy_rows,
    validate_dist,
)


def _positions(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Flat position row * V + label of each row's target in the C order of a (rows, V) stack."""
    return np.arange(0, probs.size, probs.shape[1]) + labels


def _clamped(p: np.ndarray) -> np.ndarray:
    # unchecked, unlike core_math.clamp_prob: the per-step path takes no range check
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0)


def _target_p(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Target probability of each row, clamped to [PROB_FLOOR, 1]."""
    return _clamped(probs.ravel()[_positions(probs, labels)])


# The family as one table. Every member freezes a weight w and a focus
# exponent a at the current prediction; its loss is w * (1 - p^a) / a (the
# -w log p limit at a == 0) and its gate is w * p^a. Each rule maps
# (kind, probs, labels) of a (rows, vocab) stack to one value per row, so a
# new member is one entry here.
def _unit(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.ones(probs.shape[0])


def _zero(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.zeros(probs.shape[0])


def _fixed(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.full(probs.shape[0], kind.alpha)


def _cayley(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return cayley_focus(_target_p(probs, labels))


def _collision(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return collision_mass(probs)


def _normalized_entropy(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # at most 1; a uniform row's entropy can round to one ulp above log V
    return np.minimum(entropy_rows(probs) / math.log(probs.shape[1]), 1.0)


_RULES = {
    # name: (weight rule, focus rule)
    "nll": (_unit, _zero),
    "linear": (_unit, _unit),
    "alpha": (_unit, _fixed),
    "cayley": (_unit, _cayley),
    "deft": (_unit, _collision),
    "eaft": (_normalized_entropy, _zero),
}
# What each rule reads of the prediction, least first; a rule missing here raises.
Reads = IntEnum("Reads", "NOTHING TARGET ROW", start=0)
_READS = {_unit: Reads.NOTHING, _zero: Reads.NOTHING, _fixed: Reads.NOTHING,
          _cayley: Reads.TARGET, _collision: Reads.ROW, _normalized_entropy: Reads.ROW}


@dataclass(frozen=True)
class ObjectiveKind:
    """One member of the objective family.

    ``name`` is one of ``nll``, ``linear``, ``alpha``, ``cayley``, ``deft``,
    ``eaft``; a fixed-exponent member (``alpha``) carries its exponent as a
    float (1 and 1.0 encode alike), finite and at least MIN_ORDER, the
    smallest normal float.
    """

    name: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _choice(self.name, "objective", tuple(_RULES)))  # the dataclass is frozen
        if self.name == "alpha":
            object.__setattr__(self, "alpha", float(_real(self.alpha, "fixed exponent alpha", MIN_ORDER)))
        elif self.alpha is not None:
            raise DomainError(f"objective {self.name!r} takes no exponent parameter")

    @property
    def is_dynamic(self) -> bool:
        """True when the focus exponent depends on the current prediction."""
        return _READS[_RULES[self.name][1]] > Reads.NOTHING

    @property
    def reads(self) -> Reads:
        """What the gate reads of the prediction: the higher of its weight and focus rules' levels."""
        return max(_READS[rule] for rule in _RULES[self.name])

    def encode(self) -> str:
        """Canonical text encoding, e.g. ``deft`` or ``alpha:0.5``."""
        if self.name == "alpha":
            return f"alpha:{self.alpha!r}"
        return self.name

    @classmethod
    def parse(cls, text: str) -> "ObjectiveKind":
        """Parse the canonical text encoding; ``parse(kind.encode()) == kind``."""
        if not isinstance(text, str):
            raise DomainError(f"objective encoding must be a string, got {text!r}")
        text = text.strip()
        if text.startswith("alpha:"):
            try:
                value = float(text.split(":", 1)[1])
            except ValueError as exc:
                raise DomainError(f"malformed objective encoding {text!r}") from exc
            return cls("alpha", value)
        return cls(text)


NLL = ObjectiveKind("nll")
LINEAR = ObjectiveKind("linear")
CAYLEY = ObjectiveKind("cayley")
DEFT = ObjectiveKind("deft")
EAFT = ObjectiveKind("eaft")


def fixed_alpha(alpha: float) -> ObjectiveKind:
    """Fixed-exponent member of the family with the given alpha >= MIN_ORDER."""
    return ObjectiveKind("alpha", alpha)


def default_kinds() -> list[ObjectiveKind]:
    """All six members, with the fixed-exponent member at alpha 0.5."""
    return [NLL, LINEAR, fixed_alpha(0.5), CAYLEY, DEFT, EAFT]


@dataclass(frozen=True)
class GateError:
    """Factored learning signal on the target logit: signal = gate * error; arrays for a stack."""

    gate: float | np.ndarray
    error: float | np.ndarray
    signal: float | np.ndarray


# Widest row, and fewest rows, for which softmax_into takes the row max from a transposed copy. At 256 x 32 the
# copy's column max took 11 us against 23 us for the row max, at 1024 x 64 76 against 105 us, and at 256 x 128
# 43 against 32 us (2 vCPU Xeon, numpy 2.4.6).
_NARROW_ROW = 64


def softmax_into(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ``logits`` into ``out`` (may be ``logits``): the one kernel, unchecked.

    A row's bits depend on that row alone, so a subset of rows gives the bits of the whole stack.
    """
    rows, width = logits.shape
    if width <= _NARROW_ROW <= rows:
        # numpy's row max pays per row; a transposed copy's column max does not (a max rounds nothing: same bits)
        row_max = np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    else:
        row_max = logits.max(axis=1, keepdims=True)
    np.subtract(logits, row_max, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def softmax(z) -> np.ndarray:
    """Numerically stable softmax of a finite logit vector (length >= 2), or of each row of a (rows, vocab) stack.

    The result is C-contiguous, and its bits do not depend on the layout of ``z``.
    """
    arr = _floats(z, "logits")
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
        raise DomainError(
            f"logits must be a vector of length >= 2 or a (rows, >= 2) stack of them, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise DomainError("logits contain non-finite entries")
    Z, back = _one_or_stack(arr)
    return back(softmax_into(Z, np.empty(Z.shape)))


def _with_targets(P: np.ndarray, targets):
    """``P``, its targets as an index vector, and ``back``, through ``_one_or_stack``: the one targets check.

    ``P`` is a checked prediction or its softmax. Each target must be an
    integer in range, one per row; a bool in a sequence of integers, which
    numpy reads as 0 or 1, is refused.
    """
    array = np.asarray(targets)
    if array.ndim == 1 and array.dtype.kind in "iu" and not isinstance(targets, np.ndarray):
        flag = next((t for t in targets if isinstance(t, (bool, np.bool_))), None)
        if flag is not None:
            raise DomainError(f"target indices must be integers, got {bool(flag)!r}")
    P, array, back = _one_or_stack(P, array)
    if array.dtype.kind not in "iu" and array.size:
        raise DomainError(f"target indices must be integers, got {array.ravel().tolist()[0]!r}")
    if array.shape != P.shape[:1]:
        raise DomainError(f"expected {P.shape[0]} target indices, got shape {array.shape}")
    bad = (array < 0) | (array >= P.shape[1])
    if bad.any():
        raise DomainError(f"target index {int(array[bad][0])} out of range for vocabulary of {P.shape[1]}")
    return P, array.astype(np.intp, copy=False), back


def focus_index(kind: ObjectiveKind, P, target):
    """Focus exponent of the gate at the current prediction.

    Static members return their constant (0 for ``nll`` and ``eaft``, 1 for
    ``linear``, the configured value for ``alpha``); ``cayley`` maps the
    target probability through the Cayley trajectory and ``deft`` returns the
    collision mass of the full predictive distribution. A (rows, vocab) stack
    with one target per row gives one exponent per row.
    """
    P, targets, back = _with_targets(validate_dist(P), target)
    return back(focus_per_row(kind, P, targets))


def gate(kind: ObjectiveKind, P, target) -> GateError:
    """Trust gate, prediction error 1 - p, and their product.

    The gate is w * p^a with the frozen weight w and focus exponent a of
    ``frozen_state``: p^a for the deformed members, 1 for ``nll``, and the
    normalized predictive entropy for ``eaft``. A (rows, vocab) stack with
    one target per row gives arrays of one value per row in each field. It
    is the one gate call outside the trainer's step: the landscapes and the
    property suite gate their stacks through it.
    """
    P, targets, back = _with_targets(validate_dist(P), target)
    p = _target_p(P, targets)
    g = _gate(kind, P, targets, p, focus_per_row(kind, P, targets))
    error = 1.0 - p
    return GateError(gate=back(g), error=back(error), signal=back(g * error))


def loss(kind: ObjectiveKind, P, target):
    """Token loss at the current prediction; one per row of a (rows, vocab) stack with one target per row.

    For the dynamic members the focus exponent is evaluated at the current
    state and treated as a constant, so this is the frozen-exponent surrogate
    whose gradient the update rule follows. Nonnegative; zero iff p == 1
    (``eaft`` is also zero when the prediction is deterministic).
    """
    P, targets, back = _with_targets(validate_dist(P), target)
    return back(loss_per_row(kind, P, targets))


def frozen_state(
    kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped target probability p, weight w and focus exponent a of each row.

    Rows of the (rows, vocab) stack are taken as valid distributions and
    labels as in range; callers check them.
    """
    weight, focus = _RULES[kind.name]
    return _target_p(probs, labels), weight(kind, probs, labels), focus(kind, probs, labels)


def focus_per_row(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Focus exponent of each row of a (rows, vocab) prediction stack; unchecked ``focus_index``."""
    # The focus rule alone: the weight of eaft would cost a pass over the table.
    return _RULES[kind.name][1](kind, probs, labels)


def _gate(
    kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray, p: np.ndarray, focus: np.ndarray
) -> np.ndarray:
    """Trust gate w * p^a of each row, from its clamped target mass p and focus a: the one gate expression.

    A unit weight is not multiplied in: 1 * x has the bits of x.
    """
    weight = _RULES[kind.name][0]
    powered = p**focus
    return powered if weight is _unit else weight(kind, probs, labels) * powered


def loss_per_row(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Frozen-state token loss w * (1 - p^a) / a of each row, through ``deformed_loss``; unchecked ``loss``.

    At a == 0 the exact limit -w log p is taken, without dividing by a.
    """
    p, w, a = frozen_state(kind, probs, labels)
    return w * deformed_loss(p, a)


def gate_error_into(
    kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray, focus: np.ndarray, positions: np.ndarray | None = None
) -> np.ndarray:
    """Overwrite a checked (rows, vocab) stack with gate * (P - onehot) at each row's focus: the one kernel.

    The target entries are read once and written through their flat positions
    (``_positions(probs, labels)``, or ``positions`` when the caller holds
    them), which address the caller's array only when it is C-contiguous: any
    other layout raises DomainError before anything is written. A unit gate
    (weight 1, focus 0: ``nll``) gives P - onehot unscaled, the same bits, and
    ignores ``focus``.
    """
    if not probs.flags.c_contiguous:
        raise DomainError("gate_error_into writes through flat positions and needs a C-contiguous stack")
    flat = probs.ravel()
    if positions is None:
        positions = _positions(probs, labels)
    if _RULES[kind.name] == (_unit, _zero):
        flat[positions] -= 1.0
        return probs
    g = _gate(kind, probs, labels, _clamped(flat[positions]), focus)
    probs *= g[:, None]
    flat[positions] -= g
    return probs


def logit_gradient(kind: ObjectiveKind, z, target):
    """Exact gradient of the token loss with respect to the logits.

    Returns gate * (P - onehot(target)) with P = softmax(z); entries sum to
    zero and the target entry is nonpositive. For ``cayley`` and ``deft`` the
    focus exponent is frozen at the current state (no differentiation through
    it) -- this is the family's update rule by construction. A (rows, vocab)
    stack of logits with one target per row gives one gradient per row, each
    depending on its own row alone.
    """
    P, targets, back = _with_targets(softmax(z), target)
    # P holds distributions by construction: gate them without validating again
    return back(gate_error_into(kind, P, targets, focus_per_row(kind, P, targets)))
