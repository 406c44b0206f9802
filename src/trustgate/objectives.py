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

Canonical text encodings (used by configs and the CLI): ``nll``, ``linear``,
``alpha:<float>``, ``cayley``, ``deft``, ``eaft``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import ALPHA_SWITCH, PROB_FLOOR, DomainError, validate_dist


def _target_p(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Target probability of each row, clamped to [PROB_FLOOR, 1]."""
    # np.clip gives the same values but costs more per call on the trainer's small rows
    return np.minimum(np.maximum(probs[np.arange(probs.shape[0]), labels], PROB_FLOOR), 1.0)


# The family as one table. Every member freezes a weight w and a focus
# exponent a at the current prediction; its loss is w * (1 - p^a) / a (with
# the -w log p limit at a -> 0) and its gate is w * p^a. Each rule maps
# (kind, probs, labels) of a (rows, vocab) stack to one value per row, so a
# new member is one entry here.
def _unit(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.ones(probs.shape[0])


def _zero(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.zeros(probs.shape[0])


def _fixed(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.full(probs.shape[0], float(kind.alpha))  # type: ignore[arg-type]


def _cayley(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = _target_p(probs, labels)
    return p / (1.0 + np.sqrt(1.0 - p)) ** 2


def _collision(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return (probs * probs).sum(axis=1)


def _normalized_entropy(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    entropy = -(probs * np.log(np.maximum(probs, 1e-300))).sum(axis=1)
    # at most 1; a uniform row's entropy can round to one ulp above log V
    return np.minimum(entropy / math.log(probs.shape[1]), 1.0)


_RULES = {
    # name: (weight rule, focus rule)
    "nll": (_unit, _zero),
    "linear": (_unit, _unit),
    "alpha": (_unit, _fixed),
    "cayley": (_unit, _cayley),
    "deft": (_unit, _collision),
    "eaft": (_normalized_entropy, _zero),
}
_KIND_NAMES = tuple(_RULES)
_DYNAMIC = ("cayley", "deft")


@dataclass(frozen=True)
class ObjectiveKind:
    """One member of the objective family.

    ``name`` is one of ``nll``, ``linear``, ``alpha``, ``cayley``, ``deft``,
    ``eaft``; a fixed-exponent member (``alpha``) carries its exponent, which
    must be positive.
    """

    name: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _KIND_NAMES:
            raise DomainError(f"unknown objective {self.name!r}, expected one of {_KIND_NAMES}")
        if self.name == "alpha":
            if self.alpha is None or not math.isfinite(self.alpha) or self.alpha <= 0.0:
                raise DomainError(f"fixed-exponent objective requires alpha > 0, got {self.alpha!r}")
        elif self.alpha is not None:
            raise DomainError(f"objective {self.name!r} takes no exponent parameter")

    @property
    def is_dynamic(self) -> bool:
        """True when the focus exponent depends on the current prediction."""
        return self.name in _DYNAMIC

    def encode(self) -> str:
        """Canonical text encoding, e.g. ``deft`` or ``alpha:0.5``."""
        if self.name == "alpha":
            return f"alpha:{self.alpha!r}"
        return self.name

    @classmethod
    def parse(cls, text: str) -> "ObjectiveKind":
        """Parse the canonical text encoding."""
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
    """Fixed-exponent member of the family with the given alpha > 0."""
    return ObjectiveKind("alpha", float(alpha))


def default_kinds(alpha: float = 0.5) -> list[ObjectiveKind]:
    """All six members, with the fixed-exponent member instantiated at alpha."""
    return [NLL, LINEAR, fixed_alpha(alpha), CAYLEY, DEFT, EAFT]


@dataclass(frozen=True)
class GateError:
    """Factored learning signal on the target logit: signal = gate * error."""

    gate: float
    error: float
    signal: float


def softmax(z) -> np.ndarray:
    """Numerically stable softmax of a finite logit vector (length >= 2)."""
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError(f"logits must be a 1-d vector of length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("logits contain non-finite entries")
    shifted = arr - arr.max()
    e = np.exp(shifted)
    return e / e.sum()


def _check_target(P: np.ndarray, target: int) -> int:
    target = int(target)
    if target < 0 or target >= P.size:
        raise DomainError(f"target index {target} out of range for vocabulary of {P.size}")
    return target


def _one_row(P, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate one distribution and its target; return them as a one-row stack."""
    P = validate_dist(P)
    return P[None, :], np.array([_check_target(P, target)])


def focus_index(kind: ObjectiveKind, P, target: int) -> float:
    """Focus exponent of the gate at the current prediction.

    Static members return their constant (0 for ``nll`` and ``eaft``, 1 for
    ``linear``, the configured value for ``alpha``); ``cayley`` maps the
    target probability through the Cayley trajectory and ``deft`` returns the
    collision mass of the full predictive distribution.
    """
    return float(focus_per_row(kind, *_one_row(P, target))[0])


def gate(kind: ObjectiveKind, P, target: int) -> GateError:
    """Trust gate, prediction error 1 - p, and their product.

    The gate is w * p^a with the frozen weight w and focus exponent a of
    ``frozen_state``: p^a for the deformed members, 1 for ``nll``, and the
    normalized predictive entropy for ``eaft``.
    """
    probs, labels = _one_row(P, target)
    g = float(gate_per_row(kind, probs, labels)[0])
    error = 1.0 - float(_target_p(probs, labels)[0])
    return GateError(gate=g, error=error, signal=g * error)


def loss(kind: ObjectiveKind, P, target: int) -> float:
    """Scalar token loss at the current prediction.

    For the dynamic members the focus exponent is evaluated at the current
    state and treated as a constant, so this is the frozen-exponent surrogate
    whose gradient the update rule follows. Nonnegative; zero iff p == 1
    (``eaft`` is also zero when the prediction is deterministic).
    """
    return float(loss_per_row(kind, *_one_row(P, target))[0])


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
    """Focus exponent of each row of a (rows, vocab) prediction stack; row-wise ``focus_index``."""
    # The focus rule alone: the weight of eaft would cost a pass over the table.
    return _RULES[kind.name][1](kind, probs, labels)


def gate_per_row(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Trust gate w * p^a of each row of a (rows, vocab) prediction stack; row-wise ``gate(...).gate``."""
    p, w, a = frozen_state(kind, probs, labels)
    return w * p**a


def loss_per_row(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Frozen-state token loss w * (1 - p^a) / a of each row; row-wise ``loss``.

    Below ALPHA_SWITCH the exact limit -w log p is taken, without dividing by a.
    """
    p, w, a = frozen_state(kind, probs, labels)
    log_p = np.log(p)
    small = a < ALPHA_SWITCH
    a = np.where(small, 1.0, a)
    # a * log p may overflow to -inf for huge a, where expm1 gives the exact limit -1
    with np.errstate(over="ignore"):
        deformed = -np.expm1(a * log_p) / a
    return w * np.where(small, -log_p, deformed)


def logit_gradient(kind: ObjectiveKind, z, target: int) -> np.ndarray:
    """Exact gradient of the token loss with respect to the logits.

    Returns gate * (P - onehot(target)) with P = softmax(z); entries sum to
    zero and the target entry is nonpositive. For ``cayley`` and ``deft`` the
    focus exponent is frozen at the current state (no differentiation through
    it) -- this is the family's update rule by construction.
    """
    P = softmax(z)
    target = _check_target(P, target)
    g = gate(kind, P, target).gate
    grad = g * P
    grad[target] -= g
    return grad
