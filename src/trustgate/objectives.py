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

from .core_math import (
    PROB_FLOOR,
    DomainError,
    cayley_alpha,
    clamp_prob,
    concentration,
    deformed_loss,
    shannon_entropy,
    validate_dist,
)

_KIND_NAMES = ("nll", "linear", "alpha", "cayley", "deft", "eaft")
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


def focus_index(kind: ObjectiveKind, P, target: int) -> float:
    """Focus exponent of the gate at the current prediction.

    Static members return their constant (0 for ``nll`` and ``eaft``, 1 for
    ``linear``, the configured value for ``alpha``); ``cayley`` maps the
    target probability through the Cayley trajectory and ``deft`` returns the
    collision mass of the full predictive distribution.
    """
    P = validate_dist(P)
    target = _check_target(P, target)
    if kind.name == "nll" or kind.name == "eaft":
        return 0.0
    if kind.name == "linear":
        return 1.0
    if kind.name == "alpha":
        return float(kind.alpha)  # type: ignore[arg-type]
    if kind.name == "cayley":
        return cayley_alpha(clamp_prob(float(P[target])))
    return concentration(P)  # deft


def _gate_value(kind: ObjectiveKind, P: np.ndarray, p: float, target: int) -> float:
    if kind.name == "nll":
        return 1.0
    if kind.name == "eaft":
        # Normalized predictive entropy, treated as a frozen weight.
        return shannon_entropy(P) / math.log(P.size)
    return p ** focus_index(kind, P, target)


def gate(kind: ObjectiveKind, P, target: int) -> GateError:
    """Trust gate, prediction error 1 - p, and their product.

    The gate is p^alpha for the deformed members (alpha per ``focus_index``),
    1 for ``nll``, and the normalized predictive entropy for ``eaft``.
    """
    P = validate_dist(P)
    target = _check_target(P, target)
    p = clamp_prob(float(P[target]))
    g = _gate_value(kind, P, p, target)
    error = 1.0 - p
    return GateError(gate=g, error=error, signal=g * error)


def focus_per_row(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Focus exponent of each row of a (rows, vocab) prediction stack; row-wise ``focus_index``."""
    rows = np.arange(probs.shape[0])
    if kind.name in ("nll", "eaft"):
        return np.zeros(probs.shape[0])
    if kind.name == "linear":
        return np.ones(probs.shape[0])
    if kind.name == "alpha":
        return np.full(probs.shape[0], float(kind.alpha))  # type: ignore[arg-type]
    if kind.name == "cayley":
        p = np.clip(probs[rows, labels], PROB_FLOOR, 1.0)
        root = np.sqrt(1.0 - p)
        return p / (1.0 + root) ** 2
    return (probs * probs).sum(axis=1)  # deft


def gate_per_row(kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Trust gate of each row of a (rows, vocab) prediction stack; row-wise ``gate(...).gate``.

    Rows are taken as valid distributions and labels as in range; callers check them.
    """
    rows = np.arange(probs.shape[0])
    p = np.clip(probs[rows, labels], PROB_FLOOR, 1.0)
    if kind.name == "nll":
        return np.ones(probs.shape[0])
    if kind.name == "eaft":
        clipped = np.clip(probs, 1e-300, None)
        entropy = -(probs * np.log(clipped)).sum(axis=1)
        return entropy / math.log(probs.shape[1])
    return p ** focus_per_row(kind, probs, labels)


def loss(kind: ObjectiveKind, P, target: int) -> float:
    """Scalar token loss at the current prediction.

    For the dynamic members the focus exponent is evaluated at the current
    state and treated as a constant, so this is the frozen-exponent surrogate
    whose gradient the update rule follows. Nonnegative; zero iff p == 1
    (``eaft`` is also zero when the prediction is deterministic).
    """
    P = validate_dist(P)
    target = _check_target(P, target)
    p = clamp_prob(float(P[target]))
    if kind.name == "nll":
        return -math.log(p)
    if kind.name == "linear":
        return 1.0 - p
    if kind.name == "eaft":
        return (shannon_entropy(P) / math.log(P.size)) * -math.log(p)
    return deformed_loss(p, focus_index(kind, P, target))


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
