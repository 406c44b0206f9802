"""The formulas of the objective family, each written once as float64 array code.

Everything here is pure float64 math: the generalized logarithm, the deformed
token loss it induces, Shannon/Tsallis entropies, the collision mass, and the
Cayley/Moebius maps that turn a confidence level into a focus exponent.
Elementwise functions take a scalar or an array as their first argument,
refuse it naming its first entry outside the domain, and return a Python
float for a scalar; distribution functions take one distribution or a
(rows, V) stack of them, and return a Python float for one distribution. The
row functions of the other modules follow the same rule through
``_one_or_stack``. The Cayley focus, the collision mass and the Shannon row
entropy are unchecked kernels as well; the objectives and the landscapes call
them, so the property suite checks the code the trainer and the grids run.
No I/O, no mutable state; every function is safe to call concurrently.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Probabilities are clamped to [PROB_FLOOR, 1] before any log or power so a
# hard zero never produces -inf; the floor is far below the 1e-9 precision at
# which results are reported.
PROB_FLOOR = 1e-12

# The deformed loss is written -expm1(a log p) / a, which keeps full precision
# at every a > 0, so its -log(p) limit is taken at a == 0 alone (and the log
# limit of q_log and tsallis_entropy at q == 1 alone). A positive order must be
# at least the smallest normal float: below it the order is subnormal and keeps
# fewer bits the smaller it gets (none at 5e-324).
MIN_ORDER = sys.float_info.min

# A probability vector must sum to 1 within this tolerance.
DIST_SUM_TOL = 1e-9


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def _result(value):
    """A Python float for a 0-d result, else the array itself."""
    return float(value) if np.ndim(value) == 0 else value


def _refuse_first(values: np.ndarray, bad: np.ndarray, message: str) -> None:
    """Raise DomainError ``message`` naming the first entry of ``values`` flagged in ``bad``, if any."""
    if bad.any():
        raise DomainError(f"{message}, got {values[bad][0].tolist()!r}")


def _floats(x, what: str) -> np.ndarray:
    """``x``, a number or a rectangular nesting of numbers, as a float64 array: the one array check.

    Text, bools, objects (``None``, or an int past the range of int64 and
    uint64) and a ragged nesting are refused naming ``x``, not parsed or cast.
    """
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # numpy refuses a ragged nesting
        raise DomainError(f"{what} must be a rectangular array of numbers, got a ragged nesting") from exc
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{what} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _unit_interval(x, what: str = "probability", slack: float = 0.0) -> np.ndarray:
    """``x`` as a float64 array, every entry in [0, 1] widened by ``slack``: the one range check."""
    arr = _floats(x, what)
    # NaN fails both comparisons
    _refuse_first(arr, ~((arr >= -slack) & (arr <= 1.0 + slack)), f"{what} must lie in [0, 1]")
    return arr


def _integer(x, what: str, low=-math.inf, high=math.inf) -> int:
    """``x``, an int or a numpy integer in [low, high], as a Python int: the one integer check. A bool is refused."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    if not low <= int(x) <= high:
        raise DomainError(f"{what} must {f'lie in [{low}, {high}]' if high < math.inf else f'be >= {low}'}, got {x}")
    return int(x)


def _real(x, what: str, low=-math.inf, high=math.inf, closed: str = "both") -> int | float:
    """``x``, a finite int or float in the interval from ``low`` to ``high``, as a Python number: the one real check.

    ``closed`` names the finite bounds the interval holds: ``both``, ``left``, ``right`` or ``neither``. A bool is
    refused, and an int is compared, never converted to a float, so one past the float range is refused.
    """
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise DomainError(f"{what} must be a number, got {x!r}")
    # a numpy scalar as the Python number it equals: numpy compares a float32 with the bounds cast to float32
    x = int(x) if isinstance(x, (int, np.integer)) else float(x)
    left, right = closed in ("both", "left"), closed in ("both", "right")
    # NaN fails every comparison
    if (low <= x if left else low < x) and (x <= high if right else x < high) and abs(x) <= sys.float_info.max:
        return x
    if high < math.inf:
        interval = f"{'[' if left else '('}{low!r}, {high!r}{']' if right else ')'}"
        raise DomainError(f"{what} must lie in {interval}, got {x!r}")
    bound = f" and {'>=' if left else '>'} {low!r}" if low > -math.inf else ""
    raise DomainError(f"{what} must be finite{bound}, got {x!r}")


def _choice(x, what: str, choices: tuple[str, ...]) -> str:
    """``x``, one of the strings ``choices``, as a Python str: the one choice check. A non-string is not looked up."""
    if not (isinstance(x, str) and x in choices):
        raise DomainError(f"unknown {what} {x!r}, expected one of {choices}")
    return str(x)


def _instance(x, what: str, cls: type):
    """``x``, an instance of ``cls``: the one check of a structured argument, made before its first attribute read."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{what} must be {article} {cls.__name__}, got {x!r}")
    return x


def clamp_prob(p):
    """Clamp probabilities to [PROB_FLOOR, 1]; reject values outside [0, 1] by more than 1e-9."""
    return _result(np.minimum(np.maximum(_unit_interval(p, slack=1e-9), PROB_FLOOR), 1.0))


def validate_dist(probs) -> np.ndarray:
    """Validate one probability vector or a (rows, V) stack of them: the one distribution check.

    Every row must have V >= 2 entries, finite and non-negative, that sum to 1
    within DIST_SUM_TOL; a bad row in a stack gives the message it gives alone.
    Returns the input as a C-contiguous float64 ndarray, a copy only when it is
    not one, so the row functions' bits do not depend on the caller's layout.
    Raises DomainError on the first violation.
    """
    arr = _floats(probs, "distribution")
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
        raise DomainError(
            f"distributions must be a vector of length >= 2 or a (rows, >= 2) stack of them, got shape {arr.shape}"
        )
    arr = np.ascontiguousarray(arr)
    rows = arr.reshape(-1, arr.shape[-1])
    # Only non-negative stacks are summed, so +inf + -inf never warns; NaN fails
    # >= 0, +inf makes its row sum inf, and the checks below name the violation.
    if (rows >= 0.0).all() and (np.abs(rows.sum(axis=1) - 1.0) <= DIST_SUM_TOL).all():
        return arr
    if not np.isfinite(rows).all():
        raise DomainError("distribution contains non-finite entries")
    negative = (rows < 0.0).any(axis=1)
    if negative.any():
        raise DomainError(f"distribution has negative entries (min {float(rows[negative][0].min())!r})")
    totals = rows.sum(axis=1)
    total = float(totals[np.abs(totals - 1.0) > DIST_SUM_TOL][0])
    raise DomainError(f"distribution sums to {total!r}, expected 1 within {DIST_SUM_TOL}")


def _one_or_stack(row, *per_row, row_ndim: int = 1):
    """Tell one row from a stack of rows: the one place that does.

    ``row`` is one row when it has ``row_ndim`` axes, else a stack of them.
    Returns ``row`` and each ``per_row`` argument (what goes with each row,
    such as its target) as arrays, each with a leading axis of length 1 added
    for one row, followed by ``back``, which gives a stack's result in the
    input's form: for one row its row 0, a Python float where that is 0-d; for
    a stack the result itself.
    """
    arrays = [np.asarray(values) for values in (row, *per_row)]
    if arrays[0].ndim != row_ndim:
        return (*arrays, lambda result: result)
    return (*(arr[None] for arr in arrays), lambda result: _result(result[0]))


def q_log(x, q: float):
    """Generalized logarithm ln_q(x) = (x^(1-q) - 1) / (1 - q) for x > 0.

    Recovers the natural logarithm at q == 1, and tends to it as q -> 1.
    Strictly increasing in x with derivative x^(-q). Any finite order q is valid.
    """
    q = _real(q, "q_log order")
    arr = _floats(x, "q_log argument")
    _refuse_first(arr, ~((arr > 0.0) & (arr < math.inf)), "q_log requires x > 0")
    if q == 1.0:
        return _result(np.log(arr))
    # expm1 keeps full precision when (1-q)*log(x) is small; past the float range it gives inf
    with np.errstate(over="ignore"):
        return _result(np.expm1((1.0 - q) * np.log(arr)) / (1.0 - q))


def deformed_loss(p, alpha):
    """Token loss (1 - p^alpha) / alpha = -expm1(alpha log p) / alpha, and -log(p) at alpha == 0.

    Broadcasts ``p`` against ``alpha``. Nonnegative, zero iff p == 1,
    nonincreasing in p for fixed alpha. Each exponent is 0 or at least
    MIN_ORDER. Input probabilities are clamped to [PROB_FLOOR, 1] first.
    """
    a = _floats(alpha, "focus exponent")
    zero = a == 0.0
    normal = (a >= MIN_ORDER) & (a < math.inf)
    _refuse_first(a, ~(zero | normal), f"focus exponent must be 0 or >= {MIN_ORDER!r}")
    log_p = np.log(clamp_prob(p))
    a = np.where(zero, 1.0, a)
    # a * log p may overflow to -inf for huge a, where expm1 gives the exact limit -1
    with np.errstate(over="ignore"):
        deformed = -np.expm1(a * log_p) / a
    return _result(np.where(zero, -log_p, deformed))


def entropy_rows(P: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row (last axis) of ``P``, unchecked: the one kernel.

    Entries below 1e-300 enter the logarithm as 1e-300, so 0*log(0) = 0; a point
    mass gives +0.0. One temporary the size of ``P``: the trainer holds one per
    block in flight.
    """
    terms = np.maximum(P, 1e-300)
    np.log(terms, out=terms)
    terms *= P
    return 0.0 - terms.sum(axis=-1)


def shannon_entropy(r):
    """Shannon entropy -sum r*log(r) in nats, with 0*log(0) = 0, of a distribution or of each row of a stack."""
    return _result(entropy_rows(validate_dist(r)))


def tsallis_entropy(r, q: float):
    """Generalized entropy (1 - sum r^q) / (q - 1) for q > 0, of a distribution or of each row of a stack.

    Equals ``shannon_entropy`` at q == 1. Nonnegative and zero exactly on point
    masses. Summed as w * (1 - r^d) / d with d = |q - 1|, w = r (q > 1) or
    r^q (q < 1) and 1 - r^d = -expm1(d log r), where a zero entry's log is
    taken as log 1, so it adds 0: full precision at every q != 1 (where d is
    at least 1.1e-16), and no power of r exceeds 1.
    """
    q = _real(q, "entropy order", 0, closed="neither")
    if q == 1.0:
        return shannon_entropy(r)
    arr = validate_dist(r)
    log_r = np.log(np.where(arr > 0.0, arr, 1.0))
    d = abs(q - 1.0)
    weight = arr if q > 1.0 else np.exp(q * log_r)
    with np.errstate(over="ignore"):  # d log r overflows to -inf for huge q; expm1 gives -1
        # "0.0 -" keeps a point mass at +0.0
        return _result(0.0 - (weight * np.expm1(d * log_r)).sum(axis=-1) / d)


def collision_mass(P: np.ndarray) -> np.ndarray:
    """Collision mass sum P^2 of each row (last axis) of ``P``, unchecked: the one kernel."""
    return (P * P).sum(axis=-1)


def concentration(P):
    """Collision mass sum_v P(v)^2 = exp(-H2) of a distribution or of each row of a stack; lies in [1/|V|, 1].

    Equals 1/|V| exactly on the uniform distribution and 1 on point masses.
    """
    return _result(collision_mass(validate_dist(P)))


def cayley_focus(p):
    """Cayley focus exponent p / (1 + sqrt(1-p))^2 of probabilities in [0, 1], unchecked: the one kernel."""
    # np.square, not ** 2: a numpy scalar's ** 2 calls pow, whose last bit may differ
    return p / np.square(1.0 + np.sqrt(1.0 - p))


def cayley_alpha(p):
    """State-dependent focus exponent (1 - sqrt(1-p)) / (1 + sqrt(1-p)).

    Computed in the cancellation-free form p / (1 + sqrt(1-p))^2 of
    ``cayley_focus``, which is algebraically identical. Strictly increasing
    on [0, 1] with exact endpoints alpha(0) = 0 and alpha(1) = 1.
    """
    return _result(cayley_focus(_unit_interval(p)))


def mobius_alpha(z, kappa: float):
    """Linear-fractional map (1 - z) / (1 + kappa*z) on the radius z in [0, 1].

    Every member with kappa > -1 swaps the endpoints (z=0 -> 1, z=1 -> 0) and
    is an involution; kappa = 1 reproduces ``cayley_alpha`` under
    z = sqrt(1 - p).
    """
    kappa = _real(kappa, "kappa", -1, closed="neither")
    z = _unit_interval(z, "radius")
    return _result((1.0 - z) / (1.0 + kappa * z))
