"""Scalar and vector primitives for deformed-log losses and focus trajectories.

Everything here is pure float64 math: the generalized logarithm, the deformed
token loss it induces, Shannon/Tsallis/collision entropies, and the
Cayley/Moebius maps that turn a confidence level into a focus exponent.
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


def clamp_prob(p: float) -> float:
    """Clamp a probability to [PROB_FLOOR, 1]; reject values outside [0, 1]."""
    if not math.isfinite(p) or p < -1e-9 or p > 1.0 + 1e-9:
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    return min(max(float(p), PROB_FLOOR), 1.0)


def validate_dist(probs) -> np.ndarray:
    """Validate a probability vector: length >= 2, entries >= 0, sum == 1.

    Returns the vector as a float64 ndarray. Raises DomainError on violation.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError(
            f"distribution must be a 1-d vector of length >= 2, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("distribution contains non-finite entries")
    if np.any(arr < 0.0):
        raise DomainError(f"distribution has negative entries (min {arr.min()!r})")
    total = float(arr.sum())
    if abs(total - 1.0) > DIST_SUM_TOL:
        raise DomainError(f"distribution sums to {total!r}, expected 1 within {DIST_SUM_TOL}")
    return arr


def validate_rows(probs) -> np.ndarray:
    """Validate a (rows, vocab >= 2) stack of probability vectors row by row.

    Applies every check of ``validate_dist`` to each row and returns the stack
    as a float64 ndarray. Raises DomainError on the first violation.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise DomainError(f"distributions must be a (rows, >= 2) array, got shape {arr.shape}")
    # Only non-negative stacks are summed, so +inf + -inf never warns; NaN fails
    # >= 0, +inf makes its row sum inf, and the checks below name the violation.
    if (arr >= 0.0).all() and (np.abs(arr.sum(axis=1) - 1.0) <= DIST_SUM_TOL).all():
        return arr
    if not np.isfinite(arr).all():
        raise DomainError("distribution contains non-finite entries")
    if (arr < 0.0).any():
        raise DomainError(f"distribution has negative entries (min {arr.min()!r})")
    totals = arr.sum(axis=1)
    total = float(totals[np.abs(totals - 1.0) > DIST_SUM_TOL][0])
    raise DomainError(f"distribution sums to {total!r}, expected 1 within {DIST_SUM_TOL}")


def q_log(x: float, q: float) -> float:
    """Generalized logarithm ln_q(x) = (x^(1-q) - 1) / (1 - q) for x > 0.

    Recovers the natural logarithm at q == 1, and tends to it as q -> 1.
    Strictly increasing in x with derivative x^(-q).
    """
    if not (isinstance(x, (int, float, np.floating)) and math.isfinite(x)) or x <= 0:
        raise DomainError(f"q_log requires x > 0, got {x!r}")
    if q == 1.0:
        return math.log(x)
    # expm1 keeps full precision when (1-q)*log(x) is small.
    return math.expm1((1.0 - q) * math.log(x)) / (1.0 - q)


def deformed_loss(p: float, alpha: float) -> float:
    """Token loss (1 - p^alpha) / alpha = -expm1(alpha log p) / alpha, and -log(p) at alpha == 0.

    Nonnegative, zero iff p == 1, nonincreasing in p for fixed alpha. The
    exponent is 0 or at least MIN_ORDER. The input probability is clamped to
    [PROB_FLOOR, 1] first.
    """
    if not (alpha == 0.0 or MIN_ORDER <= alpha < math.inf):
        raise DomainError(f"focus exponent must be 0 or >= {MIN_ORDER!r}, got {alpha!r}")
    p = clamp_prob(p)
    if alpha == 0.0:
        return -math.log(p)
    return -math.expm1(alpha * math.log(p)) / alpha


def shannon_entropy(r) -> float:
    """Shannon entropy -sum r*log(r) in nats, with 0*log(0) = 0."""
    arr = validate_dist(r)
    nz = arr[arr > 0.0]
    return float(-(nz * np.log(nz)).sum())


def tsallis_entropy(r, q: float) -> float:
    """Generalized entropy (1 - sum r^q) / (q - 1) for q > 0.

    Returns the Shannon entropy at q == 1. Nonnegative and zero exactly on
    point masses. Summed over r > 0 as w * (1 - r^d) / d with d = |q - 1|,
    w = r (q > 1) or r^q (q < 1) and 1 - r^d = -expm1(d log r): full
    precision at every q != 1 (where d is at least 1.1e-16), and no power of
    r exceeds 1.
    """
    if not math.isfinite(q) or q <= 0.0:
        raise DomainError(f"entropy order must be > 0, got {q!r}")
    arr = validate_dist(r)
    nz = arr[arr > 0.0]
    log_r = np.log(nz)
    # "0.0 -" keeps a point mass at +0.0
    if q == 1.0:
        return 0.0 - float((nz * log_r).sum())
    d = abs(q - 1.0)
    weight = nz if q > 1.0 else np.exp(q * log_r)
    with np.errstate(over="ignore"):  # d log r overflows to -inf for huge q; expm1 gives -1
        return 0.0 - float((weight * np.expm1(d * log_r)).sum()) / d


def renyi2_entropy(P) -> float:
    """Order-2 (collision) entropy H2 = -log(sum P^2)."""
    arr = validate_dist(P)
    return float(-np.log((arr * arr).sum()))


def concentration(P) -> float:
    """Collision mass sum_v P(v)^2 = exp(-H2); lies in [1/|V|, 1].

    Equals 1/|V| exactly on the uniform distribution and 1 on point masses.
    """
    arr = validate_dist(P)
    return float((arr * arr).sum())


def uncertainty_radius(p: float) -> float:
    """Radius z = sqrt(1 - p), a monotone rescaling of distance-to-certainty."""
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    return math.sqrt(1.0 - p)


def cayley_alpha(p: float) -> float:
    """State-dependent focus exponent (1 - sqrt(1-p)) / (1 + sqrt(1-p)).

    Computed in the cancellation-free form p / (1 + sqrt(1-p))^2, which is
    algebraically identical. Strictly increasing on [0, 1] with exact
    endpoints alpha(0) = 0 and alpha(1) = 1.
    """
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    root = math.sqrt(1.0 - p)
    return p / (1.0 + root) ** 2


def mobius_alpha(z: float, kappa: float) -> float:
    """Linear-fractional map (1 - z) / (1 + kappa*z) on the radius z in [0, 1].

    Every member with kappa > -1 swaps the endpoints (z=0 -> 1, z=1 -> 0) and
    is an involution; kappa = 1 reproduces ``cayley_alpha`` under
    z = sqrt(1 - p).
    """
    if not math.isfinite(kappa) or kappa <= -1.0:
        raise DomainError(f"map parameter must be > -1, got {kappa!r}")
    if not math.isfinite(z) or z < 0.0 or z > 1.0:
        raise DomainError(f"radius must lie in [0, 1], got {z!r}")
    return (1.0 - z) / (1.0 + kappa * z)


def surprisal_alpha(p: float) -> float:
    """Focus exponent tanh(I_err / 4) with error surprisal I_err = -log(1-p).

    Identical to ``cayley_alpha`` on [0, 1); returns 1.0 at p == 1 where the
    surprisal diverges.
    """
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    if p >= 1.0:
        return 1.0
    return math.tanh(-math.log1p(-p) / 4.0)


def fisher_rao_distance(p: float) -> float:
    """Geodesic distance 2*arccos(sqrt(p)) from Bernoulli(p) to certainty.

    Satisfies sin(d/2) = sqrt(1 - p), so ``uncertainty_radius`` is a monotone
    reparameterization of this distance.
    """
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    return 2.0 * math.acos(math.sqrt(p))
