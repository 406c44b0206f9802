"""Numerical oracles for the objective family, and the property suite built on them.

The oracles reach each claim by a second route: finite differences of the
frozen-state loss instead of the analytic gradient, a direct search over
the simplex that reads only the score instead of closed-form minimizers,
and explicit entropy sums instead of the loss-side identities. They are not
independent of the library: ``fd_gradient`` takes its probabilities from
``softmax`` and its gate state from ``frozen_state``. The suite calls the
library's own kernels on random and fixed inputs and compares each result
with an oracle or a closed form. It returns one ``PropertyReport`` per
property, so a single run can serve as a CI gate.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .core_math import (
    MIN_ORDER,
    PROB_FLOOR,
    DomainError,
    _choice,
    _integer,
    _one_or_stack,
    _real,
    cayley_alpha,
    concentration,
    deformed_loss,
    mobius_alpha,
    q_log,
    tsallis_entropy,
    validate_dist,
)
from .landscape import construct_distribution, feasible_entropy_range, gradient_landscape
from .objectives import (
    CAYLEY,
    DEFT,
    LINEAR,
    NLL,
    ObjectiveKind,
    Reads,
    _with_targets,
    default_kinds,
    fixed_alpha,
    focus_per_row,
    frozen_state,
    gate,
    logit_gradient,
    softmax,
    softmax_into,
)

# Scoring-rule variants for the risk-minimization oracle. The "main" rule
# scores only the realized token, S(q, y) = (1 - q(y)^a) / a; the "proper"
# rule adds the normalizing term a * sum q^{1+a} that makes the true
# distribution the unique risk minimizer.
RULE_MAIN = "main"
RULE_PROPER = "proper"
_SCORING_RULES = (RULE_MAIN, RULE_PROPER)

# Defaults for the risk-minimization oracle. Each start of the pair-move search
# moves mass in steps from _FIRST_STEP down to _MIN_STEP; _MAX_ITERS is only a
# guard (searches end within about 110 iterations).
_MAX_VOCAB = 6
_NUM_RESTARTS = 16
_FIRST_STEP = 0.25
_MIN_STEP = 1e-12
_MAX_ITERS = 4000
# Score orders the minimizer accepts: MIN_ORDER to _MAX_ORDER. The search scores
# probabilities down to PROB_FLOOR; above _MAX_ORDER, p^(1+a) underflows there.
_MAX_ORDER = math.log(MIN_ORDER) / math.log(PROB_FLOOR) - 1.0
# Central-difference step of fd_gradient, grid points of peak_location, and
# contexts of the risk-flow geometry.
_FD_STEP = 1e-5
_PEAK_POINTS = 10_000
_FLOW_CONTEXTS = 32


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one numerical property check.

    ``passed`` holds exactly when ``max_error`` is within the tolerance the
    check was configured with (recorded in ``detail``). A NaN or infinite
    error is named in ``detail`` and recorded as the largest finite float, so
    it fails and the JSON stays strict.
    """

    name: str
    passed: bool
    max_error: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


def reports_to_json(reports: Sequence[PropertyReport]) -> str:
    """Serialize reports as a JSON array (stable field and report order)."""
    return json.dumps([r.to_dict() for r in reports], indent=2)


def _worst(*errors) -> float:
    """The largest entry of ``errors``, arrays or numbers; NaN if any entry is NaN.

    Every report combines its errors here: Python's ``max`` keeps its current
    value when the next one is NaN, so it would pass a NaN error. The errors
    are flattened into one array and reduced once. An empty array adds
    nothing; a report with a floor passes it as one more error.
    """
    return float(np.concatenate(errors, axis=None).max(initial=-math.inf))


def _report(name: str, max_error: float, tol: float, detail: str = "") -> PropertyReport:
    max_error, parts = float(max_error), [detail] if detail else []
    passed = math.isfinite(max_error) and bool(max_error <= tol)
    if not math.isfinite(max_error):
        parts.append(f"max_error={max_error:g}")
        max_error = sys.float_info.max
    parts.append(f"tol={tol:g}")
    return PropertyReport(name=name, passed=passed, max_error=max_error, detail=" ".join(parts))


def softmax_jacobian(z) -> np.ndarray:
    """Jacobian of softmax: J[i, j] = P_i * (delta_ij - P_j).

    A logit vector gives its (V, V) Jacobian and a (rows, V) stack one per row,
    (rows, V, V). Symmetric with zero row sums.
    """
    P, back = _one_or_stack(softmax(z))
    jac = -(P[:, :, None] * P[:, None, :])
    diagonal = np.arange(P.shape[1])
    jac[:, diagonal, diagonal] += P
    return back(jac)


def _frozen_loss_derivative(kind: ObjectiveKind, P0: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d/dp of each row's frozen-state token loss at its target, -w0 p^(a0 - 1), written apart from the gate."""
    p, w0, a0 = frozen_state(kind, P0, targets)
    return -w0 * p ** (a0 - 1.0)


def _nudged_target_probs(Z: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Target probabilities with each logit nudged down, and their log ratio to the nudged-up ones.

    For a (rows, size) logit stack, both are (rows, size): entry [n, j] comes
    from row n with logit j moved by -/+ _FD_STEP. They do not depend on the
    objective, so one pair serves every member.
    """
    rows, size = Z.shape
    # (rows, size, size): every row with each of its logits nudged in turn
    offsets = np.eye(size) * _FD_STEP

    def target_probs(nudged: np.ndarray) -> np.ndarray:
        flat = nudged.reshape(-1, size)
        softmax_into(flat, flat)
        return np.maximum(nudged[np.arange(rows), :, targets], PROB_FLOOR)

    lower = target_probs(Z[:, None, :] - offsets)
    return lower, np.log(target_probs(Z[:, None, :] + offsets) / lower)


def _fd_difference(
    kind: ObjectiveKind, P0: np.ndarray, targets: np.ndarray, lower: np.ndarray, log_ratio: np.ndarray
) -> np.ndarray:
    """``fd_gradient`` of one member, from the softmax ``P0`` and ``_nudged_target_probs``."""
    _, w0, a0 = (column[:, None] for column in frozen_state(kind, P0, targets))
    # f(p+) - f(p-) with the loss's constant term cancelled exactly: differencing
    # two values of 1 - p^a0 next to 1 leaves ~eps/2h of absolute noise, which
    # swamps gradients of order p at small p. The expm1 form is exact at every
    # a0 > 0, so the log limit is taken at a0 == 0 alone.
    zero = a0 == 0.0
    a0 = np.where(zero, 1.0, a0)
    # The exponent as a full array: NumPy takes a single exponent of 0.5 or 2 as
    # sqrt or square, which would make a row's last bit depend on its stack.
    deformed = -w0 * lower ** np.repeat(a0, lower.shape[1], axis=1) * np.expm1(a0 * log_ratio) / a0
    difference = np.where(zero, -w0 * log_ratio, deformed)
    if not np.all(np.isfinite(difference)):
        raise DomainError("non-finite loss differences in finite differences")
    return difference / (2.0 * _FD_STEP)


def fd_gradient(kind: ObjectiveKind, z, target) -> np.ndarray:
    """Central-difference logit gradient of the frozen-state token loss, at a step of _FD_STEP.

    Oracle counterpart of ``objectives.logit_gradient``: a (rows, vocab) logit
    stack with one target per row gives one gradient per row, each depending
    on its own row alone. Temporaries hold rows x vocab x vocab entries.
    """
    P0, targets, back = _with_targets(softmax(z), target)
    Z = np.asarray(z, dtype=np.float64).reshape(P0.shape)
    return back(_fd_difference(kind, P0, targets, *_nudged_target_probs(Z, targets)))


def expected_score(r, phat, alpha: float, rule: str = RULE_PROPER):
    """Exact expected score of prediction ``phat`` when tokens follow ``r``, at a finite order >= MIN_ORDER.

    ``r`` and ``phat`` are two distributions, or two (rows, vocab) stacks
    scored row by row; a pair of distributions gives a Python float.
    """
    rule = _choice(rule, "scoring rule", _SCORING_RULES)
    alpha = _real(alpha, "score order", MIN_ORDER)
    r, q = validate_dist(r), validate_dist(phat)
    if r.shape != q.shape:
        raise DomainError(f"shape mismatch: r has shape {r.shape}, phat has shape {q.shape}")
    r, q, back = _one_or_stack(r, q)
    with np.errstate(over="ignore"):  # a log q overflows to -inf for huge a; expm1 gives -1
        return back(_risk_rows(q, r, alpha, rule))


def _score_terms(rows: np.ndarray, alpha: float | np.ndarray, rule: str) -> tuple[np.ndarray, np.ndarray]:
    """Entry terms (weighted, free) of the score: the risk under r is sum r*weighted + sum free.

    With L_a(q) = -expm1(a log q) / a and q^a = 1 + expm1(a log q), q clamped to PROB_FLOOR,
    the main rule weighs L_a(q) and the proper rule weighs L_a(q) - q^a and adds q * q^a, with
    q unclamped so that a zero entry adds exactly 0. No terms of order 1/a cancel, so the risk
    keeps full precision at every order. The proper rule's terms are formed in place, in two
    arrays the size of ``rows``. Entries of ``rows`` must be >= 0.
    """
    qa = np.expm1(alpha * np.log(np.maximum(rows, PROB_FLOOR)))  # q^a - 1 until the += below
    loss = qa / -alpha
    if rule == RULE_MAIN:
        return loss, np.zeros_like(loss[..., :1])  # no free term: one zero per row
    qa += 1.0
    loss -= qa
    qa *= rows
    return loss, qa


def _risk_rows(rows: np.ndarray, r: np.ndarray, alpha: float | np.ndarray, rule: str) -> np.ndarray:
    """Expected score of each row (last axis) of ``rows`` under ``r``, broadcast against them."""
    weighted, free = _score_terms(rows, alpha, rule)
    return (r * weighted).sum(axis=-1) + free.sum(axis=-1)


def _descend(
    points: np.ndarray, rs: np.ndarray, alpha: float | np.ndarray, rule: str
) -> tuple[np.ndarray, np.ndarray]:
    """Pair-move search from a (problems, starts, dim) stack of starts, on the risk alone.

    ``alpha`` is one score order for every problem, or a (problems,) vector of
    one order per problem. Each iteration tries, for every ordered pair (giver
    j, taker i), moving min(step, q_j) of mass from entry j to entry i, each
    try divided by its sum. A start takes its best try when that lowers its
    risk and halves its own step otherwise; it stops once its step is below
    _MIN_STEP. Every start's moves depend on its own state and order alone.
    Returns the final points and their risks.
    """
    order = np.reshape(alpha, (-1, 1, 1))  # (problems, 1, 1) against the points
    dim = points.shape[-1]
    giver, taker = np.nonzero(~np.eye(dim, dtype=bool))
    moves = np.arange(giver.size)
    r = rs[:, None, None, :]
    risk = _risk_rows(points, rs[:, None, :], order, rule)
    step = np.full(risk.shape, _FIRST_STEP)
    for _ in range(_MAX_ITERS):
        going = step >= _MIN_STEP
        if not going.any():
            break
        tries = np.repeat(points[..., None, :], moves.size, axis=-2)
        mass = np.minimum(step[..., None], points[..., giver])
        tries[..., moves, giver] -= mass
        tries[..., moves, taker] += mass
        tries /= tries.sum(axis=-1, keepdims=True)
        try_risk = _risk_rows(tries, r, order[..., None], rule)
        best = np.argmin(try_risk, axis=-1)[..., None]
        best_risk = np.take_along_axis(try_risk, best, axis=-1)[..., 0]
        take = going & (best_risk < risk)
        chosen = np.take_along_axis(tries, best[..., None], axis=-2)[..., 0, :]
        points = np.where(take[..., None], chosen, points)
        risk = np.where(take, best_risk, risk)
        step = np.where(going & ~take, 0.5 * step, step)
    return points, risk


def minimize_risk(r, alpha: float, rule: str = RULE_PROPER):
    """Search oracle for the expected-score minimizer of ``r``, and its risk.

    ``r`` is one distribution, which gives its minimizer and a Python float
    risk, or a (problems, dim) stack of them, which gives one minimizer and
    one risk per row. The uniform start and 16 fixed random restarts each run
    a pair-move search (``_descend``) that moves mass along the simplex edges
    and reads only the risk, so every dimension from 2 to 6 takes the same
    path. The search never starts from ``r`` itself, so recovering ``r`` is a
    finding, not an input. All problems search together, but each start keeps
    its own step and stop test, so a row's result does not depend on the
    others. Orders outside [2.2e-308, 24.6], where the score arithmetic
    underflows, are rejected.
    """
    rule = _choice(rule, "scoring rule", _SCORING_RULES)
    alpha = _real(alpha, "score order", MIN_ORDER, _MAX_ORDER)
    rs, back = _one_or_stack(validate_dist(r))
    problems, dim = rs.shape
    if dim > _MAX_VOCAB:
        raise DomainError(f"unsupported size: vocabulary {dim} exceeds {_MAX_VOCAB}")

    restarts = np.random.default_rng(0).dirichlet(np.ones(dim), size=_NUM_RESTARTS)
    starts = np.concatenate([np.full((1, dim), 1.0 / dim), restarts])
    points, risk = _descend(np.broadcast_to(starts, (problems, *starts.shape)), rs, alpha, rule)
    index, best = np.arange(problems), np.argmin(risk, axis=1)
    return back(points[index, best]), back(risk[index, best])


def peak_location(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Argmax of the learning signal W_f(p) = -f'(p) * p * (1 - p) on a grid of _PEAK_POINTS midpoints.

    ``f`` must be a differentiable, nonincreasing scalar loss accepting numpy
    arrays; its derivative is taken by central differences, keeping this
    routine independent of any analytic gate formula.
    """
    p = (np.arange(_PEAK_POINTS, dtype=np.float64) + 0.5) / _PEAK_POINTS
    h = np.minimum(1e-6, 0.5 * np.minimum(p, 1.0 - p))
    slope = (np.asarray(f(p + h), dtype=np.float64) - np.asarray(f(p - h), dtype=np.float64)) / (
        2.0 * h
    )
    signal = -slope * p * (1.0 - p)
    return float(p[int(np.argmax(signal))])


_REGIMES = ("strong", "weak")


def gradient_flow_ordering(regime: str, pair: tuple[ObjectiveKind, ObjectiveKind], seed: int = 0) -> PropertyReport:
    """Check the regime-dependent ordering of initial risk-improvement rates.

    Builds the identity-feature, one-hot-target geometry with _FLOW_CONTEXTS
    contexts and a 10-token vocabulary. In the strong regime the base
    distribution puts 0.9 on the supervised (and true) token; in the weak
    regime the base is uniform and the supervised token differs from the
    true one. The rate difference is computed both from its closed form and
    from explicit inner products of the per-context gradient vectors; the
    report fails if the two routes disagree or the sign does not flip
    between regimes as predicted. Both members must have fixed losses: one
    whose gate reads anything of the prediction (``kind.reads`` above
    ``Reads.NOTHING``) is refused.
    """
    regime, seed = _choice(regime, "regime", _REGIMES), _integer(seed, "seed", 0)
    for kind in pair:
        if kind.reads > Reads.NOTHING:
            raise DomainError(
                f"objective {kind.encode()!r} has a state-dependent gate; "
                "risk-flow ordering is defined for fixed losses only"
            )
    first, second = pair

    vocab, num_contexts = 10, _FLOW_CONTEXTS
    rng = np.random.default_rng(seed)
    y_true = rng.integers(vocab, size=num_contexts)
    if regime == "strong":
        tail = 0.1 * rng.dirichlet(np.ones(vocab - 1), num_contexts)
        base = np.full((num_contexts, vocab), 0.9)
        base[np.arange(vocab) != y_true[:, None]] = tail.ravel()
        y_sup = y_true
    else:
        base = np.full((num_contexts, vocab), 1.0 / vocab)
        y_sup = rng.integers(vocab - 1, size=num_contexts)
        y_sup += y_sup >= y_true
    to_true, to_sup = np.eye(vocab)[y_true] - base, np.eye(vocab)[y_sup] - base
    rows = np.arange(num_contexts)
    p_true, q_sup = base[rows, y_true], base[rows, y_sup]
    # each member's loss slope at the supervised token; static members ignore the state
    d_first, d_second = (_frozen_loss_derivative(kind, base, y_sup) for kind in pair)

    inner = (to_true * to_sup).sum(axis=1)
    delta_formula = float((p_true * q_sup * (d_first - d_second) * inner).mean())

    risk_dir = p_true[:, None] * to_true
    grad_first = (q_sup * d_first)[:, None] * to_sup
    grad_second = (q_sup * d_second)[:, None] * to_sup
    delta_direct = float(((risk_dir * grad_first).sum(axis=1) - (risk_dir * grad_second).sum(axis=1)).mean())
    route_error = abs(delta_formula - delta_direct)

    reference_p = 0.9 if regime == "strong" else 0.1
    reference = np.array([[reference_p, 1.0 - reference_p]])
    ref_first, ref_second = (_frozen_loss_derivative(kind, reference, np.zeros(1, np.intp)) for kind in pair)
    gate_gap = float(ref_first[0] - ref_second[0])
    regime_sign = 1 if regime == "strong" else -1
    expected = 0 if abs(gate_gap) < 1e-15 else regime_sign * (1 if gate_gap > 0 else -1)
    observed = 0 if abs(delta_formula) < 1e-15 else (1 if delta_formula > 0 else -1)

    # a wrong sign is one more error, of 1.0
    return _report(
        f"risk-flow-{regime}-{first.encode()}-vs-{second.encode()}",
        _worst(route_error, float(observed != expected)),
        1e-9,
        detail=(
            f"regime={regime} pair=({first.encode()},{second.encode()}) "
            f"rate_difference={delta_formula:.6e} sign={observed:+d} expected={expected:+d} "
            f"route_disagreement={route_error:.3e}"
        ),
    )


# ----------------------------------------------------------------------------
# Bundled property suite
# ----------------------------------------------------------------------------


def _random_dist(rng: np.random.Generator, size: int, rows: int | None = None) -> np.ndarray:
    """A flat-Dirichlet distribution of ``size`` entries, or a (rows, size) stack of them."""
    return rng.dirichlet(np.ones(size), rows)


def _random_logits(rng: np.random.Generator, size: int, rows: int) -> np.ndarray:
    return rng.normal(0.0, 2.0, (rows, size))


def _draw_by_size(
    rng: np.random.Generator,
    count: int,
    low: int,
    high: int,
    draw: Callable[[np.random.Generator, int, int], np.ndarray],
    target: bool = True,
):
    """Draw ``count`` random rows and yield them as one stack per size, sizes ascending.

    All sizes come first, from one ``rng.integers(low, high, count)``; then,
    for each size drawn ``k`` times, the ``(k, size)`` stack ``draw(rng, size,
    k)`` and, with ``target``, its ``k`` targets ``rng.integers(0, size, k)``.
    Yields one ``(rows, targets)`` pair per size; ``targets`` is empty without
    ``target``.
    """
    counts = np.bincount(rng.integers(low, high, count), minlength=high)
    for size in range(low, high):
        k = int(counts[size])
        if k:
            rows = draw(rng, size, k)
            yield rows, rng.integers(0, size, k) if target else np.empty(0, dtype=np.intp)


def surprisal_linearization_residual(kappa: float) -> float:
    """1 - R^2 of arctanh(mobius(z, kappa)) regressed on log z.

    Zero (to rounding) exactly for the kappa = 1 member, whose arctanh is
    -log(z)/2; every other member of the endpoint-swapping family leaves a
    visible nonlinearity.
    """
    z = np.logspace(-6, math.log10(0.999), 200)
    y = np.arctanh(mobius_alpha(z, kappa))
    x = np.log(z)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return ss_res / ss_tot


def _suite_qlog_reports() -> list[PropertyReport]:
    xs = np.linspace(0.1, 10.0, 100)
    limit = (np.abs(q_log(xs, q) - np.log(xs)) for q in (1.0 - 1e-7, 1.0 + 1e-7))
    reports = [_report("qlog-limit-at-one", _worst(*limit), 1e-5)]

    h = 1e-6
    xs = np.linspace(0.2, 5.0, 25)
    slope = []
    for q in (-0.5, 0.0, 0.3, 0.7, 1.5, 2.0):
        fd = (q_log(xs + h, q) - q_log(xs - h, q)) / (2.0 * h)
        exact = xs ** (-q)
        slope.append(np.abs(fd - exact) / np.abs(exact))
    reports.append(_report("qlog-derivative", _worst(*slope), 1e-6))
    return reports


def _suite_deformed_loss_report() -> PropertyReport:
    ps = np.linspace(1e-6, 1.0, 400)
    rises = (np.diff(deformed_loss(ps, alpha)) for alpha in (0.0, 1e-9, 0.25, 0.5, 1.0, 2.0))  # must be <= 0
    # L_a(p) = -log p - a log^2 p / 2 + a^2 |log p|^3 / 6 + ...: past the second
    # order the gap is at most 1.7e-13 here, so a log-loss switch would show
    p = np.array([0.01, 0.3, 0.9])
    a = np.array([[1e-9], [1e-7]])
    continuity = np.abs(deformed_loss(p, a) + np.log(p) + a * np.log(p) ** 2 / 2.0)
    return _report("deformed-loss-monotone-and-continuous-at-zero", _worst(*rises, continuity), 1e-12)


def _suite_concentration_reports(rng: np.random.Generator) -> list[PropertyReport]:
    out_of_range, renyi = [], []
    for dists, _ in _draw_by_size(rng, 10_000, 2, 65, _random_dist, target=False):
        c = concentration(dists)
        out_of_range += [1.0 / dists.shape[1] - c, c - 1.0]
        # exp(-H2) with H2 = -log c
        renyi.append(np.abs(c - np.exp(np.log(c))))
    for size in (2, 7, 33):
        uniform = np.full(size, 1.0 / size)
        onehot = np.zeros(size)
        onehot[0] = 1.0
        out_of_range += [abs(concentration(uniform) - 1.0 / size), abs(concentration(onehot) - 1.0)]
    return [
        _report("concentration-range", _worst(*out_of_range, 0.0), 1e-12),
        _report("concentration-equals-collision-exponential", _worst(*renyi), 1e-12),
    ]


def _suite_mobius_reports(cayley_kappa: float) -> list[PropertyReport]:
    zs = np.linspace(0.0, 1.0, 257)
    involution = (np.abs(mobius_alpha(mobius_alpha(zs, kappa), kappa) - zs) for kappa in (0.0, 0.5, 1.0, 2.0))
    reports = [_report("mobius-involution", _worst(*involution), 1e-12)]

    ps = np.concatenate([np.logspace(-6, -0.01, 300), np.linspace(0.01, 0.999, 300)])
    arc = np.abs(np.arctanh(cayley_alpha(ps)) - (-0.25 * np.log1p(-ps)))
    reports.append(_report("cayley-arctanh-identity", _worst(arc), 1e-9))

    # leading-order expansions: (p/4 + O(p^2)) at the open end with constant
    # <= 1, (1 - 2 sqrt(1-p) + O(1-p)) at the sharp end with constant <= 2
    low = np.logspace(-8, -3, 50)
    low_gap = np.abs(cayley_alpha(low) - low / 4.0) / low**2
    high = 1.0 - np.logspace(-8, math.log10(1e-3), 50)
    high_gap = np.abs(cayley_alpha(high) - (1.0 - 2.0 * np.sqrt(1.0 - high))) / (1.0 - high)
    reports.append(_report("cayley-asymptotics", _worst(low_gap, high_gap / 2.0), 1.0))

    selected = surprisal_linearization_residual(cayley_kappa)
    rejected = np.min([surprisal_linearization_residual(k) for k in (0.0, 2.0) if abs(k - cayley_kappa) > 1e-12])
    # the selected map must linearize; a rejected kappa that does not visibly fail is an error of 1.0
    reports.append(
        _report(
            "cayley-surprisal-linearization",
            _worst(selected, float(not rejected > 1e-6)),
            1e-10,
            detail=f"kappa={cayley_kappa:g} residual={selected:.3e} alt_residual={rejected:.3e}",
        )
    )
    return reports


def _suite_gradient_reports(rng: np.random.Generator, fd_rel_tol: float) -> list[PropertyReport]:
    kinds = default_kinds()
    sums = [
        np.abs(logit_gradient(kind, logits, targets).sum(axis=1))
        for logits, targets in _draw_by_size(rng, 1000, 2, 33, _random_logits)
        for kind in kinds
    ]
    reports = [_report("gradient-sum-zero", _worst(*sums), 1e-12)]

    # fd_gradient differences the frozen loss without its constant term, so its
    # rounding error stays a relative ~eps / 2h even where p, and with it the
    # gradient, is tiny; steeper gates are covered by the exact jacobian-chain
    # check
    static = [kind for kind in kinds + [fixed_alpha(1.0)] if kind.reads == Reads.NOTHING]
    dynamic = [kind for kind in kinds + [fixed_alpha(1.0)] if kind.reads > Reads.NOTHING]
    for label, group in (("static", static), ("dynamic", dynamic)):
        errors = []
        for logits, targets in _draw_by_size(rng, 200, 2, 33, _random_logits):
            P0, nudged = softmax(logits), _nudged_target_probs(logits, targets)
            for kind in group:
                analytic = logit_gradient(kind, logits, targets)
                numeric = _fd_difference(kind, P0, targets, *nudged)
                scale = np.maximum(np.abs(analytic).max(axis=1), 1e-300)
                errors.append(np.abs(analytic - numeric).max(axis=1) / scale)
        reports.append(_report(f"fd-gradient-{label}", _worst(*errors), fd_rel_tol))
    return reports


def _suite_gate_reports(rng: np.random.Generator) -> list[PropertyReport]:
    order = []
    for dists, targets in _draw_by_size(rng, 2000, 2, 33, _random_dist):
        lin, dft, nll = (gate(kind, dists, targets).gate for kind in (LINEAR, DEFT, NLL))
        order += [lin - dft, dft - nll]
    reports = [_report("gate-ordering-linear-deft-nll", _worst(*order, 0.0), 1e-12)]

    ps = np.linspace(0.01, 0.99, 60)
    alphas = np.linspace(0.0, 3.0, 40)
    gates = ps[None, :] ** alphas[:, None]
    reports.append(_report("gate-monotone-in-alpha", _worst(np.diff(gates, axis=0)), 1e-15))

    # confidently misaligned states, one per row: a non-target spike holds mass 0.9
    spike = 0.9
    vocab = 16
    p = np.linspace(1e-6, 1.0 - spike - 1e-6, 500)
    dists = np.empty((p.size, vocab))
    dists[:] = ((1.0 - spike - p) / (vocab - 2))[:, None]
    dists[:, 0] = p
    dists[:, 1] = spike
    signal = gate(DEFT, dists, np.zeros(p.size, dtype=np.intp)).signal
    bound = p ** ((1.0 - 0.1) ** 2) * (1.0 - p)
    cayley_floor = 0.999 - gate(CAYLEY, np.array([1e-6, 1.0 - 1e-6]), 0).signal
    reports.append(_report("conflict-suppression", _worst(signal - bound, cayley_floor, 0.0), 1e-12))

    decomposition = []
    for dists, targets in _draw_by_size(rng, 10_000, 2, 65, _random_dist):
        dists = validate_dist(dists)
        size = dists.shape[1]
        on_target = np.arange(size) == targets[:, None]
        p = dists[on_target]
        keep = p < 1.0 - 1e-12
        dists, on_target, p = dists[keep], on_target[keep], p[keep]
        a = focus_per_row(DEFT, dists, targets[keep])
        tail = dists[~on_target].reshape(-1, size - 1) / (1.0 - p)[:, None]
        p2, q2 = p**2, (1.0 - p) ** 2
        identity_gap = np.abs(a - (p2 + q2 * (tail * tail).sum(axis=1)))
        lower = p2 + q2 / (size - 1)
        upper = p2 + q2
        decomposition += [identity_gap, lower - a, a - upper]
    reports.append(_report("focus-decomposition-bounds", _worst(*decomposition, 0.0), 1e-12))
    return reports


def _suite_jacobian_report(rng: np.random.Generator) -> PropertyReport:
    gaps = []
    for logits, targets in _draw_by_size(rng, 200, 2, 17, _random_logits):
        P0 = softmax(logits)
        # row ``target`` of each Jacobian: P_t * (delta_tj - P_j)
        jac = softmax_jacobian(logits)[np.arange(targets.size), targets]
        for kind in default_kinds():
            chain = _frozen_loss_derivative(kind, P0, targets)[:, None] * jac
            gaps.append(np.abs(logit_gradient(kind, logits, targets) - chain))
    return _report("jacobian-chain-consistency", _worst(*gaps), 1e-10)


def _suite_duality_reports(rng: np.random.Generator) -> list[PropertyReport]:
    # each size is one search from the uniform start alone, with one order per problem: at orders
    # <= 1 both rules give a convex risk in q (q^a is concave, q^(1+a) convex), so restarts cannot do better
    truths = [_random_dist(rng, 2 + index % 2) for index in range(50)]
    orders = (0.25, 0.5, 1.0)
    risk_gaps, minimizer_gaps = [], []
    for size in (2, 3):
        rs = np.array(truths[size - 2 :: 2])
        stacked = np.tile(rs, (len(orders), 1))
        starts = np.full((len(stacked), 1, size), 1.0 / size)
        minimizers, risks = _descend(starts, stacked, np.repeat(orders, len(rs)), RULE_PROPER)
        entropy = np.concatenate([tsallis_entropy(rs, 1.0 + alpha) for alpha in orders])
        risk_gaps.append(np.abs(risks[:, 0] - entropy))
        minimizer_gaps.append(np.abs(minimizers[:, 0] - stacked))
    reports = [
        _report("duality-proper-risk", _worst(*risk_gaps), 1e-12),
        _report("duality-proper-minimizer", _worst(*minimizer_gaps), 1e-6),
    ]

    r = np.array([0.8, 0.2])
    minimizer = _descend(np.full((1, 1, 2), 0.5), r[None, :], 0.5, RULE_MAIN)[0][0, 0]
    distance = float(np.abs(minimizer - r).max())
    # the realized-token-only rule must NOT recover r: its minimizer tilts
    # toward the escort distribution
    reports.append(
        _report(
            "main-rule-escort-shift",
            _worst(0.05 - distance, 0.0),
            0.0,
            detail=f"minimizer={minimizer.round(6).tolist()} distance={distance:.4f}",
        )
    )
    return reports


def _suite_index_relation_report(rng: np.random.Generator) -> PropertyReport:
    gaps = []
    ps = np.linspace(0.01, 1.0, 50)
    for alpha in (0.25, 0.5, 1.0):
        gaps.append(np.abs(deformed_loss(ps, alpha) - (-q_log(ps, 1.0 - alpha))))
        for rs, _ in _draw_by_size(rng, 20, 2, 6, _random_dist, target=False):
            gaps.append(np.abs(expected_score(rs, rs, alpha, RULE_PROPER) - tsallis_entropy(rs, 1.0 + alpha)))
    return _report("loss-entropy-index-relation", _worst(*gaps), 1e-12)


def _suite_gate_limit_report() -> PropertyReport:
    ps = np.array([1e-3, 1e-6, 1e-9])
    values = cayley_alpha(ps) * np.abs(np.log(ps))
    # each thousandfold step toward p = 0 must shrink alpha*|log p| at least tenfold
    return _report(
        "gate-open-limit",
        _worst(values[1:] - values[:-1] / 10.0, 0.0),
        0.0,
        detail=f"alpha*|log p| at 1e-3,1e-6,1e-9: {[f'{v:.3e}' for v in values]}",
    )


def _suite_flow_reports() -> list[PropertyReport]:
    return [
        gradient_flow_ordering("strong", (LINEAR, NLL), seed=11),
        gradient_flow_ordering("weak", (LINEAR, NLL), seed=11),
    ]


def _suite_peak_reports() -> list[PropertyReport]:
    convex = (peak_location(f) - (0.5 + 1e-3) for f in (lambda p: -np.log(p), lambda p: 1.0 - p))
    concave = peak_location(lambda p: (1.0 - p**2) / 2.0)
    concave_err = _worst(0.5 - 1e-3 - concave, abs(concave - 2.0 / 3.0) - 1e-3, 0.0)
    return [
        _report("signal-peak-convex", _worst(*convex, 0.0), 0.0),
        _report("signal-peak-concave", concave_err, 0.0, detail=f"argmax={concave:.4f}"),
    ]


def _suite_landscape_reports(rng: np.random.Generator) -> list[PropertyReport]:
    p_grid = np.linspace(0.1, 0.9, 5)
    h_grid = np.linspace(0.2, math.log(8.0), 5)
    grid = gradient_landscape(NLL, p_grid, h_grid, 8)
    cells = grid.cells
    finite = np.isfinite(cells)
    # The grid gates each NLL cell as the mixing-weight-0 member of its p row, so
    # the reference gates the rows realized at each cell's own entropy instead.
    row, col = np.nonzero(finite)
    dists = construct_distribution(p_grid[row], h_grid[col], 8)
    signal = gate(NLL, dists, np.zeros(row.size, dtype=np.intp)).signal
    reference = np.full(cells.shape, np.nan)
    reference[row, col] = signal / signal.max()
    mismatch = np.abs(reference[finite] - cells[finite])
    # a row with no finite cell spreads -inf - inf = -inf
    spread = reference.max(axis=1, where=finite, initial=-np.inf) - reference.min(axis=1, where=finite, initial=np.inf)
    # normalized to a largest cell of 1 with none negative, as the reference, and flat along each row
    independence = _worst(abs(cells[finite].max() - 1.0), -cells[finite].min(), mismatch, spread, 0.0)
    reports = [_report("landscape-nll-entropy-independent", independence, 1e-9)]

    # rng.uniform(low, high) is low + (high - low) * rng.random() bit for bit, so
    # the pairs can be drawn before their entropy intervals are known
    draws = rng.random((50, 2))
    p, fraction = 0.05 + (0.95 - 0.05) * draws[:, 0], draws[:, 1]
    low, high = feasible_entropy_range(p, 8)
    target_h = low + (high - low) * fraction
    dists = validate_dist(construct_distribution(p, target_h, 8))
    entropy = -(dists * np.log(np.where(dists > 0.0, dists, 1.0))).sum(axis=1)
    realization = _worst(np.abs(entropy - target_h), np.abs(dists[:, 0] - p))
    reports.append(_report("landscape-distribution-realization", realization, 1e-6))
    return reports


def run_property_suite(
    seed: int,
    *,
    cayley_kappa: float = 1.0,
    fd_rel_tol: float = 1e-6,
    timings: dict[str, float] | None = None,
) -> list[PropertyReport]:
    """Run every bundled numerical property check, deterministically.

    ``cayley_kappa`` (finite, > -1) substitutes a different member of the
    endpoint-swapping map family into the linearization check (any value
    other than 1 must make that report fail); ``fd_rel_tol`` (finite, >= 0)
    overrides the finite-difference tolerance. A failed check is reported,
    not raised. A sub-suite that raises, which means a fault in the library
    its checks call, gives one failing report ``suite-<name>-raised`` in
    place of its own, naming the exception. Reports are returned sorted by
    name. A ``timings`` dict receives the wall seconds of each sub-suite, by
    name in the order they ran.
    """
    seed, fd_rel_tol = _integer(seed, "seed", 0), _real(fd_rel_tol, "fd_rel_tol", 0)
    cayley_kappa = _real(cayley_kappa, "cayley_kappa", -1, closed="neither")  # mobius_alpha's interval
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(7)]
    suites: dict[str, Callable[[], list[PropertyReport]]] = {
        "qlog": _suite_qlog_reports,
        "deformed-loss": lambda: [_suite_deformed_loss_report()],
        "concentration": lambda: _suite_concentration_reports(rngs[0]),
        "mobius": lambda: _suite_mobius_reports(cayley_kappa),
        "gradient": lambda: _suite_gradient_reports(rngs[1], fd_rel_tol),
        "gate": lambda: _suite_gate_reports(rngs[2]),
        "jacobian": lambda: [_suite_jacobian_report(rngs[3])],
        "duality": lambda: _suite_duality_reports(rngs[4]),
        "index-relation": lambda: [_suite_index_relation_report(rngs[5])],
        "gate-limit": lambda: [_suite_gate_limit_report()],
        "flow": _suite_flow_reports,
        "peak": _suite_peak_reports,
        "landscape": lambda: _suite_landscape_reports(rngs[6]),
    }
    reports: list[PropertyReport] = []
    for name, suite in suites.items():
        started = time.perf_counter()
        try:
            reports.extend(suite())
        except Exception as exc:
            # 1.0 against 0, as gradient_flow_ordering marks a wrong sign: finite, so strict JSON
            reports.append(_report(f"suite-{name}-raised", 1.0, 0.0, detail=f"{type(exc).__name__}: {exc}"))
        if timings is not None:
            timings[name] = time.perf_counter() - started
    return sorted(reports, key=lambda rep: rep.name)
