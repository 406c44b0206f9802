"""Independent numerical oracles for the objective family.

Every formal claim the library relies on is recomputed here by a route that
does not share code with the implementation it checks: finite differences
instead of analytic gradients, dense simplex search plus projected descent
instead of closed-form minimizers, and explicit entropy formulas instead of
the loss-side identities. Results are returned as ``PropertyReport`` records
so a single suite run can serve as a CI gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .core_math import (
    ALPHA_SWITCH,
    PROB_FLOOR,
    DomainError,
    cayley_alpha,
    clamp_prob,
    concentration,
    deformed_loss,
    mobius_alpha,
    q_log,
    renyi2_entropy,
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
    ObjectiveKind,
    default_kinds,
    fixed_alpha,
    frozen_state,
    gate,
    logit_gradient,
    softmax,
)

# Scoring-rule variants for the risk-minimization oracle. The "main" rule
# scores only the realized token, S(q, y) = (1 - q(y)^a) / a; the "proper"
# rule adds the normalizing term a * sum q^{1+a} that makes the true
# distribution the unique risk minimizer.
RULE_MAIN = "main"
RULE_PROPER = "proper"
_RULES = (RULE_MAIN, RULE_PROPER)

# Defaults for the risk-minimization oracle.
_GRID_RESOLUTION = 400
_MAX_VOCAB = 6
_NUM_RESTARTS = 16
_PGD_TOL = 1e-8
_PGD_MAX_ITERS = 4000


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one numerical property check.

    ``passed`` holds exactly when ``max_error`` is within the tolerance the
    check was configured with (recorded in ``detail``).
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


def _check_rule(rule: str) -> str:
    if rule not in _RULES:
        raise DomainError(f"unknown scoring rule {rule!r}, expected one of {_RULES}")
    return rule


def softmax_jacobian(z) -> np.ndarray:
    """Jacobian of softmax: J[i, j] = P_i * (delta_ij - P_j).

    Symmetric with zero row sums.
    """
    P = softmax(z)
    return np.diag(P) - np.outer(P, P)


def _frozen_state(kind: ObjectiveKind, P0: np.ndarray, target: int) -> tuple[float, float]:
    """Weight w0 and focus exponent a0 of the token loss, frozen at state P0.

    The frozen loss is w0 * (1 - p^a0) / a0 (-w0 log p below ALPHA_SWITCH),
    the surrogate whose gradient the update rule takes; static members ignore
    P0.
    """
    _, w, a = frozen_state(kind, P0[None, :], np.array([target]))
    return float(w[0]), float(a[0])


def _frozen_loss_derivative(kind: ObjectiveKind, P0: np.ndarray, target: int) -> Callable[[float], float]:
    """d/dp of the frozen-state token loss, -w0 p^(a0 - 1), written apart from the gate."""
    w0, a0 = _frozen_state(kind, P0, target)
    return lambda p: -w0 * p ** (a0 - 1.0)


def fd_gradient(kind: ObjectiveKind, z, target: int, h: float = 1e-5) -> np.ndarray:
    """Central-difference logit gradient of the frozen-state token loss.

    Oracle counterpart of ``objectives.logit_gradient``; the step must lie in
    [1e-8, 1e-3].
    """
    if not (isinstance(h, (int, float)) and 1e-8 <= h <= 1e-3):
        raise DomainError(f"finite-difference step must lie in [1e-8, 1e-3], got {h!r}")
    z = np.asarray(z, dtype=np.float64)
    P0 = softmax(z)
    target = int(target)
    if target < 0 or target >= z.size:
        raise DomainError(f"target index {target} out of range for vocabulary of {z.size}")
    w0, a0 = _frozen_state(kind, P0, target)

    offsets = np.eye(z.size) * h

    def target_probs(logit_rows: np.ndarray) -> np.ndarray:
        shifted = logit_rows - logit_rows.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        return np.maximum(expd[:, target] / expd.sum(axis=1), PROB_FLOOR)

    lower = target_probs(z[None, :] - offsets)
    log_ratio = np.log(target_probs(z[None, :] + offsets) / lower)
    # f(p+) - f(p-) with the loss's constant term cancelled exactly: differencing
    # two values of 1 - p^a0 next to 1 leaves ~eps/2h of absolute noise, which
    # swamps gradients of order p at small p.
    if a0 < ALPHA_SWITCH:
        difference = -w0 * log_ratio
    else:
        difference = -w0 * lower**a0 * np.expm1(a0 * log_ratio) / a0
    if not np.all(np.isfinite(difference)):
        raise DomainError("non-finite loss differences in finite differences")
    return difference / (2.0 * h)


def expected_score(r, phat, alpha: float, rule: str = RULE_PROPER) -> float:
    """Exact expected score of prediction ``phat`` when tokens follow ``r``."""
    rule = _check_rule(rule)
    r = validate_dist(r)
    q = validate_dist(phat)
    if r.size != q.size:
        raise DomainError(f"length mismatch: r has {r.size} entries, phat has {q.size}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"score order must be > 0, got {alpha!r}")
    qa = np.power(q, alpha)
    if rule == RULE_MAIN:
        return float((r * (1.0 - qa)).sum() / alpha)
    return float(1.0 / alpha - ((1.0 + alpha) / alpha) * (r * qa).sum() + np.power(q, 1.0 + alpha).sum())


def _project_simplex(rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n = rows.shape[1]
    sorted_desc = np.sort(rows, axis=1)[:, ::-1]
    cumsums = np.cumsum(sorted_desc, axis=1)
    ks = np.arange(1, n + 1, dtype=np.float64)
    positive = sorted_desc + (1.0 - cumsums) / ks > 0.0
    # index of the last True entry per row
    rho = n - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = (cumsums[np.arange(rows.shape[0]), rho] - 1.0) / (rho + 1.0)
    return np.maximum(rows - theta[:, None], 0.0)


def _risk_rows(rows: np.ndarray, r: np.ndarray, alpha: float, rule: str) -> np.ndarray:
    q = np.maximum(rows, 0.0)
    qa = np.power(q, alpha)
    if rule == RULE_MAIN:
        return ((r[None, :] * (1.0 - qa)).sum(axis=1)) / alpha
    return 1.0 / alpha - ((1.0 + alpha) / alpha) * (r[None, :] * qa).sum(axis=1) + np.power(
        q, 1.0 + alpha
    ).sum(axis=1)


def _risk_grad_rows(rows: np.ndarray, r: np.ndarray, alpha: float, rule: str) -> np.ndarray:
    q = np.maximum(rows, PROB_FLOOR)
    if rule == RULE_MAIN:
        return -r[None, :] * np.power(q, alpha - 1.0)
    return (1.0 + alpha) * (np.power(q, alpha) - r[None, :] * np.power(q, alpha - 1.0))


def _simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All points of the simplex with coordinates at multiples of 1/resolution."""
    if dim == 2:
        t = np.arange(resolution + 1, dtype=np.float64) / resolution
        return np.stack([t, 1.0 - t], axis=1)
    if dim == 3:
        i, j = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
        keep = (i + j) <= resolution
        i = i[keep].astype(np.float64)
        j = j[keep].astype(np.float64)
        return np.stack([i, j, resolution - i - j], axis=1) / resolution
    raise DomainError(f"dense simplex grid only built for dimension <= 3, got {dim}")


def minimize_risk(r, alpha: float, rule: str = RULE_PROPER) -> tuple[np.ndarray, float]:
    """Search oracle for the expected-score minimizer over the simplex.

    Dense grid (resolution 1/400, vocabularies of size <= 3) gives a global
    candidate; projected gradient descent with per-start adaptive steps
    refines it together with 16 random restarts and the uniform start. The
    search never starts from ``r`` itself, so recovering ``r`` is a finding,
    not an input.
    """
    rule = _check_rule(rule)
    r = validate_dist(r)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"score order must be > 0, got {alpha!r}")
    dim = r.size
    if dim > _MAX_VOCAB:
        raise DomainError(f"unsupported size: vocabulary {dim} exceeds {_MAX_VOCAB}")

    rng = np.random.default_rng(0)
    starts = [np.full(dim, 1.0 / dim)]
    if dim <= 3:
        grid = _simplex_grid(dim, _GRID_RESOLUTION)
        grid_risk = _risk_rows(grid, r, alpha, rule)
        starts.append(grid[int(np.argmin(grid_risk))])
    starts.extend(rng.dirichlet(np.ones(dim), size=_NUM_RESTARTS))
    points = np.vstack(starts)

    risk = _risk_rows(points, r, alpha, rule)
    step = np.full(points.shape[0], 0.25)
    stall = 0
    for _ in range(_PGD_MAX_ITERS):
        grad = _risk_grad_rows(points, r, alpha, rule)
        candidate = _project_simplex(points - step[:, None] * grad)
        cand_risk = _risk_rows(candidate, r, alpha, rule)
        improved = cand_risk <= risk
        gain = float(np.max(np.where(improved, risk - cand_risk, 0.0)))
        points[improved] = candidate[improved]
        risk[improved] = cand_risk[improved]
        step[improved] *= 1.2
        step[~improved] *= 0.5
        stall = stall + 1 if gain < _PGD_TOL * 1e-2 else 0
        if stall >= 12 or step.max() < 1e-12:
            break
    best = int(np.argmin(risk))
    return points[best].copy(), float(risk[best])


def peak_location(f: Callable[[np.ndarray], np.ndarray], num_points: int = 10_000) -> float:
    """Grid argmax of the learning signal W_f(p) = -f'(p) * p * (1 - p).

    ``f`` must be a differentiable, nonincreasing scalar loss accepting numpy
    arrays; its derivative is taken by central differences, keeping this
    routine independent of any analytic gate formula.
    """
    p = (np.arange(num_points, dtype=np.float64) + 0.5) / num_points
    h = np.minimum(1e-6, 0.5 * np.minimum(p, 1.0 - p))
    slope = (np.asarray(f(p + h), dtype=np.float64) - np.asarray(f(p - h), dtype=np.float64)) / (
        2.0 * h
    )
    signal = -slope * p * (1.0 - p)
    return float(p[int(np.argmax(signal))])


_REGIMES = ("strong", "weak")


def gradient_flow_ordering(
    regime: str,
    pair: tuple[ObjectiveKind, ObjectiveKind],
    seed: int = 0,
    num_contexts: int = 32,
) -> PropertyReport:
    """Check the regime-dependent ordering of initial risk-improvement rates.

    Builds the identity-feature, one-hot-target geometry with a 10-token
    vocabulary. In the strong regime the base distribution puts 0.9 on the
    supervised (and true) token; in the weak regime the base is uniform and
    the supervised token differs from the true one. The rate difference is
    computed both from its closed form and from explicit inner products of
    the per-context gradient vectors; the report fails if the two routes
    disagree or the sign does not flip between regimes as predicted.
    """
    if regime not in _REGIMES:
        raise DomainError(f"unknown regime {regime!r}, expected one of {_REGIMES}")
    for kind in pair:
        if kind.is_dynamic or kind.name == "eaft":
            raise DomainError(
                f"objective {kind.encode()!r} has a state-dependent gate; "
                "risk-flow ordering is defined for fixed losses only"
            )
    first, second = pair
    # static members ignore the state their loss is frozen at
    d_first, d_second = (_frozen_loss_derivative(kind, np.array([0.5, 0.5]), 0) for kind in pair)

    vocab = 10
    rng = np.random.default_rng(seed)
    formula_total = 0.0
    direct_total = 0.0
    for _ in range(num_contexts):
        if regime == "strong":
            y_true = int(rng.integers(vocab))
            base = np.zeros(vocab)
            base[y_true] = 0.9
            tail = 0.1 * rng.dirichlet(np.ones(vocab - 1))
            base[np.arange(vocab) != y_true] = tail
            y_sup = y_true
        else:
            base = np.full(vocab, 1.0 / vocab)
            y_true = int(rng.integers(vocab))
            y_sup = int(rng.integers(vocab - 1))
            if y_sup >= y_true:
                y_sup += 1
        e_true = np.zeros(vocab)
        e_true[y_true] = 1.0
        e_sup = np.zeros(vocab)
        e_sup[y_sup] = 1.0

        q_sup = float(base[y_sup])
        inner = float((e_true - base) @ (e_sup - base))
        formula_total += float(base[y_true]) * q_sup * (d_first(q_sup) - d_second(q_sup)) * inner

        risk_dir = float(base[y_true]) * (e_true - base)
        grad_first = q_sup * d_first(q_sup) * (e_sup - base)
        grad_second = q_sup * d_second(q_sup) * (e_sup - base)
        direct_total += float(risk_dir @ grad_first) - float(risk_dir @ grad_second)

    delta_formula = formula_total / num_contexts
    delta_direct = direct_total / num_contexts
    route_error = abs(delta_formula - delta_direct)

    reference_p = 0.9 if regime == "strong" else 0.1
    gate_gap = d_first(reference_p) - d_second(reference_p)
    regime_sign = 1 if regime == "strong" else -1
    expected = 0 if abs(gate_gap) < 1e-15 else regime_sign * (1 if gate_gap > 0 else -1)
    observed = 0 if abs(delta_formula) < 1e-15 else (1 if delta_formula > 0 else -1)

    max_error = route_error if observed == expected else max(route_error, 1.0)
    tol = 1e-9
    detail = (
        f"regime={regime} pair=({first.encode()},{second.encode()}) "
        f"rate_difference={delta_formula:.6e} sign={observed:+d} expected={expected:+d} "
        f"route_disagreement={route_error:.3e} tol={tol}"
    )
    return PropertyReport(
        name=f"risk-flow-{regime}-{first.encode()}-vs-{second.encode()}",
        passed=max_error <= tol,
        max_error=max_error,
        detail=detail,
    )


# ----------------------------------------------------------------------------
# Bundled property suite
# ----------------------------------------------------------------------------


def _report(name: str, max_error: float, tol: float, detail: str = "") -> PropertyReport:
    text = f"tol={tol:g}" if not detail else f"{detail} tol={tol:g}"
    return PropertyReport(name=name, passed=bool(max_error <= tol), max_error=float(max_error), detail=text)


def _random_dist(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


def surprisal_linearization_residual(kappa: float) -> float:
    """1 - R^2 of arctanh(mobius(z, kappa)) regressed on log z.

    Zero (to rounding) exactly for the kappa = 1 member, whose arctanh is
    -log(z)/2; every other member of the endpoint-swapping family leaves a
    visible nonlinearity.
    """
    z = np.logspace(-6, math.log10(0.999), 200)
    y = np.arctanh(np.array([mobius_alpha(float(v), kappa) for v in z]))
    x = np.log(z)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return ss_res / ss_tot


def _suite_qlog_reports() -> list[PropertyReport]:
    xs = np.linspace(0.1, 10.0, 100)
    worst_limit = 0.0
    for q in (1.0 - 1e-7, 1.0 + 1e-7):
        worst_limit = max(
            worst_limit, max(abs(q_log(float(x), q) - math.log(x)) for x in xs)
        )
    reports = [_report("qlog-limit-at-one", worst_limit, 1e-5)]

    worst_slope = 0.0
    h = 1e-6
    for q in (-0.5, 0.0, 0.3, 0.7, 1.5, 2.0):
        for x in np.linspace(0.2, 5.0, 25):
            fd = (q_log(float(x + h), q) - q_log(float(x - h), q)) / (2.0 * h)
            exact = float(x) ** (-q)
            worst_slope = max(worst_slope, abs(fd - exact) / abs(exact))
    reports.append(_report("qlog-derivative", worst_slope, 1e-6))
    return reports


def _suite_deformed_loss_report() -> PropertyReport:
    ps = np.linspace(1e-6, 1.0, 400)
    worst = 0.0
    for alpha in (0.0, 1e-9, 0.25, 0.5, 1.0, 2.0):
        values = np.array([deformed_loss(float(p), alpha) for p in ps])
        worst = max(worst, float(np.max(np.diff(values))))  # must be nonincreasing
    continuity = max(
        abs(deformed_loss(float(p), 1e-7) - (-math.log(p))) for p in (0.01, 0.3, 0.9)
    )
    return _report(
        "deformed-loss-monotone-and-continuous-at-zero", max(worst, continuity), 1e-6
    )


def _suite_concentration_reports(rng: np.random.Generator) -> list[PropertyReport]:
    worst_range = 0.0
    worst_renyi = 0.0
    for _ in range(10_000):
        size = int(rng.integers(2, 65))
        dist = _random_dist(rng, size)
        c = concentration(dist)
        worst_range = max(worst_range, (1.0 / size) - c, c - 1.0)
        worst_renyi = max(worst_renyi, abs(c - math.exp(-renyi2_entropy(dist))))
    for size in (2, 7, 33):
        uniform = np.full(size, 1.0 / size)
        worst_range = max(worst_range, abs(concentration(uniform) - 1.0 / size))
        onehot = np.zeros(size)
        onehot[0] = 1.0
        worst_range = max(worst_range, abs(concentration(onehot) - 1.0))
    return [
        _report("concentration-range", worst_range, 1e-12),
        _report("concentration-equals-collision-exponential", worst_renyi, 1e-12),
    ]


def _suite_mobius_reports(cayley_kappa: float) -> list[PropertyReport]:
    zs = np.linspace(0.0, 1.0, 257)
    worst_inv = 0.0
    for kappa in (0.0, 0.5, 1.0, 2.0):
        for z in zs:
            worst_inv = max(worst_inv, abs(mobius_alpha(mobius_alpha(float(z), kappa), kappa) - z))
    reports = [_report("mobius-involution", worst_inv, 1e-12)]

    ps = np.concatenate([np.logspace(-6, -0.01, 300), np.linspace(0.01, 0.999, 300)])
    worst_arc = max(
        abs(math.atanh(cayley_alpha(float(p))) - (-0.25 * math.log1p(-float(p)))) for p in ps
    )
    reports.append(_report("cayley-arctanh-identity", worst_arc, 1e-9))

    # leading-order expansions: (p/4 + O(p^2)) at the open end with constant
    # <= 1, (1 - 2 sqrt(1-p) + O(1-p)) at the sharp end with constant <= 2
    low = np.logspace(-8, -3, 50)
    worst_low = max(abs(cayley_alpha(float(p)) - p / 4.0) / p**2 for p in low)
    high = 1.0 - np.logspace(-8, math.log10(1e-3), 50)
    worst_high = max(
        abs(cayley_alpha(float(p)) - (1.0 - 2.0 * math.sqrt(1.0 - p))) / (1.0 - p) for p in high
    )
    reports.append(_report("cayley-asymptotics", max(worst_low, worst_high / 2.0), 1.0))

    selected = surprisal_linearization_residual(cayley_kappa)
    rejected = min(surprisal_linearization_residual(k) for k in (0.0, 2.0) if abs(k - cayley_kappa) > 1e-12)
    # the selected map must linearize; the rejected kappas must visibly fail
    max_error = selected if rejected > 1e-6 else max(selected, 1.0)
    reports.append(
        _report(
            "cayley-surprisal-linearization",
            max_error,
            1e-10,
            detail=f"kappa={cayley_kappa:g} residual={selected:.3e} alt_residual={rejected:.3e}",
        )
    )
    return reports


def _suite_gradient_reports(rng: np.random.Generator, fd_rel_tol: float) -> list[PropertyReport]:
    kinds = default_kinds(0.5)
    worst_sum = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 33))
        z = rng.normal(0.0, 2.0, size)
        target = int(rng.integers(size))
        for kind in kinds:
            worst_sum = max(worst_sum, abs(float(logit_gradient(kind, z, target).sum())))
    reports = [_report("gradient-sum-zero", worst_sum, 1e-12)]

    # fd_gradient differences the frozen loss without its constant term, so its
    # rounding error stays a relative ~eps / 2h even where p, and with it the
    # gradient, is tiny; steeper gates are covered by the exact jacobian-chain
    # check
    static = [NLL, LINEAR, fixed_alpha(0.5), fixed_alpha(1.0)]
    dynamic = [CAYLEY, DEFT, EAFT]
    for label, group in (("static", static), ("dynamic", dynamic)):
        worst = 0.0
        for _ in range(200):
            size = int(rng.integers(2, 33))
            z = rng.normal(0.0, 2.0, size)
            target = int(rng.integers(size))
            for kind in group:
                analytic = logit_gradient(kind, z, target)
                numeric = fd_gradient(kind, z, target, 1e-5)
                scale = max(float(np.abs(analytic).max()), 1e-300)
                worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
        reports.append(_report(f"fd-gradient-{label}", worst, fd_rel_tol))
    return reports


def _suite_gate_reports(rng: np.random.Generator) -> list[PropertyReport]:
    worst_order = 0.0
    for _ in range(2000):
        size = int(rng.integers(2, 33))
        dist = _random_dist(rng, size)
        target = int(rng.integers(size))
        lin = gate(LINEAR, dist, target).gate
        dft = gate(DEFT, dist, target).gate
        nll = gate(NLL, dist, target).gate
        worst_order = max(worst_order, lin - dft, dft - nll)
    reports = [_report("gate-ordering-linear-deft-nll", worst_order, 1e-12)]

    ps = np.linspace(0.01, 0.99, 60)
    alphas = np.linspace(0.0, 3.0, 40)
    gates = ps[None, :] ** alphas[:, None]
    worst_mono = float(np.max(np.diff(gates, axis=0)))
    reports.append(_report("gate-monotone-in-alpha", worst_mono, 1e-15))

    # confidently misaligned state: a non-target spike holds mass 0.9
    worst_conflict = 0.0
    spike = 0.9
    vocab = 16
    for p in np.linspace(1e-6, 1.0 - spike - 1e-6, 500):
        dist = np.full(vocab, (1.0 - spike - p) / (vocab - 2))
        dist[0] = p
        dist[1] = spike
        signal = gate(DEFT, dist, 0).signal
        bound = p ** ((1.0 - 0.1) ** 2) * (1.0 - p)
        worst_conflict = max(worst_conflict, signal - bound)
    cayley_floor = 0.999 - gate(CAYLEY, np.array([1e-6, 1.0 - 1e-6]), 0).signal
    reports.append(
        _report("conflict-suppression", max(worst_conflict, cayley_floor, 0.0), 1e-12)
    )

    worst_decomp = 0.0
    for _ in range(10_000):
        size = int(rng.integers(2, 65))
        dist = _random_dist(rng, size)
        target = int(rng.integers(size))
        p = float(dist[target])
        if p >= 1.0 - 1e-12:
            continue
        a = concentration(dist)
        tail = dist[np.arange(size) != target] / (1.0 - p)
        identity_gap = abs(a - (p**2 + (1.0 - p) ** 2 * float((tail * tail).sum())))
        lower = p**2 + (1.0 - p) ** 2 / (size - 1)
        upper = p**2 + (1.0 - p) ** 2
        worst_decomp = max(worst_decomp, identity_gap, lower - a, a - upper)
    reports.append(_report("focus-decomposition-bounds", worst_decomp, 1e-12))
    return reports


def _suite_jacobian_report(rng: np.random.Generator) -> PropertyReport:
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 17))
        z = rng.normal(0.0, 2.0, size)
        target = int(rng.integers(size))
        P0 = softmax(z)
        jac = softmax_jacobian(z)
        for kind in default_kinds(0.5):
            fprime = _frozen_loss_derivative(kind, P0, target)(clamp_prob(float(P0[target])))
            chain = fprime * jac[target]
            analytic = logit_gradient(kind, z, target)
            worst = max(worst, float(np.abs(analytic - chain).max()))
    return _report("jacobian-chain-consistency", worst, 1e-10)


def _suite_duality_reports(rng: np.random.Generator) -> list[PropertyReport]:
    worst_risk = 0.0
    worst_min = 0.0
    for index in range(50):
        size = 2 + index % 2
        r = _random_dist(rng, size)
        for alpha in (0.25, 0.5, 1.0):
            minimizer, risk = minimize_risk(r, alpha, RULE_PROPER)
            worst_risk = max(worst_risk, abs(risk - tsallis_entropy(r, 1.0 + alpha)))
            worst_min = max(worst_min, float(np.abs(minimizer - r).max()))
    reports = [
        _report("duality-proper-risk", worst_risk, 1e-3),
        _report("duality-proper-minimizer", worst_min, 1e-2),
    ]

    r = np.array([0.8, 0.2])
    minimizer, _ = minimize_risk(r, 0.5, RULE_MAIN)
    distance = float(np.abs(minimizer - r).max())
    # the realized-token-only rule must NOT recover r: its minimizer tilts
    # toward the escort distribution
    reports.append(
        _report(
            "main-rule-escort-shift",
            max(0.0, 0.05 - distance),
            0.0,
            detail=f"minimizer={minimizer.round(6).tolist()} distance={distance:.4f}",
        )
    )
    return reports


def _suite_index_relation_report(rng: np.random.Generator) -> PropertyReport:
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0):
        for p in np.linspace(0.01, 1.0, 50):
            worst = max(worst, abs(deformed_loss(float(p), alpha) - (-q_log(float(p), 1.0 - alpha))))
        for _ in range(20):
            size = int(rng.integers(2, 6))
            r = _random_dist(rng, size)
            worst = max(
                worst,
                abs(expected_score(r, r, alpha, RULE_PROPER) - tsallis_entropy(r, 1.0 + alpha)),
            )
    return _report("loss-entropy-index-relation", worst, 1e-12)


def _suite_gate_limit_report() -> PropertyReport:
    values = [cayley_alpha(p) * abs(math.log(p)) for p in (1e-3, 1e-6, 1e-9)]
    worst = 0.0
    for previous, current in zip(values, values[1:]):
        worst = max(worst, current - previous / 10.0)
    return _report(
        "gate-open-limit",
        max(worst, 0.0),
        0.0,
        detail=f"alpha*|log p| at 1e-3,1e-6,1e-9: {[f'{v:.3e}' for v in values]}",
    )


def _suite_flow_reports() -> list[PropertyReport]:
    return [
        gradient_flow_ordering("strong", (LINEAR, NLL), seed=11),
        gradient_flow_ordering("weak", (LINEAR, NLL), seed=11),
    ]


def _suite_peak_reports() -> list[PropertyReport]:
    convex_worst = 0.0
    for f in (lambda p: -np.log(p), lambda p: 1.0 - p):
        convex_worst = max(convex_worst, peak_location(f) - (0.5 + 1e-3))
    concave = peak_location(lambda p: (1.0 - p**2) / 2.0)
    concave_err = max(0.5 - 1e-3 - concave, abs(concave - 2.0 / 3.0) - 1e-3)
    return [
        _report("signal-peak-convex", max(convex_worst, 0.0), 0.0),
        _report("signal-peak-concave", max(concave_err, 0.0), 0.0, detail=f"argmax={concave:.4f}"),
    ]


def _suite_landscape_reports(rng: np.random.Generator) -> list[PropertyReport]:
    from .landscape import construct_distribution, feasible_entropy_range, gradient_landscape

    p_grid = np.linspace(0.1, 0.9, 5)
    h_grid = np.linspace(0.2, math.log(8.0), 5)
    grid = gradient_landscape(NLL, p_grid, h_grid, 8)
    cells = grid.cells
    finite = cells[np.isfinite(cells)]
    norm_err = max(abs(float(finite.max()) - 1.0), max(0.0, -float(finite.min())))
    row_spread = 0.0
    for row in cells:
        vals = row[np.isfinite(row)]
        if vals.size:
            row_spread = max(row_spread, float(vals.max() - vals.min()))
    reports = [_report("landscape-nll-entropy-independent", max(norm_err, row_spread), 1e-9)]

    worst_entropy = 0.0
    for _ in range(50):
        p = float(rng.uniform(0.05, 0.95))
        low, high = feasible_entropy_range(p, 8)
        target_h = float(rng.uniform(low, high))
        dist = construct_distribution(p, target_h, 8)
        validate_dist(dist)
        worst_entropy = max(
            worst_entropy, abs(shannon_entropy(dist) - target_h), abs(float(dist[0]) - p)
        )
    reports.append(_report("landscape-distribution-realization", worst_entropy, 1e-6))
    return reports


def run_property_suite(
    seed: int,
    *,
    cayley_kappa: float = 1.0,
    fd_rel_tol: float = 1e-6,
) -> list[PropertyReport]:
    """Run every bundled numerical property check, deterministically.

    ``cayley_kappa`` substitutes a different member of the endpoint-swapping
    map family into the linearization check (any value other than 1 must make
    that report fail); ``fd_rel_tol`` overrides the finite-difference
    tolerance. Failures are reported, never raised. Reports are returned
    sorted by name.
    """
    children = np.random.SeedSequence(seed).spawn(8)
    rngs = [np.random.default_rng(c) for c in children]

    reports: list[PropertyReport] = []
    reports.extend(_suite_qlog_reports())
    reports.append(_suite_deformed_loss_report())
    reports.extend(_suite_concentration_reports(rngs[0]))
    reports.extend(_suite_mobius_reports(cayley_kappa))
    reports.extend(_suite_gradient_reports(rngs[1], fd_rel_tol))
    reports.extend(_suite_gate_reports(rngs[2]))
    reports.append(_suite_jacobian_report(rngs[3]))
    reports.extend(_suite_duality_reports(rngs[4]))
    reports.append(_suite_index_relation_report(rngs[5]))
    reports.append(_suite_gate_limit_report())
    reports.extend(_suite_flow_reports())
    reports.extend(_suite_peak_reports())
    reports.extend(_suite_landscape_reports(rngs[6]))
    return sorted(reports, key=lambda rep: rep.name)
