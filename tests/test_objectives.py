"""Objective-family checks: encodings, gates, losses, and exact gradients."""

import dataclasses
import math
import re
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trustgate import (
    CAYLEY,
    DEFT,
    EAFT,
    LINEAR,
    NLL,
    DomainError,
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
from trustgate.core_math import (
    PROB_FLOOR, cayley_alpha, clamp_prob, concentration, deformed_loss, shannon_entropy, tsallis_entropy
)
from trustgate import landscape, objectives
from trustgate.landscape import gradient_landscape
from trustgate.objectives import Reads, focus_per_row, frozen_state, gate_error_into, loss_per_row
from trustgate.verification import fd_gradient, gradient_flow_ordering


class TestEncoding:
    @pytest.mark.parametrize(
        "text", ["nll", "linear", "alpha:0.5", "alpha:2.0", "cayley", "deft", "eaft", "exponents"]
    )
    def test_round_trip(self, text):
        """An exponent given as an int or a numpy float is stored as the float it equals, and encodes as one."""
        kinds = [ObjectiveKind.parse(text)] if text != "exponents" else [
            ObjectiveKind("alpha", exponent) for exponent in (0.5, np.float64(0.5), np.float32(0.5), 1, 1.0)
        ]
        for kind in kinds:
            assert ObjectiveKind.parse(kind.encode()) == kind
            assert kind.alpha is None or type(kind.alpha) is float
        if text == "exponents":
            assert [kind.encode() for kind in kinds] == ["alpha:0.5"] * 3 + ["alpha:1.0"] * 2
            assert fixed_alpha(np.float64(0.5)) == kinds[0]

    def test_fixed_exponent_must_be_positive(self):
        with pytest.raises(DomainError):
            ObjectiveKind.parse("alpha:0")
        with pytest.raises(DomainError):
            ObjectiveKind.parse("alpha:-1")
        for flag in (True, np.True_):
            with pytest.raises(DomainError, match=f"^fixed exponent alpha must be a number, got {flag!r}$"):
                fixed_alpha(flag)

    @pytest.mark.parametrize("text", ["alpha:1e-320", "alpha:2e-308", "alpha:inf", "alpha:nan"])
    def test_fixed_exponent_must_be_a_finite_normal_float(self, text):
        """A subnormal exponent keeps too few bits for the loss -expm1(a log p) / a."""
        message = f"fixed exponent alpha must be finite and >= 2.2250738585072014e-308, got {text[6:]}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ObjectiveKind.parse(text)

    def test_smallest_fixed_exponent_gives_the_log_loss(self):
        kind = fixed_alpha(sys.float_info.min)
        assert loss(kind, [0.1, 0.9], 0) == pytest.approx(-math.log(0.1), rel=1e-15)
        assert gate(kind, [0.1, 0.9], 0).gate == 1.0

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            ObjectiveKind.parse("focal")
        with pytest.raises(DomainError, match="^objective encoding must be a string, got None$"):
            ObjectiveKind.parse(None)

    def test_static_members_take_no_exponent(self):
        with pytest.raises(DomainError):
            ObjectiveKind("nll", 0.5)

    def test_dynamic_flag(self):
        assert CAYLEY.is_dynamic and DEFT.is_dynamic
        assert not (NLL.is_dynamic or LINEAR.is_dynamic or fixed_alpha(0.5).is_dynamic or EAFT.is_dynamic)


class TestFocusIndex:
    def test_log_loss_is_zero_exponent(self):
        assert focus_index(NLL, [0.25, 0.75], 0) == 0.0

    def test_collision_index_uniform_four(self):
        assert focus_index(DEFT, [0.25] * 4, 0) == pytest.approx(0.25, abs=1e-15)

    def test_cayley_index_from_target_probability(self):
        dist = [0.75, 0.15, 0.10]
        assert focus_index(CAYLEY, dist, 0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_fixed_exponent_passthrough(self):
        assert focus_index(fixed_alpha(0.7), [0.5, 0.5], 1) == 0.7

    def test_target_out_of_range(self):
        with pytest.raises(DomainError):
            focus_index(NLL, [0.5, 0.5], 2)


# Each function of one prediction and one target index; the prediction is read
# as a distribution by the first three and as logits by the last two.
TARGET_CALLS = [gate, loss, focus_index, logit_gradient, fd_gradient]


def _as_array(result):
    return np.asarray(dataclasses.astuple(result) if isinstance(result, GateError) else result)


class TestTargetIndices:
    @pytest.mark.parametrize("call", TARGET_CALLS, ids=lambda call: call.__name__)
    @pytest.mark.parametrize("target", [1.7, 0.9, True], ids=["1.7", "0.9", "True"])
    def test_non_integer_target_refused(self, call, target):
        """A float or bool index is named, not truncated to an integer."""
        with pytest.raises(DomainError, match=re.escape(f"target indices must be integers, got {target!r}")):
            call(CAYLEY, [0.2, 0.3, 0.5], target)

    @pytest.mark.parametrize("call", TARGET_CALLS, ids=lambda call: call.__name__)
    @pytest.mark.parametrize("target", [1, np.int64(1)], ids=["int", "int64"])
    def test_integer_target_accepted(self, call, target):
        result = _as_array(call(CAYLEY, [0.2, 0.3, 0.5], target))
        # index 1 itself, not a neighbour
        assert not np.array_equal(result, _as_array(call(CAYLEY, [0.2, 0.3, 0.5], 0)))
        assert not np.array_equal(result, _as_array(call(CAYLEY, [0.2, 0.3, 0.5], 2)))

    @pytest.mark.parametrize("call", TARGET_CALLS, ids=lambda call: call.__name__)
    @pytest.mark.parametrize("targets", [[1, True, 2], (1, np.True_, 2)], ids=["list", "tuple"])
    def test_bool_among_integer_targets_refused(self, call, targets):
        """NumPy reads the bool in a sequence of ints as 1; it is named instead."""
        with pytest.raises(DomainError, match=re.escape("target indices must be integers, got True")):
            call(CAYLEY, [[0.2, 0.3, 0.5]] * 3, targets)


class TestGate:
    def test_log_loss_gate_is_open(self):
        result = gate(NLL, [0.3, 0.7], 0)
        assert result.gate == 1.0
        assert result.error == pytest.approx(0.7, abs=1e-12)
        assert result.signal == pytest.approx(0.7, abs=1e-12)

    def test_collision_gate_uniform_pair(self):
        result = gate(DEFT, [0.5, 0.5], 0)
        assert result.gate == pytest.approx(0.5**0.5, abs=1e-12)
        assert result.signal == pytest.approx(0.5**1.5, abs=1e-6)

    def test_cayley_gate_stays_open_at_tiny_probability(self):
        dist = np.array([1e-6, 1.0 - 1e-6])
        assert gate(CAYLEY, dist, 0).gate >= 0.999

    def test_signal_is_gate_times_error(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            dist = rng.dirichlet(np.ones(int(rng.integers(2, 16))))
            target = int(rng.integers(dist.size))
            for kind in default_kinds():
                result = gate(kind, dist, target)
                assert result.signal == pytest.approx(result.gate * result.error, abs=1e-12)
                assert result.gate >= 0.0
                assert 0.0 <= result.error < 1.0

    def test_ordering_linear_below_collision_below_open(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            dist = rng.dirichlet(np.ones(int(rng.integers(2, 33))))
            target = int(rng.integers(dist.size))
            lin = gate(LINEAR, dist, target).gate
            dft = gate(DEFT, dist, target).gate
            assert lin <= dft + 1e-12
            assert dft <= 1.0 + 1e-12

    def test_gate_nonincreasing_in_exponent(self):
        ps = np.linspace(0.01, 0.99, 50)
        alphas = np.linspace(0.0, 4.0, 60)
        for p in ps:
            gates = p**alphas
            assert np.all(np.diff(gates) <= 1e-15)

    def test_entropy_weight_gate(self):
        dist = np.array([0.25] * 4)
        assert gate(EAFT, dist, 0).gate == pytest.approx(1.0, abs=1e-12)
        onehotish = np.array([1.0 - 3e-12, 1e-12, 1e-12, 1e-12])
        assert gate(EAFT, onehotish, 0).gate == pytest.approx(0.0, abs=1e-9)

    def test_entropy_weight_never_exceeds_one(self):
        """A uniform row's entropy can round one ulp above log V; the weight stays at 1."""
        for vocab in range(2, 257):
            assert gate(EAFT, softmax(np.zeros(vocab)), 0).gate <= 1.0


class TestLoss:
    def test_linear_member(self):
        assert loss(LINEAR, [0.3, 0.7], 0) == pytest.approx(0.7, abs=1e-12)

    def test_perfect_prediction_is_zero(self):
        assert loss(NLL, [1.0, 0.0], 0) == 0.0

    def test_collision_member_uniform_pair(self):
        expected = (1.0 - 0.5**0.5) / 0.5
        assert loss(DEFT, [0.5, 0.5], 0) == pytest.approx(expected, abs=1e-9)

    def test_entropy_weighted_log_loss(self):
        dist = np.array([0.1, 0.3, 0.6])
        from trustgate import shannon_entropy

        expected = shannon_entropy(dist) / math.log(3) * -math.log(0.1)
        assert loss(EAFT, dist, 0) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dist = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
            target = int(rng.integers(dist.size))
            for kind in default_kinds():
                assert loss(kind, dist, target) >= 0.0


class TestLogitGradient:
    def test_log_loss_symmetric_pair(self):
        npt.assert_allclose(logit_gradient(NLL, [0.0, 0.0], 0), [-0.5, 0.5], atol=1e-12)

    def test_linear_member_symmetric_pair(self):
        npt.assert_allclose(logit_gradient(LINEAR, [0.0, 0.0], 0), [-0.25, 0.25], atol=1e-12)

    def test_collision_member_symmetric_pair(self):
        grad = logit_gradient(DEFT, [0.0, 0.0], 0)
        npt.assert_allclose(grad, [-(0.5**1.5), 0.5**1.5], atol=1e-12)
        numeric = fd_gradient(DEFT, [0.0, 0.0], 0)
        npt.assert_allclose(grad, numeric, atol=1e-6)

    def test_rejects_nonfinite_logits(self):
        with pytest.raises(DomainError):
            logit_gradient(NLL, [0.0, float("inf")], 0)

    def test_sums_to_zero_and_target_nonpositive(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            size = int(rng.integers(2, 33))
            z = rng.normal(0.0, 2.0, size)
            target = int(rng.integers(size))
            for kind in default_kinds():
                grad = logit_gradient(kind, z, target)
                assert abs(float(grad.sum())) <= 1e-12
                assert grad[target] <= 0.0

    def test_one_hot_wrong_target_stays_bounded(self):
        """A maximally confident wrong prediction keeps a bounded update."""
        z = np.array([60.0, 0.0])
        for kind in default_kinds():
            grad = logit_gradient(kind, z, 1)
            assert np.all(np.isfinite(grad))
            assert float(np.abs(grad).max()) <= 1.0 + 1e-12


class TestConflictSuppression:
    def test_collision_signal_bounded_under_misaligned_spike(self):
        """With a non-target spike of mass 0.9 the signal obeys p^0.81 (1-p)."""
        vocab = 16
        for p in np.linspace(1e-6, 0.1 - 1e-6, 1000):
            dist = np.full(vocab, (0.1 - p) / (vocab - 2))
            dist[0] = p
            dist[1] = 0.9
            signal = gate(DEFT, dist, 0).signal
            assert signal <= p**0.81 * (1.0 - p) + 1e-12

    def test_cayley_signal_full_at_tiny_probability(self):
        assert gate(CAYLEY, np.array([1e-6, 1.0 - 1e-6]), 0).signal >= 0.999


class TestCollisionDecomposition:
    def test_identity_and_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            size = int(rng.integers(2, 65))
            dist = rng.dirichlet(np.ones(size))
            target = int(rng.integers(size))
            p = float(dist[target])
            focus = focus_index(DEFT, dist, target)
            tail = dist[np.arange(size) != target] / (1.0 - p)
            assert focus == pytest.approx(
                p**2 + (1.0 - p) ** 2 * float((tail * tail).sum()), abs=1e-12
            )
            assert p**2 + (1.0 - p) ** 2 / (size - 1) <= focus + 1e-12
            assert focus <= p**2 + (1.0 - p) ** 2 + 1e-12


class TestSoftmax:
    def test_normalizes(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            z = rng.normal(0.0, 5.0, int(rng.integers(2, 40)))
            P = softmax(z)
            assert P.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(P > 0.0)

    def test_shift_invariance(self):
        z = np.array([1.0, -2.0, 0.5])
        npt.assert_allclose(softmax(z), softmax(z + 100.0), atol=1e-12)


# Every member; the fixed exponent is drawn log-uniformly from 1e-12 to 10,
# down to orders where the loss -expm1(a log p) / a is within rounding of -log p.
KINDS = st.one_of(
    st.sampled_from([NLL, LINEAR, CAYLEY, DEFT, EAFT]),
    st.floats(-12.0, 1.0).map(lambda exponent: fixed_alpha(10.0**exponent)),
)


@st.composite
def logit_stacks(draw):
    """(rows, vocab) logits in [-700, 700] with vocab in [2, 256], and one label per row."""
    vocab = draw(st.integers(2, 256))
    rows = draw(st.integers(1, 6))
    logits = draw(hnp.arrays(np.float64, (rows, vocab), elements=st.floats(-700.0, 700.0)))
    labels = draw(hnp.arrays(np.int64, rows, elements=st.integers(0, vocab - 1)))
    return logits, labels


def _row_probs(logits):
    return np.stack([softmax(z) for z in logits])


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestRuleTableProperties:
    """The one rule table behind the scalar and row-wise objective functions."""

    @settings(max_examples=150, deadline=None)
    @given(kind=KINDS, stack=logit_stacks())
    def test_stack_equals_per_row_scalar_calls(self, kind, stack):
        """Row-wise results equal one scalar call per row, bit for bit."""
        logits, labels = stack
        probs = _row_probs(logits)
        rows = list(zip(probs, labels))
        npt.assert_array_equal(
            _bits(focus_per_row(kind, probs, labels)), _bits([focus_index(kind, P, t) for P, t in rows])
        )
        npt.assert_array_equal(
            _bits(gate(kind, probs, labels).gate), _bits([gate(kind, P, t).gate for P, t in rows])
        )
        npt.assert_array_equal(
            _bits(loss_per_row(kind, probs, labels)), _bits([loss(kind, P, t) for P, t in rows])
        )

    @settings(max_examples=150, deadline=None)
    @given(kind=KINDS, stack=logit_stacks())
    def test_gates_bounded_losses_nonnegative_gradients_balanced(self, kind, stack):
        logits, labels = stack
        probs = _row_probs(logits)
        gates = gate(kind, probs, labels).gate
        losses = loss_per_row(kind, probs, labels)
        assert np.all((gates >= 0.0) & (gates <= 1.0))
        assert np.all(np.isfinite(losses)) and np.all(losses >= 0.0)
        for z, target in zip(logits, labels):
            assert abs(float(logit_gradient(kind, z, target).sum())) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(kind=KINDS, stack=logit_stacks())
    def test_loss_matches_scalar_deformed_loss(self, kind, stack):
        """w * (1 - p^a) / a per row against core_math's scalar loss, including its -log p limit at 0."""
        logits, labels = stack
        probs = _row_probs(logits)
        p, w, a = frozen_state(kind, probs, labels)
        expected = [wi * deformed_loss(float(pi), float(ai)) for pi, wi, ai in zip(p, w, a)]
        npt.assert_array_equal(_bits(loss_per_row(kind, probs, labels)), _bits(expected))

    @settings(max_examples=150, deadline=None)
    @given(stack=logit_stacks())
    def test_focus_and_weight_rules_are_the_core_math_formulas(self, stack):
        """cayley, deft and eaft run core_math's Cayley focus, collision mass and Shannon entropy, bit for bit."""
        logits, labels = stack
        probs = _row_probs(logits)
        p = probs[np.arange(labels.size), labels]
        npt.assert_array_equal(
            _bits(focus_per_row(CAYLEY, probs, labels)), _bits([cayley_alpha(clamp_prob(float(v))) for v in p])
        )
        npt.assert_array_equal(
            _bits(focus_per_row(DEFT, probs, labels)), _bits([concentration(row) for row in probs])
        )
        log_vocab = math.log(probs.shape[1])
        npt.assert_array_equal(
            _bits(frozen_state(EAFT, probs, labels)[1]),
            _bits([min(shannon_entropy(row) / log_vocab, 1.0) for row in probs]),
        )

    @settings(max_examples=150, deadline=None)
    @given(kind=KINDS, stack=logit_stacks(), shift=st.floats(-100.0, 100.0))
    def test_constant_logit_shift_changes_nothing(self, kind, stack, shift):
        """Softmax ignores a constant shift; what remains is the rounding of z + shift.

        Logits up to 800 in magnitude round to ~1e-13, which moves log p by about
        as much and p^a by a times as much (a <= 10 here); the tolerance is 1e-10
        relative plus 1e-12 absolute.
        """
        logits, labels = stack
        probs = _row_probs(logits)
        shifted = _row_probs(logits + shift)
        for row_fn in (lambda *args: gate(*args).gate, loss_per_row):
            npt.assert_allclose(
                row_fn(kind, shifted, labels), row_fn(kind, probs, labels), rtol=1e-10, atol=1e-12
            )


@st.composite
def unit_gate_cases(draw):
    """(rows, V) stacks with V in [2, 300] and entries in [0, 1], zero and subnormal ones included; labels; any focus."""
    vocab = draw(st.integers(2, 300))
    rows = draw(st.integers(1, 8))
    entries = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1.0))
    probs = draw(hnp.arrays(np.float64, (rows, vocab), elements=entries))
    labels = draw(hnp.arrays(np.int64, rows, elements=st.integers(0, vocab - 1)))
    focus = draw(hnp.arrays(np.float64, rows, elements=st.floats(allow_nan=True, allow_infinity=True)))
    return probs, labels, focus


class TestUnitGateKernel:
    """``gate_error_into`` skips the gate and the row scale of a member whose gate is identically 1."""

    @settings(max_examples=200, deadline=None)
    @given(case=unit_gate_cases())
    def test_nll_kernel_is_the_error_alone_and_the_general_formula(self, case):
        probs, labels, focus = case
        rows = np.arange(labels.size)
        error = probs.copy()
        error[rows, labels] -= 1.0
        p = objectives._target_p(probs, labels)
        g = objectives._gate(NLL, probs, labels, p, focus_per_row(NLL, probs, labels))
        general = probs * g[:, None]
        general[rows, labels] -= g
        out = gate_error_into(NLL, probs.copy(), labels, focus)
        assert out.tobytes() == error.tobytes()
        assert out.tobytes() == general.tobytes()

    def test_skip_follows_the_rule_table(self, monkeypatch):
        """A weight fault in the nll entry takes the general path, and a unit-gate entry skips for any name."""
        probs = softmax(np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -2.0]]))
        labels = np.array([2, 1])
        error = probs.copy()
        error[np.arange(2), labels] -= 1.0
        def half(kind, P, targets):
            return np.full(P.shape[0], 0.5)

        monkeypatch.setitem(objectives._RULES, "nll", (half, objectives._zero))
        npt.assert_array_equal(gate_error_into(NLL, probs.copy(), labels, np.zeros(2)), 0.5 * error)
        monkeypatch.setitem(objectives._RULES, "eaft", (objectives._unit, objectives._zero))
        assert gate_error_into(EAFT, probs.copy(), labels, np.full(2, 7.0)).tobytes() == error.tobytes()


def _reference_gradient(kind, logits, labels):
    """The kernel as it was before flat positions: 2-D gathers, a 2-D subtraction, every weight multiplied in."""
    P = softmax(logits)
    rows = np.arange(labels.size)
    weight, focus = objectives._RULES[kind.name]
    p = np.minimum(np.maximum(P[rows, labels], PROB_FLOOR), 1.0)
    g = weight(kind, P, labels) * p ** focus(kind, P, labels)
    out = P * g[:, None]
    out[rows, labels] -= g
    return out


class TestFlatPositionKernel:
    """``gate_error_into`` reads and writes the target entries through flat positions of a C-contiguous stack."""

    @settings(max_examples=200, deadline=None)
    @given(kind=KINDS, stack=logit_stacks())
    def test_logit_gradient_matches_two_dimensional_indexing(self, kind, stack):
        """Bit for bit on the stack, on each row alone, and on Fortran-ordered and row-strided logits.

        The distribution entry points give the bits of the C-ordered stack on the other layouts too.
        """
        logits, labels = stack
        expected = _reference_gradient(kind, logits, labels)
        assert logit_gradient(kind, logits, labels).tobytes() == expected.tobytes()
        for z, target, row in zip(logits, labels, expected):
            assert logit_gradient(kind, z, int(target)).tobytes() == row.tobytes()
        for layout in (np.asfortranarray(logits), np.repeat(logits, 2, axis=0)[::2]):
            assert logit_gradient(kind, layout, labels).tobytes() == expected.tobytes()

        def row_values(probs):
            return [
                np.asarray(value).tobytes()
                for value in (
                    *dataclasses.astuple(gate(kind, probs, labels)),
                    loss(kind, probs, labels),
                    focus_index(kind, probs, labels),
                    shannon_entropy(probs),
                    tsallis_entropy(probs, 0.5),
                    tsallis_entropy(probs, 2.0),
                    concentration(probs),
                )
            ]

        probs = softmax(logits)
        for layout in (np.asfortranarray(probs), np.repeat(probs, 2, axis=0)[::2]):
            assert row_values(layout) == row_values(probs)

    @pytest.mark.parametrize("kind", default_kinds(), ids=lambda kind: kind.encode())
    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda probs: np.repeat(probs, 2, axis=0)[::2]],
        ids=["fortran", "row-strided"],
    )
    def test_never_writes_into_a_silent_copy(self, kind, layout):
        """A stack that is not C-contiguous is refused before any entry of the caller's array is written."""
        probs = layout(softmax(np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -2.0], [1.0, 1.0, -4.0]])))
        labels = np.array([2, 1, 0])
        before = probs.copy()
        assert not probs.flags.c_contiguous
        with pytest.raises(DomainError, match="C-contiguous"):
            gate_error_into(kind, probs, labels, focus_per_row(kind, probs, labels))
        assert probs.tobytes() == before.tobytes()


class TestDerivedMemberFacts:
    """``reads``, ``is_dynamic``, the landscape bisection, the flow refusal and the unit-gate skip follow the table."""

    P_GRID, H_GRID = np.array([0.2, 0.5, 0.8]), np.array([0.5, 1.0, 1.5])

    def test_a_rule_swap_moves_every_derived_fact(self, monkeypatch):
        realized = []
        realize = landscape._realize
        monkeypatch.setattr(landscape, "_realize", lambda *args: realized.append(args) or realize(*args))
        probs = softmax(np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -2.0]]))
        labels = np.array([2, 1])

        monkeypatch.setitem(objectives._RULES, "nll", (objectives._normalized_entropy, objectives._zero))
        assert NLL.reads == Reads.ROW and not NLL.is_dynamic
        with pytest.raises(DomainError, match="'nll' has a state-dependent gate"):
            gradient_flow_ordering("strong", (LINEAR, NLL))
        gradient_landscape(NLL, self.P_GRID, self.H_GRID, 8)
        assert realized
        gated = []
        general = objectives._gate
        monkeypatch.setattr(objectives, "_gate", lambda *args: gated.append(args) or general(*args))
        gate_error_into(NLL, probs.copy(), labels, np.zeros(2))
        assert gated

        realized.clear()
        monkeypatch.setitem(objectives._RULES, "eaft", (objectives._unit, objectives._zero))
        assert EAFT.reads == Reads.NOTHING
        assert gradient_flow_ordering("strong", (LINEAR, EAFT)).passed
        gradient_landscape(EAFT, self.P_GRID, self.H_GRID, 8)
        assert not realized

    def test_an_undeclared_rule_has_no_level(self, monkeypatch):
        """A rule that does not declare what it reads raises; it never falls back to a level."""

        def half(kind, P, targets):
            return np.full(P.shape[0], 0.5)

        monkeypatch.setitem(objectives._RULES, "deft", (objectives._unit, half))
        with pytest.raises(KeyError):
            DEFT.reads
        with pytest.raises(KeyError):
            DEFT.is_dynamic
