"""Objective-family checks: encodings, gates, losses, and exact gradients."""

import math

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
    ObjectiveKind,
    default_kinds,
    fixed_alpha,
    focus_index,
    gate,
    logit_gradient,
    loss,
    softmax,
)
from trustgate.core_math import deformed_loss
from trustgate.objectives import focus_per_row, frozen_state, gate_per_row, loss_per_row
from trustgate.verification import fd_gradient


class TestEncoding:
    @pytest.mark.parametrize(
        "text", ["nll", "linear", "alpha:0.5", "alpha:2.0", "cayley", "deft", "eaft"]
    )
    def test_round_trip(self, text):
        kind = ObjectiveKind.parse(text)
        assert ObjectiveKind.parse(kind.encode()) == kind

    def test_fixed_exponent_must_be_positive(self):
        with pytest.raises(DomainError):
            ObjectiveKind.parse("alpha:0")
        with pytest.raises(DomainError):
            ObjectiveKind.parse("alpha:-1")

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            ObjectiveKind.parse("focal")

    def test_static_members_take_no_exponent(self):
        with pytest.raises(DomainError):
            ObjectiveKind("nll", 0.5)

    def test_dynamic_flag(self):
        assert CAYLEY.is_dynamic and DEFT.is_dynamic
        assert not (NLL.is_dynamic or LINEAR.is_dynamic or EAFT.is_dynamic)


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
            for kind in default_kinds(0.5):
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
            for kind in default_kinds(0.5):
                assert loss(kind, dist, target) >= 0.0


class TestLogitGradient:
    def test_log_loss_symmetric_pair(self):
        npt.assert_allclose(logit_gradient(NLL, [0.0, 0.0], 0), [-0.5, 0.5], atol=1e-12)

    def test_linear_member_symmetric_pair(self):
        npt.assert_allclose(logit_gradient(LINEAR, [0.0, 0.0], 0), [-0.25, 0.25], atol=1e-12)

    def test_collision_member_symmetric_pair(self):
        grad = logit_gradient(DEFT, [0.0, 0.0], 0)
        npt.assert_allclose(grad, [-(0.5**1.5), 0.5**1.5], atol=1e-12)
        numeric = fd_gradient(DEFT, [0.0, 0.0], 0, 1e-5)
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
            for kind in default_kinds(0.5):
                grad = logit_gradient(kind, z, target)
                assert abs(float(grad.sum())) <= 1e-12
                assert grad[target] <= 0.0

    def test_one_hot_wrong_target_stays_bounded(self):
        """A maximally confident wrong prediction keeps a bounded update."""
        z = np.array([60.0, 0.0])
        for kind in default_kinds(0.5):
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


# Every member; the fixed exponent is drawn log-uniformly from 1e-7 to 10, so
# it crosses the loss's switch to the -log p limit at 1e-6.
KINDS = st.one_of(
    st.sampled_from([NLL, LINEAR, CAYLEY, DEFT, EAFT]),
    st.floats(-7.0, 1.0).map(lambda exponent: fixed_alpha(10.0**exponent)),
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
            _bits(gate_per_row(kind, probs, labels)), _bits([gate(kind, P, t).gate for P, t in rows])
        )
        npt.assert_array_equal(
            _bits(loss_per_row(kind, probs, labels)), _bits([loss(kind, P, t) for P, t in rows])
        )

    @settings(max_examples=150, deadline=None)
    @given(kind=KINDS, stack=logit_stacks())
    def test_gates_bounded_losses_nonnegative_gradients_balanced(self, kind, stack):
        logits, labels = stack
        probs = _row_probs(logits)
        gates = gate_per_row(kind, probs, labels)
        losses = loss_per_row(kind, probs, labels)
        assert np.all((gates >= 0.0) & (gates <= 1.0))
        assert np.all(np.isfinite(losses)) and np.all(losses >= 0.0)
        for z, target in zip(logits, labels):
            assert abs(float(logit_gradient(kind, z, target).sum())) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(kind=KINDS, stack=logit_stacks())
    def test_loss_matches_scalar_deformed_loss(self, kind, stack):
        """w * (1 - p^a) / a per row against core_math's scalar loss, including its -log p switch.

        numpy's and the math module's log/expm1 may differ in the last bit, hence 1e-13.
        """
        logits, labels = stack
        probs = _row_probs(logits)
        p, w, a = frozen_state(kind, probs, labels)
        expected = [wi * deformed_loss(float(pi), float(ai)) for pi, wi, ai in zip(p, w, a)]
        npt.assert_allclose(loss_per_row(kind, probs, labels), expected, rtol=1e-13, atol=0.0)

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
        for row_fn in (gate_per_row, loss_per_row):
            npt.assert_allclose(
                row_fn(kind, shifted, labels), row_fn(kind, probs, labels), rtol=1e-10, atol=1e-12
            )
