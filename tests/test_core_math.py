"""Primitive checks: frozen values, limits, property sweeps, and arrays against scalar calls."""

import functools
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
    DomainError,
    cayley_alpha,
    clamp_prob,
    concentration,
    deformed_loss,
    expected_score,
    mobius_alpha,
    q_log,
    shannon_entropy,
    tsallis_entropy,
    validate_dist,
)
from trustgate.core_math import MIN_ORDER
from trustgate.verification import RULE_MAIN, RULE_PROPER


class TestQLog:
    def test_unit_argument_is_zero_for_any_order(self):
        for q in (-1.0, 0.0, 0.3, 1.0, 2.5):
            assert q_log(1.0, q) == 0.0

    @pytest.mark.parametrize("x, q", [(0.5, math.inf), (2.0, math.nan), (0.5, -math.inf)])
    def test_non_finite_order_refused(self, x, q):
        with pytest.raises(DomainError, match=re.escape(f"q_log order must be finite, got {q!r}")):
            q_log(x, q)

    def test_order_one_limit_is_natural_log(self):
        assert q_log(math.e, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_order_closed_form(self):
        # (4^0.5 - 1) / 0.5
        assert q_log(4.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(DomainError):
            q_log(0.0, 0.5)
        with pytest.raises(DomainError):
            q_log(-1.0, 0.5)

    def test_approaches_log_near_order_one(self):
        for x in np.linspace(0.1, 10.0, 25):
            for q in (1.0 - 1e-7, 1.0 + 1e-7):
                assert abs(q_log(float(x), q) - math.log(x)) <= 1e-5

    def test_derivative_is_power_law(self):
        h = 1e-6
        for q in (-0.5, 0.3, 0.7, 2.0):
            for x in np.linspace(0.2, 5.0, 20):
                fd = (q_log(float(x + h), q) - q_log(float(x - h), q)) / (2 * h)
                assert fd == pytest.approx(float(x) ** (-q), rel=1e-6)

    def test_strictly_increasing(self):
        xs = np.linspace(0.05, 8.0, 200)
        for q in (0.0, 0.5, 1.0, 1.7):
            vals = [q_log(float(x), q) for x in xs]
            assert np.all(np.diff(vals) > 0)


class TestDeformedLoss:
    def test_linear_member(self):
        assert deformed_loss(0.3, 1.0) == pytest.approx(0.7, abs=1e-12)

    def test_half_exponent_member(self):
        # 2 * (1 - sqrt(0.25))
        assert deformed_loss(0.25, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_small_exponent_matches_log_loss(self):
        assert deformed_loss(0.5, 1e-9) == pytest.approx(math.log(2.0), abs=1e-6)

    def test_zero_iff_perfect_prediction(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            assert deformed_loss(1.0, alpha) == 0.0
            assert deformed_loss(0.999999, alpha) > 0.0

    def test_rejects_negative_exponent(self):
        with pytest.raises(DomainError):
            deformed_loss(0.5, -0.1)

    def test_nonincreasing_in_p(self):
        ps = np.linspace(1e-9, 1.0, 500)
        for alpha in (0.0, 1e-8, 0.25, 1.0, 3.0):
            vals = [deformed_loss(float(p), alpha) for p in ps]
            assert np.all(np.diff(vals) <= 0.0)

    def test_continuous_in_alpha_at_zero(self):
        for p in (0.01, 0.3, 0.9):
            assert deformed_loss(p, 1e-7) == pytest.approx(-math.log(p), rel=1e-6)

    @pytest.mark.parametrize("alpha", [sys.float_info.min, 1e-300, 1e-15, 1e-12, 1e-9, 1e-7])
    def test_tiny_exponents_follow_the_expansion(self, alpha):
        """(1 - p^a) / a = -log p - a log^2 p / 2 + a^2 |log p|^3 / 6 + ...; the last is <= 1.7e-13 here."""
        for p in (0.01, 0.3, 0.9):
            log_p = math.log(p)
            assert abs(deformed_loss(p, alpha) + log_p + alpha * log_p**2 / 2.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [1e-320, 5e-324, 2e-308, math.inf, math.nan])
    def test_rejects_subnormal_and_nonfinite_exponents(self, alpha):
        with pytest.raises(DomainError, match="focus exponent must be 0 or >= 2.2250738585072014e-308"):
            deformed_loss(0.5, alpha)

    def test_clamps_hard_zero(self):
        assert math.isfinite(deformed_loss(0.0, 0.0))


class TestEntropies:
    def test_tsallis_uniform_pair_order_two(self):
        assert tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_tsallis_point_mass_is_zero(self):
        assert tsallis_entropy([1.0, 0.0], 2.0) == 0.0

    @pytest.mark.parametrize(
        "entropy",
        [shannon_entropy]
        + [functools.partial(tsallis_entropy, q=q) for q in (0.5, 1.0, 1.0 + 1e-12, 2.0)],
    )
    def test_point_mass_entropy_is_positive_zero(self, entropy):
        assert math.copysign(1.0, entropy([0.0, 1.0])) == 1.0
        npt.assert_array_equal(np.copysign(1.0, entropy([[0.0, 1.0], [1.0, 0.0]])), [1.0, 1.0])

    def test_tsallis_skewed_pair(self):
        assert tsallis_entropy([0.9, 0.1], 2.0) == pytest.approx(0.18, abs=1e-12)

    def test_tsallis_order_one_is_shannon(self):
        dist = [0.2, 0.3, 0.5]
        assert tsallis_entropy(dist, 1.0) == pytest.approx(shannon_entropy(dist), abs=1e-12)

    def test_tsallis_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            tsallis_entropy([0.5, 0.5], 0.0)
        with pytest.raises(DomainError):
            tsallis_entropy([0.5, 0.5], -1.0)

    @pytest.mark.parametrize("dist", [[0.8, 0.2], [0.5, 0.3, 0.2], [0.97, 0.02, 0.01]])
    @pytest.mark.parametrize("offset", [2e-9, -2e-9, 1e-8, -1e-8, 1e-7, 1e-6, -1e-6, 1e-5, -1e-5])
    def test_tsallis_near_order_one_follows_its_expansion(self, dist, offset):
        """H_q = H - (q-1)/2 sum r log^2 r - (q-1)^2/6 sum r log^3 r + O((q-1)^3).

        The direct quotient (1 - sum r^q) / (q - 1) misses this by 2.3e-8 at
        q = 1 + 2e-9 for r = (0.8, 0.2); the third-order remainder is below
        1e-15 at every offset here.
        """
        r = np.array(dist)
        q = 1.0 + offset
        d = q - 1.0
        log_r = np.log(r)
        expansion = (
            shannon_entropy(r)
            - d / 2.0 * float((r * log_r**2).sum())
            - d * d / 6.0 * float((r * log_r**3).sum())
        )
        assert abs(tsallis_entropy(r, q) - expansion) <= 1e-14

    def test_tsallis_extreme_orders_stay_finite(self):
        """No power of r exceeds 1: a subnormal entry at a tiny order and a huge order are exact."""
        assert tsallis_entropy([0.9, 0.1], 1e308) == pytest.approx(1e-308, rel=1e-12)
        tiny = 5e-324
        expected = (1.0 - tiny**0.01 - (1.0 - tiny) ** 0.01) / (0.01 - 1.0)
        assert tsallis_entropy([tiny, 1.0 - tiny], 0.01) == pytest.approx(expected, rel=1e-12)

    def test_tsallis_nonnegative_on_random_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            dist = rng.dirichlet(np.ones(int(rng.integers(2, 12))))
            for q in (0.3, 0.9, 1.0, 1.5, 2.0):
                assert tsallis_entropy(dist, q) >= 0.0


class TestConcentration:
    def test_uniform_four(self):
        assert concentration([0.25] * 4) == pytest.approx(0.25, abs=1e-15)

    def test_point_mass(self):
        assert concentration([1.0, 0.0, 0.0]) == 1.0

    def test_skewed_pair(self):
        assert concentration([0.9, 0.1]) == pytest.approx(0.82, abs=1e-12)

    def test_range_and_extremizers(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            size = int(rng.integers(2, 33))
            dist = rng.dirichlet(np.ones(size))
            c = concentration(dist)
            assert 1.0 / size - 1e-12 <= c <= 1.0 + 1e-12


class TestCayleyTrajectory:
    def test_coverage_anchor_exact(self):
        assert cayley_alpha(0.0) == 0.0

    def test_sharpening_anchor_exact(self):
        assert cayley_alpha(1.0) == 1.0

    def test_three_quarters(self):
        assert cayley_alpha(0.75) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            cayley_alpha(-0.01)
        with pytest.raises(DomainError):
            cayley_alpha(1.01)

    def test_strictly_increasing(self):
        ps = np.linspace(0.0, 1.0, 2000)
        vals = [cayley_alpha(float(p)) for p in ps]
        assert np.all(np.diff(vals) > 0)

    def test_arctanh_identity(self):
        for p in np.concatenate([np.logspace(-6, -0.02, 200), np.linspace(0.01, 0.999, 200)]):
            lhs = math.atanh(cayley_alpha(float(p)))
            rhs = -0.25 * math.log1p(-float(p))
            assert abs(lhs - rhs) <= 1e-9

    def test_open_end_expansion(self):
        for p in np.logspace(-9, -3, 40):
            assert abs(cayley_alpha(float(p)) - p / 4.0) <= p * p

    def test_sharp_end_expansion(self):
        for p in 1.0 - np.logspace(-9, -3, 40):
            gap = abs(cayley_alpha(float(p)) - (1.0 - 2.0 * math.sqrt(1.0 - p)))
            assert gap <= 2.0 * (1.0 - p)


class TestMobiusFamily:
    def test_cayley_member_at_half(self):
        assert mobius_alpha(0.5, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_endpoint_constraint_any_parameter(self):
        assert mobius_alpha(0.0, 2.0) == 1.0
        assert mobius_alpha(1.0, 2.0) == 0.0

    def test_involution_example(self):
        assert mobius_alpha(mobius_alpha(0.3, 0.5), 0.5) == pytest.approx(0.3, abs=1e-12)

    def test_involution_family_sweep(self):
        zs = np.linspace(0.0, 1.0, 513)
        for kappa in (0.0, 0.5, 1.0, 2.0):
            for z in zs:
                assert abs(mobius_alpha(mobius_alpha(float(z), kappa), kappa) - z) <= 1e-12

    def test_rejects_degenerate_parameter(self):
        with pytest.raises(DomainError):
            mobius_alpha(0.5, -1.0)

    def test_kappa_one_reproduces_cayley(self):
        for p in np.linspace(0.0, 1.0, 400):
            z = math.sqrt(1.0 - float(p))
            assert abs(mobius_alpha(z, 1.0) - cayley_alpha(float(p))) <= 1e-12

    def test_only_kappa_one_linearizes_against_log_radius(self):
        """arctanh of the map is affine in log(z) exactly for the kappa=1 member."""
        z = np.logspace(-6, -0.001, 300)
        x = np.log(z)
        residuals = {}
        for kappa in (0.0, 1.0, 2.0):
            y = np.arctanh([mobius_alpha(float(v), kappa) for v in z])
            slope, intercept = np.polyfit(x, y, 1)
            ss_res = float(((y - slope * x - intercept) ** 2).sum())
            ss_tot = float(((y - y.mean()) ** 2).sum())
            residuals[kappa] = ss_res / ss_tot
        assert residuals[1.0] <= 1e-12
        assert residuals[0.0] > 1e-6
        assert residuals[2.0] > 1e-6


BAD_ROWS = [
    [0.5, 0.4, 0.0],
    [1.1, -0.1, 0.0],
    [float("nan"), 0.5, 0.5],
    [float("inf"), 0.5, 0.0],
    [float("inf"), -float("inf"), 0.0],
]


class TestValidation:
    def test_clamp_floor(self):
        assert clamp_prob(0.0) == 1e-12
        assert clamp_prob(1.0) == 1.0

    def test_clamp_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            clamp_prob(1.1)

    def test_dist_must_sum_to_one(self):
        with pytest.raises(DomainError):
            validate_dist([0.5, 0.4])

    def test_dist_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            validate_dist([1.1, -0.1])

    def test_dist_needs_two_tokens(self):
        with pytest.raises(DomainError):
            validate_dist([1.0])

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_dist_rejects_nonfinite(self, entry):
        with pytest.raises(DomainError):
            validate_dist([entry, 0.5])

    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_rows_fail_as_their_bad_row_does(self, bad):
        good = [0.2, 0.3, 0.5]
        with pytest.raises(DomainError) as scalar:
            validate_dist(bad)
        with pytest.raises(DomainError) as rows:
            validate_dist([good, bad, good])
        assert str(rows.value) == str(scalar.value)

    def test_rows_name_the_first_negative_row_as_a_float(self):
        with pytest.raises(DomainError, match=re.escape("negative entries (min -0.1)")):
            validate_dist([[0.2, 0.3, 0.5], [1.1, -0.1, 0.0], [1.5, -0.5, 0.0]])

    def test_rows_accept_valid_stack(self):
        stack = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        assert np.array_equal(validate_dist(stack), stack)

    @pytest.mark.parametrize("shape", [(), (2, 1), (1, 2, 2)])
    def test_one_row_or_a_stack_of_rows_of_two_or_more(self, shape):
        message = f"a vector of length >= 2 or a (rows, >= 2) stack of them, got shape {shape}"
        with pytest.raises(DomainError, match=re.escape(message)):
            validate_dist(np.full(shape, 0.5))


UNIT = st.floats(0.0, 1.0)
# name: (elementwise function of one argument, its domain, an entry outside it)
ELEMENTWISE = {
    "clamp_prob": (clamp_prob, UNIT, 1.5),
    "cayley_alpha": (cayley_alpha, UNIT, -0.25),
    # the one range check refuses NaN and inf as it refuses a finite entry outside
    "cayley_alpha-nan": (cayley_alpha, UNIT, math.nan),
    "mobius_alpha-inf": (lambda z: mobius_alpha(z, 0.5), UNIT, math.inf),
    "mobius_alpha": (lambda z: mobius_alpha(z, 0.5), UNIT, -1e-300),
    # x^3 overflows past 5.6e102: both forms give inf
    "q_log": (lambda x: q_log(x, -2.0), st.floats(0.0, 1e300, exclude_min=True), 0.0),
    "deformed_loss-p": (lambda p: deformed_loss(p, 0.5), UNIT, 1.1),
    # a log p overflows to -inf past a = 1.5e308: both forms give the limit 1 / a
    "deformed_loss-alpha": (
        lambda a: deformed_loss(0.3, a),
        st.one_of(st.just(0.0), st.floats(MIN_ORDER, 1e308)),
        1e-320,
    ),
}


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestArraysAgainstScalarCalls:
    """Each elementwise function is one array formula: an array gives the bits of one scalar call per entry."""

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(ELEMENTWISE)), data=st.data())
    def test_entries_are_scalar_calls(self, name, data):
        fn, domain, _ = ELEMENTWISE[name]
        values = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2), elements=domain))
        scalars = [fn(float(v)) for v in values.ravel()]
        assert all(type(s) is float for s in scalars)
        out = fn(values)
        assert isinstance(out, np.ndarray) and out.shape == values.shape
        npt.assert_array_equal(_bits(out).ravel(), _bits(scalars))

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(ELEMENTWISE)), data=st.data())
    def test_one_bad_entry_is_named_as_its_scalar_call_names_it(self, name, data):
        fn, domain, bad = ELEMENTWISE[name]
        values = data.draw(hnp.arrays(np.float64, st.integers(0, 12), elements=domain))
        values = np.insert(values, data.draw(st.integers(0, values.size)), bad)
        with pytest.raises(DomainError) as scalar:
            fn(bad)
        with pytest.raises(DomainError) as array:
            fn(values)
        assert str(array.value) == str(scalar.value)
        assert str(array.value).endswith(f"got {bad!r}")


# name: function of one distribution or of a (rows, V) stack of them
DISTRIBUTION = {
    "shannon_entropy": shannon_entropy,
    "tsallis_entropy-0.5": lambda r: tsallis_entropy(r, 0.5),
    "tsallis_entropy-1": lambda r: tsallis_entropy(r, 1.0),
    "tsallis_entropy-2": lambda r: tsallis_entropy(r, 2.0),
    "concentration": concentration,
}
STACK_SHAPES = st.tuples(st.integers(1, 6), st.integers(2, 12))


def _normalized(weights):
    weights[:, 0] += weights.sum(axis=1) == 0.0  # no all-zero row
    return weights / weights.sum(axis=1, keepdims=True)


def _dist_stacks(shape):
    """Stacks of distributions of ``shape``; rows often hold exact zeros, and may be point masses."""
    weights = hnp.arrays(np.float64, shape, elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    return weights.map(_normalized)


class TestStacksAgainstVectorCalls:
    """Each distribution function is one stack formula: a stack gives the bits of one vector call per row."""

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(DISTRIBUTION)), data=st.data())
    def test_rows_are_vector_calls(self, name, data):
        fn = DISTRIBUTION[name]
        stack = data.draw(_dist_stacks(data.draw(STACK_SHAPES)))
        vectors = [fn(row) for row in stack]
        assert all(type(v) is float for v in vectors)
        out = fn(stack)
        assert isinstance(out, np.ndarray) and out.shape == stack.shape[:1]
        npt.assert_array_equal(_bits(out), _bits(vectors))

    @settings(max_examples=100, deadline=None)
    @given(
        rule=st.sampled_from([RULE_MAIN, RULE_PROPER]),
        alpha=st.sampled_from([0.25, 1.0, 2.5]),
        data=st.data(),
    )
    def test_expected_score_rows_are_vector_calls(self, rule, alpha, data):
        shape = data.draw(STACK_SHAPES)
        r, phat = data.draw(_dist_stacks(shape)), data.draw(_dist_stacks(shape))
        vectors = [expected_score(r_row, q_row, alpha, rule) for r_row, q_row in zip(r, phat)]
        assert all(type(v) is float for v in vectors)
        out = expected_score(r, phat, alpha, rule)
        assert isinstance(out, np.ndarray) and out.shape == shape[:1]
        npt.assert_array_equal(_bits(out), _bits(vectors))

    @pytest.mark.parametrize("name", sorted(DISTRIBUTION) + ["expected_score-r", "expected_score-phat"])
    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_one_bad_row_fails_as_validate_dist(self, name, bad):
        good = [0.2, 0.3, 0.5]
        stack = [good, bad, good]
        fn = {
            **DISTRIBUTION,
            "expected_score-r": lambda r: expected_score(r, [good] * 3, 0.5),
            "expected_score-phat": lambda phat: expected_score([good] * 3, phat, 0.5),
        }[name]
        with pytest.raises(DomainError) as vector:
            validate_dist(bad)
        with pytest.raises(DomainError) as rows:
            fn(stack)
        assert str(rows.value) == str(vector.value)

    def test_expected_score_refuses_unequal_shapes(self):
        with pytest.raises(DomainError, match=re.escape("r has shape (2, 2), phat has shape (1, 2)")):
            expected_score([[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5]], 0.5)
