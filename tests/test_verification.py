"""Oracle checks: jacobian, finite differences, risk minimization, orderings."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from trustgate import (
    CAYLEY,
    DEFT,
    EAFT,
    LINEAR,
    NLL,
    RULE_MAIN,
    RULE_PROPER,
    DomainError,
    expected_score,
    fd_gradient,
    fixed_alpha,
    gradient_flow_ordering,
    logit_gradient,
    minimize_risk,
    peak_location,
    run_property_suite,
    softmax,
    softmax_jacobian,
    tsallis_entropy,
)
from trustgate.verification import reports_to_json


class TestSoftmaxJacobian:
    def test_symmetric_pair(self):
        npt.assert_allclose(
            softmax_jacobian([0.0, 0.0]), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12
        )

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.normal(0.0, 3.0, int(rng.integers(2, 20)))
            jac = softmax_jacobian(z)
            npt.assert_allclose(jac.sum(axis=1), 0.0, atol=1e-12)
            npt.assert_allclose(jac, jac.T, atol=1e-15)

    def test_diagonal_matches_finite_differences(self):
        z = np.array([math.log(9.0), 0.0])
        jac = softmax_jacobian(z)
        assert jac[0, 0] == pytest.approx(0.09, abs=1e-9)
        # independent route: perturb the logit and difference the softmax
        h = 1e-6
        fd = (softmax(z + [h, 0.0])[0] - softmax(z - [h, 0.0])[0]) / (2 * h)
        assert jac[0, 0] == pytest.approx(fd, abs=1e-9)


class TestFiniteDifferenceGradient:
    def test_log_loss_symmetric_pair(self):
        npt.assert_allclose(fd_gradient(NLL, [0.0, 0.0], 0, 1e-5), [-0.5, 0.5], atol=1e-8)

    def test_unit_exponent_symmetric_pair(self):
        npt.assert_allclose(
            fd_gradient(fixed_alpha(1.0), [0.0, 0.0], 0, 1e-5), [-0.25, 0.25], atol=1e-8
        )

    def test_rejects_zero_step(self):
        with pytest.raises(DomainError):
            fd_gradient(NLL, [0.0, 0.0], 0, 0.0)

    def test_rejects_oversized_step(self):
        with pytest.raises(DomainError):
            fd_gradient(NLL, [0.0, 0.0], 0, 0.5)

    def test_matches_analytic_gradient_all_members(self):
        rng = np.random.default_rng(1)
        kinds = [NLL, LINEAR, fixed_alpha(0.5), DEFT]
        for _ in range(100):
            size = int(rng.integers(2, 17))
            z = rng.normal(0.0, 2.0, size)
            target = int(rng.integers(size))
            for kind in kinds:
                analytic = logit_gradient(kind, z, target)
                numeric = fd_gradient(kind, z, target, 1e-5)
                scale = max(float(np.abs(analytic).max()), 1e-12)
                assert float(np.abs(analytic - numeric).max()) / scale <= 1e-6

    @pytest.mark.parametrize("kind", [LINEAR, fixed_alpha(1.0)])
    def test_small_target_probability_keeps_relative_accuracy(self, kind):
        """Target p = 4.3e-6 at V = 15, the worst static case of the suite at seed 21.

        The gradient is of order p, so differencing loss values next to 1 would
        leave a relative noise of ~eps / (2 h p) = 1e-6; the oracle must stay at
        its truncation error instead.
        """
        z = np.array([
            7.010748119454111, 2.6856967136167023, 1.9388372169937953, 2.825630989990448,
            -5.279729076606909, -1.4024218959423471, 1.8444354490237405, 2.566387703190698,
            1.026018346507124, -1.0311639297375248, -3.883661835369411, 1.8244947841037944,
            -1.1601405392908946, 0.4791477158811781, 0.3837033729703357,
        ])
        assert softmax(z)[4] == pytest.approx(4.3192e-6, rel=1e-4)
        analytic = logit_gradient(kind, z, 4)
        numeric = fd_gradient(kind, z, 4, 1e-5)
        assert float(np.abs(analytic - numeric).max()) / float(np.abs(analytic).max()) <= 1e-8


class TestExpectedScore:
    def test_perfect_deterministic_prediction(self):
        one_hot = [1.0, 0.0]
        assert expected_score(one_hot, one_hot, 1.0, RULE_PROPER) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_pair_order_two(self):
        r = [0.5, 0.5]
        assert expected_score(r, r, 1.0, RULE_PROPER) == pytest.approx(0.5, abs=1e-12)
        assert expected_score(r, r, 1.0, RULE_MAIN) == pytest.approx(0.5, abs=1e-12)

    def test_self_score_equals_matching_order_entropy(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
            for alpha in (0.25, 0.5, 1.0):
                assert expected_score(r, r, alpha, RULE_PROPER) == pytest.approx(
                    tsallis_entropy(r, 1.0 + alpha), abs=1e-12
                )

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            expected_score([0.5, 0.5], [0.2, 0.3, 0.5], 0.5, RULE_PROPER)

    def test_proper_rule_penalizes_any_deviation(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            size = int(rng.integers(2, 5))
            r = rng.dirichlet(np.ones(size))
            other = rng.dirichlet(np.ones(size))
            for alpha in (0.25, 0.5, 1.0):
                self_risk = expected_score(r, r, alpha, RULE_PROPER)
                other_risk = expected_score(r, other, alpha, RULE_PROPER)
                assert other_risk >= self_risk - 1e-12


class TestMinimizeRisk:
    def test_uniform_pair_recovers_truth(self):
        minimizer, risk = minimize_risk([0.5, 0.5], 1.0, RULE_PROPER)
        npt.assert_allclose(minimizer, [0.5, 0.5], atol=1e-4)
        assert risk == pytest.approx(0.5, abs=1e-6)

    def test_skewed_pair_recovers_truth(self):
        r = np.array([0.8, 0.2])
        minimizer, _ = minimize_risk(r, 0.5, RULE_PROPER)
        assert float(np.abs(minimizer - r).max()) <= 0.01

    def test_realized_token_rule_tilts_away(self):
        """Scoring only the realized token shifts the minimizer off the truth."""
        r = np.array([0.8, 0.2])
        minimizer, _ = minimize_risk(r, 0.5, RULE_MAIN)
        assert float(np.abs(minimizer - r).max()) > 0.05
        # the exact stationary point is the square-law tilt of r
        escort = r**2 / (r**2).sum()
        npt.assert_allclose(minimizer, escort, atol=1e-3)

    def test_three_tokens_bayes_risk_is_matching_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            r = rng.dirichlet(np.ones(3))
            for alpha in (0.25, 1.0):
                minimizer, risk = minimize_risk(r, alpha, RULE_PROPER)
                assert risk == pytest.approx(tsallis_entropy(r, 1.0 + alpha), abs=1e-3)
                assert float(np.abs(minimizer - r).max()) <= 0.01

    def test_oversized_vocabulary_rejected(self):
        with pytest.raises(DomainError):
            minimize_risk(np.full(7, 1.0 / 7.0), 0.5, RULE_PROPER)

    def test_unknown_rule_rejected(self):
        with pytest.raises(DomainError):
            minimize_risk([0.5, 0.5], 0.5, "brier")


class TestPeakLocation:
    def test_log_loss_peaks_at_smallest_probability(self):
        assert peak_location(lambda p: -np.log(p)) <= 1e-3

    def test_linear_loss_peaks_at_half(self):
        assert peak_location(lambda p: 1.0 - p) == pytest.approx(0.5, abs=1e-3)

    def test_concave_exemplar_peaks_at_two_thirds(self):
        # d/dp of p^2 (1-p) vanishes at 2/3
        assert peak_location(lambda p: (1.0 - p**2) / 2.0) == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_convex_members_peak_left_of_center(self):
        for f in (lambda p: -np.log(p), lambda p: 1.0 - p, lambda p: (1.0 - np.sqrt(p)) / 0.5):
            assert peak_location(f) <= 0.5 + 1e-3


class TestRiskFlowOrdering:
    def test_strong_regime_prefers_linear(self):
        report = gradient_flow_ordering("strong", (LINEAR, NLL), seed=0)
        assert report.passed
        assert "sign=+1" in report.detail

    def test_weak_regime_reverses(self):
        report = gradient_flow_ordering("weak", (LINEAR, NLL), seed=0)
        assert report.passed
        assert "sign=-1" in report.detail

    def test_identical_pair_is_degenerate(self):
        report = gradient_flow_ordering("strong", (NLL, NLL), seed=0)
        assert report.passed
        assert "sign=+0" in report.detail or "sign=0" in report.detail

    def test_dynamic_members_unsupported(self):
        with pytest.raises(DomainError):
            gradient_flow_ordering("strong", (DEFT, NLL), seed=0)

    @pytest.mark.parametrize("kind", [CAYLEY, EAFT])
    def test_state_dependent_members_named_in_error(self, kind):
        with pytest.raises(DomainError, match=f"'{kind.name}' has a state-dependent gate"):
            gradient_flow_ordering("weak", (LINEAR, kind), seed=0)

    def test_sign_flip_for_twenty_seeds(self):
        for seed in range(20):
            assert gradient_flow_ordering("strong", (LINEAR, NLL), seed=seed).passed
            assert gradient_flow_ordering("weak", (LINEAR, NLL), seed=seed).passed


class TestPropertySuite:
    def test_all_reports_pass(self):
        reports = run_property_suite(7)
        failed = [r.name for r in reports if not r.passed]
        assert failed == []

    def test_deterministic_given_seed(self):
        first = run_property_suite(3)
        second = run_property_suite(3)
        assert [(r.name, r.passed, r.max_error) for r in first] == [
            (r.name, r.passed, r.max_error) for r in second
        ]

    def test_sorted_by_name(self):
        names = [r.name for r in run_property_suite(7)]
        assert names == sorted(names)

    def test_substituted_map_member_breaks_linearization(self):
        reports = run_property_suite(7, cayley_kappa=2.0)
        assert [r.name for r in reports if not r.passed] == ["cayley-surprisal-linearization"]

    def test_zero_tolerance_breaks_finite_difference_reports(self):
        reports = run_property_suite(7, fd_rel_tol=0.0)
        assert [r.name for r in reports if not r.passed] == ["fd-gradient-dynamic", "fd-gradient-static"]

    def test_json_serialization_schema(self):
        reports = run_property_suite(7)
        decoded = json.loads(reports_to_json(reports))
        assert isinstance(decoded, list)
        for item in decoded:
            assert set(item) == {"name", "passed", "max_error", "detail"}
