import math

import pytest
from hypothesis import given, settings, strategies as st

from contesteq import (
    NoBestResponse,
    best_response_eos,
    best_response_proportional,
    convexity_profile,
    grid_oracle,
)


class TestProportionalClosedForm:
    def test_interior_optimum(self):
        # oracle agreement is asserted at grid resolution
        result = best_response_proportional(1.0, 0.25)
        assert result.optimal_investments == (0.25,)
        assert result.optimal_utility == pytest.approx(0.25, abs=1e-12)
        check = grid_oracle(1.0, 1.0, 0.25, grid_step=1e-6)
        assert abs(check.optimal_investments[0] - 0.25) <= 1e-6
        assert check.optimal_utility == pytest.approx(0.25, abs=1e-8)

    def test_boundary_zero(self):
        result = best_response_proportional(1.0, 1.0)
        assert result.optimal_investments == (0.0,)
        assert result.optimal_utility == 0.0

    def test_negative_candidate_clipped(self):
        result = best_response_proportional(1.0, 4.0)
        assert result.optimal_investments == (0.0,)
        assert result.interior_candidate is None

    def test_zero_opposition_signalled(self):
        with pytest.raises(NoBestResponse):
            best_response_proportional(1.0, 0.0)

    def test_zero_exactly_when_opposition_reaches_prize_over_cost(self):
        cost, prize = 0.8, 2.0
        edge = prize / cost
        assert best_response_proportional(cost, edge, prize).optimal_investments == (0.0,)
        below = best_response_proportional(cost, edge * (1 - 1e-3), prize)
        assert below.optimal_investments[-1] > 0.0
        above = best_response_proportional(cost, edge * (1 + 1e-3), prize)
        assert above.optimal_investments == (0.0,)

    @given(
        cost=st.floats(0.2, 5.0),
        opposition=st.floats(1e-6, 10.0),
        delta=st.floats(1e-9, 1e-3),
    )
    def test_continuity_in_opposition(self, cost, opposition, delta):
        # |BR(R+d) - BR(R)| is bounded by the sup of |d BR/d R| on [R, R+d]
        q0 = best_response_proportional(cost, opposition).optimal_investments[-1]
        q1 = best_response_proportional(cost, opposition + delta).optimal_investments[-1]
        slope_cap = 0.5 / math.sqrt(opposition * cost) + 1.0
        assert abs(q1 - q0) <= delta * slope_cap * (1 + 1e-9) + 1e-15


class TestEosBestResponse:
    def test_example_pair_ties_with_abstention(self):
        # one opponent at 1/2, alpha = 2, unit cost: {0, 1/2} both optimal
        result = best_response_eos(1.0, 2.0, 0.25)
        assert result.optimal_investments == pytest.approx((0.0, 0.5), abs=1e-10)
        assert result.optimal_utility == pytest.approx(0.0, abs=1e-12)

    def test_deterrence_cost_is_indifferent(self):
        # cost (1 - 1/2)**(1/2) against two miners at 1/2 under alpha = 2
        cost = math.sqrt(0.5)
        result = best_response_eos(cost, 2.0, 2 * 0.25)
        assert len(result.optimal_investments) == 2
        assert result.optimal_investments[0] == 0.0
        assert result.optimal_utility == pytest.approx(0.0, abs=1e-12)

    def test_matches_grid_oracle(self):
        result = best_response_eos(1.0, 1.5, 0.3)
        check = grid_oracle(1.0, 1.5, 0.3, grid_step=1e-6)
        assert abs(result.optimal_investments[-1]
                   - check.optimal_investments[0]) <= 1e-4
        assert result.optimal_utility >= check.optimal_utility - 1e-8

    def test_zero_opposition_signalled(self):
        with pytest.raises(NoBestResponse):
            best_response_eos(1.0, 1.5, 0.0)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            best_response_eos(1.0, 1.0, 0.5)

    def test_abstains_when_opposition_deters_entry(self):
        result = best_response_eos(1.0, 1.7, 0.6)
        assert result.optimal_investments == (0.0,)
        assert result.interior_candidate is None

    def test_stationarity_and_concavity_at_interior_maximizer(self):
        for alpha, a in [(1.3, 0.2), (1.7, 0.2), (2.0, 0.1)]:
            result = best_response_eos(1.0, alpha, a)
            q = result.interior_candidate
            assert q is not None
            x = q**alpha / (q**alpha + a)
            marginal = alpha * x * (1 - x) / q - 1.0
            assert abs(marginal) <= 1e-9
            h = 1e-5 * q
            u = lambda v: v**alpha / (v**alpha + a) - v
            second = u(q + h) - 2 * u(q) + u(q - h)
            assert second <= 0.0

    @settings(max_examples=60)
    @given(cost=st.floats(0.2, 5.0), alpha=st.floats(1.05, 2.5),
           opposition=st.floats(0.01, 10.0), e=st.floats(-12.0, 12.0))
    def test_covariant_in_the_cost_scale(self, cost, alpha, opposition, e):
        # cost x k is the same game with investments / k, so opposition
        # power / k**alpha; the response scales by 1/k, utility not at all
        k = 10.0**e
        base = best_response_eos(cost, alpha, opposition)
        scaled = best_response_eos(k * cost, alpha, opposition / k**alpha)
        assert scaled.optimal_utility == pytest.approx(base.optimal_utility,
                                                       rel=1e-9, abs=1e-12)
        assert k * max(scaled.optimal_investments) == pytest.approx(
            max(base.optimal_investments), rel=1e-9)


class TestGridOracle:
    @settings(max_examples=60)
    @given(
        cost=st.floats(0.5, 2.0),
        opposition=st.floats(0.05, 2.0),
        alpha=st.floats(1.0, 2.0),
    )
    def test_analytic_never_loses_to_brute_force(self, cost, opposition, alpha):
        if alpha == 1.0:
            result = best_response_proportional(cost, opposition)
        else:
            result = best_response_eos(cost, alpha, opposition)
        check = grid_oracle(cost, alpha, opposition, grid_step=1e-4 / cost)
        assert result.optimal_utility >= check.optimal_utility - 1e-8

    def test_oracle_self_consistency_proportional(self):
        check = grid_oracle(1.0, 1.0, 0.25, grid_step=1e-6)
        assert abs(check.optimal_investments[0] - 0.25) <= 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            grid_oracle(1.0, 1.0, 0.5, grid_step=0.0)

    def test_zero_opposition_is_not_an_error_for_brute_force(self):
        # the analytic oracles signal; the scan just reports the smallest
        # positive point, approaching the unattained supremum
        result = grid_oracle(1.0, 1.0, 0.0, grid_step=1e-3)
        assert result.optimal_investments == (1e-3,)
        assert result.optimal_utility == pytest.approx(1.0 - 1e-3)


class TestConvexityProfile:
    @pytest.mark.parametrize("alpha, expected", [
        (2.0, 0.25),
        (1.5, 1 / 6),
        (1.01, 0.01 / 2.02),
    ])
    def test_crossover_share(self, alpha, expected):
        found = convexity_profile(1.0, alpha, 1.0)
        assert found == pytest.approx(expected, abs=1e-4)
        assert expected == pytest.approx((alpha - 1) / (2 * alpha), abs=1e-15)

    def test_crossover_is_opposition_invariant(self):
        a_small = convexity_profile(1.0, 1.5, 0.1)
        a_large = convexity_profile(1.0, 1.5, 5.0)
        assert a_small == pytest.approx(a_large, abs=1e-4)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            convexity_profile(1.0, 1.0, 1.0)
