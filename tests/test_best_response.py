import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from contesteq import (
    NoBestResponse,
    best_response_eos,
    best_response_proportional,
    grid_oracle,
)
from contesteq.best_response import TIE_TOL
from scalar_oracle import (convexity_crossover, entry_cost,
                           reference_best_response_eos, utility_against)


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


def decision(result):
    """enter, abstain, or both: the maximizer count and whether 0 is one."""
    maximizers = result.optimal_investments
    return len(maximizers), maximizers[0] == 0.0


class TestAgainstTheBisectionOracle:
    @settings(max_examples=400)
    @given(excess=st.floats(-12.0, math.log10(3.0)),
           cost=st.floats(-3.0, 3.0), opposition=st.floats(-6.0, 6.0))
    def test_same_decision_and_candidate(self, excess, cost, opposition):
        """alpha - 1 log-uniform over [1e-12, 3], so alpha > 2 reaches the
        roots beyond 1/cost; cost and opposition power log-uniform."""
        alpha, cost, a = 1.0 + 10.0**excess, 10.0**cost, 10.0**opposition
        fast = best_response_eos(cost, alpha, a)
        ref = reference_best_response_eos(cost, alpha, a)
        if abs(cost / entry_cost(alpha, a) - 1.0) > 1e-12:
            assert (fast.interior_candidate is None) == (
                ref.interior_candidate is None)
        if ref.interior_candidate is None:
            u = -math.inf
        else:
            u = utility_against(ref.interior_candidate, cost, alpha, a)
        if abs(abs(u) - TIE_TOL) > TIE_TOL:
            assert decision(fast) == decision(ref), u
        if None not in (fast.interior_candidate, ref.interior_candidate):
            assert fast.interior_candidate == pytest.approx(
                ref.interior_candidate, rel=1e-9)


class TestFloatRange:
    """Finite inputs get an answer or a ValueError naming the range, with
    no OverflowError and no numpy RuntimeWarning."""

    def test_tiny_cost_takes_the_whole_prize(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = best_response_eos(1e-300, 1.5, 1.0)
        # at share 1 the first-order condition gives
        # 1 - x = (cost/alpha)**(alpha/(alpha+1)) * a**(1/(alpha+1)) and
        # q = (a/(1 - x))**(1/alpha)
        gap = (1e-300 / 1.5) ** 0.6
        assert result.optimal_investments == (result.interior_candidate,)
        assert result.interior_candidate == pytest.approx(gap ** (-1 / 1.5),
                                                          rel=1e-12)
        assert result.interior_candidate == pytest.approx(1.176e120,
                                                          rel=1e-3)
        assert result.optimal_utility == 1.0

    def test_tiny_cost_against_huge_opposition_answers(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = best_response_eos(1e-300, 1.5, 1e300)
        log_gap = 0.6 * math.log(1e-300 / 1.5) + 0.4 * math.log(1e300)
        assert result.optimal_investments == (result.interior_candidate,)
        assert math.log(result.interior_candidate) == pytest.approx(
            (math.log(1e300) - log_gap) / 1.5, rel=1e-12)
        assert result.optimal_utility == 1.0

    def test_response_beyond_the_float_range_is_named(self):
        # the response is near 1e314: entering wins nearly the whole prize,
        # so abstaining is no answer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="best response leaves the "
                               "float range"):
                best_response_eos(5e-324, 1.01, 1e308)


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
    """The numeric crossover of the test oracle against the closed form
    (alpha - 1) / (2 * alpha) that the kernel's abstention screen uses."""

    @pytest.mark.parametrize("alpha, expected", [
        (2.0, 0.25),
        (1.5, 1 / 6),
        (1.01, 0.01 / 2.02),
    ])
    def test_crossover_share(self, alpha, expected):
        found = convexity_crossover(1.0, alpha, 1.0)
        assert found == pytest.approx(expected, abs=1e-4)
        assert expected == pytest.approx((alpha - 1) / (2 * alpha), abs=1e-15)

    def test_crossover_is_opposition_invariant(self):
        a_small = convexity_crossover(1.0, 1.5, 0.1)
        a_large = convexity_crossover(1.0, 1.5, 5.0)
        assert a_small == pytest.approx(a_large, abs=1e-4)

    def test_alpha_one_rejected(self):
        # utility is concave everywhere at alpha = 1: no convex side
        with pytest.raises(ArithmeticError, match="not bracketed"):
            convexity_crossover(1.0, 1.0, 1.0)


#: each oracle as f(cost, opposition), at alpha 1.5 when it takes one, and
#: its message for a negative opposition
CHECKED_ORACLES = [
    (best_response_proportional, "opposition must be >= 0"),
    (lambda c, a: best_response_eos(c, 1.5, a), "opposition must be >= 0"),
    (lambda c, a: grid_oracle(c, 1.5, a), "opposition power must be >= 0"),
]


class TestInputChecks:
    @pytest.mark.parametrize("oracle, _", CHECKED_ORACLES)
    def test_nonpositive_cost(self, oracle, _):
        with pytest.raises(ValueError,
                           match="cost and prize must be positive"):
            oracle(0.0, 1.0)

    @pytest.mark.parametrize("oracle, message", CHECKED_ORACLES)
    def test_negative_opposition(self, oracle, message):
        with pytest.raises(ValueError, match=message):
            oracle(1.0, -1.0)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: best_response_proportional(math.nan, 1.0),
                     "cost must not be NaN", id="proportional-cost"),
        pytest.param(lambda: best_response_proportional(1.0, math.nan),
                     "opposition must not be NaN",
                     id="proportional-opposition"),
        pytest.param(lambda: best_response_proportional(1.0, 1.0, math.nan),
                     "prize must not be NaN", id="proportional-prize"),
        pytest.param(lambda: best_response_eos(math.nan, 1.5, 1.0),
                     "cost must not be NaN", id="eos-cost"),
        pytest.param(lambda: best_response_eos(1.0, 1.5, math.nan),
                     "opposition must not be NaN", id="eos-opposition"),
        pytest.param(lambda: best_response_eos(1.0, math.nan, 1.0),
                     "alpha nan is not finite", id="eos-nan-alpha"),
        pytest.param(lambda: best_response_eos(1.0, math.inf, 1.0),
                     "alpha inf is not finite", id="eos-infinite-alpha"),
        pytest.param(lambda: grid_oracle(math.nan, 1.5, 1.0, grid_step=0.1),
                     "cost must not be NaN", id="grid-cost"),
        pytest.param(lambda: grid_oracle(1.0, 1.5, math.nan, grid_step=0.1),
                     "opposition power must not be NaN", id="grid-opposition"),
        pytest.param(lambda: grid_oracle(1.0, 1.5, 1.0, grid_step=0.1,
                                         prize=math.nan),
                     "prize must not be NaN", id="grid-prize"),
    ])
    def test_nan_arguments_and_a_non_finite_alpha_are_named(self, call,
                                                            message):
        # each used to abstain, return nan, or name the float range
        with pytest.raises(ValueError, match=message):
            call()

    def test_infinite_opposition_still_abstains(self):
        result = best_response_eos(1.0, 1.5, math.inf)
        assert (result.optimal_investments, result.optimal_utility,
                result.interior_candidate) == ((0.0,), 0.0, None)
