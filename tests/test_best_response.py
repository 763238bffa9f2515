import math
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from contesteq import (
    NoBestResponse,
    best_response_eos,
    best_response_proportional,
    grid_oracle,
)
from contesteq.best_response import _GRID_BLOCK, TIE_TOL
from scalar_oracle import (convexity_crossover, entry_cost,
                           reference_best_response_eos, utility_against,
                           whole_grid_oracle)


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


@st.composite
def grid_cases(draw):
    """Arguments (cost, alpha, opposition power, grid_step, prize) of
    grid_oracle. The step sets the point count n = ceil((prize/cost + step)
    / step): k*B - 1, k*B or k*B + 1 for the block size B, or any count up
    to 3*B + 1, or the default step's 1e6 points. Prizes run from 1e-8 to
    1e8, and alpha is 1 or in (1, 2.5], except where a case needs more:
    - "last": alpha in [4, 8] puts the maximum in the last block;
    - "tie": a subnormal prize rounds utility to a few values, so the
      maximum repeats over q in [0.18, 0.26] at least, across the block
      boundary at q = 1/4;
    - "nan": powers overflow to inf from a point in block 1 to 3, most
      often its first, and inf / inf gives a NaN utility there.
    Zero and infinite oppositions are drawn among the others."""
    b = _GRID_BLOCK
    kind = draw(st.sampled_from(["count", "count", "last", "tie", "nan",
                                 "default"]))
    prize = 10.0 ** draw(st.floats(-8.0, 8.0))
    cost = prize * 10.0 ** draw(st.floats(-3.0, 3.0))
    alpha = draw(st.one_of(st.just(1.0), st.floats(1.0, 2.5,
                                                   exclude_min=True)))
    n = draw(st.one_of(
        st.builds(lambda k, d: k * b + d, st.integers(1, 3),
                  st.sampled_from([-1, 0, 1])),
        st.integers(2, 3 * b + 1)))
    if kind == "last":
        k = draw(st.sampled_from([2, 3]))
        n, alpha = k * b - 1, draw(st.floats(4.0, 8.0))
        # the stationary point at share x sits at r = alpha * x * (1 - x)
        # of prize/cost, with positive utility for x > 1 - 1/alpha
        r = draw(st.floats((k - 1) / k + 0.02, 1.0 - 1.0 / alpha - 0.01))
        x = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * r / alpha))
        opposition = (r * prize / cost) ** alpha * (1.0 - x) / x
    elif kind == "tie":
        prize = cost = draw(st.sampled_from([1e-322, 3e-322]))
        alpha, opposition = 1.0, 0.5
        n = 4 * b + draw(st.sampled_from([-1, 0, 1]))
    elif kind == "nan":
        onset = draw(st.integers(1, 3)) * b + draw(st.sampled_from(
            [0, 0, 1, draw(st.integers(2, b - 1))]))
        n, alpha = onset + draw(st.integers(1, b)), draw(st.floats(1.2, 3.0))
        # q**alpha overflows just past sys.float_info.max**(1/alpha)
        step = sys.float_info.max ** (1.0 / alpha) * (1.0 + 1e-12) / onset
        cost = prize / ((n - 1.5) * step)
        opposition = 10.0 ** draw(st.floats(-8.0, 300.0))
        return cost, alpha, opposition, step, prize
    else:
        opposition = draw(st.sampled_from([
            0.0, math.inf, (prize / cost) ** alpha
            * 10.0 ** draw(st.floats(-4.0, 2.0))]))
    if kind == "default":
        return cost, alpha, opposition, None, prize
    return cost, alpha, opposition, prize / cost / (n - 1.5), prize


#: the maximum at points B - 1 and B, and at thousands more on both sides
TIED_ACROSS_A_BOUNDARY = (1e-322, 1.0, 0.5, 1.0 / (4 * _GRID_BLOCK - 1.5),
                          1e-322)
#: q**2 overflows from point B on, where the first NaN utility is
_ONSET_STEP = math.sqrt(sys.float_info.max) * (1.0 + 1e-12) / _GRID_BLOCK
NAN_FROM_A_BLOCK_START = (1.0, 2.0, 1.0, _ONSET_STEP,
                          (_GRID_BLOCK + 8.5) * _ONSET_STEP)


def _outcome(oracle, case):
    """The repr of the oracle's result, or its ValueError text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return repr(oracle(*case))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestGridOracle:
    @settings(max_examples=300)
    @given(case=grid_cases())
    @example(case=TIED_ACROSS_A_BOUNDARY)
    @example(case=NAN_FROM_A_BLOCK_START)
    def test_block_scan_equals_the_whole_array_scan(self, case):
        assert _outcome(grid_oracle, case) == _outcome(whole_grid_oracle,
                                                       case)

    def test_scan_memory_stays_within_a_few_blocks(self):
        # the whole-array scan of these 1e6 points peaks near 30 MB
        tracemalloc.start()
        try:
            grid_oracle(1.1, 1.3, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(prize=1e200, cost=1e-200), id="overflow"),
        pytest.param(dict(prize=1e-100, cost=1e300), id="underflow"),
        pytest.param(dict(prize=1e-100, cost=1e300, grid_step=0.1),
                     id="underflow-with-step"),
    ])
    def test_costs_over_prize_outside_the_float_range_are_named(self,
                                                                kwargs):
        # these raised numpy's arange error, a grid_step error, or
        # returned (0.0,) at utility 0
        with pytest.raises(ValueError, match="leaves the float range"):
            grid_oracle(alpha=1.5, opposition_power=1.0, **kwargs)

    @pytest.mark.parametrize("step, prize", [
        pytest.param(math.nan, 1.0, id="nan"),
        pytest.param(math.inf, 1.0, id="inf"),
        pytest.param(1e-300, 1.0, id="beyond-2**60-points"),
        pytest.param(1e308, 1e308, id="length-overflows"),
    ])
    def test_non_finite_or_too_fine_steps_are_named(self, step, prize):
        # these raised numpy's "arange: cannot compute length" or
        # "Maximum allowed size exceeded"
        with pytest.raises(ValueError, match="grid_step must be positive "
                                             "and finite, with fewer than"):
            grid_oracle(1.0, 1.5, 1.0, grid_step=step, prize=prize)

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
        pytest.param(lambda: grid_oracle(1.0, math.nan, 1.0, grid_step=0.1),
                     "alpha nan is not finite", id="grid-nan-alpha"),
        pytest.param(lambda: grid_oracle(1.0, math.inf, 1.0, grid_step=0.1),
                     "alpha inf is not finite", id="grid-infinite-alpha"),
        pytest.param(lambda: grid_oracle(1.0, -math.inf, 1.0,
                                         grid_step=0.1),
                     "alpha -inf is not finite", id="grid-minus-inf-alpha"),
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
        scan = grid_oracle(1.0, 1.5, math.inf, grid_step=0.1)
        assert (scan.optimal_investments, scan.optimal_utility) == ((0.0,),
                                                                    0.0)
