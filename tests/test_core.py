import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contesteq import (
    ContestSpec,
    MarketShares,
    concentration,
    marginal_share,
    shares,
    utility,
    verify_equilibrium,
)
from contesteq.core import unit_costs

investment = st.floats(1e-3, 10.0)


def finite_difference_share(spec, q, i, h=None):
    """Independent oracle: central difference of shares() in q_i."""
    if h is None:
        h = 1e-6 * max(q[i], 1.0)
    up = list(q)
    down = list(q)
    up[i] += h
    down[i] -= h
    x_up = shares(spec, up).shares[i]
    x_down = shares(spec, down).shares[i]
    return (x_up - x_down) / (2.0 * h)


class TestContestSpec:
    def test_rejects_single_miner(self):
        with pytest.raises(ValueError):
            ContestSpec(costs=(1.0,))

    @pytest.mark.parametrize("bad", [
        {"costs": (1.0, -1.0)},
        {"costs": (1.0, 0.0)},
        {"costs": (1.0, math.nan)},
        {"costs": (1.0, 1.0), "alpha": 0.5},
        {"costs": (1.0, 1.0), "prize": 0.0},
        {"costs": (1.0, 1.0), "prize": -2.0},
    ])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ValueError):
            ContestSpec(**bad)


class TestShares:
    def test_symmetric_quarter(self):
        spec = ContestSpec(costs=(1.0,) * 4)
        assert shares(spec, (1.0, 1.0, 1.0, 1.0)).shares == (0.25,) * 4

    def test_all_zero_profile_has_zero_shares(self):
        spec = ContestSpec(costs=(1.0, 2.0, 3.0), alpha=1.7)
        assert shares(spec, (0.0, 0.0, 0.0)) == MarketShares((0.0, 0.0, 0.0))

    def test_example_pair_at_alpha_two(self):
        spec = ContestSpec(costs=(1.0, 1.0, 1.0, 1.0), alpha=2.0)
        x = shares(spec, (0.5, 0.5, 0.0, 0.0)).shares
        assert x == (0.5, 0.5, 0.0, 0.0)

    def test_dimension_mismatch(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        with pytest.raises(ValueError):
            shares(spec, (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [(1.0, -0.5), (1.0, math.inf)])
    def test_invalid_investments(self, bad):
        spec = ContestSpec(costs=(1.0, 1.0))
        with pytest.raises(ValueError):
            shares(spec, bad)

    def test_extreme_magnitudes_stay_normalized(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=2.0)
        x = shares(spec, (1e-200, 1e-200)).shares
        assert x == (0.5, 0.5)

    def test_extreme_spread_does_not_overflow(self):
        # (1e200)**2 overflows a float; shares are computed on q / max(q)
        spec = ContestSpec(costs=(1.0, 1.0), alpha=2.0)
        assert shares(spec, (1e200, 1e-200)).shares == (1.0, 0.0)

    @given(
        q=st.lists(investment, min_size=2, max_size=8),
        alpha=st.floats(1.0, 2.0),
    )
    def test_shares_sum_to_one(self, q, alpha):
        spec = ContestSpec(costs=(1.0,) * len(q), alpha=alpha)
        assert abs(sum(shares(spec, q).shares) - 1.0) <= 1e-12


class TestUtility:
    def test_equilibrium_pair_earns_zero(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=2.0)
        assert utility(spec, (0.5, 0.5), 0) == 0.0

    def test_all_zero_profile(self):
        spec = ContestSpec(costs=(1.0, 2.0), alpha=1.5)
        assert utility(spec, (0.0, 0.0), 0) == 0.0

    def test_symmetric_four_miners(self):
        spec = ContestSpec(costs=(1.0,) * 4)
        u = utility(spec, (3 / 16,) * 4, 0)
        assert abs(u - 1 / 16) < 1e-15

    def test_index_out_of_range(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        with pytest.raises(IndexError):
            utility(spec, (1.0, 1.0), 2)

    @pytest.mark.parametrize("function", [utility, marginal_share])
    @pytest.mark.parametrize("i", [True, 1.0, np.True_])
    def test_index_that_is_no_integer(self, function, i):
        # True raised numpy's "only 0-dimensional arrays can be converted"
        spec = ContestSpec(costs=(1.0, 1.0))
        with pytest.raises(TypeError, match="^miner index must be an int, not "):
            function(spec, (1.0, 1.0), i)

    def test_numpy_integer_index(self):
        spec = ContestSpec(costs=(1.0, 2.0))
        assert utility(spec, (1.0, 1.0), np.int64(1)) == utility(
            spec, (1.0, 1.0), 1)

    @given(
        q=st.lists(investment, min_size=2, max_size=6),
        prize=st.floats(0.1, 100.0),
    )
    def test_prize_scaling_equivalence(self, q, prize):
        # prize V with costs c is V times the unit-prize game at costs c/V
        costs = tuple(0.5 + 0.1 * i for i in range(len(q)))
        scaled = ContestSpec(costs=costs, prize=prize)
        unit = ContestSpec(costs=tuple(c / prize for c in costs), prize=1.0)
        for i in range(len(q)):
            u_scaled = utility(scaled, q, i)
            u_unit = utility(unit, q, i)
            assert u_scaled == pytest.approx(prize * u_unit, abs=1e-12, rel=1e-12)

    @settings(max_examples=300)
    @given(st.data())
    def test_equals_the_certificate_bit_for_bit(self, data):
        # costs, prize and investments log-uniform on 1e-3..1e3, or on
        # 1e-300..1e300 so that c / prize can leave the float range
        span = data.draw(st.sampled_from([3.0, 300.0]))
        magnitude = st.floats(-span, span).map(lambda e: 10.0 ** e)
        n = data.draw(st.integers(2, 6))
        costs = data.draw(st.lists(magnitude, min_size=n, max_size=n))
        q = data.draw(st.lists(st.just(0.0) | magnitude, min_size=n,
                               max_size=n))
        alpha = data.draw(st.just(1.0) | st.floats(1.0, 2.0, exclude_min=True))
        spec = ContestSpec(tuple(costs), alpha, data.draw(magnitude))
        try:
            unit_costs(spec)
        except ValueError as exc:
            message = re.escape(str(exc))
            with pytest.raises(ValueError, match=message):
                verify_equilibrium(spec, q)
            for i in range(n):
                with pytest.raises(ValueError, match=message):
                    utility(spec, q, i)
            return
        try:
            cert = verify_equilibrium(spec, q)
        except ValueError:  # a power beyond the float range
            return
        assert [utility(spec, q, i).hex() for i in range(n)] == [
            v.utility.hex() for v in cert.verdicts]


class TestMarginalShare:
    def test_proportional_pair(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        assert marginal_share(spec, (1.0, 1.0), 0) == 0.25

    def test_alpha_two_pair(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=2.0)
        exact = marginal_share(spec, (0.5, 0.5), 0)
        assert exact == pytest.approx(1.0, abs=1e-12)
        fd = finite_difference_share(spec, (0.5, 0.5), 0)
        assert fd == pytest.approx(exact, rel=1e-4)

    def test_intermediate_alpha_triple(self):
        spec = ContestSpec(costs=(1.0,) * 3, alpha=1.5)
        q = (1 / 3, 1 / 3, 1 / 3)
        exact = marginal_share(spec, q, 0)
        assert exact == pytest.approx(1.0, abs=1e-12)
        assert finite_difference_share(spec, q, 0) == pytest.approx(exact, rel=1e-4)

    def test_zero_investment_allowed_when_proportional(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        assert marginal_share(spec, (0.0, 2.0), 0) == 0.5

    def test_zero_investment_rejected_for_scale_economies(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=1.5)
        with pytest.raises(ValueError):
            marginal_share(spec, (0.0, 2.0), 0)

    def test_all_zero_profile_rejected(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        with pytest.raises(ValueError):
            marginal_share(spec, (0.0, 0.0), 0)

    @pytest.mark.parametrize("i", [2, -1])
    def test_index_out_of_range(self, i):
        spec = ContestSpec(costs=(1.0, 1.0))
        with pytest.raises(IndexError, match=re.escape(
                f"miner index {i} out of range for n=2")):
            marginal_share(spec, (1.0, 1.0), i)

    @given(
        qi=investment,
        opposition=st.floats(0.1, 10.0),
        alpha=st.floats(1.0, 2.0),
    )
    def test_matches_finite_difference(self, qi, opposition, alpha):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=alpha)
        exact = marginal_share(spec, (qi, opposition), 0)
        fd = finite_difference_share(spec, (qi, opposition), 0)
        assert fd == pytest.approx(exact, rel=1e-4)


class TestConcentration:
    def test_symmetric_hhi(self):
        spec = ContestSpec(costs=(1.0,) * 4)
        report = concentration(spec, (1.0,) * 4)
        assert report.hhi == pytest.approx(0.25, abs=1e-15)
        assert report.participant_count == 4

    def test_participants_and_top_share(self):
        spec = ContestSpec(costs=(1.0, 1.0, 1.0), alpha=2.0)
        report = concentration(spec, (0.5, 0.5, 0.0))
        assert report.participant_count == 2
        assert report.top_k_shares[0] == 0.5

    def test_rent_dissipation(self):
        spec = ContestSpec(costs=(2.0, 3.0), prize=4.0)
        report = concentration(spec, (1.0, 2.0))
        assert report.rent_dissipation == pytest.approx((2.0 + 6.0) / 4.0)

    @given(q=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=10),
           alpha=st.floats(1.0, 2.0))
    def test_top_k_monotone_and_complete(self, q, alpha):
        spec = ContestSpec(costs=(1.0,) * len(q), alpha=alpha)
        report = concentration(spec, q)
        top = report.top_k_shares
        assert all(a <= b + 1e-15 for a, b in zip(top, top[1:]))
        if any(v > 0 for v in q):
            assert top[-1] == pytest.approx(1.0, abs=1e-12)
            assert 1.0 / len(q) - 1e-12 <= report.hhi <= 1.0 + 1e-12

