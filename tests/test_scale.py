"""Prize-scale covariance.

A spec with costs k*c and prize k*V is the game (c, V) in other units: its
equilibria, certificates and dynamics must not depend on k, and utilities
and slacks scale by k. Each named test below is a case that absolute
tolerances used to get wrong.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contesteq import (
    ContestSpec,
    DynamicsConfig,
    enumerate_equilibria,
    invert_share_weight,
    run_dynamics,
    share_weight,
    solve_equilibrium,
    verify_equilibrium,
)

HARMONIC10 = tuple(i / (i + 1) for i in range(1, 11))
DETERRENCE = (math.sqrt(0.5), 1.0, 1.0, 1.0)


def scaled(costs, k, alpha=1.0):
    return ContestSpec(costs=tuple(k * c for c in costs), alpha=alpha,
                       prize=k)


class TestRegressions:
    def test_deterrence_at_prize_1e8_returns_its_three_pairs(self):
        eqs = enumerate_equilibria(scaled(DETERRENCE, 1e8, alpha=2.0))
        assert sorted(eq.participants for eq in eqs) == [
            (1, 2), (1, 3), (2, 3)
        ]
        for eq in eqs:
            assert eq.certificate.certified
            assert 0 in eq.certificate.marginal_miners

    def test_no_spurious_pair_at_prize_1e_minus_8(self):
        costs = (1.0, 1.2, 1.5)
        unit = enumerate_equilibria(ContestSpec(costs=costs, alpha=1.3))
        tiny = enumerate_equilibria(scaled(costs, 1e-8, alpha=1.3))
        assert [eq.participants for eq in unit] == [(0, 1)]
        assert [eq.participants for eq in tiny] == [(0, 1)]

    def test_profile_off_equilibrium_rejected_at_prize_1e_minus_8(self):
        spec = scaled(HARMONIC10, 1e-8)
        eq = solve_equilibrium(spec)
        assert verify_equilibrium(spec, eq.investments).certified
        off = tuple(1.3 * q for q in eq.investments)
        cert = verify_equilibrium(spec, off)
        assert not cert.certified
        # slacks are reported in caller units: a few percent of the prize
        assert -0.1 * spec.prize < cert.worst_slack < -1e-3 * spec.prize

    def test_dynamics_on_harmonic10_at_prize_1e8_converges(self):
        spec = scaled(HARMONIC10, 1e8)
        start = tuple(0.05 + 0.1 * i for i in range(10))
        t = run_dynamics(spec, DynamicsConfig(initial_profile=start))
        assert t.status == "converged"
        assert t.certificate.certified
        q_star = solve_equilibrium(spec).investments
        assert t.terminal == pytest.approx(q_star, abs=1e-8)

    def test_closed_form_certifies_at_prize_1e6_to_1e8(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            k = 10.0 ** rng.uniform(6.0, 8.0)
            costs = tuple(rng.uniform(0.5, 1.5, n))
            spec = scaled(costs, k)
            q = solve_equilibrium(spec).investments
            cert = verify_equilibrium(spec, q)
            assert cert.certified, (costs, k, cert.worst_slack)

    @pytest.mark.parametrize("solve, alpha", [
        (enumerate_equilibria, 1.5), (solve_equilibrium, 1.0)])
    def test_cost_over_prize_overflow_names_the_unit_game(self, solve, alpha):
        spec = ContestSpec((1e300, 2e300, 3e300), alpha=alpha, prize=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            with pytest.raises(ValueError, match="costs / prize leaves the "
                               "float range of the unit-prize game"):
                solve(spec)


scale = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
cost_lists = st.lists(st.floats(0.5, 2.0), min_size=2, max_size=4)


class TestInvariance:
    @settings(max_examples=25)
    @given(costs=cost_lists, k=scale)
    def test_proportional_solve_and_verify(self, costs, k):
        base = solve_equilibrium(ContestSpec(costs=tuple(costs)))
        spec = scaled(costs, k)
        eq = solve_equilibrium(spec)
        assert eq.participants == base.participants
        assert eq.investments == pytest.approx(base.investments, rel=1e-12,
                                               abs=1e-15)
        assert verify_equilibrium(spec, eq.investments).certified
        off = tuple(1.3 * q for q in eq.investments)
        unit_cert = verify_equilibrium(ContestSpec(costs=tuple(costs)), off)
        cert = verify_equilibrium(spec, off)
        assert cert.certified == unit_cert.certified
        assert cert.worst_slack == pytest.approx(k * unit_cert.worst_slack,
                                                 rel=1e-6)

    @settings(max_examples=25)
    @given(costs=cost_lists, alpha=st.floats(1.1, 2.0), k=scale)
    def test_enumerate(self, costs, alpha, k):
        base = enumerate_equilibria(ContestSpec(costs=tuple(costs),
                                                alpha=alpha))
        eqs = enumerate_equilibria(scaled(costs, k, alpha))
        assert [e.participants for e in eqs] == [
            e.participants for e in base
        ]
        for e, b in zip(eqs, base):
            assert e.investments == pytest.approx(b.investments, rel=1e-9,
                                                  abs=1e-12)
            assert e.certificate.worst_slack == pytest.approx(
                k * b.certificate.worst_slack, rel=1e-6, abs=1e-9 * k)

    @settings(max_examples=15)
    @given(costs=cost_lists, k=scale,
           start=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
    def test_dynamics(self, costs, k, start):
        config = DynamicsConfig(initial_profile=tuple(start[:len(costs)]))
        base = run_dynamics(ContestSpec(costs=tuple(costs)), config)
        t = run_dynamics(scaled(costs, k), config)
        assert t.status == base.status
        assert t.terminal == pytest.approx(base.terminal, rel=1e-6,
                                           abs=1e-9)


class TestShareSum:
    @given(costs=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=6),
           alpha=st.floats(1.05, 2.0),
           t=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=2))
    def test_share_sum_decreases_in_the_power_scale(self, costs, alpha, t):
        # the fact solve_for_set's bisection on s relies on
        s_max = alpha * share_weight(1 - 1 / alpha, alpha) / max(costs)

        def share_sum(s):
            return sum(invert_share_weight(c * s / alpha, alpha)
                       for c in costs)

        lo, hi = sorted(t)
        assert share_sum(lo * s_max) >= share_sum(hi * s_max) - 1e-12
