import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contesteq import (
    ContestSpec,
    concentration,
    foc_residual,
    solve_equilibrium,
    solve_threshold,
    solve_threshold_bisection,
    threshold_function,
    utility,
)
from contesteq.roots import bisect_monotone

EXAMPLE1_COSTS = tuple(i / (i + 1) for i in range(1, 11))
EXAMPLE1_CSTAR = 4437 / 5040  # sum of the 7 cheapest costs divided by 6


def random_costs(rng, n):
    return tuple(np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)))


class TestThresholdFunction:
    def test_symmetric_pair(self):
        assert threshold_function((1.0, 1.0), 2.0) == 1.0

    def test_at_second_lowest_cost(self):
        costs = (0.4, 0.9, 1.3)
        assert threshold_function(costs, 0.9) == pytest.approx(1 - 0.4 / 0.9)

    def test_example_costs_at_threshold(self):
        assert threshold_function(EXAMPLE1_COSTS, EXAMPLE1_CSTAR) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            threshold_function((1.0, 2.0), 0.0)

    @given(c=st.floats(0.01, 50.0), scale=st.floats(1.001, 3.0))
    def test_nondecreasing(self, c, scale):
        costs = (0.5, 0.7, 1.1, 2.0)
        assert threshold_function(costs, c * scale) >= threshold_function(costs, c)


class TestSolveThreshold:
    @pytest.mark.parametrize("n", [2, 3, 7, 25])
    @pytest.mark.parametrize("c", [0.25, 1.0, 3.5])
    def test_symmetric_closed_form(self, n, c):
        expected = c * n / (n - 1)
        assert solve_threshold((c,) * n) == pytest.approx(expected, rel=1e-14)

    def test_example_one(self):
        c_star = solve_threshold(EXAMPLE1_COSTS)
        assert c_star == pytest.approx(EXAMPLE1_CSTAR, rel=1e-14)
        assert EXAMPLE1_COSTS[6] < c_star < EXAMPLE1_COSTS[7]

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_geometric_costs_all_participate(self, n):
        # costs approaching 1 leave X(1) < 1, so the threshold exceeds 1
        costs = tuple(1 - 2.0 ** (-i) for i in range(1, n + 1))
        assert solve_threshold(costs) > 1.0

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            costs = random_costs(rng, int(rng.integers(2, 30)))
            primary = solve_threshold(costs)
            oracle, _ = solve_threshold_bisection(costs)
            assert primary == pytest.approx(oracle, rel=1e-10)

    def test_rejects_single_cost(self):
        with pytest.raises(ValueError):
            solve_threshold((1.0,))

    @settings(max_examples=300)
    @given(st.lists(st.integers(1, 20), min_size=2, max_size=30))
    def test_prefix_scan_matches_bisection_on_tied_costs(self, ticks):
        # costs on a grid of 0.1 tie often, so rounded candidates land on
        # tied costs; the scan must still return the oracle's threshold
        costs = tuple(t / 10 for t in ticks)
        c_star = solve_threshold(costs)
        oracle, _ = solve_threshold_bisection(costs)
        assert abs(c_star - oracle) <= 1e-12 * oracle
        assert abs(threshold_function(costs, c_star) - 1.0) <= 1e-10
        eq = solve_equilibrium(ContestSpec(costs))
        assert (eq.c_star, eq.method, eq.iterations) == (
            c_star, "prefix-scan", 0)

    def test_threshold_on_a_tied_cost(self):
        # X(0.8) = 1 exactly, so c* equals the cost 0.8 and that miner
        # abstains; no candidate lies strictly above its own prefix's
        # largest cost once rounded, which once forced a bisection
        costs = (0.5, 0.6, 0.6, 0.7, 0.8, 0.9, 0.9)
        eq = solve_equilibrium(ContestSpec(costs))
        assert eq.c_star == 0.8
        assert eq.participants == (0, 1, 2, 3)
        assert (eq.method, eq.iterations) == ("prefix-scan", 0)
        assert eq.residual <= 1e-15
        oracle, _ = solve_threshold_bisection(costs)
        assert eq.c_star == pytest.approx(oracle, rel=1e-12)


class TestSolveEquilibrium:
    def test_symmetric_four(self):
        eq = solve_equilibrium(ContestSpec(costs=(1.0,) * 4))
        assert eq.investments == pytest.approx((3 / 16,) * 4, abs=1e-15)
        assert eq.shares == pytest.approx((0.25,) * 4, abs=1e-15)
        assert eq.participants == (0, 1, 2, 3)

    def test_example_one_shares(self):
        spec = ContestSpec(costs=EXAMPLE1_COSTS)
        eq = solve_equilibrium(spec)
        assert len(eq.participants) == 7
        assert eq.shares[0] == pytest.approx(1 - 0.5 / EXAMPLE1_CSTAR, rel=1e-12)
        assert eq.shares[0] > 3 / 7
        assert sum(eq.shares) == pytest.approx(1.0, abs=1e-12)
        assert eq.total_investment == pytest.approx(sum(eq.investments), rel=1e-12)
        assert concentration(spec, eq.investments).participant_count == 7

    def test_finite_prefix_closed_form(self):
        # c_i = 1 - 2**-(i+k): share has the explicit form below
        k, n = 1, 3
        costs = tuple(1 - 2.0 ** (-i - k) for i in range(1, n + 1))
        eq = solve_equilibrium(ContestSpec(costs=costs))
        assert eq.shares[0] == pytest.approx(1.0625 / 2.5625, rel=1e-12)
        denom = n - 2.0**-k + 2.0 ** (-k - n)
        for i in range(1, n + 1):
            expected = (1 - 2.0**-k + 2.0 ** (-k - n)
                        + (n - 1) * 2.0 ** (-i - k)) / denom
            assert eq.shares[i - 1] == pytest.approx(expected, abs=1e-12)

    def test_rejects_scale_economies(self):
        with pytest.raises(ValueError):
            solve_equilibrium(ContestSpec(costs=(1.0, 1.0), alpha=1.5))

    def test_threshold_boundary_cost_abstains(self):
        # third miner's cost equals c* of the first two: share exactly 0
        costs = (1.0, 1.0, 2.0)
        eq = solve_equilibrium(ContestSpec(costs=costs))
        assert eq.c_star == pytest.approx(2.0, rel=1e-14)
        assert eq.shares[2] == 0.0
        assert eq.participants == (0, 1)

    def test_duplicate_costs_form_blocks(self):
        eq = solve_equilibrium(ContestSpec(costs=(0.5, 0.5, 0.5, 4.0)))
        assert eq.participants == (0, 1, 2)
        assert eq.shares[0] == eq.shares[1] == eq.shares[2]

    def test_prize_scaling(self):
        costs = (0.6, 0.8, 1.0, 1.4)
        unit = solve_equilibrium(ContestSpec(costs=costs))
        scaled = solve_equilibrium(ContestSpec(costs=costs, prize=5.0))
        assert scaled.participants == unit.participants
        assert scaled.shares == pytest.approx(unit.shares, rel=1e-12)
        # investments scale with the prize; the reported threshold is for
        # effective costs c/prize, so it scales too
        assert scaled.investments == pytest.approx(
            tuple(5.0 * q for q in unit.investments), rel=1e-12
        )
        assert scaled.c_star == pytest.approx(unit.c_star / 5.0, rel=1e-12)
        assert scaled.total_investment == pytest.approx(
            1.0 / scaled.c_star, rel=1e-12
        )

    @given(lam=st.floats(0.01, 100.0))
    def test_cost_scaling_invariance(self, lam):
        base = (0.3, 0.45, 0.8, 1.7, 2.2)
        eq = solve_equilibrium(ContestSpec(costs=base))
        scaled = solve_equilibrium(
            ContestSpec(costs=tuple(lam * c for c in base))
        )
        assert scaled.c_star == pytest.approx(lam * eq.c_star, rel=1e-12)
        assert scaled.shares == pytest.approx(eq.shares, rel=1e-12, abs=1e-15)
        for qs, qu in zip(scaled.investments, eq.investments):
            assert qs == pytest.approx(qu / lam, rel=1e-12, abs=1e-18)


class TestFocResidual:
    def test_solved_equilibrium_has_zero_residuals(self):
        spec = ContestSpec(costs=EXAMPLE1_COSTS)
        eq = solve_equilibrium(spec)
        assert max(abs(r) for r in foc_residual(spec, eq.investments)) <= 1e-10

    def test_uniform_overinvestment_detected(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        residuals = foc_residual(spec, (1.0, 1.0))
        assert residuals == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_symmetric_pair_equilibrium(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        assert foc_residual(spec, (0.25, 0.25)) == pytest.approx(
            (0.0, 0.0), abs=1e-15
        )

    def test_zero_opposition_rejected(self):
        spec = ContestSpec(costs=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            foc_residual(spec, (1.0, 0.0, 0.0))


class TestEquilibriumProperties:
    """Randomized regression: the module-level invariants on a smaller draw
    than the acceptance suite's (which does the full 1000)."""

    def test_regression_battery(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            costs = random_costs(rng, n)
            spec = ContestSpec(costs=costs)
            eq = solve_equilibrium(spec)

            residuals = foc_residual(spec, eq.investments)
            assert max(abs(r) for r in residuals) <= 1e-10

            order = np.argsort(costs, kind="stable")
            q_sorted = np.asarray(eq.investments)[order]
            assert np.all(np.diff(q_sorted) <= 0)  # cheaper invests weakly more

            # every participant i imposes the share floor 1 - c_j/c_i on all j
            cheapest_active = min(costs[i] for i in eq.participants)
            for j in range(n):
                assert eq.shares[j] >= 1 - costs[j] / cheapest_active - 1e-12

            # participation rule: miner k is in iff the shortfall sum < 1
            for k in range(n):
                burden = sum(
                    1 - c / costs[k] for c in costs if c < costs[k]
                )
                assert (k in eq.participants) == (burden < 1)

    def test_single_perturbations_never_profit(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            spec = ContestSpec(costs=random_costs(rng, n))
            eq = solve_equilibrium(spec)
            q = np.asarray(eq.investments)
            mean_active = q[q > 0].mean()
            for i in range(n):
                base = utility(spec, q, i)
                for factor in (0.99, 1.01):
                    bumped = q.copy()
                    if q[i] > 0:
                        bumped[i] = q[i] * factor
                    elif factor > 1:
                        bumped[i] = 0.01 * mean_active
                    else:
                        continue
                    moved = utility(spec, bumped, i) - base
                    residual = max(abs(r) for r in foc_residual(spec, bumped))
                    assert moved < 0 or residual > 1e-10


class TestBisectMonotone:
    def test_rejects_an_empty_bracket(self):
        with pytest.raises(ValueError, match="invalid bracket"):
            bisect_monotone(lambda x: x, 1.0, 1.0)

    def test_rejects_a_target_outside_the_bracket(self):
        with pytest.raises(ValueError, match="not bracketed"):
            bisect_monotone(lambda x: x, 0.0, 1.0, target=2.0)

    def test_root_at_lo_takes_no_iterations(self):
        assert bisect_monotone(lambda x: x, 0.0, 1.0) == (0.0, 0.0, 0)
