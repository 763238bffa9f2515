import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contesteq import (
    ContestSpec,
    DynamicsConfig,
    run_dynamics,
    solve_equilibrium,
    utility,
    verify_equilibrium,
)

EXAMPLE1_COSTS = tuple(i / (i + 1) for i in range(1, 11))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(initial_profile=(1.0, 1.0), max_rounds=0)
        with pytest.raises(ValueError):
            DynamicsConfig(initial_profile=(1.0, 1.0), convergence_tol=0.0)
        with pytest.raises(TypeError):  # damping is no longer a knob
            DynamicsConfig(initial_profile=(1.0, 1.0), damping=0.5)

    def test_all_zero_start_rejected(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        with pytest.raises(ValueError):
            run_dynamics(spec, DynamicsConfig(initial_profile=(0.0, 0.0)))


class TestProportionalDynamics:
    def test_generic_start_reaches_symmetric_fixed_point(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        t = run_dynamics(spec, DynamicsConfig(initial_profile=(0.3, 0.7)))
        assert t.status == "converged"
        assert t.terminal == pytest.approx((0.25, 0.25), abs=1e-9)
        assert t.certificate is not None and t.certificate.certified

    def test_knife_edge_start_cycles(self):
        # from (1,1) the first exact best response is max(0, sqrt(1)-1) = 0,
        # leaving the second miner with zero opposition; the honest outcome
        # is a length-1 revisit at (0, 1), not the interior fixed point
        spec = ContestSpec(costs=(1.0, 1.0))
        t = run_dynamics(spec, DynamicsConfig(initial_profile=(1.0, 1.0)))
        assert t.status == "cycle_detected"
        assert t.terminal == (0.0, 1.0)

    def test_example_costs_from_random_starts(self):
        spec = ContestSpec(costs=EXAMPLE1_COSTS)
        eq = solve_equilibrium(spec)
        rng = np.random.default_rng(11)
        for _ in range(5):
            start = tuple(rng.uniform(0.001, 1.0, spec.n))
            t = run_dynamics(spec, DynamicsConfig(initial_profile=start))
            assert t.status == "converged"
            assert t.rounds_used <= 10_000
            drift = max(abs(a - b) for a, b in zip(t.terminal, eq.investments))
            assert drift <= 1e-8

    def test_max_rounds_exhausted(self):
        spec = ContestSpec(costs=EXAMPLE1_COSTS)
        t = run_dynamics(
            spec, DynamicsConfig(initial_profile=(0.9,) * 10, max_rounds=2)
        )
        assert t.status == "max_rounds_exhausted"
        assert t.rounds_used == 2


    def test_huge_finite_profile_neither_overflows_nor_warns(self):
        # a cycle key quantized at 1e-9 once raised OverflowError on 1e300,
        # after a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = run_dynamics(ContestSpec((1.0, 1.0)),
                             DynamicsConfig((1e300, 1e300)))
        assert t.status == "cycle_detected"
        assert t.terminal == (0.0, 1e300)

    def test_slow_approach_is_no_false_cycle(self):
        # changes of ~3e-10 per round once repeated a key quantized at 1e-9
        # two rounds later, so this unique equilibrium was reported a cycle
        spec = ContestSpec((1.23, 2.88))
        t = run_dynamics(spec, DynamicsConfig((0.42, 0.23)))
        assert t.status == "converged"
        q_star = solve_equilibrium(spec).investments
        assert t.terminal == pytest.approx(q_star, rel=1e-9)

    @settings(max_examples=30)
    @given(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=5),
           st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
           st.integers(-40, 40))
    def test_power_of_two_cost_scale_gives_the_same_run(self, costs, start,
                                                        m):
        # costs x 2**m and the start x 2**-m rescale every float exactly
        k = 2.0 ** m
        start = start[:len(costs)]
        base = run_dynamics(ContestSpec(tuple(costs)),
                            DynamicsConfig(tuple(start)))
        t = run_dynamics(ContestSpec(tuple(k * c for c in costs)),
                         DynamicsConfig(tuple(q / k for q in start)))
        assert (t.status, t.rounds_used) == (base.status, base.rounds_used)
        assert [k * q for q in t.terminal] == list(base.terminal)


class TestFloatRange:
    def test_overflowing_power_is_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leave the float range"):
                run_dynamics(ContestSpec((1.0, 1.0), alpha=1.5),
                             DynamicsConfig((1e300, 1e300)))


class TestEosDynamics:
    def test_pair_converges_to_interior_equilibrium(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=1.5)
        t = run_dynamics(spec, DynamicsConfig(initial_profile=(0.5, 0.2)))
        assert t.status == "converged"
        assert t.terminal == pytest.approx((0.375, 0.375), abs=1e-8)

    def test_symmetric_triple_collapses_to_cycle(self):
        # all three abstain in turn; verification rejects the stalled state
        spec = ContestSpec(costs=(1.0, 1.0, 1.0), alpha=2.0)
        t = run_dynamics(spec, DynamicsConfig(initial_profile=(1.0, 1.0, 1.0)))
        assert t.status == "cycle_detected"
        assert t.terminal == (0.0, 0.0, 1.0)

    def test_converged_terminals_certify(self):
        rng = np.random.default_rng(3)
        spec = ContestSpec(costs=(1.0, 1.05), alpha=1.5)
        for _ in range(5):
            start = tuple(rng.uniform(0.05, 1.0, 2))
            t = run_dynamics(spec, DynamicsConfig(initial_profile=start))
            if t.status == "converged":
                cert = verify_equilibrium(spec, t.terminal, tol=1e-8)
                assert cert.certified


class TestTrajectoryShape:
    def test_profiles_include_initial_state(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        t = run_dynamics(spec, DynamicsConfig(initial_profile=(0.3, 0.7)))
        assert t.profiles[0] == (0.3, 0.7)
        assert t.rounds_used == len(t.profiles) - 1

    def test_single_round_emits_n_rows(self):
        spec = ContestSpec(costs=EXAMPLE1_COSTS)
        t = run_dynamics(
            spec, DynamicsConfig(initial_profile=(0.5,) * 10, max_rounds=1)
        )
        rows = list(t.rows())
        assert len(rows) == 10
        assert all(row[0] == 1 for row in rows)
        assert [row[1] for row in rows] == list(range(10))

    def test_bit_for_bit_determinism(self):
        spec = ContestSpec(costs=EXAMPLE1_COSTS)
        config = DynamicsConfig(
            initial_profile=tuple(0.05 + 0.1 * i for i in range(10))
        )
        assert run_dynamics(spec, config) == run_dynamics(spec, config)

    def test_updating_miner_never_loses_utility(self):
        # miners update in index order, so the state miner i faces in round
        # r is round r's profile before i and round r-1's from i on
        spec = ContestSpec(costs=(0.7, 0.9, 1.2), alpha=1.3)
        t = run_dynamics(spec, DynamicsConfig(initial_profile=(0.4, 0.2, 0.1)))
        assert t.rounds_used >= 2
        for before, after in zip(t.profiles, t.profiles[1:]):
            for i in range(spec.n):
                old = after[:i] + before[i:]
                new = after[:i + 1] + before[i + 1:]
                gain = utility(spec, new, i) - utility(spec, old, i)
                assert gain >= -1e-12
