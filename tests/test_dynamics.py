import math
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
from contesteq import best_response as br
from contesteq.core import _powers
from contesteq.dynamics import _nearest
from scalar_oracle import full_scan_dynamics

EXAMPLE1_COSTS = tuple(i / (i + 1) for i in range(1, 11))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(initial_profile=(1.0, 1.0), max_rounds=0)
        with pytest.raises(ValueError):
            DynamicsConfig(initial_profile=(1.0, 1.0), convergence_tol=0.0)
        with pytest.raises(TypeError):  # damping is no longer a knob
            DynamicsConfig(initial_profile=(1.0, 1.0), damping=0.5)

    @pytest.mark.parametrize("max_rounds", [2.7, "5", True, None])
    def test_max_rounds_must_be_an_int(self, max_rounds):
        # a float once failed only inside run_dynamics, a str on a str < int
        with pytest.raises(TypeError, match="max_rounds must be an int"):
            DynamicsConfig(initial_profile=(1.0, 1.0), max_rounds=max_rounds)
        config = DynamicsConfig((1.0, 1.0), max_rounds=np.int64(3))
        assert config.max_rounds == 3

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


class TestQuietRound:
    """A round that barely moves ends the run only if its profile
    certifies; a cycle is always an exact revisit."""

    def test_quiet_uncertified_round_goes_on(self):
        # round 1 ends near (1e-20, 1e-10), a spend change within 1e-10 of
        # the prize, which is no equilibrium and once ended as a cycle
        t = run_dynamics(ContestSpec((1.0, 1.0)),
                         DynamicsConfig((1e-40, 1e-40)))
        assert (t.status, t.rounds_used) == ("converged", 7)
        assert t.terminal == pytest.approx((0.25, 0.25), rel=1e-12)
        assert t.profiles[1] == pytest.approx((1e-20, 1e-10), rel=1e-9)

    def test_quiet_round_before_an_aggregate_overflow(self):
        # the equilibrium's total 1 / c* = 2.5e308 is no float; the quiet
        # first round once ended the run as a cycle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="aggregate power leaves "
                               "the float range"):
                run_dynamics(ContestSpec((2e-309, 2e-309)),
                             DynamicsConfig((1.0, 1.0)))


class TestFloatRange:
    def test_overflowing_power_is_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leave the float range"):
                run_dynamics(ContestSpec((1.0, 1.0), alpha=1.5),
                             DynamicsConfig((1e300, 1e300)))

    def test_overflowing_aggregate_power_is_named(self):
        # every investment is finite, their sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="aggregate power leaves "
                               "the float range"):
                run_dynamics(ContestSpec((1.0,) * 3),
                             DynamicsConfig((1e308,) * 3))

    def test_tiny_cost_returns_a_status(self):
        # miner 0 answers 1.18e120, miner 1 then abstains, and miner 0
        # faces zero opposition: no best response, so no equilibrium
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = run_dynamics(ContestSpec((1e-300, 1.0), alpha=1.5),
                             DynamicsConfig((1.0, 1.0)))
        assert (t.status, t.rounds_used) == ("cycle_detected", 2)
        assert t.terminal[1] == 0.0


class TestGainCheck:
    """An update that loses utility is an error: exact best responses
    never do, so only a wrong oracle reaches it."""

    @staticmethod
    def run_with_oracle(monkeypatch, q, u):
        # an alpha = 1 update takes the scalar closed form, not the oracles
        monkeypatch.setattr(br, "_closed_form", lambda cost, a: (q, u))
        # (0.25, 0.25) is the interior equilibrium of costs (1, 1)
        return run_dynamics(ContestSpec((1.0, 1.0)),
                            DynamicsConfig((0.25, 0.25)))

    def test_abstaining_from_the_interior_optimum_raises(self, monkeypatch):
        with pytest.raises(ArithmeticError, match="lowered miner 0's utility"
                           " by 0.25 of the prize"):
            self.run_with_oracle(monkeypatch, 0.0, 0.0)

    def test_keeping_the_incumbent_passes(self, monkeypatch):
        t = self.run_with_oracle(monkeypatch, 0.25, 0.25)
        assert (t.status, t.rounds_used) == ("converged", 1)


nonnegative = st.floats(0.0, 1e308)


@st.composite
def maximizer_sets(draw):
    """A maximizer set as the oracles give it, (m,) or (0.0, m), or any
    ascending pair, and an incumbent anywhere, at an end, or midway, where
    the two ends are equally far whenever the midpoint is exact."""
    high = draw(nonnegative)
    low = draw(st.just(0.0) | st.just(high) | st.floats(0.0, high))
    incumbent = draw(nonnegative | st.sampled_from(
        [low, high, low + (high - low) / 2]))
    return ((low,) if low == high else (low, high)), incumbent


class TestTiePick:
    """The update takes the maximizer nearest the incumbent, the smaller
    one on equal distance, in two comparisons."""

    @settings(max_examples=500)
    @given(maximizer_sets())
    def test_equals_the_keyed_min(self, case):
        maximizers, incumbent = case
        expected = min(maximizers, key=lambda m: (abs(m - incumbent), m))
        assert _nearest(incumbent, maximizers[0],
                        maximizers[-1]).hex() == expected.hex()

    def test_nearer_end_wins_and_equal_distance_takes_the_smaller(self):
        assert _nearest(0.25, 0.0, 0.5) == 0.0
        assert _nearest(0.3, 0.0, 0.5) == 0.5
        assert _nearest(0.2, 0.0, 0.5) == 0.0


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


def outcome(run, spec, config):
    """repr of the trajectory, or the type and message of what was raised."""
    try:
        return repr(run(spec, config))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


grid_costs = st.integers(1, 30).map(lambda k: k / 10)
models = st.just(1.0) | st.floats(1.0, 2.5, exclude_min=True)
idle = st.sampled_from([0.0, -0.0])


@st.composite
def dynamics_runs(draw):
    """Either model, equal, 0.1-grid or free costs, starts with 0.0 and
    -0.0 among them, prizes 2**+-6 and 10**+-300, investments to scale."""
    n = draw(st.integers(2, 8))
    costs = draw(st.sampled_from([
        st.lists(grid_costs, min_size=1, max_size=1).map(lambda c: c * n),
        st.lists(grid_costs, min_size=n, max_size=n),
        st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
    ]))
    prize = draw(st.sampled_from([1.0, 2.0**-6, 2.0**6, 1e-300, 1e300]))
    start = draw(st.lists(idle | idle | st.floats(1e-3, 10.0),
                          min_size=n, max_size=n))
    return (ContestSpec(tuple(draw(costs)), alpha=draw(models), prize=prize),
            DynamicsConfig(tuple(prize * q for q in start),
                           max_rounds=draw(st.integers(1, 40))))


def threshold_cost(alpha, a, offset):
    """The cost at which the abstention screen's quantity sits offset past
    its threshold against opposition power a: c*a = 1 + 1e-9 + offset at
    alpha = 1, else the log target 1e-9 + offset past the peak."""
    if alpha == 1.0:
        return (1.0 + 1e-9 + offset) / a
    log_target = br._peak(alpha)[1] + 1e-9 + offset
    return math.exp(((alpha + 1.0) * log_target - math.log(a)
                     + alpha * math.log(alpha)) / alpha)


@st.composite
def knife_edge_runs(draw):
    """Idle miners up front, each at a cost whose screen quantity against
    the active miners' round-1 power lies within 3e-9 of the threshold."""
    alpha = draw(models)
    active = draw(st.lists(
        st.tuples(st.floats(0.5, 2.0), st.floats(0.05, 1.0)),
        min_size=1, max_size=4))
    power = _powers(np.asarray([q for _, q in active]), alpha)
    a = float(np.cumsum(power[::-1])[-1])  # what the front segment faces
    offsets = draw(st.lists(st.floats(-3e-9, 3e-9), min_size=1, max_size=3))
    costs = [threshold_cost(alpha, a, w) for w in offsets]
    start = draw(st.lists(idle, min_size=len(costs), max_size=len(costs)))
    return (ContestSpec(tuple(costs + [c for c, _ in active]), alpha=alpha),
            DynamicsConfig(tuple(start + [q for _, q in active]),
                           max_rounds=draw(st.integers(1, 30))))


class TestIdleSegments:
    """A round skips the idle miners whose segment screens out, and must
    equal the full scan that updates every miner, repr for repr, errors
    included."""

    @settings(max_examples=300)
    @given(dynamics_runs())
    def test_equals_the_full_scan(self, case):
        spec, config = case
        assert (outcome(run_dynamics, spec, config)
                == outcome(full_scan_dynamics, spec, config))

    @settings(max_examples=200)
    @given(knife_edge_runs())
    def test_equals_the_full_scan_at_the_screen_threshold(self, case):
        spec, config = case
        assert (outcome(run_dynamics, spec, config)
                == outcome(full_scan_dynamics, spec, config))

    def test_minus_zero_is_kept_at_zero_opposition(self):
        # every power underflows at alpha 1.9, so each miner faces zero
        # opposition and keeps its incumbent, the -0.0 included: a start
        # normalised to 0.0 would not reproduce the run
        spec = ContestSpec((9.553577604724057e290, 6.26734166035798e290,
                            3.7582546853222795e290, 1.466906653765967e291,
                            1e291, 1.2e291, 1.1e291), alpha=1.9)
        start = (2.122417301554694e-290, 1.3892865002932656e-290,
                 8.626750170344582e-293, 2.8787388822190614e-294,
                 1.2023906846087299e-293, 0.0, -0.0)
        config = DynamicsConfig(start, max_rounds=5)
        t = run_dynamics(spec, config)
        assert t.status == "cycle_detected"
        assert repr(t.profiles) == repr((start, start))
        assert math.copysign(1.0, t.terminal[-1]) == -1.0
        assert (outcome(run_dynamics, spec, config)
                == outcome(full_scan_dynamics, spec, config))

    def test_segments_are_rebuilt_when_the_active_list_changes(self):
        # rounds 3 and 4 start on round 2's active list and reuse its
        # segments, with the idle miners 1 and 2 screened out; miner 4
        # leaves in round 4, so round 5 rebuilds them
        spec = ContestSpec((1.0, 4.0, 4.0, 1.0, 2.0))
        config = DynamicsConfig((0.2, 0.2, 0.1, 0.05, 0.0))
        t = run_dynamics(spec, config)
        assert [tuple(i for i, qi in enumerate(p) if qi)
                for p in t.profiles] == [(0, 1, 2, 3), (0, 3, 4), (0, 3, 4),
                                         (0, 3, 4), (0, 3), (0, 3)]
        assert (outcome(run_dynamics, spec, config)
                == outcome(full_scan_dynamics, spec, config))

    @settings(max_examples=500)
    @given(models, st.floats(1e-300, 1e300), st.floats(-3e-9, 3e-9),
           st.floats(1.0, 4.0))
    def test_screened_costs_abstain(self, alpha, a, offset, scale):
        cost = threshold_cost(alpha, a, offset)
        if not 0.0 < cost < math.inf:
            return
        if br._abstains(cost, alpha, a):
            for c in (cost, scale * cost):  # and every dearer miner
                assert br._best_response(c, alpha, a).optimal_investments == (
                    0.0,)

    @pytest.mark.parametrize("cost, alpha, a", [
        (5.4645015110174455, 1.0, 0.1829993089001467),
        (0.6496611721337122, 1.0, 1.5392639161667208),
        (1.6083012509215018, 1.0000003, 0.6217710413991756),
        (8.402485985089369, 1.0000001, 0.11901217185000852),
    ])
    def test_knife_edges_inside_the_margin_are_not_screened(self, cost,
                                                            alpha, a):
        # c*a rounds to 1, or math.log's target reaches the peak, so a
        # screen without its margin passes; yet the closed form ties with
        # a positive investment (numpy's logs at alpha > 1 may round
        # either way, so only the alpha = 1 tie is asserted)
        if alpha == 1.0:
            assert br._best_response(cost, alpha, a).optimal_investments != (
                0.0,)
        assert not br._abstains(cost, alpha, a)

    @settings(max_examples=200)
    @given(models, st.floats(1e-300, 1e300), st.floats(2e-9, 1.0))
    def test_screen_passes_past_its_margin(self, alpha, a, offset):
        cost = threshold_cost(alpha, a, offset)
        if 0.0 < cost < math.inf:
            assert br._abstains(cost, alpha, a)
