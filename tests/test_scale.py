"""Prize-scale covariance.

A spec with costs k*c and prize k*V is the game (c, V) in other units: its
equilibria, certificates and dynamics must not depend on k, and utilities
and slacks scale by k. Each named test below is a case that absolute
tolerances used to get wrong.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contesteq import (
    ContestSpec,
    DynamicsConfig,
    MarketShares,
    best_response_eos,
    best_response_proportional,
    cli,
    concentration,
    enumerate_equilibria,
    foc_residual,
    invert_share_weight,
    marginal_share,
    run_dynamics,
    share_weight,
    shares,
    solve_equilibrium,
    solve_for_set,
    utility,
    verify_equilibrium,
)
from contesteq import best_response as br
from contesteq.core import unit_costs

HARMONIC10 = tuple(i / (i + 1) for i in range(1, 11))
UNIT_GAME_RANGE = "costs / prize leaves the float range of the unit-prize game"
#: every ValueError of the float-range policy says this
FLOAT_RANGE = re.compile("leaves? the float range")
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
            with pytest.raises(ValueError, match=UNIT_GAME_RANGE):
                solve(spec)

    def test_cost_over_prize_underflow_names_the_unit_game(self):
        spec = ContestSpec((1e-300, 1.0), prize=1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=UNIT_GAME_RANGE):
                unit_costs(spec)
            with pytest.raises(ValueError, match=UNIT_GAME_RANGE):
                solve_equilibrium(spec)

    def test_overflowing_power_is_named_by_verify(self):
        spec = ContestSpec((1.0, 1.0), alpha=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leave the float range"):
                verify_equilibrium(spec, (1e300, 1e300))

    def test_overflowing_spend_is_not_certified_with_slack_minus_inf(self):
        # 10 * 1e308 is no float: the spend is a utility of -inf, a
        # representable answer, so verify returns it without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = verify_equilibrium(ContestSpec((10.0, 10.0)),
                                      (0.0, 1e308))
        assert not cert.certified
        assert cert.worst_slack == -math.inf
        assert cert.verdicts[1].utility == -math.inf

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_overflowing_aggregate_power_is_named_by_verify(self, alpha):
        # every q**alpha is finite, their sum is not
        spec = ContestSpec((1.0,) * 3, alpha=alpha)
        q = (1e308,) * 3 if alpha == 1.0 else (2e205,) * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="aggregate power leaves "
                               "the float range"):
                verify_equilibrium(spec, q)

    @pytest.mark.parametrize("prize", [1.0, 1e9, 1e12])
    def test_profile_5_percent_off_rejected_at_prize_1e12(self, prize):
        # at prize 1e12 the unit cost is 1e-12, and a best response once
        # stopped at an absolute marginal utility of 1e-13: a 10% error
        # that certified this profile
        spec = ContestSpec((1.0, 1.0), alpha=1.5, prize=prize)
        eq = enumerate_equilibria(spec)[0]
        off = (1.05 * eq.investments[0], eq.investments[1])
        cert = verify_equilibrium(spec, off)
        assert not cert.certified
        assert cert.worst_slack == pytest.approx(-4.6185e-4 * prize,
                                                 rel=1e-4)


floats_1e300 = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


class TestUnitCosts:
    @settings(max_examples=300)
    @given(costs=st.lists(floats_1e300, min_size=2, max_size=6),
           prize=floats_1e300)
    def test_is_python_division_or_names_the_range(self, costs, prize):
        spec = ContestSpec(tuple(costs), prize=prize)
        quotients = [c / prize for c in spec.costs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if all(0.0 < c < math.inf for c in quotients):
                assert unit_costs(spec).tolist() == quotients
            else:
                with pytest.raises(ValueError, match=UNIT_GAME_RANGE):
                    unit_costs(spec)


def no_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


class TestFloatRange:
    """Finite inputs beyond the float range: a representable answer is
    returned, otherwise a ValueError names the range; never a warning."""

    def test_closed_form_abstains_when_cost_times_opposition_is_one(self):
        # opposition / cost = 1e600 is no float: sqrt(a) / sqrt(c) is
        result = no_warning(lambda: best_response_proportional(1e-300, 1e300))
        assert result.optimal_investments == (0.0,)
        assert result.optimal_utility == 0.0

    def test_closed_form_keeps_a_quotient_below_the_normal_range(self):
        # opposition / cost = 5e-334 is 0.0 as a float, which would abstain
        # from a share of almost the whole prize
        result = no_warning(lambda: best_response_proportional(1e10, 5e-324))
        assert result.optimal_investments == (
            math.sqrt(5e-324) / math.sqrt(1e10) - 5e-324,)
        assert result.optimal_utility == 1.0

    def test_verify_gets_the_closed_form_past_an_overflowing_quotient(self):
        cert = no_warning(lambda: verify_equilibrium(
            ContestSpec((1e-300, 1.0)), (0.0, 1e300)))
        assert not cert.certified  # miner 1 faces zero opposition
        assert cert.verdicts[0].best_responses == (0.0,)
        assert cert.verdicts[0].slack == 0.0

    @pytest.mark.parametrize("cost, opposition", [
        (1e-300, 1e300), (1e10, 5e-324), (1e-317, 1e299), (2.0, 0.1)])
    def test_scalar_and_vector_closed_forms_agree_bit_for_bit(
            self, cost, opposition):
        one = br._best_responses(np.asarray([cost]), 1.0,
                                 np.asarray([opposition]))
        result = best_response_proportional(cost, opposition)
        assert one[0][0] == result.optimal_investments
        assert one[1][0] == result.optimal_utility

    def test_closed_form_near_the_float_maximum(self):
        # sqrt(a) / sqrt(c) = 1.83e308 overflows and q + a = 1.83e308 too,
        # though the response 8.26e307 and its utility are floats
        one = no_warning(lambda: br._best_responses(
            np.asarray([3e-309]), 1.0, np.asarray([1e308])))
        result = no_warning(lambda: best_response_proportional(3e-309, 1e308))
        expected = ((8.257418583505535e+307,), 0.20455488498966776)
        assert (one[0][0], float(one[1][0])) == expected
        assert (result.optimal_investments,
                result.optimal_utility) == expected

    def test_foc_residual_names_the_float_range(self):
        with pytest.raises(ValueError, match=UNIT_GAME_RANGE):
            no_warning(lambda: foc_residual(
                ContestSpec((1e300, 1e300), prize=1e-10), (1.0, 1.0)))
        with pytest.raises(ValueError, match="aggregate power leaves the "
                           "float range"):
            no_warning(lambda: foc_residual(ContestSpec((1.0, 1.0)),
                                            (1e308, 1e308)))

    def test_closed_form_beyond_the_float_range_is_named(self):
        # sqrt(1e300 / 1e-317) is past the float maximum
        with pytest.raises(ValueError, match="best response leaves the "
                           "float range"):
            no_warning(lambda: best_response_proportional(1e-317, 1e300))
        with pytest.raises(ValueError, match="best response leaves the "
                           "float range"):
            no_warning(lambda: verify_equilibrium(
                ContestSpec((1e-317, 1.0, 1.0)), (0.0, 5e299, 5e299)))

    @pytest.mark.parametrize("oracle", [
        lambda: best_response_proportional(1e-200, 1.0, 1e200),
        lambda: best_response_eos(1e-200, 1.5, 1.0, 1e200),
    ])
    def test_oracles_name_the_unit_game_range(self, oracle):
        with pytest.raises(ValueError, match=UNIT_GAME_RANGE):
            no_warning(oracle)

    def test_overflowing_caller_unit_utility_is_minus_inf(self):
        # the unit-prize utility -1e110 times the prize 1e200
        spec = ContestSpec((1e10, 1e10), 1.01, 1e200)
        cert = no_warning(lambda: verify_equilibrium(spec, (1e300, 1e300)))
        assert not cert.certified
        assert cert.worst_slack == -math.inf
        assert [v.utility for v in cert.verdicts] == [-math.inf] * 2

    def test_closed_form_with_an_outsider_past_the_threshold_range(self):
        # 1e300 / c* overflows, yet the outsider's share is simply 0
        eq = no_warning(lambda: solve_equilibrium(
            ContestSpec((1e-300, 1e-300, 1e300))))
        assert eq.shares == (0.5, 0.5, 0.0)

    def test_closed_form_investments_beyond_the_float_range_are_named(self):
        with pytest.raises(ValueError, match="leaves the float range"):
            no_warning(lambda: solve_equilibrium(
                ContestSpec((5e-324, 1e-323))))

    def test_closed_form_with_costs_near_the_float_maximum(self):
        # the prefix sum 3e308 overflows, c* = 1.5e308 does not
        eq = no_warning(lambda: solve_equilibrium(ContestSpec((1e308,) * 3)))
        assert eq.c_star == 1.5e308
        assert eq.shares == pytest.approx((1 / 3,) * 3, rel=1e-15)
        with pytest.raises(ValueError, match="leaves the float range"):
            no_warning(lambda: solve_equilibrium(ContestSpec((1.7e308,) * 2)))

    def test_set_solve_with_a_power_scale_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="leaves the float range"):
            no_warning(lambda: solve_for_set(
                ContestSpec((1e-310, 1e-310), alpha=1.5), (0, 1)))

    def test_overflowing_spend_is_infinite_rent_dissipation(self):
        report = no_warning(lambda: concentration(
            ContestSpec((10.0, 10.0)), (0.0, 1e308)))
        assert report.rent_dissipation == math.inf

    def test_shares_of_a_profile_whose_sum_overflows(self):
        x = no_warning(lambda: shares(ContestSpec((1.0,) * 3), (1e308,) * 3))
        assert x == MarketShares((1 / 3,) * 3)

    def test_marginal_share_of_a_profile_whose_sum_overflows(self):
        # (1 - x_0) / (q_0 + q_1) = 0.5 / 2e308 is a subnormal float
        slope = no_warning(lambda: marginal_share(ContestSpec((1.0, 2.0)),
                                                  (1e308, 1e308), 0))
        assert slope == 2.5e-309

    def test_rent_dissipation_of_a_spend_beyond_the_float_range(self):
        # c_i * q_i overflows in caller units, not at the unit-prize costs
        report = no_warning(lambda: concentration(
            ContestSpec((1e300, 2e300), prize=1e300), (1e10, 1e10)))
        assert report.rent_dissipation == 3e10

    def test_dynamics_response_whose_power_overflows_is_named(self):
        # miner 0 answers 2.08e222, whose power at alpha 1.4477 is no
        # float; the gain check's q**alpha once raised OverflowError here
        spec = ContestSpec((1.3234700934532057e-153, 5.213492009679281e223,
                            2.5952117285669486e129, 4.53525861368839e-100),
                           1.4477001628263304, 3.427954363514052e122)
        q = (173.76550388562134, 3.393599647740041e185,
             3.0613828013614555e-210, 0)
        with pytest.raises(ValueError, match="investments\\*\\*alpha leave "
                           "the float range"):
            no_warning(lambda: run_dynamics(
                spec, DynamicsConfig(q, max_rounds=50)))

    def test_dynamics_spend_change_beyond_the_float_range(self):
        # the spend change of round 1 is no float; it once warned
        # "overflow encountered in multiply" and now reads as inf
        spec = ContestSpec((7.223627040760353e271, 1.977854235100907e114,
                            1971786289.3894043), 1.0014520403324614,
                           3.5945923480610155e70)
        q = (9.587258197324379e167, 5.295082340535073e178,
             2.439491965881578e-61)
        t = no_warning(lambda: run_dynamics(
            spec, DynamicsConfig(q, max_rounds=50)))
        assert (t.status, t.rounds_used) == ("cycle_detected", 3)

    def test_dynamics_aggregate_power_overflowing_in_a_later_round(self):
        # round 1 ends on (1.79e291, 2.36e293); in round 2 miner 1's answer
        # takes the aggregate power past the float range, which the gain
        # check once misread as a loss of 0.27 of the prize
        spec = ContestSpec((3.442419652512861e-296, 2.6622588102630944e-296),
                           1.0451959338278591)
        q = (8.468532408377345e+288, 1.603887734107813e+287)
        assert no_warning(lambda: run_dynamics(
            spec, DynamicsConfig(q, max_rounds=1))).rounds_used == 1
        with pytest.raises(ValueError, match="aggregate power leaves the "
                           "float range"):
            no_warning(lambda: run_dynamics(spec, DynamicsConfig(q)))


@st.composite
def closed_form_cases(draw):
    """(cost, opposition) log-uniform over 1e-323 to 1e308, with
    knife-edges: cost * opposition within 1e-5 of 1, where the utility
    (1 - sqrt(c*a))**2 is within 1e-12 of 0 or of the tie threshold; a / c
    below the normal range or beyond the float range; and a response near
    the float maximum, where it or q + a overflows."""
    edge = draw(st.sampled_from(["free", "tie", "subnormal", "overflow",
                                 "float max"]))
    if edge == "tie":
        cost = 10.0 ** draw(st.floats(-308.0, 308.0))
        d = 10.0 ** draw(st.floats(-17.0, -5.0))
        return cost, (1.0 + draw(st.sampled_from([-d, d]))) / cost
    if edge == "float max":  # sqrt(a / c) = q + a near 1e308
        log_a = draw(st.floats(307.0, 308.25))
        log_c = log_a - 2.0 * draw(st.floats(308.1, 308.5))
        return 10.0 ** log_c, 10.0 ** log_a
    log_ratio = draw({"free": st.floats(-631.0, 631.0),
                      "subnormal": st.floats(-631.0, -307.66),
                      "overflow": st.floats(308.26, 631.0)}[edge])
    log_c = draw(st.floats(max(-323.0, -323.0 - log_ratio),
                           min(308.0, 308.0 - log_ratio)))
    return 10.0 ** log_c, 10.0 ** (log_c + log_ratio)


def bits(*values):
    return [float(v).hex() for v in values]


class TestClosedFormProperty:
    """The scalar closed form, best_response_proportional and the alpha = 1
    lane of _best_responses are one computation: equal bit for bit,
    errors included, with no warning."""

    @settings(max_examples=600)
    @given(closed_form_cases())
    def test_scalar_oracle_and_vector_lane_agree(self, case):
        cost, opposition = case

        def outcome(call):
            try:
                return no_warning(call)
            except ValueError as exc:
                assert str(exc).startswith("best response leaves the float "
                                           "range"), exc
                return str(exc)

        scalar = outcome(lambda: br._closed_form(cost, opposition))
        result = outcome(lambda: best_response_proportional(cost, opposition))
        vector = outcome(lambda: br._best_responses(
            np.asarray([cost]), 1.0, np.asarray([opposition])))
        if isinstance(scalar, str):
            assert result == vector == scalar
            return
        (q, u), (sets, best, interior, candidates) = scalar, vector
        assert bits(*result.optimal_investments) == bits(*sets[0])
        assert bits(result.optimal_utility) == bits(best[0])
        if q == 0.0:  # the miner abstains
            assert (sets[0], result.interior_candidate) == ((0.0,), None)
            assert bits(u) == bits(0.0)
            assert math.isnan(interior[0]) and math.isnan(candidates[0])
            return
        assert bits(q, u) == bits(candidates[0], interior[0])
        assert bits(result.interior_candidate) == bits(q)
        assert result.optimal_investments == ((0.0, q) if u <= br.TIE_TOL
                                              else (q,))


@st.composite
def float_range_cases(draw):
    """Costs, prize, a profile with zeros and an opposition, all
    log-uniform over 1e-300 to 1e300, for 2 to 5 miners."""
    n = draw(st.integers(2, 5))
    costs = draw(st.lists(floats_1e300, min_size=n, max_size=n))
    alpha = draw(st.one_of(st.just(1.0), st.floats(1.0, 2.0,
                                                   exclude_min=True)))
    spec = ContestSpec(tuple(costs), alpha, draw(floats_1e300))
    q = draw(st.lists(st.one_of(st.just(0.0), floats_1e300), min_size=n,
                      max_size=n))
    return spec, q, draw(floats_1e300)


def answer_or_named_range(call):
    """call()'s result, or None after a ValueError that names the float
    range. Any other error, an OverflowError or a RuntimeWarning, fails."""
    try:
        return call()
    except ValueError as exc:
        assert FLOAT_RANGE.search(str(exc)), exc
        return None


def run_cli(*argv):
    """cli.main in-process: exit code; exit 3 must name the float range."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code == cli.EXIT_INVALID_SPEC:
        assert FLOAT_RANGE.search(err.getvalue()), err.getvalue()
    return code


class TestFloatRangeProperty:
    @settings(max_examples=200)
    @given(float_range_cases())
    def test_every_entry_point_answers_or_names_the_range(self, case):
        spec, q, opposition = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check_library(spec, q, opposition)
            self.check_cli(spec, q)

    @staticmethod
    def check_library(spec, q, opposition):
        answer_or_named_range(lambda: shares(spec, q))
        for i in range(spec.n):
            answer_or_named_range(lambda: utility(spec, q, i))
        answer_or_named_range(lambda: concentration(spec, q))
        answer_or_named_range(lambda: verify_equilibrium(spec, q))
        if any(q):  # an all-zero start is refused in its own terms
            answer_or_named_range(lambda: run_dynamics(
                spec, DynamicsConfig(q, max_rounds=50)))
        cost = spec.costs[0]
        answer_or_named_range(lambda: best_response_proportional(
            cost, opposition, spec.prize))
        if spec.alpha == 1.0:
            answer_or_named_range(lambda: solve_equilibrium(spec))
            if np.count_nonzero(q) >= 2:  # else residuals are undefined
                answer_or_named_range(lambda: foc_residual(spec, q))
        else:
            answer_or_named_range(lambda: best_response_eos(
                cost, spec.alpha, opposition, spec.prize))
            if spec.n <= 4:
                answer_or_named_range(lambda: enumerate_equilibria(spec))

    @staticmethod
    def check_cli(spec, q):
        with tempfile.TemporaryDirectory() as tmp:
            scenario, profile = Path(tmp, "s.json"), Path(tmp, "p.json")
            result = Path(tmp, "r.json")
            scenario.write_text(json.dumps(
                {"costs": list(spec.costs), "alpha": spec.alpha,
                 "prize": spec.prize}))
            profile.write_text(json.dumps(q))
            code = run_cli("verify", "--scenario", str(scenario),
                           "--profile", str(profile))
            assert code in (cli.EXIT_OK, cli.EXIT_INVALID_SPEC,
                            cli.EXIT_NOT_CERTIFIED)
            if any(q):
                config = Path(tmp, "d.json")
                config.write_text(json.dumps({"initial": q,
                                              "max_rounds": 50}))
                code = run_cli("dynamics", "--scenario", str(scenario),
                               "--config", str(config),
                               "--out", str(Path(tmp, "t.csv")))
                assert code in (cli.EXIT_OK, cli.EXIT_INVALID_SPEC)
            code = run_cli("solve", "--scenario", str(scenario),
                           "--out", str(result))
            assert code in (cli.EXIT_OK, cli.EXIT_INVALID_SPEC,
                            cli.EXIT_NO_EQUILIBRIUM, cli.EXIT_NOT_CERTIFIED)
            if code not in (cli.EXIT_OK, cli.EXIT_NOT_CERTIFIED):
                return
            # the first block's certificate is what verify finds for it
            block = json.loads(result.read_text())["equilibria"][0]
            check = Path(tmp, "c.json")
            code = run_cli("verify", "--scenario", str(scenario),
                           "--profile", str(result), "--out", str(check))
            found = json.loads(check.read_text())["certificate"]
            assert code == (cli.EXIT_OK if found["certified"]
                            else cli.EXIT_NOT_CERTIFIED)
            assert (block["certificate"]["certified"],
                    block["certificate"]["worst_slack"]) == (
                found["certified"], found["worst_slack"])


class TestCostScale:
    """Costs x k alone is the same game with investments / k: statuses and
    round counts do not change, and the terminal profile scales by 1/k."""

    @pytest.mark.parametrize("k", [1e-12, 1e-6, 1e6, 1e8, 1e12])
    @pytest.mark.parametrize("costs, alpha, start", [
        (HARMONIC10, 1.0, (0.5,) * 10),
        ((1.0, 1.05, 1.3), 1.3, (0.4, 0.2, 0.1)),
    ])
    def test_dynamics(self, costs, alpha, start, k):
        base = run_dynamics(ContestSpec(costs, alpha), DynamicsConfig(start))
        t = run_dynamics(ContestSpec(tuple(k * c for c in costs), alpha),
                         DynamicsConfig(tuple(q / k for q in start)))
        assert (t.status, t.rounds_used) == (base.status, base.rounds_used)
        assert [k * q for q in t.terminal] == pytest.approx(
            base.terminal, rel=1e-12, abs=0.0)


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
        # one root at most: solve_for_set's None rule and bracket rely on it
        s_max = alpha * share_weight(1 - 1 / alpha, alpha) / max(costs)

        def share_sum(s):
            return sum(invert_share_weight(c * s / alpha, alpha)
                       for c in costs)

        lo, hi = sorted(t)
        assert share_sum(lo * s_max) >= share_sum(hi * s_max) - 1e-12

    @given(costs=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=6),
           alpha=st.floats(1.05, 2.0),
           d=st.lists(st.floats(0.0, 12 * math.log(10)), min_size=2,
                      max_size=2))
    def test_gap_sum_is_increasing_and_convex_in_log_s(self, costs, alpha,
                                                      d):
        # what solve_for_set's Newton on u = log s relies on: from the
        # right of the root it never overshoots
        log_s_max = math.log(
            alpha * share_weight(1 - 1 / alpha, alpha) / max(costs))

        def gap_sum(u):
            return sum(1.0 - invert_share_weight(c * math.exp(u) / alpha,
                                                 alpha) for c in costs)

        lo, hi = sorted(log_s_max - e for e in d)
        assert gap_sum(lo) <= gap_sum(hi) + 1e-12
        assert gap_sum(0.5 * (lo + hi)) <= (
            0.5 * (gap_sum(lo) + gap_sum(hi)) + 1e-12)
