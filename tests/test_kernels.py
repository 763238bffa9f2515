"""The O(n) opposition, certification and dynamics kernels against the
scalar masked-opposition references in scalar_oracle.py."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contesteq import (
    ContestSpec,
    DynamicsConfig,
    best_response_eos,
    run_dynamics,
    solve_equilibrium,
    solve_for_set,
    verify_equilibrium,
)
from contesteq import best_response as br
from contesteq.core import _opposition_powers, unit_costs
from scalar_oracle import (best_response, entry_cost, masked_opposition,
                           reference_best_response_eos, reference_dynamics,
                           reference_verify, vector_closed_form,
                           vector_eos_lane)

EPS = np.finfo(float).eps


def kernel_opposition(q, alpha, i):
    return float(_opposition_powers(q, alpha)[i])


#: relative distances of an outsider's cost from its entry cost
EDGE_GAPS = [10.0**-k for k in range(1, 17)]

alphas = st.one_of(st.just(1.0),
                   st.floats(1.0, 2.5, exclude_min=True, allow_nan=False))


@st.composite
def certification_cases(draw):
    """A spec with 2 to 60 miners and a profile to certify: its equilibrium
    (or the stationary point of its two cheapest miners), a random profile
    with zeros, a single positive investment, or a random profile with one
    outsider priced at its entry cost, up to a gap in EDGE_GAPS. A third of
    the specs have one dominant miner at cost 1e-12."""
    n = draw(st.integers(2, 60))
    alpha = draw(alphas)
    costs = draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n))
    if draw(st.integers(0, 2)) == 0:
        costs[0] = 1e-12
    prize = draw(st.sampled_from([1.0, 1e-8, 3.0, 1e8]))
    kind = draw(st.sampled_from(["solved", "random", "single", "edge"]))
    if kind == "edge":
        q = draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
        j = draw(st.integers(0, n - 1))
        q[j] = 0.0
        opposition = math.fsum(v**alpha for v in q)
        gap = draw(st.sampled_from([0.0] + EDGE_GAPS))
        costs[j] = entry_cost(alpha, opposition) * (
            1.0 + draw(st.sampled_from([-gap, gap])))
        return (ContestSpec(tuple(prize * c for c in costs), alpha, prize),
                np.asarray(q))
    spec = ContestSpec(tuple(prize * c for c in costs), alpha, prize)
    q = None
    if kind == "solved":
        if alpha == 1.0:
            q = solve_equilibrium(spec).investments
        elif n <= 20 and alpha <= 2.0 and costs[0] != 1e-12:
            order = np.argsort(spec.costs, kind="stable")
            pair = tuple(int(i) for i in order[:2])
            eq = solve_for_set(spec, pair)
            q = None if eq is None else eq.investments
    if kind == "single":
        q = [0.0] * n
        q[draw(st.integers(0, n - 1))] = draw(st.floats(1e-3, 10.0))
    if q is None:
        q = draw(st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
            min_size=n, max_size=n))
    return spec, np.asarray(q, dtype=float)


class TestOppositionKernel:
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-200, 1e200)),
                    min_size=2, max_size=60),
           st.one_of(st.just(1.0), st.floats(1.0, 1.5)))
    def test_matches_exact_sum_of_the_others(self, values, alpha):
        q = np.asarray(values)
        fast = _opposition_powers(q, alpha)
        power = q**alpha
        for i in range(q.size):
            exact = math.fsum(np.delete(power, i))
            # nonnegative terms: any summation order is within n ulps
            assert abs(fast[i] - exact) <= q.size * EPS * exact
            assert abs(masked_opposition(q, alpha, i) - exact) <= (
                q.size * EPS * exact)

    def test_dominant_miner_does_not_cancel(self):
        # costs (1e-12, 1, 1): miner 0 holds a share of 1 - 1e-12, so
        # total minus its own power cancels; the prefix/suffix sums do not
        spec = ContestSpec((1e-12, 1.0, 1.0))
        q = np.asarray(solve_equilibrium(spec).investments)
        assert verify_equilibrium(spec, q).certified
        fast = _opposition_powers(q, 1.0)
        for i in range(3):
            exact = math.fsum(np.delete(q, i))
            assert abs(fast[i] - exact) <= EPS * exact
        assert abs(q.sum() - q[0] - math.fsum(q[1:])) > 100 * EPS * q[1:].sum()


class TestVectorisedCertification:
    @settings(max_examples=150)
    @given(certification_cases())
    def test_same_verdicts_as_the_scalar_oracle(self, case):
        """Given the same oppositions, the vectorised pass decides exactly
        as the scalar oracle run miner by miner."""
        spec, q = case
        fast = verify_equilibrium(spec, q)
        assert fast == reference_verify(spec, q, opposition=kernel_opposition)

    @settings(max_examples=150)
    @given(certification_cases())
    def test_best_responses_match_the_scalar_oracle(self, case):
        """Every miner's lane of the vectorised pass is exactly its batch of
        one and the scalar best response: maximizers, best utility,
        interior utility and candidate, so no screen may drop a stationary
        point."""
        spec, q = case
        costs = unit_costs(spec)
        opposition = _opposition_powers(q, spec.alpha)
        responses, best, interior, candidates = br._best_responses(
            costs, spec.alpha, opposition)
        for i, a in enumerate(opposition.tolist()):
            one = br._best_responses(costs[i:i + 1], spec.alpha,
                                     opposition[i:i + 1])
            assert responses[i] == one[0][0]
            assert np.array_equal([best[i], interior[i], candidates[i]],
                                  [v[0] for v in one[1:]], equal_nan=True)
            if a == 0.0:
                assert (responses[i], best[i]) == ((), math.inf)
                continue
            result = best_response(float(costs[i]), spec.alpha, a)
            assert responses[i] == result.optimal_investments
            assert best[i] == result.optimal_utility
            candidate = result.interior_candidate
            if candidate is None:
                assert math.isnan(candidates[i])
            else:
                assert candidates[i] == candidate

    @pytest.mark.parametrize("alpha", [1.0, 1.05, 1.5, 2.0, 2.5])
    def test_outsiders_around_the_entry_cost(self, alpha):
        q = np.asarray([0.0, 0.3, 0.7, 1.1, 2.0])
        opposition = _opposition_powers(q, alpha)[0]
        edge = entry_cost(alpha, opposition)
        for gap in [0.0] + EDGE_GAPS:
            for cost in (edge * (1.0 - gap), edge * (1.0 + gap)):
                responses, best, interior, _ = br._best_responses(
                    np.asarray([cost]), alpha, np.asarray([opposition]))
                result = best_response(cost, alpha, opposition)
                assert responses[0] == result.optimal_investments
                assert best[0] == result.optimal_utility
                assert math.isnan(interior[0]) == (
                    result.interior_candidate is None), (gap, cost)
                if alpha > 1.0 and gap > 1e-12:
                    ref = reference_best_response_eos(cost, alpha, opposition)
                    assert math.isnan(interior[0]) == (
                        ref.interior_candidate is None), (gap, cost)

    @settings(max_examples=150)
    @given(certification_cases())
    def test_agrees_with_masked_oppositions(self, case):
        """Against the masked sums, which round differently in the last
        bit: the same verdict and notes, and slacks within 1e-12 of the
        prize. The maximizer sets can differ only on a knife-edge, where a
        last-bit change moves a miner across a tie."""
        spec, q = case
        fast = verify_equilibrium(spec, q)
        ref = reference_verify(spec, q)
        assert fast.certified == ref.certified
        for a, b in zip(fast.verdicts, ref.verdicts):
            assert a.note == b.note
            if math.isinf(b.slack):
                assert a.slack == b.slack
                continue
            assert abs(a.slack - b.slack) <= 1e-12 * spec.prize
            assert max(a.best_responses) == pytest.approx(
                max(b.best_responses), rel=1e-9, abs=1e-12)

    def test_single_positive_miner_has_no_best_response(self):
        cert = verify_equilibrium(ContestSpec((1.0, 2.0, 3.0), 1.5),
                                  (0.0, 0.7, 0.0))
        assert not cert.certified
        notes = [v.note for v in cert.verdicts]
        assert notes == ["", br.ZERO_OPPOSITION, ""]
        assert cert.verdicts[1].slack == -math.inf


@st.composite
def alpha_one_lanes(draw):
    """Unit-prize costs and oppositions of 1 to 40 miners, drawn four
    ways: dense, every c*a below 1 so that no miner is screened out;
    knife-edge, c*a within 3e-9 of 1 or of the screen's 1 + 1e-9;
    magnitudes log-uniform over 1e-300 to 1e300, some oppositions 0; and
    sqrt(a / c) near the float maximum, where q or q + a overflows."""
    n = draw(st.integers(1, 40))
    log_c = draw(st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n))
    costs = [10.0**v for v in log_c]
    kind = draw(st.sampled_from(["dense", "knife-edge", "magnitudes",
                                 "float max"]))
    if kind == "float max":
        log_a = draw(st.lists(st.floats(307.0, 308.25), min_size=n,
                              max_size=n))
        return (np.asarray([10.0**(v - 2.0 * draw(st.floats(308.1, 308.5)))
                            for v in log_a]),
                np.asarray([10.0**v for v in log_a]))
    if kind == "magnitudes":
        products = [10.0**v for v in draw(st.lists(
            st.floats(-300.0, 300.0), min_size=n, max_size=n))]
        oppositions = [a if draw(st.integers(0, 4)) else 0.0
                       for a in products]
    else:
        if kind == "dense":
            products = draw(st.lists(st.floats(1e-12, 1.0, exclude_max=True),
                                     min_size=n, max_size=n))
        else:
            products = [draw(st.sampled_from([1.0, 1.0 + 1e-9]))
                        + draw(st.floats(-3e-9, 3e-9)) for _ in range(n)]
        oppositions = [p / c for p, c in zip(products, costs)]
    return np.asarray(costs), np.asarray(oppositions)


def lane_outcome(lane, costs, oppositions):
    """The lane's four arrays as hex bits, or its ValueError text; a
    RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            responses, *arrays = lane(costs, oppositions)
        except ValueError as exc:
            return str(exc)
    return ([[float(v).hex() for v in r] for r in responses],
            [[float(v).hex() for v in x] for x in arrays])


class TestAlphaOneLane:
    @settings(max_examples=300)
    @given(alpha_one_lanes())
    def test_same_bits_as_the_unscreened_vector_lane(self, lane):
        """The abstention screen and the scalar closed form give what the
        closed form on whole arrays gives: the same maximizer sets, best
        and interior utilities and candidates, bit for bit, or the same
        float-range error."""
        costs, oppositions = lane
        assert (lane_outcome(lambda c, a: br._best_responses(c, 1.0, a),
                             costs, oppositions)
                == lane_outcome(vector_closed_form, costs, oppositions))

    def test_closed_form_runs_only_on_miners_that_can_invest(self,
                                                             monkeypatch):
        spec = ContestSpec(tuple(np.linspace(1.0, 3.0, 2000).tolist()))
        q = np.asarray(solve_equilibrium(spec).investments)
        costs = unit_costs(spec)
        can_invest = np.count_nonzero(
            costs * _opposition_powers(q, 1.0) < 1.0 + 1e-9)
        calls = []
        closed_form = br._closed_form
        monkeypatch.setattr(br, "_closed_form",
                            lambda *args: calls.append(args)
                            or closed_form(*args))
        assert verify_equilibrium(spec, q).certified
        assert len(calls) == can_invest < spec.n // 10


def knife_edge_cost(alpha, a, ulps, nudge):
    """The cost whose log target against power a lies `ulps` ulps past
    the peak, then `nudge` ulps of the cost away, so that the rounded log
    target falls on either side of the peak within a few of its ulps."""
    target = br._peak(alpha)[1]
    for _ in range(abs(ulps)):
        target = np.nextafter(target, math.copysign(math.inf, ulps))
    cost = math.exp(((alpha + 1.0) * float(target) - math.log(a)
                     + alpha * math.log(alpha)) / alpha)
    for _ in range(abs(nudge)):
        cost = float(np.nextafter(cost, math.copysign(math.inf, nudge)))
    return cost


@st.composite
def eos_lanes(draw):
    """An alpha > 1 (down to 1 + 2**-52) and unit-prize costs and opposition
    powers of 1 to 40 miners, drawn four ways: magnitudes log-uniform over
    1e-300 to 1e300, some oppositions 0; log targets within a few ulps of
    the peak; costs down to 1e-323 against powers up to 1e308, where q
    leaves the float range; and subnormal powers at alpha - 1 <= 1e-6 with
    costs near 1e308 that put the log target at or just below the peak,
    where q = alpha*x*(1-x)/c is subnormal, down to about 2e-322. (The log
    target's rounding at these magnitudes, about 6e-14, keeps x far enough
    above the convexity crossover that q never reaches 0.0.)"""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["magnitudes", "knife-edge", "float max",
                                 "subnormal"]))
    alpha = draw(st.floats(1.0 + 1e-9, 2.5) | st.sampled_from(
        [1.0000001, 1.3, 1.5, 2.0, 2.5]))
    if kind == "subnormal":
        alpha = draw(st.sampled_from([1.0 + 2.0 ** -52, 1.0 + 1e-15])
                     | st.floats(1.0 + 1e-12, 1.0 + 1e-6))
    costs, oppositions = [], []
    for _ in range(n):
        if kind == "magnitudes":
            cost = 10.0 ** draw(st.floats(-300.0, 300.0))
            a = (10.0 ** draw(st.floats(-300.0, 300.0))
                 if draw(st.integers(0, 4)) else 0.0)
        elif kind == "knife-edge":
            a = 10.0 ** draw(st.floats(-3.0, 3.0))
            cost = knife_edge_cost(alpha, a, draw(st.integers(-6, 6)),
                                   draw(st.integers(-4, 4)))
        elif kind == "float max":
            cost = 10.0 ** draw(st.floats(-323.0, -280.0))
            a = 10.0 ** draw(st.floats(280.0, 308.0))
        else:
            a = draw(st.floats(5.7e-309, 2.2e-308))
            cost = knife_edge_cost(alpha, a, 0, 0) * (
                1.0 + draw(st.integers(-3000, 300)) * 2.0 ** -52)
        costs.append(cost)
        oppositions.append(a)
    return np.asarray(costs), alpha, np.asarray(oppositions)


def stationary_outcome(cost, alpha, a):
    """_stationary's candidate and utility as hex bits, or its ValueError
    text; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return [v.hex() for v in br._stationary(cost, a, alpha)]
        except ValueError as exc:
            return str(exc)


#: np.log and math.log differ on the cost 0.5418837358565641, which moves
#: this miner's log target by an ulp
LOGS_DIFFER = (np.asarray([0.5418837358565641]), 1.5, np.asarray([0.05]))


class TestEosLane:
    """The alpha > 1 lane: certification's vector screen before one
    _stationaries call, and the one-miner _stationary, give what the
    earlier vectorised lane gives, bit for bit, errors included."""

    @settings(max_examples=300)
    @given(eos_lanes())
    @example(LOGS_DIFFER)
    def test_certification_has_the_earlier_lane_bits(self, lane):
        costs, alpha, oppositions = lane
        assert (lane_outcome(lambda c, a: br._best_responses(c, alpha, a),
                             costs, oppositions)
                == lane_outcome(lambda c, a: vector_eos_lane(c, alpha, a),
                                costs, oppositions))

    @settings(max_examples=300)
    @given(eos_lanes())
    @example(LOGS_DIFFER)
    def test_one_miner_form_has_the_earlier_lane_bits(self, lane):
        costs, alpha, oppositions = lane
        for cost, a in zip(costs.tolist(), oppositions.tolist()):
            if a == 0.0:  # no best response: its callers never ask
                continue
            one = lane_outcome(lambda c, a: vector_eos_lane(c, alpha, a),
                               np.asarray([cost]), np.asarray([a]))
            if isinstance(one, str):
                assert stationary_outcome(cost, alpha, a) == one
                with pytest.raises(ValueError, match=one.split(" (")[0]):
                    best_response_eos(cost, alpha, a)
                continue
            (sets,), (best, interior, candidates) = one
            assert stationary_outcome(cost, alpha, a) == (candidates
                                                          + interior)
            result = best_response_eos(cost, alpha, a)
            assert [v.hex() for v in result.optimal_investments] == sets
            assert [result.optimal_utility.hex()] == best
            assert ([float("nan").hex()] if result.interior_candidate is None
                    else [result.interior_candidate.hex()]) == candidates


class TestLinearDynamics:
    @settings(max_examples=40)
    @given(st.integers(2, 6), st.one_of(st.just(1.0), st.floats(1.01, 1.5)),
           st.data())
    def test_same_run_as_the_masked_sweep(self, n, alpha, data):
        costs = data.draw(st.lists(st.floats(1.0, 3.0), min_size=n,
                                   max_size=n))
        initial = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n,
                                     max_size=n))
        spec = ContestSpec(tuple(costs), alpha)
        config = DynamicsConfig(tuple(initial), max_rounds=300)
        fast = run_dynamics(spec, config)
        status, terminal = reference_dynamics(spec, config)
        assert fast.status == status
        scale = max(terminal)
        assert np.allclose(fast.terminal, terminal, rtol=1e-12,
                           atol=1e-12 * scale)
