import math
import warnings
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from contesteq import (
    ContestSpec,
    EosEquilibrium,
    best_response_eos,
    enumerate_equilibria,
    grid_oracle,
    invert_share_weight,
    marginal_share,
    pairwise_bound_check,
    participation_cap,
    share_weight,
    shares,
    solve_equilibrium,
    solve_for_set,
    verify_equilibrium,
)
from contesteq import best_response as br
from contesteq import eos
from contesteq.core import _opposition_powers, unit_costs
from scalar_oracle import (brute_force_equilibria,
                           reference_invert_share_weight,
                           reference_solve_for_set, utility_against)

#: the smallest alpha above 1
ALPHA_ULP = 1.0000000000000002


def deterrence_spec(m: int) -> ContestSpec:
    """alpha = m/(m-1), one cheap miner at (1-1/m)**(1-1/m), m+1 at cost 1.
    The cheap miner abstains in the symmetric-block equilibria."""
    alpha = m / (m - 1)
    c1 = (1 - 1 / m) ** (1 - 1 / m)
    return ContestSpec(costs=(c1,) + (1.0,) * (m + 1), alpha=alpha)


class TestShareWeight:
    def test_vanishes_at_full_share(self):
        assert share_weight(1 - 1e-12, 2.0) <= 1e-12

    def test_alpha_two_half(self):
        assert share_weight(0.5, 2.0) == pytest.approx(
            math.sqrt(0.5) * 0.5, abs=1e-12
        )

    def test_decreasing_on_branch(self):
        assert share_weight(0.4, 1.5) > share_weight(0.6, 1.5)
        # sign of the slope via a central difference
        h = 1e-7
        slope = (share_weight(0.5 + h, 1.5) - share_weight(0.5 - h, 1.5)) / (2 * h)
        assert slope < 0

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.3])
    def test_domain_enforced(self, x):
        with pytest.raises(ValueError):
            share_weight(x, 2.0)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            share_weight(0.5, 1.0)


class TestInvertShareWeight:
    def test_branch_endpoint(self):
        lo = 1 - 1 / 1.5
        assert invert_share_weight(share_weight(lo, 1.5), 1.5) == pytest.approx(lo)

    def test_round_trip_alpha_two(self):
        target = share_weight(0.5, 2.0)
        assert invert_share_weight(target, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_residual_within_tolerance(self):
        x = invert_share_weight(0.2, 1.5)
        assert 1 / 3 <= x < 1.0
        assert abs(share_weight(x, 1.5) - 0.2) <= 1e-13

    def test_infeasible_target(self):
        f_max = share_weight(0.5, 2.0)
        with pytest.raises(ValueError):
            invert_share_weight(f_max * 1.01, 2.0)

    def test_target_below_the_upper_bracket_gives_a_full_share(self):
        # f(1 - 1e-16) is about 1e-16 near alpha = 1; smaller targets, down
        # to the least subnormal, mean a share of 1 to float precision
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invert_share_weight(1e-24, ALPHA_ULP) == 1.0 - 1e-16
            assert invert_share_weight(1e-300, 1.5) == 1.0 - 1e-16
            assert invert_share_weight(5e-324, 1.5) == 1.0 - 1e-16

    def test_round_trips_across_branch(self):
        rng = np.random.default_rng(5)
        for alpha in (1.05, 1.3, 1.7, 2.0):
            lo = 1 - 1 / alpha
            for x in rng.uniform(lo + 1e-6, 1 - 1e-6, 25):
                back = invert_share_weight(share_weight(x, alpha), alpha)
                assert back == pytest.approx(x, abs=1e-10)


class TestSolveForSet:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_symmetric_boundary_solution(self, m):
        # m unit-cost miners at alpha = m/(m-1) invest 1/m and earn 0
        alpha = m / (m - 1)
        spec = ContestSpec(costs=(1.0,) * m, alpha=alpha)
        eq = solve_for_set(spec, range(m))
        assert eq is not None
        assert eq.investments == pytest.approx((1 / m,) * m, abs=1e-9)
        for i in range(m):
            u = eq.shares[i] - eq.investments[i]
            assert abs(u) <= 1e-9

    def test_pair_with_slack_utility(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=1.5)
        eq = solve_for_set(spec, (0, 1))
        assert eq is not None
        assert eq.investments == pytest.approx((0.375, 0.375), abs=1e-10)
        assert eq.shares == pytest.approx((0.5, 0.5), abs=1e-12)
        u = eq.shares[0] - eq.investments[0]
        assert u == pytest.approx(0.125, abs=1e-10)
        # cross-check against brute force: neither member can do better
        check = grid_oracle(1.0, 1.5, 0.375**1.5, grid_step=1e-6)
        assert u >= check.optimal_utility - 1e-6

    def test_oversized_set_rejected(self):
        spec = ContestSpec(costs=(1.0,) * 3, alpha=2.0)
        with pytest.raises(ValueError):
            solve_for_set(spec, (0, 1, 2))  # share 1/3 < 1 - 1/2

    def test_alpha_one_rejected(self):
        spec = ContestSpec(costs=(1.0, 1.0))
        with pytest.raises(ValueError):
            solve_for_set(spec, (0, 1))

    def test_singleton_rejected(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=2.0)
        with pytest.raises(ValueError):
            solve_for_set(spec, (0,))

    def test_asymmetric_pair_infeasible_at_alpha_two(self):
        # both members would need share exactly 1/2, impossible at
        # different costs
        spec = ContestSpec(costs=(math.sqrt(0.5), 1.0), alpha=2.0)
        assert solve_for_set(spec, (0, 1)) is None

    def test_foc_residual_of_solution(self):
        spec = ContestSpec(costs=(0.9, 1.0, 1.1), alpha=1.4)
        eq = solve_for_set(spec, (0, 1))
        assert eq is not None
        for i in eq.participants:
            foc = abs(
                spec.costs[i] * eq.investments[i]
                - spec.alpha * eq.shares[i] * (1 - eq.shares[i])
            )
            assert foc <= 1e-9

    def test_prize_rescaling_matches_unit_game(self):
        costs = (0.8, 1.0)
        prized = ContestSpec(costs=costs, alpha=1.5, prize=3.0)
        unit = ContestSpec(costs=tuple(c / 3.0 for c in costs), alpha=1.5)
        eq_prized = solve_for_set(prized, (0, 1))
        eq_unit = solve_for_set(unit, (0, 1))
        assert eq_prized.investments == pytest.approx(
            eq_unit.investments, rel=1e-12
        )

    @settings(max_examples=150)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        st.floats(1.0, 2.0, exclude_min=True),
        st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]),
        st.floats(0.0, 1.0),
    )
    def test_members_never_prefer_abstaining(self, u, alpha, prize, spread):
        # every member's share lies on [1 - 1/alpha, 1), where its utility
        # at the first-order point is >= 0; nothing in solve_for_set checks it
        costs = tuple(prize * (1.0 + spread * x) for x in u)
        spec = ContestSpec(costs, alpha=alpha, prize=prize)
        k = min(len(costs), participation_cap(alpha))
        if k < 2:
            return
        eq = solve_for_set(spec, range(k))
        if eq is None:
            return
        for i in eq.participants:
            assert eq.certificate.verdicts[i].utility >= -1e-12 * prize


#: half-width of the band around a decision threshold inside which the
#: Newton solve and the bisection oracle may decide differently
BAND = 1e-12


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def set_specs(draw, max_n=6):
    """2 to max_n miners (at most the participation cap) with costs inside
    [1e-3, 1e3], log-uniform over a window of up to 6 decades, alpha - 1
    log-uniform over [1e-12, 1] and the prize over [1e-8, 1e8]."""
    alpha = 1.0 + draw(log_uniform(1e-12, 1.0))
    n = draw(st.integers(2, min(max_n, participation_cap(alpha))))
    decades = draw(st.floats(0.0, 5.9))
    base = draw(log_uniform(1e-3, 1e3 / 10.0**decades))
    costs = tuple(base * 10.0 ** (decades * draw(st.floats(0.0, 1.0)))
                  for _ in range(n))
    return ContestSpec(costs, alpha, draw(log_uniform(1e-8, 1e8)))


def in_none_band(spec, participants):
    """Whether sum x - 1 at s_max, the quantity solve_for_set compares with
    SUM_TOL to return None, lies within BAND of it."""
    alpha = spec.alpha
    costs = unit_costs(spec)[list(participants)].tolist()
    s_max = alpha * share_weight(1 - 1 / alpha, alpha) / max(costs)
    end = sum(reference_invert_share_weight(c * s_max / alpha, alpha)
              for c in costs) - 1.0
    return abs(end - eos.SUM_TOL) <= BAND


def in_certification_band(spec, eq):
    """Whether the worst slack is within BAND of the certification
    threshold, or some miner's interior utility within BAND of the
    marginal threshold, all in units of the prize."""
    cert, v = eq.certificate, spec.prize
    if abs(cert.worst_slack + cert.tolerance * v) <= BAND * v:
        return True
    q = np.asarray(eq.investments)
    _, _, interior, _ = br._best_responses(
        unit_costs(spec), spec.alpha,
        _opposition_powers(q, spec.alpha))
    return bool(np.any(np.abs(np.abs(interior) - 1e-9) <= BAND))


class TestNewtonSolve:
    """solve_for_set against the nested-bisection oracle it replaced."""

    @settings(max_examples=200)
    @given(set_specs(), st.data())
    def test_same_decisions_as_the_bisection_oracle(self, spec, data):
        # the cheapest k miners, so outsiders are certified too
        k = data.draw(st.integers(2, spec.n))
        cheapest = np.argsort(spec.costs, kind="stable")
        members = tuple(sorted(cheapest[:k].tolist()))
        new = solve_for_set(spec, members)
        old = reference_solve_for_set(spec, members)
        if (new is None) != (old is None):
            assert in_none_band(spec, members)
            return
        if new is None:
            return
        assert new.residual <= eos.SUM_TOL
        if not (in_certification_band(spec, new)
                or in_certification_band(spec, old)):
            assert new.certificate.certified == old.certificate.certified
            assert (new.certificate.marginal_miners
                    == old.certificate.marginal_miners)
        if spec.alpha - 1.0 >= 1e-3:
            assert new.investments == pytest.approx(old.investments,
                                                    rel=1e-9, abs=0.0)

    @settings(max_examples=30)
    @given(set_specs(max_n=7))
    def test_enumeration_finds_the_oracle_sets(self, spec):
        found = {eq.participants for eq in enumerate_equilibria(spec)}
        expected = {eq.participants for eq in brute_force_equilibria(
            spec, solve=reference_solve_for_set)}
        for members in found ^ expected:
            new = solve_for_set(spec, members)
            old = reference_solve_for_set(spec, members)
            assert (in_none_band(spec, members)
                    or any(in_certification_band(spec, eq)
                           for eq in (new, old) if eq is not None))


def pair_ratio_bound(alpha):
    """Largest cost ratio c_hi / c_lo at which a pair has a profile with
    both shares on the branch: f(1 - 1/alpha) / f(1/alpha)."""
    return share_weight(1 - 1 / alpha, alpha) / share_weight(1 / alpha, alpha)


class TestNewtonRegressions:
    # Near alpha = 1 the gap sum is so steep at s_max that a Newton step
    # from there can round to no move at all. Without the bisection
    # safeguard the last three pairs stop at s_max with |share sum - 1|
    # from 3.4e-3 to 1.5e-2 and fail certification; the first stalls as
    # well once h' loses its digits at the branch end.
    @pytest.mark.parametrize("spec", [
        ContestSpec((1.172922138607785, 6.247788681893557e-07),
                    alpha=1.0000000000013014),
        ContestSpec((0.005644859155405974, 1.6388884424467185),
                    alpha=1.0000000000000016),
        ContestSpec((1.5690703990119064, 0.0030432445920768434),
                    alpha=1.000000000000003),
        ContestSpec((0.10823517439331869, 0.0016236685323310033),
                    alpha=1.000000000000007),
    ])
    def test_alpha_near_one_pairs_certify(self, spec):
        eq = solve_for_set(spec, (0, 1))
        assert eq is not None
        assert eq.residual <= eos.SUM_TOL
        assert eq.certificate.certified

    def test_deterrence_pairs_and_marginal_miners(self):
        eqs = enumerate_equilibria(deterrence_spec(2))
        assert [(eq.participants, eq.certificate.marginal_miners)
                for eq in eqs] == [((1, 2), (0, 1, 2)), ((1, 3), (0, 1, 3)),
                                   ((2, 3), (0, 2, 3))]

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_pair_knife_edge(self, alpha):
        # at alpha = 2 the bound is 1: only equal costs have a profile
        bound = pair_ratio_bound(alpha)
        below = bound * (1 - 1e-6) if bound > 1.0 else bound
        eq = solve_for_set(ContestSpec((1.0, below), alpha=alpha), (0, 1))
        assert eq is not None and eq.certificate.certified
        above = ContestSpec((1.0, bound * (1 + 1e-6)), alpha=alpha)
        assert solve_for_set(above, (0, 1)) is None


class TestAlphaJustAboveOne:
    """At alpha = 1 + 1 ulp, far-apart costs put share targets below the
    inversion's upper bracket, which once raised "not bracketed"."""

    @pytest.mark.parametrize("costs", [(1e-12, 1.0), (1e-12, 0.2)])
    def test_solve_for_set_returns(self, costs):
        eq = solve_for_set(ContestSpec(costs, alpha=ALPHA_ULP), (0, 1))
        assert eq is None or isinstance(eq, EosEquilibrium)

    @pytest.mark.parametrize("costs", [(1e-12, 1.0), (1e-12, 0.2, 0.3)])
    def test_enumerate_returns_a_list(self, costs):
        assert isinstance(
            enumerate_equilibria(ContestSpec(costs, alpha=ALPHA_ULP)), list)


class TestCostRatioBound:
    """A set with c_min/c_max < (k - 1)(alpha - 1) cannot participate: the
    cheapest member's gap at s_max is below (k - 1)(1 - 1/alpha), the
    others hold at least 1 - 1/alpha each, so the shares exceed 1 there.
    The excess shrinks like (alpha - 1)**2 * |log(alpha - 1)|, so below
    alpha - 1 of about 1e-7 SUM_TOL absorbs it, and solve_for_set returns
    None for such sets before solving."""

    @settings(max_examples=300)
    @given(alpha=log_uniform(1e-16, 1.0).map(lambda d: 1.0 + d),
           data=st.data())
    def test_sets_below_the_bound_return_none(self, alpha, data):
        assume(alpha > 1.0)  # 1 + d rounds to 1 for d below 1.1e-16
        k = data.draw(st.integers(2, min(6, participation_cap(alpha))))
        bound = (k - 1) * (alpha - 1.0) * (1.0 - 1e-12)
        # just under the bound, or anywhere below it
        shortfall = data.draw(st.one_of(log_uniform(1e-15, 1e-6),
                                        st.floats(0.0, 1.0)))
        c_max = data.draw(log_uniform(1e-3, 1e3))
        c_min = c_max * bound * (1.0 - shortfall)
        assume(0.0 < c_min and c_min / c_max < bound)
        between = [c_min + (c_max - c_min) * data.draw(st.floats(0.0, 1.0))
                   for _ in range(k - 2)]
        costs = data.draw(st.permutations([c_min, c_max, *between]))
        prize = data.draw(log_uniform(2.0**-6, 2.0**6))
        spec = ContestSpec(tuple(costs), alpha, prize)
        assert min(spec.costs) / max(spec.costs) < bound
        assert solve_for_set(spec, range(k)) is None

    @pytest.mark.parametrize("alpha", [1.0 + 1e-15, 1.0 + 1e-13])
    def test_sets_below_the_bound_near_alpha_one_are_skipped(self, alpha):
        # half the bound: the shares at s_max exceed 1 by less than
        # SUM_TOL, so a solve could return a pair that certifies within
        # 1e-9; the bound keeps it out
        spec = ContestSpec((0.5 * (alpha - 1.0), 1.0), alpha)
        assert solve_for_set(spec, (0, 1)) is None
        assert enumerate_equilibria(spec) == []


@st.composite
def cost_class_specs(draw):
    """n <= 8 miners drawn from at most three cost levels."""
    levels = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3))
    n = draw(st.integers(2, 8))
    costs = tuple(draw(st.sampled_from(levels)) for _ in range(n))
    prize = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    alpha = draw(st.floats(1.0, 2.0, exclude_min=True))
    return ContestSpec(tuple(prize * c for c in costs), alpha, prize)


class TestEnumerate:
    @settings(max_examples=60)
    @given(cost_class_specs())
    def test_copies_certified_by_symmetry_match_a_fresh_check(self, spec):
        verified = []

        def recording(spec, profile, tol=eos.CERT_TOL):
            verified.append(tuple(sorted(
                spec.costs[i] for i, q in enumerate(profile) if q > 0)))
            return verify_equilibrium(spec, profile, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eos, "verify_equilibrium", recording)
            eqs = enumerate_equilibria(spec)
        # one certificate per cost multiset: a relabelled copy never gets one
        assert len(verified) == len(set(verified))

        by_multiset = Counter()
        for eq in eqs:
            assert eq.participants == tuple(
                i for i, q in enumerate(eq.investments) if q > 0)
            assert eq.shares == pytest.approx(
                shares(spec, eq.investments).shares, abs=1e-15)
            cert = eq.certificate
            fresh = verify_equilibrium(spec, eq.investments)
            assert cert.certified and fresh.certified
            assert [v.miner for v in cert.verdicts] == list(range(spec.n))
            assert cert.marginal_miners == fresh.marginal_miners
            assert ([v.note for v in cert.verdicts]
                    == [v.note for v in fresh.verdicts])
            for mine, theirs in zip(cert.verdicts, fresh.verdicts):
                assert abs(mine.slack - theirs.slack) <= 1e-12 * spec.prize
            by_multiset[tuple(sorted(spec.costs[i]
                                     for i in eq.participants))] += 1
        # every index set of a certified cost multiset is reported once
        for key, found in by_multiset.items():
            assert key in verified
            assert found == sum(
                1 for s in combinations(range(spec.n), len(key))
                if tuple(sorted(spec.costs[i] for i in s)) == key)

    def test_deterrence_m2_exactly_three(self):
        spec = deterrence_spec(2)
        eqs = enumerate_equilibria(spec)
        assert len(eqs) == 3
        assert sorted(eq.participants for eq in eqs) == [
            (1, 2), (1, 3), (2, 3)
        ]
        for eq in eqs:
            assert eq.investments[0] == 0.0
            active = [q for q in eq.investments if q > 0]
            assert active == pytest.approx([0.5, 0.5], abs=1e-9)
            assert eq.certificate.certified
            assert 0 in eq.certificate.marginal_miners

    @pytest.mark.parametrize("m", [3, 4])
    def test_deterrence_symmetric_blocks_certified(self, m):
        spec = deterrence_spec(m)
        eqs = enumerate_equilibria(spec)
        unit_sets = [
            eq for eq in eqs
            if len(eq.participants) == m and 0 not in eq.participants
        ]
        assert len(unit_sets) == math.comb(m + 1, m)
        for eq in unit_sets:
            active = [q for q in eq.investments if q > 0]
            assert active == pytest.approx([1 / m] * m, abs=1e-9)

    def test_above_two_is_empty(self):
        spec = ContestSpec(costs=(1.0, 1.0, 1.0), alpha=2.5)
        assert enumerate_equilibria(spec) == []

    def test_symmetric_mid_alpha_membership(self):
        spec = ContestSpec(costs=(1.0,) * 3, alpha=1.5)
        eqs = enumerate_equilibria(spec)
        found = sorted(eq.participants for eq in eqs)
        # pairs invest 0.375 with positive utility; the full triple sits at
        # the zero-utility boundary; certification admits both layers
        assert found == [(0, 1), (0, 1, 2), (0, 2), (1, 2)]

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            enumerate_equilibria(ContestSpec(costs=(1.0, 1.0)))

    def test_enumeration_cap_enforced(self):
        spec = ContestSpec(costs=(1.0,) * 31, alpha=1.5)
        with pytest.raises(ValueError):
            enumerate_equilibria(spec)

    def test_participation_cap_binds(self):
        spec = ContestSpec(costs=(1.0,) * 12, alpha=1.1)
        eqs = enumerate_equilibria(spec)
        counts = {len(eq.participants) for eq in eqs}
        assert max(counts) == 11 == participation_cap(1.1)

    def test_alpha_near_one_approaches_proportional(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=1.001)
        eqs = enumerate_equilibria(spec)
        assert len(eqs) == 1
        proportional_q = solve_equilibrium(
            ContestSpec(costs=(1.0, 1.0))
        ).investments
        drift = max(
            abs(a - b)
            for a, b in zip(eqs[0].investments, proportional_q)
        )
        assert drift <= 0.01

    def test_ordering_and_positive_utility_invariants(self):
        rng = np.random.default_rng(17)
        seen = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            alpha = float(rng.uniform(1.1, 2.0))
            costs = tuple(np.exp(rng.uniform(-0.3, 0.3, n)))
            eqs = enumerate_equilibria(ContestSpec(costs=costs, alpha=alpha))
            cap = participation_cap(alpha)
            for eq in eqs:
                seen += 1
                assert len(eq.participants) <= cap
                for i in eq.participants:
                    assert eq.shares[i] >= 1 - 1 / alpha - 1e-9
                    u = (eq.shares[i] - costs[i] * eq.investments[i])
                    assert u >= -1e-12
                # the larger investor is never the costlier one, and equal
                # investments only come from equal costs
                for a in eq.participants:
                    for b in eq.participants:
                        qa, qb = eq.investments[a], eq.investments[b]
                        if qa > qb + 1e-9:
                            assert costs[a] <= costs[b]
                        if abs(qa - qb) <= 1e-9 and abs(
                            costs[a] - costs[b]
                        ) > 1e-6:
                            pytest.fail(
                                f"equal investments at distinct costs: "
                                f"{(a, b)} in {eq.participants}"
                            )
        assert seen > 0  # the battery actually certified some equilibria


@st.composite
def window_specs(draw):
    """Up to 8 miners, with a tolerance: equal-cost ties, near-equal and
    10-fold costs, alpha - 1 from 1e-9 up, alpha = 2 and 1 + 1/k exactly,
    and the deterrence games, whose abstainer sits on the knife-edge."""
    family = draw(st.sampled_from(["ties", "near", "spread", "deterrence"]))
    if family == "deterrence":
        game = deterrence_spec(draw(st.integers(2, 4)))
        alpha, costs = game.alpha, list(game.costs)
    else:
        alpha = draw(st.one_of(
            st.just(2.0), st.integers(1, 8).map(lambda k: 1.0 + 1.0 / k),
            log_uniform(1e-9, 1.0).map(lambda d: 1.0 + d)))
        n = draw(st.integers(2, 8))
        if family == "ties":
            levels = draw(st.lists(st.floats(1.0, 1.5), min_size=1,
                                   max_size=3))
            costs = [draw(st.sampled_from(levels)) for _ in range(n)]
        else:
            top = 0.05 if family == "near" else 10.0
            costs = [1.0 + top * draw(st.floats(0.0, 1.0)) for _ in range(n)]
    prize = draw(log_uniform(2.0**-6, 2.0**6))
    spec = ContestSpec(tuple(prize * c for c in costs), alpha, prize)
    return spec, draw(st.sampled_from([0.0, 1e-9, 1e-6]))


def abstention_scale(alpha):
    """kappa: an outsider at c*s = kappa ties abstaining with its best
    interior response."""
    return (alpha - 1.0) ** ((alpha - 1.0) / alpha) / alpha


def branch_end_scale(alpha):
    """lambda: a member at c*s = lambda holds the share 1 - 1/alpha."""
    return alpha * share_weight(1.0 - 1.0 / alpha, alpha)


class TestWindowSearch:
    """enumerate_equilibria's window-cut walk against exhaustion, and the
    soundness of its two cuts. A set the screen rejects, or one with a
    member beyond the reach, must fail its certificate by more than tol:
    the band keeps 2*tol, so the screen never rests on the certificate's
    last digits."""

    @settings(max_examples=150)
    @given(window_specs())
    def test_same_equilibria_as_the_brute_force_oracle(self, case):
        spec, tol = case
        assert (repr(enumerate_equilibria(spec, tol))
                == repr(brute_force_equilibria(spec, tol)))

    @pytest.mark.parametrize("spec", [
        # the certificate of a set the screen would reject overflows
        ContestSpec((1.842953215592486e-76, 8.479932464724076e-76,
                     2.0604395733965947e-76, 3.1322283692857123e-77,
                     1.4036831357482383e-76), alpha=1.3699081068578074,
                     prize=4.560763788300967e+223),
        # s_max overflows on every pair; the first in size order is (0, 1)
        ContestSpec((3.506715e-318, 1.082459e-317, 1.767243e-318),
                    alpha=1.3164520874044903),
        ContestSpec((1e300, 2e300, 3e300), alpha=1.5, prize=1e-10),
        # no unit-prize game, but no pair within the cost-ratio bound
        ContestSpec((1e-300, 1e100), alpha=1.5, prize=1e100),
    ])
    def test_same_float_range_outcome_as_the_brute_force_oracle(self, spec):
        def outcome(search):
            try:
                return repr(search(spec))
            except ValueError as exc:
                return f"ValueError: {exc}"

        assert outcome(enumerate_equilibria) == outcome(
            brute_force_equilibria)

    @settings(max_examples=200)
    @given(alpha=log_uniform(1e-9, 1.0).map(lambda d: 1.0 + d),
           tol=st.sampled_from([0.0, 1e-9, 1e-6]), w=st.floats(0.0, 3.0),
           prize=log_uniform(2.0**-6, 2.0**6))
    def test_a_screened_set_fails_its_certificate_by_more_than_tol(
            self, alpha, tol, w, prize):
        # an equal-cost pair and an outsider at c_o*s = kappa*(1 - w*delta)
        floor = eos._outsider_floor(alpha, tol)
        kappa = abstention_scale(alpha)
        delta = (2.0 * tol + eos.SCREEN_FLOOR) * alpha / (alpha - 1.0)
        assume(delta * max(w, 1.0) < 1.0)
        assert floor == pytest.approx(kappa * (1.0 - delta), rel=1e-12)
        pair = ContestSpec((prize,) * 3, alpha, prize)
        s = eos._solve(pair, (0, 1))[0]
        c_o = prize * kappa * (1.0 - w * delta) / s
        spec = ContestSpec((prize, prize, c_o), alpha, prize)
        s_star, _, _, residual = eos._solve(spec, (0, 1))
        screened = unit_costs(spec)[2] * s_star * (1.0 + residual) < floor
        if abs(w - 1.0) > 1e-3:
            assert screened == (w > 1.0)
        if screened:
            cert = solve_for_set(spec, (0, 1), tol).certificate
            assert not cert.certified
            assert cert.verdicts[2].slack < -2.0 * tol * prize

    @settings(max_examples=120)
    @given(alpha_index=st.integers(2, 4), w=st.floats(0.0, 3.0),
           tol=st.sampled_from([0.0, 1e-9, 1e-6]),
           extra=st.lists(st.floats(0.5, 2.0), max_size=2),
           prize=log_uniform(2.0**-6, 2.0**6), data=st.data())
    def test_no_set_with_a_member_beyond_the_reach_certifies(
            self, alpha_index, w, tol, extra, prize, data):
        # a block of m unit-cost members on the branch end, c*s = lambda,
        # at alpha = m/(m-1), or an alpha = 1 + 1/m pair at the ratio
        # bound, and an outsider at w*delta inside or beyond the reach
        m = alpha_index
        if data.draw(st.booleans()):
            alpha, members = m / (m - 1), [1.0] * m
        else:
            alpha = 1.0 + 1.0 / m
            ratio = (share_weight(1 - 1 / alpha, alpha)
                     / share_weight(1 / alpha, alpha))
            members = [1.0, ratio * (1.0 - 1e-12)]
        floor = eos._outsider_floor(alpha, tol)
        assume(floor > 0.0)
        delta = 1.0 - floor / abstention_scale(alpha)
        assume(w * delta < 1.0)
        outsider = (max(members) * abstention_scale(alpha) * (1.0 - w * delta)
                    / branch_end_scale(alpha))
        costs = members + [outsider] + extra
        spec = ContestSpec(tuple(prize * c for c in costs), alpha, prize)
        unit = unit_costs(spec)
        reach = branch_end_scale(alpha) / floor
        beyond = 0
        for k in range(2, min(participation_cap(alpha), spec.n) + 1):
            for s in combinations(range(spec.n), k):
                rest = [i for i in range(spec.n) if i not in s]
                if not rest:
                    continue
                o = min(rest, key=lambda i: unit[i])
                if max(unit[list(s)]) <= unit[o] * reach:
                    continue
                eq = solve_for_set(spec, s, tol)
                if eq is not None:
                    beyond += 1
                    assert not eq.certificate.certified
                    assert (eq.certificate.verdicts[o].slack
                            < -2.0 * tol * prize)
        if w > 1.0 + 1e-3 and not extra:
            assert beyond  # the members' own set is beyond the reach


class TestVerify:
    def test_deterrence_profile_certified_with_marginal_flags(self):
        spec = deterrence_spec(2)
        cert = verify_equilibrium(spec, (0.0, 0.5, 0.5, 0.0))
        assert cert.certified
        assert 0 in cert.marginal_miners
        assert cert.verdicts[0].slack == pytest.approx(0.0, abs=1e-12)

    def test_abstainer_with_a_losing_stationary_point_is_not_marginal(self):
        # miner 2's interior stationary point loses 1.9e-3 of the prize: it
        # abstains by a clear margin, so it is no knife-edge
        spec = ContestSpec((1.0, 1.05, 1.5), alpha=1.1)
        eq = solve_for_set(spec, (0, 1))
        assert eq.certificate.certified
        assert eq.certificate.marginal_miners == ()
        assert eq.certificate.verdicts[2].best_responses == (0.0,)
        opposition = float((np.asarray(eq.investments) ** 1.1).sum())
        result = best_response_eos(1.5, 1.1, opposition)
        assert result.interior_candidate is not None
        interior = utility_against(result.interior_candidate, 1.5, 1.1,
                                   opposition)
        assert interior == pytest.approx(-1.94e-3, rel=1e-2)

    def test_cross_module_proportional_equilibrium(self):
        spec = ContestSpec(costs=(0.5, 0.7, 0.9, 1.1))
        eq = solve_equilibrium(spec)
        cert = verify_equilibrium(spec, eq.investments)
        assert cert.certified

    def test_uniform_overinvestment_rejected(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=2.0)
        cert = verify_equilibrium(spec, (1.0, 1.0))
        assert not cert.certified
        assert cert.worst_slack < -0.4  # each earns -1/2, abstaining gives 0

    def test_verdicts_are_named_tuples(self):
        cert = verify_equilibrium(deterrence_spec(2), (0.0, 0.5, 0.5, 0.0))
        v = cert.verdicts[1]
        assert v == tuple(v) and v[0] == v.miner == 1
        assert v._replace(miner=3).miner == 3

    def test_all_zero_profile_rejected(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=1.5)
        cert = verify_equilibrium(spec, (0.0, 0.0))
        assert not cert.certified
        assert all("zero opposition" in v.note for v in cert.verdicts)

    def test_stationarity_echo_at_certified_profiles(self):
        # each participant's marginal utility vanishes; abstainers face a
        # nonpositive entry slope
        spec = deterrence_spec(3)
        eqs = enumerate_equilibria(spec)
        assert eqs
        for eq in eqs[:3]:
            q = np.asarray(eq.investments)
            for i in range(spec.n):
                if q[i] > 0:
                    slope = (
                        spec.prize * marginal_share(spec, q, i)
                        - spec.costs[i]
                    )
                    assert abs(slope) <= 1e-9
                else:
                    assert spec.costs[i] > 0  # entry slope at 0+ is -c_i
        # proportional case: abstainers see marginal utility <= 1e-9 too
        prop = ContestSpec(costs=(0.5, 0.7, 2.0, 3.0))
        eq = solve_equilibrium(prop)
        q = np.asarray(eq.investments)
        for i in range(prop.n):
            slope = prop.prize * marginal_share(prop, q, i) - prop.costs[i]
            if q[i] > 0:
                assert abs(slope) <= 1e-9
            else:
                assert slope <= 1e-9


class TestPairwiseBound:
    def test_self_pair_reduces_to_share_floor(self):
        spec = ContestSpec(costs=(1.0, 1.0), alpha=1.5)
        eq = solve_for_set(spec, (0, 1))
        rows = pairwise_bound_check(spec, eq)
        own = [r for r in rows if r.i == r.j]
        for r in own:
            assert r.bound == pytest.approx(1 - 1 / 1.5, abs=1e-12)
            assert r.ok

    def test_deterrence_pair_is_tight(self):
        spec = deterrence_spec(2)
        eqs = enumerate_equilibria(spec)
        rows = pairwise_bound_check(spec, eqs[0])
        for r in rows:
            assert r.ok
            assert r.actual == pytest.approx(0.5, abs=1e-9)
            assert r.bound == pytest.approx(0.5, abs=1e-9)  # 1 - (1/2)(1/1)

    def test_random_certified_instances_have_no_violations(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            alpha = float(rng.uniform(1.2, 2.0))
            costs = tuple(np.exp(rng.uniform(-0.2, 0.2, n)))
            spec = ContestSpec(costs=costs, alpha=alpha)
            for eq in enumerate_equilibria(spec):
                assert all(r.ok for r in pairwise_bound_check(spec, eq))


#: the spec of the certification-tolerance checks, whose cheapest pair is
#: its one equilibrium at tol = 0 and at the default
TOL_SPEC = ContestSpec((1.0, 1.2, 2.0), alpha=1.5)
BAD_TOLS = [math.nan, -1.0, math.inf]


class TestCertificationTolerance:
    """A negative or non-finite tol used to certify nothing or to drop every
    set without a word; it is rejected by name, and tol = 0 stays valid."""

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_enumerate_rejects_it(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            enumerate_equilibria(TOL_SPEC, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_solve_for_set_rejects_it(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            solve_for_set(TOL_SPEC, (0, 1), tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_verify_rejects_it(self, tol):
        q = solve_for_set(TOL_SPEC, (0, 1)).investments
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            verify_equilibrium(TOL_SPEC, q, tol=tol)

    def test_zero_is_valid(self):
        eqs = enumerate_equilibria(TOL_SPEC, tol=0.0)
        assert [eq.participants for eq in eqs] == [(0, 1)]
        assert solve_for_set(TOL_SPEC, (0, 1), tol=0.0).certificate.certified
