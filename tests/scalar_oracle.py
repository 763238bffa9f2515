"""Slow scalar references for the fast kernels.

Each miner's opposition is summed over a fresh O(n) mask and each best
response comes from the scalar oracle, one miner at a time: O(n^2) per
certificate or dynamics round. The alpha = 1 best responses of a whole
profile also come from the closed form on whole arrays, with no miner
screened out, and the alpha > 1 ones from the certificate's earlier
vectorised lane, which carries its own log target and its own loop over
the share-gap kernel. The alpha > 1 best response bisects on the marginal
utility in q. The full-scan dynamics sends every miner through
the update in every round, idle ones included, and takes its alpha > 1
updates from that earlier lane as a batch of one. The per-set solve nests
scalar bisections: one on the power scale s, and one per member and step
to invert the share weight f. Enumeration solves and certifies every
subset up to the participation cap. The convexity crossover of utility
comes from a bisection on the sign of its second difference. Kept only
as test-time cross-checks.
"""

import math
from itertools import combinations

import numpy as np

from contesteq import best_response as br
from contesteq.core import (_aggregate_beyond_range, _powers, _sums_after,
                            as_investments, shares, unit_costs,
                            unit_utilities)
from contesteq.dynamics import Trajectory, _nearest
from contesteq.eos import (CERT_TOL, MAX_MINERS, SUM_TOL, EosEquilibrium,
                           EquilibriumCertificate, MinerVerdict, _relabelled,
                           _validate_set, participation_cap, share_weight,
                           solve_for_set, verify_equilibrium)
from contesteq.roots import bisect_monotone


def masked_opposition(q: np.ndarray, alpha: float, i: int) -> float:
    """sum_{j != i} q_j**alpha over an O(n) mask."""
    mask = np.arange(q.size) != i
    if alpha == 1.0:
        return float(q[mask].sum())
    return float((q[mask] ** alpha).sum())


def utility_against(q: float, cost: float, alpha: float,
                    opposition_power: float) -> float:
    """Unit-prize utility x(q) - cost * q against fixed opposition."""
    if q == 0.0:
        return 0.0
    x = q**alpha / (q**alpha + opposition_power)
    return x - cost * q


def entry_cost(alpha: float, opposition: float) -> float:
    """The cost at which an outsider's best response starts to have a
    stationary point: zero marginal utility at the share (alpha-1)/(2 alpha)
    (alpha > 1), or a zero closed-form candidate (alpha = 1)."""
    if alpha == 1.0:
        return 1.0 / opposition
    r = (alpha - 1.0) / (2.0 * alpha)
    q_lo = (opposition * r / (1.0 - r)) ** (1.0 / alpha)
    return alpha * r * (1.0 - r) / q_lo


def best_response(cost: float, alpha: float,
                  opposition_power: float) -> br.BestResponseResult:
    """The unit-prize best response of either model: the public
    best_response_proportional at alpha = 1, else best_response_eos;
    NoBestResponse at zero opposition."""
    if alpha == 1.0:
        return br.best_response_proportional(cost, opposition_power)
    return br.best_response_eos(cost, alpha, opposition_power)


def reference_best_response_eos(cost: float, alpha: float,
                                 opposition_power: float
                                 ) -> br.BestResponseResult:
    """Unit-prize alpha > 1 best response by bisection in q on the marginal
    utility, which decreases past the share (alpha-1)/(2*alpha), where
    utility turns concave; no stationary point there means abstain. The
    upper bracket starts at 1/cost and doubles until it holds the root."""
    a = opposition_power

    def marg(q: float) -> float:
        x = q**alpha / (q**alpha + a)
        return alpha * x * (1.0 - x) / q - cost

    r = (alpha - 1.0) / (2.0 * alpha)
    q_lo = (a * r / (1.0 - r)) ** (1.0 / alpha)  # share exactly r
    if marg(q_lo) <= 0.0:
        return br.BestResponseResult((0.0,), 0.0, None)
    q_hi = max(1.0 / cost, 2.0 * q_lo)
    while marg(q_hi) > 0.0:  # alpha > 2 can push the root past 1/cost
        q_hi *= 2.0
    q_star = bisect_monotone(marg, q_lo, q_hi, f_tol=1e-13 * cost,
                             x_tol=1e-15 * q_hi, max_iter=200).root
    u_star = utility_against(q_star, cost, alpha, a)
    if u_star > br.TIE_TOL:
        return br.BestResponseResult((q_star,), u_star, q_star)
    if u_star >= -br.TIE_TOL:
        return br.BestResponseResult((0.0, q_star), max(0.0, u_star), q_star)
    return br.BestResponseResult((0.0,), 0.0, q_star)


def vector_closed_form(costs: np.ndarray, oppositions: np.ndarray):
    """_best_responses at alpha = 1 in one vectorised pass over every miner:
    the closed form on whole arrays, with the float operations of the
    scalar _closed_form. Where a / c is no normal float, q = sqrt(a / c) - a
    is taken as sqrt(a) * (1/sqrt(c) - sqrt(a)), which keeps its digits and
    overflows only with q, and where q + a overflows, the share q / (q + a)
    as 1 / (1 + a / q). No abstention screen: every miner facing positive
    opposition goes through the closed form."""
    alone = oppositions == 0.0
    responses = [(0.0,)] * costs.size
    for i in np.flatnonzero(alone).tolist():
        responses[i] = ()
    best = np.where(alone, np.inf, 0.0)
    interior = np.full(costs.size, np.nan)
    candidates = np.full(costs.size, np.nan)
    live = np.flatnonzero(~alone)
    c, a = costs[live], oppositions[live]
    with np.errstate(over="ignore"):  # an inf q is named below
        ratio = a / c
        q = np.sqrt(ratio) - a
        wide = ~((ratio >= br._TINY) & (ratio < math.inf))
        root_a = np.sqrt(a[wide])
        q[wide] = root_a * (1.0 / np.sqrt(c[wide]) - root_a)
    inside = q > 0.0
    live, c, a, q = live[inside], c[inside], a[inside], q[inside]
    for i in live[q == math.inf].tolist()[:1]:
        raise br._beyond_range(float(costs[i]), float(oppositions[i]), 1.0)
    with np.errstate(over="ignore"):
        total = q + a
    x = q / total
    wide = total == math.inf
    x[wide] = 1.0 / (1.0 + a[wide] / q[wide])
    u = x - c * q
    for i, qi, ui in zip(live.tolist(), q.tolist(), u.tolist()):
        responses[i] = ((qi,) if ui > br.TIE_TOL
                        else (0.0, qi) if ui >= -br.TIE_TOL else (0.0,))
    best[live] = np.maximum(u, 0.0)
    interior[live] = u
    candidates[live] = q
    return responses, best, interior, candidates


def vector_eos_lane(costs: np.ndarray, alpha: float,
                    oppositions: np.ndarray):
    """_best_responses at alpha > 1 as one vectorised lane with its own copy
    of the log target (alpha*log c + log a - alpha*log alpha)/(alpha+1)
    and its own loop over the share-gap kernel: the certificate's lane
    before best_response._stationaries took over its post-screen work. A
    target at or above the peak abstains, and the rest go through one
    _share_gaps call up to the peak; a candidate beyond the float range
    raises as it is met, in index order."""
    alone = oppositions == 0.0
    responses = [(0.0,)] * costs.size
    for i in np.flatnonzero(alone).tolist():
        responses[i] = ()
    best = np.where(alone, np.inf, 0.0)
    interior = np.full(costs.size, np.nan)
    candidates = np.full(costs.size, np.nan)
    live = np.flatnonzero(~alone)
    c, a = costs[live], oppositions[live]
    e, log_alpha = 0.5 * (alpha + 1.0), math.log(alpha)
    z_peak, log_f_peak = br._peak(alpha)
    log_a = np.log(a)
    log_t = (alpha * np.log(c) + log_a - alpha * log_alpha) / (alpha + 1.0)
    inside = log_t < log_f_peak
    live, log_t = live[inside], log_t[inside].tolist()
    q, u = [], []
    for i, la, z in zip(live.tolist(), log_a[inside].tolist(),
                        br._share_gaps(log_t, log_t, e, z_peak)[0]):
        x = -math.expm1(z)
        try:
            q.append(math.exp((la + math.log(x) - z) / alpha))
        except OverflowError:
            raise br._beyond_range(float(costs[i]), float(oppositions[i]),
                                   alpha) from None
        u.append(-x * math.expm1(z + log_alpha))
    q, u = np.asarray(q), np.asarray(u)
    for i, qi, ui in zip(live.tolist(), q.tolist(), u.tolist()):
        responses[i] = br._maximizers(qi, ui)
    best[live] = np.maximum(u, 0.0)
    interior[live] = u
    candidates[live] = q
    return responses, best, interior, candidates


def reference_verify(spec, profile, tol=CERT_TOL,
                     opposition=masked_opposition) -> EquilibriumCertificate:
    """verify_equilibrium miner by miner: opposition(q, alpha, i), then the
    scalar oracle; marginal when the interior candidate's unit-prize
    utility is within 1e-9 of abstaining."""
    costs, v = unit_costs(spec).tolist(), spec.prize
    q = as_investments(spec, profile)
    u = unit_utilities(costs, q, shares(spec, q).shares).tolist()
    verdicts = []
    for i, cost in enumerate(costs):
        a = opposition(q, spec.alpha, i)
        try:
            result = best_response(cost, spec.alpha, a)
        except br.NoBestResponse as exc:
            verdicts.append(MinerVerdict(
                miner=i, investment=float(q[i]), utility=v * u[i],
                best_utility=math.inf, slack=-math.inf,
                best_responses=(), marginal=False, note=str(exc)))
            continue
        best = result.optimal_utility
        candidate = result.interior_candidate
        verdicts.append(MinerVerdict(
            miner=i, investment=float(q[i]), utility=v * u[i],
            best_utility=v * best, slack=v * (u[i] - best),
            best_responses=result.optimal_investments,
            marginal=(candidate is not None and abs(utility_against(
                candidate, cost, spec.alpha, a)) <= 1e-9),
        ))
    certified = all(verdict.slack >= -tol * v for verdict in verdicts)
    return EquilibriumCertificate(
        certified=certified, tolerance=tol, verdicts=tuple(verdicts))


def reference_dynamics(spec, config, verify_tol=CERT_TOL):
    """run_dynamics with a masked opposition per update; returns the
    status and the terminal profile. A quiet round ends the run only if
    its profile certifies."""
    costs = unit_costs(spec).tolist()
    q = as_investments(spec, config.initial_profile).copy()
    seen = {tuple(q.tolist())}  # tuples compare -0.0 equal to 0.0
    for _ in range(config.max_rounds):
        previous = q.copy()
        for i, cost in enumerate(costs):
            a = masked_opposition(q, spec.alpha, i)
            if a == 0.0:
                continue
            result = best_response(cost, spec.alpha, a)
            q[i] = min(result.optimal_investments,
                       key=lambda m: (abs(m - q[i]), m))
        spend = max(c * abs(new - old)
                    for c, new, old in zip(costs, q, previous))
        if (spend <= config.convergence_tol
                and verify_equilibrium(spec, q, verify_tol).certified):
            return "converged", q
        key = tuple(q.tolist())
        if key in seen:
            return "cycle_detected", q
        seen.add(key)
    return "max_rounds_exhausted", q


def full_scan_dynamics(spec, config, verify_tol=CERT_TOL):
    """run_dynamics sending every miner through the update in every round,
    idle miners included: the round loop before idle segments were
    screened, kept so that run_dynamics can be required to equal it, repr
    for repr. Its alpha > 1 update is the earlier one, independent of
    best_response._stationary: a batch of one through vector_eos_lane,
    whose maximizer set gives the end nearer the incumbent."""
    costs, alpha = unit_costs(spec).tolist(), spec.alpha
    tol, closed_form, inf = config.convergence_tol, br._closed_form, np.inf
    q = as_investments(spec, config.initial_profile).tolist()
    if not any(qi > 0 for qi in q):
        raise ValueError("initial profile must have a positive investment")
    snapshots = [tuple(q)]
    seen = set(snapshots)  # tuples compare and hash -0.0 as 0.0
    status = "max_rounds_exhausted"
    for _ in range(config.max_rounds):  # max_rounds >= 1
        # miner i faces the updated miners before it (a running prefix) and
        # the incumbents after it (suffix sums): O(1), nothing cancelled
        power = _powers(np.asarray(q), alpha)
        with np.errstate(over="ignore"):  # an inf sum is named per update
            after = _sums_after(power).tolist()
        power, before, moved = power.tolist(), 0.0, False
        for i, (cost, qi, p) in enumerate(zip(costs, snapshots[-1], power)):
            opposition = before + after[i]
            if opposition != 0.0:  # else no best response: keep the incumbent
                if opposition + p == inf:  # the state miner i faces
                    raise _aggregate_beyond_range(q, alpha)
                if alpha == 1.0:  # the closed form in plain floats
                    interior, u = closed_form(cost, opposition)
                    response = target = (interior if u > br.TIE_TOL else
                                         _nearest(qi, 0.0, interior))
                else:
                    (maximizers,), *_ = vector_eos_lane(
                        np.asarray([cost]), alpha, np.asarray([opposition]))
                    target = _nearest(qi, maximizers[0], maximizers[-1])
                    response = float(_powers(target, alpha))
                if opposition + response == inf:  # the state it leaves
                    raise _aggregate_beyond_range(q, alpha)
                gain = ((response / (response + opposition) - cost * target)
                        - (p / (p + opposition) - cost * qi))
                if gain < -1e-12:
                    raise ArithmeticError(f"best response lowered miner {i}'s"
                                          f" utility by {-gain} of the prize")
                moved = moved or cost * abs(target - qi) > tol
                q[i], p = target, response
            before += p
        snapshots.append(tuple(q))
        # a quiet round: no spend change c_i * |dq_i| above tol
        certificate = None if moved else verify_equilibrium(spec, q,
                                                            verify_tol)
        if certificate is not None and certificate.certified:
            status = "converged"
            break
        if snapshots[-1] in seen:
            status = "cycle_detected"
            break
        seen.add(snapshots[-1])
    return Trajectory(profiles=tuple(snapshots), status=status, spec=spec,
                      certificate=certificate)


def reference_invert_share_weight(target: float, alpha: float) -> float:
    """x in [1 - 1/alpha, 1) with |f(x) - target| <= 1e-13, by bisection on
    the decreasing branch; targets within 1e-9 above the branch maximum
    give its end, and targets at or below f(1 - 1e-16) give 1 - 1e-16."""
    lo, hi = 1.0 - 1.0 / alpha, 1.0 - 1e-16
    f_max = share_weight(lo, alpha)
    if target >= f_max:
        if target <= f_max * (1.0 + 1e-9):
            return lo
        raise ValueError(f"target {target} above branch maximum {f_max}")
    if target <= share_weight(hi, alpha):
        return hi
    return bisect_monotone(lambda x: share_weight(x, alpha), lo, hi,
                           target=target, f_tol=1e-13, max_iter=200).root


def reference_solve_for_set(spec, participant_set, tol=CERT_TOL):
    """solve_for_set by bisection on s over [1e-12 * s_max, s_max] to
    |share sum - 1| <= SUM_TOL, inverting f member by member at every
    step."""
    s_idx = _validate_set(spec, participant_set)
    alpha = spec.alpha
    costs = unit_costs(spec)[list(s_idx)].tolist()
    s_max = alpha * share_weight(1.0 - 1.0 / alpha, alpha) / max(costs)

    def member_shares(s):
        return [reference_invert_share_weight(c * s / alpha, alpha)
                for c in costs]

    end = sum(member_shares(s_max)) - 1.0
    iterations = 0
    if end > SUM_TOL:
        return None
    if end >= -SUM_TOL:
        s_star, residual = s_max, abs(end)
    else:
        res = bisect_monotone(lambda s: sum(member_shares(s)),
                              s_max * 1e-12, s_max, target=1.0,
                              f_tol=SUM_TOL, max_iter=200)
        s_star, residual, iterations = (res.root, abs(res.residual),
                                        res.iterations)
    q = np.zeros(spec.n)
    q[list(s_idx)] = np.asarray(member_shares(s_star)) ** (1.0 / alpha) * s_star
    return EosEquilibrium(
        participants=s_idx, investments=tuple(q.tolist()),
        shares=shares(spec, q).shares, power_scale=float(s_star),
        certificate=verify_equilibrium(spec, q, tol),
        iterations=iterations, residual=float(residual))


def brute_force_equilibria(spec, tol=CERT_TOL, solve=solve_for_set):
    """enumerate_equilibria by exhaustion: every subset up to the cap in
    size order, lexicographic within a size, each cost multiset solved
    once, through `solve`, and certified on its first index set; the
    certified ones are relabelled onto the later index sets."""
    if spec.alpha <= 1.0:
        raise ValueError("use the proportional solver for alpha = 1")
    if spec.n > MAX_MINERS:
        raise ValueError(
            f"n={spec.n} exceeds the enumeration cap {MAX_MINERS}")
    cap = participation_cap(spec.alpha)
    out = []
    solved = {}
    for k in range(2, min(cap, spec.n) + 1):
        for subset in combinations(range(spec.n), k):
            key = tuple(sorted([spec.costs[i] for i in subset]))
            if key not in solved:
                solved[key] = solve(spec, subset, tol)
            rep = solved[key]
            if rep is None or not rep.certificate.certified:
                continue
            out.append(rep if rep.participants == subset
                       else _relabelled(spec, rep, subset))
    return out


def convexity_crossover(cost: float, alpha: float,
                        opposition_power: float) -> float:
    """The share at which unit-prize utility turns from convex to concave
    in q (alpha > 1), by bisection on the sign of its second difference;
    (alpha - 1) / (2 * alpha) up to the stencil's resolution."""
    a = opposition_power

    def second_difference(q: float) -> float:
        h = 1e-4 * max(q, 1e-6)
        return (utility_against(q + h, cost, alpha, a)
                - 2.0 * utility_against(q, cost, alpha, a)
                + utility_against(q - h, cost, alpha, a))

    # bracket the crossover between a clearly convex and a clearly concave q
    lo = (a * 1e-6) ** (1.0 / alpha)  # share ~ 1e-6, convex side
    hi = a ** (1.0 / alpha)  # share 1/2 > (alpha-1)/(2 alpha), concave side
    if not second_difference(lo) > 0 > second_difference(hi):
        raise ArithmeticError("convexity crossover not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if second_difference(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    q = 0.5 * (lo + hi)
    return q**alpha / (q**alpha + a)
