"""Best-response oracles: closed form, FOC bisection, and brute force.

Against fixed opponents a miner maximizes prize * x(q) - c * q where
x(q) = q**alpha / (q**alpha + A) and A is the opponents' aggregate power
sum_{j != i} q_j**alpha (plain opposition sum R when alpha = 1).

For alpha = 1 the maximizer is max(0, sqrt(prize * R / c) - R). For
alpha > 1 utility is convex then concave in q, with the crossover exactly
at share (alpha - 1) / (2 * alpha); the only interior candidate is the
stationary point on the concave side, which is compared against
abstaining. The grid oracle is an exhaustive scan kept deliberately
independent of both analytic paths.

Prize boundary: the analytic oracles solve the unit-prize game at cost
c / prize and multiply the utility they report by the prize, so their
tolerances are relative to it. The helpers the rest of the package shares
are prize-free: opposition power, best-response dispatch, and utility
against a given opposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .roots import bisect_monotone

#: both-maximizers reporting threshold on the utility gap, a share of prize
TIE_TOL = 1e-12
ZERO_OPPOSITION = "zero opposition: no best response exists"


class NoBestResponse(ValueError):
    """Raised when aggregate opposition is zero: the utility supremum is
    not attained (any tiny positive investment wins the whole prize)."""


@dataclass(frozen=True)
class BestResponseResult:
    """Maximizer set (singleton, or {0, interior} on a tie), its utility,
    and the interior stationary candidate if one exists."""

    optimal_investments: tuple[float, ...]
    optimal_utility: float
    interior_candidate: Optional[float] = None


def _sums_after(power: np.ndarray) -> np.ndarray:
    """sum_{j > i} power_j for every i: exclusive suffix sums."""
    return np.concatenate((np.cumsum(power[:0:-1])[::-1], [0.0]))


def _opposition_powers(q: np.ndarray, alpha: float) -> np.ndarray:
    """sum_{j != i} q_j**alpha for every miner i, the power each competes
    against, in O(n) from exclusive prefix and suffix sums. Total minus
    own would cancel when one miner holds nearly all the power."""
    power = q if alpha == 1.0 else q**alpha
    return _sums_after(power[::-1])[::-1] + _sums_after(power)


def _best_response(cost: float, alpha: float,
                   opposition_power: float) -> BestResponseResult:
    """Unit-prize best response; raises NoBestResponse at zero opposition."""
    if alpha == 1.0:
        return best_response_proportional(cost, opposition_power)
    return best_response_eos(cost, alpha, opposition_power)


def _best_responses(
    costs: np.ndarray, alpha: float, oppositions: np.ndarray
) -> tuple[list[tuple[float, ...]], np.ndarray, np.ndarray]:
    """_best_response for every miner at once, at unit prize: the maximizer
    sets, the best utilities, and the utility of each interior candidate
    (nan where there is none). A miner facing zero opposition has no best
    response: an empty set and best utility +inf.

    Decides exactly as the scalar oracles do. At alpha = 1 the closed form
    runs on whole arrays. At alpha > 1 the oracle's own abstention test
    screens every miner, and only the survivors (participants, and the few
    outsiders with a stationary point) go through best_response_eos.
    """
    alone = oppositions == 0.0
    responses: list[tuple[float, ...]] = [(0.0,)] * costs.size
    for i in np.flatnonzero(alone).tolist():
        responses[i] = ()
    best = np.where(alone, np.inf, 0.0)
    interior = np.full(costs.size, np.nan)
    live = np.flatnonzero(~alone)
    c, a = costs[live], oppositions[live]
    if alpha == 1.0:
        candidate = np.sqrt(a / c) - a
        with np.errstate(divide="ignore", invalid="ignore"):
            # u is kept only where candidate > 0, so candidate + a > 0
            u = candidate / (candidate + a) - c * candidate
        for i, qi, ui in zip(live.tolist(), candidate.tolist(), u.tolist()):
            if qi > 0.0:
                responses[i] = (0.0, qi) if ui <= TIE_TOL else (qi,)
        inside = candidate > 0.0
        best[live] = np.where(inside, np.maximum(u, 0.0), 0.0)
        interior[live] = np.where(inside, u, np.nan)
        return responses, best, interior
    r = (alpha - 1.0) / (2.0 * alpha)
    q_lo = (a * r / (1.0 - r)) ** (1.0 / alpha)
    x = q_lo**alpha / (q_lo**alpha + a)
    marg = alpha * x * (1.0 - x) / q_lo - c
    # the margin leaves any last-bit difference between numpy's and the
    # scalar power to the scalar oracle, which has the final word
    for k in np.flatnonzero(~(marg <= -1e-12 * c)).tolist():
        i, cost, opposition = int(live[k]), float(c[k]), float(a[k])
        result = best_response_eos(cost, alpha, opposition)
        responses[i] = result.optimal_investments
        best[i] = result.optimal_utility
        if result.interior_candidate is not None:
            interior[i] = _utility_against(result.interior_candidate, cost,
                                           alpha, opposition)
    return responses, best, interior


def _utility_against(q: float, cost: float, alpha: float,
                     opposition_power: float) -> float:
    """Unit-prize utility x(q) - cost * q against fixed opposition."""
    if q == 0.0:
        return 0.0
    x = q**alpha / (q**alpha + opposition_power)
    return x - cost * q


def _check_inputs(cost: float, opposition: float, prize: float) -> None:
    if cost <= 0 or prize <= 0:
        raise ValueError("cost and prize must be positive")
    if opposition < 0:
        raise ValueError("opposition must be >= 0")
    if opposition == 0.0:
        raise NoBestResponse(ZERO_OPPOSITION)


def best_response_proportional(
    cost: float, opposition: float, prize: float = 1.0
) -> BestResponseResult:
    """Closed-form best response in the proportional model.

    opposition is R = sum of the other miners' investments; it must be
    positive. The maximizer max(0, sqrt(prize*R/c) - R) hits 0 exactly when
    R >= prize / c.
    """
    _check_inputs(cost, opposition, prize)
    cost = cost / prize
    candidate = math.sqrt(opposition / cost) - opposition
    if candidate <= 0.0:
        return BestResponseResult((0.0,), 0.0, None)
    u = _utility_against(candidate, cost, 1.0, opposition)
    # the interior optimum only touches 0 utility when it is itself 0
    maximizers = (0.0, candidate) if u <= TIE_TOL else (candidate,)
    return BestResponseResult(maximizers, prize * max(u, 0.0), candidate)


def best_response_eos(
    cost: float, alpha: float, opposition_power: float, prize: float = 1.0
) -> BestResponseResult:
    """Best response under economies of scale (alpha > 1).

    Finds the stationary point with share >= (alpha-1)/(2*alpha), where
    utility is strictly concave so marginal utility decreases and bisection
    applies; returns it, abstention, or both when their utilities tie
    within 1e-12 of the prize. No stationary point on that branch means
    abstain.
    """
    if alpha <= 1:
        raise ValueError("use best_response_proportional for alpha = 1")
    _check_inputs(cost, opposition_power, prize)
    cost = cost / prize
    a = opposition_power

    def marg(q: float) -> float:
        x = q**alpha / (q**alpha + a)
        return alpha * x * (1.0 - x) / q - cost

    r = (alpha - 1.0) / (2.0 * alpha)
    q_lo = (a * r / (1.0 - r)) ** (1.0 / alpha)  # share exactly r
    if marg(q_lo) <= 0.0:
        return BestResponseResult((0.0,), 0.0, None)
    q_hi = max(1.0 / cost, 2.0 * q_lo)
    while marg(q_hi) > 0.0:  # alpha > 2 can push the root past 1/cost
        q_hi *= 2.0
    res = bisect_monotone(marg, q_lo, q_hi, f_tol=1e-13,
                          x_tol=1e-15 * q_hi, max_iter=200)
    q_star = res.root
    u_star = _utility_against(q_star, cost, alpha, a)
    if u_star > TIE_TOL:
        return BestResponseResult((q_star,), prize * u_star, q_star)
    if u_star >= -TIE_TOL:
        return BestResponseResult((0.0, q_star), prize * max(u_star, 0.0),
                                  q_star)
    return BestResponseResult((0.0,), 0.0, q_star)


def grid_oracle(
    cost: float,
    alpha: float,
    opposition_power: float,
    grid_step: Optional[float] = None,
    prize: float = 1.0,
) -> BestResponseResult:
    """Exhaustive utility scan over q in [0, prize/cost].

    Verification-only brute force: never consults the analytic formulas.
    Default step is 1e-6 scaled by the domain width prize/cost. Resolution
    of the returned argmax is one grid step. Unlike the analytic oracles,
    zero opposition is not an error here: the scan simply reports the
    smallest grid point (the supremum is approached, never attained).
    """
    if cost <= 0 or prize <= 0:
        raise ValueError("cost and prize must be positive")
    if opposition_power < 0:
        raise ValueError("opposition power must be >= 0")
    hi = prize / cost
    step = grid_step if grid_step is not None else 1e-6 * hi
    if step <= 0:
        raise ValueError("grid_step must be positive")
    q = np.arange(0.0, hi + step, step)
    power = q**alpha
    if opposition_power == 0.0:
        u = np.full_like(q, prize) - cost * q
        u[0] = 0.0  # all-zero profile pays nothing by convention
    else:
        u = prize * power / (power + opposition_power) - cost * q
    k = int(np.argmax(u))
    return BestResponseResult((float(q[k]),), float(u[k]), None)


def convexity_profile(
    cost: float, alpha: float, opposition_power: float, prize: float = 1.0
) -> float:
    """Locate the convex-to-concave crossover of utility along q.

    Scans the sign of the second difference of utility and bisects on it;
    returns the market share at the sign change, which equals
    (alpha - 1) / (2 * alpha) up to the difference stencil's resolution.
    """
    if alpha <= 1:
        raise ValueError("utility is globally concave at alpha = 1")
    if opposition_power <= 0:
        raise ValueError("opposition power must be positive")
    a = opposition_power
    cost = cost / prize  # the unit-prize game has the same crossover

    def share(q: float) -> float:
        return q**alpha / (q**alpha + a)

    def second_difference(q: float) -> float:
        h = 1e-4 * max(q, 1e-6)
        u = _utility_against
        return (
            u(q + h, cost, alpha, a)
            - 2.0 * u(q, cost, alpha, a)
            + u(q - h, cost, alpha, a)
        )

    # bracket the crossover between a clearly convex and a clearly concave q
    lo = (a * 1e-6) ** (1.0 / alpha)  # share ~ 1e-6, convex side
    hi = a ** (1.0 / alpha)  # share 1/2 > (alpha-1)/(2 alpha), concave side
    if second_difference(lo) <= 0 or second_difference(hi) >= 0:
        raise ArithmeticError("convexity crossover not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if second_difference(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return share(0.5 * (lo + hi))
