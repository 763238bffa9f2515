"""Domain types and payoff primitives for fixed-prize investment contests.

A contest has n >= 2 miners. Miner i buys q_i units of capacity at per-unit
cost c_i and earns the share x_i = q_i**alpha / sum_j q_j**alpha of a fixed
prize. alpha = 1 is the proportional model; alpha > 1 rewards scale.
Everything here is a pure function of immutable values.

This module owns the profile arithmetic that every solver, certificate and
dynamics run reads: powers q_i**alpha, oppositions sum_{j != i} q_j**alpha,
shares, the unit-prize costs c_i / prize, and utilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

ProfileLike = Union[Sequence[float], np.ndarray]


@dataclass(frozen=True)
class ContestSpec:
    """A game instance: per-unit costs, scale exponent, prize value.

    Costs stay in caller order; solvers sort internally and report back in
    the original order.
    """

    costs: tuple[float, ...]
    alpha: float = 1.0
    prize: float = 1.0

    def __post_init__(self):
        costs = tuple(float(c) for c in self.costs)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "prize", float(self.prize))
        if len(costs) < 2:
            raise ValueError("a contest needs at least 2 miners")
        if not all(math.isfinite(c) and c > 0 for c in costs):
            raise ValueError("all costs must be finite and > 0")
        if not (math.isfinite(self.alpha) and self.alpha >= 1):
            raise ValueError("alpha must be finite and >= 1")
        if not (math.isfinite(self.prize) and self.prize > 0):
            raise ValueError("prize must be finite and > 0")

    @property
    def n(self) -> int:
        return len(self.costs)


@dataclass(frozen=True)
class MarketShares:
    shares: tuple[float, ...]


@dataclass(frozen=True)
class ConcentrationReport:
    participant_count: int
    hhi: float
    top_k_shares: tuple[float, ...]
    rent_dissipation: float


def as_investments(spec: ContestSpec, profile: ProfileLike) -> np.ndarray:
    """Validate a profile against a spec and return it as a float array."""
    q = np.asarray(profile, dtype=float)
    if q.ndim != 1 or q.shape[0] != spec.n:
        raise ValueError(
            f"profile has {q.shape} investments, spec has {spec.n} miners"
        )
    if not np.all(np.isfinite(q)):
        raise ValueError("investments must be finite")
    if np.any(q < 0):
        raise ValueError("investments must be >= 0")
    return q


def shares(spec: ContestSpec, profile: ProfileLike) -> MarketShares:
    """Market shares x_i = q_i**alpha / sum_j q_j**alpha.

    The all-zero profile yields all-zero shares by convention. Powers are
    evaluated on q scaled by its maximum so extreme magnitudes cannot
    overflow or underflow the ratio.
    """
    q = as_investments(spec, profile)
    top = float(q.max())
    if top == 0.0:
        return MarketShares(shares=(0.0,) * spec.n)
    t = (q / top) ** spec.alpha
    x = t / float(t.sum())
    return MarketShares(shares=tuple(x.tolist()))


def unit_costs(spec: ContestSpec) -> np.ndarray:
    """Costs c_i / prize of the same game at prize 1, where investments and
    shares are unchanged and utilities divide by the prize. ValueError when
    a quotient overflows or underflows to 0: the unit-prize game then has
    no finite, positive costs (division is monotone, so the extremes
    decide)."""
    with np.errstate(over="ignore", under="ignore"):
        costs = np.asarray(spec.costs) / spec.prize
    if not (costs.min() > 0.0 and costs.max() < math.inf):
        raise unit_range_error(spec.prize, min(spec.costs), max(spec.costs))
    return costs


def unit_range_error(prize: float, lo: float, hi: float) -> ValueError:
    """The error for costs from lo to hi whose quotients by the prize leave
    the float range."""
    return ValueError(
        f"costs / prize leaves the float range of the unit-prize game "
        f"(prize {prize!r}, costs from {lo!r} to {hi!r})"
    )


def unit_utilities(costs, q, x) -> np.ndarray:
    """x_i - c_i * q_i: unit-prize utilities at costs c and shares x. A
    spend beyond the float range is a utility of -inf."""
    with np.errstate(over="ignore"):
        return np.asarray(x) - np.asarray(costs) * np.asarray(q)


def _sums_after(power: np.ndarray) -> np.ndarray:
    """sum_{j > i} power_j for every i: exclusive suffix sums."""
    return np.concatenate((np.cumsum(power[:0:-1])[::-1], [0.0]))


def _powers(q, alpha: float):
    """q**alpha for finite q >= 0, scalar or elementwise; ValueError when a
    power overflows, since there is then no finite aggregate power."""
    if alpha == 1.0:
        return q
    with np.errstate(over="ignore"):
        power = np.power(q, alpha)
    if np.isinf(power).any():
        raise ValueError(f"investments**alpha leave the float range "
                         f"(up to {float(np.max(q))!r}, alpha {alpha!r})")
    return power


def _opposition_powers(q: np.ndarray, alpha: float) -> np.ndarray:
    """sum_{j != i} q_j**alpha for every miner i, the power each competes
    against, in O(n) from exclusive prefix and suffix sums. Total minus
    own would cancel when one miner holds nearly all the power. ValueError
    when a power or the aggregate power leaves the float range."""
    power = _powers(q, alpha)
    with np.errstate(over="ignore"):
        opposition = _sums_after(power[::-1])[::-1] + _sums_after(power)
        if np.isinf(opposition + power).any():  # each entry is the total
            raise _aggregate_beyond_range(q, alpha)
    return opposition


def _aggregate_beyond_range(q, alpha: float) -> ValueError:
    return ValueError(f"aggregate power leaves the float range (up to "
                      f"{float(np.max(q))!r}, alpha {alpha!r})")


def utility(spec: ContestSpec, profile: ProfileLike, i: int) -> float:
    """prize * (x_i - (c_i / prize) * q_i) for miner i: the unit-prize
    utility in caller units, as verify_equilibrium reports it. ValueError
    from unit_costs when c / prize leaves the float range."""
    q = as_investments(spec, profile)
    if not 0 <= i < spec.n:
        raise IndexError(f"miner index {i} out of range for n={spec.n}")
    x = shares(spec, q).shares[i]
    return spec.prize * float(unit_utilities(unit_costs(spec)[i], q[i], x))


def marginal_share(spec: ContestSpec, profile: ProfileLike, i: int) -> float:
    """d x_i / d q_i at the given profile.

    Closed form alpha * x_i * (1 - x_i) / q_i; for alpha = 1 this reduces to
    (1 - x_i) / sum_j q_j, which stays finite at q_i = 0. For alpha > 1 the
    formula is degenerate at q_i = 0 and the call is an error rather than a
    silent 0 (equilibrium code must never evaluate it there).
    """
    q = as_investments(spec, profile)
    if not 0 <= i < spec.n:
        raise IndexError(f"miner index {i} out of range for n={spec.n}")
    qi = float(q[i])
    x = shares(spec, q).shares[i]
    if spec.alpha == 1.0:  # the sum on q / max(q), as shares, cannot overflow
        top = float(q.max())
        if top == 0.0:
            raise ValueError("marginal share undefined at the all-zero profile")
        return (1.0 - x) / float((q / top).sum()) / top
    if qi <= 0.0:
        raise ValueError(
            "marginal share is degenerate at q_i = 0 for alpha > 1"
        )
    return spec.alpha * x * (1.0 - x) / qi


def concentration(spec: ContestSpec, profile: ProfileLike) -> ConcentrationReport:
    """Participation count, HHI, cumulative top-k shares, rent dissipation.
    Rent dissipation is the spend per prize, sum_i (c_i / V) * q_i at the
    unit-prize costs; one beyond the float range is +inf."""
    q = as_investments(spec, profile)
    x = np.asarray(shares(spec, q).shares)
    top_k = np.cumsum(np.sort(x)[::-1])
    with np.errstate(over="ignore"):
        spent = float(np.dot(unit_costs(spec), q))
    return ConcentrationReport(
        participant_count=int(np.count_nonzero(q > 0)),
        hhi=float(np.dot(x, x)),
        top_k_shares=tuple(top_k.tolist()),
        rent_dissipation=spent,
    )

