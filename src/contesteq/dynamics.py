"""Round-robin best-response dynamics.

Within a round, miners update sequentially in index order, each to an
exact best response against the current state of everyone else
(Gauss-Seidel; simultaneous updates oscillate trivially in contests).
Ties between abstaining and the interior optimum break toward the
incumbent action. A miner facing zero aggregate opposition has no best
response and keeps its incumbent investment.

Termination: a round whose largest spend change max_i c_i * |dq_i|, a
share of the prize, is at most convergence_tol ends the run; the terminal
profile is then certified at eos.CERT_TOL and the trajectory is
"converged" only if it certifies, else "cycle_detected" (a length-1
revisit). The update is deterministic, so a round ending bit for bit on
an earlier round's profile is a cycle too. Neither rule is in investment
units: costs x k give the same run with profiles / k. Nothing here claims
convergence in general; statuses report what happened.

Prize boundary: run_dynamics maps its spec to the unit-prize game once and
updates with the prize-free kernels of best_response, so its checks are
relative to the prize; Trajectory.rows() reports utilities in caller units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import best_response as br
from .core import (ContestSpec, as_investments, shares, unit_prize,
                   unit_utilities)
from .eos import CERT_TOL, EquilibriumCertificate, verify_equilibrium


@dataclass(frozen=True)
class DynamicsConfig:
    initial_profile: tuple[float, ...]
    max_rounds: int = 10_000
    #: largest spend change c_i * |dq_i| per prize that ends the run
    convergence_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(
            self, "initial_profile",
            tuple(float(q) for q in self.initial_profile),
        )
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Profiles after each round (index 0 is the initial profile)."""

    profiles: tuple[tuple[float, ...], ...]
    status: str  # converged | max_rounds_exhausted | cycle_detected
    rounds_used: int
    spec: ContestSpec
    certificate: Optional[EquilibriumCertificate] = field(default=None)

    @property
    def terminal(self) -> tuple[float, ...]:
        return self.profiles[-1]

    def rows(self) -> Iterator[tuple[int, int, float, float, float]]:
        """(round, miner, investment, share, utility) rows for CSV export,
        utilities in caller units; round 1 is the state after the first
        full update sweep."""
        unit = unit_prize(self.spec)
        for rnd, profile in enumerate(self.profiles[1:], start=1):
            x = shares(unit, profile).shares
            u = self.spec.prize * unit_utilities(unit.costs, profile, x)
            for miner, q in enumerate(profile):
                yield rnd, miner, q, x[miner], float(u[miner])


def run_dynamics(
    spec: ContestSpec,
    config: DynamicsConfig,
    verify_tol: float = CERT_TOL,
) -> Trajectory:
    """Iterate best responses from config.initial_profile.

    The initial profile must have at least one positive investment (from
    all zeros, no miner has a best response). Identical spec and config
    reproduce the trajectory bit for bit. An update that lowers the
    updating miner's utility by more than 1e-12 of the prize raises
    ArithmeticError: exact best responses never do.
    """
    unit = unit_prize(spec)
    alpha = unit.alpha
    costs = np.asarray(unit.costs)
    q = as_investments(unit, config.initial_profile)
    if not np.any(q > 0):
        raise ValueError("initial profile must have a positive investment")
    q = q.copy()
    snapshots = [tuple(q.tolist())]
    seen = {(q + 0.0).tobytes()}  # + 0.0 folds -0.0 into 0.0
    status = "max_rounds_exhausted"
    certificate = None
    for rounds_used in range(1, config.max_rounds + 1):  # max_rounds >= 1
        previous = q.copy()
        # miner i faces the miners before it, already updated, plus the
        # round's incumbents after it: a running prefix plus the suffix sums
        # of the round's profile, O(1) per update with nothing cancelled
        before = 0.0
        after = br._sums_after(br._powers(q, alpha)).tolist()
        for i, cost in enumerate(unit.costs):
            opposition = before + after[i]
            qi = float(q[i])
            if opposition != 0.0:  # else no best response: keep the incumbent
                result = br._best_response(cost, alpha, opposition)
                target = min(result.optimal_investments,
                             key=lambda m: (abs(m - qi), m))
                gain = (br._utility_against(target, cost, alpha, opposition)
                        - br._utility_against(qi, cost, alpha, opposition))
                if gain < -1e-12:
                    raise ArithmeticError(f"best response lowered miner {i}'s"
                                          f" utility by {-gain} of the prize")
                q[i] = qi = target
            before += float(br._powers(qi, alpha))
        snapshots.append(tuple(q.tolist()))
        change = float((costs * np.abs(q - previous)).max())
        if change <= config.convergence_tol:
            certificate = verify_equilibrium(spec, q, verify_tol)
            status = "converged" if certificate.certified else "cycle_detected"
            break
        key = (q + 0.0).tobytes()
        if key in seen:
            status = "cycle_detected"
            break
        seen.add(key)
    return Trajectory(
        profiles=tuple(snapshots),
        status=status,
        rounds_used=rounds_used,
        spec=spec,
        certificate=certificate,
    )
