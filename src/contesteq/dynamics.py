"""Round-robin best-response dynamics.

Within a round, miners update sequentially in index order, each to an
exact best response against the current state of everyone else
(Gauss-Seidel; simultaneous updates oscillate trivially in contests).
Ties between abstaining and the interior optimum break toward the
incumbent action. A miner facing zero aggregate opposition has no best
response and keeps its incumbent investment.

Termination: a round with max investment change <= convergence_tol ends
the run; the terminal profile is then verified, and the trajectory is
"converged" only if it certifies — otherwise the no-change round is a
length-1 revisit and is reported "cycle_detected". Longer cycles are
caught by hashing profiles quantized at 1e-9. Nothing here claims
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
from .eos import EquilibriumCertificate, verify_equilibrium

#: quantum for cycle-detection profile hashing
CYCLE_QUANTUM = 1e-9


@dataclass(frozen=True)
class DynamicsConfig:
    initial_profile: tuple[float, ...]
    max_rounds: int = 10_000
    convergence_tol: float = 1e-10
    #: fraction of the step toward the best response taken each update;
    #: values below 1 are exploratory smoothing, not part of the model
    damping: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "initial_profile",
            tuple(float(q) for q in self.initial_profile),
        )
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")


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


def _quantized(q: np.ndarray) -> bytes:
    """q in units of CYCLE_QUANTUM, rounded half to even like round();
    beyond the float range it keys as inf, and -0.0 keys like 0.0."""
    with np.errstate(over="ignore"):
        return (np.rint(q / CYCLE_QUANTUM) + 0.0).tobytes()


def run_dynamics(
    spec: ContestSpec,
    config: DynamicsConfig,
    verify_tol: float = 1e-8,
) -> Trajectory:
    """Iterate best responses from config.initial_profile.

    The initial profile must have at least one positive investment (from
    all zeros, no miner has a best response). Identical spec and config
    reproduce the trajectory bit for bit. An undamped update that lowers
    the updating miner's utility by more than 1e-12 of the prize raises
    ArithmeticError: exact best responses never do.
    """
    unit = unit_prize(spec)
    alpha = unit.alpha
    q = as_investments(unit, config.initial_profile)
    if not np.any(q > 0):
        raise ValueError("initial profile must have a positive investment")
    q = q.copy()
    snapshots = [tuple(q.tolist())]
    seen = {_quantized(q): 0}
    status = "max_rounds_exhausted"
    certificate = None
    rounds_used = 0
    for rnd in range(1, config.max_rounds + 1):
        rounds_used = rnd
        previous = q.copy()
        # miner i faces the miners before it, already updated, plus the
        # round's incumbents after it: a running prefix plus the suffix sums
        # of the round's profile, O(1) per update with nothing cancelled
        before = 0.0
        after = br._sums_after(q if alpha == 1.0 else q**alpha).tolist()
        for i, cost in enumerate(unit.costs):
            opposition = before + after[i]
            if opposition == 0.0:
                before += float(q[i]) ** alpha
                continue  # no best response exists: keep the incumbent
            result = br._best_response(cost, alpha, opposition)
            target = min(
                result.optimal_investments,
                key=lambda m: (abs(m - q[i]), m),
            )
            new_qi = q[i] + config.damping * (target - q[i])
            if config.damping == 1.0:
                gain = (br._utility_against(new_qi, cost, alpha, opposition)
                        - br._utility_against(float(q[i]), cost, alpha,
                                              opposition))
                if gain < -1e-12:
                    raise ArithmeticError(f"best response lowered miner {i}'s"
                                          f" utility by {-gain} of the prize")
            q[i] = new_qi
            before += float(new_qi) ** alpha
        snapshots.append(tuple(q.tolist()))
        change = float(np.abs(q - previous).max())
        if change <= config.convergence_tol:
            certificate = verify_equilibrium(spec, q, verify_tol)
            status = "converged" if certificate.certified else "cycle_detected"
            break
        key = _quantized(q)
        if key in seen and seen[key] <= rnd - 2:
            status = "cycle_detected"
            break
        seen[key] = rnd
    return Trajectory(
        profiles=tuple(snapshots),
        status=status,
        rounds_used=rounds_used,
        spec=spec,
        certificate=certificate,
    )
