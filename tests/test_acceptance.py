"""Acceptance suite.

One test per criterion; each prints a single [criterion NN] PASS/FAIL line
(run with -s to see them live) and then asserts. Tolerances are pinned
here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from contesteq import (
    ContestSpec,
    DynamicsConfig,
    best_response_eos,
    best_response_proportional,
    cli,
    enumerate_equilibria,
    foc_residual,
    grid_oracle,
    marginal_share,
    participation_cap,
    run_dynamics,
    shares,
    solve_equilibrium,
    threshold_function,
)
from scalar_oracle import convexity_crossover

EXAMPLE1_COSTS = tuple(i / (i + 1) for i in range(1, 11))


def check(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def best_runtime(fn, repeats=5):
    fn()  # warmup
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_harmonic_cost_reproduction():
    spec = ContestSpec(costs=EXAMPLE1_COSTS)
    eq = solve_equilibrium(spec)
    elapsed = best_runtime(lambda: solve_equilibrium(spec))
    ok = (
        len(eq.participants) == 7
        and EXAMPLE1_COSTS[6] < eq.c_star < EXAMPLE1_COSTS[7]
        and abs(threshold_function(EXAMPLE1_COSTS, eq.c_star) - 1.0) <= 1e-10
        and eq.shares[0] > 3 / 7
        and eq.shares[0] + eq.shares[1] > 2 / 3
        and elapsed < 1e-3
    )
    check(1, "harmonic costs: 7 participants, threshold and share floors",
          ok, f"c*={eq.c_star:.7f}, solve {elapsed * 1e6:.0f}us")


def test_criterion_02_geometric_cost_reproduction():
    ok = True
    for n in (5, 10, 20):
        costs = tuple(1 - 2.0**-i for i in range(1, n + 1))
        spec = ContestSpec(costs=costs)
        eq = solve_equilibrium(spec)
        elapsed = best_runtime(lambda s=spec: solve_equilibrium(s))
        ok &= eq.c_star > 1.0
        ok &= len(eq.participants) == n
        ok &= all(
            eq.shares[i - 1] >= 2.0**-i - 1e-15 for i in range(1, n + 1)
        )
        ok &= elapsed < 1e-3
    check(2, "near-unit geometric costs: full participation, share floors",
          ok)


def test_criterion_03_finite_prefix_closed_form():
    worst = 0.0
    for k in (1, 2):
        for n in (3, 5, 10):
            costs = tuple(1 - 2.0 ** (-i - k) for i in range(1, n + 1))
            eq = solve_equilibrium(ContestSpec(costs=costs))
            denom = n - 2.0**-k + 2.0 ** (-k - n)
            for i in range(1, n + 1):
                expected = (
                    1 - 2.0**-k + 2.0 ** (-k - n) + (n - 1) * 2.0 ** (-i - k)
                ) / denom
                worst = max(worst, abs(eq.shares[i - 1] - expected))
    check(3, "finite-prefix closed-form shares", worst <= 1e-9,
          f"max deviation {worst:.2e}")


def test_criterion_04_symmetric_cost_product():
    worst = 0.0
    for n in range(2, 51):
        for c in (0.5, 1.0, 2.7):
            eq = solve_equilibrium(ContestSpec(costs=(c,) * n))
            target = (n - 1) / n**2
            worst = max(
                worst, max(abs(q * c - target) for q in eq.investments)
            )
    check(4, "symmetric costs: q*c = (n-1)/n^2", worst <= 1e-12,
          f"max deviation {worst:.2e}")


def test_criterion_05_share_bound_and_monotonicity():
    rng = np.random.default_rng(20240515)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        costs = tuple(np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)))
        spec = ContestSpec(costs=costs)
        eq = solve_equilibrium(spec)
        if max(abs(r) for r in foc_residual(spec, eq.investments)) > 1e-10:
            violations += 1
        order = np.argsort(costs, kind="stable")
        q_sorted = np.asarray(eq.investments)[order]
        if np.any(np.diff(q_sorted) > 0):
            violations += 1
        cheapest_active = min(costs[i] for i in eq.participants)
        for j in range(n):
            if eq.shares[j] < 1 - costs[j] / cheapest_active - 1e-12:
                violations += 1
    check(5, "1000 random games: share lower bound and cost monotonicity",
          violations == 0, f"{violations} violations")


def test_criterion_06_deterrence_instances():
    t0 = time.perf_counter()
    ok = True
    details = []
    for m in (2, 3, 4):
        alpha = m / (m - 1)
        c1 = (1 - 1 / m) ** (1 - 1 / m)
        spec = ContestSpec(costs=(c1,) + (1.0,) * (m + 1), alpha=alpha)
        eqs = enumerate_equilibria(spec)
        blocks = [
            eq for eq in eqs
            if len(eq.participants) == m and 0 not in eq.participants
        ]
        ok &= len(blocks) == math.comb(m + 1, m)
        for eq in blocks:
            active = [q for q in eq.investments if q > 0]
            ok &= max(abs(q - 1 / m) for q in active) <= 1e-9
            ok &= eq.investments[0] == 0.0
        if m == 2:
            ok &= len(eqs) == 3  # nothing beyond the three pair equilibria
        details.append(f"m={m}: {len(blocks)} blocks of {len(eqs)} total")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    check(6, "scale-economies deterrence instances", ok,
          "; ".join(details) + f"; {elapsed * 1e3:.0f}ms")


def test_criterion_07_pairwise_bounds_and_caps():
    rng = np.random.default_rng(718281828)
    failures = 0
    certified_seen = 0
    for trial in range(200):
        n = int(rng.integers(2, 6))
        alpha = float(rng.uniform(1.05, 2.0))
        if trial % 2 == 0:
            costs = tuple(np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)))
        else:
            costs = tuple(rng.uniform(0.9, 1.1, n))
        spec = ContestSpec(costs=costs, alpha=alpha)
        cap = int(math.floor(1 + 1 / (alpha - 1)))
        for eq in enumerate_equilibria(spec):
            certified_seen += 1
            if len(eq.participants) > cap:
                failures += 1
            for i in eq.participants:
                if eq.shares[i] < 1 - 1 / alpha - 1e-9:
                    failures += 1
                for j in eq.participants:
                    bound = 1 - (costs[i] / costs[j]) / alpha
                    if eq.shares[i] < bound - 1e-9:
                        failures += 1
    # the caps themselves, on instances large enough to bind
    cap_ok = True
    for alpha, n, cap in ((1.05, 8, 21), (1.1, 12, 11)):
        eqs = enumerate_equilibria(ContestSpec(costs=(1.0,) * n, alpha=alpha))
        largest = max(len(eq.participants) for eq in eqs)
        cap_ok &= largest <= cap
        cap_ok &= participation_cap(alpha) == cap
    check(7, "pairwise share bounds and participation caps",
          failures == 0 and cap_ok and certified_seen > 0,
          f"{certified_seen} certified equilibria checked")


def test_criterion_08_no_equilibrium_above_two(tmp_path):
    rng = np.random.default_rng(31415)
    ok = True
    for trial in range(50):
        n = int(rng.integers(2, 6))
        alpha = float(rng.uniform(2.0, 3.0)) + 1e-9  # open at 2
        costs = [float(c) for c in np.exp(rng.uniform(-1.0, 1.0, n))]
        ok &= enumerate_equilibria(ContestSpec(costs=tuple(costs),
                                               alpha=alpha)) == []
        if trial < 5:  # exercise the CLI contract on a sample
            scenario = tmp_path / f"hot{trial}.json"
            scenario.write_text(json.dumps(
                {"alpha": alpha, "costs": costs}
            ))
            out = tmp_path / f"hot{trial}_result.json"
            code = cli.main(["solve", "--scenario", str(scenario),
                             "--out", str(out)])
            ok &= code == cli.EXIT_NO_EQUILIBRIUM
            ok &= json.loads(out.read_text())["equilibria"] == []
    check(8, "alpha > 2: empty enumeration and solve exit code 4", ok)


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(27182)
    worst_gap = 0.0
    worst_util = 0.0
    ok = True
    for trial in range(1000):
        cost = float(np.exp(rng.uniform(np.log(0.6), np.log(1.8))))
        opposition = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        if trial % 2 == 0:
            alpha = 1.0
            result = best_response_proportional(cost, opposition)
        else:
            alpha = float(rng.uniform(1.0 + 1e-6, 2.0))
            result = best_response_eos(cost, alpha, opposition)
        probe = grid_oracle(cost, alpha, opposition, grid_step=1e-6)
        gap = min(
            abs(probe.optimal_investments[0] - m)
            for m in result.optimal_investments
        )
        util_gap = abs(probe.optimal_utility - result.optimal_utility)
        worst_gap = max(worst_gap, gap)
        worst_util = max(worst_util, util_gap)
        ok &= gap <= 1e-6 + 1e-12
        ok &= util_gap <= 1e-8
        ok &= result.optimal_utility >= probe.optimal_utility - 1e-8
    check(9, "analytic best responses match the exhaustive grid oracle", ok,
          f"worst argmax gap {worst_gap:.2e}, utility gap {worst_util:.2e}")


def test_criterion_10_derivative_grid():
    worst = 0.0
    alphas = (1.0, 1.25, 1.5, 1.75, 2.0)
    q_grid = np.logspace(-3, 1, 10)
    r_grid = np.logspace(-1, 1, 10)
    for alpha in alphas:
        spec = ContestSpec(costs=(1.0, 1.0), alpha=alpha)
        for qi in q_grid:
            for r in r_grid:
                exact = marginal_share(spec, (qi, r), 0)
                h = 1e-6 * max(qi, 1.0)
                up = shares(spec, (qi + h, r)).shares[0]
                down = shares(spec, (qi - h, r)).shares[0]
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(fd - exact) / abs(exact))
    check(10, "marginal share matches central differences on a 10x10x5 grid",
          worst <= 1e-4, f"worst relative error {worst:.2e}")


def test_criterion_11_inflection_shares():
    worst = 0.0
    for alpha in (1.1, 1.5, 2.0):
        found = convexity_crossover(1.0, alpha, 1.0)
        expected = (alpha - 1) / (2 * alpha)
        worst = max(worst, abs(found - expected))
    check(11, "utility inflection sits at share (alpha-1)/(2 alpha)",
          worst <= 1e-4, f"worst deviation {worst:.2e}")


def test_criterion_12_dynamics_fixed_point():
    spec = ContestSpec(costs=EXAMPLE1_COSTS)
    eq = solve_equilibrium(spec)
    rng = np.random.default_rng(16180)
    ok = True
    worst_drift = 0.0
    rounds = []
    for _ in range(20):
        start = tuple(rng.uniform(1e-3, 1.0, spec.n))
        t = run_dynamics(spec, DynamicsConfig(
            initial_profile=start, max_rounds=10_000,
        ))
        ok &= t.status == "converged"
        ok &= t.certificate is not None and t.certificate.certified
        drift = max(abs(a - b) for a, b in zip(t.terminal, eq.investments))
        worst_drift = max(worst_drift, drift)
        ok &= drift <= 1e-8
        rounds.append(t.rounds_used)
    check(12, "best-response dynamics reaches the closed-form equilibrium",
          ok, f"worst drift {worst_drift:.2e}, rounds {min(rounds)}"
              f"-{max(rounds)}")
