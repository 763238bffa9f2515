# The shape of a miner's problem: convex, then concave.
#
# Against fixed rivals, utility in own investment is initially convex and
# only then concave when alpha > 1; the crossover lands exactly at share
# (alpha - 1) / (2 alpha). Best responses therefore live on the concave
# branch (or at zero), and a brute-force grid scan confirms the analytic
# solutions.

import numpy as np

from contesteq import (
    best_response_eos,
    best_response_proportional,
    grid_oracle,
)

alpha, cost, rivals_power = 1.5, 1.0, 0.3

print(f"utility landscape (alpha={alpha}, c={cost}, rival power"
      f" {rivals_power}):")
for q in np.linspace(0.02, 0.7, 18):
    x = q**alpha / (q**alpha + rivals_power)
    u = x - cost * q
    offset = int(34 + 220 * u)
    print(f"  q = {q:4.2f}  u = {u:+.4f}  " + " " * offset + "*")

# the second difference of utility on a fine grid changes sign once
q = np.linspace(1e-4, 1.0, 100_001)
x = q**alpha / (q**alpha + rivals_power)
k = int(np.argmax(np.diff(x - cost * q, 2) < 0.0))
print(f"\nsecond difference turns negative at share {x[k + 1]:.6f}"
      f" vs (alpha-1)/(2 alpha) = {(alpha - 1) / (2 * alpha):.6f}")

analytic = best_response_eos(cost, alpha, rivals_power)
brute = grid_oracle(cost, alpha, rivals_power)
print(f"analytic best response {analytic.optimal_investments}"
      f" utility {analytic.optimal_utility:.8f}")
print(f"grid oracle argmax     {brute.optimal_investments}"
      f" utility {brute.optimal_utility:.8f}")

# proportional closed form: invest sqrt(R/c) - R, clipped at zero
print("\nproportional best responses (c = 1):")
for rivals in (0.04, 0.25, 0.64, 1.0, 2.0):
    r = best_response_proportional(1.0, rivals)
    print(f"  rivals invest {rivals:4.2f} -> respond"
          f" {r.optimal_investments[-1]:.4f}"
          f" (utility {r.optimal_utility:.4f})")

# a tie: against one rival holding 1/2 at alpha = 2, entering at 1/2 and
# staying out both earn exactly zero
tie = best_response_eos(1.0, 2.0, 0.25)
print(f"\nknife-edge at alpha=2 vs one rival at 0.5:"
      f" maximizers {tie.optimal_investments}")
