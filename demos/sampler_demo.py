"""Inspect the transdimensional sampler against the brute-force grid oracle.

Builds a small one-dimensional target (three observations, at most three
clusters), normalizes it exactly on a grid, and compares the chain's
empirical cluster-count distribution and mixing statistics against it.
"""

import numpy as np

from jumpclust import (
    PriorSpec,
    ScoreContext,
    TargetDensity,
    TemperatureSchedule,
    grid_oracle,
    lambda_at,
    proposal_scale,
    seeded_rng,
)
from jumpclust.chain import initial_state, run_chain
from jumpclust.proposals import StepProposals

prior = PriorSpec(kind="uniform", dim=1, max_clusters=3, radius=1.0, decay=0.3)
sched = TemperatureSchedule.anytime(1, 1.0)
ctx = ScoreContext(
    np.array([[-0.3], [0.05], [0.4]]),
    np.array([0.1, 0.1, 0.1]),
    np.array([lambda_at(sched, t) for t in range(3)]),
)
target = TargetDensity(lambda_at(sched, 3), ctx, prior)

oracle = grid_oracle(target, resolution=200)  # the k-marginal
print("grid-oracle cluster-count distribution:", np.round(oracle, 4))

proposals = StepProposals(
    ctx.observations,
    tau=proposal_scale(3, 4),
    max_clusters=3,
    rng_for_k=lambda k: seeded_rng(5, (3, k)),
    jitter_scale=1.0,
)
state = initial_state(1, target, proposals)
final, trace = run_chain(state, 50_000, target, proposals, seeded_rng(7, 0))

ks = trace.k_current[2_000:]
empirical = np.bincount(ks, minlength=4)[1:] / ks.shape[0]
print("chain empirical distribution:         ", np.round(empirical, 4))
print(f"total variation distance: {0.5 * np.abs(empirical - oracle).sum():.4f}")
print(f"acceptance rate: {trace.acceptance_rate():.3f}")
print(f"final state: k={final.k}, centers={np.round(final.centers.points.ravel(), 3)}")

print("\nfirst 15 moves (proposed k, acceptance probability, outcome):")
for n in range(15):
    mark = "accepted" if trace.accepted[n] else "rejected"
    print(f"  n={n+1:2d}  k->{trace.k_proposed[n]}  alpha={trace.alpha[n]:.3f}  {mark}")
