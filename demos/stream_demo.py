"""Walk through one online clustering run on the drifting synthetic stream.

Generates the two-dimensional stream whose group count grows from 1 to 10,
runs the online clusterer, and prints how the predicted number of clusters
follows the truth along with the cumulative loss.
"""

import numpy as np

from jumpclust import (
    StreamConfig,
    SyntheticSpec,
    correct_k_count,
    run_synthetic,
)

cfg = StreamConfig(
    dim=2,
    max_clusters=20,
    radius=15.0,
    chain_length=500,
    seed=42,
    label_correction=True,
)
spec = SyntheticSpec(kind="sine_drift", horizon=200)

print("running 200 steps (500 sampler iterations each)...")
stream, record = run_synthetic(cfg, spec)

ks = record.k_sequence()
cum_losses = record.cumulative_losses()
print(f"\ncorrect cluster-count predictions: {correct_k_count(record, stream.k_true)} / 200")
print(f"final cumulative loss: {cum_losses[-1]:.1f}")

print("\n  t   k_true  k_pred  cum_loss")
for t in range(9, 200, 10):
    print(f"{t+1:4d} {stream.k_true[t]:7d} {ks[t]:7d} {cum_losses[t]:10.1f}")

print("\nper-segment accuracy (segments of 20 steps):")
for seg in range(10):
    sl = slice(20 * seg, 20 * (seg + 1))
    acc = np.mean(ks[sl] == stream.k_true[sl])
    print(f"  steps {20*seg+1:3d}-{20*(seg+1):3d} (truth {stream.k_true[20*seg]:2d}): {acc:.0%}")
