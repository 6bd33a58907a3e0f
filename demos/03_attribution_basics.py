"""Exact Shapley attribution, from a toy model up to the cooling surrogate.

The attribution engine enumerates all 2^n feature coalitions.  A coalition's
value is the model's mean prediction over the background dataset with the
absent features replaced by background values (interventional replacement).
Each feature's Shapley value is its weighted average marginal contribution,
and the values always sum from the background mean to the prediction.

Run from the repository root:  python3 demos/03_attribution_basics.py
"""

import numpy as np

from xmpc.shapley import shapley, verify_additivity
from xmpc.surrogate import FY_SCHEMA, TrainConfig, background_of, predict_batch, train
from xmpc.testbed import TestbedConfig, run_excitation

# Toy case first: f(f0, f1) = f0 * f1 at (3, 4) against a single background
# row (1, 2).  The four coalition values are v({}) = 2, v({0}) = 6,
# v({1}) = 4, v({0,1}) = 12, giving phi = (6, 4) by hand.  A plain callable's
# features are named f0, f1, ...; a surrogate's come from its schema.
toy = shapley(lambda x: x[:, 0] * x[:, 1], np.array([3.0, 4.0]), np.array([[1.0, 2.0]]))
print("toy product model at (3, 4), background (1, 2):")
for name, phi in zip(toy.feature_names, toy.shapley_values):
    print(f"  phi[{name}] = {phi:.1f}")
print(f"  base {toy.base_value:.1f} + contributions = {toy.prediction:.1f}")

# Now the real cooling surrogate, at a hot occupied afternoon instance.
data = run_excitation(n_days=31, cfg=TestbedConfig(), seed=42)
model = train(data, FY_SCHEMA, TrainConfig(epochs=4000, learning_rate=3e-3))
background = background_of(model)
instance = np.array([24.0, 25.5, 34.0, 450.0, 3.0])

attr = shapley(model, instance, background)
print("\ncooling surrogate at (setpoint 24, zone 25.5, oa 34, rad 450, occ 3):")
order = np.argsort(-np.abs(attr.shapley_values))
for i in order:
    name = attr.feature_names[i]
    print(f"  phi[{name:>18s}] = {attr.shapley_values[i]:+9.2f} W  (value {attr.feature_values[i]:g})")
print(f"  background mean {attr.base_value:.2f} W, prediction {attr.prediction:.2f} W")

ok, residual = verify_additivity(attr)
print(f"  additivity holds: {ok} (residual {residual:.2e})")

# A feature the model never reads gets exactly zero, one of the axioms the
# test suite checks on constructed cases.
frozen = shapley(
    lambda x: predict_batch(model, np.column_stack([x[:, :4], np.full(len(x), 3.0)])),
    instance,
    background,
)
print(f"\noccupancy pinned inside the model -> phi[occupancy] = {float(frozen.shapley_values[4])!r}")
