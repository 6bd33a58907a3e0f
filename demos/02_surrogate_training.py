"""Training the two surrogate models from the excitation dataset.

f_x predicts the zone temperature an hour ahead; f_y predicts the hour's
cooling rate.  Both are small relu networks (5 -> 50 -> 1) trained
full-batch with Adam on z-scored data.  The split is chronological, so
validation always covers unseen later days.

Run from the repository root:  python3 demos/02_surrogate_training.py
"""

import tempfile
from pathlib import Path

import numpy as np

from xmpc.surrogate import (
    FX_SCHEMA,
    FY_SCHEMA,
    VALIDATION_FRACTION,
    TrainConfig,
    background_of,
    digest,
    load,
    predict,
    predict_batch,
    save,
    train,
)
from xmpc.testbed import TestbedConfig, run_excitation

data = run_excitation(n_days=31, cfg=TestbedConfig(), seed=42)
cfg = TrainConfig(epochs=4000, learning_rate=3e-3)

for label, schema in (("f_x", FX_SCHEMA), ("f_y", FY_SCHEMA)):
    model = train(data, schema, cfg)
    curve = model.meta["loss_curve"]
    print(f"{label}: target {schema.target.name} [{schema.target.unit}]")
    print(f"  inputs: {', '.join(schema.feature_names)}")
    print(f"  train loss {curve[0]:.4f} -> {curve[-1]:.6f} over {cfg.epochs} epochs")

    # Holdout accuracy in physical units, on the chronological tail.
    x = np.column_stack([data[f.column] for f in schema.features])
    y = np.asarray(data[schema.target.column])
    n_val = max(1, round(len(data) * VALIDATION_FRACTION))
    rmse = float(np.sqrt(np.mean((predict_batch(model, x[-n_val:]) - y[-n_val:]) ** 2)))
    print(f"  holdout RMSE {rmse:.3f} {schema.target.unit} on the last {n_val} hours")

    if label == "f_y":
        fy_model = model

# Models serialize to JSON with repr-exact floats, so a round trip reproduces
# predictions bit for bit and the file digest is stable.
model_path = Path(tempfile.gettempdir()) / "fy_demo.json"
save(fy_model, model_path)
reloaded = load(model_path)
probe = np.array([24.0, 25.0, 33.0, 400.0, 3.0])
print("\npersistence round trip:")
print(f"  prediction before {predict(fy_model, probe)!r}")
print(f"  prediction after  {predict(reloaded, probe)!r}")
print(f"  digest {digest(fy_model)[:16]}... (matches: {digest(fy_model) == digest(reloaded)})")

# The model carries a sample of its training rows; attribution later uses it
# as the background distribution, so explanations need no dataset access.
bg = background_of(fy_model)
print(f"\nembedded background sample: {bg.shape[0]} rows x {bg.shape[1]} features")
print(f"  mean cooling prediction over background: {predict_batch(fy_model, bg).mean():.1f} W")
