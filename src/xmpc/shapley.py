"""Exact interventional Shapley attribution for surrogate predictions.

For a model f over n features, an instance x, and a background sample B, the
value of a coalition S is the mean prediction when features in S take the
instance's values and the rest take each background row's values:

    v(S) = (1/|B|) * sum over rows b of f(x on S, b elsewhere)

and each feature's attribution is the classic weighted sum of its marginal
contributions over all coalitions that exclude it:

    phi_i = sum over S without i of |S|! (n-|S|-1)! / n! * [v(S + i) - v(S)]

v(empty set) is the base (expected) value and v(all features) collapses to
the plain model prediction, so base + sum(phi) telescopes to the prediction
up to float round-off.  ``verify_additivity`` checks that identity; the test
suite and the benchmark's correctness gate run it on every attribution they
produce.

Exact enumeration visits all 2^n coalitions.  The surrogates use five
features (32 coalitions), far under the guard; anything wider is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SchemaError

# Refuse exact enumeration above this many features: 2^20 coalitions is
# already minutes of work.
MAX_EXACT_FEATURES = 20

# Coalitions reach the model in chunks of at most this many hybrid rows, so
# memory stays bounded however many coalitions one call asks for.  A
# surrogate attribution (32 coalitions x 256 background rows) runs as four
# chunks of 8 coalitions: each chunk's (2048, 50) hidden buffer is 0.8 MB,
# which keeps a call's traced peak near 1 MB instead of near 4 MB for one
# 8,192-row chunk, and is no slower.  Chunking never changes the values:
# each coalition's rows stay together in one chunk and are averaged alone.
_BATCH_ROW_LIMIT = 2048


@dataclass
class Attribution:
    """Shapley decomposition of one model prediction."""

    feature_names: tuple[str, ...]
    feature_values: np.ndarray
    shapley_values: np.ndarray
    base_value: float
    prediction: float
    background_size: int

    def to_json(self) -> dict:
        return {
            "features": [
                {"name": n, "value": float(v), "phi": float(p)}
                for n, v, p in zip(self.feature_names, self.feature_values, self.shapley_values)
            ],
            "base_value": self.base_value,
            "prediction": self.prediction,
            "background_size": self.background_size,
            "method": "exact",
        }

    @classmethod
    def from_json(cls, data: dict) -> "Attribution":
        feats = data["features"]
        return cls(
            feature_names=tuple(f["name"] for f in feats),
            feature_values=np.array([f["value"] for f in feats], dtype=float),
            shapley_values=np.array([f["phi"] for f in feats], dtype=float),
            base_value=float(data["base_value"]),
            prediction=float(data["prediction"]),
            background_size=int(data["background_size"]),
        )


def coalition_weight(s_size: int, n: int) -> float:
    """The Shapley coalition weight |S|! (n-|S|-1)! / n!.

    Over all coalitions excluding a fixed feature these weights sum to 1,
    which is what makes phi a weighted average of marginal contributions.
    """
    if n < 1 or s_size < 0 or s_size > n - 1:
        raise InvalidInputError(f"coalition size {s_size} invalid for {n} features")
    return math.factorial(s_size) * math.factorial(n - s_size - 1) / math.factorial(n)


def _prepare(model, instance, background):
    """Check ``shapley``'s inputs; return (fn, names, instance, background).

    ``model`` is a SurrogateModel, whose schema names the features, or any
    (n, d) -> (n,) callable, whose features are named f0, f1, ...
    """
    fn, schema_names = model, None
    if not callable(model):
        from .surrogate import SurrogateModel, predict_batch

        if not isinstance(model, SurrogateModel):
            raise InvalidInputError(
                f"cannot attribute over {type(model).__name__}; need model or callable"
            )
        fn, schema_names = (lambda x: predict_batch(model, x)), model.schema.feature_names
    instance = np.asarray(instance, dtype=float)
    background = np.asarray(background, dtype=float)
    if instance.ndim != 1:
        raise SchemaError(f"instance must be 1-D, got shape {instance.shape}")
    if not np.all(np.isfinite(instance)):
        raise InvalidInputError("non-finite value in instance")
    if background.ndim != 2 or background.shape[0] < 1:
        raise InvalidInputError(f"background must be a non-empty (b, d) array, got {background.shape}")
    n = instance.shape[0]
    if background.shape[1] != n:
        raise SchemaError(
            f"background width {background.shape[1]} does not match instance width {n}"
        )
    if not np.all(np.isfinite(background)):
        raise InvalidInputError("non-finite value in background")
    names = schema_names or tuple(f"f{i}" for i in range(n))
    return fn, names, instance, background


def shapley(model, instance, background) -> Attribution:
    """Exact Shapley attribution by full coalition enumeration.

    Every coalition gets its own copy of the background in which the member
    columns are pinned to the instance.  Coalitions go to the model in chunks
    of at most ``_BATCH_ROW_LIMIT`` rows (one coalition per call if the
    background alone is larger).  Deterministic: coalitions are visited in
    ascending bitmask order, so the same inputs always produce bit-identical
    output.
    """
    fn, names, instance, background = _prepare(model, instance, background)
    n = instance.shape[0]
    if n > MAX_EXACT_FEATURES:
        raise InvalidInputError(
            f"{n} features exceeds the exact-enumeration guard ({MAX_EXACT_FEATURES})"
        )

    # Row ``mask`` holds coalition ``mask``: feature i is a member iff bit i is set.
    members = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    b = background.shape[0]
    per_call = max(1, _BATCH_ROW_LIMIT // b)
    values = np.empty(1 << n)
    for start in range(0, 1 << n, per_call):
        chunk = members[start : start + per_call]
        hybrids = np.tile(background, (len(chunk), 1))
        blocks = hybrids.reshape(len(chunk), b, n)
        for i in range(n):
            blocks[chunk[:, i], :, i] = instance[i]
        preds = np.asarray(fn(hybrids), dtype=float)
        values[start : start + len(chunk)] = preds.reshape(len(chunk), b).mean(axis=1)
    weights = [coalition_weight(s, n) for s in range(n)]
    popcount = [bin(mask).count("1") for mask in range(1 << n)]

    phi = np.zeros(n)
    for i in range(n):
        bit = 1 << i
        total = 0.0
        for mask in range(1 << n):
            if mask & bit:
                continue
            total += weights[popcount[mask]] * (values[mask | bit] - values[mask])
        phi[i] = total

    return Attribution(
        feature_names=names,
        feature_values=instance.copy(),
        shapley_values=phi,
        base_value=float(values[0]),
        prediction=float(values[-1]),
        background_size=b,
    )


def verify_additivity(attribution: Attribution, rel_tol: float = 1e-6) -> tuple[bool, float]:
    """Check base + sum(phi) == prediction within a relative tolerance.

    Returns (ok, residual).  The tolerance is relative to
    max(1, |prediction|) so it behaves sensibly near zero.
    """
    implied = attribution.base_value + float(np.sum(attribution.shapley_values))
    residual = abs(implied - attribution.prediction)
    ok = residual <= rel_tol * max(1.0, abs(attribution.prediction))
    return ok, residual
