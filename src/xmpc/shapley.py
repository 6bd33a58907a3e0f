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
The coalition tables are built once per feature count, and phi is one
weighted sum of differences per feature, so an ignored feature gets exactly 0.

A surrogate is attributed in z-space: the instance and background are
standardized once per call (standardizing is elementwise, so the hybrids
equal the standardized raw hybrids bit for bit), each hybrid row carries a
trailing 1 so that one product with ``[W1 | b1]`` applies the hidden layer,
and the output bias and unscaling touch only the 2^n coalition means.  This
agrees with attributing ``predict_batch`` as a callable to ~1e-13 relative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SchemaError
from .fileio import check_keys, finite_number
from .surrogate import SurrogateModel, _standardized

# Refuse exact enumeration above this many features: 2^20 coalitions is
# already minutes of work.
MAX_EXACT_FEATURES = 20

# Coalitions reach the model in chunks of at most this many hybrid rows, so
# memory stays bounded however many coalitions one call asks for.  A
# surrogate attribution (32 coalitions x 256 background rows) runs as four
# chunks of 8 coalitions, each one (2048, 6) @ (6, 50) product of z-space
# hybrids with their ones column: the chunk's (2048, 50) hidden buffer is
# 0.8 MB, which keeps a call's traced peak near 1 MB instead of near 4 MB
# for one 8,192-row chunk, and 8,192-row chunks were slower.  Chunking never
# changes the values: each coalition's rows stay together in one chunk and
# are averaged alone.
_BATCH_ROW_LIMIT = 2048

# base + sum(phi) must meet the prediction within this share of
# max(1, |prediction|); exact enumeration lands near 1e-12.
ADDITIVITY_TOLERANCE = 1e-6


@dataclass
class Attribution:
    """Shapley decomposition of one model prediction."""

    feature_names: tuple[str, ...]
    feature_values: np.ndarray
    shapley_values: np.ndarray
    base_value: float
    prediction: float

    def to_json(self) -> dict:
        return {
            "phi": [float(p) for p in self.shapley_values],
            "base_value": self.base_value,
            "prediction": self.prediction,
        }

    @classmethod
    def from_json(cls, data: dict, names: tuple[str, ...], values) -> "Attribution":
        """Decode ``to_json`` output, which leaves out the feature ``names`` and ``values``."""
        check_keys(data, ("phi", "base_value", "prediction"))
        if not isinstance(data["phi"], list) or len(data["phi"]) != len(names):
            raise ValueError(f"phi must list {len(names)} numbers, one per feature")
        return cls(
            feature_names=tuple(names),
            feature_values=np.array(values, dtype=float),
            shapley_values=np.array([finite_number(p, "phi") for p in data["phi"]]),
            base_value=finite_number(data["base_value"], "base_value"),
            prediction=finite_number(data["prediction"], "prediction"),
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
    """Check ``shapley``'s inputs; return (names, instance, background).

    ``model`` is a SurrogateModel, whose schema names the features, or any
    (n, d) -> (n,) callable, whose features are named f0, f1, ...
    """
    schema_names = None
    if not callable(model):
        if not isinstance(model, SurrogateModel):
            raise InvalidInputError(
                f"cannot attribute over {type(model).__name__}; need model or callable"
            )
        schema_names = model.schema.feature_names
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
    if schema_names is not None and n != len(schema_names):
        raise SchemaError(
            f"expected {len(schema_names)} features {list(schema_names)}, got {n}"
        )
    if not np.all(np.isfinite(background)):
        raise InvalidInputError("non-finite value in background")
    names = schema_names or tuple(f"f{i}" for i in range(n))
    return names, instance, background


@functools.lru_cache(maxsize=4)
def _coalition_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (members, with_i, without_i, weights) for ``n`` features.

    Row ``mask`` of ``members`` holds coalition ``mask``: feature i is a
    member iff bit i is set.  Row i of ``without_i`` lists, in ascending
    order, the 2^(n-1) coalitions that exclude feature i, ``with_i`` the same
    coalitions with i added, and ``weights`` their Shapley weights.
    """
    masks = np.arange(1 << n)
    members = (masks[:, None] >> np.arange(n) & 1).astype(bool)
    without_i = np.array([masks[~members[:, i]] for i in range(n)])
    with_i = without_i | (1 << np.arange(n))[:, None]
    size_weights = np.array([coalition_weight(s, n) for s in range(n)])
    weights = size_weights[members.sum(axis=1)[without_i]]
    for table in (members, with_i, without_i, weights):
        table.flags.writeable = False
    return members, with_i, without_i, weights


def _surrogate_kernel(hybrids: np.ndarray, first: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """The network's standardized output before its output bias, one per row.

    ``hybrids`` are z-scored rows with a trailing ones column and ``first``
    is ``[W1 | b1]`` transposed, so one product applies the hidden layer's
    weights and bias together.
    """
    h = hybrids @ first
    np.maximum(h, 0.0, out=h)
    return h @ w2


def shapley(model, instance, background) -> Attribution:
    """Exact Shapley attribution by full coalition enumeration.

    Every coalition gets its own copy of the background in which the member
    columns are pinned to the instance.  Coalitions go to the model in chunks
    of at most ``_BATCH_ROW_LIMIT`` rows (one coalition per call if the
    background alone is larger).  Deterministic: coalitions are visited in
    ascending bitmask order, so the same inputs always produce bit-identical
    output.
    """
    names, instance, background = _prepare(model, instance, background)
    n = instance.shape[0]
    if n > MAX_EXACT_FEATURES:
        raise InvalidInputError(
            f"{n} features exceeds the exact-enumeration guard ({MAX_EXACT_FEATURES})"
        )
    members, with_i, without_i, weights = _coalition_tables(n)
    b = background.shape[0]

    if callable(model):
        fn, point, rows = model, instance, background
    else:
        (w1, b1), (w2, b2) = model.layers
        fn = functools.partial(_surrogate_kernel, first=np.vstack([w1.T, b1]), w2=w2[0])
        point = _standardized(model, instance[None, :])[0]
        rows = np.ones((b, n + 1))
        rows[:, :n] = _standardized(model, background)

    per_call = max(1, _BATCH_ROW_LIMIT // b)
    values = np.empty(1 << n)
    for start in range(0, 1 << n, per_call):
        chunk = members[start : start + per_call]
        hybrids = np.tile(rows, (len(chunk), 1))
        blocks = hybrids.reshape(len(chunk), b, rows.shape[1])
        for i in range(n):
            blocks[chunk[:, i], :, i] = point[i]
        preds = np.asarray(fn(hybrids), dtype=float)
        values[start : start + len(chunk)] = preds.reshape(len(chunk), b).mean(axis=1)
    if not callable(model):
        values += b2[0]
        values *= model.norm.target_std
        values += model.norm.target_mean

    # Differences first: a feature the model ignores gets exactly 0.
    phi = np.sum(weights * (values[with_i] - values[without_i]), axis=1)

    return Attribution(
        feature_names=names,
        feature_values=instance.copy(),
        shapley_values=phi,
        base_value=float(values[0]),
        prediction=float(values[-1]),
    )


def verify_additivity(
    attribution: Attribution, rel_tol: float = ADDITIVITY_TOLERANCE
) -> tuple[bool, float]:
    """Check base + sum(phi) == prediction within a relative tolerance.

    Returns (ok, residual).  The tolerance is relative to
    max(1, |prediction|) so it behaves sensibly near zero.
    """
    implied = attribution.base_value + float(attribution.shapley_values.sum())
    residual = abs(implied - attribution.prediction)
    ok = residual <= rel_tol * max(1.0, abs(attribution.prediction))
    return ok, residual
