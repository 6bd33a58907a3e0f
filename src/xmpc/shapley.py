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
features (32 coalitions), far under the guard; anything wider is refused
with a pointer at ``shapley_sampled``, the permutation-averaging estimator,
which is unbiased for any width and reproduces the exact values when asked
to enumerate all n! orderings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SchemaError

# Refuse exact enumeration above this many features.  2^20 coalitions is
# already minutes of work; beyond that only the sampling estimator is sane.
MAX_EXACT_FEATURES = 20

# Coalitions reach the model in chunks of at most this many hybrid rows, so
# memory stays bounded however many coalitions one call asks for.
_BATCH_ROW_LIMIT = 500_000


@dataclass
class Attribution:
    """Shapley decomposition of one model prediction."""

    feature_names: tuple[str, ...]
    feature_values: np.ndarray
    shapley_values: np.ndarray
    base_value: float
    prediction: float
    background_size: int
    method: str  # "exact" or "sampled"

    def to_json(self) -> dict:
        return {
            "features": [
                {"name": n, "value": float(v), "phi": float(p)}
                for n, v, p in zip(self.feature_names, self.feature_values, self.shapley_values)
            ],
            "base_value": self.base_value,
            "prediction": self.prediction,
            "background_size": self.background_size,
            "method": self.method,
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
            method=data["method"],
        )


def coalition_weight(s_size: int, n: int) -> float:
    """The Shapley coalition weight |S|! (n-|S|-1)! / n!.

    Over all coalitions excluding a fixed feature these weights sum to 1,
    which is what makes phi a weighted average of marginal contributions.
    """
    if n < 1 or s_size < 0 or s_size > n - 1:
        raise InvalidInputError(f"coalition size {s_size} invalid for {n} features")
    return math.factorial(s_size) * math.factorial(n - s_size - 1) / math.factorial(n)


def _prepare(model, instance, background, feature_names=None):
    """Check the inputs every entry point shares; return (fn, names, instance, background).

    ``model`` is a SurrogateModel or any (n, d) -> (n,) callable.
    """
    fn, schema_names = model, None
    if not callable(model):
        from .surrogate import SurrogateModel, batch_predictor

        if not isinstance(model, SurrogateModel):
            raise InvalidInputError(
                f"cannot attribute over {type(model).__name__}; need model or callable"
            )
        fn, schema_names = batch_predictor(model), model.schema.feature_names
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
    names = tuple(feature_names or schema_names or (f"f{i}" for i in range(n)))
    if len(names) != n:
        raise SchemaError(f"got {len(names)} feature names for {n} features")
    return fn, names, instance, background


def _coalition_values(
    fn, instance: np.ndarray, background: np.ndarray, members: np.ndarray
) -> np.ndarray:
    """v(S) for each row of a (k, n) boolean coalition-membership matrix.

    Every coalition gets its own copy of the background in which the member
    columns are pinned to the instance.  Coalitions go to the model in
    chunks of at most ``_BATCH_ROW_LIMIT`` rows (one coalition per call if
    the background alone is larger).
    """
    k, n = members.shape
    b = background.shape[0]
    per_call = max(1, _BATCH_ROW_LIMIT // b)
    values = np.empty(k)
    for start in range(0, k, per_call):
        chunk = members[start : start + per_call]
        hybrids = np.tile(background, (len(chunk), 1))
        blocks = hybrids.reshape(len(chunk), b, n)
        for i in range(n):
            blocks[chunk[:, i], :, i] = instance[i]
        preds = np.asarray(fn(hybrids), dtype=float)
        values[start : start + len(chunk)] = preds.reshape(len(chunk), b).mean(axis=1)
    return values


def value_of(model, instance, background, subset) -> float:
    """Coalition value v(S): mean prediction with S pinned to the instance."""
    fn, _, instance, background = _prepare(model, instance, background)
    n = instance.shape[0]
    subset = list(subset)
    if any(i < 0 or i >= n for i in subset):
        raise InvalidInputError(f"subset {subset} out of range for {n} features")
    members = np.zeros((1, n), dtype=bool)
    members[0, subset] = True
    return float(_coalition_values(fn, instance, background, members)[0])


def shapley(model, instance, background, feature_names=None) -> Attribution:
    """Exact Shapley attribution by full coalition enumeration.

    Deterministic: coalitions are visited in ascending bitmask order, so the
    same inputs always produce bit-identical output.
    """
    fn, names, instance, background = _prepare(model, instance, background, feature_names)
    n = instance.shape[0]
    if n > MAX_EXACT_FEATURES:
        raise InvalidInputError(
            f"{n} features exceeds the exact-enumeration guard ({MAX_EXACT_FEATURES}); "
            "use shapley_sampled instead"
        )

    # Row ``mask`` holds coalition ``mask``: feature i is a member iff bit i is set.
    members = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    values = _coalition_values(fn, instance, background, members)
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
        background_size=background.shape[0],
        method="exact",
    )


def shapley_sampled(
    model, instance, background, n_permutations: int, seed: int = 0, feature_names=None
) -> Attribution:
    """Permutation-averaging Shapley estimate.

    Each permutation contributes one marginal-contribution walk; the mean
    over walks is an unbiased estimate of the exact values.  When
    ``n_permutations`` covers all n! orderings the walks are enumerated
    exhaustively (each exactly once) and the result equals the exact
    attribution up to summation round-off.
    """
    if n_permutations < 1:
        raise InvalidInputError(f"n_permutations must be >= 1, got {n_permutations}")
    fn, names, instance, background = _prepare(model, instance, background, feature_names)
    n = instance.shape[0]

    if n <= 10 and n_permutations >= math.factorial(n):
        perms = list(itertools.permutations(range(n)))
    else:
        rng = np.random.default_rng(seed)
        perms = [tuple(rng.permutation(n).tolist()) for _ in range(n_permutations)]

    # Each walk is the row indices of its prefix coalitions.  Coalitions are
    # Python-int bitmasks (any width), and each distinct one is evaluated once.
    row = {0: 0}
    walks = []
    for perm in perms:
        mask, walk = 0, [0]
        for i in perm:
            mask |= 1 << i
            walk.append(row.setdefault(mask, len(row)))
        walks.append(walk)
    members = np.array([[mask >> i & 1 for i in range(n)] for mask in row], dtype=bool)
    values = _coalition_values(fn, instance, background, members)

    phi = np.zeros(n)
    for perm, walk in zip(perms, walks):
        for i, prev, cur in zip(perm, walk, walk[1:]):
            phi[i] += values[cur] - values[prev]
    phi /= len(perms)

    return Attribution(
        feature_names=names,
        feature_values=instance.copy(),
        shapley_values=phi,
        base_value=float(values[0]),
        prediction=float(values[walks[0][-1]]),
        background_size=background.shape[0],
        method="sampled",
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
