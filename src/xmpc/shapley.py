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
The coalition tables are built per call, and phi is one weighted sum of
differences per feature, so an ignored feature gets exactly 0.

A callable is evaluated on every hybrid row, one coalition's |B| rows per
call.  A surrogate, f(z) = w2 .
relu(W1 z + b1) + b2 on standardized features, has a closed form instead.
For coalition S and hidden unit k the pre-activation of background row b
splits into an instance part u_k = b1_k + sum over j in S of W1_kj z_j and a
background part v_kb = sum over j not in S of W1_kj g_bj, so

    sum over b of relu(u_k + v_kb) = c * u_k + T

where c counts the rows with v_kb > -u_k and T is the sum of those v_kb.
Sorting v_k over the background once per coalition, with its suffix sums,
answers every instance by one binary search per hidden unit: 32 x 50
searches of depth log2(B) per instance, where direct evaluation takes
32 x B x 50 relus.  Building the 32 sorted tables costs about as much as
attributing one instance directly, so a batch of instances is what pays.
The output layer, its bias and the unscaling then touch only the 2^n
coalition means.

Precision: u, the suffix sums and c * u + T are computed in
``np.longdouble``, because u is rounded once and reused for all c rows; the
sort, v and the searches stay float64.  That puts the closed form within
about half of 1e-12 relative of attributing ``predict_batch`` as a
callable.  longdouble has 64 mantissa bits on x86-64 Linux; where it is
plain double the result is a few times 1e-12 off, still far inside the
1e-6 additivity and 1e-9 oracle tolerances.  Both parts are centered at the
first background row r (z_j - r_j and g_bj - r_j, with b1 + W1 r folded
into u) and computed over all n columns with the other side's columns
zeroed, so a feature equal to the instance in every background row adds
exact zeros on both sides and gets phi = 0.0 exactly.  Every operation
after the background tables is row by row, so an instance's attribution
does not depend on the batch it arrives in or its position there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SchemaError
from .surrogate import SurrogateModel, _standardized

# Refuse exact enumeration above this many features: 2^20 coalitions is
# already minutes of work.
MAX_EXACT_FEATURES = 20

# Instances go through a surrogate's sorted background, and into the phi
# reduction, in blocks of this many rows, however long the episode.  A
# block's (rows, 50) long-double buffers are 51 KB each; 256-row blocks
# (205 KB buffers) attributed a month no faster and raised the peak RSS of
# the month benchmark by ~1.4 MB.
_BLOCK_ROWS = 64

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


def coalition_weight(s_size: int, n: int) -> float:
    """The Shapley coalition weight |S|! (n-|S|-1)! / n!.

    Over all coalitions excluding a fixed feature these weights sum to 1,
    which is what makes phi a weighted average of marginal contributions.
    """
    if n < 1 or s_size < 0 or s_size > n - 1:
        raise InvalidInputError(f"coalition size {s_size} invalid for {n} features")
    return math.factorial(s_size) * math.factorial(n - s_size - 1) / math.factorial(n)


def _prepare(model, instances, background):
    """Check ``shapley``'s inputs; return (names, instances as (m, n), background).

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
    instances = np.asarray(instances, dtype=float)
    background = np.asarray(background, dtype=float)
    if instances.ndim not in (1, 2):
        raise SchemaError(f"instance must be 1-D or an (m, n) matrix, got shape {instances.shape}")
    instances = np.atleast_2d(instances)
    if not np.all(np.isfinite(instances)):
        raise InvalidInputError("non-finite value in instance")
    if background.ndim != 2 or background.shape[0] < 1:
        raise InvalidInputError(f"background must be a non-empty (b, d) array, got {background.shape}")
    n = instances.shape[1]
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
    return names, instances, background


def _coalition_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(members, with_i, without_i, weights) for ``n`` features.

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
    return members, with_i, without_i, weights


def _callable_values(fn, point: np.ndarray, background: np.ndarray, members: np.ndarray) -> np.ndarray:
    """v(S) of one instance for every coalition: the mean of ``fn`` over its hybrids.

    Each coalition is one call of ``fn`` on a copy of the background whose
    member columns are pinned to the instance.
    """
    values = np.empty(len(members))
    for mask, inside in enumerate(members):
        hybrids = background.copy()
        hybrids[:, inside] = point[inside]
        values[mask] = np.mean(np.asarray(fn(hybrids), dtype=float))
    return values


def _surrogate_values(
    model: SurrogateModel, points: np.ndarray, background: np.ndarray, members: np.ndarray
) -> np.ndarray:
    """v(S) for every instance (row) and coalition (column), by the closed form.

    See the module docstring.  One coalition's sorted background table is
    built at a time, and the instances pass through it ``_BLOCK_ROWS`` at a
    time.
    """
    (w1, b1), (w2, b2) = model.layers
    rows = _standardized(model, background)
    center = rows[0].copy()
    rows -= center
    points = (_standardized(model, points) - center).astype(np.longdouble)
    w1t = w1.T
    w1t_long = w1t.astype(np.longdouble)
    bias = b1 + center @ w1t_long
    w2_long = w2[0].astype(np.longdouble)
    b = len(rows)
    hidden = np.arange(len(b1))
    # Each unit's sorted v, padded with NaN to a power of two above b so
    # that the branchless search below takes log2(width) equal steps and,
    # since NaN <= x is false even for x = +inf, never counts the padding.
    width = 1 << b.bit_length()
    ordered = np.full((len(hidden), width), np.nan)
    flat, offsets = ordered.ravel(), hidden * width
    suffix = np.zeros((len(hidden), b + 1), dtype=np.longdouble)  # suffix[k, i] = sum of v[k, i:]

    values = np.empty((len(points), len(members)))
    for mask, inside in enumerate(members):
        ordered[:, :b] = np.sort(((rows * ~inside) @ w1t).T, axis=1)
        np.cumsum(ordered[:, b - 1 :: -1], axis=1, dtype=np.longdouble, out=suffix[:, b - 1 :: -1])
        for start in range(0, len(points), _BLOCK_ROWS):
            u = (points[start : start + _BLOCK_ROWS] * inside) @ w1t_long + bias
            at_most = -u.astype(float)
            # pos ends at offset + the count of v <= -u, that is at the first
            # row whose unit is active.
            pos = np.tile(offsets, (len(u), 1))
            step = width // 2
            while step:
                pos += step * (flat[pos + (step - 1)] <= at_most)
                step //= 2
            first = pos - offsets
            hidden_sums = (b - first) * u + suffix[hidden, first]
            values[start : start + _BLOCK_ROWS, mask] = hidden_sums @ w2_long / b
    values += b2[0]
    values *= model.norm.target_std
    values += model.norm.target_mean
    return values


def shapley(model, instances, background):
    """Exact Shapley attribution by full coalition enumeration.

    ``instances`` is one feature vector, which returns an ``Attribution``,
    or an (m, n) matrix, which returns m of them in row order.  A surrogate
    takes the closed form of the module docstring for every row at once; a
    callable is evaluated on the hybrids of one row and one coalition at a
    time.
    Deterministic: the same inputs always produce bit-identical output, and
    a row's result does not depend on the other rows.
    """
    names, points, background = _prepare(model, instances, background)
    n = points.shape[1]
    if n > MAX_EXACT_FEATURES:
        raise InvalidInputError(
            f"{n} features exceeds the exact-enumeration guard ({MAX_EXACT_FEATURES})"
        )
    members, with_i, without_i, weights = _coalition_tables(n)
    if callable(model):
        values = np.array([_callable_values(model, p, background, members) for p in points])
        values = values.reshape(len(points), len(members))
    else:
        values = _surrogate_values(model, points, background, members)

    attributions = []
    for start in range(0, len(points), _BLOCK_ROWS):
        block = values[start : start + _BLOCK_ROWS]
        # Differences first: a feature the model ignores gets exactly 0.  take
        # keeps the summed axis contiguous, so each row sums as it would alone.
        diffs = block.take(with_i, axis=1) - block.take(without_i, axis=1)
        phis = np.sum(weights * diffs, axis=2)
        attributions += [
            Attribution(
                feature_names=names,
                feature_values=point.copy(),
                shapley_values=phi,
                base_value=float(value[0]),
                prediction=float(value[-1]),
            )
            for point, phi, value in zip(points[start : start + _BLOCK_ROWS], phis, block)
        ]
    return attributions if np.ndim(instances) == 2 else attributions[0]


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
