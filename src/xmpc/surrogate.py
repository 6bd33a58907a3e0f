"""Feed-forward surrogates for the zone's hourly thermal response.

Two small networks, each one relu hidden layer of 50 units, approximate the
testbed's one-hour transition: one predicts the next zone temperature, the
other the hour's average cooling rate.  Both read the same five
excitation-dataset columns (the setpoint for the hour plus the zone
temperature and boundary conditions at its start); only the target column
differs.

Feature names carry a lag suffix relative to each model's reporting tick.
The temperature model predicts the value observed at tick t from quantities
recorded an hour earlier, hence ``zone_temp_tminus1``; the cooling model's
target is the average rate over the hour ending at t, which by the hourly
reporting convention shares its tick with the inputs, hence ``zone_temp_t``.
The names are what the attribution charts and narration display, so they are
fixed here rather than derived from the CSV header.

Training is full-batch gradient descent with Adam on the mean squared error
of z-scored inputs and targets.  The implementation is deliberately plain
numpy: weights serialize to JSON exactly (repr round-trip), gradients are
analytic and checkable against finite differences, and a fixed seed makes
training bit-reproducible.  A fit allocates its activation and gradient
buffers once and keeps parameters, gradients and Adam moments in one flat
vector each, so every epoch runs in place: allocating the per-epoch
(rows, hidden) temporaries afresh made the allocator hand them back to the
kernel and page-fault them in again, which cost more than the arithmetic.
The vector holds ``[W1 | b1]`` transposed, one (features + 1, hidden)
block, then ``w2`` and ``b2``; the fit gives the standardized rows a ones
column once, so the hidden pre-activation is one product with the bias as
its last term.  The back-propagated ``d_out @ w2`` is an elementwise outer product,
one multiplication per element as in the rank-1 product it replaces, and
Adam is elementwise, so the packing changes no bit of the trained model.

A model file is one JSON object: ``target`` names the model's schema by its
key in ``SCHEMAS`` ("fx" or "fy"), ``layers`` holds each layer's weights and
bias, ``norm`` the z-score statistics, and ``meta`` the training settings,
loss curve and the background sample for attribution.  The schemas and the
network shape are fixed here, so the file does not repeat them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DeserializationError,
    InvalidInputError,
    SchemaError,
    TrainingDivergedError,
)
from .fileio import atomic_write, finite_number


@dataclass(frozen=True)
class SchemaField:
    """One named quantity: display name, unit, and the dataset column it reads."""

    name: str
    unit: str
    column: str


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered input fields and the prediction target of one surrogate."""

    features: tuple[SchemaField, ...]
    target: SchemaField

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def n_features(self) -> int:
        return len(self.features)


FX_SCHEMA = FeatureSchema(
    features=(
        SchemaField("setpoint_t", "degC", "setpoint_c"),
        SchemaField("zone_temp_tminus1", "degC", "zone_temp_c"),
        SchemaField("oa_temp_tminus1", "degC", "oa_temp_c"),
        SchemaField("oa_radiation_tminus1", "W/m2", "oa_radiation_wm2"),
        SchemaField("occupancy_tminus1", "persons", "occupancy"),
    ),
    target=SchemaField("zone_temp", "degC", "next_zone_temp_c"),
)

FY_SCHEMA = FeatureSchema(
    features=(
        SchemaField("setpoint_t", "degC", "setpoint_c"),
        SchemaField("zone_temp_t", "degC", "zone_temp_c"),
        SchemaField("oa_temp_t", "degC", "oa_temp_c"),
        SchemaField("oa_radiation_t", "W/m2", "oa_radiation_wm2"),
        SchemaField("occupancy_t", "persons", "occupancy"),
    ),
    target=SchemaField("cooling_rate", "W", "next_cooling_rate_w"),
)

SCHEMAS = {"fx": FX_SCHEMA, "fy": FY_SCHEMA}

# Fixed design: one relu hidden layer of 50 units, Adam with its usual
# constants, and the last fifth of the rows (chronologically) held out.
HIDDEN_DIM = 50
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
VALIDATION_FRACTION = 0.2


@dataclass
class TrainConfig:
    """The training schedule; the network shape and Adam's constants are fixed.

    Defaults are desk scale: 2000 full-batch epochs on a 31-day excitation
    train either surrogate in about a third of a second on one core of a
    2-vCPU Xeon (OpenBLAS, one thread).  Longer schedules (for example 10000
    epochs) are selected by raising ``epochs``.  ``train`` reuses one set of
    buffers across all epochs of a fit (see the module docstring), so the
    epoch count costs time but no memory traffic through the allocator.
    """

    epochs: int = 2000
    learning_rate: float = 1e-3
    rng_seed: int = 0
    background_rows: int = 256

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInputError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InvalidInputError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.rng_seed < 0:
            raise InvalidInputError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.background_rows < 1:
            raise InvalidInputError(f"background_rows must be >= 1, got {self.background_rows}")


@dataclass
class Normalization:
    """Per-feature and target z-score statistics captured at training time."""

    means: np.ndarray
    stds: np.ndarray
    target_mean: float
    target_std: float


@dataclass
class SurrogateModel:
    """A trained network: schema, ``[(W1, b1), (w2, b2)]``, and normalization."""

    schema: FeatureSchema
    layers: list[tuple[np.ndarray, np.ndarray]]
    norm: Normalization
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Forward pass, loss, gradients
# ---------------------------------------------------------------------------


def forward(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Network output for standardized inputs ``x`` of shape (n, d)."""
    (w1, b1), (w2, b2) = layers
    # In place: a fresh multi-MB temporary would be page-faulted in anew.
    h = x @ w1.T
    h += b1
    np.maximum(h, 0.0, out=h)
    return (h @ w2.T + b2)[:, 0]


class _Workspace:
    """Activation and gradient buffers for one input size, reused across epochs.

    ``x1`` is the standardized rows with a trailing ones column, so that the
    first layer's one product adds its bias.  ``act`` holds the hidden
    layer's relu output and ``mask`` where its pre-activation was positive;
    ``d_h`` receives the loss gradient there.  The pre-activation is built in
    ``act`` and rectified in place once its mask is taken; the residual is
    built in ``out``.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
        n, width = len(x), layers[0][0].shape[0]
        self.x1 = np.column_stack([x, np.ones(n)])
        self.act = np.empty((n, width))
        self.mask = np.empty((n, width), dtype=bool)
        self.d_h = np.empty((n, width))
        self.out = np.empty((n, 1))
        self.d_out = np.empty((n, 1))


def _packed(layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """``layers`` as one flat vector: ``[W1 | b1]`` transposed, then ``w2`` and ``b2``."""
    (w1, b1), (w2, b2) = layers
    return np.concatenate([w1.T, b1, w2, b2], axis=None)


def _layer_views(
    flat: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views into a ``_packed`` vector: ``[W1 | b1]`` transposed, ``w2`` and ``b2``."""
    width, n_in = layers[0][0].shape
    wb1t = flat[: (n_in + 1) * width].reshape(n_in + 1, width)
    return wb1t, flat[wb1t.size : -1].reshape(1, width), flat[-1:]


def _loss_and_grads_into(
    params: tuple[np.ndarray, ...],
    y: np.ndarray,
    ws: _Workspace,
    grads: tuple[np.ndarray, ...],
) -> float:
    """Mean squared error on ``ws.x1``; its gradients overwrite ``grads`` in place.

    ``params`` and ``grads`` are ``_layer_views``.  Every intermediate lives
    in ``ws``, so repeated calls allocate no arrays.
    """
    x1 = ws.x1
    n = x1.shape[0]
    wb1t, w2, b2 = params
    dwb1t, dw2, db2 = grads
    h = ws.act
    np.matmul(x1, wb1t, out=h)  # b1 enters as the last term of each row's sum
    np.greater(h, 0.0, out=ws.mask)
    np.maximum(h, 0.0, out=h)
    np.matmul(h, w2.T, out=ws.out)
    ws.out += b2
    resid = ws.out[:, 0]
    resid -= y
    d_out = ws.d_out  # holds the squared residuals until the gradient overwrites them
    loss = float(np.add.reduce(np.square(resid, out=d_out[:, 0])) / n)

    np.multiply(resid, 2.0 / n, out=d_out[:, 0])
    np.matmul(d_out.T, h, out=dw2)
    d_out.sum(axis=0, out=db2)
    d_h = np.einsum("i,j->ij", d_out[:, 0], w2[0], out=ws.d_h)  # d_out @ w2, without a K=1 GEMM
    d_h *= ws.mask  # now the gradient at the pre-activation
    # Not one x1.T @ d_h: past OpenBLAS's small-matrix size (M*N*K > 1e6) that
    # product blocks its sums over rows, and b1's would no longer be sum(axis=0)'s.
    np.matmul(x1[:, :-1].T, d_h, out=dwb1t[:-1])
    np.einsum("ij->j", d_h, out=dwb1t[-1])  # d_h.sum(axis=0), also row by row, but faster
    return loss


def mse_loss_and_grads(
    layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray, y: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean squared error and its analytic gradients for every weight and bias.

    Runs the training loop's own kernel on ``layers`` packed as ``_fit``
    packs them and a fresh workspace, so the finite-difference gradient
    check exercises exactly the arithmetic the optimizer consumes.
    """
    theta = _packed(layers)
    dwb1t, dw2, db2 = grads = _layer_views(np.empty_like(theta), layers)
    loss = _loss_and_grads_into(_layer_views(theta, layers), y, _Workspace(layers, x), grads)
    return loss, [(dwb1t[:-1].T, dwb1t[-1]), (dw2, db2)]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _init_layers(n_in: int, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """He-scaled normal weights and zero biases, hidden layer drawn first."""
    w1 = rng.normal(0.0, math.sqrt(2.0 / n_in), size=(HIDDEN_DIM, n_in))
    w2 = rng.normal(0.0, math.sqrt(2.0 / HIDDEN_DIM), size=(1, HIDDEN_DIM))
    return [(w1, np.zeros(HIDDEN_DIM)), (w2, np.zeros(1))]


def _fit(
    layers: list[tuple[np.ndarray, np.ndarray]], xs: np.ndarray, ys: np.ndarray, cfg: TrainConfig
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[float]]:
    """Adam from ``layers`` for ``cfg.epochs`` epochs: final layers and loss curve.

    Parameters, gradients and both moments are one flat vector each, so the
    update is a handful of in-place vector ops; with the reused workspace an
    epoch allocates no arrays.
    """
    theta = _packed(layers)
    grad, m, v, step, denom = (np.zeros_like(theta) for _ in range(5))
    params, grads = _layer_views(theta, layers), _layer_views(grad, layers)
    ws = _Workspace(layers, xs)
    loss_curve = []
    for epoch in range(cfg.epochs):
        loss = _loss_and_grads_into(params, ys, ws, grads)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epoch)
        loss_curve.append(loss)
        t = epoch + 1
        bias1 = 1.0 - ADAM_BETA1**t
        bias2 = 1.0 - ADAM_BETA2**t
        # theta -= lr * (m / bias1) / (sqrt(v / bias2) + eps), each product
        # and quotient rounded in the same order as the expression.
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
        m += step
        v *= ADAM_BETA2
        np.square(grad, out=step)
        step *= 1.0 - ADAM_BETA2
        v += step
        np.divide(m, bias1, out=step)
        step *= cfg.learning_rate
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        theta -= step
    wb1t, w2, b2 = params
    return [(wb1t[:-1].T.copy(), wb1t[-1].copy()), (w2.copy(), b2.copy())], loss_curve


def train(dataset, schema: FeatureSchema, cfg: TrainConfig | None = None) -> SurrogateModel:
    """Fit one surrogate on an excitation dataset.

    ``dataset`` is anything column-addressable by name (``ExcitationData`` or
    a plain dict of arrays).  The split is chronological: the first 80% of
    rows train, the last 20% validate, so validation always covers unseen
    later days.  A fixed-size sample of training rows is embedded in the
    model metadata to serve later as the attribution background.
    """
    cfg = cfg or TrainConfig()
    x = np.column_stack([np.asarray(dataset[f.column], dtype=float) for f in schema.features])
    y = np.asarray(dataset[schema.target.column], dtype=float)
    if x.shape[0] != y.shape[0] or x.shape[0] < 5:
        raise InvalidInputError(f"dataset too small or inconsistent: {x.shape[0]} rows")

    n = x.shape[0]
    n_val = max(1, round(n * VALIDATION_FRACTION))
    x_train, x_val = x[: n - n_val], x[n - n_val :]
    y_train, y_val = y[: n - n_val], y[n - n_val :]

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        means = x_train.mean(axis=0)
        stds = x_train.std(axis=0)
        stds[stds == 0.0] = 1.0
        t_mean = float(y_train.mean())
        t_std = float(y_train.std()) or 1.0
    columns = [f.column for f in schema.features] + [schema.target.column]
    for column, mean, std in zip(columns, [*means, t_mean], [*stds, t_std]):
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise InvalidInputError(f"{column} cannot be standardized (mean {mean}, std {std})")

    xs = (x_train - means) / stds
    ys = (y_train - t_mean) / t_std
    xvs = (x_val - means) / stds
    yvs = (y_val - t_mean) / t_std

    rng = np.random.default_rng(cfg.rng_seed)
    layers = _init_layers(schema.n_features, rng)
    initial_val_mse = float(np.mean((forward(layers, xvs) - yvs) ** 2))
    layers, loss_curve = _fit(layers, xs, ys, cfg)

    final_train_mse = loss_curve[-1]
    final_val_mse = float(np.mean((forward(layers, xvs) - yvs) ** 2))

    n_train = x_train.shape[0]
    if n_train <= cfg.background_rows:
        background = x_train
    else:
        idx = np.sort(
            np.random.default_rng(cfg.rng_seed).choice(
                n_train, size=cfg.background_rows, replace=False
            )
        )
        background = x_train[idx]

    norm = Normalization(means=means, stds=stds, target_mean=t_mean, target_std=t_std)
    meta = {
        "epochs": cfg.epochs,
        "learning_rate": cfg.learning_rate,
        "rng_seed": cfg.rng_seed,
        "n_rows": n,
        "n_train": n_train,
        "initial_val_mse": initial_val_mse,
        "final_train_mse": final_train_mse,
        "final_val_mse": final_val_mse,
        "loss_curve": loss_curve,
        "background": background.tolist(),
    }
    return SurrogateModel(schema=schema, layers=layers, norm=norm, meta=meta)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _standardized(model: SurrogateModel, features: np.ndarray) -> np.ndarray:
    """z-scored copy of a finite (n, d) feature matrix."""
    if not np.isfinite(features).all():
        raise InvalidInputError("non-finite value in feature matrix")
    z = features - model.norm.means
    z /= model.norm.stds
    return z


def predict_batch(model: SurrogateModel, features: np.ndarray) -> np.ndarray:
    """Predictions in physical units for a (n, d) feature matrix."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.schema.n_features:
        raise SchemaError(
            f"expected (n, {model.schema.n_features}) features "
            f"{list(model.schema.feature_names)}, got shape {features.shape}"
        )
    out = forward(model.layers, _standardized(model, features))
    return out * model.norm.target_std + model.norm.target_mean


def predict(model: SurrogateModel, features: np.ndarray) -> float:
    """Prediction in physical units for a single feature vector.

    Bit-equal to ``predict_batch`` on a one-row matrix: the unscaling below
    is the same two IEEE operations on Python floats.
    """
    features = np.asarray(features, dtype=float)
    if features.shape != (model.schema.n_features,):
        raise SchemaError(
            f"expected {model.schema.n_features} features "
            f"{list(model.schema.feature_names)}, got shape {features.shape}"
        )
    out = float(forward(model.layers, _standardized(model, features[None, :]))[0])
    return out * model.norm.target_std + model.norm.target_mean


def background_of(model: SurrogateModel) -> np.ndarray:
    """The training-row sample embedded at fit time, as an (n, d) array."""
    rows = model.meta.get("background")
    if not rows:
        raise InvalidInputError("model metadata carries no background sample")
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def model_to_json(model: SurrogateModel) -> dict:
    return {
        "target": next(role for role, schema in SCHEMAS.items() if schema == model.schema),
        "layers": [{"w": w.tolist(), "b": b.tolist()} for w, b in model.layers],
        "norm": {
            "means": model.norm.means.tolist(),
            "stds": model.norm.stds.tolist(),
            "target_mean": model.norm.target_mean,
            "target_std": model.norm.target_std,
        },
        "meta": model.meta,
    }


def save(model: SurrogateModel, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(model_to_json(model)) + "\n")


def _numbers(value, name: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array; each read by ``finite_number``."""

    def read(item):
        return [read(x) for x in item] if isinstance(item, list) else finite_number(item, name)

    rows = read(value)
    if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise ValueError(f"{name} row {i} has {len(row)} numbers, row 0 has {len(rows[0])}")
    return np.array(rows, dtype=float)


def load(path: str | Path) -> SurrogateModel:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (ValueError, OSError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DeserializationError(f"{path}: cannot parse model file ({exc})") from None
    if not isinstance(data, dict):
        raise DeserializationError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key in ("target", "layers", "norm", "meta"):
        if key not in data:
            raise DeserializationError(f"{path}: missing required field {key!r}")
    schema = SCHEMAS.get(data["target"]) if isinstance(data["target"], str) else None
    if schema is None:
        raise DeserializationError(
            f"{path}: target must be one of {sorted(SCHEMAS)}, got {data['target']!r}"
        )
    if not (isinstance(data["layers"], list) and len(data["layers"]) == 2):
        raise DeserializationError(
            f"{path}: 'layers' must list 2 layers, one relu hidden layer and the output layer"
        )
    if not isinstance(data["meta"], dict):
        raise DeserializationError(f"{path}: 'meta' must be a JSON object")
    try:
        layers = [(_numbers(layer["w"], f"layers[{i}] weight"),
                   _numbers(layer["b"], f"layers[{i}] bias"))
                  for i, layer in enumerate(data["layers"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise DeserializationError(
            f"{path}: malformed layer or non-finite layer weight ({exc})"
        ) from None
    try:
        stats = data["norm"]
        norm = Normalization(
            means=_numbers(stats["means"], "means"),
            stds=_numbers(stats["stds"], "stds"),
            target_mean=finite_number(stats["target_mean"], "target_mean"),
            target_std=finite_number(stats["target_std"], "target_std"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DeserializationError(
            f"{path}: malformed norm; its statistics must be finite, with stds > 0 ({exc})"
        ) from None
    shapes = [(w.shape, b.shape) for w, b in layers]
    expected = [((HIDDEN_DIM, schema.n_features), (HIDDEN_DIM,)), ((1, HIDDEN_DIM), (1,))]
    if shapes != expected:
        raise DeserializationError(
            f"{path}: layer (weight, bias) shapes {shapes} are not the fixed network's {expected}"
        )
    if norm.means.shape != (schema.n_features,) or norm.stds.shape != (schema.n_features,):
        raise DeserializationError(
            f"{path}: norm means shape {norm.means.shape} / stds shape {norm.stds.shape} "
            f"do not match {schema.n_features} features"
        )
    if (norm.stds <= 0.0).any() or norm.target_std <= 0.0:
        raise DeserializationError(f"{path}: norm statistics must be finite, with stds > 0")
    try:
        background = _numbers(data["meta"].get("background"), "meta.background")
    except ValueError:
        background = np.empty(0)
    if background.ndim != 2 or len(background) < 1 or background.shape[1] != schema.n_features:
        raise DeserializationError(
            f"{path}: meta.background must be a finite (k >= 1, {schema.n_features}) array "
            "of training rows"
        )
    (w1, b1), _ = layers
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        hidden = ((background - norm.means) / norm.stds) @ w1.T + b1
    if not np.isfinite(hidden).all():
        raise DeserializationError(
            f"{path}: the hidden layer's pre-activations on meta.background are not finite"
        )
    return SurrogateModel(schema=schema, layers=layers, norm=norm, meta=data["meta"])


def digest(model: SurrogateModel) -> str:
    """Stable sha256 of the serialized model, used to stamp episode files."""
    payload = json.dumps(model_to_json(model), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
