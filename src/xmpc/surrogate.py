"""Feed-forward surrogates for the zone's hourly thermal response.

Two small dense networks approximate the testbed's one-hour transition: one
predicts the next zone temperature, the other the hour's average cooling
rate.  Both read the same five excitation-dataset columns (the setpoint for
the hour plus the zone temperature and boundary conditions at its start);
only the target column differs.

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
from .fileio import atomic_write


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


@dataclass
class TrainConfig:
    """Optimizer and architecture settings.

    Defaults are desk scale: 2000 full-batch epochs train either surrogate in
    about a second.  Longer schedules (for example 10000 epochs) are selected
    by raising ``epochs``; the width and depth of the hidden stack are
    exposed but rarely need changing.  ``train`` reuses one set of buffers
    across all epochs of a fit (see the module docstring), so the epoch count
    costs time but no memory traffic through the allocator.
    """

    epochs: int = 2000
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    validation_fraction: float = 0.2
    rng_seed: int = 0
    hidden_dim: int = 50
    hidden_layers: int = 1
    background_rows: int = 256

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInputError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise InvalidInputError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if self.hidden_layers < 1 or self.hidden_dim < 1:
            raise InvalidInputError("need at least one hidden layer of width >= 1")
        for name in ("learning_rate", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"{name} must be finite and > 0, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise InvalidInputError(f"{name} must be in [0, 1), got {value}")


@dataclass
class Normalization:
    """Per-feature and target z-score statistics captured at training time."""

    means: np.ndarray
    stds: np.ndarray
    target_mean: float
    target_std: float


@dataclass
class SurrogateModel:
    """A trained network: schema, relu hidden stack, and normalization."""

    schema: FeatureSchema
    activation: str
    layers: list[tuple[np.ndarray, np.ndarray]]
    norm: Normalization
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Forward pass, loss, gradients
# ---------------------------------------------------------------------------


def forward(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Network output for standardized inputs ``x`` of shape (n, d)."""
    h = x
    for w, b in layers[:-1]:
        # In place: each fresh multi-MB temporary would be page-faulted in anew.
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
    w, b = layers[-1]
    return (h @ w.T + b)[:, 0]


class _Workspace:
    """Activation and gradient buffers for one input size, reused across epochs.

    ``acts[i]`` holds hidden layer i's relu output and ``masks[i]`` where its
    pre-activation was positive; ``d_h[i]`` receives the loss gradient at
    that layer.  The pre-activation is built in ``acts[i]`` and rectified in
    place once its mask is taken; the residual is built in ``out``.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]], n: int):
        widths = [w.shape[0] for w, _ in layers[:-1]]
        self.acts = [np.empty((n, k)) for k in widths]
        self.masks = [np.empty((n, k), dtype=bool) for k in widths]
        self.d_h = [np.empty((n, k)) for k in widths]
        self.out = np.empty((n, 1))
        self.d_out = np.empty((n, 1))


def _layer_views(
    flat: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(w, b)`` views into ``flat`` shaped like ``layers``, packed in order."""
    views, at = [], 0
    for w, b in layers:
        w_view = flat[at : at + w.size].reshape(w.shape)
        at += w.size
        views.append((w_view, flat[at : at + b.size]))
        at += b.size
    return views


def _loss_and_grads_into(
    layers: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    y: np.ndarray,
    ws: _Workspace,
    grads: list[tuple[np.ndarray, np.ndarray]],
) -> float:
    """Mean squared error; its gradients overwrite ``grads`` in place.

    Every intermediate lives in ``ws``, so repeated calls allocate no arrays.
    """
    n = x.shape[0]
    h = x
    for (w, b), a, mask in zip(layers[:-1], ws.acts, ws.masks):
        np.matmul(h, w.T, out=a)
        a += b
        np.greater(a, 0.0, out=mask)
        np.maximum(a, 0.0, out=a)
        h = a
    w_out, b_out = layers[-1]
    np.matmul(h, w_out.T, out=ws.out)
    ws.out += b_out
    resid = ws.out[:, 0]
    resid -= y
    d_out = ws.d_out  # holds the squared residuals until the gradient overwrites them
    loss = float(np.mean(np.square(resid, out=d_out[:, 0])))

    np.multiply(resid, 2.0 / n, out=d_out[:, 0])
    np.matmul(d_out.T, h, out=grads[-1][0])
    d_out.sum(axis=0, out=grads[-1][1])
    d_above, w_above = d_out, w_out
    for i in range(len(layers) - 2, -1, -1):
        d_h = np.matmul(d_above, w_above, out=ws.d_h[i])
        d_h *= ws.masks[i]  # now the gradient at the pre-activation
        np.matmul(d_h.T, ws.acts[i - 1] if i > 0 else x, out=grads[i][0])
        d_h.sum(axis=0, out=grads[i][1])
        d_above, w_above = d_h, layers[i][0]
    return loss


def mse_loss_and_grads(
    layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray, y: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean squared error and its analytic gradients for every weight and bias.

    Runs the training loop's own kernel on a fresh workspace, so the
    finite-difference gradient check exercises exactly the arithmetic the
    optimizer consumes.
    """
    grads = _layer_views(np.empty(sum(w.size + b.size for w, b in layers)), layers)
    loss = _loss_and_grads_into(layers, x, y, _Workspace(layers, x.shape[0]), grads)
    return loss, grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _init_layers(
    n_in: int, cfg: TrainConfig, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    dims = [n_in] + [cfg.hidden_dim] * cfg.hidden_layers + [1]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = math.sqrt(2.0 / fan_in)
        layers.append((rng.normal(0.0, scale, size=(fan_out, fan_in)), np.zeros(fan_out)))
    return layers


def _fit(
    layers: list[tuple[np.ndarray, np.ndarray]], xs: np.ndarray, ys: np.ndarray, cfg: TrainConfig
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[float]]:
    """Adam from ``layers`` for ``cfg.epochs`` epochs: final layers and loss curve.

    Parameters, gradients and both moments are one flat vector each, so the
    update is a handful of in-place vector ops; with the reused workspace an
    epoch allocates no arrays.
    """
    theta = np.concatenate([a.ravel() for layer in layers for a in layer])
    grad, m, v, step, denom = (np.zeros_like(theta) for _ in range(5))
    params, grads = _layer_views(theta, layers), _layer_views(grad, layers)
    ws = _Workspace(layers, xs.shape[0])
    loss_curve = []
    for epoch in range(cfg.epochs):
        loss = _loss_and_grads_into(params, xs, ys, ws, grads)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epoch)
        loss_curve.append(loss)
        t = epoch + 1
        bias1 = 1.0 - cfg.beta1**t
        bias2 = 1.0 - cfg.beta2**t
        # theta -= lr * (m / bias1) / (sqrt(v / bias2) + eps), each product
        # and quotient rounded in the same order as the expression.
        m *= cfg.beta1
        np.multiply(grad, 1.0 - cfg.beta1, out=step)
        m += step
        v *= cfg.beta2
        np.square(grad, out=step)
        step *= 1.0 - cfg.beta2
        v += step
        np.divide(m, bias1, out=step)
        step *= cfg.learning_rate
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += cfg.eps
        step /= denom
        theta -= step
    return [(w.copy(), b.copy()) for w, b in params], loss_curve


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
    n_val = max(1, round(n * cfg.validation_fraction))
    x_train, x_val = x[: n - n_val], x[n - n_val :]
    y_train, y_val = y[: n - n_val], y[n - n_val :]

    means = x_train.mean(axis=0)
    stds = x_train.std(axis=0)
    stds[stds == 0.0] = 1.0
    t_mean = float(y_train.mean())
    t_std = float(y_train.std()) or 1.0

    xs = (x_train - means) / stds
    ys = (y_train - t_mean) / t_std
    xvs = (x_val - means) / stds
    yvs = (y_val - t_mean) / t_std

    rng = np.random.default_rng(cfg.rng_seed)
    layers = _init_layers(schema.n_features, cfg, rng)
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
        "hidden_dim": cfg.hidden_dim,
        "hidden_layers": cfg.hidden_layers,
        "rng_seed": cfg.rng_seed,
        "n_rows": n,
        "n_train": n_train,
        "initial_val_mse": initial_val_mse,
        "final_train_mse": final_train_mse,
        "final_val_mse": final_val_mse,
        "loss_curve": loss_curve,
        "background": background.tolist(),
    }
    return SurrogateModel(schema=schema, activation="relu", layers=layers, norm=norm, meta=meta)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict_batch(model: SurrogateModel, features: np.ndarray) -> np.ndarray:
    """Predictions in physical units for a (n, d) feature matrix."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.schema.n_features:
        raise SchemaError(
            f"expected (n, {model.schema.n_features}) features "
            f"{list(model.schema.feature_names)}, got shape {features.shape}"
        )
    if not np.all(np.isfinite(features)):
        raise InvalidInputError("non-finite value in feature matrix")
    z = features - model.norm.means
    z /= model.norm.stds
    out = forward(model.layers, z)
    return out * model.norm.target_std + model.norm.target_mean


def predict(model: SurrogateModel, features: np.ndarray) -> float:
    """Prediction in physical units for a single feature vector."""
    features = np.asarray(features, dtype=float)
    if features.shape != (model.schema.n_features,):
        raise SchemaError(
            f"expected {model.schema.n_features} features "
            f"{list(model.schema.feature_names)}, got shape {features.shape}"
        )
    return float(predict_batch(model, features[None, :])[0])


def batch_predictor(model: SurrogateModel):
    """``(n, d) -> (n,)`` closure over the model, for the attribution engine."""
    return lambda x: predict_batch(model, x)


def background_of(model: SurrogateModel) -> np.ndarray:
    """The training-row sample embedded at fit time, as an (n, d) array."""
    rows = model.meta.get("background")
    if not rows:
        raise InvalidInputError("model metadata carries no background sample")
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _schema_to_json(schema: FeatureSchema) -> dict:
    return {
        "features": [{"name": f.name, "unit": f.unit, "column": f.column} for f in schema.features],
        "target": {
            "name": schema.target.name,
            "unit": schema.target.unit,
            "column": schema.target.column,
        },
    }


def _schema_from_json(data: dict) -> FeatureSchema:
    return FeatureSchema(
        features=tuple(SchemaField(f["name"], f["unit"], f["column"]) for f in data["features"]),
        target=SchemaField(data["target"]["name"], data["target"]["unit"], data["target"]["column"]),
    )


def model_to_json(model: SurrogateModel) -> dict:
    return {
        "schema": _schema_to_json(model.schema),
        "activation": model.activation,
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


def load(path: str | Path) -> SurrogateModel:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise DeserializationError(f"{path}: cannot parse model file ({exc})") from None
    for key in ("schema", "activation", "layers", "norm", "meta"):
        if key not in data:
            raise DeserializationError(f"{path}: missing required field {key!r}")
    try:
        schema = _schema_from_json(data["schema"])
        layers = [
            (np.asarray(layer["w"], dtype=float), np.asarray(layer["b"], dtype=float))
            for layer in data["layers"]
        ]
        norm = Normalization(
            means=np.asarray(data["norm"]["means"], dtype=float),
            stds=np.asarray(data["norm"]["stds"], dtype=float),
            target_mean=float(data["norm"]["target_mean"]),
            target_std=float(data["norm"]["target_std"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DeserializationError(f"{path}: malformed model content ({exc})") from None
    n_in = schema.n_features
    for i, (w, b) in enumerate(layers):
        if w.ndim != 2 or w.shape[1] != n_in or b.shape != (w.shape[0],):
            raise DeserializationError(
                f"{path}: layer {i} weight shape {w.shape} / bias shape {b.shape} "
                f"inconsistent with input width {n_in}"
            )
        n_in = w.shape[0]
    if layers[-1][0].shape[0] != 1:
        raise DeserializationError(f"{path}: output layer must have width 1")
    return SurrogateModel(
        schema=schema, activation=data["activation"], layers=layers, norm=norm, meta=data["meta"]
    )


def digest(model: SurrogateModel) -> str:
    """Stable sha256 of the serialized model, used to stamp episode files."""
    payload = json.dumps(model_to_json(model), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
