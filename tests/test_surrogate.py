"""Surrogate training, gradients, prediction, and model persistence."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from xmpc import surrogate as surrogate_mod
from xmpc.errors import (
    DeserializationError,
    InvalidInputError,
    SchemaError,
    TrainingDivergedError,
)
from xmpc.surrogate import (
    FX_SCHEMA,
    FY_SCHEMA,
    SCHEMAS,
    Normalization,
    SurrogateModel,
    TrainConfig,
    background_of,
    digest,
    forward,
    load,
    model_to_json,
    mse_loss_and_grads,
    predict,
    predict_batch,
    save,
    train,
)


def make_dataset(n_rows: int, seed: int, target_fn) -> dict[str, np.ndarray]:
    """Synthetic column dict matching the excitation layout."""
    rng = np.random.default_rng(seed)
    cols = {
        "setpoint_c": rng.uniform(2.0, 9.0, n_rows),
        "zone_temp_c": rng.uniform(20.0, 30.0, n_rows),
        "oa_temp_c": rng.uniform(20.0, 40.0, n_rows),
        "oa_radiation_wm2": rng.uniform(0.0, 600.0, n_rows),
        "occupancy": rng.integers(0, 4, n_rows).astype(float),
    }
    cols["next_zone_temp_c"] = target_fn(cols)
    cols["next_cooling_rate_w"] = cols["next_zone_temp_c"]
    return cols


class TestSchemas:
    def test_lookup_table(self):
        assert set(SCHEMAS) == {"fx", "fy"}
        assert SCHEMAS["fx"] is FX_SCHEMA
        assert SCHEMAS["fy"] is FY_SCHEMA

    def test_shared_input_columns(self):
        # Both surrogates read the same five dataset columns; only the display
        # names (lag suffix) and the target differ.
        fx_cols = [f.column for f in FX_SCHEMA.features]
        fy_cols = [f.column for f in FY_SCHEMA.features]
        assert fx_cols == fy_cols
        assert FX_SCHEMA.target.column == "next_zone_temp_c"
        assert FY_SCHEMA.target.column == "next_cooling_rate_w"
        assert FX_SCHEMA.n_features == FY_SCHEMA.n_features == 5

    def test_display_names_carry_lag(self):
        assert FX_SCHEMA.feature_names == (
            "setpoint_t",
            "zone_temp_tminus1",
            "oa_temp_tminus1",
            "oa_radiation_tminus1",
            "occupancy_tminus1",
        )
        assert FY_SCHEMA.feature_names == (
            "setpoint_t",
            "zone_temp_t",
            "oa_temp_t",
            "oa_radiation_t",
            "occupancy_t",
        )


class TestGradients:
    def _random_layers(self, rng, dims):
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            layers.append((rng.normal(0.0, 0.6, size=(fan_out, fan_in)), rng.normal(0.0, 0.1, fan_out)))
        return layers

    def test_against_central_differences(self):
        rng = np.random.default_rng(0)
        layers = self._random_layers(rng, [5, 8, 1])
        x = rng.normal(0.0, 1.0, size=(12, 5))
        y = rng.normal(0.0, 1.0, size=12)
        _, grads = mse_loss_and_grads(layers, x, y)

        eps = 1e-6
        worst = 0.0
        for li, (w, b) in enumerate(layers):
            for arr, grad in ((w, grads[li][0]), (b, grads[li][1])):
                flat = arr.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    lp, _ = mse_loss_and_grads(layers, x, y)
                    flat[idx] = orig - eps
                    lm, _ = mse_loss_and_grads(layers, x, y)
                    flat[idx] = orig
                    numeric = (lp - lm) / (2.0 * eps)
                    analytic = grad.ravel()[idx]
                    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                    worst = max(worst, rel)
        assert worst < 1e-4

    def test_zero_residual_zero_grads(self):
        layers = [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((1, 4)), np.zeros(1))]
        x = np.ones((5, 2))
        y = np.zeros(5)
        loss, grads = mse_loss_and_grads(layers, x, y)
        assert loss == 0.0
        for dw, db in grads:
            assert not dw.any()
            assert not db.any()

    def test_forward_matches_manual(self):
        w1 = np.array([[1.0, -1.0], [0.5, 0.5]])
        b1 = np.array([0.0, -1.0])
        w2 = np.array([[2.0, 3.0]])
        b2 = np.array([0.25])
        x = np.array([[1.0, 2.0]])
        h = np.maximum(x @ w1.T + b1, 0.0)  # [max(-1,0), max(0.5,0)] = [0, 0.5]
        expected = (h @ w2.T + b2)[0, 0]  # 3*0.5 + 0.25 = 1.75
        assert expected == 1.75
        assert forward([(w1, b1), (w2, b2)], x)[0] == 1.75


class TestTraining:
    def test_recovers_linear_function(self):
        data = make_dataset(400, seed=2, target_fn=lambda c: 2.0 * c["setpoint_c"])
        model = train(data, FX_SCHEMA, TrainConfig(epochs=1500, learning_rate=3e-3))
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = np.array(
                [rng.uniform(3.0, 8.0), rng.uniform(21.0, 29.0), rng.uniform(22.0, 38.0),
                 rng.uniform(50.0, 550.0), float(rng.integers(0, 4))]
            )
            assert predict(model, f) == pytest.approx(2.0 * f[0], rel=0.05)

    def test_validation_split_is_chronological(self):
        n = 10
        data = {c: np.arange(n, dtype=float) for c in
                ("setpoint_c", "zone_temp_c", "oa_temp_c", "oa_radiation_wm2", "occupancy",
                 "next_zone_temp_c", "next_cooling_rate_w")}
        model = train(data, FX_SCHEMA, TrainConfig(epochs=1, background_rows=4))
        assert model.meta["n_train"] == 8
        # Normalization statistics must come from the first 80% of rows only.
        assert model.norm.target_mean == pytest.approx(np.mean(np.arange(8.0)))

    def test_training_reduces_validation_error(self, fx_model):
        assert fx_model.meta["final_val_mse"] < fx_model.meta["initial_val_mse"]
        assert len(fx_model.meta["loss_curve"]) == fx_model.meta["epochs"]
        # Full-batch descent on this problem settles monotonically at the tail.
        curve = fx_model.meta["loss_curve"]
        assert curve[-1] < curve[0]

    def test_fixture_accuracy_sanity(self, fx_model, excitation):
        # Detailed accuracy gates live in the acceptance tests; here just pin
        # that the temperature model is far better than predicting the mean.
        x = np.column_stack([excitation[f.column] for f in FX_SCHEMA.features])
        y = excitation[FX_SCHEMA.target.column]
        n_val = round(len(y) * 0.2)
        pred = predict_batch(fx_model, x[-n_val:])
        rmse = float(np.sqrt(np.mean((pred - y[-n_val:]) ** 2)))
        assert rmse < 0.5

    def test_deterministic_given_seed(self):
        data = make_dataset(60, seed=4, target_fn=lambda c: c["zone_temp_c"])
        cfg = TrainConfig(epochs=50, background_rows=16)
        m1 = train(data, FX_SCHEMA, cfg)
        m2 = train(data, FX_SCHEMA, cfg)
        assert digest(m1) == digest(m2)
        m3 = train(data, FX_SCHEMA, TrainConfig(epochs=50, rng_seed=1, background_rows=16))
        assert digest(m1) != digest(m3)

    def test_rescaled_inputs_give_rescaled_model(self):
        # Scaling a feature column by 2 and shifting by 1 must not change
        # predictions on correspondingly transformed inputs: z-scoring makes
        # training invariant to affine input changes.
        data = make_dataset(120, seed=5, target_fn=lambda c: c["setpoint_c"] + 0.1 * c["oa_temp_c"])
        scaled = dict(data)
        scaled["oa_temp_c"] = 2.0 * data["oa_temp_c"] + 1.0
        cfg = TrainConfig(epochs=400, background_rows=16)
        m_orig = train(data, FX_SCHEMA, cfg)
        m_scaled = train(scaled, FX_SCHEMA, cfg)
        probe = np.array([5.0, 24.0, 30.0, 200.0, 1.0])
        probe_scaled = probe.copy()
        probe_scaled[2] = 2.0 * probe[2] + 1.0
        assert predict(m_scaled, probe_scaled) == pytest.approx(predict(m_orig, probe), rel=1e-5)

    def test_constant_column_does_not_break_standardization(self):
        data = make_dataset(40, seed=6, target_fn=lambda c: c["setpoint_c"])
        data["occupancy"] = np.full(40, 2.0)
        model = train(data, FX_SCHEMA, TrainConfig(epochs=30, background_rows=8))
        assert np.all(model.norm.stds > 0.0)
        assert np.isfinite(predict(model, np.array([5.0, 24.0, 30.0, 100.0, 2.0])))

    def test_dataset_too_small(self):
        data = make_dataset(4, seed=0, target_fn=lambda c: c["setpoint_c"])
        with pytest.raises(InvalidInputError):
            train(data, FX_SCHEMA, TrainConfig(epochs=1))

    def test_huge_learning_rate_raises_diverged(self):
        data = make_dataset(40, seed=7, target_fn=lambda c: c["setpoint_c"])
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingDivergedError) as info:
                train(data, FX_SCHEMA, TrainConfig(epochs=10, learning_rate=1e300))
        assert info.value.epoch == 1

    @pytest.mark.parametrize("column, value, message", [
        ("oa_temp_c", np.full(40, 1e308), "oa_temp_c cannot be standardized (mean inf"),
        ("zone_temp_c", np.r_[1e308, np.zeros(39)], "zone_temp_c cannot be standardized (mean"),
        ("next_zone_temp_c", np.r_[-1e308, np.zeros(39)],
         "next_zone_temp_c cannot be standardized (mean"),
        ("occupancy", np.r_[np.nan, np.zeros(39)], "occupancy cannot be standardized (mean nan"),
    ], ids=["all-oa-temp", "one-zone-temp", "one-target", "nan-occupancy"])
    def test_data_too_large_to_standardize_refused(self, column, value, message):
        data = make_dataset(40, seed=7, target_fn=lambda c: c["setpoint_c"])
        data[column] = value
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            train(data, FX_SCHEMA, TrainConfig(epochs=10))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=0)

    def test_negative_seed_rejected(self):
        data = make_dataset(40, seed=7, target_fn=lambda c: c["setpoint_c"])
        with pytest.raises(InvalidInputError, match="rng_seed must be >= 0, got -1"):
            train(data, FX_SCHEMA, TrainConfig(epochs=1, rng_seed=-1))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("learning_rate", -1.0),
            ("learning_rate", 0.0),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            # 0 would train a model that load refuses; -1 would fail inside numpy.
            ("background_rows", 0),
            ("background_rows", -1),
        ],
    )
    def test_optimizer_settings_validated(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            TrainConfig(**{name: value})

    def test_optimizer_settings_boundaries_accepted(self):
        assert TrainConfig(learning_rate=1e-12).learning_rate == 1e-12

    def test_one_background_row_loads(self, tmp_path):
        data = make_dataset(30, seed=8, target_fn=lambda c: c["setpoint_c"])
        save(train(data, FX_SCHEMA, TrainConfig(epochs=1, background_rows=1)), tmp_path / "m.json")
        assert background_of(load(tmp_path / "m.json")).shape == (1, 5)

    def test_background_sample(self, fx_model, excitation):
        bg = background_of(fx_model)
        assert bg.shape == (256, 5)
        # Every background row must be an actual training row.
        x = np.column_stack([excitation[f.column] for f in FX_SCHEMA.features])
        x_train = x[: fx_model.meta["n_train"]]
        for row in bg[::37]:
            assert (np.abs(x_train - row).sum(axis=1) < 1e-12).any()

    def test_background_missing(self):
        data = make_dataset(30, seed=8, target_fn=lambda c: c["setpoint_c"])
        model = train(data, FX_SCHEMA, TrainConfig(epochs=1, background_rows=8))
        model.meta = {k: v for k, v in model.meta.items() if k != "background"}
        with pytest.raises(InvalidInputError):
            background_of(model)


class TestPrediction:
    def test_single_matches_batch(self, fx_model):
        f = np.array([24.0, 25.0, 33.0, 400.0, 3.0])
        assert predict(fx_model, f) == predict_batch(fx_model, f[None, :])[0]

    def test_wrong_shape(self, fx_model):
        with pytest.raises(SchemaError):
            predict(fx_model, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(SchemaError):
            predict_batch(fx_model, np.ones((4, 3)))

    def test_non_finite_features(self, fx_model):
        bad = np.array([24.0, np.nan, 33.0, 400.0, 3.0])
        with pytest.raises(InvalidInputError):
            predict(fx_model, bad)

    @pytest.mark.parametrize("which", ["fx", "fy", "random"])
    def test_single_row_bit_equal_to_batch_row(self, which, fx_model, fy_model):
        rng = np.random.default_rng(41)
        model = {"fx": fx_model, "fy": fy_model, "random": random_model(rng)}[which]
        rows = model.norm.means + rng.normal(size=(2000, 5)) * 2.0 * model.norm.stds
        for f in rows:
            value = predict(model, f)
            assert type(value) is float
            assert value.hex() == float(predict_batch(model, f[None])[0]).hex()
        with pytest.raises(InvalidInputError, match="non-finite value in feature matrix"):
            predict(model, np.array([24.0, 25.0, np.inf, 400.0, 3.0]))


def expression_forward(layers, x):
    """``forward`` as plain expressions, each step in a fresh array."""
    (w1, b1), (w2, b2) = layers
    return (np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2)[:, 0]


def expression_loss_and_grads(layers, x, y):
    """``mse_loss_and_grads`` as plain expressions, each step in a fresh array."""
    n = x.shape[0]
    (w1, b1), (w2, b2) = layers
    z = x @ w1.T + b1
    h = np.maximum(z, 0.0)
    resid = (h @ w2.T + b2)[:, 0] - y
    d_out = (2.0 / n) * resid[:, None]
    d_z = (d_out @ w2) * (z > 0.0)
    grads = [(d_z.T @ x, d_z.sum(axis=0)), (d_out.T @ h, d_out.sum(axis=0))]
    return float(np.mean(resid**2)), grads


def expression_train(layers, xs, ys, cfg):
    """``surrogate._fit`` as a per-array Adam loop, each step in a fresh array."""
    moments = [[(np.zeros_like(a), np.zeros_like(a)) for a in layer] for layer in layers]
    beta1, beta2, eps = surrogate_mod.ADAM_BETA1, surrogate_mod.ADAM_BETA2, surrogate_mod.ADAM_EPS
    loss_curve = []
    for epoch in range(cfg.epochs):
        loss, grads = expression_loss_and_grads(layers, xs, ys)
        loss_curve.append(loss)
        t = epoch + 1
        bias1 = 1.0 - beta1**t
        bias2 = 1.0 - beta2**t
        new_layers = []
        for i, (layer, layer_grads) in enumerate(zip(layers, grads)):
            updated = []
            for j, (param, grad) in enumerate(zip(layer, layer_grads)):
                m, v = moments[i][j]
                m = beta1 * m + (1.0 - beta1) * grad
                v = beta2 * v + (1.0 - beta2) * grad**2
                moments[i][j] = (m, v)
                step_vec = cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + eps)
                updated.append(param - step_vec)
            new_layers.append(tuple(updated))
        layers = new_layers
    return layers, loss_curve


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def random_model(rng) -> SurrogateModel:
    layers = [
        (rng.normal(0.0, 0.6, size=(fan_out, fan_in)), rng.normal(0.0, 0.3, fan_out))
        for fan_in, fan_out in ((FX_SCHEMA.n_features, 50), (50, 1))
    ]
    norm = Normalization(
        means=rng.normal(25.0, 5.0, FX_SCHEMA.n_features),
        stds=rng.uniform(0.5, 100.0, FX_SCHEMA.n_features),
        target_mean=24.0,
        target_std=1.7,
    )
    return SurrogateModel(schema=FX_SCHEMA, layers=layers, norm=norm)


class TestInPlaceForward:
    """The numeric hot paths work in place without changing a single bit."""

    def test_forward_peak_is_one_hidden_buffer(self):
        # An 8,192-row forward (32 coalitions x 256 background rows, as a
        # callable attribution of a surrogate evaluates).  Working in place
        # keeps the traced peak near the one (8192, 50) hidden buffer; the
        # expression form peaks at two of them.
        rng = np.random.default_rng(0)
        layers = random_model(rng).layers
        x = rng.normal(size=(8192, 5))
        forward(layers, x)
        tracemalloc.start()
        try:
            forward(layers, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8192 * 50 * 8

    def test_bitwise_equal_to_expression_form(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        features = model.norm.means + model.norm.stds * rng.normal(size=(257, 5))
        z = rng.normal(size=(257, 5))
        y = rng.normal(size=257)

        assert_bitwise(forward(model.layers, z), expression_forward(model.layers, z))
        expected = (
            expression_forward(model.layers, (features - model.norm.means) / model.norm.stds)
            * model.norm.target_std
            + model.norm.target_mean
        )
        assert_bitwise(predict_batch(model, features), expected)
        loss, grads = mse_loss_and_grads(model.layers, z, y)
        ref_loss, ref_grads = expression_loss_and_grads(model.layers, z, y)
        assert loss == ref_loss
        for (dw, db), (ref_dw, ref_db) in zip(grads, ref_grads):
            assert_bitwise(dw, ref_dw)
            assert_bitwise(db, ref_db)

    def test_inputs_not_modified(self):
        rng = np.random.default_rng(11)
        model = random_model(rng)
        features = model.norm.means + model.norm.stds * rng.normal(size=(64, 5))
        z = rng.normal(size=(64, 5))
        y = rng.normal(size=64)
        params = [a for layer in model.layers for a in layer]
        watched = [features, z, y, model.norm.means, model.norm.stds, *params]
        before = [a.copy() for a in watched]

        forward(model.layers, z)
        predict_batch(model, features)
        mse_loss_and_grads(model.layers, z, y)

        for original, now in zip(before, watched):
            assert_bitwise(now, original)


class TestReusedTrainingBuffers:
    """Training epochs run in reused buffers without changing a single bit."""

    @pytest.mark.parametrize("schema", [FX_SCHEMA, FY_SCHEMA], ids=["fx", "fy"])
    def test_model_bytes_equal_to_expression_form(self, excitation, monkeypatch, schema):
        cfg = TrainConfig(epochs=200, learning_rate=3e-3)
        model = train(excitation, schema, cfg)
        monkeypatch.setattr(surrogate_mod, "_fit", expression_train)
        reference = train(excitation, schema, cfg)
        assert json.dumps(model_to_json(model)) == json.dumps(model_to_json(reference))

    @seed(0)
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(5, 700), epochs=st.sampled_from([1, 2, 5]),
           data_seed=st.integers(0, 2**32 - 1))
    # Past OpenBLAS's small-matrix size: a (50, 6, n) product blocks its row
    # sums from n = 3334 on, and a (50, 5, n) one from n = 4001.
    @example(n=3334, epochs=2, data_seed=1)
    @example(n=4001, epochs=2, data_seed=2)
    def test_fit_bitwise_equal_to_expression_form(self, n, epochs, data_seed):
        rng = np.random.default_rng(data_seed)
        xs, ys = rng.normal(size=(n, 5)), rng.normal(size=n)
        layers = surrogate_mod._init_layers(5, rng)
        cfg = TrainConfig(epochs=epochs, learning_rate=3e-3)
        fitted, curve = surrogate_mod._fit(layers, xs, ys, cfg)
        reference, ref_curve = expression_train(layers, xs, ys, cfg)
        assert [loss.hex() for loss in curve] == [loss.hex() for loss in ref_curve]
        for (w, b), (ref_w, ref_b) in zip(fitted, reference):
            assert_bitwise(w, ref_w)
            assert_bitwise(b, ref_b)

    def test_epochs_do_not_page_fault(self):
        # Fixture-size data gives (595, 50) hidden buffers.  Allocated afresh
        # every epoch they cost ~140 minor page faults per epoch; reused, a
        # whole fit takes fewer faults than it has epochs.  A fresh
        # interpreter, because earlier large frees in this one raise glibc's
        # mmap threshold and hide the churn.
        epochs = 2000
        code = textwrap.dedent(f"""
            import resource
            from xmpc.surrogate import FY_SCHEMA, TrainConfig, train
            from xmpc.testbed import TestbedConfig, run_excitation
            data = run_excitation(31, TestbedConfig(), seed=42)
            train(data, FY_SCHEMA, TrainConfig(epochs=2))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(data, FY_SCHEMA, TrainConfig(epochs={epochs}, learning_rate=3e-3))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(surrogate_mod.__file__).parents[1])
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < epochs


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path, fy_model):
        path = tmp_path / "fy.json"
        save(fy_model, path)
        loaded = load(path)
        probe = np.array([[23.0, 26.0, 34.0, 500.0, 3.0], [26.0, 24.0, 28.0, 0.0, 0.0]])
        assert np.array_equal(predict_batch(loaded, probe), predict_batch(fy_model, probe))
        assert digest(loaded) == digest(fy_model)
        assert loaded.schema == fy_model.schema
        assert loaded.meta["epochs"] == fy_model.meta["epochs"]

    def test_save_twice_identical_bytes(self, tmp_path, fx_model):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(fx_model, p1)
        save(fx_model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_replaces_file_atomically(self, tmp_path, fx_model, fy_model):
        # The new content goes to a temporary file renamed over the target, so
        # a reader holding the old file (here a hard link) keeps it whole.
        path = tmp_path / "model.json"
        save(fx_model, path)
        before = path.read_bytes()
        os.link(path, tmp_path / "reader.json")
        save(fy_model, path)
        assert (tmp_path / "reader.json").read_bytes() == before
        assert digest(load(path)) == digest(fy_model)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "reader.json"]

    def test_truncated_file(self, tmp_path, fx_model):
        path = tmp_path / "model.json"
        save(fx_model, path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(DeserializationError):
            load(path)

    def test_missing_field(self, tmp_path, fx_model):
        path = tmp_path / "model.json"
        payload = model_to_json(fx_model)
        del payload["norm"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DeserializationError, match="norm"):
            load(path)

    def test_inconsistent_layer_shapes(self, tmp_path, fx_model):
        path = tmp_path / "model.json"
        payload = model_to_json(fx_model)
        payload["layers"][0]["b"] = payload["layers"][0]["b"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(DeserializationError, match=re.escape(
            "shapes [((50, 5), (49,)), ((1, 50), (1,))] are not the fixed network's "
            "[((50, 5), (50,)), ((1, 50), (1,))]"
        )):
            load(path)

    def test_hidden_layer_must_be_finite_on_the_background(self, tmp_path, fx_model):
        # One huge finite weight on a feature whose standardized background
        # reaches past 1.8 overflows a hidden unit there.
        path = tmp_path / "model.json"
        payload = model_to_json(fx_model)
        z = (background_of(fx_model) - fx_model.norm.means) / fx_model.norm.stds
        feature = int(np.abs(z).max(axis=0).argmax())
        assert np.abs(z[:, feature]).max() > 1.8
        payload["layers"][0]["w"][5][feature] = -1e308
        path.write_text(json.dumps(payload))
        with pytest.raises(DeserializationError, match=re.escape(
            "the hidden layer's pre-activations on meta.background are not finite"
        )):
            load(path)

    def test_hidden_width_must_be_fifty(self, tmp_path, fx_model):
        # A consistent net of 30 hidden units is still not the fixed design.
        path = tmp_path / "model.json"
        payload = model_to_json(fx_model)
        hidden, output = payload["layers"]
        hidden["w"], hidden["b"] = hidden["w"][:30], hidden["b"][:30]
        output["w"] = [row[:30] for row in output["w"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(DeserializationError, match=re.escape(
            "shapes [((30, 5), (30,)), ((1, 30), (1,))] are not the fixed network's"
        )):
            load(path)

    def test_output_width_must_be_one(self, tmp_path, fx_model):
        path = tmp_path / "model.json"
        payload = model_to_json(fx_model)
        last = payload["layers"][-1]
        last["w"] = last["w"] * 2  # duplicate the output row -> width 2
        last["b"] = last["b"] * 2
        path.write_text(json.dumps(payload))
        with pytest.raises(DeserializationError, match=re.escape("((2, 50), (2,))]")):
            load(path)

    def test_file_names_its_target(self, fx_model, fy_model):
        # The schema and network shape are code; the file says which schema it fits.
        for model, target in ((fx_model, "fx"), (fy_model, "fy")):
            payload = model_to_json(model)
            assert list(payload) == ["target", "layers", "norm", "meta"]
            assert payload["target"] == target
            assert "hidden_dim" not in payload["meta"] and "hidden_layers" not in payload["meta"]

    @pytest.mark.parametrize("n_layers", [0, 1, 3])
    def test_only_one_hidden_layer_loads(self, tmp_path, fx_model, n_layers):
        path = tmp_path / "model.json"
        payload = model_to_json(fx_model)
        hidden, output = payload["layers"]
        payload["layers"] = [hidden, hidden, output][3 - n_layers :]
        path.write_text(json.dumps(payload))
        with pytest.raises(DeserializationError, match="'layers' must list 2 layers"):
            load(path)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("norm", "means", [0.0], r"norm means shape \(1,\)"),
            ("norm", "stds", [1.0, 1.0, 0.0, 1.0, 1.0], "stds > 0"),
            ("norm", "stds", [1.0, 1.0, math.nan, 1.0, 1.0], "stds > 0"),
            ("norm", "target_std", -1.0, "stds > 0"),
            ("norm", "target_mean", math.inf, "must be finite"),
            ("norm", "target_std", "1.7", "target_std must be a finite number, got '1.7'"),
            ("norm", "target_mean", True, "target_mean must be a finite number, got True"),
            ("norm", "stds", [1.0, 1.0, "1.0", 1.0, 1.0], "stds must be a finite number"),
            (None, "meta", [], "'meta' must be a JSON object"),
            ("meta", "background", None, "meta.background must be a finite"),
            ("meta", "background", [], "meta.background must be a finite"),
            ("meta", "background", [[1.0, 2.0], [3.0]], "meta.background must be a finite"),
            ("meta", "background", [["26.0", 30.0, 0.0, 0.0, 0.0]],
             "meta.background must be a finite"),
            (None, "target", "fz", r"target must be one of \['fx', 'fy'\], got 'fz'"),
            (None, "target", ["fx"], "target must be one of"),
            (None, "target", None, "target must be one of"),
        ],
        ids=["short-means", "zero-std", "nan-std", "negative-target-std", "inf-target-mean",
             "string-target-std", "bool-target-mean", "string-std",
             "meta-array", "no-background", "empty-background", "ragged-background",
             "string-background",
             "unknown-target", "list-target", "null-target"],
    )
    def test_malformed_norm_or_meta_rejected(self, tmp_path, fx_model, section, key, value, message):
        path = tmp_path / "model.json"
        payload = json.loads(json.dumps(model_to_json(fx_model)))  # a copy: meta is the model's
        (payload[section] if section else payload)[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DeserializationError, match=message):
            load(path)

    @pytest.mark.parametrize("value", ["0.5", False, 10**400], ids=["string", "bool", "too-big"])
    def test_weight_must_be_a_json_number(self, tmp_path, fx_model, value):
        # float() and numpy read "0.5" and False as numbers; a model file holds JSON numbers.
        path = tmp_path / "model.json"
        payload = model_to_json(fx_model)
        payload["layers"][0]["w"][3][1] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DeserializationError, match="weight must be a finite number"):
            load(path)

    def test_non_finite_weight_rejected(self, tmp_path, fx_model):
        path = tmp_path / "model.json"
        payload = model_to_json(fx_model)
        payload["layers"][1]["w"][0][7] = math.nan
        path.write_text(json.dumps(payload))
        with pytest.raises(DeserializationError, match="non-finite layer weight"):
            load(path)
