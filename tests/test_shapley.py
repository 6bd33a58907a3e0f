"""Attribution engine: exact enumeration and the axioms."""

from __future__ import annotations

import importlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmpc.errors import InvalidInputError, SchemaError
from xmpc.hub import TimestepRecord
from xmpc.shapley import (
    MAX_EXACT_FEATURES,
    Attribution,
    coalition_weight,
    shapley,
    verify_additivity,
)
from xmpc.surrogate import (
    FX_SCHEMA,
    SCHEMAS,
    Normalization,
    SurrogateModel,
    background_of,
    predict_batch,
)


def coalition_value(fn, instance, background, members) -> float:
    """Independent restatement of v(S) for oracle use."""
    hybrid = np.array(background, dtype=float, copy=True)
    for i in members:
        hybrid[:, i] = instance[i]
    return float(np.mean(fn(hybrid)))


def permutation_oracle(fn, instance, background) -> np.ndarray:
    """Average marginal contribution over every one of the n! orderings.

    This is the permutation form of the attribution, implemented without any
    of the library's bitmask machinery, so agreement with shapley() checks
    the coalition-sum formula against a genuinely different computation.
    """
    n = len(instance)
    phi = np.zeros(n)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        members: list[int] = []
        prev = coalition_value(fn, instance, background, members)
        for i in perm:
            members.append(i)
            cur = coalition_value(fn, instance, background, members)
            phi[i] += cur - prev
            prev = cur
    return phi / len(perms)


def nonlinear_fn(x: np.ndarray) -> np.ndarray:
    return x[:, 0] * x[:, 1] + np.maximum(x[:, 2] - 0.5, 0.0) ** 2 + 0.3 * x[:, 3] - x[:, 4]


def assert_matches_callable(model, instances, background) -> None:
    """The closed form on a batch agrees with ``predict_batch`` attributed as a callable."""
    oracle = lambda x: predict_batch(model, x)
    batch = shapley(model, instances, background)
    assert len(batch) == len(instances)
    for fast, instance in zip(batch, instances):
        slow = shapley(oracle, instance, background)
        scale = 1e-12 * max(1.0, abs(slow.prediction))
        assert np.max(np.abs(fast.shapley_values - slow.shapley_values)) <= scale
        assert abs(fast.base_value - slow.base_value) <= scale
        assert abs(fast.prediction - slow.prediction) <= scale


class TestCoalitionWeight:
    def test_n4_exact_fractions(self):
        assert coalition_weight(0, 4) == pytest.approx(1.0 / 4.0, rel=1e-15)
        assert coalition_weight(1, 4) == pytest.approx(1.0 / 12.0, rel=1e-15)
        assert coalition_weight(2, 4) == pytest.approx(1.0 / 12.0, rel=1e-15)
        assert coalition_weight(3, 4) == pytest.approx(1.0 / 4.0, rel=1e-15)

    @given(n=st.integers(1, 12))
    @settings(deadline=None)
    def test_weights_sum_to_one_over_coalitions(self, n):
        total = sum(math.comb(n - 1, s) * coalition_weight(s, n) for s in range(n))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidInputError):
            coalition_weight(4, 4)
        with pytest.raises(InvalidInputError):
            coalition_weight(-1, 4)
        with pytest.raises(InvalidInputError):
            coalition_weight(0, 0)


class TestExact:
    def test_linear_model_closed_form(self):
        # For f(x) = w.x + c the attribution has the closed form
        # phi_i = w_i * (x_i - mean(background_i)).
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.normal(size=5)
            c = rng.normal()
            fn = lambda x, w=w, c=c: x @ w + c
            instance = rng.normal(size=5)
            background = rng.normal(size=(16, 5))
            attr = shapley(fn, instance, background)
            expected = w * (instance - background.mean(axis=0))
            assert np.allclose(attr.shapley_values, expected, atol=1e-9)
            assert attr.base_value == pytest.approx(float(np.mean(fn(background))), rel=1e-12)
            assert attr.prediction == pytest.approx(float(fn(instance[None, :])[0]), rel=1e-12)

    def test_matches_permutation_oracle_nonlinear(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            instance = rng.normal(size=5)
            background = rng.normal(size=(8, 5))
            attr = shapley(nonlinear_fn, instance, background)
            oracle = permutation_oracle(nonlinear_fn, instance, background)
            assert np.allclose(attr.shapley_values, oracle, atol=1e-9)

    def test_two_feature_hand_worked(self):
        # f = x0 * x1, instance (3, 4), single background row (1, 2).
        # v({}) = 2, v({0}) = 6, v({1}) = 4, v({0,1}) = 12.
        # phi_0 = ((6-2) + (12-4)) / 2 = 6; phi_1 = ((4-2) + (12-6)) / 2 = 4.
        fn = lambda x: x[:, 0] * x[:, 1]
        attr = shapley(fn, np.array([3.0, 4.0]), np.array([[1.0, 2.0]]))
        assert attr.shapley_values == pytest.approx([6.0, 4.0], rel=1e-12)
        assert attr.base_value == 2.0
        assert attr.prediction == 12.0

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        instance = rng.normal(size=5)
        background = rng.normal(size=(12, 5))
        a = shapley(nonlinear_fn, instance, background)
        b = shapley(nonlinear_fn, instance, background)
        assert np.array_equal(a.shapley_values, b.shapley_values)
        assert a.base_value == b.base_value

    def test_feature_count_guard(self):
        n = MAX_EXACT_FEATURES + 1
        fn = lambda x: x.sum(axis=1)
        with pytest.raises(InvalidInputError, match="exact-enumeration guard"):
            shapley(fn, np.zeros(n), np.zeros((2, n)))

    def test_input_validation(self):
        fn = lambda x: x.sum(axis=1)
        with pytest.raises(SchemaError):
            shapley(fn, np.zeros((2, 2, 2)), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            shapley(fn, np.array([[0.0, 1.0], [np.nan, 1.0]]), np.zeros((2, 2)))
        with pytest.raises(SchemaError):
            shapley(fn, np.zeros(3), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            shapley(fn, np.array([np.nan, 1.0]), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            shapley(fn, np.zeros(2), np.zeros((0, 2)))
        with pytest.raises(InvalidInputError, match="cannot attribute over object; need model"):
            shapley(object(), np.zeros(2), np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_background_rejected(self, bad):
        # A plain callable has no finiteness check of its own, so without the
        # guard the bad row would average into every coalition value.
        fn = lambda x: x.sum(axis=1)
        background = np.zeros((4, 3))
        background[2, 1] = bad
        with pytest.raises(InvalidInputError, match="background"):
            shapley(fn, np.ones(3), background)

    def test_names_default_and_override(self, fx_model):
        fn = lambda x: x.sum(axis=1)
        assert shapley(fn, np.zeros(2), np.ones((1, 2))).feature_names == ("f0", "f1")
        # A surrogate's schema names its features, so a narrower instance is refused.
        with pytest.raises(SchemaError):
            shapley(fx_model, np.zeros(4), np.ones((1, 4)))

    def test_surrogate_path_matches_predict_batch_callable(self, fx_model, fy_model):
        # The closed form sums each hidden unit over the sorted background and
        # folds the output bias and unscaling into the coalition means;
        # against the plain x-space path that moves values at round-off level
        # only, one instance at a time or all 200 in one batch.
        rng = np.random.default_rng(14)
        for model in (fx_model, fy_model):
            background = background_of(model)
            oracle = lambda x, model=model: predict_batch(model, x)
            instances = [background[row] * rng.uniform(0.9, 1.1, size=5)
                         for row in rng.choice(len(background), size=200)]
            batch = shapley(model, np.array(instances), background)
            for instance, whole in zip(instances, batch):
                fast, slow = shapley(model, instance, background), shapley(oracle, instance, background)
                scale = 1e-12 * max(1.0, abs(slow.prediction))
                for attr in (fast, whole):
                    assert np.max(np.abs(attr.shapley_values - slow.shapley_values)) <= scale
                    assert abs(attr.base_value - slow.base_value) <= scale
                    assert abs(attr.prediction - slow.prediction) <= scale

    def test_surrogate_feature_pinned_in_background_gets_zero(self, fy_model):
        background = background_of(fy_model).copy()
        background[:, 4] = 3.0
        instance = np.array([23.0, 26.0, 34.0, 450.0, 3.0])
        attr = shapley(fy_model, instance, background)
        assert attr.shapley_values[4] == 0.0
        assert np.all(attr.shapley_values[:4] != 0.0)

    def test_surrogate_model_input(self, fx_model):
        background = background_of(fx_model)[:32]
        instance = np.array([23.0, 26.0, 34.0, 450.0, 3.0])
        attr = shapley(fx_model, instance, background)
        assert attr.feature_names == fx_model.schema.feature_names
        ok, residual = verify_additivity(attr)
        assert ok
        assert residual < 1e-9


class TestAxioms:
    def test_dummy_feature_gets_zero(self):
        fn = lambda x: x[:, 0] ** 2 + 3.0 * x[:, 2]  # ignores features 1, 3
        rng = np.random.default_rng(3)
        attr = shapley(fn, rng.normal(size=4), rng.normal(size=(8, 4)))
        assert attr.shapley_values[1] == 0.0
        assert attr.shapley_values[3] == 0.0

    def test_symmetry(self):
        fn = lambda x: x[:, 0] + x[:, 1] + 0.5 * x[:, 0] * x[:, 1] + x[:, 2] ** 2
        instance = np.array([1.7, 1.7, 0.3])
        rng = np.random.default_rng(4)
        col = rng.normal(size=8)
        background = np.column_stack([col, col, rng.normal(size=8)])
        attr = shapley(fn, instance, background)
        assert attr.shapley_values[0] == pytest.approx(attr.shapley_values[1], abs=1e-12)

    def test_linearity(self):
        f = lambda x: x[:, 0] * x[:, 1] + x[:, 2]
        g = lambda x: np.maximum(x[:, 0], 0.0) - x[:, 2] ** 2
        combo = lambda x: 2.0 * f(x) + 5.0 * g(x)
        rng = np.random.default_rng(5)
        instance = rng.normal(size=3)
        background = rng.normal(size=(10, 3))
        phi_f = shapley(f, instance, background).shapley_values
        phi_g = shapley(g, instance, background).shapley_values
        phi_combo = shapley(combo, instance, background).shapley_values
        assert np.allclose(phi_combo, 2.0 * phi_f + 5.0 * phi_g, atol=1e-9)

    def test_efficiency_random_functions(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            instance = rng.normal(size=5)
            background = rng.normal(size=(6, 5))
            attr = shapley(nonlinear_fn, instance, background)
            ok, residual = verify_additivity(attr)
            assert ok
            assert residual <= 1e-10 * max(1.0, abs(attr.prediction)) + 1e-12


class TestCoalitionBatching:
    @pytest.mark.parametrize("rows", [1, 5, 24])
    def test_chunked_calls_match_single_call(self, rows):
        # One call per coalition, in mask order, of the background's rows with
        # the coalition's columns pinned to the instance; their means are what
        # one call over all 64 * rows hybrids gives.
        fn = lambda x: x[:, 0] * x[:, 5] + np.sin(x[:, 1]) - x[:, 2] * x[:, 3] ** 2 + x[:, 4]
        rng = np.random.default_rng(11)
        instance = rng.normal(size=6)
        background = rng.normal(size=(rows, 6))
        calls: list[np.ndarray] = []
        spy = lambda x: calls.append(x.copy()) or fn(x)
        got = shapley(spy, instance, background)
        assert [len(x) for x in calls] == [rows] * 64
        for mask, hybrids in enumerate(calls):
            pinned = np.array([mask >> i & 1 for i in range(6)], dtype=bool)
            assert np.array_equal(hybrids, np.where(pinned, instance, background))
        means = fn(np.concatenate(calls)).reshape(64, rows).mean(axis=1)
        assert (got.base_value, got.prediction) == (means[0], means[-1])

    def test_surrogate_attribution_peak_memory(self, fy_model):
        import tracemalloc

        background = background_of(fy_model)
        instance = np.array([23.0, 26.0, 34.0, 450.0, 3.0])
        shapley(fy_model, instance, background)
        tracemalloc.start()
        try:
            shapley(fy_model, instance, background)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One coalition's sorted table at a time: (50, 512) float64 values and
        # (50, 257) long-double suffix sums, about 0.4 MB together.
        assert peak < 1.5e6


class TestClosedForm:
    """The sorted-background closed form that attributes a surrogate."""

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_rows_independent_of_batch_position_and_block(self, fx_model, fy_model, data):
        model = data.draw(st.sampled_from([fx_model, fy_model]))
        background = background_of(model)
        m = data.draw(st.integers(1, 24))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        instances = background[rng.choice(len(background), size=m)] * rng.uniform(0.9, 1.1, (m, 5))
        alone = [shapley(model, instance, background) for instance in instances]
        order = data.draw(st.permutations(range(m)))
        for block in (1, 7, m):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(importlib.import_module("xmpc.shapley"), "_BLOCK_ROWS", block)
                batch = shapley(model, instances[order], background)
            for attr, i in zip(batch, order):
                assert np.array_equal(attr.feature_values, instances[i])
                assert attr.shapley_values.tobytes() == alone[i].shapley_values.tobytes()
                assert (attr.base_value, attr.prediction) == (alone[i].base_value, alone[i].prediction)

    def test_pinned_background_columns_tie_the_sorted_values(self, fy_model):
        background = background_of(fy_model).copy()
        background[:, 1] = 25.0
        background[:, 3] = 450.0
        rng = np.random.default_rng(15)
        instances = background[rng.choice(len(background), size=20)] * rng.uniform(0.9, 1.1, (20, 5))
        assert_matches_callable(fy_model, instances, background)

    def test_instance_on_a_relu_kink(self):
        # Integer weights and inputs make u + v_b exactly 0 for some rows.
        rng = np.random.default_rng(16)
        model = SurrogateModel(
            schema=FX_SCHEMA,
            layers=[(rng.integers(-1, 2, (50, 5)).astype(float), rng.integers(-2, 3, 50).astype(float)),
                    (rng.integers(-3, 4, (1, 50)).astype(float), np.array([1.0]))],
            norm=Normalization(means=np.zeros(5), stds=np.ones(5), target_mean=24.0, target_std=2.0),
        )
        background = rng.integers(-2, 3, (16, 5)).astype(float)
        instances = rng.integers(-2, 3, (10, 5)).astype(float)
        (w1, b1), _ = model.layers
        members = (np.arange(32)[:, None] >> np.arange(5) & 1).astype(bool)
        for instance in instances:
            hybrids = np.where(members[:, None, :], instance, background[None, :, :])
            assert np.any(hybrids @ w1.T + b1 == 0.0)
        assert_matches_callable(model, instances, background)

    def test_instance_part_beyond_the_float_range(self):
        # A huge finite weight can put an instance's pre-activation, held in
        # long double, below -DBL_MAX while every background row's stays
        # finite; the search then compares against +inf and must stop at the
        # background's end, not in the padding past it.
        model = SurrogateModel(
            schema=FX_SCHEMA,
            layers=[(np.eye(50, 5) * [-1e308, 1.0, 1.0, 1.0, 1.0], np.zeros(50)),
                    (np.ones((1, 50)), np.array([0.0]))],
            norm=Normalization(means=np.zeros(5), stds=np.ones(5), target_mean=0.0, target_std=1.0),
        )
        background = np.linspace(-0.5, 0.5, 10)[:, None] * np.ones(5)
        instance = np.array([4.0, 1.0, 2.0, 3.0, 0.5])
        with np.errstate(over="ignore"):
            slow = shapley(lambda x: predict_batch(model, x), instance, background)
            attr = shapley(model, instance, background)
        # Unit 0 is off on every hybrid that pins the first feature.
        assert attr.prediction == slow.prediction == 6.5
        assert attr.base_value == pytest.approx(slow.base_value, rel=1e-12)
        assert np.allclose(attr.shapley_values, slow.shapley_values, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rows", [1, 7, 255])
    def test_background_sizes_off_a_power_of_two(self, fx_model, fy_model, rows):
        rng = np.random.default_rng(rows)
        for model in (fx_model, fy_model):
            background = background_of(model)[:rows]
            instances = background_of(model)[rng.choice(256, size=10)] * rng.uniform(0.9, 1.1, (10, 5))
            assert_matches_callable(model, instances, background)


class TestVerifyAdditivity:
    def test_published_cooling_example(self):
        # Worked cooling-rate decomposition: the stated prediction differs
        # from the exact sum by ~1.3e-5, inside the relative tolerance.
        attr = Attribution(
            feature_names=("oa_temp", "oa_radiation", "zone_temp", "zone_clg_tstat", "zone_occ"),
            feature_values=np.zeros(5),
            shapley_values=np.array([680.369781, 33.052102, 18.838554, -113.826475, -98.523013]),
            base_value=1544.673602,
            prediction=2064.584564,
        )
        ok, residual = verify_additivity(attr)
        assert ok
        assert residual == pytest.approx(1.3e-5, abs=5e-6)

    def test_small_magnitude_example(self):
        attr = Attribution(
            feature_names=("a", "b", "c", "d"),
            feature_values=np.zeros(4),
            shapley_values=np.array([0.4, -0.3, 0.1, 0.1]),
            base_value=0.1,
            prediction=0.4,
        )
        ok, residual = verify_additivity(attr)
        assert ok
        assert residual < 1e-12

    def test_violation_detected(self):
        attr = Attribution(
            feature_names=("a",),
            feature_values=np.zeros(1),
            shapley_values=np.array([1.0]),
            base_value=0.0,
            prediction=5.0,
        )
        ok, residual = verify_additivity(attr)
        assert not ok
        assert residual == pytest.approx(4.0)


class TestSerialization:
    """An attribution as an episode record holds it, through ``hub``'s episode codec."""

    @staticmethod
    def decode(episode, data):
        """Record 5's line ``data`` decoded with the header parts around it."""
        base_values = {role: episode.records[0].attributions[f"{role}_t1"].base_value
                       for role in ("fx", "fy")}
        return TimestepRecord.from_json(data, 5, episode.calendar, base_values,
                                        episode.records[6].disturbance)

    def test_json_roundtrip(self, mini_episode):
        record = mini_episode.records[5]
        data = json.loads(json.dumps(record.to_json()))
        # The JSON holds phi alone: the names come from the model schema, and
        # the values, the base value and the prediction from the episode that
        # holds the attribution.
        for key, attr in record.attributions.items():
            assert data["attributions"][key] == {"phi": attr.shapley_values.tolist()}
        back = self.decode(mini_episode, data)
        for key, attr in record.attributions.items():
            got = back.attributions[key]
            assert got.feature_names == attr.feature_names == SCHEMAS[key[:2]].feature_names
            assert np.array_equal(got.feature_values, attr.feature_values)
            assert np.array_equal(got.shapley_values, attr.shapley_values)
            assert got.base_value == attr.base_value
            assert got.prediction == attr.prediction

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.update(values=[0.0] * 5), "unexpected or missing keys ['values']"),
        (lambda data: data["phi"].append(0.0), "phi must list 5 numbers"),
        (lambda data: data.update(phi=1.0), "phi must list 5 numbers"),
        (lambda data: data["phi"].__setitem__(2, "0.5"), "phi must be a finite number, got '0.5'"),
        (lambda data: data["phi"].__setitem__(0, True), "phi must be a finite number, got True"),
        (lambda data: data.update(base_value=float("nan")), "unexpected or missing keys ['base_value']"),
        (lambda data: data.update(prediction=None), "unexpected or missing keys ['prediction']"),
    ], ids=["values-stored", "phi-long", "phi-scalar", "phi-string", "phi-bool", "base-nan",
            "prediction-null"])
    def test_from_json_refuses_malformed_numbers(self, mini_episode, edit, message):
        data = json.loads(json.dumps(mini_episode.records[5].to_json()))
        edit(data["attributions"]["fx_t1"])
        with pytest.raises(ValueError, match=re.escape(message)):
            self.decode(mini_episode, data)
