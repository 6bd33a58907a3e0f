"""Attribution engine: exact enumeration, sampling estimator, and the axioms."""

from __future__ import annotations

import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmpc.errors import InvalidInputError, SchemaError
from xmpc.shapley import (
    MAX_EXACT_FEATURES,
    Attribution,
    coalition_weight,
    shapley,
    shapley_sampled,
    value_of,
    verify_additivity,
)
from xmpc.surrogate import background_of


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


class TestValueOf:
    def test_empty_and_full_coalitions(self):
        fn = lambda x: x[:, 0] + 10.0 * x[:, 1]
        instance = np.array([1.0, 2.0])
        background = np.array([[0.0, 0.0], [2.0, 1.0]])
        assert value_of(fn, instance, background, []) == pytest.approx(
            np.mean(fn(background)), rel=1e-12
        )
        assert value_of(fn, instance, background, [0, 1]) == pytest.approx(21.0, rel=1e-12)

    def test_partial_coalition(self):
        fn = lambda x: x[:, 0] + 10.0 * x[:, 1]
        instance = np.array([1.0, 2.0])
        background = np.array([[0.0, 0.0], [2.0, 1.0]])
        # Feature 0 pinned to 1.0, feature 1 averaged over {0, 1} -> 1 + 10*0.5.
        assert value_of(fn, instance, background, [0]) == pytest.approx(6.0, rel=1e-12)

    def test_subset_out_of_range(self):
        fn = lambda x: x[:, 0]
        with pytest.raises(InvalidInputError):
            value_of(fn, np.array([1.0]), np.zeros((2, 1)), [1])


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
        with pytest.raises(InvalidInputError, match="shapley_sampled"):
            shapley(fn, np.zeros(n), np.zeros((2, n)))

    def test_input_validation(self):
        fn = lambda x: x.sum(axis=1)
        with pytest.raises(SchemaError):
            shapley(fn, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(SchemaError):
            shapley(fn, np.zeros(3), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            shapley(fn, np.array([np.nan, 1.0]), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            shapley(fn, np.zeros(2), np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda fn, x, bg: shapley(fn, x, bg),
            lambda fn, x, bg: shapley_sampled(fn, x, bg, n_permutations=4),
            lambda fn, x, bg: value_of(fn, x, bg, [0]),
        ],
        ids=["shapley", "shapley_sampled", "value_of"],
    )
    def test_non_finite_background_rejected(self, entry, bad):
        # A plain callable has no finiteness check of its own, so without the
        # guard the bad row would average into every coalition value.
        fn = lambda x: x.sum(axis=1)
        background = np.zeros((4, 3))
        background[2, 1] = bad
        with pytest.raises(InvalidInputError, match="background"):
            entry(fn, np.ones(3), background)

    def test_names_default_and_override(self):
        fn = lambda x: x.sum(axis=1)
        attr = shapley(fn, np.zeros(2), np.ones((1, 2)))
        assert attr.feature_names == ("f0", "f1")
        attr = shapley(fn, np.zeros(2), np.ones((1, 2)), feature_names=("a", "b"))
        assert attr.feature_names == ("a", "b")
        with pytest.raises(SchemaError):
            shapley(fn, np.zeros(2), np.ones((1, 2)), feature_names=("only_one",))

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


class TestSampled:
    def test_full_enumeration_equals_exact(self):
        rng = np.random.default_rng(7)
        instance = rng.normal(size=4)
        background = rng.normal(size=(6, 4))
        exact = shapley(nonlinear_fn_4 := (lambda x: x[:, 0] * x[:, 1] - x[:, 2] + x[:, 3] ** 2),
                        instance, background)
        sampled = shapley_sampled(nonlinear_fn_4, instance, background, n_permutations=24)
        assert np.allclose(sampled.shapley_values, exact.shapley_values, atol=1e-9)
        assert sampled.method == "sampled"
        assert exact.method == "exact"

    def test_two_features_both_orderings(self):
        fn = lambda x: x[:, 0] * x[:, 1]
        instance = np.array([3.0, 4.0])
        background = np.array([[1.0, 2.0]])
        sampled = shapley_sampled(fn, instance, background, n_permutations=2)
        assert sampled.shapley_values == pytest.approx([6.0, 4.0], rel=1e-12)

    def test_seeded_sampling_reproducible(self):
        rng = np.random.default_rng(8)
        instance = rng.normal(size=6)
        background = rng.normal(size=(4, 6))
        a = shapley_sampled(nonlinear_fn_6 := (lambda x: x[:, 0] * x[:, 5] + x[:, 3]),
                            instance, background, n_permutations=50, seed=1)
        b = shapley_sampled(nonlinear_fn_6, instance, background, n_permutations=50, seed=1)
        c = shapley_sampled(nonlinear_fn_6, instance, background, n_permutations=50, seed=2)
        assert np.array_equal(a.shapley_values, b.shapley_values)
        assert not np.array_equal(a.shapley_values, c.shapley_values)

    def test_sampled_dummy_feature_zero(self):
        fn = lambda x: x[:, 0]
        attr = shapley_sampled(fn, np.array([1.0, 9.0]), np.zeros((3, 2)), n_permutations=7, seed=0)
        assert attr.shapley_values[1] == 0.0

    def test_estimate_converges(self):
        rng = np.random.default_rng(9)
        instance = rng.normal(size=5)
        background = rng.normal(size=(6, 5))
        exact = shapley(nonlinear_fn, instance, background)
        est = shapley_sampled(nonlinear_fn, instance, background, n_permutations=120)
        # n=5 -> 120 = 5!, so the sampler enumerates and matches exactly.
        assert np.allclose(est.shapley_values, exact.shapley_values, atol=1e-9)

    def test_invalid_permutation_count(self):
        with pytest.raises(InvalidInputError):
            shapley_sampled(lambda x: x[:, 0], np.zeros(2), np.zeros((1, 2)), n_permutations=0)


class TestCoalitionBatching:
    @pytest.mark.parametrize("per_call", [1, 5, 24])
    def test_chunked_calls_match_single_call(self, monkeypatch, per_call):
        fn = lambda x: x[:, 0] * x[:, 5] + np.sin(x[:, 1]) - x[:, 2] * x[:, 3] ** 2 + x[:, 4]
        rng = np.random.default_rng(11)
        instance = rng.normal(size=6)
        background = rng.normal(size=(9, 6))
        whole = [shapley(fn, instance, background),
                 shapley_sampled(fn, instance, background, n_permutations=40, seed=3)]
        # Room for per_call coalitions of 9 rows, but not one more.
        monkeypatch.setattr(importlib.import_module("xmpc.shapley"), "_BATCH_ROW_LIMIT",
                            per_call * 9 + 8)
        sizes: list[int] = []
        spy = lambda x: sizes.append(len(x)) or fn(x)
        chunked = [shapley(spy, instance, background)]
        assert len(sizes) == -(-64 // per_call)
        assert sum(sizes) == 64 * 9 and max(sizes) == per_call * 9
        chunked.append(shapley_sampled(spy, instance, background, n_permutations=40, seed=3))
        for a, b in zip(whole, chunked):
            assert np.array_equal(a.shapley_values, b.shapley_values)
            assert (a.base_value, a.prediction) == (b.base_value, b.prediction)

    def test_surrogate_attribution_is_one_model_call(self, fx_model, monkeypatch):
        import xmpc.surrogate as surrogate

        rows: list[int] = []
        predict_batch = surrogate.predict_batch
        monkeypatch.setattr(surrogate, "predict_batch",
                            lambda model, x: rows.append(len(x)) or predict_batch(model, x))
        background = background_of(fx_model)
        shapley(fx_model, np.array([23.0, 26.0, 34.0, 450.0, 3.0]), background)
        assert rows == [32 * len(background)]

    def test_sampled_beyond_64_features(self):
        # Bitmasks past bit 63 would overflow int64; a linear model has the
        # closed form phi_i = w_i * (x_i - mean(background_i)) on every walk.
        rng = np.random.default_rng(12)
        w = rng.normal(size=70)
        instance = rng.normal(size=70)
        background = rng.normal(size=(3, 70))
        attr = shapley_sampled(lambda x: x @ w, instance, background, n_permutations=4, seed=0)
        expected = w * (instance - background.mean(axis=0))
        assert np.allclose(attr.shapley_values, expected, atol=1e-9)
        assert attr.prediction == pytest.approx(float(instance @ w), rel=1e-12)


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
            background_size=256,
            method="exact",
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
            background_size=1,
            method="exact",
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
            background_size=1,
            method="exact",
        )
        ok, residual = verify_additivity(attr)
        assert not ok
        assert residual == pytest.approx(4.0)


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(10)
        instance = rng.normal(size=5)
        background = rng.normal(size=(4, 5))
        attr = shapley(nonlinear_fn, instance, background, feature_names=tuple("abcde"))
        data = attr.to_json()
        assert set(data) == {"features", "base_value", "prediction", "background_size", "method"}
        assert [f["name"] for f in data["features"]] == list("abcde")
        back = Attribution.from_json(data)
        assert back.feature_names == attr.feature_names
        assert np.array_equal(back.shapley_values, attr.shapley_values)
        assert back.base_value == attr.base_value
        assert back.method == "exact"
