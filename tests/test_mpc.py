"""Setpoint optimization: penalty, rollout chaining, exhaustive search, tie-breaks."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmpc import mpc as mpc_mod
from xmpc.errors import InvalidInputError, OptimizationFailedError
from xmpc.explain import COMFORT_CEILING_C
from xmpc.hub import decision_from_json, decision_to_json
from xmpc.mpc import (
    MpcDecision,
    MpcProblem,
    clamp_power,
    optimize,
    penalty,
    rollout,
    setpoint_grid,
)
from xmpc.testbed import Disturbance

D1 = Disturbance(34.0, 400.0, 3.0)
D2 = Disturbance(33.0, 350.0, 3.0)


def make_problem(fx, fy, limit1=5000.0, limit2=5000.0, zone_temp=26.0):
    return MpcProblem(
        zone_temp_c=zone_temp,
        d1=D1,
        d2=D2,
        p_limit_t1_w=limit1,
        p_limit_t2_w=limit2,
        fx=fx,
        fy=fy,
    )


def patch_grid(monkeypatch, step: float) -> None:
    """Replace the 1 K grid with the one from 22 to 26 degC at ``step``."""
    n = int(4.0 / step + 1e-9) + 1
    monkeypatch.setattr(mpc_mod, "SETPOINT_GRID_C", tuple(22.0 + k * step for k in range(n)))


def oracle_search(problem):
    """Independent exhaustive argmin with the tie-break spelled out explicitly.

    Recomputes every candidate's cost from the raw predictors (clamp, chain,
    penalty) without touching rollout(), then prefers lower cost, then larger
    u1, then larger u2.
    """

    def cost_of(u1, u2):
        f1 = np.array([u1, problem.zone_temp_c, D1.oa_temp_c, D1.oa_radiation_wm2, D1.occupancy])
        x1 = float(problem.fx(f1))
        y1 = max(0.0, float(problem.fy(f1)))
        f2 = np.array([u2, x1, D2.oa_temp_c, D2.oa_radiation_wm2, D2.occupancy])
        y2 = max(0.0, float(problem.fy(f2)))
        v1 = (y1 - problem.p_limit_t1_w) ** 2 if y1 > problem.p_limit_t1_w else 0.0
        v2 = (y2 - problem.p_limit_t2_w) ** 2 if y2 > problem.p_limit_t2_w else 0.0
        return y1 + v1 + y2 + v2

    grid = setpoint_grid(problem)
    best = None
    for u1, u2 in itertools.product(grid, repeat=2):
        cost = cost_of(u1, u2)
        if not math.isfinite(cost):
            continue
        if (
            best is None
            or cost < best[2]
            or (cost == best[2] and (u1, u2) > (best[0], best[1]))
        ):
            best = (u1, u2, cost)
    return best


class TestPenalty:
    def test_reference_vectors(self):
        assert penalty(2000.0, 1750.0) == 62500.0
        assert penalty(1000.0, 5000.0) == 0.0
        for limit in (750.0, 1250.0, 1750.0, 5000.0):
            assert penalty(limit, limit) == 0.0

    def test_just_over_limit(self):
        assert penalty(1750.5, 1750.0) == pytest.approx(0.25)

    def test_overflow_is_infinite(self):
        # float ** raises OverflowError where the penalty is merely infinite.
        assert penalty(1e200, 1750.0) == math.inf

    @given(
        limit=st.floats(100.0, 5000.0),
        over1=st.floats(0.001, 3000.0),
        over2=st.floats(0.001, 3000.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_above_limit(self, limit, over1, over2):
        lo, hi = sorted((over1, over2))
        assert penalty(limit + lo, limit) <= penalty(limit + hi, limit)
        assert penalty(limit + lo, limit) > 0.0
        assert penalty(limit - lo, limit) == 0.0 or limit - lo < 0.0

    def test_invalid_limit(self):
        with pytest.raises(InvalidInputError):
            penalty(1000.0, 0.0)
        with pytest.raises(InvalidInputError):
            penalty(1000.0, -5.0)
        with pytest.raises(InvalidInputError):
            penalty(1000.0, math.inf)


class TestGridAndValidation:
    def test_default_grid(self):
        problem = make_problem(lambda f: f[1], lambda f: 0.0)
        assert setpoint_grid(problem) == [22.0, 23.0, 24.0, 25.0, 26.0]

    def test_comfort_ceiling_tops_the_grid(self):
        problem = make_problem(lambda f: f[1], lambda f: 0.0)
        assert COMFORT_CEILING_C == setpoint_grid(problem)[-1] == 26.0

    def test_half_degree_grid(self, monkeypatch):
        patch_grid(monkeypatch, 0.5)
        problem = make_problem(lambda f: f[1], lambda f: 0.0)
        assert setpoint_grid(problem) == [22.0 + 0.5 * k for k in range(9)]
        decision = optimize(problem)
        assert len(decision.candidates) == 81
        assert {u1 for u1, _, _ in decision.candidates} == set(setpoint_grid(problem))

    def test_problem_validation(self):
        with pytest.raises(InvalidInputError):
            make_problem(lambda f: f[1], lambda f: 0.0, zone_temp=math.nan)
        with pytest.raises(InvalidInputError):
            make_problem(lambda f: f[1], lambda f: 0.0, limit2=0.0)

    @pytest.mark.parametrize("hour", ["d1", "d2"])
    @pytest.mark.parametrize("name", ["oa_temp_c", "oa_radiation_wm2", "occupancy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_forecast_rejected(self, hour, name, value):
        forecast = Disturbance(**{**vars(D1), name: value})
        problem = dict(zone_temp_c=26.0, d1=D1, d2=D2, p_limit_t1_w=5000.0,
                       p_limit_t2_w=5000.0, fx=lambda f: f[1], fy=lambda f: 0.0)
        with pytest.raises(InvalidInputError, match=f"{hour}.{name}"):
            MpcProblem(**{**problem, hour: forecast})


class TestRollout:
    def test_feature_chaining(self):
        # fx echoes the setpoint, so hour 2 must see hour 1's predicted state.
        seen = []

        def fx(f):
            seen.append(f.copy())
            return f[0] - 1.0

        result = rollout(make_problem(fx, lambda f: 100.0), 24.0, 25.0)
        assert len(seen) == 2
        assert seen[0][0] == 24.0 and seen[0][1] == 26.0
        assert seen[1][0] == 25.0 and seen[1][1] == 23.0  # x1 = 24 - 1
        assert seen[0][2:].tolist() == [D1.oa_temp_c, D1.oa_radiation_wm2, D1.occupancy]
        assert seen[1][2:].tolist() == [D2.oa_temp_c, D2.oa_radiation_wm2, D2.occupancy]
        assert result.x1_c == 23.0
        assert result.x2_c == 24.0

    def test_cost_terms(self):
        # y1 = 2000 over a 1750 limit, y2 = 500 under 5000:
        # cost = 2000 + 62500 + 500 + 0.
        fy = lambda f: 2000.0 if f[1] == 26.0 else 500.0
        result = rollout(make_problem(lambda f: 20.0, fy, limit1=1750.0), 24.0, 24.0)
        assert result.y1_w == 2000.0
        assert result.v1 == 62500.0
        assert result.y2_w == 500.0
        assert result.v2 == 0.0
        assert result.cost == 65000.0

    def test_negative_cooling_clamped(self):
        # The pair keeps the raw network outputs; its cost clamps them at zero.
        result = rollout(make_problem(lambda f: 24.0, lambda f: -750.0), 25.0, 25.0)
        assert result.y1_w == result.y2_w == -750.0
        assert (result.v1, result.v2, result.cost) == (0.0, 0.0, 0.0)
        assert (clamp_power(-750.0), clamp_power(750.0)) == (0.0, 750.0)

    def test_nan_prediction_poisons_cost(self):
        result = rollout(make_problem(lambda f: 24.0, lambda f: math.nan), 25.0, 25.0)
        assert math.isnan(result.cost)


class TestOptimize:
    def test_cooling_cost_pushes_to_ceiling(self):
        # y = 100 * (26 - u): cheapest at u = 26 for both hours.
        fy = lambda f: 100.0 * (26.0 - f[0])
        decision = optimize(make_problem(lambda f: f[1], fy))
        assert (decision.u1_c, decision.u2_c) == (26.0, 26.0)
        assert decision.cost == 0.0
        assert decision.candidate_cost(22.0, 22.0) == 800.0
        assert len(decision.candidates) == 25

    def test_all_costs_tie_prefers_largest_pair(self):
        decision = optimize(make_problem(lambda f: f[1], lambda f: 0.0))
        assert (decision.u1_c, decision.u2_c) == (26.0, 26.0)

    def test_tie_on_u2_prefers_larger_u2(self):
        # Cooling depends only on the entering zone temperature, so for each
        # u1 all five u2 candidates tie; precooling still pays off through x1.
        fx = lambda f: f[1] - 0.5 * (26.0 - f[0])
        fy = lambda f: 200.0 * (f[1] - 21.0)
        decision = optimize(make_problem(fx, fy, limit2=700.0))
        assert (decision.u1_c, decision.u2_c) == (22.0, 26.0)
        assert decision.y1_w == 1000.0
        assert decision.y2_w == 600.0
        assert decision.v2 == 0.0
        assert decision.cost == 1600.0

    def test_matches_oracle_on_random_problems(self):
        rng = np.random.default_rng(20)
        for trial in range(50):
            a = rng.uniform(-0.1, 0.1, size=5)
            c = rng.uniform(-80.0, 80.0, size=5)
            bias = rng.uniform(-500.0, 2500.0)
            kink = rng.uniform(22.0, 26.0)

            def fx(f, a=a):
                return float(f[1] + a @ f)

            def fy(f, c=c, bias=bias, kink=kink):
                return float(bias + c @ f + 300.0 * max(0.0, f[0] - kink))

            problem = make_problem(
                fx,
                fy,
                limit1=float(rng.uniform(400.0, 5000.0)),
                limit2=float(rng.uniform(400.0, 5000.0)),
                zone_temp=float(rng.uniform(22.0, 28.0)),
            )
            decision = optimize(problem)
            u1, u2, cost = oracle_search(problem)
            assert decision.u1_c == u1, f"trial {trial}"
            assert decision.u2_c == u2, f"trial {trial}"
            assert decision.cost == cost, f"trial {trial}"

    def test_chosen_fields_match_own_rollout(self):
        fy = lambda f: 50.0 * f[1]
        problem = make_problem(lambda f: f[1] - 0.3 * (26.0 - f[0]), fy, limit2=1200.0)
        decision = optimize(problem)
        again = rollout(problem, decision.u1_c, decision.u2_c)
        assert decision.x1_c == again.x1_c
        assert decision.x2_c == again.x2_c
        assert decision.y1_w == again.y1_w
        assert decision.y2_w == again.y2_w
        assert decision.cost == again.cost
        assert decision.cost == decision.candidate_cost(decision.u1_c, decision.u2_c)
        assert isinstance(again, MpcDecision) and again.candidates == []

    def test_chosen_cost_is_min_of_table(self):
        fy = lambda f: 100.0 * (f[1] - 20.0) + 10.0 * f[0]
        decision = optimize(make_problem(lambda f: f[1] - 0.2 * (26.0 - f[0]), fy))
        finite = [c for _, _, c in decision.candidates if math.isfinite(c)]
        assert decision.cost == min(finite)

    def test_all_candidates_non_finite(self):
        with pytest.raises(OptimizationFailedError):
            optimize(make_problem(lambda f: 24.0, lambda f: math.nan))

    def test_partial_nan_candidates_skipped(self):
        # Predictions blow up only when u1 < 26; the finite corner must win.
        fy = lambda f: math.nan if f[0] < 26.0 else 100.0
        fx = lambda f: f[1]
        decision = optimize(make_problem(fx, fy))
        assert decision.u1_c == 26.0
        nan_costs = [c for _, _, c in decision.candidates if not math.isfinite(c)]
        assert nan_costs  # table still records the failed candidates

    def test_surrogate_problem_decision(self, fx_model, fy_model):
        from xmpc.surrogate import predict

        problem = make_problem(
            lambda f: predict(fx_model, f), lambda f: predict(fy_model, f), limit2=1000.0
        )
        decision = optimize(problem)
        assert 22.0 <= decision.u1_c <= 26.0
        assert 22.0 <= decision.u2_c <= 26.0
        powers = clamp_power(decision.y1_w), clamp_power(decision.y2_w)
        assert decision.cost == powers[0] + decision.v1 + powers[1] + decision.v2
        assert math.isfinite(decision.cost)


def expression_optimize(problem):
    """``optimize`` as one ``rollout`` per pair: 4 model calls for each of g^2 pairs."""
    grid = setpoint_grid(problem)
    best = None
    candidates = []
    for u1 in reversed(grid):
        for u2 in reversed(grid):
            result = rollout(problem, u1, u2)
            candidates.append((u1, u2, result.cost))
            if not math.isfinite(result.cost):
                continue
            if best is None or result.cost < best[2].cost:
                best = (u1, u2, result)
    if best is None:
        raise OptimizationFailedError("no finite candidate")
    u1, u2, r = best
    return MpcDecision(u1, u2, r.x1_c, r.x2_c, r.y1_w, r.y2_w, r.v1, r.v2, r.cost, candidates)


def assert_same_decision(a: MpcDecision, b: MpcDecision):
    """Every field and candidate bit for bit, NaN equal to NaN."""
    bits = lambda d: [float(v).hex() for v in (
        d.u1_c, d.u2_c, d.x1_c, d.x2_c, d.y1_w, d.y2_w, d.v1, d.v2, d.cost,
        *(v for candidate in d.candidates for v in candidate),
    )]
    assert bits(a) == bits(b)


def counting(fn, calls):
    def counted(f):
        calls.append(f)
        return fn(f)

    return counted


class TestFirstHourOnce:
    """``optimize`` predicts hour one once per u1 and reuses it for every u2."""

    def test_equals_pairwise_rollouts_on_fixture_problems(self, fx_model, fy_model):
        from xmpc.surrogate import predict

        fx = lambda f: predict(fx_model, f)
        fy = lambda f: predict(fy_model, f)
        rng = np.random.default_rng(31)
        for trial in range(200):
            d1, d2 = (
                Disturbance(rng.uniform(18.0, 38.0), rng.uniform(0.0, 900.0), rng.uniform(0.0, 8.0))
                for _ in range(2)
            )
            # Event limits from the calendar's [750, 1750] W range, often both hours.
            limit1, limit2 = (
                float(rng.uniform(750.0, 1750.0)) if rng.random() < 0.6 else 5000.0
                for _ in range(2)
            )
            problem = MpcProblem(
                zone_temp_c=float(rng.uniform(21.0, 29.0)), d1=d1, d2=d2,
                p_limit_t1_w=limit1, p_limit_t2_w=limit2, fx=fx, fy=fy,
            )
            assert_same_decision(optimize(problem), expression_optimize(problem))

    def test_non_finite_hours_mark_the_same_candidates(self):
        # Hour one is NaN for u1 = 23 (fx) and u1 = 22 (fy); x2 is NaN for
        # u2 = 25.  Hours are told apart by their outdoor temperature.
        def fx(f):
            if (f[2], f[0]) in ((D1.oa_temp_c, 23.0), (D2.oa_temp_c, 25.0)):
                return math.nan
            return f[1] - 0.3 * (26.0 - f[0])

        def fy(f):
            if (f[2], f[0]) == (D1.oa_temp_c, 22.0):
                return math.nan
            return 80.0 * (f[1] - 18.0) - 40.0 * f[0]

        fx_calls, fy_calls = [], []
        problem = make_problem(counting(fx, fx_calls), counting(fy, fy_calls), limit1=700.0)
        decision = optimize(problem)
        # No second-hour calls for the two u1 whose first hour failed.
        assert len(fx_calls) == len(fy_calls) == 5 + 3 * 5
        assert_same_decision(decision, expression_optimize(problem))
        failed = {(u1, u2) for u1, u2, cost in decision.candidates if not math.isfinite(cost)}
        grid = setpoint_grid(problem)
        assert failed == {(u1, u2) for u1 in grid for u2 in grid if u1 in (22.0, 23.0) or u2 == 25.0}

    @pytest.mark.parametrize("step, g", [(1.0, 5), (0.5, 9), (4.0, 2), (10.0, 1)])
    def test_model_calls_per_decision(self, step, g, monkeypatch):
        patch_grid(monkeypatch, step)
        fx_calls, fy_calls = [], []
        problem = make_problem(
            counting(lambda f: f[1] - 0.3 * (26.0 - f[0]), fx_calls),
            counting(lambda f: 60.0 * (f[1] - 20.0), fy_calls),
        )
        assert len(setpoint_grid(problem)) == g
        optimize(problem)
        assert len(fx_calls) + len(fy_calls) == 2 * g + 2 * g * g
        fx_calls.clear()
        fy_calls.clear()
        expression_optimize(problem)
        assert len(fx_calls) + len(fy_calls) == 4 * g * g


class TestDecisionSerialization:
    """A decision as an episode record holds it, through ``hub``'s episode codec."""

    def test_roundtrip(self):
        fy = lambda f: 100.0 * (26.0 - f[0])
        decision = optimize(make_problem(lambda f: f[1], fy))
        data = decision_to_json(decision)
        back = decision_from_json(data, 5000.0, 5000.0)
        assert back.u1_c == decision.u1_c
        assert back.u2_c == decision.u2_c
        assert back.cost == decision.cost
        assert back.candidates == decision.candidates
        assert back == decision

    def test_keys_are_the_fields_in_order(self):
        # Canonical episodes depend on this key order staying fixed.  The
        # chosen pair, its penalties and its cost are derived on decode.
        fy = lambda f: 200.0 + 100.0 * (26.0 - f[0])
        decision = optimize(make_problem(lambda f: f[1], fy, limit2=150.0))
        data = decision_to_json(decision)
        assert list(data) == ["x1_c", "x2_c", "y1_w", "y2_w", "costs"]
        assert data["costs"] == [cost for _, _, cost in decision.candidates]
        back = decision_from_json(data, 5000.0, 150.0)
        assert back == decision and back.v2 > 0.0

    def test_raw_outputs_round_trip(self):
        # A negative cooling output is stored as the network gave it; the
        # decoder clamps it to check the chosen cost, as optimize costed it.
        decision = optimize(make_problem(lambda f: f[1], lambda f: -40.0 * f[0]))
        data = decision_to_json(decision)
        assert (decision.u1_c, decision.u2_c, decision.cost) == (26.0, 26.0, 0.0)
        assert (data["y1_w"], data["y2_w"]) == (-1040.0, -1040.0)
        assert decision_from_json(data, 5000.0, 5000.0) == decision

    def test_non_finite_candidates_serialize_as_null(self):
        fy = lambda f: math.nan if f[0] < 26.0 else 10.0
        decision = optimize(make_problem(lambda f: f[1], fy))
        data = decision_to_json(decision)
        # Every pair except (26, 26) hits the NaN in one of its two hours.
        nulls = [c for c in data["costs"] if c is None]
        assert len(nulls) == 24
        back = decision_from_json(data, 5000.0, 5000.0)
        assert (back.u1_c, back.u2_c, back.cost) == (26.0, 26.0, decision.cost)
        assert all(
            math.isinf(c) for _, u, c in back.candidates if not math.isfinite(c)
        )

    def test_candidate_cost_unknown_pair(self):
        decision = optimize(make_problem(lambda f: f[1], lambda f: 0.0))
        with pytest.raises(KeyError):
            decision.candidate_cost(30.0, 30.0)

    def test_ties_decode_to_the_first_cheapest(self):
        # A flat cooling prediction ties every pair; optimize keeps the comfort ceiling.
        decision = optimize(make_problem(lambda f: f[1], lambda f: 300.0))
        assert len(set(decision_to_json(decision)["costs"])) == 1
        back = decision_from_json(decision_to_json(decision), 5000.0, 5000.0)
        assert (back.u1_c, back.u2_c) == (decision.u1_c, decision.u2_c) == (26.0, 26.0)

    def test_pairs_follow_the_grid(self, monkeypatch):
        patch_grid(monkeypatch, 0.5)
        fy = lambda f: 100.0 * (f[1] - 20.0) + 10.0 * f[0]
        decision = optimize(make_problem(lambda f: f[1] - 0.2 * (26.0 - f[0]), fy))
        back = decision_from_json(decision_to_json(decision), 5000.0, 5000.0)
        assert len(back.candidates) == 81
        assert back == decision

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.update(u1_c=24.0), "unexpected or missing keys ['u1_c']"),
        (lambda data: data.pop("x2_c"), "unexpected or missing keys ['x2_c']"),
        (lambda data: data["costs"].pop(), "costs must list 25 entries, one per setpoint pair"),
        (lambda data: data.update(costs=900.0), "costs must list 25 entries"),
        (lambda data: data["costs"].__setitem__(7, "900"), "cost must be a finite number, got '900'"),
        (lambda data: data["costs"].__setitem__(7, True), "cost must be a finite number, got True"),
        (lambda data: data.update(costs=[None] * 25), "chosen cost inf is not max(0, y1_w) + v1"),
        (lambda data: data.update(y1_w=data["y1_w"] + 1.0), "is not max(0, y1_w) + v1 + max(0, y2_w) + v2"),
        (lambda data: data["costs"].__setitem__(24, 0.0), "chosen cost 0.0 is not max(0, y1_w) + v1"),
    ], ids=["stray-key", "missing-key", "short-costs", "scalar-costs", "string-cost",
            "bool-cost", "all-null", "prediction-off", "cheaper-pair"])
    def test_from_json_refuses(self, edit, message):
        fy = lambda f: 100.0 * (f[1] - 20.0) + 10.0 * f[0]
        data = decision_to_json(optimize(make_problem(lambda f: f[1] - 0.2 * (26.0 - f[0]), fy)))
        edit(data)
        with pytest.raises(ValueError, match=re.escape(message)):
            decision_from_json(data, 5000.0, 5000.0)
