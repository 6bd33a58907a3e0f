"""Acceptance gate: every headline guarantee, one printed verdict line each.

Each test checks one guarantee at its stated tolerance and prints a single
``[acceptance] <criterion>: PASS/FAIL (<detail>)`` line on the live terminal
(bypassing capture), so a full-suite run always shows the ten verdicts.
Tolerances here are contractual: if the implementation cannot meet one, the
line must read FAIL rather than the check being loosened.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from test_explain import expected_numerals
from xmpc.explain import (
    build_qa_context,
    build_scenario_prompt,
    classify,
    parse_scenario,
    render_document,
    scenario_census,
    write_documents,
)
from xmpc.hub import timing_report
from xmpc.llm import LlmConfig, answer_question, complete
from xmpc.mpc import MpcProblem, optimize, penalty, setpoint_grid
from xmpc.shapley import shapley, verify_additivity
from xmpc.surrogate import (
    FX_SCHEMA,
    FY_SCHEMA,
    VALIDATION_FRACTION,
    background_of,
    mse_loss_and_grads,
    predict_batch,
    train,
)
from xmpc.testbed import Disturbance


@pytest.fixture()
def criterion(capfd):
    """Context manager that emits exactly one PASS/FAIL line per criterion."""

    def emit(tag: str, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)

    @contextlib.contextmanager
    def run(tag: str):
        verdict = SimpleNamespace(ok=False, detail="check did not complete")
        try:
            yield verdict
        except Exception as exc:
            emit(tag, False, f"raised {type(exc).__name__}: {exc}")
            raise
        emit(tag, verdict.ok, verdict.detail)
        assert verdict.ok, f"{tag}: {verdict.detail}"

    return run


# ---------------------------------------------------------------------------
# Independent oracles, restated locally so each criterion has two routes.
# ---------------------------------------------------------------------------


def permutation_oracle(fn, instance: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Average marginal contributions over all n! orderings, explicitly."""
    n = instance.size
    cache: dict[frozenset, float] = {}

    def value(members: set) -> float:
        key = frozenset(members)
        if key not in cache:
            hybrid = np.repeat(instance[None, :], background.shape[0], axis=0)
            absent = [i for i in range(n) if i not in key]
            hybrid[:, absent] = background[:, absent]
            cache[key] = float(np.mean(fn(hybrid)))
        return cache[key]

    phi = np.zeros(n)
    for order in itertools.permutations(range(n)):
        members: set = set()
        for i in order:
            before = value(members)
            members.add(i)
            phi[i] += value(members) - before
    return phi / math.factorial(n)


def brute_force_search(problem: MpcProblem) -> tuple[float, float, float]:
    """Exhaustive argmin from the raw predictors, tie-break spelled out."""
    d1, d2 = problem.d1, problem.d2

    def cost_of(u1: float, u2: float) -> float:
        f1 = np.array([u1, problem.zone_temp_c, d1.oa_temp_c, d1.oa_radiation_wm2, d1.occupancy])
        x1 = float(problem.fx(f1))
        y1 = max(0.0, float(problem.fy(f1)))
        f2 = np.array([u2, x1, d2.oa_temp_c, d2.oa_radiation_wm2, d2.occupancy])
        y2 = max(0.0, float(problem.fy(f2)))
        v1 = (y1 - problem.p_limit_t1_w) ** 2 if y1 > problem.p_limit_t1_w else 0.0
        v2 = (y2 - problem.p_limit_t2_w) ** 2 if y2 > problem.p_limit_t2_w else 0.0
        return y1 + v1 + y2 + v2

    best = None
    for u1, u2 in itertools.product(setpoint_grid(problem), repeat=2):
        cost = cost_of(u1, u2)
        if best is None or cost < best[2] or (cost == best[2] and (u1, u2) > (best[0], best[1])):
            best = (u1, u2, cost)
    return best


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_01_attribution_exactness(criterion, fx_model, fy_model):
    with criterion("01 attribution exactness") as v:
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        additive_ok = 0
        worst_residual = 0.0
        for model in (fx_model, fy_model):
            bg = background_of(model)
            lo, hi = bg.min(axis=0), bg.max(axis=0)
            for _ in range(100):
                attr = shapley(model, rng.uniform(lo, hi), bg)
                ok, residual = verify_additivity(attr, rel_tol=1e-6)
                additive_ok += ok
                worst_residual = max(worst_residual, residual / max(1.0, abs(attr.prediction)))

        worst_perm = 0.0
        for model in (fx_model, fy_model):
            bg = background_of(model)[:32]
            for _ in range(3):
                instance = rng.uniform(bg.min(axis=0), bg.max(axis=0))
                attr = shapley(model, instance, bg)
                oracle = permutation_oracle(lambda x: predict_batch(model, x), instance, bg)
                worst_perm = max(worst_perm, float(np.max(np.abs(attr.shapley_values - oracle))))

        elapsed = time.perf_counter() - started
        v.ok = additive_ok == 200 and worst_perm <= 1e-9 and elapsed < 10.0
        v.detail = (
            f"additivity {additive_ok}/200 within 1e-6 rel (worst {worst_residual:.2e}), "
            f"5-feature enumeration vs n! oracle worst diff {worst_perm:.2e}, {elapsed:.1f} s"
        )


def test_02_attribution_axioms(criterion):
    with criterion("02 attribution axioms") as v:
        rng = np.random.default_rng(2)
        background = rng.normal(0.0, 1.0, size=(24, 4))
        instance = rng.normal(0.0, 1.0, size=4)

        def f(x):
            return 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2] ** 2

        def g(x):
            return np.tanh(x[:, 0]) + x[:, 3] * x[:, 1]

        dummy_phi = float(shapley(f, instance, background).shapley_values[3])

        sym_bg = background.copy()
        sym_bg[:, 2] = sym_bg[:, 0]
        sym_inst = instance.copy()
        sym_inst[2] = sym_inst[0]
        sym = shapley(lambda x: np.exp(-((x[:, 0] + x[:, 2]) / 4.0) ** 2) + x[:, 1],
                      sym_inst, sym_bg).shapley_values
        sym_gap = abs(float(sym[0] - sym[2]))

        phi_f = shapley(f, instance, background).shapley_values
        phi_g = shapley(g, instance, background).shapley_values
        phi_lin = shapley(lambda x: 2.0 * f(x) + 5.0 * g(x), instance, background).shapley_values
        lin_gap = float(np.max(np.abs(phi_lin - (2.0 * phi_f + 5.0 * phi_g))))

        v.ok = dummy_phi == 0.0 and sym_gap <= 1e-9 and lin_gap <= 1e-9
        v.detail = (
            f"dummy phi = {dummy_phi!r} (exact), symmetry gap {sym_gap:.2e}, "
            f"linearity gap {lin_gap:.2e}"
        )


def test_03_controller_optimality(criterion):
    with criterion("03 controller optimality") as v:
        rng = np.random.default_rng(77)
        d1 = Disturbance(34.0, 400.0, 3.0)
        d2 = Disturbance(33.0, 350.0, 3.0)
        exact, tables_ok, grid_ok = 0, 0, 0
        for _ in range(50):
            a = rng.uniform(-0.1, 0.1, size=5)
            c = rng.uniform(-80.0, 80.0, size=5)
            bias = rng.uniform(-500.0, 2500.0)
            kink = rng.uniform(22.0, 26.0)
            problem = MpcProblem(
                zone_temp_c=float(rng.uniform(22.0, 28.0)),
                d1=d1,
                d2=d2,
                p_limit_t1_w=float(rng.uniform(400.0, 5000.0)),
                p_limit_t2_w=float(rng.uniform(400.0, 5000.0)),
                fx=lambda f, a=a: float(f[1] + a @ f),
                fy=lambda f, c=c, bias=bias, kink=kink: float(
                    bias + c @ f + 300.0 * max(0.0, f[0] - kink)
                ),
            )
            decision = optimize(problem)
            u1, u2, cost = brute_force_search(problem)
            exact += decision.u1_c == u1 and decision.u2_c == u2 and decision.cost == cost
            tables_ok += len(decision.costs) == 25
            grid_ok += 22.0 <= decision.u1_c <= 26.0 and 22.0 <= decision.u2_c <= 26.0
        v.ok = exact == tables_ok == grid_ok == 50
        v.detail = (
            f"{exact}/50 bitwise equal to brute force, {tables_ok}/50 tables of 25, "
            f"{grid_ok}/50 setpoints within [22, 26] degC"
        )


def test_04_penalty_vectors(criterion):
    with criterion("04 penalty vectors") as v:
        boundary = all(penalty(lim, lim) == 0.0 for lim in (750.0, 1250.0, 1750.0, 5000.0))
        v.ok = (
            penalty(2000.0, 1750.0) == 62500.0
            and penalty(1000.0, 5000.0) == 0.0
            and boundary
        )
        v.detail = (
            f"(2000, 1750) -> {penalty(2000.0, 1750.0):.0f}, "
            f"(1000, 5000) -> {penalty(1000.0, 5000.0):.0f}, (L, L) -> 0 exact"
        )


def test_05_precooling_emerges(criterion, episode):
    with criterion("05 precooling emerges") as v:
        precool = [r for r in episode.records if r.scenario == 1]
        cheaper = sum(
            r.decision.cost < r.decision.candidate_cost(26.0, 26.0) for r in precool
        )
        v.ok = len(precool) >= 1 and cheaper == len(precool)
        if precool:
            r = precool[0]
            v.detail = (
                f"{len(precool)} precool steps over {len(episode) // 24} days, all cheaper "
                f"than holding 26 degC; e.g. t={r.t} u=({r.decision.u1_c:.0f}, "
                f"{r.decision.u2_c:.0f}) cost {r.decision.cost:.1f} < "
                f"{r.decision.candidate_cost(26.0, 26.0):.1f}"
            )
        else:
            v.detail = "no timestep chose to precool"


def test_06_scenario_census(criterion, episode):
    with criterion("06 scenario census") as v:
        census = scenario_census(episode)
        partitions = sum(census.values()) == len(episode) == 24 * (len(episode) // 24)
        stable = all(classify(r) == r.scenario for r in episode.records)
        cfg = LlmConfig()
        agree = sum(
            parse_scenario(complete(cfg, "scenario judge", build_scenario_prompt(r)).response)
            == r.scenario
            for r in episode.records
        )
        v.ok = partitions and stable and agree == len(episode)
        v.detail = (
            f"census {dict(sorted(census.items()))} sums to {len(episode)}, rubric stable "
            f"on re-classification, stub-gateway agreement {agree}/{len(episode)}"
        )


def test_07_surrogate_quality(criterion, excitation, fx_model, fy_model, train_cfg):
    with criterion("07 surrogate quality") as v:
        cols = [f.column for f in FX_SCHEMA.features]
        x = np.column_stack([excitation[c] for c in cols])
        n = len(excitation)
        n_val = max(1, round(n * VALIDATION_FRACTION))
        x_hold = x[n - n_val:]

        temp_hold = excitation["next_zone_temp_c"][n - n_val:]
        rmse_fx = float(np.sqrt(np.mean((predict_batch(fx_model, x_hold) - temp_hold) ** 2)))

        cool_hold = excitation["next_cooling_rate_w"][n - n_val:]
        rmse_fy = float(np.sqrt(np.mean((predict_batch(fy_model, x_hold) - cool_hold) ** 2)))
        mean_nonzero = float(np.mean(cool_hold[cool_hold > 0.0]))

        rng = np.random.default_rng(3)
        layers = [
            (rng.normal(0.0, 0.6, size=(8, 5)), rng.normal(0.0, 0.1, 8)),
            (rng.normal(0.0, 0.6, size=(1, 8)), rng.normal(0.0, 0.1, 1)),
        ]
        gx = rng.normal(size=(12, 5))
        gy = rng.normal(size=12)
        _, grads = mse_loss_and_grads(layers, gx, gy)
        eps, worst_grad = 1e-6, 0.0
        for li, (w, b) in enumerate(layers):
            for arr, grad in ((w, grads[li][0]), (b, grads[li][1])):
                flat = arr.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    lp, _ = mse_loss_and_grads(layers, gx, gy)
                    flat[idx] = orig - eps
                    lm, _ = mse_loss_and_grads(layers, gx, gy)
                    flat[idx] = orig
                    numeric = (lp - lm) / (2.0 * eps)
                    analytic = grad.ravel()[idx]
                    worst_grad = max(
                        worst_grad,
                        abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8),
                    )

        started = time.perf_counter()
        train(excitation, FX_SCHEMA, train_cfg)
        train(excitation, FY_SCHEMA, train_cfg)
        train_seconds = time.perf_counter() - started

        v.ok = (
            rmse_fx < 0.5
            and rmse_fy < 0.10 * mean_nonzero
            and worst_grad < 1e-4
            and train_seconds < 60.0
        )
        v.detail = (
            f"holdout RMSE fx {rmse_fx:.3f} degC (< 0.5), fy {rmse_fy:.1f} W "
            f"(< 10% of {mean_nonzero:.1f} W), gradient check worst rel {worst_grad:.2e}, "
            f"both trainings {train_seconds:.1f} s at {train_cfg.epochs} epochs"
        )


def test_08_document_integrity(criterion, episode, tmp_path):
    with criterion("08 document integrity") as v:
        started = time.perf_counter()
        first = write_documents(episode.records, tmp_path / "render1")
        elapsed = time.perf_counter() - started

        docs = [p for p in first if p.suffix == ".md"]
        counts_ok = len(docs) == len(episode) and len(first) == 5 * len(episode)

        placeholders = sum(p.read_text().count("[placeholder]") for p in docs)

        stray = 0
        by_t = {r.t: r for r in episode.records}
        numeral = re.compile(r"\d+(?:\.\d+)?")
        for p in docs:
            t = int(p.stem.split("_")[1])
            allowed = expected_numerals(by_t[t])
            stray += sum(1 for tok in numeral.findall(p.read_text()) if tok not in allowed)

        second = write_documents(episode.records, tmp_path / "render2")
        identical = all(
            a.read_bytes() == b.read_bytes() for a, b in zip(first, second)
        )

        v.ok = counts_ok and placeholders == 0 and stray == 0 and identical and elapsed < 120.0
        v.detail = (
            f"{len(docs)} documents + {len(first) - len(docs)} charts in {elapsed:.1f} s, "
            f"{placeholders} placeholder tokens, {stray} untraceable numerals, "
            f"rerun byte-identical: {identical}"
        )


def test_09_optimization_runtime(criterion, episode):
    with criterion("09 optimization runtime") as v:
        report = timing_report(episode)
        v.ok = report.mean_seconds < 4.19
        v.detail = (
            f"mean {report.mean_seconds * 1000.0:.1f} ms over {report.n_intervals} intervals "
            f"(max {report.max_seconds * 1000.0:.1f} ms) against the 4.19 s reference; "
            f"desk-scale under 1 s: {'yes' if report.mean_seconds < 1.0 else 'no'}"
        )


def test_10_offline_guarantee(criterion, episode, no_network):
    with criterion("10 offline guarantee") as v:
        cfg = LlmConfig()
        record = next(r for r in episode.records if r.scenario == 1)
        judged = parse_scenario(
            complete(cfg, "scenario judge", build_scenario_prompt(record)).response
        )
        doc = render_document(record, mode="llm", llm_config=cfg)
        answer = answer_question(
            cfg, build_qa_context(record, "Why precool this hour?")
        ).response
        v.ok = judged == record.scenario and "Shapley value" in doc and bool(answer)
        v.detail = (
            "stub gateway, llm-mode rendering, and QA all ran with socket.socket disabled; "
            "no network reachable"
        )
