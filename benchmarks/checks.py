"""Correctness gates the benchmark applies to every workload's outputs.

Each gate returns a ``Check``.  A failed gate counts as one failed
operation, and any failure makes the run exit non-zero.  The tolerances are
the contractual ones from ``tests/test_acceptance.py``: additivity 1e-6
relative, the MPC decision bitwise equal to brute force, and the holdout
RMSE gates of criterion 07.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from xmpc import mpc, surrogate
from xmpc.explain import classify
from xmpc.shapley import verify_additivity

ADDITIVITY_REL_TOL = 1e-6
# Criterion 07: fx holdout RMSE under 0.5 degC, fy under 10 % of the mean
# non-zero holdout cooling rate.
FX_RMSE_LIMIT_C = 0.5
FY_RMSE_SHARE = 0.10
VALIDATION_FRACTION = 0.2


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    ops: int = 0  # operations the gate judged (attributions, decisions, ...)
    bad: int = 0  # of which failed


def additivity(episode) -> Check:
    """Every stored attribution satisfies base + sum(phi) == prediction."""
    n, bad, worst = 0, 0, 0.0
    for record in episode.records:
        for attribution in record.attributions.values():
            ok, residual = verify_additivity(attribution, ADDITIVITY_REL_TOL)
            n += 1
            bad += not ok
            worst = max(worst, residual)
    return Check(
        "additivity", n > 0 and bad == 0,
        f"{n - bad}/{n} attributions within {ADDITIVITY_REL_TOL:g} relative, worst residual {worst:.1e}",
        ops=n, bad=bad,
    )


def scenarios(episode) -> Check:
    """Each stored scenario label equals the rubric applied to its record."""
    wrong = [r.t for r in episode.records if r.scenario != classify(r)]
    return Check(
        "scenario_labels", not wrong,
        f"{len(episode.records) - len(wrong)}/{len(episode.records)} stored labels equal classify()"
        + (f", first mismatch t={wrong[0]}" if wrong else ""),
    )


def same_trajectory(name: str, got: list[float], want: list[float]) -> Check:
    """Two setpoint sequences agree bit for bit over the length of ``want``."""
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    ok = first is None and len(got) >= len(want) > 0
    detail = f"{len(want)} setpoints compared"
    if first is not None:
        detail += f", first difference at t={first}: {got[first]!r} != {want[first]!r}"
    elif len(got) < len(want):
        detail += f", but only {len(got)} available"
    return Check(name, ok, detail)


def brute_force_decision(problem) -> tuple[float, float, float]:
    """Argmin over all grid pairs by independent enumeration.

    Ties prefer the larger u1, then the larger u2, as ``optimize`` documents.
    """
    grid = mpc.setpoint_grid(problem)
    costs = [(u1, u2, mpc.rollout(problem, u1, u2).cost) for u1 in grid for u2 in grid]
    finite = [c for c in costs if math.isfinite(c[2])]
    best = min(c[2] for c in finite)
    u1, u2 = max((c[0], c[1]) for c in finite if c[2] == best)
    return u1, u2, best


def mpc_brute_force(cases) -> Check:
    """``cases``: (t, problem, (u1, u2, cost) the run chose).

    The run's decision and a fresh ``optimize`` must both equal brute force.
    """
    bad = []
    for t, problem, chosen in cases:
        want = brute_force_decision(problem)
        fresh = mpc.optimize(problem)
        if tuple(chosen) != want or (fresh.u1_c, fresh.u2_c, fresh.cost) != want:
            bad.append(t)
    return Check(
        "mpc_brute_force", bool(cases) and not bad,
        f"{len(cases) - len(bad)}/{len(cases)} sampled intervals equal 25-pair enumeration"
        + (f", first mismatch t={bad[0]}" if bad else ""),
        ops=len(cases), bad=len(bad),
    )


def documents(out_dir: Path, n_records: int, label: str) -> Check:
    """One .md per record, four .svg per record, no placeholder token left."""
    md = sorted(out_dir.glob("*.md"))
    svg = list(out_dir.glob("*.svg"))
    leftovers = [p.name for p in md if "[placeholder]" in p.read_text()]
    ok = len(md) == n_records and len(svg) == 4 * n_records and not leftovers
    return Check(
        f"documents_{label}", ok,
        f"{len(md)} .md (want {n_records}), {len(svg)} .svg (want {4 * n_records}), "
        f"{len(leftovers)} with [placeholder]",
    )


def holdout(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chronological validation tail that training never fits."""
    x = np.column_stack([np.asarray(data[f.column], dtype=float) for f in surrogate.FX_SCHEMA.features])
    n = x.shape[0]
    n_val = max(1, round(n * VALIDATION_FRACTION))
    return (
        x[n - n_val:],
        np.asarray(data["next_zone_temp_c"], dtype=float)[n - n_val:],
        np.asarray(data["next_cooling_rate_w"], dtype=float)[n - n_val:],
    )


def models(fx_path: Path, fy_path: Path, data, reference=None, quality_gate=True) -> Check:
    """Reloaded models predict bit-identically and pass the holdout gates.

    ``reference`` is the in-memory (fx, fy) pair that was saved; without it
    the comparison is against a second save/load round trip of the files.
    """
    x_hold, temp_hold, cool_hold = holdout(data)
    loaded = (surrogate.load(fx_path), surrogate.load(fy_path))
    if reference is None:
        reference = []
        for model, path in zip(loaded, (fx_path, fy_path)):
            copy = path.with_suffix(".roundtrip.json")
            surrogate.save(model, copy)
            reference.append(surrogate.load(copy))
    probe = np.vstack([x_hold, surrogate.background_of(loaded[0])])
    identical = all(
        np.array_equal(surrogate.predict_batch(a, probe), surrogate.predict_batch(b, probe))
        for a, b in zip(loaded, reference)
    )
    rmse_fx = float(np.sqrt(np.mean((surrogate.predict_batch(loaded[0], x_hold) - temp_hold) ** 2)))
    rmse_fy = float(np.sqrt(np.mean((surrogate.predict_batch(loaded[1], x_hold) - cool_hold) ** 2)))
    positive = cool_hold[cool_hold > 0.0]
    fy_limit = FY_RMSE_SHARE * float(np.mean(positive)) if positive.size else 0.0
    accurate = rmse_fx < FX_RMSE_LIMIT_C and rmse_fy < fy_limit
    detail = (
        f"reload {'bit-identical' if identical else 'DIFFERS'} on {probe.shape[0]} rows; "
        f"holdout RMSE fx {rmse_fx:.3f} degC (< {FX_RMSE_LIMIT_C}), fy {rmse_fy:.1f} W (< {fy_limit:.1f})"
    )
    if not quality_gate:
        detail += " [accuracy gate off at this size]"
    return Check("models", identical and (accurate or not quality_gate), detail)
