"""Closed-loop co-simulation: plant, controller, and attribution per hour.

``run_episode`` advances the thermal testbed hour by hour.  At each tick it

1. assembles an ``MpcProblem`` from the measured zone temperature, the
   two-hour boundary-condition forecast (perfect foresight from the
   synthetic profiles), and the demand-response limits at the two reporting
   ticks ahead,
2. times ``optimize()``, applies the chosen first-hour setpoint to the
   plant, and discards the second (receding horizon),
3. computes exact Shapley attributions for all four horizon predictions
   (temperature and cooling for each hour) on the same feature vectors the
   winning rollout evaluated,
4. labels the step with the deterministic scenario rubric.

Episodes serialize to JSON lines: a header object carrying seeds, model
digests, and the testbed configuration, then one record per line.  Per-step
optimization wall-clock is stored in the records but can be omitted at save
time (canonical form), which makes reruns with equal seeds byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import EpisodeIntegrityError, InvalidInputError, SchemaError
from .fileio import atomic_write
from .mpc import MpcDecision, MpcProblem, optimize
from .shapley import Attribution, shapley
from .surrogate import SCHEMAS, SurrogateModel, background_of, digest, predict
from .testbed import (
    Disturbance,
    TestbedConfig,
    ZoneState,
    power_limit_at,
    step,
    synth_disturbances,
)

EPISODE_VERSION = 1

# One attribution per horizon prediction, keyed by model and reporting tick.
ATTRIBUTION_KEYS = ("fx_t1", "fy_t1", "fx_t2", "fy_t2")


@dataclass
class TimestepRecord:
    """Everything observed, decided, and explained at one control interval."""

    t: int
    zone_temp_c: float
    oa_temp_c: float
    oa_radiation_wm2: float
    occupancy: float
    setpoint_c: float
    cooling_rate_w: float
    p_limit_t1_w: float
    p_limit_t2_w: float
    decision: MpcDecision
    attributions: dict[str, Attribution]
    scenario: int | None = None
    opt_seconds: float | None = None

    def to_json(self, include_timing: bool = True) -> dict:
        data = {
            "t": self.t,
            "zone_temp_c": self.zone_temp_c,
            "oa_temp_c": self.oa_temp_c,
            "oa_radiation_wm2": self.oa_radiation_wm2,
            "occupancy": self.occupancy,
            "setpoint_c": self.setpoint_c,
            "cooling_rate_w": self.cooling_rate_w,
            "p_limit_t1_w": self.p_limit_t1_w,
            "p_limit_t2_w": self.p_limit_t2_w,
            "scenario": self.scenario,
            "decision": self.decision.to_json(),
            "attributions": {k: self.attributions[k].to_json() for k in ATTRIBUTION_KEYS},
        }
        if include_timing and self.opt_seconds is not None:
            data["opt_seconds"] = self.opt_seconds
        return data

    @classmethod
    def from_json(cls, data: dict) -> "TimestepRecord":
        return cls(
            t=int(data["t"]),
            zone_temp_c=data["zone_temp_c"],
            oa_temp_c=data["oa_temp_c"],
            oa_radiation_wm2=data["oa_radiation_wm2"],
            occupancy=data["occupancy"],
            setpoint_c=data["setpoint_c"],
            cooling_rate_w=data["cooling_rate_w"],
            p_limit_t1_w=data["p_limit_t1_w"],
            p_limit_t2_w=data["p_limit_t2_w"],
            decision=MpcDecision.from_json(data["decision"]),
            attributions={
                k: Attribution.from_json(v) for k, v in data["attributions"].items()
            },
            scenario=data.get("scenario"),
            opt_seconds=data.get("opt_seconds"),
        )

    @property
    def disturbance(self) -> Disturbance:
        return Disturbance(self.oa_temp_c, self.oa_radiation_wm2, self.occupancy)


@dataclass
class Episode:
    """A full closed-loop run plus the provenance needed to reproduce it."""

    seeds: dict
    model_digests: dict
    config: dict
    records: list[TimestepRecord] = field(default_factory=list)
    version: int = EPISODE_VERSION

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class TimingReport:
    """Per-interval optimization wall-clock summary."""

    mean_seconds: float
    max_seconds: float
    n_intervals: int
    reference_seconds: float = 4.19

    def __str__(self) -> str:
        return (
            f"optimization: mean {self.mean_seconds:.4f} s, max {self.max_seconds:.4f} s "
            f"over {self.n_intervals} intervals (reference {self.reference_seconds:.2f} s)"
        )


def run_episode(
    n_days: int,
    cfg: TestbedConfig,
    fx_model: SurrogateModel,
    fy_model: SurrogateModel,
    dr_calendar: dict[int, float],
    seed: int = 0,
    initial_zone_temp_c: float = 24.0,
    background: np.ndarray | None = None,
) -> Episode:
    """Run ``n_days * 24`` control intervals and return the full episode.

    The attribution background defaults to the training-row sample embedded
    in each model at fit time, so an episode needs nothing beyond the two
    model files and the calendar.
    """
    if n_days < 1:
        raise InvalidInputError(f"n_days must be >= 1, got {n_days}")
    for role, model in (("fx", fx_model), ("fy", fy_model)):
        if model.schema != SCHEMAS[role]:
            raise SchemaError(
                f"the {role} model predicts {model.schema.target.name!r} from "
                f"{list(model.schema.feature_names)}; expected the {role} schema, which "
                f"predicts {SCHEMAS[role].target.name!r} from {list(SCHEMAS[role].feature_names)}"
            )
    # classify lives in the explainer, which imports this module for the
    # record type; import at call time to keep module loading acyclic.
    from .explain import classify

    fx_bg = background if background is not None else background_of(fx_model)
    fy_bg = background if background is not None else background_of(fy_model)

    def fx_scalar(f):
        return predict(fx_model, f)

    def fy_scalar(f):
        return predict(fy_model, f)

    # One extra day of profiles so the last interval still has a 2 h forecast.
    profiles = [synth_disturbances(day, cfg) for day in range(n_days + 1)]

    def disturbance_at(hour: int) -> Disturbance:
        return profiles[hour // 24][hour % 24]

    state = ZoneState(0, initial_zone_temp_c)
    records: list[TimestepRecord] = []
    for t in range(24 * n_days):
        d1 = disturbance_at(t)
        d2 = disturbance_at(t + 1)
        problem = MpcProblem(
            zone_temp_c=state.zone_temp_c,
            d1=d1,
            d2=d2,
            p_limit_t1_w=power_limit_at(dr_calendar, t + 1),
            p_limit_t2_w=power_limit_at(dr_calendar, t + 2),
            fx=fx_scalar,
            fy=fy_scalar,
        )
        started = time.perf_counter()
        decision = optimize(problem)
        opt_seconds = time.perf_counter() - started

        features_h1 = np.array(
            [decision.u1_c, state.zone_temp_c, d1.oa_temp_c, d1.oa_radiation_wm2, d1.occupancy]
        )
        features_h2 = np.array(
            [decision.u2_c, decision.x1_c, d2.oa_temp_c, d2.oa_radiation_wm2, d2.occupancy]
        )
        attributions = {
            "fx_t1": shapley(fx_model, features_h1, fx_bg),
            "fy_t1": shapley(fy_model, features_h1, fy_bg),
            "fx_t2": shapley(fx_model, features_h2, fx_bg),
            "fy_t2": shapley(fy_model, features_h2, fy_bg),
        }

        next_state, hvac = step(state, d1, decision.u1_c, cfg)
        record = TimestepRecord(
            t=t,
            zone_temp_c=state.zone_temp_c,
            oa_temp_c=d1.oa_temp_c,
            oa_radiation_wm2=d1.oa_radiation_wm2,
            occupancy=d1.occupancy,
            setpoint_c=decision.u1_c,
            cooling_rate_w=hvac.cooling_rate_w,
            p_limit_t1_w=problem.p_limit_t1_w,
            p_limit_t2_w=problem.p_limit_t2_w,
            decision=decision,
            attributions=attributions,
            opt_seconds=opt_seconds,
        )
        record.scenario = classify(record)
        records.append(record)
        state = next_state

    return Episode(
        seeds={"run": seed, "testbed": cfg.rng_seed},
        model_digests={"fx": digest(fx_model), "fy": digest(fy_model)},
        config={"n_days": n_days, "testbed": asdict(cfg)},
        records=records,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_episode(episode: Episode, path: str | Path, include_timing: bool = True) -> None:
    """Write header plus one record per line.

    ``include_timing=False`` writes the canonical form: identical runs
    produce byte-identical files because per-step wall-clock is omitted.
    """
    with atomic_write(path) as fh:
        header = {
            "version": episode.version,
            "kind": "episode",
            "n_records": len(episode.records),
            "seeds": episode.seeds,
            "model_digests": episode.model_digests,
            "config": episode.config,
        }
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for record in episode.records:
            fh.write(json.dumps(record.to_json(include_timing), separators=(",", ":")) + "\n")


def load_episode(path: str | Path) -> Episode:
    path = Path(path)
    with path.open() as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EpisodeIntegrityError(f"{path}: empty episode file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise EpisodeIntegrityError(f"{path}:1: bad header ({exc})") from None
    if header.get("kind") != "episode":
        raise EpisodeIntegrityError(f"{path}: not an episode file (kind={header.get('kind')!r})")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(TimestepRecord.from_json(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise EpisodeIntegrityError(f"{path}:{lineno}: bad record ({exc})") from None
    declared = header.get("n_records")
    if declared != len(records):
        raise EpisodeIntegrityError(
            f"{path}: header declares {declared} records but file holds {len(records)}"
        )
    return Episode(
        seeds=header.get("seeds", {}),
        model_digests=header.get("model_digests", {}),
        config=header.get("config", {}),
        records=records,
        version=header.get("version", EPISODE_VERSION),
    )


def timing_report(episode: Episode) -> TimingReport:
    """Summarize per-interval optimization seconds against the 4.19 s reference."""
    times = [r.opt_seconds for r in episode.records if r.opt_seconds is not None]
    if not times:
        raise InvalidInputError("episode carries no timing data (saved in canonical form?)")
    return TimingReport(
        mean_seconds=float(np.mean(times)),
        max_seconds=float(np.max(times)),
        n_intervals=len(times),
    )
