"""Closed-loop co-simulation: plant, controller, and attribution per hour.

``run_episode`` advances the thermal testbed hour by hour.  At each tick it

1. assembles an ``MpcProblem`` from the measured zone temperature, the
   two-hour boundary-condition forecast (perfect foresight from the
   synthetic profiles), and the demand-response limits at the two reporting
   ticks ahead,
2. times ``optimize()``, applies the chosen first-hour setpoint to the
   plant, discards the second (receding horizon), and keeps the two
   feature vectors the winning rollout evaluated.

After the last tick it

3. computes exact Shapley attributions for all four horizon predictions of
   every hour (temperature and cooling for each hour) on those vectors, in
   one ``shapley`` call per model over the whole episode.  Attribution
   never feeds back into control, and a row's attribution does not depend
   on the batch it is in.

Scenario rubric (deterministic, ``classify`` applied to a record):

* Scenario 1, "Precool": the power limit two reporting ticks ahead is below
  the normal 5000 W ceiling and the chosen first-hour setpoint is below the
  comfort ceiling, the top of ``testbed.SETPOINT_GRID_C`` (26 degC).
* Scenario 3, "EventNoPrecool": the limit is tightened but the setpoint
  stays at the ceiling.
* Scenario 2, "Normal": everything else.

Episodes serialize to JSON lines: a header object, then one record per line.
Each fact is stored once.  A record holds the zone temperature, both hours'
boundary conditions, the realized cooling rate, the decision's four
predictions and the costs of its 25 pairs, each attribution's phi, base
value and prediction, and the optimization wall-clock.  The rest is derived:
the hour is the record's line (hour t on record line t), the two limits
ahead are the header calendar's at t + 1 and t + 2, the chosen pair is the
first cheapest and its penalties follow from those limits (the setpoint is
``decision.u1_c``), the scenario label is ``classify(record)``, and an
attribution's feature names are its model schema's and its values the
vector the decision costed for that hour.  The header carries the format
version (6, the only one that loads), the run and weather seeds, model
digests, the DR calendar's event hours, the record count, and
``records_sha256``, a digest that seals the file: it covers the header line
(with its own digest field zeroed) and every record line.  The wall-clock
can be omitted at save time (canonical form), which makes reruns with equal
seeds byte-identical.

``load_episode`` hashes every line but decodes only the record it is asked
for: the seal, which every file must carry, vouches for the lines it skips.
A decoded record must hold exactly the format's keys, every number in it
must be a finite JSON number (a pair's cost may be null), and its parts
must agree: physical disturbances and cooling rate, a chosen cost equal to
its predictions plus penalties, additive attributions.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import EpisodeIntegrityError, InvalidInputError, SchemaError
from .fileio import atomic_write, check_keys, finite_number
from .mpc import MpcDecision, MpcProblem, features, optimize
from .shapley import Attribution, shapley, verify_additivity
from .surrogate import SCHEMAS, SurrogateModel, background_of, digest, predict
from .testbed import (
    COOLING_CAPACITY_W,
    INITIAL_ZONE_TEMP_C,
    NORMAL_POWER_LIMIT_W,
    SETPOINT_GRID_C,
    Disturbance,
    TestbedConfig,
    ZoneState,
    calendar_from_json,
    calendar_to_json,
    power_limit_at,
    step,
    synth_disturbances,
)

EPISODE_VERSION = 6

# Reference per-interval optimization time that timing reports quote.
REFERENCE_OPT_SECONDS = 4.19

# The header's digest field, and its value while the digest is being computed.
_SEAL_KEY = b'"records_sha256":"'
_UNSEALED = b"0" * 64

# One attribution per horizon prediction, keyed by model and reporting tick.
ATTRIBUTION_KEYS = ("fx_t1", "fy_t1", "fx_t2", "fy_t2")

COMFORT_CEILING_C = SETPOINT_GRID_C[-1]


@dataclass
class TimestepRecord:
    """Everything observed, decided, and explained at one control interval."""

    t: int
    zone_temp_c: float
    oa_temp_c: float
    oa_radiation_wm2: float
    occupancy: float
    oa_temp_t2_c: float
    oa_radiation_t2_wm2: float
    occupancy_t2: float
    cooling_rate_w: float
    p_limit_t1_w: float
    p_limit_t2_w: float
    decision: MpcDecision
    attributions: dict[str, Attribution]
    opt_seconds: float | None = None

    def to_json(self, include_timing: bool = True) -> dict:
        data = {name: getattr(self, name) for name in _SCALAR_RECORD_FIELDS}
        data["decision"] = self.decision.to_json()
        data["attributions"] = {k: self.attributions[k].to_json() for k in ATTRIBUTION_KEYS}
        if include_timing and self.opt_seconds is not None:
            data["opt_seconds"] = self.opt_seconds
        return data

    @classmethod
    def from_json(cls, data: dict, t: int, calendar: dict[int, float]) -> "TimestepRecord":
        """Decode ``to_json`` output as hour ``t`` of an episode run under ``calendar``.

        Raise ``ValueError`` unless its parts agree.
        """
        check_keys(data, _RECORD_KEYS, optional=("opt_seconds",))
        attributions = data["attributions"]
        if not isinstance(attributions, dict) or set(attributions) != set(ATTRIBUTION_KEYS):
            raise ValueError(f"attributions must be exactly {list(ATTRIBUTION_KEYS)}")
        scalars = {name: finite_number(data[name], name)
                   for name in (*_SCALAR_RECORD_FIELDS, "opt_seconds") if name in data}
        rate = scalars["cooling_rate_w"]
        if not 0.0 <= rate <= COOLING_CAPACITY_W:
            raise ValueError(f"cooling_rate_w must be in [0, {COOLING_CAPACITY_W}], got {rate!r}")
        p1, p2 = power_limit_at(calendar, t + 1), power_limit_at(calendar, t + 2)
        d = MpcDecision.from_json(data["decision"], p1, p2)
        record = cls(t, **scalars, p_limit_t1_w=p1, p_limit_t2_w=p2, decision=d, attributions={})
        # Each Disturbance refuses negative radiation or occupancy.
        h1 = features(d.u1_c, record.zone_temp_c, record.disturbance)
        h2 = features(d.u2_c, d.x1_c, record.disturbance_t2)
        for key, values in zip(ATTRIBUTION_KEYS, (h1, h1, h2, h2)):
            names = SCHEMAS[key[:2]].feature_names
            attribution = Attribution.from_json(attributions[key], names, values)
            if not verify_additivity(attribution)[0]:
                raise ValueError(f"{key} base_value + sum(phi) does not meet its prediction")
            record.attributions[key] = attribution
        return record

    @property
    def setpoint_c(self) -> float:
        return self.decision.u1_c

    @property
    def scenario(self) -> int:
        return classify(self)

    @property
    def disturbance(self) -> Disturbance:
        return Disturbance(self.oa_temp_c, self.oa_radiation_wm2, self.occupancy)

    @property
    def disturbance_t2(self) -> Disturbance:
        return Disturbance(self.oa_temp_t2_c, self.oa_radiation_t2_wm2, self.occupancy_t2)


# Serialized in field order, ahead of the three fields with their own encoding,
# but for the hour and the limits, which are the line's and the calendar's;
# every record holds these keys and may hold opt_seconds.
_SCALAR_RECORD_FIELDS = tuple(
    f.name
    for f in fields(TimestepRecord)
    if f.name not in ("t", "p_limit_t1_w", "p_limit_t2_w", "decision", "attributions",
                      "opt_seconds")
)
_RECORD_KEYS = frozenset(_SCALAR_RECORD_FIELDS + ("decision", "attributions"))


def classify(record: TimestepRecord) -> int:
    """Deterministic scenario label for one record (see module docstring)."""
    event_ahead = record.p_limit_t2_w < NORMAL_POWER_LIMIT_W
    if event_ahead and record.setpoint_c < COMFORT_CEILING_C:
        return 1
    if event_ahead:
        return 3
    return 2


@dataclass
class Episode:
    """A full closed-loop run plus the provenance needed to reproduce it."""

    seeds: dict
    model_digests: dict
    records: list[TimestepRecord] = field(default_factory=list)
    # The DR calendar the episode ran under: event hour -> power limit in W.
    calendar: dict[int, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class TimingReport:
    """Per-interval optimization wall-clock summary."""

    mean_seconds: float
    max_seconds: float
    n_intervals: int

    def __str__(self) -> str:
        return (
            f"optimization: mean {self.mean_seconds:.4f} s, max {self.max_seconds:.4f} s "
            f"over {self.n_intervals} intervals (reference {REFERENCE_OPT_SECONDS:.2f} s)"
        )


def run_episode(
    n_days: int,
    cfg: TestbedConfig,
    fx_model: SurrogateModel,
    fy_model: SurrogateModel,
    dr_calendar: dict[int, float],
    seed: int = 0,
) -> Episode:
    """Run ``n_days * 24`` control intervals and return the full episode."""
    if n_days < 1:
        raise InvalidInputError(f"n_days must be >= 1, got {n_days}")
    for role, model in (("fx", fx_model), ("fy", fy_model)):
        if model.schema != SCHEMAS[role]:
            raise SchemaError(
                f"the {role} model predicts {model.schema.target.name!r} from "
                f"{list(model.schema.feature_names)}; expected the {role} schema, which "
                f"predicts {SCHEMAS[role].target.name!r} from {list(SCHEMAS[role].feature_names)}"
            )
    fx_bg = background_of(fx_model)
    fy_bg = background_of(fy_model)

    def fx_scalar(f):
        return predict(fx_model, f)

    def fy_scalar(f):
        return predict(fy_model, f)

    # One extra day of profiles so the last interval still has a 2 h forecast.
    profiles = [synth_disturbances(day, cfg) for day in range(n_days + 1)]

    def disturbance_at(hour: int) -> Disturbance:
        return profiles[hour // 24][hour % 24]

    state = ZoneState(0, INITIAL_ZONE_TEMP_C)
    records: list[TimestepRecord] = []
    # The feature vectors each decision costed, attributed once control is done.
    hours_h1: list[np.ndarray] = []
    hours_h2: list[np.ndarray] = []
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
        hours_h1.append(features(decision.u1_c, state.zone_temp_c, d1))
        hours_h2.append(features(decision.u2_c, decision.x1_c, d2))

        next_state, hvac = step(state, d1, decision.u1_c, cfg)
        records.append(TimestepRecord(
            t=t,
            zone_temp_c=state.zone_temp_c,
            oa_temp_c=d1.oa_temp_c,
            oa_radiation_wm2=d1.oa_radiation_wm2,
            occupancy=d1.occupancy,
            oa_temp_t2_c=d2.oa_temp_c,
            oa_radiation_t2_wm2=d2.oa_radiation_wm2,
            occupancy_t2=d2.occupancy,
            cooling_rate_w=hvac.cooling_rate_w,
            p_limit_t1_w=problem.p_limit_t1_w,
            p_limit_t2_w=problem.p_limit_t2_w,
            decision=decision,
            attributions={},
            opt_seconds=opt_seconds,
        ))
        state = next_state

    # One attribution call per model over the whole episode: [h1 rows; h2 rows].
    hours = np.array(hours_h1 + hours_h2)
    fx_attributions = shapley(fx_model, hours, fx_bg)
    fy_attributions = shapley(fy_model, hours, fy_bg)
    n = len(records)
    for t, record in enumerate(records):
        record.attributions = dict(zip(ATTRIBUTION_KEYS, (
            fx_attributions[t], fy_attributions[t], fx_attributions[n + t], fy_attributions[n + t]
        )))

    return Episode(
        seeds={"run": seed, "testbed": cfg.rng_seed},
        model_digests={"fx": digest(fx_model), "fy": digest(fy_model)},
        records=records,
        calendar=dict(dr_calendar),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_episode(episode: Episode, path: str | Path, include_timing: bool = True) -> None:
    """Write header plus one record per line, sealed with the lines' sha256.

    Record p must be hour p under the calendar's limits, as ``run_episode``
    builds it, because the loader takes both from the line and the header.
    ``include_timing=False`` writes the canonical form: identical runs
    produce byte-identical files because per-step wall-clock is omitted.  The
    digest is known only after the last record, so the header is written,
    and hashed, with a placeholder of the same width that is then
    overwritten.
    """
    header = {
        "version": EPISODE_VERSION,
        "kind": "episode",
        "n_records": len(episode.records),
        "records_sha256": _UNSEALED.decode(),  # overwritten in place once the records are out
        "seeds": episode.seeds,
        "model_digests": episode.model_digests,
        "calendar": calendar_to_json(episode.calendar),
    }
    head = (json.dumps(header, separators=(",", ":")) + "\n").encode()
    seal = hashlib.sha256(head)
    with atomic_write(path, binary=True) as fh:
        fh.write(head)
        for position, record in enumerate(episode.records):
            if record.t != position:
                raise InvalidInputError(f"record {position} holds hour {record.t}, not {position}")
            stored = [record.p_limit_t1_w, record.p_limit_t2_w]
            limits = [power_limit_at(episode.calendar, position + k) for k in (1, 2)]
            if stored != limits:
                raise InvalidInputError(f"record {position} holds limits {stored}, not {limits}")
            line = json.dumps(record.to_json(include_timing), separators=(",", ":")) + "\n"
            line = line.encode()
            seal.update(line)
            fh.write(line)
        fh.seek(head.index(_SEAL_KEY) + len(_SEAL_KEY))
        fh.write(seal.hexdigest().encode())


def load_episode(path: str | Path, hour: int | None = None) -> Episode:
    """Read an episode file: every record, or with ``hour`` only the one at that hour.

    Every line is hashed, and the record count and ``records_sha256`` are
    checked against the header.  A matching digest means every line is
    as written, so only the requested record is decoded: hour t is record t.
    """
    path = Path(path)
    header, calendar, records = _read_episode(path, hour)
    if hour is not None and not records:
        if not header["n_records"]:
            raise InvalidInputError("episode has no records")
        raise InvalidInputError(
            f"hour {hour} not in episode (valid range 0..{header['n_records'] - 1})"
        )
    return Episode(
        seeds=header.get("seeds", {}),
        model_digests=header.get("model_digests", {}),
        records=records,
        calendar=calendar,
    )


def _read_episode(path: Path, hour: int | None) -> tuple[dict, dict, list[TimestepRecord]]:
    """The header, its calendar and the decoded records, after one checked pass.

    ``hour=None`` decodes every record, otherwise only the one at ``hour``.
    The digest covers the header line, its CR/LF ending replaced by one
    ``\\n`` and its own digest zeroed, then each non-blank record line,
    ended the same way.
    """
    records: list[TimestepRecord] = []
    with path.open("rb") as fh:
        first = fh.readline()
        if not first:
            raise EpisodeIntegrityError(f"{path}: empty episode file")
        try:
            header = json.loads(first)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise EpisodeIntegrityError(f"{path}:1: bad header ({exc})") from None
        if not isinstance(header, dict):
            raise EpisodeIntegrityError(f"{path}:1: header is not a JSON object")
        if header.get("kind") != "episode":
            raise EpisodeIntegrityError(
                f"{path}: not an episode file (kind={header.get('kind')!r})"
            )
        if header.get("version") != EPISODE_VERSION:
            raise EpisodeIntegrityError(
                f"{path}: episode format version {header.get('version')!r} is not "
                f"{EPISODE_VERSION}; re-run `xmpc run` to rebuild the episode"
            )
        if "records_sha256" not in header:
            raise EpisodeIntegrityError(f"{path}:1: header lacks its seal, records_sha256")
        calendar = calendar_from_json(header.get("calendar"), f"{path}:1 calendar")
        sealed = str(header["records_sha256"])
        head = first.rstrip(b"\r\n") + b"\n"
        seal = hashlib.sha256(head.replace(_SEAL_KEY + sealed.encode(), _SEAL_KEY + _UNSEALED, 1))
        position = 0
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip(b"\r\n")
            if not line or line.isspace():
                continue
            seal.update(line)
            seal.update(b"\n")
            if hour is None or position == hour:
                try:
                    records.append(TimestepRecord.from_json(json.loads(line), position, calendar))
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    raise EpisodeIntegrityError(f"{path}:{lineno}: bad record ({exc})") from None
            position += 1
    declared = header.get("n_records")
    if declared != position:
        raise EpisodeIntegrityError(
            f"{path}: header declares {declared} records but file holds {position}"
        )
    if sealed != seal.hexdigest():
        raise EpisodeIntegrityError(
            f"{path}: lines do not match the header's records_sha256 (edited since written?)"
        )
    return header, calendar, records


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
