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

Episodes serialize to JSON lines: a header object, then one record per line;
this module alone reads and writes them.  Each number is stored once.  A
record holds the zone temperature, the hour's boundary conditions under
``Disturbance``'s field names, the realized cooling rate, the decision's
four raw network outputs and its candidate table, the 25 costs in
``setpoint_pairs()`` order (null where not finite), each attribution as an
object of its phi alone, and the optimization wall-clock.  The rest is
derived: the hour is the record's line, its limits are the header
calendar's at t + 1 and t + 2, its second hour's boundary conditions the
next line's (the last record's are the header's ``after_last``), the
chosen pair is ``mpc.cheapest``'s, its cost J is ``mpc.pair_cost``'s, the
scenario is ``classify(record)``, and an attribution's feature names,
values, base value and prediction are its schema's, the vector the decision
costed, the header's for its model and the decision's output it explains.
In memory too a record holds its phi once, as one (4, n) array, with the
episode's base values; ``record.attributions`` builds its four
``Attribution`` objects on each access, their phi views of that array.
The header also carries the format version (7, the only one that loads),
the run and weather seeds, model digests, the DR calendar (each event hour
as a decimal string in canonical form, with no sign or leading zero, mapped
to its positive limit), the record count and ``records_sha256``, a digest
over the header line (its own digest zeroed) and every record line that
seals the file.  Without the wall-clock (canonical form), reruns with equal
seeds are byte-identical.

``load_episode`` checks the seal before it decodes a record, then decodes
only the requested record and the next line: the seal vouches for the rest.
A record, its decision and each attribution must be JSON objects of exactly
the format's keys, their numbers finite, and its parts must agree: physical
boundary conditions and cooling rate, a chosen cost equal to its clamped
powers plus penalties, and attributions that add up from the header's base
values to the decision's outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import reprlib
import time
from array import array
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DeserializationError, EpisodeIntegrityError, InvalidInputError, SchemaError
from .fileio import atomic_write, check_keys, finite_number
from .mpc import MpcDecision, MpcProblem, cheapest, features, optimize, pair_cost, setpoint_pairs
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
    power_limit_at,
    step,
    synth_disturbances,
)

EPISODE_VERSION = 7

# Reference per-interval optimization time that timing reports quote.
REFERENCE_OPT_SECONDS = 4.19

# The header's digest field, and its value while the digest is being computed.
_SEAL_KEY = b'"records_sha256":"'
_UNSEALED = b"0" * 64

# One attribution per horizon prediction, by model and reporting tick: the output it explains.
ATTRIBUTION_KEYS = {"fx_t1": "x1_c", "fy_t1": "y1_w", "fx_t2": "x2_c", "fy_t2": "y2_w"}

COMFORT_CEILING_C = SETPOINT_GRID_C[-1]


@dataclass
class TimestepRecord:
    """Everything observed, decided, and explained at one control interval.

    Its attributions are held once, as ``phi`` and the episode's ``base_values``."""

    t: int
    zone_temp_c: float
    disturbance: Disturbance
    disturbance_t2: Disturbance  # the second hour's: hour t + 1's own
    cooling_rate_w: float
    p_limit_t1_w: float
    p_limit_t2_w: float
    decision: MpcDecision
    phi: np.ndarray  # (4, n): one row per attribution, in ATTRIBUTION_KEYS order
    base_values: dict[str, float]  # the episode's, shared: model role -> base value
    opt_seconds: float | None = None

    @property
    def attributions(self) -> dict[str, Attribution]:
        """The four attributions, built on each access, each phi a view of its row of ``phi``."""
        d = self.decision
        h1 = features(d.u1_c, self.zone_temp_c, self.disturbance)
        h2 = features(d.u2_c, d.x1_c, self.disturbance_t2)
        return {key: Attribution(SCHEMAS[key[:2]].feature_names, values.copy(), phi,
                                 self.base_values[key[:2]], getattr(d, output))
                for (key, output), values, phi in zip(ATTRIBUTION_KEYS.items(), (h1, h1, h2, h2),
                                                      self.phi)}

    def to_json(self, include_timing: bool = True) -> dict:
        data = {"zone_temp_c": self.zone_temp_c, **asdict(self.disturbance),
                "cooling_rate_w": self.cooling_rate_w,
                "decision": decision_to_json(self.decision),
                "attributions": {key: {"phi": phi.tolist()}
                                 for key, phi in zip(ATTRIBUTION_KEYS, self.phi)}}
        if include_timing and self.opt_seconds is not None:
            data["opt_seconds"] = self.opt_seconds
        return data

    @classmethod
    def from_json(cls, data: dict, t: int, calendar: dict, base_values: dict,
                  after: Disturbance) -> "TimestepRecord":
        """Decode hour ``t`` given the header's calendar and base values and hour t + 1's ``after``.

        Raise ``ValueError`` unless its parts agree.
        """
        check_keys(data, _RECORD_KEYS, "record", optional=("opt_seconds",))
        attributions = data["attributions"]
        check_keys(attributions, ATTRIBUTION_KEYS, "attributions")
        scalars = {name: finite_number(data[name], name)
                   for name in ("zone_temp_c", "cooling_rate_w", "opt_seconds") if name in data}
        rate = scalars["cooling_rate_w"]
        if not 0.0 <= rate <= COOLING_CAPACITY_W:
            raise ValueError(f"cooling_rate_w must be in [0, {COOLING_CAPACITY_W}], got {rate!r}")
        p1, p2 = power_limit_at(calendar, t + 1), power_limit_at(calendar, t + 2)
        d = decision_from_json(data["decision"], p1, p2)
        disturbance = _disturbance(data, "record")
        rows = []
        for key in ATTRIBUTION_KEYS:
            check_keys(attributions[key], ("phi",), key)
            phi, names = attributions[key]["phi"], SCHEMAS[key[:2]].feature_names
            if not isinstance(phi, list) or len(phi) != len(names):
                raise ValueError(f"phi must list {len(names)} numbers, one per feature")
            rows.append([finite_number(p, "phi") for p in phi])
        record = cls(t, disturbance=disturbance, disturbance_t2=after, p_limit_t1_w=p1,
                     p_limit_t2_w=p2, decision=d, phi=np.array(rows), base_values=base_values,
                     **scalars)
        for (key, output), a in zip(ATTRIBUTION_KEYS.items(), record.attributions.values()):
            if not verify_additivity(a)[0]:
                raise ValueError(f"{key} base value + sum(phi) is not the decision's {output}")
        return record

    @property
    def setpoint_c(self) -> float:
        return self.decision.u1_c

    @property
    def scenario(self) -> int:
        return classify(self)


# A record line's keys (the hour, the limits and the second hour are the
# line's, the calendar's and the next line's), and a decision's stored outputs.
_RECORD_KEYS = frozenset(("zone_temp_c", *(f.name for f in fields(Disturbance)),
                          "cooling_rate_w", "decision", "attributions"))
_OUTPUTS = ("x1_c", "x2_c", "y1_w", "y2_w")


def _disturbance(data, part: str) -> Disturbance:
    """The boundary conditions of a record line or the header's ``after_last``, named ``part``."""
    if not isinstance(data, dict):
        raise ValueError(f"{part} must be a JSON object, got {type(data).__name__}")
    missing = [f.name for f in fields(Disturbance) if f.name not in data]
    if missing:
        raise ValueError(f"{part} is missing keys {missing}")
    return Disturbance(*(finite_number(data[f.name], f.name) for f in fields(Disturbance)))


def decision_to_json(decision: MpcDecision) -> dict:
    """The four network outputs and every pair's cost, null where it is not finite."""
    data = {name: getattr(decision, name) for name in _OUTPUTS}
    data["costs"] = [cost if math.isfinite(cost) else None for cost in decision.costs]
    return data


def decision_from_json(data, p_limit_t1_w: float, p_limit_t2_w: float) -> MpcDecision:
    """Decode ``decision_to_json`` output: the 25 costs in ``setpoint_pairs()`` order (null as
    inf), whose chosen pair is ``mpc.cheapest``'s and must cost ``mpc.pair_cost``'s J."""
    check_keys(data, (*_OUTPUTS, "costs"), "decision")
    x1, x2, y1, y2 = (finite_number(data[name], name) for name in _OUTPUTS)
    pairs = setpoint_pairs()
    if not isinstance(data["costs"], list) or len(data["costs"]) != len(pairs):
        raise ValueError(f"costs must list {len(pairs)} entries, one per setpoint pair")
    costs = array("d", (math.inf if c is None else finite_number(c, "cost") for c in data["costs"]))
    best = cheapest(costs)
    if best is None:
        raise ValueError("costs hold no finite entry")
    v1, v2, cost = pair_cost(y1, y2, p_limit_t1_w, p_limit_t2_w)
    if costs[best] != cost:
        raise ValueError(f"chosen cost {costs[best]!r} is not max(0, y1_w) + v1 + max(0, y2_w) + v2")
    return MpcDecision(*pairs[best], x1, x2, y1, y2, v1, v2, costs[best], costs)


def calendar_to_json(calendar: dict[int, float]) -> dict:
    """The calendar as the header holds it: hour (as a string) -> limit, hours ascending."""
    return {str(h): calendar[h] for h in sorted(calendar)}


def calendar_from_json(data, source: str) -> dict[int, float]:
    """A parsed header calendar, named ``source`` in errors, as hour -> limit in W."""
    if not isinstance(data, dict):
        raise DeserializationError(f"{source}: expected a JSON object, got {type(data).__name__}")
    calendar = {}
    for hour, limit in data.items():
        # Canonical form only, so "3" and "03" cannot both name hour 3.
        try:
            canonical = hour.isascii() and hour.isdigit() and hour == str(int(hour))
        except ValueError:  # more digits than int() converts
            canonical = False
        if not canonical:
            raise DeserializationError(f"{source}: hour {reprlib.repr(hour)} is not a canonical "
                                       "non-negative integer")
        try:
            value = finite_number(limit, f"limit for hour {hour}")
        except ValueError as exc:
            raise DeserializationError(f"{source}: {exc}") from None
        if value <= 0.0:
            raise DeserializationError(f"{source}: limit for hour {hour} must be > 0, got {limit!r}")
        calendar[int(hour)] = value
    return calendar


def _provenance_problem(seeds, digests) -> str | None:
    """What is wrong with an episode's seeds or model digests, if anything."""
    if not (isinstance(seeds, dict) and set(seeds) == {"run", "testbed"}
            and all(type(seed) is int and seed >= 0 for seed in seeds.values())):
        return f"seeds must be {{run, testbed}}, each a non-negative integer, got {seeds!r}"
    if not (isinstance(digests, dict) and set(digests) == set(SCHEMAS) and all(
            isinstance(d, str) and re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())):
        return f"model_digests must be {{fx, fy}}, each a sha256 hex digest, got {digests!r}"
    return None


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
    # Every record's base values and its rows of phi, filled in once control is done.
    base_values: dict[str, float] = {}
    phi = np.empty((24 * n_days, len(ATTRIBUTION_KEYS), len(SCHEMAS["fx"].feature_names)))
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
            disturbance=d1,
            disturbance_t2=d2,
            cooling_rate_w=hvac.cooling_rate_w,
            p_limit_t1_w=problem.p_limit_t1_w,
            p_limit_t2_w=problem.p_limit_t2_w,
            decision=decision,
            phi=phi[t],
            base_values=base_values,
            opt_seconds=opt_seconds,
        ))
        state = next_state

    # One attribution call per model over the whole episode: [h1 rows; h2 rows].
    hours = np.array(hours_h1 + hours_h2)
    n, keys = len(records), list(ATTRIBUTION_KEYS)
    for role, model, background in (("fx", fx_model, fx_bg), ("fy", fy_model, fy_bg)):
        for row, attribution in enumerate(shapley(model, hours, background)):
            phi[row % n, keys.index(f"{role}_t{1 + row // n}")] = attribution.shapley_values
        base_values[role] = attribution.base_value  # the same in every row

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

    Record p must be hour p under the calendar's limits, its second hour
    record p + 1's first and its base values record 0's, as ``run_episode``
    builds them, because the loader derives them.  ``include_timing=False``
    writes the canonical form: identical runs produce byte-identical files
    because per-step wall-clock is omitted.  The digest is known only after
    the last record, so the header is written, and hashed, with a
    placeholder of the same width that is then overwritten.
    """
    records = episode.records
    problem = _provenance_problem(episode.seeds, episode.model_digests)
    if problem:
        raise InvalidInputError(problem)
    base_values = records[0].base_values if records else None
    seconds = [r.disturbance for r in records[1:]] + [r.disturbance_t2 for r in records[-1:]]
    header = {
        "version": EPISODE_VERSION,
        "kind": "episode",
        "n_records": len(records),
        "records_sha256": _UNSEALED.decode(),  # overwritten in place once the records are out
        "seeds": episode.seeds,
        "model_digests": episode.model_digests,
        "base_values": base_values,
        "calendar": calendar_to_json(episode.calendar),
        "after_last": asdict(seconds[-1]) if records else None,
    }
    head = (json.dumps(header, separators=(",", ":")) + "\n").encode()
    seal = hashlib.sha256(head)
    with atomic_write(path, binary=True) as fh:
        fh.write(head)
        for p, record in enumerate(records):
            for name, stored, derived in (
                ("hour", record.t, p),
                ("limits", [record.p_limit_t1_w, record.p_limit_t2_w],
                 [power_limit_at(episode.calendar, p + k) for k in (1, 2)]),
                ("second hour", record.disturbance_t2, seconds[p]),
                ("base values", record.base_values, base_values),
            ):
                if stored != derived:
                    raise InvalidInputError(f"record {p} holds {name} {stored}, not {derived}")
            line = json.dumps(record.to_json(include_timing), separators=(",", ":")) + "\n"
            line = line.encode()
            seal.update(line)
            fh.write(line)
        fh.seek(head.index(_SEAL_KEY) + len(_SEAL_KEY))
        fh.write(seal.hexdigest().encode())


def load_episode(path: str | Path, hour: int | None = None) -> Episode:
    """Read an episode file: every record, or with ``hour`` only the one at that hour.

    Every line is hashed, and the record count and ``records_sha256`` are
    checked against the header, before any record is decoded.  A matching
    digest means every line is as written, so only the requested record
    (hour t is record t) and the next line, which holds its second hour's
    boundary conditions, are decoded, from the last back.  The digest covers
    the header line, its CR/LF ending replaced by one ``\\n`` and its own
    digest zeroed, then each non-blank record line, ended the same way.  A
    record line that ends in exactly ``}\\n`` is in that form already and is
    hashed as read; only the lines held for decoding are copied.
    """
    path = Path(path)
    held: list[tuple[int, bytes]] = []  # (line number, line) of the records to decode and the next
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
        sealed = str(header["records_sha256"])
        head = first.rstrip(b"\r\n") + b"\n"
        seal = hashlib.sha256(head.replace(_SEAL_KEY + sealed.encode(), _SEAL_KEY + _UNSEALED, 1))
        position = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.endswith(b"}\n"):  # a line that does is hashed as read
                line = line.rstrip(b"\r\n") + b"\n"
                if line.isspace():  # a blank or whitespace-only line
                    continue
            seal.update(line)
            if hour is None or position - hour in (0, 1):
                held.append((lineno, line[:-1]))
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
    calendar = calendar_from_json(header.get("calendar"), f"{path}:1 calendar")
    problem = _provenance_problem(header.get("seeds"), header.get("model_digests"))
    if problem:
        raise EpisodeIntegrityError(f"{path}:1: {problem}")
    if hour is not None and not 0 <= hour < position:
        if not position:
            raise InvalidInputError("episode has no records")
        raise InvalidInputError(f"hour {hour} not in episode (valid range 0..{position - 1})")
    records: list[TimestepRecord] = []
    try:
        if held:
            base_values = {role: finite_number(header["base_values"][role], f"{role} base value")
                           for role in SCHEMAS}
            after = _disturbance(header["after_last"], "after_last")
    except (KeyError, TypeError, ValueError) as exc:
        raise EpisodeIntegrityError(f"{path}:1: bad header ({exc})") from None
    for t, (lineno, line) in reversed(list(enumerate(held, start=hour or 0))):
        try:
            data = json.loads(line)
            if hour in (None, t):
                records.append(TimestepRecord.from_json(data, t, calendar, base_values, after))
                after = records[-1].disturbance  # one object for both hours that hold it
            else:
                after = _disturbance(data, "record")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise EpisodeIntegrityError(f"{path}:{lineno}: bad record ({exc})") from None
    return Episode(header["seeds"], header["model_digests"], records[::-1], calendar)


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
