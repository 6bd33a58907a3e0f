"""Single-zone thermal testbed with ideal cooling and demand-response limits.

The zone is a lumped first-order (1R1C) model.  Between hour ticks the zone
air/mass node obeys

    C * dT/dt = (T_oa - T_z) / R + solar * A_s + occupants * g_p - Q_cool

integrated with a single explicit Euler step of 3600 s per simulated hour.
Cooling is ideal and setpoint-tracking: each hour the HVAC delivers exactly
the power needed to land the zone on the cooling setpoint, up to its rated
capacity, and delivers nothing when the zone would free-float at or below
the setpoint.  A heating setpoint exists as a lower comfort bound but never
engages under the default summer weather.

Time conventions used throughout the package:

* series are indexed by the hour in which they apply, so ``disturbances[t]``
  and an applied setpoint at index ``t`` govern the interval from tick t to
  tick t+1, and ``step`` returns the zone temperature at tick t+1 together
  with the average cooling rate over that interval;
* the demand-response calendar is indexed by the reporting tick, i.e.
  ``calendar[h]`` limits the cooling rate reported at hour h (the power
  delivered during the hour ending at h).  Outside events the limit is a
  5000 W ceiling that normal operation does not reach.

Synthetic weather is a deterministic function of (seed, day): a sinusoidal
dry-bulb profile peaking at 14:00, a daytime half-sine direct solar profile,
and a weekday office occupancy schedule.  Default parameters are sized so
that holding 26 degC through the hottest afternoons takes roughly 2 to 3 kW,
which makes the 750 to 1750 W event limits bind.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DeserializationError, InvalidInputError, SimulationDivergedError

DT_SECONDS = 3600.0

# Validation bands.  Setpoints outside [20, 30] degC are rejected as input
# errors; zone temperatures outside [0, 60] degC mean the integration blew up.
SETPOINT_MIN_C = 20.0
SETPOINT_MAX_C = 30.0
TEMP_PLAUSIBLE_MIN_C = 0.0
TEMP_PLAUSIBLE_MAX_C = 60.0

# Demand-response constants: the limit outside events, the uniform range the
# event limits are drawn from, and the hour-of-day window events fall in.
NORMAL_POWER_LIMIT_W = 5000.0
EVENT_LIMIT_MIN_W = 750.0
EVENT_LIMIT_MAX_W = 1750.0
EVENT_HOUR_MIN = 11
EVENT_HOUR_MAX = 18

CSV_COLUMNS = (
    "time_hour",
    "setpoint_c",
    "zone_temp_c",
    "oa_temp_c",
    "oa_radiation_wm2",
    "occupancy",
    "next_zone_temp_c",
    "next_cooling_rate_w",
)


@dataclass
class TestbedConfig:
    """Physical parameters plus the synthetic weather/occupancy generator knobs.

    ``thermal_resistance`` is the envelope resistance in K/W and
    ``thermal_capacitance`` the lumped zone capacitance in J/K, so the open
    loop time constant is R*C (about 11 h with the defaults).
    ``solar_gain_area`` converts direct radiation in W/m2 to a heat gain in W.
    """

    thermal_resistance: float = 0.005
    thermal_capacitance: float = 8.0e6
    solar_gain_area: float = 0.7
    internal_gain_per_person: float = 100.0
    cooling_capacity: float = 6000.0
    heating_setpoint: float = 20.0
    rng_seed: int = 0

    # Weather shape: dry-bulb peaks at peak - swing/2 + swing/2 = peak at
    # 14:00 and bottoms out 'swing' lower at 02:00.  Each day's maximum is
    # jittered within +-oa_temp_jitter, and solar is scaled by a per-day
    # clearness factor in [clearness_min, 1].
    oa_temp_max: float = 35.0
    oa_temp_swing: float = 10.0
    oa_temp_jitter: float = 2.0
    radiation_peak_wm2: float = 600.0
    clearness_min: float = 0.7
    occupants: int = 3
    occupied_start_hour: int = 8
    occupied_end_hour: int = 17

    def __post_init__(self):
        for name in (
            "thermal_resistance",
            "thermal_capacitance",
            "solar_gain_area",
            "internal_gain_per_person",
            "cooling_capacity",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise InvalidInputError(f"{name} must be a positive finite number, got {value!r}")
        if not 0 <= self.occupied_start_hour <= self.occupied_end_hour <= 24:
            raise InvalidInputError("occupied hours must satisfy 0 <= start <= end <= 24")


@dataclass
class ZoneState:
    """Zone condition at an hour tick: the hour index and the air temperature."""

    hour: int
    zone_temp_c: float


@dataclass
class Disturbance:
    """Uncontrolled boundary conditions for one hour."""

    oa_temp_c: float
    oa_radiation_wm2: float
    occupancy: float

    def __post_init__(self):
        if self.oa_radiation_wm2 < 0.0:
            raise InvalidInputError(f"radiation must be >= 0, got {self.oa_radiation_wm2}")
        if self.occupancy < 0.0:
            raise InvalidInputError(f"occupancy must be >= 0, got {self.occupancy}")


@dataclass
class HvacOutput:
    """Average cooling delivered over one hour, in W."""

    cooling_rate_w: float


@dataclass
class DrEvent:
    """One demand-response event: a 1 h power limit on a given day."""

    day: int
    start_hour: int
    power_limit_w: float
    duration_hours: int = 1


# ---------------------------------------------------------------------------
# Core dynamics
# ---------------------------------------------------------------------------


def step(
    state: ZoneState,
    disturbance: Disturbance,
    cooling_setpoint_c: float,
    cfg: TestbedConfig,
) -> tuple[ZoneState, HvacOutput]:
    """Advance the zone by one hour under the given setpoint.

    The free-float temperature after one Euler step is computed first; the
    HVAC then removes exactly enough heat to land on the cooling setpoint
    (capped at ``cooling_capacity``), or nothing if the zone stays at or
    below the setpoint on its own.  The returned cooling rate is the hour
    average in W.
    """
    values = (state.zone_temp_c, disturbance.oa_temp_c, disturbance.oa_radiation_wm2,
              disturbance.occupancy, cooling_setpoint_c)
    if not all(math.isfinite(v) for v in values):
        raise InvalidInputError(f"non-finite input to step: {values}")
    if not SETPOINT_MIN_C <= cooling_setpoint_c <= SETPOINT_MAX_C:
        raise InvalidInputError(
            f"cooling setpoint {cooling_setpoint_c} degC outside "
            f"[{SETPOINT_MIN_C}, {SETPOINT_MAX_C}]"
        )

    gains_w = (
        disturbance.oa_radiation_wm2 * cfg.solar_gain_area
        + disturbance.occupancy * cfg.internal_gain_per_person
    )
    conduction_w = (disturbance.oa_temp_c - state.zone_temp_c) / cfg.thermal_resistance
    free_float_c = state.zone_temp_c + DT_SECONDS / cfg.thermal_capacitance * (
        conduction_w + gains_w
    )

    if free_float_c <= cooling_setpoint_c:
        cooling_w = 0.0
        # Lower comfort bound; inert under the default summer weather.
        next_temp_c = max(free_float_c, cfg.heating_setpoint)
    else:
        hold_w = cfg.thermal_capacitance * (free_float_c - cooling_setpoint_c) / DT_SECONDS
        if hold_w <= cfg.cooling_capacity:
            cooling_w = hold_w
            next_temp_c = cooling_setpoint_c
        else:
            cooling_w = cfg.cooling_capacity
            next_temp_c = free_float_c - DT_SECONDS / cfg.thermal_capacitance * cooling_w

    if not TEMP_PLAUSIBLE_MIN_C <= next_temp_c <= TEMP_PLAUSIBLE_MAX_C:
        raise SimulationDivergedError(
            f"zone temperature {next_temp_c:.2f} degC at hour {state.hour + 1} "
            f"left the plausible band [{TEMP_PLAUSIBLE_MIN_C}, {TEMP_PLAUSIBLE_MAX_C}]"
        )
    return ZoneState(state.hour + 1, next_temp_c), HvacOutput(cooling_w)


# ---------------------------------------------------------------------------
# Synthetic boundary conditions
# ---------------------------------------------------------------------------


def synth_disturbances(day: int, cfg: TestbedConfig) -> list[Disturbance]:
    """Deterministic 24-hour weather and occupancy profile for one day.

    The dry-bulb sinusoid peaks at 14:00 at that day's jittered maximum.
    Direct radiation is a half-sine between 06:00 and 18:00 scaled by a
    per-day clearness factor.  Occupancy follows a weekday office schedule
    (day 0 is a Monday; days 5 and 6 of each week are empty).
    """
    rng = np.random.default_rng([cfg.rng_seed, day])
    day_max_c = cfg.oa_temp_max + rng.uniform(-cfg.oa_temp_jitter, cfg.oa_temp_jitter)
    clearness = rng.uniform(cfg.clearness_min, 1.0)
    weekday = day % 7 < 5

    out = []
    for hour in range(24):
        oa_temp = day_max_c - cfg.oa_temp_swing / 2.0 * (
            1.0 - math.sin(2.0 * math.pi * (hour - 8) / 24.0)
        )
        if 6 <= hour <= 18:
            radiation = clearness * cfg.radiation_peak_wm2 * math.sin(
                math.pi * (hour - 6) / 12.0
            )
        else:
            radiation = 0.0
        occupied = weekday and cfg.occupied_start_hour <= hour < cfg.occupied_end_hour
        occupancy = float(cfg.occupants) if occupied else 0.0
        out.append(Disturbance(oa_temp, max(radiation, 0.0), occupancy))
    return out


def generate_dr_calendar(
    n_days: int, event_probability: float, seed: int
) -> dict[int, float]:
    """Draw the demand-response calendar: hour index -> power limit in W.

    Each day independently hosts at most one event with the given
    probability.  An event picks a start hour uniformly in [11, 18], lasts
    one hour, and draws its limit uniformly from [750, 1750] W.  All other
    hours carry the 5000 W normal limit.  ``calendar[h]`` bounds the cooling
    rate reported at hour h.
    """
    if not 0.0 <= event_probability <= 1.0:
        raise InvalidInputError(f"event probability must be in [0, 1], got {event_probability}")
    rng = np.random.default_rng(seed)
    calendar = {h: NORMAL_POWER_LIMIT_W for h in range(24 * n_days)}
    for day in range(n_days):
        if rng.random() >= event_probability:
            continue
        start = int(rng.integers(EVENT_HOUR_MIN, EVENT_HOUR_MAX + 1))
        limit = float(rng.uniform(EVENT_LIMIT_MIN_W, EVENT_LIMIT_MAX_W))
        calendar[day * 24 + start] = limit
    return calendar


def events_in_calendar(calendar: dict[int, float]) -> list[DrEvent]:
    """Recover the event list from a calendar (entries below the normal limit)."""
    events = []
    for hour in sorted(calendar):
        limit = calendar[hour]
        if limit < NORMAL_POWER_LIMIT_W:
            events.append(DrEvent(day=hour // 24, start_hour=hour % 24, power_limit_w=limit))
    return events


def power_limit_at(calendar: dict[int, float], hour: int) -> float:
    """Limit for the cooling rate reported at ``hour`` (normal limit off-calendar)."""
    return calendar.get(hour, NORMAL_POWER_LIMIT_W)


# ---------------------------------------------------------------------------
# Excitation dataset
# ---------------------------------------------------------------------------


class ExcitationData:
    """Hourly transition records collected under a random setpoint schedule.

    Column layout is fixed (``CSV_COLUMNS``): the features known at the start
    of hour t, then the two outcomes of that hour (the zone temperature at
    t+1 and the average cooling rate over the hour).
    """

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(CSV_COLUMNS):
            raise DeserializationError(
                f"excitation data must have {len(CSV_COLUMNS)} columns, got shape {rows.shape}"
            )
        self.rows = rows

    def __len__(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = CSV_COLUMNS.index(name)
        except ValueError:
            raise KeyError(f"unknown column {name!r}; have {CSV_COLUMNS}") from None
        return self.rows[:, idx]

    __getitem__ = column

    def to_csv(self, path: str | Path) -> None:
        """Write the dataset with floats at 6 decimal places for stable hashing."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([str(int(row[0]))] + [f"{v:.6f}" for v in row[1:]])

    @classmethod
    def from_csv(cls, path: str | Path) -> "ExcitationData":
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DeserializationError(f"{path} is empty") from None
            if tuple(header) != CSV_COLUMNS:
                raise DeserializationError(
                    f"{path} has unexpected header {header}; expected {list(CSV_COLUMNS)}"
                )
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(CSV_COLUMNS):
                    raise DeserializationError(
                        f"{path}:{lineno}: expected {len(CSV_COLUMNS)} fields, got {len(row)}"
                    )
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise DeserializationError(f"{path}:{lineno}: {exc}") from None
        if not rows:
            raise DeserializationError(f"{path} contains a header but no data rows")
        return cls(np.array(rows))


def run_excitation(
    n_days: int,
    cfg: TestbedConfig,
    seed: int,
    initial_zone_temp_c: float = 24.0,
) -> ExcitationData:
    """Simulate ``n_days`` under an hourly random setpoint schedule.

    Setpoints are drawn uniformly from the integer grid {22..26} degC, which
    exercises both free-float hours and deep pull-downs so the surrogate
    models see the full operating envelope.
    """
    if n_days < 1:
        raise InvalidInputError(f"n_days must be >= 1, got {n_days}")
    rng = np.random.default_rng(seed)
    state = ZoneState(0, initial_zone_temp_c)
    records = []
    for day in range(n_days):
        profile = synth_disturbances(day, cfg)
        for hour in range(24):
            d = profile[hour]
            setpoint = float(rng.integers(22, 27))
            nxt, hvac = step(state, d, setpoint, cfg)
            records.append(
                [
                    state.hour,
                    setpoint,
                    state.zone_temp_c,
                    d.oa_temp_c,
                    d.oa_radiation_wm2,
                    d.occupancy,
                    nxt.zone_temp_c,
                    hvac.cooling_rate_w,
                ]
            )
            state = nxt
    return ExcitationData(np.array(records))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_config(cfg: TestbedConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(cfg), indent=2) + "\n")


def load_config(path: str | Path, rng_seed: int = 0) -> TestbedConfig:
    """Read a config written by ``save_config``, or a subset of its fields.

    Omitted fields keep their defaults; ``rng_seed`` stands in for a missing seed.
    """
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise DeserializationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise DeserializationError(f"{path}: expected a JSON object, got {type(data).__name__}")
    kinds = {f.name: type(f.default) for f in fields(TestbedConfig)}
    unknown = set(data) - set(kinds)
    if unknown:
        raise DeserializationError(f"{path}: unknown config fields {sorted(unknown)}")
    for name, value in data.items():
        allowed = (int, float) if kinds[name] is float else kinds[name]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise DeserializationError(
                f"{path}: {name} must be of type {kinds[name].__name__}, got {value!r}"
            )
    return TestbedConfig(**{"rng_seed": rng_seed, **data})


def save_calendar(calendar: dict[int, float], path: str | Path) -> None:
    payload = {"version": 1, "limits": {str(h): calendar[h] for h in sorted(calendar)}}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_calendar(path: str | Path) -> dict[int, float]:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DeserializationError(f"{path}: invalid JSON ({exc})") from None
    if "limits" not in data:
        raise DeserializationError(f"{path}: missing 'limits' field")
    return {int(h): float(v) for h, v in data["limits"].items()}
