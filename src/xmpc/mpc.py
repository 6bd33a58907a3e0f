"""Two-hour setpoint optimization over the trained surrogates.

Each control interval the controller picks cooling setpoints (u1, u2) for
the coming two hours from ``testbed.SETPOINT_GRID_C``, the 1 K grid 22..26
degC, by exhaustively costing all 25 pairs.  A candidate's cost is the
predicted cooling power plus a quadratic penalty for exceeding each hour's
demand-response power limit:

    J(u1, u2) = y1 + V(y1, L1) + y2 + V(y2, L2)
    V(y, L)   = (y - L)^2  if y > L  else  0

The rollout chains the surrogates hour by hour.  Both models read the same
per-hour feature vector (the hour's setpoint, the zone temperature entering
the hour, and that hour's boundary conditions): the temperature model
returns the zone temperature an hour later, the cooling model that hour's
average power.  A decision keeps the raw network outputs, and cooling
rates are clamped at zero from below wherever they are costed, since a
slightly negative output is a model artifact, not a real power.

Predictors must be deterministic: the same feature vector must always give
the same prediction.  ``optimize`` relies on it to predict the first hour
once per u1 and reuse it for every u2, which costs 2g + 2g^2 model calls on
a g-point grid (60 for the 5-point grid) where rolling out each pair
afresh costs 4g^2 (100), with the same decisions and candidate table.

Cost ties prefer the larger u1 and then the larger u2, so the controller
only moves off the comfort ceiling for a strict cost advantage.  With the
untightened 5000 W limits this makes (26, 26) the resting choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import InvalidInputError, OptimizationFailedError
from .fileio import check_keys, finite_number
from .testbed import SETPOINT_GRID_C, Disturbance

Predictor = Callable[[np.ndarray], float]


@dataclass
class MpcProblem:
    """One control interval: measured state, two-hour forecast, limits, models.

    ``fx`` and ``fy`` map the five-feature vector
    (setpoint, zone_temp, oa_temp, oa_radiation, occupancy) to the next zone
    temperature and the hour's cooling rate respectively.
    """

    zone_temp_c: float
    d1: Disturbance
    d2: Disturbance
    p_limit_t1_w: float
    p_limit_t2_w: float
    fx: Predictor
    fy: Predictor

    def __post_init__(self):
        if not math.isfinite(self.zone_temp_c):
            raise InvalidInputError(f"zone temperature {self.zone_temp_c!r} is not finite")
        for name in ("d1", "d2"):
            forecast = getattr(self, name)
            for f in fields(forecast):
                value = getattr(forecast, f.name)
                if not math.isfinite(value):
                    raise InvalidInputError(f"forecast {name}.{f.name} {value!r} is not finite")
        for name in ("p_limit_t1_w", "p_limit_t2_w"):
            limit = getattr(self, name)
            if not math.isfinite(limit) or limit <= 0.0:
                raise InvalidInputError(f"{name} must be positive and finite, got {limit!r}")


@dataclass
class MpcDecision:
    """One costed setpoint pair: its raw predictions, penalties and total cost.

    ``rollout`` returns a pair with an empty ``candidates`` table; ``optimize``
    returns the cheapest pair with the table of every pair it costed.  Its
    JSON form holds only the four network outputs and the table's costs.
    """

    u1_c: float
    u2_c: float
    x1_c: float
    x2_c: float
    y1_w: float
    y2_w: float
    v1: float
    v2: float
    cost: float
    candidates: list[tuple[float, float, float]] = field(default_factory=list)

    def to_json(self) -> dict:
        data = {name: getattr(self, name) for name in _DECISION_KEYS[:-1]}
        data["costs"] = [cost if math.isfinite(cost) else None for _, _, cost in self.candidates]
        return data

    @classmethod
    def from_json(cls, data: dict, p_limit_t1_w: float, p_limit_t2_w: float) -> "MpcDecision":
        """Decode ``to_json`` output: the chosen pair is the first cheapest, the tie-break."""
        check_keys(data, _DECISION_KEYS)
        x1, x2, y1, y2 = (finite_number(data[name], name) for name in _DECISION_KEYS[:-1])
        pairs = _pairs()
        if not isinstance(data["costs"], list) or len(data["costs"]) != len(pairs):
            raise ValueError(f"costs must list {len(pairs)} entries, one per setpoint pair")
        table = [(u1, u2, math.inf if c is None else finite_number(c, "cost"))
                 for (u1, u2), c in zip(pairs, data["costs"])]
        u1, u2, cost = min(table, key=lambda candidate: candidate[2])
        v1, v2 = penalty(clamp_power(y1), p_limit_t1_w), penalty(clamp_power(y2), p_limit_t2_w)
        # optimize's own sum, bit for bit; this also refuses a table of nulls (cost inf).
        if cost != clamp_power(y1) + v1 + clamp_power(y2) + v2:
            raise ValueError(f"chosen cost {cost!r} is not max(0, y1_w) + v1 + max(0, y2_w) + v2")
        return cls(u1, u2, x1, x2, y1, y2, v1, v2, cost, table)

    def candidate_cost(self, u1: float, u2: float) -> float:
        for cu1, cu2, cost in self.candidates:
            if cu1 == u1 and cu2 == u2:
                return cost
        raise KeyError(f"pair ({u1}, {u2}) not in candidate table")


# The serialized decision: the chosen pair, its penalties and its cost are derived.
_DECISION_KEYS = ("x1_c", "x2_c", "y1_w", "y2_w", "costs")


def penalty(power_w: float, p_limit_w: float) -> float:
    """Quadratic overshoot penalty in W^2; zero at or below the limit."""
    if not math.isfinite(p_limit_w) or p_limit_w <= 0.0:
        raise InvalidInputError(f"power limit must be positive and finite, got {p_limit_w!r}")
    if power_w > p_limit_w:
        try:
            return (power_w - p_limit_w) ** 2
        except OverflowError:  # float ** raises where * would give inf
            return math.inf
    return 0.0


def setpoint_grid(problem: MpcProblem) -> list[float]:
    """Candidate setpoints, ascending: the same grid for every interval."""
    return list(SETPOINT_GRID_C)


def _pairs() -> list[tuple[float, float]]:
    """The setpoint pairs in the order ``optimize`` costs them: u1, then u2, from the top down."""
    grid = SETPOINT_GRID_C[::-1]
    return [(u1, u2) for u1 in grid for u2 in grid]


def features(setpoint: float, zone_temp: float, d: Disturbance) -> np.ndarray:
    """The five-feature vector both surrogates read for one hour."""
    return np.array([setpoint, zone_temp, d.oa_temp_c, d.oa_radiation_wm2, d.occupancy])


def clamp_power(value: float) -> float:
    """A finite cooling prediction as costed: a negative network output is no power."""
    return max(0.0, value)


def _first_hour(problem: MpcProblem, u1: float) -> tuple[float, float]:
    """Predicted zone temperature and cooling rate after hour one."""
    f1 = features(u1, problem.zone_temp_c, problem.d1)
    return float(problem.fx(f1)), float(problem.fy(f1))


def _second_hour(problem: MpcProblem, u1: float, x1: float, y1: float, u2: float) -> MpcDecision:
    """Finish the rollout of (u1, u2) from hour one's predictions."""
    x2 = y2 = v1 = v2 = cost = math.nan
    if math.isfinite(x1) and math.isfinite(y1):
        f2 = features(u2, x1, problem.d2)
        x2 = float(problem.fx(f2))
        y2 = float(problem.fy(f2))
        if math.isfinite(x2) and math.isfinite(y2):
            p1, p2 = clamp_power(y1), clamp_power(y2)
            v1, v2 = penalty(p1, problem.p_limit_t1_w), penalty(p2, problem.p_limit_t2_w)
            cost = p1 + v1 + p2 + v2
    return MpcDecision(
        u1_c=u1, u2_c=u2, x1_c=x1, x2_c=x2, y1_w=y1, y2_w=y2, v1=v1, v2=v2, cost=cost
    )


def rollout(problem: MpcProblem, u1: float, u2: float) -> MpcDecision:
    """Chain the surrogates over the two horizon hours for one setpoint pair."""
    return _second_hour(problem, u1, *_first_hour(problem, u1), u2)


def optimize(problem: MpcProblem) -> MpcDecision:
    """Exhaustively cost every setpoint pair and return the argmin.

    Iteration runs from large setpoints down and a candidate replaces the
    incumbent only on strictly lower cost, which implements the tie-break
    (prefer larger u1, then larger u2) without a separate comparison pass.
    The returned candidate table lists all pairs in that evaluation order.
    """
    best: MpcDecision | None = None
    candidates: list[tuple[float, float, float]] = []
    # Hour one depends on u1 alone: predict it once for all of u1's pairs.
    first_hours = {u1: _first_hour(problem, u1) for u1 in SETPOINT_GRID_C}
    for u1, u2 in _pairs():
        pair = _second_hour(problem, u1, *first_hours[u1], u2)
        candidates.append((u1, u2, pair.cost))
        if math.isfinite(pair.cost) and (best is None or pair.cost < best.cost):
            best = pair
    if best is None:
        raise OptimizationFailedError(
            f"all {len(candidates)} setpoint candidates evaluated to non-finite cost"
        )
    best.candidates = candidates
    return best
