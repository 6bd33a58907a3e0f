"""Two-hour setpoint optimization over the trained surrogates.

Each control interval the controller picks cooling setpoints (u1, u2) for
the coming two hours from ``testbed.SETPOINT_GRID_C``, the 1 K grid 22..26
degC, by exhaustively costing all 25 pairs.  A candidate's cost is the
predicted cooling power plus a quadratic penalty for exceeding each hour's
demand-response power limit, as ``pair_cost`` sums it:

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

Cost ties prefer the larger u1 and then the larger u2 (``cheapest``), so the
controller only moves off the comfort ceiling for a strict cost advantage.
With the untightened 5000 W limits this makes (26, 26) the resting choice.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import InvalidInputError, OptimizationFailedError
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

    ``costs`` holds the 25 costs in ``setpoint_pairs()`` order, NaN or inf where not finite:
    empty from ``rollout``, every pair's from ``optimize``, which returns ``cheapest``'s pair.
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
    costs: array = field(default_factory=lambda: array("d"))

    def candidate_cost(self, u1: float, u2: float) -> float:
        try:
            return self.costs[setpoint_pairs().index((u1, u2))]
        except (ValueError, IndexError):  # off the grid, or a rollout's empty table
            raise KeyError(f"pair ({u1}, {u2}) not in candidate table") from None


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


def pair_cost(y1: float, y2: float, limit1: float, limit2: float) -> tuple[float, float, float]:
    """Penalties v1, v2 and cost J of two finite cooling outputs, each clamped at zero."""
    p1, p2 = clamp_power(y1), clamp_power(y2)
    v1, v2 = penalty(p1, limit1), penalty(p2, limit2)
    return v1, v2, p1 + v1 + p2 + v2


def cheapest(costs) -> int | None:
    """Index of the first least finite cost (the tie-break), or None when none is finite."""
    finite = [cost for cost in costs if math.isfinite(cost)]
    return costs.index(min(finite)) if finite else None


def setpoint_grid(problem: MpcProblem) -> list[float]:
    """Candidate setpoints, ascending: the same grid for every interval."""
    return list(SETPOINT_GRID_C)


def setpoint_pairs() -> list[tuple[float, float]]:
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
            v1, v2, cost = pair_cost(y1, y2, problem.p_limit_t1_w, problem.p_limit_t2_w)
    return MpcDecision(
        u1_c=u1, u2_c=u2, x1_c=x1, x2_c=x2, y1_w=y1, y2_w=y2, v1=v1, v2=v2, cost=cost
    )


def rollout(problem: MpcProblem, u1: float, u2: float) -> MpcDecision:
    """Chain the surrogates over the two horizon hours for one setpoint pair."""
    return _second_hour(problem, u1, *_first_hour(problem, u1), u2)


def optimize(problem: MpcProblem) -> MpcDecision:
    """Cost every pair in ``setpoint_pairs()`` order and return ``cheapest``'s, with the costs."""
    # Hour one depends on u1 alone: predict it once for all of u1's pairs.
    first_hours = {u1: _first_hour(problem, u1) for u1 in SETPOINT_GRID_C}
    pairs = [_second_hour(problem, u1, *first_hours[u1], u2) for u1, u2 in setpoint_pairs()]
    costs = array("d", (pair.cost for pair in pairs))
    best = cheapest(costs)
    if best is None:
        raise OptimizationFailedError(
            f"all {len(costs)} setpoint candidates evaluated to non-finite cost"
        )
    pairs[best].costs = costs
    return pairs[best]
