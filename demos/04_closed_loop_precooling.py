"""Closed-loop control: the MPC precools ahead of demand-response events.

Each hour the controller costs all 25 setpoint pairs (u1, u2) on the
1 degC grid 22..26 over a two-hour horizon: predicted cooling power plus a
quadratic penalty for exceeding each hour's power limit.  When a DR event
is visible at t+2, pulling the zone down early (precooling) trades some
extra cooling now for staying under the limit during the event.

Run from the repository root:  python3 demos/04_closed_loop_precooling.py
"""

import numpy as np

from xmpc.explain import COMFORT_CEILING_C, SCENARIO_NAMES, scenario_census
from xmpc.hub import run_episode, timing_report
from xmpc.surrogate import FX_SCHEMA, FY_SCHEMA, TrainConfig, train
from xmpc.testbed import SETPOINT_GRID_C, TestbedConfig, generate_dr_calendar, run_excitation

cfg = TestbedConfig()
data = run_excitation(n_days=31, cfg=cfg, seed=42)
tcfg = TrainConfig(epochs=4000, learning_rate=3e-3)
fx = train(data, FX_SCHEMA, tcfg)
fy = train(data, FY_SCHEMA, tcfg)

calendar = generate_dr_calendar(n_days=31, event_probability=1.0, seed=7)
episode = run_episode(31, cfg, fx, fy, calendar, seed=7)

census = scenario_census(episode)
print(f"31-day closed-loop episode: {len(episode)} control intervals")
for label in sorted(census):
    print(f"  scenario {label} ({SCENARIO_NAMES[label]:>14s}): {census[label]:3d} steps")

# Walk into one precool decision.  The chosen pair beats holding the comfort
# ceiling (26, 26) because the relaxed pair would overshoot the t+2 limit.
record = next(r for r in episode.records if r.scenario == 1)
d = record.decision
print(f"\nprecool step t={record.t} (day {record.t // 24}, {record.t % 24:02d}:00):")
print(f"  zone {record.zone_temp_c:.1f} degC, outdoor {record.disturbance.oa_temp_c:.1f} degC, "
      f"{record.disturbance.occupancy:.0f} occupants")
print(f"  limits: P_limit(t+1) {record.p_limit_t1_w:.0f} W, "
      f"P_limit(t+2) {record.p_limit_t2_w:.0f} W")
print(f"  chosen u = ({d.u1_c:.0f}, {d.u2_c:.0f}) degC, predicted cooling "
      f"({d.y1_w:.0f}, {d.y2_w:.0f}) W, cost {d.cost:.1f}")
relaxed = d.candidate_cost(COMFORT_CEILING_C, COMFORT_CEILING_C)
print(f"  holding (26, 26) would cost {relaxed:.1f} "
      f"({relaxed - d.cost:+.1f} vs chosen)")

print("\n  full candidate table (rows u1, columns u2, costs):")
print("        " + "".join(f"{u2:>13.0f}" for u2 in SETPOINT_GRID_C))
for u1 in SETPOINT_GRID_C:
    row = "".join(f"{d.candidate_cost(u1, u2):>13.1f}" for u2 in SETPOINT_GRID_C)
    print(f"    {u1:.0f} {row}")

# Receding horizon: only u1 is applied; the zone then actually moves, and the
# next interval re-solves from the measured state.
applied = [r.setpoint_c for r in episode.records[record.t: record.t + 4]]
print(f"\n  setpoints actually applied from t={record.t}: {applied}")

report = timing_report(episode)
print(f"\n{report}")
