"""Tour of the desk-scale thermal testbed.

A single zone is modeled as one thermal resistance to outdoors and one
lumped capacitance (1R1C), stepped hourly with explicit Euler.  The HVAC
is an ideal modulating coil: it holds the zone exactly at the cooling
setpoint whenever the required power is within capacity, free-floats when
no cooling is needed, and rides the capacity limit when undersized.

Run from the repository root:  python3 demos/01_testbed_tour.py
"""

import numpy as np

from xmpc.testbed import (
    COOLING_CAPACITY_W,
    HEATING_SETPOINT_C,
    THERMAL_CAPACITANCE,
    THERMAL_RESISTANCE,
    Disturbance,
    TestbedConfig,
    ZoneState,
    generate_dr_calendar,
    run_excitation,
    step,
    synth_disturbances,
)

cfg = TestbedConfig()  # the weather seed; the building is fixed
print("zone parameters:")
print(f"  R = {THERMAL_RESISTANCE} K/W, C = {THERMAL_CAPACITANCE:.0f} J/K")
print(f"  cooling capacity {COOLING_CAPACITY_W:.0f} W, heating setpoint {HEATING_SETPOINT_C} degC")

# A single step at a hot afternoon operating point.  Holding 24 degC against
# 35 degC outdoors, 300 W/m2 of sun on 0.7 m2 of glazing, and three occupants
# takes (35-24)/0.005 + 0.7*300 + 3*100 = 2710 W, which the coil can supply.
state = ZoneState(hour=0, zone_temp_c=24.0)
d = Disturbance(oa_temp_c=35.0, oa_radiation_wm2=300.0, occupancy=3.0)
nxt, hvac = step(state, d, cooling_setpoint_c=24.0, cfg=cfg)
print("\nhold at setpoint on a hot afternoon:")
print(f"  cooling rate {hvac.cooling_rate_w:.1f} W, next zone temp {nxt.zone_temp_c:.2f} degC")

# Free float: cool outdoors, no sun, empty zone.  The coil stays off and the
# envelope drifts the zone toward outdoor temperature.
nxt, hvac = step(ZoneState(0, 24.0), Disturbance(18.0, 0.0, 0.0), 26.0, cfg)
print("free float on a cool night:")
print(f"  cooling rate {hvac.cooling_rate_w:.1f} W, next zone temp {nxt.zone_temp_c:.2f} degC")

# Synthesized boundary conditions: a sinusoidal outdoor temperature peaking
# mid-afternoon, a clipped solar arc, and a weekday occupancy schedule.
profile = synth_disturbances(day=2, cfg=cfg)
oa = [p.oa_temp_c for p in profile]
rad = [p.oa_radiation_wm2 for p in profile]
occ = [p.occupancy for p in profile]
print("\nday 2 boundary conditions:")
print(f"  outdoor air {min(oa):.1f} .. {max(oa):.1f} degC (warmest at hour {int(np.argmax(oa))})")
print(f"  solar peak {max(rad):.0f} W/m2 at hour {int(np.argmax(rad))}")
print(f"  occupied hours: {[h for h in range(24) if occ[h] > 0]}")

# Demand-response calendar: at most one event per day, limits drawn between
# 750 and 1750 W, 5000 W otherwise.
calendar = generate_dr_calendar(n_days=3, event_probability=1.0, seed=7)
events = sorted((h, w) for h, w in calendar.items() if w < 5000.0)
print("\nDR events over three days (hour, limit):")
for hour, limit in events:
    print(f"  hour {hour:3d} (day {hour // 24}, {hour % 24:02d}:00): {limit:.1f} W")

# Excitation: a month under uniformly random integer setpoints 22..26 degC.
# This is the system-identification dataset the surrogates train on.
data = run_excitation(n_days=31, cfg=cfg, seed=42)
cooling = data["next_cooling_rate_w"]
print(f"\nexcitation dataset: {len(data)} hourly transitions")
print(f"  setpoints used: {sorted({float(s) for s in data['setpoint_c']})}")
print(f"  zone temp span {data['zone_temp_c'].min():.1f} .. {data['zone_temp_c'].max():.1f} degC")
print(f"  mean nonzero cooling {cooling[cooling > 0].mean():.0f} W")
