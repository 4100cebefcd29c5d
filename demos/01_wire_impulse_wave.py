"""Watch an impulsive force travel along the messenger wire.

A 470 N vertical hit at P4 (a bird-strike-scale momentum when applied for
one 10 ms interval) kicks the chain; the tensile coupling carries the
displacement wave toward the far end.  The script prints when each point
peaks and saves the full trajectory as CSV.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from wirebeam.config import default_config
from wirebeam.wire import (ImpulseEvent, simulate_trajectory, solve_equilibrium,
                           write_trajectory_csv)

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

table = default_config()  # the 21-point, 10 kg, 1000 N/m wire of the table
params = replace(table.wire, wind_diffusion=np.zeros((3, 3)))  # no wind: pure wave

eq = solve_equilibrium(params)
print(f"wire sag at the midpoint: {eq.positions[0, 2]:.4f} m")
print(f"stability bound for the substep: {params.max_stable_dt() * 1e3:.2f} ms\n")

hit = ImpulseEvent(point_number=4, force=[0.0, 0.0, 470.0], apply_time=0.0,
                   duration_s=0.01)
samples = simulate_trajectory(params, replace(table.wind, amplitude=0.0), [hit],
                              duration=0.45, dt=1e-3, seed=0)

dz = np.array([s.positions[:, 2] - eq.positions[:, 2] for s in samples])
print("point   peak |dz|    at time")
for p in range(4, 13):
    k = int(np.argmax(np.abs(dz[:, p - 1])))
    print(f"  P{p:<4d} {np.abs(dz[k, p - 1]):8.3f} m  {samples[k].time * 1e3:6.0f} ms")

print("\nThe peak arrives later at higher indices: the impulse propagates as")
print("a wave, which is exactly what an expanded sensor state can exploit.")

path = OUT / "impulse_wave.csv"
write_trajectory_csv(path, samples)
print(f"\nfull trajectory written to {path}")
