"""Inspect the 32x8 planar array: cuts, beamwidths, and steering.

Prints the vertical and horizontal array-factor cuts around boresight and
measures the half-power beamwidths, then exports a 2D pattern grid.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from wirebeam.channel import (BeamOrientation, array_factor, element_gain,
                              write_pattern_csv)
from wirebeam.config import default_config

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

table = default_config()
array = table.array  # 32 vertical x 8 horizontal, half-wavelength spacing
beam = BeamOrientation(math.pi / 2, math.pi / 2)
lam = 0.005


def hpbw_deg(cut_axis):
    lo = 0.0
    for deg in np.arange(0.0, 30.0, 0.01):
        rel = math.radians(deg)
        theta, phi = (rel, 0.0) if cut_axis == "vertical" else (0.0, rel)
        if array_factor(theta, phi, beam, array, lam) < -3.0:
            lo = deg
            break
    return 2.0 * lo


print("array factor cuts (dB relative to boresight):")
print(" off-axis   vertical cut   horizontal cut")
for deg in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0):
    rel = math.radians(deg)
    av = array_factor(rel, 0.0, beam, array, lam)
    ah = array_factor(0.0, rel, beam, array, lam)
    print(f"  {deg:5.1f}deg   {av:10.2f}     {ah:10.2f}")

print(f"\nvertical HPBW   ~ {hpbw_deg('vertical'):.2f} deg  (32 elements)")
print(f"horizontal HPBW ~ {hpbw_deg('horizontal'):.2f} deg  (8 elements)")
print(f"element pattern: {element_gain(0, 0):.0f} dBi peak, "
      f"{element_gain(math.radians(32.5), 0):.0f} dBi at the 65 deg half-power edge")

path = OUT / "pattern_grid.csv"
write_pattern_csv(path, beam, replace(table.channel, rx_position=[0, 5, 0]), array,
                  span_deg=15.0, step_deg=0.25)
print(f"\n2D pattern grid written to {path}")
