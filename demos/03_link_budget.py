"""Walk through the link budget term by term.

Free-space numbers at the default geometry: a 23 dBm transmitter at 60 GHz
(5 mm wavelength) five meters from the receiver, 8 dBi on both ends when
aligned, and what misalignment costs.  Every term of the node's position
reads its look geometry, computed once by `look_angles`.
"""

import math
from dataclasses import replace

import numpy as np

from wirebeam.channel import (BeamOrientation, aod_geometry, array_factor,
                              element_gain, look_angles, received_power)
from wirebeam.config import default_config

table = default_config()
cfg = replace(table.channel, rx_position=[0.0, 5.0, 0.0])
array = table.array
tx = np.zeros(3)
look = look_angles(tx, cfg.rx_position)  # (range, zenith, azimuth) of the receiver
aligned = BeamOrientation(math.pi / 2, math.pi / 2)

path_loss = 20.0 * math.log10(4.0 * math.pi * 5.0 / cfg.wavelength)
print("free-space budget at r = 5 m, perfect boresight:")
print(f"  transmit power      {cfg.tx_power_dbm:+7.2f} dBm")
print(f"  transmit gain       {element_gain(0, 0):+7.2f} dBi (element) "
      f"{array_factor(0, 0, aligned, array, cfg.wavelength):+.2f} dB (array)")
print(f"  receive gain        {cfg.rx_gain_dbi:+7.2f} dBi")
print(f"  path loss           {-path_loss:+7.2f} dB")
print(f"  received power      {received_power(look, aligned, cfg, array):+7.2f} dBm\n")

print("what steering error costs (zenith offsets):")
print("  error    received power   drop")
p0 = received_power(look, aligned, cfg, array)
for deg in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 5.0):
    beam = BeamOrientation(aligned.theta_s + math.radians(deg), aligned.phi_s)
    p = received_power(look, beam, cfg, array)
    print(f"  {deg:4.1f}deg  {p:10.2f} dBm  {p - p0:7.2f} dB")

r, theta_aod, phi_aod = aod_geometry(look, aligned)
print(f"\ndeparture geometry at boresight: range {r:.2f} m, "
      f"relative angles ({theta_aod:.1e}, {phi_aod:.1e}) rad")
print("the 1-degree refinement grid sits well inside the ~3.2 deg vertical HPBW,")
print("so a correctly steered beam loses only fractions of a dB to quantization.")
