"""Planar-array mmWave link budget.

Received power in dBm decomposes as

    P_RX = P_TX + G_TX(theta_AoD, phi_AoD) + G_RX + beta_dB - 10*alpha*log10(r)

where the transmit gain is the single-element pattern plus the array
factor, both evaluated at the departure angles *relative to* the main-lobe
steering direction.  The receive gain is a constant (the far node does not
steer).  Default path loss is free space: alpha = 2, beta = (lambda/4pi)^2.

Angles are radians throughout; zenith theta is measured from +Z, azimuth
phi from +X toward +Y.  The functions of a node's position take its look
geometry, (range, zenith, azimuth) of the receiver as `look_angles`
returns it, so a caller computes it once per node position and passes it
to each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .files import write_csv

ELEMENT_MAX_GAIN_DBI = 8.0             # boresight element gain
ELEMENT_HPBW_RAD = math.radians(65.0)  # half-power beamwidth of each cut
ELEMENT_SIDELOBE_DB = 30.0             # per-cut and combined attenuation floor


class GeometryDegenerateError(ValueError):
    """Transmitter and receiver coincide; no look direction exists."""


class ArrayFactorConsistencyError(AssertionError):
    """|a.w|^2 exceeded 1 under the paper-literal amplitude norm."""


def wrap_zenith(theta: float) -> float:
    """Fold an angle into [0, pi] by reflection."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t < 0:
        t += 2.0 * math.pi
    return 2.0 * math.pi - t if t > math.pi else t


def wrap_azimuth(phi: float) -> float:
    """Fold an angle into (-pi, pi]."""
    r = math.fmod(math.pi - phi, 2.0 * math.pi)
    if r < 0:
        r += 2.0 * math.pi
    return math.pi - r


@dataclass(frozen=True)
class BeamOrientation:
    """Main-lobe steering direction of the transmit array."""

    theta_s: float  # zenith [rad], kept in [0, pi]
    phi_s: float    # azimuth [rad], kept in (-pi, pi]

    def __post_init__(self):
        if not (math.isfinite(self.theta_s) and math.isfinite(self.phi_s)):
            raise ValueError("steering angles must be finite")
        object.__setattr__(self, "theta_s", wrap_zenith(self.theta_s))
        object.__setattr__(self, "phi_s", wrap_azimuth(self.phi_s))

    def unit_vector(self) -> np.ndarray:
        """Cartesian direction [sin t cos p, sin t sin p, cos t]."""
        st = math.sin(self.theta_s)
        return np.array([st * math.cos(self.phi_s),
                         st * math.sin(self.phi_s),
                         math.cos(self.theta_s)])


@dataclass(frozen=True)
class ChannelConfig:
    """Link-budget constants."""

    tx_power_dbm: float
    wavelength: float                # [m]
    rx_gain_dbi: float               # constant over angle
    pathloss_exponent: float         # alpha
    pathloss_ref_db: float | None    # beta [dB at 1 m]; None -> free space
    rx_position: np.ndarray          # [m], 3-vector

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.pathloss_exponent < 1:
            raise ValueError("pathloss_exponent must be >= 1")
        object.__setattr__(self, "rx_position", np.asarray(self.rx_position, float))

    @cached_property  # every received_power reads it
    def beta_db(self) -> float:
        """Path gain at 1 m; free-space (lambda/4pi)^2 unless overridden."""
        if self.pathloss_ref_db is not None:
            return self.pathloss_ref_db
        return 20.0 * math.log10(self.wavelength / (4.0 * math.pi))


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform planar array layout and amplitude normalization.

    amplitude_norm 'paper_literal' sets every amplitude to 1/(n_v*n_h),
    which caps the array factor at 0 dB; 'power_norm' uses 1/sqrt(n_v*n_h)
    so boresight reaches 10*log10(n_v*n_h).
    """

    n_vertical: int
    n_horizontal: int
    corr_coeff: float
    spacing_v: float  # [m]
    spacing_h: float  # [m]
    amplitude_norm: str

    def __post_init__(self):
        if self.n_vertical < 1 or self.n_horizontal < 1:
            raise ValueError("element counts must be >= 1")
        if not 0.0 <= self.corr_coeff <= 1.0:
            raise ValueError("corr_coeff must be in [0, 1]")
        if self.spacing_v <= 0 or self.spacing_h <= 0:
            raise ValueError("element spacings must be positive")
        if self.amplitude_norm not in ("paper_literal", "power_norm"):
            raise ValueError("amplitude_norm must be 'paper_literal' or 'power_norm'")

    @property
    def n_elements(self) -> int:
        return self.n_vertical * self.n_horizontal


Look = tuple[float, float, float]  # (range [m], zenith [rad], azimuth [rad])
_ANY_STEERING = BeamOrientation(0.0, 0.0)  # at zero relative angles, any steering


def look_angles(tx_pos, rx_pos) -> Look:
    """(range, absolute zenith, absolute azimuth) of rx_pos seen from tx_pos."""
    d = np.asarray(rx_pos, float) - np.asarray(tx_pos, float)
    r = math.sqrt(d.dot(d))  # np.linalg.norm's BLAS dot and rounded square root
    if r <= 0.0:
        raise GeometryDegenerateError("transmitter and receiver positions coincide")
    theta = math.acos(max(-1.0, min(1.0, d[2] / r)))
    phi = math.atan2(d[1], d[0])
    return r, theta, phi


def aod_geometry(look: Look, beam: BeamOrientation) -> tuple[float, float, float]:
    """(range [m], theta_aod, phi_aod [rad]): the look geometry's angles
    relative to the steering direction."""
    r, theta, phi = look
    return r, theta - beam.theta_s, wrap_azimuth(phi - beam.phi_s)


def element_gain(theta: float, phi: float) -> float:
    """Single-element gain [dBi] at angles relative to boresight.

    Parabolic pattern: 8 dBi peak, 65 deg half-power width per cut, 30 dB
    attenuation floor per cut and combined.
    """
    att_v = min(12.0 * (theta / ELEMENT_HPBW_RAD) ** 2, ELEMENT_SIDELOBE_DB)
    att_h = min(12.0 * (phi / ELEMENT_HPBW_RAD) ** 2, ELEMENT_SIDELOBE_DB)
    return ELEMENT_MAX_GAIN_DBI - min(att_v + att_h, ELEMENT_SIDELOBE_DB)


def _coherent_row_magnitude(n: int, phase_step: float) -> float:
    """|sum_{q=0}^{n-1} exp(j*q*phase_step)| via the Dirichlet closed form."""
    half = 0.5 * phase_step
    den = math.sin(half)
    if den == 0.0:
        return float(n)
    return abs(math.sin(n * half) / den)


def array_factor(theta: float, phi: float, beam: BeamOrientation,
                 cfg: ArrayConfig, wavelength: float) -> float:
    """Array factor [dB] at relative angles (theta, phi).

    AF = 10*log10(1 + rho*(|a.w|^2 - 1)) with per-element phases
    2*pi*[(p-1)*dv*Psi_p + (r-1)*dh*Psi_r]/lambda.  The double sum over
    elements separates into a product of two coherent row sums, evaluated
    in closed form.  Exact nulls yield -inf for rho = 1.
    """
    psi_p = math.cos(theta + beam.theta_s) - math.cos(beam.theta_s)
    psi_r = (math.sin(theta + beam.theta_s) * math.sin(phi + beam.phi_s)
             - math.sin(beam.theta_s) * math.sin(beam.phi_s))
    step_v = 2.0 * math.pi * cfg.spacing_v * psi_p / wavelength
    step_h = 2.0 * math.pi * cfg.spacing_h * psi_r / wavelength
    mag = (_coherent_row_magnitude(cfg.n_vertical, step_v)
           * _coherent_row_magnitude(cfg.n_horizontal, step_h))

    n = cfg.n_elements
    if cfg.amplitude_norm == "paper_literal":
        aw_sq = (mag / n) ** 2
        if aw_sq > 1.0 + 1e-9:
            raise ArrayFactorConsistencyError(
                f"|a.w|^2 = {aw_sq} exceeds 1 under paper_literal amplitudes")
    else:
        aw_sq = mag * mag / n

    inner = 1.0 + cfg.corr_coeff * (aw_sq - 1.0)
    if inner <= 0.0:
        return -math.inf
    return 10.0 * math.log10(inner)


def received_power(look: Look, beam: BeamOrientation,
                   ch: ChannelConfig, ar: ArrayConfig) -> float:
    """Received power [dBm] from the node with look geometry `look` under
    the given steering."""
    r, theta_aod, phi_aod = aod_geometry(look, beam)
    g_tx = (element_gain(theta_aod, phi_aod)
            + array_factor(theta_aod, phi_aod, beam, ar, ch.wavelength))
    return (ch.tx_power_dbm + g_tx + ch.rx_gain_dbi + ch.beta_db
            - 10.0 * ch.pathloss_exponent * math.log10(r))


def boresight_power(ch: ChannelConfig, ar: ArrayConfig) -> Callable[[Look], float]:
    """Power [dBm] with the main lobe aimed exactly at the receiver, as a
    function of the look geometry: peak element gain, and the array factor
    at zero relative angles.  Everything but the path loss is computed
    once, here."""
    g_tx = ELEMENT_MAX_GAIN_DBI + array_factor(0.0, 0.0, _ANY_STEERING, ar, ch.wavelength)
    gains = ch.tx_power_dbm + g_tx + ch.rx_gain_dbi + ch.beta_db
    slope = 10.0 * ch.pathloss_exponent
    return lambda look: gains - slope * math.log10(look[0])


def write_pattern_csv(path, beam: BeamOrientation, ch: ChannelConfig,
                      ar: ArrayConfig, span_deg: float, step_deg: float):
    """Export the gain pattern over a +-span grid of relative angles, one
    row per (theta, phi) sample, written whole or not at all."""
    angles = np.arange(-span_deg, span_deg + 1e-9, step_deg)

    def rows():
        for th_d in angles:
            th = math.radians(th_d)
            for ph_d in angles:
                ph = math.radians(ph_d)
                af = array_factor(th, ph, beam, ar, ch.wavelength)
                el = element_gain(th, ph)
                yield [f"{th_d:.3f}", f"{ph_d:.3f}",
                       f"{af:.6f}", f"{el:.6f}", f"{af + el:.6f}"]
    write_csv(path, ["theta_deg", "phi_deg", "af_db", "element_db", "total_db"], rows())
