"""Delayed-observation beam-tracking environment.

Each step covers one beam-refinement interval tau: the chosen steering
action is applied first, the wire physics then advances tau/dt substeps
(injecting the scheduled impulse when its time falls inside the interval),
a fresh sensor snapshot is recorded, and the agent observes the snapshot
taken `lookback` seconds ago together with the current steering vector.
The reward is the received power mapped through an affine clip to [-1, 1].

The observation vector is, per sensed point, [position (3), velocity (3)],
blocks in sense-point order, followed by the unit steering vector (3).
With a single sensed point (the node itself) the length is 9.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import wire
from .channel import (ArrayConfig, BeamOrientation, ChannelConfig,
                      look_angles, received_power)

N_ACTIONS = 9
CENTER_ACTION = 4  # (0, 0): decode(4) leaves the steering unchanged


class EpisodeFinishedError(RuntimeError):
    """step() was called after the episode ended."""


class ConfigError(ValueError):
    """An environment invariant failed at construction time."""


@dataclass(frozen=True)
class EnvConfig:
    """Knobs of the tracking task.

    lookback must be an integer multiple of tau, and tau an integer
    multiple of the physics substep.  Point indices are 1-based P-numbers.
    """

    tau: float = 0.01                 # beam-refinement interval [s]
    lookback: float = 0.02            # sensor staleness T [s]
    episode_duration: float = 3.0     # [s]
    refine_angle: float = math.radians(1.0)  # grid step A [rad]
    tx_point: int = 10                # P-number carrying the radio
    sense_points: tuple[int, ...] = (10,)
    reward_offset_dbm: float = -48.0  # b_c
    reward_scale_db: float = 5.0      # d_c
    impulse_enabled: bool = False
    impulse_times_s: tuple[float, ...] = (1.0, 2.0, 3.0)
    impulse_point: int = 4
    impulse_force: tuple[float, float, float] = (0.0, 0.0, 470.0)
    impulse_duration_s: float | None = None  # None: single physics substep
    substep_dt: float = 0.001         # physics substep [s]

    def __post_init__(self):
        object.__setattr__(self, "sense_points", tuple(self.sense_points))
        object.__setattr__(self, "impulse_times_s", tuple(self.impulse_times_s))
        object.__setattr__(self, "impulse_force", tuple(self.impulse_force))
        if self.refine_angle <= 0:
            raise ConfigError("refine_angle must be positive")
        if self.reward_scale_db <= 0:
            raise ConfigError("reward_scale_db must be positive")
        if self.tau <= 0 or self.substep_dt <= 0:
            raise ConfigError("tau and substep_dt must be positive")
        if not _is_multiple(self.lookback, self.tau):
            raise ConfigError("lookback not a multiple of tau")
        if not _is_multiple(self.tau, self.substep_dt):
            raise ConfigError("tau not a multiple of the physics substep")
        if self.tx_point not in self.sense_points:
            raise ConfigError("tx_point must be among sense_points")

    @property
    def lag_steps(self) -> int:
        return int(round(self.lookback / self.tau))

    @property
    def substeps_per_tau(self) -> int:
        return int(round(self.tau / self.substep_dt))

    @property
    def episode_steps(self) -> int:
        return int(round(self.episode_duration / self.tau))

    @property
    def state_dim(self) -> int:
        return 6 * len(self.sense_points) + 3


def _is_multiple(value: float, unit: float) -> bool:
    if value < 0:
        return False
    ratio = value / unit
    return abs(ratio - round(ratio)) < 1e-9


def decode_action(index: int) -> tuple[int, int]:
    """Action index -> (zenith step, azimuth step) in units of A.

    Row-major over {-1, 0, +1}^2 with the zenith component slow.
    """
    if not 0 <= index < N_ACTIONS:
        raise ValueError(f"action index must be in 0..{N_ACTIONS - 1}")
    return index // 3 - 1, index % 3 - 1


def encode_action(d_theta: int, d_phi: int) -> int:
    """Inverse of decode_action; steps must each be -1, 0 or +1."""
    if d_theta not in (-1, 0, 1) or d_phi not in (-1, 0, 1):
        raise ValueError("steps must be -1, 0 or +1")
    return (d_theta + 1) * 3 + (d_phi + 1)


def apply_action(beam: BeamOrientation, action: int, refine_angle: float) -> BeamOrientation:
    """Steer by the decoded (d_theta, d_phi)*A; the result is re-wrapped."""
    d_theta, d_phi = decode_action(action)
    return BeamOrientation(beam.theta_s + d_theta * refine_angle,
                           beam.phi_s + d_phi * refine_angle)


def proxy_reward(raw_dbm: float, offset_dbm: float, scale_db: float) -> float:
    """Affine rescale of the received power, clipped to [-1, 1]."""
    return float(np.clip((raw_dbm - offset_dbm) / scale_db, -1.0, 1.0))


@dataclass(frozen=True)
class EpisodeSchedule:
    """Per-episode random draws, fixed at reset."""

    impulse_time: float | None
    noise_seed: int


@dataclass
class SensorSnapshot:
    time: float
    positions: np.ndarray   # (|sense_points|, 3)
    velocities: np.ndarray  # (|sense_points|, 3)


def assemble_state(delayed: SensorSnapshot, beam: BeamOrientation) -> np.ndarray:
    """Flat observation: per-point [pos, vel] blocks, then the beam vector."""
    blocks = np.concatenate([delayed.positions, delayed.velocities], axis=1)
    return np.concatenate([blocks.ravel(), beam.unit_vector()])


@dataclass
class StepOutcome:
    next_state: np.ndarray
    proxy_reward: float
    raw_power_dbm: float
    episode_done: bool
    optimal_power_dbm: float  # continuous perfect aim, for logging


class BeamTrackingEnv:
    """Owns one episode: wire state, sensor history, steering, schedule.

    Not safe for concurrent mutation; run independent instances in
    parallel instead.  All randomness flows from the reset seed.
    """

    def __init__(self, env_cfg: EnvConfig, wire_params: wire.WireParams,
                 wind: wire.WindModel, channel_cfg: ChannelConfig,
                 array_cfg: ArrayConfig, seed: int = 0):
        if env_cfg.substep_dt >= wire_params.max_stable_dt():
            raise ConfigError(
                f"substep {env_cfg.substep_dt} s >= stability bound "
                f"{wire_params.max_stable_dt():.6f} s for k0*N/m = "
                f"{wire_params.spring_accel_coeff:.1f}")
        for p in env_cfg.sense_points:
            if not 1 <= p <= wire_params.n_points:
                raise ConfigError(f"sense point P{p} outside 1..{wire_params.n_points}")
        if not 1 < env_cfg.tx_point < wire_params.n_points:
            raise ConfigError("tx_point must be an interior point")

        self.cfg = env_cfg
        self.wire_params = wire_params
        self.wind = wind
        self.channel_cfg = channel_cfg
        self.array_cfg = array_cfg
        self._equilibrium = wire.solve_equilibrium(wire_params)
        self._sense_idx = np.array([p - 1 for p in env_cfg.sense_points])
        self._tx_idx = env_cfg.tx_point - 1
        self.reset(seed)

    # -- episode lifecycle -------------------------------------------------

    def reset(self, seed: int = 0) -> np.ndarray:
        """Start a fresh episode; returns the initial observation."""
        rng = np.random.default_rng(seed)
        impulse_time = None
        if self.cfg.impulse_enabled:
            impulse_time = float(rng.choice(np.asarray(self.cfg.impulse_times_s, float)))
        self.schedule = EpisodeSchedule(impulse_time=impulse_time,
                                        noise_seed=int(rng.integers(2 ** 63)))
        self._noise_rng = np.random.default_rng(self.schedule.noise_seed)

        self._impulses = ()
        if impulse_time is not None:
            impulse = wire.ImpulseEvent(
                point_number=self.cfg.impulse_point,
                force=np.asarray(self.cfg.impulse_force, float),
                apply_time=impulse_time,
                duration_s=self.cfg.impulse_duration_s)
            impulse.validate_for(self.wire_params)
            self._impulses = (impulse,)

        self.state = self._equilibrium.copy()
        self.step_count = 0
        self.beam = self._initial_beam()
        # the last lag+1 snapshots, prefilled so that lookups before
        # t = lookback return the initial (equilibrium) snapshot
        lag = self.cfg.lag_steps
        self.sensors = deque([self._snapshot()] * (lag + 1), maxlen=lag + 1)
        self.state_vector = assemble_state(self.sensors[0], self.beam)
        return self.state_vector

    def _initial_beam(self) -> BeamOrientation:
        """Boresight at the equilibrium node, quantized to the action grid."""
        _, theta, phi = look_angles(self._equilibrium.positions[self._tx_idx],
                                    self.channel_cfg.rx_position)
        a = self.cfg.refine_angle
        return BeamOrientation(round(theta / a) * a, round(phi / a) * a)

    def _snapshot(self) -> SensorSnapshot:
        return SensorSnapshot(time=self.state.time,
                              positions=self.state.positions[self._sense_idx].copy(),
                              velocities=self.state.velocities[self._sense_idx].copy())

    # -- stepping ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.step_count >= self.cfg.episode_steps

    @property
    def true_node_position(self) -> np.ndarray:
        return self.state.positions[self._tx_idx]

    @property
    def rx_position(self) -> np.ndarray:
        return self.channel_cfg.rx_position

    def optimal_power_dbm(self) -> float:
        """Power under continuous (un-quantized) perfect aim right now."""
        _, theta, phi = look_angles(self.true_node_position, self.rx_position)
        return received_power(self.true_node_position, BeamOrientation(theta, phi),
                              self.channel_cfg, self.array_cfg)

    def step(self, action: int) -> StepOutcome:
        if self.done:
            raise EpisodeFinishedError("episode already finished; call reset()")
        self.beam = apply_action(self.beam, action, self.cfg.refine_angle)

        # one draw per tau gives the same stream as one draw per substep;
        # wire.step then runs once per substep, which the benchmark's
        # per-layer counts (ten wire.step calls per env.step) rely on
        noise = self._noise_rng.standard_normal(
            (self.cfg.substeps_per_tau, self.wire_params.n_points - 2, 3))
        for substep_noise in noise:
            self.state = wire.step(self.state, self.wire_params, self.wind,
                                   self._impulses, self.cfg.substep_dt, substep_noise)
        self.step_count += 1
        self.sensors.append(self._snapshot())

        self.state_vector = assemble_state(self.sensors[0], self.beam)
        raw = received_power(self.true_node_position, self.beam,
                             self.channel_cfg, self.array_cfg)
        reward = proxy_reward(raw, self.cfg.reward_offset_dbm, self.cfg.reward_scale_db)
        return StepOutcome(next_state=self.state_vector,
                           proxy_reward=reward,
                           raw_power_dbm=raw,
                           episode_done=self.done,
                           optimal_power_dbm=self.optimal_power_dbm())


@dataclass
class TraceRow:
    step: int
    time_s: float
    action: int
    theta_s_deg: float
    phi_s_deg: float
    raw_power_dbm: float
    optimal_power_dbm: float
    proxy_reward: float
    node_x: float
    node_y: float
    node_z: float


def angle_error_deg(env: BeamTrackingEnv) -> float:
    """Great-circle angle [deg] between the beam and the true look direction."""
    _, theta, phi = look_angles(env.true_node_position, env.rx_position)
    u = BeamOrientation(theta, phi).unit_vector()
    b = env.beam.unit_vector()
    return math.degrees(math.acos(max(-1.0, min(1.0, float(u @ b)))))


def trace_row(env: BeamTrackingEnv, action: int, out: StepOutcome) -> TraceRow:
    node = env.true_node_position
    return TraceRow(step=env.step_count,
                    time_s=env.state.time,
                    action=action,
                    theta_s_deg=math.degrees(env.beam.theta_s),
                    phi_s_deg=math.degrees(env.beam.phi_s),
                    raw_power_dbm=out.raw_power_dbm,
                    optimal_power_dbm=out.optimal_power_dbm,
                    proxy_reward=out.proxy_reward,
                    node_x=float(node[0]), node_y=float(node[1]), node_z=float(node[2]))


def write_trace_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "time_s", "action", "theta_s_deg", "phi_s_deg",
                    "raw_power_dbm", "optimal_power_dbm", "proxy_reward",
                    "node_x", "node_y", "node_z"])
        for r in rows:
            w.writerow([r.step, f"{r.time_s:.6f}", r.action,
                        f"{r.theta_s_deg:.6f}", f"{r.phi_s_deg:.6f}",
                        f"{r.raw_power_dbm:.6f}", f"{r.optimal_power_dbm:.6f}",
                        f"{r.proxy_reward:.6f}",
                        f"{r.node_x:.9f}", f"{r.node_y:.9f}", f"{r.node_z:.9f}"])
