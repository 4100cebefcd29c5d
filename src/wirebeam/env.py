"""Delayed-observation beam-tracking environment.

An environment is a view of one episode of an `EpisodeBatch`.  The batch
owns the task's `EnvConfig`, checked against the wire once, and one
`wire.trajectory` stream, one state per beam-refinement interval
tau: the wire never reads the beam.  It holds one column per distinct
seed, whose draws (the impulse time and the wire's noise seed, see
`EpisodeSchedule`) the seed fixes, advances all of them together and
keeps each state, so the envs can be rolled out one after another and
envs of the same seed (one per policy) read the same column.  Each step
applies the chosen steering action, takes the next wire state (the
scheduled impulse acts when its time falls inside the interval), and the
agent observes the sensed points of the state from `lookback` seconds
ago together with the current steering vector.  The reward is the
received power mapped through an affine clip to [-1, 1].  Each step
computes the node's look geometry (`channel.look_angles`) once; the env
keeps it and its `StepOutcome` carries it, so the reward, the oracle,
the trace and the metrics all read it.  `rollout` steps a policy and
returns one `StepOutcome` per step; every evaluation path records steps
that way.  `state_vector` builds the observation on its first read
after each step: the oracle and the fixed beam never pay for it.

The observation vector is, per sensed point, [position (3), velocity (3)],
blocks in sense-point order, followed by the unit steering vector (3).
With a single sensed point (the node itself) the length is 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import wire
from .channel import (ArrayConfig, BeamOrientation, ChannelConfig, Look,
                      boresight_power, look_angles, received_power)
from .files import write_csv

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

    tau: float                  # beam-refinement interval [s]
    lookback: float             # sensor staleness T [s]
    episode_duration: float     # [s]
    refine_angle: float         # grid step A [rad]
    tx_point: int               # P-number carrying the radio
    sense_points: tuple[int, ...]
    reward_offset_dbm: float    # b_c
    reward_scale_db: float      # d_c
    impulse_enabled: bool
    impulse_times_s: tuple[float, ...]
    impulse_point: int
    impulse_force: tuple[float, float, float]
    impulse_duration_s: float | None  # None: single physics substep
    substep_dt: float           # physics substep [s]

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
        if self.episode_duration <= 0 or not _is_multiple(self.episode_duration, self.tau):
            raise ConfigError("episode_duration not a positive multiple of tau")
        if not _is_multiple(self.tau, self.substep_dt):
            raise ConfigError("tau not a multiple of the physics substep")
        if self.tx_point not in self.sense_points:
            raise ConfigError("tx_point must be among sense_points")

    # computed on first read and kept: an env step reads them
    @cached_property
    def lag_steps(self) -> int:
        return int(round(self.lookback / self.tau))

    @cached_property
    def substeps_per_tau(self) -> int:
        return int(round(self.tau / self.substep_dt))

    @cached_property
    def episode_steps(self) -> int:
        return int(round(self.episode_duration / self.tau))

    @cached_property
    def state_dim(self) -> int:
        return 6 * len(self.sense_points) + 3

    def impulse_at(self, t: float) -> wire.ImpulseEvent:
        """The configured impulse, starting at time t [s]."""
        return wire.ImpulseEvent(self.impulse_point, self.impulse_force, t,
                                 self.impulse_duration_s)


def check_invariants(env_cfg: EnvConfig, wire_params: wire.WireParams):
    """Invariants tying the task to its wire: the substep below the
    stability bound, sense points on the wire, interior radio and impulse
    points.  Raises ConfigError."""
    bound = wire_params.max_stable_dt()
    if env_cfg.substep_dt >= bound:
        raise ConfigError(
            f"substep {env_cfg.substep_dt} s violates the stability bound "
            f"dt < 2/sqrt(4*k0*N/m) = {bound:.6f} s "
            f"(k0*N/m = {wire_params.spring_accel_coeff:.1f})")
    n = wire_params.n_points
    for p in env_cfg.sense_points:
        if not 1 <= p <= n:
            raise ConfigError(f"sense point P{p} outside 1..{n}")
    if not 1 < env_cfg.tx_point < n:
        raise ConfigError(f"tx_point P{env_cfg.tx_point} must be interior (2..{n - 1})")
    if env_cfg.impulse_enabled and not 1 < env_cfg.impulse_point < n:
        raise ConfigError(f"impulse point P{env_cfg.impulse_point} must be "
                          f"interior (2..{n - 1})")


def _is_multiple(value: float, unit: float) -> bool:
    if value < 0:
        return False
    ratio = value / unit
    return math.isfinite(ratio) and abs(ratio - round(ratio)) < 1e-9


def decode_action(index: int) -> tuple[int, int]:
    """Action index -> (zenith step, azimuth step) in units of A.

    Row-major over {-1, 0, +1}^2 with the zenith component slow.
    """
    if not 0 <= index < N_ACTIONS:
        raise ValueError(f"action index must be in 0..{N_ACTIONS - 1}")
    return index // 3 - 1, index % 3 - 1


def apply_action(beam: BeamOrientation, action: int, refine_angle: float) -> BeamOrientation:
    """Steer by the decoded (d_theta, d_phi)*A; the result is re-wrapped."""
    d_theta, d_phi = decode_action(action)
    return BeamOrientation(beam.theta_s + d_theta * refine_angle,
                           beam.phi_s + d_phi * refine_angle)


def proxy_reward(raw_dbm: float, offset_dbm: float, scale_db: float) -> float:
    """Affine rescale of the received power, clipped to [-1, 1]; NaN stays
    NaN."""
    return max(min((raw_dbm - offset_dbm) / scale_db, 1.0), -1.0)


@dataclass(frozen=True)
class EpisodeSchedule:
    """An episode's random draws, made from its env seed."""

    impulse_time: float | None
    noise_seed: int

    @classmethod
    def draw(cls, env_cfg: EnvConfig, seed: int) -> "EpisodeSchedule":
        rng = np.random.default_rng(seed)
        impulse_time = None
        if env_cfg.impulse_enabled:
            impulse_time = float(rng.choice(np.asarray(env_cfg.impulse_times_s, float)))
        return cls(impulse_time=impulse_time, noise_seed=int(rng.integers(2 ** 63)))


class EpisodeBatch:
    """The wire states of several episodes, from one `wire.trajectory`.

    The batch holds one episode (column) per distinct seed, in first-seen
    order: a repeated seed names the same episode.  The schedules are
    drawn from the seeds, and the stream advances every episode together.
    A batch's state is computed on its first read and kept, so envs can be
    rolled out one after another: the first to reach a step advances the
    stream, and the others read what it computed.  `env_cfg`, checked
    against the wire once, here, is the task of every env over the batch.
    """

    def __init__(self, env_cfg: EnvConfig, wire_params: wire.WireParams,
                 wind: wire.WindModel, seeds):
        check_invariants(env_cfg, wire_params)
        self.env_cfg = env_cfg
        self.seeds = list(dict.fromkeys(seeds))
        self.schedules = [EpisodeSchedule.draw(env_cfg, s) for s in self.seeds]
        impulses = [() if s.impulse_time is None else (env_cfg.impulse_at(s.impulse_time),)
                    for s in self.schedules]
        self._stream = wire.trajectory(wire_params, wind, impulses, env_cfg.substep_dt,
                                       [s.noise_seed for s in self.schedules],
                                       env_cfg.substeps_per_tau)
        self._states: list[wire.WireState] = []

    def state(self, episode: int, k: int) -> wire.WireState:
        """Episode `episode`'s wire state after k steps (`WireState.episode`:
        from the step in which it diverged on, its error is raised)."""
        while len(self._states) <= k:
            self._states.append(next(self._stream))
        return self._states[k].episode(episode)


def assemble_state(delayed: wire.WireState, sense_idx: np.ndarray,
                   beam: BeamOrientation) -> np.ndarray:
    """Flat observation: [pos, vel] blocks of the sensed points (0-based
    `sense_idx`, in that order) of the delayed state, then the beam vector."""
    blocks = np.concatenate([delayed.positions[sense_idx],
                             delayed.velocities[sense_idx]], axis=1)
    return np.concatenate([blocks.ravel(), beam.unit_vector()])


@dataclass(slots=True)
class StepOutcome:
    """What one step did: the action taken, then the reward, power, beam,
    node and the node's look geometry after it; the observation is the
    env's `state_vector`.  Slotted: an evaluation holds one per step."""

    proxy_reward: float
    raw_power_dbm: float
    episode_done: bool
    action: int
    time_s: float
    beam: BeamOrientation
    node: np.ndarray  # radio node position (3,)
    look: Look        # (range, zenith, azimuth) of the receiver from the node


class BeamTrackingEnv:
    """A view of one episode of an `EpisodeBatch`, the one of `seed`: the
    wire states so far, steering and schedule.

    The task's `cfg` is the batch's.  `states[k]` is the wire state after
    k steps, `states[0]` the equilibrium, and `look` the current node's
    look geometry.  Not safe for concurrent mutation; run independent
    instances in parallel instead.  All randomness flows from the seed.
    """

    def __init__(self, batch: EpisodeBatch, seed: int, channel_cfg: ChannelConfig,
                 array_cfg: ArrayConfig):
        self.cfg = batch.env_cfg
        self.channel_cfg = channel_cfg
        self.array_cfg = array_cfg
        self._sense_idx = np.array([p - 1 for p in self.cfg.sense_points])
        self._tx_idx = self.cfg.tx_point - 1
        self._batch = batch
        self._episode = batch.seeds.index(seed)
        self.schedule = batch.schedules[self._episode]
        self.states = [batch.state(self._episode, 0)]
        self.look = look_angles(self.true_node_position, channel_cfg.rx_position)
        self.beam = self._initial_beam()
        self._observation = None

    def _initial_beam(self) -> BeamOrientation:
        """Boresight at the equilibrium node, quantized to the action grid."""
        _, theta, phi = self.look
        a = self.cfg.refine_angle
        return BeamOrientation(round(theta / a) * a, round(phi / a) * a)

    # -- stepping ----------------------------------------------------------

    @property
    def state(self) -> wire.WireState:
        return self.states[-1]

    @property
    def step_count(self) -> int:
        return len(self.states) - 1

    @property
    def done(self) -> bool:
        return self.step_count >= self.cfg.episode_steps

    @property
    def true_node_position(self) -> np.ndarray:
        return self.state.positions[self._tx_idx]

    @property
    def state_vector(self) -> np.ndarray:
        """The observation after the last step, built on its first read."""
        if self._observation is None:
            delayed = self.states[max(self.step_count - self.cfg.lag_steps, 0)]
            self._observation = assemble_state(delayed, self._sense_idx, self.beam)
        return self._observation

    def step(self, action: int) -> StepOutcome:
        k = len(self.states)  # the step count after this step
        if k > self.cfg.episode_steps:
            raise EpisodeFinishedError("episode already finished; an env runs one episode")
        self.beam = apply_action(self.beam, action, self.cfg.refine_angle)
        state = self._batch.state(self._episode, k)
        self.states.append(state)
        self._observation = None
        node = state.positions[self._tx_idx]
        self.look = look_angles(node, self.channel_cfg.rx_position)
        raw = received_power(self.look, self.beam, self.channel_cfg, self.array_cfg)
        reward = proxy_reward(raw, self.cfg.reward_offset_dbm, self.cfg.reward_scale_db)
        return StepOutcome(proxy_reward=reward,
                           raw_power_dbm=raw,
                           episode_done=k >= self.cfg.episode_steps,
                           action=action,
                           time_s=state.time,
                           beam=self.beam,
                           node=node,
                           look=self.look)


def rollout(env, policy_fn, steps: int) -> list[StepOutcome]:
    """Step `policy_fn(env) -> action` for up to `steps` steps, stopping
    after the step that ends the episode."""
    outcomes = []
    for _ in range(steps):
        outcomes.append(env.step(policy_fn(env)))
        if outcomes[-1].episode_done:
            break
    return outcomes


def angle_error_deg(look: Look, beam: BeamOrientation) -> float:
    """Great-circle angle [deg] between the beam and the look direction
    from the node to the receiver."""
    _, theta, phi = look
    u = BeamOrientation(theta, phi).unit_vector()
    b = beam.unit_vector()
    return math.degrees(math.acos(max(-1.0, min(1.0, float(u @ b)))))


def write_trace_csv(path, outcomes: list[StepOutcome], channel_cfg: ChannelConfig,
                    array_cfg: ArrayConfig):
    """One row per step of an episode rolled out from its start; the
    optimal power is the power under continuous (un-quantized) perfect aim.
    Written whole or not at all."""
    optimal = boresight_power(channel_cfg, array_cfg)
    write_csv(path, ["step", "time_s", "action", "theta_s_deg", "phi_s_deg",
                     "raw_power_dbm", "optimal_power_dbm", "proxy_reward",
                     "node_x", "node_y", "node_z"],
              ([k, f"{o.time_s:.6f}", o.action,
                f"{math.degrees(o.beam.theta_s):.6f}",
                f"{math.degrees(o.beam.phi_s):.6f}",
                f"{o.raw_power_dbm:.6f}",
                f"{optimal(o.look):.6f}",
                f"{o.proxy_reward:.6f}", *(f"{v:.9f}" for v in o.node.tolist())]
               for k, o in enumerate(outcomes, start=1)))
