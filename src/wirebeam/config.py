"""Experiment configuration: parsing, defaults, validation, echo.

Config files are flat ``section.key = value`` lines ('#' starts a comment).
Every key has a default, so an empty file is a valid Table-style baseline
run.  Loading materializes all defaults, records where each value came
from ("file" or "default[:note]"), derives the quantities that depend on
the wire shape (receiver position, auto reward offset), and validates the
cross-module invariants.  The echo of a loaded config is embedded in every
output file so results stay re-derivable from their own headers.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from . import wire as wire_mod
from .channel import ArrayConfig, ChannelConfig, boresight_power, look_angles
from .env import ConfigError, EnvConfig, check_invariants
from .dqn import TrainConfig
from .policies import PolicyKind

SCENARIOS = ("wind_only", "wind_plus_impulse")
STATE_MODES = ("single_point", "expanded")
# sweep axis -> the config key it sets
SWEEP_AXES = {"mass": "wire.mass_total_kg",
              "spring_k": "wire.spring_k_n_per_m",
              "lookback": "env.lookback_s"}

# default value strings, parsed through the same path as file values
DEFAULTS: dict[str, str] = {
    "scenario": "wind_only",
    "state_mode": "single_point",
    "seed": "0",
    "output_dir": "runs",

    "wire.n_points": "21",
    "wire.mass_total_kg": "10.0",
    "wire.spring_k_n_per_m": "1000.0",
    "wire.drag_c_per_s": "1.0",
    "wire.gravity_mps2": "0, 0, -9.8",
    "wire.wind_diffusion": "0.1",
    "wire.endpoint_separation_m": "10.0",
    "wire.substep_dt_s": "0.001",
    "wire.impulse_point": "4",
    "wire.impulse_force_n": "0, 0, 470",
    "wire.impulse_duration_s": "0.01",
    "wire.impulse_times_s": "1, 2, 3",

    "wind.amplitude_mps": "5.0",
    "wind.periods_s": "4, 6, 8",

    "channel.tx_power_dbm": "23.0",
    "channel.wavelength_m": "0.005",
    "channel.rx_gain_dbi": "8.0",
    "channel.pathloss_exponent": "2.0",
    "channel.pathloss_ref_db": "free_space",
    "channel.rx_distance_m": "5.0",

    "array.n_vertical": "32",
    "array.n_horizontal": "8",
    "array.corr_coeff": "1.0",
    "array.spacing_v_m": "0.0025",
    "array.spacing_h_m": "0.0025",
    "array.amplitude_norm": "paper_literal",

    "env.tau_s": "0.01",
    "env.lookback_s": "0.02",
    "env.episode_duration_s": "3.0",
    "env.refine_angle_deg": "1.0",
    "env.tx_point": "10",
    "env.sense_points": "2, 4, 6, 8, 10, 12, 14, 16, 18",
    "env.reward_offset_dbm": "auto",
    "env.reward_scale_db": "5.0",

    "train.discount": "0.99",
    "train.epsilon_train": "0.2",
    "train.epsilon_eval": "0.0",
    "train.learning_rate": "1e-4",
    "train.update_period_steps": "300",
    "train.sample_block": "2048",
    "train.minibatch": "32",
    "train.epochs": "8",
    "train.outer_iterations": "4",
    "train.target_sync_steps": "3000",
    "train.total_steps": "100000",
    "train.eval_steps": "300",
    "train.adam_beta1": "0.9",
    "train.adam_beta2": "0.999",
    "train.adam_eps": "1e-8",
    "train.replay_capacity": "50000",
    "train.hidden_sizes": "128, 128, 128",

    "eval.episodes": "5",

    "sweep.axis": "lookback",
    "sweep.values": "0.02, 0.04, 0.08",
    "sweep.repetitions": "3",
    "sweep.policies": ", ".join(k.value for k in PolicyKind),
}

# notes attached to defaults that encode a modelling choice
_DEFAULT_NOTES = {
    "channel.pathloss_exponent": "default:free-space",
    "channel.pathloss_ref_db": "default:free-space",
    "env.reward_offset_dbm": "default:auto-reward-offset",
    "wire.impulse_duration_s": "default:impulse-over-tau",
}


@dataclass
class SweepSpec:
    axis: str
    values: tuple[float, ...]
    repetitions: int
    policies: tuple[str, ...] = tuple(k.value for k in PolicyKind)

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis must be one of {tuple(SWEEP_AXES)}, "
                              f"got {self.axis!r}")
        if not self.values:
            raise ConfigError("sweep.values must be non-empty")
        if self.repetitions < 1:
            raise ConfigError("sweep.repetitions must be >= 1")
        for p in self.policies:
            try:
                PolicyKind(p)
            except ValueError:
                raise ConfigError(f"sweep.policies: unknown policy {p!r}") from None
        for i, p in enumerate(self.policies):
            if p in self.policies[:i]:
                raise ConfigError(f"sweep.policies: policy {p!r} is listed more than once")
        named = {}
        for v in self.values:
            name = self.cell_name(v, 0)
            if name in named:
                raise ConfigError(f"sweep.values: {named[name]!r} and {v!r} name the "
                                  f"same cell directory {name!r}")
            named[name] = v

    def cell_name(self, value: float, rep: int) -> str:
        """The directory name of one sweep cell."""
        return f"cell_{self.axis}_{value:g}_rep{rep}"


@dataclass
class ExperimentConfig:
    """Full closure of one run: physics, channel, env, training, bookkeeping."""

    scenario: str
    state_mode: str
    seed: int
    output_dir: str
    wire: wire_mod.WireParams
    wind: wire_mod.WindModel
    channel: ChannelConfig
    array: ArrayConfig
    env: EnvConfig
    train: TrainConfig
    sweep: SweepSpec
    eval_episodes: int
    values: dict[str, str] = field(default_factory=dict)      # all keys, string form
    provenance: dict[str, str] = field(default_factory=dict)  # key -> file|default[:note]
    derived: dict[str, object] = field(default_factory=dict)  # materialized quantities

    def echo(self) -> dict:
        """JSON-serializable header embedded in every output file."""
        return {"config": dict(self.values),
                "provenance": dict(self.provenance),
                "derived": dict(self.derived),
                "seed": self.seed}

    def echo_json(self) -> str:
        return json.dumps(self.echo(), sort_keys=True)


# --------------------------------------------------------------------------
# parsing helpers
# --------------------------------------------------------------------------

def _parse_file(path) -> dict[str, str]:
    values, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if not val:
                raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: {key!r} is set twice, on lines "
                                  f"{lines[key]} and {lineno}")
            values[key], lines[key] = val, lineno
    return values


class _Reader:
    def __init__(self, values: dict[str, str]):
        for k in values:
            if k not in DEFAULTS:
                raise ConfigError(f"unknown key {k!r}")
        self.values = dict(DEFAULTS)
        self.values.update(values)
        self.provenance = {
            k: ("file" if k in values else _DEFAULT_NOTES.get(k, "default"))
            for k in DEFAULTS
        }

    def raw(self, key) -> str:
        return self.values[key]

    def number(self, key, kind=float, count=1, none_if=None):
        """The finite numbers of `kind` at `key`: one number when count is 1,
        else a tuple of `count` (of any length when count is None); None when
        the value is the key's sentinel `none_if`."""
        raw = self.raw(key)
        if raw == none_if:
            return None
        try:
            vals = tuple(kind(p) for p in raw.split(","))
        except ValueError:
            vals = ()
        if vals and all(map(math.isfinite, vals)) and count in (None, len(vals)):
            return vals[0] if count == 1 else vals
        noun = "integer" if kind is int else "finite number"
        want = f"one {noun}" if count == 1 else f"{count or 'comma-separated'} {noun}s"
        if none_if is not None:
            want += f" or {none_if!r}"
        raise ConfigError(f"{key}: expected {want}, got {raw!r}")

    def choice(self, key, options) -> str:
        v = self.raw(key)
        if v not in options:
            raise ConfigError(f"{key}: must be one of {options}, got {v!r}")
        return v


# TrainConfig field annotation (a string: dqn postpones annotations) ->
# the kind and count its train.<field> key is read with
_FIELD_READS = {"float": (float, 1), "int": (int, 1), "tuple[int, ...]": (int, None)}


@contextmanager
def _section(name):
    """Re-raise a ValueError from building `name` as a ConfigError naming
    it; a ConfigError already names its key and passes through as is."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{name}: {e}") from e


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------

def load_config(path) -> ExperimentConfig:
    """Parse, default-fill, derive, and validate an experiment config file."""
    return build_config(_parse_file(path))


def default_config(**overrides: str) -> ExperimentConfig:
    """The all-defaults config, with optional key -> value-string overrides."""
    return build_config({k: str(v) for k, v in overrides.items()})


def build_config(values: dict[str, str]) -> ExperimentConfig:
    r = _Reader(values)

    scenario = r.choice("scenario", SCENARIOS)
    state_mode = r.choice("state_mode", STATE_MODES)
    seed = r.number("seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    diffusion = r.number("wire.wind_diffusion", count=None)
    if len(diffusion) not in (1, 9):
        raise ConfigError("wire.wind_diffusion: give one scalar (s -> s*I) "
                          "or nine row-major entries")
    with _section("wire"):
        wire_params = wire_mod.WireParams(
            n_points=r.number("wire.n_points", int),
            mass_total=r.number("wire.mass_total_kg"),
            spring_k=r.number("wire.spring_k_n_per_m"),
            drag_c=r.number("wire.drag_c_per_s"),
            gravity=np.array(r.number("wire.gravity_mps2", count=3)),
            wind_diffusion=(diffusion[0] * np.eye(3) if len(diffusion) == 1
                            else np.array(diffusion).reshape(3, 3)),
            endpoint_separation=r.number("wire.endpoint_separation_m"),
        )
    with _section("wind"):
        wind = wire_mod.WindModel(amplitude=r.number("wind.amplitude_mps"),
                                  periods=r.number("wind.periods_s", count=3))

    # receiver on the building wall: across the road from the wire midpoint,
    # at the height of the wire endpoints (sag above the origin)
    sag = wire_mod.sag_depth(wire_params)
    rx_position = np.array([0.0, r.number("channel.rx_distance_m"), sag])

    with _section("channel/array"):
        channel = ChannelConfig(
            tx_power_dbm=r.number("channel.tx_power_dbm"),
            wavelength=r.number("channel.wavelength_m"),
            rx_gain_dbi=r.number("channel.rx_gain_dbi"),
            pathloss_exponent=r.number("channel.pathloss_exponent"),
            pathloss_ref_db=r.number("channel.pathloss_ref_db", none_if="free_space"),
            rx_position=rx_position,
        )
        array = ArrayConfig(
            n_vertical=r.number("array.n_vertical", int),
            n_horizontal=r.number("array.n_horizontal", int),
            corr_coeff=r.number("array.corr_coeff"),
            spacing_v=r.number("array.spacing_v_m"),
            spacing_h=r.number("array.spacing_h_m"),
            amplitude_norm=r.choice("array.amplitude_norm",
                                    ("paper_literal", "power_norm")),
        )

    tx_point = r.number("env.tx_point", int)
    sense_points = r.number("env.sense_points", int, count=None)
    reward_offset = r.number("env.reward_offset_dbm", none_if="auto")
    if reward_offset is None:
        # centre the linear reward band 0-10 dB below perfect alignment
        eq = wire_mod.solve_equilibrium(wire_params)
        look = look_angles(eq.positions[tx_point - 1], rx_position)
        reward_offset = boresight_power(look, channel, array) - 5.0
    impulse_duration = r.number("wire.impulse_duration_s", none_if="substep")

    env_cfg = EnvConfig(
        tau=r.number("env.tau_s"),
        lookback=r.number("env.lookback_s"),
        episode_duration=r.number("env.episode_duration_s"),
        refine_angle=math.radians(r.number("env.refine_angle_deg")),
        tx_point=tx_point,
        sense_points=(tx_point,) if state_mode == "single_point" else sense_points,
        reward_offset_dbm=reward_offset,
        reward_scale_db=r.number("env.reward_scale_db"),
        impulse_enabled=(scenario == "wind_plus_impulse"),
        impulse_times_s=r.number("wire.impulse_times_s", count=None),
        impulse_point=r.number("wire.impulse_point", int),
        impulse_force=r.number("wire.impulse_force_n", count=3),
        impulse_duration_s=impulse_duration,
        substep_dt=r.number("wire.substep_dt_s"),
    )

    with _section("train"):
        train = TrainConfig(**{f.name: r.number(f"train.{f.name}", *_FIELD_READS[f.type])
                               for f in fields(TrainConfig)})

    sweep = SweepSpec(axis=r.raw("sweep.axis"),
                      values=r.number("sweep.values", count=None),
                      repetitions=r.number("sweep.repetitions", int),
                      policies=tuple(p.strip() for p in r.raw("sweep.policies").split(",")))

    eval_episodes = r.number("eval.episodes", int)
    if eval_episodes < 1:
        raise ConfigError("eval.episodes must be >= 1")

    cfg = ExperimentConfig(
        scenario=scenario, state_mode=state_mode, seed=seed,
        output_dir=r.raw("output_dir"),
        wire=wire_params, wind=wind, channel=channel, array=array,
        env=env_cfg, train=train, sweep=sweep, eval_episodes=eval_episodes,
        values=dict(r.values), provenance=dict(r.provenance),
        derived={
            "rx_position_m": [float(v) for v in rx_position],
            "sag_depth_m": float(sag),
            "reward_offset_dbm": float(reward_offset),
            "pathloss_ref_db": float(channel.beta_db),
            "impulse_duration_s": impulse_duration,
            "weight_init": "he-uniform hidden, uniform(+-1e-3) output, zero biases",
        },
    )
    check_invariants(cfg.env, cfg.wire)
    return cfg


def apply_smoke(values: dict[str, str]) -> dict[str, str]:
    """Reduced-scale profile for quick end-to-end runs."""
    smoke = dict(values)
    smoke.setdefault("train.total_steps", "600")
    smoke.setdefault("train.sample_block", "256")
    smoke.setdefault("train.target_sync_steps", "300")
    smoke.setdefault("eval.episodes", "2")
    return smoke
