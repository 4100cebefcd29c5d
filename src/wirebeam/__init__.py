"""Beam tracking for a mmWave node riding an overhead messenger wire.

Subpackage map:

- wire:     spring-chain wire physics (equilibrium, stochastic integration)
- channel:  planar-array gain and link budget
- env:      delayed-observation tracking environment
- dqn:      from-scratch deep Q-learning (network, Adam, replay, training)
- policies: oracle and fixed-beam references
- config:   experiment configuration files
- bench:    training/evaluation/sweep orchestration and file outputs
"""

from .wire import (ImpulseEvent, WindModel, WireParams, WireState,
                   simulate_trajectory, solve_equilibrium, step)
from .channel import (ArrayConfig, BeamOrientation, ChannelConfig,
                      DepartureGeometry, aod_geometry, array_factor,
                      element_gain, received_power)
from .env import (BeamTrackingEnv, EnvConfig, StepOutcome, apply_action,
                  assemble_state, proxy_reward)
from .dqn import (AdamState, MlpParams, ReplayBuffer, TrainConfig, Transition,
                  adam_step, forward, grad, huber, select_action, td_target,
                  train)
from .policies import PolicyKind, fixed_action, oracle_action
from .config import ExperimentConfig, SweepSpec, default_config, load_config
from .bench import MetricsRecord, run_eval, run_sweep, run_train

__version__ = "0.1.0"
