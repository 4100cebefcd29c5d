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

__version__ = "0.1.0"
