"""Golden fixture: seeded outputs must stay byte-identical.

A tiny seeded training run and a tiny paired evaluation are hashed with
SHA-256 and compared with digests recorded before wire.step learned to
advance a block of substeps.  Any refactor or speed-up of the physics,
channel, env, learner or file writers must leave these bytes unchanged.

The scenario has impulses on and a 57-dimensional expanded state.  Each
episode's 10 ms impulse starts mid-interval (at 55 or 105 ms), so its
force is held across a tau boundary.
"""

import hashlib
from pathlib import Path

import pytest

from wirebeam import bench, config
from wirebeam.policies import PolicyKind

TINY = {
    "seed": "7",
    "scenario": "wind_plus_impulse",
    "state_mode": "expanded",
    "wire.impulse_times_s": "0.055, 0.105",
    "env.episode_duration_s": "0.2",
    "train.total_steps": "60",
    "train.update_period_steps": "20",
    "train.sample_block": "32",
    "train.minibatch": "16",
    "train.epochs": "1",
    "train.outer_iterations": "1",
    "train.target_sync_steps": "20",
    "train.eval_steps": "20",
    "train.hidden_sizes": "8, 8",
    "eval.episodes": "2",
}

GOLDEN = {
    "checkpoint.bin":
        "8519383f96b489a4a64abf44544c38f56c482720af8e4fee37c0117c06e6b99f",
    "training_log.csv":
        "4557644870836d08ca8532ffde1543f6e806e5c5685131a5d5b01a78018a9102",
    "trace_oracle_ep000.csv":
        "69332963ec213b98fd36d304ce9c4075c82d55f83a074cd40001eee12542745b",
    "trace_oracle_ep001.csv":
        "22033829dd916980c2831dd7e264457d5bd0a5f59f4f00a293665095b0ff6c1b",
    "trace_dqn_ep000.csv":
        "4ae57c77fb1fece03ac3456eddbc8f0e1b4c510e3b57e987bc7035930d91160a",
    "trace_dqn_ep001.csv":
        "f5974b39e9f0c38c263dc2e91ecb36372007aa1f5359431a263ea07056b75133",
}


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    cfg = config.default_config(**TINY)
    ckpt, _ = bench.run_train(cfg, out)
    for kind in (PolicyKind.ORACLE, PolicyKind.DQN_GREEDY):
        bench.run_eval(cfg, ckpt, kind, cfg.eval_episodes, out)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_the_golden_digest(golden_outputs, name):
    digest = hashlib.sha256(Path(golden_outputs, name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
