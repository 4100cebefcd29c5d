"""Golden fixture: seeded outputs must stay byte-identical.

A tiny seeded training run and a tiny paired evaluation are hashed with
SHA-256 and compared with digests recorded before wire.step learned to
advance a block of substeps.  Any refactor or speed-up of the physics,
channel, env, learner or file writers must leave these bytes unchanged.

The scenario has impulses on and a 57-dimensional expanded state.  Each
episode's 10 ms impulse starts mid-interval (at 55 or 105 ms), so its
force is held across a tau boundary.

A tiny sweep over the same scenario pins the summary's bytes, both after
a fresh run and after a resume pass that finds every cell cached; its
digest was recorded before cached cells were checked against their echo.
The same sweep run in this process and in two forked workers writes the
same summary and cells-file bytes.
"""

import hashlib
import os
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

SWEEP = {**TINY, "sweep.axis": "mass", "sweep.values": "8, 12",
         "sweep.repetitions": "2", "sweep.policies": "oracle, fixed"}
SWEEP_SUMMARY = "5b0a7edf4e08f00d8928896c8c16117f7e0f6db055cb947ee6789686c711ff4b"


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


def test_sweep_summary_bytes_match_the_golden_digest(tmp_path):
    cfg = config.default_config(**SWEEP)
    for _ in ("fresh", "resume"):
        summary = bench.run_sweep(cfg, tmp_path)
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == SWEEP_SUMMARY


def test_sweep_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    cfg = config.default_config(**SWEEP)
    pid_log, real_evaluate = tmp_path / "pids", bench.evaluate_policies

    def noting_pid(*args, **kwargs):  # one line per cell evaluated: its process
        with open(pid_log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_evaluate(*args, **kwargs)
    monkeypatch.setattr(bench, "evaluate_policies", noting_pid)
    written, pids = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(bench, "usable_cpus", lambda n=cpus: n)
        # the cells file names each cell by its path: the same one for both counts
        (tmp_path / f"cpus{cpus}").mkdir()
        monkeypatch.chdir(tmp_path / f"cpus{cpus}")
        for run in ("fresh", "resume"):
            summary = bench.run_sweep(cfg, "sweep")
            assert hashlib.sha256(summary.read_bytes()).hexdigest() == SWEEP_SUMMARY
            written[cpus, run] = (summary.read_bytes(),
                                  Path("sweep", "sweep_mass_cells.json").read_bytes())
            pids[cpus, run] = [int(p) for p in pid_log.read_text().split()] \
                if pid_log.exists() else []
            pid_log.unlink(missing_ok=True)
    assert written[1, "fresh"] == written[2, "fresh"]
    assert written[1, "resume"] == written[2, "resume"]
    assert pids[1, "fresh"] == [os.getpid()] * 4
    assert len(pids[2, "fresh"]) == 4 and 1 <= len(set(pids[2, "fresh"])) <= 2
    assert os.getpid() not in pids[2, "fresh"]
    assert pids[1, "resume"] == pids[2, "resume"] == []  # every cell cached: no worker
