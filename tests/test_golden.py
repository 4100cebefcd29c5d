"""Golden fixture: seeded outputs must stay byte-identical.

A tiny seeded training run and a tiny paired evaluation are hashed with
SHA-256 and compared with digests recorded before wire.step learned to
advance a block of substeps.  Any refactor or speed-up of the physics,
channel, env, learner or file writers must leave these bytes unchanged.

The scenario has impulses on and a 57-dimensional expanded state.  Each
episode's 10 ms impulse starts mid-interval (at 55 or 105 ms), so its
force is held across a tau boundary.

`METRICS_GOLDEN` pins the metrics files of the same run, whose
full-precision `mean_angle_error_deg` is the one output of the
angle-error path, and the fixed beam's traces and metrics; it was
recorded before the look geometry was computed once per step and carried
in each step record.  In this scenario the oracle never leaves the centre
action, so its traces equal the fixed beam's.

`MOVING` is the same scenario with a 0.05-degree refine step, small
enough that the oracle leaves the centre action in 9 of its 40 steps.
`MOVING_GOLDEN` pins its oracle and DQN traces and its metrics files, and
`MOVING_SWEEP_GOLDEN` the cell metrics and summary of its sweep run in two
forked workers.  They were recorded before the departure geometry became
a plain tuple and the oracle's two functions became one.

A tiny sweep over the same scenario pins the summary's bytes, both after
a fresh run and after a resume pass that finds every cell cached; its
digest was recorded before cached cells were checked against their echo.
The same sweep run in this process, in two forked workers and, on three
CPUs, in four workers at once writes the same summary and cells-file
bytes.

The benchmark's `eval_paired` unit, run once at full scale on its default
seed, must give the digests `perfbench/workloads.py` pins for it: 300-step
episodes with impulses and the 57-dimensional state, where the tiny runs
above stop after 20 steps.
"""

import csv
import hashlib
import importlib
import os
import time
from pathlib import Path

import pytest

from wirebeam import bench, config
from wirebeam.env import CENTER_ACTION
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

METRICS_GOLDEN = {
    "metrics_oracle.json":
        "9e03173d79185b19afcf46814456b6b9bdde6bbe781bccaba23eeef756187024",
    "metrics_dqn.json":
        "f4448cdaaa94441e3193b276f4acf760466a7ff3a1f8abe244f61a9dd338aa1a",
    "metrics_fixed.json":
        "dbc52429c98fc0b97563057a9736aab49cd7658ebc4001adabfc12110dd854c0",
    "trace_fixed_ep000.csv":
        "69332963ec213b98fd36d304ce9c4075c82d55f83a074cd40001eee12542745b",
    "trace_fixed_ep001.csv":
        "22033829dd916980c2831dd7e264457d5bd0a5f59f4f00a293665095b0ff6c1b",
}

MOVING = {**TINY, "env.refine_angle_deg": "0.05"}
MOVING_ORACLE_OFF_CENTRE = 9  # steps, of 2 episodes x 20

MOVING_GOLDEN = {
    "trace_oracle_ep000.csv":
        "cc865736e92c2dfa8696074cba7199dd24d2d22945e77eafe4746dffeb8294a7",
    "trace_oracle_ep001.csv":
        "aaaeefc38241a43ab89b8f69278212fbf5ff9a5b2897ad3cfe71be7740170364",
    "trace_dqn_ep000.csv":
        "6af182610aecd2a095d0b0144ea782076874f2f37ce17f8eb2713bab35708e8c",
    "trace_dqn_ep001.csv":
        "a8272bd32ecc0e602174ce9c5c76059aefd66081f3771bf37ad957e648d524e8",
    "metrics_oracle.json":
        "d39a3de2f7bcb97db2eef6a6b50dc3034a8a88690cb5599f8911799d5d206fe7",
    "metrics_dqn.json":
        "0258305932a96814fc8f0027177d2a5538c255a812737338f2de206f8add0e15",
    "metrics_fixed.json":
        "f5c00c62a2309d76315880782135d6bcc104b3674231bc895914f9c941920787",
}

SWEEP = {**TINY, "sweep.axis": "mass", "sweep.values": "8, 12",
         "sweep.repetitions": "2", "sweep.policies": "oracle, fixed"}
SWEEP_SUMMARY = "5b0a7edf4e08f00d8928896c8c16117f7e0f6db055cb947ee6789686c711ff4b"

MOVING_SWEEP_GOLDEN = {
    "cell_mass_8_rep0/metrics_oracle.json":
        "3dbac8e8f139f5bcf6387af5dfec5b5d0bc91f3f57234e334660ce72336eb934",
    "cell_mass_8_rep0/metrics_fixed.json":
        "29e21c07fa264f01861b845629b305180e7f7559ca713c80db7a055da4547b65",
    "cell_mass_8_rep1/metrics_oracle.json":
        "02c4efcadb4db3d8b0b656084cbf528a011777ca2407596073911c2722943e65",
    "cell_mass_8_rep1/metrics_fixed.json":
        "c35f2e3cfcb2457164a280ce4820dcf829633faa2ebd4c339092cadde7fe23d3",
    "cell_mass_12_rep0/metrics_oracle.json":
        "7d2d58fce095ac3901b6ee2e3ae6cd0fce4a9bf6c7a0d3f8e5b7d823294cf634",
    "cell_mass_12_rep0/metrics_fixed.json":
        "a767fc6e17fa00217324aa3db821141b1423a19950340e6eda304e650f71197b",
    "cell_mass_12_rep1/metrics_oracle.json":
        "2922365385f2650347014797656c370bc04005f52c007b66a54b7f2556960168",
    "cell_mass_12_rep1/metrics_fixed.json":
        "57bc5963dc7afb52b4fbcd207180626d51c2f9588c95d5636d93e58785789626",
    "sweep_mass_summary.csv":
        "5c1367b6c207309fccd1c69a29357111bd042d2b609e990cde97037a35255005",
}


def train_and_evaluate(values: dict, out: Path) -> Path:
    cfg = config.default_config(**values)
    ckpt, _ = bench.run_train(cfg, out)
    for kind in (PolicyKind.ORACLE, PolicyKind.DQN_GREEDY, PolicyKind.FIXED_BEAM):
        bench.run_eval(cfg, ckpt, kind, cfg.eval_episodes, out)
    return out


def note_pid_and_wait(pid_log: Path, together: int):
    """Append this process's pid to `pid_log`, then wait, up to 20 s, until
    it holds `together` pids: the cells that noted them ran at once."""
    with open(pid_log, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    deadline = time.monotonic() + 20
    while len(pid_log.read_text().split()) < together and time.monotonic() < deadline:
        time.sleep(0.01)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    return train_and_evaluate(TINY, tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def moving_outputs(tmp_path_factory):
    return train_and_evaluate(MOVING, tmp_path_factory.mktemp("moving"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_the_golden_digest(golden_outputs, name):
    assert sha256(golden_outputs / name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(METRICS_GOLDEN))
def test_metrics_and_fixed_beam_bytes_match_their_golden_digest(golden_outputs, name):
    assert sha256(golden_outputs / name) == METRICS_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MOVING_GOLDEN))
def test_moving_oracle_bytes_match_their_golden_digest(moving_outputs, name):
    assert sha256(moving_outputs / name) == MOVING_GOLDEN[name]


def test_the_moving_oracle_leaves_the_centre_action(moving_outputs):
    actions = [row["action"] for ep in (0, 1) for row in csv.DictReader(
        (moving_outputs / f"trace_oracle_ep{ep:03d}.csv").read_text().splitlines())]
    assert len(actions) == 40
    off_centre = sum(int(a) != CENTER_ACTION for a in actions)
    assert off_centre == MOVING_ORACLE_OFF_CENTRE


def test_moving_sweep_cell_bytes_match_their_golden_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
    cfg = config.default_config(**{**SWEEP, **MOVING})
    bench.run_sweep(cfg, tmp_path)
    assert {name: sha256(tmp_path / name) for name in MOVING_SWEEP_GOLDEN} \
        == MOVING_SWEEP_GOLDEN


def test_sweep_summary_bytes_match_the_golden_digest(tmp_path):
    cfg = config.default_config(**SWEEP)
    for _ in ("fresh", "resume"):
        summary = bench.run_sweep(cfg, tmp_path)
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == SWEEP_SUMMARY


def test_sweep_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    cfg = config.default_config(**SWEEP)
    pid_log, real_evaluate = tmp_path / "pids", bench.evaluate_policies

    def noting_pid(*args, **kwargs):  # one line per cell evaluated: its process
        note_pid_and_wait(pid_log, together)
        return real_evaluate(*args, **kwargs)
    monkeypatch.setattr(bench, "evaluate_policies", noting_pid)
    written, pids = {}, {}
    for cpus, together in ((1, 1), (2, 1), (3, 4)):
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
    # 4 cells on 3 CPUs fill one round of 4 workers
    assert written[1, "fresh"] == written[3, "fresh"]
    assert written[1, "resume"] == written[3, "resume"]
    assert len(set(pids[3, "fresh"])) == 4 and os.getpid() not in pids[3, "fresh"]
    assert pids[3, "resume"] == []


def test_full_scale_eval_paired_unit_matches_the_benchmark_pins(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    unit = workloads.EvalPaired()
    ctx = unit.setup(workloads.DEFAULT_SEED, "full", tmp_path)
    run = unit.unit(ctx, tmp_path)
    unit.check(ctx, tmp_path, run)
    assert run.failed == 0
    assert run.digests == workloads.PINNED["eval_paired"]
