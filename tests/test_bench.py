"""Bench harness: training/eval runs, sweeps, CLI, output files."""

import ast
import contextlib
import hashlib
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wirebeam import bench, channel, dqn, files, wire
from wirebeam import env as envmod
from wirebeam.bench import (derive_seed, load_policy, make_envs,
                            post_impulse_window, rollout_episode, run_eval,
                            run_sweep, run_train)
from wirebeam.cli import main
from wirebeam.config import ConfigError, default_config
from wirebeam.env import angle_error_deg, write_trace_csv
from wirebeam.policies import PolicyKind

from test_dqn import OVERSIZED_HEADERS, write_oversized_checkpoint

TINY_TRAIN = {
    "env.episode_duration_s": "0.5",
    "train.total_steps": "40",
    "train.update_period_steps": "20",
    "train.sample_block": "32",
    "train.minibatch": "16",
    "train.epochs": "1",
    "train.outer_iterations": "1",
    "train.target_sync_steps": "20",
    "train.eval_steps": "5",
    "train.hidden_sizes": "8, 8",
    "eval.episodes": "1",
}


def tiny_cfg(**extra):
    over = dict(TINY_TRAIN)
    over.update(extra)
    return default_config(**over)


class TestRollouts:
    def test_oracle_angle_error_settles_below_one_degree(self):
        cfg = default_config(**{"env.episode_duration_s": "1.0"})
        env = make_envs(cfg, [5])[0]
        rows = rollout_episode(env, load_policy(cfg, PolicyKind.ORACLE))
        errors = [angle_error_deg(r.look, r.beam) for r in rows]
        assert float(np.mean(errors[10:])) <= 1.0

    def test_fixed_below_oracle_on_paired_seed(self):
        cfg = default_config(**{"env.episode_duration_s": "1.0"})
        means = {}
        for kind in (PolicyKind.ORACLE, PolicyKind.FIXED_BEAM):
            env = make_envs(cfg, [3])[0]
            rows = rollout_episode(env, load_policy(cfg, kind))
            means[kind] = np.mean([r.raw_power_dbm for r in rows])
        assert means[PolicyKind.FIXED_BEAM] < means[PolicyKind.ORACLE]

    def test_post_impulse_window_is_30_steps(self):
        cfg = default_config(scenario="wind_plus_impulse",
                             **{"wire.impulse_times_s": "1.0"})
        env = make_envs(cfg, [1])[0]
        rows = rollout_episode(env, load_policy(cfg, PolicyKind.FIXED_BEAM))
        assert len(rows) == cfg.env.episode_steps and rows[-1].episode_done
        window = post_impulse_window(env, rows)
        assert len(window) == 30
        # window covers steps 101..130 exactly
        powers = [r.raw_power_dbm for r in rows]
        np.testing.assert_array_equal(window, powers[100:130])

    def test_window_empty_when_impulse_at_episode_end(self):
        cfg = default_config(scenario="wind_plus_impulse",
                             **{"wire.impulse_times_s": "3.0"})
        env = make_envs(cfg, [1])[0]
        rows = rollout_episode(env, load_policy(cfg, PolicyKind.FIXED_BEAM))
        assert post_impulse_window(env, rows) == []


class TestRunEval:
    def test_zero_episodes_rejected(self, tmp_path):
        cfg = tiny_cfg()
        with pytest.raises(bench.EvalError):
            run_eval(cfg, None, PolicyKind.ORACLE, 0, tmp_path)

    def test_metrics_and_traces_written(self, tmp_path):
        cfg = tiny_cfg()
        rec = run_eval(cfg, None, PolicyKind.ORACLE, 2, tmp_path)
        assert rec.episodes == 2
        assert (tmp_path / "trace_oracle_ep000.csv").exists()
        assert (tmp_path / "trace_oracle_ep001.csv").exists()
        stored = json.loads((tmp_path / "metrics_oracle.json").read_text())
        assert stored["mean_power_dbm"] == pytest.approx(rec.mean_power_dbm)
        assert stored["config_echo"]["seed"] == cfg.seed

    def test_dqn_requires_checkpoint(self, tmp_path):
        cfg = tiny_cfg()
        with pytest.raises(bench.EvalError):
            run_eval(cfg, None, PolicyKind.DQN_GREEDY, 1, tmp_path)

    def test_architecture_mismatch_detected(self, tmp_path):
        cfg = tiny_cfg()
        ckpt, _ = run_train(cfg, tmp_path / "train")
        wrong = tiny_cfg(**{"train.hidden_sizes": "16, 16"})
        with pytest.raises(bench.EvalError, match="architecture"):
            run_eval(wrong, ckpt, PolicyKind.DQN_GREEDY, 1, tmp_path / "eval")


    @pytest.mark.parametrize("kind", [PolicyKind.ORACLE, PolicyKind.FIXED_BEAM])
    def test_one_look_geometry_per_env_step_and_per_env(self, tmp_path, monkeypatch, kind):
        # the reward, the oracle, the traces and the metrics share each step's
        # look geometry: one look_angles call per step, plus one per env built
        cfg, calls, real = tiny_cfg(), [], channel.look_angles

        def counting(*args):
            calls.append(args)
            return real(*args)
        for mod in [m for name, m in sys.modules.items() if name.startswith("wirebeam")]:
            if getattr(mod, "look_angles", None) is real:
                monkeypatch.setattr(mod, "look_angles", counting)
        run_eval(cfg, None, kind, 2, tmp_path)
        assert (tmp_path / f"trace_{kind.value}_ep001.csv").exists()
        assert (tmp_path / f"metrics_{kind.value}.json").exists()
        assert len(calls) == 2 * cfg.env.episode_steps + 2

    @pytest.mark.parametrize("kind, per_step", [(PolicyKind.ORACLE, 0),
                                                (PolicyKind.FIXED_BEAM, 0),
                                                (PolicyKind.DQN_GREEDY, 1)])
    def test_the_observation_is_built_only_for_a_policy_that_reads_it(
            self, tmp_path, monkeypatch, kind, per_step):
        # the oracle reads the true look geometry and the fixed beam reads
        # nothing; the greedy net reads the observation before every step
        cfg = tiny_cfg()
        ckpt = None
        if kind is PolicyKind.DQN_GREEDY:
            ckpt, _ = run_train(cfg, tmp_path / "train")
        calls, real = [], envmod.assemble_state
        monkeypatch.setattr(envmod, "assemble_state",
                            lambda *args: calls.append(args) or real(*args))
        run_eval(cfg, ckpt, kind, 2, tmp_path / "eval")
        assert len(calls) == per_step * 2 * cfg.env.episode_steps

    def test_metrics_file_appears_only_when_whole(self, tmp_path, monkeypatch):
        real_replace = os.replace

        def fail(src, dst):  # the traces land, the metrics file cannot
            if Path(dst).name.startswith("metrics"):
                raise OSError("cannot move into place")
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="cannot move"):
            run_eval(tiny_cfg(), None, PolicyKind.ORACLE, 1, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace_oracle_ep000.csv"]


class TestRunTrain:
    def test_outputs_and_byte_identical_checkpoints(self, tmp_path):
        cfg = tiny_cfg()
        ckpt1, log1 = run_train(cfg, tmp_path / "a")
        ckpt2, log2 = run_train(cfg, tmp_path / "b")
        assert ckpt1.read_bytes() == ckpt2.read_bytes()
        assert log1.read_text() == log2.read_text()
        assert (tmp_path / "a" / "checkpoint.bin.json").exists()
        header, columns = log1.read_text().splitlines()[:2]
        assert header.startswith("# config ")
        assert columns.startswith("global_step,phase,mean_eval_power_dbm,"
                                  "mean_proxy_reward,loss")

    def test_checkpoint_evaluates(self, tmp_path):
        cfg = tiny_cfg()
        ckpt, _ = run_train(cfg, tmp_path)
        rec = run_eval(cfg, ckpt, PolicyKind.DQN_GREEDY, 1, tmp_path)
        assert math.isfinite(rec.mean_power_dbm)

    def test_a_run_that_fails_before_writing_leaves_no_directory(self, tmp_path,
                                                                  monkeypatch):
        def failing_train(*args, **kwargs):
            raise RuntimeError("learner diverged")
        monkeypatch.setattr(dqn, "train", failing_train)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="learner diverged"):
            run_train(tiny_cfg(), out)
        assert not out.exists()


# (axis, a good value, a value that forms no valid config)
BAD_SWEEP_VALUES = [("lookback", "0.02", "0.015"), ("lookback", "0.02", "-0.02"),
                    ("spring_k", "1000", "1e6"), ("mass", "10", "-1")]


class TestRunSweep:
    def test_summary_rows_and_resume(self, tmp_path):
        cfg = tiny_cfg(**{"sweep.axis": "mass", "sweep.values": "5, 10, 15",
                          "sweep.repetitions": "1", "sweep.policies": "oracle"})
        summary = run_sweep(cfg, out_dir=tmp_path)
        lines = summary.read_text().splitlines()
        assert len(lines) == 2 + 3  # header comment + columns + 3 rows
        cell_files = sorted(tmp_path.glob("cell_*/metrics_oracle.json"))
        assert len(cell_files) == 3
        first = json.loads((tmp_path / "sweep_mass_cells.json").read_text())["cells"]
        assert {c["status"] for c in first} == {"ok"}
        stamps = {p: p.stat().st_mtime_ns for p in cell_files}
        run_sweep(cfg, out_dir=tmp_path)  # resume: nothing recomputed
        assert {p: p.stat().st_mtime_ns for p in cell_files} == stamps
        second = json.loads((tmp_path / "sweep_mass_cells.json").read_text())["cells"]
        assert {c["status"] for c in second} == {"cached"}

    def test_cut_off_metrics_file_is_recomputed(self, tmp_path):
        cfg = tiny_cfg(**{"sweep.axis": "mass", "sweep.values": "10",
                          "sweep.repetitions": "1", "sweep.policies": "oracle"})
        run_sweep(cfg, out_dir=tmp_path)
        metrics = tmp_path / "cell_mass_10_rep0" / "metrics_oracle.json"
        whole = metrics.read_bytes()
        metrics.write_bytes(whole[:20])  # as left by a run killed mid-write
        summary = run_sweep(cfg, out_dir=tmp_path)
        cells = json.loads((tmp_path / "sweep_mass_cells.json").read_text())["cells"]
        assert [c["status"] for c in cells] == ["ok"]
        assert metrics.read_bytes() == whole
        assert summary.read_text().splitlines()[-1].startswith("mass,10.0,oracle,1,")

    @pytest.mark.parametrize("axis, good, value", BAD_SWEEP_VALUES)
    def test_bad_value_fails_before_anything_is_written(self, tmp_path, axis, good, value):
        # the good value comes first, so a late check would have run its cell
        cfg = tiny_cfg(**{"sweep.axis": axis, "sweep.values": f"{good}, {value}",
                          "sweep.repetitions": "1", "sweep.policies": "oracle"})
        out = tmp_path / "sweep"
        named = re.escape(f"sweep over {axis} = {float(value):g}: ")
        with pytest.raises(ConfigError, match=named):
            run_sweep(cfg, out_dir=out)
        assert not out.exists()

    def test_cell_config_keeps_the_sweep_configs_provenance(self, tmp_path):
        cfg = default_config(**{"sweep.axis": "mass", "sweep.values": "12",
                                "sweep.repetitions": "1", "sweep.policies": "oracle",
                                "eval.episodes": "1", "env.episode_duration_s": "0.2"})
        cell = bench.sweep_cell_config(cfg, "mass", 12.0, 5)
        assert cell.values == {**cfg.values, "wire.mass_total_kg": "12.0", "seed": "5"}
        file_keys = {"sweep.axis", "sweep.values", "sweep.repetitions", "sweep.policies",
                     "eval.episodes", "env.episode_duration_s", "wire.mass_total_kg", "seed"}
        assert {k for k, v in cell.provenance.items() if v == "file"} == file_keys
        assert {k: v for k, v in cell.provenance.items() if k not in file_keys} == \
            {k: v for k, v in cfg.provenance.items() if k not in file_keys}
        run_sweep(cfg, out_dir=tmp_path)
        rec = json.loads((tmp_path / "cell_mass_12_rep0" / "metrics_oracle.json").read_text())
        assert rec["config_echo"]["provenance"] == cell.provenance

    def test_paired_seeds_across_policies(self, tmp_path):
        cfg = tiny_cfg(**{"sweep.axis": "mass", "sweep.values": "10",
                          "sweep.repetitions": "1",
                          "sweep.policies": "oracle, fixed"})
        run_sweep(cfg, out_dir=tmp_path)
        oracle = json.loads((tmp_path / "cell_mass_10_rep0" /
                             "metrics_oracle.json").read_text())
        fixed = json.loads((tmp_path / "cell_mass_10_rep0" /
                            "metrics_fixed.json").read_text())
        assert oracle["config_echo"]["seed"] == fixed["config_echo"]["seed"]
        assert oracle["mean_power_dbm"] >= fixed["mean_power_dbm"]


class TestSweepCellBatch:
    """A sweep cell evaluates its policies over one wire batch."""

    SWEEP = {"sweep.axis": "mass", "sweep.values": "10, 12", "sweep.repetitions": "1",
             "sweep.policies": "oracle, fixed", "eval.episodes": "2",
             "env.episode_duration_s": "0.2"}
    KINDS = (PolicyKind.ORACLE, PolicyKind.FIXED_BEAM)

    def test_one_trajectory_per_evaluation_seed(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(**self.SWEEP)
        run_sweep(cfg, out_dir=tmp_path / "sweep")
        # counted in this process: a sweep's cells may run in worker processes
        streams, real_trajectory = [], wire.trajectory

        def counting_trajectory(*args, **kwargs):  # states drawn, per stream started
            i = len(streams)
            streams.append(0)
            for state in real_trajectory(*args, **kwargs):
                streams[i] += 1
                yield state
        monkeypatch.setattr(wire, "trajectory", counting_trajectory)
        one_batch = cfg.env.episode_steps + 1  # the equilibrium, then one per step
        names = [f"metrics_{kind.value}.json" for kind in self.KINDS]
        for vi, value in enumerate(cfg.sweep.values):
            cell_cfg = bench.sweep_cell_config(cfg, "mass", value, derive_seed(cfg.seed, vi, 0))
            cell = tmp_path / f"cell_{value:g}"
            cell.mkdir()
            streams.clear()
            outcomes = bench.run_sweep_cell(cell_cfg, cell, [k.value for k in self.KINDS])
            assert streams == [one_batch]  # one batch for the cell's policies
            assert [outcomes[k.value][0] for k in self.KINDS] == ["ok", "ok"]
            streams.clear()
            alone = tmp_path / f"alone_{value:g}"
            for kind in self.KINDS:
                run_eval(cell_cfg, None, kind, cell_cfg.eval_episodes, alone)
            assert streams == [one_batch] * 2  # one batch per run_eval
            for name in names:
                swept = tmp_path / "sweep" / f"cell_mass_{value:g}_rep0" / name
                assert swept.read_bytes() == (cell / name).read_bytes() == \
                    (alone / name).read_bytes()

    def test_a_failing_policy_leaves_the_others_untouched(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(**self.SWEEP)
        run_sweep(cfg, out_dir=tmp_path / "whole")
        real_load = bench.load_policy

        def failing_load(cell_cfg, kind, checkpoint=None):
            fn = real_load(cell_cfg, kind, checkpoint)
            if kind is not PolicyKind.ORACLE or cell_cfg.wire.mass_total != 10.0:
                return fn
            calls = []  # the cell's own count, in whichever process runs it

            def failing_oracle(env):
                # partway through the cell's first episode, before the
                # fixed beam reads the rest of the batch
                calls.append(1)
                if len(calls) == 5:
                    raise RuntimeError("oracle lost the node")
                return fn(env)
            return failing_oracle
        monkeypatch.setattr(bench, "load_policy", failing_load)
        run_sweep(cfg, out_dir=tmp_path / "failed")
        cells = json.loads((tmp_path / "failed" / "sweep_mass_cells.json").read_text())
        assert [(c["value"], c["policy"], c["status"]) for c in cells["cells"]] == [
            (10.0, "oracle", "failed: oracle lost the node"), (10.0, "fixed", "ok"),
            (12.0, "oracle", "ok"), (12.0, "fixed", "ok")]
        whole = sorted(p.relative_to(tmp_path / "whole")
                       for p in (tmp_path / "whole").glob("cell_*/metrics_*.json"))
        kept = sorted(p.relative_to(tmp_path / "failed")
                      for p in (tmp_path / "failed").glob("cell_*/metrics_*.json"))
        assert kept == [p for p in whole if p != Path("cell_mass_10_rep0/metrics_oracle.json")]
        for rel in kept:
            assert (tmp_path / "failed" / rel).read_bytes() == \
                (tmp_path / "whole" / rel).read_bytes()


class TestSweepCellCheckpoint:
    @pytest.mark.parametrize("which", sorted(OVERSIZED_HEADERS))
    def test_an_oversized_checkpoint_header_is_retrained(self, tmp_path, which):
        cfg = tiny_cfg()
        clean, bad = tmp_path / "clean", tmp_path / "bad"
        clean.mkdir()
        bad.mkdir()
        assert bench.run_sweep_cell(cfg, clean, ["dqn"])["dqn"][0] == "ok"
        write_oversized_checkpoint(bad / "checkpoint.bin", which)
        assert bench.run_sweep_cell(cfg, bad, ["dqn"])["dqn"][0] == "ok"
        for name in ("checkpoint.bin", "training_log.csv", "metrics_dqn.json"):
            assert (bad / name).read_bytes() == (clean / name).read_bytes()

    @pytest.mark.parametrize("name", ["checkpoint.bin.json", "training_log.csv",
                                      "checkpoint.bin"])
    def test_a_cell_killed_mid_training_retrains_on_rerun(self, tmp_path, monkeypatch,
                                                          name):
        # a kill lands between two writes; a rerun that trusted a checkpoint
        # written before the kill would skip training and never write the rest
        cfg = tiny_cfg()
        clean, killed = tmp_path / "clean", tmp_path / "killed"
        assert bench.run_sweep_cell(cfg, clean, ["dqn"])["dqn"][0] == "ok"
        real_open = open

        def killing_open(path, *args, **kwargs):
            if Path(path).name == name + ".tmp":
                raise Killed
            return real_open(path, *args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(files, "open", killing_open, raising=False)
            with pytest.raises(Killed):
                bench.run_sweep_cell(cfg, killed, ["dqn"])
        assert bench.run_sweep_cell(cfg, killed, ["dqn"])["dqn"][0] == "ok"
        assert sorted(p.name for p in killed.iterdir()) == \
            sorted(p.name for p in clean.iterdir())
        for path in clean.iterdir():
            assert (killed / path.name).read_bytes() == path.read_bytes()


class Killed(BaseException):
    """Passes the `except Exception` handlers, as a kill does."""


class WriteKiller:
    """Counts a run's `atomic_open` calls by file name, and kills the `at`-th
    (counted from 1; 0 kills none) while its temporary file is open: by
    raising `Killed`, or with `exiting` by letting it be written and then
    ending the process with `os._exit`, as a real kill does."""

    EXIT_CODE = 17

    def __init__(self, monkeypatch):
        self.opened, self.at, self.exiting = [], 0, False
        real_open = files.atomic_open

        @contextlib.contextmanager
        def counting_open(path, *args, **kwargs):
            self.opened.append(Path(path).name)
            with real_open(path, *args, **kwargs) as fh:
                killed = len(self.opened) == self.at
                if killed and not self.exiting:
                    raise Killed  # the temporary file is open, the final one untouched
                yield fh
                if killed:
                    fh.flush()  # written, never closed or renamed
                    os._exit(self.EXIT_CODE)
        monkeypatch.setattr(files, "atomic_open", counting_open)
        monkeypatch.setattr(dqn, "atomic_open", counting_open)

    def kill(self, run, at: int, exiting: bool = False):
        """`run()` with its `at`-th write killed; with `exiting`, in a forked
        child, which must die of the kill."""
        self.opened.clear()
        self.at, self.exiting = at, exiting
        try:
            if not exiting:
                with pytest.raises(Killed):
                    run()
                return
            pid = os.fork()
            if pid == 0:
                try:
                    run()
                finally:  # a run that ends here was never killed
                    os._exit(1)
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == self.EXIT_CODE
        finally:
            self.at = 0


def file_tree(out) -> dict[Path, str]:
    """Each file under `out`, by its path relative to `out` -> the SHA-256
    of its bytes."""
    return {path.relative_to(out): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


class TestKilledRuns:
    """A tiny `run_train` and a tiny `run_eval`, killed at each of their
    writes, then rerun with no fault."""

    @pytest.mark.parametrize("exiting", [False, True], ids=["raised", "exited"])
    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_a_kill_at_any_write_leaves_whole_files_and_reruns_to_the_clean_tree(
            self, tmp_path, monkeypatch, verb, exiting):
        cfg = tiny_cfg(**{"eval.episodes": "2"})
        out = tmp_path / "out"
        if verb == "train":
            writes = ["checkpoint.bin.json", "training_log.csv", "checkpoint.bin"]
            run = lambda: run_train(cfg, out)  # noqa: E731
        else:
            checkpoint = run_train(cfg, tmp_path / "trained")[0]
            writes = ["trace_dqn_ep000.csv", "trace_dqn_ep001.csv", "metrics_dqn.json"]
            run = lambda: run_eval(cfg, checkpoint, PolicyKind.DQN_GREEDY, 2, out)  # noqa: E731
        killer = WriteKiller(monkeypatch)
        run()
        clean = file_tree(out)
        assert killer.opened == writes and list(clean) == sorted(map(Path, writes))
        for k, name in enumerate(writes, start=1):
            shutil.rmtree(out)
            killer.kill(run, k, exiting)
            left = file_tree(out)
            if exiting:  # the kill left the write's temporary file behind
                assert left.pop(Path(name + ".tmp"))
            # only whole files, those written before the kill
            assert left == {Path(n): clean[Path(n)] for n in writes[:k - 1]}, name
            run()
            assert file_tree(out) == clean, name


class TestKilledSweep:
    """A one-cell sweep of every policy, killed at each of its writes or
    partway through a rollout, then rerun."""

    SWEEP = {"sweep.axis": "mass", "sweep.values": "10", "sweep.repetitions": "1",
             "sweep.policies": "oracle, fixed, dqn", "env.episode_duration_s": "0.2"}

    @staticmethod
    def tree(out):
        """`file_tree(out)`, with the cells file parsed and without its
        per-entry statuses, which say whether an entry was cached."""
        found = file_tree(out)
        found.pop(Path("sweep_mass_cells.json"))
        cells = json.loads((out / "sweep_mass_cells.json").read_text())
        for entry in cells["cells"]:
            assert entry.pop("status") in ("ok", "cached")
        found["cells"] = cells
        return found

    def test_a_kill_at_any_write_reruns_to_the_clean_bytes(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(**self.SWEEP)
        monkeypatch.setattr(bench, "usable_cpus", lambda: 1)  # the cell runs here
        out = tmp_path / "sweep"  # one directory: the cells file names its paths
        killer = WriteKiller(monkeypatch)
        run_sweep(cfg, out_dir=out)
        clean, writes = self.tree(out), list(killer.opened)
        assert writes == ["checkpoint.bin.json", "training_log.csv", "checkpoint.bin",
                          "metrics_oracle.json", "metrics_fixed.json", "metrics_dqn.json",
                          "sweep_mass_summary.csv", "sweep_mass_cells.json"]
        for k, name in enumerate(writes, start=1):
            shutil.rmtree(out)
            killer.kill(lambda: run_sweep(cfg, out_dir=out), k)
            run_sweep(cfg, out_dir=out)
            assert self.tree(out) == clean, name

        # killed partway through the fixed beam's episodes, which come after
        # the oracle's: the oracle's metrics are kept
        shutil.rmtree(out)
        real_rollout, rollouts = bench.rollout_episode, []

        def killing_rollout(env, policy_fn):
            rollouts.append(1)
            if len(rollouts) <= cfg.eval_episodes:
                return real_rollout(env, policy_fn)
            calls = []

            def killed_partway(env):
                calls.append(1)
                if len(calls) == 5:
                    raise Killed
                return policy_fn(env)
            return real_rollout(env, killed_partway)
        with monkeypatch.context() as m:
            m.setattr(bench, "rollout_episode", killing_rollout)
            with pytest.raises(Killed):
                run_sweep(cfg, out_dir=out)
        cell = Path("cell_mass_10_rep0")
        assert file_tree(out)[cell / "metrics_oracle.json"] == clean[cell / "metrics_oracle.json"]
        assert not (out / cell / "metrics_fixed.json").exists()
        run_sweep(cfg, out_dir=out)
        assert self.tree(out) == clean


class TestSweepWorkers:
    """A sweep's cells run in forked worker processes."""

    SWEEP = {"sweep.axis": "mass", "sweep.values": "10, 12", "sweep.repetitions": "1",
             "sweep.policies": "oracle, dqn", "env.episode_duration_s": "0.2"}

    def test_a_worker_that_exits_fails_only_its_cell(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(**self.SWEEP)
        clean = run_sweep(cfg, out_dir=tmp_path / "clean").read_bytes()
        out = tmp_path / "crash"
        survivor = out / "cell_mass_10_rep0"
        real_train = bench.run_train

        def exiting_train(cell_cfg, out_dir=None):
            if cell_cfg.wire.mass_total == 12.0:
                # once the other cell has written its last file and returned
                deadline = time.monotonic() + 60
                while not (survivor / "metrics_dqn.json").exists() and \
                        time.monotonic() < deadline:
                    time.sleep(0.02)
                time.sleep(0.5)
                os._exit(1)
            return real_train(cell_cfg, out_dir)
        monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
        monkeypatch.setattr(bench, "run_train", exiting_train)

        def statuses():
            cells = json.loads((out / "sweep_mass_cells.json").read_text())["cells"]
            return [(c["value"], c["policy"], c["status"]) for c in cells]
        run_sweep(cfg, out_dir=out)
        exited = "failed: worker exited before the cell finished"
        assert statuses() == [(10.0, "oracle", "ok"), (10.0, "dqn", "ok"),
                              (12.0, "oracle", exited), (12.0, "dqn", exited)]
        assert not (out / "cell_mass_12_rep0").exists()
        stamps = {p: p.stat().st_mtime_ns for p in survivor.iterdir()}

        monkeypatch.setattr(bench, "run_train", real_train)
        summary = run_sweep(cfg, out_dir=out)
        assert statuses() == [(10.0, "oracle", "cached"), (10.0, "dqn", "cached"),
                              (12.0, "oracle", "ok"), (12.0, "dqn", "ok")]
        assert {p: p.stat().st_mtime_ns for p in survivor.iterdir()} == stamps
        assert summary.read_bytes() == clean
        for path in (tmp_path / "clean").glob("cell_*/*"):
            assert (out / path.relative_to(tmp_path / "clean")).read_bytes() == \
                path.read_bytes()


def cut_writes_to(monkeypatch, name):
    """Make each write to the temporary file of `name` write half its data
    and then fail, as a full disk would."""
    real_open = open

    class Cut:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

    def cut_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return Cut(fh) if Path(path).name == name + ".tmp" else fh
    monkeypatch.setattr(files, "open", cut_open, raising=False)


class TestWholeFiles:
    @pytest.mark.parametrize("name", ["checkpoint.bin.json", "training_log.csv"])
    def test_cut_train_file_keeps_the_previous_one(self, tmp_path, monkeypatch, name):
        run_train(tiny_cfg(), tmp_path)
        before = (tmp_path / name).read_bytes()
        cut_writes_to(monkeypatch, name)
        with pytest.raises(OSError, match="disk full"):
            run_train(tiny_cfg(seed=1), tmp_path)
        assert (tmp_path / name).read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("name", ["sweep_mass_summary.csv", "sweep_mass_cells.json"])
    def test_cut_sweep_file_keeps_the_previous_one(self, tmp_path, monkeypatch, name):
        sweep = {"sweep.axis": "mass", "sweep.values": "10", "sweep.repetitions": "1",
                 "sweep.policies": "oracle"}
        run_sweep(tiny_cfg(**sweep), out_dir=tmp_path)
        before = (tmp_path / name).read_bytes()
        cut_writes_to(monkeypatch, name)
        with pytest.raises(OSError, match="disk full"):
            run_sweep(tiny_cfg(seed=1, **sweep), out_dir=tmp_path)
        assert (tmp_path / name).read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("echo", [None, '{"seed": 0}'])
    def test_write_csv_writes_echo_header_and_rows(self, tmp_path, echo):
        path = tmp_path / "new" / "dir" / "table.csv"
        files.write_csv(path, ["a", "b"], ([k, f"{k / 4:.2f}"] for k in range(3)), echo)
        lines = ["a,b", "0,0.00", "1,0.25", "2,0.50"]
        if echo is not None:
            lines.insert(0, '# config {"seed": 0}')
        assert path.read_bytes() == "".join(
            line + ("\n" if line.startswith("#") else "\r\n") for line in lines).encode()
        assert list(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("writer", ["trace", "pattern", "trajectory"])
    def test_an_export_cut_mid_file_leaves_nothing(self, tmp_path, monkeypatch, writer):
        cfg = tiny_cfg()
        path = tmp_path / "out" / f"{writer}.csv"
        path.parent.mkdir()

        def cut(rows):  # two rows, then the error a killed run would see
            yield from rows[:2]
            raise RuntimeError("cut short")
        with pytest.raises(RuntimeError, match="cut short"):
            if writer == "trace":
                env = make_envs(cfg, [0])[0]
                rows = rollout_episode(env, load_policy(cfg, PolicyKind.FIXED_BEAM))
                write_trace_csv(path, cut(rows), cfg.channel, cfg.array)
            elif writer == "pattern":
                real_af, calls = channel.array_factor, []

                def failing_af(*args):
                    calls.append(args)
                    if len(calls) > 2:
                        raise RuntimeError("cut short")
                    return real_af(*args)
                monkeypatch.setattr(channel, "array_factor", failing_af)
                beam = channel.BeamOrientation(math.pi / 2, math.pi / 2)
                channel.write_pattern_csv(path, beam, cfg.channel, cfg.array, 2.0, 1.0)
            else:
                samples = wire.simulate_trajectory(cfg.wire, cfg.wind, [], 0.01,
                                                   cfg.env.substep_dt, 0)
                wire.write_trajectory_csv(path, cut(samples))
        assert list(path.parent.iterdir()) == []


class TestHelpers:
    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)

    def test_export_pattern_and_trajectory(self, tmp_path):
        cfg = tiny_cfg()
        p = bench.export_pattern(cfg, tmp_path, span_deg=3.0, step_deg=1.0)
        assert p.read_text().splitlines()[0] == \
            "theta_deg,phi_deg,af_db,element_db,total_db"
        t = bench.export_trajectory(cfg, tmp_path, duration=0.05, impulse_time=0.0,
                                    with_wind=False)
        assert t.read_text().splitlines()[0].startswith("time_s,point_index")


def perfbench_span_targets() -> list[tuple[str, str]]:
    """(module, attribute path) of each entry of the benchmark's
    `TRACE_TARGETS`, read from its source without importing it."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    assign = next(node for node in ast.parse(source.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACE_TARGETS"])
    return [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1])) for e in assign.value.elts]


def test_only_files_writes_files():
    # one owner for every output: other modules write through wirebeam.files
    package = Path(files.__file__).parent
    found = []
    for source in sorted(package.rglob("*.py")):
        if source.name == "files.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                names = []
            if "csv" in names:
                found.append(f"{source.name}:{node.lineno}: imports csv")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("mkdir", "makedirs"):
                found.append(f"{source.name}:{node.lineno}: makes a directory")
            modes = [a.value for a in [*node.args, *(k.value for k in node.keywords)]
                     if isinstance(a, ast.Constant) and re.fullmatch(r"[rwaxbt+]+", str(a.value))]
            if name == "open" and any(set(m) & set("wax") for m in modes):
                found.append(f"{source.name}:{node.lineno}: opens for writing")
    assert found == []


def test_no_module_reads_another_modules_private_names():
    # one public name per job: a name another module needs is not private
    package = Path(files.__file__).parent
    modules = {source.stem for source in package.glob("*.py")}
    found = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        aliases = set()  # the names this module binds to other wirebeam modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or
                                                     node.module.startswith("wirebeam")):
                for a in node.names:
                    if node.module in (None, "wirebeam") and a.name in modules:
                        aliases.add(a.asname or a.name)
                    elif a.name.startswith("_"):
                        found.append(f"{source.name}:{node.lineno}: imports {a.name}")
            elif isinstance(node, ast.Import):
                aliases.update(a.asname or a.name for a in node.names
                               if a.name.startswith("wirebeam"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and \
                    not node.attr.endswith("__") and ast.unparse(node.value) in aliases:
                found.append(f"{source.name}:{node.lineno}: reads "
                             f"{ast.unparse(node.value)}.{node.attr}")
    assert found == []


def test_only_policies_names_a_policy():
    # the policy names live in PolicyKind: no other module spells one out
    names = {kind.value for kind in PolicyKind}
    package = Path(files.__file__).parent
    found = []
    for source in sorted(package.glob("*.py")):
        if source.name == "policies.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and \
                    (node.value in names or any(f"_{n}_" in node.value for n in names)):
                found.append(f"{source.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_every_perfbench_span_target_exists():
    # the tracer skips a missing target silently: its layer would read 0
    targets = perfbench_span_targets()
    assert ("wirebeam.policies", "oracle_action") in targets
    missing = []
    for module, path in targets:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}:{path}")
    assert missing == []


class TestCli:
    def write_cfg(self, tmp_path, text=""):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_invalid_config_value(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "env.lookback_s = 0.015\n")
        assert main(["eval", "--config", cfg, "--policy", "oracle"]) == 1

    def test_eval_dqn_without_checkpoint(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "eval.episodes = 1\n"
                                       "env.episode_duration_s = 0.2\n")
        assert main(["eval", "--config", cfg, "--policy", "dqn",
                     "--out", str(tmp_path)]) == 1

    def test_pattern_and_trajectory_verbs(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["pattern", "--config", cfg, "--out", str(tmp_path),
                     "--span-deg", "2", "--step-deg", "1"]) == 0
        assert main(["trajectory", "--config", cfg, "--out", str(tmp_path),
                     "--duration-s", "0.05"]) == 0
        assert (tmp_path / "pattern.csv").exists()
        assert (tmp_path / "trajectory.csv").exists()

    def test_eval_oracle_verb(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "eval.episodes = 1\n"
                                       "env.episode_duration_s = 0.2\n")
        assert main(["eval", "--config", cfg, "--policy", "oracle",
                     "--out", str(tmp_path), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "mean_power_dbm" in out

    def test_sweep_with_unknown_policy_writes_nothing(self, tmp_path, capsys):
        # a typo must not fall through to another policy
        cfg = self.write_cfg(tmp_path, "eval.episodes = 1\n"
                                       "env.episode_duration_s = 0.2\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "mass",
                     "--values", "10", "--reps", "1", "--policies", "orcale"]) == 1
        assert "unknown policy 'orcale'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_with_a_repeated_policy_writes_nothing(self, tmp_path, capsys):
        # a repeated policy would give the summary two identical rows
        cfg = self.write_cfg(tmp_path, "eval.episodes = 1\n"
                                       "env.episode_duration_s = 0.2\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "mass",
                     "--values", "10", "--reps", "1", "--policies", "oracle,oracle"]) == 1
        assert "policy 'oracle' is listed more than once" in capsys.readouterr().err
        assert not out.exists()

    # a small file sweep, so that an ignored override shows as a wrong echo
    SMALL_SWEEP = ("eval.episodes = 1\nenv.episode_duration_s = 0.2\n"
                   "sweep.values = 0.02\nsweep.repetitions = 2\nsweep.policies = oracle\n")

    def test_sweep_and_eval_overrides_are_config_values(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, self.SMALL_SWEEP)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "mass",
                     "--values", "12", "--reps", "1", "--policies", "oracle,fixed"]) == 0
        echo = json.loads((out / "sweep_mass_cells.json").read_text())["echo"]["config"]
        assert (echo["sweep.axis"], echo["sweep.values"], echo["sweep.repetitions"],
                echo["sweep.policies"]) == ("mass", "12", "1", "oracle,fixed")
        assert sorted(p.relative_to(out).as_posix() for p in out.glob("cell_*/*.json")) == [
            "cell_mass_12_rep0/metrics_fixed.json", "cell_mass_12_rep0/metrics_oracle.json"]

        assert main(["eval", "--config", cfg, "--policy", "fixed", "--out",
                     str(tmp_path / "eval"), "--episodes", "2"]) == 0
        rec = json.loads((tmp_path / "eval" / "metrics_fixed.json").read_text())
        assert rec["episodes"] == 2 and rec["config_echo"]["config"]["eval.episodes"] == "2"

    def test_bad_lookback_override_fails_before_any_cell(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, self.SMALL_SWEEP)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", "lookback",
                     "--values", "0.02,0.015", "--reps", "1", "--policies", "oracle"]) == 1
        assert "not a multiple of tau" in capsys.readouterr().err
        assert not out.exists()

    # lookback 0.015 is test_bad_lookback_override_fails_before_any_cell
    @pytest.mark.parametrize("axis, good, value", BAD_SWEEP_VALUES[1:])
    def test_bad_sweep_value_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                        axis, good, value):
        cfg = self.write_cfg(tmp_path, self.SMALL_SWEEP)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", axis,
                     f"--values={good},{value}"]) == 1
        assert f"sweep over {axis} = {float(value):g}: " in capsys.readouterr().err
        assert not out.exists()

    def test_zero_eval_episodes_is_a_config_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, self.SMALL_SWEEP.replace("eval.episodes = 1",
                                                                "eval.episodes = 0"))
        out = tmp_path / "out"
        assert main(["eval", "--config", cfg, "--policy", "oracle", "--out", str(out)]) == 1
        assert "eval.episodes must be >= 1" in capsys.readouterr().err
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "eval.episodes must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["train"], ["eval", "--policy", "oracle"], ["sweep"],
                                      ["pattern"], ["trajectory"]])
    def test_negative_seed_exits_1_and_writes_nothing(self, tmp_path, capsys, verb):
        out = tmp_path / "out"
        flag = self.write_cfg(tmp_path, self.SMALL_SWEEP)
        assert main([*verb, "--config", flag, "--out", str(out), "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        in_file = self.write_cfg(tmp_path, self.SMALL_SWEEP + "seed = -1\n")
        assert main([*verb, "--config", in_file, "--out", str(out)]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("env.tau_s = nan", "env.tau_s: expected one finite number, got 'nan'"),
        ("wind.periods_s = 0, 6, 8", "wind: wind periods must be positive"),
        ("train.hidden_sizes = 0", "train: hidden_sizes must all be >= 1"),
        ("wire.mass_total_kg = 1e308", "derived.reward_offset_dbm is not finite"),
    ])
    def test_malformed_value_exits_1_with_one_error_line(self, tmp_path, capsys,
                                                         line, message):
        out = tmp_path / "out"
        cfg = self.write_cfg(tmp_path, line + "\n")
        assert main(["train", "--smoke", "--config", cfg, "--out", str(out)]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--impulse-time-s", "-1"], "apply_time must be >= 0"),
        (["--duration-s", "0"], "duration must be positive"),
    ])
    def test_bad_trajectory_request_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                               flags, message):
        out = tmp_path / "out"
        cfg = self.write_cfg(tmp_path)
        assert main(["trajectory", "--config", cfg, "--out", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_diverging_trajectory_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # (N/m)*F overflows in the first substep, at the impulse point P4
        out = tmp_path / "out"
        cfg = self.write_cfg(tmp_path, "wire.impulse_force_n = 0, 0, 1e308\n")
        assert main(["trajectory", "--config", cfg, "--out", str(out)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("runtime error: integration diverged at P4 (t = 0.000000 s)")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--step-deg", "0"], ["--step-deg", "-1"],
                                       ["--span-deg", "-2"]])
    def test_bad_pattern_grid_exits_1_and_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        cfg = self.write_cfg(tmp_path)
        assert main(["pattern", "--config", cfg, "--out", str(out), *flags]) == 1
        assert "pattern needs step_deg > 0 and span_deg >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_trusts_a_cell_file_only_with_the_cells_echo(self, tmp_path, capsys):
        text = "".join(f"{k} = {v}\n" for k, v in TINY_TRAIN.items())
        out = tmp_path / "sweep"
        cell = out / "cell_mass_10_rep0"
        argv = ["sweep", "--config", str(tmp_path / "run.cfg"), "--out", str(out),
                "--axis", "mass", "--values", "10", "--reps", "1",
                "--policies", "oracle,dqn"]

        def sweep(duration):
            self.write_cfg(tmp_path, text.replace("env.episode_duration_s = 0.5",
                                                  f"env.episode_duration_s = {duration}"))
            assert main(argv) == 0
            doc = json.loads((out / "sweep_mass_cells.json").read_text())
            return doc["echo"], [c["status"] for c in doc["cells"]]

        def stamps():  # a file moved into place has a new inode
            return {p.name: (p.stat().st_mtime_ns, p.stat().st_ino) for p in cell.iterdir()}

        def without_seed(echo):
            return {k: v for k, v in echo["config"].items() if k != "seed"}

        assert sweep("0.5")[1] == ["ok", "ok"]
        # a changed config must recompute every cell and retrain the checkpoint
        echo, statuses = sweep("0.3")
        assert statuses == ["ok", "ok"]
        assert echo["config"]["env.episode_duration_s"] == "0.3"
        cell_echo = json.loads(dqn.load_checkpoint(cell / "checkpoint.bin")[3])
        assert without_seed(cell_echo) == without_seed(echo)
        for policy in ("oracle", "dqn"):
            rec = json.loads((cell / f"metrics_{policy}.json").read_text())
            assert rec["config_echo"] == cell_echo
        # the same config again: every file is trusted and none is rewritten
        before = stamps()
        assert sweep("0.3")[1] == ["cached", "cached"]
        assert stamps() == before
        # a lost metrics file is recomputed from the checkpoint that matches
        metrics = (cell / "metrics_dqn.json").read_bytes()
        (cell / "metrics_dqn.json").unlink()
        assert sweep("0.3")[1] == ["cached", "ok"]
        assert (cell / "metrics_dqn.json").read_bytes() == metrics
        assert stamps()["checkpoint.bin"] == before["checkpoint.bin"]

    def test_eval_with_cut_off_checkpoint_is_a_bad_input(self, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.bin"
        params = dqn.init_mlp((9, 8, 9), np.random.default_rng(0))
        dqn.save_checkpoint(ckpt, params, dqn.init_adam(params), 0)
        ckpt.write_bytes(ckpt.read_bytes()[:10])
        cfg = self.write_cfg(tmp_path, "eval.episodes = 1\n"
                                       "env.episode_duration_s = 0.2\n")
        assert main(["eval", "--config", cfg, "--policy", "dqn", "--checkpoint",
                     str(ckpt), "--out", str(tmp_path)]) == 1
        assert "checkpoint header is cut short" in capsys.readouterr().err

    @pytest.mark.parametrize("which", sorted(OVERSIZED_HEADERS))
    def test_eval_with_an_oversized_checkpoint_header_is_a_bad_input(self, tmp_path, capsys,
                                                                     which):
        ckpt = tmp_path / "checkpoint.bin"
        write_oversized_checkpoint(ckpt, which)
        cfg = self.write_cfg(tmp_path, "eval.episodes = 1\n"
                                       "env.episode_duration_s = 0.2\n")
        assert main(["eval", "--config", cfg, "--policy", "dqn", "--checkpoint",
                     str(ckpt), "--out", str(tmp_path)]) == 1
        assert f"{ckpt}: checkpoint " in capsys.readouterr().err

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_blas_threads_default_to_one_and_a_set_count_wins(self, preset):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        # the package itself must not load numpy, or the setting would come late
        script = ("import sys, os, wirebeam; assert 'numpy' not in sys.modules; "
                  "import wirebeam.cli; print(os.environ['OPENBLAS_NUM_THREADS'], "
                  "os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])")
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == [preset or "1", "1", "1"]

    def test_train_smoke_verb(self, tmp_path):
        text = "\n".join(f"{k} = {v}" for k, v in TINY_TRAIN.items()) + "\n"
        cfg = self.write_cfg(tmp_path, text)
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "checkpoint.bin").exists()
        assert (tmp_path / "training_log.csv").exists()
