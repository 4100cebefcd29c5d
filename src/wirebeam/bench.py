"""Experiment orchestration: seeded runs, sweeps, metrics, and file outputs.

The checkpoint, training log, metrics and sweep summary embed the full
config echo and seed, so such a result is re-derivable from the file
alone.  Policy comparisons inside a sweep cell share identical environment
seeds (paired-seed discipline), and completed sweep cells are skipped on
re-run: a metrics file or checkpoint counts as done only when it loads
and carries its cell's config echo.  Every file written here goes through
`wirebeam.files`: it lands whole or not at all, and its directory, which
the caller names, appears with it, so a run that fails before its first
write leaves no directory behind.  An evaluation
(`evaluate_policies`) builds the envs of all its policies and episodes
together (`make_envs`) over one batch with one column per seed: the wire
never reads the beam, so each episode's wire advances once and every
policy reads it, while the envs are rolled out one after another.  It is
the one writer of `metrics_<policy>.json`, and of the traces when asked:
each policy's files land as soon as it is aggregated, so a run killed
midway keeps those of the policies it finished.  A sweep cell evaluates
all its pending policies that way, without traces; `run_eval` is the
one-policy case, with them.  A sweep's cells are independent (each has
its own seed and directory), so they run in forked worker processes, one
per usable CPU, and write the same bytes as they would one after another
in this process.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dqn
from .channel import write_pattern_csv
from .config import SWEEP_AXES, ConfigError, ExperimentConfig, build_config
from .env import (BeamTrackingEnv, EpisodeBatch, StepOutcome, angle_error_deg,
                  rollout, write_trace_csv)
from .files import write_csv, write_text
from .policies import PolicyKind, fixed_action, oracle_action
from .wire import simulate_trajectory, write_trajectory_csv

POST_IMPULSE_WINDOW_S = 0.3  # averaging window after the impulsive force
BASELINES = (PolicyKind.ORACLE, PolicyKind.FIXED_BEAM)  # logged beside training


class EvalError(ValueError):
    pass


def derive_seed(base: int, *key: int) -> int:
    """Stable sub-seed for (episode, cell, repetition, ...) indices."""
    return int(np.random.SeedSequence(entropy=base, spawn_key=key).generate_state(1)[0])


def make_envs(cfg: ExperimentConfig, seeds) -> list[BeamTrackingEnv]:
    """One env per seed over one `EpisodeBatch`, the one way envs are built;
    envs of a repeated seed read the same column."""
    batch = EpisodeBatch(cfg.env, cfg.wire, cfg.wind, seeds)
    return [BeamTrackingEnv(batch, seed, cfg.channel, cfg.array) for seed in seeds]


def load_policy(cfg: ExperimentConfig, kind: PolicyKind, checkpoint=None):
    """The callable(env) -> action index of `kind`; dqn loads its
    checkpoint, whose architecture must match the config's."""
    if kind is PolicyKind.ORACLE:
        return lambda env: oracle_action(env.look, env.beam, cfg.env.refine_angle)
    if kind is PolicyKind.FIXED_BEAM:
        return lambda env: fixed_action()
    if checkpoint is None:
        raise EvalError("dqn policy requires --checkpoint")
    params = dqn.load_checkpoint(checkpoint)[0]
    expected = (cfg.env.state_dim, *cfg.train.hidden_sizes, dqn.N_ACTIONS)
    if params.dims != expected:
        raise EvalError(f"checkpoint architecture {params.dims} does not match "
                        f"the config architecture {expected}")
    return dqn.greedy_policy(params)


# --------------------------------------------------------------------------
# rollouts and metrics
# --------------------------------------------------------------------------

def rollout_episode(env: BeamTrackingEnv, policy_fn) -> list[StepOutcome]:
    """The whole episode under `policy_fn` from a fresh env, one outcome a step."""
    return rollout(env, policy_fn, env.cfg.episode_steps)


def post_impulse_window(env: BeamTrackingEnv, outcomes: list[StepOutcome]) -> list[float]:
    """Powers at the steps of `env`'s episode, rolled out from its start,
    within (t_impulse, t_impulse + 300 ms]."""
    t0 = env.schedule.impulse_time
    if t0 is None:
        return []
    lo, hi, tau = t0, t0 + POST_IMPULSE_WINDOW_S, env.cfg.tau
    return [r.raw_power_dbm for k, r in enumerate(outcomes, start=1)
            if lo < k * tau <= hi + 1e-9]


@dataclass
class MetricsRecord:
    policy: str
    episodes: int
    mean_power_dbm: float
    mean_power_post_impulse_dbm: float | None
    mean_angle_error_deg: float
    config_echo: dict

    def to_json(self) -> str:
        d = dict(self.__dict__)
        v = d["mean_power_post_impulse_dbm"]
        if v is not None and math.isnan(v):
            d["mean_power_post_impulse_dbm"] = None
        return json.dumps(d, sort_keys=True)


def aggregate_metrics(cfg: ExperimentConfig, policy: str, envs: list[BeamTrackingEnv],
                      rollouts: list[list[StepOutcome]]) -> MetricsRecord:
    powers = [r.raw_power_dbm for rows in rollouts for r in rows]
    errors = [angle_error_deg(r.look, r.beam) for rows in rollouts for r in rows]
    windows = [post_impulse_window(env, rows) for env, rows in zip(envs, rollouts)]
    window_means = [float(np.mean(w)) for w in windows if w]
    post = float(np.mean(window_means)) if window_means else None
    return MetricsRecord(policy=policy, episodes=len(rollouts),
                         mean_power_dbm=float(np.mean(powers)),
                         mean_power_post_impulse_dbm=post,
                         mean_angle_error_deg=float(np.mean(errors)),
                         config_echo=cfg.echo())


# --------------------------------------------------------------------------
# top-level runs
# --------------------------------------------------------------------------

def run_train(cfg: ExperimentConfig, out_dir) -> tuple[Path, Path]:
    """Train per the config; returns (checkpoint path, training-log path).
    Each phase is evaluated on fresh envs of its eval seed: greedy, then each baseline."""
    out = Path(out_dir)
    baselines = {k.value: load_policy(cfg, k) for k in BASELINES}

    def evaluate(params: dqn.MlpParams, eval_seed: int) -> dict:
        # each step's (power, reward), not its outcome, which holds its wire state
        runs = {name: [(o.raw_power_dbm, o.proxy_reward) for o in rollout(
                    make_envs(cfg, [eval_seed])[0], fn, cfg.train.eval_steps)]
                for name, fn in {"eval": dqn.greedy_policy(params), **baselines}.items()}
        return {"mean_proxy_reward": float(np.mean([r for _, r in runs["eval"]])),
                **{f"mean_{name}_power_dbm": float(np.mean([p for p, _ in steps]))
                   for name, steps in runs.items()}}

    result = dqn.train(lambda seed: make_envs(cfg, [seed])[0], cfg.train, cfg.seed, evaluate)

    sidecar = {"seed": cfg.seed, "total_steps": cfg.train.total_steps,
               "scenario": cfg.scenario, "state_mode": cfg.state_mode,
               "update_period_steps": cfg.train.update_period_steps,
               "target_sync_steps": cfg.train.target_sync_steps,
               "phases": len(result.log)}
    write_text(out / "checkpoint.bin.json", json.dumps(sidecar, sort_keys=True))
    log_path = out / "training_log.csv"
    _write_training_log(log_path, cfg, result.log)

    # the checkpoint last: a sweep skips a cell's training once it lands
    ckpt_path = out / "checkpoint.bin"
    dqn.save_checkpoint(ckpt_path, result.params, result.adam,
                        cfg.train.total_steps, cfg.echo_json())
    return ckpt_path, log_path


def _write_training_log(path, cfg: ExperimentConfig, log_rows: list[dict]):
    """One line per phase; a row missing a column raises KeyError and writes nothing."""
    cols = ["global_step", "phase", "mean_eval_power_dbm", "mean_proxy_reward", "loss",
            *(f"mean_{k.value}_power_dbm" for k in BASELINES), "eval_seed"]
    write_csv(path, cols, ([row[c] for c in cols] for row in log_rows), cfg.echo_json())


def evaluate_policies(cfg: ExperimentConfig, policies: dict, episodes: int, out: Path,
                      traces: bool) -> dict[str, MetricsRecord | Exception]:
    """The metrics of each policy (name -> callable(env) -> action) over the
    same `episodes` seeded episodes, rolled out policy by policy, then
    episode by episode; each policy's `metrics_<name>.json`, and with
    `traces` each of its episodes' trace, is written to `out` before the
    next policy runs.

    All envs read one `EpisodeBatch` holding one column per episode seed,
    so each episode's wire is computed once whatever the number of
    policies.  A policy whose rollout raises gets the exception in place
    of its record (a failed write too), and the others still run.
    """
    seeds = [derive_seed(cfg.seed, ep) for ep in range(episodes)]
    envs = make_envs(cfg, seeds * len(policies))
    records = {}
    for name, fn in policies.items():
        try:
            records[name] = _evaluate(cfg, name, fn, envs[:episodes], out, traces)
        except Exception as e:  # this policy failed; the others share the batch
            records[name] = e
        del envs[:episodes]  # free its envs; the batch keeps the wire states
    return records


def _evaluate(cfg: ExperimentConfig, name: str, fn, envs, out: Path,
              traces: bool) -> MetricsRecord:
    """One policy's metrics over `envs`, written to `out` with, if `traces`,
    the episodes' traces; the step records are dropped on return, before
    the next policy runs."""
    rollouts = [rollout_episode(env, fn) for env in envs]
    if traces:
        for ep, rows in enumerate(rollouts):
            write_trace_csv(out / f"trace_{name}_ep{ep:03d}.csv", rows,
                            cfg.channel, cfg.array)
    record = aggregate_metrics(cfg, name, envs, rollouts)
    write_text(out / f"metrics_{name}.json", record.to_json())
    return record


def run_eval(cfg: ExperimentConfig, checkpoint, policy: PolicyKind,
             episodes: int, out_dir) -> MetricsRecord:
    """Greedy rollouts of one policy; emits per-episode traces and metrics."""
    if episodes <= 0:
        raise EvalError("episodes must be >= 1")
    fn = load_policy(cfg, policy, checkpoint)
    record = evaluate_policies(cfg, {policy.value: fn}, episodes, Path(out_dir),
                               traces=True)[policy.value]
    if isinstance(record, Exception):
        raise record
    return record


def _read_metrics(path) -> MetricsRecord | None:
    """The metrics record stored at `path`, or None when there is no whole one."""
    try:
        return MetricsRecord(**json.loads(Path(path).read_text()))
    except (OSError, ValueError, TypeError):
        return None


def _checkpoint_echo(path) -> str | None:
    """The config echo of the checkpoint at `path`, or None when there is no whole one."""
    try:
        return dqn.load_checkpoint(path)[3]
    except (OSError, ValueError):
        return None


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def sweep_cell_config(cfg: ExperimentConfig, axis: str, value: float,
                      seed: int) -> ExperimentConfig:
    """Rebuild the config from its file values, with one axis value and a
    cell seed; every other key keeps its default and its provenance."""
    values = {k: v for k, v in cfg.values.items() if cfg.provenance[k] == "file"}
    values[SWEEP_AXES[axis]] = repr(float(value))
    values["seed"] = str(seed)
    try:
        return build_config(values)
    except ConfigError as e:
        raise ConfigError(f"sweep over {axis} = {value:g}: {e}") from e


def run_sweep(cfg: ExperimentConfig, out_dir) -> Path:
    """One MetricsRecord per (value, repetition, policy) of cfg.sweep, plus
    a summary.

    Every cell's config is built before anything is written.  A metrics
    file or checkpoint in a cell is reused only when it carries that
    cell's config echo.  Each cell with a policy left to compute runs
    `run_sweep_cell`, in forked worker processes (`_run_cells`).
    Failures are recorded per policy and cell, and the sweep continues;
    so is a cell whose worker exited before returning.  The outcomes are
    gathered in cell order, so the summary and cells file hold the same
    bytes whatever the number of workers and the order cells finish in.
    """
    sweep = cfg.sweep
    cells = [(value, rep, sweep_cell_config(cfg, sweep.axis, value,
                                            derive_seed(cfg.seed, vi, rep)))
             for vi, value in enumerate(sweep.values) for rep in range(sweep.repetitions)]
    out = Path(out_dir)
    dirs = [out / sweep.cell_name(value, rep) for value, rep, _ in cells]
    outcomes = {}  # (cell index, policy) -> (status, record or None)
    pending = {}  # cell index -> the policies it has to compute
    for i, ((_, _, cell_cfg), cell_dir) in enumerate(zip(cells, dirs)):
        todo = []
        for policy_name in sweep.policies:
            record = _read_metrics(cell_dir / f"metrics_{policy_name}.json")
            if record is not None and record.config_echo == cell_cfg.echo():
                outcomes[i, policy_name] = ("cached", record)
            else:
                todo.append(policy_name)
        if todo:
            pending[i] = todo
    jobs = [(cells[i][2], dirs[i], todo) for i, todo in pending.items()]
    for i, cell_outcomes in zip(pending, _run_cells(jobs)):
        outcomes.update({(i, name): o for name, o in cell_outcomes.items()})

    entries, records = [], {}
    for i, (value, rep, _) in enumerate(cells):
        for policy_name in sweep.policies:
            status, record = outcomes[i, policy_name]
            entries.append({"axis": sweep.axis, "value": value, "rep": rep,
                            "policy": policy_name, "status": status,
                            "path": str(dirs[i] / f"metrics_{policy_name}.json")})
            if record is not None:
                records.setdefault((value, policy_name), []).append(record)

    summary_path = out / f"sweep_{sweep.axis}_summary.csv"
    _write_sweep_summary(summary_path, cfg, sweep, records)
    write_text(out / f"sweep_{sweep.axis}_cells.json",
               json.dumps({"echo": cfg.echo(), "cells": entries}, sort_keys=True))
    return summary_path


def run_sweep_cell(cfg: ExperimentConfig, cell_dir: Path,
                   policies: list[str]) -> dict[str, tuple[str, MetricsRecord | None]]:
    """Compute the named policies of one sweep cell: train its dqn policy
    unless the checkpoint in `cell_dir` carries the cell's echo, then
    evaluate them together over one wire batch (`evaluate_policies`, which
    writes each one's metrics file as it finishes).  Returns each policy's
    status, "ok" or "failed: <error>", and its record (None when it
    failed); a failure is confined to its policy."""
    outcomes, fns = {}, {}
    for policy_name in policies:
        try:
            kind, ckpt = PolicyKind(policy_name), None
            if kind is PolicyKind.DQN_GREEDY:
                ckpt = cell_dir / "checkpoint.bin"
                if _checkpoint_echo(ckpt) != cfg.echo_json():
                    run_train(cfg, cell_dir)
            fns[policy_name] = load_policy(cfg, kind, ckpt)
        except Exception as e:  # record the failure, keep sweeping
            outcomes[policy_name] = (f"failed: {e}", None)
    for name, record in evaluate_policies(cfg, fns, cfg.eval_episodes, cell_dir,
                                          traces=False).items():
        failed = isinstance(record, Exception)
        outcomes[name] = (f"failed: {record}", None) if failed else ("ok", record)
    return outcomes


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_cells(jobs: list[tuple]) -> list[dict]:
    """`run_sweep_cell(*job)` of each job, in job order.

    The jobs run in a pool of `min(usable_cpus(), len(jobs))` forked
    workers; with one, or where the platform cannot fork, they run here,
    one after another.  Fork, not spawn: a worker re-imports nothing, so a
    caller's script needs no `__main__` guard, and it keeps this process's
    numpy and BLAS set-up, so a cell computes the same bits as in-process.
    A job whose worker exited before returning (killed, out of memory)
    gets every policy failed; the pool then stops, and so do the jobs it
    had not finished.
    """
    workers = min(usable_cpus(), len(jobs))
    if workers < 2 or not hasattr(os, "fork"):
        return [run_sweep_cell(*job) for job in jobs]
    # imported here, so that importing wirebeam stays as cheap without a pool
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
        futures = [pool.submit(run_sweep_cell, *job) for job in jobs]
        outcomes = []
        for (_, _, policies), future in zip(jobs, futures):
            try:
                outcomes.append(future.result())
            except BrokenProcessPool:
                outcomes.append({name: ("failed: worker exited before the cell finished",
                                        None) for name in policies})
    return outcomes


def _write_sweep_summary(path, cfg, sweep, records):
    """One row per (value, policy) from the MetricsRecords of its finished cells."""
    keys = ("mean_power_dbm", "mean_power_post_impulse_dbm", "mean_angle_error_deg")
    rows = []
    for value in sweep.values:
        for policy_name in sweep.policies:
            recs = records.get((value, policy_name), [])
            row = [sweep.axis, value, policy_name, len(recs)]
            for k in keys:
                vals = [getattr(r, k) for r in recs if getattr(r, k) is not None]
                row.append(f"{np.mean(vals):.6f}" if vals else "")
                row.append(f"{np.std(vals):.6f}" if vals else "")
            rows.append(row)
    write_csv(path, ["axis", "value", "policy", "n",
                     "mean_power_dbm", "std_power_dbm",
                     "mean_power_post_impulse_dbm", "std_power_post_impulse_dbm",
                     "mean_angle_error_deg", "std_angle_error_deg"],
              rows, cfg.echo_json())


# --------------------------------------------------------------------------
# auxiliary exports (pattern / trajectory verbs)
# --------------------------------------------------------------------------

def export_pattern(cfg: ExperimentConfig, out_dir, span_deg: float,
                   step_deg: float) -> Path:
    """Beam-pattern CSV around the equilibrium boresight steering."""
    if step_deg <= 0 or span_deg < 0:
        raise ConfigError(f"pattern needs step_deg > 0 and span_deg >= 0, "
                          f"got step_deg = {step_deg:g}, span_deg = {span_deg:g}")
    env = make_envs(cfg, [cfg.seed])[0]
    path = Path(out_dir) / "pattern.csv"
    write_pattern_csv(path, env.beam, cfg.channel, cfg.array, span_deg, step_deg)
    return path


def export_trajectory(cfg: ExperimentConfig, out_dir, duration: float,
                      impulse_time: float, with_wind: bool) -> Path:
    """Impulse-response trajectory export (wire positions over time)."""
    wind = cfg.wind if with_wind else dataclasses.replace(cfg.wind, amplitude=0.0)
    params = cfg.wire
    if not with_wind:
        params = dataclasses.replace(params, wind_diffusion=np.zeros((3, 3)))
    samples = simulate_trajectory(params, wind, [cfg.env.impulse_at(impulse_time)],
                                  duration, cfg.env.substep_dt, cfg.seed,
                                  sample_every=cfg.env.tau)
    path = Path(out_dir) / "trajectory.csv"
    write_trajectory_csv(path, samples)
    return path
