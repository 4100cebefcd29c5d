"""The three wirebeam benchmark workloads, their checks and their metrics.

Each workload drives the package from outside through its public calls:
``bench.run_train``, ``bench.run_eval``, ``bench.run_sweep``,
``config.default_config``/``build_config``/``apply_smoke`` and
``dqn.init_mlp``/``init_adam``/``save_checkpoint``/``load_checkpoint``.
It is a single-process closed loop: the benchmark waits for each call to
finish before making the next, so throughput is work per second at the
stated input size.

A run repeats one *unit* of work on the same seeded inputs until the time
budget is spent and reports medians over the units.  Every unit's output
files are hashed; the digests must match the pinned ones for the default
seed at full scale, and otherwise the first unit's, so a nondeterministic
or wrong result counts as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wirebeam import bench, config, dqn
from wirebeam.env import N_ACTIONS
from wirebeam.policies import PolicyKind

from reference import reference_kernel, timed_reference
from spans import LayerTotals, Tracer, self_times

DEFAULT_SEED = 0
# Share of each round's time spent timing set-ups, and again the reference;
# at least one of each per round.
TIMING_SHARE = 0.1
EVAL_SEGMENTS_PER_PHASE = 3  # greedy, oracle and fixed segments after each update phase
PAPER_TOTAL_STEPS = 100_000

_TINY_TRAIN = {
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
}

# Config overrides per workload and scale.  "full" is what the command line
# runs; "tiny" keeps the benchmark's own tests fast.
SCALES = {
    "full": {
        "train_default": {"train.total_steps": "2700"},
        "eval_paired": {"scenario": "wind_plus_impulse", "state_mode": "expanded",
                        "eval.episodes": "3"},
        "sweep_lookback": {"sweep.axis": "lookback", "sweep.values": "0.02, 0.04, 0.08",
                           "sweep.repetitions": "1"},
    },
    "tiny": {
        "train_default": dict(_TINY_TRAIN),
        "eval_paired": {"scenario": "wind_plus_impulse", "state_mode": "expanded",
                        "eval.episodes": "2", "env.episode_duration_s": "0.2",
                        "train.hidden_sizes": "8, 8"},
        "sweep_lookback": {**_TINY_TRAIN, "train.total_steps": "40",
                           "sweep.axis": "lookback", "sweep.values": "0.02, 0.04",
                           "sweep.repetitions": "1", "eval.episodes": "1"},
    },
}

# SHA-256 of the outputs for DEFAULT_SEED at full scale.
PINNED = {
    "train_default": {
        "checkpoint": "b007e244cb81e006fa424b5adca92c29d99e34d9bb418a48687c3972dcef7358",
        "training_log": "7bb375b0cedf16246a8caedfa466393a33439d4a3b271b99fc1d022d063ae731"},
    "eval_paired": {
        "metrics": "a8819e0ea1b198cb5b9c852424da021ff30ced71d5e8931fbdbccccfac9acb92",
        "traces": "82e03bef37458bede2b94a7656178cfe4bf160c05774c46fbb0a935eb42f2009"},
    "sweep_lookback": {
        "summary": "22187709e20a63ff3ea69f00ef1144f804dfd52cde7d9c11ac952a1d878fac9f"},
}

# Span name per traced entry point: (module, attribute path, span name).
TRACE_TARGETS = [
    ("wirebeam.wire", "step", "wire.step"),
    ("wirebeam.wire", "solve_equilibrium", "wire.solve_equilibrium"),
    ("wirebeam.channel", "received_power", "channel.received_power"),
    ("wirebeam.channel", "look_angles", "channel.look_angles"),
    ("wirebeam.env", "BeamTrackingEnv.step", "env.step"),
    ("wirebeam.env", "BeamTrackingEnv.__init__", "env.construct"),
    ("wirebeam.policies", "oracle_action", "policies.oracle_action"),
    ("wirebeam.dqn", "train", "dqn.learner"),
    ("wirebeam.dqn", "forward",
     lambda params, x, *a, **k: f"dqn.forward.{'single' if np.ndim(x) == 1 else 'batch'}"),
    ("wirebeam.dqn", "ReplayBuffer.push", "dqn.replay.push"),
    ("wirebeam.dqn", "ReplayBuffer.sample", "dqn.replay.sample"),
    ("wirebeam.dqn", "save_checkpoint", "dqn.checkpoint.save"),
    ("wirebeam.dqn", "load_checkpoint", "dqn.checkpoint.load"),
    ("wirebeam.bench", "rollout_episode", "bench.rollout_episode"),
    ("wirebeam.env", "write_trace_csv", "bench.write"),
    ("wirebeam.bench", "_write_training_log", "bench.write"),
    ("wirebeam.bench", "_write_sweep_summary", "bench.write"),
    ("wirebeam.bench", "run_train", "bench.run_train"),
    ("wirebeam.bench", "run_eval", "bench.run_eval"),
    ("wirebeam.bench", "run_sweep", "bench.run_sweep"),
    ("wirebeam.config", "build_config", "config.build_config"),
]
# Traced in untraced runs too, to time each episode: one span per episode.
EPISODE_TARGETS = [t for t in TRACE_TARGETS if t[2] == "bench.rollout_episode"]


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_files(paths) -> str:
    """One digest over several files: their names and contents, in name order."""
    lines = "".join(f"{Path(p).name}:{sha256_file(p)}\n"
                    for p in sorted(paths, key=lambda p: Path(p).name))
    return hashlib.sha256(lines.encode()).hexdigest()


def tail_percentile(samples: list[float]):
    """(percentile, value) for the highest of 50/75/90/95/99/99.9 with at least
    ten samples beyond it, or (None, None) when there are too few samples."""
    n = len(samples)
    best = None
    for q in (50, 75, 90, 95, 99, 99.9):
        if round(n * (100 - q) / 100, 9) >= 10:
            best = q
    if best is None:
        return None, None
    return best, float(np.percentile(samples, best))


def phases_in(tc, total_steps: int) -> int:
    """Update phases a run of `total_steps` makes: one per update period once
    the buffer holds a full sample block."""
    first = math.ceil(tc.sample_block / tc.update_period_steps) * tc.update_period_steps
    return 0 if total_steps < first else (total_steps - first) // tc.update_period_steps + 1


def warmup_steps(tc) -> int:
    """Steps before the update period that ends in the first phase."""
    first = math.ceil(tc.sample_block / tc.update_period_steps) * tc.update_period_steps
    return first - tc.update_period_steps


def updates_per_phase(tc) -> int:
    return tc.outer_iterations * tc.epochs * math.ceil(tc.sample_block / tc.minibatch)


def train_env_steps(cfg, phases: int) -> int:
    """Training steps plus the evaluation segments run after each phase."""
    segment = min(cfg.train.eval_steps, cfg.env.episode_steps)
    return cfg.train.total_steps + phases * EVAL_SEGMENTS_PER_PHASE * segment


def mlp_dims(cfg) -> tuple[int, ...]:
    return (cfg.env.state_dim, *cfg.train.hidden_sizes, N_ACTIONS)


def update_cost(dims, minibatch: int) -> tuple[int, int]:
    """Computed (flops, bytes) of one minibatch update.

    Flops: target forward, online forward, weight and input gradients (none
    for the network input) at 2 flops per multiply-add, plus 14 per
    parameter for Adam.  Bytes: a lower bound touching each parameter-sized
    float64 array once per pass (two forwards, backward read and gradient
    write, Adam's four reads and three writes) plus both input batches.
    """
    macs = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    macs_no_first = macs - dims[0] * dims[1]
    n_params = macs + sum(dims[1:])
    flops = 2 * minibatch * (3 * macs + macs_no_first) + 14 * n_params
    nbytes = 8 * (11 * n_params + 2 * minibatch * dims[0])
    return flops, nbytes


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


@dataclass
class UnitRun:
    """One timed unit of work and what was checked about its outputs."""

    wall_s: float
    env_steps: int
    updates: int = 0
    phases: int = 0
    ops: int = 0                 # episodes, update phases or sweep cells attempted
    failed: int = 0
    digests: dict = field(default_factory=dict)
    cell_s: list = field(default_factory=list)     # per-cell latency
    episode_s: list = field(default_factory=list)  # per-episode latency
    extra: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class TrainDefault:
    """run_train at paper scale: 3x128 MLP, 2048-transition blocks, 32-sample
    minibatches, 4x8 passes, wind_only and single_point state, 2700 steps
    (three update phases after the 2048-step warm-up)."""

    name = "train_default"

    def setup(self, seed, scale, workdir):
        cfg = config.default_config(seed=str(seed), **SCALES[scale][self.name])
        warm_cfg = config.default_config(seed=str(seed), **{
            **SCALES[scale][self.name], "train.total_steps": str(warmup_steps(cfg.train))})
        return {"cfg": cfg, "warm_cfg": warm_cfg}

    def warmup(self, ctx, workdir) -> float:
        """Wall time of a warm-up-only run, used to cost one update phase."""
        t0 = time.perf_counter()
        bench.run_train(ctx["warm_cfg"], workdir)
        return time.perf_counter() - t0

    def unit(self, ctx, workdir) -> UnitRun:
        cfg = ctx["cfg"]
        t0 = time.perf_counter()
        bench.run_train(cfg, workdir)
        wall = time.perf_counter() - t0
        phases = phases_in(cfg.train, cfg.train.total_steps)
        return UnitRun(wall_s=wall, env_steps=train_env_steps(cfg, phases),
                       updates=phases * updates_per_phase(cfg.train), phases=phases,
                       ops=phases)

    def check(self, ctx, workdir, u: UnitRun):
        cfg, out = ctx["cfg"], Path(workdir)
        ckpt, log = out / "checkpoint.bin", out / "training_log.csv"
        rows = _csv_rows(log)
        failed = max(0, u.phases - len(rows)) + sum(
            not math.isfinite(float(r["loss"])) for r in rows)
        params, _, step, _ = dqn.load_checkpoint(ckpt)
        if params.dims != mlp_dims(cfg) or step != cfg.train.total_steps:
            failed = u.phases
        u.failed = min(failed, u.ops)
        u.digests = {"checkpoint": sha256_file(ckpt), "training_log": sha256_file(log)}


class EvalPaired:
    """run_eval of oracle, fixed and dqn-greedy on the same seeded episodes,
    wind_plus_impulse with expanded (57-dimensional) state and trace CSVs.
    The checkpoint is a randomly initialised network built in set-up."""

    name = "eval_paired"
    policies = (PolicyKind.ORACLE, PolicyKind.FIXED_BEAM, PolicyKind.DQN_GREEDY)

    def setup(self, seed, scale, workdir):
        cfg = config.default_config(seed=str(seed), **SCALES[scale][self.name])
        params = dqn.init_mlp(mlp_dims(cfg), np.random.default_rng(seed))
        ckpt = Path(workdir) / "checkpoint.bin"
        dqn.save_checkpoint(ckpt, params, dqn.init_adam(params), 0, cfg.echo_json())
        return {"cfg": cfg, "checkpoint": ckpt}

    def unit(self, ctx, workdir) -> UnitRun:
        cfg, episodes = ctx["cfg"], ctx["cfg"].eval_episodes
        t0 = time.perf_counter()
        for kind in self.policies:
            bench.run_eval(cfg, ctx["checkpoint"], kind, episodes, workdir)
        wall = time.perf_counter() - t0
        n_ops = episodes * len(self.policies)
        return UnitRun(wall_s=wall, env_steps=n_ops * cfg.env.episode_steps, ops=n_ops)

    def check(self, ctx, workdir, u: UnitRun):
        cfg, episodes = ctx["cfg"], ctx["cfg"].eval_episodes
        out = Path(workdir)
        failed = 0
        for kind in self.policies:
            rec = json.loads((out / f"metrics_{kind.value}.json").read_text())
            if rec["episodes"] != episodes or not math.isfinite(rec["mean_power_dbm"]):
                failed += episodes
                continue
            for ep in range(episodes):
                trace = out / f"trace_{kind.value}_ep{ep:03d}.csv"
                if not trace.exists() or len(_csv_rows(trace)) != cfg.env.episode_steps:
                    failed += 1
        u.failed = min(failed, u.ops)
        u.digests = {"metrics": sha256_files(out.glob("metrics_*.json")),
                     "traces": sha256_files(out.glob("trace_*.csv"))}


class SweepLookback:
    """run_sweep over lookback 0.02/0.04/0.08 s with all three policies and
    smoke-scale per-cell training, then a second pass over the finished
    directory that finds every cell cached."""

    name = "sweep_lookback"

    def setup(self, seed, scale, workdir):
        values = config.apply_smoke({"seed": str(seed), **SCALES[scale][self.name]})
        return {"cfg": config.build_config(values)}

    def unit(self, ctx, workdir) -> UnitRun:
        cfg, out = ctx["cfg"], Path(workdir)
        sweep, tc = cfg.sweep, cfg.train
        cells_path = out / f"sweep_{sweep.axis}_cells.json"

        start_ns = time.time_ns()
        t0 = time.perf_counter()
        summary = bench.run_sweep(cfg, out_dir=out)
        first_pass = time.perf_counter() - t0
        first = json.loads(cells_path.read_text())["cells"]
        first_digest = sha256_file(summary)
        t1 = time.perf_counter()
        bench.run_sweep(cfg, out_dir=out)
        resume = time.perf_counter() - t1

        # cells run one after another, so each ends when its last metrics file lands
        cell_dirs = {Path(c["path"]).parent for c in first}
        ends = sorted(max(p.stat().st_mtime_ns for p in d.glob("metrics_*.json"))
                      for d in cell_dirs if any(d.glob("metrics_*.json")))
        cell_s = [(b - a) / 1e9 for a, b in zip([start_ns] + ends[:-1], ends)]

        n_cells = len(sweep.values) * sweep.repetitions
        phases = phases_in(tc, tc.total_steps)  # each cell trains once, for its dqn policy
        per_cell_steps = (train_env_steps(cfg, phases)
                          + len(sweep.policies) * cfg.eval_episodes * cfg.env.episode_steps)
        return UnitRun(wall_s=first_pass + resume, env_steps=n_cells * per_cell_steps,
                       updates=n_cells * phases * updates_per_phase(tc),
                       phases=n_cells * phases, ops=2 * n_cells * len(sweep.policies) + 1,
                       cell_s=cell_s,
                       extra={"first_pass": first, "first_digest": first_digest,
                              "resume_s": resume})

    def check(self, ctx, workdir, u: UnitRun):
        cfg, out = ctx["cfg"], Path(workdir)
        sweep = cfg.sweep
        summary = out / f"sweep_{sweep.axis}_summary.csv"
        first = u.extra.pop("first_pass")
        second = json.loads((out / f"sweep_{sweep.axis}_cells.json").read_text())["cells"]
        entries = len(sweep.values) * sweep.repetitions * len(sweep.policies)
        ok = sum(c["status"] == "ok" for c in first)
        cached = sum(c["status"] == "cached" for c in second)
        rows = _csv_rows(summary)
        digest = sha256_file(summary)
        bad_summary = (len(rows) != len(sweep.values) * len(sweep.policies)
                       or any(int(r["n"]) != sweep.repetitions for r in rows)
                       or digest != u.extra.pop("first_digest"))  # resume must not change it
        u.failed = min((entries - ok) + (entries - cached) + bad_summary, u.ops)
        u.digests = {"summary": digest}
        u.extra.update(cells_ok=ok, cells_cached=cached,
                       cells_failed=sum(c["status"].startswith("failed")
                                        for c in first + second))


WORKLOADS = {w.name: w for w in (TrainDefault(), EvalPaired(), SweepLookback())}


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict                  # name -> (value, unit)
    extras: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class _Scratch:
    """Fresh numbered directories under one root."""

    def __init__(self, root):
        self.root = Path(root)
        self.count = 0

    def fresh(self) -> Path:
        self.count += 1
        d = self.root / f"d{self.count:04d}"
        d.mkdir(parents=True)
        return d


class _Gate:
    """Counts operations and failures; digests must equal the pins, or else
    the first unit's."""

    def __init__(self, pins: dict | None):
        self.expected = dict(pins) if pins else None
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def add(self, u: UnitRun):
        self.attempted += u.ops
        self.failed += u.failed
        if self.expected is None:
            self.expected = dict(u.digests)
            return
        for key, value in u.digests.items():
            self.attempted += 1
            if self.expected.get(key) != value:
                self.failed += 1
                self.mismatches.append(key)


def pins_for(workload: str, seed: int, scale: str) -> dict | None:
    """Pinned digests apply to the default seed at full scale only."""
    return PINNED[workload] if seed == DEFAULT_SEED and scale == "full" else None


def _checked_unit(wl, ctx, scratch, gate, tracer=None) -> UnitRun:
    """Run and check one unit.  With a tracer every layer is traced;
    without one only episodes are, one span each, to time them."""
    d = scratch.fresh()
    targets = TRACE_TARGETS if tracer is not None else EPISODE_TARGETS
    tracer = tracer if tracer is not None else Tracer()
    first_span = len(tracer.spans)
    tracer.install(targets)
    try:
        root = tracer.begin("unit")
        u = wl.unit(ctx, d)
        tracer.end(root)
    finally:
        tracer.uninstall()
    u.episode_s = [s.end - s.start for s in tracer.spans[first_span:]
                   if s.name == "bench.rollout_episode"]
    wl.check(ctx, d, u)
    u.extra["output_bytes"] = _output_sizes(d)
    shutil.rmtree(d)
    gate.add(u)
    return u


def repeats(fn, budget_s: float) -> list:
    """Results of calls to `fn`: one, then more until `budget_s` has passed."""
    results, t0 = [], time.perf_counter()
    while not results or time.perf_counter() - t0 < budget_s:
        results.append(fn())
    return results


def timed_setup(workload: str, seed: int, scale: str, workdir) -> float:
    """Wall time of a fresh interpreter that imports wirebeam and sets the
    workload up, as every command-line run does."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
            "workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), sys.argv[5], sys.argv[6])")
    paths = [str(Path(bench.__file__).parents[1]), str(Path(__file__).parent)]
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child and rounds up to 50 ms
    subprocess.run([sys.executable, "-c", code, *paths, workload, str(seed), scale,
                    str(workdir)], check=True)
    return time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool, workroot,
        scale: str = "full", pins: dict | None = None) -> RunResult:
    """Set up, then repeat rounds until `seconds` have passed (at least one).

    Untraced, a round times set-ups in fresh interpreters and the
    reference, then the workload's warm-up run if it has one, then
    one unit; the result holds the end-to-end metrics.  Traced, a round is
    an untraced and a traced unit; the result holds the per-layer metrics
    and the tracing overhead.  `pins` replaces the pinned digests.
    """
    wl = WORKLOADS[workload]
    scratch = _Scratch(workroot)
    gate = _Gate(pins if pins is not None else pins_for(workload, seed, scale))
    t_start = time.perf_counter()

    def out_of_time(rounds):
        return time.perf_counter() - t_start + statistics.median(rounds) > seconds

    try:
        ctx = wl.setup(seed, scale, scratch.fresh())  # kept: eval's checkpoint lives here
        if trace:
            metrics, extras, first, spans = _traced(wl, ctx, seed, scale, scratch, gate,
                                                    out_of_time)
        else:
            reference_kernel()  # untimed: the first call pays one-off start-up costs
            setups, refs, warms, units, rounds = [], [], [], [], []
            while not rounds or not out_of_time(rounds):
                t0 = time.perf_counter()
                budget = TIMING_SHARE * (rounds[-1] if rounds else 0.0)
                setups += repeats(
                    lambda: timed_setup(workload, seed, scale, scratch.fresh()), budget)
                refs += repeats(timed_reference, budget)
                if hasattr(wl, "warmup"):
                    warms.append(wl.warmup(ctx, scratch.fresh()))
                units.append(_checked_unit(wl, ctx, scratch, gate))
                rounds.append(time.perf_counter() - t0)
            metrics, extras = _end_to_end(wl, ctx, setups, refs, units, warms)
            first, spans = units[0], []
    finally:
        shutil.rmtree(scratch.root, ignore_errors=True)
    extras["digest_mismatches"] = gate.mismatches
    extras["failed_ops_frac"] = gate.failed / gate.attempted
    return RunResult(attempted=gate.attempted, failed=gate.failed,
                     metrics=metrics, extras=extras, digests=first.digests, spans=spans)


def _traced(wl, ctx, seed, scale, scratch, gate, out_of_time):
    """Alternate untraced and traced units.  The per-layer metrics come from
    the first traced set-up plus unit; the overhead from the unit medians."""
    tracer = Tracer()
    setup_dir = scratch.fresh()
    root = tracer.begin("setup")
    tracer.install(TRACE_TARGETS)
    try:
        wl.setup(seed, scale, setup_dir)
    finally:
        tracer.uninstall()
    tracer.end(root)

    untraced, traced, first, spans = [], [], None, []
    while not traced or not out_of_time([a + b for a, b in zip(untraced, traced)]):
        untraced.append(_checked_unit(wl, ctx, scratch, gate).wall_s)
        u = _checked_unit(wl, ctx, scratch, gate, tracer)
        if first is None:
            first, spans = u, list(tracer.spans)
        traced.append(u.wall_s)
        tracer.spans.clear()

    sizes = {k: v + first.extra["output_bytes"][k]
             for k, v in _output_sizes(setup_dir).items()}
    metrics = layer_metrics(first, self_times(spans), ctx["cfg"], sizes, spans)
    base = statistics.median(untraced)
    overhead = statistics.median(traced) - base
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / base, "ratio")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics, {"traced_unit_s": traced, "untraced_unit_s": untraced}, first, spans


def _end_to_end(wl, ctx, setups, refs, units, warms):
    """End-to-end metrics (every workload) and workload-specific figures.

    Unit times are given in seconds and, for the metrics the bounds apply
    to, in reference times (`ref`), which cancels most of a shared
    machine's drift in speed."""
    med = statistics.median
    wall_s = med(u.wall_s for u in units)
    steps_per_s = med(u.env_steps / u.wall_s for u in units)
    ref_s = med(refs)
    metrics = {
        "setup_s": (med(setups), "s"),
        "wall_ref": (wall_s / ref_s, "ref"),
        "env_steps_per_ref": (steps_per_s * ref_s, "1/ref"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    extras = {"wall_s": wall_s, "env_steps_per_s": steps_per_s, "reference_s": ref_s,
              "references": len(refs), "setups": len(setups), "units": len(units),
              "unit_wall_s": [u.wall_s for u in units]}
    if units[0].updates:
        extras["updates_per_s"] = med(u.updates / u.wall_s for u in units)
    if warms:
        tc = ctx["cfg"].train
        warm = warmup_steps(tc)
        n_phases = phases_in(tc, PAPER_TOTAL_STEPS)
        trailing = PAPER_TOTAL_STEPS - (warm + n_phases * tc.update_period_steps)
        phase_s = med((u.wall_s - w) / u.phases for u, w in zip(units, warms))
        warm_s = med(warms)
        extras["warmup_run_s"] = warm_s
        extras["phase_s_p50"] = phase_s
        extras["train_100k_projected_s"] = warm_s * (1 + trailing / warm) + n_phases * phase_s
        extras["train_100k_formula"] = (
            f"median T(warm-up run of {warm} steps) * (1 + {trailing}/{warm}) + {n_phases} * "
            f"phase_s_p50; phase_s = (unit wall - T(its round's warm-up run)) / "
            f"{units[0].phases}")
    for key, samples in (("episode_ms", [s for u in units for s in u.episode_s]),
                         ("cell_ms", [s for u in units for s in u.cell_s])):
        if samples:
            q, tail = tail_percentile(samples)
            extras[f"{key}_p50"] = 1e3 * med(samples)
            extras[f"{key}_tail"] = None if tail is None else 1e3 * tail
            extras[f"{key}_tail_percentile"] = q
            extras[f"{key}_samples"] = len(samples)
    return metrics, extras


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _output_sizes(*dirs) -> dict:
    files = [p for d in dirs for p in Path(d).rglob("*") if p.is_file()]
    return {"checkpoint": sum(p.stat().st_size for p in files if p.name == "checkpoint.bin"),
            "all": sum(p.stat().st_size for p in files)}


def layer_metrics(unit: UnitRun, totals: dict, cfg, sizes: dict, spans) -> dict:
    """Per-layer metrics of one traced set-up plus unit."""
    def g(name) -> LayerTotals:
        return totals.get(name, LayerTotals())

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("wire.step", "channel.received_power", "env.step", "policies.oracle_action"):
        m[f"{name}.calls"] = (g(name).calls, "count")
        m[f"{name}.self_s"] = (g(name).self_s, "s")
        m[f"{name}.us_per_call"] = (1e6 * ratio(g(name).self_s, g(name).calls), "us")
    m["wire.solve_equilibrium.calls"] = (g("wire.solve_equilibrium").calls, "count")
    m["channel.look_angles.calls"] = (g("channel.look_angles").calls, "count")
    m["env.construct.calls"] = (g("env.construct").calls, "count")
    m["env.construct.self_s"] = (g("env.construct").self_s, "s")

    learner = g("dqn.learner").self_s
    m["dqn.learner.self_s"] = (learner, "s")
    m["dqn.updates"] = (unit.updates, "count")
    m["dqn.learner.us_per_update"] = (1e6 * ratio(learner, unit.updates), "us")
    for kind in ("single", "batch"):
        m[f"dqn.forward.{kind}.calls"] = (g(f"dqn.forward.{kind}").calls, "count")
        m[f"dqn.forward.{kind}.self_s"] = (g(f"dqn.forward.{kind}").self_s, "s")
    for op in ("push", "sample"):
        m[f"dqn.replay.{op}.calls"] = (g(f"dqn.replay.{op}").calls, "count")
        m[f"dqn.replay.{op}.self_s"] = (g(f"dqn.replay.{op}").self_s, "s")
    m["dqn.checkpoint.save_s"] = (g("dqn.checkpoint.save").total_s, "s")
    m["dqn.checkpoint.load_s"] = (g("dqn.checkpoint.load").total_s, "s")
    m["dqn.checkpoint.bytes"] = (sizes["checkpoint"], "B")
    flops, nbytes = update_cost(mlp_dims(cfg), cfg.train.minibatch)
    m["dqn.update.flops"] = (flops, "flop")
    m["dqn.update.bytes"] = (nbytes, "B")
    busy = learner + g("dqn.forward.batch").self_s
    m["dqn.update.gflops"] = (ratio(flops * unit.updates, busy) / 1e9, "GFLOP/s")

    m["bench.rollout_episode.self_s"] = (g("bench.rollout_episode").self_s, "s")
    m["bench.write_s"] = (g("bench.write").total_s, "s")
    m["bench.bytes_written"] = (sizes["all"], "B")
    for key in ("cells_ok", "cells_cached", "cells_failed"):
        m[f"bench.sweep.{key}"] = (unit.extra.get(key, 0), "count")
    m["bench.sweep.resume_s"] = (unit.extra.get("resume_s", 0.0), "s")
    m["config.build_config.calls"] = (g("config.build_config").calls, "count")
    m["config.build_config.self_s"] = (g("config.build_config").self_s, "s")

    # env steps taken inside training, counted where they happen
    in_learner = [False] * len(spans)
    train_env = 0
    for i, s in enumerate(spans):
        in_learner[i] = s.name == "dqn.learner" or (s.parent >= 0 and in_learner[s.parent])
        train_env += s.name == "env.step" and in_learner[i]
    train_steps = g("dqn.learner").calls * cfg.train.total_steps
    m["train.eval_step_frac"] = (ratio(train_env - train_steps, train_env), "ratio")
    m["dqn.forward.single_per_env_step"] = (
        ratio(g("dqn.forward.single").calls, g("env.step").calls), "ratio")
    m["wire.solve_equilibrium.per_construct"] = (
        ratio(g("wire.solve_equilibrium").calls, g("env.construct").calls), "ratio")
    return m
