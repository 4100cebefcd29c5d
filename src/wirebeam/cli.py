"""Command-line entry points.

Verbs: train, eval, sweep, pattern, trajectory.  Exit codes: 0 success,
1 configuration/validation problem, 2 runtime failure.  BLAS runs on one
thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS
says otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread unless the user set a count, before numpy loads: every
# product here is small, and forked sweep workers would each start a
# thread per core (a pooled sweep then ran slower than one process).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import bench  # noqa: E402  (loads numpy)
from .config import (DEFAULTS, SWEEP_AXES, ConfigError, apply_smoke,
                     build_config, parse_file)
from .policies import PolicyKind


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wirebeam",
                                description="Beam tracking on an overhead "
                                            "messenger wire: training, "
                                            "evaluation and sweeps")
    sub = p.add_subparsers(dest="verb", required=True)
    policy_names = [k.value for k in PolicyKind]
    # an option whose dest is a config key overrides that key (see _load)

    def common(sp):
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--seed", type=int, default=None, help="override the seed")
        sp.add_argument("--out", default=None, help="output directory (default: output_dir)")
        sp.add_argument("--smoke", action="store_true",
                        help="reduced-scale profile for quick runs")

    sp = sub.add_parser("train", help="train the DQN policy")
    common(sp)

    sp = sub.add_parser("eval", help="evaluate a policy over seeded episodes")
    common(sp)
    sp.add_argument("--policy", choices=policy_names, required=True)
    sp.add_argument("--checkpoint", default=None, help="required for --policy dqn")
    sp.add_argument("--episodes", dest="eval.episodes", type=int, default=None,
                    help="override eval.episodes")

    sp = sub.add_parser("sweep", help="run the configured parameter sweep")
    common(sp)
    sp.add_argument("--axis", dest="sweep.axis", choices=tuple(SWEEP_AXES), default=None)
    sp.add_argument("--values", dest="sweep.values", default=None,
                    help="comma-separated axis values")
    sp.add_argument("--reps", dest="sweep.repetitions", type=int, default=None)
    sp.add_argument("--policies", dest="sweep.policies", default=None,
                    help=f"comma-separated subset of {','.join(policy_names)}")

    sp = sub.add_parser("pattern", help="export the beam-pattern CSV")
    common(sp)
    sp.add_argument("--span-deg", type=float, default=60.0)
    sp.add_argument("--step-deg", type=float, default=1.0)

    sp = sub.add_parser("trajectory", help="export an impulse-response trajectory")
    common(sp)
    sp.add_argument("--duration-s", type=float, default=0.5)
    sp.add_argument("--impulse-time-s", type=float, default=0.0)
    sp.add_argument("--with-wind", action="store_true")
    return p


def _load(args) -> "ExperimentConfig":
    values = parse_file(args.config)
    if args.smoke:
        values = apply_smoke(values)
    values.update({key: str(v) for key, v in vars(args).items()
                   if key in DEFAULTS and v is not None})
    return build_config(values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    out = args.out if args.out is not None else cfg.output_dir
    try:
        if args.verb == "train":
            ckpt, log = bench.run_train(cfg, out)
            print(f"checkpoint: {ckpt}\ntraining log: {log}")
        elif args.verb == "eval":
            record = bench.run_eval(cfg, args.checkpoint, PolicyKind(args.policy),
                                    cfg.eval_episodes, out)
            print(record.to_json())
        elif args.verb == "sweep":
            summary = bench.run_sweep(cfg, out)
            print(f"sweep summary: {summary}")
        elif args.verb == "pattern":
            print(bench.export_pattern(cfg, out, args.span_deg, args.step_deg))
        elif args.verb == "trajectory":
            print(bench.export_trajectory(cfg, out, args.duration_s,
                                          args.impulse_time_s, args.with_wind))
    except (ConfigError, bench.EvalError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
