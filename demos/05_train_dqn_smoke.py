"""Train the DQN tracker at smoke scale and watch the learning curve.

A reduced protocol (2,000 steps, small replay block) that exercises the
full training loop in about half a minute.  For the real thing, use the
`wirebeam train` command with a full-scale config.
"""

from pathlib import Path

from wirebeam.bench import run_eval, run_train
from wirebeam.config import default_config
from wirebeam.policies import PolicyKind

OUT = Path("demo_out/train_smoke")

cfg = default_config(**{
    "train.total_steps": "2000",
    "train.sample_block": "256",
    "train.target_sync_steps": "600",
    "eval.episodes": "2",
})

ckpt, log = run_train(cfg, OUT)
print(f"checkpoint: {ckpt}")
print(f"log:        {log}\n")

print("phase   dqn eval dBm   oracle dBm   fixed dBm")
for line in log.read_text().splitlines()[2:]:
    step, phase, dqn_p, _, _, oracle_p, fixed_p, _ = line.split(",")
    print(f"{int(phase):5d} {float(dqn_p):12.2f} {float(oracle_p):12.2f} "
          f"{float(fixed_p):11.2f}")

record = run_eval(cfg, ckpt, PolicyKind.DQN_GREEDY, episodes=2, out_dir=OUT)
print(f"\ngreedy evaluation over 2 episodes: mean {record.mean_power_dbm:.2f} dBm, "
      f"mean angle error {record.mean_angle_error_deg:.2f} deg")
print("(smoke scale only demonstrates the plumbing; expect rough tracking)")
