"""Run one windy episode under the oracle and the fixed beam.

Same seed, same wind: the oracle steps the 1-degree grid toward the true
node position every 10 ms while the fixed beam stays put.  Prints a
side-by-side power timeline and the episode means.
"""

from pathlib import Path

import numpy as np

from wirebeam.bench import load_policy, make_envs, rollout_episode
from wirebeam.config import default_config
from wirebeam.env import angle_error_deg, write_trace_csv
from wirebeam.policies import PolicyKind

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

cfg = default_config()
SEED = 11

results, errors = {}, {}
for kind in (PolicyKind.ORACLE, PolicyKind.FIXED_BEAM):
    env = make_envs(cfg, [SEED])[0]
    results[kind] = rollout_episode(env, load_policy(cfg, kind))
    errors[kind] = [angle_error_deg(r.look, r.beam) for r in results[kind]]
    write_trace_csv(OUT / f"episode_{kind.value}.csv", results[kind],
                    cfg.channel, cfg.array)

print("time    oracle dBm   fixed dBm   oracle err   fixed err")
for k in range(0, 300, 30):
    ro = results[PolicyKind.ORACLE]
    rf = results[PolicyKind.FIXED_BEAM]
    eo, ef = errors[PolicyKind.ORACLE], errors[PolicyKind.FIXED_BEAM]
    print(f"{(k + 1) * 0.01:4.2f}s  {ro[k].raw_power_dbm:10.2f} "
          f"{rf[k].raw_power_dbm:11.2f} "
          f"{eo[k]:10.2f}d {ef[k]:10.2f}d")

for kind, rows in results.items():
    powers = [r.raw_power_dbm for r in rows]
    print(f"\n{kind.value:>6}: mean {np.mean(powers):7.2f} dBm, "
          f"worst {np.min(powers):7.2f} dBm, "
          f"mean angle error {np.mean(errors[kind]):.2f} deg")

print(f"\nper-step traces written to {OUT}/episode_*.csv")
print("the gap between the two curves is what a learned tracker can recover.")
