"""Tracking environment: delays, actions, rewards, episode mechanics."""

import math
import traceback
from dataclasses import replace

import numpy as np
import pytest

from wirebeam import dqn
from wirebeam import env as envmod
from wirebeam import wire
from wirebeam.bench import make_envs as make_experiment_envs
from wirebeam.bench import load_policy
from wirebeam.channel import BeamOrientation, boresight_power, look_angles, received_power
from wirebeam.config import default_config
from wirebeam.env import (BeamTrackingEnv, ConfigError, EpisodeBatch, EpisodeFinishedError,
                          apply_action, assemble_state, decode_action, proxy_reward,
                          rollout)
from wirebeam.policies import PolicyKind

TABLE = default_config()
A_DEG = math.radians(1.0)
ACTION = {decode_action(a): a for a in range(envmod.N_ACTIONS)}  # (d_theta, d_phi) -> index


def wire_params(**overrides):
    base = dict(n_points=21, mass_total=10.0, spring_k=1000.0, drag_c=1.0,
                gravity=np.array([0.0, 0.0, -9.8]),
                wind_diffusion=0.1 * np.eye(3), endpoint_separation=10.0)
    base.update(overrides)
    return wire.WireParams(**base)


def impulses_at(*times, **overrides):
    """The table config's impulse at each of `times`, with `overrides`."""
    return tuple(replace(TABLE.env.impulses[0], apply_time=t, **overrides) for t in times)


def channel_cfg(params):
    sag = wire.sag_depth(params)
    return replace(TABLE.channel, rx_position=np.array([0.0, 5.0, sag]))


def make_env(seed=0, quiet=False, **env_overrides) -> BeamTrackingEnv:
    """The env of `seed` over a batch of that episode alone."""
    params = wire_params(wind_diffusion=np.zeros((3, 3)) if quiet else 0.1 * np.eye(3))
    wind = replace(TABLE.wind, amplitude=0.0) if quiet else TABLE.wind
    batch = EpisodeBatch(replace(TABLE.env, **env_overrides), params, wind, [seed])
    return BeamTrackingEnv(batch, seed, channel_cfg(params), TABLE.array)


def history(env) -> list[wire.WireState]:
    """The env's wire states so far, read from its batch: entry k is the
    state after k steps, and the last is the env's own `state`."""
    states = [env._batch.state(env._episode, k) for k in range(env.step_count + 1)]
    assert is_view_of(env.state, states[-1])
    return states


def is_view_of(state, batch_state) -> bool:
    """`state` is `batch_state`: the same instant over the same memory."""
    return (state.time == batch_state.time
            and np.shares_memory(state.positions, batch_state.positions)
            and np.shares_memory(state.velocities, batch_state.velocities))


class TestActions:
    def test_action_set_closure(self):
        # row-major over {-1, 0, +1}^2, zenith slow: every pair exactly once
        assert [decode_action(a) for a in range(9)] == \
            [(dt, dp) for dt in (-1, 0, 1) for dp in (-1, 0, 1)]

    def test_center_action_is_identity(self):
        beam = BeamOrientation(1.1, 0.4)
        out = apply_action(beam, envmod.CENTER_ACTION, A_DEG)
        assert out.theta_s == beam.theta_s and out.phi_s == beam.phi_s

    def test_plus_minus_pair(self):
        beam = BeamOrientation(math.pi / 2, math.pi / 2)
        out = apply_action(beam, ACTION[1, -1], A_DEG)
        assert out.theta_s == pytest.approx(math.pi / 2 + math.pi / 180, rel=1e-12)
        assert out.phi_s == pytest.approx(math.pi / 2 - math.pi / 180, rel=1e-12)

    def test_inverse_pair_returns_exactly(self):
        beam = BeamOrientation(1.234, -0.567)
        fwd = apply_action(beam, ACTION[1, 0], A_DEG)
        back = apply_action(fwd, ACTION[-1, 0], A_DEG)
        assert back.theta_s == pytest.approx(beam.theta_s, abs=1e-12)
        assert back.phi_s == pytest.approx(beam.phi_s, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decode_action(9)
        with pytest.raises(ValueError):
            decode_action(-1)


class TestProxyReward:
    def test_offset_cancels(self):
        assert proxy_reward(-48.0, -48.0, 5.0) == 0.0

    def test_upper_clip(self):
        assert proxy_reward(-48.0 + 10.0, -48.0, 5.0) == 1.0

    def test_linear_region(self):
        assert proxy_reward(-48.0 - 2.5, -48.0, 5.0) == pytest.approx(-0.5)

    def test_bounds_and_monotonicity(self):
        raws = np.linspace(-80, -20, 200)
        vals = [proxy_reward(r, -48.0, 5.0) for r in raws]
        assert all(-1.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        inside = [(r, v) for r, v in zip(raws, vals) if -1 < v < 1]
        for (r1, v1), (r2, v2) in zip(inside, inside[1:]):
            assert v2 > v1

    def test_nan_stays_nan_and_infinities_clip(self):
        nan = proxy_reward(math.nan, -48.0, 5.0)
        assert math.isnan(nan)
        with pytest.raises(ValueError, match="outside the clipped range"):
            dqn.ReplayBuffer(1, 1).push(np.zeros(1), 0, nan, np.zeros(1), False)
        assert proxy_reward(math.inf, -48.0, 5.0) == 1.0
        assert proxy_reward(-math.inf, -48.0, 5.0) == -1.0

    def test_equals_numpy_clip_bit_for_bit(self):
        cases = [(float(r), -48.0, 5.0) for r in np.linspace(-60.0, -36.0, 2401)]
        cases += [(-53.0, -48.0, 5.0), (-43.0, -48.0, 5.0), (-0.0, 0.0, 5.0),
                  (0.0, 0.0, 5.0), (-42.999999999, -48.0, 5.0), (1e308, -1e308, 0.5)]
        for raw, offset, scale in cases:
            got = proxy_reward(raw, offset, scale)
            want = float(np.clip((raw - offset) / scale, -1.0, 1.0))
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


def observed_rollout(env, policy_fn, steps):
    """`rollout`'s outcomes, and the observation after each step."""
    seen = []
    outcomes = rollout(env, lambda env: seen.append(env.state_vector) or policy_fn(env),
                       steps)
    return outcomes, seen[1:] + [env.state_vector]


def still_wire(positions=None, velocities=None) -> wire.WireState:
    return wire.WireState(0.0, np.zeros((21, 3)) if positions is None else positions,
                          np.zeros((21, 3)) if velocities is None else velocities)


class TestStateAssembly:
    def test_beam_vector_axis_cases(self):
        state, idx = still_wire(), np.array([9])
        s = assemble_state(state, idx, BeamOrientation(math.pi / 2, 0.0))
        np.testing.assert_allclose(s[-3:], [1, 0, 0], atol=1e-12)
        s = assemble_state(state, idx, BeamOrientation(0.0, 1.234))
        np.testing.assert_allclose(s[-3:], [0, 0, 1], atol=1e-12)

    def test_block_ordering_with_sentinels(self):
        points = (2, 4, 6, 8, 10, 12, 14, 16, 18)
        # sentinels at every point, so a wrong slice shows
        pos = np.array([[p, 10 * p, 100 * p] for p in range(1, 22)], float)
        vel = -pos / 7.0
        s = assemble_state(still_wire(pos, vel), np.array(points) - 1,
                           BeamOrientation(math.pi / 2, 0.0))
        assert s.shape == (6 * 9 + 3,)
        for j, p in enumerate(points):
            np.testing.assert_allclose(s[6 * j:6 * j + 3], [p, 10 * p, 100 * p])
            np.testing.assert_allclose(s[6 * j + 3:6 * j + 6], -pos[p - 1] / 7.0)

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(2)
        state, idx = still_wire(), np.array([9])
        for _ in range(100):
            beam = BeamOrientation(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            s = assemble_state(state, idx, beam)
            assert abs(np.linalg.norm(s[-3:]) - 1.0) < 1e-9


class TestEnvConfigValidation:
    def test_lookback_must_be_multiple_of_tau(self):
        with pytest.raises(ConfigError, match="lookback not a multiple of tau"):
            replace(TABLE.env, lookback=0.015)

    def test_tx_point_must_be_sensed(self):
        with pytest.raises(ConfigError):
            replace(TABLE.env, sense_points=(2, 4), tx_point=10)

    def test_stability_bound_enforced(self):
        params = wire_params(spring_k=1e6)  # dt = 1 ms is now unstable
        with pytest.raises(ConfigError, match="stability"):
            EpisodeBatch(TABLE.env, params, TABLE.wind, [0])

    @pytest.mark.parametrize("overrides, match", [
        (dict(sense_points=(10, 22)), "sense point P22 outside 1..21"),
        (dict(tx_point=21, sense_points=(21,)), "tx_point P21 must be interior"),
    ])
    def test_points_must_fit_the_wire(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            make_env(**overrides)

    def test_the_stream_refuses_an_impulse_point_off_the_interior(self):
        # check_invariants leaves the point to the event: a hand-built config
        # is refused by the stream that would apply it (`Forcing`)
        bad = impulses_at(1.0, point_number=1)
        envmod.check_invariants(replace(TABLE.env, impulse_enabled=True, impulses=bad),
                                wire_params())
        with pytest.raises(ValueError, match=r"^impulse point P1 must be interior \(2..20\)$"):
            make_env(impulse_enabled=True, impulses=bad)
        make_env(impulses=bad)  # no impulses: not applied, not checked

    def test_invariants_checked_once_per_batch(self, monkeypatch):
        calls, real_check = [], envmod.check_invariants
        monkeypatch.setattr(envmod, "check_invariants",
                            lambda *args: calls.append(args) or real_check(*args))
        cfg = default_config(**{"env.episode_duration_s": "0.1"})
        envs = make_experiment_envs(cfg, [1, 2, 2, 3])
        assert calls == [(cfg.env, cfg.wire)]
        assert all(e.cfg is cfg.env is e._batch.env_cfg for e in envs)

    def test_state_dim(self):
        assert TABLE.env.state_dim == 9
        expanded = replace(TABLE.env, sense_points=(2, 4, 6, 8, 10, 12, 14, 16, 18))
        assert expanded.state_dim == 57


class TestReset:
    def test_same_seed_same_state(self):
        a, b = make_env(seed=7), make_env(seed=7)
        assert np.array_equal(a.state_vector, b.state_vector)
        assert a.schedule == b.schedule

    def test_zero_lookback_observes_current_equilibrium(self):
        e = make_env(seed=1, lookback=0.0)
        np.testing.assert_allclose(e.state_vector[0:3],
                                   e.state.positions[9], atol=1e-12)
        np.testing.assert_allclose(e.state_vector[3:6], 0.0, atol=1e-15)

    def test_expanded_state_length(self):
        e = make_env(seed=1, sense_points=(2, 4, 6, 8, 10, 12, 14, 16, 18))
        assert e.state_vector.shape == (57,)

    def test_initial_beam_on_grid_near_boresight(self):
        e = make_env(seed=0)
        a = e.cfg.refine_angle
        assert e.beam.theta_s / a == pytest.approx(round(e.beam.theta_s / a), abs=1e-9)
        assert e.beam.phi_s / a == pytest.approx(round(e.beam.phi_s / a), abs=1e-9)
        assert envmod.angle_error_deg(e.look, e.beam) < 1.0

    def test_impulse_schedule_draw(self):
        times = {make_env(seed=s, impulse_enabled=True).schedule.impulse.apply_time
                 for s in range(40)}
        assert times <= {1.0, 2.0, 3.0}
        assert len(times) == 3

    @pytest.mark.parametrize("n_times", [1, 2, 3, 4, 5])
    def test_impulse_draw_is_the_choice_over_the_times(self, n_times):
        # the draw picks an event by index where it once picked the time
        # itself; every seeded result depends on the same time and the same
        # noise seed coming out
        times = (1.0, 0.0555, 2.5, 0.5055, 3.0)[:n_times]
        cfg = replace(TABLE.env, impulse_enabled=True, impulses=impulses_at(*times))
        for seed in range(400):
            rng = np.random.default_rng(seed)
            time = float(rng.choice(np.asarray(times, float)))
            noise_seed = int(rng.integers(2 ** 63))
            schedule = envmod.EpisodeSchedule.draw(cfg, seed)
            assert schedule.impulse is cfg.impulses[times.index(time)]
            assert schedule.noise_seed == noise_seed
            quiet = envmod.EpisodeSchedule.draw(replace(cfg, impulse_enabled=False), seed)
            assert quiet.impulse is None
            assert quiet.noise_seed == int(np.random.default_rng(seed).integers(2 ** 63))


class TestStepping:
    def test_delay_arithmetic_two_steps(self):
        e = make_env(seed=3, lookback=0.02)
        history = [e.state.positions[9].copy()]
        state = e.state_vector
        for k in range(1, 8):
            e.step(envmod.CENTER_ACTION)
            history.append(e.state.positions[9].copy())
            # brute-force scan: the block must equal the snapshot from 2 steps back
            np.testing.assert_array_equal(e.state_vector[0:3], history[max(0, k - 2)])

    def test_delay_correctness_full_trajectory(self):
        e = make_env(seed=9, lookback=0.04)
        lag = e.cfg.lag_steps
        history = [e.state.positions[9].copy()]
        for k in range(1, 60):
            e.step(envmod.CENTER_ACTION)
            history.append(e.state.positions[9].copy())
            np.testing.assert_array_equal(e.state_vector[0:3], history[max(0, k - lag)])

    def test_static_environment_matches_link_budget(self):
        e = make_env(seed=0, quiet=True)
        out = e.step(envmod.CENTER_ACTION)
        look = look_angles(e.true_node_position, e.channel_cfg.rx_position)
        expected = received_power(look, e.beam, e.channel_cfg, e.array_cfg)
        assert out.raw_power_dbm == pytest.approx(expected, abs=1e-9)
        optimal = boresight_power(e.channel_cfg, e.array_cfg)(look)
        assert out.raw_power_dbm <= optimal + 1e-12

    def test_episode_ends_exactly_at_step_300(self):
        e = make_env(seed=4, quiet=True)
        for k in range(1, 301):
            out = e.step(envmod.CENTER_ACTION)
            assert out.episode_done == (k == 300)
        with pytest.raises(EpisodeFinishedError):
            e.step(envmod.CENTER_ACTION)

    def test_replay_reproduces_outcomes_exactly(self):
        rng = np.random.default_rng(12)
        actions = rng.integers(0, 9, size=50)
        runs = []
        for _ in range(2):
            e = make_env(seed=21)
            runs.append([(e.step(int(a)), e.state_vector) for a in actions])
        for (o1, s1), (o2, s2) in zip(*runs):
            assert o1.raw_power_dbm == o2.raw_power_dbm
            assert o1.proxy_reward == o2.proxy_reward
            assert np.array_equal(s1, s2)

    def test_an_outcome_owns_its_node(self):
        # a kept outcome once held a view of its step's whole (N, E, 3)
        # positions, and so pinned the wire state
        envs = make_experiment_envs(default_config(), [1, 2])
        for e in envs:
            outs = rollout(e, lambda env: envmod.CENTER_ACTION, 20)
            states = history(e)
            assert all(o.node.base is None for o in outs)
            for k, o in enumerate(outs, start=1):
                assert np.array_equal(o.node, states[k].positions[9])

    def test_impulse_fires_within_scheduled_interval(self):
        e = make_env(seed=2, quiet=True, impulse_enabled=True,
                     impulses=impulses_at(1.0, duration_s=0.01))
        v_before = []
        for _ in range(120):
            e.step(envmod.CENTER_ACTION)
            v_before.append(abs(e.state.velocities[3, 2]))
        # P4 is quiet for the first second, then kicked
        assert max(v_before[:99]) < 1e-9
        assert max(v_before[100:]) > 1.0

    def test_step_outcome_fields(self):
        e = make_env(seed=5)
        out = e.step(3)
        assert out.action == 3 and out.time_s == e.state.time
        assert out.beam == e.beam
        assert out.look == e.look == look_angles(out.node, e.channel_cfg.rx_position)
        assert out.raw_power_dbm == received_power(out.look, out.beam,
                                                   e.channel_cfg, e.array_cfg)
        node = out.node.copy()
        for _ in range(5):
            e.step(envmod.CENTER_ACTION)
        # later steps leave an earlier outcome's node as it was
        np.testing.assert_array_equal(out.node, node)
        assert not np.array_equal(e.true_node_position, node)

    def test_rollout_stops_at_the_episode_end(self):
        e = make_env(seed=6, episode_duration=0.05)
        assert len(rollout(e, lambda env: envmod.CENTER_ACTION, 3)) == 3
        outs = rollout(e, lambda env: envmod.CENTER_ACTION, 10)
        assert len(outs) == 2 and outs[-1].episode_done and e.done

    def test_trace_csv(self, tmp_path):
        e = make_env(seed=5)
        outs = rollout(e, lambda env: envmod.CENTER_ACTION, 5)
        path = tmp_path / "trace.csv"
        envmod.write_trace_csv(path, outs, e.channel_cfg, e.array_cfg)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("step,time_s,action,theta_s_deg,phi_s_deg,"
                                   "raw_power_dbm,optimal_power_dbm,proxy_reward")
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert last[0] == "5" and last[2] == str(envmod.CENTER_ACTION)
        look = look_angles(outs[-1].node, e.channel_cfg.rx_position)
        optimal = boresight_power(e.channel_cfg, e.array_cfg)(look)
        assert last[6] == f"{optimal:.6f}"


class TestObservationOnRead:
    """`state_vector` is built on its first read after a step, from the
    state `lookback` ago, and kept until the next step."""

    def test_two_reads_within_a_step_return_the_same_array(self):
        e = make_env(seed=3, lookback=0.02)
        for _ in range(4):
            assert e.state_vector is e.state_vector
            first = e.state_vector
            e.step(envmod.CENTER_ACTION)
            assert e.state_vector is not first

    # lag 0, lag 2, and a lag longer than the ten-step episode
    @pytest.mark.parametrize("lookback", [0.0, 0.02, 0.2])
    def test_the_value_read_is_the_delayed_state_at_every_step(self, lookback):
        e = make_env(seed=8, lookback=lookback, episode_duration=0.1,
                     sense_points=(2, 4, 10, 18))
        lag, idx = e.cfg.lag_steps, np.array([1, 3, 9, 17])
        assert lag == round(lookback / 0.01)
        actions = np.random.default_rng(8).integers(0, 9, size=e.cfg.episode_steps)
        for k in range(e.cfg.episode_steps + 1):
            want = assemble_state(history(e)[max(k - lag, 0)], idx, e.beam)
            assert np.array_equal(e.state_vector, want)
            if k < e.cfg.episode_steps:
                e.step(int(actions[k]))

    def test_a_step_left_unread_is_never_built(self, monkeypatch):
        calls, real = [], envmod.assemble_state
        monkeypatch.setattr(envmod, "assemble_state",
                            lambda *args: calls.append(args) or real(*args))
        e = make_env(seed=2, lookback=0.02)
        for _ in range(5):
            e.step(envmod.CENTER_ACTION)
        assert calls == []
        observed = e.state_vector
        delayed = history(e)[3]
        assert len(calls) == 1 and is_view_of(calls[0][0], delayed)
        assert np.array_equal(observed, real(delayed, np.array([9]), e.beam))


class TestSharedWireStream:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scenario", ["wind_only", "wind_plus_impulse"])
    def test_env_states_are_one_simulate_trajectory_call(self, scenario, seed):
        # the impulse starts mid-substep inside a tau interval, and its 10 ms
        # force straddles the next tau boundary
        cfg = default_config(scenario=scenario, state_mode="expanded", seed=seed,
                             **{"env.episode_duration_s": "1.5",
                                "wire.impulse_times_s": "0.5055"})
        e = make_experiment_envs(cfg, [seed])[0]
        actions = np.random.default_rng(seed).integers(0, 9, size=cfg.env.episode_steps)
        rollout(e, lambda env: int(actions[env.step_count]), cfg.env.episode_steps)
        impulses = []
        if scenario == "wind_plus_impulse":
            assert e.schedule.impulse.apply_time == 0.5055
            impulses = [wire.ImpulseEvent(point_number=4, force=[0.0, 0.0, 470.0],
                                          apply_time=0.5055, duration_s=0.01)]
        expected = wire.simulate_trajectory(cfg.wire, cfg.wind, impulses, 1.5,
                                            cfg.env.substep_dt, e.schedule.noise_seed,
                                            sample_every=cfg.env.tau)
        states = history(e)
        assert e.done and len(states) == len(expected) == 151
        for got, want in zip(states, expected):
            assert got.time == want.time
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.velocities, want.velocities)

    def test_a_finished_episode_stays_finished(self):
        e = make_env(seed=4, quiet=True, episode_duration=0.02)
        rollout(e, lambda env: envmod.CENTER_ACTION, 5)
        with pytest.raises(EpisodeFinishedError, match="one episode"):
            e.step(envmod.CENTER_ACTION)
        assert e.step_count == 2 and is_view_of(e.state, history(e)[2])


class TestEpisodeBatch:
    """Envs built together read their wire states from one batched stream."""

    @pytest.mark.parametrize("scenario", ["wind_only", "wind_plus_impulse"])
    def test_make_envs_equal_make_env_seed_by_seed(self, scenario):
        cfg = default_config(scenario=scenario, state_mode="expanded",
                             **{"env.episode_duration_s": "0.3",
                                "wire.impulse_times_s": "0.0555, 0.1, 0.2055"})
        seeds = [3, 4, 5, 6]
        envs = make_experiment_envs(cfg, seeds)
        if scenario == "wind_plus_impulse":
            assert len({e.schedule.impulse.apply_time for e in envs}) > 1
        # roll the batch out one episode after another, as run_eval does
        batched = [observed_rollout(e, lambda env: int(env.step_count % 9), 30)
                   for e in envs]
        for env, seed, (outs, seen) in zip(envs, seeds, batched):
            alone = make_experiment_envs(cfg, [seed])[0]
            assert alone.schedule == env.schedule
            alone_outs, alone_seen = observed_rollout(
                alone, lambda env: int(env.step_count % 9), 30)
            states, alone_states = history(env), history(alone)
            assert len(states) == len(alone_states) == 31
            for got, want in zip(states, alone_states):
                assert got.time == want.time
                assert np.array_equal(got.positions, want.positions)
                assert np.array_equal(got.velocities, want.velocities)
            for a, b in zip(outs, alone_outs):
                assert a.raw_power_dbm == b.raw_power_dbm
            assert len(seen) == len(alone_seen) == 30
            for a, b in zip(seen, alone_seen):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("scenario", ["wind_only", "wind_plus_impulse"])
    def test_a_repeated_seed_shares_one_column(self, scenario):
        # one env per policy on the same seed, as a sweep cell builds them
        cfg = default_config(scenario=scenario, state_mode="expanded", seed=5,
                             **{"env.episode_duration_s": "0.3",
                                "wire.impulse_times_s": "0.0555"})
        params = dqn.init_mlp((cfg.env.state_dim, 8, 8, envmod.N_ACTIONS),
                              np.random.default_rng(0))
        policies = [load_policy(cfg, PolicyKind.ORACLE),
                    load_policy(cfg, PolicyKind.FIXED_BEAM),
                    dqn.greedy_policy(params)]
        envs = make_experiment_envs(cfg, [5, 5, 5])
        assert all(e._batch is envs[0]._batch for e in envs)
        assert envs[0]._batch.seeds == [5]
        shared = [observed_rollout(e, fn, cfg.env.episode_steps)
                  for e, fn in zip(envs, policies)]
        assert envs[0]._batch._states[-1].positions.shape == (cfg.wire.n_points, 1, 3)
        for env, fn, (outs, seen) in zip(envs, policies, shared):
            alone = make_experiment_envs(cfg, [5])[0]
            alone_outs, alone_seen = observed_rollout(alone, fn, cfg.env.episode_steps)
            states, alone_states = history(env), history(alone)
            assert env.done and len(states) == len(alone_states) == 31
            for got, want in zip(states, alone_states):
                assert got.time == want.time
                assert np.array_equal(got.positions, want.positions)
                assert np.array_equal(got.velocities, want.velocities)
            assert [o.action for o in outs] == [o.action for o in alone_outs]
            for a, b in zip(outs, alone_outs):
                assert a.raw_power_dbm == b.raw_power_dbm
            assert len(seen) == len(alone_seen) == 30
            for a, b in zip(seen, alone_seen):
                assert np.array_equal(a, b)
        if scenario == "wind_plus_impulse":
            assert envs[0].schedule.impulse.apply_time == 0.0555
        assert len({tuple(o.action for o in outs) for outs, _ in shared}) > 1

    # the force's (N/m)*F overflows: an episode whose impulse comes at
    # 55.5 ms diverges in its sixth step; at 5 s it never comes
    DIVERGING = replace(TABLE.env, episode_duration=0.1, impulse_enabled=True,
                        impulses=impulses_at(0.0555, 5.0, force=(0.0, 0.0, 1e308)))

    def seeds_by_impulse_time(self):
        times = {s: envmod.EpisodeSchedule.draw(self.DIVERGING, s).impulse.apply_time
                 for s in range(20)}
        return ([s for s in times if times[s] == 5.0],
                [s for s in times if times[s] == 0.0555])

    def build(self, seed, batch=None):
        params = wire_params()
        if batch is None:  # the episode alone
            batch = EpisodeBatch(self.DIVERGING, params, TABLE.wind, [seed])
        return BeamTrackingEnv(batch, seed, channel_cfg(params), TABLE.array)

    def fail_step(self, env):
        """(step, error) of the step that diverged, or (None, None)."""
        for k in range(1, self.DIVERGING.episode_steps + 1):
            try:
                env.step(envmod.CENTER_ACTION)
            except wire.IntegrationDivergedError as err:
                return k, err
        return None, None

    def test_a_diverging_episode_fails_as_it_does_alone(self):
        cfg, params = self.DIVERGING, wire_params()
        build, fail_step = self.build, self.fail_step
        calm, diverging = self.seeds_by_impulse_time()
        # the diverging seed comes twice: both of its envs read one column
        seeds = [calm[0], diverging[0], calm[1]]
        seeds.append(seeds[1])

        batch = EpisodeBatch(cfg, params, TABLE.wind, seeds)
        assert batch.seeds == seeds[:3]
        envs = [build(s, batch) for s in seeds]
        assert fail_step(envs[0]) == (None, None) and envs[0].done
        k_alone, err_alone = fail_step(build(seeds[1]))
        for env in (envs[1], envs[3]):
            k, err = fail_step(env)
            assert k == k_alone == 6
            assert (err.point_number, err.time, str(err)) == (
                err_alone.point_number, err_alone.time, str(err_alone))
        rollout(envs[2], lambda env: envmod.CENTER_ACTION, cfg.episode_steps)
        for e in (0, 2):  # their columns stayed their own
            alone = build(seeds[e])
            rollout(alone, lambda env: envmod.CENTER_ACTION, cfg.episode_steps)
            states, alone_states = history(envs[e]), history(alone)
            assert envs[e].done and len(states) == len(alone_states)
            for got, want in zip(states, alone_states):
                assert np.array_equal(got.positions, want.positions)
                assert np.array_equal(got.velocities, want.velocities)

    def test_each_env_over_a_diverged_column_gets_its_own_traceback(self):
        # one env per policy over one diverging seed, as a sweep cell builds them
        seed = self.seeds_by_impulse_time()[1][0]
        _, err_alone = self.fail_step(self.build(seed))
        batch = EpisodeBatch(self.DIVERGING, wire_params(), TABLE.wind, [seed] * 3)
        depths = []
        for env in [self.build(seed, batch) for _ in range(3)]:
            k, err = self.fail_step(env)
            assert (k, str(err)) == (6, str(err_alone))
            depths.append(len(traceback.extract_tb(err.__traceback__)))
        assert depths == [len(traceback.extract_tb(err_alone.__traceback__))] * 3
