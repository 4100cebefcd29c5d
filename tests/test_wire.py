"""Wire physics: equilibrium and integrator oracles, invariants."""

import itertools
import math

import numpy as np
import pytest

from wirebeam import wire


def table_params(**overrides):
    base = dict(n_points=21, mass_total=10.0, spring_k=1000.0, drag_c=1.0,
                gravity=np.array([0.0, 0.0, -9.8]),
                wind_diffusion=0.1 * np.eye(3), endpoint_separation=10.0)
    base.update(overrides)
    return wire.WireParams(**base)


def quiet_params(**overrides):
    overrides.setdefault("wind_diffusion", np.zeros((3, 3)))
    return table_params(**overrides)


STILL = wire.WindModel(amplitude=0.0)


def closed_form_parabola(params):
    """Independent oracle: z_j = h + (c/2) j (j - (N-1)) with c = |g_z| m/(k0 N),
    shifted so the midpoint node sits at z = 0."""
    n = params.n_points
    c = abs(params.gravity[2]) * params.mass_total / (params.spring_k * n)
    j = np.arange(n)
    z = (c / 2.0) * j * (j - (n - 1))
    return z - z[(n - 1) // 2]


class TestEquilibrium:
    def test_matches_closed_form_parabola(self):
        params = table_params()
        eq = wire.solve_equilibrium(params)
        np.testing.assert_allclose(eq.positions[:, 2], closed_form_parabola(params),
                                   atol=1e-6)

    def test_second_difference_and_sag(self):
        # c = 9.8 * 10 / (1000 * 21) and s0 = (c/2) * ((N-1)/2)^2
        params = table_params()
        eq = wire.solve_equilibrium(params)
        z = eq.positions[:, 2]
        d2 = z[2:] + z[:-2] - 2.0 * z[1:-1]
        c = 9.8 * 10.0 / (1000.0 * 21)
        np.testing.assert_allclose(d2, c, rtol=1e-9)
        assert wire.sag_depth(params) == pytest.approx((c / 2.0) * 100.0, rel=1e-9)

    def test_zero_gravity_is_straight_and_even(self):
        params = table_params(gravity=np.zeros(3))
        eq = wire.solve_equilibrium(params)
        np.testing.assert_allclose(eq.positions[:, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(eq.positions[:, 0], np.linspace(-5, 5, 21),
                                   atol=1e-12)

    def test_horizontal_spacing_even_regardless_of_gravity(self):
        eq = wire.solve_equilibrium(table_params())
        np.testing.assert_allclose(np.diff(eq.positions[:, 0]), 0.5, atol=1e-12)

    def test_acceleration_residual_below_1e9(self):
        params = table_params()
        eq = wire.solve_equilibrium(params)
        acc = wire.interior_acceleration(eq, params)
        assert np.abs(acc).max() < 1e-9

    def test_midpoint_at_origin_endpoints_elevated(self):
        params = table_params()
        eq = wire.solve_equilibrium(params)
        np.testing.assert_allclose(eq.positions[10], 0.0, atol=1e-12)
        assert eq.positions[0, 2] > 0 and eq.positions[-1, 2] > 0


class TestStep:
    def test_equilibrium_is_a_fixed_point(self):
        params = quiet_params()
        eq = wire.solve_equilibrium(params)
        out = wire.step(eq, params, STILL, (), 1e-3, np.zeros((19, 3)))
        np.testing.assert_allclose(out.positions, eq.positions, atol=1e-12)
        np.testing.assert_allclose(out.velocities, eq.velocities, atol=1e-12)

    def test_single_oscillator_update(self):
        # N=3: one free point displaced by delta in z, no gravity/wind/noise
        params = quiet_params(n_points=3, gravity=np.zeros(3))
        delta, dt = 0.01, 1e-3
        eq = wire.solve_equilibrium(params)
        st = eq.copy()
        st.positions[1, 2] = delta
        out = wire.step(st, params, STILL, (), dt, np.zeros((1, 3)))
        coeff = params.spring_accel_coeff
        v_expected = -2.0 * coeff * delta * dt
        z_expected = delta + v_expected * dt
        assert out.velocities[1, 2] == pytest.approx(v_expected, rel=1e-13)
        assert out.positions[1, 2] == pytest.approx(z_expected, rel=1e-13)

    def test_drag_decay_recurrence(self):
        # negligible spring: velocity follows v_k = v_0 (1 - c0 dt)^k
        params = quiet_params(n_points=5, spring_k=1e-12, gravity=np.zeros(3))
        dt, k = 1e-3, 200
        st = wire.solve_equilibrium(params)
        v0 = np.array([0.3, -0.2, 0.1])
        st.velocities[1:-1] = v0
        for _ in range(k):
            st = wire.step(st, params, STILL, (), dt, np.zeros((3, 3)))
        expected = v0 * (1.0 - params.drag_c * dt) ** k
        np.testing.assert_allclose(st.velocities[1:-1], np.tile(expected, (3, 1)),
                                   rtol=1e-9)

    def test_endpoints_never_move(self):
        params = table_params()
        rng = np.random.default_rng(3)
        st = wire.solve_equilibrium(params)
        p0, pn = st.positions[0].copy(), st.positions[-1].copy()
        for _ in range(100):
            st = wire.step(st, params, wire.WindModel(), (), 1e-3,
                           rng.standard_normal((19, 3)))
        assert np.array_equal(st.positions[0], p0)
        assert np.array_equal(st.positions[-1], pn)
        assert np.array_equal(st.velocities[0], np.zeros(3))

    def test_spring_term_linearity(self):
        params = quiet_params()
        eq = wire.solve_equilibrium(params)
        rng = np.random.default_rng(8)
        u = rng.normal(scale=0.05, size=(19, 3))

        def tensile(scale):
            st = eq.copy()
            st.positions[1:-1] += scale * u
            return wire.interior_acceleration(st, params) - params.gravity

        base = tensile(0.0)
        one = tensile(1.0) - base
        two = tensile(2.0) - base
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12, atol=1e-12)

    def test_nonfinite_state_raises_named_point(self):
        params = table_params()
        st = wire.solve_equilibrium(params)
        st.positions[5, 2] = np.inf
        with pytest.raises(wire.IntegrationDivergedError) as err:
            wire.step(st, params, STILL, (), 1e-3, np.zeros((19, 3)))
        assert "P" in str(err.value)

    def test_drag_dissipates_energy(self):
        # zero diffusion, zero mean wind, perturbed equilibrium: windowed mean
        # kinetic energy is non-increasing once transients pass
        params = quiet_params()
        rng = np.random.default_rng(11)
        st = wire.solve_equilibrium(params)
        st.positions[1:-1, 2] += rng.normal(scale=0.02, size=19)
        dt, n_steps = 1e-3, 3000
        point_mass = params.mass_total / params.n_points
        ke = []
        for _ in range(n_steps):
            st = wire.step(st, params, STILL, (), dt, np.zeros((19, 3)))
            ke.append(0.5 * point_mass * float((st.velocities ** 2).sum()))
        window = 500  # > half the fundamental period, smooths the KE/PE exchange
        means = [np.mean(ke[i:i + window]) for i in range(window, n_steps - window, window)]
        for a, b in zip(means, means[1:]):
            assert b <= a * (1.0 + 1e-9)


def single_substeps(state, params, wind, impulses, dt, noise):
    """Reference: one wire.step call per substep."""
    for block in noise:
        state = wire.step(state, params, wind, impulses, dt, block)
    return state


def assert_same_state(a, b):
    assert a.time == b.time
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)


# symmetric positive definite, with off-diagonal coupling between axes
COUPLED_DIFFUSION = np.array([[0.20, 0.05, -0.03],
                              [0.05, 0.10, 0.02],
                              [-0.03, 0.02, 0.15]])


class TestBlockStep:
    """A block of n substeps is bit for bit n single substeps."""

    @pytest.mark.parametrize("case", ["coupled_diffusion", "straddling_impulse",
                                      "custom_wind"])
    def test_block_equals_single_substeps(self, case):
        params, wind, impulses = table_params(), wire.WindModel(), ()
        if case == "coupled_diffusion":
            params = table_params(wind_diffusion=COUPLED_DIFFUSION)
        elif case == "straddling_impulse":
            # force held for substeps 5..14: across the boundary of two blocks
            impulses = [wire.ImpulseEvent(point_number=4, force=[30.0, -10.0, 470.0],
                                          apply_time=0.005, duration_s=0.01),
                        wire.ImpulseEvent(point_number=12, force=[0.0, 0.0, -200.0],
                                          apply_time=0.009)]
        else:
            # periods short enough that the mean wind turns within the blocks
            wind = wire.WindModel(amplitude=3.0, periods=(0.013, 0.021, 0.034))
        dt = 1e-3
        noise = np.random.default_rng(5).standard_normal((20, 19, 3))
        start = wire.solve_equilibrium(params)

        blocks = start
        for block in (noise[:10], noise[10:]):
            blocks = wire.step(blocks, params, wind, impulses, dt, block)
        assert_same_state(blocks, single_substeps(start, params, wind, impulses, dt, noise))
        assert blocks.time == pytest.approx(0.02)

    def test_divergence_mid_block_names_the_same_point_and_time(self):
        # dt = 1 ms is past the stability bound for k0 = 1e6; a large
        # displacement of P6 overflows after tens of substeps
        params = quiet_params(spring_k=1e6)
        dt, n = 1e-3, 200
        start = wire.solve_equilibrium(params)
        start.positions[5, 2] += 1e250
        noise = np.zeros((n, 19, 3))

        with pytest.raises(wire.IntegrationDivergedError) as single:
            single_substeps(start, params, STILL, (), dt, noise)
        with pytest.raises(wire.IntegrationDivergedError) as block:
            wire.step(start, params, STILL, (), dt, noise)
        assert 0 < single.value.time < (n - 1) * dt
        assert block.value.point_number == single.value.point_number
        assert block.value.time == single.value.time

    @pytest.mark.parametrize("case", ["one_substep", "block", "divergence_replay"])
    def test_input_state_is_left_unchanged(self, case):
        # the env keeps the returned states as its sensor history
        params, dt = table_params(), 1e-3
        impulses = [wire.ImpulseEvent(point_number=4, force=[0.0, 0.0, 470.0],
                                      apply_time=0.002)]
        noise = np.random.default_rng(8).standard_normal((10, 19, 3))
        start = wire.solve_equilibrium(params)
        start.velocities[1:-1] += 0.01
        if case == "one_substep":
            noise = noise[0]
        elif case == "divergence_replay":
            params = quiet_params(spring_k=1e6)  # as in the divergence test above
            start = wire.solve_equilibrium(params)
            start.positions[5, 2] += 1e250
            noise = np.zeros((200, 19, 3))
        before = start.copy()
        try:
            wire.step(start, params, wire.WindModel(), impulses, dt, noise)
        except wire.IntegrationDivergedError:
            assert case == "divergence_replay"
        else:
            assert case != "divergence_replay"
        assert_same_state(start, before)

    @pytest.mark.parametrize("shape", [(19, 2), (18, 3), (4, 18, 3), (2, 2, 19, 3)])
    def test_bad_noise_shape_rejected(self, shape):
        params = table_params()
        with pytest.raises(ValueError, match="noise must have shape"):
            wire.step(wire.solve_equilibrium(params), params, STILL, (), 1e-3,
                      np.zeros(shape))


class TestWindModel:
    def test_zero_at_t0(self):
        np.testing.assert_allclose(wire.WindModel().velocity(0.0), 0.0,
                                   atol=1e-15)

    def test_values_at_t1_and_t2(self):
        v1 = wire.WindModel().velocity(1.0)
        np.testing.assert_allclose(v1, [5.0, 4.3301, 3.5355], atol=1e-4)
        np.testing.assert_allclose(
            v1, [5 * math.sin(math.pi / 2), 5 * math.sin(math.pi / 3),
                 5 * math.sin(math.pi / 4)], rtol=1e-12)
        v2 = wire.WindModel().velocity(2.0)
        assert abs(v2[0]) < 1e-12
        np.testing.assert_allclose(v2[1:], [4.3301, 5.0], atol=1e-4)

    @pytest.mark.parametrize("periods", [(0.0, 6.0, 8.0), (4.0, -6.0, 8.0),
                                         (4.0, 6.0, math.nan)])
    def test_periods_must_be_positive(self, periods):
        # a zero period divided by zero at the first wind sample, mid-run
        with pytest.raises(ValueError, match="wind periods must be positive"):
            wire.WindModel(periods=periods)


class TestImpulse:
    def test_single_substep_window(self):
        ev = wire.ImpulseEvent(point_number=4, force=[0, 0, 470], apply_time=1.0)
        dt = 1e-3
        acts = ev.acts(dt)
        assert acts(1.0)
        assert not acts(1.0 - dt)
        assert not acts(1.0 + dt)

    def test_single_substep_velocity_kick(self):
        params = quiet_params(gravity=np.zeros(3))
        dt = 1e-3
        ev = wire.ImpulseEvent(point_number=4, force=[0, 0, 470.0], apply_time=0.0)
        eq = wire.solve_equilibrium(params)
        out = wire.step(eq, params, STILL, [ev], dt, np.zeros((19, 3)))
        kick = 470.0 * dt * params.n_points / params.mass_total
        assert out.velocities[3, 2] == pytest.approx(kick, rel=1e-12)
        # other points see only the equilibrium solve's rounding residual
        assert np.abs(out.velocities[[1, 2] + list(range(4, 20))]).max() < 1e-12

    def test_duration_spans_substeps(self):
        ev = wire.ImpulseEvent(point_number=4, force=[0, 0, 470], apply_time=1.0,
                               duration_s=0.01)
        dt = 1e-3
        active = [t for t in np.arange(0.99, 1.02, dt) if ev.acts(dt)(t)]
        assert len(active) == 10
        assert active[0] == pytest.approx(1.0)

    def test_endpoint_impulse_rejected(self):
        params = table_params()
        ev = wire.ImpulseEvent(point_number=1, force=[0, 0, 1.0], apply_time=0.0)
        with pytest.raises(ValueError):
            ev.validate_for(params)


class TestTrajectory:
    def test_seed_determinism_bit_identical(self):
        params = table_params()
        kw = dict(params=params, wind=wire.WindModel(), impulses=[], duration=0.2,
                  dt=1e-3, seed=42)
        a = wire.simulate_trajectory(**kw)
        b = wire.simulate_trajectory(**kw)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.positions, sb.positions)
            assert np.array_equal(sa.velocities, sb.velocities)

    def test_equilibrium_persists_without_forcing(self):
        params = quiet_params()
        eq = wire.solve_equilibrium(params)
        samples = wire.simulate_trajectory(params, STILL, [], 3.0, 1e-3, 0,
                                           sample_every=0.01)
        drift = max(np.abs(s.positions - eq.positions).max() for s in samples)
        assert drift < 1e-9

    def test_impulse_wave_propagates_toward_higher_indices(self):
        # peak |z| displacement time is non-decreasing from P4 to P10
        params = quiet_params()
        eq = wire.solve_equilibrium(params)
        ev = wire.ImpulseEvent(point_number=4, force=[0, 0, 470.0], apply_time=0.0)
        samples = wire.simulate_trajectory(params, STILL, [ev], 0.45, 1e-3, 0)
        dz = np.array([np.abs(s.positions[:, 2] - eq.positions[:, 2]) for s in samples])
        peak_steps = [int(np.argmax(dz[:, p - 1])) for p in range(4, 11)]
        assert all(b >= a for a, b in zip(peak_steps, peak_steps[1:]))

    def test_simultaneous_impulses_add_their_forces(self):
        params = quiet_params()
        force = np.array([20.0, -40.0, 470.0])

        def run(impulses):
            return wire.simulate_trajectory(params, STILL, impulses, 0.05, 1e-3, 0,
                                            sample_every=0.01)

        def hit(f, **kw):
            return wire.ImpulseEvent(point_number=6, force=f, apply_time=0.003, **kw)

        for kw in ({}, {"duration_s": 0.01}):
            one = run([hit(force, **kw)])
            two = run([hit(force / 2, **kw), hit(force / 2, **kw)])
            for a, b in zip(one, two):
                np.testing.assert_allclose(b.positions, a.positions, rtol=1e-12)
                np.testing.assert_allclose(b.velocities, a.velocities, rtol=1e-12)

    def test_samples_every_stride_and_drops_a_partial_last_one(self):
        params = table_params()
        samples = wire.simulate_trajectory(params, wire.WindModel(), [], 0.025, 1e-3, 3,
                                           sample_every=0.01)
        assert [round(s.time, 9) for s in samples] == [0.0, 0.01, 0.02]
        every = wire.simulate_trajectory(params, wire.WindModel(), [], 0.025, 1e-3, 3)
        assert len(every) == 26
        assert_same_state(samples[2], every[20])

    def test_stream_starts_at_equilibrium_and_draws_one_block_per_stride(self):
        params = table_params()
        stream = wire.trajectory(params, wire.WindModel(), [], 1e-3, 8, 4)
        first, second = next(stream), next(stream)
        assert_same_state(first, wire.solve_equilibrium(params))
        noise = np.random.default_rng(8).standard_normal((4, 19, 3))
        assert_same_state(second, wire.step(first, params, wire.WindModel(), [], 1e-3,
                                            noise))
        # endless: it runs on past any duration a caller has in mind
        assert all(next(stream).time > 0 for _ in range(50))

    def test_stream_rejects_an_endpoint_impulse(self):
        ev = wire.ImpulseEvent(point_number=21, force=[0, 0, 1.0], apply_time=0.0)
        with pytest.raises(ValueError, match="interior"):
            next(wire.trajectory(table_params(), STILL, [ev], 1e-3, 0, 10))

    def test_impulse_window_is_computed_once_per_stream(self, monkeypatch):
        calls = []
        acts = wire.ImpulseEvent.acts
        monkeypatch.setattr(wire.ImpulseEvent, "acts",
                            lambda ev, dt: calls.append(dt) or acts(ev, dt))
        ev = wire.ImpulseEvent(point_number=4, force=[0, 0, 470.0], apply_time=0.0,
                               duration_s=0.01)
        stream = wire.trajectory(quiet_params(), STILL, [[ev], [ev]], 1e-3, [0, 1], 10)
        for _ in range(5):
            next(stream)
        assert calls == [1e-3, 1e-3]

    def test_csv_export_columns(self, tmp_path):
        params = table_params()
        samples = wire.simulate_trajectory(params, STILL, [], 0.02, 1e-3, 0,
                                           sample_every=0.01)
        path = tmp_path / "traj.csv"
        wire.write_trajectory_csv(path, samples)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_s,point_index,x_m,y_m,z_m,vx_mps,vy_mps,vz_mps"
        assert len(lines) == 1 + len(samples) * 21

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            table_params(n_points=2)
        with pytest.raises(ValueError):
            table_params(spring_k=0.0)
        with pytest.raises(ValueError):
            table_params(wind_diffusion=np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1.0]]))


def episode_states(stream, e, n):
    """Episode e's first n states of a batched stream, as single-chain states."""
    return [wire.WireState(s.time, s.positions[:, e], s.velocities[:, e])
            for s in itertools.islice(stream, n)]


class TestBatchedStream:
    """E episodes advanced as one (N, E, 3) stream."""

    SEEDS = [11, 12, 13]
    # a 10 ms force from 15.5 ms, across the 20 ms stride boundary; a
    # one-substep force at 30.5 ms on another point; no impulse
    IMPULSES = [[wire.ImpulseEvent(point_number=4, force=[30.0, -10.0, 470.0],
                                   apply_time=0.0155, duration_s=0.01)],
                [wire.ImpulseEvent(point_number=8, force=[0.0, 0.0, -300.0],
                                   apply_time=0.0305)],
                []]

    @pytest.mark.parametrize("case", ["wind_only", "impulses", "coupled_diffusion"])
    def test_each_episode_is_its_own_stream_bit_for_bit(self, case):
        params, impulses = table_params(), [[], [], []]
        if case != "wind_only":
            impulses = self.IMPULSES
        if case == "coupled_diffusion":
            params = table_params(wind_diffusion=COUPLED_DIFFUSION)
        n = 8
        batch = list(itertools.islice(
            wire.trajectory(params, wire.WindModel(), impulses, 1e-3, self.SEEDS, 10), n))
        assert batch[0].positions.shape == (21, 3, 3)
        for e, seed in enumerate(self.SEEDS):
            alone = list(itertools.islice(
                wire.trajectory(params, wire.WindModel(), impulses[e], 1e-3, seed, 10), n))
            of_one = episode_states(
                wire.trajectory(params, wire.WindModel(), [impulses[e]], 1e-3, [seed], 10), 0, n)
            for k, (b, a, o) in enumerate(zip(batch, alone, of_one)):
                got = wire.WireState(b.time, b.positions[:, e], b.velocities[:, e])
                assert_same_state(got, a)
                assert_same_state(o, a)
            if impulses[e]:  # the impulse moved this episode off its quiet twin
                quiet = list(itertools.islice(
                    wire.trajectory(params, wire.WindModel(), [], 1e-3, seed, 10), n))
                assert not np.array_equal(alone[-1].velocities, quiet[-1].velocities)

    def test_a_diverging_episode_leaves_the_others_untouched(self):
        # a force whose (N/m)*F overflows makes episode 1 non-finite in the
        # substep from 30 ms that holds 30.5 ms
        huge = wire.ImpulseEvent(point_number=6, force=[0.0, 0.0, 1e308], apply_time=0.0305)
        impulses = [self.IMPULSES[0], [huge], []]
        params, wind, n = table_params(), wire.WindModel(), 8
        with pytest.raises(wire.IntegrationDivergedError) as single:
            list(itertools.islice(wire.trajectory(params, wind, [huge], 1e-3, 12, 10), n))
        assert single.value.point_number == 6 and single.value.time == pytest.approx(0.030)

        batch = list(itertools.islice(
            wire.trajectory(params, wind, impulses, 1e-3, self.SEEDS, 10), n))
        assert len(batch) == n
        for k, state in enumerate(batch):
            err = state.diverged.get(1)
            if k < 4:  # the divergence happens in the fourth stride, 30..40 ms
                assert err is None and np.isfinite(state.positions[:, 1]).all()
            else:
                assert (err.point_number, err.time) == (6, single.value.time)
                assert str(err) == str(single.value)
                assert np.isnan(state.positions[:, 1]).all()
                assert np.isnan(state.velocities[:, 1]).all()
        for e in (0, 2):
            alone = list(itertools.islice(
                wire.trajectory(params, wind, impulses[e], 1e-3, self.SEEDS[e], 10), n))
            for b, a in zip(batch, alone):
                assert_same_state(wire.WireState(b.time, b.positions[:, e],
                                                 b.velocities[:, e]), a)

    def test_a_batch_whose_every_episode_diverged_ends(self):
        huge = wire.ImpulseEvent(point_number=6, force=[0.0, 0.0, 1e308], apply_time=0.0)
        states = list(wire.trajectory(table_params(), STILL, [[huge]], 1e-3, [0], 10))
        assert len(states) == 2 and 0 in states[1].diverged

    def test_batched_step_names_the_episode(self):
        params = quiet_params(spring_k=1e6)  # as in the divergence test above
        eq = wire.solve_equilibrium(params)
        start = wire.WireState(0.0, np.repeat(eq.positions[:, None], 3, axis=1),
                               np.zeros((21, 3, 3)))
        start.positions[5, 2, 2] += 1e250
        with pytest.raises(wire.IntegrationDivergedError) as batch:
            wire.step(start, params, STILL, [[], [], []], 1e-3, np.zeros((200, 19, 3, 3)))
        chain = wire.WireState(0.0, start.positions[:, 2], start.velocities[:, 2])
        with pytest.raises(wire.IntegrationDivergedError) as alone:
            wire.step(chain, params, STILL, [], 1e-3, np.zeros((200, 19, 3)))
        assert batch.value.episode == 2 and alone.value.episode is None
        assert (batch.value.point_number, batch.value.time) == (alone.value.point_number,
                                                                alone.value.time)
        assert f"P{alone.value.point_number} of episode 2 " in str(batch.value)
