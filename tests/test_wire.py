"""Wire physics: equilibrium and integrator oracles, invariants."""

import ast
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wirebeam import wire
from wirebeam.config import default_config


def table_params(**overrides):
    base = dict(n_points=21, mass_total=10.0, spring_k=1000.0, drag_c=1.0,
                gravity=np.array([0.0, 0.0, -9.8]),
                wind_diffusion=0.1 * np.eye(3), endpoint_separation=10.0)
    base.update(overrides)
    return wire.WireParams(**base)


def quiet_params(**overrides):
    overrides.setdefault("wind_diffusion", np.zeros((3, 3)))
    return table_params(**overrides)


WIND = default_config().wind  # the table's: 5 m/s, periods 4, 6 and 8 s
STILL = replace(WIND, amplitude=0.0)


def equilibrium(params):
    """The equilibrium as a batch of one, positions (N, 1, 3)."""
    eq = wire.solve_equilibrium(params)
    return wire.WireState(eq.time, eq.positions[:, None].copy(), eq.velocities[:, None].copy())


def substeps(state, forcing, kicks):
    """Advance `state` in place by one `step` call over the rows of kicks,
    with the forcing's mean wind from the state's time."""
    wire.step(state, forcing, kicks, forcing.mean_wind(state.time, len(kicks)))


def advance(state, params, wind, impulses, dt, noise):
    """A copy of the batch of one `state`, with the events `impulses`,
    after one `step` call over the substeps of noise (n, N-2, 3), whose
    kicks come from one product."""
    out = state.copy()
    substeps(out, wire.Forcing(params, wind, [impulses], dt),
             wire.wiener_kicks(params, dt, noise[:, :, None]))
    return out


def interior_acceleration(state, params):
    """The acceleration `step` gives the interior points of a state at rest:
    one substep of dt = 1 with no wind and no noise makes each velocity
    (acc - c*(0 - 0))*1 + 0, the acceleration itself."""
    assert not state.velocities.any()
    out = advance(state, params, STILL, (), 1.0, np.zeros((1, params.n_points - 2, 3)))
    return out.velocities[1:-1]


def no_forcing(params, wind=STILL, dt=1e-3):
    """The `Forcing` of a batch of one with no events."""
    return wire.Forcing(params, wind, [()], dt)


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
        acc = interior_acceleration(equilibrium(params), params)
        assert np.abs(acc).max() < 1e-9

    def test_midpoint_at_origin_endpoints_elevated(self):
        params = table_params()
        eq = wire.solve_equilibrium(params)
        np.testing.assert_allclose(eq.positions[10], 0.0, atol=1e-12)
        assert eq.positions[0, 2] > 0 and eq.positions[-1, 2] > 0


class TestStep:
    def test_equilibrium_is_a_fixed_point(self):
        params = quiet_params()
        eq = equilibrium(params)
        out = advance(eq, params, STILL, (), 1e-3, np.zeros((1, 19, 3)))
        np.testing.assert_allclose(out.positions, eq.positions, atol=1e-12)
        np.testing.assert_allclose(out.velocities, eq.velocities, atol=1e-12)

    def test_single_oscillator_update(self):
        # N=3: one free point displaced by delta in z, no gravity/wind/noise
        params = quiet_params(n_points=3, gravity=np.zeros(3))
        delta, dt = 0.01, 1e-3
        st = equilibrium(params)
        st.positions[1, 0, 2] = delta
        out = advance(st, params, STILL, (), dt, np.zeros((1, 1, 3))).episode(0)
        coeff = params.spring_accel_coeff
        v_expected = -2.0 * coeff * delta * dt
        z_expected = delta + v_expected * dt
        assert out.velocities[1, 2] == pytest.approx(v_expected, rel=1e-13)
        assert out.positions[1, 2] == pytest.approx(z_expected, rel=1e-13)

    def test_drag_decay_recurrence(self):
        # negligible spring: velocity follows v_k = v_0 (1 - c0 dt)^k
        params = quiet_params(n_points=5, spring_k=1e-12, gravity=np.zeros(3))
        dt, k = 1e-3, 200
        st = equilibrium(params)
        v0 = np.array([0.3, -0.2, 0.1])
        st.velocities[1:-1] = v0
        forcing = no_forcing(params, dt=dt)
        for _ in range(k):
            substeps(st, forcing, np.zeros((1, 3, 1, 3)))
        expected = v0 * (1.0 - params.drag_c * dt) ** k
        np.testing.assert_allclose(st.episode(0).velocities[1:-1], np.tile(expected, (3, 1)),
                                   rtol=1e-9)

    def test_endpoints_never_move(self):
        params = table_params()
        rng = np.random.default_rng(3)
        st = equilibrium(params)
        p0, pn = st.positions[0].copy(), st.positions[-1].copy()
        forcing = no_forcing(params, WIND)
        for _ in range(100):
            substeps(st, forcing,
                     wire.wiener_kicks(params, 1e-3, rng.standard_normal((1, 19, 1, 3))))
        assert np.array_equal(st.positions[0], p0)
        assert np.array_equal(st.positions[-1], pn)
        assert np.array_equal(st.velocities[0], np.zeros((1, 3)))

    def test_spring_term_linearity(self):
        params = quiet_params()
        eq = equilibrium(params)
        rng = np.random.default_rng(8)
        u = rng.normal(scale=0.05, size=(19, 1, 3))

        def tensile(scale):
            st = eq.copy()
            st.positions[1:-1] += scale * u
            return interior_acceleration(st, params) - params.gravity

        base = tensile(0.0)
        one = tensile(1.0) - base
        two = tensile(2.0) - base
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12, atol=1e-12)

    def test_a_nonfinite_value_stays_nonfinite(self):
        # what lets `trajectory` check once per stride: `step` raises
        # nothing, and no substep turns an inf or nan finite again
        params = table_params()
        st = equilibrium(params)
        st.positions[5, 0, 2] = np.inf
        noise = np.random.default_rng(3).standard_normal((50, 1, 19, 1, 3))
        forcing = no_forcing(params, WIND)
        with np.errstate(invalid="ignore", over="ignore"):  # as `trajectory` does
            for block in noise:
                before = st.copy()
                substeps(st, forcing, wire.wiener_kicks(params, 1e-3, block))
                for a, b in ((before.positions, st.positions),
                             (before.velocities, st.velocities)):
                    assert not (~np.isfinite(a) & np.isfinite(b)).any()
        assert not np.isfinite(st.positions[1:-1, 0, 2]).any()  # it spread along z

    def test_drag_dissipates_energy(self):
        # zero diffusion, zero mean wind, perturbed equilibrium: windowed mean
        # kinetic energy is non-increasing once transients pass
        params = quiet_params()
        rng = np.random.default_rng(11)
        st = equilibrium(params)
        st.positions[1:-1, 0, 2] += rng.normal(scale=0.02, size=19)
        dt, n_steps = 1e-3, 3000
        point_mass = params.mass_total / params.n_points
        ke = []
        forcing, still = no_forcing(params, dt=dt), np.zeros((1, 19, 1, 3))
        for _ in range(n_steps):
            substeps(st, forcing, still)
            ke.append(0.5 * point_mass * float((st.velocities ** 2).sum()))
        window = 500  # > half the fundamental period, smooths the KE/PE exchange
        means = [np.mean(ke[i:i + window]) for i in range(window, n_steps - window, window)]
        for a, b in zip(means, means[1:]):
            assert b <= a * (1.0 + 1e-9)


def single_substeps(state, params, wind, impulses, dt, noise):
    """Reference: one wire.step call per substep, each with its own kick
    product."""
    for k in range(len(noise)):
        state = advance(state, params, wind, impulses, dt, noise[k:k + 1])
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
        params, wind, impulses = table_params(), WIND, ()
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
        start = equilibrium(params)

        blocks = start
        for block in (noise[:10], noise[10:]):
            blocks = advance(blocks, params, wind, impulses, dt, block)
        assert_same_state(blocks, single_substeps(start, params, wind, impulses, dt, noise))
        assert blocks.time == pytest.approx(0.02)

    @pytest.mark.parametrize("shape", [(19, 1, 3), (1, 19, 3), (4, 18, 1, 3),
                                       (1, 19, 2, 3)])
    def test_bad_kick_shape_rejected(self, shape):
        # (19, 1, 3) is one substep without its leading axis, (1, 19, 3) one
        # substep of a chain without its episode axis
        params = table_params()
        with pytest.raises(ValueError, match=r"kicks must have shape \(n, 19, 1, 3\)"):
            wire.step(equilibrium(params), no_forcing(params), np.zeros(shape),
                      np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 19, 1, 3), (1, 3), (19, 1, 3)])
    def test_a_wind_block_unlike_the_kicks_is_refused(self, shape):
        params = table_params()
        with pytest.raises(ValueError, match=r"and winds the same, got \(1, 19, 1, 3\) and"):
            wire.step(equilibrium(params), no_forcing(params),
                      np.zeros((1, 19, 1, 3)), np.zeros(shape))


class TestKicks:
    """The premise of `trajectory`'s one kick product per stride: a row's
    result does not depend on its place in the block."""

    @pytest.mark.parametrize("diffusion", ["default", "coupled"])
    @pytest.mark.parametrize("stride", [1, 10, 200])
    @pytest.mark.parametrize("n_episodes", [1, 3, 7])
    def test_a_stride_equals_each_substep_and_each_episode(self, n_episodes, stride,
                                                           diffusion):
        params = default_config().wire
        if diffusion == "coupled":
            params = replace(params, wind_diffusion=COUPLED_DIFFUSION)
        dt = 1e-3
        noise = np.random.default_rng(stride + n_episodes).standard_normal(
            (n_episodes, stride, params.n_points - 2, 3))
        block = wire.wiener_kicks(params, dt, noise.transpose(1, 2, 0, 3))
        assert block.shape == (stride, params.n_points - 2, n_episodes, 3)
        for k in range(stride):
            assert np.array_equal(block[k], wire.wiener_kicks(
                params, dt, noise[:, k].transpose(1, 0, 2)))
        for e in range(n_episodes):
            alone = wire.wiener_kicks(params, dt, noise[e][:, :, None])
            assert np.array_equal(block[:, :, e:e + 1], alone)
            for k in range(stride):
                assert np.array_equal(block[k, :, e], wire.wiener_kicks(params, dt,
                                                                        noise[e, k]))
        # the Wiener increment sqrt(dt) * D @ xi, up to rounding order
        expected = math.sqrt(dt) * (params.wind_diffusion @ noise[0, 0, 0])
        np.testing.assert_allclose(block[0, 0, 0], expected, rtol=1e-14)


def textbook_stream(params, wind, impulses, dt, seed, stride, n):
    """Reference for the first n states of one chain's `trajectory`, with
    no `step`: one substep at a time, as the Euler-Maruyama update is
    written, with Python-float constants, the mean wind's sine expression,
    and gravity and wind as (3,) vectors broadcast in every operation."""
    coeff = params.spring_k * params.n_points / params.mass_total
    drag_c, gravity, amplitude = params.drag_c, params.gravity, wind.amplitude
    pushes = [(ev.point_number - 2, params.n_points / params.mass_total * ev.force,
               ev.acts(dt)) for ev in impulses]
    rng = np.random.default_rng(seed)
    eq = wire.solve_equilibrium(params)
    x, v, t = eq.positions.copy(), eq.velocities.copy(), 0.0
    states = [wire.WireState(t, x.copy(), v.copy())]
    while len(states) < n:
        for xi in rng.standard_normal((stride, params.n_points - 2, 3)):
            kick = (xi @ params.wind_diffusion.T) * math.sqrt(dt)
            mean_wind = np.array([amplitude * math.sin(2.0 * math.pi * t / p)
                                  for p in wind.periods])
            acc = coeff * (x[2:] + x[:-2] - 2.0 * x[1:-1]) + gravity
            for i, accel, acts in pushes:
                if acts(t):
                    acc[i] += accel
            v[1:-1] = v[1:-1] + (acc - drag_c * (v[1:-1] - mean_wind)) * dt + kick
            x[1:-1] = x[1:-1] + v[1:-1] * dt
            t += dt
        states.append(wire.WireState(t, x.copy(), v.copy()))
    return states


class TestTextbookSubstep:
    """The stream equals a textbook substep written without `step`, bit for
    bit: the kernel's per-stream constants and per-stride wind block are
    the same arithmetic as the update they replace."""

    # one force for one substep, one held for ten across the 40 ms stride
    # boundary, and two on one point at once
    CASES = [[wire.ImpulseEvent(point_number=4, force=[30.0, -10.0, 470.0],
                                apply_time=0.0155)],
             [wire.ImpulseEvent(point_number=8, force=[0.0, 20.0, -300.0],
                                apply_time=0.0355, duration_s=0.01)],
             [wire.ImpulseEvent(point_number=12, force=[0.0, 0.0, 250.0],
                                apply_time=0.0505),
              wire.ImpulseEvent(point_number=12, force=[15.0, 0.0, -90.0],
                                apply_time=0.0505, duration_s=0.003)]]
    SEEDS = [11, 12, 13]

    @pytest.mark.parametrize("diffusion", ["default", "coupled"])
    @pytest.mark.parametrize("stride", [1, 10, 200])
    @pytest.mark.parametrize("n_episodes", [1, 3])
    def test_stream_equals_the_textbook_substep(self, n_episodes, stride, diffusion,
                                                monkeypatch):
        params, dt, n = default_config().wire, 1e-3, 400 // stride + 1
        if diffusion == "coupled":
            params = replace(params, wind_diffusion=COUPLED_DIFFUSION)
        rows, real_step = [], wire.step

        def spy(state, forcing, kicks, winds):
            rows.append((state.time, winds[0].copy()))
            real_step(state, forcing, kicks, winds)
        monkeypatch.setattr(wire, "step", spy)
        # a batch of one carries every case's events
        impulses = [sum(self.CASES, [])] if n_episodes == 1 else self.CASES
        batch = list(itertools.islice(
            wire.trajectory(params, WIND, impulses, dt, self.SEEDS[:n_episodes], stride), n))
        got = [episode_states(batch, e, n) for e in range(n_episodes)]
        monkeypatch.undo()
        for events, seed, states in zip(impulses, self.SEEDS, got):
            want = textbook_stream(params, WIND, events, dt, seed, stride, n)
            assert len(states) == len(want) == n
            for a, b in zip(states, want):
                assert_same_state(a, b)
        # each substep's mean-wind row is the sine expression at its start
        assert len(rows) == 400
        for t, row in rows:
            sine = [WIND.amplitude * math.sin(2.0 * math.pi * t / p) for p in WIND.periods]
            assert np.array_equal(row, np.broadcast_to(sine, row.shape))

    def test_the_impulses_move_the_chain(self):
        # the cases above are not vacuous: each one's events change its chain
        params, dt = default_config().wire, 1e-3
        quiet = textbook_stream(params, WIND, [], dt, 11, 10, 8)
        for events in self.CASES:
            kicked = textbook_stream(params, WIND, events, dt, 11, 10, 8)
            assert np.array_equal(kicked[1].positions, quiet[1].positions) == (
                events[0].apply_time > 0.01)
            assert not np.array_equal(kicked[-1].velocities, quiet[-1].velocities)


class TestFluctuationDissipation:
    """In still mean wind the noise and the drag set the chain's velocity
    spread: the stationary velocity variance of every interior point, per
    axis, is D Dᵀ / (2 c0), whatever the springs and gravity, up to the
    integrator's own terms derived here.

    Per axis, with D = σ·I and y the displacement from equilibrium, the
    interior points decouple into the modes of the negative discrete
    Laplacian: shapes φ_k(i) = sqrt(2/(N−1))·sin(ikπ/(N−1)), orthonormal,
    and ω_k² = (k0·N/m)·4·sin²(kπ/(2(N−1))).  One substep of h moves
    mode k's (y, u) as

        u' = (1 − c0·h)·u − ω²·h·y + σ·sqrt(h)·ξ,    y' = y + h·u'.

    Stationarity of E[y'²] gives E[y·u'] = −h·V/2; of E[y'·u'] gives
    E[y·u] = h·V/2 and then ω²·E[y²] = V·(1 − c0·h/2); of E[u'²] then

        V_k = σ² / (2·c0) / (1 − c0·h/2 − (ω_k·h)²/4),

    the free point's semi-implicit factor with the springs' (ω·h)² term.
    A point's variance is Σ_k φ_k(i)²·V_k.  From rest, the moments after
    n substeps are X∞ − Aⁿ·X∞·(Aⁿ)ᵀ (A the mode's update, X∞ its
    stationary moments), so the expected window mean below carries the
    burn-in's leftover exactly.

    Each mode's squared velocity decorrelates over about 1/c0 (e^(−2·c0·τ)
    free, e^(−c0·τ)·cos² when ringing), so a window of T seconds holds
    about T·c0 effective samples per episode.  A point's velocity mixes
    modes that all relax that fast, so the same count bounds its
    estimator's standard error from above.  The mean over every point and
    axis is, by Parseval, the mean of 3·(N − 2) independent modes."""

    EPISODES, BURN_IN_S, WINDOW_S, STRIDE = 32, 3.0, 5.0, 10
    Z = 4.0  # 58 comparisons: a false alarm below 0.4 % with exact errors

    def mode_moments(self, params, h):
        """Each mode's update A (M, 2, 2) on (y, u) and its stationary
        moments X∞ (M, 2, 2), from the closed form above."""
        n, c = params.n_points, params.drag_c
        k = np.arange(1, n - 1)
        w2 = params.spring_accel_coeff * 4.0 * np.sin(k * np.pi / (2 * (n - 1))) ** 2
        sigma2 = params.wind_diffusion[0, 0] ** 2
        v = sigma2 / (2.0 * c) / (1.0 - c * h / 2.0 - w2 * h * h / 4.0)
        u_row = np.stack([-w2 * h, np.full_like(w2, 1.0 - c * h)], axis=-1)
        a = np.stack([np.array([1.0, 0.0]) + h * u_row, u_row], axis=1)
        x_inf = np.stack([np.stack([v * (1.0 - c * h / 2.0) / w2, h * v / 2.0], -1),
                          np.stack([h * v / 2.0, v], -1)], axis=1)
        return a, x_inf

    def test_the_closed_form_is_the_update_s_fixed_point(self):
        params, h = default_config().wire, 1e-3
        a, x_inf = self.mode_moments(params, h)
        b = np.array([h, 1.0]) * params.wind_diffusion[0, 0] * math.sqrt(h)
        again = a @ x_inf @ a.transpose(0, 2, 1) + np.outer(b, b)
        np.testing.assert_allclose(again, x_inf, rtol=1e-12, atol=0.0)

    def test_each_point_s_velocity_variance_is_d_dt_over_2c(self):
        params, h = default_config().wire, 1e-3
        assert np.array_equal(params.wind_diffusion, 0.1 * np.eye(3))
        assert params.drag_c == 1.0
        burn, window = (round(s / (h * self.STRIDE)) for s in (self.BURN_IN_S, self.WINDOW_S))
        stream = wire.trajectory(params, STILL, [()] * self.EPISODES, h,
                                 list(range(self.EPISODES)), self.STRIDE)
        kept = itertools.islice(stream, burn + 1, burn + window + 1)
        v = np.stack([s.velocities[1:-1] for s in kept])  # (window, N-2, E, 3)
        got = (v * v).mean(axis=(0, 2))                    # per point and axis

        a, x_inf = self.mode_moments(params, h)
        a_n = np.linalg.matrix_power(a, (burn + 1) * self.STRIDE)
        a_stride = np.linalg.matrix_power(a, self.STRIDE)
        left = np.zeros(len(a))  # each mode's mean unrelaxed velocity variance
        for _ in range(window):
            left += (a_n @ x_inf @ a_n.transpose(0, 2, 1))[:, 1, 1] / window
            a_n = a_stride @ a_n
        n = params.n_points
        i, k = np.meshgrid(np.arange(1, n - 1), np.arange(1, n - 1), indexing="ij")
        shapes2 = 2.0 / (n - 1) * np.sin(i * k * np.pi / (n - 1)) ** 2
        stationary = shapes2 @ x_inf[:, 1, 1]
        want = shapes2 @ (x_inf[:, 1, 1] - left)
        free = 0.1 ** 2 / (2.0 * params.drag_c) / (1.0 - params.drag_c * h / 2.0)
        assert np.all((stationary >= free) & (stationary < free * 1.003))
        assert np.all(np.abs(want / stationary - 1.0) < 0.02)  # the burn-in's leftover

        samples = self.EPISODES * self.WINDOW_S * params.drag_c
        se_point = want * math.sqrt(2.0 / samples)
        assert np.all(np.abs(got - want[:, None]) < self.Z * se_point[:, None])
        modes = x_inf[:, 1, 1] - left
        se_mean = math.sqrt(3 * np.sum(2.0 * modes ** 2 / samples)) / got.size
        assert abs(got.mean() - want.mean()) < self.Z * se_mean


class TestWindModel:
    def test_zero_at_t0(self):
        np.testing.assert_allclose(WIND.velocities(0.0, 1e-3, 1), 0.0,
                                   atol=1e-15)

    def test_values_at_t1_and_t2(self):
        v1, v2 = WIND.velocities(1.0, 1.0, 2)  # the rows of t = 1 s and t = 2 s
        np.testing.assert_allclose(v1, [5.0, 4.3301, 3.5355], atol=1e-4)
        np.testing.assert_allclose(
            v1, [5 * math.sin(math.pi / 2), 5 * math.sin(math.pi / 3),
                 5 * math.sin(math.pi / 4)], rtol=1e-12)
        assert abs(v2[0]) < 1e-12
        np.testing.assert_allclose(v2[1:], [4.3301, 5.0], atol=1e-4)

    @pytest.mark.parametrize("periods", [(0.0, 6.0, 8.0), (4.0, -6.0, 8.0),
                                         (4.0, 6.0, math.nan)])
    def test_periods_must_be_positive(self, periods):
        # a zero period divided by zero at the first wind sample, mid-run
        with pytest.raises(ValueError, match="wind periods must be positive"):
            replace(WIND, periods=periods)


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
        out = advance(equilibrium(params), params, STILL, [ev], dt,
                      np.zeros((1, 19, 3))).episode(0)
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
        kw = dict(params=params, wind=WIND, impulses=[], duration=0.2,
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
        samples = wire.simulate_trajectory(params, WIND, [], 0.025, 1e-3, 3,
                                           sample_every=0.01)
        assert [round(s.time, 9) for s in samples] == [0.0, 0.01, 0.02]
        every = wire.simulate_trajectory(params, WIND, [], 0.025, 1e-3, 3)
        assert len(every) == 26
        assert_same_state(samples[2], every[20])

    def test_stream_starts_at_equilibrium_and_draws_one_block_per_stride(self):
        params = table_params()
        stream = wire.trajectory(params, WIND, [[]], 1e-3, [8], 4)
        first, second = next(stream), next(stream)
        assert_same_state(first.episode(0), wire.solve_equilibrium(params))
        noise = np.random.default_rng(8).standard_normal((4, 19, 3))
        assert_same_state(second, advance(first, params, WIND, [], 1e-3, noise))
        # endless: it runs on past any duration a caller has in mind
        assert all(next(stream).time > 0 for _ in range(50))

    @pytest.mark.parametrize("stride, dt, n_impulses, message", [
        (0, 1e-3, 3, "stride must be at least 1, got 0"),
        (-3, 1e-3, 3, "stride must be at least 1, got -3"),
        (10, 0.0, 3, "dt must be positive, got 0.0"),
        (10, -1e-3, 3, "dt must be positive, got -0.001"),
        (10, 1e-3, 2, "one sequence of events per seed, got 2 for 3 seeds")],
        ids=["stride_0", "stride_negative", "dt_0", "dt_negative", "impulses_2_for_3_seeds"])
    def test_bad_stride_or_dt_refused_before_the_first_state(self, stride, dt, n_impulses,
                                                             message):
        # a zero stride yielded the equilibrium forever at time 0, a bad dt
        # was refused only after the equilibrium had been yielded, and too
        # few impulse sequences failed at the second state on a kick shape
        stream = wire.trajectory(table_params(), WIND, [[]] * n_impulses, dt, [0, 1, 2],
                                 stride)
        with pytest.raises(ValueError, match=message):
            next(stream)

    @pytest.mark.parametrize("stride", [1, 10], ids=["one_substep", "block"])
    def test_yielded_states_of_a_finite_batch_are_left_unchanged(self, stride):
        # the env keeps every yielded state as its sensor history, while
        # `step` advances the stream's own copy in place
        impulses = [[wire.ImpulseEvent(point_number=4, force=[0.0, 0.0, 470.0],
                                       apply_time=0.002)], []]
        stream = wire.trajectory(table_params(), WIND, impulses, 1e-3, [8, 9], stride)
        kept = [(state, state.copy()) for state in itertools.islice(stream, 12)]
        assert not kept[-1][0].diverged
        for state, at_yield in kept:
            assert_same_state(state, at_yield)

    def test_stream_rejects_an_endpoint_impulse(self):
        ev = wire.ImpulseEvent(point_number=21, force=[0, 0, 1.0], apply_time=0.0)
        with pytest.raises(ValueError, match="interior"):
            next(wire.trajectory(table_params(), STILL, [[ev]], 1e-3, [0], 10))

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
    """Episode e's first n states of a stream, read through `episode`."""
    return [s.episode(e) for s in itertools.islice(stream, n)]


def one_chain(params, wind, events, seed, n):
    """The first n states of the batch of one of `seed` and `events`, at a
    stride of ten 1 ms substeps."""
    return episode_states(wire.trajectory(params, wind, [events], 1e-3, [seed], 10), 0, n)


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
            wire.trajectory(params, WIND, impulses, 1e-3, self.SEEDS, 10), n))
        assert batch[0].positions.shape == (21, 3, 3)
        for e, seed in enumerate(self.SEEDS):
            alone = one_chain(params, WIND, impulses[e], seed, n)
            for got, a in zip(episode_states(batch, e, n), alone):
                assert_same_state(got, a)
            if impulses[e]:  # the impulse moved this episode off its quiet twin
                quiet = one_chain(params, WIND, [], seed, n)
                assert not np.array_equal(alone[-1].velocities, quiet[-1].velocities)

    def test_a_diverging_episode_leaves_the_others_untouched(self):
        # a force whose (N/m)*F overflows makes episode 1 non-finite in the
        # substep from 30 ms that holds 30.5 ms
        huge = wire.ImpulseEvent(point_number=6, force=[0.0, 0.0, 1e308], apply_time=0.0305)
        impulses = [self.IMPULSES[0], [huge], []]
        params, wind, n = table_params(), WIND, 8
        with pytest.raises(wire.IntegrationDivergedError) as single:
            one_chain(params, wind, [huge], 12, n)
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
            alone = one_chain(params, wind, impulses[e], self.SEEDS[e], n)
            for got, a in zip(episode_states(batch, e, n), alone):
                assert_same_state(got, a)

    def test_a_batch_whose_every_episode_diverged_ends(self):
        huge = wire.ImpulseEvent(point_number=6, force=[0.0, 0.0, 1e308], apply_time=0.0)
        states = list(wire.trajectory(table_params(), STILL, [[huge]], 1e-3, [0], 10))
        assert len(states) == 2 and 0 in states[1].diverged


def huge(point, apply_time):
    """A one-substep force whose (N/m)*F overflows: the point's velocity
    and position turn inf in the substep that holds apply_time."""
    return wire.ImpulseEvent(point_number=point, force=[0.0, 0.0, 1e308],
                             apply_time=apply_time)


def first_divergence(params, wind, impulses, dt, seed, n):
    """Reference: (point, substep start time, substep index) of the first
    non-finite interior point of the chain that `trajectory` streams for
    `seed`, from one `step` call per substep checked after each."""
    noise = np.random.default_rng(seed).standard_normal((n, params.n_points - 2, 3))
    state = equilibrium(params)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n):
            t = state.time
            state = advance(state, params, wind, impulses, dt, noise[k:k + 1])
            bad = ~(np.isfinite(state.positions[1:-1, 0])
                    & np.isfinite(state.velocities[1:-1, 0])).all(axis=1)
            if bad.any():
                return int(np.argmax(bad)) + 2, t, k
    raise AssertionError(f"finite for {n} substeps")


def diverge_alone(params, wind, impulses, dt, seed, stride):
    """(states read, error) of a batch of one's stream, read through
    `episode` until it raises."""
    states = []
    with pytest.raises(wire.IntegrationDivergedError) as err:
        for state in wire.trajectory(params, wind, [impulses], dt, [seed], stride):
            states.append(state.episode(0))
    return states, err.value


class TestDivergence:
    """`trajectory` finds a divergence once per stride and names the same
    point and substep as one `step` call per substep checked after each;
    `step` itself only integrates."""

    @pytest.mark.parametrize("stride", [1, 10, 200])
    def test_every_stride_names_the_same_point_and_time(self, stride):
        # dt = 1 ms is past the stability bound for k0 = 1e6: a large kick
        # at P6 in substep 12 grows until P3 overflows in substep 87
        params = quiet_params(spring_k=1e6)
        impulses = [wire.ImpulseEvent(point_number=6, force=[0.0, 0.0, 1e250],
                                      apply_time=0.0125)]
        point, t, k = first_divergence(params, STILL, impulses, 1e-3, 0, 200)
        assert (point, k) == (3, 87)
        states, err = diverge_alone(params, STILL, impulses, 1e-3, 0, stride)
        assert len(states) == k // stride + 1  # raised in place of the next state
        assert (err.point_number, err.time) == (point, t)
        assert str(err) == ("integration diverged at P3 (t = 0.087000 s); reduce the "
                            "substep or check the stiffness/mass ratio")
        # the export path raises the same error where its samples stop
        with pytest.raises(wire.IntegrationDivergedError) as sampled:
            wire.simulate_trajectory(params, STILL, impulses, 0.2, 1e-3, 0,
                                     sample_every=stride * 1e-3)
        assert (sampled.value.point_number, sampled.value.time, str(sampled.value)) == (
            point, t, str(err))

    @pytest.mark.parametrize("apply_time, k", [(0.0305, 30), (0.0395, 39)],
                             ids=["first_substep", "last_substep"])
    def test_first_and_last_substep_of_a_stride(self, apply_time, k):
        params = table_params()
        impulses = [huge(6, apply_time)]
        point, t, first = first_divergence(params, WIND, impulses, 1e-3, 12, 40)
        assert (point, first) == (6, k)
        states, err = diverge_alone(params, WIND, impulses, 1e-3, 12, 10)
        assert len(states) == 4 and (err.point_number, err.time) == (6, t)
        # the batch of one: the column turns NaN in the same state, and ends
        batch = list(wire.trajectory(params, WIND, [impulses], 1e-3, [12], 10))
        assert len(batch) == 5 and not batch[3].diverged
        assert str(batch[4].diverged[0]) == str(err)
        assert np.isnan(batch[4].positions).all() and np.isnan(batch[4].velocities).all()

    def test_two_episodes_diverging_in_one_stride(self):
        # episodes 0 and 1 diverge in the fourth stride (30..40 ms), at P9 in
        # substep 31 and at P4 in substep 37; episode 2 carries an impulse
        params, seeds, n = table_params(), [11, 12, 13], 8
        impulses = [[huge(9, 0.0315)], [huge(4, 0.0375)], TestBatchedStream.IMPULSES[0]]
        batch = list(itertools.islice(
            wire.trajectory(params, WIND, impulses, 1e-3, seeds, 10), n))
        for e, (point, when) in enumerate([(9, 0.031), (4, 0.037)]):
            _, alone = diverge_alone(params, WIND, impulses[e], 1e-3, seeds[e], 10)
            assert (alone.point_number, alone.time) == (point, pytest.approx(when))
            for k, state in enumerate(batch):
                err = state.diverged.get(e)
                if k < 4:
                    assert err is None and np.isfinite(state.positions[:, e]).all()
                else:
                    assert (err.point_number, err.time, str(err)) == (
                        alone.point_number, alone.time, str(alone))
                    assert np.isnan(state.positions[:, e]).all()
                    assert np.isnan(state.velocities[:, e]).all()
        alone = one_chain(params, WIND, impulses[2], seeds[2], n)
        for got, a in zip(episode_states(batch, 2, n), alone):
            assert_same_state(got, a)

    def test_states_already_yielded_are_left_unchanged(self):
        # the env keeps every state it reads; the replay and the NaN columns
        # of a divergence must not reach back into them
        stream = wire.trajectory(table_params(), WIND, [[], [huge(6, 0.0305)]], 1e-3,
                                 [11, 12], 10)
        kept = [(state, state.copy()) for state in itertools.islice(stream, 7)]
        assert 1 in kept[-1][0].diverged
        for state, at_yield in kept:
            assert state.time == at_yield.time and state.diverged == at_yield.diverged
            assert np.array_equal(state.positions, at_yield.positions, equal_nan=True)
            assert np.array_equal(state.velocities, at_yield.velocities, equal_nan=True)


def test_only_trajectory_constructs_the_divergence_error():
    # one divergence path: `step` only integrates, and the env re-raises
    # the errors `trajectory` stores; a second check would drift from it
    allowed = {"wire.trajectory", "wire._divergence"}
    found = set()
    for source in sorted(Path(wire.__file__).parent.glob("*.py")):
        for top in ast.parse(source.read_text()).body:
            for node in ast.walk(top):
                made = (node.func if isinstance(node, ast.Call) else
                        node.exc if isinstance(node, ast.Raise) else None)
                if made is not None and ast.unparse(made).endswith("IntegrationDivergedError"):
                    found.add(f"{source.stem}.{getattr(top, 'name', '<module>')}")
    assert "wire._divergence" in found
    assert sorted(found - allowed) == []
