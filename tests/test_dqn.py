"""DQN numerics: forward/backward, Adam, exploration, replay, training."""

import ast
import math
import re
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from wirebeam import dqn
from wirebeam.dqn import (MlpParams, ReplayBuffer, TransitionBatch, forward, huber,
                          init_adam, init_mlp, select_action)
from wirebeam.channel import BeamOrientation
from wirebeam.config import default_config
from wirebeam.env import StepOutcome

TRAIN = default_config().train


@dataclass(frozen=True)
class Transition:
    """One replay record: the per-sample reference for the batched loss."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool

    def __post_init__(self):
        if not -1.0 - 1e-9 <= self.reward <= 1.0 + 1e-9:
            raise ValueError(f"reward {self.reward} outside the clipped range [-1, 1]")


def td_target(tr: Transition, target_params: MlpParams, gamma: float) -> float:
    """r + gamma * max_a' Q_target(s', a'); the bootstrap drops when terminal."""
    if tr.terminal:
        return float(tr.reward)
    return float(tr.reward + gamma * forward(target_params, tr.next_state).max())


def same_params(a: MlpParams, b: MlpParams) -> bool:
    """Exact equality of architecture and every parameter."""
    return a.dims == b.dims and np.array_equal(a.flat, b.flat)


def grad(params, batch, target, gamma) -> np.ndarray:
    """The flat gradient vector of the mean Huber TD loss."""
    grads = MlpParams(params.dims)
    dqn._loss_and_grad(params, batch, target, gamma, grads)
    return grads.flat


def adam_update(params, state, grad, lr=1e-4):
    cfg = replace(TRAIN, learning_rate=lr, total_steps=1)
    dqn._adam_update_inplace(params, state, grad, cfg.learning_rate, cfg.adam_beta1,
                             cfg.adam_beta2, cfg.adam_eps)


class ConstantRewardEnv:
    """Frozen stub: fixed state, reward 1 for every action, never terminal."""

    def __init__(self, dim=5):
        self.state_vector = np.linspace(0.1, 0.5, dim)

    def step(self, action):
        return StepOutcome(proxy_reward=1.0,
                           raw_power_dbm=-40.0, episode_done=False, action=action,
                           time_s=0.0, beam=BeamOrientation(0.0, 0.0), node=np.zeros(3),
                           look=(1.0, 0.0, 0.0))


# headers whose declared lengths no file of theirs can hold: a 2**62-byte
# config echo, a net of 1e10 parameters, 2**31 layer widths
OVERSIZED_HEADERS = {
    "echo": ((9, 8, 9), 2 ** 62),
    "dims": ((100000, 100000, 9), 2),
    "n_dims": (2 ** 31, 2),
}


def write_oversized_checkpoint(path, which: str):
    """A checkpoint file whose header declares OVERSIZED_HEADERS[which]."""
    dims, echo_len = OVERSIZED_HEADERS[which]
    if isinstance(dims, int):  # only the count of layer widths, then the file ends
        header = struct.pack("<II", dqn.CHECKPOINT_VERSION, dims) + struct.pack("<3I", 9, 8, 9)
    else:
        header = (struct.pack("<II", dqn.CHECKPOINT_VERSION, len(dims))
                  + struct.pack(f"<{len(dims)}I", *dims)
                  + struct.pack("<QQQ", 0, 0, echo_len) + b"{}" + b"\x00" * 64)
    path.write_bytes(dqn.CHECKPOINT_MAGIC + header)


def tiny_params(rng, dims=(3, 4, 3, 4, 9)) -> MlpParams:
    return init_mlp(dims, rng)


def pre_activation_loss_and_grad(params, batch, target, gamma):
    """The loss and flat gradient of a backward pass that keeps every
    hidden layer's pre-activations z and masks on z > 0."""
    pre, act = [], [batch.states]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        pre.append(act[-1] @ w + b)
        act.append(np.maximum(pre[-1], 0.0))
    q = act[-1] @ params.weights[-1] + params.biases[-1]
    rows = np.arange(len(batch))
    resid = q[rows, batch.actions] - dqn._batch_td_targets(batch, target, gamma)
    dz = np.zeros_like(q)
    dz[rows, batch.actions] = dqn.huber_grad(resid) / len(batch)
    grads = MlpParams(params.dims)
    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(act[layer].T, dz, out=grads.weights[layer])
        dz.sum(axis=0, out=grads.biases[layer])
        if layer > 0:
            dz = (dz @ params.weights[layer].T) * (pre[layer - 1] > 0.0)
    return float(np.mean(huber(resid))), grads.flat


def batch_of(transitions) -> TransitionBatch:
    return TransitionBatch(np.stack([t.state for t in transitions]),
                           np.array([t.action for t in transitions]),
                           np.array([t.reward for t in transitions]),
                           np.stack([t.next_state for t in transitions]),
                           np.array([t.terminal for t in transitions]))


class TestMlpParams:
    def test_layout_is_weights_then_biases_as_views(self):
        params = tiny_params(np.random.default_rng(14))
        dims = params.dims
        parts = [w.ravel() for w in params.weights] + params.biases
        np.testing.assert_array_equal(np.concatenate(parts), params.flat)
        assert params.n_weights == sum(a * b for a, b in zip(dims[:-1], dims[1:]))
        assert all(np.shares_memory(a, params.flat) for a in parts)
        params.biases[-1][0] = 5.0
        assert params.flat[-len(params.biases[-1])] == 5.0

    def test_copy_is_independent_and_equal(self):
        params = tiny_params(np.random.default_rng(15))
        twin = params.copy()
        assert same_params(twin, params)
        twin.weights[0][0, 0] += 1.0
        assert not same_params(twin, params)

    def test_wrong_flat_size_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            MlpParams((3, 4, 9), np.zeros(10))


class TestForward:
    def test_zero_network_outputs_zero(self):
        params = MlpParams((4, 8, 8, 8, 9))
        np.testing.assert_array_equal(forward(params, np.ones(4)), np.zeros(9))

    def test_relu_gates_negative_signal(self):
        params = MlpParams((1, 1, 1, 1, 1))
        params.flat[:4] = 1.0  # the four 1x1 weights; biases stay zero
        assert forward(params, np.array([-2.0]))[0] == 0.0
        assert forward(params, np.array([3.0]))[0] == 3.0

    def test_matches_handrolled_matmul_oracle(self):
        rng = np.random.default_rng(0)
        params = tiny_params(rng)
        x = rng.normal(size=3)
        # independent re-implementation with explicit loops
        h = list(x)
        for li, (w, b) in enumerate(zip(params.weights, params.biases)):
            out = []
            for j in range(w.shape[1]):
                s = b[j]
                for i in range(w.shape[0]):
                    s += h[i] * w[i, j]
                out.append(max(s, 0.0) if li < len(params.weights) - 1 else s)
            h = out
        np.testing.assert_allclose(forward(params, x), h, rtol=1e-12)

    def test_dimension_mismatch_raises(self):
        params = tiny_params(np.random.default_rng(1))
        with pytest.raises(ValueError):
            forward(params, np.zeros(5))

    @pytest.mark.parametrize("shape", [(3,), (6, 3)], ids=["single", "batch"])
    def test_recording_keeps_the_bits_and_records_each_layer_input(self, shape):
        rng = np.random.default_rng(22)
        params = tiny_params(rng)
        x = rng.normal(size=shape)
        acts = []
        q = forward(params, x, acts)
        assert q.shape == forward(params, x).shape
        assert q.tobytes() == forward(params, x).tobytes()
        want = [np.atleast_2d(x)]
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            want.append(np.maximum(want[-1] @ w + b, 0.0))
        assert len(acts) == len(params.dims) - 1
        assert [a.tobytes() for a in acts] == [a.tobytes() for a in want]
        assert [a.shape for a in acts] == [a.shape for a in want]


class TestHuber:
    def test_zero(self):
        assert huber(0.0) == 0.0

    def test_knee_continuity(self):
        assert huber(1.0) == pytest.approx(0.5)
        assert huber(1.0 - 1e-12) == pytest.approx(huber(1.0 + 1e-12), abs=1e-11)
        assert huber(-1.0) == pytest.approx(0.5)

    def test_linear_branch(self):
        assert huber(-3.0) == pytest.approx(2.5)
        assert huber(4.0) == pytest.approx(3.5)


class TestTdTarget:
    def test_terminal_drops_bootstrap(self):
        rng = np.random.default_rng(2)
        tr = Transition(np.zeros(3), 0, 0.3, np.ones(3), True)
        assert td_target(tr, tiny_params(rng), 0.99) == pytest.approx(0.3)

    def test_zero_target_network(self):
        zero = MlpParams((3, 4, 3, 4, 9))
        tr = Transition(np.zeros(3), 0, 0.7, np.ones(3), False)
        assert td_target(tr, zero, 0.99) == pytest.approx(0.7)

    def test_constructed_target_values(self):
        # zero weights, output biases [1..9]: the max is 9 by construction
        net = MlpParams((3, 4, 3, 4, 9))
        net.biases[-1][:] = np.arange(1.0, 10.0)
        tr = Transition(np.zeros(3), 0, 0.0, np.ones(3), False)
        assert td_target(tr, net, 0.99) == pytest.approx(0.99 * 9.0)


def _fd_loss(params, batch, target, gamma):
    """Finite-difference oracle built from the public ops only."""
    total = 0.0
    for i in range(len(batch)):
        tr = Transition(batch.states[i], int(batch.actions[i]),
                        float(batch.rewards[i]), batch.next_states[i],
                        bool(batch.terminals[i]))
        q = forward(params, tr.state)[tr.action]
        total += huber(q - td_target(tr, target, gamma))
    return total / len(batch)


def _margins_ok(params, batch, target, gamma, margin=1e-3):
    """Keep the finite-difference probe away from ReLU and Huber kinks."""
    for states in (batch.states,):
        h = states
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            z = h @ w + b
            if np.min(np.abs(z)) < margin:
                return False
            h = np.maximum(z, 0.0)
    y = dqn._batch_td_targets(batch, target, gamma)
    q = forward(params, batch.states)
    resid = q[np.arange(len(batch)), batch.actions] - y
    return bool(np.min(np.abs(np.abs(resid) - 1.0)) > margin)


class TestGradient:
    def test_zero_residual_gives_zero_gradient(self):
        zero = MlpParams((3, 4, 3, 4, 9))
        trs = [Transition(np.ones(3), 2, 0.0, np.ones(3), True) for _ in range(4)]
        assert np.all(grad(zero, batch_of(trs), zero, 0.99) == 0)

    def test_batch_gradient_is_mean_of_singles(self):
        rng = np.random.default_rng(3)
        params, target = tiny_params(rng), tiny_params(rng)
        t1 = Transition(rng.normal(size=3), 1, 0.4, rng.normal(size=3), False)
        t2 = Transition(rng.normal(size=3), 7, -0.2, rng.normal(size=3), False)
        g12 = grad(params, batch_of([t1, t2]), target, 0.9)
        g1 = grad(params, batch_of([t1]), target, 0.9)
        g2 = grad(params, batch_of([t2]), target, 0.9)
        np.testing.assert_allclose(g12, 0.5 * (g1 + g2), rtol=1e-12, atol=1e-15)

    def test_matches_central_finite_differences(self):
        # 50 random tiny nets, every parameter, away from kinks
        rng = np.random.default_rng(100)
        step = 1e-5
        checked = 0
        while checked < 50:
            params, target = tiny_params(rng), tiny_params(rng)
            tr = Transition(rng.normal(size=3), int(rng.integers(9)),
                            float(rng.uniform(-0.9, 0.9)), rng.normal(size=3),
                            bool(rng.integers(2)))
            batch = batch_of([tr])
            if not _margins_ok(params, batch, target, 0.95):
                continue
            g = grad(params, batch, target, 0.95)
            worst = 0.0
            for i in range(params.flat.size):
                orig = params.flat[i]
                params.flat[i] = orig + step
                up = _fd_loss(params, batch, target, 0.95)
                params.flat[i] = orig - step
                down = _fd_loss(params, batch, target, 0.95)
                params.flat[i] = orig
                fd = (up - down) / (2 * step)
                scale = max(abs(fd), abs(g[i]), 1e-8)
                worst = max(worst, abs(fd - g[i]) / scale)
            assert worst < 1e-4
            checked += 1

    def test_matches_the_pre_activation_masked_backward_bit_for_bit(self):
        # zero-bias nets and zero input rows: those rows' pre-activations are
        # exactly 0 in every hidden layer, the ReLU's edge
        rng = np.random.default_rng(23)
        for _ in range(20):
            params, target = tiny_params(rng), tiny_params(rng)
            states = rng.normal(size=(6, 3))
            states[[1, 4]] = 0.0
            batch = TransitionBatch(states, rng.integers(9, size=6),
                                    rng.uniform(-1.0, 1.0, size=6), rng.normal(size=(6, 3)),
                                    rng.integers(2, size=6).astype(bool))
            acts = []
            forward(params, states, acts)
            for a, w, b in zip(acts, params.weights[:-1], params.biases[:-1]):
                assert not (a[[1, 4]] @ w + b).any()
            grads = MlpParams(params.dims)
            loss = dqn._loss_and_grad(params, batch, target, 0.9, grads)
            want_loss, want_grad = pre_activation_loss_and_grad(params, batch, target, 0.9)
            assert loss == want_loss
            assert grads.flat.tobytes() == want_grad.tobytes()

    def test_every_gradient_entry_is_overwritten(self):
        # the training loop reuses one gradient buffer across minibatches
        rng = np.random.default_rng(19)
        params, target = tiny_params(rng), tiny_params(rng)
        batch = batch_of([Transition(rng.normal(size=3), 3, 0.1, rng.normal(size=3),
                                     False)])
        stale = MlpParams(params.dims, np.full(params.flat.size, np.nan))
        dqn._loss_and_grad(params, batch, target, 0.9, stale)
        np.testing.assert_array_equal(stale.flat, grad(params, batch, target, 0.9))

    def test_empty_minibatch_rejected(self):
        rng = np.random.default_rng(4)
        params = tiny_params(rng)
        empty = TransitionBatch(np.zeros((0, 3)), np.zeros(0, int), np.zeros(0),
                                np.zeros((0, 3)), np.zeros(0, bool))
        with pytest.raises(ValueError):
            dqn._loss_and_grad(params, empty, params, 0.99, MlpParams(params.dims))


class TestAdam:
    def test_zero_gradient_only_advances_counter(self):
        rng = np.random.default_rng(5)
        params = tiny_params(rng)
        before = params.copy()
        state = init_adam(params)
        adam_update(params, state, np.zeros_like(params.flat))
        assert state.t == 1
        assert same_params(params, before)

    def test_one_step_closed_form(self):
        # scalar parameter, constant gradient: delta = -lr * g / (|g| + eps)
        g = 0.37
        params = MlpParams((1, 1))
        params.flat[:] = (2.0, 0.5)  # the weight, then the bias
        state = init_adam(params)
        adam_update(params, state, np.array([g, 0.0]), lr=1e-4)
        expected = 2.0 - 1e-4 * g / (abs(g) + TRAIN.adam_eps)
        assert params.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)
        assert params.weights[0][0, 0] == pytest.approx(2.0 - 1e-4 * np.sign(g),
                                                        rel=1e-6)
        assert params.biases[0][0] == 0.5

    def test_matches_the_textbook_expression_bit_for_bit(self):
        rng = np.random.default_rng(20)
        params = tiny_params(rng)
        p, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
        state = init_adam(params)
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t in range(1, 6):
            g = rng.normal(size=p.shape)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            p = p - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            dqn._adam_update_inplace(params, state, g, lr, b1, b2, eps)
            np.testing.assert_array_equal(params.flat, p)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)

    @pytest.mark.parametrize("b1, b2", [(0.9, 0.999), (0.999, 0.9)])
    def test_skipped_corrections_match_the_textbook_expression_bit_for_bit(self, b1, b2):
        # by t = 400 one correction is exactly 1.0 and skipped (c1 at the
        # default betas, c2 with them swapped) while the other still divides
        assert 1.0 - 0.9 ** 400 == 1.0 and 1.0 - 0.999 ** 400 < 1.0
        rng = np.random.default_rng(21)
        params = tiny_params(rng)
        p, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
        state = init_adam(params)
        lr, eps = 1e-3, 1e-8
        for t in range(1, 401):
            g = rng.normal(size=p.shape)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            p = p - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            dqn._adam_update_inplace(params, state, g, lr, b1, b2, eps)
            assert np.array_equal(params.flat, p), t
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v), t

    def test_purity_and_repeatability(self):
        # the update leaves its gradient untouched, and equal starting
        # points give identical parameters and moments
        rng = np.random.default_rng(6)
        params = tiny_params(rng)
        g = rng.normal(size=params.flat.shape)
        g_before = g.copy()
        runs = []
        for _ in range(2):
            p, state = params.copy(), init_adam(params)
            adam_update(p, state, g)
            runs.append((p, state))
        np.testing.assert_array_equal(g, g_before)
        (p1, s1), (p2, s2) = runs
        assert same_params(p1, p2) and not same_params(p1, params)
        np.testing.assert_array_equal(s1.m, s2.m)
        np.testing.assert_array_equal(s1.v, s2.v)
        assert s1.t == s2.t == 1


class TestSelectAction:
    def test_greedy_picks_unique_max(self):
        rng = np.random.default_rng(7)
        q = np.zeros(9)
        q[7] = 1.0
        assert select_action(q, 0.0, rng) == 7

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(8)
        assert select_action(np.zeros(9), 0.0, rng) == 0

    def test_uniform_when_fully_random(self):
        rng = np.random.default_rng(9)
        counts = np.zeros(9)
        for _ in range(90_000):
            counts[select_action(np.arange(9.0), 1.0, rng)] += 1
        freqs = counts / 90_000
        assert np.abs(freqs - 1.0 / 9.0).max() < 0.01

    def test_greedy_invariant_under_output_bias_shift(self):
        rng = np.random.default_rng(10)
        params = tiny_params(rng)
        shifted = params.copy()
        shifted.biases[-1] += 13.7
        for _ in range(50):
            s = rng.normal(size=3)
            assert (select_action(forward(params, s), 0.0, rng)
                    == select_action(forward(shifted, s), 0.0, rng))

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            select_action(np.zeros(9), 1.5, np.random.default_rng(0))


class TestReplayBuffer:
    def test_fifo_bound(self):
        buf = ReplayBuffer(capacity=10, state_dim=2)
        for i in range(25):
            buf.push(np.full(2, i), 0, 0.0, np.full(2, i + 1), False)
        assert len(buf) == 10
        batch = buf.sample(np.random.default_rng(0), 10)
        assert set(batch.states[:, 0].astype(int)) == set(range(15, 25))

    def test_uniform_sampling_frequencies(self):
        buf = ReplayBuffer(capacity=100, state_dim=1)
        for i in range(100):
            buf.push([float(i)], 0, 0.0, [0.0], False)
        rng = np.random.default_rng(11)
        counts = np.zeros(100)
        draws, k = 5000, 20
        for _ in range(draws):
            batch = buf.sample(rng, k)
            idx = batch.states[:, 0].astype(int)
            assert len(set(idx.tolist())) == k  # without replacement
            counts[idx] += 1
        freqs = counts / draws
        assert np.abs(freqs - k / 100.0).max() < 0.02

    def test_reward_range_enforced(self):
        buf = ReplayBuffer(capacity=4, state_dim=1)
        with pytest.raises(ValueError):
            buf.push([0.0], 0, 1.5, [0.0], False)

    def test_oversampling_rejected(self):
        buf = ReplayBuffer(capacity=4, state_dim=1)
        buf.push([0.0], 0, 0.0, [0.0], False)
        with pytest.raises(ValueError):
            buf.sample(np.random.default_rng(0), 2)


def stub_cfg(**overrides):
    base = dict(discount=0.99, epsilon_train=0.2, learning_rate=1e-2,
                update_period_steps=10, sample_block=128, minibatch=32,
                epochs=4, outer_iterations=1, target_sync_steps=10,
                total_steps=500, eval_steps=5, replay_capacity=1000,
                hidden_sizes=(16, 16, 16))
    base.update(overrides)
    return replace(TRAIN, **base)


class TestTraining:
    def test_schedule_arithmetic(self):
        # 600 steps, update every 300, block of 256: exactly 2 phases logged
        cfg = stub_cfg(update_period_steps=300, sample_block=256, total_steps=600,
                       target_sync_steps=3000)
        result = dqn.train(lambda seed: ConstantRewardEnv(), cfg, seed=0,
                           evaluate=lambda p, s: {})
        assert len(result.log) == 2
        assert [r["phase"] for r in result.log] == [1, 2]
        assert [r["global_step"] for r in result.log] == [300, 600]

    def test_warmup_delays_first_phase(self):
        # block of 2048 is never filled within 600 steps: no updates at all
        cfg = stub_cfg(update_period_steps=300, sample_block=2048,
                       replay_capacity=4096, total_steps=600)
        result = dqn.train(lambda seed: ConstantRewardEnv(), cfg, seed=0,
                           evaluate=lambda p, s: {})
        assert result.log == []

    def test_bit_identical_under_fixed_seed(self):
        cfg = stub_cfg(total_steps=150)
        r1 = dqn.train(lambda seed: ConstantRewardEnv(), cfg, seed=42,
                       evaluate=lambda p, s: {})
        r2 = dqn.train(lambda seed: ConstantRewardEnv(), cfg, seed=42,
                       evaluate=lambda p, s: {})
        assert same_params(r1.params, r2.params)
        assert r1.log == r2.log

    def test_target_network_isolated_between_syncs(self):
        # no sync ever happens: the target must still equal the initial net
        cfg = stub_cfg(total_steps=200, target_sync_steps=10_000)
        result = dqn.train(lambda seed: ConstantRewardEnv(), cfg, seed=3,
                           evaluate=lambda p, s: {})
        rng = np.random.default_rng(3)
        rng.integers(2 ** 63)  # the factory seed draw precedes initialization
        init = init_mlp((5, 16, 16, 16, 9), rng)
        assert same_params(result.target_params, init)
        assert not same_params(result.params, init)

    def test_constant_reward_drives_q_to_fixed_point(self):
        # geometric series: Q -> 1/(1-gamma) = 10 within 2 percent; uniform
        # exploration and a small learning rate keep the fit tight enough for
        # the bootstrap bias to stay inside the band over ~75 target syncs
        cfg = stub_cfg(discount=0.9, epsilon_train=1.0, learning_rate=4e-4,
                       update_period_steps=20, epochs=8, target_sync_steps=40,
                       total_steps=3_000)
        result = dqn.train(lambda seed: ConstantRewardEnv(), cfg, seed=1,
                           evaluate=lambda p, s: {})
        q = forward(result.params, ConstantRewardEnv().state_vector)
        assert np.mean(q) == pytest.approx(10.0, rel=0.02)

    def test_a_non_finite_loss_raises_with_its_diagnostics(self):
        # the first Adam steps at this rate carry the weights past float range
        cfg = stub_cfg(total_steps=300, learning_rate=1e150)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(dqn.TrainingDivergedError, match="non-finite loss") as err:
            dqn.train(lambda seed: ConstantRewardEnv(), cfg, 0, lambda p, s: {})
        diagnostics = err.value.diagnostics
        assert sorted(diagnostics) == ["global_step", "loss", "phase", "q_max"]
        assert (diagnostics["global_step"], diagnostics["phase"]) == (130, 1)
        assert math.isnan(diagnostics["loss"])


def test_only_forward_applies_the_relu():
    # one MLP forward: backprop reads the layer inputs that `forward` records
    package = Path(dqn.__file__).parent
    found = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        owner = {}  # each node's innermost enclosing function
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                owner.update((node, getattr(fn, "name", "<lambda>")) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "maximum":
                name = owner.get(node, "<module>")
                if (source.name, name) != ("dqn.py", "forward"):
                    found.append(f"{source.name}:{node.lineno}: {name}")
    assert found == []


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        params = tiny_params(rng)
        adam = init_adam(params)
        adam.t = 17
        adam.m += rng.normal(size=adam.m.shape)
        adam.v += rng.uniform(size=adam.v.shape)
        path = tmp_path / "ckpt.bin"
        dqn.save_checkpoint(path, params, adam, 1234, '{"seed": 9}')
        loaded, adam2, step, blob = dqn.load_checkpoint(path)
        assert same_params(loaded, params)
        assert adam2.t == 17 and step == 1234 and blob == '{"seed": 9}'
        np.testing.assert_array_equal(adam2.m, adam.m)
        np.testing.assert_array_equal(adam2.v, adam.v)

    def test_body_layout(self, tmp_path):
        # the body is the parameter vector, then the weight parts of m and
        # v, then their bias parts: the layout of the format's first version
        rng = np.random.default_rng(16)
        params = tiny_params(rng)
        adam = init_adam(params)
        adam.m += rng.normal(size=adam.m.shape)
        adam.v += rng.uniform(size=adam.v.shape)
        path = tmp_path / "ckpt.bin"
        dqn.save_checkpoint(path, params, adam, 0, "{}")
        n, nw = params.flat.size, params.n_weights
        body = np.frombuffer(path.read_bytes()[-24 * n:], dtype="<f8")
        parts = [*params.weights, *params.biases]
        m_w, v_w = adam.m[:nw], adam.v[:nw]
        m_b, v_b = adam.m[nw:], adam.v[nw:]
        expected = np.concatenate([a.ravel() for a in parts] + [m_w, v_w, m_b, v_b])
        np.testing.assert_array_equal(body, expected)

    def test_truncated_body_names_byte_counts(self, tmp_path):
        params = tiny_params(np.random.default_rng(17))
        path = tmp_path / "ckpt.bin"
        dqn.save_checkpoint(path, params, init_adam(params), 0, "{}")
        full = 24 * params.flat.size
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match=f"{full - 5} bytes, expected {full}"):
            dqn.load_checkpoint(path)

    def test_trailing_junk_rejected(self, tmp_path):
        params = tiny_params(np.random.default_rng(18))
        path = tmp_path / "ckpt.bin"
        dqn.save_checkpoint(path, params, init_adam(params), 0, "{}")
        full = 24 * params.flat.size
        path.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(ValueError, match=f"{full + 16} bytes, expected {full}"):
            dqn.load_checkpoint(path)

    # cut inside the version, the layer widths, the counters and the echo
    @pytest.mark.parametrize("keep", [10, 30, 40, 60])
    def test_truncated_header_names_the_path(self, tmp_path, keep):
        params = tiny_params(np.random.default_rng(19))
        path = tmp_path / "ckpt.bin"
        dqn.save_checkpoint(path, params, init_adam(params), 0, '{"seed": 9}' * 4)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint header is cut short")):
            dqn.load_checkpoint(path)

    def test_unsupported_version_names_the_path(self, tmp_path):
        params = tiny_params(np.random.default_rng(21))
        path = tmp_path / "ckpt.bin"
        dqn.save_checkpoint(path, params, init_adam(params), 0, "{}")
        raw = path.read_bytes()  # the version is the u32 after the 4-byte magic
        path.write_bytes(raw[:4] + struct.pack("<I", 99) + raw[8:])
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: unsupported checkpoint version 99")):
            dqn.load_checkpoint(path)

    @pytest.mark.parametrize("which", sorted(OVERSIZED_HEADERS))
    def test_oversized_header_lengths_are_refused_before_reading(self, tmp_path, which):
        path = tmp_path / "ckpt.bin"
        write_oversized_checkpoint(path, which)
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint ")):
            dqn.load_checkpoint(path)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        params = tiny_params(np.random.default_rng(20))
        path = tmp_path / "ckpt.bin"
        dqn.save_checkpoint(path, params, init_adam(params), 1, "{}")
        before = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")
        monkeypatch.setattr(dqn, "_body", fail)  # fails after the header is written
        with pytest.raises(OSError, match="disk full"):
            dqn.save_checkpoint(path, params, init_adam(params), 2, "{}")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_byte_identical_saves(self, tmp_path):
        rng = np.random.default_rng(13)
        params = tiny_params(rng)
        adam = init_adam(params)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        dqn.save_checkpoint(p1, params, adam, 7, "{}")
        dqn.save_checkpoint(p2, params, adam, 7, "{}")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            dqn.load_checkpoint(path)
