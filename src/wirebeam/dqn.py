"""From-scratch deep Q-learning on numpy.

A plain MLP (three ReLU hidden layers, linear head over the nine steering
actions) is trained with Huber TD errors against a periodically frozen
target network, uniform replay sampling, and hand-rolled bias-corrected
Adam.  Every stochastic choice, each phase's eval seed included, flows from
one injected generator, so a fixed seed reproduces parameters bit for bit.
`train` only learns: the caller's `evaluate` runs the phase-end evaluation.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .env import N_ACTIONS
from .files import atomic_open

CHECKPOINT_MAGIC = b"WBQN"
CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries a diagnostics dict."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message + " | " + json.dumps(diagnostics, default=str))
        self.diagnostics = diagnostics


# --------------------------------------------------------------------------
# network
# --------------------------------------------------------------------------

class MlpParams:
    """Network parameters held in one float64 vector `flat`.

    `flat` lays out every weight matrix (fan_in x fan_out, row-major), then
    every bias vector, input to output, which is the checkpoint body's
    order.  `weights` and `biases` are views into `flat`, built once here.
    Without `flat` the network is all zeros.
    """

    def __init__(self, dims: tuple[int, ...], flat: np.ndarray | None = None):
        self.dims = tuple(int(d) for d in dims)
        shapes = [*zip(self.dims[:-1], self.dims[1:]), *((d,) for d in self.dims[1:])]
        sizes = [math.prod(shape) for shape in shapes]
        self.n_weights = sum(sizes[:len(self.dims) - 1])
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        if self.flat.shape != (sum(sizes),):
            raise ValueError(f"flat vector of shape {self.flat.shape} does not fit "
                             f"dims {self.dims} ({sum(sizes)} parameters)")
        views = [part.reshape(shape) for part, shape in
                 zip(np.split(self.flat, np.cumsum(sizes)[:-1]), shapes)]
        self.weights = views[:len(self.dims) - 1]
        self.biases = views[len(self.dims) - 1:]

    def copy(self) -> "MlpParams":
        return MlpParams(self.dims, self.flat.copy())


def init_mlp(dims: tuple[int, ...], rng: np.random.Generator) -> MlpParams:
    """He-uniform hidden layers, small-uniform output layer, zero biases."""
    params = MlpParams(dims)
    for i, w in enumerate(params.weights):
        bound = 1e-3 if i == len(params.weights) - 1 else math.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def forward(params: MlpParams, x: np.ndarray, acts: list | None = None) -> np.ndarray:
    """Action values for one state (D,) -> (A,) or a batch (B,D) -> (B,A).
    A list `acts` receives the input, then each hidden ReLU output."""
    x = np.asarray(x, float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.dims[0]:
        raise ValueError(f"input dim {h.shape[1]} != network input {params.dims[0]}")
    if acts is not None:
        acts.append(h)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        if acts is not None:
            acts.append(h)
    q = h @ params.weights[-1] + params.biases[-1]
    return q[0] if single else q


# --------------------------------------------------------------------------
# loss
# --------------------------------------------------------------------------

def huber(x):
    """Quadratic within |x| <= 1, linear |x| - 0.5 outside."""
    x = np.asarray(x, float)
    out = np.where(np.abs(x) <= 1.0, 0.5 * x * x, np.abs(x) - 0.5)
    return float(out) if out.ndim == 0 else out


def huber_grad(x):
    """d huber / dx = clip(x, -1, 1)."""
    return np.clip(x, -1.0, 1.0)


@dataclass
class TransitionBatch:
    states: np.ndarray       # (B, D)
    actions: np.ndarray      # (B,) int
    rewards: np.ndarray      # (B,)
    next_states: np.ndarray  # (B, D)
    terminals: np.ndarray    # (B,) bool

    def __len__(self):
        return self.states.shape[0]

    def take(self, idx) -> "TransitionBatch":
        """The rows `idx`, gathered into a new batch."""
        return TransitionBatch(self.states[idx], self.actions[idx], self.rewards[idx],
                               self.next_states[idx], self.terminals[idx])


def _batch_td_targets(batch: TransitionBatch, target_params: MlpParams,
                      gamma: float) -> np.ndarray:
    boot = forward(target_params, batch.next_states).max(axis=1)
    return batch.rewards + gamma * boot * (~batch.terminals)


def _loss_and_grad(params: MlpParams, batch: TransitionBatch,
                   target_params: MlpParams, gamma: float, grads: MlpParams) -> float:
    """Mean Huber TD loss; its gradient is written into `grads`, an
    MlpParams shaped like params.  No gradient flows to the target.  The
    ReLU mask max(z, 0) > 0 is exactly z > 0: backprop masks on `act`."""
    if len(batch) == 0:
        raise ValueError("minibatch must be non-empty")
    y = _batch_td_targets(batch, target_params, gamma)
    act = []
    q = forward(params, batch.states, act)
    rows = np.arange(len(batch))
    resid = q[rows, batch.actions] - y
    loss = float(np.mean(huber(resid)))

    dz = np.zeros_like(q)
    dz[rows, batch.actions] = huber_grad(resid) / len(batch)

    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(act[layer].T, dz, out=grads.weights[layer])
        dz.sum(axis=0, out=grads.biases[layer])
        if layer > 0:
            dz = (dz @ params.weights[layer].T) * (act[layer] > 0.0)
    return loss


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------

@dataclass
class AdamState:
    """First and second moments, each one vector shaped like MlpParams.flat.

    `work` is scratch for the update's temporaries: fresh vectors of this
    size on every update cost page faults that dominate the arithmetic.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = np.empty((2, self.m.size))


def init_adam(params: MlpParams) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def _adam_update_inplace(params: MlpParams, state: AdamState, grad: np.ndarray,
                         lr: float, beta1: float, beta2: float, eps: float):
    """One bias-corrected Adam step over the whole flat vector, in place.
    A correction that has reached exactly 1.0 (c1 from t ~ 356, c2 from
    t ~ 37,400 at the default betas) is skipped: x / 1.0 is x bit for bit."""
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    m, v, (num, den) = state.m, state.v, state.work
    m *= beta1
    m += np.multiply(1.0 - beta1, grad, out=num)
    v *= beta2
    v += np.multiply(1.0 - beta2, np.multiply(grad, grad, out=num), out=num)
    np.sqrt(v if c2 == 1.0 else np.divide(v, c2, out=den), out=den)
    den += eps
    mc = m if c1 == 1.0 else np.divide(m, c1, out=num)
    params.flat -= np.divide(np.multiply(lr, mc, out=num), den, out=num)


# --------------------------------------------------------------------------
# exploration and replay
# --------------------------------------------------------------------------

def greedy_policy(params: MlpParams):
    """callable(env) -> the action with the highest value for env.state_vector;
    ties take the lowest index."""
    return lambda env: int(np.argmax(forward(params, env.state_vector)))


def select_action(qvalues: np.ndarray, epsilon: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy over the action values; greedy ties take the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(N_ACTIONS))
    return int(np.argmax(qvalues))


class ReplayBuffer:
    """Bounded FIFO of transitions with uniform without-replacement sampling,
    held as one `TransitionBatch` of `capacity` rows."""

    def __init__(self, capacity: int, state_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rows = TransitionBatch(np.empty((capacity, state_dim)),
                                     np.empty(capacity, dtype=np.int64), np.empty(capacity),
                                     np.empty((capacity, state_dim)),
                                     np.empty(capacity, dtype=bool))
        self._size = 0
        self._head = 0

    def __len__(self):
        return self._size

    def push(self, state, action, reward, next_state, terminal):
        if not -1.0 - 1e-9 <= reward <= 1.0 + 1e-9:
            raise ValueError(f"reward {reward} outside the clipped range [-1, 1]")
        i, rows = self._head, self._rows
        rows.states[i] = state
        rows.actions[i] = action
        rows.rewards[i] = reward
        rows.next_states[i] = next_state
        rows.terminals[i] = terminal
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, n: int) -> TransitionBatch:
        if n > self._size:
            raise ValueError(f"cannot draw {n} transitions from a buffer of {self._size}")
        return self._rows.take(rng.choice(self._size, size=n, replace=False))


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    discount: float
    epsilon_train: float
    epsilon_eval: float
    learning_rate: float
    update_period_steps: int
    sample_block: int
    minibatch: int
    epochs: int
    outer_iterations: int
    target_sync_steps: int
    total_steps: int
    eval_steps: int
    adam_beta1: float
    adam_beta2: float
    adam_eps: float
    replay_capacity: int
    hidden_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must all be >= 1, got {self.hidden_sizes}")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        for name in ("epsilon_train", "epsilon_eval"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.replay_capacity < self.sample_block:
            raise ValueError("replay_capacity must cover at least one sample block")
        for name in ("learning_rate", "update_period_steps", "sample_block",
                     "minibatch", "epochs", "outer_iterations", "target_sync_steps",
                     "total_steps", "eval_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class TrainResult:
    params: MlpParams
    target_params: MlpParams
    adam: AdamState
    log: list[dict] = field(default_factory=list)


def _update_phase(params: MlpParams, target: MlpParams, adam: AdamState,
                  buffer: ReplayBuffer, cfg: TrainConfig, rng: np.random.Generator,
                  global_step: int, phase: int) -> list[float]:
    """outer_iterations blocks of sample_block transitions, drawn with `rng` and each
    fitted for `epochs` passes of minibatch Adam; returns the losses, evaluates nothing
    and draws no eval seed.  A non-finite loss raises TrainingDivergedError."""
    grads, losses = MlpParams(params.dims), []  # every update overwrites all of grads
    for _ in range(cfg.outer_iterations):
        block = buffer.sample(rng, cfg.sample_block)
        for _ in range(cfg.epochs):
            order = rng.permutation(cfg.sample_block)
            for lo in range(0, cfg.sample_block, cfg.minibatch):
                mb = block.take(order[lo:lo + cfg.minibatch])
                loss = _loss_and_grad(params, mb, target, cfg.discount, grads)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        "non-finite loss",
                        {"global_step": global_step, "phase": phase, "loss": loss,
                         "q_max": float(np.max(np.abs(forward(params, mb.states))))})
                _adam_update_inplace(params, adam, grads.flat, cfg.learning_rate,
                                     cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
                losses.append(loss)
    return losses


def train(build_env: Callable[[int], object], cfg: TrainConfig, seed: int,
          evaluate: Callable[[MlpParams, int], dict]) -> TrainResult:
    """Run the DQN protocol and return parameters plus the phase log.

    build_env(seed) builds a fresh training episode exposing .state_vector,
    read after every step, and .step(action), whose outcome has .proxy_reward
    and .episode_done.  Every update_period_steps steps, once the buffer holds
    a sample block, `_update_phase` runs, then an eval seed is drawn from the
    training rng and evaluate(params, eval_seed) returns the row's other columns.
    The target network refreshes every target_sync_steps."""
    rng = np.random.default_rng(seed)
    env = build_env(int(rng.integers(2 ** 63)))
    s = np.asarray(env.state_vector, float)
    input_dim = s.size

    params = init_mlp((input_dim, *cfg.hidden_sizes, N_ACTIONS), rng)
    target = params.copy()
    adam = init_adam(params)
    buffer = ReplayBuffer(cfg.replay_capacity, input_dim)
    result = TrainResult(params=params, target_params=target, adam=adam)

    for global_step in range(1, cfg.total_steps + 1):
        action = select_action(forward(params, s), cfg.epsilon_train, rng)
        out = env.step(action)
        buffer.push(s, action, out.proxy_reward, env.state_vector, out.episode_done)
        if out.episode_done:
            env = build_env(int(rng.integers(2 ** 63)))
        s = np.asarray(env.state_vector, float)

        if global_step % cfg.target_sync_steps == 0:
            target.flat[:] = params.flat

        if global_step % cfg.update_period_steps == 0 and len(buffer) >= cfg.sample_block:
            phase = len(result.log) + 1
            losses = _update_phase(params, target, adam, buffer, cfg, rng, global_step, phase)
            eval_seed = int(rng.integers(2 ** 63))
            result.log.append({"global_step": global_step, "phase": phase,
                               "loss": float(np.mean(losses)), "eval_seed": eval_seed,
                               **evaluate(params, eval_seed)})

    return result


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

def _body(params: MlpParams, adam: AdamState) -> tuple[np.ndarray, ...]:
    """The checkpoint body in file order: the parameter vector, the weight
    parts of m and of v, then their bias parts."""
    nw = params.n_weights
    return params.flat, adam.m[:nw], adam.v[:nw], adam.m[nw:], adam.v[nw:]


def save_checkpoint(path, params: MlpParams, adam: AdamState, global_step: int,
                    config_json: str = "{}"):
    """Versioned flat binary: dims, Adam step, global step, the
    configuration echo, then the little-endian float64 body."""
    dims = params.dims
    blob = config_json.encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(struct.pack("<QQQ", adam.t, global_step, len(blob)))
        fh.write(blob)
        for part in _body(params, adam):
            fh.write(np.ascontiguousarray(part, dtype="<f8"))


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_header(fh, path, n: int) -> bytes:
    """The next n header bytes; a length the file cannot hold is refused
    before anything is read."""
    left = _bytes_left(fh)
    if n > left:
        raise ValueError(f"{path}: checkpoint header is cut short "
                         f"({n} bytes needed, {left} left)")
    return fh.read(n)


def load_checkpoint(path) -> tuple[MlpParams, AdamState, int, str]:
    """Every length the header declares is checked against the bytes left
    in the file before it is read or allocated."""
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        version, n_dims = struct.unpack("<II", _read_header(fh, path, 8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        dims = struct.unpack(f"<{n_dims}I", _read_header(fh, path, 4 * n_dims))
        adam_t, global_step, blob_len = struct.unpack("<QQQ", _read_header(fh, path, 24))
        try:
            config_json = _read_header(fh, path, blob_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: checkpoint config echo is not UTF-8 "
                             f"({e.reason} at byte {e.start})") from None
        n = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
        found = _bytes_left(fh)
        if found != 3 * 8 * n:
            raise ValueError(f"{path}: checkpoint body is {found} bytes, expected "
                             f"{3 * 8 * n} for dims {dims}")
        params = MlpParams(dims, np.empty(n, dtype="<f8"))
        adam = AdamState(np.empty(n, dtype="<f8"), np.empty(n, dtype="<f8"), adam_t)
        for part in _body(params, adam):
            fh.readinto(part)
    return params, adam, global_step, config_json
