"""Messenger-wire dynamics: an N-point zero-rest-length spring chain.

The wire is modelled as N material points of mass m/N connected by springs
of stiffness k0, with the two endpoints pinned.  Interior points feel
gravity, the tensile (discrete-Laplacian) coupling, optional impulsive
forces, and an Ornstein-Uhlenbeck wind term that relaxes point velocities
toward a time-varying mean wind with drag rate c0.

Integration is semi-implicit Euler-Maruyama: the velocity is updated
first, then the position advances with the *new* velocity.  That ordering
is what makes the stability bound dt < 2/sqrt(4*k0*N/m) meaningful for
the stiff spring term.  All randomness is injected by the caller, so a
fixed seed reproduces a trajectory bit for bit.

`step` advances a whole block of substeps per call: noise of shape
(n, N-2, 3) means n substeps, and an (N-2, 3) array is the one-substep
case.  The block runs in place on one copy of the state, so its cost per
substep is the arithmetic rather than per-call set-up, and it is bit for
bit the same as n one-substep calls.  Wind and impulses are still
evaluated at the start of every substep, and any number of impulses may
act at once; each impulse's window is computed once, in a `Forcing`.
`trajectory` is the one seeded wire stream: the equilibrium, then the
state after every stride of substeps.  It advances one chain or a batch
of E episodes, positions (N, E, 3), each with its own noise generator
and impulses, in one `step` call per substep; each episode of a batch
is bit for bit its chain alone, and one chain is the batch of one.  The
tracking environment takes one state per tau from it and keeps them all
as its sensor history, which relies on `step` never modifying its input
state; `simulate_trajectory` returns a finite slice of the stream.

Point numbering follows the P1..PN convention: user-facing indices are
1-based, array storage is 0-based.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .files import atomic_open


class IntegrationDivergedError(RuntimeError):
    """Raised when a state component stops being finite; `episode` is the
    batch episode holding it, None for a single chain."""

    def __init__(self, point_number: int, time: float, episode: int | None = None):
        self.point_number = point_number
        self.time = time
        self.episode = episode
        where = "" if episode is None else f" of episode {episode}"
        super().__init__(
            f"integration diverged at P{point_number}{where} (t = {time:.6f} s); "
            "reduce the substep or check the stiffness/mass ratio"
        )


@dataclass(frozen=True)
class WireParams:
    """Physical constants of the chain.

    n_points            N, including both fixed endpoints
    mass_total          m [kg], mass of the whole wire (each point carries m/N)
    spring_k            k0 [N/m], stiffness of each inter-point spring
    drag_c              c0 [1/s], relaxation rate toward the mean wind
    gravity             [m/s^2], 3-vector
    wind_diffusion      [m/s per sqrt(s)], 3x3 diffusion matrix on the Wiener term
    endpoint_separation d_w [m], horizontal distance between the pinned ends
    """

    n_points: int
    mass_total: float
    spring_k: float
    drag_c: float
    gravity: np.ndarray
    wind_diffusion: np.ndarray
    endpoint_separation: float

    def __post_init__(self):
        object.__setattr__(self, "gravity", np.asarray(self.gravity, dtype=float))
        object.__setattr__(self, "wind_diffusion", np.asarray(self.wind_diffusion, dtype=float))
        if self.n_points < 3:
            raise ValueError("n_points must be >= 3 (need at least one interior point)")
        if self.mass_total <= 0:
            raise ValueError("mass_total must be positive")
        if self.spring_k <= 0:
            raise ValueError("spring_k must be positive")
        if self.drag_c < 0:
            raise ValueError("drag_c must be non-negative")
        if self.gravity.shape != (3,):
            raise ValueError("gravity must be a 3-vector")
        if self.wind_diffusion.shape != (3, 3):
            raise ValueError("wind_diffusion must be a 3x3 matrix")
        if not np.allclose(self.wind_diffusion, self.wind_diffusion.T, atol=1e-12):
            raise ValueError("wind_diffusion must be symmetric")
        eigs = np.linalg.eigvalsh(self.wind_diffusion)
        if eigs.min() < -1e-12:
            raise ValueError("wind_diffusion must be positive semidefinite")
        if self.endpoint_separation <= 0:
            raise ValueError("endpoint_separation must be positive")

    @property
    def spring_accel_coeff(self) -> float:
        """k0*N/m [1/s^2], the acceleration per unit second-difference."""
        return self.spring_k * self.n_points / self.mass_total

    def max_stable_dt(self) -> float:
        """Stability bound of the semi-implicit update, 2/sqrt(4*k0*N/m)."""
        return 2.0 / math.sqrt(4.0 * self.spring_accel_coeff)


@dataclass
class WireState:
    """Snapshot of the chain, or of a batch of E episodes' chains, at one
    time instant.

    A batch's arrays are (N, E, 3): the episode axis follows the point
    axis, so the interior points of every episode are one contiguous
    block and each update is one numpy loop over it (a leading episode
    axis took twice as long per substep at E = 3).  Episode e is
    `positions[:, e]`.  `diverged` maps each episode whose state stopped
    being finite to its error; its columns hold NaN.
    """

    time: float
    positions: np.ndarray   # (N, 3) or (N, E, 3) [m]
    velocities: np.ndarray  # as positions [m/s]
    diverged: dict[int, IntegrationDivergedError] = field(default_factory=dict)

    def copy(self) -> "WireState":
        return WireState(self.time, self.positions.copy(), self.velocities.copy(),
                         dict(self.diverged))


@dataclass(frozen=True)
class WindModel:
    """Mean wind velocity v_o(t): per axis amplitude*sin(2*pi*t/period)."""

    amplitude: float = 5.0                                    # [m/s]
    periods: tuple[float, float, float] = (4.0, 6.0, 8.0)     # [s]

    def __post_init__(self):
        if not all(p > 0 for p in self.periods):
            raise ValueError(f"wind periods must be positive, got {self.periods}")

    def velocity(self, t: float) -> np.ndarray:
        a, p = self.amplitude, self.periods
        return np.array([a * math.sin(2.0 * math.pi * t / p[0]),
                         a * math.sin(2.0 * math.pi * t / p[1]),
                         a * math.sin(2.0 * math.pi * t / p[2])])


@dataclass(frozen=True)
class ImpulseEvent:
    """A force applied to one interior point starting at apply_time.

    With duration_s = None the force acts during exactly the one substep
    whose interval [t, t+dt) contains apply_time, so the imparted velocity
    kick is F*dt*N/m and scales with the substep.  A positive duration_s
    keeps the force on for ceil(duration_s/dt) substeps, making the kick
    F*duration*N/m independent of the integrator resolution.
    """

    point_number: int            # 1-based P-number, never an endpoint
    force: np.ndarray            # [N], 3-vector
    apply_time: float            # [s]
    duration_s: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "force", np.asarray(self.force, dtype=float))
        if self.apply_time < 0:
            raise ValueError("apply_time must be >= 0")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration_s must be positive when given")

    def validate_for(self, params: WireParams):
        if not 1 < self.point_number < params.n_points:
            raise ValueError(
                f"impulse point P{self.point_number} must be interior "
                f"(2..{params.n_points - 1})"
            )

    def acts(self, dt: float) -> Callable[[float], bool]:
        """Whether the force acts during the substep of length dt starting
        at t, as a function of t; the window is computed once, here."""
        if self.duration_s is None:
            a = self.apply_time
            return lambda t: t <= a < t + dt
        # anchor to the substep that contains apply_time, then hold for
        # round(duration/dt) >= 1 substeps; tolerances absorb float drift
        # in the accumulated simulation clock
        first = math.floor(self.apply_time / dt + 1e-9) * dt
        n_sub = max(1, int(round(self.duration_s / dt)))
        eps = 1e-6 * dt
        lo, hi = first - eps, first + n_sub * dt - eps
        return lambda t: lo <= t < hi


class Forcing:
    """Impulse events placed on the points of a state, for substeps of dt.

    `impulses` is one sequence of events for a single chain and one per
    episode for a batch.  Each event's index (point, and episode in a
    batch), acceleration (N/m)*F and window are computed once, here; every
    event active during a substep adds its acceleration there.
    """

    def __init__(self, params: WireParams, impulses, dt: float, batched: bool):
        coeff = params.n_points / params.mass_total
        self._pushes = []
        for e, events in enumerate(impulses if batched else [impulses]):
            for ev in events:
                ev.validate_for(params)
                at = (ev.point_number - 2, e) if batched else ev.point_number - 2
                with np.errstate(over="ignore"):  # `step` reports what overflows
                    self._pushes.append((at, coeff * ev.force, ev.acts(dt)))

    def add(self, acc: np.ndarray, t: float):
        """Add the acceleration of every event active at substep start t."""
        for at, accel, acts in self._pushes:
            if acts(t):
                acc[at] += accel


def interior_acceleration(state: WireState, params: WireParams,
                          forcing: Forcing | None = None) -> np.ndarray:
    """Acceleration of the interior points: gravity + tensile coupling (+ impulses).

    Returns a new array of the interior points, (N-2, 3) or (N-2, E, 3).
    With a `forcing`, every event active during the substep starting at
    state.time adds its force.
    """
    x = state.positions
    acc = x[2:] + x[:-2]
    acc -= 2.0 * x[1:-1]
    acc *= params.spring_accel_coeff
    acc += params.gravity
    if forcing is not None:
        forcing.add(acc, state.time)
    return acc


def solve_equilibrium(params: WireParams) -> WireState:
    """Static shape of the chain with no wind and no impulse.

    Solves the discrete Poisson problem (k0*N/m) * d2x_i = -g per axis with
    the pinned ends as boundary data, then shifts the frame so the midpoint
    node sits at the origin.  For the paper's straight-down gravity this is
    the sampled parabola: even horizontal spacing, sag s0 at the centre,
    endpoints at z = +s0.
    """
    n = params.n_points
    pos = np.zeros((n, 3))
    half = params.endpoint_separation / 2.0
    # boundary positions before the frame shift: ends on the X axis
    left = np.array([-half, 0.0, 0.0])
    right = np.array([half, 0.0, 0.0])

    n_int = n - 2
    lap = np.zeros((n_int, n_int))
    idx = np.arange(n_int)
    lap[idx, idx] = -2.0
    lap[idx[:-1], idx[:-1] + 1] = 1.0
    lap[idx[1:], idx[1:] - 1] = 1.0

    load = -params.gravity / params.spring_accel_coeff  # d2x_i = -g*m/(k0*N)
    for axis in range(3):
        rhs = np.full(n_int, load[axis])
        rhs[0] -= left[axis]
        rhs[-1] -= right[axis]
        pos[1:-1, axis] = np.linalg.solve(lap, rhs)
    pos[0] = left
    pos[-1] = right

    pos -= pos[(n - 1) // 2]  # midpoint node at the origin
    return WireState(time=0.0, positions=pos, velocities=np.zeros((n, 3)))


def sag_depth(params: WireParams) -> float:
    """Vertical drop of the midpoint node below the endpoints, s0 [m]."""
    eq = solve_equilibrium(params)
    return float(eq.positions[0, 2] - eq.positions[(params.n_points - 1) // 2, 2])


def step(state: WireState, params: WireParams, wind: WindModel,
         impulses: Forcing | Sequence, dt: float, noise: np.ndarray) -> WireState:
    """Advance a block of Euler-Maruyama substeps of length dt.

    The state is one chain, positions (N, 3), or a batch of episodes,
    positions (N, E, 3).  noise holds standard normal draws supplied by
    the caller: an array shaped like the interior points, (N-2, 3) or
    (N-2, E, 3), advances one substep, and n of them stacked advance n.
    `impulses` is a `Forcing` built for dt, or its events: a sequence for
    one chain, one sequence per episode for a batch.  Every event active
    during a substep adds its force there.  Endpoints are never touched,
    and the input state is not modified.

    Raises IntegrationDivergedError naming the first non-finite point, the
    start time of the substep that produced it and, for a batch, the
    lowest episode holding that point.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_int = params.n_points - 2
    one = (n_int,) + state.positions.shape[1:]
    if noise.shape != one and noise.shape[1:] != one:
        raise ValueError(f"noise must have shape {one} or (n, {str(one)[1:]}, "
                         f"got {noise.shape}")
    forcing = impulses if isinstance(impulses, Forcing) else Forcing(
        params, impulses, dt, state.positions.ndim == 3)

    with np.errstate(invalid="ignore", over="ignore"):
        # one product over every point and episode: a row's result does not
        # depend on its place in it (tests check a batch against each chain)
        kicks = (noise.reshape(-1, 3) @ params.wind_diffusion.T).reshape((-1,) + one)
        kicks *= math.sqrt(dt)
        out = state.copy()
        _substeps(out, params, wind, forcing, dt, kicks)
        # a non-finite velocity makes the position it moves non-finite, and
        # any inf or nan makes a sum non-finite; a finite sum that overflows
        # only sends the block through the exact check below
        if math.isfinite(out.positions[1:-1].sum()):
            return out
        # a non-finite value stays non-finite, so replay one substep at a
        # time from the start to find the substep that produced it
        out = state.copy()
        for k in range(len(kicks)):
            t = out.time
            _substeps(out, params, wind, forcing, dt, kicks[k:k + 1])
            bad = ~(np.isfinite(out.positions[1:-1]).all(axis=-1)
                    & np.isfinite(out.velocities[1:-1]).all(axis=-1))
            if bad.any():
                # the lowest bad point, and the lowest episode holding it
                point, *episode = np.unravel_index(np.argmax(bad), bad.shape)
                raise IntegrationDivergedError(int(point) + 2, t, *map(int, episode))
    return out


def _substeps(state: WireState, params: WireParams, wind: WindModel,
              forcing: Forcing, dt: float, kicks: np.ndarray):
    """Advance `state` in place by one substep per row of the scaled noise.

    The velocity update is v + (acc - c*(v - v_o))*dt + kick, then
    x + v*dt; each operation keeps the operand order of that expression,
    and acts elementwise, so a block is bit for bit the same as one
    substep per call, and each episode of a batch the same as its chain
    alone.
    """
    x = state.positions[1:-1]
    v = state.velocities[1:-1]
    for kick in kicks:
        acc = interior_acceleration(state, params, forcing)
        drag = v - wind.velocity(state.time)
        drag *= params.drag_c
        acc -= drag
        acc *= dt
        v += acc
        v += kick
        x += v * dt
        state.time += dt


def trajectory(params: WireParams, wind: WindModel, impulses, dt: float,
               seed: int | Sequence[int], stride: int) -> Iterator[WireState]:
    """Endless seeded stream: the equilibrium, then the state after every
    `stride` substeps of length dt, making one `step` call per substep.

    One seed is one chain, and `impulses` its events.  A sequence of E
    seeds is a batch of E episodes advanced together, positions (N, E, 3),
    and `impulses` holds one sequence of events per episode.  Every
    stride, each episode draws one (stride, N-2, 3) standard normal block
    from its own default_rng(seed), so each episode of a batch is bit for
    bit the stream of its seed alone; one chain is the batch of one,
    yielded without its episode axis.  A chain that stops being finite
    raises IntegrationDivergedError.  In a batch the episode leaves
    instead: from that stride on its columns are NaN and `diverged` holds
    its error, and the other episodes go on untouched.
    """
    batched = np.ndim(seed) == 1
    seeds = list(seed) if batched else [seed]
    episodes = list(impulses) if batched else [impulses]
    rngs = [np.random.default_rng(s) for s in seeds]
    live = list(range(len(seeds)))  # the episodes still finite, in batch order
    forcing = Forcing(params, episodes, dt, True)
    eq = solve_equilibrium(params)
    shape = (params.n_points, len(seeds), 3)
    work = WireState(0.0, np.repeat(eq.positions[:, None], len(seeds), axis=1),
                     np.zeros(shape))
    diverged = {}
    while True:
        state = work
        if diverged:
            state = WireState(work.time, np.full(shape, np.nan), np.full(shape, np.nan),
                              dict(diverged))
            state.positions[:, live] = work.positions
            state.velocities[:, live] = work.velocities
        yield state if batched else WireState(state.time, state.positions[:, 0],
                                              state.velocities[:, 0])
        if not live:
            return
        noise = np.empty((stride, params.n_points - 2, len(live), 3))
        for j, e in enumerate(live):  # cheaper than np.stack
            noise[:, :, j] = rngs[e].standard_normal((stride, params.n_points - 2, 3))
        # one call per substep, not per stride: perfbench's per-layer test
        # counts ten `step` calls per tracking step
        k = 0
        while k < stride and live:
            try:
                work = step(work, params, wind, forcing, dt, noise[k])
                k += 1
            except IntegrationDivergedError as err:
                e = live.pop(err.episode)
                diverged[e] = IntegrationDivergedError(err.point_number, err.time)
                if not batched:
                    raise diverged[e] from None
                # the episode leaves the batch, and the others redo the substep
                keep = np.arange(len(live) + 1) != err.episode
                work = WireState(work.time, work.positions[:, keep], work.velocities[:, keep])
                noise = noise[:, :, keep]
                forcing = Forcing(params, [episodes[i] for i in live], dt, True)


def simulate_trajectory(params: WireParams, wind: WindModel,
                        impulses: Sequence[ImpulseEvent], duration: float,
                        dt: float, seed: int,
                        sample_every: float | None = None) -> list[WireState]:
    """Integrate from equilibrium and return sampled states.

    Samples every `sample_every` seconds (default: every substep); the
    sampling interval must be an integer multiple of dt.  The returned list
    includes the initial state.  Deterministic for a fixed seed.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if sample_every is None:
        stride = 1
    else:
        stride = int(round(sample_every / dt))
        if stride < 1 or abs(stride * dt - sample_every) > 1e-9 * dt:
            raise ValueError("sample_every must be a positive multiple of dt")
    n_samples = int(round(duration / dt)) // stride + 1
    return list(itertools.islice(trajectory(params, wind, impulses, dt, seed, stride),
                                 n_samples))


def write_trajectory_csv(path, samples: Sequence[WireState]):
    """Trajectory export: one row per (sample, point), written whole or not at all."""
    with atomic_open(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_s", "point_index", "x_m", "y_m", "z_m",
                    "vx_mps", "vy_mps", "vz_mps"])
        for st in samples:
            for i in range(st.positions.shape[0]):
                w.writerow([f"{st.time:.6f}", i + 1,
                            *(f"{v:.9f}" for v in st.positions[i]),
                            *(f"{v:.9f}" for v in st.velocities[i])])
