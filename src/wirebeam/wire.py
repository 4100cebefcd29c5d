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

Every state is a batch of E episodes' chains, positions (N, E, 3); the
paper's one chain is the batch of one.  `step` is the per-substep kernel
and does only its arithmetic: it advances a state in place by one substep
per row of scaled Wiener kicks and of mean wind, (n, N-2, E, 3), and n
rows are bit for bit n one-row calls.  A `Forcing`, built once per
stream, holds its constants: gravity at that shape, the spring
coefficient, drag rate and dt as 0-d arrays, and each impulse's window.
`step` copies nothing and guards no float error: a value that overflows
is left inf or NaN.  `wiener_kicks` is the one place that scales the
noise, and `WindModel.velocities` the one owner of the mean wind.
`trajectory` is the one seeded wire stream, and does the rest once per
stride: it draws the noise, computes the stride's kicks in one product
and its mean-wind block in one call, copies the state it will yield,
ignores float errors around the stride's `step` calls, and finds a
divergence.  It yields the equilibrium, then the state after every
stride, each episode bit for bit its batch of one.  No yielded state
changes afterwards: the env's `EpisodeBatch` keeps them all as its
sensor history.  `WireState.episode` reads one episode, or raises its
divergence.  `simulate_trajectory` returns a finite slice of one chain.

Point numbering follows the P1..PN convention: user-facing indices are
1-based, array storage is 0-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .files import write_csv


class IntegrationDivergedError(RuntimeError):
    """A chain stopped being finite: its lowest non-finite point after the
    first substep that made one, and that substep's start time."""

    def __init__(self, point_number: int, time: float):
        self.point_number = point_number
        self.time = time
        super().__init__(
            f"integration diverged at P{point_number} (t = {time:.6f} s); "
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
    """Snapshot of a batch of E episodes' chains at one time instant.

    The arrays are (N, E, 3): the episode axis follows the point axis, so
    the interior points of every episode are one contiguous block and each
    update is one numpy loop over it (a leading episode axis took twice as
    long per substep at E = 3).  `diverged` maps each episode whose state
    stopped being finite to its error; its columns hold NaN.  One
    episode's (N, 3) state, from `episode` or `solve_equilibrium`, has the
    same fields without the episode axis.
    """

    time: float
    positions: np.ndarray   # (N, E, 3) [m]
    velocities: np.ndarray  # as positions [m/s]
    diverged: dict[int, IntegrationDivergedError] = field(default_factory=dict)

    def copy(self) -> "WireState":
        return WireState(self.time, self.positions.copy(), self.velocities.copy(),
                         dict(self.diverged))

    def episode(self, e: int) -> "WireState":
        """Episode e's (N, 3) state, a view into the batch.  Once the episode
        diverged, raises its stored IntegrationDivergedError instead, with a
        traceback of this call alone."""
        if e in self.diverged:
            raise self.diverged[e].with_traceback(None)
        return WireState(self.time, self.positions[:, e], self.velocities[:, e])


@dataclass(frozen=True)
class WindModel:
    """Mean wind velocity v_o(t): per axis amplitude*sin(2*pi*t/period)."""

    amplitude: float                   # [m/s]
    periods: tuple[float, float, float]  # [s]

    def __post_init__(self):
        if not all(p > 0 for p in self.periods):
            raise ValueError(f"wind periods must be positive, got {self.periods}")

    def velocities(self, t: float, dt: float, n: int) -> np.ndarray:
        """(n, 3): v_o at n substep starts from t, dt added as `step` adds it."""
        a = self.amplitude
        return np.array([[a * math.sin(2.0 * math.pi * s / p) for p in self.periods]
                         for s in itertools.accumulate([dt] * (n - 1), initial=t)])


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
    """What substeps of dt add on the points of a state, built once per
    stream.  Gravity is broadcast to the interior shape, and the spring
    coefficient, drag rate and dt are 0-d float64 arrays: the same bits,
    without broadcasting a (3,) operand or converting a float per substep.
    `impulses` holds one sequence of events per episode; each event's
    index, acceleration (N/m)*F and window are computed once, here, and it
    acts in every substep it covers."""

    def __init__(self, params: WireParams, wind: WindModel,
                 impulses: Sequence[Sequence[ImpulseEvent]], dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.shape = (params.n_points - 2, len(impulses), 3)
        self.wind, self.dt = wind, dt
        self.gravity = np.broadcast_to(params.gravity, self.shape).copy()
        self.coeff, self.drag_c, self.dt_op = (
            np.array(float(c)) for c in (params.spring_accel_coeff, params.drag_c, dt))
        per_mass = params.n_points / params.mass_total
        self._pushes = []
        for e, events in enumerate(impulses):
            for ev in events:
                ev.validate_for(params)
                with np.errstate(over="ignore"):  # `trajectory` reports what overflows
                    self._pushes.append(((ev.point_number - 2, e), per_mass * ev.force,
                                         ev.acts(dt)))

    def add(self, acc: np.ndarray, t: float):
        """Add the acceleration of every event active at substep start t."""
        for at, accel, acts in self._pushes:
            if acts(t):
                acc[at] += accel

    def mean_wind(self, t: float, n: int) -> np.ndarray:
        """The mean wind of n substeps from t, shaped like n rows of kicks."""
        rows = self.wind.velocities(t, self.dt, n)[:, None]
        cells = math.prod(self.shape[:-1])  # interior points, times episodes
        return np.repeat(rows, cells, axis=1).reshape((n,) + self.shape)


def solve_equilibrium(params: WireParams) -> WireState:
    """Static shape of one chain, (N, 3), with no wind and no impulse.

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


def sag_depth(params: WireParams, eq: WireState | None = None) -> float:
    """Vertical drop of the midpoint node below the endpoints, s0 [m], in
    the equilibrium `eq` of `params`, solved here when not given."""
    if eq is None:
        eq = solve_equilibrium(params)
    return float(eq.positions[0, 2] - eq.positions[(params.n_points - 1) // 2, 2])


def wiener_kicks(params: WireParams, dt: float, noise: np.ndarray) -> np.ndarray:
    """The scaled Wiener increments sqrt(dt) * D @ xi of the standard normal
    draws `noise`, any block whose last axis is 3.  It is one product over
    every row, and a row's result does not depend on its place in the
    block (tests check a stride against each substep and each episode)."""
    kicks = (noise.reshape(-1, 3) @ params.wind_diffusion.T).reshape(noise.shape)
    kicks *= math.sqrt(dt)
    return kicks


def step(state: WireState, forcing: Forcing, kicks: np.ndarray, winds: np.ndarray):
    """Advance `state` in place by one Euler-Maruyama substep of dt per
    row of `kicks` and of `winds`, the mean wind v_o.

    The state is a batch of E episodes, positions (N, E, 3); `forcing` is
    built for its E episodes, and kicks (`wiener_kicks`) and winds
    (`forcing.mean_wind`) are (n, N-2, E, 3).  The interior acceleration
    is the tensile coupling (k0*N/m)*(x[i+1] + x[i-1] - 2*x[i]) plus
    gravity plus every impulse active during the substep.  The velocity update is
    v + (acc - c*(v - v_o))*dt + kick, then x + v*dt; each operation keeps
    the operand order of those expressions, and acts elementwise, so n
    rows are bit for bit n one-row calls, and each episode of a batch its
    batch of one.  Endpoints are never touched.  A value that overflows is
    left inf or NaN, and stays so in later substeps; the caller guards
    float errors, copies what it keeps, and finds a divergence.
    """
    if kicks.shape[1:] != forcing.shape or winds.shape != kicks.shape:
        raise ValueError(f"kicks must have shape (n, {str(forcing.shape)[1:]}, and winds "
                         f"the same, got {kicks.shape} and {winds.shape}")
    pos = state.positions
    x, x_lo, x_hi = pos[1:-1], pos[:-2], pos[2:]
    v = state.velocities[1:-1]
    coeff, gravity, drag_c = forcing.coeff, forcing.gravity, forcing.drag_c
    dt, t = forcing.dt_op, state.time
    for kick, wind in zip(kicks, winds):
        acc = x_hi + x_lo
        acc -= x + x  # 2*x, exactly, without a scalar operand to convert
        acc *= coeff
        acc += gravity
        forcing.add(acc, t)
        drag = v - wind
        drag *= drag_c
        acc -= drag
        acc *= dt
        v += acc
        v += kick
        x += v * dt
        t += forcing.dt
    state.time = t


def _finite(state: WireState) -> np.ndarray:
    """Whether each interior point of each episode is finite, (N-2, E)."""
    return (np.isfinite(state.positions[1:-1]).all(axis=-1)
            & np.isfinite(state.velocities[1:-1]).all(axis=-1))


def _divergence(start: WireState, forcing: Forcing, kicks: np.ndarray,
                winds: np.ndarray) -> IntegrationDivergedError:
    """The error of a batch of one that stops being finite within the
    substeps of `kicks` and `winds` from `start`, found by replaying a copy
    of it one substep at a time: a non-finite value stays non-finite, so
    the first substep that leaves a point non-finite names the divergence."""
    state = start.copy()
    for k in range(len(kicks)):
        t = state.time
        step(state, forcing, kicks[k:k + 1], winds[k:k + 1])
        bad = ~_finite(state)
        if bad.any():
            break
    return IntegrationDivergedError(int(np.argmax(bad)) + 2, t)


def trajectory(params: WireParams, wind: WindModel,
               impulses: Sequence[Sequence[ImpulseEvent]], dt: float,
               seeds: Sequence[int], stride: int) -> Iterator[WireState]:
    """Endless seeded stream of a batch of E episodes, one per seed and per
    sequence of events in `impulses`: the equilibrium, then the state after
    every `stride` substeps of length dt, making one `step` call per substep.

    Every stride, each episode draws one (stride, N-2, 3) standard normal
    block from its own default_rng(seed), in place into its row of one
    (E, stride, N-2, 3) array, and one `wiener_kicks` product turns it into
    the stride's (stride, N-2, E, 3) kicks.  So each episode is bit for bit
    its batch of one.  Each stride also computes its mean-wind block, makes
    one copy, the state it advances in place and yields, and ignores float
    errors once, around its `step` calls and any replay.  A stride that
    leaves a value non-finite finds the episodes that stopped being finite
    in it, and `_divergence` names each one's point and time by replaying
    its column from the same kicks and winds.  The episode's
    columns are NaN from that state on, `diverged` holds its error (which
    `WireState.episode` raises), and the others go on untouched until every
    episode diverged.  A stride below 1, an `impulses` whose length is not
    the number of seeds, or a dt that is not positive is refused at the
    first `next()`.
    """
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if len(impulses) != len(seeds):
        raise ValueError(f"impulses must hold one sequence of events per seed, "
                         f"got {len(impulses)} for {len(seeds)} seeds")
    rngs = [np.random.default_rng(s) for s in seeds]
    forcing = Forcing(params, wind, impulses, dt)
    eq = solve_equilibrium(params)
    work = WireState(0.0, np.repeat(eq.positions[:, None], len(rngs), axis=1),
                     np.zeros((params.n_points, len(rngs), 3)))
    blocks = np.empty((len(rngs), stride, params.n_points - 2, 3))
    while True:
        yield work
        if len(work.diverged) == len(rngs):
            return
        for block, rng in zip(blocks, rngs):
            rng.standard_normal(out=block)
        start, work = work, work.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            kicks = wiener_kicks(params, dt, blocks.transpose(1, 2, 0, 3))
            winds = forcing.mean_wind(work.time, stride)
            # one call per substep, not per stride: perfbench's per-layer test
            # counts ten `step` calls per tracking step
            for k in range(stride):
                step(work, forcing, kicks[k:k + 1], winds[k:k + 1])
            if np.isfinite(work.positions).all() and np.isfinite(work.velocities).all():
                continue
            # exact once per stride: no substep turns an inf or NaN finite again
            bad = ~_finite(work).all(axis=0)
            bad[list(work.diverged)] = False  # their columns are NaN already
            for e in np.flatnonzero(bad).tolist():
                one = np.s_[..., e:e + 1, :]  # episode e as a batch of one
                work.diverged[e] = _divergence(
                    WireState(start.time, start.positions[one], start.velocities[one]),
                    Forcing(params, wind, impulses[e:e + 1], dt), kicks[one], winds[one])
                work.positions[:, e] = np.nan
                work.velocities[:, e] = np.nan


def simulate_trajectory(params: WireParams, wind: WindModel,
                        impulses: Sequence[ImpulseEvent], duration: float,
                        dt: float, seed: int,
                        sample_every: float | None = None) -> list[WireState]:
    """Integrate one chain from equilibrium and return its sampled (N, 3)
    states: `trajectory`'s batch of one, read through `WireState.episode`,
    so a chain that diverges within `duration` raises its error.

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
    stream = trajectory(params, wind, [impulses], dt, [seed], stride)
    return [state.episode(0) for state in itertools.islice(stream, n_samples)]


def write_trajectory_csv(path, samples: Sequence[WireState]):
    """Trajectory export: one row per (sample, point), written whole or not at all."""
    write_csv(path, ["time_s", "point_index", "x_m", "y_m", "z_m",
                     "vx_mps", "vy_mps", "vz_mps"],
              ([f"{st.time:.6f}", i + 1, *(f"{v:.9f}" for v in st.positions[i]),
                *(f"{v:.9f}" for v in st.velocities[i])]
               for st in samples for i in range(st.positions.shape[0])))
