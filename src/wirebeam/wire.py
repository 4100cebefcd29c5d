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
act at once.  `simulate_trajectory` advances one sample stride per call;
the tracking environment makes one call per substep.

Point numbering follows the P1..PN convention: user-facing indices are
1-based, array storage is 0-based.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class IntegrationDivergedError(RuntimeError):
    """Raised when a state component stops being finite."""

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
    """Snapshot of the chain at one time instant."""

    time: float
    positions: np.ndarray   # (N, 3) [m]
    velocities: np.ndarray  # (N, 3) [m/s]

    def copy(self) -> "WireState":
        return WireState(self.time, self.positions.copy(), self.velocities.copy())


@dataclass(frozen=True)
class WindModel:
    """Mean wind velocity model v_o(t).

    The default is a per-axis sinusoid amplitude*sin(2*pi*t/period), zero at
    t = 0.  A custom callable overrides the sinusoids entirely.
    """

    amplitude: float = 5.0                                    # [m/s]
    periods: tuple[float, float, float] = (4.0, 6.0, 8.0)     # [s]
    mean_velocity_fn: Callable[[float], np.ndarray] | None = None

    def velocity(self, t: float) -> np.ndarray:
        if self.mean_velocity_fn is not None:
            return np.asarray(self.mean_velocity_fn(t), dtype=float)
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

    def active_at(self, t: float, dt: float) -> bool:
        """True when the force acts during the substep starting at t."""
        if self.duration_s is None:
            return t <= self.apply_time < t + dt
        # anchor to the substep that contains apply_time, then hold for
        # round(duration/dt) >= 1 substeps; tolerances absorb float drift
        # in the accumulated simulation clock
        first = math.floor(self.apply_time / dt + 1e-9) * dt
        n_sub = max(1, int(round(self.duration_s / dt)))
        eps = 1e-6 * dt
        return first - eps <= t < first + n_sub * dt - eps


def interior_acceleration(state: WireState, params: WireParams,
                          impulses: Sequence[ImpulseEvent] = (),
                          dt: float | None = None) -> np.ndarray:
    """Acceleration of the interior points: gravity + tensile coupling (+ impulses).

    Returns a new (N-2, 3) array.  The impulses contribute only when a
    substep length dt is supplied; every event active during
    [state.time, +dt) adds its force.
    """
    x = state.positions
    acc = x[2:] + x[:-2]
    acc -= 2.0 * x[1:-1]
    acc *= params.spring_accel_coeff
    acc += params.gravity
    if dt is not None:
        for ev in impulses:
            if ev.active_at(state.time, dt):
                acc[ev.point_number - 2] += (params.n_points / params.mass_total) * ev.force
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
         impulses: Sequence[ImpulseEvent], dt: float, noise: np.ndarray) -> WireState:
    """Advance a block of Euler-Maruyama substeps of length dt.

    noise holds standard normal draws supplied by the caller: an (n, N-2, 3)
    array advances n substeps, an (N-2, 3) array one.  Every event in
    `impulses` that is active during a substep adds its force there.
    Endpoints are never touched, and the input state is not modified.

    Raises IntegrationDivergedError naming the first non-finite point and
    the start time of the substep that produced it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_int = params.n_points - 2
    if noise.ndim not in (2, 3) or noise.shape[-2:] != (n_int, 3):
        raise ValueError(f"noise must have shape ({n_int}, 3) or (n, {n_int}, 3), "
                         f"got {noise.shape}")

    with np.errstate(invalid="ignore", over="ignore"):
        kicks = noise.reshape(-1, n_int, 3) @ params.wind_diffusion.T
        kicks *= math.sqrt(dt)
        out = state.copy()
        _substeps(out, params, wind, impulses, dt, kicks)
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
            _substeps(out, params, wind, impulses, dt, kicks[k:k + 1])
            bad = ~(np.isfinite(out.positions[1:-1]).all(axis=1)
                    & np.isfinite(out.velocities[1:-1]).all(axis=1))
            if bad.any():
                raise IntegrationDivergedError(int(np.argmax(bad)) + 2, t)
    return out


def _substeps(state: WireState, params: WireParams, wind: WindModel,
              impulses: Sequence[ImpulseEvent], dt: float, kicks: np.ndarray):
    """Advance `state` in place by one substep per row of the scaled noise.

    The velocity update is v + (acc - c*(v - v_o))*dt + kick, then
    x + v*dt; each operation keeps the operand order of that expression,
    so a block is bit for bit the same as one substep per call.
    """
    x = state.positions[1:-1]
    v = state.velocities[1:-1]
    for kick in kicks:
        acc = interior_acceleration(state, params, impulses, dt)
        drag = v - wind.velocity(state.time)
        drag *= params.drag_c
        acc -= drag
        acc *= dt
        v += acc
        v += kick
        x += v * dt
        state.time += dt


def simulate_trajectory(params: WireParams, wind: WindModel,
                        impulses: Sequence[ImpulseEvent], duration: float,
                        dt: float, seed: int,
                        sample_every: float | None = None,
                        initial: WireState | None = None) -> list[WireState]:
    """Integrate from equilibrium (or `initial`) and return sampled states.

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
    for ev in impulses:
        ev.validate_for(params)

    rng = np.random.default_rng(seed)
    state = initial.copy() if initial is not None else solve_equilibrium(params)
    samples = [state]
    n_steps = int(round(duration / dt))
    for start in range(0, n_steps, stride):
        block = min(stride, n_steps - start)
        noise = rng.standard_normal((block, params.n_points - 2, 3))
        state = step(state, params, wind, impulses, dt, noise)
        if block == stride:
            samples.append(state)
    return samples


def write_trajectory_csv(path, samples: Sequence[WireState]):
    """Trajectory export: one row per (sample, point)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_s", "point_index", "x_m", "y_m", "z_m",
                    "vx_mps", "vy_mps", "vz_mps"])
        for st in samples:
            for i in range(st.positions.shape[0]):
                w.writerow([f"{st.time:.6f}", i + 1,
                            *(f"{v:.9f}" for v in st.positions[i]),
                            *(f"{v:.9f}" for v in st.velocities[i])])
