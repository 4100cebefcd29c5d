"""Non-learned reference policies.

The oracle reads the node's true, delay-free look geometry and takes
whichever of the nine grid actions leaves the beam closest (great-circle)
to the exact look direction, so it is the apples-to-apples upper
reference for any grid-constrained tracker.  The fixed-beam baseline
never moves.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .channel import BeamOrientation, Look, wrap_azimuth, wrap_zenith
from .env import CENTER_ACTION


class PolicyKind(enum.Enum):
    ORACLE = "oracle"
    FIXED_BEAM = "fixed"
    DQN_GREEDY = "dqn"


def oracle_action(look: Look, beam: BeamOrientation, refine_angle: float) -> int:
    """Grid action minimizing the post-action angle to the look direction
    `look`.  Ties resolve to the lowest index.

    The nine candidates are the unit vectors of `apply_action`'s steerings,
    built from its three wrapped zenith and three wrapped azimuth angles
    by `BeamOrientation.unit_vector`'s expressions, and `ndarray.dot` is
    the BLAS dot that `@` calls on two vectors, so each candidate and angle
    has the bits it would have through nine `apply_action` steerings.
    """
    _, theta, phi = look
    target = BeamOrientation(theta, phi).unit_vector()
    azimuths = [wrap_azimuth(beam.phi_s + d * refine_angle) for d in (-1, 0, 1)]
    azimuth_cs = [(math.cos(p), math.sin(p)) for p in azimuths]
    best_action, best_angle = 0, math.inf
    for i, d_theta in enumerate((-1, 0, 1)):  # action index 3 * i + j, zenith slow
        zenith = wrap_zenith(beam.theta_s + d_theta * refine_angle)
        st, ct = math.sin(zenith), math.cos(zenith)
        for j, (cp, sp) in enumerate(azimuth_cs):
            candidate = np.array([st * cp, st * sp, ct])
            ang = math.acos(max(-1.0, min(1.0, float(candidate.dot(target)))))
            if ang < best_angle:
                best_action, best_angle = 3 * i + j, ang
    return best_action


def fixed_action() -> int:
    """The do-nothing action; the beam stays at its initial angle."""
    return CENTER_ACTION
