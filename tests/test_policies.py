"""Oracle and fixed-beam reference policies."""

import math

import numpy as np
import pytest

from wirebeam.channel import BeamOrientation, look_angles
from wirebeam.env import CENTER_ACTION, N_ACTIONS, apply_action
from wirebeam.policies import PolicyKind, fixed_action, oracle_action

from test_env import ACTION, make_env

A = math.radians(1.0)
RX = np.array([0.0, 5.0, 0.23])


def brute_best_action(node, rx, beam, a):
    """Independent 9-way comparison used to cross-check the oracle."""
    d = rx - node
    d = d / np.linalg.norm(d)
    best, best_ang = None, None
    for idx in range(9):
        cand = apply_action(beam, idx, a).unit_vector()
        ang = math.acos(max(-1.0, min(1.0, float(cand @ d))))
        if best is None or ang < best_ang:
            best, best_ang = idx, ang
    return best


def look_beam(node, rx):
    d = rx - node
    r = np.linalg.norm(d)
    return BeamOrientation(math.acos(d[2] / r), math.atan2(d[1], d[0]))


class TestOracle:
    def test_on_target_holds(self):
        node = np.zeros(3)
        beam = look_beam(node, RX)
        assert oracle_action(look_angles(node, RX), beam, A) == CENTER_ACTION

    def test_single_axis_step_up(self):
        node = np.zeros(3)
        aligned = look_beam(node, RX)
        # steer 1 degree low in zenith; the target is then 1 degree higher
        beam = BeamOrientation(aligned.theta_s - A, aligned.phi_s)
        assert oracle_action(look_angles(node, RX), beam, A) == ACTION[1, 0]

    def test_oblique_offset_matches_brute_force(self):
        node = np.zeros(3)
        aligned = look_beam(node, RX)
        beam = BeamOrientation(aligned.theta_s - math.radians(2.5),
                               aligned.phi_s + math.radians(1.7))
        got = oracle_action(look_angles(node, RX), beam, A)
        assert got == brute_best_action(node, RX, beam, A)

    def test_random_configurations_match_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            node = rng.normal(scale=0.5, size=3)
            beam = BeamOrientation(rng.uniform(0.3, math.pi - 0.3),
                                   rng.uniform(-math.pi, math.pi))
            assert oracle_action(look_angles(node, RX), beam, A) == \
                brute_best_action(node, RX, beam, A)

    def test_one_step_optimality_each_step(self):
        e = make_env(seed=17)
        for _ in range(50):
            a = oracle_action(e.look, e.beam, e.cfg.refine_angle)
            best = brute_best_action(e.true_node_position, e.channel_cfg.rx_position,
                                     e.beam, e.cfg.refine_angle)
            assert a == best
            e.step(a)

    def test_stationary_convergence_from_any_start(self):
        # reaches and holds angular error <= sqrt(2)*A/2 within bounded steps
        node = np.zeros(3)
        target, look = look_beam(node, RX), look_angles(node, RX)
        bound = math.degrees(math.sqrt(2.0) * A / 2.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            beam = BeamOrientation(target.theta_s + rng.uniform(-0.4, 0.4),
                                   target.phi_s + rng.uniform(-0.4, 0.4))
            for k in range(120):
                beam = apply_action(beam, oracle_action(look, beam, A), A)
            for _ in range(30):
                beam = apply_action(beam, oracle_action(look, beam, A), A)
                err = math.degrees(math.acos(max(-1.0, min(
                    1.0, float(beam.unit_vector() @ target.unit_vector())))))
                assert err <= bound + 1e-9


def nine_orientation_oracle(look, beam, a):
    """The oracle over nine `BeamOrientation`s, one `apply_action` per
    candidate: the reference `oracle_action` must match."""
    _, theta, phi = look
    target = BeamOrientation(theta, phi).unit_vector()
    best_action, best_angle = 0, math.inf
    for idx in range(N_ACTIONS):
        cand = apply_action(beam, idx, a).unit_vector()
        ang = math.acos(max(-1.0, min(1.0, float(cand @ target))))
        if ang < best_angle:
            best_action, best_angle = idx, ang
    return best_action


class TestOracleCandidates:
    # zeniths and azimuths at and next to the wrap points, where a candidate
    # steps past 0 or pi in zenith or past +-pi in azimuth
    EDGE_ZENITHS = [0.0, 1e-12, 0.3 * A, A, 1.5 * A, math.pi - 1.5 * A, math.pi - A,
                    math.pi - 0.3 * A, math.pi - 1e-12, math.pi]
    EDGE_AZIMUTHS = [math.pi, math.pi - 1e-12, math.pi - 0.3 * A, math.pi - A,
                     -math.pi + 1e-12, -math.pi + 0.3 * A, -math.pi + A, 0.0, -0.3 * A]

    def looks_near(self, beam, rng, n):
        """Look geometries of directions around the beam's, as a node sees them."""
        u = beam.unit_vector()
        return [look_angles(np.zeros(3), u + rng.normal(scale=s, size=3))
                for s in rng.choice([1e-3, 0.02, 0.1, 1.0], size=n)]

    @pytest.mark.parametrize("a", [A, math.radians(5.0)])
    def test_matches_nine_orientations_at_the_wrap_points(self, a):
        rng = np.random.default_rng(41)
        for theta in self.EDGE_ZENITHS:
            for phi in self.EDGE_AZIMUTHS:
                beam = BeamOrientation(theta, phi)
                for look in self.looks_near(beam, rng, 6):
                    assert oracle_action(look, beam, a) == nine_orientation_oracle(look, beam, a)

    def test_matches_nine_orientations_on_random_beams(self):
        rng = np.random.default_rng(42)
        chosen = set()
        for _ in range(2000):
            beam = BeamOrientation(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
            look = self.looks_near(beam, rng, 1)[0]
            got = oracle_action(look, beam, A)
            assert got == nine_orientation_oracle(look, beam, A)
            chosen.add(got)
        assert chosen == set(range(N_ACTIONS))

    def test_ties_resolve_to_the_lowest_index(self):
        # one step below zenith 0 every azimuth gives the same candidate
        beam = BeamOrientation(A, 0.4)
        look = look_angles(np.zeros(3), [0.0, 0.0, 1.0])
        assert oracle_action(look, beam, A) == nine_orientation_oracle(look, beam, A) \
            == ACTION[-1, -1]


class TestFixedBeam:
    def test_always_center(self):
        assert fixed_action() == CENTER_ACTION

    def test_orientation_never_changes(self):
        e = make_env(seed=6)
        theta0, phi0 = e.beam.theta_s, e.beam.phi_s
        for _ in range(300):
            e.step(fixed_action())
        assert e.beam.theta_s == theta0 and e.beam.phi_s == phi0

    def test_policy_kind_enum_is_exhaustive(self):
        assert {k.value for k in PolicyKind} == {"oracle", "fixed", "dqn"}


class TestDominance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_beats_fixed_on_paired_seeds(self, seed):
        powers = {}
        for name, policy in (("oracle", None), ("fixed", fixed_action)):
            e = make_env(seed=seed)
            total = []
            while not e.done:
                if name == "oracle":
                    a = oracle_action(e.look, e.beam, e.cfg.refine_angle)
                else:
                    a = policy()
                total.append(e.step(a).raw_power_dbm)
            powers[name] = np.mean(total)
        assert powers["oracle"] >= powers["fixed"]
        cum = {k: v * 300 for k, v in powers.items()}
        assert cum["oracle"] >= cum["fixed"]
