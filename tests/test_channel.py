"""Channel model: geometry, element pattern, array factor, link budget."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wirebeam import channel as ch
from wirebeam.config import default_config

TABLE = default_config()
TABLE_ARRAY = TABLE.array  # 32 x 8, rho = 1, 2.5 mm spacing
LAMBDA = 0.005


def channel_to(rx_position, **overrides) -> ch.ChannelConfig:
    """The table's link budget with the receiver at `rx_position`."""
    return replace(TABLE.channel, rx_position=rx_position, **overrides)


def power_from(tx, beam, cfg: ch.ChannelConfig) -> float:
    """Received power of the node at `tx`, through its look geometry."""
    return ch.received_power(ch.look_angles(tx, cfg.rx_position), beam, cfg, TABLE_ARRAY)


def brute_force_af_db(theta, phi, beam, cfg, wavelength):
    """Independent oracle: direct complex summation over every element."""
    psi_p = math.cos(theta + beam.theta_s) - math.cos(beam.theta_s)
    psi_r = (math.sin(theta + beam.theta_s) * math.sin(phi + beam.phi_s)
             - math.sin(beam.theta_s) * math.sin(beam.phi_s))
    n = cfg.n_vertical * cfg.n_horizontal
    amp = 1.0 / n if cfg.amplitude_norm == "paper_literal" else 1.0 / math.sqrt(n)
    total = 0.0 + 0.0j
    for p in range(1, cfg.n_vertical + 1):
        for r in range(1, cfg.n_horizontal + 1):
            phase = 2.0 * math.pi * ((p - 1) * cfg.spacing_v * psi_p
                                     + (r - 1) * cfg.spacing_h * psi_r) / wavelength
            total += amp * complex(math.cos(phase), math.sin(phase))
    inner = 1.0 + cfg.corr_coeff * (abs(total) ** 2 - 1.0)
    return 10.0 * math.log10(inner) if inner > 0 else -math.inf


class TestWrapping:
    @pytest.mark.parametrize("phi,expected", [
        (0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi),
        (3 * math.pi / 2, -math.pi / 2), (2 * math.pi + 0.1, 0.1),
        (-0.3, -0.3),
    ])
    def test_wrap_azimuth(self, phi, expected):
        assert ch.wrap_azimuth(phi) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("theta,expected", [
        (0.0, 0.0), (math.pi, math.pi), (math.pi + 0.2, math.pi - 0.2),
        (-0.2, 0.2), (2 * math.pi + 0.3, 0.3),
    ])
    def test_wrap_zenith(self, theta, expected):
        assert ch.wrap_zenith(theta) == pytest.approx(expected, abs=1e-12)

    def test_beam_orientation_wraps_on_construction(self):
        beam = ch.BeamOrientation(math.pi + 0.1, 3 * math.pi)
        assert beam.theta_s == pytest.approx(math.pi - 0.1)
        assert beam.phi_s == pytest.approx(math.pi)


class TestAodGeometry:
    def test_boresight_alignment(self):
        r, theta_aod, phi_aod = ch.aod_geometry(ch.look_angles([0, 0, 0], [0, 5, 0]),
                                                ch.BeamOrientation(math.pi / 2, math.pi / 2))
        assert r == pytest.approx(5.0)
        assert theta_aod == pytest.approx(0.0, abs=1e-12)
        assert phi_aod == pytest.approx(0.0, abs=1e-12)

    def test_directly_overhead(self):
        _, theta_aod, _ = ch.aod_geometry(ch.look_angles([0, 0, 0], [0, 0, 5]),
                                          ch.BeamOrientation(0.0, 0.0))
        assert theta_aod == pytest.approx(0.0, abs=1e-12)

    def test_offset_transmitter_trigonometry(self):
        # independent hand computation: r = sqrt(25.01), zenith = acos(0.1/r)
        r, theta_aod, _ = ch.aod_geometry(ch.look_angles([0, 0, -0.1], [0, 5, 0]),
                                          ch.BeamOrientation(0.0, 0.0))
        assert r == pytest.approx(math.sqrt(25.01), rel=1e-12)
        assert theta_aod == pytest.approx(math.acos(0.1 / math.sqrt(25.01)), rel=1e-12)

    @settings(max_examples=300, database=None)
    @given(*[st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3,
                      max_size=3)] * 2)
    @example([0.0, 0.0, 0.0], [1e200, -3.0, 2e160])      # the square overflows
    @example([-1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0])  # the difference overflows
    @example([0.0, 0.0, 0.0], [1e-170, 0.0, 0.0])        # the square underflows
    def test_range_is_the_norm_bit_for_bit(self, tx, rx):
        with np.errstate(all="ignore"):  # the angles of an infinite range are nan
            norm = float(np.linalg.norm(np.asarray(rx, float) - np.asarray(tx, float)))
            if norm == 0.0:
                with pytest.raises(ch.GeometryDegenerateError):
                    ch.look_angles(tx, rx)
                return
            assert ch.look_angles(tx, rx)[0].hex() == norm.hex()

    def test_coincident_positions_raise(self):
        with pytest.raises(ch.GeometryDegenerateError):
            ch.look_angles([1, 2, 3], [1, 2, 3])

    def test_inverse_consistency(self):
        # steering at the absolute look angles zeroes the relative angles
        rng = np.random.default_rng(5)
        for _ in range(20):
            look = ch.look_angles(rng.normal(scale=1.0, size=3), [0.3, 4.7, 0.2])
            _, theta_aod, phi_aod = ch.aod_geometry(look, ch.BeamOrientation(look[1], look[2]))
            assert abs(theta_aod) < 1e-12
            assert abs(phi_aod) < 1e-12


class TestElementGain:
    def test_boresight_max(self):
        assert ch.element_gain(0.0, 0.0) == pytest.approx(8.0)

    def test_half_power_width(self):
        assert ch.element_gain(math.radians(65.0 / 2), 0.0) == pytest.approx(5.0)
        assert ch.element_gain(0.0, math.radians(65.0 / 2)) == pytest.approx(5.0)

    def test_backlobe_floor(self):
        # parabolic attenuation clamps at the 30 dB floor
        assert ch.element_gain(math.pi, 0.7) == pytest.approx(8.0 - 30.0)
        assert ch.element_gain(math.pi, math.pi) == pytest.approx(-22.0)


class TestArrayFactor:
    def test_boresight_paper_literal_is_zero(self):
        for beam in (ch.BeamOrientation(math.pi / 2, math.pi / 2),
                     ch.BeamOrientation(1.2, -0.4),
                     ch.BeamOrientation(0.3, 2.0)):
            assert ch.array_factor(0.0, 0.0, beam, TABLE_ARRAY, LAMBDA) == \
                pytest.approx(0.0, abs=1e-12)

    def test_boresight_power_norm_gain(self):
        cfg = replace(TABLE_ARRAY, amplitude_norm="power_norm")
        beam = ch.BeamOrientation(math.pi / 2, math.pi / 2)
        assert ch.array_factor(0.0, 0.0, beam, cfg, LAMBDA) == \
            pytest.approx(10.0 * math.log10(256), rel=1e-9)

    def test_near_null_of_vertical_cut(self):
        # first null of the 32-element cut: Psi_p = lambda / (n_v * d_v)
        beam = ch.BeamOrientation(math.pi / 2, math.pi / 2)
        psi_null = LAMBDA / (32 * 0.0025)
        theta = -math.asin(psi_null)  # cos(theta + pi/2) = -sin(theta) = psi_null
        af = ch.array_factor(theta, 0.0, beam, TABLE_ARRAY, LAMBDA)
        assert af <= -40.0
        brute = brute_force_af_db(theta, 0.0, beam, TABLE_ARRAY, LAMBDA)
        assert af == pytest.approx(brute, abs=1e-9) or (af == -math.inf and brute < -200)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            beam = ch.BeamOrientation(rng.uniform(0.2, math.pi - 0.2),
                                      rng.uniform(-math.pi, math.pi))
            theta = rng.uniform(-1.0, 1.0)
            phi = rng.uniform(-1.0, 1.0)
            for norm in ("paper_literal", "power_norm"):
                cfg = replace(TABLE_ARRAY, amplitude_norm=norm)
                got = ch.array_factor(theta, phi, beam, cfg, LAMBDA)
                want = brute_force_af_db(theta, phi, beam, cfg, LAMBDA)
                assert got == pytest.approx(want, abs=1e-9)

    def test_boresight_is_the_maximum_on_the_grid(self):
        grid = np.radians(np.arange(-60.0, 61.0, 1.0))
        for norm in ("paper_literal", "power_norm"):
            cfg = replace(TABLE_ARRAY, amplitude_norm=norm)
            for beam in (ch.BeamOrientation(math.pi / 2, math.pi / 2),
                         ch.BeamOrientation(1.3, 0.7)):
                best = ch.array_factor(0.0, 0.0, beam, cfg, LAMBDA)
                worst = max(ch.array_factor(t, p, beam, cfg, LAMBDA)
                            for t in grid for p in grid
                            if (t, p) != (0.0, 0.0))
                assert best >= worst - 1e-12

    def test_vertical_cut_symmetry(self):
        beam = ch.BeamOrientation(math.pi / 2, 0.8)
        for theta in np.linspace(0.01, 1.0, 25):
            a = ch.array_factor(theta, 0.0, beam, TABLE_ARRAY, LAMBDA)
            b = ch.array_factor(-theta, 0.0, beam, TABLE_ARRAY, LAMBDA)
            assert a == pytest.approx(b, abs=1e-9)

    def test_bounds_for_both_norms(self):
        rng = np.random.default_rng(7)
        power_cfg = replace(TABLE_ARRAY, amplitude_norm="power_norm")
        cap = 10.0 * math.log10(256)
        for _ in range(300):
            beam = ch.BeamOrientation(rng.uniform(0, math.pi),
                                      rng.uniform(-math.pi, math.pi))
            theta, phi = rng.uniform(-math.pi, math.pi, size=2)
            assert ch.array_factor(theta, phi, beam, TABLE_ARRAY, LAMBDA) <= 1e-12
            assert ch.array_factor(theta, phi, beam, power_cfg, LAMBDA) <= cap + 1e-9


class TestReceivedPower:
    def test_friis_free_space_value(self):
        # independent Friis computation at r = 5 m, perfect boresight
        cfg = channel_to([0, 5, 0])
        beam = ch.BeamOrientation(math.pi / 2, math.pi / 2)
        got = power_from([0, 0, 0], beam, cfg)
        path_loss = 20.0 * math.log10(4.0 * math.pi * 5.0 / 0.005)
        assert got == pytest.approx(23.0 + 8.0 + 8.0 - path_loss, abs=1e-9)
        assert got == pytest.approx(-42.9842, abs=0.01)

    def test_doubling_range_costs_6db(self):
        beam = ch.BeamOrientation(math.pi / 2, math.pi / 2)
        p5 = power_from([0, 0, 0], beam, channel_to([0, 5, 0]))
        p10 = power_from([0, 0, 0], beam, channel_to([0, 10, 0]))
        assert p5 - p10 == pytest.approx(20.0 * math.log10(2.0), rel=1e-9)

    def test_tx_power_shifts_additively(self):
        beam = ch.BeamOrientation(1.4, 1.2)
        base = channel_to([0.4, 4.0, 0.3])
        up = channel_to([0.4, 4.0, 0.3], tx_power_dbm=base.tx_power_dbm + 7.5)
        tx = [0.1, -0.2, 0.05]
        delta = power_from(tx, beam, up) - power_from(tx, beam, base)
        assert delta == pytest.approx(7.5, abs=1e-12)

    def test_misalignment_drop_equals_gain_difference(self):
        # same range, so the power drop is exactly the transmit-gain drop
        cfg = channel_to([0, 5, 0])
        aligned = ch.BeamOrientation(math.pi / 2, math.pi / 2)
        flipped = ch.BeamOrientation(math.pi / 2, -math.pi / 2)
        tx = [0, 0, 0]

        def g_tx(beam):
            _, theta_aod, phi_aod = ch.aod_geometry(ch.look_angles(tx, cfg.rx_position), beam)
            return (ch.element_gain(theta_aod, phi_aod)
                    + ch.array_factor(theta_aod, phi_aod, beam, TABLE_ARRAY, cfg.wavelength))

        drop = power_from(tx, aligned, cfg) - power_from(tx, flipped, cfg)
        assert drop == pytest.approx(g_tx(aligned) - g_tx(flipped), abs=1e-9)

    @pytest.mark.parametrize("array", [TABLE_ARRAY,
                                       replace(TABLE_ARRAY, amplitude_norm="power_norm"),
                                       replace(TABLE_ARRAY, n_vertical=6, n_horizontal=5)])
    def test_boresight_power_is_received_power_at_exact_aim(self, array):
        cfg = channel_to([0.3, 5.0, 0.4])
        rng = np.random.default_rng(3)
        for tx in [[0, 0, 0], *rng.uniform(-2.0, 2.0, size=(50, 3))]:
            look = ch.look_angles(tx, cfg.rx_position)
            aimed = ch.received_power(look, ch.BeamOrientation(look[1], look[2]), cfg, array)
            assert ch.boresight_power(cfg, array)(look) == pytest.approx(aimed, abs=1e-9)

    def test_beta_default_is_free_space(self):
        cfg = TABLE.channel
        assert cfg.beta_db == pytest.approx(20.0 * math.log10(0.005 / (4 * math.pi)))
        cfg2 = replace(cfg, pathloss_ref_db=-60.0)
        assert cfg2.beta_db == -60.0


class TestPatternExport:
    def test_pattern_csv(self, tmp_path):
        path = tmp_path / "pattern.csv"
        ch.write_pattern_csv(path, ch.BeamOrientation(math.pi / 2, math.pi / 2),
                             channel_to([0, 5, 0]), TABLE_ARRAY,
                             span_deg=5.0, step_deg=1.0)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta_deg,phi_deg,af_db,element_db,total_db"
        assert len(lines) == 1 + 11 * 11
