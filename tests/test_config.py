"""Config parsing, defaults, provenance, validation."""

import dataclasses
import math

import numpy as np
import pytest

from wirebeam import config as cfgmod
from wirebeam.channel import ArrayConfig, ChannelConfig, boresight_power, look_angles
from wirebeam.config import (ConfigError, ExperimentConfig, SweepSpec, build_config,
                             default_config, parse_file)
from wirebeam.dqn import TrainConfig
from wirebeam.env import EnvConfig
from wirebeam.wire import WindModel, solve_equilibrium


class TestDefaultsMatchTableParameters:
    def test_wire_and_channel_rows(self):
        cfg = default_config()
        assert cfg.wire.n_points == 21
        assert cfg.wire.mass_total == 10.0
        assert cfg.wire.spring_k == 1000.0
        assert cfg.wire.drag_c == 1.0
        np.testing.assert_allclose(cfg.wire.gravity, [0, 0, -9.8])
        np.testing.assert_allclose(cfg.wire.wind_diffusion, 0.1 * np.eye(3))
        assert cfg.wire.endpoint_separation == 10.0
        assert cfg.channel.tx_power_dbm == 23.0
        assert cfg.channel.wavelength == 0.005
        assert cfg.channel.rx_gain_dbi == 8.0
        assert cfg.channel.rx_position[1] == 5.0  # road width d_r
        assert cfg.array.n_vertical == 32
        assert cfg.array.n_horizontal == 8
        assert cfg.array.corr_coeff == 1.0
        assert cfg.array.spacing_v == 0.0025
        assert cfg.array.spacing_h == 0.0025
        assert cfg.env.tx_point == 10
        assert cfg.env.tau == 0.01
        assert cfg.env.refine_angle == pytest.approx(math.radians(1.0))
        assert cfg.env.episode_duration == 3.0
        assert cfg.train.discount == 0.99
        assert cfg.train.epsilon_train == 0.2
        assert cfg.train.learning_rate == 1e-4
        assert cfg.train.sample_block == 2048
        assert cfg.train.minibatch == 32
        assert cfg.train.epochs == 8
        assert cfg.train.outer_iterations == 4
        assert cfg.train.target_sync_steps == 3000
        assert cfg.train.total_steps == 100_000
        assert cfg.train.hidden_sizes == (128, 128, 128)

    def test_wind_model_rows(self):
        cfg = default_config()
        np.testing.assert_allclose(cfg.wind.velocities(1.0, 1e-3, 1)[0],
                                   [5.0, 5 * math.sin(math.pi / 3),
                                    5 * math.sin(math.pi / 4)], rtol=1e-12)


class TestLoading:
    def test_file_roundtrip_and_provenance(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("""
# comment line
wire.mass_total_kg = 15.0
scenario = wind_plus_impulse   # trailing comment
env.lookback_s = 0.08
""")
        cfg = build_config(parse_file(path))
        assert cfg.wire.mass_total == 15.0
        assert cfg.scenario == "wind_plus_impulse"
        assert cfg.env.impulse_enabled
        assert cfg.env.lookback == 0.08
        assert cfg.provenance["wire.mass_total_kg"] == "file"
        assert cfg.provenance["wire.spring_k_n_per_m"] == "default"

    def test_free_space_default_provenance(self):
        cfg = default_config()
        assert cfg.channel.pathloss_exponent == 2.0
        assert cfg.provenance["channel.pathloss_exponent"] == "default:free-space"
        assert cfg.provenance["channel.pathloss_ref_db"] == "default:free-space"
        assert cfg.channel.beta_db == pytest.approx(
            20 * math.log10(0.005 / (4 * math.pi)))

    def test_auto_reward_offset_is_boresight_minus_5(self):
        cfg = default_config()
        eq = solve_equilibrium(cfg.wire)
        look = look_angles(eq.positions[9], cfg.channel.rx_position)
        expected = boresight_power(cfg.channel, cfg.array)(look) - 5.0
        assert cfg.env.reward_offset_dbm == pytest.approx(expected, abs=1e-9)
        assert cfg.provenance["env.reward_offset_dbm"] == "default:auto-reward-offset"

    def test_lookback_not_multiple_of_tau(self):
        with pytest.raises(ConfigError, match="lookback not a multiple of tau"):
            default_config(**{"env.lookback_s": "0.015"})

    @pytest.mark.parametrize("duration", ["0", "-1", "0.004", "0.205"])
    def test_episode_duration_must_be_a_positive_multiple_of_tau(self, duration):
        # 0 once gave an empty trace and a NaN mean power; 0.205 s became 20 steps
        with pytest.raises(ConfigError, match="episode_duration not a positive multiple"):
            default_config(**{"env.episode_duration_s": duration})

    def test_key_set_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("wire.mass_total_kg = 10\n# comment\n\nseed = 1\n"
                        "wire.mass_total_kg = 12\n")
        with pytest.raises(ConfigError, match=r"twice\.cfg:5: 'wire\.mass_total_kg' "
                                              r"is set twice, on lines 1 and 5"):
            build_config(parse_file(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wire.mass = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            build_config(parse_file(path))

    def test_build_config_rejects_unknown_keys(self):
        # a stray key would otherwise ride along in every echo
        with pytest.raises(ConfigError, match="unknown key 'bogus.key'"):
            build_config({"bogus.key": "1"})
        with pytest.raises(ConfigError, match="unknown key 'bogus.key'"):
            default_config(**{"bogus.key": "1"})

    def test_eval_episodes_at_least_one(self):
        with pytest.raises(ConfigError, match="eval.episodes must be >= 1"):
            default_config(**{"eval.episodes": "0"})
        assert default_config(**{"eval.episodes": "1"}).eval_episodes == 1

    def test_negative_seed_rejected(self):
        # numpy would reject it later, in every verb, without naming the key
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            default_config(seed=-1)
        assert default_config(seed=0).seed == 0

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wire.mass_total_kg = 10\nnot a key value line\n")
        with pytest.raises(ConfigError, match=":2"):
            build_config(parse_file(path))

    def test_wire_invariants_shared_with_the_env(self):
        # the env's own check runs at load time, with the env's message
        with pytest.raises(ConfigError, match="impulse point P21 must be interior"):
            default_config(scenario="wind_plus_impulse", **{"wire.impulse_point": "21"})
        default_config(**{"wire.impulse_point": "21"})  # no impulses: not checked
        with pytest.raises(ConfigError, match="sense point P30 outside 1..21"):
            default_config(state_mode="expanded", **{"env.sense_points": "10, 30"})

    def test_stability_bound_violation(self):
        with pytest.raises(ConfigError, match="stability"):
            default_config(**{"wire.spring_k_n_per_m": "1e6"})

    def test_state_mode_controls_sense_points(self):
        single = default_config()
        assert single.env.sense_points == (10,)
        expanded = default_config(state_mode="expanded")
        assert expanded.env.sense_points == (2, 4, 6, 8, 10, 12, 14, 16, 18)
        assert expanded.env.state_dim == 57

    def test_impulse_duration_modes(self):
        cfg = default_config()
        assert cfg.env.impulse_duration_s == 0.01
        literal = default_config(**{"wire.impulse_duration_s": "substep"})
        assert literal.env.impulse_duration_s is None

    def test_echo_contains_every_key_and_derived(self):
        cfg = default_config()
        echo = cfg.echo()
        assert set(echo["config"]) == set(cfgmod.DEFAULTS)
        assert "rx_position_m" in echo["derived"]
        assert echo["seed"] == 0

    def test_wind_diffusion_matrix_form(self):
        cfg = default_config(**{"wire.wind_diffusion": "0.1,0,0, 0,0.2,0, 0,0,0.3"})
        np.testing.assert_allclose(np.diag(cfg.wire.wind_diffusion), [0.1, 0.2, 0.3])
        with pytest.raises(ConfigError):
            default_config(**{"wire.wind_diffusion": "1, 2"})

    def test_smoke_profile(self):
        values = cfgmod.apply_smoke({"train.epochs": "2"})
        cfg = build_config(values)
        assert cfg.train.total_steps == 600
        assert cfg.train.sample_block == 256
        assert cfg.train.epochs == 2  # explicit settings survive

    def test_sweep_spec_validation(self):
        with pytest.raises(ConfigError):
            default_config(**{"sweep.axis": "humidity"})
        cfg = default_config(**{"sweep.axis": "mass", "sweep.values": "5, 10, 15",
                                "sweep.repetitions": "2"})
        assert cfg.sweep.values == (5.0, 10.0, 15.0)

    def test_sweep_values_name_distinct_cells(self):
        for values in ("10, 10.0000001", "10, 10"):
            with pytest.raises(ConfigError, match="name the same cell directory "
                                                  "'cell_mass_10_rep0'"):
                default_config(**{"sweep.axis": "mass", "sweep.values": values})
        spec = default_config(**{"sweep.axis": "mass", "sweep.values": "10, 10.5"}).sweep
        assert spec.cell_name(10.5, 2) == "cell_mass_10.5_rep2"

    def test_sweep_policies_must_name_a_policy_kind(self):
        assert default_config().sweep.policies == ("oracle", "fixed", "dqn")
        with pytest.raises(ConfigError, match="unknown policy 'orcale'"):
            default_config(**{"sweep.policies": "oracle, orcale"})
        with pytest.raises(ConfigError, match="unknown policy 'orcale'"):
            SweepSpec(axis="mass", values=(10.0,), repetitions=1, policies=("orcale",))

    @pytest.mark.parametrize("policies, named", [("oracle, oracle", "oracle"),
                                                 ("fixed, dqn, oracle, dqn", "dqn")])
    def test_sweep_policies_are_distinct(self, policies, named):
        # a repeated policy would give the summary two identical rows
        with pytest.raises(ConfigError, match=f"policy '{named}' is listed more than once"):
            build_config({"sweep.policies": policies})


def _is_numbers(text):
    try:
        [float(p) for p in text.split(",")]
    except ValueError:
        return False
    return True


# every key read as numbers: those whose default is numbers, and the two
# whose default is a sentinel word
NUMBER_KEYS = sorted([k for k, v in cfgmod.DEFAULTS.items() if _is_numbers(v)]
                     + ["channel.pathloss_ref_db", "env.reward_offset_dbm"])


class TestNumbers:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_non_finite_refused_naming_the_key_once(self, key, bad):
        # in the first entry of a list, so that the count still fits
        parts = cfgmod.DEFAULTS[key].split(",")
        value = ",".join([bad] + parts[1:])
        with pytest.raises(ConfigError) as info:
            default_config(**{key: value})
        message = str(info.value)
        assert message.startswith(f"{key}: ") and message.count(key) == 1
        assert repr(value) in message

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "1.5", "seed: expected one integer, got '1.5'"),
        ("wire.gravity_mps2", "0, -9.8", "wire.gravity_mps2: expected 3 finite numbers, "
                                         "got '0, -9.8'"),
        ("train.hidden_sizes", "8, x", "train.hidden_sizes: expected comma-separated "
                                       "integers, got '8, x'"),
        ("channel.pathloss_ref_db", "free space", "channel.pathloss_ref_db: expected one "
                                                  "finite number or 'free_space', got "
                                                  "'free space'"),
        # refused with or without impulses: an episode drawing one raised a
        # bare ValueError, and wind_only accepted them
        ("wire.impulse_duration_s", "0", "wire.impulse_duration_s: expected a positive "
                                         "number or 'substep', got '0'"),
        ("wire.impulse_duration_s", "-0.01", "wire.impulse_duration_s: expected a "
                                             "positive number or 'substep', got '-0.01'"),
        ("wire.impulse_times_s", "1, -2, 3", "wire.impulse_times_s: expected numbers >= 0, "
                                             "got '1, -2, 3'"),
    ])
    def test_malformed_value_names_key_and_value(self, key, value, message):
        for scenario in cfgmod.SCENARIOS:
            with pytest.raises(ConfigError) as info:
                default_config(scenario=scenario, **{key: value})
            assert str(info.value) == message

    def test_train_keys_are_train_config_fields(self):
        # build_config reads each field from its train.<field> key
        keys = {k.removeprefix("train.") for k in cfgmod.DEFAULTS if k.startswith("train.")}
        assert keys == {f.name for f in dataclasses.fields(TrainConfig)}

    @pytest.mark.parametrize("cls", [EnvConfig, ChannelConfig, ArrayConfig, TrainConfig,
                                     WindModel, SweepSpec, ExperimentConfig],
                             ids=lambda cls: cls.__name__)
    def test_config_dataclasses_have_no_defaults(self, cls):
        # DEFAULTS is the one owner of every default; a field default would
        # be a second copy, free to disagree with it
        with_default = [f.name for f in dataclasses.fields(cls)
                        if f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING]
        assert with_default == []

    def test_build_config_reads_every_key(self, monkeypatch):
        # a key in DEFAULTS that nothing reads would only ride along in the echo
        read, real_raw = set(), cfgmod._Reader.raw
        monkeypatch.setattr(cfgmod._Reader, "raw",
                            lambda self, key: read.add(key) or real_raw(self, key))
        default_config()
        assert read == set(cfgmod.DEFAULTS)

    @pytest.mark.parametrize("sizes", ["0", "-4, 8", "8, 0, 8"])
    def test_hidden_sizes_below_one_refused(self, sizes):
        # a zero-width layer once trained a network with a constant policy
        with pytest.raises(ConfigError, match=r"^train: hidden_sizes must all be >= 1"):
            default_config(**{"train.hidden_sizes": sizes})

    @pytest.mark.parametrize("periods", ["0, 6, 8", "4, -6, 8"])
    def test_wind_periods_must_be_positive(self, periods):
        with pytest.raises(ConfigError, match=r"^wind: wind periods must be positive"):
            default_config(**{"wind.periods_s": periods})

    @pytest.mark.parametrize("key, value", [("env.lookback_s", "1e308"),
                                            ("env.episode_duration_s", "1e308"),
                                            ("env.tau_s", "1e-320")])
    def test_overflowing_ratio_to_tau_is_not_a_multiple(self, key, value):
        # round() of an infinite ratio raised OverflowError past the CLI
        with pytest.raises(ConfigError, match="not a .*multiple of tau"):
            default_config(**{key: value})

    @pytest.mark.parametrize("key, value, derived", [
        ("wire.mass_total_kg", "1e308", "reward_offset_dbm"),
        ("wire.gravity_mps2", "0, 0, 1e308", "reward_offset_dbm"),
        ("wire.endpoint_separation_m", "1e308", "reward_offset_dbm"),
        ("channel.rx_distance_m", "1e308", "reward_offset_dbm"),
        ("wire.spring_k_n_per_m", "1e-320", "sag_depth_m"),
        ("wire.gravity_mps2", "0, 0, 1e300", "boresight_power_dbm"),
        ("wire.mass_total_kg", "1e308", "boresight_power_dbm"),
    ])
    def test_overflowing_derived_quantity_refused(self, key, value, derived):
        # each built a -inf or nan reward offset after a numpy overflow warning;
        # the boresight rows fix the offset, and their episodes' power was -inf
        fixed = {"env.reward_offset_dbm": "-50"} if derived == "boresight_power_dbm" else {}
        with pytest.raises(ConfigError, match=rf"^derived\.{derived} is not finite"):
            default_config(**{key: value}, **fixed)

    @pytest.mark.parametrize("offset", ["auto", "-50"])
    @pytest.mark.parametrize("overrides, message", [
        ({"env.tx_point": "30"}, "sense point P30 outside 1..21"),
        ({"env.tx_point": "11", "wire.gravity_mps2": "0, 0, 0",
          "channel.rx_distance_m": "0"}, "channel: transmitter and receiver positions coincide"),
    ])
    def test_no_boresight_power_is_a_config_error(self, overrides, message, offset):
        # the auto offset raised IndexError and GeometryDegenerateError past the CLI
        with pytest.raises(ConfigError, match=message):
            default_config(**overrides, **{"env.reward_offset_dbm": offset})

    @pytest.mark.parametrize("offset", ["auto", "-50"])
    def test_one_equilibrium_solve_per_build(self, monkeypatch, offset):
        calls, real = [], cfgmod.wire_mod.solve_equilibrium
        monkeypatch.setattr(cfgmod.wire_mod, "solve_equilibrium",
                            lambda params: calls.append(params) or real(params))
        cfg = default_config(**{"env.reward_offset_dbm": offset})
        assert calls == [cfg.wire]
