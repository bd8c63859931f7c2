import re

import pytest

from cylwave.config import (_SCHEMA, ConfigError, config_defaults_text, parse_config,
                            parse_config_file)

MINIMAL = """
[grid]
n_z = 401
z_min = -20.0
z_max = 20.0

[model]
name = cubic
a = 0.25

[run]
scenario = wave
dt = 0.1
"""


class TestParse:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid_config.n_y == 1
        assert cfg.grid_config.bc_left == "neumann"
        assert cfg.scenario == "wave"
        assert cfg.horizon == 60.0
        assert cfg.seed == 0
        assert cfg.model_params["a"] == 0.25

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n" + MINIMAL + "\n# trailing\n")
        assert cfg.dt == 0.1

    def test_duplicate_key_reports_both_lines(self):
        text = MINIMAL + "\n[initial]\noffset = 1.0\noffset = 2.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "duplicate key 'offset'" in msg
        lines = [ln for ln in text.splitlines()]
        first = lines.index("offset = 1.0") + 1
        second = lines.index("offset = 2.0") + 1
        assert ("lines %d and %d" % (first, second)) in msg

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
            parse_config(MINIMAL + "\n[run]\nfrobnicate = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[turbo\]"):
            parse_config("[turbo]\nx = 1\n")

    def test_unknown_scenario_before_any_compute(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(MINIMAL.replace("scenario = wave", "scenario = teleport"))

    def test_malformed_line_position(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[grid]\nn_z 401\n")

    def test_entry_before_section(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config("n_z = 401\n")

    def test_type_errors_positioned(self):
        with pytest.raises(ConfigError, match="expects int"):
            parse_config(MINIMAL.replace("n_z = 401", "n_z = lots"))

    def test_run_section_lands_on_same_named_fields(self):
        text = MINIMAL.replace("scenario = wave", "scenario = converge") + (
            "horizon = 12.5\nseed = 7\nc_seed = 0.3\nc_trial = 0.4\nplateau_seed = 0.8\n")
        cfg = parse_config(text)
        expected = {"scenario": "converge", "dt": 0.1, "horizon": 12.5, "seed": 7,
                    "c_seed": 0.3, "c_trial": 0.4, "plateau_seed": 0.8}
        assert set(expected) == set(cfg.raw["run"])
        assert {key: getattr(cfg, key) for key in expected} == expected

    def test_absent_model_parameters_stay_absent(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model_name == "cubic"
        assert cfg.model_params == {"a": 0.25}

    def test_missing_required(self):
        # dt is required by the scenarios that step in time, and only by them
        no_dt = MINIMAL.replace("dt = 0.1\n", "")
        for scenario in ("converge", "comparison"):
            with pytest.raises(ConfigError, match="missing required key 'dt'.*%s" % scenario):
                parse_config(no_dt.replace("scenario = wave", "scenario = " + scenario))
        assert parse_config(no_dt).dt is None


class TestValidation:
    def test_dt_above_cap_cites_bound(self):
        too_large = MINIMAL.replace("dt = 0.1", "dt = 5.0")
        for scenario in ("converge", "comparison"):
            with pytest.raises(ConfigError, match="dt_max"):
                parse_config(too_large.replace("scenario = wave", "scenario = " + scenario))
        # the scenarios that take no time step do not read dt
        assert parse_config(too_large).dt == 5.0

    def test_horizon_checked_only_where_used(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(MINIMAL.replace("scenario = wave", "scenario = converge")
                         + "horizon = 0\n")
        assert parse_config(MINIMAL + "horizon = 0\n").horizon == 0.0

    def test_bad_grid_propagates(self):
        with pytest.raises(ConfigError, match="axial resolution"):
            parse_config(MINIMAL.replace("n_z = 401", "n_z = 8"))

    def test_bad_model_parameter(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("a = 0.25", "a = 0.9"))

    def test_parameter_of_another_model(self):
        # the cubic takes only a; a1 belongs to cubic_y and stacked
        with pytest.raises(ConfigError, match="does not take a1"):
            parse_config(MINIMAL.replace("a = 0.25", "a1 = 0.3"))

    def test_cubic_y_follows_the_grid_section(self):
        # a(y) = a0 + a1 cos(pi s) runs half a period over the section,
        # whatever its extent
        text = (MINIMAL.replace("n_z = 401", "n_y = 9\ny_min = 0.0\ny_max = 2.0\nn_z = 401")
                .replace("name = cubic\na = 0.25", "name = cubic_y\na0 = 0.25\na1 = 0.1"))
        model = parse_config(text).make_model()
        assert model.a_of_y(0.0) == pytest.approx(0.35)
        assert model.a_of_y(1.0) == pytest.approx(0.25)
        assert model.a_of_y(2.0) == pytest.approx(0.15)

    def test_sandwich_family_accepted(self):
        # the comparison scenario builds its barrier pair from [initial] separation
        cfg = parse_config(MINIMAL.replace("scenario = wave", "scenario = comparison")
                           + "\n[initial]\nseparation = 4.0\n")
        assert cfg.initial_params["separation"] == 4.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [(sec, key) for sec, schema in _SCHEMA.items()
                                              for key, (want, _) in schema.items()
                                              if want is float])
    def test_nonfinite_float_names_the_key(self, section, key, value):
        line = "%s = %s" % (key, value)
        text, n = re.subn(r"(?m)^%s = .*$" % key, line, MINIMAL)
        if not n:
            text += "\n[%s]\n%s\n" % (section, line)
        with pytest.raises(ConfigError, match=r"key '%s' in section \[%s\] must be finite"
                           % (key, section)):
            parse_config(text)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            parse_config(MINIMAL + "seed = -1\n")

    @pytest.mark.parametrize("key", ["c_trial"])
    def test_nonpositive_run_parameter(self, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(MINIMAL + "%s = 0\n" % key)

    @pytest.mark.parametrize("c_seed", [2000.0, -2000.0, 1e6])
    def test_seed_speed_beyond_the_limit(self, c_seed):
        # past |c| = 1e3 the wave Newton counts as diverged, so such a seed
        # could only fail (1e6 overflowed sinh, 2000 stalled)
        message = "c_seed = %g is beyond the speed limit 1000" % c_seed
        with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
            parse_config(MINIMAL + "c_seed = %r\n" % c_seed)

    @pytest.mark.parametrize("c_seed", [1000.0, -1000.0, 50.0])
    def test_seed_speed_within_the_limit(self, c_seed):
        assert parse_config(MINIMAL + "c_seed = %r\n" % c_seed).c_seed == c_seed

    @pytest.mark.parametrize("scenario", ["wave", "converge", "comparison"])
    @pytest.mark.parametrize("line, message", [
        ("steepness = 0", "steepness must be positive, got 0"),
        ("steepness = -1", "steepness must be positive, got -1"),
        ("noise = -0.1", "noise must be >= 0, got -0.1"),
    ])
    def test_bad_initial_datum(self, scenario, line, message):
        # a flat or reversed front, or a negative noise amplitude, is no datum
        with pytest.raises(ConfigError, match="^%s$" % message):
            parse_config(MINIMAL.replace("scenario = wave", "scenario = " + scenario)
                         + "\n[initial]\n%s\n" % line)

    @pytest.mark.parametrize("separation", [-1.0, 20.0, 40.0])
    def test_separation_outside_half_window(self, separation):
        # the window is 40 long; a barrier translate must stay inside half of it
        with pytest.raises(ConfigError, match="separation"):
            parse_config(MINIMAL.replace("scenario = wave", "scenario = comparison")
                         + "\n[initial]\nseparation = %g\n" % separation)

    def test_defaults_text_covers_sections(self):
        text = config_defaults_text()
        for sec in ("[grid]", "[model]", "[run]", "[initial]"):
            assert sec in text

    def test_defaults_text_calls_horizon_a_cap_of_converge(self):
        line, = [ln for ln in config_defaults_text().split("\n") if "horizon" in ln]
        assert line.startswith("  horizon: float = 60.0 (")
        assert "the cap of a converge run" in line


class TestFile:
    def test_round_trip_from_disk(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(MINIMAL)
        cfg = parse_config_file(p)
        assert cfg.scenario == "wave"

    def test_shipped_configs_parse(self):
        import glob
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        paths = sorted(glob.glob(os.path.join(root, "*.cfg")))
        assert len(paths) >= 6
        for p in paths:
            parse_config_file(p)
