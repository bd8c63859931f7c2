import concurrent.futures
import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from cylwave import scenarios, waves
from cylwave.cli import main
from cylwave.config import parse_config, parse_config_file
from cylwave.scenarios import read_manifest, run_scenario
from cylwave.waves import WaveSolverError, spectral_gap

STACKED = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "secondary_stacked_dirichlet.cfg")

FAST_CONVERGE = """
[grid]
n_z = 601
z_min = -35.0
z_max = 15.0

[model]
name = cubic
a = 0.25

[run]
scenario = converge
dt = 0.1
horizon = 25.0
c_seed = 0.2
seed = 42

[initial]
offset = 1.0
noise = 0.02
"""

WAVE_SMALL = """
[grid]
n_z = 601
z_min = -35.0
z_max = 15.0

[model]
name = cubic
a = 0.25

[run]
scenario = wave
dt = 0.1
c_seed = 0.2
"""

SECONDARY_NEUMANN = """
[grid]
n_z = 401
z_min = -25.0
z_max = 15.0

[model]
name = cubic
a = 0.25

[run]
scenario = secondary_speed
dt = 0.1
c_seed = 0.2
"""

# the stacked model on a 1D grid, whose secondary wave exists
SECONDARY_FAR_SEED = """
[grid]
n_z = 601
z_min = -40.0
z_max = 20.0

[model]
name = stacked
a1 = 0.05
a2 = 0.5
a3 = 0.7

[run]
scenario = secondary_speed
c_seed = 0.03
plateau_seed = 0.55
"""

# a small Neumann cylinder, whose half grid is coarser in both directions
GAP_CYLINDER = """
[grid]
n_y = 5
n_z = 161
z_min = -24.0
z_max = 12.0

[model]
name = cubic_y
a0 = 0.25
a1 = 0.1

[run]
scenario = gap
dt = 0.1
c_seed = 0.2
"""


class TestConvergeScenario:
    @pytest.fixture(scope="class")
    @staticmethod
    def result(tmp_path_factory):
        out = tmp_path_factory.mktemp("converge")
        cfg = parse_config(FAST_CONVERGE)
        manifest = run_scenario(cfg, str(out))
        return out, manifest

    def test_passes(self, result):
        _, manifest = result
        failed = [n for n, ok, _ in manifest.assertions if not ok]
        assert manifest.passed(), failed

    def test_trace_written(self, result):
        out, _ = result
        assert (out / "trace.csv").exists()

    def test_manifest_lists_every_file_with_digest(self, result):
        out, manifest = result
        parsed = read_manifest(out / "manifest.txt")
        files = parsed["files"]
        on_disk = {p for p in os.listdir(out)} - {"manifest.txt"}
        assert set(files) == on_disk
        for name, entry in files.items():
            size, digest = entry.split()
            blob = (out / name).read_bytes()
            assert int(size) == len(blob)
            assert digest == "sha256:" + hashlib.sha256(blob).hexdigest()

    def test_summary_scalars_present(self, result):
        out, _ = result
        parsed = read_manifest(out / "manifest.txt")
        for key in ("speed", "sigma", "fit_quality", "R_infinity"):
            assert key in parsed["results"]
        assert float(parsed["results"]["sigma"]) > 0
        # n_z 601 halves to 301: the speed carries its two-level estimate
        assert float(parsed["results"]["speed_err_est"]) < 0

    def test_tracker_work_reported(self, result):
        out, manifest = result
        parsed = read_manifest(out / "manifest.txt")
        assert int(parsed["results"]["tracker_iters_max"]) >= 1
        assert parsed["results"]["tracker_cap_hits"] == "0"
        assert ("tracker_no_cap_hits", True) in [(n, ok) for n, ok, _ in manifest.assertions]


class TestDeterminism:
    def test_identical_config_and_seed_byte_identical_csv(self, tmp_path):
        cfg = parse_config(FAST_CONVERGE)
        run_scenario(cfg, str(tmp_path / "a"))
        cfg2 = parse_config(FAST_CONVERGE)
        run_scenario(cfg2, str(tmp_path / "b"))
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a == b

    def test_noise_is_added_whenever_positive(self):
        # no key selects the noisy datum: a positive amplitude is enough, and
        # the draw follows the seed
        cfg = parse_config(FAST_CONVERGE)
        grid, model = cfg.make_grid(), cfg.make_model()
        plateau = scenarios._plateau_state(model, grid, cfg.plateau_seed).v
        noisy = scenarios.build_initial(cfg, grid, plateau).values
        clean = scenarios.build_initial(parse_config(FAST_CONVERGE.replace("noise = 0.02", "")),
                                        grid, plateau).values
        reseeded = scenarios.build_initial(parse_config(FAST_CONVERGE.replace("seed = 42",
                                                                              "seed = 43")),
                                           grid, plateau).values
        assert 0.0 < np.max(np.abs(noisy - clean)) <= 0.02
        assert not np.array_equal(noisy, reseeded)

    def test_seed_changes_noise(self, tmp_path):
        run_scenario(parse_config(FAST_CONVERGE), str(tmp_path / "a"))
        other = FAST_CONVERGE.replace("seed = 42", "seed = 43")
        run_scenario(parse_config(other), str(tmp_path / "b"))
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a != b

    def test_outputs_ignore_the_environment(self, tmp_path, monkeypatch):
        # outputs depend on the config alone: CYLWAVE_PRECISION in the
        # environment changes no byte from [config] on
        cfg = tmp_path / "converge.cfg"
        cfg.write_text(FAST_CONVERGE)
        monkeypatch.delenv("CYLWAVE_PRECISION", raising=False)
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("CYLWAVE_PRECISION", "6")
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

        def from_config(out):
            text = (out / "manifest.txt").read_text()
            return text[text.index("[config]"):]
        assert from_config(a) == from_config(b)


class TestSecondaryWaiver:
    def test_neumann_cubic_reports_not_applicable(self, tmp_path):
        manifest = run_scenario(parse_config(SECONDARY_NEUMANN), str(tmp_path))
        assert manifest.passed()
        assert "not applicable" in manifest.note
        parsed = read_manifest(tmp_path / "manifest.txt")
        assert "not applicable" in parsed["run"]["note"]
        assert parsed["results"]["secondary_speed"] == "nan"
        assert parsed["results"]["secondary_speed_err_est"] == "nan"


class TestSecondaryFailure:
    def test_failed_secondary_solve_fails_the_run(self, tmp_path, capsys, monkeypatch):
        # the secondary seed as far off as in test_far_off_seed_is_not_applicable:
        # the solve fails, and a failure is not a waiver
        cfg = tmp_path / "secondary.cfg"
        cfg.write_text(SECONDARY_FAR_SEED)
        seed = waves.front_seed
        monkeypatch.setattr(waves, "front_seed",
                            lambda grid, plateau: seed(grid, plateau, offset=-35.0))
        out = tmp_path / "out"
        code = main(["secondary-speed", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "scenario failed: SeedBasinError" in capsys.readouterr().err
        run = read_manifest(out / "manifest.txt")["run"]
        assert run["passed"] == "false"
        assert run["error"].startswith("SeedBasinError: ")
        assert "half the window length 30" in run["error"]


class TestSecondaryInProcess:
    def test_both_waves_solved_in_the_calling_process(self, tmp_path, monkeypatch):
        # two usable CPUs and OpenBLAS on one thread: no second process
        pids, forks = [], []
        inner, fork = scenarios.secondary_speed, os.fork

        def recorded(*args, **kwargs):
            pids.append(os.getpid())
            return inner(*args, **kwargs)

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(scenarios, "secondary_speed", recorded)
        assert run_scenario(parse_config_file(STACKED), str(tmp_path)).passed()
        assert pids == [os.getpid()]
        assert forks == []
        assert multiprocessing.active_children() == []


class TestGapScenario:
    def test_cylinder_refines_both_directions(self, tmp_path, monkeypatch):
        # the gap is taken on the configured wave and on the half-grid wave
        # it was refined from, which is coarser in both directions
        grids, gaps = [], []

        def spy(ws, model):
            grids.append(ws.grid)
            gaps.append(spectral_gap(ws, model))
            return gaps[-1]

        monkeypatch.setattr(scenarios, "spectral_gap", spy)
        cfg = parse_config(GAP_CYLINDER)
        manifest = run_scenario(cfg, str(tmp_path))
        assert [(n, ok) for n, ok, _ in manifest.assertions] == [
            ("zero_mode_small", True), ("zero_mode_aligned", True), ("gap_positive", True),
            ("gap_levels_agree", True), ("gap_residual_small", True)]
        fine, coarse = grids
        assert fine == cfg.make_grid() and coarse.shape == (3, 81)
        assert (coarse.y_min, coarse.y_max, coarse.z_min, coarse.z_max) == (
            fine.y_min, fine.y_max, fine.z_min, fine.z_max)
        assert coarse.dy == 2 * fine.dy and coarse.dz == 2 * fine.dz
        res = manifest.results
        assert "gap_refined" not in res
        assert res["gap"] == gaps[0].gap
        assert res["gap_err_est"] == (gaps[0].gap - gaps[1].gap) / 3.0

    def test_grid_without_a_half_grid_fails_the_level_check(self, tmp_path):
        manifest = run_scenario(parse_config(GAP_CYLINDER.replace("n_z = 161", "n_z = 160")),
                                str(tmp_path))
        checks = {n: (ok, detail) for n, ok, detail in manifest.assertions}
        assert checks["gap_levels_agree"] == (False, "one level: no half grid")
        assert np.isnan(manifest.results["gap_err_est"])
        assert not manifest.passed()


class TestCli:
    def test_wave_verb_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        code = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "residual_below_tolerance" in out and "pass" in out

    @pytest.mark.parametrize("c_seed", [5.0, 50.0])
    def test_shipped_wave_from_a_fast_seed(self, tmp_path, c_seed):
        # seed speeds far above the wave's 0.354: the mid-level phase holds
        # the front in the window, and no e^{cz} weight enters the solve
        shipped = os.path.join(os.path.dirname(__file__), "..", "configs",
                               "wave_cubic_a25.cfg")
        with open(shipped) as fh:
            text = fh.read()
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(text.replace("c_seed = 0.2", "c_seed = %r" % c_seed))
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        results = read_manifest(tmp_path / "out" / "manifest.txt")["results"]
        assert float(results["speed"]) == pytest.approx(0.35355799106416952, rel=1e-9)

    def test_sub_threshold_datum_names_extinction(self, tmp_path, capsys):
        # sup 0.2 lies below the cubic's ignition level a = 0.25: no front survives
        cfg = tmp_path / "converge.cfg"
        cfg.write_text(FAST_CONVERGE.replace("noise = 0.02", "amplitude = 0.2"))
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario failed: TrackerError: the front dies out")
        assert "ignition level 0.25" in err

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONVERGE.replace("dt = 0.1", "dt = 99.0"))
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "dt_max" in capsys.readouterr().err

    def test_sample_every_is_an_unknown_key_exit_two(self, tmp_path, capsys):
        # every tracked step is a trace row: the key is gone, not ignored
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONVERGE.replace("dt = 0.1", "dt = 0.1\nsample_every = 1"))
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "unknown key 'sample_every' in section [run]" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [("run", "alpha", "0.1"),
                                                     ("run", "delta", "0.05"),
                                                     ("initial", "family", "plateau_noise")])
    def test_removed_key_is_unknown_exit_two(self, tmp_path, capsys, section, key, value):
        # each selected nothing: the keys are gone, not ignored
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONVERGE.replace("[%s]" % section,
                                             "[%s]\n%s = %s" % (section, key, value)))
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "unknown key '%s' in section [%s]" % (key, section) in err
        assert not (tmp_path / "out").exists()

    def test_nonfinite_horizon_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONVERGE.replace("horizon = 25.0", "horizon = nan"))
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'horizon'" in err and "Traceback" not in err

    @pytest.mark.parametrize("verb, name", [("converge", "converge_cubic_a25.cfg"),
                                            ("compare", "compare_sandwich_a25.cfg")])
    @pytest.mark.parametrize("horizon", ["0.02", "0.07"])
    def test_partial_step_horizon_exit_two(self, tmp_path, capsys, verb, name, horizon):
        # 0.02 would take no step at all, 0.07 would stop at t = 0.05
        with open(os.path.join(os.path.dirname(__file__), "..", "configs", name)) as fh:
            text = fh.read()
        head, _, tail = text.partition("horizon = ")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(head + "horizon = " + horizon + "\n" + tail.partition("\n")[2])
        code = main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("config error: horizon = %s is not a whole number of dt = 0.05 "
                       "steps\n" % horizon)
        assert not (tmp_path / "out").exists()

    def test_wave_ignores_time_step(self, tmp_path):
        # the continuation wave solver takes no time step, so dt is not checked
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL.replace("dt = 0.1", "dt = 99.0"))
        assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_two_node_section_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONVERGE.replace("[grid]", "[grid]\nn_y = 2"))
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_y = 2" in err and "Traceback" not in err

    def test_foreign_model_parameter_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(WAVE_SMALL.replace("name = cubic", "name = cubic\na1 = 0.3"))
        code = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "a1" in capsys.readouterr().err

    def test_verb_scenario_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        code = main(["gap", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_sweep_runs_disjoint_outputs(self, tmp_path):
        c1 = tmp_path / "one.cfg"
        c2 = tmp_path / "two.cfg"
        c1.write_text(WAVE_SMALL)
        c2.write_text(WAVE_SMALL.replace("a = 0.25", "a = 0.3"))
        code = main(["sweep", str(c1), str(c2), "--out", str(tmp_path / "sweep"),
                     "--jobs", "2"])
        assert code == 0
        assert (tmp_path / "sweep" / "one" / "manifest.txt").exists()
        assert (tmp_path / "sweep" / "two" / "manifest.txt").exists()

    def test_sweep_solves_the_secondary_wave_in_its_pool_process(self, tmp_path,
                                                                 monkeypatch):
        # the pool process that runs the stacked config solves its
        # secondary wave itself
        parents = tmp_path / "parents.txt"
        inner = scenarios.secondary_speed

        def recorded(*args, **kwargs):
            with open(parents, "a") as fh:
                fh.write("%d\n" % os.getppid())
            return inner(*args, **kwargs)

        monkeypatch.setattr(scenarios, "secondary_speed", recorded)
        one = tmp_path / "one.cfg"
        one.write_text(WAVE_SMALL)
        code = main(["sweep", STACKED, str(one), "--out", str(tmp_path / "sweep"),
                     "--jobs", "2"])
        assert code == 0
        for name in ("secondary_stacked_dirichlet", "one"):
            parsed = read_manifest(tmp_path / "sweep" / name / "manifest.txt")
            assert parsed["run"]["passed"] == "true"
        # solved by a pool process, a child of this one
        assert parents.read_text().split() == [str(os.getpid())]
        assert multiprocessing.active_children() == []

    def test_sweep_rejects_colliding_output_dirs(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.cfg").write_text(WAVE_SMALL)
        code = main(["sweep", str(tmp_path / "a" / "x.cfg"), str(tmp_path / "b" / "x.cfg"),
                     "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert "both write to" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_nonempty_output_dir_is_refused_untouched(self, tmp_path, capsys):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.txt").write_text("earlier results\n")
        code = main(["wave", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: output directory %s is not empty\n" % out
        assert os.listdir(out) == ["manifest.txt"]
        assert (out / "manifest.txt").read_text() == "earlier results\n"

    def test_output_path_naming_a_file_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        code = main(["wave", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "config error: output directory %s is not a directory\n" % out
        assert out.read_text() == "not a directory\n"

    def test_sweep_output_path_naming_a_file_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert main(["sweep", str(cfg), "--out", str(out)]) == 2
        assert "is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["wave", "sweep"])
    def test_output_path_below_a_file_is_refused(self, tmp_path, capsys, verb):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        blocker = tmp_path / "somefile"
        blocker.write_text("a file\n")
        out = blocker / "sub"
        head = ["wave", "--config", str(cfg)] if verb == "wave" else ["sweep", str(cfg)]
        assert main(head + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: output directory %s lies below the file %s\n" % (out, blocker))
        assert blocker.read_text() == "a file\n"

    @pytest.mark.parametrize("state", ["missing", "empty"])
    def test_missing_or_empty_output_dir_is_accepted(self, tmp_path, state):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        out = tmp_path / "out"
        if state == "empty":
            out.mkdir()
        code = main(["wave", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "manifest.txt").exists()

    def test_sweep_refuses_nonempty_config_dir_before_running(self, tmp_path, capsys):
        c1 = tmp_path / "one.cfg"
        c2 = tmp_path / "two.cfg"
        c1.write_text(WAVE_SMALL)
        c2.write_text(WAVE_SMALL)
        taken = tmp_path / "sweep" / "two"
        taken.mkdir(parents=True)
        (taken / "wave.txt").write_text("kept\n")
        code = main(["sweep", str(c1), str(c2), "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert "%s is not empty" % taken in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path / "sweep")) == ["two"]
        assert os.listdir(taken) == ["wave.txt"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_rejects_nonpositive_jobs(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "one.cfg", "--out", str(tmp_path), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_caps_workers_at_config_count(self, tmp_path, monkeypatch):
        seen = []

        class PoolCreated(Exception):
            pass

        def fake_pool(max_workers):
            seen.append(max_workers)
            raise PoolCreated

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fake_pool)
        with pytest.raises(PoolCreated):
            main(["sweep", "one.cfg", "two.cfg", "--out", str(tmp_path), "--jobs", "64"])
        assert seen == [2]

    @staticmethod
    def _fail_with(monkeypatch, exc):
        def run_scenario(cfg, out_dir):
            raise exc
        monkeypatch.setattr("cylwave.cli.run_scenario", run_scenario)

    def test_solver_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        from cylwave.waves import WaveSolverError
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        self._fail_with(monkeypatch, WaveSolverError("Newton stalled at residual 1e-3"))
        code = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "scenario failed: WaveSolverError: Newton stalled at residual 1e-3\n"

    def test_unexpected_failure_keeps_traceback(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        self._fail_with(monkeypatch, KeyError("speed"))
        code = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "in run_scenario" in err
        assert err.endswith("scenario failed: KeyError: 'speed'\n")

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "[grid]" in out and "CYLWAVE_PRECISION" not in out


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_converge_at_offset_minus_8_stops_every_tracker_call(tmp_path):
    # the datum moved to offset -8 puts the optimum between two adjacent
    # floats of R on many steps: each call must stop there, not alternate
    # between them until its cap
    with open(os.path.join(CONFIGS, "converge_cubic_a25.cfg")) as fh:
        text = fh.read()
    assert "offset = 2.0" in text
    manifest = run_scenario(parse_config(text.replace("offset = 2.0", "offset = -8.0")),
                            str(tmp_path))
    assert manifest.results["tracker_cap_hits"] == 0
    assert manifest.passed(), [n for n, ok, _ in manifest.assertions if not ok]


def test_converge_to_rounding_level_meets_the_orthogonality_gate(tmp_path):
    # with the right end at 40 (same dz) m falls to about 1e-17, where the
    # |h'| that the tracker stops at is rounding: the bound relative to
    # sqrt(m) alone falls below it, so each row's bound is floored by the
    # rounding floor of its own stop
    with open(os.path.join(CONFIGS, "converge_cubic_a25.cfg")) as fh:
        text = fh.read()
    assert "n_z = 1201" in text and "z_max = 20.0" in text
    text = text.replace("n_z = 1201", "n_z = 1601").replace("z_max = 20.0", "z_max = 40.0")
    manifest = run_scenario(parse_config(text), str(tmp_path))
    assert manifest.passed(), [n for n, ok, _ in manifest.assertions if not ok]


class TestRaisingRunManifest:
    """A run that raises writes ``passed = false`` and names the exception."""

    @pytest.mark.parametrize("verb, config, first_call", [
        ("wave", "wave_cubic_a25.cfg", "_plateau_state"),
        ("converge", "converge_cubic_a25.cfg", "_plateau_state"),
        ("gap", "gap_cubic_a25.cfg", "_plateau_state"),
        ("secondary-speed", "secondary_stacked_dirichlet.cfg", "_plateau_state"),
        ("compare", "compare_sandwich_a25.cfg", "_plateau_state"),
        ("check-hypotheses", "hypotheses_cubic_a25.cfg", "check_hypotheses"),
    ])
    def test_raising_runner_fails_the_manifest(self, tmp_path, capsys, monkeypatch,
                                               verb, config, first_call):
        def stalled(*args, **kwargs):
            raise WaveSolverError("Newton stalled at residual 0.00944")

        monkeypatch.setattr(scenarios, first_call, stalled)
        out = tmp_path / "out"
        code = main([verb, "--config", os.path.join(CONFIGS, config), "--out", str(out)])
        assert code == 1
        assert "scenario failed: WaveSolverError" in capsys.readouterr().err
        run = read_manifest(out / "manifest.txt")["run"]
        assert run["passed"] == "false"
        assert run["error"] == "WaveSolverError: Newton stalled at residual 0.00944"


class TestPartialOutputs:
    def test_failed_run_keeps_manifest(self, tmp_path):
        # a plateau seed in the trivial basin gives a zero seed profile, so
        # the wave solve fails; the manifest must still be written
        bad = WAVE_SMALL.replace("a = 0.25", "a = 0.45") \
                        .replace("c_seed = 0.2", "c_seed = 0.2\nplateau_seed = 0.2")
        with pytest.raises(Exception):
            run_scenario(parse_config(bad), str(tmp_path))
        assert (tmp_path / "manifest.txt").exists()
