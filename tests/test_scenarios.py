import concurrent.futures
import hashlib
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from cylwave import scenarios
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
family = plateau_noise
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

    def test_seed_changes_noise(self, tmp_path):
        run_scenario(parse_config(FAST_CONVERGE), str(tmp_path / "a"))
        other = FAST_CONVERGE.replace("seed = 42", "seed = 43")
        run_scenario(parse_config(other), str(tmp_path / "b"))
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a != b


class TestSecondaryWaiver:
    def test_neumann_cubic_reports_not_applicable(self, tmp_path):
        manifest = run_scenario(parse_config(SECONDARY_NEUMANN), str(tmp_path))
        assert manifest.passed()
        assert "not applicable" in manifest.note
        parsed = read_manifest(tmp_path / "manifest.txt")
        assert "not applicable" in parsed["run"]["note"]
        assert parsed["results"]["secondary_speed"] == "nan"
        assert parsed["results"]["secondary_speed_err_est"] == "nan"


def _allow_cpus(monkeypatch, n, **blas_env):
    """Let the scenarios see ``n`` usable CPUs and only the BLAS thread
    variables given (OpenBLAS pinned to one thread by default), whatever the
    machine and the environment have."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    for name in scenarios._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in (blas_env or {"OPENBLAS_NUM_THREADS": "1"}).items():
        monkeypatch.setenv(name, value)


class UnpicklableError(Exception):
    """Pickles, but does not unpickle: its one argument is not its message."""

    def __init__(self, what, where):
        super().__init__("%s at %s" % (what, where))


class TestSecondaryWorker:
    """The secondary wave runs in a forked worker where it finds an idle CPU."""

    def test_one_cpu_gives_the_worker_results(self, tmp_path, monkeypatch):
        # each run records the process that solved the secondary wave
        pids = tmp_path / "pids.txt"
        inner = scenarios.secondary_speed

        def recorded(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write("%d\n" % os.getpid())
            return inner(*args, **kwargs)

        monkeypatch.setattr(scenarios, "secondary_speed", recorded)
        sections = []
        for cpus in (2, 1):
            _allow_cpus(monkeypatch, cpus)
            out = tmp_path / ("cpus%d" % cpus)
            assert run_scenario(parse_config_file(STACKED), str(out)).passed()
            parsed = read_manifest(out / "manifest.txt")
            sections.append((parsed["results"], parsed.get("files")))
        assert sections[0] == sections[1]
        # the secondary wave's Richardson estimate crossed the pipe
        assert float(sections[0][0]["secondary_speed_err_est"]) < 0.0
        worker, here = map(int, pids.read_text().split())
        assert worker != os.getpid() and here == os.getpid()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("exc", [WaveSolverError("Newton stalled at residual 1e-3"),
                                     KeyError("speed")])
    def test_worker_exception_reaches_the_caller(self, tmp_path, monkeypatch, exc):
        def failing(*args, **kwargs):
            raise exc

        _allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenarios, "secondary_speed", failing)
        with pytest.raises(type(exc)) as info:
            run_scenario(parse_config(SECONDARY_NEUMANN), str(tmp_path))
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        assert info.value is not exc  # it came through the pipe
        # chained to the worker's own traceback
        assert "in failing\n" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_unpicklable_worker_exception_keeps_its_message(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise UnpicklableError("Newton stalled", "step 7")

        _allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenarios, "secondary_speed", failing)
        with pytest.raises(RuntimeError, match="UnpicklableError.'Newton stalled at step 7'"
                                               ".*does not pickle") as info:
            run_scenario(parse_config(SECONDARY_NEUMANN), str(tmp_path))
        assert "in failing\n" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, blas_env, forked", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (2, {"OMP_NUM_THREADS": "1"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (2, {"OMP_NUM_THREADS": ""}, False),  # unpinned: one BLAS thread per CPU
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        (2, {"GOTO_NUM_THREADS": "4"}, False),
    ])
    def test_worker_forked_only_beside_an_idle_cpu(self, tmp_path, monkeypatch, cpus,
                                                   blas_env, forked):
        def report_pid(*args, **kwargs):
            raise WaveSolverError(str(os.getpid()))

        _allow_cpus(monkeypatch, cpus, **blas_env)
        monkeypatch.setattr(scenarios, "solve_wave", lambda *args, **kwargs: None)
        monkeypatch.setattr(scenarios, "secondary_speed", report_pid)
        with pytest.raises(WaveSolverError) as info:
            run_scenario(parse_config(SECONDARY_NEUMANN), str(tmp_path))
        assert (int(str(info.value)) != os.getpid()) == forked
        assert multiprocessing.active_children() == []

    def test_primary_failure_does_not_wait_on_a_blocked_worker(self, tmp_path, monkeypatch):
        # the worker's result (1 MB) does not fit in the pipe's buffer, so the
        # worker blocks in send until it is read; the primary solve fails
        # instead of reading it, and the scenario must still return
        ready = tmp_path / "worker_done"

        def large_result(*args, **kwargs):
            ready.touch()
            return np.zeros(1 << 17)

        def failing_primary(*args, **kwargs):
            deadline = time.monotonic() + 30.0
            while not ready.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # let the worker reach its send
            raise WaveSolverError("primary failed")

        def hung(signum, frame):
            pytest.fail("the scenario hung on its worker")

        _allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenarios, "secondary_speed", large_result)
        monkeypatch.setattr(scenarios, "solve_wave", failing_primary)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(WaveSolverError, match="^primary failed$"):
                run_scenario(parse_config(SECONDARY_NEUMANN), str(tmp_path / "out"))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            for proc in multiprocessing.active_children():
                proc.kill()
                proc.join()
        assert ready.exists()
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_without_hanging(self, tmp_path, monkeypatch):
        def dying(*args, **kwargs):
            os._exit(3)

        def hung(signum, frame):
            pytest.fail("the scenario hung on its dead worker")

        _allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenarios, "secondary_speed", dying)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError):
                run_scenario(parse_config(SECONDARY_NEUMANN), str(tmp_path))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_worker_forked_while_one_thread_runs(self, tmp_path, monkeypatch):
        # the fork start method copies only the forking thread
        threads = []
        fork = os.fork

        def counted_fork():
            threads.append(threading.active_count())
            return fork()

        _allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", counted_fork)
        assert run_scenario(parse_config(SECONDARY_NEUMANN), str(tmp_path)).passed()
        assert threads == [1]
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
            ("gap_levels_agree", True), ("constraint_orthogonal", True)]
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
        cfg.write_text(FAST_CONVERGE.replace("family = plateau_noise",
                                             "family = shifted_tanh\namplitude = 0.2")
                       .replace("noise = 0.02\n", ""))
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

    def test_nonfinite_horizon_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONVERGE.replace("horizon = 25.0", "horizon = nan"))
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "'horizon'" in err and "Traceback" not in err

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
        # the pool's other process takes the second CPU, so the stacked
        # config forks no worker from inside a pool process
        parents = tmp_path / "parents.txt"
        inner = scenarios.secondary_speed

        def recorded(*args, **kwargs):
            with open(parents, "a") as fh:
                fh.write("%d\n" % os.getppid())
            return inner(*args, **kwargs)

        _allow_cpus(monkeypatch, 2)
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

    @pytest.mark.parametrize("value", ["0", "18", "six", ""])
    def test_bad_precision_env_is_a_config_error(self, tmp_path, capsys, monkeypatch, value):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(WAVE_SMALL)
        monkeypatch.setenv("CYLWAVE_PRECISION", value)
        code = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "CYLWAVE_PRECISION" in err
        assert not (tmp_path / "out").exists()

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
        assert "[grid]" in out and "CYLWAVE_PRECISION" in out


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
