"""The two-process suite runner: suites.run_suite forks one worker that shares
the suite queue, and the report bytes equal the one-process reference's."""

import importlib.util
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conecheck import suites
from conecheck.report import RunConfig, build_report, report_to_json

SRC = Path(suites.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"


def _exhaustive_config() -> RunConfig:
    spec = importlib.util.spec_from_file_location("runner_bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (config,) = workloads.configs("exhaustive", 2020)
    return RunConfig.from_dict(config)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """Patch norms and cutting so that the worker runs one and this process the
    other: the worker's suite signals over a pipe when it starts, and this
    process's suite waits for that signal.  split(in_worker, in_parent) gives
    the two-suite config; each callable runs in its process."""
    ready, signal_end = os.pipe()
    parent = os.getpid()

    def configure(in_worker, in_parent=lambda: []):
        def suite(cfg):
            if os.getpid() == parent:
                select.select([ready], [], [], 30)
                return in_parent()
            os.write(signal_end, b"x")
            return in_worker()

        for name in ("norms", "cutting"):
            monkeypatch.setitem(suites.SUITES, name, suite)
        cfg = RunConfig.small()
        cfg.suites = ("norms", "cutting")
        return cfg

    yield configure
    os.close(ready)
    os.close(signal_end)


def _raise(exc):
    raise exc


def test_a_suite_raising_in_the_worker_reaches_the_caller(split):
    # same type and message; the worker's traceback is the cause
    cfg = split(lambda: _raise(KeyError("in the worker")))
    with pytest.raises(KeyError) as info:
        suites.run_suite(cfg, echo=lambda *_: None)
    assert info.value.args == ("in the worker",)
    assert isinstance(info.value.__cause__, suites._RemoteTraceback)
    assert "KeyError: 'in the worker'" in str(info.value.__cause__)
    assert "in _raise" in str(info.value.__cause__)
    _assert_no_child_left()


def test_a_suite_raising_in_the_parent_ends_the_worker(split):
    # the worker would sleep for a minute; the parent kills and reaps it
    cfg = split(lambda: time.sleep(60), lambda: _raise(ValueError("in the parent")))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^in the parent$"):
        suites.run_suite(cfg, echo=lambda *_: None)
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_a_worker_that_dies_names_its_exit_status(split):
    cfg = split(lambda: os._exit(3))
    with pytest.raises(suites.SuiteWorkerError, match="exit status 3 "):
        suites.run_suite(cfg, echo=lambda *_: None)
    _assert_no_child_left()


@pytest.mark.parametrize("chosen, forks", [(("products",), 0), (("intnorm", "products"), 1)])
def test_one_suite_forks_nothing(monkeypatch, chosen, forks):
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    cfg = RunConfig.small()
    cfg.suites = chosen
    assert {row.check_id.split(".")[0] for row in suites._run_suites(cfg)} == set(chosen)
    assert len(calls) == forks


@pytest.mark.parametrize("cfg", [RunConfig.small(), RunConfig.small(seed=7), _exhaustive_config()],
                         ids=["small-2020", "small-7", "exhaustive-2020"])
def test_report_bytes_equal_the_one_process_reference(cfg):
    _, report = suites.run_suite(cfg, echo=lambda *_: None)
    reference = build_report(cfg, suites._run_suites_in_process(cfg))
    assert report_to_json(report) == report_to_json(reference)
    _assert_no_child_left()


def test_determinism_compares_the_runner_with_its_reference(monkeypatch):
    # a runner that drops the last row differs from the reference loop there
    runner = suites._run_suites
    monkeypatch.setattr(suites, "_run_suites", lambda cfg: runner(cfg)[:-1])
    (row,) = suites.run_determinism(RunConfig())
    assert (row.status, row.witness) == ("fail", "reports differ at coneprobe.scaling")


_ORPHANED = """
import os, sys, time
from conecheck import suites
from conecheck.report import RunConfig

parent = os.getpid()


def suite(cfg):
    print(os.getpid() == parent, flush=True)
    if os.getpid() == parent:
        time.sleep(0.2)
        os._exit(0)  # killed while the worker runs its first suite
    time.sleep(0.5)
    return []


for name in suites.SUITES:
    suites.SUITES[name] = suite
suites._run_suites(RunConfig.small())
"""


def test_an_orphaned_worker_stops_after_its_suite():
    # the output pipe closes only when the worker has exited too
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", _ORPHANED], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.stdout.split().count("False") <= 1, done.stdout + done.stderr
    assert done.stdout.split().count("True") == 1, done.stdout + done.stderr


def test_importing_the_runner_loads_no_process_pool(tmp_path):
    # importing either costs about 25 ms of set-up per process, and numpy about
    # 0.12 s, which a refused config does not need: the benchmark's set-up
    # process imports the CLI and validates a config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(RunConfig.small().as_dict()))
    code = ("import sys\nimport conecheck.cli, conecheck.suites\n"
            "from conecheck.report import RunConfig, load_config_file\n"
            "RunConfig.from_dict(load_config_file(sys.argv[1])).validate()\n"
            "print(sorted({'multiprocessing', 'concurrent.futures', 'numpy'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.stdout.split() == ["[]"], done.stderr


_FORK_WATCHED = """
import os, sys
from conecheck import suites
from conecheck.report import RunConfig

fork, loaded = os.fork, []


def watched():
    loaded.append("numpy" in sys.modules)
    return fork()


os.fork = watched
cfg = RunConfig.small()
cfg.suites = ("intnorm", "products")
print("numpy" in sys.modules)
suites._run_suites(cfg)
print(loaded)
"""


def test_the_runner_loads_numpy_once_before_it_forks():
    # loaded after the fork, numpy would be imported by both processes
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", _FORK_WATCHED], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.stdout.split() == ["False", "[True]"], done.stdout + done.stderr
