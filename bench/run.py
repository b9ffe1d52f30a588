"""conecheck benchmark: end-to-end runs of ``conecheck all`` and one traced run.

Usage, from the repository root:

    python3 bench/run.py --workload quick --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload as fresh ``python -m conecheck.cli all``
processes, one at a time, for about ``--seconds`` seconds and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced process and then the
same config in-process under ``tracer.Tracer``, and reports the per-layer
metrics.  Every run is gated on correctness (see ``check_report``); the last
line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The whole benchmark must end within 180 s; no child may run past this.
DEADLINE_S = 170.0
SETUP_REPS = 5

# Fields replaced before a report is digested.  config.out holds the report
# path, so the same run written to two paths differs only there; drop the
# mask once the program stops recording ``out``.
MASKED_FIELDS = (("config", "out"),)

SETUP_CODE = (
    "import sys\n"
    "import conecheck.cli, conecheck.suites\n"
    "from conecheck.report import RunConfig, load_config_file\n"
    "RunConfig.from_dict(load_config_file(sys.argv[1])).validate()\n"
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


@dataclass
class ProcessRun:
    """One child process: its exit, its resource use and its report."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    digest: str | None = None
    problems: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], timeout: float, stderr_path: Path) -> tuple[int, float, object]:
    """Run one child to completion; return (exit code, wall seconds, rusage).

    The child is killed at ``timeout`` and always reaped before returning.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.1))
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def masked_digest(report: dict) -> str:
    report = json.loads(json.dumps(report))
    for path in MASKED_FIELDS:
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "<masked>"
    text = json.dumps(report, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(exit_code: int, report_path: Path, expected: tuple[str, ...]):
    """(failed check count, digest or None, problems) for one finished run.

    A run that exits non-zero or leaves no readable report fails every
    expected check.  Otherwise a check fails when it is missing, not
    ``pass``, or examined nothing (``sample_size <= 0``).
    """
    if exit_code != 0:
        return len(expected), None, [f"exit code {exit_code}"]
    try:
        report = json.loads(report_path.read_text())
        checks = {c["check_id"]: c for c in report["checks"]}
        ids = tuple(c["check_id"] for c in report["checks"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return len(expected), None, [f"unreadable report: {exc}"]
    problems = []
    if ids != expected:
        problems.append(f"check ids differ from the workload's: {ids}")
    if report.get("status") != "pass":
        problems.append(f"report status {report.get('status')!r}")
    failed = 0
    for cid in expected:
        check = checks.get(cid)
        if check is None or check.get("status") != "pass" or not check.get("sample_size", 0) > 0:
            failed += 1
            problems.append(f"check {cid} failed or examined nothing")
    return failed, masked_digest(report), problems


def run_workload_process(config_path: Path, out_path: Path, expected: tuple[str, ...],
                         timeout: float) -> ProcessRun:
    argv = [sys.executable, "-m", "conecheck.cli", "all",
            "--config", str(config_path), "--out", str(out_path)]
    stderr_path = out_path.with_suffix(".stderr")
    code, wall, usage = spawn(argv, timeout, stderr_path)
    failed, digest, problems = check_report(code, out_path, expected)
    if code != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        problems.append(f"stderr: {' | '.join(tail)}")
    return ProcessRun(
        exit_code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        attempted=len(expected),
        failed=failed,
        digest=digest,
        problems=problems,
    )


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "conecheck").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record_digest(config: dict, digest: str, source: str) -> str | None:
    """Compare with the digest stored by an earlier run of the same config and
    source; store it when there is none.  Returns a problem or None."""
    store = WORK / "digests"
    store.mkdir(parents=True, exist_ok=True)
    key = hashlib.sha256((source + json.dumps(config, sort_keys=True)).encode()).hexdigest()
    path = store / key
    if path.exists():
        previous = path.read_text().strip()
        if previous != digest:
            return f"report digest {digest} differs from an earlier run's {previous}"
        return None
    tmp = path.with_suffix(f".{os.getpid()}")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)
    return None


class Gate:
    """Collects check counts and problems across every run in one benchmark."""

    def __init__(self, configs: list[dict]):
        self.configs = configs
        self.source = source_digest()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[int, str] = {}

    def add(self, index: int, run: ProcessRun) -> None:
        self.attempted += run.attempted
        self.failed += run.failed
        self.problems.extend(run.problems)
        self.digest(index, run.digest)

    def digest(self, index: int, digest: str | None) -> None:
        if digest is None:
            return
        seen = self._digests.setdefault(index, digest)
        if seen != digest:
            self.problems.append(f"config {index}: report digest changed within the run")
        problem = record_digest(self.configs[index], digest, self.source)
        if problem:
            self.problems.append(f"config {index}: {problem}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def measure_setup(config_path: Path, tmp: Path, deadline: float) -> tuple[list[float], list[str]]:
    """Wall times of fresh interpreters that import the CLI and validate the
    config.  The first, which may compile bytecode, is not timed."""
    times, problems = [], []
    for rep in range(SETUP_REPS + 1):
        code, wall, _ = spawn([sys.executable, "-c", SETUP_CODE, str(config_path)],
                              deadline - time.perf_counter(), tmp / f"setup-{rep}.stderr")
        if code != 0:
            problems.append(f"set-up process exited {code}")
        elif rep:
            times.append(wall)
    return times, problems


def run_untraced(configs, paths, gate, tmp, seconds, deadline, limit=None):
    """Workload processes for about ``seconds``, cycling through the configs."""
    from workloads import expected_checks

    runs = []
    count = limit or 1
    while len(runs) < count:
        index = len(runs) % len(configs)
        run = run_workload_process(paths[index], tmp / f"report-{len(runs)}.json",
                                   expected_checks(configs[index]),
                                   deadline - time.perf_counter())
        gate.add(index, run)
        runs.append(run)
        if limit is None and len(runs) == 1:
            # decided once from the first run, so runs at one speed make the
            # same number of samples
            count = max(1, round(seconds / run.wall_s))
        if time.perf_counter() > deadline:
            break
    return runs


class TracedRunExpired(BaseException):
    """Raised by SIGALRM when the traced run reaches the benchmark deadline;
    a BaseException so that no handler in the program swallows it."""


def _expire(signum, frame):
    raise TracedRunExpired()


def run_traced(config_path: Path, out_path: Path, deadline: float):
    """One in-process ``conecheck all`` under the tracer: (tracer, exit code, wall)."""
    start = time.perf_counter()
    import conecheck.cli as cli  # its import cost is part of the traced wall
    from tracer import Tracer

    tracer, code = Tracer(), None
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.1))
    try:
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            cli.main(["all", "--config", str(config_path), "--out", str(out_path)],
                     standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    except TracedRunExpired:
        print("traced run stopped at the deadline", file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return tracer, code, time.perf_counter() - start


def summarise(name: str, values: list[float], unit: str) -> None:
    if values:
        print(f"{name}: median {statistics.median(values):.4f} {unit} over {len(values)} "
              f"samples: {' '.join(f'{v:.4f}' for v in values)}", flush=True)


def benchmark(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from workloads import configs as make_configs, expected_checks

    deadline = time.perf_counter() + DEADLINE_S
    configs = make_configs(workload, seed)
    gate = Gate(configs)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        paths = []
        for i, config in enumerate(configs):
            paths.append(tmp / f"config-{i}.json")
            paths[-1].write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

        if not trace:
            setup, problems = measure_setup(paths[0], tmp, deadline)
            gate.problems.extend(problems)
            runs = run_untraced(configs, paths, gate, tmp, seconds, deadline)
            values = {
                "wall_s": [r.wall_s for r in runs],
                "cpu_s": [r.cpu_s for r in runs],
                "setup_s": setup,
                "peak_rss_mb": [r.peak_rss_mb for r in runs],
            }
            for name, vals in values.items():
                summarise(name, vals, END_TO_END[name])
            metrics = {name: statistics.median(vals) for name, vals in values.items()}
            metrics["pass_ratio"] = 1.0 - gate.failed / gate.attempted
            metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
        else:
            runs = run_untraced(configs, paths, gate, tmp, seconds, deadline, limit=1)
            out = tmp / "report-traced.json"
            tracer, code, traced_wall = run_traced(paths[0], out, deadline)
            failed, digest, problems = check_report(code, out, expected_checks(configs[0]))
            gate.attempted += len(expected_checks(configs[0]))
            gate.failed += failed
            gate.problems.extend(problems)
            gate.digest(0, digest)  # must equal the untraced run's digest
            untraced_wall = statistics.median(r.wall_s for r in runs)
            print(f"traced wall {traced_wall:.4f} s, untraced wall {untraced_wall:.4f} s",
                  flush=True)
            tracer.dump(WORK / f"trace-{workload}-{seed}.json")
            metrics = tracer.metrics(traced_wall - untraced_wall)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in gate.problems:
        print(f"correctness: {problem}", file=sys.stderr)
    return {"correct": gate.correct, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conecheck" / "cli.py").is_file():
        print(f"bench: no conecheck sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
