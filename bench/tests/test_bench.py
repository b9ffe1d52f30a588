"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from conecheck.report import RunConfig  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def declared(section: str) -> list[str]:
    return [m["name"] for m in DECLARED[section]]


def test_metric_names_match_the_allowed_pattern():
    names = declared("end_to_end") + declared("per_layer") + [w["name"] for w in DECLARED["workloads"]]
    assert names
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert len(names) == len(set(names))


def test_declarations_match_the_code():
    assert declared("end_to_end") == list(run.END_TO_END)
    assert DECLARED["per_layer"] == tracer.metric_specs()
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_changes_only_the_seed_field(workload):
    first = workloads.configs(workload, 3)
    again = workloads.configs(workload, 3)
    other = workloads.configs(workload, 4)
    assert first == again
    assert len(first) == len(other)
    for a, b in zip(first, other):
        assert a["seed"] != b["seed"]
        assert {k: v for k, v in a.items() if k != "seed"} == {k: v for k, v in b.items() if k != "seed"}
        assert "out" not in a


def test_digest_masks_only_the_output_path():
    report = {"config": {"out": "/a/report.json", "seed": 1}, "checks": []}
    moved = {"config": {"out": "/b/report.json", "seed": 1}, "checks": []}
    reseeded = {"config": {"out": "/a/report.json", "seed": 2}, "checks": []}
    assert run.masked_digest(report) == run.masked_digest(moved)
    assert run.masked_digest(report) != run.masked_digest(reseeded)


def test_crashed_run_fails_every_check_and_starts_one_process(tmp_path, monkeypatch):
    spawned = []
    real_popen = subprocess.Popen

    def counting_popen(*args, **kwargs):
        spawned.append(args[0])
        return real_popen(*args, **kwargs)

    monkeypatch.setattr(run.subprocess, "Popen", counting_popen)
    config = tmp_path / "invalid.json"
    config.write_text(json.dumps({"tau": 2.0}))  # validate() rejects tau outside (0, 1)
    expected = workloads.expected_checks(workloads.configs("quick", 0)[0])

    result = run.run_workload_process(config, tmp_path / "report.json", expected, timeout=60)

    assert result.exit_code == 2
    assert result.attempted == result.failed == len(expected)
    assert result.digest is None
    assert len(spawned) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    gate = run.Gate([{"tau": 2.0}])
    gate.add(0, result)
    assert not gate.correct
    assert gate.failed / gate.attempted == 1.0


def test_tracer_rebinds_import_copies_and_restores_them():
    import conecheck.covering as covering
    import conecheck.suites as suites
    from conecheck.perms import Permutation

    original = covering.brenner_check
    assert suites.brenner_check is original
    with tracer.Tracer() as t:
        assert suites.brenner_check is covering.brenner_check is not original
        Permutation.parse("(1 2)").then(Permutation.parse("(2 3)"))
    assert suites.brenner_check is covering.brenner_check is original
    metrics = t.metrics(overhead_s=0.0)
    assert metrics["perms.Permutation.then.calls"]["value"] == 1
    assert metrics["perms.Permutation.__init__.calls"]["value"] >= 3


def _tiny(seed: int) -> list[RunConfig]:
    # every suite but cutting, whose hard-coded S_5 audit alone takes seconds
    cfg = RunConfig.small(seed)
    cfg.suites = tuple(s for s in cfg.suites if s != "cutting")
    return [cfg]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, workload, _tiny)
    result = run.benchmark(workload, seed=5, seconds=1, trace=trace)
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == declared(section)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
