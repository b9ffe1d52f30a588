"""The benchmark workloads' reports, pinned by their masked digests.

tests/data/workload_digests.json holds, for every config that
bench/workloads.configs gives the quick, acceptance_scaled and exhaustive
workloads at seeds 2020 and 7, the sha256 that bench/run.py's masked_digest
takes of its report.  A change that alters any workload's report bytes fails
here; a deliberate report change regenerates the file with

    PYTHONPATH=src python3 tests/test_workload_digests.py

and says so in CHANGES.md, like the golden default report.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from conecheck.report import RunConfig, build_report
from conecheck.suites import _run_suites

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = Path(__file__).parent / "data" / "workload_digests.json"
WORKLOADS = ("quick", "acceptance_scaled", "exhaustive")
SEEDS = (2020, 7)


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_run, bench_workloads = _bench_module("run"), _bench_module("workloads")


@functools.cache
def _reports(workload, seed) -> tuple[dict, ...]:
    """The report of each of the workload's configs, as the CLI run on the
    config file builds it (the report path is masked, so it is left unset)."""
    reports = []
    for config in bench_workloads.configs(workload, seed):
        cfg = RunConfig.from_dict(config)
        cfg.validate()
        reports.append(build_report(cfg, _run_suites(cfg)))
    return tuple(reports)


def _digests(workload, seed) -> list[str]:
    return [bench_run.masked_digest(report) for report in _reports(workload, seed)]


def _perturbed(report) -> dict:
    """report with one byte of its JSON text changed: the first letter of the
    last check's lemma switches case."""
    text = json.dumps(report, sort_keys=True, indent=2)
    at = text.rindex('"lemma": "') + len('"lemma": "')
    return json.loads(text[:at] + text[at].swapcase() + text[at + 1:])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_report_digests_are_pinned(workload, seed):
    expected = json.loads(DIGESTS.read_text())[workload][str(seed)]
    assert _digests(workload, seed) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_byte_perturbation_changes_the_digest(workload, seed):
    expected = json.loads(DIGESTS.read_text())[workload][str(seed)]
    for report, digest in zip(_reports(workload, seed), expected, strict=True):
        assert bench_run.masked_digest(_perturbed(report)) != digest


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {workload: {str(seed): _digests(workload, seed) for seed in SEEDS}
         for workload in WORKLOADS}, indent=2, sort_keys=True) + "\n")
