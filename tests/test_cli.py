"""The batch front-end: subcommands, config handling, certificate checks."""

import dataclasses
import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import conecheck
from conecheck.cli import main, verify_certificate
from conecheck.cli import MalformedCertificateError, RecompositionMismatchError
from conecheck.covering import express_as_conjugates
from conecheck.perms import Permutation
from conecheck.report import SUITE_NAMES, ConfigInvalidError, RunConfig, load_config_file
from conecheck.suites import SUITES, run_suite


@pytest.fixture
def runner():
    return CliRunner()


def test_single_suite_command(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "norms", "--max-degree", "4", "--out", str(out), "--seed", "7",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert report["config"]["seed"] == 7
    assert all(c["check_id"].startswith("norms.") for c in report["checks"])
    assert (tmp_path / "report.json.series.csv").exists()
    # the S_5 checks respect the ceiling
    invariance = next(c for c in report["checks"]
                      if c["check_id"] == "norms.conjugation_invariance_s5")
    assert invariance["sample_size"] == 24 ** 2
    assert "exhaustive S_4" in invariance["lemma"]


def test_one_run_written_to_two_paths_gives_the_same_bytes(runner, tmp_path):
    # the report path is not recorded in the report's config
    (tmp_path / "elsewhere").mkdir()
    paths = [tmp_path / "report.json", tmp_path / "elsewhere" / "other-report.json"]
    for path in paths:
        result = runner.invoke(main, ["intnorm", "--seed", "7", "--out", str(path)])
        assert result.exit_code == 0, result.output
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert "out" not in json.loads(paths[0].read_text())["config"]


def test_all_with_suite_selection(runner):
    result = runner.invoke(main, [
        "all", "--suite", "intnorm", "--suite", "products",
        "--max-degree", "4", "--samples", "50",
    ])
    assert result.exit_code == 0, result.output
    assert "intnorm.torsion" in result.output
    assert "products.negative_control" in result.output


def test_invalid_config_exits_2(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"seed": -1}))
    result = runner.invoke(main, ["intnorm", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "seed" in result.output


@pytest.mark.parametrize("overrides, message", [
    # the suites always run one after another; an old config naming jobs fails loudly
    ({"jobs": 2}, "unknown config key"),
    # ... and so does one naming a knob retired because no accepted value changed a row
    ({"intnorm_depth": 12}, "unknown config key 'intnorm_depth'"),
    ({"suites": ["coneprobe"], "tail_fraction": 0.25}, "unknown config key 'tail_fraction'"),
    ({"suites": ["coneprobe"], "convergence_tol": 1e-3}, "unknown config key 'convergence_tol'"),
    # the ambient-stability check would need the 3-cycle oracle on A_9
    ({"alternating_degree": 8}, "alternating_degree"),
    # ... and would measure A_4 inside A_4, which cannot hold its support
    ({"alternating_degree": 3}, "alternating_degree"),
    # enumerating A_9 for commutator witnesses would not finish
    ({"suites": ["covering"], "brenner_degrees": [5], "ore_degrees": [9]}, "ore_degrees"),
    # degrees below 1 name no alternating group, yet the check passed on them
    ({"ore_degrees": [0, -3]}, "ore_degrees"),
    # A_4's (2, 2) class meets the other hypotheses but never covers A_4
    ({"brenner_degrees": [4]}, "brenner_degrees"),
    # degree 2 has no class to examine and would be skipped silently
    ({"brenner_degrees": [2, 5]}, "brenner_degrees"),
    # the transposition BFS over S_9 would not finish
    ({"norm_degree": 9}, "norm_degree"),
    # S_1 and S_0 hold no non-identity element; the domination check failed falsely
    ({"norm_degree": 1}, "norm_degree"),
    ({"norm_degree": 0}, "norm_degree"),
    # the cutting audit stacked no arrays and raised ValueError
    ({"suites": ["cutting"], "cutting_max_k": -1}, "cutting_max_k"),
    # ... and 0 examined nothing
    ({"suites": ["cutting"], "cutting_max_k": 0}, "cutting_max_k"),
    # the cutting suite's time and memory grow with k^2: 11.7 s at 32, about 3 GB at 400
    ({"cutting_max_k": 21}, "cutting_max_k must lie in 1..20"),
    ({"cutting_max_k": 400}, "cutting_max_k"),
    # ... and linearly in the random degree: still running after 20 s at 5000
    ({"suites": ["cutting"], "random_degree": 5000}, "random_degree must lie in 2..150"),
    # the sample counts outgrow their suite's 8 s: cutting 7.0 s at 500 000
    # random pairs, matnorm 6.2-10.2 s at 2000 matrix pairs, covering 14 s at
    # 1000 certificates on A_9
    ({"random_pairs": 400_001}, "random_pairs must lie in 1..400000"),
    ({"random_pairs": 100_001, "random_degree": 150},
     "random_pairs * random_degree must be at most 15000000, got 100001 * 150"),
    ({"matrix_pairs": 1501}, "matrix_pairs must lie in 1..1500"),
    ({"certificate_count": 201}, "certificate_count must lie in 1..200"),
    # a float seed ran and exited 0; a bool is no seed either
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    # wrong types ended in a TypeError traceback
    ({"norm_degree": "7"}, "norm_degree"),
    ({"tau": "x"}, "tau"),
    ({"brenner_degrees": 5}, "brenner_degrees"),
    # run_suite wrote the report into file descriptor 5
    ({"out": 5}, "out"),
    # enumerating S_10, S_11 or A_30 did not finish
    ({"split_degree": 10}, "split_degree"),
    ({"displacement_degree": 11}, "displacement_degree"),
    ({"certificate_degree": 30}, "certificate_degree"),
    # these examined nothing, raised ValueError, or failed falsely
    ({"triangular_max_n": 0}, "triangular_max_n"),
    ({"spd_max_n": 1}, "spd_max_n"),
    ({"intnorm_exact_max": 0}, "intnorm_exact_max"),
    ({"intnorm_sandwich_max": 0}, "intnorm_sandwich_max"),
    ({"circle_roundtrip_max": 0}, "circle_roundtrip_max"),
    ({"circle_mod_max": 0}, "circle_mod_max"),
    ({"sum_indices": 1}, "sum_indices"),
    ({"word_l1_budget": 0}, "word_l1_budget"),
    # the axioms check passed over the empty window [1, -1]
    ({"intnorm_axiom_window": -1}, "intnorm_axiom_window"),
    ({"so_min_n": 13}, "so_min_n"),
    # above these the matnorm suite outgrows its budget of 8 s (default pairs)
    ({"triangular_max_n": 17}, "triangular_max_n must lie in 1..16"),
    ({"spd_max_n": 13}, "spd_max_n must lie in 2..12"),
    # the free-product audits did not finish at this budget
    ({"word_l1_budget": 40}, "word_l1_budget must lie in 1..11"),
    # the direct sum's factors alone took most of the memory at this size
    ({"sum_indices": 1001}, "sum_indices must lie in 2..1000"),
    # SO(n) at n = 400 ran past 20 s; above the cap matnorm outgrows its 8 s
    ({"so_max_n": 400}, "so_max_n must be at most 15"),
    ({"so_max_n": 16}, "so_max_n must be at most 15"),
    # the coneprobe suite still ran after 20 s at these sizes
    ({"circle_roundtrip_max": 100_000}, "circle_roundtrip_max must lie in 1..8192"),
    ({"circle_mod_max": 100_000}, "circle_mod_max must lie in 1..2048"),
    ({"circle_grid": 50_000_000}, "circle_grid must lie in 1..100000"),
    # each within its cap, but together the grid costs 8 times its share
    ({"circle_grid": 100_000, "circle_mod_max": 2048},
     "circle_grid * circle_mod_max must be at most 25600000, got 100000 * 2048"),
    # x_16 failed falsely: the suite's generators stop at index 14
    ({"intnorm_exact_max": 16}, "intnorm_exact_max must lie in 1..15"),
    ({"intnorm_sandwich_max": 16}, "intnorm_sandwich_max must lie in 1..15"),
    # depth 9 cannot reach [-598, 598]; at 900 depth 12 failed falsely with
    # "unknown at -1755"
    ({"intnorm_axiom_window": 299}, "intnorm_axiom_window must be at most 298"),
    ({"intnorm_axiom_window": 900}, "intnorm_axiom_window must be at most 298"),
    # the staged contraction checks still ran after 60 s at 100; 32 took 6.3 s
    ({"suites": ["coneprobe"], "sequence_stage_max": 100}, "sequence_stage_max must be at most 20"),
], ids=["stale_jobs_key", "stale_intnorm_depth_key", "stale_tail_fraction_key",
        "stale_convergence_tol_key", "alternating_degree_8", "alternating_degree_3",
        "ore_degree_9", "ore_degree_0", "brenner_degree_4", "brenner_degree_2",
        "norm_degree_9", "norm_degree_1", "norm_degree_0", "cutting_max_k_negative",
        "cutting_max_k_0", "cutting_max_k_21", "cutting_max_k_400", "random_degree_5000",
        "random_pairs_400001", "random_pairs_times_random_degree", "matrix_pairs_1501",
        "certificate_count_201", "seed_float", "seed_bool",
        "norm_degree_str", "tau_str", "brenner_degrees_scalar", "out_int",
        "split_degree_10", "displacement_degree_11", "certificate_degree_30",
        "triangular_max_n_0", "spd_max_n_1", "intnorm_exact_max_0",
        "intnorm_sandwich_max_0", "circle_roundtrip_max_0", "circle_mod_max_0",
        "sum_indices_1", "word_l1_budget_0", "intnorm_axiom_window_negative",
        "so_min_n_above_max", "triangular_max_n_17", "spd_max_n_13",
        "word_l1_budget_40", "sum_indices_1001", "so_max_n_400", "so_max_n_16",
        "circle_roundtrip_max_100000", "circle_mod_max_100000", "circle_grid_50000000",
        "circle_grid_times_circle_mod_max", "intnorm_exact_max_16", "intnorm_sandwich_max_16",
        "intnorm_axiom_window_299", "intnorm_axiom_window_900", "sequence_stage_max_100"])
def test_rejected_config_file_exits_2(runner, tmp_path, overrides, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    result = runner.invoke(main, ["norms", "--config", str(cfg)])
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_unwritable_out_exits_2_before_running(runner, tmp_path, where):
    # the report used to be lost after the whole run, in a FileNotFoundError
    # (or IsADirectoryError) traceback with exit 1
    result = runner.invoke(main, ["intnorm", "--out", str(tmp_path / where)])
    assert result.exit_code == 2
    assert "out must name a file in an existing directory" in result.output
    assert "[PASS]" not in result.output


def test_jobs_flag_is_gone(runner):
    result = runner.invoke(main, ["intnorm", "--jobs", "2"])
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize("command", [*SUITE_NAMES, "all"])
def test_depth_flag_is_gone(runner, command):
    # it set the axioms_window search cap, which changed no row; integer-norm
    # keeps its own --depth
    result = runner.invoke(main, [command, "--depth", "12"])
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_covering_below_degree_4_exits_2(runner):
    # A_3 has no even element with a 2-cycle, so no certificate base exists
    result = runner.invoke(main, ["covering", "--max-degree", "3"])
    assert result.exit_code == 2
    assert "certificate_degree" in result.output


def test_negative_samples_exit_2(runner):
    result = runner.invoke(main, ["cutting", "--samples", "-5"])
    assert result.exit_code == 2
    assert "random_pairs" in result.output


def test_samples_above_the_random_pairs_cap_exit_2(runner):
    # --samples sets random_pairs itself
    result = runner.invoke(main, ["cutting", "--samples", "400001"])
    assert result.exit_code == 2
    assert "random_pairs must lie in 1..400000, got 400001" in result.output


def test_zero_random_pairs_exit_2(runner, tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"random_pairs": 0}))
    result = runner.invoke(main, ["cutting", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "random_pairs" in result.output


@pytest.mark.parametrize("field", ["random_pairs", "matrix_pairs", "certificate_count",
                                   "circle_grid"])
def test_empty_sample_rejected(field):
    from conecheck.report import ConfigInvalidError

    cfg = RunConfig.small()
    setattr(cfg, field, 0)
    with pytest.raises(ConfigInvalidError, match=field):
        cfg.validate()


def _wrong_typed(f: dataclasses.Field):
    """Values of the wrong type for one field: a str, a bool or a float for an
    int; a scalar for a tuple; a number or a bool for the optional path."""
    if f.default is None:
        return st.one_of(st.integers(), st.floats(), st.booleans())
    if isinstance(f.default, tuple):
        return st.one_of(st.integers(), st.floats(), st.booleans(), st.text())
    if isinstance(f.default, float):
        return st.one_of(st.text(), st.booleans())
    return st.one_of(st.text(), st.booleans(), st.floats())


@given(st.sampled_from(dataclasses.fields(RunConfig)).flatmap(
    lambda f: st.tuples(st.just(f.name), _wrong_typed(f))))
def test_wrong_typed_field_is_named(case):
    name, value = case
    with pytest.raises(ConfigInvalidError, match=name):
        RunConfig.from_dict({name: value}).validate()


def _moved_value(f: dataclasses.Field):
    """A value inside a field's declared range: a degree list of up to three
    entries from lo..hi, or an int from lo (-2 where the range is open below)
    up to the field's value in RunConfig.small(), so that every run stays
    small."""
    lo, hi = f.metadata["lo"], f.metadata["hi"]
    if isinstance(f.default, tuple):
        return st.lists(st.integers(lo, hi), max_size=3).map(tuple)
    return st.integers(-2 if lo is None else lo, getattr(RunConfig.small(), f.name))


@functools.cache
def _fields_read_by(suite: str) -> list[dataclasses.Field]:
    """The fields with a declared range that the suite reads, as recorded on
    one RunConfig.small() run."""
    read = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    SUITES[suite](Recording(**vars(RunConfig.small())))
    return [f for f in dataclasses.fields(RunConfig) if f.metadata and f.name in read]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from([s for s in SUITE_NAMES if s != "determinism"]).flatmap(
    lambda suite: st.tuples(st.just(suite), st.lists(
        st.sampled_from(_fields_read_by(suite)), min_size=1, max_size=3, unique=True).flatmap(
            lambda fields: st.tuples(*(st.tuples(st.just(f.name), _moved_value(f))
                                       for f in fields))))))
def test_every_small_config_ends_in_a_verdict(case):
    # either a refusal that names a moved field, or rows and an exit status
    suite, moves = case
    cfg = dataclasses.replace(RunConfig.small(), suites=(suite,), **dict(moves))
    try:
        status, report = run_suite(cfg, echo=lambda line: None)
    except ConfigInvalidError as err:
        assert any(name in str(err) for name, _ in moves), err
        return
    assert status in (0, 1) and report["checks"]


def _workload_configs():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cfg for make in workloads.WORKLOADS.values() for cfg in make(2020)]


def test_shipped_configs_validate():
    for cfg in [RunConfig(), RunConfig.small(), *_workload_configs()]:
        cfg.validate()


# The ceiling --max-degree d gives, written out per d: norm, alternating,
# cutting, split, displacement, certificate, brenner, ore, triangular, spd and
# so_max degrees.  Every other field keeps its default.
CEILINGS = {
    4: (4, 4, 4, 4, 4, 4, (), (), 4, 4, 4),
    5: (5, 5, 5, 5, 5, 5, (5,), (5,), 5, 5, 5),
    6: (6, 6, 6, 6, 6, 6, (5, 6), (5, 6), 6, 6, 6),
    7: (7, 6, 6, 7, 7, 7, (5, 6, 7), (5, 6), 7, 7, 7),
    8: (7, 6, 6, 7, 8, 7, (5, 6, 7), (5, 6), 8, 8, 8),
    9: (7, 6, 6, 7, 8, 7, (5, 6, 7), (5, 6), 9, 8, 9),
    10: (7, 6, 6, 7, 8, 7, (5, 6, 7), (5, 6), 10, 8, 10),
    11: (7, 6, 6, 7, 8, 7, (5, 6, 7), (5, 6), 10, 8, 11),
    12: (7, 6, 6, 7, 8, 7, (5, 6, 7), (5, 6), 10, 8, 12),
}
CEILING_FIELDS = ("norm_degree", "alternating_degree", "cutting_degree", "split_degree",
                  "displacement_degree", "certificate_degree", "brenner_degrees",
                  "ore_degrees", "triangular_max_n", "spd_max_n", "so_max_n")


@pytest.mark.parametrize("max_degree", sorted(CEILINGS))
def test_apply_ceiling(max_degree):
    cfg = RunConfig()
    cfg.apply_ceiling(max_degree)
    assert cfg == RunConfig(**dict(zip(CEILING_FIELDS, CEILINGS[max_degree])))


def _checks(path) -> dict:
    return {c["check_id"]: c for c in json.loads(path.read_text())["checks"]}


def _assert_failed_as_empty(check):
    assert check["sample_size"] == 0
    assert check["status"] == "fail"
    assert "nothing was examined" in check["witness"]


def test_covering_without_exhaustive_degrees_fails(runner, tmp_path):
    # --max-degree 4 drops every Brenner and Ore degree: those checks see no case
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "covering", "--max-degree", "4", "--samples", "5", "--out", str(out),
    ])
    assert result.exit_code == 1, result.output
    checks = _checks(out)
    _assert_failed_as_empty(checks["covering.brenner"])
    _assert_failed_as_empty(checks["covering.ore_witnesses"])


def test_sequence_contraction_without_stages_fails(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sequence_stage_max": 1}))
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["coneprobe", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 1, result.output
    _assert_failed_as_empty(_checks(out)["coneprobe.sequence_contraction"])


def test_audit_respects_max_degree(runner, tmp_path):
    # the audit covers S_4 x S_4 plus the worked pair under --max-degree 4
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "cutting", "--max-degree", "4", "--samples", "20", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    audit = next(c for c in json.loads(out.read_text())["checks"]
                 if c["check_id"] == "cutting.audit_report")
    assert audit["sample_size"] == 12117 + 630 + 3462 + 4039
    assert "S_4 pairs" in audit["lemma"]


def test_config_file_overrides_flags(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 99}))
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "intnorm", "--seed", "3", "--out", str(out), "--config", str(cfg),
    ])
    assert result.exit_code == 0, result.output
    config = json.loads(out.read_text())["config"]
    # a file without "suites" keeps the subcommand's suite
    assert (config["seed"], config["suites"]) == (99, ["intnorm"])


def test_config_env_var(runner, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 41}))
    monkeypatch.setenv("CONECHECK_CONFIG", str(cfg))
    assert load_config_file(None) == {"seed": 41}


def test_unknown_config_key_rejected(tmp_path):
    cfg = RunConfig.from_dict({"seed": 5})
    assert cfg.seed == 5
    from conecheck.report import ConfigInvalidError

    with pytest.raises(ConfigInvalidError):
        RunConfig.from_dict({"not_a_knob": 1})


def test_report_is_deterministic(tmp_path):
    cfg = RunConfig.small(seed=5)
    cfg.suites = ("intnorm", "products")
    from conecheck.report import build_report, report_to_json
    from conecheck.suites import _run_suites

    first = report_to_json(build_report(cfg, _run_suites(cfg)))
    second = report_to_json(build_report(cfg, _run_suites(cfg)))
    assert first == second


def test_failure_exit_code(tmp_path, monkeypatch):
    # a projection that is registered as norm-decreasing but is the identity
    # map must fail its suite, exit 1, and still write the report
    from conecheck import suites as suites_module
    from conecheck.products import cyclic_factor, FreeProduct, verify_contraction_conditions
    from conecheck.report import CheckResult

    def broken_suite(cfg):
        fp = FreeProduct({1: cyclic_factor(2, "discrete", "identity"),
                          2: cyclic_factor(3, "discrete", "identity")})
        report = verify_contraction_conditions(
            fp.prefix_project, fp.enumerate_words(3), fp.l1_norm, fp.distance,
            lambda w: w.is_identity(), 1)
        return [CheckResult.from_outcome(
            "products.broken_projection",
            "identity projection registered as norm-decreasing",
            report["norm-decrease"]["witness"], report["norm-decrease"]["checked"],
        )]

    monkeypatch.setitem(suites_module.SUITES, "products", broken_suite)
    cfg = RunConfig.small(seed=5)
    cfg.suites = ("products",)
    cfg.out = str(tmp_path / "fail.json")
    code, report = run_suite(cfg, echo=lambda *_: None)
    assert code == 1
    assert report["status"] == "fail"
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing and failing[0]["witness"]
    assert (tmp_path / "fail.json").exists()


class TestIntegerNormCommand:
    def test_shorthand_target(self, runner, tmp_path):
        out = tmp_path / "cert.json"
        result = runner.invoke(main, ["integer-norm", "x(3)", "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["value"] == 3
        assert sorted(payload["certificate"]) == [8, 8, 8]
        # the emitted certificate is independently verifiable
        verify = runner.invoke(main, ["verify-certificate", str(out)])
        assert verify.exit_code == 0

    def test_decimal_and_base(self, runner):
        result = runner.invoke(main, ["integer-norm", "648", "--base", "3"])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == 4

    def test_unknown_returns_one(self, runner):
        result = runner.invoke(main, ["integer-norm", "x(7)", "--depth", "3"])
        assert result.exit_code == 1
        assert json.loads(result.output)["value"] is None

    def test_bad_target(self, runner):
        result = runner.invoke(main, ["integer-norm", "x(oops)"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("depth", ["0", "-3", "21"])
    def test_depth_outside_its_range_exits_2(self, runner, depth):
        # 0 and -3 printed "value": null and exited 1; the search costs 17.5 s
        # at depth 22 on 999 999 999 999
        result = runner.invoke(main, ["integer-norm", "999999999999", "--depth", depth])
        assert result.exit_code == 2
        assert "--depth" in result.output

    def test_base_below_2_exits_2(self, runner):
        # FactorialGenerators raised ValueError: base must be at least 2
        result = runner.invoke(main, ["integer-norm", "x(3)", "--base", "1"])
        assert result.exit_code == 2
        assert "--base" in result.output


class TestProbeSequenceCommand:
    def test_cycle_family(self, runner, tmp_path):
        spec = tmp_path / "seq.json"
        spec.write_text(json.dumps(
            {"family": "cycle", "stages": list(range(1, 30)), "scaling": "n"}))
        out = tmp_path / "probe.json"
        result = runner.invoke(main, [
            "probe-sequence", str(spec), "--bound", "1.0", "--out", str(out)])
        assert result.exit_code == 0, result.output
        summary = json.loads(out.read_text())
        assert summary["admissible"] is True
        assert summary["estimate"]["converged"] is True
        series = (tmp_path / "probe.json.series.csv").read_text().splitlines()
        assert series[0] == "stage,norm,normalized"
        assert len(series) == 30

    @pytest.mark.parametrize("tail", ["2", "0"])
    def test_tail_outside_unit_interval_exits_2(self, runner, tmp_path, tail):
        # estimate_limit raised ValueError: tail_fraction must lie in (0, 1]
        spec = tmp_path / "seq.json"
        spec.write_text(json.dumps({"family": "cycle", "stages": [1, 2, 3]}))
        result = runner.invoke(main, ["probe-sequence", str(spec), "--tail", tail])
        assert result.exit_code == 2
        assert "--tail" in result.output

    def test_negative_tolerance_exits_2(self, runner, tmp_path):
        # a constant series reported "converged": false with exit 0 at --tol -1
        spec = tmp_path / "seq.json"
        spec.write_text(json.dumps({"family": "constant-identity", "stages": list(range(1, 11))}))
        result = runner.invoke(main, ["probe-sequence", str(spec), "--tol", "-1"])
        assert result.exit_code == 2
        assert "--tol" in result.output
        result = runner.invoke(main, ["probe-sequence", str(spec), "--tol", "0"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["estimate"]["converged"] is True

    def test_empty_table_exits_2(self, runner, tmp_path):
        # admissibility raised ValueError from max() over no stage
        spec = tmp_path / "seq.json"
        spec.write_text(json.dumps({"family": "table", "values": []}))
        result = runner.invoke(main, ["probe-sequence", str(spec)])
        assert result.exit_code == 2
        assert str(spec) in result.output

    @pytest.mark.parametrize("content", [[1, 2], 5, "cycle", None])
    def test_description_not_an_object_exits_2(self, runner, tmp_path, content):
        # load_sequence raised AttributeError on .get
        spec = tmp_path / "seq.json"
        spec.write_text(json.dumps(content))
        result = runner.invoke(main, ["probe-sequence", str(spec)])
        assert result.exit_code == 2
        assert f"bad sequence description in {spec}" in result.output

    def test_bad_description(self, runner, tmp_path):
        spec = tmp_path / "seq.json"
        spec.write_text(json.dumps({"family": "unknown", "stages": [1]}))
        result = runner.invoke(main, ["probe-sequence", str(spec)])
        assert result.exit_code == 2


class TestVerifyCertificate:
    def _write_conjugate_cert(self, tmp_path, tamper=False):
        h = Permutation.parse("(1 2 3)(4 5 6)")
        cert = express_as_conjugates(h, Permutation.parse("(1 2)(3 4)"))
        data = cert.to_json_dict()
        if tamper:
            data["factors"][0]["conjugator"] = "(1 6 5 2)"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        return path

    def test_valid_conjugate_certificate(self, runner, tmp_path):
        path = self._write_conjugate_cert(tmp_path)
        result = runner.invoke(main, ["verify-certificate", str(path)])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_perturbed_certificate(self, runner, tmp_path):
        path = self._write_conjugate_cert(tmp_path, tamper=True)
        result = runner.invoke(main, ["verify-certificate", str(path)])
        assert result.exit_code == 1

    def test_intnorm_certificate(self, runner, tmp_path):
        path = tmp_path / "int.json"
        path.write_text(json.dumps({
            "kind": "integer-norm", "target": 24, "base": 2,
            "certificate": [8, 8, 8],
        }))
        result = runner.invoke(main, ["verify-certificate", str(path)])
        assert result.exit_code == 0

    def test_intnorm_bad_sum(self, tmp_path):
        path = tmp_path / "int.json"
        path.write_text(json.dumps({
            "kind": "integer-norm", "target": 25, "certificate": [8, 8, 8],
        }))
        with pytest.raises(RecompositionMismatchError):
            verify_certificate(path)

    def test_intnorm_alien_generator(self, tmp_path):
        path = tmp_path / "int.json"
        path.write_text(json.dumps({
            "kind": "integer-norm", "target": 7, "certificate": [7],
        }))
        with pytest.raises(MalformedCertificateError):
            verify_certificate(path)

    def test_malformed(self, runner, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["verify-certificate", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("content", [
        [1, 2], 5, "cert", None,
        {"kind": "conjugate-product", "base": 5, "target": "(1 2 3)", "factors": 5},
        {"kind": "conjugate-product", "base": "(1 2)(3 4)", "target": "(1 2 3)",
         "factors": 5},
        {"kind": "conjugate-product", "base": "(1 2)(3 4)", "target": "(1 2 3)",
         "factors": [5]},
    ], ids=["list", "number", "string", "null", "int base", "int factors",
            "int factor"])
    def test_malformed_shape_exits_2(self, runner, tmp_path, content):
        # each used to end in an AttributeError or TypeError traceback, exit 1
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(content))
        result = runner.invoke(main, ["verify-certificate", str(path)])
        assert result.exit_code == 2
        assert "malformed certificate:" in result.output

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(MalformedCertificateError):
            verify_certificate(path)


_CYCLE_STAGES = '{"family": "cycle", "stages": [2, 3, 4, 5, 6, 7, 8, 9], "scaling": "n"}'


@pytest.mark.parametrize("command, file_text, message", [
    ("verify-certificate",
     '{"kind": "integer-norm", "target": 2, "base": 1, "certificate": [1, 1]}',
     "malformed certificate: base must be at least 2"),
    ("probe-sequence",
     '{"family": "cycle", "stages": [2, 3], "scaling": "n^alpha", "alpha": 1e308}',
     "stage 2 is out of range: (34, 'Numerical result out of range')"),
    ("probe-sequence",
     '{"family": "cycle", "stages": [0, 1], "scaling": "n^alpha", "alpha": -1}',
     "stage 0 is out of range: 0.0 cannot be raised to a negative power"),
    ("probe-sequence", '{"family": "table", "values": [[1, 1e400]], "scaling": "n"}',
     "norm at stage 1 must be finite and non-negative: inf"),
    ("integer-norm", None,
     "target out of range: |100000000000000000000000000000000000000000000000000| cannot be "
     "reached within 100000 steps of the largest member, 1371195958099968000"),
    ("probe-sequence --bound 1e309", _CYCLE_STAGES, "bad --bound: inf is not a finite number"),
    ("probe-sequence --bound nan", _CYCLE_STAGES, "bad --bound: nan is not a finite number"),
    ("probe-sequence --tail nan", _CYCLE_STAGES, "bad --tail: nan is not a finite number"),
    ("probe-sequence --tol inf", _CYCLE_STAGES, "bad --tol: inf is not a finite number"),
    ("probe-sequence --tol nan", _CYCLE_STAGES, "bad --tol: nan is not a finite number"),
    ("probe-sequence",
     json.dumps({"family": "table", "values": [[1, 1.7e308]] * 8, "scaling": "n"}),
     "the tail's sum exceeds the largest float, 1.7976931348623157e+308"),
], ids=["certificate-base-1", "alpha-overflow", "zero-to-negative-power", "infinite-norm",
        "integer-norm-past-budget", "infinite-bound", "nan-bound", "nan-tail", "infinite-tol",
        "nan-tol", "tail-mean-overflow"])
def test_utility_command_refuses_bad_input_in_one_line(runner, tmp_path, command, file_text,
                                                       message):
    # each once ended in a traceback with exit 1, or, for the infinite norm,
    # the flags and the tail mean, printed Infinity or NaN, which are not JSON
    if file_text is None:
        args = [*command.split(), str(10 ** 50), "--depth", "2"]
    else:
        path = tmp_path / "input.json"
        path.write_text(file_text)
        args = [*command.split(), str(path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].endswith(message), result.output


def test_the_command_line_skips_teardown_and_writes_what_main_writes(runner, tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(
        {k: v for k, v in RunConfig.small().as_dict().items() if k != "out"}))
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps({"seed": -1}))
    env = {**os.environ, "PYTHONPATH": str(Path(conecheck.__file__).parents[1])}

    def command_line(*args, code="import runpy\nrunpy.run_module('conecheck.cli', run_name='__main__')"):
        # an atexit handler runs only if the interpreter tears down
        code = f"import atexit\natexit.register(print, 'teardown')\n{code}\n"
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=env, timeout=120)

    done = command_line("all", "--config", str(config), "--out", str(tmp_path / "cli.json"))
    assert done.returncode == 0, done.stderr
    result = runner.invoke(main, ["all", "--config", str(config),
                                  "--out", str(tmp_path / "main.json")])
    assert result.exit_code == 0, result.output
    assert done.stdout == result.output
    assert done.stdout.splitlines()[-1].endswith(" checks, 0 failed -> pass")
    for name in ("{}.json", "{}.json.series.csv"):
        assert (tmp_path / name.format("cli")).read_bytes() == \
            (tmp_path / name.format("main")).read_bytes()
    # the installed script leaves the same way
    done = command_line("all", "--config", str(refused), code="from conecheck.cli import run\nrun()")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines() == ["config invalid: seed must be at least 0, got -1"]
    import tomllib
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["conecheck"] == "conecheck.cli:run"


_WITHOUT_NUMPY = "import sys\nsys.modules['numpy'] = None\nfrom conecheck.cli import main\nmain()\n"


def test_utility_commands_and_refusals_run_without_numpy(tmp_path):
    # numpy loads when the first suite runs; a verifier of certificates, the
    # integer norm, --help and a refused config never import it
    conjugate = tmp_path / "conjugate.json"
    conjugate.write_text(json.dumps(express_as_conjugates(
        Permutation.parse("(1 2 3)(4 5 6)"), Permutation.parse("(1 2)(3 4)")).to_json_dict()))
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps({"seed": -1}))
    integer = tmp_path / "integer.json"
    env = {**os.environ, "PYTHONPATH": str(Path(conecheck.__file__).parents[1])}
    for args, code in [(["integer-norm", "x(3)", "--out", str(integer)], 0),
                       (["verify-certificate", str(integer)], 0),
                       (["verify-certificate", str(conjugate)], 0),
                       (["--help"], 0),
                       (["all", "--config", str(refused)], 2)]:
        done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *args], capture_output=True,
                              text=True, env=env, timeout=60)
        assert done.returncode == code, (args, done.stdout, done.stderr)
        assert "Traceback" not in done.stderr, (args, done.stderr)
