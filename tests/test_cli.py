"""The batch front-end: subcommands, config handling, certificate checks."""

import json

import pytest
from click.testing import CliRunner

from conecheck.cli import main, verify_certificate
from conecheck.cli import MalformedCertificateError, RecompositionMismatchError
from conecheck.covering import express_as_conjugates
from conecheck.perms import Permutation
from conecheck.report import RunConfig, load_config_file
from conecheck.suites import run_suite


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
    cfg.write_text(json.dumps({"jobs": 0}))
    result = runner.invoke(main, ["intnorm", "--config", str(cfg)])
    assert result.exit_code == 2


def test_negative_samples_exit_2(runner):
    result = runner.invoke(main, ["cutting", "--samples", "-5"])
    assert result.exit_code == 2
    assert "random_pairs" in result.output


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
    assert json.loads(out.read_text())["config"]["seed"] == 99


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
            report["all_hold"], report["norm-decrease"]["checked"],
            witness=report["norm-decrease"]["witness"],
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

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(MalformedCertificateError):
            verify_certificate(path)
