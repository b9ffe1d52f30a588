"""Acceptance criteria, run through the default full-scale configuration.

The whole default suite runs once per session; each criterion below asserts
its checks passed at the stated scale and tolerance and prints one line.
The mapping from criteria to check ids is fixed here, nothing is scaled
down, and a red criterion fails loudly with the recorded witness.

tests/data/default_report.json is that run's report.  A deliberate report
change regenerates it with

    PYTHONPATH=src python3 tests/test_acceptance.py

and says so in CHANGES.md, like the workload digests.
"""

import itertools
import json
import math
from pathlib import Path

import pytest

from conecheck.report import RunConfig, report_to_json
from conecheck.suites import run_suite

# the default run's report, committed: a refactor must reproduce it row for row
GOLDEN_REPORT = Path(__file__).parent / "data" / "default_report.json"

# the full default run takes most of the suite's time: `pytest -m "not acceptance"`
# skips it for a fast inner loop
pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def full_report():
    code, report = run_suite(RunConfig(), echo=lambda *_: None)
    return code, report


def _lookup(report, check_id):
    for check in report["checks"]:
        if check["check_id"] == check_id:
            return check
    raise AssertionError(f"check {check_id} missing from the report")


def _assert_criterion(report, number, title, check_ids):
    rows = [_lookup(report, cid) for cid in check_ids]
    failed = [r for r in rows if r["status"] != "pass"]
    sample = sum(r["sample_size"] for r in rows)
    verdict = "PASS" if not failed else "FAIL"
    print(f"[{verdict}] criterion {number}: {title} (n={sample})")
    assert not failed, [
        (r["check_id"], r["witness"]) for r in failed
    ]


def test_criterion_01_norm_sandwich(full_report):
    _, report = full_report
    assert _lookup(report, "norms.sandwich_s7")["sample_size"] == 5040
    assert _lookup(report, "norms.alternating_a6")["sample_size"] == 360
    _assert_criterion(report, 1,
                      "tr <= supp <= 2 tr on S_7; tr <= 2 n3, n3 <= 1.5 tr on A_6",
                      ["norms.sandwich_s7", "norms.alternating_a6"])


def test_criterion_02_cutting_bounds(full_report):
    _, report = full_report
    exhaustive = _lookup(report, "cutting.exhaustive_s6")
    assert exhaustive["sample_size"] == 720 * 720 * 8
    random_part = _lookup(report, "cutting.random_s30")
    assert random_part["sample_size"] == 100_000
    _assert_criterion(report, 2,
                      "cutting-map Lipschitz and norm bounds, exhaustive S_6 "
                      "pairs plus 1e5 random S_30 pairs",
                      ["cutting.exhaustive_s6", "cutting.random_s30"])


def test_criterion_03_splitting(full_report):
    _, report = full_report
    _assert_criterion(report, 3, "splitting recomposes with both support bounds on S_7",
                      ["cutting.splitting_s7"])


def test_criterion_04_displacement(full_report):
    _, report = full_report
    check = _lookup(report, "cutting.displacement_s8")
    assert check["sample_size"] == 40320 - 1  # every non-identity element of S_8
    _assert_criterion(report, 4, "displaced sets of size >= supp/3 on S_8",
                      ["cutting.displacement_s8"])


def test_criterion_05_brenner(full_report):
    _, report = full_report
    check = _lookup(report, "covering.brenner")
    assert check["constants"]["exponent"] == 4
    assert check["observed"]["classes_checked"] >= 4
    _assert_criterion(report, 5, "C_sigma^4 = A_n for n in {5, 6, 7} by exhaustive BFS",
                      ["covering.brenner"])


def test_criterion_06_ore(full_report):
    _, report = full_report
    check = _lookup(report, "covering.ore_witnesses")
    assert check["sample_size"] == 60 + 360  # all of A_5 and A_6
    _assert_criterion(report, 6, "commutator witnesses for every element of A_5 and A_6",
                      ["covering.ore_witnesses"])


def test_criterion_07_certificates(full_report):
    _, report = full_report
    check = _lookup(report, "covering.conjugate_certificates")
    assert check["sample_size"] == 100
    _assert_criterion(report, 7,
                      "100 random A_7 conjugate-product certificates recompose "
                      "within 8 supp(h)/supp(g) + 4 factors",
                      ["covering.conjugate_certificates"])


def test_criterion_08_integer_pathology(full_report):
    _, report = full_report
    assert _lookup(report, "intnorm.exact_small")["sample_size"] == 5
    assert _lookup(report, "intnorm.sandwich")["sample_size"] == 8
    _assert_criterion(report, 8,
                      "||x_n|| = n exactly (n <= 5 by search, n <= 8 by sandwich); "
                      "torsion probe reports (n, 1)",
                      ["intnorm.exact_small", "intnorm.sandwich", "intnorm.torsion"])


def test_criterion_09_matrix_projections(full_report):
    _, report = full_report
    so_check = _lookup(report, "matnorm.so")
    assert so_check["constants"]["tau"] == 1e-8
    assert so_check["observed"]["flagged_failures"] == 0
    _assert_criterion(report, 9,
                      "triangular, SPD and SO(n) projection bounds at the "
                      "stated scales and tau = 1e-8",
                      ["matnorm.triangular", "matnorm.spd", "matnorm.so"])


def test_criterion_10_circle(full_report):
    _, report = full_report
    roundtrip = _lookup(report, "coneprobe.roundtrip")
    assert roundtrip["sample_size"] == 1024 * 1025 // 2  # all residues, n <= 1024
    _assert_criterion(report, 10,
                      "theta-phi round trip, exact arc identity and the +2 "
                      "Lipschitz bound on the angle grid",
                      ["coneprobe.roundtrip", "coneprobe.arc_identity",
                       "coneprobe.lipschitz_grid"])


def test_criterion_11_products(full_report):
    _, report = full_report
    _assert_criterion(report, 11,
                      "single-projection conditions on Z/2 * Z/3 words and "
                      "truncated direct sums; negative control fails (iii)",
                      ["products.free_product_conditions",
                       "products.direct_sum_conditions",
                       "products.negative_control"])


def test_criterion_12_permutation_matrices(full_report):
    _, report = full_report
    check = _lookup(report, "matnorm.permutation_cross")
    assert check["sample_size"] >= 720
    _assert_criterion(report, 12,
                      "rk(P - id) <= supp <= 3 rk(P - id) on exhaustive S_6",
                      ["matnorm.permutation_cross"])


def test_criterion_13_determinism(full_report):
    _, report = full_report
    _assert_criterion(report, 13,
                      "identical config and seed give byte-identical reports",
                      ["determinism.byte_identical"])


def test_every_check_green(full_report):
    code, report = full_report
    assert report["counts"]["failed"] == 0
    assert code == 0


def _first_difference(got, want, path=""):
    """Path of the first value that differs, or None.  Floats may differ in the
    last bits (singular values come from LAPACK); everything else is exact."""
    if isinstance(want, float) and isinstance(got, float):
        return None if math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0) else path
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return f"{path} (keys {sorted(got.keys() ^ want.keys())})"
        for key in want:
            found = _first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path} (length {len(got)} != {len(want)})"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if type(got) is type(want) and got == want else path


def test_default_report_matches_golden(full_report):
    _, report = full_report
    golden = json.loads(GOLDEN_REPORT.read_text())
    assert _first_difference(report["config"], golden["config"]) is None, "config differs"
    for got, want in itertools.zip_longest(report["checks"], golden["checks"]):
        assert got is not None and want is not None, (
            f"check lists differ in length; extra {(got or want)['check_id']}")
        assert got["check_id"] == want["check_id"], (
            f"expected {want['check_id']}, got {got['check_id']}")
        where = _first_difference(got, want)
        assert where is None, f"{want['check_id']} differs at {where.lstrip('.')}"
    assert report["counts"] == golden["counts"] and report["status"] == golden["status"]


if __name__ == "__main__":
    GOLDEN_REPORT.write_text(report_to_json(run_suite(RunConfig(), echo=lambda *_: None)[1]))
