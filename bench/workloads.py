"""Workload definitions: the RunConfig JSON each workload hands the program.

Every config is derived from the workload seed alone, so the same seed gives
the same files.  The program receives only these files (``--config``); the
report path is passed on the command line and is never part of the file.
"""

from __future__ import annotations

from conecheck.report import RunConfig

# The check ids each suite reports, in report order.  A run whose report
# lists other ids (or fewer) fails the correctness gate.
SUITE_CHECKS = {
    "norms": (
        "norms.composition_convention", "norms.pair_transposition_identity",
        "norms.sandwich_s7", "norms.bfs_tr_agreement", "norms.alternating_a6",
        "norms.three_cycle_oracle", "norms.conjugation_invariance_s5",
        "norms.metric_axioms_s5", "norms.closure_transpositions",
        "norms.table_axioms", "norms.domination", "norms.quasimorphism_lower_bound",
    ),
    "cutting": (
        "cutting.exhaustive_s6", "cutting.random_s30", "cutting.splitting_s7",
        "cutting.displacement_s8", "cutting.audit_report",
    ),
    "covering": (
        "covering.brenner", "covering.hypothesis_gate", "covering.ore_witnesses",
        "covering.conjugate_certificates", "covering.class_closure",
    ),
    "intnorm": (
        "intnorm.exact_small", "intnorm.sandwich", "intnorm.torsion",
        "intnorm.axioms_window", "intnorm.window_stability",
    ),
    "matnorm": (
        "matnorm.triangular", "matnorm.spd", "matnorm.so", "matnorm.permutation_cross",
    ),
    "products": (
        "products.free_product_conditions", "products.direct_sum_conditions",
        "products.negative_control", "products.isometry_equivalence",
        "products.prefix_projection",
    ),
    "coneprobe": (
        "coneprobe.roundtrip", "coneprobe.arc_identity", "coneprobe.lipschitz_grid",
        "coneprobe.sequence_contraction", "coneprobe.monotonicity",
        "coneprobe.admissibility", "coneprobe.scaling",
    ),
    "determinism": ("determinism.byte_identical",),
}

NON_DETERMINISM_SUITES = tuple(s for s in SUITE_CHECKS if s != "determinism")

# acceptance_scaled keeps the default degrees and divides every sampled
# count by this factor; the full default run (95-101 s on 2 cores) does not
# fit the per-run time budget.
ACCEPTANCE_SCALE = 6

# quick sweeps this many derived seeds per run.  They alternate, so a run of
# three or more processes also sees one config twice.
QUICK_SWEEP = 2


def _acceptance_scaled(seed: int) -> list[RunConfig]:
    base = RunConfig()
    return [RunConfig(
        suites=NON_DETERMINISM_SUITES,
        seed=seed,
        random_pairs=base.random_pairs // ACCEPTANCE_SCALE,
        matrix_pairs=base.matrix_pairs // ACCEPTANCE_SCALE,
        certificate_count=base.certificate_count // ACCEPTANCE_SCALE,
        circle_grid=base.circle_grid // ACCEPTANCE_SCALE,
    )]


def _exhaustive(seed: int) -> list[RunConfig]:
    # the largest exhaustive degrees RunConfig.validate() accepts
    return [RunConfig(
        suites=("norms", "covering"),
        seed=seed,
        brenner_degrees=(5, 6, 7, 8),
        ore_degrees=(5, 6, 7),
        norm_degree=8,
        alternating_degree=7,
    )]


def _quick(seed: int) -> list[RunConfig]:
    return [RunConfig.small(seed=seed * QUICK_SWEEP + i) for i in range(QUICK_SWEEP)]


WORKLOADS = {
    "acceptance_scaled": _acceptance_scaled,
    "exhaustive": _exhaustive,
    "quick": _quick,
}


def configs(workload: str, seed: int) -> list[dict]:
    """The config files' contents for one run, in the order they are cycled."""
    out = []
    for cfg in WORKLOADS[workload](seed):
        cfg.validate()
        data = cfg.as_dict()
        # a null "out" in the file would override the --out flag
        del data["out"]
        out.append(data)
    return out


def expected_checks(config: dict) -> tuple[str, ...]:
    suites = config["suites"]
    return tuple(cid for suite in SUITE_CHECKS if suite in suites
                 for cid in SUITE_CHECKS[suite])
