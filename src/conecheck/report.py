"""Run configuration and deterministic machine-readable reports.

Reports are byte-identical across runs with the same config and seed: keys
are sorted, floats go through repr, and nothing time- or host-dependent is
recorded.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from .covering import MAX_COVERING_DEGREE
from .perms import MAX_THREE_CYCLE_DEGREE

# The norms suite runs a transposition BFS over all of S_norm_degree, and
# S_9 has 362880 elements.
MAX_NORM_DEGREE = 8


class ConfigInvalidError(ValueError):
    pass


SUITE_NAMES = (
    "norms",
    "cutting",
    "covering",
    "intnorm",
    "matnorm",
    "products",
    "coneprobe",
    "determinism",
)

CONFIG_ENV_VAR = "CONECHECK_CONFIG"


@dataclass
class RunConfig:
    """Scale caps, tolerances and the seed for one verification run.

    Defaults reproduce the full acceptance scales; the CLI's --max-degree is
    a ceiling over the exhaustive degrees and --samples rescales the sampled
    checks.
    """

    suites: tuple = SUITE_NAMES
    seed: int = 2020
    tau: float = 1e-8
    out: str | None = None

    norm_degree: int = 7
    alternating_degree: int = 6
    cutting_degree: int = 6
    cutting_max_k: int = 8
    random_pairs: int = 100_000
    random_degree: int = 30
    split_degree: int = 7
    displacement_degree: int = 8
    brenner_degrees: tuple = (5, 6, 7)
    ore_degrees: tuple = (5, 6)
    certificate_count: int = 100
    certificate_degree: int = 7
    intnorm_exact_max: int = 5
    intnorm_sandwich_max: int = 8
    intnorm_axiom_window: int = 200
    intnorm_depth: int = 12
    triangular_max_n: int = 10
    spd_max_n: int = 8
    so_min_n: int = 4
    so_max_n: int = 12
    matrix_pairs: int = 1000
    circle_roundtrip_max: int = 1024
    circle_grid: int = 10_000
    circle_mod_max: int = 256
    word_l1_budget: int = 6
    sum_indices: int = 20
    sum_terms: int = 4
    sequence_stage_max: int = 8
    tail_fraction: float = 0.25
    convergence_tol: float = 1e-3

    def validate(self) -> None:
        unknown = [s for s in self.suites if s not in SUITE_NAMES and s != "all"]
        if unknown:
            raise ConfigInvalidError(f"unknown suites: {unknown}")
        if not 0 < self.tau < 1:
            raise ConfigInvalidError("tau must lie in (0, 1)")
        if self.cutting_degree > 7:
            raise ConfigInvalidError("exhaustive cutting beyond S_7 is not sensible")
        # the covering theorem starts at A_5; both covering checks enumerate
        # A_n exhaustively, and A_9 would run for minutes
        outside = [d for d in self.brenner_degrees if not 5 <= d <= MAX_COVERING_DEGREE]
        if outside:
            raise ConfigInvalidError(
                f"brenner_degrees must lie in 5..{MAX_COVERING_DEGREE}, got {outside}")
        outside = [d for d in self.ore_degrees if not 1 <= d <= MAX_COVERING_DEGREE]
        if outside:
            raise ConfigInvalidError(
                f"ore_degrees must lie in 1..{MAX_COVERING_DEGREE}, got {outside}")
        # a certificate base needs an even element with a 2-cycle, first in A_4
        if self.certificate_degree < 4:
            raise ConfigInvalidError("certificate_degree must be at least 4")
        # the 3-cycle oracle check measures A_max(m-1, 4) inside A_(m+1)
        if not 4 <= self.alternating_degree <= MAX_THREE_CYCLE_DEGREE - 1:
            raise ConfigInvalidError(
                f"alternating_degree must lie in 4..{MAX_THREE_CYCLE_DEGREE - 1}")
        # S_1 has no element for the norm checks to measure
        if not 2 <= self.norm_degree <= MAX_NORM_DEGREE:
            raise ConfigInvalidError(f"norm_degree must lie in 2..{MAX_NORM_DEGREE}")
        # k = 0 leaves exhaustive_s6 no pair to examine
        if self.cutting_max_k < 1:
            raise ConfigInvalidError("cutting_max_k must be at least 1")
        if not 0 < self.tail_fraction <= 1:
            raise ConfigInvalidError("tail_fraction must lie in (0, 1]")
        # bool is a subclass of int, but true is no seed
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigInvalidError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigInvalidError("seed must be non-negative")
        # a sampled check that draws nothing would pass having examined nothing
        for name in ("random_pairs", "matrix_pairs", "certificate_count", "circle_grid"):
            if getattr(self, name) < 1:
                raise ConfigInvalidError(f"{name} must be at least 1")

    def apply_ceiling(self, max_degree: int | None) -> None:
        if max_degree is None:
            return
        self.norm_degree = min(self.norm_degree, max_degree)
        self.alternating_degree = min(self.alternating_degree, max_degree)
        self.cutting_degree = min(self.cutting_degree, max_degree)
        self.split_degree = min(self.split_degree, max_degree)
        self.displacement_degree = min(self.displacement_degree, max_degree)
        self.certificate_degree = min(self.certificate_degree, max_degree)
        self.brenner_degrees = tuple(d for d in self.brenner_degrees if d <= max_degree)
        self.ore_degrees = tuple(d for d in self.ore_degrees if d <= max_degree)
        self.triangular_max_n = min(self.triangular_max_n, max_degree)
        self.spd_max_n = min(self.spd_max_n, max_degree)
        self.so_max_n = max(min(self.so_max_n, max_degree), self.so_min_n)

    def apply_samples(self, samples: int | None) -> None:
        if samples is None:
            return
        self.random_pairs = samples
        self.matrix_pairs = min(self.matrix_pairs, samples)
        self.certificate_count = min(self.certificate_count, samples)
        self.circle_grid = min(self.circle_grid, max(samples, 100))

    @classmethod
    def small(cls, seed: int = 2020) -> "RunConfig":
        """A reduced-scale config exercising every suite; used by the
        determinism check and quick CLI runs."""
        return cls(
            suites=tuple(s for s in SUITE_NAMES if s != "determinism"),
            seed=seed,
            norm_degree=5,
            alternating_degree=5,
            cutting_degree=5,
            cutting_max_k=6,
            random_pairs=200,
            random_degree=12,
            split_degree=5,
            displacement_degree=6,
            brenner_degrees=(5,),
            ore_degrees=(5,),
            certificate_count=5,
            certificate_degree=6,
            intnorm_exact_max=3,
            intnorm_sandwich_max=5,
            intnorm_axiom_window=40,
            triangular_max_n=5,
            spd_max_n=5,
            so_min_n=4,
            so_max_n=6,
            matrix_pairs=40,
            circle_roundtrip_max=64,
            circle_grid=500,
            circle_mod_max=32,
            word_l1_budget=4,
            sum_indices=8,
            sum_terms=3,
            sequence_stage_max=5,
        )

    def as_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["suites"] = list(self.suites)
        data["brenner_degrees"] = list(self.brenner_degrees)
        data["ore_degrees"] = list(self.ore_degrees)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        kwargs = {}
        names = {f.name for f in dataclasses.fields(cls)}
        for key, value in data.items():
            if key not in names:
                raise ConfigInvalidError(f"unknown config key {key!r}")
            if key in ("suites", "brenner_degrees", "ore_degrees"):
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)


def load_config_file(path: str | None) -> dict:
    """The config file named by the flag or CONECHECK_CONFIG, as overrides."""
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalidError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalidError("config file must hold a JSON object")
    return data


@dataclass
class CheckResult:
    """One verified statement: what was checked, at what scale, and how it went."""

    check_id: str
    lemma: str
    status: str  # "pass" | "fail"
    sample_size: int
    constants: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    witness: str | None = None

    @classmethod
    def from_outcome(cls, check_id, lemma, ok, sample_size, constants=None,
                     observed=None, witness=None) -> "CheckResult":
        """A check that examined nothing fails: it has shown nothing."""
        if sample_size == 0:
            ok, witness = False, "nothing was examined (sample size 0)"
        return cls(
            check_id=check_id,
            lemma=lemma,
            status="pass" if ok else "fail",
            sample_size=sample_size,
            constants=constants or {},
            observed=observed or {},
            witness=witness if not ok else None,
        )

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "lemma": self.lemma,
            "status": self.status,
            "sample_size": self.sample_size,
            "constants": _plain(self.constants),
            "observed": _plain(self.observed),
            "witness": self.witness,
        }


def _plain(value):
    """Recursively convert numpy scalars and tuples for stable JSON."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item") and callable(value.item) and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (ValueError, TypeError):
            return str(value)
    return value


def build_report(config: RunConfig, checks: list[CheckResult]) -> dict:
    failures = [c for c in checks if c.status != "pass"]
    return {
        "tool": "conecheck",
        "config": _plain(config.as_dict()),
        "checks": [c.as_dict() for c in checks],
        "counts": {"total": len(checks), "failed": len(failures)},
        "status": "pass" if not failures else "fail",
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
