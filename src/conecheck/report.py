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
from .intnorm import MAX_INTNORM_INDEX
from .perms import MAX_THREE_CYCLE_DEGREE

# The norms suite holds all of S_norm_degree as an (N, n) image array, and a
# failing check builds its image tuples and replays a transposition BFS over
# them; S_9 has 362880 elements.
MAX_NORM_DEGREE = 8
# Grid angles projected by coneprobe.lipschitz_grid, over every n: 3.2-3.4 s
# at 100 000 angles with n <= 256 or 12 500 with n <= 2048.
MAX_CIRCLE_GRID_WORK = 25_600_000
# Random cutting pairs times their degree: 4.7 s at 100 000 pairs of degree
# 150 and 150 000 of degree 100, 5.8 s at 400 000 of degree 37.
MAX_RANDOM_PAIR_WORK = 15_000_000
# intnorm.axioms_window searches every x in [-2w, 2w] to depth 9
# (suites.AXIOMS_WINDOW_DEPTH), which reaches |x| <= 596: window 299 fails
# falsely with "unknown at -597" (and window 900 at depth 12 with "unknown at
# -1755").
MAX_INTNORM_WINDOW = 298


class ConfigInvalidError(ValueError):
    pass


SUITE_NAMES = ("norms", "cutting", "covering", "intnorm", "matnorm", "products",
               "coneprobe", "determinism")

CONFIG_ENV_VAR = "CONECHECK_CONFIG"


def _field(default, lo=None, hi=None, *, degree=False):
    """A config field whose value, or each entry of a tuple value, lies in
    lo..hi (inclusive; None leaves that end open).  --max-degree lowers a
    degree field to the ceiling and drops the larger entries of a tuple."""
    return field(default=default, metadata={"lo": lo, "hi": hi, "degree": degree})


def _well_typed(value, default) -> bool:
    """A field's type is its default's.  A bool is never an int (no field is a
    bool), a float field also takes an int, a tuple holds its default's entry
    type, and a None default (the report path) stands for an optional str."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_well_typed(v, default[0]) for v in value)
    kind = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kind) and not isinstance(value, bool)


def _type_name(default) -> str:
    return ("a string or null" if default is None
            else f"a list of {type(default[0]).__name__}" if isinstance(default, tuple)
            else "a number" if isinstance(default, float) else f"an {type(default).__name__}")


def _span(lo, hi) -> str:
    return (f"be at least {lo}" if hi is None else f"be at most {hi}" if lo is None
            else f"lie in {lo}..{hi}")


# The rules lo..hi cannot state: open ends, relations between two fields, and
# the report path.
# Each is (fields it reads, test, message over the config's fields).
_RELATIONS = (
    (("suites",), lambda c: set(c.suites) <= {*SUITE_NAMES, "all"},
     "suites must name known suites, got {suites!r}"),
    (("tau",), lambda c: 0 < c.tau < 1, "tau must lie in (0, 1), got {tau!r}"),
    # the direct-sum check draws up to sum_terms distinct summands of Z/2..Z/sum_indices
    (("sum_terms", "sum_indices"), lambda c: c.sum_terms < c.sum_indices,
     "sum_terms must be below sum_indices, got {sum_terms} >= {sum_indices}"),
    (("so_min_n", "so_max_n"), lambda c: c.so_min_n <= c.so_max_n,
     "so_min_n must not exceed so_max_n, got {so_min_n} > {so_max_n}"),
    # coneprobe.lipschitz_grid projects the whole grid once per n
    (("circle_grid", "circle_mod_max"),
     lambda c: c.circle_grid * c.circle_mod_max <= MAX_CIRCLE_GRID_WORK,
     f"circle_grid * circle_mod_max must be at most {MAX_CIRCLE_GRID_WORK}, "
     "got {circle_grid} * {circle_mod_max}"),
    # cutting.random_s30 cuts every pair at every k, and each cut grows with the degree
    (("random_pairs", "random_degree"),
     lambda c: c.random_pairs * c.random_degree <= MAX_RANDOM_PAIR_WORK,
     f"random_pairs * random_degree must be at most {MAX_RANDOM_PAIR_WORK}, "
     "got {random_pairs} * {random_degree}"),
    # the intnorm window cap, kept out of lo..hi so that the field's lower bound
    # keeps its own message
    (("intnorm_axiom_window",), lambda c: c.intnorm_axiom_window <= MAX_INTNORM_WINDOW,
     f"intnorm_axiom_window must be at most {MAX_INTNORM_WINDOW}, the reach of depth 9, "
     "got {intnorm_axiom_window}"),
    # the report is written after every suite has run, so a path that cannot
    # take it is refused before the first one
    (("out",), lambda c: c.out is None or not os.path.isdir(c.out)
     and os.path.isdir(os.path.dirname(os.path.abspath(c.out))),
     "out must name a file in an existing directory, got {out!r}"),
)


@dataclass
class RunConfig:
    """Scale caps, tolerances and the seed for one verification run.

    Defaults reproduce the full acceptance scales; the CLI's --max-degree is
    a ceiling over the exhaustive degrees and --samples rescales the sampled
    checks.  Each field declares its accepted values once, through _field;
    validate(), apply_ceiling() and the dict round trip read them from there.
    """

    suites: tuple = SUITE_NAMES
    seed: int = _field(2020, 0)
    tau: float = 1e-8
    out: str | None = None

    # S_1 has no element for the norm checks to measure
    norm_degree: int = _field(7, 2, MAX_NORM_DEGREE, degree=True)
    # the 3-cycle oracle check measures A_max(m-1, 4) inside A_(m+1)
    alternating_degree: int = _field(6, 4, MAX_THREE_CYCLE_DEGREE - 1, degree=True)
    # exhaustive cutting beyond S_7 is not sensible.  At 7 the cutting suite
    # takes 3.0 s and 66 MB peak RSS, 25 MB of it S_7's Hamming table
    cutting_degree: int = _field(6, 2, 7, degree=True)
    # k = 0 leaves exhaustive_s6 no pair to examine; caps keep the cutting
    # suite within 8 s at the default random_pairs (about 1 s at the
    # defaults).  cut_bounds certifies the step bound from adjacent steps, so
    # the suite grows linearly in k: 1.5 s at 20, 2.1 s at 32; 5.3 s at 20
    # with 400 000 random pairs
    cutting_max_k: int = _field(8, 1, 20)
    # a sampled check that draws nothing would pass having examined nothing;
    # the cap keeps the cutting suite within the same 8 s: 5.4 s and 42 MB
    # peak RSS at 400 000, 7.0 s at 500 000.  With random_degree its work is
    # stated in _RELATIONS
    random_pairs: int = _field(100_000, 1, 400_000)
    # S_1 holds only the identity, which every cut bound trivially meets; the
    # cap keeps the cutting suite within the same 8 s, as it grows linearly
    # in the degree: 5.5 s and 58 MB peak RSS at 150, 9.2 s at 300.  The
    # image arrays are int16, so the degree must stay below 2^15 in any case
    random_degree: int = _field(30, 2, 150)
    # both checks enumerate S_n: splitting on S_9 and displacement on S_10
    # each run for most of a minute or more
    split_degree: int = _field(7, 2, 8, degree=True)
    displacement_degree: int = _field(8, 2, 9, degree=True)
    # the covering theorem starts at A_5; both covering checks enumerate
    # A_n exhaustively, and A_9 would run for minutes
    brenner_degrees: tuple = _field((5, 6, 7), 5, MAX_COVERING_DEGREE, degree=True)
    ore_degrees: tuple = _field((5, 6), 1, MAX_COVERING_DEGREE, degree=True)
    # the cap keeps the covering suite near its cost at the default count on
    # A_9, the certificate_degree cap: 4.7-7.3 s and 104 MB peak RSS at 100,
    # 6.2-9.1 s at 200, 14 s at 1000 (0.2 s at 300 on A_7)
    certificate_count: int = _field(100, 1, 200)
    # a certificate base needs an even element with a 2-cycle, first in A_4;
    # the certificates on A_10 run for over a minute
    certificate_degree: int = _field(7, 4, 9, degree=True)
    # the lower bounds from here on keep each range nonempty; below them a
    # check examined nothing, raised, or failed falsely
    # x_n needs the generators up to index n - 1, and the suite searches up to
    # MAX_INTNORM_INDEX: the intnorm suite takes 0.9 s with both at 15
    intnorm_exact_max: int = _field(5, 1, MAX_INTNORM_INDEX + 1)
    intnorm_sandwich_max: int = _field(8, 1, MAX_INTNORM_INDEX + 1)
    # the window is [-w, w]; w = -1 would pass over no integer.  Its cap is in
    # _RELATIONS
    intnorm_axiom_window: int = _field(200, 0)
    # caps keep the matnorm suite within 8 s at the default matrix_pairs (about
    # 5 s at the defaults when they were set): 1.9-2.7 s and 57 MB peak RSS run
    # alone at triangular n 16, 2.6-4.0 s and 62 MB at 18; 7.2 s at SPD n 12,
    # 10.4 s at 13 (Hadamard's bound sends most SPD matrices to Bareiss);
    # 7.3-8.6 s at SO n 15, 8.1-10.2 s at 16 and 9.4 s at 17 on the per-pair
    # loop.  With one stack per SO n the suite takes 0.9-1.1 s at the defaults,
    # 1.3-1.5 s at SO n 15 and 1.6 s at 16, and run alone peaks at 51 and 57 MB
    # RSS (47 MB for both in SO blocks)
    triangular_max_n: int = _field(10, 1, 16, degree=True)
    spd_max_n: int = _field(8, 2, 12, degree=True)
    # SO(1) is the trivial group
    so_min_n: int = _field(4, 2)
    so_max_n: int = _field(12, None, 15, degree=True)
    # the cap keeps the matnorm suite within the same 8 s: 1.3-1.5 s and 56 MB
    # peak RSS at 1500 (53 MB in SO blocks), 1.9 s and 64 MB at 2000; with
    # SO n 15 as well, 2.0-2.2 s and 66 MB at 1500 (53 MB in SO blocks)
    matrix_pairs: int = _field(1000, 1, 1500)
    # caps keep the coneprobe suite within 8 s (about 1 s at the defaults).
    # The round trip holds n(n+1)/2 residues: 1.7 s at 4096, 3.8 s at 8192.
    # The grid costs circle_grid * circle_mod_max, stated in _RELATIONS: 3.2 s
    # and 48 MB peak RSS at grid 100 000 (n <= 256), 57 MB at 200 000; 2.4 s at
    # n <= 2048 and 4.0 s at 4096 (grids of 10 000 and 6250).  All three at
    # their caps take 6.1-6.3 s
    circle_roundtrip_max: int = _field(1024, 1, 8192)
    circle_grid: int = _field(10_000, 1, 100_000)
    circle_mod_max: int = _field(256, 1, 2048)
    # the two free-product checks audit every pair of words of l1 norm up to
    # the budget, and the pairs about double a step: the products suite takes
    # 2.0 s at 10, 4.6 s at 11 and 9.3 s at 12, past its budget of 8 s
    word_l1_budget: int = _field(6, 1, 11)
    # each factor Z/i keeps its residues as range(i), so memory no longer
    # grows with n^2: the products suite takes 0.15 s and 39 MB peak RSS at
    # 1000 (0.6 s and 51 MB with sum_terms 999), and 50 MB at 10 000
    sum_indices: int = _field(20, 2, 1000)
    sum_terms: int = _field(4, 1)
    # no lower bound: below two stages coneprobe.sequence_contraction fails as
    # empty.  Its three families take 0.6 s at 16, 1.1 s at 20 and 2.1 s at 24
    # (the suite 6.3 s at 32 and 11 s at 36), and the circle checks at their
    # caps 6.3 s
    sequence_stage_max: int = _field(8, None, 20)

    def validate(self) -> None:
        """Raise one ConfigInvalidError naming every field of a wrong type or
        outside its bounds."""
        bad = {}
        for f in dataclasses.fields(self):
            value, lo, hi = getattr(self, f.name), f.metadata.get("lo"), f.metadata.get("hi")
            if not _well_typed(value, f.default):
                bad[f.name] = f"{f.name} must be {_type_name(f.default)}, got {value!r}"
            elif any(lo is not None and v < lo or hi is not None and v > hi
                     for v in (value if isinstance(value, tuple) else (value,))):
                bad[f.name] = f"{f.name} must {_span(lo, hi)}, got {value!r}"
        for names, holds, message in _RELATIONS:
            if not bad.keys() & set(names) and not holds(self):
                bad[names[0]] = message.format_map(vars(self))
        if bad:
            raise ConfigInvalidError("; ".join(bad.values()))

    def apply_ceiling(self, max_degree: int | None) -> None:
        if max_degree is None:
            return
        for f in dataclasses.fields(self):
            if f.metadata.get("degree"):
                value = getattr(self, f.name)
                setattr(self, f.name, tuple(d for d in value if d <= max_degree)
                        if isinstance(value, tuple) else min(value, max_degree))

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
            suites=tuple(s for s in SUITE_NAMES if s != "determinism"), seed=seed,
            norm_degree=5, alternating_degree=5,
            cutting_degree=5, cutting_max_k=6, random_pairs=200, random_degree=12,
            split_degree=5, displacement_degree=6,
            brenner_degrees=(5,), ore_degrees=(5,), certificate_count=5, certificate_degree=6,
            intnorm_exact_max=3, intnorm_sandwich_max=5, intnorm_axiom_window=40,
            triangular_max_n=5, spd_max_n=5, so_min_n=4, so_max_n=6, matrix_pairs=40,
            circle_roundtrip_max=64, circle_grid=500, circle_mod_max=32,
            word_l1_budget=4, sum_indices=8, sum_terms=3, sequence_stage_max=5,
        )

    def as_dict(self) -> dict:
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in names:
                raise ConfigInvalidError(f"unknown config key {key!r}")
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in data.items()})


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
    def from_outcome(cls, check_id, lemma, witness, sample_size, constants=None,
                     observed=None) -> "CheckResult":
        """A check fails exactly when it has a witness.  One that examined
        nothing fails too: it has shown nothing."""
        if sample_size == 0:
            witness = "nothing was examined (sample size 0)"
        return cls(
            check_id=check_id,
            lemma=lemma,
            status="pass" if witness is None else "fail",
            sample_size=sample_size,
            constants=constants or {},
            observed=observed or {},
            witness=witness,
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
    # the report path is not recorded: one run written to two paths gives the same bytes
    recorded = config.as_dict()
    del recorded["out"]
    return {
        "tool": "conecheck",
        "config": _plain(recorded),
        "checks": [c.as_dict() for c in checks],
        "counts": {"total": len(checks), "failed": len(failures)},
        "status": "pass" if not failures else "fail",
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
