"""Finite-stage probes for rescaled limits.

No ultrafilter is (or can be) constructed; a divergent normalized series is
reported as not converged, never resolved.  The Z/n <-> circle
correspondence and the staged contraction hypotheses are checked exactly or
at the configured tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class ScaledSequence:
    """A finite prefix of (index, norm) stages with a scaling sequence."""

    stages: tuple  # ((n, norm_value), ...) with increasing n
    scaling: Callable[[int], float]
    label: str = ""

    def __post_init__(self):
        # admissibility and the tail statistics have nothing to take the max of
        if not self.stages:
            raise ValueError("a sequence needs at least one stage")
        # the series is written as JSON, which has no infinity
        for n, norm in self.stages:
            try:
                scale = self.scaling(n)
                if not (norm >= 0 and math.isfinite(norm)):
                    raise ValueError(f"norm at stage {n} must be finite and non-negative: {norm}")
                if not (scale > 0 and math.isfinite(scale) and math.isfinite(norm / scale)):
                    raise ValueError(f"scaling at stage {n} must be finite and strictly "
                                     f"positive, with a finite norm / scaling: {scale}")
            except ArithmeticError as exc:  # a float overflow, or 0 to a negative power
                raise ValueError(f"stage {n} is out of range: {exc}") from exc

    def normalized(self) -> tuple[float, ...]:
        return tuple(norm / self.scaling(n) for n, norm in self.stages)


def scaling_by_name(name: str, alpha: float = 1.0) -> Callable[[int], float]:
    if name == "n":
        return lambda n: float(n)
    if name == "n^alpha":
        return lambda n: float(n) ** alpha
    raise ValueError(f"unknown scaling {name!r}")


def admissibility(seq: ScaledSequence, bound: float) -> tuple[bool, dict]:
    """Is ||x_n|| / s_n <= bound at every recorded stage?  Witness: the max."""
    series = seq.normalized()
    worst = max(range(len(series)), key=lambda i: series[i])
    witness = {
        "stage": seq.stages[worst][0],
        "ratio": series[worst],
        "bound": bound,
    }
    return series[worst] <= bound, witness


@dataclass(frozen=True)
class UltralimitEstimate:
    """Tail statistics of a normalized series; an honest limit surrogate."""

    series: tuple[float, ...]
    tail_min: float
    tail_max: float
    tail_mean: float
    converged: bool
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "tail_min": self.tail_min,
            "tail_max": self.tail_max,
            "tail_mean": self.tail_mean,
            "converged": self.converged,
            "tolerance": self.tolerance,
        }


# the tail share and convergence spread of estimate_limit, which
# coneprobe.monotonicity and coneprobe.admissibility use, and of
# probe-sequence's --tail and --tol.  admissibility's fixed series need a share
# in 0.02..0.8 and a spread in (0, 1): the 60-value alternating one keeps two
# tail values only above 1/60 and converges at spread 1 (at 0 or less nothing
# varying converges); the 399-value 1/n converges at 1e-2 only up to 320/399
TAIL_FRACTION = 0.25
CONVERGENCE_TOL = 1e-3


def estimate_limit(values, tail_fraction: float = TAIL_FRACTION,
                   tolerance: float = CONVERGENCE_TOL) -> UltralimitEstimate:
    """Tail statistics over the last tail_fraction of the series.

    Converged means tail_max - tail_min <= tolerance; an alternating series
    is reported as not converged (an ultrafilter would pick a value, finite
    stages cannot).
    """
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError("empty series")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    start = min(len(values) - 1, int(len(values) * (1 - tail_fraction)))
    tail = values[start:]
    tail_min, tail_max = min(tail), max(tail)
    tail_mean = sum(tail) / len(tail)
    if not math.isfinite(tail_mean):  # finite values can overflow their sum
        raise ValueError(f"the tail's sum exceeds the largest float, {sys.float_info.max!r}")
    return UltralimitEstimate(
        series=values,
        tail_min=tail_min,
        tail_max=tail_max,
        tail_mean=tail_mean,
        converged=(tail_max - tail_min) <= tolerance,
        tolerance=tolerance,
    )


@dataclass
class StageFamily:
    """A sequence of metric stages with inclusions and projections.

    distance(n, x, y) is the stage-n metric; project(n, x) lands in stage
    n-1; include(n, x) embeds stage n-1 into stage n isometrically; sample
    yields stage elements deterministically from a seed.
    """

    name: str
    distance: Callable
    project: Callable
    include: Callable
    sample: Callable
    identity_at: Callable


def check_sequence_contraction(family: StageFamily, stages, samples_per_stage: int,
                               seed: int, expected_k: float | None = None) -> dict:
    """Verify the staged contraction hypotheses on a sample.

    (i) d_n(p_n(x), x) <= K for the smallest K observed to work;
    (ii) d_{n-1}(p_n(x), p_n(y)) <= d_n(x, y);
    the inclusion of stage n-1 into stage n is spot-checked isometric.
    """
    worst_k = 0.0
    expansions = 0
    inclusion_defects = 0
    checked = 0
    witness = None
    for n in stages:
        points = family.sample(n, samples_per_stage, seed)
        projected = [family.project(n, x) for x in points]
        for i, (x, px) in enumerate(zip(points, projected)):
            worst_k = max(worst_k, family.distance(n, family.include(n, px), x))
            for y, py in zip(points[i + 1:], projected[i + 1:]):
                checked += 1
                if family.distance(n - 1, px, py) > family.distance(n, x, y) + 1e-12:
                    expansions += 1
                    witness = witness or f"stage {n}"
            # isometric inclusion spot check
            if family.distance(n, family.include(n, px), family.identity_at(n)) != \
               family.distance(n - 1, px, family.identity_at(n - 1)):
                inclusion_defects += 1
                witness = witness or f"inclusion at stage {n}"
    return {
        "family": family.name,
        "stages": list(stages),
        "pairs_checked": checked,
        "smallest_working_k": worst_k,
        "expected_k": expected_k,
        "k_within_expected": (expected_k is None or worst_k <= expected_k),
        "expansions": expansions,
        "inclusion_defects": inclusion_defects,
        "witness": witness,
    }


# --- the Z/n <-> circle correspondence -------------------------------------------


def zmod_to_circle(k: int, n: int) -> float:
    """The angle 2 pi k / n of the k-th n-th root of unity."""
    if not 0 <= k < n:
        raise ValueError(f"residue {k} outside 0..{n - 1}")
    return 2.0 * math.pi * k / n


def zmod_to_circle_array(n: int):
    """zmod_to_circle of every residue mod n, bit for bit."""
    import numpy as np

    return 2.0 * math.pi * np.arange(n) / n


def circle_to_zmod(angle: float, n: int) -> int:
    """The residue of the nearest n-th root of unity; ties go to the smaller.

    Any fixed tie-break satisfies the Lipschitz bound; this one keeps runs
    reproducible.
    """
    turns = (angle / (2.0 * math.pi)) % 1.0
    scaled = turns * n
    k = math.floor(scaled)
    frac = scaled - k
    if frac > 0.5:
        k += 1
    elif frac == 0.5:
        k = min(k, (k + 1) % n)
    return k % n


def circle_to_zmod_array(angles, n: int):
    """circle_to_zmod on an array of angles, with its tie rule."""
    import numpy as np

    scaled = (np.asarray(angles) / (2.0 * math.pi)) % 1.0 * n
    k = np.floor(scaled).astype(np.int64)
    frac = scaled - k
    return np.where(frac == 0.5, np.minimum(k, (k + 1) % n), k + (frac > 0.5)) % n


def cyclic_norm(k: int, n: int) -> int:
    return min(k % n, (-k) % n)


def arc_identity_exact(a: int, b: int, n: int) -> bool:
    """d_arc(phi(a), phi(b)) = 2 pi ||a - b||_n / n, checked in turns.

    Both sides are rational multiples of 2 pi, so the comparison is exact.
    """
    diff = Fraction((a - b) % n, n)
    arc = min(diff, 1 - diff)  # fraction of the full circle
    return arc == Fraction(cyclic_norm(a - b, n), n)


def arc_identity_array(n: int):
    """arc_identity_exact for every (a, b) mod n, in row-major order.

    Both sides are whole 1/n turns, so their numerators are compared.
    """
    import numpy as np

    a, b = np.divmod(np.arange(n * n), n)
    d = (a - b) % n
    return np.minimum(d, n - d) == np.minimum(d, (b - a) % n)


# --- declarative sequence descriptions ---------------------------------------------


def load_sequence(spec: dict) -> ScaledSequence:
    """Build a ScaledSequence from a small declarative description.

    {"family": "cycle", "stages": [1, ..., N], "scaling": "n"} gives the
    n-cycle family ||(1..n)|| = n; "constant-identity" gives norm 0;
    "square-cycle" gives ||(1..n^2)|| = n^2 (inadmissible for s_n = n);
    "table" takes explicit [n, norm] pairs.
    """
    if not isinstance(spec, dict):
        raise TypeError(f"a sequence description is a JSON object, got {spec!r}")
    scaling = scaling_by_name(spec.get("scaling", "n"), spec.get("alpha", 1.0))
    family = spec["family"]
    if family == "table":
        stages = tuple((int(n), float(v)) for n, v in spec["values"])
    else:
        norm_of = {
            "cycle": lambda n: n,
            "constant-identity": lambda n: 0,
            "square-cycle": lambda n: n * n,
        }[family]
        stages = tuple((n, norm_of(n)) for n in spec["stages"])
    return ScaledSequence(stages=stages, scaling=scaling, label=family)
