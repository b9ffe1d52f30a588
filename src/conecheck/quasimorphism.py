"""Sampled quasimorphisms: defect estimation, homogenisation and the
stable-unboundedness lower bound.

Only windowed samples are supported; every claim is finitely checkable and
the defect estimate is a lower bound for the true defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from .wordnorm import bfs


class ProductOutsideSampleError(KeyError):
    pass


class PowerOutsideSampleError(KeyError):
    pass


class DegenerateDenominatorError(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class SampledQuasimorphism:
    """A real-valued map on a finite sample with a multiplication oracle."""

    values: dict
    multiply: Callable[[Hashable, Hashable], Hashable]
    identity: Hashable

    def __call__(self, g):
        return self.values[g]


def integer_window(psi: Callable[[int], float], width: int) -> SampledQuasimorphism:
    """Sample psi on the additive window [-width, width]."""
    return SampledQuasimorphism(
        values={n: float(psi(n)) for n in range(-width, width + 1)},
        multiply=lambda a, b: a + b,
        identity=0,
    )


def estimate_defect(psi: SampledQuasimorphism, pairs) -> float:
    """max |psi(gh) - psi(g) - psi(h)| over the pairs; a defect lower bound."""
    worst = 0.0
    for g, h in pairs:
        gh = psi.multiply(g, h)
        if gh not in psi.values:
            raise ProductOutsideSampleError(f"{g} * {h} = {gh} outside the sample")
        worst = max(worst, abs(psi.values[gh] - psi.values[g] - psi.values[h]))
    return worst


@dataclass(frozen=True)
class HomogenisationResult:
    """The whole series psi(g^n)/n, so convergence quality stays visible."""

    series: tuple[float, ...]


def homogenise(psi: SampledQuasimorphism, g, stages: int) -> HomogenisationResult:
    """The sequence psi(g^n)/n for n = 1..stages; no extrapolation."""
    if stages < 1:
        raise ValueError("stages must be positive")
    series = []
    power = psi.identity
    for n in range(1, stages + 1):
        power = psi.multiply(power, g)
        if power not in psi.values:
            raise PowerOutsideSampleError(f"g^{n} = {power} outside the sample")
        series.append(psi.values[power] / n)
    return HomogenisationResult(tuple(series))


def norm_lower_bound(psi_bar_value: float, bound_on_generators: float,
                     defect: float, g_norm: float) -> bool:
    """Does  g_norm >= |psi_bar(g)| / (K + D)  hold?

    K bounds |psi| on the generating set and D is the defect; together they
    turn an unbounded homogeneous quasimorphism into a word-norm lower bound.
    """
    denominator = bound_on_generators + defect
    if denominator == 0:
        if psi_bar_value == 0:
            return True
        raise DegenerateDenominatorError("K + D = 0 with a non-zero quasimorphism value")
    return g_norm >= abs(psi_bar_value) / denominator


def window_word_norm(width: int, steps) -> dict[int, int]:
    """Exact word norms on the integer window [-width, width].

    BFS from 0 along +-steps, never leaving the window: the finite-stage
    stand-in for the word norm on the integers.
    """
    steps = sorted({abs(s) for s in steps if s != 0})
    if not steps:
        raise ValueError("steps must contain a non-zero element")
    return bfs([0], lambda g: [h for s in steps for h in (g + s, g - s) if -width <= h <= width])
