"""The word norm on the integers generated by {±t^m m!} (t = 2 by default).

The distinguished targets x_n = t^{n-1} n! have norm exactly n: an explicit
n-term certificate gives the upper bound, and a threshold-partition argument
(re-derived here with exact arithmetic at every step) gives the lower bound.
t * x_n is itself a generator, so the pair (n, 1) is the finite-stage
witness of torsion in the rescaled limit.  Everything is arbitrary-precision
integer arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial


# The intnorm suite searches over the members t^m m! with m up to this.
MAX_INTNORM_INDEX = 14


class IndexBudgetExceededError(ValueError):
    """Target too large for the configured generator range."""


class ArgumentCheckFailedError(AssertionError):
    """An exact-arithmetic step of the lower-bound argument failed (a bug)."""


@dataclass(frozen=True)
class FactorialGenerators:
    """Positive members t^m m! for m = 0..max_index; the set is symmetric."""

    base: int = 2
    max_index: int = 20

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        # computed once: a search reads them at every depth
        object.__setattr__(self, "members",
                           tuple(self.base**m * factorial(m) for m in range(self.max_index + 1)))

    def x(self, n: int) -> int:
        """The pathological target t^{n-1} n! (x_0 = 0)."""
        if n == 0:
            return 0
        return self.base ** (n - 1) * factorial(n)

    def window_for(self, x: int, depth_cap: int) -> tuple[int, ...]:
        """Generators admitted to a search for x.

        All members up to |x|, always the next two above, and beyond that
        members g with g <= |x| + depth_cap * (next lower member).
        """
        members = self.members
        window = [g for g in members if g <= abs(x)]
        above = [g for g in members if g > abs(x)]
        for i, g in enumerate(above):
            lower = above[i - 1] if i else (window[-1] if window else 1)
            if i < 2 or g <= abs(x) + depth_cap * lower:
                window.append(g)
            else:
                break
        return tuple(window)


@dataclass(frozen=True)
class IntNormResult:
    """Norm value (None = unknown) with a recomposing certificate."""

    value: int | None
    certificate: tuple[int, ...] | None
    method: str
    window: tuple[int, ...] = ()
    best_upper: int | None = None

    def check(self, x: int) -> str | None:
        """None when the certificate sums to x with value terms, else a witness."""
        cert = self.certificate
        if cert is not None and (sum(cert) != x or self.value not in (None, len(cert))):
            return f"certificate {list(cert)} for {x} with value {self.value}"
        return None

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "certificate": list(self.certificate) if self.certificate is not None else None,
            "method": self.method,
            "window": list(self.window),
            "best_upper": self.best_upper,
        }


def norm_upper(x: int, gens: FactorialGenerators, step_budget: int = 10**5) -> IntNormResult:
    """Greedy largest-fit certificate, with a signed look-above correction.

    At each step either subtract the largest member not exceeding the
    remainder or overshoot to the nearest member above it, whichever promises
    fewer terms; the result is an upper bound, not the exact norm.
    """
    members = gens.members
    if x == 0:
        return IntNormResult(0, (), "upper-construction", best_upper=0)
    if abs(x) > members[-1] * step_budget:
        raise IndexBudgetExceededError(
            f"|{x}| cannot be reached within {step_budget} steps of the largest member, "
            f"{members[-1]}"
        )

    def build(r: int, budget: int) -> list[int] | None:
        if r == 0:
            return []
        if budget <= 0:
            return None
        mag, sign = abs(r), 1 if r > 0 else -1
        below = max((g for g in members if g <= mag), default=None)
        above = min((g for g in members if g > mag), default=None)
        best = None
        if below is not None:
            q = mag // below
            tail = build(sign * (mag - q * below), budget - q)
            if tail is not None:
                best = [sign * below] * q + tail
        if above is not None and above - mag < mag:
            tail = build(sign * (mag - above), (budget if best is None else len(best)) - 1)
            if tail is not None and (best is None or 1 + len(tail) < len(best)):
                best = [sign * above] + tail
        return best

    certificate = build(x, step_budget)
    if certificate is None:
        raise IndexBudgetExceededError(f"no greedy certificate for {x} within budget")
    result = IntNormResult(None, tuple(certificate), "upper-construction",
                           best_upper=len(certificate))
    if (witness := result.check(x)) is not None:
        raise ArgumentCheckFailedError(witness)
    return result


def norm_exact(x: int, gens: FactorialGenerators, depth_cap: int = 16) -> IntNormResult:
    """Exact minimal length by iterative deepening over signed member multisets.

    A branch dies when |remainder| exceeds (steps left) * (largest member
    still allowed); members are tried largest first with non-increasing
    indices along a branch, so each multiset is visited once.  Depth d
    searches window_for(x, d): a minimal length-d sum never holds g and -g,
    so its largest member M_k is at most |x| + (d - 1) M_(k-1), which that
    window admits.  If nothing is found within depth_cap the result is Unknown,
    carrying the best known upper bound and the window searched at depth_cap.
    """
    if x == 0:
        return IntNormResult(0, (), "exact-search")
    reported = gens.window_for(x, depth_cap)

    def dfs(r: int, start: int, depth: int) -> list[int] | None:
        if r == 0:
            return []
        if depth == 0:
            return None
        for i in range(start, len(gens_desc)):
            g = gens_desc[i]
            if abs(r) > depth * g:
                return None  # members only shrink from here on
            for s in (g, -g):
                found = dfs(r - s, i, depth - 1)
                if found is not None:
                    return [s] + found
        return None

    for depth in range(1, depth_cap + 1):
        gens_desc = tuple(reversed(gens.window_for(x, depth)))
        cert = dfs(x, 0, depth)
        if cert is not None:
            result = IntNormResult(depth, tuple(cert), "exact-search", window=reported)
            if (witness := result.check(x)) is not None:
                raise ArgumentCheckFailedError(witness)
            return result
    upper = norm_upper(x, gens)
    return IntNormResult(None, upper.certificate, "exact-search", window=reported,
                         best_upper=upper.best_upper)


def lower_bound_xn(n: int, base: int = 2) -> int:
    """The threshold-partition lower bound for x_n, re-derived exactly.

    Any sum representing x_n splits at the threshold t^{n-1}(n-1)!: members
    above it are multiples of t^n n!, so the small part has magnitude at
    least t^{n-1} n!, hence needs at least n terms.  Every inequality below
    is re-checked with exact integers and failure raises loudly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    t = base
    threshold = t ** (n - 1) * factorial(n - 1)
    big = t**n * factorial(n)
    x_n = t ** (n - 1) * factorial(n)

    gens = FactorialGenerators(base=t, max_index=max(n + 6, 12))
    members = gens.members
    if members[n - 1] != threshold or members[n] != big:
        raise ArgumentCheckFailedError("threshold does not sit between consecutive members")
    if any(a >= b for a, b in zip(members, members[1:])):
        raise ArgumentCheckFailedError("members are not strictly increasing")
    if any(threshold < g < big for g in members):
        raise ArgumentCheckFailedError("a member lies strictly inside the gap")
    if any(g % big != 0 for g in members[n:]):
        raise ArgumentCheckFailedError("a member above the gap is not a multiple of t^n n!")
    # distance from x_n to the nearest multiple of t^n n! is x_n itself
    residue = x_n % big
    if min(residue, big - residue) != x_n:
        raise ArgumentCheckFailedError("small part can drop below t^{n-1} n!")
    small_terms = -(-x_n // threshold)  # ceil
    if small_terms != n:
        raise ArgumentCheckFailedError("ceiling division does not give n")
    return n


def norm_xn(n: int, base: int = 2, exact_cutoff: int = 5) -> IntNormResult:
    """The norm of x_n: exhaustive search for small n, sandwich beyond.

    The sandwich pairs the n-term upper certificate with the symbolic lower
    bound; both sides equal n, so the value is exact either way.
    """
    gens = FactorialGenerators(base=base, max_index=max(n + 4, 12))
    x = gens.x(n)
    if n == 0:
        return IntNormResult(0, (), "exact-search")
    lower = lower_bound_xn(n, base)
    if n <= exact_cutoff:
        result = norm_exact(x, gens, depth_cap=n + 2)
        if result.value != lower:
            raise ArgumentCheckFailedError(
                f"exhaustive search ({result.value}) disagrees with the lower bound ({lower})"
            )
        return result
    upper = norm_upper(x, gens)
    if upper.best_upper != lower:
        raise ArgumentCheckFailedError(
            f"upper construction ({upper.best_upper}) does not meet the lower bound ({lower})"
        )
    return IntNormResult(lower, upper.certificate, "lower-argument", best_upper=upper.best_upper)


def torsion_probe(n_values, base: int = 2, exact_cutoff: int = 5) -> dict:
    """Growth/collapse table: ||x_n|| = n while ||t x_n|| = 1.

    For base != 2 the generating set {±t^m m!} is a modeled reading of the
    t-torsion remark, flagged as such in the report.
    """
    rows = []
    gens = FactorialGenerators(base=base, max_index=max(max(n_values, default=1) + 4, 12))
    for n in sorted(n_values):
        xn = gens.x(n)
        norm_x = norm_xn(n, base, exact_cutoff)
        scaled = base * xn
        if n >= 1 and scaled != gens.members[n]:
            raise ArgumentCheckFailedError("t * x_n is not the expected member t^n n!")
        norm_scaled = 0 if scaled == 0 else 1
        rows.append(
            {
                "n": n,
                "x_n": xn,
                "norm_x_n": norm_x.value,
                "norm_method": norm_x.method,
                "t_x_n": scaled,
                "norm_t_x_n": norm_scaled,
            }
        )
    return {
        "base": base,
        "modeled_generating_set": base != 2,
        "rows": rows,
    }


def parse_target(text: str):
    """CLI targets: plain integers, "x(n)" or "x(n,t)"."""
    text = text.strip()
    if text.startswith("x(") and text.endswith(")"):
        inner = text[2:-1]
        parts = [p.strip() for p in inner.split(",")]
        n = int(parts[0])
        t = int(parts[1]) if len(parts) > 1 else 2
        return FactorialGenerators(base=t, max_index=max(n + 4, 12)).x(n), t
    return int(text), 2
