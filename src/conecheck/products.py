"""Free products and direct sums with l1/support norms, reduced normal forms,
and the first-letter / least-index contraction projections.

The single-projection conditions verified here:
  (i)   d(p(g), p(h)) <= d(g, h)
  (ii)  d(p(g), g) <= L
  (iii) ||p(g)|| <= ||g|| - 1 whenever ||g|| >= 1
  (iv)  p(g) = 1 whenever ||g|| <= 1
On finite carriers the check is exhaustive; a failing condition is reported
with a witness rather than asserted.

verify_contraction_conditions audits any carrier through its Python
callables, one pair at a time.  Direct sums of Z/i under the discrete norm
also have a coordinate form: an element is an int16 row whose column j holds
the residue at the j-th index (0 is the identity), the support norm counts
the nonzero entries, the support distance counts the columns that differ,
and the least-index collapse zeroes the least nonzero column.
verify_coordinate_conditions audits such rows with one blocked (N, N)
comparison and returns the same report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class Factor:
    """A finite group factor with an integer norm and a projection.

    declared_displacement is the L of condition (ii) for the projection.
    """

    name: str
    multiply: Callable
    invert: Callable
    identity: object
    norm: Callable[[object], int]
    elements: Sequence
    projection: Callable
    declared_displacement: int

    def non_identity_elements(self):
        return tuple(e for e in self.elements if e != self.identity)


def cyclic_factor(n: int, norm: str = "word", projection: str = "collapse") -> Factor:
    """Z/n with the {+-1} word norm or the discrete norm."""
    if norm == "word":
        norm_fn = lambda k: min(k % n, (-k) % n)
    elif norm == "discrete":
        norm_fn = lambda k: 0 if k % n == 0 else 1
    else:
        raise ValueError(f"unknown norm {norm!r}")
    if projection == "collapse":
        proj, disp = (lambda k: 0), (n // 2 if norm == "word" else 1)
    elif projection == "identity":
        proj, disp = (lambda k: k), 0
    else:
        raise ValueError(f"unknown projection {projection!r}")
    return Factor(
        name=f"Z/{n}({norm})",
        multiply=lambda a, b: (a + b) % n,
        invert=lambda a: (-a) % n,
        identity=0,
        norm=norm_fn,
        elements=range(n),
        projection=proj,
        declared_displacement=disp,
    )


# --- free products ---------------------------------------------------------------


@dataclass(frozen=True)
class ReducedWord:
    """Letters (factor index, non-identity element); adjacent factors differ."""

    letters: tuple

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "()"
        return "".join(f"({i}:{el})" for i, el in self.letters)


class FreeProduct:
    """A free product of factors indexed by a totally ordered index set."""

    def __init__(self, factors: dict[int, Factor]):
        self.factors = dict(sorted(factors.items()))

    def reduce(self, raw_letters) -> ReducedWord:
        """Canonical reduced form: drop identities, merge same-factor runs.

        Letters are first normalized through the factor, so raw residues
        outside 0..n-1 are welcome.
        """
        stack: list = []
        for idx, el in raw_letters:
            factor = self.factors[idx]
            el = factor.multiply(factor.identity, el)
            if el == factor.identity:
                continue
            if stack and stack[-1][0] == idx:
                merged = factor.multiply(stack[-1][1], el)
                stack.pop()
                if merged != factor.identity:
                    stack.append((idx, merged))
            else:
                stack.append((idx, el))
        return ReducedWord(tuple(stack))

    def include(self, idx: int, el) -> ReducedWord:
        return self.reduce([(idx, el)])

    def multiply(self, a: ReducedWord, b: ReducedWord) -> ReducedWord:
        return self.reduce(a.letters + b.letters)

    def invert(self, a: ReducedWord) -> ReducedWord:
        return self.reduce(
            [(i, self.factors[i].invert(el)) for i, el in reversed(a.letters)]
        )

    def l1_norm(self, a: ReducedWord) -> int:
        return sum(self.factors[i].norm(el) for i, el in a.letters)

    def supp_norm(self, a: ReducedWord) -> int:
        return len(a.letters)

    def distance(self, a: ReducedWord, b: ReducedWord) -> int:
        return self.l1_norm(self.multiply(a, self.invert(b)))

    def prefix_project(self, a: ReducedWord) -> ReducedWord:
        """Apply the first letter's factor projection and re-reduce."""
        if a.is_identity():
            return a
        idx, el = a.letters[0]
        return self.reduce(((idx, self.factors[idx].projection(el)),) + a.letters[1:])

    def enumerate_words(self, l1_budget: int) -> list[ReducedWord]:
        """All reduced words of l1 norm at most the budget (exhaustive)."""
        out = [ReducedWord(())]

        def extend(letters, last_idx, budget):
            for idx, factor in self.factors.items():
                if idx == last_idx:
                    continue
                for el in factor.non_identity_elements():
                    cost = factor.norm(el)
                    if cost <= budget:
                        word = letters + ((idx, el),)
                        out.append(ReducedWord(word))
                        extend(word, idx, budget - cost)

        extend((), None, l1_budget)
        return out


# --- direct sums -------------------------------------------------------------


@dataclass(frozen=True)
class SparseSumElement:
    """Finitely many non-identity terms, keyed by a totally ordered index."""

    terms: tuple  # ((index, element), ...) sorted by index

    def is_identity(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{el}@{i}" for i, el in self.terms)


class DirectSum:
    def __init__(self, factors: dict[int, Factor]):
        self.factors = dict(sorted(factors.items()))

    def element(self, assignments: dict) -> SparseSumElement:
        terms = []
        for idx in sorted(assignments):
            factor = self.factors[idx]
            el = factor.multiply(factor.identity, assignments[idx])
            if el != factor.identity:
                terms.append((idx, el))
        return SparseSumElement(tuple(terms))

    def multiply(self, a: SparseSumElement, b: SparseSumElement) -> SparseSumElement:
        values = dict(a.terms)
        for idx, el in b.terms:
            factor = self.factors[idx]
            merged = factor.multiply(values.get(idx, factor.identity), el)
            if merged == factor.identity:
                values.pop(idx, None)
            else:
                values[idx] = merged
        return SparseSumElement(tuple(sorted(values.items())))

    def invert(self, a: SparseSumElement) -> SparseSumElement:
        return SparseSumElement(
            tuple((i, self.factors[i].invert(el)) for i, el in a.terms)
        )

    def l1_norm(self, a: SparseSumElement) -> int:
        return sum(self.factors[i].norm(el) for i, el in a.terms)

    def supp_norm(self, a: SparseSumElement) -> int:
        return len(a.terms)

    def distance(self, a: SparseSumElement, b: SparseSumElement, norm=None) -> int:
        return (norm or self.l1_norm)(self.multiply(a, self.invert(b)))

    def sum_project(self, a: SparseSumElement) -> SparseSumElement:
        """Project the least-index term; drop it when it dies."""
        if a.is_identity():
            return a
        idx, el = a.terms[0]
        projected = self.factors[idx].projection(el)
        rest = a.terms[1:]
        if projected == self.factors[idx].identity:
            return SparseSumElement(rest)
        return SparseSumElement(((idx, projected),) + rest)

    def enumerate_elements(self, indices, max_terms: int) -> list[SparseSumElement]:
        """All elements supported on the given indices with <= max_terms terms."""
        indices = sorted(indices)
        out = [SparseSumElement(())]

        def extend(pos, terms):
            if len(terms) == max_terms:
                return
            for k in range(pos, len(indices)):
                idx = indices[k]
                for el in self.factors[idx].non_identity_elements():
                    chosen = terms + ((idx, el),)
                    out.append(SparseSumElement(chosen))
                    extend(k + 1, chosen)

        extend(0, ())
        return out


def sum_coordinates(elements) -> tuple[tuple, np.ndarray]:
    """The indices the elements are supported on, in order, and one int16
    row per element: column j holds its residue at indices[j], 0 none."""
    import numpy as np

    indices = tuple(sorted({idx for g in elements for idx, _ in g.terms}))
    column = {idx: j for j, idx in enumerate(indices)}
    coords = np.zeros((len(elements), len(indices)), dtype=np.int16)
    for row, g in enumerate(elements):
        for idx, el in g.terms:
            coords[row, column[idx]] = el
    return indices, coords


def sum_element(indices, row) -> SparseSumElement:
    """The element a coordinate row stands for."""
    return SparseSumElement(tuple((idx, int(v)) for idx, v in zip(indices, row) if v))


def collapse_least(coords: np.ndarray) -> np.ndarray:
    """DirectSum.sum_project on coordinate rows when every factor's projection
    collapses (cyclic_factor(i, "discrete")): zero each least nonzero column."""
    import numpy as np

    nonzero = coords != 0
    return np.where(nonzero & (nonzero.cumsum(axis=1) == 1), 0, coords)


def support_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The support distance supp(a - b) between broadcast coordinate rows:
    the number of columns in which they differ."""
    return (a != b).sum(axis=-1)


# --- the single-projection audit ------------------------------------------------

CONDITIONS = ("non-expansive", "displacement", "norm-decrease", "identity-collapse")

# the non-expansive audit compares a block of rows against every row, about
# this many entries at a time
PAIR_BLOCK_ENTRIES = 1 << 17


def _empty_report(displacement_bound: int, singles: int) -> dict:
    descriptions = ("d(p(g), p(h)) <= d(g, h)", f"d(p(g), g) <= {displacement_bound}",
                    "||p(g)|| <= ||g|| - 1 for ||g|| >= 1", "p(g) = 1 for ||g|| <= 1")
    report = {
        name: {"condition": desc, "violations": 0, "witness": None, "checked": singles}
        for name, desc in zip(CONDITIONS, descriptions)
    }
    report["non-expansive"]["checked"] = singles * (singles - 1) // 2
    return report


def _conclude(report: dict) -> dict:
    report["all_hold"] = all(report[name]["violations"] == 0 for name in CONDITIONS)
    return report


def report_witness(*reports) -> str | None:
    """The first witness over the reports' conditions, in order."""
    return next((rep[name]["witness"] for rep in reports for name in CONDITIONS
                 if rep[name]["witness"]), None)


def verify_coordinate_conditions(elements, coords: np.ndarray, images: np.ndarray,
                                 displacement_bound: int = 1) -> dict:
    """verify_contraction_conditions under the support norm on coordinate
    rows: coords[i] is elements[i] and images[i] its projection.

    The report is the one the pairwise audit gives, with the same counts and
    the same first witnesses; elements only name the witnesses.
    """
    import numpy as np

    report = _empty_report(displacement_bound, len(elements))

    def flag(name, failed, witness):
        count = int(np.count_nonzero(failed))
        if count:
            entry = report[name]
            entry["violations"] += count
            if entry["witness"] is None:
                entry["witness"] = witness(np.argwhere(failed)[0])

    norms, image_norms = (coords != 0).sum(axis=1), (images != 0).sum(axis=1)
    single = lambda at: str(elements[at[0]])
    flag("displacement", support_distance(images, coords) > displacement_bound, single)
    flag("norm-decrease", (norms >= 1) & (image_norms > norms - 1), single)
    flag("identity-collapse", (norms <= 1) & (image_norms > 0), single)
    n = len(elements)
    rows = max(1, PAIR_BLOCK_ENTRIES // max(1, n * coords.shape[1]))
    for start in range(0, n, rows):
        block = slice(start, min(start + rows, n))
        failed = (support_distance(images[block, None], images[None])
                  > support_distance(coords[block, None], coords[None]))
        # only the pairs i < j
        failed &= np.arange(n) > np.arange(start, block.stop)[:, None]
        flag("non-expansive", failed,
             lambda at: f"{elements[start + at[0]]} | {elements[at[1]]}")
    return _conclude(report)


def verify_contraction_conditions(projection, elements, norm, distance,
                                  is_identity, displacement_bound: int = 1) -> dict:
    """Check conditions (i)-(iv) over the sample; exhaustive when it is.

    Returns one entry per condition with violation count and a witness; the
    caller decides whether a failure is an error (a registered projection)
    or the expected outcome (a negative control).
    """
    elements = list(elements)
    report = _empty_report(displacement_bound, len(elements))

    def flag(name, witness):
        entry = report[name]
        entry["violations"] += 1
        if entry["witness"] is None:
            entry["witness"] = witness

    images = [projection(g) for g in elements]
    for g, pg in zip(elements, images):
        if distance(pg, g) > displacement_bound:
            flag("displacement", str(g))
        n = norm(g)
        if n >= 1 and norm(pg) > n - 1:
            flag("norm-decrease", str(g))
        if n <= 1 and not is_identity(pg):
            flag("identity-collapse", str(g))
    for i in range(len(elements)):
        g, pg = elements[i], images[i]
        for j in range(i + 1, len(elements)):
            if distance(pg, images[j]) > distance(g, elements[j]):
                flag("non-expansive", f"{g} | {elements[j]}")
    return _conclude(report)
