"""Verification suites: one per lemma family, assembled by run_suite.

Each suite function takes a RunConfig and returns CheckResult rows.  Heavy
checks run batched kernels over image arrays and vectorize the pairwise
bookkeeping; every batched kernel and vectorized shortcut is cross-checked
against the reference implementation inside the same check.  Every check
stops at its first failure through _first_witness, and every batched kernel
has one replay policy, _batched_cases: a failure replays the reference loop,
and a disagreement the reference does not explain fails as one more case.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import os
import pickle
from fractions import Fraction

from . import coneprobe, cutting, intnorm, matnorm, products, quasimorphism, wordnorm
from .covering import (
    BlockSearchFailedError,
    HypothesisUnmetError,
    _class_rows,
    _even_cycle_types,
    _rank_mask_brenner_check,
    _stacked_commutator_witnesses,
    _tuple_brenner_check,
    brenner_check,
    brenner_hypotheses,
    canonical_of_type,
    commutator_witness,
    conjugacy_class,
    express_as_conjugates,
)
from .perms import (
    Permutation,
    _compose_images,
    _even_tuples,
    _full_cycle_type,
    _cycle_lengths,
    _cycle_norms,
    _images_of_type,
    _invert_images,
    _neighbour_columns,
    _rank_images,
    _symmetric_arrays,
    _tuple_even,
    _unrank_images,
    commutator,
    compose_all,
    supp_norm,
    three_cycle_generators,
    three_cycle_norm,
    tr_norm,
)
from .report import CheckResult, RunConfig, build_report, report_to_json

PASS = CheckResult.from_outcome

# cases each batched kernel's oracle re-runs through the scalar code it
# replaces (cutting.split, DirectSum, Permutation products, ...) to
# cross-check the kernel
ORACLE_SAMPLES = 50


def _first_witness(cases) -> tuple[str | None, int]:
    """The first failure among cases, and how many cases were examined.

    Each case is None when it holds and its witness string when it fails;
    _batched_cases hands over a passing batch as one itertools.repeat of
    None, which counts as its length.  Consumption stops at the first
    failure, which the count includes.
    """
    examined = 0
    for witness in cases:
        if isinstance(witness, itertools.repeat):
            examined += operator.length_hint(witness)
            continue
        examined += 1
        if witness is not None:
            return witness, examined
    return None, examined


def _batched_cases(count, held, oracle, reference):
    """A batched check's count cases, for _first_witness.

    held says whether the batched kernel found every case to hold; oracle
    yields its seeded oracle's cases, a witness where the oracle disagrees
    with the kernel.  When the kernel held and the oracle agreed, the cases
    pass, as one batch.  Otherwise the cases are the reference loop's, so
    that a failure reads as the reference alone would have it, then the
    oracle's disagreement, if any, as one more case.
    """
    disagreement, _ = _first_witness(oracle)
    if held and disagreement is None:
        yield itertools.repeat(None, count)
        return
    yield from reference
    if disagreement is not None:
        yield disagreement


# --------------------------------------------------------------------------- norms


def _perm(images) -> Permutation:
    return Permutation.from_images(tuple(int(x) for x in images))


def _group_arrays(n, even=False):
    """S_n (_symmetric_arrays(n)), or A_n when even, as an (N, n) uint8 image
    array in rank order; each row's supp, tr and number of odd cycles (fixed
    points included); the row of each S_n rank (-1 off A_n); and the rows an
    oracle re-runs: evenly spaced, and the first of each cycle type, so that
    every type is sampled."""
    import numpy as np

    images, lengths, codes = _symmetric_arrays(n)
    position = np.arange(len(images))
    if even:
        keep = _cycle_norms(lengths)[1] % 2 == 0
        position = np.where(keep, np.cumsum(keep) - 1, -1)
        images, lengths, codes = images[keep], lengths[keep], codes[keep]
    # np.union1d would import numpy.ma, about 1 MB of resident memory
    rows = sorted({*range(0, len(images), max(1, len(images) // ORACLE_SAMPLES)),
                   *np.unique(codes, return_index=True)[1].tolist()})
    supp, tr = _cycle_norms(lengths)
    return images, supp, tr, (lengths % 2).sum(axis=1), position, rows


def run_norms(cfg: RunConfig) -> list[CheckResult]:
    import numpy as np

    checks = []

    # Tuple oracles are built on first use, once per run: by a replay and by the
    # small groups' checks.  Every call passes even by position, since
    # functools.cache keys group(5) and group(5, False) apart.
    @functools.cache
    def group(n, even):
        """S_n, or A_n when even, as its wordnorm oracle over image tuples."""
        return wordnorm.alternating_oracle(n) if even else wordnorm.symmetric_oracle(n)

    def generators(n, even):  # transpositions, or for A_n 3-cycles
        return three_cycle_generators(n) if even else wordnorm.transposition_generators(n)

    @functools.cache
    def norm_table(n, even):
        """The (supp, tr) of each element by image tuple, each a Permutation once."""
        elements = group(n, even).elements
        perms = map(Permutation.from_images, elements)
        return {t: (supp_norm(p), tr_norm(p)) for t, p in zip(elements, perms)}

    @functools.cache
    def word_table(n, even):
        """The BFS word norms over the group's generators."""
        return wordnorm.bfs_norm(group(n, even), generators(n, even))

    def sampled_norms(images, position, rows):
        """The sampled rows re-run on Permutations: each one's row, Permutation,
        supp_norm and tr_norm, and whether the row is the element of its rank."""
        ranked = position[_rank_images(images[rows])] == rows
        for i, at_rank in zip(rows, ranked.tolist()):
            p = _perm(images[i])
            yield i, p, supp_norm(p), tr_norm(p), at_rank

    def disagreements(samples, agrees):
        """An oracle's cases: a witness at each sampled element whose row is not
        the element of its rank, or where agrees(row, supp_norm, tr_norm) fails."""
        for i, p, supp, tr, ranked in samples:
            yield None if ranked and agrees(i, supp, tr) else f"image arrays disagree at {p}"

    def certified(gens, images, position, rows, values):
        """Whether values are the word lengths over gens, by
        wordnorm.certify_word_lengths on the image array's neighbour columns;
        and the first neighbour of a sampled row that image-tuple composition
        disagrees with.  Columns as wordnorm.generating_set orders them."""
        gens = sorted({*gens, *map(_invert_images, gens)}, key=lambda s: str(_perm(s)))
        sampled = {i: tuple(images[i].tolist()) for i in rows}
        at_rows = []

        def columns():
            for column in _neighbour_columns(images, gens, position):
                at_rows.append(column[rows].tolist())
                yield column

        held = wordnorm.certify_word_lengths(values, columns(), identity=0)
        disagreement, _ = _first_witness(
            None if _compose_images(sampled[i], s) == tuple(images[j].tolist())
            else f"neighbour columns disagree at {_perm(images[i])} times {_perm(s)}"
            for s, column in zip(gens, at_rows) for i, j in zip(rows, column))
        return held, disagreement

    # composition convention regression: (x y)(y z) = (x z y)
    lhs = Permutation.parse("(1 2)").then(Permutation.parse("(2 3)"))
    checks.append(PASS(
        "norms.composition_convention",
        "(x y)(y z) = (x z y) under left-to-right composition",
        None if lhs == Permutation.parse("(1 3 2)") else str(lhs), 1,
    ))

    # the 3-cycle identity for disjoint transpositions, all distinct points <= 8,
    # on (N, 8) image arrays composed left to right; Permutation products re-run
    # evenly spaced tuples as the oracle.  A random stream created here, before
    # the groups below are built, raises the run's peak memory.
    def pair_products(x1, y1, x2, y2, z):
        left = Permutation.from_cycles([(x1, y1), (x2, y2)])
        return left, compose_all([
            Permutation.from_cycles([(z, y1, x1)]),
            Permutation.from_cycles([(x2, z, y1)]),
            Permutation.from_cycles([(y2, x2, z)]),
        ])

    def pair_identity(*case):
        left, right = pair_products(*case)
        return None if left == right else "x1={} y1={} x2={} y2={} z={}".format(*case)

    # columns x1, y1, x2, y2, z of every tuple, 0-based
    points = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(8), 5)),
                         dtype=np.uint8).reshape(-1, 5)

    def cycle_images(*cycles):
        """Each tuple's product of disjoint cycles, a cycle given by its columns."""
        images = np.tile(np.arange(8, dtype=np.uint8), (len(points), 1))
        for cycle in cycles:
            images[np.arange(len(points))[:, None], points[:, cycle]] = \
                points[:, cycle[1:] + cycle[:1]]
        return images

    left, right = cycle_images((0, 1), (2, 3)), cycle_images((4, 1, 0))
    for factor in map(cycle_images, ((2, 4, 1), (3, 2, 4))):
        right = np.take_along_axis(factor, right, axis=1)  # right first, then factor

    def pair_oracle():
        for i in range(0, len(points), len(points) // ORACLE_SAMPLES):
            case = (points[i] + 1).tolist()
            agree = pair_products(*case) == (_perm(left[i]), _perm(right[i]))
            yield None if agree else "image arrays disagree at x1={} y1={} x2={} y2={} z={}" \
                .format(*case)

    bad, count = _first_witness(_batched_cases(
        len(points), (left == right).all(), pair_oracle(),
        itertools.starmap(pair_identity, itertools.permutations(range(1, 9), 5))))
    checks.append(PASS(
        "norms.pair_transposition_identity",
        "(x1 y1)(x2 y2) = (z y1 x1)(x2 z y1)(y2 x2 z), distinct points <= 8",
        bad, count,
    ))

    # norm sandwich and tr word lengths on exhaustive S_norm_degree, on its image
    # array alone; tr is certified as the word length over transpositions, never
    # searched.  Sampled rows re-run supp_norm, tr_norm and image-tuple
    # composition as the oracle, and the tuple tables are the replay.
    degree = cfg.norm_degree
    images_d, supp_d, tr_d, _, position_d, rows_d = _group_arrays(degree)
    samples_d = list(sampled_norms(images_d, position_d, rows_d))
    sandwich_d = (tr_d <= supp_d) & (supp_d <= 2 * tr_d)

    def sandwich_cases():
        for t, (supp, tr) in norm_table(degree, False).items():
            yield None if tr <= supp <= 2 * tr else str(_perm(t))

    bad, _ = _first_witness(_batched_cases(
        len(images_d), sandwich_d.all(),
        disagreements(samples_d, lambda i, supp, tr: (tr <= supp <= 2 * tr) == sandwich_d[i]),
        sandwich_cases()))
    checks.append(PASS(
        "norms.sandwich_s7",
        f"tr <= supp <= 2 tr on exhaustive S_{degree}",
        bad, len(images_d),
        constants={"upper_factor": 2},
    ))

    # closed-form tr norm against the word lengths over transpositions
    tr_held, neighbour_bad = certified(
        generators(degree, False), images_d, position_d, rows_d, tr_d)

    def tr_agreement_cases():
        tr_words = word_table(degree, False)
        for t, (_, tr) in norm_table(degree, False).items():
            yield None if tr_words[t] == tr else str(_perm(t))

    bad, _ = _first_witness(_batched_cases(
        len(images_d), tr_held,
        itertools.chain(disagreements(samples_d, lambda i, _, tr: tr == tr_d[i]),
                        [neighbour_bad]),
        tr_agreement_cases()))
    checks.append(PASS(
        "norms.bfs_tr_agreement",
        f"closed-form transposition norm equals BFS word length on S_{degree}",
        bad, len(images_d),
    ))

    # alternating sandwich: tr <= 2 n3 and n3 <= 1.5 tr on exhaustive A_m, on
    # its image array; n3 is three_cycle_norm of every element, read off its
    # row as a tuple and certified as the word length over 3-cycles
    m = cfg.alternating_degree
    images_m, _, tr_m, odd_m, position_m, rows_m = _group_arrays(m, even=True)
    tuples_m = list(map(tuple, images_m.tolist()))
    samples_m = list(sampled_norms(images_m, position_m, rows_m))
    n3_m = np.array([three_cycle_norm(p) for p in map(Permutation.from_images, tuples_m)])
    n3_held, neighbour_bad = certified(generators(m, True), images_m, position_m, rows_m, n3_m)
    alternating_m = (tr_m <= 2 * n3_m) & (2 * n3_m <= 3 * tr_m)

    def alternating_cases():
        n3_table = word_table(m, True)
        for (t, (_, tr)), n3 in zip(norm_table(m, True).items(), n3_table.norms()):
            yield f"{_perm(t)}: tr={tr} n3={n3}" if 2 * n3 < tr or 2 * n3 > 3 * tr else None

    bad, _ = _first_witness(_batched_cases(
        len(images_m), n3_held and alternating_m.all(),
        itertools.chain(disagreements(
            samples_m, lambda i, _, tr: (tr <= 2 * n3_m[i] <= 3 * tr) == alternating_m[i]),
            [neighbour_bad]),
        alternating_cases()))
    checks.append(PASS(
        "norms.alternating_a6",
        f"tr <= 2 n3 and n3 <= 1.5 tr on exhaustive A_{m}",
        bad, len(images_m),
        constants={"tr_upper": 2, "n3_upper": 1.5},
    ))

    # three_cycle_norm (a table over cycle types) against the word lengths,
    # certified above, and the closed form 2 n3 = m - #odd cycles (fixed points
    # included), on the arrays with the element BFS as replay; and ambient
    # stability, the witness when both fail
    def odd_cycles(t):
        return sum(length % 2 for length in _full_cycle_type(t))

    def table_agreement(t):
        p = Permutation.from_images(t)
        n3 = word_table(m, True)[t]
        agree = three_cycle_norm(p) == n3 and 2 * n3 == m - odd_cycles(t)
        return None if agree else str(p)

    def ambient_stability(t):
        p = Permutation.from_images(t)
        stable = three_cycle_norm(p) == three_cycle_norm(p, ambient=m + 1)
        return None if stable else f"ambient instability at {p}"

    table_bad, _ = _first_witness(_batched_cases(
        len(images_m), n3_held and (2 * n3_m == m - odd_m).all(),
        itertools.chain(disagreements(
            samples_m, lambda i, *_: odd_cycles(tuples_m[i]) == odd_m[i]), [neighbour_bad]),
        map(table_agreement, tuples_m)))
    small = group(max(m - 1, 4), True)
    ambient_bad, _ = _first_witness(map(ambient_stability, small.elements))
    checks.append(PASS(
        "norms.three_cycle_oracle",
        "3-cycle norm equals the BFS table and is ambient-stable",
        ambient_bad or table_bad, len(images_m) + small.order(),
    ))

    # conjugation invariance + metric axioms on image tuples, exhaustive S_sd (S_5 by default)
    sd = min(5, degree)
    s5, norms_sd, tr_table = group(sd, False), norm_table(sd, False), word_table(sd, False)
    inverse = {t: _invert_images(t) for t in s5.elements}
    n3_of = {t: three_cycle_norm(_perm(t)) for t in s5.elements if _tuple_even(t)}

    def conjugation_cases():
        for p in s5.elements:
            for t, t_inv in inverse.items():
                q = _compose_images(_compose_images(t, p), t_inv)
                same = norms_sd[q] == norms_sd[p] and n3_of.get(q) == n3_of.get(p)
                yield None if same else f"{_perm(p)} vs {_perm(t)}"

    bad, _ = _first_witness(conjugation_cases())
    checks.append(PASS(
        "norms.conjugation_invariance_s5",
        f"supp, tr and 3-cycle norms are conjugation invariant on exhaustive S_{sd}",
        bad, s5.order() ** 2,
    ))

    def metric_axioms(p, q):
        (supp_p, tr_p), (supp_q, tr_q) = norms_sd[p], norms_sd[q]
        supp, tr = norms_sd[_compose_images(p, q)]
        if supp > supp_p + supp_q or tr > tr_p + tr_q:
            return f"{_perm(p)} * {_perm(q)}"
        return None if norms_sd[inverse[p]][0] == supp_p else f"symmetry at {_perm(p)}"

    bad, _ = _first_witness(
        itertools.starmap(metric_axioms, itertools.product(s5.elements, repeat=2)))
    checks.append(PASS(
        "norms.metric_axioms_s5",
        f"triangle inequality and symmetry of the induced metric on exhaustive S_{sd}",
        bad, s5.order() ** 2,
    ))

    # conjugacy closure of a transposition: exactly the 6 transpositions of S_4
    s4, norms_4, tr_table_s4 = group(4, False), norm_table(4, False), word_table(4, False)
    closure = wordnorm.conjugacy_closure(s4, {Permutation.parse("(1 2)").to_images(4)})
    expected = {g for g, (supp, _) in norms_4.items() if supp == 2}  # the transpositions
    stray = min(closure ^ expected, default=None)
    checks.append(PASS(
        "norms.closure_transpositions",
        "conjugacy closure of one transposition in S_4 is the transposition class",
        None if stray is None else s4.describe(stray), len(closure),
        observed={"size": len(closure)},
    ))

    # norm-table axioms + conjugation invariance on a finite carrier: each element
    # of S_4, each pair twice (triangle, conjugation), and the Z/5 norms
    z5_norms = wordnorm.bfs_norm(wordnorm.cyclic_oracle(5), {1}).norms()
    bad, _ = _first_witness(itertools.chain(
        tr_table_s4.check_axioms(), tr_table_s4.check_conjugation_invariance(),
        [None if z5_norms == [0, 1, 2, 2, 1] else f"Z/5 norms {z5_norms}"]))
    checks.append(PASS(
        "norms.table_axioms",
        "NormTable satisfies the norm axioms and conjugation invariance (S_4, Z/5)",
        bad, s4.order() + 2 * s4.order() ** 2 + len(z5_norms),
        observed={"z5_norms": z5_norms},
    ))

    # domination audits: supp vs tr on S_sd, tr vs n3 on A_ad (S_5 and A_5 by default)
    ad = min(5, m)
    supp_table = wordnorm.NormTable(s5, {t: supp for t, (supp, _) in norms_sd.items()})
    c_supp, at_supp = wordnorm.audit_domination(tr_table, supp_table)
    a5, norms_ad, n3_a5 = group(ad, True), norm_table(ad, True), word_table(ad, True)
    tr_a5 = wordnorm.NormTable(a5, {t: tr for t, (_, tr) in norms_ad.items()})
    c_tr, at_tr = wordnorm.audit_domination(n3_a5, tr_a5)   # tr <= C * n3
    c_n3, at_n3 = wordnorm.audit_domination(tr_a5, n3_a5)   # n3 <= C * tr
    bad, _ = _first_witness(
        None if held else f"{name} = {constant} at {oracle.describe(g)}"
        for name, constant, g, oracle, held in (
            ("supp/tr", c_supp, at_supp, s5, c_supp == 2),
            ("tr/n3", c_tr, at_tr, a5, c_tr <= 2),
            ("n3/tr", c_n3, at_n3, a5, c_n3 <= Fraction(3, 2)),
        ))
    checks.append(PASS(
        "norms.domination",
        f"supp <= 2 tr on S_{sd}; tr <= 2 n3 and n3 <= 1.5 tr on A_{ad} (smallest constants)",
        bad, s5.order() + 2 * a5.order(),
        observed={"supp_vs_tr": str(c_supp), "tr_vs_n3": str(c_tr), "n3_vs_tr": str(c_n3)},
    ))

    # quasimorphism lower bound against window word norms
    width = 60
    psi = quasimorphism.integer_window(lambda k: float(k), width)
    defect = quasimorphism.estimate_defect(
        psi, [(a, b) for a in range(-20, 21) for b in range(-20, 21)])
    homog = quasimorphism.homogenise(psi, 3, width // 3)

    def lower_bound_cases():
        yield None if defect == 0.0 else f"defect {defect} of a homomorphism"
        # psi(3 n) / n for the homomorphism psi(k) = k
        yield None if set(homog.series) == {3.0} else f"homogenisation series {homog.series}"
        for steps, bound_k in (((1,), 1.0), ((1, 2), 2.0)):
            norms = quasimorphism.window_word_norm(width, steps)
            for g in range(-width, width + 1):
                # psi is a homomorphism, so the homogenisation equals psi itself
                held = quasimorphism.norm_lower_bound(float(g), bound_k, defect, norms[g])
                yield None if held else f"g={g} steps={steps}"

    bad, _ = _first_witness(lower_bound_cases())
    checks.append(PASS(
        "norms.quasimorphism_lower_bound",
        "norm(g) >= |psi(g)| / (K + D) for the identity homomorphism on integer "
        "windows with steps {1} and {1, 2}; homomorphisms have defect 0",
        bad, 2 * (2 * width + 1),
        observed={"defect_of_homomorphism": defect},
    ))
    return checks


# ------------------------------------------------------------------------- cutting


# random_s30 pairs are cut in blocks of this many: each block's (2 block,
# k, d) cut stack is held at once, and larger blocks run no faster
CUT_BLOCK = 512
# exhaustive_s6 audits about this many pairs per cut_bounds call: every
# element against every element is (d!)^2 pairs.  At S_7 a block of 2^13
# pairs is one element per call, and the suite then runs twice as long
EXHAUSTIVE_PAIR_BLOCK = 1 << 15


def _bound_witness(bounds, rows, left, right) -> str | None:
    """The first violation among cutting.cut_bounds results, bound by bound,
    on pairs of image rows."""
    import numpy as np

    for name, audit in bounds.items():
        if audit.first is not None:
            p = audit.first[0]
            left, right = (a.ravel() for a in np.broadcast_arrays(left, right))
            sigma, tau = _perm(rows[left[p]]), _perm(rows[right[p]])
            return f"{name}: {cutting.witness_text(name, audit.first, sigma, tau)}"
    return None


def run_cutting(cfg: RunConfig) -> list[CheckResult]:
    import numpy as np

    checks = []
    degree, kmax = cfg.cutting_degree, cfg.cutting_max_k

    # exhaustive pairs: cut every element at every k at once, then audit a block
    # of left elements against every element at a time
    n_el = math.factorial(degree)
    images = _unrank_images(np.arange(n_el), degree)
    cuts = cutting.cut_stack(images, kmax)
    # a cut of a permutation is one, and then every distance is read off the
    # Hamming table of S_degree by rank; cuts that are not permutations (their
    # ranks mod n! unrank to other rows) are audited on their images
    flat = cuts.reshape(-1, degree)
    ranks = _rank_images(flat)
    table = None
    if (_unrank_images(ranks % n_el, degree) == flat).all():
        table = ranks.reshape(n_el, kmax + 1), cutting.hamming_table(images)
    bound_violations = dict.fromkeys(cutting.CUT_BOUNDS, 0)
    pair_count = 0
    pair_witness = None
    everyone = np.arange(n_el)
    rows = max(1, EXHAUSTIVE_PAIR_BLOCK // n_el)
    for start in range(0, n_el, rows):
        # a (rows, n_el) block of pairs: these left elements against everyone
        left, right = everyone[start:start + rows, None], everyone
        bounds = cutting.cut_bounds(cuts, left, right, table)
        for name, audit in bounds.items():
            bound_violations[name] += audit.violations
        pair_count += bounds["general"].sample_size
        pair_witness = pair_witness or _bound_witness(bounds, images, left, right)

    # the batched cuts and the distances audited must match the reference on
    # a seeded sample
    rng = np.random.default_rng(cfg.seed)

    def distance(i, j, k):
        if table is None:
            return int((cuts[i, k] != cuts[j, k]).sum())
        rank, hamming = table
        return int(hamming[rank[i, k], rank[j, k]])

    def reference_cases():
        for _ in range(50):
            i, j = int(rng.integers(n_el)), int(rng.integers(n_el))
            k = int(rng.integers(kmax + 1))
            p, q = _perm(images[i]), _perm(images[j])
            a, b = cutting.cut(p, k).image, cutting.cut(q, k).image
            agree = (a.to_images(degree) == tuple(cuts[i, k])
                     and supp_norm(a.then(b.inverse())) == distance(i, j, k))
            yield None if agree else f"reference cut disagrees at {p} | {q} k={k}"

    ref_bad, _ = _first_witness(reference_cases())
    checks.append(PASS(
        "cutting.exhaustive_s6",
        f"cut bounds (2|k-m| step, equal-support non-expansive, 2-Lipschitz, "
        f"norm decrease) on exhaustive S_{degree} pairs, k,m <= {kmax}",
        ref_bad or pair_witness, pair_count,
        constants={"step_factor": 2, "general_factor": 2},
        observed={
            "norm_violations": bound_violations["norm-decrease"],
            "step_violations": bound_violations["step"],
            "general_violations": bound_violations["general"],
            "equal_support_violations": bound_violations["equal-support"],
            "vectorization_crosschecked": ref_bad is None,
        },
    ))

    # random large-degree pairs, cut in blocks; per block one row is also
    # cut by the reference, picked by its own generator so the draws stay put
    rng = np.random.default_rng(cfg.seed + 1)
    oracle_rng = np.random.default_rng(cfg.seed + 8)
    rd = cfg.random_degree
    violations = 0
    witness = None
    audits_checked = 0
    for start in range(0, cfg.random_pairs, CUT_BLOCK):
        size = min(CUT_BLOCK, cfg.random_pairs - start)
        # one shuffle per row draws what rng.permutation(rd) does row by row
        drawn = rng.permuted(np.tile(np.arange(rd, dtype=np.int16), (2 * size, 1)), axis=1)
        block = cutting.cut_stack(drawn, kmax)
        row = int(oracle_rng.integers(2 * size))
        p = _perm(drawn[row])
        disagreement, _ = _first_witness(
            None if cutting.cut(p, k).image.to_images(rd) == tuple(block[row, k])
            else f"reference cut disagrees at {p} k={k}" for k in range(kmax + 1))
        violations += int(disagreement is not None)
        witness = witness or disagreement
        # pair i is drawn as rows 2i, 2i + 1
        left, right = np.arange(0, 2 * size, 2), np.arange(1, 2 * size, 2)
        bounds = cutting.cut_bounds(block, left, right)
        audits_checked += size
        violations += sum(audit.violations for audit in bounds.values())
        witness = witness or _bound_witness(bounds, drawn, left, right)
    checks.append(PASS(
        "cutting.random_s30",
        f"the same cut bounds on {cfg.random_pairs} random S_{rd} pairs",
        witness, audits_checked,
        observed={"violations": violations},
    ))

    # splitting, exhaustive: every (sigma, k) at once, with split itself run
    # on a seeded sample of them as the oracle (see _batched_cases)
    sd = cfg.split_degree

    def split_cases():
        for p in map(Permutation.from_images, itertools.permutations(range(sd))):
            n = supp_norm(p)
            for k in range(1, n + 1):
                pair = cutting.split(p, k)
                failed = (pair.recomposed() != p or supp_norm(pair.left) > k
                          or supp_norm(pair.right) > n - k + 1)
                yield f"{p} at k={k}" if failed else None

    images = _unrank_images(np.arange(math.factorial(sd)), sd)
    point = np.arange(sd)
    left, right = cutting.split_stack(images)
    supp = (images != point).sum(axis=1)[:, None]
    ks = point + 1
    cases = ks <= supp
    held = ((np.take_along_axis(right, left, axis=2) == images[:, None]).all(axis=2)
            & ((left != point).sum(axis=2) <= ks)
            & ((right != point).sum(axis=2) <= supp - ks + 1))
    rng = np.random.default_rng((cfg.seed, 7))
    sample = np.flatnonzero(cases)[rng.integers(cases.sum(), size=ORACLE_SAMPLES)]

    def split_oracle():
        for i, k in zip(*np.divmod(sample, sd)):
            p, pair = _perm(images[i]), cutting.SplitPair(_perm(left[i, k]), _perm(right[i, k]))
            yield None if cutting.split(p, k + 1) == pair else f"split disagrees at {p} k={k + 1}"

    bad, total = _first_witness(
        _batched_cases(int(cases.sum()), held[cases].all(), split_oracle(), split_cases()))
    checks.append(PASS(
        "cutting.splitting_s7",
        f"split recomposes with supp(left) <= k, supp(right) <= n-k+1, exhaustive S_{sd}",
        bad, total,
    ))

    # displacement, exhaustive: the same scheme, on every non-identity element
    dd = cfg.displacement_degree

    def displacement(p):
        moved = cutting.displaced_set(p)
        failed = {p(x) for x in moved} & moved or 3 * len(moved) < supp_norm(p)
        return str(p) if failed else None

    # rank 0 is the identity
    images = _unrank_images(np.arange(1, math.factorial(dd)), dd)
    moved = cutting.displaced_stack(images)
    held = (~(moved & np.take_along_axis(moved, images, axis=1)).any(axis=1)
            & (3 * moved.sum(axis=1) >= (images != np.arange(dd)).sum(axis=1)))
    rng = np.random.default_rng((cfg.seed, 8))

    def displacement_oracle():
        for i in rng.integers(len(images), size=ORACLE_SAMPLES):
            p = _perm(images[i])
            agree = cutting.displaced_set(p) == frozenset((np.flatnonzero(moved[i]) + 1).tolist())
            yield None if agree else f"displaced set disagrees at {p}"

    perms_dd = map(Permutation.from_images, itertools.permutations(range(dd)))
    bad, total = _first_witness(_batched_cases(
        len(images), held.all(), displacement_oracle(),
        (displacement(p) for p in perms_dd if not p.is_identity())))
    checks.append(PASS(
        "cutting.displacement_s8",
        f"displaced set is disjoint from its image with |D| >= supp/3, exhaustive S_{dd}",
        bad, total,
        constants={"fraction": "1/3"},
    ))

    # the audit operation itself: the worked pair plus exhaustive S_ad pairs
    ad = min(5, degree)
    sample = map(Permutation.from_images, itertools.permutations(range(ad)))
    audit = cutting.verify_cut_lemmas(
        itertools.chain(
            [(Permutation.parse("(1 2 3)"), Permutation.parse("(1 3 2)"))],
            itertools.product(sample, repeat=2),
        ),
        max_k=6,
    )
    checks.append(PASS(
        "cutting.audit_report",
        "verify_cut_lemmas reports zero violations and ratios <= 1 on exhaustive "
        f"S_{ad} pairs, all k <= 6",
        # a bound has a witness exactly when it has a violation, a ratio above 1
        next((f"{name}: {entry['witness']}" for name, entry in audit.items()
              if entry["witness"]), None),
        sum(entry["sample_size"] for entry in audit.values()),
        observed={name: entry["max_ratio"] for name, entry in audit.items()},
    ))
    return checks


# ------------------------------------------------------------------------ covering


# brenner_check is cross-checked against the set-of-tuples kernel up to this
# degree; that kernel adds about half a second at A_7 and 37 s at A_8.
_TUPLE_REFERENCE_MAX_DEGREE = 6


def run_covering(cfg: RunConfig) -> list[CheckResult]:
    import numpy as np

    checks = []

    unmet_classes = []
    reports = []

    # Each class is cut from the S_n image array (covering._class_rows) and
    # every kernel reads the cut.  Its oracle checks the cut's size against
    # n!/z (z the centraliser order) and that the canonical element conjugated
    # by evenly spaced rows of S_n lands in it; the replay re-runs the class on
    # conjugacy_class's members.
    def class_case(n, ctype, seeded, members=None):
        """brenner_check's report on the class, and its case: where a reference
        kernel disagrees with it, the first such, else the class when it is
        not covered."""
        rep = canonical_of_type(ctype)
        result = brenner_check(rep, n, members)
        references = []
        if n <= _TUPLE_REFERENCE_MAX_DEGREE:
            references.append(("tuple reference", _tuple_brenner_check(rep, n, members)))
        if seeded:
            references.append(("rank-mask oracle", _rank_mask_brenner_check(rep, n, members)))
        held = result.covered and result.exponent <= 4
        return result, next((f"A_{n} type {ctype}: exponent {result.exponent} from the type "
                             f"kernel, {other.exponent} from the {name}"
                             for name, other in references if other.exponent != result.exponent),
                            None if held else f"A_{n} type {ctype}")

    def cut_oracle(n, ctype):
        images = _symmetric_arrays(n)[0]
        cut = _class_rows(ctype, n)
        counts = collections.Counter(ctype)
        counts[1] = n - sum(ctype)
        size = math.factorial(n) // math.prod(
            k ** m * math.factorial(m) for k, m in counts.items())
        yield None if len(cut) == size else \
            f"A_{n} type {ctype}: {len(cut)} rows cut, class size {size}"
        inside = np.zeros(len(images), dtype=bool)
        inside[_rank_images(cut)] = True
        taus = images[::max(1, len(images) // ORACLE_SAMPLES)]
        canonical = np.array(_images_of_type(ctype, n), dtype=np.uint8)
        # tau, then the canonical element, then tau^-1
        conjugates = np.take_along_axis(np.argsort(taus, axis=1), canonical[taus], axis=1)
        for tau, held in zip(taus, inside[_rank_images(conjugates)].tolist()):
            yield None if held else f"A_{n} type {ctype}: not cut at its conjugate by {_perm(tau)}"

    def replay_cases(n, ctype, seeded):
        members = sorted(conjugacy_class(canonical_of_type(ctype), n).members)
        yield class_case(n, ctype, seeded, members)[1]

    def brenner_cases():
        rng = np.random.default_rng((cfg.seed, 11))
        for n in cfg.brenner_degrees:
            reasons = {ctype: brenner_hypotheses(canonical_of_type(ctype), n)
                       for ctype in _even_cycle_types(n)}
            # the rank-mask kernel re-runs one seeded class per degree
            met = [ctype for ctype, reason in reasons.items() if reason is None]
            oracle = met[rng.integers(len(met))] if met else None
            for ctype, reason in reasons.items():
                if reason is not None:
                    unmet_classes.append(f"A_{n} type {ctype}: {reason}")
                    continue
                result, witness = class_case(n, ctype, ctype == oracle)
                reports.append(result)
                yield from _batched_cases(1, witness is None, cut_oracle(n, ctype),
                                          replay_cases(n, ctype, ctype == oracle))

    bad, _ = _first_witness(brenner_cases())
    checks.append(PASS(
        "covering.brenner",
        f"C_sigma^4 = A_n for every class meeting the hypotheses, n in {list(cfg.brenner_degrees)}",
        bad, sum(r.class_size for r in reports),
        constants={"exponent": 4},
        observed={
            "classes_checked": len(reports),
            "hypothesis_unmet_classes": len(unmet_classes),
            # an uncovered class has no exponent
            "worst_exponent": max((r.exponent for r in reports if r.covered), default=None),
        },
    ))

    # the precondition gate must reject, not skip
    try:
        brenner_check(Permutation.parse("(1 2 3)"), 5)
        gate_bad = "brenner_check accepted (1 2 3) in A_5"
    except HypothesisUnmetError:
        gate_bad = None
    checks.append(PASS(
        "covering.hypothesis_gate",
        "brenner_check raises on a class with no orbit of length two",
        gate_bad, 1,
    ))

    # Ore witnesses: one stack per degree, [b, c] = g and parity checked on the
    # image arrays; commutator_witness on seeded elements is the oracle, and the
    # loop over Permutations the replay
    def ore_failed(g, b, c, n):
        top = max(n, 5)
        return (commutator(b, c) != g or not b.is_even() or not c.is_even()
                or (b.support() and b.support()[-1] > top)
                or (c.support() and c.support()[-1] > top))

    def ore_loop_cases(n):
        for g in map(Permutation.from_images, _even_tuples(n)):
            yield str(g) if ore_failed(g, *commutator_witness(g, n), n) else None

    def ore_oracle(rng, n, g, b, c):
        for i in rng.integers(len(g), size=ORACLE_SAMPLES):
            p = _perm(g[i])
            pair = commutator_witness(p, n)
            agree = pair == (_perm(b[i]), _perm(c[i])) and not ore_failed(p, *pair, n)
            yield None if agree else f"stacked witness disagrees at {p}"

    def ore_cases():
        rng = np.random.default_rng((cfg.seed, 12))
        for n in cfg.ore_degrees:
            # rows are max(n, 5) points wide, so b and c are supported there
            g, b, c = _stacked_commutator_witnesses(n)
            # [b, c] = g  iff  b then c equals g then c then b
            commutator_held = (np.take_along_axis(c, b, axis=1) == np.take_along_axis(
                b, np.take_along_axis(c, g, axis=1), axis=1)).all()
            even = all((_cycle_norms(_cycle_lengths(x))[1] % 2 == 0).all() for x in (b, c))
            yield from _batched_cases(len(g), commutator_held and even,
                                      ore_oracle(rng, n, g, b, c),
                                      ore_loop_cases(n))

    bad, total = _first_witness(ore_cases())
    checks.append(PASS(
        "covering.ore_witnesses",
        f"every element of A_n, n in {list(cfg.ore_degrees)}, gets a verified commutator witness",
        bad, total,
    ))

    # conjugate-product certificates on seeded pairs
    rng = np.random.default_rng(cfg.seed + 2)
    deg = cfg.certificate_degree
    slacks = []

    def certificate_cases():
        for _ in range(cfg.certificate_count):
            h = _random_even(rng, deg)
            g = _random_even(rng, deg)
            while g.is_identity() or 2 not in g.cycle_type():
                g = _random_even(rng, deg)
            try:
                cert = express_as_conjugates(h, g)
            except BlockSearchFailedError as exc:
                yield f"h={h} g={g}: {exc}"
                continue
            bound = 8 * supp_norm(h) / supp_norm(g) + 4
            if not cert.verify() or cert.factor_count() > bound:
                yield f"h={h} g={g} factors={cert.factor_count()} bound={bound}"
            else:
                slacks.append(bound - cert.factor_count())
                yield None

    bad, produced = _first_witness(certificate_cases())
    checks.append(PASS(
        "covering.conjugate_certificates",
        f"{cfg.certificate_count} random A_{deg} pairs: certificates recompose "
        "with factor count <= 8 supp(h)/supp(g) + 4",
        bad, produced,
        constants={"factor_bound": "8 supp(h)/supp(g) + 4"},
        observed={"min_bound_slack": min(slacks, default=None)},
    ))

    # classes stay closed under conjugation by generators (spot check, n <= 7)
    closure_bad = None
    closure_samples = 0
    for rep, n in ((Permutation.parse("(1 2)(3 4)"), 6),
                   (Permutation.parse("(1 2)(3 4 5)"), 7)):
        cls = conjugacy_class(rep, n)
        gens = [Permutation.transposition(i, i + 1).to_images(n) for i in range(1, n)]
        closure_bad = closure_bad or (
            None if cls.closed_under_conjugation(gens) else f"the class of {rep} in S_{n}")
        closure_samples += cls.size() * len(gens)
    checks.append(PASS(
        "covering.class_closure",
        "materialized classes are closed under conjugation by the ambient generators",
        closure_bad, closure_samples,
    ))
    return checks


def _random_even(rng: np.random.Generator, degree: int) -> Permutation:
    images = [int(x) for x in rng.permutation(degree)]
    if not _tuple_even(images):
        images[0], images[1] = images[1], images[0]
    return Permutation.from_images(tuple(images))


# ------------------------------------------------------------------------- intnorm


# intnorm.axioms_window searches every x in [-2w, 2w] to this depth.  Its reach,
# |x| <= 596, sets report.MAX_INTNORM_WINDOW; no norm there exceeds 9, so a
# deeper cap changes no row
AXIOMS_WINDOW_DEPTH = 9


def run_intnorm(cfg: RunConfig) -> list[CheckResult]:
    import numpy as np

    checks = []
    gens = intnorm.FactorialGenerators(base=2, max_index=intnorm.MAX_INTNORM_INDEX)

    def exact(n):
        try:
            result = intnorm.norm_exact(gens.x(n), gens, depth_cap=n + 2)
        except intnorm.ArgumentCheckFailedError as exc:  # its own certificate failed its check
            return f"x_{n}: {exc}"
        if (witness := result.check(gens.x(n))) is not None:
            return f"x_{n}: {witness}"
        return None if result.value == n else f"x_{n}: {result.value}"

    bad, _ = _first_witness(map(exact, range(1, cfg.intnorm_exact_max + 1)))
    checks.append(PASS(
        "intnorm.exact_small",
        f"exhaustive search gives ||x_n|| = n for n <= {cfg.intnorm_exact_max}",
        bad, cfg.intnorm_exact_max,
    ))

    def sandwich(n):
        try:
            upper = intnorm.norm_upper(gens.x(n), gens)
            lower = intnorm.lower_bound_xn(n)
        except intnorm.ArgumentCheckFailedError as exc:  # an exact step failed
            return f"x_{n}: {exc}"
        return None if upper.best_upper == lower == n else \
            f"x_{n}: upper={upper.best_upper} lower={lower}"

    bad, _ = _first_witness(map(sandwich, range(1, cfg.intnorm_sandwich_max + 1)))
    checks.append(PASS(
        "intnorm.sandwich",
        f"upper construction and symbolic lower bound pin ||x_n|| = n for n <= {cfg.intnorm_sandwich_max}",
        bad, cfg.intnorm_sandwich_max,
    ))

    try:
        probe = intnorm.torsion_probe(range(1, cfg.intnorm_sandwich_max + 1), base=2,
                                      exact_cutoff=cfg.intnorm_exact_max)
        probe3 = intnorm.torsion_probe(range(1, 5), base=3, exact_cutoff=3)
        bad, _ = _first_witness(itertools.chain(
            (None if (r["norm_x_n"], r["norm_t_x_n"]) == (r["n"], 1)
             else f"base {p['base']} n={r['n']}: ({r['norm_x_n']}, {r['norm_t_x_n']})"
             for p in (probe, probe3) for r in p["rows"]),
            [None if probe3["modeled_generating_set"] else "base 3 not flagged as modeled"]))
    except intnorm.ArgumentCheckFailedError as exc:
        # norm_xn's search or upper construction missed the lower bound
        probe, bad = {"rows": []}, str(exc)
    checks.append(PASS(
        "intnorm.torsion",
        "torsion probe reports (||x_n||, ||t x_n||) = (n, 1); base 3 flagged as modeled",
        bad, cfg.intnorm_sandwich_max + 4,  # the rows of both probes
        observed={"base2": [(r["n"], r["norm_x_n"], r["norm_t_x_n"]) for r in probe["rows"]]},
    ))

    # norm axioms on the window, plus exact <= upper
    w = cfg.intnorm_axiom_window
    table = {}

    def axiom_failures():
        for x in range(-2 * w, 2 * w + 1):
            r = intnorm.norm_exact(x, gens, depth_cap=AXIOMS_WINDOW_DEPTH)
            if r.value is None:
                yield f"unknown at {x}"
                return
            if (witness := r.check(x)) is not None:
                yield f"{x}: {witness}"
                return
            table[x] = r.value
        for x in range(-w, w + 1):
            if table[x] != table[-x]:
                yield f"symmetry at {x}"
            elif intnorm.norm_upper(x, gens).best_upper < table[x]:
                yield f"upper below exact at {x}"
        # the triangle inequality on [-w, w]^2 as one comparison; its first
        # failure in row-major order is itertools.product's first
        norms = np.array([table[x] for x in range(-2 * w, 2 * w + 1)], dtype=np.int16)
        window = np.arange(w, 3 * w + 1)  # the positions of -w..w in norms
        bad = norms[window[:, None] + window - 2 * w] > norms[window, None] + norms[window]
        if bad.any():
            x, y = np.divmod(int(bad.argmax()), 2 * w + 1)
            yield f"triangle at {x - w},{y - w}"

    try:
        bad, _ = _first_witness(axiom_failures())
    except intnorm.ArgumentCheckFailedError as exc:  # a certificate naming its x failed
        bad = str(exc)
    checks.append(PASS(
        "intnorm.axioms_window",
        f"symmetry, triangle inequality and exact <= upper on [-{w}, {w}]",
        bad, (2 * w + 1) ** 2,
    ))

    # BFS distances by steps +-window_for(w, D) within reach are the norms on [-w, w]: D bounds
    # them, so that window holds a minimal sum, and ordering its terms keeps it within reach
    steps = gens.window_for(w, max(table.values(), default=0))
    reach = w + steps[-1]
    dist = quasimorphism.window_word_norm(reach, steps) if reach <= 1 << 16 else {}
    bad, _ = _first_witness(f"BFS half-width {reach} exceeds 2^16" if not dist else None
                            if dist[x] == table.get(x) else str(x) for x in range(-w, w + 1))
    checks.append(PASS(
        "intnorm.window_stability",
        "exact values are unchanged under a wider generator window and deeper cap",
        bad, 2 * w + 1,
    ))
    return checks


# ------------------------------------------------------------------------- matnorm


def _stacked_cases(rng, n, pairs, seed, stacked, reference, stream):
    """One n-block of a matrix check, as _batched_cases.

    stacked(rng, n, pairs, oracle) runs the block on stacks and returns whether
    any pair failed, and the cases of its oracle, which re-runs the seeded pair
    `oracle` through the scalar code (RationalMatrix and bareiss_rank, or
    random_so, so_project and numeric_rank), drawn from its check's own stream
    (seed, n, 0, stream).  A block the int64 guards refuse counts as failed.  A
    replay restores the block's rng state, so that later draws too are the reference's."""
    import numpy as np

    state = rng.bit_generator.state
    # SeedSequence pads keys with zeros to four words, and every other stream of
    # a run has at most three: (seed, n) would meet other oracles at n = 7..12
    oracle = int(np.random.default_rng((seed, n, 0, stream)).integers(pairs))
    try:
        flagged, disagreements = stacked(rng, n, pairs, oracle)
    except matnorm.EntryBoundError:
        flagged, disagreements = True, ()

    def replay():
        rng.bit_generator.state = state
        yield from reference(rng, n, pairs)

    yield from _batched_cases(pairs, not flagged, disagreements, replay())


def _block_ranks(a, b):
    """The ranks of e(p(a)) - a, p(a) - p(b) and a - b for (N, n, n) int64
    stacks a and b, p the leading (n-1) x (n-1) block and e its embedding
    with 1 in the corner, as one modular_rank call's (3, N) array.  p(a) - p(b)
    is ranked padded with zeros back to n x n, which keeps its rank."""
    import numpy as np

    n = a.shape[1]
    lead = np.s_[:, : n - 1, : n - 1]
    drop = -a  # e(p(a)) - a
    drop[lead] = 0
    drop[:, -1, -1] += 1
    diff = a - b
    padded = np.zeros_like(diff)
    padded[lead] = diff[lead]
    return matnorm.modular_rank(np.concatenate([drop, padded, diff])).reshape(3, len(a))


def _disagreements(n, oracle, stacked: dict, reference: dict):
    """The oracle's cases: a witness for each quantity on which the stacked
    kernel and the reference differ at the oracle pair."""
    return (f"{name}: stacked {value} != reference {reference[name]} at n={n} pair {oracle}"
            for name, value in stacked.items() if value != reference[name])


def _triangular_ranks(g, h):
    """The three ranks of matnorm.triangular at one pair, in _block_ranks'
    order: rk(e(p(g)) g^-1 - I), rk(p(x) - I) and rk(x - I), x = g h^-1,
    p = triangular_project, e = embed."""
    x = g @ h.inverse()
    drop = matnorm.embed(matnorm.triangular_project(g), g.n) @ g.inverse()
    return [matnorm.bareiss_rank(m.minus_identity().rows)
            for m in (drop, matnorm.triangular_project(x), x)]


def _triangular_pairs(rng, n, pairs, draw):
    """The reference loop of matnorm.triangular at one n, on draw's matrices."""
    for _ in range(pairs):
        g, h = draw(rng, n), draw(rng, n)
        if matnorm.triangular_project(g @ h) != \
           matnorm.triangular_project(g) @ matnorm.triangular_project(h):
            yield f"homomorphism n={n}"
            continue
        rk_drop, rk_lead, rk_x = _triangular_ranks(g, h)
        if rk_drop > 1:
            yield f"rank drop n={n}"
        elif rk_lead > rk_x:
            yield f"expansion n={n}"
        else:
            yield None


def _triangular_stacked(rng, n, pairs, oracle, draw):
    """_triangular_pairs on an int64 stack of draw's; see _stacked_cases.  As an
    invertible right factor keeps rank, _block_ranks(g, h) stands for
    _triangular_ranks: no inverse."""
    import numpy as np

    stack = draw(rng, n, 2 * pairs)
    g, h = stack[0::2], stack[1::2]
    lead = np.s_[:, : n - 1, : n - 1]
    gh = matnorm.int64_matmul(g, h)
    rk_drop, rk_lead, rk_x = ranks = _block_ranks(g, h)
    flagged = not (
        (gh[lead] == matnorm.int64_matmul(g[lead], h[lead])).all()
        and (rk_drop <= 1).all() and (rk_lead <= rk_x).all())
    gr, hr = (matnorm.RationalMatrix(m[oracle].tolist()) for m in (g, h))
    reference = {"gh": (gr @ hr).rows, "ranks": _triangular_ranks(gr, hr)}
    got = {"gh": matnorm.RationalMatrix(gh[oracle].tolist()).rows,
           "ranks": ranks[:, oracle].tolist()}
    return flagged, _disagreements(n, oracle, got, reference)


def _spd_ranks(a, b, ap, bp):
    """The three ranks of matnorm.spd at one pair, in _block_ranks' order:
    rk(e(ap) - a), rk(ap - bp) and rk(a - b), ap and bp the projections of a
    and b, e = embed."""
    return [matnorm.bareiss_rank(m.rows) for m in (matnorm.embed(ap, a.n) - a, ap - bp, a - b)]


def _spd_pairs(rng, n, pairs):
    """The reference loop of matnorm.spd at one n."""
    for _ in range(pairs):
        a, b = matnorm.random_spd(rng, n), matnorm.random_spd(rng, n)
        ap, bp = matnorm.spd_project(a), matnorm.spd_project(b)
        rk_drop, rk_lead, rk_diff = _spd_ranks(a, b, ap, bp)
        if not ap.is_symmetric():
            yield f"symmetry n={n}"
        elif rk_lead > rk_diff:
            yield f"rank inequality n={n}"
        elif rk_drop > 2:
            yield f"rank drop n={n}"
        else:
            yield None


def _spd_stacked(rng, n, pairs, oracle):
    """_spd_pairs on int64 stacks; see _stacked_cases."""
    stack = matnorm.random_spd_stack(rng, n, 2 * pairs)
    a, b = stack[0::2], stack[1::2]
    signs = matnorm.leading_minor_signs(stack)
    rk_drop, rk_lead, rk_diff = ranks = _block_ranks(a, b)
    # spd_project's conditions; its leading block of a symmetric matrix is symmetric
    flagged = not (
        (stack == stack.transpose(0, 2, 1)).all() and (signs > 0).all()
        and (rk_lead <= rk_diff).all() and (rk_drop <= 2).all())
    ar, br = (matnorm.RationalMatrix(m[oracle].tolist()) for m in (a, b))
    reference = {
        "leading minor signs": [[(d > 0) - (d < 0) for d in (
            matnorm.bareiss_determinant(m.leading(k).rows) for k in range(1, n + 1))]
            for m in (ar, br)],
        "ranks": _spd_ranks(ar, br, ar.leading(n - 1), br.leading(n - 1))}
    got = {"leading minor signs": signs[2 * oracle : 2 * oracle + 2].tolist(),
           "ranks": ranks[:, oracle].tolist()}
    return flagged, _disagreements(n, oracle, got, reference)


def _so_ranks(g, h, tau):
    """The four ranks of matnorm.so at one pair: rk(g - I), rk(g h^T - I),
    rk(p(g) p(h)^T - I) and rk(p(g) g^T - I), p(g) embedded, p = so_project."""
    import numpy as np

    n = g.n
    pg, ph = matnorm.so_project(g, tau), matnorm.so_project(h, tau)
    return [matnorm.rank_norm_numeric(g, tau),
            matnorm.numeric_rank(g.data @ h.data.T - np.eye(n), tau),
            matnorm.numeric_rank(pg.data @ ph.data.T - np.eye(n - 1), tau),
            matnorm.numeric_rank(matnorm.embed(pg, n).data @ g.data.T - np.eye(n), tau)]


def _so_failed(rk_g, rk_gh, rk_p, rk_drop):
    """matnorm.so's verdict on four ranks, or elementwise on four rank arrays."""
    return (rk_g % 2 != 0) | (rk_gh % 2 != 0) | (rk_p > rk_gh) | (rk_drop > 2)


def _so_pairs(rng, n, pairs, tau, stats):
    """The reference loop of matnorm.so at one n.  stats counts the pairs with a
    borderline rank and the failing ones among them, and the least retained
    singular value."""
    for _ in range(pairs):
        g = matnorm.random_so(rng, n)
        h = matnorm.random_so(rng, n)
        ranks = _so_ranks(g, h, tau)
        for r in ranks:
            if r.smallest_retained is not None:
                if stats["worst"] is None or r.smallest_retained < stats["worst"]:
                    stats["worst"] = r.smallest_retained
        flagged = any(r.borderline() for r in ranks)
        failed = _so_failed(*(r.value for r in ranks))
        stats["flagged"] += int(flagged)
        stats["flagged_failures"] += int(flagged and failed)
        yield f"n={n} ranks={[r.value for r in ranks]}" if failed else None


def _so_stacked(rng, n, pairs, oracle, tau, stats):
    """_so_pairs on float stacks; see _stacked_cases.  The oracle draws its
    pair again from the entry state, past the 2 * oracle matrices before it.
    A row that so_project_stack refuses flags the n at once.  stats takes the
    stacked counts only when nothing was flagged and the oracle agreed;
    otherwise the reference replay counts them itself."""
    import numpy as np

    state = rng.bit_generator.state
    stack = matnorm.random_so_stack(rng, n, 2 * pairs)
    projected, refused = matnorm.so_project_stack(stack, tau)
    if refused.any():
        return True, []  # the replay draws the pairs again and meets that row
    g, h, pg, ph = stack[0::2], stack[1::2], projected[0::2], projected[1::2]
    eye = np.eye(n)
    embedded = np.broadcast_to(eye, g.shape).copy()
    embedded[:, : n - 1, : n - 1] = pg
    # the ranks, smallest retained and largest singular values, each
    # (4, pairs), in _so_ranks order
    ranks, smallest, largest = (np.stack(a) for a in zip(*(
        matnorm.numeric_rank_stack(m, tau) for m in (
            g - eye, g @ h.transpose(0, 2, 1) - eye,
            pg @ ph.transpose(0, 2, 1) - eye[1:, 1:], embedded @ g.transpose(0, 2, 1) - eye))))
    flagged = bool(_so_failed(*ranks).any())
    # random_so_stack draws what successive random_so calls draw, from one stream
    replica = np.random.Generator(type(rng.bit_generator)())
    replica.bit_generator.state = state
    replica.normal(size=(2 * oracle, n, n))
    rg, rh = matnorm.random_so(replica, n), matnorm.random_so(replica, n)
    got = {"g": g[oracle].tolist(), "h": h[oracle].tolist(), "ranks": [matnorm.RankNormValue(
        int(r), "singular-threshold", threshold=tau,
        smallest_retained=None if np.isnan(s) else float(s), largest=float(b))
        for r, s, b in zip(ranks[:, oracle], smallest[:, oracle], largest[:, oracle])]}
    disagreements = list(_disagreements(n, oracle, got, {
        "g": rg.data.tolist(), "h": rh.data.tolist(), "ranks": _so_ranks(rg, rh, tau)}))
    if not flagged and not disagreements:
        retained = smallest[~np.isnan(smallest)]
        if retained.size:
            worst = float(retained.min())
            stats["worst"] = worst if stats["worst"] is None else min(stats["worst"], worst)
        scale = np.maximum(1.0, largest)
        stats["flagged"] += int((smallest < matnorm.BORDERLINE_MARGIN * tau * scale).any(axis=0).sum())
    return flagged, disagreements


def run_matnorm(cfg: RunConfig) -> list[CheckResult]:
    import numpy as np

    checks = []
    rng = np.random.default_rng(cfg.seed + 3)

    # each check's blocks draw their oracle pairs from a stream of their own:
    # B_n's integer 1 and rational 2, SPD 3 and SO(n) 4
    def blocks(sizes, pairs, stream, stacked, reference):
        for n in sizes:
            yield from _stacked_cases(rng, n, pairs, cfg.seed, stacked, reference, stream)

    # B_n: homomorphism, rank drop <= 1, non-expansive; exact on int64 stacks,
    # then on rational diagonals doubled, which changes none of the three tests
    # (e(p(g)) - g is zero outside its last column); their oracles and replays
    # exercise the Fraction path
    bad, pairs = _first_witness(itertools.chain(
        blocks(range(1, cfg.triangular_max_n + 1), cfg.matrix_pairs, 1,
               functools.partial(_triangular_stacked, draw=matnorm.random_unit_triangular_stack),
               functools.partial(_triangular_pairs, draw=matnorm.random_unit_triangular)),
        blocks(range(2, min(cfg.triangular_max_n, 6) + 1), 20, 2,
               functools.partial(_triangular_stacked, draw=matnorm.random_rational_triangular_stack),
               functools.partial(_triangular_pairs, draw=matnorm.random_rational_triangular))))
    checks.append(PASS(
        "matnorm.triangular",
        f"B_n block projection: homomorphism, rank drop <= 1, non-expansive, "
        f"exact on {cfg.matrix_pairs} pairs per n <= {cfg.triangular_max_n}",
        bad, pairs,
    ))

    # SPD
    bad, pairs = _first_witness(blocks(range(2, cfg.spd_max_n + 1), cfg.matrix_pairs, 3,
                                       _spd_stacked, _spd_pairs))
    checks.append(PASS(
        "matnorm.spd",
        f"SPD principal-minor projection: positive definiteness kept, "
        f"rk(A'-B') <= rk(A-B) and drop <= 2, exact on {cfg.matrix_pairs} pairs per n <= {cfg.spd_max_n}",
        bad, pairs,
    ))

    # SO(n), numeric at tau
    tau = cfg.tau
    so = {"flagged": 0, "flagged_failures": 0, "worst": None}
    bad, pairs = _first_witness(blocks(range(cfg.so_min_n, cfg.so_max_n + 1), cfg.matrix_pairs, 4,
                                       functools.partial(_so_stacked, tau=tau, stats=so),
                                       functools.partial(_so_pairs, tau=tau, stats=so)))
    checks.append(PASS(
        "matnorm.so",
        f"SO(n) rotation projection: rank parity, non-expansive, drop <= 2 at "
        f"tau={tau:g}, {cfg.matrix_pairs} pairs per n in {cfg.so_min_n}..{cfg.so_max_n}",
        bad, pairs,
        constants={"tau": tau, "drop_bound": 2},
        observed={"borderline_flagged": so["flagged"], "flagged_failures": so["flagged_failures"],
                  "parity_samples": 2 * pairs, "worst_retained_singular_value": so["worst"]},
    ))

    # permutation-matrix cross-check, exhaustive S_6, plus the dual-rank oracle.
    # P - I of every element is ranked as one stack, supp is read off the
    # images and tr off their cycles; seeded elements re-run rank_norm_exact,
    # supp_norm and tr_norm on Permutations as the oracle
    def permutation_cross(images):
        p = Permutation.from_images(images)
        rk = matnorm.rank_norm_exact(matnorm.permutation_matrix(p, 6)).value
        if rk > supp_norm(p) or supp_norm(p) > 3 * rk:
            return str(p)
        return None if rk == tr_norm(p) else f"rank vs transposition norm at {p}"

    images = _unrank_images(np.arange(720), 6)
    eye = np.eye(6, dtype=np.int64)
    ranks = matnorm.modular_rank(eye[images] - eye)
    supp, tr = _cycle_norms(_cycle_lengths(images))
    rng2 = np.random.default_rng(cfg.seed + 4)
    padded = np.zeros((100, 6, 6), dtype=np.int64)  # zero padding keeps the rank
    samples = []
    for k in range(100):
        n = int(rng2.integers(1, 7))
        rows = [[int(rng2.integers(-3, 4)) for _ in range(n)] for _ in range(n)]
        padded[k, :n, :n] = rows
        samples.append(rows)

    def cross_oracle():
        for i in rng2.integers(len(images), size=ORACLE_SAMPLES):
            p = _perm(images[i])
            agree = (matnorm.rank_norm_exact(matnorm.permutation_matrix(p, 6)).value, supp_norm(p),
                     tr_norm(p)) == (ranks[i], supp[i], tr[i])
            yield None if agree else f"rank, supp or tr arrays disagree at {p}"

    held = ((ranks <= supp) & (supp <= 3 * ranks) & (ranks == tr)).all()
    bad, total = _first_witness(_batched_cases(
        len(images), held, cross_oracle(),
        map(permutation_cross, itertools.permutations(range(6)))))
    backend_bad, _ = _first_witness(
        None if matnorm.bareiss_rank(rows) == matnorm.gauss_rank(rows) == modular
        else "rank backends disagree"
        for rows, modular in zip(samples, matnorm.modular_rank(padded)))
    checks.append(PASS(
        "matnorm.permutation_cross",
        "rk(P - id) <= supp <= 3 rk(P - id) on exhaustive S_6; "
        "Bareiss and Fraction eliminations agree",
        backend_bad or bad, total + 100,
    ))
    return checks


# ------------------------------------------------------------------------ products


def _direct_sum_cases(ds, elements, rng):
    """The four conditions for ds.sum_project under the support norm, audited on
    coordinate rows, as one case for _first_witness.  DirectSum itself re-runs
    ORACLE_SAMPLES seeded elements and pairs, drawn from rng, as the oracle,
    and the pairwise audit is the reference."""
    import numpy as np

    indices, coords = products.sum_coordinates(elements)
    images = products.collapse_least(coords)
    held = products.verify_coordinate_conditions(elements, coords, images, 1)["all_hold"]
    singles = rng.integers(len(elements), size=ORACLE_SAMPLES)
    pairs = rng.integers(len(elements), size=(ORACLE_SAMPLES, 2))

    def oracle():
        for i in singles:
            g = elements[i]
            agree = (ds.sum_project(g) == products.sum_element(indices, images[i])
                     and ds.supp_norm(g) == np.count_nonzero(coords[i]))
            yield None if agree else f"DirectSum disagrees at {g}"
        for i, j in pairs:
            g, h = elements[i], elements[j]
            agree = (ds.distance(g, h, ds.supp_norm)
                     == products.support_distance(coords[i], coords[j])
                     and ds.distance(ds.sum_project(g), ds.sum_project(h), ds.supp_norm)
                     == products.support_distance(images[i], images[j]))
            yield None if agree else f"DirectSum distance disagrees at {g} | {h}"

    def reference():
        yield products.report_witness(products.verify_contraction_conditions(
            ds.sum_project, elements, ds.supp_norm,
            lambda a, b: ds.distance(a, b, ds.supp_norm), lambda a: a.is_identity(), 1))

    return _batched_cases(1, held, oracle(), reference())


def run_products(cfg: RunConfig) -> list[CheckResult]:
    import numpy as np

    checks = []

    fp = products.FreeProduct({
        1: products.cyclic_factor(2, "discrete"),
        2: products.cyclic_factor(3, "discrete"),
    })
    words = fp.enumerate_words(cfg.word_l1_budget)
    rep = products.verify_contraction_conditions(
        fp.prefix_project, words, fp.l1_norm, fp.distance,
        lambda wd: wd.is_identity(), 1)
    checks.append(PASS(
        "products.free_product_conditions",
        f"all four single-projection conditions on Z/2 * Z/3 words of l1 <= {cfg.word_l1_budget}",
        products.report_witness(rep), rep["non-expansive"]["checked"],
        observed={"words": len(words)},
    ))

    top = cfg.sum_indices
    ds = products.DirectSum({i: products.cyclic_factor(i, "discrete") for i in range(2, top + 1)})
    dense_indices = range(2, min(7, top + 1))
    dense = ds.enumerate_elements(dense_indices, cfg.sum_terms)
    rng = np.random.default_rng(cfg.seed + 5)
    sampled = []
    for _ in range(200):
        count = int(rng.integers(0, cfg.sum_terms + 1))
        indices = sorted(rng.choice(np.arange(2, top + 1), size=count, replace=False)) if count else []
        sampled.append(ds.element({
            int(i): int(rng.integers(1, int(i))) for i in indices
        }))
    oracle_rng = np.random.default_rng((cfg.seed, 9))
    bad, _ = _first_witness(itertools.chain(*(
        _direct_sum_cases(ds, carrier, oracle_rng) for carrier in (dense, sampled))))
    checks.append(PASS(
        "products.direct_sum_conditions",
        f"all four conditions on direct sums: exhaustive over Z/2..Z/6 with <= {cfg.sum_terms} "
        f"terms, plus a seeded sample over indices 2..{top}",
        bad, math.comb(len(dense), 2) + math.comb(len(sampled), 2),
        observed={"dense_elements": len(dense), "sampled_elements": len(sampled)},
    ))

    # fpi differs from fp only in its factor projections, so it has the same words
    fpi = products.FreeProduct({
        1: products.cyclic_factor(2, "discrete", "identity"),
        2: products.cyclic_factor(3, "discrete", "identity"),
    })
    rep_neg = products.verify_contraction_conditions(
        fpi.prefix_project, words, fpi.l1_norm, fpi.distance, lambda wd: wd.is_identity(), 1)
    # whether the identity projection must violate each condition
    expected = {"norm-decrease": True, "non-expansive": False, "displacement": False}
    neg_bad = next((f"{name} violation count {rep_neg[name]['violations']}"
                    for name, violated in expected.items()
                    if (rep_neg[name]["violations"] > 0) != violated), None)
    checks.append(PASS(
        "products.negative_control",
        "the identity projection fails exactly the norm-decrease condition (iii)",
        neg_bad, rep_neg["norm-decrease"]["checked"],
        observed={"norm_decrease_violations": rep_neg["norm-decrease"]["violations"]},
    ))

    # isometric inclusion and l1 vs support equivalence with the sharp constants
    fp57 = products.FreeProduct({
        1: products.cyclic_factor(5, "word"),
        2: products.cyclic_factor(7, "word"),
    })
    f5 = products.cyclic_factor(5, "word")
    iso_ok = all(fp57.l1_norm(fp57.include(1, k)) == f5.norm(k) for k in range(5))
    words57 = fp57.enumerate_words(5)
    sup_norm = max(f.norm(e) for f in fp57.factors.values() for e in f.non_identity_elements())
    inf_norm = min(f.norm(e) for f in fp57.factors.values() for e in f.non_identity_elements())
    norms57 = [(fp57.l1_norm(wd), fp57.supp_norm(wd)) for wd in words57]
    equiv_bad, _ = _first_witness(
        None if inf_norm * supp <= l1 <= sup_norm * supp else str(wd)
        for wd, (l1, supp) in zip(words57, norms57))
    tight_hi = any(supp and l1 == sup_norm * supp for l1, supp in norms57)
    tight_lo = any(supp and l1 == inf_norm * supp for l1, supp in norms57)
    failed_clause = next((clause for clause, held in (
        ("factor inclusion is not an l1 isometry", iso_ok), ("sup constant not attained", tight_hi),
        ("inf constant not attained", tight_lo)) if not held), None)
    checks.append(PASS(
        "products.isometry_equivalence",
        "factor inclusion is a l1 isometry; l1 and support norms are equivalent "
        "with constants inf/sup of the factor norms, both attained",
        equiv_bad or failed_clause, 5 + len(words57),
        constants={"sup_factor_norm": sup_norm, "inf_factor_norm": inf_norm},
    ))

    # prefix projection norm decrease and proximity on small carriers
    def prefix_projection(wd):
        pw = fp57.prefix_project(wd)
        failed = fp57.l1_norm(pw) >= fp57.l1_norm(wd) or fp57.distance(pw, wd) > max(
            f.declared_displacement for f in fp57.factors.values())
        return str(wd) if failed else None

    bad, _ = _first_witness(prefix_projection(wd) for wd in words57 if not wd.is_identity())
    checks.append(PASS(
        "products.prefix_projection",
        "prefix projection strictly decreases l1 and moves words a bounded distance",
        bad, len(words57),
    ))
    return checks


# ------------------------------------------------------------------------ coneprobe


def _stage_families(cfg: RunConfig):
    """The B_n, SPD and SO(n) stage families; stage n samples from
    default_rng((seed, n, *key))."""
    import numpy as np

    def family(name, distance, project, draw, key, identity):
        def sample(n, count, seed):
            rng = np.random.default_rng((seed, n, *key))
            return [draw(rng, n) for _ in range(count)]

        return coneprobe.StageFamily(
            name=name,
            distance=lambda n, x, y: distance(x, y) if n else 0,
            project=lambda n, x: project(x),
            include=lambda n, x: matnorm.embed(x, n),
            sample=sample,
            identity_at=identity,
        )

    def exact_rank(x, y):
        return matnorm.bareiss_rank((x - y).rows)

    return (
        family("upper-triangular", exact_rank, matnorm.triangular_project,
               matnorm.random_unit_triangular, (), matnorm.RationalMatrix.identity),
        family("symmetric-positive-definite", exact_rank, matnorm.spd_project,
               matnorm.random_spd, (1,), matnorm.RationalMatrix.identity),
        family("special-orthogonal",
               lambda x, y: matnorm.numeric_rank(x.data - y.data, cfg.tau).value,
               lambda x: matnorm.so_project(x, cfg.tau), matnorm.random_so, (2,),
               lambda n: matnorm.FloatMatrix(np.eye(n))),
    )


# coneprobe.arc_identity checks every pair of residues mod n up to this
ARC_IDENTITY_MAX = 64


def run_coneprobe(cfg: RunConfig) -> list[CheckResult]:
    import numpy as np

    checks = []
    # the oracles' own stream: the grid's random pairs below consume seed + 6
    oracle_rng = np.random.default_rng((cfg.seed, 10))

    # round trip theta(phi(k)) = k, one array per n; seeded (k, n) draws re-run
    # zmod_to_circle and circle_to_zmod as the oracle
    top = cfg.circle_roundtrip_max

    def roundtrip_oracle():
        for _ in range(ORACLE_SAMPLES):
            n = int(oracle_rng.integers(1, top + 1))
            k = int(oracle_rng.integers(n))
            angle = coneprobe.zmod_to_circle(k, n)
            agree = (angle == coneprobe.zmod_to_circle_array(n)[k]
                     and coneprobe.circle_to_zmod(angle, n) == k)
            yield None if agree else f"circle_to_zmod disagrees with the arrays at k={k} n={n}"

    held = all((coneprobe.circle_to_zmod_array(coneprobe.zmod_to_circle_array(n), n)
                == np.arange(n)).all() for n in range(1, top + 1))
    bad, total = _first_witness(_batched_cases(
        top * (top + 1) // 2, held, roundtrip_oracle(),
        (None if coneprobe.circle_to_zmod(coneprobe.zmod_to_circle(k, n), n) == k
         else f"k={k} n={n}" for n in range(1, top + 1) for k in range(n))))
    checks.append(PASS(
        "coneprobe.roundtrip",
        f"theta(phi(k)) = k for every residue, n <= {top}",
        bad, total,
    ))

    # arc identity, exact on integer numerators; seeded (a, b, n) draws re-run
    # the exact rationals of arc_identity_exact as the oracle
    def arc_oracle():
        for _ in range(ORACLE_SAMPLES):
            n = int(oracle_rng.integers(1, ARC_IDENTITY_MAX + 1))
            a, b = oracle_rng.integers(n, size=2).tolist()
            agree = coneprobe.arc_identity_exact(a, b, n) == \
                coneprobe.arc_identity_array(n)[a * n + b]
            yield None if agree else \
                f"arc_identity_exact disagrees with the arrays at a={a} b={b} n={n}"

    sizes = range(1, ARC_IDENTITY_MAX + 1)
    held = all(coneprobe.arc_identity_array(n).all() for n in sizes)
    bad, total = _first_witness(_batched_cases(
        sum(n * n for n in sizes), held, arc_oracle(),
        (None if coneprobe.arc_identity_exact(a, b, n) else f"a={a} b={b} n={n}"
         for n in sizes for a in range(n) for b in range(n))))
    checks.append(PASS(
        "coneprobe.arc_identity",
        "d_arc(phi(a), phi(b)) = 2 pi ||a-b||_n / n, exact, "
        f"all pairs for n <= {ARC_IDENTITY_MAX}",
        bad, total,
    ))

    # Lipschitz bound on the angle grid
    rng = np.random.default_rng(cfg.seed + 6)
    grid = np.linspace(0.0, 2.0 * math.pi, cfg.circle_grid, endpoint=False)
    pair_checks = 0
    pointwise_checks = 0

    def grid_cases():
        nonlocal pair_checks, pointwise_checks
        for n in range(1, cfg.circle_mod_max + 1):
            residues = coneprobe.circle_to_zmod_array(grid, n)
            # pointwise nearest-root property: implies the pair bound everywhere
            arc_to_root = np.abs((grid - 2.0 * math.pi * residues / n + math.pi)
                                 % (2.0 * math.pi) - math.pi)
            pointwise_checks += grid.size
            yield f"nearest-root property at n={n}" if (arc_to_root > math.pi / n + 1e-9).any() \
                else None
            # the literal pair inequality on consecutive and seeded random pairs
            for idx_a, idx_b in (
                (np.arange(grid.size - 1), np.arange(1, grid.size)),
                (rng.integers(0, grid.size, 2000), rng.integers(0, grid.size, 2000)),
            ):
                diff = np.abs(residues[idx_a] - residues[idx_b])
                cyc = np.minimum(diff, n - diff)
                arc = np.abs((grid[idx_a] - grid[idx_b] + math.pi) % (2.0 * math.pi) - math.pi)
                pair_checks += idx_a.size
                yield f"pair bound at n={n}" \
                    if (cyc > arc * n / (2.0 * math.pi) + 2.0 + 1e-9).any() else None

    bad, _ = _first_witness(grid_cases())

    # the vectorized theta the grid runs must match circle_to_zmod
    def residue_cases():
        for _ in range(500):
            n = int(rng.integers(1, cfg.circle_mod_max + 1))
            angle = float(rng.uniform(0, 2 * math.pi))
            agree = coneprobe.circle_to_zmod_array(angle, n) == coneprobe.circle_to_zmod(angle, n)
            yield None if agree else f"angle={angle} n={n}"

    ref_bad, _ = _first_witness(residue_cases())
    checks.append(PASS(
        "coneprobe.lipschitz_grid",
        f"theta is within half a root spacing pointwise (hence the +2 pair bound "
        f"everywhere), grid of {cfg.circle_grid} angles per n <= {cfg.circle_mod_max}",
        bad or ref_bad, pointwise_checks + pair_checks,
        constants={"pair_constant": 2},
        observed={"pair_checks": pair_checks, "vectorization_crosschecked": ref_bad is None},
    ))

    # staged contraction hypotheses for the three matrix families
    b_family, spd_family, so_family = _stage_families(cfg)
    smax = cfg.sequence_stage_max
    results = [
        coneprobe.check_sequence_contraction(b_family, range(2, smax + 1), 8, cfg.seed, 1),
        coneprobe.check_sequence_contraction(spd_family, range(2, smax + 1), 8, cfg.seed, 2),
        coneprobe.check_sequence_contraction(so_family, range(4, smax + 2), 8, cfg.seed, 2),
    ]
    # a family's witness names its first expansion or inclusion defect
    bad, _ = _first_witness(
        r["witness"] or (None if r["k_within_expected"] else
                         f"{r['family']}: K = {r['smallest_working_k']} above {r['expected_k']}")
        for r in results)
    checks.append(PASS(
        "coneprobe.sequence_contraction",
        "staged projections are non-expansive with bounded displacement "
        "(K = 1 triangular, K = 2 SPD and SO)",
        bad, sum(r["pairs_checked"] for r in results),
        observed={r["family"]: r["smallest_working_k"] for r in results},
    ))

    # ultralimit monotonicity surrogate
    rng = np.random.default_rng(cfg.seed + 7)
    def monotone_cases():
        for trial in range(50):
            b_series = rng.uniform(0, 2, 60)
            a_series = b_series - rng.uniform(0, 1, 60)
            ea = coneprobe.estimate_limit(a_series)
            eb = coneprobe.estimate_limit(b_series)
            above = [stat for stat in ("tail_min", "tail_max", "tail_mean")
                     if getattr(ea, stat) > getattr(eb, stat)]
            yield f"trial {trial}: {above[0]} of a above b's" if above else None

    mono_bad, _ = _first_witness(monotone_cases())
    checks.append(PASS(
        "coneprobe.monotonicity",
        "a_n <= b_n stagewise forces every tail statistic of a to stay below b's",
        mono_bad, 50,
    ))

    # admissibility examples and the honest non-limit
    cyc = coneprobe.load_sequence({"family": "cycle", "stages": list(range(1, 40)), "scaling": "n"})
    ident = coneprobe.load_sequence(
        {"family": "constant-identity", "stages": list(range(1, 40)), "scaling": "n"})
    square = coneprobe.load_sequence(
        {"family": "square-cycle", "stages": list(range(1, 40)), "scaling": "n"})
    alternating = coneprobe.estimate_limit([0.0, 1.0] * 30)
    vanishing = coneprobe.estimate_limit([1.0 / n for n in range(1, 400)],
                                         coneprobe.TAIL_FRACTION, 1e-2)

    def admissibility_cases():
        for seq, bound, admissible in ((cyc, 1.0, True), (ident, 0.0, True),
                                       (square, 1000.0 / 40, False)):
            yield None if coneprobe.admissibility(seq, bound)[0] == admissible else \
                f"{seq.label} family {'in' if admissible else ''}admissible at {bound}"
        yield "alternating series converged" if alternating.converged else None
        yield None if vanishing.converged and vanishing.tail_mean < 1e-2 else \
            "series 1/n not converged to 0 at 1e-2"

    adm_bad, _ = _first_witness(admissibility_cases())
    checks.append(PASS(
        "coneprobe.admissibility",
        "cycle family admissible at 1, identity at 0, square family inadmissible; "
        "alternating series honestly not converged",
        adm_bad, 3 + 2,
        observed={"alternating_converged": alternating.converged},
    ))

    # scaling robustness: s_n -> 4 s_n rescales the series by exactly 1/4
    quad = coneprobe.ScaledSequence(cyc.stages, lambda n: 4.0 * n)
    scale_bad, _ = _first_witness(
        None if a == b / 4.0 else f"stage {n}"
        for (n, _), a, b in zip(cyc.stages, quad.normalized(), cyc.normalized()))
    checks.append(PASS(
        "coneprobe.scaling",
        "multiplying the scaling sequence by 4 rescales the normalized series by 1/4 exactly",
        scale_bad, len(cyc.stages),
    ))
    return checks


# ---------------------------------------------------------------------- determinism


def run_determinism(cfg: RunConfig) -> list[CheckResult]:
    small = RunConfig.small(seed=cfg.seed)

    def run(runner):
        report = build_report(small, runner(small))
        return len(report_to_json(report)), [(c["check_id"], report_to_json(c))
                                             for c in report["checks"]]

    # only row bytes outlive a run.  The reports share their config, and counts
    # and status follow from the rows, so equal rows give byte-identical reports.
    # The two-process runner is checked against its one-process reference.
    (size, first), (_, second) = run(_run_suites_in_process), run(_run_suites)
    differing = next(((a or b)[0] for a, b in itertools.zip_longest(first, second)
                      if a != b), None)
    return [PASS(
        "determinism.byte_identical",
        "two reduced-scale runs with the same config and seed give byte-identical reports",
        None if differing is None else f"reports differ at {differing}", 2,
        observed={"bytes": size},
    )]


# ------------------------------------------------------------------------ assembly


SUITES = {
    "norms": run_norms,
    "cutting": run_cutting,
    "covering": run_covering,
    "intnorm": run_intnorm,
    "matnorm": run_matnorm,
    "products": run_products,
    "coneprobe": run_coneprobe,
    "determinism": run_determinism,
}


class SuiteWorkerError(RuntimeError):
    """The suite worker ended without sending its rows."""


class _RemoteTraceback(Exception):
    """The worker's formatted traceback, as its message: the __cause__ of the
    exception the parent re-raises, as in concurrent.futures."""


def _selected(cfg: RunConfig) -> list[str]:
    return [name for name in SUITES if name in cfg.suites or "all" in cfg.suites]


def _run_suites_in_process(cfg: RunConfig) -> list[CheckResult]:
    """The selected suites run one after another in this process: the
    reference for _run_suites."""
    return [check for name in _selected(cfg) for check in SUITES[name](cfg)]


def _take_suites(cfg: RunConfig, names, queue: int, alive=lambda: True) -> dict:
    """{name: rows} for the suites this process takes from the queue, one byte
    (an index into names) at a time, while alive() holds."""
    rows = {}
    while alive() and (taken := os.read(queue, 1)):
        name = names[taken[0]]
        rows[name] = SUITES[name](cfg)
    return rows


def _run_suites(cfg: RunConfig) -> list[CheckResult]:
    """The selected suites' rows in SUITES order, run in two processes.

    This process forks one worker, and both take suites from one queue, a
    pipe that holds one byte per suite.  A one-byte pipe read is atomic, so
    each suite runs exactly once.  Every suite seeds its own streams, so the
    process that runs a suite changes no byte of its rows.  The worker
    pickles its {name: rows}, or the exception that ended it with its
    formatted traceback, back over a second pipe and leaves by os._exit.
    One selected suite runs here, and nothing is forked.

    The suites import numpy where they use it, and this process imports it
    just before the fork, so the worker imports nothing again.  numpy's
    OpenBLAS thread pool survives the fork through OpenBLAS's pthread_atfork
    handlers.
    """
    names = _selected(cfg)
    if len(names) < 2:
        return _run_suites_in_process(cfg)
    import numpy  # loaded once, here, for both processes

    queue, queue_w = os.pipe()
    os.write(queue_w, bytes(range(len(names))))
    os.close(queue_w)  # an empty queue then reads as end of file
    result_r, result_w = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        _serve_suites(cfg, names, queue, result_r, result_w, parent)
    os.close(result_w)
    try:
        with os.fdopen(result_r, "rb") as result:
            rows = _take_suites(cfg, names, queue)
            payload = result.read()
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)  # the worker's rows are of no use now
        raise
    finally:
        os.close(queue)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        # negative: the signal that ended the worker
        raise SuiteWorkerError(f"suite worker ended with exit status {status} "
                               "before sending its rows")
    sent, tb = pickle.loads(payload)  # bytes written by the worker above
    if tb is not None:
        raise sent from _RemoteTraceback(tb)
    rows.update(sent)
    return [check for name in names for check in rows[name]]


def _serve_suites(cfg, names, queue, result_r, result_w, parent):
    """The forked worker: take suites while the parent lives, send (rows,
    None) or (exception, traceback) back, and leave by os._exit."""
    status = 1
    try:
        os.close(result_r)
        try:
            sent = _take_suites(cfg, names, queue, lambda: os.getppid() == parent), None
        except BaseException as exc:  # re-raised by the parent
            import traceback

            sent = exc, traceback.format_exc()
        with os.fdopen(result_w, "wb") as result:
            pickle.dump(sent, result)
        status = 0
    finally:
        os._exit(status)


def run_suite(cfg: RunConfig, echo=print) -> tuple[int, dict]:
    """Run the selected suites, print one line per check, write the report.

    Exit status: 0 when every check passes, 1 on any failure (the report is
    still written), 2 when the config is invalid.
    """
    cfg.validate()
    checks = _run_suites(cfg)
    report = build_report(cfg, checks)
    for check in checks:
        mark = "PASS" if check.status == "pass" else "FAIL"
        echo(f"[{mark}] {check.check_id}: {check.lemma} (n={check.sample_size})")
        if check.status != "pass" and check.witness:
            echo(f"       witness: {check.witness}")
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(report_to_json(report))
        _write_series_csv(cfg)
    return (0 if report["status"] == "pass" else 1), report


def _write_series_csv(cfg: RunConfig) -> None:
    """Companion CSV with the built-in probe series (spec: series as CSV)."""
    import csv as _csv

    path = cfg.out + ".series.csv"
    cyc = coneprobe.load_sequence(
        {"family": "cycle", "stages": list(range(1, 40)), "scaling": "n"})
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["stage", "norm", "scaling", "normalized"])
        for (n, norm), value in zip(cyc.stages, cyc.normalized()):
            writer.writerow([n, norm, n, value])
