"""Verification suites: one per lemma family, assembled by run_suite.

Each suite function takes a RunConfig and returns CheckResult rows.  Heavy
checks run batched kernels over image arrays and vectorize the pairwise
bookkeeping; every batched kernel and vectorized shortcut is cross-checked
against the reference implementation inside the same check.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from . import coneprobe, cutting, intnorm, matnorm, products, quasimorphism, wordnorm
from .covering import (
    HypothesisUnmetError,
    brenner_check,
    brenner_hypotheses,
    canonical_of_type,
    commutator_witness,
    conjugacy_class,
    express_as_conjugates,
)
from .perms import Permutation, commutator, compose_all, supp_norm, three_cycle_norm, tr_norm
from .report import CheckResult, RunConfig, build_report, report_to_json

PASS = CheckResult.from_outcome


# --------------------------------------------------------------------------- norms


def _all_perms(degree: int) -> list[Permutation]:
    return [Permutation.from_images(t) for t in sorted(itertools.permutations(range(degree)))]


def _perm(images) -> Permutation:
    return Permutation.from_images(tuple(int(x) for x in images))


def run_norms(cfg: RunConfig) -> list[CheckResult]:
    checks = []

    # composition convention regression: (x y)(y z) = (x z y)
    lhs = Permutation.parse("(1 2)").then(Permutation.parse("(2 3)"))
    checks.append(PASS(
        "norms.composition_convention",
        "(x y)(y z) = (x z y) under left-to-right composition",
        lhs == Permutation.parse("(1 3 2)"), 1,
        witness=str(lhs),
    ))

    # the 3-cycle identity for disjoint transpositions, all distinct points <= 8
    bad = None
    count = 0
    for x1, y1, x2, y2, z in itertools.permutations(range(1, 9), 5):
        count += 1
        left = Permutation.from_cycles([(x1, y1), (x2, y2)])
        right = compose_all([
            Permutation.from_cycles([(z, y1, x1)]),
            Permutation.from_cycles([(x2, z, y1)]),
            Permutation.from_cycles([(y2, x2, z)]),
        ])
        if left != right:
            bad = f"x1={x1} y1={y1} x2={x2} y2={y2} z={z}"
            break
    checks.append(PASS(
        "norms.pair_transposition_identity",
        "(x1 y1)(x2 y2) = (z y1 x1)(x2 z y1)(y2 x2 z), distinct points <= 8",
        bad is None, count, witness=bad,
    ))

    # norm sandwich on exhaustive S_norm_degree
    degree = cfg.norm_degree
    elements = _all_perms(degree)
    bad = None
    for p in elements:
        tr, supp = tr_norm(p), supp_norm(p)
        if not (tr <= supp <= 2 * tr):
            bad = str(p)
            break
    checks.append(PASS(
        "norms.sandwich_s7",
        f"tr <= supp <= 2 tr on exhaustive S_{degree}",
        bad is None, len(elements),
        constants={"upper_factor": 2}, witness=bad,
    ))

    # closed-form tr norm against the BFS oracle
    oracle = wordnorm.symmetric_oracle(degree)
    table = wordnorm.bfs_norm(oracle, wordnorm.transposition_generators(degree))
    mismatch = next(
        (t for t in oracle.elements if table[t] != tr_norm(Permutation.from_images(t))),
        None,
    )
    checks.append(PASS(
        "norms.bfs_tr_agreement",
        f"closed-form transposition norm equals BFS word length on S_{degree}",
        mismatch is None, oracle.order(),
        witness=str(Permutation.from_images(mismatch)) if mismatch else None,
    ))

    # alternating sandwich: tr <= 2 n3 and n3 <= 1.5 tr on exhaustive A_m
    m = cfg.alternating_degree
    alt = wordnorm.alternating_oracle(m)
    n3_table = wordnorm.bfs_norm(alt, wordnorm.three_cycle_generators(m))
    bad = None
    for t in alt.elements:
        p = Permutation.from_images(t)
        tr, n3 = tr_norm(p), n3_table[t]
        if 2 * n3 < tr or 2 * n3_table[t] > 3 * tr:
            bad = f"{p}: tr={tr} n3={n3}"
            break
    checks.append(PASS(
        "norms.alternating_a6",
        f"tr <= 2 n3 and n3 <= 1.5 tr on exhaustive A_{m}",
        bad is None, alt.order(),
        constants={"tr_upper": 2, "n3_upper": 1.5}, witness=bad,
    ))

    # three_cycle_norm oracle agreement and ambient stability
    bad = None
    for t in alt.elements:
        p = Permutation.from_images(t)
        if three_cycle_norm(p) != n3_table[t]:
            bad = str(p)
            break
    small = wordnorm.alternating_oracle(max(m - 1, 4))
    for t in small.elements:
        p = Permutation.from_images(t)
        if three_cycle_norm(p) != three_cycle_norm(p, ambient=m + 1):
            bad = f"ambient instability at {p}"
            break
    checks.append(PASS(
        "norms.three_cycle_oracle",
        "3-cycle norm equals the BFS table and is ambient-stable",
        bad is None, alt.order() + small.order(), witness=bad,
    ))

    # conjugation invariance + metric axioms, exhaustive S_5
    s5 = _all_perms(5)
    n3_of = {}
    for p in s5:
        if p.is_even():
            n3_of[p] = three_cycle_norm(p)
    bad = None
    for p in s5:
        norms_p = (supp_norm(p), tr_norm(p), n3_of.get(p))
        for t in s5:
            q = p.conjugated_by(t)
            if (supp_norm(q), tr_norm(q), n3_of.get(q)) != norms_p:
                bad = f"{p} vs {t}"
                break
        if bad:
            break
    checks.append(PASS(
        "norms.conjugation_invariance_s5",
        "supp, tr and 3-cycle norms are conjugation invariant on exhaustive S_5",
        bad is None, len(s5) ** 2, witness=bad,
    ))

    bad = None
    for p in s5:
        for q in s5:
            prod = p.then(q)
            if supp_norm(prod) > supp_norm(p) + supp_norm(q) or tr_norm(prod) > tr_norm(p) + tr_norm(q):
                bad = f"{p} * {q}"
                break
            if supp_norm(p.inverse()) != supp_norm(p):
                bad = f"symmetry at {p}"
                break
        if bad:
            break
    checks.append(PASS(
        "norms.metric_axioms_s5",
        "triangle inequality and symmetry of the induced metric on exhaustive S_5",
        bad is None, len(s5) ** 2, witness=bad,
    ))

    # conjugacy closure of a transposition: exactly the 6 transpositions of S_4
    s4 = wordnorm.symmetric_oracle(4)
    closure = wordnorm.conjugacy_closure(s4, {Permutation.parse("(1 2)").to_images(4)})
    expected = {g for g in s4.elements if Permutation.from_images(g).cycle_type() == (2,)}
    checks.append(PASS(
        "norms.closure_transpositions",
        "conjugacy closure of one transposition in S_4 is the transposition class",
        closure == expected, len(closure),
        observed={"size": len(closure)},
    ))

    # norm-table axioms + conjugation invariance on a finite carrier
    tr_table_s4 = wordnorm.bfs_norm(s4, wordnorm.transposition_generators(4))
    axioms_ok = True
    try:
        tr_table_s4.check_axioms()
        tr_table_s4.check_conjugation_invariance()
    except AssertionError:
        axioms_ok = False
    z5 = wordnorm.cyclic_oracle(5)
    z5_table = wordnorm.bfs_norm(z5, {1})
    checks.append(PASS(
        "norms.table_axioms",
        "NormTable satisfies the norm axioms and conjugation invariance (S_4, Z/5)",
        axioms_ok and [z5_table[k] for k in range(5)] == [0, 1, 2, 2, 1],
        s4.order() ** 2 + 5,
        observed={"z5_norms": [z5_table[k] for k in range(5)]},
    ))

    # domination audits: supp vs tr on S_5, tr vs n3 on A_5
    s5o = wordnorm.symmetric_oracle(5)
    supp_table = wordnorm.NormTable(
        s5o, {t: supp_norm(Permutation.from_images(t)) for t in s5o.elements}, frozenset())
    tr_table = wordnorm.bfs_norm(s5o, wordnorm.transposition_generators(5))
    c_supp, _ = wordnorm.audit_domination(tr_table, supp_table)
    a5 = wordnorm.alternating_oracle(5)
    tr_a5 = wordnorm.NormTable(
        a5, {t: tr_norm(Permutation.from_images(t)) for t in a5.elements}, frozenset())
    n3_a5 = wordnorm.bfs_norm(a5, wordnorm.three_cycle_generators(5))
    c_tr, _ = wordnorm.audit_domination(n3_a5, tr_a5)   # tr <= C * n3
    c_n3, _ = wordnorm.audit_domination(tr_a5, n3_a5)   # n3 <= C * tr
    checks.append(PASS(
        "norms.domination",
        "supp <= 2 tr on S_5; tr <= 2 n3 and n3 <= 1.5 tr on A_5 (smallest constants)",
        c_supp == 2 and c_tr <= 2 and c_n3 <= Fraction(3, 2),
        s5o.order() + 2 * a5.order(),
        observed={"supp_vs_tr": str(c_supp), "tr_vs_n3": str(c_tr), "n3_vs_tr": str(c_n3)},
    ))

    # quasimorphism lower bound against window word norms
    width = 60
    psi = quasimorphism.integer_window(lambda k: float(k), width)
    defect = quasimorphism.estimate_defect(
        psi, [(a, b) for a in range(-20, 21) for b in range(-20, 21)])
    bad = None
    for steps, bound_k in (((1,), 1.0), ((1, 2), 2.0)):
        norms = quasimorphism.window_word_norm(width, steps)
        for g in range(-width, width + 1):
            # psi is a homomorphism, so the homogenisation equals psi itself
            if not quasimorphism.norm_lower_bound(float(g), bound_k, defect, norms[g]):
                bad = f"g={g} steps={steps}"
                break
        if bad:
            break
    homog = quasimorphism.homogenise(psi, 3, width // 3)
    checks.append(PASS(
        "norms.quasimorphism_lower_bound",
        "norm(g) >= |psi(g)| / (K + D) for the identity homomorphism on integer "
        "windows with steps {1} and {1, 2}; homomorphisms have defect 0",
        bad is None and defect == 0.0 and set(homog.series) == {3.0},
        2 * (2 * width + 1),
        observed={"defect_of_homomorphism": defect},
        witness=bad,
    ))
    return checks


# ------------------------------------------------------------------------- cutting


# random_s30 pairs are cut in blocks of this many; the (block, k, m, d) step
# comparison makes larger blocks raise the run's peak memory
CUT_BLOCK = 512


def run_cutting(cfg: RunConfig) -> list[CheckResult]:
    checks = []
    degree, kmax = cfg.cutting_degree, cfg.cutting_max_k
    ks = np.arange(kmax + 1, dtype=np.int16)
    allowed_steps = 2 * np.abs(ks[:, None] - ks[None, :])

    # exhaustive pairs: cut every element at once per k, vectorize the pair loop
    elements = sorted(itertools.permutations(range(degree)))
    n_el = len(elements)
    images = np.array(elements, dtype=np.int16).reshape(n_el, degree)
    base = np.arange(degree, dtype=np.int16)
    cuts = np.stack([cutting.cut_images(images, k) for k in range(kmax + 1)], axis=1)
    supp_of = (images != base).sum(axis=1)
    masks = (images != base) @ (1 << np.arange(degree, dtype=np.int64))

    # norm decrease and the step bound, per element
    cut_supports = (cuts != base).sum(axis=2)  # (n_el, kmax+1)
    norm_bad = cut_supports > np.maximum(supp_of[:, None] - ks[None, :], 0)
    step_diffs = (cuts[:, :, None, :] != cuts[:, None, :, :]).sum(axis=3)
    step_bad = step_diffs > allowed_steps
    norm_violations = int(norm_bad.sum())
    step_violations = int(step_bad.sum())

    general_violations = 0
    equal_violations = 0
    pair_count = 0
    pair_witness = None
    d0 = (cuts[:, 0, None, :] != cuts[None, :, 0, :]).sum(axis=2, dtype=np.int16)
    equal_mask = masks[:, None] == masks[None, :]
    for k in range(1, kmax + 1):
        dk = (cuts[:, k, None, :] != cuts[None, :, k, :]).sum(axis=2, dtype=np.int16)
        general = int((dk > 2 * d0).sum())
        equal = int(((dk > d0) & equal_mask).sum())
        general_violations += general
        equal_violations += equal
        pair_count += n_el * n_el
        if pair_witness is None and general + equal:
            i, j = np.argwhere((dk > 2 * d0) | ((dk > d0) & equal_mask))[0]
            pair_witness = f"{_perm(elements[i])} | {_perm(elements[j])} k={k}"

    # the batched cuts and distances must match the reference on a seeded sample
    rng = np.random.default_rng(cfg.seed)
    ref_ok = True
    for _ in range(50):
        i, j = int(rng.integers(n_el)), int(rng.integers(n_el))
        k = int(rng.integers(kmax + 1))
        a = cutting.cut(_perm(elements[i]), k).image
        b = cutting.cut(_perm(elements[j]), k).image
        if (a.to_images(degree) != tuple(cuts[i, k])
                or supp_norm(a.then(b.inverse())) != int((cuts[i, k] != cuts[j, k]).sum())):
            ref_ok = False
            break
    if not ref_ok:
        witness = f"reference cut disagrees at {_perm(elements[i])} | {_perm(elements[j])} k={k}"
    elif norm_violations:
        i, k = np.argwhere(norm_bad)[0]
        witness = f"norm {_perm(elements[i])} k={k}"
    elif step_violations:
        i, k, m = np.argwhere(step_bad)[0]
        witness = f"step {_perm(elements[i])} k={k} m={m}"
    else:
        witness = pair_witness
    checks.append(PASS(
        "cutting.exhaustive_s6",
        f"cut bounds (2|k-m| step, equal-support non-expansive, 2-Lipschitz, "
        f"norm decrease) on exhaustive S_{degree} pairs, k,m <= {kmax}",
        ref_ok and norm_violations == 0 and step_violations == 0
        and general_violations == 0 and equal_violations == 0,
        pair_count,
        constants={"step_factor": 2, "general_factor": 2},
        observed={
            "norm_violations": norm_violations,
            "step_violations": step_violations,
            "general_violations": general_violations,
            "equal_support_violations": equal_violations,
            "vectorization_crosschecked": ref_ok,
        },
        witness=witness,
    ))

    # random large-degree pairs, cut in blocks; per block one row is also
    # cut by the reference, picked by its own generator so the draws stay put
    rng = np.random.default_rng(cfg.seed + 1)
    oracle_rng = np.random.default_rng(cfg.seed + 8)
    rd = cfg.random_degree
    base_rd = np.arange(rd, dtype=np.int16)
    violations = 0
    witness = None
    audits_checked = 0
    for start in range(0, cfg.random_pairs, CUT_BLOCK):
        size = min(CUT_BLOCK, cfg.random_pairs - start)
        drawn = np.array([rng.permutation(rd) for _ in range(2 * size)], dtype=np.int16)
        block = np.stack([cutting.cut_images(drawn, k) for k in range(kmax + 1)], axis=1)
        row = int(oracle_rng.integers(2 * size))
        p = _perm(drawn[row])
        for k in range(kmax + 1):
            if cutting.cut(p, k).image.to_images(rd) != tuple(block[row, k]):
                violations += 1
                witness = witness or f"reference cut disagrees at {p} k={k}"
                break
        ca, cb = block[0::2], block[1::2]  # (size, kmax+1, rd), draw order a, b
        d0 = (ca[:, 0] != cb[:, 0]).sum(axis=1)
        dk = (ca != cb).sum(axis=2)
        supp_a = (ca[:, 0] != base_rd).sum(axis=1)
        cut_supp = (ca != base_rd).sum(axis=2)
        lipschitz = ((dk > 2 * d0[:, None]).any(axis=1)
                     | (cut_supp > np.maximum(supp_a[:, None] - ks, 0)).any(axis=1))
        same_support = ((ca[:, 0] != base_rd) == (cb[:, 0] != base_rd)).all(axis=1)
        equal = ~lipschitz & same_support & (dk > d0[:, None]).any(axis=1)
        steps = (ca[:, :, None, :] != ca[:, None, :, :]).sum(axis=3)
        step = ~lipschitz & (steps > allowed_steps).any(axis=(1, 2))
        audits_checked += size
        violations += int(lipschitz.sum() + equal.sum() + step.sum())
        if witness is None and (lipschitz | equal | step).any():
            i = int(np.argmax(lipschitz | equal | step))
            pa, pb = _perm(ca[i, 0]), _perm(cb[i, 0])
            if lipschitz[i]:
                witness = f"{pa} | {pb}"
            elif equal[i]:
                witness = f"equal-support {pa} | {pb}"
            else:
                witness = f"step {pa}"
    checks.append(PASS(
        "cutting.random_s30",
        f"the same cut bounds on {cfg.random_pairs} random S_{rd} pairs",
        violations == 0, audits_checked, witness=witness,
        observed={"violations": violations},
    ))

    # splitting, exhaustive
    sd = cfg.split_degree
    bad = None
    total = 0
    for p in _all_perms(sd):
        n = supp_norm(p)
        for k in range(1, n + 1):
            total += 1
            pair = cutting.split(p, k)
            if (pair.recomposed() != p or supp_norm(pair.left) > k
                    or supp_norm(pair.right) > n - k + 1):
                bad = f"{p} at k={k}"
                break
        if bad:
            break
    checks.append(PASS(
        "cutting.splitting_s7",
        f"split recomposes with supp(left) <= k, supp(right) <= n-k+1, exhaustive S_{sd}",
        bad is None, total, witness=bad,
    ))

    # displacement, exhaustive
    dd = cfg.displacement_degree
    bad = None
    total = 0
    for images in itertools.permutations(range(dd)):
        p = Permutation.from_images(images)
        if p.is_identity():
            continue
        total += 1
        moved = cutting.displaced_set(p)
        if {p(x) for x in moved} & moved or 3 * len(moved) < supp_norm(p):
            bad = str(p)
            break
    checks.append(PASS(
        "cutting.displacement_s8",
        f"displaced set is disjoint from its image with |D| >= supp/3, exhaustive S_{dd}",
        bad is None, total,
        constants={"fraction": "1/3"}, witness=bad,
    ))

    # the audit operation itself: the worked pair plus exhaustive S_ad pairs
    ad = min(5, degree)
    sample = _all_perms(ad)
    audit = cutting.verify_cut_lemmas(
        itertools.chain(
            [(Permutation.parse("(1 2 3)"), Permutation.parse("(1 3 2)"))],
            itertools.product(sample, sample),
        ),
        max_k=6,
    )
    checks.append(PASS(
        "cutting.audit_report",
        "verify_cut_lemmas reports zero violations and ratios <= 1 on exhaustive "
        f"S_{ad} pairs, all k <= 6",
        all(entry["violations"] == 0 and entry["max_ratio"] <= 1.0 for entry in audit.values()),
        sum(entry["sample_size"] for entry in audit.values()),
        observed={name: entry["max_ratio"] for name, entry in audit.items()},
    ))
    return checks


# ------------------------------------------------------------------------ covering


def _even_cycle_types(n: int) -> list[tuple[int, ...]]:
    """Cycle types (parts >= 2, sum <= n) of even permutations."""
    types = []

    def build(remaining, smallest, acc):
        if acc:
            types.append(tuple(sorted(acc, reverse=True)))
        for part in range(smallest, remaining + 1):
            build(remaining - part, part, acc + [part])

    build(n, 2, [])
    return sorted({
        t for t in types
        if sum(length - 1 for length in t) % 2 == 0
    })


def run_covering(cfg: RunConfig) -> list[CheckResult]:
    checks = []

    covered_elements = 0
    unmet_classes = []
    reports = []
    bad = None
    for n in cfg.brenner_degrees:
        for ctype in _even_cycle_types(n):
            rep = canonical_of_type(ctype)
            reason = brenner_hypotheses(rep, n)
            if reason is not None:
                unmet_classes.append(f"A_{n} type {ctype}: {reason}")
                continue
            result = brenner_check(rep, n)
            reports.append(result)
            if not result.covered or result.exponent > 4:
                bad = f"A_{n} type {ctype}"
                break
            covered_elements += result.class_size
        if bad:
            break
    checks.append(PASS(
        "covering.brenner",
        f"C_sigma^4 = A_n for every class meeting the hypotheses, n in {list(cfg.brenner_degrees)}",
        bad is None, covered_elements,
        constants={"exponent": 4},
        observed={
            "classes_checked": len(reports),
            "hypothesis_unmet_classes": len(unmet_classes),
            "worst_exponent": max((r.exponent for r in reports), default=None),
        },
        witness=bad,
    ))

    # the precondition gate must reject, not skip
    gate_ok = False
    try:
        brenner_check(Permutation.parse("(1 2 3)"), 5)
    except HypothesisUnmetError:
        gate_ok = True
    checks.append(PASS(
        "covering.hypothesis_gate",
        "brenner_check raises on a class with no orbit of length two",
        gate_ok, 1,
    ))

    total = 0
    bad = None
    for n in cfg.ore_degrees:
        for images in itertools.permutations(range(n)):
            g = Permutation.from_images(images)
            if not g.is_even():
                continue
            total += 1
            b, c = commutator_witness(g, n)
            top = max(n, 5)
            if (commutator(b, c) != g or not b.is_even() or not c.is_even()
                    or (b.support() and b.support()[-1] > top)
                    or (c.support() and c.support()[-1] > top)):
                bad = str(g)
                break
        if bad:
            break
    checks.append(PASS(
        "covering.ore_witnesses",
        f"every element of A_n, n in {list(cfg.ore_degrees)}, gets a verified commutator witness",
        bad is None, total, witness=bad,
    ))

    # conjugate-product certificates on seeded pairs
    rng = np.random.default_rng(cfg.seed + 2)
    deg = cfg.certificate_degree
    produced = 0
    bad = None
    worst_slack = None
    for _ in range(cfg.certificate_count):
        h = _random_even(rng, deg)
        g = _random_even(rng, deg)
        while g.is_identity() or 2 not in g.cycle_type():
            g = _random_even(rng, deg)
        cert = express_as_conjugates(h, g)
        produced += 1
        bound = 8 * supp_norm(h) / supp_norm(g) + 4
        if not cert.verify() or cert.factor_count() > bound:
            bad = f"h={h} g={g} factors={cert.factor_count()} bound={bound}"
            break
        slack = bound - cert.factor_count()
        worst_slack = slack if worst_slack is None else min(worst_slack, slack)
    checks.append(PASS(
        "covering.conjugate_certificates",
        f"{cfg.certificate_count} random A_{deg} pairs: certificates recompose "
        "with factor count <= 8 supp(h)/supp(g) + 4",
        bad is None, produced,
        constants={"factor_bound": "8 supp(h)/supp(g) + 4"},
        observed={"min_bound_slack": worst_slack},
        witness=bad,
    ))

    # classes stay closed under conjugation by generators (spot check, n <= 7)
    closure_ok = True
    closure_samples = 0
    for rep, n in ((Permutation.parse("(1 2)(3 4)"), 6),
                   (Permutation.parse("(1 2)(3 4 5)"), 7)):
        cls = conjugacy_class(rep, n)
        gens = [Permutation.transposition(i, i + 1).to_images(n) for i in range(1, n)]
        closure_ok = closure_ok and cls.closed_under_conjugation(gens)
        closure_samples += cls.size() * len(gens)
    checks.append(PASS(
        "covering.class_closure",
        "materialized classes are closed under conjugation by the ambient generators",
        closure_ok, closure_samples,
    ))
    return checks


def _random_even(rng: np.random.Generator, degree: int) -> Permutation:
    images = [int(x) for x in rng.permutation(degree)]
    p = Permutation.from_images(tuple(images))
    if not p.is_even():
        images[0], images[1] = images[1], images[0]
        p = Permutation.from_images(tuple(images))
    return p


# ------------------------------------------------------------------------- intnorm


def run_intnorm(cfg: RunConfig) -> list[CheckResult]:
    checks = []
    gens = intnorm.FactorialGenerators(base=2, max_index=14)

    bad = None
    for n in range(1, cfg.intnorm_exact_max + 1):
        result = intnorm.norm_exact(gens.x(n), gens, depth_cap=n + 2)
        result.check(gens.x(n))
        if result.value != n:
            bad = f"x_{n}: {result.value}"
            break
    checks.append(PASS(
        "intnorm.exact_small",
        f"exhaustive search gives ||x_n|| = n for n <= {cfg.intnorm_exact_max}",
        bad is None, cfg.intnorm_exact_max, witness=bad,
    ))

    bad = None
    for n in range(1, cfg.intnorm_sandwich_max + 1):
        upper = intnorm.norm_upper(gens.x(n), gens)
        lower = intnorm.lower_bound_xn(n)
        if upper.best_upper != n or lower != n:
            bad = f"x_{n}: upper={upper.best_upper} lower={lower}"
            break
    checks.append(PASS(
        "intnorm.sandwich",
        f"upper construction and symbolic lower bound pin ||x_n|| = n for n <= {cfg.intnorm_sandwich_max}",
        bad is None, cfg.intnorm_sandwich_max, witness=bad,
    ))

    probe = intnorm.torsion_probe(range(1, cfg.intnorm_sandwich_max + 1), base=2,
                                  exact_cutoff=cfg.intnorm_exact_max)
    rows_ok = all(r["norm_x_n"] == r["n"] and r["norm_t_x_n"] == 1 for r in probe["rows"])
    probe3 = intnorm.torsion_probe(range(1, 5), base=3, exact_cutoff=3)
    rows3_ok = (probe3["modeled_generating_set"]
                and all(r["norm_x_n"] == r["n"] and r["norm_t_x_n"] == 1 for r in probe3["rows"]))
    checks.append(PASS(
        "intnorm.torsion",
        "torsion probe reports (||x_n||, ||t x_n||) = (n, 1); base 3 flagged as modeled",
        rows_ok and rows3_ok,
        len(probe["rows"]) + len(probe3["rows"]),
        observed={"base2": [(r["n"], r["norm_x_n"], r["norm_t_x_n"]) for r in probe["rows"]]},
    ))

    # norm axioms on the window, plus exact <= upper
    w = cfg.intnorm_axiom_window
    table = {}
    bad = None
    for x in range(-2 * w, 2 * w + 1):
        r = intnorm.norm_exact(x, gens, depth_cap=cfg.intnorm_depth)
        if r.value is None:
            bad = f"unknown at {x}"
            break
        r.check(x)
        table[x] = r.value
    if bad is None:
        for x in range(-w, w + 1):
            if table[x] != table[-x]:
                bad = f"symmetry at {x}"
                break
            upper = intnorm.norm_upper(x, gens)
            if upper.best_upper < table[x]:
                bad = f"upper below exact at {x}"
                break
        for x in range(-w, w + 1):
            if bad:
                break
            for y in range(-w, w + 1):
                if table[x + y] > table[x] + table[y]:
                    bad = f"triangle at {x},{y}"
                    break
    checks.append(PASS(
        "intnorm.axioms_window",
        f"symmetry, triangle inequality and exact <= upper on [-{w}, {w}]",
        bad is None, (2 * w + 1) ** 2, witness=bad,
    ))

    # window-doubling stability
    wide = intnorm.FactorialGenerators(base=2, max_index=18)
    bad = None
    for x in range(-w, w + 1):
        if intnorm.norm_exact(x, wide, depth_cap=cfg.intnorm_depth + 4).value != table.get(x):
            bad = str(x)
            break
    checks.append(PASS(
        "intnorm.window_stability",
        "exact values are unchanged under a wider generator window and deeper cap",
        bad is None, 2 * w + 1, witness=bad,
    ))
    return checks


# ------------------------------------------------------------------------- matnorm


def run_matnorm(cfg: RunConfig) -> list[CheckResult]:
    checks = []
    rng = np.random.default_rng(cfg.seed + 3)

    # B_n: homomorphism, rank drop <= 1, non-expansive; exact integers plus
    # a rational-diagonal slice
    pairs = 0
    bad = None
    for n in range(1, cfg.triangular_max_n + 1):
        for i in range(cfg.matrix_pairs):
            g = matnorm.random_unit_triangular(rng, n)
            h = matnorm.random_unit_triangular(rng, n)
            pairs += 1
            if matnorm.triangular_project(g @ h) != \
               matnorm.triangular_project(g) @ matnorm.triangular_project(h):
                bad = f"homomorphism n={n}"
                break
            x = g @ h.inverse()
            drop = matnorm.embed(matnorm.triangular_project(g), n) @ g.inverse()
            if matnorm.bareiss_rank(drop.minus_identity().rows) > 1:
                bad = f"rank drop n={n}"
                break
            if matnorm.bareiss_rank(
                matnorm.triangular_project(x).minus_identity().rows
            ) > matnorm.bareiss_rank(x.minus_identity().rows):
                bad = f"expansion n={n}"
                break
        if bad:
            break
    # rational diagonals exercise the Fraction path
    if bad is None:
        for n in range(2, min(cfg.triangular_max_n, 6) + 1):
            for _ in range(20):
                g = matnorm.random_rational_triangular(rng, n)
                h = matnorm.random_rational_triangular(rng, n)
                pairs += 1
                x = g @ h.inverse()
                if matnorm.triangular_project(g @ h) != \
                   matnorm.triangular_project(g) @ matnorm.triangular_project(h) or \
                   matnorm.bareiss_rank(matnorm.triangular_project(x).minus_identity().rows) > \
                   matnorm.bareiss_rank(x.minus_identity().rows):
                    bad = f"rational n={n}"
                    break
            if bad:
                break
    checks.append(PASS(
        "matnorm.triangular",
        f"B_n block projection: homomorphism, rank drop <= 1, non-expansive, "
        f"exact on {cfg.matrix_pairs} pairs per n <= {cfg.triangular_max_n}",
        bad is None, pairs, witness=bad,
    ))

    # SPD
    pairs = 0
    bad = None
    for n in range(2, cfg.spd_max_n + 1):
        for _ in range(cfg.matrix_pairs):
            a = matnorm.random_spd(rng, n)
            b = matnorm.random_spd(rng, n)
            pairs += 1
            ap, bp = matnorm.spd_project(a), matnorm.spd_project(b)
            if not ap.is_symmetric():
                bad = f"symmetry n={n}"
                break
            if matnorm.bareiss_rank((ap - bp).rows) > matnorm.bareiss_rank((a - b).rows):
                bad = f"rank inequality n={n}"
                break
            pad = matnorm.embed(ap, n)
            if matnorm.bareiss_rank((pad - a).rows) > 2:
                bad = f"rank drop n={n}"
                break
        if bad:
            break
    checks.append(PASS(
        "matnorm.spd",
        f"SPD principal-minor projection: positive definiteness kept, "
        f"rk(A'-B') <= rk(A-B) and drop <= 2, exact on {cfg.matrix_pairs} pairs per n <= {cfg.spd_max_n}",
        bad is None, pairs, witness=bad,
    ))

    # SO(n), numeric at tau
    tau = cfg.tau
    pairs = 0
    flagged = 0
    flagged_failures = 0
    bad = None
    parity_samples = 0
    worst_margin = None
    for n in range(cfg.so_min_n, cfg.so_max_n + 1):
        for _ in range(cfg.matrix_pairs):
            g = matnorm.random_so(rng, n)
            h = matnorm.random_so(rng, n)
            pairs += 1
            rk_g = matnorm.rank_norm_numeric(g, tau)
            rk_gh = matnorm.numeric_rank(g.data @ h.data.T - np.eye(n), tau)
            pg, ph = matnorm.so_project(g, tau), matnorm.so_project(h, tau)
            rk_p = matnorm.numeric_rank(pg.data @ ph.data.T - np.eye(n - 1), tau)
            rk_drop = matnorm.numeric_rank(
                matnorm.embed(pg, n).data @ g.data.T - np.eye(n), tau)
            ranks = [rk_g, rk_gh, rk_p, rk_drop]
            parity_samples += 2
            for r in ranks:
                if r.smallest_retained is not None:
                    if worst_margin is None or r.smallest_retained < worst_margin:
                        worst_margin = r.smallest_retained
            sample_flagged = any(r.borderline() for r in ranks)
            failed = (
                rk_g.value % 2 != 0
                or rk_gh.value % 2 != 0
                or rk_p.value > rk_gh.value
                or rk_drop.value > 2
            )
            flagged += int(sample_flagged)
            flagged_failures += int(sample_flagged and failed)
            if failed:
                bad = f"n={n} ranks={[r.value for r in ranks]}"
                break
        if bad:
            break
    checks.append(PASS(
        "matnorm.so",
        f"SO(n) rotation projection: rank parity, non-expansive, drop <= 2 at "
        f"tau={tau:g}, {cfg.matrix_pairs} pairs per n in {cfg.so_min_n}..{cfg.so_max_n}",
        bad is None and flagged_failures == 0, pairs,
        constants={"tau": tau, "drop_bound": 2},
        observed={"borderline_flagged": flagged, "flagged_failures": flagged_failures,
                  "parity_samples": parity_samples,
                  "worst_retained_singular_value": worst_margin},
        witness=bad,
    ))

    # permutation-matrix cross-check, exhaustive S_6, plus the dual-rank oracle
    bad = None
    total = 0
    for images in itertools.permutations(range(6)):
        p = Permutation.from_images(images)
        total += 1
        pm = matnorm.permutation_matrix(p, 6)
        rk = matnorm.rank_norm_exact(pm).value
        supp = supp_norm(p)
        if supp == 0:
            violated = rk != 0
        else:
            violated = rk > supp or supp > 3 * rk
        if violated:
            bad = str(p)
            break
        if rk != tr_norm(p):
            bad = f"rank vs transposition norm at {p}"
            break
    rng2 = np.random.default_rng(cfg.seed + 4)
    for _ in range(100):
        n = int(rng2.integers(1, 7))
        rows = [[int(rng2.integers(-3, 4)) for _ in range(n)] for _ in range(n)]
        if matnorm.bareiss_rank(rows) != matnorm.gauss_rank(rows):
            bad = "rank backends disagree"
            break
    checks.append(PASS(
        "matnorm.permutation_cross",
        "rk(P - id) <= supp <= 3 rk(P - id) on exhaustive S_6; "
        "Bareiss and Fraction eliminations agree",
        bad is None, total + 100, witness=bad,
    ))
    return checks


# ------------------------------------------------------------------------ products


def run_products(cfg: RunConfig) -> list[CheckResult]:
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
        rep["all_hold"], rep["non-expansive"]["checked"],
        observed={"words": len(words)},
        witness=next((rep[k]["witness"] for k in rep if isinstance(rep[k], dict) and rep[k]["witness"]), None),
    ))

    top = cfg.sum_indices
    ds = products.DirectSum({i: products.cyclic_factor(i, "discrete") for i in range(2, top + 1)})
    dense_indices = range(2, min(7, top + 1))
    dense = ds.enumerate_elements(dense_indices, cfg.sum_terms)
    rep_dense = products.verify_contraction_conditions(
        ds.sum_project, dense, ds.supp_norm,
        lambda a, b: ds.distance(a, b, ds.supp_norm),
        lambda a: a.is_identity(), 1)
    rng = np.random.default_rng(cfg.seed + 5)
    sampled = []
    for _ in range(200):
        count = int(rng.integers(0, cfg.sum_terms + 1))
        indices = sorted(rng.choice(np.arange(2, top + 1), size=count, replace=False)) if count else []
        sampled.append(ds.element({
            int(i): int(rng.integers(1, int(i))) for i in indices
        }))
    rep_sampled = products.verify_contraction_conditions(
        ds.sum_project, sampled, ds.supp_norm,
        lambda a, b: ds.distance(a, b, ds.supp_norm),
        lambda a: a.is_identity(), 1)
    checks.append(PASS(
        "products.direct_sum_conditions",
        f"all four conditions on direct sums: exhaustive over Z/2..Z/6 with <= {cfg.sum_terms} "
        f"terms, plus a seeded sample over indices 2..{top}",
        rep_dense["all_hold"] and rep_sampled["all_hold"],
        rep_dense["non-expansive"]["checked"] + rep_sampled["non-expansive"]["checked"],
        observed={"dense_elements": len(dense), "sampled_elements": len(sampled)},
    ))

    fpi = products.FreeProduct({
        1: products.cyclic_factor(2, "discrete", "identity"),
        2: products.cyclic_factor(3, "discrete", "identity"),
    })
    rep_neg = products.verify_contraction_conditions(
        fpi.prefix_project, fpi.enumerate_words(cfg.word_l1_budget),
        fpi.l1_norm, fpi.distance, lambda wd: wd.is_identity(), 1)
    neg_ok = (not rep_neg["all_hold"]
              and rep_neg["norm-decrease"]["violations"] > 0
              and rep_neg["non-expansive"]["violations"] == 0
              and rep_neg["displacement"]["violations"] == 0)
    checks.append(PASS(
        "products.negative_control",
        "the identity projection fails exactly the norm-decrease condition (iii)",
        neg_ok, rep_neg["norm-decrease"]["checked"],
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
    equiv_ok = True
    tight_hi = tight_lo = False
    for wd in words57:
        l1, supp = fp57.l1_norm(wd), fp57.supp_norm(wd)
        if not inf_norm * supp <= l1 <= sup_norm * supp:
            equiv_ok = False
            break
        if supp:
            tight_hi = tight_hi or l1 == sup_norm * supp
            tight_lo = tight_lo or l1 == inf_norm * supp
    checks.append(PASS(
        "products.isometry_equivalence",
        "factor inclusion is a l1 isometry; l1 and support norms are equivalent "
        "with constants inf/sup of the factor norms, both attained",
        iso_ok and equiv_ok and tight_hi and tight_lo,
        5 + len(words57),
        constants={"sup_factor_norm": sup_norm, "inf_factor_norm": inf_norm},
    ))

    # prefix projection norm decrease and proximity on small carriers
    bad = None
    for wd in words57:
        if wd.is_identity():
            continue
        pw = fp57.prefix_project(wd)
        if fp57.l1_norm(pw) >= fp57.l1_norm(wd) or fp57.distance(pw, wd) > max(
                f.declared_displacement for f in fp57.factors.values()):
            bad = str(wd)
            break
    checks.append(PASS(
        "products.prefix_projection",
        "prefix projection strictly decreases l1 and moves words a bounded distance",
        bad is None, len(words57), witness=bad,
    ))
    return checks


# ------------------------------------------------------------------------ coneprobe


def _stage_families(cfg: RunConfig):
    tau = cfg.tau

    def b_distance(n, x, y):
        return matnorm.bareiss_rank((x - y).rows) if n else 0

    def b_sample(n, count, seed):
        rng = np.random.default_rng((seed, n))
        return [matnorm.random_unit_triangular(rng, n) for _ in range(count)]

    b_family = coneprobe.StageFamily(
        name="upper-triangular",
        distance=b_distance,
        project=lambda n, x: matnorm.triangular_project(x),
        include=lambda n, x: matnorm.embed(x, n),
        sample=b_sample,
        identity_at=lambda n: matnorm.RationalMatrix.identity(n),
    )

    def spd_sample(n, count, seed):
        rng = np.random.default_rng((seed, n, 1))
        return [matnorm.random_spd(rng, n) for _ in range(count)]

    spd_family = coneprobe.StageFamily(
        name="symmetric-positive-definite",
        distance=b_distance,
        project=lambda n, x: matnorm.spd_project(x),
        include=lambda n, x: matnorm.embed(x, n),
        sample=spd_sample,
        identity_at=lambda n: matnorm.RationalMatrix.identity(n),
    )

    def so_distance(n, x, y):
        return matnorm.numeric_rank(x.data - y.data, tau).value if n else 0

    def so_sample(n, count, seed):
        rng = np.random.default_rng((seed, n, 2))
        return [matnorm.random_so(rng, n) for _ in range(count)]

    so_family = coneprobe.StageFamily(
        name="special-orthogonal",
        distance=so_distance,
        project=lambda n, x: matnorm.so_project(x, tau),
        include=lambda n, x: matnorm.embed(x, n),
        sample=so_sample,
        identity_at=lambda n: matnorm.FloatMatrix(np.eye(n)),
    )
    return b_family, spd_family, so_family


def run_coneprobe(cfg: RunConfig) -> list[CheckResult]:
    checks = []

    # round trip theta(phi(k)) = k
    bad = None
    total = 0
    for n in range(1, cfg.circle_roundtrip_max + 1):
        for k in range(n):
            total += 1
            if coneprobe.circle_to_zmod(coneprobe.zmod_to_circle(k, n), n) != k:
                bad = f"k={k} n={n}"
                break
        if bad:
            break
    checks.append(PASS(
        "coneprobe.roundtrip",
        f"theta(phi(k)) = k for every residue, n <= {cfg.circle_roundtrip_max}",
        bad is None, total, witness=bad,
    ))

    # arc identity, exact rationals
    bad = None
    total = 0
    for n in range(1, 65):
        for a in range(n):
            for b in range(n):
                total += 1
                if not coneprobe.arc_identity_exact(a, b, n):
                    bad = f"a={a} b={b} n={n}"
                    break
            if bad:
                break
        if bad:
            break
    checks.append(PASS(
        "coneprobe.arc_identity",
        "d_arc(phi(a), phi(b)) = 2 pi ||a-b||_n / n, exact, all pairs for n <= 64",
        bad is None, total, witness=bad,
    ))

    # Lipschitz bound on the angle grid
    rng = np.random.default_rng(cfg.seed + 6)
    grid = np.linspace(0.0, 2.0 * math.pi, cfg.circle_grid, endpoint=False)
    bad = None
    pair_checks = 0
    pointwise_checks = 0
    for n in range(1, cfg.circle_mod_max + 1):
        scaled = (grid / (2.0 * math.pi)) % 1.0 * n
        k = np.floor(scaled)
        frac = scaled - k
        residues = (k + (frac > 0.5)).astype(np.int64) % n
        # pointwise nearest-root property: implies the pair bound everywhere
        arc_to_root = np.abs((grid - 2.0 * math.pi * residues / n + math.pi)
                             % (2.0 * math.pi) - math.pi)
        pointwise_checks += grid.size
        if (arc_to_root > math.pi / n + 1e-9).any():
            bad = f"nearest-root property at n={n}"
            break
        # the literal pair inequality on consecutive and seeded random pairs
        for idx_a, idx_b in (
            (np.arange(grid.size - 1), np.arange(1, grid.size)),
            (rng.integers(0, grid.size, 2000), rng.integers(0, grid.size, 2000)),
        ):
            diff = np.abs(residues[idx_a] - residues[idx_b])
            cyc = np.minimum(diff, n - diff)
            arc = np.abs((grid[idx_a] - grid[idx_b] + math.pi) % (2.0 * math.pi) - math.pi)
            pair_checks += idx_a.size
            if (cyc > arc * n / (2.0 * math.pi) + 2.0 + 1e-9).any():
                bad = f"pair bound at n={n}"
                break
        if bad:
            break
    # the vectorized residues must match circle_to_zmod
    ref_ok = True
    for _ in range(500):
        n = int(rng.integers(1, cfg.circle_mod_max + 1))
        angle = float(rng.uniform(0, 2 * math.pi))
        scaled = (angle / (2 * math.pi)) % 1.0 * n
        k = math.floor(scaled)
        vec = int((k + ((scaled - k) > 0.5)) % n)
        if vec != coneprobe.circle_to_zmod(angle, n):
            ref_ok = False
            break
    checks.append(PASS(
        "coneprobe.lipschitz_grid",
        f"theta is within half a root spacing pointwise (hence the +2 pair bound "
        f"everywhere), grid of {cfg.circle_grid} angles per n <= {cfg.circle_mod_max}",
        bad is None and ref_ok, pointwise_checks + pair_checks,
        constants={"pair_constant": 2},
        observed={"pair_checks": pair_checks, "vectorization_crosschecked": ref_ok},
        witness=bad,
    ))

    # staged contraction hypotheses for the three matrix families
    b_family, spd_family, so_family = _stage_families(cfg)
    smax = cfg.sequence_stage_max
    results = [
        coneprobe.check_sequence_contraction(b_family, range(2, smax + 1), 8, cfg.seed, 1),
        coneprobe.check_sequence_contraction(spd_family, range(2, smax + 1), 8, cfg.seed, 2),
        coneprobe.check_sequence_contraction(so_family, range(4, smax + 2), 8, cfg.seed, 2),
    ]
    ok = all(
        r["expansions"] == 0 and r["inclusion_defects"] == 0 and r["k_within_expected"]
        for r in results
    )
    checks.append(PASS(
        "coneprobe.sequence_contraction",
        "staged projections are non-expansive with bounded displacement "
        "(K = 1 triangular, K = 2 SPD and SO)",
        ok, sum(r["pairs_checked"] for r in results),
        observed={r["family"]: r["smallest_working_k"] for r in results},
        witness=next((r["witness"] for r in results if r["witness"]), None),
    ))

    # ultralimit monotonicity surrogate
    rng = np.random.default_rng(cfg.seed + 7)
    mono_ok = True
    for _ in range(50):
        b_series = rng.uniform(0, 2, 60)
        a_series = b_series - rng.uniform(0, 1, 60)
        ea = coneprobe.estimate_limit(a_series, cfg.tail_fraction, cfg.convergence_tol)
        eb = coneprobe.estimate_limit(b_series, cfg.tail_fraction, cfg.convergence_tol)
        if not (ea.tail_min <= eb.tail_min and ea.tail_max <= eb.tail_max
                and ea.tail_mean <= eb.tail_mean):
            mono_ok = False
            break
    checks.append(PASS(
        "coneprobe.monotonicity",
        "a_n <= b_n stagewise forces every tail statistic of a to stay below b's",
        mono_ok, 50,
    ))

    # admissibility examples and the honest non-limit
    cyc = coneprobe.load_sequence({"family": "cycle", "stages": list(range(1, 40)), "scaling": "n"})
    ident = coneprobe.load_sequence(
        {"family": "constant-identity", "stages": list(range(1, 40)), "scaling": "n"})
    square = coneprobe.load_sequence(
        {"family": "square-cycle", "stages": list(range(1, 40)), "scaling": "n"})
    adm_ok = (admissible(cyc, 1.0) and admissible(ident, 0.0)
              and not admissible(square, 1000.0 / 40))
    alternating = coneprobe.estimate_limit([0.0, 1.0] * 30, cfg.tail_fraction,
                                           cfg.convergence_tol)
    vanishing = coneprobe.estimate_limit([1.0 / n for n in range(1, 400)],
                                         cfg.tail_fraction, 1e-2)
    checks.append(PASS(
        "coneprobe.admissibility",
        "cycle family admissible at 1, identity at 0, square family inadmissible; "
        "alternating series honestly not converged",
        adm_ok and not alternating.converged and vanishing.converged
        and vanishing.tail_mean < 1e-2,
        3 + 2,
        observed={"alternating_converged": alternating.converged},
    ))

    # scaling robustness: s_n -> 4 s_n rescales the series by exactly 1/4
    quad = coneprobe.ScaledSequence(cyc.stages, lambda n: 4.0 * n)
    scale_ok = all(a == b / 4.0 for a, b in zip(quad.normalized(), cyc.normalized()))
    checks.append(PASS(
        "coneprobe.scaling",
        "multiplying the scaling sequence by 4 rescales the normalized series by 1/4 exactly",
        scale_ok, len(cyc.stages),
    ))
    return checks


def admissible(seq, bound) -> bool:
    ok, _ = coneprobe.admissibility(seq, bound)
    return ok


# ---------------------------------------------------------------------- determinism


def run_determinism(cfg: RunConfig) -> list[CheckResult]:
    small = RunConfig.small(seed=cfg.seed)
    first = report_to_json(build_report(small, _run_suites(small)))
    second = report_to_json(build_report(small, _run_suites(small)))
    return [PASS(
        "determinism.byte_identical",
        "two reduced-scale runs with the same config and seed give byte-identical reports",
        first == second, 2,
        observed={"bytes": len(first)},
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


def _run_suites(cfg: RunConfig) -> list[CheckResult]:
    selected = [s for s in SUITES if s in cfg.suites or "all" in cfg.suites]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = {name: pool.submit(SUITES[name], cfg) for name in selected}
            results = {name: futures[name].result() for name in selected}
    else:
        results = {name: SUITES[name](cfg) for name in selected}
    checks: list[CheckResult] = []
    for name in SUITES:
        if name in results:
            checks.extend(results[name])
    return checks


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
