"""Pass/fail certificates for the homology elimination criteria.

Every checker recomputes its hypothesis from the group data it is handed,
and where the conclusion is itself desk-checkable it recomputes that too
instead of trusting the implication.  Verdicts:

    holds          hypothesis established; evidence carries exact integers
    fails          hypothesis not established for this input
    inapplicable   a standing precondition is violated (named in evidence)

A verdict of "fails" never refutes anything: it only says this particular
route does not certify nonzero homology here.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvariantViolated,
    NotHyperelementary,
    VariantUnavailable,
    WrongArity,
)
from .groups import (
    DEFAULT_ENUM_CAP,
    as_subgroup,
    centralizer,
    conjugation_action,
    gens_commute,
    hyperelementary_check,
    member_csr,
    membership,
    normalizer,
    p_core,
    rank_of_order,
    require_contained,
    same_members,
    subgroup_product,
    _check_prime,
)
from .posets import PosetMap, fixed_subposet
from .homology import (
    DEFAULT_WORK_CAP,
    RawComplex,
    betti_of_poset,
    betti_of_raw,
    chain_map_from_poset_map,
    cone_rank_profile,
    induced_map,
)
from .pposets import (
    DIAGONALS,
    ap_poset,
    conj_action_tables,
    decomposition,
    image_poset,
    p_outer_poset,
    subgroup_ids,
    subgroup_orbits,
)

HOLDS = "holds"
FAILS = "fails"
INAPPLICABLE = "inapplicable"

CONDITION_TAGS = ("A", "A'", "B", "C", "D", "E")

# check_prop68 recomputes its conclusion for components up to this order
PROP68_CROSS_CHECK_ORDER = 2000


@dataclass
class Certificate:
    """One verdict with the exact numbers that decided it."""
    tag: str
    verdict: str
    evidence: dict
    inputs: dict

    @property
    def holds(self):
        return self.verdict == HOLDS

    def as_dict(self):
        return {"tag": self.tag, "verdict": self.verdict,
                "evidence": self.evidence, "inputs": self.inputs}

    def __str__(self):
        why = self.evidence.get("why", "")
        return f"[{self.tag}] {self.verdict}" + (f": {why}" if why else "")


def _digest(payload):
    blob = repr(sorted(payload.items())).encode()
    return hashlib.sha1(blob).hexdigest()[:12]


def _inputs(sub, p=None, **extra):
    d = {"degree": int(sub.group.degree), "order": int(sub.order)}
    if p is not None:
        d["p"] = int(p)
    d.update(extra)
    d["digest"] = _digest(d)
    return d


def _betti_dict(bv):
    top = bv.top_degree()
    out = {}
    if bv.get(-1):
        out[-1] = int(bv.get(-1))
    if top is not None:
        for k in range(0, top + 1):
            out[k] = int(bv.get(k))
    return out


def _ranks_dict(ranks):
    return {int(k): int(v) for k, v in sorted(ranks.items())}


def _surjectivity(f, work_cap):
    """(not_surjective, details) for f in homology.

    A degree where the source dimension is already below the target
    dimension settles the question without chain-level work; otherwise
    the induced ranks are computed.
    """
    bettiS = betti_of_poset(f.source, work_cap=work_cap)
    bettiT = betti_of_poset(f.target, work_cap=work_cap)
    tops = [t for t in (bettiS.top_degree(), bettiT.top_degree())
            if t is not None]
    top = max(tops) if tops else -1
    details = {"source_betti": _betti_dict(bettiS),
               "target_betti": _betti_dict(bettiT)}
    for k in range(-1, top + 1):
        if bettiS.get(k) < bettiT.get(k):
            details["method"] = "dimension count"
            details["witness_degree"] = k
            return True, details
    report = induced_map(f, work_cap=work_cap)
    details["method"] = "induced ranks (cone)"
    details["ranks"] = _ranks_dict(report.ranks)
    missed = [k for k in range(-1, top + 1)
              if report.rank(k) < bettiT.get(k)]
    if missed:
        details["witness_degree"] = missed[0]
        return True, details
    return False, details


# -- conditions (A), (A'), (B), (C), (D), (E) ----------------------------------------


@dataclass
class ConditionsReport:
    """Certificates for the six gluing conditions plus their implication
    audit: (C and D and E) forces (B), (B) forces (A'), and (A') and (A)
    agree.  `consistent` is False only on an internal soundness bug."""
    certificates: dict
    consistent: bool
    trivial: bool
    notes: dict

    def __getitem__(self, tag):
        return self.certificates[tag]

    def verdicts(self):
        return {t: c.verdict for t, c in self.certificates.items()}


def _condition_C(ctx, dec):
    """Does every chain of V0 project into K0, i.e. miss some factor?

    Walks chains of V0 bottom-up keeping the set of achievable
    factor-index masks; the condition fails exactly when some chain's
    projections touch every nonempty factor.
    """
    jd = ctx.join()
    psi = ctx.psi()
    pos_of = {j: i for i, j in enumerate(jd.active)}
    full = (1 << len(jd.active)) - 1
    V0, ids = dec.V0, dec.ids_V0
    vmask = [1 << pos_of[int(jd.factor_of[psi.table[int(g)]])] for g in ids]
    dptr, dids = V0.below()
    ach = [None] * V0.n
    parent = {}
    hit = None
    for v in range(V0.n):
        masks = {vmask[v]}
        parent[(v, vmask[v])] = None
        for u in dids[dptr[v]:dptr[v + 1]].tolist():  # ascending
            for m in ach[u]:
                nm = m | vmask[v]
                if nm not in masks:
                    masks.add(nm)
                    parent[(v, nm)] = (u, m)
        ach[v] = masks
        if hit is None and full in masks:
            hit = v
            break
    active = [int(j) for j in jd.active]
    if hit is None:
        seen = sorted({m for s in ach if s for m in s})
        touched = [[active[i] for i in range(len(active)) if m >> i & 1]
                   for m in seen]
        return True, {"active_factors": active,
                      "chain_factor_sets": touched,
                      "why": "every chain of V0 misses at least one factor"}
    chain = []
    cur = (hit, full)
    while cur is not None:
        v, m = cur
        chain.append(int(ids[v]))
        cur = parent[(v, m)]
    chain.reverse()
    AH = ctx.ap_H()
    orders = np.diff(member_csr(AH)[1])
    witness = [{"id": g, "order": int(orders[g]),
                "factor": int(jd.factor_of[psi.table[g]])} for g in chain]
    return False, {"active_factors": active, "witness_chain": witness,
                   "why": "a chain of V0 projects onto every factor"}


def _condition_E(ctx):
    """(E): the inclusion K0 -> K(X) is zero in reduced homology.

    K0 is a subcomplex of K(X) and no poset's order complex, so (E) alone
    has no beat-point core to run on: its mapping cone is built on the
    full complexes, and betti_of_poset(X) supplies K(X)'s Betti vector.
    """
    cx = ctx.complexes()
    X, wc = ctx.join().X, ctx.work_cap
    rawS = RawComplex.from_simplicial(cx.K0)
    rawT = RawComplex.from_simplicial(cx.KX)
    # K0 and KX share X's vertex ids, so the inclusion is the identity
    colmaps = chain_map_from_poset_map(range(X.n), cx.K0, cx.KX)
    ranks = cone_rank_profile(rawS, rawT, colmaps, betti_of_raw(rawS, wc),
                              betti_of_poset(X, wc), wc)
    holds = not any(ranks.values())
    det = {"ranks": _ranks_dict(ranks),
           "K0_simplices": cx.K0.simplex_counts,
           "KX_simplices": cx.KX.simplex_counts,
           "why": ("inclusion of the chains missing a factor is zero in "
                   "homology" if holds else
                   "inclusion carries homology into the full join")}
    return holds, det


def check_conditions(ctx, which=None):
    """Certificates for the decomposition conditions (A) through (E).

    (A): homology of Y0 does not surject onto Y; (A'): the composite with
    the meet retraction does not surject onto the poset of H; (B): V0
    does not surject onto the poset of H; (C): chains of V0 project into
    K0; (D): the chain projection is nonzero in homology; (E): K0 is
    zero in the homology of the full join.  All require a trivial p-core
    in the ambient group.
    """
    which = tuple(which) if which else CONDITION_TAGS
    unknown = [t for t in which if t not in CONDITION_TAGS]
    if unknown:
        raise IndexOutOfRange(f"unknown condition tags: {unknown}")
    base = _inputs(ctx.G, ctx.p, t=ctx.t, kernel_order=int(ctx.H.order))
    op = p_core(ctx.G, ctx.p)
    if op.order > 1:
        ev = {"precondition": "trivial p-core", "op_order": int(op.order),
              "why": "ambient group has a nontrivial p-core"}
        certs = {t: Certificate(t, INAPPLICABLE, dict(ev), base)
                 for t in which}
        return ConditionsReport(certs, True, False,
                                {"op_order": int(op.order)})

    dec = decomposition(ctx)
    notes = {"trivial_decomposition": dec.trivial,
             "sizes": {"B": dec.B.n, "Y": dec.Y.n, "Z": dec.Z.n,
                       "Y0": dec.Y0.n, "V0": dec.V0.n}}
    certs = {}

    def surj_cert(tag, f, what):
        ns, det = _surjectivity(f, ctx.work_cap)
        det["why"] = (f"{what} is not surjective in homology"
                      if ns else f"{what} is surjective in homology")
        certs[tag] = Certificate(tag, HOLDS if ns else FAILS, det, base)

    if "A" in which:
        surj_cert("A", dec.a, "inclusion of Y0 into Y")
    if "A'" in which:
        surj_cert("A'", dec.b.compose(dec.r0),
                  "Y0 followed by the meet retraction")
    if "B" in which:
        surj_cert("B", dec.b, "inclusion of V0")
    if "C" in which:
        ok, det = _condition_C(ctx, dec)
        certs["C"] = Certificate("C", HOLDS if ok else FAILS, det, base)
    if "D" in which:
        rep = induced_map(ctx.psi(), ctx.work_cap)
        nz = rep.nonzero()
        det = {"ranks": _ranks_dict(rep.ranks),
               "source_betti": _betti_dict(rep.source_betti),
               "target_betti": _betti_dict(rep.target_betti),
               "why": ("chain projection nonzero in homology" if nz
                       else "chain projection is zero in homology")}
        certs["D"] = Certificate("D", HOLDS if nz else FAILS, det, base)
    if "E" in which:
        ok, det = _condition_E(ctx)
        certs["E"] = Certificate("E", HOLDS if ok else FAILS, det, base)

    audits = []
    if "A" in certs and "A'" in certs:
        audits.append(certs["A"].holds == certs["A'"].holds)
    if "B" in certs and "A'" in certs and certs["B"].holds:
        audits.append(certs["A'"].holds)
    if all(t in certs for t in "BCDE") and \
            all(certs[t].holds for t in "CDE"):
        audits.append(certs["B"].holds)
    return ConditionsReport(certs, all(audits), dec.trivial, notes)


# -- projection and diagonal criteria -------------------------------------------------


def _restrict_ids(AH, restrict):
    if hasattr(restrict, "midx"):
        return np.flatnonzero(membership(AH, restrict).inside())
    ids = np.asarray(sorted(int(i) for i in restrict), dtype=np.int64)
    if ids.size and (ids[0] < 0 or ids[-1] >= AH.n):
        raise IndexOutOfRange("restriction ids outside the poset of H")
    return ids


def _goal_cross_check(ctx, ev):
    """When a criterion holds, recompute the conclusion it promises."""
    op = p_core(ctx.G, ctx.p)
    ev["op_order"] = int(op.order)
    if op.order == 1:
        gb = betti_of_poset(ctx.ap_G(), work_cap=ctx.work_cap)
        ev["goal_betti"] = _betti_dict(gb)
        if gb.is_zero():
            raise InvariantViolated(
                "criterion held but the ambient poset is acyclic")
    else:
        ev["goal"] = "conclusion vacuous (nontrivial p-core)"


def check_thm41(ctx, restrict=None):
    """Nonzero chain projection criterion.

    Verdict on whether the projection from the p-subgroup poset of H to
    the join of the chain factors, optionally restricted to a subposet
    (a Subgroup restricts to the members it contains, an id list to
    those ids), induces a nonzero map in reduced homology.  When it
    holds, the promised conclusion (nonzero homology of the ambient
    poset) is recomputed and asserted.  Past the precondition, whatever
    the verdict, each projection psi_i up the chain is checked to extend
    psi_{i-1}.
    """
    inputs = _inputs(ctx.G, ctx.p, t=ctx.t)
    if not ctx.p_divides_component:
        return Certificate("thm41", INAPPLICABLE, {
            "precondition": "p divides the component order",
            "component_order": int(ctx.orbit[0].order),
            "why": "component order is coprime to p"}, inputs)
    # the tower: psi_i restricted to the poset of C_{i-1} is psi_{i-1},
    # and W[i-1] is a prefix of W[i], so the images compare by id
    for i in range(1, ctx.t + 1):
        below = subgroup_ids(ctx.ap_C(i), *member_csr(ctx.ap_C(i - 1))[1:])
        if (ctx.psi(i - 1).table != ctx.psi(i).table[below]).any():
            raise InvariantViolated(
                "projection does not commute with inclusion")
    psi = ctx.psi()
    if restrict is None:
        report = induced_map(psi, ctx.work_cap)
        size = psi.source.n
        label = "full"
    else:
        ids = _restrict_ids(psi.source, restrict)
        sub, inc = psi.source.induced(ids)
        fmap = PosetMap(sub, psi.target, psi.table[inc])
        report = induced_map(fmap, work_cap=ctx.work_cap)
        size = sub.n
        label = "restricted"
    holds = report.nonzero()
    ev = {"ranks": _ranks_dict(report.ranks),
          "source_betti": _betti_dict(report.source_betti),
          "target_betti": _betti_dict(report.target_betti),
          "subposet": label, "subposet_size": int(size)}
    if holds:
        wd = min(k for k, r in report.ranks.items() if r)
        ev["witness_degree"] = int(wd)
        ev["why"] = f"chain projection nonzero in homology (degree {wd})"
        _goal_cross_check(ctx, ev)
    else:
        ev["why"] = "chain projection is zero in homology"
    return Certificate("thm41", HOLDS if holds else FAILS, ev, inputs)


def check_thm410(ctx, variant="formal"):
    """Diagonal non-surjectivity criterion.

    Verdict on whether the inclusion of the diagonal poset into the
    p-subgroup poset of H fails to be surjective in some homology
    degree.  `variant` picks the diagonal model: "formal" keeps the
    members whose meets with two component centralizers coincide,
    "off-component" the members inside no single component.  When it
    holds, the promised conclusion is recomputed and asserted.
    """
    inputs = _inputs(ctx.G, ctx.p, t=ctx.t, variant=variant)
    if not ctx.p_divides_component:
        return Certificate("thm410", INAPPLICABLE, {
            "precondition": "p divides the component order",
            "component_order": int(ctx.orbit[0].order),
            "why": "component order is coprime to p"}, inputs)
    if variant not in DIAGONALS:
        raise VariantUnavailable(f"unknown diagonal variant {variant!r}")
    D, dmap, _ = DIAGONALS[variant](ctx)
    AH = ctx.ap_H()
    ev = {"diagonal_size": D.n, "poset_size": AH.n, "variant": variant}
    if D.n == AH.n:
        bAH = betti_of_poset(AH, work_cap=ctx.work_cap)
        ev["target_betti"] = _betti_dict(bAH)
        ev["why"] = "diagonal poset is the whole poset; inclusion is the identity"
        return Certificate("thm410", FAILS, ev, inputs)
    ns, det = _surjectivity(dmap, ctx.work_cap)
    ev.update(det)
    if ns:
        ev["why"] = (f"diagonal inclusion misses homology in degree "
                     f"{ev['witness_degree']}")
        _goal_cross_check(ctx, ev)
    else:
        ev["why"] = "diagonal inclusion is surjective in homology"
    return Certificate("thm410", HOLDS if ns else FAILS, ev, inputs)


# -- per-component criteria ------------------------------------------------------------


COR51_VARIANTS = ("factor", "image-H", "image-G", "aut-H", "aut-G")


def _cor51_component_map(ctx, i, variant):
    """The map from the p-subgroup poset of L_i into the chosen target."""
    L = ctx.orbit[i - 1]
    p = ctx.p
    if variant == "factor":
        return ctx.factor(i).embedded, "chain factor"
    if variant == "image-H":
        return image_poset(ctx.H, L, p, cap=ctx.cap).embedded, \
            "image poset over the kernel"
    if variant == "image-G":
        return image_poset(ctx.G, L, p, cap=ctx.cap).embedded, \
            "image poset over the ambient group"
    if variant in ("aut-H", "aut-G"):
        actor = ctx.H if variant == "aut-H" else normalizer(ctx.G, L)
        act = conjugation_action(actor, L)
        target = ap_poset(act.image.full(), p, cap=ctx.cap)
        source = ap_poset(L, p, cap=ctx.cap)
        f = PosetMap(source, target,
                     subgroup_ids(target, *act.project_family(source)))
        return f, "p-subgroup poset of the induced automorphisms"
    raise VariantUnavailable(f"unknown variant {variant!r}; "
                             f"choose from {COR51_VARIANTS}")


def check_cor51(ctx, variant="factor"):
    """Per-component nonzero-map criterion.

    For each component, the p-subgroup poset of L_i must map nonzero in
    homology into the chosen target poset (default: the chain factor).
    The inductive hypotheses on proper subgroups and quotients are
    user-asserted, recorded, and never verified here.
    """
    inputs = _inputs(ctx.G, ctx.p, t=ctx.t, variant=variant)
    per = []
    all_nonzero = True
    for i in range(1, ctx.t + 1):
        f, what = _cor51_component_map(ctx, i, variant)
        rep = induced_map(f, work_cap=ctx.work_cap)
        nz = rep.nonzero()
        all_nonzero = all_nonzero and nz
        per.append({"component": i,
                    "component_order": int(ctx.orbit[i - 1].order),
                    "target": what, "target_size": int(f.target.n),
                    "ranks": _ranks_dict(rep.ranks), "nonzero": nz})
    ev = {"components": per,
          "assumed": "inductive hypotheses on proper subgroups and "
                     "quotients are user-asserted, not verified",
          "why": ("every component maps nonzero into its target"
                  if all_nonzero else
                  "some component maps to zero in homology")}
    return Certificate("cor51", HOLDS if all_nonzero else FAILS, ev, inputs)


def check_cor52(ctx, F):
    """Separated-overgroup criterion.

    F lists one overgroup per component.  Clause (i): L_i lies in F_i,
    F_i normalizes L_i, F_i commutes with the centralizer of L_i, and
    their intersection has order prime to p.  Clause (ii): F_i times
    that centralizer carries the same elementary abelian p-subgroups as
    the full normalizer.  Clause (iii): the F_i commute pairwise.
    """
    if len(F) != ctx.t:
        raise WrongArity(f"need {ctx.t} overgroups, got {len(F)}")
    G = ctx.G.group
    p = ctx.p
    inputs = _inputs(ctx.G, p, t=ctx.t)
    per = []
    ok = True
    for i, (L, Fi) in enumerate(zip(ctx.orbit, F), start=1):
        require_contained(ctx.G, Fi)
        NL = normalizer(ctx.G, L)
        CL = centralizer(ctx.G, L)
        contained = L.is_subset_of(Fi) and Fi.is_subset_of(NL)
        commutes = gens_commute(G, Fi.generating_set(), CL.generating_set())
        inter = Fi.intersection(CL)
        pprime = inter.order % p != 0
        prod = subgroup_product(Fi, CL)
        same = same_members(ap_poset(NL, p, cap=ctx.cap),
                            ap_poset(prod, p, cap=ctx.cap))
        clause_i = contained and commutes and pprime
        ok = ok and clause_i and same
        per.append({"component": i, "F_order": int(Fi.order),
                    "normalizer_order": int(NL.order),
                    "centralizer_order": int(CL.order),
                    "intersection_order": int(inter.order),
                    "clause_i": clause_i, "clause_ii": same})
    pairwise = all(gens_commute(G, F[i].generating_set(),
                                F[j].generating_set())
                   for i in range(ctx.t) for j in range(i + 1, ctx.t))
    ok = ok and pairwise
    ev = {"components": per, "clause_iii_pairwise_commuting": pairwise,
          "why": ("all three separation clauses hold" if ok
                  else "a separation clause fails")}
    return Certificate("cor52", HOLDS if ok else FAILS, ev, inputs)


def check_propEM(ctx, n):
    """Epi/mono descent criteria at degree n.

    Route M: the poset of H has homology in degree n and every chain
    step phi_i is injective in homology through degree n - t + i.
    Route E: the join has homology in degree n and every phi_i is
    surjective through n - t + i.  Either route forces the full chain
    projection to be nonzero in degree n, which is recomputed directly
    and asserted.  Whatever the verdicts, the chain steps are checked to
    compose to the projection.  Returns {"M": ..., "E": ...}.
    """
    if n < 0:
        raise IndexOutOfRange(f"degree {n} must be nonnegative")
    inputs = _inputs(ctx.G, ctx.p, t=ctx.t, n=int(n))
    # psi_t is the composite Phi_{1,t} o ... o Phi_{t,t} on the first
    # block of T(t, t), the poset of C_t in its own order
    if ctx.t:
        psi = ctx.psi()
        comp = ctx.phi_step(ctx.t)
        for k in range(ctx.t - 1, 0, -1):
            comp = ctx.phi_step(k, ctx.t).compose(comp)
        if comp.target is not psi.target:
            raise InvariantViolated("transfer maps end outside the join")
        if (comp.table[:psi.source.n] != psi.table).any():
            raise InvariantViolated(
                "transfer maps do not compose to the projection")
    bAH = betti_of_poset(ctx.ap_H(), work_cap=ctx.work_cap)
    bX = betti_of_poset(ctx.join().X, work_cap=ctx.work_cap)
    steps = []
    for i in range(1, ctx.t + 1):
        rep = induced_map(ctx.phi_step(i), ctx.work_cap)
        th = n - ctx.t + i
        steps.append({"i": i, "through_degree": th,
                      "ranks": _ranks_dict(rep.ranks),
                      "mono": rep.mono_through(th),
                      "epi": rep.epi_through(th)})
    out = {}
    for route, side_bv, side_name, kind in (
            ("M", bAH, "poset of H", "mono"),
            ("E", bX, "join of the factors", "epi")):
        tag = f"PropEM-{route}({n})"
        side = side_bv.get(n)
        ev = {"n": int(n), "side_dimension": int(side),
              "side_poset": side_name, "steps": steps}
        if side == 0:
            ev["precondition"] = f"degree-{n} homology of the {side_name}"
            ev["why"] = f"the {side_name} has no homology in degree {n}"
            out[route] = Certificate(tag, INAPPLICABLE, ev, inputs)
            continue
        good = all(s[kind] for s in steps)
        ev["why"] = (f"every chain step is {kind} through its degree"
                     if good else
                     f"some chain step is not {kind} through its degree")
        if good:
            rep = induced_map(ctx.psi(), ctx.work_cap)
            expect = side if route == "E" else bAH.get(n)
            ev["psi_rank_at_n"] = int(rep.rank(n))
            if rep.rank(n) != expect:
                raise InvariantViolated(
                    f"descent route {route} held but the projection rank "
                    f"at degree {n} is {rep.rank(n)}, not {expect}")
        out[route] = Certificate(tag, HOLDS if good else FAILS, ev, inputs)
    return out


# -- outer-action criterion ------------------------------------------------------------


def check_prop68(ambient, L, p, k=None, cap=DEFAULT_ENUM_CAP,
                 work_cap=DEFAULT_WORK_CAP):
    """Cyclic-outer vanishing criterion for a single component.

    Clause 1: every purely outer p-subgroup of the normalizer has order
    exactly p (or there are none).  Clause 2: for each outer E, the
    fixed-point poset of E on L maps to zero in degree-k homology of the
    poset of L.  Clause 3: the poset of L has homology in degree k.  If
    k is omitted, degrees with nonzero homology are searched in order.
    When the verdict holds and L has order at most
    PROP68_CROSS_CHECK_ORDER, the promised conclusion (the poset of L
    injects into the image poset in degree k) is recomputed directly.
    Every poset enumeration is bounded by cap.
    """
    if k is not None and k < 0:
        raise IndexOutOfRange(f"degree {k} must be nonnegative")
    ambient = as_subgroup(ambient)
    L = as_subgroup(L)
    p = _check_prime(p)
    inputs = _inputs(ambient, p, component_order=int(L.order))
    op = p_outer_poset(ambient, L, p, cap=cap)
    n_outers = op.poset.n
    clause1 = (not n_outers) or op.cyclic_only
    apL = ap_poset(L, p, cap=cap)
    bL = betti_of_poset(apL, work_cap=work_cap)
    top = bL.top_degree()
    if k is not None:
        candidates = [int(k)]
    else:
        candidates = [d for d in range(0, (top if top is not None else -1) + 1)
                      if bL.get(d)]
    classes = []
    if n_outers:
        for orb in subgroup_orbits(op.host, op.poset):
            E = op.poset.elements[orb[0]]
            CE = centralizer(L, E)
            classes.append({"outer_order": int(E.order), "size": len(orb),
                            "centralizer_order": int(CE.order),
                            "sub": CE, "rep": None})
    ev = {"outer_count": n_outers, "outer_classes": len(classes),
          "cyclic_only": bool(op.cyclic_only) if n_outers else None,
          "poset_betti": _betti_dict(bL), "searched_degrees": candidates}
    if not clause1:
        ev["why"] = "an outer p-subgroup has order above p"
        return Certificate("prop68", FAILS, ev, inputs)
    chosen = None
    for kk in candidates:
        if bL.get(kk) == 0:
            continue
        good = True
        for c in classes:
            apCE = ap_poset(c["sub"], p, cap=cap)
            bCE = betti_of_poset(apCE, work_cap=work_cap)
            if bCE.get(kk) == 0:
                c.setdefault("zero_at", []).append(kk)
                continue
            if c["rep"] is None:
                inc = subgroup_ids(apL, *member_csr(apCE)[1:])
                c["rep"] = induced_map(PosetMap(apCE, apL, inc),
                                       work_cap=work_cap)
            if c["rep"].rank(kk) != 0:
                good = False
                break
        if good:
            chosen = kk
            break
    ev["classes"] = [{kk: vv for kk, vv in c.items()
                      if kk in ("outer_order", "size", "centralizer_order")}
                     | {"map_ranks": _ranks_dict(c["rep"].ranks) if c["rep"]
                        else "zero by dimension"}
                     for c in classes]
    if chosen is None:
        ev["why"] = ("the poset of L has no homology in a searched degree"
                     if not any(bL.get(kk) for kk in candidates) else
                     "some fixed-point poset maps nonzero in every "
                     "searched degree")
        return Certificate("prop68", FAILS, ev, inputs)
    ev["k"] = int(chosen)
    ev["why"] = (f"outers are cyclic and every fixed-point poset dies in "
                 f"degree {chosen}")
    if L.order <= PROP68_CROSS_CHECK_ORDER:
        ip = image_poset(ambient, L, p, cap=cap)
        rep = induced_map(ip.embedded, work_cap=work_cap)
        mono = rep.rank(chosen) == bL.get(chosen)
        ev["embedding_rank_at_k"] = int(rep.rank(chosen))
        if not mono:
            raise InvariantViolated("criterion held but the image-poset "
                                    "embedding is not injective at the "
                                    "chosen degree")
    else:
        ev["embedding_rank_at_k"] = "skipped (component above cross-check cap)"
    return Certificate("prop68", HOLDS, ev, inputs)


# -- counting certificates -------------------------------------------------------------


def robinson_certificate(Y, S, q, tables=None):
    """Fixed-point Euler residue certificate.

    S must be q-hyperelementary.  If it acts on an acyclic poset, the
    reduced Euler characteristic of its fixed subposet vanishes mod q;
    a nonzero residue therefore certifies nonzero homology of Y.  When
    `tables` is omitted the action is conjugation on subgroup labels.
    """
    S = as_subgroup(S)
    q = _check_prime(q)
    ok, hev = hyperelementary_check(S, q)
    if not ok:
        raise NotHyperelementary(
            f"acting group is not {q}-hyperelementary: {hev}")
    if tables is None:
        tables = conj_action_tables(Y, S)
    fixed, _ = fixed_subposet(Y, tables)
    chi = fixed.reduced_euler()
    residue = chi % q
    holds = residue != 0
    ev = {"fixed_points": fixed.n, "fixed_chi": int(chi),
          "residue": int(residue), "q": int(q),
          "acting_group": dict(hev),
          "why": (f"residue {residue} mod {q} certifies nonzero homology"
                  if holds else
                  f"residue 0 mod {q}; no conclusion")}
    return Certificate("robinson", HOLDS if holds else FAILS, ev,
                       _inputs(S, q, poset_size=int(Y.n)))


@dataclass
class EulerFormulaReport:
    """Closed-form alternating sum over the poset members versus the
    chain-count Euler characteristic of its order complex."""
    formula_sum: int
    complex_chi: int
    match: bool
    rank_counts: dict

    def __str__(self):
        rel = "==" if self.match else "!="
        return f"formula {self.formula_sum} {rel} complex {self.complex_chi}"


def euler_formula(sub, p, cap=DEFAULT_ENUM_CAP):
    """Both sides of the closed-form reduced Euler characteristic.

    Each member of rank m contributes (-1)^(m-1) p^(m(m-1)/2), the
    identity contributes -1; the total must equal the reduced Euler
    characteristic of the order complex, which is counted independently
    from the chain numbers.  The members of each rank are counted off the
    family's block of that order, with no Subgroup built.
    """
    sub = as_subgroup(sub)
    p = _check_prime(p)
    P = ap_poset(sub, p, cap=cap)
    total = -1
    rank_counts = {}
    for members, _, _ in P.elements.blocks:
        m = rank_of_order(members.shape[1], p)
        rank_counts[m] = len(members)
        total += len(members) * (-1) ** (m - 1) * p ** (m * (m - 1) // 2)
    chi = P.reduced_euler()
    return EulerFormulaReport(formula_sum=int(total), complex_chi=int(chi),
                              match=total == chi, rank_counts=rank_counts)


def hqc_witness(sub, p, cap=DEFAULT_ENUM_CAP, work_cap=DEFAULT_WORK_CAP):
    """Direct nonzero-homology witness for the p-subgroup poset.

    With a nontrivial p-core the nonvanishing statement is void and the
    poset is verified acyclic instead; otherwise the full reduced Betti
    vector decides the verdict.  The poset enumeration is bounded by cap.
    """
    sub = as_subgroup(sub)
    p = _check_prime(p)
    inputs = _inputs(sub, p)
    op = p_core(sub, p)
    b = betti_of_poset(ap_poset(sub, p, cap=cap), work_cap=work_cap)
    if op.order > 1:
        if not b.is_zero():
            raise InvariantViolated(
                "nontrivial p-core must give an acyclic p-subgroup poset")
        ev = {"op_order": int(op.order), "betti": _betti_dict(b),
              "why": "hypothesis void (nontrivial p-core); "
                     "poset verified acyclic"}
        return Certificate("hqc", INAPPLICABLE, ev, inputs)
    nz = not b.is_zero()
    ev = {"op_order": 1, "betti": _betti_dict(b),
          "nonzero_degrees": b.nonzero_degrees(),
          "why": ("reduced homology is nonzero" if nz else
                  "reduced homology vanishes")}
    return Certificate("hqc", HOLDS if nz else FAILS, ev, inputs)
