"""The benchmark's workloads: fixed question lists with pinned answers.

Each workload is a list of questions asked in order in one fresh process.
A question is (id, thunk, pinned answer); the thunk calls the public
``quillen`` API by attribute lookup on the package at call time, the way
``qg`` does, so the traced run's wrappers are what it reaches.  Answers
are plain JSON values, and every pinned one is invariant under the seeded
relabeling of the groups.

Why these three:

* ``betti-ladder`` runs the poset, core, complex and rank pipeline over
  groups of different shapes (l34's poset collapses to a small core,
  sym8's and Alt(9)'s cores stay large) and never touches OrbitContext.
* ``worked-certificates`` is the README's worked example as one chain of
  certificate questions sharing an OrbitContext: component detection,
  normal subgroups and the decomposition dominate, and homology is used
  through mapping cones rather than boundary ranks.
* ``radical-sym8`` is dominated by element lookup (normalizers and
  subgroup closure) and spends under 1 % in homology, so a homology
  change should leave it unchanged.
"""

import quillen

GROUPS = {
    "betti-ladder": ["alt8", "l34", "sym8", "a5xa5-exr", "alt9"],
    "worked-certificates": ["a5xa5-exr"],
    "radical-sym8": ["sym8"],
}

# Cold passes per run at the least.  radical-sym8 is almost all hash
# lookups, whose speed varies most with the load other tenants put on the
# host; the median of two passes keeps its run-to-run spread within bound.
MIN_PASSES = {"betti-ladder": 1, "worked-certificates": 1, "radical-sym8": 2}

# group -> (poset size, reduced Betti vector without trailing zeros)
LADDER = {
    "alt8": (2655, [0, 0, 64]),
    "l34": (2352, [0, 64]),
    "sym8": (12238, [0, 0, 512]),
    "a5xa5-exr": (4785, [0, 0, 2304]),
    "alt9": (19359, [0, 0, 5120]),
}


def _betti(P):
    tilde = list(quillen.betti_of_poset(P).tilde)
    while tilde and tilde[-1] == 0:
        tilde.pop()
    return tilde


def _betti_ladder(groups):
    posets = {}

    def poset(name):
        posets[name] = quillen.ap_poset(groups[name], 2)
        return posets[name].n

    out = []
    for name, (size, betti) in LADDER.items():
        out.append((f"{name}.ap_poset", lambda n=name: poset(n), size))
        out.append((f"{name}.betti", lambda n=name: _betti(posets[n]), betti))
    return out


def _worked_certificates(groups):
    st = {}

    def context():
        st["ctx"] = ctx = quillen.OrbitContext(groups["a5xa5-exr"], 2)
        return {"H": ctx.H.order, "t": ctx.t}

    def prop_em():
        return {route: c.verdict
                for route, c in quillen.check_propEM(st["ctx"], 2).items()}

    return [
        ("orbit_context", context, {"H": 7200, "t": 2}),
        ("conditions", lambda: quillen.check_conditions(st["ctx"]).verdicts(),
         dict.fromkeys(["A", "A'", "B", "C", "D", "E"], "holds")),
        ("thm41", lambda: quillen.check_thm41(st["ctx"]).verdict, "holds"),
        ("thm410.formal",
         lambda: quillen.check_thm410(st["ctx"], variant="formal").verdict,
         "holds"),
        ("thm410.off-component",
         lambda: quillen.check_thm410(st["ctx"], variant="off-component").verdict,
         "holds"),
        # route M fails on this example: one chain step is not injective
        ("propEM.2", prop_em, {"M": "fails", "E": "holds"}),
    ]


def _radical_sym8(groups):
    st = {}

    def bouc():
        st["P"] = quillen.bouc_poset(groups["sym8"], 2)
        return st["P"].n

    return [
        ("bouc_poset", bouc, 933),
        ("reduced_euler", lambda: st["P"].reduced_euler(), 512),
        ("betti", lambda: _betti(st["P"]), [0, 0, 512]),
    ]


QUESTIONS = {
    "betti-ladder": _betti_ladder,
    "worked-certificates": _worked_certificates,
    "radical-sym8": _radical_sym8,
}
