"""Command-line front end.

One subcommand per question: poset summaries (ap, bouc, image-poset,
outers, diagonal), homology (betti, euler, euler-formula, hqc), and the
certificate checkers (conditions, thm41, thm410, cor51, cor52, prop-em,
prop68, robinson).  `reproduce-paper` runs the acceptance suite.

Reports are deterministic: identical configs produce byte-identical
output.  Text format is human-oriented; structured format is a stable
JSON schema (qg/1).
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

from .errors import QuillenError
from .groups import (DEFAULT_ORDER_CAP, _check_prime, detect_components,
                     sylow_subgroup)
from .gspec import BUNDLED, load_group
from .homology import DEFAULT_WORK_CAP, betti_of_poset
from .perms import parse_cycles
from .pposets import (DEFAULT_ENUM_CAP, OrbitContext, ap_poset, bouc_poset,
                      diagonal_poset, image_poset, off_component_subposet,
                      outers_in_image, p_outer_poset)
from . import checkers

SCHEMA = "qg/1"

COMMANDS = ("betti", "euler", "euler-formula", "ap", "bouc", "image-poset",
            "outers", "diagonal", "conditions", "thm41", "thm410", "cor51",
            "cor52", "prop-em", "prop68", "robinson", "hqc",
            "reproduce-paper")


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from flags."""
    command: str
    group: str = ""
    p: int = 2
    components: list = field(default_factory=list)  # declared generator lists
    component_order: list = None       # permutation of 0..t-1 within the orbit
    orbit_index: int = 0
    order_cap: int = DEFAULT_ORDER_CAP
    enum_cap: int = DEFAULT_ENUM_CAP
    work_cap: int = DEFAULT_WORK_CAP
    output: str = None
    format: str = "text"
    # per-command extras
    component: int = 1
    variant: str = None
    which: str = None
    n: int = None
    k: int = None
    q: int = None
    f_groups: list = field(default_factory=list)

    def __post_init__(self):
        for name in ("order_cap", "enum_cap", "work_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.command != "reproduce-paper":
            _check_prime(self.p)


# -- shared loading -----------------------------------------------------------------


def _load(cfg):
    bundle = load_group(cfg.group, order_cap=cfg.order_cap)
    G = bundle.group.full()
    return bundle, G


def _declared_components(cfg, bundle):
    """Component subgroups: --component-gens beats the spec file's list."""
    if cfg.components:
        out = []
        for gens in cfg.components:
            rows = [parse_cycles(w, bundle.group.degree) for w in gens]
            out.append(bundle.group.subgroup_from_rows(rows))
        return out
    return bundle.components or None


def _context(cfg, bundle, G):
    return OrbitContext(G, cfg.p,
                        components=_declared_components(cfg, bundle),
                        orbit_index=cfg.orbit_index,
                        order=cfg.component_order,
                        cap=cfg.enum_cap, work_cap=cfg.work_cap)


def _pick_component(cfg, bundle, G):
    """The --component-th component by (order, key), declared ones
    checked quasisimple as every OrbitContext command checks them."""
    comps, _ = detect_components(
        G, declared=_declared_components(cfg, bundle))
    if not 1 <= cfg.component <= len(comps):
        raise QuillenError(
            f"--component {cfg.component} out of 1..{len(comps)}")
    return comps[cfg.component - 1]


def _betti_dict(bv):
    out = {str(k): int(bv.get(k)) for k in range(len(bv.tilde))}
    if bv.minus1:
        out["-1"] = int(bv.minus1)
    return out


def _betti_lines(bv):
    lines = [f"b~{k} = {bv.get(k)}" for k in range(len(bv.tilde))]
    if bv.minus1:
        lines.insert(0, f"b~-1 = {bv.minus1}")
    lines.append(f"chi~ = {bv.chi}")
    return lines


def _group_header(bundle, G, p=None):
    name = bundle.spec.name or "(unnamed)"
    line = f"group {name} (order {G.order}, degree {G.group.degree})"
    if p is not None:
        line += f", p = {p}"
    return line


def _cert_result(cert):
    return cert.as_dict()


def _cert_lines(cert):
    lines = [str(cert)]
    for k in sorted(cert.evidence):
        if k == "why":
            continue
        lines.append(f"  {k}: {cert.evidence[k]}")
    return lines


# -- subcommand handlers --------------------------------------------------------------
# Each returns (result_dict, text_lines).  Raising QuillenError (or OSError,
# ValueError) means "no verdict", reported on stderr with a nonzero exit.


def cmd_betti(cfg):
    bundle, G = _load(cfg)
    P = ap_poset(G, cfg.p, cap=cfg.enum_cap)
    bv = betti_of_poset(P, work_cap=cfg.work_cap)
    result = {"poset_size": P.n, "betti": _betti_dict(bv), "chi": bv.chi}
    lines = [_group_header(bundle, G, cfg.p), f"poset size {P.n}"]
    lines += _betti_lines(bv)
    return result, lines


def cmd_euler(cfg):
    bundle, G = _load(cfg)
    P = ap_poset(G, cfg.p, cap=cfg.enum_cap)
    chi = P.reduced_euler()
    result = {"poset_size": P.n, "chi": chi}
    lines = [_group_header(bundle, G, cfg.p),
             f"poset size {P.n}", f"chi~ = {chi}"]
    return result, lines


def cmd_euler_formula(cfg):
    bundle, G = _load(cfg)
    rep = checkers.euler_formula(G, cfg.p, cap=cfg.enum_cap)
    result = {"formula": rep.formula_sum, "complex": rep.complex_chi,
              "match": rep.match,
              "rank_counts": {str(m): c for m, c in sorted(rep.rank_counts.items())}}
    lines = [_group_header(bundle, G, cfg.p), str(rep)]
    for m, c in sorted(rep.rank_counts.items()):
        lines.append(f"  rank {m}: {c} members")
    return result, lines


def cmd_ap(cfg):
    bundle, G = _load(cfg)
    P = ap_poset(G, cfg.p, cap=cfg.enum_cap)
    counts = checkers.euler_formula(G, cfg.p, cap=cfg.enum_cap).rank_counts
    result = {"size": P.n, "height": P.height(),
              "rank_counts": {str(m): c for m, c in sorted(counts.items())},
              "chi": P.reduced_euler()}
    lines = [_group_header(bundle, G, cfg.p),
             f"size {P.n}, height {P.height()}, chi~ = {result['chi']}"]
    for m, c in sorted(counts.items()):
        lines.append(f"  order p^{m}: {c}")
    return result, lines


def cmd_bouc(cfg):
    bundle, G = _load(cfg)
    B = bouc_poset(G, cfg.p)
    bv = betti_of_poset(B, work_cap=cfg.work_cap)
    result = {"size": B.n, "dimension": B.height(),
              "chi": B.reduced_euler(), "betti": _betti_dict(bv)}
    lines = [_group_header(bundle, G, cfg.p),
             f"size {B.n}, complex dimension {B.height()}, "
             f"chi~ = {result['chi']}"]
    lines += _betti_lines(bv)
    return result, lines


def cmd_image_poset(cfg):
    bundle, G = _load(cfg)
    L = _pick_component(cfg, bundle, G)
    ip = image_poset(G, L, cfg.p, cap=cfg.enum_cap)
    bv = betti_of_poset(ip.poset, work_cap=cfg.work_cap)
    outer_ids, inn = outers_in_image(ip)
    result = {"component_order": L.order, "size": ip.poset.n,
              "betti": _betti_dict(bv), "outer_members": len(outer_ids),
              "inner_order": inn.order}
    lines = [_group_header(bundle, G, cfg.p),
             f"component order {L.order}",
             f"image poset size {ip.poset.n}, "
             f"{len(outer_ids)} members meeting the inner subgroup trivially"]
    lines += _betti_lines(bv)
    return result, lines


def cmd_outers(cfg):
    bundle, G = _load(cfg)
    L = _pick_component(cfg, bundle, G)
    op = p_outer_poset(G, L, cfg.p, cap=cfg.enum_cap)
    orders = {M.shape[1]: len(M) for M, _, _ in op.poset.elements.blocks}
    result = {"component_order": L.order, "size": op.poset.n,
              "cyclic_only": op.cyclic_only,
              "orders": {str(o): c for o, c in sorted(orders.items())}}
    lines = [_group_header(bundle, G, cfg.p),
             f"component order {L.order}",
             f"{op.poset.n} purely outer members, "
             f"cyclic only: {'yes' if op.cyclic_only else 'no'}"]
    for o, c in sorted(orders.items()):
        lines.append(f"  order {o}: {c}")
    return result, lines


def cmd_diagonal(cfg):
    bundle, G = _load(cfg)
    ctx = _context(cfg, bundle, G)
    variant = cfg.variant or "formal"
    if variant == "formal":
        D, _, _ = diagonal_poset(ctx)
    elif variant == "off-component":
        D, _, _ = off_component_subposet(ctx)
    else:
        raise QuillenError(f"unknown diagonal variant {variant!r}")
    bv = betti_of_poset(D, work_cap=cfg.work_cap)
    AH = ctx.ap_H()
    result = {"variant": variant, "H_order": ctx.H.order,
              "host_size": AH.n, "size": D.n, "betti": _betti_dict(bv)}
    lines = [_group_header(bundle, G, cfg.p),
             f"orbit kernel H has order {ctx.H.order}, poset size {AH.n}",
             f"{variant} diagonal subposet: size {D.n}"]
    lines += _betti_lines(bv)
    return result, lines


def cmd_conditions(cfg):
    bundle, G = _load(cfg)
    ctx = _context(cfg, bundle, G)
    which = None
    if cfg.which:
        which = [w.strip() for w in cfg.which.split(",") if w.strip()]
    rep = checkers.check_conditions(ctx, which=which)
    result = {"verdicts": rep.verdicts(), "consistent": rep.consistent,
              "trivial": rep.trivial, "notes": rep.notes,
              "certificates": {t: c.as_dict()
                               for t, c in rep.certificates.items()}}
    lines = [_group_header(bundle, G, cfg.p)]
    for tag in checkers.CONDITION_TAGS:
        if tag in rep.certificates:
            lines.append(str(rep.certificates[tag]))
    lines.append(f"consistent: {'yes' if rep.consistent else 'NO'}")
    for key in sorted(rep.notes):
        lines.append(f"note {key}: {rep.notes[key]}")
    return result, lines


def cmd_thm41(cfg):
    bundle, G = _load(cfg)
    ctx = _context(cfg, bundle, G)
    cert = checkers.check_thm41(ctx)
    return _cert_result(cert), [_group_header(bundle, G, cfg.p)] + _cert_lines(cert)


def cmd_thm410(cfg):
    bundle, G = _load(cfg)
    ctx = _context(cfg, bundle, G)
    cert = checkers.check_thm410(ctx, variant=cfg.variant or "formal")
    return _cert_result(cert), [_group_header(bundle, G, cfg.p)] + _cert_lines(cert)


def cmd_cor51(cfg):
    bundle, G = _load(cfg)
    ctx = _context(cfg, bundle, G)
    cert = checkers.check_cor51(ctx, variant=cfg.variant or "factor")
    return _cert_result(cert), [_group_header(bundle, G, cfg.p)] + _cert_lines(cert)


def cmd_cor52(cfg):
    bundle, G = _load(cfg)
    ctx = _context(cfg, bundle, G)
    if not cfg.f_groups:
        raise QuillenError("cor52 needs --f (one per component, generators "
                           "separated by ';')")
    F = []
    for spec in cfg.f_groups:
        rows = [parse_cycles(w.strip(), bundle.group.degree)
                for w in spec.split(";") if w.strip()]
        F.append(bundle.group.subgroup_from_rows(rows))
    cert = checkers.check_cor52(ctx, F)
    return _cert_result(cert), [_group_header(bundle, G, cfg.p)] + _cert_lines(cert)


def cmd_prop_em(cfg):
    bundle, G = _load(cfg)
    ctx = _context(cfg, bundle, G)
    if cfg.n is None:
        raise QuillenError("prop-em needs --n (homology degree)")
    certs = checkers.check_propEM(ctx, cfg.n)
    result = {route: c.as_dict() for route, c in certs.items()}
    lines = [_group_header(bundle, G, cfg.p)]
    for route in ("M", "E"):
        lines += _cert_lines(certs[route])
    return result, lines


def cmd_prop68(cfg):
    bundle, G = _load(cfg)
    L = _pick_component(cfg, bundle, G)
    cert = checkers.check_prop68(G, L, cfg.p, k=cfg.k, cap=cfg.enum_cap,
                                 work_cap=cfg.work_cap)
    return _cert_result(cert), [_group_header(bundle, G, cfg.p)] + _cert_lines(cert)


def cmd_robinson(cfg):
    bundle, G = _load(cfg)
    if cfg.q is None:
        raise QuillenError("robinson needs --q (the hyperelementary prime)")
    Y = ap_poset(G, cfg.p, cap=cfg.enum_cap)
    S = sylow_subgroup(G, cfg.q)
    cert = checkers.robinson_certificate(Y, S, cfg.q)
    return _cert_result(cert), [_group_header(bundle, G, cfg.p)] + _cert_lines(cert)


def cmd_hqc(cfg):
    bundle, G = _load(cfg)
    cert = checkers.hqc_witness(G, cfg.p, cap=cfg.enum_cap,
                                work_cap=cfg.work_cap)
    return _cert_result(cert), [_group_header(bundle, G, cfg.p)] + _cert_lines(cert)


def cmd_reproduce_paper(cfg):
    from .acceptance import run_all
    ok, lines, timed_lines = run_all()
    return {"all_pass": ok, "lines": lines}, timed_lines


HANDLERS = {
    "betti": cmd_betti, "euler": cmd_euler, "euler-formula": cmd_euler_formula,
    "ap": cmd_ap, "bouc": cmd_bouc, "image-poset": cmd_image_poset,
    "outers": cmd_outers, "diagonal": cmd_diagonal,
    "conditions": cmd_conditions, "thm41": cmd_thm41, "thm410": cmd_thm410,
    "cor51": cmd_cor51, "cor52": cmd_cor52, "prop-em": cmd_prop_em,
    "prop68": cmd_prop68, "robinson": cmd_robinson, "hqc": cmd_hqc,
    "reproduce-paper": cmd_reproduce_paper,
}


# -- argument parsing -----------------------------------------------------------------


def _add_common(sp, group_required=True):
    if group_required:
        sp.add_argument("--group", required=True,
                        help="group spec file, or a bundled name: "
                             + ", ".join(BUNDLED))
        sp.add_argument("--p", type=int, default=2, help="the prime (default 2)")
        sp.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP,
                        help="refuse groups larger than this")
        sp.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                        help="refuse posets with more members than this")
        sp.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP,
                        help="refuse eliminations above this work estimate")
    sp.add_argument("--output", "-o", default=None,
                    help="write the report here instead of stdout")
    sp.add_argument("--format", choices=("text", "structured"),
                    default="text", help="report format (structured = JSON)")


def _add_orbit(sp):
    sp.add_argument("--component-gens", action="append", default=[],
                    metavar="GENS",
                    help="declare one component by generators separated "
                         "by ';' (repeatable; overrides the spec file)")
    sp.add_argument("--orbit-index", type=int, default=0,
                    help="which conjugation orbit of components (default 0)")
    sp.add_argument("--component-order", default=None, metavar="I,J,...",
                    help="ordering of the components within the orbit")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qg",
        description="p-subgroup posets, exact rational homology, and "
                    "elimination-theorem certificates for finite "
                    "permutation groups.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def new(name, help_, orbit=False):
        sp = sub.add_parser(name, help=help_)
        _add_common(sp)
        if orbit:
            _add_orbit(sp)
        return sp

    new("betti", "reduced Betti numbers of the p-subgroup poset")
    new("euler", "reduced Euler characteristic via chain counts")
    new("euler-formula", "closed-form Euler characteristic vs the complex")
    new("ap", "summary of the elementary abelian p-subgroup poset")
    new("bouc", "summary and homology of the radical p-subgroup poset")

    sp = new("image-poset", "poset of images in the component automorphisms",
             orbit=True)
    sp.add_argument("--component", type=int, default=1,
                    help="which component, 1-based by (order, key)")
    sp = new("outers", "purely outer elementary abelian p-subgroups",
             orbit=True)
    sp.add_argument("--component", type=int, default=1,
                    help="which component, 1-based by (order, key)")

    sp = new("diagonal", "diagonal subposet of the orbit kernel", orbit=True)
    sp.add_argument("--variant", choices=("formal", "off-component"),
                    default="formal")

    sp = new("conditions", "decomposition conditions A, A', B, C, D, E",
             orbit=True)
    sp.add_argument("--which", default=None,
                    help="comma-separated subset, e.g. C,E (default: all)")

    new("thm41", "projection-map elimination certificate", orbit=True)
    sp = new("thm410", "diagonal-inclusion elimination certificate",
             orbit=True)
    sp.add_argument("--variant", choices=("formal", "off-component"),
                    default="formal")
    sp = new("cor51", "componentwise nonvanishing certificate", orbit=True)
    sp.add_argument("--variant", choices=checkers.COR51_VARIANTS,
                    default="factor")
    sp = new("cor52", "replacement-subgroup certificate", orbit=True)
    sp.add_argument("--f", dest="f_groups", action="append", default=[],
                    metavar="GENS",
                    help="one replacement subgroup per component, "
                         "generators separated by ';' (repeatable)")
    sp = new("prop-em", "epi/mono route certificates at a degree", orbit=True)
    sp.add_argument("--n", type=int, default=None, help="homology degree")

    sp = new("prop68", "outer-action elimination certificate")
    sp.add_argument("--component", type=int, default=1,
                    help="which component, 1-based by (order, key)")
    sp.add_argument("--component-gens", action="append", default=[],
                    metavar="GENS",
                    help="declare one component by generators separated "
                         "by ';' (repeatable; overrides the spec file)")
    sp.add_argument("--k", type=int, default=None,
                    help="homology degree to certify (default: search)")

    sp = new("robinson", "hyperelementary fixed-point certificate")
    sp.add_argument("--q", type=int, default=None,
                    help="the hyperelementary prime (acts by a Sylow "
                         "q-subgroup)")

    new("hqc", "nonzero-homology witness for the p-subgroup poset")

    sp = sub.add_parser("reproduce-paper",
                        help="run the full acceptance suite")
    _add_common(sp, group_required=False)
    return ap


def config_from_args(args):
    kw = {"command": args.command,
          "output": args.output, "format": args.format}
    if args.command != "reproduce-paper":
        kw.update(group=args.group, p=args.p, order_cap=args.order_cap,
                  enum_cap=args.enum_cap, work_cap=args.work_cap)
    comp_gens = getattr(args, "component_gens", [])
    if comp_gens:
        kw["components"] = [[w.strip() for w in spec.split(";") if w.strip()]
                            for spec in comp_gens]
    if getattr(args, "component_order", None):
        kw["component_order"] = [int(x) for x
                                 in args.component_order.split(",")]
    for name in ("orbit_index", "component", "variant", "which", "n", "k",
                 "q", "f_groups"):
        if getattr(args, name, None) is not None:
            kw[name] = getattr(args, name)
    return RunConfig(**kw)


def run(cfg):
    """Execute one command.  Returns the exit status."""
    result, lines = HANDLERS[cfg.command](cfg)
    if cfg.format == "structured":
        inputs = {"command": cfg.command, "p": cfg.p}
        if cfg.group:
            inputs["group"] = cfg.group
        report = json.dumps({"schema": SCHEMA, "inputs": inputs,
                             "result": result},
                            sort_keys=True, indent=2) + "\n"
    else:
        report = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    if cfg.command == "reproduce-paper":
        return 0 if result["all_pass"] else 1
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except (QuillenError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
