"""Command-line front end.

One subcommand per question: poset summaries (ap, bouc, image-poset,
outers, diagonal), homology (betti, euler, euler-formula, hqc), and the
certificate checkers (conditions, thm41, thm410, cor51, cor52, prop-em,
prop68, robinson).  `reproduce-paper` runs the acceptance suite.

The parser is the one description of each subcommand's inputs: COMMANDS
gives every subcommand its help text, its handler and the flags it takes,
each flag declared once in FLAGS, and a handler reads the parsed
namespace.  A subcommand takes exactly the flags its handler reads.

Reports are deterministic: identical arguments produce byte-identical
output.  Text format is human-oriented; structured format is a stable
JSON schema (qg/1).
"""

import argparse
import json
import sys

from .errors import InvariantViolated, QuillenError
from .groups import (DEFAULT_ORDER_CAP, _check_prime, detect_components,
                     sylow_subgroup)
from .gspec import BUNDLED, load_group
from .homology import DEFAULT_WORK_CAP, betti_of_poset
from .perms import parse_cycles
from .pposets import (DEFAULT_ENUM_CAP, DIAGONALS, OrbitContext, ap_poset,
                      bouc_poset, image_poset, outers_in_image, p_outer_poset)
from . import checkers

SCHEMA = "qg/1"


# -- shared loading -----------------------------------------------------------------


def _load(args):
    bundle = load_group(args.group, order_cap=args.order_cap)
    return bundle, bundle.group.full()


def _subgroup(bundle, gens):
    """The subgroup generated by cycle words separated by ';'."""
    rows = [parse_cycles(w.strip(), bundle.group.degree)
            for w in gens.split(";") if w.strip()]
    return bundle.group.subgroup_from_rows(rows)


def _declared_components(args, bundle):
    """Component subgroups: --component-gens beats the spec file's list."""
    if args.component_gens:
        return [_subgroup(bundle, gens) for gens in args.component_gens]
    return bundle.components or None


def _context(args, bundle, G):
    return OrbitContext(G, args.p,
                        components=_declared_components(args, bundle),
                        orbit_index=args.orbit_index,
                        order=args.component_order,
                        cap=args.enum_cap, work_cap=args.work_cap)


def _pick_component(args, bundle, G):
    """The --component-th component by (order, key), declared ones
    checked quasisimple as every OrbitContext command checks them."""
    comps, _ = detect_components(
        G, declared=_declared_components(args, bundle))
    if not 1 <= args.component <= len(comps):
        raise QuillenError(
            f"--component {args.component} out of 1..{len(comps)}")
    return comps[args.component - 1]


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


def _group_header(bundle, G, p):
    name = bundle.spec.name or "(unnamed)"
    return f"group {name} (order {G.order}, degree {G.group.degree}), p = {p}"


def _cert_lines(cert):
    return [str(cert)] + [f"  {k}: {cert.evidence[k]}"
                          for k in sorted(cert.evidence) if k != "why"]


def _cert_report(bundle, G, p, cert):
    return cert.as_dict(), [_group_header(bundle, G, p)] + _cert_lines(cert)


# -- subcommand handlers --------------------------------------------------------------
# Each takes the parsed namespace and returns (result_dict, text_lines).
# Raising means "no verdict", reported on stderr by main: a failed
# self-check (InvariantViolated) exits 3, any other QuillenError, OSError
# or ValueError exits 2.


def cmd_betti(args):
    bundle, G = _load(args)
    P = ap_poset(G, args.p, cap=args.enum_cap)
    bv = betti_of_poset(P, work_cap=args.work_cap)
    result = {"poset_size": P.n, "betti": _betti_dict(bv), "chi": bv.chi}
    lines = [_group_header(bundle, G, args.p), f"poset size {P.n}"]
    return result, lines + _betti_lines(bv)


def cmd_euler(args):
    bundle, G = _load(args)
    P = ap_poset(G, args.p, cap=args.enum_cap)
    chi = P.reduced_euler()
    lines = [_group_header(bundle, G, args.p),
             f"poset size {P.n}", f"chi~ = {chi}"]
    return {"poset_size": P.n, "chi": chi}, lines


def cmd_euler_formula(args):
    bundle, G = _load(args)
    rep = checkers.euler_formula(G, args.p, cap=args.enum_cap)
    counts = sorted(rep.rank_counts.items())
    result = {"formula": rep.formula_sum, "complex": rep.complex_chi,
              "match": rep.match,
              "rank_counts": {str(m): c for m, c in counts}}
    lines = [_group_header(bundle, G, args.p), str(rep)]
    lines += [f"  rank {m}: {c} members" for m, c in counts]
    return result, lines


def cmd_ap(args):
    bundle, G = _load(args)
    P = ap_poset(G, args.p, cap=args.enum_cap)
    counts = sorted(checkers.euler_formula(
        G, args.p, cap=args.enum_cap).rank_counts.items())
    chi = P.reduced_euler()
    result = {"size": P.n, "height": P.height(),
              "rank_counts": {str(m): c for m, c in counts}, "chi": chi}
    lines = [_group_header(bundle, G, args.p),
             f"size {P.n}, height {P.height()}, chi~ = {chi}"]
    lines += [f"  order p^{m}: {c}" for m, c in counts]
    return result, lines


def cmd_bouc(args):
    bundle, G = _load(args)
    B = bouc_poset(G, args.p)
    bv = betti_of_poset(B, work_cap=args.work_cap)
    chi = B.reduced_euler()
    result = {"size": B.n, "dimension": B.height(), "chi": chi,
              "betti": _betti_dict(bv)}
    lines = [_group_header(bundle, G, args.p),
             f"size {B.n}, complex dimension {B.height()}, chi~ = {chi}"]
    return result, lines + _betti_lines(bv)


def cmd_image_poset(args):
    bundle, G = _load(args)
    L = _pick_component(args, bundle, G)
    ip = image_poset(G, L, args.p, cap=args.enum_cap)
    bv = betti_of_poset(ip.poset, work_cap=args.work_cap)
    outer_ids, inn = outers_in_image(ip)
    result = {"component_order": L.order, "size": ip.poset.n,
              "betti": _betti_dict(bv), "outer_members": len(outer_ids),
              "inner_order": inn.order}
    lines = [_group_header(bundle, G, args.p),
             f"component order {L.order}",
             f"image poset size {ip.poset.n}, "
             f"{len(outer_ids)} members meeting the inner subgroup trivially"]
    return result, lines + _betti_lines(bv)


def cmd_outers(args):
    bundle, G = _load(args)
    L = _pick_component(args, bundle, G)
    op = p_outer_poset(G, L, args.p, cap=args.enum_cap)
    orders = sorted({M.shape[1]: len(M)
                     for M, _, _ in op.poset.elements.blocks}.items())
    result = {"component_order": L.order, "size": op.poset.n,
              "cyclic_only": op.cyclic_only,
              "orders": {str(o): c for o, c in orders}}
    lines = [_group_header(bundle, G, args.p),
             f"component order {L.order}",
             f"{op.poset.n} purely outer members, "
             f"cyclic only: {'yes' if op.cyclic_only else 'no'}"]
    lines += [f"  order {o}: {c}" for o, c in orders]
    return result, lines


def cmd_diagonal(args):
    bundle, G = _load(args)
    ctx = _context(args, bundle, G)
    D, _, _ = DIAGONALS[args.variant](ctx)
    bv = betti_of_poset(D, work_cap=args.work_cap)
    AH = ctx.ap_H()
    result = {"variant": args.variant, "H_order": ctx.H.order,
              "host_size": AH.n, "size": D.n, "betti": _betti_dict(bv)}
    lines = [_group_header(bundle, G, args.p),
             f"orbit kernel H has order {ctx.H.order}, poset size {AH.n}",
             f"{args.variant} diagonal subposet: size {D.n}"]
    return result, lines + _betti_lines(bv)


def cmd_conditions(args):
    bundle, G = _load(args)
    ctx = _context(args, bundle, G)
    rep = checkers.check_conditions(ctx, which=args.which)
    result = {"verdicts": rep.verdicts(), "consistent": rep.consistent,
              "trivial": rep.trivial, "notes": rep.notes,
              "certificates": {t: c.as_dict()
                               for t, c in rep.certificates.items()}}
    lines = [_group_header(bundle, G, args.p)]
    lines += [str(rep.certificates[tag]) for tag in checkers.CONDITION_TAGS
              if tag in rep.certificates]
    lines.append(f"consistent: {'yes' if rep.consistent else 'NO'}")
    lines += [f"note {key}: {rep.notes[key]}" for key in sorted(rep.notes)]
    return result, lines


def cmd_thm41(args):
    bundle, G = _load(args)
    cert = checkers.check_thm41(_context(args, bundle, G))
    return _cert_report(bundle, G, args.p, cert)


def cmd_thm410(args):
    bundle, G = _load(args)
    cert = checkers.check_thm410(_context(args, bundle, G),
                                 variant=args.variant)
    return _cert_report(bundle, G, args.p, cert)


def cmd_cor51(args):
    bundle, G = _load(args)
    cert = checkers.check_cor51(_context(args, bundle, G),
                                variant=args.variant)
    return _cert_report(bundle, G, args.p, cert)


def cmd_cor52(args):
    if not args.f:
        raise QuillenError("cor52 needs --f (one per component, generators "
                           "separated by ';')")
    bundle, G = _load(args)
    ctx = _context(args, bundle, G)
    F = [_subgroup(bundle, gens) for gens in args.f]
    return _cert_report(bundle, G, args.p, checkers.check_cor52(ctx, F))


def cmd_prop_em(args):
    if args.n is None:
        raise QuillenError("prop-em needs --n (homology degree)")
    bundle, G = _load(args)
    certs = checkers.check_propEM(_context(args, bundle, G), args.n)
    lines = [_group_header(bundle, G, args.p)]
    for route in ("M", "E"):
        lines += _cert_lines(certs[route])
    return {route: c.as_dict() for route, c in certs.items()}, lines


def cmd_prop68(args):
    bundle, G = _load(args)
    L = _pick_component(args, bundle, G)
    cert = checkers.check_prop68(G, L, args.p, k=args.k, cap=args.enum_cap,
                                 work_cap=args.work_cap)
    return _cert_report(bundle, G, args.p, cert)


def cmd_robinson(args):
    if args.q is None:
        raise QuillenError("robinson needs --q (the hyperelementary prime)")
    bundle, G = _load(args)
    Y = ap_poset(G, args.p, cap=args.enum_cap)
    cert = checkers.robinson_certificate(Y, sylow_subgroup(G, args.q), args.q)
    return _cert_report(bundle, G, args.p, cert)


def cmd_hqc(args):
    bundle, G = _load(args)
    cert = checkers.hqc_witness(G, args.p, cap=args.enum_cap,
                                work_cap=args.work_cap)
    return _cert_report(bundle, G, args.p, cert)


def cmd_reproduce_paper(args):
    from .acceptance import run_all
    ok, lines, timed_lines = run_all()
    return {"all_pass": ok, "lines": lines}, timed_lines


# -- the parser -----------------------------------------------------------------------


def _int_list(text):
    """--component-order: comma-separated integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _selection(text):
    """--which: comma-separated condition tags, at least one."""
    tags = [t.strip() for t in text.split(",") if t.strip()]
    if not tags:
        raise argparse.ArgumentTypeError(f"empty selection {text!r}")
    return tags


# every flag, declared once: name -> (option strings, add_argument keywords)
FLAGS = {
    "group": (("--group",), dict(
        required=True,
        help="group spec file, or a bundled name: " + ", ".join(BUNDLED))),
    "p": (("--p",), dict(type=int, default=2, help="the prime (default 2)")),
    "order-cap": (("--order-cap",), dict(
        type=int, default=DEFAULT_ORDER_CAP,
        help="refuse groups larger than this")),
    "enum-cap": (("--enum-cap",), dict(
        type=int, default=DEFAULT_ENUM_CAP,
        help="refuse posets with more members than this")),
    "work-cap": (("--work-cap",), dict(
        type=int, default=DEFAULT_WORK_CAP,
        help="refuse eliminations above this work estimate")),
    "output": (("--output", "-o"), dict(
        default=None, help="write the report here instead of stdout")),
    "format": (("--format",), dict(
        choices=("text", "structured"), default="text",
        help="report format (structured = JSON)")),
    "component-gens": (("--component-gens",), dict(
        action="append", default=[], metavar="GENS",
        help="declare one component by generators separated by ';' "
             "(repeatable; overrides the spec file)")),
    "orbit-index": (("--orbit-index",), dict(
        type=int, default=0,
        help="which conjugation orbit of components (default 0)")),
    "component-order": (("--component-order",), dict(
        type=_int_list, default=None, metavar="I,J,...",
        help="ordering of the components within the orbit")),
    "component": (("--component",), dict(
        type=int, default=1,
        help="which component, 1-based by (order, key)")),
    "variant": (("--variant",), dict(
        choices=tuple(DIAGONALS), default="formal")),
    "cor51-variant": (("--variant",), dict(
        choices=checkers.COR51_VARIANTS, default="factor")),
    "which": (("--which",), dict(
        type=_selection, default=None,
        help="comma-separated subset, e.g. C,E (default: all)")),
    "f": (("--f",), dict(
        action="append", default=[], metavar="GENS",
        help="one replacement subgroup per component, generators "
             "separated by ';' (repeatable)")),
    "n": (("--n",), dict(type=int, default=None, help="homology degree")),
    "k": (("--k",), dict(
        type=int, default=None,
        help="homology degree to certify (default: search)")),
    "q": (("--q",), dict(
        type=int, default=None,
        help="the hyperelementary prime (acts by a Sylow q-subgroup)")),
}

# the flag groups: the group itself, the caps, the orbit flags (a command
# built on an OrbitContext, which reads both caps) and the component flags
# (a command that picks one component)
GROUP = ("group", "p", "order-cap")
ENUM, WORK = ("enum-cap",), ("work-cap",)
CAPPED = GROUP + ENUM + WORK
ORBIT = CAPPED + ("component-gens", "orbit-index", "component-order")
COMPONENT = GROUP + ENUM + ("component-gens", "component")

# subcommand -> (handler, help, flags); every one takes --output and --format
COMMANDS = {
    "betti": (cmd_betti, "reduced Betti numbers of the p-subgroup poset",
              CAPPED),
    "euler": (cmd_euler, "reduced Euler characteristic via chain counts",
              GROUP + ENUM),
    "euler-formula": (cmd_euler_formula,
                      "closed-form Euler characteristic vs the complex",
                      GROUP + ENUM),
    "ap": (cmd_ap, "summary of the elementary abelian p-subgroup poset",
           GROUP + ENUM),
    "bouc": (cmd_bouc, "summary and homology of the radical p-subgroup poset",
             GROUP + WORK),
    "image-poset": (cmd_image_poset,
                    "poset of images in the component automorphisms",
                    COMPONENT + WORK),
    "outers": (cmd_outers, "purely outer elementary abelian p-subgroups",
               COMPONENT),
    "diagonal": (cmd_diagonal, "diagonal subposet of the orbit kernel",
                 ORBIT + ("variant",)),
    "conditions": (cmd_conditions,
                   "decomposition conditions A, A', B, C, D, E",
                   ORBIT + ("which",)),
    "thm41": (cmd_thm41, "projection-map elimination certificate", ORBIT),
    "thm410": (cmd_thm410, "diagonal-inclusion elimination certificate",
               ORBIT + ("variant",)),
    "cor51": (cmd_cor51, "componentwise nonvanishing certificate",
              ORBIT + ("cor51-variant",)),
    "cor52": (cmd_cor52, "replacement-subgroup certificate",
              ORBIT + ("f",)),
    "prop-em": (cmd_prop_em, "epi/mono route certificates at a degree",
                ORBIT + ("n",)),
    "prop68": (cmd_prop68, "outer-action elimination certificate",
               COMPONENT + WORK + ("k",)),
    "robinson": (cmd_robinson, "hyperelementary fixed-point certificate",
                 GROUP + ENUM + ("q",)),
    "hqc": (cmd_hqc, "nonzero-homology witness for the p-subgroup poset",
            CAPPED),
    "reproduce-paper": (cmd_reproduce_paper,
                        "run the full acceptance suite", ()),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qg",
        description="p-subgroup posets, exact rational homology, and "
                    "elimination-theorem certificates for finite "
                    "permutation groups.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag in flags + ("output", "format"):
            options, kwargs = FLAGS[flag]
            sp.add_argument(*options, **kwargs)
    return ap


def _check(args):
    """What argparse cannot check: positive caps and a prime p."""
    for name in ("order_cap", "enum_cap", "work_cap"):
        if name in args and getattr(args, name) <= 0:
            raise ValueError(f"{name} must be positive")
    if "p" in args:
        _check_prime(args.p)


def run(args):
    """Execute one parsed command.  Returns the exit status."""
    result, lines = COMMANDS[args.command][0](args)
    if args.format == "structured":
        # reproduce-paper takes no group; its inputs keep the default prime
        inputs = {"command": args.command, "p": getattr(args, "p", 2)}
        if getattr(args, "group", None):
            inputs["group"] = args.group
        report = json.dumps({"schema": SCHEMA, "inputs": inputs,
                             "result": result},
                            sort_keys=True, indent=2) + "\n"
    else:
        report = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    if args.command == "reproduce-paper":
        return 0 if result["all_pass"] else 1
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check(args)
        return run(args)
    except InvariantViolated as e:
        print(f"error: self-check failed: {e}", file=sys.stderr)
        return 3
    except (QuillenError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
