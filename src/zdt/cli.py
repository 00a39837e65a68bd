"""Command line interface.

Exit codes: 0 every checked statement holds, 1 some check failed (witnesses
printed), 2 usage or input errors, or a checker that reads labels.
"""

from __future__ import annotations

import argparse
import os
import sys

from zdt import claims as cl, continuity as ct, io as zio, monad as md
from zdt import poset as ps, systems as zs, topology as tp
from zdt.errors import ZdtError
from zdt.reports import Status


def _load(path):
    name, P = zio.load_poset(path)
    return P


PROPERTY_CHECKS = {
    "weak-s-cont": ct.weak_s_z_witness,
    "s-cont": ct.s_z_witness,
    "quasicont": ct.quasicontinuity_witness,
    "weakly-meet": ct.weakly_meet_witness,
    "meet": ct.meet_witness,
    "locally-weakly-meet": ct.locally_weakly_meet_witness,
    "delta-cont": ct.delta_z_witness,
    "prealgebraic": ct.prealgebraic_witness,
    "zcpo": zs.zcpo_witness,
    "delta-cpo": md.delta_cpo_witness,
    "lower-hereditary": tp.lower_hereditary_witness,
}


def cmd_check(args):
    P = _load(args.poset)
    system = zs.get_system(args.system)
    witness = PROPERTY_CHECKS[args.property](P, system)
    if witness is None:
        print(f"{args.property} holds on {os.path.basename(args.poset)} ({args.system})")
        return 0
    print(f"{args.property} fails on {os.path.basename(args.poset)} ({args.system})")
    for line in zio.format_witness(witness):
        print(line)
    return 1


def cmd_family(args):
    P = _load(args.poset)
    system = zs.get_system(args.system)
    family = tp.FAMILY_KINDS[args.family](P, system)
    sets = family.closed if args.family.startswith(("gamma", "lower")) else family.opens
    for mask in sets:
        print(",".join(P.names(mask)))
    return 0


def cmd_relation(args):
    P = _load(args.poset)
    system = zs.get_system(args.system)
    if args.relation == "waybelow":
        rel = lambda x, y: ct.way_below_sets(P, system, 1 << x, 1 << y)
    else:
        rel = lambda x, y: ct.beneath(P, system, x, y)
    if args.pairs:
        sign = "<<" if args.relation == "waybelow" else "-<"
        for x in range(P.n):
            for y in range(P.n):
                if rel(x, y):
                    print(f"{P.labels[x]} {sign} {P.labels[y]}")
    else:
        print(" ".join(P.labels))
        for x in range(P.n):
            print("".join("1" if rel(x, y) else "0" for y in range(P.n)))
    return 0


def cmd_monad(args):
    P = _load(args.poset)
    system = zs.get_system(args.system)
    if args.verify == "adjunction":
        results = {"thm-adjunction": cl.get_claim("thm-adjunction").evaluate(P, system)}
    elif args.verify == "monad-laws":
        results = {"thm-monad": cl.get_claim("thm-monad").evaluate(P, system)}
    else:
        results = {
            "thm-em": cl.get_claim("thm-em").evaluate(P, system),
            "prop-em-morph": cl.get_claim("prop-em-morph").evaluate(P, system),
        }
        xi = md.em_structure_map(P, system)
        if xi is None:
            print("no algebra structure: not every compact closed set has a sup")
        else:
            d = md.delta_object(P, system)
            pairs = ", ".join(
                f"{zio.format_set(P, a)}↦{P.labels[xi[i]]}" for i, a in enumerate(d.sets)
            )
            print(f"structure map: {pairs}")
    code = 0
    for cid, res in results.items():
        extra = ""
        if res.witness:
            extra = " " + " ".join(f"{k}={v}" for k, v in sorted(res.witness.items()))
        print(f"CLAIM {cid} {res.status.name}{extra}")
        if res.status is Status.FAILS:
            code = 1
    return code


def cmd_search(args):
    mode = "labeled" if args.labeled else "up_to_iso"
    systems = (args.system,) if args.system else None
    reports = cl.run_claim(
        args.claim,
        args.max_size,
        mode=mode,
        systems=systems,
        jobs=args.jobs,
    )
    sys.stdout.write(cl.format_reports(reports))
    if args.emit_counterexamples:
        os.makedirs(args.emit_counterexamples, exist_ok=True)
        # the reports run system-major, one per size (``run_claim``)
        names = systems or cl.get_claim(args.claim).systems
        k = 0
        for i, r in enumerate(reports):
            system = names[i // args.max_size]
            for instance, witness in r.witnesses:
                if not isinstance(instance, ps.FinitePoset):
                    continue
                path = os.path.join(
                    args.emit_counterexamples, f"{args.claim}-{system}-{k:03d}.poset"
                )
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(f"# claim {args.claim}\n# system {system}\n# mode {mode}\n")
                    fh.write(zio.format_poset_text(instance, f"cex{k}"))
                    for line in zio.format_witness(witness):
                        fh.write(f"#{line}\n")
                k += 1
    return 0 if all(r.ok for r in reports) else 1


def cmd_fixtures(args):
    # imported here, as no other command reads the fixtures
    from zdt.fixtures import run_fixture_suite

    reports = run_fixture_suite()
    sys.stdout.write(cl.format_reports(reports))
    return 0 if all(r.ok for r in reports) else 1


def cmd_export(args):
    name, P = zio.load_poset(args.poset)
    system = zs.get_system(args.system) if args.system else None
    if args.overlay and system is None:
        raise ZdtError("--overlay needs --system")
    text = zio.export_dot(P, name, overlay=args.overlay, system=system)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zdt",
        description="Finite-poset workbench for subset-system order theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide one property on one poset")
    p.add_argument("--poset", required=True)
    p.add_argument("--system", required=True, choices=sorted(zs.SYSTEMS))
    p.add_argument("--property", required=True, choices=sorted(PROPERTY_CHECKS))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("family", help="print a closed/open set family")
    p.add_argument("--poset", required=True)
    p.add_argument("--system", required=True, choices=sorted(zs.SYSTEMS))
    p.add_argument("--family", required=True, choices=sorted(tp.FAMILY_KINDS))
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("relation", help="print a relation matrix or pair list")
    p.add_argument("--poset", required=True)
    p.add_argument("--system", required=True, choices=sorted(zs.SYSTEMS))
    p.add_argument("--relation", required=True, choices=("waybelow", "beneath"))
    p.add_argument("--pairs", action="store_true")
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("monad", help="verify adjunction, monad laws, or algebras")
    p.add_argument("--poset", required=True)
    p.add_argument("--system", required=True, choices=sorted(zs.SYSTEMS))
    p.add_argument("--verify", required=True, choices=("adjunction", "monad-laws", "em"))
    p.set_defaults(func=cmd_monad)

    p = sub.add_parser("search", help="verify one claim over enumerated posets")
    p.add_argument("--claim", required=True)
    p.add_argument("--max-size", type=_positive_int, required=True)
    p.add_argument("--system", default=None, choices=sorted(zs.SYSTEMS))
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--labeled",
        action="store_true",
        help="count labeled posets: each isomorphism class is evaluated once and"
        " counted n!/|Aut P| times; the witnesses are the first failing labeled"
        " posets, each evaluated itself, and one that does not fail is an error",
    )
    mode.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--emit-counterexamples", default=None, metavar="DIR")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fixtures", help="run the recorded fixture expectations")
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("export", help="DOT export with optional relation overlay")
    p.add_argument("--poset", required=True)
    p.add_argument("--overlay", choices=("waybelow", "beneath"), default=None)
    p.add_argument("--system", default=None, choices=sorted(zs.SYSTEMS))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ZdtError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
