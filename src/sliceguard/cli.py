"""Command-line front end.

Exit codes: 0 report, 1 input or usage error, 2 INCONCLUSIVE or budget
refused, 3 internal check failed.  JSON goes to stdout; diagnostics, and
every error as one line, to stderr.  Verdicts use no numerics, so
``--precision-bits`` and the environment variable
SLICEGUARD_PRECISION_BITS (its default) only set the starting precision
of ``signature`` at a point; ``obstruct`` accepts and ignores the flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import gcd

from . import covers, metabolizers, pipeline, seifert
from .covers import Character
from .expr import ParseError, parse
from .knots import prime_power_exponent
from .metabolizers import BudgetExceeded
from .twisted import twisted_alex_exterior, twisted_alex_surgery


def _precision_default():
    # argparse converts a string default with the option's type at parse
    # time, so a malformed variable is a one-line usage error
    return os.environ.get("SLICEGUARD_PRECISION_BITS") or seifert.DEFAULT_PRECISION_BITS


def _options(args) -> pipeline.Options:
    return pipeline.Options(
        r=args.r,
        budget=args.budget,
        max_ambient_dim=args.max_dim,
        max_r=args.max_r,
    )


def _cmd_obstruct(args) -> int:
    if args.verify:
        with open(args.verify) as handle:
            doc = json.load(handle)
        pipeline.verify_verdict(doc, budget=args.budget)
        options = pipeline.Options(
            r=doc.get("r"), budget=args.budget, max_ambient_dim=args.max_dim,
            max_r=args.max_r,
        )
        verdict = pipeline.obstruct(parse(doc["input"]), options, doc["input"])
        fresh = json.dumps(verdict.to_json_dict(), sort_keys=True)
        recorded = json.dumps(doc, sort_keys=True)
        if fresh != recorded:
            print("certificate mismatch: recomputation differs", file=sys.stderr)
            return 1
        print("certificate verified: recomputation agrees bit-for-bit")
        return 0
    if args.expression is None:
        print("an expression or --verify FILE is required", file=sys.stderr)
        return 1
    K = parse(args.expression)
    verdict = pipeline.obstruct(K, _options(args), args.expression)
    if args.json:
        print(verdict.to_json())
    else:
        _print_verdict(verdict)
    return 2 if verdict.kind == "INCONCLUSIVE" else 0


def _print_verdict(verdict: pipeline.Verdict):
    print(f"verdict: {verdict.kind}")
    if verdict.witness is not None:
        s, pq, coeff = verdict.witness
        print(f"  surviving companion: level {s}, torus knot T{pq}, coefficient {coeff:+d}")
    if verdict.kind == "NOT_SLICE":
        print(f"  obstruction prime: r = {verdict.r}")
        print(f"  certificates: {len(verdict.certificates)} (one per invariant metabolizer)")
        for cert in verdict.certificates:
            chi_a = ", ".join(str(c) for c in cert.chi_a)
            chi_b = ", ".join(str(c) for c in cert.chi_b)
            print(
                f"    metabolizer {list(map(list, cert.basis))}: case {cert.case}, "
                f"chi_a = [{chi_a}], chi_b = [{chi_b}], level (q,s) = "
                f"({cert.q},{cert.s}), jump {cert.witness_jump:+d} at "
                f"{cert.witness_omega}"
            )
    if verdict.reason:
        print(f"  reason: {verdict.reason}")


def _cmd_slice_check(args) -> int:
    from . import knots

    K = parse(args.expression)
    simplified = knots.simplify(K)
    if simplified.is_empty():
        kind, witness = "TRIVIAL_COMBINATION", None
    else:
        ok, witness = knots.algebraically_slice(simplified)
        kind = "ALGEBRAICALLY_SLICE" if ok else "NOT_ALGEBRAICALLY_SLICE"
    if args.json:
        out = {"input": args.expression, "verdict": kind}
        if witness:
            s, pq, coeff = witness
            out["witness"] = {"s": s, "torus": list(pq), "coefficient": coeff}
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"verdict: {kind}")
        if witness:
            s, pq, coeff = witness
            print(f"  surviving companion: level {s}, T{pq}, coefficient {coeff:+d}")
    return 0


def _cmd_alex(args) -> int:
    poly = seifert.alexander_poly(args.p, args.q)
    if args.json:
        print(json.dumps({"p": args.p, "q": args.q, "alexander": str(poly)}))
    else:
        print(f"{poly}  (up to units)")
    return 0


def _parse_character(text: str, r: int) -> Character:
    values = tuple(int(v) % r for v in text.split(","))
    return Character(r, values)


def _cmd_talex(args) -> int:
    if args.p < 2 or args.q < 2 or gcd(args.p, args.q) != 1:
        raise ValueError(
            f"T({args.p},{args.q}) is not a torus knot: p and q must be "
            "at least 2 and coprime"
        )
    chi = _parse_character(args.character, args.q)
    if chi.p != args.p:
        print(f"character needs {args.p} entries", file=sys.stderr)
        return 1
    fn = twisted_alex_surgery if args.surgery else twisted_alex_exterior
    poly = fn(args.p, args.q, chi)
    kind = "surgery" if args.surgery else "exterior"
    if args.json:
        print(json.dumps({
            "p": args.p, "q": args.q, "character": list(chi.values),
            "variant": kind, "polynomial": str(poly),
        }))
    else:
        print(f"{poly}  (up to units, {kind})")
    return 0


def _cmd_characters(args) -> int:
    chars = covers.characters(args.p, args.r)
    if args.json:
        print(json.dumps({"p": args.p, "r": args.r,
                          "characters": [list(c.values) for c in chars]}))
    else:
        print(f"{len(chars)} characters on the {args.p}-fold cover module over Z_{args.r}:")
        for c in chars:
            print(f"  {c}")
    return 0


def _cmd_metabolizers(args) -> int:
    module = covers.model_module(args.p, args.r)
    F = metabolizers.FormSpace(module=module, m1=args.copies)
    found = metabolizers.enumerate_invariant_metabolizers(F, args.budget)
    if args.json:
        print(json.dumps({
            "p": args.p, "r": args.r, "copies": args.copies,
            "ambient_dim": F.ambient_dim,
            "metabolizers": [[list(row) for row in L.rows] for L in found],
        }))
    else:
        print(
            f"{len(found)} invariant metabolizers of the rank-{F.ambient_dim} "
            f"form over F_{args.r}:"
        )
        for L in found:
            print(f"  span{list(map(list, L.rows))}")
    return 0


def _cmd_signature(args) -> int:
    if args.jumps:
        jumps = seifert.jump_function(args.p, args.q)
        if args.json:
            print(json.dumps({
                "p": args.p, "q": args.q,
                "jumps": {f"{x.numerator}/{x.denominator}": j for x, j in jumps.items()},
            }))
        else:
            print(f"signature jumps of T({args.p},{args.q}):")
            for x, j in sorted(jumps.items()):
                print(f"  {x}: {j:+d}")
        return 0
    if args.x is None:
        print("a rational point or --jumps is required", file=sys.stderr)
        return 1
    x = Fraction(args.x)
    sig = seifert.lt_signature(args.p, args.q, x, args.precision_bits)
    if args.json:
        print(json.dumps({"p": args.p, "q": args.q, "x": str(x), "signature": sig}))
    else:
        print(f"signature of T({args.p},{args.q}) at exp(2*pi*i*{x}) = {sig}")
    return 0


def _cmd_homology(args) -> int:
    if not prime_power_exponent(args.n):
        raise ValueError(f"cover degree {args.n} is not a prime power >= 2")
    cover = seifert.branched_cover(args.p, args.q, args.n)
    doc = {
        "p": args.p, "q": args.q, "n": args.n,
        "divisors": list(cover.divisors),
        "order": cover.order,
    }
    if cover.module is not None:
        doc["module"] = {
            "r": cover.module.r,
            "dim": cover.module.dim,
            "deck_action": [list(row) for row in cover.module.action],
            "gram_times_r": [list(row) for row in cover.module.gram],
        }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        group = " + ".join(f"Z_{d}" for d in cover.divisors) or "0"
        print(f"H_1 of the {args.n}-fold branched cover of T({args.p},{args.q}): {group}")
        if cover.module is not None:
            print(f"  deck action: {[list(r) for r in cover.module.action]}")
            print(f"  linking form (times {cover.module.r}): "
                  f"{[list(r) for r in cover.module.gram]}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are one line and exit 1, like every other input error;
    subparsers inherit this class."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="sliceguard",
        description="Certified sliceness obstructions for combinations of "
                    "iterated torus knots",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit JSON to stdout")

    ob = sub.add_parser("obstruct", help="run the full obstruction pipeline")
    ob.add_argument("expression", nargs="?", help="knot combination, e.g. 'T(2,3;2,5) # -T(2,5)'")
    ob.add_argument("--r", type=int, default=None, help="force one obstruction prime")
    ob.add_argument("--budget", type=int, default=2_000_000,
                    help="max subspaces to enumerate per form")
    ob.add_argument("--max-r", type=int, default=13)
    ob.add_argument("--max-dim", type=int, default=8)
    ob.add_argument("--precision-bits", type=int, default=_precision_default(),
                    help="ignored: verdicts use no numerics")
    ob.add_argument("--verify", metavar="FILE",
                    help="re-check a previously emitted JSON verdict bit-for-bit")
    add_common(ob)
    ob.set_defaults(func=_cmd_obstruct)

    sc = sub.add_parser("slice-check", help="algebraic sliceness test only")
    sc.add_argument("expression")
    add_common(sc)
    sc.set_defaults(func=_cmd_slice_check)

    al = sub.add_parser("alex", help="Alexander polynomial of T(p,q)")
    al.add_argument("p", type=int)
    al.add_argument("q", type=int)
    add_common(al)
    al.set_defaults(func=_cmd_alex)

    ta = sub.add_parser("talex", help="twisted Alexander polynomial of T(p,q)")
    ta.add_argument("p", type=int)
    ta.add_argument("q", type=int)
    ta.add_argument("character", help="comma-separated values, e.g. '1,2'")
    ta.add_argument("--surgery", action="store_true",
                    help="0-surgery variant instead of the exterior")
    add_common(ta)
    ta.set_defaults(func=_cmd_talex)

    ch = sub.add_parser("characters", help="all characters of the cover module")
    ch.add_argument("p", type=int)
    ch.add_argument("r", type=int)
    add_common(ch)
    ch.set_defaults(func=_cmd_characters)

    me = sub.add_parser("metabolizers",
                        help="invariant metabolizers of lambda^m + -lambda^m")
    me.add_argument("p", type=int)
    me.add_argument("r", type=int)
    me.add_argument("--copies", type=int, default=1, help="the exponent m")
    me.add_argument("--budget", type=int, default=2_000_000)
    add_common(me)
    me.set_defaults(func=_cmd_metabolizers)

    si = sub.add_parser("signature", help="Levine-Tristram signature of T(p,q)")
    si.add_argument("p", type=int)
    si.add_argument("q", type=int)
    si.add_argument("x", nargs="?", help="rational point, e.g. '1/2'")
    si.add_argument("--jumps", action="store_true", help="print the jump function")
    si.add_argument("--precision-bits", type=int, default=_precision_default(),
                    help="starting precision of the certified signature "
                         "(speed only, never the result)")
    add_common(si)
    si.set_defaults(func=_cmd_signature)

    ho = sub.add_parser("homology", help="branched cover homology and linking form")
    ho.add_argument("p", type=int)
    ho.add_argument("q", type=int)
    ho.add_argument("n", type=int)
    add_common(ho)
    ho.set_defaults(func=_cmd_homology)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except pipeline.VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # ConventionError, MatchFailure and every other failed self-check
        print(f"internal check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
