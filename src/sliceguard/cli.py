"""Command-line front end.

Exit codes: 0 report, 1 input or usage error, 2 INCONCLUSIVE or budget
refused, 3 internal check failed, 141 stdout closed by its reader (as in
``sliceguard alex 13 17 | head -c 100``; nothing is printed).  JSON goes
to stdout; diagnostics, and every error as one line, to stderr.  ``obstruct --verify FILE`` is the
library's ``verify_verdict`` under ``--budget``: it checks the recorded
bases against the closed-form count of metabolizers, which the budget
bounds, certifies each, and requires the rebuilt document byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from . import covers, metabolizers, pipeline, seifert
from .covers import Character
from .expr import ParseError, parse
from .knots import check_torus, prime_power_exponent
from .metabolizers import BudgetExceeded
from .twisted import twisted_alex_exterior, twisted_alex_surgery


# the longest listing printed: at degree 100 002 the Alexander polynomial
# alone took 0.49 s to print, and the listings grow without bound
MAX_LISTED = 100_000


def _refuse_long_listing(count: int, what: str) -> None:
    """A listing of more than MAX_LISTED entries is refused in one line,
    before any work."""
    if count > MAX_LISTED:
        raise BudgetExceeded(f"{what}, over the listing limit of {MAX_LISTED}")


def _count(text: str) -> int:
    """A bound or a count: a negative one is a usage error, before any work."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _integer(text: str) -> int:
    """A positional integer below 2**31 in size, like every integer the parser
    takes: a larger one, whose prime test alone would not finish, is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 2**31
    if not abs(value) < 2**31:
        raise argparse.ArgumentTypeError(f"expected an integer below 2**31 in size, got {text!r}")
    return value


def _prime(text: str) -> int:
    """A forced obstruction prime: anything else is a usage error, before any work.
    The bound keeps the trial division instant; a larger prime's form would
    have more subspaces than any budget that finishes."""
    value = _integer(text)
    if prime_power_exponent(value) != 1:
        raise argparse.ArgumentTypeError(f"expected a prime below 2**31, got {text!r}")
    return value


def _point(text: str):
    """A rational point a or a/b, as a Fraction, each of a and b below 2**31
    in size like every integer the parser takes, and b nonzero; anything
    else is an input error, before any work."""
    from fractions import Fraction
    parts = text.removeprefix("-").split("/")
    if len(parts) <= 2 and all(part.isascii() and part.isdigit() and len(part) <= 10
                               and int(part) < 2**31 for part in parts):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    raise ValueError(f"{text!r} is not a rational point")


def _options(args) -> pipeline.Options:
    return pipeline.Options(r=args.r, budget=args.budget)


def _cmd_obstruct(args) -> int:
    if args.verify:
        with open(args.verify) as handle:
            doc = json.load(handle)
        pipeline.verify_verdict(doc, budget=args.budget)
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
    if K.is_empty():
        kind, witness = "TRIVIAL_COMBINATION", None
    else:
        ok, witness = knots.algebraically_slice(K)
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
    check_torus(args.p, args.q)
    d = (args.p - 1) * (args.q - 1)
    _refuse_long_listing(d, f"the Alexander polynomial of T({args.p},{args.q}) has degree {d}")
    from .presentations import alexander_poly
    poly = alexander_poly(args.p, args.q)
    if args.json:
        print(json.dumps({"p": args.p, "q": args.q, "alexander": str(poly)}))
    else:
        print(f"{poly}  (up to units)")
    return 0


def _character_values(text: str, r: int) -> tuple[int, ...]:
    try:
        return tuple(int(v) % r for v in text.split(","))
    except ValueError:
        raise ValueError(
            f"character values must be comma-separated integers, got {text!r}") from None


def _cmd_talex(args) -> int:
    check_torus(args.p, args.q)
    # time grows about as q^3: T(2,503) takes 6.7 s and T(2,251) 0.7 s on 2 x86 CPUs
    if args.p > 12 or args.p * args.q > 512:
        raise BudgetExceeded(f"talex takes p <= 12 and pq <= 512, got T({args.p},{args.q})")
    values = _character_values(args.character, args.q)
    # the count before the character, whose constructor checks the sum
    if len(values) != args.p:
        print(f"character needs {args.p} entries", file=sys.stderr)
        return 1
    chi = Character(args.q, values)
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
    p, r = args.p, args.r
    if p >= 2 and r >= 2:  # else covers.characters names the input error
        # there are r^(p-1); as r^17 > MAX_LISTED already, capping the
        # exponent there decides alike without building a huge power
        _refuse_long_listing(r ** min(p - 1, MAX_LISTED.bit_length()),
                             f"the {p}-fold cover module over Z_{r} has {r}^{p - 1} characters")
    chars = covers.characters(p, r)
    if args.json:
        print(json.dumps({"p": args.p, "r": args.r,
                          "characters": [list(c.values) for c in chars]}))
    else:
        print(f"{len(chars)} characters on the {args.p}-fold cover module over Z_{args.r}:")
        for c in chars:
            print(f"  {c}")
    return 0


def _cmd_metabolizers(args) -> int:
    # input errors here, then the budget, before the module costs O(p^4)
    F = metabolizers.FormSpace(args.p, args.r, args.copies)
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
    p, q = args.p, args.q
    check_torus(p, q)
    if args.jumps:
        d = (p - 1) * (q - 1)
        _refuse_long_listing(d, f"T({p},{q}) has {d} signature jumps")
        jumps = seifert.jump_function(p, q)
        if args.json:
            print(json.dumps({
                "p": p, "q": q,
                "jumps": {f"{x.numerator}/{x.denominator}": j for x, j in jumps.items()},
            }))
        else:
            print(f"signature jumps of T({p},{q}):")
            for x, j in sorted(jumps.items()):
                print(f"  {x}: {j:+d}")
        return 0
    if args.x is None:
        print("a rational point or --jumps is required", file=sys.stderr)
        return 1
    x = _point(args.x)
    _refuse_long_listing(min(p, q), f"the signature of T({p},{q}) is a sum over its "
                                    f"smaller index {min(p, q)}")
    sig = seifert.lt_signature(p, q, x)
    if args.json:
        print(json.dumps({"p": p, "q": q, "x": str(x), "signature": sig}))
    else:
        print(f"signature of T({p},{q}) at exp(2*pi*i*{x}) = {sig}")
    return 0


def _cmd_homology(args) -> int:
    p, q, n = args.p, args.q, args.n
    if not prime_power_exponent(n):
        raise ValueError(f"cover degree {n} is not a prime power >= 2")
    check_torus(p, q)
    # the g + h - 2 divisors, then the module's two (g - 1)-square matrices
    g, h = gcd(p, n), gcd(q, n)
    listed = g + h - 2 + (2 * (g - 1) ** 2 if prime_power_exponent(q) == 1 else 0)
    _refuse_long_listing(listed, f"H_1 of the {n}-fold cover of T({p},{q}) lists {listed} entries")
    cover = seifert.branched_cover(p, q, n)
    doc = {
        "p": p, "q": q, "n": n,
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
        print(f"H_1 of the {n}-fold branched cover of T({p},{q}): {group}")
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
    ob.add_argument("--r", type=_prime, default=None, help="force one obstruction prime")
    ob.add_argument("--budget", type=_count, default=metabolizers.DEFAULT_BUDGET,
                    help="max subspaces to enumerate per form")
    ob.add_argument("--verify", metavar="FILE",
                    help="check a previously emitted JSON verdict's metabolizers, "
                         "certify them again and require the document bit-for-bit")
    add_common(ob)
    ob.set_defaults(func=_cmd_obstruct)

    sc = sub.add_parser("slice-check", help="algebraic sliceness test only")
    sc.add_argument("expression")
    add_common(sc)
    sc.set_defaults(func=_cmd_slice_check)

    al = sub.add_parser("alex", help="Alexander polynomial of T(p,q)")
    al.add_argument("p", type=_integer)
    al.add_argument("q", type=_integer)
    add_common(al)
    al.set_defaults(func=_cmd_alex)

    ta = sub.add_parser("talex", help="twisted Alexander polynomial of T(p,q)")
    ta.add_argument("p", type=_integer)
    ta.add_argument("q", type=_integer)
    ta.add_argument("character", help="comma-separated values, e.g. '1,2'")
    ta.add_argument("--surgery", action="store_true",
                    help="0-surgery variant instead of the exterior")
    add_common(ta)
    ta.set_defaults(func=_cmd_talex)

    ch = sub.add_parser("characters", help="all characters of the cover module")
    ch.add_argument("p", type=_integer)
    ch.add_argument("r", type=_integer)
    add_common(ch)
    ch.set_defaults(func=_cmd_characters)

    me = sub.add_parser("metabolizers",
                        help="invariant metabolizers of lambda^m + -lambda^m")
    me.add_argument("p", type=_integer)
    me.add_argument("r", type=_integer)
    me.add_argument("--copies", type=_count, default=1, help="the exponent m")
    me.add_argument("--budget", type=_count, default=metabolizers.DEFAULT_BUDGET)
    add_common(me)
    me.set_defaults(func=_cmd_metabolizers)

    si = sub.add_parser("signature", help="Levine-Tristram signature of T(p,q)")
    si.add_argument("p", type=_integer)
    si.add_argument("q", type=_integer)
    si.add_argument("x", nargs="?", help="rational point, e.g. '1/2'")
    si.add_argument("--jumps", action="store_true", help="print the jump function")
    add_common(si)
    si.set_defaults(func=_cmd_signature)

    ho = sub.add_parser("homology", help="branched cover homology and linking form")
    ho.add_argument("p", type=_integer)
    ho.add_argument("q", type=_integer)
    ho.add_argument("n", type=_integer)
    add_common(ho)
    ho.set_defaults(func=_cmd_homology)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: say nothing, and let the exit flush of the
        # unwritten output go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
        # ConventionError and every other failed self-check
        print(f"internal check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
