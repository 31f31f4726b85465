"""Command-line surface: enumeration, maps, algebra, posets, series, and the
verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors.
Output is deterministic; ``--json`` switches to machine form.
"""

from __future__ import annotations

import argparse
import sys

from . import algebra, posets, series, trees, verify
from .trees import ParseError, ValidityError


def _emit_keys(family: str, keys, as_json: bool) -> None:
    """One line per key, written at once.  A canonical key holds only
    ``.(){}``, digits and commas, so its JSON line needs no escaping."""
    if as_json:
        keys = ['{"family": "%s", "key": "%s"}' % (family, key) for key in keys]
    sys.stdout.write("\n".join([*keys, ""]))


def _emit_combo(combo: algebra.LinearCombo, as_json: bool) -> None:
    if as_json:
        print(algebra.combo_to_json(combo))
    else:
        for key, coef in combo.items():
            print(f"{coef}\t{key}")


def _emit_tensor(tensor: algebra.TensorCombo, as_json: bool) -> None:
    if as_json:
        print(algebra.tensor_to_json(tensor))
    else:
        for (left, right), coef in tensor.items():
            print(f"{coef}\t{left}\t{right}")


def _cmd_enumerate(args) -> int:
    _emit_keys(args.family, trees.enumerate_family(args.family, args.n), args.json)
    return 0


def _cmd_map(args) -> int:
    source, target, func = trees.MAPS[args.op]
    result = func(trees.parse_key(source, args.input))
    _emit_keys(target, [trees.render_key(target, result)], args.json)
    return 0


def _cmd_fiber(args) -> int:
    if args.map == "tau":
        t = trees.parse_key("Y", args.input)
        if t.size == 0:
            raise ValidityError("fibers need at least one node")
        words = sorted(trees.render_perm(w) for w in trees.fiber_of_tree(t))
        lo = trees.render_perm(trees.min_word(t))
        hi = trees.render_perm(trees.max_word(t))
    else:
        b = trees.parse_key("M", args.input)
        fiber, least, greatest = posets._certified_fiber(b.size, b)
        words = [trees.render_perm(w) for w in fiber]
        lo, hi = trees.render_perm(least), trees.render_perm(greatest)
    if args.json:
        import json

        print(json.dumps({"fiber": words, "min": lo, "max": hi}, sort_keys=True))
    else:
        for w in words:
            print(w)
        print(f"min={lo} max={hi}")
    return 0


def _cmd_product(args) -> int:
    if args.family == "M":
        combo = algebra.product_msym(args.left, args.right)
    else:
        combo = algebra.product_fund(args.family, args.left, args.right)
    _emit_combo(combo, args.json)
    return 0


def _cmd_coproduct(args) -> int:
    _emit_tensor(algebra.coproduct_fund(args.family, args.input), args.json)
    return 0


def _cmd_act(args) -> int:
    # a word on the left acts through its bi-leveled image; a circled key on
    # the left is acted on by a plain tree on the right
    try:
        trees.parse_perm(args.left)
        is_word = True
    except (ParseError, ValidityError):
        is_word = False
    if is_word:
        combo = algebra.action_ssym(args.left, args.right)
    else:
        combo = algebra.action_ysym(args.left, args.right)
    _emit_combo(combo, args.json)
    return 0


def _cmd_coact(args) -> int:
    if args.basis == "M":
        tensor = algebra.coaction_monomial(args.input)
    else:
        tensor = algebra.coaction(args.input)
    _emit_tensor(tensor, args.json)
    return 0


def _cmd_convert(args) -> int:
    algebra.key_degree(args.family, args.key)  # checks the key, unit included
    combo = algebra.LinearCombo(args.family, args.from_basis, {args.key: 1})
    if args.to == args.from_basis:
        result = combo
    elif args.to == "M":
        result = algebra.to_monomial(combo)
    else:
        result = algebra.from_monomial(combo)
    _emit_combo(result, args.json)
    return 0


def _cmd_mobius(args) -> int:
    poset = posets.poset_for(args.family, args.n)
    if args.x not in poset or args.y not in poset:
        raise ValueError("both keys must lie in the chosen poset")
    print(poset.mobius(args.x, args.y))
    return 0


def _cmd_hasse(args) -> int:
    sys.stdout.write(posets.poset_for(args.family, args.n).to_dot())
    return 0


def _cmd_coinvariants(args) -> int:
    _emit_keys("M", algebra.coinvariant_basis(args.n), args.json)
    return 0


def _cmd_hilbert(args) -> int:
    if not args.quotient and args.family is None:
        raise ValueError("hilbert needs --family or --quotient")
    if args.quotient and args.family is not None:
        raise ValueError("hilbert takes --family or --quotient, not both")
    series.check_series_order(args.order)
    if args.quotient:
        result = series.series_quotient(series.counts("M", args.order),
                                        series.counts("Y", args.order))
    else:
        result = series.counts(args.family, args.order)
    if args.json:
        import json
    # the coefficients are exact: lift the interpreter's limit on the digits
    # of an int turned into text (CPython 3.11, and 3.10.7 on), then restore it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(list(result.coeffs)) if args.json else result.pretty()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    print(text)
    return 0


def _cmd_verify(args) -> int:
    if args.n_max is not None and args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    if args.s_max is not None and args.suite != "hopf-module":
        raise ValueError(f"--s-max applies to hopf-module only, not to {args.suite}")
    if args.s_max is not None and args.s_max < 0:
        raise ValueError(f"--s-max must be at least 0, got {args.s_max}")
    bound = () if args.n_max is None else (args.n_max,)
    acting = {} if args.s_max is None else {"s_max": args.s_max}
    result = verify.SUITES[args.suite](*bound, **acting)
    print(result.summary_line())
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multisym",
        description="Exact combinatorics of words, circled trees and plane trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("enumerate", help="list the keys of a family by size")
    p.add_argument("--family", required=True, choices=["S", "Y", "M"])
    p.add_argument("--n", required=True, type=int)
    add_json(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("map", help="apply one of the structural maps to a key")
    p.add_argument("--op", required=True, choices=sorted(trees.MAPS))
    p.add_argument("--input", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("fiber", help="print a fiber and its interval endpoints")
    p.add_argument("--map", required=True, choices=["tau", "beta"])
    p.add_argument("--input", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("product", help="product of two fundamental basis keys")
    p.add_argument("--family", required=True, choices=["S", "Y", "M"])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("coproduct", help="coproduct of a fundamental basis key")
    p.add_argument("--family", required=True, choices=["S", "Y"])
    p.add_argument("--input", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_coproduct)

    p = sub.add_parser("act", help="module action (word or tree on a circled key)")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("coact", help="coaction of a circled key")
    p.add_argument("--input", required=True)
    p.add_argument("--basis", default="F", choices=["F", "M"])
    add_json(p)
    p.set_defaults(func=_cmd_coact)

    p = sub.add_parser("convert", help="re-express a basis element")
    p.add_argument("--family", required=True, choices=["S", "Y", "M"])
    p.add_argument("--from", dest="from_basis", required=True, choices=["F", "M"])
    p.add_argument("--to", required=True, choices=["F", "M"])
    p.add_argument("--key", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("mobius", help="Möbius value of a comparable pair")
    p.add_argument("--family", required=True, choices=["S", "Y", "M"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_mobius)

    p = sub.add_parser("hasse", help="cover diagram in DOT form")
    p.add_argument("--family", required=True, choices=["S", "Y", "M"])
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("coinvariants", help="coinvariant monomial keys by size")
    p.add_argument("--n", required=True, type=int)
    add_json(p)
    p.set_defaults(func=_cmd_coinvariants)

    p = sub.add_parser("hilbert", help="dimension series, or the quotient series")
    p.add_argument("--family", choices=["S", "Y", "M"])
    p.add_argument("--quotient", action="store_true")
    p.add_argument("--order", required=True, type=int)
    add_json(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--s-max", type=int, default=None,
                   help="acting-tree size bound (hopf-module only)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except posets.CertificationError as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
