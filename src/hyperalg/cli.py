"""Command-line front end.

Parses elements from a small text grammar, runs products, normal forms,
Frobenius operations, idempotent constructions, dumps structure-constant
tables and bases, and drives the verification suites.

Grammar:
    element := term ('+' term)*
    term    := coeff? factor ('*' factor)*
    factor  := 'e[' root ']^(' int ')' | 'f[' root ']^(' int ')'
             | 'H(' idx ',' int ')' | 'mu(' weight ';' level ')' | '1'
    root    := space-separated simple-root coordinates, e.g. e[1 1]
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from typing import List, Optional, Tuple

from .chevalley import StructureConstants
from .frobenius import Frobenius
from .idempotents import mu_lambda
from .isocheck import (
    DESK_SPECS,
    MapSpec,
    enumerate_basis,
    verify,
)
from .rootdata import build_root_system
from .straighten import Engine, PBWElement

_FACTOR = re.compile(
    r"""\s*(?:
        (?P<ef>[ef])\[(?P<root>[-\d ]+)\]\^\((?P<exp>\d+)\)
      | H\((?P<hidx>\d+)\s*,\s*(?P<hdeg>\d+)\)
      | mu\((?P<mulam>[-\d ]+);\s*(?P<mulev>\d+)\)
      | (?P<one>1)
      | (?P<coeff>\d+)
    )\s*""",
    re.VERBOSE,
)


class ParseError(ValueError):
    pass


def parse_element(text: str, engine: Engine, level: int) -> PBWElement:
    """Parse the element grammar; the result is in normal form."""
    out = engine.zero(level)
    for term_text in text.split("+"):
        term = engine.one(level)
        stripped = term_text.strip()
        if not stripped:
            raise ParseError(f"empty term in {text!r}")
        first = True
        for piece in stripped.split("*"):
            m = _FACTOR.fullmatch(piece)
            if m is None:
                raise ParseError(f"cannot parse factor {piece.strip()!r}")
            if m.group("coeff") is not None:
                if not first:
                    raise ParseError("coefficient must lead its term")
                term = term.scale(int(m.group("coeff")))
            elif m.group("one") is not None:
                pass
            elif m.group("ef") is not None:
                root = tuple(int(x) for x in m.group("root").split())
                if len(root) != engine.rs.rank or not engine.rs.is_root(root):
                    raise ParseError(f"unknown root {root} in {piece.strip()!r}")
                if m.group("ef") == "f":
                    root = tuple(-x for x in root)
                factor = engine.divided_power(root, int(m.group("exp")), level)
                term = engine.multiply(term, factor)
            elif m.group("hidx") is not None:
                i = int(m.group("hidx"))
                if not 0 <= i < engine.rs.rank:
                    raise ParseError(f"Cartan index {i} out of range")
                h = engine.binom_h_simple(i, int(m.group("hdeg")), level)
                term = engine.multiply(term, engine.hpart_element(h, level))
            else:
                lam = tuple(int(x) for x in m.group("mulam").split())
                if len(lam) != engine.rs.rank:
                    raise ParseError(f"weight rank mismatch in {piece.strip()!r}")
                n = int(m.group("mulev"))
                term = engine.multiply(term, mu_lambda(engine, lam, n, level))
            first = False
        out = out.add(term)
    return out


def serialize_element(x: PBWElement) -> str:
    """Grammar text for a normal-form element; parses back to itself."""
    engine = x.engine
    rs = engine.rs
    pieces: List[str] = []
    for (a, b) in sorted(x.terms):
        h = x.terms[(a, b)]
        for degs, c in sorted(engine.hpart_to_binomial_basis(h).items()):
            factors: List[str] = []
            if c != 1:
                factors.append(str(c))
            for k, n in enumerate(a):
                if n:
                    root = " ".join(str(v) for v in rs.convex_roots[k])
                    factors.append(f"f[{root}]^({n})")
            for i, n in enumerate(degs):
                if n:
                    factors.append(f"H({i},{n})")
            for k, n in enumerate(b):
                if n:
                    root = " ".join(str(v) for v in rs.convex_roots[k])
                    factors.append(f"e[{root}]^({n})")
            pieces.append("*".join(factors) if factors else "1")
    return " + ".join(pieces) if pieces else "0"


def element_json(x: PBWElement) -> dict:
    engine = x.engine
    terms = []
    for (a, b) in sorted(x.terms):
        h = x.terms[(a, b)]
        hcoeffs = {
            " ".join(str(d) for d in degs): c
            for degs, c in sorted(engine.hpart_to_binomial_basis(h).items())
        }
        terms.append({"f": list(a), "e": list(b), "h": hcoeffs})
    return {"text": serialize_element(x), "terms": terms}


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _engine(args) -> Tuple[Engine, int]:
    rs = build_root_system(args.type)
    return Engine(rs, args.p), args.level


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hyperalg",
        description="Exact hyperalgebra arithmetic and theorem verification.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp, system=True):
        if system:
            sp.add_argument("--type", default="A1", help="root system label")
            sp.add_argument("--p", type=int, default=2, help="prime")
            sp.add_argument("--level", type=int, default=2, help="torus level")
        sp.add_argument("--out", default=None, help="write JSON here")

    sp = sub.add_parser("mul", help="product of two elements")
    sp.add_argument("x")
    sp.add_argument("y")
    common(sp)

    sp = sub.add_parser("normalize", help="normal form of an element")
    sp.add_argument("x")
    common(sp)

    sp = sub.add_parser("fr", help="Frobenius endomorphism")
    sp.add_argument("x")
    sp.add_argument("--r", type=int, default=1)
    common(sp)

    sp = sub.add_parser("frsplit", help="Frobenius splitting")
    sp.add_argument("x")
    sp.add_argument("--r", type=int, default=1)
    common(sp)

    sp = sub.add_parser("mu", help="primitive idempotent")
    sp.add_argument("--lambda", dest="lam", required=True, help='weight, e.g. "1 0"')
    sp.add_argument("--n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("structconsts", help="structure-constant table")
    sp.add_argument("--type", default="A1")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("basis", help="basis of a truncated subalgebra")
    sp.add_argument("--space", default="plus",
                    choices=["plus", "minus", "zero", "borel", "minus-borel", "full"])
    sp.add_argument("--r", type=int, default=1)
    common(sp)

    sp = sub.add_parser("verify", help="certify multiplication isomorphisms")
    sp.add_argument("--statement", default=None)
    sp.add_argument("--type", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--all-desk", action="store_true", dest="all_desk")
    sp.add_argument("--threads", type=int, default=None,
                    help="ignored; specs always run one after another")
    sp.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    try:
        if args.cmd == "mul":
            engine, level = _engine(args)
            x = parse_element(args.x, engine, level)
            y = parse_element(args.y, engine, level)
            _emit(args, element_json(engine.multiply(x, y)))
        elif args.cmd == "normalize":
            engine, level = _engine(args)
            _emit(args, element_json(parse_element(args.x, engine, level)))
        elif args.cmd == "fr":
            engine, level = _engine(args)
            fro = Frobenius(engine)
            x = parse_element(args.x, engine, level)
            _emit(args, element_json(fro.fr_power(x, args.r)))
        elif args.cmd == "frsplit":
            engine, level = _engine(args)
            fro = Frobenius(engine)
            x = parse_element(args.x, engine, level)
            _emit(args, element_json(fro.fr_prime(x, args.r)))
        elif args.cmd == "mu":
            engine, level = _engine(args)
            lam = tuple(int(v) for v in args.lam.split())
            _emit(args, element_json(mu_lambda(engine, lam, args.n, level)))
        elif args.cmd == "structconsts":
            rs = build_root_system(args.type)
            _emit(args, {"type": args.type, "constants": StructureConstants(rs).table()})
        elif args.cmd == "basis":
            engine, level = _engine(args)
            basis = enumerate_basis(engine, args.space, args.r, level)
            _emit(args, {"space": args.space, "r": args.r,
                         "elements": [lab for lab, _ in basis]})
        elif args.cmd == "verify":
            if args.all_desk:
                specs = DESK_SPECS
            else:
                if not (args.statement and args.type) or args.p is None:
                    parser.error("verify needs --statement, --type, --p (or --all-desk)")
                specs = [MapSpec(args.statement, args.type, args.p, args.r, args.n)]
            reports = [verify(s) for s in specs]
            _emit(args, {"reports": [r.to_dict() for r in reports]})
            if not all(r.bijective for r in reports):
                return 1
        return 0
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
