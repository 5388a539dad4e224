"""Command line: `sixvertex classify a,b,c,x,y,z` prints the trichotomy
verdict of one signature; `sixvertex eval FILE` (or `-` for standard
input) reads an instance in the `sixvertex-instance v1` format that
sixvertex.instance.serialize_instance describes and prints its exact
Holant value.  A malformed signature or instance, an instance file that
cannot be read, or an instance with no polynomial route, exits with
status 2 and the reason."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .classify import Condition, classify
from .instance import parse_instance
from .route import NoPolynomialRoute, evaluate
from .scalar import format_scalar
from .signature import parse_signature


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="sixvertex", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("classify", help="verdict of one signature").add_argument(
        "signature", help="a,b,c,x,y,z"
    )
    commands.add_parser("eval", help="exact Holant value of an instance").add_argument(
        "file", help="instance file, or - for standard input"
    )
    args = parser.parse_args(argv)
    if args.command == "classify":
        try:
            f = parse_signature(args.signature)
        except ValueError as exc:
            parser.error(str(exc))
        verdict = classify(f)
        print(f"planar: {verdict.planar_class.value}")
        print(f"general: {verdict.general_class.value}")
        names = [c.value for c in Condition if c in verdict.witnesses]
        print("witnesses: " + (" ".join(names) or "none"))
        return 0
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file) as handle:
                text = handle.read()
        except OSError as exc:
            parser.error(str(exc))
    try:
        inst = parse_instance(text)
    except ValueError as exc:  # MapError included
        parser.error(str(exc))
    try:
        value = evaluate(inst)
    except NoPolynomialRoute as exc:
        print(exc, file=sys.stderr)
        return 2
    print(format_scalar(value))
    return 0


if __name__ == "__main__":
    sys.exit(main())
