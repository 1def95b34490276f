"""``algctl iso A B --kind K``: the first isomorphism A -> B, if any."""

from __future__ import annotations

import sys

from .. import algebra, documents
from . import checked_payload, write_stdout


def add_arguments(p) -> None:
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--kind", required=True,
                   choices=documents.ALGEBRA_KINDS + documents.SPACE_KINDS)


def run(args) -> int:
    _, a = checked_payload(args.a)
    _, b = checked_payload(args.b)
    iso = algebra.find_isomorphism(a, b, args.kind)
    if iso is None:
        print("no isomorphism", file=sys.stderr)
        return 1
    write_stdout(" ".join(map(str, iso.map)) + "\n")
    return 0
