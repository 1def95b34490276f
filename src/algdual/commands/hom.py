"""``algctl hom A B --kind K (--count | --list) [--format json|text]``:
count or list the kind-homs A -> B."""

from __future__ import annotations

from .. import algebra, documents
from . import add_format, checked_payload, write_stdout


def add_arguments(p) -> None:
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--kind", required=True,
                   choices=documents.ALGEBRA_KINDS + documents.SPACE_KINDS)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true")
    group.add_argument("--list", action="store_true")
    add_format(p)


def run(args) -> int:
    _, a = checked_payload(args.a)
    _, b = checked_payload(args.b)
    homs = algebra.enumerate_homs(a, b, args.kind)
    if args.format == "json":
        import json

        data = {"count": len(homs)}
        if args.list:
            data["homs"] = [list(h.map) for h in homs]
        write_stdout(json.dumps(data, sort_keys=True) + "\n")
    elif args.list:
        write_stdout("".join(" ".join(map(str, h.map)) + "\n" for h in homs))
    else:
        write_stdout(f"{len(homs)}\n")
    return 0
