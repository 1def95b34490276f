"""``algctl hasse FILE --order {join,meet,box} [-o OUT]``: a Hasse diagram
of one of the document's orders, in DOT."""

from __future__ import annotations

from ..algebra import resolve
from ..documents import kind_entry
from ..errors import AlgebraError
from ..hasse import dot_hasse
from . import checked_payload, write_output


def add_arguments(p) -> None:
    p.add_argument("file")
    p.add_argument("--order", choices=("join", "meet", "box"), default="join")
    p.add_argument("-o", "--output")


def run(args) -> int:
    kind, obj = checked_payload(args.file)
    entry = kind_entry(kind, obj)
    order = entry.get("hasse", {}).get(args.order)
    if order is None:
        raise AlgebraError(entry.get("hasse_refusal",
                                     f"no order diagram for kind {kind!r}"))
    write_output(dot_hasse(resolve(order)(obj), getattr(obj, "names", None)),
                 args.output)
    return 0
