"""``algctl gen [--size N] [--fibers K] [--seed S] [-o OUT]``: a seeded
random involutive bisemilattice document."""

from __future__ import annotations

import sys

from .. import documents
from . import write_output

# Over an index of four or more elements the bottom fiber holds all
# max_atoms + 1 >= 3 generators (8 elements) and at least one more fiber sits
# above it, so no such draw is smaller than this.
_GEN_MIN_WIDE = 9
_GEN_DRAWS = 1000


def add_arguments(p) -> None:
    p.add_argument("--size", type=int, default=12,
                   help="maximum carrier size (default 12)")
    p.add_argument("--fibers", type=int, default=0,
                   help="number of Boolean fibers (default: random 1-3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")


def run(args) -> int:
    if args.size < 1 or args.fibers < 0 or (
            args.fibers > 3 and args.size < _GEN_MIN_WIDE):
        print(f"error: no instance with --fibers {args.fibers} has at most "
              f"{args.size} elements (need --size >= 1, --fibers >= 0, and "
              f"--size >= {_GEN_MIN_WIDE} when --fibers > 3)", file=sys.stderr)
        return 2
    from random import Random

    from ..generate import random_ibsl

    rng = Random(args.seed)
    fibers = args.fibers if args.fibers else rng.randint(1, 3)
    max_atoms = 2
    while fibers * (1 << max_atoms + 1) <= args.size and max_atoms < 4:
        max_atoms += 1
    for _ in range(_GEN_DRAWS):
        algebra = random_ibsl(rng, max_fibers=fibers, max_atoms=max_atoms)
        if algebra.size <= args.size:
            write_output(documents.dumps_document(algebra, "ibsl"),
                         args.output)
            return 0
    print(f"error: none of {_GEN_DRAWS} draws with --fibers {fibers} had at "
          f"most {args.size} elements; raise --size or lower --fibers",
          file=sys.stderr)
    return 2
