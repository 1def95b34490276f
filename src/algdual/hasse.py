"""Hasse diagrams as Graphviz DOT text.

Only covering edges are emitted (transitive reduction) and nodes/edges are
listed in a stable order, so outputs diff cleanly.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Optional, Sequence

from .algebra import bitset

if TYPE_CHECKING:
    from .orders import OrderMatrix


def covering_edges(leq: OrderMatrix) -> list[tuple[int, int]]:
    """Pairs (i, j) with j covering i: i < j with nothing strictly between,
    in lexicographic order.  Over the related pairs i != j, j covers i when
    up(i) and down(j), as bit sets, meet within {i, j}."""
    down = [d & ~(1 << j) for j, d in enumerate(map(bitset, zip(*leq)))]
    out = []
    for i, row in enumerate(leq):
        up = bitset(row) & ~(1 << i)
        out += [(i, j) for j in compress(range(len(leq)), row)
                if i != j and not up & down[j]]
    return out


def _dot_string(text: str) -> str:
    """``text`` escaped for a double-quoted DOT string."""
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\r", "\\r").replace("\n", "\\n"))


def dot_hasse(leq: OrderMatrix,
              labels: Optional[Sequence[str]] = None) -> str:
    n = len(leq)
    if labels is None:
        labels = [str(i) for i in range(n)]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i in range(n):
        lines.append(f'  n{i} [label="{_dot_string(labels[i])}"];')
    for i, j in covering_edges(leq):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
