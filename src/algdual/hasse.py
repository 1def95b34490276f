"""Hasse diagrams as Graphviz DOT text.

Only covering edges are emitted (transitive reduction) and nodes/edges are
listed in a stable order, so outputs diff cleanly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .orders import OrderMatrix


def covering_edges(leq: OrderMatrix) -> list[tuple[int, int]]:
    """Pairs (i, j) with j covering i: i < j with nothing strictly between."""
    n = len(leq)
    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(k not in (i, j) and leq[i][k] and leq[k][j]
                   for k in range(n)):
                continue
            out.append((i, j))
    return sorted(out)


def _dot_string(text: str) -> str:
    """``text`` escaped for a double-quoted DOT string."""
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\r", "\\r").replace("\n", "\\n"))


def dot_hasse(leq: OrderMatrix, labels: Optional[Sequence[str]] = None,
              name: str = "hasse") -> str:
    n = len(leq)
    if labels is None:
        labels = [str(i) for i in range(n)]
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i in range(n):
        lines.append(f'  n{i} [label="{_dot_string(labels[i])}"];')
    for i, j in covering_edges(leq):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
