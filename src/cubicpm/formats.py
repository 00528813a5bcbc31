"""Edge-list text format and graph6 import.

The native format is plain text: a first line "n m" followed by m lines
"u v" with 0-based vertex ids.  The writer preserves edge order exactly,
since edge identity is positional.  graph6 covers simple graphs only and is
import-only.
"""

from __future__ import annotations

from .errors import CubicpmError
from .multigraph import Multigraph, from_edge_list


def write_edge_list(g: Multigraph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Multigraph:
    rows = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln]
    if not rows:
        raise CubicpmError("empty edge-list input")
    n, m = _int_pair(rows[0], "expected 'n m' header")
    if len(rows) - 1 != m:
        raise CubicpmError(f"header promises {m} edges, found {len(rows) - 1}")
    return from_edge_list(n, [_int_pair(ln, "bad edge line") for ln in rows[1:]])


def _int_pair(line: str, what: str) -> tuple[int, int]:
    """The two non-negative integers of one line, or an error naming the line."""
    parts = line.split()
    if len(parts) == 2 and all(p.isdecimal() for p in parts):
        return int(parts[0]), int(parts[1])
    raise CubicpmError(f"{what}, got {line!r}")


def read_graph6(text: str) -> Multigraph:
    """Decode one graph6 string (simple graphs only)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if s.startswith(":") or s.startswith(";"):
        raise CubicpmError("sparse6/incremental input is not supported, use graph6")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= x <= 63 for x in data):
        raise CubicpmError("invalid graph6 character")
    if not data:
        raise CubicpmError("empty graph6 input")
    if data[0] < 63:
        n, rest = data[0], data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        rest = data[4:]
    elif len(data) >= 8:
        n = 0
        for x in data[2:8]:
            n = (n << 6) | x
        rest = data[8:]
    else:
        raise CubicpmError("truncated graph6 size header")
    nbits = n * (n - 1) // 2
    if len(rest) < (nbits + 5) // 6:
        raise CubicpmError("truncated graph6 bit vector")
    pairs = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            bit = (rest[k // 6] >> (5 - k % 6)) & 1
            if bit:
                pairs.append((i, j))
            k += 1
    return from_edge_list(n, pairs)
