"""Line-oriented text exchange format for digraphs and graphs.

``DIGRAPH 1 <n> <m>`` followed by m lines ``u v`` (arc u -> v, 0-indexed,
written in ascending lexicographic order).  ``GRAPH 1 <n> <m>`` stores each
undirected edge once with u < v.  An optional sidecar part map uses a
``PARTS 1`` header and lines ``<part-name> <v1> <v2> ...``.

Certificates serialize as single lines: ``CYCLE 1 <n> v0 ... v_{n-1}``,
``FACTOR 1 <cycles> <len> v... [<len> v...]``, ``EMBED 1 <n> i0 ...``.
"""

from __future__ import annotations

from typing import Optional, Sequence, TextIO

from .core import CycleFactor, Digraph, HamiltonCycle
from .errors import FormatError


def serialize(g: Digraph, *, as_graph: bool = False) -> str:
    """Render a digraph (or an undirected graph, if symmetric) as text."""
    if as_graph:
        if not g.is_symmetric():
            raise FormatError("GRAPH format needs a symmetric digraph")
        edges = g.undirected_edges()
        lines = [f"GRAPH 1 {g.n} {len(edges)}"]
        lines += [f"{u} {v}" for u, v in edges]
    else:
        arcs = g.arcs()
        lines = [f"DIGRAPH 1 {g.n} {len(arcs)}"]
        lines += [f"{u} {v}" for u, v in arcs]
    return "\n".join(lines) + "\n"


def parse(text: str) -> Digraph:
    """Parse either format; GRAPH edges come back as 2-cycles."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 4 or head[0] not in ("DIGRAPH", "GRAPH") or head[1] != "1":
        raise FormatError(f"bad header {lines[0]!r}")
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError:
        raise FormatError(f"bad header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    if len(lines) - 1 != m:
        raise FormatError(f"header promises {m} lines, found {len(lines) - 1}")
    undirected = head[0] == "GRAPH"
    out = [0] * n
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad arc line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"bad arc line {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"vertex out of range in {ln!r}")
        if u == v:
            raise FormatError(f"self-loop in {ln!r}")
        if undirected and u > v:
            raise FormatError(f"GRAPH edges need u < v, got {ln!r}")
        if out[u] >> v & 1:
            raise FormatError(f"duplicate arc {ln!r}")
        out[u] |= 1 << v
        if undirected:
            out[v] |= 1 << u
    return Digraph.from_out_masks(out)


def load(f: TextIO | str) -> Digraph:
    if isinstance(f, str):
        with open(f, "r", encoding="ascii") as fh:
            return parse(fh.read())
    return parse(f.read())


def dump(g: Digraph, f: TextIO | str, *, as_graph: bool = False) -> None:
    text = serialize(g, as_graph=as_graph)
    if isinstance(f, str):
        with open(f, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        f.write(text)


# --- part maps -----------------------------------------------------------


def serialize_parts(parts: dict[str, Sequence[int]]) -> str:
    lines = ["PARTS 1"]
    for name in parts:
        if not name or any(c.isspace() for c in name):
            raise FormatError(f"bad part name {name!r}")
        lines.append(" ".join([name] + [str(v) for v in parts[name]]))
    return "\n".join(lines) + "\n"


def parse_parts(text: str, n: Optional[int] = None) -> dict[str, list[int]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["PARTS", "1"]:
        raise FormatError("missing PARTS 1 header")
    out: dict[str, list[int]] = {}
    for ln in lines[1:]:
        name, *rest = ln.split()
        if name in out:
            raise FormatError(f"duplicate part {name!r}")
        try:
            verts = [int(x) for x in rest]
        except ValueError:
            raise FormatError(f"bad part line {ln!r}") from None
        if n is not None and any(not 0 <= v < n for v in verts):
            raise FormatError(f"vertex out of range in part {name!r}")
        out[name] = verts
    return out


# --- certificates --------------------------------------------------------


def serialize_cycle(c: HamiltonCycle) -> str:
    return " ".join(["CYCLE", "1", str(len(c.order))] + [str(v) for v in c.order])


def parse_cycle(line: str) -> HamiltonCycle:
    parts = line.split()
    if len(parts) < 3 or parts[0] != "CYCLE" or parts[1] != "1":
        raise FormatError(f"bad cycle record {line!r}")
    try:
        n = int(parts[2])
        order = tuple(int(x) for x in parts[3:])
    except ValueError:
        raise FormatError(f"bad cycle record {line!r}") from None
    if len(order) != n:
        raise FormatError(f"cycle record length mismatch in {line!r}")
    return HamiltonCycle(order)


def serialize_factor(f: CycleFactor) -> str:
    parts = ["FACTOR", "1", str(len(f.cycles))]
    for cyc in f.cycles:
        parts.append(str(len(cyc)))
        parts += [str(v) for v in cyc]
    return " ".join(parts)


def parse_factor(line: str) -> CycleFactor:
    parts = line.split()
    if len(parts) < 3 or parts[0] != "FACTOR" or parts[1] != "1":
        raise FormatError(f"bad factor record {line!r}")
    try:
        vals = [int(x) for x in parts[2:]]
    except ValueError:
        raise FormatError(f"bad factor record {line!r}") from None
    count, vals = vals[0], vals[1:]
    cycles = []
    for _ in range(count):
        if not vals:
            raise FormatError(f"truncated factor record {line!r}")
        ln, vals = vals[0], vals[1:]
        if len(vals) < ln:
            raise FormatError(f"truncated factor record {line!r}")
        cycles.append(tuple(vals[:ln]))
        vals = vals[ln:]
    if vals:
        raise FormatError(f"trailing values in factor record {line!r}")
    return CycleFactor(tuple(cycles))


def serialize_embedding(phi: Sequence[int]) -> str:
    return " ".join(["EMBED", "1", str(len(phi))] + [str(v) for v in phi])


def parse_embedding(line: str) -> tuple[int, ...]:
    parts = line.split()
    if len(parts) < 3 or parts[0] != "EMBED" or parts[1] != "1":
        raise FormatError(f"bad embedding record {line!r}")
    try:
        n = int(parts[2])
        phi = tuple(int(x) for x in parts[3:])
    except ValueError:
        raise FormatError(f"bad embedding record {line!r}") from None
    if len(phi) != n:
        raise FormatError(f"embedding record length mismatch in {line!r}")
    return phi
