"""Line-oriented text exchange format for digraphs and graphs.

``DIGRAPH 1 <n> <m>`` followed by m lines ``u v`` (arc u -> v, 0-indexed,
written in ascending lexicographic order).  ``GRAPH 1 <n> <m>`` stores each
undirected edge once with u < v.  ``gen --parts`` writes a sidecar part map
with a ``PARTS 1`` header and lines ``<part-name> <v1> <v2> ...``.  A
Hamilton cycle serializes as one line ``CYCLE 1 <n> v0 ... v_{n-1}``.

``parse`` reads text laid out exactly as ``serialize`` writes it in bulk,
on the byte buffer; every other text, and every text with a fault, goes to
the line loop, which alone raises ``FormatError``, so the bulk path changes
no message and no order of the checks.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence, TextIO

import numpy as np

from .core import Digraph, HamiltonCycle, int_rows
from .errors import FormatError

# the header as ``serialize`` writes it; n < 10^9 keeps every flat bit
# index of the packed rows, and every decoded vertex, inside int64
_CANONICAL_HEADER = re.compile(rb"(DIGRAPH|GRAPH) 1 ([0-9]{1,9}) ([0-9]+)\n")
# a longer token is left to the line loop; 18 digits fit int64
_MAX_DIGITS = 18
_BIT = np.array([1 << k for k in range(8)], np.uint8)
_SEPARATORS = np.frombuffer(b" \n", np.uint8)
_DECIMAL = re.compile(r"-?[0-9]+")


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
    g = _parse_canonical(text)
    return g if g is not None else _parse_lines(text)


def _decode(digits: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The decimal tokens that end (exclusive) at ``ends`` with ``lengths``
    digits each, as int64; ``digits`` holds each byte's value minus '0'."""
    value = digits[ends - 1].astype(np.int64)
    for k in range(1, int(lengths.max())):
        longer = np.flatnonzero(lengths > k)
        value[longer] += digits[ends[longer] - 1 - k].astype(np.int64) * 10**k
    return value


def _packed_rows(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The n bit rows, packed little-endian, that add bit ``cols[i]`` to row
    ``rows[i]`` for each i.  A repeated pair carries into another bit, so
    the rows hold fewer set bits than pairs exactly when a pair repeats."""
    width = (n + 7) // 8
    packed = np.zeros(n * width, np.uint8)
    np.add.at(packed, rows * width + (cols >> 3), _BIT[cols & 7])
    return packed.reshape(n, width)


def _parse_canonical(text: str) -> Optional[Digraph]:
    """The digraph of ``text`` if it is laid out exactly as ``serialize``
    writes it (leading zeros and any arc order aside) and has no fault;
    otherwise ``None``.  Apart from the text's bytes and one index per
    token, the only arrays are the n packed rows of n/8 bytes per side."""
    if not text.isascii():
        return None
    buf = text.encode("ascii")
    head = _CANONICAL_HEADER.match(buf)
    if head is None:
        return None
    n, m = int(head[2]), int(head[3])
    body = np.frombuffer(buf, np.uint8, offset=head.end())
    digits = body - np.uint8(ord("0"))
    # m lines "<digits> <digits>\n": the non-digits alternate space and
    # newline, the last byte is the m-th newline, and no token is empty
    seps = np.flatnonzero(digits >= 10)
    if len(seps) != 2 * m or (seps[-1] if m else -1) != len(body) - 1:
        return None
    if m == 0:
        return Digraph._from_rows((0,) * n, (0,) * n)
    if np.any(body[seps].reshape(m, 2) != _SEPARATORS):
        return None
    starts = np.empty_like(seps)
    starts[0], starts[1:] = 0, seps[:-1] + 1
    lengths = seps - starts
    if lengths.min() < 1 or lengths.max() > _MAX_DIGITS:
        return None
    tokens = _decode(digits, seps, lengths)
    u, v = tokens[0::2], tokens[1::2]
    if tokens.max() >= n or np.any(u == v):
        return None
    graph = head[1] == b"GRAPH"
    if graph:
        if np.any(u > v):
            return None
        u, v = np.concatenate((u, v)), np.concatenate((v, u))
    out = _packed_rows(n, u, v)
    if int(np.bitwise_count(out).sum()) != len(u):
        return None  # a repeated arc
    out_rows = tuple(int_rows(out))
    in_rows = out_rows if graph else tuple(int_rows(_packed_rows(n, v, u)))
    return Digraph._from_rows(out_rows, in_rows)


def _parse_lines(text: str) -> Digraph:
    """The line loop: any whitespace layout, and the one path that raises
    ``FormatError``, for the first fault in line order."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 4 or head[0] not in ("DIGRAPH", "GRAPH") or head[1] != "1":
        raise FormatError(f"bad header {lines[0]!r}")
    try:
        n, m = _decimal(head[2]), _decimal(head[3])
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
            u, v = _decimal(parts[0]), _decimal(parts[1])
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


def _decimal(token: str) -> int:
    """``int(token)`` for ASCII digits after an optional '-' only; ``int``
    alone also reads '+', '_' and non-ASCII digits."""
    if not _DECIMAL.fullmatch(token):
        raise ValueError(token)
    return int(token)


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


# --- certificates --------------------------------------------------------


def serialize_cycle(c: HamiltonCycle) -> str:
    return " ".join(["CYCLE", "1", str(len(c.order))] + [str(v) for v in c.order])


def parse_cycle(line: str) -> HamiltonCycle:
    parts = line.split()
    if len(parts) < 3 or parts[0] != "CYCLE" or parts[1] != "1":
        raise FormatError(f"bad cycle record {line!r}")
    try:
        n = _decimal(parts[2])
        order = tuple(_decimal(x) for x in parts[3:])
    except ValueError:
        raise FormatError(f"bad cycle record {line!r}") from None
    if len(order) != n:
        raise FormatError(f"cycle record length mismatch in {line!r}")
    return HamiltonCycle(order)
