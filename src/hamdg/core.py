"""Digraph representation and structural primitives.

Vertices are dense 0-indexed integers.  Adjacency is stored as per-vertex
bit rows (Python ints used as bit vectors), which keeps membership tests,
neighbourhood intersections and subset scans cheap.  Everything here is
immutable after construction; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ArcMissing, BadParams, BudgetExceeded, NotAMatching

INDEPENDENCE_CAP = 30

# in-rows of digraphs with at least this many vertices come from a numpy
# bit transpose, which costs about 20 µs a call plus up to 1 µs a vertex;
# the per-arc loop costs about 0.25 µs an arc, so it stays below the gate,
# where the cover and decide paths build small sparse digraphs by the
# thousand
TRANSPOSE_MIN_N = 32
# bytes of unpacked bits per transpose block, so the transient memory is
# one block on top of the O(n^2/8) packed rows
_TRANSPOSE_BLOCK_BYTES = 8 << 20


def seeded_rng(seed: int) -> np.random.Generator:
    """The Philox generator that every seeded routine draws from.  Philox
    takes no negative seed, so one is a bad parameter."""
    if seed < 0:
        raise BadParams(f"need seed >= 0, got seed={seed}")
    return np.random.Generator(np.random.Philox(seed))


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def popcount(mask: int) -> int:
    return mask.bit_count()


def int_rows(packed: np.ndarray) -> list[int]:
    """Bit rows from a 2-D uint8 array of rows packed little-endian (as
    ``np.packbits(..., axis=1, bitorder="little")`` gives them)."""
    data, width = packed.tobytes(), packed.shape[1]
    return [
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(len(packed))
    ]


class Digraph:
    """A loopless digraph; 2-cycles allowed (opposite arcs between a pair)."""

    __slots__ = ("n", "out", "inn")

    def __init__(self, n: int, arcs: Sequence[tuple[int, int]] = ()):
        out = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise BadParams(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise BadParams(f"self-loop at {u}")
            out[u] |= 1 << v
        self.n = n
        self.out = tuple(out)
        self.inn = self._derive_in(n, self.out)

    @staticmethod
    def _derive_in(n: int, out: Sequence[int]) -> tuple[int, ...]:
        """In-rows from out-rows: bit u of row v is bit v of ``out[u]``."""
        if n < TRANSPOSE_MIN_N:
            inn = [0] * n
            for u in range(n):
                m = out[u]
                while m:
                    b = m & -m
                    inn[b.bit_length() - 1] |= 1 << u
                    m ^= b
            return tuple(inn)
        width = (n + 7) // 8
        rows = np.frombuffer(
            b"".join(row.to_bytes(width, "little") for row in out), np.uint8
        ).reshape(n, width)
        cols = np.empty((n, width), np.uint8)
        # blocks of a multiple of 8 rows, so each block fills whole bytes of
        # the transposed rows; the last block's pad bits are zero
        step = max(8, _TRANSPOSE_BLOCK_BYTES // n // 8 * 8)
        for lo in range(0, n, step):
            block = np.unpackbits(
                rows[lo : lo + step], axis=1, count=n, bitorder="little"
            )
            cols[:, lo // 8 : (lo + step) // 8] = np.packbits(
                block.T, axis=1, bitorder="little"
            )
        return tuple(int_rows(cols))

    @classmethod
    def from_out_masks(cls, masks: Sequence[int]) -> "Digraph":
        g = cls.__new__(cls)
        g.n = len(masks)
        for v, m in enumerate(masks):
            if m >> g.n:
                raise BadParams("mask exceeds vertex range")
            if m & (1 << v):
                raise BadParams(f"self-loop at {v}")
        g.out = tuple(masks)
        g.inn = cls._derive_in(g.n, g.out)
        return g

    # --- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        return sum(popcount(row) for row in self.out)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs in ascending lexicographic order."""
        return [(u, v) for u in range(self.n) for v in bits(self.out[u])]

    def out_deg(self, v: int) -> int:
        return popcount(self.out[v])

    def in_deg(self, v: int) -> int:
        return popcount(self.inn[v])

    def total_deg(self, v: int) -> int:
        return self.out_deg(v) + self.in_deg(v)

    # --- derived graphs --------------------------------------------------

    def with_arcs(self, arcs: Sequence[tuple[int, int]]) -> "Digraph":
        out = list(self.out)
        for u, v in arcs:
            if u == v:
                raise BadParams(f"self-loop at {u}")
            out[u] |= 1 << v
        return Digraph.from_out_masks(out)

    def without_arcs(self, arcs: Sequence[tuple[int, int]]) -> "Digraph":
        out = list(self.out)
        for u, v in arcs:
            out[u] &= ~(1 << v)
        return Digraph.from_out_masks(out)

    def reverse(self) -> "Digraph":
        return Digraph.from_out_masks(self.inn)

    def symmetrize(self) -> "Digraph":
        """Underlying graph as a symmetric digraph."""
        return Digraph.from_out_masks([o | i for o, i in zip(self.out, self.inn)])

    def is_symmetric(self) -> bool:
        return self.out == self.inn

    def undirected_edges(self) -> list[tuple[int, int]]:
        """Unordered adjacent pairs {u,v} with u < v."""
        return [
            (u, v)
            for u in range(self.n)
            for v in bits((self.out[u] | self.inn[u]) >> (u + 1))
            for v in [v + u + 1]
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.out == other.out

    def __hash__(self) -> int:
        return hash(self.out)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


# --- certificate objects -------------------------------------------------


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint arcs."""

    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.arcs:
            if u in seen or v in seen or u == v:
                raise NotAMatching(f"shared endpoint in {self.arcs}")
            seen.add(u)
            seen.add(v)

    def vertices(self) -> set[int]:
        return {x for a in self.arcs for x in a}

    def __len__(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class HamiltonCycle:
    """Cyclic order on all vertices of the host; validate against the host."""

    order: tuple[int, ...]

    def arcs(self) -> list[tuple[int, int]]:
        o = self.order
        return [(o[i], o[(i + 1) % len(o)]) for i in range(len(o))]

    def is_valid(self, g: Digraph) -> bool:
        if sorted(self.order) != list(range(g.n)):
            return False
        return all(g.has_arc(u, v) for u, v in self.arcs())

    def canonical(self) -> "HamiltonCycle":
        """Rotate so the smallest vertex comes first."""
        i = self.order.index(min(self.order))
        return HamiltonCycle(self.order[i:] + self.order[:i])


@dataclass(frozen=True)
class CycleFactor:
    """Vertex-disjoint directed cycles covering all vertices."""

    cycles: tuple[tuple[int, ...], ...]

    def is_valid(self, g: Digraph, min_len: int = 2) -> bool:
        seen: set[int] = set()
        for cyc in self.cycles:
            if len(cyc) < min_len:
                return False
            for i, u in enumerate(cyc):
                v = cyc[(i + 1) % len(cyc)]
                if u in seen or not g.has_arc(u, v):
                    return False
                seen.add(u)
        return seen == set(range(g.n))

    def arcs(self) -> list[tuple[int, int]]:
        return [
            (c[i], c[(i + 1) % len(c)]) for c in self.cycles for i in range(len(c))
        ]

    @classmethod
    def from_succ(cls, succ) -> "CycleFactor":
        """The cycles of the permutation ``v -> succ[v]`` on 0..len(succ)-1,
        each listed from its smallest vertex, in order of that vertex."""
        n = len(succ)
        seen = [False] * n
        cycles = []
        for v in range(n):
            if seen[v]:
                continue
            cyc = []
            x = v
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = succ[x]
            cycles.append(tuple(cyc))
        return cls(tuple(cycles))


# --- degrees and classes -------------------------------------------------


def semidegrees(g: Digraph) -> tuple[int, int, int]:
    """(min outdegree, min indegree, min semidegree)."""
    dplus = min(map(int.bit_count, g.out), default=0)
    dminus = min(map(int.bit_count, g.inn), default=0)
    return dplus, dminus, min(dplus, dminus)


@dataclass(frozen=True)
class DegreeSequencePair:
    out_seq: tuple[int, ...]
    in_seq: tuple[int, ...]


def degree_sequences(g: Digraph) -> DegreeSequencePair:
    """Out- and in-degree sequences, each sorted ascending (decoupled)."""
    return DegreeSequencePair(
        tuple(sorted(map(int.bit_count, g.out))),
        tuple(sorted(map(int.bit_count, g.inn))),
    )


def classify(g: Digraph) -> str:
    """One of 'undirected', 'tournament', 'oriented', 'digraph'."""
    if not is_oriented(g):
        return "undirected" if g.is_symmetric() else "digraph"
    return "tournament" if is_tournament(g) else "oriented"


def is_oriented(g: Digraph) -> bool:
    return not any(g.out[v] & g.inn[v] for v in range(g.n))


def is_tournament(g: Digraph) -> bool:
    # no pair carries two arcs, so n(n-1)/2 arcs cover every pair
    return is_oriented(g) and g.m == g.n * (g.n - 1) // 2


# --- connectivity --------------------------------------------------------


def _reach(adj: Sequence[int], start_mask: int, within: int = -1) -> int:
    """``start_mask`` plus every vertex reachable from it along arcs into
    ``within`` (breadth first over bit rows)."""
    seen = frontier = start_mask
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = new & within & ~seen
        seen |= frontier
    return seen


def is_strongly_connected(g: Digraph) -> bool:
    if g.n == 0:
        raise BadParams("empty digraph")
    full = (1 << g.n) - 1
    return _reach(g.out, 1) == full and _reach(g.inn, 1) == full


def _vertex_disjoint_paths(g: Digraph, s: int, t: int, limit: int) -> int:
    """min(limit, the number of internally vertex-disjoint s->t paths), for
    s, t with no arc s->t.

    Unit-capacity augmenting paths on the vertex-split network (v_in -> v_out
    of capacity 1 for v other than s, t; arcs u_out -> v_in unbounded), with
    the flow kept as one bit row per vertex: ``fin[v]`` holds the tails of
    the flow-carrying arcs into v.  An inner vertex carries flow iff
    ``fin[v]`` is non-zero, and then its one bit is the vertex before it on
    its path; that is all the state the residual network needs.
    The flow starts from the disjoint two-arc paths s -> v -> t, one bit-row
    AND; each later search is a breadth-first sweep over in-nodes (ids v)
    and out-nodes (ids v + n) and adds one path, so a call costs
    O(limit * n) bit-row operations."""
    n = g.n
    out = g.out
    fin = [0] * n
    flow = 0
    for v in bits(out[s] & g.inn[t]):  # the paths s -> v -> t are disjoint
        if flow == limit:
            return flow
        fin[v] = 1 << s
        fin[t] |= 1 << v
        flow += 1
    while flow < limit:
        parent = [-1] * (2 * n)
        seen_in, seen_out = 1 << s, 1 << s
        front_in, front_out = 0, 1 << s
        while front_in or front_out:
            new_in = new_out = 0
            for u in bits(front_out):
                # residual arcs u_out -> v_in, then u_out -> u_in if u carries flow
                cand = out[u] & ~seen_in
                for v in bits(cand):
                    parent[v] = u + n
                seen_in |= cand
                new_in |= cand
                if fin[u] and not seen_in >> u & 1:
                    parent[u] = u + n
                    seen_in |= 1 << u
                    new_in |= 1 << u
            if seen_in >> t & 1:
                break
            for v in bits(front_in):
                # v_in -> v_out if v is free, else back along its flow arc
                w = fin[v].bit_length() - 1 if fin[v] else v
                if not seen_out >> w & 1:
                    parent[w + n] = v
                    seen_out |= 1 << w
                    new_out |= 1 << w
            front_in, front_out = new_in, new_out
        if not seen_in >> t & 1:
            return flow
        x = t
        while x != s + n:
            p = parent[x]
            if p >= n and x < n and p - n != x:  # forward arc (p - n, x)
                fin[x] |= 1 << (p - n)
            elif p < n and x >= n and x - n != p:  # cancel flow arc (x - n, p)
                fin[p] &= ~(1 << (x - n))
            x = p
        flow += 1
    return flow


def vertex_connectivity(g: Digraph) -> int:
    """Size of the smallest vertex set whose removal leaves a non-strongly
    connected digraph or a single vertex.

    Kappa is n - 1 for a complete digraph and otherwise the least s,t max
    flow over ordered pairs with no arc s->t (Menger).  Only pairs with s or
    t below best are run, best being the least flow so far (Even & Tarjan's
    source-set reduction), and each flow stops once it reaches best.
    This is exact: a minimum separator X has kappa vertices, so one vertex v
    of 0..kappa lies outside X; G - X is not strongly connected, so some u
    outside X is not reached from v or does not reach v there, and the flow
    for (v, u) or (u, v) is at most |X|.  Every flow is at least kappa, so
    best >= kappa throughout: the loop runs vertex kappa unless best has
    already come down to kappa."""
    if g.n < 2:
        raise BadParams("need n >= 2")
    best = g.n - 1
    for i in range(g.n):
        if i >= best:
            break
        for j in range(i + 1, g.n):  # pairs with j < i ran when i was j
            for s, t in ((i, j), (j, i)):
                if not g.has_arc(s, t):
                    best = min(best, _vertex_disjoint_paths(g, s, t, best))
    return best


# --- independence --------------------------------------------------------


def _max_independent_set(n: int, adj: Sequence[int]) -> int:
    """Size of a maximum independent set; branch and bound."""
    best = 0

    def grow(mask: int, size: int) -> None:
        nonlocal best
        if size + popcount(mask) <= best:
            return
        if mask == 0:
            best = size
            return
        # pivot on the max-degree vertex inside mask
        v = max(bits(mask), key=lambda x: popcount(adj[x] & mask))
        grow(mask & ~(1 << v) & ~adj[v], size + 1)
        grow(mask & ~(1 << v), size)

    # greedy initial bound
    mask = (1 << n) - 1
    while mask:
        v = min(bits(mask), key=lambda x: popcount(adj[x] & mask))
        best += 1
        mask &= ~(1 << v) & ~adj[v]
    grow((1 << n) - 1, 0)
    return best


def independence_numbers(g: Digraph) -> tuple[int, int]:
    """(alpha_0, alpha_2): largest arc-free set / largest 2-cycle-free set."""
    if g.n > INDEPENDENCE_CAP:
        raise BudgetExceeded(f"n={g.n} above independence cap {INDEPENDENCE_CAP}")
    any_adj = [g.out[v] | g.inn[v] for v in range(g.n)]
    two_adj = [g.out[v] & g.inn[v] for v in range(g.n)]
    return _max_independent_set(g.n, any_adj), _max_independent_set(g.n, two_adj)


def dominated_row(g: Digraph, x: int) -> int:
    """The vertices that share an in-neighbour with ``x``: the union of the
    out-rows of its in-neighbours (``x`` itself included if it has one)."""
    row = 0
    for w in bits(g.inn[x]):
        row |= g.out[w]
    return row


def dominated_pairs(g: Digraph) -> list[tuple[int, int]]:
    """Unordered pairs with a common in-neighbour, ascending order."""
    return [
        (x, y) for x in range(g.n) for y in bits(dominated_row(g, x) & (-2 << x))
    ]


# --- transformations -----------------------------------------------------


def contract_matching(
    g: Digraph, matching: Matching
) -> tuple[Digraph, Callable[[HamiltonCycle], HamiltonCycle]]:
    """Contract each matching arc x->y into a vertex with x's in-set and
    y's out-set.  Returns the contraction plus a lift from Hamilton cycles
    of the contraction to Hamilton cycles of ``g`` containing the matching.
    """
    for u, v in matching.arcs:
        if not g.has_arc(u, v):
            raise ArcMissing(f"({u},{v}) not in host")
    tails = {u for u, _ in matching.arcs}
    heads = {v for _, v in matching.arcs}
    keep = [v for v in range(g.n) if v not in tails and v not in heads]
    # new vertex order: untouched vertices first, then one per matching arc
    expansion: list[tuple[int, ...]] = [(v,) for v in keep]
    for u, v in matching.arcs:
        expansion.append((u, v))
    nn = len(expansion)

    # Arcs into the contraction target exist iff they entered x;
    # arcs out exist iff they left y.  Arcs at the discarded side vanish.
    in_target = {exp[0]: i for i, exp in enumerate(expansion)}
    out_source = {exp[-1]: i for i, exp in enumerate(expansion)}
    arcs = []
    for u, v in g.arcs():
        if u in out_source and v in in_target:
            a, b = out_source[u], in_target[v]
            if a != b:
                arcs.append((a, b))
    contracted = Digraph(nn, sorted(set(arcs)))

    def lift(h: HamiltonCycle) -> HamiltonCycle:
        order: list[int] = []
        for w in h.order:
            order.extend(expansion[w])
        return HamiltonCycle(tuple(order))

    return contracted, lift


def blow_up(g: Digraph, sizes: Sequence[int]) -> tuple[Digraph, list[list[int]]]:
    """Replace each vertex by an independent set; insert a complete
    one-way bipartite arc set along every original arc.  Returns the
    blow-up and the per-original-vertex part map.
    """
    if len(sizes) != g.n or any(s <= 0 for s in sizes):
        raise BadParams("sizes must be positive, one per vertex")
    parts: list[list[int]] = []
    nxt = 0
    for s in sizes:
        parts.append(list(range(nxt, nxt + s)))
        nxt += s
    arcs = []
    for u, v in g.arcs():
        for a in parts[u]:
            for b in parts[v]:
                arcs.append((a, b))
    return Digraph(nxt, arcs), parts
