"""Digraph representation and structural primitives.

Vertices are dense 0-indexed integers.  Adjacency is stored as per-vertex
bit rows (Python ints used as bit vectors), which keeps membership tests,
neighbourhood intersections and subset scans cheap.  A digraph never
changes after construction; its in-rows, its out- and in-degrees and
whether it is oriented are derived on their first read and cached.
Operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ArcMissing, BadParams, BudgetExceeded, NotAMatching

DEFAULT_BUDGET = 10**8

# in-rows of digraphs with at least this many vertices come from a numpy
# bit transpose, which costs about 20 µs a call plus up to 1 µs a vertex;
# the per-arc loop costs about 0.25 µs an arc, so it stays below the gate,
# where the cover and decide paths build small sparse digraphs by the
# thousand
TRANSPOSE_MIN_N = 32
# bytes of unpacked bits per transpose block, so the transient memory is
# one block on top of the O(n^2/8) packed rows
_TRANSPOSE_BLOCK_BYTES = 8 << 20


class _Budget:
    """The search nodes left; ``tick`` is called once per node and raises
    ``BudgetExceeded`` on the first node past the budget.  It holds no
    other state, so searches sharing it see only each other's nodes."""

    __slots__ = ("left",)

    def __init__(self, nodes: int):
        if nodes < 0:
            raise BadParams(f"budget must be at least 0, got {nodes}")
        self.left = nodes

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("search node budget exhausted")


def as_budget(budget: int | _Budget) -> _Budget:
    """``budget`` itself if it is a ``_Budget``, so that every sub-search of
    one public call draws on it; else a new budget of that many nodes."""
    return budget if isinstance(budget, _Budget) else _Budget(budget)


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
    """A loopless digraph; 2-cycles allowed (opposite arcs between a pair).

    ``inn``, the degree tuples ``out_degrees`` and ``in_degrees`` and the
    flag ``oriented`` (no 2-cycle) stay unset until their first read
    derives them into the slot (``_DERIVED``), so a digraph whose in-rows
    nothing reads pays no transpose, and the rules of one decision count
    its degrees once.  A derived digraph is a new object and derives its
    own.  ``_strong`` memoises ``is_strongly_connected``: ``None`` until
    its first call on this digraph."""

    __slots__ = ("n", "out", "inn", "out_degrees", "in_degrees", "oriented", "_strong")

    def __init__(self, n: int, arcs: Sequence[tuple[int, int]] = ()):
        out = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise BadParams(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise BadParams(f"self-loop at {u}")
            out[u] |= 1 << v
        self.n, self.out, self._strong = n, tuple(out), None

    def __getattr__(self, name: str):
        # only an unset slot gets here: a derived fact before its first read
        try:
            derive = _DERIVED[name]
        except KeyError:
            raise AttributeError(name) from None
        value = derive(self)
        setattr(self, name, value)
        return value

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
        n = len(masks)
        for v, m in enumerate(masks):
            if m >> n:
                raise BadParams("mask exceeds vertex range")
            if m & (1 << v):
                raise BadParams(f"self-loop at {v}")
        return cls._from_rows(tuple(masks))

    @classmethod
    def _from_rows(cls, out: tuple[int, ...], inn: Optional[tuple] = None) -> "Digraph":
        """The digraph of out-rows ``out``, already checked to be in range
        and loopless; ``inn``, their transpose, if the caller has it."""
        g = cls.__new__(cls)
        g.n, g.out, g._strong = len(out), out, None
        if inn is not None:
            g.inn = inn
        return g

    # --- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        return sum(self.out_degrees)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs in ascending lexicographic order."""
        return [(u, v) for u in range(self.n) for v in bits(self.out[u])]

    def out_deg(self, v: int) -> int:
        return self.out_degrees[v]

    def in_deg(self, v: int) -> int:
        return self.in_degrees[v]

    def total_deg(self, v: int) -> int:
        return self.out_deg(v) + self.in_deg(v)

    # --- derived graphs --------------------------------------------------

    # Derived digraphs edit the out-rows and the in-rows together, so none
    # of them pays for a transpose.

    def with_arcs(self, arcs: Sequence[tuple[int, int]]) -> "Digraph":
        n = self.n
        out, inn = list(self.out), list(self.inn)
        for u, v in arcs:
            if u == v:
                raise BadParams(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise BadParams(f"arc ({u},{v}) out of range for n={n}")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        return Digraph._from_rows(tuple(out), tuple(inn))

    def without_arcs(self, arcs: Sequence[tuple[int, int]]) -> "Digraph":
        out, inn = list(self.out), list(self.inn)
        for u, v in arcs:
            if out[u] >> v & 1:
                out[u] ^= 1 << v
                inn[v] ^= 1 << u
        return Digraph._from_rows(tuple(out), tuple(inn))

    def reverse(self) -> "Digraph":
        return Digraph._from_rows(self.inn, self.out)

    def symmetrize(self) -> "Digraph":
        """Underlying graph as a symmetric digraph."""
        rows = tuple(o | i for o, i in zip(self.out, self.inn))
        return Digraph._from_rows(rows, rows)

    def two_cycles(self) -> "Digraph":
        """The arcs whose reverse is an arc too, a symmetric digraph."""
        rows = tuple(o & i for o, i in zip(self.out, self.inn))
        return Digraph._from_rows(rows, rows)

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


# the slots of ``Digraph`` derived on their first read, and how
_DERIVED: dict[str, Callable[[Digraph], object]] = {
    "inn": lambda g: Digraph._derive_in(g.n, g.out),
    "out_degrees": lambda g: tuple(map(int.bit_count, g.out)),
    "in_degrees": lambda g: tuple(map(int.bit_count, g.inn)),
    "oriented": lambda g: not any(o & i for o, i in zip(g.out, g.inn)),
}


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
        o, out = self.order, g.out
        if sorted(o) != list(range(g.n)):
            return False
        return all(out[u] >> v & 1 for u, v in zip(o, o[1:] + o[:1]))

    def canonical(self) -> "HamiltonCycle":
        """Rotate so the smallest vertex comes first."""
        i = self.order.index(min(self.order))
        return HamiltonCycle(self.order[i:] + self.order[:i])


@dataclass(frozen=True)
class CycleFactor:
    """Vertex-disjoint directed cycles covering all vertices."""

    cycles: tuple[tuple[int, ...], ...]

    def is_valid(self, g: Digraph) -> bool:
        seen: set[int] = set()
        for cyc in self.cycles:
            if len(cyc) < 2:
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
    dplus = min(g.out_degrees, default=0)
    dminus = min(g.in_degrees, default=0)
    return dplus, dminus, min(dplus, dminus)


@dataclass(frozen=True)
class DegreeSequencePair:
    out_seq: tuple[int, ...]
    in_seq: tuple[int, ...]


def degree_sequences(g: Digraph) -> DegreeSequencePair:
    """Out- and in-degree sequences, each sorted ascending (decoupled)."""
    return DegreeSequencePair(
        tuple(sorted(g.out_degrees)), tuple(sorted(g.in_degrees))
    )


def classify(g: Digraph) -> str:
    """One of 'undirected', 'tournament', 'oriented', 'digraph'."""
    if not is_oriented(g):
        return "undirected" if g.is_symmetric() else "digraph"
    return "tournament" if is_tournament(g) else "oriented"


def is_oriented(g: Digraph) -> bool:
    return g.oriented


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


def _reaches_all(adj: Sequence[int], start_mask: int, within: int) -> bool:
    """Whether ``_reach(adj, start_mask, within)`` covers ``within``.  The
    same breadth-first search, but it keeps only the vertices still
    ``missing`` and stops at the first row that reaches the last of them,
    so a dense digraph answers within a layer or two."""
    missing = within & ~start_mask
    frontier = start_mask
    while missing:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= adj[low.bit_length() - 1]
            if new & missing == missing:
                return True
            frontier ^= low
        frontier = new & missing
        if not frontier:
            return False
        missing ^= frontier
    return True


def is_strongly_connected(g: Digraph) -> bool:
    """One forward and one backward search from vertex 0, run on the first
    call only: the answer is kept on ``g``, which never changes, so the
    rules, the search and the CLI share one pair per digraph."""
    if g._strong is None:
        if g.n == 0:
            raise BadParams("empty digraph")
        full = (1 << g.n) - 1
        g._strong = _reaches_all(g.out, 1, full) and _reaches_all(g.inn, 1, full)
    return g._strong


def _vertex_disjoint_paths(g: Digraph, s: int, t: int, limit: int) -> int:
    """min(limit, the number of internally vertex-disjoint s->t paths), for
    s, t with no arc s->t.

    Unit-capacity augmenting paths on the vertex-split network (v_in -> v_out
    of capacity 1 for v other than s, t; arcs u_out -> v_in unbounded), with
    the flow kept as bit rows: ``fin[v]`` holds the tails of the
    flow-carrying arcs into v, ``fout[v]`` the heads of those out of v, and
    ``carrying`` the inner vertices on a path.  The residual arcs into an
    in-node x_in are u_out for every arc u->x and x_out if x carries flow;
    the one residual arc into an out-node u_out comes from u_in if u is free
    and from h_in for the flow arc u->h otherwise.
    The flow starts from the disjoint two-arc paths s -> v -> t, one bit-row
    AND.  Each later search is breadth first, one whole mask per layer: the
    in-layer is the OR of the out-rows of the out-layer plus its carrying
    vertices, the next out-layer the in-layer's free vertices plus the flow
    tails of its carrying ones.  Only the out-layers are kept: the path is
    walked back from t, an in-node's predecessor being the lowest out-node
    of the layer before with a residual arc into it (one mask AND), and an
    out-node's the fixed one above.  A call costs O(limit * n) bit-row
    operations."""
    n = g.n
    out, inn = g.out, g.inn
    carrying = out[s] & inn[t]  # the paths s -> v -> t are disjoint
    flow = carrying.bit_count()
    if flow >= limit:
        return limit
    fin = [0] * n
    fout = [0] * n
    for v in bits(carrying):
        fin[v], fout[v] = 1 << s, 1 << t
    fin[t] = carrying
    while flow < limit:
        seen_in = seen_out = 1 << s
        outs = [1 << s]  # outs[i]: the out-nodes first reached at layer i
        while True:
            front = outs[-1]
            layer = front & carrying
            while front:
                low = front & -front
                layer |= out[low.bit_length() - 1]
                front ^= low
            layer &= ~seen_in
            if not layer or layer >> t & 1:
                break
            seen_in |= layer
            nxt = layer & ~carrying
            busy = layer & carrying
            while busy:
                low = busy & -busy
                nxt |= fin[low.bit_length() - 1]
                busy ^= low
            nxt &= ~seen_out
            if not nxt:
                break
            seen_out |= nxt
            outs.append(nxt)
        if not layer >> t & 1:
            return flow
        x = t
        for i in range(len(outs) - 1, -1, -1):
            # x_in joined in-layer i from an out-node u of outs[i]; x_out is
            # there only if x carries flow, as a free x_out follows x_in
            low = outs[i] & (inn[x] | 1 << x)
            low &= -low
            u = low.bit_length() - 1
            pred = fout[u] if carrying & low else low  # u_out's in-node
            if u == x:  # back over x's split arc: x leaves its path
                carrying ^= low
            else:
                fin[x] |= low
                fout[u] |= 1 << x
            if i == 0:  # u is s
                break
            if pred == low:  # over u's split arc: u joins a path
                carrying ^= low
                x = u
            else:  # back along the flow arc u -> x, which is cancelled
                x = pred.bit_length() - 1
                fout[u] &= ~pred
                fin[x] &= ~low
        flow += 1
    return flow


def vertex_connectivity(g: Digraph) -> int:
    """Size of the smallest vertex set whose removal leaves a non-strongly
    connected digraph or a single vertex.

    Kappa is at most n - 1, and at most the least out- or in-degree, since
    removing N+(v) or N-(v) cuts v off; ``best`` starts at that bound.  For
    s, t with no arc s->t the s,t max flow is the least vertex set that
    separates s from t (Menger), so every flow is at least kappa.  Only the
    flows of vertex 0's pairs are run (Esfahanian & Hakimi, Networks 14,
    1984): (0, w) for w outside N+[0], (w, 0) for w outside N-[0], and
    (a, b) for a in N-(0), b in N+(0), a != b, with no arc a->b; each flow
    stops once it reaches best.
    This is exact.  Let kappa be below the start of best and X a minimum
    separator, so G - X has two or more vertices and is not strongly
    connected.  If 0 is outside X, some u of G - X is not reached from 0, or
    does not reach 0, there; u is then not an out-neighbour (or not an
    in-neighbour) of 0, so (0, u) or (u, 0) is a pair, and X separates it.
    If 0 is in X, X - 0 is too small to separate, so G - (X - 0) is
    strongly connected.  Take u, w in G - X with w not reached from u
    there, A the vertices that u reaches in G - X and B the rest of G - X.
    No arc runs from A to B, so a shortest A -> B path in G - (X - 0) is
    a -> 0 -> b, and (a, b) is a pair that X separates.
    On a symmetric digraph the s,t flow equals the t,s flow, each path
    reversed, so the (w, 0) flows repeat the (0, w) ones and (a, b) runs
    for a < b only: the least flow is the same."""
    n = g.n
    if n < 2:
        raise BadParams("need n >= 2")
    out, inn = g.out, g.inn
    symmetric = out == inn
    best = min(n - 1, min(g.out_degrees), min(g.in_degrees))
    others = (1 << n) - 2
    for w in bits(others & ~out[0]):
        best = _vertex_disjoint_paths(g, 0, w, best)
    if not symmetric:
        for w in bits(others & ~inn[0]):
            best = _vertex_disjoint_paths(g, w, 0, best)
    for a in bits(inn[0]):
        heads = out[0] & ~out[a] & ~(1 << a)
        if symmetric:
            heads &= -2 << a  # b > a
        for b in bits(heads):
            best = _vertex_disjoint_paths(g, a, b, best)
    return best


# --- independence --------------------------------------------------------


def _max_independent_set(n: int, adj: Sequence[int], b: _Budget) -> int:
    """Size of a maximum independent set of the graph with rows ``adj``: a
    maximum clique search on the complement (Tomita & Seki, DMTCS 2003) in
    bit masks (San Segundo et al., Comput. Oper. Res. 38, 2011), one tick
    of ``b`` per node.  A node covers its candidates greedily by cliques; a
    set meets a clique at most once, so a vertex in the k-th clique, kept to
    the candidates covered before it, bounds its branch by size + k, and
    pushed in cover order the highest bound pops first."""
    best = 0
    stack = [(n, 0, (1 << n) - 1)]
    while stack:
        bound, size, cand = stack.pop()
        if bound <= best:
            continue
        b.tick()
        best = max(best, size)
        k, before = size, 0  # k: the bound of the clique being covered
        while cand:
            k += 1
            clique = cand
            while clique:
                low = clique & -clique
                v = low.bit_length() - 1
                clique &= adj[v]
                cand ^= low
                if k > best:
                    stack.append((k, size + 1, before & ~adj[v]))
                before |= low
    return best


def independence_numbers(g: Digraph) -> tuple[int, int]:
    """(alpha_0, alpha_2): largest arc-free / 2-cycle-free set, one budget;
    alpha_2 is alpha_0 of ``g.two_cycles()``, a symmetric digraph."""
    b = _Budget(DEFAULT_BUDGET)
    alpha2 = _max_independent_set(g.n, g.two_cycles().out, b)
    if g.is_symmetric():  # every arc is in a 2-cycle: alpha_0 = alpha_2
        return alpha2, alpha2
    any_adj = [g.out[v] | g.inn[v] for v in range(g.n)]
    return _max_independent_set(g.n, any_adj, b), alpha2


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


def _mapped(row: int, table: Sequence[int]) -> int:
    """The union of ``table[v]`` over the set bits v of ``row``."""
    mapped = 0
    while row:
        b = row & -row
        mapped |= table[b.bit_length() - 1]
        row ^= b
    return mapped


def contract_matching(
    g: Digraph, matching: Matching
) -> tuple[Digraph, Callable[[HamiltonCycle], HamiltonCycle]]:
    """Contract each matching arc x->y into a vertex with x's in-set and
    y's out-set.  Returns the contraction plus a lift from Hamilton cycles
    of the contraction to Hamilton cycles of ``g`` containing the matching.
    """
    touched = 0
    for u, v in matching.arcs:
        if not g.has_arc(u, v):
            raise ArcMissing(f"({u},{v}) not in host")
        touched |= 1 << u | 1 << v
    # new vertex order: untouched vertices first, then one per matching arc
    expansion: list[tuple[int, ...]] = [
        (v,) for v in range(g.n) if not touched >> v & 1
    ]
    expansion.extend(matching.arcs)

    # An arc into v enters v's new vertex only if v is kept or a tail
    # (tgt[v] is that vertex's bit, else 0); an arc out of u leaves u's new
    # vertex only if u is kept or a head (src[u]).  Arcs at the discarded
    # side vanish, and a new vertex's own bit is the dropped self-loop.
    tgt, src = [0] * g.n, [0] * g.n
    for i, exp in enumerate(expansion):
        tgt[exp[0]] = src[exp[-1]] = 1 << i
    own = [1 << i for i in range(len(expansion))]
    contracted = Digraph._from_rows(
        tuple(_mapped(g.out[e[-1]], tgt) & ~b for e, b in zip(expansion, own)),
        tuple(_mapped(g.inn[e[0]], src) & ~b for e, b in zip(expansion, own)),
    )

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
    arcs = [(a, b) for u, v in g.arcs() for a in parts[u] for b in parts[v]]
    return Digraph(nxt, arcs), parts
