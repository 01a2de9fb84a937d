"""Exact Hamiltonicity solvers, counters and certificate search.

Every search returns a checkable certificate (or ``None``), never a bare
boolean.  Searches are deterministic: paths extend from the lowest-index
endpoint and neighbours are tried in ascending order, so the first
certificate found is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    CycleFactor,
    Digraph,
    HamiltonCycle,
    Matching,
    _Budget,
    _mapped,
    _reach,
    _reaches_all,
    as_budget,
    bits,
    contract_matching,
    is_oriented,
    is_strongly_connected,
    popcount,
)
from .errors import BadParams, BudgetExceeded


# --- one-factors via bipartite matching ----------------------------------


def _augment(
    match_l: list[int],
    match_r: list[int],
    root: int,
    adj: Sequence[int],
    seen: int,
    free: int,
) -> int:
    """One augmenting path from the free left ``root`` over the left->right
    bit rows ``adj``, never entering the rights in ``seen``; returns the
    free right it ends at, or -1, leaving the matching as it was, if there
    is none.

    ``free`` holds rights the caller knows to be unmatched.  When the
    root's unseen row meets it, the lowest of them ends the path at once.
    Otherwise, and when that right is matched after all, this is Kuhn's
    depth-first search on an explicit stack, rights tried in ascending
    order, each entered at most once (``seen`` grows as a bitmask).
    Whether an augmenting path exists does not depend on the route; only
    which path is taken does.  The lookahead is the root's alone: checked
    at every left, it would cost each step of the plain search."""
    hit = adj[root] & free & ~seen
    if hit:
        r = (hit & -hit).bit_length() - 1
        if match_r[r] < 0:
            match_l[root] = r
            match_r[r] = root
            return r
    lefts = [root]  # the alternating path: lefts[i] -> rights[i]
    rights: list[int] = []
    while True:
        cand = adj[lefts[-1]] & ~seen
        if not cand:
            lefts.pop()
            if not lefts:
                return -1
            rights.pop()
            continue
        low = cand & -cand
        seen |= low
        r = low.bit_length() - 1
        rights.append(r)
        owner = match_r[r]
        if owner < 0:
            for l, x in zip(lefts, rights):
                match_l[l] = x
                match_r[x] = l
            return r
        lefts.append(owner)


def _bipartite_matching(n_left: int, adj: Sequence[int]) -> Optional[list[int]]:
    """Perfect matching in a bipartite graph given as left->right bit rows.

    Returns ``match[l] = r`` or ``None`` if no perfect matching exists.
    The lefts go in ascending order, and ``free`` is every right not
    matched yet: a left whose row meets it takes its lowest unmatched
    right in place, and only one whose row has none calls ``_augment``
    for Kuhn's search, so dense rows skip both its alternating chains and
    the call.  The matching is an output (``one_factor``, the expander's
    per-cluster matchings)."""
    match_l = [-1] * n_left
    match_r = [-1] * max(adj, default=0).bit_length()
    free = (1 << len(match_r)) - 1
    for root in range(n_left):
        hit = adj[root] & free
        if hit:
            low = hit & -hit
            r = low.bit_length() - 1
            match_l[root] = r
            match_r[r] = root
            free ^= low
            continue
        r = _augment(match_l, match_r, root, adj, 0, free)
        if r < 0:
            return None
        free &= ~(1 << r)
    return match_l


def one_factor(g: Digraph) -> Optional[CycleFactor]:
    """Spanning set of vertex-disjoint cycles, via a perfect matching in the
    bipartite double cover (out-copies vs in-copies)."""
    if g.n == 0:
        return CycleFactor(())
    succ = _bipartite_matching(g.n, g.out)
    if succ is None:
        return None
    return CycleFactor.from_succ(succ)


# --- Hamilton cycle search ----------------------------------------------


def _hamilton_orders(
    g: Digraph, succ: Sequence[int], b: _Budget, has_cut: Callable[[], bool] = bool,
    allow: Optional[Callable[[list[int], int], int]] = None,
) -> Iterator[tuple[int, ...]]:
    """Every Hamilton cycle of ``g`` as a vertex order from 0, in
    lexicographic order: the search kernel.

    Paths grow from vertex 0, out-neighbours in ascending order, on an
    explicit stack (one candidate mask per depth), and the budget ticks
    once per node.  A node whose path 0..end leaves the unvisited set
    ``un`` is kept only if (Vandegriend & Culberson, JAIR 1998)

    * the residual digraph, the path contracted into one vertex P, has a
      1-factor: its bipartite double cover has a perfect matching, where
      P's left row is ``out[end] & un``, right 0 stands for "into P" and
      every other left u has row ``out[u] & (un | 1)``; and
    * every unvisited vertex is reachable from ``end`` inside ``un``.

    ``succ`` is a perfect matching of the whole double cover (at the root
    P is vertex 0 alone).  The matching is only a witness that one exists,
    so any perfect matching will do: each child copies its parent's, drops
    left v, right v and P's edge if ``out[v]`` lacks it, and re-augments the
    at most two lefts left free.  A perfect matching of the child's cover
    exists exactly when each of those augmenting paths does (Berge), so the
    prune does not depend on which matching the parent held, and each
    ``_augment`` may take the shortest route: the rights just freed (v's
    old partner, and P's if dropped) are its lookahead.

    On a symmetric host of n >= 3 vertices, a graph, a Hamilton cycle uses
    two distinct edges at every vertex, and 0 and ``end`` each have one
    edge left to use.  With usable = ``un | end | 1``:

    * a vertex with fewer than two usable neighbours refutes;
    * an unvisited vertex with exactly two usable neighbours, one of them
      ``end``, must come next: it is the child's only candidate, and two
      such vertices refute;
    * two unvisited vertices with exactly two usable neighbours, each
      including 0, refute.

    Going one deeper only takes the old ``end`` out of the usable set, so
    the mask of unvisited vertices with two usable neighbours is kept per
    depth and rescanned only at the old end's neighbours.  None of them
    drops below two: one that had two, the old end among them, was its
    parent's only candidate.  So the first rule is checked at the root
    only.

    ``has_cut``, a test that holds only if ``g`` has no Hamilton cycle (by
    default ``bool``, never), runs once, uncounted, when the budget has paid
    for the kernel's own (n^2 + 1)-th node; if it holds, the search ends.

    ``allow(path, visited)``, if given, masks the vertices that may follow
    ``path``: it is ANDed into every candidate mask, the root's and a forced
    degree-2 vertex's included (one not allowed empties the mask).  Every
    rule only cuts subtrees without a Hamilton cycle, so the allowed orders
    come out as an unpruned search would give them.
    """
    n = g.n
    out = g.out
    full = (1 << n) - 1
    b.tick()
    if not _reaches_all(out, 1, full):
        return
    graph = n > 2 and out == g.inn
    two = 0
    if graph:
        degrees = g.out_degrees
        if min(degrees) < 2:
            return
        two = sum(1 << u for u in range(1, n) if degrees[u] == 2)
    match_r = [-1] * n
    for l, r in enumerate(succ):
        match_r[r] = l
    rows = list(out)  # left rows; rows[0] is P's, set per node
    path = [0]
    visited = 1
    # per depth: the candidates left to try, the node's perfect matching
    # and, on a graph, its unvisited vertices with two usable neighbours
    cands = [out[0] if allow is None else out[0] & allow(path, visited)]
    frames = [(list(succ), match_r, two)]
    scan = n * n  # has_cut runs at node n^2 + 1, the root being node 1
    while cands:
        cand = cands[-1]
        if not cand:
            cands.pop()
            frames.pop()
            visited ^= 1 << path.pop()
            continue
        low = cand & -cand
        cands[-1] = cand ^ low
        b.tick()
        scan -= 1
        if not scan and has_cut():
            return
        v = low.bit_length() - 1
        un = full ^ visited ^ low
        if not un:
            if out[v] & 1:
                yield (*path, v)
            continue
        parent_l, parent_r, two = frames[-1]
        p_row = out[v] & un
        nxt = 0
        if graph:
            two &= ~low
            end = path[-1]
            if end:  # the old end leaves the usable set
                usable = un | low | 1
                for w in bits(out[end] & un):
                    if popcount(out[w] & usable) == 2:
                        two |= 1 << w
            nxt = two & out[v]
            by0 = two & out[0]
            if nxt & (nxt - 1) or by0 & (by0 - 1):
                continue
        match_l, match_r = parent_l[:], parent_r[:]
        rv, lv = match_l[v], match_r[v]
        match_r[rv] = match_l[lv] = match_r[v] = -1
        free = 1 << rv  # the rights just freed
        r0 = match_l[0]
        if r0 >= 0 and not p_row >> r0 & 1:
            match_l[0] = match_r[r0] = -1
            free |= 1 << r0
        rows[0] = p_row
        done = visited ^ low ^ 1  # no right of the path but "into P"
        if lv:
            r = _augment(match_l, match_r, lv, rows, done, free)
            if r < 0:
                continue
            free ^= 1 << r
        if match_l[0] < 0 and _augment(match_l, match_r, 0, rows, done, free) < 0:
            continue
        if not _reaches_all(out, low, un):
            continue
        path.append(v)
        visited |= low
        cand = nxt or p_row
        cands.append(cand if allow is None else cand & allow(path, visited))
        frames.append((match_l, match_r, two))


def _forced_arcs(
    out: Sequence[int], inn: Sequence[int]
) -> Optional[tuple[Sequence[int], Sequence[int]]]:
    """The rows ``out``, ``inn`` less arcs that no Hamilton cycle uses, or
    ``None`` when forced arcs refute every Hamilton cycle.

    An arc u->v is forced when it is u's only out-arc or v's only in-arc
    (Vandegriend & Culberson, JAIR 1998): every Hamilton cycle uses it, so
    u's other out-arcs and v's other in-arcs go.  Forced arcs join into
    paths, and the arc from a path's last vertex back to its first goes
    while the path has fewer than n vertices, so a forced cycle shorter
    than n shows as an emptied row.  The rules run to a fixpoint; an
    emptied row refutes.  When every in- and out-degree is at least 2
    nothing is forced and the rows come back as given."""
    n = len(out)
    if all(r & (r - 1) for r in out) and all(r & (r - 1) for r in inn):
        return out, inn
    out, inn = list(out), list(inn)
    nxt, prv = [-1] * n, [-1] * n  # the forced arcs
    end = list(range(n))  # at either end of a forced path: its other end
    size = [1] * n  # at either end of a forced path: its vertex count
    todo = [v for v in range(n) if not (out[v] & (out[v] - 1) and inn[v] & (inn[v] - 1))]

    def drop(u: int, w: int) -> None:
        out[u] &= ~(1 << w)
        inn[w] &= ~(1 << u)
        todo.extend((u, w))

    while todo:
        v = todo.pop()
        o, i = out[v], inn[v]
        if not o or not i:
            return None
        if nxt[v] < 0 and not o & (o - 1):
            u, w = v, o.bit_length() - 1
        elif prv[v] < 0 and not i & (i - 1):
            u, w = i.bit_length() - 1, v
        else:
            continue
        # force u -> w: u ends a forced path, w starts one
        nxt[u], prv[w] = w, u
        for x in bits(out[u] ^ (1 << w)):
            drop(u, x)
        for x in bits(inn[w] ^ (1 << u)):
            drop(x, w)
        head, tail = end[u], end[w]
        if head == w:  # a Hamilton cycle: shorter ones lost their last arc
            continue
        end[head], end[tail] = tail, head
        size[head] = size[tail] = size[u] + size[w]
        if size[head] < n and out[tail] >> head & 1:
            drop(tail, head)
        todo.append(v)
    return out, inn


def _more_components(und: Sequence[int], within: int, k: int) -> bool:
    """Whether the undirected rows ``und`` restricted to ``within`` have
    more than ``k`` components."""
    for _ in range(k + 1):
        if not within:
            return False
        within &= ~_reach(und, within & -within, within)
    return True


def _tough_cut(und: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The first vertex set S, 1 <= |S| <= 2, whose removal leaves more
    than |S| components of the undirected graph with rows ``und``, or
    ``None``.  A Hamilton cycle less |S| vertices falls into at most |S|
    paths, so such an S refutes it (Chvátal, 1973).

    The smallest of more than k components of G - S (|S| = k) has at most
    (n - k) / (k + 1) vertices, each adjacent only inside it and to S, so
    the minimum degree d allows S only if (k + 1) d <= n + k*k - k - 1:
    2d <= n - 1 for one vertex and 3d <= n + 1 for two.  Sizes ruled out
    that way are not scanned.  Each candidate costs one component count,
    O(n^3) bit-row operations for the pairs."""
    n = len(und)
    full = (1 << n) - 1
    d = min(map(popcount, und), default=0)
    for k in (1, 2):
        if (k + 1) * d > n + k * k - k - 1:
            continue
        for cut in combinations(range(n), k):
            if _more_components(und, full ^ sum(1 << v for v in cut), k):
                return cut
    return None


def enumerate_hamilton_cycles(
    g: Digraph, *, budget: int = DEFAULT_BUDGET
) -> Iterator[HamiltonCycle]:
    """All Hamilton cycles, anchored at vertex 0, lexicographic path order
    (``_hamilton_orders``).  ``budget`` bounds the search nodes."""
    yield from _enumerate(g, as_budget(budget))


def _enumerate(
    g: Digraph, b: _Budget, allow: Optional[Callable[[list[int], int], int]] = None
) -> Iterator[HamiltonCycle]:
    """``enumerate_hamilton_cycles`` on the caller's budget ``b``; with
    ``allow``, only the cycles the kernel's hook lets through.

    Two root refutations cut away digraphs without a Hamilton cycle; they
    never drop a cycle, so the cycles and their order are the unpruned
    search's.  Before the kernel, ``_forced_arcs`` deletes the arcs that
    forced arcs rule out (the kernel searches what is left) or refutes at
    once.  The kernel's cut test, after n^2 nodes, is ``_tough_cut``: one
    scan of the underlying graph for a vertex set S, |S| <= 2, with more
    than |S| components left, which ends the search with no cycle.  Every
    search scans, nested ones too.  The scan costs O(n^3) bit-row
    operations, about what the n^2 nodes already cost, so it at most
    roughly doubles a long search and a short one never pays it.  It is
    skipped when the minimum degree rules a cut out."""
    n = g.n
    if n < 2:
        return  # no self-loops, so no cycle on one vertex
    rows = _forced_arcs(g.out, g.inn)
    if rows is None:
        return
    out, inn = rows
    if out is not g.out:  # _forced_arcs keeps both row sets in step
        g = Digraph._from_rows(tuple(out), tuple(inn))
    succ = _bipartite_matching(n, out)  # any witness will do
    if succ is None:
        return
    for order in _hamilton_orders(
        g, succ, b, lambda: _tough_cut([o | i for o, i in zip(out, inn)]) is not None, allow
    ):
        yield HamiltonCycle(order)


def find_hamilton_cycle(
    g: Digraph, *, budget: int = DEFAULT_BUDGET
) -> Optional[HamiltonCycle]:
    """The first cycle of ``enumerate_hamilton_cycles``, or ``None``, with
    its two root refutations.  ``budget`` bounds the search nodes; there
    is no size cap.  The search, left suspended, holds nothing on it."""
    if g.n < 2 or not is_strongly_connected(g):
        return None
    return next(_enumerate(g, as_budget(budget)), None)


def hamilton_cycle_through(
    g: Digraph, matching: Matching, *, budget: int = DEFAULT_BUDGET
) -> Optional[HamiltonCycle]:
    """Hamilton cycle containing every matching arc: contract, solve, lift."""
    if not matching.arcs:
        return find_hamilton_cycle(g, budget=budget)
    contracted, lift = contract_matching(g, matching)
    h = find_hamilton_cycle(contracted, budget=budget)
    if h is None:
        return None
    lifted = lift(h)
    return lifted.canonical()


# --- counting ------------------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    hamilton_paths: int
    hamilton_cycles: int
    random_mean_paths: Fraction  # n!/2^(n-1)
    random_mean_cycles: Fraction  # (n-1)!/2^n, and 0 for n < 3 (no cycle)


# With 0/1 start weights the count DP's layer-p sums stay at most p!: below
# 2**53 up to p = 18, so those layers run exactly in float64 (BLAS), and
# below 2**63 up to p = 20, so int64 is exact for the rest (see _end_counts).
COUNT_CAP = 21
PLAN_K = 16  # DP orders k <= PLAN_K move between layers by the cached plans


@cache
def _take_plans() -> tuple[np.ndarray, ...]:
    """The take-plans of ``_end_counts``, one per layer of PLAN_K-bit masks."""
    pc = np.bitwise_count(np.arange(1 << PLAN_K))
    order = np.argsort(pc, kind="stable")  # by popcount, numeric within a layer
    rank = np.zeros(1 << PLAN_K, dtype=np.int64)
    bit = 1 << np.arange(PLAN_K)[:, None]
    plans = []
    for masks in np.split(order, np.cumsum(np.bincount(pc))[:-1]):  # layers 0..PLAN_K
        rank[masks] = np.arange(1, len(masks) + 1)  # 1 + rank within the layer
        plan = np.where(masks & bit != 0, rank[masks ^ bit], 0).astype(np.uint16)
        plans.append(np.pad(plan, ((0, 0), (1, 0))))
        plans[-1].flags.writeable = False
    return tuple(plans)


def _end_counts(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Hamilton paths of the digraph ``adj`` (a k x k 0/1 int64 matrix),
    counted by last vertex; a path starting at v carries weight ``start[v]``.

    Layered subset DP (Bellman; Held & Karp) on transposed layers:
    ``table[w, i]`` counts the paths ending at w over a layer's i-th mask in
    numeric order.  Adding w maps the masks without w onto the next layer's
    masks with w in order (M < M' gives M|w < M'|w).  For k <= PLAN_K a table
    leads with a zero column, and ``step.take`` through a cached plan gives
    the next: in layer q's plan, [w, 1 + j] is 1 + the layer-(q-1) rank of
    mask_j without w if w is in mask_j, else 0.  The 16-bit plans (uint16,
    2 MB) serve any k <= 16 as ``[:k, :C(k, q) + 1]``: masks below 2**k come
    first.  Above PLAN_K, ``step[~held]`` fills ``table[held]`` (w in mask).

    Every entry is a nonnegative integer.  Before the product on layer p no
    entry passes ``max(start) * (p-1)!`` and after it none passes
    ``max(start) * p!``; every partial sum of the product is at most its
    final value.  So while ``max(start) * p! < 2**53`` every float64
    addition is exact, in any summation order BLAS picks, and the layer's
    product runs in float64; after that it runs in int64, exact while
    ``max(start) * p! < 2**63`` (p <= 20 for weights up to 3).  With 0/1
    weights the int64 tail starts at p = 19, so only for k >= 20.  The
    result is int64."""
    k = len(start)
    big = int(start.max(initial=0))
    if k <= PLAN_K:
        table = np.diag(np.append(0, start))[1:]  # column 0, then masks 1, 2, 4, ...
        for p in range(1, k):
            dtype = np.float64 if big * factorial(p) < 2**53 else np.int64
            step = adj.T.astype(dtype) @ table.astype(dtype, copy=False)
            plan = _take_plans()[p + 1][:k, : comb(k, p + 1) + 1]
            table = step.take(plan + np.arange(k)[:, None] * step.shape[1])
        return table[:, 1].astype(np.int64)
    pc = np.bitwise_count(np.arange(1 << k))
    order = np.argsort(pc, kind="stable")  # by popcount, numeric within a layer
    ends = np.cumsum(np.bincount(pc))
    bit = 1 << np.arange(k)[:, None]
    table = np.diag(start)  # layer 1 holds the masks 1, 2, 4, ... in order
    held = np.eye(k, dtype=bool)
    for p in range(1, k):
        dtype = np.float64 if big * factorial(p) < 2**53 else np.int64
        step = adj.T.astype(dtype) @ table.astype(dtype, copy=False)
        table = np.zeros((k, ends[p + 1] - ends[p]), dtype=dtype)
        step = step[~held]  # compact first: the full step is freed before table fills
        held = order[ends[p] : ends[p + 1]] & bit != 0
        table[held] = step
    return table[:, 0].astype(np.int64)


def count_hamilton(g: Digraph) -> CountReport:
    """Exact Hamilton path and cycle counts by a layered subset DP over
    (visited set, endpoint), in numpy float64 while every sum stays below
    2**53 and in int64 after that (see ``_end_counts``).

    Paths run the DP from every vertex; cycles run it over the other n-1
    vertices only, anchored at vertex 0, so each cyclic arc set is counted
    exactly once.  Costs O(2^n n^2) arithmetic operations; memory peaks at one
    layer and its product, 2 x C(n, n/2) x n 8-byte entries, beside 2 MB of
    take-plans (16 x (C(16, q) + 1) uint16 per layer q) kept from the first
    DP at k <= PLAN_K = 16.  Max RSS: 233 MB for ``complete_digraph(21)``,
    134 MB for ``random_tournament(20, 1)``; the order in which temporaries
    are freed moves it.  The final sums, up to n!, are Python ints.  Above
    COUNT_CAP = 21 it raises ``BudgetExceeded`` at once."""
    n = g.n
    if n > COUNT_CAP:
        raise BudgetExceeded(f"counting capped at n <= cap={COUNT_CAP}, got n={n}")
    if n == 0:
        return CountReport(0, 0, Fraction(0), Fraction(0))
    adj = (np.array(g.out, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    paths = sum(int(c) for c in _end_counts(adj, np.ones(n, dtype=np.int64)))
    cycles = 0
    if n >= 2:
        ends = _end_counts(adj[1:, 1:], adj[0, 1:])
        cycles = sum(int(c) for c, back in zip(ends, adj[1:, 0]) if back)
    return CountReport(
        paths,
        cycles,
        Fraction(factorial(n), 2 ** (n - 1)),
        Fraction(factorial(n - 1), 2**n) if n >= 3 else Fraction(0),
    )


# --- sequence searches ---------------------------------------------------


def _sequences(
    first: int,
    length: int,
    cand: Callable[[list[int], int], int],
    closes: Callable[[list[int]], int],
    b: _Budget,
) -> Iterator[tuple[int, ...]]:
    """Every sequence of ``length`` distinct vertices whose first vertex is
    a bit of ``first``, whose every next vertex is a bit of ``cand(seq,
    used)`` and for which ``closes(seq)`` holds, in lexicographic order:
    the unpruned kernel of the shorter cycles, cycle powers, mixed
    patterns, mixed paths, cycle factors and trees below.

    Depth first on an explicit stack, one candidate mask per depth, bits
    tried in ascending order.  ``used`` is the mask of ``seq``; the kernel
    removes it from every candidate mask.  The budget ticks once per vertex
    placed, so an exhausted search of N prefixes costs N ticks."""
    seq: list[int] = []
    used = 0
    cands = [first]
    while cands:
        c = cands[-1]
        if not c:
            cands.pop()
            if seq:
                used ^= 1 << seq.pop()
            continue
        low = c & -c
        cands[-1] = c ^ low
        b.tick()
        seq.append(low.bit_length() - 1)
        if len(seq) < length:
            used |= low
            cands.append(cand(seq, used) & ~used)
            continue
        if closes(seq):
            yield tuple(seq)
        seq.pop()


# --- pancyclicity and fixed-length cycles --------------------------------


def _cycles(
    g: Digraph, length: int, anchors: int, avail: int, b: _Budget
) -> Iterator[tuple[int, ...]]:
    """The cycles of ``length`` vertices inside ``avail`` whose smallest
    vertex is a bit of ``anchors``, each listed from its smallest vertex."""
    out = g.out
    return _sequences(
        anchors,
        length,
        lambda seq, used: out[seq[-1]] & avail & -(2 << seq[0]),
        lambda seq: out[seq[-1]] >> seq[0] & 1,
        b,
    )


def find_cycle_of_length(
    g: Digraph, length: int, *, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[int, ...]]:
    """A directed cycle of exactly ``length`` vertices, or ``None``.

    Anchored enumeration: the smallest vertex of the cycle is tried in
    ascending order, only larger vertices after it; length n is a Hamilton
    cycle, ``find_hamilton_cycle``'s.  ``budget`` bounds the search nodes.
    """
    if length < 2 or length > g.n:
        return None
    if length == g.n:
        h = find_hamilton_cycle(g, budget=budget)
        return None if h is None else h.order
    anchors = (1 << (g.n - length + 1)) - 1
    found = _cycles(g, length, anchors, (1 << g.n) - 1, as_budget(budget))
    return next(found, None)


@dataclass(frozen=True)
class PancyclicReport:
    holds: bool
    min_length: int
    cycles: dict[int, tuple[int, ...]]
    missing: Optional[int]  # first missing length when not pancyclic


def is_pancyclic(g: Digraph, *, budget: int = DEFAULT_BUDGET) -> PancyclicReport:
    """Cycle of every length from the class minimum (2 for digraphs, 3 for
    oriented graphs and tournaments) up to n.  ``budget`` is one budget for
    the whole call: every length draws on it."""
    lmin = 3 if is_oriented(g) else 2
    found: dict[int, tuple[int, ...]] = {}
    budget = as_budget(budget)
    for length in range(lmin, g.n + 1):
        cyc = find_cycle_of_length(g, length, budget=budget)
        if cyc is None:
            return PancyclicReport(False, lmin, found, length)
        found[length] = cyc
    return PancyclicReport(True, lmin, found, None)


# --- powers of Hamilton cycles -------------------------------------------


def kth_power_hamilton(
    g: Digraph, k: int, *, budget: int = DEFAULT_BUDGET
) -> Optional[HamiltonCycle]:
    """Cyclic order where every vertex sends an arc to each of the next k,
    searched from vertex 0 (cyclic symmetry makes other starts redundant).
    A vertex must receive arcs from each of the previous k; the order must
    also wrap round.  Every k-th power holds a Hamilton cycle, so the
    kernel's search for one runs first, on the same budget, and a digraph
    it refutes has none.  ``budget`` bounds the search nodes."""
    if k < 1:
        raise BadParams("k >= 1 required")
    if k == 1:
        return find_hamilton_cycle(g, budget=budget)
    n = g.n
    if n < k + 1:
        return None
    b = as_budget(budget)
    if find_hamilton_cycle(g, budget=b) is None:
        return None
    out = g.out

    def cand(seq: list[int], used: int) -> int:
        c = out[seq[-1]]
        for v in seq[-k:-1]:
            c &= out[v]
        return c

    def closes(seq: list[int]) -> bool:
        return all(
            out[seq[i]] >> seq[i + j - n] & 1
            for i in range(n - k, n)
            for j in range(n - i, k + 1)
        )

    order = next(_sequences(1, n, cand, closes, b), None)
    return None if order is None else HamiltonCycle(order)


def validate_kth_power(g: Digraph, h: HamiltonCycle, k: int) -> bool:
    n = len(h.order)
    return sorted(h.order) == list(range(g.n)) and all(
        g.has_arc(h.order[i], h.order[(i + j) % n])
        for i in range(n)
        for j in range(1, k + 1)
    )


# --- k-ordered Hamilton cycles -------------------------------------------


def k_ordered_hamilton(
    g: Digraph, sequence: Sequence[int], *, budget: int = DEFAULT_BUDGET
) -> Optional[HamiltonCycle]:
    """Hamilton cycle visiting ``sequence`` in the given cyclic order,
    listed from ``sequence[0]``: the lexicographic first.  The kernel
    searches ``g`` relabelled so that ``sequence[0]`` is 0 and the vertices
    below it move up by one, which keeps the order of the rest; its
    ``allow`` hook lets a sequence vertex in only when it is next due.
    ``budget`` bounds the search nodes."""
    seq = list(sequence)
    if len(set(seq)) != len(seq):
        raise BadParams("sequence vertices must be distinct")
    if not seq:
        return find_hamilton_cycle(g, budget=budget)
    n = g.n
    if not all(0 <= v < n for v in seq):
        raise BadParams("sequence vertices must be vertices of the digraph")
    s = seq[0]
    back = [s, *range(s), *range(s + 1, n)]  # new label -> vertex
    bit = [2 << v for v in range(s)] + [1] + [1 << v for v in range(s + 1, n)]
    h = Digraph._from_rows(tuple(_mapped(g.out[v], bit) for v in back))
    seq_mask = sum(bit[v] for v in seq)
    free = ((1 << n) - 1) ^ seq_mask
    due = [free | bit[v] for v in seq] + [free]  # by the number of them visited
    cycles = _enumerate(h, as_budget(budget), lambda _, used: due[popcount(used & seq_mask)])
    found = next(cycles, None)
    return None if found is None else HamiltonCycle(tuple(back[w] for w in found.order))


# --- arbitrarily oriented Hamilton cycles and paths ----------------------


@dataclass(frozen=True)
class OrientationPattern:
    """Sign sequence over {+1 forward, -1 backward}; one sign per step."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise BadParams("signs must be +-1")

    @classmethod
    def forward(cls, n: int) -> "OrientationPattern":
        return cls((1,) * n)

    @classmethod
    def antidirected(cls, n: int) -> "OrientationPattern":
        if n % 2:
            raise BadParams("antidirected cycle patterns need even length")
        return cls(tuple(1 if i % 2 == 0 else -1 for i in range(n)))

    @classmethod
    def from_bits(cls, value: int, n: int) -> "OrientationPattern":
        return cls(tuple(1 if value >> i & 1 else -1 for i in range(n)))


def _pattern_search(
    g: Digraph, signs: Sequence[int], closed: bool, budget: int
) -> Optional[tuple[int, ...]]:
    """Vertex order whose step i follows the out-row (sign +1) or the
    in-row (sign -1) of position i, from every start vertex in turn."""
    n = g.n
    if closed and len(signs) != n:
        raise BadParams("cycle pattern length must equal n")
    if not closed and len(signs) != n - 1:
        raise BadParams("path pattern length must equal n-1")
    rows = [g.out if s == 1 else g.inn for s in signs]

    def closes(seq: list[int]) -> int:
        return not closed or rows[n - 1][seq[-1]] >> seq[0] & 1

    found = _sequences(
        (1 << n) - 1,
        n,
        lambda seq, used: rows[len(seq) - 1][seq[-1]],
        closes,
        as_budget(budget),
    )
    return next(found, None)


def oriented_hamilton(
    g: Digraph, pattern: OrientationPattern, *, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[int, ...]]:
    """Cyclic vertex order realizing the sign pattern: sign i applies to the
    step from position i to i+1 (mod n), the first in lexicographic order:
    ``find_hamilton_cycle``'s for an all-forward pattern.  ``budget`` bounds
    the search nodes; there is no size cap."""
    if pattern == OrientationPattern.forward(g.n):
        h = find_hamilton_cycle(g, budget=budget)
        return None if h is None else h.order
    return _pattern_search(g, pattern.signs, True, budget)


def oriented_hamilton_path(
    g: Digraph, pattern: OrientationPattern, *, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[int, ...]]:
    """Vertex order realizing a path orientation pattern of length n-1, the
    first in lexicographic order.  An all-forward pattern on n >= 2
    vertices asks for a Hamilton path: ``find_hamilton_cycle`` on ``g``
    shifted up by one beside a hub 0 joined both ways to every vertex,
    less the hub."""
    n = g.n
    if n > 1 and pattern == OrientationPattern.forward(n - 1):
        rows = ((1 << n + 1) - 2,) + tuple(row << 1 | 1 for row in g.out)
        h = find_hamilton_cycle(Digraph._from_rows(rows), budget=budget)
        return None if h is None else tuple(v - 1 for v in h.order[1:])
    return _pattern_search(g, pattern.signs, False, budget)


def validate_oriented(
    g: Digraph, order: Sequence[int], pattern: OrientationPattern, closed: bool
) -> bool:
    n = len(order)
    if sorted(order) != list(range(g.n)):
        return False
    steps = n if closed else n - 1
    for i in range(steps):
        u, v = order[i], order[(i + 1) % n]
        s = pattern.signs[i]
        if s == 1 and not g.has_arc(u, v):
            return False
        if s == -1 and not g.has_arc(v, u):
            return False
    return True


# --- cycle factors with prescribed lengths -------------------------------


def disjoint_cycle_factor(
    g: Digraph, lengths: Sequence[int], *, budget: int = DEFAULT_BUDGET
) -> Optional[CycleFactor]:
    """Vertex-disjoint cycles with exactly the prescribed length multiset.

    The lowest uncovered vertex starts a cycle of each distinct remaining
    length in turn (``_cycles``), one recursion level per chosen cycle.
    ``budget`` bounds the cycle-search nodes over the whole call."""
    lmin = 3 if is_oriented(g) else 2
    if sum(lengths) != g.n:
        raise BadParams("lengths must sum to n")
    if any(l < lmin for l in lengths):
        raise BadParams(f"cycle lengths must be >= {lmin} for this class")
    b = as_budget(budget)
    chosen: list[tuple[int, ...]] = []

    def solve(avail: int, remaining: tuple[int, ...]) -> bool:
        if avail == 0:
            return not remaining
        for i, length in enumerate(remaining):
            if length in remaining[:i]:
                continue
            rest = remaining[:i] + remaining[i + 1 :]
            for cyc in _cycles(g, length, avail & -avail, avail, b):
                chosen.append(cyc)
                if solve(avail & ~sum(1 << v for v in cyc), rest):
                    return True
                chosen.pop()
        return False

    if solve((1 << g.n) - 1, tuple(sorted(lengths))):
        return CycleFactor(tuple(chosen))
    return None


# --- oriented tree embedding ---------------------------------------------


def embed_tree(
    host: Digraph, tree: Digraph, *, budget: int = DEFAULT_BUDGET
) -> Optional[dict[int, int]]:
    """Injective arc-preserving embedding of an oriented tree into a host.

    ``tree`` must be an orientation of an undirected tree.  Its vertices
    are placed in breadth-first order from vertex 0, each on an out- or
    in-neighbour of its parent's image.  ``budget`` bounds the search
    nodes."""
    k = tree.n
    if k > host.n:
        return None
    und = [tree.out[v] | tree.inn[v] for v in range(k)]
    if tree.m != k - 1 or not _reaches_all(und, 1, (1 << k) - 1):
        raise BadParams("tree argument is not an oriented tree")
    # BFS order from vertex 0; per position, the position of the parent
    # (the one earlier neighbour, since the underlying graph is a tree) and
    # the host rows of the parent's image that hold the child's image.  The
    # root's entries are never read.
    order, up, rows = [0], [0], [host.out]
    seen = 1
    for i, v in enumerate(order):
        for w in bits(und[v] & ~seen):
            seen |= 1 << w
            order.append(w)
            up.append(i)
            rows.append(host.out if tree.out[v] >> w & 1 else host.inn)
    found = next(
        _sequences(
            (1 << host.n) - 1,
            k,
            lambda seq, used: rows[len(seq)][seq[up[len(seq)]]],
            lambda seq: True,
            as_budget(budget),
        ),
        None,
    )
    return None if found is None else dict(zip(order, found))


# --- rotation-extension heuristic ----------------------------------------


def rotation_extension(
    g: Digraph, start: Optional[CycleFactor] = None
) -> Optional[HamiltonCycle]:
    """Heuristic Hamilton cycle search for dense digraphs.

    Starts from a 1-factor, opens one cycle into a path, then alternates
    absorption of other cycles with chord-based re-splitting.  May fail on
    graphs where the exact solver succeeds; failure is returned as ``None``.

    Each move is a deterministic function of the state (path, remaining
    cycles), so once a state repeats the search is periodic and can only
    run into the n^3 step limit.  The state is recorded at every
    power-of-two step (Brent's cycle detection) and the search gives up,
    returning ``None``, as soon as the recorded state comes round again:
    the same answer as running to the limit, with one stored state.
    """
    n = g.n
    if n < 2:
        return None
    factor = start if start is not None else one_factor(g)
    if factor is None:
        return None
    if len(factor.cycles) == 1:
        h = HamiltonCycle(factor.cycles[0])
        return h if h.is_valid(g) else None
    cycles = [list(c) for c in factor.cycles]
    # open the first cycle into a path
    path = cycles.pop(0)
    steps = 0
    limit = n**3
    # the state at the last power-of-two step; path is never mutated in
    # place, but the cycle list is, so it is copied
    mark_path, mark_cycles = None, None
    while steps < limit:
        if path == mark_path and cycles == mark_cycles:
            return None
        if steps & (steps - 1) == 0:
            mark_path, mark_cycles = path, list(cycles)
        steps += 1
        if not cycles and g.has_arc(path[-1], path[0]):
            return HamiltonCycle(tuple(path))
        # extend forward: endpoint out-neighbour on another cycle
        extended = False
        for ci, cyc in enumerate(cycles):
            hit = next((j for j, v in enumerate(cyc) if g.has_arc(path[-1], v)), None)
            if hit is not None:
                path = path + cyc[hit:] + cyc[:hit]
                cycles.pop(ci)
                extended = True
                break
        if extended:
            continue
        # extend backward: start in-neighbour on another cycle
        for ci, cyc in enumerate(cycles):
            hit = next(
                (j for j, v in enumerate(cyc) if g.has_arc(v, path[0])), None
            )
            if hit is not None:
                path = cyc[hit + 1 :] + cyc[: hit + 1] + path
                cycles.pop(ci)
                extended = True
                break
        if extended:
            continue
        # rotate (or, with no cycle left, re-split): close a suffix of the
        # path into a cycle and retry
        for i in range(len(path) - 2, 0, -1):
            if g.has_arc(path[-1], path[i]):
                cycles.append(path[i:])
                path = path[:i]
                break
        else:
            return None
    return None
