"""Straightforward reference implementations kept as differential oracles.

These are the original, unoptimised versions of the library's hot layers:
the expander pipeline, the recursive Hamilton search, the Hamilton counting
DP, max-flow connectivity and the exact robust-expansion scan.  The
library's fast paths must return exactly what these return: the same
matching, the same host digraph, the same cycle order, the same counts, the
same verdict and witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from hamdg.conditions import Verdict, _frac
from hamdg.core import (
    CycleFactor,
    Digraph,
    HamiltonCycle,
    bits,
    is_strongly_connected,
    popcount,
)
from hamdg.errors import BadParams
from hamdg.expander import ClusterBlowup, ReducedDigraph, robust_threshold


def bipartite_matching(n_left: int, adj: Sequence[int]) -> Optional[list[int]]:
    """Recursive augmenting-path matching with a set of visited right vertices."""
    match_l = [-1] * n_left
    match_r: dict[int, int] = {}

    def augment(l: int, seen: set[int]) -> bool:
        for r in bits(adj[l]):
            if r in seen:
                continue
            seen.add(r)
            if r not in match_r or augment(match_r[r], seen):
                match_l[l] = r
                match_r[r] = l
                return True
        return False

    for l in range(n_left):
        if not augment(l, set()):
            return None
    return match_l


def one_factor(g: Digraph) -> Optional[CycleFactor]:
    if g.n == 0:
        return CycleFactor(())
    succ = bipartite_matching(g.n, g.out)
    if succ is None:
        return None
    seen = [False] * g.n
    cycles = []
    for v in range(g.n):
        if seen[v]:
            continue
        cyc = []
        x = v
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = succ[x]
        cycles.append(tuple(cyc))
    return CycleFactor(tuple(cycles))


def make_cluster_blowup(
    red: ReducedDigraph,
    *,
    exceptional: int = 0,
    demands=None,
    pair_density: float = 1.0,
    min_pair_degree: Optional[int] = None,
    seed: int = 0,
) -> tuple[ClusterBlowup, list[tuple[int, int]]]:
    """Blow-up drawn one random double per host pair, built from an arc list."""
    r, m = red.r, red.m
    k = r.n
    rng = np.random.Generator(np.random.Philox(seed))
    clusters = tuple(tuple(range(c * m, (c + 1) * m)) for c in range(k))
    n_core = k * m
    exc = tuple(range(n_core, n_core + exceptional))
    if demands is None:
        demands = [((2 * i) % k, (2 * i + 1) % k) for i in range(exceptional)]
    demands = list(demands)
    if len(demands) != exceptional:
        raise BadParams("one (T,U) demand pair per exceptional vertex")
    if min_pair_degree is None:
        min_pair_degree = max(1, (m + 1) // 2)
    arcs: list[tuple[int, int]] = []
    for ci, cj in r.arcs():
        for a in clusters[ci]:
            row = [rng.random() < pair_density for _ in range(m)]
            if sum(row) < min_pair_degree:
                row = [True] * m
            for j, keep in enumerate(row):
                if keep:
                    arcs.append((a, clusters[cj][j]))
    for i, (t_c, u_c) in enumerate(demands):
        a = exc[i]
        for x in clusters[t_c]:
            arcs.append((a, x))
        for y in clusters[u_c]:
            arcs.append((y, a))
    host = Digraph(n_core + exceptional, arcs)
    return ClusterBlowup(host, clusters, exc), demands


def rotation_extension(
    g: Digraph,
    start: Optional[CycleFactor] = None,
    *,
    max_restarts: Optional[int] = None,
) -> Optional[HamiltonCycle]:
    """The rotation-extension heuristic without the repeated-state exit."""
    n = g.n
    if n < 2:
        return None
    factor = start if start is not None else one_factor(g)
    if factor is None:
        return None
    if len(factor.cycles) == 1:
        h = HamiltonCycle(factor.cycles[0])
        return h if h.is_valid(g) else None
    if max_restarts is None:
        max_restarts = n * n
    cycles = [list(c) for c in factor.cycles]
    path = cycles.pop(0)
    steps = 0
    limit = max_restarts * n
    while steps < limit:
        steps += 1
        if not cycles:
            if g.has_arc(path[-1], path[0]):
                return HamiltonCycle(tuple(path))
            moved = False
            for i in range(len(path) - 2, 0, -1):
                if g.has_arc(path[-1], path[i]):
                    cycles.append(path[i:])
                    path = path[:i]
                    moved = True
                    break
            if not moved:
                return None
            continue
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
        moved = False
        for i in range(len(path) - 2, 0, -1):
            if g.has_arc(path[-1], path[i]):
                cycles.append(path[i:])
                path = path[:i]
                moved = True
                break
        if not moved:
            return None
    return None


def _ham_path_feasible(g: Digraph, visited: int, end: int, start: int) -> bool:
    """Cheap pruning: every unvisited vertex needs an available in-arc and
    out-arc, and the remainder must be weakly reachable."""
    n = g.n
    full = (1 << n) - 1
    un = full & ~visited
    if un == 0:
        return True
    avail_out = un | (1 << start)  # targets still usable
    avail_in = un | (1 << end)  # sources still usable
    for v in bits(un):
        if g.out[v] & (avail_out & ~(1 << v)) == 0:
            return False
        if g.inn[v] & (avail_in & ~(1 << v)) == 0:
            return False
    # endpoint must be able to move somewhere
    if g.out[end] & un == 0 and un:
        return False
    # reachability: all unvisited vertices must be reachable from `end`
    # inside un plus the closing vertex
    reach = 1 << end
    frontier = reach
    target = un | (1 << end)
    while frontier:
        new = 0
        for v in bits(frontier):
            new |= g.out[v] & target
        frontier = new & ~reach
        reach |= frontier
    return reach & un == un


def residual_feasible(g: Digraph, visited: int, end: int, start: int) -> bool:
    """The kernel's prune with the matching built from scratch: the path
    start..end contracted into one vertex P (left row ``out[end] & un``,
    right ``start`` standing for "into P") has a perfect matching in its
    bipartite double cover, and every unvisited vertex is reachable from
    ``end`` inside the unvisited set."""
    un = ((1 << g.n) - 1) & ~visited
    if un == 0:
        return True
    lefts = [start] + list(bits(un))
    rights = lefts
    col = {r: j for j, r in enumerate(rights)}
    rows = []
    for u in lefts:
        row = g.out[end] & un if u == start else g.out[u] & (un | 1 << start)
        rows.append(sum(1 << col[r] for r in bits(row)))
    if bipartite_matching(len(lefts), rows) is None:
        return False
    return _ham_path_feasible(g, visited, end, start)


def hamilton_search(
    g: Digraph, feasible=_ham_path_feasible, *, first: bool = False
) -> tuple[list[tuple[int, ...]], int]:
    """Recursive Hamilton search anchored at vertex 0, neighbours in
    ascending order, one node per call of ``extend``; returns the cycle
    orders found (only the first when ``first``) and the nodes expanded."""
    n = g.n
    full = (1 << n) - 1
    path = [0]
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(visited: int, end: int) -> bool:
        nonlocal nodes
        nodes += 1
        if visited == full:
            if g.has_arc(end, 0):
                found.append(tuple(path))
                return first
            return False
        if not feasible(g, visited, end, 0):
            return False
        for v in bits(g.out[end] & ~visited):
            path.append(v)
            if extend(visited | (1 << v), v):
                return True
            path.pop()
        return False

    extend(1, 0)
    return found, nodes


def find_hamilton_cycle(g: Digraph) -> tuple[Optional[HamiltonCycle], int]:
    """The recursive search with its pre-checks: the first cycle (or None)
    and the nodes expanded."""
    if g.n < 2 or not is_strongly_connected(g) or one_factor(g) is None:
        return None, 0
    found, nodes = hamilton_search(g, first=True)
    return (HamiltonCycle(found[0]) if found else None), nodes


def enumerate_hamilton_cycles(g: Digraph) -> tuple[list[HamiltonCycle], int]:
    """Every Hamilton cycle in search order, and the nodes expanded."""
    if g.n < 2:
        return [], 0
    found, nodes = hamilton_search(g)
    return [HamiltonCycle(order) for order in found], nodes


def count_hamilton(g: Digraph) -> tuple[int, int]:
    """(Hamilton paths, Hamilton cycles) by a dict subset DP over
    (visited set, endpoint); cycles anchored at vertex 0."""
    n = g.n
    if n == 0:
        return 0, 0
    full = (1 << n) - 1
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        by_size[popcount(mask)].append(mask)

    def run(table: dict[tuple[int, int], int], anchored: bool) -> None:
        for size in range(1, n):
            for mask in by_size[size]:
                if anchored and not mask & 1:
                    continue
                for v in bits(mask):
                    c = table.get((mask, v))
                    if not c:
                        continue
                    for w in bits(g.out[v] & ~mask):
                        key = (mask | (1 << w), w)
                        table[key] = table.get(key, 0) + c

    table = {(1 << v, v): 1 for v in range(n)}
    run(table, False)
    paths = sum(table.get((full, v), 0) for v in range(n))
    anchored = {(1, 0): 1}
    run(anchored, True)
    cycles = sum(anchored.get((full, v), 0) for v in range(1, n) if g.has_arc(v, 0))
    return paths, cycles


def max_vertex_disjoint_paths(g: Digraph, s: int, t: int) -> int:
    """Edmonds-Karp on the vertex-split network, capacities in a dict."""
    n = g.n
    # node ids: v_in = v, v_out = v + n
    cap: dict[tuple[int, int], int] = {}
    for v in range(n):
        cap[(v, v + n)] = 1 if v not in (s, t) else n
    for u in range(n):
        for v in bits(g.out[u]):
            cap[(u + n, v)] = n
    src, sink = s + n, t
    flow = 0
    while True:
        parent: dict[int, int] = {src: src}
        queue = [src]
        while queue and sink not in parent:
            x = queue.pop(0)
            for (a, b), c in cap.items():
                if a == x and c > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            return flow
        x = sink
        while x != src:
            p = parent[x]
            cap[(p, x)] -= 1
            cap[(x, p)] = cap.get((x, p), 0) + 1
            x = p
        flow += 1


def vertex_connectivity(g: Digraph) -> int:
    """Minimum of the s,t flows over every ordered non-adjacent pair."""
    best = g.n - 1
    for s in range(g.n):
        for t in range(g.n):
            if s != t and not g.has_arc(s, t):
                best = min(best, max_vertex_disjoint_paths(g, s, t))
    return best


def is_robust_outexpander_exact(g: Digraph, nu, tau) -> Verdict:
    """The exact robust-outexpansion check, one Python pass per mask."""
    nu, tau = _frac(nu), _frac(tau)
    n = g.n
    lo, hi = tau * n, (1 - tau) * n
    allowed = {s for s in range(1, n) if lo < s < hi}
    need = nu * n
    t = robust_threshold(n, nu)
    for mask in range(1, 1 << n):
        size = popcount(mask)
        if size not in allowed:
            continue
        rn = sum(1 for x in range(n) if popcount(g.inn[x] & mask) >= t)
        if Fraction(rn - size) < need:
            witness = {"S": sorted(bits(mask)), "rn_size": rn, "needed": str(size + need)}
            return Verdict("robust_outexpander", False, witness)
    return Verdict("robust_outexpander", True)
