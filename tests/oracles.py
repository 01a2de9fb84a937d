"""Straightforward reference implementations kept as differential oracles.

These are the original, unoptimised versions of the library's hot layers:
the expander pipeline (the blow-up, and the assembly with per-cluster
vertex sets), the recursive Hamilton search, the iterative search kernel
before its lookahead matching repair and degree-2 forcing, the
Hamilton counting DP (the dict DP, and the numpy DP with a rank table and
a per-vertex scatter), max-flow connectivity (and vertex 0's pair scan before it skipped the
mirrored flows of symmetric digraphs), the recursive independence
search with its greedy start, the exact robust-expansion scan, the
exact-cover decomposition search over every Hamilton cycle, the six
recursive sequence searches (fixed-length cycles, cycle powers, k-ordered
cycles, oriented patterns, cycle factors, tree embedding), the two cover
pipelines, each with its own restart loop, the arc-list matching
contraction, the Misra-Gries colouring that rescans every neighbourhood for
free colours, the per-arc in-row derivation, the Hamilton cycle check
through the arc list,
the arc-list builds of the dense constructions, the seeded random
generators with one numpy call per step, the pair-at-a-time degree rules
(Woodall, Meyniel, Bang-Jensen-Gutin-Li, the oriented Ore bound) with the
set-of-tuples dominated pairs, the ``Fraction`` CKKO rule, the
per-vertex degree helpers that count every row afresh, the arc-tuple parser and the class test.  The
library's fast paths must return exactly what these return: the same
matching, the same host digraph, the same cycle order, the same counts, the
same verdict and witness, the same cover or the same failing matching, the
same rows, the same parse error.

The library's bipartite matchings take each left's lowest unmatched right
before any alternating path, so they equal ``seeded_matching``;
``bipartite_matching`` keeps Kuhn's plain order, the matching order before
that seed, and its verdicts must still agree.

Four oracles were never fast paths: ``count_hamilton_naive`` counts
Hamilton paths and cycles over every permutation, ``vertex_connectivity_brute``
(with its helper ``strongly_connected_within``) and
``independence_numbers_brute`` try every vertex set, and
``coloring_is_proper`` checks an edge colouring class by class.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from hamdg import solvers
from hamdg.conditions import Verdict, _frac, _require_oriented
from hamdg.core import (
    CycleFactor,
    DegreeSequencePair,
    Digraph,
    HamiltonCycle,
    Matching,
    _reach,
    _vertex_disjoint_paths,
    bits,
    is_oriented,
    is_strongly_connected,
    is_tournament,
    popcount,
)
from hamdg.decomp import (
    Cover,
    CoverReport,
    Decomposition,
    EdgeColoring,
    _benchmarks,
    decompose_exact,
    greedy_extract,
    greedy_extract_undirected,
    split_matching,
)
from hamdg.errors import (
    ArcMissing,
    BadParams,
    BudgetExceeded,
    CoverFailure,
    FormatError,
    MatchingFailure,
    MergeFailure,
)
from hamdg.expander import (
    AssemblyTrace,
    ClosedWalk,
    ClusterBlowup,
    OneFactorF,
    ReducedDigraph,
    _restrict,
    _runs,
    robust_threshold,
)
from hamdg.solvers import DEFAULT_BUDGET, hamilton_cycle_through


def bipartite_matching(n_left: int, adj: Sequence[int]) -> Optional[list[int]]:
    """Kuhn's plain order: each left in turn runs Kuhn's search
    (``augment``) from an empty seen set, with no unmatched-right seed."""
    match_l = [-1] * n_left
    match_r = [-1] * max((row.bit_length() for row in adj), default=0)
    for l in range(n_left):
        if not augment(match_l, match_r, l, adj, 0):
            return None
    return match_l


def seeded_matching(n_left: int, adj: Sequence[int]) -> Optional[list[int]]:
    """Each left in turn takes its lowest unmatched right when its row has
    one, and otherwise runs Kuhn's search (``augment``) from an empty seen
    set: the matching order of the library's ``_bipartite_matching``."""
    match_l = [-1] * n_left
    match_r = [-1] * max((row.bit_length() for row in adj), default=0)
    for l in range(n_left):
        open_rights = [r for r in bits(adj[l]) if match_r[r] < 0]
        if open_rights:
            match_l[l], match_r[open_rights[0]] = open_rights[0], l
        elif not augment(match_l, match_r, l, adj, 0):
            return None
    return match_l


def one_factor(g: Digraph, matching=bipartite_matching) -> Optional[CycleFactor]:
    """The 1-factor from ``matching`` on the double cover; the default,
    Kuhn's plain order, is the one the library used before it seeded its
    matchings with the unmatched rights."""
    if g.n == 0:
        return CycleFactor(())
    succ = matching(g.n, g.out)
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
    pair_density: float = 1.0,
    seed: int = 0,
) -> tuple[ClusterBlowup, list[tuple[int, int]]]:
    """Blow-up drawn one random double per host pair, built from an arc list."""
    r, m = red.r, red.m
    k = r.n
    rng = np.random.Generator(np.random.Philox(seed))
    clusters = tuple(tuple(range(c * m, (c + 1) * m)) for c in range(k))
    n_core = k * m
    exc = tuple(range(n_core, n_core + exceptional))
    demands = [((2 * i) % k, (2 * i + 1) % k) for i in range(exceptional)]
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


def assemble_hamilton(
    blowup: ClusterBlowup,
    red: ReducedDigraph,
    f: OneFactorF,
    walk: ClosedWalk,
) -> AssemblyTrace:
    """The assembly with per-cluster entry and exit sets and a ``pick``
    scan over each cluster's vertex list for the walk links."""
    host = blowup.host
    clusters = blowup.clusters
    k = len(clusters)
    entry_sets: list[set[int]] = [set() for _ in range(k)]
    exit_sets: list[set[int]] = [set() for _ in range(k)]
    fixed_succ: dict[int, int] = {}

    def pick(cluster: int, *, sending_to: Optional[int] = None,
             receiving_from: Optional[int] = None) -> int:
        used = entry_sets[cluster] | exit_sets[cluster]
        for v in clusters[cluster]:
            if v in used or v in fixed_succ:
                continue
            if sending_to is not None and not host.has_arc(v, sending_to):
                continue
            if receiving_from is not None and not host.has_arc(receiving_from, v):
                continue
            return v
        raise MatchingFailure(
            f"no free vertex in cluster {cluster} for a connecting arc"
        )

    # 1. fix host arcs for the walk links
    for link in walk.links:
        kind = link[0]
        if kind == "jump":
            _, ca, cb = link
            # choose the exit vertex first, then an entry it can reach
            used_b = entry_sets[cb] | exit_sets[cb]
            chosen = None
            for x in clusters[ca]:
                if x in entry_sets[ca] | exit_sets[ca]:
                    continue
                for y in clusters[cb]:
                    if y in used_b:
                        continue
                    if host.has_arc(x, y):
                        chosen = (x, y)
                        break
                if chosen:
                    break
            if not chosen:
                raise MatchingFailure(f"no free arc from cluster {ca} to {cb}")
            x, y = chosen
            exit_sets[ca].add(x)
            entry_sets[cb].add(y)
            fixed_succ[x] = y
        elif kind == "exc_out":
            _, i, t_c = link
            a = blowup.exceptional[i]
            x = pick(t_c, receiving_from=a)
            entry_sets[t_c].add(x)
            fixed_succ[a] = x
        elif kind == "exc_in":
            _, u_c, i = link
            a = blowup.exceptional[i]
            y = pick(u_c, sending_to=a)
            exit_sets[u_c].add(y)
            fixed_succ[y] = a
        else:
            raise BadParams(f"unknown link kind {kind!r}")

    # 2. per-cluster perfect matchings A \ A_exit -> A+ \ A+_entry
    matchings: dict[int, dict[int, int]] = {}
    for ca in range(k):
        cb = f.succ[ca]
        left = [v for v in clusters[ca] if v not in exit_sets[ca]]
        right = [v for v in clusters[cb] if v not in entry_sets[cb]]
        if len(left) != len(right):
            raise MatchingFailure(
                f"cluster {ca}: unbalanced matching classes "
                f"({len(left)} vs {len(right)})"
            )
        runs = _runs(right)
        rows = [_restrict(host.out[a], runs) for a in left]
        match = solvers._bipartite_matching(len(left), rows)
        if match is None:
            raise MatchingFailure(f"cluster {ca}: no perfect matching to {cb}")
        matchings[ca] = {left[i]: right[match[i]] for i in range(len(left))}

    # 3. the 1-factor
    succ: dict[int, int] = dict(fixed_succ)
    for ca, mp in matchings.items():
        succ.update(mp)
    if len(succ) != host.n:
        raise MatchingFailure("1-factor construction left vertices unmatched")
    initial = CycleFactor.from_succ(succ)

    # 4. merge cluster by cluster through the auxiliary digraph J
    merges = []
    methods = []
    for ca in range(k):
        left_set = set(matchings[ca].keys())
        right = sorted(matchings[ca].values())
        if len(right) <= 1:
            continue
        fmap: dict[int, int] = {}
        for a in right:
            x = a
            while x not in left_set:
                x = succ[x]
            fmap[a] = x
        runs = _runs(right)
        rows = [
            _restrict(host.out[fmap[a]], runs) & ~(1 << i)
            for i, a in enumerate(right)
        ]
        j_digraph = Digraph.from_out_masks(rows)
        h = solvers.rotation_extension(j_digraph)
        method = "rotation"
        if h is None:
            h = solvers.find_hamilton_cycle(j_digraph)
            method = "exact"
        if h is None:
            raise MergeFailure(f"auxiliary digraph of cluster {ca} not Hamiltonian")
        new_matching = []
        order = h.order
        for i, ja in enumerate(order):
            a, b = right[ja], right[order[(i + 1) % len(order)]]
            new_matching.append((fmap[a], b))
        for x, b in new_matching:
            succ[x] = b
        matchings[ca] = dict(new_matching)
        merges.append((ca, tuple(sorted(new_matching))))
        methods.append(method)

    final = CycleFactor.from_succ(succ)
    if len(final.cycles) != 1:
        raise MergeFailure(
            f"assembly left {len(final.cycles)} cycles instead of one"
        )
    cycle = HamiltonCycle(final.cycles[0]).canonical()
    if not cycle.is_valid(host):
        raise MergeFailure("assembled order is not a Hamilton cycle of the host")
    return AssemblyTrace(cycle, initial, tuple(merges), tuple(methods))


def rotation_extension(
    g: Digraph,
    start: Optional[CycleFactor] = None,
    *,
    max_restarts: Optional[int] = None,
) -> Optional[HamiltonCycle]:
    """The rotation-extension heuristic without the repeated-state exit,
    from the seeded matching's 1-factor unless ``start`` is given."""
    n = g.n
    if n < 2:
        return None
    factor = start if start is not None else one_factor(g, seeded_matching)
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


def augment(
    match_l: list[int], match_r: list[int], root: int, adj: Sequence[int], seen: int
) -> bool:
    """Kuhn's augmenting path from the free left ``root``, rights tried in
    ascending order on an explicit stack, as the kernel first repaired its
    matching; False, leaving the matching as it was, if there is none."""
    lefts = [root]  # the alternating path: lefts[i] -> rights[i]
    rights: list[int] = []
    while True:
        cand = adj[lefts[-1]] & ~seen
        if not cand:
            lefts.pop()
            if not lefts:
                return False
            rights.pop()
            continue
        low = cand & -cand
        seen |= low
        r = low.bit_length() - 1
        rights.append(r)
        owner = match_r[r]
        if owner < 0:
            for l, r in zip(lefts, rights):
                match_l[l] = r
                match_r[r] = l
            return True
        lefts.append(owner)


def hamilton_orders(g: Digraph, succ: Sequence[int], b) -> Iterator[tuple[int, ...]]:
    """The iterative kernel with the 1-factor and reach prunes only: Kuhn's
    ascending order repairs the matching (``augment``) and there is no
    degree-2 forcing.  ``b`` is ticked once per node, as the library's
    ``_Budget`` is."""
    n = g.n
    out = g.out
    full = (1 << n) - 1
    b.tick()
    if _reach(out, 1) != full:
        return
    match_r = [-1] * n
    for l, r in enumerate(succ):
        match_r[r] = l
    rows = list(out)
    path = [0]
    visited = 1
    cands = [out[0]]
    matches = [(list(succ), match_r)]
    while cands:
        cand = cands[-1]
        if not cand:
            cands.pop()
            matches.pop()
            visited ^= 1 << path.pop()
            continue
        low = cand & -cand
        cands[-1] = cand ^ low
        b.tick()
        v = low.bit_length() - 1
        un = full ^ visited ^ low
        if not un:
            if out[v] & 1:
                yield (*path, v)
            continue
        parent_l, parent_r = matches[-1]
        match_l, match_r = parent_l[:], parent_r[:]
        rv, lv = match_l[v], match_r[v]
        match_r[rv] = match_l[lv] = match_r[v] = -1
        p_row = out[v] & un
        r0 = match_l[0]
        if r0 >= 0 and not p_row >> r0 & 1:
            match_l[0] = match_r[r0] = -1
        rows[0] = p_row
        done = visited ^ low ^ 1
        if lv and not augment(match_l, match_r, lv, rows, done):
            continue
        if match_l[0] < 0 and not augment(match_l, match_r, 0, rows, done):
            continue
        if _reach(out, low, un) & un != un:
            continue
        path.append(v)
        visited |= low
        cands.append(p_row)
        matches.append((match_l, match_r))


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


def end_counts_scatter(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Hamilton paths of the digraph ``adj`` (a k x k 0/1 int64 matrix),
    counted by last vertex; a path starting at v carries weight ``start[v]``.

    Layered subset DP (Bellman; Held & Karp): masks are indexed in
    popcount order, ``rank[mask]`` being a mask's position within its
    layer, and only two layers are alive.  Each layer costs one int64
    matmul ``table @ adj`` (``step[i, w]``: paths over mask i, then one arc
    to w) and one scatter per vertex w into the entries of ``mask | w`` for
    the masks without w.  The caller keeps k <= COUNT_CAP so no entry
    can overflow."""
    k = len(start)
    pc = np.bitwise_count(np.arange(1 << k, dtype=np.int64))
    order = np.argsort(pc, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(pc, minlength=k + 1))))
    rank = np.empty(1 << k, dtype=np.int64)
    rank[order] = np.arange(1 << k) - offsets[pc[order]]
    table = np.diag(start)  # layer 1 holds the masks 1, 2, 4, ... in order
    for p in range(1, k):
        masks = order[offsets[p] : offsets[p + 1]]
        step = table @ adj
        table = np.zeros((offsets[p + 2] - offsets[p + 1], k), dtype=np.int64)
        for w in range(k):
            free = (masks >> w) & 1 == 0
            table[rank[masks[free] | (1 << w)], w] = step[free, w]
    return table[0]


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


def count_hamilton_naive(g: Digraph) -> tuple[int, int]:
    """Permutation-enumeration oracle for small n (independent of the DP)."""
    n = g.n
    paths = 0
    cycles = 0
    for perm in itertools.permutations(range(n)):
        if all(g.has_arc(perm[i], perm[i + 1]) for i in range(n - 1)):
            paths += 1
            if n >= 2 and perm[0] == 0 and g.has_arc(perm[-1], perm[0]):
                cycles += 1
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


def vertex_connectivity_two_way(g: Digraph) -> int:
    """Vertex 0's pair scan with every flow run on symmetric digraphs too:
    (0, w), (w, 0) and each ordered (a, b)."""
    n = g.n
    out, inn = g.out, g.inn
    best = min(n - 1, min(map(popcount, out)), min(map(popcount, inn)))
    others = (1 << n) - 2
    for w in bits(others & ~out[0]):
        best = _vertex_disjoint_paths(g, 0, w, best)
    for w in bits(others & ~inn[0]):
        best = _vertex_disjoint_paths(g, w, 0, best)
    for a in bits(inn[0]):
        for b in bits(out[0] & ~out[a] & ~(1 << a)):
            best = _vertex_disjoint_paths(g, a, b, best)
    return best


def strongly_connected_within(g: Digraph, mask: int) -> bool:
    """Is the sub-digraph induced on ``mask`` strongly connected?"""
    if mask == 0:
        return True
    start = mask & -mask
    adj = [g.out[v] & mask for v in range(g.n)]
    radj = [g.inn[v] & mask for v in range(g.n)]
    return _reach(adj, start) == mask and _reach(radj, start) == mask


def vertex_connectivity_brute(g: Digraph) -> int:
    """The least k such that removing some k vertices leaves one vertex or
    a digraph that is not strongly connected, over every vertex set."""
    full = (1 << g.n) - 1
    for k in range(g.n):
        for removed in itertools.combinations(range(g.n), k):
            mask = full
            for v in removed:
                mask &= ~(1 << v)
            if popcount(mask) == 1 or not strongly_connected_within(g, mask):
                return k
    return g.n - 1


def max_independent_set(n: int, adj: Sequence[int]) -> int:
    """Size of a maximum independent set: a greedy start, then a recursive
    branch and bound on the max-degree vertex, bounded by size + |mask|."""
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
    """(alpha_0, alpha_2) by ``max_independent_set``, with no size cap."""
    alpha0 = max_independent_set(g.n, [g.out[v] | g.inn[v] for v in range(g.n)])
    return alpha0, max_independent_set(g.n, [g.out[v] & g.inn[v] for v in range(g.n)])


def independence_numbers_brute(g: Digraph) -> tuple[int, int]:
    """(alpha_0, alpha_2) over every vertex set."""
    best = [0, 0]
    for i, adj in enumerate(([g.out[v] | g.inn[v] for v in range(g.n)],
                             [g.out[v] & g.inn[v] for v in range(g.n)])):
        for s in range(1 << g.n):
            if popcount(s) > best[i] and not any(adj[v] & s for v in bits(s)):
                best[i] = popcount(s)
    return best[0], best[1]


def is_robust_outexpander_exact(g: Digraph, nu, tau) -> Verdict:
    """The exact robust-outexpansion check, one Python pass per mask."""
    nu, tau = _frac(nu, "nu"), _frac(tau, "tau")
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


# --- the recursive sequence searches -------------------------------------


class Nodes:
    """Counts search nodes, one per call of a recursive ``extend``/``place``,
    and raises ``BudgetExceeded`` on node ``budget + 1``."""

    def __init__(self, budget: int = 10**9):
        self.budget = budget
        self.count = 0

    def tick(self) -> None:
        self.count += 1
        if self.count > self.budget:
            raise BudgetExceeded("search node budget exhausted")


def find_cycle_of_length(
    g: Digraph, length: int, b: Nodes
) -> Optional[tuple[int, ...]]:
    """Anchored recursive enumeration: the smallest vertex of the cycle in
    ascending order, only larger vertices after it."""
    if length < 2 or length > g.n:
        return None
    path: list[int] = []

    def extend(anchor: int, visited: int, end: int, depth: int) -> bool:
        b.tick()
        if depth == length:
            return g.has_arc(end, anchor)
        allowed = g.out[end] & ~visited
        allowed &= ~((1 << (anchor + 1)) - 1)  # only vertices > anchor
        for v in bits(allowed):
            path.append(v)
            if extend(anchor, visited | (1 << v), v, depth + 1):
                return True
            path.pop()
        return False

    for anchor in range(g.n - length + 1):
        path[:] = [anchor]
        if extend(anchor, 1 << anchor, anchor, 1):
            return tuple(path)
    return None


def kth_power_hamilton(g: Digraph, k: int, b: Nodes) -> Optional[HamiltonCycle]:
    """Recursive search from vertex 0 for a cyclic order where every vertex
    sends an arc to each of the next k (k >= 2, no size cap)."""
    n = g.n
    if n < k + 1:
        return None
    full = (1 << n) - 1
    order = [0]

    def extend(visited: int) -> bool:
        b.tick()
        pos = len(order)
        if visited == full:
            for i in range(n - k, n):
                for j in range(1, k + 1):
                    if i + j >= n and not g.has_arc(order[i], order[(i + j) % n]):
                        return False
            return True
        cand = full & ~visited
        for back in range(1, min(pos, k) + 1):
            cand &= g.out[order[pos - back]]
        for v in bits(cand):
            order.append(v)
            if extend(visited | (1 << v)):
                return True
            order.pop()
        return False

    if extend(1):
        return HamiltonCycle(tuple(order))
    return None


def k_ordered_hamilton(
    g: Digraph, sequence: Sequence[int], b: Nodes
) -> Optional[HamiltonCycle]:
    """Recursive search from ``sequence[0]``; a sequence vertex may only be
    entered when it is the next one due (``sequence`` non-empty)."""
    seq = list(sequence)
    if len(set(seq)) != len(seq):
        raise BadParams("sequence vertices must be distinct")
    full = (1 << g.n) - 1
    in_seq = {v: i for i, v in enumerate(seq)}
    path = [seq[0]]

    def extend(visited: int, end: int, next_idx: int) -> bool:
        b.tick()
        if visited == full:
            return next_idx == len(seq) and g.has_arc(end, seq[0])
        for v in bits(g.out[end] & ~visited):
            idx = in_seq.get(v)
            if idx is not None and idx != next_idx:
                continue
            path.append(v)
            if extend(visited | (1 << v), v, next_idx + (idx is not None)):
                return True
            path.pop()
        return False

    if extend(1 << seq[0], seq[0], 1):
        return HamiltonCycle(tuple(path))
    return None


def pattern_search(
    g: Digraph, signs: Sequence[int], closed: bool, b: Nodes
) -> Optional[tuple[int, ...]]:
    """Recursive oriented Hamilton cycle (``closed``) or path search over
    every start vertex (no size cap)."""
    n = g.n
    if closed and len(signs) != n:
        raise BadParams("cycle pattern length must equal n")
    if not closed and len(signs) != n - 1:
        raise BadParams("path pattern length must equal n-1")
    full = (1 << n) - 1
    order: list[int] = []

    def step_mask(cur: int, sign: int) -> int:
        return g.out[cur] if sign == 1 else g.inn[cur]

    def extend(visited: int, pos: int) -> bool:
        b.tick()
        if visited == full:
            if not closed:
                return True
            s = signs[n - 1]
            u, v = order[-1], order[0]
            return g.has_arc(u, v) if s == 1 else g.has_arc(v, u)
        cand = step_mask(order[-1], signs[pos - 1]) & ~visited
        for v in bits(cand):
            order.append(v)
            if extend(visited | (1 << v), pos + 1):
                return True
            order.pop()
        return False

    for start in range(n):
        order[:] = [start]
        if extend(1 << start, 1):
            return tuple(order)
    return None


def disjoint_cycle_factor(
    g: Digraph, lengths: Sequence[int], b: Nodes
) -> Optional[CycleFactor]:
    """Set partition into cycles of the given lengths, each cycle found by
    a recursive generator from the lowest available vertex."""
    lmin = 3 if is_oriented(g) else 2
    if sum(lengths) != g.n:
        raise BadParams("lengths must sum to n")
    if any(l < lmin for l in lengths):
        raise BadParams(f"cycle lengths must be >= {lmin} for this class")
    full = (1 << g.n) - 1

    def cycles_through(anchor: int, length: int, avail: int):
        path = [anchor]

        def extend(visited: int, end: int, depth: int):
            b.tick()
            if depth == length:
                if g.has_arc(end, anchor):
                    yield tuple(path)
                return
            allowed = g.out[end] & avail & ~visited
            allowed &= ~((1 << (anchor + 1)) - 1)
            for v in bits(allowed):
                path.append(v)
                yield from extend(visited | (1 << v), v, depth + 1)
                path.pop()

        yield from extend(1 << anchor, anchor, 1)

    chosen: list[tuple[int, ...]] = []

    def solve(avail: int, remaining: tuple[int, ...]) -> bool:
        if avail == 0:
            return not remaining
        anchor = (avail & -avail).bit_length() - 1
        tried = set()
        for i, length in enumerate(remaining):
            if length in tried:
                continue
            tried.add(length)
            rest = remaining[:i] + remaining[i + 1 :]
            for cyc in cycles_through(anchor, length, avail):
                mask = 0
                for v in cyc:
                    mask |= 1 << v
                chosen.append(cyc)
                if solve(avail & ~mask, rest):
                    return True
                chosen.pop()
        return False

    if solve(full, tuple(sorted(lengths))):
        return CycleFactor(tuple(chosen))
    return None


def _tree_connected(tree: Digraph) -> bool:
    und = [tree.out[v] | tree.inn[v] for v in range(tree.n)]
    seen = 1
    frontier = 1
    while frontier:
        new = 0
        for v in bits(frontier):
            new |= und[v]
        frontier = new & ~seen
        seen |= frontier
    return seen == (1 << tree.n) - 1


def embed_tree(host: Digraph, tree: Digraph, b: Nodes) -> Optional[dict[int, int]]:
    """Recursive embedding of an oriented tree in breadth-first order from
    tree vertex 0; ``place(i)`` is one node, ``place(0)`` included."""
    k = tree.n
    if k > host.n:
        return None
    if tree.m != k - 1 or (k > 1 and not _tree_connected(tree)):
        raise BadParams("tree argument is not an oriented tree")
    order = [0]
    seen = {0}
    idx = 0
    while idx < len(order):
        v = order[idx]
        idx += 1
        for w in bits(tree.out[v] | tree.inn[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    parent: dict[int, tuple[int, bool]] = {}
    for v in order[1:]:
        for w in bits(tree.out[v] | tree.inn[v]):
            if w in parent or w == order[0]:
                parent[v] = (w, tree.has_arc(w, v))
                break
    assign: dict[int, int] = {}
    used = 0

    def place(i: int) -> bool:
        nonlocal used
        b.tick()
        if i == len(order):
            return True
        v = order[i]
        if i == 0:
            cand = (1 << host.n) - 1
        else:
            p, down = parent[v]
            hp = assign[p]
            cand = (host.out[hp] if down else host.inn[hp]) & ~used
        for hv in bits(cand):
            assign[v] = hv
            used |= 1 << hv
            if place(i + 1):
                return True
            used &= ~(1 << hv)
            del assign[v]
        return False

    if place(0):
        return dict(assign)
    return None


# --- the exact cover decomposition ---------------------------------------


def decompose_exact_cover(
    g: Digraph, *, budget: int = DEFAULT_BUDGET
) -> Optional[Decomposition]:
    """The decomposition search before the lazy residual one: list every
    Hamilton cycle, then an exact cover of the arcs over their frozensets,
    branching on the uncovered arc with the fewest candidate cycles.  The
    listing and the cover each have a budget of their own."""
    n = g.n
    if n < 2:
        raise BadParams("n >= 2")
    m = g.m
    if m % n:
        raise BadParams("arc count not divisible by n; no decomposition possible")
    r = m // n
    if any(g.out_deg(v) != r or g.in_deg(v) != r for v in range(n)):
        raise BadParams("decompose_exact requires a regular digraph")
    all_cycles = [
        h.canonical() for h in solvers.enumerate_hamilton_cycles(g, budget=budget)
    ]
    arcsets = [frozenset(h.arcs()) for h in all_cycles]
    chosen: list[int] = []
    b = solvers._Budget(budget)

    def solve(uncovered: frozenset, available: list[int]) -> bool:
        b.tick()
        if not uncovered:
            return True
        best_cands = None
        for arc in uncovered:
            cands = [i for i in available if arc in arcsets[i]]
            if best_cands is None or len(cands) < len(best_cands):
                best_cands = cands
                if not cands:
                    return False
        for i in best_cands:
            chosen.append(i)
            rest = [j for j in available if arcsets[j].isdisjoint(arcsets[i])]
            if solve(uncovered - arcsets[i], rest):
                return True
            chosen.pop()
        return False

    # frozenset of a set, not of the arc list: the iteration order of the
    # uncovered arcs, and with it the decomposition found, follows the
    # table the set built
    if solve(frozenset(set(g.arcs())), list(range(len(all_cycles)))):
        return Decomposition(tuple(all_cycles[i] for i in chosen))
    return None


# --- the arc-list contraction and the scanning edge colouring -------------


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


def vizing_color(f: Digraph) -> EdgeColoring:
    """Proper edge colouring of a simple undirected graph (symmetric
    digraph) with at most Delta+1 colours, by Misra-Gries fan rotation."""
    if not f.is_symmetric():
        raise BadParams("vizing_color expects a symmetric (undirected) digraph")
    n = f.n
    edges = f.undirected_edges()
    if not edges:
        return EdgeColoring(())
    delta = max(popcount(f.out[v]) for v in range(n))
    ncolors = delta + 1
    color: dict[tuple[int, int], int] = {}

    def key(u, v):
        return (min(u, v), max(u, v))

    def colored_with(v: int, c: int) -> Optional[int]:
        for w in bits(f.out[v]):
            if color.get(key(v, w)) == c:
                return w
        return None

    def free_colors(v: int) -> list[int]:
        used = {color[key(v, w)] for w in bits(f.out[v]) if key(v, w) in color}
        return [c for c in range(ncolors) if c not in used]

    for u, v in edges:
        # build a maximal fan of u starting at v
        fan = [v]
        fan_set = {v}
        while True:
            grown = False
            for w in bits(f.out[u]):
                if w in fan_set or key(u, w) not in color:
                    continue
                if color[key(u, w)] in free_colors(fan[-1]):
                    fan.append(w)
                    fan_set.add(w)
                    grown = True
                    break
            if not grown:
                break
        c = free_colors(u)[0]
        d = free_colors(fan[-1])[0]
        if c != d:
            # invert the cd-path from u
            x, cur = u, d
            path = []
            while True:
                y = colored_with(x, cur)
                if y is None or (path and y == path[-1][0]):
                    break
                path.append((x, y))
                x = y
                cur = c if cur == d else d
            swap = {c: d, d: c}
            for x, y in path:
                color[key(x, y)] = swap[color[key(x, y)]]
            # shrink the fan to the first vertex where d is now free
            w = next((z for z in fan if d in free_colors(z)), fan[-1])
            fan = fan[: fan.index(w) + 1]
        # rotate the fan
        for i in range(len(fan) - 1):
            color[key(u, fan[i])] = color[key(u, fan[i + 1])]
        color[key(u, fan[-1])] = d

    classes: list[list[tuple[int, int]]] = [[] for _ in range(ncolors)]
    for e, c in color.items():
        classes[c].append(e)
    return EdgeColoring(
        tuple(tuple(sorted(cls)) for cls in classes if cls)
    )


# --- the edge colouring check ----------------------------------------------


def coloring_is_proper(f: Digraph, coloring: EdgeColoring) -> bool:
    """Whether every class is a matching of f and the classes together
    hold every edge of f."""
    seen = set()
    for cls in coloring.classes:
        endpoints = set()
        for u, v in cls:
            if u in endpoints or v in endpoints or not f.has_arc(u, v):
                return False
            endpoints.add(u)
            endpoints.add(v)
            seen.add((min(u, v), max(u, v)))
    return seen == set(f.undirected_edges())


# --- the two cover pipelines ---------------------------------------------


def _leftover_matchings(leftover_undirected: Digraph, cap: int) -> list[Matching]:
    coloring = vizing_color(leftover_undirected)
    pieces: list[Matching] = []
    for cls in coloring.classes:
        pieces.extend(split_matching(Matching(tuple(cls)), cap))
    return pieces


def cover_tournament(
    g: Digraph,
    *,
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    exact_max_n: int = 9,
    restarts: int = 3,
) -> CoverReport:
    """Exact decomposition on the first attempt up to ``exact_max_n``, then
    greedy extraction and routing with its own restart loop."""
    if not is_tournament(g):
        raise BadParams("cover_tournament expects a tournament")
    n = g.n
    r = (n - 1) // 2
    if any(g.out_deg(v) != r for v in range(n)):
        raise BadParams("cover_tournament expects a regular tournament")
    if cap is None:
        cap = max(1, math.isqrt(n - 1) + 1)
    last_fail: Optional[CoverFailure] = None
    for attempt in range(restarts + 1):
        if n <= exact_max_n and attempt == 0:
            dec = decompose_exact(g, budget=budget)
            if dec is not None:
                return CoverReport(
                    Cover(dec.cycles), len(dec.cycles), 0, _benchmarks(n)
                )
            extracted, leftover = greedy_extract(g, budget=budget)
        else:
            seed = None if attempt == 0 else attempt
            extracted, leftover = greedy_extract(g, budget=budget, order_seed=seed)
        try:
            fill = _route_matchings(g, leftover.symmetrize(), cap, budget, directed=True)
            cycles = tuple(extracted) + tuple(fill)
            return CoverReport(Cover(cycles), len(extracted), len(fill), _benchmarks(n))
        except CoverFailure as exc:
            last_fail = exc
    raise last_fail  # type: ignore[misc]


def _route_matchings(
    host: Digraph, leftover_und: Digraph, cap: int, budget: int, *, directed: bool
) -> list[HamiltonCycle]:
    """Directed: orient each matching edge as the host has it.  Undirected:
    orient it low -> high and route in the host with the reverse matching
    arcs removed (``doubled``)."""
    out = []
    for m in _leftover_matchings(leftover_und, cap):
        if directed:
            oriented = Matching(
                tuple(
                    (u, v) if host.has_arc(u, v) else (v, u) for u, v in sorted(m.arcs)
                )
            )
            h = hamilton_cycle_through(host, oriented, budget=budget)
        else:
            oriented = Matching(tuple(sorted(m.arcs)))
            doubled = host.without_arcs([(v, u) for u, v in oriented.arcs])
            h = hamilton_cycle_through(doubled, oriented, budget=budget)
        if h is None:
            raise CoverFailure(m)
        out.append(h)
    return out


def cover_regular_graph(
    g: Digraph,
    *,
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    restarts: int = 3,
) -> CoverReport:
    """Greedy undirected extraction and routing with its own restart loop."""
    if not g.is_symmetric():
        raise BadParams("cover_regular_graph expects a symmetric digraph")
    n = g.n
    degs = {popcount(g.out[v]) for v in range(n)}
    if len(degs) != 1:
        raise BadParams("cover_regular_graph expects a regular graph")
    if cap is None:
        cap = max(1, math.isqrt(n - 1) + 1)
    last_fail: Optional[CoverFailure] = None
    for attempt in range(restarts + 1):
        seed = None if attempt == 0 else attempt
        extracted, rest = greedy_extract_undirected(g, budget=budget, order_seed=seed)
        try:
            fill = _route_matchings(g, rest, cap, budget, directed=False)
            cycles = tuple(extracted) + tuple(fill)
            return CoverReport(Cover(cycles), len(extracted), len(fill), _benchmarks(n))
        except CoverFailure as exc:
            last_fail = exc
    raise last_fail  # type: ignore[misc]


# --- in-rows and the arc-list constructions -------------------------------


def derive_in(n: int, out: Sequence[int]) -> tuple[int, ...]:
    """In-rows built one arc at a time."""
    inn = [0] * n
    for u in range(n):
        m = out[u]
        while m:
            b = m & -m
            inn[b.bit_length() - 1] |= 1 << u
            m ^= b
    return tuple(inn)


def hamilton_cycle_is_valid(cycle: HamiltonCycle, g: Digraph) -> bool:
    """``HamiltonCycle.is_valid`` through the arc list and ``has_arc``."""
    if sorted(cycle.order) != list(range(g.n)):
        return False
    return all(g.has_arc(u, v) for u, v in cycle.arcs())


def complete_bipartite_digraph(a: int, b: int) -> Digraph:
    arcs = []
    for u in range(a):
        for v in range(a, a + b):
            arcs.append((u, v))
            arcs.append((v, u))
    return Digraph(a + b, arcs)


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def circulant_tournament(n: int, shifts: Optional[Sequence[int]] = None) -> Digraph:
    """Arcs i -> i+s (mod n), plus lower half -> upper half for even n."""
    if shifts is None:
        shifts = range(1, (n - 1) // 2 + 1)
    arcs = [(i, (i + s) % n) for i in range(n) for s in sorted(set(shifts))]
    if n % 2 == 0:
        arcs += [(i, i + n // 2) for i in range(n // 2)]
    return Digraph(n, arcs)


def transitive_tournament(n: int) -> Digraph:
    return Digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_digraph(n: int, arc_prob: float, seed: int) -> Digraph:
    rng = np.random.Generator(np.random.Philox(seed))
    sample = rng.random((n, n))
    arcs = [
        (u, v) for u in range(n) for v in range(n) if u != v and sample[u, v] < arc_prob
    ]
    return Digraph(n, arcs)


# --- the per-draw random generators -------------------------------------


def random_tournament(n: int, seed: int) -> Digraph:
    """One ``integers(0, 2)`` call per pair."""
    rng = np.random.Generator(np.random.Philox(seed))
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.integers(0, 2):
                arcs.append((i, j))
            else:
                arcs.append((j, i))
    return Digraph(n, arcs)


def random_regular_tournament(n: int, seed: int) -> Digraph:
    """One ``choice(n, 3, replace=False)`` call per switching step."""
    out = list(circulant_tournament(n).out)
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(50 * n * n):
        a, b, c = rng.choice(n, size=3, replace=False)
        a, b, c = int(a), int(b), int(c)
        if out[a] >> b & 1 and out[b] >> c & 1 and out[c] >> a & 1:
            out[a] &= ~(1 << b)
            out[b] &= ~(1 << c)
            out[c] &= ~(1 << a)
            out[b] |= 1 << a
            out[c] |= 1 << b
            out[a] |= 1 << c
    return Digraph.from_out_masks(out)


def random_regular_graph(n: int, d: int, seed: int) -> Digraph:
    """One ``integers(0, E, size=2)`` call per switching step, and the edge
    list sorted afresh after each switch."""
    edges: set[tuple[int, int]] = set()

    def add(u, v):
        edges.add((min(u, v), max(u, v)))

    for s in range(1, d // 2 + 1):
        for i in range(n):
            add(i, (i + s) % n)
    if d % 2:
        for i in range(n // 2):
            add(i, i + n // 2)
    rng = np.random.Generator(np.random.Philox(seed))
    elist = sorted(edges)
    for _ in range(30 * n * d):
        i, j = rng.integers(0, len(elist), size=2)
        (a, b), (c, e) = elist[int(i)], elist[int(j)]
        if len({a, b, c, e}) < 4:
            continue
        n1, n2 = (min(a, c), max(a, c)), (min(b, e), max(b, e))
        if n1 in edges or n2 in edges:
            continue
        edges.remove((a, b))
        edges.remove((c, e))
        edges.add(n1)
        edges.add(n2)
        elist = sorted(edges)
    return Digraph(n, [(u, v) for u, v in edges] + [(v, u) for u, v in edges])


# --- the pair-based degree rules, the degree helpers and the parser -------


def semidegrees(g: Digraph) -> tuple[int, int, int]:
    dplus = min((popcount(g.out[v]) for v in range(g.n)), default=0)
    dminus = min((popcount(g.inn[v]) for v in range(g.n)), default=0)
    return dplus, dminus, min(dplus, dminus)


def degree_sequences(g: Digraph) -> DegreeSequencePair:
    return DegreeSequencePair(
        tuple(sorted(popcount(g.out[v]) for v in range(g.n))),
        tuple(sorted(popcount(g.inn[v]) for v in range(g.n))),
    )


def dominated_pairs(g: Digraph) -> list[tuple[int, int]]:
    """Unordered pairs with a common in-neighbour, from a set of tuples."""
    found: set[tuple[int, int]] = set()
    for v in range(g.n):
        outs = list(bits(g.out[v]))
        for i, x in enumerate(outs):
            for y in outs[i + 1 :]:
                found.add((x, y))
    return sorted(found)


def _needs_strong(g: Digraph, rule: str) -> Optional[Verdict]:
    if not is_strongly_connected(g):
        return Verdict(rule, False, reason="not strongly connected")
    return None


def pair_rule(g: Digraph, rule: str, **params) -> Verdict:
    """``woodall``, ``meyniel``, ``bgl`` and ``ore_oriented``, one pair at a
    time in ascending order."""
    n = g.n
    if rule == "woodall":
        if n < 2:
            return Verdict(rule, False, reason="needs n >= 2")
        bad = _needs_strong(g, rule)
        if bad:
            return bad
        for x in range(n):
            for y in range(n):
                if x != y and not g.has_arc(x, y):
                    if g.out_deg(x) + g.in_deg(y) < n:
                        return Verdict(
                            rule,
                            False,
                            {
                                "pair": (x, y),
                                "sum": g.out_deg(x) + g.in_deg(y),
                                "needed": n,
                            },
                        )
        return Verdict(rule, True)

    if rule in ("meyniel", "bgl"):
        if n < 2:
            return Verdict(rule, False, reason="needs n >= 2")
        bad = _needs_strong(g, rule)
        if bad:
            return bad
        if rule == "bgl":
            candidates = dominated_pairs(g)
        else:
            candidates = [(x, y) for x in range(n) for y in range(x + 1, n)]
        for x, y in candidates:
            if g.has_arc(x, y) or g.has_arc(y, x):
                continue
            s = g.total_deg(x) + g.total_deg(y)
            if s < 2 * n - 1:
                return Verdict(
                    rule, False, {"pair": (x, y), "sum": s, "needed": 2 * n - 1}
                )
        return Verdict(rule, True)

    if rule == "ore_oriented":
        _require_oriented(g, rule)
        alpha = _frac(params.get("alpha", 0), "alpha")
        thr = (Fraction(3, 4) + alpha) * n
        for x in range(n):
            for y in range(n):
                if x != y and not g.has_arc(x, y):
                    s = g.out_deg(x) + g.in_deg(y)
                    if s < thr:
                        return Verdict(
                            rule, False, {"pair": (x, y), "sum": s, "threshold": str(thr)}
                        )
        return Verdict(rule, True)

    raise BadParams(f"not a pair rule: {rule!r}")


def ckko(g: Digraph, **params) -> Verdict:
    """The CKKO degree-sequence rule in ``Fraction`` arithmetic."""
    rule = "ckko"
    n = g.n
    seqs = degree_sequences(g)
    dplus = (None,) + seqs.out_seq
    dminus = (None,) + seqs.in_seq
    beta = _frac(params.get("beta", 0), "beta")
    if beta <= 0:
        raise BadParams("ckko needs beta > 0")
    half = Fraction(n, 2)
    for i in range(1, n):
        if 2 * i >= n:
            break
        lo = min(i + beta * n, half)
        j = int(n - i - beta * n)
        ok_i = dplus[i] >= lo or (1 <= j <= n and dminus[j] >= n - i)
        ok_ii = dminus[i] >= lo or (1 <= j <= n and dplus[j] >= n - i)
        if not (ok_i and ok_ii):
            return Verdict(
                rule,
                False,
                {
                    "index": i,
                    "primary_threshold": str(lo),
                    "secondary_index": j,
                    "out": dplus[i],
                    "in": dminus[i],
                },
            )
    return Verdict(rule, True)


def _ascii_int(token: str) -> int:
    """The integer of an optional '-' and ASCII digits; anything else is a
    ``ValueError``."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(token)
    return int(token)


def parse(text: str) -> Digraph:
    """The exchange-format parser that collects arc tuples and a seen set,
    then builds through ``Digraph(n, arcs)``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split()
    if len(head) != 4 or head[0] not in ("DIGRAPH", "GRAPH") or head[1] != "1":
        raise FormatError(f"bad header {lines[0]!r}")
    try:
        n, m = _ascii_int(head[2]), _ascii_int(head[3])
    except ValueError:
        raise FormatError(f"bad header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    if len(lines) - 1 != m:
        raise FormatError(f"header promises {m} lines, found {len(lines) - 1}")
    undirected = head[0] == "GRAPH"
    seen: set[tuple[int, int]] = set()
    arcs: list[tuple[int, int]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad arc line {ln!r}")
        try:
            u, v = _ascii_int(parts[0]), _ascii_int(parts[1])
        except ValueError:
            raise FormatError(f"bad arc line {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"vertex out of range in {ln!r}")
        if u == v:
            raise FormatError(f"self-loop in {ln!r}")
        if undirected and u > v:
            raise FormatError(f"GRAPH edges need u < v, got {ln!r}")
        if (u, v) in seen:
            raise FormatError(f"duplicate arc {ln!r}")
        seen.add((u, v))
        arcs.append((u, v))
        if undirected:
            arcs.append((v, u))
    return Digraph(n, arcs)


def classify(g: Digraph) -> str:
    """Graph class from an explicit every-pair-adjacent scan."""
    if g.n >= 2 and g.is_symmetric() and g.m > 0:
        return "undirected"
    if any(g.out[v] & g.inn[v] for v in range(g.n)):
        return "undirected" if g.is_symmetric() else "digraph"
    full = (1 << g.n) - 1
    if all(g.out[v] | g.inn[v] == full ^ (1 << v) for v in range(g.n)):
        return "tournament"
    return "oriented"
