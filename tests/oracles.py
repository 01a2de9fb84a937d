"""Straightforward reference implementations kept as differential oracles.

These are the original, unoptimised versions of the expander pipeline's hot
layers.  The library's fast paths must return exactly what these return:
the same matching, the same host digraph, the same cycle order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from hamdg.core import CycleFactor, Digraph, HamiltonCycle, bits
from hamdg.errors import BadParams
from hamdg.expander import ClusterBlowup, ReducedDigraph


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
