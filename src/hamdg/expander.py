"""Robust outexpansion and the cluster-level Hamilton assembly pipeline.

Cluster inputs are synthetic (generated or hand-built); no regularity
lemma is run.  The pipeline pieces: robust outneighbourhood checks,
shifted walks over a 1-factor of a reduced digraph, a closed walk with
balanced winding, and the final matching-and-merge assembly of a Hamilton
cycle in a cluster blow-up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .conditions import Verdict, _frac
from .core import (
    CycleFactor,
    Digraph,
    HamiltonCycle,
    bits,
    int_rows,
    popcount,
    seeded_rng,
)
from .errors import (
    BadParams,
    BudgetExceeded,
    DemandOverload,
    Disconnected,
    MatchingFailure,
    MergeFailure,
)
from .solvers import _bipartite_matching, find_hamilton_cycle, rotation_extension


# --- robust outneighbourhoods --------------------------------------------


def robust_threshold(n: int, nu) -> int:
    """ceil(nu * n): the in-neighbour count making a vertex robustly reached."""
    f = _frac(nu, "nu") * n
    return -(-f.numerator // f.denominator)


def robust_out_nbhd(g: Digraph, s: set[int] | int, nu) -> set[int]:
    """Vertices with at least ceil(nu*n) in-neighbours inside S."""
    mask = s if isinstance(s, int) else sum(1 << v for v in s)
    t = robust_threshold(g.n, nu)
    return {x for x in range(g.n) if popcount(g.inn[x] & mask) >= t}


_SCAN_BLOCK = 1 << 16
# Largest order the exact robust-expansion scan accepts; it costs O(2^n n).
ROBUST_EXACT_CAP = 20


def _first_robust_violation(g: Digraph, t: int, sizes: list[int]) -> Optional[int]:
    """Smallest mask S with |S| in ``sizes`` and |RN(S)| - |S| < ``t``,
    where RN(S) holds the x with at least ``t`` in-neighbours in S."""
    n = g.n
    if not sizes:
        return None
    allowed = np.zeros(n + 1, dtype=bool)
    allowed[sizes] = True
    for lo in range(1, 1 << n, _SCAN_BLOCK):
        masks = np.arange(lo, min(lo + _SCAN_BLOCK, 1 << n), dtype=np.int64)
        size = np.bitwise_count(masks)
        rn = np.zeros(len(masks), dtype=np.int64)
        for x in range(n):
            rn += np.bitwise_count(masks & g.inn[x]) >= t
        bad = np.flatnonzero(allowed[size] & (rn - size < t))
        if len(bad):
            return int(masks[bad[0]])
    return None


def is_robust_outexpander(
    g: Digraph,
    nu,
    tau,
    *,
    mode: str = "exact",
    trials: int = 10_000,
    seed: int = 0,
) -> Verdict:
    """Check |RN+_nu(S)| >= |S| + nu*n for all S with tau*n < |S| < (1-tau)*n.

    Exact mode enumerates every qualifying S and returns the first violating
    one in ascending mask order.  It scans the masks in numpy blocks: for
    each vertex x, ``bitwise_count(masks & inn[x]) >= ceil(nu*n)`` marks the
    masks that robustly reach x, and the marks summed over x give |RN(S)|.
    The test |RN(S)| - |S| < nu*n is made in integers as
    ``rn - size < ceil(nu*n)``, exact because the left side is an integer;
    no float touches it.  Sampled mode tests each sample the same way.
    Cost: O(2^n n) word operations, stopping at the first violating block.
    Sampled mode is one-sided (a failing verdict carries a genuine witness,
    a holding verdict only says no violation was found in the given number
    of trials).
    """
    nu, tau = _frac(nu, "nu"), _frac(tau, "tau")
    if trials < 1:
        raise BadParams(f"trials must be at least 1, got {trials}")
    n = g.n
    lo, hi = tau * n, (1 - tau) * n
    sizes = [s for s in range(1, n) if lo < s < hi]
    need = nu * n
    t = robust_threshold(n, nu)  # ceil(nu*n), which bounds rn - size too

    def violates(mask: int) -> Optional[dict]:
        size = popcount(mask)
        rn = sum(1 for x in range(n) if popcount(g.inn[x] & mask) >= t)
        if rn - size < t:
            return {"S": sorted(bits(mask)), "rn_size": rn, "needed": str(size + need)}
        return None

    if mode == "exact":
        if n > ROBUST_EXACT_CAP:
            raise BudgetExceeded(f"exact mode capped at n <= {ROBUST_EXACT_CAP}")
        mask = _first_robust_violation(g, t, sizes)
        if mask is not None:
            return Verdict("robust_outexpander", False, violates(mask))
        return Verdict("robust_outexpander", True)
    if mode == "sampled":
        if not sizes:
            return Verdict("robust_outexpander", True, reason="no qualifying sizes")
        rng = seeded_rng(seed)
        for _ in range(trials):
            size = int(rng.choice(sizes))
            chosen = rng.choice(n, size=size, replace=False)
            mask = 0
            for v in chosen:
                mask |= 1 << int(v)
            w = violates(mask)
            if w is not None:
                return Verdict("robust_outexpander", False, w)
        return Verdict(
            "robust_outexpander", True, reason=f"no violation in {trials} samples"
        )
    raise BadParams(f"unknown mode {mode!r}")


# --- reduced digraphs, 1-factors, shifted walks --------------------------


@dataclass(frozen=True)
class ReducedDigraph:
    """Cluster-level digraph plus the common cluster size m."""

    r: Digraph
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise BadParams("cluster size m >= 1")


class OneFactorF:
    """1-factor of the reduced digraph with predecessor/successor lookup."""

    def __init__(self, factor: CycleFactor, r: Digraph):
        if not factor.is_valid(r):
            raise BadParams("not a valid 1-factor of the reduced digraph")
        self.factor = factor
        self.cycle_index: dict[int, int] = {}
        self.succ: dict[int, int] = {}
        self.pred: dict[int, int] = {}
        for ci, cyc in enumerate(factor.cycles):
            for i, c in enumerate(cyc):
                self.cycle_index[c] = ci
                self.succ[c] = cyc[(i + 1) % len(cyc)]
                self.pred[c] = cyc[(i - 1) % len(cyc)]

    def cycle_of(self, c: int) -> tuple[int, ...]:
        return self.factor.cycles[self.cycle_index[c]]

    def wind(self, start: int) -> list[int]:
        """One full traversal of start's cycle: start, start+, ..., start-."""
        cyc = self.cycle_of(start)
        i = cyc.index(start)
        return list(cyc[i:] + cyc[:i])


@dataclass(frozen=True)
class ShiftedWalk:
    """X1 C1 X1- X2 C2 X2- ... Xt Ct Xt- X_{t+1} over a 1-factor."""

    clusters: tuple[int, ...]  # X1 .. X_{t+1}
    t: int

    def entries(self) -> tuple[int, ...]:
        return self.clusters[1:]

    def exits(self, f: OneFactorF) -> tuple[int, ...]:
        return tuple(f.pred[x] for x in self.clusters[:-1])

    def is_valid(self, red: ReducedDigraph, f: OneFactorF) -> bool:
        if self.t != len(self.clusters) - 1:
            return False
        return all(
            red.r.has_arc(f.pred[self.clusters[i]], self.clusters[i + 1])
            for i in range(self.t)
        )


def shifted_walk(
    red: ReducedDigraph, f: OneFactorF, a: int, b: int
) -> Optional[ShiftedWalk]:
    """Minimal-t shifted walk from cluster a to cluster b (BFS)."""
    if a == b:
        return ShiftedWalk((a,), 0)
    parent: dict[int, int] = {a: -1}
    frontier = [a]
    while frontier:
        nxt = []
        for x in frontier:
            for y in bits(red.r.out[f.pred[x]]):
                if y not in parent:
                    parent[y] = x
                    if y == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return ShiftedWalk(tuple(path), len(path) - 1)
                    nxt.append(y)
        frontier = nxt
    return None


# --- the closed walk -----------------------------------------------------


@dataclass(frozen=True)
class ClosedWalk:
    """Cluster-level closed walk with its non-F connecting links.

    ``sequence`` is the materialized cyclic order of visited items:
    ``('exc', i)`` for exceptional-vertex index i or ``('cluster', c)``.
    ``links`` are the walk edges that do not lie inside an F-cycle:
    ``('jump', a, b)`` for an exit->entry cluster arc, ``('exc_out', i, t)``
    and ``('exc_in', u, i)`` for edges at exceptional vertices.
    """

    sequence: tuple[tuple, ...]
    links: tuple[tuple, ...]
    entry_counts: dict[int, int] = field(compare=False, default_factory=dict)
    exit_counts: dict[int, int] = field(compare=False, default_factory=dict)

    def visit_counts(self) -> Counter:
        return Counter(c for kind, c in self.sequence if kind == "cluster")


def build_closed_walk(
    red: ReducedDigraph,
    f: OneFactorF,
    demands: Sequence[tuple[int, int]],
    *,
    cap: Optional[int] = None,
) -> ClosedWalk:
    """Closed walk visiting every cluster (and one slot per demand) that
    winds F-cycles only in full, so per-cycle visit counts stay balanced.

    ``demands[i] = (T_i, U_i)``: the walk moves from exceptional vertex i
    into T_i, and re-enters i from U_i.  ``cap`` bounds the number of times
    a cluster may serve as an entry or exit (default m // 10).
    """
    r = red.r
    if cap is None:
        cap = red.m // 10
    for t_c, u_c in demands:
        if not (0 <= t_c < r.n and 0 <= u_c < r.n):
            raise BadParams("demand cluster out of range")
    seq: list[tuple] = []
    links: list[tuple] = []
    entry: Counter = Counter()
    exit_: Counter = Counter()

    def add_shifted(a: int, b: int) -> None:
        w = shifted_walk(red, f, a, b)
        if w is None:
            raise Disconnected(f"no shifted walk from {a} to {b}")
        for i in range(w.t):
            for c in f.wind(w.clusters[i]):
                seq.append(("cluster", c))
            src, dst = f.pred[w.clusters[i]], w.clusters[i + 1]
            links.append(("jump", src, dst))
            exit_[src] += 1
            entry[dst] += 1

    reps = [min(cyc) for cyc in f.factor.cycles]
    ell = len(demands)
    if ell == 0:
        if len(reps) == 1:
            for c in f.wind(reps[0]):
                seq.append(("cluster", c))
        else:
            chain = reps + [reps[0]]
            for a, b in zip(chain, chain[1:]):
                add_shifted(a, b)
    else:
        for i in range(ell):
            t_i, _ = demands[i]
            j = (i + 1) % ell
            _, u_j = demands[j]
            seq.append(("exc", i))
            links.append(("exc_out", i, t_i))
            entry[t_i] += 1
            # a repeated waypoint's shifted walk is empty and adds nothing
            waypoints = [t_i] + (reps if i == 0 else []) + [f.succ[u_j]]
            for a, b in zip(waypoints, waypoints[1:]):
                add_shifted(a, b)
            for c in f.wind(f.succ[u_j]):
                seq.append(("cluster", c))
            links.append(("exc_in", u_j, j))
            exit_[u_j] += 1
    # every cluster must be visited (walk property (a))
    visited = {c for kind, c in seq if kind == "cluster"}
    if visited != set(range(r.n)):
        raise Disconnected(f"walk misses clusters {sorted(set(range(r.n)) - visited)}")
    for c in range(r.n):
        if entry[c] + exit_[c] > cap:
            raise DemandOverload(
                f"cluster {c}: {entry[c]} entries + {exit_[c]} exits > cap {cap}"
            )
    return ClosedWalk(tuple(seq), tuple(links), dict(entry), dict(exit_))


# --- cluster blow-ups and assembly ---------------------------------------


@dataclass(frozen=True)
class ClusterBlowup:
    """Concrete host digraph refining a reduced digraph."""

    host: Digraph
    clusters: tuple[tuple[int, ...], ...]
    exceptional: tuple[int, ...]


def make_cluster_blowup(
    red: ReducedDigraph,
    *,
    exceptional: int = 0,
    pair_density: float = 1.0,
    seed: int = 0,
) -> tuple[ClusterBlowup, list[tuple[int, int]]]:
    """Synthetic blow-up of a reduced digraph: each cluster becomes m
    vertices; every reduced arc becomes a (possibly thinned) one-way
    bipartite arc set whose rows below ceil(m/2) arcs become complete;
    exceptional vertex i is wired to all of its demand clusters
    (2i mod k, 2i+1 mod k).  Returns the blow-up plus the demand list.
    Below density 1 each arc's pair draws m^2 doubles from the seeded
    generator; at density 1 every draw would be kept, so the pairs are
    complete with no draw and the host does not depend on the seed.
    The arcs go into one n x n boolean matrix, packed once into out-rows and
    once, through a transposed copy, into in-rows: a transient 2n^2 bytes,
    1.2 MB at n = 772 and 19 MB for the triangle at m = 1024.
    """
    r, m = red.r, red.m
    if exceptional < 0:
        raise BadParams(f"need exceptional >= 0, got {exceptional}")
    if not 0 <= pair_density <= 1:
        raise BadParams(f"need 0 <= pair_density <= 1, got {pair_density}")
    k = r.n
    rng = seeded_rng(seed)
    clusters = tuple(tuple(range(c * m, (c + 1) * m)) for c in range(k))
    n_core = k * m
    exc = tuple(range(n_core, n_core + exceptional))
    demands = [((2 * i) % k, (2 * i + 1) % k) for i in range(exceptional)]
    min_pair_degree = max(1, (m + 1) // 2)
    adj = np.zeros((n_core + exceptional,) * 2, dtype=bool)
    for ci, cj in r.arcs():
        block = adj[ci * m : (ci + 1) * m, cj * m : (cj + 1) * m]
        if pair_density == 1:
            block[:] = True  # every draw would be kept
            continue
        # one double per host pair, in the order of drawing them one at a
        # time (Philox yields the same stream either way); rows below the
        # degree floor become complete
        keep = rng.random((m, m)) < pair_density
        keep[keep.sum(axis=1) < min_pair_degree] = True
        block[:] = keep
    for a, (t_c, u_c) in zip(exc, demands):
        adj[a, t_c * m : (t_c + 1) * m] = True
        adj[u_c * m : (u_c + 1) * m, a] = True
    out = int_rows(np.packbits(adj, axis=1, bitorder="little"))
    # packing a contiguous copy of the transpose is about 3x faster than
    # packing the strided view
    inn = int_rows(np.packbits(np.ascontiguousarray(adj.T), axis=1, bitorder="little"))
    host = Digraph._from_rows(tuple(out), tuple(inn))
    return ClusterBlowup(host, clusters, exc), demands


@dataclass(frozen=True)
class AssemblyTrace:
    cycle: HamiltonCycle
    initial_factor: CycleFactor
    merges: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]  # (cluster, new matching)
    # per merge: "rotation" if rotation_extension closed the auxiliary
    # digraph, "exact" if the find_hamilton_cycle fallback did
    merge_methods: tuple[str, ...] = ()


def _runs(vertices: Sequence[int]) -> list[tuple[int, int, int]]:
    """Maximal runs of consecutive vertices in a list, as (first vertex,
    run-length mask, list position of the first vertex)."""
    runs = []
    i = 0
    while i < len(vertices):
        j = i + 1
        while j < len(vertices) and vertices[j] == vertices[j - 1] + 1:
            j += 1
        runs.append((vertices[i], (1 << (j - i)) - 1, i))
        i = j
    return runs


def _restrict(row: int, runs: list[tuple[int, int, int]]) -> int:
    """Re-index a bit row onto a vertex list given by its runs: bit j of
    the result is the bit of ``row`` at the list's j-th vertex."""
    out = 0
    for first, mask, pos in runs:
        out |= (row >> first & mask) << pos
    return out


def _lowest(mask: int, cluster: int) -> int:
    """The lowest vertex in ``mask``: the free vertices of ``cluster`` that
    have the arc a walk link needs."""
    if not mask:
        raise MatchingFailure(
            f"no free vertex in cluster {cluster} for a connecting arc"
        )
    return (mask & -mask).bit_length() - 1


def assemble_hamilton(
    blowup: ClusterBlowup,
    red: ReducedDigraph,
    f: OneFactorF,
    walk: ClosedWalk,
) -> AssemblyTrace:
    """Thread the closed walk through the blow-up: fix one host arc per
    walk link, perfectly match each cluster to its F-successor, then merge
    the resulting 1-factor into a single Hamilton cycle cluster by cluster
    via the auxiliary digraph construction.

    Links are fixed on bit masks: ``cmask[c]`` holds cluster c, and a
    vertex is free while it is in neither ``entered`` nor ``exited``.  An
    ``exc_out`` or ``exc_in`` link takes the lowest free vertex with the
    arc it needs; a ``jump`` takes the lowest free exit with an arc to a
    free entry, then the lowest such entry.  Clusters list their vertices
    in ascending order, as ``make_cluster_blowup`` builds them.

    Each cluster's host rows are restricted to its matching's rights once;
    the merge builds the auxiliary digraph from those same rows, since a
    cluster's rights and matching stay as they were until it is merged."""
    host = blowup.host
    cmask = [sum(1 << v for v in cl) for cl in blowup.clusters]
    k = len(cmask)
    entered = exited = 0
    fixed_succ: dict[int, int] = {}

    # 1. fix host arcs for the walk links
    for link in walk.links:
        kind, free = link[0], ~(entered | exited)
        if kind == "jump":
            _, ca, cb = link
            into = cmask[cb] & free
            x = next((x for x in bits(cmask[ca] & free) if host.out[x] & into), None)
            if x is None:
                raise MatchingFailure(f"no free arc from cluster {ca} to {cb}")
            y = _lowest(host.out[x] & into, cb)
            exited |= 1 << x
            entered |= 1 << y
            fixed_succ[x] = y
        elif kind == "exc_out":
            _, i, t_c = link
            a = blowup.exceptional[i]
            x = _lowest(host.out[a] & cmask[t_c] & free, t_c)
            entered |= 1 << x
            fixed_succ[a] = x
        elif kind == "exc_in":
            _, u_c, i = link
            a = blowup.exceptional[i]
            y = _lowest(host.inn[a] & cmask[u_c] & free, u_c)
            exited |= 1 << y
            fixed_succ[y] = a
        else:
            raise BadParams(f"unknown link kind {kind!r}")

    # 2. per-cluster perfect matchings A \ A_exit -> A+ \ A+_entry; each
    # cluster keeps its rights, its rows restricted to them and each left
    # vertex's row index for the merge
    matchings: dict[int, dict[int, int]] = {}
    restricted: list[tuple[list[int], list[int], dict[int, int]]] = []
    for ca in range(k):
        cb = f.succ[ca]
        left = list(bits(cmask[ca] & ~exited))
        right = list(bits(cmask[cb] & ~entered))
        if len(left) != len(right):
            raise MatchingFailure(
                f"cluster {ca}: unbalanced matching classes "
                f"({len(left)} vs {len(right)})"
            )
        runs = _runs(right)
        rows = [_restrict(host.out[a], runs) for a in left]
        match = _bipartite_matching(len(left), rows)
        if match is None:
            raise MatchingFailure(f"cluster {ca}: no perfect matching to {cb}")
        matchings[ca] = {left[i]: right[match[i]] for i in range(len(left))}
        restricted.append((right, rows, {a: i for i, a in enumerate(left)}))

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
        # ca's matching and rights are step 2's until ca itself is merged
        right, rows, pos = restricted[ca]
        if len(right) <= 1:
            continue
        fmap: dict[int, int] = {}
        for a in right:
            x = a
            while x not in pos:
                x = succ[x]
            fmap[a] = x
        j_digraph = Digraph.from_out_masks(
            [rows[pos[fmap[a]]] & ~(1 << i) for i, a in enumerate(right)]
        )
        h = rotation_extension(j_digraph)
        method = "rotation"
        if h is None:
            h = find_hamilton_cycle(j_digraph)
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
