"""Robust outexpansion and the cluster-level Hamilton assembly pipeline.

Cluster inputs are synthetic (generated or hand-built); no regularity
lemma is run.  The pipeline pieces: robust outneighbourhood checks,
epsilon-regular pair verification, shifted walks over a 1-factor of a
reduced digraph, a closed walk with balanced winding, and the final
matching-and-merge assembly of a Hamilton cycle in a cluster blow-up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
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
    f = _frac(nu) * n
    return -(-f.numerator // f.denominator)


def robust_out_nbhd(g: Digraph, s: set[int] | int, nu) -> set[int]:
    """Vertices with at least ceil(nu*n) in-neighbours inside S."""
    mask = s if isinstance(s, int) else sum(1 << v for v in s)
    t = robust_threshold(g.n, nu)
    return {x for x in range(g.n) if popcount(g.inn[x] & mask) >= t}


_SCAN_BLOCK = 1 << 16
# Largest order the exact robust-expansion scan accepts; it costs O(2^n n).
ROBUST_EXACT_CAP = 20


def _first_robust_violation(
    g: Digraph, t: int, sizes: list[int], need: Fraction
) -> Optional[int]:
    """Smallest mask S with |S| in ``sizes`` and |RN(S)| - |S| < ``need``,
    where RN(S) holds the x with at least ``t`` in-neighbours in S."""
    n = g.n
    if not sizes:
        return None
    allowed = np.zeros(n + 1, dtype=bool)
    allowed[sizes] = True
    # rn - size is an integer, so it is below need iff it is below ceil(need)
    short = -(-need.numerator // need.denominator)
    for lo in range(1, 1 << n, _SCAN_BLOCK):
        masks = np.arange(lo, min(lo + _SCAN_BLOCK, 1 << n), dtype=np.int64)
        size = np.bitwise_count(masks)
        rn = np.zeros(len(masks), dtype=np.int64)
        for x in range(n):
            rn += np.bitwise_count(masks & g.inn[x]) >= t
        bad = np.flatnonzero(allowed[size] & (rn - size < short))
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
    no float touches it.
    Cost: O(2^n n) word operations, stopping at the first violating block.
    Sampled mode is one-sided (a failing verdict carries a genuine witness,
    a holding verdict only says no violation was found in the given number
    of trials).
    """
    nu, tau = _frac(nu), _frac(tau)
    n = g.n
    lo, hi = tau * n, (1 - tau) * n
    sizes = [s for s in range(1, n) if lo < s < hi]
    need = nu * n
    t = robust_threshold(n, nu)

    def violates(mask: int) -> Optional[dict]:
        size = popcount(mask)
        rn = sum(1 for x in range(n) if popcount(g.inn[x] & mask) >= t)
        if Fraction(rn - size) < need:
            return {"S": sorted(bits(mask)), "rn_size": rn, "needed": str(size + need)}
        return None

    if mode == "exact":
        if n > ROBUST_EXACT_CAP:
            raise BudgetExceeded(f"exact mode capped at n <= {ROBUST_EXACT_CAP}")
        mask = _first_robust_violation(g, t, sizes, need)
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


# --- epsilon-regular pairs -----------------------------------------------


@dataclass(frozen=True)
class BipartitePair:
    """One-way bipartite arc set from A (rows) to B (columns)."""

    na: int
    nb: int
    rows: tuple[int, ...]  # per-A-vertex bitmask over B

    def __post_init__(self):
        if len(self.rows) != self.na:
            raise BadParams("row count must equal |A|")

    @property
    def edges(self) -> int:
        return sum(popcount(r) for r in self.rows)

    def density(self) -> Fraction:
        return Fraction(self.edges, self.na * self.nb)


# Largest side the exact regular-pair scan accepts; it tries every X.
PAIR_EXACT_CAP = 14


def epsilon_regular_pair(
    pair: BipartitePair,
    eps,
    *,
    mode: str = "exact",
    trials: int = 10_000,
    seed: int = 0,
) -> tuple[Verdict, Fraction]:
    """Is |d(X,Y) - d(A,B)| < eps for all X,Y with |X| >= eps|A|,
    |Y| >= eps|B|?  Returns (verdict, overall density as exact rational).

    Exact mode scans every qualifying X and, per X, only the extreme Y of
    each size (largest / smallest column-weight prefixes), which is
    sufficient since the density in Y is linear for fixed X.
    """
    eps = _frac(eps)
    na, nb = pair.na, pair.nb
    d = pair.density()
    xmin = -(-(eps * na).numerator // (eps * na).denominator)
    ymin = -(-(eps * nb).numerator // (eps * nb).denominator)
    xmin, ymin = max(xmin, 1), max(ymin, 1)

    def check_x(xmask: int) -> Optional[dict]:
        xsize = popcount(xmask)
        w = [0] * nb
        for a in bits(xmask):
            r = pair.rows[a]
            for j in bits(r):
                w[j] += 1
        cols = sorted(range(nb), key=lambda j: (w[j], j))
        weights = [w[j] for j in cols]
        prefix = [0]
        for x in weights:
            prefix.append(prefix[-1] + x)
        total = prefix[-1]
        for ysize in range(ymin, nb + 1):
            denom = xsize * ysize
            emin = prefix[ysize]
            emax = total - prefix[nb - ysize]
            for e, which in ((emin, "low"), (emax, "high")):
                if abs(Fraction(e, denom) - d) >= eps:
                    ycols = cols[:ysize] if which == "low" else cols[nb - ysize :]
                    return {
                        "X": sorted(bits(xmask)),
                        "Y": sorted(ycols),
                        "density": str(Fraction(e, denom)),
                        "overall": str(d),
                    }
        return None

    if mode == "exact":
        if na > PAIR_EXACT_CAP or nb > PAIR_EXACT_CAP:
            raise BudgetExceeded(f"exact mode capped at sides <= {PAIR_EXACT_CAP}")
        for xmask in range(1, 1 << na):
            if popcount(xmask) >= xmin:
                wit = check_x(xmask)
                if wit is not None:
                    return Verdict("eps_regular", False, wit), d
        return Verdict("eps_regular", True), d
    if mode == "sampled":
        rng = seeded_rng(seed)
        for _ in range(trials):
            xsize = int(rng.integers(xmin, na + 1))
            chosen = rng.choice(na, size=xsize, replace=False)
            xmask = 0
            for a in chosen:
                xmask |= 1 << int(a)
            wit = check_x(xmask)
            if wit is not None:
                return Verdict("eps_regular", False, wit), d
        return (
            Verdict("eps_regular", True, reason=f"no violation in {trials} samples"),
            d,
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

    @property
    def start(self) -> int:
        return self.clusters[0]

    @property
    def end(self) -> int:
        return self.clusters[-1]

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
            waypoints = [t_i] + (reps if i == 0 else []) + [f.succ[u_j]]
            dedup = [waypoints[0]]
            for wp in waypoints[1:]:
                if wp != dedup[-1]:
                    dedup.append(wp)
            for a, b in zip(dedup, dedup[1:]):
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

    @property
    def m(self) -> int:
        return len(self.clusters[0])


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
    """
    r, m = red.r, red.m
    k = r.n
    rng = seeded_rng(seed)
    clusters = tuple(tuple(range(c * m, (c + 1) * m)) for c in range(k))
    n_core = k * m
    exc = tuple(range(n_core, n_core + exceptional))
    demands = [((2 * i) % k, (2 * i + 1) % k) for i in range(exceptional)]
    min_pair_degree = max(1, (m + 1) // 2)
    full = (1 << m) - 1
    out = [0] * (n_core + exceptional)
    for ci, cj in r.arcs():
        # one double per host pair, in the order of drawing them one at a
        # time (Philox yields the same stream either way); rows below the
        # degree floor become complete
        keep = rng.random((m, m)) < pair_density
        rows = int_rows(np.packbits(keep, axis=1, bitorder="little"))
        thin = (keep.sum(axis=1) < min_pair_degree).tolist()
        shift = cj * m
        for i, a in enumerate(clusters[ci]):
            out[a] |= (full if thin[i] else rows[i]) << shift
    for i, (t_c, u_c) in enumerate(demands):
        a = exc[i]
        out[a] |= full << (t_c * m)
        for y in clusters[u_c]:
            out[y] |= 1 << a
    host = Digraph.from_out_masks(out)
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


def assemble_hamilton(
    blowup: ClusterBlowup,
    red: ReducedDigraph,
    f: OneFactorF,
    walk: ClosedWalk,
) -> AssemblyTrace:
    """Thread the closed walk through the blow-up: fix one host arc per
    walk link, perfectly match each cluster to its F-successor, then merge
    the resulting 1-factor into a single Hamilton cycle cluster by cluster
    via the auxiliary digraph construction."""
    host = blowup.host
    clusters = blowup.clusters
    k = len(clusters)
    entry_sets: list[set[int]] = [set() for _ in range(k)]
    exit_sets: list[set[int]] = [set() for _ in range(k)]
    cluster_of: dict[int, int] = {}
    for ci, cl in enumerate(clusters):
        for v in cl:
            cluster_of[v] = ci
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
        match = _bipartite_matching(len(left), rows)
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
        cb = f.succ[ca]
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
