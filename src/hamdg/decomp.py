"""Hamilton decompositions and coverings.

Walecki's classic decomposition of odd complete graphs, an exhaustive
lazy decomposition search, Misra-Gries edge colouring, and the
covering pipeline for regular tournaments and dense regular graphs:
extract edge-disjoint Hamilton cycles, colour the leftover into matchings,
split them small, and finish each matching with a Hamilton cycle through
it (via contraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .conditions import Verdict
from .core import (
    Digraph,
    HamiltonCycle,
    Matching,
    bits,
    is_tournament,
    popcount,
    seeded_rng,
)
from .errors import BadParams, CoverFailure
from .solvers import (
    DEFAULT_BUDGET,
    _Budget,
    _enumerate,
    find_hamilton_cycle,
    hamilton_cycle_through,
)


@dataclass(frozen=True)
class Decomposition:
    cycles: tuple[HamiltonCycle, ...]


@dataclass(frozen=True)
class Cover:
    cycles: tuple[HamiltonCycle, ...]


@dataclass(frozen=True)
class EdgeColoring:
    classes: tuple[tuple[tuple[int, int], ...], ...]  # each class a matching


# --- Walecki -------------------------------------------------------------


def walecki(n: int) -> Decomposition:
    """Hamilton decomposition of the complete graph K_n, n odd.

    Vertices 0..n-2 sit on a zigzag through the cyclic group Z_{n-1};
    vertex n-1 is the hub.  Rotating the zigzag gives (n-1)/2 pairwise
    edge-disjoint Hamilton cycles covering every edge.
    """
    if n < 3 or n % 2 == 0:
        raise BadParams("Walecki decomposition needs odd n >= 3")
    k = (n - 1) // 2
    mod = n - 1
    zig = [0]
    for i in range(1, mod):
        step = i if i % 2 == 1 else -i
        zig.append((zig[-1] + step) % mod)
    hub = n - 1
    cycles = []
    for j in range(k):
        cycles.append(HamiltonCycle(tuple([hub] + [(z + j) % mod for z in zig])))
    return Decomposition(tuple(cycles))


# --- exact decomposition search ------------------------------------------


def decompose_exact(
    g: Digraph, *, budget: int = DEFAULT_BUDGET
) -> Optional[Decomposition]:
    """Partition of the arc set into Hamilton cycles, or ``None`` after an
    exhaustive search.  Regularity (d+ = d- = m/n everywhere) is necessary
    and required.

    Every decomposition of the residual R holds exactly one cycle through
    (0, v), v the lowest out-neighbour of 0 in R, so each Hamilton cycle of
    R with 0's out-row cut to {v} is removed in turn and the rest searched
    alike.  All levels draw on one ``_Budget``, so ``budget`` bounds the
    whole search, and memory is O(n r) at r arcs per vertex."""
    n = g.n
    if n < 2:
        raise BadParams("n >= 2")
    r, rem = divmod(g.m, n)
    if rem:
        raise BadParams("arc count not divisible by n; no decomposition possible")
    if any(g.out_deg(v) != r or g.in_deg(v) != r for v in range(n)):
        raise BadParams("decompose_exact requires a regular digraph")
    b = _Budget(budget)

    def search(rest: Digraph) -> Optional[tuple[HamiltonCycle, ...]]:
        first = rest.out[0] & -rest.out[0]
        if not first:
            return ()
        through = Digraph.from_out_masks((first, *rest.out[1:]))
        for h in _enumerate(through, b):
            tail = search(rest.without_arcs(h.arcs()))
            if tail is not None:
                return (h, *tail)
        return None

    cycles = search(g)
    return None if cycles is None else Decomposition(cycles)


def _extract(
    g: Digraph, budget: int, order_seed: Optional[int], *, both_ways: bool
) -> tuple[list[HamiltonCycle], Digraph]:
    """Repeatedly find and remove a Hamilton cycle until none exists; each
    found cycle removes its arcs, and their reverses too if ``both_ways``.

    ``order_seed`` relabels the vertices before each extraction so restarts
    explore different greedy decompositions; output is mapped back."""
    rng = seeded_rng(order_seed) if order_seed is not None else None
    rest = g
    cycles: list[HamiltonCycle] = []
    while True:
        if rng is None:
            h = find_hamilton_cycle(rest, budget=budget)
        else:
            perm = [int(p) for p in rng.permutation(g.n)]
            inv = [0] * g.n
            for i, p in enumerate(perm):
                inv[p] = i
            relabeled = Digraph(g.n, [(inv[u], inv[v]) for u, v in rest.arcs()])
            hh = find_hamilton_cycle(relabeled, budget=budget)
            h = (
                HamiltonCycle(tuple(perm[v] for v in hh.order)).canonical()
                if hh
                else None
            )
        if h is None:
            return cycles, rest
        cycles.append(h)
        arcs = h.arcs()
        rest = rest.without_arcs(arcs + [(v, u) for u, v in arcs] if both_ways else arcs)


def greedy_extract(
    g: Digraph, *, budget: int = DEFAULT_BUDGET, order_seed: Optional[int] = None
) -> tuple[list[HamiltonCycle], Digraph]:
    """Greedy Hamilton cycle extraction (``_extract``); each found cycle
    removes its arcs."""
    return _extract(g, budget, order_seed, both_ways=False)


# --- Misra-Gries edge colouring ------------------------------------------


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


def split_matching(m: Matching, cap: int) -> list[Matching]:
    """Partition a matching into pieces of size at most ``cap``."""
    if cap < 1:
        raise BadParams("cap >= 1")
    arcs = sorted(m.arcs)
    return [Matching(tuple(arcs[i : i + cap])) for i in range(0, len(arcs), cap)]


# --- covering pipelines --------------------------------------------------


@dataclass(frozen=True)
class CoverReport:
    cover: Cover
    extracted: int  # cycles from the decomposition/extraction phase
    matchings: int  # matchings routed through hamilton_cycle_through
    benchmark: dict[str, int]  # (1/2+xi)n reference sizes


# cover_tournament tries an exact decomposition first up to this order.
EXACT_MAX_N = 9
# Relabelled greedy extractions tried after the first one fails to route.
RESTARTS = 3


def cover_tournament(
    g: Digraph, *, cap: Optional[int] = None, budget: int = DEFAULT_BUDGET
) -> CoverReport:
    """Cover every arc of a regular tournament with Hamilton cycles: an
    exact decomposition if one exists and n <= ``EXACT_MAX_N``, otherwise
    the pipeline of ``_cover``."""
    if not is_tournament(g):
        raise BadParams("cover_tournament expects a tournament")
    n = g.n
    r = (n - 1) // 2
    if any(g.out_deg(v) != r for v in range(n)):
        raise BadParams("cover_tournament expects a regular tournament")
    if n <= EXACT_MAX_N:
        dec = decompose_exact(g, budget=budget)
        if dec is not None:
            return CoverReport(Cover(dec.cycles), len(dec.cycles), 0, _benchmarks(n))
    return _cover(g, cap, budget, both_ways=False)


def cover_regular_graph(
    g: Digraph, *, cap: Optional[int] = None, budget: int = DEFAULT_BUDGET
) -> CoverReport:
    """Cover every edge of a regular undirected graph (symmetric digraph)
    with Hamilton cycles, edge reuse allowed (``_cover``)."""
    if not g.is_symmetric():
        raise BadParams("cover_regular_graph expects a symmetric digraph")
    if len({popcount(row) for row in g.out}) != 1:
        raise BadParams("cover_regular_graph expects a regular graph")
    return _cover(g, cap, budget, both_ways=True)


def _cover(
    g: Digraph, cap: Optional[int], budget: int, *, both_ways: bool
) -> CoverReport:
    """Extract Hamilton cycles greedily (removing reverses too if
    ``both_ways``), Vizing-colour the leftover's underlying graph, split the
    colour classes into matchings of size at most ``cap`` and finish each
    matching with a Hamilton cycle through it.  A matching with no such
    cycle restarts from a relabelled extraction, ``RESTARTS`` times; then
    the last ``CoverFailure`` is raised.

    Each matching edge is oriented as the host has it, low -> high on a
    symmetric host.  The reverse arcs need not be removed there: contraction
    maps the reverse of a matching arc to a self-loop, which it drops."""
    if cap is None:
        cap = max(1, math.isqrt(g.n - 1) + 1)  # ceil(sqrt(n)) shape
    extract = greedy_extract_undirected if both_ways else greedy_extract
    for attempt in range(RESTARTS + 1):
        extracted, leftover = extract(g, budget=budget, order_seed=attempt or None)
        coloring = vizing_color(leftover.symmetrize())
        pieces = [m for cls in coloring.classes for m in split_matching(Matching(cls), cap)]
        fill: list[HamiltonCycle] = []
        for m in pieces:
            oriented = tuple((u, v) if g.has_arc(u, v) else (v, u) for u, v in m.arcs)
            h = hamilton_cycle_through(g, Matching(oriented), budget=budget)
            if h is None:
                failure = CoverFailure(m)
                break
            fill.append(h)
        else:
            cycles = tuple(extracted) + tuple(fill)
            return CoverReport(Cover(cycles), len(extracted), len(fill), _benchmarks(g.n))
    raise failure


def greedy_extract_undirected(
    g: Digraph, *, budget: int = DEFAULT_BUDGET, order_seed: Optional[int] = None
) -> tuple[list[HamiltonCycle], Digraph]:
    """Greedy Hamilton cycle extraction on a symmetric digraph
    (``_extract``); each found cycle removes both orientations of its
    edges."""
    return _extract(g, budget, order_seed, both_ways=True)


def _benchmarks(n: int) -> dict[str, int]:
    # ceil((1/2 + xi) n) for xi in {1/10, 1/4}, exact integer arithmetic
    return {
        "half_plus_tenth": -(-(3 * n) // 5),
        "half_plus_quarter": -(-(3 * n) // 4),
    }


# --- validation ----------------------------------------------------------


def validate(obj, g: Digraph, *, directed: bool = True) -> Verdict:
    """Check all invariants of a Decomposition or Cover against a host."""
    kind = "decomposition" if isinstance(obj, Decomposition) else "cover"
    for i, h in enumerate(obj.cycles):
        if not h.is_valid(g):
            return Verdict(kind, False, {"cycle_index": i}, "invalid Hamilton cycle")
    if directed:
        universe = set(g.arcs())
        covered: list[tuple[int, int]] = [a for h in obj.cycles for a in h.arcs()]
    else:
        universe = set(g.undirected_edges())
        covered = [
            (min(u, v), max(u, v)) for h in obj.cycles for u, v in h.arcs()
        ]
    if isinstance(obj, Decomposition) and len(covered) != len(set(covered)):
        return Verdict(kind, False, {"arc": _first_dup(covered)}, "arc used twice")
    # valid cycles cover only arcs of g, so what is left is what is missing
    missing = universe - set(covered)
    if missing:
        return Verdict(kind, False, {"arc": min(missing)}, "arc uncovered")
    return Verdict(kind, True)


def _first_dup(items):
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None
