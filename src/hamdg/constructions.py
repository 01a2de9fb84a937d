"""Deterministic generators for extremal examples and tournament corpora.

Every generator returns the digraph plus a part map (name -> vertex list)
so structural claims can be asserted without recomputation.  Identical
(family, params, seed) always yields bit-identical output.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import combinations, permutations
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Digraph, blow_up, int_rows, seeded_rng
from .errors import BadParams

PartMap = dict[str, list[int]]

# Steps per numpy draw in the seeded switching generators: one call draws
# the same stream as one call per step, and a block bounds its memory.
_DRAW_BLOCK = 1 << 14


# --- classic graphs ------------------------------------------------------


def complete_digraph(n: int) -> Digraph:
    if n < 1:
        raise BadParams("n >= 1")
    full = (1 << n) - 1
    return Digraph.from_out_masks([full ^ (1 << v) for v in range(n)])


def complete_graph(n: int) -> Digraph:
    """Complete undirected graph as a symmetric digraph."""
    return complete_digraph(n)


def complete_bipartite_digraph(a: int, b: int) -> Digraph:
    if a < 1 or b < 1:
        raise BadParams("class sizes >= 1")
    left, right = (1 << a) - 1, ((1 << b) - 1) << a
    return Digraph.from_out_masks([right] * a + [left] * b)


def directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise BadParams("n >= 2")
    return Digraph.from_out_masks([1 << ((i + 1) % n) for i in range(n)])


# --- tournaments ---------------------------------------------------------


def circulant_tournament(n: int, shifts: Optional[Sequence[int]] = None) -> Digraph:
    """Tournament with arcs i -> i+s (mod n) for each shift s.

    Odd n gives the rotational (regular) tournament.  For even n the n/2
    difference class pairs with itself, so those arcs run from the lower
    half to the upper half; the result is near-regular rather than
    regular.
    """
    if n < 1:
        raise BadParams("need n >= 1")
    if shifts is None:
        shifts = range(1, (n - 1) // 2 + 1)
    chosen = set(shifts)
    if n % 2 == 0 and n // 2 in chosen:
        raise BadParams("the n/2 shift is handled implicitly for even n")
    for d in range(1, n):
        if d == n - d:
            continue
        if (d in chosen) == (n - d in chosen):
            raise BadParams("shifts must pick exactly one of d, n-d for each d")
    full = (1 << n) - 1
    base = 0
    for s in chosen:
        base |= 1 << (s % n)
    # row i is the shift pattern rotated left by i within n bits
    out = [(base << i | base >> (n - i)) & full for i in range(n)]
    if n % 2 == 0:
        for i in range(n // 2):
            out[i] |= 1 << (i + n // 2)
    return Digraph.from_out_masks(out)


def transitive_tournament(n: int) -> Digraph:
    full = (1 << n) - 1
    return Digraph.from_out_masks([full >> (i + 1) << (i + 1) for i in range(n)])


def random_tournament(n: int, seed: int) -> Digraph:
    """Each pair oriented by an independent fair coin (counter-based RNG).

    The coins are one ``integers(0, 2, size=n(n-1)/2)`` call on a Philox
    stream, one coin per pair i < j in row order, 1 orienting i -> j.  That
    call draws the stream of one ``integers(0, 2)`` call per pair, so the
    tournament is the same for every (n, seed) as the per-pair draws made.
    """
    if n < 0:
        raise BadParams(f"need n >= 0, got n={n}")
    rng = seeded_rng(seed)
    coins = rng.integers(0, 2, size=n * (n - 1) // 2).astype(bool)
    i, j = np.triu_indices(n, 1)
    keep = np.zeros((n, n), bool)
    keep[i[coins], j[coins]] = True
    keep[j[~coins], i[~coins]] = True
    return Digraph.from_out_masks(
        int_rows(np.packbits(keep, axis=1, bitorder="little"))
    )


def _draw_blocks(steps: int):
    """Sizes of the consecutive blocks of at most ``_DRAW_BLOCK`` steps that
    make up ``steps`` steps."""
    for start in range(0, steps, _DRAW_BLOCK):
        yield min(_DRAW_BLOCK, steps - start)


def _swap_columns(s: np.ndarray, i: int, j: np.ndarray) -> None:
    """Swap column ``i`` of each row r with its column ``j[r]``."""
    rows = np.arange(len(s))
    held = s[rows, j]
    s[rows, j] = s[:, i]
    s[:, i] = held


def _triples(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """The next k rows of ``rng.choice(n, 3, replace=False)``, one numpy draw.

    That call is Floyd's sample (bounded draws below n-2, n-1, n, a repeat
    replaced by its bound's top value) and then a Fisher-Yates shuffle
    (bounds 3, 2): five bounded 32-bit draws in that order.  One
    ``integers`` call over the 5k bounds consumes the same stream, Lemire
    rejections included; a draw with bound 1 (the first one at n = 3)
    consumes nothing in either form.
    """
    d = rng.integers(0, np.tile([n - 2, n - 1, n, 3, 2], k)).reshape(k, 5)
    s = d[:, :3].copy()
    s[:, 1] = np.where(d[:, 1] == s[:, 0], n - 2, d[:, 1])
    seen = (d[:, 2] == s[:, 0]) | (d[:, 2] == s[:, 1])
    s[:, 2] = np.where(seen, n - 1, d[:, 2])
    _swap_columns(s, 2, d[:, 3])
    _swap_columns(s, 1, d[:, 4])
    return s


def random_regular_tournament(n: int, seed: int) -> Digraph:
    """Seeded regular tournament: circulant start, then triangle-reversal
    switchings (reverse a directed 3-cycle), which preserve all semidegrees.

    Each of the 50n^2 steps tries the vertex triple of one
    ``rng.choice(n, 3, replace=False)`` on a Philox stream; the triples are
    drawn in blocks (``_triples``) from the same stream, so the tournament
    is the same for every (n, seed) as one ``choice`` call per step made.
    Below n = 3 there is no 3-cycle, and the circulant is returned.
    """
    if n % 2 == 0:
        raise BadParams("regular tournaments need odd n")
    g = circulant_tournament(n)
    rng = seeded_rng(seed)
    if n < 3:
        return g
    out = list(g.out)
    for k in _draw_blocks(50 * n * n):
        for a, b, c in _triples(rng, n, k).tolist():
            if out[a] >> b & 1 and out[b] >> c & 1 and out[c] >> a & 1:
                # in a tournament a -> b -> c -> a leaves a -/-> c, so each
                # row flips one bit off and one on: the 3-cycle reversed
                out[a] ^= 1 << b | 1 << c
                out[b] ^= 1 << c | 1 << a
                out[c] ^= 1 << a | 1 << b
    return Digraph.from_out_masks(out)


def random_digraph(n: int, arc_prob: float, seed: int) -> Digraph:
    """Each ordered pair gets an arc independently with probability arc_prob."""
    if n < 0:
        raise BadParams(f"need n >= 0, got n={n}")
    if not 0 <= arc_prob <= 1:  # NaN too
        raise BadParams(f"need 0 <= arc_prob <= 1, got {arc_prob}")
    rng = seeded_rng(seed)
    keep = rng.random((n, n)) < arc_prob
    np.fill_diagonal(keep, False)
    return Digraph.from_out_masks(
        int_rows(np.packbits(keep, axis=1, bitorder="little"))
    )


def random_regular_graph(n: int, d: int, seed: int) -> Digraph:
    """Seeded d-regular undirected graph (as symmetric digraph).

    Starts from a circulant base and applies double-edge switchings.  Each
    of the 30nd steps tries the two edges at the indices of one
    ``rng.integers(0, E, size=2)`` on a Philox stream (E edges, sorted);
    the indices are drawn in blocks of ``size=(k, 2)`` from the same
    stream, so the graph is the same for every (n, d, seed) as one call
    per step made.
    """
    if d < 0:
        raise BadParams(f"need d >= 0, got d={d}")
    if n * d % 2 or d >= n:
        raise BadParams("need d < n and n*d even")
    edges: set[tuple[int, int]] = set()

    def add(u, v):
        edges.add((min(u, v), max(u, v)))

    k = d // 2
    for s in range(1, k + 1):
        for i in range(n):
            add(i, (i + s) % n)
    if d % 2:
        for i in range(n // 2):
            add(i, i + n // 2)
    rng = seeded_rng(seed)
    elist = sorted(edges)
    for block in _draw_blocks(30 * n * d):
        for i, j in rng.integers(0, len(elist), size=(block, 2)).tolist():
            (a, b), (c, e) = elist[i], elist[j]
            # a < b and c < e, so the four are distinct unless these meet
            if a == c or a == e or b == c or b == e:
                continue
            # swap to (a,c),(b,e) keeping degrees
            n1 = (a, c) if a < c else (c, a)
            n2 = (b, e) if b < e else (e, b)
            if n1 in edges or n2 in edges:
                continue
            for old in ((a, b), (c, e)):
                edges.remove(old)
                del elist[bisect_left(elist, old)]
            for new in (n1, n2):
                edges.add(new)
                insort(elist, new)
    return Digraph(n, elist + [(v, u) for u, v in elist])


# --- balanced bipartite orientation --------------------------------------


def _bipartite_tournament_arcs(
    left: Sequence[int], right: Sequence[int]
) -> list[tuple[int, int]]:
    """Orient the complete bipartite graph as regularly as possible:
    left[i] -> right[j] iff (i + j) even, else the reverse.  Per-vertex
    in/out imbalance is at most 1."""
    return [
        (u, v) if (i + j) % 2 == 0 else (v, u)
        for i, u in enumerate(left)
        for j, v in enumerate(right)
    ]


def _regular_tournament_arcs(part: Sequence[int]) -> list[tuple[int, int]]:
    """The circulant tournament on the given vertex list, regular since
    every caller's part is odd-sized (fig3's A and C, fig4's B, C and D)."""
    return [(part[u], part[v]) for u, v in circulant_tournament(len(part)).arcs()]


# --- extremal families ---------------------------------------------------


def fig1(s: int) -> tuple[Digraph, PartMap]:
    """(3s-1)-regular 2-connected undirected graph on 9s+2 vertices with no
    Hamilton cycle: three cliques opened along removed matchings, plus two
    connector vertices wired to the A-sides and B-sides."""
    if s < 2:
        raise BadParams("s >= 2")
    parts: PartMap = {}
    a, b = 9 * s, 9 * s + 1
    edges = []
    for i, size in enumerate([s, s, s - 1]):
        clique = list(range(3 * s * i, 3 * s * (i + 1)))
        ai, bi = clique[:size], clique[size : 2 * size]
        parts[f"K{i+1}"], parts[f"A{i+1}"], parts[f"B{i+1}"] = clique, ai, bi
        removed = set(zip(ai, bi))
        edges += [e for e in combinations(clique, 2) if e not in removed]
        edges += [(a, v) for v in ai] + [(b, v) for v in bi]
    parts["a"], parts["b"] = [a], [b]
    return Digraph(9 * s + 2, edges + [(v, u) for u, v in edges]), parts


def fig2(n: int) -> tuple[Digraph, PartMap]:
    """Non-Hamiltonian strongly connected digraph whose only non-adjacent
    (dominated) pairs {z,u}, u in the big complete part, sit exactly at
    total degree sum 2n-2: the complete digraph less x -> z, every arc
    into y from K and both arcs between K and z."""
    if n < 5:
        raise BadParams("n >= 5")
    k = list(range(n - 3))
    x, y, z = n - 3, n - 2, n - 1
    cut = [(x, z)] + [arc for u in k for arc in ((u, y), (u, z), (z, u))]
    return complete_digraph(n).without_arcs(cut), {"K": k, "x": [x], "y": [y], "z": [z]}


def fig3_haggkvist(m: int) -> tuple[Digraph, PartMap]:
    """Oriented graph on n=4m+3 (m odd) with minimum semidegree one below
    the Hamiltonicity threshold and no 1-factor: the blow-up A->B->C->D->A
    of a directed 4-cycle, regular tournaments on A and C, and B,D joined
    by a balanced bipartite tournament."""
    if m < 1 or m % 2 == 0:
        raise BadParams("m must be odd and >= 1")
    g, parts = blow_up(directed_cycle(4), [m, m + 1, m, m + 2])
    a, b, c, d = parts
    arcs = _regular_tournament_arcs(a) + _regular_tournament_arcs(c)
    arcs += _bipartite_tournament_arcs(b, d)
    return g.with_arcs(arcs), dict(zip("ABCD", parts))


def fig4_square(m: int) -> tuple[Digraph, PartMap]:
    """Oriented graph with no square of a Hamilton cycle.

    Sizes |A|=m, |B|=m-1, |C|=2m+1, |D|=m-1, |E|=m+1 (m even).  B, C, D
    induce regular tournaments; A and E are independent.  One-way complete
    orientations (the blow-up of a 5-vertex digraph): A->C, B->C, C->D,
    C->E, D->A, D->B, E->A, E->D; balanced two-way bipartite orientations
    between A,B and between B,E.  Any squared Hamilton cycle would need a
    B-vertex between consecutive E-visits, and |B| < |E|.
    """
    if m < 2 or m % 2:
        raise BadParams("m must be even and >= 2")
    one_way = Digraph(5, [(0, 2), (1, 2), (2, 3), (2, 4), (3, 0), (3, 1), (4, 0), (4, 3)])
    g, parts = blow_up(one_way, [m, m - 1, 2 * m + 1, m - 1, m + 1])
    a, b, c, d, e = parts
    arcs = [arc for part in (b, c, d) for arc in _regular_tournament_arcs(part)]
    arcs += _bipartite_tournament_arcs(a, b) + _bipartite_tournament_arcs(b, e)
    return g.with_arcs(arcs), dict(zip("ABCDE", parts))


def nw_extremal(n: int, k: int) -> tuple[Digraph, PartMap]:
    """Strongly connected non-Hamiltonian digraph with out- and in-degree
    sequence (k,...,k, n-1-k,...,n-1-k, n-1,...,n-1): independent set I of
    size k fully joined (both ways) to a k-subset X of a complete digraph
    K, that is the complete digraph less the arcs inside I and the arcs
    between I and K - X."""
    if not 0 < k < n / 2:
        raise BadParams("need 0 < k < n/2")
    i_part, k_part = list(range(k)), list(range(k, n))
    cut = list(permutations(i_part, 2))
    cut += [arc for u in i_part for v in range(2 * k, n) for arc in ((u, v), (v, u))]
    return complete_digraph(n).without_arcs(cut), {"I": i_part, "K": k_part, "X": k_part[:k]}


def two_regular_tournaments(d: int) -> tuple[Digraph, PartMap]:
    """Disjoint union of two regular tournaments on 2d+1 vertices: a
    d-regular oriented graph on 4d+2 vertices with no cycle cover across
    the parts (tightness for the regular-oriented degree conjecture)."""
    if d < 1:
        raise BadParams("d >= 1")
    n_half = 2 * d + 1
    g1 = circulant_tournament(n_half)
    arcs = list(g1.arcs())
    arcs += [(u + n_half, v + n_half) for u, v in g1.arcs()]
    return (
        Digraph(2 * n_half, arcs),
        {"T1": list(range(n_half)), "T2": list(range(n_half, 2 * n_half))},
    )


def pancyclic_bipartite(n: int) -> tuple[Digraph, PartMap]:
    """Complete bipartite digraph with classes as equal as possible."""
    a = (n + 1) // 2
    g = complete_bipartite_digraph(a, n - a)
    return g, {"A": list(range(a)), "B": list(range(a, n))}


def cycle_blowup(k: int, sizes: Sequence[int]) -> tuple[Digraph, PartMap]:
    """Blow-up of a directed k-cycle with the given part sizes."""
    g, parts = blow_up(directed_cycle(k), sizes)
    return g, {f"V{i}": p for i, p in enumerate(parts)}


# --- the family table ----------------------------------------------------


def _first(n: int, *rest) -> int:
    return n


@dataclass(frozen=True)
class Family:
    """A generator and the names of its positional parameters, in call
    order; ``seed`` is the caller's seed.  ``defaults`` holds the optional
    parameters, and a ``parts`` family also returns a part map.  ``order``
    gives the digraph's order from the same arguments, before it is built
    (by default the first, n)."""

    make: Callable
    params: tuple[str, ...]
    parts: bool = False
    defaults: dict = field(default_factory=dict)
    order: Callable[..., int] = _first


FAMILIES: dict[str, Family] = {
    "complete_digraph": Family(complete_digraph, ("n",)),
    "complete_graph": Family(complete_graph, ("n",)),
    "complete_bipartite": Family(
        complete_bipartite_digraph, ("a", "b"), order=lambda a, b: a + b
    ),
    "directed_cycle": Family(directed_cycle, ("n",)),
    "transitive": Family(transitive_tournament, ("n",)),
    "circulant": Family(circulant_tournament, ("n", "shifts"), defaults={"shifts": None}),
    "random_tournament": Family(random_tournament, ("n", "seed")),
    "random_regular_tournament": Family(random_regular_tournament, ("n", "seed")),
    "random_digraph": Family(random_digraph, ("n", "p", "seed"), defaults={"p": 0.5}),
    "random_regular_graph": Family(random_regular_graph, ("n", "d", "seed")),
    "fig1": Family(fig1, ("s",), parts=True, order=lambda s: 9 * s + 2),
    "fig2": Family(fig2, ("n",), parts=True),
    "fig3_haggkvist": Family(fig3_haggkvist, ("m",), parts=True, order=lambda m: 4 * m + 3),
    "fig4_square": Family(fig4_square, ("m",), parts=True, order=lambda m: 6 * m),
    "nw_extremal": Family(nw_extremal, ("n", "k"), parts=True),
    "two_regular_tournaments": Family(
        two_regular_tournaments, ("d",), parts=True, order=lambda d: 4 * d + 2
    ),
    "pancyclic_bipartite": Family(pancyclic_bipartite, ("n",), parts=True),
    "cycle_blowup": Family(
        cycle_blowup, ("k", "sizes"), parts=True, order=lambda k, sizes: sum(sizes)
    ),
}


def generate_extremal(family: str, *params) -> tuple[Digraph, PartMap]:
    """A family of ``FAMILIES`` that returns a part map, built from its
    positional parameters."""
    fam = FAMILIES.get(family)
    if fam is None or not fam.parts:
        raise BadParams(f"unknown extremal family {family!r}")
    return fam.make(*params)
