"""Fast paths against the code they replaced.

The oracles in ``oracles.py`` are the original straightforward versions.
Outputs must be equal, not merely valid: every certificate downstream
(matchings, initial factor, merges, final cycle, cover) depends on them,
and counts, kappa and robust-expansion verdicts (witness included) are
reported as they are.
"""

import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hamdg import constructions, core, decomp, solvers
from hamdg import io as hio
from hamdg.conditions import check
from hamdg.constructions import (
    circulant_tournament,
    complete_bipartite_digraph,
    fig1,
    fig2,
    fig4_square,
    nw_extremal,
    complete_digraph,
    complete_graph,
    directed_cycle,
    random_digraph,
    random_regular_graph,
    random_regular_tournament,
    random_tournament,
    transitive_tournament,
)
from hamdg.core import (
    CycleFactor,
    _Budget,
    Digraph,
    HamiltonCycle,
    Matching,
    _vertex_disjoint_paths,
    contract_matching,
    independence_numbers,
    vertex_connectivity,
)
from hamdg.decomp import (
    cover_regular_graph,
    cover_tournament,
    decompose_exact,
    validate,
    vizing_color,
)
from hamdg.errors import (
    ArcMissing,
    BadParams,
    BudgetExceeded,
    CoverFailure,
    DemandOverload,
    FormatError,
    HamdgError,
)
from hamdg.expander import (
    ClosedWalk,
    OneFactorF,
    ReducedDigraph,
    _restrict,
    _runs,
    assemble_hamilton,
    build_closed_walk,
    is_robust_outexpander,
    make_cluster_blowup,
)
from hamdg.solvers import (
    OrientationPattern,
    _augment,
    _bipartite_matching,
    _enumerate,
    _forced_arcs,
    _hamilton_orders,
    _tough_cut,
    count_hamilton,
    disjoint_cycle_factor,
    embed_tree,
    enumerate_hamilton_cycles,
    find_cycle_of_length,
    find_hamilton_cycle,
    is_pancyclic,
    k_ordered_hamilton,
    kth_power_hamilton,
    one_factor,
    oriented_hamilton,
    oriented_hamilton_path,
    rotation_extension,
)


def _random_rows(rng, n_left, n_right, p):
    return [
        sum(1 << j for j in range(n_right) if rng.random() < p) for _ in range(n_left)
    ]


class TestBipartiteMatching:
    @pytest.mark.parametrize("p", [0.05, 0.15, 0.3, 0.6, 1.0])
    def test_equal_match_lists(self, p):
        rng = random.Random(int(p * 100))
        outcomes = set()
        for _ in range(60):
            n_left = rng.randint(1, 24)
            n_right = rng.randint(n_left, n_left + 4)
            adj = _random_rows(rng, n_left, n_right, p)
            want = oracles.seeded_matching(n_left, adj)
            assert _bipartite_matching(n_left, adj) == want
            # the order changes the matching, never whether one exists
            assert (want is None) == (oracles.bipartite_matching(n_left, adj) is None)
            outcomes.add(want is None)
        if p == 0.15:
            assert outcomes == {True, False}

    @pytest.mark.parametrize("p", [0.9, 0.97, 1.0])
    def test_equal_match_lists_at_merge_size(self, monkeypatch, p):
        # the assembly matches 64 to 260 lefts per cluster.  A few rights
        # are in no row, so every other right must be used; below p = 1
        # some late left then finds no unmatched right in its row and falls
        # back to Kuhn's search
        augment = solvers._augment
        calls = []

        def counted(*args):
            calls.append(args[2])
            return augment(*args)

        monkeypatch.setattr(solvers, "_augment", counted)
        rng = random.Random(int(p * 100) + 1)
        for _ in range(12):
            n_left = rng.randint(64, 260)
            n_right = n_left + rng.randint(0, 3)
            zero = sum(1 << r for r in rng.sample(range(n_right), n_right - n_left))
            adj = [row & ~zero for row in _random_rows(rng, n_left, n_right, p)]
            want = oracles.seeded_matching(n_left, adj)
            assert _bipartite_matching(n_left, adj) == want
            assert (want is None) == (oracles.bipartite_matching(n_left, adj) is None)
        assert bool(calls) == (p < 1)

    def test_one_factor_equal(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 14)
            g = Digraph(
                n,
                [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3],
            )
            assert one_factor(g) == oracles.one_factor(g, oracles.seeded_matching)


class TestBlowup:
    BASES = {
        "triangle": complete_digraph(3),
        "pentagon": circulant_tournament(5, (1, 2)),
    }

    # m = 33 ends the rows mid-byte; m = 64 and 128 fill whole bytes; at
    # density 0.3 most rows are raised to the degree floor
    @pytest.mark.parametrize("density", [1.0, 0.8, 0.5, 0.3])
    @pytest.mark.parametrize("base", ["triangle", "pentagon"])
    def test_equal_hosts(self, base, density):
        for m, exceptional, seed in (
            (5, 0, 0), (8, 2, 1), (13, 3, 2), (20, 4, 3),
            (33, 5, 4), (64, 1, 5), (128, 5, 6),
        ):
            red = ReducedDigraph(self.BASES[base], m)
            got, got_demands = make_cluster_blowup(
                red, exceptional=exceptional, pair_density=density, seed=seed
            )
            want, want_demands = oracles.make_cluster_blowup(
                red, exceptional=exceptional, pair_density=density, seed=seed
            )
            assert got.host.out == want.host.out
            assert got.host.inn == want.host.inn
            assert (got.clusters, got.exceptional, got_demands) == (
                want.clusters,
                want.exceptional,
                want_demands,
            )

    def test_fallback_rows_are_complete(self):
        # at density 0.5 with floor ceil(m/2), about half the rows fall back
        red = ReducedDigraph(complete_digraph(3), 12)
        blowup, _ = make_cluster_blowup(red, pair_density=0.5, seed=4)
        full = sum(
            1
            for a in blowup.clusters[0]
            if blowup.host.out[a] >> 12 & 0xFFF == 0xFFF
        )
        assert full >= 1


def test_restrict_equals_per_pair_lookup():
    # the assembly's matching and merge rows, once built with has_arc per pair
    rng = random.Random(3)
    for _ in range(200):
        width = rng.randint(1, 90)
        vertices = sorted(rng.sample(range(width), rng.randint(0, width)))
        row = rng.getrandbits(width + 5)
        want = sum(1 << j for j, b in enumerate(vertices) if row >> b & 1)
        assert _restrict(row, _runs(vertices)) == want


def _assembly_outcome(assemble, blowup, red, f, walk):
    """Everything an assembly reports: the trace, or its exception's type
    and message."""
    try:
        t = assemble(blowup, red, f, walk)
    except Exception as e:
        return type(e).__name__, str(e)
    return t.cycle.order, t.initial_factor, t.merges, t.merge_methods


class TestAssembly:
    """The link fixing on cluster masks against the per-cluster sets."""

    BASES = (
        (complete_digraph(3), ((0, 1, 2),)),
        (circulant_tournament(5, (1, 2)), ((0, 1, 2, 3, 4),)),
        # two F-cycles, so the walk jumps between them
        (circulant_tournament(7, (1, 2, 3)), ((0, 3, 6), (1, 2, 4, 5))),
    )

    @staticmethod
    def _pipeline(rng):
        """One random pipeline: a blow-up, sometimes with random arcs cut
        away, and the links of its closed walk.  One pipeline in ten drops
        a link, one relabels an ``exc_out`` link, and one swaps the links
        for random jumps, so the assembly's failures all show up.  The
        assembly reads only the links, so the walk's sequence is left out."""
        r, cycles = TestAssembly.BASES[rng.randrange(3)]
        m = rng.randint(4, 32)
        red = ReducedDigraph(r, m)
        f = OneFactorF(CycleFactor(cycles), r)
        exceptional = rng.randint(0, 6)
        blowup, demands = make_cluster_blowup(
            red,
            exceptional=exceptional,
            pair_density=rng.choice((0.3, 0.5, 0.7, 0.9, 1.0)),
            seed=rng.randrange(1 << 16),
        )
        if rng.random() < 0.3:
            arcs = blowup.host.arcs()
            cut = rng.sample(arcs, int(len(arcs) * rng.choice((0.02, 0.1, 0.3))))
            blowup = type(blowup)(
                blowup.host.without_arcs(cut), blowup.clusters, blowup.exceptional
            )
        cap = rng.choice((m // 10, m // 2, m, 2 * m))
        links = list(build_closed_walk(red, f, demands, cap=cap).links)
        change = rng.random()
        if change < 0.1 and links:
            del links[rng.randrange(len(links))]  # unbalances two clusters
        elif change < 0.2 and exceptional:
            # one exceptional vertex gets two exc_out links, another none
            i = rng.choice([i for i, link in enumerate(links) if link[0] == "exc_out"])
            links[i] = ("exc_out", rng.randrange(exceptional), links[i][2])
        elif change < 0.3:
            links = [
                ("jump", rng.randrange(r.n), rng.randrange(r.n))
                for _ in range(rng.randint(1, 4))
            ]
        return blowup, red, f, ClosedWalk((), tuple(links))

    # every MatchingFailure and MergeFailure message of the assembly
    FAILURES = (
        "no free arc from cluster",
        "no free vertex in cluster",
        "unbalanced matching classes",
        "no perfect matching",
        "left vertices unmatched",
        "not Hamiltonian",
        "cycles instead of one",
    )

    def test_equal_traces_and_failures(self):
        rng = random.Random(14)
        kinds, outcomes = set(), set()
        ran = 0
        while ran < 320:
            try:
                blowup, red, f, walk = self._pipeline(rng)
            except DemandOverload:
                continue  # the walk failed; no assembly to compare
            want = _assembly_outcome(oracles.assemble_hamilton, blowup, red, f, walk)
            assert _assembly_outcome(assemble_hamilton, blowup, red, f, walk) == want
            ran += 1
            kinds.update(link[0] for link in walk.links)
            if isinstance(want[1], str):
                outcomes.add(next((m for m in self.FAILURES if m in want[1]), want))
            else:
                outcomes.add("cycle")
        assert kinds == {"jump", "exc_out", "exc_in"}
        assert outcomes == {"cycle", *self.FAILURES}


class TestRotationExtension:
    def test_equal_cycle_orders(self):
        rng = random.Random(11)
        found = 0
        for _ in range(150):
            n = rng.randint(3, 12)
            p = rng.choice((0.3, 0.5, 0.7))
            g = Digraph(
                n,
                [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p],
            )
            want = oracles.rotation_extension(g)
            assert rotation_extension(g) == want
            found += want is not None
        assert found > 0

    def test_equal_from_given_factor(self):
        g = complete_digraph(9)
        start = CycleFactor(((0, 1, 2), (3, 4), (5, 6, 7, 8)))
        want = oracles.rotation_extension(g, start)
        assert want is not None
        assert rotation_extension(g, start) == want

    def test_equal_from_random_factors(self):
        # sparse digraphs around a planted factor of short cycles force many
        # absorptions and rotations
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randint(5, 14)
            verts = rng.sample(range(n), n)
            cuts = [0]
            while cuts[-1] < n:
                step = rng.randint(2, 4)
                cuts.append(n if n - cuts[-1] - step < 2 else cuts[-1] + step)
            cycles = tuple(tuple(verts[a:b]) for a, b in zip(cuts, cuts[1:]))
            p = rng.choice((0.1, 0.2, 0.3))
            arcs = set(CycleFactor(cycles).arcs()) | {
                (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
            }
            g, start = Digraph(n, sorted(arcs)), CycleFactor(cycles)
            want = oracles.rotation_extension(g, start)
            assert rotation_extension(g, start) == want

    def test_recurring_path_with_reordered_cycles(self):
        # the path comes round again while the remaining cycles are listed
        # in another order; that is not a repeated state
        arcs = [
            (0, 1), (0, 6), (0, 9), (1, 5), (1, 7), (1, 8), (1, 9), (2, 1),
            (2, 3), (2, 9), (3, 2), (3, 5), (4, 1), (4, 3), (4, 5), (4, 8),
            (5, 4), (5, 9), (6, 0), (6, 2), (6, 5), (7, 0), (7, 4), (7, 8),
            (8, 3), (8, 7), (9, 1), (9, 2), (9, 7), (9, 8),
        ]
        g = Digraph(10, arcs)
        start = CycleFactor(((0, 6), (8, 7), (2, 3), (5, 4), (1, 9)))
        want = oracles.rotation_extension(g, start)
        assert want is not None and want.is_valid(g)
        assert rotation_extension(g, start) == want

    def test_periodic_state_exits_at_once(self):
        # one-factor {0,2} {1,3}: the path [3,1,0,2] is closed again by the
        # chord 2->0 and re-absorbed by 1->0, a period-2 loop that only the
        # step limit would end
        class Counting(Digraph):
            __slots__ = ("calls",)

            def has_arc(self, u, v):
                self.calls += 1
                return super().has_arc(u, v)

        arcs = [(0, 2), (1, 0), (1, 3), (2, 0), (3, 1), (3, 2)]
        assert oracles.rotation_extension(Digraph(4, arcs), max_restarts=50) is None
        g = Counting(4, arcs)
        g.calls = 0
        assert rotation_extension(g) is None
        # the n^3 = 64-step limit would take 98 calls
        assert g.calls < 20

    @pytest.mark.parametrize("closes_at", [216, 217])
    def test_step_limit_is_n_cubed(self, closes_at):
        # a digraph that says yes only to the next arc of a script, so each
        # step makes the one move the script names: rotate a suffix off the
        # path and absorb it back rotated by one, through 108 distinct paths,
        # then close the path at step closes_at.  No state repeats, so only
        # the n^3 = 216-step limit can end the search first.
        class Scripted(Digraph):
            __slots__ = ("script", "made")

            def has_arc(self, u, v):
                if self.made < len(self.script) and (u, v) == self.script[self.made]:
                    self.made += 1
                    return True
                return False

        n = 6
        # each path is the last one with its suffix from i rotated left by
        # j, for the first (i, j) that gives a path not seen before
        paths, script = [tuple(range(n))], []
        while len(paths) < 108:
            p = paths[-1]
            i, j, q = next(
                (i, j, q)
                for i in range(n - 2, 0, -1)
                for j in range(1, n - i)
                if (q := p[:i] + p[i + j :] + p[i : i + j]) not in paths
            )
            # rotation at i, then absorption at the cycle's vertex j
            script += [(p[-1], p[i]), (p[i - 1], p[i + j])]
            paths.append(q)
        first = paths[0]
        if closes_at == 216:
            # one absorption before the walk: it closes at step 1 + 214 + 1
            start = CycleFactor((first[:2], first[2:]))
            script = [(first[1], first[2])] + script
        else:
            # two absorptions: it would close at step 2 + 214 + 1
            start = CycleFactor((first[:2], first[2:4], first[4:]))
            script = [(first[1], first[2]), (first[3], first[4])] + script
        script.append((paths[-1][-1], paths[-1][0]))
        assert len(script) == closes_at

        results = []
        for search in (rotation_extension, lambda g, s: oracles.rotation_extension(
                g, s, max_restarts=n * n)):
            g = Scripted(n)
            g.script, g.made = script, 0
            results.append(search(g, start))
            assert g.made == min(closes_at, n**3)
        want = HamiltonCycle(paths[-1]) if closes_at <= n**3 else None
        assert results == [want, want]


@st.composite
def small_digraphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and keep[u * n + v]])


def _planted(rng, n, p):
    """A random 1-factor of cycles of 2 to 4 vertices plus arcs drawn with
    probability p, so the search gets past its 1-factor pre-check."""
    verts = rng.sample(range(n), n)
    arcs = set()
    i = 0
    while i < n:
        k = rng.randint(2, 4)
        k = n - i if n - i - k < 2 else k
        cyc = verts[i : i + k]
        arcs |= {(cyc[j], cyc[(j + 1) % k]) for j in range(k)}
        i += k
    arcs |= {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
    return Digraph(n, sorted(arcs))


def _digraph_view(g):
    """``g`` as the kernel sees a digraph that is not symmetric.  The kernel
    reads only ``n``, ``out`` and ``inn``, and forces degree-2 vertices only
    when ``inn`` equals ``out``, so on this view the forcing stays off."""
    return SimpleNamespace(n=g.n, out=g.out, inn=None)


def _run_kernel(kernel, g, succ, first):
    if succ is None or g.n < 2:  # the callers' own pre-checks
        return [], 0
    b = _Budget(10**9)
    orders = kernel(g, succ, b)
    found = [o for o in [next(orders, None)] if o] if first else list(orders)
    return found, 10**9 - b.left


def _kernel(g, first=False, forcing=True):
    """The kernel's cycle orders (only the first when ``first``) and the
    nodes it expanded, from the root matching ``enumerate_hamilton_cycles``
    builds; ``forcing=False`` runs it with the degree-2 forcing off."""
    succ = _bipartite_matching(g.n, g.out)
    return _run_kernel(_hamilton_orders, g if forcing else _digraph_view(g), succ, first)


def _oracle_kernel(g, first=False):
    """The same from the kernel before the lookahead repair and the forcing,
    with Kuhn's root matching."""
    succ = oracles.bipartite_matching(g.n, g.out)
    return _run_kernel(oracles.hamilton_orders, g, succ, first)


def _check_kernel(g, first=False):
    """The kernel against ``oracles.hamilton_orders``.  With the forcing
    off the orders and the node counts are equal: any perfect matching
    witnesses the 1-factor prune, so the shortest repair moves no node.
    With it on, the orders are equal and the nodes no more, and a digraph
    that is not symmetric sees no change at all.  Returns both results."""
    want = _oracle_kernel(g, first)
    assert _kernel(g, first, forcing=False) == want
    got = _kernel(g, first)
    assert got[0] == want[0] and got[1] <= want[1]
    if g.out != g.inn:
        assert got == want
    return got, want


class TestHamiltonSearch:
    @given(small_digraphs())
    @settings(max_examples=200, deadline=None)
    def test_equal_on_small_digraphs(self, g):
        want, nodes = oracles.find_hamilton_cycle(g)
        assert find_hamilton_cycle(g) == want
        if nodes:
            assert _kernel(g, first=True)[1] <= nodes
        assert list(enumerate_hamilton_cycles(g)) == oracles.enumerate_hamilton_cycles(g)[0]
        _check_kernel(g)

    def test_first_cycle_and_fewer_nodes(self):
        rng = random.Random(29)
        outcomes = set()
        for _ in range(400):
            g = _planted(rng, rng.randint(2, 14), rng.choice((0.1, 0.2, 0.3)))
            want, nodes = oracles.find_hamilton_cycle(g)
            assert find_hamilton_cycle(g) == want
            if nodes:
                assert _kernel(g, first=True)[1] <= nodes
                outcomes.add(want is None)
            _check_kernel(g, first=True)
        assert outcomes == {True, False}

    def test_equal_enumerations(self):
        rng = random.Random(31)
        for i in range(150):
            g = random_digraph(rng.randint(2, 10), rng.choice((0.2, 0.35, 0.5)), seed=i)
            want, _ = oracles.enumerate_hamilton_cycles(g)
            assert list(enumerate_hamilton_cycles(g)) == want
            _check_kernel(g)

    def test_repair_equals_rebuild(self):
        # the incremental matching repair keeps exactly the nodes that a
        # matching built from scratch at every node keeps
        rng = random.Random(37)
        symmetric = 0
        for _ in range(400):
            g = _planted(rng, rng.randint(2, 11), rng.choice((0.1, 0.2, 0.3)))
            _, unforced = _check_kernel(g)
            assert unforced == oracles.hamilton_search(g, oracles.residual_feasible)
            symmetric += g.out == g.inn
        assert symmetric > 0


# --- the root refutations against brute force ------------------------------


def _components(und, keep):
    """The components of the undirected rows ``und`` on the vertex set
    ``keep``, by a plain depth-first search over vertex numbers."""
    seen, count = set(), 0
    for root in keep:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in keep:
                if w not in seen and und[v] >> w & 1:
                    seen.add(w)
                    stack.append(w)
    return count


def _first_cut(und):
    """The first S (by size, then lexicographic), 1 <= |S| <= 2, leaving
    more than |S| components: every candidate, no degree gate."""
    n = len(und)
    for k in (1, 2):
        for cut in itertools.combinations(range(n), k):
            if _components(und, set(range(n)) - set(cut)) > k:
                return cut
    return None


def _underlying(g):
    return [o | i for o, i in zip(g.out, g.inn)]


def _check_refutations(g, cycles):
    """Both root refutations on ``g``, which has ``cycles`` Hamilton
    cycles: each fires only when there are none, forced-arc deletion keeps
    every cycle, and the cut scan finds exactly the brute-force cut.
    Returns which rules fired."""
    fired = set()
    rows = _forced_arcs(g.out, g.inn)
    if rows is None:
        assert cycles == 0
        fired.add("forced")
    else:
        out, inn = rows
        reduced = Digraph.from_out_masks(out)
        assert reduced.inn == tuple(inn)
        assert all(r & ~o == 0 for r, o in zip(out, g.out))
        if reduced != g:
            fired.add("reduced")
            assert count_hamilton(reduced).hamilton_cycles == cycles
    und = _underlying(g)
    cut = _tough_cut(und)
    assert cut == _first_cut(und)
    if cut is not None:
        assert _components(und, set(range(g.n)) - set(cut)) > len(cut)
        assert cycles == 0
        fired.add(f"cut{len(cut)}")
    return fired


def _symmetric_digraph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Digraph(n, edges + [(v, u) for u, v in edges])


def _forced_chain(n, k, closed):
    """K_n in which 1..k each keep only the in-arc from their predecessor,
    so 0 -> 1 -> ... -> k is forced; ``closed`` also leaves 0 only the
    in-arc from k, which forces a cycle of k + 1 < n vertices."""
    heads = range(1 if not closed else 0, k + 1)
    drop = {(u, v) for v in heads for u in range(n) if u != (v - 1) % (k + 1) and u != v}
    return complete_digraph(n).without_arcs(sorted(drop))


def _glued_cliques(sizes, cut):
    """Symmetric cliques of the given sizes, each fully joined to the
    ``cut`` shared vertices 0..cut-1 (a clique of size s has s + cut
    vertices in all)."""
    edges, base = set(), cut
    for size in sizes:
        part = list(range(cut)) + list(range(base, base + size))
        edges |= {(u, v) for u in part for v in part if u != v}
        base += size
    return Digraph(base, sorted(edges))


def _petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Digraph(10, edges + [(v, u) for u, v in edges])


# hand-built triggers and the rules they fire: forced chains (open ones
# keep a Hamilton cycle), fig2, and cliques glued at 1- and 2-vertex cuts;
# three cliques of size s on a 2-vertex cut meet the pair gate 3d <= n + 1
# with equality; the Petersen graph has no Hamilton cycle and no cut
TRIGGERS = {
    "chain_open_8_3": (_forced_chain(8, 3, False), {"reduced"}),
    "chain_open_9_7": (_forced_chain(9, 7, False), {"reduced"}),
    "chain_closed_8_3": (_forced_chain(8, 3, True), {"forced"}),
    "chain_closed_9_7": (_forced_chain(9, 7, True), {"forced"}),
    **{f"fig2_{n}": (fig2(n)[0], {"forced"}) for n in (5, 7, 9)},
    "glued_1_at_1": (_glued_cliques((3, 3), 1), {"cut1"}),
    "glued_2_at_1": (_glued_cliques((2, 4), 1), {"cut1"}),
    "glued_2_at_2": (_glued_cliques((3, 3), 2), set()),
    "glued_3_at_2_tight": (_glued_cliques((2, 2, 2), 2), {"cut2"}),
    "glued_3_at_2": (_glued_cliques((1, 2, 3), 2), {"cut2"}),
    "petersen": (_petersen(), set()),
}
HAMILTONIAN = {"chain_open_8_3", "chain_open_9_7", "glued_2_at_2"}


class TestRootRefutations:
    def test_all_digraphs_on_four_vertices(self):
        pairs = [(u, v) for u in range(4) for v in range(4) if u != v]
        fired = set()
        for mask in range(1 << len(pairs)):
            g = Digraph(4, [a for i, a in enumerate(pairs) if mask >> i & 1])
            fired |= _check_refutations(g, oracles.count_hamilton_naive(g)[1])
        # two vertices out of four leave at most two components
        assert fired == {"forced", "reduced", "cut1"}

    @pytest.mark.parametrize("kind", ["random", "symmetric"])
    def test_random_digraphs(self, kind):
        rng = random.Random(53 if kind == "random" else 59)
        fired = set()
        for i in range(1500):
            n = rng.randint(2, 9)
            p = rng.choice((0.15, 0.25, 0.35, 0.5))
            if kind == "random":
                g = random_digraph(n, p, seed=i)
            else:
                g = _symmetric_digraph(n, p + 0.1, i)
            fired |= _check_refutations(g, count_hamilton(g).hamilton_cycles)
        # a symmetric digraph with a vertex of degree 1 is refuted outright
        want = {"forced", "cut1", "cut2"} if kind == "symmetric" else {"forced", "reduced"}
        assert want <= fired

    @pytest.mark.parametrize("name", sorted(TRIGGERS))
    def test_triggers(self, name):
        g, want = TRIGGERS[name]
        cycles = count_hamilton(g).hamilton_cycles
        assert (cycles > 0) == (name in HAMILTONIAN)
        assert _check_refutations(g, cycles) == want
        assert find_hamilton_cycle(g) == oracles.find_hamilton_cycle(g)[0]
        assert list(enumerate_hamilton_cycles(g)) == oracles.enumerate_hamilton_cycles(g)[0]

    def test_forced_chain_rows(self):
        # 0 -> 1 -> 2 -> 3 forced: the other out-arcs of 0, 1, 2 and the
        # closing arc 3 -> 0 go, and nothing else
        n, k = 8, 3
        keep = [(i, i + 1) for i in range(k)] + [
            (u, v)
            for u in range(k, n)
            for v in [0, *range(k + 1, n)]
            if u != v and (u, v) != (k, 0)
        ]
        g, want = TRIGGERS["chain_open_8_3"][0], Digraph(n, keep)
        out, inn = _forced_arcs(g.out, g.inn)
        assert (tuple(out), tuple(inn)) == (want.out, want.inn)
        # reversed, the same arcs are forced by the out-arc rule
        out, inn = _forced_arcs(g.inn, g.out)
        assert (tuple(out), tuple(inn)) == (want.inn, want.out)
        # on nine vertices 0 then has one in-neighbour left, 8, and the
        # whole Hamilton cycle is forced
        g = TRIGGERS["chain_open_9_7"][0]
        assert tuple(_forced_arcs(g.out, g.inn)[0]) == directed_cycle(9).out

    @pytest.mark.parametrize("s", [2, 3])
    def test_fig1_cut_is_the_connectors(self, s):
        g, parts = fig1(s)
        assert _tough_cut(_underlying(g)) == (parts["a"][0], parts["b"][0])

    def test_scan_runs_once_after_n_squared_nodes(self, monkeypatch):
        calls = []

        def spy(und):
            calls.append(len(und))
            return _tough_cut(und)

        monkeypatch.setattr(solvers, "_tough_cut", spy)
        g, _ = fig1(2)
        with pytest.raises(BudgetExceeded):
            find_hamilton_cycle(g, budget=g.n * g.n)
        assert calls == []
        assert find_hamilton_cycle(g, budget=g.n * g.n + 1) is None
        assert calls == [g.n]
        # a search that ends within n^2 nodes never scans
        calls.clear()
        for g in (random_tournament(30, 0), directed_cycle(30)):
            assert find_hamilton_cycle(g, budget=g.n * g.n) is not None
        assert calls == []

    def test_refuted_search_charges_its_nodes(self, counted):
        # the held-back nodes come back before the scan, so a refutation
        # leaves the budget charged with the n^2 + 1 nodes expanded
        g, _ = fig1(2)
        assert counted(find_hamilton_cycle, g, budget=10**8) == (None, g.n * g.n + 1)

    def test_budget_unchanged_when_the_scan_finds_nothing(self):
        # the Petersen digraph less the arc 0 -> 1 has no Hamilton cycle, no
        # cut and no forced arc, and it is not symmetric, so the kernel
        # needs more than n^2 nodes; the held-back nodes come back after the
        # scan, so the budget is the kernel's
        g = _petersen().without_arcs([(0, 1)])
        assert _forced_arcs(g.out, g.inn) == (g.out, g.inn)
        assert _tough_cut(_underlying(g)) is None
        _, nodes = _kernel(g)
        assert nodes > g.n * g.n
        assert find_hamilton_cycle(g, budget=nodes) is None
        with pytest.raises(BudgetExceeded):
            find_hamilton_cycle(g, budget=nodes - 1)

    def test_degree_one_refutes_at_the_root(self):
        # K3 and K4, each with a pendant vertex, have a 1-factor; on the
        # way through the library ``_forced_arcs`` refutes them first
        for n in (3, 4):
            edges = list(itertools.combinations(range(n), 2)) + [(n - 1, n)]
            g = Digraph(n + 1, edges + [(v, u) for u, v in edges])
            assert _kernel(g) == ([], 1)
            assert _kernel(g, forcing=False)[1] > 1

    def test_symmetric_petersen_within_n_squared_nodes(self):
        # on the graph itself the degree-2 forcing refutes it before the
        # scan's checkpoint, which the digraph above passes
        g = _petersen()
        _, nodes = _kernel(g)
        assert nodes < g.n * g.n < _kernel(g, forcing=False)[1]
        assert find_hamilton_cycle(g, budget=nodes) is None


@pytest.fixture(scope="module")
def symmetric_hosts():
    """Graphs as symmetric digraphs: rrg(n, d) for n = 6..30 and d = 2..6,
    three seeds each, complete graphs on 3..8 vertices, the Petersen graph
    and sparse random graphs on 5..12 vertices."""
    hosts = [
        (f"rrg({n},{d},{seed})", random_regular_graph(n, d, seed))
        for n in range(6, 31)
        for d in range(2, 7)
        if d < n and n * d % 2 == 0
        for seed in range(3)
    ]
    hosts += [(f"K{n}", complete_graph(n)) for n in range(3, 9)]
    hosts.append(("petersen", _petersen()))
    hosts += [(f"gnp{i}", _symmetric_digraph(5 + i % 8, 0.45, i)) for i in range(40)]
    return hosts


class TestSymmetricHosts:
    """The lookahead repair and the degree-2 forcing on graphs, against the
    kernel before them (``_check_kernel``).  Enumerations run up to 10
    vertices, first cycles on all."""

    def test_enough_inputs(self, symmetric_hosts):
        assert len(symmetric_hosts) >= 300
        assert all(g.out == g.inn for _, g in symmetric_hosts)

    def test_forcing_keeps_every_cycle(self, symmetric_hosts):
        fewer = 0
        for name, g in symmetric_hosts:
            first = g.n > 10
            (got, nodes), (want, parent) = _check_kernel(g, first)
            fewer += nodes < parent
            cycle = find_hamilton_cycle(g)
            assert (cycle and cycle.order) == (want[0] if want else None), name
            if not first:
                assert [c.order for c in enumerate_hamilton_cycles(g)] == want, name
        assert fewer >= len(symmetric_hosts) // 2

    def test_degree_rules_each_cut(self):
        # the node counts summed over the decide deck's graph sizes, seeds
        # 0-19: each rule, weakened, expands more nodes, and strengthened,
        # cuts a cycle that the oracles above then miss
        want = {(30, 3): (1523, 9397), (32, 3): (1409, 9649),
                (24, 4): (646, 5815), (26, 4): (712, 6463)}
        for (n, d), (nodes, parent) in want.items():
            runs = [_check_kernel(random_regular_graph(n, d, s), first=True)
                    for s in range(20)]
            assert sum(got[1] for got, _ in runs) == nodes
            assert sum(old[1] for _, old in runs) == parent


@pytest.fixture
def ticks(monkeypatch):
    """Runs ``find_hamilton_cycle(g)`` and returns its cycle and the search
    nodes it ticked, root refutations included.  ``core._Budget.tick`` is
    patched, so every budget counts, wherever it is built."""
    count = [0]
    tick = _Budget.tick

    def counted_tick(self):
        count[0] += 1
        tick(self)

    monkeypatch.setattr(_Budget, "tick", counted_tick)

    def run(g):
        count[0] = 0
        return find_hamilton_cycle(g, budget=10**6), count[0]

    return run


class TestWorkCounters:
    """Search nodes per answer, a count that does not depend on the host."""

    # digraphs that are not symmetric keep the counts they had before the
    # lookahead repair and the forcing; fig1(2) is a graph the cut scan
    # refutes at n^2 + 1 nodes, and nw_extremal(10, 2) is a graph that the
    # forcing refutes in 7 nodes (21 before it)
    PINNED = {
        "random_tournament(40, 0)": (lambda: random_tournament(40, 0), 44),
        "random_regular_tournament(21, 0)": (lambda: random_regular_tournament(21, 0), 28),
        "circulant_tournament(21)": (lambda: circulant_tournament(21), 21),
        "fig4_square(2)": (lambda: fig4_square(2)[0], 16),
        "random_digraph(30, 0.16, 2)": (lambda: random_digraph(30, 0.16, 2), 87),
        "fig1(2)": (lambda: fig1(2)[0], 401),
        "nw_extremal(10, 2)": (lambda: nw_extremal(10, 2)[0], 7),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_counts(self, ticks, name):
        make, nodes = self.PINNED[name]
        g = make()
        cycle, got = ticks(g)
        assert got == nodes
        if name.startswith(("fig1", "nw_")):
            assert cycle is None
        else:
            assert cycle.is_valid(g)

    def test_cubic_graphs_on_60_vertices(self, ticks):
        # seed 3 ran out of 2 * 10^6 nodes before the forcing
        for seed, nodes in enumerate((337, 245, 1697, 824, 1913)):
            g = random_regular_graph(60, 3, seed)
            cycle, got = ticks(g)
            assert got == nodes <= 10**4
            assert cycle.is_valid(g)


def _valid_matching(adj, match_l, match_r):
    return all(
        (r < 0 or (adj[l] >> r & 1 and match_r[r] == l)) for l, r in enumerate(match_l)
    ) and all(l < 0 or match_l[l] == r for r, l in enumerate(match_r))


class TestAugment:
    def test_lookahead_ends_at_the_lowest_free_right(self):
        # left 0 sees rights 0 (matched to left 1) and 2, 3 (free): the
        # lookahead takes 2 at once and leaves left 1 as it was
        adj = [0b1101, 0b0011]
        match_l, match_r = [-1, 0], [1, -1, -1, -1]
        assert _augment(match_l, match_r, 0, adj, 0, 0b1100) == 2
        assert (match_l, match_r) == ([2, 0], [1, -1, 0, -1])
        # without it Kuhn enters right 0 first and moves left 1 to right 1
        match_l, match_r = [-1, 0], [1, -1, -1, -1]
        assert _augment(match_l, match_r, 0, adj, 0, 0) == 1
        assert (match_l, match_r) == ([0, 1], [0, 1, -1, -1])

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.4])
    def test_random_repairs(self, p):
        # matchings grown one left at a time with the exact free set as the
        # lookahead stay valid, end where the lookahead says when the row
        # meets it, and fail exactly when Kuhn's plain search fails
        rng = random.Random(int(p * 100))
        failed = 0
        for _ in range(150):
            n_left = rng.randint(1, 16)
            n_right = rng.randint(n_left, n_left + 3)
            adj = _random_rows(rng, n_left, n_right, p)
            match_l, match_r = [-1] * n_left, [-1] * n_right
            plain_l, plain_r = [-1] * n_left, [-1] * n_right
            free = (1 << n_right) - 1
            for root in rng.sample(range(n_left), n_left):
                seen = rng.getrandbits(n_right) & ~free if rng.random() < 0.3 else 0
                r = _augment(match_l, match_r, root, adj, seen, free)
                plain = oracles.augment(plain_l, plain_r, root, adj, seen)
                if adj[root] & free & ~seen:
                    low = adj[root] & free & ~seen
                    assert r == (low & -low).bit_length() - 1
                assert (r >= 0) == plain
                assert _valid_matching(adj, match_l, match_r)
                if r < 0:
                    failed += 1
                    break
                assert free >> r & 1 and match_l[root] >= 0
                free ^= 1 << r
                plain_l, plain_r = match_l[:], match_r[:]
        assert failed > 0

    def test_matched_rights_in_the_hint_are_entered(self):
        # a right of ``free`` that is matched after all is not taken: Kuhn's
        # plain search runs instead, so a wrong hint breaks nothing
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 14)
            adj = _random_rows(rng, n, n, rng.choice((0.15, 0.3)))
            match_l, match_r = [-1] * n, [-1] * n
            for root in range(n):
                plain = oracles.augment(match_l[:], match_r[:], root, adj, 0)
                r = _augment(match_l, match_r, root, adj, 0, rng.getrandbits(n))
                assert (r >= 0) == plain
                assert _valid_matching(adj, match_l, match_r)
                if r < 0:
                    break
                assert match_l[root] >= 0 and match_r[r] >= 0

    def test_root_matchings(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 20)
            adj = _random_rows(rng, n, n, rng.choice((0.1, 0.2, 0.5)))
            got = _bipartite_matching(n, adj)
            want = oracles.bipartite_matching(n, adj)
            assert (got is None) == (want is None)
            if got is not None:
                assert sorted(got) == list(range(n))
                assert all(adj[l] >> r & 1 for l, r in enumerate(got))


def _same_rows(g, want):
    assert (g.n, g.out, g.inn) == (want.n, want.out, want.inn)
    assert g.inn == oracles.derive_in(g.n, g.out)


class TestTranspose:
    """In-rows from the numpy bit transpose (n >= TRANSPOSE_MIN_N) and
    from the per-arc loop below it, against the loop."""

    @pytest.mark.parametrize("p", [0, 0.1, 0.5, 0.95, 1])
    def test_every_order_to_70(self, p):
        rng = random.Random(int(p * 100))
        for n in range(71):
            out = [
                sum(1 << v for v in range(n) if v != u and rng.random() < p)
                for u in range(n)
            ]
            g = Digraph.from_out_masks(out)
            assert g.inn == oracles.derive_in(n, out), n
            assert Digraph(n, g.arcs()).inn == g.inn
            assert (g.reverse().out, g.reverse().inn) == (g.inn, g.out)

    @pytest.mark.parametrize("n", [31, 32, 33, 40, 64, 65, 70])
    def test_empty_and_complete_rows(self, n):
        full = (1 << n) - 1
        rng = random.Random(n)
        out = [
            (0, full ^ (1 << u), rng.getrandbits(n) & ~(1 << u))[u % 3]
            for u in range(n)
        ]
        assert Digraph.from_out_masks(out).inn == oracles.derive_in(n, out)

    def test_blocks_with_a_partial_last_block(self):
        n = 3001
        step = core._TRANSPOSE_BLOCK_BYTES // n // 8 * 8
        assert step < n < 2 * step and n % 8  # two blocks, the last one partial
        rng = random.Random(5)
        full = (1 << n) - 1
        out = [sum(1 << v for v in rng.sample(range(n), 30)) & ~(1 << u)
               for u in range(n)]
        for u in (0, step - 1, step, n - 1):
            out[u] = full ^ (1 << u)
        out[step + 1] = 0
        assert Digraph.from_out_masks(out).inn == oracles.derive_in(n, out)

    def test_one_byte_blocks(self, monkeypatch):
        # blocks of 8 rows, so most orders end in a partial block
        monkeypatch.setattr(core, "_TRANSPOSE_BLOCK_BYTES", 1)
        rng = random.Random(9)
        for n in range(32, 80):
            out = [rng.getrandbits(n) & ~(1 << u) for u in range(n)]
            assert Digraph.from_out_masks(out).inn == oracles.derive_in(n, out)

    def test_checks_kept(self):
        for n in (5, 40):
            with pytest.raises(BadParams, match="self-loop"):
                Digraph.from_out_masks([1 << 3] * n)
            with pytest.raises(BadParams, match="vertex range"):
                Digraph.from_out_masks([1 << n] + [0] * (n - 1))
            with pytest.raises(BadParams, match="out of range"):
                Digraph(n, [(0, n)])
            with pytest.raises(BadParams, match="self-loop"):
                Digraph(n, [(2, 2)])


class TestLazyInRows:
    """In-rows are derived on their first read, once, and only then."""

    @staticmethod
    def count_derivations(monkeypatch) -> list:
        calls = []
        derive = Digraph._derive_in

        def spy(n, out):
            calls.append(n)
            return derive(n, out)

        monkeypatch.setattr(Digraph, "_derive_in", staticmethod(spy))
        return calls

    @pytest.mark.parametrize("n", [5, 40])
    def test_first_read_derives_once(self, monkeypatch, n):
        calls = self.count_derivations(monkeypatch)
        rng = random.Random(n)
        out = [rng.getrandbits(n) & ~(1 << u) for u in range(n)]
        for g in (Digraph.from_out_masks(out), Digraph(n, Digraph.from_out_masks(out).arcs())):
            calls.clear()
            assert g.out == tuple(out) and calls == []
            assert g.inn == oracles.derive_in(n, out) and calls == [n]
            assert g.inn == oracles.derive_in(n, out) and calls == [n]

    def test_given_in_rows_are_never_derived(self, monkeypatch):
        calls = self.count_derivations(monkeypatch)
        g = Digraph._from_rows((0b110, 0b100, 0b001), (0b100, 0b001, 0b011))
        assert g.inn == (0b100, 0b001, 0b011)
        assert g.reverse().inn == g.out
        assert calls == []

    @pytest.mark.parametrize("n", [core.TRANSPOSE_MIN_N - 1, core.TRANSPOSE_MIN_N])
    def test_both_sides_of_the_transpose_gate(self, n):
        rng = random.Random(n)
        for p in (0.1, 0.5, 0.9):
            out = [
                sum(1 << v for v in range(n) if v != u and rng.random() < p)
                for u in range(n)
            ]
            assert Digraph.from_out_masks(out).inn == oracles.derive_in(n, out)
            assert Digraph(n, Digraph.from_out_masks(out).arcs()).inn == (
                oracles.derive_in(n, out)
            )

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            Digraph(3).nope  # noqa: B018

    def test_dense_assembly_derives_no_in_rows(self, monkeypatch):
        # the blow-up packs its host's in-rows, and the merge digraphs J are
        # read by rotation-extension and one_factor through out-rows only
        r = complete_digraph(3)
        red = ReducedDigraph(r, 64)
        f = OneFactorF(CycleFactor(((0, 1, 2),)), r)
        calls = self.count_derivations(monkeypatch)
        blowup, demands = make_cluster_blowup(red, exceptional=2, seed=7)
        w = build_closed_walk(red, f, demands, cap=64)
        trace = assemble_hamilton(blowup, red, f, w)
        assert trace.merge_methods == ("rotation",) * 3
        assert trace.cycle.is_valid(blowup.host)
        assert calls == []


class TestHamiltonCycleValid:
    """``HamiltonCycle.is_valid`` on out-rows against the arc-list check."""

    @staticmethod
    def mutants(order: tuple, n: int, rng: random.Random):
        yield order
        if n >= 2:
            i, j = rng.sample(range(n), 2)
            repeated = list(order)
            repeated[i] = order[j]
            yield tuple(repeated)
        yield order[:-1]
        yield order + order[:1]
        yield order + (n,)
        for bad in (n, -1):
            if n:
                out_of_range = list(order)
                out_of_range[rng.randrange(n)] = bad
                yield tuple(out_of_range)

    def test_random_digraphs_and_mutants(self):
        rng = random.Random(22)
        seen = set()
        for _ in range(400):
            n = rng.randint(0, 12)
            order = tuple(rng.sample(range(n), n))
            p = rng.choice((0.2, 0.6, 1.0))
            arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
            cycle = HamiltonCycle(order)
            if n >= 2 and rng.random() < 0.5:  # host the cycle itself
                arcs |= set(cycle.arcs())
            g = Digraph(n, sorted(arcs))
            hosts = [g]
            if n >= 2 and g.has_arc(order[-1], order[0]):
                hosts.append(g.without_arcs([(order[-1], order[0])]))  # no closing arc
            for host in hosts:
                for o in self.mutants(order, n, rng):
                    h = HamiltonCycle(o)
                    got = h.is_valid(host)
                    assert got == oracles.hamilton_cycle_is_valid(h, host), (n, o)
                    seen.add((o == order and host is g, got))
        assert seen == {(True, True), (True, False), (False, False)}


def test_complete_digraph_equals_arc_list_build():
    for n in range(1, 41):
        want = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        g = complete_digraph(n)
        assert (g.n, g.out, g.inn) == (want.n, want.out, want.inn)


class TestDenseConstructions:
    """The row-built dense constructions against their arc-list builds."""

    def test_orders_to_60(self):
        for n in range(1, 61):
            _same_rows(circulant_tournament(n), oracles.circulant_tournament(n))
            _same_rows(transitive_tournament(n), oracles.transitive_tournament(n))
            if n >= 2:
                _same_rows(directed_cycle(n), oracles.directed_cycle(n))
            for a in (1, 2, n // 2 or 1):
                _same_rows(
                    complete_bipartite_digraph(a, n),
                    oracles.complete_bipartite_digraph(a, n),
                )

    def test_custom_shifts(self):
        rng = random.Random(2)
        for n in range(2, 61):
            for _ in range(3):
                shifts = [
                    d if rng.random() < 0.5 else n - d
                    for d in range(1, (n - 1) // 2 + 1)
                ]
                _same_rows(
                    circulant_tournament(n, shifts),
                    oracles.circulant_tournament(n, shifts),
                )

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_random_digraph(self, p):
        for seed in range(20):
            n = 5 + 3 * seed
            _same_rows(random_digraph(n, p, seed), oracles.random_digraph(n, p, seed))


SEEDS = [0, 1, 1054104823, 2**31 - 1]


class TestRandomGenerators:
    """Block-drawn seeded generators against one numpy call per step: the
    same Philox stream, so the same rows."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_tournament(self, seed):
        for n in (0, 1, 2, 3, 40, 64):
            _same_rows(random_tournament(n, seed), oracles.random_tournament(n, seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_regular_tournament(self, seed):
        # 50 * 19^2 steps cross the first block boundary, 50 * 23^2 end
        # inside the second block; at n = 3 the first draw has bound 1
        assert 50 * 19**2 > constructions._DRAW_BLOCK
        for n in (3, 19, 23):
            _same_rows(
                random_regular_tournament(n, seed),
                oracles.random_regular_tournament(n, seed),
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_regular_graph(self, seed):
        # (24, 23) takes 30 * 24 * 23 steps, past the first block boundary
        for n, d in [(8, 0), (8, 1), (24, 1), (8, 3), (24, 3), (8, 7), (24, 23)]:
            _same_rows(
                random_regular_graph(n, d, seed),
                oracles.random_regular_graph(n, d, seed),
            )

    def test_many_short_blocks(self, monkeypatch):
        # blocks of 7 steps: hundreds of boundaries, most orders ending in a
        # partial block and n = 7 (2,450 steps) filling its last one
        monkeypatch.setattr(constructions, "_DRAW_BLOCK", 7)
        for seed in SEEDS:
            for n in (3, 5, 7, 9):
                _same_rows(
                    random_regular_tournament(n, seed),
                    oracles.random_regular_tournament(n, seed),
                )
            for n, d in [(6, 2), (9, 4), (10, 3)]:
                _same_rows(
                    random_regular_graph(n, d, seed),
                    oracles.random_regular_graph(n, d, seed),
                )

    @pytest.mark.parametrize("n", [3, 4, 5, 25, 3 * 2**30])
    def test_triples_are_choice(self, n):
        # at n = 3 * 2^30 each of Floyd's draws is rejected and redrawn a
        # quarter of the time, which the block must repeat draw for draw
        for seed in SEEDS:
            rng = np.random.Generator(np.random.Philox(seed))
            ref = np.random.Generator(np.random.Philox(seed))
            got = constructions._triples(rng, n, 200)
            want = [ref.choice(n, size=3, replace=False) for _ in range(200)]
            assert got.tolist() == np.array(want).tolist()
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


class TestCountHamilton:
    @given(small_digraphs())
    @settings(max_examples=150, deadline=None)
    def test_equal_counts(self, g):
        rep = count_hamilton(g)
        assert (rep.hamilton_paths, rep.hamilton_cycles) == oracles.count_hamilton(g)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_orders(self, n):
        for g in (Digraph(n), complete_digraph(n) if n else Digraph(0)):
            rep = count_hamilton(g)
            assert (rep.hamilton_paths, rep.hamilton_cycles) == oracles.count_hamilton(g)

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_equal_on_tournaments(self, n):
        g = random_tournament(n, n)
        rep = count_hamilton(g)
        assert (rep.hamilton_paths, rep.hamilton_cycles) == oracles.count_hamilton(g)

    @staticmethod
    def _same_ends(adj, start):
        got = solvers._end_counts(adj, start)
        want = oracles.end_counts_scatter(adj, start)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

    @pytest.mark.parametrize("k", range(1, 18))
    def test_end_counts_equal_scatter(self, k):
        # seeded matrices with start weights 0..3, 20 per k up to 12 (240)
        # and 3 per k above, where the DP crosses PLAN_K; then an all-zero
        # start, the arcless and the complete matrix
        rng = np.random.default_rng(k)
        off = 1 - np.eye(k, dtype=np.int64)
        for _ in range(20 if k <= 12 else 3):
            adj = (rng.random((k, k)) < rng.random()).astype(np.int64) * off
            self._same_ends(adj, rng.integers(0, 4, k))
        start = rng.integers(0, 4, k)
        self._same_ends(off, np.zeros(k, dtype=np.int64))
        self._same_ends(0 * off, start)
        self._same_ends(off, start)

    @pytest.mark.parametrize("k,top", [(18, 4), (19, 4), (20, 4), (12, 2**35)])
    def test_end_counts_switch_to_int64(self, k, top):
        # dense matrices around where the layers' sums pass 2**53: at k = 20
        # (seed 5) with start weights 0..3 a float64-only loop miscounts 11
        # of the 20 entries; weights up to 2**35 move the int64 switch down
        # to layer 9, where 0/1 weights would still run in float64
        rng = np.random.default_rng(5 if k == 20 else k)
        adj = (rng.random((k, k)) < 0.9).astype(np.int64) * (1 - np.eye(k, dtype=np.int64))
        self._same_ends(adj, rng.integers(0, top, k))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 14, 16, 17])
    def test_count_calls_equal_scatter(self, n):
        # the two calls count_hamilton makes: every start, and anchored at 0;
        # at n = 17 the first runs above PLAN_K and the second at it
        for g in (random_tournament(n, n), random_digraph(n, 0.3, n), complete_digraph(n)):
            adj = (np.array(g.out, dtype=np.int64)[:, None] >> np.arange(n)) & 1
            self._same_ends(adj, np.ones(n, dtype=np.int64))
            self._same_ends(adj[1:, 1:], adj[0, 1:])


class TestVertexConnectivity:
    def test_equal_flow_per_pair(self):
        # every flow, uncapped and capped, not only the least one
        rng = random.Random(23)
        for i in range(60):
            n = rng.randint(3, 12)
            g = random_digraph(n, rng.choice((0.2, 0.35, 0.5, 0.7)), seed=i)
            for s in range(n):
                for t in range(n):
                    if s == t or g.has_arc(s, t):
                        continue
                    want = oracles.max_vertex_disjoint_paths(g, s, t)
                    assert _vertex_disjoint_paths(g, s, t, n) == want
                    limit = rng.randint(0, n)
                    assert _vertex_disjoint_paths(g, s, t, limit) == min(limit, want)

    @pytest.mark.parametrize(
        "arcs",
        [
            # the first search takes 0-1-2-3-4; the second must enter 3, go
            # back over the flow arcs 2->3 and 1->2 and leave 1 by 7, which
            # needs the residual arc from 2_out to 2_in
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 3), (1, 7), (7, 8), (8, 4)],
            # {3, 7} separates 0 from 4; a later search cancels a flow arc
            # into 3, and a tail of it left behind would let a third through
            [(0, 1), (0, 5), (0, 7), (1, 2), (2, 3), (3, 4), (5, 6), (6, 3), (7, 3),
             (7, 8), (7, 9), (8, 4), (9, 4)],
        ],
    )
    def test_rerouting(self, arcs):
        g = Digraph(10, arcs)
        assert oracles.max_vertex_disjoint_paths(g, 0, 4) == 2
        assert _vertex_disjoint_paths(g, 0, 4, 10) == 2

    def test_equal_on_random_digraphs(self):
        rng = random.Random(13)
        values = set()
        for i in range(36):
            n = rng.randint(11, 18)
            g = random_digraph(n, rng.choice((0.3, 0.5, 0.7, 0.9)), seed=i)
            want = oracles.vertex_connectivity(g)
            assert vertex_connectivity(g) == want
            values.add(want)
        assert len(values) >= 4

    @pytest.mark.parametrize("n", [16, 18, 20, 22, 24])
    def test_symmetric_scan_equals_two_way_scan(self, n):
        # the rrg(n, 4) inputs of the benchmark's connectivity ops: seeds
        # 0..15, the recorded pool
        for seed in range(16):
            g = random_regular_graph(n, 4, seed)
            assert vertex_connectivity(g) == oracles.vertex_connectivity_two_way(g)

    @pytest.mark.parametrize("n", [11, 14, 17, 20, 24])
    def test_equal_on_tournaments_and_regular_graphs(self, n):
        for seed in range(3):
            for g in (random_tournament(n, seed), random_regular_graph(n, 4, seed)):
                assert vertex_connectivity(g) == oracles.vertex_connectivity(g)

    @pytest.mark.parametrize("shared", [1, 2])
    def test_vertex_zero_in_every_minimum_separator(self, shared):
        # two complete digraphs on 5 vertices glued at {0} or {0, 1}: 0 sees
        # every vertex both ways, so only the pairs (a, b) with a -> 0 -> b
        # and no arc a -> b find the one minimum separator, the glued set
        left = range(5)
        right = [*range(shared), *range(5, 10 - shared)]
        g = Digraph(10 - shared, [(u, v) for part in (left, right)
                                  for u in part for v in part if u != v])
        assert vertex_connectivity(g) == oracles.vertex_connectivity_brute(g) == shared

    def test_flows_run_on_regular_graphs(self, monkeypatch):
        # a flow per pair of vertex 0: n - 5 non-neighbours on each side and
        # at most 4 * 3 pairs a -> 0 -> b
        calls = []

        def counted(*args):
            calls.append(args)
            return flow(*args)

        flow = core._vertex_disjoint_paths
        monkeypatch.setattr(core, "_vertex_disjoint_paths", counted)
        n = 24
        for seed in range(3):
            calls.clear()
            assert vertex_connectivity(random_regular_graph(n, 4, seed)) == 4
            assert len(calls) <= 2 * (n - 5) + 12

    def test_flow_equals_brute_force(self):
        # every digraph on 2 to 4 vertices, then random ones on 5 to 10
        for n in (2, 3, 4):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(pairs)):
                g = Digraph(n, [a for i, a in enumerate(pairs) if mask >> i & 1])
                assert vertex_connectivity(g) == oracles.vertex_connectivity_brute(g)
        rng = random.Random(17)
        values = set()
        for i in range(300):
            n = rng.randint(5, 10)
            g = random_digraph(n, rng.choice((0.2, 0.4, 0.6, 0.8, 1.0)), seed=i)
            want = oracles.vertex_connectivity_brute(g)
            assert vertex_connectivity(g) == want
            values.add(want)
        assert len(values) >= 6

    def test_complete_digraph(self):
        assert vertex_connectivity(complete_digraph(13)) == 12


class TestIndependenceNumbers:
    """The explicit-stack clique-cover search against the recursive branch
    and bound it replaced, and against every vertex set."""

    def test_equal_on_random_digraphs(self):
        rng = random.Random(29)
        values = set()
        for i in range(120):
            n = rng.randint(1, 30)
            g = random_digraph(n, rng.choice((0.05, 0.15, 0.3, 0.5, 0.8)), seed=i)
            want = oracles.independence_numbers(g)
            assert independence_numbers(g) == want, (n, i)
            values.add(want)
        assert len(values) >= 30

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_equal_on_regular_graphs(self, d):
        for n in range(d + 3, 31, 3):
            for seed in range(2):
                if n * d % 2 == 0:
                    g = random_regular_graph(n, d, seed)
                    assert independence_numbers(g) == oracles.independence_numbers(g)

    def test_equal_on_tournaments(self):
        for n in range(2, 31, 2):
            for seed in range(2):
                for g in (random_tournament(n, seed), random_regular_tournament(n | 1, seed)):
                    assert independence_numbers(g) == oracles.independence_numbers(g)

    @pytest.mark.parametrize(
        "family,params",
        [("fig1", (2,)), ("fig1", (3,)), ("fig2", (11,)), ("fig2", (30,)),
         ("fig3_haggkvist", (5,)), ("fig4_square", (4,)), ("nw_extremal", (30, 14)),
         ("two_regular_tournaments", (7,)), ("pancyclic_bipartite", (29,)),
         ("cycle_blowup", (5, (4, 7, 3, 6, 5)))],
    )
    def test_equal_on_extremal_families(self, family, params):
        g, _ = constructions.generate_extremal(family, *params)
        assert g.n <= 30
        assert independence_numbers(g) == oracles.independence_numbers(g)

    def test_equal_to_brute_force(self):
        rng = random.Random(31)
        for i in range(150):
            n = rng.randint(0, 12)
            g = random_digraph(n, rng.choice((0.1, 0.25, 0.5, 0.75)), seed=i)
            assert independence_numbers(g) == oracles.independence_numbers_brute(g)


class TestRobustOutexpander:
    def test_equal_verdicts(self):
        rng = random.Random(19)
        outcomes = set()
        for i in range(150):
            n = rng.randint(1, 13)
            g = random_digraph(n, rng.choice((0.2, 0.4, 0.6, 0.8)), seed=i)
            nu, tau = sorted((Fraction(rng.randint(1, 8), 20), Fraction(rng.randint(1, 9), 20)))
            want = oracles.is_robust_outexpander_exact(g, nu, tau)
            assert is_robust_outexpander(g, nu, tau) == want
            outcomes.add(want.holds)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [13, 15, 17])
    def test_equal_on_circulants(self, n):
        g = circulant_tournament(n)
        want = oracles.is_robust_outexpander_exact(g, "1/20", "1/5")
        assert want.holds and is_robust_outexpander(g, "1/20", "1/5") == want

    def test_witness_past_first_scan_block(self):
        # only sets holding the out-isolated vertex 16 fail, so the first
        # witness lies past the first block of 2^16 masks
        g = complete_digraph(17).without_arcs([(16, v) for v in range(16)])
        want = oracles.is_robust_outexpander_exact(g, "1/5", "1/5")
        assert 16 in want.witness["S"]
        assert is_robust_outexpander(g, "1/5", "1/5") == want


# --- the sequence-search kernel against the recursive searches -------------


def _outcome(call):
    try:
        return call()
    except (BadParams, BudgetExceeded) as e:
        return type(e), str(e)


@pytest.fixture
def counted(monkeypatch):
    """Runs a library search as ``run(fn, *args, budget=B)`` and returns its
    outcome (result or exception) and the nodes its budgets were charged.
    ``core._Budget.__init__`` is patched, so every budget counts, wherever
    it is built."""
    made = []
    init = _Budget.__init__

    def counted_init(self, nodes):
        init(self, nodes)
        made.append((self, nodes))

    monkeypatch.setattr(_Budget, "__init__", counted_init)

    def run(fn, *args, budget):
        made.clear()
        out = _outcome(lambda: fn(*args, budget=budget))
        return out, sum(start - b.left for b, start in made)

    return run


def _oracle(fn, *args, budget):
    nodes = oracles.Nodes(budget)
    return _outcome(lambda: fn(*args, nodes)), nodes.count


def _random_tree(rng, k):
    """A random oriented tree on k vertices, or now and then a non-tree."""
    arcs = []
    for v in range(1, k):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    if k >= 3 and rng.random() < 0.1:
        # re-aim the last arc: usually a cycle plus a cut-off vertex
        arcs[-1] = (arcs[-1][0], (arcs[-1][1] + 1) % k)
        arcs = [(u, v) for u, v in arcs if u != v]
    perm = rng.sample(range(k), k)
    return Digraph(k, {(perm[u], perm[v]) for u, v in arcs})


def _random_lengths(rng, n):
    """Cycle lengths >= 2 summing to n, or now and then a bad list."""
    lengths, left = [], n
    while left:
        l = rng.randint(min(2, left), left)
        l += left - l == 1
        lengths.append(l)
        left -= l
    if rng.random() < 0.1:
        lengths.append(rng.randint(1, 3))
    return lengths


def _oriented(g, signs, budget):
    return oriented_hamilton(g, OrientationPattern(signs), budget=budget)


def _oriented_oracle(g, signs, b):
    return oracles.pattern_search(g, signs, True, b)


def _power_oracle(g, k, b):
    """The recursive k-th power search behind the kernel's Hamilton cycle
    search, which runs first on the same nodes: its nodes are ticked on
    ``b`` one by one, and a digraph it refutes has no k-th power."""
    if g.n < k + 1:
        return None
    kernel = _Budget(10**6)
    h = find_hamilton_cycle(g, budget=kernel)
    for _ in range(10**6 - kernel.left):
        b.tick()
    return None if h is None else oracles.kth_power_hamilton(g, k, b)


def _oriented_path(g, signs, budget):
    return oriented_hamilton_path(g, OrientationPattern(signs), budget=budget)


def _searches(rng, g):
    """One call of each of the seven searches with a recursive oracle on
    ``g``: its name, the library call, the oracle and the arguments."""
    n = g.n
    seq = rng.sample(range(n), rng.randint(1, min(n, 4)))
    if rng.random() < 0.1:
        seq.append(seq[0])
    signs = tuple(rng.choice((1, -1)) for _ in range(n))
    if rng.random() < 0.25:
        signs = (1,) * n  # a Hamilton cycle: the pruned kernel's question
    bad = rng.random() < 0.05  # a pattern of the wrong length
    yield ("cycle", find_cycle_of_length, oracles.find_cycle_of_length,
           (g, rng.randint(0, n + 1)))
    yield ("power", kth_power_hamilton, _power_oracle, (g, rng.choice((2, 3))))
    yield ("ordered", k_ordered_hamilton, oracles.k_ordered_hamilton, (g, seq))
    yield ("oriented", _oriented, _oriented_oracle, (g, signs[: n - bad]))
    yield ("oriented_path", _oriented_path,
           lambda g, s, b: oracles.pattern_search(g, s, False, b),
           (g, signs[: n - 1 + bad]))
    yield ("factor", disjoint_cycle_factor, oracles.disjoint_cycle_factor,
           (g, _random_lengths(rng, n)))
    yield ("tree", embed_tree, oracles.embed_tree,
           (g, _random_tree(rng, rng.randint(1, n + 1))))


def _moved(name, args):
    """Whether the call asks for a Hamilton cycle of the host, with or
    without a side condition, or for a Hamilton path (a cycle through a
    hub), and so runs on the pruned Hamilton kernel instead of the
    sequence search."""
    g = args[0]
    return (
        name == "ordered"
        or name == "cycle" and args[1] == g.n
        or name == "oriented" and args[1] == (1,) * g.n
        or name == "oriented_path" and g.n > 1 and args[1] == (1,) * (g.n - 1)
    )


def _kind(outcome):
    if isinstance(outcome, tuple) and outcome and isinstance(outcome[0], type):
        return outcome[0].__name__
    return "none" if outcome is None else "found"


class TestSequenceSearches:
    @pytest.mark.parametrize("family", ["digraph", "tournament"])
    def test_equal_results_and_nodes(self, counted, family):
        # on the sequence search: the same certificate or exception, under
        # ample and under small budgets, from the same number of nodes (the
        # recursive tree embedding also counts its empty root, place(0)).
        # On the pruned kernel: under an ample budget the same certificate
        # or exception from no more nodes (a Hamilton path one more, its
        # hub's); under a small one the oracle's outcome if the oracle
        # finished within it (less the hub's node), else the ample answer
        # or BudgetExceeded
        rng = random.Random(41 if family == "digraph" else 43)
        kinds: dict[str, set] = {}
        moved = set()
        for i in range(500):
            n = rng.randint(1, 11)
            if family == "digraph":
                g = random_digraph(n, rng.choice((0.2, 0.35, 0.5, 0.7)), seed=i)
            else:
                g = random_tournament(n, seed=i)
            for name, fn, oracle, args in _searches(rng, g):
                budget = rng.choice((rng.randint(1, 60), 3000, 10**5))
                got, nodes = counted(fn, *args, budget=budget)
                root = name == "tree"
                # the kernel's Hamilton path search also visits its hub
                hub = name == "oriented_path" and _moved(name, args)
                want, want_nodes = _oracle(oracle, *args, budget=budget + root - hub)
                kinds.setdefault(name, set()).add(_kind(got))
                if not _moved(name, args):
                    assert got == want, (name, args)
                    assert want_nodes - nodes == (root and want_nodes > 0), (name, args)
                    continue
                moved.add(name)
                ample, ample_nodes = counted(fn, *args, budget=10**6)
                full, full_nodes = _oracle(oracle, *args, budget=10**6)
                assert _kind(full) != "BudgetExceeded", (name, args)
                assert ample == full and ample_nodes <= full_nodes + hub, (name, args)
                if _kind(want) == "BudgetExceeded":
                    assert got == ample or _kind(got) == "BudgetExceeded", (name, args)
                else:
                    assert got == want, (name, args)
        assert moved == {"cycle", "ordered", "oriented", "oriented_path"}
        for name, seen in kinds.items():
            assert {"found", "none", "BudgetExceeded"} <= seen, (name, seen)
            assert name in ("cycle", "power") or "BadParams" in seen, (name, seen)

    def test_pancyclic_lengths_equal(self):
        rng = random.Random(47)
        for i in range(60):
            g = random_tournament(rng.randint(3, 9), seed=i)
            rep = is_pancyclic(g)
            for length in range(3, g.n + 1):
                want = oracles.find_cycle_of_length(g, length, oracles.Nodes())
                if length in rep.cycles:
                    assert rep.cycles[length] == want
                else:
                    assert rep.missing == length and want is None
                    break


class TestHamiltonQuestionsOnTheKernel:
    """k-ordered cycles, all-forward patterns and cycles of length n ask for
    a Hamilton cycle of the host, so they run on the pruned kernel with an
    ``allow`` hook; the sequence search's oracles give the same
    certificates from at least as many nodes.  A k-th power search asks
    the kernel first, since every k-th power holds a Hamilton cycle."""

    # each ran out of 2 * 10^6 nodes on the sequence search, except
    # rrg(40, 3), which took 208,884; fig1(s) is refuted by the cut scan
    # at its (n^2 + 1)-th node and nw_extremal(n, 2) by the forcing.  On
    # rrg(40, 3) a forced degree-2 vertex that is not allowed falling back
    # to the node's other neighbours costs 443 nodes.  A Hamilton path is a
    # cycle through a hub: on the sequence search fig1(2)'s took 133,688
    # nodes, and fig1(3)'s ran out of 2 * 10^6
    PINNED = {
        "k_ordered fig1(2)": (k_ordered_hamilton, lambda: (fig1(2)[0], [0, 1]), 401),
        "k_ordered fig1(3)": (k_ordered_hamilton, lambda: (fig1(3)[0], [0, 1]), 842),
        "k_ordered rrg(40, 3)": (
            k_ordered_hamilton, lambda: (random_regular_graph(40, 3, 0), [0, 5, 3]), 347
        ),
        "length n fig1(2)": (find_cycle_of_length, lambda: (fig1(2)[0], 20), 401),
        "length n fig1(3)": (find_cycle_of_length, lambda: (fig1(3)[0], 29), 842),
        "forward fig1(2)": (_oriented, lambda: (fig1(2)[0], (1,) * 20), 401),
        "forward nw_extremal(10, 2)": (_oriented, lambda: (nw_extremal(10, 2)[0], (1,) * 10), 7),
        "forward nw_extremal(11, 2)": (_oriented, lambda: (nw_extremal(11, 2)[0], (1,) * 11), 7),
        "forward nw_extremal(12, 2)": (_oriented, lambda: (nw_extremal(12, 2)[0], (1,) * 12), 7),
        "path fig1(2)": (_oriented_path, lambda: (fig1(2)[0], (1,) * 19), 38),
        "path fig1(3)": (_oriented_path, lambda: (fig1(3)[0], (1,) * 28), 58),
        # every k-th power holds a Hamilton cycle, so the kernel refutes
        # these squares first; the square search took 219,207 nodes on
        # nw_extremal(12, 2) and ran out of 2 * 10^6 on nw_extremal(14, 2)
        "power nw_extremal(12, 2)": (kth_power_hamilton, lambda: (nw_extremal(12, 2)[0], 2), 7),
        "power nw_extremal(14, 2)": (kth_power_hamilton, lambda: (nw_extremal(14, 2)[0], 2), 7),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_counts(self, counted, name):
        fn, make, nodes = self.PINNED[name]
        args = make()
        got, used = counted(fn, *args, budget=10**5)
        assert used == nodes
        if name.startswith("k_ordered rrg"):
            assert got == oracles.k_ordered_hamilton(*args, oracles.Nodes())
        elif name.startswith("path"):
            assert solvers.validate_oriented(args[0], got, OrientationPattern(args[1]), False)
        else:
            assert got is None

    @pytest.mark.parametrize("family", ["digraph", "tournament", "graph"])
    def test_same_certificates_from_no_more_nodes(self, counted, family):
        rng = random.Random({"digraph": 59, "tournament": 61, "graph": 67}[family])
        nodes = want_nodes = 0
        for i in range(1000):
            n = rng.randint(1, 10)
            if family == "tournament":
                g = random_tournament(n, seed=i)
            else:
                g = random_digraph(n, rng.choice((0.2, 0.35, 0.5, 0.7)), seed=i)
                if family == "graph":
                    g = g.symmetrize()
            seq = rng.sample(range(n), rng.randint(1, min(n, 4)))
            for fn, oracle, args in (
                (k_ordered_hamilton, oracles.k_ordered_hamilton, (g, seq)),
                (_oriented, _oriented_oracle, (g, (1,) * n)),
                (find_cycle_of_length, oracles.find_cycle_of_length, (g, n)),
            ):
                got, used = counted(fn, *args, budget=10**6)
                want, want_used = _oracle(oracle, *args, budget=10**6)
                assert got == want and used <= want_used, (fn, args)
                nodes += used
                want_nodes += want_used
        assert nodes < want_nodes

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_allow_keeps_the_allowed_cycles_in_order(self, symmetric):
        # a random table of allowed next vertices per (end, depth): the
        # kernel yields exactly the allowed cycles of the unhooked kernel,
        # in its order, from no more nodes; on graphs a forced degree-2
        # vertex that is not allowed must empty the node's candidates
        rng = random.Random(71 + symmetric)
        for i in range(300):
            n = rng.randint(2, 8)
            g = random_digraph(n, rng.choice((0.4, 0.6, 0.8)), seed=i)
            if symmetric:
                g = g.symmetrize()
            table = {
                (v, d): sum(1 << w for w in range(n) if rng.random() < 0.8)
                for v in range(n)
                for d in range(1, n)
            }
            plain, hooked = _Budget(10**6), _Budget(10**6)
            want = [
                c for c in _enumerate(g, plain)
                if all(table[c.order[d - 1], d] >> c.order[d] & 1 for d in range(1, n))
            ]
            got = list(_enumerate(g, hooked, lambda path, _: table[path[-1], len(path)]))
            assert got == want and hooked.left >= plain.left


class TestSequenceSearchesPastOldLimits:
    # the recursive searches raised RecursionError at n = 1200, and the
    # size caps raised BudgetExceeded for the powers at n = 17, the
    # oriented searches at n = 19 and pancyclicity at n = 21
    N = 1200

    def test_cycle_of_length(self):
        assert find_cycle_of_length(directed_cycle(self.N), self.N) == tuple(range(self.N))

    def test_k_ordered(self):
        h = k_ordered_hamilton(directed_cycle(self.N), [0, 600, 1100])
        assert h.order == tuple(range(self.N))

    def test_cycle_factor(self):
        f = disjoint_cycle_factor(directed_cycle(self.N), [self.N])
        assert f.cycles == (tuple(range(self.N)),)

    def test_embed_tree(self):
        path = Digraph(self.N, [(i, i + 1) for i in range(self.N - 1)])
        assert embed_tree(directed_cycle(self.N), path) == {v: v for v in range(self.N)}

    def test_square_at_17(self):
        g = complete_digraph(17)
        assert kth_power_hamilton(g, 2).order == tuple(range(17))

    def test_oriented_at_19(self):
        g = random_tournament(19, seed=0)
        pat = OrientationPattern.from_bits(0b1011001110001011010, 19)
        order = oriented_hamilton(g, pat)
        assert order is not None and solvers.validate_oriented(g, order, pat, True)
        path_pat = OrientationPattern.from_bits(0b101100111000101101, 18)
        order = oriented_hamilton_path(g, path_pat)
        assert order is not None and solvers.validate_oriented(g, order, path_pat, False)

    def test_pancyclic_at_21(self):
        rep = is_pancyclic(circulant_tournament(21))
        assert rep.holds and sorted(rep.cycles) == list(range(3, 22))


# --- one cover loop against the two pipelines it replaced ------------------


def _cover_outcome(cover, g):
    """The report, or the matching a CoverFailure names."""
    try:
        return cover(g)
    except CoverFailure as exc:
        return exc.matching


class TestCoverLoop:
    @pytest.mark.parametrize("n,d", [(24, 4), (24, 5), (24, 6), (20, 4)])
    def test_equal_on_random_regular_graphs(self, n, d):
        for seed in range(50):
            g = random_regular_graph(n, d, seed)
            want = _cover_outcome(oracles.cover_regular_graph, g)
            assert _cover_outcome(cover_regular_graph, g) == want

    def test_equal_failure_on_a_known_graph(self):
        # a leftover matching that no Hamilton cycle runs through with every
        # edge oriented low -> high, on every restart
        g = random_regular_graph(24, 4, 1054104823)
        with pytest.raises(CoverFailure) as want:
            oracles.cover_regular_graph(g)
        with pytest.raises(CoverFailure) as got:
            cover_regular_graph(g)
        assert got.value.matching == want.value.matching

    @pytest.mark.parametrize("n", range(9, 22, 2))
    def test_equal_on_random_regular_tournaments(self, n):
        for seed in range(4):
            g = random_regular_tournament(n, seed)
            want = _cover_outcome(oracles.cover_tournament, g)
            assert _cover_outcome(cover_tournament, g) == want

    def test_equal_on_circulants(self):
        for n in range(5, 26, 2):
            g = circulant_tournament(n)
            assert cover_tournament(g) == oracles.cover_tournament(g)

    def test_equal_on_complete_graphs(self):
        # K25 is left out: its last extraction is an 8 s exhaustive search
        for n in range(5, 24, 2):
            g = complete_graph(n)
            assert cover_regular_graph(g) == oracles.cover_regular_graph(g)

    def test_contraction_drops_reverse_matching_arcs(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 16)
            g = random_digraph(n, rng.random(), rng.randrange(10**6)).symmetrize()
            free, arcs = set(range(n)), []
            for u, v in rng.sample(g.undirected_edges(), len(g.undirected_edges())):
                if u in free and v in free:
                    free -= {u, v}
                    arcs.append((u, v) if rng.random() < 0.5 else (v, u))
            m = Matching(tuple(arcs))
            doubled = g.without_arcs([(v, u) for u, v in arcs])
            assert contract_matching(g, m)[0] == contract_matching(doubled, m)[0]


# --- derived digraphs, contraction and colouring on rows ------------------


def _seeded_digraphs(seed, count, sparse=False):
    """``count`` seeded random digraphs, n from 2 to 40 (on both sides of
    ``TRANSPOSE_MIN_N``), each with the generator that drew it; the arc
    probability is uniform below 1, or below min(1, 6/n) if ``sparse``."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 40)
        p = rng.random() * (min(1, 6 / n) if sparse else 1)
        yield rng, random_digraph(n, p, rng.randrange(10**6))


def _random_matching(rng, g):
    """A random matching of ``g``'s arcs: an arc whose ends are both free is
    taken with a probability drawn once per call, so some matchings are
    empty and some maximal."""
    keep, free, arcs = rng.random(), (1 << g.n) - 1, []
    for u, v in rng.sample(g.arcs(), g.m):
        if free >> u & 1 and free >> v & 1 and rng.random() < keep:
            free &= ~(1 << u | 1 << v)
            arcs.append((u, v))
    return Matching(tuple(arcs))


class TestRowEdits:
    """Derived digraphs edit both row sets; the in-rows must be the
    transpose of the out-rows and the out-rows those of the arc edit."""

    def test_derived_digraphs_against_the_transpose(self):
        for rng, g in _seeded_digraphs(19, 300):
            n = g.n
            # the last pair may be no arc of g
            drop = rng.sample(g.arcs(), rng.randint(0, g.m)) + [tuple(rng.sample(range(n), 2))]
            want = list(g.out)
            for u, v in drop:
                want[u] &= ~(1 << v)
            _same_rows(g.without_arcs(drop), Digraph.from_out_masks(want))
            add = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
            want = list(g.out)
            for u, v in add:
                want[u] |= 1 << v
            _same_rows(g.with_arcs(add), Digraph.from_out_masks(want))
            _same_rows(g.reverse(), Digraph.from_out_masks(g.inn))
            _same_rows(g.symmetrize(),
                       Digraph.from_out_masks([o | i for o, i in zip(g.out, g.inn)]))

    def test_with_arcs_checks_kept(self):
        for n in (5, 40):
            g = directed_cycle(n)
            with pytest.raises(BadParams, match="self-loop"):
                g.with_arcs([(0, 1), (2, 2)])
            for arc in ((0, n), (n, 0), (-1, 0)):
                with pytest.raises(BadParams, match="out of range"):
                    g.with_arcs([arc])


class TestContraction:
    """``contract_matching`` on bit rows against the arc-list contraction."""

    def test_equal_to_the_arc_list_contraction(self):
        for rng, g in _seeded_digraphs(23, 400):
            m = _random_matching(rng, g)
            got, lift = contract_matching(g, m)
            want, want_lift = oracles.contract_matching(g, m)
            _same_rows(got, want)
            h = HamiltonCycle(tuple(rng.sample(range(got.n), got.n)))
            assert lift(h) == want_lift(h)

    def test_complete_digraphs_and_perfect_matchings(self):
        for n in range(2, 41):
            g = complete_digraph(n)
            m = Matching(tuple((v, v + 1) for v in range(0, n - 1, 2)))
            _same_rows(contract_matching(g, m)[0], oracles.contract_matching(g, m)[0])

    def test_missing_arc(self):
        with pytest.raises(ArcMissing):
            contract_matching(directed_cycle(5), Matching(((0, 2),)))


class TestVizingColor:
    """Misra-Gries on colour slots against the version that rescans every
    neighbourhood; the colourings must be equal, class for class."""

    def _check(self, f):
        got = vizing_color(f)
        assert got == oracles.vizing_color(f)
        assert oracles.coloring_is_proper(f, got)
        assert len(got.classes) <= max(map(int.bit_count, f.out), default=0) + 1

    def test_equal_on_random_graphs(self):
        # the rescanning oracle takes seconds on dense graphs near n = 40,
        # so the degree is kept to about a dozen
        for _, g in _seeded_digraphs(29, 300, sparse=True):
            self._check(g.symmetrize())

    def test_equal_on_complete_graphs(self):
        for n in range(3, 26):
            self._check(complete_graph(n))

    def test_equal_on_cover_leftovers(self):
        for n in range(9, 24, 2):
            _, leftover = decomp.greedy_extract(random_regular_tournament(n, n))
            self._check(leftover.symmetrize())


class TestRowBuiltSearchDigraphs:
    """The digraphs the searches build from rows they edited themselves."""

    def test_forced_arc_digraph(self, monkeypatch):
        seen = []

        def recording(g, succ, b, has_cut, allow):
            seen.append(g)
            return _hamilton_orders(g, succ, b, has_cut, allow)

        monkeypatch.setattr(solvers, "_hamilton_orders", recording)
        forced = 0
        for _, g in _seeded_digraphs(31, 200, sparse=True):
            seen.clear()
            first = next(_enumerate(g, _Budget(10**6)), None)
            assert first is None or first.is_valid(g)
            for h in seen:
                assert h.inn == oracles.derive_in(h.n, h.out)
                assert h.out == tuple(_forced_arcs(g.out, g.inn)[0])
                forced += h.out != g.out
        assert forced >= 20

    def test_through_digraph(self, monkeypatch):
        seen = []

        def recording(g, b):
            seen.append(g)
            return _enumerate(g, b)

        monkeypatch.setattr(decomp, "_enumerate", recording)
        for n in range(2, 8):
            decompose_exact(complete_digraph(n))
        decompose_exact(next(_regular_tournaments_7()))
        assert len(seen) > 50
        for g in seen:
            assert g.inn == oracles.derive_in(g.n, g.out)
            assert g.out[0].bit_count() == 1


# --- the lazy residual decomposition against the exact cover --------------


def _regular_tournaments_7():
    """The 2,640 labelled regular tournaments on 7 vertices: every
    orientation of K7, filtered for out-degree 3 at once with numpy."""
    n = 7
    pairs = list(itertools.combinations(range(n), 2))
    masks = np.arange(1 << len(pairs), dtype=np.uint32)
    out_deg = np.zeros((n, masks.size), np.int8)
    for t, (i, j) in enumerate(pairs):
        bit = (masks >> t & 1).astype(np.int8)
        out_deg[i] += bit
        out_deg[j] += 1 - bit
    for mask in np.flatnonzero((out_deg == 3).all(axis=0)).tolist():
        arcs = [(i, j) if mask >> t & 1 else (j, i) for t, (i, j) in enumerate(pairs)]
        yield Digraph(n, arcs)


def _permutation_unions(rng, count):
    """``count`` r-regular digraphs with n <= 8 and r <= 3, each the union of
    r arc-disjoint fixed-point-free permutations drawn by rejection."""
    found = []
    while len(found) < count:
        n = rng.randint(3, 8)
        arcs: set = set()
        for _ in range(rng.randint(1, min(3, n - 1))):
            for _ in range(100):
                p = rng.sample(range(n), n)
                step = {(u, p[u]) for u in range(n)}
                if all(u != p[u] for u in range(n)) and not step & arcs:
                    arcs |= step
                    break
            else:
                break
        else:
            found.append(Digraph(n, sorted(arcs)))
    return found


def _same_verdict(g):
    """Whether ``g`` decomposes, after checking that the lazy search and the
    exact cover agree and that the lazy search's answer validates."""
    got = decompose_exact(g)
    assert (got is None) == (oracles.decompose_exact_cover(g) is None)
    assert got is None or validate(got, g).holds
    return got is not None


class TestDecomposition:
    def test_regular_tournaments_on_seven_vertices(self):
        verdicts = [_same_verdict(g) for g in _regular_tournaments_7()]
        assert len(verdicts) == 2640 and all(verdicts)

    def test_complete_digraphs(self):
        # Tillson: K*n decomposes for every n but 4 and 6
        got = [_same_verdict(complete_digraph(n)) for n in range(2, 8)]
        assert got == [True, True, False, True, False, True]

    def test_edge_cases(self):
        for g in (Digraph(3), complete_digraph(2)):
            assert decompose_exact(g) == oracles.decompose_exact_cover(g)
        assert decompose_exact(Digraph(3)).cycles == ()
        assert decompose_exact(complete_digraph(2)).cycles == (HamiltonCycle((0, 1)),)

    def test_permutation_unions(self):
        verdicts = [_same_verdict(g) for g in _permutation_unions(random.Random(5), 400)]
        assert (verdicts.count(True), verdicts.count(False)) == (198, 202)

    def test_one_budget_bounds_every_level(self, monkeypatch):
        # K*6 has no decomposition.  The exact cover listed its 120 cycles
        # in 326 nodes and refuted in 457 more, each on a budget of its own,
        # so a budget of 500 never ran out; one budget stops at 501 nodes
        made, ticks = [], [0]
        init, tick = _Budget.__init__, _Budget.tick

        def counted_init(self, nodes):
            made.append(nodes)
            init(self, nodes)

        def counted_tick(self):
            ticks[0] += 1
            tick(self)

        monkeypatch.setattr(_Budget, "__init__", counted_init)
        monkeypatch.setattr(_Budget, "tick", counted_tick)
        with pytest.raises(BudgetExceeded):
            decompose_exact(complete_digraph(6), budget=500)
        assert made == [500] and ticks[0] == 501

    def test_a_finished_search_leaves_no_checkpoint(self):
        # two copies of K*4 glued at vertex 0: 0 is a cut vertex, and the
        # reach prune exhausts the search well inside n^2 = 49 nodes.  Run
        # inside a suspended search on the same budget, it costs what it
        # costs alone, and no cut scan of it ends the first search later
        # with cycles still to come
        bowtie = _glued_cliques((3, 3), 1)
        alone = _Budget(10**6)
        assert list(_enumerate(bowtie, alone)) == []
        b = _Budget(10**6)
        outer = _enumerate(complete_digraph(7), b)
        head = list(itertools.islice(outer, 60))
        left = b.left
        assert list(_enumerate(bowtie, b)) == []
        assert left - b.left == 10**6 - alone.left
        assert len(head) + len(list(outer)) == 720


# --- the pair-based degree rules, the degree helpers and the parser -------

ALPHAS = (Fraction(0), Fraction(1, 10), Fraction(-1, 3), Fraction(1, 4))
# 5/4 puts n - i - beta*n below -1 at i = 1, where the witness shows its
# truncation toward zero
BETAS = (Fraction(1, 10), Fraction(1, 3), Fraction(3, 5), Fraction(5, 4))


def _record(fn, *args, **params):
    """The verdict's record, or the class and message of a library error."""
    try:
        return fn(*args, **params).to_record()
    except HamdgError as e:
        return type(e).__name__, str(e)


def _rule_inputs(n, seed):
    """Digraphs of every class at order n: random at several densities,
    dense enough for late witnesses, a tournament, two oriented graphs and
    a symmetric digraph."""
    rng = random.Random(seed)
    for p in (0.1, 0.5, 0.85, 0.97):
        yield random_digraph(n, p, seed)
    t = random_tournament(n, seed)
    yield t
    arcs = t.arcs()
    for k in (rng.randrange(3), len(arcs) // 3):
        yield t.without_arcs(rng.sample(arcs, min(k, len(arcs))))
    yield random_digraph(n, 0.7, seed + 1).symmetrize()


def _rule_records(g, rules):
    """(record, oracle record) for every rule, α and β on ``g``."""
    for rule in rules:
        if rule == "ore_oriented":
            for alpha in ALPHAS:
                yield (
                    _record(check, rule, g, alpha=alpha),
                    _record(oracles.pair_rule, g, rule, alpha=alpha),
                )
        elif rule == "ckko":
            for beta in BETAS:
                yield (
                    _record(check, rule, g, beta=beta),
                    _record(oracles.ckko, g, beta=beta),
                )
        else:
            yield (
                _record(check, rule, g),
                _record(oracles.pair_rule, g, rule),
            )


class TestPairRules:
    """Bit-row scans for Woodall, Meyniel, Bang-Jensen-Gutin-Li and the
    oriented Ore bound, and the integer CKKO rule, against the
    pair-at-a-time and ``Fraction`` rules."""

    RULES = ("woodall", "meyniel", "bgl", "ore_oriented", "ckko")

    def test_equal_records_to_70(self):
        seen = {rule: set() for rule in self.RULES}
        negative_j = 0
        for n in range(71):
            for g in _rule_inputs(n, 1000 + n):
                for got, want in _rule_records(g, self.RULES):
                    assert got == want, (n, oracles.classify(g), got, want)
                    if isinstance(got, dict):
                        kind = ("witness" if "witness" in got else
                                "reason" if "reason" in got else "holds")
                        seen[got["rule"]].add(kind)
                        j = got.get("witness", {}).get("secondary_index", 0)
                        negative_j += j < 0
                    else:
                        seen[got[1].split()[0]].add(got[0])
        # every outcome of every rule was compared, not just the cheap ones
        for rule in ("woodall", "meyniel", "bgl"):
            assert seen[rule] == {"holds", "witness", "reason"}, rule
        assert seen["ore_oriented"] == {"holds", "witness", "ClassMismatch"}
        assert seen["ckko"] == {"holds", "witness"}
        assert negative_j

    def test_late_witnesses(self):
        # complete digraphs and tournaments with a few arcs taken out, so
        # the first violating pair sits anywhere in the scan
        rng = random.Random(4)
        for n in range(2, 41):
            for k in (1, 2, 5):
                full = complete_digraph(n)
                g = full.without_arcs(rng.sample(full.arcs(), min(k, full.m)))
                t = circulant_tournament(n)
                h = t.without_arcs(rng.sample(t.arcs(), min(k, t.m)))
                for got, want in itertools.chain(
                    _rule_records(g, ("woodall", "meyniel", "bgl")),
                    _rule_records(h, self.RULES),
                ):
                    assert got == want, (n, k, got, want)

    def test_degree_helpers(self):
        for n in range(0, 71, 7):
            for g in _rule_inputs(n, n):
                assert core.semidegrees(g) == oracles.semidegrees(g)
                assert core.degree_sequences(g) == oracles.degree_sequences(g)
                assert core.classify(g) == oracles.classify(g)

    def test_classify_every_digraph_on_four_vertices(self):
        pairs = [(u, v) for u in range(4) for v in range(4) if u != v]
        for n in range(5):
            for mask in range(1 << len(pairs)):
                arcs = [a for i, a in enumerate(pairs) if mask >> i & 1]
                if all(u < n and v < n for u, v in arcs):
                    g = Digraph(n, arcs)
                    assert core.classify(g) == oracles.classify(g), (n, arcs)
                    assert core.is_tournament(g) == (oracles.classify(g) == "tournament")

    def test_dominated_pairs_to_40(self):
        rng = random.Random(6)
        for n in range(41):
            for p in (0, 0.05, 0.2, 0.6, 1):
                out = [
                    sum(1 << v for v in range(n) if v != u and rng.random() < p)
                    for u in range(n)
                ]
                g = Digraph.from_out_masks(out)
                assert core.dominated_pairs(g) == oracles.dominated_pairs(g), (n, p)


PARSE_ERRORS = [
    "",
    " \n\n",
    "DIGRAPH 2 3 1\n0 1\n",
    "DIGRAPH 1 3\n",
    "TREE 1 3 0\n",
    "DIGRAPH 1 x 0\n",
    "DIGRAPH 1 -1 0\n",
    "GRAPH 1 3 -2\n",
    "DIGRAPH 1 3 2\n0 1\n",
    "DIGRAPH 1 3 0\n0 1\n",
    "DIGRAPH 1 3 1\n0 1 2\n",
    "DIGRAPH 1 3 1\n0\n",
    "DIGRAPH 1 3 1\n0 x\n",
    "DIGRAPH 1 3 1\n0 3\n",
    "DIGRAPH 1 3 1\n-1 0\n",
    "DIGRAPH 1 3 1\n1 1\n",
    "GRAPH 1 3 1\n2 1\n",
    "DIGRAPH 1 3 3\n0 1\n1 2\n1 2\n",
    # two faults on one line: the first check in the parser's order wins
    "DIGRAPH 1 3 1\n5 5\n",  # out of range and a self-loop
    "GRAPH 1 3 1\n4 1\n",  # out of range and u > v
    "GRAPH 1 3 2\n0 1\n0 1\n",  # a repeated edge
    "GRAPH 1 3 2\n0 1\n1 0\n",  # the reverse of an edge is u > v, not a repeat
    "GRAPH 1 0 1\n0 0\n",
    # int() alone reads these as 0 -> 11, 0 -> 1 and n = 3
    "DIGRAPH 1 12 1\n0 1_1\n",
    "DIGRAPH 1 3 1\n+0 \u0661\n",
    "DIGRAPH 1 0_3 0\n",
    # canonical but for one byte: an empty token or a digit after the last
    # newline (at n = 300 a stray byte read as a digit would be in range)
    "DIGRAPH 1 300 1\n0 \n",
    "DIGRAPH 1 300 1\n 1\n",
    "DIGRAPH 1 300 1\n0 1\n2",
    "DIGRAPH 1 3 0\n7",
]


def _parse_outcome(parse, text):
    """``(n, out, inn)`` of the parsed digraph, or the ``FormatError`` text."""
    try:
        g = parse(text)
    except FormatError as exc:
        return str(exc)
    return g.n, g.out, g.inn


def _parse_graphs():
    # orders on both sides of the in-row transpose gate, in both formats
    graphs = [Digraph(0), Digraph(1), Digraph(2, [(0, 1), (1, 0)])]
    for n in (5, 12, 31, 32, 33, 48, 64, 65):
        graphs += [random_tournament(n, n), circulant_tournament(n),
                   random_digraph(n, 0.3, n)]
    graphs += [random_regular_graph(n, 3, n) for n in (12, 24, 32, 66)]
    graphs += [fig1(2)[0], fig2(9)[0]]
    return graphs


def _texts(g):
    """``serialize``'s text of ``g`` in each format it can take."""
    return [hio.serialize(g)] + ([hio.serialize(g, as_graph=True)] if g.is_symmetric() else [])


def _single_edit(rng, text):
    """One random edit of ``text``: a byte replaced by a digit, space, tab,
    newline, '-' or '+', a byte deleted, a line doubled, or two
    whitespace-separated tokens swapped."""
    kind = rng.randrange(4)
    if kind == 0:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("0123456789 \t\n-+") + text[i + 1 :]
    if kind == 1:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1 :]
    if kind == 2:
        lines = text.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        return "".join(lines[: i + 1] + lines[i:])
    pieces = re.split(r"(\s+)", text)  # tokens at the even indices
    i, j = rng.sample([k for k in range(0, len(pieces), 2) if pieces[k]], 2)
    pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


class TestParse:
    """The row-building parser against the arc-tuple parser."""

    @pytest.mark.parametrize("text", PARSE_ERRORS)
    def test_same_error(self, text):
        with pytest.raises(FormatError) as want:
            oracles.parse(text)
        with pytest.raises(FormatError) as got:
            hio.parse(text)
        assert str(got.value) == str(want.value)

    def test_equal_digraphs(self):
        for g in _parse_graphs():
            for text in _texts(g):
                got, want = hio.parse(text), oracles.parse(text)
                assert (got.n, got.out, got.inn) == (want.n, want.out, want.inn)
                assert got == g

    def test_canonical_text_takes_the_bulk_path(self, monkeypatch):
        def no_line_loop(text):
            raise AssertionError("the line loop read canonical text")

        monkeypatch.setattr(hio, "_parse_lines", no_line_loop)
        for g in _parse_graphs():
            for text in _texts(g):
                got = hio.parse(text)
                assert (got.n, got.out, got.inn) == (g.n, g.out, g.inn)

    def test_single_edits_match_the_oracle(self, monkeypatch):
        # every edit gives the same digraph or the same first fault; the
        # bulk path takes the edits that keep the canonical layout (a
        # digit for a digit, swapped vertices) and must refuse every one
        # that breaks it or adds a fault
        bulk = hio._parse_canonical
        taken = 0

        def counted(text):
            nonlocal taken
            g = bulk(text)
            taken += g is not None
            return g

        monkeypatch.setattr(hio, "_parse_canonical", counted)
        rng = random.Random(1616)
        texts = [hio.serialize(g) for g in (
            random_tournament(6, 1), random_digraph(12, 0.3, 2), circulant_tournament(11),
            directed_cycle(3), Digraph(4),
        )]
        texts += [hio.serialize(g, as_graph=True)
                  for g in (random_regular_graph(10, 3, 1), complete_graph(4))]
        faults = 0
        for _ in range(2400):
            text = _single_edit(rng, rng.choice(texts))
            got = _parse_outcome(hio.parse, text)
            assert got == _parse_outcome(oracles.parse, text), text
            faults += isinstance(got, str)
        assert faults > 1500 and taken > 200
        assert taken <= 2400 - faults

    @pytest.mark.parametrize(
        "text",
        [
            "DIGRAPH 1 4 3\r\n0 1\r\n2 3\r\n3 0\r\n",  # CRLF
            "DIGRAPH\t1\t4\t3\n0\t1\n2\t3\n3\t0\n",  # tabs
            "  DIGRAPH 1  4 3 \n 0  1\n2 3   \n3 0\n",  # extra spaces
            "\nDIGRAPH 1 4 3\n\n0 1\n \n2 3\n3 0\n\n",  # blank lines
            "DIGRAPH 1 04 003\n00 01\n2 0003\n3 0\n",  # leading zeros
            "DIGRAPH 1 4 3\n0 1\n2 3\n3 0",  # no final newline
            "GRAPH 1 4 2\r\n0 1\r\n2 3",
            "DIGRAPH 1 4 0",
            "DIGRAPH 1 4 0\n\n",
            "DIGRAPH 1 4 3\n3 0\n0 1\n2 3\n",  # arcs out of order
        ],
    )
    def test_non_canonical_layouts(self, text):
        got = _parse_outcome(hio.parse, text)
        assert not isinstance(got, str)
        assert got == _parse_outcome(oracles.parse, text)
