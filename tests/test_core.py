"""Core representation, degrees, connectivity, contraction, blow-up."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdg import core
from hamdg import io as hio
from hamdg.constructions import (
    circulant_tournament,
    complete_digraph,
    complete_graph,
    directed_cycle,
    random_digraph,
    random_regular_graph,
    random_tournament,
    transitive_tournament,
)
from hamdg.core import (
    CycleFactor,
    Digraph,
    HamiltonCycle,
    Matching,
    _reach,
    _reaches_all,
    bits,
    blow_up,
    classify,
    contract_matching,
    degree_sequences,
    dominated_pairs,
    independence_numbers,
    is_oriented,
    is_strongly_connected,
    is_tournament,
    popcount,
    semidegrees,
    vertex_connectivity,
)
from hamdg.errors import ArcMissing, BadParams, BudgetExceeded, NotAMatching
from hamdg.solvers import hamilton_cycle_through
from oracles import derive_in, vertex_connectivity_brute


def digraphs(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            Digraph,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda a: a[0] != a[1]
                ),
                max_size=n * (n - 1),
            ),
        )
    )


class TestDigraph:
    def test_arcs_sorted_and_deduped(self):
        g = Digraph(3, [(2, 1), (0, 1), (2, 1), (0, 2)])
        assert g.arcs() == [(0, 1), (0, 2), (2, 1)]
        assert g.m == 3

    def test_rejects_self_loop_and_range(self):
        with pytest.raises(BadParams):
            Digraph(3, [(1, 1)])
        with pytest.raises(BadParams):
            Digraph(3, [(0, 3)])

    def test_reverse_involution(self):
        g = random_digraph(7, 0.4, seed=5)
        assert g.reverse().reverse() == g

    def test_symmetrize(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        s = g.symmetrize()
        assert s.is_symmetric()
        assert s.arcs() == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_two_cycles(self):
        g = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 0)])
        t = g.two_cycles()
        assert t.is_symmetric() and t.arcs() == [(0, 1), (1, 0), (2, 3), (3, 2)]
        assert t.inn == Digraph(4, t.arcs()).inn
        assert circulant_tournament(7).two_cycles().m == 0

    def test_with_without_arcs(self):
        g = directed_cycle(4)
        g2 = g.with_arcs([(0, 2)]).without_arcs([(0, 1)])
        assert g2.has_arc(0, 2) and not g2.has_arc(0, 1)

    def test_undirected_edges(self):
        assert complete_graph(3).undirected_edges() == [(0, 1), (0, 2), (1, 2)]

    def test_hash_and_repr(self):
        # equal out-rows hash alike however the digraph was built
        g = circulant_tournament(5)
        assert {g, Digraph(5, reversed(g.arcs()))} == {g}
        assert hash(g) == hash(Digraph.from_out_masks(g.out))
        assert repr(g) == "Digraph(n=5, m=10)"


def _fresh_facts(g: Digraph) -> tuple:
    """The degree facts of ``g`` counted from its out-rows alone."""
    inn = derive_in(g.n, g.out)
    oriented = not any(o & i for o, i in zip(g.out, inn))
    return tuple(map(popcount, g.out)), tuple(map(popcount, inn)), oriented


def _cached_facts(g: Digraph) -> tuple:
    return g.out_degrees, g.in_degrees, g.oriented


class TestDerivedFacts:
    def _hosts(self):
        rng = random.Random(29)
        for i in range(40):
            n = rng.choice((2, 3, 5, 8, 12, 40))  # n = 40 transposes in numpy
            kind = i % 3
            if kind == 0:
                yield rng, random_digraph(n, rng.choice((0.2, 0.5, 0.8)), seed=i)
            elif kind == 1:
                yield rng, random_tournament(n, i)
            else:
                yield rng, directed_cycle(n).with_arcs([(0, n - 1)] if n > 2 else [])

    def _derived(self, rng, g):
        arcs = g.arcs()
        yield "parse", hio.parse(hio.serialize(g))
        new = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
        yield "with_arcs", g.with_arcs(rng.sample(new, min(3, len(new))))
        yield "without_arcs", g.without_arcs(rng.sample(arcs, len(arcs) // 2))
        yield "reverse", g.reverse()
        yield "symmetrize", g.symmetrize()
        yield "two_cycles", g.two_cycles()
        matched, matching = 0, []
        for u, v in rng.sample(arcs, len(arcs)):
            if not matched >> u & 1 and not matched >> v & 1:
                matched |= 1 << u | 1 << v
                matching.append((u, v))
        yield "contract_matching", contract_matching(g, Matching(tuple(matching)))[0]

    def test_no_derived_digraph_sees_a_stale_fact(self):
        # the host's facts are cached first, so a derived digraph that
        # copied one would differ from its own fresh count
        changed = set()
        for rng, g in self._hosts():
            assert _cached_facts(g) == _fresh_facts(g)
            for kind, d in self._derived(rng, g):
                assert _cached_facts(d) == _fresh_facts(d), kind
                if d.n == g.n and _cached_facts(d) != _cached_facts(g):
                    changed.add(kind)
                if d.oriented != g.oriented:
                    changed.add(kind + " oriented")
        assert changed >= {"with_arcs", "without_arcs", "reverse", "symmetrize",
                           "two_cycles", "with_arcs oriented", "symmetrize oriented"}

    def test_degree_queries_read_the_facts(self):
        g = random_digraph(9, 0.4, seed=3)
        fresh_out, fresh_in, oriented = _fresh_facts(g)
        assert g.m == sum(fresh_out)
        assert [g.out_deg(v) for v in range(9)] == list(fresh_out)
        assert [g.in_deg(v) for v in range(9)] == list(fresh_in)
        assert is_oriented(g) == oriented
        assert degree_sequences(g).in_seq == tuple(sorted(fresh_in))


class TestDegreesAndClass:
    def test_semidegrees_circulant(self):
        assert semidegrees(circulant_tournament(7)) == (3, 3, 3)

    def test_degree_sequences_transitive(self):
        seqs = degree_sequences(transitive_tournament(4))
        assert seqs.out_seq == (0, 1, 2, 3)
        assert seqs.in_seq == (0, 1, 2, 3)

    def test_classify(self):
        assert classify(complete_digraph(3)) == "undirected"
        assert classify(Digraph(3, [(0, 1), (1, 0), (1, 2)])) == "digraph"
        assert classify(directed_cycle(5)) == "oriented"
        assert classify(circulant_tournament(5)) == "tournament"

    def test_tournament_vs_oriented(self):
        assert is_tournament(circulant_tournament(9))
        assert is_oriented(directed_cycle(6)) and not is_tournament(directed_cycle(6))


class TestConnectivity:
    def test_strong_iff_no_sink_cut(self):
        assert is_strongly_connected(directed_cycle(5))
        assert not is_strongly_connected(transitive_tournament(4))

    def test_vertex_connectivity_complete(self):
        assert vertex_connectivity(complete_digraph(5)) == 4

    def test_vertex_connectivity_cycle(self):
        assert vertex_connectivity(directed_cycle(6)) == 1

    def test_flow_matches_brute_force(self):
        for seed in range(8):
            g = random_digraph(8, 0.45, seed=seed)
            assert vertex_connectivity(g) == vertex_connectivity_brute(g)

    def test_reaches_all_equals_reach(self):
        rng = random.Random(29)
        answers = set()
        for i in range(300):
            n = rng.randint(1, 14)
            g = random_digraph(n, rng.choice((0.05, 0.1, 0.2, 0.4, 0.7)), seed=i)
            if i % 2:
                g = g.symmetrize()
            for adj in (g.out, g.inn):
                start = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                within = rng.getrandbits(n) | rng.choice((0, (1 << n) - 1))
                want = _reach(adj, start, within) & within == within
                assert _reaches_all(adj, start, within) == want
                answers.add(want)
        assert answers == {True, False}

    @pytest.mark.parametrize(
        "start, within, want",
        [
            (0b0111, 0b0101, True),  # within lies inside start
            (0b1000, 0b0101, False),  # no arc leaves 3: no shortcut either
            (0b0001, 0, True),  # nothing to reach
            (0, 0, True),
            (0, 0b0001, False),  # nothing to search from
            (0b0001, 0b1111, True),
            (0b0001, 0b1011, False),  # 3 is reached only through 2
            (0b0001, 0b0111, True),
        ],
    )
    def test_reaches_all_edge_cases(self, start, within, want):
        adj = directed_cycle(4).without_arcs([(3, 0)]).out  # the path 0-1-2-3
        assert _reaches_all(adj, start, within) is want
        assert (_reach(adj, start, within) & within == within) is want

    def test_symmetric_kappa_matches_brute_force(self):
        rng = random.Random(29)
        values = set()
        for i in range(60):
            n = rng.randint(2, 10)
            g = random_digraph(n, rng.choice((0.2, 0.35, 0.5, 0.7)), seed=i).symmetrize()
            want = vertex_connectivity_brute(g)
            assert vertex_connectivity(g) == want
            values.add(want)
        assert len(values) >= 4


class TestIndependence:
    def test_alpha_complete(self):
        assert independence_numbers(complete_digraph(6)) == (1, 1)

    def test_alpha2_tournament_is_n(self):
        # no 2-cycles at all, so any vertex set is 2-cycle-free
        assert independence_numbers(circulant_tournament(7))[1] == 7

    def test_max_arcfree_is_arcfree(self):
        # alpha_0 is the largest vertex set spanning no arc, over every subset
        for seed in range(4):
            g = random_digraph(9, 0.3, seed=seed)
            adj = [g.out[v] | g.inn[v] for v in range(g.n)]
            want = max(
                s.bit_count()
                for s in range(1 << g.n)
                if not any(adj[v] & s for v in bits(s))
            )
            assert independence_numbers(g)[0] == want

    def test_symmetric_searches_once(self, monkeypatch):
        # every arc is in a 2-cycle, so alpha_0 = alpha_2 from one search
        calls = []

        def counted(n, adj, b):
            calls.append(n)
            return search(n, adj, b)

        search = core._max_independent_set
        monkeypatch.setattr(core, "_max_independent_set", counted)
        for seed in range(3):
            g = random_regular_graph(12, 4, seed)
            want = max(
                s.bit_count()
                for s in range(1 << g.n)
                if not any(g.out[v] & s for v in bits(s))
            )
            calls.clear()
            assert independence_numbers(g) == (want, want) and calls == [12]

    def test_one_budget_bounds_both_searches(self, monkeypatch):
        # the nodes of both searches, counted; that many pass, one fewer
        # refuses, so alpha_0 draws on what alpha_2 left
        g = random_digraph(20, 0.2, seed=3)
        ticks = []
        tick = core._Budget.tick

        def counted(b):
            ticks.append(b)
            tick(b)

        monkeypatch.setattr(core._Budget, "tick", counted)
        want = independence_numbers(g)
        assert len(set(ticks)) == 1 and not g.is_symmetric()
        monkeypatch.setattr(core._Budget, "tick", tick)
        monkeypatch.setattr(core, "DEFAULT_BUDGET", len(ticks))
        assert independence_numbers(g) == want
        monkeypatch.setattr(core, "DEFAULT_BUDGET", len(ticks) - 1)
        with pytest.raises(BudgetExceeded, match="budget"):
            independence_numbers(g)


class TestDominatedPairs:
    def test_transitive(self):
        # in a transitive tournament every pair below the top is dominated
        pairs = dominated_pairs(transitive_tournament(4))
        assert (2, 3) in pairs and (0, 1) not in pairs


class TestMatchingAndCycles:
    def test_matching_rejects_shared_vertex(self):
        with pytest.raises(NotAMatching):
            Matching(((0, 1), (1, 2)))

    def test_matching_length_counts_arcs(self):
        assert len(Matching(((0, 1), (3, 2)))) == 2 and len(Matching(())) == 0

    def test_hamilton_cycle_validity(self):
        h = HamiltonCycle((0, 1, 2, 3))
        assert h.is_valid(directed_cycle(4))
        assert not h.is_valid(directed_cycle(4).without_arcs([(1, 2)]))

    def test_canonical_rotation(self):
        assert HamiltonCycle((2, 0, 1)).canonical().order == (0, 1, 2)

    def test_cycle_factor(self):
        g = Digraph(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
        assert CycleFactor(((0, 1), (2, 3, 4))).is_valid(g)
        assert not CycleFactor(((0, 1),)).is_valid(g)  # not spanning
        assert not CycleFactor(((2,), (0, 1), (3, 4))).is_valid(g)  # a 1-vertex cycle
        assert not CycleFactor(((0, 1), (1, 0), (2, 3, 4))).is_valid(g)  # vertex twice
        assert not CycleFactor(((0, 1), (2, 4, 3))).is_valid(g)  # no arc 2 -> 4


class TestContraction:
    def test_missing_arc_rejected(self):
        with pytest.raises(ArcMissing):
            contract_matching(directed_cycle(4), Matching(((0, 2),)))

    @pytest.mark.parametrize("arc", [(5, 6), (7, 1), (1, 7), (-1, 0), (1, -1)])
    def test_endpoint_outside_the_host_is_arc_missing(self, arc):
        # (5, 6) and (7, 1) raised IndexError; (-1, 0), an arc 2 -> 0 as row
        # -1 read it, and (1, -1) raised ValueError (a negative shift count)
        g = directed_cycle(3)
        for call in (contract_matching, hamilton_cycle_through):
            with pytest.raises(ArcMissing, match=rf"^\({arc[0]},{arc[1]}\) not in host$"):
                call(g, Matching((arc,)))

    def test_contract_and_lift(self):
        g = complete_digraph(6)
        m = Matching(((0, 1), (2, 3)))
        c, lift = contract_matching(g, m)
        assert c.n == 4
        h = HamiltonCycle(tuple(range(4)))
        assert h.is_valid(c)
        lifted = lift(h)
        assert lifted.is_valid(g)
        arcs = set(lifted.arcs())
        assert {(0, 1), (2, 3)} <= arcs

    @given(digraphs(7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_contraction_preserves_arc_count_bound(self, g, data):
        arcs = [a for a in g.arcs()]
        if not arcs:
            return
        u, v = data.draw(st.sampled_from(arcs))
        c, _ = contract_matching(g, Matching(((u, v),)))
        assert c.n == g.n - 1


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: vertex_connectivity(Digraph(1)), "n >= 2"),
        (lambda: blow_up(directed_cycle(3), [1, 1]), "one per vertex"),
        (lambda: blow_up(directed_cycle(3), [1, 0, 1]), "positive"),
    ],
)
def test_bad_parameters_refused(call, match):
    with pytest.raises(BadParams, match=match):
        call()


class TestBlowUp:
    def test_complete_rule(self):
        g, parts = blow_up(directed_cycle(3), [2, 2, 2])
        assert g.n == 6
        assert len(parts) == 3
        for i in parts[0]:
            for j in parts[1]:
                assert g.has_arc(i, j)

    def test_parts_are_independent(self):
        g, parts = blow_up(complete_digraph(3), [3, 1, 2])
        for part in parts:
            for u in part:
                for v in part:
                    assert u == v or not g.has_arc(u, v)
