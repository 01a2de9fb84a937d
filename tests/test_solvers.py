"""Exact solvers, counters, and pattern searches."""

import sys
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdg import solvers
from hamdg.constructions import (
    circulant_tournament,
    complete_digraph,
    directed_cycle,
    fig1,
    fig2,
    generate_extremal,
    random_digraph,
    random_tournament,
    transitive_tournament,
)
from hamdg.core import Digraph, Matching
from hamdg.errors import BadParams, BudgetExceeded
from hamdg.solvers import (
    OrientationPattern,
    _bipartite_matching,
    count_hamilton,
    disjoint_cycle_factor,
    embed_tree,
    enumerate_hamilton_cycles,
    find_cycle_of_length,
    find_hamilton_cycle,
    hamilton_cycle_through,
    is_pancyclic,
    k_ordered_hamilton,
    kth_power_hamilton,
    one_factor,
    oriented_hamilton,
    oriented_hamilton_path,
    rotation_extension,
    validate_kth_power,
    validate_oriented,
)

from oracles import count_hamilton_naive
from test_core import digraphs


class TestFindHamilton:
    def test_finds_and_validates(self):
        g = circulant_tournament(9)
        h = find_hamilton_cycle(g)
        assert h is not None and h.is_valid(g)

    def test_none_on_acyclic(self):
        assert find_hamilton_cycle(transitive_tournament(6)) is None

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            find_hamilton_cycle(complete_digraph(12), budget=5)
        # a negative budget is a bad value, not a search that ran out
        with pytest.raises(BadParams, match="budget"):
            find_hamilton_cycle(complete_digraph(12), budget=-1)

    def test_extremal_decided_within_small_budget(self):
        # the residual 1-factor prune settles nw_extremal(22, 2) in 45 nodes
        g, _ = generate_extremal("nw_extremal", 22, 2)
        assert find_hamilton_cycle(g, budget=10**3) is None

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_fig1_refuted_by_cut_scan(self, s):
        # no forced arc and no prune ends these searches; the cut scan after
        # n^2 nodes finds the two connector vertices
        g, _ = fig1(s)
        assert find_hamilton_cycle(g, budget=g.n * g.n + 1) is None

    @pytest.mark.parametrize("n", range(5, 13))
    def test_fig2_refuted_by_forced_arcs(self, n):
        # y -> z, then z -> x and x -> y are forced: a 3-cycle, before any node
        g, _ = fig2(n)
        assert find_hamilton_cycle(g, budget=1) is None

    def test_no_size_cap(self):
        # past 64 vertices, where the recursive search used to stop
        g = random_tournament(100, 3)
        h = find_hamilton_cycle(g, budget=10**4)
        assert h is not None and h.is_valid(g)

    @given(digraphs(7))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_naive_existence(self, g):
        _, cycles = count_hamilton_naive(g)
        assert (find_hamilton_cycle(g) is not None) == (cycles > 0)


class TestEnumerate:
    def test_count_matches_dp(self):
        for seed in range(6):
            g = random_digraph(6, 0.6, seed=seed)
            found = list(enumerate_hamilton_cycles(g))
            assert len(found) == count_hamilton(g).hamilton_cycles
            assert len({h.canonical().order for h in found}) == len(found)

    def test_all_valid(self):
        g = circulant_tournament(7)
        for h in enumerate_hamilton_cycles(g):
            assert h.is_valid(g)


class TestThrough:
    def test_contains_matching(self):
        g = complete_digraph(7)
        m = Matching(((0, 3), (1, 4)))
        h = hamilton_cycle_through(g, m)
        assert h is not None and set(m.arcs) <= set(h.arcs())

    def test_empty_matching_is_plain_search(self):
        g = circulant_tournament(5)
        assert hamilton_cycle_through(g, Matching(())) is not None

    def test_impossible_matching(self):
        # forcing 0->1 in the 4-cycle 0->1->2->3 plus chord 1->0 breaks nothing,
        # but forcing the chord leaves no way back
        g = directed_cycle(4).with_arcs([(1, 0)])
        assert hamilton_cycle_through(g, Matching(((1, 0),))) is None


class TestCounting:
    @given(digraphs(6))
    @settings(max_examples=60, deadline=None)
    def test_dp_matches_naive(self, g):
        rep = count_hamilton(g)
        paths, cycles = count_hamilton_naive(g)
        assert (rep.hamilton_paths, rep.hamilton_cycles) == (paths, cycles)

    def test_tournament_reference_values(self):
        rep = count_hamilton(circulant_tournament(5))
        assert str(rep.random_mean_paths) == "15/2"
        assert str(rep.random_mean_cycles) == "3/4"

    def test_cap(self):
        with pytest.raises(BudgetExceeded, match="cap"):
            count_hamilton(complete_digraph(25))

    def test_largest_exact_order(self):
        # 21! > 2**63: the path total only fits once summed in Python ints
        rep = count_hamilton(complete_digraph(21))
        assert (rep.hamilton_paths, rep.hamilton_cycles) == (factorial(21), factorial(20))

    def test_cap_refuses_22_at_once(self, monkeypatch):
        def never(*args):
            raise AssertionError("DP started above the cap")

        monkeypatch.setattr(solvers, "_end_counts", never)
        with pytest.raises(BudgetExceeded, match="cap=21"):
            count_hamilton(complete_digraph(22))


class TestCyclesAndPancyclicity:
    def test_find_cycle_of_length(self):
        g = circulant_tournament(7)
        for length in range(3, 8):
            cyc = find_cycle_of_length(g, length)
            assert cyc is not None and len(cyc) == length

    def test_moon_on_strong_tournament(self):
        # every strong tournament is pancyclic
        for seed in range(20):
            g = random_tournament(7, seed=seed)
            if find_hamilton_cycle(g) is not None:
                assert is_pancyclic(g).holds

    def test_min_length_depends_on_class(self):
        rep = is_pancyclic(complete_digraph(4))
        assert rep.min_length == 2 and rep.holds

    def test_missing_length_reported(self):
        rep = is_pancyclic(directed_cycle(5))
        assert not rep.holds and rep.missing == 3


class TestPowersAndOrder:
    def test_square_in_complete(self):
        g = complete_digraph(6)
        h = kth_power_hamilton(g, 2)
        assert h is not None and validate_kth_power(g, h, 2)

    def test_square_missing(self):
        assert kth_power_hamilton(directed_cycle(5), 2) is None

    def test_k_ordered(self):
        g = complete_digraph(7)
        h = k_ordered_hamilton(g, [3, 0, 5])
        order = list(h.order)
        i3, i0, i5 = order.index(3), order.index(0), order.index(5)
        n = len(order)
        # 0 then 5 appear in cyclic order after 3
        assert (i0 - i3) % n < (i5 - i3) % n

    @pytest.mark.parametrize("sequence", [[0, 7], [7, 0], [-1, 2]])
    def test_k_ordered_rejects_foreign_vertices(self, sequence):
        with pytest.raises(BadParams):
            k_ordered_hamilton(directed_cycle(5), sequence)


class TestOrientedPatterns:
    def test_pattern_constructors(self):
        assert OrientationPattern.forward(4).signs == (1, 1, 1, 1)
        assert OrientationPattern.antidirected(4).signs == (1, -1, 1, -1)
        with pytest.raises(BadParams):
            OrientationPattern.antidirected(5)

    def test_antidirected_cycle_in_complete(self):
        g = complete_digraph(6)
        pat = OrientationPattern.antidirected(6)
        order = oriented_hamilton(g, pat)
        assert order is not None and validate_oriented(g, order, pat, True)

    def test_all_path_orientations_in_big_tournament(self):
        g = random_tournament(8, seed=11)
        for bitsv in range(1 << 7):
            pat = OrientationPattern.from_bits(bitsv, 7)
            order = oriented_hamilton_path(g, pat)
            assert order is not None
            assert validate_oriented(g, order, pat, False)

    def test_forward_equals_hamilton(self):
        g = circulant_tournament(7)
        order = oriented_hamilton(g, OrientationPattern.forward(7))
        assert order is not None


class TestFactors:
    def test_one_factor_on_regular(self):
        f = one_factor(circulant_tournament(9))
        assert f is not None and f.is_valid(circulant_tournament(9))

    def test_disjoint_cycle_factor_lengths(self):
        g = circulant_tournament(9)
        f = disjoint_cycle_factor(g, [3, 3, 3])
        assert f is not None
        assert sorted(len(c) for c in f.cycles) == [3, 3, 3]

    def test_length_validation(self):
        with pytest.raises(BadParams):
            disjoint_cycle_factor(circulant_tournament(5), [2, 3])
        with pytest.raises(BadParams):
            disjoint_cycle_factor(circulant_tournament(5), [3, 3])


class TestEmbedTree:
    def test_path_into_tournament(self):
        # directed path on 4 vertices embeds into any 6-tournament
        tree = Digraph(4, [(0, 1), (1, 2), (2, 3)])
        for seed in range(10):
            host = random_tournament(6, seed=seed)
            phi = embed_tree(host, tree)
            assert phi is not None
            assert all(host.has_arc(phi[u], phi[v]) for u, v in tree.arcs())
            assert len(set(phi.values())) == 4

    def test_star_needs_high_outdegree(self):
        star = Digraph(4, [(0, 1), (0, 2), (0, 3)])
        assert embed_tree(directed_cycle(6), star) is None

    def test_rejects_non_tree(self):
        with pytest.raises(BadParams):
            embed_tree(complete_digraph(5), directed_cycle(3))


class TestBipartiteMatching:
    def test_deeper_than_recursion_limit(self):
        # on a complete bipartite graph the augmenting path of left vertex l
        # runs through all l earlier ones
        n = sys.getrecursionlimit() + 10
        full = (1 << n) - 1
        match = _bipartite_matching(n, [full] * n)
        assert sorted(match) == list(range(n))


class TestRotationExtension:
    def test_dense_digraph(self):
        for seed in range(5):
            g = random_digraph(20, 0.7, seed=seed)
            h = rotation_extension(g)
            if h is not None:
                assert h.is_valid(g)

    def test_finds_on_complete(self):
        h = rotation_extension(complete_digraph(15))
        assert h is not None and h.is_valid(complete_digraph(15))
