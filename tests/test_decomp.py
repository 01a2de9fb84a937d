"""Decompositions, edge colouring, and Hamilton cover pipelines."""

import pytest

import oracles
from hamdg.constructions import (
    circulant_tournament,
    complete_digraph,
    complete_graph,
    directed_cycle,
    random_regular_graph,
)
from hamdg.core import Digraph, Matching
from hamdg.decomp import (
    cover_regular_graph,
    cover_tournament,
    decompose_exact,
    greedy_extract,
    greedy_extract_undirected,
    split_matching,
    validate,
    vizing_color,
    walecki,
)
from hamdg.errors import BadParams


class TestWalecki:
    @pytest.mark.parametrize("n", range(3, 26, 2))
    def test_decomposes_complete_graph(self, n):
        dec = walecki(n)
        assert len(dec.cycles) == (n - 1) // 2
        assert validate(dec, complete_graph(n), directed=False).holds

    def test_even_rejected(self):
        with pytest.raises(BadParams):
            walecki(6)


class TestExactDecomposition:
    def test_complete_digraphs(self):
        assert decompose_exact(complete_digraph(3)) is not None
        assert decompose_exact(complete_digraph(4)) is None
        dec = decompose_exact(complete_digraph(5))
        assert len(dec.cycles) == 4
        assert validate(dec, complete_digraph(5)).holds

    def test_regular_tournaments(self):
        for n in (5, 7, 9):
            g = circulant_tournament(n)
            dec = decompose_exact(g)
            assert dec is not None and len(dec.cycles) == (n - 1) // 2
            assert validate(dec, g).holds

    def test_irregular_rejected_fast(self):
        # non-regular host can never decompose; rejected before any search
        g = directed_cycle(4).with_arcs([(0, 2)])
        with pytest.raises(BadParams):
            decompose_exact(g)


class TestGreedyExtract:
    def test_extracts_disjoint_cycles(self):
        g = circulant_tournament(11)
        cycles, rest = greedy_extract(g)
        assert cycles
        seen = set()
        for h in cycles:
            arcs = set(h.arcs())
            assert not arcs & seen
            seen |= arcs
        assert rest.m == g.m - len(seen)

    def test_seeded_order_changes_result(self):
        g = circulant_tournament(11)
        a, _ = greedy_extract(g, order_seed=1)
        b, _ = greedy_extract(g, order_seed=2)
        assert all(h.is_valid(g) for h in a + b)

    def test_undirected_removes_both_directions(self):
        g = complete_graph(7)
        cycles, rest = greedy_extract_undirected(g)
        assert cycles and rest.is_symmetric()


class TestVizing:
    def test_cycle_graph(self):
        g = Digraph(5, [(i, (i + 1) % 5) for i in range(5)]).symmetrize()
        col = vizing_color(g)
        assert oracles.coloring_is_proper(g, col)
        assert len(col.classes) == 3  # odd cycle needs Delta+1

    @pytest.mark.parametrize("n,d", [(10, 4), (12, 7), (12, 8)])
    def test_at_most_delta_plus_one(self, n, d):
        g = random_regular_graph(n, d, seed=9)
        col = vizing_color(g)
        assert oracles.coloring_is_proper(g, col)
        assert len(col.classes) <= d + 1

    def test_matching_classes(self):
        g = complete_graph(6)
        col = vizing_color(g)
        for cls in col.classes:
            used = [v for e in cls for v in e]
            assert len(used) == len(set(used))


class TestSplitMatching:
    def test_cap_respected(self):
        m = Matching(tuple((2 * i, 2 * i + 1) for i in range(7)))
        pieces = split_matching(m, 3)
        assert [len(p.arcs) for p in pieces] == [3, 3, 1]
        assert {a for p in pieces for a in p.arcs} == set(m.arcs)


class TestCoverTournament:
    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_validated_cover(self, n):
        g = circulant_tournament(n)
        rep = cover_tournament(g)
        v = validate(rep.cover, g)
        assert v.holds, v.witness
        assert len(rep.cover.cycles) == rep.extracted + rep.matchings

    def test_benchmarks_reported(self):
        rep = cover_tournament(circulant_tournament(9))
        assert rep.benchmark == {"half_plus_tenth": 6, "half_plus_quarter": 7}

    def test_rejects_non_regular(self):
        with pytest.raises(BadParams):
            cover_tournament(Digraph(3, [(0, 1), (0, 2), (1, 2)]))


class TestCoverRegularGraph:
    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_complete_graphs(self, n):
        g = complete_graph(n)
        rep = cover_regular_graph(g)
        assert validate(rep.cover, g, directed=False).holds

    def test_random_regular(self):
        g = random_regular_graph(12, 7, seed=0)
        rep = cover_regular_graph(g)
        assert validate(rep.cover, g, directed=False).holds

    def test_rejects_directed(self):
        with pytest.raises(BadParams):
            cover_regular_graph(circulant_tournament(5))


class TestValidate:
    def test_reports_uncovered_arc(self):
        g = circulant_tournament(5)
        rep = cover_tournament(g)
        partial = type(rep.cover)(rep.cover.cycles[:1])
        v = validate(partial, g)
        assert not v.holds and "uncovered" in str(v.witness) + str(v.reason)
