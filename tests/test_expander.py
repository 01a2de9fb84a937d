"""Robust outexpansion, shifted walks, assembly."""

import hashlib

import pytest
from fractions import Fraction

import numpy as np

from hamdg.constructions import (
    circulant_tournament,
    complete_digraph,
    directed_cycle,
    random_digraph,
)
from hamdg.core import CycleFactor, Digraph
from hamdg.errors import (
    BudgetExceeded,
    DemandOverload,
    Disconnected,
    MatchingFailure,
)
from hamdg.expander import (
    OneFactorF,
    ReducedDigraph,
    assemble_hamilton,
    build_closed_walk,
    is_robust_outexpander,
    make_cluster_blowup,
    robust_out_nbhd,
    robust_threshold,
    shifted_walk,
)


class TestRobustNbhd:
    def test_threshold_is_ceiling(self):
        assert robust_threshold(10, Fraction(1, 4)) == 3
        assert robust_threshold(8, Fraction(1, 4)) == 2

    def test_complete_digraph_saturates(self):
        g = complete_digraph(8)
        s = {0, 1, 2}
        assert robust_out_nbhd(g, s, Fraction(1, 8)) == set(range(8))

    def test_empty_set(self):
        assert robust_out_nbhd(complete_digraph(5), set(), Fraction(1, 5)) == set()

    def test_matches_direct_recount(self):
        g = circulant_tournament(11)
        s = {0, 1, 2, 3, 4}
        t = robust_threshold(11, Fraction(1, 5))
        want = {
            x
            for x in range(11)
            if sum(1 for y in s if g.has_arc(y, x)) >= t
        }
        assert robust_out_nbhd(g, s, Fraction(1, 5)) == want

    def test_monotone_in_nu(self):
        rng = np.random.Generator(np.random.Philox(1))
        for _ in range(50):
            n = int(rng.integers(4, 12))
            g = random_digraph(n, 0.5, seed=int(rng.integers(1 << 30)))
            s = {int(v) for v in rng.choice(n, size=int(rng.integers(1, n)), replace=False)}
            small = robust_out_nbhd(g, s, Fraction(1, 10))
            big = robust_out_nbhd(g, s, Fraction(1, 3))
            assert big <= small
            nplus = {x for y in s for x in range(n) if g.has_arc(y, x)}
            assert small <= nplus


class TestRobustExpander:
    def test_complete_holds(self):
        v = is_robust_outexpander(complete_digraph(10), "1/20", "1/5")
        assert v.holds

    def test_disjoint_union_fails_with_component_witness(self):
        g1 = circulant_tournament(7)
        arcs = list(g1.arcs()) + [(u + 7, v + 7) for u, v in g1.arcs()]
        g = Digraph(14, arcs)
        v = is_robust_outexpander(g, "1/20", "1/5")
        assert not v.holds
        assert set(v.witness["S"]) <= set(range(7)) or set(v.witness["S"]) <= set(
            range(7, 14)
        )

    def test_exact_cap(self):
        with pytest.raises(BudgetExceeded):
            is_robust_outexpander(complete_digraph(21), "1/20", "1/5")

    def test_sampled_finds_gross_violation(self):
        g = directed_cycle(12)
        v = is_robust_outexpander(g, "1/4", "1/6", mode="sampled", trials=200, seed=0)
        assert not v.holds


def _pentagon():
    r = circulant_tournament(5, (1, 2))
    return ReducedDigraph(r, 5), OneFactorF(CycleFactor(((0, 1, 2, 3, 4),)), r)


def _two_cycle_setup(m=6):
    r = circulant_tournament(7, (1, 2, 3))
    red = ReducedDigraph(r, m)
    f = OneFactorF(CycleFactor(((0, 3, 6), (1, 2, 4, 5))), r)
    return red, f


class TestShiftedWalk:
    def test_identity(self):
        red, f = _pentagon()
        w = shifted_walk(red, f, 2, 2)
        assert w.t == 0 and w.clusters == (2,)

    def test_triangle_example(self):
        r = complete_digraph(3)
        red = ReducedDigraph(r, 4)
        f = OneFactorF(CycleFactor(((0, 1, 2),)), r)
        w = shifted_walk(red, f, 0, 1)
        assert w.t == 1 and w.clusters == (0, 1)
        assert w.entries() == (1,) and w.exits(f) == (2,)
        assert w.is_valid(red, f)

    def test_cross_cycle_walk(self):
        red, f = _two_cycle_setup()
        w = shifted_walk(red, f, 0, 4)
        assert w is not None and w.is_valid(red, f)
        assert w.clusters[0] == 0 and w.clusters[-1] == 4

    def test_absence_reported_as_none(self):
        r = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)])
        red = ReducedDigraph(r, 4)
        f = OneFactorF(CycleFactor(((0, 1), (2, 3))), r)
        assert shifted_walk(red, f, 2, 0) is None


class TestClosedWalk:
    def test_single_cycle_no_demands(self):
        red, f = _pentagon()
        w = build_closed_walk(red, f, [])
        assert [c for _, c in w.sequence] == [0, 1, 2, 3, 4]
        assert not w.links

    def test_balanced_visits(self):
        red, f = _two_cycle_setup()
        w = build_closed_walk(red, f, [(0, 4), (3, 1)], cap=3)
        counts = w.visit_counts()
        for cyc in f.factor.cycles:
            per_cycle = {counts[c] for c in cyc}
            assert len(per_cycle) == 1

    def test_visits_everything(self):
        red, f = _two_cycle_setup()
        w = build_closed_walk(red, f, [(0, 4)], cap=4)
        assert {c for kind, c in w.sequence if kind == "cluster"} == set(range(7))
        assert ("exc", 0) in w.sequence

    def test_demand_overload(self):
        red, f = _pentagon()
        with pytest.raises(DemandOverload):
            build_closed_walk(red, f, [(0, 1)], cap=0)

    def test_disconnected(self):
        r = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        red = ReducedDigraph(r, 10)
        f = OneFactorF(CycleFactor(((0, 1), (2, 3))), r)
        with pytest.raises(Disconnected):
            build_closed_walk(red, f, [], cap=5)

    def test_tally_fields(self):
        red, f = _two_cycle_setup()
        w = build_closed_walk(red, f, [(0, 4), (3, 1)], cap=3)
        jumps = [l for l in w.links if l[0] == "jump"]
        for _, src, dst in jumps:
            assert w.exit_counts[src] >= 1 and w.entry_counts[dst] >= 1


class TestAssembly:
    def test_triangle_no_exceptional(self):
        r = complete_digraph(3)
        red = ReducedDigraph(r, 5)
        f = OneFactorF(CycleFactor(((0, 1, 2),)), r)
        blowup, demands = make_cluster_blowup(red)
        w = build_closed_walk(red, f, demands, cap=5)
        trace = assemble_hamilton(blowup, red, f, w)
        assert trace.cycle.is_valid(blowup.host)
        assert len(trace.cycle.order) == 15

    def test_exceptional_vertices_on_cycle(self):
        r = complete_digraph(3)
        red = ReducedDigraph(r, 5)
        f = OneFactorF(CycleFactor(((0, 1, 2),)), r)
        blowup, demands = make_cluster_blowup(red, exceptional=2, seed=4)
        w = build_closed_walk(red, f, demands, cap=5)
        trace = assemble_hamilton(blowup, red, f, w)
        assert trace.cycle.is_valid(blowup.host)
        assert len(trace.cycle.order) == 17
        # the exceptional vertices are non-adjacent on the cycle
        order = trace.cycle.order
        pos = {v: i for i, v in enumerate(order)}
        a, b = blowup.exceptional
        assert abs(pos[a] - pos[b]) not in (1, len(order) - 1)

    def test_empty_pair_matching_failure(self):
        r = directed_cycle(3)
        red = ReducedDigraph(r, 4)
        f = OneFactorF(CycleFactor(((0, 1, 2),)), r)
        blowup, demands = make_cluster_blowup(red)
        # remove the whole bipartite pair between clusters 0 and 1
        host = blowup.host.without_arcs(
            [(u, v) for u in blowup.clusters[0] for v in blowup.clusters[1]]
        )
        broken = type(blowup)(host, blowup.clusters, blowup.exceptional)
        w = build_closed_walk(red, f, demands, cap=4)
        with pytest.raises(MatchingFailure):
            assemble_hamilton(broken, red, f, w)

    def test_trace_exposes_merges(self):
        red, f = _two_cycle_setup(m=5)
        blowup, demands = make_cluster_blowup(red, exceptional=1, seed=2)
        w = build_closed_walk(red, f, demands, cap=5)
        trace = assemble_hamilton(blowup, red, f, w)
        assert trace.cycle.is_valid(blowup.host)
        assert len(trace.initial_factor.cycles) >= 1
        for cluster, matching in trace.merges:
            assert 0 <= cluster < 7
            for x, b in matching:
                assert blowup.host.has_arc(x, b)

    @pytest.mark.parametrize(
        "m,density,seed,exceptional",
        [
            (8, 0.6, 5, 2),
            (10, 0.8, 1, 2),
            (8, 1.0, 0, 2),
            # the exact fallback closes a merge digraph of 125 vertices
            (128, 0.8, 1, 4),
        ],
        ids=["8-0.6-5", "10-0.8-1", "8-1.0-0", "128-0.8-1-exceptional4"],
    )
    def test_merge_methods_record_the_closer(
        self, monkeypatch, m, density, seed, exceptional
    ):
        import hamdg.expander as ex

        heuristic = []
        original = ex.rotation_extension

        def spy(g, *args, **kwargs):
            h = original(g, *args, **kwargs)
            heuristic.append(h is not None)
            return h

        monkeypatch.setattr(ex, "rotation_extension", spy)
        r = complete_digraph(3)
        red = ReducedDigraph(r, m)
        f = OneFactorF(CycleFactor(((0, 1, 2),)), r)
        blowup, demands = make_cluster_blowup(
            red, exceptional=exceptional, pair_density=density, seed=seed
        )
        w = build_closed_walk(red, f, demands, cap=m)
        trace = assemble_hamilton(blowup, red, f, w)
        assert trace.cycle.is_valid(blowup.host)
        assert len(trace.merge_methods) == len(trace.merges) == len(heuristic)
        assert trace.merge_methods == tuple(
            "rotation" if hit else "exact" for hit in heuristic
        )
        if density < 1:
            assert "exact" in trace.merge_methods
        else:
            assert set(trace.merge_methods) == {"rotation"}

    def test_triangle_m1024_cycle_pinned(self):
        # 3,076 host vertices; the cycle order is pinned by sha256
        r = complete_digraph(3)
        red = ReducedDigraph(r, 1024)
        f = OneFactorF(CycleFactor(((0, 1, 2),)), r)
        blowup, demands = make_cluster_blowup(red, exceptional=4, seed=0)
        w = build_closed_walk(red, f, demands, cap=1024)
        trace = assemble_hamilton(blowup, red, f, w)
        assert trace.cycle.is_valid(blowup.host)
        assert trace.merge_methods == ("rotation",) * 3
        order = " ".join(map(str, trace.cycle.order)).encode()
        assert hashlib.sha256(order).hexdigest() == (
            "63aa3be0c6ceb98bb934c5c0170a124fdaf187b971ed1fc4236d34143cc43187"
        )
