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
    BadParams,
    BudgetExceeded,
    DemandOverload,
    Disconnected,
    MatchingFailure,
)
from hamdg.expander import (
    ClosedWalk,
    OneFactorF,
    ReducedDigraph,
    ShiftedWalk,
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

    def test_sampled_holds_on_a_robust_expander(self):
        # one-sided: a holding sampled verdict says only what it sampled
        g = circulant_tournament(13)
        v = is_robust_outexpander(g, Fraction(1, 20), Fraction(1, 5), mode="sampled", trials=50)
        assert v.holds and v.witness is None and v.reason == "no violation in 50 samples"

    def test_sampled_without_qualifying_sizes(self):
        # tau = 1/2 leaves no size strictly between n/2 and n/2, so nothing
        # is drawn, as in exact mode, which finds nothing to violate
        g = directed_cycle(7)
        v = is_robust_outexpander(g, "1/4", "1/2", mode="sampled", trials=5)
        assert v.holds and v.witness is None and v.reason == "no qualifying sizes"
        assert is_robust_outexpander(g, "1/4", "1/2").holds


    @pytest.mark.parametrize("tau, holds", [("2/9", True), ("1/9", False)])
    def test_sampled_threshold_is_the_exact_one(self, tau, holds):
        # on K*9 with nu = 1/4 (nu*n = 9/4, not an integer) a set of 3 or 6
        # vertices clears the bound by 3/4, and one of 2 or 7 misses it
        g, nu = complete_digraph(9), Fraction(1, 4)
        v = is_robust_outexpander(g, nu, tau, mode="sampled", trials=400)
        assert v.holds == is_robust_outexpander(g, nu, tau).holds == holds
        if not holds:
            S, rn = v.witness["S"], v.witness["rn_size"]
            assert rn == len(robust_out_nbhd(g, set(S), nu))
            assert Fraction(rn - len(S)) < nu * 9
            assert v.witness["needed"] == str(len(S) + nu * 9)


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
        assert not ShiftedWalk(w.clusters, 2).is_valid(red, f)  # t off the walk

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


class TestBlowupParams:
    RED = ReducedDigraph(complete_digraph(3), 4)

    def test_negative_exceptional_refused(self):
        # an IndexError before the check
        with pytest.raises(BadParams, match="exceptional >= 0"):
            make_cluster_blowup(self.RED, exceptional=-1)

    @pytest.mark.parametrize("density", [2.0, -0.5, float("nan")])
    def test_density_outside_unit_interval_refused(self, density):
        # 2.0 and -0.5 gave complete pairs before the check
        with pytest.raises(BadParams, match="pair_density"):
            make_cluster_blowup(self.RED, pair_density=density)

    @pytest.mark.parametrize("density", [0, 1])
    def test_density_bounds_accepted(self, density):
        blowup, _ = make_cluster_blowup(self.RED, pair_density=density)
        # at density 0 every row falls below the degree floor
        assert blowup.host.out == make_cluster_blowup(self.RED)[0].host.out


class TestBlowupPins:
    """Blow-up hosts pinned by sha256 of ``repr((host.out, host.inn))`` over
    exceptional in (0, 4) and seed in (0, 7), in that order."""

    BASES = {
        "triangle": complete_digraph(3),
        "pentagon": circulant_tournament(5, (1, 2)),
    }

    @staticmethod
    def hosts(base, m, density):
        red = ReducedDigraph(TestBlowupPins.BASES[base], m)
        for exceptional in (0, 4):
            for seed in (0, 7):
                blowup, _ = make_cluster_blowup(
                    red, exceptional=exceptional, pair_density=density, seed=seed
                )
                yield blowup.host

    @pytest.mark.parametrize(
        "base, m, density, digest",
        [
        ("triangle", 8, 1.0, "3588dfdfc9f539576c08f65ea8680e930ec346b372e447dc324edf029cc4e78e"),
        ("triangle", 8, 0.8, "5683690f162470b0d73220b49d50bbcd10a468f82cc209168248f9fb8d800c63"),
        ("triangle", 8, 0.5, "1f63b4ae800909df5197037de8e401451f9a48794c06fc74e5b697a32b812321"),
        ("triangle", 40, 1.0, "19c862bcd8796db4870ea0bb55246cad2b64d3e3e8dfe79b4501f984c463f1ba"),
        ("triangle", 40, 0.8, "14b9645c7f4ad8f350c74cf22471902043d7cb13818085dd5193693326f63e3e"),
        ("triangle", 40, 0.5, "42fae8979a89e665d567681c474a5d5ded6440d752d6461262f292e4dc9625d3"),
        ("triangle", 128, 1.0, "9d15f37f46f42afebd1e9a67f262f452f344f8df48aee4367c315b5c8c3e3849"),
        ("triangle", 128, 0.8, "18c391b63597f9b341089bd80dea2da4d95e4e8e300ff8ddc1535a0939ecf346"),
        ("triangle", 128, 0.5, "ad7511a0cb41711253b81616ef5b5dcb8a08a9d3843034eeffd9765628eb7638"),
        ("pentagon", 8, 1.0, "dab7c402ef2f60cf53a5b9167364892e6cc2c18ae3e4cc76ef1568da2ccd6ed8"),
        ("pentagon", 8, 0.8, "c90a9621598ce9b0689bee171b2e9fa0d25081c7927f669d666d5ed0f0f54244"),
        ("pentagon", 8, 0.5, "6a0b8d8daf03c61037bf09a76b094078a92a4b0e953bbeea6c0c7c99aca60d3f"),
        ("pentagon", 40, 1.0, "8967332ed48c28be9651da6daf264a40e432ab89792e6120d53f16520fc5bbb7"),
        ("pentagon", 40, 0.8, "de4b80681e4681c5e768ac7e8fca4fec444f2cb8b39e649a613524904dc1803c"),
        ("pentagon", 40, 0.5, "718eb623a526eb56d43333ccc73cf1affdb2fafe146801f571d3ff1eb2765960"),
        ("pentagon", 128, 1.0, "ded10b433d5f24b0ecc95964fa0dbba96e96e2803af422b91d20400f3e580148"),
        ("pentagon", 128, 0.8, "470d23a1ed99c4d58923860aa5b888e3813ece30d400338b47a7040b4e068836"),
        ("pentagon", 128, 0.5, "d6ac46814197c1b630360abf97709bdb3319b91de32627eed43dfb33f5e2a699"),
        ],
    )
    def test_hosts_pinned(self, base, m, density, digest):
        h = hashlib.sha256()
        for host in self.hosts(base, m, density):
            h.update(repr((host.out, host.inn)).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("base", ["triangle", "pentagon"])
    def test_density_one_ignores_the_seed(self, base):
        # every pair is complete, so no seed can change the host
        hosts = list(self.hosts(base, 40, 1.0))
        assert hosts[0].out == hosts[1].out and hosts[2].out == hosts[3].out
        assert hosts[0].inn == hosts[1].inn and hosts[2].inn == hosts[3].inn


def _bogus_link():
    red, f = _pentagon()
    blowup, demands = make_cluster_blowup(red)
    walk = build_closed_walk(red, f, demands)
    assemble_hamilton(blowup, red, f, ClosedWalk(walk.sequence, (("bogus", 0, 1),)))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: is_robust_outexpander(directed_cycle(5), "1/4", "1/5", mode="fast"),
         "unknown mode"),
        (lambda: ReducedDigraph(complete_digraph(3), 0), "cluster size"),
        (lambda: OneFactorF(CycleFactor(((0, 2, 1),)), directed_cycle(3)), "1-factor"),
        (lambda: build_closed_walk(*_pentagon(), [(0, 5)]), "out of range"),
        (_bogus_link, "unknown link kind"),
    ],
)
def test_bad_parameters_refused(call, match):
    with pytest.raises(BadParams, match=match):
        call()


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

    def test_clusters_of_one_vertex_need_no_merge(self):
        # at m = 1 each cluster's matching is one arc: nothing to merge
        r = complete_digraph(3)
        red = ReducedDigraph(r, 1)
        f = OneFactorF(CycleFactor(((0, 1, 2),)), r)
        blowup, demands = make_cluster_blowup(red)
        trace = assemble_hamilton(blowup, red, f, build_closed_walk(red, f, demands))
        assert trace.cycle.order == (0, 1, 2) and trace.merges == ()

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

    @staticmethod
    def m1024_digest():
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
        return hashlib.sha256(order).hexdigest()

    def test_triangle_m1024_cycle_pinned(self):
        assert self.m1024_digest() == (
            "63aa3be0c6ceb98bb934c5c0170a124fdaf187b971ed1fc4236d34143cc43187"
        )

    def test_triangle_m1024_kuhn_order_gives_the_earlier_cycle(self, monkeypatch):
        # with Kuhn's plain order put back in the per-cluster matchings and
        # in rotation_extension's 1-factor, the cycle is the one pinned
        # before the matchings were seeded with the unmatched rights
        import oracles

        import hamdg.expander as ex
        import hamdg.solvers as so

        monkeypatch.setattr(ex, "_bipartite_matching", oracles.bipartite_matching)
        monkeypatch.setattr(so, "one_factor", oracles.one_factor)
        assert self.m1024_digest() == (
            "f9b53cf2d7890a1ca632bb2d7762efd0fb5f76933a720955d7df9ae0990baad7"
        )
