"""Sufficient-condition checkers: verdicts, witnesses, side conditions."""

from fractions import Fraction

import pytest

from hamdg import conditions, core
from hamdg.conditions import check
from hamdg.constructions import (
    circulant_tournament,
    complete_digraph,
    directed_cycle,
    generate_extremal,
    random_digraph,
    random_regular_graph,
    random_tournament,
    transitive_tournament,
)
from hamdg.core import Digraph
from hamdg.errors import BadParams, BudgetExceeded, ClassMismatch, HamdgError
from hamdg.solvers import find_hamilton_cycle


class TestGhouilaHouri:
    def test_holds_on_complete(self):
        assert check("ghouila_houri", complete_digraph(5)).holds

    def test_semidegree_half_is_enough(self):
        # 2-regular digraph on 4 vertices: delta+ + delta- = 4 = n
        g = Digraph(4, [(i, (i + 1) % 4) for i in range(4)] + [(i, (i + 2) % 4) for i in range(4)])
        assert check("ghouila_houri", g).holds

    def test_fails_with_vertex_witness(self):
        v = check("ghouila_houri", directed_cycle(5))
        assert not v.holds and v.witness["needed"] == 5

    def test_not_strong_fails_with_reason(self):
        v = check("ghouila_houri", transitive_tournament(4))
        assert not v.holds and "strongly" in v.reason


class TestPairConditions:
    def test_woodall_on_complete_bipartite_like(self):
        g = complete_digraph(4)
        assert check("woodall", g).holds

    def test_meyniel_witness_on_fig2(self):
        # the known sharpness example: a dominated non-adjacent pair at 2n-2
        g, parts = generate_extremal("fig2", 7)
        v = check("meyniel", g)
        assert not v.holds
        assert v.witness["sum"] == 2 * 7 - 2

    def test_bgl_restricts_to_dominated_pairs(self):
        # meyniel looks at all non-adjacent pairs, bgl only dominated ones,
        # so bgl holds whenever meyniel does
        for seed in range(5):
            g = random_digraph(7, 0.8, seed=seed)
            if check("meyniel", g).holds:
                assert check("bgl", g).holds


class TestOrientedRules:
    def test_class_mismatch(self):
        with pytest.raises(ClassMismatch):
            check("oriented_semidegree", complete_digraph(4))

    def test_oriented_semidegree_threshold(self):
        # regular tournament on 9: delta0 = 4, (3*9-4)/8 = 23/8 < 4
        assert check("oriented_semidegree", circulant_tournament(9)).holds

    def test_fig3_just_below_threshold(self):
        g, _ = generate_extremal("fig3_haggkvist", 1)
        v = check("oriented_semidegree", g)
        assert not v.holds

    def test_haggkvist_star(self):
        assert check("haggkvist_star", circulant_tournament(9)).holds

    def test_power_tournament_needs_tournament(self):
        with pytest.raises(ClassMismatch):
            check("power_tournament", directed_cycle(5), eps="1/20")

    def test_power_tournament(self):
        v = check("power_tournament", circulant_tournament(9), eps="1/20")
        assert v.holds

    def test_short_cycle_divisibility(self):
        # ell=4: smallest k>2 not dividing 4 is 3, so need delta0 >= n/3+1
        v = check("short_cycle", circulant_tournament(9), ell=4)
        assert v.holds
        with pytest.raises(BadParams):
            check("short_cycle", circulant_tournament(9), ell=3)

    @pytest.mark.parametrize("ell,k", [(6, 4), (12, 5)])
    def test_short_cycle_skips_every_divisor(self, ell, k):
        # k is the smallest integer > 2 not dividing ell: need delta0 >= n/k+1
        assert check("short_cycle", circulant_tournament(9), ell=ell).holds
        v = check("short_cycle", directed_cycle(9), ell=ell)
        assert not v.holds and v.witness == {"semidegree": 1, "needed": 9 // k + 1, "k": k}


class TestSemidegreeRules:
    def test_digraph_semidegree(self):
        assert check("digraph_semidegree", complete_digraph(4)).holds
        assert not check("digraph_semidegree", directed_cycle(4)).holds

    def test_kordered(self):
        v = check("kordered_semidegree", complete_digraph(8), k=3)
        assert v.holds  # delta0 = 7 >= ceil(11/2)-1 = 5
        v = check("kordered_semidegree", circulant_tournament(9), k=5)
        assert not v.holds  # delta0 = 4 < ceil(14/2)-1 = 6


class TestSequenceRules:
    def test_nash_williams_holds_on_complete(self):
        assert check("nash_williams", complete_digraph(5)).holds

    def test_nash_williams_sharpness_family(self):
        # k vertices of degree k break the k-th condition pair
        for n, k in [(7, 2), (8, 3), (9, 4)]:
            g, _ = generate_extremal("nw_extremal", n, k)
            v = check("nash_williams", g)
            assert not v.holds
            assert v.witness["index"] == k

    def test_posa_digraph(self):
        assert check("posa_digraph", complete_digraph(6)).holds
        assert not check("posa_digraph", directed_cycle(6)).holds

    def test_ckko_needs_beta(self):
        with pytest.raises(BadParams):
            check("ckko", complete_digraph(6))

    def test_ckko_holds_on_complete(self):
        assert check("ckko", complete_digraph(8), beta="1/8").holds


class TestTinyOrders:
    # every degree and sequence rule answers on n = 0, 1, 2, with and
    # without parameters: a verdict, or a library error, never a crash
    PARAMS = {"k": 2, "ell": 5, "beta": "1/10", "alpha": "1/10", "eps": "1/10"}

    @pytest.mark.parametrize(
        "rule", conditions.DEGREE_RULES + conditions.SEQUENCE_RULES
    )
    def test_verdict_or_library_error(self, rule):
        graphs = [Digraph(0), Digraph(1), Digraph(2), Digraph(2, [(0, 1)]),
                  Digraph(2, [(0, 1), (1, 0)])]
        for g in graphs:
            for params in ({}, self.PARAMS):
                try:
                    v = conditions.check(rule, g, **params)
                except HamdgError:
                    continue
                assert isinstance(v, conditions.Verdict) and v.rule == rule

    def test_haggkvist_star_on_the_empty_digraph(self):
        # 2 * delta* = 0 > 3n - 3 = -3
        assert check("haggkvist_star", Digraph(0)).holds


class TestConnectivityRules:
    def test_jackson_ordaz(self):
        # complete digraph: kappa = n-1, alpha2 = 1
        v = check("jackson_ordaz", complete_digraph(5))
        assert v.holds and v.witness == {"kappa": 4, "alpha2": 1, "needed": 2}

    def test_jackson_factorial_demands_more(self):
        # needs kappa >= 2^1 * 3! = 12 at alpha2 = 1
        assert not check("jackson_factorial", complete_digraph(5)).holds
        assert check("jackson_factorial", complete_digraph(14)).holds

    def test_unknown_rule_rejected_before_any_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("kappa computed for an unknown rule")

        monkeypatch.setattr(conditions, "vertex_connectivity", never)
        monkeypatch.setattr(conditions, "independence_numbers", never)
        with pytest.raises(BadParams):
            check("jackson", complete_digraph(5))

    @pytest.mark.parametrize("seed", range(3))
    def test_jackson_computes_alpha2_alone(self, monkeypatch, seed):
        # a tournament has no 2-cycle, so alpha_2 = n, and alpha_0 < n goes
        # unread: one independent-set search per rule
        calls = []
        search = core._max_independent_set

        def counted(n, adj, b):
            calls.append(n)
            return search(n, adj, b)

        monkeypatch.setattr(core, "_max_independent_set", counted)
        g = random_tournament(24, seed)
        for rule in ("jackson_ordaz", "jackson_factorial"):
            calls.clear()
            assert check(rule, g).witness["alpha2"] == 24
            assert calls == [24]

    def test_spent_alpha_budget_refused_before_kappa(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("kappa computed after the alpha budget ran out")

        monkeypatch.setattr(conditions, "vertex_connectivity", never)
        monkeypatch.setattr(core, "DEFAULT_BUDGET", 10)
        for rule in ("jackson_ordaz", "jackson_factorial"):
            with pytest.raises(BudgetExceeded, match="budget"):
                check(rule, random_regular_graph(24, 4, 0))


class TestSoundnessSpot:
    def test_ghouila_houri_implies_hamilton(self):
        found = 0
        for seed in range(40):
            g = random_digraph(8, 0.75, seed=seed)
            if check("ghouila_houri", g).holds:
                found += 1
                assert find_hamilton_cycle(g) is not None
        assert found > 0


class TestStrongConnectivityOnce:
    # the parameters that make the parametrised rules apply
    PARAMS = {"kordered_semidegree": {"k": 2}, "short_cycle": {"ell": 5},
              "ckko": {"beta": Fraction(1, 10)}}

    @pytest.mark.parametrize(
        "g",
        [
            circulant_tournament(9),
            complete_digraph(6),
            generate_extremal("nw_extremal", 6, 2)[0],
            transitive_tournament(5),  # not strong
            Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)]),  # not strong
        ],
    )
    def test_one_search_pair_per_digraph(self, monkeypatch, g):
        # the 14 rules of a decision and the search share one forward and
        # one backward search from vertex 0
        calls = []
        reaches_all = core._reaches_all

        def counted(adj, start_mask, within):
            calls.append(adj)
            return reaches_all(adj, start_mask, within)

        monkeypatch.setattr(core, "_reaches_all", counted)
        strong = 0
        for rule in conditions.DEGREE_RULES + conditions.SEQUENCE_RULES:
            try:
                v = conditions.check(rule, g, **self.PARAMS.get(rule, {}))
            except (ClassMismatch, BadParams):
                continue
            strong += v.reason == "not strongly connected"
        find_hamilton_cycle(g)
        assert core.is_strongly_connected(g) == (strong == 0)
        # the backward search runs only when the forward one reaches all
        assert calls in ([g.out, g.inn], [g.out])
