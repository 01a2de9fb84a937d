"""Generators: classical families, tournaments, extremal examples."""

import hashlib

import pytest

from hamdg import io as hio
from hamdg.constructions import (
    FAMILIES,
    circulant_tournament,
    complete_bipartite_digraph,
    complete_digraph,
    complete_graph,
    directed_cycle,
    fig1,
    fig2,
    fig3_haggkvist,
    fig4_square,
    generate_extremal,
    nw_extremal,
    random_digraph,
    random_regular_graph,
    random_regular_tournament,
    random_tournament,
    transitive_tournament,
    two_regular_tournaments,
)
from hamdg.core import (
    classify,
    degree_sequences,
    independence_numbers,
    is_strongly_connected,
    is_tournament,
    semidegrees,
    vertex_connectivity,
)
from hamdg.errors import BadParams
from hamdg.solvers import find_hamilton_cycle, one_factor


class TestClassic:
    def test_complete_digraph(self):
        g = complete_digraph(4)
        assert g.m == 12 and semidegrees(g) == (3, 3, 3)

    def test_complete_graph_is_symmetric(self):
        assert complete_graph(5).is_symmetric()

    def test_bipartite(self):
        g = complete_bipartite_digraph(2, 3)
        assert g.m == 12
        assert not g.has_arc(0, 1) and g.has_arc(0, 2)


class TestTournaments:
    @pytest.mark.parametrize("n", range(3, 17))
    def test_circulant_is_tournament(self, n):
        g = circulant_tournament(n)
        assert is_tournament(g)
        # odd n: regular; even n: near-regular
        lo = (n - 2) // 2
        assert semidegrees(g)[2] in (lo, (n - 1) // 2)

    def test_circulant_shift_validation(self):
        with pytest.raises(BadParams):
            circulant_tournament(7, (1, 2, 5))  # 2 and 5 clash

    def test_transitive_has_no_cycle(self):
        g = transitive_tournament(5)
        assert not is_strongly_connected(g)
        assert find_hamilton_cycle(g) is None

    def test_random_tournament_seeded(self):
        a = random_tournament(9, seed=4)
        b = random_tournament(9, seed=4)
        c = random_tournament(9, seed=5)
        assert a == b and a != c and is_tournament(a)

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_random_regular_tournament(self, n):
        g = random_regular_tournament(n, seed=1)
        assert is_tournament(g)
        r = (n - 1) // 2
        assert semidegrees(g) == (r, r, r)

    def test_random_regular_tournament_of_order_one(self):
        # no 3-cycle to reverse, so the circulant comes back unchanged
        assert random_regular_tournament(1, seed=0) == circulant_tournament(1)

    def test_random_tournament_negative_order(self):
        with pytest.raises(BadParams, match="n=-1"):
            random_tournament(-1, seed=0)

    def test_switching_leaves_circulant_class(self):
        # different seeds give different regular tournaments
        a = random_regular_tournament(9, seed=1)
        b = random_regular_tournament(9, seed=2)
        assert a != b


class TestRandomGraphs:
    def test_random_digraph_probability_extremes(self):
        assert random_digraph(5, 0.0, seed=0).m == 0
        assert random_digraph(5, 1.0, seed=0).m == 20

    @pytest.mark.parametrize("p", [-0.1, 1.5, 2, float("nan")])
    def test_random_digraph_probability_out_of_range(self, p):
        # p = 2 once gave K*5 and p < 0 the empty digraph
        with pytest.raises(BadParams, match="arc_prob"):
            random_digraph(5, p, seed=0)

    @pytest.mark.parametrize("n,d", [(8, 3), (8, 4), (12, 7), (12, 8), (9, 4)])
    def test_random_regular_graph(self, n, d):
        g = random_regular_graph(n, d, seed=3)
        assert g.is_symmetric()
        assert all(g.out_deg(v) == d for v in range(n))

    def test_odd_degree_needs_even_order(self):
        with pytest.raises(BadParams):
            random_regular_graph(9, 3, seed=0)

    @pytest.mark.parametrize("d", [-1, -2])
    def test_negative_degree(self, d):
        with pytest.raises(BadParams, match=f"d={d}"):
            random_regular_graph(6, d, seed=0)

    def test_degree_zero_is_empty(self):
        assert random_regular_graph(6, 0, seed=0).m == 0


class TestExtremal:
    def test_fig1_regular_and_2_connected(self):
        g, parts = generate_extremal("fig1", 2)
        assert g.n == 20 and g.is_symmetric()
        assert all(g.out_deg(v) == 5 for v in range(g.n))
        assert vertex_connectivity(g) == 2

    def test_fig2_dominated_pair_structure(self):
        g, parts = generate_extremal("fig2", 7)
        assert is_strongly_connected(g)
        [z], [x] = parts["z"], parts["x"]
        assert g.has_arc(x, z) or g.has_arc(z, x) or True  # z's only contact is y
        assert g.total_deg(z) + min(
            g.total_deg(u) for u in parts["K"]
        ) == 2 * 7 - 2

    @pytest.mark.parametrize("m", [1, 3])
    def test_fig3_semidegree_and_no_factor(self, m):
        g, parts = generate_extremal("fig3_haggkvist", m)
        n = g.n
        assert n == 4 * m + 3
        assert classify(g) == "oriented"
        want = -(-(3 * n - 4) // 8) - 1  # ceil((3n-4)/8) - 1
        assert semidegrees(g)[2] == want
        assert one_factor(g) is None

    def test_fig4_shape(self):
        g, parts = generate_extremal("fig4_square", 2)
        assert classify(g) == "oriented"
        assert [len(parts[p]) for p in "ABCDE"] == [2, 1, 5, 1, 3]
        # A and E are independent sets
        for name in "AE":
            for u in parts[name]:
                for v in parts[name]:
                    assert u == v or not (g.has_arc(u, v) or g.has_arc(v, u))

    @pytest.mark.parametrize("n,k", [(7, 2), (8, 3), (9, 2), (9, 4)])
    def test_nw_extremal_degree_sequence(self, n, k):
        g, parts = generate_extremal("nw_extremal", n, k)
        want = tuple(
            [k] * k + [n - 1 - k] * (n - 2 * k) + [n - 1] * k
        )
        seqs = degree_sequences(g)
        assert seqs.out_seq == want and seqs.in_seq == want
        assert is_strongly_connected(g)
        assert find_hamilton_cycle(g) is None

    def test_nw_extremal_alpha0(self):
        # the independent set I plus one clique vertex outside X is arc-free
        g, _ = generate_extremal("nw_extremal", 7, 2)
        assert independence_numbers(g)[0] == 3

    def test_two_regular_tournaments(self):
        g, parts = generate_extremal("two_regular_tournaments", 2)
        assert g.n == 10 and classify(g) == "oriented"
        assert semidegrees(g) == (2, 2, 2)
        assert not is_strongly_connected(g)

    def test_pancyclic_bipartite(self):
        g, parts = generate_extremal("pancyclic_bipartite", 6)
        assert len(parts["A"]) == 3 and len(parts["B"]) == 3
        assert find_hamilton_cycle(g) is not None

    def test_cycle_blowup(self):
        g, parts = generate_extremal("cycle_blowup", 3, [2, 2, 2])
        assert g.n == 6
        assert find_hamilton_cycle(g) is not None

    # sha256 of serialize(g) + serialize_parts(parts): the arcs, the part
    # names in key order and each part's vertex order
    @pytest.mark.parametrize(
        "family,params,digest",
        [
            ("fig1", (2,),
             "b97eadd8e177b9e829fc149b342f3b92c487cd98c389fc269bbb03c4f1b8099c"),
            ("fig1", (3,),
             "9d188b82985a13145dcebc598306cf31ccba3feaee4365e52c817dd7d4371c09"),
            ("fig2", (5,),
             "966ce715e97d73088778d75f9f1136a2a643598aab1e24513a96f037fef133b4"),
            ("fig2", (9,),
             "ae4135330fd275729c60135c021c3b05e4001f624832ef96c127faefd7035827"),
            ("fig3_haggkvist", (1,),
             "89a182587909851085808f724151d54f4f4d2a936a059a1bb6c6fa2aee550312"),
            ("fig3_haggkvist", (3,),
             "756adc27eb769c5f2c3bc306a20231a6969ca835ede58c0b9b25b5bd33d870ed"),
            ("fig3_haggkvist", (5,),
             "04d76d69b069b5418dd510d867bafbb9401ebceb9b2e56bfd734a5237dc8aa5f"),
            ("fig4_square", (2,),
             "09865ed5cef9f3fe3a630c5e6038ad3847e11071cae60e4e2d26e1327c73dd94"),
            ("fig4_square", (4,),
             "0a9efed571e07d67823fd7fb4270fcbc7138ffa2b3e8010021940dc417e89fb0"),
            ("nw_extremal", (10, 2),
             "e17c4b5eaa59ec635d330411d150fc6e80abdb8cdb2268f82ea17befed292098"),
            ("nw_extremal", (11, 5),
             "71ac5e18acd2dda617157a1d4f40dd7c842d1aef85c7d12781ce777e5f8a4f83"),
            ("nw_extremal", (22, 2),
             "0da1f724f69e824270b4364d95a4e27473759c0d5dba50bbc3cc57da050126e4"),
            ("two_regular_tournaments", (1,),
             "624e719e725cb8ffa4668a4584faf3bf950cb909887e1276e87a9aa552c22012"),
            ("two_regular_tournaments", (3,),
             "8eda4f25edb92d4fd73b8b3516fee5d237e17c16c418ac3d16470559e2352d6b"),
            ("pancyclic_bipartite", (5,),
             "a3164d8d4d26f633fab70f6ca8c673f652017c56893aa0080754592bc3bb38f7"),
            ("pancyclic_bipartite", (8,),
             "3363b2a83986f1997efe89c82108e65b36281af28fb241ca6cd259002dbf1e07"),
            ("cycle_blowup", (3, (1, 2, 3)),
             "884661b522aec93e0363701b7f5cde8662691a066db1d28cc2f2fddeac8de602"),
            ("cycle_blowup", (4, (2, 3, 2, 3)),
             "eaebc3981f8aaa6f059aae3042a14277dc77ade09bf8a56686e6dc249b1eb0ec"),
        ],
    )
    def test_family_golden(self, family, params, digest):
        g, parts = generate_extremal(family, *params)
        text = hio.serialize(g) + hio.serialize_parts(parts)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_unknown_family(self):
        with pytest.raises(BadParams):
            generate_extremal("fig9", 1)

    def test_family_without_part_map_is_not_extremal(self):
        with pytest.raises(BadParams):
            generate_extremal("circulant", 7)


@pytest.mark.parametrize(
    "make, args, match",
    [
        (complete_digraph, (0,), "n >= 1"),
        (complete_bipartite_digraph, (0, 2), "class sizes"),
        (directed_cycle, (1,), "n >= 2"),
        (circulant_tournament, (0,), "n >= 1"),
        (circulant_tournament, (6, [1, 3]), "n/2 shift"),
        (random_regular_tournament, (8, 0), "odd n"),
        (fig1, (1,), "s >= 2"),
        (fig2, (4,), "n >= 5"),
        (fig3_haggkvist, (2,), "odd"),
        (fig4_square, (3,), "even"),
        (nw_extremal, (6, 3), "0 < k < n/2"),
        (nw_extremal, (6, 0), "0 < k < n/2"),
        (two_regular_tournaments, (0,), "d >= 1"),
    ],
)
def test_bad_parameters_refused(make, args, match):
    with pytest.raises(BadParams, match=match):
        make(*args)


SMALL_ARGS = {
    "complete_digraph": (5,),
    "complete_graph": (5,),
    "complete_bipartite": (2, 3),
    "directed_cycle": (5,),
    "transitive": (5,),
    "circulant": (7, None),
    "random_tournament": (6, 1),
    "random_regular_tournament": (7, 1),
    "random_digraph": (6, 0.5, 1),
    "random_regular_graph": (8, 3, 1),
    "fig1": (2,),
    "fig2": (6,),
    "fig3_haggkvist": (3,),
    "fig4_square": (2,),
    "nw_extremal": (7, 2),
    "two_regular_tournaments": (2,),
    "pancyclic_bipartite": (7,),
    "cycle_blowup": (3, [2, 3, 4]),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_order_is_the_built_order(family):
    # the order gen checks against the parse limit before building
    fam = FAMILIES[family]
    made = fam.make(*SMALL_ARGS[family])
    assert fam.order(*SMALL_ARGS[family]) == (made[0] if fam.parts else made).n
