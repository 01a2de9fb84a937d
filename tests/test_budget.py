"""One node budget per public search call.

Every public search turns its ``budget=`` into one ``core._Budget`` and
passes that object to each of its sub-searches, so ``budget`` bounds the
whole call: the nodes counted over the call pass as a budget, one fewer
raises ``BudgetExceeded`` on the last of them.
"""

from types import SimpleNamespace

import pytest

from hamdg.constructions import (
    circulant_tournament,
    complete_digraph,
    fig1,
    random_digraph,
    random_regular_graph,
    random_tournament,
)
from hamdg.core import DEFAULT_BUDGET, Digraph, Matching, _Budget, independence_numbers
from hamdg.decomp import (
    cover_regular_graph,
    cover_tournament,
    decompose_exact,
    greedy_extract,
    greedy_extract_undirected,
)
from hamdg.errors import BudgetExceeded, CoverFailure
from hamdg.solvers import (
    OrientationPattern,
    disjoint_cycle_factor,
    embed_tree,
    enumerate_hamilton_cycles,
    find_cycle_of_length,
    find_hamilton_cycle,
    hamilton_cycle_through,
    is_pancyclic,
    k_ordered_hamilton,
    kth_power_hamilton,
    oriented_hamilton,
    oriented_hamilton_path,
)


@pytest.fixture
def budgets(monkeypatch):
    """Counts every ``core._Budget`` built and every tick of any of them."""
    seen = SimpleNamespace(made=0, ticks=0)
    init, tick = _Budget.__init__, _Budget.tick

    def counted_init(self, nodes):
        seen.made += 1
        init(self, nodes)

    def counted_tick(self):
        seen.ticks += 1
        tick(self)

    monkeypatch.setattr(_Budget, "__init__", counted_init)
    monkeypatch.setattr(_Budget, "tick", counted_tick)
    return seen


def _outcome(call):
    try:
        return call()
    except (BudgetExceeded, CoverFailure) as e:
        return type(e), e.args


TOURNAMENT = random_tournament(9, 3)
# every public search, each on an input that runs more than one sub-search
# where it has sub-searches; independence_numbers has no budget keyword
ENTRY_POINTS = {
    "enumerate_hamilton_cycles": lambda b: list(enumerate_hamilton_cycles(TOURNAMENT, budget=b)),
    "find_hamilton_cycle": lambda b: find_hamilton_cycle(TOURNAMENT, budget=b),
    "hamilton_cycle_through": lambda b: hamilton_cycle_through(
        circulant_tournament(11), Matching(((0, 1), (2, 3))), budget=b
    ),
    "find_cycle_of_length": lambda b: find_cycle_of_length(TOURNAMENT, 5, budget=b),
    "is_pancyclic": lambda b: is_pancyclic(TOURNAMENT, budget=b),
    "kth_power_hamilton": lambda b: kth_power_hamilton(complete_digraph(6), 2, budget=b),
    "k_ordered_hamilton": lambda b: k_ordered_hamilton(TOURNAMENT, [0, 2, 1], budget=b),
    "oriented_hamilton": lambda b: oriented_hamilton(
        TOURNAMENT, OrientationPattern.from_bits(0b101100111, 9), budget=b
    ),
    "oriented_hamilton_path": lambda b: oriented_hamilton_path(
        TOURNAMENT, OrientationPattern.from_bits(0b10110011, 8), budget=b
    ),
    "disjoint_cycle_factor": lambda b: disjoint_cycle_factor(
        random_digraph(9, 0.5, 1), [3, 3, 3], budget=b
    ),
    "embed_tree": lambda b: embed_tree(
        TOURNAMENT, Digraph(4, [(0, 1), (2, 0), (1, 3)]), budget=b
    ),
    "decompose_exact": lambda b: decompose_exact(complete_digraph(5), budget=b),
    "greedy_extract": lambda b: greedy_extract(circulant_tournament(11), budget=b),
    "greedy_extract_undirected": lambda b: greedy_extract_undirected(
        random_regular_graph(12, 4, 0), budget=b, order_seed=1
    ),
    "cover_tournament": lambda b: cover_tournament(circulant_tournament(11), budget=b),
    "cover_regular_graph": lambda b: cover_regular_graph(
        random_regular_graph(12, 4, 0), budget=b
    ),
    "independence_numbers": lambda b: independence_numbers(random_tournament(12, 0)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_one_budget_per_call(budgets, name):
    ENTRY_POINTS[name](DEFAULT_BUDGET)
    assert budgets.made == 1 and budgets.ticks > 0


# calls whose searches once each had a budget of their own; the last two
# are the deck's cover ops on rrg(24, 4), one of which ends in CoverFailure
BOUNDED = {
    "is_pancyclic": lambda b: is_pancyclic(random_tournament(30, 1), budget=b),
    "greedy_extract": lambda b: greedy_extract(circulant_tournament(21), budget=b),
    "cover_tournament": lambda b: cover_tournament(circulant_tournament(21), budget=b),
    "cover_regular_graph": lambda b: cover_regular_graph(
        random_regular_graph(24, 4, 0), budget=b
    ),
    "cover_failure": lambda b: cover_regular_graph(
        random_regular_graph(24, 4, 1054104823), budget=b
    ),
}


@pytest.mark.parametrize("name", BOUNDED)
def test_budget_bounds_the_whole_call(budgets, name):
    run = BOUNDED[name]
    want = _outcome(lambda: run(DEFAULT_BUDGET))
    nodes = budgets.ticks
    failed = isinstance(want, tuple) and want[0] is CoverFailure
    assert failed == (name == "cover_failure")
    budgets.ticks = 0
    assert _outcome(lambda: run(nodes)) == want and budgets.ticks == nodes
    budgets.ticks = 0
    with pytest.raises(BudgetExceeded):
        run(nodes - 1)
    assert budgets.ticks == nodes


def test_pancyclicity_once_spent_more_than_its_budget(budgets):
    # each length once had 100 nodes of its own, and the report cost 564;
    # it costs 502 since its last length, a Hamilton cycle, is searched by
    # the pruned Hamilton kernel instead of the sequence search
    BOUNDED["is_pancyclic"](DEFAULT_BUDGET)
    assert budgets.ticks == 502
    with pytest.raises(BudgetExceeded):
        BOUNDED["is_pancyclic"](100)


def test_a_found_cycle_leaves_no_checkpoint():
    # the search finds its cycle within n^2 = 900 nodes and leaves nothing
    # on the budget: fig1(2) on it is refuted by its own cut scan, charged
    # its n^2 + 1 = 401 nodes as on a budget of its own
    b = _Budget(10**6)
    g = random_tournament(30, 0)
    h = find_hamilton_cycle(g, budget=b)
    assert h is not None and h.is_valid(g)
    assert 0 < 10**6 - b.left < 900
    left = b.left
    assert find_hamilton_cycle(fig1(2)[0], budget=b) is None
    assert left - b.left == 401


@pytest.mark.parametrize("s,nodes", [(2, 401), (3, 842)])
def test_a_nested_search_runs_its_own_cut_scan(s, nodes):
    # K*7's search, suspended after 3 cycles, has not reached its own scan
    # at n^2 + 1 = 50 nodes.  fig1(s) run on the same budget meanwhile is
    # refuted by its scan at its n^2 + 1 nodes, as on a budget of its own;
    # when the budget held the scan, fig1(2) took 31,220 nodes and fig1(3)
    # ran out of 10^7
    b = _Budget(10**5)
    outer = enumerate_hamilton_cycles(complete_digraph(7), budget=b)
    head = [next(outer) for _ in range(3)]
    left = b.left
    assert find_hamilton_cycle(fig1(s)[0], budget=b) is None
    assert left - b.left == nodes
    assert len(head) + len(list(outer)) == 720
