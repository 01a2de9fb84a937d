"""Build a Hamilton cycle of a cluster blow-up from a closed walk.

Start from a reduced digraph (a triangle) carrying a 1-factor, blow each
cluster up to six vertices with dense bipartite pairs, add two exceptional
vertices, route a closed walk that visits every cluster the same number
of times, and assemble a genuine Hamilton cycle of the 20-vertex host.
The trace records the initial cycle factor and every merge step.
"""

from hamdg import complete_digraph
from hamdg.core import CycleFactor
from hamdg.expander import (
    OneFactorF,
    ReducedDigraph,
    assemble_hamilton,
    build_closed_walk,
    make_cluster_blowup,
)


def main() -> None:
    red = ReducedDigraph(complete_digraph(3), 6)
    f = OneFactorF(CycleFactor(((0, 1, 2),)), red.r)
    blowup, demands = make_cluster_blowup(red, exceptional=2, seed=7)
    print(f"host: {blowup.host.n} vertices "
          f"({red.r.n} clusters of {red.m}, {len(blowup.exceptional)} exceptional)")

    walk = build_closed_walk(red, f, demands, cap=red.m)
    print(f"closed walk of length {len(walk.sequence)}, "
          f"visit counts {walk.visit_counts()}")
    for link in walk.links:
        print("  link:", link)

    trace = assemble_hamilton(blowup, red, f, walk)
    print(f"initial factor: {len(trace.initial_factor.cycles)} cycles; "
          f"{len(trace.merges)} merges")
    for (cluster, matching), method in zip(trace.merges, trace.merge_methods):
        print(f"  merge cluster {cluster}: {len(matching)} arcs, closed by {method}")
    assert trace.cycle.is_valid(blowup.host)
    print("hamilton cycle:", " ".join(str(v) for v in trace.cycle.order))


if __name__ == "__main__":
    main()
