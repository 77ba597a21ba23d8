#!/usr/bin/env python3
"""Deadlock theory, machine-checked: dependency graphs and Lemma 1.

Walks the deadlock-freedom story of the paper's Section 2 with the
analysis toolkit:

1. builds the channel dependency graph of each algorithm on a 4x4 torus
   and reports acyclicity (Dally & Seitz's sufficient condition);
2. verifies the hop schemes' Lemma-1 rank argument exhaustively;
3. shows what *breaking* an algorithm looks like — removing the e-cube
   dateline creates a wrap-around cycle the checker finds instantly.

Run:  python examples/deadlock_analysis.py
"""

from repro.analysis import build_dependency_graph, find_cycle
from repro.analysis.invariants import check_rank_monotonicity
from repro.routing import make_algorithm
from repro.routing.ecube import ECube
from repro.topology import Torus


class EcubeWithoutDateline(ECube):
    """e-cube with the dateline removed: NOT deadlock-free on a torus."""

    name = "ecube-broken"

    @property
    def num_virtual_channels(self) -> int:
        return 1

    def candidates(self, state, current, dst):
        return [(link, 0) for link, _ in super().candidates(state, current, dst)]


def main() -> None:
    torus = Torus(4, 2)

    print("=== Channel dependency graphs on a 4x4 torus ===")
    for name in ("ecube", "nlast", "phop", "nhop", "nbc", "2pn"):
        algorithm = make_algorithm(name, torus)
        graph = build_dependency_graph(algorithm)
        cycle = find_cycle(graph)
        edge_count = sum(len(targets) for targets in graph.values())
        verdict = "acyclic" if cycle is None else "HAS MAY-WAIT CYCLES"
        print(f"  {name:>5}: {edge_count:4d} edges, {verdict}")
    print(
        "  (2pn's deadlock freedom rests only on the paper's companion "
        "report -- see DESIGN.md; the other five are deadlock-free by "
        "graph acyclicity alone.)"
    )

    print("\n=== Lemma 1: strictly increasing ranks for the hop schemes ===")
    for name in ("phop", "nhop", "nbc"):
        scheme = make_algorithm(name, torus)
        transitions = check_rank_monotonicity(scheme)
        print(f"  {name:>5}: {transitions} hop transitions verified")

    print("\n=== Breaking e-cube: removing the dateline ===")
    broken = EcubeWithoutDateline(torus)
    cycle = find_cycle(build_dependency_graph(broken))
    assert cycle is not None
    print("  cycle found through channels:")
    for link_index, vc_class in cycle:
        link = torus.links[link_index]
        print(
            f"    link {torus.coords(link.src)} -> {torus.coords(link.dst)}"
            f" (dim {link.dim}, dir {link.direction:+d},"
            f" wrap={link.wraps}), class {vc_class}"
        )
    print(
        "  The wrap-around edges close the ring cycle the 2-class "
        "dateline scheme exists to break."
    )


if __name__ == "__main__":
    main()
