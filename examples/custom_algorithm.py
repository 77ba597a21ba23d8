#!/usr/bin/env python3
"""Extending the library: plug in your own routing algorithm.

Implements the "z-order first" toy algorithm — dimension-order routing
that corrects the *highest* dimension first instead of the lowest — by
subclassing the library's RoutingAlgorithm, registers it under a name, and
races it against the built-in e-cube.  It performs like e-cube (it is
e-cube up to dimension relabeling) which makes it a nice template: the
interesting part is the scaffolding, not the algorithm.

Run:  python examples/custom_algorithm.py
"""

from typing import Any, Hashable, List

from repro import SimulationConfig, run_point
from repro.routing.base import (
    RouteChoice,
    RoutingAlgorithm,
    dateline_vc_class,
)
from repro.routing.registry import register_algorithm
from repro.topology.base import Topology


class ReverseDimensionOrder(RoutingAlgorithm):
    """Dimension-order routing, highest dimension first.

    Deadlock-free for the same reason as e-cube: dimensions are totally
    ordered and each torus ring uses the two-class dateline scheme.
    """

    name = "zcube"
    fully_adaptive = False
    adaptive = False

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._has_wrap = any(link.wraps for link in topology.links)

    @property
    def num_virtual_channels(self) -> int:
        return 2 if self._has_wrap else 1

    def candidates(
        self, state: Any, current: int, dst: int
    ) -> List[RouteChoice]:
        self._check_not_delivered(current, dst)
        topo = self.topology
        for dim in reversed(range(topo.n_dims)):  # the one changed line
            directions = topo.directions(current, dst, dim)
            if not directions:
                continue
            direction = directions[0]
            if self._has_wrap:
                vc_class = dateline_vc_class(
                    topo.coords(current)[dim],
                    topo.coords(dst)[dim],
                    direction,
                )
            else:
                vc_class = 0
            return [(topo.out_link(current, dim, direction), vc_class)]
        raise AssertionError("unreachable")

    def message_class(self, src: int, dst: int, state: Any) -> Hashable:
        (link, vc_class), = self.candidates(state, src, dst)
        return (link.index, vc_class)


def main() -> None:
    register_algorithm("zcube", ReverseDimensionOrder)

    # Optional but recommended: machine-check deadlock freedom the same
    # way the library checks its own algorithms.
    from repro.analysis import build_dependency_graph, is_acyclic
    from repro.topology import Torus

    graph = build_dependency_graph(ReverseDimensionOrder(Torus(4, 2)))
    print("zcube dependency graph acyclic:", is_acyclic(graph))

    print("\nRacing zcube against ecube (8x8 torus, uniform, load 0.5):")
    for algorithm in ("ecube", "zcube"):
        config = SimulationConfig(
            radix=8,
            algorithm=algorithm,
            offered_load=0.5,
            warmup_cycles=1500,
            sample_cycles=1000,
            max_samples=4,
            seed=3,
        )
        result = run_point(config)
        print(
            f"  {algorithm:>5}: util={result.achieved_utilization:.3f} "
            f"latency={result.average_latency:.1f}"
        )
    print(
        "\nAs expected the two are statistically identical — use this "
        "file as a template for algorithms that are not."
    )


if __name__ == "__main__":
    main()
