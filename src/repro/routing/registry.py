"""Name-based construction of routing algorithms.

The experiment harness, CLI, benchmarks and examples all refer to
algorithms by the paper's short names.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.routing.base import RoutingAlgorithm
from repro.routing.bonus_cards import NegativeHopBonusCards
from repro.routing.ecube import ECube
from repro.routing.negative_hop import NegativeHop
from repro.routing.north_last import NorthLast
from repro.routing.positive_hop import PositiveHop
from repro.routing.two_power_n import TwoPowerN
from repro.topology.base import Topology
from repro.util.errors import ConfigurationError, RoutingError

# register_algorithm() extends this table at import time only, so the
# parent and ProcessPool workers build identical copies by importing the
# same modules.
# repro-check: ignore[DET005] write-once registry, extended at import only
_FACTORIES: Dict[str, Callable[[Topology], RoutingAlgorithm]] = {
    ECube.name: ECube,
    NorthLast.name: NorthLast,
    TwoPowerN.name: TwoPowerN,
    PositiveHop.name: PositiveHop,
    NegativeHop.name: NegativeHop,
    NegativeHopBonusCards.name: NegativeHopBonusCards,
}

#: The paper's six algorithms, in its presentation order.
ALGORITHM_NAMES = ("ecube", "nlast", "2pn", "phop", "nhop", "nbc")


def available_algorithms() -> List[str]:
    """All registered algorithm names."""
    return sorted(_FACTORIES)


def algorithm_factory(name: str) -> Callable[[Topology], RoutingAlgorithm]:
    """The constructor *name* selects, without building anything.

    *name* is a registered name, optionally with a ``x<lanes>`` suffix
    that multiplies the algorithm's virtual channels into
    interchangeable lanes (the paper's §4 extra-virtual-channel study):
    ``"ecubex2"`` is e-cube with two lanes per dateline class.  Any
    other name is a ConfigurationError.
    """
    factory = _FACTORIES.get(name)
    if factory is not None:
        return factory
    match = re.fullmatch(r"(?P<base>.+)x(?P<lanes>\d+)", name)
    if match and match.group("base") in _FACTORIES:
        from repro.routing.multilane import with_lanes

        inner = _FACTORIES[match.group("base")]
        lanes = int(match.group("lanes"))
        return lambda topology: with_lanes(inner(topology), lanes)
    raise ConfigurationError(
        f"unknown routing algorithm {name!r}; "
        f"available: {', '.join(available_algorithms())} "
        "(optionally with a x<lanes> suffix, e.g. 'ecubex2')"
    )


def make_algorithm(name: str, topology: Topology) -> RoutingAlgorithm:
    """Instantiate the algorithm called *name* on *topology*.

    *name* is parsed by :func:`algorithm_factory`.

    >>> from repro.topology import Torus
    >>> make_algorithm("phop", Torus(16, 2)).num_virtual_channels
    17
    >>> make_algorithm("ecubex4", Torus(16, 2)).num_virtual_channels
    8
    """
    return algorithm_factory(name)(topology)


def iter_algorithms(
    topology: Topology, names: Optional[List[str]] = None
) -> Iterator[Tuple[str, Optional[RoutingAlgorithm], Optional[str]]]:
    """Instantiate every registered algorithm on *topology*, tolerantly.

    Yields ``(name, algorithm, None)`` for every algorithm that can be
    built on *topology* and ``(name, None, reason)`` for the ones that
    refuse it (e.g. nlast on a 3-D network, nhop on an odd-radix torus).
    Used by the verification runner, which must sweep the whole registry
    without dying on the first inapplicable combination.
    """
    for name in names if names is not None else available_algorithms():
        try:
            yield name, make_algorithm(name, topology), None
        except RoutingError as exc:
            yield name, None, str(exc)


def register_algorithm(
    name: str, factory: Callable[[Topology], RoutingAlgorithm]
) -> None:
    """Register a user-defined algorithm (see examples/custom_algorithm.py)."""
    if name in _FACTORIES:
        raise ConfigurationError(f"algorithm {name!r} is already registered")
    _FACTORIES[name] = factory


__all__ = [
    "ALGORITHM_NAMES",
    "algorithm_factory",
    "available_algorithms",
    "iter_algorithms",
    "make_algorithm",
    "register_algorithm",
]
