"""Deadlock analysis and virtual-channel usage studies.

``dependency_graph`` builds the (virtual-)channel dependency graph a
routing algorithm induces and checks it for cycles; ``invariants``
machine-checks the Lemma-1 rank argument of the hop schemes and the
adaptivity/minimality contracts; ``vc_usage`` quantifies the
virtual-channel load balance behind the paper's nbc-vs-nhop discussion;
``verify`` packages all of it as a check battery with structured,
cacheable verdicts (see ``docs/verification.md``), ``lint`` is the
determinism battery over the source tree, ``equivalence`` holds the
batch backend to the object engine, and ``check`` is the one CLI
(``repro-check``) over the three, on the ``battery`` seam.
"""

from repro.analysis.dependency_graph import (
    build_dependency_graph,
    find_cycle,
    is_acyclic,
)
from repro.analysis.invariants import (
    check_candidates_minimal,
    check_rank_monotonicity,
    count_minimal_paths,
    enumerate_paths,
)
from repro.analysis.vc_usage import (
    coefficient_of_variation,
    usage_fractions,
)
from repro.analysis.verify import run_verification

__all__ = [
    "build_dependency_graph",
    "check_candidates_minimal",
    "check_rank_monotonicity",
    "coefficient_of_variation",
    "count_minimal_paths",
    "enumerate_paths",
    "find_cycle",
    "is_acyclic",
    "run_verification",
    "usage_fractions",
]
