"""Named run profiles: the paper's full configuration and scaled ones.

The paper simulates 16x16 tori with long warm-ups.  That is reproducible
here (profile ``paper``) but takes tens of minutes per figure in pure
Python, so the default profile for benchmarks and examples is ``scaled``:
an 8x8 torus with shorter sampling, which preserves every qualitative
ranking the paper reports while finishing in minutes.  Select a profile
with ``repro-campaign ... --profile NAME`` or a spec's ``profile`` key.

==========  ======  =====================================================
Profile     Torus   Intended use
==========  ======  =====================================================
``paper``   16x16   faithful reproduction (slow; documented runs)
``scaled``  8x8     default for benchmarks/examples
``quick``   8x8     smoke tests and CI (few samples, short warm-up)
``tiny``    4x4     unit/integration tests
==========  ======  =====================================================
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Dict, Mapping

from repro.simulator.config import SimulationConfig
from repro.util.errors import ConfigurationError

#: Per-profile overrides applied on top of SimulationConfig defaults.
#: Immutable: a profile edited at runtime would silently diverge between
#: the parent process and ProcessPool workers (DET005).
PROFILES: Mapping[str, Dict[str, object]] = MappingProxyType({
    "paper": {
        "radix": 16,
        "warmup_cycles": 5000,
        "sample_cycles": 2000,
        "gap_cycles": 400,
        "min_samples": 3,
        "max_samples": 10,
    },
    "scaled": {
        "radix": 8,
        "warmup_cycles": 2000,
        "sample_cycles": 1200,
        "gap_cycles": 240,
        "min_samples": 3,
        "max_samples": 6,
    },
    "quick": {
        "radix": 8,
        "warmup_cycles": 800,
        "sample_cycles": 600,
        "gap_cycles": 120,
        "min_samples": 3,
        "max_samples": 3,
    },
    "tiny": {
        "radix": 4,
        "warmup_cycles": 400,
        "sample_cycles": 400,
        "gap_cycles": 80,
        "min_samples": 3,
        "max_samples": 3,
    },
})

def apply_profile(
    config: SimulationConfig, profile: str
) -> SimulationConfig:
    """A copy of *config* with the profile's overrides applied."""
    overrides = PROFILES.get(profile)
    if overrides is None:
        raise ConfigurationError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    return dataclasses.replace(config, **overrides)


__all__ = ["PROFILES", "apply_profile"]
