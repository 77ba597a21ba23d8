"""Shared helpers for the benchmark suite.

The inventory, ablation and extension studies of the paper, one
pytest-benchmark file each.  (Figures 3-5 and the Section 3.4 VCT
experiment are ``repro-campaign run --figure N --tables --check``.)

The network/sampling scale is selected by the ``REPRO_PROFILE`` environment
variable, read here and nowhere else (see :mod:`repro.experiments.profiles`
for the profiles):

* default for benchmarks: ``quick`` — 8x8 torus, minutes for the suite;
* ``scaled`` — 8x8 with the full convergence discipline;
* ``paper`` — the 16x16 torus of the paper (slow: tens of minutes per
  study in pure Python; use for documented full runs).
"""

from __future__ import annotations

import os

import pytest


def active_profile(default: str = "quick") -> str:
    from repro.experiments.profiles import PROFILES

    name = os.environ.get("REPRO_PROFILE", default)
    if name not in PROFILES:
        raise RuntimeError(f"unknown REPRO_PROFILE {name!r}")
    return name


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    Simulation sweeps are far too slow for statistical repetition; one
    timed round per artifact keeps ``--benchmark-only`` meaningful without
    multiplying the runtime.
    """

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
