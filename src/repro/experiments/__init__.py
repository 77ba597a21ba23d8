"""Experiment harness: single points, load sweeps, and paper figures."""

from repro.experiments.parallel import run_points, run_sweep_points
from repro.experiments.profiles import PROFILES, apply_profile
from repro.experiments.runner import run_point
from repro.experiments.sweep import sweep_algorithms
from repro.experiments.tables import format_table

__all__ = [
    "PROFILES",
    "apply_profile",
    "format_table",
    "run_point",
    "run_points",
    "run_sweep_points",
    "sweep_algorithms",
]
