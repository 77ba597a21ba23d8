"""Lightweight phase profiler: where an observed engine spends its time.

The engine's cycle has four phases (generation, ejection, routing,
transmission).  The engine itself reads no clock: when profiling is
enabled the observer wraps the engine's bound phase methods (and its own
per-cycle hook, the ``observe`` phase) with :meth:`PhaseProfiler.timed`
at ``bind`` and unwraps them at detach, so what is timed is the one
``step`` every run executes.  The numbers are wall-clock, so they are
excluded from anything that must be deterministic.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List

#: The engine phases an observer times.
PHASES = ("generation", "ejection", "routing", "transmission", "observe")


class PhaseProfiler:
    """Accumulated wall-time and call counts per phase."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.calls: Dict[str, int] = {phase: 0 for phase in PHASES}

    def add(self, phase: str, elapsed: float) -> None:
        self.seconds[phase] += elapsed
        self.calls[phase] += 1

    def timed(self, phase: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn*, with the wall time of every call added to *phase*."""
        add = self.add

        def call(*args: Any) -> Any:
            t0 = perf_counter()
            result = fn(*args)
            add(phase, perf_counter() - t0)
            return result

        return call

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            phase: {
                "seconds": self.seconds[phase],
                "calls": float(self.calls[phase]),
            }
            for phase in PHASES
            if self.calls[phase]
        }

    def format_table(self) -> str:
        """Aligned text table: phase, calls, seconds, share."""
        total = self.total_seconds()
        lines: List[str] = [
            f"{'phase':<14}{'calls':>10}{'seconds':>12}{'share':>8}"
        ]
        for phase in PHASES:
            if not self.calls[phase]:
                continue
            seconds = self.seconds[phase]
            share = seconds / total if total else 0.0
            lines.append(
                f"{phase:<14}{self.calls[phase]:>10}"
                f"{seconds:>12.4f}{share:>7.1%}"
            )
        lines.append(f"{'total':<14}{'':>10}{total:>12.4f}{'':>8}")
        return "\n".join(lines)


__all__ = ["PHASES", "PhaseProfiler"]
