"""Fixture: DET002 fires — no function name exempts a wall-clock read.

Until ISSUE 24 ``simulator/engine.py::Engine._step_profiled`` was on an
allowlist and this module was a *good* fixture; the list is gone.
"""

from time import perf_counter


class Engine:
    def _step_profiled(self):
        started = perf_counter()
        self.step()
        return perf_counter() - started

    def step(self):
        return None
