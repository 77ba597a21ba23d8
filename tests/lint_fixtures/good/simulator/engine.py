"""Fixture: DET002 silent — the allowlisted measurement site.

``simulator/engine.py::Engine._step_profiled`` is in
``DET002_ALLOWED_FUNCTIONS``, so its wall-clock reads pass.
"""

from time import perf_counter


class Engine:
    def _step_profiled(self):
        started = perf_counter()
        self.step()
        return perf_counter() - started

    def step(self):
        return None
