"""The runtime wait-for-graph sanitizer and its deadlock reports."""

import pytest

from repro.obs.observer import Observer
from repro.routing.base import RoutingAlgorithm
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.simulator.reference import ScanEngine
from repro.simulator.sanitizer import WaitForGraph
from repro.topology.torus import Torus
from repro.util.errors import DeadlockError
from tests.conftest import NeverRoutes, tiny_config


class _Clockwise(RoutingAlgorithm):
    """Deliberately deadlock-prone: always the + link, one VC class.

    On a 1-D torus every message chases the next one clockwise, so under
    sustained load the ring fills head-to-tail and a genuine hold/wait
    cycle forms — the textbook wormhole deadlock the dateline scheme
    exists to prevent.
    """

    name = "clockwise"

    @property
    def num_virtual_channels(self):
        return 1

    def candidates(self, state, current, dst):
        self._check_not_delivered(current, dst)
        return [(self.topology.out_link(current, 0, 1), 0)]


def _deadlock_report(
    config, algorithm, stepper=Engine, attach_at=None
) -> DeadlockError:
    """Run to the watchdog trip; *attach_at* attaches an observer at
    that cycle (before the trip) instead of from construction."""
    engine = stepper(config, algorithm=algorithm)
    with pytest.raises(DeadlockError, match="no progress") as excinfo:
        if attach_at is not None:
            engine.run_cycles(attach_at)
            engine.attach_observer(Observer())
        engine.run_cycles(30000)
    return excinfo.value


def _clockwise_case(**overrides):
    config = tiny_config(
        radix=8,
        n_dims=1,
        offered_load=1.0,
        message_length=8,
        deadlock_threshold=500,
        sanitize=True,
        seed=2,
        **overrides,
    )
    return config, _Clockwise(Torus(8, 1))


def _never_routes_case(**overrides):
    config = tiny_config(
        offered_load=0.5, deadlock_threshold=300, sanitize=True, **overrides
    )
    return config, NeverRoutes(Torus(4, 2))


class TestSanitizedDeadlockReport:
    def test_cycle_named_with_resources_and_messages(self):
        error = _deadlock_report(*_clockwise_case())
        report = error.report
        assert report is not None
        # A genuine resource cycle, every resource held by a named message.
        assert report.cycle is not None and len(report.cycle) >= 2
        for resource in report.cycle:
            assert report.holders[resource] in report.cycle_messages()
        # All clockwise traffic uses vc class 0.
        assert all(vc_class == 0 for _, vc_class in report.cycle)
        # The exception text carries the diagnostic.
        text = str(error)
        assert "wait-for cycle" in text
        assert "blocked messages" in text
        assert "holds" in text and "waits on" in text

    def test_broken_algorithm_reports_blockage_without_cycle(self):
        """The watchdog's regression algorithm (NeverRoutes) starves
        messages on an empty candidate set: blocked messages are named,
        but there is no hold/wait cycle to report."""
        error = _deadlock_report(*_never_routes_case())
        report = error.report
        assert report is not None
        assert report.cycle is None
        assert report.cycle_messages() == []
        assert len(report.blocked) > 0
        assert all(entry.requested == [] for entry in report.blocked)
        assert "no wait-for cycle" in str(error)
        assert "empty candidate set" in str(error)

    def test_unsanitized_deadlock_has_no_report_but_hints(self, torus4):
        config = tiny_config(offered_load=0.5, deadlock_threshold=300)
        error = _deadlock_report(config, NeverRoutes(torus4))
        assert error.report is None
        assert "sanitize=True" in str(error)

    @pytest.mark.parametrize(
        "observed",
        [{}, {"obs": True}, {"attach_at": 200}],
        ids=["unobserved", "observed", "attached-mid-run"],
    )
    @pytest.mark.parametrize("case", [_clockwise_case, _never_routes_case])
    def test_report_equals_the_reference_steppers(self, case, observed):
        """The graph is built at the trip from the waiting set (heap plus
        parked) and each message's cached candidates; the reference
        re-polls every blocked message every cycle and must name the
        same cycle, holders and blockage — observed or not (an observer
        does not change how the engine parks), from the start or from
        mid-run."""
        attach_at = observed.get("attach_at")
        config, algorithm = case(obs=observed.get("obs", False))
        reports = [
            _deadlock_report(config, algorithm, stepper, attach_at)
            for stepper in (ScanEngine, Engine)
        ]
        reference, report = (error.report for error in reports)
        assert report.cycle == reference.cycle
        assert report.holders == reference.holders
        assert [
            (entry.msg_id, entry.held, entry.requested)
            for entry in report.blocked
        ] == [
            (entry.msg_id, entry.held, entry.requested)
            for entry in reference.blocked
        ]
        assert len(report.blocked) > 0
        assert str(reports[0]) == str(reports[1])

    @pytest.mark.parametrize(
        "observed",
        [{"obs": True}, {"attach_at": 200}],
        ids=["observed", "attached-mid-run"],
    )
    def test_trace_ends_with_settled_waits_then_the_deadlock(self, observed):
        """At the trip every message is parked in an open episode: the
        observer settles them (through the trip cycle, which the
        reference polled too), then writes the deadlock event — and
        settling again afterwards adds nothing."""
        config, algorithm = _clockwise_case(obs=observed.get("obs", False))
        books = []
        for stepper in (ScanEngine, Engine):
            engine = stepper(config, algorithm=algorithm)
            with pytest.raises(DeadlockError):
                if "attach_at" in observed:
                    engine.run_cycles(observed["attach_at"])
                    engine.attach_observer(Observer())
                engine.run_cycles(30000)
            observer = engine.observer
            assert observer.trace.dropped == 0
            counts = dict(observer.event_counts)
            first = observer.metrics_summary()
            assert observer.metrics_summary() == first
            assert observer.event_counts == counts
            books.append((counts, list(observer.heatmap.blocked)))
        assert books[0] == books[1]
        # (engine, observer: the Engine's, from the last iteration.)
        *waits, last = observer.trace.events[-len(engine._parked) - 1:]
        assert last["event"] == "deadlock" and engine._parked
        assert [
            (event["event"], event["cycle"], event["msg"]) for event in waits
        ] == [
            ("msg_blocked", engine.cycle, msg_id)
            for msg_id in engine._parked
        ]
        assert all(event["cycles"] > 1 for event in waits)

    def test_sanitizer_costs_no_routing_attempts(self):
        """``sanitize`` only gates the report: blocked messages park and
        channels are polled exactly as without it (counts, not timing)."""

        def counts(algorithm, sanitize):
            engine = Engine(SimulationConfig(
                radix=6, n_dims=2, algorithm=algorithm, offered_load=0.8,
                seed=42, sanitize=sanitize,
            ))
            select, attempts = engine._select, []

            def counted(*args):
                attempts.append(None)
                return select(*args)

            engine._select = counted
            engine.run_cycles(1200)
            assert engine._parked, "not congested enough to park"
            return len(attempts), engine.polls_total, engine.flits_moved_total

        for algorithm in ("ecube", "nbc"):
            assert counts(algorithm, True) == counts(algorithm, False)

    def test_sanitized_run_matches_unsanitized_results(self):
        """The sanitizer observes; it must not perturb the simulation."""
        plain = Engine(tiny_config(seed=11))
        sanitized = Engine(tiny_config(seed=11, sanitize=True))
        plain.run_cycles(1500)
        sanitized.run_cycles(1500)
        assert sanitized.delivered_total == plain.delivered_total
        assert sanitized.flits_moved_total == plain.flits_moved_total
        assert sanitized.conservation_check()


class TestWaitForGraph:
    class _FakeVc:
        def __init__(self, link_index, vc_class):
            self.link = type("L", (), {"index": link_index})()
            self.vc_class = vc_class

    class _FakeMessage:
        def __init__(self, msg_id, src, dst, head_node, path):
            self.msg_id = msg_id
            self.src = src
            self.dst = dst
            self.head_node = head_node
            self.path = path

    def _blocked(self, graph, msg_id, held, requested):
        path = [self._FakeVc(link, vc) for link, vc in held]
        message = self._FakeMessage(msg_id, 0, 1, 2, path)
        graph.record_blocked(message, requested)

    def test_edges_union_over_held_resources(self):
        graph = WaitForGraph()
        self._blocked(graph, 1, [(0, 0), (1, 0)], [(2, 0)])
        assert graph.edges() == {(0, 0): {(2, 0)}, (1, 0): {(2, 0)}}

    def test_reblocking_replaces_stale_edges(self):
        graph = WaitForGraph()
        self._blocked(graph, 1, [(0, 0)], [(1, 0)])
        self._blocked(graph, 1, [(0, 0)], [(3, 0)])  # tail drained, re-blocked
        assert graph.edges() == {(0, 0): {(3, 0)}}
        assert len(graph) == 1

    def test_report_finds_two_message_cycle(self):
        graph = WaitForGraph()
        self._blocked(graph, 1, [(0, 0)], [(1, 0)])
        self._blocked(graph, 2, [(1, 0)], [(0, 0)])
        report = graph.build_report()
        assert report.cycle is not None
        assert set(report.cycle) == {(0, 0), (1, 0)}
        assert sorted(report.cycle_messages()) == [1, 2]
        assert "wait-for cycle of 2 resources" in report.format()

    def test_report_truncates_long_blockage_lists(self):
        graph = WaitForGraph()
        for msg_id in range(20):
            self._blocked(graph, msg_id, [], [(0, 0)])
        text = graph.build_report().format(max_blocked=4)
        assert "... and 16 more" in text
