"""The runtime wait-for-graph sanitizer and its deadlock reports."""

import dataclasses

import pytest

from repro.obs.observer import Observer
from repro.routing.base import RoutingAlgorithm
from repro.simulator.batch import BatchEngine
from repro.simulator.engine import Engine
from repro.simulator.reference import ScanEngine
from repro.simulator.sanitizer import (
    BlockedMessage,
    build_report,
    wait_for_edges,
)
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


def _lane_reports(config, algorithm, seeds, cycles=30000):
    """Every lane's recorded DeadlockError after *cycles*, and the
    engine (for its surviving lanes)."""
    engine = BatchEngine(
        config, seeds, topology=algorithm.topology, algorithm=algorithm
    )
    engine.run_cycles(cycles)
    return engine.lane_errors(), engine


def _as_batch(config):
    return dataclasses.replace(
        config, backend="batch", identity="relaxed",
        flow_control="conservative",
    )


def _clockwise_case(**overrides):
    config = tiny_config(
        radix=8,
        n_dims=1,
        offered_load=1.0,
        message_length=8,
        deadlock_threshold=500,
        seed=2,
        **overrides,
    )
    return config, _Clockwise(Torus(8, 1))


def _never_routes_case(**overrides):
    config = tiny_config(
        **{"offered_load": 0.5, "deadlock_threshold": 300, **overrides}
    )
    return config, NeverRoutes(Torus(4, 2))


def _assert_names_the_ring_cycle(error):
    """A genuine resource cycle, every resource held by a named message
    and of vc class 0 (all clockwise traffic uses it), in the text."""
    report = error.report
    assert report.cycle is not None and len(report.cycle) >= 2
    for resource in report.cycle:
        assert report.holders[resource] in report.cycle_messages()
    assert all(vc_class == 0 for _, vc_class in report.cycle)
    text = str(error)
    assert "wait-for cycle" in text
    assert "blocked messages" in text
    assert "holds" in text and "waits on" in text


def _assert_names_blockage_without_cycle(error):
    """Messages starve on an empty candidate set: they are named, but
    there is no hold/wait cycle to report."""
    report = error.report
    assert report.cycle is None
    assert report.cycle_messages() == []
    assert len(report.blocked) > 0
    assert all(entry.requested == [] for entry in report.blocked)
    assert "no wait-for cycle" in str(error)
    assert "empty candidate set" in str(error)


def _report_rows(report):
    return (
        report.cycle,
        report.holders,
        [
            (entry.msg_id, entry.held, entry.requested, entry.queued_at)
            for entry in report.blocked
        ],
    )


class TestSanitizedDeadlockReport:
    def test_cycle_named_with_resources_and_messages(self):
        _assert_names_the_ring_cycle(_deadlock_report(*_clockwise_case()))

    def test_broken_algorithm_reports_blockage_without_cycle(self):
        """The watchdog's regression algorithm (NeverRoutes)."""
        _assert_names_blockage_without_cycle(
            _deadlock_report(*_never_routes_case())
        )

    def test_batch_lanes_name_the_ring_cycle(self):
        config, algorithm = _clockwise_case()
        errors, _ = _lane_reports(_as_batch(config), algorithm, [2, 3, 4])
        assert sorted(errors) == [0, 1, 2]
        for error in errors.values():
            _assert_names_the_ring_cycle(error)

    def test_batch_lanes_report_blockage_without_cycle(self):
        config, algorithm = _never_routes_case()
        errors, _ = _lane_reports(_as_batch(config), algorithm, [7, 8])
        assert sorted(errors) == [0, 1]
        for error in errors.values():
            _assert_names_blockage_without_cycle(error)

    def test_every_trip_reports(self):
        """No knob gates the diagnosis: whichever stepper trips, the
        error carries the report, and its text is the summary followed
        by the formatted report."""
        config, algorithm = _never_routes_case()
        errors = [
            _deadlock_report(config, algorithm, stepper)
            for stepper in (Engine, ScanEngine)
        ]
        lanes, _ = _lane_reports(_as_batch(config), algorithm, [7])
        errors.append(lanes[0])
        for error in errors:
            report = error.report
            assert report.summary.startswith("no progress for 300 cycles")
            assert str(error) == report.summary + "\n" + report.format()
            assert "sanitize" not in str(error)
        assert "[batch lane 0, seed 7]" in lanes[0].report.summary

    @pytest.mark.parametrize(
        "case, seeds, cycles",
        [(_clockwise_case, [2, 3, 4], 30000),
         (_never_routes_case, [1, 2, 3, 6], 200)],
        ids=["clockwise", "never-routes-trickle"],
    )
    def test_batch_report_is_composition_independent(
        self, case, seeds, cycles
    ):
        """A failing lane reports the same cycle, holders and blocked
        rows alone as beside other seeds, and building a report only
        reads state: a lane that does not trip keeps its lone run's
        fingerprint."""
        overrides = (
            {"offered_load": 0.0005, "deadlock_threshold": 50}
            if case is _never_routes_case else {}
        )
        config, algorithm = case(**overrides)
        config = _as_batch(config)
        errors, group = _lane_reports(config, algorithm, seeds, cycles)
        assert errors
        for index, seed in enumerate(seeds):
            alone, single = _lane_reports(config, algorithm, [seed], cycles)
            if index not in errors:
                assert alone == {}
                assert group.state_fingerprint(index) == (
                    single.state_fingerprint(0)
                )
                continue
            assert _report_rows(errors[index].report) == (
                _report_rows(alone[0].report)
            )

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


class TestWaitForGraph:
    @staticmethod
    def _row(msg_id, held, requested):
        return BlockedMessage(msg_id, 0, 1, 2, held, requested)

    def test_edges_union_over_held_resources(self):
        edges = wait_for_edges([self._row(1, [(0, 0), (1, 0)], [(2, 0)])])
        assert edges == {(0, 0): {(2, 0)}, (1, 0): {(2, 0)}}

    def test_report_finds_two_message_cycle(self):
        report = build_report([
            self._row(1, [(0, 0)], [(1, 0)]),
            self._row(2, [(1, 0)], [(0, 0)]),
        ])
        assert report.cycle is not None
        assert set(report.cycle) == {(0, 0), (1, 0)}
        assert sorted(report.cycle_messages()) == [1, 2]
        assert "wait-for cycle of 2 resources" in report.format()

    def test_report_truncates_long_blockage_lists(self):
        report = build_report(
            [self._row(msg_id, [], [(0, 0)]) for msg_id in range(20)]
        )
        assert "... and 16 more" in report.format(max_blocked=4)
