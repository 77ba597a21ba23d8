"""The repro.obs observability layer.

Two properties anchor everything here:

* attaching an observer never changes simulated behaviour (the
  golden-parity test drives the same config with and without one and
  compares every counter);
* what the observer reports is consistent with the engine's own
  lifetime counters (events vs totals, heatmap vs flits moved).
"""

import io
import json
import os

import pytest

from tests.conftest import tiny_config
from repro.obs import (
    EVENT_TYPES,
    CongestionHeatmap,
    ObsConfig,
    Observer,
    PhaseProfiler,
    ProbeRegistry,
    RingBuffer,
    TraceWriter,
    validate_trace_lines,
)
from repro.simulator.engine import Engine
from repro.simulator.reference import ScanEngine
from repro.util.errors import ConfigurationError


class TestRingBuffer:
    def test_keeps_everything_under_capacity(self):
        ring = RingBuffer(4)
        for value in range(3):
            ring.append(value)
        assert ring.to_list() == [0, 1, 2]
        assert ring.dropped == 0
        assert ring.last() == 2

    def test_overwrites_oldest_when_full(self):
        ring = RingBuffer(3)
        for value in range(10):
            ring.append(value)
        assert ring.to_list() == [7, 8, 9]
        assert ring.dropped == 7
        assert len(ring) == 3

    def test_iterates_oldest_first(self):
        ring = RingBuffer(2)
        ring.append("a")
        ring.append("b")
        ring.append("c")
        assert list(ring) == ["b", "c"]

    def test_empty_last_raises(self):
        with pytest.raises(IndexError):
            RingBuffer(2).last()


class TestTraceWriter:
    def test_limit_counts_dropped(self):
        trace = TraceWriter(limit=2)
        for cycle in range(5):
            trace.emit(cycle, "msg_created", msg=cycle)
        assert len(trace) == 2
        assert trace.dropped == 3

    def test_written_trace_validates(self):
        trace = TraceWriter(meta={"label": "t"})
        trace.emit(1, "msg_created", msg=0, src=0, dst=5)
        trace.emit(2, "vc_acquired", msg=0, link=3, vc=0)
        trace.emit(9, "msg_delivered", msg=0)
        stream = io.StringIO()
        trace.write(stream)
        counts = validate_trace_lines(stream.getvalue().splitlines())
        assert counts == {
            "msg_created": 1,
            "vc_acquired": 1,
            "msg_delivered": 1,
        }

    def test_header_carries_schema_and_meta(self):
        trace = TraceWriter(meta={"seed": 7})
        stream = io.StringIO()
        trace.write(stream)
        header = json.loads(stream.getvalue().splitlines()[0])
        assert header["schema"] == "repro.obs.trace"
        assert header["version"] == 2
        assert header["meta"] == {"seed": 7}

    def test_version_1_traces_are_rejected_not_migrated(self):
        """v1 wrote one msg_blocked record per blocked cycle and no
        ``cycles`` field; a v2 reader must not count those as episodes."""
        trace = TraceWriter()
        stream = io.StringIO()
        trace.write(stream)
        lines = stream.getvalue().splitlines()
        lines[0] = lines[0].replace('"version": 2', '"version": 1')
        with pytest.raises(ValueError, match="unexpected version 1"):
            validate_trace_lines(lines)

    def test_msg_blocked_records_must_carry_cycles(self):
        trace = TraceWriter()
        trace.emit(3, "msg_blocked", msg=0, node=1, candidates=[[0, 0]])
        stream = io.StringIO()
        trace.write(stream)
        with pytest.raises(ValueError, match="cycles"):
            validate_trace_lines(stream.getvalue().splitlines())

    @pytest.mark.parametrize(
        "lines",
        [
            [],  # nothing at all
            ['{"record": "event"}', '{"record": "footer", "events": 0}'],
            [
                '{"record": "header", "schema": "wrong", "version": 1}',
                '{"record": "footer", "events": 0, "dropped": 0}',
            ],
            [
                '{"record": "header", "schema": "repro.obs.trace",'
                ' "version": 2}',
                '{"record": "event", "cycle": 1, "event": "not_a_type"}',
                '{"record": "footer", "events": 1, "dropped": 0}',
            ],
            [
                '{"record": "header", "schema": "repro.obs.trace",'
                ' "version": 2}',
                '{"record": "event", "cycle": 1, "event": "msg_created"}',
                '{"record": "footer", "events": 7, "dropped": 0}',
            ],
            [
                '{"record": "header", "schema": "repro.obs.trace",'
                ' "version": 2}',
                "[1]",  # a JSON value, but not a record
                '{"record": "footer", "events": 1, "dropped": 0}',
            ],
            ["", ""],  # blank lines only
        ],
    )
    def test_validate_rejects_malformed(self, lines):
        with pytest.raises(ValueError):
            validate_trace_lines(lines)

    def test_event_types_are_distinct(self):
        assert len(set(EVENT_TYPES)) == len(EVENT_TYPES)


class TestObsConfig:
    def test_rejects_unknown_options(self):
        with pytest.raises(ConfigurationError):
            ObsConfig.from_options({"strides": 8})

    def test_accepts_known_options(self):
        config = ObsConfig.from_options(
            {"stride": 8, "trace": False, "export_dir": "/tmp/x"}
        )
        assert config.stride == 8
        assert not config.trace
        assert config.export_dir == "/tmp/x"

    def test_rejects_nonpositive_stride(self):
        with pytest.raises(Exception):
            ObsConfig(stride=0)


class TestProbeRegistry:
    def test_duplicate_name_rejected(self):
        registry = ProbeRegistry()
        registry.register("x", lambda e: 0)
        with pytest.raises(ConfigurationError):
            registry.register("x", lambda e: 1)

    def test_default_excludes_vectors_on_request(self):
        with_vectors = ProbeRegistry.default()
        without = ProbeRegistry.default(vectors=False)
        assert len(without) < len(with_vectors)
        assert without.scalar_names() == without.names


def _observed_engine(cycles=1500, **obs_options):
    config = tiny_config(offered_load=0.5)
    engine = Engine(config)
    observer = Observer(ObsConfig(**obs_options))
    engine.attach_observer(observer)
    engine.run_cycles(cycles)
    return engine, observer


class TestObserverParity:
    def test_observed_run_is_bit_identical(self):
        config = tiny_config(offered_load=0.5)
        plain = Engine(config)
        plain.run_cycles(1500)

        observed, _ = _observed_engine(1500, stride=8, trace_flits=True)
        assert (
            observed.flits_moved_total,
            observed.generated_total,
            observed.delivered_total,
            observed.controller.refused,
        ) == (
            plain.flits_moved_total,
            plain.generated_total,
            plain.delivered_total,
            plain.controller.refused,
        )
        assert observed.conservation_check()


class TestObserverAccounting:
    def test_event_counts_match_engine_totals(self):
        engine, observer = _observed_engine(trace_flits=True)
        counts = observer.event_counts
        assert counts["msg_created"] == engine.generated_total
        assert counts["msg_delivered"] == engine.delivered_total
        assert counts["flit_moved"] == engine.flits_moved_total
        assert counts.get("msg_refused", 0) == engine.controller.refused

    def test_heatmap_carried_matches_flits_moved(self):
        engine, observer = _observed_engine()
        totals = observer.metrics_summary()["heatmap"]
        assert totals["flits_carried"] == engine.flits_moved_total

    def test_metrics_summary_schema(self):
        engine, observer = _observed_engine()
        metrics = observer.metrics_summary()
        assert metrics["schema"] == "repro.obs.metrics"
        assert metrics["version"] == 1
        assert metrics["last_cycle"] == engine.cycle
        assert "in_flight_messages" in metrics["probes"]
        assert metrics["profile"]  # timed phases present
        json.dumps(metrics)  # JSON-ready throughout

    def test_probe_samples_follow_stride(self):
        _, observer = _observed_engine(stride=50)
        cycles = [cycle for cycle, _ in observer.probes.series(
            "in_flight_messages"
        )]
        assert cycles, "no samples recorded"
        assert all(cycle % 50 == 0 for cycle in cycles)

    def test_trace_validates_end_to_end(self):
        _, observer = _observed_engine(trace_limit=500)
        stream = io.StringIO()
        observer.trace.write(stream)
        counts = validate_trace_lines(stream.getvalue().splitlines())
        assert sum(counts.values()) == 500  # limit enforced
        assert observer.trace.dropped > 0

    def test_settling_open_episodes_is_idempotent(self, tmp_path):
        """export() and metrics_summary() both settle the blocked
        episodes still open in the engine's parked set; doing it again
        at the same cycle charges nothing, and the engine's eventual
        report of such an episode charges only the remainder."""
        config = tiny_config(offered_load=0.9)
        engine, reference = Engine(config), ScanEngine(config)
        for stepper in (engine, reference):
            stepper.attach_observer(Observer(ObsConfig(trace_limit=10**6)))
            stepper.run_cycles(700)
        observer = engine.observer
        assert engine._parked and not reference._parked
        observer.export(str(tmp_path), prefix="point")
        with open(tmp_path / "point.metrics.json") as stream:
            exported = json.load(stream)
        first = observer.metrics_summary()
        second = observer.metrics_summary()
        for summary in (exported, first):
            summary.pop("profile")  # wall-clock
        second.pop("profile")
        assert exported == first == second
        assert (
            first["events"]["msg_blocked"]
            == reference.observer.metrics_summary()["events"]["msg_blocked"]
        )
        # Settled mid-episode, then reported by the engine: no double
        # charge.
        for stepper in (engine, reference):
            stepper.run_cycles(300)
        assert (
            observer.metrics_summary()["heatmap"]
            == reference.observer.metrics_summary()["heatmap"]
        )
        assert observer.heatmap.blocked == reference.observer.heatmap.blocked

    def test_attach_twice_rejected(self):
        engine, observer = _observed_engine(cycles=10)
        with pytest.raises(ConfigurationError):
            engine.attach_observer(Observer())
        with pytest.raises(ConfigurationError):
            Engine(tiny_config()).attach_observer(observer)

    def test_flit_tracing_follows_attach_and_detach(self):
        """``flit_moved`` events fire per flit while a tracing observer
        is attached, in the reference stepper's order, and not at all
        while none is."""
        config = tiny_config(offered_load=0.9)
        sequences = []
        for stepper in (ScanEngine, Engine):
            engine = stepper(config)
            events = []
            for _ in range(2):
                observer = Observer(
                    ObsConfig(trace_flits=True, trace_limit=10**6)
                )
                engine.attach_observer(observer)
                before = engine.flits_moved_total
                engine.run_cycles(300)
                moved = engine.flits_moved_total - before
                assert engine.detach_observer() is observer
                assert engine.observer is None
                engine.run_cycles(100)  # detached: the hook is silent
                assert engine.flits_moved_total > before + moved
                assert observer.event_counts["flit_moved"] == moved > 0
                events += [
                    event for event in observer.trace.events
                    if event["event"] == "flit_moved"
                ]
            sequences.append(events)
        assert sequences[0] == sequences[1]


class TestExport:
    def test_export_writes_full_artifact_set(self, tmp_path):
        _, observer = _observed_engine()
        written = observer.export(str(tmp_path), prefix="point")
        names = sorted(os.path.basename(path) for path in written)
        assert names == [
            "point.heatmap.csv",
            "point.heatmap.txt",
            "point.metrics.json",
            "point.probes.csv",
            "point.probes.ndjson",
            "point.trace.ndjson",
        ]
        with open(tmp_path / "point.trace.ndjson") as stream:
            validate_trace_lines(stream.readlines())
        with open(tmp_path / "point.metrics.json") as stream:
            assert json.load(stream)["schema"] == "repro.obs.metrics"
        with open(tmp_path / "point.probes.csv") as stream:
            header = stream.readline().strip().split(",")
        assert header[0] == "cycle"
        assert "network_flits" in header

    def test_export_without_directory_rejected(self):
        _, observer = _observed_engine(cycles=10)
        with pytest.raises(ConfigurationError):
            observer.export()


class TestHeatmap:
    def test_node_grid_requires_2d(self, torus4_3d):
        heatmap = CongestionHeatmap(torus4_3d)
        with pytest.raises(ValueError):
            heatmap.node_grid()
        # the ASCII rendering falls back to a top-list for non-2D
        assert "top links" in heatmap.ascii("blocked")

    def test_unknown_metric_rejected(self, torus4):
        with pytest.raises(ValueError):
            CongestionHeatmap(torus4).ascii("latency")


class TestProfiler:
    def test_table_lists_recorded_phases(self):
        profiler = PhaseProfiler()
        profiler.add("routing", 0.25)
        profiler.add("routing", 0.25)
        profiler.add("transmission", 0.5)
        table = profiler.format_table()
        assert "routing" in table and "transmission" in table
        assert "generation" not in table  # unrecorded phases omitted
        assert profiler.total_seconds() == pytest.approx(1.0)


class TestRunPointIntegration:
    def test_obs_metrics_in_result_and_checkpoint(self, tmp_path):
        from repro.experiments.parallel import run_points
        from repro.experiments.runner import run_point

        config = tiny_config(
            obs=True, obs_options={"stride": 16, "profile": False}
        )
        result = run_point(config)
        assert result.obs_metrics is not None
        assert result.obs_metrics["events"]["msg_created"] > 0

        checkpoint = str(tmp_path / "ckpt.json")
        first = run_points([config], checkpoint_path=checkpoint)
        again = run_points([config], checkpoint_path=checkpoint)
        assert again[0].obs_metrics == first[0].obs_metrics

    def test_export_dir_writes_artifacts(self, tmp_path):
        from repro.experiments.runner import obs_export_prefix, run_point

        out = tmp_path / "artifacts"
        config = tiny_config(
            obs=True, obs_options={"export_dir": str(out)}
        )
        run_point(config)
        prefix = obs_export_prefix(config)
        assert (out / f"{prefix}.trace.ndjson").exists()
        assert (out / f"{prefix}.heatmap.csv").exists()

    def test_bad_obs_options_fail_at_engine_build(self):
        config = tiny_config(obs=True, obs_options={"nope": 1})
        with pytest.raises(ConfigurationError):
            Engine(config)
