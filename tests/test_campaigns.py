"""Tests for :mod:`repro.campaigns`: specs, store, orchestrator, CLI.

The contract of the campaign layer:

* a :class:`CampaignSpec` expands its grid in a fixed, documented order
  and round-trips through JSON;
* the :class:`ResultStore` is content-addressed and shared across
  campaigns — a point simulated once is **never** simulated again, by
  any campaign that expands to the same config (asserted by booby-
  trapping the engine workers), and what it serves is bit-identical to
  a fresh run;
* collision hygiene: the store never serves a result for a config it
  was not simulated from, and refuses to pair one key with two configs;
* exports are deterministic and fail loudly on missing points;
* the ``repro-campaign`` CLI wires it all together.
"""

import dataclasses
import io
import json
import os

import pytest

from repro.campaigns.cli import _load_specs, _parse_args
from repro.campaigns.cli import main as campaign_main
from repro.campaigns.export import (
    IncompleteCampaignError,
    collect,
    format_campaign_tables,
    grid_series,
    write_campaign_csv,
)
from repro.campaigns.identity import (
    campaign_signature,
    config_key,
    config_record_dict,
    point_key,
    result_key,
)
from repro.campaigns.orchestrator import run_campaign
from repro.campaigns.spec import (
    CampaignSpec,
    TrafficSpec,
    format_topology,
    grid_label,
    parse_topology,
)
from repro.campaigns.store import (
    STORE_VERSION,
    ResultStore,
    StoreIntegrityError,
    StoreWarning,
)
from repro.experiments import paper_figures
from repro.experiments.parallel import run_sweep_points
from repro.experiments.profiles import apply_profile
from repro.experiments.runner import run_point
from repro.experiments.sweep import PAPER_LOADS
from repro.routing.registry import ALGORITHM_NAMES
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult
from repro.util.errors import ConfigurationError
from tests.conftest import tiny_config

#: Shared (non-grid) config fields matching tests.conftest.tiny_config,
#: so campaign points stay fast 4x4-torus simulations.
TINY_BASE = {
    "message_length": 4,
    "warmup_cycles": 200,
    "sample_cycles": 300,
    "gap_cycles": 50,
    "min_samples": 3,
    "max_samples": 3,
}


def tiny_spec(
    name="tiny",
    algorithms=("ecube",),
    loads=(0.2,),
    seeds=(7,),
    base=(),
    **kwargs,
):
    """A fast campaign over the same 4x4 torus tiny_config uses."""
    return CampaignSpec(
        name=name,
        algorithms=tuple(algorithms),
        loads=tuple(loads),
        seeds=tuple(seeds),
        topologies=("torus:4x2",),
        base=dict(TINY_BASE, **dict(base)),
        **kwargs,
    )


def boobytrap_workers(monkeypatch):
    """Make any engine invocation fail the test (cache-hit assertions)."""

    def boom(arg):
        raise AssertionError(f"engine invoked for {arg!r}")

    monkeypatch.setattr(
        "repro.experiments.parallel._run_point_worker", boom
    )
    monkeypatch.setattr(
        "repro.experiments.parallel._run_batch_worker", boom
    )


class TestTopologyAndTraffic:
    def test_parse_topology_roundtrip(self):
        assert parse_topology("torus:16x2") == ("torus", 16, 2)
        assert parse_topology("mesh:4x3") == ("mesh", 4, 3)
        assert format_topology("torus", 16, 2) == "torus:16x2"

    @pytest.mark.parametrize(
        "bad", ["ring:4x2", "torus", "torus:ax2", "torus:4", "torus:1x2"]
    )
    def test_parse_topology_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            parse_topology(bad)

    def test_traffic_spec_parse_forms(self):
        assert TrafficSpec.parse("uniform") == TrafficSpec("uniform")
        parsed = TrafficSpec.parse(
            {"pattern": "hotspot", "options": {"fraction": 0.04}}
        )
        assert parsed.pattern == "hotspot"
        assert parsed.options_dict() == {"fraction": 0.04}
        assert parsed.label() == "hotspot(fraction=0.04)"
        assert TrafficSpec.parse(parsed) is parsed

    def test_traffic_spec_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec.parse({"options": {}})
        with pytest.raises(ConfigurationError):
            TrafficSpec.parse({"pattern": "uniform", "extra": 1})
        with pytest.raises(ConfigurationError):
            TrafficSpec.parse(42)


class TestCampaignSpec:
    def test_expansion_order_and_count(self):
        spec = tiny_spec(
            algorithms=("ecube", "nbc"), loads=(0.2, 0.4), seeds=(1, 2)
        )
        configs = spec.expand()
        assert len(configs) == 8
        assert [(c.algorithm, c.offered_load, c.seed) for c in configs] == [
            ("ecube", 0.2, 1), ("ecube", 0.2, 2),
            ("ecube", 0.4, 1), ("ecube", 0.4, 2),
            ("nbc", 0.2, 1), ("nbc", 0.2, 2),
            ("nbc", 0.4, 1), ("nbc", 0.4, 2),
        ]
        assert all(c.radix == 4 and c.topology == "torus" for c in configs)
        assert all(c.warmup_cycles == 200 for c in configs)

    def test_lane_suffixed_algorithms_are_grid_names(self):
        """A spec takes every name ``make_algorithm`` parses."""
        configs = tiny_spec(algorithms=("ecube", "ecubex2")).expand()
        assert [c.algorithm for c in configs] == ["ecube", "ecubex2"]
        (spec,) = _load_specs(_parse_args(["run", "--algorithms", "ecubex2"]))
        assert spec.algorithms == ("ecubex2",)
        with pytest.raises(
            ConfigurationError, match="unknown routing algorithm 'ecubexx'"
        ):
            tiny_spec(algorithms=("ecubexx",))

    def test_expand_builds_what_dataclasses_replace_built(self):
        """Field by field, types included, against the per-point
        ``dataclasses.replace`` construction expand() used to make."""
        spec = dataclasses.replace(
            tiny_spec(
                algorithms=("ecube", "nbc"), loads=(0.2, 0.4), seeds=(1, 2),
                traffics=(
                    "uniform", TrafficSpec("hotspot", (("fraction", 0.1),))
                ),
                base=dict(
                    obs=True, obs_options={"stride": 8}, gap_cycles=60.0
                ),
            ),
            topologies=("torus:4x2", "mesh:4x2"),
        )
        shared = spec.base_config()
        reference = [
            dataclasses.replace(
                shared, topology=kind, radix=radix, n_dims=n_dims,
                traffic=traffic.pattern,
                traffic_options=traffic.options_dict(),
                algorithm=algorithm, offered_load=load, seed=seed,
            )
            for kind, radix, n_dims in map(parse_topology, spec.topologies)
            for traffic in spec.traffics
            for algorithm in spec.algorithms
            for load in spec.loads
            for seed in spec.seeds
        ]
        points = spec.expand()
        assert len(points) == len(reference) == 32
        for point, expected in zip(points, reference):
            for name in (f.name for f in dataclasses.fields(SimulationConfig)):
                value, want = getattr(point, name), getattr(expected, name)
                assert (type(value), value) == (type(want), want), name
        # As replace() left them: one obs_options object shared by every
        # point, a traffic_options dict of each point's own.
        assert len({id(point.obs_options) for point in points}) == 1
        assert len({id(point.traffic_options) for point in points}) == 32
        points[0].traffic_options["fraction"] = 0.5
        assert points[1].traffic_options == {}
        assert points[-1].traffic_options == {"fraction": 0.1}

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"loads": (0.2, -0.1)}, "offered_load"),
            ({"base": {"relative_error": 1.5}}, "relative_error"),
            ({"base": {"backend": "batch"}}, "conservative"),
        ],
    )
    def test_expand_validates_every_point(self, kwargs, message):
        """Each point still runs the config's own validation."""
        with pytest.raises(ConfigurationError, match=message):
            tiny_spec(**kwargs).expand()

    def test_expanded_points_share_one_signature(self):
        configs = tiny_spec(
            algorithms=("ecube", "nbc"), loads=(0.2, 0.4), seeds=(1, 2)
        ).expand()
        assert len({campaign_signature(c) for c in configs}) == 1
        assert len({point_key(c) for c in configs}) == len(configs)

    def test_relaxed_never_aliases_object(self):
        # Batch results are only statistically equivalent to the object
        # engine's and must live under their own addresses, never
        # served where the object engine's were asked for.  The
        # signature leaves `backend` out, so it is `identity` — which
        # config validation ties to the backend — that keeps them apart.
        object_engine = tiny_config(flow_control="conservative")
        relaxed = dataclasses.replace(
            object_engine, backend="batch", identity="relaxed"
        )
        assert campaign_signature(relaxed) != campaign_signature(
            object_engine
        )
        assert point_key(relaxed) == point_key(object_engine)
        assert config_key(relaxed) != config_key(object_engine)
        assert config_record_dict(relaxed) != config_record_dict(
            object_engine
        )
        assert "backend" not in config_record_dict(relaxed)
        for backend, identity in (("object", "relaxed"), ("batch", "strict")):
            with pytest.raises(ConfigurationError):
                dataclasses.replace(
                    object_engine, backend=backend, identity=identity
                )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithms": ()},
            {"algorithms": ("warp-drive",)},
            {"loads": ()},
            {"profile": "warp"},
            {"base": {"offered_load": 0.5}},
            {"name": "a/b"},
        ],
    )
    def test_validation_rejects(self, kwargs):
        defaults = dict(
            name="x", algorithms=("ecube",), loads=(0.2,)
        )
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError):
            CampaignSpec(**defaults)

    @staticmethod
    def _spec_off_defaults():
        """A spec whose every field is away from its default, so that a
        field ``to_dict`` drops cannot come back as the default."""
        spec = CampaignSpec(
            name="off-defaults",
            algorithms=("ecube", "nbc"),
            loads=(0.2, 0.4),
            seeds=(3, 5),
            topologies=("torus:4x2", "mesh:4x2"),
            traffics=(
                TrafficSpec("hotspot", (("fraction", 0.04),)),
                TrafficSpec("transpose"),
            ),
            profile="tiny",
            base={"message_length": 8},
        )
        for spec_field in dataclasses.fields(CampaignSpec):
            if spec_field.default is not dataclasses.MISSING:
                default = spec_field.default
            elif spec_field.default_factory is not dataclasses.MISSING:
                default = spec_field.default_factory()
            else:
                continue
            assert getattr(spec, spec_field.name) != default, spec_field.name
        return spec

    def test_dict_roundtrip(self):
        spec = self._spec_off_defaults()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        json.dumps(spec.to_dict())  # must be JSON-serializable as-is

    def test_file_roundtrip(self, tmp_path):
        spec = self._spec_off_defaults()
        path = str(tmp_path / "spec.json")
        spec.to_file(path)
        assert CampaignSpec.from_file(path) == spec

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            CampaignSpec.from_dict(
                {"name": "x", "algorithms": ["ecube"], "loads": [0.2],
                 "color": "red"}
            )
        with pytest.raises(ConfigurationError, match="missing required"):
            CampaignSpec.from_dict({"name": "x"})
        with pytest.raises(ConfigurationError, match="not valid JSON|read"):
            CampaignSpec.from_file("/nonexistent/spec.json")

    def test_grid_label(self):
        config = tiny_config(
            traffic="hotspot", traffic_options={"fraction": 0.04}
        )
        assert grid_label(config) == ("torus:4x2", "hotspot(fraction=0.04)")
        vct = tiny_config(switching="vct", vc_buffer_depth=4)
        assert grid_label(vct) == ("torus:4x2", "uniform/vct")


class TestResultStore:
    def test_put_get_roundtrip_and_persistence(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        config = tiny_config(seed=4)
        result = run_point(config)
        store = ResultStore(path)
        assert store.get(config) is None
        assert store.put(config, result) is True
        assert store.put(config, result) is False  # already stored
        assert store.get(config) == result
        # A fresh process sees the same bytes-on-disk record.
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.get(config) == result
        assert reloaded.signatures() == {campaign_signature(config): 1}

    def test_corrupt_line_recovery(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config = tiny_config(seed=4)
        result = run_point(config)
        store = ResultStore(str(path))
        store.put(config, result)
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("garbage garbage\n")
        with pytest.warns(StoreWarning, match="corrupt"):
            recovered = ResultStore(str(path))
        assert recovered.get(config) == result
        sidecar = (tmp_path / "store.jsonl.corrupt").read_text()
        assert "garbage garbage" in sidecar  # original preserved
        # The store itself was rewritten to valid records only.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["v"] for r in records] == [STORE_VERSION]

    def test_same_key_different_config_refused(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config = tiny_config(seed=4)
        result = run_point(config)
        with ResultStore(str(path)) as store:
            store.put(config, result)
        # Forge the collision in the file: the key now holds another
        # config's record.
        record = json.loads(path.read_text())
        record["config"] = config_record_dict(tiny_config(seed=5))
        path.write_text(json.dumps(record) + "\n")
        forged = path.read_bytes()
        tampered = ResultStore(str(path))
        with pytest.raises(StoreIntegrityError, match="different config"):
            tampered.put(config, result)
        assert path.read_bytes() == forged  # nothing was appended

    def test_mismatched_stored_config_is_a_miss(self, tmp_path):
        """A record whose config disagrees with the lookup is never served."""
        path = tmp_path / "store.jsonl"
        config = tiny_config(seed=4)
        result = run_point(config)
        store = ResultStore(str(path))
        store.put(config, result)
        # Craft a collision: same key, different stored config.
        record = json.loads(path.read_text())
        record["config"] = config_record_dict(tiny_config(seed=5))
        path.write_text(json.dumps(record) + "\n")
        tampered = ResultStore(str(path))
        with pytest.warns(StoreWarning, match="collision"):
            assert tampered.get(config) is None

    def test_distinct_configs_get_distinct_keys(self):
        configs = tiny_spec(
            algorithms=("ecube", "nbc", "phop"),
            loads=(0.2, 0.4),
            seeds=(1, 2),
        ).expand()
        keys = {config_key(config) for config in configs}
        assert len(keys) == len(configs) == 12
        # config_key is result_key over (signature, point).
        config = configs[0]
        assert config_key(config) == result_key(
            campaign_signature(config), point_key(config)
        )

    def test_coverage(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        configs = tiny_spec(loads=(0.2, 0.4)).expand()
        result = run_point(configs[0])
        store.put(configs[0], result)
        cached, missing = store.coverage(configs)
        assert cached == 1
        assert missing == [configs[1]]

    def test_coverage_decodes_no_result(self, tmp_path, monkeypatch):
        """``status`` counts cached points by key and stored config only:
        no result is decoded, none is pinned in the store's memory, and
        a mismatched record is a warned miss, as for ``get``."""
        path = str(tmp_path / "store.jsonl")
        configs = tiny_spec(loads=(0.2, 0.4, 0.6)).expand()
        result = run_point(configs[0])
        with ResultStore(path) as store:
            for config in configs[:2]:
                store.put(config, result)
        # Forge a collision in the file: the second point's key now
        # holds another config's record.
        with open(path, encoding="utf-8") as stream:
            records = [json.loads(line) for line in stream]
        records[1]["config"] = config_record_dict(tiny_config(seed=5))
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(json.dumps(r) + "\n" for r in records)
        reopened = ResultStore(path)

        def boom(data):
            raise AssertionError("coverage decoded a result")

        monkeypatch.setattr(SimulationResult, "from_json_dict", boom)
        with pytest.warns(StoreWarning, match="collision"):
            cached, missing = reopened.coverage(configs)
        assert (cached, missing) == (1, configs[1:])
        assert reopened._decoded == {}

    def test_gc_compacts_superseded_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config = tiny_config(seed=4)
        result = run_point(config)
        store = ResultStore(str(path))
        store.put(config, result)
        # Forge the on-disk state the append-only path can leave behind:
        # the same record shadowed twice, last with another result (the
        # last record wins on load).
        line = path.read_text()
        last = json.loads(line)
        last["result"]["average_latency"] += 1.0
        path.write_text(line * 2 + json.dumps(last) + "\n")
        newest = dataclasses.replace(
            result, average_latency=result.average_latency + 1.0
        )
        reloaded = ResultStore(str(path))
        assert reloaded.get(config) == newest
        stats = reloaded.gc()
        assert stats["lines_before"] == 3
        assert stats["lines_after"] == 1
        assert stats["dropped_lines"] == 2
        assert stats["live_records"] == 1
        assert stats["bytes_after"] < stats["bytes_before"]
        # The surviving line is the last one.
        assert ResultStore(str(path)).get(config) == newest

    def test_gc_keeps_another_writers_lines(self, tmp_path):
        """A line appended after this store was opened is folded in
        before the rewrite, as opening the file would read it."""
        path = str(tmp_path / "store.jsonl")
        config = tiny_config(seed=4)
        result = run_point(config)
        writer, compactor = ResultStore(path), ResultStore(path)
        writer.put(config, result)
        stats = compactor.gc()
        assert stats["live_records"] == 1
        assert stats["dropped_lines"] == 0
        assert compactor.get(config) == result
        assert len(ResultStore(path)) == 1

    def test_gc_leaves_sidecars_alone(self, tmp_path):
        """A quarantine sidecar is for a person to inspect and ``rm``."""
        path = tmp_path / "store.jsonl"
        config = tiny_config(seed=4)
        store = ResultStore(str(path))
        store.put(config, run_point(config))
        corrupt = tmp_path / "store.jsonl.corrupt"
        corrupt.write_text("quarantined junk\n")
        assert store.gc()["live_records"] == 1
        assert corrupt.read_text() == "quarantined junk\n"

    def test_gc_on_missing_store_is_a_noop(self, tmp_path):
        store = ResultStore(str(tmp_path / "absent.jsonl"))
        stats = store.gc()
        assert stats["lines_before"] == 0
        assert stats["dropped_lines"] == 0
        assert not (tmp_path / "absent.jsonl").exists()

    def test_put_writes_no_recorded_at(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        config = tiny_config(seed=4)
        store.put(config, run_point(config))
        record = json.loads(path.read_text().splitlines()[0])
        assert list(record) == [
            "kind", "v", "key", "signature", "point", "config", "result"
        ]


class TestCrossCampaignMemoization:
    def test_shared_points_are_never_resimulated(
        self, tmp_path, monkeypatch
    ):
        """Two campaigns sharing a point: the second gets it for free."""
        store = ResultStore(str(tmp_path / "store.jsonl"))
        first = run_campaign(
            tiny_spec(name="wide", algorithms=("ecube", "nbc")), store
        )
        assert (first.cached, first.simulated) == (0, 2)

        boobytrap_workers(monkeypatch)  # any engine invocation now fails
        second = run_campaign(
            tiny_spec(name="narrow", algorithms=("ecube",)), store
        )
        assert second.all_cached
        # Bit-identical round trip: the store serves the exact result.
        assert second.results == [first.results[0]]

    def test_repeat_run_with_jobs_is_pure_cache(self, tmp_path, monkeypatch):
        """An identical re-run performs zero engine invocations, under
        --jobs as well as serially."""
        store = ResultStore(str(tmp_path / "store.jsonl"))
        spec = tiny_spec(
            name="par", algorithms=("ecube", "phop"), loads=(0.2, 0.3)
        )
        first = run_campaign(spec, store, jobs=2)
        assert first.simulated == 4

        boobytrap_workers(monkeypatch)
        for jobs in (1, 2):
            again = run_campaign(spec, store, jobs=jobs)
            assert again.all_cached
            assert again.results == first.results

    def test_store_served_equals_fresh_run(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        spec = tiny_spec(name="oracle", loads=(0.3,))
        report = run_campaign(spec, store)
        assert report.results == [run_point(c) for c in spec.expand()]


class TestOrchestrator:
    def test_report_counts_and_summary(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        spec = tiny_spec(name="half", loads=(0.2, 0.4))
        configs = spec.expand()
        store.put(configs[0], run_point(configs[0]))
        report = run_campaign(spec, store)
        assert (report.total, report.cached, report.simulated) == (2, 1, 1)
        assert not report.all_cached
        assert "cache hits: 1/2" in report.summary()
        assert report.configs == configs
        assert len(report.results) == 2

    def test_progress_lines_carry_campaign_eta(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        lines = []
        report = run_campaign(
            tiny_spec(name="eta", loads=(0.2, 0.3)),
            store,
            progress=lines.append,
        )
        assert lines[0] == "2 points: 0 in the store, 2 to simulate"
        assert "[1/2]" in lines[1] and "| eta 0:00:0" in lines[1]
        assert "[2/2]" in lines[2] and lines[2].endswith("| eta 0:00:00")
        assert len(lines) == 3  # the summary is the caller's to print
        assert "cache hits: 0/2" in report.summary()

    def test_the_store_is_probed_once_per_point(self, tmp_path, monkeypatch):
        """One get per point, one put per simulated point: the report's
        split comes from the store's growth, not from a second probe."""
        calls = {"get": 0, "put": 0}
        for name in calls:
            def counted(self, *args, _name=name,
                        _real=getattr(ResultStore, name)):
                calls[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(ResultStore, name, counted)
        store = ResultStore(str(tmp_path / "store.jsonl"))
        spec = tiny_spec(name="probe", loads=(0.2, 0.3, 0.4))
        configs = spec.expand()
        store.put(configs[0], run_point(configs[0]))
        calls.update(get=0, put=0)
        cold = run_campaign(spec, store)
        assert (cold.cached, cold.simulated) == (1, 2)
        assert calls == {"get": 3, "put": 2}
        calls.update(get=0, put=0)
        assert run_campaign(spec, store).all_cached
        assert calls == {"get": 3, "put": 0}

    def test_a_point_listed_twice_counts_once_as_simulated(self, tmp_path):
        """The documented limit of reading the split off ``len(store)``:
        a duplicate is simulated twice into one record."""
        store = ResultStore(str(tmp_path / "store.jsonl"))
        spec = tiny_spec(name="twice", algorithms=("ecube", "ecube"))
        report = run_campaign(spec, store)
        assert (report.total, report.cached, report.simulated) == (2, 1, 1)
        assert report.results[0] == report.results[1]
        assert len(store) == 1


class TestExport:
    def _filled(self, tmp_path, **spec_kwargs):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        spec = tiny_spec(**spec_kwargs)
        run_campaign(spec, store)
        return spec, store

    def test_export_is_deterministic(self, tmp_path):
        spec, store = self._filled(
            tmp_path, algorithms=("ecube", "nbc"), loads=(0.2, 0.4)
        )
        streams = [io.StringIO(), io.StringIO()]
        for stream in streams:
            write_campaign_csv(collect(spec, store), stream)
        assert streams[0].getvalue() == streams[1].getvalue()
        header = streams[0].getvalue().splitlines()[0]
        for column in ("topology", "radix", "seed", "algorithm"):
            assert column in header

    def test_missing_points_fail_loudly(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        spec = tiny_spec(loads=(0.2, 0.4))
        with pytest.raises(IncompleteCampaignError, match="2 of its points"):
            collect(spec, store)

    def test_tables_and_grids(self, tmp_path):
        spec, store = self._filled(tmp_path, algorithms=("ecube", "nbc"))
        pairs = collect(spec, store)
        grids = grid_series(pairs)
        assert set(grids) == {("torus:4x2", "uniform")}
        assert set(grids[("torus:4x2", "uniform")]) == {"ecube", "nbc"}
        tables = format_campaign_tables(spec, pairs)
        assert "tiny" in tables and "torus:4x2" in tables


class TestFigureSpecs:
    def test_figure3_spec_expands_to_the_sweep_grid(self):
        """`repro-campaign --figure 3` is the uniform sweep of every
        algorithm over the paper's ladder on the profile's torus."""
        (spec,) = paper_figures.artifact_specs("3", profile="quick")
        assert spec.name == "figure-3-quick"
        assert spec.expand() == run_sweep_points(
            apply_profile(SimulationConfig(traffic="uniform"), "quick"),
            ALGORITHM_NAMES,
            PAPER_LOADS,
        )

    @pytest.mark.parametrize("figure", sorted(paper_figures.ARTIFACTS))
    def test_every_figure_spec_expands_its_grid(self, figure):
        """Every artifact expands and builds at the quick profile, and
        each side of each claim selects a point of its own expansion."""
        artifact = paper_figures.ARTIFACTS[figure]
        specs = paper_figures.artifact_specs(figure, "quick")
        field, values = artifact.vary or (None, (None,))
        assert [spec.base.get(field) for spec in specs] == list(values)
        configs = [config for spec in specs for config in spec.expand()]
        assert len(configs) == (
            len(values) * len(artifact.algorithms) * len(artifact.loads)
        )
        assert {c.traffic for c in configs} == {artifact.traffic.pattern}
        assert {c.switching for c in configs} == {artifact.switching}
        assert {c.topology for c in configs} == {artifact.topology}
        assert {c.seed for c in configs} == {artifact.seed}
        assert configs[0].traffic_options == artifact.traffic.options_dict()
        for spec in specs:
            spec.check_buildable()
        rows = [
            dict(vars(config), achieved_utilization=0.0,
                 average_latency=0.0, vc_class_usage=[1])
            for config in configs
        ]
        verdicts = paper_figures.evaluate(artifact.claims, rows)
        assert len(verdicts) == len(artifact.claims)

    @pytest.mark.parametrize(
        "figure, point",
        [
            ("abl-cc", dict(algorithm="ecube", offered_load=0.9, seed=106,
                            injection_limit=1)),
            ("abl-len", dict(algorithm="ecube", offered_load=0.05,
                             seed=110, message_length=24)),
            ("abl-arb", dict(algorithm="nbc", offered_load=0.8, seed=111,
                             mux_policy="highest_class")),
            ("abl-vc", dict(algorithm="ecubex4", offered_load=0.8,
                            seed=109)),
            ("ext-tr", dict(algorithm="nlast", offered_load=0.5, seed=108,
                            topology="mesh", traffic="transpose")),
        ],
    )
    def test_a_study_runs_the_points_of_its_question(self, figure, point):
        """The study's points are single runs at the quick profile,
        config for config (so the store serves them to either)."""
        configs = [
            config
            for spec in paper_figures.artifact_specs(figure, "quick")
            for config in spec.expand()
        ]
        assert apply_profile(SimulationConfig(**point), "quick") in configs

    def test_vct_spec_pins_switching(self):
        (spec,) = paper_figures.artifact_specs("vct", profile="quick")
        configs = spec.expand()
        assert all(config.switching == "vct" for config in configs)
        assert set(spec.algorithms) == set(
            paper_figures.ARTIFACTS["vct"].algorithms
        )

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError, match="unknown figure"):
            paper_figures.artifact_specs("99")


class TestCampaignCli:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = str(tmp_path / "spec.json")
        tiny_spec(name="cli", algorithms=("ecube",), loads=(0.2,)).to_file(
            path
        )
        return path

    def test_run_then_rerun_is_all_cache_hits(
        self, tmp_path, spec_file, capsys, monkeypatch
    ):
        store = str(tmp_path / "store.jsonl")
        argv = ["run", spec_file, "--store", store, "--quiet"]
        assert campaign_main(argv) == 0
        assert "cache hits: 0/1" in capsys.readouterr().out
        boobytrap_workers(monkeypatch)  # the re-run must not simulate
        assert campaign_main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hits: 1/1" in out
        assert f"store: {store} (1 records)" in out

    def test_export_matches_run_csv(
        self, tmp_path, spec_file, capsys
    ):
        store = str(tmp_path / "store.jsonl")
        run_csv = str(tmp_path / "run.csv")
        export_csv = str(tmp_path / "export.csv")
        assert campaign_main(
            ["run", spec_file, "--store", store, "--quiet",
             "--csv", run_csv]
        ) == 0
        assert campaign_main(
            ["export", spec_file, "--store", store, "--csv", export_csv]
        ) == 0
        capsys.readouterr()
        with open(run_csv) as a, open(export_csv) as b:
            assert a.read() == b.read()

    def test_status_reports_coverage(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store.jsonl")
        assert campaign_main(["status", "--store", store, spec_file]) == 0
        out = capsys.readouterr().out
        assert "0/1 points cached (0.0%)" in out
        assert "missing:" in out
        campaign_main(["run", spec_file, "--store", store, "--quiet"])
        capsys.readouterr()
        assert campaign_main(["status", "--store", store, spec_file]) == 0
        assert "1/1 points cached (100.0%)" in capsys.readouterr().out

    def test_export_incomplete_campaign_exits_3(
        self, tmp_path, spec_file, capsys
    ):
        store = str(tmp_path / "store.jsonl")
        code = campaign_main(
            ["export", spec_file, "--store", store, "--tables"]
        )
        assert code == 3
        assert "not in the store yet" in capsys.readouterr().err

    def test_gc_subcommand_reports_compaction(
        self, tmp_path, spec_file, capsys
    ):
        store = str(tmp_path / "store.jsonl")
        campaign_main(["run", spec_file, "--store", store, "--quiet"])
        with open(store) as stream:
            line = stream.read()
        with open(store, "w") as stream:
            stream.write(line * 2)  # shadowed duplicate
        capsys.readouterr()
        assert campaign_main(["gc", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 live" in out
        assert "1 superseded line(s) dropped (2 -> 1)" in out
        assert f"bytes: {2 * len(line)} -> {len(line)}" in out

    def test_usage_errors_exit_2(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store.jsonl")
        for flag in ("--jobs", "--batch-size"):
            assert campaign_main(
                ["run", spec_file, "--store", store, flag, "0"]
            ) == 2
            assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err
        assert campaign_main(
            ["run", spec_file, "--figure", "3", "--store", store]
        ) == 2  # both spec forms
        assert not os.path.exists(store)
        campaign_main(["run", spec_file, "--store", store, "--quiet"])
        assert campaign_main(
            ["export", spec_file, "--store", store]
        ) == 2  # nothing to export
        capsys.readouterr()

    @pytest.mark.parametrize(
        "topology, argv, message",
        [
            ("torus:4x3", [], "algorithm nlast on torus:4x3: north-last"),
            ("torus:4x2", ["--traffic", "bogus"],
             "traffic bogus on torus:4x2: unknown traffic pattern"),
        ],
    )
    def test_an_unbuildable_combination_stops_the_run_before_the_store(
        self, tmp_path, capsys, monkeypatch, topology, argv, message
    ):
        """Not after the e-cube points ahead of it are simulated."""
        boobytrap_workers(monkeypatch)
        path = str(tmp_path / "spec.json")
        dataclasses.replace(
            tiny_spec(algorithms=("ecube", "nlast")), topologies=(topology,)
        ).to_file(path)
        store = str(tmp_path / "store.jsonl")
        assert campaign_main(["run", path, "--store", store] + argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and not captured.out
        assert not os.path.exists(store)

    def test_set_overrides_the_profile_of_a_flag_built_grid(self):
        config = _load_specs(_parse_args(
            ["run", "--profile", "tiny", "--set", "warmup_cycles=123",
             "--set", "injection_limit=null", "--set", "switching=vct"]
        ))[0].expand()[0]
        assert (config.warmup_cycles, config.sample_cycles) == (123, 400)
        assert (config.injection_limit, config.switching) == (None, "vct")

    def test_a_varying_study_is_one_spec_per_value_in_one_store(
        self, tmp_path, capsys, monkeypatch
    ):
        """`--figure abl-cc` runs its three injection limits into one
        store; `status` and `export --check` read all three back."""
        names = [
            f"figure-abl-cc-tiny-injection_limit={limit}"
            for limit in (1, 2, 8)
        ]
        argv = ["--figure", "abl-cc", "--profile", "tiny",
                "--store", str(tmp_path / "store.jsonl")]
        assert campaign_main(["run", "--quiet"] + argv) == 0
        out = capsys.readouterr().out
        assert [line.split("'")[1] for line in out.splitlines()
                if line.startswith("campaign '")] == names
        assert "store: " in out and "(3 records)" in out
        boobytrap_workers(monkeypatch)
        assert campaign_main(["status"] + argv) == 0
        out = capsys.readouterr().out
        for name in names:
            assert f"campaign {name!r}: 1/1 points cached" in out
        assert campaign_main(["export", "--check"] + argv) == 0
        verdicts = capsys.readouterr().out.splitlines()
        assert [line.split("] ", 1)[1] for line in verdicts] == [
            claim.text for claim in paper_figures.ARTIFACTS["abl-cc"].claims
        ]

    def test_flags_a_spec_file_and_a_figure_name_one_grid(
        self, tmp_path, capsys, monkeypatch
    ):
        path = str(tmp_path / "vct.json")
        dataclasses.replace(
            paper_figures.artifact_specs("vct", "tiny")[0],
            loads=(0.2, 0.4),
        ).to_file(path)
        spellings = [
            ["--figure", "vct", "--profile", "tiny", "--loads", "0.2,0.4"],
            ["--profile", "tiny", "--algorithms", "ecube,2pn,nbc",
             "--loads", "0.2,0.4", "--seeds", "1", "--traffic", "uniform",
             "--set", "switching=vct"],
            [path],
        ]
        store = ["--store", str(tmp_path / "store.jsonl"), "--quiet"]
        grids = [
            _load_specs(_parse_args(["run"] + argv))[0].expand()
            for argv in spellings
        ]
        assert len(grids[0]) == 6 and grids[0] == grids[1] == grids[2]
        for index, argv in enumerate(spellings):
            assert campaign_main(["run"] + argv + store) == 0
            hits = 6 if index else 0
            assert f"cache hits: {hits}/6" in capsys.readouterr().out
            boobytrap_workers(monkeypatch)  # from the second run on
            assert campaign_main(["status"] + argv + store[:2]) == 0
            assert "6/6 points cached" in capsys.readouterr().out
