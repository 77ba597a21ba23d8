"""Tests for the parallel sweep scheduler and checkpoint resume.

The contract of :mod:`repro.experiments.parallel`:

* a parallel sweep (``jobs > 1``, real worker processes) returns
  **bit-identical** :class:`SimulationResult`s to the serial path for the
  same seeds — all six algorithms on a small torus;
* a checkpoint file makes re-running a campaign skip completed points,
  while a checkpoint from a *different* campaign is rejected;
* a checkpoint is a result store addressed config by config: one list
  may mix campaigns (message lengths, switching modes) and each point
  resumes to its own result;
* checkpoints are append-only store records: recording a point costs
  O(that record) bytes, files the store does not recognise (v1
  whole-file checkpoints included) are quarantined with a warning
  instead of silently overwritten, an interrupted batch-backend seed
  group resumes per member, and a failed worker never discards its
  finished siblings;
* a worker that dies outright breaks the run loudly, the store keeps
  exactly what finished, and a rerun completes the campaign to the
  bytes a clean run exports;
* results survive the JSON roundtrip used by the checkpoint file.
"""

import dataclasses
import io
import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaigns.export import collect, write_campaign_csv
from repro.campaigns.identity import identify
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import STORE_VERSION, ResultStore, StoreWarning
from repro.experiments import parallel
from repro.experiments.parallel import (
    campaign_signature,
    point_key,
    run_points,
    run_sweep_points,
)
from repro.experiments.runner import run_point
from repro.experiments.sweep import sweep_algorithms
from repro.routing.registry import ALGORITHM_NAMES
from repro.stats.summary import SimulationResult
from repro.util.errors import ConfigurationError
from tests.conftest import tiny_config


class TestSerialParallelIdentity:
    def test_all_algorithms_bit_identical(self):
        """jobs=2 with real worker processes == the serial path, exactly."""
        base = tiny_config(seed=5)
        configs = run_sweep_points(base, ALGORITHM_NAMES, (0.3,))
        assert len(configs) == 6
        serial = run_points(configs, jobs=1)
        parallel = run_points(configs, jobs=2)
        assert serial == parallel  # full dataclass equality, every field

    def test_matches_single_point_runs(self):
        configs = run_sweep_points(tiny_config(seed=9), ["nbc"], (0.2, 0.5))
        pooled = run_points(configs, jobs=2)
        direct = [run_point(config) for config in configs]
        assert pooled == direct

    def test_results_in_submission_order(self):
        configs = run_sweep_points(
            tiny_config(seed=2), ["ecube", "phop"], (0.2, 0.4)
        )
        results = run_points(configs, jobs=2)
        assert [(r.algorithm, r.offered_load) for r in results] == [
            ("ecube", 0.2),
            ("ecube", 0.4),
            ("phop", 0.2),
            ("phop", 0.4),
        ]

    def test_sweep_helpers_expose_jobs(self):
        base = tiny_config(seed=3)
        series = sweep_algorithms(base, ["ecube", "nbc"], (0.2, 0.4), jobs=2)
        assert series == sweep_algorithms(base, ["ecube", "nbc"], (0.2, 0.4))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_points([tiny_config()], jobs=0)


class TestCheckpointResume:
    def _configs(self):
        return run_sweep_points(tiny_config(seed=6), ["ecube"], (0.2, 0.4))

    def test_resume_skips_completed_points(self, tmp_path, monkeypatch):
        path = str(tmp_path / "sweep.ckpt.json")
        configs = self._configs()
        first = run_points(configs, checkpoint_path=path)

        def boom(config):
            raise AssertionError(f"re-ran checkpointed point {config.label()}")

        monkeypatch.setattr(
            "repro.experiments.parallel._run_point_worker", boom
        )
        lines = []
        resumed = run_points(
            configs, checkpoint_path=path, progress=lines.append
        )
        assert resumed == first
        assert lines[0] == "2 points: 2 in the store, 0 to simulate"
        assert len(lines) == 1 + len(configs)
        assert all("[skip]" in line for line in lines[1:])

    def test_partial_checkpoint_runs_only_missing_points(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "sweep.ckpt.json")
        configs = self._configs()
        run_points(configs[:1], checkpoint_path=path)

        ran = []
        real_worker = run_point

        def counting(config):
            ran.append(point_key(config))
            return real_worker(config)

        monkeypatch.setattr(
            "repro.experiments.parallel._run_point_worker", counting
        )
        results = run_points(configs, checkpoint_path=path)
        assert ran == [point_key(configs[1])]
        assert len(results) == 2

    def test_foreign_campaign_checkpoint_is_rejected(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "sweep.ckpt.json")
        configs = self._configs()
        run_points(configs, checkpoint_path=path)

        # Same point identities, different campaign (sampling schedule).
        other = [
            dataclasses.replace(c, sample_cycles=c.sample_cycles + 100)
            for c in configs
        ]
        ran = []

        def counting(config):
            ran.append(point_key(config))
            return run_point(config)

        monkeypatch.setattr(
            "repro.experiments.parallel._run_point_worker", counting
        )
        run_points(other, checkpoint_path=path)
        assert len(ran) == len(other)  # nothing was trusted from the file

    def test_corrupt_checkpoint_warns_and_quarantines(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        path.write_text("{not json")
        configs = self._configs()[:1]
        with pytest.warns(StoreWarning, match="corrupt"):
            results = run_points(configs, checkpoint_path=str(path))
        assert len(results) == 1
        # The untrusted bytes were preserved, not silently overwritten...
        sidecar = tmp_path / "sweep.ckpt.json.corrupt"
        assert sidecar.read_text() == "{not json"
        # ... and the file was rebuilt as a valid record store.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["point"] == point_key(configs[0])

    def test_checkpoint_file_layout(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        configs = self._configs()
        run_points(configs, checkpoint_path=str(path))
        # One self-contained JSON record line per finished point.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(configs)
        signature = campaign_signature(configs[0])
        assert all(record["kind"] == "point" for record in records)
        assert all(record["v"] == STORE_VERSION for record in records)
        assert all(record["signature"] == signature for record in records)
        assert {record["point"] for record in records} == {
            point_key(config) for config in configs
        }

    def test_progress_reports_completion_counts(self, tmp_path):
        lines = []
        run_points(self._configs(), progress=lines.append)
        assert "[1/2]" in lines[0] and "[2/2]" in lines[1]


class TestLegacyCheckpointMigration:
    """The v1 whole-file checkpoint format is gone: such a file is
    content the store does not recognise, quarantined like any other."""

    def test_legacy_checkpoint_resumes_and_migrates(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.ckpt.json"
        configs = run_sweep_points(tiny_config(seed=6), ["ecube"], (0.2, 0.4))
        first = run_points(configs)
        original = json.dumps(
            {
                "version": 1,
                "signature": campaign_signature(configs[0]),
                "points": {
                    point_key(config): result.to_json_dict()
                    for config, result in zip(configs, first)
                },
            }
        )
        path.write_text(original)

        ran = []

        def counting(config):
            ran.append(point_key(config))
            return run_point(config)

        monkeypatch.setattr(
            "repro.experiments.parallel._run_point_worker", counting
        )
        with pytest.warns(StoreWarning, match="unrecognized record"):
            resumed = run_points(configs, checkpoint_path=str(path))
        # Nothing was served from the v1 file: every point re-simulated.
        assert ran == [point_key(config) for config in configs]
        assert resumed == first
        # Its bytes are preserved, and the path now holds a v2 store.
        assert (tmp_path / "sweep.ckpt.json.corrupt").read_text() == original
        assert not (tmp_path / "sweep.ckpt.json.stale").exists()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(configs)
        assert all(record["v"] == STORE_VERSION for record in records)


@pytest.mark.parametrize(
    "field, value", [("message_length", 4), ("switching", "vct")]
)
class TestMixedCampaignList:
    """One list, one checkpoint, configs that differ in a field that is
    neither algorithm, load nor seed — other campaign signatures, and
    for ``message_length`` the same ``point_key``.  Each config is
    filed under, and served from, its own address."""

    def _configs(self, field, value):
        first = tiny_config(seed=6, offered_load=0.3, message_length=16)
        return [first, dataclasses.replace(first, **{field: value})]

    def test_first_run_files_each_config_under_its_own_key(
        self, tmp_path, field, value
    ):
        path = tmp_path / "mixed.ckpt.json"
        configs = self._configs(field, value)
        assert run_points(configs, checkpoint_path=str(path)) == run_points(
            configs
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["key"] for record in records] == [
            identify(config)[2] for config in configs
        ]
        assert [record["config"][field] for record in records] == [
            getattr(config, field) for config in configs
        ]

    def test_resume_serves_each_config_its_own_result(
        self, tmp_path, monkeypatch, field, value
    ):
        path = str(tmp_path / "mixed.ckpt.json")
        configs = self._configs(field, value)
        fresh = run_points(configs)
        assert fresh[0].average_latency != fresh[1].average_latency
        run_points(configs[:1], checkpoint_path=path)

        ran = []

        def counting(config):
            ran.append(config)
            return run_point(config)

        monkeypatch.setattr(
            "repro.experiments.parallel._run_point_worker", counting
        )
        assert run_points(configs, checkpoint_path=path) == fresh
        assert ran == configs[1:]  # only the missing config simulated
        assert run_points(configs, checkpoint_path=path) == fresh
        assert len(ran) == 1
        with ResultStore(path) as store:
            assert [store.get(config) for config in configs] == fresh


class TestAppendOnlyCheckpoint:
    def test_record_bytes_bounded_per_point(self, tmp_path):
        """Recording point N must not rewrite the N-1 points before it."""
        path = str(tmp_path / "store.jsonl")
        base = tiny_config(seed=6)
        result = run_point(base)
        store = ResultStore(path)
        sizes = []
        for seed in range(10, 30):
            store.put(dataclasses.replace(base, seed=seed), result)
            sizes.append(os.path.getsize(path))
        deltas = [after - before for before, after in zip(sizes, sizes[1:])]
        # O(record) bytes per append: every delta is one record's size
        # (identical up to the seed digits), never proportional to the
        # number of points already stored.
        assert max(deltas) <= 1.5 * min(deltas)

    def test_repeated_record_is_a_noop(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        config = tiny_config(seed=6)
        result = run_point(config)
        store = ResultStore(path)
        assert store.put(config, result)
        size = os.path.getsize(path)
        assert not store.put(config, result)
        assert os.path.getsize(path) == size


class TestBatchGroupResume:
    def _configs(self):
        base = tiny_config(
            flow_control="conservative", backend="batch",
            identity="relaxed", seed=1,
        )
        return run_sweep_points(base, ["ecube"], (0.3,), seeds=(1, 2, 3))

    def test_interrupted_group_resumes_per_member(
        self, tmp_path, monkeypatch
    ):
        """A kill between sibling completions re-runs only missing seeds."""
        path = str(tmp_path / "batch.ckpt.json")
        configs = self._configs()
        full = run_points(configs, batch_size=4)

        # Simulate dying mid-group: the process goes down right after
        # persisting the second of the group's three members.
        real_put = ResultStore.put
        recorded = []

        def dying_put(self, config, result):
            real_put(self, config, result)
            recorded.append(config.seed)
            if len(recorded) == 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(ResultStore, "put", dying_put)
        with pytest.raises(KeyboardInterrupt):
            run_points(configs, checkpoint_path=path, batch_size=4)
        monkeypatch.undo()

        seen = []
        real_worker = parallel._run_batch_worker

        def counting(batch):
            seen.extend(config.seed for config in batch)
            return real_worker(batch)

        monkeypatch.setattr(
            "repro.experiments.parallel._run_batch_worker", counting
        )
        resumed = run_points(configs, checkpoint_path=path, batch_size=4)
        assert seen == [3]  # only the unrecorded sibling re-ran
        assert resumed == full


class TestWorkerFailureSalvage:
    def test_finished_siblings_survive_a_failing_worker(
        self, tmp_path, monkeypatch
    ):
        """A worker failure must not discard completed, uncheckpointed
        siblings: everything finished is persisted before the error
        propagates, and a resume skips it."""
        path = str(tmp_path / "salvage.ckpt.json")
        good = tiny_config(seed=6, offered_load=0.2)
        # Fails deterministically inside the worker: obs options are
        # validated lazily, at engine-build time.
        bad = dataclasses.replace(
            good, offered_load=0.4, obs=True, obs_options={"stride": -1}
        )
        configs = [bad, good]
        with pytest.raises(ConfigurationError, match="stride"):
            run_points(configs, jobs=2, checkpoint_path=path)

        # The good point completed in its worker and was checkpointed
        # under its own address, whatever else the list held.
        assert ResultStore(path).get(good) is not None

        ran = []

        def counting(config):
            ran.append(point_key(config))
            return run_point(config)

        monkeypatch.setattr(
            "repro.experiments.parallel._run_point_worker", counting
        )
        with pytest.raises(ConfigurationError, match="stride"):
            run_points(configs, checkpoint_path=path)
        assert ran == [point_key(bad)]  # the salvaged point was skipped


class TestKilledWorker:
    """A worker that dies outright (``os._exit``: no exception, no
    cleanup, as under the OOM killer) breaks the pool."""

    SPEC = CampaignSpec(
        name="killed-worker",
        algorithms=("ecube", "nbc"),
        loads=(0.2, 0.3, 0.4),
        seeds=(1, 2),
        topologies=("torus:4x2",),
        base=dict(
            message_length=4, warmup_cycles=200, sample_cycles=300,
            gap_cycles=50, min_samples=3, max_samples=3,
        ),
    )

    def _export(self, path):
        stream = io.StringIO()
        with ResultStore(path) as store:
            write_campaign_csv(collect(self.SPEC, store), stream)
        return stream.getvalue()

    def test_a_killed_worker_breaks_the_run_and_a_rerun_completes_it(
        self, tmp_path, monkeypatch
    ):
        configs = self.SPEC.expand()
        assert len(configs) == 12
        clean = str(tmp_path / "clean.jsonl")
        with ResultStore(clean) as store:
            serial = run_points(configs, store=store)
        victim = configs[5]
        real_run_point = parallel.run_point

        def dying(config):
            if config == victim:
                os._exit(1)
            return real_run_point(config)

        # Forked workers inherit the patched module binding.
        monkeypatch.setattr(parallel, "run_point", dying)
        path = str(tmp_path / "killed.jsonl")
        with ResultStore(path) as store:
            with pytest.raises(BrokenProcessPool):
                run_points(configs, jobs=2, store=store)
        monkeypatch.undo()

        # The store keeps what finished, each point as a clean run has it.
        with ResultStore(path) as store:
            stored = [store.get(config) for config in configs]
        assert stored[5] is None
        kept = [i for i, result in enumerate(stored) if result is not None]
        assert len(kept) < len(configs)
        for index in kept:
            assert stored[index].to_dict() == serial[index].to_dict()

        ran = []

        def counting(config):
            ran.append(config)
            return run_point(config)

        monkeypatch.setattr(parallel, "_run_point_worker", counting)
        with ResultStore(path) as store:
            run_points(configs, store=store)
        assert ran == [c for c, r in zip(configs, stored) if r is None]
        assert self._export(path) == self._export(clean)


class TestPointIdentity:
    def test_point_keys_distinct_across_grid(self):
        configs = run_sweep_points(
            tiny_config(), ["ecube", "nbc"], (0.2, 0.4), seeds=(1, 2)
        )
        keys = {point_key(c) for c in configs}
        assert len(keys) == len(configs) == 8

    def test_signature_ignores_point_fields(self):
        a = tiny_config(algorithm="ecube", offered_load=0.2, seed=1)
        b = tiny_config(algorithm="nbc", offered_load=0.8, seed=99)
        assert campaign_signature(a) == campaign_signature(b)

    def test_signature_sees_shared_fields(self):
        a = tiny_config()
        b = tiny_config(switching="vct", vc_buffer_depth=4)
        assert campaign_signature(a) != campaign_signature(b)


class TestResultJsonRoundtrip:
    @pytest.fixture(scope="class")
    def result(self):
        return run_point(tiny_config(offered_load=0.3, seed=4))

    def test_roundtrip_is_identity(self, result):
        payload = result.to_json_dict()
        json.dumps(payload)  # must be JSON-serializable as-is
        assert SimulationResult.from_json_dict(payload) == result

    def test_int_keyed_maps_survive_json(self, result):
        # JSON stringifies dict keys; from_json_dict must restore ints.
        wire = json.loads(json.dumps(result.to_json_dict()))
        back = SimulationResult.from_json_dict(wire)
        assert back.latency_percentiles == result.latency_percentiles
        assert back.hop_class_latency == result.hop_class_latency

    def test_unknown_fields_are_ignored(self, result):
        payload = result.to_json_dict()
        payload["added_in_some_future_version"] = 123
        assert SimulationResult.from_json_dict(payload) == result
