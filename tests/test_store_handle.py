"""The ResultStore's append handle: one per store, never a stale one.

A store keeps its file open for appending between ``put`` calls.  What
must survive that: every record has reached the OS when ``put`` returns
(a killed writer loses nothing it reported stored), a write after the
file was replaced — by this store's own ``gc`` / recovery rewrite, or by
another process's — lands in the file now at the path, ``close`` /
``with`` release the handle, and a ``gc`` rewrite the disk cannot hold
leaves the file and the open store as they were.  Writers in other
processes share the file through its lock: no line one appends while
another store's ``gc`` rewrites the file is lost.
"""

import builtins
import errno
import fcntl
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import pytest

import repro
from repro.campaigns import store as store_module
from repro.campaigns.cli import main as campaign_main
from repro.campaigns.store import ResultStore, StoreBusyError, StoreWarning
from repro.experiments.parallel import run_points
from repro.experiments.runner import run_point
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def result():
    return run_point(tiny_config())


def seeds(path):
    """Seeds of the records in the file at *path*, which a fresh store
    must open without a warning and hold one each of."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = ResultStore(str(path))
    with open(path, encoding="utf-8") as stream:
        found = sorted(
            json.loads(line)["config"]["seed"]
            for line in stream if line.strip()
        )
    assert len(store) == len(found)
    return found


def _environment():
    """The environment a child process imports this tree's code with."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.dirname(os.path.dirname(repro.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([source, root]))


class TestHandleLifecycle:
    def test_one_open_serves_many_puts(self, tmp_path, result, monkeypatch):
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        path = str(tmp_path / "deep" / "er" / "store.jsonl")
        store = ResultStore(path)
        monkeypatch.setattr(builtins, "open", counting_open)
        for seed in range(40):
            assert store.put(tiny_config(seed=seed), result)
        monkeypatch.undo()
        assert opened == [path]
        assert seeds(path) == list(range(40))
        store.close()

    def test_every_put_has_reached_the_file_when_it_returns(
        self, tmp_path, result
    ):
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        for seed in range(5):
            store.put(tiny_config(seed=seed), result)
            # Read through the path while the writer still holds it open.
            assert seeds(path) == list(range(seed + 1))
        store.close()

    def test_context_manager_and_close_release_the_handle(
        self, tmp_path, result
    ):
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            assert store._handle is None  # nothing written yet
            store.put(tiny_config(seed=1), result)
            handle = store._handle
            assert handle is not None and not handle.closed
        assert handle.closed and store._handle is None
        store.close()  # idempotent
        # A closed store still reads, and a later write reopens.
        assert store.get(tiny_config(seed=1)) == result
        assert store.put(tiny_config(seed=2), result)
        assert seeds(path) == [1, 2]
        store.close()

    def test_put_after_gc_lands_in_the_new_file(self, tmp_path, result):
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        store.put(tiny_config(seed=1), result)
        before = os.stat(path).st_ino
        store.gc()
        assert os.stat(path).st_ino != before  # os.replace: a new inode
        store.put(tiny_config(seed=2), result)
        assert seeds(path) == [1, 2]
        store.close()

    def test_put_after_a_recovery_rewrite_lands_in_the_new_file(
        self, tmp_path, result
    ):
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            store.put(tiny_config(seed=1), result)
        with open(path, "a") as stream:
            stream.write('{"kind": "point", "v": 2, "key": "torn')
        with pytest.warns(StoreWarning, match="corrupt"):
            recovered = ResultStore(str(path))
        recovered.put(tiny_config(seed=2), result)
        assert seeds(path) == [1, 2]
        recovered.close()

    def test_put_after_another_stores_gc_lands_in_the_new_file(
        self, tmp_path, result
    ):
        """`repro-campaign gc` beside a running campaign: the running
        writer's handle points at the unlinked inode; it must notice."""
        path = tmp_path / "store.jsonl"
        writer = ResultStore(str(path))
        writer.put(tiny_config(seed=1), result)
        ResultStore(str(path)).gc()
        writer.put(tiny_config(seed=2), result)
        assert seeds(path) == [1, 2]
        os.remove(path)
        writer.put(tiny_config(seed=3), result)
        assert seeds(path) == [3]
        writer.close()

    def test_a_killed_writer_loses_nothing_it_reported(self, tmp_path):
        """SIGKILL between puts: no close, no flush at exit, no atexit."""
        path = tmp_path / "store.jsonl"
        script = textwrap.dedent(
            """
            import os, signal, sys
            from repro.campaigns.store import ResultStore
            from repro.experiments.runner import run_point
            from tests.conftest import tiny_config

            result = run_point(tiny_config())
            store = ResultStore(sys.argv[1])
            for seed in range(6):
                store.put(tiny_config(seed=seed), result)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=_environment(),
            timeout=120,
        )
        assert done.returncode < 0  # died of the signal
        assert seeds(path) == list(range(6))

    def test_a_torn_final_line_is_the_only_loss(self, tmp_path, result):
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            for seed in range(3):
                store.put(tiny_config(seed=seed), result)
        whole = path.read_text()
        assert whole.endswith("\n") and whole.count("\n") == 3
        path.write_text(whole[: -len(whole.splitlines()[-1]) // 2])
        with pytest.warns(StoreWarning, match="skipped 1 corrupt"):
            recovered = ResultStore(str(path))
        assert len(recovered) == 2
        assert (tmp_path / "store.jsonl.corrupt").exists()
        assert seeds(path) == [0, 1]  # rewritten clean: no second warning


class TestConcurrentWriters:
    def test_a_put_that_waited_through_a_gc_lands_in_the_new_file(
        self, tmp_path, result, monkeypatch
    ):
        """A writer whose append waits for another store's gc finds its
        handle's file replaced, and appends to the new one."""
        path = tmp_path / "store.jsonl"
        writer = ResultStore(str(path))
        writer.put(tiny_config(seed=1), result)  # its handle: the old file
        compactor = ResultStore(str(path))
        waiting = threading.Event()
        real_flock = fcntl.flock

        def flock(fd, operation):
            if threading.current_thread() is not threading.main_thread():
                waiting.set()
            return real_flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", flock)
        real_rewrite = compactor._rewrite
        stored = []
        putter = threading.Thread(
            target=lambda: stored.append(
                writer.put(tiny_config(seed=2), result)
            )
        )

        def rewrite(records):
            putter.start()
            assert waiting.wait(10), "the put took no lock"
            time.sleep(0.2)
            assert not stored, "the put did not wait for gc's lock"
            real_rewrite(records)

        monkeypatch.setattr(compactor, "_rewrite", rewrite)
        compactor.gc()
        putter.join(10)
        assert not putter.is_alive()
        assert stored == [True]
        assert seeds(path) == [1, 2]
        writer.close()

    def test_gc_without_a_lock_refuses_a_file_that_grew(
        self, tmp_path, result, monkeypatch
    ):
        """Where the file system grants no lock, a line appended between
        gc's read and its rewrite makes gc refuse, not drop it."""
        path = tmp_path / "store.jsonl"
        writer = ResultStore(str(path))
        writer.put(tiny_config(seed=1), result)

        def no_lock(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(fcntl, "flock", no_lock)
        compactor = ResultStore(str(path))
        real_load = compactor._load

        def load():
            real_load()
            writer.put(tiny_config(seed=2), result)

        monkeypatch.setattr(compactor, "_load", load)
        with pytest.raises(StoreBusyError):
            compactor.gc()
        monkeypatch.undo()
        writer.close()
        assert seeds(path) == [1, 2]
        assert ResultStore(str(path)).gc()["live_records"] == 2

    def test_two_processes_appending_at_once_lose_nothing(self, tmp_path):
        """Two ``repro-campaign run``s on disjoint grids share one store,
        then ``gc`` runs: its export equals a serial store's, byte for
        byte."""
        grids = {}
        for algorithm in ("ecube", "nbc"):
            grids[algorithm] = tmp_path / f"{algorithm}.json"
            grids[algorithm].write_text(json.dumps({
                "name": "grid",
                "algorithms": [algorithm],
                "topologies": ["torus:4x2"],
                "loads": [0.2, 0.4],
                "seeds": [1, 2, 3],
                "profile": "tiny",
            }))
        both = tmp_path / "both.json"
        both.write_text(
            grids["ecube"].read_text().replace(
                '["ecube"]', '["ecube", "nbc"]'
            )
        )
        shared, serial = tmp_path / "shared.jsonl", tmp_path / "serial.jsonl"
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.campaigns.cli", "run",
                 str(grid), "--store", str(shared), "--quiet"],
                env=_environment(), stdout=subprocess.DEVNULL,
            )
            for grid in grids.values()
        ]
        for grid in grids.values():
            assert campaign_main(
                ["run", str(grid), "--store", str(serial), "--quiet"]
            ) == 0
        assert [run.wait(timeout=300) for run in runs] == [0, 0]
        stats = ResultStore(str(shared)).gc()
        assert stats["lines_after"] == stats["live_records"] == 12
        exports = []
        for store in (shared, serial):
            exports.append(tmp_path / f"{store.stem}.csv")
            assert campaign_main(
                ["export", str(both), "--store", str(store),
                 "--csv", str(exports[-1])]
            ) == 0
        assert exports[0].read_bytes() == exports[1].read_bytes()


class TestLoad:
    @pytest.mark.parametrize("line", [
        '{"a": 1}\n', '{"a": 1}', ' {"a": 1}\n', '{"a": 1}\r\n',
        '{"a": 1} x\n', '{"a": 1}{"b": 2}\n', '{"a": \n',
        '\ufeff{"a": 1}\n', '{"a": 1}\x0c\n', '[1, 2]\n', 'nul\n',
    ])
    def test_a_line_is_read_as_json_loads_reads_it(self, line):
        def read(parse):
            try:
                return repr(parse(line))
            except json.JSONDecodeError as error:
                return str(error)

        assert read(store_module._parse) == read(json.loads)

    def test_blank_lines_are_not_records(self, tmp_path, result):
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            store.put(tiny_config(seed=1), result)
            store.put(tiny_config(seed=2), result)
        first, second = path.read_text().splitlines()
        path.write_text(f"\n{first}\n\n  \n{second}\n\n")
        assert seeds(path) == [1, 2]

    def test_a_legacy_checkpoint_is_known_by_its_first_record_line(
        self, tmp_path, result
    ):
        """A v1 whole-file checkpoint is one line that is no record:
        quarantined byte for byte, nothing served, the store empty."""
        path = tmp_path / "sweep.ckpt.json"
        legacy = {
            "version": 1,
            "signature": "feedfacefeedface",
            "points": {"p": result.to_json_dict()},
        }
        original = "\n" + json.dumps(legacy) + "\n"
        path.write_text(original)
        with pytest.warns(StoreWarning, match="skipped 1 corrupt"):
            store = ResultStore(str(path))
        assert len(store) == 0
        assert (tmp_path / "sweep.ckpt.json.corrupt").read_text() == original
        assert path.read_text() == ""
        assert seeds(path) == []  # rewritten empty: no second warning

    def test_a_record_without_its_config_is_not_a_record(
        self, tmp_path, result
    ):
        """What stores migrated from v1 checkpoints still hold."""
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            store.put(tiny_config(seed=1), result)
            store.put(tiny_config(seed=2), result)
        first, second = map(json.loads, path.read_text().splitlines())
        second["config"] = None
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        with pytest.warns(StoreWarning, match="skipped 1 corrupt"):
            recovered = ResultStore(str(path))
        assert recovered.get(tiny_config(seed=1)) == result
        assert recovered.get(tiny_config(seed=2)) is None
        assert seeds(path) == [1]


class TestFullDisk:
    def test_a_gc_that_cannot_write_changes_nothing(
        self, tmp_path, result, monkeypatch
    ):
        """The disk fills while gc writes its temp file: gc raises, the
        file is as it was, no temp file is left, the open store still
        serves every record and can append."""
        path = tmp_path / "store.jsonl"
        configs = [tiny_config(seed=seed) for seed in range(4)]
        with ResultStore(str(path)) as store:
            for config in configs:
                store.put(config, result)
        before = path.read_bytes()
        store = ResultStore(str(path))
        real_fdopen = os.fdopen

        class FullDisk:
            def __init__(self, stream):
                self.stream = stream

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.stream.close()

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(
            os, "fdopen", lambda fd, *a, **k: FullDisk(real_fdopen(fd, *a, **k))
        )
        with pytest.raises(OSError) as raised:
            store.gc()
        monkeypatch.undo()
        assert raised.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert not list(tmp_path.glob(".campaign-store-*.tmp"))
        assert len(store) == 4
        assert all(store.get(config) == result for config in configs)
        assert store.put(tiny_config(seed=9), result)
        store.close()
        assert seeds(path) == [0, 1, 2, 3, 9]


class TestSweepCheckpoint:
    def test_a_callers_checkpoint_stays_open(self, tmp_path):
        """run_points leaves the store it is given open: its owner
        closes it."""
        path = tmp_path / "sweep.ckpt.jsonl"
        store = ResultStore(str(path))
        run_points([tiny_config()], store=store)
        assert store._handle is not None
        store.close()
        assert store._handle is None
