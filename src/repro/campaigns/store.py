"""Content-addressed, append-only store of simulation results.

One :class:`ResultStore` file holds one JSON record per finished
simulation point, keyed by the point's content address
(:func:`~repro.campaigns.identity.identify`), and is the only result
format on disk (JSONL, schema v2): ``repro-campaign --store`` and
``sweep_algorithms(checkpoint=)`` name the same kind of file.  The store is
shared across campaigns: any point list containing a previously
simulated config gets that point served from disk instead of
re-simulated, bit-identical to a fresh run (results are a pure function
of the config).  :meth:`ResultStore.get` and :meth:`ResultStore.put`,
both addressed by config, are the whole record API.

Durability discipline:

* **Append-only.**  Recording a point appends one line, flushed to the
  OS before ``put`` returns, through a handle the store keeps open
  (:meth:`ResultStore.close` or ``with`` releases it); the bytes written
  per point are bounded by that record's own size, never by the number
  of points already stored.  A torn final line from a killed process is
  recovered on the next load.
* **Nothing untrusted is silently overwritten.**  Corrupt lines and
  records the store does not recognise (an unknown schema version, no
  stored config — a v1 whole-file sweep checkpoint is one such line)
  are surfaced with a warning, and the original file is preserved byte
  for byte as a ``<path>.corrupt`` sidecar before the store
  rewrites itself from the salvageable records.  Nothing is migrated:
  what is not a v2 record is re-simulated.
* **Collision hygiene.**  Every record carries the config dict it was
  simulated from; a lookup whose config disagrees with the stored one
  (a key collision, or a corrupted record) is surfaced and treated as a
  miss rather than served wrong data, and an append that would pair an
  existing key with a different config raises.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import warnings
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.campaigns.identity import identify
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult
from repro.util.errors import ReproError

#: Store record schema version ("v" field of every record line).
STORE_VERSION = 2


class StoreWarning(UserWarning):
    """A campaign-store file needed recovery or was not trusted."""


class StoreIntegrityError(ReproError):
    """Two different configs mapped to the same store key."""


def _quarantine(path: str, reason: str) -> None:
    """Preserve an untrusted store file as a sidecar and warn about it."""
    sidecar = path + ".corrupt"
    try:
        shutil.copy2(path, sidecar)
    except OSError as error:  # pragma: no cover - copy failure is exotic
        warnings.warn(
            f"could not preserve untrusted store file {path!r}: {error}",
            StoreWarning,
            stacklevel=3,
        )
        return
    warnings.warn(
        f"{reason}; the original file is preserved as {sidecar!r}",
        StoreWarning,
        stacklevel=3,
    )


class ResultStore:
    """Append-only result store over one JSONL file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._records: Dict[str, Dict[str, Any]] = {}
        self._decoded: Dict[str, SimulationResult] = {}
        #: The append handle, opened by the first write and kept.
        self._handle: Optional[TextIO] = None
        self._load()

    def close(self) -> None:
        """Release the append handle; a later write reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- loading ---------------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, encoding="utf-8") as stream:
                lines = [line for line in stream if line.strip()]
        except OSError as error:
            _quarantine(
                self.path,
                f"store file {self.path!r} is unreadable ({error}); "
                "starting fresh",
            )
            return
        bad = 0
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                bad += 1
                continue
            if (
                not isinstance(record, dict)
                or record.get("v") != STORE_VERSION
                or record.get("kind") != "point"
                or "key" not in record
                or not isinstance(record.get("config"), dict)
            ):
                bad += 1
                continue
            # Last record wins, should two writers have appended one key.
            self._records[record["key"]] = record
        if bad:
            _quarantine(
                self.path,
                f"store file {self.path!r}: skipped {bad} corrupt or "
                f"unrecognized record line(s) of {len(lines)}",
            )
            self._rewrite()

    def _rewrite(self) -> None:
        """Atomically rewrite the file from the in-memory records.

        Only used for one-time recovery and ``gc``; the steady-state
        write path is the append in :meth:`put`.
        """
        self.close()  # the handle's file is about to be replaced
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".campaign-store-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                for record in self._records.values():
                    stream.write(json.dumps(record) + "\n")
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    # -- reading ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def signatures(self) -> Dict[str, int]:
        """Record count per campaign signature (for ``status``)."""
        counts: Dict[str, int] = {}
        for record in self._records.values():
            signature = str(record.get("signature"))
            counts[signature] = counts.get(signature, 0) + 1
        return counts

    def _decode(self, key: str) -> SimulationResult:
        cached = self._decoded.get(key)
        if cached is None:
            cached = SimulationResult.from_json_dict(
                self._records[key]["result"]
            )
            self._decoded[key] = cached
        return cached

    def _match(self, config: SimulationConfig) -> Optional[str]:
        """Key of the record stored for *config*, verified against the
        stored config; None on a miss.

        A record whose stored config disagrees with *config* (a key
        collision or a corrupted record) is surfaced with a warning and
        treated as a miss: the store never serves a result for a config
        it was not simulated from.
        """
        _, _, key, requested = identify(config)
        record = self._records.get(key)
        if record is None:
            return None
        if record["config"] != requested:
            warnings.warn(
                f"store record {key} does not match the requested config "
                "(fingerprint collision?); treating it as a miss",
                StoreWarning,
                stacklevel=3,
            )
            return None
        return key

    def get(self, config: SimulationConfig) -> Optional[SimulationResult]:
        """Result stored for *config*, verified against the stored config
        (a mismatch warns and is a miss)."""
        key = self._match(config)
        return None if key is None else self._decode(key)

    # -- writing ---------------------------------------------------------

    def put(self, config: SimulationConfig, result: SimulationResult) -> bool:
        """Append *config*'s finished result; returns False if already stored.

        Raises :class:`StoreIntegrityError` when the key already holds a
        result for a **different** config — the collision-hygiene
        guarantee.
        """
        signature, point, key, config_dict = identify(config)
        existing = self._records.get(key)
        if existing is not None:
            if existing["config"] != config_dict:
                raise StoreIntegrityError(
                    f"store key {key} already holds a result for a "
                    f"different config (point {existing.get('point')!r}); "
                    "refusing to overwrite"
                )
            return False  # identical identity: nothing to add
        record = {
            "kind": "point",
            "v": STORE_VERSION,
            "key": key,
            "signature": signature,
            "point": point,
            "config": config_dict,
            "result": result.to_json_dict(),
            # Unix epoch seconds; drives the gc retention budgets.
            # Older records without the field sort as epoch 0 (evicted
            # first under any budget).
            "recorded_at": time.time(),
        }
        # Append-only: one line per point, O(record) bytes regardless of
        # how many points the store already holds.
        handle = self._handle
        if handle is not None and not os.fstat(handle.fileno()).st_nlink:
            self.close()  # another process replaced or removed the file
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()  # the record reaches the OS before we return
        self._records[key] = record
        return True

    # -- maintenance -----------------------------------------------------

    def gc(
        self,
        purge_sidecars: bool = False,
        max_age_days: Optional[float] = None,
        max_size_mb: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Compact the store file down to one line per live record.

        The append-only write path can leave superseded lines behind —
        one key appended by two writers sharing the file — which cost
        disk and load time but are never served.  ``gc`` atomically
        rewrites the file from the live in-memory records (the exact
        set lookups are answered from), dropping everything else.  With
        *purge_sidecars*, quarantine sidecars left by earlier recoveries
        are deleted too (``<path>.corrupt``, and the ``<path>.stale``
        that stores before the v1 checkpoint format was dropped wrote;
        nothing writes one now) — only ask for that once their contents
        have been inspected.

        Retention budgets evict *live* records, oldest first by their
        ``recorded_at`` stamp (records predating the stamp sort as
        epoch 0, so they go first):

        * *max_age_days* drops every record older than the cutoff
          (relative to *now*, default wall clock — injectable for
          tests).
        * *max_size_mb* then evicts oldest-first until the rewritten
          file fits the budget (sized as each record's JSON line).

        Returns a stats dict: lines/bytes before and after, the number
        of superseded lines dropped, records evicted by each budget,
        and the sidecar paths removed.
        """

        def measure() -> Tuple[int, int]:
            if not os.path.exists(self.path):
                return 0, 0
            with open(self.path, encoding="utf-8") as stream:
                text = stream.read()
            lines = sum(1 for line in text.splitlines() if line.strip())
            return lines, len(text.encode("utf-8"))

        def stamp(key: str) -> float:
            value = self._records[key].get("recorded_at")
            try:
                return float(value) if value is not None else 0.0
            except (TypeError, ValueError):
                return 0.0

        lines_before, bytes_before = measure()

        evicted_age = 0
        if max_age_days is not None:
            if now is None:
                now = time.time()
            cutoff = now - max_age_days * 86400.0
            stale = [
                key for key in self._records if stamp(key) < cutoff
            ]
            for key in stale:
                del self._records[key]
                self._decoded.pop(key, None)
            evicted_age = len(stale)

        evicted_size = 0
        if max_size_mb is not None:
            budget = max_size_mb * 1024.0 * 1024.0
            # Size each record as the JSON line _rewrite would emit.
            sizes = {
                key: len(json.dumps(record)) + 1
                for key, record in self._records.items()
            }
            total = float(sum(sizes.values()))
            # Oldest first; key breaks recorded_at ties deterministically.
            for key in sorted(self._records, key=lambda k: (stamp(k), k)):
                if total <= budget:
                    break
                total -= sizes[key]
                del self._records[key]
                self._decoded.pop(key, None)
                evicted_size += 1

        if lines_before or self._records or evicted_age or evicted_size:
            self._rewrite()
        lines_after, bytes_after = measure()

        removed: List[str] = []
        if purge_sidecars:
            for suffix in (".corrupt", ".stale"):
                sidecar = self.path + suffix
                if os.path.exists(sidecar):
                    os.unlink(sidecar)
                    removed.append(sidecar)
        return {
            "lines_before": lines_before,
            "lines_after": lines_after,
            # Superseded-duplicate lines only; budget evictions are
            # reported separately so the CLI's labels stay truthful.
            "dropped_lines": max(
                0, lines_before - lines_after - evicted_age - evicted_size
            ),
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "live_records": len(self._records),
            "evicted_age": evicted_age,
            "evicted_size": evicted_size,
            "sidecars_removed": removed,
        }

    def coverage(
        self, configs: List[SimulationConfig]
    ) -> Tuple[int, List[SimulationConfig]]:
        """(cached count, missing configs) for a campaign expansion.

        Checked as :meth:`get` checks a lookup, without decoding (or
        holding on to) a single result.
        """
        missing = [
            config for config in configs if self._match(config) is None
        ]
        return len(configs) - len(missing), missing


__all__ = [
    "STORE_VERSION",
    "ResultStore",
    "StoreIntegrityError",
    "StoreWarning",
]
