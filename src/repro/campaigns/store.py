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

In memory a record costs only what differs from the other points of its
campaign: a :class:`_Frame` holds everything the records of one
campaign share (the top-level fields and their order, the stored config
with null point fields, the result's key order), once per distinct JSON
text, and each record its three point fields, its result values and its
``recorded_at``.  A rewrite spells every line back byte for byte.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import warnings
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.campaigns.identity import (
    POINT_FIELDS,
    locate,
    point_grid,
    point_text,
    point_values,
)
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult
from repro.util.errors import ReproError

#: Store record schema version ("v" field of every record line).
STORE_VERSION = 2

#: Top-level record fields held per point.  Every other one — ``kind``,
#: ``v``, ``signature``, and whatever another writer added — is part of
#: the record's frame.
_PER_POINT = frozenset(("key", "point", "config", "result", "recorded_at"))

#: The stored-config fields a point key's :func:`point_grid` reads.
_GRID_FIELDS = ("traffic", "topology", "radix", "n_dims", "switching")


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


def _tender(value: Any) -> bool:
    """Whether ``==`` between two parsed JSON values of this one's type
    can hide a difference in the text they were spelled with: a zero
    float (``0.0 == -0.0``) or a non-empty container (``{"k": 1} ==
    {"k": true}``, and dicts compare without key order)."""
    if type(value) is float:
        return value == 0.0
    return type(value) in (dict, list) and bool(value)


class _Frame:
    """What the stored records of one campaign share, held once.

    * ``names`` — the record's top-level keys, in order;
    * ``fixed`` — the values of those outside :data:`_PER_POINT`;
    * ``config`` — the stored config with its point fields null (the
      shape of :func:`~repro.campaigns.identity.locate`'s template);
    * ``result_keys`` — the key order of a dict result, or None when the
      result is no dict and each record holds it as it is.

    Two records share a frame only if these parts spell the same JSON
    text, so ``80`` / ``80.0``, ``true`` / ``1`` and ``0.0`` / ``-0.0``
    never merge.
    """

    __slots__ = (
        "names", "fixed", "config", "result_keys", "signature", "grid",
        "agrees", "_order", "_values", "_types", "_texts",
    )

    def __init__(
        self,
        names: Tuple[str, ...],
        fixed: Tuple[Any, ...],
        config: Dict[str, Any],
        result_keys: Optional[Tuple[str, ...]],
    ) -> None:
        self.names = names
        self.fixed = fixed
        self.config = config
        self.result_keys = result_keys
        fixed_names = [name for name in names if name not in _PER_POINT]
        self.signature = str(dict(zip(fixed_names, fixed)).get("signature"))
        self.grid: Optional[str] = None
        if all(name in config for name in _GRID_FIELDS):
            self.grid = point_grid(*[config[name] for name in _GRID_FIELDS])
        #: The identity template ``config`` was last found equal to: a
        #: verdict kept together with the object it is about.
        self.agrees: Optional[Dict[str, Any]] = None
        self._order = (names, tuple(config), result_keys)
        self._values = (*fixed, *config.values())
        self._types = tuple(map(type, self._values))
        self._texts = tuple(
            (index, repr(value))
            for index, value in enumerate(self._values)
            if _tender(value)
        )

    def writes(
        self,
        names: Tuple[str, ...],
        fixed: Tuple[Any, ...],
        config: Dict[str, Any],
        result_keys: Optional[Tuple[str, ...]],
    ) -> bool:
        """Whether a record parsed into these parts has this frame's text.

        Equal parsed JSON values of one type spell the same text, but for
        the :func:`_tender` ones, whose ``repr`` — like the JSON text,
        key order and types included — tells them apart.
        """
        values = (*fixed, *config.values())
        return (
            (names, tuple(config), result_keys) == self._order
            and values == self._values
            and tuple(map(type, values)) == self._types
            and all(repr(values[i]) == text for i, text in self._texts)
        )


class _Record:
    """One stored point: its frame and what differs from point to point.

    ``point`` is None when the stored point key is the one the stored
    config derives, else ``(stored value,)``; ``result`` holds the
    result's values in ``frame.result_keys`` order (the stored value
    itself when ``result_keys`` is None).
    """

    __slots__ = (
        "frame", "algorithm", "offered_load", "seed", "point", "result",
        "recorded_at",
    )

    def __init__(
        self,
        frame: _Frame,
        algorithm: Any,
        offered_load: Any,
        seed: Any,
        point: Optional[Tuple[Any]],
        result: Any,
        recorded_at: Any,
    ) -> None:
        self.frame = frame
        self.algorithm = algorithm
        self.offered_load = offered_load
        self.seed = seed
        self.point = point
        self.result = result
        self.recorded_at = recorded_at

    @property
    def point_fields(self) -> Tuple[Any, Any, Any]:
        return self.algorithm, self.offered_load, self.seed


def _fixed(record: Dict[str, Any]) -> Tuple[Any, ...]:
    """The values of a record's top-level fields that its frame holds."""
    return tuple([
        value for name, value in record.items() if name not in _PER_POINT
    ])


def _derived_point(frame: _Frame, values: Tuple[Any, ...]) -> Optional[str]:
    """The point key a stored config derives; None if it derives none."""
    if frame.grid is None:
        return None
    algorithm, offered_load, seed = values
    try:
        return point_text(algorithm, frame.grid, offered_load, seed)
    except (TypeError, ValueError):  # a load that is no number
        return None


def _point_slot(
    frame: _Frame, values: Tuple[Any, ...], point: Any
) -> Optional[Tuple[Any]]:
    """:attr:`_Record.point` for a stored point key."""
    return None if point == _derived_point(frame, values) else (point,)


def _point(record: _Record) -> Any:
    if record.point is not None:
        return record.point[0]
    return _derived_point(record.frame, record.point_fields)


def _result(record: _Record) -> Any:
    keys = record.frame.result_keys
    return record.result if keys is None else dict(zip(keys, record.result))


def _line(key: Any, record: _Record) -> str:
    """The record's line: the text it was read from or written as."""
    frame = record.frame
    fixed = iter(frame.fixed)
    data: Dict[str, Any] = {}
    for name in frame.names:
        if name == "key":
            data[name] = key
        elif name == "point":
            data[name] = _point(record)
        elif name == "config":
            config = frame.config.copy()
            for field, value in zip(POINT_FIELDS, record.point_fields):
                if field in config:
                    config[field] = value
            data[name] = config
        elif name == "result":
            data[name] = _result(record)
        elif name == "recorded_at":
            data[name] = record.recorded_at
        else:
            data[name] = next(fixed)
    return json.dumps(data) + "\n"


def _serves(
    record: _Record, template: Dict[str, Any], config: SimulationConfig
) -> bool:
    """Whether *record* was stored from *config*, whose shared part is
    the identity memo's *template*: compared without building a dict."""
    frame = record.frame
    if frame.agrees is not template:
        if frame.config != template:
            return False
        frame.agrees = template
    return record.point_fields == point_values(config)


class ResultStore:
    """Append-only result store over one JSONL file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._records: Dict[str, _Record] = {}
        self._decoded: Dict[str, SimulationResult] = {}
        #: Frames by signature (None for a signature that is no str).
        self._frames: Dict[Optional[str], List[_Frame]] = {}
        #: The last ``put``'s (identity template, frame): the next put of
        #: its campaign reuses the frame without a check.
        self._put_held: Optional[Tuple[Dict[str, Any], _Frame]] = None
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
        lines = bad = 0
        try:
            with open(self.path, encoding="utf-8") as stream:
                for line in stream:
                    if not line.strip():
                        continue
                    lines += 1
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        bad += 1
                        continue
                    if not self._admit(record):
                        bad += 1
        except OSError as error:
            self._records.clear()
            _quarantine(
                self.path,
                f"store file {self.path!r} is unreadable ({error}); "
                "starting fresh",
            )
            return
        if bad:
            _quarantine(
                self.path,
                f"store file {self.path!r}: skipped {bad} corrupt or "
                f"unrecognized record line(s) of {lines}",
            )
            self._rewrite(self._records)

    def _admit(self, record: Any) -> bool:
        """Hold one parsed line in compact form; False if it is no v2
        point record."""
        if (
            not isinstance(record, dict)
            or record.get("v") != STORE_VERSION
            or record.get("kind") != "point"
            or "key" not in record
            or not isinstance(record.get("config"), dict)
        ):
            return False
        config = record["config"]
        values = tuple([config.get(name) for name in POINT_FIELDS])
        for name in POINT_FIELDS:
            if name in config:
                config[name] = None
        result = record.get("result")
        result_keys = None
        if type(result) is dict:
            result_keys, result = tuple(result), tuple(result.values())
        frame = self._frame(
            record.get("signature"),
            tuple(record),
            _fixed(record),
            config,
            result_keys,
        )
        # Last record wins, should two writers have appended one key.
        self._records[record["key"]] = _Record(
            frame,
            *values,
            _point_slot(frame, values, record.get("point")),
            result,
            record.get("recorded_at"),
        )
        return True

    def _frame(
        self,
        signature: Any,
        names: Tuple[str, ...],
        fixed: Tuple[Any, ...],
        config: Dict[str, Any],
        result_keys: Optional[Tuple[str, ...]],
    ) -> _Frame:
        """The held frame these parts spell, or a new one holding them."""
        bucket = self._frames.setdefault(
            signature if type(signature) is str else None, []
        )
        for frame in bucket:
            if frame.writes(names, fixed, config, result_keys):
                return frame
        frame = _Frame(names, fixed, config, result_keys)
        bucket.append(frame)
        return frame

    def _rewrite(self, records: Dict[str, _Record]) -> None:
        """Atomically rewrite the file from *records*.

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
                for key, record in records.items():
                    stream.write(_line(key, record))
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
            signature = record.frame.signature
            counts[signature] = counts.get(signature, 0) + 1
        return counts

    def _decode(self, key: str, record: _Record) -> SimulationResult:
        cached = self._decoded.get(key)
        if cached is None:
            cached = SimulationResult.from_json_dict(_result(record))
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
        _, _, key, template = locate(config)
        record = self._records.get(key)
        if record is None:
            return None
        if not _serves(record, template, config):
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
        return None if key is None else self._decode(key, self._records[key])

    # -- writing ---------------------------------------------------------

    def _put_frame(
        self, template: Dict[str, Any], line: Dict[str, Any]
    ) -> _Frame:
        """The frame of *line*, a record :meth:`put` writes for
        *template*'s campaign."""
        result_keys = tuple(line["result"])
        held = self._put_held
        if (
            held is None
            or held[0] is not template
            or held[1].result_keys != result_keys
        ):
            frame = self._frame(
                line["signature"],
                tuple(line),
                _fixed(line),
                template,
                result_keys,
            )
            frame.agrees = template  # it spells the template's text
            held = self._put_held = (template, frame)
        return held[1]

    def put(self, config: SimulationConfig, result: SimulationResult) -> bool:
        """Append *config*'s finished result; returns False if already stored.

        Raises :class:`StoreIntegrityError` when the key already holds a
        result for a **different** config — the collision-hygiene
        guarantee.
        """
        signature, point, key, template = locate(config)
        existing = self._records.get(key)
        if existing is not None:
            if not _serves(existing, template, config):
                raise StoreIntegrityError(
                    f"store key {key} already holds a result for a "
                    f"different config (point {_point(existing)!r}); "
                    "refusing to overwrite"
                )
            return False  # identical identity: nothing to add
        values = point_values(config)
        stored = template.copy()
        stored.update(zip(POINT_FIELDS, values))
        data = result.to_json_dict()
        line = {
            "kind": "point",
            "v": STORE_VERSION,
            "key": key,
            "signature": signature,
            "point": point,
            "config": stored,
            "result": data,
            # Unix epoch seconds; drives the gc retention budgets.
            # Older records without the field sort as epoch 0 (evicted
            # first under any budget).
            "recorded_at": time.time(),
        }
        frame = self._put_frame(template, line)
        record = _Record(
            frame,
            *values,
            _point_slot(frame, values, point),
            tuple(data.values()),
            line["recorded_at"],
        )
        # Append-only: one line per point, O(record) bytes regardless of
        # how many points the store already holds.
        handle = self._handle
        if handle is not None and not os.fstat(handle.fileno()).st_nlink:
            self.close()  # another process replaced or removed the file
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(line) + "\n")
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

        Evicted records leave memory only once the rewrite succeeded:
        a failed one (a full disk) raises with the file and the store
        as they were.

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

        def stamp(record: _Record) -> float:
            value = record.recorded_at
            try:
                return float(value) if value is not None else 0.0
            except (TypeError, ValueError):
                return 0.0

        lines_before, bytes_before = measure()
        live = dict(self._records)

        evicted_age = 0
        if max_age_days is not None:
            if now is None:
                now = time.time()
            cutoff = now - max_age_days * 86400.0
            kept = {
                key: record for key, record in live.items()
                if not stamp(record) < cutoff
            }
            evicted_age = len(live) - len(kept)
            live = kept

        evicted_size = 0
        if max_size_mb is not None:
            budget = max_size_mb * 1024.0 * 1024.0
            # Size each record as the line _rewrite would emit.
            sizes = {key: len(_line(key, record)) for key, record in live.items()}
            total = float(sum(sizes.values()))
            # Oldest first; key breaks recorded_at ties deterministically.
            for key in sorted(live, key=lambda k: (stamp(live[k]), k)):
                if total <= budget:
                    break
                total -= sizes[key]
                del live[key]
                evicted_size += 1

        if lines_before or live or evicted_age or evicted_size:
            self._rewrite(live)
        for key in self._records.keys() - live.keys():
            self._decoded.pop(key, None)
        self._records = live
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
