"""Content-addressed, append-only store of simulation results.

One :class:`ResultStore` file holds one JSON record per finished
simulation point, keyed by the point's content address
(:func:`~repro.campaigns.identity.identify`), and is the only result
format on disk (JSONL, schema v2).  Its owner opens it and hands the
object to ``run_campaign`` or ``run_points(..., store=)``; nothing
opens one on a caller's behalf.  The store is shared across campaigns:
any point list containing a previously simulated config gets that point
served from disk instead of re-simulated, bit-identical to a fresh run
(results are a pure function of the config).  :meth:`ResultStore.get`
and :meth:`ResultStore.put`, both addressed by config, are the whole
record API.

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

In memory a record holds only what differs from the other points of
its campaign.  A :class:`_Frame` holds, once per distinct JSON text,
what the records of one campaign share: the top-level fields and their
order, the stored config with null point fields, the result's key order
and value types, and the key order of each flat nested result dict
(``latency_percentiles``, ``hop_class_latency``).  A record holds its
three point fields, a tuple of its result values — each flat nested
dict as the tuple of its values — and, on a line that carries one, its
``recorded_at`` (a wall-clock stamp earlier writers added; ``put``
writes none).  Each distinct str — a result value, a nested key, the
``algorithm`` point field — is one object per store; numbers are each
record's own.  A nested dict that holds a dict or a list
(``obs_metrics``), an empty one and a list value are held as parsed.
A rewrite spells every line back byte for byte.

Writers share the file through an advisory ``fcntl.flock`` (POSIX
only): ``put`` holds it for its append and ``gc`` from its re-read to
its rewrite, so no line another process appends in between is lost.
"""

from __future__ import annotations

import fcntl
import functools
import json
import os
import shutil
import tempfile
import warnings
from typing import IO, Any, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.campaigns.identity import (
    POINT_FIELDS,
    locate,
    point_grid,
    point_text,
    point_values,
)
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult, json_fields, unshared
from repro.util.errors import ReproError

#: Store record schema version ("v" field of every record line).
STORE_VERSION = 2

#: Top-level record fields held per point.  Every other one — ``kind``,
#: ``v``, ``signature``, and whatever another writer added — is part of
#: the record's frame.
_PER_POINT = frozenset(("key", "point", "config", "result", "recorded_at"))

#: The stored-config fields a point key's :func:`point_grid` reads.
_GRID_FIELDS = ("traffic", "topology", "radix", "n_dims", "switching")

#: Value types a nested result dict must not hold to be held flat.
_CONTAINERS = frozenset((dict, list))

#: What a dict result's frame holds of it: its key order, the type of
#: each value, and per dict value its flat key order (None: held as is).
_Shape = Tuple[Tuple[str, ...], Tuple[type, ...], Tuple[Any, ...]]


class StoreWarning(UserWarning):
    """A campaign-store file needed recovery or was not trusted."""


class StoreIntegrityError(ReproError):
    """Two different configs mapped to the same store key."""


class StoreBusyError(ReproError):
    """``gc`` could take no lock and another writer appended meanwhile."""


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


@functools.lru_cache(maxsize=64)
def _dict_positions(kinds: Tuple[type, ...]) -> Tuple[int, ...]:
    """Where a result whose values have these types holds a dict."""
    return tuple([index for index, kind in enumerate(kinds) if kind is dict])


def _shape(keys: Tuple[Any, ...], values: Sequence[Any]) -> _Shape:
    """The :data:`_Shape` of a dict result with these keys and values:
    a nested dict has a key order if it is not empty and holds no dict
    or list, else None (a record holds it as it is)."""
    kinds = tuple(map(type, values))
    nested = []
    for index in _dict_positions(kinds):
        inner = values[index]
        flat = inner and _CONTAINERS.isdisjoint(map(type, inner.values()))
        nested.append(tuple(inner) if flat else None)
    return keys, kinds, tuple(nested)


def _json_keys(keys: Optional[Tuple[Any, ...]]) -> Optional[Tuple[str, ...]]:
    """*keys* as JSON spells dict keys (``50`` -> ``"50"``); None when
    they are None or two of them spell alike."""
    if keys is None or all(type(key) is str for key in keys):
        return keys
    if all(type(key) is int for key in keys):
        return tuple(map(str, keys))
    spelled = tuple(json.loads(json.dumps(dict.fromkeys(keys, 0))))
    return spelled if len(spelled) == len(keys) else None


#: The scanner ``json.loads`` runs, called without its per-call checks.
_scan = json.JSONDecoder().scan_once


def _parse(line: str) -> Any:
    """``json.loads(line)``: the scanner alone for a line that is one
    JSON value and at most a newline, ``json.loads`` (and its error)
    for any other."""
    try:
        value, end = _scan(line, 0)
    except StopIteration:
        return json.loads(line)
    if line[end:] in ("", "\n"):
        return value
    return json.loads(line)


def _lock(stream: IO[Any]) -> bool:
    """Take the store's advisory lock on *stream*'s file, waiting for
    another writer's; False where the file system grants none."""
    try:
        fcntl.flock(stream.fileno(), fcntl.LOCK_EX)
    except OSError:
        return False
    return True


class _Frame:
    """What the stored records of one campaign share, held once.

    * ``names`` — the record's top-level keys, in order;
    * ``fixed`` — the values of those outside :data:`_PER_POINT`;
    * ``config`` — the stored config with its point fields null (the
      shape of :func:`~repro.campaigns.identity.locate`'s template);
    * ``result_keys`` — the key order of a dict result, or None when the
      result is no dict and each record holds it as it is;
    * ``strs`` — the result positions that hold a str, ``packed`` those
      that hold a flat nested dict, with its key order, and ``kept``
      the other dicts and the lists, which a record holds as they are.

    Two records share a frame only if these parts spell the same JSON
    text, so ``80`` / ``80.0``, ``true`` / ``1`` and ``0.0`` / ``-0.0``
    never merge; the store finds a record's frames by signature and
    result :data:`_Shape`.
    """

    __slots__ = (
        "names", "fixed", "config", "result_keys", "strs", "packed", "kept",
        "signature", "grid", "agrees", "_order", "_values", "_types",
        "_texts",
    )

    def __init__(
        self,
        names: Tuple[str, ...],
        fixed: Tuple[Any, ...],
        config: Dict[str, Any],
        shape: Optional[_Shape],
    ) -> None:
        self.names = names
        self.fixed = fixed
        self.config = config
        self.result_keys: Optional[Tuple[str, ...]] = None
        self.strs: Tuple[int, ...] = ()
        self.packed: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
        self.kept: Tuple[int, ...] = ()
        if shape is not None:
            self.result_keys, kinds, nested = shape
            dicts = dict(zip(_dict_positions(kinds), nested))
            self.strs = tuple(
                [index for index, kind in enumerate(kinds) if kind is str]
            )
            self.packed = tuple(
                [(index, keys) for index, keys in dicts.items() if keys]
            )
            self.kept = tuple([
                index for index, kind in enumerate(kinds)
                if kind is list or (kind is dict and not dicts[index])
            ])
        fixed_names = [name for name in names if name not in _PER_POINT]
        self.signature = str(dict(zip(fixed_names, fixed)).get("signature"))
        self.grid: Optional[str] = None
        if all(name in config for name in _GRID_FIELDS):
            self.grid = point_grid(*[config[name] for name in _GRID_FIELDS])
        #: The identity template ``config`` was last found equal to: a
        #: verdict kept together with the object it is about.
        self.agrees: Optional[Dict[str, Any]] = None
        self._order = (names, tuple(config))
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
    ) -> bool:
        """Whether a record of this frame's result shape, parsed into
        these parts, has this frame's text.

        Equal parsed JSON values of one type spell the same text, but for
        the :func:`_tender` ones, whose ``repr`` — like the JSON text,
        key order and types included — tells them apart.
        """
        values = (*fixed, *config.values())
        if not (
            (names, tuple(config)) == self._order
            and values == self._values
            and tuple(map(type, values)) == self._types
        ):
            return False
        for index, text in self._texts:
            if repr(values[index]) != text:
                return False
        return True

    def hold(
        self, held: List[Any], texts: Dict[Any, Any], copy: bool
    ) -> Tuple[Any, ...]:
        """A record's result tuple from a list of its values in key
        order, which it reuses: each str the store's one object of its
        text, each flat nested dict the tuple of its values, and with
        *copy* each other dict and list a fresh copy (``put`` holds none
        of its caller's)."""
        for index in self.strs:
            text = held[index]
            held[index] = texts.setdefault(text, text)
        for index, _ in self.packed:
            held[index] = tuple(held[index].values())
        if copy:
            for index in self.kept:
                held[index] = unshared(held[index])
        return tuple(held)


class _Record:
    """One stored point: its frame and what differs from point to point.

    ``point`` is None when the stored point key is the one the stored
    config derives, else ``(stored value,)``; ``result`` holds the
    result's values in ``frame.result_keys`` order, as
    :meth:`_Frame.hold` made them (the stored value itself when
    ``result_keys`` is None); ``recorded_at`` is the
    wall-clock stamp older lines carry (None on a line without one),
    held so such a line is written back as it was read.
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
    frame = record.frame
    if frame.result_keys is None:
        return record.result
    values = record.result
    if frame.packed:
        values = list(values)
        for index, keys in frame.packed:
            values[index] = dict(zip(keys, values[index]))
    return dict(zip(frame.result_keys, values))


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
        #: By (signature, result shape): that shape, its keys shared, and
        #: its frames; None for a signature that is no str.
        self._frames: Dict[
            Tuple[Optional[str], Optional[_Shape]],
            Tuple[Optional[_Shape], List[_Frame]],
        ] = {}
        #: One object per distinct str and key tuple the records hold.
        self._texts: Dict[Any, Any] = {}
        #: The last ``put``'s identity template, result keys, value types
        #: and nested keys, and its frame: the next put of the same
        #: campaign and shape reuses the frame without a check.
        self._put_held: Optional[Tuple[Any, ...]] = None
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
                    if line.isspace():
                        continue
                    lines += 1
                    try:
                        record = _parse(line)
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
        shape = None
        if type(result) is dict:
            result = list(result.values())
            shape = _shape(tuple(record["result"]), result)
        frame = self._frame(
            record.get("signature"), tuple(record), _fixed(record), config,
            shape,
        )
        if shape is not None:
            result = frame.hold(result, self._texts, False)
        algorithm, offered_load, seed = values
        if type(algorithm) is str:
            algorithm = self._texts.setdefault(algorithm, algorithm)
        # Last record wins, should two writers have appended one key.
        self._records[record["key"]] = _Record(
            frame,
            algorithm,
            offered_load,
            seed,
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
        shape: Optional[_Shape],
    ) -> _Frame:
        """The held frame these parts spell, or a new one holding them
        (its keys the store's one object of their text)."""
        if type(signature) is not str:
            signature = None
        found = self._frames.get((signature, shape))
        if found is None:
            if shape is not None:
                keys, kinds, nested = shape
                shape = (
                    self._share(keys),
                    kinds,
                    tuple([inner and self._share(inner) for inner in nested]),
                )
            found = self._frames[signature, shape] = (shape, [])
        shape, bucket = found
        for frame in bucket:
            if frame.writes(names, fixed, config):
                return frame
        frame = _Frame(names, fixed, config, shape)
        bucket.append(frame)
        return frame

    def _share(self, keys: Tuple[str, ...]) -> Tuple[str, ...]:
        """The store's one object of a key tuple, of its keys' texts."""
        texts = self._texts
        shared = tuple([texts.setdefault(key, key) for key in keys])
        return texts.setdefault(shared, shared)

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
        self,
        template: Dict[str, Any],
        line: Dict[str, Any],
        values: Tuple[Any, ...],
    ) -> _Frame:
        """The frame of *line*, a record :meth:`put` writes for
        *template*'s campaign, whose result holds *values*."""
        names, kinds, nested = _shape(tuple(line["result"]), values)
        held = self._put_held
        if (
            held is None
            or held[0] is not template
            or held[1] != (names, kinds)
            or held[2] != nested
        ):
            frame = self._frame(
                line["signature"],
                tuple(line),
                _fixed(line),
                template,
                (names, kinds, tuple(map(_json_keys, nested))),
            )
            frame.agrees = template  # it spells the template's text
            held = self._put_held = (template, (names, kinds), nested, frame)
        return held[3]

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
        names, data = json_fields(result)
        line = {
            "kind": "point",
            "v": STORE_VERSION,
            "key": key,
            "signature": signature,
            "point": point,
            "config": stored,
            "result": dict(zip(names, data)),
        }
        text = json.dumps(line) + "\n"
        frame = self._put_frame(template, line, data)
        algorithm, offered_load, seed = values
        record = _Record(
            frame,
            self._texts.setdefault(algorithm, algorithm),
            offered_load,
            seed,
            _point_slot(frame, values, point),
            frame.hold(list(data), self._texts, True),
            None,
        )
        self._append(text)
        self._records[key] = record
        return True

    def _append(self, text: str) -> None:
        """Append one line to the file at the path, under its lock.

        Append-only: O(record) bytes regardless of how many points the
        store already holds.  A handle whose file was replaced while it
        waited for the lock (another store's ``gc``) or removed is
        reopened at the path.
        """
        while True:
            if self._handle is None:
                directory = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            handle = self._handle
            locked = _lock(handle)
            if os.fstat(handle.fileno()).st_nlink:
                break
            self.close()  # releases the lock on the file that is gone
        try:
            handle.write(text)
            handle.flush()  # the record reaches the OS before we return
        finally:
            if locked:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- maintenance -----------------------------------------------------

    def gc(self) -> Dict[str, Any]:
        """Compact the store file down to one line per live record.

        The append-only write path can leave superseded lines behind —
        one key appended by two writers sharing the file — which cost
        disk and load time but are never served.  ``gc`` re-reads the
        file as opening it does (the last record of a key wins; other
        writers' lines are kept) and atomically rewrites it from the live
        records, each line spelled as it was read.  It holds the file's
        lock from the re-read to the rewrite, so a ``put`` of another
        store waits and then appends to the new file; where the file
        system grants no lock, ``gc`` raises :class:`StoreBusyError`
        rather than drop a line appended since its read.  A rewrite the
        disk cannot hold raises with the file as it was.

        Returns a stats dict: lines/bytes before and after, the number
        of superseded lines dropped and the live record count.
        """

        def measure() -> Tuple[int, int]:
            if not os.path.exists(self.path):
                return 0, 0
            with open(self.path, encoding="utf-8") as stream:
                text = stream.read()
            lines = sum(1 for line in text.splitlines() if line.strip())
            return lines, len(text.encode("utf-8"))

        guard: Optional[IO[bytes]] = None
        locked = False
        while guard is None:
            try:
                guard = open(self.path, "rb")
            except FileNotFoundError:
                break
            locked = _lock(guard)
            if not os.fstat(guard.fileno()).st_nlink:
                guard.close()  # replaced before we held it: lock the new one
                guard = None
        try:
            lines_before, bytes_before = measure()
            self._decoded.clear()
            self._load()
            if (
                guard is not None
                and not locked
                and os.fstat(guard.fileno()).st_size != bytes_before
            ):
                raise StoreBusyError(
                    f"store file {self.path!r} grew while gc read it and "
                    "could not be locked; nothing was rewritten"
                )
            if lines_before or self._records:
                self._rewrite(self._records)
        finally:
            if guard is not None:
                guard.close()  # and with it the lock
        lines_after, bytes_after = measure()
        return {
            "lines_before": lines_before,
            "lines_after": lines_after,
            "dropped_lines": lines_before - lines_after,
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "live_records": len(self._records),
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
    "StoreBusyError",
    "StoreIntegrityError",
    "StoreWarning",
]
