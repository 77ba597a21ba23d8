"""Structured event traces: what happened to every message, and when.

The trace is a flat NDJSON stream behind a schema version, so external
tooling can parse it without knowing the simulator's internals:

* line 1 — a ``header`` record naming the schema
  (``repro.obs.trace``), its version, and free-form run metadata;
* one ``event`` record per traced simulation event, each carrying the
  cycle number, the event type and type-specific fields;
* a final ``footer`` record with the kept/dropped event counts, so a
  truncated trace is detectable (the event list is bounded by
  ``limit``).

Event types (``EVENT_*`` constants): message created / refused,
head blocked, virtual channel acquired, flit moved (opt-in, high
volume), message delivered, and the watchdog's deadlock report (its
summary, wait-for cycle and blocked-message count).

Version 2: a ``msg_blocked`` record stands for ``cycles`` consecutive
failed attempts of one message — a blocked episode, written when the
engine serves the message again or the episode is settled (one attempt
under the reference stepper).  Version 1 wrote a record per attempt and
no ``cycles``; its files are rejected, not migrated.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, TextIO

from repro.util.validation import require_positive

#: Schema identity embedded in every trace header.
TRACE_SCHEMA = "repro.obs.trace"
TRACE_SCHEMA_VERSION = 2

EVENT_MSG_CREATED = "msg_created"
EVENT_MSG_REFUSED = "msg_refused"
EVENT_MSG_BLOCKED = "msg_blocked"
EVENT_VC_ACQUIRED = "vc_acquired"
EVENT_FLIT_MOVED = "flit_moved"
EVENT_MSG_DELIVERED = "msg_delivered"
EVENT_DEADLOCK = "deadlock"

#: Every event type a schema-valid trace may contain.
EVENT_TYPES = (
    EVENT_MSG_CREATED,
    EVENT_MSG_REFUSED,
    EVENT_MSG_BLOCKED,
    EVENT_VC_ACQUIRED,
    EVENT_FLIT_MOVED,
    EVENT_MSG_DELIVERED,
    EVENT_DEADLOCK,
)


class TraceWriter:
    """Bounded, schema-versioned collector of simulation events."""

    def __init__(
        self,
        limit: int = 50_000,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        require_positive(limit, "limit")
        self.limit = limit
        self.meta: Dict[str, Any] = dict(meta or {})
        self._events: List[Dict[str, Any]] = []
        #: Events discarded once the limit was hit.
        self.dropped = 0

    def emit(self, cycle: int, event: str, **fields: Any) -> None:
        """Record one event (dropped silently past the limit)."""
        if len(self._events) >= self.limit:
            self.dropped += 1
            return
        record: Dict[str, Any] = {"cycle": cycle, "event": event}
        record.update(fields)
        self._events.append(record)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[Dict[str, Any]]:
        return self._events

    def write(self, stream: TextIO) -> None:
        """Write the NDJSON trace: header, events, footer."""
        header = {
            "record": "header",
            "schema": TRACE_SCHEMA,
            "version": TRACE_SCHEMA_VERSION,
            "meta": self.meta,
        }
        stream.write(json.dumps(header) + "\n")
        for event in self._events:
            record = {"record": "event"}
            record.update(event)
            stream.write(json.dumps(record) + "\n")
        footer = {
            "record": "footer",
            "events": len(self._events),
            "dropped": self.dropped,
        }
        stream.write(json.dumps(footer) + "\n")

    def write_path(self, path: str) -> None:
        with open(path, "w") as stream:
            self.write(stream)


def validate_trace_lines(lines: List[str]) -> Dict[str, int]:
    """Parse an NDJSON trace and check its schema; return event counts.

    Raises ``ValueError`` on any malformed line, wrong schema/version,
    unknown event type, or missing header/footer.  Used by the test
    suite and available to external consumers as a quick integrity
    check.
    """
    records = [json.loads(line) for line in lines if line.strip()]
    if len(records) < 2:
        raise ValueError("trace must contain a header and a footer")
    if not all(isinstance(record, dict) for record in records):
        raise ValueError("a line is not a JSON object")
    header, body, footer = records[0], records[1:-1], records[-1]
    if header.get("record") != "header":
        raise ValueError("first record is not a header")
    if header.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"unexpected schema {header.get('schema')!r}")
    if header.get("version") != TRACE_SCHEMA_VERSION:
        raise ValueError(f"unexpected version {header.get('version')!r}")
    if footer.get("record") != "footer":
        raise ValueError("last record is not a footer")
    counts: Dict[str, int] = {}
    for record in body:
        if record.get("record") != "event":
            raise ValueError(f"unexpected record {record.get('record')!r}")
        event = record.get("event")
        if event not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event!r}")
        if not isinstance(record.get("cycle"), int):
            raise ValueError("event record without an integer cycle")
        if event == EVENT_MSG_BLOCKED and not isinstance(
            record.get("cycles"), int
        ):
            raise ValueError("msg_blocked record without integer cycles")
        counts[event] = counts.get(event, 0) + 1
    if footer.get("events") != len(body):
        raise ValueError(
            f"footer counts {footer.get('events')} events, "
            f"trace has {len(body)}"
        )
    return counts


__all__ = [
    "EVENT_DEADLOCK",
    "EVENT_FLIT_MOVED",
    "EVENT_MSG_BLOCKED",
    "EVENT_MSG_CREATED",
    "EVENT_MSG_DELIVERED",
    "EVENT_MSG_REFUSED",
    "EVENT_TYPES",
    "EVENT_VC_ACQUIRED",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "TraceWriter",
    "validate_trace_lines",
]
