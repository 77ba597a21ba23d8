"""Content identity of simulation points: the store's addressing scheme.

A simulation point is fully determined by its
:class:`~repro.simulator.config.SimulationConfig` (results are a pure
function of the config — the serial/parallel/batch identity tests pin
this), so a *content address* derived from the config is a sound cache
key: two campaigns that expand to the same config may share one stored
result.

The identity is split the same way sweep checkpoints always split it:

* :func:`campaign_signature` hashes every field **shared** by the points
  of one campaign (everything except algorithm / offered load / seed, and
  except the backend — what tells an object-engine result from a batch
  one is the ``identity`` field, which is hashed);
* :func:`point_key` names one point **within** a campaign;
* :func:`result_key` combines the two into the store's record key.

These definitions were born in :mod:`repro.experiments.parallel` (which
re-exports them unchanged); they live here so the campaign store can use
them without importing the scheduler.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from operator import attrgetter
from typing import Any, Dict, Tuple

from repro.simulator.config import SimulationConfig
from repro.stats.summary import unshared

#: Config fields that vary between the points of one campaign; everything
#: else must match for a stored result to be reused.
POINT_FIELDS = ("algorithm", "offered_load", "seed")

#: Fields excluded from the campaign signature: the point fields, plus
#: the backend.  ``backend`` stays out because every store written so
#: far was addressed without it (it dates from when a strict batch
#: stepper returned the object engine's bytes, whose records —
#: ``identity="strict"`` — the object engine now serves and extends).
#:
#: ``identity`` is deliberately NOT excluded, and is what keeps the two
#: backends apart: batch results are statistically, not bitwise,
#: equivalent to the object engine's and must never be served where
#: those were asked for (or vice versa).  Config validation admits
#: exactly ``backend="object", identity="strict"`` and
#: ``backend="batch", identity="relaxed"``, so a backendless identity
#: never conflates the two contracts.  Since the signature hashes every
#: non-excluded field of the config dataclass, stores written before
#: the ``identity`` field existed hash differently and show up as cache
#: misses — re-simulate (or keep serving them from an old checkout);
#: they are never served wrongly.
SIGNATURE_EXCLUDED = POINT_FIELDS + ("backend",)

_FIELDS = tuple(f.name for f in dataclasses.fields(SimulationConfig))
_SHARED_FIELDS = tuple(n for n in _FIELDS if n not in SIGNATURE_EXCLUDED)
_shared_values = attrgetter(*_SHARED_FIELDS)
_point_values = attrgetter(*POINT_FIELDS)
#: Types whose values are their own memo key.  Any other value is keyed
#: by its JSON text, because Python equates values that JSON writes
#: apart (80 == 80.0, True == 1, 0.0 == -0.0).
_PLAIN = frozenset((str, int, type(None)))
#: Types a stored config reads back as the same value.
_READ_BACK_AS_IS = _PLAIN | {float}
_to_json = json.JSONEncoder(sort_keys=True, default=repr).encode


def _spell(value: Any) -> Tuple[str]:
    """``(JSON text of value,)``: the memo key of a non-plain value.

    The values every campaign holds — finite floats, bools, empty
    options — are spelled as ``json`` writes them, without the encoder.
    """
    kind = type(value)
    if kind is float:
        if value - value == 0.0:  # finite: json writes float.__repr__
            return (float.__repr__(value),)
    elif kind is bool:
        return ("true",) if value else ("false",)
    elif kind is dict:
        if not value:
            return ("{}",)
    elif (kind is list or kind is tuple) and not value:
        return ("[]",)
    return (_to_json(value),)


def point_grid(
    traffic: Any, topology: Any, radix: Any, n_dims: Any, switching: Any
) -> str:
    """The campaign-shared middle of a point key."""
    return f"{traffic}|{topology}{radix}^{n_dims}|{switching}"


def point_text(algorithm: Any, grid: str, offered_load: Any, seed: Any) -> str:
    """A point key from its point fields and its :func:`point_grid`."""
    return f"{algorithm}|{grid}|load={offered_load:.6g}|seed={seed}"


def point_key(config: SimulationConfig) -> str:
    """Stable identity of one sweep point within a campaign."""
    return point_text(
        config.algorithm,
        point_grid(config.traffic, config.topology, config.radix,
                   config.n_dims, config.switching),
        config.offered_load,
        config.seed,
    )


def point_values(config: SimulationConfig) -> Tuple[Any, ...]:
    """The ``POINT_FIELDS`` of *config* as its stored config reads back."""
    values = _point_values(config)
    for value in values:
        if type(value) not in _READ_BACK_AS_IS:
            return tuple([
                value if type(value) in _READ_BACK_AS_IS
                else json.loads(_to_json(value))
                for value in values
            ])
    return values


@functools.lru_cache(maxsize=256)
def _derive_shared(
    values: Tuple[Any, ...],
) -> Tuple[str, Dict[str, Any], Tuple[str, ...]]:
    """(signature, stored-config template with null point fields, names
    of its container values) of one set of shared values.  Spelling the
    JSON field by field is byte for byte what one ``sort_keys`` dump of
    the whole dict writes.  The template is parsed once, here:
    :func:`identify` hands out copies, :func:`locate` the template itself,
    read-only."""
    texts = {
        name: value[0] if type(value) is tuple else json.dumps(value)
        for name, value in zip(_SHARED_FIELDS, values)
    }
    # Address components that are no longer config fields: each left
    # SimulationConfig when it changed no simulated number (the
    # ``scheduler`` selected no code; every watchdog trip now reports,
    # which ``sanitize`` once opted into), and results stay addressed
    # under the default each always had.
    texts["sanitize"] = "false"
    texts["scheduler"] = '"active"'
    blob = "{%s}" % ", ".join(f'"{n}": {texts[n]}' for n in sorted(texts))
    texts.update(dict.fromkeys(POINT_FIELDS, "null"))
    template = json.loads(
        "{%s}" % ", ".join(f'"{n}": {texts[n]}' for n in sorted(texts))
    )
    containers = tuple(
        name for name, value in template.items()
        if type(value) in (dict, list)
    )
    signature = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return signature, template, containers


def _shared(
    config: SimulationConfig,
) -> Tuple[str, Dict[str, Any], Tuple[str, ...]]:
    """The campaign-shared part of an identity, derived once per distinct
    set of values (a bounded memo).  The key is the values as they are
    now, never the config instance, which is mutable: a ``str`` / ``int``
    / ``None`` is its own key, any other value the JSON text it is
    hashed as."""
    return _derive_shared(tuple([
        value if type(value) in _PLAIN else _spell(value)
        for value in _shared_values(config)
    ]))


def campaign_signature(config: SimulationConfig) -> str:
    """Hash of every config field shared by all points of a campaign.

    Two configs that differ only in algorithm / offered load / seed map
    to the same signature, so one checkpoint file can back a whole
    figure's (algorithms x loads) grid — while a checkpoint recorded
    under different sampling schedules, switching modes, etc. is
    rejected instead of silently reused.
    """
    return _shared(config)[0]


def result_key(signature: str, point: str) -> str:
    """The store's content address for one (campaign, point) identity."""
    blob = f"{signature}\n{point}"
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def identify(config: SimulationConfig) -> Tuple[str, str, str, Dict[str, Any]]:
    """(signature, point key, record key, stored config), derived once.

    The stored config is every field the result depends on (not the
    backend, as for the signature), as the store's JSON reads back.  It
    is the caller's own: a copy of the memoised template whose dicts and
    lists, empty ones included, are fresh.
    """
    signature, template, containers = _shared(config)
    point = point_key(config)
    stored = template.copy()
    for name in containers:
        stored[name] = unshared(template[name])
    stored.update(zip(POINT_FIELDS, point_values(config)))
    return signature, point, result_key(signature, point), stored


def locate(config: SimulationConfig) -> Tuple[str, str, str, Dict[str, Any]]:
    """(signature, point key, record key, shared template): :func:`identify`
    without the copy.

    The template is the memo's own stored config with null point fields,
    one object per distinct set of shared values: read it, or hold it to
    recognise that set again, but never edit it.
    """
    signature, template, _ = _shared(config)
    point = point_key(config)
    return signature, point, result_key(signature, point), template


def config_key(config: SimulationConfig) -> str:
    """Content address of one config's simulation result."""
    return identify(config)[2]


def config_record_dict(config: SimulationConfig) -> Dict[str, Any]:
    """The config as stored beside its result, for collision hygiene."""
    return identify(config)[3]


__all__ = [
    "POINT_FIELDS",
    "SIGNATURE_EXCLUDED",
    "campaign_signature",
    "config_key",
    "config_record_dict",
    "identify",
    "locate",
    "point_grid",
    "point_key",
    "point_text",
    "point_values",
    "result_key",
]
