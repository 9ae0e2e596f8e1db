"""JSON data substrate: streaming parser, item model, paths, projection.

This package is the from-scratch replacement for the Jackson-style JSON
parsing layer that Apache VXQuery relies on.  It provides:

- :mod:`repro.jsonlib.events` — the event vocabulary of a streaming parse,
- :mod:`repro.jsonlib.parser` — an incremental (feed-chunks) JSON parser,
- :mod:`repro.jsonlib.items` — the JSONiq item model and helpers,
- :mod:`repro.jsonlib.serializer` — items back to JSON text,
- :mod:`repro.jsonlib.path` — navigation paths (value / keys-or-members),
- :mod:`repro.jsonlib.tape` — the on-demand projecting scanner that
  powers the DATASCAN operator's second argument (Section 4.2 of the
  paper): it emits only the sub-items matched by a path without ever
  materializing the enclosing document, and hands malformed records to
  the raw-text skipper (:mod:`repro.jsonlib.textscan`).
"""

from repro.jsonlib.events import Event, EventKind
from repro.jsonlib.items import (
    ItemBuilder,
    deep_equals,
    is_array,
    is_atomic,
    is_object,
    item_type_name,
    sizeof_item,
)
from repro.jsonlib.parser import StreamingJsonParser, iter_events, parse
from repro.jsonlib.path import (
    KeysOrMembers,
    Path,
    ValueByIndex,
    ValueByKey,
    navigate,
    parse_path,
)
from repro.jsonlib.serializer import dump, dumps

__all__ = [
    "Event",
    "EventKind",
    "ItemBuilder",
    "KeysOrMembers",
    "Path",
    "StreamingJsonParser",
    "ValueByIndex",
    "ValueByKey",
    "deep_equals",
    "dump",
    "dumps",
    "is_array",
    "is_atomic",
    "is_object",
    "item_type_name",
    "iter_events",
    "navigate",
    "parse",
    "parse_path",
    "sizeof_item",
]
