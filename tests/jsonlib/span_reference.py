"""Parse-then-navigate reference for the scanners' counters.

Parses every record into a tree that remembers each value's source
span, then navigates the projection over the tree with the scanners'
counting rules written out directly:

- ``matched`` — items the projection emits;
- ``skipped`` — values passed over (the rest of an array after an index
  hit counts once, an earlier occurrence of a repeated key counts once);
- ``scanned_bytes`` — the span of each projected leaf, or, under a
  trailing ``()``, the span of the container whose members or keys are
  emitted.

It shares no code with :mod:`repro.jsonlib.textscan` or
:mod:`repro.jsonlib.tape`, so agreement is evidence, not tautology.
Valid JSON only.
"""

import json
import re
from dataclasses import dataclass, field

from repro.jsonlib.path import KeysOrMembers, ValueByIndex, ValueByKey

_WS = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


@dataclass
class Node:
    value: object
    start: int
    end: int
    #: (key, Node) pairs for an object, Nodes for an array, None else.
    children: list | None = None


@dataclass
class Outcome:
    items: list = field(default_factory=list)
    matched: int = 0
    skipped: int = 0
    scanned_bytes: int = 0


def _skip_ws(text, pos):
    return _WS.match(text, pos).end()


def parse_node(text, pos):
    """The value at *pos* (after whitespace) as a span tree."""
    pos = _skip_ws(text, pos)
    opener = text[pos]
    if opener not in "{[":
        value, end = _DECODER.raw_decode(text, pos)
        return Node(value, pos, end)
    closer = "}" if opener == "{" else "]"
    children = []
    i = _skip_ws(text, pos + 1)
    if text[i] != closer:
        while True:
            if opener == "{":
                key, i = _DECODER.raw_decode(text, i)
                i = _skip_ws(text, i)
                assert text[i] == ":"
                child = parse_node(text, i + 1)
                children.append((key, child))
            else:
                child = parse_node(text, i)
                children.append(child)
            i = _skip_ws(text, child.end)
            if text[i] == ",":
                i = _skip_ws(text, i + 1)
                continue
            assert text[i] == closer
            break
    if opener == "{":
        value = dict((key, child.value) for key, child in children)
    else:
        value = [child.value for child in children]
    return Node(value, pos, i + 1, children)


def _project(node, path, step, out):
    if step == len(path):
        out.items.append(node.value)
        out.matched += 1
        out.scanned_bytes += node.end - node.start
        return
    current = path[step]
    kind = type(node.value)
    if isinstance(current, ValueByKey):
        if kind is not dict:
            out.skipped += 1
            return
        chosen = None
        for key, child in node.children:
            if key == current.key:
                if chosen is not None:
                    out.skipped += 1
                chosen = child
            else:
                out.skipped += 1
        if chosen is not None:
            _project(chosen, path, step + 1, out)
        return
    if isinstance(current, ValueByIndex):
        if kind is not list:
            out.skipped += 1
            return
        for position, child in enumerate(node.children, 1):
            if position == current.index:
                _project(child, path, step + 1, out)
                if position < len(node.children):
                    out.skipped += 1
                return
            out.skipped += 1
        return
    assert isinstance(current, KeysOrMembers)
    last = step + 1 == len(path)
    if kind is list:
        if last:
            out.items.extend(node.value)
            out.matched += len(node.value)
            out.scanned_bytes += node.end - node.start
        else:
            for child in node.children:
                _project(child, path, step + 1, out)
    elif kind is dict:
        if last:
            out.items.extend(node.value)
            out.matched += len(node.value)
            out.scanned_bytes += node.end - node.start
        out.skipped += len(node.children)
    else:
        out.skipped += 1


def span_scan(text, path) -> Outcome:
    """Project *path* over every top-level value of *text*."""
    out = Outcome()
    pos = _skip_ws(text, 0)
    while pos < len(text):
        node = parse_node(text, pos)
        _project(node, path, 0, out)
        pos = _skip_ws(text, node.end)
    return out
