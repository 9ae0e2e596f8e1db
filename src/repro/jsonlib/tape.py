"""On-demand projection over a structural index (the "tape").

The raw-text skipper (:mod:`repro.jsonlib.textscan`) interleaves
navigation and tokenization: every walk decision re-scans text with
regexes.  This module follows the two-phase design of "On-Demand JSON:
A Better Way to Parse Documents?" (PAPERS.md) instead:

**Phase 1 — index.**  One regex pass per top-level record builds a
compact structural index: flat arrays of token kinds, start offsets
and end offsets (string literals and atoms are single tokens), plus a
matching-close table filled by a bracket stack during the same pass.
No per-token objects are allocated — the tape is four parallel lists of
ints.  The index stops one container level above the path's last step
when that step is ``()`` or ``("key")`` (one level higher still for a
trailing ``()("key")`` pair, see :func:`index_plan`): each container
at that depth is one span token whose end the stdlib C decoder finds
in the same pass that decodes it, and the decoded value stays on the
tape.

**Phase 2 — navigate.**  The projection path (:mod:`repro.jsonlib.path`
steps) resolves directly against the tape.  Only projected leaves are
materialized (string decode / number convert straight from the recorded
spans); a non-projected subtree is skipped by offset arithmetic — one
jump to its recorded closing token, never parsed.  The last steps
resolve on the decoded span values: a trailing ``()`` emits a decoded
list's members, a trailing ``("key")`` looks the key up in a decoded
dict (or in each object of a decoded list under ``()``).  Every other
case re-indexes just that span one level deeper and walks it token by
token.  Scanned bytes (``ScanCounters.scanned_bytes``) come from the
recorded spans, or from a decoded leaf's value when that alone fixes
its source width.

Equivalence contract, shared with the raw skipper and checked
property-based in the test suite::

    list(scan_text(text, path)) == navigate(parse(text), path)

Counting semantics (duplicate-key last-occurrence-wins recounting,
keys-or-members deduplication, bulk array skips counting once) mirror
``textscan`` exactly.  Malformed records are re-projected with the raw
skipper, which is the canonical definition of error messages, offsets
and partial counts — so degradation reports stay byte-identical with
the skipper's, and a record truncated at the sliding-buffer edge raises
just like the skipper does, letting ``scan_file``'s grow-and-retry
machinery work unchanged.
"""

from __future__ import annotations

import json as _json
import re
from typing import Iterator

from repro.errors import JsonSyntaxError
from repro.jsonlib.items import Item
from repro.jsonlib.parser import _convert_number, _decode_string
from repro.jsonlib.path import (
    KeysOrMembers,
    Path,
    ValueByIndex,
    ValueByKey,
)
from repro.jsonlib import textscan
from repro.jsonlib.textscan import (
    _DEFAULT_CHUNK_SIZE,
    _LITERAL_VALUES,
    _WS_RE,
    ScanCounters,
    _project as _text_project,
    _skip_value,
    _skip_ws,
)

# One alternation tokenizes everything the tape records: a whole string
# literal (escapes included, so quoted brackets can't confuse nesting),
# a whole number or literal atom, or a single structural character.
_TOKEN_RE = re.compile(
    r'"(?:[^"\\\x00-\x1f]|\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4}))*"'
    r"|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
    r"|true|false|null"
    r"|[{}\[\]:,]"
)

# Token kinds.  Each closer is its opener + 1, which the bracket stack
# relies on to validate matching pairs.
_OPEN_OBJECT = 0
_CLOSE_OBJECT = 1
_OPEN_ARRAY = 2
_CLOSE_ARRAY = 3
_COLON = 4
_COMMA = 5
_STRING = 6
_ATOM = 7
#: A whole container at the index's depth limit, recorded as one span
#: token: its interior is never tokenized.  The navigator either skips
#: it (one token) or resolves the path's remaining step on the value
#: the index pass decoded.
_SUBTREE = 8

_PUNCT_KINDS = {
    "{": _OPEN_OBJECT,
    "}": _CLOSE_OBJECT,
    "[": _OPEN_ARRAY,
    "]": _CLOSE_ARRAY,
    ":": _COLON,
    ",": _COMMA,
}


class RecordTape:
    """Structural index of one top-level record: parallel int arrays.

    ``kinds[i]``/``starts[i]``/``ends[i]`` describe token *i*;
    ``close[i]`` holds the index of the matching closer for opener
    tokens (-1 elsewhere), so skipping a container is one array jump.
    ``values`` maps a :data:`_SUBTREE` token's index to its decoded
    value; a span the decoder refused has no entry.
    """

    __slots__ = ("kinds", "starts", "ends", "close", "values")

    def __init__(self, kinds, starts, ends, close, values):
        self.kinds = kinds
        self.starts = starts
        self.ends = ends
        self.close = close
        self.values = values

    def __len__(self) -> int:
        return len(self.kinds)


def _reject_constant(token: str):
    """Refuse ``NaN``/``Infinity``/``-Infinity`` inside span decodes.

    The stdlib decoder accepts these extensions by default, but the
    canonical skipper's ``_build_value`` raises — and Python's own
    ``json.dumps`` emits ``NaN`` for ``float('nan')``, so such inputs
    occur in practice.  A refused span is hopped like the skipper hops
    it; materializing it hands the record to the skipper, keeping
    items, errors, and degradation reports byte-identical.
    """
    raise ValueError(f"invalid literal {token}")


def _unique_pairs(pairs: list) -> dict:
    """Object hook refusing duplicate keys.

    A key step's count of skipped values is ``len(obj) - matched`` only
    when no key repeats; a span with a repeated key is refused and
    walked token by token instead, which applies the skipper's
    last-occurrence-wins recounting.
    """
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate object key")
    return obj


#: Span decoders (value semantics identical to ``_build_value``: int
#: unless ``./e/E``, last duplicate key wins, surrogate pairs combined
#: with lone surrogates kept, non-standard constants refused).
_decode_span = _json.JSONDecoder(parse_constant=_reject_constant).raw_decode
_decode_unique_span = _json.JSONDecoder(
    parse_constant=_reject_constant, object_pairs_hook=_unique_pairs
).raw_decode


def build_tape(
    text: str, pos: int, depth_limit: int, decode=_decode_span
) -> tuple[RecordTape, int]:
    """Index the container record at *pos*; returns (tape, end offset).

    *depth_limit* is the number of container levels the navigator walks
    token by token: a container opening at that depth is not tokenized
    but recorded as one :data:`_SUBTREE` span.  *decode* (a
    ``raw_decode``) finds the span's end and decodes it in one C-speed
    pass, and the value is kept in ``tape.values``.  When it refuses
    the span (invalid JSON, a refused constant, a duplicate key for the
    key-step decoder, or nesting too deep for it) the span is hopped
    with the skipper's own quote-aware ``_skip_value`` instead, so
    leniency inside skipped subtrees is byte-identical with textscan.
    The index therefore costs one token per *walked* structural
    character, not per byte of the record.

    Raises :class:`~repro.errors.JsonSyntaxError` at the record start
    when the buffered text ends before the record's brackets balance —
    exactly where the raw skipper raises for a truncated container, so
    the sliding-buffer grow-and-retry path treats both scanners alike.
    """
    kinds: list = []
    starts: list = []
    ends: list = []
    close: list = []
    values: dict = {}
    stack: list = []
    prev_end = pos
    record_start = pos
    search = _TOKEN_RE.search
    while True:
        match = search(text, pos)
        if match is None:
            raise JsonSyntaxError("unterminated container", record_start)
        start = match.start()
        if start != prev_end:
            # Only whitespace may separate tokens.  This gap validation
            # is what makes a successfully built tape trustworthy: any
            # stray character (including an unbalanced quote, which
            # would make the tokenizer pair strings differently from
            # the raw skipper) fails the build here, and the record is
            # re-projected by the skipper — the canonical authority on
            # malformed input.
            ws_end = _WS_RE.match(text, prev_end).end()
            if ws_end != start:
                raise JsonSyntaxError(
                    f"unexpected character {text[ws_end]!r}", ws_end
                )
        ch = text[start]
        index = len(kinds)
        if ch == "{" or ch == "[":
            if len(stack) >= depth_limit:
                try:
                    values[index], end = decode(text, start)
                except (ValueError, RecursionError):
                    end = _skip_value(text, start)
                kinds.append(_SUBTREE)
                starts.append(start)
                ends.append(end)
                close.append(-1)
                prev_end = end
                pos = end
                if not stack:
                    return RecordTape(kinds, starts, ends, close, values), end
                continue
            kinds.append(_PUNCT_KINDS[ch])
            stack.append(index)
        elif ch == "}" or ch == "]":
            kind = _PUNCT_KINDS[ch]
            kinds.append(kind)
            if not stack or kinds[stack[-1]] != kind - 1:
                raise JsonSyntaxError(f"unexpected character {ch!r}", start)
            close[stack.pop()] = index
        elif ch == '"':
            kinds.append(_STRING)
        elif ch == ":" or ch == ",":
            kinds.append(_PUNCT_KINDS[ch])
        else:
            kinds.append(_ATOM)
        starts.append(start)
        ends.append(match.end())
        close.append(-1)
        prev_end = match.end()
        pos = match.end()
        if not stack:
            return RecordTape(kinds, starts, ends, close, values), pos


def _skip_token(text: str, tape: RecordTape, i: int, counters) -> int:
    """Skip the value at token *i* by offset arithmetic; count it once."""
    kind = tape.kinds[i]
    if kind == _OPEN_OBJECT or kind == _OPEN_ARRAY:
        end = tape.close[i] + 1
    elif kind == _STRING or kind == _ATOM or kind == _SUBTREE:
        end = i + 1
    else:
        raise JsonSyntaxError(
            f"unexpected character {text[tape.starts[i]]!r}", tape.starts[i]
        )
    if counters is not None:
        counters.skipped += 1
    return end


def _token_string(text: str, tape: RecordTape, i: int) -> str:
    """Decode the string token *i* (escape-free fast path)."""
    raw = text[tape.starts[i] + 1 : tape.ends[i] - 1]
    if "\\" in raw:
        return _decode_string(raw, tape.starts[i] + 1)
    return raw


def _span_end(tape: RecordTape, i: int) -> int:
    """Source offset just past the value at token *i*."""
    kind = tape.kinds[i]
    if kind == _OPEN_OBJECT or kind == _OPEN_ARRAY:
        return tape.ends[tape.close[i]]
    return tape.ends[i]


def _materialize_container(text: str, tape: RecordTape, i: int):
    """Materialize the whole container at token *i* at C speed.

    A :data:`_SUBTREE` returns the value the index pass decoded; a
    walked container decodes its recorded span in one ``json.loads``.
    The tape already proved the slice token-clean and bracket-balanced,
    and the stdlib decoder's value semantics are identical to
    ``_build_value``'s — so one C-speed decode replaces thousands of
    per-token Python steps.  A span the decoder refuses (including
    structural errors the tokenizer can't see, a missing colon say)
    raises :class:`~repro.errors.JsonSyntaxError` so the record falls
    back to the canonical raw skipper.

    Returns (value, next token index).
    """
    start = tape.starts[i]
    if tape.kinds[i] == _SUBTREE:
        if i not in tape.values:
            raise JsonSyntaxError("span refused by the decoder", start)
        return tape.values[i], i + 1
    closer = tape.close[i]
    try:
        value = _json.loads(
            text[start : tape.ends[closer]], parse_constant=_reject_constant
        )
    except ValueError as error:
        raise JsonSyntaxError(str(error), start) from None
    return value, closer + 1


def build_value(text: str, tape: RecordTape, i: int) -> tuple[Item, int]:
    """Materialize the value at token *i*; returns (item, next token).

    Strings and atoms convert straight from their recorded spans — no
    re-tokenization; containers go through
    :func:`_materialize_container`.
    """
    kind = tape.kinds[i]
    if kind == _STRING:
        return _token_string(text, tape, i), i + 1
    if kind == _ATOM:
        raw = text[tape.starts[i] : tape.ends[i]]
        if raw in _LITERAL_VALUES:
            return _LITERAL_VALUES[raw], i + 1
        return _convert_number(raw), i + 1
    if kind == _OPEN_OBJECT or kind == _OPEN_ARRAY or kind == _SUBTREE:
        return _materialize_container(text, tape, i)
    raise JsonSyntaxError(
        f"unexpected character {text[tape.starts[i]]!r}", tape.starts[i]
    )


def _leaf_width(item: Item, escaped: bool) -> int | None:
    """Source width of a decoded leaf, when the value alone determines
    it; None when only its span can tell.

    A string's source is its content plus two quotes unless the span it
    was decoded from holds an escape (*escaped*); a nonzero int and the
    three literals have exactly one JSON spelling.  Floats and zero
    (``-0``) do not.
    """
    kind = type(item)
    if kind is str:
        return None if escaped else len(item) + 2
    if kind is int:
        return len(str(item)) if item else None
    if item is None or item is True:
        return 4
    if item is False:
        return 5
    return None


def _lookup(obj: dict, key: str, escaped: bool, out: list, counters) -> bool:
    """A trailing ``("key")`` over a decoded duplicate-free object.

    Counts like the skipper's object walk: every other value skipped.
    Returns False, having changed nothing, when the leaf's width needs
    its span.
    """
    if key not in obj:
        if counters is not None:
            counters.skipped += len(obj)
        return True
    item = obj[key]
    width = _leaf_width(item, escaped)
    if width is None:
        return False
    out.append(item)
    if counters is not None:
        counters.matched += 1
        counters.skipped += len(obj) - 1
        counters.scanned_bytes += width
    return True


def _lookup_each(
    members: list, key: str, escaped: bool, out: list, counters
) -> bool:
    """``()`` then a trailing ``("key")`` over a decoded list: a key
    lookup per object member, one skip per other member.  Returns
    False, having changed nothing, when some leaf's width needs its
    span."""
    staged: list = []
    tally = ScanCounters()
    for member in members:
        if type(member) is dict:
            if not _lookup(member, key, escaped, staged, tally):
                return False
        else:
            tally.skipped += 1
    out.extend(staged)
    if counters is not None:
        counters.merge(tally)
    return True


def _resolve_subtree(
    text: str,
    tape: RecordTape,
    i: int,
    path: Path,
    step_index: int,
    out: list,
    counters: ScanCounters | None,
) -> int:
    """Resolve steps from *step_index* over the :data:`_SUBTREE` at *i*.

    The remaining steps resolve on the value the index pass decoded
    (see :func:`index_plan`): a trailing ``()`` over a list emits its
    members; a trailing ``("key")`` looks the key up in a dict, or in
    each object member of a list under ``()``.  Such spans were decoded
    duplicate-free, so counts follow from ``len``.  A key step over an
    array skips it.  Every other case — a trailing
    ``()`` over an object, a refused span, a leaf whose width only its
    span can tell — re-indexes just this span one level deeper and
    walks it like any indexed container, so counting and fallback stay
    the skipper's.
    """
    start = tape.starts[i]
    end = tape.ends[i]
    step = path[step_index]
    opener = text[start]
    value = tape.values.get(i)
    remaining = len(path) - step_index
    if isinstance(step, ValueByKey):
        if opener != "{":
            return _skip_token(text, tape, i, counters)
        if remaining == 1 and value is not None:
            escaped = text.find("\\", start, end) >= 0
            if _lookup(value, step.key, escaped, out, counters):
                return i + 1
    elif isinstance(step, KeysOrMembers) and value is not None:
        if remaining == 1 and opener == "[":
            out.extend(value)
            if counters is not None:
                counters.matched += len(value)
                counters.scanned_bytes += end - start
            return i + 1
        if remaining == 2 and isinstance(path[-1], ValueByKey):
            if opener == "{":
                # Keys-or-members short of the end emits nothing from
                # an object and skips each of its values.
                if counters is not None:
                    counters.skipped += len(value)
                return i + 1
            escaped = text.find("\\", start, end) >= 0
            if _lookup_each(value, path[-1].key, escaped, out, counters):
                return i + 1
    span, span_end = build_tape(
        text, start, 1, _span_decoder(path, step_index + 1)
    )
    if span_end != end:
        raise JsonSyntaxError("span re-index disagrees with the skipper", start)
    if counters is not None:
        counters.tape_tokens += len(span)
    _navigate(text, span, 0, path, step_index, out, counters)
    return i + 1


def _navigate(
    text: str,
    tape: RecordTape,
    i: int,
    path: Path,
    step_index: int,
    out: list,
    counters: ScanCounters | None,
) -> int:
    """Project steps from *step_index* over the value at token *i*.

    Matched items append to *out*; returns the token index just past
    the value.  Counting mirrors ``textscan._project`` exactly.
    """
    if step_index == len(path):
        item, j = build_value(text, tape, i)
        out.append(item)
        if counters is not None:
            counters.matched += 1
            counters.scanned_bytes += _span_end(tape, i) - tape.starts[i]
        return j

    kind = tape.kinds[i]
    if kind == _SUBTREE:
        return _resolve_subtree(text, tape, i, path, step_index, out, counters)
    step = path[step_index]
    if isinstance(step, ValueByKey):
        if kind != _OPEN_OBJECT:
            return _skip_token(text, tape, i, counters)
        return _walk_object(text, tape, i, path, step_index, out, step.key, counters)
    if isinstance(step, ValueByIndex):
        if kind != _OPEN_ARRAY:
            return _skip_token(text, tape, i, counters)
        return _walk_array(text, tape, i, path, step_index, out, step.index, counters)
    # KeysOrMembers
    if kind == _OPEN_ARRAY:
        j = _walk_array(text, tape, i, path, step_index, out, None, counters)
    elif kind == _OPEN_OBJECT:
        j = _walk_object(text, tape, i, path, step_index, out, None, counters)
    else:
        return _skip_token(text, tape, i, counters)
    if counters is not None and step_index + 1 == len(path):
        # Like the skipper: a trailing keys-or-members step counts the
        # span of the container it enumerates, once.
        counters.scanned_bytes += _span_end(tape, i) - tape.starts[i]
    return j


def _walk_object(
    text: str,
    tape: RecordTape,
    i: int,
    path: Path,
    step_index: int,
    out: list,
    target_key: str | None,
    counters: ScanCounters | None,
) -> int:
    """Walk an object's tokens; ``target_key`` None means keys-or-members."""
    at_end = step_index + 1 == len(path)
    kinds = tape.kinds
    starts = tape.starts
    j = i + 1
    if kinds[j] == _CLOSE_OBJECT:
        return j + 1
    # Duplicate keys: last occurrence wins (dict semantics), so buffer
    # each matching occurrence's projection and emit only the final one
    # at the closing brace; a discarded earlier match recounts as one
    # skipped value.  Keys-or-members deduplicates like dict.keys().
    matched: list | None = None
    matched_counters: ScanCounters | None = None
    seen_keys: set[str] = set()
    while True:
        if kinds[j] != _STRING:
            raise JsonSyntaxError("expected object key", starts[j])
        key = _token_string(text, tape, j)
        if kinds[j + 1] != _COLON:
            raise JsonSyntaxError("expected ':'", starts[j + 1])
        value_index = j + 2
        if target_key is None:
            if at_end and key not in seen_keys:
                seen_keys.add(key)
                out.append(key)
                if counters is not None:
                    counters.matched += 1
            j = _skip_token(text, tape, value_index, counters)
        elif key == target_key:
            occurrence: list = []
            occurrence_counters = None if counters is None else ScanCounters()
            j = _navigate(
                text, tape, value_index, path, step_index + 1,
                occurrence, occurrence_counters,
            )
            if matched is not None and counters is not None:
                counters.skipped += 1
            matched, matched_counters = occurrence, occurrence_counters
        else:
            j = _skip_token(text, tape, value_index, counters)
        kind = kinds[j]
        if kind == _COMMA:
            j += 1
            continue
        if kind == _CLOSE_OBJECT:
            if matched is not None:
                out.extend(matched)
                if counters is not None:
                    counters.merge(matched_counters)
            return j + 1
        raise JsonSyntaxError(
            f"expected ',' or '}}', found {text[starts[j]]!r}", starts[j]
        )


def _walk_array(
    text: str,
    tape: RecordTape,
    i: int,
    path: Path,
    step_index: int,
    out: list,
    target_index: int | None,
    counters: ScanCounters | None,
) -> int:
    """Walk an array's tokens; ``target_index`` None means keys-or-members."""
    if target_index is None and step_index + 1 == len(path):
        # A trailing keys-or-members step materializes every member in
        # one bulk decode of the recorded span; each member still
        # counts as one match, like the skipper.
        members, j = _materialize_container(text, tape, i)
        out.extend(members)
        if counters is not None:
            counters.matched += len(members)
        return j
    kinds = tape.kinds
    starts = tape.starts
    j = i + 1
    if kinds[j] == _CLOSE_ARRAY:
        return j + 1
    position = 0
    while True:
        position += 1
        if target_index is None or position == target_index:
            j = _navigate(text, tape, j, path, step_index + 1, out, counters)
            if target_index is not None:
                # Positions only grow, so no later member can match:
                # one jump to the recorded closer skips the rest.
                if counters is not None and kinds[j] != _CLOSE_ARRAY:
                    counters.skipped += 1
                return tape.close[i] + 1
        else:
            j = _skip_token(text, tape, j, counters)
        kind = kinds[j]
        if kind == _COMMA:
            j += 1
            continue
        if kind == _CLOSE_ARRAY:
            return j + 1
        raise JsonSyntaxError(
            f"expected ',' or ']', found {text[starts[j]]!r}", starts[j]
        )


def _span_decoder(path: Path, step_index: int):
    """Decoder for spans that resolve the steps from *step_index* on:
    the duplicate-refusing one when those steps end in a key lookup
    (see :func:`_unique_pairs`), the plain one otherwise (leaves
    included)."""
    if step_index < len(path) and isinstance(path[-1], ValueByKey):
        return _decode_unique_span
    return _decode_span


def index_plan(path: Path) -> tuple:
    """(depth limit, span decoder) for indexing records under *path*.

    A trailing ``()`` or ``("key")`` resolves on decoded spans, so the
    index stops one level above it — and a trailing ``("key")`` under
    a ``()`` one more level up, so a list of records is one span whose
    members are looked up, not one token each.  Paths ending in an
    index step are walked to their leaves.
    """
    depth = len(path)
    if path and isinstance(path[-1], (ValueByKey, KeysOrMembers)):
        depth -= 1
        if (
            isinstance(path[-1], ValueByKey)
            and depth
            and isinstance(path[depth - 1], KeysOrMembers)
        ):
            depth -= 1
    return depth, _span_decoder(path, depth)


def navigate_tape(
    text: str,
    record: RecordTape,
    path: Path,
    out: list,
    counters: ScanCounters | None,
) -> None:
    """Phase 2: project *path* over an indexed record into *out*."""
    _navigate(text, record, 0, path, 0, out, counters)


def project_record(
    text: str,
    pos: int,
    path: Path,
    out: list,
    counters: ScanCounters | None,
) -> int:
    """On-demand record projector (``scan_text``/``scan_file`` plug-in).

    Indexes the record at *pos*, navigates the projection over the
    tape, and stages items/counters so nothing leaks on failure.  Any
    tape-side :class:`~repro.errors.JsonSyntaxError` falls back to the
    raw skipper's projector — the canonical definition of malformed
    behaviour — so errors, offsets and degradation records are
    byte-identical with :mod:`repro.jsonlib.textscan`.
    """
    pos = _skip_ws(text, pos)
    if pos >= len(text):
        raise JsonSyntaxError("unexpected end of input", pos)
    if text[pos] not in "{[":
        # Scalar top-level records have no structure to index; the raw
        # skipper's projector is already optimal and defines counting.
        return _text_project(text, pos, path, 0, out, counters)
    staged: list = []
    attempt = None if counters is None else ScanCounters()
    try:
        tape, end = build_tape(text, pos, *index_plan(path))
        if attempt is not None:
            attempt.tape_records += 1
            attempt.tape_tokens += len(tape)
        navigate_tape(text, tape, path, staged, attempt)
    except JsonSyntaxError:
        # Tape-side failure: discard the staged partial projection and
        # hand the record to the skipper with the caller's own
        # out/counters, so its behaviour — including partial counts on
        # a record that still fails — applies verbatim.
        return _text_project(text, pos, path, 0, out, counters)
    out.extend(staged)
    if counters is not None:
        counters.merge(attempt)
    return end


def scan_text(
    text: str,
    path: Path,
    on_malformed: str = "fail",
    recorder=None,
    counters: ScanCounters | None = None,
) -> Iterator[Item]:
    """On-demand twin of :func:`repro.jsonlib.textscan.scan_text`."""
    return textscan.scan_text(
        text,
        path,
        on_malformed=on_malformed,
        recorder=recorder,
        counters=counters,
        projector=project_record,
    )


def scan_file(
    file_path: str,
    path: Path,
    on_malformed: str = "fail",
    recorder=None,
    chunk_size: int = _DEFAULT_CHUNK_SIZE,
    counters: ScanCounters | None = None,
) -> Iterator[Item]:
    """On-demand twin of :func:`repro.jsonlib.textscan.scan_file`.

    Shares the skipper's sliding-buffer machinery (grow-on-truncation,
    absolute offset rebasing, per-attempt counter staging); only the
    per-record projector differs.
    """
    return textscan.scan_file(
        file_path,
        path,
        on_malformed=on_malformed,
        recorder=recorder,
        chunk_size=chunk_size,
        counters=counters,
        projector=project_record,
    )
