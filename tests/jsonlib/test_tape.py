"""Unit, equivalence and counter-parity tests for the on-demand tape.

The tape scanner's contract is *byte-identity* with the raw-text
skipper (:mod:`repro.jsonlib.textscan`): same items, same counters,
same errors (message and offset), same recorder events — on well-formed
input, hostile Unicode, duplicate keys, BOM-prefixed texts, and records
split across ``scan_file``'s sliding chunk buffer.
"""

import json

import pytest

from repro.errors import JsonSyntaxError
from repro.jsonlib import tape, textscan
from repro.jsonlib.parser import parse_many
from repro.jsonlib.path import Path, navigate, parse_path
from repro.jsonlib.tape import (
    _ATOM,
    _OPEN_OBJECT,
    _STRING,
    _SUBTREE,
    build_tape,
    build_value,
)
from repro.jsonlib.textscan import ScanCounters
from tests.jsonlib.span_reference import span_scan


def reference(text, path):
    out = []
    for value in parse_many(text):
        out.extend(navigate(value, path))
    return out


def both_scans(text, path, **kwargs):
    """(tape items, skipper items) with their counters for one text."""
    tape_counters, text_counters = ScanCounters(), ScanCounters()
    tape_items = list(
        tape.scan_text(text, path, counters=tape_counters, **kwargs)
    )
    text_items = list(
        textscan.scan_text(text, path, counters=text_counters, **kwargs)
    )
    return (tape_items, tape_counters), (text_items, text_counters)


def navigation(counters):
    return counters.matched, counters.skipped, counters.scanned_bytes


def outcome_of(scanner, text, path):
    """(("ok", items) | ("err", message, offset), navigation counters,
    tape records) of one scan of *text*."""
    counters = ScanCounters()
    try:
        outcome = ("ok", list(scanner.scan_text(text, path, counters=counters)))
    except JsonSyntaxError as error:
        outcome = ("err", str(error), getattr(error, "offset", None))
    return outcome, navigation(counters), counters.tape_records


def assert_parity(text, path_text, expect_tape=True):
    """Tape == skipper == parse-then-navigate: items, matched, skipped
    and scanned bytes (the span-tree reference counts the latter)."""
    path = parse_path(path_text)
    (tape_items, tape_c), (text_items, text_c) = both_scans(text, path)
    expected = span_scan(text, path)
    assert tape_items == text_items == reference(text, path) == expected.items
    assert navigation(tape_c) == navigation(text_c) == (
        expected.matched, expected.skipped, expected.scanned_bytes,
    )
    if expect_tape:
        assert tape_c.tape_records > 0
    assert text_c.tape_records == 0


class TestBuildTape:
    def test_tokens_and_close_table(self):
        text = '{"a": [1, 2]}'
        record, end = build_tape(text, 0, 99)
        assert end == len(text)
        # { "a" : [ 1 , 2 ] }
        assert len(record) == 9
        assert record.kinds[0] == _OPEN_OBJECT
        assert record.kinds[1] == _STRING
        assert record.kinds[4] == _ATOM
        # Openers point at their matching closers; everything else -1.
        assert record.close[0] == 8
        assert record.close[3] == 7
        assert record.close[1] == -1

    def test_depth_pruning_records_subtree_spans(self):
        text = '{"a": {"x": [1, 2, 3]}, "b": [4, {"y": 5}]}'
        record, _ = build_tape(text, 0, 1)
        # Both nested containers open at depth 1 == limit: single spans,
        # interiors untokenized.
        assert record.kinds.count(_SUBTREE) == 2
        spans = [
            text[record.starts[i] : record.ends[i]]
            for i, kind in enumerate(record.kinds)
            if kind == _SUBTREE
        ]
        assert spans == ['{"x": [1, 2, 3]}', '[4, {"y": 5}]']

    def test_depth_zero_is_one_span(self):
        text = '{"deep": {"deeper": [1]}}'
        record, end = build_tape(text, 0, 0)
        assert end == len(text)
        assert list(record.kinds) == [_SUBTREE]
        value, nxt = build_value(text, record, 0)
        assert value == {"deep": {"deeper": [1]}}
        assert nxt == 1

    def test_gap_validation_rejects_stray_characters(self):
        with pytest.raises(JsonSyntaxError) as info:
            build_tape('{"a": 1 x }', 0, 99)
        assert "'x'" in str(info.value)

    def test_unbalanced_quote_fails_the_build(self):
        # An unclosed string would make the tokenizer pair quotes
        # differently from the skipper — the gap check must catch it.
        with pytest.raises(JsonSyntaxError):
            build_tape('{"a": "unclosed}', 0, 99)

    def test_unterminated_container(self):
        with pytest.raises(JsonSyntaxError) as info:
            build_tape('{"a": [1, 2]', 0, 99)
        assert "unterminated" in str(info.value)

    def test_mismatched_brackets(self):
        with pytest.raises(JsonSyntaxError):
            build_tape('{"a": 1]', 0, 99)


class TestEquivalence:
    @pytest.mark.parametrize(
        "text, path_text",
        [
            ('{"root": [{"results": [{"v": 1}, {"v": 2}]}]}',
             '("root")()("results")()'),
            ('{"root": [{"results": [{"v": 1}]}]} '
             '{"root": [{"results": [{"v": 2}, {"v": 3}]}]}',
             '("root")()("results")()("v")'),
            ('[5, {"a": 1}, "s", [2], {"a": 3}]', '()("a")'),
            ("[10, 20, 30]", "(2)"),
            ("[10]", "(9)"),
            ('{"a": 1, "b": 2}', "()"),
            ('{"skip": {"deep": [1, [2, {"x": 3}]]}, "take": true}',
             '("take")'),
            ('{"take": {"n": -1.5e2, "b": false, "s": "x", "nul": null}}',
             '("take")'),
            (' { "a" :\n [ 1 ,\t2 ] } ', '("a")()'),
            ("17", "()"),  # scalar record: skipper path, no tape
        ],
    )
    def test_items_and_counters_match_skipper(self, text, path_text):
        assert_parity(text, path_text, expect_tape=text.strip() != "17")

    def test_empty_containers(self):
        assert_parity('{"a": {}, "b": []}', '("b")()')
        assert_parity("[]", "()")
        assert_parity("{}", "()")


class TestDuplicateKeys:
    """Last occurrence wins, exactly like dict semantics — and the
    discarded earlier match must recount as skipped, like the skipper."""

    @pytest.mark.parametrize(
        "text, path_text",
        [
            ('{"a": 1, "a": 2}', '("a")'),
            ('{"a": {"k": 1}, "b": 9, "a": {"k": 2}}', '("a")("k")'),
            ('{"a": [1, 2], "a": [3]}', '("a")()'),
            ('{"a": 1, "b": 2, "a": 3}', "()"),  # keys dedup like dict.keys()
            ('{"a": {"x": 1, "x": 2}}', '("a")("x")'),
        ],
    )
    def test_last_wins_with_identical_counters(self, text, path_text):
        assert_parity(text, path_text)

    def test_lazy_navigator_buffers_only_final_occurrence(self):
        path = parse_path('("a")')
        items = list(tape.scan_text('{"a": 1, "a": 2, "a": 3}', path))
        assert items == [3]


class TestHostileUnicode:
    ASTRAL = '{"t": "\U0001f600 é́ ‮ reversed", "p": 1}'
    ESCAPES = (
        r'{"skip": "q \" brace } bracket ] \\ 😀",'
        r' "take": "é"}'
    )

    def test_astral_and_combining_characters(self):
        assert_parity(self.ASTRAL, '("t")')

    def test_escaped_quotes_braces_and_surrogate_pairs(self):
        assert_parity(self.ESCAPES, '("take")')

    def test_bom_prefixed_text(self):
        text = '{"v": [1, 2]}'
        path = parse_path('("v")()')
        assert list(tape.scan_text("\ufeff" + text, path)) == [1, 2]
        (tape_items, tape_c), (text_items, text_c) = both_scans(
            "\ufeff" + text, path
        )
        assert tape_items == text_items == [1, 2]
        assert navigation(tape_c) == navigation(text_c)

    def test_bom_file(self, tmp_path):
        target = tmp_path / "bom.json"
        target.write_bytes(
            b"\xef\xbb\xbf" + '{"v": ["é", 2]}'.encode("utf-8")
        )
        path = parse_path('("v")()')
        assert list(tape.scan_file(str(target), path)) == ["é", 2]

    def test_unicode_in_skipped_subtrees(self):
        text = '{"skip": {"deep": ["\U0001f600", "‮"]}, "take": 1}'
        assert_parity(text, '("take")')


class TestChunkBoundaries:
    """scan_file slides a bounded buffer; records split across chunk
    boundaries (mid-string, mid-escape, mid-number) must behave exactly
    like scan_text — and exactly like the skipper at the same chunk size."""

    TEXT = "\n".join(
        json.dumps(
            {"v": {"k": [i, i + 0.5, f's"{i}', True, None]}, "pad": "y" * 23}
        )
        for i in range(7)
    )
    PATH = parse_path('("v")("k")()')

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 29, 64, 1 << 16])
    def test_chunked_equals_text_and_skipper(self, chunk_size, tmp_path):
        target = tmp_path / "data.json"
        target.write_text(self.TEXT, encoding="utf-8")
        tape_c, text_c = ScanCounters(), ScanCounters()
        tape_items = list(
            tape.scan_file(
                str(target), self.PATH, chunk_size=chunk_size,
                counters=tape_c,
            )
        )
        text_items = list(
            textscan.scan_file(
                str(target), self.PATH, chunk_size=chunk_size,
                counters=text_c,
            )
        )
        assert tape_items == text_items
        assert tape_items == list(tape.scan_text(self.TEXT, self.PATH))
        assert navigation(tape_c) == navigation(text_c)

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_skip_record_events_identical_across_scanners(
        self, chunk_size, tmp_path
    ):
        lines = self.TEXT.split("\n")
        lines.insert(3, '{"v": {"k": [1, ]}}')  # malformed mid-file
        text = "\n".join(lines)
        target = tmp_path / "dirty.json"
        target.write_text(text, encoding="utf-8")
        results = {}
        for name, scanner in (("tape", tape), ("text", textscan)):
            events = []
            counters = ScanCounters()
            items = list(
                scanner.scan_file(
                    str(target), self.PATH, on_malformed="skip_record",
                    recorder=lambda o, m: events.append((o, m)),
                    chunk_size=chunk_size, counters=counters,
                )
            )
            results[name] = (items, events, navigation(counters))
        assert results["tape"] == results["text"]
        assert len(results["tape"][1]) == 1  # exactly the injected record


class TestFallbackIdentity:
    """Malformed records must raise exactly what the skipper raises —
    message, offset, and the partial counters left behind."""

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[1,",
            '{"a" 1}',
            '{"a": }',
            '"unterminated',
            "@",
            '{"a": [1,]}',
            '{"a": 01}',
            '{"v": 1} {"v": ]}',  # second record malformed: partial counts
        ],
    )
    def test_same_error_and_partial_counters(self, text):
        path = parse_path('("a")')
        assert outcome_of(tape, text, path)[:2] == outcome_of(
            textscan, text, path
        )[:2]

    @pytest.mark.parametrize(
        "text, path_text",
        [
            # The bulk json.loads paths must not quietly accept the
            # stdlib's NaN/Infinity extensions (json.dumps emits NaN
            # for float('nan') by default, so these occur in practice):
            ('{"a": [1, NaN]}', '("a")'),  # _SUBTREE span materialize
            ('{"a": [[1, -Infinity]]}', '("a")()'),  # trailing * bulk decode
            ('{"a": Infinity}', '("a")'),  # atom position: tokenizer gap
            ("[NaN]", "()"),
        ],
    )
    def test_nonstandard_constants_rejected_like_skipper(
        self, text, path_text
    ):
        path = parse_path(path_text)
        tape_outcome = outcome_of(tape, text, path)
        assert tape_outcome[:2] == outcome_of(textscan, text, path)[:2]
        assert tape_outcome[0][0] == "err"

    def test_skipped_regions_stay_lenient(self):
        # The skipper never validates skipped regions; the pruned tape
        # jumps subtrees with the same bracket hop, so "[1 2]" inside a
        # never-walked subtree passes both (the full parser rejects it,
        # so no parse-then-navigate reference here).
        text = '{"skip": [1 2], "a": 3}'
        path = parse_path('("a")')
        (tape_items, tape_c), (text_items, text_c) = both_scans(text, path)
        assert tape_items == text_items == [3]
        assert navigation(tape_c) == navigation(text_c)


class TestIndexDepth:
    """The index stops one level above a trailing ``()``/``("key")``."""

    def test_listing6_results_array_is_one_token(self):
        text = '{"root": [{"results": [{"v": 1}, {"v": 2}]}]}'
        path = parse_path('("root")()("results")()')
        counters = ScanCounters()
        assert list(tape.scan_text(text, path, counters=counters)) == [
            {"v": 1}, {"v": 2},
        ]
        # { "root" : [ { "results" : SUBTREE } ] }
        assert counters.tape_tokens == 11
        assert counters.scanned_bytes == len('[{"v": 1}, {"v": 2}]')

    def test_key_under_members_makes_the_list_one_token(self):
        text = '{"r": [{"d": "x", "v": 1}, {"d": "y"}, [2]]}'
        path = parse_path('("r")()("d")')
        counters = ScanCounters()
        assert list(tape.scan_text(text, path, counters=counters)) == ["x", "y"]
        # { "r" : SUBTREE }
        assert counters.tape_tokens == 5
        assert counters.scanned_bytes == len('"x"') + len('"y"')
        assert (counters.matched, counters.skipped) == (2, 2)

    def test_index_plan(self):
        plans = {
            '("root")()("results")()': 3,
            '("root")()("results")()("date")': 3,
            '("a")("k")': 1,
            '("k")': 0,
            "()": 0,
            '()("k")': 0,
            '("a")(2)': 2,
            "": 0,
        }
        for path_text, depth in plans.items():
            assert tape.index_plan(parse_path(path_text))[0] == depth, path_text

    def test_index_step_keeps_full_depth(self):
        record, _ = build_tape('{"a": [[1], [2]]}', 0, 2)
        assert record.kinds.count(_SUBTREE) == 2
        assert_parity('{"a": [[1], [2]]}', '("a")(2)')

    def test_decoded_span_is_kept_on_the_tape(self):
        text = '{"a": {"x": [1, 2]}}'
        record, _ = build_tape(text, 0, 1)
        (subtree,) = [i for i, k in enumerate(record.kinds) if k == _SUBTREE]
        assert record.values[subtree] == {"x": [1, 2]}
        value, _ = build_value(text, record, subtree)
        assert value is record.values[subtree]

    def test_refused_span_is_hopped_and_has_no_value(self):
        text = '{"a": [1 2], "b": [NaN]}'
        record, end = build_tape(text, 0, 1)
        assert end == len(text)
        assert record.kinds.count(_SUBTREE) == 2
        assert record.values == {}
        (first, _) = [i for i, k in enumerate(record.kinds) if k == _SUBTREE]
        with pytest.raises(JsonSyntaxError):
            build_value(text, record, first)


class TestLastStepOnDecodedSpans:
    """Tape, skipper and the span-tree reference agree on items,
    ``matched``, ``skipped`` and ``scanned_bytes`` for paths ending in
    ``()`` and ``("k")`` over every shape the decoded-span fast path
    must either resolve or hand back to the token walk."""

    @pytest.mark.parametrize(
        "text, path_text",
        [
            # lists under a trailing ()
            ('{"a": [[1, 2], [], [{"x": 1}], [[3]]]}', '("a")()()'),
            ('{"a": [ 1 ,\n "s" , null ]}', '("a")()'),
            ('{"a": []} {"a": [true]}', '("a")()'),
            # objects under a trailing (): keys, each value skipped
            ('{"a": {"x": 1, "y": [2], "z": {}}}', '("a")()'),
            ('{"a": [{"x": 1}, [2], {}]}', '("a")()()'),
            # key lookups: hit, miss, empty object
            ('{"a": [{"k": 1, "j": 2}, {"j": 3}, {}]}', '("a")()("k")'),
            # every leaf kind the width shortcut must size exactly
            ('{"a": [{"k": "plain"}, {"k": "esc\\"aped"}, {"k": "\\u00e9"},'
             ' {"k": 1.50}, {"k": -0}, {"k": 0}, {"k": 12}, {"k": -7},'
             ' {"k": 1e3}, {"k": true}, {"k": false}, {"k": null},'
             ' {"k": {"z": [1]}}, {"k": [ ]}, {"k": 123456789012345678901}]}',
             '("a")()("k")'),
            # an escape elsewhere in the span disables the string shortcut
            ('{"a": [{"j": "\\n", "k": "v"}]}', '("a")()("k")'),
            # a key lookup on one decoded object, each leaf kind
            ('{"a": {"k": 1.5, "j": 2}} {"a": {"k": "x"}} {"a": {"k": "\\n"}}'
             ' {"a": {"j": 1}} {"a": {"k": [1, {"z": null}]}}', '("a")("k")'),
            # whitespace inside spans
            ('{"a": [ { "k" :\t"v" , "j" : [ 1 ] } ]}', '("a")()("k")'),
        ],
    )
    def test_decoded_last_step(self, text, path_text):
        assert_parity(text, path_text)

    @pytest.mark.parametrize(
        "text, path_text",
        [
            ('{"a": [{"k": 1, "k": 2}, {"k": 3}]}', '("a")()("k")'),
            ('{"a": [{"k": 1, "j": 0, "k": {"z": 2}}]}', '("a")()("k")'),
            ('{"k": 1, "k": 2, "j": 3}', '("k")'),
            ('{"a": [{"x": 1, "x": 2, "y": 3}]}', '("a")()()'),
            ('{"a": [{"k": {"q": 1, "q": 2}}]}', '("a")()("k")'),
        ],
    )
    def test_duplicate_keys_stay_on_the_tape(self, text, path_text):
        # assert_parity also checks tape_records > 0: the record was
        # answered by the tape, not handed to the skipper.
        assert_parity(text, path_text)

    @pytest.mark.parametrize(
        "text, path_text",
        [
            ('{"a": [[1], "s", 3, null, {"k": 4}]}', '("a")()("k")'),
            ('[{"k": 1}] {"k": 2}', '("k")'),
            ('{"a": {"k": 1}}', '("a")()("k")'),
        ],
    )
    def test_key_step_over_non_objects(self, text, path_text):
        assert_parity(text, path_text)

    @pytest.mark.parametrize(
        "text, path_text",
        [
            ('{"k": 1, "j": 2} [3] {"k": [1]} {"j": {}}', '("k")'),
            ('[1, 2] {"a": 1, "b": 2} [] {}', "()"),
        ],
    )
    def test_length_one_path(self, text, path_text):
        assert_parity(text, path_text)

    @pytest.mark.parametrize(
        "text, path_text",
        [
            # NaN/Infinity inside skipped subtrees: both scanners hop them
            ('{"a": [{"k": 1, "j": [NaN]}]}', '("a")()("k")'),
            ('{"skip": {"x": [Infinity]}, "a": [1]}', '("a")()'),
            ('{"a": [{"j": {"x": -Infinity}}, {"k": 2}]}', '("a")()("k")'),
            # junk the decoder refuses but the skipper hops
            ('{"a": [{"k": 1, "j": [1 2]}]}', '("a")()("k")'),
            ('{"a": [{"j": {"x" 1}}, {"k": "v"}]}', '("a")()("k")'),
            ('{"skip": [1 2], "k": 3}', '("k")'),
        ],
    )
    def test_refused_spans_inside_skipped_values(self, text, path_text):
        path = parse_path(path_text)
        tape_outcome = outcome_of(tape, text, path)
        assert tape_outcome[:2] == outcome_of(textscan, text, path)[:2]
        assert tape_outcome[0][0] == "ok"
        assert tape_outcome[2] > 0  # answered on the tape

    @pytest.mark.parametrize(
        "text, path_text",
        [
            # NaN/Infinity inside projected values: both scanners refuse
            ('{"a": [{"k": [NaN]}]}', '("a")()("k")'),
            ('{"a": [{"k": NaN}]}', '("a")()("k")'),
            ('{"a": [[1, Infinity]]}', '("a")()'),
            ('{"a": [{"k": 1, "k": [NaN]}]}', '("a")()("k")'),
            # junk inside the projected value
            ('{"a": [{"k": [1 2]}]}', '("a")()("k")'),
            ('{"a": [[1 2]]}', '("a")()'),
            ('{"a": [{"k": 1 "j": 2}]}', '("a")()("k")'),
        ],
    )
    def test_refused_spans_inside_projected_values(self, text, path_text):
        path = parse_path(path_text)
        tape_outcome = outcome_of(tape, text, path)
        assert tape_outcome[:2] == outcome_of(textscan, text, path)[:2]
        assert tape_outcome[0][0] == "err"
