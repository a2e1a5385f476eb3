"""RTF text extraction (grawler_ray/functions/rtf.py): exact
round-trips at uc 0/1/2 (unicode escapes, surrogate pairs, braces,
delimiter-space protocol), hand-built corners (destinations, {\\*
ignorables, \\'hex, control symbols, group-scoped \\uc), and typed
errors on malformed streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grawler_ray.functions.rtf import RtfError, build_rtf, extract_rtf_text


class TestRoundtrip:
    CASES = [
        "hello world",
        "line1\nline2\n\nline4",
        "tabs\there",
        "braces {and} back\\slash",
        "",
        "unicode: čžš 中文 🎉 emoji",
        "  spaces   preserved  ",
        "replacement � and bom ﻿",
        "carriage\rreturn",
        "digit after uni: č5",
        "č over",
    ]

    @pytest.mark.parametrize("uc", [0, 1, 2])
    @pytest.mark.parametrize("text", CASES)
    def test_exact(self, uc, text):
        assert extract_rtf_text(build_rtf(text, uc=uc)) == text

    @given(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),
            max_size=300,
        ),
        st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_roundtrip(self, text, uc):
        assert extract_rtf_text(build_rtf(text, uc=uc)) == text


class TestHandBuilt:
    def test_destinations_symbols_and_hex(self):
        hand = (
            rb"{\rtf1\ansi{\fonttbl{\f0 Arial;}}{\colortbl;\red0;}"
            rb"\uc1 Hello\par {\*\generator Foo 1.0;}World \'e9\~x\emdash y}"
        )
        # \~ is a NON-BREAKING space per spec
        assert extract_rtf_text(hand) == "Hello\nWorld \xe9\xa0x—y"

    def test_info_group_skipped_then_text_resumes(self):
        assert extract_rtf_text(rb"{\rtf1\ansi{\info{\title secret}}public}") == "public"

    def test_group_scoped_uc(self):
        # inner group sets \uc2; after it closes, \uc reverts to 1
        hand = rb"{\rtf1\uc1 {\uc2\u269 ??}X\u269 ?Y}"
        assert extract_rtf_text(hand) == "čXčY"

    def test_group_close_ends_pending_fallback(self):
        # the \uN fallback count is group state: the close brace ends it,
        # so the outer x is text, not the fallback of the inner \u269
        assert extract_rtf_text(rb"{\rtf1 {\u269}x}") == "\u010dx"
        # a nested group neither consumes nor inherits a pending fallback
        assert extract_rtf_text(rb"{\rtf1 \u269{y}?z}") == "\u010dyz"

    def test_unknown_control_words_ignored(self):
        assert extract_rtf_text(rb"{\rtf1\ansi\b bold\b0\i  it\i0}") == "bold it"

    def test_formatting_after_skipped_sibling_group(self):
        assert (
            extract_rtf_text(rb"{\rtf1{\stylesheet{\s1 Normal;}}a{\pict 0101}b}")
            == "ab"
        )

    def test_escaped_crlf_is_par(self):
        assert extract_rtf_text(b"{\\rtf1 a\\\nb}") == "a\nb"

    def test_raw_newlines_ignored(self):
        assert extract_rtf_text(b"{\\rtf1 a\nb\r\nc}") == "abc"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            b"",
            b"not rtf",
            b"{\\rtf1 unbalanced",
            b"{\\rtf1 }}",
            b"{\\rtf1 \\u}",
            b"{\\rtf1 \\'zz}",
            b"{\\rtf1 trailing\\",
        ],
    )
    def test_typed(self, bad):
        with pytest.raises(RtfError):
            extract_rtf_text(bad)

    def test_lone_surrogate_unrepresentable(self):
        with pytest.raises(RtfError):
            build_rtf("\ud800")

    @given(st.integers(1, 10_000), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_truncations_raise_or_parse(self, seed, frac):
        d = build_rtf(f"document {seed}\nwith text and š unicode")
        cut = max(1, int(len(d) * frac))
        try:
            extract_rtf_text(d[:cut])
        except RtfError:
            pass

    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_raise_typed(self, data):
        try:
            extract_rtf_text(data)
        except RtfError:
            pass
