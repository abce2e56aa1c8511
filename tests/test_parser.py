import pytest
from hypothesis import given
from hypothesis import strategies as st

from scorelang import (
    Dec,
    For,
    Inc,
    ParseError,
    Pop,
    Push,
    Seq,
    Skip,
    parse,
    pretty,
)
from term_strategies import raw_terms


class TestParse:
    def test_two_loops(self):
        term = parse("FOR x {POP s}; FOR x {PUSH s}")
        assert term == Seq(For("x", Pop("s")), For("x", Push("s")))

    def test_skip(self):
        assert parse("SKIP") == Skip()

    def test_right_association(self):
        term = parse("INC x; DEC y; PUSH z")
        assert term == Seq(Inc("x"), Seq(Dec("y"), Push(("z"))))

    def test_nested_loop_bodies(self):
        term = parse("FOR x { INC y; FOR y { DEC z } }")
        assert term == For("x", Seq(Inc("y"), For("y", Dec("z"))))

    def test_whitespace_and_newlines_insignificant(self):
        assert parse("INC x;\n  DEC y") == parse("INC x; DEC y")
        assert parse("INC x;\r\nDEC y") == parse("INC x; DEC y")

    def test_comments(self):
        src = "# set up\nINC x; # bump\nDEC y\n# done"
        assert parse(src) == Seq(Inc("x"), Dec("y"))

    def test_lowercase_keywords_are_identifiers(self):
        assert parse("INC skip") == Inc("skip")

    def test_accepts_ill_formed_programs(self):
        assert parse("FOR x {INC x}") == For("x", Inc("x"))

    def test_deterministic(self):
        src = "FOR x { PUSH s; POP s }; INC y"
        assert parse(src) == parse(src)


class TestParseErrors:
    def test_missing_braces(self):
        with pytest.raises(ParseError) as info:
            parse("FOR x POP s")
        assert info.value.expected == ("{",)
        assert (info.value.line, info.value.column) == (1, 7)

    def test_empty_input(self):
        with pytest.raises(ParseError) as info:
            parse("")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_trailing_semicolon(self):
        with pytest.raises(ParseError) as info:
            parse("INC x;")
        assert (info.value.line, info.value.column) == (1, 7)

    def test_keyword_where_identifier_expected(self):
        with pytest.raises(ParseError) as info:
            parse("INC FOR")
        assert info.value.expected == ("identifier",)

    def test_unmatched_close_brace(self):
        with pytest.raises(ParseError) as info:
            parse("SKIP }")
        assert "unmatched" in info.value.message

    def test_unterminated_loop(self):
        with pytest.raises(ParseError) as info:
            parse("FOR x { INC y")
        assert info.value.expected == ("}",)

    def test_lexical_fault(self):
        with pytest.raises(ParseError) as info:
            parse("FOR x (DEC y)")
        assert (info.value.line, info.value.column) == (1, 7)

    def test_bare_identifier(self):
        with pytest.raises(ParseError) as info:
            parse("skip")
        assert info.value.expected == ("SKIP", "INC", "DEC", "PUSH", "POP", "FOR")

    def test_position_on_later_line(self):
        with pytest.raises(ParseError) as info:
            parse("INC x;\nDEC y;\nPOP @")
        assert (info.value.line, info.value.column) == (3, 5)

    def test_message_nonempty(self):
        for src in ("", "INC", "SKIP SKIP", "}"):
            with pytest.raises(ParseError) as info:
                parse(src)
            assert info.value.message

    @given(st.text(alphabet="INCDEPOSKFRxy;{}# \n@", max_size=30))
    def test_error_positions_within_bounds(self, src):
        try:
            parse(src)
        except ParseError as err:
            lines = src.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.column <= len(lines[err.line - 1]) + 1


class TestRoundTrip:
    @given(raw_terms())
    def test_parse_pretty_identity(self, term):
        assert parse(pretty(term)) == term

    def test_dense_and_spaced_sources_agree(self):
        assert parse("FOR x {POP s}") == parse("FOR x { POP s }")

    @given(raw_terms())
    def test_pretty_is_stable_over_reparse(self, term):
        assert pretty(parse(pretty(term))) == pretty(term)
