"""The one-scan tokenizer, the instruction-at-a-time parser and the
loop-based walkers against the recursive front end they replaced, and on
inputs deep enough to exhaust Python's recursion limit.  Every valid layout
must be read by the parser's instruction reader: its fault path, which
reads the lexemes from the piece the reader refused, runs only to raise,
so it is patched to fail where a source is valid."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_frontend as ref
from scorelang import (
    Dec,
    For,
    Inc,
    ParseError,
    Pop,
    Push,
    Seq,
    check_well_formed,
    invert,
    parse,
    pretty,
    variables_of,
)
from scorelang import parser
from scorelang.parser import tokenize
from scorelang.syntax import _IDENT_RE, _render
from term_strategies import raw_terms, wf_terms

# Lexemes, near-lexemes and every kind of space, line break and fault the
# tokenizer tells apart, joined at random; a word followed by a word run
# together, so "INC" "x1" also yields "INCx1" and "1x" a leading digit.
PIECES = (
    "SKIP", "INC", "DEC", "PUSH", "POP", "FOR", "x", "y1", "_z", "inc", "1x", "42",
    ";", "{", "}", " ", "  ", "\t", "\v", "\f", "\n", "\r", "\r\n", "#", "# note\n", "é", "\x1c", "@",
)  # fmt: skip
pieced_sources = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)
# Printed programs with spacing, comments and every line-break convention;
# an empty space between two words glues them ("INCx"), which is a fault.
SPACES = (" ", "\n", "\r", "\r\n", "\t", "\v", "\f", " # c\r\n", "#\n", " #c\r", "")
spaced_programs = st.tuples(raw_terms(max_depth=5), st.lists(st.sampled_from(SPACES), min_size=1)).map(
    lambda pair: "".join(
        lexeme + pair[1][k % len(pair[1])] for k, lexeme in enumerate(pretty(pair[0]).replace(";", " ;").split())
    )
)
# Valid programs glued as tightly as the grammar allows ("FOR n{", "x}",
# "}}", "};"), with CR-only line breaks and comments that hold ";", "{"
# and "}"; two words always keep a blank or a comment between them.
GLUES = ("", "", " ", "\r", "\t", " # ;{}\r", "#}{;\n", "\r\n")
PUNCTUATION = {";", "{", "}"}


def glued(lexemes, glues):
    out = [lexemes[0]]
    for k, lexeme in enumerate(lexemes[1:]):
        glue = glues[k % len(glues)]
        if not glue and lexeme not in PUNCTUATION and out[-1] not in PUNCTUATION:
            glue = "\r"
        out += (glue, lexeme)
    return "".join(out)


glued_programs = st.tuples(raw_terms(max_depth=5), st.lists(st.sampled_from(GLUES), min_size=1)).map(
    lambda pair: glued(pretty(pair[0]).replace(";", " ;").split(), pair[1])
)


@st.composite
def damaged_programs(draw):
    """A printed program with one lexeme deleted, inserted or replaced, or
    with ";", "}" or a name appended, laid out with `SPACES` or `GLUES`:
    a fault that may come after many pieces, next to glued braces."""
    lexemes = pretty(draw(raw_terms(max_depth=5))).replace(";", " ;").split()
    at = draw(st.integers(0, len(lexemes) - 1))
    edit = draw(st.sampled_from(("delete", "insert", "replace", "append")))
    if edit == "delete":
        del lexemes[at]
    elif edit == "append":
        lexemes.append(draw(st.sampled_from((";", "}", "x"))))
    else:
        lexeme = draw(st.sampled_from(("SKIP", "INC", "FOR", "x", ";", "{", "}")))
        lexemes[at : at + (edit == "replace")] = [lexeme]
    if not lexemes:
        return draw(st.sampled_from(SPACES))
    if draw(st.booleans()):
        return glued(lexemes, draw(st.lists(st.sampled_from(GLUES), min_size=1)))
    spaces = draw(st.lists(st.sampled_from(SPACES), min_size=1))
    return "".join(lexeme + spaces[k % len(spaces)] for k, lexeme in enumerate(lexemes))


character_soup = st.text(alphabet="INCDEPOSKFRxy19_;{}# \t\v\f\n\r\x1cé@", max_size=40)


def outcome(parse_fn, src):
    try:
        return "term", parse_fn(src)
    except ParseError as err:
        return "error", err.line, err.column, err.message, err.expected, str(err)


class TestTokenizerAgainstReference:
    @settings(max_examples=400)
    @given(st.one_of(pieced_sources, spaced_programs, character_soup))
    def test_same_lexemes_or_same_fault(self, src):
        try:
            expected = [token.text for token in ref.tokenize(src)]
        except ParseError as err:
            with pytest.raises(ParseError) as info:
                tokenize(src)
            got = info.value
            assert (got.line, got.column, got.message, got.expected) == (
                err.line,
                err.column,
                err.message,
                err.expected,
            )
        else:
            assert tokenize(src) == expected  # the reference's end token has text ""

    @pytest.mark.parametrize(
        "src, position, char",
        [
            ("INC x\r# c\nINC 1", (3, 5), "1"),  # a comment between CR and LF keeps both breaks
            ("INC x\r\nINC é", (2, 5), "é"),
            ("INC x # é\n\tDEC \x1c", (2, 6), "\x1c"),
            ("INC x;\v\fINC 9y", (1, 13), "9"),
        ],
    )
    def test_fault_positions(self, src, position, char):
        with pytest.raises(ParseError) as info:
            tokenize(src)
        assert (info.value.line, info.value.column) == position
        assert info.value.message == f"unexpected character {char!r}"


class TestParserAgainstReference:
    @settings(max_examples=400)
    @given(st.one_of(pieced_sources, spaced_programs, character_soup))
    def test_same_term_or_same_error(self, src):
        assert outcome(parse, src) == outcome(ref.parse, src)

    @given(raw_terms(max_depth=5))
    def test_printed_terms_parse_alike(self, term):
        src = pretty(term)
        assert outcome(parse, src) == outcome(ref.parse, src)


# One row per grammar fault `parse` raises: the message, then a fault at
# the earliest lexeme it can meet, inside a loop nest three deep, and at
# the end of input.  `parse` finds a fault's offset from the piece its
# reader refused, so each row pins that offset in the first piece, after
# several, and in the last.
NEST = "FOR a { # outer\n  FOR b {\r\n\tFOR c { "
PARSE_FAULTS = {
    "expected a variable name after POP": ("POP ; SKIP", NEST + "SKIP; POP } } }", "INC x;\n  POP"),
    "expected a variable name after FOR": ("FOR { INC x }", NEST + "FOR ; } } }", "INC x; FOR # no name\n"),
    "expected '{' after FOR": ("FOR n INC x", NEST + "FOR n } } }", "SKIP; FOR n"),
    "expected an instruction": ("; INC x", NEST + "} } }", "INC x; # done\r\n"),
    "unmatched '}'": ("SKIP } INC x", NEST + "INC x } } } }", "INC x; INC y }"),
    "expected ';' or end of input": ("SKIP SKIP", NEST + "INC x } } } SKIP", "INC x; INC y x"),
    "expected '}' to close FOR": ("FOR n { INC x DEC x }", NEST + "INC x SKIP } } }", NEST + "INC x"),
}


class TestParseFaults:
    @pytest.mark.parametrize(
        "message, src",
        [(message, src) for message, sources in PARSE_FAULTS.items() for src in sources],
    )
    def test_same_error_as_reference(self, message, src):
        got = outcome(parse, src)
        assert got == outcome(ref.parse, src)
        assert got[0] == "error" and got[3].startswith(message)

    @pytest.mark.parametrize(
        "head, tail",
        [
            ("INC x;" * 1000, " INC"),
            ("FOR n {INC x};" * 1000, "SKIP SKIP"),
            ("FOR n {INC x};" * 1000 + "SKIP", "} INC x"),
        ],
        ids=["name", "separator", "close"],
    )
    def test_lexemes_are_read_from_the_refused_piece(self, monkeypatch, head, tail):
        # the refused piece starts at `tail`, after a thousand or more valid
        # pieces, and the lexemes are read from there only
        starts = []

        class Spy:
            def finditer(self, code, start):
                starts.append(start)
                return lexeme_re.finditer(code, start)

        lexeme_re = parser._LEXEME_RE
        monkeypatch.setattr(parser, "_LEXEME_RE", Spy())
        src = head + tail
        assert outcome(parse, src) == outcome(ref.parse, src)
        assert starts == [len(head)]

    def test_loop_left_open_raises_at_once(self, monkeypatch):
        monkeypatch.setattr(parser, "_raise_fault", lambda src, *where: pytest.fail(f"fault path taken: {src!r}"))
        src = NEST + "INC x"
        assert outcome(parse, src) == outcome(ref.parse, src)

    def test_fault_path_handed_a_valid_source(self):
        with pytest.raises(AssertionError, match="program has no fault"):
            parser._raise_fault("INC x", "INC x", 0, False, [])


def assert_read_alike(src):
    """`parse` gives the reference's term or error, and reaches its fault
    path only where the reference finds a fault."""
    expected = outcome(ref.parse, src)
    with pytest.MonkeyPatch.context() as patch:
        if expected[0] == "term":
            patch.setattr(parser, "_raise_fault", lambda src, *where: pytest.fail(f"valid source walked: {src!r}"))
        assert outcome(parse, src) == expected


class TestInstructionReader:
    @settings(max_examples=400)
    @given(st.one_of(spaced_programs, glued_programs))
    def test_valid_layouts_are_read_one_instruction_at_a_time(self, src):
        assert_read_alike(src)

    @settings(max_examples=400)
    @given(damaged_programs())
    def test_damaged_programs(self, src):
        assert_read_alike(src)

    @pytest.mark.parametrize(
        "src",
        [
            "FOR n{INC x}",
            "FOR n{FOR m{DEC x}};SKIP",
            "FOR n{FOR m{PUSH x}}",
            "SKIP;\rFOR n {\r  POP x\r};\rINC y\r",
            "INC x; # ; { }\nFOR n { # {\r DEC y # }\n }",
        ],
    )
    def test_glued_layouts(self, src):
        assert outcome(ref.parse, src)[0] == "term"
        assert_read_alike(src)

    def test_ascii_blanks(self):
        # `parse` refuses \x1c-\x1f before it splits, so that its blanks
        # are the grammar's: space, tab, LF, CR, VT and FF.
        blanks = {c for c in map(chr, range(128)) if c.isspace()}
        assert blanks == set(" \t\n\r\v\f\x1c\x1d\x1e\x1f")
        assert {c for c in map(chr, range(128)) if len(f"a{c}b".split()) == 2} == blanks

    def test_ascii_identifiers(self):
        # `parse` reads only ASCII text, where `str.isidentifier` must be
        # the grammar's identifier.  Both are a first character and then
        # any number of continuing ones, so words of up to two characters
        # try every character in both places.
        ascii_chars = [chr(i) for i in range(128)]
        for word in ("", *ascii_chars, *(a + b for a in ascii_chars for b in ascii_chars)):
            assert word.isidentifier() == bool(_IDENT_RE.match(word)), repr(word)


class TestWalkersAgainstReference:
    @settings(max_examples=300)
    @given(st.one_of(raw_terms(max_depth=6), wf_terms(max_depth=6)))
    def test_check_well_formed_strict_and_relaxed(self, term):
        for relaxed in (False, True):
            assert check_well_formed(term, relaxed=relaxed) == ref.check_well_formed(term, relaxed=relaxed)

    def test_violation_order_and_paths(self):
        term = For("x", Seq(For("y", Seq(Inc("x"), For("x", Inc("y")))), Seq(Inc("y"), Inc("x"))))
        for relaxed in (False, True):
            assert check_well_formed(term, relaxed=relaxed) == ref.check_well_formed(term, relaxed=relaxed)

    @settings(max_examples=300)
    @given(raw_terms(max_depth=6))
    def test_invert_pretty_variables_of(self, term):
        assert invert(term) == ref.invert(term)
        assert pretty(term) == ref.pretty(term)
        assert variables_of(term) == ref.variables_of(term)

    @settings(max_examples=400)
    @given(
        st.one_of(
            st.tuples(raw_terms(max_depth=3), raw_terms(max_depth=3)),
            raw_terms(max_depth=6).map(lambda t: (t, parse(pretty(t)))),
            raw_terms(max_depth=6).map(lambda t: (t, invert(t))),
        )
    )
    def test_equality_and_hash(self, pair):
        a, b = pair
        assert (a == b) is ref.equal(a, b)
        assert (a != b) is not ref.equal(a, b)
        if a == b:
            assert hash(a) == hash(b)

    @pytest.mark.parametrize("walker", [invert, pretty, variables_of, check_well_formed])
    def test_rejects_non_terms(self, walker):
        # a non-term in a sequence, at the root, in a loop body, after a
        # closed loop and in the body of a body: where a walker opens or
        # closes a frame
        for term in (
            Seq(Inc("x"), "INC y"),
            "INC y",
            For("n", Seq(Inc("x"), "INC y")),
            Seq(For("n", Inc("x")), "INC y"),
            For("n", For("m", 3)),
        ):
            with pytest.raises(TypeError, match="not a term"):
                walker(term)


FLAT_ATOMS = 100_000
NEST_DEPTH = 2_000


def for_nest(depth, leaf):
    term = leaf
    for i in reversed(range(depth)):
        term = For(f"a{i}", term)
    return term


class TestBeyondRecursionLimit:
    """Sizes far past Python's default recursion limit of 1000."""

    def test_flat_program(self):
        cycle = ("INC x", "PUSH y", "POP y", "DEC z")
        src = "; ".join(cycle * (FLAT_ATOMS // 4))
        term = parse(src)
        assert pretty(term) == src
        assert check_well_formed(term) == []
        assert invert(term) == Seq(*(Inc("z"), Push("y"), Pop("y"), Dec("x")) * (FLAT_ATOMS // 4))
        assert variables_of(term) == {"x", "y", "z"}

    def test_deep_nest(self):
        src = "".join(f"FOR a{i} {{ " for i in range(NEST_DEPTH)) + "INC x" + " }" * NEST_DEPTH
        term = parse(src)
        assert pretty(term) == src
        assert term == for_nest(NEST_DEPTH, Inc("x"))
        assert check_well_formed(term) == []
        assert invert(term) == for_nest(NEST_DEPTH, Dec("x"))

    def test_deep_nests_that_are_equal(self):
        a, b = for_nest(NEST_DEPTH, Inc("z")), for_nest(NEST_DEPTH, Inc("z"))
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: "nest"}[b] == "nest"

    def test_deep_nests_that_differ_at_the_leaf(self):
        a, b = for_nest(NEST_DEPTH, Inc("z")), for_nest(NEST_DEPTH, Dec("z"))
        assert a != b and not a == b
        assert len({a, b}) == 2

    def test_deep_nest_violation_path(self):
        src = "FOR x { " + "FOR a { " * NEST_DEPTH + "INC x" + " }" * (NEST_DEPTH + 1)
        violations = check_well_formed(parse(src), relaxed=True)
        assert [v.leader for v in violations] == ["x"]
        assert violations[0].path == ("body",) * (NEST_DEPTH + 1)


class TestRenderBothDirections:
    """`_render` prints a term at index 0 and its inverse at index 1, in one
    walk over the term itself, with no inverse built."""

    @settings(max_examples=300)
    @given(raw_terms(max_depth=6))
    def test_against_reference(self, term):
        assert _render(term, 0) == ref.pretty(term)
        assert _render(term, 1) == ref.pretty(ref.invert(term))

    def test_flat_program(self):
        cycle, inverse_cycle = ("INC x", "PUSH y", "POP y", "DEC z"), ("INC z", "PUSH y", "POP y", "DEC x")
        term = parse("; ".join(cycle * (FLAT_ATOMS // 4)))
        assert _render(term, 0) == "; ".join(cycle * (FLAT_ATOMS // 4))
        assert _render(term, 1) == "; ".join(inverse_cycle * (FLAT_ATOMS // 4))

    def test_deep_nest(self):
        opens, closes = "".join(f"FOR a{i} {{ " for i in range(NEST_DEPTH)), " }" * NEST_DEPTH
        assert _render(for_nest(NEST_DEPTH, Inc("x")), 0) == opens + "INC x" + closes
        assert _render(for_nest(NEST_DEPTH, Inc("x")), 1) == opens + "DEC x" + closes

    def test_deep_nest_with_runs(self):
        # each body holds a loop between two atoms, so the inverse both
        # reverses every run and swaps every atom
        opens = "".join(f"PUSH p{i}; FOR a{i} {{ " for i in range(NEST_DEPTH))
        closes = "".join(f" }}; INC q{i}" for i in reversed(range(NEST_DEPTH)))
        inverse_opens = "".join(f"DEC q{i}; FOR a{i} {{ " for i in range(NEST_DEPTH))
        inverse_closes = "".join(f" }}; POP p{i}" for i in reversed(range(NEST_DEPTH)))
        term = parse(opens + "INC x" + closes)
        assert _render(term, 0) == opens + "INC x" + closes
        assert _render(term, 1) == inverse_opens + "DEC x" + inverse_closes

    @pytest.mark.parametrize("index", [0, 1])
    def test_rejects_non_terms(self, index):
        # the placements of `TestWalkersAgainstReference.test_rejects_non_terms`
        for term in (
            Seq(Inc("x"), "INC y"),
            "INC y",
            For("n", Seq(Inc("x"), "INC y")),
            Seq(For("n", Inc("x")), "INC y"),
            For("n", For("m", 3)),
        ):
            with pytest.raises(TypeError, match="not a term"):
                _render(term, index)
