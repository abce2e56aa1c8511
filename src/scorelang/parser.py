"""Concrete syntax for score programs.

Grammar::

    program := seq
    seq     := atom (";" atom)*            -- one Seq of all the atoms
    atom    := "SKIP" | "INC" ident | "DEC" ident | "PUSH" ident
             | "POP" ident | "FOR" ident "{" seq "}"
    ident   := [A-Za-z_][A-Za-z0-9_]*      -- keywords are reserved

Keywords are case-sensitive uppercase, "#" starts a comment running to the
end of the line, and whitespace (including newlines, in any convention) is
insignificant.  Program files conventionally use the ".score" extension.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import chain
from typing import NoReturn

from .syntax import _IDENT, _KEYWORD, KEYWORDS, Skip, Term, _atom, _loop, _sequence, is_identifier

__all__ = ["ParseError", "parse"]


class ParseError(Exception):
    """A lexical or grammatical fault at a 1-based (line, column) position.
    Its `args` are its constructor's, so it pickles and copies as raised."""

    def __init__(self, line: int, column: int, message: str, expected: tuple[str, ...] = ()):
        super().__init__(line, column, message, tuple(expected))
        self.line = line
        self.column = column
        self.message = message
        self.expected = tuple(expected)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


_COMMENT_RE = re.compile(r"#[^\r\n]*")
# A character outside the lexicon, or a digit that does not continue a word
# (matching any digit, then ruling out one after a word character, keeps
# the search to a fast scan for a character class).
_FAULT_RE = re.compile(r"[^A-Za-z_;{} \t\f\v\r\n](?<![A-Za-z0-9_][0-9])")
_LEXEME_RE = re.compile(_IDENT + "|[;{}]")


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of `offset` in `text`, under any newline
    convention.  Replacing each comment by a space keeps every line break
    (and keeps a CR before a comment apart from an LF after it) and changes
    a line only after its last lexeme, so an offset into the comment-free
    text has the same position in the source."""
    head = text[:offset]
    line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
    return line, offset - max(head.rfind("\n"), head.rfind("\r"))


def tokenize(src: str) -> list[str]:
    """The lexemes of `src` in order (words, ";", "{" and "}"), followed by
    "" for the end of input.  Raises ParseError at the first character
    that no lexeme, whitespace or comment accounts for."""
    code = _COMMENT_RE.sub(" ", src)
    fault = _FAULT_RE.search(code)
    if fault is not None:
        raise ParseError(*_position(code, fault.start()), f"unexpected character {fault.group()!r}")
    # Past the fault check every word starts with a letter or "_", so
    # splitting at blanks, with blanks around ";", "{" and "}", gives the
    # lexemes that `_LEXEME_RE` finds, faster.
    return [*code.replace(";", " ; ").replace("{", " { ").replace("}", " } ").split(), ""]


_ATOM_EXPECTED = ("SKIP", *_KEYWORD.values(), "FOR")
_UNARY = {keyword: cls for cls, keyword in _KEYWORD.items()}


def _read(piece: str) -> Term | str | None:
    """What one instruction piece means: its atom or SKIP, the leader of
    the loop it opens, "}" for a loop close, or None if it is none of
    these.  `parse` hands it ASCII text with no stray blank, where blanks
    split as in the grammar and an identifier is a name unless it is a
    keyword."""
    words = piece.split()
    name = words[1] if 2 <= len(words) <= 3 else ""
    if name.isidentifier() and name not in KEYWORDS:
        if len(words) == 2 and words[0] in _UNARY:
            return _atom(_UNARY[words[0]], name)
        if words[0] == "FOR" and words[-1] == "{":
            return name
    elif words == ["SKIP"]:
        return Skip()
    elif words == ["}"]:
        return "}"
    return None


def _raise_fault(src: str, code: str, start: int, ended: bool, leaders: list[str]) -> NoReturn:
    """Raise the first fault of `src`, whose comment-free text `code`
    `parse` refused at offset `start`, inside the loops that `leaders`
    opened.  A character fault anywhere comes first.  Else the fault lies
    in the lexemes from `start`, read as the grammar goes on after an
    instruction if `ended` (the refused piece starts with "}") and where
    an instruction begins if not.  Handed a source without a fault, it
    raises an internal error."""
    tokenize(src)
    lexemes = chain(((m.group(), m.start()) for m in _LEXEME_RE.finditer(code, start)), [("", len(src))])

    def fail(message: str, expected: tuple[str, ...]) -> NoReturn:
        found = f", found '{word}'" if word else ", found end of input"
        raise ParseError(*_position(code if word else src, at), message + found, expected)

    for word, at in lexemes:
        if ended:  # an instruction ended, so a loop closes here
            if not leaders:
                if not word:
                    raise AssertionError(f"program has no fault: {src!r}")
                if word == "}":
                    raise ParseError(*_position(code, at), "unmatched '}'")
                fail("expected ';' or end of input", (";",))
            if word != "}":
                fail(f"expected '}}' to close FOR {leaders[-1]}", ("}",))
            leaders.pop()
        else:  # an instruction begins
            if word not in _ATOM_EXPECTED:
                fail("expected an instruction", _ATOM_EXPECTED)
            keyword = word
            ended = keyword != "FOR"
            if keyword != "SKIP":
                word, at = next(lexemes)
                if not is_identifier(word):
                    fail(f"expected a variable name after {keyword}", ("identifier",))
            if not ended:
                leaders.append(word)
                word, at = next(lexemes)
                if word != "{":
                    fail(f"expected '{{' after FOR {leaders[-1]}", ("{",))


_CHUNK = 1 << 14  # characters of a program's text that `_split` splits at a time


def _pieces(src: str) -> tuple[str, Iterator[str]]:
    """The comment-free text of `src` and its instruction pieces, in order:
    each brace gets its own piece and the text is split at ";", so in a
    valid program every piece is exactly `KW name`, `SKIP`, `FOR name {` or
    `}`, which `_read` reads.  A text with a character that is not ASCII
    or that `str.split` takes for a blank and the grammar does not goes to
    `_raise_fault`.  `parse` and `semantics._compile_text` read the pieces
    one instruction at a time."""
    code = _COMMENT_RE.sub(" ", src)
    # \x1c-\x1f are the ASCII characters that `str.split` takes for blanks
    # and the grammar does not.
    if not code.isascii() or "\x1c" in code or "\x1d" in code or "\x1e" in code or "\x1f" in code:
        _raise_fault(src, code, 0, False, [])
    return code, chain.from_iterable(_split(code.replace("{", " {;").replace("}", ";}")))


def _split(text: str) -> Iterator[list[str]]:
    """The pieces of `text` split at ";", in lists of those in about
    `_CHUNK` characters each, so that the pieces of a long text are not all
    held at once: each list ends at a ";" past `_CHUNK` characters.  On the
    20,000-atom program this took 1.9 ms, against 2.2 ms for one split
    (Python 3.11, a 2-core Xeon)."""
    start = 0
    while True:
        end = text.find(";", start + _CHUNK)
        if end < 0:
            yield text[start:].split(";")
            return
        yield text[start:end].split(";")
        start = end + 1


def parse(src: str) -> Term:
    """Parse program text into a term, raising ParseError on the first fault.

    The text is read one instruction piece at a time (`_pieces`).  Each
    distinct piece text is read once, by `_read`, and its atom (shared by
    every piece of that text), loop opening or loop close is looked up
    after that.  `parts` collects the atoms of the sequence being read and
    `open_loops` holds, per enclosing FOR, the enclosing sequence's parts
    and the loop's leader, so no nesting recurses.  A source with a
    character that is not ASCII or a stray blank, a piece `_read` refuses
    or an unmatched "}" goes to `_raise_fault`, which reads the lexemes
    from that piece on; a loop left open raises at the end of input."""
    code, unread = _pieces(src)
    known: dict[str, Term | str | None] = {}
    open_loops: list[tuple[list[Term], str]] = []
    parts: list[Term] = []
    for piece in unread:
        item = known.get(piece)
        if item is None:
            item = known[piece] = _read(piece)
            if item is None:
                break
        if type(item) is not str:
            parts.append(item)
        elif item != "}":
            open_loops.append((parts, item))
            parts = []
        elif open_loops:
            body = _sequence(parts)
            parts, leader = open_loops.pop()
            parts.append(_loop(leader, body))
        else:
            break
    else:
        if not open_loops:
            return _sequence(parts)
        # Every piece was read, so the source holds no character fault.
        message = f"expected '}}' to close FOR {open_loops[-1][1]}, found end of input"
        raise ParseError(*_position(src, len(src)), message, ("}",))
    # The refused piece and those after it, with the split undone, are the
    # rest of `code`.
    start = len(code) - len(";".join((piece, *unread)).replace(" {;", "{").replace(";}", "}"))
    _raise_fault(src, code, start, piece.startswith("}"), [leader for _, leader in open_loops])
