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
from itertools import islice
from operator import length_hint
from typing import NoReturn

from .syntax import _KEYWORD, KEYWORDS, Skip, Term, _atom, _loop, _sequence

__all__ = ["ParseError", "parse"]


class ParseError(Exception):
    """A lexical or grammatical fault at a 1-based (line, column) position."""

    def __init__(self, line: int, column: int, message: str, expected: tuple[str, ...] = ()):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.expected = tuple(expected)


_COMMENT_RE = re.compile(r"#[^\r\n]*")
# A character outside the lexicon, or a digit that does not continue a word
# (matching any digit, then ruling out one after a word character, keeps
# the search to a fast scan for a character class).
_FAULT_RE = re.compile(r"[^A-Za-z_;{} \t\f\v\r\n](?<![A-Za-z0-9_][0-9])")
_LEXEME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[;{}]")


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
    code = _COMMENT_RE.sub(" ", src) if "#" in src else src
    fault = _FAULT_RE.search(code)
    if fault is not None:
        raise ParseError(*_position(code, fault.start()), f"unexpected character {fault.group()!r}")
    # Past the fault check every word starts with a letter or "_", so
    # splitting at blanks, with blanks around ";", "{" and "}", gives the
    # lexemes that `_LEXEME_RE` finds, faster.
    lexemes = code.replace(";", " ; ").replace("{", " { ").replace("}", " } ").split()
    lexemes.append("")
    return lexemes


def _fail(src: str, lexemes: list[str], it: Iterator[str], message: str, expected: tuple[str, ...] = ()) -> NoReturn:
    """Raise a ParseError at the lexeme `it` gave last, whose index and
    position are found only now."""
    i = len(lexemes) - length_hint(it) - 1
    if lexemes[i]:
        code = _COMMENT_RE.sub(" ", src)
        position = _position(code, next(islice(_LEXEME_RE.finditer(code), i, None)).start())
    else:
        position = _position(src, len(src))
    raise ParseError(*position, message, expected)


def _found(lexeme: str) -> str:
    return f", found '{lexeme}'" if lexeme else ", found end of input"


_ATOM_EXPECTED = ("SKIP", *_KEYWORD.values(), "FOR")
_UNARY = {keyword: cls for cls, keyword in _KEYWORD.items()}
_NOT_NAMES = KEYWORDS | {";", "{", "}", ""}


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


def _raise_fault(src: str) -> NoReturn:
    """Raise the first fault of `src`, a source that `parse` refused, at
    its line and column: the fault the lexemes show, walked one by one.
    Handed a source without a fault, it raises an internal error."""
    lexemes = tokenize(src)
    it = iter(lexemes)
    leaders: list[str] = []
    for word in it:  # the first lexeme of an instruction
        if word in _UNARY:
            name = next(it)
            if name in _NOT_NAMES:
                _fail(src, lexemes, it, f"expected a variable name after {word}" + _found(name), ("identifier",))
        elif word == "FOR":
            name = next(it)
            if name in _NOT_NAMES:
                _fail(src, lexemes, it, "expected a variable name after FOR" + _found(name), ("identifier",))
            brace = next(it)
            if brace != "{":
                _fail(src, lexemes, it, f"expected '{{' after FOR {name}" + _found(brace), ("{",))
            leaders.append(name)
            continue
        elif word != "SKIP":
            _fail(src, lexemes, it, "expected an instruction" + _found(word), _ATOM_EXPECTED)
        # An instruction ended: close every loop that ends here.  The end
        # of input is the last lexeme, and every branch that meets it
        # raises, so `next` never runs past it.
        word = next(it)
        while word != ";":
            if not leaders:
                if not word:
                    raise AssertionError(f"program has no fault: {src!r}")
                if word == "}":
                    _fail(src, lexemes, it, "unmatched '}'")
                _fail(src, lexemes, it, "expected ';' or end of input" + _found(word), (";",))
            leader = leaders.pop()
            if word != "}":
                _fail(src, lexemes, it, f"expected '}}' to close FOR {leader}" + _found(word), ("}",))
            word = next(it)


def parse(src: str) -> Term:
    """Parse program text into a term, raising ParseError on the first fault.

    The comment-free text is read one instruction at a time: each brace
    gets its own piece and the text is split at ";", so in a valid program
    every piece is exactly `KW name`, `SKIP`, `FOR name {` or `}`.  Each
    distinct piece text is read once, by `_read`, and its atom (shared by
    every piece of that text), loop opening or loop close is looked up
    after that.  `parts` collects the atoms of the sequence being read and
    `open_loops` holds, per enclosing FOR, the enclosing sequence's parts
    and the loop's leader, so no nesting recurses.  A source with a
    character that is not ASCII or a stray blank, a piece `_read` refuses,
    an unmatched "}" or a loop left open goes to `_raise_fault`, which
    finds the fault and its line and column from the lexemes."""
    code = _COMMENT_RE.sub(" ", src) if "#" in src else src
    # \x1c-\x1f are the ASCII characters that `str.split` takes for blanks
    # and the grammar does not.
    if not code.isascii() or "\x1c" in code or "\x1d" in code or "\x1e" in code or "\x1f" in code:
        _raise_fault(src)
    known: dict[str, Term | str | None] = {}
    open_loops: list[tuple[list[Term], str]] = []
    parts: list[Term] = []
    for piece in code.replace("{", " {;").replace("}", ";}").split(";"):
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
    _raise_fault(src)
